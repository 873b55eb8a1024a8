//! XML serialization: escaping and pretty-printing.

use crate::dom::{Document, Node};

/// Output options for the writer.
#[derive(Debug, Clone)]
pub(crate) struct WriteOptions {
    /// Indentation per nesting level.
    pub indent: String,
    /// Whether to emit the `<?xml …?>` declaration.
    pub declaration: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            indent: "  ".to_string(),
            declaration: true,
        }
    }
}

/// Appends `s` to `out`, replacing the bytes `entity` names by their
/// references and copying the runs between them whole.
fn escape_into(out: &mut String, s: &str, entity: fn(u8) -> Option<&'static str>) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(reference) = entity(b) {
            out.push_str(&s[copied..i]);
            out.push_str(reference);
            copied = i + 1;
        }
    }
    out.push_str(&s[copied..]);
}

fn text_entity(b: u8) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    }
}

fn attr_entity(b: u8) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\t' => Some("&#9;"),
        _ => None,
    }
}

/// Serializes a document with default options.
pub(crate) fn write_document(doc: &Document) -> String {
    write_document_with(doc, &WriteOptions::default())
}

/// Serializes a document with explicit options: one pass over its nodes in
/// document order, the elements still open around the cursor on a stack.
pub(crate) fn write_document_with(doc: &Document, opts: &WriteOptions) -> String {
    /// An element whose close tag is still to come.
    struct Open<'d> {
        name: &'d str,
        /// The row its subtree ends before.
        end: u32,
        /// Text-only elements are rendered inline: <name>value</name>.
        text_only: bool,
    }
    let pad = |out: &mut String, depth: usize| (0..depth).for_each(|_| out.push_str(&opts.indent));
    let close = |out: &mut String, open: &mut Vec<Open>| {
        let e = open.pop().expect("an open element");
        if !e.text_only {
            out.push('\n');
            pad(out, open.len());
        }
        out.push_str("</");
        out.push_str(e.name);
        out.push('>');
    };

    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    let mut open: Vec<Open> = Vec::new();
    for (row, node, end) in doc.nodes() {
        while open.last().is_some_and(|e| e.end == row) {
            close(&mut out, &mut open);
        }
        let inline = open.last().is_some_and(|e| e.text_only);
        if !open.is_empty() && !inline {
            out.push('\n');
            pad(&mut out, open.len());
        }
        match node {
            Node::Element(e) => {
                out.push('<');
                out.push_str(e.name());
                for (n, v) in e.attributes() {
                    out.push(' ');
                    out.push_str(n);
                    out.push_str("=\"");
                    escape_into(&mut out, v, attr_entity);
                    out.push('"');
                }
                if end == row + 1 {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    let text_only = e
                        .children()
                        .all(|c| matches!(c, Node::Text(_) | Node::CData(_)));
                    open.push(Open {
                        name: e.name(),
                        end,
                        text_only,
                    });
                }
            }
            Node::Text(t) if inline => escape_into(&mut out, t, text_entity),
            Node::Text(t) => escape_into(&mut out, t.trim(), text_entity),
            Node::CData(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            Node::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
                // Before the root element: a line of its own.
                if open.is_empty() {
                    out.push('\n');
                }
            }
        }
    }
    while !open.is_empty() {
        close(&mut out, &mut open);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Pos;
    use crate::parser::parse_document;

    /// An element in the making; `close` it when its children are in.
    fn open<'a>(doc: &mut Document<'a>, name: &'a str, attrs: &[(&'a str, &'a str)]) {
        doc.open(name, Pos::default()).unwrap();
        for &(n, v) in attrs {
            doc.attr(n, v).unwrap();
        }
    }

    #[test]
    fn escaping() {
        let escaped = |s: &str, entity: fn(u8) -> Option<&'static str>| {
            let mut out = String::new();
            escape_into(&mut out, s, entity);
            out
        };
        assert_eq!(escaped("a<b&c>d", text_entity), "a&lt;b&amp;c&gt;d");
        assert_eq!(
            escaped("say \"hi\" & <go>", attr_entity),
            "say &quot;hi&quot; &amp; &lt;go>"
        );
    }

    #[test]
    fn mixed_content_layout_is_pinned() {
        let mut doc = Document::default();
        open(&mut doc, "a", &[("k", "x\ty\n\"<&>ü")]);
        open(&mut doc, "b", &[]);
        doc.text(" <in&line> ü ").unwrap();
        doc.close();
        doc.text("  loose > text  ").unwrap();
        doc.comment(" note ").unwrap();
        open(&mut doc, "c", &[]);
        open(&mut doc, "d", &[]);
        doc.close();
        doc.close();
        doc.cdata("raw <&>").unwrap();
        open(&mut doc, "e", &[]);
        doc.text("t").unwrap();
        doc.cdata("u").unwrap();
        doc.close();
        doc.close();
        let opts = WriteOptions {
            indent: "\t".into(),
            declaration: false,
        };
        assert_eq!(
            write_document_with(&doc, &opts),
            "<a k=\"x&#9;y&#10;&quot;&lt;&amp;>ü\">\n\
             \t<b> &lt;in&amp;line&gt; ü </b>\n\
             \tloose &gt; text\n\
             \t<!-- note -->\n\
             \t<c>\n\
             \t\t<d/>\n\
             \t</c>\n\
             \t<![CDATA[raw <&>]]>\n\
             \t<e>t<![CDATA[u]]></e>\n\
             </a>\n"
        );
    }

    #[test]
    fn self_closing_and_inline_text() {
        let mut doc = Document::default();
        open(&mut doc, "Master", &[("id", "0")]);
        open(&mut doc, "name", &[]);
        doc.text("ARCHITECTURE").unwrap();
        doc.close();
        open(&mut doc, "Worker", &[("id", "1")]);
        doc.close();
        doc.close();
        let s = write_document(&doc);
        assert!(s.contains("<name>ARCHITECTURE</name>"));
        assert!(s.contains("<Worker id=\"1\"/>"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let src = "<Master id=\"0\" quantity=\"1\">\n  <PUDescriptor>\n    <Property fixed=\"true\">\n      <name>ARCHITECTURE</name>\n      <value>x86</value>\n    </Property>\n  </PUDescriptor>\n  <Interconnect type=\"rDMA\" from=\"0\" to=\"1\" scheme=\"\"/>\n</Master>";
        let doc1 = parse_document(src).unwrap();
        let out = write_document(&doc1);
        let doc2 = parse_document(&out).unwrap();
        assert_eq!(doc1, doc2);
    }

    #[test]
    fn round_trip_with_special_characters() {
        let mut doc = Document::default();
        open(&mut doc, "v", &[("a", "x<y & \"z\"")]);
        doc.text("body <&> text").unwrap();
        doc.close();
        let out = write_document(&doc);
        let back = parse_document(&out).unwrap();
        assert_eq!(back.root().attribute("a"), Some("x<y & \"z\""));
        assert_eq!(back.root().text_content(), "body <&> text");
    }

    #[test]
    fn cdata_round_trip() {
        let src = "<c><![CDATA[raw <markup> & stuff]]></c>";
        let doc = parse_document(src).unwrap();
        let out = write_document(&doc);
        let back = parse_document(&out).unwrap();
        assert_eq!(back.root().text_content(), "raw <markup> & stuff");
    }

    #[test]
    fn declaration_togglable() {
        let mut doc = Document::default();
        open(&mut doc, "a", &[]);
        doc.close();
        let with = write_document(&doc);
        assert!(with.starts_with("<?xml"));
        let without = write_document_with(
            &doc,
            &WriteOptions {
                declaration: false,
                ..Default::default()
            },
        );
        assert!(without.starts_with("<a"));
    }

    #[test]
    fn prolog_comments_written() {
        let mut doc = Document::default();
        doc.comment(" XML HEADER ").unwrap();
        open(&mut doc, "a", &[]);
        doc.close();
        let out = write_document(&doc);
        assert!(out.contains("<!-- XML HEADER -->"));
    }

    #[test]
    fn comments_in_content_round_trip() {
        let src = "<a>\n  <!-- Additional properties -->\n  <b/>\n</a>";
        let doc = parse_document(src).unwrap();
        let out = write_document(&doc);
        assert!(out.contains("<!-- Additional properties -->"));
        let back = parse_document(&out).unwrap();
        assert_eq!(doc, back);
    }
}
