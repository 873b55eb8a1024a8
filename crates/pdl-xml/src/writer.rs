//! XML serialization: escaping and pretty-printing.

use crate::dom::{Document, Element, Node};
use std::fmt::Write as _;

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

/// Serializes a document with explicit options.
pub(crate) fn write_document_with(doc: &Document, opts: &WriteOptions) -> String {
    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    for c in &doc.prolog_comments {
        let _ = writeln!(out, "<!--{c}-->");
    }
    write_element(&mut out, &doc.root, 0, opts);
    out.push('\n');
    out
}

fn write_element(out: &mut String, e: &Element, depth: usize, opts: &WriteOptions) {
    let pad = |out: &mut String, depth: usize| (0..depth).for_each(|_| out.push_str(&opts.indent));
    pad(out, depth);
    out.push('<');
    out.push_str(&e.name);
    for (n, v) in &e.attributes {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_into(out, v, attr_entity);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    // Text-only elements are rendered inline: <name>value</name>.
    let text_only = e
        .children
        .iter()
        .all(|c| matches!(c, Node::Text(_) | Node::CData(_)));
    for c in &e.children {
        if !text_only {
            out.push('\n');
            if !matches!(c, Node::Element(_)) {
                pad(out, depth + 1);
            }
        }
        match c {
            Node::Element(child) => write_element(out, child, depth + 1, opts),
            Node::Text(t) if text_only => escape_into(out, t, text_entity),
            Node::Text(t) => escape_into(out, t.trim(), text_entity),
            Node::CData(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            Node::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
        }
    }
    if !text_only {
        out.push('\n');
        pad(out, depth);
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

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
        let mut e = Element::new("a")
            .attr("k", "x\ty\n\"<&>ü")
            .child(Element::new("b").text(" <in&line> ü "))
            .text("  loose > text  ");
        e.children.push(Node::Comment(" note ".into()));
        e.children
            .push(Node::Element(Element::new("c").child(Element::new("d"))));
        e.children.push(Node::CData("raw <&>".into()));
        e.children.push(Node::Element(Element {
            children: vec![Node::Text("t".into()), Node::CData("u".into())],
            ..Element::new("e")
        }));
        let opts = WriteOptions {
            indent: "\t".into(),
            declaration: false,
        };
        assert_eq!(
            write_document_with(&Document::new(e), &opts),
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
        let e = Element::new("Master")
            .attr("id", "0")
            .child(Element::new("name").text("ARCHITECTURE"))
            .child(Element::new("Worker").attr("id", "1"));
        let s = write_document(&Document::new(e));
        assert!(s.contains("<name>ARCHITECTURE</name>"));
        assert!(s.contains("<Worker id=\"1\"/>"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let src = "<Master id=\"0\" quantity=\"1\">\n  <PUDescriptor>\n    <Property fixed=\"true\">\n      <name>ARCHITECTURE</name>\n      <value>x86</value>\n    </Property>\n  </PUDescriptor>\n  <Interconnect type=\"rDMA\" from=\"0\" to=\"1\" scheme=\"\"/>\n</Master>";
        let doc1 = parse_document(src).unwrap();
        let out = write_document(&doc1);
        let doc2 = parse_document(&out).unwrap();
        assert_eq!(doc1.root, doc2.root);
    }

    #[test]
    fn round_trip_with_special_characters() {
        let e = Element::new("v")
            .attr("a", "x<y & \"z\"")
            .text("body <&> text");
        let doc = Document::new(e);
        let out = write_document(&doc);
        let back = parse_document(&out).unwrap();
        assert_eq!(back.root.attribute("a"), Some("x<y & \"z\""));
        assert_eq!(back.root.text_content(), "body <&> text");
    }

    #[test]
    fn cdata_round_trip() {
        let src = "<c><![CDATA[raw <markup> & stuff]]></c>";
        let doc = parse_document(src).unwrap();
        let out = write_document(&doc);
        let back = parse_document(&out).unwrap();
        assert_eq!(back.root.text_content(), "raw <markup> & stuff");
    }

    #[test]
    fn declaration_togglable() {
        let doc = Document::new(Element::new("a"));
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
        let mut doc = Document::new(Element::new("a"));
        doc.prolog_comments.push(" XML HEADER ".into());
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
        assert_eq!(doc.root, back.root);
    }
}
