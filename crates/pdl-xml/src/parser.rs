//! A from-scratch, dependency-free XML parser.
//!
//! Covers the XML subset the PDL uses (and a bit more): prolog/declaration,
//! processing instructions (skipped), comments, elements with attributes,
//! character data with the five predefined entities plus numeric character
//! references, and CDATA sections. DTDs are not supported (the PDL uses XSD
//! schemas, handled by [`crate::schema`]).
//!
//! The parser is a hand-rolled recursive-descent cursor over `&str` that
//! tracks line/column for diagnostics and guarantees well-formedness:
//! matching tags, unique attributes per element, single root element,
//! nesting no deeper than [`MAX_DEPTH`].
//! Character data, attribute values, names and whitespace are consumed a
//! run at a time (`Parser::run`) and pushed into the [`Document`] as slices
//! of the input — copied only where an entity reference has to be resolved;
//! `tests/xml_oracle.rs` holds the one-`char`-at-a-time cursor and the tree
//! of `String`s this replaced and requires the same nodes, positions and
//! errors from both.

use crate::dom::Document;
use crate::error::{Pos, SyntaxError, SyntaxErrorKind};
use std::borrow::Cow;
use std::collections::HashSet;

/// Elements nested deeper than this are rejected: far deeper than any
/// descriptor (a PU hierarchy plus three levels of descriptor markup), and
/// shallow enough that `Parser::parse_element` and every client that
/// recurses once per level fit a 2 MB thread stack in a debug build.
pub const MAX_DEPTH: usize = 256;

/// An element's first attributes are checked for duplicates by comparing
/// names; past this many, by a set, so a tag of any width costs linear time.
const SCANNED_ATTRIBUTES: usize = 16;

/// Parses a complete XML document, whose strings borrow `input`.
pub fn parse_document(input: &str) -> Result<Document<'_>, SyntaxError> {
    let mut p = Parser::new(input);
    p.skip_bom();

    // Prolog: declaration, whitespace, comments, PIs.
    loop {
        p.skip_whitespace();
        if p.starts_with("<?") {
            p.skip_pi()?;
        } else if p.starts_with("<!--") {
            let c = p.parse_comment()?;
            p.doc.comment(c)?;
        } else if p.starts_with("<!DOCTYPE") {
            p.skip_doctype()?;
        } else {
            break;
        }
    }

    p.skip_whitespace();
    if p.eof() || !p.starts_with("<") {
        return Err(p.err(SyntaxErrorKind::NoRootElement));
    }
    p.parse_element()?;

    // Epilog: only whitespace, comments and PIs allowed.
    loop {
        p.skip_whitespace();
        if p.starts_with("<!--") {
            p.parse_comment()?;
        } else if p.starts_with("<?") {
            p.skip_pi()?;
        } else if p.eof() {
            break;
        } else {
            return Err(p.err(SyntaxErrorKind::TrailingContent));
        }
    }

    Ok(p.doc)
}

/// Parses a single element (fragment parsing, used by tests and tools that
/// embed PDL snippets).
pub fn parse_fragment(input: &str) -> Result<Document<'_>, SyntaxError> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_whitespace();
    p.parse_element()?;
    p.skip_whitespace();
    if !p.eof() {
        return Err(p.err(SyntaxErrorKind::TrailingContent));
    }
    Ok(p.doc)
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset into `input`.
    at: usize,
    line: u32,
    col: u32,
    /// What has been parsed; its open elements are those around the cursor.
    doc: Document<'a>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            at: 0,
            line: 1,
            col: 1,
            doc: Document::default(),
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, kind: SyntaxErrorKind) -> SyntaxError {
        SyntaxError {
            pos: self.pos(),
            kind,
        }
    }

    fn eof(&self) -> bool {
        self.at >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.at..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.at += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes the markup literal `s` (ASCII, no newline).
    fn bump_str(&mut self, s: &str) {
        debug_assert!(self.starts_with(s) && s.is_ascii() && !s.contains('\n'));
        self.at += s.len();
        self.col += s.len() as u32;
    }

    /// Consumes and returns the longest run of bytes `keep` accepts. `keep`
    /// accepts either every non-ASCII byte or none, so the run ends on a
    /// character boundary. Line and column ride the same scan: every byte
    /// but a UTF-8 continuation byte starts a character.
    fn run(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let rest = self.rest();
        let mut len = 0;
        for b in rest.bytes() {
            if !keep(b) {
                break;
            }
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
            len += 1;
        }
        self.at += len;
        &rest[..len]
    }

    /// [`run`](Self::run) over a character class with non-ASCII members:
    /// its ASCII members (`ascii`) by byte scan, the others one `char` at a
    /// time.
    fn run_class(&mut self, ascii: impl Fn(u8) -> bool, other: impl Fn(char) -> bool) {
        loop {
            self.run(&ascii);
            match self.peek() {
                Some(c) if !c.is_ascii() && other(c) => self.bump(),
                _ => return,
            };
        }
    }

    fn expect(&mut self, s: &'static str) -> Result<(), SyntaxError> {
        if self.starts_with(s) {
            self.bump_str(s);
            Ok(())
        } else {
            let found: String = self.rest().chars().take(s.chars().count().max(1)).collect();
            Err(self.err(SyntaxErrorKind::Expected { expected: s, found }))
        }
    }

    fn skip_bom(&mut self) {
        if self.starts_with("\u{feff}") {
            self.bump();
        }
    }

    fn skip_whitespace(&mut self) {
        self.run_class(|b| matches!(b, b'\t'..=b'\r' | b' '), char::is_whitespace);
    }

    /// Skips `<? … ?>` (declaration or processing instruction).
    fn skip_pi(&mut self) -> Result<(), SyntaxError> {
        self.bump_str("<?");
        loop {
            if self.eof() {
                return Err(self.err(SyntaxErrorKind::UnexpectedEof("processing instruction")));
            }
            if self.starts_with("?>") {
                self.bump_str("?>");
                return Ok(());
            }
            self.bump();
        }
    }

    /// Skips a DOCTYPE declaration (no internal-subset bracket nesting
    /// beyond one level, which covers practical documents).
    fn skip_doctype(&mut self) -> Result<(), SyntaxError> {
        self.bump_str("<!DOCTYPE");
        let mut depth = 0usize;
        loop {
            match self.bump() {
                None => return Err(self.err(SyntaxErrorKind::UnexpectedEof("DOCTYPE"))),
                Some('[') => depth += 1,
                Some(']') => depth = depth.saturating_sub(1),
                Some('>') if depth == 0 => return Ok(()),
                _ => {}
            }
        }
    }

    fn parse_comment(&mut self) -> Result<&'a str, SyntaxError> {
        self.bump_str("<!--");
        let start = self.at;
        loop {
            if self.eof() {
                return Err(self.err(SyntaxErrorKind::UnexpectedEof("comment")));
            }
            if self.starts_with("-->") {
                let text = &self.input[start..self.at];
                self.bump_str("-->");
                return Ok(text);
            }
            self.bump();
        }
    }

    fn parse_cdata(&mut self) -> Result<&'a str, SyntaxError> {
        self.bump_str("<![CDATA[");
        let start = self.at;
        loop {
            if self.eof() {
                return Err(self.err(SyntaxErrorKind::UnexpectedEof("CDATA section")));
            }
            if self.starts_with("]]>") {
                let text = &self.input[start..self.at];
                self.bump_str("]]>");
                return Ok(text);
            }
            self.bump();
        }
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        Self::is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
    }

    fn parse_name(&mut self) -> Result<&'a str, SyntaxError> {
        let start = self.at;
        if !matches!(self.peek(), Some(c) if Self::is_name_start(c)) {
            let found: String = self.rest().chars().take(1).collect();
            return Err(self.err(SyntaxErrorKind::BadName(found)));
        }
        self.run_class(
            |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.'),
            Self::is_name_char,
        );
        Ok(&self.input[start..self.at])
    }

    fn parse_entity(&mut self) -> Result<char, SyntaxError> {
        // Caller consumed nothing; we are at '&'.
        self.bump(); // '&'
        let start = self.at;
        loop {
            match self.peek() {
                None => return Err(self.err(SyntaxErrorKind::UnexpectedEof("entity reference"))),
                Some(';') => break,
                Some(c) if c.is_alphanumeric() || c == '#' || c == 'x' => {
                    self.bump();
                }
                Some(_) => {
                    let name = self.input[start..self.at].to_string();
                    return Err(self.err(SyntaxErrorKind::BadEntity(name)));
                }
            }
            if self.at - start > 12 {
                let name = self.input[start..self.at].to_string();
                return Err(self.err(SyntaxErrorKind::BadEntity(name)));
            }
        }
        let name = &self.input[start..self.at];
        self.bump(); // ';'
        let bad = || SyntaxError {
            pos: self.pos(),
            kind: SyntaxErrorKind::BadEntity(name.to_string()),
        };
        match name {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16).map_err(|_| bad())?;
                char::from_u32(code).ok_or_else(bad)
            }
            _ if name.starts_with('#') => {
                let code: u32 = name[1..].parse().map_err(|_| bad())?;
                char::from_u32(code).ok_or_else(bad)
            }
            _ => Err(bad()),
        }
    }

    /// A slice of the input unless the value holds an entity reference.
    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, SyntaxError> {
        let quote = match self.peek() {
            Some(c @ ('"' | '\'')) => c,
            _ => {
                let found: String = self.rest().chars().take(1).collect();
                return Err(self.err(SyntaxErrorKind::Expected {
                    expected: "attribute value quote",
                    found,
                }));
            }
        };
        self.bump();
        let plain = move |b| b != quote as u8 && b != b'&' && b != b'<';
        let mut value = Cow::Borrowed(self.run(plain));
        loop {
            match self.peek() {
                None => return Err(self.err(SyntaxErrorKind::UnexpectedEof("attribute value"))),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some('&') => {
                    let c = self.parse_entity()?;
                    let owned = value.to_mut();
                    owned.push(c);
                    owned.push_str(self.run(plain));
                }
                Some(_) => return Err(self.err(SyntaxErrorKind::StrayMarkup("<".into()))),
            }
        }
    }

    /// One level of recursion per open element, which [`MAX_DEPTH`] bounds;
    /// the start tag is parsed in a frame of its own so that a level costs
    /// only what the content loop needs.
    fn parse_element(&mut self) -> Result<(), SyntaxError> {
        if self.doc.depth() == MAX_DEPTH {
            return Err(self.err(SyntaxErrorKind::TooDeep { limit: MAX_DEPTH }));
        }
        let (name, has_content) = self.parse_start_tag()?;
        if has_content {
            self.parse_content(name)?;
        }
        self.doc.close();
        Ok(())
    }

    /// Parses `<name attr="v" …>` or `<name …/>` and opens the element; the
    /// flag is whether content and a close tag follow.
    fn parse_start_tag(&mut self) -> Result<(&'a str, bool), SyntaxError> {
        let pos = self.pos();
        self.expect("<")?;
        let name = self.parse_name()?;
        self.doc.open(name, pos)?;
        // Names past the first `SCANNED_ATTRIBUTES`.
        let mut later_names: HashSet<&'a str> = HashSet::new();

        loop {
            let had_space = {
                let before = self.at;
                self.skip_whitespace();
                self.at != before
            };
            match self.peek() {
                Some('>') => {
                    self.bump();
                    return Ok((name, true));
                }
                Some('/') => {
                    self.bump();
                    self.expect(">")?;
                    return Ok((name, false));
                }
                Some(c) if Self::is_name_start(c) && had_space => {
                    let attr_name = self.parse_name()?;
                    let attrs = self.doc.innermost().expect("just opened").attributes();
                    let scanned = &attrs[..attrs.len().min(SCANNED_ATTRIBUTES)];
                    if scanned.iter().any(|(n, _)| n == attr_name)
                        || (attrs.len() >= SCANNED_ATTRIBUTES && !later_names.insert(attr_name))
                    {
                        return Err(self.err(SyntaxErrorKind::DuplicateAttribute(attr_name.into())));
                    }
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    self.doc.attr(attr_name, value)?;
                }
                _ => {
                    let found: String = self.rest().chars().take(1).collect();
                    return Err(self.err(SyntaxErrorKind::Expected {
                        expected: "attribute, '>' or '/>'",
                        found,
                    }));
                }
            }
        }
    }

    /// Parses the children of the open element `name` up to and including
    /// its close tag.
    fn parse_content(&mut self, name: &'a str) -> Result<(), SyntaxError> {
        // What entity references have made of the character data so far.
        let mut text = String::new();
        loop {
            let run = self.run(|b| b != b'<' && b != b'&');
            if self.eof() {
                return Err(self.err(SyntaxErrorKind::UnexpectedEof("element content")));
            }
            if self.starts_with("&") {
                text.push_str(run);
                text.push(self.parse_entity()?);
                continue;
            }
            // The character data before this piece of markup is a text node
            // unless it is pure inter-element whitespace.
            let whole = if text.is_empty() {
                Cow::Borrowed(run)
            } else {
                text.push_str(run);
                Cow::Owned(std::mem::take(&mut text))
            };
            if !whole.trim().is_empty() {
                self.doc.text(whole)?;
            }
            if self.starts_with("</") {
                self.bump_str("</");
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(SyntaxErrorKind::MismatchedClose {
                        open: name.to_string(),
                        close: close.to_string(),
                    }));
                }
                self.skip_whitespace();
                self.expect(">")?;
                return Ok(());
            } else if self.starts_with("<!--") {
                let c = self.parse_comment()?;
                self.doc.comment(c)?;
            } else if self.starts_with("<![CDATA[") {
                let c = self.parse_cdata()?;
                self.doc.cdata(c)?;
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else {
                self.parse_element()?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Node;
    use crate::error::SyntaxErrorKind;

    #[test]
    fn minimal_document() {
        let doc = parse_document("<a/>").unwrap();
        assert_eq!(doc.root().name(), "a");
        assert!(doc.root().attributes().is_empty() && doc.root().children().next().is_none());
    }

    #[test]
    fn declaration_and_comments() {
        let doc = parse_document(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- XML HEADER -->\n<Master id=\"0\"/>",
        )
        .unwrap();
        assert_eq!(doc.prolog_comments().collect::<Vec<_>>(), [" XML HEADER "]);
        assert_eq!(doc.root().attribute("id"), Some("0"));
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = parse_document(
            "<Property fixed=\"true\"><name>ARCHITECTURE</name><value>x86</value></Property>",
        )
        .unwrap();
        let r = doc.root();
        assert_eq!(r.attribute("fixed"), Some("true"));
        assert_eq!(
            r.first_named("name").unwrap().text_content(),
            "ARCHITECTURE"
        );
        assert_eq!(r.first_named("value").unwrap().text_content(), "x86");
    }

    #[test]
    fn entities_resolved() {
        let doc = parse_document("<v a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</v>").unwrap();
        assert_eq!(doc.root().attribute("a"), Some("<&>"));
        assert_eq!(doc.root().text_content(), "\"x' AB");
    }

    /// Every string a document holds, in document order.
    fn strings<'d>(doc: &'d Document) -> Vec<&'d str> {
        let mut all = Vec::new();
        for (_, node, _) in doc.nodes() {
            match node {
                Node::Element(e) => {
                    all.push(e.name());
                    for (n, v) in e.attributes() {
                        all.extend([&**n, &**v]);
                    }
                }
                Node::Text(t) | Node::Comment(t) | Node::CData(t) => all.push(t),
            }
        }
        all
    }

    #[test]
    fn parsed_strings_borrow_the_input() {
        let inside = |input: &str, s: &str| {
            let (from, at) = (input.as_ptr() as usize, s.as_ptr() as usize);
            from <= at && at + s.len() <= from + input.len()
        };
        let plain = "<?xml version=\"1.0\"?>\n<!-- head -->\n<pdl:Master id=\"m\" größe='1 > 2'>\n  \
                     <name>ARCH</name>\n  <!-- note --><![CDATA[<raw>]]>\n  <Worker id=\"w\"/> tail\n\
                     </pdl:Master>\n<!-- dropped -->";
        let doc = parse_document(plain).unwrap();
        let all = strings(&doc);
        assert_eq!(
            all,
            [
                " head ",
                "pdl:Master",
                "id",
                "m",
                "größe",
                "1 > 2",
                "name",
                "ARCH",
                " note ",
                "<raw>",
                "Worker",
                "id",
                "w",
                " tail\n"
            ]
        );
        assert!(all.iter().all(|s| inside(plain, s)), "{all:?}");
        // 3 elements + 5 kept leaves; whitespace between elements is no row.
        assert_eq!(doc.nodes().count(), 8);

        // An entity reference resolved: that string, and no other, is owned.
        let resolved = "<a k=\"v\" amp=\"a&amp;b\"><b>plain</b><c>c&amp;d</c></a>";
        let doc = parse_document(resolved).unwrap();
        let owned: Vec<&str> = strings(&doc)
            .into_iter()
            .filter(|s| !inside(resolved, s))
            .collect();
        assert_eq!(owned, ["a&b", "c&d"]);
        assert_eq!(strings(&doc).len(), 9);
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse_document("<c><![CDATA[ <not-a-tag> & raw ]]></c>").unwrap();
        assert_eq!(doc.root().text_content(), "<not-a-tag> & raw");
    }

    #[test]
    fn interelement_whitespace_dropped() {
        let doc = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root().children().count(), 2);
    }

    #[test]
    fn mixed_content_kept() {
        let doc = parse_document("<a>hello <b/> world</a>").unwrap();
        assert_eq!(doc.root().children().count(), 3);
        assert_eq!(doc.root().text_content(), "hello  world");
    }

    #[test]
    fn mismatched_close_reported_with_position() {
        let err = parse_document("<a>\n<b></a>").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::MismatchedClose { .. }));
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse_document("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::DuplicateAttribute(a) if a == "x"));
    }

    #[test]
    fn unclosed_element_rejected() {
        let err = parse_document("<a><b/>").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn trailing_content_rejected() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::TrailingContent));
    }

    #[test]
    fn empty_document_rejected() {
        let err = parse_document("   \n  ").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::NoRootElement));
    }

    #[test]
    fn bad_entity_rejected() {
        let err = parse_document("<a>&unknown;</a>").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::BadEntity(e) if e == "unknown"));
    }

    #[test]
    fn namespaced_names_parse() {
        let doc = parse_document(
            "<Property xsi:type=\"ocl:oclDevicePropertyType\"><ocl:name>N</ocl:name></Property>",
        )
        .unwrap();
        assert_eq!(
            doc.root().attribute("xsi:type"),
            Some("ocl:oclDevicePropertyType")
        );
        assert_eq!(doc.root().first_named("name").unwrap().name(), "ocl:name");
    }

    #[test]
    fn doctype_skipped() {
        let doc = parse_document("<!DOCTYPE pdl [<!ELEMENT a ANY>]><a/>").unwrap();
        assert_eq!(doc.root().name(), "a");
    }

    #[test]
    fn processing_instructions_skipped_in_content() {
        let doc = parse_document("<a><?pi data?><b/></a>").unwrap();
        assert_eq!(doc.root().elements().count(), 1);
    }

    #[test]
    fn fragment_parsing() {
        let e = parse_fragment("  <Worker id=\"1\"/> ").unwrap();
        assert_eq!(e.root().name(), "Worker");
        assert!(parse_fragment("<a/><b/>").is_err());
    }

    #[test]
    fn bom_skipped() {
        let doc = parse_document("\u{feff}<a/>").unwrap();
        assert_eq!(doc.root().name(), "a");
    }

    #[test]
    fn attribute_whitespace_tolerated() {
        let doc = parse_document("<a x = \"1\"\n y='2'/>").unwrap();
        assert_eq!(doc.root().attribute("x"), Some("1"));
        assert_eq!(doc.root().attribute("y"), Some("2"));
    }

    #[test]
    fn crlf_line_counting() {
        let err = parse_document("<a>\r\n<b></a>").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn deeply_nested() {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            s.push_str(&format!("</n{i}>"));
        }
        let doc = parse_document(&s).unwrap();
        assert_eq!(doc.root().name(), "n0");
    }
}
