//! Guards `pdl_xml::parser::parse_document` and `pdl_xml::dom::Document`; goes when they do.
//!
//! The XML parser's oracle, kept here and not in the shipped crate.
//!
//! `pdl_xml::parser` consumes character data, attribute values, names and
//! whitespace a run at a time, carries line/column along in the same byte
//! scan, and pushes what it finds into a flat `pdl_xml::dom::Document` whose
//! strings borrow the input. What it replaced — a cursor taking one `char`
//! per step, a line/column update and a `String::push` each, building a
//! tree of owned [`Element`]s with a `Vec` of children apiece — lives on in
//! [`oracle`] as the reference. Both must produce the same nodes in the
//! same order with the same position on every element, or the same
//! `SyntaxError` kind at the same position, on every input: every
//! descriptor `pdl_discover` generates, the example corpora (well-formed and
//! not), the paper's listings cut at every character, and generated
//! documents with everything the parser knows about, cut at a random
//! character boundary.

use pdl_xml::dom;
use pdl_xml::error::{Pos, SyntaxError, SyntaxErrorKind};
use proptest::prelude::*;

/// A node of the owned tree `pdl_xml::dom` was.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Element(Element),
    Text(String),
    Comment(String),
    CData(String),
}

/// The element `pdl_xml::dom::Element` was: a name, a `Vec` of attributes
/// and a `Vec` of children, each string its own.
#[derive(Debug, Clone, Default, PartialEq)]
struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<Node>,
    /// Position of the opening `<`.
    pos: Pos,
}

impl Element {
    fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// The document `pdl_xml::dom::Document` was.
#[derive(Debug)]
struct Document {
    prolog_comments: Vec<String>,
    root: Element,
}

/// The per-`char` cursor `pdl_xml::parser` used before run scanning,
/// verbatim apart from its entry point's visibility.
mod oracle {
    use super::{Document, Element, Node, Pos, SyntaxError, SyntaxErrorKind};

    /// The replaced parser's `parse_document`, verbatim.
    pub(crate) fn parse_document(input: &str) -> Result<Document, SyntaxError> {
        let mut p = Parser::new(input);
        p.skip_bom();
        let mut prolog_comments = Vec::new();

        // Prolog: declaration, whitespace, comments, PIs.
        loop {
            p.skip_whitespace();
            if p.starts_with("<?") {
                p.skip_pi()?;
            } else if p.starts_with("<!--") {
                prolog_comments.push(p.parse_comment()?);
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
        let root = p.parse_element()?;

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

        Ok(Document {
            prolog_comments,
            root,
        })
    }

    struct Parser<'a> {
        input: &'a str,
        /// Byte offset into `input`.
        at: usize,
        line: u32,
        col: u32,
    }

    impl<'a> Parser<'a> {
        fn new(input: &'a str) -> Self {
            Parser {
                input,
                at: 0,
                line: 1,
                col: 1,
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

        fn bump_str(&mut self, s: &str) {
            debug_assert!(self.starts_with(s));
            for _ in s.chars() {
                self.bump();
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
            while matches!(self.peek(), Some(c) if c.is_whitespace()) {
                self.bump();
            }
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

        fn parse_comment(&mut self) -> Result<String, SyntaxError> {
            self.bump_str("<!--");
            let start = self.at;
            loop {
                if self.eof() {
                    return Err(self.err(SyntaxErrorKind::UnexpectedEof("comment")));
                }
                if self.starts_with("-->") {
                    let text = self.input[start..self.at].to_string();
                    self.bump_str("-->");
                    return Ok(text);
                }
                self.bump();
            }
        }

        fn parse_cdata(&mut self) -> Result<String, SyntaxError> {
            self.bump_str("<![CDATA[");
            let start = self.at;
            loop {
                if self.eof() {
                    return Err(self.err(SyntaxErrorKind::UnexpectedEof("CDATA section")));
                }
                if self.starts_with("]]>") {
                    let text = self.input[start..self.at].to_string();
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

        fn parse_name(&mut self) -> Result<String, SyntaxError> {
            let start = self.at;
            match self.peek() {
                Some(c) if Self::is_name_start(c) => {
                    self.bump();
                }
                _ => {
                    let found: String = self.rest().chars().take(1).collect();
                    return Err(self.err(SyntaxErrorKind::BadName(found)));
                }
            }
            while matches!(self.peek(), Some(c) if Self::is_name_char(c)) {
                self.bump();
            }
            Ok(self.input[start..self.at].to_string())
        }

        fn parse_entity(&mut self) -> Result<char, SyntaxError> {
            // Caller consumed nothing; we are at '&'.
            self.bump(); // '&'
            let start = self.at;
            loop {
                match self.peek() {
                    None => {
                        return Err(self.err(SyntaxErrorKind::UnexpectedEof("entity reference")))
                    }
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

        fn parse_attr_value(&mut self) -> Result<String, SyntaxError> {
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
            let mut value = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err(SyntaxErrorKind::UnexpectedEof("attribute value"))),
                    Some(c) if c == quote => {
                        self.bump();
                        return Ok(value);
                    }
                    Some('&') => value.push(self.parse_entity()?),
                    Some('<') => {
                        return Err(self.err(SyntaxErrorKind::StrayMarkup("<".into())));
                    }
                    Some(c) => {
                        value.push(c);
                        self.bump();
                    }
                }
            }
        }

        fn parse_element(&mut self) -> Result<Element, SyntaxError> {
            let pos = self.pos();
            self.expect("<")?;
            let name = self.parse_name()?;
            let mut element = Element::new(name.clone());
            element.pos = pos;

            // Attributes.
            loop {
                let had_space = {
                    let before = self.at;
                    self.skip_whitespace();
                    self.at != before
                };
                match self.peek() {
                    Some('>') => {
                        self.bump();
                        break;
                    }
                    Some('/') => {
                        self.bump();
                        self.expect(">")?;
                        return Ok(element); // self-closing
                    }
                    Some(c) if Self::is_name_start(c) && had_space => {
                        let attr_name = self.parse_name()?;
                        if element.attributes.iter().any(|(n, _)| *n == attr_name) {
                            return Err(self.err(SyntaxErrorKind::DuplicateAttribute(attr_name)));
                        }
                        self.skip_whitespace();
                        self.expect("=")?;
                        self.skip_whitespace();
                        let value = self.parse_attr_value()?;
                        element.attributes.push((attr_name, value));
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

            // Content.
            let mut text = String::new();
            loop {
                if self.eof() {
                    return Err(self.err(SyntaxErrorKind::UnexpectedEof("element content")));
                }
                if self.starts_with("</") {
                    Self::flush_text(&mut text, &mut element);
                    self.bump_str("</");
                    let close = self.parse_name()?;
                    if close != name {
                        return Err(
                            self.err(SyntaxErrorKind::MismatchedClose { open: name, close })
                        );
                    }
                    self.skip_whitespace();
                    self.expect(">")?;
                    return Ok(element);
                } else if self.starts_with("<!--") {
                    Self::flush_text(&mut text, &mut element);
                    let c = self.parse_comment()?;
                    element.children.push(Node::Comment(c));
                } else if self.starts_with("<![CDATA[") {
                    Self::flush_text(&mut text, &mut element);
                    let c = self.parse_cdata()?;
                    element.children.push(Node::CData(c));
                } else if self.starts_with("<?") {
                    Self::flush_text(&mut text, &mut element);
                    self.skip_pi()?;
                } else if self.starts_with("<") {
                    Self::flush_text(&mut text, &mut element);
                    let child = self.parse_element()?;
                    element.children.push(Node::Element(child));
                } else if self.starts_with("&") {
                    text.push(self.parse_entity()?);
                } else {
                    text.push(self.bump().expect("not eof"));
                }
            }
        }

        /// Pushes accumulated character data as a text node unless it is pure
        /// inter-element whitespace.
        fn flush_text(text: &mut String, element: &mut Element) {
            if !text.is_empty() {
                if !text.trim().is_empty() {
                    element.children.push(Node::Text(std::mem::take(text)));
                } else {
                    text.clear();
                }
            }
        }
    }
}

/// One node as either tree has it: depth, what it is, its name or text,
/// and for an element its position and attributes.
type Row<'x> = (usize, &'static str, &'x str, Pos, Vec<(&'x str, &'x str)>);

fn leaf<'x>(depth: usize, kind: &'static str, text: &'x str) -> Row<'x> {
    (depth, kind, text, Pos::default(), Vec::new())
}

/// The owned tree's nodes in document order.
fn owned_rows<'x>(e: &'x Element, depth: usize, rows: &mut Vec<Row<'x>>) {
    let attributes = e.attributes.iter().map(|(n, v)| (&**n, &**v)).collect();
    rows.push((depth, "element", &e.name, e.pos, attributes));
    for child in &e.children {
        match child {
            Node::Element(child) => owned_rows(child, depth + 1, rows),
            Node::Text(t) => rows.push(leaf(depth + 1, "text", t)),
            Node::Comment(t) => rows.push(leaf(depth + 1, "comment", t)),
            Node::CData(t) => rows.push(leaf(depth + 1, "cdata", t)),
        }
    }
}

/// The shipped document's nodes in document order.
fn shipped_rows<'x>(e: dom::Element<'x, '_>, depth: usize, rows: &mut Vec<Row<'x>>) {
    let attributes = e.attributes().iter().map(|(n, v)| (&**n, &**v)).collect();
    rows.push((depth, "element", e.name(), e.pos(), attributes));
    for child in e.children() {
        match child {
            dom::Node::Element(child) => shipped_rows(child, depth + 1, rows),
            dom::Node::Text(t) => rows.push(leaf(depth + 1, "text", t)),
            dom::Node::Comment(t) => rows.push(leaf(depth + 1, "comment", t)),
            dom::Node::CData(t) => rows.push(leaf(depth + 1, "cdata", t)),
        }
    }
}

/// Both parsers on `input`: the same rows or the same error, which is
/// returned.
fn assert_same(input: &str) -> Option<SyntaxError> {
    let new = pdl_xml::parse_document(input);
    let old = oracle::parse_document(input);
    match (new, old) {
        (Ok(new), Ok(old)) => {
            let comments: Vec<&str> = new.prolog_comments().collect();
            assert_eq!(comments, old.prolog_comments, "{input:?}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            shipped_rows(new.root(), 0, &mut a);
            owned_rows(&old.root, 0, &mut b);
            assert_eq!(a.len(), b.len(), "{input:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "{input:?}");
            }
            None
        }
        (Err(new), Err(old)) => {
            assert_eq!(new, old, "{input:?}");
            Some(new)
        }
        (new, old) => panic!("parsers disagree on {input:?}:\n new {new:?}\n old {old:?}"),
    }
}

/// Every built-in catalog platform, then six synthetic ones.
fn descriptors() -> Vec<pdl_core::platform::Platform> {
    use pdl_discover::synthetic;
    let mut all: Vec<_> = pdl_discover::catalog::Catalog::with_builtin_platforms()
        .iter()
        .map(|(_, p)| p.clone())
        .collect();
    all.extend([
        synthetic::gpgpu_cluster(16, 3),
        synthetic::numa_host(4, 8),
        synthetic::xeon_x5550_host(),
        synthetic::xeon_2gpu_testbed(),
        synthetic::xeon_2gpu_nvlink_testbed(),
        synthetic::cell_be(),
    ]);
    all
}

#[test]
fn generated_descriptors_parse_identically() {
    for platform in &descriptors() {
        let xml = pdl_xml::to_xml(platform);
        assert!(assert_same(&xml).is_none(), "{}", platform.name);
    }
}

/// `to_xml` writes the bytes the owned tree's writer wrote: FNV-1a of each
/// of [`descriptors`], recorded at the last commit that had that tree.
#[test]
fn to_xml_bytes_are_pinned() {
    let digests: Vec<(String, u64)> = descriptors()
        .iter()
        .map(|p| {
            let h = pdl_xml::to_xml(p)
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            (p.name.clone(), h)
        })
        .collect();
    let pinned: [(&str, u64); 11] = [
        ("cell-be", 0x2687_c610_d941_bfdd),
        ("gpgpu-cluster-4x2", 0x1703_714f_2eae_b7d3),
        ("numa-2x4", 0xd3fd_f6d3_b084_ca32),
        ("xeon-x5550-8core", 0x70fa_6b9e_7344_cf16),
        ("xeon-x5550-gtx480-gtx285", 0xb3da_40e5_805f_ecec),
        ("gpgpu-cluster-16x3", 0xe5c6_c583_5fc9_72bd),
        ("numa-4x8", 0x6e15_3c93_4329_e5d0),
        ("xeon-x5550-8core", 0x70fa_6b9e_7344_cf16),
        ("xeon-x5550-gtx480-gtx285", 0xb3da_40e5_805f_ecec),
        ("xeon-x5550-gtx480-gtx285-nvlink", 0x0bb5_1e67_a8ca_549b),
        ("cell-be", 0x2687_c610_d941_bfdd),
    ];
    for (got, want) in digests.iter().zip(pinned) {
        assert_eq!((got.0.as_str(), got.1), want, "{:#018x}", got.1);
    }
    assert_eq!(digests.len(), pinned.len());
}

/// The raw string a listing's golden test holds, out of that test's source.
fn listing(test_source: &str) -> &str {
    let (_, rest) = test_source.split_once("r#\"").expect("a raw string");
    rest.split_once("\"#").expect("its end").0.trim_end()
}

/// A document cut short is an error, found no later than where the text
/// ends — after every character of both of the paper's listings and of one
/// generated descriptor (a small one: the work is quadratic in its length).
#[test]
fn truncation_at_every_character_is_the_same_error() {
    let cluster = pdl_xml::to_xml(&pdl_discover::synthetic::gpgpu_cluster(1, 1));
    for doc in [
        listing(include_str!("listing1.rs")),
        listing(include_str!("listing2.rs")),
        cluster.trim_end(),
    ] {
        assert!(assert_same(doc).is_none(), "whole, it parses");
        let (mut line, mut col) = (1, 1);
        for (cut, c) in doc.char_indices() {
            let e = assert_same(&doc[..cut]).expect("a proper prefix is no document");
            assert!(
                (e.pos.line, e.pos.col) <= (line, col),
                "{e} past {line}:{col}"
            );
            (line, col) = if c == '\n' {
                (line + 1, 1)
            } else {
                (line, col + 1)
            };
        }
    }
}

#[test]
fn example_corpora_parse_identically() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut seen = 0;
    for dir in ["platforms", "bad"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("corpus directory") {
            let path = entry.expect("directory entry").path();
            // The C and trace fixtures are not XML; both parsers must still
            // reject them the same way.
            assert_same(&std::fs::read_to_string(&path).expect("utf-8 fixture"));
            seen += 1;
        }
    }
    assert!(seen >= 10, "corpus went missing: {seen} files");
}

/// The shipped duplicate-attribute check scans the first few attributes and
/// hashes the rest; the cursor scanned them all. The first duplicate in
/// document order, at the position just past the repeated name, is what both
/// report — whichever side of the threshold either occurrence falls on, and
/// whatever else is wrong later in the tag.
#[test]
fn duplicate_attributes_are_reported_identically() {
    for width in [2usize, 3, 15, 16, 17, 18, 33, 200] {
        let names: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
        // (index of the attribute repeated, index it is repeated at)
        let pairs = [
            (0, 1),
            (width / 2, width / 2 + 1),
            (width - 1, width),
            (0, width),
            (width / 2, width),
        ];
        for (of, at) in pairs {
            let mut attrs = names.clone();
            attrs.insert(at, names[of].clone());
            let tag = |attrs: &[String], tail: &str| {
                let list: Vec<String> = attrs.iter().map(|n| format!("{n}=\"v\"")).collect();
                format!("<e\n {}{tail}", list.join("\n "))
            };
            let doc = tag(&attrs, "/>");
            let e = pdl_xml::parse_document(&doc).expect_err("a duplicate is an error");
            assert_eq!(
                e.kind,
                SyntaxErrorKind::DuplicateAttribute(names[of].clone()),
                "{width} {of} {at}"
            );
            assert_same(&doc);
            // A second duplicate, or broken markup, after the first changes nothing.
            let mut twice = attrs.clone();
            twice.push(names[0].clone());
            assert_same(&tag(&twice, "/>"));
            assert_same(&tag(&attrs, " <"));
            // Broken markup before it is what is reported instead.
            let mut broken = attrs.clone();
            broken[0] = "0bad".into();
            assert_same(&tag(&broken, "/>"));
        }
        assert_same(&format!(
            "<e {}/>",
            names
                .iter()
                .map(|n| format!("{n}='v'"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
}

/// splitmix64, so the generator below depends on nothing but its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// ASCII names, names with every ASCII name character, and multi-byte
/// names (with and without a prefix).
const NAMES: [&str; 10] = [
    "a",
    "Master",
    "pdl:Property",
    "n-1.x",
    "_u",
    "größe",
    "名前",
    "é:ü",
    "x9",
    "Wörker-2",
];
/// Whitespace the parser skips: ASCII (vertical tab and form feed
/// included), CRLF, and the non-ASCII kinds `char::is_whitespace` accepts.
const SPACES: [&str; 9] = [
    " ",
    "  ",
    "\n",
    "\r\n",
    "\t",
    "\n    ",
    "\u{b}\u{c}",
    "\u{a0}",
    "\u{2028}\u{85}",
];
/// Character data: plain, multi-byte, all five entities and numeric
/// references.
const TEXT: [&str; 18] = [
    "x86",
    "8192",
    "hello world",
    "größer als",
    "名前 ✓",
    "a\nb",
    "a\r\nb",
    "]]",
    "-->",
    "\"",
    "'",
    "&lt;",
    "&gt;",
    "&amp;",
    "&apos;",
    "&quot;",
    "&#65;",
    "&#x1F600;",
];
/// References that are malformed in each way the parser tells apart.
const BAD_REFS: [&str; 6] = [
    "&bogus;",
    "&#xD800;",
    "&#;",
    "&toolongentityname;",
    "&a b;",
    "&",
];

fn text(rng: &mut Rng) -> &'static str {
    if rng.one_in(60) {
        rng.pick(&BAD_REFS)
    } else {
        rng.pick(&TEXT)
    }
}

fn spaces(rng: &mut Rng, out: &mut String, at_least_one: bool) {
    for _ in 0..rng.below(3) + usize::from(at_least_one) {
        out.push_str(rng.pick(&SPACES));
    }
}

fn misc(rng: &mut Rng, out: &mut String) {
    match rng.below(3) {
        0 => out.push_str(rng.pick(&[
            "<!-- note -->",
            "<!---->",
            "<!-- ü\nü -->",
            "<!-- a -- b -->",
        ])),
        1 => out.push_str(rng.pick(&["<?pi?>", "<?target some data ?>", "<?p\nq?>"])),
        _ => spaces(rng, out, true),
    }
}

fn element(rng: &mut Rng, out: &mut String, depth: usize) {
    let name = rng.pick(&NAMES);
    out.push('<');
    out.push_str(name);
    for i in 0..rng.below(4) {
        // Rarely no space before an attribute, or a repeated name.
        let spaced = !rng.one_in(40);
        spaces(rng, out, spaced);
        out.push_str(rng.pick(&NAMES));
        if !rng.one_in(40) {
            out.push_str(&i.to_string());
        }
        spaces(rng, out, false);
        out.push('=');
        spaces(rng, out, false);
        let quote = rng.pick(&["\"", "'"]);
        out.push_str(quote);
        for _ in 0..rng.below(4) {
            let piece = if rng.one_in(200) { "<" } else { text(rng) };
            if piece != quote {
                out.push_str(piece);
            }
        }
        if !rng.one_in(60) {
            out.push_str(quote);
        }
    }
    spaces(rng, out, false);
    if rng.one_in(4) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.below(6) {
        match rng.below(8) {
            0 | 1 if depth < 5 => element(rng, out, depth + 1),
            2 => out.push_str(rng.pick(&[
                "<![CDATA[ <raw> & ]] ]]>",
                "<![CDATA[]]>",
                "<![CDATA[ü\n]]>",
            ])),
            3 => misc(rng, out),
            4 => spaces(rng, out, true),
            _ => out.push_str(text(rng)),
        }
    }
    out.push_str("</");
    out.push_str(if rng.one_in(40) {
        rng.pick(&NAMES)
    } else {
        name
    });
    spaces(rng, out, false);
    out.push('>');
}

/// One document: optional BOM, declaration, DOCTYPE and prolog
/// miscellany, a root element, an epilog that is occasionally illegal.
fn document(rng: &mut Rng) -> String {
    let mut out = String::new();
    if rng.one_in(8) {
        out.push('\u{feff}');
    }
    if rng.one_in(2) {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    for _ in 0..rng.below(3) {
        misc(rng, &mut out);
    }
    if rng.one_in(8) {
        out.push_str("<!DOCTYPE pdl [<!ELEMENT a ANY>]>\n");
    }
    element(rng, &mut out, 0);
    for _ in 0..rng.below(3) {
        misc(rng, &mut out);
    }
    if rng.one_in(30) {
        out.push_str(rng.pick(&["<b/>", "text", "&amp;"]));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_documents_parse_identically(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let doc = document(&mut rng);
        assert_same(&doc);
        // The same document cut at a random character boundary.
        let cut = doc.char_indices().nth(rng.below(doc.chars().count())).map_or(0, |(i, _)| i);
        assert_same(&doc[..cut]);
    }

    #[test]
    fn arbitrary_text_parses_identically(input in ".{0,200}") {
        assert_same(&input);
    }

    #[test]
    fn tag_soup_parses_identically(input in "[<>/a-zé \\n\"'=&;#!?\\[\\]-]{0,120}") {
        assert_same(&input);
    }
}
