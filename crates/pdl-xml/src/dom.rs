//! A small XML document object model: one flat, borrowed document.
//!
//! Only what the PDL needs: elements, attributes, character data, comments
//! and CDATA sections. Attribute order and child order are preserved for
//! faithful round-trips.
//!
//! A [`Document`] is two columns. `rows` holds one row per node in
//! document order (pre-order: an element, then its subtree): the node's
//! kind, its name or text, for an element the range of its attributes in the
//! second column, the index of the row one past its subtree, and where its
//! `<` stood. `attrs` holds every `(name, value)` pair of the document, each
//! element's pairs together and in order. Comments before the root element
//! are the rows before it.
//!
//! Every string is a `Cow<'a, str>`: the parser lends slices of the XML
//! text and owns only what an entity reference changed, the encoder lends
//! the platform's ids, names and values and owns only what it formats. So a
//! `Document<'a>` cannot outlive the text or platform it was made from,
//! costs a constant number of buffers whatever its size, and is read through
//! `Copy` views ([`Element`], [`Node`]) that borrow it.

use crate::error::{Pos, SyntaxError, SyntaxErrorKind};
use std::borrow::Cow;

/// Rows and attributes are indexed by `u32`; a document with more of either
/// than this is refused ([`SyntaxErrorKind::TooLarge`]).
const MAX_INDEX: usize = if cfg!(test) { 4096 } else { u32::MAX as usize };

/// `n` as a row or attribute index; if it is none, the error is reported
/// at `pos`.
fn index(n: usize, pos: Pos) -> Result<u32, SyntaxError> {
    let kind = SyntaxErrorKind::TooLarge { limit: MAX_INDEX };
    let fits = u32::try_from(n).ok().filter(|&i| i as usize <= MAX_INDEX);
    fits.ok_or(SyntaxError { pos, kind })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Element,
    Text,
    Comment,
    CData,
}

#[derive(Debug, Clone)]
struct Row<'a> {
    kind: Kind,
    /// An element's qualified name; any other node's content.
    text: Cow<'a, str>,
    /// An element's pairs in `Document::attrs`; empty for any other node.
    attrs: (u32, u32),
    /// The row one past this node's subtree (the next row, for a leaf).
    end: u32,
    pos: Pos,
}

/// An XML document: the root element's subtree plus any comments before it
/// (the XML declaration is not preserved; the writer re-emits a canonical
/// one). See the [module documentation](self) for the layout.
///
/// Equality compares kinds, names, texts and attributes by content but
/// ignores positions, so parse→write→parse round-trips compare equal.
#[derive(Debug, Clone, Default)]
pub struct Document<'a> {
    rows: Vec<Row<'a>>,
    attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// Rows of the elements [`open`](Self::open)ed and not yet closed.
    unclosed: Vec<u32>,
}

impl PartialEq for Document<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.attrs == other.attrs
            && self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                (a.kind, &a.text, a.attrs, a.end) == (b.kind, &b.text, b.attrs, b.end)
            })
    }
}

/// Filling a document, in document order: [`open`](Self::open) an element,
/// give it its [`attr`](Self::attr)s, then its children, then
/// [`close`](Self::close) it. A document is complete — and its views mean
/// what they say — once every element opened has been closed.
impl<'a> Document<'a> {
    /// Number of elements open around the next node.
    pub(crate) fn depth(&self) -> usize {
        self.unclosed.len()
    }

    /// The innermost open element.
    pub(crate) fn innermost(&self) -> Option<Element<'_, 'a>> {
        let &row = self.unclosed.last()?;
        Some(Element { doc: self, row })
    }

    /// Position of the innermost open element, which is where a node that
    /// does not fit is reported.
    fn open_pos(&self) -> Pos {
        self.innermost().map_or(Pos::default(), Element::pos)
    }

    /// Appends a row and returns its index.
    fn push(&mut self, kind: Kind, text: Cow<'a, str>, pos: Pos) -> Result<u32, SyntaxError> {
        let end = index(self.rows.len() + 1, pos)?;
        self.rows.push(Row {
            kind,
            text,
            attrs: (0, 0),
            end,
            pos,
        });
        Ok(end - 1)
    }

    /// Starts an element whose `<` stood at `pos`.
    pub(crate) fn open(
        &mut self,
        name: impl Into<Cow<'a, str>>,
        pos: Pos,
    ) -> Result<(), SyntaxError> {
        // `attr` lets the column grow no further than an index reaches.
        let at = index(self.attrs.len(), pos)?;
        let row = self.push(Kind::Element, name.into(), pos)?;
        self.rows[row as usize].attrs = (at, at);
        self.unclosed.push(row);
        Ok(())
    }

    /// Adds an attribute to the element just opened (before any child).
    pub(crate) fn attr(
        &mut self,
        name: impl Into<Cow<'a, str>>,
        value: impl Into<Cow<'a, str>>,
    ) -> Result<(), SyntaxError> {
        let end = index(self.attrs.len() + 1, self.open_pos())?;
        let row = self.rows.last_mut().expect("attr follows open");
        debug_assert!(row.kind == Kind::Element && row.attrs.1 + 1 == end);
        row.attrs.1 = end;
        self.attrs.push((name.into(), value.into()));
        Ok(())
    }

    /// Adds character data (entity references already resolved).
    pub(crate) fn text(&mut self, text: impl Into<Cow<'a, str>>) -> Result<(), SyntaxError> {
        self.push(Kind::Text, text.into(), self.open_pos())
            .map(drop)
    }

    /// Adds a comment (without the `<!--`/`-->` delimiters): before the
    /// root element when none is open, else inside the innermost open one.
    pub(crate) fn comment(&mut self, text: impl Into<Cow<'a, str>>) -> Result<(), SyntaxError> {
        self.push(Kind::Comment, text.into(), self.open_pos())
            .map(drop)
    }

    /// Adds a CDATA section's raw content.
    pub(crate) fn cdata(&mut self, text: impl Into<Cow<'a, str>>) -> Result<(), SyntaxError> {
        self.push(Kind::CData, text.into(), self.open_pos())
            .map(drop)
    }

    /// Ends the innermost open element.
    pub(crate) fn close(&mut self) {
        let row = self.unclosed.pop().expect("close follows open");
        // The last row's `end` is the row count, which `push` checked.
        self.rows[row as usize].end = self.rows.last().expect("the opened row").end;
    }
}

impl<'a> Document<'a> {
    /// The document element.
    ///
    /// # Panics
    /// If the document holds no element — one that `parse_document` or
    /// `encode_document` returned always does.
    pub fn root(&self) -> Element<'_, 'a> {
        self.nodes()
            .find_map(|(_, node, _)| node.as_element())
            .expect("a document has a root element")
    }

    /// Comments before the root element.
    pub fn prolog_comments(&self) -> impl Iterator<Item = &str> {
        self.rows
            .iter()
            .take_while(|r| r.kind != Kind::Element)
            .map(|r| &*r.text)
    }

    /// Every node in document order: its row, the node, and the row after
    /// its subtree.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (u32, Node<'_, 'a>, u32)> {
        (0..).zip(&self.rows).map(|(row, _)| {
            let (node, end) = self.node(row);
            (row, node, end)
        })
    }

    /// The node at `row`, and the row after its subtree.
    fn node(&self, row: u32) -> (Node<'_, 'a>, u32) {
        let r = &self.rows[row as usize];
        let node = match r.kind {
            Kind::Element => Node::Element(Element { doc: self, row }),
            Kind::Text => Node::Text(&r.text),
            Kind::Comment => Node::Comment(&r.text),
            Kind::CData => Node::CData(&r.text),
        };
        (node, r.end)
    }
}

/// A node of the XML tree, borrowed from its [`Document`].
#[derive(Debug, Clone, Copy)]
pub enum Node<'d, 'a> {
    /// An element with attributes and children.
    Element(Element<'d, 'a>),
    /// Character data (entity references already resolved).
    Text(&'d str),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(&'d str),
    /// A CDATA section's raw content.
    CData(&'d str),
}

impl<'d, 'a> Node<'d, 'a> {
    /// The element inside, if this node is one.
    pub fn as_element(self) -> Option<Element<'d, 'a>> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The textual content, if this is a text or CDATA node.
    fn as_text(self) -> Option<&'d str> {
        match self {
            Node::Text(t) | Node::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: a row of a [`Document`] (`'d` borrows the document, `'a`
/// is what the document's strings borrow).
#[derive(Clone, Copy)]
pub struct Element<'d, 'a> {
    doc: &'d Document<'a>,
    row: u32,
}

impl std::fmt::Debug for Element<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}> at {}", self.name(), self.pos())
    }
}

impl<'d, 'a> Element<'d, 'a> {
    fn data(self) -> &'d Row<'a> {
        &self.doc.rows[self.row as usize]
    }

    /// Qualified element name (prefix kept verbatim, e.g. `ocl:name`).
    pub fn name(self) -> &'d str {
        &self.data().text
    }

    /// Local part of the element name (`ocl:value` → `value`).
    pub fn local_name(self) -> &'d str {
        let name = self.name();
        name.split_once(':').map_or(name, |(_, local)| local)
    }

    /// Position of the opening `<` in the source (default for an encoded
    /// document).
    pub fn pos(self) -> Pos {
        self.data().pos
    }

    /// Attributes in document order, values with entities resolved.
    pub fn attributes(self) -> &'d [(Cow<'a, str>, Cow<'a, str>)] {
        let (from, to) = self.data().attrs;
        &self.doc.attrs[from as usize..to as usize]
    }

    /// Value of the first attribute with the given name.
    pub fn attribute(self, name: &str) -> Option<&'d str> {
        self.attributes()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| &**v)
    }

    /// Child nodes in document order.
    pub fn children(self) -> impl Iterator<Item = Node<'d, 'a>> {
        let (doc, to) = (self.doc, self.data().end);
        let mut from = self.row + 1;
        std::iter::from_fn(move || {
            (from < to).then(|| {
                let (node, next) = doc.node(from);
                from = next;
                node
            })
        })
    }

    /// Child elements, in order.
    pub fn elements(self) -> impl Iterator<Item = Element<'d, 'a>> {
        self.children().filter_map(Node::as_element)
    }

    /// Child elements whose *local* name matches.
    pub(crate) fn elements_named<'n>(
        self,
        local: &'n str,
    ) -> impl Iterator<Item = Element<'d, 'a>> + use<'d, 'a, 'n> {
        self.elements().filter(move |e| e.local_name() == local)
    }

    /// First child element with the given local name.
    pub(crate) fn first_named(self, local: &str) -> Option<Element<'d, 'a>> {
        self.elements().find(|e| e.local_name() == local)
    }

    /// Concatenated character data of direct text/CDATA children, trimmed:
    /// a slice of the one child there usually is.
    pub(crate) fn text_content(self) -> Cow<'d, str> {
        let mut pieces = self.children().filter_map(Node::as_text);
        let first = pieces.next().unwrap_or_default();
        match pieces.next() {
            None => Cow::Borrowed(first.trim()),
            Some(second) => {
                let mut s = String::from(first);
                s.push_str(second);
                s.extend(pieces);
                Cow::Owned(s.trim().to_string())
            }
        }
    }

    /// All descendant elements (self included), in document order.
    pub fn descendants(self) -> impl Iterator<Item = Element<'d, 'a>> {
        let doc = self.doc;
        (self.row..self.data().end)
            .filter(|&row| doc.rows[row as usize].kind == Kind::Element)
            .map(move |row| Element { doc, row })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }

    const SAMPLE: &str = "<Master id=\"0\" quantity=\"1\">
  <PUDescriptor>
    <Property fixed=\"true\">
      <name>ARCHITECTURE</name>
      <ocl:value>x86</ocl:value>
    </Property>
  </PUDescriptor>
  <Worker id=\"1\"/>
</Master>";

    fn sample() -> Document<'static> {
        crate::parser::parse_document(SAMPLE).unwrap()
    }

    #[test]
    fn descendants_are_in_document_order_with_positions() {
        let doc = sample();
        let seen: Vec<(&str, Pos)> = doc
            .root()
            .descendants()
            .map(|e| (e.local_name(), e.pos()))
            .collect();
        assert_eq!(
            seen,
            [
                ("Master", at(1, 1)),
                ("PUDescriptor", at(2, 3)),
                ("Property", at(3, 5)),
                ("name", at(4, 7)),
                ("value", at(5, 7)),
                ("Worker", at(8, 3)),
            ]
        );
        let descriptor = doc.root().first_named("PUDescriptor").unwrap();
        assert_eq!(descriptor.descendants().count(), 4);
    }

    #[test]
    fn attribute_lookup() {
        let doc = sample();
        let e = doc.root();
        assert_eq!(e.attribute("id"), Some("0"));
        assert_eq!(e.attribute("quantity"), Some("1"));
        assert_eq!(e.attribute("missing"), None);
        assert!(e
            .first_named("PUDescriptor")
            .unwrap()
            .attributes()
            .is_empty());
        assert_eq!(e.first_named("Worker").unwrap().attribute("id"), Some("1"));
    }

    #[test]
    fn child_navigation() {
        let doc = sample();
        let e = doc.root();
        assert_eq!(e.elements().count(), 2);
        assert!(e.first_named("PUDescriptor").is_some());
        assert!(e.first_named("Worker").is_some());
        assert!(e.first_named("Hybrid").is_none());
        let prop = e
            .first_named("PUDescriptor")
            .unwrap()
            .first_named("Property")
            .unwrap();
        assert_eq!(
            prop.first_named("name").unwrap().text_content(),
            "ARCHITECTURE"
        );
        // Lookup by local name ignores the prefix; the name keeps it.
        let value = prop.first_named("value").unwrap();
        assert_eq!(value.text_content(), "x86");
        assert_eq!((value.name(), value.local_name()), ("ocl:value", "value"));
        assert_eq!(prop.elements_named("value").count(), 1);
    }

    #[test]
    fn text_content_concatenates_and_trims() {
        let mut d = Document::default();
        d.open("v", Pos::default()).unwrap();
        d.text("  a").unwrap();
        d.comment("ignored").unwrap();
        d.cdata("b  ").unwrap();
        d.close();
        assert_eq!(d.root().text_content(), "ab");
        assert!(matches!(d.root().text_content(), Cow::Owned(_)));

        // The usual case — one text child — is a slice of that child.
        let doc = sample();
        let name = doc.root().descendants().find(|e| e.name() == "name");
        assert!(matches!(
            name.unwrap().text_content(),
            Cow::Borrowed("ARCHITECTURE")
        ));
        assert!(matches!(doc.root().text_content(), Cow::Borrowed("")));
    }

    #[test]
    fn equality_ignores_positions_and_ownership() {
        let build = |shift: u32, owned: bool, cdata: bool| {
            let lend = |s: &'static str| {
                if owned {
                    Cow::Owned(s.to_string())
                } else {
                    Cow::Borrowed(s)
                }
            };
            let mut d = Document::default();
            d.comment(lend(" header ")).unwrap();
            d.open(lend("a"), at(1 + shift, 1)).unwrap();
            d.attr(lend("k"), lend("v&w")).unwrap();
            if cdata {
                d.cdata(lend("t"))
            } else {
                d.text(lend("t"))
            }
            .unwrap();
            d.close();
            d
        };
        let a = build(0, false, false);
        assert_eq!(a, build(7, true, false));
        assert_ne!(a, build(0, false, true));
        assert_eq!(a.prolog_comments().collect::<Vec<_>>(), [" header "]);
        assert_eq!(a.root().name(), "a");
    }

    /// With the limit lowered for this crate's unit tests: the row and the
    /// attribute that would need an index past it are refused, at the
    /// position of the element being filled, and nothing wraps.
    #[test]
    fn offsets_cannot_wrap() {
        let full = SyntaxErrorKind::TooLarge { limit: MAX_INDEX };
        let mut d = Document::default();
        d.open("root", at(1, 1)).unwrap();
        for _ in 1..MAX_INDEX {
            d.text("t").unwrap();
        }
        for push in [
            |d: &mut Document| d.text("t"),
            |d: &mut Document| d.comment("c"),
            |d: &mut Document| d.cdata("c"),
        ] {
            let e = push(&mut d).unwrap_err();
            assert_eq!((e.pos, &e.kind), (at(1, 1), &full));
        }
        let e = d.open("e", at(7, 7)).unwrap_err();
        assert_eq!((e.pos, &e.kind), (at(7, 7), &full));
        assert!(e.to_string().contains(&MAX_INDEX.to_string()), "{e}");
        d.close();
        assert_eq!(d.root().children().count(), MAX_INDEX - 1);

        let mut d = Document::default();
        d.open("wide", at(2, 5)).unwrap();
        for _ in 0..MAX_INDEX {
            d.attr("k", "v").unwrap();
        }
        let e = d.attr("k", "v").unwrap_err();
        assert_eq!((e.pos, e.kind), (at(2, 5), full));
        d.close();
        assert_eq!(d.root().attributes().len(), MAX_INDEX);
    }
}
