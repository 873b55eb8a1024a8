//! A small XML document object model.
//!
//! Only what the PDL needs: elements, attributes, character data, comments
//! and CDATA sections. Attribute order and child order are preserved for
//! faithful round-trips.

use crate::error::Pos;
use std::fmt;

/// A node of the XML tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An element with attributes and children.
    Element(Element),
    /// Character data (entity references already resolved).
    Text(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
    /// A CDATA section's raw content.
    CData(String),
}

impl Node {
    /// The element inside, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The textual content, if this is a text or CDATA node.
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) | Node::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element.
///
/// Equality compares name, attributes and children but ignores the
/// diagnostic [`pos`](Element::pos) field, so parse→write→parse round-trips
/// compare equal.
#[derive(Debug, Clone, Default)]
pub struct Element {
    /// Qualified element name (prefix kept verbatim, e.g. `ocl:name`).
    pub name: String,
    /// Attributes in document order, values with entities resolved.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
    /// Position of the opening `<` in the source (parser-filled; default for
    /// synthesized elements).
    pub pos: Pos,
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.attributes == other.attributes
            && self.children == other.children
    }
}

impl Element {
    /// A new element with the given name and no content.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder: adds an attribute.
    pub(crate) fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder: adds a child element.
    pub(crate) fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: adds a text child.
    pub(crate) fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Value of the first attribute with the given name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Local part of the element name (`ocl:value` → `value`).
    pub fn local_name(&self) -> &str {
        match self.name.split_once(':') {
            Some((_, local)) => local,
            None => &self.name,
        }
    }

    /// Child elements, in order.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Child elements whose *local* name matches.
    pub(crate) fn elements_named<'a>(
        &'a self,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.local_name() == local)
    }

    /// First child element with the given local name.
    pub(crate) fn first_named(&self, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.local_name() == local)
    }

    /// Concatenated character data of direct text/CDATA children, trimmed.
    pub(crate) fn text_content(&self) -> String {
        let mut s = String::new();
        for c in &self.children {
            if let Some(t) = c.as_text() {
                s.push_str(t);
            }
        }
        s.trim().to_string()
    }

    /// All descendant elements (self included), in document order.
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }

    /// Source position of the first descendant PU element
    /// (`Master`/`Hybrid`/`Worker`) carrying the given `id` attribute.
    /// Lets diagnostics about a decoded PU point back at its XML element.
    pub fn pos_of_pu(&self, id: &str) -> Option<crate::error::Pos> {
        self.descendants()
            .find(|e| {
                matches!(e.local_name(), "Master" | "Hybrid" | "Worker")
                    && e.attribute("id") == Some(id)
            })
            .map(|e| e.pos)
    }
}

/// Depth-first iterator over an element and its descendants
/// (see [`Element::descendants`]).
pub struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<&'a Element> {
        let e = self.stack.pop()?;
        // Push children reversed so iteration stays in document order.
        for child in e.children.iter().rev().filter_map(Node::as_element) {
            self.stack.push(child);
        }
        Some(e)
    }
}

impl fmt::Display for Element {
    /// Compact single-line rendering, mainly for diagnostics. Use
    /// [`crate::writer`] for document output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.name)?;
        for (n, v) in &self.attributes {
            write!(f, " {n}={v:?}")?;
        }
        if self.children.is_empty() {
            write!(f, "/>")
        } else {
            write!(f, ">…</{}>", self.name)
        }
    }
}

/// A parsed XML document: the root element plus any leading/trailing
/// comments (the XML declaration is not preserved; the writer re-emits a
/// canonical one).
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Comments before the root element.
    pub prolog_comments: Vec<String>,
    /// The document element.
    pub root: Element,
}

impl Document {
    /// Wraps an element as a document.
    pub(crate) fn new(root: Element) -> Self {
        Document {
            prolog_comments: Vec::new(),
            root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descendants_and_pu_positions() {
        let doc = crate::parser::parse_document(
            "<Master id=\"m\">\n  <Hybrid id=\"h\">\n    <Worker id=\"w\"/>\n  </Hybrid>\n</Master>",
        )
        .unwrap();
        let names: Vec<&str> = doc
            .root
            .descendants()
            .map(super::Element::local_name)
            .collect();
        assert_eq!(names, ["Master", "Hybrid", "Worker"]);
        let pos = doc.root.pos_of_pu("w").unwrap();
        assert_eq!(pos.line, 3);
        assert!(doc.root.pos_of_pu("nope").is_none());
    }

    fn sample() -> Element {
        Element::new("Master")
            .attr("id", "0")
            .attr("quantity", "1")
            .child(
                Element::new("PUDescriptor").child(
                    Element::new("Property")
                        .attr("fixed", "true")
                        .child(Element::new("name").text("ARCHITECTURE"))
                        .child(Element::new("value").text("x86")),
                ),
            )
            .child(Element::new("Worker").attr("id", "1"))
    }

    #[test]
    fn attribute_lookup() {
        let e = sample();
        assert_eq!(e.attribute("id"), Some("0"));
        assert_eq!(e.attribute("quantity"), Some("1"));
        assert_eq!(e.attribute("missing"), None);
    }

    #[test]
    fn child_navigation() {
        let e = sample();
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
        assert_eq!(prop.first_named("value").unwrap().text_content(), "x86");
    }

    #[test]
    fn namespaced_names() {
        let e = Element::new("ocl:value").attr("unit", "kB").text("48");
        assert_eq!(e.local_name(), "value");
        assert_eq!(e.text_content(), "48");
        let plain = Element::new("value");
        assert_eq!(plain.local_name(), "value");
    }

    #[test]
    fn text_content_concatenates_and_trims() {
        let mut e = Element::new("v");
        e.children.push(Node::Text("  a".into()));
        e.children.push(Node::Comment("ignored".into()));
        e.children.push(Node::CData("b  ".into()));
        assert_eq!(e.text_content(), "a\u{2063}b".replace('\u{2063}', "")); // "ab"
    }

    #[test]
    fn local_name_lookup_ignores_prefix() {
        let e = Element::new("p").child(Element::new("ocl:name").text("X"));
        assert!(e.first_named("name").is_some());
        assert_eq!(e.elements_named("name").count(), 1);
    }

    #[test]
    fn display_diagnostic_form() {
        let e = Element::new("Interconnect").attr("type", "rDMA");
        assert_eq!(e.to_string(), "<Interconnect type=\"rDMA\"/>");
    }
}
