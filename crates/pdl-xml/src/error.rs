//! Error types for XML parsing, schema validation and PDL decoding.

use std::fmt;

/// Position within an XML document, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A syntax error found while parsing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Where the error was detected.
    pub pos: Pos,
    /// What went wrong.
    pub kind: SyntaxErrorKind,
}

/// Classification of XML syntax errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyntaxErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof(&'static str),
    /// An unexpected character where a specific one was required.
    Expected {
        /// What the parser required.
        expected: &'static str,
        /// What it found (empty at EOF).
        found: String,
    },
    /// A malformed XML name (element/attribute).
    BadName(String),
    /// `</a>` closing `<b>`.
    MismatchedClose {
        /// Name in the open tag.
        open: String,
        /// Name in the close tag.
        close: String,
    },
    /// Close tag with no matching open tag.
    UnmatchedClose(String),
    /// An attribute repeated on one element.
    DuplicateAttribute(String),
    /// Unknown or malformed entity reference (`&foo;`).
    BadEntity(String),
    /// Content after the document element.
    TrailingContent,
    /// Document contains no element.
    NoRootElement,
    /// Literal `<` or malformed markup in character data.
    StrayMarkup(String),
    /// Elements nested deeper than the parser's cap
    /// ([`MAX_DEPTH`](crate::parser::MAX_DEPTH)).
    TooDeep {
        /// The cap.
        limit: usize,
    },
    /// More nodes, or more attributes, than a
    /// [`Document`](crate::dom::Document) indexes.
    TooLarge {
        /// The most of either it holds.
        limit: usize,
    },
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SyntaxErrorKind::*;
        write!(f, "XML syntax error at {}: ", self.pos)?;
        match &self.kind {
            UnexpectedEof(what) => write!(f, "unexpected end of input inside {what}"),
            Expected { expected, found } => {
                if found.is_empty() {
                    write!(f, "expected {expected}, found end of input")
                } else {
                    write!(f, "expected {expected}, found {found:?}")
                }
            }
            BadName(n) => write!(f, "malformed XML name {n:?}"),
            MismatchedClose { open, close } => {
                write!(f, "closing tag </{close}> does not match <{open}>")
            }
            UnmatchedClose(n) => write!(f, "closing tag </{n}> has no matching open tag"),
            DuplicateAttribute(n) => write!(f, "duplicate attribute {n:?}"),
            BadEntity(e) => write!(f, "unknown or malformed entity reference &{e};"),
            TrailingContent => write!(f, "content after document element"),
            NoRootElement => write!(f, "document contains no root element"),
            StrayMarkup(s) => write!(f, "stray markup {s:?} in character data"),
            TooDeep { limit } => write!(f, "elements nested deeper than {limit} levels"),
            TooLarge { limit } => write!(f, "more than {limit} nodes or attributes"),
        }
    }
}

impl std::error::Error for SyntaxError {}

/// A schema-validation error: the document is well-formed XML but does not
/// conform to the PDL schema (or a registered subschema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Element not allowed here by the base schema.
    UnexpectedElement {
        /// The offending element.
        element: String,
        /// Its parent element ("" for document root).
        parent: String,
    },
    /// A required attribute is missing.
    MissingAttribute {
        /// The element lacking the attribute.
        element: String,
        /// The attribute name.
        attribute: &'static str,
    },
    /// An `xsi:type` references an unregistered subschema.
    UnknownSubschema(String),
    /// A subschema property name not declared by the subschema.
    UnknownSubschemaProperty {
        /// The subschema prefix.
        subschema: String,
        /// The property name.
        property: String,
    },
    /// Document schema version cannot be read by this implementation.
    IncompatibleVersion {
        /// Version declared by the document.
        document: String,
        /// Version implemented by the tool.
        tool: String,
    },
    /// Malformed attribute value (bad number, bad boolean, bad unit …).
    BadAttributeValue {
        /// The element.
        element: String,
        /// The attribute.
        attribute: String,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SchemaError::*;
        match self {
            UnexpectedElement { element, parent } if parent.is_empty() => {
                write!(f, "element <{element}> is not a valid document root")
            }
            UnexpectedElement { element, parent } => {
                write!(f, "element <{element}> is not allowed inside <{parent}>")
            }
            MissingAttribute { element, attribute } => {
                write!(
                    f,
                    "element <{element}> is missing required attribute {attribute:?}"
                )
            }
            UnknownSubschema(s) => write!(f, "xsi:type references unregistered subschema {s:?}"),
            UnknownSubschemaProperty {
                subschema,
                property,
            } => write!(
                f,
                "property {property:?} is not declared by subschema {subschema:?}"
            ),
            IncompatibleVersion { document, tool } => write!(
                f,
                "document schema version {document} cannot be read by tool version {tool}"
            ),
            BadAttributeValue {
                element,
                attribute,
                value,
            } => write!(
                f,
                "element <{element}>: attribute {attribute:?} has malformed value {value:?}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Top-level error for the PDL XML pipeline.
#[derive(Debug)]
pub enum XmlError {
    /// Parsing failed.
    Syntax(SyntaxError),
    /// Schema validation failed.
    Schema(SchemaError),
    /// Decoding produced a structurally invalid platform.
    Model(pdl_core::error::ModelError),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax(e) => e.fmt(f),
            XmlError::Schema(e) => e.fmt(f),
            XmlError::Model(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for XmlError {}

impl From<SyntaxError> for XmlError {
    fn from(e: SyntaxError) -> Self {
        XmlError::Syntax(e)
    }
}

impl From<SchemaError> for XmlError {
    fn from(e: SchemaError) -> Self {
        XmlError::Schema(e)
    }
}

impl From<pdl_core::error::ModelError> for XmlError {
    fn from(e: pdl_core::error::ModelError) -> Self {
        XmlError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_display() {
        assert_eq!(Pos { line: 3, col: 14 }.to_string(), "3:14");
    }

    #[test]
    fn syntax_error_messages() {
        let e = SyntaxError {
            pos: Pos { line: 2, col: 5 },
            kind: SyntaxErrorKind::MismatchedClose {
                open: "Master".into(),
                close: "Worker".into(),
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("2:5"));
        assert!(msg.contains("</Worker>"));
        assert!(msg.contains("<Master>"));
    }

    #[test]
    fn schema_error_messages() {
        let e = SchemaError::UnexpectedElement {
            element: "Device".into(),
            parent: "Master".into(),
        };
        assert!(e.to_string().contains("<Device>"));
        let root = SchemaError::UnexpectedElement {
            element: "Foo".into(),
            parent: String::new(),
        };
        assert!(root.to_string().contains("document root"));
    }
}
