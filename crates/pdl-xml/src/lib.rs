//! # pdl-xml — the XML surface of the Platform Description Language
//!
//! From-scratch XML parser/writer and "XSD-lite" schema engine for PDL
//! documents (no external XML dependency — see DESIGN.md for the
//! substitution rationale), plus codecs between the XML form and the
//! [`pdl_core`] machine model.
//!
//! ## Pipeline
//!
//! ```text
//! &'a str --parse--> Document<'a> --validate--> (schema ok) --decode--> Platform
//! &'p Platform --encode--> Document<'p> --write--> String
//! ```
//!
//! A [`dom::Document`] is one flat column of rows — a node each, in
//! document order — plus one column of attributes, and its strings borrow
//! what it was made from: the XML text on the way in (owned only where an
//! entity reference was resolved), the platform's ids, names and values on
//! the way out. It therefore cannot outlive that text or platform;
//! [`from_xml`] and [`to_xml`] build one, use it and drop it, so their
//! callers see only `&str`, `String` and `Platform`.
//!
//! ## Example
//!
//! ```
//! use pdl_xml::{from_xml, to_xml};
//!
//! let xml = r#"
//! <Master id="0">
//!   <PUDescriptor>
//!     <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
//!   </PUDescriptor>
//!   <Worker id="1">
//!     <PUDescriptor>
//!       <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
//!     </PUDescriptor>
//!   </Worker>
//!   <Interconnect type="rDMA" from="0" to="1" scheme=""/>
//! </Master>"#;
//!
//! let platform = from_xml(xml).unwrap();
//! assert_eq!(platform.workers().count(), 1);
//! let round_tripped = from_xml(&to_xml(&platform)).unwrap();
//! assert_eq!(platform, round_tripped);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decode;
pub mod dom;
pub mod encode;
pub mod error;
pub mod parser;
pub mod schema;
pub mod writer;

pub use decode::decode_unchecked;
pub use encode::{encode_master_fragment, to_xml};
pub use error::{Pos, SchemaError, SyntaxError, XmlError};
pub use parser::{parse_document, parse_fragment};
pub use schema::{SchemaRegistry, Subschema};

use pdl_core::platform::Platform;

/// One-call convenience: parse, validate against the built-in registry and
/// decode.
pub fn from_xml(xml: &str) -> Result<Platform, XmlError> {
    let doc = parse_document(xml)?;
    decode::decode_document(&doc, &SchemaRegistry::with_builtins())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_xml_reports_syntax_errors() {
        let err = from_xml("<Master id=\"0\">").unwrap_err();
        assert!(matches!(err, XmlError::Syntax(_)));
    }

    #[test]
    fn from_xml_reports_schema_errors() {
        let err = from_xml("<Bogus/>").unwrap_err();
        assert!(matches!(err, XmlError::Schema(_)));
    }
}
