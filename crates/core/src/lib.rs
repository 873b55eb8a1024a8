//! # pdl-core — hierarchical machine model for heterogeneous platforms
//!
//! Rust implementation of the machine model of *"Explicit Platform
//! Descriptions for Heterogeneous Many-Core Architectures"* (Sandrieser,
//! Benkner, Pllana — IPDPS Workshops 2011).
//!
//! The model describes a heterogeneous platform as a forest of processing
//! units connected by explicit **control relationships** — "the possibility
//! for delegation of computational tasks from one processing-unit to
//! another" (paper §II) — annotated with memory regions, interconnects and
//! extensible key/value properties:
//!
//! * [`pu::PuClass::Master`] — general-purpose root PUs (program entry).
//! * [`pu::PuClass::Hybrid`] — inner nodes, controlled and controlling.
//! * [`pu::PuClass::Worker`] — specialized leaves.
//! * [`memory::MemoryRegion`] / [`interconnect::Interconnect`] — explicit
//!   data-path entities enabling derivation of transfer requirements.
//! * [`property::Property`] — fixed/unfixed values, unit annotations and
//!   typed subschema references (Listing 2's `ocl:` properties).
//!
//! Every id, property name and value, subschema name and interconnect label
//! is a [`text::Text`]: shared, immutable text that clones without copying.
//! [`platform::PlatformBuilder::intern`] gives out one `Text` per distinct
//! string, which is how a parser stores each string of a description once;
//! cloning, canonicalizing or composing a platform then copies no text.
//!
//! ## Quick example — Listing 1 of the paper
//!
//! ```
//! use pdl_core::prelude::*;
//!
//! let mut b = Platform::builder("gpgpu-node");
//! let m = b.master("0");
//! b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
//! let w = b.worker(m, "1").unwrap();
//! b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
//! b.interconnect(Interconnect::new("rDMA", "0", "1"));
//! let platform = b.build().unwrap();
//!
//! assert_eq!(platform.workers().count(), 1);
//! let (_, gpu) = platform.pu_by_id("1").unwrap();
//! assert_eq!(gpu.architecture(), Some("gpu"));
//! ```
//!
//! The XML serialization lives in the `pdl-xml` crate; querying and routing
//! in `pdl-query`; automatic generation in `pdl-discover`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod descriptor;
pub mod diag;
pub mod error;
pub mod id;
pub mod interconnect;
pub mod memory;
pub mod patterns;
pub mod platform;
pub mod property;
pub mod pu;
pub mod text;
pub mod units;
pub mod validate;
pub mod version;
pub mod visit;

pub mod wellknown;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::descriptor::{Descriptor, DescriptorKind};
    pub use crate::diag::{Diagnostic, Report, Severity, Span};
    pub use crate::error::{ModelError, ValidationIssue};
    pub use crate::id::{GroupId, MrId, PuId, PuIdx};
    pub use crate::interconnect::{Directionality, Interconnect};
    pub use crate::memory::MemoryRegion;
    pub use crate::patterns::PatternKind;
    pub use crate::platform::{Platform, PlatformBuilder, PuHandle};
    pub use crate::property::{Property, PropertyValue, SubschemaRef};
    pub use crate::pu::{ProcessingUnit, PuClass};
    pub use crate::text::Text;
    pub use crate::units::Unit;
    pub use crate::version::Version;
    pub use crate::wellknown;
}
