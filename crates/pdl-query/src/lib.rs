//! # pdl-query — query API over platform descriptions
//!
//! The paper positions the PDL as "a name-space for reference to
//! architectural properties and platform information" complementing
//! hwloc/OpenCL query functions (§II). This crate is that query surface:
//!
//! * [`selector`]/[`engine`] — XPath-flavoured selectors
//!   (`//Worker[@ARCHITECTURE='gpu']`);
//! * [`groups`] — logic-group resolution with set expressions
//!   (`gpus+cpus-slow`, `@workers`);
//! * [`paths`] — data-path derivation over explicit interconnects (routing,
//!   bottleneck analysis), feeding code generation (§IV-C step 3);
//! * [`capability`] — requirement matching for variant pre-selection and
//!   platform-pattern detection;
//! * [`mod@diff`] — structural diffing of descriptor snapshots (dynamic-resource
//!   tracking, paper future work).
//!
//! ```
//! use pdl_core::prelude::*;
//! use pdl_query::query;
//!
//! let mut b = Platform::builder("node");
//! let m = b.master("cpu");
//! let w = b.worker(m, "gpu0").unwrap();
//! b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
//! let p = b.build().unwrap();
//!
//! let gpus = query(&p, "//Worker[@ARCHITECTURE='gpu']").unwrap();
//! assert_eq!(gpus.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capability;
pub mod diff;
pub mod engine;
pub mod groups;
pub mod paths;
pub mod selector;

pub use capability::{detected_patterns, matches_pattern, Requirement, RequirementSet};
pub use diff::{diff, Change};
pub use engine::{query, select};
pub use groups::resolve as resolve_groups;
pub use paths::{closest_pu, route, Route};
pub use selector::Selector;
