//! # hetero-model — the data layer's coherence protocol, model-checked
//!
//! The runtime's data layer (`hetero_rt::data`) is a real MSI-style
//! coherence protocol: valid sets per handle, single-writer invalidation,
//! host-staged vs peer-to-peer transfer routing. This crate extracts that
//! protocol into a pure, dependency-free transition system and checks it
//! by **exhaustive enumeration** instead of hope:
//!
//! * [`proto`] — the protocol itself: [`proto::plan_acquire`],
//!   [`proto::plan_flush`], [`proto::commit`], [`proto::finish_access`]
//!   over abstract [`proto::Node`]s and a [`proto::CostView`].
//!   `DataRegistry` delegates every transition here, so the verified
//!   model and the shipping implementation are the same code.
//! * [`topo`] — small bounded topologies (shared-memory CPU + `PCIe`
//!   accelerators, `NVLink` peer pairs) the checker explores; the runtime
//!   derives them from real PDL descriptions.
//! * [`model`] — the instrumented model: registry-visible valid sets plus
//!   ground-truth freshness per copy, split acquire/finish actions to
//!   expose interleavings, and named [`model::Mutation`]s (deliberate
//!   bugs) for validating the checker.
//! * [`mod@explore`] — BFS over every reachable state under a bounded number
//!   of outstanding accesses, checking five invariants on every
//!   transition (valid-somewhere, single-writer, no-lost-update,
//!   probe==charge, monotone-staging) and minimizing counterexample
//!   traces.
//!
//! Violations surface through `pdl-analyze` as the stable M-series
//! diagnostic codes (`M001`–`M005`); `pdl model-check` drives the whole
//! thing from the command line. See `docs/MODEL.md`.
//!
//! ```
//! use hetero_model::{explore::{explore, Bounds}, model::Model, topo::Topo};
//!
//! // A CPU sharing host memory plus two PCIe GPUs with an NVLink pair.
//! let topo = Topo::star("demo", 3, 10.0).with_shared(0).with_peer(1, 2, 3.0);
//! let model = Model::new(vec![topo.clone(), topo]);
//! let ex = explore(&model, &Bounds { max_pending: 1, max_states: 1 << 20 });
//! assert!(ex.violation.is_none() && ex.complete);
//! ```

#![forbid(unsafe_code)]

pub mod explore;
pub mod model;
pub mod proto;
pub mod topo;

pub use explore::{explore, Bounds, Exploration, Invariant, Violation};
pub use model::{Action, Model, Mutation, State};
pub use proto::{AccessMode, CostView, Node, Plan, PlanClass, Routing};
pub use topo::Topo;
