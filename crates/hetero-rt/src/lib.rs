//! # hetero-rt — a StarPU-style heterogeneous task runtime
//!
//! The paper's Cascabel compiler generates programs for the `StarPU`
//! runtime-system (§IV-D). This crate is the reproduction's substitute: the
//! same concepts — codelets with per-architecture implementation variants,
//! data handles managed across distinct memory spaces, pluggable scheduling
//! policies — with three execution engines on one task graph
//! ([`graph::TaskGraph`], compiled once to [`graph::CompiledGraph`]):
//!
//! * [`sim_engine`] — list-scheduling in **virtual time** over a
//!   PDL-derived [`simhw::machine::SimMachine`]; regenerates the paper's
//!   Figure 5 without its hardware.
//! * [`dyn_engine`] — **online** scheduling in virtual time: an event
//!   queue of completions, ready tasks bound to idle devices only. Same
//!   cost model as the list engine, so differences are scheduling order.
//! * [`thread_engine`] — **real** execution of task closures on a
//!   work-stealing thread pool with identical dependency semantics, for
//!   functional testing.
//!
//! ```
//! use hetero_rt::prelude::*;
//!
//! let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
//! let machine = simhw::machine::SimMachine::from_platform(&platform);
//!
//! let mut graph = TaskGraph::new();
//! let dgemm = graph.add_codelet(
//!     Codelet::new("dgemm")
//!         .with_variant(Variant::new("x86"))
//!         .with_variant(Variant::new("gpu").requiring("Cuda")),
//! );
//! let c = graph.register_data("C", 512e6);
//! graph.submit(dgemm, "tile", 1e12, vec![DataAccess {
//!     handle: c,
//!     mode: AccessMode::ReadWrite,
//! }], None);
//!
//! let report = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap();
//! assert!(report.makespan.seconds() > 0.0);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
mod dispatch;
pub mod dyn_engine;
pub mod graph;
pub mod perfmodel;
pub mod scheduler;
pub mod sim_engine;
mod sim_run;
pub mod task;
pub mod thread_engine;
pub mod trace_bridge;

/// Commonly used items.
pub mod prelude {
    pub use crate::data::{AccessMode, DataRegistry, HandleId, Routing, TransferHop, TransferPlan};
    pub use crate::dyn_engine::simulate_dynamic;
    pub use crate::graph::TaskGraph;
    pub use crate::perfmodel::PerfModel;
    pub use crate::scheduler::{
        by_name, DmdaScheduler, EagerScheduler, EnergyAwareScheduler, HeftScheduler,
        RandomScheduler, RoundRobinScheduler, ScheduleContext, Scheduler,
    };
    pub use crate::sim_engine::{simulate, RtError, SimOptions, SimReport, TransferPipeline};
    pub use crate::task::{Codelet, DataAccess, Task, TaskId, Variant};
    pub use crate::thread_engine::{
        from_graph, ExecReport, Placement, PlacementGroup, ThreadTask, ThreadedExecutor,
        WorkerStats,
    };
    pub use crate::trace_bridge::sim_report_to_trace;
    pub use hetero_trace::TraceSink;
}
