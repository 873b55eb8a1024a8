//! # bench — experiment harness regenerating the paper's evaluation
//!
//! One entry point per table/figure (see DESIGN.md §4):
//!
//! * [`fig5`] — the paper's Figure 5: speedup of the translated DGEMM
//!   (`single` → `starpu` → `starpu+2gpu`);
//! * [`portability`] — the Abl. E sweep: one input program over several PDL
//!   descriptors;
//! * [`ablations`] — scheduler/transfer ablation helpers shared by the
//!   Criterion benches;
//! * [`baseline`] — the single-queue thread engine and the binary-heap
//!   event queue the shipped engines replaced, for `engine_scaling`,
//!   `sim_scaling` and the differential tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod baseline;
pub mod fig5;
pub mod portability;
