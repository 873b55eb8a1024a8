//! # bench — experiment harness regenerating the paper's evaluation
//!
//! One entry point per table/figure (see DESIGN.md §4):
//!
//! * [`fig5`] — the paper's Figure 5: speedup of the translated DGEMM
//!   (`single` → `starpu` → `starpu+2gpu`);
//! * [`portability`] — the Abl. E sweep: one input program over several PDL
//!   descriptors;
//! * [`ablations`] — the Abl. A, B, D and F–I tables.
//!
//! The `fig5` and `portability` binaries print them; the unit tests pin
//! their exact text.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig5;
pub mod portability;
