//! # kernels — computational kernels with implementation variants
//!
//! The workloads of the reproduction. DGEMM (the paper's §IV-D evaluation
//! kernel) and vecadd (the §IV-A annotation example) have real
//! implementations, verified against references, beside their analytic
//! FLOP/byte cost functions. The Jacobi stencil, the sparse matrix–vector
//! product and the reduction are cost models only: nothing executes them,
//! the simulator prices them.
//! [`graphs`] builds the corresponding [`hetero_rt::graph::TaskGraph`]s
//! shaped like Cascabel's generated programs.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dgemm;
pub mod graphs;
pub mod reduce;
pub mod spmv;
pub mod stencil;
pub mod vecadd;
