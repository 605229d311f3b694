//! # dda-sparse — block-sparse symmetric matrices for DDA
//!
//! The DDA global stiffness matrix is "naturally blocky and symmetric"
//! (§III-C): every entry is a 6×6 sub-matrix (one per block-pair sharing a
//! contact), all diagonal sub-matrices are nonzero, and only the upper
//! triangle is computed and stored. This crate provides:
//!
//! * [`block6::Block6`] — dense 6×6 sub-matrix arithmetic (the DOF block of
//!   one DDA block: `u0, v0, r0, εx, εy, γxy`);
//! * [`sym::SymBlockMatrix`] — the canonical half-stored symmetric matrix
//!   produced by stiffness assembly;
//! * [`csr::Csr`], [`bcsr::BlockCsr`] and [`ell::Ell`] — scalar CSR,
//!   block CSR and ELLPACK-R views (the recovered-full-matrix formats the
//!   paper's baselines and related work use);
//! * [`hsbcsr::Hsbcsr`] — the paper's **half slice block compressed sparse
//!   row** format (Figs 6–7): sub-matrices sliced by local row, slices
//!   padded to 32-multiples for coalescing, with the `rc`, `row-up-i`,
//!   `row-low-i`, `row-low-p` index arrays;
//! * [`scratch::Scratch`] — the per-host-thread staging buffers of the
//!   solver's device kernels;
//! * [`spmv`] — SpMV kernels on the SIMT simulator: the cuSPARSE-like CSR
//!   scalar/vector baselines, full-matrix BCSR, and the paper's two-stage
//!   HSBCSR SpMV (Figs 8–9), plus instrumented serial references.

#![deny(missing_docs)]
// Index-based loops over fixed 6-DOF arrays mirror the paper's kernel
// notation (row r, column c); iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod bcsr;
pub mod block6;
pub mod csr;
pub mod ell;
pub mod hsbcsr;
pub mod scratch;
pub mod spmv;
pub mod sym;

pub use bcsr::BlockCsr;
pub use block6::{Block6, Vec6, BLOCK_DOF};
pub use csr::Csr;
pub use ell::Ell;
pub use hsbcsr::Hsbcsr;
pub use scratch::Scratch;
pub use sym::SymBlockMatrix;
