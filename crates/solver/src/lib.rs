//! # dda-solver — PCG solvers and preconditioners for DDA
//!
//! "Sparse linear symmetry equation solving is the most time-consuming
//! module of DDA; it usually takes 50% to 90% of the time in the sequential
//! version" (§IV). This crate implements the paper's solver study:
//!
//! * [`mod@pcg`] — preconditioned conjugate gradients on the SIMT device, with
//!   per-phase accounting (SpMV, preconditioner apply, vector ops) so the
//!   harness can reproduce Table I and Fig 10;
//! * [`precond`] — the three candidates: **Block-Jacobi** (6×6 diagonal
//!   inverses), **SSOR approximate inverse** (Helfenstein–Koko form: two
//!   triangular SpMVs, no triangular solve), and **ILU(0)** with
//!   level-scheduled triangular solves;
//! * [`tri`] — level scheduling for sparse triangular systems: the
//!   low-parallelism, many-launch structure that makes ILU lose end-to-end
//!   on the GPU despite its superior convergence rate;
//! * [`vecops`] — instrumented device vector kernels (axpy, dot, norms);
//! * [`serial`] — a CpuCounter-instrumented serial PCG for the Xeon E5620
//!   baseline.
//!
//! Convergence criteria follow DDA practice: the iteration is capped (the
//! paper caps at 200 and shrinks the physical time step on failure), and
//! the previous step's solution seeds the next solve.

#![deny(missing_docs)]
// Index-based loops over fixed 6-DOF arrays mirror the paper's kernel
// notation (row r, column c); iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod pcg;
pub mod precond;
pub mod serial;
pub mod traits;
pub mod tri;
pub mod vecops;

pub use pcg::{
    pcg, pcg_fused, pcg_fused_batch, pcg_fused_mixed, PcgBatchEntry, PcgOptions, PcgWorkspace,
    SolveError, SolveResult, SolverPrecision,
};
pub use precond::{
    BlockJacobi, Identity, Ilu0, Jacobi, PrecondError, PrecondKind, Preconditioner, SsorAi,
};
pub use traits::{CsrScalarMat, CsrVectorMat, HsbcsrMat, MatVec};
