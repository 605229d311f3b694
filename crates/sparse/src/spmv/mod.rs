//! SpMV kernels on the SIMT simulator.
//!
//! Four GPU implementations, mirroring the paper's Fig 10 comparison:
//!
//! * [`csr::spmv_csr_scalar`] — one thread per scalar row (the naive CSR
//!   kernel);
//! * [`csr::spmv_csr_vector`] — one warp per scalar row with a shuffle
//!   reduction (the cuSPARSE `csrmv`-style baseline the paper calls
//!   *SpMV-cuSPARSE*; it requires the recovered **full** matrix);
//! * [`bcsr_kernel::spmv_bcsr`] — 6×6 block CSR on the full matrix;
//! * [`hsbcsr::spmv_hsbcsr`] — the paper's two-stage half-stored SpMV
//!   (§IV-B, Figs 8–9): never recovers the full matrix, reads the upper
//!   triangle once with perfectly-coalesced sliced loads, and reduces
//!   per-row with the proposed conflict-aware shared-memory scheme.
//!
//! Every kernel is verified against [`crate::SymBlockMatrix::mul_vec`].

pub mod bcsr_kernel;
pub mod csr;
pub mod hsbcsr;

pub use bcsr_kernel::spmv_bcsr;
pub use csr::{spmv_csr_scalar, spmv_csr_vector};
pub use hsbcsr::{
    spmv_hsbcsr, spmv_hsbcsr_folded_pq, spmv_hsbcsr_fused_pq, spmv_hsbcsr_into, Fold,
    SpmvWorkspace, Stage1Smem,
};
