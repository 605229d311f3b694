//! # dda-simt — a SIMT GPU execution simulator
//!
//! The paper runs the entire DDA pipeline as CUDA kernels on Tesla K20/K40
//! GPUs. Its performance claims are *architectural*: branch divergence
//! reduced by data classification, memory write conflicts avoided by
//! sort/scan assembly, coalesced global-memory access in the HSBCSR layout,
//! bank-conflict-free shared-memory reductions, and kernel-launch/occupancy
//! costs that make level-scheduled triangular solves uncompetitive.
//!
//! No GPU is available to this reproduction (and Rust GPU crates cannot
//! express the custom SpMV kernels anyway — see `DESIGN.md`), so this crate
//! provides the substitute substrate: a **SIMT execution simulator** that
//!
//! 1. **executes kernels for real** — a kernel is a plain Rust closure run
//!    for every simulated thread, with warps of large launches distributed
//!    over a persistent host-thread pool, so all numerical results are
//!    exact; and
//! 2. **models the architecture** — every kernel reports
//!    [`stats::KernelStats`]: global-memory transactions under 128-byte
//!    coalescing rules, texture-path transactions, shared-memory bank
//!    conflicts (32 banks), per-site branch-divergence groups, warp-level
//!    SIMT work (idle lanes cost), and barrier counts. A roofline-style
//!    [`timing::TimingModel`] converts the report into modeled seconds under
//!    a named [`profile::DeviceProfile`] — Tesla K20, Tesla K40, or a serial
//!    Xeon E5620 profile for the paper's CPU baseline.
//!
//! Speedups quoted by the reproduction harness are ratios of modeled times
//! under these profiles — the honest analogue of the paper's cross-hardware
//! comparison — never wall-clock of the host container.
//!
//! ## Two kernel granularities
//!
//! * [`device::Device::launch`] — one closure per *thread* ([`lane::Lane`]),
//!   for map-style kernels (distance judgment, sub-matrix products,
//!   interpenetration checks). Divergence and coalescing are measured from
//!   the actual per-lane traces.
//! * [`device::Device::launch_blocks`] — one closure per *thread block*
//!   ([`block::Block`]), for cooperative kernels (scan, radix sort,
//!   segmented reductions) where threads communicate through shared memory
//!   and barriers. The block context instruments the canonical access
//!   patterns analytically while the closure computes real results.
//!
//! ## Write-conflict detection
//!
//! The paper devotes a section to avoiding memory write conflicts in global
//! stiffness assembly. [`device::Device::with_conflict_checking`] arms a
//! per-buffer epoch detector: two lanes storing to the same element within
//! one launch panics with a diagnostic. The DDA assembly tests run with the
//! detector armed, turning the paper's correctness argument into an
//! executable invariant.
//!
//! ## Device-wide primitives
//!
//! [`primitives`] implements the GPU building blocks the paper relies on
//! (Merrill-style scan and LSD radix sort, segmented reduction, stream
//! compaction, sorted search) as sequences of simulated kernel launches, so
//! classification and assembly inherit both correct results and modeled
//! costs.

#![deny(missing_docs)]
// Index-based loops over fixed 6-DOF arrays mirror the paper's kernel
// notation (row r, column c); iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod block;
pub mod buffer;
pub(crate) mod coalesce;
pub mod device;
pub mod inject;
pub mod lane;
pub(crate) mod pool;
pub mod primitives;
pub mod profile;
pub mod serial;
pub mod stats;
pub mod timing;

pub use batch::BatchSummary;
pub use block::Block;
pub use buffer::GBuf;
pub use device::Device;
pub use inject::{DeathMode, Fault};
pub use lane::Lane;
pub use profile::DeviceProfile;
pub use stats::{DeviceTrace, KernelStats};
pub use timing::TimingModel;

/// Number of lanes in a warp. Fixed at 32, as on every CUDA-capable GPU the
/// paper targets.
pub const WARP_SIZE: usize = 32;

/// Global-memory transaction size in bytes (L1/L2 cache-line granularity on
/// Kepler).
pub const TRANSACTION_BYTES: u64 = 128;

/// Texture-path transaction size in bytes (texture cache granularity used
/// for the irregular vector reads in HSBCSR SpMV).
pub const TEX_TRANSACTION_BYTES: u64 = 32;

/// Number of shared-memory banks on Kepler.
pub const SMEM_BANKS: usize = 32;
