//! # dda-harness — reproduction of every table and figure
//!
//! One binary per paper artifact (see `DESIGN.md` §4 and `EXPERIMENTS.md`):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I — preconditioner iterations/construction/apply/total |
//! | `fig5` | Fig 5 — sampled per-step PCG iterations per preconditioner |
//! | `fig10` | Fig 10 — SpMV (cuSPARSE CSR / BCSR / HSBCSR) and TSS times |
//! | `table2` | Table II — case-1 per-module times and speed-ups |
//! | `table3` | Table III — case-2 per-module times and speed-ups |
//! | `divergence` | §III-A claim — classified vs monolithic contact init |
//! | `fig89` | Figs 8–9 — shared-memory scheme bank-conflict ablation |
//! | `multigpu` | §VI future work — WAL-journaled fleet scaling over 1/2/4/8 K40s, device-death failover |
//!
//! All "GPU" times are the SIMT simulator's modeled seconds under the named
//! Tesla profile; "CPU" times are the same work tallies under the serial
//! E5620 profile (see `dda-simt` docs). Each binary prints both the paper's
//! reported value and the reproduction's, so the comparison is explicit.

#![deny(missing_docs)]

pub mod args;
pub mod experiments;
pub mod table;

pub use args::Args;
pub use table::Table;
