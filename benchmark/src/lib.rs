//! # dda-benchmark — one benchmark for the whole DDA stack
//!
//! Four workloads, two time axes (host wall-clock, modeled device
//! seconds), every layer timed from outside. See `README.md` for the
//! metric tables, the layer → end-to-end map and the recorded findings;
//! `BENCHMARK.json` at the repository root is generated from [`spec`].
//!
//! The package is a workspace of its own: it reaches the library through
//! path dependencies and never touches the root manifest or lock file.

#![deny(missing_docs)]

pub mod compare;
pub mod fleet;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod outcome;
pub mod report;
pub mod serving;
pub mod solo;
pub mod spec;
pub mod stats;

use inputs::RunOptions;
use outcome::RunOutcome;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20170529;

/// Runs one workload once, untraced (end-to-end metrics) or traced
/// (per-layer metrics). `None` for an unknown workload name.
pub fn run_workload(workload: &str, traced: bool, o: &RunOptions) -> Option<RunOutcome> {
    match (workload, traced) {
        ("fleet_churn", false) => Some(fleet::run_untraced(o)),
        ("fleet_churn", true) => Some(fleet::run_traced(o)),
        (_, false) => solo::run_untraced(workload, o),
        (_, true) => solo::run_traced(workload, o),
    }
}
