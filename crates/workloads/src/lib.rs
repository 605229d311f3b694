//! # dda-workloads — the paper's evaluation models
//!
//! Case 1 (§V-A) is a static stability analysis of a realistic jointed
//! slope: 4361 blocks, 5 block materials, 38 joint materials, 40 000 steps
//! to rest. Case 2 (§V-B) is a dynamic rockfall: 1683 ~2×2 m blocks
//! descending a 700 m slope over 80 000 steps. The original geometries are
//! survey data the paper does not publish; these generators produce
//! parametric equivalents that match what the experiments actually depend
//! on — block count, contact density, matrix structure, and the
//! static/dynamic split (see `DESIGN.md`, substitution table).
//!
//! * [`adversarial`] — malformed/hostile scenes (NaN contamination) for
//!   the health-monitoring and quarantine paths;
//! * [`cutter`] — joint-set block cutter: convex regions split by families
//!   of parallel joint lines;
//! * [`slope`] — case-1 generator (jointed slope cross-section);
//! * [`rockfall`] — case-2 generator (rock column on a steep slope);
//! * [`scatter`] — scattered sparse rock field (broad-phase stressor:
//!   O(1) contacts per block, O(n²) all-pairs candidates);
//! * [`fleet`] — N distinct rockfall scenes for the batched multi-scene
//!   runtime's throughput studies;
//! * [`traffic`] — open-loop submission streams for the ingestion
//!   layer's overload and soak studies;
//! * [`render`] — SVG snapshots (the Figs 11–13 analogues).

#![deny(missing_docs)]

pub mod adversarial;
pub mod cutter;
pub mod fleet;
pub mod render;
pub mod rockfall;
pub mod scatter;
pub mod slope;
pub mod traffic;

pub use adversarial::nan_contaminated_scene;
pub use fleet::{rockfall_fleet, FleetConfig};
pub use rockfall::{rockfall_case, RockfallConfig};
pub use scatter::{scatter_case, ScatterConfig};
pub use slope::{slope_case, SlopeConfig};
pub use traffic::{FleetChurnConfig, FleetChurnTraffic, OpenLoopTraffic, TrafficConfig};
