//! Adversarial scenes: deliberately malformed or hostile inputs that
//! exercise the pipeline's health monitoring without any injector support.
//!
//! Production fleets ingest scene descriptions from files and upstream
//! tools; a NaN velocity *will* arrive eventually. These generators
//! produce the smallest scenes that reach each failure path through the
//! ordinary public API, so the structured-error machinery
//! ([`dda_core::StepError`], quarantine) is testable from real input — no
//! feature flags, no internal hooks.

use crate::rockfall::{rockfall_case, RockfallConfig};
use dda_core::{BlockSystem, DdaParams};

/// A rockfall scene whose rock `poison_rock` (0-based among the falling
/// rocks) carries a NaN launch velocity. The NaN propagates through
/// diagonal building into the assembled right-hand side, so the first step
/// fails with [`dda_core::StepError::NonFiniteRhs`] — the earliest health
/// check — instead of silently corrupting the trajectory.
pub fn nan_contaminated_scene(rocks: usize, poison_rock: usize) -> (BlockSystem, DdaParams) {
    assert!(poison_rock < rocks, "poisoned rock index out of range");
    let (mut sys, params) = rockfall_case(&RockfallConfig::default().with_rocks(rocks));
    // The generator lays out [slope, barrier, rock 0, rock 1, ...].
    let b = &mut sys.blocks[2 + poison_rock];
    b.velocity[0] = f64::NAN;
    (sys, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_scene_is_contaminated_exactly_once() {
        let (sys, _) = nan_contaminated_scene(4, 2);
        let bad: Vec<usize> = sys
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.velocity.iter().any(|v| v.is_nan()))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad, vec![4], "exactly the poisoned rock carries NaN");
    }
}
