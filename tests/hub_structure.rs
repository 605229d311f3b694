//! The block structure of the stiffness matrix on the benchmark's smoke
//! scenes: which blocks the solves couple.
//!
//! The matrix couples two blocks exactly where a closed contact joins them
//! (`assemble_contacts_gpu` abandons open ones). A step detects its contact
//! list once and every solve of the step assembles from it, so the block
//! pairs of the step's contact list bound the off-diagonal pattern of every
//! solve the step runs, retried attempts included. This suite records, per
//! step, the hub size (the scene's fixed blocks) and the distinct block
//! pairs of the contact list by class, free–free, free–hub and hub–hub, next
//! to the number of solves they bound.
//!
//! On rockfall and the fleet's rock scenes no contact joins two free
//! blocks: the matrix is an *arrow*, free blocks on the diagonal coupled
//! only to a 2-block hub. The scatter field's solves couple nothing to its
//! floor, and the slope's hub is far larger than a dense hub solve can
//! afford. `DESIGN.md` ("The hub Schur complement") says what the solver
//! makes of it.

use std::collections::BTreeSet;

use dda_repro::core::pipeline::GpuPipeline;
use dda_repro::core::{BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::solver::precond::HUB_CAP;
use dda_repro::workloads::{
    rockfall_case, scatter_case, slope_case, RockfallConfig, ScatterConfig, SlopeConfig,
};

/// What one step's contact list couples.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Structure {
    /// Fixed blocks of the scene.
    hub: usize,
    /// Solves of the step's accepted attempt (one per open–close
    /// iteration); each retried attempt ran up to `oc_max_iters` more on
    /// the same contact list.
    solves: usize,
    retries: usize,
    free_free: usize,
    free_hub: usize,
    hub_hub: usize,
}

/// Runs `steps` steps and records each step's [`Structure`].
fn structure((sys, params): (BlockSystem, DdaParams), steps: usize) -> Vec<Structure> {
    let fixed: Vec<bool> = sys.blocks.iter().map(|b| b.fixed).collect();
    let hub = fixed.iter().filter(|&&f| f).count();
    let mut pipe = GpuPipeline::new(sys, params, Device::new(DeviceProfile::tesla_k40()));
    (0..steps)
        .map(|_| {
            let report = pipe.step();
            let st = pipe.scene_state();
            let pairs: BTreeSet<(u32, u32)> = st
                .contacts
                .iter()
                .map(|c| (c.i.min(c.j), c.i.max(c.j)))
                .filter(|(i, j)| i != j)
                .collect();
            let mut s = Structure {
                hub,
                solves: report.oc_iterations,
                retries: report.retries,
                ..Structure::default()
            };
            for (i, j) in pairs {
                match (fixed[i as usize], fixed[j as usize]) {
                    (false, false) => s.free_free += 1,
                    (true, true) => s.hub_hub += 1,
                    _ => s.free_hub += 1,
                }
            }
            s
        })
        .collect()
}

fn total(per_step: &[Structure]) -> Structure {
    per_step
        .iter()
        .fold(Structure::default(), |a, s| Structure {
            hub: s.hub,
            solves: a.solves + s.solves,
            retries: a.retries + s.retries,
            free_free: a.free_free + s.free_free,
            free_hub: a.free_hub + s.free_hub,
            hub_hub: a.hub_hub + s.hub_hub,
        })
}

#[test]
fn rockfall_is_an_arrow_around_a_two_block_hub() {
    let per_step = structure(rockfall_case(&RockfallConfig::default().with_rocks(40)), 24);
    let t = total(&per_step);
    println!("rockfall: {t:?}");
    assert_eq!(t.hub, 2);
    assert!(per_step.iter().all(|s| s.free_free == 0), "{per_step:?}");
    assert!(t.free_hub > 0, "no rock ever touched the hub: {t:?}");
}

#[test]
fn a_fleet_rock_scene_is_an_arrow_around_a_two_block_hub() {
    let per_step = structure(rockfall_case(&RockfallConfig::default().with_rocks(4)), 24);
    let t = total(&per_step);
    println!("fleet scene: {t:?}");
    assert_eq!(t.hub, 2);
    assert!(per_step.iter().all(|s| s.free_free == 0), "{per_step:?}");
    assert!(t.free_hub > 0, "no rock ever touched the hub: {t:?}");
}

#[test]
fn scatter_couples_nothing_to_its_floor() {
    let per_step = structure(scatter_case(&ScatterConfig::default().with_rocks(300)), 16);
    let t = total(&per_step);
    println!("scatter: {t:?}");
    assert_eq!(t.hub, 1);
    assert_eq!((t.free_hub, t.hub_hub), (0, 0), "{per_step:?}");
    assert!(t.free_free > 0, "the field has no contacts at all: {t:?}");
}

#[test]
fn the_slope_hub_exceeds_the_cap() {
    let scene = slope_case(&SlopeConfig {
        target_blocks: 60,
        seed: 3,
        ..SlopeConfig::default()
    });
    let per_step = structure(scene, 8);
    let t = total(&per_step);
    println!("slope: {t:?}");
    assert!(t.hub > HUB_CAP, "{t:?}");
    assert!(t.free_free > 0 && t.free_hub > 0, "{t:?}");
}
