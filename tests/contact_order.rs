//! Class-sorted contact scheduling: the bitwise-parity contract.
//!
//! `ContactOrder::ClassSorted` schedules the contact-stream kernels
//! through a persistent class-ordering permutation so warps stay
//! `(category, kind)`-uniform at the judgment sites. The permutation is a
//! *processing-order* change only: every store still lands in its item's
//! discovery-order slot, so this suite pins the hard contract — pair
//! lists, contact sets, assembled solutions, and trajectories are bitwise
//! identical to `Discovery` on the solo GPU pipeline (under every
//! broad-phase mode), in the batched runtime, through the checkpoint
//! codec, and on the knob-inert CPU pipeline. A churn test then pins the
//! cache economics: settled scenes reuse the standing permutation instead
//! of re-sorting every step, and forced open–close churn spends the
//! switch budget and triggers re-sorts.

use dda_repro::core::contact::{BroadPhaseMode, ContactOrder};
use dda_repro::core::pipeline::{CpuPipeline, GpuPipeline, SceneBatch, SceneCheckpoint};
use dda_repro::core::{BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::workloads::{rockfall_case, RockfallConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
}

fn rockfall(rocks: usize) -> (BlockSystem, DdaParams) {
    rockfall_case(&RockfallConfig::default().with_rocks(rocks))
}

/// Every trajectory-bearing bit of one system, flattened for `assert_eq`.
fn sys_bits(sys: &BlockSystem) -> Vec<u64> {
    let mut bits = Vec::new();
    for b in &sys.blocks {
        let c = b.centroid();
        bits.push(c.x.to_bits());
        bits.push(c.y.to_bits());
        for dof in 0..6 {
            bits.push(b.velocity[dof].to_bits());
        }
        for k in 0..3 {
            bits.push(b.stress[k].to_bits());
        }
    }
    bits
}

/// Contact identity and history, flattened (order matters: the scheduled
/// kernels must preserve discovery order of the stored stream exactly).
fn contact_bits(contacts: &[dda_repro::core::contact::Contact]) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in contacts {
        bits.push(c.key());
        bits.push(c.state as u64);
        bits.push(c.normal_disp.to_bits());
        bits.push(c.shear_disp.to_bits());
        bits.push(c.edge_ratio.to_bits());
    }
    bits
}

#[test]
fn class_sorted_is_bitwise_identical_across_broad_phase_modes() {
    for mode in [BroadPhaseMode::AllPairs, BroadPhaseMode::GridCached] {
        let (sys, params) = rockfall(14);
        let params = params.with_broad_phase(mode);
        let mut disc = GpuPipeline::new(sys.clone(), params.clone(), k40());
        let mut sorted = GpuPipeline::new(
            sys,
            params.with_contact_order(ContactOrder::ClassSorted),
            k40(),
        );
        for step in 0..8 {
            let rd = disc.step();
            let rs = sorted.step();
            assert_eq!(rd.n_contacts, rs.n_contacts, "{mode:?} step {step}");
            assert_eq!(rd.oc_iterations, rs.oc_iterations, "{mode:?} step {step}");
            assert_eq!(rd.retries, rs.retries, "{mode:?} step {step}");
            assert_eq!(rd.categories, rs.categories, "{mode:?} step {step}");
            assert_eq!(
                contact_bits(disc.contacts()),
                contact_bits(sorted.contacts()),
                "{mode:?} step {step}: contact stream diverged"
            );
            assert_eq!(
                sys_bits(&disc.sys),
                sys_bits(&sorted.sys),
                "{mode:?} step {step}: trajectory diverged"
            );
        }
        let (resorts, _, _) = sorted.contact_order_stats();
        assert!(resorts >= 1, "{mode:?}: the ordering cache never engaged");
        assert_eq!(
            disc.contact_order_stats(),
            (0, 0, 0),
            "{mode:?}: Discovery must never touch the ordering cache"
        );
    }
}

#[test]
fn class_sorted_batch_matches_solo_bitwise() {
    let scenes: Vec<_> = (0..3)
        .map(|k| {
            let (sys, params) = rockfall(6 + 2 * k);
            (sys, params.with_contact_order(ContactOrder::ClassSorted))
        })
        .collect();
    let mut solos: Vec<_> = scenes
        .iter()
        .map(|(sys, params)| GpuPipeline::new(sys.clone(), params.clone(), k40()))
        .collect();
    let mut batch = SceneBatch::new(k40(), scenes);
    for step in 0..6 {
        let rb = batch.step();
        for (i, solo) in solos.iter_mut().enumerate() {
            let rs = solo.step();
            assert_eq!(rs.n_contacts, rb[i].n_contacts, "scene {i} step {step}");
            assert_eq!(
                sys_bits(&solo.sys),
                sys_bits(batch.sys(i).expect("scene runs")),
                "scene {i} step {step}: batch trajectory diverged from solo"
            );
        }
    }
    for (i, solo) in solos.iter().enumerate() {
        assert_eq!(
            batch.contact_order_stats(i).expect("scene runs"),
            solo.contact_order_stats(),
            "scene {i}: batch and solo ordering caches must agree"
        );
    }
}

#[test]
fn class_sorted_round_trips_through_checkpoint() {
    let (sys, params) = rockfall(8);
    let params = params.with_contact_order(ContactOrder::ClassSorted);
    let mut original = GpuPipeline::new(sys, params, k40());
    original.run(3);
    let text = SceneCheckpoint {
        state: original.scene_state(),
        taken_at_step: 3,
    }
    .encode();
    let decoded = SceneCheckpoint::decode(&text).expect("checkpoint decodes");
    assert_eq!(
        decoded.state.params.contact_order,
        ContactOrder::ClassSorted,
        "the scheduling knob must survive the codec"
    );
    let mut restored = GpuPipeline::from_state(decoded.state, k40());
    for step in 0..4 {
        original.step();
        restored.step();
        assert_eq!(
            sys_bits(&original.sys),
            sys_bits(&restored.sys),
            "step {step} after restore: trajectory diverged"
        );
    }
}

#[test]
fn cpu_pipeline_ignores_the_knob_bitwise() {
    let (sys, params) = rockfall(8);
    let mut disc = CpuPipeline::new(sys.clone(), params.clone());
    let mut sorted = CpuPipeline::new(sys, params.with_contact_order(ContactOrder::ClassSorted));
    for step in 0..6 {
        disc.step();
        sorted.step();
        assert_eq!(
            sys_bits(&disc.sys),
            sys_bits(&sorted.sys),
            "step {step}: the serial path must be knob-inert"
        );
    }
}

#[test]
fn settled_scene_reuses_the_permutation() {
    // A static stack settles into a stable contact population with a
    // fixed class profile: after the opening steps the cache must stop
    // re-sorting and ride the standing permutation.
    use dda_repro::core::{Block, BlockMaterial, JointMaterial};
    use dda_repro::geom::Polygon;
    let sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
            Block::new(Polygon::rect(-0.5, 0.0, 0.5, 1.0), 0),
            Block::new(Polygon::rect(-0.45, 1.0, 0.55, 2.0), 0),
            Block::new(Polygon::rect(1.0, 0.0, 2.0, 1.0), 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    let params = DdaParams::for_model(1.0, 5e9)
        .static_analysis()
        .with_contact_order(ContactOrder::ClassSorted);
    let mut gpu = GpuPipeline::new(sys, params, k40());
    let steps = 16;
    gpu.run(steps);
    let (resorts, reuses, _) = gpu.contact_order_stats();
    assert!(resorts >= 1, "cache must build at least once");
    assert!(
        reuses > resorts,
        "a settled scene must mostly reuse (resorts={resorts}, reuses={reuses})"
    );
    assert!(
        resorts <= 4,
        "a stable class profile must not keep re-sorting (resorts={resorts})"
    );
}

#[test]
fn churn_spends_the_switch_budget_and_resorts() {
    // A settling rockfall churns open–close states for many steps; the
    // flips charged by `note_flips` (plus cross-step class drift) must
    // spend the budget and force re-sorts — while the trajectory still
    // matches Discovery bitwise.
    let (sys, params) = rockfall(10);
    let mut disc = GpuPipeline::new(sys.clone(), params.clone(), k40());
    let mut sorted = GpuPipeline::new(
        sys,
        params.with_contact_order(ContactOrder::ClassSorted),
        k40(),
    );
    let steps = 16;
    for step in 0..steps {
        disc.step();
        sorted.step();
        assert_eq!(
            sys_bits(&disc.sys),
            sys_bits(&sorted.sys),
            "step {step}: churn broke bitwise parity"
        );
    }
    let (resorts, reuses, switches) = sorted.contact_order_stats();
    assert!(
        switches > 0,
        "open–close churn must register class switches"
    );
    assert!(
        resorts >= 2,
        "churn past the budget must force re-sorts (resorts={resorts}, switches={switches})"
    );
    assert!(reuses >= 1, "sub-budget steps must still reuse");
    // Exactly one refresh per step: every step either reuses the standing
    // permutation or pays for a re-sort — never both, never neither.
    assert_eq!(
        resorts + reuses,
        steps as u64,
        "every step either reuses or re-sorts (resorts={resorts}, reuses={reuses})"
    );
}
