//! The default assembly path against the Fig 4 oracle: the parity
//! contracts.
//!
//! `AssemblyReuse::Incremental` (the default) sorts the contact keys once
//! per contact list and assembles every open–close iteration with one
//! segment-gather launch. The contract is *bitwise* equality with
//! `AssemblyReuse::Recompute`, the paper's store → sort → reduce stream
//! run from scratch every iteration: pair lists, contact histories,
//! assembled solutions, and trajectories must match exactly — on the solo
//! GPU pipeline under every broad-phase mode and contact order, in the
//! batched runtime, through the checkpoint codec, and (knob-inert) on the
//! CPU reference. Fault-injected runs (a pinned open–close loop, an
//! indefinite operator driving the fallback ladder) must keep the same
//! parity.
//!
//! `SolverWarmStart::PrevIterate` is held here only where it must stay
//! bitwise (the codec round trip, the CPU reference ignoring it, repeat runs
//! of a warm-started ladder descent). Its tolerance contract against
//! `PrevStep` lives in `tests/tolerance_oracle.rs`.

use dda_repro::core::contact::{BroadPhaseMode, ContactOrder};
use dda_repro::core::pipeline::{CpuPipeline, GpuPipeline, SceneBatch, SceneCheckpoint};
use dda_repro::core::{AssemblyReuse, BlockSystem, DdaParams, SolverWarmStart};
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

/// Contact identity and history, flattened: a wrong assembly moves the
/// solution, and the open–close update writes that into these bits first.
fn contact_bits(contacts: &[dda_repro::core::contact::Contact]) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in contacts {
        bits.push(c.key());
        bits.push(c.state as u64);
        bits.push(c.normal_disp.to_bits());
        bits.push(c.shear_disp.to_bits());
        bits.push(c.edge_ratio.to_bits());
        bits.push(c.slide_dir.to_bits());
    }
    bits
}

#[test]
fn incremental_is_bitwise_identical_across_broad_phase_modes() {
    for mode in [BroadPhaseMode::AllPairs, BroadPhaseMode::GridCached] {
        let (sys, params) = rockfall(14);
        let params = params.with_broad_phase(mode);
        let mut oracle = GpuPipeline::new(
            sys.clone(),
            params.clone().with_assembly_reuse(AssemblyReuse::Recompute),
            k40(),
        );
        let mut incr = GpuPipeline::new(
            sys,
            params.with_assembly_reuse(AssemblyReuse::Incremental),
            k40(),
        );
        let mut multi_iter_steps = 0;
        for step in 0..8 {
            let ro = oracle.step();
            let ri = incr.step();
            assert_eq!(ro.n_contacts, ri.n_contacts, "{mode:?} step {step}");
            assert_eq!(ro.oc_iterations, ri.oc_iterations, "{mode:?} step {step}");
            assert_eq!(ro.pcg_iterations, ri.pcg_iterations, "{mode:?} step {step}");
            assert_eq!(ro.retries, ri.retries, "{mode:?} step {step}");
            assert_eq!(ro.categories, ri.categories, "{mode:?} step {step}");
            assert_eq!(
                contact_bits(oracle.contacts()),
                contact_bits(incr.contacts()),
                "{mode:?} step {step}: contact stream diverged"
            );
            assert_eq!(
                sys_bits(&oracle.sys),
                sys_bits(&incr.sys),
                "{mode:?} step {step}: trajectory diverged"
            );
            // The oracle never touches the cache; the default run plans at
            // most once per contact list and gathers every assembly under
            // that plan.
            assert_eq!(
                ro.assembly,
                Default::default(),
                "{mode:?} step {step}: Recompute must not touch the cache"
            );
            let a = ri.assembly;
            assert!(a.plan_rebuilds <= 1, "{mode:?} step {step}: {a:?}");
            assert_eq!(
                a.plan_rebuilds + a.plan_hits,
                a.full_builds,
                "{mode:?} step {step}: every assembly runs under one plan"
            );
            assert_eq!(a.spliced, 0, "{mode:?} step {step}");
            if ri.retries == 0 {
                assert_eq!(
                    a.full_builds, ri.oc_iterations as u64,
                    "{mode:?} step {step}"
                );
            }
            multi_iter_steps += usize::from(ri.oc_iterations > 1);
        }
        assert!(
            multi_iter_steps > 0,
            "{mode:?}: workload never re-iterated; plan reuse within a step went untested"
        );
        let stats = incr.assembly_cache_stats();
        assert!(
            stats.plan_rebuilds < 8 && stats.plan_hits > stats.plan_rebuilds,
            "{mode:?}: the plan must outlive open–close iterations and steps: {stats:?}"
        );
    }
}

#[test]
fn incremental_composes_with_class_sorted_scheduling() {
    let (sys, params) = rockfall(12);
    let params = params.with_contact_order(ContactOrder::ClassSorted);
    let mut oracle = GpuPipeline::new(
        sys.clone(),
        params.clone().with_assembly_reuse(AssemblyReuse::Recompute),
        k40(),
    );
    let mut incr = GpuPipeline::new(
        sys,
        params.with_assembly_reuse(AssemblyReuse::Incremental),
        k40(),
    );
    for step in 0..8 {
        oracle.step();
        incr.step();
        assert_eq!(
            sys_bits(&oracle.sys),
            sys_bits(&incr.sys),
            "step {step}: class-sorted + incremental diverged"
        );
        assert_eq!(
            contact_bits(oracle.contacts()),
            contact_bits(incr.contacts()),
            "step {step}: contact stream diverged"
        );
    }
}

#[test]
fn incremental_batch_matches_solo_bitwise() {
    let scenes: Vec<_> = (0..3)
        .map(|k| {
            let (sys, params) = rockfall(6 + 2 * k);
            (sys, params.with_assembly_reuse(AssemblyReuse::Incremental))
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
                rs.assembly, rb[i].assembly,
                "scene {i} step {step}: batch and solo reuse stats must agree"
            );
            assert_eq!(
                sys_bits(&solo.sys),
                sys_bits(batch.sys(i).expect("scene runs")),
                "scene {i} step {step}: batch trajectory diverged from solo"
            );
        }
    }
}

/// Both values of both knobs survive the codec: each pair is encoded once
/// set against the default, so a codec that dropped a field and restored
/// defaults fails on one of them.
#[test]
fn knobs_round_trip_through_checkpoint() {
    for (reuse, warm) in [
        (AssemblyReuse::Incremental, SolverWarmStart::PrevIterate),
        (AssemblyReuse::Recompute, SolverWarmStart::PrevStep),
    ] {
        let (sys, params) = rockfall(8);
        let params = params.with_assembly_reuse(reuse).with_warm_start(warm);
        let mut original = GpuPipeline::new(sys, params, k40());
        original.run(3);
        let text = SceneCheckpoint {
            state: original.scene_state(),
            taken_at_step: 3,
        }
        .encode();
        let decoded = SceneCheckpoint::decode(&text).expect("checkpoint decodes");
        assert_eq!(
            decoded.state.params.assembly_reuse, reuse,
            "the reuse knob must survive the codec"
        );
        assert_eq!(
            decoded.state.params.warm_start, warm,
            "the warm-start knob must survive the codec"
        );
        let mut restored = GpuPipeline::from_state(decoded.state, k40());
        for step in 0..4 {
            original.step();
            restored.step();
            assert_eq!(
                sys_bits(&original.sys),
                sys_bits(&restored.sys),
                "{reuse:?}/{warm:?}, step {step} after restore: trajectory diverged"
            );
        }
    }
}

#[test]
fn cpu_pipeline_ignores_the_knobs_bitwise() {
    let (sys, params) = rockfall(8);
    let mut plain = CpuPipeline::new(
        sys.clone(),
        params
            .clone()
            .with_assembly_reuse(AssemblyReuse::Recompute)
            .with_warm_start(SolverWarmStart::PrevStep),
    );
    let mut knobs = CpuPipeline::new(
        sys,
        params
            .with_assembly_reuse(AssemblyReuse::Incremental)
            .with_warm_start(SolverWarmStart::PrevIterate),
    );
    for step in 0..6 {
        plain.step();
        knobs.step();
        assert_eq!(
            sys_bits(&plain.sys),
            sys_bits(&knobs.sys),
            "step {step}: the serial reference must be knob-inert"
        );
    }
}

/// Fault-injected parity: a pinned open–close loop (forced extra
/// iterations under one standing plan) and an indefinite operator (rescue
/// solves, ladder descents) must leave Incremental bitwise equal to the
/// oracle — both runs armed identically.
mod faulted {
    use super::*;
    use dda_repro::simt::Fault;

    fn scenes(reuse: AssemblyReuse) -> Vec<(BlockSystem, DdaParams)> {
        (0..4)
            .map(|k| {
                let (sys, params) = rockfall(4 + k);
                (sys, params.with_assembly_reuse(reuse))
            })
            .collect()
    }

    fn assert_faulted_parity(fault: Fault, steps: usize) {
        const VICTIM: usize = 1;
        let dev_o = k40();
        dev_o.arm_fault(VICTIM, fault, usize::MAX);
        let mut oracle = SceneBatch::new(dev_o, scenes(AssemblyReuse::Recompute));

        let dev_i = k40();
        dev_i.arm_fault(VICTIM, fault, usize::MAX);
        let mut incr = SceneBatch::new(dev_i, scenes(AssemblyReuse::Incremental));

        for step in 0..steps {
            let ro = oracle.step();
            let ri = incr.step();
            for i in 0..4 {
                assert_eq!(
                    ro[i].oc_iterations, ri[i].oc_iterations,
                    "{fault:?} scene {i} step {step}"
                );
                assert_eq!(
                    ro[i].retries, ri[i].retries,
                    "{fault:?} scene {i} step {step}"
                );
                match (oracle.sys(i), incr.sys(i)) {
                    (Some(a), Some(b)) => assert_eq!(
                        sys_bits(a),
                        sys_bits(b),
                        "{fault:?} scene {i} step {step}: trajectory diverged"
                    ),
                    (a, b) => assert_eq!(
                        a.is_some(),
                        b.is_some(),
                        "{fault:?} scene {i} step {step}: lifecycle diverged"
                    ),
                }
            }
        }
        for i in 0..4 {
            assert_eq!(
                oracle.health(i).state,
                incr.health(i).state,
                "{fault:?} scene {i}: health must agree"
            );
        }
    }

    #[test]
    fn ocpin_churn_keeps_bitwise_parity() {
        assert_faulted_parity(Fault::OcPin, 6);
    }

    #[test]
    fn indefinite_operator_rescues_keep_bitwise_parity() {
        assert_faulted_parity(Fault::IndefiniteOperator, 6);
    }

    #[test]
    fn warm_started_ladder_descent_is_deterministic() {
        // Two identical warm-started runs under an indefinite operator:
        // descents cold-start deterministically, so the runs must be
        // bitwise identical to each other.
        let mk = || {
            let dev = k40();
            dev.arm_fault(0, Fault::IndefiniteOperator, usize::MAX);
            let scenes: Vec<_> = (0..2)
                .map(|k| {
                    let (sys, params) = rockfall(5 + k);
                    (
                        sys,
                        params
                            .with_assembly_reuse(AssemblyReuse::Incremental)
                            .with_warm_start(SolverWarmStart::PrevIterate),
                    )
                })
                .collect();
            SceneBatch::new(dev, scenes)
        };
        let mut a = mk();
        let mut b = mk();
        for step in 0..6 {
            a.step();
            b.step();
            for i in 0..2 {
                match (a.sys(i), b.sys(i)) {
                    (Some(x), Some(y)) => assert_eq!(
                        sys_bits(x),
                        sys_bits(y),
                        "scene {i} step {step}: repeat run diverged"
                    ),
                    (x, y) => assert_eq!(x.is_some(), y.is_some()),
                }
            }
        }
    }
}
