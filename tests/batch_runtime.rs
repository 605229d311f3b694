//! Integration tests for the batched multi-scene runtime and the step
//! drivers it shares with the solo pipelines.
//!
//! Two equivalence contracts are pinned here, at the umbrella-crate
//! surface downstream users see:
//!
//! * **CPU/GPU step parity** (property-style): over randomly perturbed
//!   rockfall scenes, the two pipelines run the same algorithm — same
//!   contact counts and states, same Δt-retry decisions, and trajectories
//!   that agree to reduction-order noise.
//! * **Batch equivalence**: `SceneBatch` is a scheduling change, not a
//!   physics change — each scene's trajectory and step reports must be
//!   *bit-identical* to stepping the same scene alone in a `GpuPipeline`,
//!   whichever preconditioner rung the scene was submitted with.

use dda_repro::core::contact::BroadPhaseMode;
use dda_repro::core::pipeline::{
    system_fingerprint, CpuPipeline, GpuPipeline, PrecondKind, SceneBatch,
};
use dda_repro::core::{BlockSystem, DdaParams, SlotState};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::workloads::{
    nan_contaminated_scene, rockfall_case, rockfall_fleet, scatter_case, FleetConfig,
    RockfallConfig, ScatterConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// CPU and GPU pipelines take identical decisions on random scenes:
    /// the backends differ in schedule (serial loops vs simulated kernels,
    /// fused PCG) but not in algorithm.
    #[test]
    fn cpu_and_gpu_steps_are_equivalent(
        rocks in 3u32..7,
        speed in 1.0f64..3.5,
        steps in 2u32..5,
    ) {
        let mut cfg = RockfallConfig::default().with_rocks(rocks as usize);
        cfg.initial_speed = speed;
        let (sys, params) = rockfall_case(&cfg);
        let mut cpu = CpuPipeline::new(sys.clone(), params.clone());
        let mut gpu = GpuPipeline::new(sys, params, k40());
        for step in 0..steps {
            let rc = cpu.step();
            let rg = gpu.step();
            prop_assert_eq!(rc.n_contacts, rg.n_contacts, "contacts at step {}", step);
            prop_assert_eq!(rc.oc_iterations, rg.oc_iterations, "oc iters at step {}", step);
            prop_assert_eq!(rc.retries, rg.retries, "retries at step {}", step);
            prop_assert_eq!(rc.dt.to_bits(), rg.dt.to_bits(), "dt at step {}", step);
            // Same contacts with the same state-machine outcome. The two
            // detectors may order the list differently (serial sweep vs
            // sorted search), so compare as multisets keyed by identity.
            let states = |contacts: &[dda_repro::core::contact::Contact]| {
                let mut v: Vec<_> = contacts
                    .iter()
                    .map(|c| (c.i, c.j, c.vertex, c.edge, c.vertex2, c.state as u8))
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(
                states(cpu.contacts()),
                states(gpu.contacts()),
                "contact states at step {}",
                step
            );
            // Trajectories agree to reduction-order noise.
            for (i, (bc, bg)) in cpu.sys.blocks.iter().zip(&gpu.sys.blocks).enumerate() {
                let drift = bc.centroid().dist(bg.centroid());
                prop_assert!(drift < 1e-6, "step {} block {}: drift {}", step, i, drift);
            }
        }
    }
}

/// Steps `scenes` under broad-phase `mode` solo and batched and asserts the
/// batch reproduces each scene's solo `GpuPipeline` trajectory bit for bit,
/// report for report, while issuing strictly fewer launches than the scenes
/// would separately. Returns the final fingerprints of the same scenes on
/// the serial driver and on the device driver.
fn assert_batch_matches_solos(
    scenes: &[(BlockSystem, DdaParams)],
    mode: BroadPhaseMode,
    steps: usize,
) -> (Vec<u64>, Vec<u64>) {
    let fleet = || -> Vec<_> {
        scenes
            .iter()
            .cloned()
            .map(|(sys, params)| (sys, params.with_broad_phase(mode)))
            .collect()
    };

    let mut solos: Vec<GpuPipeline> = fleet()
        .into_iter()
        .map(|(sys, params)| GpuPipeline::new(sys, params, k40()))
        .collect();
    let mut batch = SceneBatch::new(k40(), fleet());

    for step in 0..steps {
        let solo_reports: Vec<_> = solos.iter_mut().map(|p| p.step()).collect();
        let batch_reports = batch.step();
        let (launches_in, launches_out) = batch.last_step_launches();
        assert!(
            launches_out < launches_in,
            "step {step}: batching must reduce launches ({launches_out} vs {launches_in})"
        );
        for (i, (rs, rb)) in solo_reports.iter().zip(&batch_reports).enumerate() {
            assert_eq!(rs.n_contacts, rb.n_contacts, "scene {i} step {step}");
            assert_eq!(rs.oc_iterations, rb.oc_iterations, "scene {i} step {step}");
            assert_eq!(
                rs.pcg_iterations, rb.pcg_iterations,
                "scene {i} step {step}"
            );
            assert_eq!(rs.retries, rb.retries, "scene {i} step {step}");
            assert_eq!(rs.oc_converged, rb.oc_converged, "scene {i} step {step}");
            assert_eq!(rs.dt.to_bits(), rb.dt.to_bits(), "scene {i} step {step}");
        }
        for (i, solo) in solos.iter().enumerate() {
            let bsys = batch.sys(i).expect("live scene");
            for (j, (bs, bb)) in solo.sys.blocks.iter().zip(&bsys.blocks).enumerate() {
                let (cs, cb) = (bs.centroid(), bb.centroid());
                assert_eq!(
                    cs.x.to_bits(),
                    cb.x.to_bits(),
                    "scene {i} block {j} centroid.x at step {step}"
                );
                assert_eq!(
                    cs.y.to_bits(),
                    cb.y.to_bits(),
                    "scene {i} block {j} centroid.y at step {step}"
                );
                for dof in 0..6 {
                    assert_eq!(
                        bs.velocity[dof].to_bits(),
                        bb.velocity[dof].to_bits(),
                        "scene {i} block {j} dof {dof} at step {step}"
                    );
                }
            }
        }
    }
    let serial = fleet()
        .into_iter()
        .map(|(sys, params)| {
            let mut cpu = CpuPipeline::new(sys, params);
            cpu.run(steps);
            system_fingerprint(&cpu.sys)
        })
        .collect();
    let device = solos.iter().map(|p| system_fingerprint(&p.sys)).collect();
    (serial, device)
}

/// Batch == solo under both broad-phase modes, and the mode is invisible
/// to the physics: the cached grid decides *when* a pair is found, never
/// what is computed, so the device and (being bitwise the device) batched
/// trajectories are the all-pairs ones bit for bit, and so are the serial
/// pipeline's, which always sweeps all pairs. Identical grid-mode scenes
/// still merge their launches.
///
/// Two fleets: small rockfalls, where every pair shares the two giant
/// fixed blocks' cells, and scattered fields of 64 and 200 blocks with
/// O(1) neighbours each, where binning, the neighbour sweep and the
/// cache's revalidation on movement decide which pairs are seen at all.
#[test]
fn scene_batch_matches_solo_pipelines_bitwise() {
    let rockfalls = rockfall_fleet(&FleetConfig::default().with_scenes(3).with_rocks(4));
    let fields = [64, 200].map(|n| scatter_case(&ScatterConfig::default().with_rocks(n)));
    for (scenes, steps) in [(&rockfalls[..], 4), (&fields[..], 3)] {
        let all_pairs = assert_batch_matches_solos(scenes, BroadPhaseMode::AllPairs, steps);
        assert_eq!(
            assert_batch_matches_solos(scenes, BroadPhaseMode::GridCached, steps),
            all_pairs,
            "GridCached perturbed the physics"
        );
    }

    let [_, (sys, params)] = fields;
    let twin = (sys, params.with_broad_phase(BroadPhaseMode::GridCached));
    let mut twins = SceneBatch::new(k40(), vec![twin; 4]);
    twins.run(2);
    let (launches_in, launches_out) = twins.last_step_launches();
    assert!(
        3 * launches_out < launches_in,
        "four identical grid-mode scenes must merge: {launches_in} -> {launches_out}"
    );
}

/// A batch honours each scene's configured preconditioner: one scene per
/// `PrecondKind`, stepped together, is bitwise the six solo runs — state,
/// PCG iteration counts and the rung that carried the step. (The batched
/// solve used to run Block-Jacobi whatever the scene asked for.)
#[test]
fn mixed_preconditioner_batch_matches_solo_pipelines_bitwise() {
    const KINDS: [PrecondKind; 6] = [
        PrecondKind::None,
        PrecondKind::BlockJacobi,
        PrecondKind::SsorAi,
        PrecondKind::Ilu0,
        PrecondKind::Jacobi,
        PrecondKind::HubSchur,
    ];
    let scenes: Vec<_> = rockfall_fleet(&FleetConfig::default().with_scenes(6).with_rocks(4))
        .into_iter()
        .zip(KINDS)
        .map(|((sys, params), kind)| (sys, params.with_precond(kind)))
        .collect();
    let mut solos: Vec<GpuPipeline> = scenes
        .iter()
        .cloned()
        .map(|(sys, params)| GpuPipeline::new(sys, params, k40()))
        .collect();
    let mut batch = SceneBatch::new(k40(), scenes);
    let mut iterations = [0; 6];
    for step in 0..4 {
        let rb = batch.step();
        for (i, solo) in solos.iter_mut().enumerate() {
            let rs = solo.step();
            let kind = KINDS[i];
            assert_eq!(
                rs.pcg_iterations, rb[i].pcg_iterations,
                "{kind:?} step {step}"
            );
            assert_eq!(rs.fallback_rung, kind, "{kind:?} step {step}: solo rung");
            assert_eq!(
                rb[i].fallback_rung, kind,
                "{kind:?} step {step}: batch rung"
            );
            assert_eq!(rb[i].fallback_level, 0, "{kind:?} step {step}");
            assert_eq!(
                system_fingerprint(&solo.sys),
                system_fingerprint(batch.sys(i).expect("live scene")),
                "{kind:?} step {step}: state"
            );
            iterations[i] += rs.pcg_iterations;
        }
    }
    // The rungs really differ: plain CG needs more iterations than ILU(0),
    // and Block-Jacobi more than the hub rung.
    assert!(
        iterations[0] > iterations[3],
        "None {} vs ILU0 {}",
        iterations[0],
        iterations[3]
    );
    assert!(
        iterations[1] > iterations[5],
        "BJ {} vs BJ+hub {}",
        iterations[1],
        iterations[5]
    );
}

/// A zero ILU(0) pivot on one slot descends that scene's own ladder
/// (ILU0 → SSOR-AI) inside the batch exactly as it does solo, and the
/// batch-mates never notice.
#[test]
fn ilu0_zero_pivot_descends_in_a_batch_as_it_does_solo() {
    use dda_repro::simt::Fault;
    const VICTIM: usize = 1;
    let scenes: Vec<_> = rockfall_fleet(&FleetConfig::default().with_scenes(3).with_rocks(4))
        .into_iter()
        .enumerate()
        .map(|(i, (sys, params))| match i {
            VICTIM => (sys, params.with_precond(PrecondKind::Ilu0)),
            _ => (sys, params),
        })
        .collect();

    let solo_dev = k40();
    solo_dev.arm_fault(0, Fault::IluZeroPivot, usize::MAX);
    let (sys, params) = scenes[VICTIM].clone();
    let mut solo = GpuPipeline::new(sys, params, solo_dev);

    let mut unarmed = SceneBatch::new(k40(), scenes.clone());
    let dev = k40();
    dev.arm_fault(VICTIM, Fault::IluZeroPivot, usize::MAX);
    let mut batch = SceneBatch::new(dev, scenes);

    for step in 0..4 {
        let rs = solo.step();
        let rb = batch.step();
        unarmed.step();
        assert_eq!(rs.fallback_level, 1, "step {step}: one rung down, solo");
        assert_eq!(rb[VICTIM].fallback_level, 1, "step {step}: one rung down");
        assert_eq!(rb[VICTIM].fallback_rung, PrecondKind::SsorAi, "step {step}");
        assert_eq!(rs.fallback_rung, PrecondKind::SsorAi, "step {step}");
        assert_eq!(rs.pcg_iterations, rb[VICTIM].pcg_iterations, "step {step}");
        assert_eq!(
            system_fingerprint(&solo.sys),
            system_fingerprint(batch.sys(VICTIM).expect("live scene")),
            "step {step}: the descended scene matches its solo run"
        );
        for mate in [0, 2] {
            assert_eq!(rb[mate].fallback_level, 0, "step {step} mate {mate}");
            assert_eq!(batch.health(mate).state, SlotState::Running);
            assert_eq!(
                system_fingerprint(batch.sys(mate).expect("live scene")),
                system_fingerprint(unarmed.sys(mate).expect("live scene")),
                "step {step}: batch-mate {mate} diverged from the unarmed run"
            );
        }
    }
    assert_eq!(batch.health(VICTIM).state, SlotState::Degraded);
    assert_eq!(
        batch.health(VICTIM).total_faults,
        0,
        "a descent is not a fault"
    );
    assert_eq!(batch.health(VICTIM).fallback_solves, solo.fallback_solves());
    assert!(solo.fallback_solves() >= 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Lifecycle churn is invisible to bystanders: random interleavings of
    /// admit / retire / poisoned-admission (which degrades into quarantine
    /// on its own — no injection feature needed) across many steps keep
    /// every continuing scene bit-identical to a solo pipeline started at
    /// its admission step.
    #[test]
    fn random_lifecycle_interleavings_keep_scenes_bitwise(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = rockfall_fleet(&FleetConfig::default().with_scenes(6).with_rocks(3));
        let mut batch = SceneBatch::new(k40(), pool[0..2].to_vec());
        // One solo mirror per slot holding a healthy scene; poisoned slots
        // and freed slots carry no mirror.
        let mut mirrors: Vec<Option<GpuPipeline>> = pool[0..2]
            .iter()
            .cloned()
            .map(|(sys, params)| Some(GpuPipeline::new(sys, params, k40())))
            .collect();
        let mut next = 2;
        let set_mirror = |mirrors: &mut Vec<Option<GpuPipeline>>, i: usize, m: Option<GpuPipeline>| {
            if i == mirrors.len() {
                mirrors.push(m);
            } else {
                mirrors[i] = m;
            }
        };
        for step in 0..10 {
            match rng.gen_range(0..5) {
                0 if next < pool.len() => {
                    let (sys, params) = pool[next].clone();
                    next += 1;
                    let i = batch.admit(sys.clone(), params.clone());
                    set_mirror(&mut mirrors, i, Some(GpuPipeline::new(sys, params, k40())));
                }
                1 => {
                    let live: Vec<usize> = (0..batch.n_scenes())
                        .filter(|&i| batch.health(i).is_stepping())
                        .collect();
                    if !live.is_empty() {
                        let i = live[rng.gen_range(0..live.len())];
                        batch.retire(i);
                        mirrors[i] = None;
                    }
                }
                2 => {
                    let (sys, params) = nan_contaminated_scene(3, 1);
                    let i = batch.admit(sys, params);
                    set_mirror(&mut mirrors, i, None);
                }
                _ => {}
            }
            batch.step();
            for m in mirrors.iter_mut().flatten() {
                m.step();
            }
            for (i, m) in mirrors.iter().enumerate() {
                let Some(m) = m else { continue };
                prop_assert_eq!(
                    batch.health(i).state,
                    SlotState::Running,
                    "healthy scene {} degraded at step {} (seed {})",
                    i,
                    step,
                    seed
                );
                let bsys = batch.sys(i).expect("running scene holds its system");
                for (j, (bs, bb)) in m.sys.blocks.iter().zip(&bsys.blocks).enumerate() {
                    let (cs, cb) = (bs.centroid(), bb.centroid());
                    prop_assert_eq!(cs.x.to_bits(), cb.x.to_bits(), "scene {} block {}", i, j);
                    prop_assert_eq!(cs.y.to_bits(), cb.y.to_bits(), "scene {} block {}", i, j);
                    for dof in 0..6 {
                        prop_assert_eq!(
                            bs.velocity[dof].to_bits(),
                            bb.velocity[dof].to_bits(),
                            "scene {} block {} dof {}",
                            i,
                            j,
                            dof
                        );
                    }
                }
            }
        }
    }
}
