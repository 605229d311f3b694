//! `ContactOrder` is a name every driver accepts and ignores: each one
//! walks the contact stream in pair-discovery order. The class-sorted
//! scheduler behind `ContactOrder::ClassSorted` is deleted, and the name
//! stays only for `benchmark/` and older checkpoints. This holds it inert:
//! on the serial pipeline, on the GPU pipeline under both assembly paths
//! (the deleted schedule used to reach the Fig 4 oracle's per-contact
//! threads) and in a batch slot, `ClassSorted` gives the `Discovery` state
//! and the `Discovery` modeled seconds per phase, bit for bit. The
//! step-by-step tests below hold the same per step: the contact stream and
//! the trajectory under every broad-phase mode, a `ClassSorted` batch
//! against its solo runs, a restored checkpoint that keeps the tag, and
//! the serial pipeline.
//!
//! `SolverPrecision` is the other such name: every solver runs fp64, and
//! `precision_is_inert_on_every_driver` holds `Mixed` to `Full` the same
//! way, with the cached broad phase's hit/rebuild counts on top.

use dda_repro::core::contact::{BroadPhaseMode, Contact, ContactOrder};
use dda_repro::core::pipeline::{
    system_fingerprint, CpuPipeline, GpuPipeline, ModuleTimes, Phase, SceneBatch, SceneCheckpoint,
};
use dda_repro::core::{AssemblyReuse, BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::solver::SolverPrecision;
use dda_repro::workloads::{rockfall_case, RockfallConfig};

const STEPS: usize = 8;

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
}

fn rockfall(rocks: usize) -> (BlockSystem, DdaParams) {
    rockfall_case(&RockfallConfig::default().with_rocks(rocks))
}

fn class_sorted(params: DdaParams) -> DdaParams {
    DdaParams {
        contact_order: ContactOrder::ClassSorted,
        ..params
    }
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

/// Contact identity and history in stored order, flattened.
fn contact_bits(contacts: &[Contact]) -> Vec<u64> {
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

/// The state fingerprint and the per-phase modeled seconds, as bits.
fn observed(sys: &BlockSystem, times: &ModuleTimes) -> (u64, [u64; 6]) {
    (
        system_fingerprint(sys),
        Phase::ALL.map(|p| times[p].to_bits()),
    )
}

#[test]
fn contact_order_is_inert_on_every_driver() {
    let (sys, params) = rockfall_case(&RockfallConfig::default().with_rocks(32));
    let with = |order: ContactOrder, reuse: AssemblyReuse| DdaParams {
        contact_order: order,
        ..params.clone().with_assembly_reuse(reuse)
    };
    let cpu = |order| {
        let mut pipe = CpuPipeline::new(sys.clone(), with(order, AssemblyReuse::default()));
        pipe.run(STEPS);
        observed(&pipe.sys, &pipe.times)
    };
    assert_eq!(
        cpu(ContactOrder::ClassSorted),
        cpu(ContactOrder::Discovery),
        "CpuPipeline"
    );

    for reuse in [AssemblyReuse::Incremental, AssemblyReuse::Recompute] {
        let gpu = |order| {
            let mut pipe = GpuPipeline::new(sys.clone(), with(order, reuse), k40());
            let reports = pipe.run(STEPS);
            assert!(
                reports.iter().any(|r| r.n_contacts > 64),
                "too few contacts to fill two warps"
            );
            assert_eq!(pipe.contact_order_stats(), (0, 0, 0), "{reuse:?}");
            observed(&pipe.sys, &pipe.times)
        };
        assert_eq!(
            gpu(ContactOrder::ClassSorted),
            gpu(ContactOrder::Discovery),
            "GpuPipeline, {reuse:?}"
        );

        // Slot 1 carries the setting under test beside a Discovery mate.
        let slot = |order| {
            let mate = (sys.clone(), with(ContactOrder::Discovery, reuse));
            let mut batch = SceneBatch::new(k40(), vec![mate, (sys.clone(), with(order, reuse))]);
            batch.run(STEPS);
            observed(
                batch.sys(1).expect("slot 1 runs"),
                batch.times(1).expect("slot 1 runs"),
            )
        };
        assert_eq!(
            slot(ContactOrder::ClassSorted),
            slot(ContactOrder::Discovery),
            "SceneBatch slot, {reuse:?}"
        );
    }
}

#[test]
fn precision_is_inert_on_every_driver() {
    let (sys, params) = rockfall_case(&RockfallConfig::default().with_rocks(32));
    let params = params.with_broad_phase(BroadPhaseMode::GridCached);
    let with = |precision: SolverPrecision| DdaParams {
        precision,
        ..params.clone()
    };
    let cpu = |precision| {
        let mut pipe = CpuPipeline::new(sys.clone(), with(precision));
        pipe.run(STEPS);
        observed(&pipe.sys, &pipe.times)
    };
    assert_eq!(
        cpu(SolverPrecision::Mixed),
        cpu(SolverPrecision::Full),
        "CpuPipeline"
    );

    let gpu = |precision| {
        let mut pipe = GpuPipeline::new(sys.clone(), with(precision), k40());
        let reports = pipe.run(STEPS);
        assert!(
            reports.iter().any(|r| r.n_contacts > 64),
            "too few contacts to fill two warps"
        );
        let cache = pipe.broad_cache_stats();
        assert!(cache.0 + cache.1 > 0, "the cached broad phase never ran");
        (observed(&pipe.sys, &pipe.times), cache)
    };
    assert_eq!(
        gpu(SolverPrecision::Mixed),
        gpu(SolverPrecision::Full),
        "GpuPipeline, GridCached"
    );

    // Slot 1 carries the setting under test beside a Full mate.
    let slot = |precision| {
        let mate = (sys.clone(), with(SolverPrecision::Full));
        let mut batch = SceneBatch::new(k40(), vec![mate, (sys.clone(), with(precision))]);
        batch.run(STEPS);
        observed(
            batch.sys(1).expect("slot 1 runs"),
            batch.times(1).expect("slot 1 runs"),
        )
    };
    assert_eq!(
        slot(SolverPrecision::Mixed),
        slot(SolverPrecision::Full),
        "SceneBatch slot"
    );
}

#[test]
fn class_sorted_is_bitwise_identical_across_broad_phase_modes() {
    for mode in [BroadPhaseMode::AllPairs, BroadPhaseMode::GridCached] {
        let (sys, params) = rockfall(14);
        let params = params.with_broad_phase(mode);
        let mut disc = GpuPipeline::new(sys.clone(), params.clone(), k40());
        let mut sorted = GpuPipeline::new(sys, class_sorted(params), k40());
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
        assert_eq!(sorted.contact_order_stats(), (0, 0, 0), "{mode:?}");
        assert_eq!(disc.contact_order_stats(), (0, 0, 0), "{mode:?}");
    }
}

#[test]
fn class_sorted_batch_matches_solo_bitwise() {
    let scenes: Vec<_> = (0..3)
        .map(|k| {
            let (sys, params) = rockfall(6 + 2 * k);
            (sys, class_sorted(params))
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
                contact_bits(solo.contacts()),
                contact_bits(batch.contacts(i).expect("scene runs")),
                "scene {i} step {step}: batch contact stream diverged from solo"
            );
            assert_eq!(
                sys_bits(&solo.sys),
                sys_bits(batch.sys(i).expect("scene runs")),
                "scene {i} step {step}: batch trajectory diverged from solo"
            );
        }
    }
}

#[test]
fn class_sorted_round_trips_through_checkpoint() {
    let (sys, params) = rockfall(8);
    let mut original = GpuPipeline::new(sys, class_sorted(params), k40());
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
        "the tag must survive the codec"
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
    let mut sorted = CpuPipeline::new(sys, class_sorted(params));
    for step in 0..6 {
        disc.step();
        sorted.step();
        assert_eq!(
            sys_bits(&disc.sys),
            sys_bits(&sorted.sys),
            "step {step}: the serial path must ignore the tag"
        );
    }
}
