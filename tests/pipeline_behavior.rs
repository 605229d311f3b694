//! Behavioural tests of the pipeline drivers: contact-state machinery
//! across step boundaries, the C1…C5 classification report, Δt
//! adaptation, and the per-phase accounting of the device trace.

use dda_repro::core::contact::ContactState;
use dda_repro::core::pipeline::{CpuPipeline, GpuPipeline, Phase};
use dda_repro::core::{Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial};
use dda_repro::geom::Polygon;
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::workloads::{
    rockfall_case, scatter_case, slope_case, RockfallConfig, ScatterConfig, SlopeConfig,
};

fn floor_and_slider() -> (BlockSystem, DdaParams) {
    let mut sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-50.0, -1.0, 50.0, 0.0), 0).fixed(),
            Block::new(Polygon::rect(0.0, 0.0, 1.0, 1.0), 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(20.0),
    );
    sys.blocks[1].velocity[0] = 2.0;
    let mut params = DdaParams::for_model(1.0, 5e9);
    params.dt = 2e-3;
    params.dt_max = 2e-3;
    (sys, params)
}

/// Regression for the slide-direction transfer bug: a steadily sliding
/// contact must keep a consistent sliding direction across *step*
/// boundaries (transfer carries `slide_dir` with the edge ratio), so the
/// friction force cannot flip sign with numerical noise.
#[test]
fn slide_direction_persists_across_steps() {
    let (sys, params) = floor_and_slider();
    let mut pipe = CpuPipeline::new(sys, params);
    // Let the contact settle into steady sliding.
    for _ in 0..5 {
        pipe.step();
    }
    let dirs: Vec<f64> = pipe
        .contacts()
        .iter()
        .filter(|c| c.state == ContactState::Slide)
        .map(|c| c.slide_dir)
        .collect();
    assert!(!dirs.is_empty(), "slider must have sliding contacts");
    assert!(
        dirs.iter().all(|&d| d == dirs[0] && d != 0.0),
        "sliding direction must be consistent and nonzero: {dirs:?}"
    );
    // And remain so across further steps.
    pipe.step();
    for c in pipe.contacts() {
        if c.state == ContactState::Slide {
            assert_eq!(c.slide_dir, dirs[0], "direction flipped across a step");
        }
    }
}

/// The shear reference (edge ratio) tracks the slid position across steps
/// instead of snapping back to the vertex projection.
#[test]
fn shear_reference_transfers_across_steps() {
    let (sys, params) = floor_and_slider();
    let mut pipe = CpuPipeline::new(sys, params);
    pipe.step();
    let r0: Vec<f64> = pipe.contacts().iter().map(|c| c.edge_ratio).collect();
    for _ in 0..4 {
        pipe.step();
    }
    let r1: Vec<f64> = pipe.contacts().iter().map(|c| c.edge_ratio).collect();
    // The block slides +x along the floor's top edge (stored right-to-left,
    // so the ratio decreases); what matters is monotone drift, not a reset.
    assert_eq!(r0.len(), r1.len());
    for (a, b) in r0.iter().zip(&r1) {
        assert!(
            (a - b).abs() > 1e-6,
            "reference should have slipped with the block: {a} vs {b}"
        );
    }
}

/// The GPU pipeline's C1…C5 report: on the first step of a fresh system
/// contacts have just closed (C1/C4 dominate); once settled, unchanged
/// closed contacts (C3/C5) dominate.
#[test]
fn contact_categories_evolve_as_the_paper_describes() {
    let sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
            Block::new(Polygon::rect(-1.0, 0.0, 0.0, 1.0), 0),
            Block::new(Polygon::rect(0.0, 0.0, 1.0, 1.0), 0),
            Block::new(Polygon::rect(-0.5, 1.0, 0.5, 2.0), 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    let params = DdaParams::for_model(1.0, 5e9).static_analysis();
    let mut pipe = GpuPipeline::new(sys, params, Device::new(DeviceProfile::tesla_k40()));

    let first = pipe.step();
    let newly_closed = first.categories[1] + first.categories[4];
    assert!(
        newly_closed > 0,
        "first step must report C1/C4 switches: {:?}",
        first.categories
    );

    for _ in 0..4 {
        pipe.step();
    }
    let settled = pipe.step();
    let unchanged = settled.categories[3] + settled.categories[5];
    let switched = settled.categories[1] + settled.categories[2] + settled.categories[4];
    assert!(
        unchanged > switched,
        "settled system should be dominated by unchanged closed contacts: {:?}",
        settled.categories
    );
}

/// Δt recovers toward its maximum after a successful step.
#[test]
fn dt_recovers_after_reduction() {
    let (sys, mut params) = floor_and_slider();
    params.dt_max = 2e-3;
    params.dt = 2e-3;
    let mut pipe = CpuPipeline::new(sys, params);
    // Force a reduction by hand (as a failed step would).
    pipe.params.reduce_dt();
    let reduced = pipe.params.dt;
    assert!(reduced < 2e-3);
    for _ in 0..12 {
        pipe.step();
    }
    assert!(
        pipe.params.dt > reduced,
        "dt should recover: {} from {reduced}",
        pipe.params.dt
    );
}

/// A stable resting stack keeps a stable contact set: the same keys are
/// re-detected and transferred every step (no churn in the contact
/// network).
#[test]
fn contact_set_stable_on_resting_stack() {
    let sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
            Block::new(Polygon::rect(-0.5, 0.0, 0.5, 1.0), 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    let params = DdaParams::for_model(1.0, 5e9).static_analysis();
    let mut pipe = CpuPipeline::new(sys, params);
    pipe.step();
    let keys0: Vec<u64> = pipe.contacts().iter().map(|c| c.key()).collect();
    for _ in 0..4 {
        pipe.step();
    }
    let keys1: Vec<u64> = pipe.contacts().iter().map(|c| c.key()).collect();
    assert_eq!(keys0, keys1, "resting contact network must not churn");
    // All closed after settling.
    assert!(pipe.contacts().iter().all(|c| c.state.closed()));
}

/// GPU and CPU pipelines adapt Δt identically (the loop-2 control is part
/// of the algorithm, not the backend).
#[test]
fn dt_control_matches_between_backends() {
    let (sys, params) = floor_and_slider();
    let mut cpu = CpuPipeline::new(sys.clone(), params.clone());
    let mut gpu = GpuPipeline::new(sys, params, Device::new(DeviceProfile::tesla_k40()));
    for step in 0..4 {
        let rc = cpu.step();
        let rg = gpu.step();
        assert_eq!(rc.retries, rg.retries, "step {step}");
        assert!((rc.dt - rg.dt).abs() < 1e-15, "step {step}");
    }
}

/// Loop 3's acceptance criterion in numbers: the accepted solution leaves
/// no open contact penetrating beyond the numerical-noise scale.
#[test]
fn open_contacts_do_not_penetrate_after_convergence() {
    let (sys, params) = floor_and_slider();
    let tol = 1e-4 * params.max_displacement;
    let mut pipe = CpuPipeline::new(sys, params);
    for step in 0..6 {
        let r = pipe.step();
        assert!(
            r.max_open_penetration < 10.0 * tol,
            "step {step}: open-contact penetration {} (tol {tol})",
            r.max_open_penetration
        );
    }
}

/// Every launch of a GPU step is tagged with its phase, and a phase's
/// tagged records add up to what the step reports charged that module.
/// The two sums are not associated alike (per batch region, then per step
/// against record by record), so they agree to 1e-12 relative, not bit for
/// bit.
#[test]
fn tagged_launches_add_up_to_the_reported_phase_times() {
    for (sys, params) in [
        slope_case(&SlopeConfig::default().with_target_blocks(60)),
        rockfall_case(&RockfallConfig::default().with_rocks(40)),
        scatter_case(&ScatterConfig::default().with_rocks(420)),
    ] {
        let mut pipe = GpuPipeline::new(sys, params, Device::new(DeviceProfile::tesla_k40()));
        let reports = pipe.run(4);
        let trace = pipe.device().trace();
        assert!(trace.records.iter().all(|r| !r.phase.is_empty()));
        for phase in Phase::ALL {
            let tagged = trace.records.iter().filter(|r| r.phase == phase.tag());
            let by_trace: f64 = tagged.map(|r| r.seconds).sum();
            let by_report: f64 = reports.iter().map(|r| r.phase_times[phase]).sum();
            assert!(by_trace > 0.0, "{phase:?}: no modeled time");
            assert!(
                (by_trace - by_report).abs() <= 1e-12 * by_report,
                "{phase:?}: {by_trace} by trace, {by_report} reported"
            );
        }
    }
}
