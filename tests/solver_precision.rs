//! Mixed-precision solver suite.
//!
//! Contracts under test:
//!
//! 1. **Tolerance equivalence** — a `SolverPrecision::Mixed` run converges
//!    to the same trajectory as pure fp64 within the outer tolerance, on
//!    both paper workloads and on an adversarially stiff scene, while
//!    actually streaming the fp32 value arrays (the trace must show `.f32`
//!    kernels).
//! 2. **Precision never reaches the broad phase** — the displacement-bounded
//!    pair cache's slack accounting is geometric over fp64 state, so its
//!    hit/rebuild behaviour is identical under either precision mode.
//! 3. **Checkpoint fidelity** — the scene codec round-trips the configured
//!    preconditioner rung and precision mode.
//!
//! The `fault_paths` section adds the failure-path contracts: quarantine
//! parity between precisions, and the ILU0 → SSOR-AI ladder descent.

use dda_repro::core::pipeline::{GpuPipeline, PrecondKind, SceneCheckpoint};
use dda_repro::core::{BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::solver::SolverPrecision;
use dda_repro::workloads::{
    rockfall_case, slope_case, stiff_contrast_scene, RockfallConfig, SlopeConfig,
};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn small_slope() -> (BlockSystem, DdaParams) {
    slope_case(&SlopeConfig {
        target_blocks: 60,
        ..SlopeConfig::default()
    })
}

fn small_rockfall() -> (BlockSystem, DdaParams) {
    rockfall_case(&RockfallConfig {
        n_rocks: 12,
        ..RockfallConfig::default()
    })
}

/// Largest centroid coordinate difference between the two systems.
fn max_centroid_delta(a: &GpuPipeline, b: &GpuPipeline) -> f64 {
    let (sa, sb) = (a.scene_state(), b.scene_state());
    assert_eq!(sa.sys.blocks.len(), sb.sys.blocks.len());
    sa.sys
        .blocks
        .iter()
        .zip(&sb.sys.blocks)
        .map(|(x, y)| {
            let (cx, cy) = (x.centroid(), y.centroid());
            (cx.x - cy.x).abs().max((cx.y - cy.y).abs())
        })
        .fold(0.0, f64::max)
}

/// Runs the same scene under both precisions and checks trajectory
/// agreement plus the fp32-streaming evidence in the trace.
fn assert_tolerance_equivalent(make: fn() -> (BlockSystem, DdaParams), steps: usize, tol: f64) {
    let (sys, params) = make();
    let mut full = GpuPipeline::new(sys, params, k40());
    let (sys, params) = make();
    let mut mixed = GpuPipeline::new(sys, params, k40()).with_precision(SolverPrecision::Mixed);

    for _ in 0..steps {
        let rf = full.step();
        let rm = mixed.step();
        // Open–close *iteration counts* may differ: marginal contacts flip
        // with ~1e-7 solution deltas. The contract is the committed
        // trajectory, whose contact set must agree at solver tolerance.
        assert_eq!(
            rf.n_contacts, rm.n_contacts,
            "contact sets must agree at solver tolerance"
        );
    }

    let delta = max_centroid_delta(&full, &mixed);
    assert!(
        delta <= tol,
        "mixed trajectory drifted {delta:.3e} > {tol:.1e} from fp64"
    );

    let streams_f32 = |p: &GpuPipeline| {
        p.device()
            .trace()
            .records
            .iter()
            .any(|r| r.name.ends_with(".f32"))
    };
    assert!(
        streams_f32(&mixed),
        "mixed mode must stream the fp32 value arrays"
    );
    assert!(
        !streams_f32(&full),
        "fp64 mode must never touch the fp32 shadow"
    );
}

#[test]
fn mixed_matches_full_on_slope_workload() {
    assert_tolerance_equivalent(small_slope, 3, 1e-6);
}

#[test]
fn mixed_matches_full_on_rockfall_workload() {
    assert_tolerance_equivalent(small_rockfall, 3, 1e-6);
}

#[test]
fn mixed_survives_stiff_contrast_scene() {
    // 1e4 Young's-modulus contrast pushes the condition number well past
    // what fp32 alone could resolve; the outer fp64 refinement (or its
    // deterministic full-precision fallback) must still commit every step.
    let (sys, params) = stiff_contrast_scene(3, 1e4);
    let mut full = GpuPipeline::new(sys, params, k40());
    let (sys, params) = stiff_contrast_scene(3, 1e4);
    let mut mixed = GpuPipeline::new(sys, params, k40()).with_precision(SolverPrecision::Mixed);
    for _ in 0..4 {
        full.step();
        mixed.step();
    }
    let delta = max_centroid_delta(&full, &mixed);
    assert!(
        delta <= 1e-6,
        "stiff-scene mixed trajectory drifted {delta:.3e} from fp64"
    );
    for b in &mixed.scene_state().sys.blocks {
        let c = b.centroid();
        assert!(c.x.is_finite() && c.y.is_finite());
    }
}

/// The precision knob must stop at the equation solver: broad-phase
/// candidate generation, displacement bounds, and the pair cache's slack
/// accounting all run on fp64 geometry regardless of the mode, so the
/// cache's hit/rebuild counters are identical across precisions.
#[test]
fn broad_phase_cache_accounting_is_precision_independent() {
    use dda_repro::core::contact::grid::BroadPhaseMode;

    let run = |precision: SolverPrecision| {
        let (sys, params) = small_rockfall();
        let mut p = GpuPipeline::new(
            sys,
            params.with_broad_phase(BroadPhaseMode::GridCached),
            k40(),
        )
        .with_precision(precision);
        let contacts: Vec<usize> = (0..6).map(|_| p.step().n_contacts).collect();
        (p.broad_cache_stats(), contacts)
    };

    let (full_stats, full_contacts) = run(SolverPrecision::Full);
    let (mixed_stats, mixed_contacts) = run(SolverPrecision::Mixed);
    assert_eq!(
        full_stats, mixed_stats,
        "pair-cache hit/rebuild accounting must not depend on solver precision"
    );
    assert_eq!(full_contacts, mixed_contacts);
    assert!(
        full_stats.0 + full_stats.1 > 0,
        "the cached broad phase must actually have run"
    );
}

#[test]
fn checkpoint_round_trips_precond_and_precision() {
    let (sys, params) = small_slope();
    let mut p = GpuPipeline::new(
        sys,
        params
            .with_precond(PrecondKind::Ilu0)
            .with_precision(SolverPrecision::Mixed),
        k40(),
    );
    p.step();
    let ck = SceneCheckpoint {
        state: p.scene_state(),
        taken_at_step: 1,
    };
    let decoded = SceneCheckpoint::decode(&ck.encode()).expect("codec must round-trip");
    assert_eq!(decoded.state.params.precond, PrecondKind::Ilu0);
    assert_eq!(decoded.state.params.precision, SolverPrecision::Mixed);

    // The resumed scene continues bit-identically to the uncheckpointed one.
    let mut resumed = GpuPipeline::from_state(decoded.state, k40());
    let ra = p.step();
    let rb = resumed.step();
    assert_eq!(ra.n_contacts, rb.n_contacts);
    assert_eq!(
        max_centroid_delta(&p, &resumed),
        0.0,
        "resume must be bitwise"
    );
}

mod fault_paths {
    use super::*;
    use dda_repro::core::pipeline::SceneBatch;
    use dda_repro::core::{SlotState, StepError};
    use dda_repro::simt::Fault;
    use dda_repro::workloads::{rockfall_fleet, FleetConfig};

    /// Bitwise snapshot of every block's centroid and velocity in scene `i`.
    fn snapshot(batch: &SceneBatch, i: usize) -> Vec<u64> {
        let mut bits = Vec::new();
        for b in &batch.sys(i).expect("slot still holds its scene").blocks {
            let c = b.centroid();
            bits.push(c.x.to_bits());
            bits.push(c.y.to_bits());
            for dof in 0..6 {
                bits.push(b.velocity[dof].to_bits());
            }
        }
        bits
    }

    /// Runs a poisoned fleet under one precision and reports the poisoned
    /// scene's terminal health plus its frozen state.
    fn poisoned_outcome(precision: SolverPrecision) -> (u64, usize, String, Vec<u64>) {
        const POISON: usize = 1;
        let dev = k40();
        dev.arm_fault(POISON, Fault::IndefiniteOperator, usize::MAX);
        let scenes: Vec<_> = rockfall_fleet(&FleetConfig::default().with_scenes(4).with_rocks(3))
            .into_iter()
            .map(|(sys, params)| (sys, params.with_precision(precision)))
            .collect();
        let mut batch = SceneBatch::new(dev, scenes);
        batch.run(6);
        let h = batch.health(POISON);
        assert_eq!(
            h.state,
            SlotState::Quarantined,
            "indefinite operator must quarantine under {}",
            precision.name()
        );
        let err = match &h.last_error {
            Some(StepError::SolverBreakdown { .. }) => "solver-breakdown".to_string(),
            other => panic!("expected SolverBreakdown, got {other:?}"),
        };
        (
            h.quarantined_at_step.expect("quarantine records its step"),
            h.total_faults,
            err,
            snapshot(&batch, POISON),
        )
    }

    /// A breakdown inside the mixed inner loop triggers the deterministic
    /// pure-fp64 fallback, so the failure *schedule* — which step
    /// quarantines, how many faults accrue, which error is recorded, and
    /// the frozen state — is identical across precision modes.
    #[test]
    fn indefinite_operator_quarantines_identically_under_both_precisions() {
        let full = poisoned_outcome(SolverPrecision::Full);
        let mixed = poisoned_outcome(SolverPrecision::Mixed);
        assert_eq!(full.0, mixed.0, "quarantine step must match");
        assert_eq!(full.1, mixed.1, "fault counts must match");
        assert_eq!(full.2, mixed.2, "recorded error must match");
        assert_eq!(full.3, mixed.3, "frozen state must be bitwise identical");
    }

    /// A zero ILU(0) pivot is a *setup* failure, not a solve failure: the
    /// ILU0 rung reports `ZeroPivot` and the ladder descends to SSOR-AI
    /// without burning PCG iterations.
    #[test]
    fn ilu0_zero_pivot_falls_back_to_ssor_ai() {
        let dev = k40();
        dev.arm_fault(0, Fault::IluZeroPivot, usize::MAX);
        // A solo pipeline is segment 0 of a one-scene step.
        let (sys, params) = small_slope();
        let mut p = GpuPipeline::new(sys, params, dev).with_precond(PrecondKind::Ilu0);
        for step in 0..3 {
            let r = p.step();
            assert!(
                r.max_displacement.is_finite(),
                "step {step}: SSOR-AI must carry the step after ILU0 fails"
            );
            assert_eq!(
                r.fallback_level, 1,
                "step {step}: a zero pivot costs exactly one rung"
            );
            assert_eq!(
                r.fallback_rung,
                PrecondKind::SsorAi,
                "step {step}: the rung below ILU0 is SSOR-AI"
            );
        }
        assert!(p.fallback_solves() >= 3);
    }
}
