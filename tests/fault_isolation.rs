//! Fault-isolation suite.
//!
//! The tentpole contract of the scene lifecycle: a poisoned scene is
//! detected, degraded, and quarantined by the batched runtime, while every
//! batch-mate's trajectory stays **bit-identical** to an unpoisoned run of
//! the same fleet. Each test drives one injected failure mode end to end
//! through `SceneBatch` using the deterministic device injector.
//!
//! The solo pipeline runs the same step engine as a one-scene batch
//! (segment 0), so the same hooks reach it: the `solo_*` tests pin that a
//! faulted `GpuPipeline::try_step` returns the structured error with
//! nothing committed.

use dda_repro::core::pipeline::{system_fingerprint, GpuPipeline, SceneBatch};
use dda_repro::core::{BlockSystem, DdaParams, HealthPolicy, SlotState, StepError};
use dda_repro::simt::{Device, DeviceProfile, Fault};
use dda_repro::workloads::{rockfall_fleet, FleetConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn fleet(n: usize) -> Vec<(BlockSystem, DdaParams)> {
    rockfall_fleet(&FleetConfig::default().with_scenes(n).with_rocks(3))
}

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

/// Runs the poisoned fleet against an unpoisoned baseline and asserts the
/// isolation contract: `poison` quarantines, survivors stay bit-identical.
fn assert_isolated(fault: Fault, steps: usize) {
    const N: usize = 8;
    const POISON: usize = 3;

    let mut baseline = SceneBatch::new(k40(), fleet(N));
    baseline.run(steps);

    let dev = k40();
    dev.arm_fault(POISON, fault, usize::MAX);
    let mut poisoned = SceneBatch::new(dev, fleet(N));
    let init = snapshot(&poisoned, POISON);
    poisoned.run(steps);

    // The poisoned scene is quarantined within the retry budget...
    let h = poisoned.health(POISON);
    assert_eq!(
        h.state,
        SlotState::Quarantined,
        "poisoned scene must quarantine (health: {h:?})"
    );
    let latency = h.quarantined_at_step.expect("quarantine records its step");
    assert!(
        latency as usize <= poisoned.policy().retry_budget + 1,
        "quarantine latency {latency} exceeds budget"
    );
    assert!(
        h.last_error.is_some(),
        "diagnostics must survive quarantine"
    );
    // ...frozen at its last accepted state (here: never accepted a step)...
    assert_eq!(
        snapshot(&poisoned, POISON),
        init,
        "faulted steps must not commit"
    );
    // ...and every survivor's trajectory is bitwise unchanged.
    for i in 0..N {
        if i == POISON {
            continue;
        }
        assert_eq!(
            poisoned.health(i).state,
            SlotState::Running,
            "survivor {i} must stay healthy"
        );
        assert_eq!(poisoned.health(i).total_faults, 0);
        assert_eq!(
            snapshot(&poisoned, i),
            snapshot(&baseline, i),
            "survivor {i} trajectory diverged from the unpoisoned run"
        );
    }
}

#[test]
fn nan_rhs_quarantines_scene_and_isolates_survivors() {
    assert_isolated(Fault::NanRhs, 6);
}

#[test]
fn pcg_breakdown_quarantines_scene_and_isolates_survivors() {
    assert_isolated(Fault::IndefiniteOperator, 6);
}

#[test]
fn nan_rhs_reports_structured_error() {
    let dev = k40();
    dev.arm_fault(0, Fault::NanRhs, usize::MAX);
    let mut batch = SceneBatch::new(dev, fleet(2));
    batch.step();
    match batch.health(0).last_error {
        Some(StepError::NonFiniteRhs { oc_iteration }) => {
            assert_eq!(oc_iteration, 1, "poison lands on the first assembly")
        }
        other => panic!("expected NonFiniteRhs, got {other:?}"),
    }
    assert_eq!(batch.health(0).state, SlotState::Degraded);
    assert_eq!(batch.health(0).consecutive_failures, 1);
}

#[test]
fn breakdown_reports_solver_error_after_failed_rescue() {
    let dev = k40();
    dev.arm_fault(0, Fault::IndefiniteOperator, usize::MAX);
    let mut batch = SceneBatch::new(dev, fleet(2));
    batch.step();
    match batch.health(0).last_error {
        Some(StepError::SolverBreakdown { .. }) => {}
        other => panic!("expected SolverBreakdown, got {other:?}"),
    }
}

#[test]
fn transient_fault_recovers_without_quarantine() {
    // One poisoned step, then clean input again: the scene degrades, backs
    // off Δt, and is promoted back to Running by its next committed step.
    let dev = k40();
    dev.arm_fault(1, Fault::NanRhs, 1);
    let mut batch = SceneBatch::new(dev, fleet(3));
    let dt0 = batch.params(1).expect("live scene").dt;
    batch.step();
    assert_eq!(batch.health(1).state, SlotState::Degraded);
    assert!(
        batch.params(1).expect("live scene").dt < dt0,
        "fault must back off Δt"
    );
    batch.step();
    assert_eq!(batch.health(1).state, SlotState::Running);
    assert_eq!(batch.health(1).consecutive_failures, 0);
    assert_eq!(batch.health(1).total_faults, 1, "history is preserved");
}

#[test]
fn pinned_open_close_loop_trips_stall_detector() {
    let dev = k40();
    dev.arm_fault(0, Fault::OcPin, usize::MAX);
    let mut batch = SceneBatch::new(dev, fleet(2)).with_policy(HealthPolicy {
        retry_budget: 1,
        oc_stall_limit: 2,
        divergence_factor: 1e4,
    });
    // Dirty steps accumulate the stall streak, then faults drain the
    // (small) retry budget into quarantine.
    for _ in 0..6 {
        batch.step();
        if batch.health(0).state == SlotState::Quarantined {
            break;
        }
    }
    assert_eq!(batch.health(0).state, SlotState::Quarantined);
    match batch.health(0).last_error {
        Some(StepError::OcStalled { streak }) => assert!(streak >= 2),
        other => panic!("expected OcStalled, got {other:?}"),
    }
    // The batch-mate kept stepping normally throughout.
    assert_eq!(batch.health(1).state, SlotState::Running);
    assert_eq!(batch.health(1).total_faults, 0);
}

#[test]
fn quarantined_slot_can_be_retired_and_reused() {
    let dev = k40();
    dev.arm_fault(0, Fault::NanRhs, usize::MAX);
    let mut batch = SceneBatch::new(dev, fleet(2));
    batch.run(6);
    assert_eq!(batch.health(0).state, SlotState::Quarantined);
    // Post-mortem: retire the quarantined slot, admit a fresh scene into
    // it, and disarm the injector — the batch is healthy again.
    let corpse = batch.retire(0).expect("quarantined slot still holds state");
    assert!(!corpse.blocks.is_empty());
    batch.device().disarm_faults();
    let (sys, params) = fleet(3).pop().expect("fleet is non-empty");
    assert_eq!(batch.admit(sys, params), 0, "retired slot is reused");
    batch.step();
    assert_eq!(batch.health(0).state, SlotState::Running);
    assert!(batch.health(0).consecutive_failures == 0);
}

/// A solo pipeline on an armable device, three healthy steps in.
fn warmed_solo() -> GpuPipeline {
    let (sys, params) = fleet(1).pop().expect("fleet is non-empty");
    let mut pipe = GpuPipeline::new(sys, params, k40());
    pipe.run(3);
    pipe
}

/// Everything a committed step may change, bit for bit.
fn committed_state(pipe: &GpuPipeline) -> (u64, u64, Vec<u64>, usize) {
    let st = pipe.scene_state();
    (
        system_fingerprint(&pipe.sys),
        pipe.params.dt.to_bits(),
        st.x_prev.iter().map(|x| x.to_bits()).collect(),
        st.contacts.len(),
    )
}

#[test]
fn solo_nan_rhs_returns_err_and_commits_nothing() {
    let mut pipe = warmed_solo();
    let before = committed_state(&pipe);
    let contacts = pipe.contacts().to_vec();
    pipe.device().arm_fault(0, Fault::NanRhs, 1);
    match pipe.try_step() {
        Err(StepError::NonFiniteRhs { oc_iteration }) => assert_eq!(oc_iteration, 1),
        other => panic!("expected NonFiniteRhs, got {other:?}"),
    }
    assert_eq!(
        committed_state(&pipe),
        before,
        "a faulted step commits nothing"
    );
    assert_eq!(pipe.contacts(), contacts, "contact set must be untouched");
    // The injector is spent: the same step now goes through.
    assert!(pipe.try_step().is_ok());
}

#[test]
fn solo_oc_pin_retries_like_the_one_slot_batch() {
    let mut solo = warmed_solo();
    let mut batch = SceneBatch::new(k40(), fleet(1));
    batch.run(3);
    // Pin open–close for exactly one attempt's worth of iterations: the
    // first attempt is rejected, the Δt-cut retry converges and commits.
    let oc_budget = solo.params.oc_max_iters;
    solo.device().arm_fault(0, Fault::OcPin, oc_budget);
    batch.device().arm_fault(0, Fault::OcPin, oc_budget);
    let rs = solo.try_step().expect("the retry commits");
    let rb = batch.step();
    assert!(rs.retries >= 1, "the pinned attempt must force a Δt cut");
    assert_eq!(rs.retries, rb[0].retries);
    assert_eq!(rs.dt.to_bits(), rb[0].dt.to_bits());
    assert_eq!(
        system_fingerprint(&solo.sys),
        system_fingerprint(batch.sys(0).expect("live scene"))
    );
}

#[test]
fn solo_indefinite_operator_walks_the_ladder_to_its_last_rung() {
    let mut pipe = warmed_solo();
    let before = committed_state(&pipe);
    pipe.device()
        .arm_fault(0, Fault::IndefiniteOperator, usize::MAX);
    // Block-Jacobi breaks down, so does scalar Jacobi below it: the last
    // rung's breakdown is the step's error — its iterate is not a solution.
    match pipe.try_step() {
        Err(StepError::SolverBreakdown { .. }) => {}
        other => panic!("expected SolverBreakdown, got {other:?}"),
    }
    assert_eq!(
        pipe.fallback_solves(),
        1,
        "one solve left the configured rung"
    );
    assert_eq!(
        committed_state(&pipe),
        before,
        "a faulted step commits nothing"
    );

    // The one-slot batch sees the same descent and the same error.
    let dev = k40();
    let mut batch = SceneBatch::new(dev, fleet(1));
    batch.run(3);
    batch
        .device()
        .arm_fault(0, Fault::IndefiniteOperator, usize::MAX);
    batch.step();
    assert_eq!(batch.health(0).fallback_solves, 1);
    assert!(matches!(
        batch.health(0).last_error,
        Some(StepError::SolverBreakdown { .. })
    ));
}
