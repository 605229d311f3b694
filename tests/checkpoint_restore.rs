//! Integration tests for checkpoint/restore at the umbrella-crate surface.
//!
//! The contract pinned here: a [`SceneCheckpoint`] is a *complete* capture
//! of a pipeline's resumable state. Encoding it to text, dropping the
//! original world, decoding on a fresh device, and continuing must produce
//! trajectories bit-identical to the uninterrupted run — on the CPU
//! pipeline, on the GPU pipeline, and across the batch↔solo boundary
//! (a state captured from a `SceneBatch` slot resumes in a solo
//! `GpuPipeline`, and vice versa). Derived solver caches are deliberately
//! excluded from the capture: they rebuild deterministically and only
//! shift modeled-time attribution, never trajectory values — so the tests
//! compare state bits, not modeled seconds.

use dda_repro::core::pipeline::{
    CpuPipeline, GpuPipeline, PrecondKind, SceneBatch, SceneCheckpoint,
};
use dda_repro::core::{BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::solver::SolverPrecision;
use dda_repro::workloads::{rockfall_case, slope_case, RockfallConfig, SlopeConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn scene(rocks: usize, speed: f64) -> (BlockSystem, DdaParams) {
    let mut cfg = RockfallConfig::default().with_rocks(rocks);
    cfg.initial_speed = speed;
    rockfall_case(&cfg)
}

/// Every trajectory-bearing bit of the two systems must agree exactly.
fn assert_sys_bits_eq(a: &BlockSystem, b: &BlockSystem, what: &str) {
    assert_eq!(a.blocks.len(), b.blocks.len(), "{what}: block count");
    for (i, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        let (cx, cy) = (x.centroid(), y.centroid());
        assert_eq!(
            cx.x.to_bits(),
            cy.x.to_bits(),
            "{what}: block {i} centroid x"
        );
        assert_eq!(
            cx.y.to_bits(),
            cy.y.to_bits(),
            "{what}: block {i} centroid y"
        );
        for dof in 0..6 {
            assert_eq!(
                x.velocity[dof].to_bits(),
                y.velocity[dof].to_bits(),
                "{what}: block {i} velocity dof {dof}"
            );
        }
        for k in 0..3 {
            assert_eq!(
                x.stress[k].to_bits(),
                y.stress[k].to_bits(),
                "{what}: block {i} stress {k}"
            );
        }
    }
}

#[test]
fn cpu_pipeline_round_trips_through_a_checkpoint() {
    let (sys, params) = scene(3, 2.0);
    let mut original = CpuPipeline::new(sys, params);
    original.run(3);

    let text = SceneCheckpoint {
        state: original.scene_state(),
        taken_at_step: 3,
    }
    .encode();
    // Simulate process death: only `text` survives.
    let decoded = SceneCheckpoint::decode(&text).expect("checkpoint decodes");
    assert_eq!(decoded.taken_at_step, 3);
    let mut restored = CpuPipeline::from_state(decoded.state);

    for step in 0..4 {
        let ro = original.step();
        let rr = restored.step();
        assert_eq!(ro.dt.to_bits(), rr.dt.to_bits(), "dt at step {step}");
        assert_eq!(ro.n_contacts, rr.n_contacts, "contacts at step {step}");
        assert_eq!(ro.retries, rr.retries, "retries at step {step}");
    }
    assert_sys_bits_eq(
        &original.scene_state().sys,
        &restored.scene_state().sys,
        "cpu restore",
    );
}

#[test]
fn gpu_pipeline_round_trips_through_a_checkpoint() {
    let (sys, params) = scene(4, 2.5);
    let mut original = GpuPipeline::new(sys, params, k40());
    original.run(3);

    let text = SceneCheckpoint {
        state: original.scene_state(),
        taken_at_step: 3,
    }
    .encode();
    let decoded = SceneCheckpoint::decode(&text).expect("checkpoint decodes");
    // A fresh device: the restored world shares nothing with the original.
    let mut restored = GpuPipeline::from_state(decoded.state, k40());

    for step in 0..4 {
        let ro = original.step();
        let rr = restored.step();
        assert_eq!(ro.dt.to_bits(), rr.dt.to_bits(), "dt at step {step}");
        assert_eq!(ro.n_contacts, rr.n_contacts, "contacts at step {step}");
        assert_eq!(
            ro.oc_iterations, rr.oc_iterations,
            "oc iterations at step {step}"
        );
    }
    assert_sys_bits_eq(
        &original.scene_state().sys,
        &restored.scene_state().sys,
        "gpu restore",
    );
}

#[test]
fn batch_slot_checkpoint_resumes_in_a_solo_pipeline() {
    let (sys, params) = scene(3, 1.5);
    let mut batch = SceneBatch::empty(k40());
    batch.admit(sys, params);
    batch.run(3);

    let text = SceneCheckpoint {
        state: batch.scene_state(0).expect("live slot"),
        taken_at_step: 3,
    }
    .encode();
    let decoded = SceneCheckpoint::decode(&text).expect("checkpoint decodes");
    let mut solo = GpuPipeline::from_state(decoded.state, k40());

    batch.run(4);
    solo.run(4);
    assert_sys_bits_eq(
        batch.sys(0).expect("live slot"),
        &solo.scene_state().sys,
        "batch slot -> solo",
    );
}

#[test]
fn solo_checkpoint_resumes_in_a_batch_slot() {
    let (sys, params) = scene(3, 3.0);
    let mut solo = GpuPipeline::new(sys, params, k40());
    solo.run(3);

    let text = SceneCheckpoint {
        state: solo.scene_state(),
        taken_at_step: 3,
    }
    .encode();
    let decoded = SceneCheckpoint::decode(&text).expect("checkpoint decodes");
    let mut batch = SceneBatch::empty(k40());
    let slot = batch.admit_state(decoded.state);

    solo.run(4);
    batch.run(4);
    assert_sys_bits_eq(
        &solo.scene_state().sys,
        batch.sys(slot).expect("live slot"),
        "solo -> batch slot",
    );
}

#[test]
fn checkpoint_text_is_stable_under_re_encode() {
    let (sys, params) = scene(3, 2.0);
    let mut p = GpuPipeline::new(sys, params, k40());
    p.run(2);
    let ck = SceneCheckpoint {
        state: p.scene_state(),
        taken_at_step: 2,
    };
    let text = ck.encode();
    let again = SceneCheckpoint::decode(&text).expect("decodes").encode();
    assert_eq!(text, again, "decode∘encode must be the identity on text");
}

/// The scene codec round-trips the default hub rung (wire tag 6), and the
/// resumed rockfall continues bitwise on it.
#[test]
fn checkpoint_round_trips_the_hub_rung() {
    let (sys, params) = rockfall_case(&RockfallConfig::default().with_rocks(12));
    assert_eq!(params.precond, PrecondKind::HubSchur);
    let mut p = GpuPipeline::new(sys, params, k40());
    p.run(3);
    let text = SceneCheckpoint {
        state: p.scene_state(),
        taken_at_step: 3,
    }
    .encode();
    let decoded = SceneCheckpoint::decode(&text).expect("codec must round-trip");
    assert_eq!(decoded.state.params.precond, PrecondKind::HubSchur);
    let mut resumed = GpuPipeline::from_state(decoded.state, k40());
    for _ in 0..3 {
        let (ra, rb) = (p.step(), resumed.step());
        assert_eq!(ra.fallback_rung, PrecondKind::HubSchur);
        assert_eq!(
            (ra.pcg_iterations, ra.n_contacts),
            (rb.pcg_iterations, rb.n_contacts)
        );
    }
    assert_sys_bits_eq(&p.sys, &resumed.sys, "resumed rockfall");
}

/// The scene codec round-trips the configured preconditioner rung and the
/// (inert) precision tag, and the resumed scene continues bitwise.
#[test]
fn checkpoint_round_trips_precond_and_precision() {
    let (sys, params) = slope_case(&SlopeConfig::default().with_target_blocks(60));
    let params = DdaParams {
        precision: SolverPrecision::Mixed,
        ..params.with_precond(PrecondKind::Ilu0)
    };
    let mut p = GpuPipeline::new(sys, params, k40());
    p.step();
    let ck = SceneCheckpoint {
        state: p.scene_state(),
        taken_at_step: 1,
    };
    let decoded = SceneCheckpoint::decode(&ck.encode()).expect("codec must round-trip");
    assert_eq!(decoded.state.params.precond, PrecondKind::Ilu0);
    assert_eq!(decoded.state.params.precision, SolverPrecision::Mixed);

    let mut resumed = GpuPipeline::from_state(decoded.state, k40());
    let ra = p.step();
    let rb = resumed.step();
    assert_eq!(ra.n_contacts, rb.n_contacts);
    assert_sys_bits_eq(&p.sys, &resumed.sys, "resumed slope");
}
