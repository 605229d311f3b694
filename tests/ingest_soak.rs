//! Soak test for the ingestion layer (`#[ignore]`d so it only runs in the
//! dedicated CI soak job:
//! `cargo test --release --test ingest_soak -- --ignored`).
//!
//! ~1000 scenes are pushed through an 8-slot [`BatchScheduler`] in two
//! halves:
//!
//! * **churn** — open-loop traffic with NaN-poisoned scenes, a 25% mix
//!   of scattered sparse fields running the grid + cache broad phase,
//!   admission deadlines, and periodic device-level fault injection
//!   against random slots. The scheduler must never panic, never grow the queue past its
//!   bound, and leave every ticket in a structured terminal state. A fleet
//!   checkpoint taken mid-churn must survive the text codec exactly.
//! * **bitwise** — injection disarmed (poisoned traffic still flows);
//!   sampled healthy scenes that complete must match a solo
//!   [`GpuPipeline`] run of the same submission bit for bit, proving the
//!   whole intake/admit/rebalance machinery never perturbs physics.

use dda_repro::core::pipeline::{FleetCheckpoint, GpuPipeline};
use dda_repro::core::{BatchScheduler, IngestConfig, SceneStatus, SceneSubmission, Ticket};
use dda_repro::simt::{Device, DeviceProfile, Fault};
use dda_repro::workloads::{OpenLoopTraffic, TrafficConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn cfg() -> IngestConfig {
    IngestConfig {
        max_slots: 8,
        queue_capacity: 32,
        rebalance_watermark: 0.4,
        ..IngestConfig::default()
    }
}

/// Every ticket must be terminal; returns (completed, shed, refused).
fn audit(sched: &BatchScheduler) -> (usize, usize, usize) {
    let (mut completed, mut shed, mut refused) = (0, 0, 0);
    for (ticket, rec) in sched.records() {
        match rec.status {
            SceneStatus::Completed => completed += 1,
            SceneStatus::Shed { .. } => shed += 1,
            SceneStatus::Refused { .. } => refused += 1,
            other => panic!("ticket {ticket} ended non-terminal: {other:?}"),
        }
    }
    (completed, shed, refused)
}

#[test]
#[ignore = "soak: run explicitly in the CI soak job"]
fn thousand_scene_soak_with_fault_churn() {
    const SOAK_SCENES: u64 = 700;
    const BITWISE_SCENES: u64 = 300;
    const FAULTS: [Fault; 2] = [Fault::NanRhs, Fault::IndefiniteOperator];

    // ---- Half 1: churn. Poisoned traffic, deadlines, injected device
    // faults against a rotating slot.
    let mut sched = BatchScheduler::new(k40(), cfg());
    let churn = TrafficConfig {
        rocks: 2,
        run_steps_min: 2,
        run_steps_max: 4,
        nan_permille: 60,
        scatter_permille: 250,
        deadline_permille: 150,
        deadline_slack: 10,
        ..TrafficConfig::default()
    };
    let mut traffic = OpenLoopTraffic::new(1.2, churn.clone(), 0xDDA);
    let mut fleet_text: Option<String> = None;
    let mut tick = 0u64;
    while (traffic.emitted() < SOAK_SCENES || sched.in_flight() > 0) && tick < 40_000 {
        if traffic.emitted() < SOAK_SCENES {
            for sub in traffic.arrivals(sched.now()) {
                let _ = sched.try_submit(sub); // QueueFull is a valid outcome here
            }
        }
        if tick % 40 == 20 {
            let slot = (tick / 40) as usize % cfg().max_slots;
            let fault = FAULTS[(tick / 40) as usize % FAULTS.len()];
            sched.batch().device().arm_fault(slot, fault, 1);
        }
        sched.tick();
        if tick == 200 {
            // Mid-churn fleet snapshot must survive the codec exactly.
            let snap = sched.checkpoint_fleet();
            let text = snap.encode();
            let redecoded = FleetCheckpoint::decode(&text).expect("fleet snapshot decodes");
            assert_eq!(text, redecoded.encode(), "fleet codec must be text-stable");
            fleet_text = Some(text);
        }
        tick += 1;
    }
    sched.batch().device().disarm_faults();
    assert_eq!(sched.in_flight(), 0, "churn half must drain");
    assert!(
        fleet_text.is_some(),
        "soak must run long enough to snapshot"
    );
    let stats = sched.stats();
    assert!(
        stats.max_queue_len <= cfg().queue_capacity,
        "queue bound violated: {} > {}",
        stats.max_queue_len,
        cfg().queue_capacity
    );
    let (completed, shed, refused) = audit(&sched);
    assert!(
        completed > 0 && refused > 0,
        "churn must exercise both paths"
    );
    eprintln!(
        "soak churn: {} submitted, {completed} completed, {shed} shed, {refused} refused, \
         {} requeued, {} rebalances, max queue {}",
        stats.submitted, stats.requeued, stats.rebalances, stats.max_queue_len
    );

    // ---- Half 2: bitwise. No injection; sampled healthy completions must
    // match solo pipeline runs exactly.
    let mut sched = BatchScheduler::new(k40(), cfg());
    let calm = TrafficConfig {
        nan_permille: 40,
        deadline_permille: 0,
        ..churn
    };
    let mut traffic = OpenLoopTraffic::new(1.0, calm, 0xF1EE7);
    let mut samples: Vec<(Ticket, SceneSubmission)> = Vec::new();
    let mut tick = 0u64;
    while (traffic.emitted() < BITWISE_SCENES || sched.in_flight() > 0) && tick < 40_000 {
        if traffic.emitted() < BITWISE_SCENES {
            for sub in traffic.arrivals(sched.now()) {
                let healthy = !sub
                    .sys
                    .blocks
                    .iter()
                    .any(|b| b.velocity.iter().any(|v| v.is_nan()));
                let keep = healthy && samples.len() < 30 && traffic.emitted().is_multiple_of(7);
                let copy = keep.then(|| {
                    SceneSubmission::new(sub.sys.clone(), sub.params.clone(), sub.run_steps)
                });
                if let Ok(ticket) = sched.try_submit(sub) {
                    if let Some(c) = copy {
                        samples.push((ticket, c));
                    }
                }
            }
        }
        sched.tick();
        tick += 1;
    }
    assert_eq!(sched.in_flight(), 0, "bitwise half must drain");
    let (_, _, _) = audit(&sched);
    assert!(samples.len() >= 10, "need a meaningful bitwise sample");
    let mut verified = 0;
    for (ticket, sub) in samples {
        let rec = sched.status(ticket).expect("sampled ticket recorded");
        assert_eq!(
            rec.status,
            SceneStatus::Completed,
            "healthy sampled scene {ticket} must complete"
        );
        let batch_sys = rec
            .final_sys
            .as_ref()
            .expect("completed scenes keep final_sys");
        let mut solo = GpuPipeline::new(sub.sys, sub.params, k40());
        solo.run(sub.run_steps as usize);
        let solo_sys = solo.scene_state().sys;
        for (i, (a, b)) in batch_sys.blocks.iter().zip(&solo_sys.blocks).enumerate() {
            let (ca, cb) = (a.centroid(), b.centroid());
            assert_eq!(
                ca.x.to_bits(),
                cb.x.to_bits(),
                "ticket {ticket} block {i} x"
            );
            assert_eq!(
                ca.y.to_bits(),
                cb.y.to_bits(),
                "ticket {ticket} block {i} y"
            );
            for dof in 0..6 {
                assert_eq!(
                    a.velocity[dof].to_bits(),
                    b.velocity[dof].to_bits(),
                    "ticket {ticket} block {i} dof {dof}"
                );
            }
        }
        verified += 1;
    }
    eprintln!("soak bitwise: {verified} sampled survivors bit-identical to solo runs");
}
