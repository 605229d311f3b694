//! BENCH_4 generator: overload-safe scene ingestion under churn.
//!
//! Drives a [`dda_core::BatchScheduler`] (bounded intake queue, admission
//! control, occupancy rebalancing, checkpoint/restore) through four
//! phases on the Tesla K40 model:
//!
//! * **sustained** — closed-loop traffic holding 2× the slot count in
//!   flight, with a fraction of NaN-poisoned scenes churning the
//!   quarantine/requeue path: sustained completion throughput and
//!   p50/p99 admission latency;
//! * **overload** — open-loop traffic at 2× the measured drain rate,
//!   every submission carrying a deadline: shed rate and proof that the
//!   queue bound holds;
//! * **rebalance** — the same seeded churn twice, occupancy rebalancing
//!   on vs off: the modeled-time overhead of compaction (expected ≤ 5%,
//!   and typically *negative* — dead slots cost launch segments);
//! * **recovery** — checkpoint a mid-flight fleet, encode/decode/restore
//!   onto a fresh device, and verify the restored world completes with
//!   bit-identical final states: recovery latency in wall milliseconds.
//!
//! Writes `BENCH_4.json` into the current directory and prints it.
//!
//! Usage: `bench4 [--scenes N] [--rocks N] [--seed N]`

use std::time::Instant;

use dda_core::pipeline::FleetCheckpoint;
use dda_core::{BatchScheduler, IngestConfig, SceneStatus, SceneSubmission};
use dda_harness::Args;
use dda_simt::{Device, DeviceProfile};
use dda_workloads::{
    rockfall_fleet, ClosedLoopTraffic, FleetConfig, OpenLoopTraffic, TrafficConfig,
};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn traffic_cfg(rocks: usize) -> TrafficConfig {
    TrafficConfig {
        rocks,
        run_steps_min: 2,
        run_steps_max: 5,
        nan_permille: 50, // 5% of scenes fault on arrival and churn the requeue path
        ..TrafficConfig::default()
    }
}

/// Asserts every issued ticket reached a terminal state with a structured
/// reason and returns (completed, shed, refused).
fn audit_terminal(sched: &BatchScheduler) -> (u64, u64, u64) {
    let (mut completed, mut shed, mut refused) = (0u64, 0u64, 0u64);
    for (ticket, rec) in sched.records() {
        match rec.status {
            SceneStatus::Completed => completed += 1,
            SceneStatus::Shed { .. } => shed += 1,
            SceneStatus::Refused { .. } => refused += 1,
            other => panic!("scene {ticket} ended non-terminal: {other:?}"),
        }
    }
    (completed, shed, refused)
}

fn main() {
    let a = Args::parse_with(&["--scenes"], 0, 2, 0);
    let argv: Vec<String> = std::env::args().collect();
    let scenes = argv
        .iter()
        .position(|s| s == "--scenes")
        .and_then(|p| argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(150u64);
    let cfg = IngestConfig {
        max_slots: 8,
        queue_capacity: 32,
        rebalance_watermark: 0.3,
        ..IngestConfig::default()
    };
    eprintln!(
        "bench4: scenes={scenes} rocks={} slots={} queue={} seed={} (K40 model)",
        a.rocks, cfg.max_slots, cfg.queue_capacity, a.seed
    );

    // ---- Phase A: sustained closed-loop churn.
    let mut sched = BatchScheduler::new(k40(), cfg);
    let mut traffic = ClosedLoopTraffic::new(2 * cfg.max_slots, traffic_cfg(a.rocks), a.seed);
    let bound = (scenes as usize) * 40 + 200;
    let t = Instant::now();
    let mut ticks_a = 0usize;
    while (traffic.emitted() < scenes || sched.in_flight() > 0) && ticks_a < bound {
        if traffic.emitted() < scenes {
            for sub in traffic.arrivals(sched.now(), sched.in_flight()) {
                sched
                    .try_submit(sub)
                    .expect("closed loop stays within the bound");
            }
        }
        sched.tick();
        ticks_a += 1;
    }
    let wall_a = t.elapsed().as_secs_f64();
    assert_eq!(sched.in_flight(), 0, "sustained phase must drain");
    let (completed_a, shed_a, refused_a) = audit_terminal(&sched);
    let stats_a = sched.stats().clone();
    assert!(
        stats_a.max_queue_len <= cfg.queue_capacity,
        "queue bound violated: {} > {}",
        stats_a.max_queue_len,
        cfg.queue_capacity
    );
    let modeled_a = sched.batch().device().modeled_seconds();
    let throughput = completed_a as f64 / modeled_a;
    let p50 = stats_a.admission_latency_percentile(50.0).unwrap_or(0);
    let p99 = stats_a.admission_latency_percentile(99.0).unwrap_or(0);
    let drain_rate = completed_a as f64 / ticks_a as f64; // scenes per tick
    eprintln!(
        "  sustained: {completed_a} completed / {refused_a} refused in {ticks_a} ticks \
         | {throughput:.1} scenes/modeled-s | admission p50={p50} p99={p99} ticks \
         | {} rebalances",
        stats_a.rebalances
    );

    // ---- Phase B: open-loop overload at 2x the measured drain rate,
    // every submission deadlined.
    let mut sched_b = BatchScheduler::new(k40(), cfg);
    let overload_cfg = TrafficConfig {
        deadline_permille: 1000,
        deadline_slack: 12,
        ..traffic_cfg(a.rocks)
    };
    let mut overload = OpenLoopTraffic::new(2.0 * drain_rate, overload_cfg, a.seed + 1);
    let mut attempted = 0u64;
    let mut rejected_at_submit = 0u64;
    let overload_ticks = 300usize;
    for _ in 0..overload_ticks {
        for sub in overload.arrivals(sched_b.now()) {
            attempted += 1;
            if sched_b.try_submit(sub).is_err() {
                rejected_at_submit += 1;
            }
        }
        sched_b.tick();
    }
    sched_b.drain(bound);
    assert_eq!(sched_b.in_flight(), 0, "overload phase must drain");
    let (completed_b, shed_b, refused_b) = audit_terminal(&sched_b);
    let stats_b = sched_b.stats().clone();
    assert!(
        stats_b.max_queue_len <= cfg.queue_capacity,
        "overload must not grow the queue past its bound"
    );
    let shed_rate = (shed_b + rejected_at_submit) as f64 / attempted.max(1) as f64;
    eprintln!(
        "  overload 2x: {attempted} offered | {completed_b} completed, {shed_b} shed, \
         {rejected_at_submit} rejected at submit, {refused_b} refused \
         | shed+rejected rate {:.1}% | max queue {}/{}",
        100.0 * shed_rate,
        stats_b.max_queue_len,
        cfg.queue_capacity
    );

    // ---- Phase C: rebalance overhead — identical seeded churn with
    // compaction enabled vs disabled (watermark > 1 never trips).
    let rebalance_run = |watermark: f64| -> (f64, u64, u64) {
        let mut s = BatchScheduler::new(
            k40(),
            IngestConfig {
                rebalance_watermark: watermark,
                ..cfg
            },
        );
        let mut tr = OpenLoopTraffic::new(drain_rate.min(1.0), traffic_cfg(a.rocks), a.seed + 2);
        for _ in 0..200 {
            for sub in tr.arrivals(s.now()) {
                let _ = s.try_submit(sub);
            }
            s.tick();
        }
        s.drain(bound);
        let (done, _, _) = audit_terminal(&s);
        (
            s.batch().device().modeled_seconds(),
            s.stats().rebalances,
            done,
        )
    };
    let (modeled_on, rebalances_on, done_on) = rebalance_run(0.3);
    let (modeled_off, rebalances_off, done_off) = rebalance_run(2.0);
    assert_eq!(rebalances_off, 0, "watermark 2.0 must never trip");
    assert_eq!(
        done_on, done_off,
        "rebalancing must not change which scenes complete"
    );
    let rebalance_overhead_pct = 100.0 * (modeled_on - modeled_off) / modeled_off;
    assert!(
        rebalance_overhead_pct <= 5.0,
        "rebalance overhead {rebalance_overhead_pct:.2}% exceeds the 5% budget"
    );
    eprintln!(
        "  rebalance: {rebalances_on} compactions | modeled {modeled_on:.6e} s vs {modeled_off:.6e} s off \
         | overhead {rebalance_overhead_pct:+.2}%"
    );

    // ---- Phase D: recovery-from-checkpoint latency.
    let mut sched_d = BatchScheduler::new(k40(), cfg);
    let fleet = rockfall_fleet(&FleetConfig::default().with_scenes(8).with_rocks(a.rocks));
    let mut tickets_d = Vec::new();
    for (sys, params) in fleet {
        tickets_d.push(
            sched_d
                .try_submit(SceneSubmission::new(sys, params, 12))
                .expect("queue has room"),
        );
    }
    for _ in 0..4 {
        sched_d.tick();
    }
    let t = Instant::now();
    let snapshot = sched_d.checkpoint_fleet();
    let text = snapshot.encode();
    let encode_ms = 1e3 * t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = FleetCheckpoint::decode(&text).expect("fleet checkpoint decodes");
    let (mut restored, tickets_r) = BatchScheduler::restore(k40(), cfg, decoded);
    let restore_ms = 1e3 * t.elapsed().as_secs_f64();
    sched_d.drain(bound);
    restored.drain(bound);
    let mut recovery_bit_identical = true;
    for (td, tr) in tickets_d.iter().zip(&tickets_r) {
        let (od, or) = (
            sched_d.status(*td).expect("known ticket"),
            restored.status(*tr).expect("known ticket"),
        );
        let (sd, sr) = (
            od.final_sys.as_ref().expect("completed"),
            or.final_sys.as_ref().expect("completed"),
        );
        for (x, y) in sd.blocks.iter().zip(&sr.blocks) {
            let (cx, cy) = (x.centroid(), y.centroid());
            if cx.x.to_bits() != cy.x.to_bits() || cx.y.to_bits() != cy.y.to_bits() {
                recovery_bit_identical = false;
            }
            for dof in 0..6 {
                if x.velocity[dof].to_bits() != y.velocity[dof].to_bits() {
                    recovery_bit_identical = false;
                }
            }
        }
    }
    assert!(
        recovery_bit_identical,
        "restored fleet diverged from the uninterrupted run"
    );
    eprintln!(
        "  recovery: checkpoint {} bytes | encode {encode_ms:.2} ms | decode+restore {restore_ms:.2} ms \
         | bit_identical={recovery_bit_identical}",
        text.len()
    );

    let json = format!(
        "{{\n  \"bench\": \"overload_safe_scene_ingestion\",\n  \"device\": \"tesla_k40_model\",\n  \
         \"config\": {{ \"scenes\": {scenes}, \"rocks\": {}, \"max_slots\": {}, \"queue_capacity\": {}, \"rebalance_watermark\": {}, \"nan_permille\": 50, \"seed\": {} }},\n  \
         \"units\": \"throughput = completed scenes per modeled device second; latencies in scheduler ticks; recovery in wall ms\",\n  \
         \"sustained\": {{ \"completed\": {completed_a}, \"refused\": {refused_a}, \"shed\": {shed_a}, \"requeued\": {}, \"ticks\": {ticks_a}, \"wall_s\": {wall_a:.6e}, \"modeled_s\": {modeled_a:.6e}, \"throughput_scenes_per_modeled_s\": {throughput:.3}, \"admission_p50_ticks\": {p50}, \"admission_p99_ticks\": {p99}, \"max_queue_len\": {}, \"rebalances\": {} }},\n  \
         \"overload_2x\": {{ \"offered\": {attempted}, \"completed\": {completed_b}, \"shed\": {shed_b}, \"rejected_at_submit\": {rejected_at_submit}, \"refused\": {refused_b}, \"shed_rate\": {shed_rate:.4}, \"max_queue_len\": {}, \"queue_bound_held\": true }},\n  \
         \"rebalance\": {{ \"compactions\": {rebalances_on}, \"modeled_s_on\": {modeled_on:.6e}, \"modeled_s_off\": {modeled_off:.6e}, \"overhead_pct\": {rebalance_overhead_pct:.3}, \"within_5pct_budget\": true }},\n  \
         \"recovery\": {{ \"checkpoint_bytes\": {}, \"encode_ms\": {encode_ms:.3}, \"restore_ms\": {restore_ms:.3}, \"bit_identical\": {recovery_bit_identical} }}\n}}\n",
        a.rocks,
        cfg.max_slots,
        cfg.queue_capacity,
        cfg.rebalance_watermark,
        a.seed,
        stats_a.requeued,
        stats_a.max_queue_len,
        stats_a.rebalances,
        stats_b.max_queue_len,
        text.len(),
    );

    print!("{json}");
    std::fs::write("BENCH_4.json", &json).expect("write BENCH_4.json");
    eprintln!("wrote BENCH_4.json");
}
