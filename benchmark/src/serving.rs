//! Ladder rungs of the serving layers — `core.pipeline.{batch, ingest,
//! wal}` and the checkpoint codec — each driven alone, from outside, with
//! scenes drawn from the same seeded churn traffic `fleet_churn` submits.
//! They run in every workload's traced run; on the solo workloads they
//! are the "no change expected" reference for a numerical-kernel change.

use crate::inputs::{churn_config, k40, FleetPlan};
use crate::ladder::Values;
use crate::stats::median;
use dda_core::pipeline::wal::record_spans;
use dda_core::pipeline::{
    FleetCheckpoint, GpuPipeline, SceneBatch, WalConfig, WalRecordKind, WalReplay, WalWriter,
};
use dda_core::{BatchScheduler, IngestConfig, SceneSubmission};
use dda_workloads::{OpenLoopTraffic, TrafficConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Root of every scratch directory the benchmark creates, relative to
/// the working directory (the checkout root).
const SCRATCH_ROOT: &str = "benchmark/target/bench-scratch";

/// A scratch directory under `benchmark/target/`, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// A fresh, not yet existing, process-unique path.
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Scratch { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave nothing behind once the last scratch directory is gone.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

fn traffic_cfg() -> TrafficConfig {
    churn_config().traffic
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `core.pipeline.batch`: eight traffic scenes stepped eight times as one
/// `SceneBatch`, against the same scenes as eight solo `GpuPipeline`s.
fn batch_rung(seed: u64, reps: usize, v: &mut Values) {
    const SCENES: usize = 8;
    const STEPS: usize = 8;
    let mut gen = OpenLoopTraffic::new(SCENES as f64, traffic_cfg(), seed);
    let subs: Vec<SceneSubmission> = gen.arrivals(0);
    let mut host_batch = Vec::new();
    let mut host_solo = Vec::new();
    let (mut mod_batch, mut mod_solo) = (0.0, 0.0);
    let (mut launches_in, mut launches_out) = (0u64, 0u64);
    for rep in 0..reps + 1 {
        let scenes = subs
            .iter()
            .map(|s| (s.sys.clone(), s.params.clone()))
            .collect();
        let mut batch = SceneBatch::new(k40(), scenes);
        let t = Instant::now();
        (launches_in, launches_out) = (0, 0);
        for _ in 0..STEPS {
            black_box(batch.step());
            let (i, o) = batch.last_step_launches();
            launches_in += i;
            launches_out += o;
        }
        let hb = ms_since(t);
        mod_batch = batch.device().modeled_seconds();

        let mut pipes: Vec<GpuPipeline> = subs
            .iter()
            .map(|s| GpuPipeline::new(s.sys.clone(), s.params.clone(), k40()))
            .collect();
        let t = Instant::now();
        for p in &mut pipes {
            for _ in 0..STEPS {
                black_box(p.step());
            }
        }
        let hs = ms_since(t);
        mod_solo = pipes.iter().map(|p| p.device().modeled_seconds()).sum();
        if rep > 0 {
            host_batch.push(hb);
            host_solo.push(hs);
        }
    }
    let hb = median(&host_batch);
    v.insert("batch.step_ms", hb / STEPS as f64);
    v.insert("batch.host_speedup_vs_solo", median(&host_solo) / hb);
    v.insert("batch.modeled_speedup_vs_solo", mod_solo / mod_batch);
    v.insert(
        "batch.launch_reduction",
        launches_in as f64 / (launches_out as f64).max(1.0),
    );
}

/// `core.pipeline.ingest`: the churn traffic's scene stream through a
/// bare `BatchScheduler` — no router, no WAL — plus the checkpoint codec
/// on the scenes it holds in flight. Returns the median-sized encoded
/// scene as the WAL rung's payload.
fn ingest_rung(seed: u64, plan: &FleetPlan, v: &mut Values) -> String {
    let rate = churn_config().rate;
    let mut gen = OpenLoopTraffic::new(rate, traffic_cfg(), seed);
    let mut sched = BatchScheduler::new(k40(), IngestConfig::default());
    let mut tick_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    for now in 0..plan.ladder_ticks {
        for sub in gen.arrivals(now) {
            let t = Instant::now();
            let _ = black_box(sched.try_submit(sub));
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        black_box(sched.tick());
        tick_ms.push(ms_since(t));
        if now % 8 == 4 {
            for (_, scene) in sched.snapshot_inflight() {
                let cp = FleetCheckpoint {
                    taken_at_step: now,
                    scenes: vec![scene],
                };
                let t = Instant::now();
                let text = black_box(cp.encode());
                encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let back = black_box(FleetCheckpoint::decode(&text));
                decode_us.push(t.elapsed().as_secs_f64() * 1e6);
                assert!(back.is_ok(), "codec round trip of an in-flight scene");
                texts.push(text);
            }
        }
    }
    sched.drain(1024);
    v.insert("ingest.tick_ms", median(&tick_ms));
    v.insert("ingest.submit_us", median(&submit_us));
    v.insert("codec.encode_us", median(&encode_us));
    v.insert("codec.decode_us", median(&decode_us));
    texts.sort_by_key(String::len);
    let mid = texts.swap_remove(texts.len() / 2);
    v.insert("codec.bytes_per_scene", mid.len() as f64);
    mid
}

/// `core.pipeline.wal`: a standalone `WalWriter` in a scratch directory,
/// appending the median-sized encoded scene as snapshot records, one sync
/// per four records; then the read path (which decodes every payload)
/// over the log it wrote.
fn wal_rung(payload: &str, reps: usize, v: &mut Values) {
    const RECORDS: u64 = 256;
    let scratch = Scratch::new("wal-ladder");
    let payload = payload.as_bytes();
    let mut append_us = Vec::new();
    let mut sync_ms = Vec::new();
    {
        let mut w = WalWriter::create(WalConfig::new(scratch.path())).expect("scratch WAL opens");
        for i in 0..RECORDS {
            let t = Instant::now();
            w.append(WalRecordKind::Snap, i, 0, 0, payload)
                .expect("scratch WAL appends");
            append_us.push(t.elapsed().as_secs_f64() * 1e6);
            if i % 4 == 3 {
                let t = Instant::now();
                w.sync().expect("scratch WAL syncs");
                sync_ms.push(ms_since(t));
            }
        }
    }
    let mut replay_ms = Vec::new();
    let mut spans_ms = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let rp = black_box(WalReplay::load(scratch.path())).expect("scratch WAL replays");
        replay_ms.push(ms_since(t));
        assert_eq!(rp.records as u64, RECORDS, "replay must see every record");
        let t = Instant::now();
        let spans = black_box(record_spans(scratch.path())).expect("scratch WAL scans");
        spans_ms.push(ms_since(t));
        assert_eq!(spans.len() as u64, RECORDS);
    }
    v.insert("wal.append_us", median(&append_us));
    v.insert("wal.sync_ms_p50", median(&sync_ms));
    v.insert("wal.replay_ms", median(&replay_ms));
    v.insert("wal.record_spans_ms", median(&spans_ms));
}

/// All serving-layer rungs.
pub fn serving_ladder(seed: u64, plan: &FleetPlan) -> Values {
    let mut v = Values::new();
    batch_rung(seed, plan.ladder_reps, &mut v);
    let payload = ingest_rung(seed, plan, &mut v);
    wal_rung(&payload, plan.ladder_reps, &mut v);
    v
}
