//! Crash-durability and failover proofs for the multi-device fleet.
//!
//! Two families of tests:
//!
//! 1. **Crash at every boundary** — run a fleet to completion with WAL
//!    pruning off, then for *every* record boundary in the log (and a cut
//!    mid-record, modeling a torn write) copy that byte-prefix into a
//!    fresh directory, recover a brand-new fleet from it, drain, and
//!    assert that every scene the recovered fleet finishes carries the
//!    *exact* fingerprint the undisturbed run produced. No prefix may
//!    panic, lose an acked scene, or perturb a trajectory.
//!
//! 2. **Device death** — arm fail-stop and
//!    fail-silent deaths against one device of a heterogeneous fleet and
//!    assert detection latency (crash: one step; hang: the watchdog
//!    budget) and bit-identical outcomes versus the fault-free run.
//!
//! Both rest on the same invariant the batch runtime already proves:
//! kernels execute host-exact and trajectories are independent of batch
//! composition, so deterministic re-execution from a durable snapshot
//! reproduces the interrupted trajectory bit for bit.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use dda_repro::core::pipeline::wal::record_spans;
use dda_repro::core::pipeline::{
    FleetOutcome, FleetRouter, FleetSubmission, RouterConfig, SceneId, WalOutcome,
};
use dda_repro::core::{
    Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial, SceneSubmission,
};
use dda_repro::geom::Polygon;
use dda_repro::simt::{Device, DeviceProfile};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dda-fleet-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn scene(offset: f64) -> (BlockSystem, DdaParams) {
    let mut params = DdaParams::for_model(1.0, 5e9);
    params.dt = 0.002;
    params.dt_max = 0.002;
    let sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
            Block::new(Polygon::rect(-0.5 + offset, 0.005, 0.5 + offset, 1.005), 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    (sys, params)
}

fn submission(offset: f64, run_steps: u64, locality: u64) -> FleetSubmission {
    let (sys, params) = scene(offset);
    FleetSubmission {
        submission: SceneSubmission::new(sys, params, run_steps),
        locality,
    }
}

fn devices() -> Vec<Device> {
    vec![
        Device::new(DeviceProfile::tesla_k40()),
        Device::new(DeviceProfile::tesla_k20()),
    ]
}

fn config(dir: &Path) -> RouterConfig {
    let mut cfg = RouterConfig::new(dir);
    cfg.wal_snap_interval = 2;
    cfg.watchdog_ticks = 3;
    cfg.prune = false; // every prefix of the log must stay a recovery point
    cfg
}

/// The deterministic submission/tick schedule both the baseline and every
/// recovered run replay: two scenes up front, two more after two ticks,
/// then drain.
fn run_baseline(dir: &Path) -> BTreeMap<SceneId, FleetOutcome> {
    let mut r = FleetRouter::new(devices(), config(dir)).unwrap();
    r.submit(submission(0.0, 4, 0)).unwrap();
    r.submit(submission(0.3, 5, 1)).unwrap();
    for _ in 0..2 {
        r.tick().unwrap();
    }
    r.submit(submission(0.6, 4, 0)).unwrap();
    r.submit(submission(0.9, 6, 2)).unwrap();
    let ticks = r.drain(64).unwrap();
    assert!(ticks < 64, "baseline fleet must drain");
    let outs = r.outcomes();
    assert_eq!(outs.len(), 4);
    assert!(outs.values().all(|o| o.outcome == WalOutcome::Completed));
    outs
}

fn segment_index(path: &Path) -> u64 {
    path.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("wal-"))
        .and_then(|n| n.strip_suffix(".seg"))
        .and_then(|n| n.parse().ok())
        .expect("wal segment file name")
}

/// Copies the byte-prefix of `src`'s log ending at (`segment`, `offset`)
/// into a fresh directory: earlier segments whole, the cut segment
/// truncated, later segments absent — exactly what a crash at that point
/// leaves behind.
fn copy_prefix(src: &Path, segment: u64, offset: u64, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        let idx = segment_index(&p);
        if idx < segment {
            fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
        } else if idx == segment {
            let bytes = fs::read(&p).unwrap();
            fs::write(dst.join(p.file_name().unwrap()), &bytes[..offset as usize]).unwrap();
        }
    }
}

/// Recovers a fresh fleet from the log under `dir`, drains it, and checks
/// every outcome it reaches against the baseline fingerprints.
fn recover_and_check(dir: &Path, baseline: &BTreeMap<SceneId, FleetOutcome>, label: &str) {
    let mut r = FleetRouter::recover(devices(), config(dir)).unwrap();
    let ticks = r.drain(64).unwrap();
    assert!(ticks < 64, "{label}: recovered fleet must drain");
    assert_eq!(r.in_flight(), 0, "{label}: nothing may stay stranded");
    let outs = r.outcomes();
    assert!(!outs.is_empty() || baseline.is_empty() || label.ends_with("@0"));
    for (id, out) in &outs {
        let base = baseline
            .get(id)
            .unwrap_or_else(|| panic!("{label}: unknown scene {id}"));
        assert_eq!(
            out.fingerprint, base.fingerprint,
            "{label}: scene {id} diverged from the undisturbed trajectory"
        );
        assert_eq!(out.outcome, base.outcome, "{label}: scene {id} outcome");
    }
}

#[test]
fn crash_at_every_record_boundary_recovers_bit_identical() {
    let base_dir = temp_dir("boundary-base");
    let baseline = run_baseline(&base_dir);

    let spans = record_spans(&base_dir).unwrap();
    assert!(
        spans.len() >= 12,
        "schedule must produce a meaningful log, got {} records",
        spans.len()
    );

    for (k, span) in spans.iter().enumerate() {
        // Crash immediately after this record's bytes hit the log...
        let dst = temp_dir(&format!("boundary-cut-{k}"));
        copy_prefix(&base_dir, span.segment, span.end, &dst);
        recover_and_check(&dst, &baseline, &format!("boundary@{k}"));
        fs::remove_dir_all(&dst).unwrap();

        // ...and mid-record: a torn write the replay must discard.
        let mid = span.start + (span.end - span.start) / 2;
        let dst = temp_dir(&format!("torn-cut-{k}"));
        copy_prefix(&base_dir, span.segment, mid, &dst);
        recover_and_check(&dst, &baseline, &format!("torn@{k}"));
        fs::remove_dir_all(&dst).unwrap();
    }

    fs::remove_dir_all(&base_dir).unwrap();
}

#[test]
fn recovery_from_the_full_log_reproduces_every_outcome() {
    let base_dir = temp_dir("full-base");
    let baseline = run_baseline(&base_dir);
    // Recovery from the complete log: all four scenes are terminal in the
    // replay, so the recovered fleet starts with nothing in flight and
    // every outcome intact.
    let r = FleetRouter::recover(devices(), config(&base_dir)).unwrap();
    assert_eq!(r.in_flight(), 0);
    let outs = r.outcomes();
    assert_eq!(outs.len(), baseline.len());
    for (id, out) in &outs {
        assert_eq!(out.fingerprint, baseline[id].fingerprint);
    }
    fs::remove_dir_all(&base_dir).unwrap();
}

mod device_death {
    use super::*;
    use dda_repro::simt::DeathMode;

    fn hetero_devices() -> Vec<Device> {
        vec![
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k20()),
        ]
    }

    /// Runs the fixed four-scene schedule, optionally arming a device
    /// death before the first tick. Returns outcomes and the router for
    /// stats inspection.
    fn run(dir: &Path, arm: Option<(usize, DeathMode, usize)>) -> FleetRouter {
        let mut cfg = RouterConfig::new(dir);
        cfg.wal_snap_interval = 2;
        cfg.watchdog_ticks = 3;
        let mut r = FleetRouter::new(hetero_devices(), cfg).unwrap();
        r.submit(submission(0.0, 5, 0)).unwrap();
        r.submit(submission(0.3, 6, 1)).unwrap();
        r.submit(submission(0.6, 5, 2)).unwrap();
        r.submit(submission(0.9, 7, 3)).unwrap();
        if let Some((dev, mode, polls)) = arm {
            assert!(
                r.placements().values().any(|&d| d as usize == dev),
                "victim device must actually hold scenes"
            );
            r.device(dev).arm_device_death(mode, polls);
        }
        let ticks = r.drain(96).unwrap();
        assert!(ticks < 96, "fleet must drain");
        r
    }

    #[test]
    fn fail_stop_death_detected_in_one_step_and_bit_identical() {
        let base_dir = temp_dir("crash-base");
        let base = run(&base_dir, None);
        let base_outs = base.outcomes();
        assert_eq!(base_outs.len(), 4);

        let dir = temp_dir("crash-faulted");
        // Device 0 survives two step-boundary polls and crashes at the
        // third step boundary.
        let r = run(&dir, Some((0, DeathMode::Crash, 2)));
        assert_eq!(r.stats().recoveries, 1, "exactly one device death");
        assert!(r.stats().migrated >= 1, "its scenes must migrate");
        assert_eq!(
            r.stats().detection_latencies,
            vec![1],
            "fail-stop is detected at the next step boundary"
        );
        assert_eq!(r.n_alive(), 2);
        let outs = r.outcomes();
        assert_eq!(outs.len(), 4, "no scene may be lost to the crash");
        for (id, out) in &outs {
            assert_eq!(out.outcome, WalOutcome::Completed);
            assert_eq!(
                out.fingerprint, base_outs[id].fingerprint,
                "scene {id}: failover must be bit-identical"
            );
        }
        fs::remove_dir_all(&base_dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_silent_hang_detected_by_watchdog_and_bit_identical() {
        let base_dir = temp_dir("hang-base");
        let base = run(&base_dir, None);
        let base_outs = base.outcomes();

        let dir = temp_dir("hang-faulted");
        let r = run(&dir, Some((0, DeathMode::Hang, 2)));
        assert_eq!(r.stats().recoveries, 1);
        assert_eq!(
            r.stats().detection_latencies,
            vec![3],
            "fail-silent detection takes exactly the watchdog budget"
        );
        let outs = r.outcomes();
        assert_eq!(outs.len(), 4);
        for (id, out) in &outs {
            assert_eq!(
                out.fingerprint, base_outs[id].fingerprint,
                "scene {id}: watchdog failover must be bit-identical"
            );
        }
        fs::remove_dir_all(&base_dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unarmed_runs_are_undisturbed_by_the_liveness_machinery() {
        // The polls and watchdog bookkeeping must be invisible when no
        // death is armed: same outcomes as a run of the plain schedule.
        let a_dir = temp_dir("inert-a");
        let b_dir = temp_dir("inert-b");
        let a = run(&a_dir, None);
        let b = run(&b_dir, None);
        assert_eq!(a.stats().recoveries, 0);
        assert_eq!(a.outcomes(), b.outcomes());
        fs::remove_dir_all(&a_dir).unwrap();
        fs::remove_dir_all(&b_dir).unwrap();
    }
}
