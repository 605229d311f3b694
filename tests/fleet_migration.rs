//! Exactly-once proofs for WAL-journaled live migration.
//!
//! Four families of tests:
//!
//! 1. **Crash at every migration boundary** — run a schedule whose skewed
//!    locality forces live migrations (the log carries `MigrateIntent`
//!    and `MigrateCommit` records), then for *every* record boundary and
//!    a torn cut mid-record, recover a fresh fleet from that byte-prefix
//!    and assert exactly one live copy of every scene and outcomes
//!    bit-identical to a migration-free run of the same submissions. An
//!    intent without a commit must roll forward deterministically — never
//!    fork, never vanish.
//!
//! 2. **Mid-protocol device kills** — arm a crash
//!    of the source or the destination at each phase boundary of an
//!    in-flight migration and prove the fleet recovers to the same
//!    fingerprints.
//!
//! 3. **Zombie fencing** — hang a device, let the
//!    watchdog migrate its scenes away, *revive* it, and prove its stale
//!    completions are fenced: exactly one terminal record per scene ever
//!    reaches the log.
//!
//! 4. **Recovery edge cases and WAL-fault degradation** — empty log
//!    directories, pruned-prefix logs, double recovery (idempotence), and
//!    injected WAL I/O failures that must park the router read-only
//!    instead of panicking.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use dda_repro::core::pipeline::wal::record_spans;
use dda_repro::core::pipeline::{
    FleetOutcome, FleetRouter, FleetSubmission, RouterConfig, SceneId, WalOutcome, WalRecordKind,
};
use dda_repro::core::{
    Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial, SceneSubmission,
};
use dda_repro::geom::Polygon;
use dda_repro::simt::{Device, DeviceProfile};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dda-fleet-migr-{tag}-{}", std::process::id()));
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
        Device::new(DeviceProfile::tesla_k40()),
    ]
}

/// Config whose rebalancer is aggressive enough that a shared locality
/// key forces live migrations within a few ticks. Pruning is off so every
/// byte-prefix of the log stays a valid recovery point.
fn config(dir: &Path, rebalance: bool) -> RouterConfig {
    let mut cfg = RouterConfig::new(dir);
    cfg.wal_snap_interval = 2;
    cfg.watchdog_ticks = 3;
    cfg.prune = false;
    cfg.rebalance.enabled = rebalance;
    cfg.rebalance.hysteresis = 0.1;
    cfg.rebalance.max_per_tick = 2;
    cfg.rebalance.cooldown_ticks = 2;
    cfg
}

/// The deterministic schedule both the migration run and the baseline
/// replay: six scenes, all on one locality key, so placement piles them
/// onto one device and the rebalancer has work to do.
fn run_schedule(dir: &Path, rebalance: bool) -> FleetRouter {
    let mut r = FleetRouter::new(devices(), config(dir, rebalance)).unwrap();
    for k in 0..6 {
        r.submit(submission(0.1 * k as f64, 6, 0)).unwrap();
    }
    let ticks = r.drain(128).unwrap();
    assert!(ticks < 128, "fleet must drain");
    r
}

/// Recovers a fleet from `dir`, asserts the exactly-once invariant (the
/// schedulers jointly hold each live scene exactly once), drains, and
/// checks every outcome against the baseline fingerprints.
fn recover_and_check(dir: &Path, baseline: &BTreeMap<SceneId, FleetOutcome>, label: &str) {
    let mut r = FleetRouter::recover(devices(), config(dir, true)).unwrap();
    let scheduler_copies: usize = (0..r.n_devices()).map(|i| r.scheduler(i).in_flight()).sum();
    assert_eq!(
        scheduler_copies,
        r.placements().len(),
        "{label}: a scene must live on exactly one device — no forks, no losses"
    );
    let ticks = r.drain(128).unwrap();
    assert!(ticks < 128, "{label}: recovered fleet must drain");
    assert_eq!(r.in_flight(), 0, "{label}: nothing may stay stranded");
    for (id, out) in &r.outcomes() {
        let base = baseline
            .get(id)
            .unwrap_or_else(|| panic!("{label}: unknown scene {id}"));
        assert_eq!(
            out.fingerprint, base.fingerprint,
            "{label}: scene {id} diverged from the migration-free trajectory"
        );
        assert_eq!(out.outcome, base.outcome, "{label}: scene {id} outcome");
    }
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
/// into a fresh directory — what a crash at that point leaves behind.
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

#[test]
fn crash_at_every_boundary_of_a_migration_bearing_log() {
    // Baseline: the same submissions with the rebalancer off — no
    // migration records, the reference trajectories.
    let base_dir = temp_dir("mig-boundary-base");
    let base = run_schedule(&base_dir, false);
    let baseline = base.outcomes();
    assert_eq!(baseline.len(), 6);
    assert!(baseline
        .values()
        .all(|o| o.outcome == WalOutcome::Completed));

    // Migration run: same submissions, rebalancer on, log kept whole.
    let mig_dir = temp_dir("mig-boundary-live");
    let live = run_schedule(&mig_dir, true);
    assert!(
        live.stats().rebalanced >= 1,
        "the skewed schedule must migrate at least once, got {:?}",
        live.stats()
    );
    for (id, out) in &live.outcomes() {
        assert_eq!(out.fingerprint, baseline[id].fingerprint);
    }

    let spans = record_spans(&mig_dir).unwrap();
    let n_intents = spans
        .iter()
        .filter(|s| s.kind == WalRecordKind::MigrateIntent)
        .count();
    let n_commits = spans
        .iter()
        .filter(|s| s.kind == WalRecordKind::MigrateCommit)
        .count();
    assert!(
        n_intents >= 1 && n_commits >= 1,
        "the log must actually carry the two-phase protocol \
         ({n_intents} intents, {n_commits} commits)"
    );

    // Kill the process at every record boundary — including right after
    // each MigrateIntent, where the handoff is half done — and mid-record.
    for (k, span) in spans.iter().enumerate() {
        let dst = temp_dir(&format!("mig-cut-{k}"));
        copy_prefix(&mig_dir, span.segment, span.end, &dst);
        recover_and_check(&dst, &baseline, &format!("boundary@{k}"));
        fs::remove_dir_all(&dst).unwrap();

        let mid = span.start + (span.end - span.start) / 2;
        let dst = temp_dir(&format!("mig-torn-{k}"));
        copy_prefix(&mig_dir, span.segment, mid, &dst);
        recover_and_check(&dst, &baseline, &format!("torn@{k}"));
        fs::remove_dir_all(&dst).unwrap();
    }

    fs::remove_dir_all(&base_dir).unwrap();
    fs::remove_dir_all(&mig_dir).unwrap();
}

#[test]
fn recover_from_empty_and_missing_wal_directories() {
    // A directory that does not exist yet: recovery finds nothing, and
    // the fleet is immediately usable.
    let dir = temp_dir("recover-missing");
    let mut r = FleetRouter::recover(devices(), config(&dir, true)).unwrap();
    assert_eq!(r.in_flight(), 0);
    assert!(r.outcomes().is_empty());
    let id = r.submit(submission(0.0, 3, 1)).unwrap();
    let ticks = r.drain(64).unwrap();
    assert!(ticks < 64);
    assert_eq!(r.outcomes()[&id].outcome, WalOutcome::Completed);
    fs::remove_dir_all(&dir).unwrap();

    // An existing but empty directory behaves the same.
    let dir = temp_dir("recover-empty");
    fs::create_dir_all(&dir).unwrap();
    let r = FleetRouter::recover(devices(), config(&dir, true)).unwrap();
    assert_eq!(r.in_flight(), 0);
    assert!(r.outcomes().is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_from_a_pruned_prefix_log() {
    // Small segments + pruning on: by the time the schedule drains, the
    // leading segments are gone and the log starts mid-sequence. Replay
    // must treat that as legal (only a *gap* is corruption) and recovery
    // must keep every outcome.
    let dir = temp_dir("recover-pruned");
    let mut cfg = RouterConfig::new(&dir);
    cfg.wal_snap_interval = 2;
    cfg.wal.segment_bytes = 1024;
    cfg.prune = true;
    let mut r = FleetRouter::new(devices(), cfg.clone()).unwrap();
    for k in 0..4 {
        r.submit(submission(0.1 * k as f64, 6, k)).unwrap();
    }
    let ticks = r.drain(128).unwrap();
    assert!(ticks < 128);
    let outcomes = r.outcomes();
    assert_eq!(outcomes.len(), 4);
    drop(r);
    let first_seg = fs::read_dir(&dir)
        .unwrap()
        .map(|e| segment_index(&e.unwrap().path()))
        .min()
        .unwrap();
    assert!(
        first_seg > 0,
        "the schedule must actually have pruned its prefix"
    );
    let rec = FleetRouter::recover(devices(), cfg).unwrap();
    assert_eq!(rec.in_flight(), 0);
    let rec_outs = rec.outcomes();
    assert_eq!(rec_outs.len(), 4);
    for (id, out) in &rec_outs {
        assert_eq!(out.fingerprint, outcomes[id].fingerprint);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_idempotent() {
    // Baseline for the final fingerprints.
    let base_dir = temp_dir("idem-base");
    let base = run_schedule(&base_dir, false);
    let baseline = base.outcomes();

    // Interrupt the same schedule after three ticks.
    let dir = temp_dir("idem-cut");
    let mut r = FleetRouter::new(devices(), config(&dir, false)).unwrap();
    for k in 0..6 {
        r.submit(submission(0.1 * k as f64, 6, 0)).unwrap();
    }
    for _ in 0..3 {
        r.tick().unwrap();
    }
    drop(r);

    // Recover twice in a row: the second recovery (over the log the first
    // one extended) must reconstruct the identical fleet.
    let first = FleetRouter::recover(devices(), config(&dir, false)).unwrap();
    let first_placements = first.placements().clone();
    let first_outcomes = first.outcomes();
    drop(first);
    let mut second = FleetRouter::recover(devices(), config(&dir, false)).unwrap();
    assert_eq!(
        *second.placements(),
        first_placements,
        "double recovery must not move scenes"
    );
    assert_eq!(second.outcomes(), first_outcomes);

    // And the twice-recovered fleet still finishes bit-identically.
    let ticks = second.drain(128).unwrap();
    assert!(ticks < 128);
    let outs = second.outcomes();
    assert_eq!(outs.len(), baseline.len());
    for (id, out) in &outs {
        assert_eq!(
            out.fingerprint, baseline[id].fingerprint,
            "scene {id} diverged after double recovery"
        );
    }
    fs::remove_dir_all(&base_dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

mod injected {
    use super::*;
    use dda_repro::core::pipeline::{FleetError, MigrationPhase, MigrationVictim, WalIoOp};
    use dda_repro::simt::DeathMode;

    /// Runs the skewed six-scene schedule with the rebalancer on and a
    /// crash armed at `phase` against `victim` of the first migration.
    fn run_with_kill(dir: &Path, phase: MigrationPhase, victim: MigrationVictim) -> FleetRouter {
        let mut r = FleetRouter::new(devices(), config(dir, true)).unwrap();
        for k in 0..6 {
            r.submit(submission(0.1 * k as f64, 6, 0)).unwrap();
        }
        r.arm_migration_crash(phase, victim);
        let ticks = r.drain(128).unwrap();
        assert!(
            ticks < 128,
            "fleet must drain despite the mid-protocol kill"
        );
        r
    }

    #[test]
    fn device_killed_at_each_migration_phase_recovers_exactly_once() {
        let base_dir = temp_dir("phase-base");
        let base = run_schedule(&base_dir, false);
        let baseline = base.outcomes();

        let cases = [
            (
                MigrationPhase::AfterIntent,
                MigrationVictim::Source,
                "ai-src",
            ),
            (
                MigrationPhase::AfterIntent,
                MigrationVictim::Destination,
                "ai-dst",
            ),
            (
                MigrationPhase::AfterCapture,
                MigrationVictim::Source,
                "ac-src",
            ),
            (
                MigrationPhase::AfterCapture,
                MigrationVictim::Destination,
                "ac-dst",
            ),
            (
                MigrationPhase::BeforeCommit,
                MigrationVictim::Source,
                "bc-src",
            ),
            (
                MigrationPhase::BeforeCommit,
                MigrationVictim::Destination,
                "bc-dst",
            ),
        ];
        for (phase, victim, tag) in cases {
            let dir = temp_dir(&format!("phase-{tag}"));
            let r = run_with_kill(&dir, phase, victim);
            assert_eq!(
                r.stats().recoveries,
                1,
                "{tag}: exactly one device death expected"
            );
            let outs = r.outcomes();
            assert_eq!(
                outs.len(),
                6,
                "{tag}: every scene must reach exactly one outcome"
            );
            for (id, out) in &outs {
                assert_eq!(out.outcome, WalOutcome::Completed, "{tag}: scene {id}");
                assert_eq!(
                    out.fingerprint, baseline[id].fingerprint,
                    "{tag}: scene {id} diverged after the mid-migration kill"
                );
            }
            fs::remove_dir_all(&dir).unwrap();
        }
        fs::remove_dir_all(&base_dir).unwrap();
    }

    #[test]
    fn revived_zombie_cannot_commit_stale_outcomes() {
        // Baseline fingerprints from an undisturbed run of the same four
        // scenes (rebalancer off: the zombie scenario needs the scenes to
        // sit on device 0 when the hang fires).
        let mk_cfg = |dir: &Path| {
            let mut cfg = RouterConfig::new(dir);
            cfg.wal_snap_interval = 2;
            cfg.watchdog_ticks = 3;
            cfg.prune = false;
            cfg.rebalance.enabled = false;
            cfg
        };
        let submit_all = |r: &mut FleetRouter| {
            for k in 0..4 {
                r.submit(submission(0.1 * k as f64, 8, 0)).unwrap();
            }
        };
        let base_dir = temp_dir("zombie-base");
        let mut base = FleetRouter::new(devices(), mk_cfg(&base_dir)).unwrap();
        submit_all(&mut base);
        assert!(base.drain(128).unwrap() < 128);
        let baseline = base.outcomes();
        assert_eq!(baseline.len(), 4);

        let dir = temp_dir("zombie-live");
        let mut r = FleetRouter::new(devices(), mk_cfg(&dir)).unwrap();
        submit_all(&mut r);
        assert!(
            r.placements().values().all(|&d| d == 0),
            "the shared locality key must pile every scene onto device 0"
        );
        // Hang device 0 after two step-boundary polls; the watchdog
        // declares it dead and migrates its scenes to device 1.
        r.device(0).arm_device_death(DeathMode::Hang, 2);
        while r.stats().recoveries == 0 {
            r.tick().unwrap();
            assert!(r.now() < 64, "watchdog must fire");
        }
        assert_eq!(r.n_alive(), 1);
        // The "dead" hardware wakes back up: a zombie holding (and
        // finishing) scenes that migrated away under newer epochs.
        assert!(r.device(0).revive(), "a hung device must be revivable");
        let mut guard = 0;
        while r.in_flight() > 0 || r.stats().fenced < 4 {
            r.tick().unwrap();
            guard += 1;
            assert!(guard < 256, "zombie completions must eventually be fenced");
        }
        assert_eq!(
            r.stats().fenced,
            4,
            "every stale completion must hit the epoch fence"
        );
        let outs = r.outcomes();
        assert_eq!(outs.len(), 4);
        for (id, out) in &outs {
            assert_eq!(
                out.fingerprint, baseline[id].fingerprint,
                "scene {id}: the surviving copy's trajectory must win"
            );
        }
        // The log tells the same story: exactly one terminal record per
        // scene — the zombie never got to journal a second one.
        let mut terminals: BTreeMap<u64, usize> = BTreeMap::new();
        for span in record_spans(&dir).unwrap() {
            if span.kind == WalRecordKind::Terminal {
                *terminals.entry(span.scene_id).or_insert(0) += 1;
            }
        }
        assert_eq!(terminals.len(), 4);
        assert!(
            terminals.values().all(|&n| n == 1),
            "exactly one terminal per scene, got {terminals:?}"
        );
        fs::remove_dir_all(&base_dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_sync_failure_at_submit_parks_the_router_degraded() {
        let dir = temp_dir("walio-submit");
        let mut r = FleetRouter::new(devices(), config(&dir, true)).unwrap();
        r.arm_wal_fault(WalIoOp::Sync, 0);
        match r.submit(submission(0.0, 4, 0)) {
            Err(FleetError::Wal(_)) => {}
            other => panic!("expected a structured WAL error, got {other:?}"),
        }
        assert!(r.is_degraded().is_some());
        assert_eq!(r.stats().submitted, 0, "the failed submit was not acked");
        assert_eq!(r.in_flight(), 0, "the scene was rolled back out");
        match r.submit(submission(0.1, 4, 0)) {
            Err(FleetError::Degraded(_)) => {}
            other => panic!("degraded router must refuse submissions, got {other:?}"),
        }
        let rep = r.tick().unwrap();
        assert!(rep.degraded, "degraded ticks are reported no-ops");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_append_failure_mid_tick_degrades_without_unwinding() {
        let dir = temp_dir("walio-tick");
        let mut cfg = config(&dir, true);
        cfg.wal_snap_interval = 1; // guarantee appends on the first tick
        let mut r = FleetRouter::new(devices(), cfg).unwrap();
        r.submit(submission(0.0, 6, 0)).unwrap();
        r.submit(submission(0.3, 6, 1)).unwrap();
        r.arm_wal_fault(WalIoOp::Append, 0);
        match r.tick() {
            Err(FleetError::Wal(_)) => {}
            other => panic!("expected the tick to surface the WAL failure, got {other:?}"),
        }
        assert!(r.is_degraded().is_some());
        let rep = r.tick().unwrap();
        assert!(rep.degraded);
        // Drain returns promptly instead of spinning on a parked router.
        assert_eq!(r.drain(64).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Long-running chaos soak (run with `--ignored`): ~1k scenes of
    /// skewed churn over a heterogeneous fleet while devices hang, revive
    /// as zombies, and crash outright — with pruning and the rebalancer
    /// live the whole time. Every accepted scene must reach exactly one
    /// outcome, and a WAL fault at the end must park the fleet instead of
    /// panicking.
    #[test]
    #[ignore]
    fn chaos_soak_with_deaths_migrations_and_wal_faults() {
        use dda_repro::workloads::traffic::{FleetChurnConfig, FleetChurnTraffic, TrafficConfig};

        let dir = temp_dir("chaos-soak");
        let mut cfg = RouterConfig::new(&dir);
        cfg.wal_snap_interval = 4;
        cfg.watchdog_ticks = 2;
        cfg.prune = true;
        cfg.rebalance.hysteresis = 0.3;
        cfg.rebalance.max_per_tick = 2;
        cfg.rebalance.cooldown_ticks = 4;
        let fleet = vec![
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k20()),
            Device::new(DeviceProfile::tesla_k20()),
        ];
        let mut r = FleetRouter::new(fleet, cfg).unwrap();
        let churn = FleetChurnConfig {
            traffic: TrafficConfig {
                run_steps_min: 2,
                run_steps_max: 5,
                ..TrafficConfig::default()
            },
            localities: 6,
            rate: 3.0,
            burst_every: 16,
            burst_size: 8,
            hot_key_permille: 700,
        };
        let mut traffic = FleetChurnTraffic::new(churn, 1234);
        let mut accepted: u64 = 0;
        let mut rejected: u64 = 0;
        for now in 0..300u64 {
            for fs_sub in traffic.arrivals(now) {
                match r.submit(fs_sub) {
                    Ok(_) => accepted += 1,
                    Err(FleetError::Ingest(_)) => rejected += 1,
                    Err(e) => panic!("unexpected submit failure at tick {now}: {e}"),
                }
            }
            // Scripted chaos, deterministic by construction: two hangs
            // (each later revived as a zombie), one hard crash. Device 0
            // is never touched, so work always has a survivor.
            match now {
                60 => r.device(1).arm_device_death(DeathMode::Hang, 1),
                90 => {
                    assert!(r.device(1).revive());
                }
                150 => r.device(3).arm_device_death(DeathMode::Crash, 0),
                200 => r.device(2).arm_device_death(DeathMode::Hang, 2),
                230 => {
                    assert!(r.device(2).revive());
                }
                _ => {}
            }
            r.tick().unwrap();
        }
        assert!(accepted >= 900, "soak must push ~1k scenes, got {accepted}");
        let ticks = r.drain(4096).unwrap();
        assert!(ticks < 4096, "soak fleet must drain");
        assert_eq!(r.stats().recoveries, 3, "two hangs + one crash");
        assert!(
            r.stats().rebalanced >= 1,
            "skewed churn must trigger live migrations, got {:?}",
            r.stats()
        );
        assert!(r.stranded().is_empty(), "device 0 always survives");
        assert_eq!(
            r.outcomes().len() as u64,
            accepted,
            "every accepted scene reaches exactly one outcome \
             ({accepted} accepted, {rejected} rejected at intake)"
        );
        // Parting shot: the WAL dies. The router parks, no panic.
        r.arm_wal_fault(WalIoOp::Sync, 0);
        let (sys, params) = scene(0.0);
        match r.submit(FleetSubmission {
            submission: SceneSubmission::new(sys, params, 2),
            locality: 0,
        }) {
            Err(FleetError::Wal(_)) => {}
            other => panic!("expected WAL failure, got {other:?}"),
        }
        assert!(r.is_degraded().is_some());
        assert!(r.tick().unwrap().degraded);
        fs::remove_dir_all(&dir).unwrap();
    }
}
