//! Multi-device fleet routing with crash-durable failover and live
//! migration.
//!
//! One [`BatchScheduler`] drives one device. This module adds the layer
//! the paper's cluster deployments imply but never specify: a
//! [`FleetRouter`] that shards scenes across *several* devices with
//! heterogeneous profiles (Tesla K20s next to K40s next to a serial CPU
//! fallback), journals every accepted scene to the write-ahead log in
//! [`super::wal`], and survives the death of any device — or of the whole
//! process — without losing accepted work or perturbing a single bit of
//! any trajectory.
//!
//! ## Placement and rebalancing
//!
//! Submissions carry an opaque *locality key* ([`FleetSubmission`]).
//! Scenes sharing a key are routed to the device that last hosted that
//! key (kinematic families tend to share contact topology, so co-locating
//! them keeps batch divergence low — the same argument the paper's
//! per-class contact kernels make within a scene). Beyond the locality
//! preference, placement is *load-feedback driven*: the router keeps a
//! per-device EWMA of modeled seconds per in-flight scene (seeded from
//! the profile's `1 / dp_gflops`, so an unmeasured fleet ranks exactly
//! like the old static `dp_gflops / (1 + in_flight)` argmax) and prefers
//! the device minimizing projected load `(in_flight + 1) ×
//! sec_per_scene`. Placement is deterministic: ties break toward the
//! lower device id.
//!
//! The same load model drives a **rebalancer** inside [`FleetRouter::tick`]:
//! when the most-loaded device exceeds the least-loaded by more than a
//! hysteresis band (and holds at least a minimum backlog), one scene per
//! tick (budgeted) migrates live from the hot device to the cool one,
//! with a per-scene cooldown preventing ping-pong. See
//! [`RebalanceConfig`].
//!
//! ## Live migration protocol
//!
//! A migration is a two-phase, WAL-journaled handoff:
//!
//! 1. **Intent** — a `MigrateIntent(scene, src → dst, epoch+1)` record is
//!    appended and *fsynced* before any state moves. The scene's
//!    ownership epoch is bumped the instant the intent is durable.
//! 2. **Capture** — the source extracts the scene's full resumable
//!    envelope and stops stepping it (the slot retires).
//! 3. **Adopt + commit** — the destination adopts the envelope and a
//!    `MigrateCommit` record carrying the bitwise snapshot is journaled
//!    (riding the tick's group commit).
//!
//! Crash anywhere in between recovers **exactly one live copy**: replay
//! resolves an intent-without-commit by *rolling the scene forward* onto
//! the destination at its last durable pre-capture state (valid because
//! trajectories are device- and batch-composition-independent), while any
//! later record for the scene at `epoch ≥ intent.epoch` — a commit, an
//! owner's snapshot, a terminal — supersedes the intent. The protocol
//! never forks a scene and never loses one.
//!
//! **Zombie fencing**: every WAL record carries the scene's ownership
//! epoch, and the router refuses to journal a terminal outcome unless the
//! reporting worker holds the scene at the *current* epoch and placement.
//! A fail-silent device that wakes up after the watchdog declared it dead
//! (and its scenes migrated) may keep stepping — real hardware does — but
//! its stale results are fenced at the journaling boundary and never
//! reach the log.
//!
//! ## Durability discipline
//!
//! * **Submit**: the scene's initial state is appended to the WAL and
//!   fsynced *before* the submission is acknowledged. An acked scene is
//!   durable, full stop.
//! * **Step boundary**: every `wal_snap_interval` ticks the router
//!   journals every in-flight scene's full resumable state as one group
//!   commit (one fsync for the whole burst, not one per scene).
//! * **Terminal**: completions/refusals/sheds append a terminal record
//!   with the final state's fingerprint, so a recovered process knows
//!   both *that* a scene finished and *what* it produced.
//! * **Degraded mode**: a WAL I/O failure (arm one on a `WalIoOp` with
//!   [`FleetRouter::arm_wal_fault`]) surfaces once as a structured
//!   [`FleetError::Wal`] and then parks the router
//!   read-only: submissions are refused with [`FleetError::Degraded`],
//!   ticks become no-ops, and nothing panics or unwinds mid-flight. Acked
//!   scenes stay durable in the log for a later [`FleetRouter::recover`].
//!
//! ## Failure model
//!
//! Devices die in two shapes (arm with `Device::arm_device_death`):
//! *crash* (fail-stop — the device reports itself dead, detected at the
//! next step boundary) and *hang* (fail-silent — launches stop returning;
//! a watchdog declares death after `watchdog_ticks` stale ticks; the
//! device may later *revive* as a zombie). Either way recovery is the
//! same: replay the WAL, re-place the dead device's scenes on survivors
//! at a bumped epoch (locality-aware, never dropping accepted work), and
//! continue. Because kernels execute host-exact and trajectories are
//! batch-composition-independent, a migrated scene's continued evolution
//! is **bit-identical** to the run where its device never died — the
//! property the recovery tests assert fingerprint-for-fingerprint.

use std::collections::BTreeMap;

use dda_simt::Device;

use crate::system::BlockSystem;

use super::codec::{encode_intent, encode_scene_record};
use super::ingest::{
    BatchScheduler, FleetScene, IngestConfig, IngestError, SceneStatus, SceneSubmission, Ticket,
};
use super::wal::{
    WalConfig, WalError, WalIoOp, WalOutcome, WalRecordKind, WalReplay, WalStats, WalWriter,
};

/// Fleet-wide scene identifier, stable across devices, migrations, and
/// process restarts (unlike per-scheduler [`Ticket`]s, which are reissued
/// on every adoption).
pub type SceneId = u64;

/// Minimum scenes in flight on a device before the rebalancer may shed
/// one (never strip a device of its only work).
const MIN_SRC_BACKLOG: usize = 2;

/// Knobs for the load-feedback rebalancer (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Master switch. Off, the router only places at submit time and on
    /// device death — the pre-migration behavior.
    pub enabled: bool,
    /// Relative load gap required before a migration triggers: move only
    /// when the destination's *projected* load (after receiving the
    /// scene) stays below `(1 - hysteresis) ×` the source's current load.
    pub hysteresis: f64,
    /// Maximum live migrations per tick (the migration-rate budget).
    pub max_per_tick: usize,
    /// Ticks a freshly migrated scene is ineligible to migrate again.
    pub cooldown_ticks: u64,
}

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        RebalanceConfig {
            enabled: true,
            hysteresis: 0.5,
            max_per_tick: 1,
            cooldown_ticks: 8,
        }
    }
}

/// Knobs for the [`FleetRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-device scheduler configuration (cloned for every device).
    pub ingest: IngestConfig,
    /// Ticks a device may go without completing a step before the
    /// watchdog declares it dead (fail-silent hang detection).
    pub watchdog_ticks: u64,
    /// Journal every in-flight scene each time this many ticks elapse
    /// (0 disables periodic snapshots; recovery then replays from the
    /// submit records).
    pub wal_snap_interval: u64,
    /// Write-ahead log placement and cost model.
    pub wal: WalConfig,
    /// Delete segments wholly superseded by a snapshot burst. Disable to
    /// keep the full history (the crash-injection tests do, so every
    /// prefix of the log remains a valid recovery point).
    pub prune: bool,
    /// Load-feedback rebalancer knobs.
    pub rebalance: RebalanceConfig,
}

impl RouterConfig {
    /// Defaults around a WAL rooted at `dir`: scheduler defaults,
    /// watchdog of 3 ticks, snapshots every 4 ticks, pruning on,
    /// rebalancer on with conservative thresholds.
    pub fn new(wal_dir: impl Into<std::path::PathBuf>) -> RouterConfig {
        RouterConfig {
            ingest: IngestConfig::default(),
            watchdog_ticks: 3,
            wal_snap_interval: 4,
            wal: WalConfig::new(wal_dir),
            prune: true,
            rebalance: RebalanceConfig::default(),
        }
    }
}

/// A submission addressed to the fleet rather than to one device.
#[derive(Debug, Clone)]
pub struct FleetSubmission {
    /// The scene itself (system, parameters, priority, deadline, steps).
    pub submission: SceneSubmission,
    /// Opaque locality key: scenes sharing a key prefer the same device.
    pub locality: u64,
}

/// Structured failure from the fleet layer.
#[derive(Debug)]
pub enum FleetError {
    /// Every live device rejected the submission (queues full) — the
    /// payload is the last rejection.
    Ingest(IngestError),
    /// The write-ahead log failed; the submission was *not* acked.
    Wal(WalError),
    /// No device in the fleet is alive.
    NoSurvivors,
    /// The router is parked read-only after a WAL failure; the payload
    /// describes the failure that parked it. New submissions are refused;
    /// already-acked scenes remain durable in the log.
    Degraded(String),
}

impl From<WalError> for FleetError {
    fn from(e: WalError) -> FleetError {
        FleetError::Wal(e)
    }
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Ingest(e) => write!(f, "fleet ingest rejection: {e:?}"),
            FleetError::Wal(e) => write!(f, "fleet wal failure: {e}"),
            FleetError::NoSurvivors => write!(f, "no surviving devices in the fleet"),
            FleetError::Degraded(reason) => {
                write!(f, "fleet router is degraded (read-only): {reason}")
            }
        }
    }
}

/// A finished scene's durable outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOutcome {
    /// How the scene ended.
    pub outcome: WalOutcome,
    /// FNV-1a fingerprint of the final block system
    /// ([`system_fingerprint`]); 0 for scenes shed before ever running.
    pub fingerprint: u64,
}

/// What one [`FleetRouter::tick`] did, summed across devices.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTickReport {
    /// Scenes admitted into batches this tick.
    pub admitted: usize,
    /// Scenes completed this tick.
    pub completed: usize,
    /// Scenes permanently refused this tick.
    pub refused: usize,
    /// Queued scenes shed for missed deadlines this tick.
    pub shed: usize,
    /// Devices declared dead this tick.
    pub devices_lost: usize,
    /// Scenes migrated off dead devices this tick.
    pub migrated: usize,
    /// Live load-rebalancing migrations committed this tick.
    pub rebalanced: usize,
    /// Whether a periodic snapshot burst was journaled this tick.
    pub snapped: bool,
    /// True when the router is parked read-only and the tick was a no-op.
    pub degraded: bool,
}

/// Lifetime counters for a [`FleetRouter`].
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Router ticks executed.
    pub ticks: u64,
    /// Submissions acked (durable in the WAL).
    pub submitted: u64,
    /// Scenes that completed their requested steps.
    pub completed: u64,
    /// Scenes permanently refused.
    pub refused: u64,
    /// Scenes shed for missed deadlines.
    pub shed: u64,
    /// Device deaths detected and recovered from.
    pub recoveries: u64,
    /// Scenes migrated off dead devices.
    pub migrated: u64,
    /// Live load-rebalancing migrations committed.
    pub rebalanced: u64,
    /// Stale terminal outcomes refused at the epoch fence (a zombie
    /// device trying to commit a scene that moved on without it).
    pub fenced: u64,
    /// Modeled seconds the WAL spent on migration records (intents +
    /// commits) — the protocol's overhead, budgeted as a fraction of
    /// aggregate step time (`tests/beyond_paper_claims.rs`).
    pub migration_wal_seconds: f64,
    /// Ticks from a device's last completed step to its death being
    /// declared, one entry per recovery (crash = 1, hang ≈ watchdog).
    pub detection_latencies: Vec<u64>,
}

/// Which boundary of an in-flight migration a crash is armed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Immediately after the `MigrateIntent` record is fsynced, before
    /// the source captures anything.
    AfterIntent,
    /// After the source extracted the scene (it stopped stepping), before
    /// the destination adopts.
    AfterCapture,
    /// With the adopter chosen, just before the `MigrateCommit` record is
    /// appended (adoption itself is host bookkeeping that follows it).
    BeforeCommit,
}

/// Which side of an in-flight migration the armed crash kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationVictim {
    /// The device the scene is leaving.
    Source,
    /// The device the scene is moving to.
    Destination,
}

/// Ownership entry: which fleet scene a scheduler ticket maps to, and the
/// ownership epoch under which this worker holds it. The epoch is the
/// fence: a terminal outcome journals only if the holder's epoch still
/// matches the router's authoritative epoch for the scene.
#[derive(Debug, Clone, Copy)]
struct Owned {
    id: SceneId,
    epoch: u64,
}

/// One device plus its scheduler and liveness bookkeeping.
struct Worker {
    sched: BatchScheduler,
    /// False once declared dead; the slot stays (ids are indices) but
    /// placement skips it forever after. A declared-dead device whose
    /// hardware later revives (a zombie) may still *step*, but the epoch
    /// fence keeps its stale results out of the log.
    alive: bool,
    /// Last router tick at which the device completed a step.
    heartbeat: u64,
    /// Fleet scenes this worker believes it owns, by ticket. For a
    /// hang-declared device this map deliberately survives the death
    /// declaration — that is exactly the state a zombie acts on, and what
    /// the fence must reject.
    scenes: BTreeMap<Ticket, Owned>,
}

/// Routes scenes across a fleet of devices, journaling to a WAL so that
/// any device death — or whole-process death — recovers without losing
/// accepted work and without perturbing any trajectory. See the module
/// docs for the placement, migration, and durability disciplines.
pub struct FleetRouter {
    cfg: RouterConfig,
    workers: Vec<Worker>,
    wal: WalWriter,
    now: u64,
    next_scene: SceneId,
    /// Live scene locations: fleet id → device index.
    placements: BTreeMap<SceneId, u32>,
    /// Authoritative ownership epoch per live scene. Bumped the moment a
    /// migration intent is durable and on every death-recovery adoption.
    epochs: BTreeMap<SceneId, u64>,
    /// Locality keys → device that last hosted the key.
    locality: BTreeMap<u64, u32>,
    /// Locality key of each live scene (for re-placement on migration).
    scene_locality: BTreeMap<SceneId, u64>,
    /// Durable outcomes, with the WAL segment their terminal record was
    /// last journaled in (pruning re-journals outcomes that would fall
    /// below the barrier).
    outcomes: BTreeMap<SceneId, (FleetOutcome, u64)>,
    /// Scenes whose device died with no survivor to adopt them. They
    /// remain durable in the WAL; a later [`FleetRouter::recover`] with
    /// fresh devices picks them up.
    stranded: Vec<SceneId>,
    /// Per-device EWMA of modeled seconds per in-flight scene per tick,
    /// seeded `1 / dp_gflops` so an unmeasured fleet ranks like the old
    /// static argmax.
    sec_per_scene: Vec<f64>,
    /// Last observed modeled-seconds reading per device (EWMA deltas).
    dev_seconds: Vec<f64>,
    /// Tick before which a scene may not migrate again.
    cooldown: BTreeMap<SceneId, u64>,
    /// `Some(reason)` once a WAL failure parked the router read-only.
    degraded: Option<String>,
    armed_migration: Option<(MigrationPhase, MigrationVictim)>,
    stats: FleetStats,
}

impl FleetRouter {
    fn build(devices: Vec<Device>, cfg: RouterConfig, wal: WalWriter, now: u64) -> FleetRouter {
        let workers: Vec<Worker> = devices
            .into_iter()
            .map(|d| Worker {
                sched: BatchScheduler::new(d, cfg.ingest),
                alive: true,
                heartbeat: now,
                scenes: BTreeMap::new(),
            })
            .collect();
        let sec_per_scene = workers
            .iter()
            .map(|w| 1.0 / w.sched.batch().device().profile().dp_gflops)
            .collect();
        let dev_seconds = workers
            .iter()
            .map(|w| w.sched.batch().device().modeled_seconds())
            .collect();
        FleetRouter {
            workers,
            cfg,
            wal,
            now,
            next_scene: 0,
            placements: BTreeMap::new(),
            epochs: BTreeMap::new(),
            locality: BTreeMap::new(),
            scene_locality: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            stranded: Vec::new(),
            sec_per_scene,
            dev_seconds,
            cooldown: BTreeMap::new(),
            degraded: None,
            armed_migration: None,
            stats: FleetStats::default(),
        }
    }

    /// A fresh fleet over `devices` with a fresh WAL. Refuses to open a
    /// directory that already holds segments — that log belongs to a
    /// previous fleet and must go through [`FleetRouter::recover`].
    pub fn new(devices: Vec<Device>, cfg: RouterConfig) -> Result<FleetRouter, FleetError> {
        let wal = WalWriter::create(cfg.wal.clone())?;
        Ok(FleetRouter::build(devices, cfg, wal, 0))
    }

    /// Rebuilds a fleet from the WAL left by a dead process: replays the
    /// log, re-places every live scene on the new devices (preferring
    /// each scene's recorded device index when it exists — which, for a
    /// migration interrupted mid-handoff, is the *destination* the replay
    /// rolled the scene forward to), restores the terminal outcomes, and
    /// re-journals everything into a fresh segment so the recovered log
    /// is self-contained. Recovery is idempotent: running it twice in a
    /// row reconstructs the identical fleet. Continued trajectories are
    /// bit-identical to the run the process death interrupted.
    pub fn recover(devices: Vec<Device>, cfg: RouterConfig) -> Result<FleetRouter, FleetError> {
        let replay = WalReplay::load(&cfg.wal.dir)?;
        let wal = WalWriter::resume(cfg.wal.clone(), &replay)?;
        let last_tick = replay.last_tick;
        let mut router = FleetRouter::build(devices, cfg, wal, last_tick);
        let mut max_id = None::<SceneId>;
        for (&id, ro) in &replay.terminal {
            max_id = Some(max_id.map_or(id, |m| m.max(id)));
            let outcome = FleetOutcome {
                outcome: ro.outcome,
                fingerprint: ro.fingerprint,
            };
            // Re-journal into the fresh segment so pruning the old ones
            // can never lose a finished scene's result.
            router.journal_outcome(id, 0, ro.epoch, outcome)?;
        }
        for (id, rs) in replay.live {
            max_id = Some(max_id.map_or(id, |m| m.max(id)));
            let preferred = (rs.device as usize) < router.workers.len();
            let target = if preferred {
                rs.device as usize
            } else {
                match router.place(None) {
                    Some(t) => t,
                    None => {
                        router.stranded.push(id);
                        continue;
                    }
                }
            };
            router.adopt_scene(target, id, rs.scene, rs.taken_at, rs.epoch)?;
        }
        router.wal.sync()?;
        if router.cfg.prune {
            let barrier = router.wal.segment_index();
            router.wal.prune_before(barrier)?;
        }
        router.next_scene = max_id.map_or(0, |m| m + 1);
        Ok(router)
    }

    /// Submits a scene to the fleet. The scene is journaled and fsynced
    /// *before* this returns: an `Ok(id)` is a durability promise. The
    /// preferred device comes from the locality map; a saturated or dead
    /// preference falls back through the remaining devices in score
    /// order, and only when every live device rejects does the fleet
    /// reject. A degraded (parked) router refuses outright.
    pub fn submit(&mut self, fs: FleetSubmission) -> Result<SceneId, FleetError> {
        if let Some(reason) = &self.degraded {
            return Err(FleetError::Degraded(reason.clone()));
        }
        let FleetSubmission {
            submission,
            locality,
        } = fs;
        let mut order = self.placement_order(Some(locality));
        if order.is_empty() {
            return Err(FleetError::NoSurvivors);
        }
        // The WAL payload snapshots the state exactly as try_submit will
        // construct it, so replaying a Submit record is indistinguishable
        // from resubmitting.
        let mut last_err = None;
        let mut placed = None;
        for dev in order.drain(..) {
            match self.workers[dev].sched.try_submit(submission.clone()) {
                Ok(ticket) => {
                    placed = Some((dev, ticket));
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some((dev, ticket)) = placed else {
            return Err(FleetError::Ingest(
                last_err.expect("at least one device was tried"),
            ));
        };
        let id = self.next_scene;
        self.next_scene += 1;
        let snapshot = self.workers[dev]
            .sched
            .snapshot(ticket)
            .expect("freshly submitted scene is in flight");
        let journaled = self
            .journal_scene(WalRecordKind::Submit, id, dev, 0, self.now, &snapshot)
            .and_then(|_| self.wal.sync());
        if let Err(e) = journaled {
            // The ack never happened: pull the scene back out of the
            // scheduler so no un-journaled work runs, then park.
            let _ = self.workers[dev].sched.extract_scene(ticket);
            self.degraded = Some(format!("wal failure during submit: {e}"));
            return Err(FleetError::Wal(e));
        }
        self.workers[dev]
            .scenes
            .insert(ticket, Owned { id, epoch: 0 });
        self.placements.insert(id, dev as u32);
        self.epochs.insert(id, 0);
        self.locality.insert(locality, dev as u32);
        self.scene_locality.insert(id, locality);
        self.stats.submitted += 1;
        Ok(id)
    }

    /// Advances the fleet one step: polls device liveness, recovers any
    /// dead device (replaying its scenes from the WAL onto survivors),
    /// ticks every responsive device, journals terminal outcomes through
    /// the epoch fence, runs the load-feedback rebalancer, and takes the
    /// periodic snapshot burst under one group commit.
    ///
    /// A WAL failure mid-tick does not unwind the router: the error
    /// surfaces once as [`FleetError::Wal`] and the router parks itself
    /// read-only; subsequent ticks are no-ops reporting
    /// [`FleetTickReport::degraded`].
    pub fn tick(&mut self) -> Result<FleetTickReport, FleetError> {
        if self.degraded.is_some() {
            return Ok(FleetTickReport {
                degraded: true,
                ..FleetTickReport::default()
            });
        }
        match self.tick_inner() {
            Ok(rep) => Ok(rep),
            Err(FleetError::Wal(e)) => {
                self.degraded = Some(format!("wal failure during tick: {e}"));
                Err(FleetError::Wal(e))
            }
            Err(e) => Err(e),
        }
    }

    fn tick_inner(&mut self) -> Result<FleetTickReport, FleetError> {
        self.now += 1;
        self.stats.ticks += 1;
        let mut rep = FleetTickReport::default();

        // 1. Step-boundary liveness polls, then fail-stop detection: a
        // crashed device says so when asked (its driver calls error out).
        for w in self.workers.iter().filter(|w| w.alive) {
            w.sched.batch().device().poll_step_boundary();
        }
        for i in 0..self.workers.len() {
            if self.workers[i].alive && !self.workers[i].sched.batch().device().is_alive() {
                let latency = self.now - self.workers[i].heartbeat;
                rep.devices_lost += 1;
                rep.migrated += self.recover_worker(i, latency)?;
            }
        }

        // 2. Step every responsive device. An unresponsive (hung) device
        // is modeled by skipping its tick: in reality the launch would
        // never return, so no progress happens and its heartbeat stalls.
        // A *revived* zombie — declared dead by the watchdog, woken later
        // — still steps: the hardware genuinely runs; it is the epoch
        // fence in phase 4, not this loop, that keeps its stale results
        // out of the log.
        for i in 0..self.workers.len() {
            if !self.workers[i].sched.batch().device().is_responsive() {
                continue;
            }
            let alive = self.workers[i].alive;
            let in_flight_before = self.workers[i].sched.in_flight();
            let r = self.workers[i].sched.tick();
            self.workers[i].heartbeat = self.now;
            if alive {
                rep.admitted += r.admitted;
                // Load feedback: modeled seconds this device spent per
                // in-flight scene, exponentially smoothed.
                let secs = self.workers[i].sched.batch().device().modeled_seconds();
                let delta = secs - self.dev_seconds[i];
                self.dev_seconds[i] = secs;
                if in_flight_before > 0 && delta > 0.0 {
                    let raw = delta / in_flight_before as f64;
                    // Weight of the newest measurement.
                    const EWMA_ALPHA: f64 = 0.5;
                    self.sec_per_scene[i] =
                        EWMA_ALPHA * raw + (1.0 - EWMA_ALPHA) * self.sec_per_scene[i];
                }
            }
        }

        // 3. Watchdog: declare a device dead once it has gone
        // `watchdog_ticks` without completing a step.
        for i in 0..self.workers.len() {
            if self.workers[i].alive {
                let stale = self.now - self.workers[i].heartbeat;
                if stale >= self.cfg.watchdog_ticks {
                    rep.devices_lost += 1;
                    rep.migrated += self.recover_worker(i, stale)?;
                }
            }
        }

        // 4. Journal terminal transitions — through the epoch fence. Only
        // the current owner at the current epoch and placement may commit
        // an outcome; a zombie's stale ticket fails the fence and its
        // result is dropped, never journaled.
        for i in 0..self.workers.len() {
            let tickets: Vec<Ticket> = self.workers[i].scenes.keys().copied().collect();
            for ticket in tickets {
                let Some(status) = self.workers[i].sched.status(ticket).map(|r| r.status) else {
                    continue;
                };
                let outcome = match status {
                    SceneStatus::Completed => WalOutcome::Completed,
                    SceneStatus::Refused { .. } => WalOutcome::Refused,
                    SceneStatus::Shed { .. } => WalOutcome::Shed,
                    SceneStatus::Queued | SceneStatus::Running { .. } => continue,
                };
                let owned = self.workers[i]
                    .scenes
                    .remove(&ticket)
                    .expect("iterated key");
                let fence_ok = self.workers[i].alive
                    && self.epochs.get(&owned.id) == Some(&owned.epoch)
                    && self.placements.get(&owned.id) == Some(&(i as u32));
                if !fence_ok {
                    // A stale owner (watchdog-declared-dead device that
                    // woke back up) finished a scene that migrated away
                    // under a newer epoch: refuse the outcome.
                    self.stats.fenced += 1;
                    continue;
                }
                let id = owned.id;
                let fingerprint = self.workers[i]
                    .sched
                    .take_final_sys(ticket)
                    .map_or(0, |sys| system_fingerprint(&sys));
                self.placements.remove(&id);
                self.epochs.remove(&id);
                self.scene_locality.remove(&id);
                self.cooldown.remove(&id);
                let out = FleetOutcome {
                    outcome,
                    fingerprint,
                };
                self.journal_outcome(id, i, owned.epoch, out)?;
                match outcome {
                    WalOutcome::Completed => {
                        rep.completed += 1;
                        self.stats.completed += 1;
                    }
                    WalOutcome::Refused => {
                        rep.refused += 1;
                        self.stats.refused += 1;
                    }
                    WalOutcome::Shed => {
                        rep.shed += 1;
                        self.stats.shed += 1;
                    }
                }
            }
        }

        // 5. Load-feedback rebalancing: migrate up to the per-tick budget
        // of scenes from the most- to the least-loaded device, when the
        // gap clears the hysteresis band.
        if self.cfg.rebalance.enabled {
            while rep.rebalanced < self.cfg.rebalance.max_per_tick {
                let Some((src, dst, ticket, id)) = self.pick_migration() else {
                    break;
                };
                // Every WAL second the handoff spends, aborted or not, is
                // booked as migration cost.
                let wal_before = self.wal.stats().modeled_seconds;
                let committed = self.migrate_scene(id, ticket, src, dst)?;
                self.stats.migration_wal_seconds += self.wal.stats().modeled_seconds - wal_before;
                if committed {
                    rep.rebalanced += 1;
                    self.stats.rebalanced += 1;
                } else {
                    // The handoff aborted (a device died mid-protocol);
                    // let the death path settle before trying again.
                    break;
                }
            }
        }

        // 6. Periodic snapshot burst: every in-flight scene, one group
        // commit. Pruning first re-journals any terminal outcome whose
        // record would fall below the barrier.
        let snap_due =
            self.cfg.wal_snap_interval > 0 && self.now.is_multiple_of(self.cfg.wal_snap_interval);
        // Segment holding the first record of this burst: pruning keeps
        // it and everything after (a mid-burst rotation moves later burst
        // records forward, never backward).
        let mut burst_barrier = None;
        if snap_due {
            let barrier = self.wal.segment_index();
            burst_barrier = Some(barrier);
            for i in 0..self.workers.len() {
                if !self.workers[i].alive {
                    continue;
                }
                for (ticket, fs) in self.workers[i].sched.snapshot_inflight() {
                    let Some(&owned) = self.workers[i].scenes.get(&ticket) else {
                        continue;
                    };
                    self.journal_scene(
                        WalRecordKind::Snap,
                        owned.id,
                        i,
                        owned.epoch,
                        self.now,
                        &fs,
                    )?;
                }
            }
            if self.cfg.prune {
                let ids: Vec<SceneId> = self.outcomes.keys().copied().collect();
                for id in ids {
                    let (out, seg) = self.outcomes[&id];
                    if seg < barrier {
                        self.journal_outcome(id, 0, 0, out)?;
                    }
                }
            }
            rep.snapped = true;
        }

        // 7. One barrier covers the whole tick's records (group commit);
        // only then is the boundary committed and pruning safe.
        self.wal.sync()?;
        // Stranded scenes live only in old segments, so their presence
        // vetoes pruning outright.
        if let (Some(barrier), true) = (burst_barrier, self.cfg.prune && self.stranded.is_empty()) {
            // Every live scene was just re-journaled at or above the
            // burst barrier, and every outcome sits at or above the
            // lowest journaled-outcome segment; strictly older segments
            // hold nothing the fleet still needs.
            let keep_from = self
                .outcomes
                .values()
                .map(|(_, seg)| *seg)
                .min()
                .unwrap_or(barrier)
                .min(barrier);
            self.wal.prune_before(keep_from)?;
        }
        Ok(rep)
    }

    /// Ticks until nothing is in flight, the router parks degraded, or
    /// `max_ticks` elapse; returns the ticks taken.
    pub fn drain(&mut self, max_ticks: usize) -> Result<usize, FleetError> {
        for t in 0..max_ticks {
            if self.in_flight() == 0 || self.degraded.is_some() {
                return Ok(t);
            }
            self.tick()?;
        }
        Ok(max_ticks)
    }

    /// Picks the next rebalancing migration, if the load gap warrants
    /// one: most-loaded usable device → least-projected-load device,
    /// moving the newest cooldown-eligible scene. Deterministic; ties
    /// break toward lower device ids.
    fn pick_migration(&self) -> Option<(usize, usize, Ticket, SceneId)> {
        let rb = &self.cfg.rebalance;
        let usable: Vec<usize> = (0..self.workers.len())
            .filter(|&i| self.device_ok(i))
            .collect();
        if usable.len() < 2 {
            return None;
        }
        let load = |i: usize| self.workers[i].sched.in_flight() as f64 * self.sec_per_scene[i];
        let proj =
            |i: usize| (self.workers[i].sched.in_flight() as f64 + 1.0) * self.sec_per_scene[i];
        let mut src = usable[0];
        for &i in &usable[1..] {
            if load(i) > load(src) {
                src = i;
            }
        }
        if self.workers[src].sched.in_flight() < MIN_SRC_BACKLOG {
            return None;
        }
        let mut dst = *usable.iter().find(|&&i| i != src)?;
        for &i in &usable {
            if i != src && proj(i) < proj(dst) {
                dst = i;
            }
        }
        let src_load = load(src);
        if src_load - proj(dst) <= rb.hysteresis * src_load {
            return None;
        }
        // Newest eligible scene: most recently accepted work is likeliest
        // still queued, so the handoff forfeits the least progress.
        let (ticket, owned) = self.workers[src]
            .scenes
            .iter()
            .rev()
            .find(|(_, o)| {
                self.cooldown
                    .get(&o.id)
                    .is_none_or(|&until| self.now >= until)
            })
            .map(|(&t, &o)| (t, o))?;
        Some((src, dst, ticket, owned.id))
    }

    /// The two-phase live handoff of scene `id` from `src` to `dst`. See
    /// the module docs for the protocol; every early return leaves the
    /// log in a state whose replay yields exactly one live copy. Returns
    /// `Ok(true)` when the commit record was journaled.
    fn migrate_scene(
        &mut self,
        id: SceneId,
        ticket: Ticket,
        src: usize,
        dst: usize,
    ) -> Result<bool, FleetError> {
        let new_epoch = self.epochs.get(&id).copied().unwrap_or(0) + 1;
        // Phase 1: the intent is durable before any state moves, and the
        // authoritative epoch bumps the moment it is — from here on the
        // old owner's epoch is stale and the fence refuses it.
        self.wal.append(
            WalRecordKind::MigrateIntent,
            id,
            dst as u32,
            new_epoch,
            encode_intent(src as u32).as_bytes(),
        )?;
        self.wal.sync()?;
        self.epochs.insert(id, new_epoch);
        self.fire_migration_crash(MigrationPhase::AfterIntent, src, dst);
        if !self.device_ok(src) {
            // Source died with the scene still aboard: nothing was
            // captured, the normal death path will replay the WAL (which
            // rolls the intent forward) and re-place everything.
            return Ok(false);
        }
        if !self.device_ok(dst) {
            // Destination died before the capture: roll back by
            // re-asserting the source's ownership at the reserved epoch,
            // superseding the pending intent on any future replay.
            self.reassert_source(id, src, ticket, new_epoch)?;
            return Ok(false);
        }
        // Phase 2: capture — the source stops stepping the scene here
        // (its slot retires; the scheduler forgets the ticket).
        let Some(fsc) = self.workers[src].sched.extract_scene(ticket) else {
            // The ticket is gone from the scheduler (should not happen
            // for a live scene); restore the owner's epoch and bail.
            if let Some(o) = self.workers[src].scenes.get_mut(&ticket) {
                o.epoch = new_epoch;
            }
            return Ok(false);
        };
        self.workers[src].scenes.remove(&ticket);
        self.fire_migration_crash(MigrationPhase::AfterCapture, src, dst);
        // The destination may have died while the capture was in flight;
        // fall back to the best survivor (possibly the source itself).
        let target = if self.device_ok(dst) {
            dst
        } else {
            match self.place(self.scene_locality.get(&id).copied()) {
                Some(t) => t,
                None => {
                    // No survivors at all: the scene strands, durable in
                    // the WAL (pre-capture state + pending intent).
                    self.placements.remove(&id);
                    self.stranded.push(id);
                    return Ok(false);
                }
            }
        };
        // Phase 3: journal the commit naming the actual adopter, then
        // adopt. The commit rides the tick's group commit — if the process
        // dies before that fsync, replay rolls the intent forward instead,
        // landing the scene on a destination all the same. An adopter that
        // crashed first still takes the scene but journals no commit —
        // exactly what a real mid-handoff crash leaves behind — and the
        // death path replays the WAL (rolling the intent forward) and
        // re-places it.
        self.fire_migration_crash(MigrationPhase::BeforeCommit, src, dst);
        let committed = self.device_ok(target);
        if committed {
            self.journal_scene(
                WalRecordKind::MigrateCommit,
                id,
                target,
                new_epoch,
                self.now,
                &fsc,
            )?;
        }
        let new_ticket = self.workers[target].sched.adopt(fsc);
        self.workers[target].scenes.insert(
            new_ticket,
            Owned {
                id,
                epoch: new_epoch,
            },
        );
        self.placements.insert(id, target as u32);
        if let Some(&key) = self.scene_locality.get(&id) {
            self.locality.insert(key, target as u32);
        }
        if committed {
            self.cooldown
                .insert(id, self.now + self.cfg.rebalance.cooldown_ticks);
        }
        Ok(committed)
    }

    /// Re-asserts `src`'s ownership of `id` at `epoch` after an aborted
    /// migration: journals a snapshot at the reserved epoch (superseding
    /// the pending intent on replay) and stamps the holder's entry, so
    /// the fence keeps accepting the source's outcomes.
    fn reassert_source(
        &mut self,
        id: SceneId,
        src: usize,
        ticket: Ticket,
        epoch: u64,
    ) -> Result<(), FleetError> {
        if let Some(fs) = self.workers[src].sched.snapshot(ticket) {
            self.journal_scene(WalRecordKind::Snap, id, src, epoch, self.now, &fs)?;
        }
        if let Some(o) = self.workers[src].scenes.get_mut(&ticket) {
            o.epoch = epoch;
        }
        Ok(())
    }

    /// Whether device `i` is a usable migration endpoint: never declared
    /// dead and currently functional.
    fn device_ok(&self, i: usize) -> bool {
        self.workers[i].alive && {
            let d = self.workers[i].sched.batch().device();
            d.is_alive() && d.is_responsive()
        }
    }

    fn fire_migration_crash(&mut self, phase: MigrationPhase, src: usize, dst: usize) {
        if let Some((p, v)) = self.armed_migration {
            if p == phase {
                self.armed_migration = None;
                let victim = match v {
                    MigrationVictim::Source => src,
                    MigrationVictim::Destination => dst,
                };
                let d = self.workers[victim].sched.batch().device();
                d.arm_device_death(dda_simt::DeathMode::Crash, 0);
                d.poll_step_boundary();
            }
        }
    }

    /// Replays a dead worker's scenes from the WAL onto survivors.
    /// Returns how many scenes migrated.
    fn recover_worker(&mut self, dead: usize, latency: u64) -> Result<usize, FleetError> {
        self.workers[dead].alive = false;
        self.stats.recoveries += 1;
        self.stats.detection_latencies.push(latency);
        // Only durable state exists for recovery: the device's memory is
        // gone, and with it the scheduler's working set. Sync staged
        // records (they describe *other* devices' boundaries) and replay.
        self.wal.sync()?;
        let mut replay = WalReplay::load(self.wal.dir())?;
        let ids: Vec<SceneId> = self.workers[dead].scenes.values().map(|o| o.id).collect();
        // A fail-stop crash wipes the device: clear its ownership map. A
        // fail-silent hang does NOT — the hardware may still be running,
        // and if it ever wakes (a zombie) it will act on exactly this
        // stale map; keeping it is what makes the epoch fence testable
        // and honest.
        let hung = {
            let d = self.workers[dead].sched.batch().device();
            d.is_alive() && !d.is_responsive()
        };
        if !hung {
            self.workers[dead].scenes.clear();
        }
        let mut migrated = 0;
        for id in ids {
            let Some(rs) = replay.live.remove(&id) else {
                // Terminal'd between snapshots — its outcome is already
                // durable; nothing to migrate.
                continue;
            };
            let locality = self.scene_locality.get(&id).copied();
            let Some(target) = self.place(locality) else {
                self.placements.remove(&id);
                self.stranded.push(id);
                continue;
            };
            // Adoption is an ownership change: bump past both the
            // router's authoritative epoch and anything the log carries,
            // fencing the dead device if it ever wakes.
            let next_epoch = self.epochs.get(&id).copied().unwrap_or(0).max(rs.epoch) + 1;
            self.adopt_scene(target, id, rs.scene, rs.taken_at, next_epoch)?;
            if let Some(key) = locality {
                self.locality.insert(key, target as u32);
            }
            migrated += 1;
            self.stats.migrated += 1;
        }
        self.wal.sync()?;
        Ok(migrated)
    }

    /// Places one replayed scene on `target` at `epoch`, journaling its
    /// new home.
    fn adopt_scene(
        &mut self,
        target: usize,
        id: SceneId,
        scene: FleetScene,
        taken_at: u64,
        epoch: u64,
    ) -> Result<(), FleetError> {
        self.journal_scene(WalRecordKind::Snap, id, target, epoch, taken_at, &scene)?;
        let ticket = self.workers[target].sched.adopt(scene);
        self.workers[target]
            .scenes
            .insert(ticket, Owned { id, epoch });
        self.placements.insert(id, target as u32);
        self.epochs.insert(id, epoch);
        Ok(())
    }

    /// Appends `scene` as a `kind` record (Submit, Snap or MigrateCommit):
    /// the one place the router encodes a scene payload.
    fn journal_scene(
        &mut self,
        kind: WalRecordKind,
        id: SceneId,
        device: usize,
        epoch: u64,
        taken_at: u64,
        scene: &FleetScene,
    ) -> Result<u64, WalError> {
        let payload = encode_scene_record(taken_at, scene);
        self.wal
            .append(kind, id, device as u32, epoch, payload.as_bytes())
    }

    /// Appends a terminal record and remembers the segment it was
    /// journaled in (pruning re-journals outcomes below its barrier).
    fn journal_outcome(
        &mut self,
        id: SceneId,
        device: usize,
        epoch: u64,
        out: FleetOutcome,
    ) -> Result<(), WalError> {
        let seg = self.wal.segment_index();
        let payload = out.outcome.encode(out.fingerprint);
        self.wal.append(
            WalRecordKind::Terminal,
            id,
            device as u32,
            epoch,
            payload.as_bytes(),
        )?;
        self.outcomes.insert(id, (out, seg));
        Ok(())
    }

    /// Best live device for a (possibly keyed) placement, or `None` when
    /// the fleet has no survivors.
    fn place(&self, locality: Option<u64>) -> Option<usize> {
        self.placement_order(locality).first().copied()
    }

    /// Live devices in placement-preference order: the locality-preferred
    /// device first (when alive and its queue has room), then the rest by
    /// ascending projected load `(in_flight + 1) × sec_per_scene`, ties
    /// toward lower ids. With the EWMA at its seed (`1 / dp_gflops`) this
    /// ranks identically to the old static `dp_gflops / (1 + in_flight)`
    /// argmax; once measurements arrive, observed throughput takes over.
    fn placement_order(&self, locality: Option<u64>) -> Vec<usize> {
        let preferred = locality
            .and_then(|k| self.locality.get(&k))
            .map(|&d| d as usize)
            .filter(|&d| {
                self.workers[d].alive
                    && self.workers[d].sched.queue_len() < self.cfg.ingest.queue_capacity
            });
        let mut scored: Vec<(f64, usize)> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive)
            .map(|(i, w)| {
                (
                    (w.sched.in_flight() as f64 + 1.0) * self.sec_per_scene[i],
                    i,
                )
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut order: Vec<usize> = Vec::with_capacity(scored.len());
        if let Some(p) = preferred {
            order.push(p);
        }
        order.extend(
            scored
                .into_iter()
                .map(|(_, i)| i)
                .filter(|&i| Some(i) != preferred),
        );
        order
    }

    // -- Observability ----------------------------------------------------

    /// The router clock: ticks since construction (or since the replayed
    /// snapshot, for a recovered router).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of devices the fleet was built with (dead ones included;
    /// device ids are stable indices).
    pub fn n_devices(&self) -> usize {
        self.workers.len()
    }

    /// Live devices remaining.
    pub fn n_alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Device `i` (for arming faults and reading traces).
    pub fn device(&self, i: usize) -> &Device {
        self.workers[i].sched.batch().device()
    }

    /// Device `i`'s scheduler (read-only).
    pub fn scheduler(&self, i: usize) -> &BatchScheduler {
        &self.workers[i].sched
    }

    /// Scenes not yet in a terminal state, across the whole fleet
    /// (stranded scenes count: they are still owed a result).
    pub fn in_flight(&self) -> usize {
        self.placements.len() + self.stranded.len()
    }

    /// Where each live scene currently runs: fleet id → device index.
    pub fn placements(&self) -> &BTreeMap<SceneId, u32> {
        &self.placements
    }

    /// Durable outcomes of finished scenes.
    pub fn outcomes(&self) -> BTreeMap<SceneId, FleetOutcome> {
        self.outcomes
            .iter()
            .map(|(&id, &(out, _))| (id, out))
            .collect()
    }

    /// Scenes stranded by a total-fleet loss, still durable in the WAL.
    pub fn stranded(&self) -> &[SceneId] {
        &self.stranded
    }

    /// `Some(reason)` when a WAL failure has parked the router read-only.
    pub fn is_degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// WAL accounting (records, bytes, syncs, modeled seconds).
    pub fn wal_stats(&self) -> &WalStats {
        self.wal.stats()
    }

    /// Arms a one-shot WAL I/O fault on the chosen [`WalIoOp`]: it fails
    /// after `after` successful occurrences, which must park the router
    /// degraded rather than panic.
    pub fn arm_wal_fault(&mut self, op: WalIoOp, after: u64) {
        self.wal.arm_io_fault(op, after);
    }

    /// Arms a one-shot crash of the chosen migration victim at the chosen
    /// phase boundary of the *next* live migration the rebalancer
    /// attempts.
    pub fn arm_migration_crash(&mut self, phase: MigrationPhase, victim: MigrationVictim) {
        self.armed_migration = Some((phase, victim));
    }

    /// Fleet modeled execution time: the *maximum* modeled seconds across
    /// devices — devices run concurrently, so the slowest one sets the
    /// fleet's wall-clock analogue.
    pub fn fleet_modeled_seconds(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.sched.batch().device().modeled_seconds())
            .fold(0.0, f64::max)
    }

    /// Aggregate modeled compute: the *sum* of modeled seconds across
    /// devices — the total step work the fleet performed, and the natural
    /// denominator for overheads that tax the whole fleet's output (the
    /// WAL budget is stated against this, not against the parallel
    /// wall-clock analogue).
    pub fn fleet_aggregate_seconds(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.sched.batch().device().modeled_seconds())
            .sum()
    }
}

/// FNV-1a fingerprint of a block system's kinematic state (centroid and
/// velocity bit patterns), exposed so recovery tests can compare final
/// states across runs without serializing whole systems.
pub fn system_fingerprint(sys: &BlockSystem) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: &mut u64, bits: u64| {
        *h ^= bits;
        *h = h.wrapping_mul(0x100_0000_01b3);
    };
    for b in &sys.blocks {
        let c = b.centroid();
        eat(&mut h, c.x.to_bits());
        eat(&mut h, c.y.to_bits());
        for dof in 0..6 {
            eat(&mut h, b.velocity[dof].to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::params::DdaParams;
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dda-fleet-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
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

    fn fleet(n: usize, tag: &str) -> (FleetRouter, PathBuf) {
        let dir = temp_dir(tag);
        let devices = (0..n)
            .map(|_| Device::new(DeviceProfile::tesla_k40()))
            .collect();
        let router = FleetRouter::new(devices, RouterConfig::new(&dir)).unwrap();
        (router, dir)
    }

    #[test]
    fn fleet_runs_scenes_to_completion() {
        let (mut r, dir) = fleet(2, "complete");
        let a = r.submit(submission(0.0, 3, 1)).unwrap();
        let b = r.submit(submission(0.3, 3, 2)).unwrap();
        let ticks = r.drain(64).unwrap();
        assert!(ticks < 64, "fleet must drain");
        let outs = r.outcomes();
        assert_eq!(outs[&a].outcome, WalOutcome::Completed);
        assert_eq!(outs[&b].outcome, WalOutcome::Completed);
        assert_ne!(outs[&a].fingerprint, 0);
        assert_eq!(r.in_flight(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heterogeneous_placement_prefers_fast_idle_devices() {
        let dir = temp_dir("placement");
        let devices = vec![
            Device::new(DeviceProfile::xeon_e5620_serial()),
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k20()),
        ];
        let mut r = FleetRouter::new(devices, RouterConfig::new(&dir)).unwrap();
        let id = r.submit(submission(0.0, 2, 7)).unwrap();
        assert_eq!(
            r.placements()[&id],
            1,
            "idle K40 outranks K20 and the serial fallback"
        );
        // Same locality key sticks to the same device.
        let id2 = r.submit(submission(0.2, 2, 7)).unwrap();
        assert_eq!(r.placements()[&id2], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn process_recovery_resumes_bit_identical() {
        let dir = temp_dir("proc-recover");
        // Baseline: run two scenes to completion undisturbed.
        let mk = || {
            vec![
                Device::new(DeviceProfile::tesla_k40()),
                Device::new(DeviceProfile::tesla_k20()),
            ]
        };
        let base_dir = temp_dir("proc-recover-base");
        let mut base = FleetRouter::new(mk(), RouterConfig::new(&base_dir)).unwrap();
        let a = base.submit(submission(0.0, 6, 1)).unwrap();
        let b = base.submit(submission(0.4, 6, 2)).unwrap();
        base.drain(64).unwrap();
        let base_outs = base.outcomes();

        // Interrupted: same submissions, killed (dropped) after 3 ticks,
        // recovered from the WAL in a "new process", drained.
        let mut cfg = RouterConfig::new(&dir);
        cfg.prune = false;
        let mut r = FleetRouter::new(mk(), cfg.clone()).unwrap();
        let a2 = r.submit(submission(0.0, 6, 1)).unwrap();
        let b2 = r.submit(submission(0.4, 6, 2)).unwrap();
        assert_eq!((a, b), (a2, b2), "scene ids are deterministic");
        for _ in 0..3 {
            r.tick().unwrap();
        }
        drop(r);
        let mut rec = FleetRouter::recover(mk(), cfg).unwrap();
        rec.drain(64).unwrap();
        let rec_outs = rec.outcomes();
        assert_eq!(
            base_outs[&a].fingerprint, rec_outs[&a].fingerprint,
            "recovered trajectory must be bit-identical"
        );
        assert_eq!(base_outs[&b].fingerprint, rec_outs[&b].fingerprint);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&base_dir).unwrap();
    }

    #[test]
    fn total_fleet_loss_strands_rather_than_drops() {
        let (mut r, dir) = fleet(1, "strand");
        let _ = r.submit(submission(0.0, 50, 1)).unwrap();
        // Declare the only device dead via the watchdog path by faking a
        // stalled heartbeat: without fault injection we can't kill the
        // device, so drive the watchdog directly.
        r.workers[0].alive = false;
        r.stranded.push(0);
        r.placements.remove(&0);
        assert_eq!(r.in_flight(), 1, "stranded scenes still count");
        assert!(r.place(None).is_none());
        match r.submit(submission(0.1, 1, 2)) {
            Err(FleetError::NoSurvivors) => {}
            other => panic!("expected NoSurvivors, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebalancer_defaults_are_conservative() {
        let rb = RebalanceConfig::default();
        assert!(rb.enabled);
        assert!(rb.hysteresis > 0.0 && rb.hysteresis < 1.0);
        assert!(rb.max_per_tick >= 1);
        const { assert!(MIN_SRC_BACKLOG >= 2, "never strip a device's only scene") };
    }

    #[test]
    fn skewed_load_triggers_live_migration_with_identical_outcomes() {
        // Pile every scene onto one device via a shared locality key with
        // an aggressive rebalancer: some must migrate live, and every
        // outcome must match a rebalancer-off run bit for bit.
        let mk_cfg = |dir: &PathBuf, on: bool| {
            let mut cfg = RouterConfig::new(dir);
            cfg.rebalance.enabled = on;
            cfg.rebalance.hysteresis = 0.1;
            cfg.rebalance.max_per_tick = 2;
            cfg.rebalance.cooldown_ticks = 2;
            cfg
        };
        let mk = || {
            vec![
                Device::new(DeviceProfile::tesla_k40()),
                Device::new(DeviceProfile::tesla_k40()),
            ]
        };
        let run = |dir: &PathBuf, on: bool| {
            let mut r = FleetRouter::new(mk(), mk_cfg(dir, on)).unwrap();
            for k in 0..6 {
                r.submit(submission(0.1 * k as f64, 6, 0)).unwrap();
            }
            let ticks = r.drain(128).unwrap();
            assert!(ticks < 128, "fleet must drain");
            r
        };
        let dir_off = temp_dir("skew-off");
        let dir_on = temp_dir("skew-on");
        let base = run(&dir_off, false);
        let live = run(&dir_on, true);
        assert!(
            live.stats().rebalanced >= 1,
            "skewed locality must trigger at least one live migration, got {:?}",
            live.stats()
        );
        let base_outs = base.outcomes();
        let live_outs = live.outcomes();
        assert_eq!(base_outs.len(), live_outs.len());
        for (id, out) in &live_outs {
            assert_eq!(
                out.fingerprint, base_outs[id].fingerprint,
                "scene {id}: live migration must not perturb the trajectory"
            );
        }
        std::fs::remove_dir_all(&dir_off).unwrap();
        std::fs::remove_dir_all(&dir_on).unwrap();
    }
}
