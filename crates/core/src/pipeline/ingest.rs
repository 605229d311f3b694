//! Overload-safe asynchronous scene ingestion for the batched runtime.
//!
//! [`SceneBatch`] gave the fleet fault isolation inside the batch; this
//! module puts an admission layer *in front of* it so a fleet can be fed
//! faster than it drains without losing control of memory or latency:
//!
//! * a bounded, priority-laned intake queue with explicit backpressure: a
//!   full queue rejects with [`IngestError::QueueFull`] instead of growing,
//!   and a submission whose deadline passes before admission is shed with
//!   a structured record;
//! * [`BatchScheduler`], which drives one [`SceneBatch`] tick by tick:
//!   sheds expired work, drains the queue into retired slots at step
//!   boundaries, steps the batch, books completions and quarantines,
//!   requeues early-faulting scenes once with a repaired Δt, and compacts
//!   the batch when dead slots pass a watermark.
//!
//! Every in-flight scene, queued or in a slot, carries one [`Envelope`]:
//! run steps, priority, requeued, deadline. A [`FleetScene`] is that
//! envelope plus the scene's full [`SceneState`] — what snapshots, the
//! fleet WAL and live migration hand around. Its text form lives in
//! [`super::codec`].
//!
//! Everything here is host-side bookkeeping between steps: no modeled
//! device launches, so admission control never perturbs the physics or
//! the modeled timing of scenes already in flight.

use std::collections::{HashMap, VecDeque};

use dda_simt::Device;

use crate::params::DdaParams;
use crate::system::BlockSystem;

use super::batch::{SceneBatch, SceneState};
use super::codec::FleetCheckpoint;
use super::health::{HealthPolicy, SceneHealth, SlotState, StepError};

/// Structured rejection from the ingestion layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// The intake queue is at capacity; the caller must back off.
    QueueFull {
        /// The queue's configured bound.
        capacity: usize,
    },
    /// The submission's deadline passed before it could be admitted.
    DeadlineExpired {
        /// The deadline that was missed (absolute scheduler tick).
        deadline: u64,
        /// The scheduler clock when the miss was detected.
        now: u64,
    },
    /// The scene kept faulting: it was quarantined, repaired, requeued
    /// once, and quarantined again — the scheduler refuses it for good.
    RetryExhausted {
        /// The scene's final fault, for diagnostics.
        last_error: Option<StepError>,
    },
}

impl core::fmt::Display for IngestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IngestError::QueueFull { capacity } => {
                write!(f, "intake queue full ({capacity} pending submissions)")
            }
            IngestError::DeadlineExpired { deadline, now } => {
                write!(
                    f,
                    "deadline {deadline} expired before admission (now {now})"
                )
            }
            IngestError::RetryExhausted { last_error } => match last_error {
                Some(e) => write!(f, "retry budget exhausted; last fault: {e}"),
                None => write!(f, "retry budget exhausted"),
            },
        }
    }
}

/// Admission priority class. Higher classes drain first; within a class
/// the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Drains before everything else.
    High = 0,
    /// The default class.
    Normal = 1,
    /// Drains only when no higher class is waiting.
    Low = 2,
}

impl Priority {
    fn lane(self) -> usize {
        self as usize
    }
}

/// Opaque handle identifying one submission across its whole lifetime.
pub type Ticket = u64;

/// A scene handed to [`BatchScheduler::try_submit`].
#[derive(Debug, Clone)]
pub struct SceneSubmission {
    /// The block system to simulate.
    pub sys: BlockSystem,
    /// Its analysis parameters.
    pub params: DdaParams,
    /// Admission priority class.
    pub priority: Priority,
    /// Absolute scheduler tick by which the scene must be *admitted*;
    /// past it the submission is shed from the queue.
    pub deadline: Option<u64>,
    /// Committed steps after which the scene completes and its slot is
    /// retired.
    pub run_steps: u64,
}

impl SceneSubmission {
    /// A normal-priority submission with no deadline.
    pub fn new(sys: BlockSystem, params: DdaParams, run_steps: u64) -> SceneSubmission {
        SceneSubmission {
            sys,
            params,
            priority: Priority::Normal,
            deadline: None,
            run_steps,
        }
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> SceneSubmission {
        self.priority = priority;
        self
    }

    /// Sets the admission deadline (absolute scheduler tick).
    pub fn with_deadline(mut self, deadline: u64) -> SceneSubmission {
        self.deadline = Some(deadline);
        self
    }
}

/// How the scheduler runs one scene, wherever the scene is: in the intake
/// queue, in a batch slot, or in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Committed steps after which the scene completes.
    pub run_steps: u64,
    /// Admission priority.
    pub priority: Priority,
    /// Whether the scene has already used its post-fault requeue.
    pub requeued: bool,
    /// Admission deadline (absolute scheduler tick), if any. Admission
    /// spends it: a scene in a slot carries `None`.
    pub deadline: Option<u64>,
}

/// One in-flight scene with everything needed to resume it on any
/// scheduler: its full state, its envelope, and whether it was still
/// waiting in the intake queue.
#[derive(Debug, Clone)]
pub struct FleetScene {
    /// The captured scene state.
    pub state: SceneState,
    /// How the scheduler runs it.
    pub envelope: Envelope,
    /// True when the scene was still waiting in the intake queue.
    pub queued: bool,
}

impl FleetScene {
    fn new(state: SceneState, envelope: Envelope, queued: bool) -> FleetScene {
        FleetScene {
            state,
            envelope,
            queued,
        }
    }
}

/// A submission waiting in the [`IntakeQueue`].
#[derive(Debug)]
struct QueuedScene {
    ticket: Ticket,
    /// Full resumable state (fresh for new submissions; carries fault
    /// history for requeued ones).
    state: SceneState,
    envelope: Envelope,
    /// Scheduler tick at which the scene entered the queue.
    enqueued_at: u64,
}

/// Bounded, priority-laned intake queue with explicit backpressure: a
/// push beyond `capacity` is rejected, never buffered.
#[derive(Debug)]
struct IntakeQueue {
    capacity: usize,
    lanes: [VecDeque<QueuedScene>; 3],
}

impl IntakeQueue {
    fn new(capacity: usize) -> IntakeQueue {
        IntakeQueue {
            capacity,
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
        }
    }

    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    fn has_room(&self) -> bool {
        self.len() < self.capacity
    }

    /// Enqueues a scene, or rejects it with [`IngestError::QueueFull`]
    /// when the bound is reached.
    fn try_push(&mut self, qs: QueuedScene) -> Result<(), IngestError> {
        if !self.has_room() {
            return Err(IngestError::QueueFull {
                capacity: self.capacity,
            });
        }
        self.force_push(qs);
        Ok(())
    }

    /// Unconditional push for scenes the scheduler already accepted
    /// (restore, adoption, repair requeues): those are never dropped.
    fn force_push(&mut self, qs: QueuedScene) {
        self.lanes[qs.envelope.priority.lane()].push_back(qs);
    }

    /// Dequeues the next scene: highest priority class first, FIFO
    /// within a class.
    fn pop(&mut self) -> Option<QueuedScene> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Removes and returns `ticket`'s entry, if it is queued.
    fn remove(&mut self, ticket: Ticket) -> Option<QueuedScene> {
        self.lanes.iter_mut().find_map(|lane| {
            let pos = lane.iter().position(|qs| qs.ticket == ticket)?;
            lane.remove(pos)
        })
    }

    /// Removes and returns every queued scene whose deadline is strictly
    /// before `now` (deadline-aware load shedding).
    fn shed_expired(&mut self, now: u64) -> Vec<QueuedScene> {
        let late = |qs: &QueuedScene| matches!(qs.envelope.deadline, Some(d) if d < now);
        let mut shed = Vec::new();
        for lane in &mut self.lanes {
            let (gone, kept): (VecDeque<_>, _) = lane.drain(..).partition(late);
            shed.extend(gone);
            *lane = kept;
        }
        shed
    }
}

/// Knobs for [`BatchScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Bound on pending submissions; pushes beyond it are rejected.
    pub queue_capacity: usize,
    /// Maximum concurrent scene slots in the batch.
    pub max_slots: usize,
    /// When retired slots exceed this fraction of all slots, the batch
    /// is compacted at the next tick boundary.
    pub rebalance_watermark: f64,
    /// A scene quarantined before committing this many steps is treated
    /// as an early fault: repaired (Δt reset) and requeued once before
    /// permanent refusal.
    pub retry_window: u64,
    /// Health policy handed to the underlying [`SceneBatch`].
    pub policy: HealthPolicy,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            queue_capacity: 32,
            max_slots: 8,
            rebalance_watermark: 0.5,
            retry_window: 3,
            policy: HealthPolicy::default(),
        }
    }
}

/// Where a submission currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SceneStatus {
    /// Waiting in the intake queue.
    Queued,
    /// Stepping in the batch.
    Running {
        /// The batch slot the scene occupies.
        slot: usize,
    },
    /// Finished its requested steps; the final system is on its record.
    Completed,
    /// Shed from the queue because its admission deadline passed.
    Shed {
        /// The missed deadline.
        deadline: u64,
    },
    /// Permanently refused after exhausting its retries.
    Refused {
        /// The structured refusal reason.
        error: IngestError,
    },
}

/// Everything the scheduler remembers about one submission.
#[derive(Debug, Clone)]
pub struct SceneRecord {
    /// Admission priority class.
    pub priority: Priority,
    /// Scheduler tick at which the submission was accepted.
    pub submitted_at: u64,
    /// Scheduler tick at which the scene entered the batch (last
    /// admission, for requeued scenes).
    pub admitted_at: Option<u64>,
    /// Current lifecycle position.
    pub status: SceneStatus,
    /// The scene's final block system, for completed and refused scenes
    /// (refused scenes keep it so callers can repair and resubmit).
    pub final_sys: Option<BlockSystem>,
}

/// Aggregate counters over a [`BatchScheduler`]'s lifetime.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected with [`IngestError::QueueFull`].
    pub rejected_full: u64,
    /// Admissions into the batch (requeues admit again).
    pub admitted: u64,
    /// Scenes that finished their requested steps.
    pub completed: u64,
    /// Submissions shed for missing their deadline.
    pub shed: u64,
    /// Scenes permanently refused after exhausting retries.
    pub refused: u64,
    /// Early-faulting scenes repaired and requeued.
    pub requeued: u64,
    /// Batch compactions performed.
    pub rebalances: u64,
    /// High-water mark of the intake queue.
    pub max_queue_len: usize,
    admission_latencies: Vec<u64>,
}

impl IngestStats {
    /// Per-admission queue wait in ticks, in admission order.
    pub fn admission_latencies(&self) -> &[u64] {
        &self.admission_latencies
    }

    /// The `p`-th percentile (0–100, nearest-rank) of admission latency,
    /// or `None` before the first admission.
    pub fn admission_latency_percentile(&self, p: f64) -> Option<u64> {
        if self.admission_latencies.is_empty() {
            return None;
        }
        let mut v = self.admission_latencies.clone();
        v.sort_unstable();
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[idx.min(v.len() - 1)])
    }
}

/// What one [`BatchScheduler::tick`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickReport {
    /// Scenes admitted into the batch this tick.
    pub admitted: usize,
    /// Queued scenes shed for missing their deadline.
    pub shed: usize,
    /// Scenes that completed this tick.
    pub completed: usize,
    /// Scenes permanently refused this tick.
    pub refused: usize,
    /// Scenes repaired and requeued this tick.
    pub requeued: usize,
    /// Whether the batch was compacted this tick.
    pub rebalanced: bool,
}

/// Admission-controlled driver for one [`SceneBatch`].
///
/// Callers submit scenes through a bounded intake queue and observe their
/// lifecycle via [`Ticket`]s; [`BatchScheduler::tick`] advances the world
/// one batch step, handling shedding, admission, completion, fault-repair
/// requeues and occupancy rebalancing. All of it is host-side work
/// between steps: scenes already in flight see the exact same trajectory
/// they would in a hand-driven [`SceneBatch`]. The durable periodic
/// checkpoint is the fleet WAL's snapshot burst
/// (`RouterConfig::wal_snap_interval`); [`BatchScheduler::checkpoint_fleet`]
/// takes one on demand.
pub struct BatchScheduler {
    batch: SceneBatch,
    queue: IntakeQueue,
    cfg: IngestConfig,
    next_ticket: Ticket,
    now: u64,
    /// Ticket and envelope of the scene in each batch slot.
    occupants: Vec<Option<(Ticket, Envelope)>>,
    records: HashMap<Ticket, SceneRecord>,
    stats: IngestStats,
}

impl BatchScheduler {
    /// An idle scheduler around an empty batch on `dev`.
    pub fn new(dev: Device, cfg: IngestConfig) -> BatchScheduler {
        BatchScheduler {
            batch: SceneBatch::empty(dev).with_policy(cfg.policy),
            queue: IntakeQueue::new(cfg.queue_capacity),
            cfg,
            next_ticket: 0,
            now: 0,
            occupants: Vec::new(),
            records: HashMap::new(),
            stats: IngestStats::default(),
        }
    }

    /// The scheduler clock: ticks elapsed since construction (or since
    /// the snapshot, for a restored scheduler).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration this scheduler runs under.
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// The underlying batch (read-only; the scheduler owns its mutation).
    pub fn batch(&self) -> &SceneBatch {
        &self.batch
    }

    /// Pending submissions in the intake queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Scenes not yet in a terminal state: queued plus occupying a slot.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.occupants.iter().flatten().count()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The record for `ticket`, if the ticket was ever issued.
    pub fn status(&self, ticket: Ticket) -> Option<&SceneRecord> {
        self.records.get(&ticket)
    }

    /// Every record ever issued, keyed by ticket.
    pub fn records(&self) -> &HashMap<Ticket, SceneRecord> {
        &self.records
    }

    /// Takes `ticket`'s final block system off its record (completed and
    /// refused scenes), e.g. to repair a refused scene and resubmit it.
    pub fn take_final_sys(&mut self, ticket: Ticket) -> Option<BlockSystem> {
        self.records.get_mut(&ticket)?.final_sys.take()
    }

    /// Submits a scene. Backpressure is explicit: a full queue rejects
    /// with [`IngestError::QueueFull`] and an already-expired deadline
    /// with [`IngestError::DeadlineExpired`]; nothing is ever silently
    /// buffered beyond the bound.
    pub fn try_submit(&mut self, sub: SceneSubmission) -> Result<Ticket, IngestError> {
        if let Some(deadline) = sub.deadline.filter(|&d| d < self.now) {
            return Err(IngestError::DeadlineExpired {
                deadline,
                now: self.now,
            });
        }
        let envelope = Envelope {
            run_steps: sub.run_steps,
            priority: sub.priority,
            requeued: false,
            deadline: sub.deadline,
        };
        self.queue
            .try_push(QueuedScene {
                ticket: self.next_ticket,
                state: SceneState::fresh(sub.sys, sub.params),
                envelope,
                enqueued_at: self.now,
            })
            .inspect_err(|_| self.stats.rejected_full += 1)?;
        self.stats.submitted += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len());
        Ok(self.issue_ticket(envelope.priority))
    }

    /// Issues the next ticket with a fresh `Queued` record.
    fn issue_ticket(&mut self, priority: Priority) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.records.insert(
            ticket,
            SceneRecord {
                priority,
                submitted_at: self.now,
                admitted_at: None,
                status: SceneStatus::Queued,
                final_sys: None,
            },
        );
        ticket
    }

    /// Queues a scene the scheduler already accepted, past the bound if
    /// need be: restore, adoption and repair requeues never drop work.
    fn requeue(&mut self, ticket: Ticket, state: SceneState, envelope: Envelope) {
        self.queue.force_push(QueuedScene {
            ticket,
            state,
            envelope,
            enqueued_at: self.now,
        });
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len());
    }

    /// Puts a scene into a batch slot and marks its record running.
    fn admit(&mut self, ticket: Ticket, state: SceneState, envelope: Envelope) {
        let slot = self.batch.admit_state(state);
        if slot >= self.occupants.len() {
            self.occupants.resize(slot + 1, None);
        }
        let envelope = Envelope {
            deadline: None,
            ..envelope
        };
        self.occupants[slot] = Some((ticket, envelope));
        if let Some(r) = self.records.get_mut(&ticket) {
            r.admitted_at = Some(self.now);
            r.status = SceneStatus::Running { slot };
        }
    }

    /// Advances the world one batch step: sheds expired submissions,
    /// drains the queue into free slots, steps the batch, books
    /// completions and quarantines (requeueing early faults once with a
    /// repaired Δt), and compacts the batch when dead slots pass the
    /// watermark.
    pub fn tick(&mut self) -> TickReport {
        self.now += 1;
        let mut rep = TickReport::default();

        // 1. Deadline-aware load shedding, before admission.
        for qs in self.queue.shed_expired(self.now) {
            rep.shed += 1;
            self.stats.shed += 1;
            if let Some(r) = self.records.get_mut(&qs.ticket) {
                r.status = SceneStatus::Shed {
                    deadline: qs.envelope.deadline.unwrap_or(0),
                };
            }
        }

        // 2. Drain the queue into retired slots / free capacity.
        while self.has_capacity() && !self.queue.is_empty() {
            let Some(qs) = self.queue.pop() else { break };
            self.admit(qs.ticket, qs.state, qs.envelope);
            rep.admitted += 1;
            self.stats.admitted += 1;
            self.stats
                .admission_latencies
                .push(self.now - qs.enqueued_at);
        }

        // 3. One lockstep batch step.
        self.batch.step();

        // 4. Book terminal transitions per occupied slot.
        for slot in 0..self.batch.n_scenes() {
            let Some((ticket, envelope)) = self.occupants.get(slot).copied().flatten() else {
                continue;
            };
            let health = self.batch.health(slot);
            let quarantined = health.state == SlotState::Quarantined;
            if !quarantined && health.steps_committed < envelope.run_steps {
                continue;
            }
            self.occupants[slot] = None;
            let Some(mut st) = self.batch.extract(slot) else {
                continue;
            };
            let early = st.health.steps_committed < self.cfg.retry_window;
            let status = if !quarantined {
                rep.completed += 1;
                self.stats.completed += 1;
                SceneStatus::Completed
            } else if early && !envelope.requeued && self.queue.has_room() {
                // Early fault: repair Δt, clear the health record, and
                // give the scene one more try through the queue.
                st.params.dt = (0.1 * st.params.dt_max).max(st.params.dt_min);
                st.health = SceneHealth::new_running();
                let envelope = Envelope {
                    requeued: true,
                    ..envelope
                };
                self.requeue(ticket, st, envelope);
                rep.requeued += 1;
                self.stats.requeued += 1;
                if let Some(r) = self.records.get_mut(&ticket) {
                    r.status = SceneStatus::Queued;
                }
                continue;
            } else {
                rep.refused += 1;
                self.stats.refused += 1;
                SceneStatus::Refused {
                    error: IngestError::RetryExhausted {
                        last_error: st.health.last_error,
                    },
                }
            };
            if let Some(r) = self.records.get_mut(&ticket) {
                r.status = status;
                r.final_sys = Some(st.sys);
            }
        }

        // 5. Occupancy rebalancing: compact when dead slots pass the
        // watermark. Dead slots launch nothing and cost no modeled time;
        // compaction only reorders slots, which moves what the batch's
        // by-name launch alignment merges.
        let n = self.batch.n_scenes();
        let retired = (0..n)
            .filter(|&i| self.batch.health(i).state == SlotState::Retired)
            .count();
        if retired > 0 && (retired as f64) > self.cfg.rebalance_watermark * n as f64 {
            let map = self.batch.compact();
            let mut occupants = vec![None; self.batch.n_scenes()];
            for (old, new) in map.iter().enumerate() {
                let (Some(new), Some(occupant)) =
                    (*new, self.occupants.get(old).copied().flatten())
                else {
                    continue;
                };
                occupants[new] = Some(occupant);
                if let Some(r) = self.records.get_mut(&occupant.0) {
                    if matches!(r.status, SceneStatus::Running { .. }) {
                        r.status = SceneStatus::Running { slot: new };
                    }
                }
            }
            self.occupants = occupants;
            self.stats.rebalances += 1;
            rep.rebalanced = true;
        }

        rep
    }

    /// Ticks until nothing is in flight or `max_ticks` elapse; returns
    /// the ticks taken.
    pub fn drain(&mut self, max_ticks: usize) -> usize {
        for t in 0..max_ticks {
            if self.in_flight() == 0 {
                return t;
            }
            self.tick();
        }
        max_ticks
    }

    /// Snapshots of the in-flight scenes whose ticket `keep` selects:
    /// live slots first (in slot order), then queued submissions (in lane
    /// order).
    fn snapshots(&self, keep: impl Fn(Ticket) -> bool) -> Vec<(Ticket, FleetScene)> {
        let running = (0..self.batch.n_scenes()).filter_map(|slot| {
            let (ticket, envelope) = self.occupants.get(slot).copied().flatten()?;
            if !keep(ticket) {
                return None;
            }
            let state = self.batch.scene_state(slot)?;
            Some((ticket, FleetScene::new(state, envelope, false)))
        });
        let queued = self
            .queue
            .lanes
            .iter()
            .flatten()
            .filter(|qs| keep(qs.ticket))
            .map(|qs| {
                let scene = FleetScene::new(qs.state.clone(), qs.envelope, true);
                (qs.ticket, scene)
            });
        running.chain(queued).collect()
    }

    /// Per-ticket snapshots of everything in flight: live slots first (in
    /// slot order), then queued submissions (in lane order). Keyed by
    /// ticket so a caller journaling scenes individually (the fleet WAL)
    /// can attribute every record.
    pub fn snapshot_inflight(&self) -> Vec<(Ticket, FleetScene)> {
        self.snapshots(|_| true)
    }

    /// The snapshot of one in-flight scene (`None` for unknown or
    /// terminal tickets).
    pub(crate) fn snapshot(&self, ticket: Ticket) -> Option<FleetScene> {
        self.snapshots(|t| t == ticket).pop().map(|(_, fs)| fs)
    }

    /// [`BatchScheduler::snapshot_inflight`] without the tickets: the
    /// entire in-flight fleet as a serializable [`FleetCheckpoint`].
    /// Terminal records (completed/shed/refused) are not part of it.
    pub fn checkpoint_fleet(&self) -> FleetCheckpoint {
        FleetCheckpoint {
            taken_at_step: self.now,
            scenes: self
                .snapshot_inflight()
                .into_iter()
                .map(|(_, fs)| fs)
                .collect(),
        }
    }

    /// Rehydrates a scheduler from a [`FleetCheckpoint`] on a fresh
    /// device: live scenes re-enter batch slots with their full saved
    /// state (so their continued trajectories are bit-identical to the
    /// uninterrupted run) and queued scenes re-enter the queue — past the
    /// bound if the new config's is tighter, never dropped. Tickets are
    /// reissued; the returned list maps snapshot order to the new
    /// tickets.
    pub fn restore(
        dev: Device,
        cfg: IngestConfig,
        fleet: FleetCheckpoint,
    ) -> (BatchScheduler, Vec<Ticket>) {
        let mut s = BatchScheduler::new(dev, cfg);
        s.now = fleet.taken_at_step;
        let tickets = fleet
            .scenes
            .into_iter()
            .map(|fs| {
                let ticket = s.issue_ticket(fs.envelope.priority);
                if fs.queued {
                    s.requeue(ticket, fs.state, fs.envelope);
                } else {
                    s.admit(ticket, fs.state, fs.envelope);
                }
                ticket
            })
            .collect();
        (s, tickets)
    }

    /// Adopts one migrated scene from another scheduler's snapshot. The
    /// scene enters this scheduler's intake queue with a fresh ticket,
    /// bypassing the queue bound — a failover must never drop work the
    /// fleet already accepted, so backpressure applies only at original
    /// submission. Admission then proceeds through the normal drain path,
    /// and because trajectories are batch-composition-independent, the
    /// scene's continued evolution on this device is bit-identical to the
    /// run it was rescued from.
    pub fn adopt(&mut self, fs: FleetScene) -> Ticket {
        let ticket = self.issue_ticket(fs.envelope.priority);
        // Deadlines do not survive migration: the clock that issued them
        // died with the source device.
        let envelope = Envelope {
            deadline: None,
            ..fs.envelope
        };
        self.requeue(ticket, fs.state, envelope);
        self.stats.submitted += 1;
        ticket
    }

    /// Removes one in-flight scene from this scheduler and returns it —
    /// the source half of a live migration. A running scene is extracted
    /// from its batch slot (the slot retires and becomes reusable, exactly
    /// as on completion) and its record is dropped: after extraction this
    /// scheduler has no memory of the scene, so a fenced zombie source
    /// cannot later resurrect it. A queued scene is lifted out of its
    /// intake lane with its deadline intact. Returns `None` for unknown or
    /// already-terminal tickets.
    pub fn extract_scene(&mut self, ticket: Ticket) -> Option<FleetScene> {
        let slot = self
            .occupants
            .iter()
            .position(|o| matches!(o, Some((t, _)) if *t == ticket));
        let scene = match slot {
            Some(slot) => {
                let (_, envelope) = self.occupants[slot].take()?;
                FleetScene::new(self.batch.extract(slot)?, envelope, false)
            }
            None => {
                let qs = self.queue.remove(ticket)?;
                FleetScene::new(qs.state, qs.envelope, true)
            }
        };
        self.records.remove(&ticket);
        Some(scene)
    }

    fn has_capacity(&self) -> bool {
        if self.batch.n_scenes() < self.cfg.max_slots {
            return true;
        }
        (0..self.batch.n_scenes()).any(|i| self.batch.health(i).state == SlotState::Retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::pipeline::codec::{
        CheckpointError, SceneCheckpoint, RESTORED_INTERNAL, SCENE_MAGIC,
    };
    use crate::pipeline::GpuPipeline;
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;
    use dda_solver::{PrecondError, SolveError};

    fn k40() -> Device {
        Device::new(DeviceProfile::tesla_k40())
    }

    /// A falling block over fixed ground: contacts form after a few
    /// steps, so checkpoints exercise the contact/warm-start codec.
    fn scene() -> (BlockSystem, DdaParams) {
        let mut params = DdaParams::for_model(1.0, 5e9);
        params.dt = 0.002;
        params.dt_max = 0.002;
        let sys = BlockSystem::new(
            vec![
                Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
                Block::new(Polygon::rect(-0.5, 0.005, 0.5, 1.005), 0),
            ],
            BlockMaterial::rock(),
            JointMaterial::frictional(35.0),
        );
        (sys, params)
    }

    /// A scene whose first RHS is NaN (velocity poisoned): faults every
    /// step without any injection feature.
    fn nan_scene() -> (BlockSystem, DdaParams) {
        let (mut sys, params) = scene();
        sys.blocks[1].velocity[0] = f64::NAN;
        (sys, params)
    }

    fn queued(ticket: Ticket, priority: Priority) -> QueuedScene {
        let (sys, params) = scene();
        QueuedScene {
            ticket,
            state: SceneState::fresh(sys, params),
            envelope: Envelope {
                run_steps: 1,
                priority,
                requeued: false,
                deadline: None,
            },
            enqueued_at: 0,
        }
    }

    #[test]
    fn queue_bounds_and_priority_order() {
        let mut q = IntakeQueue::new(3);
        q.try_push(queued(1, Priority::Normal)).unwrap();
        q.try_push(queued(2, Priority::Low)).unwrap();
        q.try_push(queued(3, Priority::High)).unwrap();
        assert_eq!(
            q.try_push(queued(4, Priority::High)),
            Err(IngestError::QueueFull { capacity: 3 })
        );
        assert_eq!(q.len(), 3);
        let order: Vec<Ticket> = std::iter::from_fn(|| q.pop()).map(|qs| qs.ticket).collect();
        assert_eq!(order, vec![3, 1, 2], "High drains first, then FIFO");
        assert!(q.is_empty());
    }

    #[test]
    fn queue_sheds_only_expired_deadlines() {
        let mut q = IntakeQueue::new(8);
        let mut a = queued(1, Priority::Normal);
        a.envelope.deadline = Some(2);
        let mut b = queued(2, Priority::Normal);
        b.envelope.deadline = Some(10);
        let c = queued(3, Priority::Normal);
        q.try_push(a).unwrap();
        q.try_push(b).unwrap();
        q.try_push(c).unwrap();
        let shed = q.shed_expired(3);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].ticket, 1);
        assert_eq!(q.len(), 2, "deadline 10 and no-deadline scenes survive");
        assert!(q.shed_expired(10).is_empty(), "deadline == now is not late");
    }

    #[test]
    fn scene_checkpoint_round_trips_bitwise() {
        let mut batch = SceneBatch::new(k40(), vec![scene()]);
        batch.run(3);
        let st = batch.scene_state(0).expect("live scene");
        assert!(
            !st.contacts.is_empty(),
            "scene must have contacts so the codec is exercised"
        );
        let ck = SceneCheckpoint {
            state: st,
            taken_at_step: 3,
        };
        let text = ck.encode();
        let back = SceneCheckpoint::decode(&text).expect("decode");
        // Re-encoding the decoded checkpoint reproduces the exact text:
        // every f64 bit pattern, every counter, every contact survived.
        assert_eq!(back.encode(), text);
        assert_eq!(back.taken_at_step, 3);
        // And the reconstructed blocks carry bitwise geometry/velocity.
        for (a, b) in ck.state.sys.blocks.iter().zip(&back.state.sys.blocks) {
            let (ca, cb) = (a.centroid(), b.centroid());
            assert_eq!(ca.x.to_bits(), cb.x.to_bits());
            assert_eq!(ca.y.to_bits(), cb.y.to_bits());
            for dof in 0..6 {
                assert_eq!(a.velocity[dof].to_bits(), b.velocity[dof].to_bits());
            }
        }
    }

    #[test]
    fn step_errors_survive_the_codec() {
        let mut batch = SceneBatch::new(k40(), vec![scene()]);
        batch.step();
        let base = batch.scene_state(0).expect("live scene");
        let errors = [
            StepError::NonFiniteRhs { oc_iteration: 2 },
            StepError::NonFiniteSolution { oc_iteration: 1 },
            StepError::NonFiniteGaps { oc_iteration: 3 },
            StepError::Diverged {
                max_displacement: 1.5e9,
            },
            StepError::SolverBreakdown {
                error: SolveError::IndefiniteOperator {
                    pq: -2.5,
                    iteration: 7,
                },
            },
            StepError::SolverBreakdown {
                error: SolveError::NonFinite { iteration: 4 },
            },
            StepError::SolverBreakdown {
                error: SolveError::SingularPreconditioner { block: 9 },
            },
            StepError::PreconditionerFailed {
                error: PrecondError::ZeroPivot {
                    row: 3,
                    pivot: 1e-20,
                },
            },
            StepError::PreconditionerFailed {
                error: PrecondError::MissingDiagonal { row: 5 },
            },
            StepError::PreconditionerFailed {
                error: PrecondError::SingularBlock { block: 2 },
            },
            StepError::PreconditionerFailed {
                error: PrecondError::ZeroDiagonal { row: 8 },
            },
            StepError::OcStalled { streak: 11 },
        ];
        for err in errors {
            let mut st = base.clone();
            st.health.last_error = Some(err);
            st.health.state = SlotState::Quarantined;
            st.health.quarantined_at_step = Some(42);
            let ck = SceneCheckpoint {
                state: st,
                taken_at_step: 1,
            };
            let back = SceneCheckpoint::decode(&ck.encode()).expect("decode");
            assert_eq!(back.state.health.last_error, Some(err));
            assert_eq!(back.state.health.quarantined_at_step, Some(42));
        }
        // Internal is deliberately lossy: the variant survives, the
        // &'static str message is replaced by a placeholder.
        let mut st = base.clone();
        st.health.last_error = Some(StepError::Internal { what: "original" });
        let ck = SceneCheckpoint {
            state: st,
            taken_at_step: 1,
        };
        let back = SceneCheckpoint::decode(&ck.encode()).expect("decode");
        assert!(matches!(
            back.state.health.last_error,
            Some(StepError::Internal { what }) if what == RESTORED_INTERNAL
        ));
    }

    #[test]
    fn checkpoint_decode_rejects_garbage() {
        assert!(matches!(
            SceneCheckpoint::decode(""),
            Err(CheckpointError::Truncated)
        ));
        assert!(matches!(
            SceneCheckpoint::decode("not-a-checkpoint 1 2 3"),
            Err(CheckpointError::BadMagic { expected }) if expected == SCENE_MAGIC
        ));
        assert!(matches!(
            SceneCheckpoint::decode("ddack1 0 1 2"),
            Err(CheckpointError::Malformed { .. }) | Err(CheckpointError::Truncated)
        ));
        // A valid checkpoint with trailing garbage is rejected, not
        // silently accepted.
        let mut batch = SceneBatch::new(k40(), vec![scene()]);
        batch.step();
        let ck = SceneCheckpoint {
            state: batch.scene_state(0).expect("live scene"),
            taken_at_step: 1,
        };
        let mut text = ck.encode();
        text.push_str(" deadbeef");
        assert!(matches!(
            SceneCheckpoint::decode(&text),
            Err(CheckpointError::Malformed {
                what: "trailing tokens"
            })
        ));
    }

    #[test]
    fn scheduler_completes_scene_bitwise_equal_to_solo() {
        let (sys, params) = scene();
        let mut solo = GpuPipeline::new(sys.clone(), params.clone(), k40());
        for _ in 0..3 {
            solo.step();
        }
        let mut sched = BatchScheduler::new(k40(), IngestConfig::default());
        let t = sched
            .try_submit(SceneSubmission::new(sys, params, 3))
            .expect("queue has room");
        let ticks = sched.drain(50);
        assert!(ticks < 50, "scene must complete");
        let rec = sched.status(t).expect("ticket is known");
        assert_eq!(rec.status, SceneStatus::Completed);
        let final_sys = rec.final_sys.as_ref().expect("completed scenes keep sys");
        for (a, b) in solo.sys.blocks.iter().zip(&final_sys.blocks) {
            let (ca, cb) = (a.centroid(), b.centroid());
            assert_eq!(ca.x.to_bits(), cb.x.to_bits());
            assert_eq!(ca.y.to_bits(), cb.y.to_bits());
            for dof in 0..6 {
                assert_eq!(a.velocity[dof].to_bits(), b.velocity[dof].to_bits());
            }
        }
        assert_eq!(sched.stats().completed, 1);
        assert_eq!(sched.stats().admission_latency_percentile(50.0), Some(1));
    }

    #[test]
    fn scheduler_backpressure_rejects_over_capacity() {
        let cfg = IngestConfig {
            queue_capacity: 2,
            max_slots: 1,
            ..IngestConfig::default()
        };
        let mut sched = BatchScheduler::new(k40(), cfg);
        let (sys, params) = scene();
        for _ in 0..2 {
            sched
                .try_submit(SceneSubmission::new(sys.clone(), params.clone(), 100))
                .expect("under the bound");
        }
        let err = sched
            .try_submit(SceneSubmission::new(sys, params, 100))
            .expect_err("third submission exceeds the bound");
        assert_eq!(err, IngestError::QueueFull { capacity: 2 });
        assert_eq!(sched.stats().rejected_full, 1);
        assert_eq!(sched.queue_len(), 2, "the bound held");
    }

    #[test]
    fn scheduler_sheds_missed_deadlines() {
        let cfg = IngestConfig {
            max_slots: 1,
            ..IngestConfig::default()
        };
        let mut sched = BatchScheduler::new(k40(), cfg);
        let (sys, params) = scene();
        // Occupies the only slot for a long time.
        sched
            .try_submit(SceneSubmission::new(sys.clone(), params.clone(), 100))
            .unwrap();
        let t = sched
            .try_submit(SceneSubmission::new(sys, params, 1).with_deadline(3))
            .unwrap();
        for _ in 0..5 {
            sched.tick();
        }
        assert_eq!(
            sched.status(t).expect("known ticket").status,
            SceneStatus::Shed { deadline: 3 }
        );
        assert_eq!(sched.stats().shed, 1);
        // Submitting with an already-passed deadline is rejected outright.
        let (sys, params) = scene();
        let err = sched
            .try_submit(SceneSubmission::new(sys, params, 1).with_deadline(1))
            .expect_err("deadline already passed");
        assert!(matches!(
            err,
            IngestError::DeadlineExpired { deadline: 1, .. }
        ));
    }

    #[test]
    fn faulting_scene_is_requeued_once_then_refused() {
        let mut sched = BatchScheduler::new(k40(), IngestConfig::default());
        let (sys, params) = nan_scene();
        let t = sched
            .try_submit(SceneSubmission::new(sys, params, 10))
            .unwrap();
        for _ in 0..40 {
            sched.tick();
            if matches!(
                sched.status(t).map(|r| r.status),
                Some(SceneStatus::Refused { .. })
            ) {
                break;
            }
        }
        assert_eq!(sched.stats().requeued, 1, "exactly one repair attempt");
        assert_eq!(sched.stats().refused, 1);
        let rec = sched.status(t).expect("known ticket");
        match rec.status {
            SceneStatus::Refused {
                error: IngestError::RetryExhausted { last_error },
            } => {
                assert!(
                    matches!(last_error, Some(StepError::NonFiniteRhs { .. })),
                    "refusal keeps the structured fault: {last_error:?}"
                );
            }
            other => panic!("expected Refused, got {other:?}"),
        }
        assert!(
            rec.final_sys.is_some(),
            "refused scenes keep their system for repair-and-resubmit"
        );
        assert_eq!(sched.in_flight(), 0);
    }

    #[test]
    fn rebalance_compacts_dead_slots_and_preserves_survivors() {
        let cfg = IngestConfig {
            max_slots: 4,
            rebalance_watermark: 0.4,
            ..IngestConfig::default()
        };
        let mut sched = BatchScheduler::new(k40(), cfg);
        let (sys, params) = scene();
        let mut solo = GpuPipeline::new(sys.clone(), params.clone(), k40());
        for _ in 0..6 {
            solo.step();
        }
        // Three one-step scenes and one six-step survivor.
        for _ in 0..3 {
            sched
                .try_submit(SceneSubmission::new(sys.clone(), params.clone(), 1))
                .unwrap();
        }
        let long = sched
            .try_submit(SceneSubmission::new(sys, params, 6))
            .unwrap();
        sched.tick();
        assert_eq!(
            sched.stats().completed,
            3,
            "short scenes finish in one tick"
        );
        assert_eq!(
            sched.stats().rebalances,
            1,
            "3/4 dead slots trip the watermark"
        );
        assert_eq!(
            sched.batch().n_scenes(),
            1,
            "batch compacted to the survivor"
        );
        assert_eq!(
            sched.status(long).map(|r| r.status),
            Some(SceneStatus::Running { slot: 0 }),
            "the survivor's record follows it to its new slot"
        );
        sched.drain(20);
        let rec = sched.status(long).expect("known ticket");
        assert_eq!(rec.status, SceneStatus::Completed);
        let final_sys = rec.final_sys.as_ref().expect("completed scene keeps sys");
        for (a, b) in solo.sys.blocks.iter().zip(&final_sys.blocks) {
            let (ca, cb) = (a.centroid(), b.centroid());
            assert_eq!(ca.x.to_bits(), cb.x.to_bits(), "compaction changed physics");
            assert_eq!(ca.y.to_bits(), cb.y.to_bits());
            for dof in 0..6 {
                assert_eq!(a.velocity[dof].to_bits(), b.velocity[dof].to_bits());
            }
        }
    }

    #[test]
    fn fleet_checkpoint_restore_resumes_bitwise() {
        let cfg = IngestConfig {
            max_slots: 2,
            queue_capacity: 8,
            ..IngestConfig::default()
        };
        let mut sched = BatchScheduler::new(k40(), cfg);
        let (sys, params) = scene();
        let a = sched
            .try_submit(SceneSubmission::new(sys.clone(), params.clone(), 6))
            .unwrap();
        let b = sched
            .try_submit(
                SceneSubmission::new(sys.clone(), params.clone(), 6).with_priority(Priority::High),
            )
            .unwrap();
        // A third scene that stays queued (slots are full), proving the
        // queue survives the snapshot too.
        sched
            .try_submit(SceneSubmission::new(sys, params, 2))
            .unwrap();
        for _ in 0..3 {
            sched.tick();
        }
        let fleet = sched.checkpoint_fleet();
        assert_eq!(fleet.scenes.len(), 3, "2 live + 1 queued");
        let decoded = FleetCheckpoint::decode(&fleet.encode()).expect("fleet codec");
        assert_eq!(decoded.encode(), fleet.encode(), "fleet codec is exact");

        // The "killed process": rehydrate on a fresh device and run both
        // worlds to completion.
        let (mut restored, tickets) = BatchScheduler::restore(k40(), cfg, decoded);
        assert_eq!(restored.now(), sched.now());
        assert_eq!(restored.in_flight(), 3);
        sched.drain(50);
        restored.drain(50);
        for (orig_t, rest_t) in [a, b].iter().zip(&tickets) {
            let orig = sched.status(*orig_t).expect("known ticket");
            let rest = restored.status(*rest_t).expect("known ticket");
            assert_eq!(orig.status, SceneStatus::Completed);
            assert_eq!(rest.status, SceneStatus::Completed);
            let (osys, rsys) = (
                orig.final_sys.as_ref().expect("kept"),
                rest.final_sys.as_ref().expect("kept"),
            );
            for (x, y) in osys.blocks.iter().zip(&rsys.blocks) {
                let (cx, cy) = (x.centroid(), y.centroid());
                assert_eq!(cx.x.to_bits(), cy.x.to_bits(), "restore changed physics");
                assert_eq!(cx.y.to_bits(), cy.y.to_bits());
                for dof in 0..6 {
                    assert_eq!(x.velocity[dof].to_bits(), y.velocity[dof].to_bits());
                }
            }
        }
        assert_eq!(restored.stats().completed, 3);
    }
}
