//! Batched multi-scene throughput runtime with a fault-isolated scene
//! lifecycle.
//!
//! Small DDA scenes leave a modeled GPU mostly idle: a 60-block rockfall
//! launches kernels over a few hundred threads, so per-launch overhead and
//! low occupancy dominate. [`SceneBatch`] steps N independent scenes
//! concurrently on **one** device: the per-scene state lives side by side
//! (offset-indexed per scene), every pipeline phase is visited
//! *phase-major* across all scenes inside a device batch region, and the
//! region merges the scenes' matching kernels into one modeled launch
//! covering all scenes — amortizing launch overhead and summing warps into
//! far better occupancy.
//!
//! The three-level DDA loop runs as the step engine's **masked lockstep**
//! (`pipeline/engine.rs`): all scenes enter loop 2 (displacement control)
//! and loop 3 (open–close iteration) together, and per-scene convergence
//! masks drop finished scenes out of subsequent phases — a scene whose
//! open–close iteration converged at global iteration k simply stops
//! contributing launches, exactly like a masked-off scene slice in a real
//! packed kernel. Each scene's own control-flow decisions are evaluated
//! with scene-local data, so per-scene trajectories are **bit-identical**
//! to stepping the same scene alone in a
//! [`GpuPipeline`](super::GpuPipeline) — which is the same engine with one
//! scene. This module adds only the slot lifecycle on top.
//!
//! # Scene lifecycle and fault isolation
//!
//! Each batch position is a *slot* carrying a [`SceneHealth`] record whose
//! [`SlotState`] walks `Running → Degraded → Quarantined → Retired`:
//!
//! - **Streaming admission**: [`SceneBatch::admit`] adds a scene at a step
//!   boundary without draining the batch (reusing a retired slot when one
//!   is free); [`SceneBatch::retire`] frees a slot and hands its system
//!   back. Slots never move: a scene keeps its index from admission to
//!   retirement, and a retired slot launches nothing.
//! - **Health monitoring**: phase boundaries scan the faulting scene's RHS,
//!   solution, and gap arrays for NaN/Inf, bound the accepted displacement
//!   (divergence), and watch for a pinned open–close loop. The scans are
//!   host-side — no launches, no modeled time — so healthy scenes stay bit-
//!   and time-identical to an unmonitored run.
//! - **Graceful degradation**: a scene whose configured preconditioner
//!   rung fails to construct or breaks down walks its own fallback ladder
//!   ([`DdaParams::solver_ladder`]); a lower rung that succeeds marks the
//!   scene [`SlotState::Degraded`] but keeps it moving.
//! - **Fault isolation**: a faulted scene's step is *not committed* — its
//!   system and warm-start stay frozen — its Δt backs off exponentially,
//!   and [`HealthPolicy::retry_budget`] consecutive failures quarantine it.
//!   Batch-mates never see any of this: their masked launches and values
//!   are unchanged.
//!
//! Launch accounting per step is exposed as `(launches_in, launches_out)`:
//! the launches the N scenes would have issued solo versus the merged
//! launches the batch actually modeled.

use super::engine::{step_scenes, SceneCore};
use super::health::{HealthPolicy, SceneHealth, SlotState, StepError};
use super::{ModuleTimes, Phase, StepReport};
use crate::contact::Contact;
use crate::params::DdaParams;
use crate::system::BlockSystem;
use dda_simt::Device;

/// One batch position: the scene payload (absent once retired) plus its
/// lifecycle health record.
struct SceneSlot {
    scene: Option<SceneCore>,
    health: SceneHealth,
}

/// Full-fidelity snapshot of one slot's scene: everything needed to
/// re-create the scene elsewhere (another slot, another batch, another
/// process) with a bit-identical trajectory — the evolving system, the
/// parameters (including Δt backoff), the contact set (whose transfer
/// history seeds the next detection), the PCG warm start, the per-module
/// accounting, and the health record. Derived caches (SoA mirrors, solver
/// format cache) are deliberately absent: they are rebuilt deterministically
/// and never influence trajectory values.
#[derive(Debug, Clone)]
pub struct SceneState {
    /// The evolving block system.
    pub sys: BlockSystem,
    /// Analysis parameters (Δt carries the backoff state).
    pub params: DdaParams,
    /// Current contact set (transfer history).
    pub contacts: Vec<Contact>,
    /// Previous accepted solution (PCG warm start / loop-3 seed).
    pub x_prev: Vec<f64>,
    /// Accumulated modeled seconds per module.
    pub times: ModuleTimes,
    /// Lifecycle health record at snapshot time.
    pub health: SceneHealth,
}

impl SceneState {
    /// The state of a scene that has not stepped yet: a zero warm start
    /// (six entries per block), no contacts, zero module times, and a
    /// running health record.
    pub fn fresh(sys: BlockSystem, params: DdaParams) -> SceneState {
        SceneState {
            x_prev: vec![0.0; 6 * sys.len()],
            sys,
            params,
            contacts: Vec::new(),
            times: ModuleTimes::default(),
            health: SceneHealth::new_running(),
        }
    }
}

/// Steps N independent scenes concurrently on one modeled device (see the
/// module docs for the batching model and the scene lifecycle).
pub struct SceneBatch {
    dev: Device,
    slots: Vec<SceneSlot>,
    policy: HealthPolicy,
    step_index: u64,
    launches_in: u64,
    launches_out: u64,
}

impl SceneBatch {
    /// Packs `scenes` onto `dev`. Panics if `scenes` is empty.
    pub fn new(dev: Device, scenes: Vec<(BlockSystem, DdaParams)>) -> SceneBatch {
        assert!(!scenes.is_empty(), "a batch needs at least one scene");
        let slots = scenes
            .into_iter()
            .map(|(sys, params)| SceneSlot {
                scene: Some(SceneCore::new(sys, params)),
                health: SceneHealth::new_running(),
            })
            .collect();
        SceneBatch {
            dev,
            slots,
            policy: HealthPolicy::default(),
            step_index: 0,
            launches_in: 0,
            launches_out: 0,
        }
    }

    /// An empty batch: no slots yet, scenes arrive through
    /// [`SceneBatch::admit`] (this is how the ingestion scheduler starts a
    /// fleet). Stepping an empty batch is a safe no-op.
    pub fn empty(dev: Device) -> SceneBatch {
        SceneBatch {
            dev,
            slots: Vec::new(),
            policy: HealthPolicy::default(),
            step_index: 0,
            launches_in: 0,
            launches_out: 0,
        }
    }

    /// The batch's step counter (increments once per [`SceneBatch::step`]).
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Overrides the degradation policy (retry budget, stall limit).
    pub fn with_policy(mut self, policy: HealthPolicy) -> SceneBatch {
        self.policy = policy;
        self
    }

    /// Number of slots in the batch (including quarantined/retired ones —
    /// slot indices are stable for the batch's lifetime).
    pub fn n_scenes(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently stepping (Running or Degraded).
    pub fn n_live(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.health.is_stepping() && s.scene.is_some())
            .count()
    }

    /// Admits a new scene at the next step boundary: it joins the merged
    /// launches of the following [`SceneBatch::step`] without draining the
    /// batch. Reuses a retired slot when one is free (keeping batch
    /// regions dense), otherwise appends. Returns the slot index.
    ///
    /// A reused slot is rebuilt from scratch — fresh scene payload *and*
    /// fresh [`SceneHealth`] — so a new scene can never inherit its
    /// predecessor's failure counters or Δt backoff.
    pub fn admit(&mut self, sys: BlockSystem, params: DdaParams) -> usize {
        self.admit_state(SceneState::fresh(sys, params))
    }

    /// Admits a previously captured [`SceneState`] — the restore half of
    /// checkpointing and the mechanism behind requeue-after-repair. The
    /// scene resumes with its saved system, contact history, warm start,
    /// Δt backoff, and health record, so its continued trajectory is
    /// bit-identical to never having left the batch. Placement follows
    /// [`SceneBatch::admit`] (retired slot first, else append).
    pub fn admit_state(&mut self, st: SceneState) -> usize {
        let (scene, health) = SceneCore::from_state(st);
        let slot = SceneSlot {
            scene: Some(scene),
            health,
        };
        match self
            .slots
            .iter()
            .position(|s| s.health.state == SlotState::Retired)
        {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// Retires slot `i`, freeing it for re-admission, and hands back the
    /// scene's final block system (`None` if the slot was already empty).
    /// Works on any state — finished scenes and quarantined ones alike.
    pub fn retire(&mut self, i: usize) -> Option<BlockSystem> {
        self.extract(i).map(|st| st.sys)
    }

    /// Retires slot `i` and hands back the scene's **full** state — system,
    /// parameters, contacts, warm start, times, and the pre-retirement
    /// health record — so the caller can repair and resubmit it, or
    /// checkpoint it. The slot itself is left with a clean
    /// [`SceneHealth::retired`] record (no inherited degradation).
    pub fn extract(&mut self, i: usize) -> Option<SceneState> {
        let slot = self.slots.get_mut(i)?;
        let health = std::mem::replace(&mut slot.health, SceneHealth::retired());
        Some(slot.scene.take()?.into_state(health))
    }

    /// A clone of slot `i`'s full scene state (`None` for empty slots) —
    /// the capture half of checkpointing. Must be taken at a step boundary
    /// for the snapshot to be resumable.
    pub fn scene_state(&self, i: usize) -> Option<SceneState> {
        let slot = self.slots.get(i)?;
        Some(slot.scene.as_ref()?.state(slot.health.clone()))
    }

    /// Slot `i`'s health record (state machine position, failure counters,
    /// last fault).
    pub fn health(&self, i: usize) -> &SceneHealth {
        &self.slots[i].health
    }

    /// The degradation policy in force.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// The shared device (for trace inspection).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    fn scene(&self, i: usize) -> Option<&SceneCore> {
        self.slots.get(i)?.scene.as_ref()
    }

    /// Scene `i`'s evolving block system (`None` once the slot is retired
    /// or out of range).
    pub fn sys(&self, i: usize) -> Option<&BlockSystem> {
        self.scene(i).map(|sc| &sc.sys)
    }

    /// Scene `i`'s analysis parameters (Δt adapts per scene). `None` once
    /// the slot is retired or out of range.
    pub fn params(&self, i: usize) -> Option<&DdaParams> {
        self.scene(i).map(|sc| &sc.params)
    }

    /// Scene `i`'s current contact set (`None` once the slot is retired or
    /// out of range).
    pub fn contacts(&self, i: usize) -> Option<&[Contact]> {
        self.scene(i).map(|sc| sc.contacts.as_slice())
    }

    /// Scene `i`'s accumulated modeled seconds per module (its share of
    /// every merged launch, split by modeled work). `None` once the slot
    /// is retired or out of range.
    pub fn times(&self, i: usize) -> Option<&ModuleTimes> {
        self.scene(i).map(|sc| &sc.times)
    }

    /// Scene `i`'s broad-phase cache diagnostics `(hits, rebuilds)`
    /// (both zero unless the scene runs
    /// [`crate::contact::BroadPhaseMode::GridCached`]).
    pub fn broad_cache_stats(&self, i: usize) -> Option<(u64, u64)> {
        self.scene(i)
            .map(|sc| (sc.ws.cache.hits, sc.ws.cache.rebuilds))
    }

    /// Scene `i`'s ordering-cache diagnostics `(resorts, reuses,
    /// switches)` (all zero under
    /// [`ContactOrder::Discovery`](crate::contact::ContactOrder::Discovery)).
    pub fn contact_order_stats(&self, i: usize) -> Option<(u64, u64, u64)> {
        self.scene(i).map(|sc| sc.ws.order.stats())
    }

    /// Sum of all scenes' module times.
    pub fn total_times(&self) -> ModuleTimes {
        let mut t = ModuleTimes::default();
        for sc in self.slots.iter().filter_map(|s| s.scene.as_ref()) {
            for p in Phase::ALL {
                t[p] += sc.times[p];
            }
        }
        t
    }

    /// Launch accounting of the last step: `(launches_in, launches_out)` —
    /// what the scenes would have launched solo vs what the batch modeled
    /// after merging.
    pub fn last_step_launches(&self) -> (u64, u64) {
        (self.launches_in, self.launches_out)
    }

    /// Books a fault against slot `i`: Δt backs off exponentially and the
    /// scene keeps retrying until the budget is spent, then quarantines
    /// frozen at its last accepted state.
    fn record_fault(&mut self, i: usize, err: StepError) {
        let slot = &mut self.slots[i];
        slot.health.total_faults += 1;
        slot.health.consecutive_failures += 1;
        slot.health.last_error = Some(err);
        if slot.health.consecutive_failures > self.policy.retry_budget {
            slot.health.state = SlotState::Quarantined;
            slot.health.quarantined_at_step = Some(self.step_index);
        } else {
            slot.health.state = SlotState::Degraded;
            if let Some(sc) = slot.scene.as_mut() {
                sc.params.reduce_dt();
            }
        }
    }

    /// Advances every stepping scene one time step, returning one report
    /// per slot (slots that did not step, or whose step faulted and was
    /// not committed, get a default report).
    pub fn step(&mut self) -> Vec<StepReport> {
        self.step_index += 1;
        let policy = self.policy;
        let (mut scenes, mut healths): (Vec<_>, Vec<_>) = self
            .slots
            .iter_mut()
            .map(|s| {
                let stepping = s.health.is_stepping();
                (s.scene.as_mut().filter(|_| stepping), &mut s.health)
            })
            .unzip();
        // Stall detector: an accepted-but-dirty step extends the scene's
        // streak; past the policy limit the step is demoted to a fault so
        // a permanently pinned open–close loop quarantines instead of
        // spinning at the Δt floor forever.
        let stall_detector = |i: usize, out: &super::StepOutcome| {
            let h: &mut SceneHealth = healths[i];
            h.oc_stall_streak = if out.oc_converged {
                0
            } else {
                h.oc_stall_streak + 1
            };
            if h.oc_stall_streak >= policy.oc_stall_limit {
                return Err(StepError::OcStalled {
                    streak: h.oc_stall_streak,
                });
            }
            Ok(())
        };
        // A finite displacement larger than this multiple of the
        // displacement bound counts as divergence.
        const DIVERGENCE_FACTOR: f64 = 1e4;
        let step = step_scenes(&self.dev, &mut scenes, DIVERGENCE_FACTOR, stall_detector);
        self.launches_in = step.launches_in;
        self.launches_out = step.launches_out;

        let mut reports = vec![StepReport::default(); self.slots.len()];
        for (i, result) in step.results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            let slot = &mut self.slots[i];
            if let Some(sc) = slot.scene.as_ref() {
                slot.health.fallback_solves = sc.fallback_solves;
            }
            match result {
                Ok(report) => {
                    // Committed step: clear the failure streak; a scene
                    // that got here on its configured rung is healthy.
                    slot.health.consecutive_failures = 0;
                    slot.health.steps_committed += 1;
                    slot.health.state = if report.fallback_level > 0 {
                        SlotState::Degraded
                    } else {
                        SlotState::Running
                    };
                    reports[i] = report;
                }
                Err(err) => self.record_fault(i, err),
            }
        }
        reports
    }

    /// Runs `n` steps; element `[s][i]` is scene `i`'s report at step `s`.
    pub fn run(&mut self, n: usize) -> Vec<Vec<StepReport>> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::pipeline::GpuPipeline;
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;

    fn k40() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    /// A family of small distinct scenes: a resting stack, a falling
    /// block, and an offset stack — different contact histories, different
    /// convergence behavior.
    fn scene(kind: usize) -> (BlockSystem, DdaParams) {
        let (top, params) = match kind % 3 {
            0 => (
                Polygon::rect(-0.5, 0.0, 0.5, 1.0),
                DdaParams::for_model(1.0, 5e9).static_analysis(),
            ),
            1 => {
                let mut p = DdaParams::for_model(1.0, 5e9);
                p.dt = 0.002;
                p.dt_max = 0.002;
                (Polygon::rect(-0.5, 0.005, 0.5, 1.005), p)
            }
            _ => (
                Polygon::rect(0.3, 0.0, 1.3, 1.0),
                DdaParams::for_model(1.0, 5e9).static_analysis(),
            ),
        };
        let sys = BlockSystem::new(
            vec![
                Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
                Block::new(top, 0),
            ],
            BlockMaterial::rock(),
            JointMaterial::frictional(35.0),
        );
        (sys, params)
    }

    #[test]
    fn batch_trajectories_bit_identical_to_solo() {
        let n = 3;
        let mut solos: Vec<GpuPipeline> = (0..n)
            .map(|k| {
                let (sys, params) = scene(k);
                GpuPipeline::new(sys, params, k40())
            })
            .collect();
        let mut batch = SceneBatch::new(k40(), (0..n).map(scene).collect());
        for step in 0..4 {
            let rb = batch.step();
            for (i, solo) in solos.iter_mut().enumerate() {
                let rs = solo.step();
                assert_eq!(rs.n_contacts, rb[i].n_contacts, "step {step} scene {i}");
                assert_eq!(
                    rs.oc_iterations, rb[i].oc_iterations,
                    "step {step} scene {i}"
                );
                assert_eq!(rs.retries, rb[i].retries, "step {step} scene {i}");
                assert_eq!(
                    rs.pcg_iterations, rb[i].pcg_iterations,
                    "step {step} scene {i}"
                );
                assert_eq!(rs.oc_converged, rb[i].oc_converged, "step {step} scene {i}");
                assert_eq!(rs.dt.to_bits(), rb[i].dt.to_bits(), "step {step} scene {i}");
                // Bit-identical state: positions and velocities match
                // exactly, not merely within tolerance.
                let bsys = batch.sys(i).expect("live scene");
                for (bs, bb) in solo.sys.blocks.iter().zip(&bsys.blocks) {
                    let (cs, cb) = (bs.centroid(), bb.centroid());
                    assert_eq!(cs.x.to_bits(), cb.x.to_bits(), "step {step} scene {i}");
                    assert_eq!(cs.y.to_bits(), cb.y.to_bits(), "step {step} scene {i}");
                    for dof in 0..6 {
                        assert_eq!(
                            bs.velocity[dof].to_bits(),
                            bb.velocity[dof].to_bits(),
                            "step {step} scene {i} dof {dof}"
                        );
                    }
                }
                // And the contact bookkeeping agrees.
                let bcontacts = batch.contacts(i).expect("live scene");
                assert_eq!(solo.contacts().len(), bcontacts.len());
                for (cs, cb) in solo.contacts().iter().zip(bcontacts) {
                    assert_eq!(cs.state, cb.state, "step {step} scene {i}");
                    assert_eq!(
                        cs.edge_ratio.to_bits(),
                        cb.edge_ratio.to_bits(),
                        "step {step} scene {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_merges_launches_and_beats_serial_time() {
        let n = 4;
        let mut batch = SceneBatch::new(k40(), (0..n).map(|_| scene(0)).collect());
        let mut solos: Vec<GpuPipeline> = (0..n)
            .map(|_| {
                let (sys, params) = scene(0);
                GpuPipeline::new(sys, params, k40())
            })
            .collect();
        batch.step();
        for s in solos.iter_mut() {
            s.step();
        }
        let (l_in, l_out) = batch.last_step_launches();
        assert!(
            l_out < l_in,
            "merging must reduce launches: {l_out} vs {l_in}"
        );
        // Identical scenes merge near-perfectly: ~n× fewer launches.
        assert!(
            (l_out as f64) < (l_in as f64) / (n as f64 - 1.0),
            "expected ~{n}× merge, got {l_in} -> {l_out}"
        );
        let serial: f64 = solos.iter().map(|s| s.device().modeled_seconds()).sum();
        let batched = batch.device().modeled_seconds();
        assert!(
            batched < serial,
            "batched {batched} s must beat serial-loop {serial} s"
        );
    }

    #[test]
    fn batch_of_one_keeps_solo_accounting() {
        let mut batch = SceneBatch::new(k40(), vec![scene(0)]);
        batch.step();
        let (l_in, l_out) = batch.last_step_launches();
        assert_eq!(l_in, l_out, "a single scene has nothing to merge with");
    }

    #[test]
    fn per_scene_times_sum_to_device_total() {
        let mut batch = SceneBatch::new(k40(), (0..3).map(scene).collect());
        batch.run(2);
        let total = batch.total_times().total();
        let dev = batch.device().modeled_seconds();
        assert!(
            (total - dev).abs() < 1e-9 * dev.max(1e-12),
            "attributed {total} s vs device {dev} s"
        );
        for i in 0..3 {
            let t = batch.times(i).expect("live scene");
            assert!(t.total() > 0.0, "scene {i} got no time share");
        }
    }

    #[test]
    fn admitted_scene_joins_without_draining_the_batch() {
        let mut batch = SceneBatch::new(k40(), (0..2).map(scene).collect());
        batch.step();
        // A solo pipeline tracks what the late scene should do once it
        // joins — admission must not perturb anyone's trajectory.
        let (sys, params) = scene(2);
        let mut solo = GpuPipeline::new(sys.clone(), params.clone(), k40());
        let slot = batch.admit(sys, params);
        assert_eq!(slot, 2, "no retired slot to reuse: appended");
        assert_eq!(batch.n_live(), 3);
        for step in 0..3 {
            let rb = batch.step();
            let rs = solo.step();
            assert_eq!(rs.oc_iterations, rb[slot].oc_iterations, "step {step}");
            let bsys = batch.sys(slot).expect("live scene");
            for (bs, bb) in solo.sys.blocks.iter().zip(&bsys.blocks) {
                assert_eq!(bs.centroid().x.to_bits(), bb.centroid().x.to_bits());
                assert_eq!(bs.centroid().y.to_bits(), bb.centroid().y.to_bits());
            }
        }
    }

    #[test]
    fn retired_slot_is_reused_by_admission() {
        let mut batch = SceneBatch::new(k40(), (0..3).map(scene).collect());
        batch.step();
        let sys = batch.retire(1).expect("slot 1 held a scene");
        assert!(!sys.blocks.is_empty());
        assert_eq!(batch.health(1).state, SlotState::Retired);
        assert_eq!(batch.n_live(), 2);
        assert!(batch.retire(1).is_none(), "already retired");
        // The freed slot is reused, not appended after.
        let (s2, p2) = scene(1);
        assert_eq!(batch.admit(s2, p2), 1);
        assert_eq!(batch.n_scenes(), 3);
        assert_eq!(batch.n_live(), 3);
        assert_eq!(batch.health(1).state, SlotState::Running);
        // And the refreshed batch still steps.
        let reports = batch.step();
        assert_eq!(reports.len(), 3);
        assert!(reports[1].oc_iterations >= 1);
    }

    #[test]
    fn all_quarantined_batch_steps_to_noop() {
        let mut batch = SceneBatch::new(k40(), vec![scene(0)]);
        batch.retire(0);
        let reports = batch.step();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].oc_iterations, 0, "retired slot must not step");
        assert_eq!(batch.n_live(), 0);
    }

    #[test]
    fn empty_batch_steps_and_admits() {
        let mut batch = SceneBatch::empty(k40());
        assert_eq!(batch.n_scenes(), 0);
        assert!(batch.step().is_empty(), "empty batch steps to nothing");
        let (sys, params) = scene(0);
        assert_eq!(batch.admit(sys, params), 0);
        let reports = batch.step();
        assert!(reports[0].oc_iterations >= 1);
    }

    #[test]
    fn accessors_return_none_for_retired_and_out_of_range_slots() {
        let mut batch = SceneBatch::new(k40(), vec![scene(0)]);
        assert!(batch.sys(0).is_some());
        batch.retire(0);
        assert!(batch.sys(0).is_none());
        assert!(batch.params(0).is_none());
        assert!(batch.contacts(0).is_none());
        assert!(batch.times(0).is_none());
        assert!(batch.sys(7).is_none(), "out-of-range is None, not a panic");
    }

    /// Regression (satellite): a reused slot must not inherit its
    /// predecessor's failure counters or Δt backoff.
    #[test]
    fn readmission_resets_health_and_backoff() {
        let mut batch = SceneBatch::new(k40(), (0..2).map(scene).collect());
        batch.run(2);
        // Manufacture a degraded predecessor: poison its health record the
        // way repeated faults would.
        {
            let slot = &mut batch.slots[1];
            slot.health.consecutive_failures = 3;
            slot.health.total_faults = 5;
            slot.health.oc_stall_streak = 4;
            slot.health.last_error = Some(StepError::OcStalled { streak: 4 });
            slot.health.state = SlotState::Quarantined;
            slot.health.quarantined_at_step = Some(2);
            if let Some(sc) = slot.scene.as_mut() {
                while sc.params.reduce_dt() {}
            }
        }
        let st = batch.extract(1).expect("quarantined slot holds state");
        assert_eq!(st.health.total_faults, 5, "extract preserves post-mortem");
        assert_eq!(
            batch.health(1).state,
            SlotState::Retired,
            "slot freed after extract"
        );
        assert_eq!(batch.health(1).total_faults, 0, "slot record is clean");
        let (sys, params) = scene(1);
        let dt_fresh = params.dt;
        let slot = batch.admit(sys, params);
        assert_eq!(slot, 1, "retired slot is reused");
        let h = batch.health(1);
        assert_eq!(h.state, SlotState::Running);
        assert_eq!(h.consecutive_failures, 0);
        assert_eq!(h.total_faults, 0);
        assert_eq!(h.oc_stall_streak, 0);
        assert_eq!(h.steps_committed, 0);
        assert!(h.last_error.is_none());
        assert!(h.quarantined_at_step.is_none());
        assert_eq!(
            batch.params(1).expect("live scene").dt.to_bits(),
            dt_fresh.to_bits(),
            "no inherited Δt backoff"
        );
    }

    #[test]
    fn commit_counts_steps_per_scene() {
        let mut batch = SceneBatch::new(k40(), (0..2).map(scene).collect());
        batch.run(3);
        assert_eq!(batch.health(0).steps_committed, 3);
        assert_eq!(batch.health(1).steps_committed, 3);
    }

    #[test]
    fn extract_admit_state_round_trip_is_bitwise() {
        // Run two identical fleets; mid-run, bounce scene 1 of the second
        // batch through extract + admit_state. Trajectories must match the
        // undisturbed batch bit-for-bit afterwards.
        let mut a = SceneBatch::new(k40(), (0..3).map(scene).collect());
        let mut b = SceneBatch::new(k40(), (0..3).map(scene).collect());
        a.run(2);
        b.run(2);
        let st = b.extract(1).expect("live scene");
        assert_eq!(b.n_live(), 2);
        assert_eq!(b.admit_state(st), 1, "retired slot is reused");
        a.run(3);
        b.run(3);
        for i in 0..3 {
            let (sa, sb) = (a.sys(i).expect("live"), b.sys(i).expect("live"));
            for (ba, bb) in sa.blocks.iter().zip(&sb.blocks) {
                assert_eq!(ba.centroid().x.to_bits(), bb.centroid().x.to_bits());
                assert_eq!(ba.centroid().y.to_bits(), bb.centroid().y.to_bits());
                for dof in 0..6 {
                    assert_eq!(ba.velocity[dof].to_bits(), bb.velocity[dof].to_bits());
                }
            }
        }
        assert_eq!(
            a.health(1).steps_committed,
            b.health(1).steps_committed,
            "health continuity across the bounce"
        );
    }

    #[test]
    fn retired_slots_stay_put_and_survivors_continue_bitwise() {
        let mut full = SceneBatch::new(k40(), (0..4).map(scene).collect());
        let mut thinned = SceneBatch::new(k40(), (0..4).map(scene).collect());
        full.run(2);
        thinned.run(2);
        thinned.retire(1);
        thinned.retire(3);
        assert_eq!(thinned.n_scenes(), 4, "slots never move");
        assert_eq!(thinned.n_live(), 2);
        // Survivors keep slots 0 and 2 and continue bit-identically to the
        // untouched batch.
        full.run(3);
        thinned.run(3);
        for i in [0usize, 2] {
            let (sf, st) = (full.sys(i).expect("live"), thinned.sys(i).expect("live"));
            for (bf, bt) in sf.blocks.iter().zip(&st.blocks) {
                assert_eq!(bf.centroid().x.to_bits(), bt.centroid().x.to_bits());
                assert_eq!(bf.centroid().y.to_bits(), bt.centroid().y.to_bits());
                for dof in 0..6 {
                    assert_eq!(bf.velocity[dof].to_bits(), bt.velocity[dof].to_bits());
                }
            }
        }
        assert!(thinned.sys(1).is_none() && thinned.sys(3).is_none());
    }
}
