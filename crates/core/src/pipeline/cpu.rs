//! The serial reference pipeline (Fig 1), timed under the E5620 model.

use super::driver::{self, StepOutcome};
use super::health::{all_finite, StepError};
use super::{ModuleTimes, StepReport};
use crate::assembly::assemble_contacts_serial;
use crate::contact::{
    broad_phase_serial_ws, init::init_contacts_serial, narrow_phase_serial,
    transfer_contacts_serial, Contact, ContactWorkspace,
};
use crate::interpenetration::{check_serial, GapArrays};
use crate::openclose::open_close_serial;
use crate::params::DdaParams;
use crate::stiffness::perblock::build_diag_serial;
use crate::system::BlockSystem;
use crate::update::{max_displacement, update_system};
use dda_simt::profile::DeviceProfile;
use dda_simt::serial::CpuCounter;
use dda_simt::TimingModel;
use dda_solver::serial::pcg_serial_bj;
use dda_solver::SolveError;

/// The serial DDA driver.
pub struct CpuPipeline {
    /// The evolving block system.
    pub sys: BlockSystem,
    /// Analysis controls (Δt adapts during the run).
    pub params: DdaParams,
    /// Accumulated modeled E5620 seconds per module.
    pub times: ModuleTimes,
    contacts: Vec<Contact>,
    x_prev: Vec<f64>,
    ws: ContactWorkspace,
    model: TimingModel,
    profile: DeviceProfile,
}

impl CpuPipeline {
    /// Creates a pipeline over a system.
    pub fn new(sys: BlockSystem, params: DdaParams) -> CpuPipeline {
        let n = sys.len();
        CpuPipeline {
            sys,
            params,
            times: ModuleTimes::default(),
            contacts: Vec::new(),
            x_prev: vec![0.0; 6 * n],
            ws: ContactWorkspace::new(),
            model: TimingModel::default(),
            profile: DeviceProfile::xeon_e5620_serial(),
        }
    }

    /// Current contact set (after the last step).
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// A clone of the pipeline's full resumable state — the capture half
    /// of solo-pipeline checkpointing. The health field is a fresh
    /// running record (solo pipelines keep no lifecycle machine). Must be
    /// taken at a step boundary to be resumable.
    pub fn scene_state(&self) -> super::batch::SceneState {
        super::batch::SceneState {
            sys: self.sys.clone(),
            params: self.params.clone(),
            contacts: self.contacts.clone(),
            x_prev: self.x_prev.clone(),
            times: self.times,
            health: super::health::SceneHealth::new_running(),
        }
    }

    /// Rebuilds a pipeline from a captured state — the restore half.
    /// Continuing the restored pipeline reproduces the original's
    /// trajectory bit for bit.
    pub fn from_state(st: super::batch::SceneState) -> CpuPipeline {
        let mut p = CpuPipeline::new(st.sys, st.params);
        p.contacts = st.contacts;
        p.x_prev = st.x_prev;
        p.times = st.times;
        p
    }

    fn charge(&self, c: CpuCounter) -> f64 {
        c.seconds(&self.model, &self.profile)
    }

    /// Advances one time step, reporting scene-health faults as structured
    /// errors instead of panicking. On `Err` the system state is left as it
    /// was before the step (the commit phase never ran).
    pub fn try_step(&mut self) -> Result<StepReport, StepError> {
        let mut report = StepReport::default();
        let touch = self.params.touch_distance();

        // ---- Contact detection ---------------------------------------------
        let mut cd = CpuCounter::new();
        broad_phase_serial_ws(&self.sys, self.params.contact_range, &mut cd, &mut self.ws);
        let mut contacts = narrow_phase_serial(
            &self.sys,
            &self.ws.pairs,
            self.params.contact_range,
            &mut cd,
        );
        transfer_contacts_serial(&self.contacts, &mut contacts, &mut cd);
        init_contacts_serial(&self.sys, &mut contacts, touch, &mut cd);
        self.contacts = contacts;
        // `params.broad_phase` is accepted but inert here: every broad
        // phase finds the all-pairs set, so keeping it a no-op preserves
        // CPU↔GPU trajectory identity under either setting without a
        // second code path. `params.contact_order` is ignored by every
        // driver. `params.assembly_reuse` and `params.warm_start` are
        // inert too: the serial pipeline is the reference oracle the
        // incremental/warm paths are validated against, so it always
        // recomputes in full and always starts PCG from the previous
        // step's solution.
        self.times.contact_detection += self.charge(cd);
        report.n_contacts = self.contacts.len();
        for c in self.contacts.iter_mut() {
            c.flips = 0;
        }

        // ---- Loops 2–3 ----------------------------------------------------
        let outcome = self.drive(&mut report)?;

        // ---- Data updating ----------------------------------------------------
        report.max_open_penetration = outcome.gaps.max_open_penetration(&self.contacts);
        let mut uc = CpuCounter::new();
        update_system(
            &mut self.sys,
            &outcome.d,
            &mut self.contacts,
            &outcome.gaps,
            &self.params,
            &mut uc,
        );
        self.times.updating += self.charge(uc);
        report.dt = self.params.dt;
        outcome.recover_dt_if_clean(&mut self.params);
        self.x_prev = outcome.d;
        Ok(report)
    }

    /// Advances one time step, panicking on a scene-health fault (the
    /// historical contract; healthy scenes never hit it).
    pub fn step(&mut self) -> StepReport {
        self.try_step()
            .unwrap_or_else(|e| panic!("CPU pipeline step failed: {e}"))
    }

    /// Runs `n` steps, collecting reports.
    pub fn run(&mut self, n: usize) -> Vec<StepReport> {
        (0..n).map(|_| self.step()).collect()
    }
}

impl CpuPipeline {
    /// Loop 2 (displacement control) around loop 3 (open–close iteration)
    /// for one time step, filling the loop fields of `report`. This is the
    /// reference the GPU step engine is validated against, so it shares no
    /// loop code with it.
    ///
    /// Health checks sit at the phase boundaries: a NaN/Inf right-hand
    /// side, solution, gap array, or displacement measure aborts the step
    /// with a structured [`StepError`] instead of propagating garbage into
    /// the system state.
    fn drive(&mut self, report: &mut StepReport) -> Result<StepOutcome, StepError> {
        let open_tol = self.params.open_tol();
        let mut attempt = 0;
        loop {
            // Diagonal building (depends on Δt, so it is redone per attempt).
            let mut dc = CpuCounter::new();
            let (diag, rhs0) = build_diag_serial(&self.sys, &self.params, &mut dc);
            self.times.diag_building += self.charge(dc);

            // ---- Loop 3: open–close iteration ----------------------------
            let mut d = self.x_prev.clone();
            let mut gaps = GapArrays::default();
            let mut oc_converged = false;
            report.oc_iterations = 0;
            for oc_iter in 0..self.params.oc_max_iters {
                report.oc_iterations += 1;
                let oc_iteration = report.oc_iterations;
                let freeze = driver::freeze(&self.params, oc_iter);

                let mut nd = CpuCounter::new();
                let asm = assemble_contacts_serial(
                    &self.sys,
                    &self.contacts,
                    &self.params,
                    diag.clone(),
                    rhs0.clone(),
                    &mut nd,
                );
                self.times.nondiag_building += self.charge(nd);
                report.n_upper = asm.matrix.n_upper();
                if !all_finite(&asm.rhs) {
                    return Err(StepError::NonFiniteRhs { oc_iteration });
                }

                let mut sc = CpuCounter::new();
                let res = pcg_serial_bj(
                    &asm.matrix,
                    &asm.rhs,
                    &self.x_prev,
                    self.params.pcg,
                    &mut sc,
                );
                self.times.solving += self.charge(sc);
                // The serial reference has no fallback ladder: a singular
                // preconditioner means the scene input is malformed, so
                // surface it. Curvature breakdowns still return an iterate
                // for Δt retry.
                if let Some(error @ SolveError::SingularPreconditioner { .. }) = res.error {
                    return Err(StepError::SolverBreakdown { error });
                }
                report.pcg_iterations += res.iterations;
                report.last_solve_iterations = res.iterations;
                if !all_finite(&res.x) {
                    return Err(StepError::NonFiniteSolution { oc_iteration });
                }
                d = res.x;

                let mut ic = CpuCounter::new();
                gaps = check_serial(
                    &self.sys,
                    &self.contacts,
                    &d,
                    self.params.penalty,
                    self.params.shear_ratio,
                    &mut ic,
                );
                self.times.interpenetration += self.charge(ic);
                if !gaps.all_finite() {
                    return Err(StepError::NonFiniteGaps { oc_iteration });
                }
                let mut oc = CpuCounter::new();
                let changes =
                    open_close_serial(&mut self.contacts, &gaps, open_tol, freeze, &mut oc);
                self.times.interpenetration += self.charge(oc);
                if changes == 0 && res.converged {
                    oc_converged = true;
                    break;
                }
            }
            report.oc_converged = oc_converged;

            // ---- Displacement control ------------------------------------
            let maxd = max_displacement(&self.sys, &d);
            report.max_displacement = maxd;
            if !maxd.is_finite() {
                return Err(StepError::Diverged {
                    max_displacement: maxd,
                });
            }
            let too_big = driver::too_big(&self.params, maxd);
            if driver::retry(&mut self.params, attempt, too_big, oc_converged) {
                report.retries += 1;
                attempt += 1;
                continue;
            }
            return Ok(StepOutcome {
                d,
                gaps,
                oc_converged,
                too_big,
                retries: report.retries,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::contact::ContactState;
    use crate::material::{BlockMaterial, JointMaterial};
    use dda_geom::{Polygon, Vec2};

    fn resting_stack() -> (BlockSystem, DdaParams) {
        let sys = BlockSystem::new(
            vec![
                Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
                Block::new(Polygon::rect(-0.5, 0.0, 0.5, 1.0), 0),
            ],
            BlockMaterial::rock(),
            JointMaterial::frictional(35.0),
        );
        let params = DdaParams::for_model(1.0, 5e9).static_analysis();
        (sys, params)
    }

    #[test]
    fn block_on_floor_stays_put() {
        let (sys, params) = resting_stack();
        let y0 = sys.blocks[1].centroid().y;
        let mut pipe = CpuPipeline::new(sys, params);
        for _ in 0..5 {
            let r = pipe.step();
            assert!(r.n_contacts >= 2, "contacts: {}", r.n_contacts);
        }
        let y1 = pipe.sys.blocks[1].centroid().y;
        // Penalty compliance allows a microscopic settlement only.
        assert!((y0 - y1).abs() < 5e-4, "block sank by {} m", y0 - y1);
        // No interpenetration beyond the penalty compliance scale.
        assert!(pipe.sys.total_interpenetration() < 1e-4);
    }

    #[test]
    fn unsupported_block_falls() {
        let sys = BlockSystem::new(
            vec![Block::new(Polygon::rect(0.0, 10.0, 1.0, 11.0), 0)],
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        );
        let mut params = DdaParams::for_model(1.0, 5e9); // dynamic
        params.dt = 0.01; // free flight: no stiffness constraint on Δt
        params.dt_max = 0.01;
        let mut pipe = CpuPipeline::new(sys, params);
        let y0 = pipe.sys.blocks[0].centroid().y;
        for _ in 0..10 {
            pipe.step();
        }
        let y1 = pipe.sys.blocks[0].centroid().y;
        assert!(y1 < y0 - 1e-4, "free block must fall: {y0} → {y1}");
        // And accelerate: velocity is downward.
        assert!(pipe.sys.blocks[0].velocity[1] < 0.0);
    }

    #[test]
    fn falling_block_lands_on_floor() {
        let sys = BlockSystem::new(
            vec![
                Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
                Block::new(Polygon::rect(-0.5, 0.005, 0.5, 1.005), 0), // 5 mm above
            ],
            BlockMaterial::rock(),
            JointMaterial::frictional(35.0),
        );
        let mut params = DdaParams::for_model(1.0, 5e9);
        params.dt = 0.002;
        params.dt_max = 0.002;
        let mut pipe = CpuPipeline::new(sys, params);
        for _ in 0..40 {
            pipe.step();
        }
        let b = &pipe.sys.blocks[1];
        let min_y = b
            .poly
            .vertices()
            .iter()
            .map(|v| v.y)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_y > -2e-3 && min_y < 2e-3,
            "block should rest on the floor, bottom at {min_y}"
        );
        assert!(pipe.sys.total_interpenetration() < 1e-3);
    }

    #[test]
    fn module_times_accumulate() {
        let (sys, params) = resting_stack();
        let mut pipe = CpuPipeline::new(sys, params);
        pipe.step();
        let t = pipe.times;
        assert!(t.contact_detection > 0.0);
        assert!(t.diag_building > 0.0);
        assert!(t.nondiag_building > 0.0);
        assert!(t.solving > 0.0);
        assert!(t.interpenetration > 0.0);
        assert!(t.updating > 0.0);
        // Equation solving dominates the serial pipeline (§IV) for
        // contact-rich systems... at this tiny scale just require it to be
        // a major component.
        assert!(t.solving > 0.2 * t.total());
    }

    #[test]
    fn report_fields_populated() {
        let (sys, params) = resting_stack();
        let mut pipe = CpuPipeline::new(sys, params);
        let r = pipe.step();
        assert!(r.oc_iterations >= 1);
        assert!(r.pcg_iterations >= 1);
        assert!(r.dt > 0.0);
        assert!(r.oc_converged, "resting stack must converge: {r:?}");
    }

    #[test]
    fn dt_holds_at_floor_while_step_is_dirty() {
        // Regression: a persistently non-converging scene must park Δt at
        // the floor, not thrash. Before the fix, a step accepted only
        // because the Δt floor blocked further reduction still counted as
        // "no retries", so recover_dt() raised Δt and the next step fell
        // right back — oscillating between dt_min and 1.3·dt_min forever.
        let (sys, mut params) = resting_stack();
        // Make the solver incapable of converging: impossible tolerance,
        // two iterations. Every solve reports !converged, so loop 3 never
        // converges and every step is dirty.
        params.pcg.tol = 1e-30;
        params.pcg.max_iters = 2;
        let mut pipe = CpuPipeline::new(sys, params);
        // Drive Δt down to the floor.
        for _ in 0..6 {
            let r = pipe.step();
            assert!(!r.oc_converged, "solver must be hobbled for this test");
        }
        assert_eq!(
            pipe.params.dt, pipe.params.dt_min,
            "Δt must reach the floor"
        );
        // And hold there: no recovery as long as steps stay dirty. The
        // pre-fix thrash shows up as Δt bouncing to 1.3·dt_min *after* the
        // step (recovery fired on a dirty floor-accepted step) and as a
        // wasted reduction retry on the following step.
        for step in 0..4 {
            let r = pipe.step();
            assert_eq!(
                pipe.params.dt, pipe.params.dt_min,
                "step {step}: Δt must hold at the floor, not thrash"
            );
            assert_eq!(
                r.retries, 0,
                "step {step}: floor oscillation wastes retries"
            );
        }
    }

    #[test]
    fn block_sliding_off_ramp_edge_releases_contact() {
        // A rock sliding down a steep ramp reaches the ramp's toe: the
        // vertex–edge contact's entry point runs off the edge's end. The
        // slide bookkeeping must release the contact (and let detection
        // re-find geometry) rather than silently pinning edge_ratio at 1.
        let ramp = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(0.0, 3.0),
        ]);
        // Small square resting on the incline near the toe, moving
        // downslope (the incline runs from (0,3) to (4,0); direction
        // (0.8, -0.6)).
        let s = 0.4;
        let cx = 2.8; // near the toe
        let cy = 3.0 * (1.0 - cx / 4.0) + 0.01;
        let rock = Polygon::new(vec![
            Vec2::new(cx, cy),
            Vec2::new(cx + s * 0.8, cy - s * 0.6),
            Vec2::new(cx + s * 0.8 + s * 0.6, cy - s * 0.6 + s * 0.8),
            Vec2::new(cx + s * 0.6, cy + s * 0.8),
        ]);
        let mut b = Block::new(rock, 0);
        b.velocity[0] = 2.0 * 0.8;
        b.velocity[1] = 2.0 * -0.6;
        let sys = BlockSystem::new(
            vec![Block::new(ramp, 0).fixed(), b],
            BlockMaterial::rock(),
            // Low friction so it keeps sliding.
            JointMaterial::frictional(5.0),
        );
        let mut params = DdaParams::for_model(s, 5e9);
        params.dt = 0.005;
        params.dt_max = 0.005;
        let mut pipe = CpuPipeline::new(sys, params);
        let mut saw_slide = false;
        for _ in 0..60 {
            pipe.step();
            saw_slide |= pipe
                .contacts()
                .iter()
                .any(|c| c.state == ContactState::Slide);
            // The invariant under test: no surviving closed contact may sit
            // pinned at a saturated edge ratio — sliding past the end must
            // have released it (transfer then drops it or detection re-finds
            // real geometry).
            for c in pipe.contacts() {
                if c.state == ContactState::Slide {
                    assert!(
                        c.edge_ratio < 1.0 && c.edge_ratio > 0.0,
                        "sliding contact pinned at edge end: ratio={}",
                        c.edge_ratio
                    );
                }
            }
            // Once the rock has left the ramp entirely we are done.
            if pipe.sys.blocks[1].centroid().x > 4.0 + s {
                break;
            }
        }
        assert!(saw_slide, "scenario must actually exercise the slide path");
        // The rock must end up past the toe — it was never wedged in place
        // by a contact stuck at the edge end.
        assert!(
            pipe.sys.blocks[1].centroid().x > 3.0,
            "rock stalled at x={}",
            pipe.sys.blocks[1].centroid().x
        );
    }
}
