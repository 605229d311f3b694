//! The GPU step engine: the one loop that advances scenes on a device.
//!
//! Fig 2's three-level loop (Δt control → open–close iteration → solve)
//! runs here as a **masked lockstep** over any number of scenes: every
//! pipeline phase visits all participating scenes inside one device batch
//! region (one segment per scene), so matching kernels of different
//! scenes merge into one modeled launch, and per-scene masks drop scenes
//! out of later phases as they converge, retry or fault. Each scene's
//! control flow is decided from scene-local data only, so a scene's
//! trajectory and modeled time do not depend on who else is in the batch —
//! a batch of one *is* the solo pipeline.
//!
//! [`GpuPipeline`](super::GpuPipeline) and
//! [`SceneBatch`](super::SceneBatch) are shells over [`step_scenes`]: the
//! first owns one [`SceneCore`] and maps a fault to `Err`; the second owns
//! the slot lifecycle (admission, health, quarantine) around many.

use super::batch::SceneState;
use super::driver::{StepOutcome, MAX_RETRIES};
use super::health::{all_finite, SceneHealth, StepError};
use super::solver_cache::SolverCache;
use super::{ModuleTimes, Phase, StepReport};
use crate::assembly::{assemble_contacts_gpu_scheduled, AssembledSystem};
use crate::assembly_cache::{AssemblyCache, AssemblyStats};
use crate::contact::init::init_contacts_classified;
use crate::contact::{
    detect_broad_gpu, narrow_phase_gpu_scheduled, transfer_contacts_gpu_scheduled, Contact,
    ContactOrder, ContactWorkspace, GeomSoa,
};
use crate::interpenetration::{check_gpu, BranchScheme, GapArrays};
use crate::openclose::{categorize_gpu, open_close_gpu};
use crate::params::{AssemblyReuse, DdaParams, SolverWarmStart};
use crate::stiffness::perblock::{build_diag_gpu, BlockSoa};
use crate::system::BlockSystem;
use crate::update::{max_displacement, update_system};
use dda_simt::serial::CpuCounter;
use dda_simt::{BatchSummary, Device, Fault, KernelStats};
use dda_solver::{pcg_fused_batch, SolveResult, SolverPrecision};
use dda_sparse::Block6;

/// One scene as the engine sees it: the evolving system and everything
/// that persists between its steps. The contact set, stiffness system and
/// solver state stay device-resident across modules; only scalar controls
/// cross back to the host, as in the paper.
pub struct SceneCore {
    /// The evolving block system (host mirror of device state).
    pub sys: BlockSystem,
    /// Analysis controls (Δt adapts during the run).
    pub params: DdaParams,
    /// Accumulated modeled device seconds per module.
    pub times: ModuleTimes,
    pub(crate) contacts: Vec<Contact>,
    pub(crate) x_prev: Vec<f64>,
    pub(crate) ws: ContactWorkspace,
    pub(crate) cache: SolverCache,
    pub(crate) acache: AssemblyCache,
    /// Lifetime count of solves that left the configured ladder rung.
    pub(crate) fallback_solves: usize,
    // Staged PCG starting iterate (warm iterate or `x_prev`); a field so
    // the batched-entry borrow never conflicts with the solver cache's.
    x0: Vec<f64>,
}

impl SceneCore {
    pub(crate) fn new(sys: BlockSystem, params: DdaParams) -> SceneCore {
        let n = sys.len();
        SceneCore {
            sys,
            params,
            times: ModuleTimes::default(),
            contacts: Vec::new(),
            x_prev: vec![0.0; 6 * n],
            ws: ContactWorkspace::new(),
            cache: SolverCache::default(),
            acache: AssemblyCache::new(),
            fallback_solves: 0,
            x0: Vec::new(),
        }
    }

    /// Rebuilds a scene from a captured state. Derived caches start empty:
    /// they rebuild deterministically and only shift modeled *time*
    /// attribution, never trajectory values.
    pub(crate) fn from_state(st: SceneState) -> (SceneCore, SceneHealth) {
        let mut sc = SceneCore::new(st.sys, st.params);
        sc.contacts = st.contacts;
        sc.x_prev = st.x_prev;
        sc.times = st.times;
        sc.fallback_solves = st.health.fallback_solves;
        (sc, st.health)
    }

    /// A clone of the scene's resumable state (valid at a step boundary).
    pub(crate) fn state(&self, health: SceneHealth) -> SceneState {
        SceneState {
            sys: self.sys.clone(),
            params: self.params.clone(),
            contacts: self.contacts.clone(),
            x_prev: self.x_prev.clone(),
            times: self.times,
            health,
        }
    }

    /// The scene's resumable state, moved out.
    pub(crate) fn into_state(self, health: SceneHealth) -> SceneState {
        SceneState {
            sys: self.sys,
            params: self.params,
            contacts: self.contacts,
            x_prev: self.x_prev,
            times: self.times,
            health,
        }
    }
}

/// What [`step_scenes`] hands back.
pub(crate) struct EngineStep {
    /// One entry per input position: `None` where no scene stepped, `Err`
    /// where the scene faulted (nothing of its step was committed).
    pub results: Vec<Option<Result<StepReport, StepError>>>,
    /// Launches the scenes issued.
    pub launches_in: u64,
    /// Launches modeled after merging across scenes.
    pub launches_out: u64,
}

/// One stepping scene's working state for the duration of a step.
struct Lane<'a> {
    /// Position in the caller's slice = batch segment.
    seg: usize,
    sc: &'a mut SceneCore,
    gsoa: GeomSoa,
    bsoa: BlockSoa,
    /// The contact set of the last committed step, put back on a fault.
    committed_contacts: Vec<Contact>,
    times_at_start: ModuleTimes,
    asm_at_start: AssemblyStats,
    report: StepReport,
    fault: Option<StepError>,
    outcome: Option<StepOutcome>,
    /// Still inside loop 2 (no outcome, no fault yet).
    active: bool,
    /// Still inside loop 3 of the current attempt.
    in_oc: bool,
    diag: (Vec<Block6>, Vec<f64>),
    asm: Option<AssembledSystem>,
    d: Vec<f64>,
    gaps: GapArrays,
    last_solve_converged: bool,
    oc_converged: bool,
}

impl<'a> Lane<'a> {
    /// Enters `sc` into a step as segment `seg`: per-step SoA mirrors of
    /// its geometry and block properties, and the snapshots the step
    /// report's deltas are taken against.
    fn open(seg: usize, sc: &'a mut SceneCore) -> Lane<'a> {
        Lane {
            seg,
            gsoa: GeomSoa::build(&sc.sys),
            bsoa: BlockSoa::build(&sc.sys),
            committed_contacts: Vec::new(),
            times_at_start: sc.times,
            asm_at_start: sc.acache.stats(),
            report: StepReport::default(),
            fault: None,
            outcome: None,
            active: true,
            in_oc: false,
            diag: Default::default(),
            asm: None,
            d: Vec::new(),
            gaps: GapArrays::default(),
            last_solve_converged: false,
            oc_converged: false,
            sc,
        }
    }

    /// Drops the scene out of the lockstep; its step will not commit.
    fn fail(&mut self, err: StepError) {
        self.fault = Some(err);
        self.active = false;
        self.in_oc = false;
    }
}

/// The lanes of one step plus its launch accounting.
struct Run<'a> {
    dev: &'a Device,
    n_segments: usize,
    lanes: Vec<Lane<'a>>,
    launches_in: u64,
    launches_out: u64,
}

impl<'a> Run<'a> {
    /// Runs `body` for every lane `live` selects inside one batch region,
    /// its launches recorded under `phase`, and charges each scene its share
    /// of the region's modeled time to that module.
    fn phase(
        &mut self,
        phase: Phase,
        live: fn(&Lane<'a>) -> bool,
        mut body: impl FnMut(&Device, &mut Lane<'a>),
    ) {
        let dev = self.dev;
        let s = dev.in_phase(phase.tag(), || {
            dev.batch_begin(self.n_segments);
            for lane in self.lanes.iter_mut().filter(|l| live(l)) {
                dev.batch_segment(lane.seg);
                body(dev, lane);
            }
            dev.batch_end()
        });
        self.launches_in += s.launches_in;
        self.launches_out += s.launches_out;
        for lane in self.lanes.iter_mut() {
            lane.sc.times[phase] += s.per_segment_seconds[lane.seg];
        }
    }

    /// Equation solving for every lane in loop 3.
    fn solve(&mut self) {
        let (mut jobs, lanes): (Vec<SolveJob<'_>>, Vec<usize>) = self
            .lanes
            .iter_mut()
            .enumerate()
            .filter(|(_, l)| l.in_oc)
            .map(|(k, l)| {
                let job = SolveJob {
                    seg: l.seg,
                    sc: &mut *l.sc,
                    asm: l.asm.as_ref().expect("assembly precedes the solve"),
                    oc_iteration: l.report.oc_iterations,
                };
                (job, k)
            })
            .unzip();
        let (solves, summary) = self.dev.in_phase(Phase::Solving.tag(), || {
            solve_ladder(self.dev, self.n_segments, &mut jobs)
        });
        drop(jobs);
        self.launches_in += summary.launches_in;
        self.launches_out += summary.launches_out;
        for (solve, k) in solves.into_iter().zip(lanes) {
            let lane = &mut self.lanes[k];
            lane.report.fallback_level = lane.report.fallback_level.max(solve.level);
            match solve.res {
                Ok(res) => {
                    lane.report.pcg_iterations += res.iterations;
                    lane.report.last_solve_iterations = res.iterations;
                    lane.report.warm_starts += solve.warm as usize;
                    lane.last_solve_converged = res.converged;
                    lane.d = res.x;
                }
                Err(e) => lane.fail(e),
            }
        }
    }
}

/// One scene's assembled system awaiting its solve.
struct SolveJob<'a> {
    seg: usize,
    sc: &'a mut SceneCore,
    asm: &'a AssembledSystem,
    /// For [`StepError::NonFiniteSolution`] diagnostics.
    oc_iteration: usize,
}

/// How one scene's solve ended.
struct LadderSolve {
    /// The deepest ladder rung tried (0 = the configured one).
    level: usize,
    /// Whether the solve started from the previous open–close iterate.
    warm: bool,
    res: Result<SolveResult, StepError>,
}

/// Solves every job's system, each scene walking its own degradation
/// ladder ([`DdaParams::solver_ladder`]). All scenes start on their
/// configured rung and share one batched fused PCG; a scene whose rung
/// fails to construct (zero pivot, singular block) or whose solve breaks
/// down (indefinite curvature, non-finite iterate) goes round again one
/// rung lower, alone in its segment. A descent is a rescue: it cold-starts
/// from the previous step's solution and drops the warm iterate. A scene
/// out of rungs reports its last rung's failure — a broken-down iterate is
/// never handed back as a solution.
///
/// Format and preconditioner construction are charged to each scene's
/// solving time along with its share of the batched PCG; the returned
/// summary carries the launch accounting only.
fn solve_ladder(
    dev: &Device,
    n_segments: usize,
    jobs: &mut [SolveJob<'_>],
) -> (Vec<LadderSolve>, BatchSummary) {
    let mut done: Vec<Option<LadderSolve>> = jobs.iter().map(|_| None).collect();
    let mut launches = BatchSummary::default();
    let mut level = 0;
    while done.iter().any(Option::is_none) {
        let mut failed: Vec<(usize, StepError)> = Vec::new();
        let mut prepared = Vec::new();
        dev.batch_begin(n_segments);
        for (k, job) in jobs.iter_mut().enumerate() {
            if done[k].is_some() {
                continue;
            }
            dev.batch_segment(job.seg);
            let SceneCore {
                cache,
                x_prev,
                x0,
                params,
                ..
            } = &mut *job.sc;
            // The warm iterate only serves the configured rung; a descent
            // cold-starts and invalidates it.
            let warm_iterate = cache
                .warm_iterate()
                .filter(|_| level == 0 && params.warm_start == SolverWarmStart::PrevIterate);
            let warm = warm_iterate.is_some();
            x0.clear();
            x0.extend_from_slice(warm_iterate.unwrap_or(x_prev));
            if level > 0 {
                cache.clear_warm();
            }
            let f32_shadow = params.precision == SolverPrecision::Mixed;
            let kind = params.solver_ladder()[level];
            match cache.prepare(dev, &job.asm.matrix, kind, f32_shadow) {
                Ok(rung) => prepared.push((k, warm, rung, &*x0, job.asm, &*params)),
                Err(error) => failed.push((k, StepError::PreconditionerFailed { error })),
            }
        }
        let prep = dev.batch_end();
        let mut entries: Vec<_> = prepared
            .iter_mut()
            .map(|(_, _, rung, x0, asm, p)| rung.entry(&asm.rhs, x0, p.pcg, p.precision))
            .collect();
        let (results, pcg) = pcg_fused_batch(dev, &mut entries);
        drop(entries);
        let solved: Vec<(usize, bool)> = prepared.into_iter().map(|p| (p.0, p.1)).collect();

        launches.launches_in += prep.launches_in + pcg.launches_in;
        launches.launches_out += prep.launches_out + pcg.launches_out;
        for job in jobs.iter_mut() {
            job.sc.times[Phase::Solving] += prep.per_segment_seconds[job.seg];
        }
        for (e, (res, (k, warm))) in results.into_iter().zip(solved).enumerate() {
            let job = &mut jobs[k];
            job.sc.times[Phase::Solving] += pcg.per_segment_seconds[e];
            if let Some(error) = res.error {
                failed.push((k, StepError::SolverBreakdown { error }));
            } else if !all_finite(&res.x) {
                let oc_iteration = job.oc_iteration;
                failed.push((k, StepError::NonFiniteSolution { oc_iteration }));
            } else {
                // A healthy configured-rung solve seeds the next re-solve
                // of this open–close loop.
                if level == 0 && job.sc.params.warm_start == SolverWarmStart::PrevIterate {
                    job.sc.cache.set_warm(&res.x);
                }
                done[k] = Some(LadderSolve {
                    level,
                    warm,
                    res: Ok(res),
                });
            }
        }
        for (k, err) in failed {
            let sc = &mut *jobs[k].sc;
            if level + 1 < sc.params.solver_ladder().len() {
                if level == 0 {
                    sc.fallback_solves += 1;
                }
            } else {
                done[k] = Some(LadderSolve {
                    level,
                    warm: false,
                    res: Err(err),
                });
            }
        }
        level += 1;
    }
    let solves = done.into_iter().map(|d| d.expect("loop exit")).collect();
    (solves, launches)
}

/// Advances every `Some` scene one time step on `dev` and reports per
/// scene. `divergence_factor` bounds an accepted displacement (as a
/// multiple of the scene's displacement bound) before the step counts as
/// diverged; `veto` sees each scene's accepted attempt before anything is
/// committed and may demote it to a fault.
///
/// A faulted scene leaves the lockstep immediately and commits nothing:
/// system, contact set and warm start stay as they were (Δt keeps the
/// reductions its retries took). The health scans behind the faults are
/// host-side — no launches, no modeled time.
pub(crate) fn step_scenes(
    dev: &Device,
    scenes: &mut [Option<&mut SceneCore>],
    divergence_factor: f64,
    mut veto: impl FnMut(usize, &StepOutcome) -> Result<(), StepError>,
) -> EngineStep {
    let n = scenes.len();
    let mut results: Vec<Option<Result<StepReport, StepError>>> = (0..n).map(|_| None).collect();
    let mut run = Run {
        dev,
        n_segments: n,
        lanes: scenes
            .iter_mut()
            .enumerate()
            .filter_map(|(seg, sc)| Some(Lane::open(seg, sc.as_deref_mut()?)))
            .collect(),
        launches_in: 0,
        launches_out: 0,
    };
    if run.lanes.is_empty() {
        return EngineStep {
            results,
            launches_in: 0,
            launches_out: 0,
        };
    }

    // ---- Phase: contact detection (broad, narrow, transfer, init) -----------
    run.phase(Phase::ContactDetection, |_| true, detect);

    // ---- Loops 2–3: masked lockstep across scenes ---------------------------
    let mut attempt = 0;
    while run.lanes.iter().any(|l| l.active) {
        // Phase: diagonal building (depends on Δt, so redone per attempt).
        run.phase(
            Phase::DiagBuilding,
            |l| l.active,
            |dev, l| {
                // The warm iterate belongs to the previous attempt's
                // open–close loop: a retried step solves a different
                // system, so its first solve starts from `x_prev`.
                l.sc.cache.clear_warm();
                l.diag = build_diag_gpu(dev, &l.sc.sys, &l.bsoa, &l.sc.params);
            },
        );
        for l in run.lanes.iter_mut().filter(|l| l.active) {
            l.in_oc = true;
            l.d.clone_from(&l.sc.x_prev);
            l.gaps = GapArrays::default();
            l.oc_converged = false;
            l.report.oc_iterations = 0;
        }
        let mut oc_iter = 0;
        while run.lanes.iter().any(|l| l.in_oc) {
            run.phase(Phase::NondiagBuilding, |l| l.in_oc, assemble);
            run.solve();
            run.phase(
                Phase::Interpenetration,
                |l| l.in_oc,
                |dev, l| check_and_update(dev, l, oc_iter),
            );
            oc_iter += 1;
        }

        // Displacement control, per scene on the host (scalar controls are
        // the only thing that crosses back, as in the paper).
        for l in run.lanes.iter_mut().filter(|l| l.active) {
            l.report.oc_converged = l.oc_converged;
            let maxd = max_displacement(&l.sc.sys, &l.d);
            l.report.max_displacement = maxd;
            if !maxd.is_finite() || maxd > divergence_factor * l.sc.params.max_displacement {
                l.fail(StepError::Diverged {
                    max_displacement: maxd,
                });
                continue;
            }
            let too_big = maxd > 2.0 * l.sc.params.max_displacement;
            if (too_big || !l.oc_converged) && attempt < MAX_RETRIES && l.sc.params.reduce_dt() {
                l.report.retries += 1; // stays active for the next attempt
                continue;
            }
            l.active = false;
            let outcome = StepOutcome {
                d: std::mem::take(&mut l.d),
                gaps: std::mem::take(&mut l.gaps),
                oc_converged: l.oc_converged,
                too_big,
                retries: l.report.retries,
            };
            match veto(l.seg, &outcome) {
                Ok(()) => l.outcome = Some(outcome),
                Err(e) => l.fail(e),
            }
        }
        attempt += 1;
    }

    // ---- Phase: third classification (C1…C5), for the report -----------------
    run.phase(
        Phase::Interpenetration,
        |l| l.outcome.is_some(),
        |dev, l| l.report.categories = categorize_gpu(dev, &l.sc.contacts),
    );

    // ---- Phase: data updating (commit) ---------------------------------------
    run.phase(Phase::Updating, |l| l.outcome.is_some(), commit);

    for l in run.lanes {
        let mut report = l.report;
        report.fallback_rung = l.sc.params.solver_ladder()[report.fallback_level];
        report.phase_times = l.sc.times.delta_since(&l.times_at_start);
        report.assembly = l.sc.acache.stats().delta_since(&l.asm_at_start);
        results[l.seg] = Some(match l.fault {
            None => Ok(report),
            Some(e) => {
                l.sc.contacts = l.committed_contacts;
                Err(e)
            }
        });
    }
    EngineStep {
        results,
        launches_in: run.launches_in,
        launches_out: run.launches_out,
    }
}

/// Contact detection: the scene's contact set is rebuilt from its current
/// geometry, inheriting state from the last committed set.
fn detect(dev: &Device, l: &mut Lane<'_>) {
    let sc = &mut *l.sc;
    let touch = sc.params.touch_tol * sc.params.max_displacement;
    detect_broad_gpu(
        dev,
        &l.gsoa,
        sc.params.broad_phase,
        sc.params.contact_range,
        sc.params.broad_slack,
        &mut sc.ws,
    );
    let class_sorted = sc.params.contact_order == ContactOrder::ClassSorted;
    let mut contacts = narrow_phase_gpu_scheduled(
        dev,
        &l.gsoa,
        &sc.ws.pairs,
        sc.params.contact_range,
        if class_sorted {
            sc.ws.order.pair_schedule(sc.ws.pairs.len())
        } else {
            None
        },
    );
    transfer_contacts_gpu_scheduled(
        dev,
        &sc.contacts,
        &mut contacts,
        if class_sorted {
            sc.ws.order.contact_schedule(sc.contacts.len())
        } else {
            None
        },
    );
    init_contacts_classified(dev, &l.gsoa, &mut contacts, touch);
    l.committed_contacts = std::mem::replace(&mut sc.contacts, contacts);
    if class_sorted {
        // Revalidate (or device-re-sort) the scheduling permutation
        // against the freshly classified stream; the radix-sort cost
        // lands in this module's time like the rest of detection.
        let resorted = sc.ws.order.refresh(dev, &sc.contacts);
        sc.ws
            .order
            .refresh_pairs(&sc.ws.pairs, &sc.contacts, resorted);
    }
    l.report.n_contacts = sc.contacts.len();
    for c in sc.contacts.iter_mut() {
        c.flips = 0;
    }
    if sc.params.assembly_reuse == AssemblyReuse::Incremental {
        // Detection rebuilt the contact list: whether the standing
        // reduction plan still serves it is decided here, once for every
        // assembly of the step.
        sc.acache.begin_step(&sc.sys, &sc.contacts);
    }
}

/// Non-diagonal building: contact springs assembled onto the diagonal.
fn assemble(dev: &Device, l: &mut Lane<'_>) {
    let sc = &mut *l.sc;
    // Only Fig 4 has per-contact threads for the schedule to order.
    let sched = if sc.params.contact_order == ContactOrder::ClassSorted {
        sc.ws.order.contact_schedule(sc.contacts.len())
    } else {
        None
    };
    let (diag, rhs0) = (l.diag.0.clone(), l.diag.1.clone());
    let mut asm = match sc.params.assembly_reuse {
        AssemblyReuse::Recompute => assemble_contacts_gpu_scheduled(
            dev,
            &sc.sys,
            &l.gsoa,
            &sc.contacts,
            &sc.params,
            diag,
            rhs0,
            sched,
        ),
        AssemblyReuse::Incremental => {
            sc.acache
                .assemble(dev, &sc.sys, &l.gsoa, &sc.contacts, &sc.params, diag, rhs0)
        }
    };
    if dev.fault_fires(Fault::NanRhs) {
        asm.rhs[0] = f64::NAN;
    }
    if dev.fault_fires(Fault::IndefiniteOperator) {
        for db in asm.matrix.diag.iter_mut() {
            *db = db.scale(-1.0);
        }
    }
    l.report.n_upper = asm.matrix.n_upper();
    l.report.oc_iterations += 1;
    // A NaN/Inf right-hand side never reaches the solver.
    if !all_finite(&asm.rhs) {
        l.fail(StepError::NonFiniteRhs {
            oc_iteration: l.report.oc_iterations,
        });
    }
    l.asm = Some(asm);
}

/// Interpenetration checking and the open–close update, then the scene's
/// own loop-3 exit decision.
fn check_and_update(dev: &Device, l: &mut Lane<'_>, oc_iter: usize) {
    let sc = &mut *l.sc;
    let open_tol = 1e-6 * sc.params.max_displacement;
    let freeze = oc_iter + 3 >= sc.params.oc_max_iters;
    l.gaps = check_gpu(
        dev,
        &l.gsoa,
        &sc.sys,
        &sc.contacts,
        &l.d,
        sc.params.penalty,
        sc.params.shear_ratio,
        BranchScheme::Restructured,
    );
    if !l.gaps.all_finite() {
        return l.fail(StepError::NonFiniteGaps {
            oc_iteration: l.report.oc_iterations,
        });
    }
    let mut changes = open_close_gpu(dev, &mut sc.contacts, &l.gaps, open_tol, freeze);
    if dev.fault_fires(Fault::OcPin) {
        changes = changes.max(1);
    }
    // A converged (or iteration-capped) scene stops contributing launches.
    if changes == 0 && l.last_solve_converged {
        l.oc_converged = true;
        l.in_oc = false;
    } else if oc_iter + 1 >= sc.params.oc_max_iters {
        l.in_oc = false;
    }
}

/// Data updating: commits the accepted attempt to the scene.
fn commit(dev: &Device, l: &mut Lane<'_>) {
    let sc = &mut *l.sc;
    let out = l.outcome.take().expect("phase runs on accepted lanes");
    l.report.max_open_penetration = out.gaps.max_open_penetration(&sc.contacts);
    let mut uc = CpuCounter::new();
    update_system(
        &mut sc.sys,
        &out.d,
        &mut sc.contacts,
        &out.gaps,
        &sc.params,
        &mut uc,
    );
    // The update kernels are a straightforward per-block map; charge
    // their modeled device cost from the same work tally.
    let nd = 6 * sc.sys.len() as u64; // one thread per DOF
    dev.record_external(
        "update.apply",
        KernelStats {
            launches: 2,
            threads: nd,
            warps: nd.div_ceil(32).max(1),
            flops: uc.flops,
            warp_flops: uc.flops * 2,
            gmem_bytes: uc.bytes,
            gmem_transactions: uc.bytes.div_ceil(128),
            ..Default::default()
        },
    );
    l.report.dt = sc.params.dt;
    out.recover_dt_if_clean(&mut sc.params);
    sc.x_prev = out.d;
    // Committed geometry moved at most the accepted step's largest vertex
    // displacement — the broad-phase cache's validity bound.
    sc.ws.cache.note_motion(l.report.max_displacement);
    // Open–close flips of the committed step are class switches the
    // standing scheduling permutation has not seen; charge its budget.
    if sc.params.contact_order == ContactOrder::ClassSorted {
        sc.ws
            .order
            .note_flips(sc.contacts.iter().map(|c| c.flips as u64).sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_simt::DeviceProfile;
    use dda_solver::PrecondKind;
    use dda_sparse::SymBlockMatrix;

    /// A diagonally dominant SPD test matrix with a contact-like coupling.
    fn spd_matrix(n: usize) -> SymBlockMatrix {
        let diag = (0..n)
            .map(|i| Block6::diag(&[50.0 + i as f64; 6]))
            .collect();
        let upper = (0..n - 1)
            .map(|i| (i as u32, i as u32 + 1, Block6::diag(&[-1.0; 6])))
            .collect();
        SymBlockMatrix::new(diag, upper)
    }

    /// Runs the ladder for one scene configured on `start` over `matrix`.
    fn ladder(start: PrecondKind, matrix: SymBlockMatrix) -> (LadderSolve, SceneCore) {
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let n = matrix.diag.len();
        let sys = BlockSystem::new(
            Vec::new(),
            crate::BlockMaterial::rock(),
            crate::JointMaterial::frictional(35.0),
        );
        let mut sc = SceneCore::new(sys, DdaParams::for_model(1.0, 5e9).with_precond(start));
        sc.x_prev = vec![0.0; 6 * n];
        let asm = AssembledSystem {
            matrix,
            rhs: vec![1.0; 6 * n],
        };
        let mut jobs = [SolveJob {
            seg: 0,
            sc: &mut sc,
            asm: &asm,
            oc_iteration: 1,
        }];
        let (mut solves, _) = solve_ladder(&dev, 1, &mut jobs);
        (solves.pop().expect("one job, one solve"), sc)
    }

    #[test]
    fn ladder_descends_on_breakdown_and_reports_depth() {
        // Negate the operator: every rung constructs (diagonal blocks are
        // negated but invertible) yet PCG breaks down on the first
        // curvature. The ladder must walk every rung, refuse to hand the
        // last rung's broken iterate back, and record the full descent.
        let mut m = spd_matrix(4);
        for d in m.diag.iter_mut() {
            *d = d.scale(-1.0);
        }
        for (_, _, b) in m.upper.iter_mut() {
            *b = b.scale(-1.0);
        }
        let (solve, sc) = ladder(PrecondKind::Ilu0, m);
        assert!(
            matches!(solve.res, Err(StepError::SolverBreakdown { .. })),
            "negative-definite operator must break down on the last rung too: {:?}",
            solve.res
        );
        assert_eq!(
            solve.level,
            PrecondKind::Ilu0.ladder().len() - 1,
            "ladder must be walked to the last rung"
        );
        assert_eq!(sc.fallback_solves, 1);
    }

    #[test]
    fn ladder_exhaustion_reports_structured_error() {
        // A zero diagonal defeats every rung's construction (zero pivot,
        // singular block, zero scalar diagonal): the solve must surface a
        // structured error, not panic inside a factorization.
        let mut m = spd_matrix(4);
        m.diag[2] = Block6::ZERO;
        let (solve, _) = ladder(PrecondKind::BlockJacobi, m);
        assert!(
            matches!(solve.res, Err(StepError::PreconditionerFailed { .. })),
            "expected PreconditionerFailed, got {:?}",
            solve.res
        );
    }

    #[test]
    fn healthy_solve_stays_on_configured_rung() {
        let (solve, sc) = ladder(PrecondKind::Ilu0, spd_matrix(4));
        let res = solve.res.expect("SPD system solves");
        assert!(res.converged && !res.broke_down());
        assert_eq!(solve.level, 0, "no fallback on a healthy solve");
        assert_eq!(sc.fallback_solves, 0);
    }
}
