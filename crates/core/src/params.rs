//! Analysis control parameters.
//!
//! These correspond to Shi's classical DDA input controls: the time-step
//! size and its adaptive bounds, the maximum-allowed-displacement ratio
//! (loop 2's control parameter), the contact penalty stiffness, and the
//! open–close iteration budget.

use crate::contact::grid::BroadPhaseMode;
use dda_solver::{PcgOptions, PrecondKind, SolverPrecision};
use serde::{Deserialize, Serialize};

/// Non-diagonal assembly path of the GPU engine.
///
/// `Incremental`, the default, keeps one reduction plan (radix sort +
/// segment boundaries of the contact keys) per contact list in an
/// [`crate::assembly_cache::AssemblyCache`] and assembles every open–close
/// iteration with a single segment-gather launch. `Recompute` re-runs the
/// paper's Fig 4 stream — store, sort, scan, segmented sum — from scratch
/// every iteration; it is the oracle the default is held to and the path
/// the paper tables measure. The two are bitwise identical by construction
/// (the serial pipeline ignores the knob).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssemblyReuse {
    /// Fig 4 from scratch every open–close iteration (oracle).
    Recompute,
    /// Plan per contact list, gather per iteration.
    #[default]
    Incremental,
}

/// Initial iterate policy for the per-iteration PCG solves.
///
/// `PrevIterate`, the default, warm-starts each open–close re-solve from
/// the previous iterate of the same step, which is much closer once the
/// contact states stop churning. `PrevStep` starts every solve from the
/// previous *step's* accepted solution: it is the bitwise oracle the
/// trajectory goldens are pinned to. Both drive PCG to the same tolerance,
/// so the default is tolerance-equivalent to the oracle, not
/// bitwise-identical; `tests/tolerance_oracle.rs` holds it there. The
/// first solve of every attempt, and every fallback-ladder descent, starts
/// from the previous step's solution under either setting, and the warm
/// iterate is discarded whenever a solve degrades.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverWarmStart {
    /// Every solve starts from the previous step's accepted solution (the
    /// bitwise oracle).
    PrevStep,
    /// Re-solves within a step start from the previous healthy iterate.
    #[default]
    PrevIterate,
}

/// Contact-stream order of the kernels: a name every driver accepts and
/// ignores, since each one walks the contact stream in pair-discovery
/// order. `ClassSorted` used to schedule the contact-stream kernels in
/// `(category, kind)` class order; it cut divergent branch groups but
/// raised modeled step time on every benchmark workload, so the scheduler
/// was deleted. The enum stays only because `benchmark/` still names it,
/// and its checkpoint tags stay so older WAL records decode; it goes with
/// ROADMAP item 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ContactOrder {
    /// Pair-discovery order, the one order every driver runs.
    #[default]
    Discovery,
    /// The deleted class-sorted schedule; runs as `Discovery`.
    ClassSorted,
}

/// DDA analysis parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DdaParams {
    /// Current physical time-step size Δt (s). Adapted downward when the
    /// open–close iteration or displacement control fails, and allowed to
    /// recover toward [`DdaParams::dt_max`].
    pub dt: f64,
    /// Upper bound for Δt.
    pub dt_max: f64,
    /// Lower bound for Δt (a step that still fails here is accepted with a
    /// warning, as Shi's code does).
    pub dt_min: f64,
    /// Maximum allowed displacement per step, in absolute length units
    /// (Shi's `g2·w0`). Loop 2 redoes a step whose largest vertex
    /// displacement exceeds **twice** this value.
    pub max_displacement: f64,
    /// Contact penalty spring stiffness `p` (N/m). Shi recommends
    /// 10–100 × E × thickness; the workloads compute it from the stiffest
    /// block material.
    pub penalty: f64,
    /// Shear spring stiffness as a fraction of the normal penalty.
    pub shear_ratio: f64,
    /// Open–close iterations allowed per step before Δt is cut.
    pub oc_max_iters: usize,
    /// Contact search radius `d0` for the narrow phase (inflates bounding
    /// boxes in the broad phase too). Typically `2.5 × max_displacement`.
    pub contact_range: f64,
    /// Tolerance below which a contact is considered just touching
    /// (fraction of `max_displacement`).
    pub touch_tol: f64,
    /// Linear solver controls (the paper caps PCG at 200 iterations).
    pub pcg: PcgOptions,
    /// Preconditioner the solver starts on; the degradation ladder
    /// descends from here (see [`DdaParams::solver_ladder`]). The default
    /// is the hub rung, Block-Jacobi with the scene's fixed blocks solved
    /// exactly. Per-scene: a stiff scene can opt into ILU0 while its
    /// batch-mates stay on the default.
    pub precond: PrecondKind,
    /// Ignored by every driver (see [`SolverPrecision`]); kept only because
    /// `benchmark/` still sets it, and goes with ROADMAP item 4.
    pub precision: SolverPrecision,
    /// Dynamics factor in `[0, 1]`: 1 carries full velocity between steps
    /// (dynamic analysis, case 2), 0 restarts each step from rest (static
    /// relaxation, case 1).
    pub dynamics: f64,
    /// Penalty used to anchor fixed-block vertices, as a multiple of the
    /// contact penalty.
    pub fixity_factor: f64,
    /// Device broad-phase algorithm: the paper's all-pairs sweep (the
    /// default) or the O(n + k) uniform grid behind the
    /// displacement-bounded pair cache. Both produce identical pair sets
    /// — and therefore bitwise-identical trajectories. It is
    /// device-only: the serial pipeline always runs the all-pairs oracle.
    pub broad_phase: BroadPhaseMode,
    /// Per-block slack margin (length units) for the cached broad phase:
    /// candidates are built at `contact_range + broad_slack` and stay
    /// valid while accumulated per-step motion is within the slack.
    /// Larger values re-bin less often but filter more candidates.
    pub broad_slack: f64,
    /// Ignored by every driver (see [`ContactOrder`]); kept only because
    /// `benchmark/` still sets it, and goes with ROADMAP item 4.
    pub contact_order: ContactOrder,
    /// Non-diagonal assembly path (see [`AssemblyReuse`]); bitwise-inert.
    pub assembly_reuse: AssemblyReuse,
    /// Initial-iterate policy for the per-iteration solves (see
    /// [`SolverWarmStart`]); the default `PrevIterate` trades bitwise
    /// equality with the `PrevStep` oracle for fewer PCG iterations at the
    /// same converged tolerance.
    pub warm_start: SolverWarmStart,
}

impl DdaParams {
    /// Sensible defaults for a model with characteristic block size
    /// `block_size` (m) and stiffest Young's modulus `young` (Pa).
    pub fn for_model(block_size: f64, young: f64) -> DdaParams {
        let max_displacement = 0.01 * block_size;
        // Step size from the elastic time scale of one block
        // (≈ wave transit time): keeps the inertia term comparable to the
        // penalty stiffness, which is what conditions the system well
        // enough for PCG — the paper notes the physical time per step "is
        // usually less than 0.0001 s" (§IV-A).
        let dt = (0.5 * block_size * (2500.0 / young).sqrt()).clamp(1e-5, 0.01);
        DdaParams {
            dt,
            dt_max: dt,
            dt_min: 1e-7,
            max_displacement,
            penalty: 10.0 * young,
            shear_ratio: 1.0,
            oc_max_iters: 6,
            contact_range: 2.5 * max_displacement,
            touch_tol: 0.2,
            pcg: PcgOptions {
                tol: 1e-8,
                max_iters: 300,
            },
            precond: PrecondKind::default(),
            precision: SolverPrecision::default(),
            dynamics: 1.0,
            fixity_factor: 10.0,
            broad_phase: BroadPhaseMode::default(),
            // Accepted steps move at most 2·max_displacement, so four
            // worst-case steps fit the slack budget — in practice far
            // more, since settled scenes move much less per step.
            broad_slack: 8.0 * max_displacement,
            contact_order: ContactOrder::default(),
            assembly_reuse: AssemblyReuse::default(),
            warm_start: SolverWarmStart::default(),
        }
    }

    /// Selects the broad-phase algorithm (builder style).
    pub fn with_broad_phase(mut self, mode: BroadPhaseMode) -> DdaParams {
        self.broad_phase = mode;
        self
    }

    /// Selects the assembly-reuse strategy (builder style).
    pub fn with_assembly_reuse(mut self, r: AssemblyReuse) -> DdaParams {
        self.assembly_reuse = r;
        self
    }

    /// Selects the solver warm-start policy (builder style).
    pub fn with_warm_start(mut self, w: SolverWarmStart) -> DdaParams {
        self.warm_start = w;
        self
    }

    /// Selects the starting preconditioner rung (builder style).
    pub fn with_precond(mut self, p: PrecondKind) -> DdaParams {
        self.precond = p;
        self
    }

    /// Contact initialization closes every open contact within this
    /// distance.
    pub fn touch_distance(&self) -> f64 {
        self.touch_tol * self.max_displacement
    }

    /// The open–close update opens any contact separated by more than this.
    pub fn open_tol(&self) -> f64 {
        1e-6 * self.max_displacement
    }

    /// The degradation ladder the solver walks, derived from the
    /// configured starting rung: ILU0 → SSOR-AI → Block-Jacobi → Jacobi,
    /// entered at [`DdaParams::precond`]; the default hub rung descends
    /// straight to Jacobi. Plain CG has no rungs to descend to.
    pub fn solver_ladder(&self) -> &'static [PrecondKind] {
        self.precond.ladder()
    }

    /// Static-analysis variant (velocities zeroed each step — the paper's
    /// case 1 "stable analysis of a slope").
    pub fn static_analysis(mut self) -> DdaParams {
        self.dynamics = 0.0;
        self
    }

    /// Cuts the time step after a failed step; returns false when already
    /// at the floor.
    pub fn reduce_dt(&mut self) -> bool {
        if self.dt <= self.dt_min {
            return false;
        }
        self.dt = (self.dt * 0.3).max(self.dt_min);
        true
    }

    /// Gently recovers the time step after successful steps.
    pub fn recover_dt(&mut self) {
        self.dt = (self.dt * 1.3).min(self.dt_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_model() {
        let p = DdaParams::for_model(2.0, 5e9);
        assert!((p.max_displacement - 0.02).abs() < 1e-12);
        assert!((p.contact_range - 0.05).abs() < 1e-12);
        assert_eq!(p.penalty, 50e9);
        assert_eq!(p.pcg.max_iters, 300);
    }

    #[test]
    fn dt_reduction_and_recovery() {
        let mut p = DdaParams::for_model(1.0, 1e9);
        let dt0 = p.dt;
        assert!(p.reduce_dt());
        assert!(p.dt < dt0);
        for _ in 0..100 {
            p.recover_dt();
        }
        assert_eq!(p.dt, p.dt_max);
        p.dt = p.dt_min;
        assert!(!p.reduce_dt(), "at the floor reduction must fail");
    }

    #[test]
    fn static_mode() {
        let p = DdaParams::for_model(1.0, 1e9).static_analysis();
        assert_eq!(p.dynamics, 0.0);
    }

    #[test]
    fn solver_ladder_derives_from_configured_rung() {
        let p = DdaParams::for_model(1.0, 1e9);
        assert_eq!(p.precond, PrecondKind::HubSchur, "default start rung");
        assert_eq!(p.precision, SolverPrecision::Full, "default precision");
        assert_eq!(
            p.solver_ladder(),
            &[PrecondKind::HubSchur, PrecondKind::Jacobi]
        );
        assert_eq!(
            p.clone()
                .with_precond(PrecondKind::BlockJacobi)
                .solver_ladder(),
            &[PrecondKind::BlockJacobi, PrecondKind::Jacobi]
        );
        let p = p.with_precond(PrecondKind::Ilu0);
        assert_eq!(p.solver_ladder()[0], PrecondKind::Ilu0);
        assert_eq!(
            *p.solver_ladder().last().expect("non-empty ladder"),
            PrecondKind::Jacobi,
            "every ladder bottoms out at scalar Jacobi"
        );
        let p = p.with_precond(PrecondKind::None);
        assert_eq!(
            p.solver_ladder(),
            &[PrecondKind::None],
            "plain CG: no rungs"
        );
    }
}
