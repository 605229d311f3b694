//! Scene-level health monitoring: structured step failures, the scene
//! lifecycle state machine, and the policy knobs that govern degradation.
//!
//! Production DDA fleets hit PCG breakdown, preconditioner zero pivots,
//! NaN contamination from degenerate contacts, and open–close loops that
//! never settle. Before this module any of those either panicked, silently
//! returned a stale iterate, or stalled a whole lockstep batch. The types
//! here make every failure mode a *value*: the step loops return
//! [`StepError`] instead of panicking, and the batched runtime folds those
//! errors into a per-scene [`SceneHealth`] record whose [`SlotState`]
//! walks `Running → Degraded → Quarantined → Retired`.

use dda_solver::{PrecondError, SolveError};

/// Structured failure of one time step. Everything here is reachable from
/// malformed scene input (degenerate geometry, zero-mass blocks, NaN
/// velocities) — none of it should ever panic the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepError {
    /// The assembled right-hand side contains NaN/Inf.
    NonFiniteRhs {
        /// Open–close iteration (1-based) at which the check tripped.
        oc_iteration: usize,
    },
    /// The solver returned a NaN/Inf displacement vector.
    NonFiniteSolution {
        /// Open–close iteration (1-based) at which the check tripped.
        oc_iteration: usize,
    },
    /// The interpenetration checker produced NaN/Inf gap measures.
    NonFiniteGaps {
        /// Open–close iteration (1-based) at which the check tripped.
        oc_iteration: usize,
    },
    /// The accepted displacement is non-finite or implausibly large
    /// relative to the displacement bound — the trajectory has diverged.
    Diverged {
        /// The offending displacement measure.
        max_displacement: f64,
    },
    /// The solver broke down and no fallback rung could recover it.
    SolverBreakdown {
        /// The underlying breakdown reason.
        error: SolveError,
    },
    /// Every rung of the preconditioner fallback ladder failed to
    /// construct (singular diagonal blocks, zero pivots).
    PreconditionerFailed {
        /// The last rung's construction failure.
        error: PrecondError,
    },
    /// The open–close loop has failed to settle for more consecutive
    /// steps than the policy allows — the contact state machine is pinned.
    OcStalled {
        /// Consecutive dirty steps observed.
        streak: usize,
    },
    /// An internal pipeline invariant broke (a phase's output was missing
    /// for a scene that should have produced it). The step engine cannot
    /// reach such a state any more — a scene's lane owns its phase outputs
    /// for the whole step — so nothing raises this; the variant stays so
    /// checkpoints that recorded one still decode.
    Internal {
        /// The violated invariant, for diagnostics.
        what: &'static str,
    },
}

impl core::fmt::Display for StepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StepError::NonFiniteRhs { oc_iteration } => {
                write!(f, "non-finite RHS at open–close iteration {oc_iteration}")
            }
            StepError::NonFiniteSolution { oc_iteration } => {
                write!(
                    f,
                    "non-finite solution at open–close iteration {oc_iteration}"
                )
            }
            StepError::NonFiniteGaps { oc_iteration } => {
                write!(
                    f,
                    "non-finite gap measures at open–close iteration {oc_iteration}"
                )
            }
            StepError::Diverged { max_displacement } => {
                write!(
                    f,
                    "trajectory diverged: max displacement {max_displacement}"
                )
            }
            StepError::SolverBreakdown { error } => write!(f, "solver breakdown: {error}"),
            StepError::PreconditionerFailed { error } => {
                write!(f, "preconditioner ladder exhausted: {error}")
            }
            StepError::OcStalled { streak } => {
                write!(f, "open–close loop stalled for {streak} consecutive steps")
            }
            StepError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

/// Lifecycle state of one scene slot in the batched runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Healthy: stepping in lockstep with the batch.
    Running,
    /// Recovering: the scene faulted recently (or needed a solver
    /// fallback) and is stepping under Δt backoff; a clean step promotes
    /// it back to [`SlotState::Running`].
    Degraded,
    /// Fault-isolated: the scene exhausted its retry budget and is frozen
    /// at its last accepted state. It no longer participates in launches.
    Quarantined,
    /// The slot is free: its scene finished or was removed. Admission
    /// reuses retired slots first.
    Retired,
}

/// Tunable degradation policy for the batched runtime.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive failed steps a scene may take (each with exponential
    /// Δt backoff) before it is quarantined.
    pub retry_budget: usize,
    /// Consecutive dirty steps (open–close unconverged with retries
    /// exhausted) before the stall detector reports
    /// [`StepError::OcStalled`].
    pub oc_stall_limit: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            retry_budget: 3,
            oc_stall_limit: 8,
        }
    }
}

/// Per-scene health record maintained by the batched runtime.
#[derive(Debug, Clone)]
pub struct SceneHealth {
    /// Current lifecycle state.
    pub state: SlotState,
    /// Consecutive failed steps (resets on a clean step).
    pub consecutive_failures: usize,
    /// Committed (accepted) steps this scene has taken since admission.
    /// Drives the scheduler's early-fault retry window and completion
    /// criterion; resets when a slot is re-admitted.
    pub steps_committed: u64,
    /// Consecutive dirty steps feeding the oc-stall detector.
    pub oc_stall_streak: usize,
    /// Solves that needed a preconditioner fallback or a batch-level
    /// re-solve (lifetime count).
    pub fallback_solves: usize,
    /// Total faults observed over the scene's lifetime.
    pub total_faults: usize,
    /// The most recent fault, kept for diagnostics after quarantine.
    pub last_error: Option<StepError>,
    /// Batch step index at which the scene was quarantined.
    pub quarantined_at_step: Option<u64>,
}

impl SceneHealth {
    /// A fresh record for a newly admitted scene.
    pub fn new_running() -> SceneHealth {
        SceneHealth {
            state: SlotState::Running,
            consecutive_failures: 0,
            steps_committed: 0,
            oc_stall_streak: 0,
            fallback_solves: 0,
            total_faults: 0,
            last_error: None,
            quarantined_at_step: None,
        }
    }

    /// A clean record for a freed slot: every counter zeroed so a future
    /// admission can never inherit the predecessor scene's degradation.
    /// (Callers wanting post-mortem diagnostics must read the health
    /// *before* retiring the slot.)
    pub fn retired() -> SceneHealth {
        SceneHealth {
            state: SlotState::Retired,
            ..SceneHealth::new_running()
        }
    }

    /// Whether the slot participates in batch launches.
    pub fn is_stepping(&self) -> bool {
        matches!(self.state, SlotState::Running | SlotState::Degraded)
    }
}

/// Host-side non-finite scan; cheap (no device launches, no modeled time),
/// so healthy scenes' trajectories and timings are untouched by the checks.
pub(crate) fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StepError::SolverBreakdown {
            error: SolveError::IndefiniteOperator {
                pq: -1.5,
                iteration: 3,
            },
        };
        let s = format!("{e}");
        assert!(s.contains("breakdown") && s.contains("-1.5"), "{s}");
        let q = StepError::OcStalled { streak: 9 };
        assert!(format!("{q}").contains('9'));
    }

    #[test]
    fn health_lifecycle_defaults() {
        let h = SceneHealth::new_running();
        assert_eq!(h.state, SlotState::Running);
        assert!(h.is_stepping());
        let p = HealthPolicy::default();
        assert!(p.retry_budget >= 1 && p.oc_stall_limit >= 1);
    }

    #[test]
    fn finite_scan() {
        assert!(all_finite(&[0.0, -1.0, 3.5]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
