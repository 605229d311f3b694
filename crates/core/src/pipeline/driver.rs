//! The loop controls and what loop 2 (displacement control) settles on,
//! shared by the serial reference pipeline and the GPU step engine. The
//! loops themselves are deliberately *not* shared: the serial pipeline is
//! the oracle the engine is checked against, so it must not run the code
//! it checks. The thresholds those loops test are shared, so both read
//! them from one place (here, and the contact distances on
//! [`DdaParams`]).

use crate::interpenetration::GapArrays;
use crate::params::DdaParams;

/// Maximum times a step is redone with a reduced Δt before being accepted
/// as-is (Shi's code behaves the same once the Δt floor is hit).
const MAX_RETRIES: usize = 4;

/// Whether open–close iteration `oc_iter` (from 0) freezes flip-flopping
/// contacts: the last three iterations of the budget do.
pub(crate) fn freeze(params: &DdaParams, oc_iter: usize) -> bool {
    oc_iter + 3 >= params.oc_max_iters
}

/// Whether an attempt's largest displacement `maxd` exceeds loop 2's
/// bound, twice the allowed displacement.
pub(crate) fn too_big(params: &DdaParams, maxd: f64) -> bool {
    maxd > 2.0 * params.max_displacement
}

/// Loop 2's retry decision for attempt `attempt` (from 0): an attempt that
/// overshot or whose open–close loop did not converge is redone at a cut
/// Δt, until `MAX_RETRIES` or the Δt floor. Cuts `params.dt` when it
/// returns `true`.
pub(crate) fn retry(
    params: &mut DdaParams,
    attempt: usize,
    too_big: bool,
    oc_converged: bool,
) -> bool {
    (too_big || !oc_converged) && attempt < MAX_RETRIES && params.reduce_dt()
}

/// What loop 2 settled on: the accepted displacements and gap measures,
/// plus the quality of the acceptance. Unlike the old `Option` + `expect`
/// pattern, an outcome always exists — and it remembers *why* the attempt
/// was accepted, so Δt recovery can distinguish a clean step from one that
/// merely ran out of retries.
pub struct StepOutcome {
    /// Accepted generalized displacements.
    pub d: Vec<f64>,
    /// Gap measures of the accepted attempt.
    pub gaps: GapArrays,
    /// Whether the open–close iteration converged on the accepted attempt.
    pub oc_converged: bool,
    /// Whether the accepted attempt still exceeded the displacement bound.
    pub too_big: bool,
    /// Δt reductions taken before acceptance.
    pub retries: usize,
}

impl StepOutcome {
    /// A cleanly accepted step: the open–close iteration converged and the
    /// displacement stayed in bounds.
    pub fn clean(&self) -> bool {
        self.oc_converged && !self.too_big
    }

    /// Grows Δt back toward its ceiling, but only after a clean first-try
    /// step. A step accepted because `MAX_RETRIES` (or the Δt floor) was
    /// exhausted is *not* clean — recovering Δt there immediately re-fails
    /// the next step and the time step thrashes at the floor instead of
    /// holding it.
    pub fn recover_dt_if_clean(&self, params: &mut DdaParams) {
        if self.clean() && self.retries == 0 {
            params.recover_dt();
        }
    }
}
