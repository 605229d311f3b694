//! What loop 2 (displacement control) settles on, shared by the serial
//! reference pipeline and the GPU step engine. The loops themselves are
//! deliberately *not* shared: the serial pipeline is the oracle the engine
//! is checked against, so it must not run the code it checks.

use crate::interpenetration::GapArrays;
use crate::params::DdaParams;

/// Maximum times a step is redone with a reduced Δt before being accepted
/// as-is (Shi's code behaves the same once the Δt floor is hit).
pub(crate) const MAX_RETRIES: usize = 4;

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
