//! The two end-to-end drivers and their per-module accounting.
//!
//! [`CpuPipeline`] is Fig 1: the serial reference implementation, timed
//! under the Xeon E5620 model. [`GpuPipeline`] is Fig 2: every module runs
//! as simulated kernels on a Tesla profile. Both expose the per-module
//! times Tables II–III report: contact detection, diagonal building,
//! non-diagonal building, equation solving, interpenetration checking,
//! data updating.

pub mod batch;
pub mod codec;
pub mod cpu;
pub(crate) mod driver;
pub(crate) mod engine;
pub mod fleet;
pub mod gpu;
pub mod health;
pub mod ingest;
pub(crate) mod solver_cache;
pub mod wal;

pub use batch::{SceneBatch, SceneState};
pub use codec::{CheckpointError, FleetCheckpoint, SceneCheckpoint};
pub use cpu::CpuPipeline;
pub use driver::StepOutcome;
pub use fleet::{
    system_fingerprint, FleetError, FleetOutcome, FleetRouter, FleetStats, FleetSubmission,
    FleetTickReport, MigrationPhase, MigrationVictim, RebalanceConfig, RouterConfig, SceneId,
};
pub use gpu::{GpuPipeline, PrecondKind};
pub use health::{HealthPolicy, SceneHealth, SlotState, StepError};
pub use ingest::{
    BatchScheduler, Envelope, FleetScene, IngestConfig, IngestError, IngestStats, Priority,
    SceneRecord, SceneStatus, SceneSubmission, TickReport, Ticket,
};
pub use wal::{
    PendingMigration, RecordSpan, WalConfig, WalError, WalIoOp, WalOutcome, WalRecordKind,
    WalReplay, WalStats, WalWriter,
};

use serde::{Deserialize, Serialize};

/// Accumulated modeled seconds per pipeline module (the rows of
/// Tables II–III).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ModuleTimes {
    /// Broad + narrow phase, transfer, initialization.
    pub contact_detection: f64,
    /// Per-block diagonal terms.
    pub diag_building: f64,
    /// Contact-spring terms + global assembly.
    pub nondiag_building: f64,
    /// Preconditioner construction/application + PCG.
    pub solving: f64,
    /// Gap evaluation + open–close updates.
    pub interpenetration: f64,
    /// Geometry/velocity/stress commit.
    pub updating: f64,
}

impl ModuleTimes {
    /// Total across modules.
    pub fn total(&self) -> f64 {
        Phase::ALL.into_iter().map(|p| self[p]).sum()
    }

    /// Per-module speed-up of `self` (baseline) over `other` (accelerated):
    /// the Tables II–III columns.
    pub fn speedup_over(&self, other: &ModuleTimes) -> ModuleTimes {
        let r = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out = ModuleTimes::default();
        for p in Phase::ALL {
            out[p] = r(self[p], other[p]);
        }
        out
    }

    /// Modeled seconds accumulated since an earlier snapshot — the
    /// per-step phase breakdown `StepReport` carries.
    pub fn delta_since(&self, earlier: &ModuleTimes) -> ModuleTimes {
        let mut out = *self;
        for p in Phase::ALL {
            out[p] -= earlier[p];
        }
        out
    }

    /// Named rows in table order.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("Contact Detection", self.contact_detection),
            ("Diagonal Matrix Building", self.diag_building),
            ("Non-diagonal Matrix Building", self.nondiag_building),
            ("Equation Solving", self.solving),
            ("Interpenetration Checking", self.interpenetration),
            ("Data Updating", self.updating),
        ]
    }
}

/// Declares [`Phase`] from `Variant => field` pairs: the one place a
/// module's name, its [`ModuleTimes`] field and its trace tag are tied.
macro_rules! phases {
    ($($variant:ident => $field:ident),* $(,)?) => {
        /// A pipeline module: a row of Tables II–III, a [`ModuleTimes`]
        /// bucket (`times[phase]`), and the
        /// [`Device::in_phase`](dda_simt::Device::in_phase) its launches are
        /// recorded in ([`Phase::tag`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // the variants are `ModuleTimes`'s fields
        pub enum Phase { $($variant),* }

        impl Phase {
            /// Every phase, in table order.
            pub const ALL: [Phase; 6] = [$(Phase::$variant),*];

            /// The trace tag: the name of the phase's [`ModuleTimes`] field.
            pub fn tag(self) -> &'static str {
                match self { $(Phase::$variant => stringify!($field)),* }
            }
        }

        impl std::ops::Index<Phase> for ModuleTimes {
            type Output = f64;
            fn index(&self, phase: Phase) -> &f64 {
                match phase { $(Phase::$variant => &self.$field),* }
            }
        }

        impl std::ops::IndexMut<Phase> for ModuleTimes {
            fn index_mut(&mut self, phase: Phase) -> &mut f64 {
                match phase { $(Phase::$variant => &mut self.$field),* }
            }
        }
    };
}

phases! {
    ContactDetection => contact_detection,
    DiagBuilding => diag_building,
    NondiagBuilding => nondiag_building,
    Solving => solving,
    Interpenetration => interpenetration,
    Updating => updating,
}

/// Outcome of one time step.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StepReport {
    /// Open–close iterations executed (final attempt).
    pub oc_iterations: usize,
    /// Total PCG iterations across the step's solves.
    pub pcg_iterations: usize,
    /// PCG iterations of the final solve (Fig 5 samples this).
    pub last_solve_iterations: usize,
    /// Contacts in the step.
    pub n_contacts: usize,
    /// Non-diagonal (upper) sub-matrices in the final system.
    pub n_upper: usize,
    /// Physical time-step size used.
    pub dt: f64,
    /// Times the step was redone with a reduced Δt.
    pub retries: usize,
    /// Largest vertex displacement of the accepted solution.
    pub max_displacement: f64,
    /// Whether the open–close iteration converged.
    pub oc_converged: bool,
    /// Final contact-category histogram (index 0 = abandoned, 1–5 = the
    /// paper's C1…C5 classification; populated by the GPU pipeline).
    pub categories: [usize; 6],
    /// Largest first-order penetration among *open* contacts after the
    /// accepted solve — the checker's "no interpenetrations" criterion
    /// (should sit at the numerical-noise scale once loop 3 converges).
    pub max_open_penetration: f64,
    /// Deepest preconditioner fallback rung any solve of this step needed
    /// (0 = the configured preconditioner; each +1 is one rung down its
    /// ladder, [`PrecondKind::ladder`]).
    pub fallback_level: usize,
    /// The ladder rung that depth lands on — the preconditioner the
    /// deepest-degraded solve of this step actually used (its name via
    /// [`PrecondKind::name`]). Defaults to the hub rung, matching the
    /// default configuration, for steps that never solve.
    pub fallback_rung: PrecondKind,
    /// Modeled seconds this step added to each pipeline module — the
    /// per-phase breakdown (broad/narrow under `contact_detection`,
    /// assembly under `diag_building`/`nondiag_building`, solve, check,
    /// update), so benches read phase costs directly instead of diffing
    /// kernel traces.
    pub phase_times: ModuleTimes,
    /// Assembly-reuse counters this step added (all zero under
    /// `AssemblyReuse::Recompute`).
    pub assembly: crate::assembly_cache::AssemblyStats,
    /// Solves of this step that warm-started from a previous open–close
    /// iterate (only under `SolverWarmStart::PrevIterate`).
    pub warm_starts: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_speedups() {
        let cpu = ModuleTimes {
            contact_detection: 100.0,
            diag_building: 10.0,
            nondiag_building: 20.0,
            solving: 400.0,
            interpenetration: 30.0,
            updating: 5.0,
        };
        let gpu = ModuleTimes {
            contact_detection: 1.0,
            diag_building: 0.1,
            nondiag_building: 5.0,
            solving: 8.0,
            interpenetration: 1.0,
            updating: 0.1,
        };
        assert!((cpu.total() - 565.0).abs() < 1e-12);
        let s = cpu.speedup_over(&gpu);
        assert!((s.contact_detection - 100.0).abs() < 1e-12);
        assert!((s.solving - 50.0).abs() < 1e-12);
        assert_eq!(cpu.rows()[3].0, "Equation Solving");
    }

    #[test]
    fn zero_baseline_guarded() {
        let a = ModuleTimes::default();
        let s = a.speedup_over(&a);
        assert_eq!(s.total(), 0.0);
    }
}
