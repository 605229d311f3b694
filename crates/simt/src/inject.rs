//! Deterministic fault injection (compiled only with the `fault-inject`
//! feature).
//!
//! The fault-isolation machinery in the pipeline crates is worthless if it
//! cannot be exercised on demand: real NaN contamination and PCG breakdown
//! are rare and input-dependent. This module lets a test or benchmark
//! *arm* a fault against one batch segment (scene) of a device; the
//! pipeline's instrumented call sites poll [`Device::fault_fires`] at the
//! matching phase and corrupt their own data when it returns true.
//!
//! Injection is deterministic by construction: a fault names its target
//! segment and a firing budget, and firing consumes budget in program
//! order — no randomness, no clocks — so a poisoned run is exactly
//! reproducible and an *unpoisoned* run is bit-identical to a build
//! without the feature (the polls read state under a lock and touch no
//! numerical data).
//!
//! [`Device::fault_fires`]: crate::Device::fault_fires

/// What to corrupt when the fault fires. The corruption itself lives at
/// the pipeline call site (this crate only decides *whether* it happens).
/// Durability-layer faults are armed on the `dda-core` objects they hit
/// instead: `WalWriter::arm_io_fault` (or `FleetRouter::arm_wal_fault`)
/// and `FleetRouter::arm_migration_crash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Poison the scene's assembled right-hand side with NaN.
    NanRhs,
    /// Negate the assembled operator's diagonal so PCG meets negative
    /// curvature and breaks down.
    IndefiniteOperator,
    /// Pin the open–close loop: the contact state machine reports a
    /// change every iteration, so loop 3 never settles.
    OcPin,
    /// Report a zero pivot when the ILU(0) rung is constructed, so the
    /// fallback ladder descends to SSOR-AI. (Assembled DDA operators are
    /// SPD and rarely meet a zero ILU(0) pivot, so exercising a
    /// construction failure on the configured rung needs injection.)
    IluZeroPivot,
    /// Kill the whole device. Unlike the per-segment faults above this one
    /// is device-wide: arming it via [`Device::arm_fault`] ignores the
    /// segment argument and interprets the firing budget as the number of
    /// step-boundary polls ([`Device::poll_step_boundary`]) the device
    /// survives before dying in [`DeathMode::Crash`]. It never fires
    /// through [`Device::fault_fires`]; liveness is observed through
    /// [`Device::is_alive`] / [`Device::is_responsive`] instead.
    ///
    /// [`Device::arm_fault`]: crate::Device::arm_fault
    /// [`Device::poll_step_boundary`]: crate::Device::poll_step_boundary
    /// [`Device::fault_fires`]: crate::Device::fault_fires
    /// [`Device::is_alive`]: crate::Device::is_alive
    /// [`Device::is_responsive`]: crate::Device::is_responsive
    DeviceDeath,
}

/// How an armed [`Fault::DeviceDeath`] manifests once its countdown
/// expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathMode {
    /// Fail-stop: the device reports itself dead immediately
    /// ([`is_alive`] flips to `false`), modeling a fallen-off-the-bus GPU
    /// whose driver calls return errors. A router polling liveness at
    /// step boundaries detects this within one step.
    ///
    /// [`is_alive`]: crate::Device::is_alive
    Crash,
    /// Fail-silent: the device still claims to be alive but stops making
    /// progress ([`is_responsive`] turns `false`, launches would never
    /// return), modeling a hung kernel or a wedged driver. Detection
    /// requires a watchdog timeout on the caller's side.
    ///
    /// [`is_responsive`]: crate::Device::is_responsive
    Hang,
}

/// Liveness state of a device under an (optional) armed death.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeathState {
    /// Armed but not yet fired: mode plus remaining step-boundary polls.
    pub(crate) armed: Option<(DeathMode, usize)>,
    /// The death that fired, if any.
    pub(crate) dead: Option<DeathMode>,
}

/// One armed fault: target segment, kind, and remaining firings
/// (`usize::MAX` = unlimited).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmedFault {
    pub(crate) segment: usize,
    pub(crate) fault: Fault,
    pub(crate) remaining: usize,
}
