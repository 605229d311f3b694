//! Deterministic fault injection.
//!
//! The fault-isolation machinery in the pipeline crates is worthless if it
//! cannot be exercised on demand: real NaN contamination and PCG breakdown
//! are rare and input-dependent. This module lets a test or benchmark
//! *arm* a fault against one batch segment (scene) of a device; the
//! pipeline's instrumented call sites poll [`Device::fault_fires`] at the
//! matching phase and corrupt their own data when it returns true. A
//! device death is armed separately, with [`Device::arm_device_death`].
//!
//! The hooks are always compiled and fire only when armed. Injection is
//! deterministic by construction: a fault names its target segment and a
//! firing budget, and firing consumes budget in program order — no
//! randomness, no clocks — so a poisoned run is exactly reproducible. An
//! *unarmed* run is bit-identical to one that never polls: a poll reads
//! the armed list under a lock, launches no kernel and touches no
//! numerical data (the launch-counter and step-engine goldens pin this).
//!
//! [`Device::fault_fires`]: crate::Device::fault_fires
//! [`Device::arm_device_death`]: crate::Device::arm_device_death

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
}

/// How a death armed with [`Device::arm_device_death`] manifests once
/// its countdown expires.
///
/// [`Device::arm_device_death`]: crate::Device::arm_device_death
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
