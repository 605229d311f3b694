//! Cached equation-solving state of one scene, owned by the step engine.

use dda_simt::{Device, Fault, KernelStats};
use dda_solver::precond::{BlockJacobi, Identity, Ilu0, Jacobi, Preconditioner, SsorAi};
use dda_solver::{PcgBatchEntry, PcgOptions, PcgWorkspace, PrecondError};
use dda_solver::{PrecondKind, SolverPrecision};
use dda_sparse::{Csr, Hsbcsr, Hsbcsr32, SymBlockMatrix};

/// Everything one ladder rung's solve borrows from the cache: the
/// refreshed format (and fp32 shadow), the rung's preconditioner, and the
/// persistent PCG workspace.
pub(crate) struct RungSolve<'a> {
    h: &'a Hsbcsr,
    h32: Option<&'a Hsbcsr32>,
    m: RungPrecond<'a>,
    ws: &'a mut PcgWorkspace,
}

/// Block-Jacobi lives in the cache (refactored in place); every other
/// rung is built per solve and borrows the cached format.
enum RungPrecond<'a> {
    Cached(&'a BlockJacobi),
    Built(Box<dyn Preconditioner + 'a>),
}

impl RungSolve<'_> {
    /// This rung's system as a batched-PCG entry.
    pub(crate) fn entry<'e>(
        &'e mut self,
        b: &'e [f64],
        x0: &'e [f64],
        opts: PcgOptions,
        precision: SolverPrecision,
    ) -> PcgBatchEntry<'e> {
        PcgBatchEntry {
            h: self.h,
            h32: self.h32,
            b,
            x0,
            m: match &self.m {
                RungPrecond::Cached(bj) => *bj,
                RungPrecond::Built(m) => m.as_ref(),
            },
            opts,
            precision,
            ws: self.ws,
        }
    }
}

/// Cached equation-solving state, reused across open–close iterations and
/// time steps. The open–close loop usually toggles no contacts between
/// consecutive solves, so the HSBCSR symbolic structure (index arrays,
/// padding) is stable: the cache then refills values in place instead of
/// rebuilding, reuses the Block-Jacobi storage (refactoring values with the
/// same single launch), and keeps the PCG/SpMV workspace warm so the whole
/// solve path stops allocating. Mixed-precision scenes additionally keep an
/// fp32 value shadow, refreshed in the *same* refill sweep as the fp64
/// values (zero extra passes over the matrix).
#[derive(Default)]
pub(crate) struct SolverCache {
    h: Option<Hsbcsr>,
    h32: Option<Hsbcsr32>,
    bj: Option<BlockJacobi>,
    pub(crate) pcg_ws: PcgWorkspace,
    /// Diagnostics: how many solves reused the symbolic structure.
    pub(crate) refills: usize,
    /// Diagnostics: how many solves rebuilt the format from scratch.
    pub(crate) rebuilds: usize,
    /// The previous healthy iterate of the current step's open–close loop
    /// (capacity-reused; `warm_valid` gates it). Used as the PCG starting
    /// point under `SolverWarmStart::PrevIterate`, reset at every attempt
    /// start and on fallback-ladder descent.
    warm: Vec<f64>,
    warm_valid: bool,
}

impl SolverCache {
    /// The warm iterate, if one is armed.
    pub(crate) fn warm_iterate(&self) -> Option<&[f64]> {
        self.warm_valid.then_some(self.warm.as_slice())
    }

    /// Record `x` as the warm starting point for the next re-solve
    /// (in-place copy; no steady-state allocation once warmed).
    pub(crate) fn set_warm(&mut self, x: &[f64]) {
        self.warm.clear();
        self.warm.extend_from_slice(x);
        self.warm_valid = true;
    }

    /// Drop the warm iterate (attempt start, ladder descent).
    pub(crate) fn clear_warm(&mut self) {
        self.warm_valid = false;
    }

    /// Refreshes the cache for `matrix` and constructs the preconditioner of
    /// ladder rung `kind` on it. `Err` is a construction failure (zero
    /// pivot, singular block, zero diagonal) — the caller descends the
    /// ladder on it.
    pub(crate) fn prepare(
        &mut self,
        dev: &Device,
        matrix: &SymBlockMatrix,
        kind: PrecondKind,
        want_f32: bool,
    ) -> Result<RungSolve<'_>, PrecondError> {
        let want_bj = kind == PrecondKind::BlockJacobi;
        let (h, h32, bj, ws) = self.try_prepare(dev, matrix, want_bj, want_f32)?;
        let m = match kind {
            PrecondKind::None => RungPrecond::Built(Box::new(Identity)),
            PrecondKind::BlockJacobi => {
                RungPrecond::Cached(bj.expect("try_prepare(want_bj) returns a factorization"))
            }
            PrecondKind::SsorAi => RungPrecond::Built(Box::new(SsorAi::try_new(dev, h, 1.0)?)),
            PrecondKind::Ilu0 => {
                if dev.fault_fires(Fault::IluZeroPivot) {
                    return Err(PrecondError::ZeroPivot { row: 0, pivot: 0.0 });
                }
                let csr = Csr::from_sym_full(matrix);
                RungPrecond::Built(Box::new(Ilu0::try_new(dev, &csr)?))
            }
            PrecondKind::Jacobi => RungPrecond::Built(Box::new(Jacobi::try_new(dev, h)?)),
        };
        Ok(RungSolve { h, h32, m, ws })
    }

    /// Refreshes the cached format (and, when `want_bj`, the Block-Jacobi
    /// factorization; when `want_f32`, the fp32 value shadow) for `matrix`,
    /// charging the format-building traffic on `dev`, and hands back
    /// disjoint borrows of everything a fused PCG call needs.
    ///
    /// Format building is charged as part of the solving module's time via
    /// an explicit record — the paper's pipeline equally pays it on device.
    /// When the sparsity pattern matches the cached format, only the value
    /// arrays are rewritten; the index derivation and its traffic are
    /// skipped. The shadow rides the same sweep, adding only its own
    /// half-width store traffic.
    ///
    /// A singular diagonal sub-matrix (malformed scene input) surfaces as
    /// a structured [`PrecondError`] so the caller's fallback ladder can
    /// degrade instead of panicking inside the factorization kernel.
    #[allow(clippy::type_complexity)]
    fn try_prepare(
        &mut self,
        dev: &Device,
        matrix: &SymBlockMatrix,
        want_bj: bool,
        want_f32: bool,
    ) -> Result<
        (
            &Hsbcsr,
            Option<&Hsbcsr32>,
            Option<&BlockJacobi>,
            &mut PcgWorkspace,
        ),
        PrecondError,
    > {
        let SolverCache {
            h: h_slot,
            h32: h32_slot,
            bj: bj_slot,
            pcg_ws,
            refills,
            rebuilds,
            ..
        } = self;

        if want_f32 && h32_slot.is_none() {
            *h32_slot = Some(Hsbcsr32::new());
        }
        let refilled = match h_slot.as_mut() {
            Some(h) => match h32_slot.as_mut().filter(|_| want_f32) {
                // Steady state: one sweep writes both precisions.
                Some(sh) => h.refill_values_with_shadow(matrix, sh),
                None => h.refill_values(matrix),
            },
            None => false,
        };
        if !refilled {
            let h = Hsbcsr::from_sym(matrix);
            if let Some(sh) = h32_slot.as_mut().filter(|_| want_f32) {
                sh.refill_from(&h);
            }
            *h_slot = Some(h);
            *rebuilds += 1;
        } else {
            *refills += 1;
        }
        let h = h_slot.as_ref().expect("cache holds a format after refill");
        let h32 = if want_f32 {
            let sh = h32_slot.as_ref().expect("want_f32 installed a shadow");
            debug_assert!(sh.matches(h), "shadow refreshed alongside the format");
            Some(sh)
        } else {
            None
        };
        let bytes = h.data_bytes() as u64;
        // Rebuilds pay the symbolic derivation (2×); the fp32 shadow adds
        // its half-width stores on top of whichever path ran.
        let mut charged = if refilled { bytes } else { 2 * bytes };
        if want_f32 {
            charged += bytes / 2;
        }
        dev.record_external(
            "format.hsbcsr",
            KernelStats {
                launches: 1,
                threads: (h.n + h.n_nd) as u64,
                warps: ((h.n + h.n_nd) as u64).div_ceil(32),
                gmem_bytes: charged,
                gmem_transactions: charged.div_ceil(128),
                ..Default::default()
            },
        );

        let bj = if want_bj {
            // Values change every solve (contact springs); the cache keeps
            // the storage and refactors in place.
            match bj_slot.as_mut() {
                Some(bj) => bj.try_refactor(dev, h)?,
                None => *bj_slot = Some(BlockJacobi::try_new(dev, h)?),
            }
            Some(bj_slot.as_ref().expect("cache holds a factorization"))
        } else {
            None
        };
        Ok((h, h32, bj, pcg_ws))
    }
}
