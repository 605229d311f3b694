//! Cached equation-solving state of one scene, owned by the step engine.

use dda_simt::{Device, Fault, KernelStats};
use dda_solver::precond::{BlockJacobi, Identity, Ilu0, Jacobi, Preconditioner, SsorAi};
use dda_solver::{PcgBatchEntry, PcgOptions, PcgWorkspace, PrecondError, PrecondKind};
use dda_sparse::{Csr, Hsbcsr, SymBlockMatrix};

/// Everything one ladder rung's solve borrows from the cache: the
/// refreshed format, the rung's preconditioner, and the persistent PCG
/// workspace.
pub(crate) struct RungSolve<'a> {
    h: &'a Hsbcsr,
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
    ) -> PcgBatchEntry<'e> {
        PcgBatchEntry {
            h: self.h,
            b,
            x0,
            m: match &self.m {
                RungPrecond::Cached(bj) => *bj,
                RungPrecond::Built(m) => m.as_ref(),
            },
            opts,
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
/// solve path stops allocating.
#[derive(Default)]
pub(crate) struct SolverCache {
    h: Option<Hsbcsr>,
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
    ) -> Result<RungSolve<'_>, PrecondError> {
        let want_bj = kind == PrecondKind::BlockJacobi;
        let (h, bj, ws) = self.try_prepare(dev, matrix, want_bj)?;
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
        Ok(RungSolve { h, m, ws })
    }

    /// Refreshes the cached format (and, when `want_bj`, the Block-Jacobi
    /// factorization) for `matrix`, charging the format-building traffic on
    /// `dev`, and hands back disjoint borrows of everything a fused PCG call
    /// needs.
    ///
    /// Format building is charged as part of the solving module's time via
    /// an explicit record — the paper's pipeline equally pays it on device.
    /// When the sparsity pattern matches the cached format, only the value
    /// arrays are rewritten; the index derivation and its traffic are
    /// skipped.
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
    ) -> Result<(&Hsbcsr, Option<&BlockJacobi>, &mut PcgWorkspace), PrecondError> {
        let SolverCache {
            h: h_slot,
            bj: bj_slot,
            pcg_ws,
            refills,
            rebuilds,
            ..
        } = self;

        let refilled = h_slot.as_mut().is_some_and(|h| h.refill_values(matrix));
        if !refilled {
            *h_slot = Some(Hsbcsr::from_sym(matrix));
            *rebuilds += 1;
        } else {
            *refills += 1;
        }
        let h = h_slot.as_ref().expect("cache holds a format after refill");
        let bytes = h.data_bytes() as u64;
        // Rebuilds pay the symbolic derivation (2×).
        let charged = if refilled { bytes } else { 2 * bytes };
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
        Ok((h, bj, pcg_ws))
    }
}
