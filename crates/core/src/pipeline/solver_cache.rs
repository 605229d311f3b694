//! Cached equation-solving state of one scene, owned by the step engine.

use dda_simt::{Device, Fault, KernelStats};
use dda_solver::precond::{HubSchur, Identity, Ilu0, Jacobi, Preconditioner, SsorAi};
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

/// Block-Jacobi and the hub rung live in the cache (refactored in place);
/// every other rung is built per solve and borrows the cached format.
enum RungPrecond<'a> {
    Cached(&'a HubSchur),
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
                RungPrecond::Cached(m) => *m,
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
/// rebuilding, reuses the Block-Jacobi and hub storage (refactoring values
/// with the same launches), and keeps the PCG/SpMV workspace warm so the
/// whole solve path stops allocating.
#[derive(Default)]
pub(crate) struct SolverCache {
    h: Option<Hsbcsr>,
    /// Block-Jacobi, with the hub eliminated on the hub rung. One
    /// factorization serves both rungs: without a hub it *is* Block-Jacobi,
    /// launch for launch and bit for bit.
    bj: Option<HubSchur>,
    /// The scene's fixed blocks, ascending (they never change).
    fixed: Vec<u32>,
    /// The hub the cached format's pattern couples
    /// ([`HubSchur::hub_of`]; empty: the hub rung is Block-Jacobi),
    /// decided when the format is rebuilt.
    hub: Vec<u32>,
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
    /// An empty cache for a scene whose fixed blocks are `fixed`.
    pub(crate) fn new(fixed: Vec<u32>) -> SolverCache {
        SolverCache {
            fixed,
            ..SolverCache::default()
        }
    }

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
        let (h, cached, ws) = self.try_prepare(dev, matrix, kind)?;
        let m = match kind {
            PrecondKind::None => RungPrecond::Built(Box::new(Identity)),
            PrecondKind::BlockJacobi | PrecondKind::HubSchur => {
                RungPrecond::Cached(cached.expect("try_prepare returns the cached rung"))
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

    /// Refreshes the cached format (and, for the Block-Jacobi and hub
    /// rungs, their cached factorization) for `matrix`, charging the
    /// format-building traffic on `dev`, and hands back disjoint borrows of
    /// everything a fused PCG call needs.
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
        kind: PrecondKind,
    ) -> Result<(&Hsbcsr, Option<&HubSchur>, &mut PcgWorkspace), PrecondError> {
        let SolverCache {
            h: h_slot,
            bj: bj_slot,
            fixed,
            hub,
            pcg_ws,
            refills,
            rebuilds,
            ..
        } = self;

        let refilled = h_slot.as_mut().is_some_and(|h| h.refill_values(matrix));
        if !refilled {
            let rebuilt = h_slot.insert(Hsbcsr::from_sym(matrix));
            *hub = HubSchur::hub_of(rebuilt, fixed);
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

        // Values change every solve (contact springs); the cache keeps the
        // storage and refactors in place.
        let hub: &[u32] = match kind {
            PrecondKind::HubSchur => hub,
            PrecondKind::BlockJacobi => &[],
            _ => return Ok((h, None, pcg_ws)),
        };
        let cached = match bj_slot {
            Some(m) => {
                m.try_refactor(dev, h, hub)?;
                m
            }
            None => bj_slot.insert(HubSchur::try_new(dev, h, hub)?),
        };
        Ok((h, Some(cached), pcg_ws))
    }
}
