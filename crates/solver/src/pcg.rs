//! Preconditioned conjugate gradients on the simulated device.
//!
//! Standard PCG with the DDA conventions: the iteration cap defaults to 200
//! (the paper shrinks the physical time step when a solve fails to converge
//! within 200 iterations), and callers seed `x0` with the previous step's
//! solution ("the equation solution of the previous step is the initial
//! value of the PCG iterative step", §IV-A).
//!
//! Two drivers share the math:
//!
//! * [`pcg`] — the textbook loop, ~12 launches per iteration (2 SpMV
//!   stages, 2×2 dot stages, 2 norm stages, 2 axpy, 1 apply, 1 xpby);
//! * [`pcg_fused`] — the fused-kernel loop: with a block-diagonal (or
//!   identity) preconditioner each iteration is exactly **3 launches**:
//!   SpMV stage 1 and stage 2 + `p·q` partials — from the second iteration
//!   on both stages form `p ← z + βp` on load, and stage 2 stores it — then
//!   `update` (α, `x += αp`, `r −= αq`, `z = D⁻¹r`, the ‖r‖² and `r·z`
//!   partials, and, in the block that finishes last, both reductions and
//!   β). Other preconditioners fall back to the fused BLAS-1 train around
//!   an unfused apply (`axpy2norm`, the apply, `xpby_beta`). Launch
//!   overhead is the dominant per-iteration fixed cost on the GPU (5 µs
//!   each under the timing model), so the fusion cuts the solver's modeled
//!   time directly. Its set-up is **4 launches** on that fast path (SpMV
//!   stage 1, stage 2, `residual`, `precond_rz`; ten in [`pcg`]), bit for
//!   bit the unfused sequence — a step solves several systems of ~10
//!   iterations each, so what a solve pays before its first iteration is
//!   a real share. The three-launch iteration does the arithmetic of the
//!   five-launch one it replaced (`axpy2norm`, `precond_rz`, `xpby_beta`)
//!   in the same order, so every iterate is bitwise that sequence's; both
//!   match the unfused loop except for the `p·q` dot, whose partials tile
//!   by SpMV row block instead of 256-scalar tiles — a reassociation drift
//!   of order 1e-16 relative per iteration.

use crate::precond::Preconditioner;
use crate::traits::MatVec;
use crate::vecops::{
    axpy, axpy_widen, demote, dot, dot_partials_into, fused_axpy2_norm, fused_precond_rz,
    fused_residual, fused_update, fused_xpby_beta, norm_sq, promote, reduce_partials, xpby,
};
use dda_simt::{BatchSummary, Device};
use dda_sparse::spmv::{
    spmv_hsbcsr_f32, spmv_hsbcsr_f32_folded_pq, spmv_hsbcsr_folded_pq, spmv_hsbcsr_fused_pq,
    spmv_hsbcsr_into, Fold, SpmvWorkspace, Stage1Smem,
};
use dda_sparse::{Hsbcsr, Hsbcsr32, Scalar};
use serde::{Deserialize, Serialize};

/// Numeric mode for the fused solver's value streams.
///
/// [`Full`](SolverPrecision::Full) is the historical pure-fp64 path.
/// [`Mixed`](SolverPrecision::Mixed) runs the inner PCG iterations with
/// fp32 *storage* of the matrix values, every iterate vector (`x`, `r`,
/// `z`, `p`, `q`), the SpMV staging arrays, and the Block-Jacobi inverses
/// — halving the bytes of essentially all inner-loop global traffic —
/// while every accumulation, every update scalar, every partial sum, and
/// every index stays fp64, wrapped in an fp64 outer iterative-refinement
/// loop that restores full-precision residuals. When refinement stalls or
/// the inner solve breaks down, [`pcg_fused_mixed`] falls back
/// deterministically to the pure-fp64 solve from the original warm start —
/// bit-identical to what `Full` would have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverPrecision {
    /// Pure fp64 storage and arithmetic everywhere.
    #[default]
    Full,
    /// fp32-storage/fp64-accumulate inner PCG under fp64 refinement.
    Mixed,
}

impl SolverPrecision {
    /// Short name used in reports and benchmark records.
    pub fn name(self) -> &'static str {
        match self {
            SolverPrecision::Full => "fp64",
            SolverPrecision::Mixed => "mixed",
        }
    }
}

/// PCG controls.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PcgOptions {
    /// Relative residual tolerance: converge when `‖r‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Iteration cap (DDA uses 200; on failure the time step is reduced).
    pub max_iters: usize,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            tol: 1e-8,
            max_iters: 200,
        }
    }
}

/// Why a PCG solve stopped before meeting its tolerance.
///
/// Historically the `p·q ≤ 0` breakdown guard exited the iteration loop
/// indistinguishably from convergence (the caller only saw
/// `converged = false`, the same as an iteration-cap exit). The pipeline's
/// degradation ladder needs to tell those apart: a cap exit means "shrink
/// Δt and retry", a breakdown means "the operator or preconditioner is
/// unusable — fall back or quarantine".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SolveError {
    /// `p·q ≤ 0`: the operator is not positive definite along the current
    /// search direction (CG's invariant is broken).
    IndefiniteOperator {
        /// The offending curvature value `p·q`.
        pq: f64,
        /// Iteration at which the guard tripped (1-based).
        iteration: usize,
    },
    /// A non-finite value contaminated the iteration (NaN/Inf in the
    /// right-hand side, the operator, or the preconditioner output).
    NonFinite {
        /// Iteration at which the contamination was detected (0 = the
        /// inputs were already non-finite before the first iteration).
        iteration: usize,
    },
    /// The preconditioner could not be applied (singular diagonal block in
    /// the serial Block-Jacobi path).
    SingularPreconditioner {
        /// Index of the offending 6×6 diagonal block.
        block: usize,
    },
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolveError::IndefiniteOperator { pq, iteration } => {
                write!(
                    f,
                    "indefinite operator: p·q = {pq} at iteration {iteration}"
                )
            }
            SolveError::NonFinite { iteration } => {
                write!(f, "non-finite value at iteration {iteration}")
            }
            SolveError::SingularPreconditioner { block } => {
                write!(f, "singular preconditioner diagonal block {block}")
            }
        }
    }
}

/// Classifies a breakdown curvature value `p·q` into its [`SolveError`].
fn breakdown_reason(pq: f64, iteration: usize) -> SolveError {
    if pq.is_finite() {
        SolveError::IndefiniteOperator { pq, iteration }
    } else {
        SolveError::NonFinite { iteration }
    }
}

/// Outcome of one PCG solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveResult {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was met within the cap.
    pub converged: bool,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Why the solve stopped early, if it broke down. `None` with
    /// `converged = false` means the iteration cap was reached — a normal
    /// Δt-retry situation, not a fault.
    pub error: Option<SolveError>,
}

impl SolveResult {
    /// The rejection of a NaN/Inf right-hand side, which no iteration can
    /// help: the warm start comes back untouched.
    fn non_finite_rhs(x0: &[f64]) -> SolveResult {
        SolveResult {
            x: x0.to_vec(),
            iterations: 0,
            converged: false,
            residual: f64::NAN,
            error: Some(SolveError::NonFinite { iteration: 0 }),
        }
    }

    /// True when the solve ended in breakdown (as opposed to converging or
    /// merely hitting the iteration cap).
    pub fn broke_down(&self) -> bool {
        self.error.is_some()
    }
}

/// Solves `A x = b` by preconditioned CG, starting from `x0`.
///
/// ```
/// use dda_simt::{Device, DeviceProfile};
/// use dda_solver::precond::BlockJacobi;
/// use dda_solver::traits::HsbcsrMat;
/// use dda_solver::{pcg, PcgOptions};
/// use dda_sparse::{Hsbcsr, SymBlockMatrix};
///
/// let m = SymBlockMatrix::random_spd(20, 3.0, 1);
/// let h = Hsbcsr::from_sym(&m);
/// let b = vec![1.0; m.dim()];
/// let dev = Device::new(DeviceProfile::tesla_k40());
/// let bj = BlockJacobi::new(&dev, &h);
/// let res = pcg(&dev, &HsbcsrMat { m: &h }, &b, &vec![0.0; m.dim()], &bj,
///               PcgOptions::default());
/// assert!(res.converged);
/// ```
pub fn pcg<A: MatVec + ?Sized, P: Preconditioner + ?Sized>(
    dev: &Device,
    a: &A,
    b: &[f64],
    x0: &[f64],
    m: &P,
    opts: PcgOptions,
) -> SolveResult {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    assert_eq!(x0.len(), n, "initial guess dimension mismatch");

    let b_norm_sq = norm_sq(dev, b);
    if !b_norm_sq.is_finite() {
        return SolveResult::non_finite_rhs(x0);
    }
    let threshold_sq = threshold_sq(opts, b_norm_sq);

    let mut x = x0.to_vec();
    // r = b − A x
    let ax = a.apply(dev, &x);
    let mut r = b.to_vec();
    axpy(dev, -1.0, &ax, &mut r);

    let mut r_norm_sq = norm_sq(dev, &r);
    if r_norm_sq <= threshold_sq {
        return SolveResult {
            x,
            iterations: 0,
            converged: true,
            residual: r_norm_sq.sqrt(),
            error: None,
        };
    }

    let mut z = m.apply(dev, &r);
    let mut p = z.clone();
    let mut rz = dot(dev, &r, &z);

    let mut iterations = 0;
    let mut converged = false;
    let mut error = None;
    while iterations < opts.max_iters {
        iterations += 1;
        let q = a.apply(dev, &p);
        let pq = dot(dev, &p, &q);
        if pq <= 0.0 || !pq.is_finite() {
            // Indefinite or broken operator — bail with the current
            // iterate, reporting why so the caller can tell this apart
            // from an iteration-cap exit.
            error = Some(breakdown_reason(pq, iterations));
            break;
        }
        let alpha = rz / pq;
        axpy(dev, alpha, &p, &mut x);
        axpy(dev, -alpha, &q, &mut r);
        r_norm_sq = norm_sq(dev, &r);
        if r_norm_sq <= threshold_sq {
            converged = true;
            break;
        }
        z = m.apply(dev, &r);
        let rz_new = dot(dev, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        // p ← z + β p
        xpby(dev, &z, beta, &mut p);
    }

    SolveResult {
        x,
        iterations,
        converged,
        residual: r_norm_sq.max(0.0).sqrt(),
        error,
    }
}

/// The iterate vectors of one fused solve and the SpMV staging arrays, all
/// stored as `S`.
#[derive(Debug, Default)]
struct IterVecs<S: Scalar> {
    x: Vec<S>,
    r: Vec<S>,
    // The fused update's output residual, swapped with `r` after it: the
    // update reads the old `r` in every block, so none may overwrite it.
    r_next: Vec<S>,
    z: Vec<S>,
    p: Vec<S>,
    q: Vec<S>,
    spmv: SpmvWorkspace<S>,
}

/// Persistent state for [`pcg_fused`]: the SpMV workspace plus every
/// iteration vector and partial-sum buffer. Holding one workspace across
/// solves makes the fused solver's steady state allocation-free (the
/// returned solution is the only per-solve allocation).
#[derive(Debug, Default)]
pub struct PcgWorkspace {
    v64: IterVecs<f64>,
    // Iterates of the mixed driver's fp32 correction solves; empty until
    // the first Mixed solve.
    v32: IterVecs<f32>,
    sums: Sums,
    // Outer-loop state of the mixed-precision refinement driver.
    outer_x: Vec<f64>,
    outer_r: Vec<f64>,
}

impl PcgWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> PcgWorkspace {
        PcgWorkspace::default()
    }
}

/// The reduction buffers and device scalars of a fused solve. Partial sums
/// never narrow, so both storage types share them.
#[derive(Debug, Default)]
struct Sums {
    /// `‖b‖²` tile partials of the set-up residual.
    b: Vec<f64>,
    /// `‖r‖²` tile partials.
    norm: Vec<f64>,
    /// `r·z` tile partials.
    rz: Vec<f64>,
    /// `[r·z, β]` of the current residual. On the fused path these are the
    /// device scalars the last block of the set-up `precond_rz` and of each
    /// `update` stores (`r·z` only, in the set-up), and the next `update`
    /// and folded SpMV read; a bridged iteration keeps `r·z` here too.
    scalars: [f64; 2],
}

/// How the iteration obtains `z = M⁻¹ r`.
enum Apply<'a, S, F> {
    /// Inside the `update` kernel — the three-launch iteration: flat
    /// block-diagonal inverses, or `None` for the identity.
    Fused(Option<&'a [S]>),
    /// Through a separate apply `F(r, z)` between the fused BLAS-1 kernels
    /// (SSOR/ILU0/Jacobi applies are not single block-diagonal products).
    Bridged(F),
}

/// How [`iterate`] ended.
struct LoopEnd {
    iterations: usize,
    converged: bool,
    r_norm_sq: f64,
    error: Option<SolveError>,
}

impl LoopEnd {
    /// An exit before the first iteration.
    fn at_setup(r_norm_sq: f64, error: Option<SolveError>) -> LoopEnd {
        LoopEnd {
            iterations: 0,
            converged: error.is_none(),
            r_norm_sq,
            error,
        }
    }
}

/// The last set-up step, shared by both storage types: `z₀ = M⁻¹r`,
/// `p₀ = z₀`, and `r·z₀` into `sums.scalars[0]`. The fused apply is one
/// launch whose last block reduces the `r·z₀` partials and stores the
/// scalar; a bridged apply is followed by the unfused dot.
fn first_direction<S: Scalar>(
    dev: &Device,
    apply: &mut Apply<'_, S, impl FnMut(&[S], &mut Vec<S>)>,
    v: &mut IterVecs<S>,
    sums: &mut Sums,
) {
    v.z.clear();
    v.z.resize(v.r.len(), S::default());
    match apply {
        Apply::Fused(dinv) => {
            fused_precond_rz(dev, *dinv, &v.r, &mut v.z, &mut sums.rz, &mut sums.scalars);
        }
        Apply::Bridged(m_apply) => {
            m_apply(&v.r, &mut v.z);
            dot_partials_into(dev, &v.r, &v.z, &mut sums.rz);
            sums.scalars[0] = reduce_partials(dev, &sums.rz);
        }
    }
    v.p.clear();
    v.p.extend_from_slice(&v.z);
}

/// The fp64 SpMV of [`iterate`] on `h`.
fn spmv_pq_f64<'f>(
    dev: &'f Device,
    h: &'f Hsbcsr,
) -> impl FnMut(Option<Fold<'_, f64>>, &mut [f64], &mut SpmvWorkspace, &mut [f64]) + 'f {
    move |fold, p, sws, q| match fold {
        Some(fold) => spmv_hsbcsr_folded_pq(dev, h, fold, p, Stage1Smem::Proposed, sws, q),
        None => spmv_hsbcsr_fused_pq(dev, h, p, Stage1Smem::Proposed, sws, q),
    }
}

/// The fused PCG iteration, written once for both storage types. Expects
/// `v.r`, `v.z`, `v.p = v.z` and `sums.scalars[0] = r·z` set up by the
/// caller; `v.x` holds the iterate on return. `spmv_pq(fold, p, ws, q)`
/// computes `q = A p` with the `p·q` partials fused into stage 2, first
/// forming `p ← z + βp` in both stages when a [`Fold`] is given.
#[deny(clippy::float_cmp)]
#[allow(clippy::too_many_arguments)]
fn iterate<S: Scalar>(
    dev: &Device,
    mut spmv_pq: impl FnMut(Option<Fold<'_, S>>, &mut [S], &mut SpmvWorkspace<S>, &mut [S]),
    mut apply: Apply<'_, S, impl FnMut(&[S], &mut Vec<S>)>,
    v: &mut IterVecs<S>,
    sums: &mut Sums,
    mut r_norm_sq: f64,
    threshold_sq: f64,
    max_iters: usize,
) -> LoopEnd {
    let mut iterations = 0;
    let mut converged = false;
    let mut error = None;
    // Whether the SpMV forms p ← z + βp: after every fused update.
    let mut fold = false;
    while iterations < max_iters {
        iterations += 1;
        // Launches 1–2: q = A p with per-row-block p·q partials fused into
        // SpMV stage 2 (and p ← z + βp folded into both stages).
        let beta = &sums.scalars[1..];
        let fold_in = fold.then_some(Fold { z: &v.z, beta });
        spmv_pq(fold_in, &mut v.p, &mut v.spmv, &mut v.q);
        match &mut apply {
            Apply::Fused(dinv) => {
                // Launch 3: α (device-guarded), x and r updates, z = D⁻¹r
                // (or z = r), ‖r‖² and r·z partials and reduces, β.
                let step = fused_update(
                    dev,
                    &v.spmv.pq_partials,
                    *dinv,
                    &v.p,
                    &v.q,
                    &mut v.x,
                    &v.r,
                    &mut v.r_next,
                    &mut v.z,
                    &mut sums.norm,
                    &mut sums.rz,
                    &mut sums.scalars,
                );
                let norm = match step {
                    Ok(norm) => norm,
                    Err(pq) => {
                        // Indefinite or broken operator — the kernel wrote
                        // nothing; bail with the current iterate.
                        error = Some(breakdown_reason(pq, iterations));
                        break;
                    }
                };
                std::mem::swap(&mut v.r, &mut v.r_next);
                r_norm_sq = norm;
                if r_norm_sq <= threshold_sq {
                    converged = true;
                    break;
                }
                fold = true;
            }
            Apply::Bridged(m_apply) => {
                // Launch 3: α from the partials (device-guarded), x and r
                // updates, ‖r‖² tile partials.
                let rz = sums.scalars[0];
                let pq = fused_axpy2_norm(
                    dev,
                    &v.spmv.pq_partials,
                    rz,
                    &v.p,
                    &v.q,
                    &mut v.x,
                    &mut v.r,
                    &mut sums.norm,
                );
                if pq <= 0.0 || !pq.is_finite() {
                    // Indefinite or broken operator — the kernel left x and
                    // r untouched; bail with the current iterate.
                    error = Some(breakdown_reason(pq, iterations));
                    break;
                }
                r_norm_sq = reduce_partials(dev, &sums.norm);
                if r_norm_sq <= threshold_sq {
                    converged = true;
                    break;
                }
                m_apply(&v.r, &mut v.z);
                dot_partials_into(dev, &v.r, &v.z, &mut sums.rz);
                // β from the partials, p ← z + β p.
                sums.scalars[0] = fused_xpby_beta(dev, &sums.rz, rz, &v.z, &mut v.p);
            }
        }
    }
    LoopEnd {
        iterations,
        converged,
        r_norm_sq,
        error,
    }
}

/// `tol²·‖b‖²`, or `tol²` for a zero right-hand side.
fn threshold_sq(opts: PcgOptions, b_norm_sq: f64) -> f64 {
    if b_norm_sq > 0.0 {
        opts.tol * opts.tol * b_norm_sq
    } else {
        opts.tol * opts.tol
    }
}

/// Fused-kernel PCG on an HSBCSR operator: with a Block-Jacobi or identity
/// preconditioner each iteration is exactly three launches; see the module
/// docs for the launch map and the (tiny, documented) `p·q` reassociation
/// relative to [`pcg`].
///
/// ```
/// use dda_simt::{Device, DeviceProfile};
/// use dda_solver::precond::BlockJacobi;
/// use dda_solver::{pcg_fused, PcgOptions, PcgWorkspace};
/// use dda_sparse::{Hsbcsr, SymBlockMatrix};
///
/// let m = SymBlockMatrix::random_spd(20, 3.0, 1);
/// let h = Hsbcsr::from_sym(&m);
/// let b = vec![1.0; m.dim()];
/// let dev = Device::new(DeviceProfile::tesla_k40());
/// let bj = BlockJacobi::new(&dev, &h);
/// let mut ws = PcgWorkspace::new();
/// let res = pcg_fused(&dev, &h, &b, &vec![0.0; m.dim()], &bj,
///                     PcgOptions::default(), &mut ws);
/// assert!(res.converged);
/// ```
pub fn pcg_fused<P: Preconditioner + ?Sized>(
    dev: &Device,
    h: &Hsbcsr,
    b: &[f64],
    x0: &[f64],
    m: &P,
    opts: PcgOptions,
    ws: &mut PcgWorkspace,
) -> SolveResult {
    let n = h.n * 6;
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    assert_eq!(x0.len(), n, "initial guess dimension mismatch");

    // Set-up launches 1–3 (the 3-launch budget is per iteration).
    let mut r = std::mem::take(&mut ws.v64.r);
    let (b_norm_sq, r_norm_sq) = residual(dev, h, b, x0, ws, &mut r);
    ws.v64.r = r;
    if !b_norm_sq.is_finite() {
        return SolveResult::non_finite_rhs(x0);
    }
    let PcgWorkspace { v64: v, sums, .. } = ws;
    v.x.clear();
    v.x.extend_from_slice(x0);
    let threshold_sq = threshold_sq(opts, b_norm_sq);

    let end = if r_norm_sq <= threshold_sq {
        LoopEnd::at_setup(r_norm_sq, None)
    } else {
        let dinv = m.block_diag_inv();
        let mut apply = if dinv.is_some() || m.is_identity() {
            Apply::Fused(dinv)
        } else {
            Apply::Bridged(|r: &[f64], z: &mut Vec<f64>| {
                let out = m.apply(dev, r);
                z.clear();
                z.extend_from_slice(&out);
            })
        };
        // Set-up launch 4 (fused apply): z₀, p₀ and r·z₀.
        first_direction(dev, &mut apply, v, sums);
        iterate(
            dev,
            spmv_pq_f64(dev, h),
            apply,
            v,
            sums,
            r_norm_sq,
            threshold_sq,
            opts.max_iters,
        )
    };
    SolveResult {
        x: v.x.clone(),
        iterations: end.iterations,
        converged: end.converged,
        residual: end.r_norm_sq.max(0.0).sqrt(),
        error: end.error,
    }
}

/// The fp32 correction solve of [`pcg_fused_mixed`]: `A₃₂ δ = b` from zero
/// with every iterate vector stored fp32, so SpMV values, staging arrays,
/// vectors, *and* the Block-Jacobi inverses all stream at half the bytes
/// through the same [`iterate`] as the fp64 solve. `δ` stays in `ws.v32.x`
/// (it folds into the fp64 outer iterate via [`axpy_widen`] without ever
/// materialising an fp64 copy).
///
/// The set-up differs from [`pcg_fused`]'s in its residual only: `x0` is
/// zero, so `r = b − A·0` collapses to one demotion launch, and `b_norm_sq`
/// arrives from the caller, whose outer residual norm *is* `‖b‖²` here.
/// Preconditioners without fp32 block-diagonal inverses bridge through
/// their fp64 apply (promote → apply → demote) and pay that traffic
/// honestly.
#[deny(clippy::float_cmp)]
#[allow(clippy::too_many_arguments)]
fn correct_f32<P: Preconditioner + ?Sized>(
    dev: &Device,
    h: &Hsbcsr,
    h32: &Hsbcsr32,
    b: &[f64],
    b_norm_sq: f64,
    m: &P,
    opts: PcgOptions,
    ws: &mut PcgWorkspace,
) -> LoopEnd {
    let n = h.n * 6;
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    let PcgWorkspace {
        v64, v32: v, sums, ..
    } = ws;

    v.x.clear();
    v.x.resize(n, 0.0);
    if !b_norm_sq.is_finite() {
        return LoopEnd::at_setup(b_norm_sq, Some(SolveError::NonFinite { iteration: 0 }));
    }
    let threshold_sq = threshold_sq(opts, b_norm_sq);

    // x = 0 ⇒ r = b, demoted once.
    demote(dev, b, &mut v.r);
    if b_norm_sq <= threshold_sq {
        return LoopEnd::at_setup(b_norm_sq, None);
    }

    let dinv = m.block_diag_inv_f32();
    let mut apply = if dinv.is_some() || m.is_identity() {
        Apply::Fused(dinv)
    } else {
        let r64 = &mut v64.q;
        Apply::Bridged(move |r: &[f32], z: &mut Vec<f32>| {
            promote(dev, r, r64);
            let out = m.apply(dev, r64);
            demote(dev, &out, z);
        })
    };

    first_direction(dev, &mut apply, v, sums);
    v.q.clear();
    v.q.resize(n, 0.0);

    let scheme = Stage1Smem::Proposed;
    iterate(
        dev,
        |fold: Option<Fold<'_, f32>>, p: &mut [f32], sws: &mut _, q: &mut [f32]| match fold {
            Some(fold) => spmv_hsbcsr_f32_folded_pq(dev, h, h32, fold, p, scheme, sws, q),
            None => spmv_hsbcsr_f32(dev, h, h32, p, scheme, sws, q, true),
        },
        apply,
        v,
        sums,
        b_norm_sq,
        threshold_sq,
        opts.max_iters,
    )
}

/// Inner-loop relative tolerance for the fp32 correction solves: tighter
/// buys nothing (fp32 matrix storage bounds the attainable inner accuracy),
/// looser wastes outer passes.
const MIXED_INNER_TOL: f64 = 1e-4;

/// Each outer refinement pass must shrink the fp64 residual norm by at
/// least this factor, or the fp32 corrections have hit their precision
/// floor and the driver falls back to pure fp64.
const MIXED_MIN_DROP: f64 = 0.5;

/// Mixed-precision fused PCG: fp32-storage/fp64-accumulate inner solves
/// under an fp64 iterative-refinement outer loop.
///
/// Each outer pass computes the full-precision residual `r = b − A₆₄x`,
/// tests the *same* convergence criterion as [`pcg_fused`]
/// (`‖r‖ ≤ tol·‖b‖`, so a converged mixed solve meets the pure-fp64
/// tolerance by construction), then solves the correction system
/// `A₃₂ δ = r` from zero with the fp32 value streams and adds `δ` back in
/// fp64. Inner iterations draw on the shared `opts.max_iters` budget, so
/// the iteration count in the result is comparable with the pure path.
///
/// **Deterministic fallback:** when an inner solve breaks down, the outer
/// residual goes non-finite, or a pass fails to shrink `‖r‖` by
/// [`MIXED_MIN_DROP`], the driver discards the refinement state and reruns
/// [`pcg_fused`] in pure fp64 from the original `x0` — the result is then
/// bit-identical to what [`SolverPrecision::Full`] would have produced,
/// including its structured [`SolveError`]. Fault quarantine therefore
/// behaves identically under both precisions.
#[deny(clippy::float_cmp)]
#[allow(clippy::too_many_arguments)]
pub fn pcg_fused_mixed<P: Preconditioner + ?Sized>(
    dev: &Device,
    h: &Hsbcsr,
    h32: &Hsbcsr32,
    b: &[f64],
    x0: &[f64],
    m: &P,
    opts: PcgOptions,
    ws: &mut PcgWorkspace,
) -> SolveResult {
    let n = h.n * 6;
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    assert_eq!(x0.len(), n, "initial guess dimension mismatch");
    assert!(h32.matches(h), "fp32 shadow out of sync with its Hsbcsr");

    // The inner solves reuse the workspace wholesale, so the outer state
    // is moved out for the duration of the refinement.
    let mut outer_x = std::mem::take(&mut ws.outer_x);
    let mut outer_r = std::mem::take(&mut ws.outer_r);
    let refined = refine_mixed(dev, h, h32, b, x0, m, opts, ws, &mut outer_x, &mut outer_r);
    ws.outer_x = outer_x;
    ws.outer_r = outer_r;
    match refined {
        Some(res) => res,
        // Deterministic fallback: rerun pure fp64 from the original warm
        // start, bit-identical to `SolverPrecision::Full`.
        None => pcg_fused(dev, h, b, x0, m, opts, ws),
    }
}

/// The refinement loop of [`pcg_fused_mixed`]. `None` means "fall back to
/// pure fp64": the inner solve broke down, the outer residual went
/// non-finite, or a pass stalled.
#[allow(clippy::too_many_arguments)]
fn refine_mixed<P: Preconditioner + ?Sized>(
    dev: &Device,
    h: &Hsbcsr,
    h32: &Hsbcsr32,
    b: &[f64],
    x0: &[f64],
    m: &P,
    opts: PcgOptions,
    ws: &mut PcgWorkspace,
    outer_x: &mut Vec<f64>,
    outer_r: &mut Vec<f64>,
) -> Option<SolveResult> {
    outer_x.clear();
    outer_x.extend_from_slice(x0);

    // Full-precision residual r = b − A₆₄ x (fp64 streams) — the set-up of
    // the pure path, with the same early rejection and bit-identical outcome.
    let (b_norm_sq, mut r_norm_sq) = residual(dev, h, b, outer_x, ws, outer_r);
    if !b_norm_sq.is_finite() {
        return Some(SolveResult::non_finite_rhs(x0));
    }
    let threshold_sq = threshold_sq(opts, b_norm_sq);
    if r_norm_sq <= threshold_sq {
        return Some(SolveResult {
            x: outer_x.clone(),
            iterations: 0,
            converged: true,
            residual: r_norm_sq.max(0.0).sqrt(),
            error: None,
        });
    }

    let mut iterations = 0;
    while iterations < opts.max_iters {
        // Correction solve A₃₂ δ = r from zero, on the remaining budget.
        let inner_opts = PcgOptions {
            tol: MIXED_INNER_TOL,
            max_iters: opts.max_iters - iterations,
        };
        let inner = correct_f32(dev, h, h32, outer_r, r_norm_sq, m, inner_opts, ws);
        iterations += inner.iterations.max(1);
        if inner.error.is_some() {
            return None;
        }
        // x ← x + δ (the fp32 correction lives in ws.v32.x after the
        // solve; the fold-in widens on the fly).
        axpy_widen(dev, &ws.v32.x, outer_x);
        // Refresh the full-precision residual and retest convergence.
        let (_, new_norm_sq) = residual(dev, h, b, outer_x, ws, outer_r);
        if !new_norm_sq.is_finite() {
            return None;
        }
        if new_norm_sq <= threshold_sq {
            return Some(SolveResult {
                x: outer_x.clone(),
                iterations,
                converged: true,
                residual: new_norm_sq.max(0.0).sqrt(),
                error: None,
            });
        }
        if new_norm_sq > MIXED_MIN_DROP * MIXED_MIN_DROP * r_norm_sq {
            // Stalled: fp32 corrections no longer move the fp64 residual.
            return None;
        }
        r_norm_sq = new_norm_sq;
    }

    // Budget exhausted without breakdown — a normal Δt-retry exit, the
    // same contract as the pure-fp64 iteration cap.
    Some(SolveResult {
        x: outer_x.clone(),
        iterations,
        converged: false,
        residual: r_norm_sq.max(0.0).sqrt(),
        error: None,
    })
}

/// `r ← b − A₆₄·x` in three launches (two SpMV stages and the fused
/// residual), returning `(‖b‖², ‖r‖²)`: the set-up of [`pcg_fused`] and the
/// fp64 half of every refinement pass of [`pcg_fused_mixed`].
fn residual(
    dev: &Device,
    h: &Hsbcsr,
    b: &[f64],
    x: &[f64],
    ws: &mut PcgWorkspace,
    r: &mut Vec<f64>,
) -> (f64, f64) {
    let v = &mut ws.v64;
    v.q.clear();
    v.q.resize(h.n * 6, 0.0);
    spmv_hsbcsr_into(dev, h, x, Stage1Smem::Proposed, &mut v.spmv, &mut v.q);
    fused_residual(dev, b, &v.q, r, &mut ws.sums.b, &mut ws.sums.norm)
}

/// One scene's system inside a batched PCG call: the same inputs
/// [`pcg_fused`] takes, bundled so [`pcg_fused_batch`] can iterate over
/// scenes while each keeps its own matrix, preconditioner and workspace.
pub struct PcgBatchEntry<'a> {
    /// Scene operator in HSBCSR form.
    pub h: &'a Hsbcsr,
    /// fp32 value shadow of `h`; required when `precision` is
    /// [`SolverPrecision::Mixed`], ignored otherwise.
    pub h32: Option<&'a Hsbcsr32>,
    /// Right-hand side.
    pub b: &'a [f64],
    /// Warm-start iterate.
    pub x0: &'a [f64],
    /// Preconditioner (Block-Jacobi rides the 3-launch fast path).
    pub m: &'a dyn Preconditioner,
    /// Per-scene tolerance and iteration cap.
    pub opts: PcgOptions,
    /// Numeric mode for this scene's solve.
    pub precision: SolverPrecision,
    /// The scene's persistent workspace.
    pub ws: &'a mut PcgWorkspace,
}

/// Batched fused PCG over N independent systems on one device.
///
/// Each scene's solve runs the exact [`pcg_fused`] (or, for
/// [`SolverPrecision::Mixed`] entries, [`pcg_fused_mixed`]) code path —
/// results are bit-identical to solo solves under the same precision mode
/// — inside a device batch region that merges
/// iteration *k*'s kernels across scenes into one batched launch per kernel
/// (three on the Block-Jacobi fast path; the masked lockstep a real
/// multi-scene kernel would execute; see
/// `dda_simt::batch`). A scene that converges early stops contributing to
/// later groups, so the batch drains gracefully. Returns the per-scene
/// results in input order plus the region's launch/time accounting.
pub fn pcg_fused_batch(
    dev: &Device,
    entries: &mut [PcgBatchEntry<'_>],
) -> (Vec<SolveResult>, BatchSummary) {
    if entries.is_empty() {
        return (Vec::new(), BatchSummary::default());
    }
    dev.batch_begin(entries.len());
    let mut results = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter_mut().enumerate() {
        dev.batch_segment(i);
        results.push(match e.precision {
            SolverPrecision::Full => pcg_fused(dev, e.h, e.b, e.x0, e.m, e.opts, e.ws),
            SolverPrecision::Mixed => {
                let h32 = e.h32.expect("Mixed batch entries carry an fp32 shadow");
                pcg_fused_mixed(dev, e.h, h32, e.b, e.x0, e.m, e.opts, e.ws)
            }
        });
    }
    let summary = dev.batch_end();
    (results, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockJacobi, Identity, Ilu0, SsorAi};
    use crate::traits::{CsrVectorMat, HsbcsrMat};
    use crate::vecops::reduce_partials_host;
    use dda_simt::DeviceProfile;
    use dda_sparse::{Csr, Hsbcsr, SymBlockMatrix};

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40())
    }

    fn problem(n: usize, seed: u64) -> (SymBlockMatrix, Vec<f64>) {
        let m = SymBlockMatrix::random_spd(n, 3.0, seed);
        let b: Vec<f64> = (0..m.dim())
            .map(|i| ((i * 7 + 3) % 19) as f64 - 9.0)
            .collect();
        (m, b)
    }

    fn check_solution(m: &SymBlockMatrix, b: &[f64], res: &SolveResult, tol: f64) {
        assert!(res.converged, "did not converge: {} iters", res.iterations);
        let ax = m.mul_vec(&res.x);
        let err: f64 = ax
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err <= tol * bn * 10.0, "residual {err} too large vs {bn}");
    }

    #[test]
    fn plain_cg_converges() {
        let (m, b) = problem(15, 1);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let res = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions::default(),
        );
        check_solution(&m, &b, &res, 1e-8);
    }

    #[test]
    fn bj_reduces_iterations() {
        let (m, b) = problem(40, 2);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let none = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions::default(),
        );
        let bj = BlockJacobi::new(&d, &h);
        let with_bj = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &vec![0.0; m.dim()],
            &bj,
            PcgOptions::default(),
        );
        check_solution(&m, &b, &with_bj, 1e-8);
        assert!(
            with_bj.iterations <= none.iterations,
            "BJ {} vs none {}",
            with_bj.iterations,
            none.iterations
        );
    }

    #[test]
    fn preconditioner_iteration_ordering_matches_paper() {
        // Table I ordering: ILU ≤ SSOR ≤ BJ in iteration count.
        let (m, b) = problem(60, 3);
        let h = Hsbcsr::from_sym(&m);
        let csr = Csr::from_sym_full(&m);
        let d = dev();
        let opts = PcgOptions {
            tol: 1e-10,
            max_iters: 500,
        };
        let x0 = vec![0.0; m.dim()];

        let bj = BlockJacobi::new(&d, &h);
        let r_bj = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &bj, opts);
        let ssor = SsorAi::new(&d, &h, 1.0);
        let r_ssor = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &ssor, opts);
        let ilu = Ilu0::new(&d, &csr);
        let r_ilu = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &ilu, opts);

        check_solution(&m, &b, &r_bj, 1e-10);
        check_solution(&m, &b, &r_ssor, 1e-10);
        check_solution(&m, &b, &r_ilu, 1e-10);
        assert!(
            r_ilu.iterations <= r_ssor.iterations,
            "ILU {} vs SSOR {}",
            r_ilu.iterations,
            r_ssor.iterations
        );
        assert!(
            r_ssor.iterations <= r_bj.iterations,
            "SSOR {} vs BJ {}",
            r_ssor.iterations,
            r_bj.iterations
        );
    }

    #[test]
    fn warm_start_converges_faster() {
        // The DDA trick: seeding with (nearly) the solution of the previous
        // step slashes iterations.
        let (m, b) = problem(30, 4);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let cold = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions::default(),
        );
        // Perturbed solution as warm start.
        let warm_x0: Vec<f64> = cold.x.iter().map(|v| v * 1.001).collect();
        let warm = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &warm_x0,
            &Identity,
            PcgOptions::default(),
        );
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn zero_rhs_converges_immediately_from_zero() {
        let (m, _) = problem(5, 5);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let res = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &vec![0.0; m.dim()],
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions::default(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let (m, b) = problem(50, 6);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let res = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions {
                tol: 1e-30,
                max_iters: 3,
            },
        );
        assert!(!res.converged);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn fused_agrees_with_unfused_bj() {
        // The tentpole's correctness bar: same iteration count, solutions
        // within 1e-10 (the only reassociation is the p·q tiling).
        let (m, b) = problem(50, 11);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let x0 = vec![0.0; m.dim()];
        let opts = PcgOptions::default();

        let unfused = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &bj, opts);
        let mut ws = PcgWorkspace::new();
        let fused = pcg_fused(&d, &h, &b, &x0, &bj, opts, &mut ws);

        assert!(fused.converged);
        assert_eq!(
            fused.iterations, unfused.iterations,
            "fused {} vs unfused {} iterations",
            fused.iterations, unfused.iterations
        );
        let scale = unfused.x.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for i in 0..m.dim() {
            assert!(
                (fused.x[i] - unfused.x[i]).abs() <= 1e-10 * scale,
                "i={i}: fused {} vs unfused {}",
                fused.x[i],
                unfused.x[i]
            );
        }
    }

    #[test]
    fn fused_agrees_with_unfused_identity_and_ssor() {
        let (m, b) = problem(40, 13);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let x0 = vec![0.0; m.dim()];
        let opts = PcgOptions::default();
        let mut ws = PcgWorkspace::new();

        // Identity rides the 3-launch fast path.
        let u1 = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &Identity, opts);
        let f1 = pcg_fused(&d, &h, &b, &x0, &Identity, opts, &mut ws);
        assert_eq!(f1.iterations, u1.iterations);

        // SSOR rides the fallback path (fused BLAS-1, unfused apply).
        let ssor = SsorAi::new(&d, &h, 1.0);
        let u2 = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &ssor, opts);
        let f2 = pcg_fused(&d, &h, &b, &x0, &ssor, opts, &mut ws);
        assert_eq!(f2.iterations, u2.iterations);
        for (res, reference) in [(&f1, &u1), (&f2, &u2)] {
            assert!(res.converged);
            let scale = reference.x.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            for i in 0..m.dim() {
                assert!((res.x[i] - reference.x[i]).abs() <= 1e-10 * scale);
            }
        }
    }

    /// The set-up as it ran before it was fused — `norm_sq(b)`, SpMV,
    /// `axpy`, `norm_sq(r)`, the preconditioner's own apply, `dot(r, z)`, ten
    /// launches for Block-Jacobi — in front of the same [`iterate`]: the
    /// oracle for the fused set-up, bit for bit. Returns `‖b‖²`, then `r`,
    /// `z₀`, `r·z₀` where the set-up got that far, and the solve.
    #[allow(clippy::type_complexity)]
    fn unfused_setup_solve(
        dev: &Device,
        h: &Hsbcsr,
        b: &[f64],
        x0: &[f64],
        m: &dyn Preconditioner,
        opts: PcgOptions,
    ) -> (f64, Option<(Vec<f64>, Vec<f64>, f64)>, SolveResult) {
        let b_norm_sq = norm_sq(dev, b);
        if !b_norm_sq.is_finite() {
            return (b_norm_sq, None, SolveResult::non_finite_rhs(x0));
        }
        let threshold_sq = threshold_sq(opts, b_norm_sq);
        let mut ws = PcgWorkspace::new();
        let PcgWorkspace { v64: v, sums, .. } = &mut ws;
        v.x = x0.to_vec();
        v.q = HsbcsrMat { m: h }.apply(dev, x0);
        v.r = b.to_vec();
        axpy(dev, -1.0, &v.q, &mut v.r);
        let r_norm_sq = norm_sq(dev, &v.r);
        let (first, end) = if r_norm_sq <= threshold_sq {
            (None, LoopEnd::at_setup(r_norm_sq, None))
        } else {
            v.z = m.apply(dev, &v.r);
            v.p = v.z.clone();
            let rz = dot(dev, &v.r, &v.z);
            let first = Some((v.r.clone(), v.z.clone(), rz));
            sums.scalars[0] = rz;
            let dinv = m.block_diag_inv();
            let apply = if dinv.is_some() || m.is_identity() {
                Apply::Fused(dinv)
            } else {
                Apply::Bridged(|r: &[f64], z: &mut Vec<f64>| *z = m.apply(dev, r))
            };
            let end = iterate(
                dev,
                spmv_pq_f64(dev, h),
                apply,
                v,
                sums,
                r_norm_sq,
                threshold_sq,
                opts.max_iters,
            );
            (first, end)
        };
        let res = SolveResult {
            x: v.x.clone(),
            iterations: end.iterations,
            converged: end.converged,
            residual: end.r_norm_sq.max(0.0).sqrt(),
            error: end.error,
        };
        (b_norm_sq, first, res)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_setup_equals_the_unfused_sequence_bitwise() {
        // 100 blocks = 600 rows = three 256-tiles, so the final reductions
        // really reduce.
        let (m, b) = problem(100, 29);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let opts = PcgOptions::default();
        let bj = BlockJacobi::new(&d, &h);
        let ssor = SsorAi::new(&d, &h, 1.0);
        let preconds: [(&str, &dyn Preconditioner); 3] =
            [("BJ", &bj), ("identity", &Identity), ("SSOR-AI", &ssor)];

        let zero = vec![0.0; m.dim()];
        let cold = pcg(&d, &HsbcsrMat { m: &h }, &b, &zero, &bj, opts);
        let warm: Vec<f64> = cold.x.iter().map(|v| v * 1.001).collect();
        let mut nan_b = b.clone();
        nan_b[301] = f64::NAN;
        let mut inf_b = b.clone();
        inf_b[7] = f64::INFINITY;
        let cases: [(&str, &[f64], &[f64]); 6] = [
            ("cold", &b, &zero),
            ("warm", &b, &warm),
            ("converged x0", &b, &cold.x),
            ("zero b", &zero, &zero),
            ("NaN b", &nan_b, &warm),
            ("Inf b", &inf_b, &zero),
        ];

        let mut ws = PcgWorkspace::new();
        for (pname, m_) in preconds {
            for (cname, b_, x0) in cases {
                let what = format!("{pname}, {cname}");
                let (b_sq, first, want) = unfused_setup_solve(&d, &h, b_, x0, m_, opts);

                // The solve: iteration count, final x, residual, error.
                let got = pcg_fused(&d, &h, b_, x0, m_, opts, &mut ws);
                assert_eq!(got.iterations, want.iterations, "{what}");
                assert_eq!(bits(&got.x), bits(&want.x), "{what}");
                assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{what}");
                assert_eq!((got.converged, got.error), (want.converged, want.error));
                if b_sq.is_finite() {
                    // Same trajectory as the textbook loop (which differs in
                    // the p·q tiling only).
                    let unfused = pcg(&d, &HsbcsrMat { m: &h }, b_, x0, m_, opts);
                    assert_eq!(got.iterations, unfused.iterations, "{what}");
                }

                // The set-up's own values.
                let mut r = Vec::new();
                let (got_b_sq, _) = residual(&d, &h, b_, x0, &mut ws, &mut r);
                assert_eq!(got_b_sq.to_bits(), b_sq.to_bits(), "{what}");
                let Some((want_r, want_z, want_rz)) = first else {
                    continue;
                };
                assert_eq!(bits(&r), bits(&want_r), "{what}");
                ws.v64.r = r;
                let dinv = m_.block_diag_inv();
                let mut apply = if dinv.is_some() || m_.is_identity() {
                    Apply::Fused(dinv)
                } else {
                    Apply::Bridged(|r: &[f64], z: &mut Vec<f64>| *z = m_.apply(&d, r))
                };
                first_direction(&d, &mut apply, &mut ws.v64, &mut ws.sums);
                assert_eq!(bits(&ws.v64.z), bits(&want_z), "{what}");
                assert_eq!(bits(&ws.v64.p), bits(&want_z), "{what}");
                let rz = ws.sums.scalars[0];
                assert_eq!(rz.to_bits(), want_rz.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn fused_setup_costs_at_most_four_launches() {
        // Three 256-tiles: the unfused set-up would add a `vec.dot.final`
        // to each of its three dots.
        let (m, b) = problem(100, 31);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let x0 = vec![0.0; m.dim()];
        let mut ws = PcgWorkspace::new();
        let capped = PcgOptions {
            tol: 1e-30,
            max_iters: 3,
        };

        d.reset_trace();
        let res = pcg_fused(&d, &h, &b, &x0, &bj, capped, &mut ws);
        assert_eq!(res.iterations, 3);
        let names: Vec<_> = d.trace().records.iter().map(|r| r.name).collect();
        assert_eq!(
            names[..names.len() - 3 * 3],
            [
                "spmv.hsbcsr.stage1",
                "spmv.hsbcsr.stage2",
                "pcg.fused.residual",
                "pcg.fused.precond_rz"
            ]
        );

        // The fp64 half of a Mixed refinement pass is the first three.
        d.reset_trace();
        let mut r = Vec::new();
        residual(&d, &h, &b, &x0, &mut ws, &mut r);
        assert_eq!(d.trace().records.len(), 3);
        d.reset_trace();
        let h32 = shadow_of(&h);
        let mixed = pcg_fused_mixed(&d, &h, &h32, &b, &x0, &bj, PcgOptions::default(), &mut ws);
        assert!(mixed.converged);
        let by = d.trace().by_kernel();
        let passes = by["pcg.fused.residual"].0.launches;
        assert_eq!(by["spmv.hsbcsr.stage1"].0.launches, passes);
        for gone in [
            "vec.axpy",
            "vec.dot.partial",
            "vec.dot.final",
            "precond.bj.apply",
        ] {
            assert!(!by.contains_key(gone), "{gone} still launched");
        }
    }

    #[test]
    fn fused_bj_iteration_costs_at_most_three_launches() {
        // The launch-budget regression test: run the same unconverging
        // solve at two iteration caps and divide the launch-count delta by
        // the iteration delta — setup launches cancel exactly.
        let (m, b) = problem(60, 17);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let x0 = vec![0.0; m.dim()];
        let tight = PcgOptions {
            tol: 1e-30,
            max_iters: 4,
        };
        let looser = PcgOptions {
            tol: 1e-30,
            max_iters: 12,
        };
        let mut ws = PcgWorkspace::new();

        d.reset_trace();
        let r1 = pcg_fused(&d, &h, &b, &x0, &bj, tight, &mut ws);
        let l1 = d.trace().records.len();
        d.reset_trace();
        let r2 = pcg_fused(&d, &h, &b, &x0, &bj, looser, &mut ws);
        let l2 = d.trace().records.len();

        assert_eq!(r1.iterations, 4);
        assert_eq!(r2.iterations, 12);
        let per_iter = (l2 - l1) as f64 / (r2.iterations - r1.iterations) as f64;
        assert!(
            per_iter <= 3.0,
            "fused PCG spends {per_iter} launches/iteration (budget 3)"
        );

        // And the unfused loop really is much heavier — the fusion matters.
        d.reset_trace();
        let u1 = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &bj, tight);
        let ul1 = d.trace().records.len();
        d.reset_trace();
        let u2 = pcg(&d, &HsbcsrMat { m: &h }, &b, &x0, &bj, looser);
        let ul2 = d.trace().records.len();
        let unfused_per_iter = (ul2 - ul1) as f64 / (u2.iterations - u1.iterations) as f64;
        assert!(
            unfused_per_iter >= 2.0 * per_iter,
            "unfused {unfused_per_iter} vs fused {per_iter} launches/iteration"
        );
    }

    /// The fused iteration as five launches — SpMV stages 1–2 on the stored
    /// `p`, `axpy2norm`, `precond_rz`, `xpby_beta` — on the set-up
    /// [`iterate`] expects: the oracle the three-launch map is held to, bit
    /// for bit.
    #[allow(clippy::too_many_arguments)]
    fn five_launch_iterate<S: Scalar>(
        dev: &Device,
        mut spmv_pq: impl FnMut(&[S], &mut SpmvWorkspace<S>, &mut [S]),
        dinv: Option<&[S]>,
        v: &mut IterVecs<S>,
        sums: &mut Sums,
        mut r_norm_sq: f64,
        threshold_sq: f64,
        max_iters: usize,
    ) -> LoopEnd {
        let mut rz = sums.scalars[0];
        let mut end = LoopEnd::at_setup(r_norm_sq, None);
        end.converged = false;
        while end.iterations < max_iters {
            end.iterations += 1;
            spmv_pq(&v.p, &mut v.spmv, &mut v.q);
            let pq_partials = &v.spmv.pq_partials;
            let pq = fused_axpy2_norm(
                dev,
                pq_partials,
                rz,
                &v.p,
                &v.q,
                &mut v.x,
                &mut v.r,
                &mut sums.norm,
            );
            if pq <= 0.0 || !pq.is_finite() {
                end.error = Some(breakdown_reason(pq, end.iterations));
                break;
            }
            // ‖r‖² as the five-launch `precond_rz` reduced it in block 0.
            r_norm_sq = reduce_partials_host(&sums.norm);
            if r_norm_sq <= threshold_sq {
                end.converged = true;
                break;
            }
            fused_precond_rz(dev, dinv, &v.r, &mut v.z, &mut sums.rz, &mut [0.0; 2]);
            rz = fused_xpby_beta(dev, &sums.rz, rz, &v.z, &mut v.p);
        }
        end.r_norm_sq = r_norm_sq;
        end
    }

    /// [`Apply::Fused`], whose bridge type is never used.
    type FusedApply<'a, S> = Apply<'a, S, fn(&[S], &mut Vec<S>)>;

    /// `(x bits, iterations, converged, residual bits, error)` of a solve.
    type Outcome = (Vec<u64>, usize, bool, u64, Option<SolveError>);

    fn outcome<S: Scalar>(x: &[S], end: &LoopEnd) -> Outcome {
        (
            x.iter().map(|v| v.widen().to_bits()).collect(),
            end.iterations,
            end.converged,
            end.r_norm_sq.max(0.0).sqrt().to_bits(),
            end.error,
        )
    }

    /// [`pcg_fused`] on `h` with its set-up, as [`Outcome`], once through
    /// [`iterate`] and once through [`five_launch_iterate`].
    fn both_loops_f64(
        dev: &Device,
        h: &Hsbcsr,
        b: &[f64],
        x0: &[f64],
        m: &dyn Preconditioner,
    ) -> (Outcome, Outcome) {
        let opts = PcgOptions::default();
        let mut ws = PcgWorkspace::new();
        let res = pcg_fused(dev, h, b, x0, m, opts, &mut ws);
        let three = (
            bits(&res.x),
            res.iterations,
            res.converged,
            res.residual.to_bits(),
            res.error,
        );

        let mut r = Vec::new();
        let (b_norm_sq, r_norm_sq) = residual(dev, h, b, x0, &mut ws, &mut r);
        let PcgWorkspace { v64: v, sums, .. } = &mut ws;
        v.r = r;
        v.x = x0.to_vec();
        let threshold_sq = threshold_sq(opts, b_norm_sq);
        let end = if r_norm_sq <= threshold_sq {
            LoopEnd::at_setup(r_norm_sq, None)
        } else {
            let dinv = m.block_diag_inv();
            let mut apply: FusedApply<'_, f64> = Apply::Fused(dinv);
            first_direction(dev, &mut apply, v, sums);
            let spmv = |p: &[f64], sws: &mut SpmvWorkspace, q: &mut [f64]| {
                spmv_hsbcsr_fused_pq(dev, h, p, Stage1Smem::Proposed, sws, q)
            };
            five_launch_iterate(
                dev,
                spmv,
                dinv,
                v,
                sums,
                r_norm_sq,
                threshold_sq,
                opts.max_iters,
            )
        };
        (three, outcome(&v.x, &end))
    }

    /// The fp32 correction solve of [`pcg_fused_mixed`] from the same
    /// set-up, as [`Outcome`], through both loops.
    fn both_loops_f32(
        dev: &Device,
        h: &Hsbcsr,
        b: &[f64],
        m: &dyn Preconditioner,
    ) -> (Outcome, Outcome) {
        let h32 = shadow_of(h);
        let opts = PcgOptions {
            tol: 1e-6,
            max_iters: 200,
        };
        let b_norm_sq = dot(dev, b, b);
        let mut ws = PcgWorkspace::new();
        let end = correct_f32(dev, h, &h32, b, b_norm_sq, m, opts, &mut ws);
        let three = outcome(&ws.v32.x, &end);

        let PcgWorkspace { v32: v, sums, .. } = &mut ws;
        let n = h.n * 6;
        v.x.clear();
        v.x.resize(n, 0.0);
        demote(dev, b, &mut v.r);
        let threshold_sq = threshold_sq(opts, b_norm_sq);
        let end = if b_norm_sq <= threshold_sq {
            LoopEnd::at_setup(b_norm_sq, None)
        } else {
            let dinv = m.block_diag_inv_f32();
            let mut apply: FusedApply<'_, f32> = Apply::Fused(dinv);
            first_direction(dev, &mut apply, v, sums);
            v.q.clear();
            v.q.resize(n, 0.0);
            let spmv = |p: &[f32], sws: &mut SpmvWorkspace<f32>, q: &mut [f32]| {
                spmv_hsbcsr_f32(dev, h, &h32, p, Stage1Smem::Proposed, sws, q, true)
            };
            five_launch_iterate(
                dev,
                spmv,
                dinv,
                v,
                sums,
                b_norm_sq,
                threshold_sq,
                opts.max_iters,
            )
        };
        (three, outcome(&v.x, &end))
    }

    #[test]
    fn three_launch_iteration_equals_the_five_launch_sequence_bitwise() {
        // 30 blocks = 180 rows: one tile. 43 blocks = 258 rows: the second
        // tile holds two rows of a DDA block that starts in the first. 150
        // and 1 001 blocks: DDA blocks straddle 256-tile boundaries at
        // every offset 256 mod 6 walks through.
        let d = dev();
        for (n, seed) in [(30usize, 81u64), (43, 82), (150, 83), (1001, 84)] {
            let (m, b) = problem(n, seed);
            let h = Hsbcsr::from_sym(&m);
            let bj = BlockJacobi::new(&d, &h);
            let zero = vec![0.0; m.dim()];
            let tight = PcgOptions {
                tol: 1e-12,
                max_iters: 1000,
            };
            let exact = pcg(&d, &HsbcsrMat { m: &h }, &b, &zero, &bj, tight);
            let warm: Vec<f64> = exact.x.iter().map(|v| v * 1.001).collect();
            let preconds: [(&str, &dyn Preconditioner); 2] = [("BJ", &bj), ("identity", &Identity)];
            for (pname, m_) in preconds {
                for (cname, x0) in [("cold", &zero), ("warm", &warm), ("converged", &exact.x)] {
                    let (three, five) = both_loops_f64(&d, &h, &b, x0, m_);
                    let what = format!("f64, {n} blocks, {pname}, {cname}");
                    assert_eq!(three, five, "{what}");
                    // Only the converged start stops in the set-up.
                    assert_eq!(three.1 == 0, cname == "converged", "{what}");
                }
                let (three, five) = both_loops_f32(&d, &h, &b, m_);
                assert_eq!(three, five, "f32, {n} blocks, {pname}");
                assert!(three.1 > 0);
            }
        }

        // An indefinite operator: both loops break down at the same
        // iteration (past the first, so the folded SpMV ran) with the same
        // iterate.
        let m = SymBlockMatrix::random_spd(60, 2.0, 85);
        let mut indef = m.clone();
        indef.diag[17] = indef.diag[17].scale(-1.0);
        let h = Hsbcsr::from_sym(&indef);
        let b: Vec<f64> = (0..indef.dim()).map(|i| (i as f64 * 0.7).cos()).collect();
        let bj = BlockJacobi::new(&d, &h);
        let zero = vec![0.0; indef.dim()];
        let broke_late = |o: &Outcome| matches!(o.4, Some(SolveError::IndefiniteOperator { iteration, .. }) if iteration > 1);
        for m_ in [&bj as &dyn Preconditioner, &Identity] {
            let (three, five) = both_loops_f64(&d, &h, &b, &zero, m_);
            assert_eq!(three, five);
            assert!(broke_late(&three), "{:?}", three.4);
            let (three, five) = both_loops_f32(&d, &h, &b, m_);
            assert_eq!(three, five);
            assert!(broke_late(&three), "{:?}", three.4);
        }
    }

    #[test]
    fn fused_breakdown_bails_with_current_iterate() {
        // An indefinite operator trips the device-side pq ≤ 0 guard; the
        // fused loop must stop without corrupting x, like the unfused one.
        let m = SymBlockMatrix::random_spd(10, 2.0, 19);
        let mut neg = m.clone();
        for bdiag in &mut neg.diag {
            *bdiag = bdiag.scale(-1.0);
        }
        for (_, _, bu) in &mut neg.upper {
            *bu = bu.scale(-1.0);
        }
        let h = Hsbcsr::from_sym(&neg);
        let d = dev();
        let b: Vec<f64> = (0..neg.dim()).map(|i| (i as f64 * 0.3).sin()).collect();
        let x0 = vec![0.0; neg.dim()];
        let mut ws = PcgWorkspace::new();
        let unfused = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &x0,
            &Identity,
            PcgOptions::default(),
        );
        let fused = pcg_fused(&d, &h, &b, &x0, &Identity, PcgOptions::default(), &mut ws);
        assert!(!fused.converged);
        assert_eq!(fused.iterations, unfused.iterations);
        assert_eq!(fused.x, unfused.x, "breakdown must not corrupt the iterate");
    }

    #[test]
    fn breakdown_is_distinguishable_from_iteration_cap() {
        // An SPD matrix perturbed to indefiniteness (one diagonal block
        // flipped) must report `IndefiniteOperator`, not just a bare
        // `converged = false` — a cap exit must stay reason-less.
        let m = SymBlockMatrix::random_spd(12, 2.0, 41);
        let mut indef = m.clone();
        indef.diag[3] = indef.diag[3].scale(-40.0);
        let h = Hsbcsr::from_sym(&indef);
        let d = dev();
        let b: Vec<f64> = (0..indef.dim()).map(|i| (i as f64 * 0.7).cos()).collect();
        let x0 = vec![0.0; indef.dim()];
        let mut ws = PcgWorkspace::new();

        let unfused = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &x0,
            &Identity,
            PcgOptions::default(),
        );
        let fused = pcg_fused(&d, &h, &b, &x0, &Identity, PcgOptions::default(), &mut ws);
        for res in [&unfused, &fused] {
            assert!(!res.converged);
            assert!(res.broke_down());
            match res.error {
                Some(SolveError::IndefiniteOperator { pq, iteration }) => {
                    assert!(pq <= 0.0, "reported curvature must be non-positive: {pq}");
                    assert!(iteration >= 1);
                }
                other => panic!("expected IndefiniteOperator, got {other:?}"),
            }
        }

        // Iteration-cap exit: converged = false but *no* error.
        let (spd, b2) = problem(30, 42);
        let h2 = Hsbcsr::from_sym(&spd);
        let capped = pcg_fused(
            &d,
            &h2,
            &b2,
            &vec![0.0; spd.dim()],
            &Identity,
            PcgOptions {
                tol: 1e-30,
                max_iters: 2,
            },
            &mut ws,
        );
        assert!(!capped.converged);
        assert!(!capped.broke_down(), "cap exit must not be a breakdown");
    }

    #[test]
    fn nan_rhs_is_rejected_before_iterating() {
        let (m, mut b) = problem(8, 43);
        b[5] = f64::NAN;
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let x0 = vec![0.0; m.dim()];
        let mut ws = PcgWorkspace::new();
        let fused = pcg_fused(&d, &h, &b, &x0, &Identity, PcgOptions::default(), &mut ws);
        assert!(!fused.converged);
        assert_eq!(fused.error, Some(SolveError::NonFinite { iteration: 0 }));
        assert_eq!(fused.x, x0, "iterate must stay at the warm start");
        let unfused = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &x0,
            &Identity,
            PcgOptions::default(),
        );
        assert_eq!(unfused.error, Some(SolveError::NonFinite { iteration: 0 }));
    }

    #[test]
    fn batched_solves_are_bit_identical_to_solo() {
        // Three systems of different sizes and conditioning, solved solo
        // and batched: identical iterates, iteration counts, residuals.
        // Once all on Block-Jacobi, once with the middle one on SSOR-AI, so
        // a three-launch iteration shares the batch with a bridged one.
        let sizes = [(20usize, 21u64), (35, 22), (27, 23)];
        let problems: Vec<(SymBlockMatrix, Vec<f64>)> =
            sizes.iter().map(|&(n, s)| problem(n, s)).collect();
        let hs: Vec<Hsbcsr> = problems.iter().map(|(m, _)| Hsbcsr::from_sym(m)).collect();
        let opts = PcgOptions::default();
        for with_ssor in [false, true] {
            fn precond<'h>(d: &Device, ssor: bool, h: &'h Hsbcsr) -> Box<dyn Preconditioner + 'h> {
                if ssor {
                    Box::new(SsorAi::new(d, h, 1.0))
                } else {
                    Box::new(BlockJacobi::new(d, h))
                }
            }

            // Solo reference.
            let d_solo = dev();
            let mut solo = Vec::new();
            for (k, ((m, b), h)) in problems.iter().zip(&hs).enumerate() {
                let m_ = precond(&d_solo, with_ssor && k == 1, h);
                let mut ws = PcgWorkspace::new();
                let x0 = vec![0.0; m.dim()];
                solo.push(pcg_fused(&d_solo, h, b, &x0, &*m_, opts, &mut ws));
            }

            // Batched run on a fresh device.
            let d = dev();
            let ms: Vec<_> = hs
                .iter()
                .enumerate()
                .map(|(k, h)| precond(&d, with_ssor && k == 1, h))
                .collect();
            let x0s: Vec<Vec<f64>> = problems.iter().map(|(m, _)| vec![0.0; m.dim()]).collect();
            let mut wss: Vec<PcgWorkspace> = (0..3).map(|_| PcgWorkspace::new()).collect();
            d.reset_trace();
            let mut entries: Vec<PcgBatchEntry> = Vec::new();
            for (((h, (_, b)), (m_, x0)), ws) in hs
                .iter()
                .zip(&problems)
                .zip(ms.iter().zip(&x0s))
                .zip(&mut wss)
            {
                entries.push(PcgBatchEntry {
                    h,
                    h32: None,
                    b,
                    x0,
                    m: &**m_,
                    opts,
                    precision: SolverPrecision::Full,
                    ws,
                });
            }
            let (batched, summary) = pcg_fused_batch(&d, &mut entries);

            for (s, f) in solo.iter().zip(&batched) {
                assert_eq!(s.x, f.x, "batched iterate must be bit-identical");
                assert_eq!(s.iterations, f.iterations);
                assert_eq!(s.converged, f.converged);
                assert_eq!(s.residual, f.residual);
            }
            let by = d.trace().by_kernel();
            assert_eq!(by.contains_key("pcg.fused.axpy2norm"), with_ssor);
            assert!(by.contains_key("pcg.fused.update"));

            // Launch accounting: the batch must merge (fewer records out
            // than in) and the merged time must beat three solo runs.
            assert!(summary.launches_out < summary.launches_in);
            assert_eq!(summary.per_segment_seconds.len(), 3);
            let solo_seconds = d_solo.modeled_seconds();
            assert!(
                summary.seconds < solo_seconds,
                "batched {} vs solo {}",
                summary.seconds,
                solo_seconds
            );
        }
    }

    #[test]
    fn batch_of_one_matches_solo_accounting_shape() {
        let (m, b) = problem(12, 31);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let x0 = vec![0.0; m.dim()];
        let mut ws = PcgWorkspace::new();
        let mut entries = [PcgBatchEntry {
            h: &h,
            h32: None,
            b: &b,
            x0: &x0,
            m: &bj,
            opts: PcgOptions::default(),
            precision: SolverPrecision::Full,
            ws: &mut ws,
        }];
        let (results, summary) = pcg_fused_batch(&d, &mut entries);
        assert_eq!(results.len(), 1);
        assert!(results[0].converged);
        // A batch of one merges nothing: launches in == launches out.
        assert_eq!(summary.launches_in, summary.launches_out);
        let total: f64 = summary.per_segment_seconds.iter().sum();
        assert!((total - summary.seconds).abs() <= 1e-12 * summary.seconds.max(1.0));
    }

    fn shadow_of(h: &Hsbcsr) -> Hsbcsr32 {
        let mut s = Hsbcsr32::new();
        s.refill_from(h);
        s
    }

    #[test]
    fn mixed_converges_within_tolerance_of_full() {
        // The outer refinement tests the same ‖r‖ ≤ tol·‖b‖ criterion as
        // the pure path, so a converged mixed solve satisfies the fp64
        // tolerance on the *true* residual.
        let (m, b) = problem(50, 61);
        let h = Hsbcsr::from_sym(&m);
        let h32 = shadow_of(&h);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let x0 = vec![0.0; m.dim()];
        let opts = PcgOptions::default();
        let mut ws = PcgWorkspace::new();

        let full = pcg_fused(&d, &h, &b, &x0, &bj, opts, &mut ws);
        let mixed = pcg_fused_mixed(&d, &h, &h32, &b, &x0, &bj, opts, &mut ws);
        assert!(full.converged && mixed.converged);

        // True fp64 residual of the mixed solution meets the tolerance.
        let ax = m.mul_vec(&mixed.x);
        let rnorm: f64 = ax
            .iter()
            .zip(&b)
            .map(|(a, bv)| (a - bv) * (a - bv))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            rnorm <= opts.tol * bn * 10.0,
            "mixed residual {rnorm} vs tol {}",
            opts.tol * bn
        );

        // And the two solutions agree to the outer tolerance.
        let scale = full.x.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for i in 0..m.dim() {
            assert!(
                (mixed.x[i] - full.x[i]).abs() <= opts.tol.sqrt() * scale,
                "i={i}: mixed {} vs full {}",
                mixed.x[i],
                full.x[i]
            );
        }
    }

    #[test]
    fn mixed_inner_iterations_stream_f32_kernels() {
        let (m, b) = problem(40, 62);
        let h = Hsbcsr::from_sym(&m);
        let h32 = shadow_of(&h);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let x0 = vec![0.0; m.dim()];
        let mut ws = PcgWorkspace::new();
        d.reset_trace();
        let res = pcg_fused_mixed(&d, &h, &h32, &b, &x0, &bj, PcgOptions::default(), &mut ws);
        assert!(res.converged);
        let by = d.trace().by_kernel();
        assert!(
            by.contains_key("spmv.hsbcsr.stage1.f32"),
            "inner iterations must stream the fp32 matrix values"
        );
        assert!(
            by.contains_key("spmv.hsbcsr.stage1"),
            "outer refinement must stream fp64 values"
        );
        // The fp32 iterations dominate: more inner SpMVs than outer ones
        // (the first inner iteration of a pass multiplies p₀ = z₀, every
        // later one folds p ← z + βp into the SpMV).
        let inner =
            by["spmv.hsbcsr.stage1.f32"].0.launches + by["spmv.hsbcsr.stage1_xpby.f32"].0.launches;
        let outer = by["spmv.hsbcsr.stage1"].0.launches;
        assert!(
            inner > outer,
            "inner {inner} vs outer {outer} SpMV launches"
        );
    }

    #[test]
    fn mixed_nan_rhs_rejected_identically_to_full() {
        let (m, mut b) = problem(8, 63);
        b[2] = f64::NAN;
        let h = Hsbcsr::from_sym(&m);
        let h32 = shadow_of(&h);
        let d = dev();
        let x0 = vec![0.0; m.dim()];
        let mut ws = PcgWorkspace::new();
        let mixed = pcg_fused_mixed(
            &d,
            &h,
            &h32,
            &b,
            &x0,
            &Identity,
            PcgOptions::default(),
            &mut ws,
        );
        let full = pcg_fused(&d, &h, &b, &x0, &Identity, PcgOptions::default(), &mut ws);
        assert_eq!(mixed.error, Some(SolveError::NonFinite { iteration: 0 }));
        assert_eq!(mixed.x, full.x);
        assert_eq!(mixed.iterations, full.iterations);
    }

    #[test]
    fn mixed_breakdown_falls_back_to_bitwise_full_result() {
        // An indefinite operator breaks the fp32 inner solve; the driver
        // must then produce the pure-fp64 result bit-for-bit, including
        // the structured error — quarantine parity by construction.
        let m = SymBlockMatrix::random_spd(12, 2.0, 64);
        let mut indef = m.clone();
        indef.diag[5] = indef.diag[5].scale(-25.0);
        let h = Hsbcsr::from_sym(&indef);
        let h32 = shadow_of(&h);
        let d = dev();
        let b: Vec<f64> = (0..indef.dim()).map(|i| (i as f64 * 0.4).sin()).collect();
        let x0 = vec![0.0; indef.dim()];
        let mut ws = PcgWorkspace::new();

        let full = pcg_fused(&d, &h, &b, &x0, &Identity, PcgOptions::default(), &mut ws);
        let mixed = pcg_fused_mixed(
            &d,
            &h,
            &h32,
            &b,
            &x0,
            &Identity,
            PcgOptions::default(),
            &mut ws,
        );
        assert!(full.broke_down() && mixed.broke_down());
        assert_eq!(mixed.x, full.x, "fallback must be bit-identical to Full");
        assert_eq!(mixed.error, full.error);
        assert_eq!(mixed.iterations, full.iterations);
        assert_eq!(mixed.residual, full.residual);
    }

    #[test]
    fn mixed_batched_is_bit_identical_to_mixed_solo() {
        let sizes = [(18usize, 71u64), (30, 72), (24, 73)];
        let problems: Vec<(SymBlockMatrix, Vec<f64>)> =
            sizes.iter().map(|&(n, s)| problem(n, s)).collect();
        let hs: Vec<Hsbcsr> = problems.iter().map(|(m, _)| Hsbcsr::from_sym(m)).collect();
        let shadows: Vec<Hsbcsr32> = hs.iter().map(shadow_of).collect();
        let opts = PcgOptions::default();

        let d_solo = dev();
        let mut solo = Vec::new();
        for ((m, b), (h, h32)) in problems.iter().zip(hs.iter().zip(&shadows)) {
            let bj = BlockJacobi::new(&d_solo, h);
            let mut ws = PcgWorkspace::new();
            solo.push(pcg_fused_mixed(
                &d_solo,
                h,
                h32,
                b,
                &vec![0.0; m.dim()],
                &bj,
                opts,
                &mut ws,
            ));
        }

        let d = dev();
        let bjs: Vec<BlockJacobi> = hs.iter().map(|h| BlockJacobi::new(&d, h)).collect();
        let x0s: Vec<Vec<f64>> = problems.iter().map(|(m, _)| vec![0.0; m.dim()]).collect();
        let mut wss: Vec<PcgWorkspace> = (0..3).map(|_| PcgWorkspace::new()).collect();
        let mut entries: Vec<PcgBatchEntry> = Vec::new();
        for ((((h, h32), (_, b)), (bj, x0)), ws) in hs
            .iter()
            .zip(&shadows)
            .zip(&problems)
            .zip(bjs.iter().zip(&x0s))
            .zip(&mut wss)
        {
            entries.push(PcgBatchEntry {
                h,
                h32: Some(h32),
                b,
                x0,
                m: bj,
                opts,
                precision: SolverPrecision::Mixed,
                ws,
            });
        }
        let (batched, summary) = pcg_fused_batch(&d, &mut entries);
        for (s, f) in solo.iter().zip(&batched) {
            assert_eq!(s.x, f.x, "mixed batched iterate must be bit-identical");
            assert_eq!(s.iterations, f.iterations);
            assert_eq!(s.residual, f.residual);
        }
        assert!(summary.launches_out < summary.launches_in);
    }

    #[test]
    fn csr_operator_agrees_with_hsbcsr_operator() {
        let (m, b) = problem(20, 7);
        let h = Hsbcsr::from_sym(&m);
        let c = Csr::from_sym_full(&m);
        let d = dev();
        let r1 = pcg(
            &d,
            &HsbcsrMat { m: &h },
            &b,
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions::default(),
        );
        let r2 = pcg(
            &d,
            &CsrVectorMat { m: &c },
            &b,
            &vec![0.0; m.dim()],
            &Identity,
            PcgOptions::default(),
        );
        assert_eq!(r1.iterations, r2.iterations);
        for i in 0..m.dim() {
            assert!((r1.x[i] - r2.x[i]).abs() < 1e-7);
        }
    }
}
