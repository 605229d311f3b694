//! The storage scalar of the solver's device kernels.
//!
//! One rule covers the HSBCSR SpMV and the fused PCG vector kernels: the
//! *storage* type of matrix values and vectors is the parameter (`f64`, or
//! `f32` for the mixed solver's inner iterations); every product and
//! reduction accumulates in `f64`, each store rounds once, and
//! partial-sum buffers never narrow. A kernel is written once over
//! [`Scalar`]; for `f64` every hook is the identity, so that instantiation
//! is the historical fp64 kernel bit for bit.

use std::cell::RefCell;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// Per-host-thread kernel scratch for storage type `S`, reused across
/// launches so the hot loops allocate nothing. Kernels destructure the
/// buffers they need; nothing in here is live between two blocks.
#[derive(Debug, Default)]
pub struct Scratch<S> {
    /// Element-typed tile and gather buffers.
    pub tiles: [Vec<S>; 8],
    /// Partial sums staged for an in-kernel reduce (always fp64).
    pub red: Vec<f64>,
    /// Per-row fp64 accumulators of SpMV stage 2.
    pub acc: Vec<[f64; 6]>,
    /// Gather index lists.
    pub idx: [Vec<usize>; 2],
    /// Index-stream loads (row bounds, `row-low-p`, shared-memory words).
    pub words: [Vec<u32>; 4],
}

/// A storage type the solver kernels are instantiated for. Sealed: `f64`
/// and `f32` are the only implementations.
pub trait Scalar: sealed::Sealed + Copy + Send + Default + 'static {
    /// Trace name of SpMV stage 1.
    const SPMV_STAGE1: &'static str;
    /// Trace name of SpMV stage 2.
    const SPMV_STAGE2: &'static str;
    /// Trace name of SpMV stage 2 with the fused `x·y` partials.
    const SPMV_STAGE2_PQ: &'static str;
    /// Trace name of SpMV stage 1 forming its input `p = z + βp` on load.
    const SPMV_STAGE1_XPBY: &'static str;
    /// Trace name of the `x·y`-fused SpMV stage 2 forming and storing its
    /// rows of `p = z + βp`.
    const SPMV_STAGE2_PQ_XPBY: &'static str;
    /// Trace name of the tile-partial dot kernel.
    const DOT_PARTIAL: &'static str;
    /// Trace name of the fused set-up `r = b − q`/`‖b‖²`/`‖r‖²` kernel.
    const RESIDUAL: &'static str;
    /// Trace name of the fused `α`/`x`/`r`/`‖r‖²` kernel.
    const AXPY2NORM: &'static str;
    /// Trace name of the fused set-up `z`/`r·z` kernel.
    const PRECOND_RZ: &'static str;
    /// Trace name of the fused `β`/`p` kernel.
    const XPBY_BETA: &'static str;
    /// Trace name of the fused `α`/`x`/`r`/`z`/`‖r‖²`/`r·z`/`β` kernel.
    const UPDATE: &'static str;
    /// Exact widening of a loaded element.
    fn widen(self) -> f64;
    /// The one rounding of an accumulated value on store.
    fn narrow(v: f64) -> Self;
    /// Runs `f` on the calling host thread's scratch for this type.
    fn with_scratch<R>(f: impl FnOnce(&mut Scratch<Self>) -> R) -> R;
}

macro_rules! impl_scalar {
    ($t:ty, $suffix:literal) => {
        impl Scalar for $t {
            const SPMV_STAGE1: &'static str = concat!("spmv.hsbcsr.stage1", $suffix);
            const SPMV_STAGE2: &'static str = concat!("spmv.hsbcsr.stage2", $suffix);
            const SPMV_STAGE2_PQ: &'static str = concat!("spmv.hsbcsr.stage2_pq", $suffix);
            const SPMV_STAGE1_XPBY: &'static str = concat!("spmv.hsbcsr.stage1_xpby", $suffix);
            const SPMV_STAGE2_PQ_XPBY: &'static str =
                concat!("spmv.hsbcsr.stage2_pq_xpby", $suffix);
            const DOT_PARTIAL: &'static str = concat!("vec.dot.partial", $suffix);
            const RESIDUAL: &'static str = concat!("pcg.fused.residual", $suffix);
            const AXPY2NORM: &'static str = concat!("pcg.fused.axpy2norm", $suffix);
            const PRECOND_RZ: &'static str = concat!("pcg.fused.precond_rz", $suffix);
            const XPBY_BETA: &'static str = concat!("pcg.fused.xpby_beta", $suffix);
            const UPDATE: &'static str = concat!("pcg.fused.update", $suffix);
            #[inline]
            fn widen(self) -> f64 {
                f64::from(self)
            }
            #[inline]
            fn narrow(v: f64) -> $t {
                v as $t
            }
            fn with_scratch<R>(f: impl FnOnce(&mut Scratch<$t>) -> R) -> R {
                thread_local! {
                    static SCRATCH: RefCell<Scratch<$t>> = RefCell::new(Scratch::default());
                }
                SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
            }
        }
    };
}

impl_scalar!(f64, "");
impl_scalar!(f32, ".f32");
