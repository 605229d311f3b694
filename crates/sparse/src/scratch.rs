//! Per-host-thread scratch of the solver's device kernels.
//!
//! The HSBCSR SpMV, the fused PCG vector kernels and the Block-Jacobi
//! construction stage each block's loads in these buffers, so their hot
//! loops allocate nothing once warm.

use std::cell::RefCell;

/// Per-host-thread kernel scratch, reused across launches. Kernels
/// destructure the buffers they need; nothing in here is live between two
/// blocks.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Element tile and gather buffers.
    pub tiles: [Vec<f64>; 8],
    /// Partial sums staged for an in-kernel reduce.
    pub red: Vec<f64>,
    /// Per-row accumulators of SpMV stage 2.
    pub acc: Vec<[f64; 6]>,
    /// Gather index lists.
    pub idx: [Vec<usize>; 2],
    /// Index-stream loads (row bounds, `row-low-p`, shared-memory words).
    pub words: [Vec<u32>; 4],
}

impl Scratch {
    /// Runs `f` on the calling host thread's scratch.
    pub fn with<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
        }
        SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
    }
}
