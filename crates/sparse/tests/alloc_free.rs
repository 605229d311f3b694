//! Steady-state allocation audit for the HSBCSR SpMV path.
//!
//! The workspace-based SpMV (`spmv_hsbcsr_into` / `spmv_hsbcsr_fused_pq` /
//! `spmv_hsbcsr_folded_pq`) must allocate **nothing** once warmed: per-call intermediates live in
//! `SpmvWorkspace`, per-block gather scratch is thread-local, kernel names
//! are `&'static str`, and the device trace retains its capacity across
//! `reset_trace`; so must a pattern-stable `Hsbcsr::refill_values`, which
//! rewrites the value slices in place. This test arms a counting global
//! allocator around the warmed calls and requires exactly zero heap
//! allocations.
//!
//! The matrix is sized so both SpMV stages run on the simulator's serial
//! path (few warps / blocks): a single deterministic thread, so a zero
//! count is exact rather than scheduling-dependent. The parallel-pool path
//! reuses the same thread-local scratch but warms per worker thread.

mod counting_alloc;

use counting_alloc::count_allocs;
use dda_simt::{Device, DeviceProfile};
use dda_sparse::spmv::{
    spmv_hsbcsr_folded_pq, spmv_hsbcsr_fused_pq, spmv_hsbcsr_into, Fold, SpmvWorkspace, Stage1Smem,
};
use dda_sparse::{Hsbcsr, SymBlockMatrix};

#[test]
fn warmed_spmv_steady_state_allocates_nothing() {
    // No conflict checking: the epoch detector allocates stamp arrays on
    // bind, which is a debug facility, not part of the hot loop.
    let dev = Device::new(DeviceProfile::tesla_k40());
    let m = SymBlockMatrix::random_spd(150, 4.0, 77);
    let mut h = Hsbcsr::from_sym(&m);
    let x: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.19).sin()).collect();
    let mut ws = SpmvWorkspace::new();
    let mut y = vec![0.0f64; m.dim()];
    // The folded SpMV's direction, rewritten in place by every call.
    let (z, beta) = (x.clone(), [0.5]);
    let mut p = x.clone();
    let mut yp = vec![0.0f64; m.dim()];
    let mut steady = |ws: &mut SpmvWorkspace, y: &mut [f64]| {
        // A pattern-stable value refill rewrites the format in place.
        assert!(h.refill_values(&m));
        let fold = Fold { z: &z, beta: &beta };
        spmv_hsbcsr_folded_pq(&dev, &h, fold, &mut p, Stage1Smem::Proposed, ws, &mut yp);
        spmv_hsbcsr_into(&dev, &h, &x, Stage1Smem::Proposed, ws, y);
        spmv_hsbcsr_fused_pq(&dev, &h, &x, Stage1Smem::Proposed, ws, y);
    };

    // Warm: workspace buffers, thread-local kernel scratch, trace capacity.
    for _ in 0..2 {
        steady(&mut ws, &mut y);
    }
    dev.reset_trace();

    // Measure.
    let (n_allocs, ()) = count_allocs(|| steady(&mut ws, &mut y));
    assert_eq!(
        n_allocs, 0,
        "warmed SpMV steady state performed {n_allocs} heap allocations"
    );

    // And it still computes the right thing.
    let y_ref = m.mul_vec(&x);
    for i in 0..m.dim() {
        assert!((y[i] - y_ref[i]).abs() < 1e-9, "i={i}");
    }
}
