//! Steady-state allocation audit for the HSBCSR SpMV path.
//!
//! The workspace-based SpMV (`spmv_hsbcsr_into` / `spmv_hsbcsr_fused_pq` /
//! `spmv_hsbcsr_folded_pq`) must allocate **nothing** once warmed: per-call intermediates live in
//! `SpmvWorkspace`, per-block gather scratch is thread-local, kernel names
//! are `&'static str`, and the device trace retains its capacity across
//! `reset_trace`. This test arms a counting global allocator around the
//! warmed calls and requires exactly zero heap allocations.
//!
//! The matrix is sized so both SpMV stages run on the simulator's serial
//! path (few warps / blocks): a single deterministic thread, so a zero
//! count is exact rather than scheduling-dependent. The parallel-pool path
//! reuses the same thread-local scratch but warms per worker thread.

mod counting_alloc;

use counting_alloc::count_allocs;
use dda_simt::{Device, DeviceProfile};
use dda_sparse::spmv::{
    spmv_hsbcsr_f32, spmv_hsbcsr_folded_pq, spmv_hsbcsr_fused_pq, spmv_hsbcsr_into, Fold,
    SpmvWorkspace, Stage1Smem,
};
use dda_sparse::{Hsbcsr, Hsbcsr32, SymBlockMatrix};

#[test]
fn warmed_spmv_steady_state_allocates_nothing() {
    // No conflict checking: the epoch detector allocates stamp arrays on
    // bind, which is a debug facility, not part of the hot loop.
    let dev = Device::new(DeviceProfile::tesla_k40());
    let m = SymBlockMatrix::random_spd(150, 4.0, 77);
    let h = Hsbcsr::from_sym(&m);
    let x: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.19).sin()).collect();
    let mut ws = SpmvWorkspace::new();
    let mut y = vec![0.0f64; m.dim()];
    // The folded SpMV's direction, rewritten in place by every call.
    let (z, beta) = (x.clone(), [0.5]);
    let mut p = x.clone();
    let mut yp = vec![0.0f64; m.dim()];
    let mut steady = |ws: &mut SpmvWorkspace, y: &mut [f64]| {
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

/// Uniformly scales every stored value so a refill pass has fresh data
/// without changing the sparsity pattern (keeps SPD for positive factors).
fn scale_values(m: &mut SymBlockMatrix, factor: f64) {
    for b in &mut m.diag {
        for row in &mut b.0 {
            for v in row {
                *v *= factor;
            }
        }
    }
    for (_, _, b) in &mut m.upper {
        for row in &mut b.0 {
            for v in row {
                *v *= factor;
            }
        }
    }
}

#[test]
fn warmed_shadow_refill_and_f32_spmv_allocate_nothing() {
    // The mixed-precision path must add zero extra heap traffic per step:
    // the fp32 shadow is refilled in the *same* pass as the fp64 values
    // (`refill_values_with_shadow`), and the fp32 SpMV reuses its
    // `SpmvWorkspace<f32>` plus the shadow's own capacity.
    let dev = Device::new(DeviceProfile::tesla_k40());
    let mut m = SymBlockMatrix::random_spd(150, 4.0, 91);
    let mut h = Hsbcsr::from_sym(&m);
    let mut shadow = Hsbcsr32::new();
    let x: Vec<f32> = (0..m.dim()).map(|i| (i as f32 * 0.23).cos()).collect();
    let mut ws = SpmvWorkspace::new();
    let mut y = vec![0.0f32; m.dim()];
    let scheme = Stage1Smem::Proposed;

    // Warm: shadow capacity, workspace buffers, the fp32 thread-local
    // kernel scratch, trace capacity. Perturb the values between warm
    // passes so the refill path actually runs.
    for pass in 0..2 {
        scale_values(&mut m, 1.0 + 1e-3 * f64::from(pass));
        assert!(h.refill_values_with_shadow(&m, &mut shadow));
        spmv_hsbcsr_f32(&dev, &h, &shadow, &x, scheme, &mut ws, &mut y, false);
        spmv_hsbcsr_f32(&dev, &h, &shadow, &x, scheme, &mut ws, &mut y, true);
    }
    dev.reset_trace();

    // Measure a full steady-state step: refill (with shadow) + fp32 SpMV.
    scale_values(&mut m, 1.0 + 5e-4);
    let (n_allocs, refilled) = count_allocs(|| {
        let refilled = h.refill_values_with_shadow(&m, &mut shadow);
        spmv_hsbcsr_f32(&dev, &h, &shadow, &x, scheme, &mut ws, &mut y, false);
        spmv_hsbcsr_f32(&dev, &h, &shadow, &x, scheme, &mut ws, &mut y, true);
        refilled
    });
    assert!(refilled, "pattern unchanged, refill must succeed");
    assert_eq!(
        n_allocs, 0,
        "warmed shadow refill + fp32 SpMV performed {n_allocs} heap allocations"
    );

    // Accuracy: fp32 storage, fp64 accumulation — rounding-level agreement.
    let x64: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
    let y_ref = m.mul_vec(&x64);
    let scale: f64 = y_ref.iter().fold(1.0, |a, v| a.max(v.abs()));
    for i in 0..m.dim() {
        assert!((f64::from(y[i]) - y_ref[i]).abs() < 1e-5 * scale, "i={i}");
    }
}
