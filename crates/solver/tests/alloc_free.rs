//! Steady-state allocation audit for the fused PCG solve.
//!
//! Once its [`PcgWorkspace`] is warmed, a Block-Jacobi `pcg_fused` solve —
//! the preconditioner refactor, the four set-up launches and every
//! iteration — allocates exactly once: the solution vector it returns.
//! Iterates, SpMV staging and all three partial-sum buffers live in the
//! workspace, the construct kernel stages its tiles in the thread-local
//! kernel scratch, and the set-up no longer asks the preconditioner for a
//! fresh `z₀` vector.
//!
//! Sized like `dda-sparse`'s SpMV audit, whose counting allocator this
//! shares: every launch stays on the simulator's serial path, so the count
//! is exact rather than scheduling-dependent.

#[path = "../../sparse/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::count_allocs;
use dda_simt::{Device, DeviceProfile};
use dda_solver::{pcg_fused, BlockJacobi, PcgOptions, PcgWorkspace};
use dda_sparse::{Hsbcsr, SymBlockMatrix};

#[test]
fn warmed_fused_solve_allocates_only_its_solution() {
    // No conflict checking: the epoch detector allocates stamp arrays on
    // bind, which is a debug facility, not part of the hot loop.
    let dev = Device::new(DeviceProfile::tesla_k40());
    let m = SymBlockMatrix::random_spd(150, 4.0, 83);
    let h = Hsbcsr::from_sym(&m);
    let b: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.31).cos()).collect();
    let x0 = vec![0.0; m.dim()];
    let opts = PcgOptions::default();
    let mut bj = BlockJacobi::new(&dev, &h);
    let mut ws = PcgWorkspace::new();

    // Warm: workspace buffers, thread-local kernel scratch, trace capacity.
    let warm = pcg_fused(&dev, &h, &b, &x0, &bj, opts, &mut ws);
    assert!(warm.converged && warm.iterations > 3);
    dev.reset_trace();

    let (n_allocs, res) = count_allocs(|| {
        bj.try_refactor(&dev, &h).expect("SPD diagonal blocks");
        pcg_fused(&dev, &h, &b, &x0, &bj, opts, &mut ws)
    });
    assert_eq!(
        n_allocs, 1,
        "warmed refactor + fused solve performed {n_allocs} heap allocations"
    );
    assert_eq!(res.x, warm.x);
}
