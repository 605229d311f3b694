//! Steady-state allocation audit for the serial contact-detection paths.
//!
//! Once a [`ContactWorkspace`] is warmed, every serial broad-phase
//! variant — the all-pairs sweep, the cell-binned grid, and the cached
//! grid's hit path — must allocate **nothing**: boxes, bin entries, and
//! pair lists live in the workspace and are reused by capacity, and all
//! sorting is in-place `sort_unstable`. This test arms a counting global
//! allocator around the warmed calls and requires exactly zero heap
//! allocations.
//!
//! Only the serial paths are audited: the device paths reuse their
//! host-side workspace buffers too, but the simulator's primitives
//! (radix sort, scan, compaction) allocate internally by design — their
//! buffer-capacity steady state is asserted in `contact::grid`'s unit
//! tests instead.
//!
//! The assembly cache's host bookkeeping gets the same treatment: once
//! warmed, the per-step rebind (buffer sizing + flattened joint-parameter
//! refill) and the per-iteration dirty-mask cycle of a multi-open–close
//! step must be allocation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dda_core::contact::{
    broad_phase_serial_ws, detect_broad_serial, narrow_phase_serial, BroadPhaseMode,
    ContactWorkspace,
};
use dda_core::AssemblyCache;
use dda_core::{Block, BlockMaterial, BlockSystem, JointMaterial};
use dda_geom::Polygon;
use dda_simt::serial::CpuCounter;

struct CountingAlloc;

// Armed and counted per thread: the libtest harness runs the audits of one
// binary on parallel threads, and a process-wide flag would charge one
// test's warm-up allocations to another's armed window. `const`-initialised
// `Cell`s need no lazy init and no destructor, so reading them inside the
// allocator is safe.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_if_armed() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// Runs `f` with this thread's allocation counter armed; returns the
/// number of heap allocations `f` performed and its result.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), out)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn grid_system(nx: usize, ny: usize, gap: f64) -> BlockSystem {
    let mut blocks = Vec::new();
    for iy in 0..ny {
        for ix in 0..nx {
            let x0 = ix as f64 * (1.0 + gap);
            let y0 = iy as f64 * (1.0 + gap);
            blocks.push(Block::new(Polygon::rect(x0, y0, x0 + 1.0, y0 + 1.0), 0));
        }
    }
    BlockSystem::new(
        blocks,
        BlockMaterial::rock(),
        JointMaterial::frictional(30.0),
    )
}

#[test]
fn warmed_serial_broad_phases_allocate_nothing() {
    let sys = grid_system(12, 12, 0.02);
    let (range, slack) = (0.05, 0.4);
    let mut counter = CpuCounter::default();
    let mut ws_all = ContactWorkspace::new();
    let mut ws_grid = ContactWorkspace::new();
    let mut ws_cached = ContactWorkspace::new();

    // Warm: workspace capacities, and the cached mode's candidate build
    // (so the measured call is the steady-state hit path).
    for _ in 0..2 {
        broad_phase_serial_ws(&sys, range, &mut counter, &mut ws_all);
        detect_broad_serial(
            &sys,
            BroadPhaseMode::Grid,
            range,
            slack,
            &mut counter,
            &mut ws_grid,
        );
        detect_broad_serial(
            &sys,
            BroadPhaseMode::GridCached,
            range,
            slack,
            &mut counter,
            &mut ws_cached,
        );
    }
    let expected = ws_all.pairs.clone();
    assert!(!expected.is_empty(), "audit needs real pair work");

    // Measure.
    let (n_allocs, ()) = count_allocs(|| {
        broad_phase_serial_ws(&sys, range, &mut counter, &mut ws_all);
        detect_broad_serial(
            &sys,
            BroadPhaseMode::Grid,
            range,
            slack,
            &mut counter,
            &mut ws_grid,
        );
        detect_broad_serial(
            &sys,
            BroadPhaseMode::GridCached,
            range,
            slack,
            &mut counter,
            &mut ws_cached,
        );
    });
    assert_eq!(
        n_allocs, 0,
        "warmed serial broad phases performed {n_allocs} heap allocations"
    );

    // And they still agree on the answer.
    assert_eq!(ws_grid.pairs, expected, "grid diverged from all-pairs");
    assert_eq!(
        ws_cached.pairs, expected,
        "cached hit diverged from all-pairs"
    );
    assert!(ws_cached.cache.hits >= 2, "third call must be a cache hit");
}

#[test]
fn warmed_assembly_cache_bookkeeping_allocates_nothing() {
    let sys = grid_system(8, 8, 0.02);
    let mut counter = CpuCounter::default();
    let mut ws = ContactWorkspace::new();
    broad_phase_serial_ws(&sys, 0.05, &mut counter, &mut ws);
    let contacts = narrow_phase_serial(&sys, &ws.pairs, 0.05, &mut counter);
    assert!(!contacts.is_empty(), "audit needs real contacts");

    // Warm: the first begin_step grows every stream buffer and the joint
    // parameter table; the second proves the sizes are stable.
    let mut acache = AssemblyCache::new();
    acache.begin_step(&sys, &contacts);
    acache.begin_step(&sys, &contacts);

    // Measure one step's worth of host bookkeeping: the per-step rebind,
    // then several open–close iterations' dirty-mask accumulate/consume
    // cycles (the device-side recompute/splice launches sit between these
    // in the pipeline and are audited for capacity reuse separately).
    let (n_allocs, ()) = count_allocs(|| {
        acache.begin_step(&sys, &contacts);
        for it in 0..4 {
            let mask = acache.dirty_mask();
            for (k, m) in mask.iter_mut().enumerate() {
                *m = u32::from(k % (it + 2) == 0);
            }
            mask.fill(0);
            let _ = acache.stats();
        }
        acache.invalidate();
    });
    assert_eq!(
        n_allocs, 0,
        "warmed assembly-cache bookkeeping performed {n_allocs} heap allocations"
    );
}
