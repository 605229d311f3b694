//! Steady-state allocation audit for the serial contact-detection path.
//!
//! Once a [`ContactWorkspace`] is warmed, the serial broad phase — the
//! all-pairs sweep, the serial pipeline's only one — must allocate
//! **nothing**: boxes and pair lists live in the workspace and are reused
//! by capacity. This test arms a counting global allocator around the
//! warmed call and requires exactly zero heap allocations.
//!
//! Only the serial path is audited: the device paths reuse their
//! host-side workspace buffers too, but the simulator's primitives
//! (radix sort, scan, compaction) allocate internally by design — their
//! buffer-capacity steady state is asserted in `contact::grid`'s unit
//! tests instead.
//!
//! The assembly cache gets the same treatment: once warmed, the
//! per-detection rebind over an unchanged contact list (joint-parameter
//! refill + plan validity check) is allocation-free, and an assembly under
//! the standing plan allocates only the system it returns — the gather's
//! outputs, the key buffers and the joint parameters live in the cache.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dda_core::contact::{
    broad_phase_serial_ws, narrow_phase_serial, ContactState, ContactWorkspace, GeomSoa,
};
use dda_core::stiffness::perblock::{build_diag_gpu, BlockSoa};
use dda_core::{AssemblyCache, Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial};
use dda_geom::Polygon;
use dda_simt::serial::CpuCounter;
use dda_simt::{Device, DeviceProfile};
use dda_sparse::SymBlockMatrix;

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
    let range = 0.05;
    let mut counter = CpuCounter::default();
    let mut ws = ContactWorkspace::new();

    // Warm: workspace capacities.
    broad_phase_serial_ws(&sys, range, &mut counter, &mut ws);
    let expected = ws.pairs.clone();
    assert!(!expected.is_empty(), "audit needs real pair work");

    // Measure.
    let (n_allocs, ()) = count_allocs(|| broad_phase_serial_ws(&sys, range, &mut counter, &mut ws));
    assert_eq!(
        n_allocs, 0,
        "a warmed all-pairs sweep performed {n_allocs} heap allocations"
    );
    assert_eq!(ws.pairs, expected, "the warmed sweep changed its answer");
}

#[test]
fn warmed_assembly_cache_bookkeeping_allocates_nothing() {
    let sys = grid_system(8, 8, 0.02);
    let params = DdaParams::for_model(1.0, 5e9);
    let mut counter = CpuCounter::default();
    let mut ws = ContactWorkspace::new();
    broad_phase_serial_ws(&sys, 0.05, &mut counter, &mut ws);
    let mut contacts = narrow_phase_serial(&sys, &ws.pairs, 0.05, &mut counter);
    assert!(!contacts.is_empty(), "audit needs real contacts");
    for (k, c) in contacts.iter_mut().enumerate() {
        if k % 3 != 0 {
            c.state = ContactState::Lock;
        }
    }
    // No conflict checking: the detector allocates stamp arrays on bind.
    let dev = Device::new(DeviceProfile::tesla_k40());
    let gsoa = GeomSoa::build(&sys);
    let (diag, rhs) = build_diag_gpu(&dev, &sys, &BlockSoa::build(&sys), &params);
    let assemble = |acache: &mut AssemblyCache, diag, rhs| {
        acache.assemble(&dev, &sys, &gsoa, &contacts, &params, diag, rhs)
    };

    // Warm: the first assembly builds the plan and sizes every buffer, the
    // second runs under it (thread-local kernel scratch, trace capacity).
    let mut acache = AssemblyCache::new();
    acache.begin_step(&sys, &contacts);
    let warm = assemble(&mut acache, diag.clone(), rhs.clone());
    assemble(&mut acache, diag.clone(), rhs.clone());
    assert!(warm.matrix.n_upper() > 0, "audit needs off-diagonal blocks");
    dev.reset_trace();

    // What the returned value costs on its own: the upper-block list and
    // `SymBlockMatrix::new`'s sort and merge of it.
    let (diag_r, upper_r) = (diag.clone(), warm.matrix.upper.clone());
    let (returned, _) = count_allocs(|| SymBlockMatrix::new(diag_r, upper_r.clone()));

    let inputs = (diag.clone(), rhs.clone());
    let (n_allocs, asm) = count_allocs(|| {
        acache.begin_step(&sys, &contacts);
        assemble(&mut acache, inputs.0, inputs.1)
    });
    assert_eq!(
        n_allocs, returned,
        "a warmed rebind + assembly allocated beyond the system it returns"
    );
    assert_eq!(asm.matrix.upper, warm.matrix.upper);
    let st = acache.stats();
    assert_eq!((st.plan_rebuilds, st.plan_hits), (1, 2));
}
