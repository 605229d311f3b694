//! A counting global allocator for the steady-state allocation audits
//! (this crate's `alloc_free.rs` and `dda-solver`'s, which includes this
//! file by path): declaring the module installs it for the test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
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
