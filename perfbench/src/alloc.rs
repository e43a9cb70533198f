//! A counting global allocator: every heap byte a counted thread asks
//! for is added to one counter, so a workload can report heap bytes per
//! operation over its measured window. Every thread is counted (the
//! gateway's own included) unless it calls [`exclude_this_thread`], as
//! the open-loop generator's threads do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(true) };
}

fn count(bytes: usize) {
    if COUNTED.try_with(Cell::get).unwrap_or(true) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Forwards to the system allocator and counts requested bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged, so `System`'s guarantees carry over; the counter
// update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes requested so far by the counted threads.
pub fn allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Stops counting the calling thread's allocations, for good.
pub fn exclude_this_thread() {
    COUNTED.with(|c| c.set(false));
}
