//! A counting global allocator, read only inside single-threaded sections.
//!
//! The counter is process-global, so a reading is attributable to one code
//! path only while no other thread runs: [`count_single_threaded`] checks
//! `/proc/self/status` before and after and refuses the reading otherwise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::util::thread_count;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, which is
        // passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, which is
        // passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, which is
        // passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, which is
        // passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the heap allocations it made, or
/// `None` for the count when another thread was alive before or after `f`
/// (its allocations would have been counted too).
pub fn count_single_threaded<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let alone_before = thread_count() == 1;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let alone_after = thread_count() == 1;
    (value, (alone_before && alone_after).then(|| after - before))
}
