//! An allocation counter behind the system allocator.
//!
//! Only the traced binary installs [`Counting`] as its global allocator,
//! so end-to-end runs never pay for the counter; everywhere else
//! [`allocations`] reads `None`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Plain statistics: they publish no other data, so `Relaxed` is enough.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The system allocator, counting calls to `alloc` and `realloc`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        INSTALLED.store(true, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far, or `None` when the counter is not installed.
pub fn allocations() -> Option<u64> {
    INSTALLED
        .load(Ordering::Relaxed)
        .then(|| ALLOCATIONS.load(Ordering::Relaxed))
}
