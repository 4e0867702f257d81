//! A counting `#[global_allocator]` shim: what the calling thread asked the
//! allocator for, checkable without external tooling.  Shared by
//! `framing_alloc.rs` (zero allocations on the steady-state wire path) and
//! the crate's own unit tests (`proto.rs`: no decoder allocates past a fixed
//! multiple of the bytes it was handed).

#![allow(dead_code, reason = "each test binary reads the counter it needs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized so reading a counter never itself allocates
    // (a lazily initialized thread-local would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Passes every call through to the system allocator, counting the ones
/// that hand out (or regrow) memory on this thread, and the bytes they
/// asked for (a regrow counts its whole new size).
struct CountingAllocator;

fn count(bytes: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    ALLOCATED_BYTES.with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only const-initialized
// thread-locals and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocator calls made by this thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

/// Bytes this thread has asked the allocator for so far.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(|total| total.get())
}
