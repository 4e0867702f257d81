//! A counting `#[global_allocator]` shim: what the calling thread, and the
//! whole process, asked the allocator for, checkable without external
//! tooling.  Shared by `framing_alloc.rs` (zero allocations on the
//! steady-state wire path), `worker_alloc.rs` (freeze workers fill buffers
//! the caller sized), the crate's own unit tests (`proto.rs`: no decoder
//! allocates past a fixed multiple of the bytes it was handed) and
//! `ampc-algorithms`' `machine_alloc.rs` (a round's machines hand back one
//! buffer each, not a list per start).

#![allow(dead_code, reason = "each test binary reads the counter it needs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // Const-initialized so reading a counter never itself allocates
    // (a lazily initialized thread-local would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocator calls every thread of the process has made, and the bytes
/// they asked for.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

/// Passes every call through to the system allocator, counting the ones
/// that hand out (or regrow) memory on this thread, and the bytes they
/// asked for (a regrow counts its whole new size), on this thread and in
/// the process.
struct CountingAllocator;

fn count(bytes: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    ALLOCATED_BYTES.with(|total| total.set(total.get() + bytes as u64));
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    PROCESS_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
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

/// Allocator calls every thread of the process has made so far.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes every thread of the process has asked the allocator for so far.
pub fn process_allocated_bytes() -> u64 {
    PROCESS_BYTES.load(Ordering::Relaxed)
}
