//! Pins the rule of `for_each_part_parallel`: a thread that lives for one
//! freeze allocates nothing past its own start-up, because the calling
//! thread sizes every buffer such a thread fills — checked with the
//! process-wide and per-thread counters of the `counting_alloc/` shim.

use ampc_dds::{Key, KeyTag, ShardedStore, Value};

mod counting_alloc;
use counting_alloc::{allocated_bytes, process_allocated_bytes};

const SHARDS: usize = 64;
const PAIRS: u64 = 1 << 18;
const THREADS: usize = 4;

/// Bytes a scoped worker's start-up may ask for on the worker itself.
/// Measured: 0 (Linux x86-64, glibc; the spawning thread allocates each
/// worker's record).  Workers that allocate their shards' laid-out pairs
/// ask for ≈ 7.9 MB here.
const PER_WORKER: u64 = 4 * 1024;

#[test]
fn freeze_workers_fill_buffers_the_caller_sized() {
    let store = ShardedStore::new(SHARDS);
    // Keys land in commit order, which is not their layout order: every
    // shard is laid out by the counting sort, into a buffer of its size.
    store.write_batch((0..PAIRS).map(|i| (Key::of(KeyTag::Scalar, i), Value::scalar(i))));
    let (process, caller) = (process_allocated_bytes(), allocated_bytes());
    let snapshot = store.freeze_with_threads(THREADS);
    let caller = allocated_bytes() - caller;
    let workers = process_allocated_bytes() - process - caller;
    assert!(
        workers <= (THREADS as u64 - 1) * PER_WORKER,
        "{} freeze workers asked for {workers} bytes",
        THREADS - 1
    );
    let pairs = PAIRS * std::mem::size_of::<(Key, Value)>() as u64;
    assert!(
        caller >= pairs,
        "the caller asked for {caller} bytes, less than the {pairs} of the epoch's pairs"
    );
    assert_eq!(snapshot.len(), PAIRS as usize);
}
