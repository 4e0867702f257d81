//! The writable, sharded store for the *current* round.
//!
//! In round *i* every machine may issue up to `O(S)` writes; each write is a
//! constant-size key-value pair destined for `D_i`.  The paper assumes the
//! DDS is "handled by P machines, each having O(S) space" with key-value
//! pairs "randomly and independently assigned to the machines handling the
//! DDS" (Section 2.1).  [`ShardedStore`] models those DDS machines as
//! `num_shards` hash-addressed shards, each protected by its own lock and
//! each counting the traffic it served, so the load-balance claims of
//! Lemma 2.1 can be measured rather than assumed.
//!
//! # Commit paths
//!
//! A writable shard is its pairs in commit order (`slot`): a commit
//! neither hashes nor looks up a key, and the grouping by key waits for
//! [`ShardedStore::freeze`].  Three write paths, all ending in one append:
//!
//! * [`ShardedStore::write`] — one key-value pair, one shard-lock
//!   acquisition.  The right tool for ad-hoc writes.
//! * [`ShardedStore::write_batch`] — groups the batch by destination shard
//!   and takes each shard lock **once per batch** instead of once per pair.
//! * [`ShardedStore::commit_partitioned`] — takes batches already
//!   partitioned by shard; an empty shard takes its bucket as it is, so the
//!   end-of-round commit of the AMPC runtime moves one buffer per shard.
//!
//! Every path that groups pairs by shard — these, the runtime's
//! end-of-round commit ([`crate::LocalBackend`]'s `commit_round`) and the wire
//! client's ([`crate::RemoteBackend::try_commit_round`]) — goes through one
//! partition function.  It splits the round's pairs, not its batches, into
//! up to `threads` contiguous ranges, so a scatter's single batch is
//! bucketed as parallel as a round of many machines, and it allocates every
//! shard's bucket once, at its exact size.
//!
//! All paths preserve per-key value order: values arrive in batch order, and
//! because a key lives on exactly one shard, per-shard order fully
//! determines the multi-value indices of Section 2 of the paper.

use crate::key::{Key, Value};
use crate::slot::{append, Pairs, UNFILLED};
use crate::snapshot::{FrozenEpoch, Snapshot};
use parking_lot::Mutex;
use std::ops::Range;

/// The writable key-value store backing one AMPC round.
///
/// Multi-value semantics follow Section 2 of the paper: if `k > 1` pairs are
/// written under the same key `x`, the individual values are addressable as
/// `(x, 1), …, (x, k)` — once the store is frozen, via
/// [`crate::Snapshot::get_indexed`] — with the indices assigned in
/// commit order.  The writable store answers no reads: the model forbids
/// reading `D_i` in round *i*.
pub struct ShardedStore {
    /// One writable shard per DDS machine ([`crate::slot`]).
    shards: Vec<Mutex<Pairs>>,
    num_shards: usize,
}

impl ShardedStore {
    /// Create a store with `num_shards` shards (at least 1).
    pub fn new(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        ShardedStore {
            shards: (0..num_shards).map(|_| Mutex::new(Vec::new())).collect(),
            num_shards,
        }
    }

    /// Number of shards ("DDS machines").
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard (DDS machine) responsible for `key` — a pure function of
    /// the key, as the model's contention analysis requires.
    #[inline]
    pub fn shard_of(&self, key: &Key) -> usize {
        key.shard(self.num_shards)
    }

    /// Append `value` under `key`.
    ///
    /// Writing the same key repeatedly builds up the multi-value list; the
    /// commit order of a single writer is preserved.
    pub fn write(&self, key: Key, value: Value) {
        self.shards[self.shard_of(&key)].lock().push((key, value));
    }

    /// Write a batch of pairs, preserving their order.
    ///
    /// The batch is grouped by destination shard first, so each shard lock
    /// is taken once per batch rather than once per pair.
    pub fn write_batch(&self, pairs: impl IntoIterator<Item = (Key, Value)>) {
        self.commit_partitioned(self.partition_writes(std::iter::once(pairs)));
    }

    /// Partition write batches by destination shard on the calling thread,
    /// preserving order (`partition_by_shard` at this store's shard
    /// count).  `Vec` batches are taken as they are; any other batch is
    /// collected into one first.
    pub fn partition_writes(
        &self,
        batches: impl IntoIterator<Item = impl IntoIterator<Item = (Key, Value)>>,
    ) -> Vec<Vec<(Key, Value)>> {
        let batches: Vec<Vec<(Key, Value)>> = batches
            .into_iter()
            .map(|batch| batch.into_iter().collect())
            .collect();
        partition_by_shard(self.num_shards, &batches, 1)
    }

    /// [`ShardedStore::partition_writes`] on up to `threads` workers
    /// (`partition_by_shard`), as one chunk for
    /// [`ShardedStore::commit_chunked`]; kept for the benchmark's store
    /// probe.
    pub fn partition_writes_parallel(
        &self,
        batches: Vec<Vec<(Key, Value)>>,
        threads: usize,
    ) -> Vec<Vec<Vec<(Key, Value)>>> {
        vec![partition_by_shard(self.num_shards, &batches, threads)]
    }

    /// Commit chunks of per-shard buckets, such as
    /// [`ShardedStore::partition_writes_parallel`]'s: each shard appends
    /// its bucket from every chunk, in chunk order, under one lock.  A
    /// commit is a move or a copy per shard, on the calling thread;
    /// `_threads` is the partition's worker cap, which the benchmark's
    /// store probe passes here too.
    pub fn commit_chunked(&self, chunks: Vec<Vec<Vec<(Key, Value)>>>, _threads: usize) {
        for chunk in chunks {
            self.commit_partitioned(chunk);
        }
    }

    /// Commit shard-partitioned batches, locking each shard exactly once:
    /// an empty shard takes its bucket as it is, any other appends it.
    ///
    /// `per_shard[s]` must contain only keys whose [`ShardedStore::shard_of`]
    /// is `s` (as produced by [`ShardedStore::partition_writes`]); this is
    /// debug-asserted.
    pub fn commit_partitioned(&self, per_shard: Vec<Vec<(Key, Value)>>) {
        assert_eq!(
            per_shard.len(),
            self.num_shards,
            "one batch per shard required"
        );
        for (shard_idx, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            debug_assert!(batch.iter().all(|(key, _)| self.shard_of(key) == shard_idx));
            append(&mut self.shards[shard_idx].lock(), batch);
        }
    }

    /// Total number of writes accepted so far.
    pub fn total_writes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len() as u64).sum()
    }

    /// Freeze the store into an immutable [`Snapshot`] readable by the next
    /// round, consuming the writable store.
    ///
    /// Each shard's pairs are grouped by key in one stable counting sort
    /// (`slot`); shards are frozen in parallel on up to one worker
    /// per available CPU.
    pub fn freeze(self) -> Snapshot {
        self.freeze_with_threads(default_parallelism())
    }

    /// [`ShardedStore::freeze`] with an explicit worker-thread cap.
    pub fn freeze_with_threads(self, threads: usize) -> Snapshot {
        let shards: Vec<Pairs> = self.shards.into_iter().map(Mutex::into_inner).collect();
        let total_pairs: usize = shards.iter().map(Vec::len).sum();
        // Below this size the scoped-thread setup costs more than the
        // sort.
        const PARALLEL_FREEZE_THRESHOLD: usize = 8 * 1024;
        let threads = if total_pairs < PARALLEL_FREEZE_THRESHOLD {
            1
        } else {
            threads
        };
        Snapshot::single(FrozenEpoch::freeze(shards, threads))
    }
}

/// Fewest pairs worth a partition worker of their own: below this, a
/// worker's thread setup and its pass over the shards cost more than the
/// bucketing it takes off the others (the parallel pass measured *slower*
/// than the serial one, `partition_speedup` 0.96–1.00 at 4–8 shards, in
/// the recorded bench trajectory).
const MIN_PAIRS_PER_WORKER: usize = 16 * 1024;

/// The contiguous ranges of a round's concatenated pairs that the partition
/// workers take, in order: `threads` near-equal ranges, fewer if that would
/// leave a worker with under [`MIN_PAIRS_PER_WORKER`] pairs, and none for
/// no pairs.  A range may cross batch boundaries.
fn pair_ranges(total_pairs: usize, threads: usize) -> Vec<Range<usize>> {
    if total_pairs == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, (total_pairs / MIN_PAIRS_PER_WORKER).max(1));
    (0..workers)
        .map(|w| w * total_pairs / workers..(w + 1) * total_pairs / workers)
        .collect()
}

/// The pieces of `batches` that hold pairs `range` of their concatenation,
/// in order.
fn segments(
    batches: &[Vec<(Key, Value)>],
    range: Range<usize>,
) -> impl Iterator<Item = &[(Key, Value)]> {
    let mut offset = 0;
    batches.iter().filter_map(move |batch| {
        let start = offset;
        offset += batch.len();
        let piece = range.start.max(start)..range.end.min(offset);
        (!piece.is_empty()).then(|| &batch[piece.start - start..piece.end - start])
    })
}

/// Partition write batches into one bucket per shard of a
/// `num_shards`-shard store, on up to `threads` workers — the one partition
/// function of every commit path, in-process store and wire client alike.
///
/// Within every shard the pairs keep their concatenation order (for the
/// runtime: machine id, then write order) — which, keys living on exactly
/// one shard, preserves every key's multi-value index order — and the
/// buckets are identical whatever `threads` is:
///
/// 1. the concatenated pairs are split into [`pair_ranges`], one per
///    worker;
/// 2. each worker records the shard of every pair in its range, once, and
///    counts its pairs per shard;
/// 3. the calling thread allocates every shard's bucket at its exact size,
///    the workers initialise the buckets (a run of shards each), and the
///    calling thread cuts each bucket into one sub-slice per worker, in
///    worker order, each the size of that worker's count;
/// 4. each worker copies its pairs into its own sub-slices.
///
/// Worker order is concatenation order, so step 4 lays each bucket out
/// exactly as one pass in order would — which is what one worker does
/// instead of steps 3–4: it pushes every pair onto its exact-size bucket.
pub(crate) fn partition_by_shard(
    num_shards: usize,
    batches: &[Vec<(Key, Value)>],
    threads: usize,
) -> Vec<Vec<(Key, Value)>> {
    let total_pairs = batches.iter().map(Vec::len).sum();
    let ranges = pair_ranges(total_pairs, threads);

    // Counting pass.  Shard ids fit in `u32`: a store of 2³² shards would
    // be hundreds of gigabytes of empty shard tables.
    let mut shard_ids = vec![0u32; total_pairs];
    let mut counts = vec![vec![0usize; num_shards]; ranges.len()];
    let mut counting = Vec::with_capacity(ranges.len());
    let mut unclaimed = shard_ids.as_mut_slice();
    for (range, count) in ranges.iter().zip(&mut counts) {
        let (ids, rest) = std::mem::take(&mut unclaimed).split_at_mut(range.len());
        unclaimed = rest;
        counting.push((range.clone(), ids, count));
    }
    for_each_part_parallel(counting, |(range, ids, count)| {
        let mut ids = ids.iter_mut();
        for segment in segments(batches, range) {
            for ((key, _), id) in segment.iter().zip(&mut ids) {
                let shard = key.shard(num_shards);
                *id = shard as u32;
                count[shard] += 1;
            }
        }
    });

    let sizes: Vec<usize> = (0..num_shards)
        .map(|shard| counts.iter().map(|count| count[shard]).sum())
        .collect();
    let mut buckets: Vec<Vec<(Key, Value)>> =
        sizes.iter().map(|&size| Vec::with_capacity(size)).collect();
    let shard_ids = shard_ids.as_slice();
    // One worker has no sub-slices to cut, so its buckets need no
    // initialising first (initialise-then-fill took about a third longer on
    // one thread, 1 Mi pairs at 1024 shards), and an exact-size bucket
    // never grows.
    if ranges.len() <= 1 {
        let mut ids = shard_ids.iter();
        for batch in batches {
            for (&pair, &shard) in batch.iter().zip(&mut ids) {
                buckets[shard as usize].push(pair);
            }
        }
        return buckets;
    }

    // The sub-slices must be initialised, and the first write to a fresh
    // page faults it in: the workers do that, a contiguous run of shards
    // each, inside the capacity the calling thread allocated.
    let run = num_shards.div_ceil(ranges.len());
    let sizing = buckets.chunks_mut(run).zip(sizes.chunks(run)).collect();
    for_each_part_parallel(sizing, |(buckets, sizes)| {
        for (bucket, &size) in buckets.iter_mut().zip(sizes) {
            bucket.resize(size, UNFILLED);
        }
    });
    let mut cursors: Vec<Vec<std::slice::IterMut<'_, (Key, Value)>>> = counts
        .iter()
        .map(|_| Vec::with_capacity(num_shards))
        .collect();
    for (shard, bucket) in buckets.iter_mut().enumerate() {
        let mut unclaimed = bucket.as_mut_slice();
        for (cursor, count) in cursors.iter_mut().zip(&counts) {
            let (slots, rest) = std::mem::take(&mut unclaimed).split_at_mut(count[shard]);
            unclaimed = rest;
            cursor.push(slots.iter_mut());
        }
    }

    // Fill pass: into slots the calling thread allocated, as a worker's
    // must be (see `for_each_part_parallel`).
    let filling = ranges.into_iter().zip(cursors).collect();
    for_each_part_parallel(filling, |(range, mut cursor)| {
        let mut ids = shard_ids[range.clone()].iter();
        for segment in segments(batches, range) {
            for (&pair, &shard) in segment.iter().zip(&mut ids) {
                if let Some(slot) = cursor[shard as usize].next() {
                    *slot = pair;
                }
            }
        }
    });
    buckets
}

/// Run `work` on every part, the last on the calling thread and each other
/// on a scoped thread of its own; one part runs with no thread setup.
///
/// The work of a part on a thread of its own must not allocate: the calling
/// thread sizes every buffer such a part fills, and the work stays inside
/// their capacity.  The first allocation on a thread attaches a glibc malloc
/// arena to it, and what a thread of one call allocates there keeps that
/// arena's pages after the calling thread frees it (workers that grew their
/// own buckets read `conn-local` peak RSS 200 → 260 MiB).
pub(crate) fn for_each_part_parallel<T: Send>(mut parts: Vec<T>, work: impl Fn(T) + Sync) {
    let Some(last) = parts.pop() else {
        return;
    };
    if parts.is_empty() {
        return work(last);
    }
    let work = &work;
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || work(part));
        }
        work(last);
    });
}

/// Worker threads available to this process, resolving to 1 when the
/// platform cannot say.
///
/// The single source of truth for CPU-count fallbacks across the workspace
/// (runtime thread resolution, freeze parallelism, bench defaults).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("num_shards", &self.num_shards)
            .field("total_writes", &self.total_writes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;
    use std::sync::Arc;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    /// Everything `store` holds, read back through a freeze, by key.
    fn contents(store: ShardedStore) -> Vec<(Key, Vec<Value>)> {
        let mut entries = store.freeze().entries();
        entries.sort_unstable_by_key(|(key, _)| *key);
        entries
    }

    #[test]
    fn written_values_are_read_through_the_freeze() {
        let store = ShardedStore::new(8);
        store.write(k(1), Value::scalar(42));
        for i in 0..5u64 {
            store.write(k(7), Value::scalar(i * 10));
        }
        assert_eq!(store.total_writes(), 6);
        let snap = store.freeze();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get(&k(1)), Some(Value::scalar(42)));
        assert_eq!(snap.get(&k(2)), None);
        assert_eq!(snap.multiplicity(&k(7)), 5);
        for i in 0..5usize {
            assert_eq!(
                snap.get_indexed(&k(7), i),
                Some(Value::scalar(i as u64 * 10))
            );
        }
        assert_eq!(snap.get_indexed(&k(7), 5), None);
        // `get` returns the first value, matching the model's (x, 1) query.
        assert_eq!(snap.get(&k(7)), Some(Value::scalar(0)));
        assert_eq!(snap.multiplicity(&k(999)), 0);
        assert_eq!(snap.get_indexed(&k(999), 0), None);
    }

    #[test]
    fn write_counts_are_tracked_per_shard() {
        let store = ShardedStore::new(4);
        for i in 0..100u64 {
            store.write(k(i % 60), Value::scalar(i));
        }
        assert_eq!(store.total_writes(), 100);
        let loads = store.freeze().shard_loads();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().map(|l| l.writes).sum::<u64>(), 100);
        assert_eq!(loads.iter().map(|l| l.keys).sum::<u64>(), 60);
        assert!(loads.iter().all(|l| l.reads == 0));
    }

    #[test]
    fn parallel_freeze_equals_serial_freeze() {
        let build = || {
            let store = ShardedStore::new(16);
            for i in 0..20_000u64 {
                store.write(k(i % 5_000), Value::scalar(i));
            }
            store
        };
        let serial = build().freeze_with_threads(1);
        let parallel = build().freeze_with_threads(8);
        assert_eq!(serial.len(), 5_000);
        // The frozen layout is canonical: the same walk, pair for pair.
        assert_eq!(serial.entries(), parallel.entries());
        assert_eq!(serial.shard_loads(), parallel.shard_loads());
    }

    #[test]
    fn batch_write_preserves_order() {
        let store = ShardedStore::new(2);
        store.write_batch((0..10u64).map(|i| (k(5), Value::scalar(i))));
        let values = (0..10u64).map(Value::scalar).collect();
        assert_eq!(contents(store), vec![(k(5), values)]);
    }

    #[test]
    fn partitioned_commit_matches_serial_writes() {
        let pairs: Vec<(Key, Value)> = (0..1_000u64)
            .map(|i| (k(i % 37), Value::scalar(i)))
            .collect();

        let serial = ShardedStore::new(8);
        for &(key, value) in &pairs {
            serial.write(key, value);
        }

        let parallel = ShardedStore::new(8);
        let per_shard = parallel.partition_writes(std::iter::once(pairs.clone()));
        parallel.commit_partitioned(per_shard);

        assert_eq!(serial.total_writes(), parallel.total_writes());
        assert_eq!(contents(serial), contents(parallel));
    }

    #[test]
    fn a_commit_moves_each_bucket_into_an_empty_shard() {
        let store = ShardedStore::new(4);
        let per_shard = store.partition_writes(std::iter::once(
            (0..100u64).map(|i| (k(i), Value::scalar(i))),
        ));
        let buffers: Vec<*const (Key, Value)> = per_shard.iter().map(|b| b.as_ptr()).collect();
        store.commit_partitioned(per_shard);
        for (shard, buffer) in store.shards.iter().zip(buffers) {
            assert_eq!(shard.lock().as_ptr(), buffer);
        }
        // A second commit appends behind the first, in order.
        store.write_batch([(k(0), Value::scalar(1_000))]);
        let snap = store.freeze();
        assert_eq!(
            snap.get_all(&k(0)),
            vec![Value::scalar(0), Value::scalar(1_000)]
        );
    }

    #[test]
    fn parallel_partition_pass_matches_serial_partition() {
        // Many machine batches with heavy key collisions: the chunked pass
        // must replay the exact (batch, write) order per key.  The workload
        // is large enough that the small-input fallback does not kick in.
        let batches: Vec<Vec<(Key, Value)>> = (0..64u64)
            .map(|machine| {
                (0..2_048u64)
                    .map(|i| {
                        (
                            k((machine * 2_048 + i) % 23),
                            Value::scalar(machine * 1_000_000 + i),
                        )
                    })
                    .collect()
            })
            .collect();

        let serial = ShardedStore::new(8);
        let per_shard = serial.partition_writes(batches.clone());
        serial.commit_partitioned(per_shard);
        let expected = contents(serial);

        for threads in [2, 4, 8] {
            let parallel = ShardedStore::new(8);
            let chunks = parallel.partition_writes_parallel(batches.clone(), threads);
            parallel.commit_chunked(chunks, threads);
            assert_eq!(parallel.total_writes(), 64 * 2_048);
            assert_eq!(contents(parallel), expected, "threads {threads}");
        }
    }

    #[test]
    fn pair_ranges_split_pairs_not_batches() {
        // One batch of 40 000 pairs (a scatter) at 2 threads: two workers.
        let ranges = pair_ranges(40_000, 2);
        assert_eq!(ranges, vec![0..20_000, 20_000..40_000]);
        // Fewer than two workers' worth of pairs: one range, at any cap.
        assert_eq!(
            pair_ranges(2 * MIN_PAIRS_PER_WORKER - 1, 8),
            vec![0..2 * MIN_PAIRS_PER_WORKER - 1]
        );
        // No pairs: no worker.
        assert!(pair_ranges(0, 4).is_empty());
        // Ranges tile the input in order, never more than the cap.
        for (total, threads) in [(100_000, 3), (65_536, 4), (1_000_000, 7)] {
            let ranges = pair_ranges(total, threads);
            assert!(ranges.len() <= threads);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[ranges.len() - 1].end, total);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(ranges.iter().all(|r| r.len() >= MIN_PAIRS_PER_WORKER));
        }
    }

    #[test]
    fn segments_cut_a_range_across_batch_boundaries() {
        let batches: Vec<Vec<(Key, Value)>> = [3u64, 0, 4, 2]
            .iter()
            .scan(0u64, |next, &len| {
                let batch = (*next..*next + len).map(|i| (k(i), Value::scalar(i)));
                *next += len;
                Some(batch.collect())
            })
            .collect();
        let values = |range| -> Vec<u64> {
            segments(&batches, range)
                .flatten()
                .map(|(_, value)| value.x)
                .collect()
        };
        assert_eq!(values(2..6), vec![2, 3, 4, 5]);
        assert_eq!(values(0..9), (0..9).collect::<Vec<_>>());
        assert_eq!(values(7..9), vec![7, 8]);
        assert!(values(3..3).is_empty());
    }

    #[test]
    fn parallel_partition_falls_back_to_serial_on_small_inputs() {
        let store = ShardedStore::new(8);
        // 64 batches but far too few pairs to pay for a second worker: one
        // range, however many batches carry the pairs.
        let batches: Vec<Vec<(Key, Value)>> = (0..64u64)
            .map(|machine| vec![(k(machine), Value::scalar(machine))])
            .collect();
        assert_eq!(pair_ranges(64, 8).len(), 1);
        let chunks = store.partition_writes_parallel(batches, 8);
        assert_eq!(chunks.len(), 1);
        store.commit_chunked(chunks, 8);
        assert_eq!(store.total_writes(), 64);
        // A single worker never splits, whatever the input size.
        assert_eq!(pair_ranges(4 * 10_000, 1), vec![0..40_000]);
    }

    #[test]
    fn parallel_partition_handles_degenerate_shapes() {
        let store = ShardedStore::new(4);
        // No batches at all, and batches with no pairs.
        let chunks = store.partition_writes_parallel(Vec::new(), 4);
        store.commit_chunked(chunks, 4);
        let chunks = store.partition_writes_parallel(vec![Vec::new(); 5], 4);
        assert!(chunks[0].iter().all(Vec::is_empty));
        store.commit_chunked(chunks, 4);
        assert_eq!(store.total_writes(), 0);
        // More threads than pairs.
        let chunks = store.partition_writes_parallel(vec![vec![(k(1), Value::scalar(1))]], 8);
        store.commit_chunked(chunks, 8);
        assert_eq!(store.total_writes(), 1);
        assert_eq!(contents(store), vec![(k(1), vec![Value::scalar(1)])]);
        // Worker ranges that start and end inside batches, with empty
        // batches between them: the buckets equal the one-worker pass.
        let batches: Vec<Vec<(Key, Value)>> = [30_001u64, 0, 17, 0, 45_000]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|i| (k(i % 101), Value::scalar(len + i)))
                    .collect()
            })
            .collect();
        let serial = partition_by_shard(4, &batches, 1);
        for threads in [2, 3, 4] {
            assert_eq!(pair_ranges(75_018, threads).len(), threads);
            assert_eq!(partition_by_shard(4, &batches, threads), serial);
        }
    }

    #[test]
    fn partition_writes_respects_batch_then_write_order() {
        let store = ShardedStore::new(4);
        // Two "machines" writing the same key: machine order must win.
        let batches = vec![
            vec![(k(9), Value::scalar(0)), (k(9), Value::scalar(1))],
            vec![(k(9), Value::scalar(2))],
        ];
        let per_shard = store.partition_writes(batches);
        store.commit_partitioned(per_shard);
        let values = (0..3u64).map(Value::scalar).collect();
        assert_eq!(contents(store), vec![(k(9), values)]);
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.num_shards(), 1);
        store.write(k(1), Value::scalar(1));
        assert_eq!(store.freeze().get(&k(1)), Some(Value::scalar(1)));
    }

    #[test]
    fn concurrent_writes_from_many_threads_all_land() {
        let store = Arc::new(ShardedStore::new(16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        store.write(k(t * 10_000 + i), Value::scalar(i));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(store.total_writes(), 8000);
        let store = Arc::try_unwrap(store).expect("every writer joined");
        assert_eq!(store.freeze().len(), 8000);
    }

    #[test]
    fn concurrent_partitioned_commits_from_many_threads_all_land() {
        let store = Arc::new(ShardedStore::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let pairs: Vec<(Key, Value)> = (0..1000u64)
                        .map(|i| (k(t * 10_000 + i), Value::scalar(i)))
                        .collect();
                    let per_shard = store.partition_writes(std::iter::once(pairs));
                    store.commit_partitioned(per_shard);
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(store.total_writes(), 4000);
        let store = Arc::try_unwrap(store).expect("every writer joined");
        assert_eq!(store.freeze().len(), 4000);
    }
}
