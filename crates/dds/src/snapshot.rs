//! Immutable, read-only view of a completed round — the one view type every
//! backend serves.
//!
//! The defining property of the AMPC model is that "the contents of `D_{i-1}`
//! do not change within round `i`" (Section 2.1, fault tolerance), and the
//! model's machines read it from *one* abstract store — nothing depends on
//! how many processes serve it.  A [`Snapshot`] enforces both in the type
//! system: it can only be read, and it is the same type whether the epoch
//! was frozen by [`crate::ShardedStore`], shared by in-process owner
//! threads, or rebuilt from the frames of N owners behind sockets (threads
//! of this process or owner processes alike).  Reads are lock-free (the
//! frozen shards are never mutated) and still counted per shard so the
//! query-contention behaviour of the model can be observed.
//!
//! # Layout
//!
//! A snapshot is a cheap-clone handle over one [`FrozenEpoch`] per owner
//! group plus a `shard → (group, local shard)` table.  The local store is
//! the one-group case (`table[s] = (0, s)`); the channel backend's groups
//! are the owners' own `Arc`s (zero-copy publication); the TCP and cluster
//! backends hold replicas decoded from the owners' epoch payloads.  A
//! lookup is one digest, one modulo and one table index, whatever produced
//! the groups.
//!
//! Each frozen shard is a [`crate::slot::Shard`]: its pairs grouped by key
//! and ordered by bucket, under a bucket directory.  A point lookup takes
//! the key's bucket from the directory, with the digest the shard pick
//! already computed, and scans the bucket's pairs — one pair on average,
//! each value inline beside its key, no per-key heap allocation,
//! multi-value keys included.  The shards are frozen from the write side's
//! pair lists at epoch advance (see [`crate::ShardedStore::freeze`]).
//!
//! A lookup thus waits on two cache misses in series, the directory word
//! and then the bucket it points at.  A batched read (`get_many_slice`)
//! does not: it locates a group of keys' buckets first and scans them
//! after, so the misses of independent keys are in flight together.
//!
//! A [`FrozenEpoch`] crosses a wire in one pass each way: the owner's
//! frozen shards are walked in place into bytes, in layout order
//! ([`FrozenEpoch::walk`] feeds the writer in [`crate::proto`]), and the
//! client appends the pairs straight from those bytes (the [`EpochSink`]
//! impl below) into a buffer sized exactly, freezing each shard as soon as
//! its entries are read.  Arriving in layout order, they freeze without a
//! copy: a replica shard's pairs and its directory are its only buffers.

use crate::backend::SnapshotView;
use crate::key::{shard_of, Key, Value};
use crate::proto::{EpochSink, ProtoError};
use crate::slot::{first_in, freeze_all, Pairs, Shard};
use crate::stats::ShardLoad;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Keys of a batched read whose cache misses are in flight together
/// ([`Snapshot`]'s `get_many_slice`).
const LANES: usize = 16;

/// One frozen epoch of one owner's shard group — *the* frozen-epoch
/// representation.
///
/// The shards are immutable once published; the read counters are atomics
/// so concurrent machine threads and the accounting agree without locks.
/// On shared-memory transports the owner and every view hold the *same*
/// allocation; on wire transports each view holds a replica decoded from
/// the owner's epoch payload.
pub struct FrozenEpoch {
    /// `shards[local]` — the group's `local`-th shard.
    pub(crate) shards: Vec<Shard>,
    /// Writes that built each shard.
    pub(crate) writes: Vec<u64>,
    /// Reads served per shard since the epoch froze.
    pub(crate) reads: Vec<AtomicU64>,
}

impl FrozenEpoch {
    /// A freshly frozen group: `writes[local]` built `shards[local]`, no
    /// reads served yet.
    pub(crate) fn new(shards: Vec<Shard>, writes: Vec<u64>) -> FrozenEpoch {
        debug_assert_eq!(shards.len(), writes.len());
        let reads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        FrozenEpoch {
            shards,
            writes,
            reads,
        }
    }

    /// Freeze a group's writable shards on up to `threads` threads; a
    /// shard's pairs are the writes that built it.
    pub(crate) fn freeze(shards: Vec<Pairs>, threads: usize) -> FrozenEpoch {
        let writes = shards.iter().map(|pairs| pairs.len() as u64).collect();
        FrozenEpoch::new(freeze_all(shards, threads), writes)
    }

    /// The epoch as the wire encoder walks it, in place: per shard, the
    /// writes that built it and every `(key, values)` entry, in layout
    /// order.
    pub(crate) fn walk(
        &self,
    ) -> impl ExactSizeIterator<
        Item = (
            u64,
            impl ExactSizeIterator<Item = (&Key, impl ExactSizeIterator<Item = &Value>)>,
        ),
    > {
        let shards = self.shards.iter().zip(&self.writes);
        shards.map(|(shard, &writes)| (writes, shard.entries()))
    }
}

/// One shard of a replica while its payload is read: the writes and the
/// entry count the payload announced, and the pairs so far.
pub(crate) struct Decoding {
    writes: u64,
    entries: usize,
    pairs: Pairs,
}

/// A replica filled straight from an owner's epoch payload, each shard
/// frozen as soon as its entries are read.  The bytes come from outside the
/// process, so a shard refuses what no owner's shard can hold — an entry
/// without values, a key twice (fewer distinct keys than entries, once
/// frozen) — as a typed decode error instead of letting it turn into a
/// wrong read inside a machine thread.
impl EpochSink for FrozenEpoch {
    type Shard = Decoding;

    fn with_shards(shards: usize) -> FrozenEpoch {
        FrozenEpoch {
            shards: Vec::with_capacity(shards),
            writes: Vec::with_capacity(shards),
            reads: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn shard(writes: u64, entries: usize, values: usize) -> Decoding {
        Decoding {
            writes,
            entries,
            pairs: Vec::with_capacity(values),
        }
    }

    fn entry(
        shard: &mut Decoding,
        key: Key,
        values: impl ExactSizeIterator<Item = Value>,
    ) -> Result<(), ProtoError> {
        if values.len() == 0 {
            return Err(ProtoError::Malformed {
                context: "epoch entry without values",
            });
        }
        shard.pairs.extend(values.map(|value| (key, value)));
        Ok(())
    }

    fn push(&mut self, shard: Decoding) -> Result<(), ProtoError> {
        let frozen = Shard::freeze(shard.pairs);
        if frozen.keys() < shard.entries {
            return Err(ProtoError::Malformed {
                context: "epoch key repeated within a shard",
            });
        }
        self.shards.push(frozen);
        self.writes.push(shard.writes);
        Ok(())
    }
}

/// A frozen round of the DDS: `D_{i-1}` as seen by machines in round `i`.
///
/// Cloning a snapshot is an `Arc` bump, which is how the runtime hands the
/// same read-only view to every machine thread; clones share the epoch data
/// and therefore the read accounting.  Every operation resolves locally
/// against the frozen groups, with no transport traffic, so a snapshot stays
/// valid — and its reads byte-identical — for as long as the caller keeps
/// it, even after the backend (and its owners) are gone.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<Inner>,
}

struct Inner {
    /// The epoch's frozen data, one entry per owner group.
    groups: Vec<Arc<FrozenEpoch>>,
    /// `table[shard]` — (group, local shard index) holding global `shard`.
    table: Vec<(u32, u32)>,
}

impl Snapshot {
    /// View of one epoch: `table[shard] = (group, local)` places every
    /// global shard inside `groups`.
    pub(crate) fn new(groups: Vec<Arc<FrozenEpoch>>, table: Vec<(u32, u32)>) -> Snapshot {
        assert!(!table.is_empty(), "a snapshot has at least one shard");
        debug_assert!(table.iter().all(|&(group, local)| {
            groups
                .get(group as usize)
                .is_some_and(|epoch| (local as usize) < epoch.shards.len())
        }));
        Snapshot {
            inner: Arc::new(Inner { groups, table }),
        }
    }

    /// The one-group view: `epoch.shards[s]` is global shard `s`.
    pub(crate) fn single(epoch: FrozenEpoch) -> Snapshot {
        let table = (0..epoch.shards.len() as u32).map(|s| (0, s)).collect();
        Snapshot::new(vec![Arc::new(epoch)], table)
    }

    /// An empty snapshot with `num_shards` shards (`D_{-1}`, before any
    /// input is loaded): one group of empty shards, so every lookup misses
    /// through the ordinary read path and is counted like any other.
    pub fn empty(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Snapshot::single(FrozenEpoch::new(
            vec![Shard::default(); num_shards],
            vec![0; num_shards],
        ))
    }

    /// The frozen group and local shard index holding global `shard`.
    #[inline]
    fn place(&self, shard: usize) -> (&FrozenEpoch, usize) {
        let (group, local) = self.inner.table[shard];
        (&self.inner.groups[group as usize], local as usize)
    }

    /// The frozen shard responsible for `key` and its read counter, and the
    /// key's digest — computed once, for the shard pick and the shard's
    /// bucket.
    #[inline]
    fn locate(&self, key: &Key) -> (&Shard, &AtomicU64, u64) {
        let digest = key.digest();
        let (epoch, local) = self.place(shard_of(digest, self.inner.table.len()));
        (&epoch.shards[local], &epoch.reads[local], digest)
    }

    /// Iterate over every key in the snapshot, each with its values in
    /// commit order.
    ///
    /// This is *not* an AMPC-model operation (machines can only do point
    /// lookups); it exists for the driver side of algorithms — the part the
    /// paper implements "using standard MPC primitives" — and for tests.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, impl ExactSizeIterator<Item = &Value>)> {
        let shards = self.inner.groups.iter().flat_map(|group| &group.shards);
        shards.flat_map(|shard| shard.entries())
    }
}

/// The read surface, for every backend.  `stats` is the trait's provided
/// method.
impl SnapshotView for Snapshot {
    fn num_shards(&self) -> usize {
        self.inner.table.len()
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let (shard, reads, digest) = self.locate(key);
        reads.fetch_add(1, Ordering::Relaxed);
        shard.first(key, digest)
    }

    fn get_indexed(&self, key: &Key, index: usize) -> Option<Value> {
        let (shard, reads, digest) = self.locate(key);
        reads.fetch_add(1, Ordering::Relaxed);
        let run = shard.run(key, digest);
        run.get(index).map(|&(_, value)| value)
    }

    fn get_all(&self, key: &Key) -> Vec<Value> {
        let (shard, reads, digest) = self.locate(key);
        let run = shard.run(key, digest);
        reads.fetch_add(run.len().max(1) as u64, Ordering::Relaxed);
        run.iter().map(|&(_, value)| value).collect()
    }

    fn multiplicity(&self, key: &Key) -> usize {
        let (shard, reads, digest) = self.locate(key);
        reads.fetch_add(1, Ordering::Relaxed);
        shard.run(key, digest).len()
    }

    fn len(&self) -> usize {
        self.inner
            .groups
            .iter()
            .flat_map(|group| &group.shards)
            .map(Shard::keys)
            .sum()
    }

    /// This is the read path behind the runtime's batched adaptive reads: a
    /// real deployment would pipeline the batch over the network; here the
    /// batch overlaps its cache misses (module docs).  It goes [`LANES`]
    /// keys at a time in three passes: locate every key's bucket (the
    /// directory loads, in flight together), scan every bucket (the pair
    /// loads, likewise), then count — one counter update per run of
    /// same-shard keys, totals identical to per-key counting.
    fn get_many_slice(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "output slice shorter than key batch"
        );
        let num_shards = self.inner.table.len();
        let mut lanes: [(usize, &[(Key, Value)]); LANES] = [(0, &[]); LANES];
        for (keys, out) in keys.chunks(LANES).zip(out.chunks_mut(LANES)) {
            for (key, lane) in keys.iter().zip(&mut lanes) {
                let digest = key.digest();
                let shard = shard_of(digest, num_shards);
                let (epoch, local) = self.place(shard);
                *lane = (shard, epoch.shards[local].bucket_of(digest));
            }
            for ((key, &(_, bucket)), slot) in keys.iter().zip(&lanes).zip(out.iter_mut()) {
                *slot = first_in(bucket, key);
            }
            let lanes = &lanes[..keys.len()];
            for run in lanes.chunk_by(|(a, _), (b, _)| a == b) {
                let (epoch, local) = self.place(run[0].0);
                epoch.reads[local].fetch_add(run.len() as u64, Ordering::Relaxed);
            }
        }
    }

    fn total_reads(&self) -> u64 {
        self.inner
            .groups
            .iter()
            .flat_map(|group| &group.reads)
            .map(|reads| reads.load(Ordering::Relaxed))
            .sum()
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        (0..self.inner.table.len())
            .map(|shard| {
                let (epoch, local) = self.place(shard);
                ShardLoad {
                    shard,
                    keys: epoch.shards[local].keys() as u64,
                    writes: epoch.writes[local],
                    reads: epoch.reads[local].load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    fn entries(&self) -> Vec<(Key, Vec<Value>)> {
        self.iter()
            .map(|(key, values)| (*key, values.copied().collect()))
            .collect()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("num_shards", &self.num_shards())
            .field("groups", &self.inner.groups.len())
            .field("keys", &self.len())
            .field("total_reads", &self.total_reads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;
    use crate::store::ShardedStore;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn snapshot_with(pairs: &[(u64, u64)]) -> Snapshot {
        let store = ShardedStore::new(8);
        for &(key, val) in pairs {
            store.write(k(key), Value::scalar(val));
        }
        store.freeze()
    }

    #[test]
    fn empty_snapshot_has_no_keys() {
        let snap = Snapshot::empty(4);
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.get(&k(0)), None);
        assert_eq!(snap.num_shards(), 4);
    }

    #[test]
    fn reads_are_counted() {
        let snap = snapshot_with(&[(1, 10), (2, 20)]);
        assert_eq!(snap.total_reads(), 0);
        let _ = snap.get(&k(1));
        let _ = snap.get(&k(2));
        let _ = snap.get(&k(3)); // misses still count as queries
        assert_eq!(snap.total_reads(), 3);
    }

    #[test]
    fn get_many_slice_returns_per_key_results_and_counts_each_key() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let keys = [k(1), k(999), k(3), k(2), k(2)];
        let mut out = vec![None; keys.len()];
        snap.get_many_slice(&keys, &mut out);
        assert_eq!(
            out,
            vec![
                Some(Value::scalar(10)),
                None,
                Some(Value::scalar(30)),
                Some(Value::scalar(20)),
                Some(Value::scalar(20)),
            ]
        );
        assert_eq!(snap.total_reads(), 5);
    }

    #[test]
    fn get_many_slice_matches_individual_gets() {
        let snap = snapshot_with(&(0..500).map(|i| (i, i * 3)).collect::<Vec<_>>());
        let keys: Vec<Key> = (0..1_000u64).map(k).collect();
        let mut batched = vec![None; keys.len()];
        snap.get_many_slice(&keys, &mut batched);
        let individual: Vec<Option<Value>> = keys.iter().map(|key| snap.get(key)).collect();
        assert_eq!(batched, individual);
        // Both passes counted every key once.
        assert_eq!(snap.total_reads(), 2_000);
    }

    #[test]
    fn get_many_slice_counts_every_shard_like_point_reads() {
        // Batches around the lane width, of hits and misses, with a key
        // repeated back to back (one shard run) and keys of one shard apart.
        let pairs: Vec<(u64, u64)> = (0..300).map(|i| (i, i * 3)).collect();
        let (batched, point) = (snapshot_with(&pairs), snapshot_with(&pairs));
        let keys: Vec<Key> = (0..200u64)
            .map(|i| k(i * 7 % 450))
            .chain([k(5); 3])
            .collect();
        for len in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, keys.len()] {
            let keys = &keys[keys.len() - len..];
            let mut out = vec![None; len];
            batched.get_many_slice(keys, &mut out);
            let expected: Vec<Option<Value>> = keys.iter().map(|key| point.get(key)).collect();
            assert_eq!(out, expected, "{len} keys");
            assert_eq!(batched.shard_loads(), point.shard_loads(), "{len} keys");
        }
    }

    #[test]
    fn get_all_returns_every_value_in_order() {
        let store = ShardedStore::new(4);
        for i in 0..4u64 {
            store.write(k(9), Value::scalar(i));
        }
        let snap = store.freeze();
        let all = snap.get_all(&k(9));
        assert_eq!(
            all,
            vec![
                Value::scalar(0),
                Value::scalar(1),
                Value::scalar(2),
                Value::scalar(3)
            ]
        );
        assert_eq!(snap.get_all(&k(404)), Vec::<Value>::new());
    }

    #[test]
    fn snapshot_clone_shares_read_counters() {
        let snap = snapshot_with(&[(1, 1)]);
        let clone = snap.clone();
        let _ = clone.get(&k(1));
        assert_eq!(snap.total_reads(), 1);
    }

    #[test]
    fn iter_visits_all_keys() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30), (2, 21)]);
        let mut seen: Vec<(u64, Vec<u64>)> = snap
            .iter()
            .map(|(key, values)| (key.a, values.map(|value| value.x).collect()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, vec![10]), (2, vec![20, 21]), (3, vec![30])]);
    }

    #[test]
    fn shard_loads_cover_reads_and_writes() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let _ = snap.get(&k(1));
        let loads = snap.shard_loads();
        assert_eq!(loads.iter().map(|l| l.writes).sum::<u64>(), 3);
        assert_eq!(loads.iter().map(|l| l.reads).sum::<u64>(), 1);
        assert_eq!(loads.iter().map(|l| l.keys).sum::<u64>(), 3);
    }

    #[test]
    fn multi_group_views_read_like_one_store() {
        // The same pairs as one group and split over three interleaved
        // groups: every observable must agree.
        let pairs: Vec<(u64, u64)> = (0..300).map(|i| (i % 90, i)).collect();
        let whole = snapshot_with(&pairs);
        let frozen = &whole.inner.groups[0];
        let mut table = vec![(0, 0); frozen.shards.len()];
        let groups = (0..3usize)
            .map(|group| {
                let held = (group..frozen.shards.len()).step_by(3);
                for (local, shard) in held.clone().enumerate() {
                    table[shard] = (group as u32, local as u32);
                }
                Arc::new(FrozenEpoch::new(
                    held.clone().map(|s| frozen.shards[s].clone()).collect(),
                    held.map(|s| frozen.writes[s]).collect(),
                ))
            })
            .collect();
        let split = Snapshot::new(groups, table);
        assert_eq!(split.num_shards(), whole.num_shards());
        assert_eq!(split.len(), whole.len());
        let keys: Vec<Key> = (0..120u64).map(k).collect();
        let (mut lhs, mut rhs) = (vec![None; keys.len()], vec![None; keys.len()]);
        whole.get_many_slice(&keys, &mut lhs);
        split.get_many_slice(&keys, &mut rhs);
        assert_eq!(lhs, rhs);
        for key in &keys {
            assert_eq!(split.get_all(key), whole.get_all(key));
        }
        assert_eq!(split.shard_loads(), whole.shard_loads());
    }
}
