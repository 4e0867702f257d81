//! Immutable, read-only view of a completed round — the one view type every
//! backend serves.
//!
//! The defining property of the AMPC model is that "the contents of `D_{i-1}`
//! do not change within round `i`" (Section 2.1, fault tolerance), and the
//! model's machines read it from *one* abstract store — nothing depends on
//! how many processes serve it.  A [`Snapshot`] enforces both in the type
//! system: it can only be read, and it is the same type whether the epoch
//! was frozen in place by [`crate::ShardedStore`], shared by in-process
//! owner threads, or rebuilt from the frames of N owners behind sockets
//! (threads of this process or owner processes alike).  Reads
//! are lock-free (the underlying maps are never mutated) and still counted
//! per shard so the query-contention behaviour of the model can be observed.
//!
//! # Layout
//!
//! A snapshot is a cheap-clone handle over one [`FrozenEpoch`] per owner
//! group plus a `shard → (group, local shard)` table.  The local store is
//! the one-group case (`table[s] = (0, s)`); the channel backend's groups
//! are the owners' own `Arc`s (zero-copy publication); the TCP and cluster
//! backends hold replicas decoded from the owners' epoch payloads.  A
//! lookup is one hash, one modulo and one table index, whatever produced
//! the groups.
//!
//! A [`FrozenEpoch`] crosses a wire in one pass each way: the owner's
//! frozen maps are walked in place into bytes ([`FrozenEpoch::walk`] feeds
//! the writer in [`crate::proto`]), and the client fills shard maps
//! directly from those bytes (the [`EpochSink`] impl below) — singletons
//! inline, a heap list only for a multi-value key, nothing allocated per
//! key in between.
//!
//! The frozen maps store [`crate::slot::Slot`] entries: the ~99% of keys
//! that hold a single value keep it **inline in the hash-map entry**, so a
//! point lookup is one hash probe with no pointer chase and no per-key heap
//! allocation; only multi-value keys reference a shrunk-to-fit
//! `Vec<Value>`.  The maps are the write-side shard maps themselves, frozen
//! **in place** at epoch advance (see [`crate::ShardedStore::freeze`]) — no
//! rebuild, no copy.

use crate::backend::SnapshotView;
use crate::key::{Key, Value};
use crate::proto::{EpochSink, ProtoError};
use crate::slot::{Slot, SlotMap};
use crate::stats::ShardLoad;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One frozen epoch of one owner's shard group — *the* frozen-epoch
/// representation.
///
/// The maps are immutable once published; the read counters are atomics so
/// concurrent machine threads and the accounting agree without locks.  On
/// shared-memory transports the owner and every view hold the *same*
/// allocation; on wire transports each view holds a replica decoded from
/// the owner's epoch payload.
pub struct FrozenEpoch {
    /// `shards[local]` — frozen map of the group's `local`-th shard.
    pub(crate) shards: Vec<SlotMap>,
    /// Writes that built each shard.
    pub(crate) writes: Vec<u64>,
    /// Reads served per shard since the epoch froze.
    pub(crate) reads: Vec<AtomicU64>,
}

impl FrozenEpoch {
    /// A freshly frozen group: `writes[local]` built `shards[local]`, no
    /// reads served yet.
    pub(crate) fn new(shards: Vec<SlotMap>, writes: Vec<u64>) -> FrozenEpoch {
        debug_assert_eq!(shards.len(), writes.len());
        let reads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        FrozenEpoch {
            shards,
            writes,
            reads,
        }
    }

    /// The epoch as the wire encoder walks it, in place: per shard, the
    /// writes that built it and every `(key, values)` entry of its map.
    pub(crate) fn walk(
        &self,
    ) -> impl ExactSizeIterator<Item = (u64, impl ExactSizeIterator<Item = (&Key, &[Value])>)> {
        self.shards.iter().zip(&self.writes).map(|(map, &writes)| {
            let entries = map.iter();
            (writes, entries.map(|(key, slot)| (key, slot.as_slice())))
        })
    }
}

/// A replica filled straight from an owner's epoch payload.  The bytes come
/// from outside the process, so a shard refuses what no owner's map can
/// hold — an entry without values, a key twice — as a typed decode error
/// instead of letting it turn into a wrong read inside a machine thread.
impl EpochSink for FrozenEpoch {
    type Shard = (u64, SlotMap);

    fn shard(writes: u64, entries: usize) -> Self::Shard {
        let mut map = SlotMap::default();
        map.reserve(entries);
        (writes, map)
    }

    fn entry(
        (_, map): &mut Self::Shard,
        key: Key,
        mut values: impl ExactSizeIterator<Item = Value>,
    ) -> Result<(), ProtoError> {
        let slot = match (values.len(), values.next()) {
            (1, Some(value)) => Slot::One(value),
            (_, Some(first)) => Slot::Many(std::iter::once(first).chain(values).collect()),
            (_, None) => {
                return Err(ProtoError::Malformed {
                    context: "epoch entry without values",
                })
            }
        };
        match map.insert(key, slot) {
            None => Ok(()),
            Some(_) => Err(ProtoError::Malformed {
                context: "epoch key repeated within a shard",
            }),
        }
    }

    fn finish(shards: Vec<Self::Shard>) -> FrozenEpoch {
        let (writes, maps) = shards.into_iter().unzip();
        FrozenEpoch::new(maps, writes)
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
    /// input is loaded): one group of empty maps, so every lookup misses
    /// through the ordinary read path and is counted like any other.
    pub fn empty(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Snapshot::single(FrozenEpoch::new(
            vec![SlotMap::default(); num_shards],
            vec![0; num_shards],
        ))
    }

    /// The frozen group and local shard index holding global `shard`.
    #[inline]
    fn place(&self, shard: usize) -> (&FrozenEpoch, usize) {
        let (group, local) = self.inner.table[shard];
        (&self.inner.groups[group as usize], local as usize)
    }

    /// The frozen group and local shard index responsible for `key`.
    #[inline]
    fn locate(&self, key: &Key) -> (&FrozenEpoch, usize) {
        self.place(key.shard(self.inner.table.len()))
    }

    /// Iterate over every `(key, values)` pair in the snapshot.
    ///
    /// This is *not* an AMPC-model operation (machines can only do point
    /// lookups); it exists for the driver side of algorithms — the part the
    /// paper implements "using standard MPC primitives" — and for tests.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[Value])> {
        self.inner
            .groups
            .iter()
            .flat_map(|group| &group.shards)
            .flat_map(|shard| shard.iter().map(|(k, slot)| (k, slot.as_slice())))
    }
}

/// The read surface, for every backend.  `get_many` and `stats` are the
/// trait's provided methods.
impl SnapshotView for Snapshot {
    fn num_shards(&self) -> usize {
        self.inner.table.len()
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let (epoch, local) = self.locate(key);
        epoch.reads[local].fetch_add(1, Ordering::Relaxed);
        epoch.shards[local].get(key).map(Slot::first)
    }

    fn get_indexed(&self, key: &Key, index: usize) -> Option<Value> {
        let (epoch, local) = self.locate(key);
        epoch.reads[local].fetch_add(1, Ordering::Relaxed);
        epoch.shards[local]
            .get(key)
            .and_then(|slot| slot.get(index))
    }

    fn get_all(&self, key: &Key) -> Vec<Value> {
        let (epoch, local) = self.locate(key);
        let values = epoch.shards[local]
            .get(key)
            .map(|slot| slot.as_slice().to_vec())
            .unwrap_or_default();
        epoch.reads[local].fetch_add(values.len().max(1) as u64, Ordering::Relaxed);
        values
    }

    fn multiplicity(&self, key: &Key) -> usize {
        let (epoch, local) = self.locate(key);
        epoch.reads[local].fetch_add(1, Ordering::Relaxed);
        epoch.shards[local].get(key).map_or(0, Slot::len)
    }

    fn len(&self) -> usize {
        self.inner
            .groups
            .iter()
            .flat_map(|group| &group.shards)
            .map(SlotMap::len)
            .sum()
    }

    /// This is the read path behind the runtime's batched adaptive reads: a
    /// real deployment would pipeline the batch over the network, and the
    /// simulation amortizes the per-query read accounting over the batch
    /// (one counter update per shard run instead of one per key).
    fn get_many_slice(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "output slice shorter than key batch"
        );
        // Coalesce read-counter updates over runs of same-shard keys; totals
        // are identical to per-key counting.
        let mut run_shard = usize::MAX;
        let mut run_len = 0u64;
        let (mut epoch, mut local) = self.place(0);
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            let shard = key.shard(self.inner.table.len());
            if shard != run_shard {
                if run_len > 0 {
                    epoch.reads[local].fetch_add(run_len, Ordering::Relaxed);
                }
                (epoch, local) = self.place(shard);
                run_shard = shard;
                run_len = 0;
            }
            run_len += 1;
            *slot = epoch.shards[local].get(key).map(Slot::first);
        }
        if run_len > 0 {
            epoch.reads[local].fetch_add(run_len, Ordering::Relaxed);
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
                    keys: epoch.shards[local].len() as u64,
                    writes: epoch.writes[local],
                    reads: epoch.reads[local].load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    fn entries(&self) -> Vec<(Key, Vec<Value>)> {
        self.iter()
            .map(|(key, values)| (*key, values.to_vec()))
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
    fn get_many_returns_per_key_results_and_counts_each_key() {
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let keys = [k(1), k(999), k(3), k(2), k(2)];
        let mut out = Vec::new();
        snap.get_many(&keys, &mut out);
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
    fn get_many_matches_individual_gets() {
        let snap = snapshot_with(&(0..500).map(|i| (i, i * 3)).collect::<Vec<_>>());
        let keys: Vec<Key> = (0..1_000u64).map(k).collect();
        let mut batched = Vec::new();
        snap.get_many(&keys, &mut batched);
        let individual: Vec<Option<Value>> = keys.iter().map(|key| snap.get(key)).collect();
        assert_eq!(batched, individual);
        // Both passes counted every key once.
        assert_eq!(snap.total_reads(), 2_000);
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
        let snap = snapshot_with(&[(1, 10), (2, 20), (3, 30)]);
        let mut seen: Vec<u64> = snap.iter().map(|(key, _)| key.a).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
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
        let (mut lhs, mut rhs) = (Vec::new(), Vec::new());
        whole.get_many(&keys, &mut lhs);
        split.get_many(&keys, &mut rhs);
        assert_eq!(lhs, rhs);
        for key in &keys {
            assert_eq!(split.get_all(key), whole.get_all(key));
        }
        assert_eq!(split.shard_loads(), whole.shard_loads());
    }
}
