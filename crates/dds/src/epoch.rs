//! The chain of per-round stores `D_0, D_1, D_2, …`.
//!
//! Section 2 of the paper: "in the i-th round, each machine can read data
//! from `D_{i-1}` and write to `D_i`".  [`DdsChain`] owns the current
//! writable store and the frozen snapshots of all earlier rounds, and
//! enforces the read-previous / write-current discipline by construction:
//! callers can only obtain a [`Snapshot`] for a *completed* epoch.

use crate::backend::SnapshotView;
use crate::key::{Key, Value};
use crate::snapshot::Snapshot;
use crate::stats::StoreStats;
use crate::store::ShardedStore;

/// The sequence of distributed data stores produced by one AMPC execution.
pub struct DdsChain {
    num_shards: usize,
    /// Snapshots of completed epochs, `snapshots[i]` = `D_i`.
    snapshots: Vec<Snapshot>,
    /// The store currently accepting writes (`D_{current_epoch}`).
    current: ShardedStore,
}

impl DdsChain {
    /// Create a chain whose stores all use `num_shards` shards.
    ///
    /// The chain starts at epoch 0 with an empty writable `D_0`; the input of
    /// an algorithm is loaded by writing into it and calling
    /// [`DdsChain::advance`].
    pub fn new(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        DdsChain {
            num_shards,
            snapshots: Vec::new(),
            current: ShardedStore::new(num_shards),
        }
    }

    /// Number of shards used by every store in the chain.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Index of the epoch currently accepting writes.
    pub fn current_epoch(&self) -> usize {
        self.snapshots.len()
    }

    /// The writable store of the current epoch.
    pub fn current_store(&self) -> &ShardedStore {
        &self.current
    }

    /// Write a key-value pair into the current epoch's store.
    pub fn write(&mut self, key: Key, value: Value) {
        self.current.write(key, value);
    }

    /// Write a batch of pairs into the current epoch's store.
    ///
    /// The batch is grouped by destination shard, taking each shard lock
    /// once per batch (see [`ShardedStore::write_batch`]).
    pub fn write_batch(&mut self, pairs: impl IntoIterator<Item = (Key, Value)>) {
        self.current.write_batch(pairs);
    }

    /// Commit ordered write batches (for the runtime: one per machine, in
    /// machine-id order) into the current epoch's store, locking each shard
    /// once and committing distinct shards in parallel on up to `threads`
    /// workers.  Per-key multi-value index order is the concatenation order
    /// of the batches.
    ///
    /// Large rounds also run the *partition pass* in parallel
    /// ([`ShardedStore::partition_writes_parallel`]): each worker buckets a
    /// contiguous run of batches, and the commit consumes the runs in order,
    /// so the result is bit-identical to the single-threaded pass.
    pub fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize) {
        // Below this many pairs the scoped-thread setup of the parallel
        // partition costs more than the bucketing itself.
        const PARALLEL_PARTITION_THRESHOLD: usize = 4 * 1024;
        let total_pairs: usize = batches.iter().map(Vec::len).sum();
        if threads <= 1 || total_pairs < PARALLEL_PARTITION_THRESHOLD {
            let per_shard = self.current.partition_writes(batches);
            self.current.commit_partitioned(per_shard, threads);
        } else {
            let chunks = self.current.partition_writes_parallel(batches, threads);
            self.current.commit_chunked(chunks, threads);
        }
    }

    /// Freeze the current epoch **in place** and open the next one; the
    /// write-side shard maps become the snapshot's frozen maps without a
    /// rebuild, shrunk shard-parallel on up to one worker per available CPU.
    ///
    /// Returns the snapshot of the epoch that just completed; subsequent
    /// reads in the next round go against that snapshot.  Callers with a
    /// configured thread cap (the AMPC runtime) should use
    /// [`DdsChain::advance_with_threads`] instead.
    pub fn advance(&mut self) -> Snapshot {
        self.advance_with_threads(crate::default_parallelism())
    }

    /// [`DdsChain::advance`] with an explicit cap on the freeze workers,
    /// so embedders that limit runtime threads are not oversubscribed by
    /// the shard-parallel freeze.
    pub fn advance_with_threads(&mut self, threads: usize) -> Snapshot {
        let finished = std::mem::replace(&mut self.current, ShardedStore::new(self.num_shards));
        let snapshot = finished.freeze_with_threads(threads);
        self.snapshots.push(snapshot.clone());
        snapshot
    }

    /// Snapshot of a completed epoch `i` (i.e. `D_i`), if it exists.
    pub fn snapshot(&self, epoch: usize) -> Option<Snapshot> {
        self.snapshots.get(epoch).cloned()
    }

    /// Snapshot of the most recently completed epoch, if any.
    pub fn latest_snapshot(&self) -> Option<Snapshot> {
        self.snapshots.last().cloned()
    }

    /// Number of completed epochs.
    pub fn completed_epochs(&self) -> usize {
        self.snapshots.len()
    }

    /// Aggregate statistics of every completed epoch.
    pub fn epoch_stats(&self) -> Vec<StoreStats> {
        self.snapshots.iter().map(|s| s.stats()).collect()
    }

    /// Total writes across all epochs (completed and current).
    pub fn total_writes(&self) -> u64 {
        let completed: u64 = self.snapshots.iter().map(|s| s.stats().total_writes).sum();
        completed + self.current.total_writes()
    }

    /// Total reads served across all completed epochs.
    pub fn total_reads(&self) -> u64 {
        self.snapshots.iter().map(|s| s.total_reads()).sum()
    }
}

impl std::fmt::Debug for DdsChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DdsChain")
            .field("num_shards", &self.num_shards)
            .field("completed_epochs", &self.completed_epochs())
            .field("current_epoch", &self.current_epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    #[test]
    fn epochs_advance_and_freeze() {
        let mut chain = DdsChain::new(4);
        assert_eq!(chain.current_epoch(), 0);
        chain.write(k(1), Value::scalar(100));
        let d0 = chain.advance();
        assert_eq!(chain.current_epoch(), 1);
        assert_eq!(d0.get(&k(1)), Some(Value::scalar(100)));
        assert_eq!(
            chain.snapshot(0).unwrap().get(&k(1)),
            Some(Value::scalar(100))
        );
        assert!(chain.snapshot(1).is_none());
    }

    #[test]
    fn writes_go_to_current_epoch_only() {
        let mut chain = DdsChain::new(2);
        chain.write(k(1), Value::scalar(1));
        chain.advance();
        chain.write(k(2), Value::scalar(2));
        chain.advance();

        let d0 = chain.snapshot(0).unwrap();
        let d1 = chain.snapshot(1).unwrap();
        assert_eq!(d0.get(&k(1)), Some(Value::scalar(1)));
        assert_eq!(d0.get(&k(2)), None);
        assert_eq!(d1.get(&k(1)), None);
        assert_eq!(d1.get(&k(2)), Some(Value::scalar(2)));
    }

    #[test]
    fn latest_snapshot_tracks_most_recent_epoch() {
        let mut chain = DdsChain::new(2);
        assert!(chain.latest_snapshot().is_none());
        chain.write(k(5), Value::scalar(5));
        chain.advance();
        assert_eq!(
            chain.latest_snapshot().unwrap().get(&k(5)),
            Some(Value::scalar(5))
        );
        chain.write(k(6), Value::scalar(6));
        chain.advance();
        let latest = chain.latest_snapshot().unwrap();
        assert_eq!(latest.get(&k(6)), Some(Value::scalar(6)));
        assert_eq!(latest.get(&k(5)), None);
    }

    #[test]
    fn totals_accumulate_across_epochs() {
        let mut chain = DdsChain::new(2);
        chain.write_batch((0..10u64).map(|i| (k(i), Value::scalar(i))));
        let d0 = chain.advance();
        chain.write_batch((0..5u64).map(|i| (k(i), Value::scalar(i))));
        assert_eq!(chain.total_writes(), 15);
        let _ = d0.get(&k(0));
        let _ = d0.get(&k(1));
        assert_eq!(chain.total_reads(), 2);
        assert_eq!(chain.epoch_stats().len(), 1);
    }

    #[test]
    fn empty_advance_produces_empty_snapshot() {
        let mut chain = DdsChain::new(3);
        let snap = chain.advance();
        assert!(snap.is_empty());
        assert_eq!(chain.completed_epochs(), 1);
    }
}
