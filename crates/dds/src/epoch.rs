//! The chain of per-round stores `D_0, D_1, D_2, …`.
//!
//! Section 2 of the paper: "in the i-th round, each machine can read data
//! from `D_{i-1}` and write to `D_i`".  [`DdsChain`] owns the current
//! writable store and the frozen snapshot of the round before it, and
//! enforces the read-previous / write-current discipline by construction:
//! callers can only obtain a [`Snapshot`] for a *completed* epoch.
//!
//! Round `i` reads `D_{i-1}` and nothing older, so completing `D_i`
//! *retires* `D_{i-1}`: the chain keeps its statistics and lets go of its
//! shards (a snapshot a caller still holds stays valid through its own
//! handle).  A run of any length holds one frozen epoch, not all of them.

use crate::backend::SnapshotView;
use crate::key::{Key, Value};
use crate::snapshot::Snapshot;
use crate::stats::StoreStats;
use crate::store::{partition_by_shard, ShardedStore};

/// The sequence of distributed data stores produced by one AMPC execution.
pub struct DdsChain {
    num_shards: usize,
    /// Statistics of the retired epochs as they stood at retirement,
    /// `retired[i]` = `D_i`'s.
    retired: Vec<StoreStats>,
    /// Snapshot of the newest completed epoch, `D_{retired.len()}`.
    latest: Option<Snapshot>,
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
            retired: Vec::new(),
            latest: None,
            current: ShardedStore::new(num_shards),
        }
    }

    /// Number of shards used by every store in the chain.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Index of the epoch currently accepting writes.
    pub fn current_epoch(&self) -> usize {
        self.completed_epochs()
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
    /// machine-id order) into the current epoch's store: each shard takes
    /// its bucket of the round's pairs, locking once.  Per-key multi-value
    /// index order is the concatenation order of the batches.
    ///
    /// The partition pass before the commit runs on up to `threads` workers,
    /// each taking a contiguous range of the round's pairs wherever the
    /// batch boundaries fall — so a scatter's one batch is split like a
    /// round of many — and its buckets are bit-identical to a
    /// single-threaded pass's (see [`crate::store`]).  The batches are
    /// dropped before the commit starts.
    pub fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize) {
        let per_shard = partition_by_shard(self.num_shards, &batches, threads);
        drop(batches);
        self.current.commit_partitioned(per_shard);
    }

    /// Freeze the current epoch and open the next one; the write side's
    /// pair lists are sorted into the snapshot's frozen shards,
    /// shard-parallel on up to one worker per available CPU.
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
        if let Some(superseded) = self.latest.replace(snapshot.clone()) {
            self.retired.push(superseded.stats());
        }
        snapshot
    }

    /// Snapshot of completed epoch `i` (i.e. `D_i`) — `None` unless `i` is
    /// the newest completed epoch: a retired epoch is refused like one that
    /// does not exist yet.
    pub fn snapshot(&self, epoch: usize) -> Option<Snapshot> {
        self.latest.clone().filter(|_| epoch == self.retired.len())
    }

    /// Snapshot of the most recently completed epoch, if any.
    pub fn latest_snapshot(&self) -> Option<Snapshot> {
        self.latest.clone()
    }

    /// Number of completed epochs.
    pub fn completed_epochs(&self) -> usize {
        self.retired.len() + usize::from(self.latest.is_some())
    }

    /// Statistics of every completed epoch, oldest first.
    fn completed_stats(&self) -> impl Iterator<Item = StoreStats> + '_ {
        let latest = self.latest.iter().map(|s| s.stats());
        self.retired.iter().cloned().chain(latest)
    }

    /// Aggregate statistics of every completed epoch (a retired epoch's as
    /// of its retirement — reads through a snapshot still held after that
    /// are the holder's to count).
    pub fn epoch_stats(&self) -> Vec<StoreStats> {
        self.completed_stats().collect()
    }

    /// Total writes across all epochs (completed and current).
    pub fn total_writes(&self) -> u64 {
        let completed: u64 = self.completed_stats().map(|s| s.total_writes).sum();
        completed + self.current.total_writes()
    }

    /// Total reads served across all completed epochs.
    pub fn total_reads(&self) -> u64 {
        self.completed_stats().map(|s| s.total_reads).sum()
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
    fn completing_an_epoch_retires_its_predecessor() {
        let mut chain = DdsChain::new(4);
        let mut sent = 0;
        for epoch in 0..100u64 {
            chain.write_batch((0..epoch % 7).map(|i| (k(i), Value::scalar(epoch))));
            sent += epoch % 7;
            let snapshot = chain.advance();
            // Round `epoch + 1` reads D_epoch (here: once per key written).
            for i in 0..epoch % 7 {
                assert_eq!(snapshot.get(&k(i)), Some(Value::scalar(epoch)));
            }
        }
        assert_eq!(chain.completed_epochs(), 100);
        assert!(chain.snapshot(98).is_none(), "retired epochs are refused");
        assert!(chain.snapshot(99).is_some());
        assert!(chain.snapshot(100).is_none());
        // The per-epoch accounting is exact without the retired shards.
        let stats = chain.epoch_stats();
        assert_eq!(stats.len(), 100);
        for (epoch, stats) in stats.iter().enumerate() {
            assert_eq!(stats.total_writes, epoch as u64 % 7);
            assert_eq!(stats.total_reads, epoch as u64 % 7);
        }
        assert_eq!(chain.total_writes(), sent);
        assert_eq!(chain.total_reads(), sent);
    }

    #[test]
    fn writes_go_to_current_epoch_only() {
        let mut chain = DdsChain::new(2);
        chain.write(k(1), Value::scalar(1));
        let d0 = chain.advance();
        chain.write(k(2), Value::scalar(2));
        let d1 = chain.advance();
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
