//! Pluggable DDS backends: the `SnapshotView` / `DdsBackend` trait pair.
//!
//! The AMPC model is defined against an *abstract* distributed data store:
//! machines write constant-size pairs into `D_i` and read adaptively from
//! `D_{i-1}`.  Nothing in the model says how the store is realised — the
//! paper's deployment target is an RDMA/Bigtable-style distributed hash
//! table, while this workspace started with a single in-process sharded
//! implementation.  This module makes the store surface explicit so the
//! runtime (and every algorithm above it) is provably backend-independent:
//!
//! * [`SnapshotView`] — the *read* surface of a frozen epoch: exactly the
//!   operations the model grants a machine in round `i` against `D_{i-1}`
//!   (point lookups, indexed multi-value lookups one at a time or a run of
//!   them, multiplicities, batched lookups), plus the read accounting the
//!   contention analysis observes.
//! * [`DdsBackend`] — the *lifecycle* surface the runtime drives: commit the
//!   ordered write batches of a round, advance the epoch, hand out the new
//!   epoch's view.
//!
//! One view, one wire client, N owners.  [`crate::Snapshot`] is the only
//! [`SnapshotView`] — whatever backend froze the epoch, machines read the
//! same type through the same code — and two [`DdsBackend`]s produce it:
//!
//! * [`LocalBackend`] — the compact sharded store ([`crate::ShardedStore`],
//!   frozen into a [`Snapshot`] at every advance), shared-memory and
//!   lock-free on the read path.  This is the default and the fastest.
//! * [`crate::RemoteBackend`] — the message-passing client: shard groups
//!   are owned by dedicated owners; commits and epoch advances cross a
//!   transport as [`crate::proto`] messages.  Over in-process channels
//!   ([`crate::ChannelBackend`]) each frozen epoch is `Arc`-published at
//!   advance time, so reads resolve against the owners' own frozen shards
//!   with zero channel traffic.  Over sockets ([`crate::TcpBackend`]) every
//!   request and reply round-trips through the byte codec as
//!   length-prefixed frames, and a frozen epoch is encoded from the
//!   owner's shards and decoded into the shards of a local replica — the
//!   deployable shape of the store, whether the owners are threads of this
//!   process, one serving process, or a cluster of N.
//!
//! Backend selection is a *configuration* concern: the runtime is generic
//! over `B: DdsBackend` and `ampc_runtime::AmpcConfig` picks the
//! instantiation, so algorithm code never mentions a concrete backend.
//! The conformance suite (`tests/backend_conformance.rs` at the workspace
//! root) holds every backend to observational equivalence against a plain
//! `BTreeMap<Key, Vec<Value>>` model of the store.

use crate::key::{Key, Value};
use crate::snapshot::Snapshot;
use crate::stats::{ShardLoad, StoreStats};
use crate::store::{partition_by_shard, ShardedStore};
use crate::transport::RequestFaults;

/// Read-only view of a completed epoch (`D_{i-1}` as seen from round `i`).
///
/// The operations mirror the model exactly: every lookup is a query against
/// one shard ("DDS machine"), batched lookups cost one query per key, and
/// the per-shard read counters feed the Lemma 2.1 contention accounting.
/// Cloning a view must be cheap (handles, not data) — the runtime clones it
/// once per virtual machine per round.
pub trait SnapshotView: Clone + Send + Sync + 'static {
    /// Number of shards ("DDS machines") behind this view.
    fn num_shards(&self) -> usize;

    /// First value stored under `key`, if any.  Counts as one query.
    fn get(&self, key: &Key) -> Option<Value>;

    /// The `index`-th value stored under `key` (zero-based).  Counts as one
    /// query.
    fn get_indexed(&self, key: &Key, index: usize) -> Option<Value>;

    /// Values `start..start + out.len()` stored under `key` into `out`,
    /// `None` past the last, in one lookup.  Counts as `out.len()` queries —
    /// identical budget semantics to calling [`SnapshotView::get_indexed`]
    /// once per index — all on `key`'s shard.
    fn get_indexed_slice(&self, key: &Key, start: usize, out: &mut [Option<Value>]);

    /// All values stored under `key` (empty if absent).  Counts as
    /// `multiplicity(key).max(1)` queries.
    fn get_all(&self, key: &Key) -> Vec<Value>;

    /// Number of values stored under `key`.  Counts as one query.
    fn multiplicity(&self, key: &Key) -> usize;

    /// Number of distinct keys in the view (not a model operation; driver
    /// and test bookkeeping only, not counted as a query).
    fn len(&self) -> usize;

    /// `true` if the view holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `keys[i]` into `out[i]` for every `i`, in one batched flight.
    /// Counts as `keys.len()` queries — identical budget semantics to
    /// calling [`SnapshotView::get`] once per key.
    ///
    /// # Panics
    /// If `out` is shorter than `keys`.
    fn get_many_slice(&self, keys: &[Key], out: &mut [Option<Value>]);

    /// Total queries served by this view so far.
    fn total_reads(&self) -> u64;

    /// Per-shard loads (keys held, historical writes, reads served so far).
    fn shard_loads(&self) -> Vec<ShardLoad>;

    /// Aggregate statistics over all shards.
    fn stats(&self) -> StoreStats {
        StoreStats::from_loads(self.shard_loads())
    }

    /// Every `(key, values)` pair held by the view.
    ///
    /// *Not* an AMPC-model operation (machines can only do point lookups);
    /// it exists for drivers and tests, is not counted as queries, and comes
    /// back in no particular order.
    fn entries(&self) -> Vec<(Key, Vec<Value>)>;
}

/// The lifecycle surface of a DDS implementation, as driven by the runtime.
///
/// A backend owns the chain of epoch stores `D_0, D_1, …`: the runtime
/// commits each round's ordered write batches, advances the epoch, and hands
/// the returned [`SnapshotView`] to the next round's machines.  Per-key
/// multi-value order is the concatenation order of the committed batches
/// (for the runtime: machine id, then write order) — every backend must
/// preserve it, which is what the cross-backend determinism tests pin down.
pub trait DdsBackend: Send + 'static {
    /// The read view this backend serves for completed epochs.
    type View: SnapshotView;

    /// Create a backend with `num_shards` shards.  `threads` caps whatever
    /// internal parallelism the backend uses (commit workers for
    /// [`LocalBackend`], owner threads for [`crate::ChannelBackend`]).
    fn with_shards(num_shards: usize, threads: usize) -> Self;

    /// Number of shards ("DDS machines").
    fn num_shards(&self) -> usize;

    /// A view of the state before any epoch completed (`D_{-1}`): empty,
    /// every lookup misses.
    fn empty_view(&self) -> Self::View;

    /// Commit ordered write batches into the current epoch's store.
    /// `threads` caps the commit parallelism; the observable result must be
    /// independent of it.
    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize);

    /// Freeze the current epoch and open the next one, returning the view of
    /// the epoch that just completed.
    fn advance(&mut self, threads: usize) -> Self::View;

    /// Number of completed epochs.
    fn completed_epochs(&self) -> usize;

    /// Total writes accepted across all epochs.
    ///
    /// Takes `&mut self`: message-passing backends ask their owners over
    /// the transport, which is an exclusive-access operation.
    fn total_writes(&mut self) -> u64;

    /// Short human-readable backend name (for logs and test labels).
    fn backend_name(&self) -> &'static str;

    /// Install a request-level fault schedule (scheduled drop-then-retry of
    /// write-side protocol requests; see
    /// [`crate::transport::RequestFaults`]).
    ///
    /// Backends without a transport have nothing to drop and ignore the
    /// schedule — the default does exactly that.
    fn install_request_faults(&mut self, faults: RequestFaults) {
        let _ = faults;
    }

    /// Requests dropped (and retried) by fault injection so far.
    fn dropped_requests(&self) -> u64 {
        0
    }

    /// Connections severed (and re-established via reconnect) by fault
    /// injection so far.  Only backends with a real connection to cut
    /// ([`crate::TcpBackend`]) ever report non-zero.
    fn severed_connections(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// LocalBackend
// ---------------------------------------------------------------------------

/// The in-process sharded store as a [`DdsBackend`]: the writable
/// [`ShardedStore`] of the current epoch, frozen into a compact [`Snapshot`]
/// at every advance.
///
/// This is the default backend: a commit moves each shard's bucket into
/// the writable store, and reads are lock-free directory lookups on the
/// frozen layout.  Round `i` reads `D_{i-1}` and nothing older, so the
/// backend keeps no frozen epoch: the snapshot it returns is the only
/// handle on one.
pub struct LocalBackend {
    /// The store accepting the current epoch's writes.
    current: ShardedStore,
    /// Epochs frozen so far.
    completed: usize,
    /// Pairs committed across all epochs, the current one included.
    writes: u64,
}

impl DdsBackend for LocalBackend {
    type View = Snapshot;

    fn with_shards(num_shards: usize, _threads: usize) -> Self {
        LocalBackend {
            current: ShardedStore::new(num_shards),
            completed: 0,
            writes: 0,
        }
    }

    fn num_shards(&self) -> usize {
        self.current.num_shards()
    }

    fn empty_view(&self) -> Snapshot {
        Snapshot::empty(self.num_shards())
    }

    /// Partition the ordered batches by shard on up to `threads` workers
    /// (bit-identical to a single-threaded pass, see [`crate::store`]),
    /// drop them, then let each shard take its bucket.  Per-key multi-value
    /// index order is the concatenation order of the batches.
    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize) {
        let per_shard = partition_by_shard(self.num_shards(), &batches, threads);
        self.writes += batches.iter().map(|batch| batch.len() as u64).sum::<u64>();
        drop(batches);
        self.current.commit_partitioned(per_shard);
    }

    fn advance(&mut self, threads: usize) -> Snapshot {
        let fresh = ShardedStore::new(self.num_shards());
        let finished = std::mem::replace(&mut self.current, fresh);
        self.completed += 1;
        finished.freeze_with_threads(threads)
    }

    fn completed_epochs(&self) -> usize {
        self.completed
    }

    fn total_writes(&mut self) -> u64 {
        self.writes
    }

    fn backend_name(&self) -> &'static str {
        "local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    /// Drive any backend through a tiny two-epoch script and check the
    /// trait-level observables.  The cross-backend conformance suite at the
    /// workspace root does this exhaustively; this is the in-crate smoke.
    fn exercise<B: DdsBackend>() {
        let mut backend = B::with_shards(4, 2);
        assert_eq!(backend.num_shards(), 4);
        assert_eq!(backend.completed_epochs(), 0);
        let empty = backend.empty_view();
        assert!(empty.is_empty());
        assert_eq!(empty.get(&k(1)), None);

        backend.commit_round(
            vec![
                vec![(k(1), Value::scalar(10)), (k(2), Value::scalar(20))],
                vec![(k(1), Value::scalar(11))],
            ],
            2,
        );
        let d0 = backend.advance(2);
        assert_eq!(backend.completed_epochs(), 1);
        assert_eq!(d0.len(), 2);
        assert_eq!(d0.get(&k(1)), Some(Value::scalar(10)));
        assert_eq!(d0.get_indexed(&k(1), 1), Some(Value::scalar(11)));
        assert_eq!(d0.multiplicity(&k(1)), 2);
        assert_eq!(
            d0.get_all(&k(1)),
            vec![Value::scalar(10), Value::scalar(11)]
        );

        backend.commit_round(vec![vec![(k(3), Value::scalar(30))]], 1);
        let d1 = backend.advance(1);
        assert_eq!(backend.completed_epochs(), 2);
        // Epochs are isolated in both directions.
        assert_eq!(d1.get(&k(1)), None);
        assert_eq!(d1.get(&k(3)), Some(Value::scalar(30)));
        assert_eq!(d0.get(&k(3)), None);
        assert_eq!(backend.total_writes(), 4);

        let mut entries = d0.entries();
        entries.sort_by_key(|(key, _)| key.a);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, vec![Value::scalar(10), Value::scalar(11)]);
    }

    #[test]
    fn local_backend_satisfies_the_trait_surface() {
        exercise::<LocalBackend>();
    }

    #[test]
    fn channel_backend_satisfies_the_trait_surface() {
        exercise::<crate::ChannelBackend>();
    }

    #[test]
    fn tcp_backend_satisfies_the_trait_surface() {
        exercise::<crate::TcpBackend>();
    }

    #[test]
    fn local_totals_span_every_epoch_and_an_empty_advance_is_empty() {
        let mut backend = LocalBackend::with_shards(3, 1);
        assert!(backend.advance(1).is_empty());
        assert_eq!(backend.completed_epochs(), 1);
        backend.commit_round(
            vec![(0..10u64).map(|i| (k(i), Value::scalar(i))).collect()],
            1,
        );
        let d1 = backend.advance(1);
        backend.commit_round(
            vec![(0..5u64).map(|i| (k(i), Value::scalar(i))).collect()],
            1,
        );
        // The writable epoch's pairs count before it freezes.
        assert_eq!(backend.total_writes(), 15);
        assert_eq!(d1.len(), 10);
        assert_eq!(backend.completed_epochs(), 2);
    }

    #[test]
    fn snapshot_view_batched_reads_match_point_reads() {
        let mut backend = LocalBackend::with_shards(8, 1);
        backend.commit_round(
            vec![(0..50u64).map(|i| (k(i), Value::scalar(i * 2))).collect()],
            1,
        );
        let view = backend.advance(1);
        let keys: Vec<Key> = (0..80u64).map(k).collect();
        let mut batched = vec![None; keys.len()];
        SnapshotView::get_many_slice(&view, &keys, &mut batched);
        let individual: Vec<Option<Value>> = keys
            .iter()
            .map(|key| SnapshotView::get(&view, key))
            .collect();
        assert_eq!(batched, individual);
        assert_eq!(SnapshotView::total_reads(&view), 160);
    }
}
