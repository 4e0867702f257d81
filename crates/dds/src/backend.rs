//! Pluggable DDS backends: the [`DdsBackend`] trait and the one view type
//! every backend serves, [`Snapshot`].
//!
//! The AMPC model is defined against an *abstract* distributed data store:
//! machines write constant-size pairs into `D_i` and read adaptively from
//! `D_{i-1}`.  Nothing in the model says how the store is realised — the
//! paper's deployment target is an RDMA/Bigtable-style distributed hash
//! table, while this workspace started with a single in-process sharded
//! implementation.  This module makes the store surface explicit so the
//! runtime (and every algorithm above it) is provably backend-independent:
//!
//! * [`Snapshot`] — the *read* surface of a frozen epoch: exactly the
//!   operations the model grants a machine in round `i` against `D_{i-1}`
//!   (point lookups, indexed multi-value lookups one at a time or a run of
//!   them, multiplicities, batched lookups), plus the read accounting the
//!   contention analysis observes.
//! * [`DdsBackend`] — the *lifecycle* surface the runtime drives: commit the
//!   ordered write batches of a round, advance the epoch, hand out the new
//!   epoch's snapshot.
//!
//! One view, one wire client, N owners.  Whatever backend froze the epoch,
//! machines read the same [`Snapshot`] through the same code, and two
//! [`DdsBackend`]s produce it:
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
//! Backend selection is a *configuration* concern: the trait is
//! dyn-compatible, `ampc_runtime::AmpcRuntime::new` opens the backend its
//! config names as a `Box<dyn DdsBackend>`, and algorithm code never
//! mentions a backend at all.
//! The conformance suite (`tests/backend_conformance.rs` at the workspace
//! root) holds every backend to observational equivalence against a plain
//! `BTreeMap<Key, Vec<Value>>` model of the store.

use crate::key::{Key, Value};
use crate::snapshot::Snapshot;
use crate::store::{partition_by_shard, ShardedStore};
use crate::transport::RequestFaults;

/// The lifecycle surface of a DDS implementation, as driven by the runtime.
///
/// A backend owns the chain of epoch stores `D_0, D_1, …`: the runtime
/// commits each round's ordered write batches, advances the epoch, and hands
/// the returned [`Snapshot`] to the next round's machines.  Per-key
/// multi-value order is the concatenation order of the committed batches
/// (for the runtime: machine id, then write order) — every backend must
/// preserve it, which is what the cross-backend determinism tests pin down.
///
/// Each backend has its own constructor ([`LocalBackend::new`],
/// [`crate::RemoteBackend::new`] and the connect / spawn constructors of
/// [`crate::TcpBackend`]), so the trait is dyn-compatible.
pub trait DdsBackend: Send + 'static {
    /// Number of shards ("DDS machines").
    fn num_shards(&self) -> usize;

    /// Commit ordered write batches into the current epoch's store.
    /// `threads` caps the commit parallelism; the observable result must be
    /// independent of it.
    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize);

    /// Freeze the current epoch and open the next one, returning the view of
    /// the epoch that just completed.
    fn advance(&mut self, threads: usize) -> Snapshot;

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

impl LocalBackend {
    /// An empty store of `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        LocalBackend {
            current: ShardedStore::new(num_shards),
            completed: 0,
            writes: 0,
        }
    }
}

impl DdsBackend for LocalBackend {
    fn num_shards(&self) -> usize {
        self.current.num_shards()
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

/// A boxed backend is a backend: `ampc_runtime::AmpcRuntime::new` drives a
/// `Box<dyn DdsBackend>`, so the config, not a type, picks the store.
impl<B: DdsBackend + ?Sized> DdsBackend for Box<B> {
    fn num_shards(&self) -> usize {
        (**self).num_shards()
    }

    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize) {
        (**self).commit_round(batches, threads);
    }

    fn advance(&mut self, threads: usize) -> Snapshot {
        (**self).advance(threads)
    }

    fn completed_epochs(&self) -> usize {
        (**self).completed_epochs()
    }

    fn total_writes(&mut self) -> u64 {
        (**self).total_writes()
    }

    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn install_request_faults(&mut self, faults: RequestFaults) {
        (**self).install_request_faults(faults);
    }

    fn dropped_requests(&self) -> u64 {
        (**self).dropped_requests()
    }

    fn severed_connections(&self) -> u64 {
        (**self).severed_connections()
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
    fn exercise(mut backend: impl DdsBackend) {
        assert_eq!(backend.num_shards(), 4);
        assert_eq!(backend.completed_epochs(), 0);

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
        exercise(LocalBackend::new(4));
    }

    #[test]
    fn channel_backend_satisfies_the_trait_surface() {
        exercise(crate::ChannelBackend::new(4, 2));
    }

    #[test]
    fn tcp_backend_satisfies_the_trait_surface() {
        exercise(crate::TcpBackend::new(4, 2));
    }

    #[test]
    fn local_totals_span_every_epoch_and_an_empty_advance_is_empty() {
        let mut backend = LocalBackend::new(3);
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
        let mut backend = LocalBackend::new(8);
        backend.commit_round(
            vec![(0..50u64).map(|i| (k(i), Value::scalar(i * 2))).collect()],
            1,
        );
        let view = backend.advance(1);
        let keys: Vec<Key> = (0..80u64).map(k).collect();
        let mut batched = vec![None; keys.len()];
        Snapshot::get_many_slice(&view, &keys, &mut batched);
        let individual: Vec<Option<Value>> =
            keys.iter().map(|key| Snapshot::get(&view, key)).collect();
        assert_eq!(batched, individual);
        assert_eq!(Snapshot::total_reads(&view), 160);
    }
}
