//! The one wire client: [`RemoteBackend`], over any transport and any
//! number of owners.
//!
//! The model's machines reach `D_{i-1}` through *one* abstract store; how
//! many threads or processes serve it is a deployment detail.  This module
//! is the client of the [`crate::proto`] wire protocol for every such
//! deployment — shards are partitioned into groups, each group is owned by
//! one owner, and the backend talks to each owner over one
//! [`crate::transport::Transport`] connection:
//!
//! * [`ChannelBackend`] (`RemoteBackend<MpscTransport>`) — owner threads
//!   behind in-process channels: requests travel as typed values, frozen
//!   epochs are published zero-copy as shared `Arc`s;
//! * [`TcpBackend`] (`RemoteBackend<TcpTransport>`) — the identical owner
//!   loop behind sockets: in-process owner threads, interleaved
//!   ([`RemoteBackend::new`]) or as a local cluster of contiguous ranges
//!   ([`RemoteBackend::spawn_local`]), one external serving process
//!   ([`RemoteBackend::connect_remote`]), or a cluster of N serving
//!   processes ([`RemoteBackend::connect_cluster`], see [`crate::cluster`]).
//!   Every request and reply round-trips through the byte codec; a frozen
//!   epoch is encoded from the owner's maps and decoded into the maps of a
//!   replica, one pass each way.
//!
//! Whatever the transport and whichever constructor, an owner this backend
//! spawns is one thread behind one connection ([`spawn_owner`]), and the
//! backend joins it when it drops.
//!
//! The client decides two things from what the owners tell it, never from
//! an option: owners whose lease grants carried a [`ShardMap`] hold
//! **contiguous shard ranges** and advance through the **two-phase
//! `FreezeEpoch` / `PublishEpoch` barrier**; owners without one hold an
//! **interleaved** stride of the shard space and advance with the one-shot
//! `Advance`.  Everything else — commit partitioning, fan-out, reply
//! collection, failure harvesting — is one code path.
//!
//! Either way, a round's reads resolve **locally and lock-free**: every
//! transport answers an advance with a ready-to-read [`FrozenEpoch`], and
//! every advance returns a plain [`Snapshot`] holding one per owner (shared
//! or replicated — neither this client nor machine code can tell).  Only the
//! write-side protocol (`Commit`, `Advance` or the barrier pair) and the
//! driver-side requests (`Loads`, `Dump`, `TotalWrites`) cross the
//! transport.
//!
//! Owner failures surface as typed [`TransportError`]s: every send and
//! receive goes through one harvest, which joins the dead owner's thread
//! and attaches its panic message to the error instead of hanging or dying
//! on an opaque broken connection.

use crate::backend::DdsBackend;
use crate::key::{Key, Value};
use crate::proto::{Reply, Request, ShardMap};
use crate::snapshot::Snapshot;
use crate::stats::ShardLoad;
use crate::store::partition_by_shard;
use crate::transport::dispatch::Worker;
use crate::transport::{
    ClientReply, MpscTransport, RequestFaults, ServerTransport, TcpTransport, Transport,
    TransportError,
};
use std::thread::JoinHandle;

/// [`RemoteBackend`] over in-process channels: owner threads, typed
/// messages, zero-copy epoch publication.
///
/// Select it through `ampc_runtime::AmpcConfig` (`DdsBackendKind::Channel`)
/// rather than constructing it directly.
pub type ChannelBackend = RemoteBackend<MpscTransport>;

/// [`RemoteBackend`] over TCP sockets — the deployable backend, whether its
/// owners are threads of this process, one serving process or a cluster.
///
/// Select it through `ampc_runtime::AmpcConfig` (`DdsBackendKind::Remote` /
/// `DdsBackendKind::Cluster`) rather than constructing it directly.
pub type TcpBackend = RemoteBackend<TcpTransport>;

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Shard → (owner, local shard) routing: the table commits are routed by
/// and every [`Snapshot`] of the backend is placed by.
#[derive(Clone, Debug)]
pub(crate) struct Routing {
    /// `table[shard]` — (owner, local shard index) of global `shard`.
    table: Vec<(u32, u32)>,
    /// Shards each owner holds: what its frozen epochs must carry.
    owner_shards: Vec<usize>,
}

impl Routing {
    /// `shard → (shard % owners, shard / owners)` — the split of in-process
    /// owners and of one serving process, where every owner serves a stride
    /// of the shard space.
    pub(crate) fn interleaved(num_shards: usize, owners: usize) -> Routing {
        Routing {
            table: (0..num_shards)
                .map(|shard| ((shard % owners) as u32, (shard / owners) as u32))
                .collect(),
            owner_shards: (0..owners)
                .map(|owner| (owner..num_shards).step_by(owners).len())
                .collect(),
        }
    }

    /// Contiguous ranges in owner order — the cluster split.  `map` must be
    /// contiguous (validated at connect); owners with empty ranges simply
    /// hold no table entry.
    pub(crate) fn ranged(map: &ShardMap) -> Routing {
        debug_assert!(map.is_contiguous());
        let owner_shards: Vec<usize> = map
            .owners
            .iter()
            .map(|slice| (slice.end - slice.start) as usize)
            .collect();
        Routing {
            table: owner_shards
                .iter()
                .enumerate()
                .flat_map(|(owner, &held)| (0..held as u32).map(move |local| (owner as u32, local)))
                .collect(),
            owner_shards,
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.table.len()
    }
}

// ---------------------------------------------------------------------------
// RemoteBackend
// ---------------------------------------------------------------------------

/// The message-passing DDS backend: one client for any number of owners,
/// generic over the [`Transport`] carrying the [`crate::proto`] protocol.
///
/// See the [module docs](self) for the design; select it through
/// `ampc_runtime::AmpcConfig` rather than constructing it directly.
pub struct RemoteBackend<T: Transport> {
    /// One connection per owner, in owner order.
    clients: Vec<T>,
    /// Owner threads this backend spawned, by owner (empty when processes
    /// serve the owners; `None` once joined).
    handles: Vec<Option<JoinHandle<()>>>,
    routing: Routing,
    /// The topology every owner advertised in its lease grant, if any.
    /// Owners that advertise one advance through the two-phase barrier.
    map: Option<ShardMap>,
    completed: usize,
    faults: RequestFaults,
    /// Monotone sequence numbers for `Commit` requests (owners use them to
    /// deduplicate retransmissions).
    next_seq: u64,
}

fn unexpected(owner: usize, expected: &str, got: &Reply) -> TransportError {
    TransportError::Protocol {
        worker: owner,
        message: format!("expected {expected}, got {got:?}"),
    }
}

/// Serve `shard_ids` as owner `worker` on a thread of its own, behind
/// `server` — the one place a backend starts an owner, for every
/// constructor and every transport.  The caller joins the handle.
pub(crate) fn spawn_owner(
    worker: usize,
    shard_ids: Vec<usize>,
    mut server: impl ServerTransport,
) -> JoinHandle<()> {
    let owner = Worker::new(shard_ids);
    #[allow(
        clippy::expect_used,
        reason = "thread-spawn failure at backend construction has no round boundary to report through; dying loudly beats serving without owners"
    )]
    std::thread::Builder::new()
        .name(format!("dds-owner-{worker}"))
        .spawn(move || owner.serve(&mut server))
        .expect("spawning DDS owner thread")
}

/// The wire reply inside `reply`; only an advance may be answered with a
/// shared epoch.
fn wire(owner: usize, reply: ClientReply) -> Result<Reply, TransportError> {
    match reply {
        ClientReply::Wire(reply) => Ok(reply),
        ClientReply::SharedEpoch(_) => Err(TransportError::Protocol {
            worker: owner,
            message: "unsolicited epoch publication".to_string(),
        }),
    }
}

impl<T: Transport> RemoteBackend<T> {
    /// Spawn a backend with `num_shards` shards owned by up to `workers`
    /// owner threads (clamped to `[1, num_shards]`).
    pub fn new(num_shards: usize, workers: usize) -> Self {
        let num_shards = num_shards.max(1);
        let workers = workers.clamp(1, num_shards);
        let mut clients = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (client, server) = T::connect(worker);
            let shard_ids = (worker..num_shards).step_by(workers).collect();
            clients.push(client);
            handles.push(Some(spawn_owner(worker, shard_ids, server)));
        }
        RemoteBackend::over(
            clients,
            handles,
            Routing::interleaved(num_shards, workers),
            None,
        )
    }

    /// A backend over established connections, before its first epoch.
    pub(crate) fn over(
        clients: Vec<T>,
        handles: Vec<Option<JoinHandle<()>>>,
        routing: Routing,
        map: Option<ShardMap>,
    ) -> Self {
        RemoteBackend {
            clients,
            handles,
            routing,
            map,
            completed: 0,
            faults: RequestFaults::none(),
            next_seq: 0,
        }
    }

    /// Number of owners serving the shards.
    pub fn num_workers(&self) -> usize {
        self.clients.len()
    }

    /// The topology the owners advertised, if they form a cluster.
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.map.as_ref()
    }

    /// When a connection to an owner this backend spawned died without
    /// saying why, join the owner's thread, so the caller sees its panic
    /// message, not just a broken connection.  (An owner of another process
    /// has no thread here to join: its panic goes to that process's stderr.)
    fn harvest(&mut self, err: TransportError) -> TransportError {
        let worker = match err {
            TransportError::PeerClosed {
                worker,
                panic: None,
            }
            | TransportError::LeaseLost { worker, .. } => worker,
            _ => return err,
        };
        let Some(handle) = self.handles.get_mut(worker).and_then(Option::take) else {
            return err;
        };
        match handle.join() {
            Err(payload) => TransportError::PeerClosed {
                worker,
                panic: Some(crate::transport::owner_panic_message(payload.as_ref())),
            },
            Ok(()) => err,
        }
    }

    /// The one request/reply pattern of the client: pipeline `requests`
    /// (owner, request — ascending by owner) to their owners, then collect
    /// one reply per request in the same order through `accept`.  Every
    /// failure is harvested.
    ///
    /// Replies are collected concurrently, one owner per thread (the last
    /// on the calling thread): receiving an epoch means decoding its frame
    /// and rebuilding the replica, which dominates advance latency and is
    /// independent per owner.
    fn fan_out<R: Send>(
        &mut self,
        requests: impl IntoIterator<Item = (usize, Request)>,
        accept: impl Fn(usize, ClientReply) -> Result<R, TransportError> + Sync,
    ) -> Result<Vec<R>, TransportError> {
        let mut asked = vec![false; self.clients.len()];
        for (owner, request) in requests {
            let sent = self.clients[owner].send(request);
            sent.map_err(|err| self.harvest(err))?;
            asked[owner] = true;
        }
        let fetch =
            |(owner, client): (usize, &mut T)| client.recv().and_then(|reply| accept(owner, reply));
        let replies: Vec<Result<R, TransportError>> = std::thread::scope(|scope| {
            let mut pending = self
                .clients
                .iter_mut()
                .enumerate()
                .filter(|(owner, _)| asked[*owner]);
            let last = pending.next_back();
            let fetchers: Vec<_> = pending
                .map(|link| scope.spawn(move || fetch(link)))
                .collect();
            let last = last.map(fetch);
            fetchers
                .into_iter()
                // A fetcher only panics on a bug in this client; let it
                // surface as one.
                .map(|fetcher| {
                    fetcher
                        .join()
                        .unwrap_or_else(|bug| std::panic::resume_unwind(bug))
                })
                .chain(last)
                .collect()
        });
        replies
            .into_iter()
            .map(|reply| reply.map_err(|err| self.harvest(err)))
            .collect()
    }

    /// [`Self::fan_out`] of the same `request` to every owner.
    fn broadcast<R: Send>(
        &mut self,
        request: Request,
        accept: impl Fn(usize, ClientReply) -> Result<R, TransportError> + Sync,
    ) -> Result<Vec<R>, TransportError> {
        let owners = 0..self.clients.len();
        self.fan_out(owners.map(|owner| (owner, request.clone())), accept)
    }

    /// Fallible [`DdsBackend::commit_round`]: partition the ordered batches
    /// by shard on up to `threads` workers, hand each owner the buckets of
    /// its shards in one pipelined `Commit`, then collect the acks.  Returns
    /// the number of pairs accepted.
    pub fn try_commit_round(
        &mut self,
        batches: Vec<Vec<(Key, Value)>>,
        threads: usize,
    ) -> Result<u64, TransportError> {
        // The store's own partition pass: one exact-size bucket per global
        // shard, order preserved within each, moved into the requests as
        // is.  Routing is then per bucket, not per pair.
        type OwnerBuckets = Vec<(usize, Vec<(Key, Value)>)>;
        let mut buckets: Vec<OwnerBuckets> = vec![Vec::new(); self.clients.len()];
        let per_shard = partition_by_shard(self.routing.num_shards(), &batches, threads);
        drop(batches);
        for (pairs, &(owner, local)) in per_shard.into_iter().zip(&self.routing.table) {
            if !pairs.is_empty() {
                buckets[owner as usize].push((local as usize, pairs));
            }
        }
        let epoch = self.completed;
        let mut commits = Vec::with_capacity(buckets.len());
        for (owner, batches) in buckets.into_iter().enumerate() {
            if !batches.is_empty() {
                let seq = self.next_seq;
                self.next_seq += 1;
                commits.push((
                    owner,
                    Request::Commit {
                        epoch,
                        seq,
                        batches,
                    },
                ));
            }
        }
        let accepted = self.fan_out(commits, |owner, reply| match wire(owner, reply)? {
            Reply::Committed { accepted, .. } => Ok(accepted),
            other => Err(unexpected(owner, "a commit ack", &other)),
        })?;
        Ok(accepted.into_iter().sum())
    }

    /// Fallible [`DdsBackend::advance`]: freeze the writable epoch on every
    /// owner and collect each frozen group — the owner's own allocation or
    /// a replica decoded from its payload, as the transport delivers it —
    /// checked to hold exactly the owner's share of the routing table, so a
    /// short epoch fails the advance instead of a machine's lookup.
    ///
    /// Owners that advertised a shard map are separate processes, so the
    /// freeze must be made atomic *across* them: phase 1 sends
    /// `FreezeEpoch` everywhere and waits for **all** acks, and only then
    /// does phase 2 send `PublishEpoch` — a failure before the last ack
    /// aborts with nothing published anywhere, so no mixed epoch is ever
    /// observable (see [`crate::cluster`]).  Owners without a map take the
    /// one-shot `Advance`, which is the same two steps inside one owner.
    pub fn try_advance(&mut self) -> Result<Snapshot, TransportError> {
        let epoch = self.completed;
        let publish = if self.map.is_some() {
            self.broadcast(Request::FreezeEpoch { epoch }, |owner, reply| {
                match wire(owner, reply)? {
                    Reply::EpochFrozen { epoch: acked } if acked == epoch => Ok(()),
                    Reply::EpochFrozen { epoch: acked } => Err(TransportError::Protocol {
                        worker: owner,
                        message: format!("froze epoch {acked}, expected {epoch}"),
                    }),
                    other => Err(unexpected(owner, "a freeze ack", &other)),
                }
            })?;
            Request::PublishEpoch { epoch }
        } else {
            Request::Advance { epoch }
        };
        let owner_shards = self.routing.owner_shards.clone();
        let groups = self.broadcast(publish, |owner, reply| match reply {
            ClientReply::SharedEpoch(epoch) if epoch.shards.len() == owner_shards[owner] => {
                Ok(epoch)
            }
            ClientReply::SharedEpoch(epoch) => Err(TransportError::Protocol {
                worker: owner,
                message: format!(
                    "frozen epoch carries {} shards, the routing expects {}",
                    epoch.shards.len(),
                    owner_shards[owner]
                ),
            }),
            ClientReply::Wire(other) => Err(unexpected(owner, "a frozen epoch", &other)),
        })?;
        self.completed += 1;
        Ok(Snapshot::new(groups, self.routing.table.clone()))
    }

    /// Fallible [`DdsBackend::total_writes`]: fan out, sum the replies.
    pub fn try_total_writes(&mut self) -> Result<u64, TransportError> {
        let writes = self.broadcast(Request::TotalWrites, |owner, reply| {
            match wire(owner, reply)? {
                Reply::TotalWrites(writes) => Ok(writes),
                other => Err(unexpected(owner, "a total-writes reply", &other)),
            }
        })?;
        Ok(writes.into_iter().sum())
    }

    /// Owner-served per-shard loads of completed epoch `epoch`, sorted by
    /// global shard id.  Owners retain the newest completed epoch only; any
    /// other `epoch` — retired or not yet completed — is a protocol
    /// violation and fails like one.
    ///
    /// Note the accounting asymmetry on wire transports: reads resolve
    /// against client-side replicas, so the owner's read counters stay at
    /// zero there; on shared-memory transports owner and views count in the
    /// same atomics.  Views therefore serve
    /// [`crate::SnapshotView::shard_loads`] from their own epoch data; this
    /// request exists for drivers and tests that audit the owner side.
    pub fn epoch_loads(&mut self, epoch: usize) -> Result<Vec<ShardLoad>, TransportError> {
        let per_owner = self.broadcast(Request::Loads { epoch }, |owner, reply| {
            match wire(owner, reply)? {
                Reply::Loads(loads) => Ok(loads),
                other => Err(unexpected(owner, "a loads reply", &other)),
            }
        })?;
        let mut loads: Vec<ShardLoad> = per_owner.into_iter().flatten().collect();
        loads.sort_by_key(|load| load.shard);
        Ok(loads)
    }

    /// Owner-served dump of completed epoch `epoch` (no particular order);
    /// the newest completed epoch only, as for [`Self::epoch_loads`].
    pub fn epoch_entries(
        &mut self,
        epoch: usize,
    ) -> Result<Vec<(Key, Vec<Value>)>, TransportError> {
        let per_owner = self.broadcast(Request::Dump { epoch }, |owner, reply| {
            match wire(owner, reply)? {
                Reply::Dump(entries) => Ok(entries),
                other => Err(unexpected(owner, "a dump reply", &other)),
            }
        })?;
        Ok(per_owner.into_iter().flatten().collect())
    }
}

/// Unwrap a transport result inside the infallible [`DdsBackend`] surface.
///
/// The panic message carries the full typed error (worker, cause, any owner
/// panic payload); `ampc_runtime` catches it at the round boundary and
/// surfaces it as a typed `AmpcError::Backend`.
pub(crate) fn expect_transport<V>(result: Result<V, TransportError>) -> V {
    match result {
        Ok(value) => value,
        #[allow(
            clippy::panic,
            reason = "the documented harvest boundary: the runtime catches this at the round edge and re-types it as AmpcError::Backend"
        )]
        Err(err) => panic!("DDS transport failure: {err}"),
    }
}

impl<T: Transport> DdsBackend for RemoteBackend<T> {
    type View = Snapshot;

    fn with_shards(num_shards: usize, threads: usize) -> Self {
        RemoteBackend::new(num_shards, threads)
    }

    fn num_shards(&self) -> usize {
        self.routing.num_shards()
    }

    fn empty_view(&self) -> Snapshot {
        Snapshot::empty(self.routing.num_shards())
    }

    fn commit_round(&mut self, batches: Vec<Vec<(Key, Value)>>, threads: usize) {
        expect_transport(self.try_commit_round(batches, threads));
    }

    fn advance(&mut self, _threads: usize) -> Snapshot {
        expect_transport(self.try_advance())
    }

    fn completed_epochs(&self) -> usize {
        self.completed
    }

    fn total_writes(&mut self) -> u64 {
        expect_transport(self.try_total_writes())
    }

    fn backend_name(&self) -> &'static str {
        if self.map.is_some() {
            "cluster"
        } else {
            T::NAME
        }
    }

    fn install_request_faults(&mut self, faults: RequestFaults) {
        self.faults = faults.clone();
        for client in &mut self.clients {
            client.install_faults(faults.clone());
        }
    }

    fn dropped_requests(&self) -> u64 {
        self.faults.dropped()
    }

    fn severed_connections(&self) -> u64 {
        self.faults.severed()
    }
}

impl<T: Transport> Drop for RemoteBackend<T> {
    fn drop(&mut self) {
        // Disconnect every owner (their serve loops exit on a gone client;
        // leased connections say goodbye), then reap the threads so nothing
        // is left detached.  Panic payloads were either harvested during
        // operation or are deliberately swallowed here — propagating from
        // `drop` would abort.
        self.clients.clear();
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

impl<T: Transport> std::fmt::Debug for RemoteBackend<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("transport", &T::NAME)
            .field("num_shards", &self.routing.num_shards())
            .field("owners", &self.clients.len())
            .field("completed_epochs", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SnapshotView;
    use crate::key::KeyTag;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn channel_with(pairs: &[(u64, u64)], shards: usize, workers: usize) -> ChannelBackend {
        let mut backend = ChannelBackend::new(shards, workers);
        let batch: Vec<(Key, Value)> = pairs
            .iter()
            .map(|&(key, value)| (k(key), Value::scalar(value)))
            .collect();
        backend.commit_round(vec![batch], 1);
        backend
    }

    #[test]
    fn reads_resolve_against_the_published_epoch() {
        let mut backend = channel_with(&[(1, 10), (2, 20), (3, 30)], 8, 3);
        let view = backend.advance(1);
        assert_eq!(view.get(&k(1)), Some(Value::scalar(10)));
        assert_eq!(view.get(&k(4)), None);
        assert_eq!(view.len(), 3);
        assert_eq!(view.total_reads(), 2);
    }

    #[test]
    fn shared_view_reads_are_visible_to_owner_served_loads() {
        // Reads land in the shared epoch's atomics; the owner-served Loads
        // protocol must observe them without any extra synchronisation —
        // the shared-memory capability wire transports do not have.
        let mut backend = channel_with(&[(1, 1), (2, 2), (3, 3), (4, 4)], 8, 2);
        let view = backend.advance(1);
        for i in 1..=4u64 {
            let _ = view.get(&k(i));
            let _ = view.multiplicity(&k(i));
        }
        let owner_loads = backend.epoch_loads(0).unwrap();
        assert_eq!(owner_loads.iter().map(|l| l.reads).sum::<u64>(), 8);
        assert_eq!(owner_loads.iter().map(|l| l.writes).sum::<u64>(), 4);
        // The view computes the same loads locally from the shared epoch.
        assert_eq!(view.shard_loads(), owner_loads);
    }

    #[test]
    fn multi_value_order_is_commit_order_across_machine_batches() {
        let mut backend = ChannelBackend::new(4, 2);
        backend.commit_round(
            vec![
                vec![(k(9), Value::scalar(0)), (k(9), Value::scalar(1))],
                vec![(k(9), Value::scalar(2))],
            ],
            1,
        );
        let view = backend.advance(1);
        assert_eq!(view.multiplicity(&k(9)), 3);
        for i in 0..3usize {
            assert_eq!(view.get_indexed(&k(9), i), Some(Value::scalar(i as u64)));
        }
        assert_eq!(view.get_indexed(&k(9), 3), None);
        assert_eq!(
            view.get_all(&k(9)),
            vec![Value::scalar(0), Value::scalar(1), Value::scalar(2)]
        );
    }

    #[test]
    fn epochs_are_isolated() {
        let mut backend = channel_with(&[(1, 1)], 4, 2);
        let d0 = backend.advance(1);
        backend.commit_round(vec![vec![(k(2), Value::scalar(2))]], 1);
        let d1 = backend.advance(1);
        assert_eq!(d0.get(&k(1)), Some(Value::scalar(1)));
        assert_eq!(d0.get(&k(2)), None);
        assert_eq!(d1.get(&k(1)), None);
        assert_eq!(d1.get(&k(2)), Some(Value::scalar(2)));
        assert_eq!(backend.completed_epochs(), 2);
        assert_eq!(backend.total_writes(), 2);
    }

    #[test]
    fn batched_reads_resolve_locally_and_count_per_key() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i, i * 7)).collect();
        let mut backend = channel_with(&pairs, 16, 4);
        let view = backend.advance(1);
        let keys: Vec<Key> = (0..300u64).map(k).collect();
        let mut out = Vec::new();
        view.get_many(&keys, &mut out);
        for (i, slot) in out.iter().enumerate() {
            let expected = if i < 200 {
                Some(Value::scalar(i as u64 * 7))
            } else {
                None
            };
            assert_eq!(*slot, expected, "key {i}");
        }
        assert_eq!(view.total_reads(), 300);
    }

    #[test]
    fn views_survive_the_backend() {
        let view = {
            let mut backend = channel_with(&[(5, 50)], 4, 2);
            backend.advance(1)
        };
        // The backend (and its owner threads) are gone; the view holds the
        // published epoch directly and serves everything locally.
        assert_eq!(view.get(&k(5)), Some(Value::scalar(50)));
        assert_eq!(view.len(), 1);
        assert_eq!(view.total_reads(), 1);
    }

    #[test]
    fn empty_view_misses_and_counts() {
        let backend = ChannelBackend::new(4, 2);
        let view = backend.empty_view();
        assert!(view.is_empty());
        assert_eq!(view.num_shards(), 4);
        assert_eq!(view.get(&k(1)), None);
        assert_eq!(view.multiplicity(&k(2)), 0);
        assert_eq!(view.total_reads(), 2);
    }

    #[test]
    fn concurrent_clones_share_the_published_epoch() {
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i, i)).collect();
        let mut backend = channel_with(&pairs, 8, 4);
        let view = backend.advance(1);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let view = view.clone();
                scope.spawn(move || {
                    for i in 0..125u64 {
                        let key = t * 125 + i;
                        assert_eq!(view.get(&k(key)), Some(Value::scalar(key)));
                    }
                });
            }
        });
        assert_eq!(view.total_reads(), 500);
    }

    #[test]
    fn worker_counts_are_clamped() {
        let backend = ChannelBackend::new(4, 64);
        assert_eq!(backend.num_workers(), 4);
        let backend = ChannelBackend::new(8, 0);
        assert_eq!(backend.num_workers(), 1);
    }

    #[test]
    fn routing_tables_place_every_shard_once() {
        use crate::proto::OwnerSlice;
        let interleaved = Routing::interleaved(7, 3);
        assert_eq!(interleaved.table[5], (2, 1));
        assert_eq!(interleaved.owner_shards, vec![3, 2, 2]);

        // Five owners over four shards: the first range is empty and owns
        // no table entry.
        let ranges = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4)];
        let map = ShardMap {
            epoch: 1,
            owners: ranges
                .iter()
                .map(|&(start, end)| OwnerSlice {
                    endpoint: "x:1".to_owned(),
                    start,
                    end,
                })
                .collect(),
        };
        let ranged = Routing::ranged(&map);
        assert_eq!(ranged.table, vec![(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(ranged.owner_shards, vec![0, 1, 1, 1, 1]);
    }

    fn owner_served_requests_agree_with_the_view<T: Transport>() {
        let mut backend = RemoteBackend::<T>::new(8, 3);
        backend.commit_round(
            vec![
                (0..40u64).map(|i| (k(i % 10), Value::scalar(i))).collect(),
                vec![(k(3), Value::pair(7, 8))],
            ],
            1,
        );
        let view = backend.advance(1);

        // The owner-served dump matches the view's local entries…
        let mut local = view.entries();
        let mut served = backend.epoch_entries(0).unwrap();
        local.sort_by_key(|&(key, _)| key);
        served.sort_by_key(|&(key, _)| key);
        assert_eq!(local, served);

        // …and the owner-served loads agree on keys and writes (read
        // counters live client-side on wire transports, so they are
        // excluded here; `shared_view_reads_are_visible_to_owner_served_loads`
        // pins the shared-memory case).
        let served = backend.epoch_loads(0).unwrap();
        let local = view.shard_loads();
        assert_eq!(local.len(), served.len());
        for (local, served) in local.iter().zip(&served) {
            assert_eq!(local.shard, served.shard);
            assert_eq!(local.keys, served.keys);
            assert_eq!(local.writes, served.writes);
        }
        assert_eq!(backend.total_writes(), 41);
    }

    #[test]
    fn mpsc_owner_served_requests_agree_with_the_view() {
        owner_served_requests_agree_with_the_view::<MpscTransport>();
    }

    #[test]
    fn tcp_owner_served_requests_agree_with_the_view() {
        owner_served_requests_agree_with_the_view::<TcpTransport>();
    }

    fn owner_panics_surface_as_typed_errors<T: Transport>(mut backend: RemoteBackend<T>) {
        backend.commit_round(vec![vec![(k(1), Value::scalar(1))]], 1);
        let _ = backend.advance(1);
        // Asking for an epoch that does not exist is a protocol violation:
        // the owner panics, and the client must surface a typed error
        // carrying the harvested panic payload — not hang on a dead
        // connection — whoever hosted the owner.
        let err = backend.epoch_loads(7).unwrap_err();
        match err {
            TransportError::PeerClosed {
                panic: Some(message),
                ..
            } => assert!(message.contains("unknown epoch 7"), "{message}"),
            other => panic!("expected a harvested owner panic, got {other:?}"),
        }
    }

    #[test]
    fn mpsc_owner_panics_surface_as_typed_errors() {
        owner_panics_surface_as_typed_errors(ChannelBackend::new(4, 2));
    }

    #[test]
    fn tcp_owner_panics_surface_as_typed_errors() {
        owner_panics_surface_as_typed_errors(TcpBackend::new(4, 2));
    }

    #[test]
    fn cluster_owner_panics_surface_as_typed_errors() {
        // A local cluster's owners are threads like any other backend's:
        // the same join harvests the panic.
        owner_panics_surface_as_typed_errors(TcpBackend::spawn_local(2, 4).unwrap());
    }

    fn retransmitted_requests_apply_exactly_once<T: Transport>() {
        use crate::proto::RequestKind;

        let run = |faulted: bool| {
            let mut backend = RemoteBackend::<T>::new(8, 2);
            let faults = RequestFaults::none();
            if faulted {
                faults.schedule_drop(RequestKind::Commit, 0, 0);
                faults.schedule_drop(RequestKind::Commit, 0, 1);
                faults.schedule_drop(RequestKind::Advance, 1, 0);
            }
            backend.install_request_faults(faults.clone());
            backend.commit_round(
                vec![(0..60u64).map(|i| (k(i % 20), Value::scalar(i))).collect()],
                1,
            );
            let d0 = backend.advance(1);
            backend.commit_round(
                vec![(0..10u64).map(|i| (k(i), Value::pair(i, 1))).collect()],
                1,
            );
            let d1 = backend.advance(1);
            let mut entries0 = d0.entries();
            let mut entries1 = d1.entries();
            entries0.sort_by_key(|&(key, _)| key);
            entries1.sort_by_key(|&(key, _)| key);
            (entries0, entries1, backend.total_writes(), faults.dropped())
        };

        let (clean0, clean1, clean_writes, clean_fired) = run(false);
        let (faulty0, faulty1, faulty_writes, faulty_fired) = run(true);
        assert_eq!(clean_fired, 0);
        assert_eq!(faulty_fired, 3, "every scheduled fault must fire");
        // The duplicates really crossed the transport (pinned in
        // `transport::tests`); if the owner ever re-applied one, the
        // multiplicities and write totals here would double.
        assert_eq!(clean0, faulty0);
        assert_eq!(clean1, faulty1);
        assert_eq!(clean_writes, faulty_writes);
    }

    #[test]
    fn mpsc_retransmitted_requests_apply_exactly_once() {
        retransmitted_requests_apply_exactly_once::<MpscTransport>();
    }

    #[test]
    fn tcp_retransmitted_requests_apply_exactly_once() {
        retransmitted_requests_apply_exactly_once::<TcpTransport>();
    }
}
