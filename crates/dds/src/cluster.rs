//! Cluster topology: connecting [`TcpBackend`] to one serving process or to
//! a cluster of them, or spawning a cluster of its own.
//!
//! [`mod@crate::serve`] scales one owner *process* to many concurrent clients;
//! a cluster scales the store itself to many owners, each owning one
//! **contiguous range** of the shard space, and the ordinary wire client
//! ([`crate::RemoteBackend`]) with one connection per owner — `N = 1` is
//! simply a store served by one owner.  The owners are `N` standalone
//! [`crate::DdsServer`] processes (started with
//! [`crate::serve::serve_cluster`], reached with
//! [`TcpBackend::connect_cluster`]), or — [`TcpBackend::spawn_local`] — `N`
//! owner threads of this process, started and joined exactly like
//! [`crate::RemoteBackend::new`]'s, whose grants advertise the same map a
//! serving cluster of that size would.  What this module adds to the client
//! is how it gets there:
//!
//! * **Topology discovery** — every lease grant of a cluster owner carries
//!   the cluster's [`ShardMap`] (owner endpoints × shard ranges,
//!   epoch-stamped).  The client settles every handshake and validates
//!   that every owner advertises the *same* map, and that its ranges are
//!   the placement ([`owner_range`]) of the requested shard count over the
//!   connections.  The owner count is bounded by that map, not by a
//!   compile-time constant.
//! * **Placement follows the lease, not the map** — connection `i` of `N`
//!   leases as owner `i` of `N`, and the owner behind it holds
//!   `owner_range(i, N, S)`, so the endpoints may be listed in any order.
//!   Commits, the one-shot `Advance`, reads, `Loads` / `TotalWrites` /
//!   `Dump` fan-out and failure harvesting are the client's one code path,
//!   whether or not the owners advertised a map (one plain
//!   [`crate::serve()`] process reached through
//!   [`TcpBackend::connect_remote`] advertises none).
//!
//! # One advance
//!
//! A cluster advances like any owner set: the client sends `Advance(e)` to
//! every owner and builds the [`crate::Snapshot`] of `e` only from all of
//! their replies.  Owners publish independently, so one may have published
//! `e` while another has not frozen it yet, or is being reconnected.  No
//! round can observe that mixed state:
//!
//! * a snapshot exists only once every owner has answered;
//! * every owner serves one `(session, worker)` alone (a serving process
//!   keeps per-session owners), so no other client reads this session's
//!   epochs;
//! * `Advance` is idempotent under replay — an owner severed before its
//!   `Advance` reconnects, the replayed request freezes its writable epoch,
//!   and one replayed after the publish re-sends the same frozen epoch.
//!
//! A two-phase `FreezeEpoch` / `PublishEpoch` barrier once made the
//! freeze atomic across owners.  It guarded against a mixed epoch nobody
//! can read, so it is retired: every owner refuses both requests.

use crate::proto::ShardMap;
use crate::remote::{owner_range, spawn_owner, TcpBackend};
use crate::serve::ClusterRole;
use crate::transport::{TcpOptions, TcpTransport, TransportError};
use std::net::ToSocketAddrs;
use std::thread::JoinHandle;

impl TcpBackend {
    /// Open one leased connection per entry of `owners` (connection `i`
    /// leases as owner `i` of `owners.len()`, under one fresh session id)
    /// and settle every handshake.
    fn connect_owners(
        owners: &[impl ToSocketAddrs],
        num_shards: usize,
    ) -> Result<Self, TransportError> {
        let options = TcpOptions::fresh().with_topology(num_shards, owners.len());
        let mut clients = Vec::with_capacity(owners.len());
        for (owner, endpoint) in owners.iter().enumerate() {
            clients.push(TcpTransport::connect_to(endpoint, owner, options.clone())?);
        }
        Self::settle(clients, Vec::new(), num_shards)
    }

    /// Settle every handshake of `clients` and check the map the grants
    /// advertised.  If that fails, the owner threads in `handles` (owner
    /// `i` behind `clients[i]`) are hung up on and joined before the error
    /// returns, like a dropped backend's.
    fn settle(
        mut clients: Vec<TcpTransport>,
        handles: Vec<Option<JoinHandle<()>>>,
        num_shards: usize,
    ) -> Result<Self, TransportError> {
        let settled = clients
            .iter_mut()
            .try_for_each(TcpTransport::finish_handshake)
            .and_then(|()| validated_shard_map(&clients, num_shards));
        match settled {
            Ok(map) => Ok(TcpBackend::over(clients, handles, num_shards, map)),
            Err(err) => {
                drop(clients);
                for handle in handles.into_iter().flatten() {
                    let _ = handle.join();
                }
                Err(err)
            }
        }
    }

    /// Connect to an already-running owner process (`ampc_dds::serve`) at
    /// `endpoint` instead of spawning in-process owner threads.
    ///
    /// The backend opens `workers` leased connections (clamped to
    /// `[1, num_shards]`) under a fresh session id; the serving process
    /// derives each owner's shard group from the topology announced in the
    /// lease and keeps per-session state, so any number of concurrent
    /// clients can share one owner process.  Dropping the backend says
    /// goodbye on every connection, releasing the session immediately.
    pub fn connect_remote(
        endpoint: impl ToSocketAddrs,
        num_shards: usize,
        workers: usize,
    ) -> Result<Self, TransportError> {
        let num_shards = num_shards.max(1);
        Self::connect_owners(&vec![&endpoint; workers.clamp(1, num_shards)], num_shards)
    }

    /// Connect to already-running cluster owners, one endpoint per node in
    /// any order (each started with [`crate::serve::serve_cluster`] over
    /// the identical peer list).
    ///
    /// Validates the topology before accepting it: every owner must
    /// advertise a shard map, all maps must be identical, and their ranges
    /// must be the placement of `num_shards` over the connected owners.
    pub fn connect_cluster(
        endpoints: &[String],
        num_shards: usize,
    ) -> Result<Self, TransportError> {
        let backend = Self::connect_owners(endpoints, num_shards.max(1))?;
        if backend.shard_map().is_none() {
            return Err(TransportError::Protocol {
                worker: 0,
                message: "owner granted a lease without a cluster shard map".to_string(),
            });
        }
        Ok(backend)
    }

    /// Spawn a self-contained local cluster: `owners` owner threads, each
    /// behind its own loopback connection and owning its [`owner_range`],
    /// plus the client connected to all of them.  The owners are started
    /// like [`crate::RemoteBackend::new`]'s and joined when the backend
    /// drops; the only difference is the shard map their grants advertise,
    /// which the client validates like a serving cluster's.
    pub fn spawn_local(owners: usize, num_shards: usize) -> Result<Self, TransportError> {
        let num_shards = num_shards.max(1);
        let options = TcpOptions::fresh().with_topology(num_shards, owners);
        let mut pairs = Vec::with_capacity(owners);
        for owner in 0..owners {
            pairs.push(TcpTransport::connect_pair(owner, options.clone())?);
        }
        let role = ClusterRole {
            node: 0,
            peers: pairs
                .iter()
                .map(|(client, _)| client.endpoint().to_string())
                .collect(),
            map_epoch: 1,
        };
        let map = role.shard_map(num_shards);
        let mut clients = Vec::with_capacity(owners);
        let mut handles = Vec::with_capacity(owners);
        for (owner, (client, server)) in pairs.into_iter().enumerate() {
            let shards = owner_range(owner, owners, num_shards);
            let server = server.with_shard_map(Some(map.clone()));
            clients.push(client);
            handles.push(Some(spawn_owner(owner, shards, server)));
        }
        Self::settle(clients, handles, num_shards)
    }
}

/// Settle on the one shard map every owner must advertise — `None` when no
/// owner advertises one (plain serving processes) — or say exactly which
/// owner disagrees and how.  A map must be the placement the client routes
/// by: slice `i` is [`owner_range`]`(i, owners.len(), num_shards)`.
fn validated_shard_map(
    owners: &[TcpTransport],
    num_shards: usize,
) -> Result<Option<ShardMap>, TransportError> {
    let Some(first) = owners.first() else {
        return Err(TransportError::Protocol {
            worker: 0,
            message: "a cluster needs at least one owner".to_string(),
        });
    };
    let settled = first.shard_map();
    for (node, owner) in owners.iter().enumerate() {
        let map = owner.shard_map();
        if map != settled {
            return Err(TransportError::Protocol {
                worker: node,
                message: format!(
                    "owners disagree on the topology: node 0 advertises {settled:?}, \
                     node {node} advertises {map:?}"
                ),
            });
        }
    }
    let Some(map) = settled else {
        return Ok(None);
    };
    let placed = (0..owners.len()).map(|owner| owner_range(owner, owners.len(), num_shards));
    let advertised = map
        .owners
        .iter()
        .map(|slice| slice.start as usize..slice.end as usize);
    if !advertised.eq(placed) {
        return Err(TransportError::Protocol {
            worker: 0,
            message: format!(
                "the owners' shard map is not the placement of {num_shards} shards over the \
                 {} connected owners: {:?}",
                owners.len(),
                map.owners
            ),
        });
    }
    Ok(Some(map.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DdsBackend;
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::OwnerSlice;
    use crate::proto::RequestKind;
    use crate::remote::{ChannelBackend, RemoteBackend};
    use crate::serve::{serve_cluster, serve_cluster_listener};
    use crate::snapshot::Snapshot;
    use crate::transport::{RequestFaults, Transport};
    use std::collections::BTreeMap;
    use std::net::TcpListener;
    use std::ops::Range;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn full_round(backend: &mut TcpBackend) -> Snapshot {
        backend.commit_round(
            vec![
                (0..64u64).map(|i| (k(i % 24), Value::scalar(i))).collect(),
                vec![(k(3), Value::pair(7, 8))],
            ],
            1,
        );
        backend.advance(1)
    }

    #[test]
    fn a_local_cluster_serves_commits_and_advances() {
        let mut cluster = TcpBackend::spawn_local(3, 8).unwrap();
        let map = cluster.shard_map().expect("cluster owners advertise a map");
        assert_eq!(ranges(map), vec![0..2, 2..5, 5..8]);

        let view = full_round(&mut cluster);
        assert_eq!(view.len(), 24);
        assert_eq!(view.get(&k(3)), Some(Value::scalar(3)));
        assert_eq!(view.get_all(&k(3)).len(), 4, "3, 27, 51 and the pair");
        assert_eq!(cluster.total_writes(), 65);

        // Owner-served dumps agree with the client-side replicas.
        let mut local = view.entries();
        let mut served = cluster.epoch_entries(0).unwrap();
        local.sort_by_key(|&(key, _)| key);
        served.sort_by_key(|&(key, _)| key);
        assert_eq!(local, served);

        // And the merged loads cover every global shard exactly once.
        let loads = cluster.epoch_loads(0).unwrap();
        assert_eq!(
            loads.iter().map(|load| load.shard).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cluster_results_match_a_single_owner_byte_for_byte() {
        let mut single = TcpBackend::spawn_local(1, 8).unwrap();
        let mut multi = TcpBackend::spawn_local(4, 8).unwrap();
        let single_view = full_round(&mut single);
        let multi_view = full_round(&mut multi);
        let mut lhs = single_view.entries();
        let mut rhs = multi_view.entries();
        lhs.sort_by_key(|&(key, _)| key);
        rhs.sort_by_key(|&(key, _)| key);
        assert_eq!(lhs, rhs);
        assert_eq!(single.total_writes(), multi.total_writes());
        // Same global shard space, so the per-shard write loads also agree.
        let lhs = single.epoch_loads(0).unwrap();
        let rhs = multi.epoch_loads(0).unwrap();
        assert_eq!(lhs.len(), rhs.len());
        for (l, r) in lhs.iter().zip(&rhs) {
            assert_eq!((l.shard, l.keys, l.writes), (r.shard, r.keys, r.writes));
        }
    }

    #[test]
    fn owners_severed_around_a_published_epoch_heal_byte_identically() {
        let run = |faulted: bool| {
            let mut cluster = TcpBackend::spawn_local(2, 8).unwrap();
            let faults = RequestFaults::none();
            if faulted {
                // Owner 0 is cut before epoch 0's advance.  For epoch 1,
                // owner 0's reply is lost and its advance resent, so it has
                // published epoch 1 before owner 1 is cut ahead of its own.
                faults.schedule_sever(RequestKind::Advance, 0, 0);
                faults.schedule_drop(RequestKind::Advance, 1, 0);
                faults.schedule_sever(RequestKind::Advance, 1, 1);
            }
            cluster.install_request_faults(faults.clone());
            let d0 = full_round(&mut cluster);
            cluster.commit_round(
                vec![(0..10u64).map(|i| (k(i), Value::pair(i, 1))).collect()],
                1,
            );
            let d1 = cluster.advance(1);
            let mut entries0 = d0.entries();
            let mut entries1 = d1.entries();
            entries0.sort_by_key(|&(key, _)| key);
            entries1.sort_by_key(|&(key, _)| key);
            let fired = (faults.severed(), faults.dropped());
            (entries0, entries1, cluster.total_writes(), fired)
        };
        let (clean0, clean1, clean_writes, clean_fired) = run(false);
        let (fault0, fault1, fault_writes, fault_fired) = run(true);
        assert_eq!(clean_fired, (0, 0));
        assert_eq!(fault_fired, (2, 1), "every scheduled fault must fire");
        assert_eq!(clean0, fault0);
        assert_eq!(clean1, fault1);
        assert_eq!(clean_writes, fault_writes);
    }

    /// Why one `Advance` per owner is enough: an owner's epochs belong to
    /// one session.  Two leased sessions on the same two serving owners
    /// interleave their commits and advances — each session's advances
    /// land between the other's commits, and the two sessions stand on
    /// different epoch numbers — and each reads back only its own pairs,
    /// through every snapshot and through `TotalWrites`.
    #[test]
    fn interleaved_sessions_on_one_cluster_read_only_their_own_pairs() {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|listener| listener.local_addr().unwrap().to_string())
            .collect();
        let nodes: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(node, listener)| serve_cluster_listener(listener, node, peers.clone()).unwrap())
            .collect();
        /// One leased session and what it wrote since its last advance.
        struct Session {
            backend: TcpBackend,
            pending: BTreeMap<Key, Vec<Value>>,
            written: u64,
            advances: usize,
        }
        impl Session {
            /// Commit the same 24 keys as the other session; the value
            /// names the writer.
            fn commit(&mut self, writer: u64, step: u64) {
                let batch: Vec<(Key, Value)> = (0..24u64)
                    .map(|i| (k(i), Value::pair(writer, step * 100 + i)))
                    .collect();
                for &(key, value) in &batch {
                    self.pending.entry(key).or_default().push(value);
                }
                self.written += batch.len() as u64;
                self.backend.commit_round(vec![batch], 1);
            }

            fn advance_and_check(&mut self, writer: u64) {
                let mut entries = self.backend.advance(1).entries();
                entries.sort_by_key(|&(key, _)| key);
                let expected: Vec<_> = std::mem::take(&mut self.pending).into_iter().collect();
                let context = format!("session {writer}, epoch {}", self.advances);
                assert_eq!(entries, expected, "{context}");
                self.advances += 1;
            }
        }
        let mut sessions: Vec<Session> = (0..2)
            .map(|_| Session {
                backend: TcpBackend::connect_cluster(&peers, 8).unwrap(),
                pending: BTreeMap::new(),
                written: 0,
                advances: 0,
            })
            .collect();
        for step in 0..6u64 {
            sessions[0].commit(0, step);
            sessions[1].commit(1, step);
            // Session 0 advances every step, session 1 every other step,
            // each between two commits of the other.
            let order: &[usize] = if step % 2 == 0 { &[0] } else { &[1, 0] };
            for &id in order {
                sessions[id].advance_and_check(id as u64);
                sessions[1 - id].commit(1 - id as u64, step + 50);
            }
            for (id, session) in sessions.iter_mut().enumerate() {
                let total = session.backend.total_writes();
                assert_eq!(total, session.written, "session {id}, step {step}");
            }
        }
        let advances: Vec<usize> = sessions.iter().map(|session| session.advances).collect();
        assert_eq!(advances, [6, 3]);
        drop(sessions);
        for node in nodes {
            node.shutdown();
        }
    }

    /// Owner-served loads label every shard as the view places it, on
    /// keys and writes (a wire view counts its reads client-side).
    fn assert_owner_loads_match_the_view<T: Transport>(
        backend: &mut RemoteBackend<T>,
        view: &Snapshot,
        context: &str,
    ) {
        let served: Vec<_> = backend.epoch_loads(0).unwrap();
        let served: Vec<_> = served.iter().map(|l| (l.shard, l.keys, l.writes)).collect();
        let local: Vec<_> = view.shard_loads();
        let local: Vec<_> = local.iter().map(|l| (l.shard, l.keys, l.writes)).collect();
        assert_eq!(served, local, "{context}");
    }

    fn ranges(map: &ShardMap) -> Vec<Range<usize>> {
        let slices = map.owners.iter();
        slices
            .map(|slice| slice.start as usize..slice.end as usize)
            .collect()
    }

    fn commit_keys<T: Transport>(backend: &mut RemoteBackend<T>, keys: u64) {
        let batch = (0..keys).map(|i| (k(i), Value::scalar(i))).collect();
        backend.commit_round(vec![batch], 1);
    }

    #[test]
    fn endpoints_in_any_order_serve_one_store() {
        for num_shards in [7, 8] {
            let listeners: Vec<TcpListener> = (0..2)
                .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
                .collect();
            let peers: Vec<String> = listeners
                .iter()
                .map(|listener| listener.local_addr().unwrap().to_string())
                .collect();
            let nodes: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(node, listener)| {
                    serve_cluster_listener(listener, node, peers.clone()).unwrap()
                })
                .collect();
            let reversed: Vec<String> = peers.iter().rev().cloned().collect();
            let mut backend = TcpBackend::connect_cluster(&reversed, num_shards).unwrap();
            commit_keys(&mut backend, 64);
            let view = backend.advance(1);

            let mut entries = view.entries();
            entries.sort_by_key(|&(key, _)| key);
            let expected: Vec<_> = (0..64u64).map(|i| (k(i), vec![Value::scalar(i)])).collect();
            assert_eq!(entries, expected, "{num_shards} shards");
            let context = format!("{num_shards} shards, endpoints reversed");
            assert_owner_loads_match_the_view(&mut backend, &view, &context);

            drop(backend);
            for node in nodes {
                node.shutdown();
            }
        }
    }

    #[test]
    fn every_backend_places_shards_by_one_rule() {
        for num_shards in 1..=64usize {
            for owners in 1..=8usize {
                let context = format!("{num_shards} shards over {owners} owners");
                let placed: Vec<Range<usize>> = (0..owners)
                    .map(|owner| owner_range(owner, owners, num_shards))
                    .collect();
                // Every shard exactly once, in owner order, the owners'
                // sizes within one of each other.
                let concatenated: Vec<usize> = placed.iter().cloned().flatten().collect();
                assert_eq!(
                    concatenated,
                    (0..num_shards).collect::<Vec<_>>(),
                    "{context}"
                );
                let sizes = placed.iter().map(Range::len);
                let spread = sizes.clone().max().unwrap() - sizes.min().unwrap();
                assert!(spread <= 1, "{context}: sizes spread by {spread}");

                // The table each backend routes by, from the rule alone.
                let table = |owners: usize| -> Vec<(u32, u32)> {
                    (0..num_shards)
                        .map(|shard| {
                            let owner = (0..owners)
                                .find(|&owner| {
                                    owner_range(owner, owners, num_shards).contains(&shard)
                                })
                                .unwrap();
                            let start = owner_range(owner, owners, num_shards).start;
                            (owner as u32, (shard - start) as u32)
                        })
                        .collect()
                };

                // In-process owners are clamped to the shard count; a local
                // cluster keeps its empty ranges.
                let mut channel = ChannelBackend::new(num_shards, owners);
                let clamped = owners.min(num_shards);
                assert_eq!(channel.routing_table(), table(clamped), "{context}");
                commit_keys(&mut channel, 96);
                let view = channel.advance(1);
                assert_owner_loads_match_the_view(&mut channel, &view, &context);

                let mut cluster = TcpBackend::spawn_local(owners, num_shards).unwrap();
                assert_eq!(cluster.routing_table(), table(owners), "{context}");
                commit_keys(&mut cluster, 96);
                let view = cluster.advance(1);
                assert_owner_loads_match_the_view(&mut cluster, &view, &context);

                let role = ClusterRole {
                    node: 0,
                    peers: (0..owners)
                        .map(|owner| format!("owner-{owner}:1"))
                        .collect(),
                    map_epoch: 1,
                };
                assert_eq!(ranges(&role.shard_map(num_shards)), placed, "{context}");
                assert_eq!(ranges(cluster.shard_map().unwrap()), placed, "{context}");
            }
        }
    }

    #[test]
    fn a_map_that_is_not_the_placement_is_refused_at_connect() {
        // Contiguous, identical on both owners, and tiling all 8 shards —
        // but owner 0 of 2 holds [0, 4), not [0, 3).
        let slice = |start, end| OwnerSlice {
            endpoint: "x:1".to_owned(),
            start,
            end,
        };
        let map = ShardMap {
            epoch: 1,
            owners: vec![slice(0, 3), slice(3, 8)],
        };
        let options = TcpOptions::fresh().with_topology(8, 2);
        let mut clients = Vec::new();
        let mut handles = Vec::new();
        for owner in 0..2 {
            let (client, server) = TcpTransport::connect_pair(owner, options.clone()).unwrap();
            let server = server.with_shard_map(Some(map.clone()));
            clients.push(client);
            handles.push(Some(spawn_owner(owner, owner_range(owner, 2, 8), server)));
        }
        match TcpBackend::settle(clients, handles, 8).unwrap_err() {
            TransportError::Protocol { worker, message } => {
                assert_eq!(worker, 0);
                assert!(message.contains("not the placement"), "{message}");
            }
            other => panic!("expected a placement mismatch, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_topologies_are_rejected_with_a_typed_error() {
        // Two "clusters" that each think they are a different topology: the
        // client connects to one owner of each and must refuse the splice.
        let a = serve_cluster(("127.0.0.1", 0), 0, vec!["a:1".into(), "b:2".into()]).unwrap();
        let b = serve_cluster(("127.0.0.1", 0), 0, vec!["c:3".into(), "d:4".into()]).unwrap();
        let endpoints = vec![a.local_addr().to_string(), b.local_addr().to_string()];
        let err = TcpBackend::connect_cluster(&endpoints, 8).unwrap_err();
        match err {
            TransportError::Protocol { worker, message } => {
                assert_eq!(worker, 1);
                assert!(message.contains("disagree"), "{message}");
            }
            other => panic!("expected a topology mismatch, got {other:?}"),
        }

        // A plain (non-cluster) server advertises no map at all.
        let plain = crate::serve::serve(("127.0.0.1", 0)).unwrap();
        let endpoints = vec![plain.local_addr().to_string()];
        let err = TcpBackend::connect_cluster(&endpoints, 8).unwrap_err();
        match err {
            TransportError::Protocol { message, .. } => {
                assert!(message.contains("without a cluster shard map"), "{message}");
            }
            other => panic!("expected a missing-map error, got {other:?}"),
        }

        // And no owners at all are no store.
        assert!(TcpBackend::spawn_local(0, 8).is_err());
    }
}
