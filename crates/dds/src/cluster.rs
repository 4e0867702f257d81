//! Cluster topology: connecting [`TcpBackend`] to one serving process or to
//! a cluster of them, or spawning a cluster of its own.
//!
//! [`crate::serve`] scales one owner *process* to many concurrent clients;
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
//!   that every owner advertises the *same* contiguous map for the
//!   requested shard count with one slice per connection.  The owner count
//!   is bounded by that map, not by a compile-time constant.
//! * **Routing and advance follow the map** — owners that advertised a map
//!   are routed by range and advanced through the two-phase barrier below;
//!   owners that advertised none (one plain [`crate::serve()`] process
//!   reached through [`TcpBackend::connect_remote`]) are routed by stride
//!   and take the one-shot `Advance`.  Commits, reads, `Loads` /
//!   `TotalWrites` / `Dump` fan-out and failure harvesting are the client's
//!   one code path either way.
//!
//! # The two-phase advance barrier
//!
//! ```text
//!  phase 1: FreezeEpoch(e) ──► every owner      (all must ack…)
//!                 owner: park writable epoch e as `prepared`
//!                        — invisible to Loads/Dump, commits for e+1 accepted
//!  phase 2: PublishEpoch(e) ──► every owner     (…before any publish)
//!                 owner: prepared → published, reply with the epoch frame
//! ```
//!
//! With one owner, `Advance` freezes and publishes atomically inside the
//! owner; across processes that atomicity has to be built.  No
//! `PublishEpoch` is sent until **every** owner has acked its freeze, so a
//! client can never observe a mixed epoch: either no owner has published
//! `e` (any failure before the last freeze ack aborts the advance with a
//! typed error and nothing published), or every owner is guaranteed to
//! publish `e` eventually — `FreezeEpoch` and `PublishEpoch` are both
//! idempotent under replay, so an owner severed mid-barrier reconnects,
//! replays, and re-acks/re-publishes the identical frozen data.  A
//! prepared-but-unpublished epoch survives reconnection inside the owner's
//! session state and is re-publishable exactly once-semantically, however
//! many times the publish is retransmitted.

use crate::proto::ShardMap;
use crate::remote::{spawn_owner, Routing, TcpBackend};
use crate::serve::ClusterRole;
use crate::transport::{TcpOptions, TcpTransport, TransportError};
use std::net::ToSocketAddrs;
use std::thread::JoinHandle;

impl TcpBackend {
    /// Open one leased connection per entry of `owners` (connection `i`
    /// leases as owner `i` of `owners.len()`, under one fresh session id),
    /// settle every handshake, and route by what the grants advertised.
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

    /// Settle every handshake of `clients` and route by what the grants
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
            Ok(map) => {
                let routing = match &map {
                    Some(map) => Routing::ranged(map),
                    None => Routing::interleaved(num_shards, clients.len()),
                };
                Ok(TcpBackend::over(clients, handles, routing, map))
            }
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
    /// node order (each started with [`crate::serve::serve_cluster`] over
    /// the identical peer list).
    ///
    /// Validates the topology before accepting it: every owner must
    /// advertise a shard map, all maps must be identical, contiguous, and
    /// sized for `num_shards` with one slice per connected owner.
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
    /// behind its own loopback connection and owning the contiguous shard
    /// range [`ClusterRole::shard_map`] gives it, plus the client connected
    /// to all of them.  The owners are started like
    /// [`crate::RemoteBackend::new`]'s and joined when the backend drops;
    /// the only difference is the shard map their grants advertise, from
    /// which the client picks range routing and the two-phase barrier.
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
        for (owner, ((client, server), slice)) in pairs.into_iter().zip(&map.owners).enumerate() {
            let shard_ids = (slice.start as usize..slice.end as usize).collect();
            let server = server.with_shard_map(Some(map.clone()));
            clients.push(client);
            handles.push(Some(spawn_owner(owner, shard_ids, server)));
        }
        Self::settle(clients, handles, num_shards)
    }
}

/// Settle on the one shard map every owner must advertise — `None` when no
/// owner advertises one (plain serving processes) — or say exactly which
/// owner disagrees and how.
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
    if map.owners.len() != owners.len() {
        return Err(TransportError::Protocol {
            worker: 0,
            message: format!(
                "owners advertise {} owners, client connected to {}",
                map.owners.len(),
                owners.len()
            ),
        });
    }
    if map.num_shards() != num_shards || !map.is_contiguous() {
        return Err(TransportError::Protocol {
            worker: 0,
            message: format!(
                "the owners' shard map does not tile [0, {num_shards}) contiguously: {:?}",
                map.owners
            ),
        });
    }
    Ok(Some(map.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DdsBackend, SnapshotView};
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::RequestKind;
    use crate::serve::serve_cluster;
    use crate::snapshot::Snapshot;
    use crate::transport::RequestFaults;

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
        let map = cluster
            .shard_map()
            .expect("cluster owners advertise a map")
            .clone();
        assert_eq!(map.owners.len(), 3);
        assert!(map.is_contiguous());
        assert_eq!(map.num_shards(), 8);

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
    fn owners_severed_mid_barrier_heal_without_a_mixed_epoch() {
        let run = |faulted: bool| {
            let mut cluster = TcpBackend::spawn_local(2, 8).unwrap();
            let faults = RequestFaults::none();
            if faulted {
                // Epoch 0's freeze on owner 0, epoch 1's publish on owner 1:
                // both phases of the barrier lose a connection mid-flight.
                faults.schedule_sever(RequestKind::FreezeEpoch, 0, 0);
                faults.schedule_sever(RequestKind::PublishEpoch, 1, 1);
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
            (entries0, entries1, cluster.total_writes(), faults.severed())
        };
        let (clean0, clean1, clean_writes, clean_severed) = run(false);
        let (fault0, fault1, fault_writes, fault_severed) = run(true);
        assert_eq!(clean_severed, 0);
        assert_eq!(fault_severed, 2, "both scheduled severs must fire");
        assert_eq!(clean0, fault0);
        assert_eq!(clean1, fault1);
        assert_eq!(clean_writes, fault_writes);
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
