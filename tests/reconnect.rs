//! Connection-lifecycle conformance: mid-round TCP disconnects must be
//! survived via reconnect + idempotent replay, with byte-identical outputs.
//!
//! The AMPC fault-tolerance story (paper Section 2.1) rests on immutable
//! epochs: a failed machine re-executes against the same snapshot, a lost
//! request is retransmitted and deduplicated.  PR 4 proved that for lost
//! *replies*; this suite proves the stronger property for lost
//! *connections* — the socket is cut mid-round ([`FaultPlan::sever_connection`]
//! / [`FaultPlan::sever_before_advance`]), the transport reconnects with
//! backoff, replays its lease handshake and the outstanding requests, and
//! the run is byte-identical to a fault-free one, across thread counts.
//!
//! The second half exercises the multi-process shape: runtimes serving
//! their DDS from an external `ampc_dds::serve` owner process or from
//! `serve_cluster` owners, including concurrent isolated sessions and
//! disconnect-recovery against them.

use ampc_suite::dds::{serve, Key, KeyTag, Value};
use ampc_suite::prelude::*;

fn key(v: u64) -> Key {
    Key::of(KeyTag::Scalar, v)
}

/// A two-round adaptive workload with enough writes that every owner
/// receives commit traffic; returns everything observable (results, echoed
/// reads, the sorted final store, stats, and the fault counters: severed
/// connections, then dropped replies).
type Observed = (
    Vec<u64>,
    Vec<Vec<Option<u64>>>,
    Vec<(Key, Vec<Value>)>,
    Vec<u64>,
    u64,
    u64,
);

fn run_workload(config: AmpcConfig, plan: FaultPlan) -> Observed {
    let mut rt = AmpcRuntime::new(config).with_fault_plan(plan);
    rt.load_input((0..100u64).map(|i| (key(i), Value::scalar(i))));
    let sums = rt
        .run_round(8, |ctx| {
            let id = ctx.machine_id() as u64;
            let mut sum = 0;
            for i in 0..8u64 {
                let k = id * 8 + i;
                sum += ctx.read(key(k)).map_or(0, |v| v.x);
                ctx.write(key(1_000 + k), Value::scalar(k * 3));
            }
            sum
        })
        .unwrap();
    let echoed = rt
        .run_round(8, |ctx| {
            let id = ctx.machine_id() as u64;
            let echoed: Vec<_> = (0..8u64)
                .map(|i| ctx.read(key(1_000 + id * 8 + i)).map(|v| v.x))
                .collect();
            // The final store is this round's epoch: write into it, or the
            // store compared below is empty.
            let sum = echoed.iter().flatten().sum();
            ctx.write(key(2_000 + id), Value::scalar(sum));
            echoed
        })
        .unwrap();
    let mut entries = rt.snapshot().entries();
    entries.sort_by_key(|&(key, _)| key);
    let queries: Vec<u64> = rt
        .stats()
        .rounds
        .iter()
        .map(|round| round.total_queries)
        .collect();
    (
        sums,
        echoed,
        entries,
        queries,
        rt.severed_connections(),
        rt.dropped_requests(),
    )
}

#[test]
fn severed_connections_reconnect_and_replay_byte_identically() {
    // Epoch coordinates: load_input builds epoch 0, round 0's commit
    // targets epoch 1, round 1's advance freezes epoch 2.  Worker 0 exists
    // on every thread count, so both severs fire on every shape.
    for threads in [1usize, 2, 8] {
        let config = || {
            AmpcConfig::for_graph(1_000, 1_000, 0.5)
                .with_threads(threads)
                .with_backend(DdsBackendKind::Remote)
        };
        let clean = run_workload(config(), FaultPlan::none());
        assert_eq!(clean.4, 0, "fault-free runs sever nothing");

        let plan = FaultPlan::none()
            .sever_connection(1, 0) // kill the socket before round 0's commit
            .sever_before_advance(2, 0); // and again before round 1's freeze
        let severed = run_workload(config(), plan);
        assert_eq!(
            severed.4, 2,
            "both scheduled severs must fire with {threads} threads"
        );
        assert_eq!(
            (&clean.0, &clean.1, &clean.2, &clean.3),
            (&severed.0, &severed.1, &severed.2, &severed.3),
            "a severed run must be byte-identical with {threads} threads"
        );
    }
}

/// The cluster's hardest sever: owner 1 is cut before the `Advance` of an
/// epoch that owner 0 has already published.  Cluster epoch coordinates:
/// the advance after `load_input` freezes epoch 0, round 0's epoch 1 (the
/// pairs round 1 echoes), round 1's epoch 2.  In round 0, owner 0's reply
/// to its `Advance` is lost and the request resent, so owner 0 has
/// published epoch 1 by the time owner 1's connection is cut ahead of its
/// own `Advance` (the client sends an advance to the owners in order).
/// Owner 0 is then cut before round 1's `Advance`.
fn published_epoch_severs() -> FaultPlan {
    FaultPlan::none()
        .drop_advance(1, 0)
        .sever_before_advance(1, 1)
        .sever_before_advance(2, 0)
}

#[test]
fn cluster_owners_severed_around_a_published_epoch_heal_byte_identically() {
    // Both heals must leave every observable byte identical to a
    // fault-free cluster run, on every thread count.
    for threads in [1usize, 2, 8] {
        let config = || {
            AmpcConfig::for_graph(1_000, 1_000, 0.5)
                .with_threads(threads)
                .with_cluster_owners(2)
                .expect("two owners are in range")
        };
        let clean = run_workload(config(), FaultPlan::none());
        assert_eq!((clean.4, clean.5), (0, 0), "fault-free runs fault nothing");

        let severed = run_workload(config(), published_epoch_severs());
        assert_eq!(
            (severed.4, severed.5),
            (2, 1),
            "both severs and the lost reply must fire with {threads} threads"
        );
        assert_eq!(
            (&clean.0, &clean.1, &clean.2, &clean.3),
            (&severed.0, &severed.1, &severed.2, &severed.3),
            "a cluster severed around a published epoch must heal byte-identically with {threads} threads"
        );
    }
}

#[test]
fn severs_are_ignored_by_backends_without_connections() {
    for backend in [DdsBackendKind::Local, DdsBackendKind::Channel] {
        let config = AmpcConfig::for_graph(1_000, 1_000, 0.5)
            .with_threads(2)
            .with_backend(backend);
        let clean = run_workload(config.clone(), FaultPlan::none());
        let planned = run_workload(config, FaultPlan::none().sever_connection(1, 0));
        assert_eq!(planned.4, 0, "{backend:?} has no connection to sever");
        assert_eq!(clean.0, planned.0);
        assert_eq!(clean.2, planned.2);
    }
}

#[test]
fn severed_pipelines_replay_byte_identically_across_client_counts() {
    use ampc_suite::dds::proto::{Reply, Request, RequestKind};
    use ampc_suite::dds::transport::ClientReply;
    use ampc_suite::dds::{RequestFaults, TcpOptions, TcpTransport, Transport};

    let server = serve(("127.0.0.1", 0)).expect("binding the DDS owner process");
    let addr = server.local_addr();

    let commit = |seq: u64| Request::Commit {
        epoch: 0,
        seq,
        batches: vec![(0, vec![(key(seq), Value::scalar(seq * 7))])],
    };

    // One leased session: pipeline six commits with no reply consumed,
    // (optionally) sever the socket with the whole pipeline outstanding,
    // pipeline six more, then freeze, and report everything observable
    // about the session's store.
    let run_session = |faulted: bool| -> (Vec<(Key, Vec<Value>)>, u64, u64) {
        let options = TcpOptions::fresh().with_topology(1, 1);
        let mut client = TcpTransport::connect_to(addr, 0, options).expect("leasing a session");
        let faults = RequestFaults::none();
        client.install_faults(faults.clone());

        for seq in 0..6 {
            client.send(commit(seq)).unwrap();
        }
        // The seventh commit cuts the connection with all six still
        // unanswered: the reconnect must replay the full pipeline in
        // order, and the dispatch window must re-ack (not re-apply) the
        // prefix the owner already committed.
        if faulted {
            faults.schedule_sever(RequestKind::Commit, 0, 0);
        }
        for seq in 6..12 {
            client.send(commit(seq)).unwrap();
        }
        for seq in 0..12u64 {
            match client.recv().unwrap() {
                ClientReply::Wire(Reply::Committed { epoch, accepted }) => {
                    assert_eq!((epoch, accepted), (0, 1), "ack of commit {seq}");
                }
                _ => panic!("commit {seq} must be acknowledged in FIFO order"),
            }
        }
        client.send(Request::Advance { epoch: 0 }).unwrap();
        let ClientReply::SharedEpoch(_) = client.recv().unwrap() else {
            panic!("advance must publish the frozen epoch");
        };
        client.send(Request::TotalWrites).unwrap();
        let ClientReply::Wire(Reply::TotalWrites(writes)) = client.recv().unwrap() else {
            panic!("total-writes must be answered");
        };
        client.send(Request::Dump { epoch: 0 }).unwrap();
        let ClientReply::Wire(Reply::Dump(mut entries)) = client.recv().unwrap() else {
            panic!("dump must be answered");
        };
        entries.sort_by_key(|&(key, _)| key);
        (entries, writes, faults.severed())
    };

    // Sessions are isolated, so every client (clean or severed, alone or
    // among eight concurrent peers) must observe the identical store.
    let baseline = run_session(false);
    assert_eq!(baseline.1, 12, "twelve commits, one pair each");
    assert_eq!(baseline.2, 0, "fault-free sessions sever nothing");

    for clients in [1usize, 2, 8] {
        let observed: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let run_session = &run_session;
                    scope.spawn(move || (run_session(false), run_session(true)))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        });
        for (clean, severed) in observed {
            assert_eq!(severed.2, 1, "the mid-pipeline sever must fire");
            assert_eq!(
                (&clean.0, clean.1),
                (&severed.0, severed.1),
                "a severed full pipeline must replay byte-identically ({clients} clients)"
            );
            assert_eq!(
                (&baseline.0, baseline.1),
                (&clean.0, clean.1),
                "concurrent sessions must not bleed ({clients} clients)"
            );
        }
    }
    server.shutdown();
}

#[test]
fn runtimes_serve_rounds_from_an_external_owner_process() {
    let server = serve(("127.0.0.1", 0)).expect("binding the DDS owner process");
    let endpoint = server.local_addr().to_string();

    // The same workload on the in-process local backend and against the
    // external owner process must be byte-identical.
    let local = run_workload(
        AmpcConfig::for_graph(1_000, 1_000, 0.5).with_threads(2),
        FaultPlan::none(),
    );
    let remote = run_workload(
        AmpcConfig::for_graph(1_000, 1_000, 0.5)
            .with_threads(2)
            .with_remote_endpoint(endpoint.clone()),
        FaultPlan::none(),
    );
    assert_eq!(
        (&local.0, &local.1, &local.2, &local.3),
        (&remote.0, &remote.1, &remote.2, &remote.3),
        "external serving must be observationally identical"
    );

    // Mid-round disconnects against the external process heal the same
    // way: reconnect, replay, byte-identical.
    let severed = run_workload(
        AmpcConfig::for_graph(1_000, 1_000, 0.5)
            .with_threads(2)
            .with_remote_endpoint(endpoint.clone()),
        FaultPlan::none().sever_connection(1, 0),
    );
    assert_eq!(severed.4, 1, "the sever must fire against the server");
    assert_eq!(&local.2, &severed.2, "the healed store must match");

    // A full algorithm driver — which derives sub-configs and spawns
    // several runtimes, each with its own leased session — runs unchanged
    // against the owner process.
    let graph = generators::two_cycle_instance(400, true, 42);
    let config = AmpcConfig::for_graph(400, graph.num_edges(), 0.5)
        .with_seed(42)
        .with_remote_endpoint(endpoint);
    let answer = two_cycle_with(&graph, &config);
    assert_eq!(answer.output, TwoCycleAnswer::TwoCycles);

    server.shutdown();
}

#[test]
fn runtimes_serve_rounds_from_external_cluster_owners() {
    use ampc_suite::algorithms::two_edge_connectivity_with;
    use ampc_suite::dds::serve::serve_cluster_listener;
    use std::net::TcpListener;

    // Two cluster owners behind `serve_cluster`'s acceptor, the shape
    // `--serve-cluster` runs as separate processes.  A local cluster's
    // owners are threads behind private connections, so this is where the
    // acceptor's lease routing, the session hand-off and the advertised
    // shard map meet the advance and its faults.
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("binding a cluster owner"))
        .collect();
    let peers: Vec<String> = listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap().to_string())
        .collect();
    let owners: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(node, listener)| {
            serve_cluster_listener(listener, node, peers.clone()).expect("starting a cluster owner")
        })
        .collect();
    let on_owners = |config: AmpcConfig| {
        config
            .with_cluster_endpoints(peers.clone())
            .expect("two endpoints are a valid list")
    };
    let config = || AmpcConfig::for_graph(1_000, 1_000, 0.5).with_threads(2);

    let local = run_workload(config(), FaultPlan::none());
    let clean = run_workload(on_owners(config()), FaultPlan::none());
    assert_eq!(clean.4, 0, "fault-free runs sever nothing");
    assert_eq!(
        (&local.0, &local.1, &local.2, &local.3),
        (&clean.0, &clean.1, &clean.2, &clean.3),
        "serving cluster owners must be observationally identical to local"
    );

    // The same severs as the local cluster's: both owners reconnect
    // through the acceptor, which hands each back to its session — owner 1
    // with its writable epoch intact while owner 0 has already published.
    let severed = run_workload(on_owners(config()), published_epoch_severs());
    assert_eq!(
        (severed.4, severed.5),
        (2, 1),
        "every scheduled fault must fire"
    );
    assert_eq!(
        (&local.0, &local.1, &local.2, &local.3),
        (&severed.0, &severed.1, &severed.2, &severed.3),
        "cluster owners severed around a published epoch must heal byte-identically to local"
    );

    // A full algorithm driver — three stages, each a fresh leased session
    // per owner — runs unchanged against the owners.
    let graph = generators::bridged_blocks(5, 4, 2, 8);
    let config = AmpcConfig::for_graph(graph.num_vertices(), graph.num_edges(), 0.5).with_seed(42);
    let expected = two_edge_connectivity_with(&graph, &config).output;
    let served = two_edge_connectivity_with(&graph, &on_owners(config)).output;
    assert_eq!(
        (
            &expected.bridges,
            &expected.two_edge_components,
            &expected.connectivity
        ),
        (
            &served.bridges,
            &served.two_edge_components,
            &served.connectivity
        ),
        "2-edge connectivity against the serving owners must match local"
    );

    for owner in owners {
        owner.shutdown();
    }
}

#[test]
fn concurrent_runtimes_hold_isolated_sessions_against_one_server() {
    let server = serve(("127.0.0.1", 0)).expect("binding the DDS owner process");
    let endpoint = server.local_addr().to_string();

    // Two concurrent runtimes, same key space, different values: sessions
    // must not bleed into each other.
    let run = |offset: u64, endpoint: String| {
        let config = AmpcConfig::for_graph(500, 500, 0.5)
            .with_threads(2)
            .with_remote_endpoint(endpoint);
        let mut rt = AmpcRuntime::new(config);
        rt.load_input((0..50u64).map(|i| (key(i), Value::scalar(i + offset))));
        rt.run_round(4, |ctx| {
            let id = ctx.machine_id() as u64;
            ctx.read(key(id)).map(|v| v.x)
        })
        .unwrap()
    };
    let (alpha, beta) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run(0, endpoint.clone()));
        let b = scope.spawn(|| run(10_000, endpoint.clone()));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(alpha, (0..4u64).map(Some).collect::<Vec<_>>());
    assert_eq!(beta, (10_000..10_004u64).map(Some).collect::<Vec<_>>());
    server.shutdown();
}
