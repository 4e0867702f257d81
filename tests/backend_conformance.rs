//! Cross-backend conformance suite for the DDS trait pair.
//!
//! One parameterized battery drives `LocalBackend`, `ChannelBackend`,
//! `TcpBackend` (the socket-backed `RemoteBackend` speaking the
//! `ampc_dds::proto` wire format — over interleaved in-process owners and
//! over `cluster(n)`, local clusters of n = 1..=5 range owners) and a
//! `BTreeMap<Key, Vec<Value>>` model through the same write scripts and
//! holds every observable — `get`, `get_indexed`, `multiplicity`, `len`,
//! `read_many` (order and content), multi-value index order, and the
//! per-query read accounting — to identical results.  The property tests at
//! the bottom extend the battery to arbitrary write interleavings.

use ampc_dds::{
    ChannelBackend, DdsBackend, Key, KeyTag, LocalBackend, Snapshot, SnapshotView, TcpBackend,
    Value,
};
use ampc_runtime::{AmpcConfig, AmpcRuntime, DdsBackendKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every backend kind the runtime-level batteries cover.
const ALL_BACKENDS: &[DdsBackendKind] = &[
    DdsBackendKind::Local,
    DdsBackendKind::Channel,
    DdsBackendKind::Remote,
    DdsBackendKind::Cluster,
];

/// One round's writes: ordered batches (for the runtime: one per machine).
type Script = Vec<Vec<Vec<(Key, Value)>>>;

fn k(a: u64) -> Key {
    Key::of(KeyTag::Scalar, a)
}

/// `cluster(owners)`: the TCP client over a local cluster of `owners`
/// owner threads, each advertising its contiguous range of the shard map.
fn cluster(owners: usize, shards: usize) -> TcpBackend {
    TcpBackend::spawn_local(owners, shards).expect("spawning a local cluster on loopback")
}

/// Apply every epoch of `script` to a backend, returning one view per epoch.
fn run_script<B: DdsBackend>(mut backend: B, script: &Script, threads: usize) -> Vec<B::View> {
    script
        .iter()
        .map(|batches| {
            backend.commit_round(batches.clone(), threads);
            backend.advance(threads)
        })
        .collect()
}

/// The store by definition: every key's values in write order.
type Model = BTreeMap<Key, Vec<Value>>;

/// One model per epoch of `script` (each round starts empty, exactly like a
/// fresh `D_i`).
fn model_epochs(script: &Script) -> Vec<Model> {
    script
        .iter()
        .map(|batches| {
            let mut model = Model::new();
            for &(key, value) in batches.iter().flatten() {
                model.entry(key).or_default().push(value);
            }
            model
        })
        .collect()
}

/// The `index`-th value the model holds under `key`.
fn model_get(model: &Model, key: &Key, index: usize) -> Option<Value> {
    model.get(key).and_then(|values| values.get(index).copied())
}

/// The conformance battery: every observable of `view` must match the
/// model for the keys in `probe`, and batched reads must match point reads
/// (content, order, and query accounting).
fn assert_view_matches_model<V: SnapshotView>(view: &V, model: &Model, probe: &[Key]) {
    assert_eq!(view.len(), model.len());
    assert_eq!(view.is_empty(), model.is_empty());

    let reads_before = view.total_reads();
    let mut issued = 0u64;
    for key in probe {
        assert_eq!(view.get(key), model_get(model, key, 0), "get({key})");
        issued += 1;
        let multiplicity = model.get(key).map_or(0, Vec::len);
        assert_eq!(view.multiplicity(key), multiplicity, "multiplicity({key})");
        issued += 1;
        // Multi-value index order: every index, plus one past the end.
        for index in 0..=multiplicity {
            assert_eq!(
                view.get_indexed(key, index),
                model_get(model, key, index),
                "get_indexed({key}, {index})"
            );
            issued += 1;
        }
    }

    // Batched lookups: one entry per key, in key order, counted per key.
    let mut batched = Vec::new();
    view.get_many(probe, &mut batched);
    let individual: Vec<Option<Value>> = probe.iter().map(|key| model_get(model, key, 0)).collect();
    assert_eq!(batched, individual, "get_many order/content");
    issued += probe.len() as u64;

    // Query accounting: every probe above debited exactly one query (the
    // model has no read counters, so the ledger is checked on the view
    // itself — identically for every backend).
    assert_eq!(
        view.total_reads() - reads_before,
        issued,
        "read accounting must debit one query per lookup"
    );
}

/// Run the full battery for one script on every backend shape.
fn conformance_battery(script: Script, shards: usize, threads: usize) {
    // Probe keys: everything ever written plus guaranteed misses.
    let mut probe: Vec<Key> = script
        .iter()
        .flatten()
        .flatten()
        .map(|&(key, _)| key)
        .collect();
    probe.push(Key::of(KeyTag::Custom(999), u64::MAX));
    probe.push(k(u64::MAX - 1));

    let mut legs: Vec<(String, Vec<Snapshot>)> = vec![
        (
            "local".into(),
            run_script(LocalBackend::with_shards(shards, threads), &script, threads),
        ),
        (
            "channel".into(),
            run_script(
                ChannelBackend::with_shards(shards, threads),
                &script,
                threads,
            ),
        ),
        (
            "remote".into(),
            run_script(TcpBackend::with_shards(shards, threads), &script, threads),
        ),
    ];
    // Owner counts are run-time numbers: one owner, counts that do not
    // divide the shards, and (for few shards) more owners than shards.
    for owners in 1..=5 {
        legs.push((
            format!("cluster({owners})"),
            run_script(cluster(owners, shards), &script, threads),
        ));
    }
    let models = model_epochs(&script);

    let sorted_entries = |view: &Snapshot| {
        let mut entries = view.entries();
        entries.sort_by_key(|&(key, _)| key);
        entries
    };
    for (label, views) in &legs {
        assert_eq!(views.len(), models.len(), "{label} epochs");
        for epoch in 0..models.len() {
            assert_view_matches_model(&views[epoch], &models[epoch], &probe);
            // The trait backends also agree on the unordered entry dump.
            assert_eq!(
                sorted_entries(&legs[0].1[epoch]),
                sorted_entries(&views[epoch]),
                "epoch {epoch} {label} entries"
            );
        }
    }
}

#[test]
fn battery_single_epoch_singletons_and_multivalues() {
    let script: Script = vec![vec![
        (0..200u64).map(|i| (k(i % 60), Value::scalar(i))).collect(),
        (0..40u64).map(|i| (k(i), Value::pair(i, i * 2))).collect(),
    ]];
    for &(shards, threads) in &[(1usize, 1usize), (8, 2), (16, 4), (64, 3)] {
        conformance_battery(script.clone(), shards, threads);
    }
}

#[test]
fn battery_multi_epoch_isolation() {
    let script: Script = vec![
        vec![(0..50u64).map(|i| (k(i), Value::scalar(i))).collect()],
        vec![(25..75u64)
            .map(|i| (k(i), Value::scalar(i + 1000)))
            .collect()],
        vec![Vec::new()], // an empty round is a valid epoch
        vec![(0..10u64).map(|_| (k(7), Value::scalar(7))).collect()],
    ];
    conformance_battery(script, 8, 2);
}

#[test]
fn battery_machine_order_defines_multivalue_indices() {
    // 16 "machines" all writing the same hot keys: index order must be
    // (machine id, write order) on every backend.
    let script: Script = vec![(0..16u64)
        .map(|machine| {
            (0..8u64)
                .map(|i| (k(i % 4), Value::scalar(machine * 100 + i)))
                .collect()
        })
        .collect()];
    for &threads in &[1usize, 2, 8] {
        conformance_battery(script.clone(), 8, threads);
    }
}

#[test]
fn battery_covers_every_key_tag() {
    let tags = [
        KeyTag::Degree,
        KeyTag::Adjacency,
        KeyTag::CycleNeighbors,
        KeyTag::Sampled,
        KeyTag::Priority,
        KeyTag::Successor,
        KeyTag::Weight,
        KeyTag::WeightedAdjacency,
        KeyTag::Scalar,
        KeyTag::Custom(3),
    ];
    let script: Script = vec![vec![tags
        .iter()
        .enumerate()
        .flat_map(|(i, &tag)| {
            let key = Key::with_index(tag, i as u64, (i as u64) % 3);
            vec![(key, Value::scalar(i as u64)), (key, Value::pair(1, 2))]
        })
        .collect()]];
    conformance_battery(script, 8, 2);
}

#[test]
fn battery_fills_the_shard_tables_at_power_of_two_shard_counts() {
    // At 2ᵏ shards the shard pick fixes the low k bits of every key of a
    // shard; the shard's table must index on other bits.  The batteries
    // above run at most 64 shards with a few hundred keys — too few to fill
    // any table — so run a D₀-shaped epoch (degrees, adjacency slots, one
    // multi-value hot set) with ~27 keys per shard at the two counts the
    // default configuration reaches (P ≥ 1024, and the one below).
    for shards in [1024usize, 512] {
        let vertices = shards as u64 * 8 / 3;
        let script: Script = vec![(0..8u64)
            .map(|machine| {
                (machine * vertices / 8..(machine + 1) * vertices / 8)
                    .flat_map(|v| {
                        let adjacency = (0..8u64).map(move |i| {
                            let key = Key::with_index(KeyTag::Adjacency, v, i);
                            (key, Value::scalar(v ^ i))
                        });
                        let degree = (Key::of(KeyTag::Degree, v), Value::scalar(8));
                        let hot = (Key::of(KeyTag::Custom(7), v % 5), Value::scalar(v));
                        std::iter::once(degree).chain(adjacency).chain([hot])
                    })
                    .collect()
            })
            .collect()];
        conformance_battery(script, shards, 2);
    }
}

#[test]
fn machine_context_budget_accounting_is_backend_independent() {
    // The runtime-level half of the query-budget battery: the same round
    // body must debit identical budgets (queries, violations) on every
    // backend, including through read_many.
    let run = |backend: &DdsBackendKind| {
        let config = AmpcConfig::for_graph(400, 400, 0.5)
            .with_seed(11)
            .with_threads(2)
            .with_backend(*backend);
        ampc_runtime::with_dds_backend!(config, |rt| {
            rt.load_input((0..100u64).map(|i| (k(i), Value::scalar(i))));
            rt.run_round(4, |ctx| {
                let id = ctx.machine_id() as u64;
                let single = ctx.read(k(id)).map(|v| v.x);
                let keys: Vec<Key> = (0..10u64).map(|i| k(id * 10 + i)).collect();
                let batch: Vec<Option<u64>> = ctx
                    .read_many(&keys)
                    .into_iter()
                    .map(|v| v.map(|v| v.x))
                    .collect();
                let indexed = ctx.read_indexed(k(id), 0).map(|v| v.x);
                let mult = ctx.multiplicity(k(id));
                (
                    single,
                    batch,
                    indexed,
                    mult,
                    ctx.queries_issued(),
                    ctx.remaining_budget(),
                )
            })
            .unwrap()
        })
    };
    let reference = run(&DdsBackendKind::Local);
    for backend in &ALL_BACKENDS[1..] {
        assert_eq!(run(backend), reference, "budgets diverged on {backend:?}");
    }
}

#[test]
fn explicit_shard_override_flows_to_every_backend() {
    for &backend in ALL_BACKENDS {
        let config = AmpcConfig::for_graph(100, 100, 0.5)
            .with_backend(backend)
            .with_num_shards(13)
            .unwrap();
        ampc_runtime::with_dds_backend!(config, |rt| {
            rt.load_input((0..10u64).map(|i| (k(i), Value::scalar(i))));
            assert_eq!(rt.snapshot().num_shards(), 13);
        });
    }
}

type EntriesAndStats = (Vec<(Key, Vec<Value>)>, Vec<[u64; 7]>);

/// A two-round program with multi-value keys; returns the final view's
/// `entries()` exactly as the view yields them, and the run's statistics
/// (minus wall time, the one field that is not a function of the program).
fn entries_and_stats(config: AmpcConfig) -> EntriesAndStats {
    ampc_runtime::with_dds_backend!(config, |rt| {
        rt.load_input((0..64u64).map(|i| (k(i), Value::scalar(i))));
        rt.run_round(8, |ctx| {
            let id = ctx.machine_id() as u64;
            for i in 0..8u64 {
                let x = ctx.read(k(id * 8 + i)).map_or(0, |v| v.x);
                ctx.write(k(x % 12), Value::pair(id, x));
            }
        })
        .unwrap();
        rt.scatter((0..20u64).map(|i| (k(i % 5), Value::scalar(i))).collect());
        let stats = rt.stats().rounds.iter().map(|r| {
            [
                r.round as u64,
                r.machines as u64,
                r.total_queries,
                r.max_queries_per_machine,
                r.total_writes,
                r.max_writes_per_machine,
                r.budget_violations,
            ]
        });
        (rt.snapshot().entries(), stats.collect())
    })
}

#[test]
fn a_one_owner_cluster_is_indistinguishable_from_the_remote_backend() {
    // One owner holds every shard in order under either placement, and the
    // owner loop is the same code, so even the *unsorted* entry dump of the
    // rebuilt replica must be identical — N = 1 is the remote backend.
    let config = || AmpcConfig::for_graph(400, 400, 0.5).with_threads(1);
    let remote = entries_and_stats(config().with_backend(DdsBackendKind::Remote));
    let cluster = entries_and_stats(config().with_cluster_owners(1).unwrap());
    assert_eq!(remote, cluster);
}

#[test]
fn more_cluster_owners_than_shards_run_like_local() {
    // Five owners over four shards: the shard map tiles with an empty
    // range, and the run must be byte-identical to the in-process store.
    let config = || {
        AmpcConfig::for_graph(400, 400, 0.5)
            .with_threads(2)
            .with_num_shards(4)
            .unwrap()
    };
    let sorted = |(mut entries, stats): EntriesAndStats| {
        entries.sort_by_key(|&(key, _)| key);
        (entries, stats)
    };
    let local = sorted(entries_and_stats(config()));
    let wide = sorted(entries_and_stats(config().with_cluster_owners(5).unwrap()));
    assert_eq!(local, wide);
}

/// End-to-end smoke through `AmpcRuntime<B>` directly (not via the macro):
/// adaptive pointer chasing, exactly as the model demands.
fn runtime_program_smoke<B: DdsBackend>() {
    let config = AmpcConfig::for_graph(10_000, 0, 0.5).with_threads(3);
    runtime_program_smoke_on(AmpcRuntime::<B>::with_backend(config));
}

fn runtime_program_smoke_on<B: DdsBackend>(mut runtime: AmpcRuntime<B>) {
    runtime.load_input((0..100u64).map(|x| (Key::of(KeyTag::Successor, x), Value::scalar(x + 1))));
    let reached = runtime
        .run_round(1, |ctx| {
            let mut x = 0u64;
            for _ in 0..50 {
                x = ctx.read(Key::of(KeyTag::Successor, x)).unwrap().x;
            }
            x
        })
        .unwrap();
    assert_eq!(reached, vec![50]);
    assert_eq!(runtime.stats().rounds[0].total_queries, 50);
}

#[test]
fn channel_backend_runs_a_full_runtime_program() {
    runtime_program_smoke::<ChannelBackend>();
}

#[test]
fn tcp_backend_runs_a_full_runtime_program() {
    runtime_program_smoke::<TcpBackend>();
}

#[test]
fn cluster_backend_runs_a_full_runtime_program() {
    let config = AmpcConfig::for_graph(10_000, 0, 0.5).with_threads(3);
    let backend = cluster(2, config.num_shards());
    runtime_program_smoke_on(AmpcRuntime::from_backend(config, backend));
}

/// Everything a view can tell us about an epoch: key count, sorted entry
/// dump, and the flattened results of every probe lookup.
type EpochObservation = (usize, Vec<(Key, Vec<Value>)>, Vec<u64>);

/// Capture an [`EpochObservation`] for byte-equality checks across the
/// epoch's lifetime (minus read counters, which by design keep advancing as
/// we re-probe).
fn observe<V: SnapshotView>(view: &V, probe: &[Key]) -> EpochObservation {
    let mut entries = view.entries();
    entries.sort_by_key(|&(key, _)| key);
    let mut observations = Vec::new();
    for key in probe {
        observations.push(view.get(key).map_or(u64::MAX, |v| v.x));
        observations.push(view.multiplicity(key) as u64);
        for index in 0..=view.multiplicity(key) {
            observations.push(view.get_indexed(key, index).map_or(u64::MAX, |v| v.x));
        }
    }
    let mut batched = Vec::new();
    view.get_many(probe, &mut batched);
    observations.extend(batched.iter().map(|v| v.map_or(u64::MAX, |v| v.x)));
    (view.len(), entries, observations)
}

/// Snapshot lifetime: a view taken at one epoch must stay valid — and
/// byte-identical — while later epochs commit and advance, and after the
/// backend itself is dropped.
fn snapshot_lifetime_battery<B: DdsBackend>(shards: usize, threads: usize) {
    snapshot_lifetime_battery_on(B::with_shards(shards, threads), threads);
}

fn snapshot_lifetime_battery_on<B: DdsBackend>(mut backend: B, threads: usize) {
    backend.commit_round(
        vec![
            (0..120u64).map(|i| (k(i % 40), Value::scalar(i))).collect(),
            (0..20u64).map(|i| (k(i), Value::pair(i, i * 9))).collect(),
        ],
        threads,
    );
    let early = backend.advance(threads);
    let probe: Vec<Key> = (0..50u64).map(k).collect();
    let baseline = observe(&early, &probe);
    assert!(baseline.0 > 0, "epoch 0 must hold data");

    // Later epochs overwrite the same keys with different values; the early
    // view must not see any of it.
    for round in 0..3u64 {
        backend.commit_round(
            vec![(0..60u64)
                .map(|i| (k(i), Value::scalar(1_000_000 + round * 1_000 + i)))
                .collect()],
            threads,
        );
        let _ = backend.advance(threads);
        assert_eq!(
            observe(&early, &probe),
            baseline,
            "early view changed after advance {round}"
        );
    }

    // The backend (and with it the runtime that owned it) goes away; the
    // view must keep serving the identical epoch.
    drop(backend);
    assert_eq!(
        observe(&early, &probe),
        baseline,
        "early view changed after the backend was dropped"
    );
}

#[test]
fn local_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery::<LocalBackend>(8, 2);
    snapshot_lifetime_battery::<LocalBackend>(1, 1);
}

#[test]
fn channel_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery::<ChannelBackend>(8, 3);
    snapshot_lifetime_battery::<ChannelBackend>(16, 1);
}

#[test]
fn tcp_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery::<TcpBackend>(8, 3);
    snapshot_lifetime_battery::<TcpBackend>(16, 1);
}

#[test]
fn cluster_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery_on(cluster(2, 8), 3);
    snapshot_lifetime_battery_on(cluster(4, 16), 1);
}

fn arbitrary_key() -> impl Strategy<Value = Key> {
    (0u32..6, 0u64..40, 0u64..4).prop_map(|(tag, a, b)| Key {
        tag: KeyTag::from_code(tag),
        a,
        b,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Observational equivalence of all three backends under arbitrary
    /// write interleavings: any number of epochs, any number of machine
    /// batches per epoch, colliding keys across tags, any shard/thread
    /// shape.
    #[test]
    fn backends_are_observationally_equivalent_under_arbitrary_interleavings(
        script in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((arbitrary_key(), any::<u64>()), 0..30),
                1..5
            ),
            1..4
        ),
        shards in 1usize..33,
        threads in 1usize..5
    ) {
        let script: Script = script
            .into_iter()
            .map(|epoch| {
                epoch
                    .into_iter()
                    .map(|batch| {
                        batch.into_iter().map(|(key, x)| (key, Value::scalar(x))).collect()
                    })
                    .collect()
            })
            .collect();
        conformance_battery(script, shards, threads);
    }
}
