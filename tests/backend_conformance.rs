//! Cross-backend conformance suite for `DdsBackend` and the `Snapshot` it serves.
//!
//! One parameterized battery drives `LocalBackend`, `ChannelBackend`,
//! `TcpBackend` (the socket-backed `RemoteBackend` speaking the
//! `ampc_dds::proto` wire format — over in-process owner threads and over
//! `cluster(n)`, local clusters of n = 1..=5 owners) and a
//! `BTreeMap<Key, Vec<Value>>` model through the same write scripts and
//! holds every observable — `get`, `get_indexed`, `get_indexed_slice`,
//! `multiplicity`, `len`, batched reads (order and content), multi-value
//! index order, and the per-query read accounting — to identical results.  The property tests at
//! the bottom extend the battery to arbitrary write interleavings.

use ampc_dds::hashing::{hash_words, FxHasher};
use ampc_dds::{
    ChannelBackend, DdsBackend, Key, KeyTag, LocalBackend, Snapshot, TcpBackend, Value,
};
use ampc_runtime::{AmpcConfig, AmpcRuntime, DdsBackendKind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::Hasher;

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
fn run_script<B: DdsBackend>(mut backend: B, script: &Script, threads: usize) -> Vec<Snapshot> {
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
fn assert_view_matches_model(view: &Snapshot, model: &Model, probe: &[Key]) {
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
        // Runs of indices in one lookup: inside the run, across its end and
        // past it, each counted per index.
        let values = model.get(key).map_or(&[][..], Vec::as_slice);
        for start in [0, multiplicity / 2, multiplicity, multiplicity + 1] {
            for width in [1, 16] {
                let mut out = [Some(Value::scalar(u64::MAX)); 16];
                view.get_indexed_slice(key, start, &mut out[..width]);
                let expected = (start..start + width).map(|index| values.get(index).copied());
                assert!(
                    out[..width].iter().copied().eq(expected),
                    "get_indexed_slice({key}, {start}, {width})"
                );
                issued += width as u64;
            }
        }
    }

    // Batched lookups: one entry per key, in key order, counted per key.
    let mut batched = vec![None; probe.len()];
    view.get_many_slice(probe, &mut batched);
    let individual: Vec<Option<Value>> = probe.iter().map(|key| model_get(model, key, 0)).collect();
    assert_eq!(batched, individual, "get_many_slice order/content");
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
            run_script(LocalBackend::new(shards), &script, threads),
        ),
        (
            "channel".into(),
            run_script(ChannelBackend::new(shards, threads), &script, threads),
        ),
        (
            "remote".into(),
            run_script(TcpBackend::new(shards, threads), &script, threads),
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
    let tags: Vec<KeyTag> = KeyTag::NAMED
        .into_iter()
        .chain([KeyTag::Custom(3)])
        .collect();
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

/// A key with `key`'s tag and digest but another `a`: the two share a shard
/// and a directory bucket at every shard count, so each run is laid out
/// beside the other's.  The digest hashes `(tag, a, b)` word by word, so
/// the last word can undo the difference the second made.
fn colliding(key: Key, a: u64) -> Key {
    let prefix = |a: u64| {
        let mut hasher = FxHasher::default();
        hasher.write_u32(key.tag.code());
        hasher.write_u64(a);
        hasher.finish().rotate_left(5)
    };
    let twin = Key::with_index(key.tag, a, key.b ^ prefix(key.a) ^ prefix(a));
    assert_eq!(
        hash_words(twin.tag.code(), twin.a, twin.b),
        hash_words(key.tag.code(), key.a, key.b),
        "{twin} must collide with {key}"
    );
    twin
}

#[test]
fn indexed_slices_equal_indexed_reads_on_every_backend() {
    // A 20-value run, written by two machines, sharing its bucket with two
    // colliding keys of 7 and 3 values; many short runs around them; and an
    // absent key that collides too.  Every start inside a run, at its end
    // and past it, on every backend and at three shard counts.
    let run = Key::of(KeyTag::Adjacency, 11);
    let (left, right, absent) = (colliding(run, 12), colliding(run, 13), colliding(run, 14));
    let mut batch: Vec<(Key, Value)> = (0..20u64).map(|i| (run, Value::scalar(i))).collect();
    batch.extend((0..7u64).map(|i| (left, Value::scalar(100 + i))));
    batch.extend((0..3u64).map(|i| (right, Value::scalar(200 + i))));
    batch.extend((0..600u64).map(|i| (k(i % 150), Value::pair(i, i / 150))));
    let script: Script = vec![vec![batch[..10].to_vec(), batch[10..].to_vec()]];
    let model = &model_epochs(&script)[0];
    let mut legs: Vec<(String, Snapshot)> = Vec::new();
    for shards in [1usize, 8, 64] {
        let views = [
            ("local", run_script(LocalBackend::new(shards), &script, 2)),
            (
                "channel",
                run_script(ChannelBackend::new(shards, 2), &script, 2),
            ),
            ("remote", run_script(TcpBackend::new(shards, 2), &script, 2)),
            ("cluster(3)", run_script(cluster(3, shards), &script, 2)),
        ];
        for (name, mut views) in views {
            legs.push((format!("{name}, {shards} shards"), views.remove(0)));
        }
    }
    let probe: Vec<Key> = [run, left, right, absent, k(0), k(149), k(150)].into();
    for (label, view) in &legs {
        for key in &probe {
            let len = model.get(key).map_or(0, Vec::len);
            for start in [0, 1, len / 2, len.saturating_sub(1), len, len + 1, len + 40] {
                for width in [0, 1, 2, 5, 16, 32] {
                    let mut out = vec![Some(Value::scalar(u64::MAX)); width];
                    let loads = view.shard_loads();
                    view.get_indexed_slice(key, start, &mut out);
                    // Exactly `width` reads, all on the key's shard.
                    let risen: Vec<(usize, u64)> = (view.shard_loads().iter().zip(&loads))
                        .filter(|(after, before)| after.reads != before.reads)
                        .map(|(after, before)| (after.shard, after.reads - before.reads))
                        .collect();
                    assert!(risen.len() <= 1, "{label}: {key} read on {risen:?}");
                    let counted: u64 = risen.iter().map(|&(_, reads)| reads).sum();
                    assert_eq!(counted, width as u64, "{label}: {key}, {start}, {width}");
                    let expected: Vec<Option<Value>> = (start..start + width)
                        .map(|index| view.get_indexed(key, index))
                        .collect();
                    assert_eq!(out, expected, "{label}: {key}, {start}, {width}");
                    let modelled: Vec<Option<Value>> = (start..start + width)
                        .map(|index| model_get(model, key, index))
                        .collect();
                    assert_eq!(out, modelled, "{label}: {key}, {start}, {width}");
                }
            }
        }
    }
}

#[test]
fn machine_context_budget_accounting_is_backend_independent() {
    // The runtime-level half of the query-budget battery: the same round
    // body must debit identical budgets (queries, violations) on every
    // backend, including through read_many_slice.
    let run = |backend: &DdsBackendKind| {
        let config = AmpcConfig::for_graph(400, 400, 0.5)
            .with_seed(11)
            .with_threads(2)
            .with_backend(*backend);
        let mut rt = AmpcRuntime::new(config);
        rt.load_input((0..100u64).map(|i| (k(i), Value::scalar(i))));
        rt.run_round(4, |ctx| {
            let id = ctx.machine_id() as u64;
            let single = ctx.read(k(id)).map(|v| v.x);
            let keys: Vec<Key> = (0..10u64).map(|i| k(id * 10 + i)).collect();
            let mut found = [None; 10];
            ctx.read_many_slice(&keys, &mut found);
            let batch: Vec<Option<u64>> = found.iter().map(|v| v.map(|v| v.x)).collect();
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
        let mut rt = AmpcRuntime::new(config);
        rt.load_input((0..10u64).map(|i| (k(i), Value::scalar(i))));
        assert_eq!(rt.snapshot().num_shards(), 13);
    }
}

type EntriesAndStats = (Vec<(Key, Vec<Value>)>, Vec<[u64; 7]>);

/// A two-round program with multi-value keys; returns the final view's
/// `entries()` exactly as the view yields them, and the run's statistics
/// (minus wall time, the one field that is not a function of the program).
fn entries_and_stats(config: AmpcConfig) -> EntriesAndStats {
    let mut rt = AmpcRuntime::new(config);
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

fn smoke_config() -> AmpcConfig {
    AmpcConfig::for_graph(10_000, 0, 0.5).with_threads(3)
}

/// End-to-end smoke through a runtime: adaptive pointer chasing, exactly as
/// the model demands.
fn runtime_program_smoke<B: DdsBackend>(mut runtime: AmpcRuntime<B>) {
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
    let config = smoke_config().with_backend(DdsBackendKind::Channel);
    runtime_program_smoke(AmpcRuntime::new(config));
}

#[test]
fn tcp_backend_runs_a_full_runtime_program() {
    let config = smoke_config().with_backend(DdsBackendKind::Remote);
    runtime_program_smoke(AmpcRuntime::new(config));
}

#[test]
fn cluster_backend_runs_a_full_runtime_program() {
    // A backend built by hand, handed to the runtime as it is.
    let config = smoke_config();
    let backend = cluster(2, config.num_shards());
    runtime_program_smoke(AmpcRuntime::from_backend(config, backend));
}

#[test]
fn runtime_new_opens_the_backend_the_config_names() {
    // The config alone picks the store: each kind must come back under its
    // own name, and serve a round that reads D_0 back.
    for &kind in ALL_BACKENDS {
        let config = AmpcConfig::for_graph(100, 100, 0.5)
            .with_threads(2)
            .with_backend(kind);
        let mut rt = AmpcRuntime::new(config);
        assert_eq!(rt.backend().backend_name(), kind.to_string());
        rt.load_input((0..8u64).map(|i| (k(i), Value::scalar(i * 7))));
        let read = rt
            .run_round(8, |ctx| ctx.read(k(ctx.machine_id() as u64)))
            .unwrap();
        let expected: Vec<_> = (0..8u64).map(|i| Some(Value::scalar(i * 7))).collect();
        assert_eq!(read, expected, "{kind}");
    }
}

/// Everything a view can tell us about an epoch: key count, sorted entry
/// dump, and the flattened results of every probe lookup.
type EpochObservation = (usize, Vec<(Key, Vec<Value>)>, Vec<u64>);

/// Capture an [`EpochObservation`] for byte-equality checks across the
/// epoch's lifetime (minus read counters, which by design keep advancing as
/// we re-probe).
fn observe(view: &Snapshot, probe: &[Key]) -> EpochObservation {
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
    let mut batched = vec![None; probe.len()];
    view.get_many_slice(probe, &mut batched);
    observations.extend(batched.iter().map(|v| v.map_or(u64::MAX, |v| v.x)));
    (view.len(), entries, observations)
}

/// Snapshot lifetime: a view taken at one epoch must stay valid — and
/// byte-identical — while later epochs commit and advance, and after the
/// backend itself is dropped.
fn snapshot_lifetime_battery(mut backend: impl DdsBackend, threads: usize) {
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
    snapshot_lifetime_battery(LocalBackend::new(8), 2);
    snapshot_lifetime_battery(LocalBackend::new(1), 1);
}

#[test]
fn channel_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery(ChannelBackend::new(8, 3), 3);
    snapshot_lifetime_battery(ChannelBackend::new(16, 1), 1);
}

#[test]
fn tcp_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery(TcpBackend::new(8, 3), 3);
    snapshot_lifetime_battery(TcpBackend::new(16, 1), 1);
}

#[test]
fn cluster_views_stay_valid_across_epochs_and_backend_drop() {
    snapshot_lifetime_battery(cluster(2, 8), 3);
    snapshot_lifetime_battery(cluster(4, 16), 1);
}

fn arbitrary_key() -> impl Strategy<Value = Key> {
    (0usize..6, 0u64..40, 0u64..4).prop_map(|(tag, a, b)| Key {
        tag: KeyTag::NAMED[tag],
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
