//! Property tests for the DDS substrate: the store behaves like a
//! multi-map with stable per-key ordering, snapshots are faithful frozen
//! copies, the epoch chain keeps rounds isolated under arbitrary
//! interleavings of writes and advances, the compact slot layout is
//! observationally equivalent to a `BTreeMap<Key, Vec<Value>>` model, and
//! every commit path's partition — at any worker count, on every backend — stores
//! a round's pairs in the order pushing them one by one would.

use ampc_dds::{
    ChannelBackend, DdsBackend, DdsChain, Key, KeyTag, LocalBackend, ShardedStore, SnapshotView,
    TcpBackend, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Batches = Vec<Vec<(Key, Value)>>;

/// A round's machine batches: keys from a pool of 200, so most keys carry
/// several values, and batches long enough that a round often crosses the
/// 2 × 16 Ki pairs at which the partition takes a second worker.
fn machine_batches() -> impl Strategy<Value = Batches> {
    let batch = proptest::collection::vec((0u64..200, any::<u64>()), 0..12_000);
    proptest::collection::vec(batch, 0..7).prop_map(|batches| {
        batches
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|(k, v)| (Key::of(KeyTag::Scalar, k), Value::scalar(v)))
                    .collect()
            })
            .collect()
    })
}

/// One shard, a prime, and the powers of two the workloads run at.
fn shard_count() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 7, 64, 1024][i])
}

/// The partition by definition: every pair pushed onto its shard's bucket
/// in concatenation order.
fn pushed_in_order(shards: usize, batches: &[Vec<(Key, Value)>]) -> Batches {
    let store = ShardedStore::new(shards);
    let mut buckets = vec![Vec::new(); shards];
    for &(key, value) in batches.iter().flatten() {
        buckets[store.shard_of(&key)].push((key, value));
    }
    buckets
}

/// The multi-map a sequence of writes builds: every key's values in write
/// order.
fn multimap<'a>(pairs: impl IntoIterator<Item = &'a (Key, Value)>) -> BTreeMap<Key, Vec<Value>> {
    let mut model: BTreeMap<Key, Vec<Value>> = BTreeMap::new();
    for &(key, value) in pairs {
        model.entry(key).or_default().push(value);
    }
    model
}

/// How many values the model holds under `key`.
fn model_multiplicity(model: &BTreeMap<Key, Vec<Value>>, key: &Key) -> usize {
    model.get(key).map_or(0, Vec::len)
}

/// The `index`-th value the model holds under `key`.
fn model_get(model: &BTreeMap<Key, Vec<Value>>, key: &Key, index: usize) -> Option<Value> {
    model.get(key).and_then(|values| values.get(index).copied())
}

/// Commit `batches` as one round on a fresh `B` and return the view of it.
fn committed_view<B: DdsBackend>(shards: usize, threads: usize, batches: Batches) -> B::View {
    let mut backend = B::with_shards(shards, threads);
    backend.commit_round(batches, threads);
    backend.advance(threads)
}

fn arbitrary_key() -> impl Strategy<Value = Key> {
    (0u32..6, any::<u64>(), 0u64..1_000).prop_map(|(tag, a, b)| Key {
        tag: KeyTag::from_code(tag),
        a,
        b,
    })
}

fn arbitrary_value() -> impl Strategy<Value = Value> {
    (any::<u64>(), any::<u64>()).prop_map(|(x, y)| Value::pair(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn store_is_a_multimap_with_insertion_order(
        writes in proptest::collection::vec((0u64..50, any::<u64>()), 1..200),
        shards in 1usize..17
    ) {
        let store = ShardedStore::new(shards);
        let mut expected: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
        for &(k, v) in &writes {
            store.write(Key::of(KeyTag::Scalar, k), Value::scalar(v));
            expected.entry(k).or_default().push(v);
        }
        prop_assert_eq!(store.len(), expected.len());
        prop_assert_eq!(store.total_writes(), writes.len() as u64);
        for (k, values) in &expected {
            let key = Key::of(KeyTag::Scalar, *k);
            prop_assert_eq!(store.multiplicity(&key), values.len());
            prop_assert_eq!(store.get(&key), Some(Value::scalar(values[0])));
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(store.get_indexed(&key, i), Some(Value::scalar(v)));
            }
            prop_assert_eq!(store.get_indexed(&key, values.len()), None);
        }
        // Freezing preserves everything exactly.
        let snapshot = store.freeze();
        for (k, values) in &expected {
            let key = Key::of(KeyTag::Scalar, *k);
            prop_assert_eq!(snapshot.get_all(&key), values.iter().map(|&v| Value::scalar(v)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chain_epochs_are_isolated(
        rounds in proptest::collection::vec(proptest::collection::vec((0u64..40, any::<u64>()), 0..40), 1..6),
        shards in 1usize..9
    ) {
        // The chain retires an epoch when the next completes; the snapshots
        // `advance` handed out are the views a caller keeps.
        let mut chain = DdsChain::new(shards);
        let mut snapshots = Vec::new();
        for pairs in &rounds {
            for &(k, v) in pairs {
                chain.write(Key::of(KeyTag::Scalar, k), Value::scalar(v));
            }
            snapshots.push(chain.advance());
        }
        prop_assert_eq!(chain.completed_epochs(), rounds.len());
        // Every epoch's snapshot contains exactly the keys written in that
        // epoch (with the right multiplicities) and nothing from any other.
        for (snapshot, pairs) in snapshots.iter().zip(&rounds) {
            let mut expected: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
            for &(k, _) in pairs {
                *expected.entry(k).or_default() += 1;
            }
            prop_assert_eq!(snapshot.len(), expected.len());
            for (k, count) in expected {
                prop_assert_eq!(snapshot.multiplicity(&Key::of(KeyTag::Scalar, k)), count);
            }
        }
    }

    #[test]
    fn compact_layout_equals_the_model_under_arbitrary_interleavings(
        writes in proptest::collection::vec((arbitrary_key(), arbitrary_value()), 1..300),
        shards in 1usize..33,
        freeze_threads in 1usize..9
    ) {
        let store = ShardedStore::new(shards);
        for &(key, value) in &writes {
            store.write(key, value);
        }
        let model = multimap(&writes);

        // Writable-store reads agree before freezing.
        for &(key, _) in &writes {
            prop_assert_eq!(store.get(&key), model_get(&model, &key, 0));
            prop_assert_eq!(store.multiplicity(&key), model_multiplicity(&model, &key));
        }
        prop_assert_eq!(store.len(), model.len());

        // Frozen-snapshot reads agree, whatever the freeze parallelism.
        let snapshot = store.freeze_with_threads(freeze_threads);
        prop_assert_eq!(snapshot.len(), model.len());
        for &(key, _) in &writes {
            prop_assert_eq!(snapshot.get(&key), model_get(&model, &key, 0));
            let multiplicity = model_multiplicity(&model, &key);
            prop_assert_eq!(snapshot.multiplicity(&key), multiplicity);
            for index in 0..=multiplicity {
                prop_assert_eq!(snapshot.get_indexed(&key, index), model_get(&model, &key, index));
            }
        }

        // Missing keys agree too.
        let absent = Key::of(KeyTag::Custom(999), u64::MAX);
        prop_assert_eq!(snapshot.get(&absent), None);
        prop_assert_eq!(snapshot.multiplicity(&absent), 0);
    }

    #[test]
    fn batched_commit_paths_equal_the_model(
        machine_batches in proptest::collection::vec(
            proptest::collection::vec((0u64..60, any::<u64>()), 0..40),
            1..8
        ),
        shards in 1usize..17,
        threads in 1usize..5
    ) {
        // The runtime's commit path: per-machine batches, partitioned by
        // shard, committed in parallel — against the model fed the same
        // concatenated sequence.
        let store = ShardedStore::new(shards);
        let batches: Vec<Vec<(Key, Value)>> = machine_batches
            .iter()
            .map(|batch| {
                batch.iter().map(|&(k, v)| (Key::of(KeyTag::Scalar, k), Value::scalar(v))).collect()
            })
            .collect();
        let model = multimap(batches.iter().flatten());
        let per_shard = store.partition_writes(batches);
        store.commit_partitioned(per_shard, threads);

        let snapshot = store.freeze();
        prop_assert_eq!(snapshot.len(), model.len());
        for k in 0u64..60 {
            let key = Key::of(KeyTag::Scalar, k);
            let multiplicity = model_multiplicity(&model, &key);
            prop_assert_eq!(snapshot.multiplicity(&key), multiplicity);
            for index in 0..multiplicity {
                prop_assert_eq!(snapshot.get_indexed(&key, index), model_get(&model, &key, index));
            }
        }
    }

    #[test]
    fn shard_count_does_not_change_semantics(
        writes in proptest::collection::vec((0u64..80, any::<u64>()), 1..120)
    ) {
        let one = ShardedStore::new(1);
        let many = ShardedStore::new(64);
        for &(k, v) in &writes {
            one.write(Key::of(KeyTag::Scalar, k), Value::scalar(v));
            many.write(Key::of(KeyTag::Scalar, k), Value::scalar(v));
        }
        for &(k, _) in &writes {
            let key = Key::of(KeyTag::Scalar, k);
            prop_assert_eq!(one.get(&key), many.get(&key));
            prop_assert_eq!(one.multiplicity(&key), many.multiplicity(&key));
        }
        prop_assert_eq!(one.len(), many.len());
    }

    #[test]
    fn every_partition_pass_equals_pushing_in_order(
        batches in machine_batches(),
        shards in shard_count(),
        threads in 1usize..6
    ) {
        let expected = pushed_in_order(shards, &batches);
        let store = ShardedStore::new(shards);
        prop_assert_eq!(&store.partition_writes(batches.clone()), &expected);
        let chunks = store.partition_writes_parallel(batches.clone(), threads);
        let concatenated: Batches = (0..shards)
            .map(|shard| chunks.iter().flat_map(|chunk| chunk[shard].iter().copied()).collect())
            .collect();
        prop_assert_eq!(&concatenated, &expected);

        store.commit_chunked(chunks, threads);
        let model = multimap(batches.iter().flatten());
        prop_assert_eq!(store.len(), model.len());
        for (key, values) in &model {
            prop_assert_eq!(store.multiplicity(key), values.len());
            for (index, &value) in values.iter().enumerate() {
                prop_assert_eq!(store.get_indexed(key, index), Some(value));
            }
        }
    }

    #[test]
    fn every_backend_commits_a_round_in_concatenation_order(
        batches in machine_batches(),
        shards in shard_count(),
        threads in 1usize..6
    ) {
        // The local chain and the wire client (over channels and over TCP)
        // each partition on up to `threads` workers; all must store what
        // pushing in order would.
        let model = multimap(batches.iter().flatten());
        let local = committed_view::<LocalBackend>(shards, threads, batches.clone());
        let channel = committed_view::<ChannelBackend>(shards, threads, batches.clone());
        let tcp = committed_view::<TcpBackend>(shards, threads, batches);
        for view in [&local, &channel, &tcp] {
            prop_assert_eq!(view.len(), model.len());
            for (key, values) in &model {
                prop_assert_eq!(&view.get_all(key), values);
            }
        }
    }
}
