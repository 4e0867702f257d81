//! Commit-path throughput and read-latency experiments.
//!
//! The epoch-pipeline refactor changed two hot paths, and this module
//! measures both so the win is recorded rather than asserted:
//!
//! * **Commit throughput** — the end-of-round commit used to replay every
//!   buffered write through a per-write shard-lock acquisition (kept
//!   measurable here as the `serial` series); the store now groups a batch
//!   by shard and locks each shard once (`batched`), and the runtime
//!   commits distinct shards in parallel (`parallel`).  The partition pass
//!   itself is also timed in isolation, on one worker vs on every worker
//!   (`partition_serial` / `partition_parallel`), each worker taking a
//!   contiguous range of the round's pairs wherever its batch boundaries
//!   fall.  Rows come in two shapes: 64 machine batches (a round) and one
//!   batch at 1024 shards (a scatter, at the workloads' shard count), which
//!   is the shape a split by batch could not parallelise.
//! * **Read latency** — adaptive reads used to chase a heap pointer into a
//!   `Vec<Value>` for every key; the compact snapshot layout keeps
//!   singleton values inline, and its point lookups are timed here.
//!
//! * **Shard sweep** — the same commit → freeze → read pipeline at
//!   power-of-two shard counts and at the primes just below them.  A key's
//!   shard is `hash % shards` and its table slot comes from the same hash,
//!   so at `2ᵏ` shards the two must read different bits or every key of a
//!   shard starts its probe at one bucket; the neighbouring prime pins no
//!   bits and is the control.  The ratio between the two, inside one
//!   process, is what CI gates.
//!
//! The `summary` binary serialises the series into `BENCH_commit.json` so
//! future PRs have a trajectory to compare against.

use ampc_algorithms::common::adjacency_pairs;
use ampc_dds::{Key, KeyTag, ShardedStore, SnapshotView, Value};
use ampc_graph::generators;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One commit-throughput measurement at a fixed shard count.
#[derive(Clone, Debug)]
pub struct CommitThroughputPoint {
    /// Number of shards ("DDS machines").
    pub shards: usize,
    /// Key-value pairs committed.
    pub pairs: usize,
    /// Batches the pairs arrive in: one per machine for a round, one for a
    /// scatter.
    pub batches: usize,
    /// Worker threads used by the parallel commit.
    pub threads: usize,
    /// Seed commit path: one shard-lock acquisition per write, nanoseconds.
    pub serial_ns: u64,
    /// Shard-grouped batch commit (one lock per shard), nanoseconds.
    pub batched_ns: u64,
    /// Full shard-parallel end-of-round path (parallel partition pass +
    /// chunked shard-parallel commit), nanoseconds.
    pub parallel_ns: u64,
    /// Single-threaded partition pass alone, fastest of five runs,
    /// nanoseconds.
    pub partition_serial_ns: u64,
    /// Partition pass alone on `threads` workers, fastest of five runs,
    /// nanoseconds.
    pub partition_parallel_ns: u64,
}

impl CommitThroughputPoint {
    /// Parallel-commit speedup over the seed per-write path.
    pub fn speedup_parallel_over_serial(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_ns.max(1) as f64
    }

    /// Parallel-commit throughput in million writes per second.
    pub fn parallel_mwrites_per_sec(&self) -> f64 {
        self.pairs as f64 * 1e3 / self.parallel_ns.max(1) as f64
    }

    /// Speedup of the parallel partition pass over the single-threaded pass.
    pub fn partition_speedup(&self) -> f64 {
        self.partition_serial_ns as f64 / self.partition_parallel_ns.max(1) as f64
    }
}

/// One read-latency measurement of frozen-snapshot point lookups.
#[derive(Clone, Debug)]
pub struct ReadLatencyPoint {
    /// Distinct keys resident in the store.
    pub keys: usize,
    /// Point lookups timed.
    pub reads: usize,
    /// Mean latency of a compact-layout snapshot read, nanoseconds.
    pub compact_ns_per_read: f64,
    /// Checksum of the values read (anti-dead-code).
    pub checksum: u64,
}

pub(crate) fn workload(pairs: usize, seed: u64) -> Vec<(Key, Value)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..pairs)
        .map(|i| {
            // ~99% singleton keys with a small multi-value hot set, matching
            // the key profile of the algorithm workloads.
            let key = if i % 100 == 99 {
                i as u64 % 97
            } else {
                i as u64
            };
            (Key::of(KeyTag::Scalar, key), Value::scalar(rng.gen()))
        })
        .collect()
}

/// The workload split into `machines` batches, preserving write order —
/// the shape the runtime produces (one write buffer per virtual machine; a
/// scatter is one machine).
fn workload_batches(pairs: usize, machines: usize, seed: u64) -> Vec<Vec<(Key, Value)>> {
    let writes = workload(pairs, seed);
    let per_machine = pairs.div_ceil(machines.max(1)).max(1);
    writes
        .chunks(per_machine)
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// Timed runs of each partition pass; a row keeps the fastest, so one
/// descheduled run does not decide a ratio.
const PARTITION_REPEATS: usize = 5;

/// Fastest of [`PARTITION_REPEATS`] runs of `pass`, nanoseconds; each run
/// gets a fresh copy of `batches`, made before its timer starts.
fn fastest_partition_ns<T>(
    batches: &[Vec<(Key, Value)>],
    pass: impl Fn(Vec<Vec<(Key, Value)>>) -> T,
) -> u64 {
    (0..PARTITION_REPEATS)
        .map(|_| {
            let input = batches.to_vec();
            let started = Instant::now();
            let buckets = pass(input);
            let ns = started.elapsed().as_nanos() as u64;
            drop(buckets);
            ns
        })
        .min()
        .unwrap_or(0)
}

/// Measure the commit paths for each shard count in `shard_counts`, the
/// pairs arriving in `machines` batches.
///
/// `threads` caps the parallel-commit workers (0 = one per available CPU).
pub fn commit_throughput(
    pairs: usize,
    machines: usize,
    shard_counts: &[usize],
    threads: usize,
    seed: u64,
) -> Vec<CommitThroughputPoint> {
    let threads = if threads == 0 {
        ampc_dds::default_parallelism()
    } else {
        threads
    };
    let writes = workload(pairs, seed);
    let batches = workload_batches(pairs, machines, seed);
    shard_counts
        .iter()
        .map(|&shards| {
            // Seed path: every write takes and releases the shard lock.
            let store = ShardedStore::new(shards);
            let started = Instant::now();
            for &(key, value) in &writes {
                store.write(key, value);
            }
            let serial_ns = started.elapsed().as_nanos() as u64;
            drop(store);

            // Batched path: one lock acquisition per shard per batch.
            let store = ShardedStore::new(shards);
            let started = Instant::now();
            store.write_batch(writes.iter().copied());
            let batched_ns = started.elapsed().as_nanos() as u64;
            drop(store);

            // Partition pass in isolation: one worker vs `threads`.  The
            // input copies happen before the timers start — the
            // serial/batched series pay no copy, so neither may the timed
            // sections here.
            let store = ShardedStore::new(shards);
            let partition_serial_ns =
                fastest_partition_ns(&batches, |input| store.partition_writes(input));
            let partition_parallel_ns = fastest_partition_ns(&batches, |input| {
                store.partition_writes_parallel(input, threads)
            });
            drop(store);

            // Full end-of-round path: parallel partition + chunked commit.
            let store = ShardedStore::new(shards);
            let input = batches.clone();
            let started = Instant::now();
            let chunks = store.partition_writes_parallel(input, threads);
            store.commit_chunked(chunks, threads);
            let parallel_ns = started.elapsed().as_nanos() as u64;
            drop(store);

            CommitThroughputPoint {
                shards,
                pairs,
                batches: batches.len(),
                threads,
                serial_ns,
                batched_ns,
                parallel_ns,
                partition_serial_ns,
                partition_parallel_ns,
            }
        })
        .collect()
}

/// Time `reads` random point lookups against the compact snapshot layout.
pub fn read_latency(keys: usize, reads: usize, shards: usize, seed: u64) -> ReadLatencyPoint {
    let pairs = workload(keys, seed);

    let store = ShardedStore::new(shards);
    store.write_batch(pairs.iter().copied());
    let snapshot = store.freeze();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let probes: Vec<Key> = (0..reads)
        .map(|_| Key::of(KeyTag::Scalar, rng.gen_range(0..keys as u64)))
        .collect();

    let started = Instant::now();
    let mut compact_sum = 0u64;
    for key in &probes {
        if let Some(value) = snapshot.get(key) {
            compact_sum = compact_sum.wrapping_add(value.x);
        }
    }
    let compact_ns = started.elapsed().as_nanos() as f64 / reads.max(1) as f64;

    ReadLatencyPoint {
        keys,
        reads,
        compact_ns_per_read: compact_ns,
        checksum: compact_sum,
    }
}

/// One shard-sweep measurement: the in-process epoch pipeline on D₀-shaped
/// keys at a fixed shard count.
#[derive(Clone, Debug)]
pub struct ShardSweepPoint {
    /// Number of shards ("DDS machines").
    pub shards: usize,
    /// Key-value pairs committed (`Degree(v)` plus `Adjacency(v, i)`).
    pub pairs: usize,
    /// Fastest `partition_writes` → `commit_partitioned` → `freeze`,
    /// milliseconds.
    pub commit_ms: f64,
    /// Fastest pass of one `get` per key in shuffled order, nanoseconds per
    /// read.
    pub get_ns: f64,
}

/// Run the in-process epoch pipeline on the D₀ of a connected random graph
/// (`vertices` vertices, `4·vertices − 1` edges) at each shard count,
/// single-threaded, keeping the best of `repeats`.
pub fn shard_sweep(
    vertices: usize,
    shard_counts: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<ShardSweepPoint> {
    // What connectivity and MIS first publish: `Degree(v)` and
    // `Adjacency(v, i)`, every key a singleton, 9 pairs per vertex.
    let pairs = adjacency_pairs(&generators::connected_gnm(vertices, 3 * vertices, seed));
    let mut probes: Vec<Key> = pairs.iter().map(|&(key, _)| key).collect();
    probes.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
    shard_counts
        .iter()
        .map(|&shards| {
            let (mut commit_ms, mut get_ns) = (f64::MAX, f64::MAX);
            for _ in 0..repeats.max(1) {
                let store = ShardedStore::new(shards);
                let started = Instant::now();
                let per_shard = store.partition_writes(std::iter::once(pairs.iter().copied()));
                store.commit_partitioned(per_shard, 1);
                let snapshot = store.freeze_with_threads(1);
                commit_ms = commit_ms.min(started.elapsed().as_secs_f64() * 1e3);

                let started = Instant::now();
                let mut found = 0usize;
                for key in &probes {
                    found += usize::from(std::hint::black_box(snapshot.get(key)).is_some());
                }
                let elapsed = started.elapsed();
                assert_eq!(found, probes.len(), "every committed key must be readable");
                get_ns = get_ns.min(elapsed.as_nanos() as f64 / probes.len().max(1) as f64);
            }
            ShardSweepPoint {
                shards,
                pairs: pairs.len(),
                commit_ms,
                get_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_sweep_reads_back_every_pair_at_every_count() {
        let points = shard_sweep(2_000, &[61, 64], 2, 5);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].pairs, points[1].pairs);
        for point in &points {
            assert!(point.pairs >= 2_000);
            assert!(point.commit_ms > 0.0 && point.get_ns > 0.0);
        }
    }

    #[test]
    fn commit_paths_store_identical_contents() {
        let writes = workload(5_000, 3);
        let serial = ShardedStore::new(8);
        for &(key, value) in &writes {
            serial.write(key, value);
        }
        let parallel = ShardedStore::new(8);
        let per_shard = parallel.partition_writes(std::iter::once(writes.iter().copied()));
        parallel.commit_partitioned(per_shard, 4);
        assert_eq!(serial.total_writes(), parallel.total_writes());
        assert_eq!(serial.len(), parallel.len());
        for &(key, _) in &writes {
            assert_eq!(serial.multiplicity(&key), parallel.multiplicity(&key));
            assert_eq!(serial.get(&key), parallel.get(&key));
        }
    }

    #[test]
    fn throughput_experiment_reports_every_shard_count() {
        let points = commit_throughput(20_000, 64, &[1, 8], 4, 7);
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!((point.pairs, point.batches), (20_000, 64));
            assert!(point.serial_ns > 0 && point.batched_ns > 0 && point.parallel_ns > 0);
            assert!(point.partition_serial_ns > 0 && point.partition_parallel_ns > 0);
            assert!(point.speedup_parallel_over_serial() > 0.0);
            assert!(point.partition_speedup() > 0.0);
        }
        let scatter = commit_throughput(40_000, 1, &[1024], 2, 7);
        assert_eq!((scatter[0].shards, scatter[0].batches), (1024, 1));
        assert!(scatter[0].partition_parallel_ns > 0);
    }

    #[test]
    fn chunked_commit_path_stores_identical_contents() {
        // The bench's "parallel" series is the real end-of-round path; make
        // sure what it measures is semantically the serial commit.
        let batches = workload_batches(10_000, 64, 11);
        let serial = ShardedStore::new(8);
        for batch in &batches {
            for &(key, value) in batch {
                serial.write(key, value);
            }
        }
        let parallel = ShardedStore::new(8);
        let chunks = parallel.partition_writes_parallel(batches.clone(), 4);
        parallel.commit_chunked(chunks, 4);
        assert_eq!(serial.total_writes(), parallel.total_writes());
        assert_eq!(serial.len(), parallel.len());
        for batch in &batches {
            for &(key, _) in batch {
                assert_eq!(serial.multiplicity(&key), parallel.multiplicity(&key));
                for idx in 0..serial.multiplicity(&key) {
                    assert_eq!(
                        serial.get_indexed(&key, idx),
                        parallel.get_indexed(&key, idx)
                    );
                }
            }
        }
    }

    #[test]
    fn read_latency_reads_every_probe() {
        let point = read_latency(10_000, 50_000, 16, 9);
        assert!(point.compact_ns_per_read > 0.0);
        assert!(point.checksum > 0);
    }
}
