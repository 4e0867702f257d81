//! Per-backend read-latency experiment: Local vs Channel vs Remote (TCP),
//! point vs batched vs auto-batching window.
//!
//! The AMPC model charges algorithms per adaptive query, so the DDS read
//! path is the hot loop of every algorithm round.  This experiment probes
//! the same frozen epoch through every [`ampc_dds::Snapshot`] read mode, on
//! every shipped backend:
//!
//! * **point** — one [`ampc_dds::Snapshot::get`] per key, the model's plain
//!   adaptive read: a lock-free probe of one key in the epoch's `Arc`-shared
//!   frozen shards, with no batching.  On `ChannelBackend` those are the
//!   shards the owner threads froze; on `TcpBackend`, the replica fetched
//!   over the wire at advance time.  The series times that probe alone.
//! * **batched** — [`ampc_dds::Snapshot::get_many_slice`] flights of
//!   `FLIGHT` keys, the explicit batching algorithms use when a whole key
//!   set is in hand.  A flight overlaps its keys' cache misses, so it must
//!   read faster per key than **point** does; CI fails the artifact where
//!   it does not.
//! * **windowed** — the runtime's auto-batching window
//!   (`MachineContext::queue_read` / `take_read`), timed through a real
//!   single-machine round so the ticket bookkeeping is part of the cost.
//! * **indexed-first** / **indexed-last** — [`ampc_dds::Snapshot::get_indexed`]
//!   at index 0 and at the last index of one `RUN`-value run, in an epoch
//!   of the same keys plus the run.  An indexed read finds the run's start
//!   and checks one slot, so the last index must cost about what the first
//!   does; CI fails the artifact where it costs twice as much, as it would
//!   if the read walked the run.
//! * **indexed-run** — [`ampc_dds::Snapshot::get_indexed_slice`] flights of
//!   `RUN_FLIGHT` consecutive values of the same run, in ns per value: the
//!   read connectivity, MSF and MIS make of a vertex's list key.  A flight is one
//!   lookup and a copy, so a value must cost less than a key of a
//!   **batched** flight; CI fails the artifact where it does not, as it
//!   would if the flight looked each index up.
//!
//! The `summary` binary serialises the series into the
//! `read_latency_backends` section of `BENCH_commit.json`; the headline
//! number is channel-point vs local-point, which the ROADMAP perf target
//! requires within 2× of each other.

use crate::commit::workload;
use ampc_dds::{ChannelBackend, DdsBackend, Key, KeyTag, LocalBackend, TcpBackend, Value};
use ampc_runtime::{AmpcConfig, AmpcRuntime, ReadTicket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Keys per explicit `get_many_slice` flight in the batched mode.
const FLIGHT: usize = 256;

/// Values under the one key the indexed modes read.
const RUN: usize = 1_000;

/// Consecutive values per flight of the indexed-run mode: a connectivity or
/// MSF phase's lists are at most this long at the benchmark's scale.
const RUN_FLIGHT: usize = 16;

/// Where flight `flight` of the indexed-run mode starts: stepping through
/// the run, every flight inside it.
fn run_flight_start(flight: usize) -> usize {
    flight * RUN_FLIGHT % (RUN - RUN % RUN_FLIGHT)
}

/// The values the indexed-run mode reads in `reads / RUN_FLIGHT` flights,
/// summed (value `i` of the run is `i`).
fn run_checksum(reads: usize) -> u64 {
    (0..reads / RUN_FLIGHT)
        .map(|flight| (run_flight_start(flight)..).take(RUN_FLIGHT).sum::<usize>() as u64)
        .sum()
}

/// Timed passes per (backend, mode); the *minimum* is reported.  Latency
/// microbenches on a shared (1-CPU CI) host see scheduler noise only ever
/// *add* time, so the minimum is the noise-robust estimator — the
/// windowed/batched and batched/point CI sentinels gate on these numbers
/// and must not flake.
const PASSES: usize = 5;

/// One (backend, read mode) latency measurement against a frozen epoch.
#[derive(Clone, Debug)]
pub struct BackendReadLatencyPoint {
    /// Backend name (`"local"` / `"channel"` / `"remote"`).
    pub backend: &'static str,
    /// Read mode (`"point"` / `"batched"` / `"windowed"` /
    /// `"indexed-first"` / `"indexed-last"` / `"indexed-run"`).
    pub mode: &'static str,
    /// Distinct keys resident in the epoch.
    pub keys: usize,
    /// Lookups timed (per pass); values read, for `indexed-run`.
    pub reads: usize,
    /// Mean latency per lookup (per value, for `indexed-run`), nanoseconds
    /// — minimum over `PASSES` timed passes.
    pub ns_per_read: f64,
    /// Checksum of the values read (anti-dead-code; equal across backends,
    /// and across the point, batched and windowed modes).
    pub checksum: u64,
}

fn probes(keys: usize, reads: usize, seed: u64) -> Vec<Key> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..reads)
        .map(|_| Key::of(KeyTag::Scalar, rng.gen_range(0..keys as u64)))
        .collect()
}

/// Measure the point and batched modes of one backend's view.
fn measure_view(
    name: &'static str,
    mut backend: Box<dyn DdsBackend>,
    keys: usize,
    reads: usize,
    threads: usize,
    seed: u64,
) -> Vec<BackendReadLatencyPoint> {
    backend.commit_round(vec![workload(keys, seed)], threads);
    let view = backend.advance(threads);
    let probes = probes(keys, reads, seed);

    // The two modes take turns, pass by pass, so a stretch of host noise
    // lands on both rather than on whichever ran through it: the CI gate
    // reads their ratio.
    let mut out = vec![None; FLIGHT];
    let (mut point_ns, mut batched_ns) = (f64::INFINITY, f64::INFINITY);
    let (mut point_sum, mut batched_sum) = (0u64, 0u64);
    for pass in 0..PASSES {
        let started = Instant::now();
        let mut sum = 0u64;
        for key in &probes {
            if let Some(value) = view.get(key) {
                sum = sum.wrapping_add(value.x);
            }
        }
        point_ns = point_ns.min(started.elapsed().as_nanos() as f64 / reads.max(1) as f64);
        if pass > 0 {
            assert_eq!(sum, point_sum, "passes must agree on every read");
        }
        point_sum = sum;

        let started = Instant::now();
        let mut sum = 0u64;
        for flight in probes.chunks(FLIGHT) {
            view.get_many_slice(flight, &mut out);
            for value in out.iter().take(flight.len()).flatten() {
                sum = sum.wrapping_add(value.x);
            }
        }
        batched_ns = batched_ns.min(started.elapsed().as_nanos() as f64 / reads.max(1) as f64);
        assert_eq!(sum, point_sum, "modes must agree on every read");
        batched_sum = sum;
    }
    vec![
        BackendReadLatencyPoint {
            backend: name,
            mode: "point",
            keys,
            reads,
            ns_per_read: point_ns,
            checksum: point_sum,
        },
        BackendReadLatencyPoint {
            backend: name,
            mode: "batched",
            keys,
            reads,
            ns_per_read: batched_ns,
            checksum: batched_sum,
        },
    ]
}

/// Measure `get_indexed` at the first and the last index of a [`RUN`]-value
/// run, and `get_indexed_slice` flights of [`RUN_FLIGHT`] values of it, in
/// an epoch of the workload's keys plus the run.  The three take turns,
/// pass by pass, like the modes of [`measure_view`].
fn measure_indexed(
    name: &'static str,
    mut backend: Box<dyn DdsBackend>,
    keys: usize,
    reads: usize,
    threads: usize,
    seed: u64,
) -> Vec<BackendReadLatencyPoint> {
    let run_key = Key::of(KeyTag::Custom(0), 0);
    let mut pairs = workload(keys, seed);
    pairs.extend((0..RUN as u64).map(|i| (run_key, Value::scalar(i))));
    backend.commit_round(vec![pairs], threads);
    let view = backend.advance(threads);

    let indices = [0, RUN - 1];
    let mut best_ns = [f64::INFINITY; 3];
    let mut checksums = [0u64; 3];
    let mut out = [None; RUN_FLIGHT];
    let values = reads / RUN_FLIGHT * RUN_FLIGHT;
    for _ in 0..PASSES {
        for (slot, &index) in indices.iter().enumerate() {
            let started = Instant::now();
            let mut sum = 0u64;
            for _ in 0..reads {
                if let Some(value) = view.get_indexed(&run_key, std::hint::black_box(index)) {
                    sum = sum.wrapping_add(value.x);
                }
            }
            best_ns[slot] =
                best_ns[slot].min(started.elapsed().as_nanos() as f64 / reads.max(1) as f64);
            // Value `i` of the run is `i`: its values keep commit order.
            assert_eq!(sum, (index * reads) as u64, "index {index} of the run");
            checksums[slot] = sum;
        }

        let started = Instant::now();
        let mut sum = 0u64;
        for flight in 0..reads / RUN_FLIGHT {
            let start = std::hint::black_box(run_flight_start(flight));
            view.get_indexed_slice(&run_key, start, &mut out);
            for value in out.iter().flatten() {
                sum = sum.wrapping_add(value.x);
            }
        }
        best_ns[2] = best_ns[2].min(started.elapsed().as_nanos() as f64 / values.max(1) as f64);
        assert_eq!(sum, run_checksum(reads), "flights of the run");
        checksums[2] = sum;
    }
    let modes = ["indexed-first", "indexed-last", "indexed-run"];
    (modes.into_iter().zip([reads, reads, values]).enumerate())
        .map(|(slot, (mode, reads))| BackendReadLatencyPoint {
            backend: name,
            mode,
            keys,
            reads,
            ns_per_read: best_ns[slot],
            checksum: checksums[slot],
        })
        .collect()
}

/// Measure the auto-batching window through a real single-machine round.
fn measure_windowed(
    name: &'static str,
    backend: Box<dyn DdsBackend>,
    keys: usize,
    reads: usize,
    threads: usize,
    seed: u64,
) -> BackendReadLatencyPoint {
    let config = AmpcConfig::for_graph(keys.max(4), 0, 0.5)
        .with_num_shards(backend.num_shards())
        .expect("bench shard counts are in range")
        .with_threads(threads)
        .with_seed(seed);
    let mut runtime = AmpcRuntime::from_backend(config, backend);
    runtime.load_input(workload(keys, seed));
    let probes = probes(keys, reads, seed);
    let probes = &probes;
    let (ns_per_read, checksum) = runtime
        .run_round(1, move |ctx| {
            let mut best_ns = f64::INFINITY;
            let mut checksum = 0u64;
            let mut tickets: Vec<ReadTicket> = Vec::with_capacity(FLIGHT);
            for pass in 0..PASSES {
                let started = Instant::now();
                let mut sum = 0u64;
                for flight in probes.chunks(FLIGHT) {
                    tickets.clear();
                    tickets.extend(flight.iter().map(|&key| ctx.queue_read(key)));
                    for &ticket in &tickets {
                        if let Some(value) = ctx.take_read(ticket) {
                            sum = sum.wrapping_add(value.x);
                        }
                    }
                }
                best_ns =
                    best_ns.min(started.elapsed().as_nanos() as f64 / probes.len().max(1) as f64);
                if pass > 0 {
                    assert_eq!(sum, checksum, "passes must agree on every read");
                }
                checksum = sum;
            }
            (best_ns, checksum)
        })
        .expect("bench round stays within Record budget mode")
        .remove(0);
    BackendReadLatencyPoint {
        backend: name,
        mode: "windowed",
        keys,
        reads,
        ns_per_read,
        checksum,
    }
}

/// Run the full experiment: every read mode on every shipped backend, same
/// resident keys, same probe sequence.
///
/// `threads` caps backend parallelism (owner threads for the channel
/// backend; 0 = one per available CPU).
pub fn backend_read_latency(
    keys: usize,
    reads: usize,
    shards: usize,
    threads: usize,
    seed: u64,
) -> Vec<BackendReadLatencyPoint> {
    let threads = if threads == 0 {
        ampc_dds::default_parallelism()
    } else {
        threads
    };
    type Open = fn(usize, usize) -> Box<dyn DdsBackend>;
    let backends: [(&str, Open); 3] = [
        ("local", |shards, _| Box::new(LocalBackend::new(shards))),
        ("channel", |shards, threads| {
            Box::new(ChannelBackend::new(shards, threads))
        }),
        ("remote", |shards, threads| {
            Box::new(TcpBackend::new(shards, threads))
        }),
    ];
    let mut points = Vec::new();
    for (name, open) in backends {
        let open = || open(shards, threads);
        points.extend(measure_view(name, open(), keys, reads, threads, seed));
        points.push(measure_windowed(name, open(), keys, reads, threads, seed));
        points.extend(measure_indexed(name, open(), keys, reads, threads, seed));
    }
    let checksum = points[0].checksum;
    assert!(
        (points.iter())
            .filter(|p| !p.mode.starts_with("indexed"))
            .all(|p| p.checksum == checksum),
        "backends must agree on every read"
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_covers_every_backend_and_mode() {
        let points = backend_read_latency(2_000, 10_000, 16, 2, 42);
        let labels: Vec<(&str, &str)> = points.iter().map(|p| (p.backend, p.mode)).collect();
        assert_eq!(
            labels,
            vec![
                ("local", "point"),
                ("local", "batched"),
                ("local", "windowed"),
                ("local", "indexed-first"),
                ("local", "indexed-last"),
                ("local", "indexed-run"),
                ("channel", "point"),
                ("channel", "batched"),
                ("channel", "windowed"),
                ("channel", "indexed-first"),
                ("channel", "indexed-last"),
                ("channel", "indexed-run"),
                ("remote", "point"),
                ("remote", "batched"),
                ("remote", "windowed"),
                ("remote", "indexed-first"),
                ("remote", "indexed-last"),
                ("remote", "indexed-run"),
            ]
        );
        for point in &points {
            assert_eq!(point.keys, 2_000);
            assert_eq!(point.reads, 10_000);
            assert!(point.ns_per_read > 0.0, "{point:?}");
        }
        // Every read mode on every backend read the exact same values, each
        // indexed read the value at its index (`0` and `RUN - 1`), and the
        // run flights every value of theirs.
        for point in &points {
            let expected = match point.mode {
                "indexed-first" => 0,
                "indexed-last" => (RUN as u64 - 1) * 10_000,
                "indexed-run" => run_checksum(10_000),
                _ => points[0].checksum,
            };
            assert_eq!(point.checksum, expected, "{point:?}");
        }
    }
}
