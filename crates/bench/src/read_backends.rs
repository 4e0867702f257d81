//! Per-backend read-latency experiment: Local vs Channel vs Remote (TCP),
//! point vs batched vs auto-batching window.
//!
//! The AMPC model charges algorithms per adaptive query, so the DDS read
//! path is the hot loop of every algorithm round.  This experiment probes
//! the same frozen epoch through every [`SnapshotView`] read mode, on every
//! shipped backend:
//!
//! * **point** — one [`SnapshotView::get`] per key, the model's plain
//!   adaptive read.  On `ChannelBackend` this used to be a full channel
//!   round-trip to the shard's owner thread; since the zero-copy epoch
//!   publication it is a lock-free probe of the `Arc`-shared frozen maps,
//!   which is exactly what this series quantifies.  On `TcpBackend` the
//!   probe hits the replica fetched over the wire at advance time — the
//!   `remote` series keeps that read path honest from day one.
//! * **batched** — [`SnapshotView::get_many_slice`] flights of
//!   [`FLIGHT`] keys, the explicit batching algorithms use when a whole key
//!   set is in hand.  A flight overlaps its keys' cache misses, so it must
//!   read faster per key than **point** does; CI fails the artifact where
//!   it does not.
//! * **windowed** — the runtime's auto-batching window
//!   (`MachineContext::queue_read` / `take_read`), timed through a real
//!   single-machine round so the ticket bookkeeping is part of the cost.
//!
//! The `summary` binary serialises the series into the
//! `read_latency_backends` section of `BENCH_commit.json`; the headline
//! number is channel-point vs local-point, which the ROADMAP perf target
//! requires within 2× of each other.

use crate::commit::workload;
use ampc_dds::{ChannelBackend, DdsBackend, Key, KeyTag, LocalBackend, SnapshotView, TcpBackend};
use ampc_runtime::{AmpcConfig, AmpcRuntime, ReadTicket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Keys per explicit `get_many_slice` flight in the batched mode.
const FLIGHT: usize = 256;

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
    /// Read mode (`"point"` / `"batched"` / `"windowed"`).
    pub mode: &'static str,
    /// Distinct keys resident in the epoch.
    pub keys: usize,
    /// Lookups timed (per pass).
    pub reads: usize,
    /// Mean latency per lookup, nanoseconds — minimum over [`PASSES`]
    /// timed passes.
    pub ns_per_read: f64,
    /// Checksum of the values read (anti-dead-code; equal across modes and
    /// backends).
    pub checksum: u64,
}

fn probes(keys: usize, reads: usize, seed: u64) -> Vec<Key> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..reads)
        .map(|_| Key::of(KeyTag::Scalar, rng.gen_range(0..keys as u64)))
        .collect()
}

/// Measure the point and batched modes of one backend's view.
fn measure_view<B: DdsBackend>(
    name: &'static str,
    keys: usize,
    reads: usize,
    shards: usize,
    threads: usize,
    seed: u64,
) -> Vec<BackendReadLatencyPoint> {
    let mut backend = B::with_shards(shards, threads);
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

/// Measure the auto-batching window through a real single-machine round.
fn measure_windowed<B: DdsBackend>(
    name: &'static str,
    keys: usize,
    reads: usize,
    shards: usize,
    threads: usize,
    seed: u64,
) -> BackendReadLatencyPoint {
    let config = AmpcConfig::for_graph(keys.max(4), 0, 0.5)
        .with_num_shards(shards)
        .expect("bench shard counts are in range")
        .with_threads(threads)
        .with_seed(seed);
    let mut runtime = AmpcRuntime::<B>::with_backend(config);
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
    let mut points = measure_view::<LocalBackend>("local", keys, reads, shards, threads, seed);
    points.push(measure_windowed::<LocalBackend>(
        "local", keys, reads, shards, threads, seed,
    ));
    points.extend(measure_view::<ChannelBackend>(
        "channel", keys, reads, shards, threads, seed,
    ));
    points.push(measure_windowed::<ChannelBackend>(
        "channel", keys, reads, shards, threads, seed,
    ));
    points.extend(measure_view::<TcpBackend>(
        "remote", keys, reads, shards, threads, seed,
    ));
    points.push(measure_windowed::<TcpBackend>(
        "remote", keys, reads, shards, threads, seed,
    ));
    let checksum = points[0].checksum;
    assert!(
        points.iter().all(|p| p.checksum == checksum),
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
                ("channel", "point"),
                ("channel", "batched"),
                ("channel", "windowed"),
                ("remote", "point"),
                ("remote", "batched"),
                ("remote", "windowed"),
            ]
        );
        for point in &points {
            assert_eq!(point.keys, 2_000);
            assert_eq!(point.reads, 10_000);
            assert!(point.ns_per_read > 0.0, "{point:?}");
        }
        // Every mode on every backend read the exact same values.
        assert!(points.iter().all(|p| p.checksum == points[0].checksum));
    }
}
