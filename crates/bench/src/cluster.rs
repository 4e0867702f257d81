//! Cluster commit scaling: does sharding the store across range owners keep
//! the commit path fast?
//!
//! The cluster backend routes each round's writes to the owner holding the
//! destination shard and advances every owner with one `Advance` each.
//! This experiment commits the same workload over the same total shard
//! count at `owners = 1` and `owners = 2` of a local cluster (owner threads
//! behind loopback sockets, `TcpBackend::spawn_local`) and reports
//! commit-request throughput, so a regression in the routing/advance
//! overhead shows up as a trajectory change in `BENCH_commit.json` rather
//! than going unnoticed.

use crate::commit::workload;
use ampc_dds::{DdsBackend, Key, TcpBackend, Value};
use std::time::Instant;

/// One cluster commit-throughput measurement at a fixed owner count.
#[derive(Clone, Debug)]
pub struct ClusterCommitPoint {
    /// Owners (threads of a local cluster) the shards are split across.
    pub owners: usize,
    /// Total shards (identical across owner counts).
    pub shards: usize,
    /// Key-value pairs committed per round.
    pub pairs_per_round: usize,
    /// Rounds committed and advanced.
    pub rounds: usize,
    /// Wall time of the `commit_round` calls alone, nanoseconds.
    pub commit_ns: u64,
    /// Wall time of the full rounds (commit + advance),
    /// nanoseconds.
    pub round_ns: u64,
}

impl ClusterCommitPoint {
    /// Wire `Commit` requests served per second (one per owner per round).
    pub fn commit_reqs_per_sec(&self) -> f64 {
        (self.rounds * self.owners) as f64 * 1e9 / self.commit_ns.max(1) as f64
    }

    /// Committed pairs per second over the commit path alone, in millions.
    pub fn commit_mpairs_per_sec(&self) -> f64 {
        (self.rounds * self.pairs_per_round) as f64 * 1e3 / self.commit_ns.max(1) as f64
    }

    /// Full rounds (commit + advance) per second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 * 1e9 / self.round_ns.max(1) as f64
    }
}

fn measure(
    owners: usize,
    pairs_per_round: usize,
    shards: usize,
    rounds: usize,
    seed: u64,
) -> ClusterCommitPoint {
    let threads = 2;
    let mut backend =
        TcpBackend::spawn_local(owners, shards).expect("spawning a local cluster on loopback");
    // The runtime hands the backend one write buffer per virtual machine;
    // four batches keeps the partition pass honest without dominating.
    let batches: Vec<Vec<(Key, Value)>> = workload(pairs_per_round, seed)
        .chunks(pairs_per_round.div_ceil(4).max(1))
        .map(<[(Key, Value)]>::to_vec)
        .collect();

    let mut commit_ns = 0u64;
    let started_rounds = Instant::now();
    for _ in 0..rounds {
        let started = Instant::now();
        backend.commit_round(batches.clone(), threads);
        commit_ns += started.elapsed().as_nanos() as u64;
        let view = backend.advance(threads);
        drop(view);
    }
    let round_ns = started_rounds.elapsed().as_nanos() as u64;
    assert_eq!(backend.completed_epochs(), rounds);

    ClusterCommitPoint {
        owners,
        shards,
        pairs_per_round,
        rounds,
        commit_ns,
        round_ns,
    }
}

/// Commit `rounds` rounds of `pairs_per_round` pairs over `shards` total
/// shards at owner counts 1 and 2 — same workload, same shard count, so the
/// two points differ only in how many processes the store is split across.
pub fn cluster_commit_scaling(
    pairs_per_round: usize,
    shards: usize,
    rounds: usize,
    seed: u64,
) -> Vec<ClusterCommitPoint> {
    vec![
        measure(1, pairs_per_round, shards, rounds, seed),
        measure(2, pairs_per_round, shards, rounds, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_series_reports_both_owner_counts() {
        let points = cluster_commit_scaling(2_000, 8, 3, 17);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].owners, 1);
        assert_eq!(points[1].owners, 2);
        for point in &points {
            assert_eq!(point.shards, 8);
            assert_eq!(point.rounds, 3);
            assert!(point.commit_ns > 0 && point.round_ns >= point.commit_ns);
            assert!(point.commit_reqs_per_sec() > 0.0);
            assert!(point.rounds_per_sec() > 0.0);
        }
    }
}
