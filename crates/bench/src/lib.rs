//! # ampc-bench — the experiment harness behind every table and figure
//!
//! The paper's evaluation artefact is **Figure 1**: a table of round
//! complexities comparing the new AMPC algorithms with the best known MPC
//! algorithms for six problems, plus the per-theorem bounds on rounds and
//! communication.  This crate regenerates those results:
//!
//! * [`figure1`] — one function per row of Figure 1 that runs the AMPC
//!   algorithm and the MPC baseline on the same generated instance and
//!   reports measured round counts and communication;
//! * [`series`] — the scaling "figures": round counts as a function of `n`,
//!   of the density `m/n` (the `log log_{m/n} n` term), of the diameter `D`
//!   (the `log D` term the MPC baselines pay), and of the space exponent ε
//!   (the ablation);
//! * [`contention`] — the Lemma 2.1 balls-into-bins experiment;
//! * [`commit`] — commit-path throughput (per-write locking vs shard-grouped
//!   vs shard-parallel), snapshot read latency (compact layout)
//!   and the shard-count sweep (2ᵏ shards vs the prime below), the series
//!   behind `BENCH_commit.json`;
//! * [`cluster`] — commit-request throughput with the store split across
//!   1 vs 2 cluster owners at the same total shard count, the
//!   `cluster_commit_scaling` section of the same artifact;
//! * [`read_backends`] — per-backend read latency (Local vs Channel; point
//!   vs batched vs auto-batching window), the `read_latency_backends`
//!   section of the same artifact;
//! * [`serve_throughput`] — many-client throughput against the standalone
//!   owner process, pipelined vs one-in-flight, the `serve_throughput`
//!   section of the same artifact;
//! * the `summary` binary (`cargo run -p ampc-bench --bin summary --release`)
//!   prints the whole reproduction as text tables;
//! * the `e2e` binary (`src/bin/e2e/`, the repo's benchmark: see its README)
//!   times the same algorithms end to end on every backend.

#![warn(missing_docs)]

pub mod cluster;
pub mod commit;
pub mod contention;
pub mod figure1;
pub mod read_backends;
pub mod series;
pub mod serve_throughput;

pub use cluster::{cluster_commit_scaling, ClusterCommitPoint};
pub use commit::{
    commit_throughput, read_latency, shard_sweep, CommitThroughputPoint, ReadLatencyPoint,
    ShardSweepPoint,
};
pub use contention::contention_experiment;
pub use figure1::{figure1_table, Figure1Row};
pub use read_backends::{backend_read_latency, BackendReadLatencyPoint};
pub use series::{density_series, diameter_series, epsilon_series, scaling_series, SeriesPoint};
pub use serve_throughput::{serve_throughput, ServeThroughputPoint};
