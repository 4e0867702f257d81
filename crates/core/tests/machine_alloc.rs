//! Pins the rule a round's machines follow: a machine hands back one buffer
//! of its results, not a heap list per start, so a machine thread's
//! allocations grow with the machines and rounds, not with the starts.  A
//! round's threads live for that round only, and what one allocates stays in
//! its own malloc arena after the calling thread frees it (the benchmark's
//! `peak_rss_mb`).  Checked with the process-wide and per-thread counters of
//! the `counting_alloc/` shim that `ampc-dds`' allocation tests use.

#[path = "../../dds/tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::{allocations, process_allocations};

use ampc_algorithms::{connectivity_with, forest_connectivity_with};
use ampc_graph::generators;
use ampc_runtime::{AmpcConfig, RunStats};
use std::sync::{Mutex, PoisonError};

/// Threads other than the caller make fewer than one allocator call per
/// this many starts.  Measured (Linux x86-64, glibc, 2 threads): one per
/// 13 starts for connectivity and one per 7 of the election's starts alone
/// for forest connectivity; a machine that allocates a list per start makes
/// one or more per start.
const STARTS_PER_ALLOCATION: u64 = 4;

/// The counters are process-wide, so the tests of this binary take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `run` and returns its stats with the allocator calls threads other
/// than the caller made meanwhile.
fn on_other_threads(run: impl FnOnce() -> RunStats) -> (u64, RunStats) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let (process, caller) = (process_allocations(), allocations());
    let stats = run();
    let caller = allocations() - caller;
    (process_allocations() - process - caller, stats)
}

/// `IncreaseDegrees`: on a connected graph every vertex has an edge, so the
/// first phase alone starts a bounded BFS from each of the `n` vertices, on
/// 34 machines.
#[test]
fn connectivity_machines_allocate_per_machine_not_per_ball() {
    let (n, m) = (16_384, 32_768);
    let graph = generators::connected_gnm(n, m, 3);
    let config = AmpcConfig::for_graph(n, m, 0.75)
        .with_seed(3)
        .with_threads(2);
    let (other, stats) = on_other_threads(|| connectivity_with(&graph, &config).stats);
    let starts = n as u64;
    assert!(
        other * STARTS_PER_ALLOCATION < starts,
        "machines made {other} allocator calls for at least {starts} starts in {} rounds",
        stats.num_rounds()
    );
}

/// Shrink's traversals and the election: every vertex still alive after
/// `Shrink` starts an election walk, and the election's scatter writes one
/// record per such vertex, so its writes count the election's starts, a
/// lower bound of all the starts.
#[test]
fn forest_connectivity_machines_allocate_per_machine_not_per_walk() {
    let n = 131_072;
    let forest = generators::random_forest(n, 4, 3);
    let config = AmpcConfig::for_graph(n, n, 0.9)
        .with_seed(3)
        .with_threads(2);
    let (other, stats) = on_other_threads(|| forest_connectivity_with(&forest, &config).stats);
    let [.., scatter, election] = &stats.rounds[..] else {
        panic!("{} rounds", stats.num_rounds())
    };
    assert_eq!(election.total_writes, 0, "the last round is the election");
    let starts = scatter.total_writes;
    assert!(
        other * STARTS_PER_ALLOCATION < starts,
        "machines made {other} allocator calls for at least {starts} starts in {} rounds",
        stats.num_rounds()
    );
}
