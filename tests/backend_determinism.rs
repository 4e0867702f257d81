//! Cross-backend determinism: the same seed must produce **byte-identical**
//! algorithm outputs whatever DDS backend serves the rounds and however many
//! worker threads execute them.
//!
//! This is the property that makes a networked backend trustworthy at all:
//! if outputs depended on the store implementation or on scheduling, no
//! distributed deployment could be validated against the local runs.  Every
//! algorithm here goes through its `*_with` entry point, so the backend is
//! selected via `AmpcConfig` only — there are no per-algorithm code paths to
//! keep honest.

use ampc_algorithms as algo;
use ampc_graph::{generators, sequential};
use ampc_runtime::{AmpcConfig, DdsBackendKind};

/// Every (backend, threads, cluster owners) execution shape the suite pins
/// down.  `Remote` runs the full algorithm suite over localhost TCP sockets
/// speaking the `ampc_dds::proto` wire format — the acceptance test the
/// ROADMAP set for the networked backend.  `Cluster` shards the same suite
/// across local clusters of 2, 4 and 5 range owners behind the two-phase
/// advance barrier (5 does not divide the shard counts, and exceeds them in
/// the small late stages); the owners column is ignored by every other
/// backend.
const SHAPES: &[(DdsBackendKind, usize, usize)] = &[
    (DdsBackendKind::Local, 1, 0),
    (DdsBackendKind::Local, 2, 0),
    (DdsBackendKind::Local, 8, 0),
    (DdsBackendKind::Channel, 1, 0),
    (DdsBackendKind::Channel, 2, 0),
    (DdsBackendKind::Channel, 8, 0),
    (DdsBackendKind::Remote, 1, 0),
    (DdsBackendKind::Remote, 2, 0),
    (DdsBackendKind::Remote, 8, 0),
    (DdsBackendKind::Cluster, 1, 2),
    (DdsBackendKind::Cluster, 2, 2),
    (DdsBackendKind::Cluster, 8, 2),
    (DdsBackendKind::Cluster, 1, 4),
    (DdsBackendKind::Cluster, 2, 4),
    (DdsBackendKind::Cluster, 8, 4),
    (DdsBackendKind::Cluster, 2, 5),
];

fn config_for(
    n: usize,
    m: usize,
    seed: u64,
    backend: DdsBackendKind,
    threads: usize,
    owners: usize,
) -> AmpcConfig {
    let config = AmpcConfig::for_graph(n.max(1), m, 0.5)
        .with_seed(seed)
        .with_backend(backend)
        .with_threads(threads);
    if backend == DdsBackendKind::Cluster {
        config
            .with_cluster_owners(owners)
            .expect("shape owner counts are in range")
    } else {
        config
    }
}

/// Run `f` under every shape and assert all outputs equal the first.
fn assert_deterministic<T: PartialEq + std::fmt::Debug>(
    label: &str,
    f: impl Fn(DdsBackendKind, usize, usize) -> T,
) {
    let (first_backend, first_threads, first_owners) = SHAPES[0];
    let reference = f(first_backend, first_threads, first_owners);
    for &(backend, threads, owners) in &SHAPES[1..] {
        let output = f(backend, threads, owners);
        assert_eq!(
            output, reference,
            "{label}: output diverged on {backend:?} with {threads} threads \
             ({owners} owners)"
        );
    }
}

#[test]
fn connectivity_labels_are_identical_across_backends_and_threads() {
    let g = generators::planted_components(300, 5, 3, 7);
    assert_deterministic("connectivity", |backend, threads, owners| {
        let result = algo::connectivity_with(
            &g,
            &config_for(300, g.num_edges(), 7, backend, threads, owners),
        );
        result.output
    });
    // And the reference shape is actually correct.
    let local = algo::connectivity(&g, 0.5, 7);
    assert_eq!(local.output, sequential::connected_components(&g));
}

#[test]
fn mis_membership_is_identical_across_backends_and_threads() {
    let g = generators::erdos_renyi_gnm(250, 900, 3);
    assert_deterministic("mis", |backend, threads, owners| {
        algo::maximal_independent_set_with(&g, &config_for(250, 900, 3, backend, threads, owners))
            .output
    });
}

#[test]
fn list_ranks_are_identical_across_backends_and_threads() {
    // A shuffled single list plus a couple of short ones.
    let successor: Vec<u32> = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = 600usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut successor = vec![0u32; n];
        for i in 0..n - 1 {
            successor[order[i] as usize] = order[i + 1];
        }
        successor[order[n - 1] as usize] = order[n - 1];
        successor
    };
    assert_deterministic("list_ranking", |backend, threads, owners| {
        algo::list_ranking_with(
            &successor,
            &config_for(
                successor.len(),
                successor.len(),
                5,
                backend,
                threads,
                owners,
            ),
        )
        .output
    });
    assert_eq!(
        algo::list_ranking(&successor, 0.5, 5).output,
        sequential::sequential_list_ranks(&successor)
    );
}

#[test]
fn msf_edge_set_is_identical_across_backends_and_threads() {
    let base = generators::connected_gnm(200, 600, 9);
    let g = generators::with_random_weights(&base, 1009);
    assert_deterministic("msf", |backend, threads, owners| {
        let result = algo::minimum_spanning_forest_with(
            &g,
            &config_for(200, 600, 9, backend, threads, owners),
        );
        (
            result.output.edges,
            result.output.total_weight,
            result.output.labels,
        )
    });
}

#[test]
fn two_cycle_and_cycle_connectivity_run_on_every_shape() {
    let one = generators::two_cycle_instance(400, false, 2);
    let two = generators::two_cycle_instance(400, true, 2);
    assert_deterministic("two_cycle", |backend, threads, owners| {
        (
            algo::two_cycle_with(&one, &config_for(400, 400, 2, backend, threads, owners)).output,
            algo::two_cycle_with(&two, &config_for(400, 400, 2, backend, threads, owners)).output,
        )
    });
    let cycles = generators::two_cycles(240);
    assert_deterministic("cycle_connectivity", |backend, threads, owners| {
        algo::cycle_connectivity_with(&cycles, &config_for(240, 240, 2, backend, threads, owners))
            .output
    });
}

#[test]
fn forest_and_euler_pipelines_run_on_every_shape() {
    let forest = generators::random_forest(250, 8, 4);
    assert_deterministic("forest_connectivity", |backend, threads, owners| {
        algo::forest_connectivity_with(&forest, &config_for(250, 250, 4, backend, threads, owners))
            .output
    });
    let tree = generators::random_tree(180, 6);
    assert_deterministic("root_forest", |backend, threads, owners| {
        let rooted = algo::root_forest_with(
            &tree,
            None,
            &config_for(180, 360, 6, backend, threads, owners),
        )
        .output;
        (rooted.parent, rooted.preorder, rooted.subtree_size)
    });
}

#[test]
fn two_edge_connectivity_runs_on_every_shape() {
    let g = generators::bridged_blocks(5, 4, 2, 8);
    assert_deterministic("two_edge_connectivity", |backend, threads, owners| {
        let result = algo::two_edge_connectivity_with(
            &g,
            &config_for(g.num_vertices(), g.num_edges(), 8, backend, threads, owners),
        )
        .output;
        (
            result.bridges,
            result.two_edge_components,
            result.connectivity,
        )
    });
    // The channel-backend output is pinned to the sequential reference too.
    let via_channel = algo::two_edge_connectivity_with(
        &g,
        &config_for(
            g.num_vertices(),
            g.num_edges(),
            8,
            DdsBackendKind::Channel,
            2,
            0,
        ),
    );
    assert_eq!(via_channel.output.bridges, sequential::bridges(&g));
    assert_eq!(
        via_channel.output.two_edge_components,
        sequential::two_edge_connected_components(&g)
    );
}

#[test]
fn round_and_query_statistics_match_across_backends() {
    // Not just outputs: the recorded round structure (rounds, queries,
    // writes, per-machine maxima) is part of what the paper's theorems
    // bound, and it must not depend on the store implementation.
    let g = generators::connected_gnm(200, 700, 12);
    let stats_of = |backend: DdsBackendKind, owners: usize| {
        let result = algo::connectivity_with(&g, &config_for(200, 700, 12, backend, 2, owners));
        result
            .stats
            .rounds
            .iter()
            .map(|r| {
                (
                    r.round,
                    r.machines,
                    r.total_queries,
                    r.max_queries_per_machine,
                    r.total_writes,
                    r.max_writes_per_machine,
                    r.budget_violations,
                )
            })
            .collect::<Vec<_>>()
    };
    let reference = stats_of(DdsBackendKind::Local, 0);
    assert_eq!(reference, stats_of(DdsBackendKind::Channel, 0));
    assert_eq!(reference, stats_of(DdsBackendKind::Remote, 0));
    assert_eq!(reference, stats_of(DdsBackendKind::Cluster, 2));
    assert_eq!(reference, stats_of(DdsBackendKind::Cluster, 4));
}
