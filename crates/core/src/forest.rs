//! Section 8: forest connectivity in `O(1/ε)` AMPC rounds (Theorem 5).
//!
//! The classic reduction: the Euler tour of every tree is a cycle over its
//! arcs, so connectivity of a forest reduces to connectivity of a union of
//! cycles, which `Shrink` + the minimum-priority election (Algorithm 10,
//! [`crate::shrink::cycle_connectivity_from_neighbors`]) solves in `O(1/ε)`
//! rounds.  Arc labels are then mapped back to the vertices incident to the
//! arcs; vertices with no incident tree edge are their own components.

use crate::common::AlgorithmResult;
use crate::euler::euler_tour;
use crate::shrink::cycle_connectivity_from_neighbors_with;
use ampc_graph::{canonicalize_labels, Graph};
use ampc_runtime::AmpcConfig;

/// Theorem 5: connected components of a forest.
///
/// Returns canonical component labels (`labels[v]` = smallest vertex id of
/// `v`'s tree).
///
/// # Panics
/// If the input contains a cycle (it must be a forest).
pub fn forest_connectivity(forest: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u32>> {
    let n = forest.num_vertices();
    let arcs = 2 * forest.num_edges();
    forest_connectivity_with(
        forest,
        &AmpcConfig::for_graph(n.max(arcs).max(1), arcs, epsilon).with_seed(seed),
    )
}

/// [`forest_connectivity`] with an explicit [`AmpcConfig`]: ε and seed come
/// from the config, which also selects the DDS backend for the cycle
/// connectivity underneath.
pub fn forest_connectivity_with(forest: &Graph, config: &AmpcConfig) -> AlgorithmResult<Vec<u32>> {
    let n = forest.num_vertices();
    let tour = euler_tour(forest);
    let num_arcs = tour.num_arcs();

    if num_arcs == 0 {
        // No edges at all: every vertex is its own component, zero rounds.
        return AlgorithmResult::new((0..n as u32).collect(), ampc_runtime::RunStats::default());
    }

    // The Euler tour is a successor permutation over arcs whose orbits are
    // exactly the trees; as an undirected cycle graph each arc's neighbours
    // are its predecessor and successor in the tour.
    let nbrs = tour.prev.iter().copied().zip(tour.next.iter().copied());
    let arc_labels = cycle_connectivity_from_neighbors_with(nbrs.collect(), config);

    // Map arc components back to vertex components: a vertex takes the label
    // of any incident arc (all incident arcs share the label: they belong to
    // the same tree's tour).  Isolated vertices get fresh labels.
    let mut labels = vec![u32::MAX; n];
    for a in 0..num_arcs {
        let tail = tour.arc_tail[a] as usize;
        let head = tour.arc_head[a] as usize;
        let label = arc_labels.output[a];
        labels[tail] = labels[tail].min(label);
        labels[head] = labels[head].min(label);
    }
    for (v, label) in labels.iter_mut().enumerate() {
        if *label == u32::MAX {
            *label = num_arcs as u32 + v as u32;
        }
    }
    AlgorithmResult::new(canonicalize_labels(&labels), arc_labels.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn matches_sequential_on_random_forests() {
        for &(n, trees) in &[(200usize, 5usize), (500, 20), (100, 1), (64, 64)] {
            let g = generators::random_forest(n, trees, 3);
            let result = forest_connectivity(&g, 0.5, 3);
            assert_eq!(
                result.output,
                sequential::connected_components(&g),
                "n={n} trees={trees}"
            );
        }
    }

    #[test]
    fn single_path_and_binary_tree() {
        let p = generators::path(300);
        assert_eq!(forest_connectivity(&p, 0.5, 1).output, vec![0; 300]);
        let b = generators::binary_tree(127);
        assert_eq!(forest_connectivity(&b, 0.5, 1).output, vec![0; 127]);
    }

    #[test]
    fn isolated_vertices_are_own_components() {
        let g = Graph::from_edges(6, &[ampc_graph::Edge::new(2, 4)]);
        let result = forest_connectivity(&g, 0.5, 0);
        assert_eq!(result.output, vec![0, 1, 2, 3, 2, 5]);
    }

    #[test]
    fn edgeless_forest_takes_zero_rounds() {
        let g = Graph::from_edges(10, &[]);
        let result = forest_connectivity(&g, 0.5, 0);
        assert_eq!(result.output, (0..10u32).collect::<Vec<_>>());
        assert_eq!(result.rounds(), 0);
    }

    #[test]
    fn round_count_is_constant_in_forest_size() {
        let small = generators::random_forest(200, 4, 2);
        let large = generators::random_forest(4000, 4, 2);
        let small_rounds = forest_connectivity(&small, 0.5, 2).rounds();
        let large_rounds = forest_connectivity(&large, 0.5, 2).rounds();
        let cap = 2 * ((4.0 / 0.5) as usize + 6);
        assert!(small_rounds <= cap, "small rounds {small_rounds}");
        assert!(large_rounds <= cap, "large rounds {large_rounds}");
    }

    #[test]
    #[should_panic(expected = "forest")]
    fn cyclic_input_rejected() {
        let g = generators::cycle(10);
        let _ = forest_connectivity(&g, 0.5, 0);
    }
}
