//! Borůvka's minimum spanning forest: the `O(log n)`-round MPC baseline.
//!
//! In every round each component selects its minimum-weight outgoing edge and
//! the selected edges are contracted; the number of components at least
//! halves per round, so `Θ(log n)` rounds suffice.  This is the standard MPC
//! MSF algorithm the paper's `O(log log_{m/n} n)`-round AMPC algorithm
//! (Section 7) is compared against in Figure 1.

use crate::algorithms::record_superstep;
use ampc_graph::{Graph, UnionFind, WeightedEdge};
use ampc_runtime::RunStats;

/// Run Borůvka's algorithm on a weighted graph.
///
/// Returns the MSF edges (original ids), the total weight, and per-round
/// statistics.  Weights are assumed distinct (ties broken by edge id).
pub fn boruvka_msf(graph: &Graph, machines: usize) -> (Vec<WeightedEdge>, u64, RunStats) {
    assert!(graph.is_weighted(), "Borůvka needs a weighted graph");
    let n = graph.num_vertices();
    let machines = machines.max(1);
    let edges = graph.weighted_edges();
    let mut stats = RunStats::default();

    let mut uf = UnionFind::new(n);
    let mut forest: Vec<WeightedEdge> = Vec::new();
    let mut total = 0u64;

    loop {
        // Each component scans its incident edges for the cheapest outgoing
        // one — in MPC this is one round of sort/aggregate over all edges.
        let mut best: Vec<Option<WeightedEdge>> = vec![None; n];
        let mut messages = 0u64;
        for e in &edges {
            let ru = uf.find(e.u) as usize;
            let rv = uf.find(e.v) as usize;
            if ru == rv {
                continue;
            }
            messages += 2;
            for &root in &[ru, rv] {
                let better = match best[root] {
                    None => true,
                    Some(cur) => (e.weight, e.id) < (cur.weight, cur.id),
                };
                if better {
                    best[root] = Some(*e);
                }
            }
        }

        let mut merged_any = false;
        for e in best.iter().copied().flatten() {
            if uf.union(e.u, e.v) {
                forest.push(e);
                total += e.weight;
                merged_any = true;
            }
        }

        record_superstep(
            &mut stats,
            machines,
            messages,
            messages.div_ceil(machines as u64),
        );

        if !merged_any {
            break;
        }
    }

    (forest, total, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4 {
            let base = generators::connected_gnm(150, 400, seed);
            let g = generators::with_random_weights(&base, seed + 100);
            let (forest, total, _) = boruvka_msf(&g, 8);
            let (kruskal, kruskal_total) = sequential::kruskal_msf(&g);
            assert_eq!(total, kruskal_total, "seed {seed}");
            assert_eq!(forest.len(), kruskal.len());
        }
    }

    #[test]
    fn works_on_disconnected_graphs() {
        let base = generators::random_forest(100, 4, 7);
        let g = generators::with_random_weights(&base, 8);
        let (forest, total, _) = boruvka_msf(&g, 4);
        let (_, kruskal_total) = sequential::kruskal_msf(&g);
        assert_eq!(total, kruskal_total);
        assert_eq!(forest.len(), 96); // n - #components
    }

    #[test]
    fn round_count_is_logarithmic() {
        let base = generators::connected_gnm(4096, 12_000, 2);
        let g = generators::with_random_weights(&base, 3);
        let (_, _, stats) = boruvka_msf(&g, 16);
        // Components at least halve per round, so ≤ log2(n) + 1 productive
        // rounds plus the final empty round.
        assert!(stats.num_rounds() <= 14, "rounds = {}", stats.num_rounds());
        assert!(stats.num_rounds() >= 2);
    }

    #[test]
    fn single_edge_graph() {
        let g = Graph::from_weighted_edges(2, &[(0, 1, 5)]);
        let (forest, total, stats) = boruvka_msf(&g, 2);
        assert_eq!(forest.len(), 1);
        assert_eq!(total, 5);
        assert!(stats.num_rounds() >= 1);
    }

    #[test]
    #[should_panic(expected = "weighted")]
    fn unweighted_graph_rejected() {
        let g = generators::cycle(5);
        let _ = boruvka_msf(&g, 2);
    }
}
