//! Connectivity by label propagation: the `O(D)`-round MPC baseline.
//!
//! Every vertex repeatedly adopts the minimum label in its closed
//! neighbourhood and tells its neighbours when its label improves.  The
//! number of supersteps is `Θ(D)` (the graph diameter) — exactly the
//! dependence the paper's AMPC connectivity algorithm removes, and the
//! quantity the diameter-ablation benchmark sweeps.

use crate::algorithms::record_superstep;
use ampc_graph::Graph;
use ampc_runtime::{AmpcConfig, RunStats};

/// Connected components by min-label propagation.
///
/// Returns `(labels, stats)` where `labels[v]` is the smallest vertex id in
/// `v`'s component and `stats.num_rounds()` is `Θ(D)`.  The graph is spread
/// over the paper's `P = (n + m) / n^ε` machines, vertex `v` on machine
/// `v % P`; the final superstep, in which no label improves and nothing is
/// sent, is recorded too.
pub fn label_propagation_connectivity(graph: &Graph, epsilon: f64) -> (Vec<u32>, RunStats) {
    let n = graph.num_vertices();
    let machines = AmpcConfig::for_graph(n, graph.num_edges(), epsilon).num_machines();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    // inbox[v] is the smallest label mailed to v last superstep (u32::MAX:
    // none); mail sent now lands in `outbox` and is read next superstep.
    let mut inbox = vec![u32::MAX; n];
    let mut outbox = vec![u32::MAX; n];
    let mut per_machine = vec![0u64; machines];
    let mut stats = RunStats::default();

    // Label propagation needs up to D + 2 supersteps; D can approach n.
    for superstep in 0..n + 2 {
        let mut messages = 0u64;
        per_machine.fill(0);
        for v in 0..n {
            let improved = inbox[v] < labels[v];
            if improved {
                labels[v] = inbox[v];
            }
            if superstep == 0 || improved {
                for &u in graph.neighbors(v as u32) {
                    messages += 1;
                    per_machine[u as usize % machines] += 1;
                    outbox[u as usize] = outbox[u as usize].min(labels[v]);
                }
            }
        }
        let busiest = per_machine.iter().copied().max().unwrap_or(0);
        record_superstep(&mut stats, machines, messages, busiest);
        if messages == 0 {
            break;
        }
        std::mem::swap(&mut inbox, &mut outbox);
        outbox.fill(u32::MAX);
    }
    (labels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn matches_sequential_connectivity_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::planted_components(200, 5, 3, seed);
            let (labels, _) = label_propagation_connectivity(&g, 0.5);
            assert_eq!(labels, sequential::connected_components(&g));
        }
    }

    #[test]
    fn round_count_scales_with_diameter() {
        let short = generators::star(1000); // D = 2
        let long = generators::path(1000); // D = 999
        let (_, short_stats) = label_propagation_connectivity(&short, 0.5);
        let (_, long_stats) = label_propagation_connectivity(&long, 0.5);
        assert!(short_stats.num_rounds() <= 5);
        assert!(long_stats.num_rounds() >= 999);
        assert!(long_stats.num_rounds() > 50 * short_stats.num_rounds());
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let g = ampc_graph::Graph::from_edges(5, &[ampc_graph::Edge::new(0, 1)]);
        let (labels, _) = label_propagation_connectivity(&g, 0.5);
        assert_eq!(labels, vec![0, 0, 2, 3, 4]);
    }

    #[test]
    fn machines_are_sized_from_epsilon() {
        let (_, stats) = label_propagation_connectivity(&generators::cycle(400), 0.5);
        // (400 + 400) / 20
        assert!(stats.rounds.iter().all(|round| round.machines == 40));
    }

    #[test]
    fn empty_graph_records_one_silent_superstep() {
        let (labels, stats) =
            label_propagation_connectivity(&ampc_graph::Graph::from_edges(0, &[]), 0.5);
        assert!(labels.is_empty());
        assert_eq!(stats.num_rounds(), 1);
        assert_eq!(stats.total_writes(), 0);
    }
}
