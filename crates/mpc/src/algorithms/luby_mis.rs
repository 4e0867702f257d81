//! Luby's maximal independent set: the `O(log n)`-round MPC baseline.
//!
//! In every round each surviving vertex draws a random priority; a vertex
//! joins the MIS if its priority beats every surviving neighbour's, and then
//! it and its neighbours leave the graph.  A constant fraction of edges is
//! removed per round in expectation, giving `O(log n)` rounds w.h.p. — the
//! baseline the paper's `O(1)`-round AMPC MIS (Section 5) is compared to.
//! (The best known MPC bound in the paper's table is Õ(√log n) [Ghaffari &
//! Uitto 2019]; Luby is the standard implementable baseline and an upper
//! bound on that column.)

use crate::algorithms::record_superstep;
use ampc_graph::Graph;
use ampc_runtime::RunStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run Luby's algorithm.  Returns the MIS membership bitmap and per-round
/// statistics (`stats.num_rounds()` is `O(log n)` w.h.p.).
pub fn luby_mis(graph: &Graph, machines: usize, seed: u64) -> (Vec<bool>, RunStats) {
    let n = graph.num_vertices();
    let machines = machines.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RunStats::default();

    let mut in_mis = vec![false; n];
    let mut alive = vec![true; n];
    let mut alive_count = n;

    while alive_count > 0 {
        // Each alive vertex draws a priority and sends it to its neighbours:
        // one MPC round of communication along every surviving edge.
        let priorities: Vec<u64> = (0..n)
            .map(|v| if alive[v] { rng.gen() } else { u64::MAX })
            .collect();

        let mut joins = Vec::new();
        let mut messages = 0u64;
        for v in 0..n as u32 {
            if !alive[v as usize] {
                continue;
            }
            let mut is_local_min = true;
            for &u in graph.neighbors(v) {
                if alive[u as usize] {
                    messages += 1;
                    // Tie-break by id so distinct vertices never tie.
                    if (priorities[u as usize], u) < (priorities[v as usize], v) {
                        is_local_min = false;
                    }
                }
            }
            if is_local_min {
                joins.push(v);
            }
        }

        for &v in &joins {
            in_mis[v as usize] = true;
            if alive[v as usize] {
                alive[v as usize] = false;
                alive_count -= 1;
            }
            for &u in graph.neighbors(v) {
                if alive[u as usize] {
                    alive[u as usize] = false;
                    alive_count -= 1;
                }
            }
        }

        record_superstep(
            &mut stats,
            machines,
            messages,
            messages.div_ceil(machines as u64),
        );
        if stats.num_rounds() > 8 * (n.max(2).ilog2() as usize + 2) {
            break; // safety net
        }
    }

    (in_mis, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn output_is_a_maximal_independent_set() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnm(300, 900, seed);
            let (mis, _) = luby_mis(&g, 8, seed);
            assert!(sequential::is_maximal_independent_set(&g, &mis));
        }
    }

    #[test]
    fn round_count_is_logarithmic() {
        let g = generators::erdos_renyi_gnm(2000, 8000, 1);
        let (_, stats) = luby_mis(&g, 16, 1);
        let logn = (2000f64).log2();
        assert!(
            stats.num_rounds() as f64 <= 3.0 * logn,
            "rounds = {}",
            stats.num_rounds()
        );
        assert!(stats.num_rounds() >= 1);
    }

    #[test]
    fn star_graph_resolves_quickly() {
        let g = generators::star(100);
        let (mis, stats) = luby_mis(&g, 4, 9);
        assert!(sequential::is_maximal_independent_set(&g, &mis));
        // Either the centre joins (1 vertex) or all leaves join (99 vertices).
        let size = mis.iter().filter(|&&b| b).count();
        assert!(size == 1 || size == 99);
        assert!(stats.num_rounds() <= 3);
    }

    #[test]
    fn graph_with_no_edges_takes_one_round() {
        let g = ampc_graph::Graph::from_edges(10, &[]);
        let (mis, stats) = luby_mis(&g, 2, 0);
        assert!(mis.iter().all(|&b| b));
        assert_eq!(stats.num_rounds(), 1);
    }
}
