//! Pointer jumping baselines: list ranking and `O(log n)` connectivity.
//!
//! In the MPC model a machine cannot chase a pointer chain within a round —
//! each hop costs a round — so the classic way to rank lists and label
//! components is *pointer jumping*: in every round each element replaces its
//! pointer `p(v)` by `p(p(v))`, halving the remaining distance.  That costs
//! `Θ(log n)` rounds, which is precisely what the AMPC `Shrink` /
//! list-ranking algorithms (Sections 4 and 8 of the paper) replace with
//! `O(1/ε)` rounds of adaptive traversal.
//!
//! Two baselines live here:
//! * [`wyllie_list_ranking`] — Wyllie's list-ranking algorithm.
//! * [`pointer_doubling_connectivity`] — Shiloach–Vishkin-style connectivity
//!   (hook each root onto its minimum neighbouring root, then shortcut by
//!   pointer jumping), the standard `O(log n)`-round MPC connectivity used
//!   as the 2-Cycle baseline.

use crate::algorithms::record_superstep;
use ampc_graph::Graph;
use ampc_runtime::RunStats;

/// Wyllie's list ranking by pointer jumping.
///
/// `successor[v]` is the next element of the list, with the terminal element
/// pointing at itself.  Returns `(ranks, stats)` where `ranks[v]` is the
/// number of links between `v` and the terminal, computed in `Θ(log n)`
/// supersteps.
pub fn wyllie_list_ranking(successor: &[u32], machines: usize) -> (Vec<u64>, RunStats) {
    let n = successor.len();
    let machines = machines.max(1);
    let mut stats = RunStats::default();
    let mut next: Vec<u32> = successor.to_vec();
    let mut rank: Vec<u64> = (0..n)
        .map(|v| u64::from(successor[v] != v as u32))
        .collect();

    loop {
        // A vertex still benefits from jumping while its successor is not
        // yet the terminal (i.e. jumping would move its pointer).
        let active: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                let s = next[v as usize];
                s != v && next[s as usize] != s
            })
            .collect();
        if active.is_empty() {
            break;
        }
        let mut new_next = next.clone();
        let mut new_rank = rank.clone();
        for &v in &active {
            let s = next[v as usize];
            new_rank[v as usize] = rank[v as usize] + rank[s as usize];
            new_next[v as usize] = next[s as usize];
        }
        let messages = 2 * active.len() as u64;
        let mut per_machine = vec![0u64; machines];
        for &v in &active {
            per_machine[next[v as usize] as usize % machines] += 1;
            per_machine[v as usize % machines] += 1;
        }
        let busiest = per_machine.iter().copied().max().unwrap_or(0);
        record_superstep(&mut stats, machines, messages, busiest);
        next = new_next;
        rank = new_rank;
        if stats.num_rounds() > 2 * (n.max(2).ilog2() as usize + 2) {
            break; // safety net; never hit for well-formed lists
        }
    }
    (rank, stats)
}

/// Connected components in `O(log n)` MPC rounds via Shiloach–Vishkin-style
/// hooking plus pointer jumping.
///
/// Every vertex maintains a parent pointer into a forest of rooted trees.
/// Each round (a constant number of MPC supersteps) does:
/// 1. **Hook**: for every edge, the larger root is hooked onto the smaller
///    adjacent root.
/// 2. **Shortcut**: every vertex replaces its parent by its grandparent
///    (pointer jumping), flattening the trees.
///
/// The number of roots drops geometrically, so `O(log n)` rounds suffice; on
/// a cycle of length `n` this is `Θ(log n)` — the baseline the AMPC `Shrink`
/// algorithm beats.
pub fn pointer_doubling_connectivity(graph: &Graph, machines: usize) -> (Vec<u32>, RunStats) {
    let n = graph.num_vertices();
    let machines = machines.max(1);
    let mut stats = RunStats::default();
    if n == 0 {
        return (Vec::new(), stats);
    }

    let mut parent: Vec<u32> = (0..n as u32).collect();

    loop {
        let mut changed = false;

        // Hook: each root adopts the minimum root seen across its incident
        // edges.  In MPC this is one round: every edge sends the two current
        // roots to each other's machines and roots aggregate the minimum.
        let mut candidate: Vec<u32> = (0..n as u32).map(|v| parent[v as usize]).collect();
        for e in graph.edges() {
            let ru = parent[e.u as usize];
            let rv = parent[e.v as usize];
            if ru == rv {
                continue;
            }
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            if lo < candidate[hi as usize] {
                candidate[hi as usize] = lo;
            }
        }
        for v in 0..n {
            let r = parent[v] as usize;
            if candidate[r] < parent[r] {
                parent[r] = candidate[r];
                changed = true;
            }
        }

        // Shortcut: pointer jumping, one MPC round of lookups.
        for v in 0..n {
            let g = parent[parent[v] as usize];
            if g != parent[v] {
                parent[v] = g;
                changed = true;
            }
        }

        // Each iteration costs two MPC supersteps: one to aggregate the
        // minimum adjacent root at every root (messages along every edge),
        // and one of pointer jumping (every vertex asks its parent).
        let hook_messages = 2 * graph.num_edges() as u64;
        record_superstep(
            &mut stats,
            machines,
            hook_messages,
            hook_messages.div_ceil(machines as u64),
        );
        let jump_messages = n as u64;
        record_superstep(
            &mut stats,
            machines,
            jump_messages,
            jump_messages.div_ceil(machines as u64),
        );

        if !changed {
            break;
        }
        if stats.num_rounds() > 4 * (n.max(2).ilog2() as usize + 2) {
            break; // safety net
        }
    }

    // Final flattening so every vertex reports its root directly (roots are
    // already component minima because hooking always goes to the minimum).
    let mut labels = parent;
    loop {
        let mut changed = false;
        for v in 0..n {
            let g = labels[labels[v] as usize];
            if g != labels[v] {
                labels[v] = g;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (labels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn wyllie_ranks_match_sequential() {
        // Build a list 0 -> 1 -> 2 -> ... -> 99 -> 99.
        let n = 100;
        let successor: Vec<u32> = (0..n as u32)
            .map(|v| if v + 1 < n as u32 { v + 1 } else { v })
            .collect();
        let (ranks, stats) = wyllie_list_ranking(&successor, 8);
        let expected = sequential::sequential_list_ranks(&successor);
        assert_eq!(ranks, expected);
        // Θ(log n) rounds: about 7 for n = 100.
        assert!(
            stats.num_rounds() >= 5 && stats.num_rounds() <= 9,
            "rounds = {}",
            stats.num_rounds()
        );
    }

    #[test]
    fn wyllie_on_singleton_list() {
        let (ranks, stats) = wyllie_list_ranking(&[0], 2);
        assert_eq!(ranks, vec![0]);
        assert_eq!(stats.num_rounds(), 0);
    }

    #[test]
    fn wyllie_on_shuffled_list() {
        // A list threaded through shuffled ids.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 512usize;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut successor = vec![0u32; n];
        for i in 0..n - 1 {
            successor[order[i] as usize] = order[i + 1];
        }
        successor[order[n - 1] as usize] = order[n - 1];
        let (ranks, _) = wyllie_list_ranking(&successor, 16);
        assert_eq!(ranks, sequential::sequential_list_ranks(&successor));
    }

    #[test]
    fn connectivity_on_cycles_matches_sequential() {
        for &(n, two) in &[(64usize, false), (64, true), (501, false), (500, true)] {
            let g = generators::two_cycle_instance(n, two, 3);
            let (labels, stats) = pointer_doubling_connectivity(&g, 8);
            assert_eq!(
                labels,
                sequential::connected_components(&g),
                "n={n} two={two}"
            );
            // Θ(log n) rounds with a modest constant.
            let logn = (n as f64).log2();
            assert!(
                (stats.num_rounds() as f64) <= 4.0 * logn + 8.0,
                "rounds = {} for n = {n}",
                stats.num_rounds()
            );
            assert!(stats.num_rounds() >= 2);
        }
    }

    #[test]
    fn connectivity_matches_sequential_on_general_graphs() {
        for seed in 0..3 {
            let g = generators::planted_components(300, 6, 4, seed);
            let (labels, _) = pointer_doubling_connectivity(&g, 8);
            assert_eq!(labels, sequential::connected_components(&g));
        }
    }

    #[test]
    fn connectivity_round_count_grows_with_n() {
        let small = generators::two_cycle_instance(64, false, 1);
        let large = generators::two_cycle_instance(8192, false, 1);
        let (_, small_stats) = pointer_doubling_connectivity(&small, 8);
        let (_, large_stats) = pointer_doubling_connectivity(&large, 8);
        assert!(large_stats.num_rounds() > small_stats.num_rounds());
    }

    #[test]
    fn connectivity_handles_isolated_vertices() {
        let g = ampc_graph::Graph::from_edges(4, &[ampc_graph::Edge::new(1, 2)]);
        let (labels, _) = pointer_doubling_connectivity(&g, 2);
        assert_eq!(labels, vec![0, 1, 1, 3]);
    }

    #[test]
    fn connectivity_on_empty_graph() {
        let g = ampc_graph::Graph::from_edges(0, &[]);
        let (labels, stats) = pointer_doubling_connectivity(&g, 2);
        assert!(labels.is_empty());
        assert_eq!(stats.num_rounds(), 0);
    }
}
