//! The 2-Cycle problem in MPC: `Θ(log n)` rounds via pointer doubling.
//!
//! The 2-Cycle conjecture (discussed in Section 1 of the paper) states that
//! distinguishing one `n`-cycle from two `n/2`-cycles requires `Ω(log n)` MPC
//! rounds with sublinear space per machine.  The matching upper bound is
//! pointer doubling: label every vertex with the minimum id of its component
//! in `O(log n)` rounds, then count distinct labels.  The AMPC algorithm of
//! Section 4 does the same job in `O(1/ε)` rounds — that gap is the
//! headline result the 2-Cycle benchmark reproduces.

use crate::algorithms::pointer_doubling::pointer_doubling_connectivity;
use ampc_graph::Graph;
use ampc_runtime::RunStats;

/// Answer to a 2-Cycle instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwoCycleAnswer {
    /// The graph is a single cycle.
    OneCycle,
    /// The graph consists of two cycles.
    TwoCycles,
}

/// Solve the 2-Cycle problem with the MPC pointer-doubling baseline.
///
/// # Panics
/// If the input is not a disjoint union of one or two cycles (every vertex
/// must have degree 2).
pub fn two_cycle_mpc(graph: &Graph, machines: usize) -> (TwoCycleAnswer, RunStats) {
    assert!(
        (0..graph.num_vertices() as u32).all(|v| graph.degree(v) == 2),
        "2-Cycle instances must be disjoint unions of cycles"
    );
    let (labels, stats) = pointer_doubling_connectivity(graph, machines);
    let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
    let answer = match distinct.len() {
        1 => TwoCycleAnswer::OneCycle,
        2 => TwoCycleAnswer::TwoCycles,
        k => panic!("2-Cycle instance had {k} components"),
    };
    (answer, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators;

    #[test]
    fn distinguishes_one_cycle_from_two() {
        for seed in 0..3 {
            let one = generators::two_cycle_instance(256, false, seed);
            let two = generators::two_cycle_instance(256, true, seed);
            assert_eq!(two_cycle_mpc(&one, 8).0, TwoCycleAnswer::OneCycle);
            assert_eq!(two_cycle_mpc(&two, 8).0, TwoCycleAnswer::TwoCycles);
        }
    }

    #[test]
    fn needs_logarithmically_many_rounds() {
        let small = generators::two_cycle_instance(64, false, 1);
        let large = generators::two_cycle_instance(4096, false, 1);
        let (_, small_stats) = two_cycle_mpc(&small, 8);
        let (_, large_stats) = two_cycle_mpc(&large, 8);
        // Rounds grow with log n: the large instance needs strictly more.
        assert!(large_stats.num_rounds() > small_stats.num_rounds());
        assert!(
            large_stats.num_rounds() >= 5,
            "rounds = {}",
            large_stats.num_rounds()
        );
    }

    #[test]
    #[should_panic(expected = "disjoint unions of cycles")]
    fn rejects_non_cycle_inputs() {
        let g = generators::path(10);
        let _ = two_cycle_mpc(&g, 4);
    }
}
