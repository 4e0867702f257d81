//! Figure 1 reproduction: measured AMPC vs MPC round counts per problem.
//!
//! Each function generates a workload sized by `n`, runs the paper's AMPC
//! algorithm and the corresponding MPC baseline on the *same* instance,
//! verifies both against the sequential reference, and reports the measured
//! rounds and communication.  The absolute numbers are simulation-specific;
//! the claim being reproduced is the *shape*: which model needs more rounds
//! and how that gap grows with `n`.

use ampc_algorithms as ampc;
use ampc_graph::{generators, sequential};
use ampc_mpc as mpc;

/// Space exponent used throughout the headline experiments.
pub const EPSILON: f64 = 0.5;

/// One row of the reproduced Figure 1.
#[derive(Clone, Debug)]
pub struct Figure1Row {
    /// Problem name as it appears in the paper's table.
    pub problem: &'static str,
    /// Paper's AMPC round bound (for the report).
    pub ampc_bound: &'static str,
    /// Paper's MPC round bound (for the report).
    pub mpc_bound: &'static str,
    /// Number of vertices of the measured instance.
    pub n: usize,
    /// Number of edges of the measured instance.
    pub m: usize,
    /// Measured AMPC rounds.
    pub ampc_rounds: usize,
    /// Measured MPC baseline rounds.
    pub mpc_rounds: usize,
    /// Total AMPC communication (queries + writes).
    pub ampc_communication: u64,
    /// Total MPC messages.
    pub mpc_messages: u64,
    /// Whether both outputs matched the sequential reference.
    pub verified: bool,
}

/// Row "2-Cycle": AMPC `Shrink` vs MPC pointer doubling.
pub fn row_two_cycle(n: usize, seed: u64) -> Figure1Row {
    let graph = generators::two_cycle_instance(n, seed.is_multiple_of(2), seed);
    let expected_two = seed.is_multiple_of(2);
    let a = ampc::two_cycle(&graph, EPSILON, seed);
    let (m_answer, m_stats) = mpc::two_cycle_mpc(&graph, 128);
    let verified = matches!(a.output, ampc::TwoCycleAnswer::TwoCycles) == expected_two
        && matches!(m_answer, mpc::TwoCycleAnswer::TwoCycles) == expected_two;
    Figure1Row {
        problem: "2-Cycle",
        ampc_bound: "O(1)",
        mpc_bound: "O(log n)",
        n: graph.num_vertices(),
        m: graph.num_edges(),
        ampc_rounds: a.rounds(),
        mpc_rounds: m_stats.num_rounds(),
        ampc_communication: a.stats.total_communication(),
        mpc_messages: m_stats.total_writes(),
        verified,
    }
}

/// Row "Maximal independent set": AMPC LFMIS vs Luby's algorithm.
pub fn row_mis(n: usize, seed: u64) -> Figure1Row {
    let graph = generators::erdos_renyi_gnm(n, 4 * n, seed);
    let a = ampc::maximal_independent_set(&graph, EPSILON, seed);
    let (l, l_stats) = mpc::luby_mis(&graph, 128, seed);
    let verified = sequential::is_maximal_independent_set(&graph, &a.output)
        && sequential::is_maximal_independent_set(&graph, &l);
    Figure1Row {
        problem: "Maximal independent set",
        ampc_bound: "O(1)",
        mpc_bound: "Õ(√log n)",
        n: graph.num_vertices(),
        m: graph.num_edges(),
        ampc_rounds: a.rounds(),
        mpc_rounds: l_stats.num_rounds(),
        ampc_communication: a.stats.total_communication(),
        mpc_messages: l_stats.total_writes(),
        verified,
    }
}

/// Row "Connectivity": AMPC Algorithm 7 vs Shiloach–Vishkin-style hooking.
pub fn row_connectivity(n: usize, seed: u64) -> Figure1Row {
    let graph = generators::planted_components(n, 8, (3 * n / 8).max(1), seed);
    let reference = sequential::connected_components(&graph);
    let a = ampc::connectivity(&graph, EPSILON, seed);
    let (labels, m_stats) = mpc::pointer_doubling_connectivity(&graph, 128);
    let verified = a.output == reference && labels == reference;
    Figure1Row {
        problem: "Connectivity",
        ampc_bound: "O(log log_{m/n} n)",
        mpc_bound: "O(log D · log log_{m/n} n)",
        n: graph.num_vertices(),
        m: graph.num_edges(),
        ampc_rounds: a.rounds(),
        mpc_rounds: m_stats.num_rounds(),
        ampc_communication: a.stats.total_communication(),
        mpc_messages: m_stats.total_writes(),
        verified,
    }
}

/// Row "Minimum spanning tree": AMPC Algorithm 9 vs Borůvka.
pub fn row_msf(n: usize, seed: u64) -> Figure1Row {
    let base = generators::connected_gnm(n, 3 * n, seed);
    let graph = generators::with_random_weights(&base, seed + 1);
    let (_, kruskal_weight) = sequential::kruskal_msf(&graph);
    let a = ampc::minimum_spanning_forest(&graph, EPSILON, seed);
    let (_, boruvka_weight, m_stats) = mpc::boruvka_msf(&graph, 128);
    let verified = a.output.total_weight == kruskal_weight && boruvka_weight == kruskal_weight;
    Figure1Row {
        problem: "Minimum spanning tree",
        ampc_bound: "O(log log_{m/n} n)",
        mpc_bound: "O(log n)",
        n: graph.num_vertices(),
        m: graph.num_edges(),
        ampc_rounds: a.rounds(),
        mpc_rounds: m_stats.num_rounds(),
        ampc_communication: a.stats.total_communication(),
        mpc_messages: m_stats.total_writes(),
        verified,
    }
}

/// Row "2-edge connectivity": AMPC BC-labeling vs (connectivity-based) MPC
/// pipeline — the baseline round count is the MPC connectivity rounds it
/// would pay at least twice.
pub fn row_two_edge(n: usize, seed: u64) -> Figure1Row {
    let graph = generators::bridged_blocks((n / 64).max(4), 32, 8, seed);
    let a = ampc::two_edge_connectivity(&graph, EPSILON, seed);
    let (_, m_stats) = mpc::pointer_doubling_connectivity(&graph, 128);
    let verified = a.output.bridges == sequential::bridges(&graph)
        && a.output.two_edge_components == sequential::two_edge_connected_components(&graph);
    Figure1Row {
        problem: "2-edge connectivity",
        ampc_bound: "O(log log_{m/n} n)",
        mpc_bound: "O(log D · log log_{m/n} n)",
        n: graph.num_vertices(),
        m: graph.num_edges(),
        ampc_rounds: a.rounds(),
        mpc_rounds: 2 * m_stats.num_rounds(),
        ampc_communication: a.stats.total_communication(),
        mpc_messages: 2 * m_stats.total_writes(),
        verified,
    }
}

/// Row "Forest connectivity": AMPC Euler tour + cycle connectivity vs MPC
/// pointer doubling on the forest.
pub fn row_forest_connectivity(n: usize, seed: u64) -> Figure1Row {
    let graph = generators::random_forest(n, 16, seed);
    let reference = sequential::connected_components(&graph);
    let a = ampc::forest_connectivity(&graph, EPSILON, seed);
    let (labels, m_stats) = mpc::pointer_doubling_connectivity(&graph, 128);
    let verified = a.output == reference && labels == reference;
    Figure1Row {
        problem: "Forest connectivity",
        ampc_bound: "O(1)",
        mpc_bound: "O(log D · log log_{m/n} n)",
        n: graph.num_vertices(),
        m: graph.num_edges(),
        ampc_rounds: a.rounds(),
        mpc_rounds: m_stats.num_rounds(),
        ampc_communication: a.stats.total_communication(),
        mpc_messages: m_stats.total_writes(),
        verified,
    }
}

/// All six rows of Figure 1 at instance size `n`.
pub fn figure1_table(n: usize, seed: u64) -> Vec<Figure1Row> {
    vec![
        row_connectivity(n, seed),
        row_msf(n, seed),
        row_two_edge(n, seed),
        row_mis(n, seed),
        row_two_cycle(n, seed),
        row_forest_connectivity(n, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_verifies_and_shows_the_expected_direction() {
        for row in figure1_table(2_000, 3) {
            assert!(row.verified, "{} failed verification", row.problem);
            assert!(row.ampc_rounds > 0);
            assert!(row.mpc_rounds > 0);
        }
    }

    #[test]
    fn two_cycle_gap_grows_with_n() {
        let small = row_two_cycle(1_024, 2);
        let large = row_two_cycle(16_384, 2);
        assert!(small.verified && large.verified);
        // The MPC round count grows with log n; the AMPC one stays ~flat.
        assert!(large.mpc_rounds > small.mpc_rounds);
        assert!(large.ampc_rounds <= small.ampc_rounds + 4);
    }
}
