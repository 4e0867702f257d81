//! Scaling series — the "figures" of the reproduction.
//!
//! The paper is theory-first, so beyond the Figure 1 table its claims are
//! asymptotic statements.  Each series here turns one such statement into a
//! measured curve:
//!
//! * [`scaling_series`] — rounds vs `n` for every problem (AMPC flat /
//!   doubly-logarithmic, MPC logarithmic);
//! * [`density_series`] — connectivity rounds vs `m/n` (the
//!   `log log_{m/n} n` dependence of Theorems 3–4);
//! * [`diameter_series`] — connectivity rounds vs diameter `D` (the `log D`
//!   factor the MPC baseline pays and AMPC does not);
//! * [`epsilon_series`] — rounds vs the space exponent ε (the `O(1/ε)`
//!   trade-off; the ablation: ε is the one knob every theorem's bound has).

use crate::figure1::EPSILON;
use ampc_algorithms as ampc;
use ampc_graph::{generators, sequential};
use ampc_mpc as mpc;

/// One measured point of a series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Value of the swept parameter (`n`, `m/n`, `D` or ε·100).
    pub x: f64,
    /// Measured AMPC rounds.
    pub ampc_rounds: usize,
    /// Measured MPC baseline rounds.
    pub mpc_rounds: usize,
    /// Maximum per-machine AMPC communication in any round.
    pub ampc_max_machine_communication: u64,
}

/// Rounds vs `n` for a given problem (`"two_cycle"`, `"connectivity"`,
/// `"mis"`, `"msf"`, `"forest"`, `"list_ranking"`).
pub fn scaling_series(problem: &str, sizes: &[usize], seed: u64) -> Vec<SeriesPoint> {
    sizes
        .iter()
        .map(|&n| {
            let (ampc_rounds, mpc_rounds, max_comm) = match problem {
                "two_cycle" => {
                    let g = generators::two_cycle_instance(n, false, seed);
                    let a = ampc::two_cycle(&g, EPSILON, seed);
                    let (_, m) = mpc::two_cycle_mpc(&g, 128);
                    (
                        a.rounds(),
                        m.num_rounds(),
                        a.stats.max_machine_communication(),
                    )
                }
                "connectivity" => {
                    let g = generators::planted_components(n, 8, (3 * n / 8).max(1), seed);
                    let a = ampc::connectivity(&g, EPSILON, seed);
                    let (_, m) = mpc::pointer_doubling_connectivity(&g, 128);
                    (
                        a.rounds(),
                        m.num_rounds(),
                        a.stats.max_machine_communication(),
                    )
                }
                "mis" => {
                    let g = generators::erdos_renyi_gnm(n, 4 * n, seed);
                    let a = ampc::maximal_independent_set(&g, EPSILON, seed);
                    let (_, m) = mpc::luby_mis(&g, 128, seed);
                    (
                        a.rounds(),
                        m.num_rounds(),
                        a.stats.max_machine_communication(),
                    )
                }
                "msf" => {
                    let base = generators::connected_gnm(n, 3 * n, seed);
                    let g = generators::with_random_weights(&base, seed + 1);
                    let a = ampc::minimum_spanning_forest(&g, EPSILON, seed);
                    let (_, _, m) = mpc::boruvka_msf(&g, 128);
                    (
                        a.rounds(),
                        m.num_rounds(),
                        a.stats.max_machine_communication(),
                    )
                }
                "forest" => {
                    let g = generators::random_forest(n, 16, seed);
                    let a = ampc::forest_connectivity(&g, EPSILON, seed);
                    let (_, m) = mpc::pointer_doubling_connectivity(&g, 128);
                    (
                        a.rounds(),
                        m.num_rounds(),
                        a.stats.max_machine_communication(),
                    )
                }
                "list_ranking" => {
                    let successor: Vec<u32> = (0..n as u32)
                        .map(|v| if (v as usize) + 1 < n { v + 1 } else { v })
                        .collect();
                    let a = ampc::list_ranking(&successor, EPSILON, seed);
                    let (_, m) = mpc::wyllie_list_ranking(&successor, 128);
                    (
                        a.rounds(),
                        m.num_rounds(),
                        a.stats.max_machine_communication(),
                    )
                }
                other => panic!("unknown problem {other}"),
            };
            SeriesPoint {
                x: n as f64,
                ampc_rounds,
                mpc_rounds,
                ampc_max_machine_communication: max_comm,
            }
        })
        .collect()
}

/// Connectivity rounds vs density `m/n` at fixed `n`.
pub fn density_series(n: usize, densities: &[usize], seed: u64) -> Vec<SeriesPoint> {
    densities
        .iter()
        .map(|&density| {
            let g = generators::connected_gnm(n, density * n, seed);
            let a = ampc::connectivity(&g, EPSILON, seed);
            let (labels, m) = mpc::pointer_doubling_connectivity(&g, 128);
            assert_eq!(labels, sequential::connected_components(&g));
            SeriesPoint {
                x: density as f64,
                ampc_rounds: a.rounds(),
                mpc_rounds: m.num_rounds(),
                ampc_max_machine_communication: a.stats.max_machine_communication(),
            }
        })
        .collect()
}

/// Connectivity rounds vs diameter (path-of-cliques with a growing number of
/// cliques); the MPC baseline here is label propagation, whose round count
/// is Θ(D).
pub fn diameter_series(clique_size: usize, clique_counts: &[usize], seed: u64) -> Vec<SeriesPoint> {
    clique_counts
        .iter()
        .map(|&count| {
            let g = generators::path_of_cliques(clique_size, count);
            let diameter = sequential::diameter_estimate(&g);
            let a = ampc::connectivity(&g, EPSILON, seed);
            let (labels, m) = mpc::label_propagation_connectivity(&g, EPSILON);
            assert_eq!(labels, sequential::connected_components(&g));
            SeriesPoint {
                x: diameter as f64,
                ampc_rounds: a.rounds(),
                mpc_rounds: m.num_rounds(),
                ampc_max_machine_communication: a.stats.max_machine_communication(),
            }
        })
        .collect()
}

/// 2-Cycle rounds vs the space exponent ε (the `O(1/ε)` ablation).
pub fn epsilon_series(n: usize, epsilons: &[f64], seed: u64) -> Vec<SeriesPoint> {
    epsilons
        .iter()
        .map(|&eps| {
            let g = generators::two_cycle_instance(n, false, seed);
            let a = ampc::two_cycle(&g, eps, seed);
            SeriesPoint {
                x: eps,
                ampc_rounds: a.rounds(),
                mpc_rounds: 0,
                ampc_max_machine_communication: a.stats.max_machine_communication(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cycle_scaling_shows_the_gap() {
        let series = scaling_series("two_cycle", &[512, 4_096, 16_384], 1);
        assert_eq!(series.len(), 3);
        // AMPC stays flat (within a couple of iterations) while MPC grows.
        assert!(series[2].ampc_rounds <= series[0].ampc_rounds + 6);
        assert!(series[2].mpc_rounds > series[0].mpc_rounds);
    }

    #[test]
    fn diameter_series_shows_mpc_paying_for_d() {
        let series = diameter_series(8, &[8, 64], 2);
        assert!(series[1].mpc_rounds > 4 * series[0].ampc_rounds);
        assert!(series[1].mpc_rounds > series[0].mpc_rounds);
        assert!(series[1].ampc_rounds <= series[0].ampc_rounds + 6);
    }

    #[test]
    fn epsilon_series_is_monotone_in_rounds() {
        let series = epsilon_series(4_096, &[0.25, 0.5, 0.75], 3);
        assert!(series[0].ampc_rounds >= series[2].ampc_rounds);
    }

    #[test]
    #[should_panic(expected = "unknown problem")]
    fn unknown_problem_is_rejected() {
        let _ = scaling_series("nope", &[100], 0);
    }
}
