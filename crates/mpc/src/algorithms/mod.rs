//! Baseline MPC graph algorithms — the right-hand column of Figure 1.
//!
//! Each baseline is the textbook MPC/PRAM-style algorithm the paper compares
//! against, written as a plain loop over supersteps.  Every superstep is
//! recorded as one AMPC [`RoundStats`] — the messages it sends are the
//! round's writes, and it issues no queries — so the benchmark harness reads
//! "AMPC rounds vs MPC rounds" for every problem from one stats type:
//!
//! | Problem           | Baseline here                         | Rounds      |
//! |-------------------|---------------------------------------|-------------|
//! | Connectivity      | [`label_propagation_connectivity`]    | `O(D)`      |
//! | Connectivity      | [`pointer_doubling_connectivity`]     | `O(log n)`  |
//! | 2-Cycle           | [`two_cycle_mpc`]                     | `O(log n)`  |
//! | MIS               | [`luby_mis()`]                        | `O(log n)`  |
//! | MSF               | [`boruvka_msf`]                       | `O(log n)`  |
//! | List ranking      | [`wyllie_list_ranking`]               | `O(log n)`  |

pub mod boruvka;
pub mod label_propagation;
pub mod luby_mis;
pub mod pointer_doubling;
pub mod two_cycle;

pub use boruvka::boruvka_msf;
pub use label_propagation::label_propagation_connectivity;
pub use luby_mis::luby_mis;
pub use pointer_doubling::{pointer_doubling_connectivity, wyllie_list_ranking};
pub use two_cycle::two_cycle_mpc;

use ampc_runtime::{RoundStats, RunStats};

/// Record one superstep of `machines` machines that sends `messages`
/// messages, at most `max_per_machine` of them to any one machine.
///
/// An MPC machine receives its inbox as input rather than through queries,
/// and the baselines are counted, not timed: queries, budget violations,
/// restarts and wall time stay zero.
pub(crate) fn record_superstep(
    stats: &mut RunStats,
    machines: usize,
    messages: u64,
    max_per_machine: u64,
) {
    stats.push(RoundStats {
        round: stats.num_rounds(),
        machines,
        total_writes: messages,
        max_writes_per_machine: max_per_machine,
        ..RoundStats::default()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators;

    /// `(rounds, messages, largest per-machine load)` of a baseline's stats.
    macro_rules! cost {
        ($stats:expr) => {{
            let stats = &$stats;
            (
                stats.num_rounds(),
                stats.total_writes(),
                stats.max_machine_communication(),
            )
        }};
    }

    /// A list threaded through `0..n` in a seeded order, its last element
    /// pointing at itself.
    fn shuffled_list(n: usize, seed: u64) -> Vec<u32> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut successor = vec![0u32; n];
        for pair in order.windows(2) {
            successor[pair[0] as usize] = pair[1];
        }
        successor[order[n - 1] as usize] = order[n - 1];
        successor
    }

    /// The Figure 1 MPC column is these counts: a change of executor or
    /// stats type must leave every one of them exactly where it is.
    #[test]
    fn model_cost_of_every_baseline_is_pinned() {
        let planted = generators::planted_components(300, 4, 3, 7);
        let grid = generators::grid(12, 20);
        assert_eq!(
            cost!(label_propagation_connectivity(&planted, 0.5).1),
            (14, 2752, 25)
        );
        assert_eq!(
            cost!(label_propagation_connectivity(&grid, 0.25).1),
            (32, 14336, 8)
        );

        let one = generators::two_cycle_instance(512, false, 3);
        let two = generators::two_cycle_instance(512, true, 3);
        assert_eq!(
            cost!(pointer_doubling_connectivity(&planted, 8).1),
            (10, 4580, 77)
        );
        assert_eq!(
            cost!(pointer_doubling_connectivity(&one, 64).1),
            (14, 10752, 16)
        );
        assert_eq!(cost!(two_cycle_mpc(&one, 8).1), (14, 10752, 128));
        assert_eq!(cost!(two_cycle_mpc(&two, 64).1), (12, 9216, 16));

        let sparse = generators::erdos_renyi_gnm(400, 1200, 5);
        assert_eq!(cost!(luby_mis(&sparse, 8, 11).1), (4, 2568, 300));
        assert_eq!(cost!(luby_mis(&grid, 64, 2019).1), (4, 970, 14));

        let weighted = generators::with_random_weights(&generators::connected_gnm(300, 900, 4), 9);
        let forest = generators::with_random_weights(&generators::random_forest(200, 5, 6), 10);
        assert_eq!(cost!(boruvka_msf(&weighted, 8).2), (5, 7090, 300));
        assert_eq!(cost!(boruvka_msf(&forest, 64).2), (4, 488, 7));

        let straight: Vec<u32> = (0..300u32).map(|v| (v + 1).min(299)).collect();
        assert_eq!(cost!(wyllie_list_ranking(&straight, 8).1), (9, 4360, 76));
        assert_eq!(
            cost!(wyllie_list_ranking(&shuffled_list(500, 12), 64).1),
            (9, 7960, 16)
        );
    }
}
