//! Execution statistics: the quantities the paper's theorems bound.
//!
//! Every theorem in the paper is a statement about (a) the number of rounds
//! and (b) the per-machine / total communication, where communication is the
//! number of DDS queries plus writes.  [`RoundStats`] captures those numbers
//! for one round and [`RunStats`] aggregates them over a run, so tests can
//! assert e.g. "the 2-Cycle algorithm used O(1/ε) rounds and O(n^ε) queries
//! per machine" and benches can print the same columns as Figure 1.

use std::time::Duration;

/// Statistics of a single AMPC round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Number of machines that executed in this round.
    pub machines: usize,
    /// Total DDS queries (reads) issued by all machines.
    pub total_queries: u64,
    /// Maximum queries issued by a single machine.
    pub max_queries_per_machine: u64,
    /// Total DDS writes issued by all machines.
    pub total_writes: u64,
    /// Maximum writes issued by a single machine.
    pub max_writes_per_machine: u64,
    /// Number of machines that exceeded their query/write budget.
    pub budget_violations: u64,
    /// Number of machine executions that were restarted by fault injection.
    pub restarts: u64,
    /// Wall-clock time of the round.
    pub wall_time: Duration,
}

impl RoundStats {
    /// Total communication of the round (queries + writes), the model's
    /// per-round cost measure.
    pub fn communication(&self) -> u64 {
        self.total_queries + self.total_writes
    }

    /// Maximum per-machine communication in this round.
    pub fn max_machine_communication(&self) -> u64 {
        self.max_queries_per_machine + self.max_writes_per_machine
    }
}

/// Statistics of a whole AMPC execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Per-round statistics, in execution order.
    pub rounds: Vec<RoundStats>,
}

impl RunStats {
    /// Record a completed round.
    pub fn push(&mut self, round: RoundStats) {
        self.rounds.push(round);
    }

    /// Number of rounds executed — the paper's primary complexity measure.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total communication (queries + writes) over the whole run.
    pub fn total_communication(&self) -> u64 {
        self.rounds.iter().map(|r| r.communication()).sum()
    }

    /// Total queries over the whole run.
    pub fn total_queries(&self) -> u64 {
        self.rounds.iter().map(|r| r.total_queries).sum()
    }

    /// Total writes over the whole run.
    pub fn total_writes(&self) -> u64 {
        self.rounds.iter().map(|r| r.total_writes).sum()
    }

    /// The largest per-machine communication seen in any round — the
    /// quantity the `O(S)`-per-round bounds are about.
    pub fn max_machine_communication(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.max_machine_communication())
            .max()
            .unwrap_or(0)
    }

    /// Total budget violations across all rounds.
    pub fn budget_violations(&self) -> u64 {
        self.rounds.iter().map(|r| r.budget_violations).sum()
    }

    /// Total fault-injection restarts across all rounds.
    pub fn restarts(&self) -> u64 {
        self.rounds.iter().map(|r| r.restarts).sum()
    }

    /// Total wall-clock time spent inside rounds.
    pub fn total_wall_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall_time).sum()
    }

    /// Merge another run's statistics after this one (used by algorithms
    /// that chain several phases, e.g. 2-edge connectivity calling spanning
    /// forest and then connectivity).
    pub fn absorb(&mut self, other: RunStats) {
        let offset = self.rounds.len();
        for (i, mut round) in other.rounds.into_iter().enumerate() {
            round.round = offset + i;
            self.rounds.push(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(queries: u64, writes: u64, max_q: u64, max_w: u64) -> RoundStats {
        RoundStats {
            round: 0,
            machines: 4,
            total_queries: queries,
            max_queries_per_machine: max_q,
            total_writes: writes,
            max_writes_per_machine: max_w,
            budget_violations: 0,
            restarts: 0,
            wall_time: Duration::from_millis(1),
        }
    }

    #[test]
    fn round_communication_sums_queries_and_writes() {
        let r = round(10, 5, 4, 2);
        assert_eq!(r.communication(), 15);
        assert_eq!(r.max_machine_communication(), 6);
    }

    #[test]
    fn run_aggregates_rounds() {
        let mut run = RunStats::default();
        run.push(round(10, 5, 4, 2));
        run.push(round(20, 10, 9, 3));
        assert_eq!(run.num_rounds(), 2);
        assert_eq!(run.total_queries(), 30);
        assert_eq!(run.total_writes(), 15);
        assert_eq!(run.total_communication(), 45);
        assert_eq!(run.max_machine_communication(), 12);
        assert_eq!(run.budget_violations(), 0);
        assert_eq!(run.total_wall_time(), Duration::from_millis(2));
    }

    #[test]
    fn absorb_renumbers_rounds() {
        let mut a = RunStats::default();
        a.push(round(1, 1, 1, 1));
        let mut b = RunStats::default();
        b.push(round(2, 2, 2, 2));
        b.push(round(3, 3, 3, 3));
        a.absorb(b);
        assert_eq!(a.num_rounds(), 3);
        assert_eq!(a.rounds[1].round, 1);
        assert_eq!(a.rounds[2].round, 2);
        assert_eq!(a.total_queries(), 6);
    }

    #[test]
    fn empty_run_is_neutral() {
        let run = RunStats::default();
        assert_eq!(run.num_rounds(), 0);
        assert_eq!(run.total_communication(), 0);
        assert_eq!(run.max_machine_communication(), 0);
    }
}
