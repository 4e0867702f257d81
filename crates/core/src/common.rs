//! Shared plumbing for the AMPC algorithms.
//!
//! Every algorithm in this crate follows the same pattern the paper uses:
//! the parts that *need* adaptivity (pointer chasing, truncated query
//! processes, bounded BFS) run inside AMPC rounds through
//! [`ampc_runtime::AmpcRuntime`], while the glue the paper describes as
//! "implementable with standard MPC primitives, such as sorting, duplicate
//! removal, etc." (Section 3) runs on the driver between rounds.  This
//! module holds the result wrapper and the small helpers every algorithm
//! shares: work assignment of items to machines and DDS key construction
//! for adjacency lists.

use ampc_dds::{Key, KeyTag, Value};
use ampc_graph::Graph;
use ampc_runtime::RunStats;

/// An algorithm's answer together with the execution statistics the paper's
/// theorems bound (rounds, queries, writes).
#[derive(Clone, Debug)]
pub struct AlgorithmResult<T> {
    /// The algorithm's output.
    pub output: T,
    /// Round-by-round execution statistics.
    pub stats: RunStats,
}

impl<T> AlgorithmResult<T> {
    /// Bundle an output with its statistics.
    pub fn new(output: T, stats: RunStats) -> Self {
        AlgorithmResult { output, stats }
    }

    /// Number of AMPC rounds the algorithm used.
    pub fn rounds(&self) -> usize {
        self.stats.num_rounds()
    }
}

/// Assign `items` to `machines` in round-robin order.
///
/// Matches the model's "vertices are randomly assigned to machines": the
/// items handed in are already in randomised order (vertex ids are shuffled
/// by the generators, samples are random subsets), so round-robin gives the
/// same balanced, input-independent distribution while staying reproducible.
pub fn round_robin_assign<T: Clone>(items: &[T], machines: usize) -> Vec<Vec<T>> {
    let machines = machines.max(1);
    // Not `vec![Vec::with_capacity(k); machines]`: cloning an empty vector
    // drops its capacity, so all buckets but the last would start at zero.
    let per_machine = items.len().div_ceil(machines);
    let mut buckets: Vec<Vec<T>> = (0..machines)
        .map(|_| Vec::with_capacity(per_machine))
        .collect();
    for (i, item) in items.iter().enumerate() {
        buckets[i % machines].push(item.clone());
    }
    buckets
}

/// DDS key for the degree of vertex `v` in a full-list publication.
///
/// Only full-list publications write it — [`adjacency_pairs`], for the
/// benchmark's `D₀` and the commit bench, and the benchmark's weighted
/// `D₀` — and no search reads it: every search reads a list key and ends
/// the list at its first absent slot.
pub fn degree_key(v: u32) -> Key {
    Key::of(KeyTag::Degree, v as u64)
}

/// DDS key for the `i`-th adjacency entry of vertex `v`, one key per slot.
/// Only [`adjacency_pairs`] writes it; no search reads it.
fn adjacency_key(v: u32, i: usize) -> Key {
    Key::with_index(KeyTag::Adjacency, v as u64, i as u64)
}

/// DDS key for the `i`-th *weighted* adjacency entry of vertex `v`, one key
/// per slot.  Nothing in this crate writes or reads it: the benchmark's
/// weighted `D₀` does.
pub fn weighted_adjacency_key(v: u32, i: usize) -> Key {
    Key::with_index(KeyTag::WeightedAdjacency, v as u64, i as u64)
}

/// DDS key of vertex `v`'s adjacency list: a connectivity phase (or an MIS
/// iteration) publishes slot `j` of `v`'s list as value `j` of this one key
/// (the model's `(x, j)` addressing), so a search reads a run of slots with
/// one lookup.
pub fn adjacency_list_key(v: u32) -> Key {
    Key::of(KeyTag::Adjacency, v as u64)
}

/// DDS key of vertex `v`'s *weighted* adjacency list, as an MSF phase
/// publishes it: slot `j` is value `j`.
pub fn weighted_adjacency_list_key(v: u32) -> Key {
    Key::of(KeyTag::WeightedAdjacency, v as u64)
}

/// Encode a weighted adjacency entry: neighbour + originating edge id in
/// `x`, weight in `y`.
pub fn encode_weighted_neighbor(neighbor: u32, edge_id: u32, weight: u64) -> Value {
    Value::pair(((edge_id as u64) << 32) | neighbor as u64, weight)
}

/// Decode a weighted adjacency entry into `(neighbor, edge_id, weight)`.
pub fn decode_weighted_neighbor(value: Value) -> (u32, u32, u64) {
    let neighbor = (value.x & 0xFFFF_FFFF) as u32;
    let edge_id = (value.x >> 32) as u32;
    (neighbor, edge_id, value.y)
}

/// Key-value pairs publishing the adjacency structure of `graph` (degrees
/// plus per-slot neighbours): every full list, with its count.  The
/// benchmarks load it as a `D₀` of realistic shape; no algorithm reads it.
pub fn adjacency_pairs(graph: &Graph) -> Vec<(Key, Value)> {
    let n = graph.num_vertices();
    let mut pairs = Vec::with_capacity(n + 2 * graph.num_edges());
    for v in 0..n as u32 {
        pairs.push((degree_key(v), Value::scalar(graph.degree(v) as u64)));
        for (i, &u) in graph.neighbors(v).iter().enumerate() {
            pairs.push((adjacency_key(v, i), Value::scalar(u as u64)));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators;

    #[test]
    fn round_robin_balances_within_one() {
        let items: Vec<u32> = (0..103).collect();
        let buckets = round_robin_assign(&items, 10);
        assert_eq!(buckets.len(), 10);
        let sizes: Vec<usize> = buckets.iter().map(|b| b.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Every bucket was sized up front: one that regrew from empty would
        // hold a doubled capacity (16), not the requested ⌈103 / 10⌉.
        let sized = Vec::<u32>::with_capacity(11).capacity();
        assert!(buckets.iter().all(|b| b.capacity() == sized));
        // Every item appears exactly once.
        let mut all: Vec<u32> = buckets.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn round_robin_with_zero_machines_clamps() {
        let buckets = round_robin_assign(&[1, 2, 3], 0);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0], vec![1, 2, 3]);
    }

    #[test]
    fn weighted_neighbor_encoding_round_trips() {
        let value = encode_weighted_neighbor(123_456, 789, 42_000_000_000);
        assert_eq!(
            decode_weighted_neighbor(value),
            (123_456, 789, 42_000_000_000)
        );
        let value = encode_weighted_neighbor(u32::MAX, u32::MAX, u64::MAX);
        assert_eq!(
            decode_weighted_neighbor(value),
            (u32::MAX, u32::MAX, u64::MAX)
        );
    }

    #[test]
    fn adjacency_pairs_cover_every_slot() {
        let g = generators::cycle(10);
        let pairs = adjacency_pairs(&g);
        // 10 degrees + 20 adjacency slots.
        assert_eq!(pairs.len(), 30);
        assert!(pairs
            .iter()
            .any(|(k, v)| k.tag == KeyTag::Degree && k.a == 3 && v.x == 2));
    }

    #[test]
    fn algorithm_result_reports_rounds() {
        let result = AlgorithmResult::new(42, RunStats::default());
        assert_eq!(result.output, 42);
        assert_eq!(result.rounds(), 0);
    }
}
