//! Section 8.1, Algorithm 11: list ranking in `O(1/ε)` AMPC rounds.
//!
//! Given successor pointers forming one or more linked lists (each list's
//! terminal element points at itself), compute for every element its
//! weighted distance to the terminal of its list.  The algorithm repeatedly
//! contracts the lists onto a random sample of elements — every sample walks
//! forward by adaptive reads, accumulating the weights of the elements it
//! skips, until the next sample — then solves the `O(N^ε)`-sized remainder
//! on one machine and finally *expands*: level by level, the skipped
//! elements recover their ranks from the sample that covered them, again by
//! a single adaptive walk per sample.
//!
//! Generalisations over the paper's presentation (both used by the Euler
//! tour machinery of Section 8): multiple lists are ranked simultaneously,
//! and every element may carry an arbitrary non-negative weight, which is
//! what turns list ranking into the prefix-sum engine behind preorder
//! numbering and subtree sizes.
//!
//! Each alive element of a level is one record under `successor_key(v)`:
//! `x` holds the successor in its low 32 bits and the sample mark in bit 32,
//! `y` holds the weight of the link leaving `v`.  A contraction level
//! therefore writes one pair per alive element, and an expansion level one
//! per alive element plus one rank per sample.  A walk reads its sample's
//! own record and then one record per hop, so a sample that covers `k`
//! elements costs `k + 2` queries (the last one reads the next sample), plus
//! one rank read when expanding.
//!
//! The driver keeps a level's state in arrays indexed by element id (the
//! current links, the sample marks, the ranks) and every finished level as
//! its alive elements with their `(successor, weight)` links beside them.

use crate::common::{round_robin_assign, AlgorithmResult};
use ampc_dds::{Key, KeyTag, Value};
use ampc_runtime::{
    with_dds_backend, AmpcConfig, AmpcRuntime, DdsBackend, MachineContext, SnapshotView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn successor_key(v: u32) -> Key {
    Key::of(KeyTag::Successor, v as u64)
}

fn rank_key(v: u32) -> Key {
    Key::of(KeyTag::Scalar, v as u64)
}

/// The bit of a record's `x` that marks a sampled element; the successor
/// fills the 32 bits below it.
const SAMPLED_BIT: u64 = 1 << 32;

/// An element's record: successor and sample mark in `x`, weight in `y`.
fn record(successor: u32, weight: u64, sampled: bool) -> Value {
    let mark = if sampled { SAMPLED_BIT } else { 0 };
    Value::pair(u64::from(successor) | mark, weight)
}

/// The `(successor, weight, sampled)` that [`record`] packed.
fn unpack(record: Value) -> (u32, u64, bool) {
    (record.x as u32, record.y, record.x & SAMPLED_BIT != 0)
}

/// One contraction level retained by the driver for the expansion phase.
/// Its samples are the next level's `alive` (the base's, for the last one).
struct Level {
    /// Elements alive at this level, in the order samples were drawn.
    alive: Vec<u32>,
    /// `(successor, weight)` of each element of `alive`, aligned with it.
    links: Vec<(u32, u64)>,
}

impl Level {
    /// The level's scatter: one record per alive element, marked if it is
    /// one of `samples`.  `sampled` is all-false scratch and is left so.
    fn records(&self, samples: &[u32], sampled: &mut [bool]) -> Vec<(Key, Value)> {
        let mark = |sampled: &mut [bool], on: bool| {
            for &v in samples {
                sampled[v as usize] = on;
            }
        };
        mark(sampled, true);
        let pairs = self
            .alive
            .iter()
            .zip(&self.links)
            .map(|(&v, &(succ, weight))| {
                (successor_key(v), record(succ, weight, sampled[v as usize]))
            })
            .collect();
        mark(sampled, false);
        pairs
    }
}

/// Walks from sample `v` to the next sample, one record per hop, calling
/// `skip(u, weight)` for every element it passes.  Returns `v`'s own weight
/// and the element the walk stopped at — the next sample, or an unsampled
/// terminal (passed, too) — or `None` if `v` is a terminal.
///
/// # Panics
/// If the walk takes more than `limit` hops, which only a successor cycle
/// can cause; the driver rejects those before the first round.
fn walk<V: SnapshotView>(
    ctx: &mut MachineContext<V>,
    v: u32,
    limit: usize,
    mut skip: impl FnMut(u32, u64),
) -> Option<(u64, u32)> {
    let read = |ctx: &mut MachineContext<V>, u: u32| {
        unpack(ctx.read(successor_key(u)).expect("record missing"))
    };
    let (mut cur, own_weight, _) = read(ctx, v);
    if cur == v {
        return None;
    }
    for _ in 0..limit {
        let (next, weight, sampled) = read(ctx, cur);
        if sampled {
            return Some((own_weight, cur));
        }
        skip(cur, weight);
        if next == cur {
            return Some((own_weight, cur)); // safety: an unsampled terminal
        }
        cur = next;
    }
    panic!("list-ranking walk from {v} passed {limit} elements: the successor array has a cycle");
}

/// Panics unless every element reaches a terminal, i.e. the successor array
/// has no cycle besides the terminals' self-loops.  One pass, `O(n)`: each
/// walk stops at the first element an earlier walk (or itself) reached.
fn assert_acyclic(successor: &[u32]) {
    // `walk_of[v]` is one more than the start of the walk that reached `v`.
    let mut walk_of = vec![0usize; successor.len()];
    for start in 0..successor.len() {
        let mut v = start;
        while walk_of[v] == 0 {
            walk_of[v] = start + 1;
            v = successor[v] as usize;
        }
        assert!(
            walk_of[v] != start + 1 || successor[v] as usize == v,
            "successor array has a cycle through {v}"
        );
    }
}

/// Rank a collection of linked lists: `successor[v]` is the next element
/// (terminals point at themselves) and `weights[v]` is the weight of the
/// link leaving `v`.  Returns `ranks[v]` = sum of weights on the path from
/// `v` (inclusive) to its terminal (exclusive).
///
/// # Panics
/// If a successor is out of range or the successors form a cycle.
pub fn list_ranking_weighted(
    successor: &[u32],
    weights: &[u64],
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<Vec<u64>> {
    let n = successor.len();
    list_ranking_weighted_with(
        successor,
        weights,
        &AmpcConfig::for_graph(n.max(1), n, epsilon).with_seed(seed),
    )
}

/// [`list_ranking_weighted`] with an explicit [`AmpcConfig`]: ε and seed are
/// taken from the config, which also selects the DDS backend.
pub fn list_ranking_weighted_with(
    successor: &[u32],
    weights: &[u64],
    config: &AmpcConfig,
) -> AlgorithmResult<Vec<u64>> {
    let n = successor.len();
    assert_eq!(weights.len(), n, "one weight per element required");
    for (v, &s) in successor.iter().enumerate() {
        assert!((s as usize) < n, "successor of {v} out of range");
    }
    assert_acyclic(successor);
    let config = config.derive(n.max(1), n.max(1) + n);
    with_dds_backend!(config, |runtime| list_ranking_impl(
        successor, weights, runtime
    ))
}

fn list_ranking_impl<B: DdsBackend>(
    successor: &[u32],
    weights: &[u64],
    mut runtime: AmpcRuntime<B>,
) -> AlgorithmResult<Vec<u64>> {
    let n = successor.len();
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;
    if n == 0 {
        return AlgorithmResult::new(Vec::new(), runtime.into_stats());
    }

    // Heads (no predecessor) and terminals (self successor) are always kept
    // alive so that every skipped element is covered by some sample's walk.
    let mut indegree = vec![0u32; n];
    for (v, &s) in successor.iter().enumerate() {
        if s as usize != v {
            indegree[s as usize] += 1;
        }
    }
    let forced: Vec<bool> = (0..n)
        .map(|v| indegree[v] == 0 || successor[v] as usize == v)
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x11_57);
    let sample_probability = (n.max(2) as f64).powf(-epsilon / 2.0);
    let target = ((n.max(2) as f64).powf(epsilon).ceil() as usize).max(4);
    let max_levels = (4.0 / epsilon).ceil() as usize + 4;

    // The current level: its alive elements, and the links of every element
    // by id (entries of elements no longer alive are stale).
    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut succ: Vec<u32> = successor.to_vec();
    let mut weight: Vec<u64> = weights.to_vec();
    let mut sampled = vec![false; n];
    let mut levels: Vec<Level> = Vec::new();

    // ---- Contraction phase -------------------------------------------------
    while alive.len() > target && levels.len() < max_levels {
        let samples: Vec<u32> = alive
            .iter()
            .copied()
            .filter(|&v| forced[v as usize] || rng.gen_bool(sample_probability))
            .collect();
        if samples.len() == alive.len() {
            break; // contraction would be a no-op
        }

        // Publish the current level (scatter) and run the sampling walks.
        let links = alive
            .iter()
            .map(|&v| (succ[v as usize], weight[v as usize]))
            .collect();
        let level = Level { alive, links };
        runtime.scatter(level.records(&samples, &mut sampled));

        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&samples, machines);
        let limit = level.alive.len() + 2;
        let walks: Vec<Vec<(u32, u32, u64)>> = runtime
            .run_round(machines, |ctx| {
                let mut out = Vec::new();
                for &v in &assignments[ctx.machine_id()] {
                    let mut skipped = 0;
                    match walk(ctx, v, limit, |_, w| skipped += w) {
                        Some((own, end)) => out.push((v, end, own + skipped)),
                        None => out.push((v, v, 0)), // terminal
                    }
                }
                out
            })
            .expect("list-ranking contraction round failed");

        // Driver: the walks are the next level's links.
        for (v, end, acc) in walks.into_iter().flatten() {
            succ[v as usize] = end;
            weight[v as usize] = acc;
        }
        levels.push(level);
        alive = samples;
    }

    // ---- Base solve on a single machine ------------------------------------
    // Each element walks to the first ranked one (or its terminal) and the
    // path is ranked on the way back.
    let mut rank = vec![0u64; n];
    let mut ranked = vec![false; n];
    let mut path: Vec<u32> = Vec::new();
    for &v in &alive {
        let mut cur = v;
        while !ranked[cur as usize] && succ[cur as usize] != cur {
            path.push(cur);
            cur = succ[cur as usize];
        }
        ranked[cur as usize] = true;
        let mut r = rank[cur as usize];
        while let Some(u) = path.pop() {
            r += weight[u as usize];
            rank[u as usize] = r;
            ranked[u as usize] = true;
        }
    }

    // ---- Expansion phase ----------------------------------------------------
    for (depth, level) in levels.iter().enumerate().rev() {
        // Publish the level's records plus the ranks known so far (the ranks
        // of this level's samples), then each sample walks its segment once
        // more, assigning ranks to the elements it covered.
        let samples = levels.get(depth + 1).map_or(&alive, |next| &next.alive);
        let mut pairs = level.records(samples, &mut sampled);
        pairs.extend(
            samples
                .iter()
                .map(|&v| (rank_key(v), Value::scalar(rank[v as usize]))),
        );
        runtime.scatter(pairs);

        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(samples, machines);
        let limit = level.alive.len() + 2;
        let recovered: Vec<Vec<(u32, u64)>> = runtime
            .run_round(machines, |ctx| {
                let mut out = Vec::new();
                let mut segment: Vec<(u32, u64)> = Vec::new();
                for &v in &assignments[ctx.machine_id()] {
                    segment.clear();
                    let Some((_, end)) = walk(ctx, v, limit, |u, w| segment.push((u, w))) else {
                        continue; // terminal covers nobody
                    };
                    let mut acc = ctx.read(rank_key(end)).map_or(0, |r| r.x);
                    for &(u, w) in segment.iter().rev() {
                        acc += w;
                        out.push((u, acc));
                    }
                }
                out
            })
            .expect("list-ranking expansion round failed");
        for (v, r) in recovered.into_iter().flatten() {
            rank[v as usize] = r;
        }
    }

    AlgorithmResult::new(rank, runtime.into_stats())
}

/// Unweighted list ranking (Theorem 6): every link has weight 1, so the rank
/// of an element is its distance to the terminal of its list.
pub fn list_ranking(successor: &[u32], epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u64>> {
    let weights = unit_weights(successor);
    list_ranking_weighted(successor, &weights, epsilon, seed)
}

/// [`list_ranking`] with an explicit [`AmpcConfig`].
pub fn list_ranking_with(successor: &[u32], config: &AmpcConfig) -> AlgorithmResult<Vec<u64>> {
    let weights = unit_weights(successor);
    list_ranking_weighted_with(successor, &weights, config)
}

fn unit_weights(successor: &[u32]) -> Vec<u64> {
    successor
        .iter()
        .enumerate()
        .map(|(v, &s)| u64::from(s as usize != v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;

    fn shuffled_list(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut successor = vec![0u32; n];
        for i in 0..n - 1 {
            successor[order[i] as usize] = order[i + 1];
        }
        successor[order[n - 1] as usize] = order[n - 1];
        successor
    }

    /// Lists of the given lengths over shuffled ids, with weights below
    /// `max_weight` on every element, terminals included: a rank sums the
    /// weights from its element up to, not including, the terminal.
    /// Returns `(successor, weights, ranks)`, the ranks computed along each
    /// list from its tail.
    fn weighted_lists(
        lengths: &[usize],
        max_weight: u64,
        seed: u64,
    ) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = lengths.iter().sum();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max_weight)).collect();
        let mut successor = vec![0u32; n];
        let mut ranks = vec![0u64; n];
        let mut start = 0;
        for &len in lengths {
            let list = &order[start..start + len];
            start += len;
            let terminal = list[len - 1];
            successor[terminal as usize] = terminal;
            for pair in list.windows(2).rev() {
                let (v, next) = (pair[0] as usize, pair[1] as usize);
                successor[v] = pair[1];
                ranks[v] = weights[v] + ranks[next];
            }
        }
        (successor, weights, ranks)
    }

    #[test]
    fn matches_sequential_ranks_on_identity_list() {
        let n = 500;
        let successor: Vec<u32> = (0..n as u32)
            .map(|v| if (v as usize) + 1 < n { v + 1 } else { v })
            .collect();
        let result = list_ranking(&successor, 0.5, 1);
        assert_eq!(result.output, sequential::sequential_list_ranks(&successor));
    }

    #[test]
    fn matches_sequential_ranks_on_shuffled_lists() {
        for seed in 0..3 {
            let successor = shuffled_list(800, seed);
            let result = list_ranking(&successor, 0.5, seed);
            assert_eq!(
                result.output,
                sequential::sequential_list_ranks(&successor),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn handles_multiple_lists_at_once() {
        // Two independent lists: 0→1→2→2 and 3→4→4, plus a singleton 5.
        let successor = vec![1, 2, 2, 4, 4, 5];
        let result = list_ranking(&successor, 0.5, 3);
        assert_eq!(result.output, vec![2, 1, 0, 1, 0, 0]);
    }

    #[test]
    fn weighted_ranking_computes_weighted_suffix_sums() {
        // 0 →(5) 1 →(3) 2 →(7) 3, terminal 3.
        let successor = vec![1, 2, 3, 3];
        let weights = vec![5, 3, 7, 0];
        let result = list_ranking_weighted(&successor, &weights, 0.5, 4);
        assert_eq!(result.output, vec![15, 10, 7, 0]);
    }

    #[test]
    fn zero_weights_are_allowed() {
        let successor = vec![1, 2, 3, 3];
        let weights = vec![0, 1, 0, 0];
        let result = list_ranking_weighted(&successor, &weights, 0.5, 4);
        assert_eq!(result.output, vec![1, 1, 0, 0]);
    }

    #[test]
    fn round_count_is_constant_in_list_length() {
        let small = shuffled_list(200, 1);
        let large = shuffled_list(5000, 1);
        let small_rounds = list_ranking(&small, 0.5, 1).rounds();
        let large_rounds = list_ranking(&large, 0.5, 1).rounds();
        let cap = 4 * ((4.0 / 0.5) as usize + 5);
        assert!(small_rounds <= cap, "small rounds {small_rounds}");
        assert!(large_rounds <= cap, "large rounds {large_rounds}");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(list_ranking(&[], 0.5, 0).output.is_empty());
        assert_eq!(list_ranking(&[0], 0.5, 0).output, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_successor_rejected() {
        let _ = list_ranking(&[5], 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_successors_rejected() {
        let n = 1000u32;
        let successor: Vec<u32> = (0..n).map(|v| (v + 1) % n).collect();
        let _ = list_ranking(&successor, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn list_whose_tail_loops_rejected() {
        // 0 → 1 → … → 499 → 250: a rho, its tail a cycle of 250 elements.
        let n = 500u32;
        let successor: Vec<u32> = (0..n)
            .map(|v| if v + 1 < n { v + 1 } else { 250 })
            .collect();
        let _ = list_ranking(&successor, 0.5, 0);
    }

    #[test]
    fn record_round_trips_at_its_edges() {
        for successor in [0, 1, u32::MAX - 1, u32::MAX] {
            for weight in [0, 1, u64::MAX - 1, u64::MAX] {
                for sampled in [false, true] {
                    let packed = record(successor, weight, sampled);
                    assert_eq!(unpack(packed), (successor, weight, sampled));
                }
            }
        }
        // The mark sits above the successor and changes no other bit.
        assert_eq!(record(u32::MAX, 0, false).x, u64::from(u32::MAX));
        assert_eq!(record(0, 0, true).x, SAMPLED_BIT);
    }

    #[test]
    fn model_cost_of_list_ranking_and_rooting_is_pinned() {
        // `(rounds, queries, writes, busiest machine)` on fixed instances:
        // one record per element per level, one read per hop.
        let cost = |stats: &ampc_runtime::RunStats| {
            (
                stats.num_rounds(),
                stats.total_queries(),
                stats.total_writes(),
                stats.max_machine_communication(),
            )
        };
        let list = shuffled_list(4096, 11);
        assert_eq!(
            cost(&list_ranking(&list, 0.5, 11).stats),
            (8, 10839, 9735, 141)
        );
        let lengths = [1, 1, 2, 7, 60, 500, 1200, 2325];
        let (successor, weights, _) = weighted_lists(&lengths, 1 << 20, 12);
        let weighted = list_ranking_weighted(&successor, &weights, 0.5, 12);
        assert_eq!(cost(&weighted.stats), (12, 11271, 10065, 78));
        let forest = generators::random_forest(4096, 8, 7);
        let rooted = crate::root_forest(&forest, None, 0.5, 7);
        assert_eq!(cost(&rooted.stats), (24, 42582, 38674, 138));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

        /// Several lists ranked at once — singletons among them, weights up
        /// to 2^40 on every element, terminals included — match the ranks
        /// summed along each list.  A walk that ran past an unsampled
        /// terminal would add that terminal's weight.
        #[test]
        fn weighted_multi_list_ranking_matches_sequential(
            mut lengths in proptest::collection::vec(1usize..160, 1..9),
            singletons in 0usize..4,
            seed in any::<u64>(),
        ) {
            lengths.resize(lengths.len() + singletons, 1);
            let (successor, weights, ranks) = weighted_lists(&lengths, (1 << 40) + 1, seed);
            let result = list_ranking_weighted(&successor, &weights, 0.5, seed);
            prop_assert_eq!(result.output, ranks);
        }
    }
}
