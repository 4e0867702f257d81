//! Section 5: maximal independent set in `O(1/ε)` AMPC rounds.
//!
//! The algorithm computes the *lexicographically first* MIS with respect to
//! a uniformly random priority assignment ρ (Theorem 2).  Whether a vertex
//! belongs to LFMIS(G, ρ) is decided by the Yoshida–Nguyen–Onak query
//! process (Algorithm 3): recursively ask the lower-priority neighbours, in
//! priority order, whether *they* are in the MIS.  In AMPC a machine can run
//! that recursion inside one round because every probe is an adaptive DDS
//! read; the per-vertex recursion is truncated at `n^ε` queries
//! (Algorithm 5, `TruncatedQuery`) so no machine exceeds its space, and
//! vertices whose status could not be decided are retried in the next
//! iteration on the shrunken graph.  Lemma 5.2 bounds the number of
//! iterations by `O(1/ε)`.
//!
//! Because the output is exactly `LFMIS(G, ρ)` for the fixed priorities, the
//! tests compare against the *sequential* greedy MIS under the same
//! priorities — equality, not just "some valid MIS".

use crate::common::{adjacency_key, degree_key, round_robin_assign, AlgorithmResult};
use ampc_dds::{FxHashMap, Key, KeyTag, Value};
use ampc_graph::{permutation, Graph};
use ampc_runtime::{with_dds_backend, AmpcConfig, AmpcRuntime, DdsBackend, MachineContext};

fn priority_key(v: u32) -> Key {
    Key::of(KeyTag::Priority, v as u64)
}

/// Outcome of one truncated query for a vertex in the current iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Probe {
    InMis,
    NotInMis,
    Unknown,
}

/// Adjacency entries prefetched per batched adaptive read while polling a
/// vertex's neighbours.
///
/// The neighbour list is sorted by priority and the poll stops at the first
/// neighbour with a larger priority, so a large batch would mostly fetch
/// entries the probe never looks at.  A small batch keeps the expected waste
/// below a constant handful of queries per probe, preserving the
/// `O(m + n)` total-communication bound of Proposition 5.1.
const MIS_READ_BATCH: usize = 4;

/// Algorithm 5 (`TruncatedQuery`): decide membership of `v` in
/// LFMIS(remaining graph, ρ) using at most `budget` recursive probes.
///
/// `memo` caches per-machine results within the round (assumption 4 of
/// Section 2.1 — machines may cache what they already queried).  Neighbour
/// slots are polled in batches of [`MIS_READ_BATCH`] via
/// [`MachineContext::read_many_slice`]; the probe budget is debited only for
/// entries the probe actually examines, so the decision sequence (and the
/// truncation points) are identical to the slot-by-slot loop.  Prefetched
/// slots the probe never reaches still count in the *machine-level* query
/// statistics — that bounded over-read (< [`MIS_READ_BATCH`] per probe) is
/// the price of the batch and is why the batch is small.
fn truncated_query(
    ctx: &mut MachineContext,
    v: u32,
    budget: &mut i64,
    memo: &mut FxHashMap<u32, Probe>,
    depth: usize,
) -> Probe {
    if let Some(&cached) = memo.get(&v) {
        if cached != Probe::Unknown {
            return cached;
        }
    }
    if *budget <= 0 || depth > 10_000 {
        return Probe::Unknown;
    }
    *budget -= 1;

    let Some(priority_v) = ctx.read(priority_key(v)).map(|p| p.x) else {
        // Vertex no longer in the remaining graph: it was settled earlier.
        // (Settled vertices are removed before publishing, so this should
        // not be reachable, but be conservative.)
        return Probe::Unknown;
    };
    let degree = ctx.read(degree_key(v)).map(|d| d.x as usize).unwrap_or(0);

    // Neighbours were published sorted by increasing priority, so we can
    // stop as soon as we reach one with a larger priority than ours.
    // Fixed-size stack buffers keep the (deeply recursive) probe path free
    // of per-call heap allocations.
    let mut next_slot = 0usize;
    while next_slot < degree {
        if *budget <= 0 {
            return Probe::Unknown;
        }
        let batch_end = degree.min(next_slot + MIS_READ_BATCH.min(*budget as usize));
        let keys: [Key; MIS_READ_BATCH] = std::array::from_fn(|j| adjacency_key(v, next_slot + j));
        let mut entries: [Option<Value>; MIS_READ_BATCH] = [None; MIS_READ_BATCH];
        let batch = batch_end - next_slot;
        ctx.read_many_slice(&keys[..batch], &mut entries[..batch]);
        next_slot = batch_end;
        for entry in &entries[..batch] {
            // Debit per examined entry (not per fetched entry) so budget
            // exhaustion truncates the probe at exactly the same slot as
            // the unbatched loop did.
            if *budget <= 0 {
                return Probe::Unknown;
            }
            let Some(entry) = *entry else { continue };
            *budget -= 1;
            let u = entry.x as u32;
            let priority_u = entry.y;
            if priority_u > priority_v {
                memo.insert(v, Probe::InMis);
                return Probe::InMis;
            }
            match truncated_query(ctx, u, budget, memo, depth + 1) {
                Probe::InMis => {
                    memo.insert(v, Probe::NotInMis);
                    return Probe::NotInMis;
                }
                Probe::NotInMis => continue,
                Probe::Unknown => return Probe::Unknown,
            }
        }
    }
    memo.insert(v, Probe::InMis);
    Probe::InMis
}

/// Theorem 2: maximal independent set in `O(1/ε)` rounds.
///
/// Returns the membership bitmap of `LFMIS(G, ρ)` for the random priorities
/// derived from `seed`.
pub fn maximal_independent_set(
    graph: &Graph,
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<Vec<bool>> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    maximal_independent_set_with(
        graph,
        &AmpcConfig::for_graph(n.max(1), m, epsilon).with_seed(seed),
    )
}

/// [`maximal_independent_set`] with an explicit [`AmpcConfig`]: ε and seed
/// are taken from the config, which also selects the DDS backend.
pub fn maximal_independent_set_with(
    graph: &Graph,
    config: &AmpcConfig,
) -> AlgorithmResult<Vec<bool>> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let config = config.derive(n.max(1), n.max(1) + m);
    with_dds_backend!(config, |runtime| mis_impl(graph, runtime))
}

fn mis_impl<B: DdsBackend>(
    graph: &Graph,
    mut runtime: AmpcRuntime<B>,
) -> AlgorithmResult<Vec<bool>> {
    let n = graph.num_vertices();
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;

    if n == 0 {
        return AlgorithmResult::new(Vec::new(), runtime.into_stats());
    }

    let priorities = permutation::random_priorities(n, seed ^ 0x4d_49_53);
    let mut in_mis = vec![false; n];
    let mut settled = vec![false; n];
    let mut remaining: Vec<u32> = (0..n as u32).collect();

    // Per-vertex query cap: the machine's space, n^ε.
    let per_vertex_budget = runtime.config().space_per_machine() as i64;
    let max_iterations = (6.0 / epsilon).ceil() as usize + 4;

    for _iteration in 0..max_iterations {
        if remaining.is_empty() {
            break;
        }

        // Publish the remaining graph: per-vertex priority, degree, and the
        // remaining neighbours sorted by priority (Algorithm 3, step 1).
        // Settled vertices and their incident edges are removed, matching
        // "remove u from the graph" in Algorithm 4.
        let mut pairs: Vec<(Key, Value)> = Vec::new();
        for &v in &remaining {
            let mut nbrs: Vec<u32> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| !settled[u as usize])
                .collect();
            nbrs.sort_unstable_by_key(|&u| (priorities[u as usize], u));
            pairs.push((priority_key(v), Value::scalar(priorities[v as usize])));
            pairs.push((degree_key(v), Value::scalar(nbrs.len() as u64)));
            for (i, &u) in nbrs.iter().enumerate() {
                pairs.push((
                    adjacency_key(v, i),
                    Value::pair(u as u64, priorities[u as usize]),
                ));
            }
        }
        runtime.scatter(pairs);

        // Adaptive round: every machine runs the truncated query process for
        // its assigned unknown vertices.
        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&remaining, machines);
        let outcomes: Vec<Vec<(u32, Probe)>> = runtime
            .run_round(machines, |ctx| {
                let mut memo: FxHashMap<u32, Probe> = FxHashMap::default();
                let mut results = Vec::new();
                for &v in &assignments[ctx.machine_id()] {
                    let mut budget = per_vertex_budget;
                    let probe = truncated_query(ctx, v, &mut budget, &mut memo, 0);
                    results.push((v, probe));
                }
                results
            })
            .expect("MIS round failed");

        // Driver: apply the settled statuses (Algorithm 4, step 4a).
        let mut progressed = false;
        for (v, probe) in outcomes.into_iter().flatten() {
            match probe {
                Probe::InMis => {
                    if !settled[v as usize] {
                        in_mis[v as usize] = true;
                        settled[v as usize] = true;
                        progressed = true;
                    }
                    for &u in graph.neighbors(v) {
                        if !settled[u as usize] {
                            settled[u as usize] = true;
                            progressed = true;
                        }
                    }
                }
                Probe::NotInMis => {
                    // The probe proved some lower-priority neighbour is in the
                    // MIS; that neighbour's own probe (or a later iteration)
                    // will mark it.  Mark v as out now.
                    if !settled[v as usize] {
                        settled[v as usize] = true;
                        progressed = true;
                    }
                }
                Probe::Unknown => {}
            }
        }

        remaining.retain(|&v| !settled[v as usize]);

        if !progressed && !remaining.is_empty() {
            // Defensive fallback (never expected): finish the remainder with
            // the sequential greedy process on the driver so the result is
            // still exactly LFMIS(G, ρ).
            let mut order: Vec<u32> = remaining.clone();
            order.sort_unstable_by_key(|&v| (priorities[v as usize], v));
            for v in order {
                if settled[v as usize] {
                    continue;
                }
                in_mis[v as usize] = true;
                settled[v as usize] = true;
                for &u in graph.neighbors(v) {
                    settled[u as usize] = true;
                }
            }
            remaining.clear();
        }
    }

    AlgorithmResult::new(in_mis, runtime.into_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    fn check_equals_lfmis(graph: &Graph, epsilon: f64, seed: u64) {
        let result = maximal_independent_set(graph, epsilon, seed);
        let priorities = permutation::random_priorities(graph.num_vertices(), seed ^ 0x4d_49_53);
        let expected = sequential::lexicographically_first_mis(graph, &priorities);
        assert_eq!(result.output, expected);
        assert!(sequential::is_maximal_independent_set(
            graph,
            &result.output
        ));
    }

    #[test]
    fn equals_sequential_lfmis_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_gnm(300, 1200, seed);
            check_equals_lfmis(&g, 0.5, seed);
        }
    }

    #[test]
    fn equals_sequential_lfmis_on_sparse_graphs() {
        let g = generators::random_forest(400, 10, 5);
        check_equals_lfmis(&g, 0.5, 5);
        let p = generators::path(200);
        check_equals_lfmis(&p, 0.5, 7);
    }

    #[test]
    fn works_on_dense_and_star_graphs() {
        let star = generators::star(300);
        check_equals_lfmis(&star, 0.5, 2);
        let clique = generators::complete(40);
        let result = maximal_independent_set(&clique, 0.5, 2);
        assert_eq!(result.output.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn edgeless_graph_takes_everything() {
        let g = Graph::from_edges(50, &[]);
        let result = maximal_independent_set(&g, 0.5, 0);
        assert!(result.output.iter().all(|&b| b));
    }

    #[test]
    fn round_count_is_constant_not_logarithmic() {
        let small = generators::erdos_renyi_gnm(200, 600, 1);
        let large = generators::erdos_renyi_gnm(3000, 9000, 1);
        let small_rounds = maximal_independent_set(&small, 0.5, 1).rounds();
        let large_rounds = maximal_independent_set(&large, 0.5, 1).rounds();
        // O(1/ε) iterations, 2 rounds each — independent of n.
        assert!(small_rounds <= 2 * ((6.0 / 0.5) as usize + 5));
        assert!(large_rounds <= 2 * ((6.0 / 0.5) as usize + 5));
        assert!(large_rounds <= small_rounds + 6);
    }

    #[test]
    fn different_seeds_give_different_but_valid_sets() {
        let g = generators::erdos_renyi_gnm(200, 800, 9);
        let a = maximal_independent_set(&g, 0.5, 1).output;
        let b = maximal_independent_set(&g, 0.5, 2).output;
        assert!(sequential::is_maximal_independent_set(&g, &a));
        assert!(sequential::is_maximal_independent_set(&g, &b));
        // Two random priority orders on a graph of this size almost surely
        // produce different sets.
        assert_ne!(a, b);
    }

    /// `(rounds, total_queries, total_writes)` — the model's cost — of two
    /// fixed instances.  A change of container or hasher must leave these
    /// where they are; a change of algorithm that moves them should say so
    /// here.
    #[test]
    fn model_cost_of_mis_is_pinned() {
        let cost = |graph: &Graph| {
            let stats = maximal_independent_set(graph, 0.5, 7).stats;
            (
                stats.num_rounds(),
                stats.total_queries(),
                stats.total_writes(),
            )
        };
        let planted = generators::planted_components(3000, 5, 1200, 7);
        let gnm = generators::erdos_renyi_gnm(2000, 8000, 11);
        assert_eq!(cost(&planted), (4, 63036, 24030));
        assert_eq!(cost(&gnm), (4, 47277, 20090));
    }

    #[test]
    fn total_communication_is_near_linear() {
        // Proposition 5.1: expected total query cost is O(m + n).
        let g = generators::erdos_renyi_gnm(1000, 4000, 4);
        let result = maximal_independent_set(&g, 0.5, 4);
        let budget = 40 * (g.num_edges() + g.num_vertices()) as u64;
        assert!(
            result.stats.total_queries() < budget,
            "total queries = {} exceeds {budget}",
            result.stats.total_queries()
        );
    }
}
