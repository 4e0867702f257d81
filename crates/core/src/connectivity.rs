//! Section 6: undirected connectivity in `O(log log_{m/n} n)` AMPC rounds.
//!
//! The algorithm follows Andoni et al. [FOCS 2018] phase structure —
//! repeatedly raise every vertex's degree to the current budget `d`, sample
//! leaders, contract non-leaders onto leaders, and grow the budget to
//! `d^{1.4}` — with the key AMPC improvement of the paper: the degree-raising
//! step (`IncreaseDegrees`, Algorithm 6) runs a *bounded BFS from every
//! vertex inside a single round*, using adaptive reads, instead of the
//! `O(log D)` rounds of squaring MPC needs.
//!
//! Driver-side steps (leader sampling, contraction bookkeeping with a
//! union-find, rebuilding the contracted edge list) correspond to the parts
//! the paper implements "using standard MPC primitives"; they run on the
//! dense arrays of `contract.rs`.  Two substitutions:
//!
//! * the sparse-graph preprocessing of Lemma 6.2 (an external manuscript) is
//!   replaced by capping the leader probability at 1/2 and hooking every
//!   vertex onto the minimum id in its BFS ball when leaders are too dense
//!   to help (the *min-hooking regime*);
//! * the budget cap is `n^{ε/2}` so a vertex's `d²` BFS queries never exceed
//!   its machine's `O(n^ε)` space, as prescribed in Section 6.
//!
//! After the first phase the contracted edge list is sorted, so a vertex's
//! adjacency slots ascend by neighbour id.  That order is part of the cost,
//! not a detail: a bounded BFS keeps the first `d` vertices it meets, and in
//! the min-hooking regime a vertex hooks onto the minimum of that ball —
//! meeting the smallest neighbours first lets more balls agree on their
//! minimum, so the graph contracts in fewer rounds and queries than under an
//! arbitrary slot order, and by the same amount on every run and backend.

use crate::common::{adjacency_key, degree_key, round_robin_assign, AlgorithmResult};
use crate::contract::{phase_budgets, LiveSet};
use ampc_dds::{FxHashSet, Key, Value};
use ampc_graph::{canonicalize_labels, Graph, UnionFind};
use ampc_runtime::{
    with_dds_backend, AmpcConfig, AmpcRuntime, DdsBackend, MachineContext, SnapshotView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adjacency entries fetched per batched adaptive read during the BFS.
///
/// Large enough to amortize per-read accounting over a whole cache line of
/// neighbour slots, small enough that an early exit (budget `d` reached
/// mid-list) wastes at most a handful of prefetched entries.
const BFS_READ_BATCH: usize = 32;

/// Buffers of [`bounded_bfs`], owned by a machine for a whole round and
/// cleared per start vertex.
#[derive(Default)]
struct BfsScratch {
    visited: FxHashSet<u32>,
    queue: std::collections::VecDeque<u32>,
    keys: Vec<Key>,
    entries: Vec<Option<Value>>,
}

/// Algorithm 6 (`IncreaseDegrees`) for a single vertex: a BFS from `v` by
/// adaptive reads that stops after visiting `d` vertices (or the whole
/// component) and at most `query_cap` reads.
///
/// The frontier expansion reads each vertex's adjacency list in batches of
/// up to [`BFS_READ_BATCH`] slots via [`MachineContext::read_many_into`] —
/// the slot keys are independent once the degree is known, so a real
/// deployment pipelines them in one network flight.  Visiting order (and
/// therefore the result) is identical to the slot-by-slot loop.  Query
/// accounting is not quite identical: when the ball fills mid-batch, the
/// remaining prefetched slots of that batch are still counted — a bounded
/// over-read (each batch is clamped to the `d - order.len()` discoveries
/// still acceptable, so the waste per BFS is less than one batch).
fn bounded_bfs<V: SnapshotView>(
    ctx: &mut MachineContext<V>,
    scratch: &mut BfsScratch,
    v: u32,
    d: usize,
    query_cap: u64,
) -> Vec<u32> {
    scratch.visited.clear();
    scratch.queue.clear();
    let mut order: Vec<u32> = Vec::with_capacity(d);
    scratch.visited.insert(v);
    order.push(v);
    scratch.queue.push_back(v);
    let start_queries = ctx.queries_issued();
    'outer: while let Some(x) = scratch.queue.pop_front() {
        if order.len() >= d {
            break;
        }
        if ctx.queries_issued() - start_queries >= query_cap {
            break;
        }
        let deg = match ctx.read(degree_key(x)) {
            Some(value) => value.x as usize,
            None => continue,
        };
        let mut next_slot = 0usize;
        while next_slot < deg {
            let remaining_budget = query_cap.saturating_sub(ctx.queries_issued() - start_queries);
            if remaining_budget == 0 {
                break 'outer;
            }
            // Clamp the batch to the query cap and to the discoveries the
            // ball can still accept, so an early exit wastes at most the
            // tail of one small batch.
            let remaining_ball = d.saturating_sub(order.len()).max(1);
            let batch_cap = BFS_READ_BATCH
                .min(remaining_budget as usize)
                .min(remaining_ball);
            let batch_end = deg.min(next_slot + batch_cap);
            scratch.keys.clear();
            scratch
                .keys
                .extend((next_slot..batch_end).map(|i| adjacency_key(x, i)));
            ctx.read_many_into(&scratch.keys, &mut scratch.entries);
            for entry in &scratch.entries {
                let Some(entry) = entry else { continue };
                let u = entry.x as u32;
                if scratch.visited.insert(u) {
                    order.push(u);
                    scratch.queue.push_back(u);
                    if order.len() >= d {
                        break 'outer;
                    }
                }
            }
            next_slot = batch_end;
        }
    }
    order
}

/// Connected components in the AMPC model (Algorithm 7 / Theorem 3).
///
/// Returns canonical component labels (`labels[v]` = smallest original
/// vertex id in `v`'s component) together with the run statistics.
pub fn connectivity(graph: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u32>> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    connectivity_with(
        graph,
        &AmpcConfig::for_graph(n.max(1), m, epsilon).with_seed(seed),
    )
}

/// [`connectivity`] with an explicit [`AmpcConfig`]: ε and seed are taken
/// from the config, which also selects the DDS backend, thread cap and
/// budget handling for every round the algorithm runs.
pub fn connectivity_with(graph: &Graph, config: &AmpcConfig) -> AlgorithmResult<Vec<u32>> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let config = config.derive(n.max(1), n.max(1) + m);
    with_dds_backend!(config, |runtime| connectivity_impl(graph, runtime))
}

fn connectivity_impl<B: DdsBackend>(
    graph: &Graph,
    mut runtime: AmpcRuntime<B>,
) -> AlgorithmResult<Vec<u32>> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1234_5678);

    if n == 0 {
        return AlgorithmResult::new(Vec::new(), runtime.into_stats());
    }

    // Current contracted graph and the original-vertex labelling.
    let mut live = LiveSet::all(n);
    let mut edges: Vec<(u32, u32)> = graph.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut labels: Vec<u32> = (0..n as u32).collect();

    let space = runtime.config().space_per_machine();
    for d in phase_budgets(n, m, epsilon) {
        if edges.is_empty() {
            break;
        }

        // Round 1 of the phase: publish the current graph.
        runtime
            .scatter(live.adjacency_pairs(&edges, adjacency_key, |u, _| Value::scalar(u as u64)));

        // Round 2: IncreaseDegrees — bounded BFS from every live vertex.
        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(live.vertices(), machines);
        let query_cap = (space as u64).max((d * d) as u64);
        let balls: Vec<Vec<(u32, Vec<u32>)>> = runtime
            .run_round(machines, |ctx| {
                let mut scratch = BfsScratch::default();
                assignments[ctx.machine_id()]
                    .iter()
                    .map(|&v| (v, bounded_bfs(ctx, &mut scratch, v, d, query_cap)))
                    .collect()
            })
            .expect("IncreaseDegrees round failed");

        // Driver: leader sampling and contraction (standard MPC primitives).
        let leader_probability = (2.0 * (n.max(2) as f64).ln() / d as f64).min(1.0);
        let use_leaders = leader_probability <= 0.5;
        let leaders: Vec<bool> = (0..if use_leaders { live.len() } else { 0 })
            .map(|_| rng.gen_bool(leader_probability))
            .collect();
        let is_leader = |v: u32| leaders[live.index(v) as usize];

        let mut uf = UnionFind::new(live.len());
        for (v, ball) in balls.iter().flatten() {
            if ball.len() <= 1 {
                continue; // isolated vertex
            }
            let ball_min = || ball.iter().copied().min();
            let target = if use_leaders {
                if is_leader(*v) {
                    continue; // leaders stay put
                }
                match ball.iter().copied().filter(|&u| is_leader(u)).min() {
                    Some(leader) => Some(leader),
                    // No leader in the ball: if the whole component was
                    // explored (|ball| < d) hook onto its minimum, otherwise
                    // stay put for this phase (w.h.p. rare).
                    None if ball.len() < d => ball_min(),
                    None => None,
                }
            } else {
                // Dense-leader regime (small d): hook everything onto the
                // minimum of its ball; vertex count at least halves.
                ball_min()
            };
            if let Some(t) = target {
                uf.union(live.index(*v), live.index(t));
            }
        }

        // Contract the edge list (including the edges discovered by the BFS,
        // as the paper's step (a) adds them to G).
        let discovered = balls
            .iter()
            .flatten()
            .flat_map(|(v, ball)| ball.iter().map(move |&u| (*v, u)));
        let all = edges.iter().copied().chain(discovered);
        edges = live.contract(&mut uf, &mut labels, all);
    }

    // Anything still carrying edges at this point (only possible if the
    // phase cap was hit) is finished off on the driver, mirroring the final
    // "fits in one machine" step of the paper.
    if !edges.is_empty() {
        let mut uf = UnionFind::new(live.len());
        for &(u, v) in &edges {
            uf.union(live.index(u), live.index(v));
        }
        live.contract(&mut uf, &mut labels, edges);
    }

    AlgorithmResult::new(canonicalize_labels(&labels), runtime.into_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn matches_sequential_on_planted_components() {
        for seed in 0..3 {
            let g = generators::planted_components(400, 7, 3, seed);
            let result = connectivity(&g, 0.5, seed);
            assert_eq!(
                result.output,
                sequential::connected_components(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_dense_connected_graph() {
        let g = generators::connected_gnm(500, 3000, 2);
        let result = connectivity(&g, 0.5, 2);
        assert_eq!(result.output, sequential::connected_components(&g));
        let distinct: std::collections::HashSet<u32> = result.output.iter().copied().collect();
        assert_eq!(distinct.len(), 1);
    }

    #[test]
    fn matches_sequential_on_sparse_forest() {
        let g = generators::random_forest(300, 12, 4);
        let result = connectivity(&g, 0.5, 4);
        assert_eq!(result.output, sequential::connected_components(&g));
    }

    #[test]
    fn handles_isolated_vertices_and_empty_graph() {
        let empty = Graph::from_edges(0, &[]);
        assert!(connectivity(&empty, 0.5, 0).output.is_empty());

        let isolated = Graph::from_edges(5, &[ampc_graph::Edge::new(1, 3)]);
        let result = connectivity(&isolated, 0.5, 0);
        assert_eq!(result.output, vec![0, 1, 2, 1, 4]);
    }

    #[test]
    fn round_count_is_doubly_logarithmic_not_diameter_bound() {
        // High-diameter dense graph: path of cliques.  MPC label propagation
        // needs Θ(D) rounds; the AMPC algorithm should stay in single digits
        // of phases regardless of D.
        let g = generators::path_of_cliques(16, 64); // D ≈ 128
        let result = connectivity(&g, 0.5, 3);
        assert_eq!(result.output, sequential::connected_components(&g));
        assert!(result.rounds() <= 30, "rounds = {}", result.rounds());
    }

    #[test]
    fn works_on_cycles_too() {
        let g = generators::two_cycles(600);
        let result = connectivity(&g, 0.5, 9);
        assert_eq!(result.output, sequential::connected_components(&g));
    }

    #[test]
    fn larger_epsilon_means_fewer_rounds() {
        let g = generators::connected_gnm(2000, 6000, 5);
        let coarse = connectivity(&g, 0.7, 5);
        let fine = connectivity(&g, 0.3, 5);
        assert_eq!(coarse.output, fine.output);
        assert!(
            coarse.rounds() <= fine.rounds() + 2,
            "coarse {} fine {}",
            coarse.rounds(),
            fine.rounds()
        );
    }
}
