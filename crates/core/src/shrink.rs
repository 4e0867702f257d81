//! Section 4: the `Shrink` primitive and the 2-Cycle algorithm.
//!
//! `Shrink` (Algorithm 1) contracts a union of cycles onto a random sample
//! of its vertices: every sampled vertex walks the cycle in both directions
//! — an *adaptive* pointer chase that MPC cannot do inside one round — until
//! it meets another sampled vertex, and the path between consecutive samples
//! becomes a single edge.  With sampling probability `n^{-ε/2}` the cycle
//! lengths shrink by a factor `n^{ε/2}` per iteration w.h.p., so after
//! `O(1/ε)` iterations everything fits on one machine.
//!
//! The 2-Cycle algorithm (Algorithm 2) is `Shrink` followed by a single-
//! machine count of the surviving cycles; [`cycle_connectivity`]
//! (Algorithm 10, used by forest connectivity in Section 8) replaces the
//! final count with one more adaptive round that elects the minimum-priority
//! vertex of each surviving cycle as its representative.
//!
//! Every walk is a plain loop of point reads, and a machine runs its walks
//! one after another.  Each hop depends on the one before it, so there is
//! nothing within a walk to batch.  Interleaving a machine's walks would
//! overlap their cache misses: on a 2-vCPU host, 2-Cycle's walk rounds at
//! n = 262 144 ran 7–16 % faster that way, for ≈ 300 more lines.
//!
//! One practical deviation from the paper: a cycle that receives
//! no sample in an iteration is passed through to the next iteration
//! unchanged instead of being lost.  The paper's analysis makes this a
//! w.h.p. non-event for the Θ(n)-length cycles of the 2-Cycle problem; the
//! pass-through keeps the algorithm *always* correct, also for the short
//! cycles that arise when forest connectivity feeds Euler tours in.

use crate::common::AlgorithmResult;
use ampc_dds::{FxHashMap, FxHashSet, Key, KeyTag, Value};
use ampc_graph::{canonicalize_labels, Graph};
use ampc_runtime::{with_dds_backend, AmpcConfig, AmpcRuntime, DdsBackend, MachineContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Answer to a 2-Cycle instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwoCycleAnswer {
    /// The input is a single cycle.
    OneCycle,
    /// The input consists of two cycles.
    TwoCycles,
}

/// Adjacency of a union of cycles: every live vertex has exactly two
/// incident cycle edges (which may coincide after contraction, or point back
/// to the vertex itself once a whole cycle has collapsed onto it).
pub type CycleNeighbors = FxHashMap<u32, (u32, u32)>;

/// Extract the cycle adjacency of a graph whose every vertex has degree 2.
///
/// # Panics
/// If some vertex does not have degree exactly 2.
pub fn cycle_neighbors_of(graph: &Graph) -> CycleNeighbors {
    let mut nbrs = CycleNeighbors::default();
    for v in 0..graph.num_vertices() as u32 {
        let adjacent = graph.neighbors(v);
        assert_eq!(
            adjacent.len(),
            2,
            "vertex {v} has degree {} (cycle graphs need degree 2)",
            adjacent.len()
        );
        nbrs.insert(v, (adjacent[0], adjacent[1]));
    }
    nbrs
}

fn cycle_key(v: u32) -> Key {
    Key::of(KeyTag::CycleNeighbors, v as u64)
}

fn sampled_key(v: u32) -> Key {
    Key::of(KeyTag::Sampled, v as u64)
}

fn priority_key(v: u32) -> Key {
    Key::of(KeyTag::Priority, v as u64)
}

/// Result of one sampled vertex's bidirectional traversal.
struct Traversal {
    vertex: u32,
    left_end: u32,
    right_end: u32,
    covered: Vec<u32>,
}

/// Walk the cycle from `start` through its neighbour `first`, away from
/// `start`, appending every unsampled vertex passed to `covered`.  Returns
/// where the walk ended: the first sampled vertex met, or `start` when the
/// walk wrapped around the cycle (or took `limit` steps, which a well-formed
/// cycle never needs).
fn walk(
    ctx: &mut MachineContext,
    start: u32,
    first: u32,
    limit: usize,
    covered: &mut Vec<u32>,
) -> u32 {
    let mut prev = start;
    let mut cur = first;
    for _ in 0..limit {
        if cur == start {
            return start;
        }
        if ctx.read(sampled_key(cur)).is_some() {
            return cur;
        }
        covered.push(cur);
        let nbrs = ctx
            .read(cycle_key(cur))
            .expect("cycle adjacency missing from DDS");
        let (a, b) = (nbrs.x as u32, nbrs.y as u32);
        let next = if a != prev {
            a
        } else if b != prev {
            b
        } else {
            // Both neighbours equal `prev`: a two-vertex cycle; wrap.
            return start;
        };
        prev = cur;
        cur = next;
    }
    start
}

/// The bidirectional traversal of sampled vertex `v`: one [`walk`] per
/// direction, or one only, when the first wraps the whole cycle.
fn traverse(ctx: &mut MachineContext, v: u32, limit: usize) -> Traversal {
    let nbrs = ctx
        .read(cycle_key(v))
        .expect("sampled vertex missing adjacency");
    let (a, b) = (nbrs.x as u32, nbrs.y as u32);
    let mut covered = Vec::new();
    let left_end = walk(ctx, v, a, limit, &mut covered);
    let right_end = if left_end == v {
        v
    } else {
        walk(ctx, v, b, limit, &mut covered)
    };
    Traversal {
        vertex: v,
        left_end,
        right_end,
        covered,
    }
}

/// Internal driver state shared by the 2-Cycle and cycle-connectivity
/// algorithms: the live cycle adjacency plus, for connectivity, the mapping
/// from original vertices to their current live representative.
pub(crate) struct ShrinkState {
    /// Adjacency of the live (contracted) cycle graph.
    pub nbrs: CycleNeighbors,
    /// `assign[v]` = live vertex currently representing original vertex `v`.
    pub assign: Vec<u32>,
}

/// Run `Shrink(G, ε/2, ·)` until at most `target` vertices remain (or the
/// iteration cap is reached).  Returns the contracted state.
pub(crate) fn shrink_cycles<B: DdsBackend>(
    runtime: &mut AmpcRuntime<B>,
    mut state: ShrinkState,
    n_original: usize,
    epsilon: f64,
    target: usize,
    seed: u64,
) -> ShrinkState {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample_probability = (n_original.max(2) as f64).powf(-epsilon / 2.0);
    let max_iterations = (4.0 / epsilon).ceil() as usize + 4;

    for _iteration in 0..max_iterations {
        let alive: Vec<u32> = state.nbrs.keys().copied().collect();
        if alive.len() <= target {
            break;
        }

        // Sample the contraction targets for this iteration.
        // Drawn in `state.nbrs` order: a rewrite keeps the counts only if it keeps this order.
        let sampled: FxHashSet<u32> = alive
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(sample_probability))
            .collect();
        if sampled.is_empty() {
            // Nothing to contract onto; retry with a fresh sample.
            continue;
        }

        // Publish the live cycle graph and the sample marks (one round of
        // MPC-style scatter), then run the adaptive traversal round.
        let mut pairs: Vec<(Key, Value)> = Vec::with_capacity(alive.len() + sampled.len());
        for (&v, &(a, b)) in &state.nbrs {
            pairs.push((cycle_key(v), Value::pair(a as u64, b as u64)));
        }
        for &v in &sampled {
            pairs.push((sampled_key(v), Value::scalar(1)));
        }
        runtime.scatter(pairs);

        // Handed out in `sampled` order: a rewrite keeps the counts only if it keeps this order.
        let sampled_list: Vec<u32> = sampled.iter().copied().collect();
        let machines = runtime.config().num_machines();
        let assignments = crate::common::round_robin_assign(&sampled_list, machines);
        let limit = alive.len() + 2;
        let traversals: Vec<Vec<Traversal>> = runtime
            .run_round(machines, |ctx| {
                assignments[ctx.machine_id()]
                    .iter()
                    .map(|&v| traverse(ctx, v, limit))
                    .collect()
            })
            .expect("shrink round failed");

        // Driver side: rebuild the contracted graph (standard MPC primitives).
        let mut redirect: FxHashMap<u32, u32> = FxHashMap::default();
        let mut new_nbrs = CycleNeighbors::default();
        let mut covered_any: FxHashSet<u32> = FxHashSet::default();
        for t in traversals.into_iter().flatten() {
            new_nbrs.insert(t.vertex, (t.left_end, t.right_end));
            covered_any.insert(t.vertex);
            for u in t.covered {
                covered_any.insert(u);
                redirect.insert(u, t.vertex);
            }
        }
        // Cycles without a single sampled vertex pass through unchanged.
        for (&v, &nbrs) in &state.nbrs {
            if !covered_any.contains(&v) {
                new_nbrs.insert(v, nbrs);
            }
        }

        if !redirect.is_empty() {
            for label in state.assign.iter_mut() {
                if let Some(&to) = redirect.get(label) {
                    *label = to;
                }
            }
        }
        let shrank = new_nbrs.len() < state.nbrs.len();
        state.nbrs = new_nbrs;
        if !shrank && state.nbrs.len() <= target.max(sampled.len()) {
            break;
        }
    }
    state
}

/// Count the cycles of a small cycle graph on a single machine.
fn count_cycles(nbrs: &CycleNeighbors) -> usize {
    let mut visited: FxHashSet<u32> = FxHashSet::default();
    let mut cycles = 0usize;
    for (&start, _) in nbrs.iter() {
        if visited.contains(&start) {
            continue;
        }
        cycles += 1;
        let mut prev = start;
        let mut cur = start;
        loop {
            visited.insert(cur);
            let &(a, b) = nbrs.get(&cur).expect("dangling cycle pointer");
            // First step from `start` picks an arbitrary direction (`a`);
            // afterwards keep moving away from `prev`.
            let next = if (cur == start && prev == start) || a != prev {
                a
            } else {
                b
            };
            if next == start || next == cur {
                break;
            }
            prev = cur;
            cur = next;
        }
    }
    cycles
}

/// Algorithm 10, step 3, for vertex `v`: walk one direction of its cycle
/// until a vertex of smaller priority, which becomes `v`'s parent, or a wrap,
/// which makes `v` its cycle's minimum and its own parent.
fn elect(ctx: &mut MachineContext, v: u32, limit: usize) -> u32 {
    let my_priority = ctx.read(priority_key(v)).expect("priority missing").x;
    let nbrs = ctx.read(cycle_key(v)).expect("cycle adjacency missing");
    let mut prev = v;
    let mut cur = nbrs.x as u32;
    for _ in 0..limit {
        if cur == v {
            break;
        }
        if ctx.read(priority_key(cur)).expect("priority missing").x < my_priority {
            return cur;
        }
        let nbrs = ctx.read(cycle_key(cur)).expect("cycle adjacency missing");
        let (a, b) = (nbrs.x as u32, nbrs.y as u32);
        let next = if a != prev { a } else { b };
        if next == cur {
            break;
        }
        prev = cur;
        cur = next;
    }
    v
}

/// Algorithm 2: solve the 2-Cycle problem in `O(1/ε)` AMPC rounds.
///
/// # Panics
/// If the input is not a disjoint union of one or two cycles.
pub fn two_cycle(graph: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<TwoCycleAnswer> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    two_cycle_with(graph, &AmpcConfig::for_graph(n, m, epsilon).with_seed(seed))
}

/// [`two_cycle`] with an explicit [`AmpcConfig`]: ε and seed are taken from
/// the config, which also selects the DDS backend.
pub fn two_cycle_with(graph: &Graph, config: &AmpcConfig) -> AlgorithmResult<TwoCycleAnswer> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let config = config.derive(n, n + m);
    with_dds_backend!(config, |runtime| two_cycle_impl(graph, runtime))
}

fn two_cycle_impl<B: DdsBackend>(
    graph: &Graph,
    mut runtime: AmpcRuntime<B>,
) -> AlgorithmResult<TwoCycleAnswer> {
    let n = graph.num_vertices();
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;
    let nbrs = cycle_neighbors_of(graph);
    let target = (n as f64).powf(epsilon).ceil() as usize;
    let state = ShrinkState {
        nbrs,
        assign: (0..n as u32).collect(),
    };
    let state = shrink_cycles(
        &mut runtime,
        state,
        n,
        epsilon,
        target.max(4),
        seed ^ 0xc0ffee,
    );
    let answer = match count_cycles(&state.nbrs) {
        1 => TwoCycleAnswer::OneCycle,
        2 => TwoCycleAnswer::TwoCycles,
        k => panic!("2-Cycle instance resolved to {k} cycles"),
    };
    AlgorithmResult::new(answer, runtime.into_stats())
}

/// Algorithm 10: connected components of a union of cycles in `O(1/ε)`
/// AMPC rounds, given directly as a cycle adjacency over vertex ids
/// `0..n_original` (only live ids need entries).
pub fn cycle_connectivity_from_neighbors(
    nbrs: CycleNeighbors,
    n_original: usize,
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<Vec<u32>> {
    let m = nbrs.len();
    cycle_connectivity_from_neighbors_with(
        nbrs,
        n_original,
        &AmpcConfig::for_graph(n_original.max(1), m, epsilon).with_seed(seed),
    )
}

/// [`cycle_connectivity_from_neighbors`] with an explicit [`AmpcConfig`].
pub fn cycle_connectivity_from_neighbors_with(
    nbrs: CycleNeighbors,
    n_original: usize,
    config: &AmpcConfig,
) -> AlgorithmResult<Vec<u32>> {
    let m = nbrs.len();
    let config = config.derive(n_original.max(1), n_original.max(1) + m);
    with_dds_backend!(config, |runtime| cycle_connectivity_impl(
        nbrs, n_original, runtime
    ))
}

fn cycle_connectivity_impl<B: DdsBackend>(
    nbrs: CycleNeighbors,
    n_original: usize,
    mut runtime: AmpcRuntime<B>,
) -> AlgorithmResult<Vec<u32>> {
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;
    let target = (n_original.max(2) as f64).powf(epsilon).ceil() as usize;
    let state = ShrinkState {
        nbrs,
        assign: (0..n_original as u32).collect(),
    };
    let state = shrink_cycles(
        &mut runtime,
        state,
        n_original.max(1),
        epsilon,
        target.max(4),
        seed ^ 0xbeef,
    );

    // Final phase (Algorithm 10, steps 2–3): a random priority per surviving
    // vertex; each vertex walks one direction until it meets a smaller
    // priority or wraps.  The minimum-priority vertex of every cycle becomes
    // its representative.
    let alive: Vec<u32> = state.nbrs.keys().copied().collect();
    let mut parent: FxHashMap<u32, u32> = FxHashMap::default();
    if !alive.is_empty() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let mut priority: FxHashMap<u32, u64> = FxHashMap::default();
        // Drawn in `alive` (map) order: a rewrite keeps the counts only if it keeps this order.
        for &v in &alive {
            priority.insert(v, rng.gen());
        }
        let mut pairs: Vec<(Key, Value)> = Vec::with_capacity(2 * alive.len());
        for (&v, &(a, b)) in &state.nbrs {
            pairs.push((cycle_key(v), Value::pair(a as u64, b as u64)));
            pairs.push((priority_key(v), Value::scalar(priority[&v])));
        }
        runtime.scatter(pairs);

        let machines = runtime.config().num_machines();
        let assignments = crate::common::round_robin_assign(&alive, machines);
        let limit = alive.len() + 2;
        let results: Vec<Vec<(u32, u32)>> = runtime
            .run_round(machines, |ctx| {
                assignments[ctx.machine_id()]
                    .iter()
                    .map(|&v| (v, elect(ctx, v, limit)))
                    .collect()
            })
            .expect("cycle connectivity round failed");
        for pair in results.into_iter().flatten() {
            parent.insert(pair.0, pair.1);
        }
    }

    // Resolve the parent chains (each hop strictly decreases the priority,
    // so chains terminate at the cycle minimum) — driver-side bookkeeping.
    fn resolve(v: u32, parent: &FxHashMap<u32, u32>, memo: &mut FxHashMap<u32, u32>) -> u32 {
        if let Some(&r) = memo.get(&v) {
            return r;
        }
        let p = *parent.get(&v).unwrap_or(&v);
        let root = if p == v { v } else { resolve(p, parent, memo) };
        memo.insert(v, root);
        root
    }
    let mut memo: FxHashMap<u32, u32> = FxHashMap::default();
    let labels: Vec<u32> = state
        .assign
        .iter()
        .map(|&live| resolve(live, &parent, &mut memo))
        .collect();
    AlgorithmResult::new(canonicalize_labels(&labels), runtime.into_stats())
}

/// Algorithm 10 applied to a [`Graph`] that is a disjoint union of cycles.
pub fn cycle_connectivity(graph: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u32>> {
    let nbrs = cycle_neighbors_of(graph);
    cycle_connectivity_from_neighbors(nbrs, graph.num_vertices(), epsilon, seed)
}

/// [`cycle_connectivity`] with an explicit [`AmpcConfig`].
pub fn cycle_connectivity_with(graph: &Graph, config: &AmpcConfig) -> AlgorithmResult<Vec<u32>> {
    let nbrs = cycle_neighbors_of(graph);
    cycle_connectivity_from_neighbors_with(nbrs, graph.num_vertices(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    #[test]
    fn two_cycle_distinguishes_instances() {
        for seed in 0..3 {
            let one = generators::two_cycle_instance(400, false, seed);
            let two = generators::two_cycle_instance(400, true, seed);
            assert_eq!(two_cycle(&one, 0.5, seed).output, TwoCycleAnswer::OneCycle);
            assert_eq!(two_cycle(&two, 0.5, seed).output, TwoCycleAnswer::TwoCycles);
        }
    }

    #[test]
    fn two_cycle_round_count_is_constant_in_n() {
        let small = generators::two_cycle_instance(200, false, 1);
        let large = generators::two_cycle_instance(5000, false, 1);
        let small_rounds = two_cycle(&small, 0.5, 1).rounds();
        let large_rounds = two_cycle(&large, 0.5, 1).rounds();
        // O(1/ε) rounds: a 25x larger instance may take at most a couple more
        // iterations, never Θ(log n) more.
        assert!(small_rounds <= 16, "small rounds = {small_rounds}");
        assert!(large_rounds <= 16, "large rounds = {large_rounds}");
    }

    #[test]
    fn two_cycle_with_small_epsilon_uses_more_rounds() {
        let g = generators::two_cycle_instance(2000, true, 7);
        let coarse = two_cycle(&g, 0.75, 7).rounds();
        let fine = two_cycle(&g, 0.25, 7).rounds();
        assert!(fine >= coarse, "fine = {fine}, coarse = {coarse}");
    }

    /// Disjoint cycles of the given lengths, numbered consecutively.
    fn union_of_cycles(lengths: &[u32]) -> Graph {
        let mut edges = Vec::new();
        let mut offset = 0u32;
        for &len in lengths {
            for i in 0..len {
                edges.push(ampc_graph::Edge::new(offset + i, offset + (i + 1) % len));
            }
            offset += len;
        }
        Graph::from_edges(offset as usize, &edges)
    }

    #[test]
    fn cycle_connectivity_matches_sequential_on_unions_of_cycles() {
        let g = union_of_cycles(&[3, 5, 17, 50, 120]);
        let result = cycle_connectivity(&g, 0.5, 3);
        assert_eq!(result.output, sequential::connected_components(&g));
    }

    #[test]
    fn cycle_connectivity_on_two_cycles() {
        let g = generators::two_cycles(300);
        let result = cycle_connectivity(&g, 0.5, 11);
        assert_eq!(result.output, sequential::connected_components(&g));
        let distinct: std::collections::HashSet<u32> = result.output.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn shrink_reduces_vertex_count() {
        let g = generators::cycle(4000);
        let n = g.num_vertices();
        let mut runtime = AmpcRuntime::new(AmpcConfig::for_graph(n, n, 0.5).with_seed(9));
        let state = ShrinkState {
            nbrs: cycle_neighbors_of(&g),
            assign: (0..n as u32).collect(),
        };
        let shrunk = shrink_cycles(&mut runtime, state, n, 0.5, 64, 9);
        assert!(
            shrunk.nbrs.len() <= 200,
            "still {} vertices alive",
            shrunk.nbrs.len()
        );
        // Every original vertex maps to a live vertex.
        for &rep in &shrunk.assign {
            assert!(shrunk.nbrs.contains_key(&rep));
        }
    }

    #[test]
    fn count_cycles_handles_contracted_forms() {
        // Self-loop (fully contracted cycle) plus a 2-vertex contracted cycle.
        let mut nbrs = CycleNeighbors::default();
        nbrs.insert(7, (7, 7));
        nbrs.insert(1, (2, 2));
        nbrs.insert(2, (1, 1));
        assert_eq!(count_cycles(&nbrs), 2);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn non_cycle_input_rejected() {
        let g = generators::path(10);
        let _ = two_cycle(&g, 0.5, 0);
    }

    #[test]
    fn model_cost_of_shrink_paths_is_pinned() {
        // `(rounds, queries, writes, busiest machine)` of every Shrink path
        // on fixed instances.  The walks' reads are part of the cost, and so
        // is the order the samples and priorities are drawn in.
        let cost = |stats: &ampc_runtime::RunStats| {
            (
                stats.num_rounds(),
                stats.total_queries(),
                stats.total_writes(),
                stats.max_machine_communication(),
            )
        };
        let one = generators::two_cycle_instance(4096, false, 3);
        let two = generators::two_cycle_instance(4096, true, 4);
        assert_eq!(cost(&two_cycle(&one, 0.5, 3).stats), (6, 18106, 5254, 352));
        assert_eq!(cost(&two_cycle(&two, 0.5, 4).stats), (4, 17830, 5165, 262));
        let cycles = union_of_cycles(&[3, 5, 17, 50, 120, 500, 1000, 2400]);
        let connectivity = cycle_connectivity(&cycles, 0.5, 5);
        assert_eq!(cost(&connectivity.stats), (8, 17907, 5228, 282));
        let forest = generators::random_forest(4096, 8, 7);
        let forest_connectivity = crate::forest_connectivity(&forest, 0.5, 7);
        assert_eq!(cost(&forest_connectivity.stats), (6, 35768, 10166, 395));
    }

    #[test]
    fn communication_per_machine_stays_bounded() {
        let g = generators::two_cycle_instance(4096, false, 5);
        let result = two_cycle(&g, 0.5, 5);
        let s = (4096f64).powf(0.5);
        // Lemma 4.3: O(n^ε) communication per machine per round.  Allow a
        // generous constant for the simulation.
        assert!(
            (result.stats.max_machine_communication() as f64) < 40.0 * s,
            "max machine communication = {}",
            result.stats.max_machine_communication()
        );
    }
}
