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
//! Each live vertex is one record under `cycle_key(v)`: `x` holds its two
//! neighbours `a | b << 32`, `y` the round's mark — the sample bit in a
//! `Shrink` iteration, the random priority in the election round.  A round
//! writes one pair per live vertex, and every hop reads one record: a walk
//! reads one per vertex it passes and one for the sample that ends it, an
//! election its own record and one per hop.  That is the one read per hop
//! Lemma 4.3's `O(n^ε)` bound per machine counts.  A layout that kept the
//! mark under a key of its own read twice per hop, doubling the walks'
//! communication, and so put 2-Cycle at ε = 0.25 over the round budget by a
//! constant factor (76 against 64 at n = 4 096), not by an unbounded tail.
//!
//! The driver keeps its state in arrays indexed by vertex id, as list
//! ranking does: the adjacency `nbrs`, `up` (the vertex each was contracted
//! onto, later its elected parent; a label is the end of the chain) and
//! `alive`, the live vertices of cycles not yet collapsed, ascending.
//! Samples and election priorities are drawn in `alive` order.  A cycle that
//! collapsed onto one vertex retires: it is never published, walked or
//! elected again, and costs no more rounds.
//!
//! One practical deviation from the paper: a cycle that receives
//! no sample in an iteration is passed through to the next iteration
//! unchanged instead of being lost.  The paper's analysis makes this a
//! w.h.p. non-event for the Θ(n)-length cycles of the 2-Cycle problem; the
//! pass-through keeps the algorithm *always* correct, also for the short
//! cycles that arise when forest connectivity feeds Euler tours in.

use crate::common::{round_robin_assign, AlgorithmResult};
use ampc_dds::{Key, KeyTag, Value};
use ampc_graph::{canonicalize_labels, Graph};
use ampc_runtime::{AmpcConfig, AmpcRuntime, MachineContext};
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

/// Adjacency of a union of cycles, indexed by vertex id: every vertex has
/// exactly two incident cycle edges (which may coincide after contraction,
/// or point back to the vertex itself once a whole cycle has collapsed onto
/// it).
pub type CycleNeighbors = Vec<(u32, u32)>;

/// Extract the cycle adjacency of a graph whose every vertex has degree 2.
///
/// # Panics
/// If some vertex does not have degree exactly 2.
pub fn cycle_neighbors_of(graph: &Graph) -> CycleNeighbors {
    (0..graph.num_vertices() as u32)
        .map(|v| {
            let adjacent = graph.neighbors(v);
            assert_eq!(
                adjacent.len(),
                2,
                "vertex {v} has degree {} (cycle graphs need degree 2)",
                adjacent.len()
            );
            (adjacent[0], adjacent[1])
        })
        .collect()
}

/// Panics unless `nbrs` is a union of cycles as far as the walks rely on:
/// every neighbour is a vertex, and lists its neighbour back.
fn assert_cycles(nbrs: &[(u32, u32)]) {
    let n = nbrs.len();
    for (v, &(a, b)) in nbrs.iter().enumerate() {
        for u in [a, b] {
            assert!((u as usize) < n, "neighbour {u} of vertex {v} out of range");
            let (c, d) = nbrs[u as usize];
            assert!(
                c as usize == v || d as usize == v,
                "vertex {u}, a neighbour of {v}, does not list {v} back"
            );
        }
    }
}

fn cycle_key(v: u32) -> Key {
    Key::of(KeyTag::CycleNeighbors, v as u64)
}

/// A live vertex's record: its neighbours `a` and `b` in `x`, `mark` in `y`.
fn record((a, b): (u32, u32), mark: u64) -> Value {
    Value::pair(u64::from(a) | u64::from(b) << 32, mark)
}

/// The `(a, b, mark)` of `v`'s [`record`]: one read.
fn read_record(ctx: &mut MachineContext, v: u32) -> (u32, u32, u64) {
    let record = ctx
        .read(cycle_key(v))
        .expect("cycle record missing from DDS");
    (record.x as u32, (record.x >> 32) as u32, record.y)
}

/// One [`record`] per vertex of `alive`, marked by `mark`, which is called
/// in `alive` order.
fn records(
    nbrs: &CycleNeighbors,
    alive: &[u32],
    mut mark: impl FnMut(u32) -> u64,
) -> Vec<(Key, Value)> {
    (alive.iter())
        .map(|&v| (cycle_key(v), record(nbrs[v as usize], mark(v))))
        .collect()
}

/// Result of one sampled vertex's bidirectional traversal.  The vertices it
/// covered are in its machine's one `covered` buffer, after the previous
/// traversal's and up to `covered_end`.
struct Traversal {
    vertex: u32,
    left_end: u32,
    right_end: u32,
    covered_end: usize,
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
        let (a, b, sampled) = read_record(ctx, cur);
        if sampled == 1 {
            return cur;
        }
        covered.push(cur);
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
/// direction, or one only, when the first wraps the whole cycle.  Appends
/// the vertices it covers to `covered`, the machine's buffer.
fn traverse(ctx: &mut MachineContext, v: u32, limit: usize, covered: &mut Vec<u32>) -> Traversal {
    let (a, b, _) = read_record(ctx, v);
    let left_end = walk(ctx, v, a, limit, covered);
    let right_end = if left_end == v {
        v
    } else {
        walk(ctx, v, b, limit, covered)
    };
    Traversal {
        vertex: v,
        left_end,
        right_end,
        covered_end: covered.len(),
    }
}

/// Internal driver state shared by the 2-Cycle and cycle-connectivity
/// algorithms, every array indexed by vertex id.
pub(crate) struct ShrinkState {
    /// Adjacency of the contracted cycle graph; only the entries of
    /// representatives are current.
    pub nbrs: CycleNeighbors,
    /// The live vertices of cycles that have not collapsed, ascending.
    pub alive: Vec<u32>,
    /// The vertex `v` was contracted onto (after the election, its parent),
    /// or `v` itself while it represents itself.
    pub up: Vec<u32>,
}

impl ShrinkState {
    /// Every vertex its own representative, and live unless a self-loop.
    pub fn new(nbrs: CycleNeighbors) -> Self {
        let n = nbrs.len() as u32;
        let alive = (0..n).filter(|&v| nbrs[v as usize] != (v, v)).collect();
        let up = (0..n).collect();
        ShrinkState { nbrs, alive, up }
    }

    /// Drop from `alive` the vertices contracted away and the cycles that
    /// collapsed onto one vertex.
    fn retire(&mut self) {
        let (nbrs, up) = (&self.nbrs, &self.up);
        (self.alive).retain(|&v| up[v as usize] == v && nbrs[v as usize] != (v, v));
    }

    /// Representatives of collapsed cycles: the cycles `alive` no longer has.
    fn collapsed(&self) -> usize {
        (0..self.nbrs.len() as u32)
            .filter(|&v| self.up[v as usize] == v && self.nbrs[v as usize] == (v, v))
            .count()
    }
}

/// Run `Shrink(G, ε/2, ·)` until at most `target` vertices remain alive (or
/// a sample would keep every one, or the iteration cap is reached).
/// Returns the contracted state.
pub(crate) fn shrink_cycles(
    runtime: &mut AmpcRuntime,
    mut state: ShrinkState,
    epsilon: f64,
    target: usize,
    seed: u64,
) -> ShrinkState {
    let n = state.nbrs.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let sample_probability = (n.max(2) as f64).powf(-epsilon / 2.0);
    let max_iterations = (4.0 / epsilon).ceil() as usize + 4;
    let mut sampled = vec![false; n];

    for _iteration in 0..max_iterations {
        if state.alive.len() <= target {
            break;
        }
        let samples: Vec<u32> = (state.alive.iter().copied())
            .filter(|_| rng.gen_bool(sample_probability))
            .collect();
        if samples.is_empty() {
            // Nothing to contract onto; retry with a fresh sample.
            continue;
        }
        if samples.len() == state.alive.len() {
            break; // contraction would be a no-op
        }

        // Publish the live cycle graph, each vertex's record marked with its
        // sample bit (one round of MPC-style scatter), then run the adaptive
        // traversal round.
        for &v in &samples {
            sampled[v as usize] = true;
        }
        runtime.scatter(records(&state.nbrs, &state.alive, |v| {
            u64::from(sampled[v as usize])
        }));
        for &v in &samples {
            sampled[v as usize] = false;
        }

        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&samples, machines);
        let limit = state.alive.len() + 2;
        let traversals: Vec<(Vec<Traversal>, Vec<u32>)> = runtime
            .run_round(machines, |ctx| {
                let mut covered = Vec::new();
                let walks = (assignments[ctx.machine_id()].iter())
                    .map(|&v| traverse(ctx, v, limit, &mut covered))
                    .collect();
                (walks, covered)
            })
            .expect("shrink round failed");

        // Driver side: contract each covered path onto its sample (standard
        // MPC primitives).  Cycles without a sample pass through unchanged.
        for (walks, covered) in &traversals {
            let mut from = 0;
            for t in walks {
                state.nbrs[t.vertex as usize] = (t.left_end, t.right_end);
                for &u in &covered[from..t.covered_end] {
                    state.up[u as usize] = t.vertex;
                }
                from = t.covered_end;
            }
        }
        state.retire();
    }
    state
}

/// Count the cycles through `alive` of a small cycle graph on a single
/// machine.
fn count_cycles(nbrs: &CycleNeighbors, alive: &[u32]) -> usize {
    let mut visited = vec![false; nbrs.len()];
    let mut cycles = 0usize;
    for &start in alive {
        if visited[start as usize] {
            continue;
        }
        cycles += 1;
        let mut prev = start;
        let mut cur = start;
        loop {
            visited[cur as usize] = true;
            let (a, b) = nbrs[cur as usize];
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
    let (mut cur, _, my_priority) = read_record(ctx, v);
    let mut prev = v;
    for _ in 0..limit {
        if cur == v {
            break;
        }
        let (a, b, priority) = read_record(ctx, cur);
        if priority < my_priority {
            return cur;
        }
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
    let mut runtime = AmpcRuntime::new(config.derive(n, n + m));
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;
    let target = (n as f64).powf(epsilon).ceil() as usize;
    let state = ShrinkState::new(cycle_neighbors_of(graph));
    let state = shrink_cycles(&mut runtime, state, epsilon, target.max(4), seed ^ 0xc0ffee);
    let answer = match state.collapsed() + count_cycles(&state.nbrs, &state.alive) {
        1 => TwoCycleAnswer::OneCycle,
        2 => TwoCycleAnswer::TwoCycles,
        k => panic!("2-Cycle instance resolved to {k} cycles"),
    };
    AlgorithmResult::new(answer, runtime.into_stats())
}

/// Algorithm 10: connected components of a union of cycles in `O(1/ε)`
/// AMPC rounds, given directly as the cycle adjacency of vertex ids
/// `0..nbrs.len()`.
///
/// # Panics
/// If a neighbour is out of range, or does not list its neighbour back.
pub fn cycle_connectivity_from_neighbors(
    nbrs: CycleNeighbors,
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<Vec<u32>> {
    let n = nbrs.len();
    cycle_connectivity_from_neighbors_with(
        nbrs,
        &AmpcConfig::for_graph(n.max(1), n, epsilon).with_seed(seed),
    )
}

/// [`cycle_connectivity_from_neighbors`] with an explicit [`AmpcConfig`].
///
/// # Panics
/// If a neighbour is out of range, or does not list its neighbour back.
pub fn cycle_connectivity_from_neighbors_with(
    nbrs: CycleNeighbors,
    config: &AmpcConfig,
) -> AlgorithmResult<Vec<u32>> {
    assert_cycles(&nbrs);
    let n = nbrs.len();
    let mut runtime = AmpcRuntime::new(config.derive(n.max(1), n.max(1) + n));
    let epsilon = runtime.config().epsilon;
    let seed = runtime.config().seed;
    let target = (nbrs.len().max(2) as f64).powf(epsilon).ceil() as usize;
    let state = ShrinkState::new(nbrs);
    let mut state = shrink_cycles(&mut runtime, state, epsilon, target.max(4), seed ^ 0xbeef);

    // Final phase (Algorithm 10, steps 2–3): a random priority per vertex
    // still alive; each walks one direction until it meets a smaller
    // priority or wraps.  The minimum-priority vertex of every cycle becomes
    // its representative.
    if !state.alive.is_empty() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        runtime.scatter(records(&state.nbrs, &state.alive, |_| rng.gen()));

        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&state.alive, machines);
        let limit = state.alive.len() + 2;
        let results: Vec<Vec<(u32, u32)>> = runtime
            .run_round(machines, |ctx| {
                assignments[ctx.machine_id()]
                    .iter()
                    .map(|&v| (v, elect(ctx, v, limit)))
                    .collect()
            })
            .expect("cycle connectivity round failed");
        for (v, parent) in results.into_iter().flatten() {
            state.up[v as usize] = parent;
        }
    }

    // A label is the end of the vertex's `up` chain (each election hop
    // strictly decreases the priority, so chains end) — driver-side
    // bookkeeping, halving the chains it walks.
    let up = &mut state.up;
    let labels: Vec<u32> = (0..up.len() as u32)
        .map(|v| {
            let mut r = v;
            while up[r as usize] != r {
                up[r as usize] = up[up[r as usize] as usize];
                r = up[r as usize];
            }
            r
        })
        .collect();
    AlgorithmResult::new(canonicalize_labels(&labels), runtime.into_stats())
}

/// Algorithm 10 applied to a [`Graph`] that is a disjoint union of cycles.
pub fn cycle_connectivity(graph: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u32>> {
    cycle_connectivity_from_neighbors(cycle_neighbors_of(graph), epsilon, seed)
}

/// [`cycle_connectivity`] with an explicit [`AmpcConfig`].
pub fn cycle_connectivity_with(graph: &Graph, config: &AmpcConfig) -> AlgorithmResult<Vec<u32>> {
    cycle_connectivity_from_neighbors_with(cycle_neighbors_of(graph), config)
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

    /// Rounds of one `Shrink` iteration: its scatter and its walk round.
    const ROUNDS_PER_ITERATION: usize = 2;

    /// Rounds of the election: its scatter and its walk round.
    const ELECTION_ROUNDS: usize = 2;

    #[test]
    fn two_cycle_round_count_is_constant_in_n() {
        let small = generators::two_cycle_instance(200, false, 1);
        let large = generators::two_cycle_instance(5000, false, 1);
        for epsilon in [0.25f64, 0.5, 0.75] {
            // O(1/ε) rounds: sampling at n^{-ε/2} shrinks a cycle by n^{ε/2}
            // per iteration, so ⌈2/ε⌉ iterations reach one machine, and a 25x
            // larger instance takes at most one more iteration, never
            // Θ(log n) more.
            let bound = ROUNDS_PER_ITERATION * (2.0 / epsilon).ceil() as usize;
            let small_rounds = two_cycle(&small, epsilon, 1).rounds();
            let large_rounds = two_cycle(&large, epsilon, 1).rounds();
            assert!(
                small_rounds <= bound,
                "ε = {epsilon}: small rounds = {small_rounds}"
            );
            assert!(
                large_rounds <= bound,
                "ε = {epsilon}: large rounds = {large_rounds}"
            );
            assert!(
                large_rounds <= small_rounds + ROUNDS_PER_ITERATION,
                "ε = {epsilon}: {small_rounds} rounds at n = 200, {large_rounds} at n = 5000"
            );
        }
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
    fn forest_rounds_do_not_grow_with_the_tree_count() {
        // A collapsed cycle retires, so the iterations stop once the cycles
        // left fit the target, however many trees collapsed before: ⌈2/ε⌉
        // iterations shrink a tour to one machine, one more absorbs an
        // unlucky draw.  Running on to the iteration cap took 42 rounds at
        // ε = 0.25 with 12 or 64 trees.
        for epsilon in [0.25f64, 0.5] {
            let bound =
                ROUNDS_PER_ITERATION * ((2.0 / epsilon).ceil() as usize + 1) + ELECTION_ROUNDS;
            for trees in [1, 12, 64] {
                let forest = generators::random_forest(4096, trees, 3);
                let result = crate::forest_connectivity(&forest, epsilon, 3);
                assert_eq!(result.output, sequential::connected_components(&forest));
                let rounds = result.rounds();
                assert!(
                    rounds <= bound,
                    "ε = {epsilon}, {trees} trees: {rounds} rounds > {bound}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "neighbour 9 of vertex 0 out of range")]
    fn out_of_range_neighbour_rejected() {
        let nbrs = vec![(1, 9), (0, 0)];
        let _ = cycle_connectivity_from_neighbors(nbrs, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "vertex 2, a neighbour of 0, does not list 0 back")]
    fn one_sided_neighbour_rejected() {
        // 0 and 1 form a 2-cycle; 0 also names 2, which does not name 0.
        let nbrs = vec![(1, 2), (0, 0), (2, 2)];
        let _ = cycle_connectivity_from_neighbors(nbrs, 0.5, 0);
    }

    #[test]
    fn shrink_reduces_vertex_count() {
        let g = generators::cycle(4000);
        let n = g.num_vertices();
        let mut runtime = AmpcRuntime::new(AmpcConfig::for_graph(n, n, 0.5).with_seed(9));
        let state = ShrinkState::new(cycle_neighbors_of(&g));
        let shrunk = shrink_cycles(&mut runtime, state, 0.5, 64, 9);
        assert!(
            shrunk.alive.len() <= 200,
            "still {} vertices alive",
            shrunk.alive.len()
        );
        // Every vertex's `up` chain ends at a live vertex.
        for v in 0..n as u32 {
            let mut r = v;
            while shrunk.up[r as usize] != r {
                r = shrunk.up[r as usize];
            }
            assert!(shrunk.alive.binary_search(&r).is_ok(), "{v} ends at {r}");
        }
    }

    #[test]
    fn count_cycles_handles_contracted_forms() {
        // Self-loop (fully contracted cycle) plus a 2-vertex contracted cycle.
        let state = ShrinkState::new(vec![(0, 0), (2, 2), (1, 1)]);
        assert_eq!(state.alive, [1, 2]);
        assert_eq!(
            state.collapsed() + count_cycles(&state.nbrs, &state.alive),
            2
        );
        assert_eq!(count_cycles(&state.nbrs, &[0, 1, 2]), 2);
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
        // is the order the samples and priorities are drawn in: ascending id
        // order of the vertices still alive.
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
        assert_eq!(cost(&two_cycle(&one, 0.5, 3).stats), (6, 9926, 4672, 150));
        assert_eq!(cost(&two_cycle(&two, 0.5, 4).stats), (4, 9764, 4599, 138));
        let cycles = union_of_cycles(&[3, 5, 17, 50, 120, 500, 1000, 2400]);
        let connectivity = cycle_connectivity(&cycles, 0.5, 5);
        assert_eq!(cost(&connectivity.stats), (8, 9844, 4702, 137));
        let forest = generators::random_forest(4096, 8, 7);
        let forest_connectivity = crate::forest_connectivity(&forest, 0.5, 7);
        assert_eq!(cost(&forest_connectivity.stats), (6, 19363, 9128, 236));
    }

    #[test]
    fn communication_per_machine_stays_bounded() {
        // Lemma 4.3: O(n^ε) communication per machine per round, held to the
        // runtime's own per-round budget.  At seed 3, ε = 0.25, a layout
        // that reads two records per hop overruns it (76 against 64).
        for seed in [3, 5] {
            let g = generators::two_cycle_instance(4096, false, seed);
            for epsilon in [0.25, 0.5] {
                let result = two_cycle(&g, epsilon, seed);
                let budget = AmpcConfig::for_graph(4096, g.num_edges(), epsilon).round_budget();
                let max = result.stats.max_machine_communication();
                assert!(
                    max <= budget,
                    "seed {seed}, ε = {epsilon}: {max} > {budget}"
                );
            }
        }
    }

    /// `nbrs` published as a round publishes it, each record marked by
    /// `mark`, and `search` run from each of `from` on one machine.
    fn on_one_machine<T: Send>(
        nbrs: &CycleNeighbors,
        mark: impl FnMut(u32) -> u64,
        from: &[u32],
        search: impl Fn(&mut MachineContext, u32) -> T + Sync,
    ) -> Vec<T> {
        let n = nbrs.len();
        let mut runtime = AmpcRuntime::new(AmpcConfig::for_graph(n, n, 0.5).with_seed(5));
        let all: Vec<u32> = (0..n as u32).collect();
        runtime.scatter(records(nbrs, &all, mark));
        let mut machines = runtime
            .run_round(1, |ctx| from.iter().map(|&v| search(ctx, v)).collect())
            .unwrap();
        machines.pop().unwrap()
    }

    /// `v`'s cycle in memory: `v`, its first neighbour, and on away from the
    /// vertex before, up to the vertex before `v` again.
    fn cycle_from(nbrs: &CycleNeighbors, v: u32) -> Vec<u32> {
        let mut order = vec![v];
        let (mut prev, mut cur) = (v, nbrs[v as usize].0);
        while cur != v {
            order.push(cur);
            let (a, b) = nbrs[cur as usize];
            (prev, cur) = (cur, if a != prev { a } else { b });
        }
        order
    }

    /// Random unions of cycles of 1 to 40 vertices, ids shuffled and each
    /// vertex's two neighbours in random order; a 1-vertex cycle is a
    /// self-loop and a 2-vertex one points twice at its other vertex, the
    /// contracted forms.  Then the Euler tours of random forests, whose
    /// one-edge trees are 2-arc cycles, and the two contracted forms alone.
    fn cycle_instances() -> Vec<CycleNeighbors> {
        let mut instances = Vec::new();
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lengths = Vec::new();
            while lengths.iter().sum::<usize>() < 300 {
                lengths.push(rng.gen_range(1..=40usize));
            }
            let ids = ampc_graph::permutation::random_permutation(lengths.iter().sum(), seed);
            let mut nbrs = vec![(0, 0); ids.len()];
            let mut rest = &ids[..];
            for len in lengths {
                let (cycle, tail) = rest.split_at(len);
                for (i, &v) in cycle.iter().enumerate() {
                    let (a, b) = (cycle[(i + len - 1) % len], cycle[(i + 1) % len]);
                    nbrs[v as usize] = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                }
                rest = tail;
            }
            instances.push(nbrs);
        }
        for (n, trees, seed) in [(300, 16, 1), (300, 150, 2), (500, 3, 3), (64, 32, 4)] {
            let tour = crate::euler::euler_tour(&generators::random_forest(n, trees, seed));
            instances.push(tour.prev.into_iter().zip(tour.next).collect());
        }
        instances.push(vec![(0, 0), (2, 2), (1, 1)]);
        instances
    }

    #[test]
    fn traverse_equals_a_sequential_walk_over_the_cycles() {
        for (i, nbrs) in cycle_instances().iter().enumerate() {
            for probability in [0.05, 0.3, 0.9, 1.0] {
                let mut rng = StdRng::seed_from_u64(i as u64);
                let sampled: Vec<bool> =
                    (0..nbrs.len()).map(|_| rng.gen_bool(probability)).collect();
                let from: Vec<u32> = (0..nbrs.len() as u32)
                    .filter(|&v| sampled[v as usize])
                    .collect();
                let limit = nbrs.len() + 2;
                let mark = |v: u32| u64::from(sampled[v as usize]);
                let found = on_one_machine(nbrs, mark, &from, |ctx, v| {
                    let mut covered = vec![u32::MAX; 3];
                    let t = traverse(ctx, v, limit, &mut covered);
                    assert_eq!(t.covered_end, covered.len());
                    (t.vertex, t.left_end, t.right_end, covered.split_off(3))
                });
                for (v, (vertex, left_end, right_end, covered)) in from.iter().zip(found) {
                    // The walk towards `a` runs along the cycle to its first
                    // sample; the walk towards `b`, backwards from its end to
                    // its last one.  No sample but `v` covers the whole cycle.
                    let rest = &cycle_from(nbrs, *v)[1..];
                    let expected = match rest.iter().position(|&u| sampled[u as usize]) {
                        None => (*v, *v, *v, rest.to_vec()),
                        Some(first) => {
                            let last = rest.iter().rposition(|&u| sampled[u as usize]).unwrap();
                            let before = rest[..first].iter();
                            let covered = before.chain(rest[last + 1..].iter().rev()).copied();
                            (*v, rest[first], rest[last], covered.collect())
                        }
                    };
                    let found = (vertex, left_end, right_end, covered);
                    assert_eq!(
                        found, expected,
                        "instance {i}, p = {probability}, vertex {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn elect_equals_a_sequential_walk_over_the_priorities() {
        for (i, nbrs) in cycle_instances().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let vertices: Vec<u32> = (0..nbrs.len() as u32).collect();
            // Wide priorities, and narrow ones, whose ties a strict `<` passes.
            for range in [u64::MAX, 4] {
                let priority: Vec<u64> =
                    (vertices.iter()).map(|_| rng.gen_range(0..range)).collect();
                let limit = nbrs.len() + 2;
                let parents = on_one_machine(
                    nbrs,
                    |v| priority[v as usize],
                    &vertices,
                    |ctx, v| elect(ctx, v, limit),
                );
                for (&v, parent) in vertices.iter().zip(parents) {
                    // The first vertex along the cycle, towards `v`'s first
                    // neighbour, of smaller priority; `v` itself if none is.
                    let expected = cycle_from(nbrs, v)[1..]
                        .iter()
                        .copied()
                        .find(|&u| priority[u as usize] < priority[v as usize])
                        .unwrap_or(v);
                    assert_eq!(parent, expected, "instance {i}, range {range}, vertex {v}");
                }
            }
        }
    }
}
