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
//! One practical deviation from the paper: a cycle that receives
//! no sample in an iteration is passed through to the next iteration
//! unchanged instead of being lost.  The paper's analysis makes this a
//! w.h.p. non-event for the Θ(n)-length cycles of the 2-Cycle problem; the
//! pass-through keeps the algorithm *always* correct, also for the short
//! cycles that arise when forest connectivity feeds Euler tours in.

use crate::common::AlgorithmResult;
use ampc_dds::{FxHashMap, FxHashSet, Key, KeyTag, Value};
use ampc_graph::{canonicalize_labels, Graph};
use ampc_runtime::{
    with_dds_backend, AmpcConfig, AmpcRuntime, DdsBackend, MachineContext, SnapshotView,
};
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
#[derive(Clone, Debug, PartialEq, Eq)]
struct Traversal {
    vertex: u32,
    left_end: u32,
    right_end: u32,
    covered: Vec<u32>,
}

/// Phase of one lockstep traversal: which key the walk needs next.
enum WalkPhase {
    /// Read `cycle_key(v)` to learn the two directions.
    NeedAdjacency,
    /// Read `sampled_key(cur)`.
    NeedSampled,
    /// Read `cycle_key(cur)` to take the next hop.
    NeedStep,
    /// Traversal finished.
    Done,
}

/// Lockstep state of one sampled vertex's bidirectional traversal.
///
/// The walk logic is *identical* to the old sequential single-read version
/// (same reads, same order per walk, same termination cases); only the
/// scheduling changed: every active traversal of a machine contributes its
/// one pending key to a shared `read_many` flight per tick, so a machine
/// covering `k` samples pipelines `k` independent reads per hop instead of
/// issuing them one at a time.
struct WalkTask {
    v: u32,
    phase: WalkPhase,
    /// 0 = walking the `a` direction, 1 = walking the `b` direction.
    direction: u8,
    /// First neighbour of the second direction (stored at init).
    second: u32,
    prev: u32,
    cur: u32,
    /// Remaining loop iterations of the current direction's walk.
    steps_left: usize,
    limit: usize,
    covered: Vec<u32>,
    left_end: u32,
}

impl WalkTask {
    fn new(v: u32, limit: usize) -> Self {
        WalkTask {
            v,
            phase: WalkPhase::NeedAdjacency,
            direction: 0,
            second: v,
            prev: v,
            cur: v,
            steps_left: 0,
            limit,
            covered: Vec::new(),
            left_end: v,
        }
    }

    /// Start walking from `first`, then run the read-free checks of the loop
    /// head (wrap detection, iteration limit) until the walk needs a read or
    /// the whole traversal completes.  Returns the finished traversal, if
    /// any.
    fn begin_direction(&mut self, first: u32) -> Option<Traversal> {
        self.prev = self.v;
        self.cur = first;
        self.steps_left = self.limit;
        self.enter_iteration()
    }

    fn enter_iteration(&mut self) -> Option<Traversal> {
        if self.cur == self.v || self.steps_left == 0 {
            // Wrapped (or limit hit, treated as a wrap — cannot happen for
            // well-formed cycles).
            return self.end_direction(self.v);
        }
        self.steps_left -= 1;
        self.phase = WalkPhase::NeedSampled;
        None
    }

    /// One direction ended at `end` (a sampled vertex, or `v` on a wrap).
    fn end_direction(&mut self, end: u32) -> Option<Traversal> {
        if self.direction == 0 {
            self.left_end = end;
            if end == self.v {
                // The walk wrapped the whole cycle; no need to walk the
                // other direction.
                self.phase = WalkPhase::Done;
                return Some(Traversal {
                    vertex: self.v,
                    left_end: self.v,
                    right_end: self.v,
                    covered: std::mem::take(&mut self.covered),
                });
            }
            self.direction = 1;
            let second = self.second;
            self.begin_direction(second)
        } else {
            self.phase = WalkPhase::Done;
            Some(Traversal {
                vertex: self.v,
                left_end: self.left_end,
                right_end: end,
                covered: std::mem::take(&mut self.covered),
            })
        }
    }

    /// Feed the reply for the key this task asked for; returns the finished
    /// traversal once the second direction ends.
    fn apply(&mut self, reply: Option<Value>) -> Option<Traversal> {
        match self.phase {
            WalkPhase::NeedAdjacency => {
                let nbrs = reply.expect("sampled vertex missing adjacency");
                let (a, b) = (nbrs.x as u32, nbrs.y as u32);
                self.second = b;
                self.begin_direction(a)
            }
            WalkPhase::NeedSampled => {
                if reply.is_some() {
                    return self.end_direction(self.cur);
                }
                self.covered.push(self.cur);
                self.phase = WalkPhase::NeedStep;
                None
            }
            WalkPhase::NeedStep => {
                let nbrs = reply.expect("cycle adjacency missing from DDS");
                let (a, b) = (nbrs.x as u32, nbrs.y as u32);
                let next = if a != self.prev {
                    a
                } else if b != self.prev {
                    b
                } else {
                    // Both neighbours equal `prev`: a two-vertex cycle; wrap.
                    return self.end_direction(self.v);
                };
                self.prev = self.cur;
                self.cur = next;
                self.enter_iteration()
            }
            WalkPhase::Done => unreachable!("finished task polled"),
        }
    }

    /// The key this task needs next, if it is still running.
    fn pending_key(&self) -> Option<Key> {
        match self.phase {
            WalkPhase::NeedAdjacency => Some(cycle_key(self.v)),
            WalkPhase::NeedSampled => Some(sampled_key(self.cur)),
            WalkPhase::NeedStep => Some(cycle_key(self.cur)),
            WalkPhase::Done => None,
        }
    }
}

/// Run the bidirectional traversals of all of a machine's sampled vertices
/// in lockstep: one `read_many` flight per tick carries every active walk's
/// pending key (ROADMAP read-path item).
///
/// Each traversal issues exactly the reads (in exactly the per-walk order)
/// the sequential single-read version issued, so per-machine query totals —
/// and therefore the `O(S)` budget debits — are identical; only the
/// interleaving across a machine's walks changes.  Results come back in
/// `vertices` order.  Asserted against the single-read reference by
/// `lockstep_traversals_debit_budget_like_single_reads`.
fn traverse_samples<V: SnapshotView>(
    ctx: &mut MachineContext<V>,
    vertices: &[u32],
    limit: usize,
) -> Vec<Traversal> {
    let mut tasks: Vec<WalkTask> = vertices.iter().map(|&v| WalkTask::new(v, limit)).collect();
    let mut results: Vec<Option<Traversal>> = (0..tasks.len()).map(|_| None).collect();
    let mut keys: Vec<Key> = Vec::with_capacity(tasks.len());
    let mut owners: Vec<usize> = Vec::with_capacity(tasks.len());
    let mut replies: Vec<Option<Value>> = Vec::new();
    loop {
        keys.clear();
        owners.clear();
        for (i, task) in tasks.iter().enumerate() {
            if let Some(key) = task.pending_key() {
                keys.push(key);
                owners.push(i);
            }
        }
        if keys.is_empty() {
            break;
        }
        ctx.read_many_into(&keys, &mut replies);
        for (reply, &i) in replies.iter().zip(owners.iter()) {
            if let Some(traversal) = tasks[i].apply(*reply) {
                results[i] = Some(traversal);
            }
        }
    }
    results
        .into_iter()
        .map(|t| t.expect("every traversal terminates"))
        .collect()
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

        let sampled_list: Vec<u32> = sampled.iter().copied().collect();
        let machines = runtime.config().num_machines();
        let assignments = crate::common::round_robin_assign(&sampled_list, machines);
        let limit = alive.len() + 2;
        let traversals: Vec<Vec<Traversal>> = runtime
            .run_round(machines, |ctx| {
                traverse_samples(ctx, &assignments[ctx.machine_id()], limit)
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

/// Phase of one lockstep minimum-priority election walk.
enum ElectPhase {
    /// Read `priority_key(v)` and `cycle_key(v)` (one two-key flight; the
    /// single-read path issued the same two queries back to back).
    NeedInit,
    /// Read `priority_key(cur)`.
    NeedPriority,
    /// Read `cycle_key(cur)`.
    NeedStep,
    /// Walk finished; `stop` holds the result.
    Done,
}

/// Lockstep state of one vertex's election walk (Algorithm 10, step 3).
struct ElectTask {
    v: u32,
    phase: ElectPhase,
    my_priority: u64,
    prev: u32,
    cur: u32,
    steps_left: usize,
    stop: u32,
}

impl ElectTask {
    fn new(v: u32, limit: usize) -> Self {
        ElectTask {
            v,
            phase: ElectPhase::NeedInit,
            my_priority: 0,
            prev: v,
            cur: v,
            steps_left: limit,
            stop: v,
        }
    }

    /// Loop-head checks that need no read (wrap, iteration limit).
    fn enter_iteration(&mut self) {
        if self.cur == self.v || self.steps_left == 0 {
            self.phase = ElectPhase::Done; // wrapped: v is its cycle's minimum
            return;
        }
        self.steps_left -= 1;
        self.phase = ElectPhase::NeedPriority;
    }

    /// Keys this task needs next (at most 2, only at init).
    fn pending_keys(&self, keys: &mut Vec<Key>, owners: &mut Vec<usize>, index: usize) {
        match self.phase {
            ElectPhase::NeedInit => {
                keys.push(priority_key(self.v));
                keys.push(cycle_key(self.v));
                owners.push(index);
                owners.push(index);
            }
            ElectPhase::NeedPriority => {
                keys.push(priority_key(self.cur));
                owners.push(index);
            }
            ElectPhase::NeedStep => {
                keys.push(cycle_key(self.cur));
                owners.push(index);
            }
            ElectPhase::Done => {}
        }
    }

    fn apply(&mut self, reply: Option<Value>) {
        match self.phase {
            ElectPhase::NeedInit => {
                // First reply of the init pair: the priority.  The adjacency
                // reply follows in the same flight and lands in NeedStep-like
                // handling below via `apply_init_adjacency`.
                self.my_priority = reply.expect("priority missing").x;
                // Stay in NeedInit until the adjacency reply arrives.
            }
            ElectPhase::NeedPriority => {
                let p = reply.expect("priority missing").x;
                if p < self.my_priority {
                    self.stop = self.cur;
                    self.phase = ElectPhase::Done;
                    return;
                }
                self.phase = ElectPhase::NeedStep;
            }
            ElectPhase::NeedStep => {
                let nbrs = reply.expect("cycle adjacency missing");
                let (a, b) = (nbrs.x as u32, nbrs.y as u32);
                let next = if a != self.prev { a } else { b };
                if next == self.cur {
                    self.phase = ElectPhase::Done;
                    return;
                }
                self.prev = self.cur;
                self.cur = next;
                self.enter_iteration();
            }
            ElectPhase::Done => unreachable!("finished task polled"),
        }
    }

    /// Second reply of the init pair: the walk's starting adjacency.
    fn apply_init_adjacency(&mut self, reply: Option<Value>) {
        let nbrs = reply.expect("cycle adjacency missing");
        self.prev = self.v;
        self.cur = nbrs.x as u32;
        self.enter_iteration();
    }
}

/// Run every assigned vertex's election walk in lockstep, one batched
/// flight per tick (same read sequence per walk as the single-read path, so
/// budgets debit identically).  Returns `(v, representative)` pairs in
/// `vertices` order.
fn elect_minima<V: SnapshotView>(
    ctx: &mut MachineContext<V>,
    vertices: &[u32],
    limit: usize,
) -> Vec<(u32, u32)> {
    let mut tasks: Vec<ElectTask> = vertices.iter().map(|&v| ElectTask::new(v, limit)).collect();
    let mut keys: Vec<Key> = Vec::with_capacity(2 * tasks.len());
    let mut owners: Vec<usize> = Vec::with_capacity(2 * tasks.len());
    let mut replies: Vec<Option<Value>> = Vec::new();
    loop {
        keys.clear();
        owners.clear();
        for (i, task) in tasks.iter().enumerate() {
            task.pending_keys(&mut keys, &mut owners, i);
        }
        if keys.is_empty() {
            break;
        }
        ctx.read_many_into(&keys, &mut replies);
        let mut slot = 0usize;
        while slot < owners.len() {
            let i = owners[slot];
            if matches!(tasks[i].phase, ElectPhase::NeedInit) {
                // Init pairs occupy two adjacent slots of the flight.
                tasks[i].apply(replies[slot]);
                tasks[i].apply_init_adjacency(replies[slot + 1]);
                slot += 2;
            } else {
                tasks[i].apply(replies[slot]);
                slot += 1;
            }
        }
    }
    tasks.into_iter().map(|t| (t.v, t.stop)).collect()
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
                elect_minima(ctx, &assignments[ctx.machine_id()], limit)
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

    #[test]
    fn cycle_connectivity_matches_sequential_on_unions_of_cycles() {
        // Build a graph that is a union of cycles of different sizes.
        let mut edges = Vec::new();
        let mut offset = 0u32;
        for len in [3usize, 5, 17, 50, 120] {
            for i in 0..len as u32 {
                edges.push(ampc_graph::Edge::new(
                    offset + i,
                    offset + (i + 1) % len as u32,
                ));
            }
            offset += len as u32;
        }
        let g = Graph::from_edges(offset as usize, &edges);
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

    /// The pre-migration sequential walk, kept as the budget reference.
    fn reference_walk<V: SnapshotView>(
        ctx: &mut MachineContext<V>,
        start: u32,
        first: u32,
        limit: usize,
    ) -> (u32, Vec<u32>) {
        let mut covered = Vec::new();
        let mut prev = start;
        let mut cur = first;
        for _ in 0..limit {
            if cur == start {
                return (start, covered);
            }
            if ctx.read(sampled_key(cur)).is_some() {
                return (cur, covered);
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
                return (start, covered);
            };
            prev = cur;
            cur = next;
        }
        (start, covered)
    }

    fn reference_traversals<V: SnapshotView>(
        ctx: &mut MachineContext<V>,
        vertices: &[u32],
        limit: usize,
    ) -> Vec<Traversal> {
        let mut results = Vec::new();
        for &v in vertices {
            let nbrs = ctx
                .read(cycle_key(v))
                .expect("sampled vertex missing adjacency");
            let (a, b) = (nbrs.x as u32, nbrs.y as u32);
            let (left_end, mut covered) = reference_walk(ctx, v, a, limit);
            if left_end == v {
                results.push(Traversal {
                    vertex: v,
                    left_end: v,
                    right_end: v,
                    covered,
                });
                continue;
            }
            let (right_end, covered_right) = reference_walk(ctx, v, b, limit);
            covered.extend(covered_right);
            results.push(Traversal {
                vertex: v,
                left_end,
                right_end,
                covered,
            });
        }
        results
    }

    #[test]
    fn lockstep_traversals_debit_budget_like_single_reads() {
        // ROADMAP read-path item: the lockstep batched walks must produce
        // the same traversals AND the same query debits as the sequential
        // single-read walks, across cycle shapes (long cycle, short cycles,
        // two-vertex cycle, self-loop).
        let mut nbrs = CycleNeighbors::default();
        for len in [40usize, 3, 2, 1, 17] {
            let offset = nbrs.len() as u32;
            for i in 0..len as u32 {
                let prev = offset + (i + len as u32 - 1) % len as u32;
                let next = offset + (i + 1) % len as u32;
                nbrs.insert(offset + i, (prev, next));
            }
        }
        let n = nbrs.len();
        let sampled: Vec<u32> = vec![0, 5, 20, 40, 43, 45, 46];
        let limit = n + 2;

        let run = |lockstep: bool| {
            let config = AmpcConfig::for_graph(n, n, 0.5).with_seed(3);
            let mut runtime = AmpcRuntime::new(config);
            let mut pairs: Vec<(Key, Value)> = Vec::new();
            for (&v, &(a, b)) in &nbrs {
                pairs.push((cycle_key(v), Value::pair(a as u64, b as u64)));
            }
            for &v in &sampled {
                pairs.push((sampled_key(v), Value::scalar(1)));
            }
            runtime.scatter(pairs);
            let out = runtime
                .run_round(1, |ctx| {
                    let traversals = if lockstep {
                        traverse_samples(ctx, &sampled, limit)
                    } else {
                        reference_traversals(ctx, &sampled, limit)
                    };
                    (traversals, ctx.queries_issued())
                })
                .unwrap();
            out.into_iter().next().unwrap()
        };
        let (lockstep, lockstep_queries) = run(true);
        let (reference, reference_queries) = run(false);
        assert_eq!(lockstep, reference);
        assert_eq!(lockstep_queries, reference_queries);
    }

    #[test]
    fn lockstep_election_debits_budget_like_single_reads() {
        // Election walks: same (v, representative) pairs and same query
        // debits as the sequential priority-chasing loop.
        let mut nbrs = CycleNeighbors::default();
        for len in [12usize, 5, 2, 1] {
            let offset = nbrs.len() as u32;
            for i in 0..len as u32 {
                let prev = offset + (i + len as u32 - 1) % len as u32;
                let next = offset + (i + 1) % len as u32;
                nbrs.insert(offset + i, (prev, next));
            }
        }
        let n = nbrs.len();
        let alive: Vec<u32> = {
            let mut v: Vec<u32> = nbrs.keys().copied().collect();
            v.sort_unstable();
            v
        };
        let mut rng = StdRng::seed_from_u64(0x7e57);
        let priority: FxHashMap<u32, u64> = alive.iter().map(|&v| (v, rng.gen())).collect();
        let limit = n + 2;

        let run = |lockstep: bool| {
            let config = AmpcConfig::for_graph(n, n, 0.5).with_seed(3);
            let mut runtime = AmpcRuntime::new(config);
            let mut pairs: Vec<(Key, Value)> = Vec::new();
            for (&v, &(a, b)) in &nbrs {
                pairs.push((cycle_key(v), Value::pair(a as u64, b as u64)));
                pairs.push((priority_key(v), Value::scalar(priority[&v])));
            }
            runtime.scatter(pairs);
            let out = runtime
                .run_round(1, |ctx| {
                    let elected = if lockstep {
                        elect_minima(ctx, &alive, limit)
                    } else {
                        // The pre-migration sequential election loop.
                        let mut out = Vec::new();
                        for &v in &alive {
                            let my_priority =
                                ctx.read(priority_key(v)).expect("priority missing").x;
                            let nbrs = ctx.read(cycle_key(v)).expect("adjacency missing");
                            let mut prev = v;
                            let mut cur = nbrs.x as u32;
                            let mut stop = v;
                            for _ in 0..limit {
                                if cur == v {
                                    break;
                                }
                                let p = ctx.read(priority_key(cur)).expect("priority missing").x;
                                if p < my_priority {
                                    stop = cur;
                                    break;
                                }
                                let next_nbrs =
                                    ctx.read(cycle_key(cur)).expect("adjacency missing");
                                let (a, b) = (next_nbrs.x as u32, next_nbrs.y as u32);
                                let next = if a != prev { a } else { b };
                                if next == cur {
                                    break;
                                }
                                prev = cur;
                                cur = next;
                            }
                            out.push((v, stop));
                        }
                        out
                    };
                    (elected, ctx.queries_issued())
                })
                .unwrap();
            out.into_iter().next().unwrap()
        };
        let (lockstep, lockstep_queries) = run(true);
        let (reference, reference_queries) = run(false);
        assert_eq!(lockstep, reference);
        assert_eq!(lockstep_queries, reference_queries);
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
