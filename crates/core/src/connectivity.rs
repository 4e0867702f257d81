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
//! A vertex's adjacency slots ascend by neighbour id.  That order is part of
//! the cost, not a detail: a bounded BFS keeps the first `d` vertices it
//! meets, and in the min-hooking regime a vertex hooks onto the minimum of
//! that ball — meeting the smallest neighbours first lets more balls agree
//! on their minimum, so the graph contracts in fewer rounds and queries than
//! under an arbitrary slot order, and by the same amount on every run and
//! backend.
//!
//! A phase publishes only each vertex's `d − 1` smallest neighbours, and no
//! count.  The published graph is simple, so every slot the BFS reads from
//! `x`'s list puts a distinct vertex other than `x` in the ball; after
//! `d − 1` of them the ball holds `d` vertices and the BFS stops.  It never
//! reads slot `d − 1` or beyond, so the prefix changes no ball, and a list
//! ends at its first absent slot, so no count is needed to find its end.  A
//! phase writes at most `n·(d − 1)` pairs, not `n + 2m`, and only vertices
//! with an edge search (`LiveSet::adjacency_pairs` states the lemma).
//!
//! A vertex's list is one key: slot `j` of `v`'s list is value `j` of
//! `adjacency_list_key(v)`, in slot order, because a key's values keep their
//! commit order.  The BFS reads each flight of slots with one
//! [`MachineContext::read_indexed_slice`] — one lookup for the flight — and
//! an epoch frame carries each key once per list.  A flight of `k` slots
//! counts `k` queries, as the model's `k` reads of `(x, j)` do.

use crate::common::{adjacency_list_key, round_robin_assign, AlgorithmResult};
use crate::contract::{phase_budgets, LiveSet};
use ampc_dds::{FxHashSet, Key, Value};
use ampc_graph::{canonicalize_labels, Graph, UnionFind};
use ampc_runtime::{AmpcConfig, AmpcRuntime, MachineContext};
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
}

/// The balls one machine of the `IncreaseDegrees` round found, in the order
/// of its starts, in one buffer: ball `i` is `members[ends[i − 1]..ends[i]]`
/// (from 0 for the first), and its first member is its start.  A machine
/// hands back this one buffer, not a list per start.
struct Balls {
    ends: Vec<u32>,
    members: Vec<u32>,
}

impl Balls {
    /// Each ball as a slice of `members`, in start order.
    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let mut from = 0;
        self.ends.iter().map(move |&end| {
            let ball = &self.members[from..end as usize];
            from = end as usize;
            ball
        })
    }
}

/// Algorithm 6 (`IncreaseDegrees`) for a single vertex: a BFS from `v` by
/// adaptive reads that stops after visiting `d` vertices (or the whole
/// component) and at most `query_cap` reads.  Appends the ball to `members`
/// in visiting order, `v` first.
///
/// The frontier expansion reads each vertex's adjacency list in batches of
/// up to [`BFS_READ_BATCH`] slots, each one
/// [`MachineContext::read_indexed_slice`] of `x`'s list key — one lookup per
/// batch.  A phase publishes a list as values `0..k` of that key,
/// `k ≤ d − 1`, and no count: the expansion of `x` ends at the first absent
/// slot, and no batch reaches slot `d − 1`.  Visiting order (and therefore
/// the result) is that of a slot-by-slot loop.  Query accounting is not
/// quite: a batch is counted whole, so when the ball fills or the list ends
/// mid-batch, the rest of that batch is still counted — a bounded over-read
/// (each batch is clamped to the discoveries the ball can still accept, so
/// the waste per BFS is less than one batch per expanded vertex).
fn bounded_bfs(
    ctx: &mut MachineContext,
    scratch: &mut BfsScratch,
    v: u32,
    d: usize,
    query_cap: u64,
    members: &mut Vec<u32>,
) {
    scratch.visited.clear();
    scratch.queue.clear();
    // The ball is full once `members` holds `d` more vertices than it did.
    let full = members.len() + d;
    scratch.visited.insert(v);
    members.push(v);
    scratch.queue.push_back(v);
    let start_queries = ctx.queries_issued();
    let mut entries: [Option<Value>; BFS_READ_BATCH] = [None; BFS_READ_BATCH];
    'outer: while let Some(x) = scratch.queue.pop_front() {
        if members.len() >= full {
            break;
        }
        if ctx.queries_issued() - start_queries >= query_cap {
            break;
        }
        let list = adjacency_list_key(x);
        let mut next_slot = 0usize;
        while next_slot < d - 1 {
            let remaining_budget = query_cap.saturating_sub(ctx.queries_issued() - start_queries);
            if remaining_budget == 0 {
                break 'outer;
            }
            // Clamp the batch to the query cap, to the discoveries the ball
            // can still accept and to the slots a phase publishes, so an
            // early exit wastes at most the tail of one small batch.
            let remaining_ball = full.saturating_sub(members.len()).max(1);
            let batch = BFS_READ_BATCH
                .min(remaining_budget as usize)
                .min(remaining_ball)
                .min(d - 1 - next_slot);
            ctx.read_indexed_slice(list, next_slot, &mut entries[..batch]);
            for entry in &entries[..batch] {
                // The first absent slot ends `x`'s list.
                let Some(entry) = entry else { continue 'outer };
                let u = entry.x as u32;
                if scratch.visited.insert(u) {
                    members.push(u);
                    scratch.queue.push_back(u);
                    if members.len() >= full {
                        break 'outer;
                    }
                }
            }
            next_slot += batch;
        }
    }
}

/// The scatter publishing each live vertex's `keep` smallest neighbours, in
/// ascending order, as the values of its list key: the slot order a bounded
/// BFS reads.  A slot is the neighbour itself, so the kernel ranks and
/// publishes it without reading its edge again.  Also returns the live
/// vertices with a neighbour, the only ones a BFS from which can leave its
/// start.
fn adjacency_prefix_pairs(
    live: &LiveSet,
    edges: &[(u32, u32)],
    keep: usize,
) -> (Vec<(Key, Value)>, Vec<u32>) {
    live.adjacency_pairs(
        edges,
        keep,
        |neighbour, _| neighbour,
        adjacency_list_key,
        |neighbour| Value::scalar(neighbour as u64),
    )
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
    let mut runtime = AmpcRuntime::new(config.derive(n.max(1), n.max(1) + m));
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

        // Round 1 of the phase: publish the current graph, as far as a
        // BFS that stops at `d` vertices can read it.
        let (pairs, searchers) = adjacency_prefix_pairs(&live, &edges, d - 1);
        runtime.scatter(pairs);

        // Round 2: IncreaseDegrees — bounded BFS from every live vertex with
        // an edge; the ball of any other is itself, which hooks it nowhere.
        // A machine appends its balls to one buffer.
        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&searchers, machines);
        let query_cap = (space as u64).max((d * d) as u64);
        let balls: Vec<Balls> = runtime
            .run_round(machines, |ctx| {
                let starts = &assignments[ctx.machine_id()];
                let mut scratch = BfsScratch::default();
                let mut balls = Balls {
                    ends: Vec::with_capacity(starts.len()),
                    members: Vec::new(),
                };
                for &v in starts {
                    bounded_bfs(ctx, &mut scratch, v, d, query_cap, &mut balls.members);
                    balls.ends.push(balls.members.len() as u32);
                }
                balls
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
        for ball in balls.iter().flat_map(Balls::iter) {
            let v = ball[0];
            if ball.len() <= 1 {
                continue; // isolated vertex
            }
            let ball_min = || ball.iter().copied().min();
            let target = if use_leaders {
                if is_leader(v) {
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
                uf.union(live.index(v), live.index(t));
            }
        }

        // Contract the edge list and the edges the BFS discovered, as the
        // paper's step (a) adds them to G: one pair per member of a ball but
        // its start, whose `(v, v)` would be a self-loop.
        let discovered: usize = balls.iter().map(|b| b.members.len() - b.ends.len()).sum();
        edges.reserve_exact(discovered);
        for ball in balls.iter().flat_map(Balls::iter) {
            edges.extend(ball[1..].iter().map(|&u| (ball[0], u)));
        }
        edges = live.contract(&mut uf, &mut labels, edges);
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
    use ampc_graph::{generators, sequential, Edge};

    /// `search` from every vertex of `graph` in turn, on one machine with one
    /// [`BfsScratch`], over `graph` published as `pairs`.
    fn from_every_vertex<T: Send>(
        graph: &Graph,
        pairs: Vec<(Key, Value)>,
        search: impl Fn(&mut MachineContext, &mut BfsScratch, u32) -> T + Sync,
    ) -> Vec<T> {
        let n = graph.num_vertices();
        let config = AmpcConfig::for_graph(n, graph.num_edges(), 0.5).with_seed(5);
        let mut runtime = AmpcRuntime::new(config);
        runtime.scatter(pairs);
        let mut machines = runtime
            .run_round(1, |ctx| {
                let mut scratch = BfsScratch::default();
                (0..n as u32)
                    .map(|v| search(ctx, &mut scratch, v))
                    .collect()
            })
            .unwrap();
        machines.pop().unwrap()
    }

    /// `graph` published with `keep` slots per vertex, as a phase does: one
    /// list key per vertex.
    fn prefix(graph: &Graph, keep: usize) -> Vec<(Key, Value)> {
        let edges: Vec<(u32, u32)> = graph.edges().iter().map(|e| (e.u, e.v)).collect();
        adjacency_prefix_pairs(&LiveSet::all(graph.num_vertices()), &edges, keep).0
    }

    /// `graph`'s whole adjacency lists, each in `Graph` slot order (by
    /// neighbour id) as the values of the vertex's list key, built from the
    /// graph rather than by the kernel under test.
    fn full_lists(graph: &Graph) -> Vec<(Key, Value)> {
        (0..graph.num_vertices() as u32)
            .flat_map(|v| {
                (graph.neighbors(v).iter())
                    .map(move |&u| (adjacency_list_key(v), Value::scalar(u as u64)))
            })
            .collect()
    }

    /// The full-list reference for [`bounded_bfs`]: the multiplicity of
    /// `x`'s list key, then flights of its slots up to it, each clamped to
    /// the query cap and the ball as [`bounded_bfs`] clamps its flights but
    /// not to slot `d − 1`, so it reads past slot `d − 2` whenever the ball
    /// is not yet full.
    fn full_list_bfs(
        ctx: &mut MachineContext,
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
        let mut entries: [Option<Value>; BFS_READ_BATCH] = [None; BFS_READ_BATCH];
        'outer: while let Some(x) = scratch.queue.pop_front() {
            if order.len() >= d {
                break;
            }
            if ctx.queries_issued() - start_queries >= query_cap {
                break;
            }
            let list = adjacency_list_key(x);
            let len = ctx.multiplicity(list);
            let mut next_slot = 0usize;
            while next_slot < len {
                let remaining_budget =
                    query_cap.saturating_sub(ctx.queries_issued() - start_queries);
                if remaining_budget == 0 {
                    break 'outer;
                }
                let remaining_ball = d.saturating_sub(order.len()).max(1);
                let batch = BFS_READ_BATCH
                    .min(remaining_budget as usize)
                    .min(remaining_ball)
                    .min(len - next_slot);
                ctx.read_indexed_slice(list, next_slot, &mut entries[..batch]);
                for entry in entries[..batch].iter().flatten() {
                    let u = entry.x as u32;
                    if scratch.visited.insert(u) {
                        order.push(u);
                        scratch.queue.push_back(u);
                        if order.len() >= d {
                            break 'outer;
                        }
                    }
                }
                next_slot += batch;
            }
        }
        order
    }

    /// [`bounded_bfs`]'s ball from `v`, appended to a buffer that already
    /// holds another ball, as a machine's later starts append theirs.
    fn ball_of(
        ctx: &mut MachineContext,
        scratch: &mut BfsScratch,
        v: u32,
        d: usize,
        query_cap: u64,
    ) -> Vec<u32> {
        let mut members = vec![u32::MAX; 3];
        bounded_bfs(ctx, scratch, v, d, query_cap, &mut members);
        members.split_off(3)
    }

    /// A bounded BFS: the list-key one or its full-list reference.
    type Search = fn(&mut MachineContext, &mut BfsScratch, u32, usize, u64) -> Vec<u32>;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The `d − 1` lemma for the BFS (`LiveSet::adjacency_pairs`): on
        /// random simple graphs, from every vertex and at every budget,
        /// `bounded_bfs` over each vertex's `d − 1` smallest neighbours, as a
        /// phase publishes them (values `0..k` of its list key, no count),
        /// returns the ball `full_list_bfs` returns over the graph's whole
        /// lists, which reads past slot `d − 2` whenever the ball is not yet
        /// full, at the caps that do not bind (d², ∞).  At the caps that do
        /// (1, 3), `bounded_bfs` returns a prefix of its uncapped ball and
        /// debits the lesser of the cap and its uncapped debit.
        #[test]
        fn bounded_bfs_on_the_first_prefix_reads_what_full_lists_read(
            n in 2u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
        ) {
            let edges: Vec<Edge> = raw.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
            let graph = Graph::from_edges(n as usize, &edges);
            let budgets = 2..=10usize;
            let caps = |d: usize| [1, 3, (d * d) as u64, u64::MAX];
            let full = from_every_vertex(&graph, full_lists(&graph), |ctx, scratch, v| {
                (budgets.clone())
                    .map(|d| caps(d)[2..].iter().map(|&cap| full_list_bfs(ctx, scratch, v, d, cap)).collect())
                    .collect::<Vec<Vec<_>>>()
            });
            for (i, d) in budgets.clone().enumerate() {
                let searched = from_every_vertex(&graph, prefix(&graph, d - 1), |ctx, scratch, v| {
                    caps(d).map(|cap| {
                        let before = ctx.queries_issued();
                        let ball = ball_of(ctx, scratch, v, d, cap);
                        (ball, ctx.queries_issued() - before)
                    })
                });
                for (v, (searched, full)) in searched.iter().zip(&full).enumerate() {
                    let (uncapped, uncapped_debit) = &searched[3];
                    for ((ball, _), full_ball) in searched[2..].iter().zip(&full[i]) {
                        proptest::prop_assert_eq!(ball, full_ball, "d {}, from {}", d, v);
                    }
                    for (cap, (ball, debit)) in caps(d).iter().zip(&searched[..2]) {
                        let at = format!("cap {cap}, d {d}, from {v}");
                        proptest::prop_assert!(uncapped.starts_with(ball), "{}", at);
                        proptest::prop_assert_eq!(*debit, (*cap).min(*uncapped_debit), "{}", at);
                    }
                }
            }
        }
    }

    /// The bound is tight: from the centre of a star every vertex of the
    /// ball but the centre is one of its own neighbours, so with `d − 1` of
    /// them published under its list key the ball is the one the full-list
    /// search finds, and with `d − 2` it stops one vertex short.
    #[test]
    fn a_star_needs_d_minus_one_first_neighbours() {
        let leaves = 8u32;
        let star: Vec<Edge> = (1..=leaves).map(|leaf| Edge::new(0, leaf)).collect();
        let graph = Graph::from_edges(leaves as usize + 1, &star);
        let d = 4;
        let from_centre = |pairs, search: Search| {
            from_every_vertex(&graph, pairs, |ctx, scratch, v| {
                search(ctx, scratch, v, d, u64::MAX)
            })
            .swap_remove(0)
        };
        let full = from_centre(full_lists(&graph), full_list_bfs);
        assert_eq!(full, [0, 1, 2, 3]);
        assert_eq!(from_centre(prefix(&graph, d - 1), ball_of), full);
        assert_eq!(from_centre(prefix(&graph, d - 2), ball_of), [0, 1, 2]);
    }

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
