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
//! [`MachineContext::read_indexed_slice`] — one lookup for the flight, where
//! a key per slot paid one per slot — and an epoch frame carries each key
//! once per list.  A flight of `k` slots still counts `k` queries, so
//! queries, writes and balls are those of a key per slot.

use crate::common::{adjacency_list_key, round_robin_assign, AlgorithmResult};
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
}

/// Algorithm 6 (`IncreaseDegrees`) for a single vertex: a BFS from `v` by
/// adaptive reads that stops after visiting `d` vertices (or the whole
/// component) and at most `query_cap` reads.
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
/// (each batch is clamped to the `d - order.len()` discoveries still
/// acceptable, so the waste per BFS is less than one batch per expanded
/// vertex).
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
    let mut entries: [Option<Value>; BFS_READ_BATCH] = [None; BFS_READ_BATCH];
    'outer: while let Some(x) = scratch.queue.pop_front() {
        if order.len() >= d {
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
            let remaining_ball = d.saturating_sub(order.len()).max(1);
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
        |v, _| adjacency_list_key(v),
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

        // Round 1 of the phase: publish the current graph, as far as a
        // BFS that stops at `d` vertices can read it.
        let (pairs, searchers) = adjacency_prefix_pairs(&live, &edges, d - 1);
        runtime.scatter(pairs);

        // Round 2: IncreaseDegrees — bounded BFS from every live vertex with
        // an edge; the ball of any other is itself, which hooks it nowhere.
        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&searchers, machines);
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
    use crate::common::{adjacency_key, adjacency_pairs, degree_key, per_slot_keys};
    use ampc_dds::Snapshot;
    use ampc_graph::{generators, sequential, Edge};

    /// `search` from every vertex of `graph` in turn, on one machine with one
    /// [`BfsScratch`], over `graph` published as `pairs`.
    fn from_every_vertex<T: Send>(
        graph: &Graph,
        pairs: Vec<(Key, Value)>,
        search: impl Fn(&mut MachineContext<Snapshot>, &mut BfsScratch, u32) -> T + Sync,
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

    /// [`prefix`] with one key per slot, as a phase published it before a
    /// vertex's list was one key.
    fn per_slot_prefix(graph: &Graph, keep: usize) -> Vec<(Key, Value)> {
        per_slot_keys(prefix(graph, keep))
    }

    /// [`per_slot_prefix`] with each vertex's slot count under
    /// [`degree_key`], as a phase published it before the searches stopped
    /// reading it.
    fn prefix_with_counts(graph: &Graph, keep: usize) -> Vec<(Key, Value)> {
        let mut pairs = per_slot_prefix(graph, keep);
        pairs.extend((0..graph.num_vertices() as u32).map(|v| {
            let count = graph.degree(v).min(keep);
            (degree_key(v), Value::scalar(count as u64))
        }));
        pairs
    }

    /// [`bounded_bfs`] as it was while a phase published a key per slot,
    /// kept as its reference: each flight is a [`MachineContext::read_many_slice`]
    /// of slot keys, clamped as [`bounded_bfs`] clamps its flights.
    fn per_slot_bfs<V: SnapshotView>(
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
        let mut keys: [Key; BFS_READ_BATCH] = [adjacency_key(0, 0); BFS_READ_BATCH];
        let mut entries: [Option<Value>; BFS_READ_BATCH] = [None; BFS_READ_BATCH];
        'outer: while let Some(x) = scratch.queue.pop_front() {
            if order.len() >= d {
                break;
            }
            if ctx.queries_issued() - start_queries >= query_cap {
                break;
            }
            let mut next_slot = 0usize;
            while next_slot < d - 1 {
                let remaining_budget =
                    query_cap.saturating_sub(ctx.queries_issued() - start_queries);
                if remaining_budget == 0 {
                    break 'outer;
                }
                let remaining_ball = d.saturating_sub(order.len()).max(1);
                let batch = BFS_READ_BATCH
                    .min(remaining_budget as usize)
                    .min(remaining_ball)
                    .min(d - 1 - next_slot);
                for (j, key) in keys[..batch].iter_mut().enumerate() {
                    *key = adjacency_key(x, next_slot + j);
                }
                ctx.read_many_slice(&keys[..batch], &mut entries[..batch]);
                for entry in &entries[..batch] {
                    let Some(entry) = entry else { continue 'outer };
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

    /// [`bounded_bfs`] as it was while a phase published counts, kept as its
    /// reference: one read of `x`'s count under [`degree_key`], then flights
    /// of its slots up to the count.
    fn count_first_bfs<V: SnapshotView>(
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
        let mut keys: [Key; BFS_READ_BATCH] = [degree_key(0); BFS_READ_BATCH];
        let mut entries: [Option<Value>; BFS_READ_BATCH] = [None; BFS_READ_BATCH];
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
                let remaining_budget =
                    query_cap.saturating_sub(ctx.queries_issued() - start_queries);
                if remaining_budget == 0 {
                    break 'outer;
                }
                let remaining_ball = d.saturating_sub(order.len()).max(1);
                let batch_cap = BFS_READ_BATCH
                    .min(remaining_budget as usize)
                    .min(remaining_ball);
                let batch_end = deg.min(next_slot + batch_cap);
                let batch = batch_end - next_slot;
                for (j, key) in keys[..batch].iter_mut().enumerate() {
                    *key = adjacency_key(x, next_slot + j);
                }
                ctx.read_many_slice(&keys[..batch], &mut entries[..batch]);
                for entry in &entries[..batch] {
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

    /// A bounded BFS: the list-key one or a reference.
    type Search<V> = fn(&mut MachineContext<V>, &mut BfsScratch, u32, usize, u64) -> Vec<u32>;

    /// The ball `search` returns and the queries it issued.
    fn ball_and_queries<V: SnapshotView>(
        search: Search<V>,
        ctx: &mut MachineContext<V>,
        scratch: &mut BfsScratch,
        v: u32,
        d: usize,
        query_cap: u64,
    ) -> (Vec<u32>, u64) {
        let before = ctx.queries_issued();
        let ball = search(ctx, scratch, v, d, query_cap);
        (ball, ctx.queries_issued() - before)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The `d − 1` lemma for the BFS (`LiveSet::adjacency_pairs`): on
        /// random simple graphs, from every vertex and at every budget, a
        /// search over each vertex's `d − 1` smallest neighbours returns the
        /// ball the count-first search returns over the graph's full
        /// adjacency lists (`common::adjacency_pairs`, every list whole and
        /// its count, in `Graph` slot order, a key per slot), which reads
        /// past slot `d − 2` whenever the ball is not yet full.  At caps {1,
        /// 3, d², ∞} the count-first search over the prefix and its counts
        /// returns that ball with exactly as many queries; at the caps that
        /// do not bind (d², ∞) so does `bounded_bfs` over the count-free
        /// prefix as a phase publishes it, values `0..k` of each vertex's
        /// list key, which reads no count, so only its ball is compared.
        #[test]
        fn bounded_bfs_on_the_first_prefix_reads_what_full_lists_read(
            n in 2u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
        ) {
            let edges: Vec<Edge> = raw.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
            let graph = Graph::from_edges(n as usize, &edges);
            let budgets = 2..=10usize;
            let caps = |d: usize| [1, 3, (d * d) as u64, u64::MAX];
            let full = from_every_vertex(&graph, adjacency_pairs(&graph), |ctx, scratch, v| {
                (budgets.clone())
                    .flat_map(|d| {
                        caps(d).map(|cap| ball_and_queries(count_first_bfs, ctx, scratch, v, d, cap))
                    })
                    .collect::<Vec<_>>()
            });
            for (i, d) in budgets.clone().enumerate() {
                let counted = from_every_vertex(&graph, prefix_with_counts(&graph, d - 1), |ctx, scratch, v| {
                    caps(d).map(|cap| ball_and_queries(count_first_bfs, ctx, scratch, v, d, cap))
                });
                let count_free = from_every_vertex(&graph, prefix(&graph, d - 1), |ctx, scratch, v| {
                    caps(d)[2..].iter().map(|&cap| bounded_bfs(ctx, scratch, v, d, cap)).collect::<Vec<_>>()
                });
                for (v, full) in full.iter().enumerate() {
                    let full = &full[4 * i..4 * i + 4];
                    proptest::prop_assert_eq!(&counted[v][..], full, "d {}, from {}", d, v);
                    for (ball, (full_ball, _)) in count_free[v].iter().zip(&full[2..]) {
                        proptest::prop_assert_eq!(ball, full_ball, "count-free, d {}, from {}", d, v);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The count-free read (`LiveSet::adjacency_pairs`): on random
        /// simple graphs, from every vertex, at every budget and at caps
        /// that do not bind (a search reads under `d²`), `bounded_bfs` over
        /// a phase's count-free prefix (its list keys) returns the ball the
        /// count-first search returns over the same prefix, a key per slot,
        /// with its counts.
        #[test]
        fn bounded_bfs_reads_the_prefix_without_a_count(
            n in 2u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
        ) {
            let edges: Vec<Edge> = raw.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
            let graph = Graph::from_edges(n as usize, &edges);
            for d in 2..=10usize {
                let caps = [(d * d) as u64, u64::MAX];
                let counted = from_every_vertex(&graph, prefix_with_counts(&graph, d - 1), |ctx, scratch, v| {
                    caps.map(|cap| count_first_bfs(ctx, scratch, v, d, cap))
                });
                let count_free = from_every_vertex(&graph, prefix(&graph, d - 1), |ctx, scratch, v| {
                    caps.map(|cap| bounded_bfs(ctx, scratch, v, d, cap))
                });
                for (v, (count_free, counted)) in count_free.iter().zip(&counted).enumerate() {
                    proptest::prop_assert_eq!(count_free, counted, "d {}, from {}", d, v);
                }
            }
        }

        /// One key per list changes nothing but the layout: on random simple
        /// graphs, from every vertex, at every budget and at every cap
        /// (1, 3, d², ∞), `bounded_bfs` over a phase's list keys returns the
        /// ball, in the order, and issues exactly the queries that the
        /// per-slot search issues over the same slots, one key each.
        #[test]
        fn bounded_bfs_on_one_list_key_reads_what_per_slot_keys_read(
            n in 2u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
        ) {
            let edges: Vec<Edge> = raw.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
            let graph = Graph::from_edges(n as usize, &edges);
            for d in 2..=10usize {
                let caps = [1, 3, (d * d) as u64, u64::MAX];
                let per_slot = from_every_vertex(&graph, per_slot_prefix(&graph, d - 1), |ctx, scratch, v| {
                    caps.map(|cap| ball_and_queries(per_slot_bfs, ctx, scratch, v, d, cap))
                });
                let listed = from_every_vertex(&graph, prefix(&graph, d - 1), |ctx, scratch, v| {
                    caps.map(|cap| ball_and_queries(bounded_bfs, ctx, scratch, v, d, cap))
                });
                for (v, (listed, per_slot)) in listed.iter().zip(&per_slot).enumerate() {
                    proptest::prop_assert_eq!(listed, per_slot, "d {}, from {}", d, v);
                }
            }
        }
    }

    /// The bound is tight: from the centre of a star every vertex of the
    /// ball but the centre is one of its own neighbours, so with `d − 1` of
    /// them published under its list key the ball is the one the
    /// count-first search finds over full lists, and with `d − 2` it stops
    /// one vertex short.
    #[test]
    fn a_star_needs_d_minus_one_first_neighbours() {
        let leaves = 8u32;
        let star: Vec<Edge> = (1..=leaves).map(|leaf| Edge::new(0, leaf)).collect();
        let graph = Graph::from_edges(leaves as usize + 1, &star);
        let d = 4;
        let from_centre = |pairs, search: Search<Snapshot>| {
            from_every_vertex(&graph, pairs, |ctx, scratch, v| {
                search(ctx, scratch, v, d, u64::MAX)
            })
            .swap_remove(0)
        };
        let full = from_centre(adjacency_pairs(&graph), count_first_bfs);
        assert_eq!(full, [0, 1, 2, 3]);
        assert_eq!(from_centre(prefix(&graph, d - 1), bounded_bfs), full);
        assert_eq!(from_centre(prefix(&graph, d - 2), bounded_bfs), [0, 1, 2]);
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
