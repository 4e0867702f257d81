//! Section 7: minimum spanning forest in `O(log log_{m/n} n)` AMPC rounds.
//!
//! The structure mirrors the connectivity algorithm (Section 6): in every
//! phase each vertex runs a *local, truncated Prim's algorithm*
//! (`MSFIncreaseDegree`, Algorithm 8) through adaptive reads — growing a
//! local tree until it spans `d` vertices — and every edge that local Prim
//! selects is a genuine MSF edge by the cut property (weights are distinct).
//! The committed edges are then contracted, the per-vertex budget grows to
//! `d^{1.4}`, and the phase repeats until no edges remain.
//!
//! One deviation from the paper: contraction is performed along the MSF
//! edges committed in the phase (their connected components become the new
//! super-vertices) rather than by a separate leader-sampling pass.  This is
//! always a contraction along MSF edges — exactly what the paper's
//! leader-based contraction produces — and shrinks at least as fast.  The
//! driver-side steps run on the dense arrays of `contract.rs`: a phase
//! relabels the edges onto the next live set, groups them with two stable
//! counting sorts, and folds every parallel bundle to its `(weight,
//! original)`-least edge (cycle property).
//!
//! A phase publishes only each vertex's `d − 1` lightest edges, ranked by
//! `(weight, neighbour, original)` — the candidate heap's order among one
//! vertex's entries.  The published graph is simple, so every entry Prim
//! pops from `x`'s list puts a distinct vertex other than `x` in the tree,
//! and an entry past the `d − 1` lightest reaches the heap top only after
//! all of them: by then the tree holds `d` vertices and Prim has stopped.
//! So the prefix changes no selected edge, ties included.  A phase
//! publishes no count: a list is the dense prefix `0..k`, `k ≤ d − 1`, so
//! Prim's expansion of `x` ends at its first absent slot or at slot `d − 1`,
//! and only vertices with an edge run Prim at all (`LiveSet::adjacency_pairs`
//! states the lemma).
//!
//! A vertex's list is one key: slot `j` of `v`'s list is value `j` of
//! `weighted_adjacency_list_key(v)`, in rank order, because a key's values
//! keep their commit order.  Prim reads each flight of slots with one
//! [`MachineContext::read_indexed_slice`] — one lookup for the flight — and
//! an epoch frame carries each key once per list.  A flight of `k` slots
//! counts `k` queries, as the model's `k` reads of `(x, j)` do.

use crate::common::{
    decode_weighted_neighbor, encode_weighted_neighbor, round_robin_assign,
    weighted_adjacency_list_key, AlgorithmResult,
};
use crate::contract::{phase_budgets, ContractEdge, LiveSet};
use ampc_dds::{FxHashSet, Key, Value};
use ampc_graph::{canonicalize_labels, Graph, UnionFind, WeightedEdge};
use ampc_runtime::{AmpcConfig, AmpcRuntime, MachineContext};
use std::collections::BinaryHeap;

/// Output of the minimum spanning forest algorithm.
#[derive(Clone, Debug)]
pub struct MsfOutput {
    /// The MSF edges, identified by their ids in the input graph.
    pub edges: Vec<WeightedEdge>,
    /// Total weight of the forest.
    pub total_weight: u64,
    /// Component labels induced by the forest (smallest vertex id per
    /// component) — a spanning-forest connectivity labelling for free.
    pub labels: Vec<u32>,
}

/// One edge of the contracted graph kept by the driver between phases.
/// Field order is the derived `Ord`: endpoints, then `(weight, original)`,
/// so the least edge of a parallel bundle — the one contraction keeps — is
/// its lightest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ContractedEdge {
    u: u32,
    v: u32,
    weight: u64,
    /// Position of the originating edge in the input edge list.
    original: u32,
}

impl ContractEdge for ContractedEdge {
    fn ends(&self) -> (u32, u32) {
        (self.u, self.v)
    }
    fn with_ends(self, u: u32, v: u32) -> Self {
        ContractedEdge { u, v, ..self }
    }
}

/// The scatter publishing each live vertex's `keep` lightest edges of the
/// contracted graph as the values of its list key, ranked by `(weight,
/// neighbour, original)` — the candidate heap's order among one vertex's
/// entries.  That triple is the slot: the kernel keeps it as the edge
/// streams past, ranks by it and publishes it, so it never reads the edge
/// again.  Also returns the live vertices with an edge, the only ones a
/// Prim from which selects one.
fn weighted_adjacency_pairs(
    live: &LiveSet,
    edges: &[ContractedEdge],
    keep: usize,
) -> (Vec<(Key, Value)>, Vec<u32>) {
    live.adjacency_pairs(
        edges,
        keep,
        |neighbour, e| (e.weight, neighbour, e.original),
        weighted_adjacency_list_key,
        |(weight, neighbour, original)| encode_weighted_neighbor(neighbour, original, weight),
    )
}

/// Weighted-adjacency slots fetched per run read
/// ([`MachineContext::read_indexed_slice`] of the vertex's list key) while
/// the local Prim expansion ingests a vertex's edge list.
///
/// Each batch is clamped to the remaining query cap *before* it is issued,
/// so the cap truncates the expansion at exactly the read a single-read
/// loop would stop at; and to the `d − 1` slots a phase publishes.  A list
/// ends at its first absent slot, which only a read can find, so a flight
/// also pays for the absent tail a slot-by-slot loop would stop reading
/// after one: with `d − 1 ≤ PRIM_READ_BATCH`, an uncapped expansion is one
/// flight of `d − 1` reads (asserted by
/// `batched_local_prim_debits_budget_like_single_reads`).
const PRIM_READ_BATCH: usize = 16;

/// Min-heap of candidate edges leaving a local tree:
/// `Reverse((weight, inside, outside, original id))`.
type CandidateHeap = BinaryHeap<std::cmp::Reverse<(u64, u32, u32, u32)>>;

/// Buffers of [`local_prim`], owned by a machine for a whole round and
/// cleared per start vertex: the candidate heap and the local tree's
/// vertices.
#[derive(Default)]
struct PrimScratch {
    heap: CandidateHeap,
    in_tree: FxHashSet<u32>,
}

/// Algorithm 8 (`MSFIncreaseDegree`) for one vertex: run Prim's algorithm
/// from `v` through adaptive reads until the local tree `F_v` holds `d`
/// vertices, the component is exhausted, or the query cap is reached.
/// Appends the selected edges to `selected` as `(from, to, original id)`
/// (all of them MSF edges by the cut property), so a machine collects every
/// start vertex's edges in one buffer and allocates nothing per start.
///
/// The vertex that fills the tree is not expanded, so at most `d − 1`
/// vertices are, each for at most `d − 1` slot reads of a phase's
/// publication: at most `(d − 1)²` reads, below the driver's
/// `query_cap ≥ d²`, which therefore never binds in a phase.
fn local_prim(
    ctx: &mut MachineContext,
    scratch: &mut PrimScratch,
    v: u32,
    d: usize,
    query_cap: u64,
    selected: &mut Vec<(u32, u32, u32)>,
) {
    let PrimScratch { heap, in_tree } = scratch;
    heap.clear();
    in_tree.clear();
    let start_queries = ctx.queries_issued();

    let expand = |x: u32, ctx: &mut MachineContext, heap: &mut CandidateHeap| {
        let list = weighted_adjacency_list_key(x);
        let mut entries: [Option<Value>; PRIM_READ_BATCH] = [None; PRIM_READ_BATCH];
        let mut next_slot = 0usize;
        while next_slot < d - 1 {
            let used = ctx.queries_issued() - start_queries;
            if used >= query_cap {
                return;
            }
            // Clamp the batch to the remaining cap so the truncation point
            // is identical to the slot-by-slot loop, and to the slots a
            // phase publishes.
            let room = (query_cap - used) as usize;
            let batch = PRIM_READ_BATCH.min(room).min(d - 1 - next_slot);
            ctx.read_indexed_slice(list, next_slot, &mut entries[..batch]);
            for entry in &entries[..batch] {
                // The first absent slot ends `x`'s list.
                let Some(entry) = *entry else { return };
                let (nbr, id, w) = decode_weighted_neighbor(entry);
                heap.push(std::cmp::Reverse((w, x, nbr, id)));
            }
            next_slot += batch;
        }
    };

    in_tree.insert(v);
    expand(v, ctx, heap);

    while in_tree.len() < d {
        if ctx.queries_issued() - start_queries >= query_cap {
            break;
        }
        let Some(std::cmp::Reverse((_, from, to, id))) = heap.pop() else {
            break;
        };
        if !in_tree.insert(to) {
            continue;
        }
        selected.push((from, to, id));
        // The vertex that fills the tree is never expanded: none of its
        // entries could be popped.
        if in_tree.len() < d {
            expand(to, ctx, heap);
        }
    }
}

/// Algorithm 9: compute the minimum spanning forest of a weighted graph.
///
/// # Panics
/// If the graph carries no edge weights.
pub fn minimum_spanning_forest(
    graph: &Graph,
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<MsfOutput> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    minimum_spanning_forest_with(
        graph,
        &AmpcConfig::for_graph(n.max(1), m, epsilon).with_seed(seed),
    )
}

/// [`minimum_spanning_forest`] with an explicit [`AmpcConfig`]: ε and seed
/// are taken from the config, which also selects the DDS backend.
pub fn minimum_spanning_forest_with(
    graph: &Graph,
    config: &AmpcConfig,
) -> AlgorithmResult<MsfOutput> {
    assert!(
        graph.is_weighted() || graph.num_edges() == 0,
        "minimum_spanning_forest needs a weighted graph"
    );
    let edges = if graph.num_edges() == 0 {
        Vec::new()
    } else {
        graph.weighted_edges()
    };
    msf_dispatch(graph, &edges, config)
}

/// Corollary 7.2: a spanning forest of an *unweighted* graph, obtained by
/// assigning each edge its id as a (distinct) weight.
pub fn spanning_forest(graph: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<MsfOutput> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    spanning_forest_with(
        graph,
        &AmpcConfig::for_graph(n.max(1), m, epsilon).with_seed(seed),
    )
}

/// [`spanning_forest`] with an explicit [`AmpcConfig`].
pub fn spanning_forest_with(graph: &Graph, config: &AmpcConfig) -> AlgorithmResult<MsfOutput> {
    let edges: Vec<WeightedEdge> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(id, e)| WeightedEdge {
            u: e.u,
            v: e.v,
            weight: id as u64 + 1,
            id: id as u32,
        })
        .collect();
    msf_dispatch(graph, &edges, config)
}

fn msf_dispatch(
    graph: &Graph,
    all_edges: &[WeightedEdge],
    config: &AmpcConfig,
) -> AlgorithmResult<MsfOutput> {
    let n = graph.num_vertices();
    let m = all_edges.len();
    let mut runtime = AmpcRuntime::new(config.derive(n.max(1), n.max(1) + m));
    let epsilon = runtime.config().epsilon;

    if n == 0 {
        let output = MsfOutput {
            edges: Vec::new(),
            total_weight: 0,
            labels: Vec::new(),
        };
        return AlgorithmResult::new(output, runtime.into_stats());
    }

    assert!(u32::try_from(m).is_ok(), "edge positions are u32");
    let mut live = LiveSet::all(n);
    // `original` is the edge's position in `all_edges` (its `id` too, for
    // both callers, but nothing below relies on that).
    let mut edges: Vec<ContractedEdge> = all_edges
        .iter()
        .zip(0u32..)
        .map(|(e, original)| ContractedEdge {
            u: e.u,
            v: e.v,
            weight: e.weight,
            original,
        })
        .collect();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut committed = vec![false; m];

    let space = runtime.config().space_per_machine();
    for d in phase_budgets(n, m, epsilon) {
        if edges.is_empty() {
            break;
        }

        // Round 1: publish the contracted weighted graph, as far as a Prim
        // that stops at `d` vertices can pop it.
        let (pairs, searchers) = weighted_adjacency_pairs(&live, &edges, d - 1);
        runtime.scatter(pairs);

        // Round 2: local Prim from every live vertex with an edge; any other
        // selects none.
        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(&searchers, machines);
        let query_cap = (space as u64).max((d * d) as u64);
        let found: Vec<Vec<(u32, u32, u32)>> = runtime
            .run_round(machines, |ctx| {
                let mut scratch = PrimScratch::default();
                let mut selected = Vec::new();
                for &v in &assignments[ctx.machine_id()] {
                    local_prim(ctx, &mut scratch, v, d, query_cap, &mut selected);
                }
                selected
            })
            .expect("MSFIncreaseDegree round failed");

        // Driver: commit the discovered MSF edges and contract along them.
        let mut uf = UnionFind::new(live.len());
        let mut progressed = false;
        for &(from, to, original) in found.iter().flatten() {
            committed[original as usize] = true;
            progressed |= uf.union(live.index(from), live.index(to));
        }
        if !progressed {
            // No vertex found an outgoing edge (only possible when every
            // remaining edge is a self-loop of the contraction) — done.
            break;
        }
        edges = live.contract(&mut uf, &mut labels, edges);
    }

    // Phase-cap fallback (mirrors the final single-machine step): finish any
    // remaining contracted edges with Kruskal on the driver.
    if !edges.is_empty() {
        let mut uf = UnionFind::new(live.len());
        edges.sort_unstable_by_key(|e| (e.weight, e.original));
        for e in &edges {
            if uf.union(live.index(e.u), live.index(e.v)) {
                committed[e.original as usize] = true;
            }
        }
        live.contract(&mut uf, &mut labels, edges);
    }

    let msf_edges: Vec<WeightedEdge> = all_edges
        .iter()
        .zip(&committed)
        .filter_map(|(e, &keep)| keep.then_some(*e))
        .collect();
    let total_weight = msf_edges.iter().map(|e| e.weight).sum();
    let output = MsfOutput {
        edges: msf_edges,
        total_weight,
        labels: canonicalize_labels(&labels),
    };
    AlgorithmResult::new(output, runtime.into_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    fn weighted(n: usize, extra: usize, seed: u64) -> Graph {
        let base = generators::connected_gnm(n, extra, seed);
        generators::with_random_weights(&base, seed + 1000)
    }

    #[test]
    fn matches_kruskal_weight_on_connected_graphs() {
        for seed in 0..3 {
            let g = weighted(300, 900, seed);
            let result = minimum_spanning_forest(&g, 0.5, seed);
            let (kruskal, kruskal_weight) = sequential::kruskal_msf(&g);
            assert_eq!(result.output.total_weight, kruskal_weight, "seed {seed}");
            assert_eq!(result.output.edges.len(), kruskal.len());
        }
    }

    #[test]
    fn msf_edges_form_a_forest_spanning_each_component() {
        let g = weighted(200, 400, 11);
        let result = minimum_spanning_forest(&g, 0.5, 11);
        // n - 1 edges for a connected graph, and the edge set is acyclic.
        assert_eq!(result.output.edges.len(), 199);
        let mut uf = ampc_graph::UnionFind::new(200);
        for e in &result.output.edges {
            assert!(uf.union(e.u, e.v), "MSF edges must be acyclic");
        }
    }

    #[test]
    fn works_on_disconnected_weighted_graphs() {
        let base = generators::random_forest(150, 5, 3);
        let g = generators::with_random_weights(&base, 4);
        let result = minimum_spanning_forest(&g, 0.5, 3);
        let (_, kruskal_weight) = sequential::kruskal_msf(&g);
        assert_eq!(result.output.total_weight, kruskal_weight);
        assert_eq!(result.output.edges.len(), 145);
        assert_eq!(result.output.labels, sequential::connected_components(&g));
    }

    #[test]
    fn spanning_forest_of_unweighted_graph_is_valid() {
        let g = generators::planted_components(250, 4, 5, 6);
        let result = spanning_forest(&g, 0.5, 6);
        assert_eq!(result.output.labels, sequential::connected_components(&g));
        assert_eq!(result.output.edges.len(), 250 - 4);
        let mut uf = ampc_graph::UnionFind::new(250);
        for e in &result.output.edges {
            assert!(uf.union(e.u, e.v));
        }
    }

    #[test]
    fn round_count_stays_small() {
        let g = weighted(2000, 8000, 8);
        let result = minimum_spanning_forest(&g, 0.5, 8);
        assert!(result.rounds() <= 30, "rounds = {}", result.rounds());
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = Graph::from_edges(0, &[]);
        let result = spanning_forest(&empty, 0.5, 0);
        assert!(result.output.edges.is_empty());
        assert_eq!(result.output.total_weight, 0);

        let single = Graph::from_weighted_edges(2, &[(0, 1, 7)]);
        let result = minimum_spanning_forest(&single, 0.5, 0);
        assert_eq!(result.output.total_weight, 7);
        assert_eq!(result.output.edges.len(), 1);
    }

    #[test]
    #[should_panic(expected = "weighted")]
    fn unweighted_input_rejected_by_msf() {
        let g = generators::cycle(5);
        let _ = minimum_spanning_forest(&g, 0.5, 0);
    }

    /// [`local_prim`] into a fresh buffer: the edges one start selects.
    fn prim(
        ctx: &mut MachineContext,
        scratch: &mut PrimScratch,
        v: u32,
        d: usize,
        query_cap: u64,
    ) -> Vec<(u32, u32, u32)> {
        let mut selected = Vec::new();
        local_prim(ctx, scratch, v, d, query_cap, &mut selected);
        selected
    }

    /// The slot-by-slot expansion, kept as the reference: one
    /// [`MachineContext::read_indexed`] of the vertex's list key per slot,
    /// cap checked before every read, up to the first absent slot or slot
    /// `slots`; like [`local_prim`], it does not expand the vertex that fills
    /// the tree.  At `slots = d − 1` it is the budget reference; unbounded,
    /// it reads every slot of each vertex it expands, the full-list side of
    /// the lemma and star tests.
    fn reference_prim(
        ctx: &mut MachineContext,
        v: u32,
        d: usize,
        query_cap: u64,
        slots: usize,
    ) -> Vec<(u32, u32, u32)> {
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32, u32, u32)>> = BinaryHeap::new();
        let mut in_tree: FxHashSet<u32> = FxHashSet::default();
        let mut selected: Vec<(u32, u32, u32)> = Vec::new();
        let start_queries = ctx.queries_issued();
        let expand = |x: u32, ctx: &mut MachineContext, heap: &mut BinaryHeap<_>| {
            for i in 0..slots {
                if ctx.queries_issued() - start_queries >= query_cap {
                    return;
                }
                let Some(entry) = ctx.read_indexed(weighted_adjacency_list_key(x), i) else {
                    return;
                };
                let (nbr, id, w) = decode_weighted_neighbor(entry);
                heap.push(std::cmp::Reverse((w, x, nbr, id)));
            }
        };
        in_tree.insert(v);
        expand(v, ctx, &mut heap);
        while in_tree.len() < d {
            if ctx.queries_issued() - start_queries >= query_cap {
                break;
            }
            let Some(std::cmp::Reverse((_, from, to, id))) = heap.pop() else {
                break;
            };
            if in_tree.contains(&to) {
                continue;
            }
            in_tree.insert(to);
            selected.push((from, to, id));
            if in_tree.len() < d {
                expand(to, ctx, &mut heap);
            }
        }
        selected
    }

    /// The edges of `graph` as the driver's first phase holds them.
    fn contracted_edges(graph: &Graph) -> Vec<ContractedEdge> {
        if graph.num_edges() == 0 {
            return Vec::new(); // an edgeless graph carries no weights
        }
        (graph.weighted_edges().iter())
            .zip(0u32..)
            .map(|(e, original)| ContractedEdge {
                u: e.u,
                v: e.v,
                weight: e.weight,
                original,
            })
            .collect()
    }

    /// `edges` over `0..n` published with `keep` slots per vertex, as a
    /// phase does: one list key per vertex.
    fn prefix(n: u32, edges: &[ContractedEdge], keep: usize) -> Vec<(Key, Value)> {
        weighted_adjacency_pairs(&LiveSet::all(n as usize), edges, keep).0
    }

    /// `search` from every vertex of `0..n` in turn, on one machine with one
    /// [`PrimScratch`], over `pairs`.
    fn from_every_vertex<T: Send>(
        n: u32,
        pairs: Vec<(Key, Value)>,
        search: impl Fn(&mut MachineContext, &mut PrimScratch, u32) -> T + Sync,
    ) -> Vec<T> {
        let config = AmpcConfig::for_graph(n as usize, pairs.len(), 0.5).with_seed(5);
        let mut runtime = AmpcRuntime::new(config);
        runtime.scatter(pairs);
        let mut machines = runtime
            .run_round(1, |ctx| {
                let mut scratch = PrimScratch::default();
                (0..n).map(|v| search(ctx, &mut scratch, v)).collect()
            })
            .unwrap();
        machines.pop().unwrap()
    }

    /// The edges one start selected and the queries it issued.
    type Start = (Vec<(u32, u32, u32)>, u64);

    /// [`local_prim`] from every vertex of `0..n` in turn on one machine,
    /// over `pairs`, every start appending to the one buffer as in a phase.
    fn appended_per_start(
        n: u32,
        pairs: Vec<(Key, Value)>,
        d: usize,
        query_cap: u64,
    ) -> Vec<Start> {
        let config = AmpcConfig::for_graph(n as usize, pairs.len(), 0.5).with_seed(5);
        let mut runtime = AmpcRuntime::new(config);
        runtime.scatter(pairs);
        let mut machines = runtime
            .run_round(1, |ctx| {
                let mut scratch = PrimScratch::default();
                let mut selected = Vec::new();
                let mut starts = Vec::new();
                for v in 0..n {
                    let before = ctx.queries_issued();
                    local_prim(ctx, &mut scratch, v, d, query_cap, &mut selected);
                    starts.push((selected.len(), ctx.queries_issued() - before));
                }
                let mut from = 0;
                (starts.into_iter())
                    .map(|(to, debit)| {
                        let edges = selected[from..to].to_vec();
                        from = to;
                        (edges, debit)
                    })
                    .collect()
            })
            .unwrap();
        machines.pop().unwrap()
    }

    #[test]
    fn batched_local_prim_debits_budget_like_single_reads() {
        // ROADMAP read-path item: the batched expansion (one run read per
        // flight) must select the same edges as the single-read loop (one
        // indexed read per slot, of the same list keys), and a cap must
        // truncate either search at exactly the cap: at every cap, each
        // debits the lesser of the cap and its uncapped debit, and selects a
        // prefix of what it selects uncapped (full lists, so a cap can cut a
        // list a phase would not publish).  Uncapped, the single-read loop
        // stops after a list's first absent slot, while the batched search,
        // which learns where a list ends only from its flight, reads one
        // flight of `d − 1 ≤ PRIM_READ_BATCH` slots per expanded vertex.
        let n = 120u32;
        let d = 6;
        let pairs = prefix(
            n,
            &contracted_edges(&weighted(n as usize, 360, 17)),
            usize::MAX,
        );
        let run = |batched: bool, query_cap: u64| {
            from_every_vertex(n, pairs.clone(), |ctx, scratch, v| {
                let before = ctx.queries_issued();
                let selected = if batched {
                    prim(ctx, scratch, v, d, query_cap)
                } else {
                    reference_prim(ctx, v, d, query_cap, d - 1)
                };
                (selected, ctx.queries_issued() - before)
            })
        };
        let (batched, single) = (run(true, u64::MAX), run(false, u64::MAX));
        for (v, ((selected, debit), (single_selected, single_debit))) in
            batched.iter().zip(&single).enumerate()
        {
            assert_eq!(selected, single_selected, "from {v}");
            let expanded = 1 + selected.len() - usize::from(selected.len() + 1 == d);
            assert_eq!(*debit, ((d - 1) * expanded) as u64, "from {v}");
            assert!(single_debit <= debit, "from {v}");
        }
        for query_cap in [3u64, 7, 17, 64] {
            for (is_batched, uncapped) in [(true, &batched), (false, &single)] {
                let capped = run(is_batched, query_cap);
                for (v, ((selected, debit), (all, full_debit))) in
                    capped.iter().zip(uncapped).enumerate()
                {
                    let at = format!("batched {is_batched}, query_cap {query_cap}, from {v}");
                    assert_eq!(*debit, query_cap.min(*full_debit), "{at}");
                    assert!(all.starts_with(selected), "{at}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The `d − 1` lemma for Prim (`LiveSet::adjacency_pairs`): on random
        /// simple graphs with weight ties, from every vertex and at every
        /// budget, `local_prim` over each vertex's `d − 1` lightest edges,
        /// published as values of its list key with no count, selects
        /// exactly the edges, in the order, that the slot-by-slot reference
        /// selects over whole lists, where it reads every slot of each
        /// vertex it expands; with no cap, and at `d²`, which does not bind:
        /// the prefix bounds the reads.
        #[test]
        fn local_prim_on_the_lightest_prefix_selects_what_full_lists_select(
            n in 2u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24, 0u64..4), 0..80),
        ) {
            let triples: Vec<(u32, u32, u64)> =
                raw.iter().map(|&(u, v, w)| (u % n, v % n, w)).collect();
            let edges = contracted_edges(&Graph::from_weighted_edges(n as usize, &triples));
            let budgets = 2..=10usize;
            let full = from_every_vertex(n, prefix(n, &edges, usize::MAX), |ctx, _, v| {
                (budgets.clone())
                    .map(|d| reference_prim(ctx, v, d, u64::MAX, usize::MAX))
                    .collect::<Vec<_>>()
            });
            for d in budgets.clone() {
                let prefix = from_every_vertex(n, prefix(n, &edges, d - 1), |ctx, scratch, v| {
                    [(d * d) as u64, u64::MAX].map(|cap| prim(ctx, scratch, v, d, cap))
                });
                for (v, (prefix, full)) in prefix.iter().zip(&full).enumerate() {
                    for (cap, selected) in ["d²", "∞"].iter().zip(prefix) {
                        proptest::prop_assert_eq!(selected, &full[d - 2], "cap {}, d {}, from {}", cap, d, v);
                    }
                }
            }
        }
    }

    /// A list longer than one flight: from the centre of a 40-leaf star at
    /// `d = 30`, `local_prim` reads the centre's 29 slots in two flights
    /// (16, then 13 from slot 16), and the slot-by-slot reference reads the
    /// same 29 slots one at a time, so a flight that starts anywhere but
    /// where the last one ended selects other edges than the reference.  At
    /// every cap the two select the same edges from the centre; at caps
    /// inside the centre's list `local_prim` debits exactly the cap; and at
    /// the caps that do not bind, every start selects what the reference
    /// selects.
    /// All of a machine's starts append to one buffer, as in a phase.
    #[test]
    fn local_prim_on_one_list_key_reads_a_long_list_in_flights() {
        let leaves = 40u32;
        let star: Vec<(u32, u32, u64)> = (1..=leaves)
            .map(|leaf| (0, leaf, u64::from(leaf * 7 % 41)))
            .collect();
        let edges = contracted_edges(&Graph::from_weighted_edges(leaves as usize + 1, &star));
        let d = 30;
        let pairs = prefix(leaves + 1, &edges, d - 1);
        for cap in [1, 3, 16, 17, 20, (d * d) as u64, u64::MAX] {
            let listed = appended_per_start(leaves + 1, pairs.clone(), d, cap);
            let single = from_every_vertex(leaves + 1, pairs.clone(), |ctx, _, v| {
                reference_prim(ctx, v, d, cap, d - 1)
            });
            assert_eq!(listed[0].0, single[0], "cap {cap}");
            if cap < d as u64 {
                assert_eq!(listed[0].1, cap, "cap {cap}");
            } else {
                assert_eq!(listed[0].0.len(), d - 1, "cap {cap}");
                for (v, ((selected, _), single)) in listed.iter().zip(&single).enumerate() {
                    assert_eq!(selected, single, "cap {cap}, from {v}");
                }
            }
        }
    }

    /// The bound is tight: from the centre of a star every tree edge is one
    /// of the centre's own, so with `d − 1` of them published under its list
    /// key the tree is the one the slot-by-slot reference selects over whole
    /// lists, and with `d − 2` it stops one vertex short.
    #[test]
    fn a_star_needs_d_minus_one_lightest_edges() {
        let leaves = 8u32;
        let star: Vec<(u32, u32, u64)> = (1..=leaves).map(|leaf| (0, leaf, leaf as u64)).collect();
        let edges = contracted_edges(&Graph::from_weighted_edges(leaves as usize + 1, &star));
        let d = 4;
        let from_centre = |keep| {
            from_every_vertex(
                leaves + 1,
                prefix(leaves + 1, &edges, keep),
                |ctx, scratch, v| prim(ctx, scratch, v, d, u64::MAX),
            )
            .swap_remove(0)
        };
        let full = from_every_vertex(
            leaves + 1,
            prefix(leaves + 1, &edges, usize::MAX),
            |ctx, _, v| reference_prim(ctx, v, d, u64::MAX, usize::MAX),
        )
        .swap_remove(0);
        assert_eq!(full.len(), d - 1);
        assert_eq!(from_centre(d - 1), full);
        assert_eq!(from_centre(d - 2).len(), d - 2);
    }
}
