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
//! driver-side steps run on the dense arrays of `contract.rs`; a phase keeps
//! the `(weight, id)`-least edge of every parallel bundle (cycle property).

use crate::common::{
    decode_weighted_neighbor, degree_key, encode_weighted_neighbor, round_robin_assign,
    weighted_adjacency_key, AlgorithmResult,
};
use crate::contract::{phase_budgets, ContractEdge, LiveSet};
use ampc_dds::{FxHashSet, Key, Value};
use ampc_graph::{canonicalize_labels, Graph, UnionFind, WeightedEdge};
use ampc_runtime::{
    with_dds_backend, AmpcConfig, AmpcRuntime, DdsBackend, MachineContext, SnapshotView,
};
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
/// so the lightest edge of a parallel bundle sorts first.
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

/// The scatter publishing the weighted adjacency of the contracted graph.
fn weighted_adjacency_pairs(live: &LiveSet, edges: &[ContractedEdge]) -> Vec<(Key, Value)> {
    live.adjacency_pairs(edges, weighted_adjacency_key, |neighbour, e| {
        encode_weighted_neighbor(neighbour, e.original, e.weight)
    })
}

/// Weighted-adjacency slots fetched per batched adaptive read while the
/// local Prim expansion ingests a vertex's edge list.
///
/// Once the degree is known the slot keys are independent, so a real
/// deployment pipelines them in one flight.  Each batch is clamped to the
/// remaining query cap *before* it is issued, so the cap truncates the
/// expansion at exactly the same slot as the single-read loop did — the
/// query budget is debited identically (asserted by
/// `batched_local_prim_debits_budget_like_single_reads`).
const PRIM_READ_BATCH: usize = 16;

/// Min-heap of candidate edges leaving a local tree:
/// `Reverse((weight, inside, outside, original id))`.
type CandidateHeap = BinaryHeap<std::cmp::Reverse<(u64, u32, u32, u32)>>;

/// Buffers of [`local_prim`], owned by a machine for a whole round and
/// cleared per start vertex.
#[derive(Default)]
struct PrimScratch {
    heap: CandidateHeap,
    in_tree: FxHashSet<u32>,
}

/// Algorithm 8 (`MSFIncreaseDegree`) for one vertex: run Prim's algorithm
/// from `v` through adaptive reads until the local tree `F_v` holds `d`
/// vertices, the component is exhausted, or the query cap is reached.
/// Returns the ids of the original edges selected (all of them MSF edges by
/// the cut property).
fn local_prim<V: SnapshotView>(
    ctx: &mut MachineContext<V>,
    scratch: &mut PrimScratch,
    v: u32,
    d: usize,
    query_cap: u64,
) -> Vec<(u32, u32, u32)> {
    let PrimScratch { heap, in_tree } = scratch;
    heap.clear();
    in_tree.clear();
    let mut selected: Vec<(u32, u32, u32)> = Vec::new();
    let start_queries = ctx.queries_issued();

    let expand = |x: u32, ctx: &mut MachineContext<V>, heap: &mut CandidateHeap| {
        let Some(deg) = ctx.read(degree_key(x)).map(|d| d.x as usize) else {
            return;
        };
        let mut keys: [Key; PRIM_READ_BATCH] = [degree_key(0); PRIM_READ_BATCH];
        let mut entries: [Option<Value>; PRIM_READ_BATCH] = [None; PRIM_READ_BATCH];
        let mut next_slot = 0usize;
        while next_slot < deg {
            let used = ctx.queries_issued() - start_queries;
            if used >= query_cap {
                return;
            }
            // Clamp the batch to the remaining cap so the truncation point
            // is identical to the slot-by-slot loop.
            let room = (query_cap - used) as usize;
            let batch_end = deg.min(next_slot + PRIM_READ_BATCH.min(room));
            let batch = batch_end - next_slot;
            for (j, key) in keys[..batch].iter_mut().enumerate() {
                *key = weighted_adjacency_key(x, next_slot + j);
            }
            ctx.read_many_slice(&keys[..batch], &mut entries[..batch]);
            for entry in &entries[..batch] {
                let Some(entry) = *entry else { continue };
                let (nbr, id, w) = decode_weighted_neighbor(entry);
                heap.push(std::cmp::Reverse((w, x, nbr, id)));
            }
            next_slot = batch_end;
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
        expand(to, ctx, heap);
    }
    selected
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
    let config = config.derive(n.max(1), n.max(1) + m);
    with_dds_backend!(config, |runtime| msf_impl(graph, all_edges, runtime))
}

fn msf_impl<B: DdsBackend>(
    graph: &Graph,
    all_edges: &[WeightedEdge],
    mut runtime: AmpcRuntime<B>,
) -> AlgorithmResult<MsfOutput> {
    let n = graph.num_vertices();
    let m = all_edges.len();
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

        // Round 1: publish the contracted weighted graph.
        runtime.scatter(weighted_adjacency_pairs(&live, &edges));

        // Round 2: local Prim from every live vertex.
        let machines = runtime.config().num_machines();
        let assignments = round_robin_assign(live.vertices(), machines);
        let query_cap = (space as u64).max((d * d) as u64);
        let found: Vec<Vec<(u32, u32, u32)>> = runtime
            .run_round(machines, |ctx| {
                let mut scratch = PrimScratch::default();
                let mut out = Vec::new();
                for &v in &assignments[ctx.machine_id()] {
                    out.extend(local_prim(ctx, &mut scratch, v, d, query_cap));
                }
                out
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

    /// The pre-migration slot-by-slot expansion, kept as the budget
    /// reference: one adaptive read per adjacency slot, cap checked before
    /// every read.
    fn reference_prim<V: ampc_runtime::SnapshotView>(
        ctx: &mut MachineContext<V>,
        v: u32,
        d: usize,
        query_cap: u64,
    ) -> Vec<(u32, u32, u32)> {
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32, u32, u32)>> = BinaryHeap::new();
        let mut in_tree: FxHashSet<u32> = FxHashSet::default();
        let mut selected: Vec<(u32, u32, u32)> = Vec::new();
        let start_queries = ctx.queries_issued();
        let expand = |x: u32, ctx: &mut MachineContext<V>, heap: &mut BinaryHeap<_>| {
            let Some(deg) = ctx.read(degree_key(x)).map(|d| d.x as usize) else {
                return;
            };
            for i in 0..deg {
                if ctx.queries_issued() - start_queries >= query_cap {
                    return;
                }
                if let Some(entry) = ctx.read(weighted_adjacency_key(x, i)) {
                    let (nbr, id, w) = decode_weighted_neighbor(entry);
                    heap.push(std::cmp::Reverse((w, x, nbr, id)));
                }
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
            expand(to, ctx, &mut heap);
        }
        selected
    }

    #[test]
    fn batched_local_prim_debits_budget_like_single_reads() {
        // ROADMAP read-path item: the batched expansion must select the same
        // edges AND debit the query budget identically to the single-read
        // loop, including at caps that truncate mid-list.
        let n = 120u32;
        let g = weighted(n as usize, 360, 17);
        let edges: Vec<ContractedEdge> = g
            .weighted_edges()
            .iter()
            .map(|e| ContractedEdge {
                u: e.u,
                v: e.v,
                weight: e.weight,
                original: e.id,
            })
            .collect();
        for query_cap in [3u64, 7, 17, 64, 100_000] {
            let run = |batched: bool| {
                let config = AmpcConfig::for_graph(n as usize, 360, 0.5).with_seed(5);
                let mut runtime = AmpcRuntime::new(config);
                runtime.scatter(weighted_adjacency_pairs(&LiveSet::all(n as usize), &edges));
                runtime
                    .run_round(1, |ctx| {
                        let mut scratch = PrimScratch::default();
                        let mut out = Vec::new();
                        for v in 0..n {
                            let before = ctx.queries_issued();
                            let selected = if batched {
                                local_prim(ctx, &mut scratch, v, 6, query_cap)
                            } else {
                                reference_prim(ctx, v, 6, query_cap)
                            };
                            out.push((v, selected, ctx.queries_issued() - before));
                        }
                        out
                    })
                    .unwrap()
            };
            assert_eq!(run(true), run(false), "query_cap {query_cap}");
        }
    }
}
