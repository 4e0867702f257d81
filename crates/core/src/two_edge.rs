//! Section 9: 2-edge connectivity in `O(log log_{m/n} n)` AMPC rounds.
//!
//! The BC-labeling pipeline of Algorithm 12 (after Tarjan–Vishkin and
//! Ben-David et al.):
//!
//! 1. compute a spanning forest (Corollary 7.2) and root it (Theorem 7);
//! 2. compute preorder numbers and subtree sizes (Lemmas 8.7–8.8);
//! 3. for every vertex compute `Low` / `High` — the minimum / maximum
//!    preorder number reachable from its subtree through a *non-tree* edge —
//!    by aggregating per-vertex values over preorder intervals with the RMQ
//!    structure of Lemma 8.9;
//! 4. a tree edge `(v, p(v))` is *critical* when no non-tree edge escapes
//!    `v`'s subtree, i.e. `Low(v) ≥ PN(v)` and `High(v) ≤ PN(v) + Size(v) − 1`
//!    — these are exactly the bridges of the graph;
//! 5. removing the bridges and running connectivity (Theorem 3) once more
//!    yields the 2-edge-connected components.
//!
//! The bridge criterion here is stated on the child's own preorder interval,
//! which is the form that is correct for an arbitrary (non-DFS) spanning
//! tree; the tests verify it against a sequential Hopcroft–Tarjan DFS.

use crate::common::AlgorithmResult;
use crate::connectivity::connectivity_with;
use crate::euler::{root_forest_with, SparseTableRmq};
use crate::msf::spanning_forest_with;
use ampc_graph::{Edge, Graph};
use ampc_runtime::{AmpcConfig, RunStats};

/// The BC-labeling of a graph: everything Algorithm 12 produces.
#[derive(Clone, Debug)]
pub struct BcLabeling {
    /// Bridges of the graph (normalised so `u < v`), sorted.
    pub bridges: Vec<Edge>,
    /// Labels of the 2-edge-connected components (smallest vertex id per
    /// component; bridges separate components).
    pub two_edge_components: Vec<u32>,
    /// Connected-component labels of the whole graph (from the spanning
    /// forest phase).
    pub connectivity: Vec<u32>,
    /// Parent pointers of the rooted spanning forest `F`.
    pub parent: Vec<u32>,
    /// Preorder numbers of the rooted spanning forest.
    pub preorder: Vec<u64>,
    /// Subtree sizes of the rooted spanning forest.
    pub subtree_size: Vec<u64>,
}

impl BcLabeling {
    /// `true` if `{u, v}` is a bridge.
    pub fn is_bridge(&self, u: u32, v: u32) -> bool {
        let e = Edge::new(u, v).normalized();
        self.bridges.binary_search(&e).is_ok()
    }

    /// `true` if `u` and `v` lie in the same 2-edge-connected component.
    pub fn same_two_edge_component(&self, u: u32, v: u32) -> bool {
        self.two_edge_components[u as usize] == self.two_edge_components[v as usize]
    }
}

/// Theorem 8: compute the BC-labeling (bridges + 2-edge-connected
/// components) of an undirected graph.
pub fn two_edge_connectivity(
    graph: &Graph,
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<BcLabeling> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    two_edge_connectivity_with(
        graph,
        &AmpcConfig::for_graph(n.max(1), m, epsilon).with_seed(seed),
    )
}

/// [`two_edge_connectivity`] with an explicit [`AmpcConfig`]: ε and seed
/// come from the config, which also selects the DDS backend for every stage
/// of the pipeline (spanning forest, forest rooting, final connectivity).
pub fn two_edge_connectivity_with(
    graph: &Graph,
    config: &AmpcConfig,
) -> AlgorithmResult<BcLabeling> {
    let n = graph.num_vertices();
    let seed = config.seed;
    let mut stats = RunStats::default();

    if n == 0 {
        let empty = BcLabeling {
            bridges: Vec::new(),
            two_edge_components: Vec::new(),
            connectivity: Vec::new(),
            parent: Vec::new(),
            preorder: Vec::new(),
            subtree_size: Vec::new(),
        };
        return AlgorithmResult::new(empty, stats);
    }

    // Step 1: spanning forest (Corollary 7.2).
    let sf = spanning_forest_with(graph, config);
    stats.absorb(sf.stats.clone());
    let mut in_forest = vec![false; graph.num_edges()];
    for e in &sf.output.edges {
        in_forest[e.id as usize] = true;
    }
    let forest_edges: Vec<Edge> = sf
        .output
        .edges
        .iter()
        .map(|e| Edge::new(e.u, e.v))
        .collect();
    let forest = Graph::from_edges(n, &forest_edges);

    // Step 2: root the forest and get preorder numbers / subtree sizes.
    let rooted = root_forest_with(&forest, None, &config.clone().with_seed(seed ^ 0x2e2e));
    stats.absorb(rooted.stats.clone());
    let rooted = rooted.output;

    // Step 3: per-vertex lo/hi over incident *non-tree* edges, then
    // subtree aggregation via RMQ over the preorder-indexed arrays.
    let mut lo = vec![0u64; n];
    let mut hi = vec![0u64; n];
    for v in 0..n as u32 {
        let pv = rooted.preorder[v as usize];
        let mut vlo = pv;
        let mut vhi = pv;
        for (u, edge_id) in graph.neighbors_with_ids(v) {
            if in_forest[edge_id as usize] {
                continue;
            }
            let pu = rooted.preorder[u as usize];
            vlo = vlo.min(pu);
            vhi = vhi.max(pu);
        }
        lo[v as usize] = vlo;
        hi[v as usize] = vhi;
    }
    // Arrange lo/hi by preorder position and build the RMQ (Lemma 8.9).
    let mut lo_by_pre = vec![0u64; n];
    let mut hi_by_pre = vec![0u64; n];
    for v in 0..n {
        lo_by_pre[rooted.preorder[v] as usize] = lo[v];
        hi_by_pre[rooted.preorder[v] as usize] = hi[v];
    }
    let rmq_lo = SparseTableRmq::min(&lo_by_pre);
    let rmq_hi = SparseTableRmq::max(&hi_by_pre);

    // Step 4: critical tree edges = bridges.
    let mut bridges: Vec<Edge> = Vec::new();
    for v in 0..n as u32 {
        let p = rooted.parent[v as usize];
        if p == v {
            continue; // roots have no parent edge
        }
        let (lo_bound, hi_bound) = rooted.subtree_interval(v);
        let low = rmq_lo.query(lo_bound as usize, hi_bound as usize);
        let high = rmq_hi.query(lo_bound as usize, hi_bound as usize);
        if low >= lo_bound && high <= hi_bound {
            bridges.push(Edge::new(v, p).normalized());
        }
    }
    bridges.sort_unstable();

    // Step 5: remove the bridges and rerun connectivity for the
    // 2-edge-connected components.
    let remaining: Vec<Edge> = graph
        .edges()
        .iter()
        .filter(|e| bridges.binary_search(&e.normalized()).is_err())
        .copied()
        .collect();
    let stripped = Graph::from_edges(n, &remaining);
    let tecc = connectivity_with(&stripped, &config.clone().with_seed(seed ^ 0x7ecc));
    stats.absorb(tecc.stats.clone());

    let labeling = BcLabeling {
        bridges,
        two_edge_components: tecc.output,
        connectivity: sf.output.labels.clone(),
        parent: rooted.parent,
        preorder: rooted.preorder,
        subtree_size: rooted.subtree_size,
    };
    AlgorithmResult::new(labeling, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::{generators, sequential};

    fn check(graph: &Graph, epsilon: f64, seed: u64) {
        let result = two_edge_connectivity(graph, epsilon, seed);
        let expected_bridges = sequential::bridges(graph);
        assert_eq!(result.output.bridges, expected_bridges);
        assert_eq!(
            result.output.two_edge_components,
            sequential::two_edge_connected_components(graph)
        );
        assert_eq!(
            result.output.connectivity,
            sequential::connected_components(graph)
        );
    }

    #[test]
    fn bridged_block_chains() {
        for seed in 0..3 {
            let g = generators::bridged_blocks(6, 4, 3, seed);
            check(&g, 0.5, seed);
        }
    }

    #[test]
    fn pure_trees_have_all_edges_as_bridges() {
        let g = generators::random_tree(150, 2);
        let result = two_edge_connectivity(&g, 0.5, 2);
        assert_eq!(result.output.bridges.len(), 149);
        // Every vertex is its own 2-edge-connected component.
        let distinct: std::collections::HashSet<u32> =
            result.output.two_edge_components.iter().copied().collect();
        assert_eq!(distinct.len(), 150);
    }

    #[test]
    fn cycles_have_no_bridges() {
        let g = generators::cycle(60);
        let result = two_edge_connectivity(&g, 0.5, 1);
        assert!(result.output.bridges.is_empty());
        assert!(result.output.two_edge_components.iter().all(|&l| l == 0));
    }

    #[test]
    fn random_sparse_graphs_match_sequential() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_gnm(200, 260, seed);
            check(&g, 0.5, seed);
        }
    }

    #[test]
    fn random_denser_graphs_match_sequential() {
        let g = generators::connected_gnm(300, 900, 5);
        check(&g, 0.5, 5);
    }

    #[test]
    fn disconnected_graphs_are_handled() {
        let g = generators::planted_components(150, 5, 2, 7);
        check(&g, 0.5, 7);
    }

    #[test]
    fn helper_queries_work() {
        let g = generators::bridged_blocks(5, 3, 1, 4);
        let result = two_edge_connectivity(&g, 0.5, 4);
        for e in &result.output.bridges {
            assert!(result.output.is_bridge(e.u, e.v));
            assert!(result.output.is_bridge(e.v, e.u));
            assert!(!result.output.same_two_edge_component(e.u, e.v));
        }
        assert!(
            !result.output.is_bridge(0, 1) || sequential::bridges(&g).contains(&Edge::new(0, 1))
        );
    }

    /// `(rounds, total_queries, total_writes)` — the model's cost — of two
    /// fixed instances, summed over the pipeline's stages (spanning forest,
    /// rooting, connectivity of the bridgeless graph).  A change of
    /// container or hasher must leave these where they are; a change of
    /// algorithm in any stage that moves them should say so here.
    /// Connectivity and MSF publishing no per-vertex count moved the queries
    /// and writes of both, and no round count.  Rooting ranking its tour
    /// once, not twice, took 8 rounds off both: blocks from
    /// `(20, 26553, 24263)`, gnm from `(28, 35723, 28414)`.
    #[test]
    fn model_cost_of_two_edge_is_pinned() {
        let cost = |graph: &Graph| {
            let stats = two_edge_connectivity(graph, 0.5, 7).stats;
            (
                stats.num_rounds(),
                stats.total_queries(),
                stats.total_writes(),
            )
        };
        let blocks = generators::bridged_blocks(128, 16, 4, 7);
        let gnm = generators::connected_gnm(2000, 6000, 11);
        assert_eq!(cost(&blocks), (12, 15205, 14121));
        assert_eq!(cost(&gnm), (20, 24919, 18780));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        let result = two_edge_connectivity(&g, 0.5, 0);
        assert!(result.output.bridges.is_empty());
        assert!(result.output.two_edge_components.is_empty());
    }
}
