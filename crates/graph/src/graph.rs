//! Compact undirected graph representations.
//!
//! Two views are provided:
//!
//! * [`EdgeList`] — a flat list of undirected edges; the natural form for
//!   generators and for the driver side of contraction-based algorithms.
//! * [`Graph`] — a CSR (compressed sparse row) adjacency structure built from
//!   an edge list; the form the algorithms load into the DDS and the
//!   sequential reference algorithms traverse.
//!
//! Vertices are `u32` ids in `0..n`.  Self-loops and duplicate edges are
//! removed when building a [`Graph`], matching the paper's assumption that
//! "there are no self-edges or duplicate edges in the graph".

/// An undirected, unweighted edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
}

impl Edge {
    /// Construct an edge; orientation is irrelevant.
    pub fn new(u: u32, v: u32) -> Self {
        Edge { u, v }
    }

    /// The edge with its endpoints ordered `(min, max)`.
    pub fn normalized(&self) -> Edge {
        Edge {
            u: self.u.min(self.v),
            v: self.u.max(self.v),
        }
    }

    /// `true` if both endpoints coincide.
    pub fn is_self_loop(&self) -> bool {
        self.u == self.v
    }
}

/// An undirected, weighted edge with a stable id into the original edge list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WeightedEdge {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Edge weight.  All algorithms assume weights are distinct.
    pub weight: u64,
    /// Index of this edge in the original input (used by MSF to report
    /// original edges after contractions).
    pub id: u32,
}

/// A growable list of undirected edges over vertices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    n: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Empty edge list over `n` vertices.
    pub fn new(n: usize) -> Self {
        EdgeList {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges currently stored (duplicates included).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge `{u, v}`.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn push(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push(Edge::new(u, v));
    }

    /// The edges as a slice.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sort, deduplicate and drop self-loops in place.
    pub fn dedup(&mut self) {
        self.edges = dedup_edges(std::mem::take(&mut self.edges));
    }

    /// Build the CSR graph (deduplicating and dropping self-loops).
    pub fn build(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }
}

/// Remove self-loops and duplicates from a set of undirected edges.
pub fn dedup_edges(edges: Vec<Edge>) -> Vec<Edge> {
    let mut normalized: Vec<Edge> = edges
        .into_iter()
        .filter(|e| !e.is_self_loop())
        .map(|e| e.normalized())
        .collect();
    normalized.sort_unstable();
    normalized.dedup();
    normalized
}

/// An undirected graph in CSR form, optionally weighted.
///
/// Each undirected edge `{u, v}` appears twice in the adjacency arrays: once
/// as `u → v` and once as `v → u`.  The `edge_ids` array maps each adjacency
/// slot back to the id of the undirected edge, so weighted algorithms can
/// report original edges.
#[derive(Clone, Debug)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    /// Per-adjacency-slot undirected edge id.
    edge_ids: Vec<u32>,
    /// Per-undirected-edge weight; empty for unweighted graphs.
    weights: Vec<u64>,
    /// The undirected edges themselves, indexed by edge id.
    edges: Vec<Edge>,
}

impl Graph {
    /// Build an unweighted graph from undirected edges over `n` vertices.
    ///
    /// Self-loops and duplicates are removed.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let clean = dedup_edges(edges.to_vec());
        Self::from_clean_edges(n, clean, Vec::new())
    }

    /// Build a weighted graph from `(u, v, weight)` triples over `n` vertices.
    ///
    /// Self-loops are dropped; among duplicate edges the one with the
    /// smallest weight is kept.  Weights should be distinct for the MSF
    /// algorithms (ties are broken by edge id internally, but the paper's
    /// uniqueness argument assumes distinct weights).
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, u64)]) -> Self {
        let mut cleaned: Vec<(Edge, u64)> = edges
            .iter()
            .filter(|(u, v, _)| u != v)
            .map(|&(u, v, w)| (Edge::new(u, v).normalized(), w))
            .collect();
        cleaned.sort_unstable_by_key(|&(e, w)| (e, w));
        cleaned.dedup_by_key(|&mut (e, _)| e);
        let (clean, weights): (Vec<Edge>, Vec<u64>) = cleaned.into_iter().unzip();
        Self::from_clean_edges(n, clean, weights)
    }

    fn from_clean_edges(n: usize, clean: Vec<Edge>, weights: Vec<u64>) -> Self {
        assert!(
            clean
                .iter()
                .all(|e| (e.u as usize) < n && (e.v as usize) < n),
            "edge endpoint out of range for n={n}"
        );
        let mut degree = vec![0usize; n];
        for e in &clean {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; clean.len() * 2];
        let mut edge_ids = vec![0u32; clean.len() * 2];
        for (id, e) in clean.iter().enumerate() {
            let cu = cursor[e.u as usize];
            neighbors[cu] = e.v;
            edge_ids[cu] = id as u32;
            cursor[e.u as usize] += 1;
            let cv = cursor[e.v as usize];
            neighbors[cv] = e.u;
            edge_ids[cv] = id as u32;
            cursor[e.v as usize] += 1;
        }
        Graph {
            offsets,
            neighbors,
            edge_ids,
            weights,
            edges: clean,
        }
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Input size `N = n + m` as used by the paper's space bounds.
    pub fn input_size(&self) -> usize {
        self.num_vertices() + self.num_edges()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbours of `v` as a slice.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// `(neighbour, undirected edge id)` pairs incident to `v`.
    pub fn neighbors_with_ids(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        range.map(move |i| (self.neighbors[i], self.edge_ids[i]))
    }

    /// `true` if the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Weight of the undirected edge with id `edge_id`.
    ///
    /// # Panics
    /// If the graph is unweighted.
    pub fn edge_weight(&self, edge_id: u32) -> u64 {
        self.weights[edge_id as usize]
    }

    /// The undirected edge with id `edge_id`.
    pub fn edge(&self, edge_id: u32) -> Edge {
        self.edges[edge_id as usize]
    }

    /// All undirected edges, indexed by id.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// All weighted edges (id, endpoints, weight).
    ///
    /// # Panics
    /// If the graph is unweighted.
    pub fn weighted_edges(&self) -> Vec<WeightedEdge> {
        assert!(self.is_weighted(), "graph has no weights");
        self.edges
            .iter()
            .enumerate()
            .map(|(id, e)| WeightedEdge {
                u: e.u,
                v: e.v,
                weight: self.weights[id],
                id: id as u32,
            })
            .collect()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// `true` if `{u, v}` is an edge (linear scan of the shorter adjacency
    /// list — fine for tests and verification).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if self.degree(u) <= self.degree(v) {
            self.neighbors(u).contains(&v)
        } else {
            self.neighbors(v).contains(&u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)])
    }

    #[test]
    fn csr_construction_basic() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.input_size(), 6);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn duplicates_and_self_loops_are_removed() {
        let g = Graph::from_edges(
            3,
            &[
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(0, 1),
                Edge::new(2, 2),
                Edge::new(1, 2),
            ],
        );
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn neighbors_and_edge_ids_are_consistent() {
        let g = triangle();
        for v in 0..3u32 {
            for (u, id) in g.neighbors_with_ids(v) {
                let e = g.edge(id);
                let pair = (e.u.min(e.v), e.u.max(e.v));
                assert_eq!(pair, (v.min(u), v.max(u)));
            }
        }
    }

    #[test]
    fn weighted_graph_keeps_minimum_duplicate() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 10), (1, 0, 5), (1, 2, 7), (2, 2, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_weighted());
        let weights: Vec<u64> = g.weighted_edges().iter().map(|e| e.weight).collect();
        assert!(weights.contains(&5));
        assert!(weights.contains(&7));
        assert!(!weights.contains(&10));
    }

    #[test]
    fn edge_list_builder() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 1);
        el.push(3, 3);
        assert_eq!(el.num_edges(), 4);
        el.dedup();
        assert_eq!(el.num_edges(), 2);
        let g = el.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 5);
    }

    #[test]
    fn empty_graph_statistics() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn average_and_max_degree() {
        let g = Graph::from_edges(4, &[Edge::new(0, 1), Edge::new(0, 2), Edge::new(0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn normalized_edge_orders_endpoints() {
        assert_eq!(Edge::new(5, 2).normalized(), Edge::new(2, 5));
        assert!(Edge::new(3, 3).is_self_loop());
        assert!(!Edge::new(3, 4).is_self_loop());
    }
}
