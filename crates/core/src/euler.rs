//! Section 8.1: Euler tours, tree rooting, subtree sizes, preorder numbers
//! and range-minimum structures.
//!
//! The classic Tarjan–Vishkin Euler tour technique turns every tree of a
//! forest into a cycle of directed arcs; breaking the cycle at the root and
//! *list ranking* the arcs (Algorithm 11, [`crate::listrank`]) yields the
//! position of every arc in the tour, from which parents, subtree sizes and
//! preorder numbers all follow with O(1) extra work per vertex.  The list
//! ranking is the only part that needs AMPC rounds — its walks read one
//! record per hop — everything else is the per-key arithmetic the paper
//! attributes to "standard MPC primitives", with the tour stitched
//! driver-side by sorted-out-list binary search (no per-arc hash map).
//!
//! [`SparseTableRmq`] is the range-minimum/maximum structure of Lemma 8.9,
//! used by the 2-edge-connectivity algorithm to aggregate `Low`/`High`
//! values over subtree intervals of the preorder numbering.

use crate::common::AlgorithmResult;
use ampc_dds::FxHashMap;
use ampc_graph::{Graph, UnionFind};
use ampc_runtime::RunStats;

/// The Euler tour of a forest: two arcs per tree edge plus the successor
/// permutation linking them into one cycle per tree.
#[derive(Clone, Debug)]
pub struct EulerTour {
    /// Tail (source vertex) of each arc.
    pub arc_tail: Vec<u32>,
    /// Head (target vertex) of each arc.
    pub arc_head: Vec<u32>,
    /// Successor arc in the tour.
    pub next: Vec<u32>,
    /// Predecessor arc in the tour (inverse of `next`).
    pub prev: Vec<u32>,
}

impl EulerTour {
    /// Number of arcs (twice the number of tree edges).
    pub fn num_arcs(&self) -> usize {
        self.arc_tail.len()
    }

    /// The opposite arc of `a` (same edge, reversed direction).
    pub fn twin(&self, a: u32) -> u32 {
        a ^ 1
    }
}

/// Build the Euler tour of a forest (Lemma 8.6).
///
/// Edge `e = {u, v}` of the graph contributes arc `2e = u→v` and arc
/// `2e + 1 = v→u`; the successor of arc `(u, v)` is the arc `(v, w)` where
/// `w` follows `u` in `v`'s (cyclically ordered) adjacency list.
///
/// # Panics
/// If the graph contains a cycle (it must be a forest).
pub fn euler_tour(forest: &Graph) -> EulerTour {
    let n = forest.num_vertices();
    let m = forest.num_edges();
    // Forest check: every component with k vertices has k - 1 edges.
    {
        let mut uf = UnionFind::new(n);
        for e in forest.edges() {
            assert!(
                uf.union(e.u, e.v),
                "euler_tour expects a forest (found a cycle)"
            );
        }
    }

    let mut arc_tail = vec![0u32; 2 * m];
    let mut arc_head = vec![0u32; 2 * m];
    for (id, e) in forest.edges().iter().enumerate() {
        arc_tail[2 * id] = e.u;
        arc_head[2 * id] = e.v;
        arc_tail[2 * id + 1] = e.v;
        arc_head[2 * id + 1] = e.u;
    }

    // out[v] = arcs leaving v, sorted by head vertex.  The successor of arc
    // u→v is the arc leaving v towards the head that follows u in v's
    // sorted out-list; since the forest has no parallel edges the heads in
    // out[v] are distinct, so the position of v→u is found by binary search
    // instead of a per-arc (v, u) → index hash map — the tour stitching is
    // two cache-friendly passes over the arc arrays.
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for a in 0..2 * m as u32 {
        out[arc_tail[a as usize] as usize].push(a);
    }
    for list in out.iter_mut() {
        list.sort_unstable_by_key(|&a| arc_head[a as usize]);
    }

    let mut next = vec![0u32; 2 * m];
    for a in 0..2 * m {
        let (u, v) = (arc_tail[a], arc_head[a]);
        let list = &out[v as usize];
        let idx = list
            .binary_search_by_key(&u, |&arc| arc_head[arc as usize])
            .expect("twin arc v->u must exist in v's out-list");
        next[a] = list[(idx + 1) % list.len()];
    }
    let mut prev = vec![0u32; 2 * m];
    for a in 0..2 * m as u32 {
        prev[next[a as usize] as usize] = a;
    }

    EulerTour {
        arc_tail,
        arc_head,
        next,
        prev,
    }
}

/// A rooted forest with the per-vertex quantities the Section 8 lemmas
/// compute: parent pointers, tree roots, globally unique preorder numbers
/// and subtree sizes.
#[derive(Clone, Debug)]
pub struct RootedForest {
    /// Parent of each vertex (roots point at themselves).
    pub parent: Vec<u32>,
    /// Root of each vertex's tree.
    pub root: Vec<u32>,
    /// Globally unique preorder number of each vertex (0-based; trees are
    /// laid out consecutively in increasing root order).
    pub preorder: Vec<u64>,
    /// Number of vertices in each vertex's subtree (inclusive).
    pub subtree_size: Vec<u64>,
}

impl RootedForest {
    /// The preorder interval `[lo, hi]` (inclusive) covered by `v`'s subtree.
    pub fn subtree_interval(&self, v: u32) -> (u64, u64) {
        let lo = self.preorder[v as usize];
        (lo, lo + self.subtree_size[v as usize] - 1)
    }

    /// `true` if `ancestor`'s subtree contains `v`.
    pub fn in_subtree(&self, ancestor: u32, v: u32) -> bool {
        let (lo, hi) = self.subtree_interval(ancestor);
        let p = self.preorder[v as usize];
        lo <= p && p <= hi
    }
}

/// Root every tree of a forest (Theorem 7) and compute preorder numbers
/// (Lemma 8.8) and subtree sizes (Lemma 8.7) via Euler tours + list ranking.
///
/// `roots` optionally fixes the root of each tree (one entry per vertex,
/// only the entries of chosen roots are consulted); by default the smallest
/// vertex id of each tree becomes its root.
pub fn root_forest(
    forest: &Graph,
    roots: Option<&[u32]>,
    epsilon: f64,
    seed: u64,
) -> AlgorithmResult<RootedForest> {
    let n = forest.num_vertices();
    let arcs = 2 * forest.num_edges();
    root_forest_with(
        forest,
        roots,
        &ampc_runtime::AmpcConfig::for_graph(n.max(arcs).max(1), arcs, epsilon).with_seed(seed),
    )
}

/// [`root_forest`] with an explicit [`ampc_runtime::AmpcConfig`]: ε and seed
/// come from the config, which also selects the DDS backend for the list
/// rankings underneath.
pub fn root_forest_with(
    forest: &Graph,
    roots: Option<&[u32]>,
    config: &ampc_runtime::AmpcConfig,
) -> AlgorithmResult<RootedForest> {
    let n = forest.num_vertices();
    let tour = euler_tour(forest);
    let num_arcs = tour.num_arcs();
    let mut stats = RunStats::default();

    // Component roots (driver-side union-find = standard MPC primitive).
    let mut uf = UnionFind::new(n);
    for e in forest.edges() {
        uf.union(e.u, e.v);
    }
    let component = uf.canonical_labels();
    let chosen_root: Vec<u32> = match roots {
        Some(r) => {
            let mut root_of_component: FxHashMap<u32, u32> = FxHashMap::default();
            for &candidate in r {
                root_of_component
                    .entry(component[candidate as usize])
                    .or_insert(candidate);
            }
            (0..n as u32)
                .map(|v| {
                    *root_of_component
                        .get(&component[v as usize])
                        .unwrap_or(&component[v as usize])
                })
                .collect()
        }
        None => component.clone(),
    };

    if n == 0 {
        let empty = RootedForest {
            parent: vec![],
            root: vec![],
            preorder: vec![],
            subtree_size: vec![],
        };
        return AlgorithmResult::new(empty, stats);
    }

    // Break each tree's tour at its root's first outgoing arc.
    let mut successor: Vec<u32> = tour.next.clone();
    let mut first_arc_of_root: FxHashMap<u32, u32> = FxHashMap::default();
    for a in 0..num_arcs as u32 {
        let tail = tour.arc_tail[a as usize];
        if tail == chosen_root[tail as usize] {
            let entry = first_arc_of_root.entry(tail).or_insert(a);
            if tour.arc_head[a as usize] < tour.arc_head[*entry as usize] {
                *entry = a;
            }
        }
    }
    for &start in first_arc_of_root.values() {
        let terminal = tour.prev[start as usize];
        successor[terminal as usize] = terminal;
    }

    // Unit-weight ranking gives arc positions; forward-weight ranking gives
    // preorder numbers.  Both are AMPC list rankings over the arcs, running
    // on whatever DDS backend the config selects.
    let unit = crate::listrank::list_ranking_with(&successor, config);
    stats.absorb(unit.stats.clone());
    let rank_unit = unit.output;

    // Parents: the arc of an edge that appears earlier in the tour (larger
    // distance to the terminal) is the forward arc.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut forward_arc: Vec<Option<u32>> = vec![None; n];
    let mut backward_arc: Vec<Option<u32>> = vec![None; n];
    for edge_id in 0..num_arcs / 2 {
        let a = (2 * edge_id) as u32;
        let b = a + 1;
        let (fw, bw) = if rank_unit[a as usize] > rank_unit[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        let child = tour.arc_head[fw as usize];
        let par = tour.arc_tail[fw as usize];
        parent[child as usize] = par;
        forward_arc[child as usize] = Some(fw);
        backward_arc[child as usize] = Some(bw);
    }

    // Subtree sizes from arc positions (Lemma 8.7).
    let mut subtree_size = vec![1u64; n];
    for v in 0..n as u32 {
        if let (Some(fw), Some(bw)) = (forward_arc[v as usize], backward_arc[v as usize]) {
            subtree_size[v as usize] =
                (rank_unit[fw as usize] - rank_unit[bw as usize]).div_ceil(2);
        }
    }
    // Roots span their whole component.
    let mut component_size: FxHashMap<u32, u64> = FxHashMap::default();
    for v in 0..n as u32 {
        *component_size.entry(component[v as usize]).or_insert(0) += 1;
    }
    for v in 0..n as u32 {
        if parent[v as usize] == v {
            subtree_size[v as usize] = component_size[&component[v as usize]];
        }
    }

    // Preorder numbers (Lemma 8.8): rank with weight 1 on forward arcs.
    let forward_weights: Vec<u64> = (0..num_arcs as u32)
        .map(|a| {
            let head = tour.arc_head[a as usize];
            u64::from(forward_arc[head as usize] == Some(a))
        })
        .collect();
    let weighted = crate::listrank::list_ranking_weighted_with(
        &successor,
        &forward_weights,
        &config.clone().with_seed(config.seed ^ 0x9e37),
    );
    stats.absorb(weighted.stats.clone());
    let rank_forward = weighted.output;

    // Per-tree preorder, then a global offset per tree (trees laid out in
    // increasing root-id order).
    let mut roots_sorted: Vec<u32> = component_size.keys().copied().collect();
    roots_sorted.sort_unstable();
    let mut offset_of: FxHashMap<u32, u64> = FxHashMap::default();
    let mut running = 0u64;
    for r in roots_sorted {
        offset_of.insert(r, running);
        running += component_size[&r];
    }

    let mut preorder = vec![0u64; n];
    for v in 0..n as u32 {
        let comp = component[v as usize];
        let offset = offset_of[&comp];
        preorder[v as usize] = if parent[v as usize] == v {
            offset
        } else {
            let fw = forward_arc[v as usize].expect("non-root must have a forward arc");
            offset + component_size[&comp] - rank_forward[fw as usize]
        };
    }

    let root: Vec<u32> = (0..n as u32).map(|v| chosen_root[v as usize]).collect();
    let forest_out = RootedForest {
        parent,
        root,
        preorder,
        subtree_size,
    };
    AlgorithmResult::new(forest_out, stats)
}

/// Lemma 8.7: subtree sizes of a rooted forest (roots chosen as the minimum
/// vertex id of each tree).
pub fn subtree_sizes(forest: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u64>> {
    let result = root_forest(forest, None, epsilon, seed);
    AlgorithmResult::new(result.output.subtree_size, result.stats)
}

/// Lemma 8.8: preorder numbering of a rooted forest (roots chosen as the
/// minimum vertex id of each tree).
pub fn preorder_numbers(forest: &Graph, epsilon: f64, seed: u64) -> AlgorithmResult<Vec<u64>> {
    let result = root_forest(forest, None, epsilon, seed);
    AlgorithmResult::new(result.output.preorder, result.stats)
}

/// Lemma 8.9: a sparse-table range-minimum/maximum structure over an array,
/// answering queries in O(1) after O(n log n) preprocessing.
#[derive(Clone, Debug)]
pub struct SparseTableRmq {
    mins: Vec<Vec<u64>>,
    maxs: Vec<Vec<u64>>,
    len: usize,
}

impl SparseTableRmq {
    /// Build the structure over `values`.
    pub fn new(values: &[u64]) -> Self {
        let len = values.len();
        let levels = if len <= 1 {
            1
        } else {
            len.ilog2() as usize + 1
        };
        let mut mins: Vec<Vec<u64>> = Vec::with_capacity(levels);
        let mut maxs: Vec<Vec<u64>> = Vec::with_capacity(levels);
        mins.push(values.to_vec());
        maxs.push(values.to_vec());
        for k in 1..levels {
            let half = 1usize << (k - 1);
            let size = len.saturating_sub((1 << k) - 1);
            let mut min_row = Vec::with_capacity(size);
            let mut max_row = Vec::with_capacity(size);
            for i in 0..size {
                min_row.push(mins[k - 1][i].min(mins[k - 1][i + half]));
                max_row.push(maxs[k - 1][i].max(maxs[k - 1][i + half]));
            }
            mins.push(min_row);
            maxs.push(max_row);
        }
        SparseTableRmq { mins, maxs, len }
    }

    /// Minimum of `values[lo..=hi]`.
    ///
    /// # Panics
    /// If the range is empty or out of bounds.
    pub fn query_min(&self, lo: usize, hi: usize) -> u64 {
        assert!(lo <= hi && hi < self.len, "invalid RMQ range [{lo}, {hi}]");
        let k = (hi - lo + 1).ilog2() as usize;
        self.mins[k][lo].min(self.mins[k][hi + 1 - (1 << k)])
    }

    /// Maximum of `values[lo..=hi]`.
    ///
    /// # Panics
    /// If the range is empty or out of bounds.
    pub fn query_max(&self, lo: usize, hi: usize) -> u64 {
        assert!(lo <= hi && hi < self.len, "invalid RMQ range [{lo}, {hi}]");
        let k = (hi - lo + 1).ilog2() as usize;
        self.maxs[k][lo].max(self.maxs[k][hi + 1 - (1 << k)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators;

    /// Reference parents/depths by BFS from the chosen roots.
    fn bfs_parents(forest: &Graph, roots: &[u32]) -> Vec<u32> {
        let n = forest.num_vertices();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut visited = vec![false; n];
        for &r in roots {
            if visited[r as usize] {
                continue;
            }
            visited[r as usize] = true;
            let mut queue = std::collections::VecDeque::from([r]);
            while let Some(v) = queue.pop_front() {
                for &u in forest.neighbors(v) {
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        parent[u as usize] = v;
                        queue.push_back(u);
                    }
                }
            }
        }
        parent
    }

    fn reference_subtree_sizes(parent: &[u32]) -> Vec<u64> {
        let n = parent.len();
        let mut size = vec![1u64; n];
        // Repeatedly push sizes upward (fine for test-sized trees).
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Sort by depth descending.
        let depth = |mut v: u32| {
            let mut d = 0;
            while parent[v as usize] != v {
                v = parent[v as usize];
                d += 1;
            }
            d
        };
        order.sort_by_key(|&v| std::cmp::Reverse(depth(v)));
        for v in order {
            if parent[v as usize] != v {
                size[parent[v as usize] as usize] += size[v as usize];
            }
        }
        size
    }

    #[test]
    fn euler_tour_is_a_permutation_covering_all_arcs() {
        let g = generators::random_tree(50, 3);
        let tour = euler_tour(&g);
        assert_eq!(tour.num_arcs(), 98);
        // `next` must be a permutation (every arc has exactly one predecessor).
        let mut seen = vec![false; tour.num_arcs()];
        for &a in &tour.next {
            assert!(!seen[a as usize]);
            seen[a as usize] = true;
        }
        // Consecutive arcs share the intermediate vertex.
        for a in 0..tour.num_arcs() {
            let b = tour.next[a] as usize;
            assert_eq!(tour.arc_head[a], tour.arc_tail[b]);
        }
    }

    #[test]
    #[should_panic(expected = "forest")]
    fn euler_tour_rejects_cycles() {
        let g = generators::cycle(5);
        let _ = euler_tour(&g);
    }

    #[test]
    fn rooting_a_path_matches_bfs() {
        let g = generators::path(20);
        let rooted = root_forest(&g, None, 0.5, 1).output;
        assert_eq!(rooted.parent, bfs_parents(&g, &[0]));
        assert_eq!(rooted.preorder, (0..20u64).collect::<Vec<_>>());
        assert_eq!(rooted.subtree_size, (1..=20u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn rooting_random_trees_matches_reference() {
        for seed in 0..3 {
            let g = generators::random_tree(200, seed);
            let rooted = root_forest(&g, None, 0.5, seed).output;
            assert_eq!(rooted.parent, bfs_parents(&g, &[0]), "seed {seed}");
            assert_eq!(rooted.subtree_size, reference_subtree_sizes(&rooted.parent));
            // Preorder is a permutation of 0..n with root at 0.
            let mut sorted = rooted.preorder.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..200u64).collect::<Vec<_>>());
            assert_eq!(rooted.preorder[0], 0);
            // Every non-root vertex appears after its parent.
            for v in 1..200usize {
                assert!(rooted.preorder[v] > rooted.preorder[rooted.parent[v] as usize]);
            }
        }
    }

    #[test]
    fn rooting_a_forest_gives_disjoint_preorder_blocks() {
        let g = generators::random_forest(120, 4, 7);
        let rooted = root_forest(&g, None, 0.5, 7).output;
        // Preorder is a global permutation.
        let mut sorted = rooted.preorder.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..120u64).collect::<Vec<_>>());
        // Subtree intervals of roots partition the range.
        let mut roots: Vec<u32> = (0..120u32)
            .filter(|&v| rooted.parent[v as usize] == v)
            .collect();
        roots.sort_unstable();
        assert_eq!(roots.len(), 4);
        let mut intervals: Vec<(u64, u64)> =
            roots.iter().map(|&r| rooted.subtree_interval(r)).collect();
        intervals.sort_unstable();
        let mut expected_start = 0;
        for (lo, hi) in intervals {
            assert_eq!(lo, expected_start);
            expected_start = hi + 1;
        }
        assert_eq!(expected_start, 120);
    }

    #[test]
    fn subtree_interval_contains_exactly_the_subtree() {
        let g = generators::binary_tree(63);
        let rooted = root_forest(&g, None, 0.5, 5).output;
        // Vertex 1 is a child of the root covering half the tree.
        assert_eq!(rooted.subtree_size[1], 31);
        for v in 0..63u32 {
            // v is in the subtree of 1 iff following parents reaches 1.
            let mut x = v;
            let mut inside = false;
            loop {
                if x == 1 {
                    inside = true;
                    break;
                }
                if rooted.parent[x as usize] == x {
                    break;
                }
                x = rooted.parent[x as usize];
            }
            assert_eq!(rooted.in_subtree(1, v), inside, "vertex {v}");
        }
    }

    #[test]
    fn explicit_roots_are_respected() {
        let g = generators::path(10);
        let roots = vec![9u32; 10];
        let rooted = root_forest(&g, Some(&roots), 0.5, 2).output;
        assert_eq!(rooted.parent[9], 9);
        assert_eq!(rooted.parent[0], 1);
        assert_eq!(rooted.preorder[9], 0);
        assert_eq!(rooted.preorder[0], 9);
    }

    #[test]
    fn isolated_vertices_are_their_own_trees() {
        let g = Graph::from_edges(5, &[ampc_graph::Edge::new(1, 2)]);
        let rooted = root_forest(&g, None, 0.5, 0).output;
        assert_eq!(rooted.parent[0], 0);
        assert_eq!(rooted.subtree_size[0], 1);
        assert_eq!(rooted.subtree_size[1], 2);
        let mut sorted = rooted.preorder.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wrapper_lemmas_return_the_same_quantities() {
        let g = generators::random_tree(80, 9);
        let rooted = root_forest(&g, None, 0.5, 9).output;
        assert_eq!(subtree_sizes(&g, 0.5, 9).output, rooted.subtree_size);
        assert_eq!(preorder_numbers(&g, 0.5, 9).output, rooted.preorder);
    }

    #[test]
    fn sparse_table_matches_naive_min_max() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let values: Vec<u64> = (0..200).map(|_| rng.gen_range(0..1000)).collect();
        let rmq = SparseTableRmq::new(&values);
        for _ in 0..500 {
            let lo = rng.gen_range(0..values.len());
            let hi = rng.gen_range(lo..values.len());
            let naive_min = *values[lo..=hi].iter().min().unwrap();
            let naive_max = *values[lo..=hi].iter().max().unwrap();
            assert_eq!(rmq.query_min(lo, hi), naive_min);
            assert_eq!(rmq.query_max(lo, hi), naive_max);
        }
    }

    #[test]
    fn sparse_table_single_element() {
        let rmq = SparseTableRmq::new(&[42]);
        assert_eq!(rmq.query_min(0, 0), 42);
        assert_eq!(rmq.query_max(0, 0), 42);
    }

    #[test]
    #[should_panic(expected = "invalid RMQ range")]
    fn sparse_table_rejects_bad_ranges() {
        let rmq = SparseTableRmq::new(&[1, 2, 3]);
        let _ = rmq.query_min(2, 5);
    }
}
