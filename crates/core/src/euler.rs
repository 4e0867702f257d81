//! Section 8.1: Euler tours, tree rooting, subtree sizes, preorder numbers
//! and range-minimum structures.
//!
//! The classic Tarjan–Vishkin Euler tour technique turns every tree of a
//! forest into a cycle of directed arcs; breaking the cycle at the root and
//! *list ranking* the arcs (Algorithm 11, [`crate::listrank`]) yields the
//! position of every arc in the tour, from which parents, subtree sizes and
//! preorder numbers all follow.  Rooting runs that ranking once, with unit
//! weights, and it is the only part that needs AMPC rounds — its walks read
//! one record per hop.  Everything else is what the paper attributes to
//! "standard MPC primitives", run by the driver: the tour stitched by
//! one pass over the forest's adjacency (no per-arc hash map), the union-find that
//! labels the trees, the per-tree offsets' prefix sum, and the preorder
//! pass — the arcs laid out by their known tour positions (a sort) and each
//! tree's forward arcs counted in that order (a prefix sum).  These driver
//! steps are not charged rounds yet.
//!
//! [`SparseTableRmq`] is the range-minimum/maximum structure of Lemma 8.9,
//! used by the 2-edge-connectivity algorithm to aggregate `Low`/`High`
//! values over subtree intervals of the preorder numbering.

use crate::common::AlgorithmResult;
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

    // The arcs leaving `v`, by head, are `v`'s slots in the graph's CSR,
    // which ascend by neighbour id.  The successor of arc u→v is the arc
    // leaving `v` towards the head that follows `u` in that cyclic order, so
    // walking each vertex's slots stitches every arc's twin to the next slot:
    // no list per vertex, no sort and no search.
    let mut next = vec![0u32; 2 * m];
    for v in 0..n as u32 {
        let leaving = |(_, id): (u32, u32)| 2 * id + u32::from(forest.edge(id).u != v);
        let mut arcs = forest.neighbors_with_ids(v).map(leaving);
        let Some(first) = arcs.next() else { continue };
        let last = arcs.fold(first, |before, a| {
            next[(before ^ 1) as usize] = a;
            a
        });
        next[(last ^ 1) as usize] = first;
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
    /// laid out consecutively in increasing order of their smallest vertex
    /// id).
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
/// `roots` optionally lists candidate roots: every entry is a candidate, and
/// the first candidate of each tree becomes its root.  A tree with no
/// candidate (every tree, by default) is rooted at its smallest vertex id.
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
/// ranking underneath.
pub fn root_forest_with(
    forest: &Graph,
    roots: Option<&[u32]>,
    config: &ampc_runtime::AmpcConfig,
) -> AlgorithmResult<RootedForest> {
    let n = forest.num_vertices();
    let tour = euler_tour(forest);
    let num_arcs = tour.num_arcs();

    // Component roots (driver-side union-find = standard MPC primitive).
    // A tree's label is its smallest vertex id; the per-tree arrays below
    // are indexed by it.
    let mut uf = UnionFind::new(n);
    for e in forest.edges() {
        uf.union(e.u, e.v);
    }
    let component = uf.canonical_labels();
    // Candidates are written last to first, so each tree keeps its first.
    let mut root_of: Vec<u32> = (0..n as u32).collect();
    for &candidate in roots.unwrap_or_default().iter().rev() {
        root_of[component[candidate as usize] as usize] = candidate;
    }
    let chosen_root: Vec<u32> = component.iter().map(|&t| root_of[t as usize]).collect();

    if n == 0 {
        let empty = RootedForest {
            parent: vec![],
            root: vec![],
            preorder: vec![],
            subtree_size: vec![],
        };
        return AlgorithmResult::new(empty, RunStats::default());
    }

    // Break each tree's tour at its root's first outgoing arc.
    let mut successor: Vec<u32> = tour.next.clone();
    let mut first_arc = vec![u32::MAX; n];
    for a in 0..num_arcs as u32 {
        let tail = tour.arc_tail[a as usize];
        if tail == chosen_root[tail as usize] {
            let first = &mut first_arc[component[tail as usize] as usize];
            if *first == u32::MAX || tour.arc_head[a as usize] < tour.arc_head[*first as usize] {
                *first = a;
            }
        }
    }
    for &start in first_arc.iter().filter(|&&a| a != u32::MAX) {
        let terminal = tour.prev[start as usize];
        successor[terminal as usize] = terminal;
    }

    // One unit-weight AMPC list ranking over the arcs, on whatever DDS
    // backend the config selects: an arc's rank is its distance to its
    // tree's terminal arc.
    let ranked = crate::listrank::list_ranking_with(&successor, config);
    let rank = &ranked.output;

    // Parents and subtree sizes (Lemma 8.7): of an edge's two arcs, the one
    // earlier in the tour (larger rank) is the forward arc, into the child;
    // the arcs between the two are the child's subtree, two per vertex.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut subtree_size = vec![1u64; n];
    for fw in 0..num_arcs as u32 {
        let bw = tour.twin(fw);
        if rank[fw as usize] > rank[bw as usize] {
            let child = tour.arc_head[fw as usize] as usize;
            parent[child] = tour.arc_tail[fw as usize];
            subtree_size[child] = (rank[fw as usize] - rank[bw as usize]).div_ceil(2);
        }
    }

    // Trees are laid out in increasing label order: `next[t]` starts at the
    // tree's first preorder number (the sizes' prefix sum in id order; only
    // labels have a size), and `arc_end[t]` is one past its last arc in the
    // concatenated tours.  A tree of `size` vertices has `2·(size − 1)` arcs.
    let mut component_size = vec![0u64; n];
    for &t in &component {
        component_size[t as usize] += 1;
    }
    let (mut next, mut arc_end) = (vec![0u64; n], vec![0u64; n]);
    let (mut vertices, mut arcs) = (0u64, 0u64);
    for (t, &size) in component_size.iter().enumerate().filter(|(_, &s)| s > 0) {
        next[t] = vertices;
        vertices += size;
        arcs += 2 * (size - 1);
        arc_end[t] = arcs;
    }
    // Roots span their whole component and come first in its preorder.
    let mut preorder = vec![0u64; n];
    for v in (0..n).filter(|&v| parent[v] == v as u32) {
        let t = component[v] as usize;
        subtree_size[v] = component_size[t];
        preorder[v] = next[t];
    }

    // Preorder numbers (Lemma 8.8) from the tour positions the ranking
    // gave: arc `a` sits at `arc_end[t] − 1 − rank[a]` of the concatenated
    // tours.  One pass in position order numbers each tree's forward arcs,
    // and a forward arc's number is its head's.  Laying the arcs out by a
    // known position and the per-tree count are a sort and a prefix sum,
    // the "standard MPC primitives", not a second ranking.
    let mut by_position = vec![0u32; num_arcs];
    for a in 0..num_arcs {
        let t = component[tour.arc_tail[a] as usize] as usize;
        by_position[(arc_end[t] - 1 - rank[a]) as usize] = a as u32;
    }
    for a in by_position {
        if rank[a as usize] > rank[tour.twin(a) as usize] {
            let head = tour.arc_head[a as usize] as usize;
            let t = component[head] as usize;
            next[t] += 1;
            preorder[head] = next[t];
        }
    }

    let forest_out = RootedForest {
        parent,
        root: chosen_root,
        preorder,
        subtree_size,
    };
    AlgorithmResult::new(forest_out, ranked.stats)
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

/// Lemma 8.9: a sparse-table range-minimum (or range-maximum) structure over
/// an array, answering queries in O(1) after O(n log n) preprocessing.  One
/// table answers one aggregate: [`SparseTableRmq::min`] builds the minima,
/// [`SparseTableRmq::max`] the maxima.
#[derive(Clone, Debug)]
pub struct SparseTableRmq {
    /// Row `k` holds the aggregate of every window of `2^k` values.
    rows: Vec<Vec<u64>>,
    pick: fn(u64, u64) -> u64,
}

impl SparseTableRmq {
    /// The range-minimum structure over `values`.
    pub fn min(values: &[u64]) -> Self {
        Self::build(values, u64::min)
    }

    /// The range-maximum structure over `values`.
    pub fn max(values: &[u64]) -> Self {
        Self::build(values, u64::max)
    }

    fn build(values: &[u64], pick: fn(u64, u64) -> u64) -> Self {
        let levels = values.len().max(1).ilog2() as usize + 1;
        let mut rows: Vec<Vec<u64>> = Vec::with_capacity(levels);
        rows.push(values.to_vec());
        for k in 1..levels {
            let (row, half) = (&rows[k - 1], 1usize << (k - 1));
            let next = row.iter().zip(&row[half..]).map(|(&a, &b)| pick(a, b));
            rows.push(next.collect());
        }
        SparseTableRmq { rows, pick }
    }

    /// The minimum (or maximum) of `values[lo..=hi]`.
    ///
    /// # Panics
    /// If the range is empty or out of bounds.
    pub fn query(&self, lo: usize, hi: usize) -> u64 {
        assert!(
            lo <= hi && hi < self.rows[0].len(),
            "invalid RMQ range [{lo}, {hi}]"
        );
        let k = (hi - lo + 1).ilog2() as usize;
        (self.pick)(self.rows[k][lo], self.rows[k][hi + 1 - (1 << k)])
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

    /// Sequential reference for [`root_forest`], built from the same
    /// [`euler_tour`]: trees in order of their smallest vertex, each rooted
    /// at its first candidate in `roots` (else that smallest vertex).  Each
    /// tour is broken at its root's first arc, the one to its smallest
    /// neighbour, and walked once: an arc into a vertex not seen yet is that
    /// vertex's forward arc, and its number in walk order is the vertex's
    /// preorder number.  Subtree sizes are summed up in reverse preorder.
    /// Also returns the broken tour: the successors, each tree's last arc a
    /// terminal.
    fn walk_the_tours(forest: &Graph, roots: &[u32]) -> (RootedForest, Vec<u32>) {
        let n = forest.num_vertices();
        let tour = euler_tour(forest);
        // Trees by smallest vertex, found by a search from each in id order.
        let mut tree_of = vec![u32::MAX; n];
        let mut smallest: Vec<u32> = Vec::new();
        for s in 0..n as u32 {
            if tree_of[s as usize] != u32::MAX {
                continue;
            }
            let t = smallest.len() as u32;
            smallest.push(s);
            tree_of[s as usize] = t;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for &u in forest.neighbors(v) {
                    if tree_of[u as usize] == u32::MAX {
                        tree_of[u as usize] = t;
                        stack.push(u);
                    }
                }
            }
        }
        let mut tree_root: Vec<Option<u32>> = vec![None; smallest.len()];
        for &c in roots {
            tree_root[tree_of[c as usize] as usize].get_or_insert(c);
        }

        let mut out = RootedForest {
            parent: (0..n as u32).collect(),
            root: vec![0; n],
            preorder: vec![0; n],
            subtree_size: vec![1; n],
        };
        let mut successor = tour.next.clone();
        let mut walk_order: Vec<u32> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for (t, &s) in smallest.iter().enumerate() {
            let r = tree_root[t].unwrap_or(s);
            seen[r as usize] = true;
            walk_order.push(r);
            let first = (0..tour.num_arcs() as u32)
                .filter(|&a| tour.arc_tail[a as usize] == r)
                .min_by_key(|&a| tour.arc_head[a as usize]);
            let Some(first) = first else { continue };
            let terminal = tour.prev[first as usize];
            successor[terminal as usize] = terminal;
            let mut a = first;
            loop {
                let (tail, head) = (tour.arc_tail[a as usize], tour.arc_head[a as usize]);
                if !seen[head as usize] {
                    seen[head as usize] = true;
                    out.parent[head as usize] = tail;
                    walk_order.push(head);
                }
                a = tour.next[a as usize];
                if a == first {
                    break;
                }
            }
        }
        for (number, &v) in walk_order.iter().enumerate() {
            out.preorder[v as usize] = number as u64;
            let r = tree_root[tree_of[v as usize] as usize];
            out.root[v as usize] = r.unwrap_or(smallest[tree_of[v as usize] as usize]);
        }
        for &v in walk_order.iter().rev() {
            let p = out.parent[v as usize];
            if p != v {
                out.subtree_size[p as usize] += out.subtree_size[v as usize];
            }
        }
        (out, successor)
    }

    #[test]
    fn rooting_equals_a_sequential_walk_of_the_tour() {
        use rand::{Rng, SeedableRng};
        let check = |forest: &Graph, roots: Option<&[u32]>, seed: u64, what: &str| {
            let rooted = root_forest(forest, roots, 0.5, seed).output;
            let (expected, _) = walk_the_tours(forest, roots.unwrap_or_default());
            assert_eq!(rooted.parent, expected.parent, "{what}: parent");
            assert_eq!(rooted.root, expected.root, "{what}: root");
            assert_eq!(rooted.preorder, expected.preorder, "{what}: preorder");
            let sizes = (&rooted.subtree_size, &expected.subtree_size);
            assert_eq!(sizes.0, sizes.1, "{what}: subtree_size");
        };
        for (trees, seed) in [(1, 21), (64, 22), (2048, 23)] {
            let forest = generators::random_forest(4096, trees, seed);
            check(&forest, None, seed, &format!("{trees} trees"));
        }
        // 3 000 trees of 4 096 vertices: 1 904 of them are isolated.
        let sparse = generators::random_forest(4096, 3000, 24);
        check(&sparse, None, 24, "isolated vertices");
        // Candidates drawn at random, several per tree: each tree's first
        // one is its root.
        let forest = generators::random_forest(4096, 64, 25);
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let roots: Vec<u32> = (0..200).map(|_| rng.gen_range(0..4096)).collect();
        check(&forest, Some(&roots), 25, "explicit roots");
    }

    #[test]
    fn rooting_costs_one_list_ranking_of_the_broken_tour() {
        let cost = |stats: &RunStats| {
            let (rounds, queries) = (stats.num_rounds(), stats.total_queries());
            (rounds, queries, stats.total_writes())
        };
        for (trees, seed) in [(1, 26), (64, 27)] {
            let forest = generators::random_forest(4096, trees, seed);
            let arcs = 2 * forest.num_edges();
            let config = ampc_runtime::AmpcConfig::for_graph(4096, arcs, 0.5).with_seed(seed);
            let rooted = root_forest_with(&forest, None, &config);
            let (_, successor) = walk_the_tours(&forest, &[]);
            let ranked = crate::listrank::list_ranking_with(&successor, &config);
            assert_eq!(cost(&rooted.stats), cost(&ranked.stats), "{trees} trees");
            let cap = 4 * crate::listrank::max_levels(0.5);
            assert!(rooted.rounds() <= cap, "{trees} trees: {}", rooted.rounds());
        }
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
        let (mins, maxs) = (SparseTableRmq::min(&values), SparseTableRmq::max(&values));
        for _ in 0..500 {
            let lo = rng.gen_range(0..values.len());
            let hi = rng.gen_range(lo..values.len());
            let naive_min = *values[lo..=hi].iter().min().unwrap();
            let naive_max = *values[lo..=hi].iter().max().unwrap();
            assert_eq!(mins.query(lo, hi), naive_min);
            assert_eq!(maxs.query(lo, hi), naive_max);
        }
    }

    #[test]
    fn sparse_table_single_element() {
        assert_eq!(SparseTableRmq::min(&[42]).query(0, 0), 42);
        assert_eq!(SparseTableRmq::max(&[42]).query(0, 0), 42);
    }

    #[test]
    #[should_panic(expected = "invalid RMQ range")]
    fn sparse_table_rejects_bad_ranges() {
        let rmq = SparseTableRmq::min(&[1, 2, 3]);
        let _ = rmq.query(2, 5);
    }
}
