//! The contraction kernel the connectivity and MSF drivers share: what they
//! do between rounds, on dense arrays instead of a hash map per step.
//!
//! The live vertices of a contracted graph are a sorted subset of `0..n`, so
//! every per-vertex table of a phase is a `Vec` indexed by a vertex's
//! position in that subset, and the glue the paper runs "with standard MPC
//! primitives, such as sorting, duplicate removal" (Section 3) is literally
//! that: adjacency is a stable counting sort of the edge list, contraction is
//! relabel + sort + dedup.  No step iterates a hash container, so the
//! published adjacency — and the model's query and write counts — depend on
//! the input and the seed alone.

use crate::common::degree_key;
use ampc_dds::{Key, Value};
use ampc_graph::UnionFind;

/// An edge of a contracted graph.  `Ord` must compare the endpoints first
/// and break ties so that the parallel edge to keep sorts first.
pub(crate) trait ContractEdge: Copy + Ord {
    /// The two endpoints.
    fn ends(&self) -> (u32, u32);
    /// The same edge between two other vertices.
    fn with_ends(self, u: u32, v: u32) -> Self;
}

impl ContractEdge for (u32, u32) {
    fn ends(&self) -> (u32, u32) {
        *self
    }
    fn with_ends(self, u: u32, v: u32) -> Self {
        (u, v)
    }
}

/// The per-vertex budget `d` of each phase (Section 6): `sqrt((n + m) / n)`
/// first, `d^{1.4}` from one phase to the next, capped at `n^{ε/2}` so that a
/// vertex's `d²` queries fit one machine's `O(n^ε)` space.  Ends at the
/// phase cap.
pub(crate) fn phase_budgets(n: usize, m: usize, epsilon: f64) -> impl Iterator<Item = usize> {
    let d_cap = ((n.max(2) as f64).powf(epsilon / 2.0).ceil() as usize).max(2);
    let first = (((n + m) as f64 / n as f64).sqrt().ceil() as usize).clamp(2, d_cap);
    let max_phases =
        4 * ((n.max(4) as f64).ln().ln().ceil() as usize + 2) + (4.0 / epsilon).ceil() as usize;
    let grow = move |&d: &usize| Some(((d as f64).powf(1.4).ceil() as usize).clamp(2, d_cap));
    std::iter::successors(Some(first), grow).take(max_phases)
}

/// The live vertices of a contracted graph over original ids `0..n`.
#[derive(Clone)]
pub(crate) struct LiveSet {
    /// Live vertex ids, ascending.
    vertices: Vec<u32>,
    /// `index_of[vertices[i]] == i`; entries of contracted-away ids are stale.
    index_of: Vec<u32>,
}

impl LiveSet {
    /// Every vertex of `0..n` live.
    pub(crate) fn all(n: usize) -> Self {
        let n = u32::try_from(n).expect("vertex ids are u32");
        LiveSet {
            vertices: (0..n).collect(),
            index_of: (0..n).collect(),
        }
    }

    /// Live vertex ids, ascending.
    pub(crate) fn vertices(&self) -> &[u32] {
        &self.vertices
    }

    /// Number of live vertices.
    pub(crate) fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Position of live vertex `v` in [`LiveSet::vertices`].
    pub(crate) fn index(&self, v: u32) -> u32 {
        let i = self.index_of[v as usize];
        debug_assert_eq!(self.vertices.get(i as usize), Some(&v), "{v} is not live");
        i
    }

    /// The scatter publishing the contracted graph: per live vertex, in
    /// ascending order, its degree under [`degree_key`] and then slot `j` of
    /// its adjacency under `slot_key(v, j)` as `slot_value(neighbour, edge)`.
    /// The adjacency is a CSR built by a stable counting sort over `edges`:
    /// a vertex's slots follow edge-list order, and an edge `(u, v)` fills
    /// `u`'s slot before `v`'s.
    pub(crate) fn adjacency_pairs<E: ContractEdge>(
        &self,
        edges: &[E],
        slot_key: impl Fn(u32, usize) -> Key,
        slot_value: impl Fn(u32, &E) -> Value,
    ) -> Vec<(Key, Value)> {
        let slot_count = u32::try_from(2 * edges.len()).expect("slot offsets are u32");
        // `offsets[i]..offsets[i + 1]` are the slots of live index `i`.
        let mut offsets = vec![0u32; self.len() + 1];
        for e in edges {
            let (u, v) = e.ends();
            offsets[self.index(u) as usize + 1] += 1;
            offsets[self.index(v) as usize + 1] += 1;
        }
        for i in 0..self.len() {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut slots = vec![(0u32, 0u32); slot_count as usize];
        for (id, e) in edges.iter().enumerate() {
            let (u, v) = e.ends();
            for (at, neighbour) in [(u, v), (v, u)] {
                let next = &mut cursor[self.index(at) as usize];
                slots[*next as usize] = (neighbour, id as u32);
                *next += 1;
            }
        }
        let mut pairs = Vec::with_capacity(self.len() + slots.len());
        for (i, &v) in self.vertices.iter().enumerate() {
            let slots = &slots[offsets[i] as usize..offsets[i + 1] as usize];
            pairs.push((degree_key(v), Value::scalar(slots.len() as u64)));
            pairs.extend(slots.iter().enumerate().map(|(j, &(neighbour, id))| {
                (slot_key(v, j), slot_value(neighbour, &edges[id as usize]))
            }));
        }
        pairs
    }

    /// Contract every group of `uf` (a union-find over live indices) onto its
    /// smallest vertex: `labels` (each a live vertex id) follow their vertex
    /// to its super-vertex, the live set shrinks to the super-vertices, and
    /// `edges` come back between super-vertices as `(min, max)`, sorted,
    /// without self-loops, and with only the `Ord`-least edge of each
    /// parallel bundle.
    pub(crate) fn contract<E: ContractEdge>(
        &mut self,
        uf: &mut UnionFind,
        labels: &mut [u32],
        edges: impl IntoIterator<Item = E>,
    ) -> Vec<E> {
        debug_assert_eq!(uf.len(), self.len());
        // Super-vertex of every live vertex, by live index: `vertices` is
        // ascending, so the smallest vertex id of a group is the vertex at
        // the group's smallest live index.
        let supers: Vec<u32> = (uf.canonical_labels().iter())
            .map(|&i| self.vertices[i as usize])
            .collect();
        let super_of = |v: u32| supers[self.index(v) as usize];
        let mut contracted: Vec<E> = edges
            .into_iter()
            .filter_map(|e| {
                let (u, v) = e.ends();
                let (su, sv) = (super_of(u), super_of(v));
                (su != sv).then(|| e.with_ends(su.min(sv), su.max(sv)))
            })
            .collect();
        contracted.sort_unstable();
        contracted.dedup_by_key(|e| e.ends());
        for label in labels.iter_mut() {
            *label = super_of(*label);
        }
        // The next live set is the vertices that are their own super-vertex:
        // a subsequence of an ascending list, compacted in place.
        let (mut supers, mut kept) = (supers.iter(), 0u32);
        self.vertices.retain(|&v| {
            let survives = supers.next() == Some(&v);
            if survives {
                self.index_of[v as usize] = kept;
                kept += 1;
            }
            survives
        });
        contracted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::adjacency_key;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// A weighted edge as MSF sorts it: `(u, v, weight, original)`.
    type Weighted = (u32, u32, u64, u32);

    impl ContractEdge for Weighted {
        fn ends(&self) -> (u32, u32) {
            (self.0, self.1)
        }
        fn with_ends(self, u: u32, v: u32) -> Self {
            (u, v, self.2, self.3)
        }
    }

    /// The driver this kernel replaced, one ordered map per step: groups
    /// merge onto their smallest member, the next live set is the set of
    /// super-vertices, labels follow their vertex, and every super-vertex
    /// pair keeps its `(weight, original)`-least edge.
    #[allow(clippy::type_complexity)]
    fn model_contract(
        live: &[u32],
        unions: &[(u32, u32)],
        labels: &[u32],
        edges: &[Weighted],
    ) -> (Vec<u32>, Vec<u32>, BTreeMap<(u32, u32), (u64, u32)>) {
        let mut super_of: BTreeMap<u32, u32> = live.iter().map(|&v| (v, v)).collect();
        for &(a, b) in unions {
            let (ga, gb) = (super_of[&a], super_of[&b]);
            for group in super_of.values_mut().filter(|g| **g == ga || **g == gb) {
                *group = ga.min(gb);
            }
        }
        let next_live: BTreeSet<u32> = super_of.values().copied().collect();
        let labels = labels.iter().map(|l| super_of[l]).collect();
        let mut best: BTreeMap<(u32, u32), (u64, u32)> = BTreeMap::new();
        for &(u, v, weight, original) in edges {
            let (su, sv) = (super_of[&u], super_of[&v]);
            if su != sv {
                let kept = best
                    .entry((su.min(sv), su.max(sv)))
                    .or_insert((weight, original));
                *kept = (*kept).min((weight, original));
            }
        }
        (next_live.into_iter().collect(), labels, best)
    }

    /// Today's push order: `u` gets `v`, then `v` gets `u`, edge by edge.
    fn model_adjacency(live: &[u32], edges: &[Weighted]) -> BTreeMap<u32, Vec<(u32, u32)>> {
        let mut adjacency: BTreeMap<u32, Vec<(u32, u32)>> =
            live.iter().map(|&v| (v, Vec::new())).collect();
        for (id, &(u, v, ..)) in edges.iter().enumerate() {
            adjacency.get_mut(&u).unwrap().push((v, id as u32));
            adjacency.get_mut(&v).unwrap().push((u, id as u32));
        }
        adjacency
    }

    /// Per phase: raw `(endpoint, endpoint, weight)` edge picks and raw
    /// `(member, member)` union picks, both reduced modulo the live count —
    /// so self-loops, parallel edges and weight ties all occur.
    #[allow(clippy::type_complexity)]
    fn arbitrary_phases() -> impl Strategy<Value = Vec<(Vec<(u32, u32, u64)>, Vec<(u32, u32)>)>> {
        let edges = proptest::collection::vec((0u32..1000, 0u32..1000, 0u64..4), 0..40);
        let unions = proptest::collection::vec((0u32..1000, 0u32..1000), 0..30);
        proptest::collection::vec((edges, unions), 1..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

        /// Phase after phase — so the live set is a random subset of `0..n`
        /// from the second phase on — the kernel and the map-per-step model
        /// agree on adjacency, next live set, labels and contracted edges.
        #[test]
        fn kernel_matches_the_map_per_step_driver(n in 1usize..48, phases in arbitrary_phases()) {
            let mut live = LiveSet::all(n);
            let mut labels: Vec<u32> = (0..n as u32).collect();
            for (raw_edges, raw_unions) in phases {
                let before: Vec<u32> = live.vertices().to_vec();
                let pick = |raw: u32| before[raw as usize % before.len()];
                let edges: Vec<Weighted> = raw_edges
                    .iter()
                    .enumerate()
                    .map(|(id, &(a, b, weight))| (pick(a), pick(b), weight, id as u32))
                    .collect();
                let unions: Vec<(u32, u32)> =
                    raw_unions.iter().map(|&(a, b)| (pick(a), pick(b))).collect();

                // Slot order is edge-list order (each slot's value names its
                // edge), and the scatter walks the vertices in ascending order.
                let slot_value =
                    |neighbour: u32, e: &Weighted| Value::pair(neighbour as u64, e.3 as u64);
                let mut expected_pairs = Vec::new();
                for (&v, slots) in &model_adjacency(&before, &edges) {
                    expected_pairs.push((degree_key(v), Value::scalar(slots.len() as u64)));
                    for (j, &(neighbour, id)) in slots.iter().enumerate() {
                        let value = slot_value(neighbour, &edges[id as usize]);
                        expected_pairs.push((adjacency_key(v, j), value));
                    }
                }
                let pairs = live.adjacency_pairs(&edges, adjacency_key, slot_value);
                prop_assert_eq!(pairs, expected_pairs);

                let (next_live, next_labels, best) =
                    model_contract(&before, &unions, &labels, &edges);
                let union_find = || {
                    let mut uf = UnionFind::new(before.len());
                    for &(a, b) in &unions {
                        uf.union(live.index(a), live.index(b));
                    }
                    uf
                };

                // Unweighted: the same edge set, sorted and duplicate-free.
                let (mut uf, mut scratch_labels) = (union_find(), labels.clone());
                let mut unweighted = live.clone();
                let pairs: Vec<(u32, u32)> = unweighted.contract(
                    &mut uf,
                    &mut scratch_labels,
                    edges.iter().map(|e| e.ends()),
                );
                prop_assert_eq!(&pairs, &best.keys().copied().collect::<Vec<_>>());

                // Weighted: the lightest edge of every parallel bundle.
                let mut uf = union_find();
                let contracted = live.contract(&mut uf, &mut labels, edges);
                let expected: Vec<Weighted> =
                    best.iter().map(|(&(u, v), &(w, id))| (u, v, w, id)).collect();
                prop_assert_eq!(contracted, expected);
                prop_assert_eq!(live.vertices(), next_live.as_slice());
                prop_assert_eq!(unweighted.vertices(), next_live.as_slice());
                prop_assert_eq!(&labels, &next_labels);
                prop_assert_eq!(&scratch_labels, &next_labels);
                for (i, &v) in next_live.iter().enumerate() {
                    prop_assert_eq!(live.index(v), i as u32);
                }
            }
        }
    }

    /// `(rounds, total_queries, total_writes)` — the model's cost — of two
    /// fixed instances.  Nothing in either driver iterates a hash container,
    /// so a change of hasher or container must leave these where they are; a
    /// change of algorithm that moves them should say so here.
    #[test]
    fn model_cost_of_connectivity_and_msf_is_pinned() {
        use ampc_graph::generators;
        let cost = |stats: &ampc_runtime::RunStats| {
            (
                stats.num_rounds(),
                stats.total_queries(),
                stats.total_writes(),
            )
        };
        let planted = generators::planted_components(3000, 5, 1200, 7);
        let gnm = generators::connected_gnm(2000, 6000, 11);
        let connectivity = |g| cost(&crate::connectivity(g, 0.5, 7).stats);
        assert_eq!(connectivity(&planted), (6, 7474, 30228));
        assert_eq!(connectivity(&gnm), (6, 7269, 26990));
        let msf = |g, seed| {
            let weighted = generators::with_random_weights(g, seed);
            cost(&crate::minimum_spanning_forest(&weighted, 0.5, 7).stats)
        };
        assert_eq!(msf(&planted, 13), (8, 89639, 35823));
        assert_eq!(msf(&gnm, 17), (16, 90735, 54784));
    }
}
