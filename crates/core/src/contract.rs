//! The contraction kernel the connectivity and MSF drivers share: what they
//! do between rounds, on dense arrays instead of a hash map per step.
//!
//! The live vertices of a contracted graph are a sorted subset of `0..n`, so
//! every per-vertex table of a phase is a `Vec` indexed by a vertex's
//! position in that subset, and the glue the paper runs "with standard MPC
//! primitives, such as sorting, duplicate removal" (Section 3) is literally
//! that: adjacency is one pass over the edge list that keeps each vertex's
//! least slots in a bounded heap, contraction is relabel + two stable
//! counting sorts + min-fold dedup.  No step compares whole edges to order
//! them, and none iterates a hash container, so the published adjacency —
//! and the model's query and write counts — depend on the input and the seed
//! alone.
//!
//! [`LiveSet::adjacency_pairs`] says why its rows need hold only a vertex's
//! `d − 1` best slots; [`LiveSet::contract`] says why the live set is
//! compacted before the sorts and why the dedup folds each parallel bundle
//! rather than keep its first edge.

use ampc_dds::{Key, Value};
use ampc_graph::UnionFind;

/// An edge of a contracted graph.  `Ord` picks the edge a parallel bundle
/// keeps — its least — and must tell any two distinct edges apart, so the
/// kept edge does not depend on the order the edges arrive in.
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
/// phase cap.  The `d²` holds with room to spare: a phase publishes at most
/// `d − 1` slots per vertex, so a search from one vertex reads at most
/// `d − 1` lists of `d − 1` slots each, `(d − 1)²` queries.
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
    /// `index_of[vertices[i]] == i`.  A vertex the last contraction removed
    /// holds its super-vertex's index; older entries are stale.
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
    /// ascending order, slot `j` of its adjacency under `slot_key(v, j)` as
    /// `value(slot)`, where an edge offers each endpoint the slot
    /// `slot(neighbour, edge)`.  A vertex publishes at most `keep` slots: its
    /// `keep` least, ascending.  A slot is its own rank, so no edge is read
    /// twice.
    /// The drivers pass a `slot_key` that ignores `j` — the vertex's list key
    /// — so slot `j` is value `j` of that one key: a key's values keep the
    /// order they were written in, and a vertex's slots are written in slot
    /// order, one after the other.  A search then reads a flight of slots
    /// with one lookup (`MachineContext::read_indexed_slice`).
    ///
    /// The kernel streams: a count pass sizes each live vertex's row at
    /// `min(degree, keep)`, one pass over `edges` offers each endpoint its
    /// slot, and each row is then sorted and emitted.  A row is a bounded
    /// max-heap: it fills by sift-up, and once full an offer replaces its
    /// root, and sifts down, only if it is less than the row's worst slot.
    /// Every offer costs `O(log keep)` whatever order the edges come in, so
    /// the pass is `O(m log keep)` at worst (every vertex's edges in
    /// descending slot order), and the rows hold `Σ min(degree, keep)` slots,
    /// never one per edge end.  Slots that tie are equal, and so publish
    /// equal values: which of them a row keeps changes no byte.
    ///
    /// Returns the pairs and the live vertices that publish at least one
    /// slot, ascending: the only ones a search from which can leave its
    /// start, so the only ones a driver hands to its machines.
    ///
    /// **Why the drivers pass `keep = d − 1`.**  A phase's search from `v`
    /// (bounded BFS, truncated Prim) stops once it holds `d` vertices.
    /// Every published graph is simple — `Graph` drops loops and duplicates,
    /// and [`LiveSet::contract`] dedups — so each entry the search reads
    /// (BFS) or pops (Prim) from `x`'s list names a distinct vertex other
    /// than `x`, and that vertex is in the ball or tree afterwards.  After
    /// `d − 1` such entries the search holds `d` vertices and stops:
    ///
    /// * BFS reads a list in slot order, and its `remaining_ball` clamp keeps
    ///   every read below slot `d − 1`, so ranking by neighbour id (the
    ///   order the sorted edge lists already give) changes no read;
    /// * Prim pops by `(weight, from, to, id)`, so an entry past `x`'s
    ///   `d − 1` lightest under `(weight, neighbour, original)` reaches the
    ///   heap top only after all `d − 1` lighter ones have been popped.
    ///
    /// `d − 2` is not enough: from the centre of a star, either search needs
    /// `d − 1` distinct leaves from one list.
    ///
    /// **Why no count is published.**  A vertex's slots are the dense prefix
    /// `0..k` with `k ≤ keep` (values `0..k` of its list key), so slot `j` is
    /// present exactly when `j < k`:
    /// the first absent slot a search reads ends the list where a count
    /// would have, and with `keep = d − 1` no search reads slot `d − 1` or
    /// beyond, so it never needs to learn `k` first.  A vertex with `k = 0`
    /// would pay absent reads to learn only that its ball or tree is itself;
    /// it is left out of the returned searchers instead.
    pub(crate) fn adjacency_pairs<E: ContractEdge, S: Ord + Copy + Default>(
        &self,
        edges: &[E],
        keep: usize,
        slot: impl Fn(u32, &E) -> S,
        slot_key: impl Fn(u32, usize) -> Key,
        value: impl Fn(S) -> Value,
    ) -> (Vec<(Key, Value)>, Vec<u32>) {
        assert!(u32::try_from(2 * edges.len()).is_ok(), "degrees are u32");
        // `offsets[i]..offsets[i + 1]` is the row of live index `i`, and
        // `filled[i]` the slots it holds so far.
        let mut offsets = vec![0u32; self.len() + 1];
        for e in edges {
            let (u, v) = e.ends();
            offsets[self.index(u) as usize + 1] += 1;
            offsets[self.index(v) as usize + 1] += 1;
        }
        let mut total = 0usize;
        for end in &mut offsets[1..] {
            total += (*end as usize).min(keep);
            *end = u32::try_from(total).expect("row offsets are u32");
        }
        let mut filled = vec![0u32; self.len()];
        let mut rows = vec![S::default(); total];
        for e in edges {
            let (u, v) = e.ends();
            for (at, neighbour) in [(u, v), (v, u)] {
                let i = self.index(at) as usize;
                let row = &mut rows[offsets[i] as usize..offsets[i + 1] as usize];
                offer(row, &mut filled[i], slot(neighbour, e));
            }
        }
        let mut pairs = Vec::with_capacity(total);
        let mut searchers = Vec::new();
        for (i, &v) in self.vertices.iter().enumerate() {
            let row = &mut rows[offsets[i] as usize..offsets[i + 1] as usize];
            if row.is_empty() {
                continue;
            }
            row.sort_unstable();
            searchers.push(v);
            pairs.extend((row.iter().enumerate()).map(|(j, &s)| (slot_key(v, j), value(s))));
        }
        (pairs, searchers)
    }

    /// Contract every group of `uf` (a union-find over live indices) onto its
    /// smallest vertex: `labels` (each a live vertex id) follow their vertex
    /// to its super-vertex, the live set shrinks to the super-vertices, and
    /// `edges` come back between super-vertices as `(min, max)`, sorted,
    /// without self-loops, and with only the `Ord`-least edge of each
    /// parallel bundle.
    ///
    /// Relabel + two stable counting sorts + min-fold dedup:
    ///
    /// * the live set is compacted first, and every vertex of the old set
    ///   gets its super-vertex's index in the *next* set in `index_of`: only
    ///   then is each end of a relabelled edge a dense key in `0..k` (`k`
    ///   super-vertices), the key range a counting sort needs;
    /// * a stable counting sort by `v`'s key, then one by `u`'s, puts the
    ///   edges in `(u, v)` order in O(m + k), comparing no two edges;
    /// * a stable sort leaves each parallel bundle in input order, not `Ord`
    ///   order, so a bundle's first edge is an arbitrary one: the dedup folds
    ///   each bundle to its minimum instead.  `Ord` tells apart every two
    ///   edges the drivers pass (`original` does, for weighted ones), so the
    ///   result is the one a comparison sort and keep-first would give.
    pub(crate) fn contract<E: ContractEdge>(
        &mut self,
        uf: &mut UnionFind,
        labels: &mut [u32],
        edges: impl IntoIterator<Item = E>,
    ) -> Vec<E> {
        debug_assert_eq!(uf.len(), self.len());
        // `next[i]` starts as the smallest live index of `i`'s group — its
        // super-vertex, as `vertices` is ascending — and becomes the
        // super-vertex's index in the next live set.  A group's smallest
        // index comes first, so it is rewritten before its members read it,
        // and the survivors compact in place, in order.
        let mut next = uf.canonical_labels();
        let mut kept = 0;
        for i in 0..next.len() {
            let v = self.vertices[i];
            let root = next[i] as usize;
            next[i] = if root == i {
                self.vertices[kept] = v;
                kept += 1;
                (kept - 1) as u32
            } else {
                next[root]
            };
            self.index_of[v as usize] = next[i];
        }
        self.vertices.truncate(kept);

        let (vertices, index_of) = (&self.vertices, &self.index_of);
        let dense = |v: u32| index_of[v as usize];
        let mut contracted: Vec<E> = edges
            .into_iter()
            .filter_map(|e| {
                let (u, v) = e.ends();
                let (iu, iv) = (dense(u), dense(v));
                (iu != iv).then(|| {
                    let (iu, iv) = (iu.min(iv), iu.max(iv));
                    e.with_ends(vertices[iu as usize], vertices[iv as usize])
                })
            })
            .collect();
        if contracted.len() > 1 {
            let mut scratch = contracted.clone();
            let mut offsets = vec![0u32; kept + 1];
            counting_sort(&contracted, &mut scratch, &mut offsets, |e| {
                dense(e.ends().1)
            });
            counting_sort(&scratch, &mut contracted, &mut offsets, |e| {
                dense(e.ends().0)
            });
        }
        contracted.dedup_by(|later, first| {
            let parallel = later.ends() == first.ends();
            if parallel {
                *first = (*first).min(*later);
            }
            parallel
        });
        for label in labels.iter_mut() {
            *label = vertices[dense(*label) as usize];
        }
        contracted
    }
}

/// Stable counting sort of `from` into `into` (the same length) by `key`,
/// which lies in `0..offsets.len() - 1`; `offsets` is the caller's scratch.
fn counting_sort<E: Copy>(
    from: &[E],
    into: &mut [E],
    offsets: &mut [u32],
    key: impl Fn(&E) -> u32,
) {
    debug_assert_eq!(from.len(), into.len());
    assert!(u32::try_from(from.len()).is_ok(), "edge positions are u32");
    offsets.fill(0);
    for e in from {
        offsets[key(e) as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    for e in from {
        let at = &mut offsets[key(e) as usize];
        into[*at as usize] = *e;
        *at += 1;
    }
}

/// Offer `slot` to `row`, a bounded max-heap of which `filled` slots are
/// taken: a row with room takes it by sift-up; a full one only if it is less
/// than the root, its worst slot, which it replaces before sifting down.
fn offer<S: Ord + Copy>(row: &mut [S], filled: &mut u32, slot: S) {
    let len = *filled as usize;
    if len < row.len() {
        let mut at = len;
        while at > 0 && row[(at - 1) / 2] < slot {
            row[at] = row[(at - 1) / 2];
            at = (at - 1) / 2;
        }
        row[at] = slot;
        *filled += 1;
    } else if row.first().is_some_and(|&worst| slot < worst) {
        let mut at = 0;
        loop {
            let left = 2 * at + 1;
            let Some(&larger) = row.get(left) else { break };
            let (child, larger) = match row.get(left + 1) {
                Some(&right) if right > larger => (left + 1, right),
                _ => (left, larger),
            };
            if larger <= slot {
                break;
            }
            row[at] = larger;
            at = child;
        }
        row[at] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{adjacency_key, adjacency_list_key, encode_weighted_neighbor};
    use ampc_dds::KeyTag;
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

    impl LiveSet {
        /// [`LiveSet::contract`] as it was before the counting sorts, kept
        /// as its reference: relabel through the old live set, a comparison
        /// sort, and a keep-first dedup (`Ord` sorts a bundle's least edge
        /// first).
        fn reference_contract<E: ContractEdge>(
            &mut self,
            uf: &mut UnionFind,
            labels: &mut [u32],
            edges: impl IntoIterator<Item = E>,
        ) -> Vec<E> {
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

        /// [`LiveSet::adjacency_pairs`] as it was before it streamed, kept
        /// as its reference: every slot laid out in a CSR by a stable
        /// counting sort over `edges`, then per vertex a selection of its
        /// `keep` lowest under `rank` (which reads the slot's edge again) and
        /// a sort of those.
        fn reference_adjacency_pairs<E: ContractEdge, R: Ord>(
            &self,
            edges: &[E],
            keep: usize,
            rank: impl Fn(u32, &E) -> R,
            slot_key: impl Fn(u32, usize) -> Key,
            slot_value: impl Fn(u32, &E) -> Value,
        ) -> (Vec<(Key, Value)>, Vec<u32>) {
            let slot_count = u32::try_from(2 * edges.len()).expect("slot offsets are u32");
            // `offsets[i]..offsets[i + 1]` are the slots of live index `i`.
            let mut offsets = vec![0u32; self.len() + 1];
            for e in edges {
                let (u, v) = e.ends();
                offsets[self.index(u) as usize + 1] += 1;
                offsets[self.index(v) as usize + 1] += 1;
            }
            let mut published = 0;
            for i in 0..self.len() {
                published += (offsets[i + 1] as usize).min(keep);
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
            let slot_rank = |&(neighbour, id): &(u32, u32)| rank(neighbour, &edges[id as usize]);
            let mut pairs = Vec::with_capacity(published);
            let mut searchers = Vec::new();
            for (i, &v) in self.vertices.iter().enumerate() {
                let all = &mut slots[offsets[i] as usize..offsets[i + 1] as usize];
                let kept = if all.len() > keep {
                    all.select_nth_unstable_by_key(keep, slot_rank);
                    let kept = &mut all[..keep];
                    debug_assert!(
                        (kept.iter().enumerate())
                            .all(|(j, &(u, _))| u != v && kept[..j].iter().all(|&(w, _)| w != u)),
                        "the kept slots of {v} repeat a neighbour: its list is not simple"
                    );
                    kept
                } else {
                    all
                };
                if kept.is_empty() {
                    continue;
                }
                kept.sort_unstable_by_key(slot_rank);
                searchers.push(v);
                pairs.extend(kept.iter().enumerate().map(|(j, &(neighbour, id))| {
                    (slot_key(v, j), slot_value(neighbour, &edges[id as usize]))
                }));
            }
            (pairs, searchers)
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

    /// The scatter, one map per vertex: slots in push order (`u` gets `v`,
    /// then `v` gets `u`, edge by edge), sorted stably by `rank` and cut to
    /// `keep`, each published as `(neighbour, original)` and no count; and
    /// the vertices that publish a slot.
    #[allow(clippy::type_complexity)]
    fn model_pairs<R: Ord>(
        live: &[u32],
        edges: &[Weighted],
        keep: usize,
        rank: impl Fn(u32, &Weighted) -> R,
    ) -> (Vec<(Key, Value)>, Vec<u32>) {
        let mut adjacency: BTreeMap<u32, Vec<(u32, &Weighted)>> =
            live.iter().map(|&v| (v, Vec::new())).collect();
        for e in edges {
            adjacency.get_mut(&e.0).unwrap().push((e.1, e));
            adjacency.get_mut(&e.1).unwrap().push((e.0, e));
        }
        let (mut pairs, mut searchers) = (Vec::new(), Vec::new());
        for (v, mut slots) in adjacency {
            slots.sort_by_key(|&(neighbour, e)| rank(neighbour, e));
            slots.truncate(keep);
            if !slots.is_empty() {
                searchers.push(v);
            }
            for (j, (neighbour, e)) in slots.into_iter().enumerate() {
                pairs.push((adjacency_key(v, j), slot_value(neighbour, e)));
            }
        }
        (pairs, searchers)
    }

    fn slot_value(neighbour: u32, e: &Weighted) -> Value {
        Value::pair(neighbour as u64, e.3 as u64)
    }

    /// MSF's slot, `(weight, neighbour, original)`: the order its candidate
    /// heap pops one vertex's entries in.
    fn lightest(neighbour: u32, e: &Weighted) -> (u64, u32, u32) {
        (e.2, neighbour, e.3)
    }

    /// [`lightest`]'s slot as MSF publishes it.
    fn lightest_value((weight, neighbour, original): (u64, u32, u32)) -> Value {
        encode_weighted_neighbor(neighbour, original, weight)
    }

    /// Connectivity's slot: the neighbour, the order a bounded BFS reads.
    fn first(neighbour: u32, _: &Weighted) -> u32 {
        neighbour
    }

    /// [`first`]'s slot as connectivity publishes it.
    fn first_value(neighbour: u32) -> Value {
        Value::scalar(neighbour as u64)
    }

    /// `live`'s adjacency over the simple edge list `edges`, streamed from
    /// the edges as given, reversed, and sorted so that every vertex's slots
    /// arrive in descending order — the heap's worst path, where each offer
    /// to a full row replaces its root — equals the CSR + selection
    /// kernel's: the same pairs, in the same order, and the same searchers.
    /// `descending` orders the edges so, for `slot`; the test checks that it
    /// does.
    fn assert_streams_like_the_reference<S, K>(
        live: &LiveSet,
        edges: &[Weighted],
        keep: usize,
        slot: impl Fn(u32, &Weighted) -> S + Copy,
        value: impl Fn(S) -> Value + Copy,
        descending: impl Fn(&Weighted) -> K,
    ) where
        S: Ord + Copy + Default + std::fmt::Debug,
        K: Ord,
    {
        let expected = live
            .reference_adjacency_pairs(edges, keep, slot, adjacency_key, |u, e| value(slot(u, e)));
        let reversed: Vec<Weighted> = edges.iter().rev().copied().collect();
        let mut worst_first = edges.to_vec();
        worst_first.sort_by_key(|e| std::cmp::Reverse(descending(e)));
        let mut last: BTreeMap<u32, S> = BTreeMap::new();
        for e in &worst_first {
            for (at, neighbour) in [(e.0, e.1), (e.1, e.0)] {
                let offered = slot(neighbour, e);
                let earlier = last.insert(at, offered);
                assert!(
                    earlier.is_none_or(|earlier| offered < earlier),
                    "{at}: {offered:?}"
                );
            }
        }
        for (order, edges) in [
            ("given", edges),
            ("reversed", &reversed),
            ("worst first", &worst_first),
        ] {
            let streamed = live.adjacency_pairs(edges, keep, slot, adjacency_key, value);
            assert_eq!(streamed, expected, "{order} order, keep {keep}");
        }
    }

    /// [`assert_streams_like_the_reference`] under both drivers' slots.
    fn assert_both_slots_stream_like_the_reference(
        live: &LiveSet,
        edges: &[Weighted],
        keep: usize,
    ) {
        let ends = |e: &Weighted| (e.0.max(e.1), e.0.min(e.1));
        assert_streams_like_the_reference(live, edges, keep, first, first_value, ends);
        let by_weight = |e: &Weighted| (e.2, ends(e), e.3);
        assert_streams_like_the_reference(live, edges, keep, lightest, lightest_value, by_weight);
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
        /// agree on adjacency (every slot, and a ranked prefix of `keep`),
        /// next live set, labels and contracted edges.
        #[test]
        fn kernel_matches_the_map_per_step_driver(
            n in 1usize..48,
            phases in arbitrary_phases(),
            keep in 1usize..6,
        ) {
            let mut live = LiveSet::all(n);
            let mut labels: Vec<u32> = (0..n as u32).collect();
            for (raw_edges, raw_unions) in phases {
                let before: Vec<u32> = live.vertices.clone();
                let pick = |raw: u32| before[raw as usize % before.len()];
                let edges: Vec<Weighted> = raw_edges
                    .iter()
                    .enumerate()
                    .map(|(id, &(a, b, weight))| (pick(a), pick(b), weight, id as u32))
                    .collect();
                let unions: Vec<(u32, u32)> =
                    raw_unions.iter().map(|&(a, b)| (pick(a), pick(b))).collect();

                // Every slot, in edge-list order (each slot's value names its
                // edge), and the scatter walks the vertices in ascending order.
                let by_edge = |neighbour: u32, e: &Weighted| (e.3, neighbour);
                let as_pair = |(id, neighbour): (u32, u32)| {
                    Value::pair(neighbour as u64, id as u64)
                };
                let pairs =
                    live.adjacency_pairs(&edges, usize::MAX, by_edge, adjacency_key, as_pair);
                prop_assert_eq!(pairs, model_pairs(&before, &edges, usize::MAX, |_, e| e.3));

                // On the simple part of the graph, as MSF publishes it: each
                // vertex's `keep` slots lowest by `(weight, neighbour,
                // original)`, in that order.
                let mut seen = BTreeSet::new();
                let simple: Vec<Weighted> = (edges.iter().copied())
                    .filter(|&(u, v, ..)| u != v && seen.insert((u.min(v), u.max(v))))
                    .collect();
                let as_pair = |(_, neighbour, id): (u64, u32, u32)| {
                    Value::pair(neighbour as u64, id as u64)
                };
                let pairs = live.adjacency_pairs(&simple, keep, lightest, adjacency_key, as_pair);
                prop_assert_eq!(pairs, model_pairs(&before, &simple, keep, lightest));

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
                prop_assert_eq!(&live.vertices, &next_live);
                prop_assert_eq!(&unweighted.vertices, &next_live);
                prop_assert_eq!(&labels, &next_labels);
                prop_assert_eq!(&scratch_labels, &next_labels);
                for (i, &v) in next_live.iter().enumerate() {
                    prop_assert_eq!(live.index(v), i as u32);
                }
            }
        }

        /// Phase after phase, on simple edge lists with weight ties over the
        /// live set the earlier phases' contractions left: the streaming
        /// kernel equals the CSR + selection kernel it replaced under both
        /// drivers' slots, whatever order the edges come in, at every `keep`
        /// up to 6 and with no cap.
        #[test]
        fn streamed_prefix_equals_the_csr_selection_in_any_edge_order(
            n in 1usize..48,
            phases in arbitrary_phases(),
            keep in (1usize..8).prop_map(|keep| if keep == 7 { usize::MAX } else { keep }),
        ) {
            let mut live = LiveSet::all(n);
            let mut labels: Vec<u32> = (0..n as u32).collect();
            for (raw_edges, raw_unions) in phases {
                let before: Vec<u32> = live.vertices.clone();
                let pick = |raw: u32| before[raw as usize % before.len()];
                let mut seen = BTreeSet::new();
                let edges: Vec<Weighted> = (raw_edges.iter().zip(0u32..))
                    .map(|(&(a, b, weight), id)| (pick(a), pick(b), weight, id))
                    .filter(|&(u, v, ..)| u != v && seen.insert((u.min(v), u.max(v))))
                    .collect();
                assert_both_slots_stream_like_the_reference(&live, &edges, keep);

                let mut uf = UnionFind::new(before.len());
                for &(a, b) in &raw_unions {
                    uf.union(live.index(pick(a)), live.index(pick(b)));
                }
                live.contract(&mut uf, &mut labels, edges);
            }
        }
    }

    /// What a phase publishes, on sparse graphs with edgeless vertices and
    /// at every `keep`: no count (no `KeyTag::Degree` key), each vertex's
    /// slots exactly `0..k` with `k = min(degree, keep)`, and as searchers
    /// exactly the vertices with `k > 0`.  Under the vertex's list key, as
    /// the drivers publish, the same values come in the same order, each
    /// vertex's `k` of them one after the other: values `0..k` of the key.
    #[test]
    fn adjacency_pairs_publish_a_dense_prefix_and_no_count() {
        for seed in 0..3 {
            let graph = ampc_graph::generators::erdos_renyi_gnm(300, 300, seed);
            let edges: Vec<(u32, u32)> = graph.edges().iter().map(|e| (e.u, e.v)).collect();
            let live = LiveSet::all(graph.num_vertices());
            for keep in 1..=6 {
                let (pairs, searchers) = live.adjacency_pairs(
                    &edges,
                    keep,
                    |neighbour, _| neighbour,
                    adjacency_key,
                    |neighbour| Value::scalar(neighbour as u64),
                );
                assert!(pairs.iter().all(|(key, _)| key.tag != KeyTag::Degree));
                let mut slots: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
                for (key, _) in &pairs {
                    assert_eq!(key.tag, KeyTag::Adjacency);
                    slots.entry(key.a as u32).or_default().push(key.b);
                }
                for v in 0..graph.num_vertices() as u32 {
                    let k = graph.degree(v).min(keep) as u64;
                    let published = slots.get(&v).map_or(&[][..], |s| &s[..]);
                    assert_eq!(
                        published,
                        (0..k).collect::<Vec<_>>(),
                        "seed {seed}, keep {keep}, {v}"
                    );
                }
                let expected: Vec<u32> = slots.keys().copied().collect();
                assert_eq!(searchers, expected, "seed {seed}, keep {keep}");
                let (listed, list_searchers) = live.adjacency_pairs(
                    &edges,
                    keep,
                    |neighbour, _| neighbour,
                    |v, _| adjacency_list_key(v),
                    |neighbour| Value::scalar(neighbour as u64),
                );
                let relisted: Vec<(Key, Value)> = (pairs.iter())
                    .map(|&(key, value)| (adjacency_list_key(key.a as u32), value))
                    .collect();
                assert_eq!(listed, relisted, "seed {seed}, keep {keep}");
                assert_eq!(list_searchers, searchers, "seed {seed}, keep {keep}");
                assert!(
                    searchers.len() < graph.num_vertices(),
                    "seed {seed}: no edgeless vertex"
                );
            }
        }
    }

    /// A large phase, three times over: gnm with n = 4 096 and m = 4n, in
    /// shuffled order, weights from four values, and random unions over
    /// half the live set, so weight ties and parallel bundles are common and
    /// a bundle's first edge in input order is rarely its least.  The
    /// counting-sort kernel equals the comparison sort it replaced in edges,
    /// labels and live set, unweighted and weighted.
    #[test]
    fn contract_equals_the_comparison_sort_on_a_large_phase() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let n = 4096;
        let graph = ampc_graph::generators::erdos_renyi_gnm(n, 4 * n, 2019);
        let mut rng = StdRng::seed_from_u64(36);
        let mut edges: Vec<Weighted> = (graph.edges().iter().zip(0u32..))
            .map(|(e, original)| (e.u, e.v, rng.gen_range(0u64..4), original))
            .collect();
        let (mut live, mut reference) = (LiveSet::all(n), LiveSet::all(n));
        let mut labels: Vec<u32> = (0..n as u32).map(|v| v ^ 1).collect();
        let mut reference_labels = labels.clone();
        for phase in 0..3 {
            edges.shuffle(&mut rng);
            let k = live.len() as u32;
            let mut uf = UnionFind::new(k as usize);
            for _ in 0..k / 2 {
                uf.union(rng.gen_range(0..k), rng.gen_range(0..k));
            }

            let ends = || edges.iter().map(|e| e.ends());
            let unweighted = live
                .clone()
                .contract(&mut uf.clone(), &mut labels.clone(), ends());
            let expected = (reference.clone()).reference_contract(
                &mut uf.clone(),
                &mut labels.clone(),
                ends(),
            );
            assert_eq!(unweighted, expected, "phase {phase}: unweighted edges");

            let contracted = live.contract(&mut uf.clone(), &mut labels, edges.iter().copied());
            let expected =
                reference.reference_contract(&mut uf, &mut reference_labels, edges.iter().copied());
            assert_eq!(contracted, expected, "phase {phase}: weighted edges");
            // A keep-first dedup would differ: many a bundle's first edge in
            // input order is not its least.
            let super_of = |v: u32| live.vertices[live.index_of[v as usize] as usize];
            let mut first = BTreeMap::new();
            for &(u, v, weight, original) in &edges {
                let (su, sv) = (super_of(u), super_of(v));
                if su != sv {
                    first
                        .entry((su.min(sv), su.max(sv)))
                        .or_insert((weight, original));
                }
            }
            let not_first = (contracted.iter())
                .filter(|&&(u, v, weight, original)| first[&(u, v)] != (weight, original))
                .count();
            assert!(not_first > 100, "phase {phase}: {not_first} bundles");
            assert_eq!(labels, reference_labels, "phase {phase}: labels");
            assert_eq!(live.vertices, reference.vertices, "phase {phase}: live set");
            for (i, &v) in live.vertices.iter().enumerate() {
                assert_eq!(live.index(v), i as u32);
            }
            edges = contracted;
        }
    }

    /// A large phase, three times over, as in
    /// `contract_equals_the_comparison_sort_on_a_large_phase`: gnm with
    /// n = 4 096 and m = 4n, shuffled, weights from four values, contracted
    /// by random unions between phases.  At `keep` 1, 2, 15 and 255, under
    /// both drivers' slots and in every edge order, the streaming kernel's
    /// output is byte-identical to the CSR + selection kernel's.
    #[test]
    fn streamed_prefix_equals_the_csr_selection_on_a_large_phase() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let n = 4096;
        let graph = ampc_graph::generators::erdos_renyi_gnm(n, 4 * n, 2019);
        let mut rng = StdRng::seed_from_u64(39);
        let mut edges: Vec<Weighted> = (graph.edges().iter().zip(0u32..))
            .map(|(e, original)| (e.u, e.v, rng.gen_range(0u64..4), original))
            .collect();
        let mut live = LiveSet::all(n);
        let mut labels: Vec<u32> = (0..n as u32).collect();
        for _ in 0..3 {
            edges.shuffle(&mut rng);
            for keep in [1, 2, 15, 255] {
                assert_both_slots_stream_like_the_reference(&live, &edges, keep);
            }
            let k = live.len() as u32;
            let mut uf = UnionFind::new(k as usize);
            for _ in 0..k / 2 {
                uf.union(rng.gen_range(0..k), rng.gen_range(0..k));
            }
            edges = live.contract(&mut uf, &mut labels, edges);
        }
    }

    /// `(rounds, total_queries, total_writes)` — the model's cost — of two
    /// fixed instances.  Nothing in either driver iterates a hash container,
    /// so a change of hasher or container must leave these where they are; a
    /// change of algorithm that moves them should say so here.  Publishing
    /// only each vertex's `d − 1` first (connectivity) or lightest (MSF)
    /// slots moved the writes of both, and MSF's queries and gnm rounds: no
    /// Prim reads past its prefix, so the query cap no longer cuts one short.
    /// Publishing no count, and searching only from vertices with an edge,
    /// moved every query and write count and no round count: a phase writes
    /// `|live|` fewer pairs, and no search reads a count.  Publishing each
    /// vertex's slots as the values of one list key moved none: a flight of
    /// `k` values counts `k` queries, as `k` slot keys did.
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
        // Sparse: m = n, so many vertices have no edge at all.
        let sparse = generators::erdos_renyi_gnm(4096, 4096, 3);
        let connectivity = |g| cost(&crate::connectivity(g, 0.5, 7).stats);
        assert_eq!(connectivity(&planted), (6, 3992, 3960));
        assert_eq!(connectivity(&gnm), (6, 5039, 4985));
        assert_eq!(connectivity(&sparse), (8, 6937, 5768));
        let msf = |g, seed| {
            let weighted = generators::with_random_weights(g, seed);
            cost(&crate::minimum_spanning_forest(&weighted, 0.5, 7).stats)
        };
        assert_eq!(msf(&planted, 13), (8, 7464, 4880));
        assert_eq!(msf(&gnm, 17), (6, 12312, 5047));
        assert_eq!(msf(&sparse, 13), (8, 8817, 5556));
    }
}
