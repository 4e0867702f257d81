//! Union-find (disjoint set union) with path compression and union by rank.
//!
//! Used as the sequential ground truth for every connectivity-flavoured
//! algorithm in the workspace (connectivity, spanning forest, forest
//! connectivity, 2-edge connectivity), and internally by the graph
//! generators to plant components.

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression pass.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`.  Returns `true` if they were
    /// previously different sets.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Canonical labelling: every element mapped to the smallest element of
    /// its set.  Useful for comparing two component labellings for equality
    /// up to renaming.
    pub fn canonical_labels(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut min_of_root = vec![u32::MAX; n];
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if x < min_of_root[r] {
                min_of_root[r] = x;
            }
        }
        (0..n as u32)
            .map(|x| min_of_root[self.find(x) as usize])
            .collect()
    }
}

/// Normalise an arbitrary component labelling to "label = smallest vertex id
/// in the component", so two labellings can be compared directly.
///
/// Vertices are visited in ascending order, so the first vertex seen with a
/// label is the smallest of its class.  When every label is below
/// `labels.len()` (labels that are themselves vertex ids — every caller in
/// the workspace) that first vertex is kept in a table indexed by label;
/// otherwise the `(label, vertex)` pairs are sorted and each run of equal
/// labels starts with it.
pub fn canonicalize_labels(labels: &[u32]) -> Vec<u32> {
    let n = labels.len();
    assert!(u32::try_from(n).is_ok(), "vertex ids are u32");
    if labels.iter().all(|&l| (l as usize) < n) {
        let mut first_with_label = vec![u32::MAX; n];
        labels
            .iter()
            .enumerate()
            .map(|(v, &l)| {
                let first = &mut first_with_label[l as usize];
                if *first == u32::MAX {
                    *first = v as u32;
                }
                *first
            })
            .collect()
    } else {
        canonicalize_by_sorting(labels)
    }
}

/// [`canonicalize_labels`] for labels of any size.
fn canonicalize_by_sorting(labels: &[u32]) -> Vec<u32> {
    let mut by_label: Vec<(u32, u32)> = labels
        .iter()
        .enumerate()
        .map(|(v, &l)| (l, v as u32))
        .collect();
    by_label.sort_unstable();
    let mut canonical = vec![0u32; labels.len()];
    for class in by_label.chunk_by(|a, b| a.0 == b.0) {
        for &(_, v) in class {
            canonical[v as usize] = class[0].1;
        }
    }
    canonical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_disconnected() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.find(3), 3);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_merges_components() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.num_components(), 2);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 2));
        assert_eq!(uf.num_components(), 1);
        assert!(uf.connected(0, 3));
        assert!(!uf.union(0, 3), "already connected");
    }

    #[test]
    fn canonical_labels_use_smallest_member() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(3, 1);
        uf.union(0, 2);
        let labels = uf.canonical_labels();
        assert_eq!(labels, vec![0, 1, 0, 1, 4, 1]);
    }

    #[test]
    fn canonicalize_arbitrary_labels() {
        // Two labellings of the same partition must canonicalise identically.
        let a = vec![7, 7, 9, 9, 3];
        let b = vec![100, 100, 2, 2, 50];
        assert_eq!(canonicalize_labels(&a), canonicalize_labels(&b));
        assert_eq!(canonicalize_labels(&a), vec![0, 0, 2, 2, 4]);
    }

    #[test]
    fn canonicalize_labels_at_or_above_n() {
        // Labels that are not vertex ids take the sorting path.
        let labels = vec![u32::MAX, 5, u32::MAX, 5, 0, 1_000_000];
        assert_eq!(canonicalize_labels(&labels), vec![0, 1, 0, 1, 4, 5]);
        assert_eq!(canonicalize_labels(&[3]), vec![0]);
        assert!(canonicalize_labels(&[]).is_empty());
    }

    #[test]
    fn both_canonicalize_paths_agree_on_random_labellings() {
        // xorshift; labels below n, so both paths accept every labelling.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..200 {
            let n = 1 + next(64) as usize;
            let classes = 1 + next(n as u64);
            let labels: Vec<u32> = (0..n).map(|_| next(classes) as u32).collect();
            let table = canonicalize_labels(&labels);
            assert_eq!(table, canonicalize_by_sorting(&labels), "round {round}");
            // The definition: smallest vertex carrying the same label.
            for (v, &c) in table.iter().enumerate() {
                let smallest = labels.iter().position(|&l| l == labels[v]).unwrap();
                assert_eq!(c as usize, smallest, "round {round}, vertex {v}");
            }
        }
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..(n as u32 - 1) {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_components(), 1);
        assert_eq!(uf.find(n as u32 - 1), uf.find(0));
    }
}
