//! Constant-size keys and values.
//!
//! The AMPC model requires that every key-value pair stored in the DDS has
//! constant size: "both key and value consist of a constant number of words"
//! (Section 2 of the paper).  We encode keys as a small tag plus two 64-bit
//! words and values as two 64-bit words, which is enough for every algorithm
//! in the paper (adjacency entries, statuses, priorities, contracted edges,
//! list-ranking weights, …).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Namespace tag of a [`Key`].
///
/// Tags keep the key spaces of different per-round data disjoint, e.g. the
/// adjacency list of a vertex versus its MIS status.  Algorithms are free to
/// invent their own tags via [`KeyTag::Custom`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KeyTag {
    /// Degree of a vertex.
    Degree,
    /// The `i`-th entry of a vertex adjacency list.
    Adjacency,
    /// Cycle successor/predecessor of a vertex (used by `Shrink`).
    CycleNeighbors,
    /// "Is this vertex sampled in the current iteration?"
    Sampled,
    /// Random priority of a vertex (MIS, cycle connectivity).
    Priority,
    /// Settled status of a vertex (MIS).
    Status,
    /// Successor pointer of a list element (list ranking).
    Successor,
    /// Accumulated weight of a list element (list ranking).
    Weight,
    /// Component / leader label of a vertex.
    Label,
    /// Weighted adjacency entry (minimum spanning forest).
    WeightedAdjacency,
    /// Generic per-vertex scalar.
    Scalar,
    /// User-defined namespace.
    Custom(u16),
}

impl KeyTag {
    /// Stable numeric encoding used by hashing and the byte codec.
    #[inline]
    pub fn code(self) -> u32 {
        match self {
            KeyTag::Degree => 0,
            KeyTag::Adjacency => 1,
            KeyTag::CycleNeighbors => 2,
            KeyTag::Sampled => 3,
            KeyTag::Priority => 4,
            KeyTag::Status => 5,
            KeyTag::Successor => 6,
            KeyTag::Weight => 7,
            KeyTag::Label => 8,
            KeyTag::WeightedAdjacency => 9,
            KeyTag::Scalar => 10,
            KeyTag::Custom(c) => 0x1_0000 + c as u32,
        }
    }

    /// Inverse of [`KeyTag::code`] for codes a well-formed encoder can
    /// produce; `None` for the gap between the named tags and the
    /// `Custom` namespace.  Wire decoders use this so a corrupt frame
    /// surfaces as a decode error instead of a panic.
    #[inline]
    pub fn try_from_code(code: u32) -> Option<Self> {
        Some(match code {
            0 => KeyTag::Degree,
            1 => KeyTag::Adjacency,
            2 => KeyTag::CycleNeighbors,
            3 => KeyTag::Sampled,
            4 => KeyTag::Priority,
            5 => KeyTag::Status,
            6 => KeyTag::Successor,
            7 => KeyTag::Weight,
            8 => KeyTag::Label,
            9 => KeyTag::WeightedAdjacency,
            10 => KeyTag::Scalar,
            c if c >= 0x1_0000 => KeyTag::Custom((c - 0x1_0000) as u16),
            _ => return None,
        })
    }

    /// Inverse of [`KeyTag::code`], panicking on unassigned codes.  For
    /// trusted in-process codes only — untrusted input goes through
    /// [`KeyTag::try_from_code`].
    #[inline]
    pub fn from_code(code: u32) -> Self {
        // lint: allow(panic) — trusted-input inverse; wire decoding uses try_from_code
        Self::try_from_code(code).unwrap_or_else(|| panic!("invalid KeyTag code {code}"))
    }
}

/// A constant-size key: a namespace tag plus two 64-bit coordinates.
///
/// Typical uses: `Key::of(KeyTag::Degree, v)` for the degree of vertex `v`,
/// or `Key::with_index(KeyTag::Adjacency, v, i)` for the `i`-th neighbour of
/// `v`.  The model's multi-value addressing "(x, 1), …, (x, k)" maps onto the
/// store's per-key value lists (see [`crate::ShardedStore`]); the `b`
/// coordinate here is for keys that are *structurally* two-dimensional.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key {
    /// Namespace of the key.
    pub tag: KeyTag,
    /// Primary coordinate (usually a vertex or list-element id).
    pub a: u64,
    /// Secondary coordinate (usually an index within an adjacency list).
    pub b: u64,
}

impl Key {
    /// A one-dimensional key in namespace `tag`.
    #[inline]
    pub fn of(tag: KeyTag, a: u64) -> Self {
        Key { tag, a, b: 0 }
    }

    /// A two-dimensional key, e.g. `(Adjacency, v, i)`.
    #[inline]
    pub fn with_index(tag: KeyTag, a: u64, b: u64) -> Self {
        Key { tag, a, b }
    }

    /// The shard ("DDS machine") of `num_shards` responsible for this key —
    /// a pure function of the key, as the model's contention analysis
    /// requires, and the one placement every store and view agrees on.
    #[inline]
    pub(crate) fn shard(&self, num_shards: usize) -> usize {
        (crate::hashing::hash_words(self.tag.code(), self.a, self.b) % num_shards as u64) as usize
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?},{},{})", self.tag, self.a, self.b)
    }
}

/// A constant-size value: two 64-bit words.
///
/// Helpers cover the common shapes: a single scalar, a pair, or a
/// `(vertex, weight)` edge endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct Value {
    /// First word.
    pub x: u64,
    /// Second word.
    pub y: u64,
}

impl Value {
    /// A single-word value (second word zero).
    #[inline]
    pub fn scalar(x: u64) -> Self {
        Value { x, y: 0 }
    }

    /// A two-word value.
    #[inline]
    pub fn pair(x: u64, y: u64) -> Self {
        Value { x, y }
    }

    /// First word interpreted as a vertex id.
    #[inline]
    pub fn as_vertex(&self) -> u32 {
        self.x as u32
    }

    /// Both words as a `(u64, u64)` tuple.
    #[inline]
    pub fn as_pair(&self) -> (u64, u64) {
        (self.x, self.y)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::scalar(x)
    }
}

impl From<(u64, u64)> for Value {
    fn from((x, y): (u64, u64)) -> Self {
        Value::pair(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_tag_codes_round_trip() {
        let tags = [
            KeyTag::Degree,
            KeyTag::Adjacency,
            KeyTag::CycleNeighbors,
            KeyTag::Sampled,
            KeyTag::Priority,
            KeyTag::Status,
            KeyTag::Successor,
            KeyTag::Weight,
            KeyTag::Label,
            KeyTag::WeightedAdjacency,
            KeyTag::Scalar,
            KeyTag::Custom(0),
            KeyTag::Custom(42),
            KeyTag::Custom(u16::MAX),
        ];
        for tag in tags {
            assert_eq!(KeyTag::from_code(tag.code()), tag);
        }
    }

    #[test]
    fn key_equality_depends_on_all_fields() {
        let a = Key::with_index(KeyTag::Adjacency, 3, 1);
        let b = Key::with_index(KeyTag::Adjacency, 3, 2);
        let c = Key::with_index(KeyTag::Degree, 3, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Key::with_index(KeyTag::Adjacency, 3, 1));
    }

    #[test]
    fn value_helpers() {
        let v = Value::scalar(7);
        assert_eq!(v.as_pair(), (7, 0));
        let w = Value::pair(1, 2);
        assert_eq!(w.as_pair(), (1, 2));
        assert_eq!(w.as_vertex(), 1);
        let from: Value = 9u64.into();
        assert_eq!(from, Value::scalar(9));
        let from2: Value = (3u64, 4u64).into();
        assert_eq!(from2, Value::pair(3, 4));
    }

    #[test]
    fn key_display_is_compact() {
        let k = Key::with_index(KeyTag::Adjacency, 5, 2);
        assert_eq!(format!("{k}"), "(Adjacency,5,2)");
    }

    #[test]
    #[should_panic(expected = "invalid KeyTag code")]
    fn invalid_tag_code_panics() {
        let _ = KeyTag::from_code(999);
    }
}
