//! Constant-size keys and values.
//!
//! The AMPC model requires that every key-value pair stored in the DDS has
//! constant size: "both key and value consist of a constant number of words"
//! (Section 2 of the paper).  We encode keys as a small tag plus two 64-bit
//! words and values as two 64-bit words, which is enough for every algorithm
//! in the paper (adjacency entries, statuses, priorities, contracted edges,
//! list-ranking weights, …).
//!
//! A key has **one** 64-bit hash, `hash_words(tag.code(), a, b)`, computed
//! once per lookup and read two ways that do not lean on the same bits: the
//! shard pick takes it modulo the shard count, and the shard's directory
//! takes its bucket from the top bits of the folded word, which the shard
//! pick cannot pin (the split is in [`crate::hashing`]).

use std::fmt;

/// Namespace tag of a [`Key`].
///
/// Tags keep the key spaces of different per-round data disjoint, e.g. the
/// adjacency list of a vertex versus its MIS status.  Algorithms are free to
/// invent their own tags via [`KeyTag::Custom`].
///
/// A named tag's discriminant is its [`KeyTag::code`], so the code every key
/// digest starts from is read off the tag, not looked up.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(u8)]
pub enum KeyTag {
    /// Degree of a vertex.
    Degree = 0,
    /// The `i`-th entry of a vertex adjacency list.
    Adjacency = 1,
    /// A live cycle vertex's one record (`Shrink`): neighbours and a mark.
    CycleNeighbors = 2,
    /// Settled status of a vertex (MIS).
    Status = 5,
    /// A list element's record (list ranking): its successor and sample
    /// mark in `x`, the weight of its outgoing link in `y`.
    Successor = 6,
    /// Component / leader label of a vertex.
    Label = 8,
    /// Weighted adjacency entry (minimum spanning forest).
    WeightedAdjacency = 9,
    /// Generic per-vertex scalar.
    Scalar = 10,
    /// User-defined namespace.
    Custom(u16) = 11,
}

impl KeyTag {
    /// Every tag but `Custom`, in code order.
    pub const NAMED: [KeyTag; 8] = [
        KeyTag::Degree,
        KeyTag::Adjacency,
        KeyTag::CycleNeighbors,
        KeyTag::Status,
        KeyTag::Successor,
        KeyTag::Label,
        KeyTag::WeightedAdjacency,
        KeyTag::Scalar,
    ];

    /// Stable numeric encoding used by hashing and the byte codec.  Codes
    /// 3, 4 and 7 named tags no algorithm writes any more (a sample mark, a
    /// priority, a list weight); they stay reserved and are never reused.
    #[inline]
    pub fn code(self) -> u32 {
        match self {
            KeyTag::Degree => 0,
            KeyTag::Adjacency => 1,
            KeyTag::CycleNeighbors => 2,
            KeyTag::Status => 5,
            KeyTag::Successor => 6,
            KeyTag::Label => 8,
            KeyTag::WeightedAdjacency => 9,
            KeyTag::Scalar => 10,
            KeyTag::Custom(c) => 0x1_0000 + c as u32,
        }
    }

    /// Inverse of [`KeyTag::code`] for codes a well-formed encoder can
    /// produce; `None` for the gap between the named tags and the
    /// `Custom` namespace and for everything past it, so no two codes name
    /// one tag.  Wire decoders use this so a corrupt frame surfaces as a
    /// decode error instead of a panic — or of a different, valid key.
    #[inline]
    pub fn try_from_code(code: u32) -> Option<Self> {
        Some(match code {
            0 => KeyTag::Degree,
            1 => KeyTag::Adjacency,
            2 => KeyTag::CycleNeighbors,
            5 => KeyTag::Status,
            6 => KeyTag::Successor,
            8 => KeyTag::Label,
            9 => KeyTag::WeightedAdjacency,
            10 => KeyTag::Scalar,
            c @ 0x1_0000..=0x1_FFFF => KeyTag::Custom((c - 0x1_0000) as u16),
            _ => return None,
        })
    }

    /// Inverse of [`KeyTag::code`], panicking on unassigned codes.  For
    /// trusted in-process codes only — untrusted input goes through
    /// [`KeyTag::try_from_code`].
    #[inline]
    pub fn from_code(code: u32) -> Self {
        #[allow(
            clippy::panic,
            reason = "trusted-input inverse; wire decoding uses try_from_code"
        )]
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
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

    /// The key's one 64-bit hash; `tag.code()` is injective, so equal
    /// digests are all that equal keys need.  A lookup computes it once,
    /// for [`shard_of`] and for the shard's directory bucket.
    #[inline]
    pub(crate) fn digest(&self) -> u64 {
        crate::hashing::hash_words(self.tag.code(), self.a, self.b)
    }

    /// The shard ("DDS machine") of `num_shards` responsible for this key:
    /// [`shard_of`] its digest.
    #[inline]
    pub(crate) fn shard(&self, num_shards: usize) -> usize {
        shard_of(self.digest(), num_shards)
    }
}

/// The shard of `num_shards` holding the key with `digest` — a pure
/// function of the key, as the model's contention analysis requires, and
/// the one placement every store and view agrees on.  Frozen: per-shard
/// loads, the lease's shard ranges and replay between binaries of different
/// versions all lean on it (golden test below).
#[inline]
pub(crate) fn shard_of(digest: u64, num_shards: usize) -> usize {
    (digest % num_shards as u64) as usize
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
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
    use crate::hashing::hash_words;

    /// Every named tag and the corners of the `Custom` namespace.
    fn tags() -> impl Iterator<Item = KeyTag> {
        let customs = [0, 42, u16::MAX].map(KeyTag::Custom);
        KeyTag::NAMED.into_iter().chain(customs)
    }

    #[test]
    fn key_tag_codes_round_trip() {
        for tag in tags() {
            assert_eq!(KeyTag::from_code(tag.code()), tag);
        }
        for pair in KeyTag::NAMED.windows(2) {
            assert!(pair[0].code() < pair[1].code(), "{pair:?}");
        }
        // No second spelling: codes in the gap or past the `Custom`
        // namespace name nothing (they once wrapped onto `Custom(c as u16)`).
        for code in [11, 0xFFFF, 0x2_0000, 0x2_000A, u32::MAX] {
            assert_eq!(KeyTag::try_from_code(code), None, "{code:#x}");
        }
    }

    #[test]
    fn retired_tag_codes_stay_reserved() {
        for code in [3, 4, 7] {
            assert_eq!(KeyTag::try_from_code(code), None, "code {code}");
        }
    }

    /// Placement is frozen: these shards were computed at the commit before
    /// the in-table hash was split from the shard pick, and per-shard loads,
    /// the lease's shard ranges and replay across binaries lean on them.
    #[test]
    fn shard_placement_matches_the_golden_vectors() {
        const SHARD_COUNTS: [usize; 4] = [1, 7, 412, 1024];
        let golden: [(Key, [usize; 4]); 9] = [
            (Key::of(KeyTag::Degree, 0), [0, 0, 0, 0]),
            (Key::of(KeyTag::Degree, 65_535), [0, 3, 278, 262]),
            (Key::with_index(KeyTag::Adjacency, 17, 3), [0, 5, 37, 497]),
            (
                Key::with_index(KeyTag::WeightedAdjacency, 40_000, 11),
                [0, 1, 107, 795],
            ),
            (Key::of(KeyTag::Label, u64::MAX), [0, 5, 70, 402]),
            (Key::of(KeyTag::Scalar, 1 << 40), [0, 3, 9, 305]),
            (Key::of(KeyTag::Custom(0), 5), [0, 5, 262, 970]),
            (
                Key::with_index(KeyTag::Custom(7), 123_456, 2),
                [0, 3, 145, 625],
            ),
            (Key::of(KeyTag::Custom(u16::MAX), 9), [0, 4, 295, 1007]),
        ];
        for (key, shards) in golden {
            for (num_shards, shard) in SHARD_COUNTS.into_iter().zip(shards) {
                assert_eq!(key.shard(num_shards), shard, "{key} at {num_shards} shards");
            }
        }
    }

    #[test]
    fn digest_is_a_pure_function_of_code_and_coordinates() {
        let coordinates = [0u64, 1, 42, u64::MAX];
        let mut keys = Vec::new();
        for tag in tags() {
            for a in coordinates {
                for b in coordinates {
                    let key = Key::with_index(tag, a, b);
                    let digest = hash_words(tag.code(), a, b);
                    assert_eq!(key.digest(), digest, "{key}");
                    // The same digest whichever way the key was built…
                    let rebuilt = Key::with_index(KeyTag::from_code(tag.code()), a, b);
                    assert_eq!(rebuilt.digest(), digest);
                    // …and the shard pick reads it.
                    assert_eq!(key.shard(1021), (digest % 1021) as usize);
                    keys.push(key);
                }
            }
        }
        // The digest agrees with the derived `Eq` / `Ord`: equal keys have
        // equal digests, and keys are equal exactly when (code, a, b) are.
        for k1 in &keys {
            for k2 in &keys {
                let same = (k1.tag.code(), k1.a, k1.b) == (k2.tag.code(), k2.a, k2.b);
                assert_eq!(k1 == k2, same);
                assert_eq!(k1.cmp(k2) == std::cmp::Ordering::Equal, same);
                if k1 == k2 {
                    assert_eq!(k1.digest(), k2.digest());
                }
            }
        }
    }

    /// The property the split exists for.  A shard's directory takes a
    /// key's bucket from the top bits of the folded digest, among
    /// `keys.next_power_of_two()` buckets; the keys of one shard all agree
    /// on `digest % num_shards`.  At 2ᵏ shard counts and at the primes just
    /// below them, one shard's keys must still spread over its directory's
    /// buckets: at least half as many distinct ones as uniform hashing
    /// would give.  Indexed by the digest's low bits, a 1024-shard store
    /// puts every key of a shard on **one** bucket.
    #[test]
    fn one_shards_keys_spread_over_its_directorys_buckets() {
        const KEYS_PER_SHARD: u64 = 512;
        type Family = (&'static str, fn(u64) -> Key);
        // The keys the algorithms publish, `j` running over vertices or
        // over (vertex, slot) pairs of degree-8 adjacency lists.
        let families: [Family; 4] = [
            ("Degree(v)", |j| Key::of(KeyTag::Degree, j)),
            ("Adjacency(v, i)", |j| {
                Key::with_index(KeyTag::Adjacency, j / 8, j % 8)
            }),
            ("WeightedAdjacency(v, i)", |j| {
                Key::with_index(KeyTag::WeightedAdjacency, j / 8, j % 8)
            }),
            ("Custom(7)(v)", |j| Key::of(KeyTag::Custom(7), j)),
        ];
        let distinct = |values: &mut Vec<u64>| {
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        for num_shards in [509usize, 512, 1021, 1024] {
            for (name, family) in families {
                let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); num_shards];
                for j in 0..KEYS_PER_SHARD * num_shards as u64 {
                    let key = family(j);
                    per_shard[key.shard(num_shards)].push(key.digest());
                }
                for (shard, digests) in per_shard.iter().enumerate() {
                    let keys = digests.len();
                    assert!(
                        keys >= 384,
                        "{name}: shard {shard}/{num_shards} is underfull"
                    );
                    let buckets = keys.next_power_of_two();
                    let used = distinct(
                        &mut digests
                            .iter()
                            .map(|&digest| crate::slot::bucket(digest, buckets) as u64)
                            .collect(),
                    );
                    let uniform =
                        buckets as f64 * (1.0 - (1.0 - 1.0 / buckets as f64).powi(keys as i32));
                    assert!(
                        used as f64 >= uniform / 2.0,
                        "{name}: the {keys} keys of shard {shard}/{num_shards} sit in {used} \
                         of {buckets} buckets (uniform hashing: {uniform:.0})"
                    );
                }
            }
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
