//! Fast, deterministic hashing for DDS keys.
//!
//! The DDS is a hash-sharded store, and every algorithm in the paper issues
//! millions of point lookups, so hashing is on the hot path.  The default
//! SipHash hasher of `std::collections::HashMap` is unnecessarily slow for
//! our short, fixed-size keys; we use an Fx-style multiplicative hasher
//! (the same construction used inside rustc) implemented locally so the
//! workspace needs no extra dependency.  Determinism also matters: shard
//! assignment must be a pure function of the key so that repeated runs and
//! restarted machines observe identical placements, which is what the
//! paper's contention assumptions (Section 2.1, item 3) require.
//!
//! # One key hash, read two ways
//!
//! A lookup reads one digest of its [`crate::Key`], [`hash_words`]`(code,
//! a, b)`, computed once, twice: to pick the key's shard and to pick its
//! bucket in that shard's directory (`slot`).  The two must not
//! lean on the same bits.  A shard pick of `digest % 2ᵏ` pins the low `k`
//! bits of every key of a shard; a directory indexed by those bits would
//! put all ≈ 576 keys of a shard on one bucket at 1024 shards.  So the
//! digest is split by construction:
//!
//! * **shard** — `digest % num_shards` (the digest's low bits when the
//!   count is a power of two, some of them when it has a factor of two);
//!   frozen, see [`crate::Key`]'s golden test;
//! * **bucket** — the **top** bits of `fold(digest)`: the high half
//!   folded onto the low half, times the Fx multiplier.  Every bit of the
//!   folded word reaches the top of the product, so the bucket varies
//!   however many bits the shard pick held constant.  `key.rs` pins the
//!   spread by test at 2ᵏ shard counts and at the primes below them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier used by the Fx hash (a large odd constant close to 2^64 / φ).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied between words.
const ROTATE: u32 = 5;

/// An Fx-style streaming hasher over 64-bit words.
///
/// Not HashDoS-resistant — fine here because all keys are generated by the
/// simulation itself, never by an adversary.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hash a pair of 64-bit words plus a tag into a single 64-bit digest.
///
/// The one hash of a [`crate::Key`]: shard selection reads it directly and
/// the shard directories read it folded (module docs).  Must stay stable
/// across runs and across versions — placement is a function of it.
#[inline]
pub fn hash_words(tag: u32, a: u64, b: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(tag);
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

/// A key digest's high half folded onto its low half, times the Fx
/// multiplier: the word a shard directory takes a bucket's top bits from
/// (module docs).
#[inline]
pub(crate) fn fold(digest: u64) -> u64 {
    (digest ^ (digest >> 32)).wrapping_mul(SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_words(1, 2, 3), hash_words(1, 2, 3));
        assert_eq!(hash_words(0, u64::MAX, 7), hash_words(0, u64::MAX, 7));
    }

    #[test]
    fn hashing_separates_tags_and_coordinates() {
        assert_ne!(hash_words(0, 1, 2), hash_words(1, 1, 2));
        assert_ne!(hash_words(0, 1, 2), hash_words(0, 2, 1));
        assert_ne!(hash_words(0, 1, 0), hash_words(0, 0, 1));
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            map.insert(i, i * i);
        }
        assert_eq!(map.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(map.get(&i), Some(&(i * i)));
        }
    }

    #[test]
    fn hash_distributes_across_shards() {
        // Spot-check that consecutive keys do not all land in the same shard.
        let shards = 64u64;
        let mut counts = vec![0usize; shards as usize];
        for v in 0..10_000u64 {
            counts[(hash_words(1, v, 0) % shards) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Expected load is ~156 per shard; allow generous slack.
        assert!(max < 320, "max shard load too high: {max}");
        assert!(min > 40, "min shard load too low: {min}");
    }

    #[test]
    fn write_bytes_matches_word_writes_for_aligned_input() {
        let mut a = FxHasher::default();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = FxHasher::default();
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
