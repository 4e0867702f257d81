//! The pre-refactor store layout, kept as an executable specification.
//!
//! Before the compact-slot refactor, every key in the store mapped to a
//! heap-allocated `Vec<Value>` and the end-of-round commit replayed writes
//! one shard-lock acquisition per pair.  [`LegacyStore`] preserves exactly
//! that behaviour — same hash, same shard assignment, same per-key value
//! order — so the property tests in `tests/proptests.rs` can assert that
//! the new [`crate::ShardedStore`] / [`crate::Snapshot`] layout is
//! observationally equivalent (`get` / `get_indexed` / `multiplicity` /
//! `len`) under arbitrary write interleavings.
//!
//! Not used on any hot path; do not add features here.

use crate::hashing::FxHashMap;
use crate::key::{Key, Value};

/// The old `Vec<Value>`-per-key sharded layout, single-threaded.
#[derive(Clone, Debug, Default)]
pub struct LegacyStore {
    shards: Vec<FxHashMap<Key, Vec<Value>>>,
}

impl LegacyStore {
    /// Create a legacy store with `num_shards` shards (at least 1).
    pub fn new(num_shards: usize) -> Self {
        LegacyStore {
            shards: vec![FxHashMap::default(); num_shards.max(1)],
        }
    }

    #[inline]
    fn shard_of(&self, key: &Key) -> usize {
        key.shard(self.shards.len())
    }

    /// Append `value` under `key` (the old one-lock-per-pair write path,
    /// minus the lock: the legacy reference is single-threaded).
    pub fn write(&mut self, key: Key, value: Value) {
        let shard = self.shard_of(&key);
        self.shards[shard].entry(key).or_default().push(value);
    }

    /// First value stored under `key`, if any.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.shards[self.shard_of(key)]
            .get(key)
            .and_then(|vs| vs.first().copied())
    }

    /// The `index`-th value stored under `key` (zero-based), if present.
    pub fn get_indexed(&self, key: &Key, index: usize) -> Option<Value> {
        self.shards[self.shard_of(key)]
            .get(key)
            .and_then(|vs| vs.get(index).copied())
    }

    /// How many values are stored under `key`.
    pub fn multiplicity(&self, key: &Key) -> usize {
        self.shards[self.shard_of(key)].get(key).map_or(0, Vec::len)
    }

    /// Total number of distinct keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// `true` if no key has been written.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxHashMap::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyTag;

    #[test]
    fn behaves_like_a_multimap() {
        let mut store = LegacyStore::new(4);
        let key = Key::of(KeyTag::Scalar, 7);
        assert!(store.is_empty());
        store.write(key, Value::scalar(1));
        store.write(key, Value::scalar(2));
        assert_eq!(store.get(&key), Some(Value::scalar(1)));
        assert_eq!(store.get_indexed(&key, 1), Some(Value::scalar(2)));
        assert_eq!(store.get_indexed(&key, 2), None);
        assert_eq!(store.multiplicity(&key), 2);
        assert_eq!(store.len(), 1);
    }
}
