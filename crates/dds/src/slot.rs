//! The two layouts of a shard — the one module that knows them.
//!
//! In AMPC, round *i* only writes `D_i` and round *i + 1* only reads it
//! (Section 2 of the paper), so a shard is laid out for one side at a time:
//!
//! * **writable** — [`Pairs`]: the pairs committed to the shard, in commit
//!   order.  A commit is a move (an empty shard takes the partition's
//!   exact-size bucket as it is) or an append ([`append`]); nothing is
//!   hashed or looked up while a round is written.
//! * **frozen** — [`Shard`]: the same pairs grouped by key, the keys ordered
//!   by the [`bucket`] of their digest and, inside a bucket, by [`Key`]'s
//!   `Ord`, under a bucket directory: bucket `b` holds
//!   `pairs[directory[b]..directory[b + 1]]`.  A shard of `n` pairs has
//!   `n.next_power_of_two()` buckets, so a bucket holds one pair on
//!   average, and an empty shard has no directory at all.  The offsets are
//!   `u16` up to `u16::MAX` pairs, `u32` beyond: half the bytes a lookup's
//!   first miss can land in.  (Fewer, fuller buckets shrink it further but
//!   read slower: a lookup then scans pairs where it would have hit the
//!   directory.)
//!
//! [`Shard::freeze`] turns the first into the second with one stable
//! counting sort, so a key's values keep their commit order — the
//! multi-value index order of Section 2 — and the frozen layout is a
//! function of the shard's contents alone, not of how its commits
//! interleaved.  Pairs that already arrive in that order (an epoch an owner
//! walked, decoded by a replica) are taken without a copy.  Retiring a
//! frozen shard is two frees.

use crate::hashing::fold;
use crate::key::{Key, KeyTag, Value};
use crate::store::for_each_part_parallel;
use std::ops::{AddAssign, Range};

/// A writable shard: its pairs in commit order.
pub(crate) type Pairs = Vec<(Key, Value)>;

/// What a slot holds before a fill pass overwrites it.
pub(crate) const UNFILLED: (Key, Value) = (
    Key {
        tag: KeyTag::Scalar,
        a: 0,
        b: 0,
    },
    Value { x: 0, y: 0 },
);

/// Append a commit's `pairs` to a writable shard: the one write of every
/// commit path, the in-process store's and the owners' alike.  An empty
/// shard takes the buffer as it is.
#[inline]
pub(crate) fn append(shard: &mut Pairs, mut pairs: Pairs) {
    if shard.is_empty() {
        *shard = pairs;
    } else {
        shard.append(&mut pairs);
    }
}

/// The directory bucket of a key with `digest` among `buckets` (a power of
/// two): the top bits of the folded digest ([`crate::hashing`]), which every
/// digest bit reaches — so the keys of one shard, which all agree on
/// `digest % num_shards`, still spread over its buckets.
#[inline]
pub(crate) fn bucket(digest: u64, buckets: usize) -> usize {
    ((u128::from(fold(digest)) * buckets as u128) >> 64) as usize
}

/// An offset into a frozen shard's pairs, as its directory stores it.
trait Offset: Copy + From<u8> + AddAssign {
    fn index(self) -> usize;
}

impl Offset for u16 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Offset for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// A frozen shard's bucket directory: `buckets + 1` offsets into its pairs,
/// the narrowest that addresses them all.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Directory {
    /// Shards of at most `u16::MAX` pairs; empty when the shard is.
    Narrow(Vec<u16>),
    /// Larger shards.
    Wide(Vec<u32>),
}

impl Default for Directory {
    fn default() -> Directory {
        Directory::Narrow(Vec::new())
    }
}

/// The span of `pairs` that bucket `digest` falls in, under `directory`.
#[inline]
fn span<T: Offset>(directory: &[T], digest: u64) -> Range<usize> {
    let Some(buckets) = directory.len().checked_sub(1) else {
        return 0..0;
    };
    let b = bucket(digest, buckets);
    directory[b].index()..directory[b + 1].index()
}

/// A frozen shard: pairs grouped by key under a bucket directory (module
/// docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Shard {
    /// Every pair, each key's run contiguous and in commit order.
    pairs: Pairs,
    directory: Directory,
    /// Distinct keys (runs).
    keys: usize,
}

impl Shard {
    /// Freeze a writable shard ([`laid_out`]) under the narrowest directory
    /// that addresses it.
    pub(crate) fn freeze(pairs: Pairs) -> Shard {
        let (pairs, directory) = if pairs.len() <= usize::from(u16::MAX) {
            let (pairs, directory) = laid_out::<u16>(pairs);
            (pairs, Directory::Narrow(directory))
        } else {
            assert!(
                u32::try_from(pairs.len()).is_ok(),
                "a shard's directory addresses at most u32::MAX pairs"
            );
            let (pairs, directory) = laid_out::<u32>(pairs);
            (pairs, Directory::Wide(directory))
        };
        let keys = pairs.chunk_by(|(a, _), (b, _)| a == b).count();
        Shard {
            pairs,
            directory,
            keys,
        }
    }

    /// The pairs of the bucket `digest` falls in: the one directory load of
    /// a lookup.
    #[inline]
    pub(crate) fn bucket_of(&self, digest: u64) -> &[(Key, Value)] {
        let span = match &self.directory {
            Directory::Narrow(directory) => span(directory, digest),
            Directory::Wide(directory) => span(directory, digest),
        };
        &self.pairs[span]
    }

    /// The first value of `key` (the model's `(x, 1)` lookup); `digest` is
    /// `key.digest()`, computed once by the caller for the shard pick too.
    #[inline]
    pub(crate) fn first(&self, key: &Key, digest: u64) -> Option<Value> {
        first_in(self.bucket_of(digest), key)
    }

    /// `key`'s run: its pairs, values in commit order; empty if absent.
    #[inline]
    pub(crate) fn run(&self, key: &Key, digest: u64) -> &[(Key, Value)] {
        let bucket = self.bucket_of(digest);
        let Some(start) = bucket.iter().position(|(k, _)| k == key) else {
            return &[];
        };
        let len = bucket[start..].iter().take_while(|(k, _)| k == key).count();
        &bucket[start..start + len]
    }

    /// Number of distinct keys.
    #[inline]
    pub(crate) fn keys(&self) -> usize {
        self.keys
    }

    /// Every `(key, values)` entry, in layout order (bucket, then key).
    pub(crate) fn entries(
        &self,
    ) -> impl ExactSizeIterator<Item = (&Key, impl ExactSizeIterator<Item = &Value>)> {
        let runs = Runs {
            pairs: &self.pairs,
            keys: self.keys,
        };
        runs.map(|run| (&run[0].0, run.iter().map(|(_, value)| value)))
    }
}

/// The first value of `key` in `bucket` ([`Shard::bucket_of`] its digest).
#[inline]
pub(crate) fn first_in(bucket: &[(Key, Value)], key: &Key) -> Option<Value> {
    bucket
        .iter()
        .find(|(k, _)| k == key)
        .map(|&(_, value)| value)
}

/// A writable shard's pairs in the frozen layout, and their directory of
/// `pairs.len().next_power_of_two()` buckets (none for no pairs), offsets in
/// `T`, which must address `pairs.len()`: count the pairs per bucket, lay
/// them out in bucket order by a stable counting sort unless they already
/// are, and sort a bucket's keys (stably, so each key's values keep their
/// order) only where they are out of order.
fn laid_out<T: Offset>(pairs: Pairs) -> (Pairs, Vec<T>) {
    let Some((first, _)) = pairs.first() else {
        return (pairs, Vec::new());
    };
    let buckets = pairs.len().next_power_of_two();
    let mut directory = vec![T::from(0); buckets + 1];
    // Whether the pairs are in layout order already: buckets ascend, and
    // keys inside a bucket.  Once they are not, the check stops (an
    // unpredictable branch per pair cost twice the counting itself).
    let mut ordered = true;
    let mut previous = (0, first);
    for (key, _) in &pairs {
        let bucket = bucket(key.digest(), buckets);
        directory[bucket + 1] += T::from(1);
        if ordered {
            ordered = previous.0 < bucket || (previous.0 == bucket && previous.1 <= key);
            previous = (bucket, key);
        }
    }
    for b in 0..buckets {
        let start = directory[b];
        directory[b + 1] += start;
    }
    if ordered {
        (pairs, directory)
    } else {
        (sorted(pairs, &mut directory), directory)
    }
}

/// The counting sort's scatter: `pairs` laid out by bucket, in order within
/// each bucket, where `directory` holds each bucket's start on entry (and
/// still does on return); then each bucket sorted by key where it is not.
fn sorted<T: Offset>(pairs: Pairs, directory: &mut [T]) -> Pairs {
    let buckets = directory.len() - 1;
    let mut sorted = vec![UNFILLED; pairs.len()];
    // `directory[b]` is bucket `b`'s write cursor, and ends at its end.
    for &(key, value) in &pairs {
        let b = bucket(key.digest(), buckets);
        sorted[directory[b].index()] = (key, value);
        directory[b] += T::from(1);
    }
    drop(pairs);
    directory.copy_within(0..buckets, 1);
    directory[0] = T::from(0);
    for b in 0..buckets {
        let run = &mut sorted[directory[b].index()..directory[b + 1].index()];
        if run.len() > 1 && !run.is_sorted_by_key(|(key, _)| *key) {
            run.sort_by_key(|(key, _)| *key);
        }
    }
    sorted
}

/// A frozen shard's runs, one per key, in layout order.
struct Runs<'a> {
    pairs: &'a [(Key, Value)],
    keys: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = &'a [(Key, Value)];

    fn next(&mut self) -> Option<Self::Item> {
        let (first, _) = self.pairs.first()?;
        let len = self
            .pairs
            .iter()
            .take_while(|(key, _)| key == first)
            .count();
        let (run, rest) = self.pairs.split_at(len);
        self.pairs = rest;
        self.keys -= 1;
        Some(run)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.keys, Some(self.keys))
    }
}

impl ExactSizeIterator for Runs<'_> {}

/// Freeze writable shards on up to `threads` threads, each taking one
/// contiguous run of them, the calling thread the last — the one freeze of
/// [`crate::ShardedStore`] and of the owners' `Advance` / `FreezeEpoch`
/// (which pass one thread), so the two epoch pipelines cannot drift apart.
pub(crate) fn freeze_all(mut shards: Vec<Pairs>, threads: usize) -> Vec<Shard> {
    let mut frozen = vec![Shard::default(); shards.len()];
    let run = shards.len().div_ceil(threads.max(1)).max(1);
    let parts = shards.chunks_mut(run).zip(frozen.chunks_mut(run)).collect();
    for_each_part_parallel(parts, |(pairs, frozen)| {
        for (pairs, frozen) in pairs.iter_mut().zip(frozen) {
            *frozen = Shard::freeze(std::mem::take(pairs));
        }
    });
    frozen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(a: u64) -> Key {
        Key::of(KeyTag::Scalar, a)
    }

    fn values(shard: &Shard, key: &Key) -> Vec<u64> {
        let run = shard.run(key, key.digest());
        run.iter().map(|(_, value)| value.x).collect()
    }

    #[test]
    fn a_frozen_shard_answers_every_read_of_the_multimap() {
        // 40 keys, key `i` written `1 + i % 3` times, interleaved.
        let pairs: Pairs = (0..3u64)
            .flat_map(|round| {
                (0..40u64)
                    .filter(move |i| i % 3 >= round)
                    .map(move |i| (k(i), Value::scalar(i * 10 + round)))
            })
            .collect();
        let shard = Shard::freeze(pairs.clone());
        assert_eq!(shard.keys(), 40);
        for i in 0..40u64 {
            let expected: Vec<u64> = (0..=i % 3).map(|round| i * 10 + round).collect();
            assert_eq!(values(&shard, &k(i)), expected, "key {i}");
            assert_eq!(
                shard.first(&k(i), k(i).digest()),
                Some(Value::scalar(i * 10))
            );
        }
        assert_eq!(shard.first(&k(99), k(99).digest()), None);
        assert!(shard.run(&k(99), k(99).digest()).is_empty());
        // The walk yields each key once, with all its values.
        let walked: usize = shard.entries().map(|(_, values)| values.len()).sum();
        assert_eq!(walked, pairs.len());
        assert_eq!(shard.entries().len(), 40);
    }

    #[test]
    fn the_frozen_layout_is_canonical_and_its_own_walk_refreezes_without_a_copy() {
        let pairs: Pairs = (0..500u64)
            .map(|i| (k(i % 170), Value::scalar(i)))
            .collect();
        let shard = Shard::freeze(pairs.clone());
        // The same pairs, keys in another order (each key's values in
        // theirs): the same shard.
        let mut reordered = pairs;
        reordered.sort_by_key(|(key, _)| std::cmp::Reverse(key.a));
        assert_eq!(Shard::freeze(reordered), shard);
        // The walk is already in bucket order: freezing it keeps the buffer.
        let walk: Pairs = shard
            .entries()
            .flat_map(|(key, values)| values.map(move |value| (*key, *value)))
            .collect();
        let address = walk.as_ptr();
        let refrozen = Shard::freeze(walk);
        assert_eq!(refrozen.pairs.as_ptr(), address);
        assert_eq!(refrozen, shard);
    }

    #[test]
    fn buckets_are_a_power_of_two_and_an_empty_shard_allocates_nothing() {
        let empty = Shard::freeze(Vec::new());
        assert_eq!(empty, Shard::default());
        assert!(matches!(&empty.directory, Directory::Narrow(d) if d.capacity() == 0));
        assert_eq!(empty.entries().len(), 0);
        assert_eq!(empty.first(&k(1), k(1).digest()), None);
        for n in [1u64, 2, 3, 1000, 1024, 1025] {
            let shard = Shard::freeze((0..n).map(|i| (k(i), Value::scalar(i))).collect());
            let Directory::Narrow(directory) = &shard.directory else {
                panic!("{n} pairs fit a u16 directory");
            };
            assert_eq!(directory.len(), n.next_power_of_two() as usize + 1);
            assert_eq!(directory.last().copied(), Some(n as u16));
            assert_eq!(shard.keys(), n as usize);
        }
    }

    #[test]
    fn a_shard_takes_the_narrowest_directory_that_addresses_it() {
        // The largest shard a u16 addresses and one pair more: 1000 keys,
        // each with ≈ 65 values in commit order.
        for n in [65_535u64, 65_536] {
            let pairs: Pairs = (0..n).map(|i| (k(i % 1000), Value::scalar(i))).collect();
            let shard = Shard::freeze(pairs);
            match &shard.directory {
                Directory::Narrow(d) => assert_eq!(d.last().copied(), Some(n as u16)),
                Directory::Wide(d) => assert_eq!(d.last().copied(), Some(n as u32)),
            }
            assert_eq!(
                matches!(shard.directory, Directory::Narrow(_)),
                n <= u64::from(u16::MAX)
            );
            assert_eq!(shard.keys(), 1000);
            for i in [0u64, 1, 999] {
                let expected: Vec<u64> = (i..n).step_by(1000).collect();
                assert_eq!(values(&shard, &k(i)), expected);
            }
        }
    }

    #[test]
    fn appending_keeps_commit_order_and_moves_into_an_empty_shard() {
        let mut shard = Pairs::new();
        let bucket = vec![(k(1), Value::scalar(1))];
        let address = bucket.as_ptr();
        append(&mut shard, bucket);
        assert_eq!(shard.as_ptr(), address);
        append(
            &mut shard,
            vec![(k(1), Value::scalar(2)), (k(2), Value::scalar(3))],
        );
        assert_eq!(values(&Shard::freeze(shard), &k(1)), vec![1, 2]);
    }

    #[test]
    fn parallel_freeze_equals_serial_freeze() {
        let shards: Vec<Pairs> = (0..13u64)
            .map(|s| (0..s * 50).map(|i| (k(i % 37), Value::scalar(i))).collect())
            .collect();
        let serial = freeze_all(shards.clone(), 1);
        for threads in [2, 4, 32] {
            assert_eq!(freeze_all(shards.clone(), threads), serial);
        }
    }
}
