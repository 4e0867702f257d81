//! Load statistics for the DDS shards.
//!
//! Lemma 2.1 of the paper argues that under random key placement every DDS
//! machine answers only `O(S)` queries with high probability.  These types
//! expose the measured counterpart: per-shard read/write/key counts and a
//! summary with the max/mean load and the imbalance factor, which the
//! contention benchmark reports alongside the analytical bound.

/// Load observed on a single shard ("DDS machine").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Number of distinct keys resident on the shard.
    pub keys: u64,
    /// Writes the shard accepted.
    pub writes: u64,
    /// Reads the shard served.
    pub reads: u64,
}

impl ShardLoad {
    /// Total traffic (reads + writes) on the shard — the quantity bounded by
    /// Lemma 2.1.
    pub fn traffic(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Aggregate statistics over all shards of a store or snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreStats {
    /// Number of shards.
    pub num_shards: usize,
    /// Total keys across shards.
    pub total_keys: u64,
    /// Total reads served.
    pub total_reads: u64,
    /// Total writes accepted.
    pub total_writes: u64,
    /// Maximum traffic (reads + writes) on any single shard.
    pub max_shard_traffic: u64,
    /// Mean traffic per shard.
    pub mean_shard_traffic: f64,
}

impl StoreStats {
    /// Aggregate a list of per-shard loads.
    pub fn from_loads(loads: Vec<ShardLoad>) -> Self {
        let num_shards = loads.len().max(1);
        let total_keys = loads.iter().map(|l| l.keys).sum();
        let total_reads = loads.iter().map(|l| l.reads).sum();
        let total_writes = loads.iter().map(|l| l.writes).sum();
        let max_shard_traffic = loads.iter().map(|l| l.traffic()).max().unwrap_or(0);
        let mean_shard_traffic = (total_reads + total_writes) as f64 / num_shards as f64;
        StoreStats {
            num_shards,
            total_keys,
            total_reads,
            total_writes,
            max_shard_traffic,
            mean_shard_traffic,
        }
    }

    /// Ratio between the hottest shard and the mean shard.
    ///
    /// Values close to 1.0 mean the random placement balanced traffic well;
    /// Lemma 2.1 predicts an O(1) factor when `P = O(S^{1-Ω(1)})`.
    pub fn imbalance(&self) -> f64 {
        if self.mean_shard_traffic == 0.0 {
            1.0
        } else {
            self.max_shard_traffic as f64 / self.mean_shard_traffic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(shard: usize, keys: u64, writes: u64, reads: u64) -> ShardLoad {
        ShardLoad {
            shard,
            keys,
            writes,
            reads,
        }
    }

    #[test]
    fn traffic_sums_reads_and_writes() {
        assert_eq!(load(0, 5, 3, 7).traffic(), 10);
        assert_eq!(load(0, 5, 0, 0).traffic(), 0);
    }

    #[test]
    fn aggregation_over_loads() {
        let stats = StoreStats::from_loads(vec![
            load(0, 10, 5, 15),
            load(1, 20, 5, 5),
            load(2, 0, 0, 0),
        ]);
        assert_eq!(stats.num_shards, 3);
        assert_eq!(stats.total_keys, 30);
        assert_eq!(stats.total_reads, 20);
        assert_eq!(stats.total_writes, 10);
        assert_eq!(stats.max_shard_traffic, 20);
        assert!((stats.mean_shard_traffic - 10.0).abs() < 1e-9);
        assert!((stats.imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_loads_have_neutral_imbalance() {
        let stats = StoreStats::from_loads(vec![]);
        assert_eq!(stats.num_shards, 1);
        assert_eq!(stats.imbalance(), 1.0);
    }

    #[test]
    fn stats_clone_and_compare() {
        let stats = StoreStats::from_loads(vec![load(0, 1, 2, 3)]);
        let copy = stats.clone();
        assert_eq!(stats, copy);
    }
}
