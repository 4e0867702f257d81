//! Weighted balls-into-bins simulation behind Lemma 2.1.
//!
//! Lemma 2.1 of the paper: consider `T` balls with integer weights in
//! `[0, P]` whose weights sum to `T`, thrown independently and uniformly at
//! random into `P` bins; if `S = T/P` and `P = O(S^{1-Ω(1)})` then the total
//! weight landing in every bin is `O(S)` with high probability.  The balls
//! are the key-value pairs, the weights are how many times each pair is
//! queried, and the bins are the DDS machines.
//!
//! [`simulate_balls_into_bins`] runs that experiment so the contention bench
//! can report the *measured* max-bin load next to the analytical `O(S)`
//! prediction, and [`BallsInBinsReport`] summarises one trial.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one weighted balls-into-bins trial.
#[derive(Clone, Debug, PartialEq)]
pub struct BallsInBinsReport {
    /// Number of bins (`P`, the DDS machines).
    pub bins: usize,
    /// Number of balls thrown (`T`, the key-value pairs).
    pub balls: usize,
    /// Total weight of all balls (equals `T` in the lemma's setting).
    pub total_weight: u64,
    /// Mean weight per bin, i.e. `S = T / P`.
    pub mean_load: f64,
    /// Maximum total weight observed in any bin.
    pub max_load: u64,
    /// `max_load / mean_load`; Lemma 2.1 predicts this stays O(1).
    pub imbalance: f64,
}

/// Throw weighted balls into bins uniformly at random and report the loads.
///
/// `weights[i]` is the weight of ball `i`.  The bin of each ball is chosen
/// independently of its weight, matching the lemma's assumption that the
/// queried keys are independent of the key-to-machine mapping.
pub fn simulate_balls_into_bins(weights: &[u64], bins: usize, seed: u64) -> BallsInBinsReport {
    assert!(bins > 0, "need at least one bin");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut loads = vec![0u64; bins];
    for &w in weights {
        let bin = rng.gen_range(0..bins);
        loads[bin] += w;
    }
    let total_weight: u64 = weights.iter().sum();
    let mean_load = total_weight as f64 / bins as f64;
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let imbalance = if mean_load > 0.0 {
        max_load as f64 / mean_load
    } else {
        1.0
    };
    BallsInBinsReport {
        bins,
        balls: weights.len(),
        total_weight,
        mean_load,
        max_load,
        imbalance,
    }
}

/// Generate a weight vector matching the lemma's setting: `balls` balls whose
/// weights are integers in `[0, max_weight]` scaled so they sum to roughly
/// `balls` (the lemma has total weight `T` equal to the number of balls).
pub fn lemma21_weights(balls: usize, max_weight: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights = Vec::with_capacity(balls);
    let mut remaining = balls as u64;
    for i in 0..balls {
        let left = balls - i;
        if left as u64 >= remaining {
            // Hand out 0/1 weights once the budget is tight.
            let w = u64::from(remaining > 0 && rng.gen_bool(remaining as f64 / left as f64));
            weights.push(w);
            remaining -= w;
        } else {
            let cap = max_weight.min(remaining);
            let w = rng.gen_range(0..=cap);
            weights.push(w);
            remaining -= w;
        }
    }
    // Dump any unassigned weight on the last ball (still ≤ max_weight + slack
    // only when balls are very few; callers use balls ≫ max_weight).
    if remaining > 0 {
        if let Some(last) = weights.last_mut() {
            *last += remaining;
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_weights_balance_well() {
        let weights = vec![1u64; 100_000];
        let report = simulate_balls_into_bins(&weights, 100, 7);
        assert_eq!(report.total_weight, 100_000);
        assert!((report.mean_load - 1000.0).abs() < 1e-9);
        // With 100k unit balls in 100 bins the max load concentrates tightly.
        assert!(
            report.imbalance < 1.25,
            "imbalance too high: {}",
            report.imbalance
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let weights = vec![1u64; 1000];
        let a = simulate_balls_into_bins(&weights, 10, 42);
        let b = simulate_balls_into_bins(&weights, 10, 42);
        assert_eq!(a, b);
        let c = simulate_balls_into_bins(&weights, 10, 43);
        // Different seed should (almost surely) shuffle loads differently.
        assert!(a.max_load != c.max_load || a.imbalance != c.imbalance || a == c);
    }

    #[test]
    fn lemma21_weights_sum_to_ball_count() {
        for &(balls, max_w) in &[(1000usize, 10u64), (5000, 50), (100, 100)] {
            let weights = lemma21_weights(balls, max_w, 3);
            assert_eq!(weights.len(), balls);
            assert_eq!(weights.iter().sum::<u64>(), balls as u64);
        }
    }

    #[test]
    fn weighted_balls_still_obey_the_lemma_bound() {
        // P = O(S^{1 - δ}): pick P = 64, T = 65_536 so S = 1024 and P = S^0.6.
        let balls = 65_536usize;
        let bins = 64usize;
        let weights = lemma21_weights(balls, bins as u64, 11);
        let report = simulate_balls_into_bins(&weights, bins, 11);
        let s = balls as f64 / bins as f64;
        // Lemma 2.1: max load is O(S); empirically the constant is small.
        assert!(
            (report.max_load as f64) < 2.0 * s,
            "max load {} exceeded 2S = {}",
            report.max_load,
            2.0 * s
        );
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = simulate_balls_into_bins(&[1, 2, 3], 0, 0);
    }

    #[test]
    fn empty_ball_set_is_fine() {
        let report = simulate_balls_into_bins(&[], 8, 0);
        assert_eq!(report.max_load, 0);
        assert_eq!(report.total_weight, 0);
        assert_eq!(report.imbalance, 1.0);
    }
}
