//! Sample arithmetic: medians, nearest-rank percentiles, and the rule for
//! which tail percentile a sample of a given size can support.
//!
//! The criterion shim in this workspace reports plain means, so the
//! benchmark computes its own robust summaries.

/// Median of `values` (mean of the two middle elements for an even count).
/// `NaN` for an empty sample, so a missing measurement can never pass for 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n)
}

/// The percentiles a tail report may use, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`, or `None` when the
/// sample supports no tail at all (then only the median is meaningful).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 75.0), 75.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 9.0], 50.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 40 samples: p75 is rank 30, leaving exactly 10 beyond.
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
        // 100 samples: p90 leaves 10, p95 only 5.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(0), None);
    }
}
