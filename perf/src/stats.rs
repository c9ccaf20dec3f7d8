//! Order statistics used by every reported timing.
//!
//! A percentile is reported only when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie above the reported rank, otherwise the
//! tail it claims to describe is a handful of outliers.

/// Samples a percentile needs strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of length `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile of an ascending `sorted` sample (nearest rank), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), q);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The highest of `candidates` (quantiles, any order) that `n` samples
/// support, with [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND)
        .max_by(f64::total_cmp)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Plain nearest-rank quantile, for counts and diagnostics that carry no
/// tail claim (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // n = 1000: rank 990 (value 990), 10 samples beyond.
        assert_eq!(supported_quantile(&ramp(1000), 0.99), Some(990.0));
        // n = 999: index 989 again, but only 9 samples beyond it.
        assert_eq!(supported_quantile(&ramp(999), 0.99), None);
        // n = 1010: index 999 (value 1000), 10 beyond.
        assert_eq!(supported_quantile(&ramp(1010), 0.99), Some(1000.0));
        assert_eq!(supported_quantile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_picks_the_deepest_tail_the_sample_allows() {
        let qs = [0.5, 0.9, 0.95, 0.99, 0.999];
        assert_eq!(highest_supported(20_000, &qs), Some(0.999));
        assert_eq!(highest_supported(1_000, &qs), Some(0.99));
        assert_eq!(highest_supported(500, &qs), Some(0.95));
        assert_eq!(highest_supported(100, &qs), Some(0.9));
        assert_eq!(highest_supported(40, &qs), Some(0.5));
        assert_eq!(highest_supported(15, &qs), None);
        assert_eq!(highest_supported(0, &qs), None);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
