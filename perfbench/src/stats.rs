//! Order statistics for the benchmark's reports.

/// Samples that must lie strictly above a percentile before it is
/// reported: a p90 needs at least 100 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of the ascending slice `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(sorted: &[u32], q: f64) -> Option<u32> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (the mean of the middle pair for an even count),
/// or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90));
        assert_eq!(percentile(&hundred, 0.5), Some(50));
        // 99 samples leave only 9 above the p90 rank.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        // The p99 of 100 samples has a single sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        let twenty: Vec<u32> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_thousand_supports_p99() {
        let thousand: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        assert_eq!(percentile(&thousand, 0.999), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
