//! Order statistics for latency samples and per-round values.

/// Samples a tail percentile must leave beyond it to be reported: a
/// percentile with fewer samples past it is the slowest few requests,
/// not a distribution property.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending):
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// product is taken before the division so integral `p·n` stays exact.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentile `p` of `samples` when the percentile rule admits it —
/// the median always, a higher percentile only with at least
/// [`MIN_BEYOND`] samples beyond it — else `None`. Sorts in place.
#[must_use]
pub fn reportable(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    if p <= 50.0 || beyond(samples.len(), p) >= MIN_BEYOND {
        percentile(samples, p)
    } else {
        None
    }
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // 1200 cold requests: p99 leaves 12 beyond, p99.5 only 6.
        assert_eq!(beyond(1200, 99.0), 12);
        assert_eq!(beyond(1200, 99.5), 6);
        let mut cold: Vec<f64> = (0..1200).map(f64::from).rev().collect();
        assert_eq!(reportable(&mut cold, 99.0), Some(1187.0));
        assert_eq!(reportable(&mut cold, 99.5), None);
        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        let mut small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reportable(&mut small, 90.0), Some(90.0));
        assert_eq!(reportable(&mut small, 91.0), None);
        // The median is always reportable, even from a handful of rounds.
        assert_eq!(reportable(&mut [3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(reportable(&mut [], 50.0), None);
    }

    #[test]
    fn medians_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
