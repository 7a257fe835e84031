//! Order statistics over measured samples.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it. Returns `(value, percentile, n)`,
/// or `None` when fewer than 11 samples exist.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank n-10 (1-based) leaves exactly ten samples above it.
    let rank = n - 10;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64, n))
}

/// The 50th percentile of a histogram of `width`-wide buckets.
pub fn histogram_p50(buckets: &[u64], width: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if 2 * seen >= total {
            return (i as f64 + 0.5) * width;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs).expect("enough samples");
        assert_eq!((v, pct, n), (90.0, 90.0, 100));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn histogram_median_bucket() {
        assert_eq!(histogram_p50(&[1, 1, 5, 1], 10.0), 25.0);
    }
}
