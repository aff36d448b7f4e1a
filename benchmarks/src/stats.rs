//! Order statistics: the percentile rule of the choosing-metrics guide and
//! the quartile arithmetic `compare` reports.

/// Percentiles a tail figure may be reported at, ascending.
pub const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= MIN_BEYOND * 100)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// [`percentile`], or 0 for a metric whose operation the workload never
/// issued.
pub fn percentile_or_zero(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p)
    }
}

/// Sort ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    v
}

/// Median with the mean of the two middle values for even counts
/// (Python's `statistics.median`).
///
/// # Panics
/// Panics on an empty input.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// `compare` and the acceptance driver compute the same spread.
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    assert!(s.len() >= 2, "quartiles need two values");
    let n = s.len();
    let cut = |i: usize| {
        // Position i·(n+1)/4, clamped into the data, linearly interpolated.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(39), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(99), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(999), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        // Ten samples beyond p90 of 100 are exactly ranks 91..=100.
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 90)).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
