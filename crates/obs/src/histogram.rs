//! Fixed-bucket latency histograms with percentile extraction, a running
//! max, and per-bucket OpenMetrics exemplars.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency bucket upper bounds, in microseconds: 1 µs … 10 s in a
/// 1–2–5 ladder. Wide enough for a single kernel launch (~µs) through a
/// degraded full-cluster scatter-gather (~s).
pub const DEFAULT_LATENCY_BUCKETS_US: [f64; 22] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5,
    2e5, 5e5, 1e6, 2e6, 5e6, 1e7,
];

/// Fixed-point scale for the running sum: 1/1000 of a unit, so
/// microsecond observations keep nanosecond resolution in a `u64`.
const SUM_SCALE: f64 = 1000.0;

struct Inner {
    /// Finite upper bounds, strictly increasing. An implicit `+Inf`
    /// overflow bucket follows the last one.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the final slot is the overflow bucket).
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_scaled: AtomicU64,
    /// Largest non-negative observation so far, stored as `f64::to_bits`
    /// (order-preserving for non-negative floats, so `fetch_max` works).
    max_bits: AtomicU64,
    /// Per-bucket exemplar cells: the most recent `(trace_id, value)`
    /// stamped into that bucket by [`Histogram::observe_traced`]
    /// (`trace_id == 0` means unset). One per bucket including overflow.
    exemplars: Vec<Mutex<(u128, f64)>>,
}

/// A lock-free histogram over fixed bucket boundaries.
///
/// [`Histogram::observe`] is a short linear scan (the default ladder has
/// 22 buckets) plus three relaxed atomic adds — no locks, no allocation.
/// Quantiles are extracted by walking the cumulative counts and linearly
/// interpolating inside the bucket containing the requested rank.
///
/// ```
/// use texid_obs::Histogram;
///
/// let h = Histogram::with_bounds(&[10.0, 20.0, 50.0]);
/// for v in [4.0, 12.0, 13.0, 45.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) > 10.0 && h.quantile(0.5) <= 20.0);
/// ```
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Histogram {
    /// A histogram over [`DEFAULT_LATENCY_BUCKETS_US`].
    pub fn new_latency() -> Histogram {
        Histogram::with_bounds(&DEFAULT_LATENCY_BUCKETS_US)
    }

    /// A histogram over the given finite upper bounds (an `+Inf` overflow
    /// bucket is always appended).
    ///
    /// # Panics
    /// Panics if `bounds` is empty, non-finite, or not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite and strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let exemplars = (0..=bounds.len()).map(|_| Mutex::new((0u128, 0.0f64))).collect();
        Histogram {
            inner: Arc::new(Inner {
                bounds: bounds.to_vec(),
                counts,
                count: AtomicU64::new(0),
                sum_scaled: AtomicU64::new(0),
                max_bits: AtomicU64::new(0),
                exemplars,
            }),
        }
    }

    /// Bucket index for a value (`le` semantics; last slot is overflow).
    fn bucket_of(&self, v: f64) -> usize {
        self.inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len())
    }

    /// Record one observation. A value exactly on a bound falls into that
    /// bucket (bounds are inclusive upper limits, `le` semantics).
    pub fn observe(&self, v: f64) {
        self.observe_traced(v, None);
    }

    /// [`Histogram::observe`] `v`, then — for a traced observation — stamp
    /// its bucket's exemplar with `(trace_id, v)`, so the bucket links to
    /// `GET /trace/{id}` and the exemplar is always one of the values the
    /// bucket counted.
    ///
    /// The stamp is best-effort: a contended cell is skipped rather than
    /// blocking the hot path, and `None` or a zero trace id stamps nothing.
    pub fn observe_traced(&self, v: f64, trace_id: Option<u128>) {
        let i = self.bucket_of(v);
        self.inner.counts[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let scaled = (v.max(0.0) * SUM_SCALE).round() as u64;
        self.inner.sum_scaled.fetch_add(scaled, Ordering::Relaxed);
        // Non-negative f64 bit patterns order like the floats themselves,
        // so one relaxed fetch_max keeps the running maximum lock-free.
        self.inner.max_bits.fetch_max(v.max(0.0).to_bits(), Ordering::Relaxed);
        let Some(trace_id) = trace_id.filter(|&t| t != 0) else { return };
        if let Ok(mut cell) = self.inner.exemplars[i].try_lock() {
            *cell = (trace_id, v);
        }
    }

    /// The exemplar stamped into bucket `i` (overflow bucket last), or
    /// `None` when the bucket never received one.
    pub fn exemplar(&self, i: usize) -> Option<(u128, f64)> {
        let cell = self.inner.exemplars.get(i)?.lock().ok()?;
        (cell.0 != 0).then_some(*cell)
    }

    /// Largest observation so far (0 when empty; negative observations
    /// clamp to 0, matching the sum's behavior). Rendered in exposition as
    /// the `_max` series, so observations past the top finite bucket keep
    /// their magnitude instead of vanishing into `le="+Inf"`.
    pub fn max(&self) -> f64 {
        f64::from_bits(self.inner.max_bits.load(Ordering::Relaxed))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (to 1/1000 resolution).
    pub fn sum(&self) -> f64 {
        self.inner.sum_scaled.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() / n as f64
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Per-bucket counts (non-cumulative), overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) by cumulative walk with
    /// linear interpolation inside the target bucket. Returns 0 when the
    /// histogram is empty; observations in the overflow bucket report the
    /// last finite bound (a conservative lower estimate, like Prometheus'
    /// `histogram_quantile`).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in self.inner.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            cum += n;
            if cum >= rank {
                let last = self.inner.bounds.len();
                if i == last {
                    return self.inner.bounds[last - 1];
                }
                let lower = if i == 0 { 0.0 } else { self.inner.bounds[i - 1] };
                let upper = self.inner.bounds[i];
                let into_bucket = (rank - (cum - n)) as f64 / n as f64;
                return lower + (upper - lower) * into_bucket;
            }
        }
        self.inner.bounds[self.inner.bounds.len() - 1]
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_fall_in_their_bucket() {
        // `le` semantics: a value exactly on a bound belongs to that bucket.
        let h = Histogram::with_bounds(&[10.0, 20.0, 50.0]);
        h.observe(10.0); // first bucket
        h.observe(10.000001); // second bucket
        h.observe(50.0); // third bucket
        h.observe(50.1); // overflow
        assert_eq!(h.bucket_counts(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn zero_and_negative_values_hit_first_bucket() {
        let h = Histogram::with_bounds(&[1.0, 10.0]);
        h.observe(0.0);
        h.observe(-3.0); // clock skew paranoia: counted, clamped in the sum
        assert_eq!(h.bucket_counts(), vec![2, 0, 0]);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn sum_and_mean_track_observations() {
        let h = Histogram::with_bounds(&[100.0]);
        h.observe(2.5);
        h.observe(7.5);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.mean(), 5.0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn quantiles_interpolate_within_bucket() {
        // 100 uniform observations 1..=100 over decade bounds.
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let h = Histogram::with_bounds(&bounds);
        for v in 1..=100 {
            h.observe(v as f64);
        }
        // p50 lands in the (40, 50] bucket, interpolated to its top.
        let p50 = h.p50();
        assert!((40.0..=50.0).contains(&p50), "p50 = {p50}");
        let p95 = h.p95();
        assert!((90.0..=100.0).contains(&p95), "p95 = {p95}");
        let p99 = h.p99();
        assert!(p99 > p95, "p99 {p99} <= p95 {p95}");
        // Exact interpolation check: rank 50 is the 10th of 10 obs in
        // (40, 50] => 40 + 10 * (10/10) = 50.
        assert!((p50 - 50.0).abs() < 1e-9, "p50 = {p50}");
    }

    #[test]
    fn overflow_quantile_reports_last_finite_bound() {
        let h = Histogram::with_bounds(&[10.0, 20.0]);
        for _ in 0..10 {
            h.observe(1000.0);
        }
        assert_eq!(h.quantile(0.99), 20.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new_latency();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::with_bounds(&[10.0, 5.0]);
    }

    #[test]
    fn running_max_tracks_largest_observation() {
        let h = Histogram::with_bounds(&[10.0, 20.0]);
        assert_eq!(h.max(), 0.0, "empty histogram reports 0");
        h.observe(5.0);
        h.observe(12_345.0); // past the top bucket: magnitude must survive
        h.observe(7.0);
        h.observe(-3.0); // clamped like the sum
        assert_eq!(h.max(), 12_345.0);
    }

    #[test]
    fn traced_observations_stamp_their_bucket() {
        let h = Histogram::with_bounds(&[10.0, 20.0]);
        h.observe_traced(15.0, Some(0xabc));
        assert_eq!(h.count(), 1);
        assert_eq!(h.exemplar(1), Some((0xabc, 15.0)));
        assert_eq!(h.exemplar(0), None, "untouched bucket has no exemplar");
        // Most recent stamp wins; zero or absent trace ids stamp nothing.
        h.observe_traced(12.0, Some(0xdef));
        h.observe_traced(13.0, Some(0));
        h.observe_traced(14.0, None);
        assert_eq!(h.exemplar(1), Some((0xdef, 12.0)));
        // Overflow bucket takes exemplars too.
        h.observe_traced(999.0, Some(0x123));
        assert_eq!(h.exemplar(2), Some((0x123, 999.0)));
    }

    #[test]
    fn default_ladder_covers_search_latencies() {
        let b = DEFAULT_LATENCY_BUCKETS_US;
        assert_eq!(b[0], 1.0);
        assert_eq!(b[b.len() - 1], 1e7);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }
}
