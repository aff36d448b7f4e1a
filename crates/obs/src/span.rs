//! Wall-time spans: scope guards that record elapsed time into the
//! per-stage latency histogram on drop.

use std::time::Instant;

use crate::histogram::Histogram;

/// A scope guard measuring wall time for one pipeline stage.
///
/// Entering reads the monotonic clock once; dropping reads it again and
/// records the elapsed microseconds into
/// `texid_stage_duration_us{stage=..., clock="wall"}`. That is the entire
/// overhead: two clock reads plus one relaxed histogram observe per span.
///
/// ```
/// use texid_obs::{Registry, Span};
///
/// let registry = Registry::new();
/// let encode = registry.stage_duration("encode", "wall");
/// {
///     let _span = Span::with(encode.clone());
///     // ... do the work being timed ...
/// } // histogram updated here
/// assert_eq!(encode.count(), 1);
/// ```
///
/// The histogram handle is registered once, at construction, by whoever
/// owns the registry; timing a span takes no lock.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Span {
    /// Start timing against an already-registered histogram handle
    /// (lock-free).
    pub fn with(hist: Histogram) -> Span {
        Span {
            hist,
            start: Instant::now(),
        }
    }

    /// Elapsed time so far, in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.observe(self.elapsed_us());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        let h = r.stage_duration("work", "wall");
        {
            let _span = Span::with(h.clone());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1000.0, "slept 2ms, recorded {} us", h.sum());
    }

    #[test]
    fn elapsed_is_monotonic() {
        let r = Registry::new();
        let span = Span::with(r.stage_duration("tick", "wall"));
        let a = span.elapsed_us();
        let b = span.elapsed_us();
        assert!(b >= a);
    }
}
