//! Metric registration and the family map one registry holds.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge};

/// What kind of instrument a metric family holds. One family (one metric
/// name) has exactly one kind; re-registering under a different kind is a
/// programming error and panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count; rendered with a `_total` suffix.
    Counter,
    /// Last-written point-in-time value.
    Gauge,
    /// Fixed-bucket distribution; rendered as `_bucket`/`_sum`/`_count`.
    Histogram,
}

/// A single registered instrument plus its (sorted) label set.
#[derive(Clone)]
pub(crate) enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// All instruments sharing one metric name.
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    /// Keyed by the serialized, key-sorted label set so registration is
    /// idempotent per (name, labels) and exposition order is stable.
    pub(crate) series: BTreeMap<Vec<(String, String)>, Instrument>,
}

pub(crate) struct Inner {
    pub(crate) families: Mutex<BTreeMap<String, Family>>,
}

/// A cheaply-cloneable handle to a set of metric families.
///
/// Registration (`counter` / `gauge` / `histogram`) takes a mutex and may
/// allocate — do it once at construction time and cache the returned
/// handles; the handles themselves are lock-free on the hot path. There
/// is no process-wide instance: each served cluster owns one, and its
/// shards, engines, caches and HTTP server register there, so two clusters
/// in one process never share a count.
#[derive(Clone)]
pub struct Registry {
    pub(crate) inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                families: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Register (or look up) a counter. The exposition name gets a
    /// `_total` suffix appended if not already present, per Prometheus
    /// naming convention; pass the base name and the registry normalizes.
    ///
    /// Idempotent: the same `(name, labels)` always returns a handle to
    /// the same underlying cell, so double-registration cannot split an
    /// event stream across two series.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a gauge or histogram.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let name = if name.ends_with("_total") {
            name.to_string()
        } else {
            format!("{name}_total")
        };
        let inst = self.register(&name, help, MetricKind::Counter, labels, || {
            Instrument::Counter(Counter::new())
        });
        match inst {
            Instrument::Counter(c) => c,
            #[expect(clippy::unreachable, reason = "register() asserts the family is a counter")]
            _ => unreachable!("kind checked in register()"),
        }
    }

    /// Register (or look up) a gauge. Gauge names never get a `_total`
    /// suffix — that suffix is reserved for counters.
    ///
    /// # Panics
    /// Panics if `name` is already registered under a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let inst = self.register(name, help, MetricKind::Gauge, labels, || {
            Instrument::Gauge(Gauge::new())
        });
        match inst {
            Instrument::Gauge(g) => g,
            #[expect(clippy::unreachable, reason = "register() asserts the family is a gauge")]
            _ => unreachable!("kind checked in register()"),
        }
    }

    /// Register (or look up) a histogram over the default latency ladder
    /// ([`crate::DEFAULT_LATENCY_BUCKETS_US`]).
    ///
    /// # Panics
    /// Panics if `name` is already registered under a different kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with_bounds(name, help, labels, &crate::DEFAULT_LATENCY_BUCKETS_US)
    }

    /// Register (or look up) a histogram with explicit bucket bounds. The
    /// bounds are fixed by whichever registration wins the race; later
    /// calls with different bounds get the existing series.
    ///
    /// # Panics
    /// Panics if `name` is already registered under a different kind.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let inst = self.register(name, help, MetricKind::Histogram, labels, || {
            Instrument::Histogram(Histogram::with_bounds(bounds))
        });
        match inst {
            Instrument::Histogram(h) => h,
            #[expect(clippy::unreachable, reason = "register() asserts the family is a histogram")]
            _ => unreachable!("kind checked in register()"),
        }
    }

    /// The unified per-stage latency histogram
    /// (`texid_stage_duration_us{stage=..., clock=...}`). `clock` is
    /// `"wall"` for measured host time or `"sim"` for simulated device
    /// time from the performance model.
    pub fn stage_duration(&self, stage: &str, clock: &str) -> Histogram {
        self.histogram(
            crate::STAGE_DURATION,
            "Per-stage pipeline latency in microseconds; clock=wall is measured, clock=sim is modeled.",
            &[("stage", stage), ("clock", clock)],
        )
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        key.sort();
        let mut families = self.inner.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name:?} already registered as {:?}, cannot re-register as {kind:?}",
            family.kind
        );
        family.series.entry(key).or_insert_with(make).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_labelset() {
        let r = Registry::new();
        let a = r.counter("events", "Events.", &[("kind", "x")]);
        let b = r.counter("events", "Events.", &[("kind", "x")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) shares one cell");
        let other = r.counter("events", "Events.", &[("kind", "y")]);
        assert_eq!(other.get(), 0, "different labels get a fresh cell");
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter("hits", "Hits.", &[("a", "1"), ("b", "2")]);
        let b = r.counter("hits", "Hits.", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn counter_total_suffix_is_normalized() {
        let r = Registry::new();
        let a = r.counter("requests", "Requests.", &[]);
        let b = r.counter("requests_total", "Requests.", &[]);
        a.inc();
        assert_eq!(b.get(), 1, "base and _total names resolve to one family");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.gauge("speed", "Speed.", &[]);
        let _ = r.histogram("speed", "Speed.", &[]);
    }

    #[test]
    fn stage_duration_families_unify() {
        let r = Registry::new();
        let wall = r.stage_duration("extract", "wall");
        let sim = r.stage_duration("gemm", "sim");
        wall.observe(5.0);
        sim.observe(7.0);
        assert_eq!(r.stage_duration("extract", "wall").count(), 1);
        assert_eq!(r.stage_duration("gemm", "sim").count(), 1);
    }
}
