//! Declarative SLOs with multi-window burn-rate computation.
//!
//! An [`SloSpec`] names an objective ("99% of searches under 100 ms"),
//! and an [`SloEngine`] tracks good/bad outcomes against it in one-second
//! circular buckets. Burn rate follows the standard error-budget math:
//! `burn = (observed error rate) / (allowed error rate)`, computed over a
//! short and a long window so a `GET /slo` poll distinguishes a fresh
//! fast burn (both windows hot) from the tail of an old incident (long
//! hot, short cold). A burn rate above 14.4 on both windows — the
//! canonical 2%-of-monthly-budget-in-an-hour page threshold — sets
//! [`SloStatus::fast_burn`].
//!
//! Two clocks meet here. A latency objective judges whatever latency its
//! caller passes to [`SloEngine::record`]; the cluster passes each
//! search's simulated makespan (the slowest shard's sim-clock total), so
//! `search-latency` is a cost-model objective. Only the one-second bucket
//! windows tick on the host wall clock. A latency objective on wall time
//! waits for the engine to measure wall phases (ROADMAP item 1).

use std::sync::Mutex;

use crate::metrics::{Counter, Gauge};
use crate::trace::wall_now_us;
use crate::Registry;

/// Burn rate above which both windows burning means "page now": spends
/// 2% of a 30-day error budget per hour.
pub const FAST_BURN_THRESHOLD: f64 = 14.4;

/// What an objective measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloKind {
    /// Good = the query was served *and* the latency its caller recorded
    /// is within `threshold_us` (the cluster records sim-clock makespan).
    Latency {
        /// Latency threshold, in the microseconds the caller records.
        threshold_us: f64,
    },
    /// Good = the query was served at all (not failed outright).
    Availability,
}

/// One declarative objective.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable name used as the `slo` label on every `texid_slo_*` series.
    pub name: String,
    /// What counts as a good event.
    pub kind: SloKind,
    /// Target good fraction, e.g. `0.99` for a 99% objective.
    pub target: f64,
    /// Short burn window in seconds (fast-burn detection).
    pub short_window_s: u64,
    /// Long burn window in seconds (budget accounting); also the ring
    /// retention, so it bounds memory at one bucket per second.
    pub long_window_s: u64,
}

impl SloSpec {
    /// A latency objective: `target` fraction of queries under
    /// `threshold_us`, with 60 s / 3600 s burn windows.
    pub fn latency(name: &str, threshold_us: f64, target: f64) -> Self {
        SloSpec {
            name: name.to_string(),
            kind: SloKind::Latency { threshold_us },
            target,
            short_window_s: 60,
            long_window_s: 3600,
        }
    }

    /// An availability objective with 60 s / 3600 s burn windows.
    pub fn availability(name: &str, target: f64) -> Self {
        SloSpec {
            name: name.to_string(),
            kind: SloKind::Availability,
            target,
            short_window_s: 60,
            long_window_s: 3600,
        }
    }
}

/// Point-in-time view of one objective, for `/slo` and `/health`.
#[derive(Clone, Debug)]
pub struct SloStatus {
    /// The objective's name.
    pub name: String,
    /// Target good fraction.
    pub target: f64,
    /// Good events inside the long window.
    pub good: u64,
    /// Bad events inside the long window.
    pub bad: u64,
    /// Burn rate over the short window (1.0 = burning exactly at budget).
    pub short_burn: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// Fraction of the long-window error budget still unspent, clamped
    /// to `[0, 1]`.
    pub budget_remaining: f64,
    /// Both windows above [`FAST_BURN_THRESHOLD`].
    pub fast_burn: bool,
}

/// One-second bucket: `(second, good, bad)`.
type Bucket = (u64, u64, u64);

struct TrackedSlo {
    spec: SloSpec,
    /// Circular buckets indexed by `second % long_window_s`; a bucket is
    /// lazily reset when a new second hashes onto it.
    buckets: Mutex<Vec<Bucket>>,
    good_total: Counter,
    bad_total: Counter,
    short_burn: Gauge,
    long_burn: Gauge,
    budget_remaining: Gauge,
}

/// Tracks a set of objectives and keeps their `texid_slo_*` series fresh.
pub struct SloEngine {
    slos: Vec<TrackedSlo>,
}

impl SloEngine {
    /// Build an engine for `specs`, registering per-SLO series
    /// (`texid_slo_good_total`, `texid_slo_bad_total`,
    /// `texid_slo_burn_rate{window=short|long}`,
    /// `texid_slo_budget_remaining`) in `reg`.
    pub fn register(specs: Vec<SloSpec>, reg: &Registry) -> Self {
        let slos = specs
            .into_iter()
            .map(|spec| {
                assert!(spec.long_window_s > 0, "long window must be positive");
                assert!(
                    spec.target < 1.0 && spec.target > 0.0,
                    "target must be in (0, 1): a target of exactly 1.0 has no error budget"
                );
                let lbl = [("slo", spec.name.as_str())];
                TrackedSlo {
                    buckets: Mutex::new(vec![(u64::MAX, 0, 0); spec.long_window_s as usize]),
                    good_total: reg.counter(
                        "texid_slo_good",
                        "Events that met their SLO, by objective.",
                        &lbl,
                    ),
                    bad_total: reg.counter(
                        "texid_slo_bad",
                        "Events that violated their SLO, by objective.",
                        &lbl,
                    ),
                    short_burn: reg.gauge(
                        "texid_slo_burn_rate",
                        "Error-budget burn rate (1.0 = burning exactly at budget), by objective and window.",
                        &[("slo", spec.name.as_str()), ("window", "short")],
                    ),
                    long_burn: reg.gauge(
                        "texid_slo_burn_rate",
                        "Error-budget burn rate (1.0 = burning exactly at budget), by objective and window.",
                        &[("slo", spec.name.as_str()), ("window", "long")],
                    ),
                    budget_remaining: reg.gauge(
                        "texid_slo_budget_remaining",
                        "Fraction of the long-window error budget unspent, by objective.",
                        &lbl,
                    ),
                    spec,
                }
            })
            .collect();
        SloEngine { slos }
    }

    /// Record one served query against every objective, stamped now.
    pub fn record(&self, latency_us: f64, available: bool) {
        self.record_at(wall_now_us(), latency_us, available);
    }

    /// Record with an explicit wall timestamp (microseconds since the
    /// epoch). Public so tests can drive window arithmetic
    /// deterministically.
    pub fn record_at(&self, now_us: f64, latency_us: f64, available: bool) {
        let sec = (now_us / 1e6) as u64;
        for slo in &self.slos {
            let good = match slo.spec.kind {
                SloKind::Latency { threshold_us } => available && latency_us <= threshold_us,
                SloKind::Availability => available,
            };
            {
                let mut buckets = slo.buckets.lock().unwrap();
                let cap = buckets.len() as u64;
                let b = &mut buckets[(sec % cap) as usize];
                if b.0 != sec {
                    *b = (sec, 0, 0);
                }
                if good {
                    b.1 += 1;
                } else {
                    b.2 += 1;
                }
            }
            if good {
                slo.good_total.inc();
            } else {
                slo.bad_total.inc();
            }
            let (sb, lb, rem, _) = slo.burn_at(sec);
            slo.short_burn.set(sb);
            slo.long_burn.set(lb);
            slo.budget_remaining.set(rem);
        }
    }

    /// Snapshot every objective as of now.
    pub fn status(&self) -> Vec<SloStatus> {
        self.status_at(wall_now_us())
    }

    /// Snapshot with an explicit wall timestamp (for tests).
    pub fn status_at(&self, now_us: f64) -> Vec<SloStatus> {
        let sec = (now_us / 1e6) as u64;
        self.slos
            .iter()
            .map(|slo| {
                let (short_burn, long_burn, budget_remaining, (good, bad)) = slo.burn_at(sec);
                SloStatus {
                    name: slo.spec.name.clone(),
                    target: slo.spec.target,
                    good,
                    bad,
                    short_burn,
                    long_burn,
                    budget_remaining,
                    fast_burn: short_burn > FAST_BURN_THRESHOLD && long_burn > FAST_BURN_THRESHOLD,
                }
            })
            .collect()
    }
}

impl TrackedSlo {
    /// `(short_burn, long_burn, budget_remaining, (long_good, long_bad))`
    /// as of second `sec`.
    fn burn_at(&self, sec: u64) -> (f64, f64, f64, (u64, u64)) {
        let allowed = 1.0 - self.spec.target;
        let buckets = self.buckets.lock().unwrap();
        let window = |span: u64| -> (u64, u64) {
            let oldest = sec.saturating_sub(span.saturating_sub(1));
            buckets
                .iter()
                .filter(|b| b.0 >= oldest && b.0 <= sec)
                .fold((0, 0), |(g, bd), b| (g + b.1, bd + b.2))
        };
        let burn = |(good, bad): (u64, u64)| -> f64 {
            let total = good + bad;
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / allowed
            }
        };
        let short = window(self.spec.short_window_s);
        let long = window(self.spec.long_window_s);
        let budget_remaining = (1.0 - burn(long)).clamp(0.0, 1.0);
        (burn(short), burn(long), budget_remaining, long)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(spec: SloSpec) -> SloEngine {
        SloEngine::register(vec![spec], &Registry::new())
    }

    #[test]
    fn latency_objective_classifies_good_and_bad() {
        let e = engine(SloSpec::latency("lat", 100.0, 0.9));
        let t0 = 1_000.0 * 1e6;
        for _ in 0..9 {
            e.record_at(t0, 50.0, true);
        }
        e.record_at(t0, 500.0, true); // served, but slow: bad
        let s = &e.status_at(t0)[0];
        assert_eq!((s.good, s.bad), (9, 1));
        // 10% bad against a 10% budget: burning exactly at budget.
        assert!((s.long_burn - 1.0).abs() < 1e-9, "long_burn {}", s.long_burn);
        assert!((s.budget_remaining - 0.0).abs() < 1e-9);
        assert!(!s.fast_burn);
    }

    #[test]
    fn unavailability_is_bad_for_both_kinds() {
        let e = SloEngine::register(
            vec![SloSpec::latency("lat", 100.0, 0.5), SloSpec::availability("avail", 0.5)],
            &Registry::new(),
        );
        let t0 = 2_000.0 * 1e6;
        e.record_at(t0, 10.0, false); // fast but failed
        for s in e.status_at(t0) {
            assert_eq!((s.good, s.bad), (0, 1), "{}", s.name);
        }
    }

    #[test]
    fn short_window_cools_while_long_window_remembers() {
        let mut spec = SloSpec::availability("avail", 0.99);
        spec.short_window_s = 5;
        spec.long_window_s = 100;
        let e = engine(spec);
        let t0 = 5_000.0 * 1e6;
        // An incident: 10 failures at t0.
        for _ in 0..10 {
            e.record_at(t0, 1.0, false);
        }
        // Then a healthy minute: one success per second for 50 s.
        for i in 1..=50u64 {
            e.record_at(t0 + i as f64 * 1e6, 1.0, true);
        }
        let now = t0 + 50.0 * 1e6;
        let s = &e.status_at(now)[0];
        assert_eq!(s.short_burn, 0.0, "incident left the short window");
        assert!(s.long_burn > FAST_BURN_THRESHOLD, "long window still hot: {}", s.long_burn);
        assert!(!s.fast_burn, "one cold window means no fast-burn page");
        // Immediately after the incident, both windows burn.
        let hot = &e.status_at(t0 + 1e6)[0];
        assert!(hot.short_burn > FAST_BURN_THRESHOLD);
    }

    #[test]
    fn stale_buckets_from_a_previous_lap_are_reset() {
        let mut spec = SloSpec::availability("avail", 0.5);
        spec.short_window_s = 2;
        spec.long_window_s = 4;
        let e = engine(spec);
        let t0 = 10_000.0 * 1e6;
        e.record_at(t0, 1.0, false);
        // One full lap later the same slot must not resurrect old counts.
        e.record_at(t0 + 4.0 * 1e6, 1.0, true);
        let s = &e.status_at(t0 + 4.0 * 1e6)[0];
        assert_eq!((s.good, s.bad), (1, 0), "old lap evicted");
    }

    #[test]
    fn metrics_surface_burn_rates() {
        let reg = Registry::new();
        let e = SloEngine::register(vec![SloSpec::availability("avail", 0.9)], &reg);
        e.record_at(42.0 * 1e6, 1.0, false);
        let text = reg.render_prometheus();
        assert!(text.contains("texid_slo_bad_total{slo=\"avail\"} 1"), "{text}");
        assert!(text.contains("texid_slo_burn_rate{slo=\"avail\",window=\"short\"} 10"), "{text}");
        assert!(text.contains("texid_slo_budget_remaining{slo=\"avail\"} 0"), "{text}");
    }
}
