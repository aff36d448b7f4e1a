//! # texid-obs
//!
//! Runtime telemetry for the texture-identification system. The paper's
//! headline claims are all *measurements* — schedule efficiency (Eq. 4),
//! GPU efficiency (Eq. 3), the 872,984 img/s distributed figure — and
//! Johnson et al.'s billion-scale experience shows the bottleneck moves
//! between copy, compute, and gather per workload. This crate is the
//! instrumentation layer that makes those numbers readable off a *running*
//! cluster instead of a post-hoc bench report.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost ≈ one relaxed atomic op.** [`Counter::inc`],
//!    [`Gauge::set`], and [`Histogram::observe`] touch only
//!    `AtomicU64`s with `Ordering::Relaxed` — no locks, no allocation, no
//!    syscalls. A [`Span`] adds a single monotonic clock read per edge.
//! 2. **Registration is the slow path.** [`Registry::counter`] /
//!    [`Registry::gauge`] / [`Registry::histogram`] take a mutex and may
//!    allocate; callers register once (at construction) and keep the
//!    cheaply-cloneable handles.
//! 3. **Prometheus-compatible exposition.** [`Registry::render_prometheus`]
//!    emits the text format (version 0.0.4): `# HELP` / `# TYPE` comments,
//!    `_total`-suffixed counters, cumulative `_bucket{le=...}` histogram
//!    series with `_sum` / `_count`, and escaped label values.
//!
//! There is no process-wide registry.
//! `texid-distrib`'s `Cluster` builds a [`Registry`], a [`TraceRing`] and an
//! [`EventRing`] per cluster; its shards, their engines and caches report
//! into them, and its REST API serves them as `GET /metrics`, `/traces` and
//! `/events`. The full metric catalog lives in `OBSERVABILITY.md` at the
//! repository root.
//!
//! Metrics answer *what regressed*; the tracing layer answers *where the
//! time went*: [`TraceContext`] propagates a 128-bit trace id from the
//! REST edge through the scatter-gather into every shard leg, finished
//! spans land in the bounded [`TraceRing`] (overflow counted in
//! `texid_trace_events_dropped_total`), and [`ChromeTrace`] renders a
//! served request's span tree (`texid trace`) as a Perfetto-loadable
//! timeline. Wall-clock and sim-clock events live in
//! separate trace processes so the two clocks are never conflated
//! (OBSERVABILITY.md, "Tracing").
//!
//! ```
//! use texid_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("demo_cache_hits", "Cache hits.", &[("tier", "device")]);
//! hits.add(3);
//! let text = registry.render_prometheus();
//! assert!(text.contains(r#"demo_cache_hits_total{tier="device"} 3"#));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod chrome;
mod drift;
mod events;
mod histogram;
mod metrics;
mod prometheus;
mod registry;
mod ring;
mod slo;
mod span;
mod trace;

pub use chrome::ChromeTrace;
pub use drift::{DriftSentry, DriftStatus, DRIFT_EWMA_ALPHA, DRIFT_STAGES};
pub use events::{EventRing, WideEvent, DEFAULT_EVENT_RING_CAPACITY};
pub use histogram::{Histogram, DEFAULT_LATENCY_BUCKETS_US};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricKind, Registry};
pub use slo::{SloEngine, SloKind, SloSpec, SloStatus, FAST_BURN_THRESHOLD};
pub use span::Span;
pub use trace::{
    wall_now_us, Clock, SpanRecord, TraceContext, TraceRing, TraceSpan, TraceSummary,
    DEFAULT_TRACE_RING_CAPACITY, TRACE_HEADER,
};

use std::ops::{AddAssign, Index, IndexMut};
use std::sync::OnceLock;

/// Name of the unified per-stage latency histogram family. Labels:
/// `stage` (e.g. `encode`, `gemm`, `top2`, `h2d`, `d2h`,
/// `post`, `total`) and `clock` (`wall` for measured host time, `sim` for
/// simulated device time). Units: microseconds.
pub const STAGE_DURATION: &str = "texid_stage_duration_us";

/// One stage of the per-batch search sequence (Tables 1 and 3, §6.2). The
/// only place the stages are listed and their names spelled: every surface
/// that reports per-stage time — metric and drift labels, `/events` keys,
/// sim-clock spans, stage-targeted faults — loops over [`Stage::ALL`].
/// Declared in [`Stage::ALL`] order, which is the slot order of [`StageUs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Host-to-device reference streaming (host-resident batches only).
    H2d,
    /// The matching GEMM.
    Gemm,
    /// Top-2 neighbor selection (fused with the √ epilogue).
    Top2,
    /// Device-to-host result transfer.
    D2h,
    /// CPU post-processing (ratio test, marshalling).
    Post,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [Stage::H2d, Stage::Gemm, Stage::Top2, Stage::D2h, Stage::Post];

    /// The `stage` label value in metrics, drift status and trace tags.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::H2d => "h2d",
            Stage::Gemm => "gemm",
            Stage::Top2 => "top2",
            Stage::D2h => "d2h",
            Stage::Post => "post",
        }
    }

    /// Name of this stage's sim-clock span: the kernel the device runs.
    pub const fn span_name(self) -> &'static str {
        match self {
            Stage::Gemm => "hgemm",
            other => other.name(),
        }
    }

    /// Key of this stage's summed µs in a `/events` line.
    pub const fn event_key(self) -> &'static str {
        match self {
            Stage::H2d => "h2d_us",
            Stage::Gemm => "gemm_us",
            Stage::Top2 => "top2_us",
            Stage::D2h => "d2h_us",
            Stage::Post => "post_us",
        }
    }
}

/// Simulated µs per [`Stage`], one slot each in [`Stage::ALL`] order: the one
/// per-stage layout of every record that carries stage time (the engine's
/// `SearchReport`, [`WideEvent`]). Indexed by [`Stage`]; `+=` adds slot by
/// slot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageUs([f64; 5]);

// A stage's discriminant is its slot.
const _: () = {
    let mut i = 0;
    while i < Stage::ALL.len() {
        assert!(Stage::ALL[i] as usize == i);
        i += 1;
    }
};

impl Index<Stage> for StageUs {
    type Output = f64;

    fn index(&self, stage: Stage) -> &f64 {
        &self.0[stage as usize]
    }
}

impl IndexMut<Stage> for StageUs {
    fn index_mut(&mut self, stage: Stage) -> &mut f64 {
        &mut self.0[stage as usize]
    }
}

impl AddAssign for StageUs {
    fn add_assign(&mut self, rhs: StageUs) {
        for (sum, us) in self.0.iter_mut().zip(rhs.0) {
            *sum += us;
        }
    }
}

/// The `stage` label of the whole-search series beside the per-stage ones.
pub const STAGE_TOTAL: &str = "total";

/// Wall-clock microsecond timestamp of the first call — the process
/// start, as far as uptime accounting is concerned.
fn process_start_us() -> f64 {
    static START: OnceLock<u64> = OnceLock::new();
    *START.get_or_init(|| wall_now_us() as u64) as f64
}

/// Register (idempotently) and refresh the process-identity metrics in
/// `reg`: `texid_build_info{version,git_sha}` — a constant-1 info-style
/// gauge whose labels say what is running — and `texid_uptime_seconds`.
/// Call before rendering a scrape so uptime is current.
pub fn touch_process_metrics(reg: &Registry) {
    reg.gauge(
        "texid_build_info",
        "Constant 1; the version and git_sha labels identify the running build.",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_sha", option_env!("GIT_SHA").unwrap_or("unknown")),
        ],
    )
    .set(1.0);
    let start = process_start_us();
    reg.gauge(
        "texid_uptime_seconds",
        "Seconds since this process first touched its metrics.",
        &[],
    )
    .set((wall_now_us() - start).max(0.0) / 1e6);
}
