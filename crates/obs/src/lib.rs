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
//! The process-wide registry is [`global`]; every instrumented crate
//! (`texid-core`, `texid-gpu`, `texid-cache`, `texid-distrib`,
//! `texid-sift`) registers against it, and `texid-distrib`'s REST API
//! serves it as `GET /metrics`. The full metric catalog lives in
//! `OBSERVABILITY.md` at the repository root.
//!
//! Metrics answer *what regressed*; the tracing layer answers *where the
//! time went*: [`TraceContext`] propagates a 128-bit trace id from the
//! REST edge through the scatter-gather into every shard leg, finished
//! spans land in the bounded [`TraceRing`] ([`global_ring`], overflow
//! counted in `texid_trace_events_dropped_total`), and [`ChromeTrace`]
//! renders span trees and the discrete-event pipeline simulation as
//! Perfetto-loadable timelines. Wall-clock and sim-clock events live in
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

#![deny(missing_docs)]

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
pub use events::{global_events, EventRing, WideEvent, DEFAULT_EVENT_RING_CAPACITY};
pub use histogram::{Histogram, DEFAULT_LATENCY_BUCKETS_US};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricKind, Registry};
pub use slo::{SloEngine, SloKind, SloSpec, SloStatus, FAST_BURN_THRESHOLD};
pub use span::Span;
pub use trace::{
    global_ring, wall_now_us, Clock, SpanRecord, TraceContext, TraceRing, TraceSpan,
    TraceSummary, DEFAULT_TRACE_RING_CAPACITY, TRACE_HEADER,
};

use std::sync::OnceLock;

/// Name of the unified per-stage latency histogram family. Labels:
/// `stage` (e.g. `extract`, `encode`, `gemm`, `top2`, `h2d`, `d2h`,
/// `post`, `total`) and `clock` (`wall` for measured host time, `sim` for
/// simulated device time). Units: microseconds.
pub const STAGE_DURATION: &str = "texid_stage_duration_us";

/// One stage of the per-batch search sequence (Tables 1 and 3, §6.2). The
/// only place the stages are listed and their names spelled: every surface
/// that reports per-stage time — metric and drift labels, `/events` keys,
/// sim-clock spans, stage-targeted faults — loops over [`Stage::ALL`].
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

/// The `stage` label of the whole-search series beside the per-stage ones.
pub const STAGE_TOTAL: &str = "total";

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented crate reports into and
/// `GET /metrics` renders. Handles are cheap clones of `Arc`s, so cache
/// them at construction time rather than re-looking them up per event.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Wall-clock microsecond timestamp of the first call — the process
/// start, as far as uptime accounting is concerned.
fn process_start_us() -> f64 {
    static START: OnceLock<u64> = OnceLock::new();
    *START.get_or_init(|| wall_now_us() as u64) as f64
}

/// Register (idempotently) and refresh the process-identity metrics in
/// [`global`]: `texid_build_info{version,git_sha}` — a constant-1
/// info-style gauge whose labels say what is running — and
/// `texid_uptime_seconds`. Call before rendering a scrape so uptime is
/// current.
pub fn touch_process_metrics() {
    let reg = global();
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
