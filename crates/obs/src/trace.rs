//! Distributed request tracing: trace contexts, span records, and the
//! bounded ring buffer holding recently finished spans.
//!
//! A [`TraceContext`] is created at the system edge (the REST API mints
//! one per request, honoring an incoming `X-Texid-Trace-Id` header) and
//! flows down the call tree; every component that does work derives a
//! [`TraceContext::child`] and records a span — either a wall-clock
//! [`TraceSpan`] guard or an explicit sim-clock record via
//! [`TraceRing::record_sim`]. Finished spans land in a [`TraceRing`]: a
//! bounded buffer that overwrites the oldest entries under pressure and
//! counts every casualty in `texid_trace_events_dropped_total`, so
//! overflow is itself observable instead of a silent gap in a timeline.
//!
//! Two clocks, never conflated: [`Clock::Wall`] spans carry microseconds
//! since process start ([`wall_now_us`]); [`Clock::Sim`] spans carry the
//! GPU cost model's simulated microseconds, which are *accounted*, never
//! slept. Consumers (the REST `/trace/<id>` tree, the Perfetto exporter
//! in [`crate::ChromeTrace`]) keep the two on separate tracks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::ring::Ring;
use crate::Registry;

/// HTTP header that carries the 128-bit trace id as 32 lowercase hex
/// characters. The REST edge reads it to join an existing trace and
/// echoes it on every response.
pub const TRACE_HEADER: &str = "X-Texid-Trace-Id";

/// Default capacity of the process-wide [`global_ring`]. A traced
/// 14-shard search records ~100 spans (request, cluster, one leg plus six
/// engine stages per shard, retries), so 4096 slots hold the last ~40
/// searches before overwrites begin.
pub const DEFAULT_TRACE_RING_CAPACITY: usize = 4096;

/// Which clock a span's timestamps are on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Measured host time, microseconds since process start.
    Wall,
    /// Simulated device time from the GPU cost model, microseconds.
    Sim,
}

impl Clock {
    /// Lowercase name used in JSON payloads and exporter categories.
    pub fn as_str(&self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
        }
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds of wall time since the first call in this process. All
/// wall-clock spans share this epoch, so their timestamps are mutually
/// comparable (and load directly into a trace viewer).
pub fn wall_now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

static ID_COUNTER: AtomicU64 = AtomicU64::new(0);
static ID_SEED: OnceLock<u64> = OnceLock::new();

/// A process-unique non-zero 64-bit id (span ids; trace ids use two).
fn next_id() -> u64 {
    let seed = *ID_SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            | 1
    });
    loop {
        let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed.wrapping_add(n));
        if id != 0 {
            return id;
        }
    }
}

/// Propagated identity of one request's trace position: which trace this
/// work belongs to, which span *is* this work, and which span caused it.
///
/// `parent_id == 0` marks a root span. Contexts are tiny `Copy` values —
/// derive a [`TraceContext::child`] per unit of work and hand it down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span of one request.
    pub trace_id: u128,
    /// This span's id (non-zero).
    pub span_id: u64,
    /// The parent span's id; 0 for a root span.
    pub parent_id: u64,
}

impl TraceContext {
    /// A fresh root context with a newly minted trace id.
    pub fn root() -> TraceContext {
        let trace_id = ((next_id() as u128) << 64) | next_id() as u128;
        TraceContext { trace_id, span_id: next_id(), parent_id: 0 }
    }

    /// A root context joining an existing trace (e.g. from an incoming
    /// `X-Texid-Trace-Id` header).
    pub fn with_trace_id(trace_id: u128) -> TraceContext {
        TraceContext { trace_id, span_id: next_id(), parent_id: 0 }
    }

    /// A child context: same trace, fresh span id, parented here.
    pub fn child(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: next_id(), parent_id: self.span_id }
    }

    /// The trace id as 32 lowercase hex characters (the header/URL form).
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// Parse a hex trace id (1–32 hex chars, case-insensitive). Returns
    /// `None` for empty, overlong, or non-hex input.
    pub fn parse_trace_id(s: &str) -> Option<u128> {
        let s = s.trim();
        if s.is_empty() || s.len() > 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok()
    }
}

/// One finished span, as stored in the ring and served by `/trace/<id>`.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; 0 for roots.
    pub parent_id: u64,
    /// Human-readable operation name (`"POST /search"`, `"shard.leg"`).
    pub name: String,
    /// Which clock `start_us`/`dur_us` are on.
    pub clock: Clock,
    /// Start time, µs ([`wall_now_us`] epoch for wall, sim time for sim).
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Free-form key/value annotations. The `track` tag, when present,
    /// names the exporter track the span renders on.
    pub tags: Vec<(String, String)>,
}

impl SpanRecord {
    /// Look up a tag value.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// One line of the `/traces` index: a trace id with its root span info.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Trace id.
    pub trace_id: u128,
    /// Root span name, if the root is still in the ring.
    pub root: Option<String>,
    /// Earliest wall start among the trace's buffered spans, µs.
    pub start_us: f64,
    /// Root span duration (or 0 if the root was overwritten), µs.
    pub dur_us: f64,
    /// Buffered span count for this trace.
    pub spans: usize,
}

/// Bounded ring buffer of finished spans.
///
/// Writers claim a slot with one relaxed `fetch_add` and publish under a
/// per-slot lock they only `try_lock` — the hot path never blocks. Under
/// pressure the ring overwrites oldest-first, and every overwritten or
/// contended-away record increments `texid_trace_events_dropped_total`,
/// so a gappy timeline is always explained by a visible counter rather
/// than silently missing data. (The mechanism is the shared `Ring` in
/// `crate::ring`.)
pub struct TraceRing {
    ring: Ring<SpanRecord>,
}

impl TraceRing {
    /// A ring with `capacity` slots, registering its dropped-events
    /// counter (`texid_trace_events_dropped_total`) in `registry`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, registry: &Registry) -> TraceRing {
        let dropped = registry.counter(
            "texid_trace_events_dropped",
            "Trace span records lost to ring-buffer overwrites or slot contention.",
            &[],
        );
        TraceRing { ring: Ring::new(capacity, dropped) }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Records dropped so far (overwrites + contended writes).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Store one finished span. Never blocks: a contended slot drops the
    /// *new* record, an occupied slot drops the *old* one; both increment
    /// the dropped counter.
    pub fn record(&self, rec: SpanRecord) {
        self.ring.push(|_| rec);
    }

    /// Record a sim-clock span as a fresh child of `parent`. Sim spans
    /// have no wall guard — the caller supplies modeled start/duration.
    pub fn record_sim(
        &self,
        parent: &TraceContext,
        name: &str,
        start_us: f64,
        dur_us: f64,
        tags: Vec<(String, String)>,
    ) {
        self.record(SpanRecord {
            trace_id: parent.trace_id,
            span_id: next_id(),
            parent_id: parent.span_id,
            name: name.to_string(),
            clock: Clock::Sim,
            start_us,
            dur_us,
            tags,
        });
    }

    /// Record an instantaneous wall-clock mark (e.g. a retry attempt) as
    /// a fresh child of `parent`.
    pub fn mark(&self, parent: &TraceContext, name: &str, tags: Vec<(String, String)>) {
        self.record(SpanRecord {
            trace_id: parent.trace_id,
            span_id: next_id(),
            parent_id: parent.span_id,
            name: name.to_string(),
            clock: Clock::Wall,
            start_us: wall_now_us(),
            dur_us: 0.0,
            tags,
        });
    }

    /// Start a wall-clock span *as* `ctx` (the caller already derived the
    /// child context, so ids can be handed out before work begins — e.g.
    /// to parent retry marks drawn while planning a shard leg). Records on
    /// drop, including on panic, so crashed legs stay visible.
    pub fn span(&self, ctx: &TraceContext, name: &str) -> TraceSpan<'_> {
        TraceSpan {
            ring: self,
            ctx: *ctx,
            name: name.to_string(),
            tags: Vec::new(),
            start_us: wall_now_us(),
            start: Instant::now(),
        }
    }

    /// All buffered spans of one trace, sorted by start time then id.
    pub fn snapshot_trace(&self, trace_id: u128) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        self.ring.for_each(|rec| {
            if rec.trace_id == trace_id {
                out.push(rec.clone());
            }
        });
        out.sort_by(|a, b| {
            a.start_us
                .partial_cmp(&b.start_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.span_id.cmp(&b.span_id))
        });
        out
    }

    /// Index of buffered traces, most recently started first, at most
    /// `limit` entries.
    pub fn recent_traces(&self, limit: usize) -> Vec<TraceSummary> {
        use std::collections::HashMap;
        let mut acc: HashMap<u128, TraceSummary> = HashMap::new();
        self.ring.for_each(|rec| {
            let entry = acc.entry(rec.trace_id).or_insert_with(|| TraceSummary {
                trace_id: rec.trace_id,
                root: None,
                start_us: f64::INFINITY,
                dur_us: 0.0,
                spans: 0,
            });
            entry.spans += 1;
            if rec.clock == Clock::Wall && rec.start_us < entry.start_us {
                entry.start_us = rec.start_us;
            }
            if rec.parent_id == 0 {
                entry.root = Some(rec.name.clone());
                entry.dur_us = rec.dur_us;
            }
        });
        let mut out: Vec<TraceSummary> = acc
            .into_values()
            .map(|mut s| {
                if s.start_us.is_infinite() {
                    s.start_us = 0.0;
                }
                s
            })
            .collect();
        out.sort_by(|a, b| {
            b.start_us.partial_cmp(&a.start_us).unwrap_or(std::cmp::Ordering::Equal)
        });
        out.truncate(limit);
        out
    }
}

/// Scope guard for a wall-clock trace span: records into its ring on
/// drop (two clock reads + one ring write of overhead). Build tags with
/// the chainable [`TraceSpan::tag`].
#[must_use = "a trace span records on drop; binding it to `_` drops it immediately"]
pub struct TraceSpan<'r> {
    ring: &'r TraceRing,
    ctx: TraceContext,
    name: String,
    tags: Vec<(String, String)>,
    start_us: f64,
    start: Instant,
}

impl TraceSpan<'_> {
    /// Attach a tag (chainable).
    pub fn tag(mut self, key: &str, value: &str) -> Self {
        self.tags.push((key.to_string(), value.to_string()));
        self
    }

    /// The context this span records as.
    pub fn ctx(&self) -> &TraceContext {
        &self.ctx
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.ring.record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.ctx.parent_id,
            name: std::mem::take(&mut self.name),
            clock: Clock::Wall,
            start_us: self.start_us,
            dur_us: self.start.elapsed().as_secs_f64() * 1e6,
            tags: std::mem::take(&mut self.tags),
        });
    }
}

static GLOBAL_RING: OnceLock<TraceRing> = OnceLock::new();

/// The process-wide trace ring every instrumented crate records into and
/// the REST `/trace` routes read. Its dropped counter registers in
/// [`crate::global`] on first use, so `/metrics` always exports
/// `texid_trace_events_dropped_total` once tracing is active.
pub fn global_ring() -> &'static TraceRing {
    GLOBAL_RING.get_or_init(|| TraceRing::new(DEFAULT_TRACE_RING_CAPACITY, crate::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u128, span_id: u64, parent_id: u64, name: &str, start: f64) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name: name.to_string(),
            clock: Clock::Wall,
            start_us: start,
            dur_us: 1.0,
            tags: Vec::new(),
        }
    }

    #[test]
    fn context_lineage() {
        let root = TraceContext::root();
        assert_eq!(root.parent_id, 0);
        assert_ne!(root.span_id, 0);
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn trace_id_hex_roundtrip() {
        let ctx = TraceContext::root();
        let hex = ctx.trace_id_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(TraceContext::parse_trace_id(&hex), Some(ctx.trace_id));
        assert_eq!(TraceContext::parse_trace_id("ABC"), Some(0xabc));
        assert_eq!(TraceContext::parse_trace_id(""), None);
        assert_eq!(TraceContext::parse_trace_id("xyz"), None);
        assert_eq!(TraceContext::parse_trace_id(&"f".repeat(33)), None);
    }

    #[test]
    fn ring_stores_and_snapshots_by_trace() {
        let reg = Registry::new();
        let ring = TraceRing::new(16, &reg);
        ring.record(rec(7, 1, 0, "root", 0.0));
        ring.record(rec(7, 2, 1, "leg", 1.0));
        ring.record(rec(8, 3, 0, "other", 2.0));
        let spans = ring.snapshot_trace(7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[1].name, "leg");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let reg = Registry::new();
        let ring = TraceRing::new(4, &reg);
        for i in 0..10u64 {
            ring.record(rec(1, i + 1, 0, "s", i as f64));
        }
        // 10 writes into 4 slots: 6 overwrites, each counted.
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.snapshot_trace(1).len(), 4);
        let text = reg.render_prometheus();
        assert!(text.contains("texid_trace_events_dropped_total 6"), "{text}");
    }

    #[test]
    fn span_guard_records_on_drop_with_tags() {
        let reg = Registry::new();
        let ring = TraceRing::new(8, &reg);
        let ctx = TraceContext::root();
        {
            let _span = ring.span(&ctx, "work").tag("shard", "3");
        }
        let spans = ring.snapshot_trace(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert_eq!(spans[0].span_id, ctx.span_id);
        assert_eq!(spans[0].tag("shard"), Some("3"));
        assert_eq!(spans[0].clock, Clock::Wall);
        assert!(spans[0].dur_us >= 0.0);
    }

    #[test]
    fn span_guard_records_even_on_panic() {
        let reg = Registry::new();
        let ring = TraceRing::new(8, &reg);
        let ctx = TraceContext::root();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = ring.span(&ctx, "doomed");
            panic!("injected");
        }));
        assert!(result.is_err());
        assert_eq!(ring.snapshot_trace(ctx.trace_id).len(), 1, "crashed span must survive");
    }

    #[test]
    fn sim_records_keep_their_clock() {
        let reg = Registry::new();
        let ring = TraceRing::new(8, &reg);
        let ctx = TraceContext::root();
        ring.record_sim(&ctx, "gemm", 10.0, 25.0, vec![("stage".into(), "gemm".into())]);
        let spans = ring.snapshot_trace(ctx.trace_id);
        assert_eq!(spans[0].clock, Clock::Sim);
        assert_eq!(spans[0].start_us, 10.0);
        assert_eq!(spans[0].dur_us, 25.0);
        assert_eq!(spans[0].parent_id, ctx.span_id);
        assert_ne!(spans[0].span_id, ctx.span_id);
    }

    #[test]
    fn recent_traces_index_roots() {
        let reg = Registry::new();
        let ring = TraceRing::new(32, &reg);
        ring.record(rec(1, 1, 0, "first", 0.0));
        ring.record(rec(1, 2, 1, "leg", 0.5));
        ring.record(rec(2, 3, 0, "second", 5.0));
        let idx = ring.recent_traces(10);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].trace_id, 2, "most recent first");
        assert_eq!(idx[0].root.as_deref(), Some("second"));
        assert_eq!(idx[1].spans, 2);
        assert_eq!(ring.recent_traces(1).len(), 1);
    }
}
