//! One GPU container and everything that is per-shard: its engine, its
//! circuit breaker, its metric series, and [`Shard::run_group`] — how a
//! pool worker runs a group of this shard's queued legs.

use super::pool::LegJob;
use super::{ClusterConfig, ClusterError, ResilienceConfig};
use parking_lot::{Mutex, RwLock};
use std::time::Instant;
use texid_core::{EncodedQuery, Engine, SearchResult};
use texid_obs::{global_ring, Counter, Gauge, Histogram, Registry, TraceContext, TraceSpan};

/// Shard health, as driven by the per-shard circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Failed recently but still serving (below the trip threshold).
    Suspect,
    /// Breaker open: skipped by searches until a half-open probe succeeds.
    Down,
}

impl ShardHealth {
    /// Lowercase name (REST `/health` payload).
    pub fn as_str(&self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Down => "down",
        }
    }
}

/// Numeric encoding of [`ShardHealth`] for the breaker-state gauge.
fn breaker_gauge_value(health: ShardHealth) -> f64 {
    match health {
        ShardHealth::Healthy => 0.0,
        ShardHealth::Suspect => 1.0,
        ShardHealth::Down => 2.0,
    }
}

/// Public point-in-time view of one shard's breaker state.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Current health.
    pub health: ShardHealth,
    /// Consecutive failures (resets on success).
    pub consecutive_failures: u32,
    /// Lifetime failures.
    pub total_failures: u64,
    /// Half-open probes attempted.
    pub probes: u64,
}

/// Searches a `Down` shard sits out before a half-open probe.
const COOLDOWN_SEARCHES: u32 = 2;

/// Breaker bookkeeping for one shard: the [`ShardStatus`] it reports, plus
/// what only the breaker reads. Both transitions publish
/// `texid_shard_breaker_state` themselves, so the gauge cannot lag the
/// state it mirrors.
struct ShardState {
    status: ShardStatus,
    /// Searches sat out since the breaker opened.
    skips_while_down: u32,
    gauge: Gauge,
}

impl ShardState {
    fn new(shard: usize, gauge: Gauge) -> ShardState {
        let status = ShardStatus {
            shard,
            health: ShardHealth::Healthy,
            consecutive_failures: 0,
            total_failures: 0,
            probes: 0,
        };
        let mut state = ShardState { status, skips_while_down: 0, gauge };
        state.enter(ShardHealth::Healthy);
        state
    }

    fn enter(&mut self, health: ShardHealth) {
        self.status.health = health;
        self.gauge.set(breaker_gauge_value(health));
    }

    /// Whether this search dispatches to the shard: always, unless its
    /// breaker is open — a `Down` shard sits out [`COOLDOWN_SEARCHES`]
    /// searches and is then probed half-open.
    fn admit(&mut self) -> bool {
        if self.status.health == ShardHealth::Down {
            self.skips_while_down += 1;
            if self.skips_while_down < COOLDOWN_SEARCHES {
                return false;
            }
            self.status.probes += 1; // half-open probe
        }
        true
    }

    fn record_success(&mut self) {
        self.status.consecutive_failures = 0;
        self.skips_while_down = 0;
        self.enter(ShardHealth::Healthy);
    }

    fn record_failure(&mut self, trip_threshold: u32) {
        self.status.consecutive_failures += 1;
        self.status.total_failures += 1;
        self.skips_while_down = 0;
        self.enter(if self.status.consecutive_failures >= trip_threshold {
            ShardHealth::Down
        } else {
            ShardHealth::Suspect
        });
    }
}

/// One GPU container: its engine behind a read/write lock (searches share
/// the read side; `add_reference`/`flush`/recovery take the write side),
/// its breaker, and the `shard`-labelled series only this shard moves.
pub(super) struct Shard {
    index: usize,
    resilience: ResilienceConfig,
    pub(super) engine: RwLock<Engine>,
    breaker: Mutex<ShardState>,
    /// `texid_coalesced_batch_size`, the one unlabelled series every shard
    /// shares.
    group_size: Histogram,
    failures: Counter,
    skips: Counter,
    search_duration: Histogram,
    lock_wait: Histogram,
    replay_records: Counter,
    replay_quarantined: Counter,
    replay_duration: Histogram,
}

impl Shard {
    /// Bring up container `index` with an empty engine, registering its
    /// series in `reg`.
    pub(super) fn new(index: usize, cfg: &ClusterConfig, reg: &Registry) -> Shard {
        let shard = index.to_string();
        let labels = [("shard", shard.as_str())];
        Shard {
            index,
            resilience: cfg.resilience,
            engine: RwLock::new(Engine::new(cfg.engine.clone())),
            breaker: Mutex::new(ShardState::new(
                index,
                reg.gauge(
                    "texid_shard_breaker_state",
                    "Circuit-breaker state: 0 = healthy, 1 = suspect, 2 = down.",
                    &labels,
                ),
            )),
            group_size: texid_core::coalesce::group_size_histogram(reg),
            failures: reg.counter(
                "texid_shard_failures",
                "Search legs that failed on this shard (crash, error, retries exhausted).",
                &labels,
            ),
            skips: reg.counter(
                "texid_shard_skips",
                "Search legs skipped on this shard because its breaker was open.",
                &labels,
            ),
            search_duration: reg.histogram(
                "texid_shard_search_duration_us",
                "Per-shard scatter-gather leg latency (simulated wall microseconds).",
                &labels,
            ),
            lock_wait: reg.histogram(
                "texid_shard_lock_wait_us",
                "Wall microseconds a search leg spent acquiring this shard's engine lock.",
                &labels,
            ),
            replay_records: reg.counter(
                "texid_replay_records",
                "Entries re-indexed into this shard by replay-based heal passes.",
                &labels,
            ),
            replay_quarantined: reg.counter(
                "texid_replay_quarantined",
                "Entries quarantined (missing or corrupt) while healing this shard.",
                &labels,
            ),
            replay_duration: reg.histogram(
                "texid_replay_duration_us",
                "Wall microseconds one heal pass spent rebuilding this shard (including injected replay stalls).",
                &labels,
            ),
        }
    }

    /// Breaker gate for one search (see [`ShardState::admit`]).
    pub(super) fn admit(&self) -> bool {
        self.breaker.lock().admit()
    }

    /// The wall-clock `shard.leg` span of a leg of this shard traced as
    /// `ctx`; it records when dropped.
    pub(super) fn leg_span(&self, ctx: &TraceContext) -> TraceSpan<'static> {
        global_ring()
            .span(ctx, "shard.leg")
            .tag("shard", &self.index.to_string())
            .tag("track", &format!("shard {}", self.index))
    }

    /// One group of this shard's queued legs, on a pool worker: each leg's
    /// `shard.leg` span opens, tagged with how long the leg queued and how
    /// many legs the group sweeps; any pending partial batch is sealed; and
    /// the group runs as one multi-query sweep under one read lock, its
    /// results in group order. A group holding the injected crash holds
    /// only that leg, and panics.
    pub(super) fn run_group(&self, group: &[LegJob]) -> Result<Vec<SearchResult>, ClusterError> {
        let size = group.len().to_string();
        // The guards record on drop even if the group panics below, so
        // crashed legs stay visible in the span tree.
        let _leg_spans: Vec<_> = group
            .iter()
            .filter_map(|leg| {
                let queued_us = leg.submitted.elapsed().as_secs_f64() * 1e6;
                let span = self.leg_span(leg.ctx.as_ref()?);
                Some(span.tag("queued_us", &format!("{queued_us:.1}")).tag("group", &size))
            })
            .collect();
        if group.iter().any(|leg| leg.crash) {
            panic!("injected shard crash (fault plan)");
        }
        // The steady state sweeps under the one read guard it checked for
        // pending references with. When a partial batch must be sealed
        // first, the write lock does it, and a fresh read guard sweeps.
        // Every guard's wait is counted.
        let wait = Instant::now();
        let mut engine = self.engine.read();
        let mut wait_us = wait.elapsed().as_secs_f64() * 1e6;
        if engine.has_pending() {
            drop(engine);
            let wait = Instant::now();
            let mut writer = self.engine.write();
            wait_us += wait.elapsed().as_secs_f64() * 1e6;
            writer.flush()?;
            drop(writer);
            let wait = Instant::now();
            engine = self.engine.read();
            wait_us += wait.elapsed().as_secs_f64() * 1e6;
        }
        // Every leg of the group waited for the same locks.
        for _ in group {
            self.lock_wait.observe(wait_us);
        }
        self.group_size.observe(group.len() as f64);
        let queries: Vec<&EncodedQuery> = group.iter().map(|leg| &*leg.query).collect();
        Ok(engine.search_encoded(&queries))
    }

    /// The leg answered in `total_us` simulated µs: close the breaker and
    /// record the latency — with an exemplar in a traced search, so the
    /// `/metrics` bucket links to `GET /trace/{id}`.
    pub(super) fn record_answer(&self, total_us: f64, trace_id: Option<u128>) {
        self.breaker.lock().record_success();
        self.search_duration.observe_traced(total_us, trace_id);
    }

    /// The breaker was open and the shard sat this search out.
    pub(super) fn record_skip(&self) {
        self.skips.inc();
    }

    /// The leg was dispatched, or due to be, and did not answer.
    pub(super) fn record_failure(&self) {
        self.breaker.lock().record_failure(self.resilience.trip_threshold);
        self.failures.inc();
    }

    /// Replace the engine with a fresh one that `fill` loaded, sealed, and
    /// re-admit the shard. The old engine serves until the swap; an error
    /// leaves it, and the breaker, as they were.
    pub(super) fn rebuild(
        &self,
        fill: impl FnOnce(&mut Engine) -> Result<(), ClusterError>,
    ) -> Result<(), ClusterError> {
        let mut engine = Engine::new(self.engine.read().config().clone());
        fill(&mut engine)?;
        engine.flush()?;
        *self.engine.write() = engine;
        self.breaker.lock().record_success();
        Ok(())
    }

    /// One heal pass rebuilt this shard: feed the `texid_replay_*` series.
    pub(super) fn record_replay(&self, restored: usize, quarantined: usize, wall_us: f64) {
        self.replay_records.add(restored as u64);
        self.replay_quarantined.add(quarantined as u64);
        self.replay_duration.observe(wall_us);
    }

    /// Point-in-time breaker snapshot.
    pub(super) fn status(&self) -> ShardStatus {
        self.breaker.lock().status.clone()
    }
}
