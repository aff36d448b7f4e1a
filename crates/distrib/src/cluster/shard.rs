//! One GPU container and everything that is per-shard: its engine, its
//! query coalescer, its circuit breaker and its metric series.

use super::{ClusterConfig, ClusterError, ResilienceConfig};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;
use texid_core::{Coalescer, EncodedQuery, Engine, SearchResult};
use texid_obs::{global_ring, Counter, Gauge, Histogram, Registry, TraceContext};

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

/// Breaker bookkeeping for one shard. Both transitions publish
/// `texid_shard_breaker_state` themselves, so the gauge cannot lag the
/// state it mirrors.
struct ShardState {
    health: ShardHealth,
    consecutive_failures: u32,
    total_failures: u64,
    /// Searches sat out since the breaker opened.
    skips_while_down: u32,
    probes: u64,
    gauge: Gauge,
}

impl ShardState {
    fn new(gauge: Gauge) -> ShardState {
        let mut state = ShardState {
            health: ShardHealth::Healthy,
            consecutive_failures: 0,
            total_failures: 0,
            skips_while_down: 0,
            probes: 0,
            gauge,
        };
        state.enter(ShardHealth::Healthy);
        state
    }

    fn enter(&mut self, health: ShardHealth) {
        self.health = health;
        self.gauge.set(breaker_gauge_value(health));
    }

    /// Whether this search dispatches to the shard: always, unless its
    /// breaker is open — a `Down` shard sits out `cooldown_searches`
    /// searches and is then probed half-open.
    fn admit(&mut self, cooldown_searches: u32) -> bool {
        if self.health == ShardHealth::Down {
            self.skips_while_down += 1;
            if self.skips_while_down < cooldown_searches {
                return false;
            }
            self.probes += 1; // half-open probe
        }
        true
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.skips_while_down = 0;
        self.enter(ShardHealth::Healthy);
    }

    fn record_failure(&mut self, trip_threshold: u32) {
        self.consecutive_failures += 1;
        self.total_failures += 1;
        self.skips_while_down = 0;
        self.enter(if self.consecutive_failures >= trip_threshold {
            ShardHealth::Down
        } else {
            ShardHealth::Suspect
        });
    }
}

/// One GPU container: its engine behind a read/write lock (searches share
/// the read side; `add_reference`/`flush`/recovery take the write side),
/// the shard's query coalescer, its breaker, and the `shard`-labelled
/// series only this shard moves.
pub(super) struct Shard {
    index: usize,
    resilience: ResilienceConfig,
    pub(super) engine: RwLock<Engine>,
    coalescer: Coalescer,
    breaker: Mutex<ShardState>,
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
            coalescer: Coalescer::with_registry(cfg.coalesce, reg),
            breaker: Mutex::new(ShardState::new(reg.gauge(
                "texid_shard_breaker_state",
                "Circuit-breaker state: 0 = healthy, 1 = suspect, 2 = down.",
                &labels,
            ))),
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
        self.breaker.lock().admit(self.resilience.cooldown_searches)
    }

    /// One dispatched search leg, on its own thread: seal what is pending,
    /// then search through the shard's coalescer. `crash` is the injected
    /// panic.
    pub(super) fn run_leg(
        &self,
        ctx: Option<TraceContext>,
        crash: bool,
        query: &Arc<EncodedQuery>,
    ) -> Result<SearchResult, ClusterError> {
        // The guard records on drop even if this leg panics below, so
        // crashed legs stay visible in the span tree.
        let _leg_span = ctx.as_ref().map(|c| {
            global_ring()
                .span(c, "shard.leg")
                .tag("shard", &self.index.to_string())
                .tag("track", &format!("shard {}", self.index))
        });
        if crash {
            panic!("injected shard crash (fault plan)");
        }
        // Seal any pending partial batch so it is searchable. The steady
        // state takes only the shared read lock; the write lock is acquired
        // just when references actually arrived since the last flush.
        let wait = Instant::now();
        let needs_flush = self.engine.read().has_pending();
        let mut wait_us = wait.elapsed().as_secs_f64() * 1e6;
        if needs_flush {
            let wait = Instant::now();
            let mut engine = self.engine.write();
            wait_us += wait.elapsed().as_secs_f64() * 1e6;
            engine.flush()?;
        }
        self.lock_wait.observe(wait_us);
        // Concurrent searches coalesce into one multi-query sweep under a
        // shared read lock.
        Ok(self.coalescer.search_encoded(&self.engine, query))
    }

    /// The leg answered in `total_us` simulated µs: close the breaker and
    /// record the latency — with an exemplar in a traced search, so the
    /// `/metrics` bucket links to `GET /trace/{id}`.
    pub(super) fn record_answer(&self, total_us: f64, trace_id: Option<u128>) {
        self.breaker.lock().record_success();
        self.search_duration.observe(total_us);
        if let Some(tid) = trace_id {
            self.search_duration.record_exemplar(total_us, tid);
        }
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
        let state = self.breaker.lock();
        ShardStatus {
            shard: self.index,
            health: state.health,
            consecutive_failures: state.consecutive_failures,
            total_failures: state.total_failures,
            probes: state.probes,
        }
    }
}
