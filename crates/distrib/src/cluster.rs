//! The 14-container distributed search cluster (§8, Fig. 6).
//!
//! Reference feature matrices are serialized (protobuf-style) into the
//! Redis-substrate [`KvStore`] and allocated round-robin across GPU
//! containers, each of which is one [`texid_core::Engine`] (a simulated
//! Tesla P100 with a 76 GB hybrid cache: 12 GB usable device + 64 GB host).
//! A search fans out to every container in parallel (scatter-gather); the
//! simulated wall time is the slowest shard, and the aggregate speed is the
//! paper's headline metric (872,984 image comparisons/s on 14 cards).
//!
//! Delete and update are physical. The paper's batched FIFO cache (§6.1) is
//! append-only; here a shard deletes a reference **in place**
//! ([`Engine::remove_reference`]), so what a search sweeps, what it reports
//! as `comparisons` and what the caches hold is the live set, however often
//! an id was rewritten. An id lives on one shard for life: a rewrite
//! overwrites it in the slot it occupies ([`Engine::replace_reference`])
//! under one hold of that shard's write lock, so every sweep sees exactly
//! one version, a shard sweeps ⌈live / batch_size⌉ batches however often
//! its ids are rewritten, and the engines index the external ids directly —
//! nothing is masked or translated on the read path.
//!
//! # The search path
//!
//! [`Cluster::search_traced`] is orchestration over one `Leg` per shard
//! (plan, trace context, answer) handed through named phases: `plan_legs`
//! (sequential: breaker gating and fault draws), `run_leg` (one thread per
//! dispatched leg — the only parallelism of a search), `account_legs` (the
//! single per-leg accounting point; every per-stage surface there is a loop
//! over `Stage::ALL` projecting the leg's `SearchReport`) and
//! `merge_and_publish`. A leg's *measured* report is its *predicted* one
//! under the planned perturbation ([`SearchReport::perturbed`]).
//!
//! # Failure model & degraded mode
//!
//! A shard leg of a search can fail (crash, injected fault, cache error) —
//! failures never escape [`Cluster::search`] as panics. Each shard carries
//! a health state machine (`Healthy → Suspect → Down`) with a circuit
//! breaker: after [`ResilienceConfig::trip_threshold`] consecutive failures
//! the shard is `Down` and skipped, then probed half-open after
//! [`ResilienceConfig::cooldown_searches`] searches and re-admitted on the
//! first success. Results from a partial scatter are flagged `degraded`
//! with `shards_ok`/`shards_failed`/`shards_skipped` quorum metadata.
//! [`Cluster::heal`] rebuilds every unhealthy shard from the feature store,
//! quarantining entries whose stored bytes are lost or corrupt. Fault
//! injection is deterministic and seeded — see [`crate::faults`].
//!
//! # Durability & replay-based heal (DESIGN.md §12)
//!
//! The feature store is durable ([`StoreConfig`]): every write
//! is journaled to a CRC32C-checksummed write-ahead log and periodically
//! compacted into a checksummed snapshot (`texid-store`). When `heal()`
//! finds unhealthy shards it first **replays** the store strictly from
//! that durable media — writes the fault plan tore or lost before fsync
//! simply do not come back, so `recover_container` quarantines exactly
//! those ids as *missing* — then rebuilds each shard's engine, reporting
//! per-shard replay stats ([`ShardReplay`]) through the heal report, the
//! `texid_replay_*` metrics, and the trace ring.

use crate::faults::{Backoff, FaultKind, FaultOp, FaultPlan, Stage};
use crate::kv::KvStore;
use crate::wire;
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use texid_cache::CacheError;
use texid_core::{
    CoalesceConfig, Coalescer, EncodedQuery, Engine, EngineConfig, SearchReport, SearchResult,
};
use texid_knn::geometry::{verify_matches, RansacParams};
use texid_knn::{score_pair, FeatureBlock};
use texid_obs::{
    global_events, global_ring, Counter, DriftSentry, DriftStatus, Gauge, Histogram, Registry,
    SloEngine, SloSpec, SloStatus, TraceContext, WideEvent, DRIFT_STAGES, STAGE_TOTAL,
};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_sift::FeatureMatrix;
use texid_store::{
    crc32c, DurableLog, LogConfig, ReplayStats, SnapshotFault, Volume, WalStats, WriteFault,
};

/// Numeric encoding of [`ShardHealth`] for the breaker-state gauge.
fn breaker_gauge_value(health: ShardHealth) -> f64 {
    match health {
        ShardHealth::Healthy => 0.0,
        ShardHealth::Suspect => 1.0,
        ShardHealth::Down => 2.0,
    }
}

/// Cached telemetry handles, registered once per cluster. Per-shard
/// vectors are indexed by shard number; every hot-path update is a
/// relaxed atomic on a pre-registered handle.
struct Telemetry {
    searches: Counter,
    degraded: Counter,
    retries: Counter,
    shard_failures: Vec<Counter>,
    shard_skips: Vec<Counter>,
    breaker_state: Vec<Gauge>,
    shard_latency: Vec<Histogram>,
    shard_lock_wait: Vec<Histogram>,
    replay_records: Vec<Counter>,
    replay_quarantined: Vec<Counter>,
    replay_duration: Vec<Histogram>,
    schedule_efficiency: Gauge,
    achieved_tflops: Gauge,
    gpu_efficiency: Gauge,
    faults_injected: Gauge,
    heal_passes: Counter,
    replay_corrupt_records: Counter,
    replay_torn_bytes: Counter,
    wal_appends: Gauge,
    wal_bytes: Gauge,
    wal_snapshots: Gauge,
    /// The process-wide sim-clock stage histograms the engines observe
    /// into ([`DRIFT_STAGES`]: each stage, then the total). The cluster
    /// stamps OpenMetrics exemplars on them with *measured*
    /// (perturbation-inclusive) per-stage values, so a `/metrics` bucket
    /// links to the trace of a query that actually landed there.
    stage_sim: [Histogram; 6],
}

impl Telemetry {
    fn register(reg: &Registry, containers: usize) -> Telemetry {
        let mut shard_failures = Vec::with_capacity(containers);
        let mut shard_skips = Vec::with_capacity(containers);
        let mut breaker_state = Vec::with_capacity(containers);
        let mut shard_latency = Vec::with_capacity(containers);
        let mut shard_lock_wait = Vec::with_capacity(containers);
        let mut replay_records = Vec::with_capacity(containers);
        let mut replay_quarantined = Vec::with_capacity(containers);
        let mut replay_duration = Vec::with_capacity(containers);
        for i in 0..containers {
            let shard = i.to_string();
            let labels = [("shard", shard.as_str())];
            shard_failures.push(reg.counter(
                "texid_shard_failures",
                "Search legs that failed on this shard (crash, error, retries exhausted).",
                &labels,
            ));
            shard_skips.push(reg.counter(
                "texid_shard_skips",
                "Search legs skipped on this shard because its breaker was open.",
                &labels,
            ));
            let g = reg.gauge(
                "texid_shard_breaker_state",
                "Circuit-breaker state: 0 = healthy, 1 = suspect, 2 = down.",
                &labels,
            );
            g.set(0.0);
            breaker_state.push(g);
            shard_latency.push(reg.histogram(
                "texid_shard_search_duration_us",
                "Per-shard scatter-gather leg latency (simulated wall microseconds).",
                &labels,
            ));
            shard_lock_wait.push(reg.histogram(
                "texid_shard_lock_wait_us",
                "Wall microseconds a search leg spent acquiring this shard's engine lock.",
                &labels,
            ));
            replay_records.push(reg.counter(
                "texid_replay_records",
                "Entries re-indexed into this shard by replay-based heal passes.",
                &labels,
            ));
            replay_quarantined.push(reg.counter(
                "texid_replay_quarantined",
                "Entries quarantined (missing or corrupt) while healing this shard.",
                &labels,
            ));
            replay_duration.push(reg.histogram(
                "texid_replay_duration_us",
                "Wall microseconds one heal pass spent rebuilding this shard (including injected replay stalls).",
                &labels,
            ));
        }
        Telemetry {
            searches: reg.counter(
                "texid_cluster_searches",
                "Scatter-gather searches served by the cluster.",
                &[],
            ),
            degraded: reg.counter(
                "texid_cluster_degraded_searches",
                "Searches that returned partial results (a shard failed or was skipped).",
                &[],
            ),
            retries: reg.counter(
                "texid_cluster_retries",
                "Transient-fault retries performed (feature store and search legs).",
                &[],
            ),
            shard_failures,
            shard_skips,
            breaker_state,
            shard_latency,
            shard_lock_wait,
            replay_records,
            replay_quarantined,
            replay_duration,
            schedule_efficiency: reg.gauge(
                "texid_schedule_efficiency",
                "Eq. 4: per-GPU achieved speed over the PCIe-bound theoretical speed, last search.",
                &[],
            ),
            achieved_tflops: reg.gauge(
                "texid_achieved_tflops",
                "Eq. 3 numerator: cluster-aggregate achieved TFLOPS, last search.",
                &[],
            ),
            gpu_efficiency: reg.gauge(
                "texid_gpu_efficiency",
                "Eq. 3: per-GPU achieved over theoretical peak TFLOPS, last search.",
                &[],
            ),
            faults_injected: reg.gauge(
                "texid_faults_injected",
                "Faults injected so far by the active fault plan (0 without one).",
                &[],
            ),
            heal_passes: reg.counter(
                "texid_heal_passes",
                "heal() passes that found at least one unhealthy shard to rebuild.",
                &[],
            ),
            replay_corrupt_records: reg.counter(
                "texid_replay_corrupt_records",
                "WAL records skipped for bad CRC or grammar during heal replays (bit rot).",
                &[],
            ),
            replay_torn_bytes: reg.counter(
                "texid_replay_torn_bytes",
                "Dangling WAL tail bytes dropped during heal replays (torn writes).",
                &[],
            ),
            wal_appends: reg.gauge(
                "texid_wal_appends",
                "Records appended to the feature-store WAL since startup (0 for ephemeral stores).",
                &[],
            ),
            wal_bytes: reg.gauge(
                "texid_wal_bytes",
                "Current feature-store WAL size in bytes (shrinks at each snapshot compaction).",
                &[],
            ),
            wal_snapshots: reg.gauge(
                "texid_wal_snapshots",
                "Checksummed snapshots written by feature-store compaction since startup.",
                &[],
            ),
            stage_sim: DRIFT_STAGES.map(|stage| texid_obs::global().stage_duration(stage, "sim")),
        }
    }
}

/// Degraded-mode and retry tuning.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Consecutive failures before a shard's breaker trips to `Down`.
    pub trip_threshold: u32,
    /// Searches a `Down` shard sits out before a half-open probe.
    pub cooldown_searches: u32,
    /// Bounded deterministic exponential backoff for transient faults.
    pub backoff: Backoff,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { trip_threshold: 3, cooldown_searches: 2, backoff: Backoff::default() }
    }
}

/// Feature-store durability tuning (DESIGN.md §12). Every write is
/// journaled to an in-memory WAL + snapshot pair, so `heal()` replays the
/// media instead of trusting whatever survived in the map.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Writes between snapshot compactions (0 = never compact).
    pub snapshot_every: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { snapshot_every: 256 }
    }
}

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// GPU containers (the paper runs 14).
    pub containers: usize,
    /// Per-container engine configuration.
    pub engine: EngineConfig,
    /// Failure handling.
    pub resilience: ResilienceConfig,
    /// Per-shard query coalescing (continuous batching of concurrent
    /// searches into one multi-query cache sweep).
    pub coalesce: CoalesceConfig,
    /// Feature-store durability.
    pub store: StoreConfig,
    /// Serving objectives tracked by the SLO engine (burn rates exposed
    /// as `texid_slo_*` metrics and `GET /slo`).
    pub slos: Vec<SloSpec>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            containers: 14,
            engine: EngineConfig::default(),
            resilience: ResilienceConfig::default(),
            coalesce: CoalesceConfig::default(),
            store: StoreConfig::default(),
            slos: vec![
                // 99% of searches under 100 ms simulated makespan.
                SloSpec::latency("search-latency", 100_000.0, 0.99),
                // 99.9% of searches reach at least one shard.
                SloSpec::availability("search-availability", 0.999),
            ],
        }
    }
}

/// Cluster-level error.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// A shard's cache is exhausted.
    Cache(CacheError),
    /// The texture id is unknown.
    NotFound(u64),
    /// Stored bytes failed to decode.
    Corrupt(u64),
    /// The descriptors offered are not [`DESCRIPTOR_DIM`]-dimensional
    /// (carries the dimension they have).
    Dimension(usize),
    /// A required resource cannot be reached right now.
    Unavailable(String),
    /// Bounded retries were exhausted on transient failures.
    Timeout(String),
}

impl From<CacheError> for ClusterError {
    fn from(e: CacheError) -> ClusterError {
        ClusterError::Cache(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Cache(e) => write!(f, "cache error: {e}"),
            ClusterError::NotFound(id) => write!(f, "texture {id} not found"),
            ClusterError::Corrupt(id) => write!(f, "stored features for {id} corrupt"),
            ClusterError::Dimension(d) => {
                write!(f, "descriptors are {d}-dimensional, expected {DESCRIPTOR_DIM}")
            }
            ClusterError::Unavailable(what) => write!(f, "{what} unavailable"),
            ClusterError::Timeout(op) => write!(f, "retries exhausted: {op}"),
        }
    }
}

impl std::error::Error for ClusterError {}

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

/// Internal breaker bookkeeping for one shard.
#[derive(Debug)]
struct ShardState {
    health: ShardHealth,
    consecutive_failures: u32,
    total_failures: u64,
    /// Searches sat out since the breaker opened.
    skips_while_down: u32,
    probes: u64,
}

impl Default for ShardState {
    fn default() -> Self {
        ShardState {
            health: ShardHealth::Healthy,
            consecutive_failures: 0,
            total_failures: 0,
            skips_while_down: 0,
            probes: 0,
        }
    }
}

impl ShardState {
    fn health(&self) -> ShardHealth {
        self.health
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
        self.health = ShardHealth::Healthy;
        self.consecutive_failures = 0;
        self.skips_while_down = 0;
    }

    fn record_failure(&mut self, trip_threshold: u32) {
        self.consecutive_failures += 1;
        self.total_failures += 1;
        self.skips_while_down = 0;
        self.health = if self.consecutive_failures >= trip_threshold {
            ShardHealth::Down
        } else {
            ShardHealth::Suspect
        };
    }
}

/// One search's cluster-level outcome.
#[derive(Clone, Debug)]
pub struct ClusterSearchResult {
    /// Top results across all shards, best first.
    pub results: Vec<(u64, usize)>,
    /// Per-shard performance reports (successful shards only).
    pub shard_reports: Vec<SearchReport>,
    /// Simulated wall time = slowest shard, µs.
    pub wall_us: f64,
    /// Total reference comparisons performed.
    pub comparisons: usize,
    /// Shards that answered.
    pub shards_ok: usize,
    /// Shards that failed this search (crash, error, retries exhausted).
    pub shards_failed: usize,
    /// Shards skipped because their breaker was open.
    pub shards_skipped: usize,
    /// True when any shard failed or was skipped: results may be partial.
    pub degraded: bool,
    /// Trace id of the span tree this search recorded (`None` when the
    /// search ran untraced). Hex form via
    /// `texid_obs::TraceContext::with_trace_id(id).trace_id_hex()`; the
    /// tree is retrievable from `texid_obs::global_ring()` or
    /// `GET /trace/<id>`.
    pub trace_id: Option<u128>,
}

impl ClusterSearchResult {
    /// Aggregate comparisons per second across the cluster.
    pub fn images_per_second(&self) -> f64 {
        if self.wall_us <= 0.0 {
            return 0.0;
        }
        self.comparisons as f64 / self.wall_us * 1e6
    }
}

/// Outcome of a one-to-one verification (the paper's second task: "is
/// this photo the texture it claims to be?").
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Ratio-test survivors.
    pub good_matches: usize,
    /// RANSAC-consistent inliers.
    pub geometric_inliers: usize,
    /// Recovered similarity scale (≈ capture zoom).
    pub transform_scale: f32,
    /// Recovered rotation, radians.
    pub transform_rotation: f32,
    /// Final decision at the configured thresholds.
    pub accepted: bool,
}

/// Why an entry was quarantined during recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The store has no bytes for the id (lost read, or a torn/unsynced
    /// WAL record that vanished on replay).
    Missing,
    /// Bytes exist but fail their per-value CRC32C or do not decode.
    Corrupt,
}

impl QuarantineReason {
    /// Lowercase name (REST payloads).
    pub fn as_str(&self) -> &'static str {
        match self {
            QuarantineReason::Missing => "missing",
            QuarantineReason::Corrupt => "corrupt",
        }
    }
}

/// One quarantined entry: the id and why it could not be restored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quarantine {
    /// External texture id.
    pub id: u64,
    /// What was wrong with its stored bytes.
    pub reason: QuarantineReason,
}

/// What [`Cluster::recover_container`] accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Entries re-indexed from the store.
    pub restored: usize,
    /// Ids whose stored bytes were missing or corrupt; their remains were
    /// moved under a `quarantine:` key and the id retired.
    pub quarantined: Vec<Quarantine>,
}

/// Per-shard replay stats from one heal pass (REST `POST /heal` payload,
/// `texid_replay_*` metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardReplay {
    /// Shard index.
    pub shard: usize,
    /// Entries re-indexed into the rebuilt engine.
    pub records_replayed: usize,
    /// Entries quarantined (missing or corrupt).
    pub records_quarantined: usize,
    /// Wall microseconds rebuilding this shard, including injected replay
    /// stalls (which are accounted, not slept).
    pub replay_wall_us: f64,
}

/// What [`Cluster::heal`] accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealReport {
    /// Shards rebuilt and re-admitted.
    pub healed: Vec<usize>,
    /// Entries re-indexed across all healed shards.
    pub restored: usize,
    /// Entries quarantined across all healed shards.
    pub quarantined: Vec<Quarantine>,
    /// Per-shard replay stats, in heal order.
    pub shards: Vec<ShardReplay>,
    /// What the durable-media replay found (None when no shard needed
    /// healing or the media could not be read).
    pub replay: Option<ReplayStats>,
}

/// Point-in-time cluster statistics.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Container count.
    pub containers: usize,
    /// Live (non-deleted) textures.
    pub textures: usize,
    /// Bytes held in the feature store.
    pub store_bytes: u64,
    /// Total feature-matrix capacity across all hybrid caches.
    pub capacity_images: u64,
    /// Shards currently `Healthy`.
    pub shards_healthy: usize,
    /// Shards currently `Suspect`.
    pub shards_suspect: usize,
    /// Shards currently `Down`.
    pub shards_down: usize,
    /// Searches served since startup.
    pub total_searches: u64,
    /// Searches that returned partial (degraded) results.
    pub degraded_searches: u64,
    /// Transient-fault retries performed.
    pub retries: u64,
    /// Faults injected by the active plan (0 without one).
    pub faults_injected: u64,
    /// Eq. 4 schedule efficiency from the most recent search (0 before
    /// any search completes).
    pub schedule_efficiency: f64,
    /// Eq. 3 numerator: cluster-aggregate achieved TFLOPS, last search.
    pub achieved_tflops: f64,
    /// Eq. 3 per-GPU efficiency, last search.
    pub gpu_efficiency: f64,
    /// Feature-store WAL counters. Always `Some` since the store is always
    /// journaled; an `Option` because `benchmarks/` reads it as one.
    pub wal: Option<WalStats>,
    /// Per-stage cost-model drift (EWMA of measured/predicted duration;
    /// 1.0 = the Eq. 3/4 model is honest).
    pub drift: Vec<DriftStatus>,
}

/// Per-shard dispatch decision for one search, fixed *before* the scatter
/// so fault decisions are drawn sequentially (determinism contract).
#[derive(Clone, Copy)]
enum LegPlan {
    /// Breaker open: shard sits this search out.
    Skip,
    /// Dispatch, with any pre-drawn injected behavior.
    Run {
        crash: bool,
        straggle: Option<f64>,
        stage_stall: Option<(Stage, f64)>,
        backoff_us: f64,
    },
    /// Transient-fault retries already exhausted: fail without dispatching.
    FailFast,
}

/// Outcome of a fault-wrapped, checksum-verified store read: the caller
/// learns whether bytes were absent or present-but-mangled, instead of
/// deserializing garbage.
enum StoreRead {
    /// No bytes under the key.
    Missing,
    /// Bytes verified against their per-value CRC32C.
    Value(Vec<u8>),
    /// Bytes present but failing their checksum.
    Corrupt,
}

/// What an answering search leg returns.
struct LegAnswer {
    /// The shard's ranking, in external ids.
    ranked: Vec<(u64, usize)>,
    /// The report as the shard measured it: `predicted` with any injected
    /// stall / straggle / backoff applied ([`SearchReport::perturbed`]).
    measured: SearchReport,
    /// The unperturbed report — the analytic model's output for the same
    /// query shape. The drift sentry compares the pair.
    predicted: SearchReport,
}

/// One shard's leg of one search — the value the phases of
/// [`Cluster::search_traced`] hand along: planned, run, accounted, merged.
struct Leg {
    shard: usize,
    plan: LegPlan,
    /// Trace context of the leg (`None` in an untraced search).
    ctx: Option<TraceContext>,
    /// `None` until the leg answers: a leg planned `Skip` never will, any
    /// other leg left without an answer failed.
    answer: Option<LegAnswer>,
}

/// One GPU container: its engine behind a read/write lock (searches share
/// the read side; `add_reference`/`flush`/recovery take the write side)
/// plus the shard's query coalescer.
struct Shard {
    engine: RwLock<Engine>,
    coalescer: Coalescer,
}

/// The distributed search system.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    store: KvStore,
    /// Live id -> the shard whose engine indexes it (under that same id).
    /// Changed only under that shard's write lock ([`Cluster::lock_owner`]),
    /// so the map and the engines cannot disagree about who owns an id.
    shard_of: Mutex<HashMap<u64, usize>>,
    next_rr: AtomicUsize,
    shard_health: Mutex<Vec<ShardState>>,
    fault_plan: Option<FaultPlan>,
    total_searches: AtomicU64,
    degraded_searches: AtomicU64,
    retries: AtomicU64,
    telemetry: Telemetry,
    drift: DriftSentry,
    slo: SloEngine,
}

impl Cluster {
    /// Bring up `cfg.containers` engines (no fault injection).
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster::with_faults(cfg, None)
    }

    /// Bring up the cluster with an optional seeded fault plan, reporting
    /// telemetry into the process-wide [`texid_obs::global`] registry.
    pub fn with_faults(cfg: ClusterConfig, fault_plan: Option<FaultPlan>) -> Cluster {
        Cluster::with_faults_in_registry(cfg, fault_plan, texid_obs::global())
    }

    /// Like [`Cluster::with_faults`], but reporting into a caller-supplied
    /// registry. Tests that assert exact event counts use a private
    /// registry so parallel test binaries sharing the global one cannot
    /// perturb the numbers.
    pub fn with_faults_in_registry(
        cfg: ClusterConfig,
        fault_plan: Option<FaultPlan>,
        registry: &Registry,
    ) -> Cluster {
        assert!(cfg.containers >= 1, "need at least one container");
        let shards = (0..cfg.containers)
            .map(|_| Shard {
                engine: RwLock::new(Engine::new(cfg.engine.clone())),
                coalescer: Coalescer::with_registry(cfg.coalesce, registry),
            })
            .collect();
        let shard_health = (0..cfg.containers).map(|_| ShardState::default()).collect();
        let telemetry = Telemetry::register(registry, cfg.containers);
        let drift = DriftSentry::register(registry);
        let slo = SloEngine::register(cfg.slos.clone(), registry);
        let store = KvStore::durable(DurableLog::new(
            Volume::in_memory(),
            LogConfig { snapshot_every: cfg.store.snapshot_every },
        ));
        Cluster {
            cfg,
            shards,
            store,
            shard_of: Mutex::new(HashMap::new()),
            next_rr: AtomicUsize::new(0),
            shard_health: Mutex::new(shard_health),
            fault_plan,
            total_searches: AtomicU64::new(0),
            degraded_searches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            telemetry,
            drift,
            slo,
        }
    }

    /// The single accounting point for a transient-fault retry: `/stats`
    /// and the Prometheus counter move in lockstep, exactly once per
    /// attempt, no matter which code path (store read/write, search
    /// planning) performed the retry. When the retry happens inside a
    /// traced search, `leg` carries the shard leg's context and the same
    /// single point also records exactly one `retry` span — counter and
    /// span tree cannot drift.
    fn note_retry(&self, leg: Option<(TraceContext, usize)>) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.telemetry.retries.inc();
        if let Some((ctx, shard)) = leg {
            global_ring().mark(&ctx, "retry", vec![("shard".to_string(), shard.to_string())]);
        }
    }

    /// Trace bookkeeping for one accounted leg (nothing in an untraced search).
    /// Dispatched legs already recorded their wall-clock `shard.leg` span
    /// in-thread; here the answered ones additionally get **sim-clock**
    /// engine-stage child spans (serial layout from sim time 0 on a
    /// per-shard `… (sim)` track), while never-dispatched legs get a
    /// zero-length leg span tagged with why they did not run.
    fn trace_leg_outcome(&self, leg: &Leg) {
        let Some(ctx) = &leg.ctx else { return };
        let (ring, shard) = (global_ring(), leg.shard);
        let not_run = |why: &str| {
            drop(
                ring.span(ctx, "shard.leg")
                    .tag("shard", &shard.to_string())
                    .tag("track", &format!("shard {shard}"))
                    .tag("outcome", why),
            )
        };
        match (&leg.plan, &leg.answer) {
            (LegPlan::Skip, _) => not_run("skipped (breaker open)"),
            (LegPlan::FailFast, _) => not_run("failed (retries exhausted)"),
            (_, Some(LegAnswer { measured, .. })) => {
                let track = format!("shard {shard} (sim)");
                let tags = |stage: &str| {
                    vec![
                        ("shard".to_string(), shard.to_string()),
                        ("stage".to_string(), stage.to_string()),
                        ("track".to_string(), track.clone()),
                    ]
                };
                ring.record_sim(ctx, "device total", 0.0, measured.total_us, tags(STAGE_TOTAL));
                let mut t = 0.0;
                for stage in Stage::ALL {
                    let (name, dur) = (stage.span_name(), measured.stage_us(stage));
                    ring.record_sim(ctx, name, t, dur, tags(name));
                    t += dur;
                }
            }
            // Dispatched-but-failed: the in-thread span guard already
            // recorded the leg (including panics); nothing to add.
            _ => {}
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The feature store (exposed for persistence-style tests).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The active fault plan, if any (exposed for chaos tests).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    fn key(id: u64) -> String {
        format!("tex:{id:020}")
    }

    /// Verify fetched bytes against the per-value CRC32C sealed at write
    /// time — the line between *missing* and *corrupt*.
    fn verified(read: Option<(Vec<u8>, u32)>) -> StoreRead {
        match read {
            None => StoreRead::Missing,
            Some((bytes, crc)) if crc32c(&bytes) == crc => StoreRead::Value(bytes),
            Some(_) => StoreRead::Corrupt,
        }
    }

    /// Store read through the fault plan: bounded deterministic retries on
    /// transient faults; loss and corruption surfaced as distinct
    /// [`StoreRead`] outcomes (corruption is *detected*, never returned —
    /// mangled bytes fail their per-value checksum).
    fn store_get(&self, key: &str) -> Result<StoreRead, ClusterError> {
        let Some(plan) = &self.fault_plan else {
            return Ok(Self::verified(self.store.get_with_crc(key)));
        };
        let mut attempt = 0u32;
        loop {
            match plan.decide(FaultOp::kv_read(key)) {
                Some(FaultKind::Transient) => {
                    if attempt >= self.cfg.resilience.backoff.max_retries {
                        return Err(ClusterError::Timeout(format!("kv read {key}")));
                    }
                    attempt += 1;
                    self.note_retry(None);
                }
                Some(FaultKind::KvLoss) => return Ok(StoreRead::Missing),
                Some(FaultKind::KvCorrupt) => {
                    return Ok(Self::verified(self.store.get_with_crc(key).map(
                        |(mut bytes, crc)| {
                            plan.corrupt_bytes(&mut bytes);
                            bytes = if bytes.is_empty() { vec![0] } else { bytes };
                            (bytes, crc)
                        },
                    )))
                }
                _ => return Ok(Self::verified(self.store.get_with_crc(key))),
            }
        }
    }

    /// Store write through the fault plan: bounded deterministic retries
    /// on transient faults, then one durability draw for the WAL append
    /// and, when compaction comes due, one for the snapshot write. All
    /// draws happen sequentially on the caller's thread — the determinism
    /// contract of [`crate::faults`].
    fn store_set(&self, key: &str, value: Vec<u8>) -> Result<(), ClusterError> {
        let mut wal_fault = WriteFault::Clean;
        if let Some(plan) = &self.fault_plan {
            let mut attempt = 0u32;
            while let Some(FaultKind::Transient) = plan.decide(FaultOp::kv_write(key)) {
                if attempt >= self.cfg.resilience.backoff.max_retries {
                    return Err(ClusterError::Unavailable(format!("feature store ({key})")));
                }
                attempt += 1;
                self.note_retry(None);
            }
            wal_fault = match plan.decide(FaultOp::wal_append(key)) {
                Some(FaultKind::CrashBeforeFsync) => WriteFault::Lose,
                Some(FaultKind::TornWrite) => WriteFault::Tear,
                _ => WriteFault::Clean,
            };
        }
        self.store.set_faulted(key, value, wal_fault);
        if self.store.snapshot_due() {
            let snap_fault = match
                self.fault_plan.as_ref().and_then(|p| p.decide(FaultOp::snapshot_write()))
            {
                Some(FaultKind::SnapshotCorrupt) => SnapshotFault::Corrupt,
                _ => SnapshotFault::Clean,
            };
            self.store.compact(snap_fault);
        }
        Ok(())
    }

    /// The write-locked engine of the shard that owns `id`, with the
    /// ownership confirmed under that lock, and whether the id was owned
    /// before the call. `place` puts an id nobody owns on the next
    /// round-robin shard (`false` comes back); without it such an id yields
    /// `None`.
    ///
    /// Every mutation of an id's engine entry and of its `shard_of` entry
    /// happens under this guard, so writers racing on one id serialize on
    /// its shard and cannot leave the id indexed twice or indexed but
    /// unowned. The guard is taken first and `shard_of` inside it, never the
    /// other way round.
    fn lock_owner(&self, id: u64, place: bool) -> Option<(RwLockWriteGuard<'_, Engine>, bool)> {
        loop {
            let known = self.shard_of.lock().get(&id).copied();
            let shard = match known {
                Some(shard) => shard,
                None if place => self.next_rr.fetch_add(1, Ordering::Relaxed) % self.shards.len(),
                None => return None,
            };
            let engine = self.shards[shard].engine.write();
            let mut shard_of = self.shard_of.lock();
            match shard_of.get(&id) {
                Some(&owner) if owner == shard => return Some((engine, true)),
                None if known.is_none() => {
                    shard_of.insert(id, shard);
                    return Some((engine, false));
                }
                // Deleted, or placed elsewhere, while this thread waited
                // for the lock: look again.
                _ => {}
            }
        }
    }

    /// Physically delete `id` from the shard that owns it and forget the
    /// ownership: one short hold of that shard's write lock.
    fn unindex(&self, id: u64) {
        if let Some((mut engine, _)) = self.lock_owner(id, false) {
            engine.remove_reference(id);
            self.shard_of.lock().remove(&id);
        }
    }

    /// Retire an id whose stored bytes are lost or corrupt, preserving the
    /// remains under a `quarantine:` key for offline inspection.
    fn quarantine(&self, id: u64) {
        let key = Self::key(id);
        if let Some(bytes) = self.store.get(&key) {
            self.store.set(&format!("quarantine:{key}"), bytes);
        }
        self.store.del(&key);
        self.unindex(id);
    }

    /// Add a texture's reference features, or replace them: a new id goes to
    /// the next shard round-robin, a live one is rewritten on the shard that
    /// owns it, in the slot it occupies ([`Engine::replace_reference`]). The
    /// overwrite happens under one hold of that shard's write lock — a
    /// search sweeps the shard before or after, and finds exactly one
    /// version either way — and leaves the shard's batches as they were.
    ///
    /// # Errors
    /// `Dimension` (nothing stored, nothing indexed) unless the descriptors
    /// are [`DESCRIPTOR_DIM`]-dimensional: a shard cannot batch, and the
    /// kernel cannot multiply, columns of two lengths. Propagates shard
    /// cache exhaustion; `Unavailable` if the feature store rejects the
    /// write past the retry budget.
    pub fn add_texture(&self, id: u64, features: &FeatureMatrix) -> Result<(), ClusterError> {
        if features.dim() != DESCRIPTOR_DIM {
            return Err(ClusterError::Dimension(features.dim()));
        }
        // Persist first (the paper's Redis holds the authoritative copy).
        self.store_set(&Self::key(id), wire::encode_features(features))?;
        let (mut engine, live) = self.lock_owner(id, true).expect("an unowned id is placed");
        // Only a live id has a version to overwrite: enrolling a new one
        // must not pay `replace_reference`'s walk over the shard's ids.
        if !(live && engine.replace_reference(id, features)) {
            engine.add_reference(id, features)?;
        }
        Ok(())
    }

    /// Delete a texture: its stored features and, in place, its reference
    /// on the shard that owns it.
    ///
    /// # Errors
    /// `NotFound` if the id is unknown.
    pub fn delete_texture(&self, id: u64) -> Result<(), ClusterError> {
        if !self.store.del(&Self::key(id)) {
            return Err(ClusterError::NotFound(id));
        }
        self.unindex(id);
        Ok(())
    }

    /// [`Cluster::add_texture`] for an id that must already exist.
    ///
    /// # Errors
    /// `NotFound` if the id was never added; cache errors from re-indexing.
    pub fn update_texture(&self, id: u64, features: &FeatureMatrix) -> Result<(), ClusterError> {
        if !self.store.exists(&Self::key(id)) {
            return Err(ClusterError::NotFound(id));
        }
        self.add_texture(id, features)
    }

    /// Fetch the stored features for a texture.
    ///
    /// # Errors
    /// `NotFound` / `Corrupt` / `Timeout`.
    pub fn get_texture(&self, id: u64) -> Result<FeatureMatrix, ClusterError> {
        let bytes = match self.store_get(&Self::key(id))? {
            StoreRead::Value(bytes) => bytes,
            StoreRead::Missing => return Err(ClusterError::NotFound(id)),
            StoreRead::Corrupt => return Err(ClusterError::Corrupt(id)),
        };
        wire::decode_features(&bytes).map_err(|_| ClusterError::Corrupt(id))
    }

    /// Number of live textures.
    pub fn len(&self) -> usize {
        self.shard_of.lock().len()
    }

    /// True when no textures are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-to-one verification: match `query` against the *claimed*
    /// texture only, with ratio test + RANSAC geometric verification
    /// (Fig. 2's full pipeline). `min_matches` and `min_inliers` are the
    /// §3.1 decision thresholds.
    ///
    /// # Errors
    /// `NotFound` if the claimed id is unknown; `Corrupt` on bad storage.
    pub fn verify(
        &self,
        claimed_id: u64,
        query: &FeatureMatrix,
        min_matches: usize,
        min_inliers: usize,
    ) -> Result<VerifyReport, ClusterError> {
        let reference = self.get_texture(claimed_id)?;
        let matching = &self.cfg.engine.matching;
        let encode = |f: &FeatureMatrix| {
            let m = &f.mat;
            FeatureBlock::encode(m.rows(), m.cols(), m.as_slice(), matching.precision, matching.scale)
        };
        let outcome = score_pair(matching, &encode(&reference), &encode(query));
        let geo = verify_matches(
            &outcome.matches,
            &reference.keypoints,
            &query.keypoints,
            &RansacParams::default(),
        );
        Ok(VerifyReport {
            good_matches: outcome.score(),
            geometric_inliers: geo.inlier_count(),
            transform_scale: geo.transform.scale(),
            transform_rotation: geo.transform.rotation(),
            accepted: outcome.score() >= min_matches && geo.inlier_count() >= min_inliers,
        })
    }

    /// Degraded-mode scatter-gather search.
    ///
    /// Shard failures — injected crashes, cache errors, exhausted retries —
    /// are caught per shard and never escape as panics. Shards whose
    /// breaker is open are skipped (or probed half-open after cooldown);
    /// the result carries quorum metadata and `degraded = true` whenever
    /// coverage was partial.
    pub fn search(&self, query: &FeatureMatrix, top_k: usize) -> ClusterSearchResult {
        self.search_traced(query, top_k, None)
    }

    /// [`Cluster::search`] under an optional trace context (the REST edge
    /// passes the request's [`TraceContext`], library callers may pass
    /// their own). When present, the search records a span tree into
    /// [`texid_obs::global_ring`]: a wall-clock `cluster.search` span, one
    /// wall-clock `shard.leg` span per shard (recorded even when the leg
    /// panics, and as a zero-length span for skipped/fail-fast legs, each
    /// tagged with its `outcome`), zero-length `retry` marks — exactly one
    /// per retry attempt, emitted by the same accounting point as the
    /// retry counters — and, for answered legs, **sim-clock** child spans
    /// of the engine stages (`h2d`, `hgemm`, `top2`, `d2h`, `post`) laid
    /// out serially from sim time 0, on per-shard `… (sim)` tracks so the
    /// two clocks never share a timeline.
    pub fn search_traced(
        &self,
        query: &FeatureMatrix,
        top_k: usize,
        parent: Option<&TraceContext>,
    ) -> ClusterSearchResult {
        self.total_searches.fetch_add(1, Ordering::Relaxed);
        self.telemetry.searches.inc();
        let started = Instant::now();
        let trace_id = parent.map(|p| p.trace_id);
        // One wide event per search, traced or not; filled in as the
        // phases complete and recorded into the flight recorder at the end.
        let mut event = WideEvent::begin(trace_id.unwrap_or(0));
        let cluster_ctx = parent.map(|p| p.child());
        let _cluster_span = cluster_ctx.as_ref().map(|c| {
            global_ring()
                .span(c, "cluster.search")
                .tag("track", "cluster")
                .tag("top_k", &top_k.to_string())
        });

        let mut legs = self.plan_legs(cluster_ctx.as_ref(), &mut event);
        // Narrowed and packed once; every leg's sweep reads the same panels.
        let query = &Arc::new(EncodedQuery::new(&self.cfg.engine, query));
        // Scatter to the dispatched legs, one thread each; gather catching
        // all failures — an engine error and a panicked leg alike leave
        // the leg without an answer.
        std::thread::scope(|scope| {
            let handles: Vec<_> = legs
                .iter()
                .map(|leg| {
                    let LegPlan::Run { crash, straggle, stage_stall, backoff_us } = leg.plan else {
                        return None;
                    };
                    let (shard, ctx) = (leg.shard, leg.ctx);
                    Some(scope.spawn(move || {
                        // The unperturbed report *is* the analytic Eq. 3/4
                        // prediction for this exact query shape; the drift
                        // sentry compares it with the measured copy.
                        self.run_leg(shard, ctx, crash, query).map(|r| LegAnswer {
                            ranked: r.ranked,
                            measured: r.report.perturbed(stage_stall, straggle, backoff_us),
                            predicted: r.report,
                        })
                    }))
                })
                .collect();
            for (leg, handle) in legs.iter_mut().zip(handles) {
                leg.answer = handle.and_then(|h| h.join().ok()?.ok());
            }
        });
        self.account_legs(&legs, trace_id, &mut event);
        self.merge_and_publish(legs, top_k, trace_id, event, started)
    }

    /// Phase 1 (sequential, deterministic): breaker gating and fault
    /// decisions, fixed per shard before any thread is spawned. Leg
    /// contexts are minted here, before any fault decision, so retry marks
    /// drawn while planning already parent to the right leg.
    fn plan_legs(&self, cluster_ctx: Option<&TraceContext>, event: &mut WideEvent) -> Vec<Leg> {
        let backoff: Backoff = self.cfg.resilience.backoff;
        let mut states = self.shard_health.lock();
        let mut legs = Vec::with_capacity(states.len());
        for (shard, st) in states.iter_mut().enumerate() {
            let ctx = cluster_ctx.map(|c| c.child());
            let mut plan = LegPlan::Skip;
            if st.admit(self.cfg.resilience.cooldown_searches) {
                // Draw until the plan yields something other than a
                // transient fault still inside the retry budget.
                let op = FaultOp::search_shard(shard);
                let mut retries = 0u32;
                let fault = loop {
                    let fault = self.fault_plan.as_ref().and_then(|fp| fp.decide(op));
                    if fault != Some(FaultKind::Transient) || retries == backoff.max_retries {
                        break fault;
                    }
                    retries += 1;
                    self.note_retry(ctx.map(|c| (c, shard)));
                };
                event.retries += retries;
                let (crash, straggle, stage_stall) = match fault {
                    Some(FaultKind::ShardCrash) => (true, None, None),
                    Some(FaultKind::Straggler { factor }) => (false, Some(factor), None),
                    Some(FaultKind::StageStall { stage, factor }) => {
                        (false, None, Some((stage, factor)))
                    }
                    _ => (false, None, None),
                };
                let backoff_us = backoff.total_us(retries);
                plan = match fault {
                    Some(FaultKind::Transient) => LegPlan::FailFast, // retry budget exhausted
                    _ => LegPlan::Run { crash, straggle, stage_stall, backoff_us },
                };
            }
            legs.push(Leg { shard, plan, ctx, answer: None });
        }
        legs
    }

    /// Phase 2, one dispatched leg on its own thread: seal what is pending,
    /// search through the shard's coalescer, run cadenced cache
    /// maintenance. `crash` is the injected panic.
    fn run_leg(
        &self,
        shard: usize,
        ctx: Option<TraceContext>,
        crash: bool,
        query: &Arc<EncodedQuery>,
    ) -> Result<SearchResult, ClusterError> {
        // The guard records on drop even if this leg panics below, so
        // crashed legs stay visible in the span tree.
        let _leg_span = ctx.as_ref().map(|c| {
            global_ring()
                .span(c, "shard.leg")
                .tag("shard", &shard.to_string())
                .tag("track", &format!("shard {shard}"))
        });
        if crash {
            panic!("injected shard crash (fault plan)");
        }
        let Shard { engine, coalescer } = &self.shards[shard];
        // Seal any pending partial batch so it is searchable. The steady
        // state takes only the shared read lock; the write lock is acquired
        // just when references actually arrived since the last flush.
        let wait = Instant::now();
        let needs_flush = engine.read().has_pending();
        let mut wait_us = wait.elapsed().as_secs_f64() * 1e6;
        if needs_flush {
            let wait = Instant::now();
            let mut engine = engine.write();
            wait_us += wait.elapsed().as_secs_f64() * 1e6;
            engine.flush()?;
        }
        self.telemetry.shard_lock_wait[shard].observe(wait_us);
        // Concurrent searches coalesce into one multi-query sweep under a
        // shared read lock.
        let result = coalescer.search_encoded(engine, query);
        // Cadenced cache maintenance: when enough sealed batches + searches
        // have accrued, promote probe-hot host batches — but only if the
        // write lock is free; a search leg must never stall behind
        // promotions.
        if engine.read().rebalance_due() {
            if let Some(mut engine) = engine.try_write() {
                engine.maybe_rebalance();
            }
        }
        Ok(result)
    }

    /// Phase 3: drive the breakers from the outcomes. This is the *single*
    /// per-leg accounting point — breaker transitions, shard failure/skip
    /// counters, latency observations, breaker gauges, and every projection
    /// of an answered leg's report (drift pairs, exemplars, the wide event,
    /// trace spans) update here, exactly once per leg per search, so the
    /// Prometheus counters cannot drift from the breaker bookkeeping.
    fn account_legs(&self, legs: &[Leg], trace_id: Option<u128>, event: &mut WideEvent) {
        let mut states = self.shard_health.lock();
        for (st, leg) in states.iter_mut().zip(legs) {
            let shard = leg.shard;
            match (&leg.answer, leg.plan) {
                (Some(LegAnswer { measured, predicted, .. }), _) => {
                    st.record_success();
                    let latency = &self.telemetry.shard_latency[shard];
                    latency.observe(measured.total_us);
                    // Feed the drift sentry the (measured, predicted) pair
                    // per series, and — for traced searches — stamp
                    // exemplars with the measured values so `/metrics`
                    // buckets link to `GET /trace/{id}`.
                    let (m, p) = (measured.sim_series(), predicted.sim_series());
                    self.drift.observe(&std::array::from_fn(|i| (m[i], p[i])));
                    if let Some(tid) = trace_id {
                        for (series, us) in self.telemetry.stage_sim.iter().zip(m) {
                            series.record_exemplar(us, tid);
                        }
                        latency.record_exemplar(measured.total_us, tid);
                    }
                    event.coalesced = event.coalesced.max(measured.coalesced_queries as u32);
                    event.device_batches += measured.device_batches as u64;
                    event.host_batches += measured.host_batches as u64;
                    event.cells_probed += measured.cells_probed as u64;
                    event.batches_pruned += measured.batches_pruned as u64;
                    for stage in Stage::ALL {
                        *event.stage_us_mut(stage) += measured.stage_us(stage);
                    }
                }
                (None, LegPlan::Skip) => self.telemetry.shard_skips[shard].inc(),
                (None, _) => {
                    st.record_failure(self.cfg.resilience.trip_threshold);
                    self.telemetry.shard_failures[shard].inc();
                }
            }
            self.telemetry.breaker_state[shard].set(breaker_gauge_value(st.health()));
            self.trace_leg_outcome(leg);
        }
    }

    /// Phase 4: merge the answers and publish the finished search — its
    /// result, the degraded counter, the live paper gauges, the serving
    /// objectives, and the wide event (one per search, always).
    fn merge_and_publish(
        &self,
        legs: Vec<Leg>,
        top_k: usize,
        trace_id: Option<u128>,
        mut event: WideEvent,
        started: Instant,
    ) -> ClusterSearchResult {
        let shards_skipped = legs.iter().filter(|l| matches!(l.plan, LegPlan::Skip)).count();
        // Every shard answers in external ids, and an id has one version on
        // one shard: the merge is a concatenation.
        let mut results = Vec::new();
        let mut shard_reports = Vec::new();
        let shards = legs.len();
        for answer in legs.into_iter().filter_map(|l| l.answer) {
            results.extend(answer.ranked);
            shard_reports.push(answer.measured);
        }
        results.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        results.truncate(top_k);
        let shards_ok = shard_reports.len();
        let shards_failed = shards - shards_ok - shards_skipped;
        let degraded = shards_failed > 0 || shards_skipped > 0;
        if degraded {
            // Single accounting point: once per degraded search, never per
            // failed leg.
            self.degraded_searches.fetch_add(1, Ordering::Relaxed);
            self.telemetry.degraded.inc();
        }
        let wall_us = shard_reports.iter().map(|r| r.total_us).fold(0.0f64, f64::max);
        let comparisons: usize = shard_reports.iter().map(|r| r.images).sum();

        // Live paper gauges from this search's outcome: Eq. 3 (achieved
        // over theoretical TFLOPS, per GPU) and Eq. 4 (achieved over the
        // PCIe-bound speed, per GPU). The per-GPU speed divides by the
        // shards that actually answered, so a degraded scatter does not
        // read as an efficiency collapse.
        if shards_ok > 0 && wall_us > 0.0 && comparisons > 0 {
            let e = &self.cfg.engine;
            let speed = comparisons as f64 / wall_us * 1e6;
            let per_gpu = speed / shards_ok as f64;
            let (m, n, d) = (e.m_ref, e.n_query, DESCRIPTOR_DIM);
            self.telemetry
                .achieved_tflops
                .set(texid_core::metrics::achieved_tflops(speed, m, n, d));
            self.telemetry.gpu_efficiency.set(texid_core::metrics::gpu_efficiency(
                &e.device,
                per_gpu,
                m,
                n,
                d,
                e.matching.precision,
                e.matching.tensor_core,
            ));
            let bytes_per_image = (m * d * e.matching.precision.bytes()) as u64;
            let pcie =
                texid_gpu::streams::pcie_bound_speed(&e.device, bytes_per_image, e.cache.pinned);
            self.telemetry
                .schedule_efficiency
                .set(texid_gpu::streams::schedule_efficiency(per_gpu, pcie));
        }
        if let Some(plan) = &self.fault_plan {
            self.telemetry.faults_injected.set(plan.injected() as f64);
        }

        // Serving objectives: a search is available if any shard answered,
        // and its latency is the simulated makespan.
        self.slo.record(wall_us, shards_ok > 0);

        // Seal and file the wide event — one per search, always.
        event.wall_elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        event.sim_wall_us = wall_us;
        event.comparisons = comparisons as u64;
        event.shards_ok = shards_ok as u32;
        event.shards_failed = shards_failed as u32;
        event.shards_skipped = shards_skipped as u32;
        event.degraded = degraded;
        event.outcome = if shards_ok == 0 {
            "failed"
        } else if degraded {
            "degraded"
        } else {
            "ok"
        };
        global_events().record(event);

        ClusterSearchResult {
            results,
            shard_reports,
            wall_us,
            comparisons,
            shards_ok,
            shards_failed,
            shards_skipped,
            degraded,
            trace_id,
        }
    }

    /// Rebuild one container's engine from the feature store — the reason
    /// the paper keeps serialized feature matrices in Redis: a GPU
    /// container that restarts (re)loads its shard without touching the
    /// original images.
    ///
    /// Entries whose stored bytes are missing or fail to decode are
    /// **skipped and quarantined** (moved under a `quarantine:` key, id
    /// retired) rather than aborting the whole recovery. On success the
    /// shard's breaker is reset to `Healthy`.
    ///
    /// # Errors
    /// Cache errors from re-indexing; `Timeout` if the store stops
    /// answering past the retry budget (shard left untouched).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn recover_container(&self, shard: usize) -> Result<RecoveryReport, ClusterError> {
        assert!(shard < self.shards.len(), "no such container");
        // Collect this shard's live textures from the metadata, in id order
        // so fault-plan consumption stays deterministic.
        let mut members: Vec<u64> = {
            let shard_of = self.shard_of.lock();
            shard_of
                .iter()
                .filter(|(_, owner)| **owner == shard)
                .map(|(id, _)| *id)
                .collect()
        };
        members.sort_unstable();
        // Fresh engine; reload from the store.
        let mut engine = Engine::new(self.cfg.engine.clone());
        let mut report = RecoveryReport::default();
        for id in &members {
            // Three-way read: checksum-verified value, missing, or corrupt
            // (verified bytes that fail to decode, or decode to descriptors
            // of the wrong dimension, are corruption too).
            let outcome = match self.store_get(&Self::key(*id))? {
                StoreRead::Value(bytes) => match wire::decode_features(&bytes) {
                    Ok(features) if features.dim() == DESCRIPTOR_DIM => Ok(features),
                    _ => Err(QuarantineReason::Corrupt),
                },
                StoreRead::Missing => Err(QuarantineReason::Missing),
                StoreRead::Corrupt => Err(QuarantineReason::Corrupt),
            };
            match outcome {
                Ok(features) => {
                    engine.add_reference(*id, &features)?;
                    report.restored += 1;
                }
                Err(reason) => {
                    self.quarantine(*id);
                    report.quarantined.push(Quarantine { id: *id, reason });
                }
            }
        }
        engine.flush()?;
        *self.shards[shard].engine.write() = engine;
        self.shard_health.lock()[shard].record_success();
        self.telemetry.breaker_state[shard].set(breaker_gauge_value(ShardHealth::Healthy));
        Ok(report)
    }

    /// Supervisor pass: rebuild every non-`Healthy` shard and re-admit it,
    /// quarantining unrecoverable entries.
    ///
    /// The pass first **replays** the store strictly
    /// from the WAL + snapshot media, so entries whose writes were torn or
    /// lost before fsync vanish and are quarantined as missing — recovery
    /// trusts the media, not the possibly-wrong in-memory map. Per-shard
    /// replay stats land in the report, the `texid_replay_*` metrics, and
    /// (under `ctx`) the trace ring.
    ///
    /// # Errors
    /// Propagates [`Cluster::recover_container`] errors (healing stops at
    /// the first shard that cannot be rebuilt; earlier shards stay healed).
    pub fn heal(&self) -> Result<HealReport, ClusterError> {
        self.heal_traced(None)
    }

    /// [`Cluster::heal`] with span recording under a caller trace context.
    pub fn heal_traced(&self, ctx: Option<&TraceContext>) -> Result<HealReport, ClusterError> {
        let unhealthy: Vec<usize> = {
            let states = self.shard_health.lock();
            states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.health() != ShardHealth::Healthy)
                .map(|(i, _)| i)
                .collect()
        };
        let mut report = HealReport::default();
        if unhealthy.is_empty() {
            return Ok(report);
        }
        self.telemetry.heal_passes.inc();
        let ring = global_ring();
        // Replay the shared durable store once, before any shard rebuild:
        // from here on, reads see only what the media actually kept.
        let mut span = ctx.map(|c| ring.span(c, "store.replay"));
        let replay = self.store.replay();
        if let Some(stats) = &replay {
            span = span.map(|s| {
                s.tag("records", &stats.wal_records_applied.to_string())
                    .tag("corrupt_skipped", &stats.wal_corrupt_skipped.to_string())
                    .tag("torn_tail_bytes", &stats.wal_torn_tail_bytes.to_string())
            });
            self.telemetry.replay_corrupt_records.add(stats.wal_corrupt_skipped as u64);
            self.telemetry.replay_torn_bytes.add(stats.wal_torn_tail_bytes as u64);
        }
        drop(span);
        report.replay = replay;
        for shard in unhealthy {
            // Sequential fault draw: an injected replay stall is accounted
            // into this shard's wall time (simulated, not slept).
            let stall_us = match
                self.fault_plan.as_ref().and_then(|p| p.decide(FaultOp::replay(shard)))
            {
                Some(FaultKind::ReplayStall { us }) => us,
                _ => 0.0,
            };
            let started = Instant::now();
            let span = ctx.map(|c| ring.span(c, "shard.replay"));
            let rec = self.recover_container(shard)?;
            let wall_us = started.elapsed().as_secs_f64() * 1e6 + stall_us;
            drop(span.map(|s| {
                s.tag("shard", &shard.to_string())
                    .tag("restored", &rec.restored.to_string())
                    .tag("quarantined", &rec.quarantined.len().to_string())
            }));
            self.telemetry.replay_records[shard].add(rec.restored as u64);
            self.telemetry.replay_quarantined[shard].add(rec.quarantined.len() as u64);
            self.telemetry.replay_duration[shard].observe(wall_us);
            report.shards.push(ShardReplay {
                shard,
                records_replayed: rec.restored,
                records_quarantined: rec.quarantined.len(),
                replay_wall_us: wall_us,
            });
            report.restored += rec.restored;
            report.quarantined.extend(rec.quarantined);
            report.healed.push(shard);
        }
        Ok(report)
    }

    /// Per-shard breaker snapshot (the REST `/health` payload).
    pub fn health(&self) -> Vec<ShardStatus> {
        self.shard_health
            .lock()
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStatus {
                shard: i,
                health: s.health(),
                consecutive_failures: s.consecutive_failures,
                total_failures: s.total_failures,
                probes: s.probes,
            })
            .collect()
    }

    /// The store's WAL counters, published to the `texid_wal_*` gauges on
    /// the way. The `/metrics` scrape calls this, as `/stats` and `/health`
    /// do, so the gauges are current whoever reads them.
    pub fn refresh_wal_gauges(&self) -> WalStats {
        let wal = self.store.wal_stats().expect("the cluster's store is journaled");
        self.telemetry.wal_appends.set(wal.appends as f64);
        self.telemetry.wal_bytes.set(wal.wal_bytes as f64);
        self.telemetry.wal_snapshots.set(wal.snapshots as f64);
        wal
    }

    /// Cluster statistics (the REST `/stats` payload).
    pub fn stats(&self) -> ClusterStats {
        let per_ref = texid_core::capacity::bytes_per_reference(
            self.cfg.engine.m_ref,
            DESCRIPTOR_DIM,
            self.cfg.engine.matching.precision,
            false,
        );
        let per_container = texid_core::capacity::hybrid_capacity(
            &self.cfg.engine.device,
            self.cfg.engine.cache.device_reserve_bytes,
            self.cfg.engine.cache.host_capacity_bytes,
            per_ref,
        );
        let (healthy, suspect, down) = {
            let states = self.shard_health.lock();
            states.iter().fold((0, 0, 0), |(h, s, d), st| match st.health() {
                ShardHealth::Healthy => (h + 1, s, d),
                ShardHealth::Suspect => (h, s + 1, d),
                ShardHealth::Down => (h, s, d + 1),
            })
        };
        let wal = Some(self.refresh_wal_gauges());
        ClusterStats {
            containers: self.shards.len(),
            textures: self.len(),
            store_bytes: self.store.used_bytes(),
            capacity_images: per_container * self.shards.len() as u64,
            shards_healthy: healthy,
            shards_suspect: suspect,
            shards_down: down,
            total_searches: self.total_searches.load(Ordering::Relaxed),
            degraded_searches: self.degraded_searches.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.fault_plan.as_ref().map_or(0, |p| p.injected()),
            schedule_efficiency: self.telemetry.schedule_efficiency.get(),
            achieved_tflops: self.telemetry.achieved_tflops.get(),
            gpu_efficiency: self.telemetry.gpu_efficiency.get(),
            wal,
            drift: self.drift.status(),
        }
    }

    /// Point-in-time burn-rate status of every configured objective (the
    /// REST `/slo` payload, also surfaced in `/health`).
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.slo.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use rand::SeedableRng;
    use texid_image::{CaptureCondition, TextureGenerator};
    use texid_sift::{extract, SiftConfig};

    fn small_config(containers: usize) -> ClusterConfig {
        ClusterConfig {
            containers,
            engine: EngineConfig {
                m_ref: 128,
                n_query: 256,
                batch_size: 2,
                streams: 1,
                ..EngineConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    fn small_cluster(containers: usize) -> Cluster {
        Cluster::new(small_config(containers))
    }

    fn features(seed: u64, n: usize) -> FeatureMatrix {
        let im = TextureGenerator::with_size(128).generate(seed);
        extract(&im, &SiftConfig { max_features: n, ..SiftConfig::default() })
    }

    /// References indexed across every shard's engine (pending included).
    fn indexed(cluster: &Cluster) -> usize {
        cluster.shards.iter().map(|s| s.engine.read().len()).sum()
    }

    fn query_for(seed: u64) -> FeatureMatrix {
        let im = TextureGenerator::with_size(128).generate(seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xabc);
        let q = CaptureCondition::mild(&mut rng).apply(&im, seed);
        extract(&q, &SiftConfig { max_features: 256, ..SiftConfig::default() })
    }

    #[test]
    fn distributed_identification_end_to_end() {
        let cluster = small_cluster(3);
        for id in 0..6u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let out = cluster.search(&query_for(4), 3);
        assert_eq!(out.results[0].0, 4, "{:?}", out.results);
        assert_eq!(out.comparisons, 6);
        assert_eq!(out.shard_reports.len(), 3);
        assert!(out.images_per_second() > 0.0);
        assert!(!out.degraded);
        assert_eq!(out.shards_ok, 3);
        assert_eq!(out.shards_failed, 0);
    }

    #[test]
    fn traced_search_records_span_tree() {
        let cluster = small_cluster(3);
        for id in 0..6u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let root = TraceContext::root();
        let out = cluster.search_traced(&query_for(4), 3, Some(&root));
        assert_eq!(out.trace_id, Some(root.trace_id));
        // Untraced searches stay untraced.
        assert_eq!(cluster.search(&query_for(4), 3).trace_id, None);

        let spans = global_ring().snapshot_trace(root.trace_id);
        let cluster_span = spans.iter().find(|s| s.name == "cluster.search").unwrap();
        assert_eq!(cluster_span.parent_id, root.span_id);
        assert_eq!(cluster_span.clock, texid_obs::Clock::Wall);
        let legs: Vec<_> = spans.iter().filter(|s| s.name == "shard.leg").collect();
        assert_eq!(legs.len(), 3, "one leg span per shard");
        for leg in &legs {
            assert_eq!(leg.parent_id, cluster_span.span_id);
            // Each answered leg has serial sim-stage children.
            let stages: Vec<_> = spans
                .iter()
                .filter(|s| s.parent_id == leg.span_id && s.clock == texid_obs::Clock::Sim)
                .collect();
            assert_eq!(stages.len(), 6, "total + 5 stages");
            assert!(stages.iter().any(|s| s.name == "hgemm"));
            assert!(stages.iter().all(|s| s.tag("track").unwrap().ends_with("(sim)")));
        }
        assert!(spans.iter().all(|s| s.name != "retry"), "no faults, no retry spans");
    }

    #[test]
    fn stage_stall_flags_drift_on_one_stage_only() {
        // Acceptance: a 2x slowdown injected into ONE stage must push
        // texid_model_drift_ratio{stage="gemm"} past 1.5 while every
        // unperturbed stage stays within +-10% of 1.0.
        let reg = Registry::new();
        let plan = FaultPlan::new(7).stall_stage(0, Stage::Gemm, 2.0, 100);
        let cluster = Cluster::with_faults_in_registry(small_config(1), Some(plan), &reg);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        for _ in 0..5 {
            cluster.search(&query_for(1), 2);
        }
        let drift = cluster.stats().drift;
        let ratio = |s: &str| drift.iter().find(|d| d.stage == s).unwrap().ratio;
        assert!(ratio("gemm") > 1.5, "gemm drift {}", ratio("gemm"));
        for stage in ["h2d", "top2", "d2h", "post"] {
            assert!((ratio(stage) - 1.0).abs() <= 0.1, "{stage} drifted: {}", ratio(stage));
        }
        assert!(ratio("total") > 1.0, "the stall shows up in total too: {}", ratio("total"));
        let text = reg.render_prometheus();
        assert!(text.contains("texid_model_drift_ratio{stage=\"gemm\"} 2"), "{text}");
        assert!(text.contains("texid_model_drift_ratio{stage=\"h2d\"} 1\n"), "{text}");
    }

    #[test]
    fn slo_status_tracks_good_and_failed_searches() {
        let reg = Registry::new();
        let plan = FaultPlan::new(3).crash_shard(0);
        let cluster = Cluster::with_faults_in_registry(small_config(1), Some(plan), &reg);
        for id in 0..2u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        cluster.search(&query_for(0), 1); // injected crash: unavailable
        cluster.search(&query_for(0), 1); // healthy
        let status = cluster.slo_status();
        let avail = status.iter().find(|s| s.name == "search-availability").unwrap();
        assert_eq!((avail.good, avail.bad), (1, 1));
        assert!(avail.short_burn > 0.0, "a failed search burns budget");
        let lat = status.iter().find(|s| s.name == "search-latency").unwrap();
        assert_eq!(lat.good, 1, "the healthy search lands under 100 ms simulated");
        assert_eq!(lat.bad, 1, "an unavailable search is a latency miss too");
        let text = reg.render_prometheus();
        assert!(text.contains("texid_slo_bad_total{slo=\"search-availability\"} 1"), "{text}");
        assert!(text.contains("texid_slo_burn_rate{slo=\"search-availability\",window=\"short\"}"));
    }

    #[test]
    fn every_search_files_a_wide_event() {
        let cluster = small_cluster(2);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let root = TraceContext::root();
        cluster.search_traced(&query_for(2), 2, Some(&root));
        let ev = global_events()
            .snapshot()
            .into_iter()
            .find(|e| e.trace_id == root.trace_id)
            .expect("traced search filed a wide event carrying its trace id");
        assert_eq!(ev.outcome, "ok");
        assert_eq!(ev.shards_ok, 2);
        assert!(!ev.degraded);
        assert!(ev.sim_wall_us > 0.0);
        assert!(ev.gemm_us > 0.0, "per-stage sums populated");
        assert!(ev.comparisons > 0);
        assert!(ev.coalesced >= 1);
        // Untraced searches still file events (trace_id 0).
        let before = global_events().recorded();
        cluster.search(&query_for(2), 2);
        assert!(global_events().recorded() > before);
    }

    #[test]
    fn traced_search_marks_retries_and_failed_legs() {
        let plan = FaultPlan::new(42).transient_search(0, 2);
        let cluster = Cluster::with_faults(small_config(2), Some(plan));
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let root = TraceContext::root();
        let out = cluster.search_traced(&query_for(1), 2, Some(&root));
        assert_eq!(out.shards_ok, 2, "transients are retried through");

        let spans = global_ring().snapshot_trace(root.trace_id);
        let retries: Vec<_> = spans.iter().filter(|s| s.name == "retry").collect();
        assert_eq!(retries.len(), 2, "exactly one span per note_retry");
        assert!(retries.iter().all(|s| s.tag("shard") == Some("0")));
        // Retry marks parent to shard 0's leg span.
        let leg0 = spans
            .iter()
            .find(|s| s.name == "shard.leg" && s.tag("shard") == Some("0"))
            .unwrap();
        assert!(retries.iter().all(|s| s.parent_id == leg0.span_id));
    }

    #[test]
    fn traced_search_keeps_crashed_legs_visible() {
        let plan = FaultPlan::new(7).crash_shard(1);
        let cluster = Cluster::with_faults(small_config(2), Some(plan));
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let root = TraceContext::root();
        let out = cluster.search_traced(&query_for(1), 2, Some(&root));
        assert_eq!(out.shards_failed, 1);
        let spans = global_ring().snapshot_trace(root.trace_id);
        let legs: Vec<_> = spans.iter().filter(|s| s.name == "shard.leg").collect();
        assert_eq!(legs.len(), 2, "the crashed leg still records its span");
    }

    #[test]
    fn shards_balanced_round_robin() {
        let cluster = small_cluster(4);
        for id in 0..8u64 {
            cluster.add_texture(id, &features(id, 64)).unwrap();
        }
        let shard_of = cluster.shard_of.lock();
        for s in 0..4 {
            let count = shard_of.values().filter(|&&v| v == s).count();
            assert_eq!(count, 2, "shard {s} holds {count}");
        }
    }

    #[test]
    fn delete_removes_the_reference_physically() {
        let cluster = small_cluster(2);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        cluster.delete_texture(2).unwrap();
        let out = cluster.search(&query_for(2), 4);
        assert!(out.results.iter().all(|(id, _)| *id != 2), "{:?}", out.results);
        assert_eq!((cluster.len(), out.comparisons), (3, 3), "the sweep is the live set");
        assert_eq!(cluster.delete_texture(2), Err(ClusterError::NotFound(2)));
    }

    #[test]
    fn update_restores_searchability() {
        let cluster = small_cluster(2);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        cluster.update_texture(1, &features(1, 128)).unwrap();
        let out = cluster.search(&query_for(1), 2);
        assert_eq!(out.results[0].0, 1);
        assert_eq!(cluster.update_texture(99, &features(0, 64)), Err(ClusterError::NotFound(99)));
    }

    #[test]
    fn rewrites_leave_the_sweep_at_the_live_set() {
        let cluster = small_cluster(2);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let owner = cluster.shard_of.lock()[&1];
        let versions = [features(9, 128), features(1, 128)];
        for round in 0..200 {
            cluster.update_texture(1, &versions[round % 2]).unwrap();
            if round % 50 == 0 {
                // Seals the pending version: later rewrites delete it from
                // (and so empty) a sealed batch, earlier ones from `pending`.
                assert_eq!(cluster.search(&query_for(1), 1).comparisons, 4);
            }
        }
        // POST /textures on a live id is the same rewrite.
        cluster.add_texture(1, &versions[1]).unwrap();
        let out = cluster.search(&query_for(1), 4);
        assert_eq!(
            (out.comparisons, cluster.len()),
            (4, 4),
            "201 rewrites, four references"
        );
        assert_eq!(out.results[0].0, 1);
        assert_eq!(out.results.iter().filter(|(id, _)| *id == 1).count(), 1);
        assert_eq!(
            cluster.shard_of.lock()[&1],
            owner,
            "an id is rewritten where it lives"
        );
        assert_eq!(indexed(&cluster), 4);
    }

    /// A rewrite overwrites the id in the slot it occupies, so a gallery
    /// rewritten 70 times is the gallery enrolled fresh with the final
    /// versions: every shard sweeps the same batches for the same simulated
    /// time, and every ranking and score agrees.
    #[test]
    fn rewrites_in_slot_leave_each_shards_batches_and_report_as_fresh() {
        let versions: Vec<FeatureMatrix> = (0..16u64).map(|seed| features(seed, 128)).collect();
        let (fresh, rewritten) = (small_cluster(2), small_cluster(2));
        for id in 0..6u64 {
            fresh.add_texture(id, &versions[id as usize + 10]).unwrap();
            rewritten.add_texture(id, &versions[id as usize]).unwrap();
        }
        let sealed = rewritten.search(&query_for(3), 6);
        assert_eq!(sealed.comparisons, 6);
        for round in 0..64u64 {
            rewritten.update_texture(round % 6, &versions[(round % 10) as usize]).unwrap();
        }
        for id in 0..6u64 {
            rewritten.add_texture(id, &versions[id as usize + 10]).unwrap();
        }
        for seed in [10u64, 12, 15] {
            let (a, b) = (fresh.search(&query_for(seed), 6), rewritten.search(&query_for(seed), 6));
            assert_eq!(a.results, b.results, "query {seed}");
            assert_eq!(b.results[0].0, seed - 10, "query {seed}: {:?}", b.results);
            for (x, y) in a.shard_reports.iter().zip(&b.shard_reports) {
                let batches = |r: &SearchReport| r.device_batches + r.host_batches;
                assert_eq!((batches(x), x.images), (batches(y), y.images), "query {seed}");
                assert_eq!(x.total_us.to_bits(), y.total_us.to_bits(), "query {seed}");
            }
        }
        assert_eq!(indexed(&rewritten), 6);
    }

    /// The update gap: a search racing a rewrite must find the id exactly
    /// once — never neither version (the old delete-then-add window), never
    /// both. The searcher's 40 searches all run while the rewriter rewrites.
    #[test]
    fn every_search_sees_exactly_one_version_of_an_id_under_rewrite() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let cluster = small_cluster(2);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let versions = [features(9, 128), features(2, 128)];
        let query = query_for(2);
        let (start, searched) = (Barrier::new(2), AtomicBool::new(false));
        let rewrites = std::thread::scope(|s| {
            let rewriter = s.spawn(|| {
                start.wait();
                let mut rewrites = 0usize;
                while !searched.load(Ordering::SeqCst) {
                    cluster.update_texture(2, &versions[rewrites % 2]).unwrap();
                    rewrites += 1;
                }
                rewrites
            });
            // Stops the rewriter when the searches are through — or when an
            // assertion below unwinds, which would otherwise never be joined.
            struct Stop<'a>(&'a AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let stop = Stop(&searched);
            start.wait();
            for search in 0..40 {
                let out = cluster.search(&query, 4);
                let mut ids: Vec<u64> = out.results.iter().map(|(id, _)| *id).collect();
                ids.sort_unstable();
                assert_eq!(ids, [0, 1, 2, 3], "search {search}: {:?}", out.results);
                assert_eq!(out.comparisons, 4, "search {search}");
            }
            drop(stop);
            rewriter.join().expect("rewriter")
        });
        assert!(rewrites > 0);
        assert_eq!(cluster.search(&query, 4).comparisons, cluster.len());
    }

    /// Writers racing on one id serialize on its shard: whatever the
    /// interleaving of adds and deletes, the id ends up indexed at most
    /// once and owned exactly when it is indexed.
    #[test]
    fn racing_writers_of_one_id_leave_it_indexed_at_most_once() {
        use std::sync::Barrier;

        let cluster = small_cluster(3);
        for id in 0..3u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let f = features(7, 128);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cluster, f, start) = (&cluster, &f, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..25 {
                        if (round + t) % 3 == 0 {
                            let _ = cluster.delete_texture(7);
                        } else {
                            cluster.add_texture(7, f).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(
            indexed(&cluster),
            cluster.len(),
            "indexed but unowned, or owned twice"
        );
        cluster.add_texture(7, &f).unwrap();
        let out = cluster.search(&query_for(7), 4);
        assert_eq!(
            (out.comparisons, cluster.len(), indexed(&cluster)),
            (4, 4, 4)
        );
        assert_eq!(out.results.iter().filter(|(id, _)| *id == 7).count(), 1);
        cluster.delete_texture(7).unwrap();
        assert_eq!(
            (
                cluster.search(&query_for(7), 4).comparisons,
                indexed(&cluster)
            ),
            (3, 3)
        );
    }

    #[test]
    fn stored_features_roundtrip() {
        let cluster = small_cluster(1);
        let f = features(7, 100);
        cluster.add_texture(7, &f).unwrap();
        let back = cluster.get_texture(7).unwrap();
        assert_eq!(back.mat, f.mat);
        assert!(cluster.get_texture(8).is_err());
    }

    #[test]
    fn wall_time_is_max_not_sum() {
        let cluster = small_cluster(4);
        for id in 0..8u64 {
            cluster.add_texture(id, &features(id, 64)).unwrap();
        }
        let out = cluster.search(&query_for(0), 1);
        let max = out
            .shard_reports
            .iter()
            .map(|r| r.total_us)
            .fold(0.0f64, f64::max);
        let sum: f64 = out.shard_reports.iter().map(|r| r.total_us).sum();
        assert_eq!(out.wall_us, max);
        assert!(out.wall_us < sum);
    }

    #[test]
    fn container_recovery_from_store() {
        // Kill a container (replace its engine with an empty one), recover
        // it from the feature store, and verify search results are intact.
        let cluster = small_cluster(3);
        for id in 0..9u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        cluster.delete_texture(4).unwrap();
        let before = cluster.search(&query_for(6), 3);

        // Simulate a container crash: wipe shard 0.
        *cluster.shards[0].engine.write() = Engine::new(cluster.cfg.engine.clone());
        let degraded = cluster.search(&query_for(6), 3);

        let recovery = cluster.recover_container(0).unwrap();
        assert!(recovery.restored > 0, "shard 0 held nothing?");
        assert!(recovery.quarantined.is_empty());
        let after = cluster.search(&query_for(6), 3);

        assert_eq!(before.results, after.results, "recovery changed results");
        // The degraded cluster lost shard 0's references.
        assert!(degraded.comparisons < before.comparisons);
        assert_eq!(after.comparisons, before.comparisons);
    }

    #[test]
    fn recovery_skips_deleted_textures() {
        let cluster = small_cluster(1);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        cluster.delete_texture(1).unwrap();
        let recovery = cluster.recover_container(0).unwrap();
        assert_eq!(recovery.restored, 3);
        let out = cluster.search(&query_for(1), 4);
        assert!(out.results.iter().all(|(id, _)| *id != 1));
    }

    #[test]
    fn verification_accepts_genuine_rejects_impostor() {
        let cluster = small_cluster(2);
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let q = query_for(2);
        let genuine = cluster.verify(2, &q, 10, 8).unwrap();
        assert!(genuine.accepted, "{genuine:?}");
        assert!(genuine.good_matches >= 10);
        assert!((genuine.transform_scale - 1.0).abs() < 0.2);

        let impostor = cluster.verify(3, &q, 10, 8).unwrap();
        assert!(!impostor.accepted, "{impostor:?}");

        assert!(matches!(cluster.verify(99, &q, 10, 8), Err(ClusterError::NotFound(99))));
    }

    #[test]
    fn stats_reflect_configuration() {
        let cluster = small_cluster(2);
        cluster.add_texture(0, &features(0, 64)).unwrap();
        let s = cluster.stats();
        assert_eq!(s.containers, 2);
        assert_eq!(s.textures, 1);
        assert!(s.store_bytes > 0);
        assert!(s.capacity_images > 1_000_000, "capacity {}", s.capacity_images);
        assert_eq!(s.shards_healthy, 2);
        assert_eq!(s.shards_down, 0);
        assert_eq!(s.faults_injected, 0);
    }

    #[test]
    fn injected_crash_degrades_but_returns() {
        let plan = FaultPlan::new(11).crash_shard(1);
        let cluster = Cluster::with_faults(small_config(3), Some(plan));
        for id in 0..6u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let out = cluster.search(&query_for(4), 3);
        assert!(out.degraded);
        assert_eq!(out.shards_failed, 1);
        assert_eq!(out.shards_ok, 2);
        assert!(out.comparisons < 6);
        assert_eq!(cluster.fault_plan().unwrap().injected(), 1);

        // The crash is one-shot: the next search is whole again.
        let next = cluster.search(&query_for(4), 3);
        assert!(!next.degraded);
        assert_eq!(next.results[0].0, 4);
        let s = cluster.stats();
        assert_eq!(s.total_searches, 2);
        assert_eq!(s.degraded_searches, 1);
    }

    #[test]
    fn breaker_trips_skips_then_readmits() {
        // Crash shard 0 on three consecutive searches: breaker trips.
        let plan = FaultPlan::new(5)
            .crash_shard_after(0, 0)
            .crash_shard_after(0, 0)
            .crash_shard_after(0, 0);
        let cluster = Cluster::with_faults(small_config(2), Some(plan));
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let q = query_for(1);
        for _ in 0..3 {
            let out = cluster.search(&q, 2);
            assert_eq!(out.shards_failed, 1);
        }
        assert_eq!(cluster.health()[0].health, ShardHealth::Down);

        // Cooldown search 1: skipped, not failed.
        let out = cluster.search(&q, 2);
        assert_eq!(out.shards_skipped, 1);
        assert_eq!(out.shards_failed, 0);
        assert!(out.degraded);

        // Cooldown reached: half-open probe succeeds (budget exhausted),
        // shard re-admitted.
        let out = cluster.search(&q, 2);
        assert_eq!(out.shards_ok, 2);
        assert!(!out.degraded);
        let health = cluster.health();
        assert_eq!(health[0].health, ShardHealth::Healthy);
        assert_eq!(health[0].probes, 1);
        assert_eq!(health[0].total_failures, 3);
    }

    #[test]
    fn degraded_scatter_gather_under_concurrent_load() {
        // Shard 0 crashes on every leg while several clients search
        // concurrently (through the shard RwLocks and the per-shard
        // coalescer): every response must be flagged degraded, carry only
        // the healthy shard's results, and never mix shards up.
        let clients = 4u64;
        let searches_per_client = 2u64;
        let mut plan = FaultPlan::new(11);
        for _ in 0..clients * searches_per_client {
            plan = plan.crash_shard_after(0, 0);
        }
        let cfg = ClusterConfig {
            // Keep the breaker out of the picture: every leg fails, none
            // gets skipped.
            resilience: ResilienceConfig {
                trip_threshold: 1000,
                ..ResilienceConfig::default()
            },
            ..small_config(2)
        };
        let cluster = Cluster::with_faults(cfg, Some(plan));
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }

        // Round-robin placement: even ids on shard 0 (crashed), odd ids on
        // shard 1 (healthy).
        let queries: Vec<FeatureMatrix> = (0..clients).map(query_for).collect();
        let cluster_ref = &cluster;
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    s.spawn(move || {
                        (0..searches_per_client)
                            .map(|_| cluster_ref.search(q, 4))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
        });

        assert_eq!(outs.len(), (clients * searches_per_client) as usize);
        for out in &outs {
            assert!(out.degraded, "crashed shard must mark the response degraded");
            assert_eq!(out.shards_failed, 1);
            assert_eq!(out.shards_ok, 1);
            assert_eq!(out.results.len(), 2, "healthy shard holds 2 references");
            assert!(
                out.results.iter().all(|(id, _)| id % 2 == 1),
                "only shard 1's (odd) ids may appear: {:?}",
                out.results
            );
        }
    }

    #[test]
    fn transient_search_faults_retry_then_exhaust() {
        // Two transient faults: retried within budget, search succeeds.
        let plan = FaultPlan::new(3).transient_search(0, 2);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        cluster.add_texture(0, &features(0, 128)).unwrap();
        let out = cluster.search(&query_for(0), 1);
        assert!(!out.degraded, "{out:?}");
        assert_eq!(cluster.stats().retries, 2);

        // More transients than the retry budget: the leg fails fast.
        let plan = FaultPlan::new(3).transient_search(0, 10);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        cluster.add_texture(0, &features(0, 128)).unwrap();
        let out = cluster.search(&query_for(0), 1);
        assert!(out.degraded);
        assert_eq!(out.shards_failed, 1);
        assert!(out.results.is_empty());
    }

    #[test]
    fn straggler_slows_wall_time_only() {
        let baseline_cluster = small_cluster(2);
        for id in 0..4u64 {
            baseline_cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let baseline = baseline_cluster.search(&query_for(1), 2);

        let plan = FaultPlan::new(9).straggle_shard(0, 8.0, 1);
        let cluster = Cluster::with_faults(small_config(2), Some(plan));
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let slowed = cluster.search(&query_for(1), 2);
        assert!(!slowed.degraded, "straggler is slow, not failed");
        assert_eq!(slowed.results, baseline.results);
        assert!(slowed.wall_us > baseline.wall_us, "{} vs {}", slowed.wall_us, baseline.wall_us);
    }

    #[test]
    fn corrupt_store_entry_quarantined_on_recover() {
        let plan = FaultPlan::new(21).corrupt_kv_reads(1);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        for id in 0..3u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        // Recovery reads members in id order: id 0 draws the corrupt read.
        let recovery = cluster.recover_container(0).unwrap();
        assert_eq!(recovery.restored, 2);
        // The per-value checksum pins the blame: bytes were present but
        // mangled, so the reason is Corrupt, not Missing.
        assert_eq!(
            recovery.quarantined,
            vec![Quarantine { id: 0, reason: QuarantineReason::Corrupt }]
        );
        assert_eq!(cluster.len(), 2);
        assert!(cluster.store().exists("quarantine:tex:00000000000000000000"));
        // Quarantined ids vanish from results.
        let out = cluster.search(&query_for(0), 3);
        assert!(out.results.iter().all(|(id, _)| *id != 0));
    }

    #[test]
    fn wrong_dimension_is_refused_on_write_and_quarantined_on_heal() {
        let plan = FaultPlan::new(5).crash_shard(0);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        for id in 0..3u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let narrow = texid_linalg::Mat::from_fn(64, 16, |r, c| ((r + 3 * c) % 7) as f32 * 0.1);
        let narrow = FeatureMatrix::from_mat(narrow, true);
        // The write path refuses it: nothing stored, nothing indexed.
        assert_eq!(cluster.add_texture(9, &narrow), Err(ClusterError::Dimension(64)));
        assert_eq!(cluster.update_texture(1, &narrow), Err(ClusterError::Dimension(64)));
        assert_eq!((cluster.len(), indexed(&cluster)), (3, 3));
        assert!(!cluster.store().exists(&Cluster::key(9)));

        // An entry written before that check existed: intact bytes, wrong
        // shape. Recovery must retire it, not index it (or die trying).
        cluster.store().set(&Cluster::key(1), wire::encode_features(&narrow));
        assert!(cluster.search(&query_for(0), 3).degraded, "the scripted crash");
        let heal = cluster.heal().unwrap();
        assert_eq!(heal.healed, vec![0]);
        assert_eq!(heal.quarantined, vec![Quarantine { id: 1, reason: QuarantineReason::Corrupt }]);
        let after = cluster.search(&query_for(0), 3);
        assert!(!after.degraded);
        assert_eq!((after.comparisons, after.results[0].0), (2, 0));
    }

    #[test]
    fn heal_rebuilds_all_unhealthy_shards() {
        let plan = FaultPlan::new(7).crash_shard(0).crash_shard(2);
        let cluster = Cluster::with_faults(small_config(3), Some(plan));
        for id in 0..6u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let out = cluster.search(&query_for(4), 3);
        assert_eq!(out.shards_failed, 2);

        let heal = cluster.heal().unwrap();
        assert_eq!(heal.healed, vec![0, 2]);
        assert!(heal.restored > 0);
        assert!(heal.quarantined.is_empty());
        assert!(cluster.health().iter().all(|s| s.health == ShardHealth::Healthy));

        let after = cluster.search(&query_for(4), 3);
        assert!(!after.degraded);
        assert_eq!(after.results[0].0, 4);
        assert_eq!(after.comparisons, 6);
    }

    #[test]
    fn lost_store_entry_quarantined_as_missing() {
        let plan = FaultPlan::new(23).lose_kv_reads(1);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        for id in 0..3u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        let recovery = cluster.recover_container(0).unwrap();
        assert_eq!(recovery.restored, 2);
        assert_eq!(
            recovery.quarantined,
            vec![Quarantine { id: 0, reason: QuarantineReason::Missing }]
        );
    }

    #[test]
    fn heal_replays_durable_store_and_quarantines_torn_write() {
        // Tear the WAL append of the final add (skip the first 3), then
        // crash the only shard so heal has something to rebuild.
        let plan = FaultPlan::new(31).tear_wal_append_after(3).crash_shard(0);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        for id in 0..4u64 {
            cluster.add_texture(id, &features(id, 128)).unwrap();
        }
        // Until heal replays, the in-memory map still serves the torn id —
        // the writer had no idea the append never became durable.
        assert!(cluster.get_texture(3).is_ok());
        let out = cluster.search(&query_for(1), 4);
        assert_eq!(out.shards_failed, 1);

        let heal = cluster.heal().unwrap();
        assert_eq!(heal.healed, vec![0]);
        let replay = heal.replay.as_ref().expect("durable store must report replay stats");
        assert!(replay.wal_torn_tail_bytes > 0, "{replay:?}");
        assert_eq!(replay.wal_records_applied, 3);
        assert_eq!(
            heal.quarantined,
            vec![Quarantine { id: 3, reason: QuarantineReason::Missing }]
        );
        assert_eq!(heal.shards.len(), 1);
        assert_eq!(heal.shards[0].shard, 0);
        assert_eq!(heal.shards[0].records_replayed, 3);
        assert_eq!(heal.shards[0].records_quarantined, 1);
        assert!(heal.shards[0].replay_wall_us > 0.0);

        // The torn id is gone for good; the rest survived the crash.
        assert!(matches!(cluster.get_texture(3), Err(ClusterError::NotFound(3))));
        for id in 0..3 {
            assert!(cluster.get_texture(id).is_ok(), "id {id}");
        }
        let after = cluster.search(&query_for(1), 4);
        assert!(!after.degraded);
        assert_eq!(after.comparisons, 3);
    }

    #[test]
    fn replay_stall_is_accounted_into_shard_wall_time() {
        let plan = FaultPlan::new(37).crash_shard(0).stall_replay(0, 250_000.0);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        cluster.add_texture(0, &features(0, 128)).unwrap();
        let _ = cluster.search(&query_for(0), 1);
        let heal = cluster.heal().unwrap();
        assert_eq!(heal.healed, vec![0]);
        // 250ms simulated stall dominates the real rebuild time.
        assert!(heal.shards[0].replay_wall_us >= 250_000.0, "{:?}", heal.shards[0]);
    }

    #[test]
    fn stats_expose_wal_counters() {
        let cluster = small_cluster(1);
        for id in 0..3u64 {
            cluster.add_texture(id, &features(id, 64)).unwrap();
        }
        let wal = cluster.stats().wal.expect("default store is durable");
        assert_eq!(wal.appends, 3);
        assert_eq!(wal.lost_appends, 0);
        assert!(wal.wal_bytes > 0);
    }

    #[test]
    fn kv_write_retries_exhaust_to_unavailable() {
        let plan = FaultPlan::new(13).transient_kv_writes(10);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        let err = cluster.add_texture(0, &features(0, 64)).unwrap_err();
        assert!(matches!(err, ClusterError::Unavailable(_)), "{err:?}");
        assert!(cluster.is_empty());
    }

    #[test]
    fn kv_read_timeout_after_retry_budget() {
        let plan = FaultPlan::new(17).transient_kv_reads(10);
        let cluster = Cluster::with_faults(small_config(1), Some(plan));
        // Write path is clean (rules are read-scoped).
        cluster.add_texture(0, &features(0, 64)).unwrap();
        let err = cluster.get_texture(0).unwrap_err();
        assert!(matches!(err, ClusterError::Timeout(_)), "{err:?}");
    }
}
