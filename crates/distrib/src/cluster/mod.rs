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
//!
//! # Where things live
//!
//! * this file — configuration, errors, [`Cluster`] itself and its `/stats`;
//! * `shard` — one container: engine, coalescer, breaker, per-shard series;
//! * `placement` — id → shard ownership, the fault-wrapped store, CRUD, verify;
//! * `search` — the four phases of [`Cluster::search_traced`];
//! * `heal` — `recover_container`, `heal` and their reports.
//!
//! [`Engine::remove_reference`]: texid_core::Engine::remove_reference
//! [`Engine::replace_reference`]: texid_core::Engine::replace_reference
//! [`SearchReport::perturbed`]: texid_core::SearchReport::perturbed

mod heal;
mod placement;
mod search;
mod shard;
#[cfg(test)]
mod tests;

pub use heal::{HealReport, Quarantine, QuarantineReason, RecoveryReport, ShardReplay};
pub use placement::VerifyReport;
pub use search::ClusterSearchResult;
pub use shard::{ShardHealth, ShardStatus};

use crate::faults::{Backoff, FaultPlan};
use crate::kv::KvStore;
use parking_lot::Mutex;
use shard::Shard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use texid_cache::CacheError;
use texid_core::{CoalesceConfig, EngineConfig};
use texid_obs::{
    global_ring, Counter, DriftSentry, DriftStatus, Gauge, Histogram, Registry, SloEngine,
    SloSpec, SloStatus, TraceContext, DRIFT_STAGES,
};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_store::{DurableLog, LogConfig, Volume, WalStats};

// What `tests.rs` — the old single file's suite, moved unedited — reaches
// through `super::*` beyond the above.
#[cfg(test)]
use {
    crate::faults::Stage,
    crate::wire,
    texid_core::{Engine, SearchReport},
    texid_obs::global_events,
    texid_sift::FeatureMatrix,
};

/// Cached cluster-wide telemetry handles, registered once per cluster
/// (the `shard`-labelled series belong to each [`Shard`]); every hot-path
/// update is a relaxed atomic on a pre-registered handle.
struct Telemetry {
    searches: Counter,
    degraded: Counter,
    retries: Counter,
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
    fn register(reg: &Registry) -> Telemetry {
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

/// The distributed search system.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    store: KvStore,
    /// Live id -> the shard whose engine indexes it (under that same id).
    /// Changed only under that shard's write lock (`Cluster::lock_owner`),
    /// so the map and the engines cannot disagree about who owns an id.
    shard_of: Mutex<HashMap<u64, usize>>,
    next_rr: AtomicUsize,
    /// Held across a search's plan phase. Each breaker has its own lock;
    /// this one keeps one search's fault draws — shard 0 to n, retries
    /// included — from interleaving with another's, which is what makes a
    /// seeded [`FaultPlan`] hand shard `s` the same decisions on every run
    /// (the "never concurrently" of [`crate::faults`]' determinism
    /// contract) however many HTTP workers search at once.
    planning: Mutex<()>,
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
        let shards = (0..cfg.containers).map(|i| Shard::new(i, &cfg, registry)).collect();
        let telemetry = Telemetry::register(registry);
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
            planning: Mutex::new(()),
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

    /// Per-shard breaker snapshot (the REST `/health` payload).
    pub fn health(&self) -> Vec<ShardStatus> {
        self.shards.iter().map(Shard::status).collect()
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
        let (healthy, suspect, down) =
            self.health().iter().fold((0, 0, 0), |(h, s, d), st| match st.health {
                ShardHealth::Healthy => (h + 1, s, d),
                ShardHealth::Suspect => (h, s + 1, d),
                ShardHealth::Down => (h, s, d + 1),
            });
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
