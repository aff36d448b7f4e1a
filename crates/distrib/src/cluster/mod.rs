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
//! [`Cluster::search_traced`] is orchestration over one `Leg` per shard,
//! through three phases: `plan_leg` (on the calling thread, in shard
//! order: breaker admission, the fault decision and the perturbation; a
//! leg that runs is submitted to the cluster's leg pool), the gather in
//! shard order, `account_legs` (the single per-leg accounting point;
//! every per-stage series there is a loop over `Stage::ALL` projecting the
//! leg's `SearchReport`) and `merge_and_publish`; the search's one wide
//! event is then projected from the finished result. A leg's *measured*
//! report is its *predicted* one under its fault's perturbation
//! ([`SearchReport::perturbed`]).
//!
//! The pool (`pool`) is the only parallelism of a search: `min(containers,
//! available_parallelism())` persistent workers, started by the cluster's
//! first search and joined when it drops. A worker takes the oldest queued
//! leg and every other leg queued for the same shard, up to
//! `CoalesceConfig::max_batch`, and sweeps them as one multi-query pass
//! under one read lock — concurrent searches coalesce from real backlog,
//! with no window. Nothing runs in
//! parallel inside a leg.
//!
//! # Failure model & degraded mode
//!
//! A shard leg of a search can fail (crash, injected fault, cache error) —
//! failures never escape [`Cluster::search`] as panics. Each shard carries
//! a health state machine (`Healthy → Suspect → Down`) with a circuit
//! breaker: after [`ResilienceConfig::trip_threshold`] consecutive failures
//! the shard is `Down` and skipped, then probed half-open after two
//! searches (`shard::COOLDOWN_SEARCHES`) and re-admitted on the first
//! success. Results from a partial scatter are flagged `degraded`
//! with `shards_ok`/`shards_failed`/`shards_skipped` quorum metadata.
//! [`Cluster::heal`] rebuilds every unhealthy shard from the feature store,
//! quarantining entries whose stored bytes are lost or corrupt. Fault
//! injection is deterministic and seeded — see [`crate::faults`].
//!
//! # Durability & replay-based heal (DESIGN.md §12)
//!
//! The feature store is durable ([`ClusterConfig::store`]): every write
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
//! * `shard` — one container: engine, breaker, per-shard series, and how a
//!   worker runs a group of its legs;
//! * `pool` — the leg workers, the queue they take legs and help jobs from,
//!   and the chunk handoff a help job runs;
//! * `placement` — id → shard ownership, the fault-wrapped store, CRUD;
//! * `verify` — one-to-one verification, its sweep shared on the pool;
//! * `search` — the three phases of [`Cluster::search_traced`];
//! * `heal` — `recover_container`, `heal` and their reports.
//!
//! [`Engine::remove_reference`]: texid_core::Engine::remove_reference
//! [`Engine::replace_reference`]: texid_core::Engine::replace_reference
//! [`SearchReport::perturbed`]: texid_core::SearchReport::perturbed

mod heal;
mod placement;
mod pool;
mod search;
mod shard;
#[cfg(test)]
mod tests;
mod verify;

pub use heal::{HealReport, Quarantine, QuarantineReason, RecoveryReport, ShardReplay};
pub use search::ClusterSearchResult;
pub use shard::{ShardHealth, ShardStatus};
pub use verify::VerifyReport;

use crate::faults::{Backoff, FaultKind, FaultOp, FaultPlan};
use crate::kv::KvStore;
use parking_lot::Mutex;
use pool::LegPool;
use shard::Shard;
use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use texid_cache::CacheError;
use texid_core::{CoalesceConfig, EngineConfig, SearchReport};
use texid_obs::{
    Counter, DriftSentry, DriftStatus, EventRing, Gauge, Histogram, Registry, SloEngine, SloSpec,
    SloStatus, TraceContext, TraceRing, DEFAULT_EVENT_RING_CAPACITY, DEFAULT_TRACE_RING_CAPACITY,
    DRIFT_STAGES,
};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_store::{DurableLog, LogConfig, Volume, WalStats};

// What `tests.rs` — the old single file's suite, moved unedited — reaches
// through `super::*` beyond the above.
#[cfg(test)]
use {
    crate::faults::Stage,
    crate::wire,
    std::sync::atomic::Ordering,
    texid_core::Engine,
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
    /// The sim-clock stage histograms ([`DRIFT_STAGES`]: each stage, then
    /// the total), in [`SearchReport::sim_series`] order. Each answered leg
    /// observes its *measured* (perturbation-inclusive) values once, and a
    /// traced search stamps the exemplar in the same call, so a `/metrics`
    /// bucket links to the trace of a query it counted.
    stage_sim: [Histogram; 6],
    probe: Histogram,
    /// The wall-clock `encode` stage: one observation per search, around
    /// its one `EncodedQuery::new`.
    encode: Histogram,
    engine_searches: Counter,
    images_compared: Counter,
    ivf_cells_probed: Counter,
    ivf_batches_pruned: Counter,
    ivf_batches_swept: Counter,
    ivf_prune_ratio: Gauge,
}

impl Telemetry {
    fn register(reg: &Registry) -> Telemetry {
        // Constant info gauge: which SIMD kernel backend this process
        // dispatched to (scalar / avx2 / avx512). Registered here because
        // `texid-obs` deliberately has no linalg dependency.
        reg.gauge(
            "texid_kernel_backend_info",
            "Active SIMD kernel backend (constant 1; the backend is the label).",
            &[("backend", texid_linalg::active_backend().name())],
        )
        .set(1.0);
        texid_obs::touch_process_metrics(reg);
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
            stage_sim: DRIFT_STAGES.map(|stage| reg.stage_duration(stage, "sim")),
            probe: reg.stage_duration("probe", "sim"),
            encode: reg.stage_duration("encode", "wall"),
            engine_searches: reg.counter(
                "texid_engine_searches",
                "Single-node search passes completed.",
                &[],
            ),
            images_compared: reg.counter(
                "texid_engine_images_compared",
                "Reference images compared across all searches.",
                &[],
            ),
            ivf_cells_probed: reg.counter(
                "texid_ivf_cells_probed",
                "IVF cells probed across all searches (nprobe per probed search).",
                &[],
            ),
            ivf_batches_pruned: reg.counter(
                "texid_ivf_batches_pruned",
                "Reference batches the IVF probe let searches skip entirely.",
                &[],
            ),
            ivf_batches_swept: reg.counter(
                "texid_ivf_batches_swept",
                "Reference batches searches actually swept with the exact kernels.",
                &[],
            ),
            ivf_prune_ratio: reg.gauge(
                "texid_ivf_prune_ratio",
                "Fraction of cached batches the most recent search pruned \
                 (0 on exhaustive searches).",
                &[],
            ),
        }
    }

    /// Project one answered leg's measured report into the per-leg series:
    /// the stage histograms (exemplars stamped under `trace_id`), the probe
    /// histogram, and the engine and IVF counters.
    fn observe_leg(&self, measured: &SearchReport, trace_id: Option<u128>) {
        for (series, us) in self.stage_sim.iter().zip(measured.sim_series()) {
            series.observe_traced(us, trace_id);
        }
        self.probe.observe(measured.probe_us);
        self.engine_searches.inc();
        self.images_compared.add(measured.images as u64);
        let swept = (measured.device_batches + measured.host_batches) as u64;
        self.ivf_cells_probed.add(measured.cells_probed as u64);
        self.ivf_batches_pruned.add(measured.batches_pruned as u64);
        self.ivf_batches_swept.add(swept);
    }
}

/// Degraded-mode tuning. Transient faults are retried on the fixed
/// [`Backoff`] schedule.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Consecutive failures before a shard's breaker trips to `Down`.
    pub trip_threshold: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { trip_threshold: 3 }
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
    /// Per-shard query coalescing: at most `max_batch` queued legs of one
    /// shard sweep the cache together (`<= 1`: each alone). The cluster
    /// forms groups from its queues and does not read `window`.
    pub coalesce: CoalesceConfig,
    /// Feature-store durability (DESIGN.md §12): every write is journaled
    /// to an in-memory WAL + snapshot pair compacted every
    /// `snapshot_every` writes, so `heal()` replays the media instead of
    /// trusting whatever survived in the map.
    pub store: LogConfig,
}

/// The serving objectives every cluster tracks (burn rates exposed as
/// `texid_slo_*` metrics and `GET /slo`). A search's latency is its
/// simulated makespan, the slowest shard's `total_us`.
fn objectives() -> Vec<SloSpec> {
    vec![
        // 99% of searches under 100 ms simulated makespan.
        SloSpec::latency("search-latency", 100_000.0, 0.99),
        // 99.9% of searches reach at least one shard.
        SloSpec::availability("search-availability", 0.999),
    ]
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            containers: 14,
            engine: EngineConfig::default(),
            resilience: ResilienceConfig::default(),
            coalesce: CoalesceConfig::default(),
            store: LogConfig::default(),
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
    /// A descriptor component the storage precision cannot hold: NaN or
    /// `±∞`, or under F16 one whose `|x · scale|` exceeds 65 504 (carries
    /// the first such component).
    Unstorable(f32),
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
            ClusterError::Unstorable(x) => write!(
                f,
                "descriptor component {x} cannot be stored: components must be finite, \
                 and within ±65504 once scaled for f16"
            ),
            ClusterError::Unavailable(what) => write!(f, "{what} unavailable"),
            ClusterError::Timeout(op) => write!(f, "retries exhausted: {op}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Point-in-time cluster statistics.
///
/// `total_searches`, `degraded_searches` and `retries` are the samples of
/// the cluster's registry counters (`texid_cluster_{searches,
/// degraded_searches, retries}_total`), read, not kept. Every cluster owns
/// its registry ([`Cluster::registry`]), so these counts are its own.
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
    /// Searches served (`texid_cluster_searches_total`).
    pub total_searches: u64,
    /// Searches that returned partial (degraded) results
    /// (`texid_cluster_degraded_searches_total`).
    pub degraded_searches: u64,
    /// Transient-fault retries performed (`texid_cluster_retries_total`).
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
    /// Shared with the leg pool's workers.
    shards: Vec<Arc<Shard>>,
    /// The workers that run every search's shard legs; stopped and joined
    /// when the cluster drops.
    pool: LegPool,
    store: KvStore,
    /// Live id -> the shard whose engine indexes it (under that same id).
    /// Changed only under that shard's write lock (`Cluster::lock_owner`),
    /// so the map and the engines cannot disagree about who owns an id.
    shard_of: Mutex<HashMap<u64, usize>>,
    next_rr: AtomicUsize,
    fault_plan: Option<FaultPlan>,
    /// Where the cluster, its shards' engines and caches, and the HTTP
    /// server that serves it count; `/metrics` renders it.
    registry: Registry,
    /// Every span of the cluster's requests; shared with its shards.
    ring: Arc<TraceRing>,
    /// One wide event per search (`/events`).
    events: EventRing,
    telemetry: Telemetry,
    drift: DriftSentry,
    slo: SloEngine,
}

impl Cluster {
    /// Bring up `cfg.containers` engines (no fault injection).
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster::with_faults(cfg, None)
    }

    /// Bring up the cluster with an optional seeded fault plan. The
    /// cluster owns its telemetry — a [`Registry`], a trace ring and an
    /// event ring — so what [`ClusterStats`], [`ShardStatus`] and the REST
    /// surfaces report is this cluster's alone, whatever else the process
    /// runs.
    pub fn with_faults(cfg: ClusterConfig, fault_plan: Option<FaultPlan>) -> Cluster {
        assert!(cfg.containers >= 1, "need at least one container");
        let registry = Registry::new();
        let ring = Arc::new(TraceRing::new(DEFAULT_TRACE_RING_CAPACITY, &registry));
        let events = EventRing::new(DEFAULT_EVENT_RING_CAPACITY, &registry);
        let shards: Vec<_> =
            (0..cfg.containers).map(|i| Arc::new(Shard::new(i, &cfg, &registry, &ring))).collect();
        let pool = LegPool::new(&shards, cfg.coalesce.max_batch);
        let telemetry = Telemetry::register(&registry);
        let drift = DriftSentry::register(&registry);
        let slo = SloEngine::register(objectives(), &registry);
        let store = KvStore::durable(DurableLog::new(Volume::in_memory(), cfg.store));
        Cluster {
            cfg,
            shards,
            pool,
            store,
            shard_of: Mutex::new(HashMap::new()),
            next_rr: AtomicUsize::new(0),
            fault_plan,
            registry,
            ring,
            events,
            telemetry,
            drift,
            slo,
        }
    }

    /// The single accounting point for a transient-fault retry: one
    /// increment of `texid_cluster_retries`, which `/stats` and `/metrics`
    /// both read, exactly once per attempt, no matter which operation
    /// (store read/write, search leg) was retried. When the retry happens
    /// inside a traced search, `leg` carries the shard leg's context and the
    /// same single point also records exactly one `retry` span — counter
    /// and span tree cannot drift.
    fn note_retry(&self, leg: Option<(TraceContext, usize)>) {
        self.telemetry.retries.inc();
        if let Some((ctx, shard)) = leg {
            self.ring.mark(&ctx, "retry", vec![("shard".to_string(), shard.to_string())]);
        }
    }

    /// The fault plan's decision for `op` — the one place the cluster takes
    /// one, and the one loop over transient faults. A transient is retried
    /// up to the backoff budget, each retry counted once by
    /// [`Cluster::note_retry`] (under `leg`'s trace context, if any); the
    /// decision that ends the loop comes back with the retries it took, and
    /// is still `Transient` when the budget ran out. Without a plan,
    /// nothing is injected.
    fn decide(
        &self,
        op: FaultOp<'_>,
        leg: Option<(TraceContext, usize)>,
    ) -> (Option<FaultKind>, u32) {
        let Some(plan) = &self.fault_plan else { return (None, 0) };
        let budget = Backoff::MAX_RETRIES;
        let mut retries = 0;
        loop {
            let fault = plan.decide(FaultOp { attempt: retries, ..op });
            if fault != Some(FaultKind::Transient) || retries == budget {
                return (fault, retries);
            }
            retries += 1;
            self.note_retry(leg);
        }
    }

    /// Faults the active plan has injected (0 without one).
    fn faults_injected(&self) -> u64 {
        self.fault_plan.as_ref().map_or(0, FaultPlan::injected)
    }

    /// Configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The registry the cluster and everything it runs count into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The ring holding the spans of the cluster's traced requests.
    pub fn trace_ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The flight recorder: one wide event per search.
    pub fn events(&self) -> &EventRing {
        &self.events
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
        self.shards.iter().map(|shard| shard.status()).collect()
    }

    /// The store's WAL counters, published to the `texid_wal_*` gauges on
    /// the way, together with `texid_faults_injected` — the gauges whose
    /// state lives elsewhere, each with this one writer. The `/metrics`
    /// scrape calls this, as `/stats` and `/health` do, so the gauges are
    /// current whoever reads them, whichever operation injected a fault.
    pub fn refresh_gauges(&self) -> WalStats {
        self.telemetry.faults_injected.set(self.faults_injected() as f64);
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
        let wal = Some(self.refresh_gauges());
        ClusterStats {
            containers: self.shards.len(),
            textures: self.len(),
            store_bytes: self.store.used_bytes(),
            capacity_images: per_container * self.shards.len() as u64,
            shards_healthy: healthy,
            shards_suspect: suspect,
            shards_down: down,
            total_searches: self.telemetry.searches.get(),
            degraded_searches: self.telemetry.degraded.get(),
            retries: self.telemetry.retries.get(),
            faults_injected: self.faults_injected(),
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
