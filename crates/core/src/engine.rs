//! The single-node (one GPU) texture search engine.
//!
//! References are ingested as feature matrices, narrowed to the configured
//! precision and packed, as they arrive, into the panels of the one **open
//! batch**; at `batch_size` references (§5.2), or at [`Engine::flush`], that
//! batch moves into the hybrid cache (§6.1). A search matches the query
//! against **every** cached batch: device-resident batches go straight to
//! the matcher; host-resident batches are charged an H2D transfer first.
//! Multi-stream scheduling (§6.2) is applied as the calibrated throughput
//! model from `texid_gpu::streams`.
//!
//! A batch, open or sealed, is resident once, as the kernel's panels: a
//! reference is scattered into them by [`Engine::add_reference`] and never
//! copied again (a seal is a move), export reads columns back out of them,
//! and `MatchConfig::fused` decides how a search scores them, never how they
//! are laid out.
//!
//! The cache is not append-only: [`Engine::remove_reference`] deletes a
//! reference where it lies and [`Engine::replace_reference`] overwrites one
//! in its slot, so the sweep, the report and the cache's byte accounting
//! follow the live set however often an id was rewritten.
//!
//! A search ([`Engine::search_encoded`]) is one pass over the cache in
//! batch order, accumulating each query's [`SearchReport`] and ranking in
//! place; the query arrives as an [`EncodedQuery`], narrowed and packed once
//! by whoever starts the search. Per batch the pass prices the device work
//! ([`texid_knn::BatchWork`]) through the analytic cost model and, if the
//! batch has panels, scores it on the host: no simulated device is driven,
//! so `&self` searches share only atomics.
//!
//! Two kinds of reference, one ingest path (a batch holds one kind):
//! * [`Engine::add_reference`] — real features (accuracy experiments,
//!   examples, the distributed system);
//! * [`Engine::add_reference_shape`] — shape-only phantom entries for
//!   paper-scale *timing* experiments (a million 384×128 FP16 matrices
//!   would not fit in test-host RAM, and their values do not affect the
//!   cost model): the same batch without panels, priced exactly as a real
//!   one and never scored. A timing-only engine is one fed phantoms.

use std::borrow::Cow;
use std::collections::BTreeSet;

use texid_cache::{CacheConfig, CacheError, CacheStats, HybridCache, Payload, Tier};
use texid_gpu::{cost, streams, DeviceSpec, Precision};
use texid_knn::ivf::{pool_column_slice, IvfIndex};
use texid_knn::{score_batch_packed, Algorithm, BatchWork, FeatureBlock, MatchConfig, PackedBlock};
use texid_linalg::kernel::{PackedA, PackedB};
use texid_obs::{Counter, Gauge, Histogram, Span, Stage, DRIFT_STAGES};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_sift::FeatureMatrix;

/// Cached telemetry handles, registered once per engine against the global
/// registry (registration takes a mutex; the handles are lock-free).
/// Simulated stage durations carry `clock="sim"`.
struct Telemetry {
    probe: Histogram,
    /// Sim-clock series, in [`SearchReport::sim_series`] order.
    sim: [Histogram; 6],
    searches: Counter,
    images: Counter,
    ivf_cells_probed: Counter,
    ivf_batches_pruned: Counter,
    ivf_batches_swept: Counter,
    ivf_prune_ratio: Gauge,
}

impl Telemetry {
    fn register() -> Telemetry {
        let reg = texid_obs::global();
        // Constant info gauge: which SIMD kernel backend this process
        // dispatched to (scalar / avx2 / avx512). Registered from the engine
        // because `texid-obs` deliberately has no linalg dependency.
        reg.gauge(
            "texid_kernel_backend_info",
            "Active SIMD kernel backend (constant 1; the backend is the label).",
            &[("backend", texid_linalg::active_backend().name())],
        )
        .set(1.0);
        Telemetry {
            probe: reg.stage_duration("probe", "sim"),
            sim: DRIFT_STAGES.map(|stage| reg.stage_duration(stage, "sim")),
            searches: reg.counter(
                "texid_engine_searches",
                "Single-node search passes completed.",
                &[],
            ),
            images: reg.counter(
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

    /// Record one search's per-stage accounting.
    fn observe(&self, report: &SearchReport) {
        self.probe.observe(report.probe_us);
        for (series, us) in self.sim.iter().zip(report.sim_series()) {
            series.observe(us);
        }
        self.searches.inc();
        self.images.add(report.images as u64);
        let swept = (report.device_batches + report.host_batches) as u64;
        self.ivf_cells_probed.add(report.cells_probed as u64);
        self.ivf_batches_pruned.add(report.batches_pruned as u64);
        self.ivf_batches_swept.add(swept);
        let total_batches = report.batches_pruned as u64 + swept;
        if total_batches > 0 {
            self.ivf_prune_ratio.set(report.batches_pruned as f64 / total_batches as f64);
        }
    }
}

/// Engine configuration: the paper's co-optimization levers in one place.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulated device.
    pub device: DeviceSpec,
    /// Matching algorithm / precision.
    pub matching: MatchConfig,
    /// Features kept per reference image (the paper's `m`, 384 optimal).
    pub m_ref: usize,
    /// Features expected per query image (the paper's `n`, 768 optimal).
    pub n_query: usize,
    /// References per batch (§5.2; 256 in the paper's optimal setup).
    pub batch_size: usize,
    /// Simulated CUDA streams (§6.2): the modeled overlap factor
    /// `streams::stream_time_factor` applies to a search's serial time. No
    /// thread is started per stream; the engine runs on its caller's.
    pub streams: usize,
    /// Hybrid cache sizing.
    pub cache: CacheConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            device: DeviceSpec::tesla_p100(),
            matching: MatchConfig::default(),
            m_ref: 384,
            n_query: 768,
            batch_size: 256,
            streams: 8,
            cache: CacheConfig::default(),
        }
    }
}

/// One reference batch, open or cached: its ids, its shape, and — for real
/// references — the features as the kernel's panels, their only resident
/// form. A phantom (timing-only) batch is the same entry without panels.
struct RefBatch {
    ids: Vec<u64>,
    m_per_ref: usize,
    /// Descriptor dimension.
    rows: usize,
    /// Storage precision: what the simulated device holds per element.
    precision: Precision,
    /// Each reference packed as it arrived, dropped with the batch.
    /// Host-side form only: the panels (f16 where the kernel widens in
    /// register, f32 on the scalar backend) are not the simulated device
    /// footprint ([`RefBatch::size_bytes`]).
    panels: Option<PackedBlock<PackedA>>,
    /// The references' pooled descriptors, `rows` floats each in `ids`
    /// order (IVF on): what the quantizer trains on and posts the batch by.
    pools: Vec<f32>,
}

impl RefBatch {
    fn empty(cfg: &EngineConfig) -> RefBatch {
        RefBatch {
            ids: Vec::new(),
            m_per_ref: cfg.m_ref,
            rows: DESCRIPTOR_DIM,
            precision: cfg.matching.precision,
            panels: None,
            pools: Vec::new(),
        }
    }

    /// The pooled descriptors as the quantizer takes them, one column per
    /// reference (no columns with the IVF off, or in a phantom batch).
    fn pooled(&self) -> texid_linalg::Mat {
        let cols = self.pools.len() / self.rows.max(1);
        texid_linalg::Mat::from_col_major(self.rows, cols, self.pools.clone())
    }

    /// Delete reference `i` where it lies: the last reference's id, panel
    /// columns and pool move into its slot.
    fn swap_remove(&mut self, i: usize) {
        self.ids.swap_remove(i);
        if let Some(panels) = &mut self.panels {
            panels.swap_remove_cols(i * self.m_per_ref, self.m_per_ref);
        }
        if let Some(last) = self.pools.len().checked_sub(self.rows) {
            self.pools.copy_within(last.., i * self.rows);
            self.pools.truncate(last);
        }
    }

    /// Overwrite reference `i`'s panel columns with `block`'s, and its pool;
    /// `false`, and nothing done, in a phantom batch.
    fn overwrite(&mut self, i: usize, block: &FeatureBlock, pool: Option<&[f32]>) -> bool {
        let Some(panels) = &mut self.panels else {
            return false;
        };
        panels.write_cols(i * self.m_per_ref, block);
        if let Some(pool) = pool {
            self.pools[i * self.rows..][..self.rows].copy_from_slice(pool);
        }
        true
    }
}

impl Payload for RefBatch {
    fn size_bytes(&self) -> u64 {
        (self.ids.len() * self.m_per_ref * self.rows * self.precision.bytes()) as u64
    }
}

/// Ranked search output.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// `(image id, good-match score)`, best first. Phantom references
    /// never rank.
    pub ranked: Vec<(u64, usize)>,
    /// Performance accounting for this search.
    pub report: SearchReport,
}

impl SearchResult {
    /// The identified image, if any cleared `min_matches`.
    pub fn best(&self, min_matches: usize) -> Option<(u64, usize)> {
        self.ranked.first().filter(|(_, s)| *s >= min_matches).copied()
    }
}

/// Timing/throughput accounting for one search pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchReport {
    /// Reference images compared.
    pub images: usize,
    /// Batches matched from device residency.
    pub device_batches: usize,
    /// Batches streamed from host memory.
    pub host_batches: usize,
    /// Simulated µs of H2D reference streaming.
    pub h2d_us: f64,
    /// Simulated µs of GEMM work.
    pub gemm_us: f64,
    /// Simulated µs of top-2 scanning.
    pub sort_us: f64,
    /// Simulated µs of D2H result copies.
    pub d2h_us: f64,
    /// Simulated µs of CPU post-processing.
    pub post_us: f64,
    /// Serial (single-stream) simulated total, µs.
    pub serial_total_us: f64,
    /// Wall total after the multi-stream model, µs.
    pub total_us: f64,
    /// Queries that shared this cache traversal (1 = uncoalesced search;
    /// Q > 1 means each host batch's H2D cost was charged once and split
    /// `1/Q` into each query's `h2d_us`).
    pub coalesced_queries: usize,
    /// Simulated µs of IVF centroid scoring + cell selection (0 on the
    /// exhaustive path, which runs no probe at all).
    pub probe_us: f64,
    /// IVF cells this query probed (0 on the exhaustive path).
    pub cells_probed: usize,
    /// Reference batches the IVF probe let this query skip.
    pub batches_pruned: usize,
}

impl SearchReport {
    /// Simulated throughput in image comparisons per second.
    pub fn images_per_second(&self) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        self.images as f64 / self.total_us * 1e6
    }

    /// Per-image simulated time, µs.
    pub fn per_image_us(&self) -> f64 {
        if self.images == 0 {
            return 0.0;
        }
        self.total_us / self.images as f64
    }

    /// The field holding `stage`'s simulated µs — the one [`Stage`] ↔ field
    /// mapping of this record.
    pub fn stage_us_mut(&mut self, stage: Stage) -> &mut f64 {
        match stage {
            Stage::H2d => &mut self.h2d_us,
            Stage::Gemm => &mut self.gemm_us,
            Stage::Top2 => &mut self.sort_us,
            Stage::D2h => &mut self.d2h_us,
            Stage::Post => &mut self.post_us,
        }
    }

    /// `stage`'s simulated µs (read through a copy, so the mapping above
    /// stays the only one).
    pub fn stage_us(&self, stage: Stage) -> f64 {
        *{ *self }.stage_us_mut(stage)
    }

    /// The sim-clock series every per-stage surface reports, in
    /// [`DRIFT_STAGES`] order: each [`Stage`]'s µs, then `total_us`.
    pub fn sim_series(&self) -> [f64; 6] {
        let [h2d, gemm, top2, d2h, post] = Stage::ALL.map(|stage| self.stage_us(stage));
        [h2d, gemm, top2, d2h, post, self.total_us]
    }

    /// What a shard *measures* when this report is the model's prediction
    /// and the leg ran perturbed: one stage stalled by a factor (the extra
    /// time lands in both totals), the whole leg straggling by a factor,
    /// retry backoff added to the wall total.
    pub fn perturbed(
        mut self,
        stage_stall: Option<(Stage, f64)>,
        straggle: Option<f64>,
        backoff_us: f64,
    ) -> SearchReport {
        if let Some((stage, factor)) = stage_stall {
            let slot = self.stage_us_mut(stage);
            let delta = *slot * (factor - 1.0);
            *slot *= factor;
            self.serial_total_us += delta;
            self.total_us += delta;
        }
        if let Some(factor) = straggle {
            self.total_us *= factor;
            self.serial_total_us *= factor;
        }
        self.total_us += backoff_us;
        self
    }
}

/// One query, encoded once for a search: truncated to `n_query` columns
/// (asymmetric n), narrowed to storage precision and packed into the
/// kernel's panels. Every batch of a pass reads the same panels, and so can
/// every engine of one configuration: a cluster hands each shard's leg a
/// shared reference.
pub struct EncodedQuery {
    packed: PackedBlock<PackedB>,
    /// The pooled descriptor an IVF probe routes on (pooled before
    /// quantization, like the references'); `None` if `cfg` cannot prune.
    pooled: Option<Vec<f32>>,
}

impl EncodedQuery {
    /// Encode `query` for engines configured by `cfg`. The narrow + pack is
    /// the `encode` wall-clock stage, observed once per call.
    pub fn new(cfg: &EngineConfig, query: &FeatureMatrix) -> EncodedQuery {
        let matching = &cfg.matching;
        let n = cfg.n_query.min(query.len());
        let data = &query.mat.as_slice()[..query.dim() * n];
        let packed = {
            let _span = Span::enter("encode");
            FeatureBlock::encode(query.dim(), n, data, matching.precision, matching.scale)
                .pack_query(matching.kernel_backend())
        };
        let pooled = matching.ivf.prunes().then(|| pool_column_slice(query.dim(), data));
        EncodedQuery { packed, pooled }
    }
}

/// One reference, encoded once for ingest: its descriptors in storage
/// precision — every column, as the feature store keeps them; the engine
/// truncates or zero-pads to `m_ref` as it packs — and, IVF on, the pooled
/// descriptor the quantizer routes it by.
pub struct EncodedReference {
    block: FeatureBlock,
    pool: Option<Vec<f32>>,
}

impl EncodedReference {
    /// Narrow `features` to `cfg`'s storage precision, pooling (IVF on) the
    /// full-precision descriptors first.
    pub fn new(cfg: &EngineConfig, features: &FeatureMatrix) -> EncodedReference {
        let (matching, mat) = (&cfg.matching, &features.mat);
        let (d, cols) = (mat.rows(), mat.cols());
        let block = FeatureBlock::encode(d, cols, mat.as_slice(), matching.precision, matching.scale);
        let pool = matching.ivf.enabled.then(|| Self::pool(cfg, mat));
        EncodedReference { block, pool }
    }

    /// A block already narrowed (a stored reference), in `cfg`'s storage
    /// precision ([`FeatureBlock::into_precision`]: an f32 block written by
    /// an older build is narrowed once). The pool, IVF on, is taken from
    /// the dequantized block: the full-precision descriptors are gone.
    pub fn from_block(cfg: &EngineConfig, block: FeatureBlock) -> EncodedReference {
        let matching = &cfg.matching;
        let block = block.into_precision(matching.precision, matching.scale);
        let pool = matching.ivf.enabled.then(|| Self::pool(cfg, &block.to_f32()));
        EncodedReference { block, pool }
    }

    /// The pooled descriptor of the columns the engine keeps (`m_ref` at
    /// most; padding would be skipped anyway).
    fn pool(cfg: &EngineConfig, mat: &texid_linalg::Mat) -> Vec<f32> {
        let d = mat.rows();
        pool_column_slice(d, &mat.as_slice()[..d * cfg.m_ref.min(mat.cols())])
    }

    /// The descriptors in storage precision.
    pub fn block(&self) -> &FeatureBlock {
        &self.block
    }

    /// The block as a batch's panels take it: exactly `m_ref` columns.
    /// Features beyond `m_ref` are truncated (they arrive sorted by
    /// detection response, so this is exactly the paper's asymmetric top-m
    /// selection). Batching requires uniform per-reference column counts
    /// (the blocked top-2 scan attributes rows by fixed stride), so a
    /// reference that yielded fewer is padded with zero columns: a zero
    /// column is at squared distance 2 from every unit-norm query feature —
    /// never nearer than a genuine match — so padding is invisible to the
    /// ratio test (and to the pool).
    fn fitted(&self, m_ref: usize) -> Cow<'_, FeatureBlock> {
        self.block.fit_cols(m_ref)
    }
}

/// The single-GPU search engine.
///
/// ```
/// use texid_core::{Engine, EngineConfig};
/// use texid_sift::FeatureMatrix;
/// use texid_linalg::Mat;
///
/// // Index three references (synthetic unit-norm descriptors for brevity;
/// // production code feeds `texid_sift::extract` output).
/// let mut engine = Engine::new(EngineConfig { batch_size: 2, ..EngineConfig::default() });
/// let feat = |seed: u64| {
///     let mut m = Mat::from_fn(128, 32, |r, c| ((seed + 1) as f32 * (r * 31 + c * 7 + 1) as f32).sin().abs() + 1e-3);
///     for c in 0..32 {
///         let n: f32 = m.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
///         for v in m.col_mut(c) { *v /= n; }
///     }
///     FeatureMatrix::from_mat(m, true)
/// };
/// for id in 0..3u64 {
///     engine.add_reference(id, &feat(id)).unwrap();
/// }
/// engine.flush().unwrap();
///
/// // Searching with reference 1's own features identifies it.
/// let result = engine.search(&feat(1));
/// assert_eq!(result.ranked[0].0, 1);
/// assert!(result.report.images_per_second() > 0.0);
/// ```
pub struct Engine {
    cfg: EngineConfig,
    cache: HybridCache<RefBatch>,
    /// The batch references are added to; sealed into `cache` when full or
    /// flushed. No search sees it.
    open: RefBatch,
    next_batch: u64,
    references: usize,
    /// Trained coarse quantizer (None until enough pooled descriptors have
    /// been ingested with `matching.ivf.enabled`).
    ivf: Option<IvfIndex>,
    telemetry: Telemetry,
}

impl Engine {
    /// Bring up a device and an empty index.
    ///
    /// # Panics
    /// Panics unless the configuration batches Algorithm 2 (the only one
    /// that batches) with at least one reference and one stream.
    pub fn new(cfg: EngineConfig) -> Engine {
        assert_eq!(cfg.matching.algorithm, Algorithm::RootSiftTop2, "the engine runs Algorithm 2");
        assert!(cfg.batch_size >= 1, "batch size must be positive");
        assert!(cfg.streams >= 1, "need at least one stream");
        let cache = HybridCache::new(cfg.cache, &cfg.device);
        Engine {
            open: RefBatch::empty(&cfg),
            cfg,
            cache,
            next_batch: 0,
            references: 0,
            ivf: None,
            telemetry: Telemetry::register(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Number of indexed references (including still-pending ones).
    pub fn len(&self) -> usize {
        self.references
    }

    /// True when no references are indexed.
    pub fn is_empty(&self) -> bool {
        self.references == 0
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Host bytes of every reference panel the engine holds, open batch
    /// included: the resident form of its real references (2 bytes per
    /// element for F16 on a SIMD backend, 4 otherwise).
    pub fn panel_bytes(&self) -> usize {
        let cached = self.cache.iter().filter_map(|(_, batch, _)| batch.panels.as_ref());
        self.open.panels.iter().chain(cached).map(PackedBlock::panel_bytes).sum()
    }

    /// Device bytes the cache holds (0 for an engine with nothing sealed).
    pub fn device_bytes(&self) -> u64 {
        self.cache.device_used_bytes()
    }

    /// The one ingest path: add a reference — real or phantom (`None`) — to
    /// the open batch, and seal the batch if that filled it. A batch has
    /// panels for all of its references or for none.
    fn push(&mut self, id: u64, real: Option<&EncodedReference>) -> Result<(), CacheError> {
        let open = &mut self.open;
        assert!(
            open.ids.is_empty() || open.panels.is_some() == real.is_some(),
            "cannot mix real and phantom references"
        );
        match real {
            None => (open.rows, open.panels) = (DESCRIPTOR_DIM, None),
            Some(reference) => {
                let block = reference.fitted(self.cfg.m_ref);
                open.rows = block.rows();
                match &mut open.panels {
                    Some(panels) => panels.append_cols(&block),
                    None => open.panels = Some(block.pack_refs(self.cfg.matching.kernel_backend())),
                }
                open.pools.extend(reference.pool.iter().flatten());
            }
        }
        open.ids.push(id);
        self.references += 1;
        if self.open.ids.len() >= self.cfg.batch_size {
            self.seal()?;
        }
        Ok(())
    }

    /// Index a reference image's features: [`EncodedReference::new`], then
    /// [`Engine::add_encoded`].
    ///
    /// # Errors
    /// Propagates cache exhaustion.
    ///
    /// # Panics
    /// Panics if phantom references are pending (a batch holds one kind).
    pub fn add_reference(&mut self, id: u64, features: &FeatureMatrix) -> Result<(), CacheError> {
        self.add_encoded(id, &EncodedReference::new(&self.cfg, features))
    }

    /// Index an encoded reference: truncated or zero-padded to `m_ref`
    /// columns and scattered straight into the open batch's panels, where
    /// it stays.
    ///
    /// # Errors
    /// Propagates cache exhaustion.
    ///
    /// # Panics
    /// Panics if phantom references are pending (a batch holds one kind),
    /// or if `reference` was encoded for another precision or scale.
    pub fn add_encoded(&mut self, id: u64, reference: &EncodedReference) -> Result<(), CacheError> {
        self.push(id, Some(reference))
    }

    /// Index a phantom reference (shape only) for timing experiments.
    ///
    /// # Errors
    /// Propagates cache exhaustion.
    ///
    /// # Panics
    /// Panics if real references are pending (a batch holds one kind).
    pub fn add_reference_shape(&mut self, id: u64) -> Result<(), CacheError> {
        self.push(id, None)
    }

    /// Where `id` lies — the batch (`None`: the open one), the position in
    /// it, and how many it holds: the open batch first, then a walk over the
    /// cached batches' id lists, 8 bytes per live reference.
    fn locate(&self, id: u64) -> Option<(Option<u64>, usize, usize)> {
        let of = |b: &RefBatch| Some((b.ids.iter().position(|&p| p == id)?, b.ids.len()));
        of(&self.open).map(|(i, len)| (None, i, len)).or_else(|| {
            let mut cached = self.cache.iter();
            cached.find_map(|(id, batch, _)| of(batch).map(|(i, len)| (Some(id), i, len)))
        })
    }

    /// Edit a batch where it lies; a cached one is re-accounted where it
    /// sits — same FIFO slot and tier — for whatever size the edit leaves it.
    fn edit(&mut self, batch: Option<u64>, edit: impl FnOnce(&mut RefBatch)) {
        match batch {
            None => edit(&mut self.open),
            Some(id) => assert!(self.cache.edit(id, edit), "batch {id} is cached"),
        }
    }

    /// Delete a reference **in place**; returns whether `id` was indexed.
    /// Where the same id was added more than once, one entry goes per call.
    ///
    /// The reference is swap-removed from its batch: one reference's worth
    /// of bytes moves inside the batch's panels, nothing is allocated. A
    /// sealed batch that empties leaves the cache and the IVF postings; one
    /// that only shrinks keeps its postings (see [`IvfIndex::remove_batch`]).
    ///
    /// Removal cannot change a ranking among the survivors: a score is a
    /// function of one reference's columns and the query, and ties break on
    /// the id, not on the position.
    pub fn remove_reference(&mut self, id: u64) -> bool {
        let Some((batch, i, len)) = self.locate(id) else {
            return false;
        };
        match batch {
            Some(emptied) if len == 1 => {
                self.cache.remove(emptied);
                if let Some(ivf) = &mut self.ivf {
                    ivf.remove_batch(emptied);
                }
            }
            _ => self.edit(batch, |b| b.swap_remove(i)),
        }
        self.references -= 1;
        true
    }

    /// Replace reference `id`'s features **in the slot it occupies**, open
    /// or sealed; returns whether `id` was indexed (nothing happens
    /// otherwise). Every reference has one shape, so the new version's
    /// columns overwrite the old one's: same batch, same position, same
    /// bytes, same cache accounting. With the IVF trained, a sealed batch is
    /// also posted under the new version's cell (the old posting stays: a
    /// superset, as after a delete).
    pub fn replace_reference(&mut self, id: u64, features: &FeatureMatrix) -> bool {
        self.replace_encoded(id, &EncodedReference::new(&self.cfg, features))
    }

    /// [`Engine::replace_reference`] with an encoded reference.
    ///
    /// # Panics
    /// Panics if `reference` was encoded for another precision or scale.
    pub fn replace_encoded(&mut self, id: u64, reference: &EncodedReference) -> bool {
        let Some((batch, i, _)) = self.locate(id) else {
            return false;
        };
        let block = reference.fitted(self.cfg.m_ref);
        let pool = reference.pool.as_deref();
        let mut real = false;
        self.edit(batch, |b| real = b.overwrite(i, &block, pool));
        if let (true, Some(batch), Some(pool), Some(ivf)) = (real, batch, pool, &mut self.ivf) {
            ivf.add_batch(batch, &texid_linalg::Mat::from_col_major(pool.len(), 1, pool.to_vec()));
        }
        true
    }

    /// Seal any partial batch (call after the last `add_reference`).
    ///
    /// # Errors
    /// Propagates cache exhaustion.
    pub fn flush(&mut self) -> Result<(), CacheError> {
        if self.has_pending() {
            self.seal()?;
        }
        Ok(())
    }

    /// Move the open batch into the cache as it stands — its panels were
    /// built as its references arrived — and hand its pools to the
    /// quantizer. A batch the cache refuses is dropped, its references with
    /// it; the engine keeps serving what fit.
    fn seal(&mut self) -> Result<(), CacheError> {
        let batch = std::mem::replace(&mut self.open, RefBatch::empty(&self.cfg));
        let (pooled, count) = (batch.pooled(), batch.ids.len());
        let id = self.next_batch;
        self.next_batch += 1;
        if let Err(refused) = self.cache.insert(id, batch) {
            self.references -= count;
            return Err(refused);
        }
        if pooled.cols() > 0 {
            match &mut self.ivf {
                Some(ivf) => ivf.add_batch(id, &pooled),
                None => self.maybe_train_ivf(),
            }
        }
        Ok(())
    }

    /// Train the coarse quantizer once enough pooled descriptors exist
    /// (at least `nlist`, so no cell starts structurally empty), then post
    /// every batch sealed so far. Later batches are posted incrementally at
    /// seal time. Training is seeded (`matching.ivf.seed`) and happens at a
    /// deterministic point in the ingest stream, so two identical ingest
    /// sequences build bit-identical indexes.
    fn maybe_train_ivf(&mut self) {
        let ivf_cfg = self.cfg.matching.ivf;
        if self.ivf.is_some() || !ivf_cfg.enabled || ivf_cfg.nlist < 2 {
            return;
        }
        // Seal order, whichever tier each batch has moved to since.
        let mut pooled: Vec<_> =
            self.cache.iter().map(|(id, batch, _)| (id, batch.pooled())).collect();
        pooled.sort_by_key(|(id, _)| *id);
        let points: usize = pooled.iter().map(|(_, p)| p.cols()).sum();
        if points < ivf_cfg.nlist {
            return;
        }
        let all: Vec<f32> = pooled.iter().flat_map(|(_, p)| p.as_slice()).copied().collect();
        let train = texid_linalg::Mat::from_col_major(all.len() / points, points, all);
        let mut ivf = IvfIndex::train(&train, ivf_cfg.nlist, ivf_cfg.seed, ivf_cfg.train_iters);
        for (batch_id, pooled) in pooled.iter().filter(|(_, p)| p.cols() > 0) {
            ivf.add_batch(*batch_id, pooled);
        }
        self.ivf = Some(ivf);
    }

    /// The trained coarse quantizer, if any.
    pub fn ivf_index(&self) -> Option<&IvfIndex> {
        self.ivf.as_ref()
    }

    /// Export every *real* indexed reference, sealed or still pending in
    /// the open batch, as `(id, dequantized d×m feature matrix)` pairs — a
    /// device-independent snapshot that [`Engine::import_references`] (on
    /// any engine configuration) can rebuild an index from. Zero-padded
    /// columns from short references are exported as-is (they are
    /// semantically inert).
    ///
    /// Phantom (timing-only) references are skipped.
    pub fn export_references(&self) -> Vec<(u64, texid_linalg::Mat)> {
        let mut out = Vec::with_capacity(self.references);
        let cached = self.cache.iter().map(|(_, batch, _)| batch);
        for batch in cached.chain([&self.open]) {
            let Some(panels) = &batch.panels else { continue };
            let m = batch.m_per_ref;
            let refs = batch.ids.iter().enumerate();
            out.extend(refs.map(|(i, &id)| (id, panels.read_cols(i * m, m))));
        }
        out
    }

    /// Rebuild an index from an [`Engine::export_references`] snapshot.
    ///
    /// # Errors
    /// Propagates cache exhaustion.
    pub fn import_references(
        &mut self,
        snapshot: impl IntoIterator<Item = (u64, texid_linalg::Mat)>,
    ) -> Result<(), CacheError> {
        for (id, mat) in snapshot {
            self.add_reference(id, &FeatureMatrix::from_mat(mat, true))?;
        }
        self.flush()
    }

    /// True when references were added since the last [`Engine::flush`]
    /// (i.e. a write lock + `flush()` is needed before searching sees
    /// everything). Lets the serving path skip the write lock entirely in
    /// the steady state.
    pub fn has_pending(&self) -> bool {
        !self.open.ids.is_empty()
    }

    /// Search the query against every indexed reference. The query feature
    /// matrix is truncated to `n_query` columns (asymmetric n).
    ///
    /// Takes `&self`: the search path only reads the cache layout and
    /// config, and hit statistics and telemetry are atomic
    /// cells. Any number of searches may therefore run concurrently behind
    /// a shared read lock.
    ///
    /// A degenerate query (no features) returns every reference with a
    /// zero score rather than panicking — extraction can legitimately come
    /// up empty on an all-occluded capture.
    pub fn search(&self, query: &FeatureMatrix) -> SearchResult {
        self.search_many(&[query]).pop().expect("one query in, one result out")
    }

    /// [`Engine::search_encoded`] of queries that still need encoding.
    pub fn search_many(&self, queries: &[&FeatureMatrix]) -> Vec<SearchResult> {
        let encoded: Vec<EncodedQuery> =
            queries.iter().map(|q| EncodedQuery::new(&self.cfg, q)).collect();
        self.search_encoded(&encoded.iter().collect::<Vec<_>>())
    }

    /// One query against one batch it sweeps: add the batch to the query's
    /// report — its H2D share if it streamed from the host, and the kernel
    /// work, which is never amortized — and, if the batch has panels (is not
    /// phantom), score its references into the query's ranking.
    fn sweep_batch(
        &self,
        batch: &RefBatch,
        tier: Tier,
        h2d_share_us: f64,
        q: &EncodedQuery,
        out: &mut SearchResult,
    ) {
        let matching = &self.cfg.matching;
        let (bsize, m_per) = (batch.ids.len(), batch.m_per_ref);
        let report = &mut out.report;
        report.images += bsize;
        if tier == Tier::Host {
            report.host_batches += 1;
            report.h2d_us += h2d_share_us;
        } else {
            report.device_batches += 1;
        }
        let steps = BatchWork::new(matching, bsize, m_per, q.packed.cols(), q.packed.rows())
            .price(&self.cfg.device);
        report.gemm_us += steps.gemm_us;
        report.sort_us += steps.sort_us;
        report.d2h_us += steps.d2h_us;
        report.post_us += steps.post_us;

        if let Some(panels) = &batch.panels {
            let scored = score_batch_packed(matching, panels, bsize, m_per, &q.packed);
            out.ranked.extend(batch.ids.iter().copied().zip(scored.scores));
        }
    }

    /// Search `Q` coalesced queries in one pass over the cache: every
    /// reference batch is visited once, each *host*-resident batch is
    /// charged its H2D transfer **once** and the cost is split `1/Q` into
    /// each query's report ([`cost::h2d_amortized_us`]) — the continuous
    /// batching that makes concurrent serving cheaper than Q independent
    /// sweeps. Per-query results come back in input order.
    ///
    /// Determinism contract: the order of operations. Batches are visited
    /// in cache order (device tier, then host, each FIFO), each query's
    /// report fields accumulate `+=` in that order, its ranking is sorted
    /// `(score desc, id asc)`, and nothing a concurrent caller can touch
    /// feeds a result — so serial, concurrent and coalesced execution
    /// cannot diverge.
    ///
    /// # Panics
    /// Panics if a query was encoded under a configuration that cannot
    /// prune while this engine's can, or for another kernel backend.
    pub fn search_encoded(&self, queries: &[&EncodedQuery]) -> Vec<SearchResult> {
        let nq = queries.len();
        if nq == 0 {
            return Vec::new();
        }
        // An IVF probe only runs when the quantizer is trained AND the
        // configuration prunes (`nprobe < nlist`). Otherwise this is None
        // and the sweep is the exhaustive path, bit-identical down to every
        // report field. The probe is this engine's own: the top-`nprobe`
        // cells of the query's pooled descriptor and the union of their
        // posting lists — the batches the query must still sweep exactly.
        let prober = self.ivf.as_ref().filter(|_| self.cfg.matching.ivf.prunes());
        let probes: Vec<Option<(BTreeSet<u64>, usize)>> = queries
            .iter()
            .map(|q| {
                let ivf = prober?;
                let pooled = q.pooled.as_ref().expect("query encoded for a non-pruning config");
                let cells = ivf.probe(pooled, self.cfg.matching.ivf.nprobe);
                Some((ivf.batches_in(&cells), cells.len()))
            })
            .collect();
        let mut results: Vec<SearchResult> = probes
            .iter()
            .map(|probe| {
                let cells_probed = probe.as_ref().map_or(0, |(_, cells)| *cells);
                let report =
                    SearchReport { coalesced_queries: nq, cells_probed, ..SearchReport::default() };
                SearchResult { ranked: Vec::new(), report }
            })
            .collect();
        let spec = &self.cfg.device;

        for (id, batch, tier) in self.cache.iter() {
            // A query sweeps this batch unless its probe pruned it: every
            // query on the exhaustive path; on the probed path, the batches
            // in the query's probed cells, plus any batch the index has
            // never seen (phantom batches are not pooled).
            let indexed = prober.is_some_and(|ivf| ivf.contains(id));
            let sweeps = |probe: &Option<(BTreeSet<u64>, usize)>| match probe {
                Some((batches, _)) if indexed => batches.contains(&id),
                _ => true,
            };
            let nsel = probes.iter().filter(|probe| sweeps(probe)).count();
            if nsel > 0 {
                self.cache.note_hit(tier);
            }
            // Host-resident batches stream over PCIe once for all queries
            // that sweep them (§6.1 + coalescing); each gets a 1/nsel share.
            let h2d_share_us = if tier == Tier::Host && nsel > 0 {
                cost::h2d_amortized_us(spec, batch.size_bytes(), self.cfg.cache.pinned, nsel)
            } else {
                0.0
            };
            for ((q, probe), out) in queries.iter().zip(&probes).zip(&mut results) {
                if sweeps(probe) {
                    self.sweep_batch(batch, tier, h2d_share_us, q, out);
                } else {
                    out.report.batches_pruned += 1;
                }
            }
        }

        // `probe_us` is 0.0 on the exhaustive path, and `0.0 + x` is bitwise
        // `x` here (every cost sum is non-negative), so the degenerate-path
        // totals stay bit-identical.
        let probe_us = prober.map_or(0.0, |ivf| {
            cost::ivf_probe_us(spec, ivf.nlist(), ivf.dim(), self.cfg.matching.precision)
        });
        for SearchResult { ranked, report } in &mut results {
            report.probe_us = probe_us;
            report.serial_total_us =
                Stage::ALL.iter().fold(probe_us, |sum, &stage| sum + report.stage_us(stage));
            report.total_us =
                report.serial_total_us * streams::stream_time_factor(spec, self.cfg.streams);
            self.telemetry.observe(report);
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_image::{CaptureCondition, TextureGenerator};
    use texid_sift::{extract, SiftConfig};

    fn tiny_engine(batch: usize, streams: usize) -> Engine {
        Engine::new(EngineConfig {
            m_ref: 128,
            n_query: 256,
            batch_size: batch,
            streams,
            ..EngineConfig::default()
        })
    }

    fn features(seed: u64, n: usize) -> FeatureMatrix {
        let im = TextureGenerator::with_size(128).generate(seed);
        extract(&im, &SiftConfig { max_features: n, ..SiftConfig::default() })
    }

    #[test]
    fn end_to_end_identification() {
        let mut engine = tiny_engine(4, 1);
        for id in 0..6u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.len(), 6);

        // Query = re-captured texture 3.
        let im = TextureGenerator::with_size(128).generate(3);
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let q_img = CaptureCondition::mild(&mut rng).apply(&im, 1);
        let q = extract(&q_img, &SiftConfig { max_features: 256, ..SiftConfig::default() });

        let result = engine.search(&q);
        assert_eq!(result.ranked.len(), 6);
        assert_eq!(result.ranked[0].0, 3, "wrong identification: {:?}", result.ranked);
        // Decisive margin.
        assert!(result.ranked[0].1 >= 3 * result.ranked[1].1.max(1));
        assert!(result.best(10).is_some());
    }

    #[test]
    fn an_f16_reference_rests_in_two_byte_panels_where_the_tile_widens() {
        // What the forced-backend test runs pin: f16 panels under `avx2` (the
        // `ymm` walker's) and `avx512`, f32 panels under `scalar`.
        let f16_elem = if MatchConfig::default().kernel_backend().f16_panels() { 2 } else { 4 };
        for (precision, elem) in [(Precision::F16, f16_elem), (Precision::F32, 4)] {
            let mut engine = Engine::new(EngineConfig {
                matching: MatchConfig { precision, ..MatchConfig::default() },
                ..tiny_engine(2, 1).cfg
            });
            for id in 0..3u64 {
                engine.add_reference(id, &features(id, 100)).unwrap();
            }
            engine.flush().unwrap();
            assert_eq!(engine.panel_bytes(), 3 * 128 * 128 * elem, "{precision:?}");
        }
    }

    #[test]
    fn a_stored_block_indexes_as_its_features_did() {
        // Heal's path: the block the store keeps (every column, narrowed
        // once), or an f32 one an older build wrote, indexes to the panels
        // of the features it came from, and ranks as they do.
        let ivf = texid_knn::IvfParams { enabled: true, nlist: 2, nprobe: 2, ..Default::default() };
        let mut direct = ivf_engine(2, ivf);
        let (mut from_f16, mut from_f32) = (ivf_engine(2, ivf), ivf_engine(2, ivf));
        for id in 0..5u64 {
            // 90 and 200 columns: padded and truncated to m_ref = 128.
            let f = features(id, if id % 2 == 0 { 90 } else { 200 });
            direct.add_reference(id, &f).unwrap();
            let cfg = &direct.cfg;
            let block = EncodedReference::new(cfg, &f).block().clone();
            assert_eq!(block.cols(), f.len(), "the store keeps every column");
            from_f16.add_encoded(id, &EncodedReference::from_block(cfg, block)).unwrap();
            let old = FeatureBlock::F32(f.mat.clone());
            from_f32.add_encoded(id, &EncodedReference::from_block(cfg, old)).unwrap();
        }
        direct.flush().unwrap();
        let q = features(3, 256);
        let want = direct.search(&q).ranked;
        assert_eq!(want[0].0, 3);
        for engine in [&mut from_f16, &mut from_f32] {
            engine.flush().unwrap();
            assert_eq!(engine.export_references(), direct.export_references());
            assert_eq!(engine.search(&q).ranked, want);
        }
    }

    #[test]
    fn partial_batches_require_flush() {
        let mut engine = tiny_engine(8, 1);
        for id in 0..3u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        // Not sealed yet: search sees nothing.
        let q = features(0, 256);
        assert_eq!(engine.search(&q).ranked.len(), 0);
        engine.flush().unwrap();
        assert_eq!(engine.search(&q).ranked.len(), 3);
    }

    #[test]
    fn phantom_mode_reports_timing_without_matches() {
        let mut engine = Engine::new(EngineConfig {
            m_ref: 384,
            n_query: 768,
            batch_size: 256,
            streams: 1,
            ..EngineConfig::default()
        });
        for id in 0..1024u64 {
            engine.add_reference_shape(id).unwrap();
        }
        engine.flush().unwrap();
        let q = features(0, 768);
        let r = engine.search(&q);
        assert!(r.ranked.is_empty());
        assert_eq!(r.report.images, 1024);
        assert!(r.report.images_per_second() > 10_000.0);
    }

    #[test]
    fn host_resident_batches_slow_search_down() {
        // Small device: most batches end up host-resident; per-image time
        // must exceed the all-device configuration (Table 5's story).
        let mut small_dev = DeviceSpec::tesla_p100();
        small_dev.mem_bytes = 1 << 30;
        small_dev.context_overhead_bytes = 0;
        let mk = |dev: DeviceSpec| {
            Engine::new(EngineConfig {
                device: dev,
                matching: MatchConfig::default(),
                m_ref: 384,
                n_query: 768,
                batch_size: 128,
                streams: 1,
                cache: CacheConfig {
                    host_capacity_bytes: 64 << 30,
                    device_reserve_bytes: 256 << 20,
                    pinned: true,
                },
            })
        };
        let mut cramped = mk(small_dev);
        let mut roomy = mk(DeviceSpec::tesla_p100());
        for id in 0..16384u64 {
            cramped.add_reference_shape(id).unwrap();
            roomy.add_reference_shape(id).unwrap();
        }
        cramped.flush().unwrap();
        roomy.flush().unwrap();
        let q = features(0, 768);
        let slow = cramped.search(&q).report;
        let fast = roomy.search(&q).report;
        assert!(slow.host_batches > 0);
        assert_eq!(fast.host_batches, 0);
        assert!(slow.per_image_us() > fast.per_image_us() * 1.3);
    }

    #[test]
    fn more_streams_faster_search() {
        let build = |streams: usize| {
            let mut e = Engine::new(EngineConfig {
                streams,
                ..EngineConfig::default()
            });
            for id in 0..2048u64 {
                e.add_reference_shape(id).unwrap();
            }
            e.flush().unwrap();
            e
        };
        let q = features(0, 768);
        let s1 = build(1).search(&q).report.images_per_second();
        let s4 = build(4).search(&q).report.images_per_second();
        let s8 = build(8).search(&q).report.images_per_second();
        assert!(s4 > s1 * 1.3);
        assert!(s8 > s4);
    }

    #[test]
    fn short_references_are_padded_not_corrupted() {
        // One reference with fewer features than m_ref must not shift the
        // batch attribution of its neighbours.
        let mut engine = Engine::new(EngineConfig {
            m_ref: 128,
            n_query: 256,
            batch_size: 3,
            streams: 1,
            ..EngineConfig::default()
        });
        let full_a = features(0, 128);
        let short = features(1, 128).truncated(40); // deliberately short
        let full_b = features(2, 128);
        engine.add_reference(0, &full_a).unwrap();
        engine.add_reference(1, &short).unwrap();
        engine.add_reference(2, &full_b).unwrap();
        engine.flush().unwrap();

        // Each reference still wins its own self-query decisively.
        for (id, _f) in [(0u64, &full_a), (1, &short), (2, &full_b)] {
            let r = engine.search(&features(id, 256));
            assert_eq!(r.ranked[0].0, id, "id {id}: {:?}", r.ranked);
            assert!(r.ranked[0].1 >= 3 * r.ranked[1].1.max(1), "id {id}: {:?}", r.ranked);
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_search() {
        let mut engine = tiny_engine(3, 1);
        for id in 0..5u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        let q = features(2, 256);
        let before = engine.search(&q).ranked;

        let snapshot = engine.export_references();
        assert_eq!(snapshot.len(), 5);
        let mut restored = tiny_engine(2, 1); // different batch size on purpose
        restored.import_references(snapshot).unwrap();
        let mut after = restored.search(&q).ranked;
        let mut before_sorted = before.clone();
        before_sorted.sort();
        after.sort();
        assert_eq!(before_sorted, after, "snapshot changed search results");
    }

    /// References added since the last flush are part of the snapshot:
    /// `len` counts them, so an import of the export must not lose them.
    #[test]
    fn export_includes_the_open_batch() {
        let mut engine = tiny_engine(3, 1);
        for id in 0..5u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        assert!(engine.has_pending());
        let snapshot = engine.export_references();
        assert_eq!(snapshot.len(), engine.len());
        assert_eq!(snapshot.len(), 5);
        let mut restored = tiny_engine(3, 1);
        restored.import_references(snapshot).unwrap();
        assert_eq!(restored.len(), 5);
        let mut ids: Vec<u64> = restored.export_references().iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
    }

    /// A phantom engine is priced exactly as a real one with the same batch
    /// layout — every report field to the bit, device and host tiers alike —
    /// and ranks nothing: what lets phantom references stand in for real
    /// ones in every timing experiment.
    #[test]
    fn phantom_engine_reports_like_a_real_one() {
        for precision in [Precision::F16, Precision::F32] {
            // Room on the device for about two of the five batches.
            let batch_bytes = (4 * 128 * DESCRIPTOR_DIM * precision.bytes()) as u64;
            let device = DeviceSpec::tesla_p100();
            let budget = device.cache_budget(0);
            let build = || {
                Engine::new(EngineConfig {
                    device: device.clone(),
                    matching: MatchConfig { precision, ..MatchConfig::default() },
                    m_ref: 128,
                    n_query: 256,
                    batch_size: 4,
                    streams: 2,
                    cache: CacheConfig {
                        device_reserve_bytes: budget - 2 * batch_bytes - batch_bytes / 2,
                        ..CacheConfig::default()
                    },
                })
            };
            let (mut real, mut phantom) = (build(), build());
            for id in 0..18u64 {
                real.add_reference(id, &features(id, 128)).unwrap();
                phantom.add_reference_shape(id).unwrap();
            }
            real.flush().unwrap();
            phantom.flush().unwrap();
            let q = features(7, 256);
            let (r, p) = (real.search(&q), phantom.search(&q));
            assert_eq!(r.ranked.len(), 18, "{precision:?}: the real engine ranks");
            assert!(p.ranked.is_empty(), "{precision:?}: a phantom never ranks");
            assert!(r.report.host_batches > 0 && r.report.device_batches > 0, "{precision:?}");
            assert_reports_identical(&r.report, &p.report);
        }
    }

    #[test]
    fn empty_query_returns_zero_scores() {
        let mut engine = tiny_engine(2, 1);
        for id in 0..3u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        let empty = FeatureMatrix::from_mat(texid_linalg::Mat::zeros(128, 0), true);
        let r = engine.search(&empty);
        assert_eq!(r.ranked.len(), 3);
        assert!(r.ranked.iter().all(|(_, s)| *s == 0));
        assert!(r.best(1).is_none());
    }

    #[test]
    fn asymmetric_m_truncates_reference_features() {
        let mut engine = Engine::new(EngineConfig {
            m_ref: 64,
            batch_size: 1,
            ..EngineConfig::default()
        });
        engine.add_reference(0, &features(0, 128)).unwrap();
        engine.flush().unwrap();
        // 64 features × 128 dims × 2 B = 16 KiB in the cache.
        assert_eq!(engine.cache_stats().inserted, 1);
    }

    /// Every field of two reports must agree bit-for-bit (f64s compared by
    /// bit pattern, not epsilon).
    fn assert_reports_identical(a: &SearchReport, b: &SearchReport) {
        assert_eq!(a.images, b.images);
        assert_eq!(a.device_batches, b.device_batches);
        assert_eq!(a.host_batches, b.host_batches);
        assert_eq!(a.coalesced_queries, b.coalesced_queries);
        assert_eq!(a.cells_probed, b.cells_probed);
        assert_eq!(a.batches_pruned, b.batches_pruned);
        for (name, x, y) in [
            ("probe_us", a.probe_us, b.probe_us),
            ("h2d_us", a.h2d_us, b.h2d_us),
            ("gemm_us", a.gemm_us, b.gemm_us),
            ("sort_us", a.sort_us, b.sort_us),
            ("d2h_us", a.d2h_us, b.d2h_us),
            ("post_us", a.post_us, b.post_us),
            ("serial_total_us", a.serial_total_us, b.serial_total_us),
            ("total_us", a.total_us, b.total_us),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name} differs: {x} vs {y}");
        }
    }

    #[test]
    fn concurrent_searches_bit_identical_to_serial() {
        let mut engine = tiny_engine(4, 2);
        for id in 0..10u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        let queries: Vec<FeatureMatrix> = (0..4).map(|i| features(100 + i, 256)).collect();

        let serial: Vec<SearchResult> = queries.iter().map(|q| engine.search(q)).collect();

        // The same queries from concurrent threads over &self: rankings
        // AND every cost-report field must match the serial run exactly.
        let engine = &engine;
        for _round in 0..3 {
            let concurrent: Vec<SearchResult> = std::thread::scope(|s| {
                let handles: Vec<_> =
                    queries.iter().map(|q| s.spawn(move || engine.search(q))).collect();
                handles.into_iter().map(|h| h.join().expect("searcher")).collect()
            });
            for (a, b) in serial.iter().zip(&concurrent) {
                assert_eq!(a.ranked, b.ranked, "concurrent ranking diverged");
                assert_reports_identical(&a.report, &b.report);
            }
        }
    }

    #[test]
    fn search_many_matches_per_query_rankings() {
        let mut engine = tiny_engine(4, 1);
        for id in 0..10u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        let queries: Vec<FeatureMatrix> = (0..3).map(|i| features(200 + i, 256)).collect();
        let refs: Vec<&FeatureMatrix> = queries.iter().collect();

        let merged = engine.search_many(&refs);
        assert_eq!(merged.len(), 3);
        for (q, m) in queries.iter().zip(&merged) {
            let solo = engine.search(q);
            assert_eq!(solo.ranked, m.ranked, "coalesced ranking diverged from solo search");
            assert_eq!(m.report.coalesced_queries, 3);
            assert_eq!(solo.report.coalesced_queries, 1);
        }
    }

    /// An id rewritten where it lies — in the open batch, then in a sealed
    /// one — leaves an engine indistinguishable from one that was only ever
    /// given the final contents: same batches, same rankings and scores,
    /// same report down to every f64 bit.
    #[test]
    fn replaced_references_equal_a_fresh_engine_with_the_final_contents() {
        let mut rewritten = tiny_engine(4, 2);
        let mut fresh = tiny_engine(4, 2);
        for id in 0..10u64 {
            rewritten.add_reference(id, &features(id, 128)).unwrap();
        }
        // Ids 8 and 9 are still in the open batch; 1 and 6 are sealed. The
        // short version of 6 must zero the columns it no longer fills.
        let finals = [
            (9u64, features(19, 128)),
            (1, features(11, 128)),
            (6, features(16, 128).truncated(40)),
        ];
        for (id, f) in &finals {
            assert!(rewritten.replace_reference(*id, &features(id + 50, 128)));
            assert!(rewritten.replace_reference(*id, f));
        }
        assert!(!rewritten.replace_reference(99, &features(0, 128)), "99 was never added");
        let ivf_on = texid_knn::IvfParams { enabled: true, ..Default::default() };
        let mut phantom = ivf_engine(2, ivf_on);
        phantom.add_reference_shape(0).unwrap();
        assert!(phantom.replace_reference(0, &features(0, 128)), "nothing to overwrite, no panic");
        rewritten.flush().unwrap();
        assert_eq!(rewritten.len(), 10);
        for id in 0..10u64 {
            let version = finals.iter().find(|(f, _)| *f == id);
            let version = version.map_or(features(id, 128), |(_, f)| f.clone());
            fresh.add_reference(id, &version).unwrap();
        }
        fresh.flush().unwrap();
        for seed in [1u64, 6, 9, 16, 56] {
            let q = features(seed, 256);
            let (a, b) = (rewritten.search(&q), fresh.search(&q));
            assert_eq!(a.ranked, b.ranked, "query {seed}");
            assert_reports_identical(&a.report, &b.report);
        }
        assert_eq!(rewritten.cache_stats().inserted, 3, "rewrites seal nothing");
    }

    fn ivf_engine(batch: usize, ivf: texid_knn::IvfParams) -> Engine {
        Engine::new(EngineConfig {
            m_ref: 128,
            n_query: 256,
            batch_size: batch,
            matching: MatchConfig { ivf, ..MatchConfig::default() },
            ..EngineConfig::default()
        })
    }

    /// The degenerate IVF configurations — disabled, or `nprobe >= nlist` —
    /// must be bit-identical to the exhaustive sweep: same rankings, same
    /// report down to every f64 bit.
    #[test]
    fn ivf_degenerate_configs_bit_identical_to_exhaustive() {
        let ivf_off = texid_knn::IvfParams::default();
        let ivf_all = texid_knn::IvfParams {
            enabled: true,
            nlist: 4,
            nprobe: 4,
            ..texid_knn::IvfParams::default()
        };
        let mut baseline = ivf_engine(4, ivf_off);
        let mut full_probe = ivf_engine(4, ivf_all);
        for id in 0..10u64 {
            baseline.add_reference(id, &features(id, 128)).unwrap();
            full_probe.add_reference(id, &features(id, 128)).unwrap();
        }
        baseline.flush().unwrap();
        full_probe.flush().unwrap();
        // nprobe >= nlist still trains the quantizer; it just must not be
        // consulted.
        assert!(full_probe.ivf_index().is_some());

        let queries: Vec<FeatureMatrix> = (0..3).map(|i| features(300 + i, 256)).collect();
        let refs: Vec<&FeatureMatrix> = queries.iter().collect();
        for (a, b) in baseline.search_many(&refs).iter().zip(&full_probe.search_many(&refs)) {
            assert_eq!(a.ranked, b.ranked, "nprobe=nlist ranking diverged from exhaustive");
            assert_reports_identical(&a.report, &b.report);
            assert_eq!(a.report.batches_pruned, 0);
            assert_eq!(a.report.cells_probed, 0);
            assert_eq!(a.report.probe_us.to_bits(), 0.0f64.to_bits());
        }
    }

    /// With `nprobe < nlist` the probe actually prunes batches, charges
    /// probe time, and still finds the right texture when the query pools
    /// into the reference's cell.
    #[test]
    fn ivf_pruning_skips_batches_and_still_identifies() {
        let ivf = texid_knn::IvfParams {
            enabled: true,
            nlist: 4,
            nprobe: 1,
            ..texid_knn::IvfParams::default()
        };
        let mut engine = ivf_engine(1, ivf);
        for id in 0..12u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        assert!(engine.ivf_index().is_some(), "12 pooled points >= nlist=4 must train");

        // Query with reference 3's own features: its pool lands in the same
        // cell as the indexed reference, so pruning must not lose it.
        let r = engine.search(&features(3, 128));
        assert_eq!(r.report.cells_probed, 1);
        assert!(r.report.batches_pruned > 0, "nprobe=1 of nlist=4 must prune some batches");
        assert_eq!(
            r.report.batches_pruned + r.report.device_batches + r.report.host_batches,
            12,
            "every batch is either swept or pruned"
        );
        assert!(r.report.probe_us > 0.0);
        assert_eq!(r.best(10).map(|(id, _)| id), Some(3), "pruned sweep lost the true match");
    }

    /// An IVF-on rewrite is posted under its new version's cell, before the
    /// quantizer trains and after: a probe of that cell alone still finds it.
    #[test]
    fn replaced_reference_is_found_by_a_probe_of_its_new_cell() {
        let ivf = texid_knn::IvfParams {
            enabled: true,
            nlist: 4,
            nprobe: 1,
            ..texid_knn::IvfParams::default()
        };
        let mut engine = ivf_engine(1, ivf);
        // Two sealed single-reference batches, quantizer still untrained:
        // the rewrite replaces the pool the training will see.
        engine.add_reference(0, &features(0, 128)).unwrap();
        engine.add_reference(1, &features(1, 128)).unwrap();
        assert!(engine.ivf_index().is_none());
        assert!(engine.replace_reference(1, &features(41, 128)));
        for id in 2..12u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        assert!(engine.ivf_index().is_some(), "12 pooled points >= nlist=4 must train");
        // Trained: the rewrite posts the batch under the new cell.
        assert!(engine.replace_reference(7, &features(47, 128)));
        for (id, seed) in [(1u64, 41u64), (7, 47)] {
            let r = engine.search(&features(seed, 128));
            assert_eq!(r.report.cells_probed, 1);
            assert!(r.report.batches_pruned > 0, "id {id}: {:?}", r.report);
            assert_eq!(r.best(10).map(|(id, _)| id), Some(id), "the new cell's probe lost id {id}");
        }
        assert_eq!(engine.len(), 12);
    }

    /// A cache hit is a batch some query of the pass swept: with the probe
    /// pruning, the batches it skips count on neither tier (nothing crossed
    /// PCIe for them), and exporting the references is not a search.
    #[test]
    fn cache_hits_count_the_batches_a_pass_swept() {
        // Device sized for ~6 of the 32 KiB (128×128 f16) batches: with 12
        // single-reference batches the FIFO leaves ids 0–5 host-resident.
        let mut spec = DeviceSpec::tesla_p100();
        spec.mem_bytes = 7 * 32 * 1024;
        spec.context_overhead_bytes = 0;
        let mut engine = Engine::new(EngineConfig {
            device: spec,
            m_ref: 128,
            n_query: 256,
            batch_size: 1,
            matching: MatchConfig {
                ivf: texid_knn::IvfParams {
                    enabled: true,
                    nlist: 4,
                    nprobe: 1,
                    ..texid_knn::IvfParams::default()
                },
                ..MatchConfig::default()
            },
            cache: CacheConfig {
                host_capacity_bytes: 64 << 30,
                device_reserve_bytes: 0,
                pinned: true,
            },
            ..EngineConfig::default()
        });
        for id in 0..12u64 {
            engine.add_reference(id, &features(id, 128)).unwrap();
        }
        engine.flush().unwrap();
        assert!(engine.cache_stats().swaps > 0, "setup must leave some batches host-resident");

        let before = engine.cache_stats();
        // Reference 3 sits on the host tier; its own features probe its cell.
        let r = engine.search(&features(3, 128)).report;
        assert!(r.batches_pruned > 0 && r.host_batches > 0, "{r:?}");
        let after = engine.cache_stats();
        assert_eq!(after.device_hits - before.device_hits, r.device_batches as u64);
        assert_eq!(after.host_hits - before.host_hits, r.host_batches as u64);

        assert_eq!(engine.export_references().len(), 12);
        assert_eq!(engine.cache_stats(), after, "an export is not a search");
    }
}
