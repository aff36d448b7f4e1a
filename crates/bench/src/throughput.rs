//! Concurrent-serving throughput benchmark: simulated images/second at
//! 1/4/16 concurrent clients against one shard, with query coalescing on
//! and off (`texid bench throughput`, emitting `BENCH_throughput.json`).
//!
//! The shard is configured *cramped*: the simulated device holds only one
//! reference batch, so every other batch is host-resident and each sweep
//! is dominated by PCIe H2D streaming (§6.1). That is exactly the regime
//! the coalescer targets — Q concurrent queries merged into one sweep
//! charge each host batch's H2D once instead of Q times — and it makes the
//! speedup a deterministic property of the cost model rather than of this
//! machine's scheduler.
//!
//! Clients are real threads driving the real [`Coalescer`] against the
//! engine's `RwLock`, released in lockstep waves by a barrier so every
//! wave's group fills to exactly the client count. Throughput is computed
//! in the simulated-time domain (`Σ images / Σ SearchReport::total_us`),
//! so the report is bit-stable run to run; host wall time is recorded per
//! cell for information only. Timings use phantom (shape-only) references,
//! which are priced but never scored, so a full run takes milliseconds.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use texid_cache::CacheConfig;
use texid_core::{CoalesceConfig, Coalescer, Engine, EngineConfig, SearchReport};
use texid_gpu::DeviceSpec;
use texid_knn::pair::MatchConfig;
use texid_linalg::Mat;
use texid_obs::Stage;
use texid_sift::FeatureMatrix;

/// Schema tag stamped into every report; bump on any layout change.
pub const SCHEMA: &str = "texid-throughput-bench/v1";

/// Seed for the generated query features.
pub const SEED: u64 = 0x0007_4870_u64;

/// One measured cell: a client count × coalescing setting.
#[derive(Clone, Debug)]
pub struct ThroughputEntry {
    /// Concurrent client threads.
    pub clients: usize,
    /// Whether query coalescing was enabled.
    pub coalesce: bool,
    /// Total searches completed across all clients.
    pub searches: usize,
    /// Total reference image comparisons (Σ `SearchReport::images`).
    pub images: u64,
    /// Total simulated GPU time, µs (Σ `SearchReport::total_us`; one GPU
    /// serializes sweeps, so per-query shares sum to elapsed device time).
    pub sim_total_us: f64,
    /// Simulated throughput: `images / sim_total_us · 1e6`.
    pub imgs_per_sec: f64,
    /// Σ simulated H2D µs — the quantity coalescing amortizes.
    pub h2d_us: f64,
    /// Mean `SearchReport::coalesced_queries` (group size actually formed).
    pub mean_group: f64,
    /// Host wall time of the cell, µs (informational, machine-dependent).
    pub wall_us: f64,
}

/// A full benchmark run.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Input seed (fixed: [`SEED`]).
    pub seed: u64,
    /// Runs per cell (median by simulated throughput taken).
    pub median_of: usize,
    /// True when the reduced quick configuration was used.
    pub quick: bool,
    /// References indexed on the shard.
    pub refs: usize,
    /// References per cached batch.
    pub batch_size: usize,
    /// All measured cells.
    pub entries: Vec<ThroughputEntry>,
}

impl ThroughputReport {
    /// The cell for `(clients, coalesce)`.
    pub fn cell(&self, clients: usize, coalesce: bool) -> Option<&ThroughputEntry> {
        self.entries.iter().find(|e| e.clients == clients && e.coalesce == coalesce)
    }

    /// Coalesced-over-uncoalesced simulated speedup at `clients`.
    pub fn coalesce_speedup(&self, clients: usize) -> Option<f64> {
        let on = self.cell(clients, true)?;
        let off = self.cell(clients, false)?;
        Some(on.imgs_per_sec / off.imgs_per_sec)
    }

    /// Coalesced throughput at `clients` over the single-client baseline.
    pub fn scaling_vs_one(&self, clients: usize) -> Option<f64> {
        let many = self.cell(clients, true)?;
        let one = self.cell(1, false)?;
        Some(many.imgs_per_sec / one.imgs_per_sec)
    }

    /// Serialize with a stable key order (hand-rolled: the workspace
    /// vendors no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"median_of\": {},\n", self.median_of));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"refs\": {},\n", self.refs));
        out.push_str(&format!("  \"batch_size\": {},\n", self.batch_size));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"clients\": {}, \"coalesce\": {}, \"searches\": {}, \"images\": {}, \
                 \"sim_total_us\": {:.2}, \"imgs_per_sec\": {:.2}, \"h2d_us\": {:.2}, \
                 \"mean_group\": {:.2}, \"wall_us\": {:.2}}}{}\n",
                e.clients,
                e.coalesce,
                e.searches,
                e.images,
                e.sim_total_us,
                e.imgs_per_sec,
                e.h2d_us,
                e.mean_group,
                e.wall_us,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Structural validation of an emitted report: well-formed JSON, the exact
/// schema tag, and the full column set on every entry.
pub fn validate_json(json: &str) -> Result<(), String> {
    crate::validate_report(
        json,
        SCHEMA,
        &["seed", "median_of", "quick", "refs", "batch_size"],
        &[
            "clients",
            "coalesce",
            "searches",
            "images",
            "sim_total_us",
            "imgs_per_sec",
            "h2d_us",
            "mean_group",
            "wall_us",
        ],
    )
}

/// Regression guard: at the highest measured client count, coalescing must
/// reach at least `min_ratio ×` the uncoalesced simulated throughput.
pub fn check_guard(report: &ThroughputReport, min_ratio: f64) -> Result<(), String> {
    let clients = report
        .entries
        .iter()
        .map(|e| e.clients)
        .max()
        .ok_or_else(|| "empty report".to_string())?;
    if clients < 2 {
        return Err("no multi-client cell measured".into());
    }
    let ratio = report
        .coalesce_speedup(clients)
        .ok_or_else(|| format!("missing on/off pair at {clients} clients"))?;
    if ratio < min_ratio {
        return Err(format!(
            "coalescing at {clients} clients reaches only {ratio:.2}x of uncoalesced \
             (floor {min_ratio}x)"
        ));
    }
    Ok(())
}

/// Seeded query features: `128 × n` values in `[0, 0.1)` (unit-norm
/// RootSIFT scale). Content never affects timing-only sweeps; the seed
/// exists so any future functional run stays reproducible.
fn query_features(n: usize, seed: u64) -> FeatureMatrix {
    let mut state = seed | 1;
    let mat = Mat::from_fn(128, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) & 0xffff) as f32 / 65535.0 * 0.1
    });
    FeatureMatrix::from_mat(mat, true)
}

/// Build the cramped shard: device memory sized to hold exactly one
/// reference batch, so `refs/batch_size - 1` batches live host-side and
/// every sweep pays their H2D.
fn build_shard(refs: usize, batch_size: usize, m_ref: usize, n_query: usize) -> Engine {
    let device = DeviceSpec::tesla_p100();
    let matching = MatchConfig { ..MatchConfig::default() };
    let batch_bytes =
        (batch_size * m_ref * 128 * matching.precision.bytes()) as u64;
    let budget = device.cache_budget(0);
    let cache = CacheConfig {
        // Leave room for ~1.5 batches on the device: the newest batch stays
        // resident, everything older is swapped to (pinned) host memory.
        device_reserve_bytes: budget.saturating_sub(batch_bytes + batch_bytes / 2),
        ..CacheConfig::default()
    };
    let mut engine = Engine::new(EngineConfig {
        device,
        matching,
        m_ref,
        n_query,
        batch_size,
        streams: 1,
        cache,
    });
    for id in 0..refs as u64 {
        engine.add_reference_shape(id).expect("bench shard fits in host cache");
    }
    engine.flush().expect("seal trailing batch");
    engine
}

/// One cell run: `clients` threads drive `waves` lockstep search waves
/// through a fresh [`Coalescer`] (its histogram registered on a private
/// registry so repeated cells do not pollute the global one).
fn run_cell(
    engine: &RwLock<Engine>,
    clients: usize,
    coalesce: bool,
    waves: usize,
    queries: &[FeatureMatrix],
) -> ThroughputEntry {
    let registry = texid_obs::Registry::new();
    let coalescer = Coalescer::with_registry(
        CoalesceConfig {
            max_batch: if coalesce { clients } else { 1 },
            // Generous: the barrier releases all clients of a wave at once,
            // so the group fills to `clients` long before this expires; the
            // window is only a backstop against scheduler stalls.
            window: Duration::from_millis(500),
        },
        &registry,
    );
    let barrier = Barrier::new(clients);
    let t0 = Instant::now();
    let reports: Vec<SearchReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let query = &queries[ci];
                let coalescer = &coalescer;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(waves);
                    for _ in 0..waves {
                        barrier.wait();
                        out.push(coalescer.search(engine, query).report);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;

    let searches = reports.len();
    let images: u64 = reports.iter().map(|r| r.images as u64).sum();
    let sim_total_us: f64 = reports.iter().map(|r| r.total_us).sum();
    let h2d_us: f64 = reports.iter().map(|r| r.stage_us[Stage::H2d]).sum();
    let mean_group =
        reports.iter().map(|r| r.coalesced_queries as f64).sum::<f64>() / searches.max(1) as f64;
    ThroughputEntry {
        clients,
        coalesce,
        searches,
        images,
        sim_total_us,
        imgs_per_sec: if sim_total_us > 0.0 { images as f64 / sim_total_us * 1e6 } else { 0.0 },
        h2d_us,
        mean_group,
        wall_us,
    }
}

/// Run the throughput benchmark.
///
/// `quick` is the CI smoke configuration: a 4-batch shard, clients
/// {1, 16}, 4 waves, median-of-3. The full run uses a 16-batch shard,
/// clients {1, 4, 16} and 8 waves with median-of-5.
pub fn run(quick: bool) -> ThroughputReport {
    if quick {
        run_custom(1024, 256, &[1, 16], 4, 3, true)
    } else {
        run_custom(4096, 256, &[1, 4, 16], 8, 5, false)
    }
}

/// [`run`] with explicit shard size and client schedule — lets tests
/// exercise the full measurement and serialization path in milliseconds.
pub fn run_custom(
    refs: usize,
    batch_size: usize,
    clients: &[usize],
    waves: usize,
    median_of: usize,
    quick: bool,
) -> ThroughputReport {
    // m = 768 (the paper's Table 7 upper sweep point) and n cut to 128:
    // fat reference batches and lean queries keep the per-query kernel
    // work small next to the per-batch H2D it shares — the serving regime
    // where coalescing pays (h2d >> per-query compute).
    let engine = RwLock::new(build_shard(refs, batch_size, 768, 64));
    let max_clients = clients.iter().copied().max().unwrap_or(1);
    let queries: Vec<FeatureMatrix> =
        (0..max_clients).map(|i| query_features(64, SEED ^ (i as u64) << 8)).collect();

    let mut entries = Vec::new();
    for &c in clients {
        for coalesce in [false, true] {
            let mut runs: Vec<ThroughputEntry> = (0..median_of.max(1))
                .map(|_| run_cell(&engine, c, coalesce, waves, &queries))
                .collect();
            // Simulated throughput is deterministic cell to cell; the
            // median keeps the recorded wall_us representative.
            runs.sort_by(|a, b| {
                a.imgs_per_sec.partial_cmp(&b.imgs_per_sec).expect("finite throughput")
            });
            entries.push(runs.swap_remove(runs.len() / 2));
        }
    }
    ThroughputReport { seed: SEED, median_of: median_of.max(1), quick, refs, batch_size, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ThroughputReport {
        let mk = |clients: usize, coalesce: bool, imgs_per_sec: f64| ThroughputEntry {
            clients,
            coalesce,
            searches: 4,
            images: 64,
            sim_total_us: 100.0,
            imgs_per_sec,
            h2d_us: 50.0,
            mean_group: if coalesce { clients as f64 } else { 1.0 },
            wall_us: 123.0,
        };
        ThroughputReport {
            seed: SEED,
            median_of: 1,
            quick: true,
            refs: 16,
            batch_size: 4,
            entries: vec![mk(1, false, 100.0), mk(1, true, 100.0), mk(16, false, 100.0), mk(16, true, 320.0)],
        }
    }

    #[test]
    fn json_roundtrip_validates() {
        let json = tiny_report().to_json();
        validate_json(&json).expect("valid report");
    }

    #[test]
    fn validation_rejects_garbage() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("{}").is_err());
        let truncated = tiny_report().to_json().replace("\"mean_group\": 1.00", "\"oops\": 1");
        assert!(validate_json(&truncated).is_err());
    }

    #[test]
    fn guard_passes_and_fails_on_ratio() {
        let r = tiny_report();
        assert!(check_guard(&r, 1.0).is_ok());
        assert!(check_guard(&r, 4.0).is_err(), "ratio is 3.2, floor 4.0 must fail");
    }

    #[test]
    fn tiny_end_to_end_run_coalescing_wins() {
        // Smallest real run: 2-batch shard, 1 vs 4 clients, one wave each.
        let report = run_custom(8, 4, &[1, 4], 2, 1, true);
        let json = report.to_json();
        validate_json(&json).expect("valid report");
        let on = report.cell(4, true).expect("coalesced cell");
        let off = report.cell(4, false).expect("uncoalesced cell");
        assert_eq!(on.searches, 8);
        assert!(on.mean_group > 1.0, "no grouping formed: {on:?}");
        // One host batch's H2D charged once per group instead of per query.
        assert!(on.h2d_us < off.h2d_us, "H2D not amortized: {on:?} vs {off:?}");
        assert!(on.imgs_per_sec > off.imgs_per_sec, "coalescing did not help");
        check_guard(&report, 1.0).expect("guard holds on a real run");
    }
}
