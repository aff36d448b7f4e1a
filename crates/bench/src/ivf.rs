//! IVF recall-vs-speedup benchmark: sweeps the coarse quantizer's
//! `(nlist, nprobe)` grid against the exhaustive sweep on the synthetic
//! identification dataset (`texid bench ivf`, emitting `BENCH_ivf.json`).
//!
//! Every cell builds a fresh engine with IVF enabled, indexes the same
//! references, answers the same re-captured queries, and reports:
//!
//! * **recall@1** — how often the pruned sweep's top-ranked reference
//!   agrees with the exhaustive sweep's (the quantity pruning risks);
//! * **effective imgs/s** — references indexed × queries ÷ Σ simulated
//!   `total_us`, so skipping batches shows up as throughput (the quantity
//!   pruning buys).
//!
//! Runs use `ExecMode::Full` real matching (recall needs real rankings) on
//! `batch_size = 1` engines so the probe prunes at single-reference
//! granularity. All engines share one seeded dataset from
//! [`texid_core::eval`]; throughput is computed in the simulated-time
//! domain, so the numbers are bit-stable run to run. The `nprobe = nlist`
//! cells double as a live check of the bit-exactness contract: they must
//! report recall 1.0 and zero pruned batches.

use texid_core::eval::{build_dataset, Dataset, EvalConfig, Severity};
use texid_core::{Engine, EngineConfig};
use texid_knn::pair::{ExecMode, IvfParams, MatchConfig};

/// Schema tag stamped into every report; bump on any layout change.
pub const SCHEMA: &str = "texid-ivf-bench/v1";

/// Dataset seed for the generated textures and re-captures.
pub const SEED: u64 = 0x001f_5eed_u64;

/// One measured cell: an `(nlist, nprobe)` setting.
#[derive(Clone, Debug)]
pub struct IvfEntry {
    /// k-means cells in the coarse quantizer.
    pub nlist: usize,
    /// Cells probed per query.
    pub nprobe: usize,
    /// Queries answered.
    pub queries: usize,
    /// Σ `SearchReport::images` — references actually swept.
    pub images_swept: u64,
    /// Σ `SearchReport::batches_pruned` — references skipped by the probe.
    pub batches_pruned: u64,
    /// Σ simulated `SearchReport::total_us` (probe + pruned sweep).
    pub sim_total_us: f64,
    /// Effective throughput: `refs × queries / sim_total_us · 1e6` — the
    /// numerator is the images *identified against*, so pruning raises it.
    pub imgs_per_sec: f64,
    /// Fraction of queries whose top-1 matches the exhaustive top-1.
    pub recall_at_1: f64,
    /// `imgs_per_sec` over the exhaustive baseline's.
    pub speedup: f64,
}

/// A full benchmark run.
#[derive(Clone, Debug)]
pub struct IvfReport {
    /// Input seed (fixed: [`SEED`]).
    pub seed: u64,
    /// True when the reduced quick configuration was used.
    pub quick: bool,
    /// References indexed per engine.
    pub refs: usize,
    /// Queries answered per cell.
    pub queries: usize,
    /// The committed default `nlist` ([`IvfParams::default`]).
    pub default_nlist: usize,
    /// The committed default `nprobe` ([`IvfParams::default`]).
    pub default_nprobe: usize,
    /// Exhaustive-baseline effective throughput (same formula, no probe).
    pub exhaustive_imgs_per_sec: f64,
    /// All measured cells.
    pub entries: Vec<IvfEntry>,
}

impl IvfReport {
    /// The cell for `(nlist, nprobe)`.
    pub fn cell(&self, nlist: usize, nprobe: usize) -> Option<&IvfEntry> {
        self.entries.iter().find(|e| e.nlist == nlist && e.nprobe == nprobe)
    }

    /// Serialize with a stable key order (hand-rolled: the workspace
    /// vendors no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"refs\": {},\n", self.refs));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!("  \"default_nlist\": {},\n", self.default_nlist));
        out.push_str(&format!("  \"default_nprobe\": {},\n", self.default_nprobe));
        out.push_str(&format!(
            "  \"exhaustive_imgs_per_sec\": {:.2},\n",
            self.exhaustive_imgs_per_sec
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"nlist\": {}, \"nprobe\": {}, \"queries\": {}, \"images_swept\": {}, \
                 \"batches_pruned\": {}, \"sim_total_us\": {:.2}, \"imgs_per_sec\": {:.2}, \
                 \"recall_at_1\": {:.4}, \"speedup\": {:.2}}}{}\n",
                e.nlist,
                e.nprobe,
                e.queries,
                e.images_swept,
                e.batches_pruned,
                e.sim_total_us,
                e.imgs_per_sec,
                e.recall_at_1,
                e.speedup,
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
        &["seed", "quick", "refs", "default_nlist", "default_nprobe", "exhaustive_imgs_per_sec"],
        &[
            "nlist",
            "nprobe",
            "images_swept",
            "batches_pruned",
            "sim_total_us",
            "imgs_per_sec",
            "recall_at_1",
            "speedup",
        ],
    )
}

/// Regression guard: at the committed default `(nlist, nprobe)` the probe
/// must hold at least `min_recall` recall@1 while reaching at least
/// `min_speedup ×` the exhaustive effective throughput.
pub fn check_guard(report: &IvfReport, min_recall: f64, min_speedup: f64) -> Result<(), String> {
    let cell = report.cell(report.default_nlist, report.default_nprobe).ok_or_else(|| {
        format!(
            "default cell (nlist={}, nprobe={}) not measured",
            report.default_nlist, report.default_nprobe
        )
    })?;
    if cell.recall_at_1 < min_recall {
        return Err(format!(
            "recall@1 at default cell is {:.4} (floor {min_recall})",
            cell.recall_at_1
        ));
    }
    if cell.speedup < min_speedup {
        return Err(format!(
            "speedup at default cell is {:.2}x over exhaustive (floor {min_speedup}x)",
            cell.speedup
        ));
    }
    Ok(())
}

/// Build one engine over the dataset's references. `batch_size = 1` puts
/// every reference in its own cache batch so the probe prunes per image.
fn build_engine(ds: &Dataset, m_ref: usize, n_query: usize, ivf: IvfParams) -> Engine {
    let matching = MatchConfig { exec: ExecMode::Full, ivf, ..MatchConfig::default() };
    let mut engine = Engine::new(EngineConfig {
        matching,
        m_ref,
        n_query,
        batch_size: 1,
        streams: 1,
        ..EngineConfig::default()
    });
    for (id, f) in ds.refs.iter().enumerate() {
        engine.add_reference(id as u64, f).expect("bench references fit in cache");
    }
    engine.flush().expect("seal trailing batch");
    engine
}

/// Answer every query, returning per-query top-1 ids plus the summed
/// simulated time and sweep/prune counters.
fn answer(engine: &Engine, ds: &Dataset) -> (Vec<u64>, f64, u64, u64) {
    let mut top1 = Vec::with_capacity(ds.queries.len());
    let mut sim_total_us = 0.0;
    let mut images = 0u64;
    let mut pruned = 0u64;
    for (qf, _) in &ds.queries {
        let r = engine.search(qf);
        top1.push(r.ranked.first().map_or(u64::MAX, |&(id, _)| id));
        sim_total_us += r.report.total_us;
        images += r.report.images as u64;
        pruned += r.report.batches_pruned as u64;
    }
    (top1, sim_total_us, images, pruned)
}

/// Run the IVF benchmark.
///
/// `quick` is the CI smoke configuration: a 48-reference dataset (large
/// enough to train the default `nlist`) and only the committed default
/// cell. The full run indexes 64 references and sweeps
/// `nlist ∈ {8, 16, 32} × nprobe ∈ {1, 2, 4, 8, nlist}`.
pub fn run(quick: bool) -> IvfReport {
    let default = IvfParams::default();
    if quick {
        run_custom(48, 8, 128, 256, 128, &[(default.nlist, default.nprobe)], true)
    } else {
        let mut cells = Vec::new();
        for nlist in [8usize, 16, 32] {
            for nprobe in [1usize, 2, 4, 8] {
                if nprobe < nlist {
                    cells.push((nlist, nprobe));
                }
            }
            cells.push((nlist, nlist)); // degenerate cell: must hit recall 1.0
        }
        run_custom(64, 24, 128, 256, 128, &cells, false)
    }
}

/// [`run`] with explicit dataset shape and cell schedule — lets tests
/// exercise the full measurement and serialization path quickly.
pub fn run_custom(
    n_refs: usize,
    n_queries: usize,
    m_ref: usize,
    n_query: usize,
    image_size: usize,
    cells: &[(usize, usize)],
    quick: bool,
) -> IvfReport {
    let ds = build_dataset(&EvalConfig {
        n_refs,
        n_queries,
        image_size,
        m_ref,
        n_query,
        seed: SEED,
        severity: Severity::Mild,
        fine_grained: false,
        rootsift: true,
    });

    // Exhaustive baseline: IVF disabled entirely.
    let baseline = build_engine(&ds, m_ref, n_query, IvfParams::default());
    let (exact_top1, exact_us, _, _) = answer(&baseline, &ds);
    let per_query_images = (n_refs * n_queries) as f64;
    let exhaustive_imgs_per_sec =
        if exact_us > 0.0 { per_query_images / exact_us * 1e6 } else { 0.0 };

    let mut entries = Vec::new();
    for &(nlist, nprobe) in cells {
        let ivf = IvfParams { enabled: true, nlist, nprobe, ..IvfParams::default() };
        let engine = build_engine(&ds, m_ref, n_query, ivf);
        let (top1, sim_total_us, images_swept, batches_pruned) = answer(&engine, &ds);
        let agree = top1.iter().zip(&exact_top1).filter(|(a, b)| a == b).count();
        let recall_at_1 = agree as f64 / n_queries.max(1) as f64;
        let imgs_per_sec =
            if sim_total_us > 0.0 { per_query_images / sim_total_us * 1e6 } else { 0.0 };
        entries.push(IvfEntry {
            nlist,
            nprobe,
            queries: n_queries,
            images_swept,
            batches_pruned,
            sim_total_us,
            imgs_per_sec,
            recall_at_1,
            speedup: if exhaustive_imgs_per_sec > 0.0 {
                imgs_per_sec / exhaustive_imgs_per_sec
            } else {
                0.0
            },
        });
    }

    let default = IvfParams::default();
    IvfReport {
        seed: SEED,
        quick,
        refs: n_refs,
        queries: n_queries,
        default_nlist: default.nlist,
        default_nprobe: default.nprobe,
        exhaustive_imgs_per_sec,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> IvfReport {
        let mk = |nlist: usize, nprobe: usize, recall: f64, speedup: f64| IvfEntry {
            nlist,
            nprobe,
            queries: 4,
            images_swept: 16,
            batches_pruned: 32,
            sim_total_us: 100.0,
            imgs_per_sec: speedup * 480.0,
            recall_at_1: recall,
            speedup,
        };
        IvfReport {
            seed: SEED,
            quick: true,
            refs: 12,
            queries: 4,
            default_nlist: 16,
            default_nprobe: 4,
            exhaustive_imgs_per_sec: 480.0,
            entries: vec![mk(16, 1, 0.75, 9.0), mk(16, 4, 1.0, 3.4), mk(16, 16, 1.0, 0.99)],
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
        let truncated = tiny_report().to_json().replace("\"recall_at_1\": 1.0000", "\"oops\": 1");
        assert!(validate_json(&truncated).is_err());
    }

    #[test]
    fn guard_checks_recall_and_speedup_at_default_cell() {
        let r = tiny_report();
        assert!(check_guard(&r, 0.95, 2.0).is_ok());
        assert!(check_guard(&r, 0.95, 4.0).is_err(), "speedup 3.4, floor 4.0 must fail");
        let mut bad = r.clone();
        bad.entries[1].recall_at_1 = 0.5;
        assert!(check_guard(&bad, 0.95, 2.0).is_err(), "recall 0.5, floor 0.95 must fail");
        let mut missing = r;
        missing.entries.remove(1);
        assert!(check_guard(&missing, 0.95, 2.0).is_err(), "default cell absent must fail");
    }

    #[test]
    fn tiny_end_to_end_run_prunes_without_losing_recall() {
        // Smallest real run: 8 references, nlist=4, pruned and degenerate.
        let report = run_custom(8, 3, 64, 128, 96, &[(4, 1), (4, 4)], true);
        let json = report.to_json();
        validate_json(&json).expect("valid report");

        let pruned = report.cell(4, 1).expect("pruned cell");
        assert!(pruned.batches_pruned > 0, "nprobe=1 of nlist=4 must prune: {pruned:?}");
        assert!(
            pruned.imgs_per_sec > report.exhaustive_imgs_per_sec,
            "pruning must raise effective throughput: {pruned:?} vs {}",
            report.exhaustive_imgs_per_sec
        );

        // nprobe = nlist is the degenerate path: bit-identical to the
        // exhaustive sweep, so recall is exactly 1.0 and nothing is pruned.
        let full = report.cell(4, 4).expect("degenerate cell");
        assert_eq!(full.batches_pruned, 0);
        assert!((full.recall_at_1 - 1.0).abs() < f64::EPSILON, "degenerate recall: {full:?}");
    }
}
