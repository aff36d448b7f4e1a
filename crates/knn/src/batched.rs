//! Batched reference matching (§5.2, Fig. 3).
//!
//! `B` reference feature matrices are concatenated into one
//! `d × (B·m)` operand so a single GEMM computes all `B` similarity
//! matrices at once, raising arithmetic intensity (the batched HGEMM runs at
//! 67.9% of peak vs 32% unbatched). The top-2 scan then runs **per
//! reference block** — texture identification matches each reference
//! separately, so the scan must not mix rows across block boundaries.
//!
//! Two halves, each written once: [`BatchWork`] states what one query costs
//! the device against one batch — launched on a [`GpuSim`] here (the Table
//! 1/3 path), priced analytically by the engine — and [`score_batch_packed`]
//! is the numerics, which need no device and take both operands as the
//! kernel's panels; `cfg.fused` chooses, on those same panels, between the
//! fused tile scan and GEMM-then-scan. [`score_batch`] is pack-then-call and
//! [`match_batch`] is "charge + score". A single pair is a batch of one:
//! `score_pair` under `RootSiftTop2` is `score_batch(cfg, r, 1, r.cols(),
//! q)`, so Algorithm 2 is written here and nowhere else.

use crate::block::{FeatureBlock, PackedBlock};
use crate::pair::{Algorithm, ExecMode, MatchConfig, StepTimes, D2H_BYTES_PER_QUERY_FEATURE};
use crate::ratio::count_good_matches;
use texid_gpu::{cost, DeviceSpec, GpuSim, Kernel, Precision, StreamId};
use texid_linalg::kernel::{gemm_packed, gemm_top2_ex, FusedEpilogue, PackedA, PackedB};
use texid_linalg::mat::{Mat, MatF16};
use texid_linalg::top2::{top2_min_per_column, Top2};

/// Result of matching a batched reference block against one query.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// `scores[b]` = good-match count of reference `b` (empty in
    /// `TimingOnly` mode).
    pub scores: Vec<usize>,
    /// Per-(reference, query-feature) top-2, `top2[b * n + j]`
    /// (empty in `TimingOnly` mode).
    pub top2: Vec<Top2>,
    /// Per-step simulated durations for the whole batch (zero from the
    /// scoring half alone).
    pub steps: StepTimes,
    /// Batch size the timing covers.
    pub batch: usize,
}

impl BatchOutcome {
    /// Every reference scores zero against a query with no features.
    fn degenerate(batch: usize) -> BatchOutcome {
        BatchOutcome {
            scores: vec![0; batch],
            top2: Vec::new(),
            steps: StepTimes::default(),
            batch,
        }
    }

    /// Simulated per-image time, µs.
    pub fn per_image_us(&self) -> f64 {
        self.steps.total_us() / self.batch as f64
    }

    /// Simulated throughput, images/s.
    pub fn images_per_second(&self) -> f64 {
        1e6 / self.per_image_us()
    }
}

/// The device work one query costs against one batch (Table 3's rows) — the
/// one place these shapes are written down.
#[derive(Clone, Copy, Debug)]
pub struct BatchWork {
    gemm: Kernel,
    scan: Kernel,
    d2h_bytes: u64,
    post_images: usize,
}

impl BatchWork {
    /// `batch` references × `m_per_ref` features against `n` query features
    /// of dimension `d`, in `cfg`'s precision.
    pub fn new(cfg: &MatchConfig, batch: usize, m_per_ref: usize, n: usize, d: usize) -> BatchWork {
        BatchWork {
            gemm: Kernel::Gemm {
                m_rows: batch * m_per_ref,
                n_cols: n,
                k_depth: d,
                precision: cfg.precision,
                tensor_core: cfg.tensor_core,
            },
            // One scan thread per (reference, query-feature) pair: batch × n
            // columns of m_per_ref rows — the ~0.8 M sorting tasks of §5.3.
            scan: Kernel::Top2Scan {
                m_rows: m_per_ref,
                n_cols: batch * n,
                precision: cfg.precision,
            },
            d2h_bytes: (batch * n) as u64 * D2H_BYTES_PER_QUERY_FEATURE,
            post_images: batch,
        }
    }

    /// The analytic price of this work on `spec`, no device involved.
    pub fn price(&self, spec: &DeviceSpec) -> StepTimes {
        StepTimes {
            gemm_us: cost::kernel_duration_us(spec, &self.gemm),
            sort_us: cost::kernel_duration_us(spec, &self.scan),
            d2h_us: cost::d2h_duration_us(spec, self.d2h_bytes),
            post_us: cost::cpu_post_us(spec, self.post_images),
            ..StepTimes::default()
        }
    }

    /// Run this work on `sim`'s `stream`, advancing its clocks.
    fn launch(&self, sim: &mut GpuSim, stream: StreamId) -> StepTimes {
        let post_us = cost::cpu_post_us(sim.spec(), self.post_images);
        StepTimes {
            gemm_us: sim.launch(stream, self.gemm).duration_us(),
            sort_us: sim.launch(stream, self.scan).duration_us(),
            d2h_us: sim.d2h(stream, self.d2h_bytes).duration_us(),
            post_us: sim.host_work(stream, post_us).duration_us(),
            ..StepTimes::default()
        }
    }
}

/// Match a pre-concatenated reference block (`batch` references of
/// `m_per_ref` features each) against a query block: charge the batch's
/// [`BatchWork`] to `sim`, then (numerics on) [`score_batch`].
///
/// Only [`Algorithm::RootSiftTop2`] batches — exactly the variant the paper
/// batches (Algorithm 2's fused sort+sqrt makes "the batching process more
/// efficient", §5.1).
///
/// # Panics
/// Panics if the algorithm is not `RootSiftTop2`, precisions mismatch, or
/// `r_cat` does not hold `batch × m_per_ref` columns.
pub fn match_batch(
    cfg: &MatchConfig,
    r_cat: &FeatureBlock,
    batch: usize,
    m_per_ref: usize,
    q: &FeatureBlock,
    sim: &mut GpuSim,
    stream: StreamId,
) -> BatchOutcome {
    check_blocks(r_cat, batch, m_per_ref, q);
    assert_eq!(
        cfg.algorithm,
        Algorithm::RootSiftTop2,
        "only the RootSIFT pipeline is batched (as in the paper)"
    );
    let n = q.cols();
    if n == 0 {
        // No features survived extraction: no device work worth charging.
        return BatchOutcome::degenerate(batch);
    }
    let steps = BatchWork::new(cfg, batch, m_per_ref, n, q.rows()).launch(sim, stream);
    if cfg.exec == ExecMode::TimingOnly {
        return BatchOutcome { scores: Vec::new(), top2: Vec::new(), steps, batch };
    }
    BatchOutcome { steps, ..score_batch(cfg, r_cat, batch, m_per_ref, q) }
}

fn check_blocks(r_cat: &FeatureBlock, batch: usize, m_per_ref: usize, q: &FeatureBlock) {
    assert_eq!(r_cat.cols(), batch * m_per_ref, "batched block column mismatch");
    assert_eq!(r_cat.rows(), q.rows(), "descriptor dimension mismatch");
}

/// The numerics of [`match_batch`] alone: Algorithm 2 over the batch and the
/// per-reference ratio test, no device and no charge (`cfg.algorithm` and
/// `cfg.exec` are not consulted).
///
/// Packs both blocks for `cfg`'s backend and calls [`score_batch_packed`] —
/// callers that match the same references or the same query more than once
/// (the engine) pack once and call that directly.
///
/// # Panics
/// As [`match_batch`], on mismatched operands.
pub fn score_batch(
    cfg: &MatchConfig,
    r_cat: &FeatureBlock,
    batch: usize,
    m_per_ref: usize,
    q: &FeatureBlock,
) -> BatchOutcome {
    let be = cfg.kernel_backend();
    score_batch_packed(cfg, &r_cat.pack_refs(be), batch, m_per_ref, &q.pack_query(be))
}

/// [`score_batch`] on packed operands. With `cfg.fused` the scan consumes
/// GEMM tiles as they finish: the `(B·m) × n` similarity matrix is never
/// materialized and nothing proportional to the operands is allocated.
/// Unfused — the reference the bit-identity tests compare against — the
/// matrix is materialized from the same panels, then scanned; the results
/// are bit-identical.
///
/// # Panics
/// Panics if the operands disagree in precision, scale, depth or backend,
/// or `r` does not hold `batch × m_per_ref` columns.
pub fn score_batch_packed(
    cfg: &MatchConfig,
    r: &PackedBlock<PackedA>,
    batch: usize,
    m_per_ref: usize,
    q: &PackedBlock<PackedB>,
) -> BatchOutcome {
    assert_eq!(r.panels.cols(), batch * m_per_ref, "batched block column mismatch");
    assert_eq!(r.panels.depth(), q.panels.depth(), "descriptor dimension mismatch");
    let s2 = scale_sq(r, q);
    let n = q.panels.cols();
    if n == 0 {
        return BatchOutcome::degenerate(batch);
    }
    let raw = if cfg.fused {
        // An F16 block's values are round-tripped through f16 before they
        // are compared, exactly like scanning a 16-bit HGEMM output.
        let epi = FusedEpilogue {
            quantize_f16: r.precision == Precision::F16,
            ..FusedEpilogue::default()
        };
        gemm_top2_ex(-2.0, &r.panels, &q.panels, &epi, batch, m_per_ref)
    } else {
        scan_product(&similarity_gemm(r, q).0, r.precision, batch, m_per_ref)
    };
    finish(cfg, &raw, s2, batch, n)
}

/// The `scale²` a product of `r` and `q` carries (`1.0` for F32 blocks) —
/// and the one place mismatched operands are refused.
///
/// # Panics
/// Panics if the blocks disagree in precision or FP16 scale.
pub(crate) fn scale_sq(r: &PackedBlock<PackedA>, q: &PackedBlock<PackedB>) -> f32 {
    assert_eq!(r.precision, q.precision, "reference and query blocks must share a precision");
    assert_eq!(r.scale, q.scale, "reference/query scale mismatch");
    r.scale * q.scale
}

/// The unfused similarity GEMM `−2·RᵀQ`, materialized: the matrix in the
/// *scale² domain* for FP16 (caller divides), plus `scale²`.
pub(crate) fn similarity_gemm(r: &PackedBlock<PackedA>, q: &PackedBlock<PackedB>) -> (Mat, f32) {
    let s2 = scale_sq(r, q);
    (gemm_packed(-2.0, &r.panels, &q.panels), s2)
}

/// The unfused scan of a materialized product, per reference block. An F16
/// pipeline narrows to the 16-bit HGEMM output first, as on device, and the
/// scan pays the widening intrinsic — and its quantization.
pub(crate) fn scan_product(a: &Mat, precision: Precision, batch: usize, m_per_ref: usize) -> Vec<Top2> {
    if precision == Precision::F16 {
        top2_min_per_column(&MatF16::narrowed(a), batch, m_per_ref)
    } else {
        top2_min_per_column(a, batch, m_per_ref)
    }
}

/// The `ρ = √(2 + A/s²)` epilogue of Algorithm 2 (unit-norm RootSIFT
/// columns), applied to the two survivors of each scan.
pub(crate) fn rootsift_distances(raw: &[Top2], s2: f32) -> Vec<Top2> {
    let inv = 1.0 / s2;
    raw.iter()
        .map(|t| Top2 {
            idx: t.idx,
            d1: (2.0 + t.d1 * inv).max(0.0).sqrt(),
            d2: (2.0 + t.d2 * inv).max(0.0).sqrt(),
        })
        .collect()
}

/// Algorithm 2's epilogue and the per-reference ratio test.
fn finish(cfg: &MatchConfig, raw: &[Top2], s2: f32, batch: usize, n: usize) -> BatchOutcome {
    let top2 = rootsift_distances(raw, s2);
    let scores = (0..batch)
        .map(|b| count_good_matches(&top2[b * n..(b + 1) * n], cfg.ratio_threshold))
        .collect();
    BatchOutcome { scores, top2, steps: StepTimes::default(), batch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::match_pair;
    use texid_gpu::DeviceSpec;

    fn unit_features(d: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        let mut m = Mat::from_fn(d, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0
        });
        for c in 0..cols {
            let norm: f32 = m.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            for v in m.col_mut(c) {
                *v /= norm;
            }
        }
        m
    }

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::tesla_p100())
    }

    #[test]
    fn batched_equals_sequential_pairs_f32() {
        let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
        let refs: Vec<Mat> = (0..4).map(|i| unit_features(64, 10, 100 + i)).collect();
        let q = unit_features(64, 8, 999);
        let mut s = sim();
        let st = s.default_stream();

        let blocks: Vec<FeatureBlock> = refs.iter().map(|m| FeatureBlock::F32(m.clone())).collect();
        let refs_view: Vec<&FeatureBlock> = blocks.iter().collect();
        let cat = FeatureBlock::hconcat(&refs_view);
        let out = match_batch(&cfg, &cat, 4, 10, &FeatureBlock::F32(q.clone()), &mut s, st);

        for (b, block) in blocks.iter().enumerate() {
            let pair = match_pair(&cfg, block, &FeatureBlock::F32(q.clone()), &mut s, st);
            assert_eq!(out.scores[b], pair.score(), "block {b} score");
            for (j, t) in pair.top2.iter().enumerate() {
                let bt = &out.top2[b * 8 + j];
                assert_eq!(bt.idx, t.idx, "block {b} col {j}");
                assert!((bt.d1 - t.d1).abs() < 1e-5);
                assert!((bt.d2 - t.d2).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn batched_equals_sequential_pairs_f16() {
        let scale = 2.0_f32.powi(-7);
        let cfg = MatchConfig { precision: Precision::F16, scale, ..MatchConfig::default() };
        let refs: Vec<Mat> = (0..3).map(|i| unit_features(64, 12, 200 + i)).collect();
        let q = unit_features(64, 6, 555);
        let mut s = sim();
        let st = s.default_stream();

        let blocks: Vec<FeatureBlock> = refs
            .iter()
            .map(|m| FeatureBlock::from_mat(m.clone(), Precision::F16, scale))
            .collect();
        let refs_view: Vec<&FeatureBlock> = blocks.iter().collect();
        let cat = FeatureBlock::hconcat(&refs_view);
        let qb = FeatureBlock::from_mat(q, Precision::F16, scale);
        let out = match_batch(&cfg, &cat, 3, 12, &qb, &mut s, st);

        for (b, block) in blocks.iter().enumerate() {
            let pair = match_pair(&cfg, block, &qb, &mut s, st);
            assert_eq!(out.scores[b], pair.score(), "block {b}");
        }
    }

    #[test]
    fn batching_amortizes_fixed_costs() {
        // Table 3: per-image time collapses from ~174 µs to ~22 µs.
        let cfg = MatchConfig {
            precision: Precision::F16,
            exec: ExecMode::TimingOnly,
            ..MatchConfig::default()
        };
        let mut s = sim();
        let st = s.default_stream();
        let q = FeatureBlock::from_mat(unit_features(128, 768, 1), Precision::F16, cfg.scale);
        // Timing-only: build a cheap zero block with the right shape.
        let single = FeatureBlock::from_mat(Mat::zeros(128, 768), Precision::F16, cfg.scale);
        let b1 = match_batch(&cfg, &single, 1, 768, &q, &mut s, st);
        let big = FeatureBlock::from_mat(Mat::zeros(128, 768 * 256), Precision::F16, cfg.scale);
        let b256 = match_batch(&cfg, &big, 256, 768, &q, &mut s, st);
        assert!(
            b256.per_image_us() * 5.0 < b1.per_image_us(),
            "batching speedup too small: {} vs {}",
            b1.per_image_us(),
            b256.per_image_us()
        );
    }

    #[test]
    fn table3_batched_breakdown() {
        // Table 3, batch 1024 (per image): HGEMM 11.58, sort+sqrt 3.82,
        // D2H 2.72, post 3.85 ⇒ 21.96 µs ⇒ 45,539 img/s.
        let cfg = MatchConfig {
            precision: Precision::F16,
            exec: ExecMode::TimingOnly,
            ..MatchConfig::default()
        };
        let mut s = sim();
        let st = s.default_stream();
        let q = FeatureBlock::from_mat(Mat::zeros(128, 768), Precision::F16, cfg.scale);
        let big = FeatureBlock::from_mat(Mat::zeros(128, 768 * 1024), Precision::F16, cfg.scale);
        let out = match_batch(&cfg, &big, 1024, 768, &q, &mut s, st);
        let b = 1024.0;
        assert!((out.steps.gemm_us / b - 11.58).abs() / 11.58 < 0.10, "gemm {}", out.steps.gemm_us / b);
        assert!((out.steps.sort_us / b - 3.82).abs() / 3.82 < 0.10, "sort {}", out.steps.sort_us / b);
        assert!((out.steps.d2h_us / b - 2.72).abs() / 2.72 < 0.10, "d2h {}", out.steps.d2h_us / b);
        assert!((out.steps.post_us / b - 3.85).abs() / 3.85 < 0.05, "post {}", out.steps.post_us / b);
        let speed = out.images_per_second();
        assert!((speed - 45_539.0).abs() / 45_539.0 < 0.10, "speed {speed}");
    }

    #[test]
    fn fused_and_unfused_batches_are_bit_identical() {
        let scale = 2.0_f32.powi(-7);
        let q = unit_features(64, 9, 321);
        let refs: Vec<Mat> = (0..5).map(|i| unit_features(64, 11, 400 + i)).collect();
        let mut s = sim();
        let st = s.default_stream();
        for precision in [Precision::F32, Precision::F16] {
            let blocks: Vec<FeatureBlock> = refs
                .iter()
                .map(|m| FeatureBlock::from_mat(m.clone(), precision, scale))
                .collect();
            let refs_view: Vec<&FeatureBlock> = blocks.iter().collect();
            let cat = FeatureBlock::hconcat(&refs_view);
            let qb = FeatureBlock::from_mat(q.clone(), precision, scale);
            let base = MatchConfig { precision, scale, ..MatchConfig::default() };
            let fused = match_batch(
                &MatchConfig { fused: true, ..base }, &cat, 5, 11, &qb, &mut s, st,
            );
            let unfused = match_batch(
                &MatchConfig { fused: false, ..base }, &cat, 5, 11, &qb, &mut s, st,
            );
            assert_eq!(fused.scores, unfused.scores, "{precision:?} scores");
            assert_eq!(fused.top2, unfused.top2, "{precision:?} top-2 must be bit-identical");
        }
    }

    /// `MatchConfig::backend` reaches the unfused route too: `score_batch`
    /// packs both operands for it and the materialized GEMM runs on the
    /// packs' backend — a query packed for another one is refused, never
    /// silently repacked for whatever the process dispatches to.
    #[test]
    fn unfused_gemm_runs_on_the_configured_backend() {
        use texid_linalg::Backend;
        let r = FeatureBlock::F32(unit_features(32, 24, 1));
        let q = FeatureBlock::F32(unit_features(32, 10, 2));
        let f32_cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
        let reference = score_batch(&f32_cfg, &r, 2, 12, &q);
        for be in Backend::ALL {
            let cfg = MatchConfig {
                precision: Precision::F32,
                fused: false,
                backend: Some(be),
                ..MatchConfig::default()
            };
            let packed = r.pack_refs(cfg.kernel_backend());
            let effective = if be.is_available() { be } else { Backend::Scalar };
            assert_eq!(packed.panels.backend(), effective, "{be}: references");
            let unfused = score_batch(&cfg, &r, 2, 12, &q);
            assert_eq!(unfused.top2, reference.top2, "{be}: every backend gives the same bits");

            for other in Backend::ALL {
                let foreign = q.pack_query(other);
                if foreign.panels.backend() == effective {
                    continue;
                }
                let mixed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    score_batch_packed(&cfg, &packed, 2, 12, &foreign)
                }));
                assert!(mixed.is_err(), "{be} references accepted a {other} query");
            }
        }
    }

    /// Whether the unfused route narrows the product to f16 before the scan
    /// is a fact about the blocks — as the fused epilogue's quantize is — not
    /// about `cfg.precision`, which only prices the work.
    #[test]
    fn unfused_narrow_follows_the_blocks_precision_not_the_configs() {
        let scale = 2.0_f32.powi(-7);
        let (r, q) = (unit_features(64, 22, 7), unit_features(64, 9, 8));
        let (f16, f32) = (Precision::F16, Precision::F32);
        for (blocks, other) in [(f16, f32), (f32, f16)] {
            let rb = FeatureBlock::from_mat(r.clone(), blocks, scale);
            let qb = FeatureBlock::from_mat(q.clone(), blocks, scale);
            let run = |precision, fused| {
                let cfg = MatchConfig { precision, scale, fused, ..MatchConfig::default() };
                score_batch(&cfg, &rb, 2, 11, &qb).top2
            };
            let agreed = run(blocks, true);
            assert_eq!(run(blocks, false), agreed, "{blocks:?} blocks, matching config");
            assert_eq!(run(other, false), agreed, "{blocks:?} blocks under a {other:?} config");
            assert_eq!(run(other, true), agreed, "{blocks:?} blocks, fused, {other:?} config");
        }
        // And the narrow is not a no-op: F16 blocks scan f16-rounded values.
        let be = texid_linalg::active_backend();
        let r16 = FeatureBlock::from_mat(r, Precision::F16, scale).pack_refs(be);
        let q16 = FeatureBlock::from_mat(q, Precision::F16, scale).pack_query(be);
        let product = similarity_gemm(&r16, &q16).0;
        assert_ne!(
            scan_product(&product, Precision::F16, 2, 11),
            scan_product(&product, Precision::F32, 2, 11)
        );
    }

    #[test]
    fn sqrt_clamps_negative_noise() {
        // Rounding can leave `−2·rᵀq` of identical unit columns just below −2.
        let raw = [Top2 { idx: 0, d1: -2.0000005, d2: -2.0 }];
        let got = rootsift_distances(&raw, 1.0);
        assert_eq!((got[0].d1, got[0].d2), (0.0, 0.0));
    }

    #[test]
    fn empty_query_scores_zero_everywhere() {
        let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
        let mut s = sim();
        let st = s.default_stream();
        let r = FeatureBlock::F32(unit_features(16, 8, 1));
        let q = FeatureBlock::F32(Mat::zeros(16, 0));
        let out = match_batch(&cfg, &r, 2, 4, &q, &mut s, st);
        assert_eq!(out.scores, vec![0, 0]);
        assert!(out.top2.is_empty());
    }

    #[test]
    #[should_panic(expected = "only the RootSIFT pipeline")]
    fn non_rootsift_batching_rejected() {
        let cfg = MatchConfig {
            algorithm: Algorithm::CublasTop2,
            precision: Precision::F32,
            ..MatchConfig::default()
        };
        let mut s = sim();
        let st = s.default_stream();
        let r = FeatureBlock::F32(Mat::zeros(8, 4));
        let q = FeatureBlock::F32(Mat::zeros(8, 2));
        let _ = match_batch(&cfg, &r, 2, 2, &q, &mut s, st);
    }
}
