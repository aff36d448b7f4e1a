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
//! the device against one batch, for every [`Algorithm`] — launched on a
//! [`GpuSim`] by the matchers, priced from shapes alone by the engine and
//! the paper benches — and [`score_batch_packed`] is the numerics, which
//! need no device and take both operands as the kernel's panels;
//! `cfg.fused` chooses, on those same panels, between the fused tile scan
//! and GEMM-then-scan. [`score_batch`] is pack-then-call and [`match_batch`]
//! is "charge + score". A single pair is a batch of one: `score_pair` under
//! `RootSiftTop2` is `score_batch(cfg, r, 1, r.cols(), q)` and `match_pair`
//! charges `BatchWork::new(cfg, 1, m, n, d)`, so Algorithm 2 is written here
//! and nowhere else, and so is every matcher's price.

use crate::block::{FeatureBlock, PackedBlock};
use crate::pair::{Algorithm, MatchConfig, StepTimes};
use crate::ratio::{count_good_matches, RATIO_THRESHOLD};
use texid_gpu::{cost, DeviceSpec, GpuSim, Kernel, Precision, StreamId};
use texid_linalg::kernel::{gemm_packed, gemm_top2_ex, FusedEpilogue, PackedA, PackedB};
use texid_linalg::mat::{Mat, MatF16};
use texid_linalg::top2::{top2_min_per_column, Top2};

/// Result of matching a batched reference block against one query.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// `scores[b]` = good-match count of reference `b`.
    pub scores: Vec<usize>,
    /// Per-(reference, query-feature) top-2, `top2[b * n + j]`.
    pub top2: Vec<Top2>,
    /// Per-step simulated durations for the whole batch (zero from the
    /// scoring half alone; [`StepTimes::per_image_us`] divides them).
    pub steps: StepTimes,
}

impl BatchOutcome {
    /// Every reference scores zero against a query with no features.
    fn degenerate(batch: usize) -> BatchOutcome {
        BatchOutcome { scores: vec![0; batch], top2: Vec::new(), steps: StepTimes::default() }
    }
}

/// Result bytes moved D2H per query feature: two distances (f32 after the
/// sqrt epilogue) + two keypoint indices (u32).
const D2H_BYTES_PER_QUERY_FEATURE: u64 = 2 * (4 + 4);

/// The device work one query costs against one batch — the rows of Tables 1
/// and 3, and the one place these shapes are written down for every
/// [`Algorithm`].
#[derive(Clone, Copy, Debug)]
pub struct BatchWork {
    /// The GEMM, add-`N_R`, sort and add-`N_Q`+√ kernels in launch order,
    /// `None` where the algorithm has no such step.
    kernels: [Option<Kernel>; 4],
    d2h_bytes: u64,
    post_images: usize,
}

impl BatchWork {
    /// `batch` references × `m_per_ref` features against `n` query features
    /// of dimension `d`, as `cfg`'s algorithm runs them in its precision.
    ///
    /// # Panics
    /// Panics if `batch > 1` under any algorithm but
    /// [`Algorithm::RootSiftTop2`] — exactly the variant the paper batches.
    pub fn new(cfg: &MatchConfig, batch: usize, m_per_ref: usize, n: usize, d: usize) -> BatchWork {
        assert!(
            batch == 1 || cfg.algorithm == Algorithm::RootSiftTop2,
            "only the RootSIFT pipeline is batched (as in the paper)"
        );
        let (m, precision) = (batch * m_per_ref, cfg.precision);
        let gemm =
            Kernel::Gemm { m_rows: m, n_cols: n, k_depth: d, precision, tensor_core: cfg.tensor_core };
        // One scan thread per (reference, query-feature) pair: batch × n
        // columns of m_per_ref rows — the ~0.8 M sorting tasks of §5.3.
        let top2 = Kernel::Top2Scan { m_rows: m_per_ref, n_cols: batch * n, precision };
        // Algorithm 1: ρ² = N_R + N_Q − 2·RᵀQ, sorted, then √ of the top 2.
        let algorithm1 = |sort| {
            let add_nr = Kernel::AddNorms { m_rows: m, n_cols: n };
            [Some(gemm), Some(add_nr), Some(sort), Some(Kernel::EpilogueSqrt { elems: 2 * n })]
        };
        let kernels = match cfg.algorithm {
            // One monolithic distance + k-select kernel.
            Algorithm::OpenCvCuda => [Some(Kernel::OpenCvBruteKnn { m, n, d }), None, None, None],
            Algorithm::CublasFullSort => algorithm1(Kernel::FullColumnSort { m_rows: m, n_cols: n }),
            Algorithm::CublasTop2 => algorithm1(top2),
            // Algorithm 2: no norms, and the √(2+A) epilogue fuses into the
            // sort (§5.1).
            Algorithm::RootSiftTop2 => [Some(gemm), None, Some(top2), None],
        };
        BatchWork {
            kernels,
            d2h_bytes: (batch * n) as u64 * D2H_BYTES_PER_QUERY_FEATURE,
            post_images: batch,
        }
    }

    /// The analytic price of this work on `spec`, no device involved.
    pub fn price(&self, spec: &DeviceSpec) -> StepTimes {
        let [gemm_us, add_nr_us, sort_us, epilogue_us] =
            self.kernels.map(|k| k.map_or(0.0, |k| cost::kernel_duration_us(spec, &k)));
        StepTimes {
            gemm_us,
            add_nr_us,
            sort_us,
            epilogue_us,
            d2h_us: cost::d2h_duration_us(spec, self.d2h_bytes),
            post_us: cost::cpu_post_us(spec, self.post_images),
        }
    }

    /// Enqueue this work on `sim`'s `stream`, advancing its clocks by exactly
    /// the durations [`BatchWork::price`] states, and return that price.
    pub(crate) fn launch(&self, sim: &mut GpuSim, stream: StreamId) -> StepTimes {
        let price = self.price(sim.spec());
        for kernel in self.kernels.into_iter().flatten() {
            sim.launch(stream, kernel);
        }
        sim.d2h(stream, self.d2h_bytes);
        sim.host_work(stream, price.post_us);
        price
    }
}

/// Match a pre-concatenated reference block (`batch` references of
/// `m_per_ref` features each) against a query block: [`score_batch`], and
/// the batch's [`BatchWork`] charged to `sim`.
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
    assert_eq!(
        cfg.algorithm,
        Algorithm::RootSiftTop2,
        "only the RootSIFT pipeline is batched (as in the paper)"
    );
    let scored = score_batch(cfg, r_cat, batch, m_per_ref, q);
    if q.cols() == 0 {
        // No features survived extraction: no device work worth charging.
        return scored;
    }
    let steps = BatchWork::new(cfg, batch, m_per_ref, q.cols(), q.rows()).launch(sim, stream);
    BatchOutcome { steps, ..scored }
}

/// The numerics of [`match_batch`] alone: Algorithm 2 over the batch and the
/// per-reference ratio test, no device and no charge (`cfg.algorithm` is not
/// consulted).
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
    finish(&raw, s2, batch, n)
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
pub fn rootsift_distances(raw: &[Top2], s2: f32) -> Vec<Top2> {
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
fn finish(raw: &[Top2], s2: f32, batch: usize, n: usize) -> BatchOutcome {
    let top2 = rootsift_distances(raw, s2);
    let scores = (0..batch)
        .map(|b| count_good_matches(&top2[b * n..(b + 1) * n], RATIO_THRESHOLD))
        .collect();
    BatchOutcome { scores, top2, steps: StepTimes::default() }
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

    fn p100() -> GpuSim {
        GpuSim::new(DeviceSpec::tesla_p100())
    }

    #[test]
    fn batched_equals_sequential_pairs_f32() {
        let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
        let refs: Vec<Mat> = (0..4).map(|i| unit_features(64, 10, 100 + i)).collect();
        let q = unit_features(64, 8, 999);
        let mut s = p100();
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
        let mut s = p100();
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
        let cfg = MatchConfig { precision: Precision::F16, ..MatchConfig::default() };
        let per_image =
            |batch| BatchWork::new(&cfg, batch, 768, 768, 128).price(&DeviceSpec::tesla_p100()).per_image_us(batch);
        let (b1, b256) = (per_image(1), per_image(256));
        assert!(b256 * 5.0 < b1, "batching speedup too small: {b1} vs {b256}");
    }

    #[test]
    fn table3_batched_breakdown() {
        // Table 3, batch 1024 (per image): HGEMM 11.58, sort+sqrt 3.82,
        // D2H 2.72, post 3.85 ⇒ 21.96 µs ⇒ 45,539 img/s.
        let cfg = MatchConfig { precision: Precision::F16, ..MatchConfig::default() };
        let steps = BatchWork::new(&cfg, 1024, 768, 768, 128).price(&DeviceSpec::tesla_p100());
        let b = 1024.0;
        assert!((steps.gemm_us / b - 11.58).abs() / 11.58 < 0.10, "gemm {}", steps.gemm_us / b);
        assert!((steps.sort_us / b - 3.82).abs() / 3.82 < 0.10, "sort {}", steps.sort_us / b);
        assert!((steps.d2h_us / b - 2.72).abs() / 2.72 < 0.10, "d2h {}", steps.d2h_us / b);
        assert!((steps.post_us / b - 3.85).abs() / 3.85 < 0.05, "post {}", steps.post_us / b);
        let speed = 1e6 / steps.per_image_us(1024);
        assert!((speed - 45_539.0).abs() / 45_539.0 < 0.10, "speed {speed}");
    }

    /// `match_batch` charges exactly `BatchWork::price`, to the bit, at batch
    /// 1 and 32, in both precisions and on tensor cores, on a fresh device
    /// and on one whose clocks have moved.
    #[test]
    fn match_batch_charges_exactly_the_batch_work_price() {
        let bits = |t: &StepTimes| {
            [t.gemm_us, t.add_nr_us, t.sort_us, t.epilogue_us, t.d2h_us, t.post_us].map(f64::to_bits)
        };
        let scale = 2.0_f32.powi(-7);
        let q = unit_features(128, 9, 5);
        let cases = [
            (Precision::F32, false, DeviceSpec::tesla_p100()),
            (Precision::F16, false, DeviceSpec::tesla_p100()),
            (Precision::F16, true, DeviceSpec::tesla_v100()),
        ];
        for (precision, tensor_core, spec) in cases {
            let cfg = MatchConfig { precision, scale, tensor_core, ..MatchConfig::default() };
            let qb = FeatureBlock::from_mat(q.clone(), precision, scale);
            for batch in [1, 32] {
                let r = FeatureBlock::from_mat(unit_features(128, batch * 6, 6), precision, scale);
                let price = bits(&BatchWork::new(&cfg, batch, 6, 9, 128).price(&spec));
                let mut s = GpuSim::new(spec.clone());
                let st = s.default_stream();
                for run in ["fresh", "busy"] {
                    let steps = match_batch(&cfg, &r, batch, 6, &qb, &mut s, st).steps;
                    assert_eq!(bits(&steps), price, "{precision:?}/tc={tensor_core}/b{batch}, {run}");
                }
            }
        }
    }

    #[test]
    fn fused_and_unfused_batches_are_bit_identical() {
        let scale = 2.0_f32.powi(-7);
        let q = unit_features(64, 9, 321);
        let refs: Vec<Mat> = (0..5).map(|i| unit_features(64, 11, 400 + i)).collect();
        let mut s = p100();
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
        let mut s = p100();
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
        let mut s = p100();
        let st = s.default_stream();
        let r = FeatureBlock::F32(Mat::zeros(8, 4));
        let q = FeatureBlock::F32(Mat::zeros(8, 2));
        let _ = match_batch(&cfg, &r, 2, 2, &q, &mut s, st);
    }

    #[test]
    #[should_panic(expected = "only the RootSIFT pipeline")]
    fn non_rootsift_batch_work_rejected() {
        let cfg = MatchConfig { algorithm: Algorithm::CublasFullSort, ..MatchConfig::default() };
        let _ = BatchWork::new(&cfg, 2, 768, 768, 128);
    }
}
