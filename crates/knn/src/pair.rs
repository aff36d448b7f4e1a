//! Single-pair 2-nearest-neighbors matching — Algorithms 1 and 2, plus the
//! two baselines, with per-step simulated timing (the rows of Table 1, priced
//! by [`BatchWork`]).

use crate::batched::{scale_sq, scan_product, score_batch_packed, similarity_gemm, BatchWork};
use crate::block::FeatureBlock;
use crate::ratio::{good_matches, FeatureMatch, RATIO_THRESHOLD};
use texid_gpu::{GpuSim, Precision, StreamId};
use texid_linalg::dispatch::{active_backend, Backend};
use texid_linalg::kernel::{gemm_top2_ex, FusedEpilogue};
use texid_linalg::mat::Mat;
use texid_linalg::norms::{add_row_norms, col_sq_norms};
use texid_linalg::top2::{sort_columns, top2_min_per_column, Top2};

/// Which matching implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// OpenCV's brute-force CUDA KNN (the paper's baseline, 2,012 img/s).
    OpenCvCuda,
    /// Garcia et al. cuBLAS KNN with the full modified-insertion column
    /// sort (Algorithm 1 as published in \[9\]).
    CublasFullSort,
    /// Algorithm 1 with the paper's register-resident top-2 scan (§4.1).
    CublasTop2,
    /// Algorithm 2: RootSIFT shortcut, no norm vectors (§5.1).
    RootSiftTop2,
}

/// IVF coarse-quantizer configuration (Johnson et al., billion-scale
/// similarity search): cluster pooled per-image descriptors with a seeded
/// k-means, keep an inverted file of reference batches per centroid, and
/// sweep only the batches posted in the top-`nprobe` probed cells.
///
/// The degenerate settings are exact by construction: with `enabled =
/// false` or `nprobe >= nlist` the engine skips the probe entirely and the
/// search is bit-identical to the exhaustive sweep — same match sets, same
/// simulated timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IvfParams {
    /// Route searches through the coarse quantizer once it is trained.
    pub enabled: bool,
    /// Number of k-means centroids (inverted-file cells).
    pub nlist: usize,
    /// Cells probed per query; `>= nlist` degenerates to exhaustive search.
    pub nprobe: usize,
    /// Seed for the deterministic k-means++ initialization.
    pub seed: u64,
    /// Lloyd-iteration cap for k-means training.
    pub train_iters: usize,
}

impl IvfParams {
    /// True when this configuration can actually skip batches: the index is
    /// on and probing fewer cells than exist.
    pub fn prunes(&self) -> bool {
        self.enabled && self.nprobe < self.nlist
    }
}

impl Default for IvfParams {
    /// Off by default; the committed (nlist, nprobe) matches `BENCH_ivf.json`.
    fn default() -> Self {
        IvfParams { enabled: false, nlist: 32, nprobe: 8, seed: 0x1f5eed, train_iters: 10 }
    }
}

/// Matching configuration.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Implementation variant.
    pub algorithm: Algorithm,
    /// Storage/GEMM precision.
    pub precision: Precision,
    /// FP16 scale factor (2⁻⁷ in the paper's deployment); ignored for F32.
    pub scale: f32,
    /// Use tensor cores where available.
    pub tensor_core: bool,
    /// Run the top-2 scan inside the GEMM epilogue (never materializing the
    /// `m × n` similarity matrix). Bit-identical results to the unfused
    /// pipeline; applies to the top-2 algorithms only — the full-sort
    /// baseline always materializes.
    ///
    /// `false` is a reference, not a mode to serve with: it is what the
    /// fused-vs-unfused bit-identity tests compare against and what the
    /// `packed` / `unfused_top2` rows of `texid bench kernels` time, and it
    /// writes the whole `m × n` product (37 MB for a 32-reference batch of
    /// 384 features against 768). No serving path (`texid serve`, the
    /// cluster, the benchmark's workloads) turns it off.
    pub fused: bool,
    /// IVF coarse-index settings (candidate pruning before the exact sweep).
    pub ivf: IvfParams,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            algorithm: Algorithm::RootSiftTop2,
            precision: Precision::F16,
            scale: 2.0_f32.powi(-7),
            tensor_core: false,
            fused: true,
            ivf: IvfParams::default(),
        }
    }
}

/// Per-step simulated durations (µs) — the execution-step rows of Table 1 /
/// Table 3.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepTimes {
    /// GEMM / HGEMM (or the whole monolithic OpenCV kernel).
    pub gemm_us: f64,
    /// Add `N_R` (Algorithm 1 step 4; zero in Algorithm 2).
    pub add_nr_us: f64,
    /// Top-2 scan or full column sort.
    pub sort_us: f64,
    /// Add `N_Q` + sqrt epilogue (merged steps 6–7; zero in Algorithm 2,
    /// where it fuses into the sort kernel).
    pub epilogue_us: f64,
    /// Device→host result copy.
    pub d2h_us: f64,
    /// CPU post-processing (ratio test, marshalling).
    pub post_us: f64,
}

impl StepTimes {
    /// Serial total (the paper's "Total time" row).
    pub fn total_us(&self) -> f64 {
        self.gemm_us + self.add_nr_us + self.sort_us + self.epilogue_us + self.d2h_us + self.post_us
    }

    /// Serial time per image when these steps cover `batch` references.
    pub fn per_image_us(&self, batch: usize) -> f64 {
        self.total_us() / batch as f64
    }

    /// Throughput implied by the serial total of one pair, images/s.
    pub fn images_per_second(&self) -> f64 {
        1e6 / self.total_us()
    }
}

/// Result of matching one reference against one query.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// Per-query-feature two nearest neighbours (Euclidean distances).
    pub top2: Vec<Top2>,
    /// Good matches surviving the ratio test.
    pub matches: Vec<FeatureMatch>,
    /// Per-step simulated durations (zero when only the scoring half ran).
    pub steps: StepTimes,
}

impl PairOutcome {
    /// Match score: the number of distinct (ratio-test) matches — the
    /// quantity compared against the identification threshold.
    pub fn score(&self) -> usize {
        self.matches.len()
    }
}

/// Match one reference feature block against one query block: the pair's
/// [`BatchWork`] — a batch of one — charged to the simulated device `sim` on
/// `stream`, and [`score_pair`]. A caller that wants only the timing prices
/// the shapes with [`BatchWork::price`] instead.
///
/// ```
/// use texid_gpu::{DeviceSpec, GpuSim, Precision};
/// use texid_knn::{match_pair, FeatureBlock, MatchConfig};
/// use texid_linalg::Mat;
///
/// // Two orthonormal reference features; query = the first one.
/// let r = Mat::from_col_major(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
/// let q = Mat::from_col_major(2, 1, vec![1.0, 0.0]);
/// let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
/// let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
/// let stream = sim.default_stream();
/// let out = match_pair(&cfg, &FeatureBlock::F32(r), &FeatureBlock::F32(q), &mut sim, stream);
/// assert_eq!(out.top2[0].idx, 0);         // nearest is the identical feature
/// assert!(out.top2[0].d1 < 1e-3);         // at distance ~0
/// assert_eq!(out.score(), 1);             // and it passes the ratio test
/// ```
///
/// # Panics
/// Panics if the blocks disagree in precision or descriptor dimension.
pub fn match_pair(
    cfg: &MatchConfig,
    r: &FeatureBlock,
    q: &FeatureBlock,
    sim: &mut GpuSim,
    stream: StreamId,
) -> PairOutcome {
    let scored = score_pair(cfg, r, q);
    let steps = BatchWork::new(cfg, 1, r.cols(), q.cols(), r.rows()).launch(sim, stream);
    PairOutcome { steps, ..scored }
}

/// The numerics of [`match_pair`] alone — the configured algorithm's top-2
/// and the ratio test, no device and no charge: what one-to-one
/// verification runs.
///
/// # Panics
/// Panics if the blocks disagree in precision or descriptor dimension.
pub fn score_pair(cfg: &MatchConfig, r: &FeatureBlock, q: &FeatureBlock) -> PairOutcome {
    assert_eq!(r.rows(), q.rows(), "descriptor dimension mismatch");
    let top2 = run_functional(cfg, active_backend(), r, q);
    let matches = good_matches(&top2, RATIO_THRESHOLD);
    PairOutcome { top2, matches, steps: StepTimes::default() }
}

/// The functional matching paths, packing for kernel backend `be`.
pub(crate) fn run_functional(
    cfg: &MatchConfig,
    be: Backend,
    r: &FeatureBlock,
    q: &FeatureBlock,
) -> Vec<Top2> {
    match cfg.algorithm {
        Algorithm::OpenCvCuda => {
            // Brute-force exact Euclidean distances, then a 2-selection —
            // numerically the reference answer.
            let rm = r.to_f32();
            let qm = q.to_f32();
            let m = rm.cols();
            let n = qm.cols();
            let mut dist = Mat::zeros(m, n);
            for j in 0..n {
                let qc = qm.col(j);
                for i in 0..m {
                    let rc = rm.col(i);
                    let d2: f32 = rc.iter().zip(qc).map(|(a, b)| (a - b).powi(2)).sum();
                    dist.set(i, j, d2.sqrt());
                }
            }
            top2_min_per_column(&dist, 1, m)
        }
        Algorithm::CublasFullSort | Algorithm::CublasTop2 => {
            // Algorithm 1: ρ² = N_R + N_Q − 2·RᵀQ.
            let n_r = col_sq_norms(&r.to_f32());
            let n_q = col_sq_norms(&q.to_f32());
            let (rp, qp) = (r.pack_refs(be), q.pack_query(be));

            let raw = if cfg.fused && cfg.algorithm == Algorithm::CublasTop2 {
                // Fused path: the unscale, N_R add, and (FP16) output
                // quantization all run in the GEMM epilogue; the m × n
                // similarity matrix never exists.
                let epi = FusedEpilogue {
                    scale: 1.0 / scale_sq(&rp, &qp),
                    row_bias: Some(&n_r),
                    quantize_f16: rp.precision == Precision::F16,
                };
                gemm_top2_ex(-2.0, &rp.panels, &qp.panels, &epi, 1, r.cols())
            } else {
                let (mut a, s2) = similarity_gemm(&rp, &qp);
                if s2 != 1.0 {
                    let inv = 1.0 / s2;
                    for v in a.as_mut_slice() {
                        *v *= inv;
                    }
                }
                add_row_norms(&mut a, &n_r);

                if cfg.algorithm == Algorithm::CublasFullSort {
                    let (sorted, idx) = sort_columns(&a);
                    (0..a.cols())
                        .map(|j| Top2 { idx: idx[j], d1: sorted.get(0, j), d2: sorted.get(1, j) })
                        .collect::<Vec<_>>()
                } else {
                    scan_product(&a, rp.precision, 1, r.cols())
                }
            };
            raw.iter()
                .zip(&n_q)
                .map(|(t, &nq)| Top2 {
                    idx: t.idx,
                    d1: (t.d1 + nq).max(0.0).sqrt(),
                    d2: (t.d2 + nq).max(0.0).sqrt(),
                })
                .collect()
        }
        // Algorithm 2, ρ = √(2 − 2·rᵀq) for unit-norm RootSIFT columns: a
        // pair is a batch of one.
        Algorithm::RootSiftTop2 => {
            score_batch_packed(cfg, &r.pack_refs(be), 1, r.cols(), &q.pack_query(be)).top2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_gpu::DeviceSpec;

    /// Unit-norm random-ish feature matrix (RootSIFT-like columns).
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

    fn f32_blocks(m: usize, n: usize) -> (FeatureBlock, FeatureBlock) {
        (
            FeatureBlock::F32(unit_features(128, m, 7)),
            FeatureBlock::F32(unit_features(128, n, 13)),
        )
    }

    fn cfg(algorithm: Algorithm, precision: Precision) -> MatchConfig {
        MatchConfig { algorithm, precision, ..MatchConfig::default() }
    }

    #[test]
    fn forced_backends_bit_identical_across_algorithms() {
        // The summation-order contract makes every kernel backend
        // bit-identical, so forcing any available backend must reproduce the
        // scalar results exactly — distances included, not just indices.
        let scale = 2.0_f32.powi(-7);
        let rm = unit_features(128, 37, 31);
        let qm = unit_features(128, 23, 41);
        for alg in [Algorithm::CublasTop2, Algorithm::RootSiftTop2] {
            for precision in [Precision::F32, Precision::F16] {
                let (r, q) = (
                    FeatureBlock::from_mat(rm.clone(), precision, scale),
                    FeatureBlock::from_mat(qm.clone(), precision, scale),
                );
                for fused in [true, false] {
                    let base = MatchConfig { scale, fused, ..cfg(alg, precision) };
                    let scalar = run_functional(&base, Backend::Scalar, &r, &q);
                    for be in texid_linalg::available_backends() {
                        let out = run_functional(&base, be, &r, &q);
                        for (a, b) in scalar.iter().zip(&out) {
                            assert_eq!(a.idx, b.idx, "{alg:?}/{precision:?}/{be} index");
                            assert_eq!(
                                a.d1.to_bits(),
                                b.d1.to_bits(),
                                "{alg:?}/{precision:?}/fused={fused}/{be} d1"
                            );
                            assert_eq!(
                                a.d2.to_bits(),
                                b.d2.to_bits(),
                                "{alg:?}/{precision:?}/fused={fused}/{be} d2"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_f32_algorithms_agree_on_nearest_neighbours() {
        let (r, q) = f32_blocks(40, 24);
        let mut s = p100();
        let st = s.default_stream();
        let base = match_pair(&cfg(Algorithm::OpenCvCuda, Precision::F32), &r, &q, &mut s, st);
        for alg in [Algorithm::CublasFullSort, Algorithm::CublasTop2, Algorithm::RootSiftTop2] {
            let out = match_pair(&cfg(alg, Precision::F32), &r, &q, &mut s, st);
            for (a, b) in base.top2.iter().zip(&out.top2) {
                assert_eq!(a.idx, b.idx, "{alg:?} nearest index diverged");
                assert!((a.d1 - b.d1).abs() < 1e-3, "{alg:?}: {} vs {}", a.d1, b.d1);
                assert!((a.d2 - b.d2).abs() < 1e-3, "{alg:?}");
            }
        }
    }

    #[test]
    fn f16_top2_close_to_f32() {
        let scale = 2.0_f32.powi(-7);
        let rm = unit_features(128, 30, 21);
        let qm = unit_features(128, 20, 22);
        let mut s = p100();
        let st = s.default_stream();
        let f32_out = match_pair(
            &cfg(Algorithm::RootSiftTop2, Precision::F32),
            &FeatureBlock::F32(rm.clone()),
            &FeatureBlock::F32(qm.clone()),
            &mut s,
            st,
        );
        let f16_out = match_pair(
            &MatchConfig { scale, ..cfg(Algorithm::RootSiftTop2, Precision::F16) },
            &FeatureBlock::from_mat(rm, Precision::F16, scale),
            &FeatureBlock::from_mat(qm, Precision::F16, scale),
            &mut s,
            st,
        );
        let mut agree = 0;
        for (a, b) in f32_out.top2.iter().zip(&f16_out.top2) {
            if a.idx == b.idx {
                agree += 1;
            }
            assert!((a.d1 - b.d1).abs() < 0.05, "{} vs {}", a.d1, b.d1);
        }
        assert!(agree >= 18, "only {agree}/20 nearest indices agree under FP16");
    }

    #[test]
    fn step_times_reproduce_table1_ours_f32() {
        // Table 1, cuBLAS (ours): GEMM 35.22, add N_R 8.94, top-2 40.20,
        // epilogue 4.71, D2H 47.32, post 12.6 ⇒ total 148.5 ⇒ 6,734 img/s.
        let t = BatchWork::new(&cfg(Algorithm::CublasTop2, Precision::F32), 1, 768, 768, 128)
            .price(&DeviceSpec::tesla_p100());
        assert!((t.gemm_us - 35.22).abs() / 35.22 < 0.10, "gemm {}", t.gemm_us);
        assert!((t.add_nr_us - 8.94).abs() / 8.94 < 0.10, "add_nr {}", t.add_nr_us);
        assert!((t.sort_us - 40.2).abs() / 40.2 < 0.10, "sort {}", t.sort_us);
        assert!((t.epilogue_us - 4.71).abs() / 4.71 < 0.10, "epi {}", t.epilogue_us);
        assert!((t.d2h_us - 47.32).abs() / 47.32 < 0.10, "d2h {}", t.d2h_us);
        let speed = t.images_per_second();
        assert!((speed - 6734.0).abs() / 6734.0 < 0.15, "speed {speed}");
    }

    #[test]
    fn full_sort_baseline_dominated_by_sorting() {
        // Table 1 [9]: sorting is 67% of the 330 µs total.
        let steps = BatchWork::new(&cfg(Algorithm::CublasFullSort, Precision::F32), 1, 768, 768, 128)
            .price(&DeviceSpec::tesla_p100());
        let frac = steps.sort_us / steps.total_us();
        assert!((frac - 0.67).abs() < 0.08, "sort fraction {frac}");
    }

    /// `match_pair` charges exactly what `BatchWork::price` states, to the
    /// bit, for every algorithm in both precisions (and `RootSiftTop2` on
    /// tensor cores), on a fresh device and on one whose clocks have moved:
    /// the price is a function of the shapes alone.
    #[test]
    fn match_pair_charges_exactly_the_batch_work_price() {
        let bits = |t: &StepTimes| {
            [t.gemm_us, t.add_nr_us, t.sort_us, t.epilogue_us, t.d2h_us, t.post_us].map(f64::to_bits)
        };
        let scale = 2.0_f32.powi(-7);
        let (rm, qm) = (unit_features(128, 24, 3), unit_features(128, 10, 4));
        let algorithms = [
            Algorithm::OpenCvCuda,
            Algorithm::CublasFullSort,
            Algorithm::CublasTop2,
            Algorithm::RootSiftTop2,
        ];
        let mut cases: Vec<(MatchConfig, DeviceSpec)> = algorithms
            .iter()
            .flat_map(|&alg| [Precision::F32, Precision::F16].map(|p| (alg, p)))
            .map(|(alg, p)| (MatchConfig { scale, ..cfg(alg, p) }, DeviceSpec::tesla_p100()))
            .collect();
        let tc = MatchConfig { scale, tensor_core: true, ..cfg(Algorithm::RootSiftTop2, Precision::F16) };
        cases.push((tc, DeviceSpec::tesla_v100()));
        for (c, spec) in cases {
            let r = FeatureBlock::from_mat(rm.clone(), c.precision, scale);
            let q = FeatureBlock::from_mat(qm.clone(), c.precision, scale);
            let price = bits(&BatchWork::new(&c, 1, 24, 10, 128).price(&spec));
            let mut s = GpuSim::new(spec);
            let st = s.default_stream();
            for run in ["fresh", "busy"] {
                let steps = match_pair(&c, &r, &q, &mut s, st).steps;
                assert_eq!(bits(&steps), price, "{:?}/{:?}, {run} device", c.algorithm, c.precision);
            }
        }
    }

    #[test]
    fn identical_blocks_match_strongly() {
        // Matching an image against itself: d1 ≈ 0 for every feature, and
        // the ratio test passes wherever d2 is meaningfully larger.
        let m = unit_features(128, 32, 5);
        let r = FeatureBlock::F32(m.clone());
        let q = FeatureBlock::F32(m);
        let mut s = p100();
        let st = s.default_stream();
        let out = match_pair(&cfg(Algorithm::RootSiftTop2, Precision::F32), &r, &q, &mut s, st);
        for (j, t) in out.top2.iter().enumerate() {
            assert_eq!(t.idx as usize, j, "self-match must find itself");
            // √(2 − 2·rᵀr) amplifies dot-product rounding: |2 − 2·dot| is
            // ~d·ε for unit columns at d = 128, so d1 lands near √(1e-5).
            assert!(t.d1 < 1e-2, "col {j}: d1 {}", t.d1);
        }
        assert!(out.score() > 25, "score {}", out.score());
    }

    #[test]
    fn fused_and_unfused_produce_identical_matches() {
        // The fused epilogue applies the same f32 ops in the same order as
        // the materialized pipeline, so results must be bit-identical —
        // same indices, same distances, same surviving match set.
        let scale = 2.0_f32.powi(-7);
        let rm = unit_features(128, 37, 71);
        let qm = unit_features(128, 29, 72);
        let mut s = p100();
        let st = s.default_stream();
        for alg in [Algorithm::CublasTop2, Algorithm::RootSiftTop2] {
            for precision in [Precision::F32, Precision::F16] {
                let base = MatchConfig { scale, ..cfg(alg, precision) };
                let r = FeatureBlock::from_mat(rm.clone(), precision, scale);
                let q = FeatureBlock::from_mat(qm.clone(), precision, scale);
                let fused =
                    match_pair(&MatchConfig { fused: true, ..base }, &r, &q, &mut s, st);
                let unfused =
                    match_pair(&MatchConfig { fused: false, ..base }, &r, &q, &mut s, st);
                for (a, b) in fused.top2.iter().zip(&unfused.top2) {
                    assert_eq!(a.idx, b.idx, "{alg:?}/{precision:?} index");
                    assert_eq!(a.d1, b.d1, "{alg:?}/{precision:?} d1 must be bit-identical");
                    assert_eq!(a.d2, b.d2, "{alg:?}/{precision:?} d2 must be bit-identical");
                }
                assert_eq!(fused.matches, unfused.matches, "{alg:?}/{precision:?} match set");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a precision")]
    fn mixed_precision_rejected() {
        let (r, q) = f32_blocks(8, 8);
        let q16 = FeatureBlock::from_mat(q.to_f32(), Precision::F16, 1.0);
        let mut s = p100();
        let st = s.default_stream();
        let _ = match_pair(&cfg(Algorithm::RootSiftTop2, Precision::F16), &r, &q16, &mut s, st);
    }
}
