//! Accuracy evaluation harness — the tea-brick experiments at laptop scale.
//!
//! Builds a synthetic identification dataset (references = procedural
//! textures; queries = capture-condition re-images of a subset), runs the
//! full extract→match→score pipeline, and reports top-1 accuracy — the
//! paper's metric (§3.2). Also implements Eq. 2's FP16 compression error,
//! used for the Table 2 scale-factor sweep.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use texid_image::{CaptureCondition, TextureGenerator};
use texid_knn::{score_pair, FeatureBlock, MatchConfig};
use texid_linalg::kernel::gemm_at_b;
use texid_linalg::norms::col_sq_norms;
use texid_linalg::Mat;
use texid_sift::{extract, FeatureMatrix, SiftConfig};

/// How harshly queries are re-captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Small viewpoint/illumination changes (easy).
    Mild,
    /// Larger changes, occasional occlusion/defocus.
    Moderate,
    /// Strong viewpoint change, guaranteed occlusion, defocus, heavy noise
    /// — the regime where the feature budgets (m/n) bind.
    Severe,
}

/// Dataset construction parameters.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Number of reference textures.
    pub n_refs: usize,
    /// Number of queries (each a re-capture of reference `i % n_refs`).
    pub n_queries: usize,
    /// Texture resolution.
    pub image_size: usize,
    /// Features per reference (asymmetric m).
    pub m_ref: usize,
    /// Features per query (asymmetric n).
    pub n_query: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Query re-capture harshness.
    pub severity: Severity,
    /// Generate *sibling* textures (shared background, individual flakes) —
    /// the fine-grained regime where references genuinely confuse.
    pub fine_grained: bool,
    /// Apply the RootSIFT transform to descriptors (true = the paper's
    /// §5.1 path; false = plain SIFT for the ablation).
    pub rootsift: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            n_refs: 40,
            n_queries: 20,
            image_size: 256,
            m_ref: 384,
            n_query: 768,
            seed: 0x7e4b41c,
            severity: Severity::Mild,
            fine_grained: false,
            rootsift: true,
        }
    }
}

/// An extracted dataset: reference features + (query features, true id).
pub struct Dataset {
    /// Reference feature matrices, index = texture id.
    pub refs: Vec<FeatureMatrix>,
    /// Queries with ground-truth reference ids.
    pub queries: Vec<(FeatureMatrix, u64)>,
}

/// Build the dataset: generate textures, re-capture queries, extract SIFT.
pub fn build_dataset(cfg: &EvalConfig) -> Dataset {
    let gen = TextureGenerator {
        dataset_seed: cfg.seed,
        shared_background: cfg.fine_grained.then_some(0x5a5a),
        ..TextureGenerator::with_size(cfg.image_size)
    };
    let ref_sift =
        SiftConfig { max_features: cfg.m_ref, rootsift: cfg.rootsift, ..SiftConfig::default() };
    // Degraded captures yield fewer strong keypoints; like OpenCV deployed
    // on high-ISO phone photos, the query detector runs with a lower
    // contrast threshold so the requested n is actually available — which
    // is exactly what makes the query budget a real constraint (Table 7).
    let mut query_detect = texid_sift::detect::DetectParams::default();
    if cfg.severity == Severity::Severe {
        query_detect.contrast_threshold = 0.003;
    }
    let query_sift = SiftConfig {
        max_features: cfg.n_query,
        detect: query_detect,
        rootsift: cfg.rootsift,
        ..SiftConfig::default()
    };

    let refs: Vec<FeatureMatrix> = (0..cfg.n_refs as u64)
        .map(|id| extract(&gen.generate(id), &ref_sift))
        .collect();

    let queries: Vec<(FeatureMatrix, u64)> = (0..cfg.n_queries as u64)
        .map(|qi| {
            let true_id = qi % cfg.n_refs as u64;
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (qi.wrapping_mul(0x9e37_79b9)));
            let cond = match cfg.severity {
                Severity::Mild => CaptureCondition::mild(&mut rng),
                Severity::Moderate => CaptureCondition::moderate(&mut rng),
                Severity::Severe => CaptureCondition::severe(&mut rng),
            };
            let img = cond.apply(&gen.generate(true_id), cfg.seed ^ qi);
            (extract(&img, &query_sift), true_id)
        })
        .collect();

    Dataset { refs, queries }
}

/// Minimum good-match count for a positive identification (§3.1: "Only
/// when the number is higher than a pre-defined threshold can these two
/// images be considered with the same texture").
pub const MIN_MATCHES: usize = 10;

/// Run the identification task and return top-1 accuracy.
///
/// A query counts as correct only when the best-scoring reference is the
/// true one *and* its score clears [`MIN_MATCHES`] — the paper's decision
/// rule, which is what makes small feature budgets fail first.
///
/// The matcher configuration controls algorithm and precision, so the same
/// dataset sweeps Table 2 (scale factors) and Table 7 (asymmetric m/n —
/// pass datasets built with different `m_ref`/`n_query`).
pub fn top1_accuracy(dataset: &Dataset, matching: &MatchConfig) -> f64 {
    if dataset.queries.is_empty() {
        return 0.0;
    }
    let blocks: Vec<FeatureBlock> = dataset
        .refs
        .iter()
        .map(|f| FeatureBlock::from_mat(f.mat.clone(), matching.precision, matching.scale))
        .collect();

    let correct: usize = dataset
        .queries
        .iter()
        .map(|(qf, true_id)| {
            let qb = FeatureBlock::from_mat(qf.mat.clone(), matching.precision, matching.scale);
            let mut best = (0u64, 0usize);
            for (id, rb) in blocks.iter().enumerate() {
                let score = score_pair(matching, rb, &qb).score();
                if score > best.1 {
                    best = (id as u64, score);
                }
            }
            usize::from(best.0 == *true_id && best.1 >= MIN_MATCHES)
        })
        .sum();
    correct as f64 / dataset.queries.len() as f64
}

/// Eq. 2: mean relative FP16 compression error of the distance matrix over
/// one reference/query pair.
pub fn compression_error_pair(r: &Mat, q: &Mat, scale: f32) -> f64 {
    // Full-precision distances.
    let n_r = col_sq_norms(r);
    let n_q = col_sq_norms(q);
    let be = texid_linalg::active_backend();
    let a = gemm_at_b(be, -2.0, r, q);

    // FP16 distances: operands quantized at `scale`, accumulation f32.
    let r16 = r.to_f16_scaled(scale);
    let q16 = q.to_f16_scaled(scale);
    if r16.has_overflow() || q16.has_overflow() {
        return f64::INFINITY; // the paper reports these cells as "overflow"
    }
    let rq = r16.to_f32_unscaled(scale);
    let qq = q16.to_f32_unscaled(scale);
    let n_r16 = col_sq_norms(&rq);
    let n_q16 = col_sq_norms(&qq);
    let a16 = gemm_at_b(be, -2.0, &rq, &qq);

    let m = r.cols();
    let n = q.cols();
    // On device the whole pipeline stays 16-bit: the squared-distance
    // matrix the top-2 scan reads lives in the *scaled* domain
    // ((scale·‖r−q‖)², Algorithm 1 steps 3–5 in FP16). That matrix is the
    // dominant error source — it saturates near the f16 maximum at large
    // scales and sinks into subnormals at tiny ones (the paper's rising
    // error at 2⁻¹⁴/2⁻¹⁶).
    let s2 = scale * scale;
    let inv_s2 = 1.0 / s2;
    let mut acc = 0.0f64;
    let mut count = 0usize;
    for j in 0..n {
        for i in 0..m {
            let full = (n_r[i] + n_q[j] + a.get(i, j)).max(0.0).sqrt() as f64;
            let d2_scaled = (n_r16[i] + n_q16[j] + a16.get(i, j)).max(0.0) * s2;
            let half =
                (texid_linalg::F16::from_f32(d2_scaled).to_f32() * inv_s2).max(0.0).sqrt() as f64;
            if full > 1e-9 {
                acc += (full - half).abs() / full;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// Eq. 2 averaged over many reference/query pairs from the synthetic
/// dataset (the paper samples 1,000 tea-brick pairs).
pub fn compression_error(dataset: &Dataset, scale: f32, max_pairs: usize) -> f64 {
    let pairs: Vec<(&FeatureMatrix, &FeatureMatrix)> = dataset
        .queries
        .iter()
        .take(max_pairs)
        .map(|(q, true_id)| (&dataset.refs[*true_id as usize], q))
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .iter()
        .map(|(r, q)| compression_error_pair(&r.mat, &q.mat, scale))
        .sum();
    total / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_gpu::Precision;

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            n_refs: 8,
            n_queries: 6,
            image_size: 128,
            m_ref: 192,
            n_query: 384,
            seed: 0x5eed,
            severity: Severity::Mild,
            fine_grained: false,
            rootsift: true,
        }
    }

    fn matching_f32() -> MatchConfig {
        MatchConfig { precision: Precision::F32, ..MatchConfig::default() }
    }

    #[test]
    fn dataset_shapes() {
        let cfg = small_cfg();
        let ds = build_dataset(&cfg);
        assert_eq!(ds.refs.len(), 8);
        assert_eq!(ds.queries.len(), 6);
        for r in &ds.refs {
            assert!(r.len() <= 192);
            assert!(r.len() >= 150, "reference too sparse: {}", r.len());
        }
        for (q, id) in &ds.queries {
            assert!(q.len() <= 384);
            assert!(*id < 8);
        }
    }

    #[test]
    fn perfect_accuracy_on_mild_captures() {
        let ds = build_dataset(&small_cfg());
        let acc = top1_accuracy(&ds, &matching_f32());
        assert!(acc >= 0.99, "top-1 accuracy {acc}");
    }

    #[test]
    fn fp16_accuracy_matches_f32_at_good_scale() {
        let ds = build_dataset(&small_cfg());
        let f16 = MatchConfig {
            precision: Precision::F16,
            scale: 2.0_f32.powi(-7),
            ..MatchConfig::default()
        };
        assert!((top1_accuracy(&ds, &f16) - top1_accuracy(&ds, &matching_f32())).abs() < 0.01);
    }

    #[test]
    fn compression_error_small_at_paper_scale() {
        // Table 2: ~0.1% averaged compression error at 2⁻⁷.
        let ds = build_dataset(&small_cfg());
        let err = compression_error(&ds, 2.0_f32.powi(-7), 4);
        assert!(err < 0.01, "compression error {err}");
        assert!(err > 0.0);
    }

    #[test]
    fn compression_error_grows_at_tiny_scales() {
        let ds = build_dataset(&small_cfg());
        let mid = compression_error(&ds, 2.0_f32.powi(-7), 3);
        let tiny = compression_error(&ds, 2.0_f32.powi(-16), 3);
        assert!(tiny > mid, "{tiny} vs {mid}");
    }

    #[test]
    fn rootsift_features_never_overflow_at_unit_scale() {
        // RootSIFT components are in [0, 1]: far below the 65504 limit.
        let ds = build_dataset(&small_cfg());
        let features = || ds.refs.iter().chain(ds.queries.iter().map(|(q, _)| q));
        for scale in [1.0, 2.0_f32.powi(-7)] {
            assert!(!features().any(|f| f.mat.to_f16_scaled(scale).has_overflow()), "{scale}");
        }
    }
}
