//! Public extraction API: image → `FeatureMatrix` (`d × m`, column-major).
//!
//! Implements the paper's asymmetric extraction: the same detector runs for
//! reference and query images, but only the top-`max_features` keypoints by
//! detection response are kept (m = 384 for references, n = 768 for queries
//! in the paper's optimal configuration, Table 7).

use crate::descriptor::{compute_descriptors, DESCRIPTOR_DIM};
use crate::detect::{detect_keypoints, DetectParams};
use crate::keypoint::Keypoint;
use crate::orientation::assign_orientations;
use crate::pyramid::Pyramid;
use crate::rootsift::rootsift_inplace;
use texid_image::GrayImage;
use texid_linalg::Mat;

/// Extraction configuration.
#[derive(Clone, Debug)]
pub struct SiftConfig {
    /// Keep at most this many features (top by response). The paper's `m`
    /// for references, `n` for queries.
    pub max_features: usize,
    /// Pyramid octaves (clamped to the image size).
    pub n_octaves: usize,
    /// Scale samples per octave.
    pub intervals: usize,
    /// Base blur σ₀.
    pub sigma0: f32,
    /// Blur assumed already present in the input.
    pub assumed_blur: f32,
    /// Detector thresholds.
    pub detect: DetectParams,
    /// Apply the RootSIFT transform (true for the paper's Algorithm 2 path).
    pub rootsift: bool,
    /// Double the image before building the pyramid (Lowe's octave −1;
    /// roughly quadruples the keypoint yield).
    pub upscale: bool,
}

impl Default for SiftConfig {
    fn default() -> Self {
        Self {
            max_features: 768,
            n_octaves: 4,
            intervals: 3,
            sigma0: 1.6,
            assumed_blur: 0.5,
            detect: DetectParams::default(),
            rootsift: true,
            upscale: true,
        }
    }
}

impl SiftConfig {
    /// The paper's reference-image setting (asymmetric m).
    pub fn reference(m: usize) -> Self {
        Self { max_features: m, ..Self::default() }
    }

    /// The paper's query-image setting (asymmetric n).
    pub fn query(n: usize) -> Self {
        Self { max_features: n, ..Self::default() }
    }
}

/// Extracted local features of one image: keypoints plus the `d × m`
/// column-major descriptor matrix consumed by the matching engines.
#[derive(Clone, Debug)]
pub struct FeatureMatrix {
    /// Surviving keypoints, one per descriptor column, sorted by descending
    /// detection response.
    pub keypoints: Vec<Keypoint>,
    /// `128 × m` descriptor matrix; column `i` belongs to `keypoints[i]`.
    pub mat: Mat,
    /// Whether descriptors were RootSIFT-transformed (hence L2-normalized).
    pub rootsift: bool,
}

impl FeatureMatrix {
    /// Number of features (columns).
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// True when no features were extracted.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }

    /// Descriptor dimensionality (always 128 for SIFT).
    pub fn dim(&self) -> usize {
        self.mat.rows()
    }

    /// Keep only the first `k` (strongest) features — the paper's
    /// asymmetric truncation applied after extraction, used to sweep m/n
    /// from a single extraction pass (Table 7).
    pub fn truncated(&self, k: usize) -> FeatureMatrix {
        let k = k.min(self.len());
        FeatureMatrix {
            keypoints: self.keypoints[..k].to_vec(),
            mat: Mat::from_col_major(
                self.dim(),
                k,
                self.mat.as_slice()[..self.dim() * k].to_vec(),
            ),
            rootsift: self.rootsift,
        }
    }

    /// Build directly from a descriptor matrix (used by tests and synthetic
    /// pipelines that bypass the detector).
    pub fn from_mat(mat: Mat, rootsift: bool) -> Self {
        let kp = Keypoint {
            x: 0.0,
            y: 0.0,
            sigma: 1.6,
            orientation: 0.0,
            response: 0.0,
            octave: 0,
            interval: 0.0,
            oct_x: 0.0,
            oct_y: 0.0,
        };
        FeatureMatrix { keypoints: vec![kp; mat.cols()], mat, rootsift }
    }
}

/// Run the full SIFT pipeline on `image` and keep the strongest
/// `config.max_features` features.
pub fn extract(image: &GrayImage, config: &SiftConfig) -> FeatureMatrix {
    let _span = texid_obs::Span::enter("extract");
    let pyr = if config.upscale {
        Pyramid::build_upscaled(
            image,
            config.n_octaves,
            config.intervals,
            config.sigma0,
            config.assumed_blur,
        )
    } else {
        Pyramid::build(
            image,
            config.n_octaves,
            config.intervals,
            config.sigma0,
            config.assumed_blur,
        )
    };
    let kps = detect_keypoints(&pyr, &config.detect);
    let kps = assign_orientations(&pyr, kps);
    let mut described = compute_descriptors(&pyr, &kps);

    // Asymmetric selection: strongest responses first, truncate to m.
    described.sort_by(|a, b| b.0.response.partial_cmp(&a.0.response).expect("finite responses"));
    described.truncate(config.max_features);

    let m = described.len();
    let mut keypoints = Vec::with_capacity(m);
    let mut data = Vec::with_capacity(m * DESCRIPTOR_DIM);
    for (kp, mut desc) in described {
        if config.rootsift {
            rootsift_inplace(&mut desc);
        }
        keypoints.push(kp);
        data.extend_from_slice(&desc);
    }
    FeatureMatrix {
        keypoints,
        mat: Mat::from_col_major(DESCRIPTOR_DIM, m, data),
        rootsift: config.rootsift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_image::TextureGenerator;

    fn texture(seed: u64, size: usize) -> GrayImage {
        TextureGenerator::with_size(size).generate(seed)
    }

    #[test]
    fn extracts_requested_feature_count() {
        let im = texture(30, 256);
        let f = extract(&im, &SiftConfig { max_features: 256, ..Default::default() });
        assert_eq!(f.len(), 256);
        assert_eq!(f.dim(), 128);
        assert_eq!(f.mat.cols(), 256);
    }

    #[test]
    fn responses_sorted_descending() {
        let im = texture(31, 128);
        let f = extract(&im, &SiftConfig { max_features: 100, ..Default::default() });
        for w in f.keypoints.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn asymmetric_reference_is_prefix_of_query_selection() {
        // With the same detector, the top-128 reference features must be
        // exactly the first 128 of the top-256 query features.
        let im = texture(32, 192);
        let r = extract(&im, &SiftConfig::reference(128));
        let q = extract(&im, &SiftConfig::query(256));
        assert!(q.len() >= r.len());
        for i in 0..r.len() {
            assert_eq!(r.keypoints[i], q.keypoints[i]);
            assert_eq!(r.mat.col(i), q.mat.col(i));
        }
    }

    #[test]
    fn rootsift_columns_are_unit_norm() {
        let im = texture(33, 128);
        let f = extract(&im, &SiftConfig::default());
        assert!(f.rootsift);
        for i in 0..f.len() {
            let n: f32 = f.mat.col(i).iter().map(|v| v * v).sum();
            assert!((n - 1.0).abs() < 1e-4, "column {i}: ‖·‖² = {n}");
        }
    }

    #[test]
    fn plain_sift_columns_also_unit_norm_by_construction() {
        // Lowe's descriptor is L2-normalized even without RootSIFT; the
        // difference is the metric, not the norm.
        let im = texture(34, 128);
        let f = extract(&im, &SiftConfig { rootsift: false, ..Default::default() });
        for i in 0..f.len().min(10) {
            let n: f32 = f.mat.col(i).iter().map(|v| v * v).sum();
            assert!((n - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn enough_features_for_paper_settings() {
        // The paper needs 768 features per 256²-ish image.
        let im = texture(35, 256);
        let f = extract(&im, &SiftConfig { max_features: 768, ..Default::default() });
        assert!(
            f.len() >= 700,
            "only {} features; the synthetic textures must be richer",
            f.len()
        );
    }

    #[test]
    fn size_accounting() {
        let im = texture(36, 128);
        let f = extract(&im, &SiftConfig { max_features: 64, ..Default::default() });
        assert_eq!(f.mat.size_bytes(), f.len() * 128 * 4);
    }

    #[test]
    fn truncated_keeps_strongest_prefix() {
        let im = texture(37, 128);
        let f = extract(&im, &SiftConfig { max_features: 100, ..Default::default() });
        let t = f.truncated(40);
        assert_eq!(t.len(), 40);
        assert_eq!(t.mat.col(39), f.mat.col(39));
        assert_eq!(t.keypoints[0], f.keypoints[0]);
        // Truncating beyond length is a no-op.
        assert_eq!(f.truncated(10_000).len(), f.len());
    }

    #[test]
    fn from_mat_synthesizes_keypoints() {
        let mat = Mat::zeros(128, 5);
        let f = FeatureMatrix::from_mat(mat, true);
        assert_eq!(f.len(), 5);
    }
}
