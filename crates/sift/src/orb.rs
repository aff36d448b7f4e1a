//! From-scratch ORB (Rublee et al. 2011) — the third extractor the paper's
//! pipeline admits ("SIFT \[17\], SURF \[2\], and ORB \[22\]", §3.1).
//!
//! oFAST detection (FAST-9 corners on an image pyramid, ranked by corner
//! score, oriented by the intensity centroid) + steered BRIEF: 256 binary
//! intensity comparisons from a fixed pattern, rotated into the keypoint
//! orientation, packed into 32 bytes.
//!
//! ORB descriptors are *binary*: matching uses Hamming distance
//! (`texid_knn::hamming`), not the paper's GEMM pipeline — which is exactly
//! why the paper stays with float descriptors: binary matching cannot ride
//! cuBLAS/tensor cores. The `ablation_sift_vs_surf` bench quantifies the
//! accuracy side of that trade.

use crate::keypoint::Keypoint;
use texid_image::filter::resize_bilinear;
use texid_image::GrayImage;

/// Words per descriptor: 256 bits.
pub const ORB_WORDS: usize = 8;

/// A set of ORB features: keypoints plus packed 256-bit descriptors.
#[derive(Clone, Debug)]
pub struct BinaryFeatures {
    /// Surviving keypoints, strongest first.
    pub keypoints: Vec<Keypoint>,
    /// `descriptors[i]` belongs to `keypoints[i]`.
    pub descriptors: Vec<[u32; ORB_WORDS]>,
}

impl BinaryFeatures {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }

    /// Payload bytes (32 per descriptor — 12× smaller than 384-feature
    /// FP16 SIFT columns).
    pub fn size_bytes(&self) -> usize {
        self.descriptors.len() * ORB_WORDS * 4
    }
}

/// ORB extraction configuration.
#[derive(Clone, Debug)]
pub struct OrbConfig {
    /// Keep at most this many features (top by corner score).
    pub max_features: usize,
    /// Pyramid levels (scale factor 1.2 between levels).
    pub n_levels: usize,
    /// FAST intensity threshold (pixels are in [0, 1]).
    pub fast_threshold: f32,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig { max_features: 768, n_levels: 6, fast_threshold: 0.04 }
    }
}

/// The 16 Bresenham-circle offsets of FAST, radius 3, clockwise from 12
/// o'clock.
const FAST_CIRCLE: [(isize, isize); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// FAST-9 segment test + score (sum of |difference| over the best arc).
/// Returns `None` when `(x, y)` is not a corner.
fn fast9_score(im: &GrayImage, x: usize, y: usize, t: f32) -> Option<f32> {
    let p = im.get(x, y);
    // 32-entry wrapped classification: +1 brighter, -1 darker, 0 similar.
    let mut class = [0i8; 32];
    let mut diff = [0.0f32; 32];
    for (i, (dx, dy)) in FAST_CIRCLE.iter().enumerate() {
        let v = im.get((x as isize + dx) as usize, (y as isize + dy) as usize);
        let d = v - p;
        let c = if d > t {
            1
        } else if d < -t {
            -1
        } else {
            0
        };
        class[i] = c;
        class[i + 16] = c;
        diff[i] = d.abs();
        diff[i + 16] = d.abs();
    }
    // Longest run of same non-zero class; track the strongest 9-run score.
    let mut best: Option<f32> = None;
    for sign in [1i8, -1i8] {
        let mut run = 0usize;
        let mut run_sum = 0.0f32;
        for i in 0..32 {
            if class[i] == sign {
                run += 1;
                run_sum += diff[i];
                if run >= 9 {
                    let score = run_sum / run as f32;
                    if best.is_none_or(|b| score > b) {
                        best = Some(score);
                    }
                }
            } else {
                run = 0;
                run_sum = 0.0;
            }
        }
    }
    best
}

/// Intensity-centroid orientation over a radius-`r` disc.
fn centroid_orientation(im: &GrayImage, x: usize, y: usize, r: isize) -> f32 {
    let mut m01 = 0.0f32;
    let mut m10 = 0.0f32;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy > r * r {
                continue;
            }
            let v = im.get_clamped(x as isize + dx, y as isize + dy);
            m10 += dx as f32 * v;
            m01 += dy as f32 * v;
        }
    }
    m01.atan2(m10)
}

/// Deterministic BRIEF pattern: 256 point pairs in a 31×31 patch, drawn
/// from a seeded triangular-ish distribution (the original BRIEF G-II
/// layout; OpenCV ships a learned table, but any fixed well-spread pattern
/// preserves the descriptor's behaviour).
fn brief_pattern() -> [([i8; 2], [i8; 2]); 256] {
    let mut state = 0x0b5e_55ed_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    let mut coord = move || -> i8 {
        // Sum of two uniforms in [-7, 7] gives a triangular spread in
        // [-14, 14], clamped to the patch radius 15.
        let a = (next() % 15) as i64 - 7;
        let b = (next() % 15) as i64 - 7;
        (a + b).clamp(-15, 15) as i8
    };
    let mut pat = [([0i8; 2], [0i8; 2]); 256];
    for p in &mut pat {
        *p = ([coord(), coord()], [coord(), coord()]);
    }
    pat
}

/// Steered BRIEF descriptor at an (octave-local) position.
fn brief_descriptor(
    im: &GrayImage,
    x: f32,
    y: f32,
    angle: f32,
    pattern: &[([i8; 2], [i8; 2]); 256],
) -> Option<[u32; ORB_WORDS]> {
    // The rotated pattern stays within radius ~22 (15·√2).
    let r = 23.0f32;
    if x - r < 0.0 || y - r < 0.0 || x + r >= im.width() as f32 || y + r >= im.height() as f32 {
        return None;
    }
    let (s, c) = angle.sin_cos();
    let mut out = [0u32; ORB_WORDS];
    for (bit, (a, b)) in pattern.iter().enumerate() {
        let rot = |p: [i8; 2]| -> f32 {
            let px = x + c * p[0] as f32 - s * p[1] as f32;
            let py = y + s * p[0] as f32 + c * p[1] as f32;
            im.sample_bilinear(px, py)
        };
        if rot(*a) < rot(*b) {
            out[bit / 32] |= 1 << (bit % 32);
        }
    }
    Some(out)
}

/// Hamming distance between two packed descriptors.
pub fn hamming(a: &[u32; ORB_WORDS], b: &[u32; ORB_WORDS]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Extract ORB features from `image`.
pub fn extract_orb(image: &GrayImage, cfg: &OrbConfig) -> BinaryFeatures {
    let pattern = brief_pattern();

    // Build the 1.2-factor pyramid.
    let mut levels = vec![image.clone()];
    for l in 1..cfg.n_levels {
        let scale = 1.2f32.powi(l as i32);
        let w = (image.width() as f32 / scale).round().max(32.0) as usize;
        let h = (image.height() as f32 / scale).round().max(32.0) as usize;
        levels.push(resize_bilinear(image, w, h));
    }

    // Detect + describe per level.
    let mut feats: Vec<(Keypoint, [u32; ORB_WORDS])> = Vec::new();
    for (l, im) in levels.iter().enumerate() {
        let scale = 1.2f32.powi(l as i32);
        let w = im.width();
        let h = im.height();
        if w < 64 || h < 64 {
            continue;
        }
        for y in 24..h - 24 {
            for x in 24..w - 24 {
                let Some(score) = fast9_score(im, x, y, cfg.fast_threshold) else {
                    continue;
                };
                // Cheap 3×3 non-max on the FAST score.
                let mut is_max = true;
                'nms: for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        if let Some(n) = fast9_score(
                            im,
                            (x as isize + dx) as usize,
                            (y as isize + dy) as usize,
                            cfg.fast_threshold,
                        ) {
                            if n > score {
                                is_max = false;
                                break 'nms;
                            }
                        }
                    }
                }
                if !is_max {
                    continue;
                }
                let angle = centroid_orientation(im, x, y, 15);
                let Some(desc) = brief_descriptor(im, x as f32, y as f32, angle, &pattern)
                else {
                    continue;
                };
                feats.push((
                    Keypoint {
                        x: x as f32 * scale,
                        y: y as f32 * scale,
                        sigma: scale,
                        orientation: angle,
                        response: score,
                        octave: l,
                        interval: 0.0,
                        oct_x: x as f32,
                        oct_y: y as f32,
                    },
                    desc,
                ));
            }
        }
    }

    feats.sort_by(|a, b| b.0.response.partial_cmp(&a.0.response).expect("finite scores"));
    feats.truncate(cfg.max_features);

    let mut keypoints = Vec::with_capacity(feats.len());
    let mut descriptors = Vec::with_capacity(feats.len());
    for (kp, d) in feats {
        keypoints.push(kp);
        descriptors.push(d);
    }
    BinaryFeatures { keypoints, descriptors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_image::TextureGenerator;

    fn texture(seed: u64) -> GrayImage {
        TextureGenerator::with_size(256).generate(seed)
    }

    #[test]
    fn fast_detects_a_synthetic_corner() {
        // A bright quadrant corner at (32, 32).
        let im = GrayImage::from_fn(64, 64, |x, y| {
            if x >= 32 && y >= 32 {
                0.9
            } else {
                0.1
            }
        });
        // A pixel just inside the bright quadrant sees ≥9 darker circle
        // pixels.
        assert!(fast9_score(&im, 33, 33, 0.1).is_some());
        // Deep inside a flat region: no corner.
        assert!(fast9_score(&im, 48, 48, 0.1).is_none());
        assert!(fast9_score(&im, 16, 16, 0.1).is_none());
    }

    #[test]
    fn orientation_points_at_bright_mass() {
        // Brightness increasing along +x ⇒ centroid to the right ⇒ θ ≈ 0.
        let im = GrayImage::from_fn(64, 64, |x, _| x as f32 / 64.0);
        let a = centroid_orientation(&im, 32, 32, 15);
        assert!(a.abs() < 0.1, "angle {a}");
        // Along +y ⇒ θ ≈ π/2.
        let im = GrayImage::from_fn(64, 64, |_, y| y as f32 / 64.0);
        let a = centroid_orientation(&im, 32, 32, 15);
        assert!((a - core::f32::consts::FRAC_PI_2).abs() < 0.1, "angle {a}");
    }

    #[test]
    fn textures_yield_plenty_of_orb_features() {
        let f = extract_orb(&texture(1), &OrbConfig::default());
        assert!(f.len() >= 500, "only {} ORB features", f.len());
        assert_eq!(f.keypoints.len(), f.descriptors.len());
        assert_eq!(f.size_bytes(), f.len() * 32);
    }

    #[test]
    fn scores_sorted_descending() {
        let f = extract_orb(&texture(2), &OrbConfig { max_features: 100, ..Default::default() });
        for w in f.keypoints.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn deterministic() {
        let a = extract_orb(&texture(3), &OrbConfig { max_features: 64, ..Default::default() });
        let b = extract_orb(&texture(3), &OrbConfig { max_features: 64, ..Default::default() });
        assert_eq!(a.descriptors, b.descriptors);
    }

    #[test]
    fn hamming_basics() {
        let zero = [0u32; ORB_WORDS];
        let ones = [u32::MAX; ORB_WORDS];
        assert_eq!(hamming(&zero, &zero), 0);
        assert_eq!(hamming(&zero, &ones), 256);
        let mut one_bit = zero;
        one_bit[3] = 1 << 7;
        assert_eq!(hamming(&zero, &one_bit), 1);
    }

    #[test]
    fn self_descriptors_are_bitwise_stable() {
        // The same keypoints on the same image reproduce identical bits —
        // and different textures give far-apart descriptors on average.
        let a = extract_orb(&texture(5), &OrbConfig { max_features: 50, ..Default::default() });
        let b = extract_orb(&texture(6), &OrbConfig { max_features: 50, ..Default::default() });
        let cross: u32 = a
            .descriptors
            .iter()
            .zip(&b.descriptors)
            .map(|(x, y)| hamming(x, y))
            .sum();
        let mean = cross as f32 / a.len().min(b.len()) as f32;
        // Unrelated binary descriptors average ~128 bits apart.
        assert!((90.0..170.0).contains(&mean), "mean cross distance {mean}");
    }
}
