//! From-scratch SURF (Bay et al. 2008) — the paper's 64-d alternative to
//! SIFT ("d is 128 [for SIFT], while d is 64 for SURF features", §4.1).
//!
//! Fast-Hessian detection on integral images (box-filter approximations of
//! the Gaussian second derivatives at growing filter sizes), sliding-sector
//! orientation assignment from Haar responses, and the classic 4×4 ×
//! (Σdx, Σ|dx|, Σdy, Σ|dy|) descriptor, L2-normalized — so the Algorithm 2
//! shortcut (`ρ² = 2 − 2·rᵀq`) applies to SURF features exactly as it does
//! to RootSIFT.

use crate::integral::IntegralImage;
use crate::keypoint::Keypoint;
use texid_image::GrayImage;
use texid_linalg::Mat;

/// SURF descriptor dimensionality.
pub const SURF_DIM: usize = 64;

/// SURF extraction configuration.
#[derive(Clone, Debug)]
pub struct SurfConfig {
    /// Keep at most this many features (top by Hessian response).
    pub max_features: usize,
    /// Octaves of filter sizes (each doubles the size step).
    pub n_octaves: usize,
    /// Fast-Hessian response threshold.
    pub hessian_threshold: f64,
    /// Double the image first so the smallest box filter reaches the fine
    /// scales SIFT's upscaled octave covers (≈4× the keypoint yield).
    pub upscale: bool,
}

impl Default for SurfConfig {
    fn default() -> Self {
        SurfConfig { max_features: 768, n_octaves: 3, hessian_threshold: 4e-5, upscale: true }
    }
}

/// Box-filter approximation of the scale-normalized Hessian determinant at
/// `(x, y)` with filter size `size` (a multiple of 3).
fn hessian_response(ii: &IntegralImage, x: isize, y: isize, size: isize) -> (f64, f64) {
    let l = size / 3;
    let b = (size - 1) / 2;
    let inv_area = 1.0 / (size as f64 * size as f64);

    // Dxx: full (2l−1)-row × size-col band minus 3× the middle l-wide box.
    let dxx = ii.box_sum(x - b, y - l + 1, x - b + size, y + l)
        - 3.0 * ii.box_sum(x - l / 2, y - l + 1, x - l / 2 + l, y + l);
    // Dyy: transpose of Dxx.
    let dyy = ii.box_sum(x - l + 1, y - b, x + l, y - b + size)
        - 3.0 * ii.box_sum(x - l + 1, y - l / 2, x + l, y - l / 2 + l);
    // Dxy: four l×l quadrant boxes.
    let dxy = ii.box_sum(x + 1, y - l, x + 1 + l, y) + ii.box_sum(x - l, y + 1, x, y + 1 + l)
        - ii.box_sum(x - l, y - l, x, y)
        - ii.box_sum(x + 1, y + 1, x + 1 + l, y + 1 + l);

    let (dxx, dyy, dxy) = (dxx * inv_area, dyy * inv_area, dxy * inv_area);
    let det = dxx * dyy - 0.81 * dxy * dxy;
    (det, dxx + dyy)
}

/// Filter sizes per octave: 9,15,21,27 / 15,27,39,51 / 27,51,75,99 …
fn octave_sizes(octave: usize) -> [isize; 4] {
    let step = 6 << octave; // 6, 12, 24, ...
    let base = if octave == 0 { 9 } else { 3 + (3 << octave) * 2 } as isize;
    // base: 9, 15, 27, 51 ... matches the standard ladder.
    [base, base + step as isize, base + 2 * step as isize, base + 3 * step as isize]
}

struct Candidate {
    x: usize,
    y: usize,
    size: isize,
    response: f64,
}

/// Detect Fast-Hessian keypoints.
fn detect(ii: &IntegralImage, cfg: &SurfConfig) -> Vec<Candidate> {
    let w = ii.width() as isize;
    let h = ii.height() as isize;

    let mut found = Vec::new();
    for octave in 0..cfg.n_octaves {
        let sizes = octave_sizes(octave);
        let step = 1isize << octave;
        let border = sizes[3] / 2 + 1;
        if w <= 2 * border || h <= 2 * border {
            continue;
        }

        // Response maps for the four filter sizes on this octave's grid.
        let gx = ((w - 2 * border) / step) as usize;
        let gy = ((h - 2 * border) / step) as usize;
        if gx < 3 || gy < 3 {
            continue;
        }
        let mut maps = Vec::with_capacity(4);
        for &size in &sizes {
            let mut map = vec![0.0f64; gx * gy];
            for iy in 0..gy {
                for ix in 0..gx {
                    let x = border + ix as isize * step;
                    let y = border + iy as isize * step;
                    let (det, _) = hessian_response(ii, x, y, size);
                    map[iy * gx + ix] = det;
                }
            }
            maps.push(map);
        }

        // 3×3×3 non-maximum suppression over the middle two levels.
        for level in 1..3usize {
            for iy in 1..gy - 1 {
                for ix in 1..gx - 1 {
                    let v = maps[level][iy * gx + ix];
                    if v < cfg.hessian_threshold {
                        continue;
                    }
                    let mut is_max = true;
                    'nms: for (dl, lvl_map) in maps[level - 1..=level + 1].iter().enumerate() {
                        for dy in -1isize..=1 {
                            for dx in -1isize..=1 {
                                if dl == 1 && dx == 0 && dy == 0 {
                                    continue;
                                }
                                let n = lvl_map
                                    [(iy as isize + dy) as usize * gx + (ix as isize + dx) as usize];
                                if n >= v {
                                    is_max = false;
                                    break 'nms;
                                }
                            }
                        }
                    }
                    if is_max {
                        found.push(Candidate {
                            x: (border + ix as isize * step) as usize,
                            y: (border + iy as isize * step) as usize,
                            size: sizes[level],
                            response: v,
                        });
                    }
                }
            }
        }
    }
    found
}

/// Dominant orientation via the sliding-sector maximum of Haar responses.
fn orientation(ii: &IntegralImage, x: isize, y: isize, scale: f64) -> f32 {
    let s = scale.round().max(1.0) as isize;
    let mut samples: Vec<(f64, f64, f64)> = Vec::new(); // (angle, dx, dy)
    for j in -6isize..=6 {
        for i in -6isize..=6 {
            if i * i + j * j > 36 {
                continue;
            }
            let px = x + i * s;
            let py = y + j * s;
            let dx = ii.haar_x(px, py, 4 * s);
            let dy = ii.haar_y(px, py, 4 * s);
            if dx == 0.0 && dy == 0.0 {
                continue;
            }
            // Gaussian weight σ = 2.5s over the (i, j) offset.
            let wgt = (-((i * i + j * j) as f64) / (2.0 * 2.5 * 2.5)).exp();
            samples.push((dy.atan2(dx), dx * wgt, dy * wgt));
        }
    }
    if samples.is_empty() {
        return 0.0;
    }
    // Slide a π/3 sector; pick the direction of the largest summed vector.
    let mut best = (0.0f64, 0.0f64);
    let mut best_norm = -1.0f64;
    let sector = std::f64::consts::FRAC_PI_3;
    for k in 0..42 {
        let a0 = -std::f64::consts::PI + k as f64 * (2.0 * std::f64::consts::PI / 42.0);
        let (mut sx, mut sy) = (0.0, 0.0);
        for &(ang, dx, dy) in &samples {
            let mut d = ang - a0;
            while d < 0.0 {
                d += 2.0 * std::f64::consts::PI;
            }
            if d < sector {
                sx += dx;
                sy += dy;
            }
        }
        let n = sx * sx + sy * sy;
        if n > best_norm {
            best_norm = n;
            best = (sx, sy);
        }
    }
    best.1.atan2(best.0) as f32
}

/// The 64-d SURF descriptor: 4×4 subregions of a 20s window, rotated into
/// the keypoint orientation, each contributing (Σdx', Σ|dx'|, Σdy', Σ|dy'|).
fn descriptor(ii: &IntegralImage, kp_x: f64, kp_y: f64, scale: f64, angle: f32) -> Option<[f32; SURF_DIM]> {
    let s = scale.max(1.0);
    let (sin_a, cos_a) = (angle as f64).sin_cos();

    // Reject windows leaving the image (edge-feature removal).
    let radius = 14.0 * s; // > 10·s√2 covers all rotations
    if kp_x - radius < 0.0
        || kp_y - radius < 0.0
        || kp_x + radius >= ii.width() as f64
        || kp_y + radius >= ii.height() as f64
    {
        return None;
    }

    let mut desc = [0.0f32; SURF_DIM];
    let haar_size = (2.0 * s).round().max(2.0) as isize;
    for sub_y in 0..4 {
        for sub_x in 0..4 {
            let (mut sdx, mut sadx, mut sdy, mut sady) = (0.0f64, 0.0, 0.0, 0.0);
            for sample_y in 0..5 {
                for sample_x in 0..5 {
                    // Sample position in the oriented keypoint frame, in
                    // units of s: the window spans [-10, 10).
                    let u = (sub_x * 5 + sample_x) as f64 - 10.0 + 0.5;
                    let v = (sub_y * 5 + sample_y) as f64 - 10.0 + 0.5;
                    let gx = kp_x + (cos_a * u - sin_a * v) * s;
                    let gy = kp_y + (sin_a * u + cos_a * v) * s;
                    let rx = ii.haar_x(gx.round() as isize, gy.round() as isize, haar_size);
                    let ry = ii.haar_y(gx.round() as isize, gy.round() as isize, haar_size);
                    // Rotate responses into the keypoint frame.
                    let dx = cos_a * rx + sin_a * ry;
                    let dy = -sin_a * rx + cos_a * ry;
                    // Gaussian weight σ = 3.3s over the frame offset.
                    let wgt = (-(u * u + v * v) / (2.0 * 3.3 * 3.3)).exp();
                    sdx += dx * wgt;
                    sadx += dx.abs() * wgt;
                    sdy += dy * wgt;
                    sady += dy.abs() * wgt;
                }
            }
            let base = (sub_y * 4 + sub_x) * 4;
            desc[base] = sdx as f32;
            desc[base + 1] = sadx as f32;
            desc[base + 2] = sdy as f32;
            desc[base + 3] = sady as f32;
        }
    }

    // L2 normalize (contrast invariance); degenerate windows are rejected.
    let norm: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm < 1e-9 {
        return None;
    }
    for v in &mut desc {
        *v /= norm;
    }
    Some(desc)
}

/// Run SURF on `image`, keeping the strongest `cfg.max_features` features.
/// Returns a `64 × m` feature matrix with unit-norm columns.
pub fn extract_surf(image: &GrayImage, cfg: &SurfConfig) -> crate::FeatureMatrix {
    let upscaled;
    let (work, coord_scale) = if cfg.upscale {
        upscaled = texid_image::filter::resize_bilinear(image, image.width() * 2, image.height() * 2);
        (&upscaled, 0.5f32)
    } else {
        (image, 1.0f32)
    };
    let ii = IntegralImage::build(work);
    let mut candidates = detect(&ii, cfg);
    candidates.sort_by(|a, b| b.response.partial_cmp(&a.response).expect("finite responses"));
    // Oversample before the descriptor stage: border rejection thins them.
    candidates.truncate(cfg.max_features * 2);

    let described: Vec<(Keypoint, [f32; SURF_DIM])> = candidates
        .iter()
        .filter_map(|c| {
            let scale = 1.2 * c.size as f64 / 9.0;
            let angle = orientation(&ii, c.x as isize, c.y as isize, scale);
            descriptor(&ii, c.x as f64, c.y as f64, scale, angle).map(|d| {
                (
                    Keypoint {
                        x: c.x as f32 * coord_scale,
                        y: c.y as f32 * coord_scale,
                        sigma: scale as f32 * coord_scale,
                        orientation: angle,
                        response: c.response as f32,
                        octave: 0,
                        interval: 0.0,
                        oct_x: c.x as f32, // working-image (possibly 2x) coords
                        oct_y: c.y as f32,
                    },
                    d,
                )
            })
        })
        .collect();

    let mut described = described;
    described.sort_by(|a, b| b.0.response.partial_cmp(&a.0.response).expect("finite"));
    described.truncate(cfg.max_features);

    let m = described.len();
    let mut keypoints = Vec::with_capacity(m);
    let mut data = Vec::with_capacity(m * SURF_DIM);
    for (kp, d) in described {
        keypoints.push(kp);
        data.extend_from_slice(&d);
    }
    crate::FeatureMatrix {
        keypoints,
        mat: Mat::from_col_major(SURF_DIM, m, data),
        rootsift: false, // L2-normalized, but not a Hellinger embedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_image::{CaptureCondition, TextureGenerator};

    fn texture(seed: u64) -> GrayImage {
        TextureGenerator::with_size(256).generate(seed)
    }

    #[test]
    fn filter_size_ladder() {
        assert_eq!(octave_sizes(0), [9, 15, 21, 27]);
        assert_eq!(octave_sizes(1), [15, 27, 39, 51]);
        assert_eq!(octave_sizes(2), [27, 51, 75, 99]);
    }

    #[test]
    fn blob_detected_at_matching_scale() {
        // A dark blob on bright ground is a Hessian maximum near its size.
        let im = GrayImage::from_fn(128, 128, |x, y| {
            let dx = x as f32 - 64.0;
            let dy = y as f32 - 64.0;
            0.8 - 0.6 * (-(dx * dx + dy * dy) / (2.0 * 6.0 * 6.0)).exp()
        });
        let ii = IntegralImage::build(&im);
        let cands = detect(&ii, &SurfConfig::default());
        assert!(!cands.is_empty(), "blob not detected");
        let best = cands
            .iter()
            .max_by(|a, b| a.response.partial_cmp(&b.response).unwrap())
            .unwrap();
        assert!(
            (best.x as f32 - 64.0).abs() < 6.0 && (best.y as f32 - 64.0).abs() < 6.0,
            "strongest response at ({}, {})",
            best.x,
            best.y
        );
    }

    #[test]
    fn textures_yield_plenty_of_features() {
        let f = extract_surf(&texture(1), &SurfConfig::default());
        assert!(f.len() >= 400, "only {} SURF features", f.len());
        assert_eq!(f.dim(), SURF_DIM);
    }

    #[test]
    fn descriptors_are_unit_norm_and_finite() {
        let f = extract_surf(&texture(2), &SurfConfig { max_features: 100, ..Default::default() });
        for i in 0..f.len() {
            let col = f.mat.col(i);
            assert!(col.iter().all(|v| v.is_finite()));
            let n: f32 = col.iter().map(|v| v * v).sum();
            assert!((n - 1.0).abs() < 1e-4, "column {i}: ‖·‖² = {n}");
        }
    }

    #[test]
    fn responses_sorted_descending() {
        let f = extract_surf(&texture(3), &SurfConfig { max_features: 64, ..Default::default() });
        for w in f.keypoints.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn deterministic() {
        let a = extract_surf(&texture(4), &SurfConfig::default());
        let b = extract_surf(&texture(4), &SurfConfig::default());
        assert_eq!(a.mat, b.mat);
    }

    #[test]
    fn surf_matches_identify_recaptures() {
        // End-to-end: a mild re-capture must match its own texture far more
        // strongly than an impostor, using the Algorithm 2 metric
        // (valid: SURF descriptors are unit vectors).
        use texid_linalg::kernel::gemm_at_b;
        use texid_linalg::top2::top2_min_per_column;

        let cfg = SurfConfig { max_features: 384, ..Default::default() };
        let ref_a = extract_surf(&texture(10), &cfg);
        let ref_b = extract_surf(&texture(11), &cfg);
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let q_img = CaptureCondition::mild(&mut rng).apply(&texture(10), 0);
        let q = extract_surf(&q_img, &SurfConfig { max_features: 768, ..Default::default() });
        assert!(q.len() > 200);

        let score = |r: &crate::FeatureMatrix| {
            let a = gemm_at_b(texid_linalg::active_backend(), -2.0, &r.mat, &q.mat);
            top2_min_per_column(&a, 1, a.rows())
                .iter()
                .filter(|t| {
                    let d1 = (2.0 + t.d1).max(0.0).sqrt();
                    let d2 = (2.0 + t.d2).max(0.0).sqrt();
                    d2 > 0.0 && d1 / d2 < 0.75
                })
                .count()
        };
        let genuine = score(&ref_a);
        let impostor = score(&ref_b);
        assert!(
            genuine >= 20 && genuine >= 5 * impostor.max(1),
            "SURF matching failed: genuine {genuine}, impostor {impostor}"
        );
    }

    #[test]
    fn flat_image_yields_nothing() {
        let im = GrayImage::filled(128, 128, 0.5);
        let f = extract_surf(&im, &SurfConfig::default());
        assert_eq!(f.len(), 0);
    }
}
