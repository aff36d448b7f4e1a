//! DoG extrema detection, sub-pixel refinement and edge rejection.

use crate::keypoint::Keypoint;
use crate::pyramid::Pyramid;
use texid_image::GrayImage;

/// Detection thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DetectParams {
    /// Minimum |DoG| at the refined extremum (Lowe's contrast threshold).
    pub contrast_threshold: f32,
    /// Maximum principal-curvature ratio `r` (Lowe uses 10): keypoints on
    /// edges with `tr²/det > (r+1)²/r` are rejected.
    pub edge_threshold: f32,
    /// Border margin (px, octave-local): extrema closer than this to the
    /// image edge are discarded — the paper's "edge feature removing".
    pub border: usize,
}

impl Default for DetectParams {
    fn default() -> Self {
        Self { contrast_threshold: 0.008, edge_threshold: 10.0, border: 5 }
    }
}

/// Is pixel `(x, y)` of `dogs[level]` a strict 26-neighbourhood extremum?
fn is_extremum(dogs: &[GrayImage], level: usize, x: usize, y: usize) -> bool {
    let v = dogs[level].get(x, y);
    // Early reject negligible responses before the 26 comparisons.
    if v.abs() < 1e-4 {
        return false;
    }
    let positive = v > 0.0;
    for (dl, im) in dogs[level - 1..=level + 1].iter().enumerate() {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if dl == 1 && dx == 0 && dy == 0 {
                    continue;
                }
                let n = im.get((x as isize + dx) as usize, (y as isize + dy) as usize);
                if positive {
                    if n >= v {
                        return false;
                    }
                } else if n <= v {
                    return false;
                }
            }
        }
    }
    true
}

/// Quadratic refinement result.
struct Refined {
    dx: f32,
    dy: f32,
    ds: f32,
    /// Interpolated |DoG| at the refined extremum.
    contrast: f32,
}

/// Fit a 3-D quadratic to the DoG neighbourhood and solve for the offset.
/// Returns `None` if the 3×3 Hessian is singular.
fn refine(dogs: &[GrayImage], level: usize, x: usize, y: usize) -> Option<Refined> {
    let d = |l: usize, xx: isize, yy: isize| -> f32 {
        dogs[l].get_clamped(x as isize + xx, y as isize + yy)
    };
    let v = d(level, 0, 0);

    // Gradient (first central differences).
    let gx = (d(level, 1, 0) - d(level, -1, 0)) * 0.5;
    let gy = (d(level, 0, 1) - d(level, 0, -1)) * 0.5;
    let gs = (d(level + 1, 0, 0) - d(level - 1, 0, 0)) * 0.5;

    // Hessian (second central differences).
    let hxx = d(level, 1, 0) + d(level, -1, 0) - 2.0 * v;
    let hyy = d(level, 0, 1) + d(level, 0, -1) - 2.0 * v;
    let hss = d(level + 1, 0, 0) + d(level - 1, 0, 0) - 2.0 * v;
    let hxy = (d(level, 1, 1) - d(level, -1, 1) - d(level, 1, -1) + d(level, -1, -1)) * 0.25;
    let hxs = (d(level + 1, 1, 0) - d(level + 1, -1, 0) - d(level - 1, 1, 0) + d(level - 1, -1, 0)) * 0.25;
    let hys = (d(level + 1, 0, 1) - d(level + 1, 0, -1) - d(level - 1, 0, 1) + d(level - 1, 0, -1)) * 0.25;

    // Solve H · δ = −g by Cramer's rule.
    let det = hxx * (hyy * hss - hys * hys) - hxy * (hxy * hss - hys * hxs)
        + hxs * (hxy * hys - hyy * hxs);
    if det.abs() < 1e-12 {
        return None;
    }
    let inv = 1.0 / det;
    let bx = -gx;
    let by = -gy;
    let bs = -gs;
    let dx = inv
        * (bx * (hyy * hss - hys * hys) - hxy * (by * hss - hys * bs)
            + hxs * (by * hys - hyy * bs));
    let dy = inv
        * (hxx * (by * hss - hys * bs) - bx * (hxy * hss - hys * hxs)
            + hxs * (hxy * bs - by * hxs));
    let ds = inv
        * (hxx * (hyy * bs - by * hys) - hxy * (hxy * bs - by * hxs)
            + bx * (hxy * hys - hyy * hxs));

    // Interpolated value: D(δ) = D + ½·gᵀδ.
    let contrast = v + 0.5 * (gx * dx + gy * dy + gs * ds);
    Some(Refined { dx, dy, ds, contrast: contrast.abs() })
}

/// Principal-curvature (edge) test on the 2-D Hessian.
fn passes_edge_test(dog: &GrayImage, x: usize, y: usize, edge_threshold: f32) -> bool {
    let d = |xx: isize, yy: isize| dog.get_clamped(x as isize + xx, y as isize + yy);
    let v = d(0, 0);
    let hxx = d(1, 0) + d(-1, 0) - 2.0 * v;
    let hyy = d(0, 1) + d(0, -1) - 2.0 * v;
    let hxy = (d(1, 1) - d(-1, 1) - d(1, -1) + d(-1, -1)) * 0.25;
    let tr = hxx + hyy;
    let det = hxx * hyy - hxy * hxy;
    if det <= 0.0 {
        return false; // saddle — curvature signs differ
    }
    let r = edge_threshold;
    tr * tr * r < (r + 1.0) * (r + 1.0) * det
}

/// Detect keypoints in every octave of `pyr`. Orientation is left at zero;
/// `orientation::assign_orientations` fills it in.
pub fn detect_keypoints(pyr: &Pyramid, params: &DetectParams) -> Vec<Keypoint> {
    let intervals = pyr.intervals;
    let mut found = Vec::new();
    for (o, oct) in pyr.octaves.iter().enumerate() {
        let w = oct.dogs[0].width();
        let h = oct.dogs[0].height();
        let b = params.border.max(1);
        if w <= 2 * b || h <= 2 * b {
            continue;
        }
        for level in 1..=intervals {
            for y in b..h - b {
                for x in b..w - b {
                    if !is_extremum(&oct.dogs, level, x, y) {
                        continue;
                    }
                    let Some(r) = refine(&oct.dogs, level, x, y) else {
                        continue;
                    };
                    // Reject unstable fits that want to move far away.
                    if r.dx.abs() > 0.6 || r.dy.abs() > 0.6 || r.ds.abs() > 0.6 {
                        continue;
                    }
                    if r.contrast < params.contrast_threshold {
                        continue;
                    }
                    if !passes_edge_test(&oct.dogs[level], x, y, params.edge_threshold) {
                        continue;
                    }
                    let oct_x = x as f32 + r.dx;
                    let oct_y = y as f32 + r.dy;
                    let interval = level as f32 + r.ds;
                    let scale_factor = pyr.octave_to_image_scale(o);
                    found.push(Keypoint {
                        x: oct_x * scale_factor,
                        y: oct_y * scale_factor,
                        sigma: pyr.abs_sigma(o, interval),
                        orientation: 0.0,
                        response: r.contrast,
                        octave: o,
                        interval,
                        oct_x,
                        oct_y,
                    });
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_image::{GrayImage, TextureGenerator};

    fn blob_image(cx: usize, cy: usize, sigma: f32) -> GrayImage {
        GrayImage::from_fn(96, 96, |x, y| {
            let dx = x as f32 - cx as f32;
            let dy = y as f32 - cy as f32;
            0.2 + 0.7 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
        })
    }

    #[test]
    fn detects_an_isolated_blob_near_its_centre() {
        let im = blob_image(48, 48, 4.0);
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        let kps = detect_keypoints(&pyr, &DetectParams::default());
        assert!(!kps.is_empty(), "no keypoints on a clean blob");
        let best = kps
            .iter()
            .max_by(|a, b| a.response.partial_cmp(&b.response).unwrap())
            .unwrap();
        assert!(
            (best.x - 48.0).abs() < 3.0 && (best.y - 48.0).abs() < 3.0,
            "strongest keypoint at ({}, {}) not at blob centre",
            best.x,
            best.y
        );
    }

    #[test]
    fn blob_scale_tracks_blob_size() {
        let small = blob_image(48, 48, 3.0);
        let large = blob_image(48, 48, 7.0);
        let find_scale = |im: &GrayImage| {
            let pyr = Pyramid::build(im, 4, 3, 1.6, 0.5);
            let kps = detect_keypoints(&pyr, &DetectParams::default());
            kps.iter()
                .max_by(|a, b| a.response.partial_cmp(&b.response).unwrap())
                .map(|k| k.sigma)
                .unwrap_or(0.0)
        };
        let s_small = find_scale(&small);
        let s_large = find_scale(&large);
        assert!(
            s_large > s_small,
            "scale selection failed: σ(small blob)={s_small}, σ(large blob)={s_large}"
        );
    }

    #[test]
    fn flat_image_has_no_keypoints() {
        let im = GrayImage::filled(96, 96, 0.5);
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        assert!(detect_keypoints(&pyr, &DetectParams::default()).is_empty());
    }

    #[test]
    fn textures_yield_hundreds_of_keypoints() {
        // The paper extracts 768 features per image; our synthetic textures
        // must produce a comfortable surplus at 256².
        let im = TextureGenerator::with_size(256).generate(1);
        let pyr = Pyramid::build_upscaled(&im, 4, 3, 1.6, 0.5);
        let kps = detect_keypoints(&pyr, &DetectParams::default());
        assert!(kps.len() >= 800, "only {} keypoints detected", kps.len());
    }

    #[test]
    fn contrast_threshold_filters() {
        let im = TextureGenerator::with_size(128).generate(2);
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        let loose = detect_keypoints(
            &pyr,
            &DetectParams { contrast_threshold: 0.004, ..Default::default() },
        );
        let strict = detect_keypoints(
            &pyr,
            &DetectParams { contrast_threshold: 0.04, ..Default::default() },
        );
        assert!(strict.len() < loose.len());
        for k in &strict {
            assert!(k.response >= 0.04);
        }
    }

    #[test]
    fn border_margin_respected() {
        let im = TextureGenerator::with_size(128).generate(3);
        let pyr = Pyramid::build(&im, 2, 3, 1.6, 0.5);
        let kps = detect_keypoints(
            &pyr,
            &DetectParams { border: 10, ..Default::default() },
        );
        for k in &kps {
            // Octave-local coordinates must honour the margin (±0.6 refine).
            assert!(k.oct_x >= 9.0 && k.oct_y >= 9.0, "{k:?}");
        }
    }

    #[test]
    fn straight_edge_is_rejected() {
        // A step edge produces strong DoG response but must fail the
        // curvature-ratio test.
        let im = GrayImage::from_fn(96, 96, |x, _| if x < 48 { 0.2 } else { 0.8 });
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        let kps = detect_keypoints(&pyr, &DetectParams::default());
        // Any surviving keypoints must not sit on the x=48 edge line.
        for k in &kps {
            assert!(
                (k.x - 48.0).abs() > 2.0,
                "edge keypoint survived curvature test at x={}",
                k.x
            );
        }
    }
}
