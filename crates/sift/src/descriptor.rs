//! The 128-d SIFT descriptor (4×4 spatial cells × 8 orientation bins).
//!
//! Computed on the keypoint's own Gaussian level, rotated into its dominant
//! orientation, with trilinear soft-binning and Lowe's 0.2 clamp +
//! renormalization. Matches the construction OpenCV's SIFT uses, which is
//! what the paper extracted its 768 features per image with.

use crate::keypoint::Keypoint;
use crate::pyramid::Pyramid;
use texid_image::filter::gradient_at;
use texid_image::GrayImage;

/// Descriptor dimensionality: 4 × 4 × 8.
pub const DESCRIPTOR_DIM: usize = 128;

const D: usize = 4; // spatial cells per side
const NBINS: usize = 8; // orientation bins per cell
const SCL_FCTR: f32 = 3.0; // cell width in units of keypoint sigma
const MAG_CLAMP: f32 = 0.2; // Lowe's illumination clamp

/// Compute the raw (un-rooted) SIFT descriptor for `kp` on Gaussian level
/// `img`. Returns `None` when the sampling window would leave the image —
/// the paper's edge-feature removal.
pub fn compute_descriptor(img: &GrayImage, kp: &Keypoint, oct_sigma: f32) -> Option<[f32; DESCRIPTOR_DIM]> {
    let hist_width = SCL_FCTR * oct_sigma;
    let radius = (hist_width * core::f32::consts::SQRT_2 * (D as f32 + 1.0) * 0.5).round() as isize;
    let cx = kp.oct_x;
    let cy = kp.oct_y;
    let xi = cx.round() as isize;
    let yi = cy.round() as isize;

    // Edge-feature removal: the full rotated window must fit inside the
    // image (1-px margin for the central-difference gradients).
    if xi - radius < 1
        || yi - radius < 1
        || xi + radius >= img.width() as isize - 1
        || yi + radius >= img.height() as isize - 1
    {
        return None;
    }

    let (sin_a, cos_a) = kp.orientation.sin_cos();
    // Gaussian weighting over the whole window, σ = half the window width.
    let exp_scale = -2.0 / (D as f32 * D as f32 * hist_width * hist_width);

    // Accumulate into a padded histogram so trilinear scatter needs no
    // bounds checks; orientation wraps, spatial pads are dropped.
    let mut hist = [[[0.0f32; NBINS]; D + 2]; D + 2];

    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let px = xi + dx;
            let py = yi + dy;
            // Rotate the offset into the keypoint frame and express it in
            // histogram cells (centre of the grid at (D/2 − 0.5)).
            let fx = px as f32 - cx;
            let fy = py as f32 - cy;
            let x_rot = (cos_a * fx + sin_a * fy) / hist_width;
            let y_rot = (-sin_a * fx + cos_a * fy) / hist_width;
            let r_bin = y_rot + D as f32 / 2.0 - 0.5;
            let c_bin = x_rot + D as f32 / 2.0 - 0.5;
            if !(-1.0..D as f32).contains(&r_bin) || !(-1.0..D as f32).contains(&c_bin) {
                continue;
            }

            let (gx, gy) = gradient_at(img, px as usize, py as usize);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag < 1e-12 {
                continue;
            }
            let w = ((x_rot * x_rot + y_rot * y_rot) * exp_scale).exp();
            let angle = gy.atan2(gx) - kp.orientation;
            let two_pi = 2.0 * core::f32::consts::PI;
            let mut o_bin = angle / two_pi * NBINS as f32;
            while o_bin < 0.0 {
                o_bin += NBINS as f32;
            }
            while o_bin >= NBINS as f32 {
                o_bin -= NBINS as f32;
            }

            // Trilinear soft-binning.
            let r0 = r_bin.floor();
            let c0 = c_bin.floor();
            let o0 = o_bin.floor();
            let fr = r_bin - r0;
            let fc = c_bin - c0;
            let fo = o_bin - o0;
            let r0 = r0 as isize;
            let c0 = c0 as isize;
            let o0 = o0 as usize;
            let v = w * mag;
            for (ri, rw) in [(r0, 1.0 - fr), (r0 + 1, fr)] {
                let row = (ri + 1) as usize; // pad offset
                if row > D + 1 {
                    continue;
                }
                for (ci, cw) in [(c0, 1.0 - fc), (c0 + 1, fc)] {
                    let col = (ci + 1) as usize;
                    if col > D + 1 {
                        continue;
                    }
                    for (oi, ow) in [(o0, 1.0 - fo), (o0 + 1, fo)] {
                        let ob = oi % NBINS;
                        hist[row][col][ob] += v * rw * cw * ow;
                    }
                }
            }
        }
    }

    // Collapse the padded grid into the 128-d vector (inner 4×4 cells only).
    let mut desc = [0.0f32; DESCRIPTOR_DIM];
    let mut k = 0;
    for row in &hist[1..=D] {
        for cell in &row[1..=D] {
            for &v in cell {
                desc[k] = v;
                k += 1;
            }
        }
    }

    // Normalize, clamp (illumination robustness), renormalize.
    normalize_l2(&mut desc);
    for v in &mut desc {
        *v = v.min(MAG_CLAMP);
    }
    normalize_l2(&mut desc);
    Some(desc)
}

fn normalize_l2(v: &mut [f32; DESCRIPTOR_DIM]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 1e-12 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// Compute descriptors for many keypoints, dropping keypoints whose
/// windows leave the image. Returns surviving `(keypoint, descriptor)`
/// pairs in input order.
pub fn compute_descriptors(
    pyr: &Pyramid,
    keypoints: &[Keypoint],
) -> Vec<(Keypoint, [f32; DESCRIPTOR_DIM])> {
    keypoints
        .iter()
        .filter_map(|kp| {
            let level = (kp.interval.round() as usize).clamp(0, pyr.intervals + 2);
            let img = &pyr.octaves[kp.octave].gaussians[level];
            let oct_sigma = kp.octave_sigma(pyr.sigma0, pyr.intervals);
            compute_descriptor(img, kp, oct_sigma).map(|d| (*kp, d))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_keypoints, DetectParams};
    use crate::orientation::assign_orientations;
    use texid_image::TextureGenerator;

    fn extract_all(seed: u64) -> Vec<(Keypoint, [f32; DESCRIPTOR_DIM])> {
        let im = TextureGenerator::with_size(128).generate(seed);
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        let kps = detect_keypoints(&pyr, &DetectParams::default());
        let kps = assign_orientations(&pyr, kps);
        compute_descriptors(&pyr, &kps)
    }

    #[test]
    fn descriptors_are_unit_length() {
        let descs = extract_all(20);
        assert!(!descs.is_empty());
        for (_, d) in &descs {
            let n: f32 = d.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "norm {n}");
        }
    }

    #[test]
    fn descriptors_are_clamped_nonnegative() {
        let descs = extract_all(21);
        for (_, d) in &descs {
            for &v in d.iter() {
                assert!(v >= 0.0);
                // After clamping at 0.2 and renormalizing, values can rise
                // slightly above 0.2 but stay well below 0.5.
                assert!(v < 0.5, "suspicious component {v}");
            }
        }
    }

    #[test]
    fn window_leaving_image_is_rejected() {
        let im = TextureGenerator::with_size(64).generate(22);
        let pyr = Pyramid::build(&im, 1, 3, 1.6, 0.5);
        let kp = Keypoint {
            x: 2.0,
            y: 2.0,
            sigma: 1.6,
            orientation: 0.0,
            response: 1.0,
            octave: 0,
            interval: 1.0,
            oct_x: 2.0,
            oct_y: 2.0,
        };
        assert!(compute_descriptor(&pyr.octaves[0].gaussians[1], &kp, 1.6).is_none());
    }

    #[test]
    fn deterministic() {
        let a = extract_all(23);
        let b = extract_all(23);
        assert_eq!(a.len(), b.len());
        for ((_, da), (_, db)) in a.iter().zip(&b) {
            assert_eq!(da, db);
        }
    }

    #[test]
    fn same_point_same_descriptor_under_no_change() {
        // Descriptor of identical images must be bitwise equal.
        let im = TextureGenerator::with_size(96).generate(24);
        let pyr1 = Pyramid::build(&im, 2, 3, 1.6, 0.5);
        let pyr2 = Pyramid::build(&im.clone(), 2, 3, 1.6, 0.5);
        let kps = assign_orientations(&pyr1, detect_keypoints(&pyr1, &DetectParams::default()));
        let d1 = compute_descriptors(&pyr1, &kps);
        let d2 = compute_descriptors(&pyr2, &kps);
        assert_eq!(d1.len(), d2.len());
        for ((_, a), (_, b)) in d1.iter().zip(&d2) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rotation_invariance_of_descriptor_space() {
        // Rotating an image should leave descriptor *distributions* similar:
        // for most keypoints in the rotated image there exists a close
        // descriptor in the original. This is the property 2-NN matching
        // relies on; exactness is not required.
        use texid_image::CaptureCondition;
        let im = TextureGenerator::with_size(128).generate(25);
        let rot = CaptureCondition { rotation_deg: 20.0, ..CaptureCondition::identity() }
            .apply(&im, 0);

        let extract = |im: &texid_image::GrayImage| {
            let pyr = Pyramid::build_upscaled(im, 3, 3, 1.6, 0.5);
            let kps = assign_orientations(&pyr, detect_keypoints(&pyr, &DetectParams::default()));
            compute_descriptors(&pyr, &kps)
        };
        let da = extract(&im);
        let db = extract(&rot);
        assert!(da.len() > 50 && db.len() > 50);

        // Count rotated descriptors whose nearest original descriptor is
        // close (L2 < 0.55, i.e. strongly correlated unit vectors).
        let close = db
            .iter()
            .take(150)
            .filter(|(_, q)| {
                da.iter().any(|(_, r)| {
                    let d2: f32 = r.iter().zip(q.iter()).map(|(a, b)| (a - b).powi(2)).sum();
                    d2.sqrt() < 0.55
                })
            })
            .count();
        let frac = close as f32 / db.len().min(150) as f32;
        assert!(frac > 0.3, "only {frac:.2} of rotated descriptors found a close match");
    }
}
