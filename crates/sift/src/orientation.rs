//! Dominant-orientation assignment (Lowe §5).
//!
//! A 36-bin gradient-orientation histogram is accumulated in a Gaussian
//! window of 1.5σ around each keypoint (in its own octave/level), smoothed,
//! and the peak — refined by parabolic interpolation — becomes the keypoint
//! orientation. Secondary peaks above 80% of the maximum spawn duplicate
//! keypoints, exactly as in Lowe's implementation.

use crate::keypoint::Keypoint;
use crate::pyramid::Pyramid;
use texid_image::filter::gradient_at;
use texid_image::GrayImage;

const BINS: usize = 36;

/// Histogram for one keypoint, computed on `img` (its Gaussian level).
fn orientation_histogram(img: &GrayImage, kp: &Keypoint, oct_sigma: f32) -> [f32; BINS] {
    let mut hist = [0.0f32; BINS];
    let sigma_w = 1.5 * oct_sigma;
    let radius = (3.0 * sigma_w).round().max(1.0) as isize;
    let cx = kp.oct_x;
    let cy = kp.oct_y;
    let denom = 2.0 * sigma_w * sigma_w;

    let xi = cx.round() as isize;
    let yi = cy.round() as isize;
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let px = xi + dx;
            let py = yi + dy;
            if px < 1 || py < 1 || px >= img.width() as isize - 1 || py >= img.height() as isize - 1
            {
                continue;
            }
            let (gx, gy) = gradient_at(img, px as usize, py as usize);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag < 1e-9 {
                continue;
            }
            let fx = px as f32 - cx;
            let fy = py as f32 - cy;
            let w = (-(fx * fx + fy * fy) / denom).exp();
            let angle = gy.atan2(gx); // (-π, π]
            let mut bin =
                ((angle + core::f32::consts::PI) / (2.0 * core::f32::consts::PI) * BINS as f32)
                    .floor() as isize;
            if bin >= BINS as isize {
                bin = 0;
            }
            hist[bin as usize] += w * mag;
        }
    }

    // Two passes of circular [1 4 6 4 1]/16-ish smoothing (Lowe smooths 6×
    // with a box; two binomial passes are equivalent enough and cheaper).
    for _ in 0..2 {
        let snapshot = hist;
        for i in 0..BINS {
            let prev = snapshot[(i + BINS - 1) % BINS];
            let next = snapshot[(i + 1) % BINS];
            hist[i] = 0.25 * prev + 0.5 * snapshot[i] + 0.25 * next;
        }
    }
    hist
}

/// Convert a histogram bin (with parabolic offset) back to radians.
fn bin_to_angle(bin: f32) -> f32 {
    let two_pi = 2.0 * core::f32::consts::PI;
    let mut a = bin / BINS as f32 * two_pi - core::f32::consts::PI;
    if a <= -core::f32::consts::PI {
        a += two_pi;
    }
    if a > core::f32::consts::PI {
        a -= two_pi;
    }
    a
}

/// Assign orientations; keypoints with secondary peaks ≥ `0.8·max` are
/// duplicated (one per orientation). Returns the expanded keypoint list.
pub fn assign_orientations(pyr: &Pyramid, keypoints: Vec<Keypoint>) -> Vec<Keypoint> {
    let mut out = Vec::with_capacity(keypoints.len());
    for kp in keypoints {
        let level = (kp.interval.round() as usize).clamp(0, pyr.intervals + 2);
        let img = &pyr.octaves[kp.octave].gaussians[level];
        let oct_sigma = kp.octave_sigma(pyr.sigma0, pyr.intervals);
        let hist = orientation_histogram(img, &kp, oct_sigma);
        let max = hist.iter().cloned().fold(0.0f32, f32::max);
        let first = out.len();
        // A flat window (`max` 0) has no peak.
        if max > 0.0 {
            for i in 0..BINS {
                let prev = hist[(i + BINS - 1) % BINS];
                let next = hist[(i + 1) % BINS];
                if hist[i] >= 0.8 * max && hist[i] > prev && hist[i] > next {
                    // Parabolic peak interpolation.
                    let denom = prev - 2.0 * hist[i] + next;
                    let offset = if denom.abs() < 1e-12 {
                        0.0
                    } else {
                        0.5 * (prev - next) / denom
                    };
                    let angle = bin_to_angle(i as f32 + 0.5 + offset);
                    out.push(Keypoint { orientation: angle, ..kp });
                }
            }
        }
        // No peak: keep the keypoint with zero orientation.
        if out.len() == first {
            out.push(kp);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_keypoints, DetectParams};
    use texid_image::TextureGenerator;

    /// Build a keypoint at the centre of a synthetic gradient patch.
    fn centred_keypoint() -> Keypoint {
        Keypoint {
            x: 32.0,
            y: 32.0,
            sigma: 1.6,
            orientation: 0.0,
            response: 1.0,
            octave: 0,
            interval: 1.0,
            oct_x: 32.0,
            oct_y: 32.0,
        }
    }

    #[test]
    fn ramp_gradient_gives_expected_orientation() {
        // Intensity increasing along +x ⇒ gradient points along +x ⇒ angle 0.
        let img = GrayImage::from_fn(64, 64, |x, _| x as f32 * 0.01);
        let hist = orientation_histogram(&img, &centred_keypoint(), 1.6);
        let peak = hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let angle = bin_to_angle(peak as f32 + 0.5);
        assert!(angle.abs() < 0.3, "expected ~0 rad, got {angle}");
    }

    #[test]
    fn vertical_ramp_gives_quarter_turn() {
        let img = GrayImage::from_fn(64, 64, |_, y| y as f32 * 0.01);
        let hist = orientation_histogram(&img, &centred_keypoint(), 1.6);
        let peak = hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let angle = bin_to_angle(peak as f32 + 0.5);
        assert!((angle - core::f32::consts::FRAC_PI_2).abs() < 0.3, "got {angle}");
    }

    #[test]
    fn orientations_in_principal_range() {
        let im = TextureGenerator::with_size(128).generate(9);
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        let kps = detect_keypoints(&pyr, &DetectParams::default());
        let oriented = assign_orientations(&pyr, kps);
        assert!(!oriented.is_empty());
        for k in &oriented {
            assert!(
                k.orientation > -core::f32::consts::PI - 1e-5
                    && k.orientation <= core::f32::consts::PI + 1e-5
            );
        }
    }

    #[test]
    fn duplicates_only_add_orientations() {
        let im = TextureGenerator::with_size(128).generate(10);
        let pyr = Pyramid::build(&im, 3, 3, 1.6, 0.5);
        let kps = detect_keypoints(&pyr, &DetectParams::default());
        let n_before = kps.len();
        let oriented = assign_orientations(&pyr, kps);
        assert!(oriented.len() >= n_before);
        // Typically < 30% of keypoints get a second orientation.
        assert!(oriented.len() < n_before * 2);
    }

    #[test]
    fn bin_angle_roundtrip_range() {
        for i in 0..BINS {
            let a = bin_to_angle(i as f32 + 0.5);
            assert!(a > -core::f32::consts::PI - 1e-6 && a <= core::f32::consts::PI + 1e-6);
        }
    }
}
