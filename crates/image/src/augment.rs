//! Capture-condition augmentations — simulating the paper's query images.
//!
//! Queries in the tea-brick dataset are the *same physical bricks* re-imaged
//! by customers with smartphones: different viewpoint, illumination,
//! occlusion, focus, and sensor noise. [`CaptureCondition`] models one such
//! re-capture as an inverse-mapped affine warp plus photometric distortions,
//! applied to a reference texture to synthesize its matching query.

use crate::gray::GrayImage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One simulated re-capture of a texture.
#[derive(Clone, Debug)]
pub struct CaptureCondition {
    /// In-plane rotation (degrees).
    pub rotation_deg: f32,
    /// Uniform zoom factor (1.0 = same distance).
    pub scale: f32,
    /// Translation in pixels (camera aim offset).
    pub translate: (f32, f32),
    /// Multiplicative illumination gain.
    pub gain: f32,
    /// Additive illumination bias.
    pub bias: f32,
    /// Std-dev of additive Gaussian sensor noise (0 disables).
    pub noise_sigma: f32,
    /// Defocus blur sigma (0 disables).
    pub blur_sigma: f32,
    /// Occluding rectangle `(x, y, w, h)` in pixels, filled with mid-gray.
    pub occlusion: Option<(usize, usize, usize, usize)>,
    /// Specular glare spots (count, seed): bright Gaussian blobs from a
    /// phone flash reflecting off the compressed surface. Glare produces
    /// strong *spurious* keypoints that crowd the top-n response ranking —
    /// the reason query-side feature budgets matter (Table 7).
    pub glare: Option<(usize, u64)>,
    /// Out-of-plane camera tilt: the perspective row `(g, h)` of the
    /// inverse (output→source) mapping, applied about the image centre.
    /// Magnitudes around 1e-3 give a visible keystone, a distortion a
    /// similarity model does not absorb.
    pub perspective: Option<(f32, f32)>,
}

impl Default for CaptureCondition {
    fn default() -> Self {
        Self::identity()
    }
}

impl CaptureCondition {
    /// No-op capture (query pixel-identical to the reference).
    pub fn identity() -> Self {
        Self {
            rotation_deg: 0.0,
            scale: 1.0,
            translate: (0.0, 0.0),
            gain: 1.0,
            bias: 0.0,
            noise_sigma: 0.0,
            blur_sigma: 0.0,
            occlusion: None,
            glare: None,
            perspective: None,
        }
    }

    /// A gentle smartphone re-capture: small rotation/zoom, mild lighting
    /// shift, light sensor noise.
    pub fn mild(rng: &mut SmallRng) -> Self {
        Self {
            rotation_deg: rng.gen_range(-6.0..6.0),
            scale: rng.gen_range(0.95..1.05),
            translate: (rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)),
            gain: rng.gen_range(0.9..1.1),
            bias: rng.gen_range(-0.05..0.05),
            noise_sigma: rng.gen_range(0.0..0.01),
            blur_sigma: 0.0,
            occlusion: None,
            glare: None,
            perspective: None,
        }
    }

    /// A harder capture: more viewpoint change, defocus, possible occlusion.
    pub fn moderate(rng: &mut SmallRng) -> Self {
        let occl = if rng.gen_bool(0.3) {
            let w = rng.gen_range(16..40usize);
            let h = rng.gen_range(16..40usize);
            Some((rng.gen_range(0..128usize), rng.gen_range(0..128usize), w, h))
        } else {
            None
        };
        Self {
            rotation_deg: rng.gen_range(-15.0..15.0),
            scale: rng.gen_range(0.88..1.12),
            translate: (rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)),
            gain: rng.gen_range(0.8..1.2),
            bias: rng.gen_range(-0.1..0.1),
            noise_sigma: rng.gen_range(0.005..0.02),
            blur_sigma: if rng.gen_bool(0.4) { rng.gen_range(0.4..0.9) } else { 0.0 },
            occlusion: occl,
            glare: if rng.gen_bool(0.3) { Some((rng.gen_range(2..5), rng.gen())) } else { None },
            perspective: None,
        }
    }

    /// A harsh capture: strong viewpoint change, guaranteed occlusion,
    /// defocus and heavy sensor noise — the regime where feature budgets
    /// (the paper's m/n) start to matter.
    pub fn severe(rng: &mut SmallRng) -> Self {
        let w = rng.gen_range(90..150usize);
        let h = rng.gen_range(90..150usize);
        Self {
            rotation_deg: rng.gen_range(-40.0..40.0),
            scale: rng.gen_range(0.65..1.45),
            translate: (rng.gen_range(-28.0..28.0), rng.gen_range(-28.0..28.0)),
            gain: rng.gen_range(0.55..1.4),
            bias: rng.gen_range(-0.18..0.18),
            noise_sigma: rng.gen_range(0.06..0.12),
            blur_sigma: rng.gen_range(0.8..1.6),
            occlusion: Some((rng.gen_range(0..150usize), rng.gen_range(0..150usize), w, h)),
            glare: Some((rng.gen_range(10..22), rng.gen())),
            // Perspective tilt is an explicit, opt-in capture factor; the
            // preset samplers keep planar captures so the accuracy
            // experiments stay comparable.
            perspective: None,
        }
    }

    /// Apply the capture to `reference`, producing the simulated query image.
    ///
    /// `noise_seed` makes the stochastic parts (sensor noise) reproducible.
    pub fn apply(&self, reference: &GrayImage, noise_seed: u64) -> GrayImage {
        let w = reference.width();
        let h = reference.height();
        let cx = w as f32 / 2.0;
        let cy = h as f32 / 2.0;
        let theta = self.rotation_deg.to_radians();
        let (s, c) = theta.sin_cos();
        // Inverse map: output pixel -> source coordinate (rotate by −θ,
        // scale by 1/zoom, shift by −t), all about the image centre.
        let inv_scale = 1.0 / self.scale;
        let (pg, ph) = self.perspective.unwrap_or((0.0, 0.0));
        let mut out = GrayImage::from_fn(w, h, |x, y| {
            let dx = x as f32 - cx - self.translate.0;
            let dy = y as f32 - cy - self.translate.1;
            // Perspective divide of the inverse map (identity when untilted).
            let denom = 1.0 + pg * dx + ph * dy;
            let (dx, dy) = if denom.abs() > 1e-6 { (dx / denom, dy / denom) } else { (dx, dy) };
            let sx = (c * dx + s * dy) * inv_scale + cx;
            let sy = (-s * dx + c * dy) * inv_scale + cy;
            reference.sample_bilinear(sx, sy)
        });

        // Photometric distortion.
        for v in out.as_mut_slice() {
            *v = *v * self.gain + self.bias;
        }

        if self.blur_sigma > 0.0 {
            out = crate::filter::gaussian_blur(&out, self.blur_sigma);
        }

        if self.noise_sigma > 0.0 {
            let mut rng = SmallRng::seed_from_u64(noise_seed);
            for v in out.as_mut_slice() {
                // Box–Muller keeps us off rand_distr.
                let u1: f32 = rng.gen_range(1e-7..1.0f32);
                let u2: f32 = rng.gen_range(0.0..1.0f32);
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f32::consts::PI * u2).cos();
                *v += g * self.noise_sigma;
            }
        }

        if let Some((count, seed)) = self.glare {
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..count {
                let cx: f32 = rng.gen_range(0.0..w as f32);
                let cy: f32 = rng.gen_range(0.0..h as f32);
                let radius: f32 = rng.gen_range(3.0..10.0);
                let strength: f32 = rng.gen_range(0.35..0.7);
                let r = (3.0 * radius) as isize;
                let denom = 2.0 * radius * radius;
                for dy in -r..=r {
                    for dx in -r..=r {
                        let px = cx as isize + dx;
                        let py = cy as isize + dy;
                        if px < 0 || py < 0 || px >= w as isize || py >= h as isize {
                            continue;
                        }
                        let fx = px as f32 - cx;
                        let fy = py as f32 - cy;
                        let bump = strength * (-(fx * fx + fy * fy) / denom).exp();
                        let old = out.get(px as usize, py as usize);
                        out.set(px as usize, py as usize, old + bump);
                    }
                }
            }
        }

        if let Some((ox, oy, ow, oh)) = self.occlusion {
            for y in oy..(oy + oh).min(h) {
                for x in ox..(ox + ow).min(w) {
                    out.set(x, y, 0.5);
                }
            }
        }

        out.clamp01();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TextureGenerator;

    fn reference() -> GrayImage {
        TextureGenerator::with_size(96).generate(11)
    }

    #[test]
    fn identity_is_noop() {
        let im = reference();
        let q = CaptureCondition::identity().apply(&im, 0);
        let max_diff = im
            .as_slice()
            .iter()
            .zip(q.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-5, "identity warp changed pixels: {max_diff}");
    }

    #[test]
    fn rotation_moves_pixels_but_preserves_statistics() {
        let im = reference();
        let cond = CaptureCondition { rotation_deg: 10.0, ..CaptureCondition::identity() };
        let q = cond.apply(&im, 0);
        assert_ne!(im, q);
        // Texture statistics survive a small rotation.
        assert!((im.mean() - q.mean()).abs() < 0.05);
    }

    #[test]
    fn gain_bias_shift_mean() {
        let im = reference();
        let cond = CaptureCondition { gain: 1.0, bias: 0.1, ..CaptureCondition::identity() };
        let q = cond.apply(&im, 0);
        assert!(q.mean() > im.mean() + 0.05);
    }

    #[test]
    fn noise_is_reproducible_per_seed() {
        let im = reference();
        let cond = CaptureCondition { noise_sigma: 0.02, ..CaptureCondition::identity() };
        assert_eq!(cond.apply(&im, 5), cond.apply(&im, 5));
        assert_ne!(cond.apply(&im, 5), cond.apply(&im, 6));
    }

    #[test]
    fn occlusion_fills_rectangle() {
        let im = reference();
        let cond = CaptureCondition {
            occlusion: Some((10, 10, 20, 20)),
            ..CaptureCondition::identity()
        };
        let q = cond.apply(&im, 0);
        assert_eq!(q.get(15, 15), 0.5);
        assert_eq!(q.get(29, 29), 0.5);
    }

    #[test]
    fn output_stays_in_unit_range() {
        let im = reference();
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..5 {
            let cond = CaptureCondition::moderate(&mut rng);
            let q = cond.apply(&im, i);
            assert!(q.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn severe_always_occludes_and_blurs() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20 {
            let c = CaptureCondition::severe(&mut rng);
            assert!(c.occlusion.is_some());
            assert!(c.blur_sigma > 0.0);
            assert!(c.noise_sigma >= 0.02);
            assert!(c.glare.is_some());
        }
    }

    #[test]
    fn perspective_keystones_the_image() {
        let im = reference();
        let cond = CaptureCondition {
            perspective: Some((2e-3, 0.0)),
            ..CaptureCondition::identity()
        };
        let q = cond.apply(&im, 0);
        assert_ne!(im, q);
        // The centre pixel is a fixed point of the pure-perspective map.
        let c = im.width() / 2;
        assert!((q.get(c, c) - im.get(c, c)).abs() < 0.05);
    }

    #[test]
    fn glare_brightens_locally() {
        let im = reference();
        let cond = CaptureCondition { glare: Some((8, 3)), ..CaptureCondition::identity() };
        let q = cond.apply(&im, 0);
        assert!(q.mean() > im.mean(), "glare must add light");
        let max_diff = im
            .as_slice()
            .iter()
            .zip(q.as_slice())
            .map(|(a, b)| (b - a).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff > 0.2, "glare too weak: {max_diff}");
    }

    #[test]
    fn mild_sampler_within_documented_ranges() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let c = CaptureCondition::mild(&mut rng);
            assert!(c.rotation_deg.abs() <= 6.0);
            assert!((0.95..=1.05).contains(&c.scale));
            assert!(c.occlusion.is_none());
        }
    }
}
