//! Separable filtering and resampling — the substrate for SIFT's Gaussian
//! scale space.

use crate::gray::GrayImage;

/// Build a normalized 1-D Gaussian kernel with radius `⌈3σ⌉`.
///
/// # Panics
/// Panics if `sigma` is not strictly positive.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as usize;
    let mut k: Vec<f32> = (0..=2 * radius)
        .map(|i| {
            let x = i as f32 - radius as f32;
            (-x * x / (2.0 * sigma * sigma)).exp()
        })
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Separable Gaussian blur with edge clamping.
pub fn gaussian_blur(im: &GrayImage, sigma: f32) -> GrayImage {
    let kernel = gaussian_kernel(sigma);
    let tmp = convolve_rows(im, &kernel);
    convolve_cols(&tmp, &kernel)
}

/// Horizontal 1-D convolution (kernel must have odd length).
pub fn convolve_rows(im: &GrayImage, kernel: &[f32]) -> GrayImage {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let w = im.width();
    let h = im.height();
    let radius = (kernel.len() / 2) as isize;
    let mut out = GrayImage::new(w, h);
    for (y, row) in out.as_mut_slice().chunks_mut(w).enumerate() {
        for (x, slot) in row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (ki, &kv) in kernel.iter().enumerate() {
                let sx = x as isize + ki as isize - radius;
                acc += kv * im.get_clamped(sx, y as isize);
            }
            *slot = acc;
        }
    }
    out
}

/// Vertical 1-D convolution (kernel must have odd length).
pub fn convolve_cols(im: &GrayImage, kernel: &[f32]) -> GrayImage {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let w = im.width();
    let h = im.height();
    let radius = (kernel.len() / 2) as isize;
    let mut out = GrayImage::new(w, h);
    for (y, row) in out.as_mut_slice().chunks_mut(w).enumerate() {
        for (x, slot) in row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (ki, &kv) in kernel.iter().enumerate() {
                let sy = y as isize + ki as isize - radius;
                acc += kv * im.get_clamped(x as isize, sy);
            }
            *slot = acc;
        }
    }
    out
}

/// Decimate by 2 (every other pixel) — SIFT's octave downsampling.
pub fn downsample_half(im: &GrayImage) -> GrayImage {
    let w = (im.width() / 2).max(1);
    let h = (im.height() / 2).max(1);
    GrayImage::from_fn(w, h, |x, y| im.get((2 * x).min(im.width() - 1), (2 * y).min(im.height() - 1)))
}

/// Bilinear resize to an arbitrary target resolution.
///
/// # Panics
/// Panics if a target dimension is zero.
pub fn resize_bilinear(im: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
    assert!(new_w > 0 && new_h > 0, "target size must be positive");
    let sx = im.width() as f32 / new_w as f32;
    let sy = im.height() as f32 / new_h as f32;
    let mut out = GrayImage::new(new_w, new_h);
    for (y, row) in out.as_mut_slice().chunks_mut(new_w).enumerate() {
        let src_y = (y as f32 + 0.5) * sy - 0.5;
        for (x, slot) in row.iter_mut().enumerate() {
            let src_x = (x as f32 + 0.5) * sx - 0.5;
            *slot = im.sample_bilinear(src_x, src_y);
        }
    }
    out
}

/// Pixel-wise difference `a − b` (the "D" in DoG).
///
/// # Panics
/// Panics if shapes differ.
pub fn subtract(a: &GrayImage, b: &GrayImage) -> GrayImage {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "shape mismatch");
    GrayImage::from_vec(
        a.width(),
        a.height(),
        a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x - y).collect(),
    )
}

/// Central-difference gradients `(dx, dy)` at an interior pixel.
#[inline]
pub fn gradient_at(im: &GrayImage, x: usize, y: usize) -> (f32, f32) {
    let dx = (im.get_clamped(x as isize + 1, y as isize) - im.get_clamped(x as isize - 1, y as isize)) * 0.5;
    let dy = (im.get_clamped(x as isize, y as isize + 1) - im.get_clamped(x as isize, y as isize - 1)) * 0.5;
    (dx, dy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_normalized_and_symmetric() {
        for sigma in [0.5f32, 1.0, 1.6, 3.2] {
            let k = gaussian_kernel(sigma);
            assert!(k.len() % 2 == 1);
            let sum: f32 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sigma {sigma}");
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
            }
            // Peak at the centre.
            let mid = k.len() / 2;
            assert!(k.iter().all(|&v| v <= k[mid]));
        }
    }

    #[test]
    fn blur_preserves_constant_image() {
        let im = GrayImage::filled(16, 16, 0.7);
        let b = gaussian_blur(&im, 1.6);
        for &v in b.as_slice() {
            assert!((v - 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_reduces_variance() {
        let im = GrayImage::from_fn(32, 32, |x, y| ((x * 31 + y * 17) % 7) as f32 / 6.0);
        let b = gaussian_blur(&im, 2.0);
        assert!(b.stddev() < im.stddev());
        // Mean is approximately preserved (edge clamping causes tiny drift).
        assert!((b.mean() - im.mean()).abs() < 0.02);
    }

    #[test]
    fn separable_equals_manual_2d_on_small_case() {
        let im = GrayImage::from_fn(5, 5, |x, y| (x * 5 + y) as f32 * 0.04);
        let k = gaussian_kernel(0.6);
        let sep = convolve_cols(&convolve_rows(&im, &k), &k);
        // Manual dense 2-D convolution with the outer-product kernel.
        let r = (k.len() / 2) as isize;
        for y in 0..5usize {
            for x in 0..5usize {
                let mut acc = 0.0;
                for (i, &ki) in k.iter().enumerate() {
                    for (j, &kj) in k.iter().enumerate() {
                        let sx = x as isize + j as isize - r;
                        let sy = y as isize + i as isize - r;
                        acc += ki * kj * im.get_clamped(sx, sy);
                    }
                }
                assert!((sep.get(x, y) - acc).abs() < 1e-5, "({x},{y})");
            }
        }
    }

    #[test]
    fn downsample_halves_dimensions() {
        let im = GrayImage::from_fn(8, 6, |x, y| (x + y) as f32);
        let d = downsample_half(&im);
        assert_eq!((d.width(), d.height()), (4, 3));
        assert_eq!(d.get(1, 1), im.get(2, 2));
    }

    #[test]
    fn downsample_handles_tiny_images() {
        let im = GrayImage::filled(1, 1, 0.3);
        let d = downsample_half(&im);
        assert_eq!((d.width(), d.height()), (1, 1));
    }

    #[test]
    fn resize_identity() {
        let im = GrayImage::from_fn(6, 4, |x, y| (x * 4 + y) as f32 * 0.05);
        let r = resize_bilinear(&im, 6, 4);
        for (a, b) in im.as_slice().iter().zip(r.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn resize_constant_stays_constant() {
        let im = GrayImage::filled(7, 5, 0.42);
        let r = resize_bilinear(&im, 13, 9);
        for &v in r.as_slice() {
            assert!((v - 0.42).abs() < 1e-5);
        }
    }

    #[test]
    fn subtract_basic() {
        let a = GrayImage::from_vec(2, 1, vec![1.0, 0.5]);
        let b = GrayImage::from_vec(2, 1, vec![0.25, 0.5]);
        assert_eq!(subtract(&a, &b).as_slice(), &[0.75, 0.0]);
    }

    #[test]
    fn gradient_of_linear_ramp() {
        let im = GrayImage::from_fn(8, 8, |x, _| x as f32 * 0.1);
        let (dx, dy) = gradient_at(&im, 4, 4);
        assert!((dx - 0.1).abs() < 1e-6);
        assert!(dy.abs() < 1e-6);
    }
}
