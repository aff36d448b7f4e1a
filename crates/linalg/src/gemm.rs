//! The two `AᵀB` references the packed kernel is held against — the
//! functional core of the paper's cuBLAS reformulation of the similarity
//! matrix (`A = −2·RᵀQ`, Eq. 1) written the slow, obvious way.
//!
//! Both operands are column-major `d × *` feature matrices, so `AᵀB` is a
//! grid of dot products between contiguous columns. The product the system
//! runs is [`crate::kernel::gemm_at_b`] — operands packed (and, for FP16,
//! widened exactly once) into k-major panels, a register tile with one
//! accumulator per output walking the full depth; see the [`crate::kernel`]
//! module docs. This module keeps what tests and the Table 2 study compare
//! it with: [`gemm_at_b_naive`] and [`gemm_at_b_f16acc`].
//!
//! ## Summation order
//!
//! Every output is one accumulator taking one **fused multiply-add** per
//! `k`, in ascending `k` — [`gemm_at_b_naive`] spells that out with
//! `f32::mul_add`, and the blocked kernel matches it bit for bit on every
//! backend (the contract is stated in [`crate::kernel`]). A fused step is
//! correctly rounded by definition, so hardware `vfmadd` / `fmla` and
//! libm's `fmaf` agree. On x86-64 without `+fma` in the build the naive
//! loop *is* libm calls (slow, and an independent check of the
//! instruction); the scalar tile has a second instance compiled for the
//! instruction and takes it when the CPU has it.

use crate::f16::F16;
use crate::mat::{Mat, MatF16};

/// Half-precision GEMM with **FP16 accumulation** (`CUBLAS_COMPUTE_16F`):
/// every partial sum is narrowed back to f16, so large operand scales
/// overflow exactly as they do on device — the failure mode the paper's
/// Table 2 scale-factor study probes. Returns the (widened) result and
/// whether any accumulator overflowed to ±∞.
///
/// # Panics
/// Panics if the inner dimensions differ.
pub fn gemm_at_b_f16acc(alpha: f32, a: &MatF16, b: &MatF16) -> (Mat, bool) {
    assert_eq!(a.rows(), b.rows(), "AᵀB requires equal row counts (d)");
    let m = a.cols();
    let n = b.cols();
    let d = a.rows();
    let mut c = Mat::zeros(m, n);
    if m == 0 || n == 0 {
        return (c, false);
    }
    let mut overflow = false;
    for (j, col) in c.as_mut_slice().chunks_mut(m).enumerate() {
        let bj: &[F16] = &b.as_slice()[j * d..(j + 1) * d];
        for (i, out) in col.iter_mut().enumerate() {
            let ai: &[F16] = &a.as_slice()[i * d..(i + 1) * d];
            let mut acc = F16::ZERO;
            for (x, y) in ai.iter().zip(bj) {
                let prod = F16::from_f32(x.to_f32() * y.to_f32());
                acc = F16::from_f32(acc.to_f32() + prod.to_f32());
            }
            let scaled = F16::from_f32(alpha * acc.to_f32());
            overflow |= scaled.is_infinite() || acc.is_infinite();
            *out = scaled.to_f32();
        }
    }
    (c, overflow)
}

/// Naive reference implementation used by tests: per output, one
/// accumulator and one `mul_add` per `k`, ascending. Deliberately a bare
/// `mul_add` — libm's `fmaf` on baseline x86-64 — so that every comparison
/// against it also checks the hardware instruction against libm.
pub fn gemm_at_b_naive(alpha: f32, a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.rows(), b.rows());
    let mut c = Mat::zeros(a.cols(), b.cols());
    for j in 0..b.cols() {
        for (i, out) in c.col_mut(j).iter_mut().enumerate() {
            let mut s = 0.0f32;
            for (x, y) in a.col(i).iter().zip(b.col(j)) {
                s = x.mul_add(*y, s);
            }
            *out = alpha * s;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::active_backend;
    use crate::kernel::{gemm_at_b, gemm_packed, PackedA, PackedB};

    fn mat_seq(rows: usize, cols: usize, start: f32) -> Mat {
        Mat::from_fn(rows, cols, |r, c| start + (r * cols + c) as f32 * 0.1)
    }

    #[test]
    fn matches_naive_small() {
        let a = mat_seq(4, 3, 1.0);
        let b = mat_seq(4, 5, -2.0);
        let fast = gemm_at_b(active_backend(), 1.0, &a, &b);
        let slow = gemm_at_b_naive(1.0, &a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matches_naive_odd_dims() {
        // Exercises the non-multiple-of-4 dot-product tail.
        let a = mat_seq(7, 5, 0.3);
        let b = mat_seq(7, 2, 0.7);
        let fast = gemm_at_b(active_backend(), -2.0, &a, &b);
        let slow = gemm_at_b_naive(-2.0, &a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn identity_against_hand_computed() {
        // A = [[1],[0]], B = [[3],[4]] (d=2, m=1, n=1): AᵀB = 3.
        let a = Mat::from_col_major(2, 1, vec![1.0, 0.0]);
        let b = Mat::from_col_major(2, 1, vec![3.0, 4.0]);
        assert_eq!(gemm_at_b(active_backend(), 1.0, &a, &b).get(0, 0), 3.0);
        assert_eq!(gemm_at_b(active_backend(), -2.0, &a, &b).get(0, 0), -6.0);
    }

    #[test]
    fn f16_close_to_f32_for_unit_scale_data() {
        let a = mat_seq(8, 6, 0.01);
        let b = mat_seq(8, 4, 0.02);
        let f32_res = gemm_at_b(active_backend(), -2.0, &a, &b);
        let f16_res = gemm_at_b(active_backend(), -2.0, &a.to_f16_scaled(1.0), &b.to_f16_scaled(1.0));
        // f16 has ~3 decimal digits; these small values stay close.
        assert!(f32_res.max_abs_diff(&f16_res) < 0.05);
    }

    #[test]
    fn f16_scale_squared_semantics() {
        // With operands scaled by s, AᵀB carries s².
        let a = Mat::from_col_major(2, 1, vec![1.0, 2.0]);
        let b = Mat::from_col_major(2, 1, vec![3.0, 4.0]);
        let s = 0.25f32;
        let scaled = gemm_at_b(active_backend(), 1.0, &a.to_f16_scaled(s), &b.to_f16_scaled(s));
        let unscaled = gemm_at_b(active_backend(), 1.0, &a, &b);
        assert!((scaled.get(0, 0) / (s * s) - unscaled.get(0, 0)).abs() < 1e-3);
    }

    #[test]
    fn f16acc_overflow_detection() {
        // Unit-norm-ish columns scaled hugely: the f16 accumulator blows up.
        let a = Mat::from_col_major(4, 1, vec![200.0, 200.0, 200.0, 200.0]);
        let b = a.clone();
        let (_, overflowed) = gemm_at_b_f16acc(-2.0, &a.to_f16_scaled(1.0), &b.to_f16_scaled(1.0));
        assert!(overflowed, "4x200^2 = 160k > 65504 must overflow");
        // Small values stay finite and accurate.
        let a = Mat::from_col_major(4, 1, vec![0.5, 0.5, 0.5, 0.5]);
        let (c, overflowed) = gemm_at_b_f16acc(-2.0, &a.to_f16_scaled(1.0), &a.to_f16_scaled(1.0));
        assert!(!overflowed);
        assert!((c.get(0, 0) + 2.0).abs() < 0.01);
    }

    #[test]
    fn f16acc_close_to_f32_for_small_values() {
        let a = mat_seq(8, 3, 0.01);
        let b = mat_seq(8, 2, 0.02);
        let (c16, ov) = gemm_at_b_f16acc(1.0, &a.to_f16_scaled(1.0), &b.to_f16_scaled(1.0));
        assert!(!ov);
        let c32 = gemm_at_b(active_backend(), 1.0, &a, &b);
        assert!(c32.max_abs_diff(&c16) < 0.1);
    }

    #[test]
    fn empty_edge_cases() {
        let a = Mat::zeros(4, 0);
        let b = Mat::zeros(4, 3);
        let c = gemm_at_b(active_backend(), 1.0, &a, &b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 3);
    }

    #[test]
    fn wrappers_route_through_blocked_kernel() {
        let be = active_backend();
        let a = mat_seq(7, 6, 0.2);
        let b = mat_seq(7, 5, -0.4);
        assert_eq!(
            gemm_at_b(be, -2.0, &a, &b),
            gemm_packed(-2.0, &PackedA::pack(be, &a), &PackedB::pack(be, &b))
        );
        let (a16, b16) = (a.to_f16_scaled(0.5), b.to_f16_scaled(0.5));
        assert_eq!(
            gemm_at_b(be, -2.0, &a16, &b16),
            gemm_packed(-2.0, &PackedA::pack(be, &a16), &PackedB::pack(be, &b16))
        );
    }

    #[test]
    fn sift_sized_shapes() {
        // d=128, m and n as in the paper (scaled down 8× for test runtime).
        // Values kept small so the summation-order difference between the
        // unrolled and naive kernels stays within a tight absolute bound.
        let a = Mat::from_fn(128, 96, |r, c| ((r * 96 + c) % 251) as f32 * 1e-3);
        let b = Mat::from_fn(128, 96, |r, c| ((r * 96 + c) % 199) as f32 * 1e-3);
        let fast = gemm_at_b(active_backend(), -2.0, &a, &b);
        let slow = gemm_at_b_naive(-2.0, &a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-3);
    }
}
