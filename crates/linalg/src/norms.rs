//! Squared column norms — the `N_R` / `N_Q` vectors of Algorithm 1.
//!
//! The paper stores these as length-`m` / length-`n` vectors rather than
//! materializing full rank-1 matrices, to save GPU memory; we do the same.

use crate::mat::Mat;
use rayon::prelude::*;

/// Squared L2 norm of every column: `out[i] = ‖A.col(i)‖²`.
pub fn col_sq_norms(a: &Mat) -> Vec<f32> {
    let d = a.rows();
    a.as_slice()
        .par_chunks(d.max(1))
        .map(|col| col.iter().map(|v| v * v).sum())
        .collect()
}

/// Algorithm 1 step 4: add `N_R[i]` to every element of row `i` of `A`,
/// in place (no extra memory, as the paper notes).
pub fn add_row_norms(a: &mut Mat, n_r: &[f32]) {
    assert_eq!(a.rows(), n_r.len(), "N_R length must equal row count (m)");
    let m = a.rows();
    a.as_mut_slice()
        .par_chunks_mut(m)
        .for_each(|col| {
            for (v, nr) in col.iter_mut().zip(n_r) {
                *v += nr;
            }
        });
}

/// Algorithm 1 steps 6–7 (merged, as the paper suggests): for the top-`k`
/// entries of each column (already moved to the top by the sort/top-2 step),
/// add `N_Q[j]` and take the square root, in place.
pub fn add_col_norm_and_sqrt_topk(a: &mut Mat, n_q: &[f32], k: usize) {
    assert_eq!(a.cols(), n_q.len(), "N_Q length must equal column count (n)");
    let m = a.rows();
    let kk = k.min(m);
    a.as_mut_slice()
        .par_chunks_mut(m)
        .zip(n_q.par_iter())
        .for_each(|(col, &nq)| {
            for v in col[..kk].iter_mut() {
                // Clamp: floating error can push a true zero slightly negative.
                *v = (*v + nq).max(0.0).sqrt();
            }
        });
}

/// Algorithm 2 step 3 (RootSIFT path): distances are `sqrt(2 + A)` for the
/// top-`k` entries of each column, in place. `scale_sq_inv` undoes an FP16
/// operand scale (`1/scale²`, or `1.0` for full precision).
pub fn add2_and_sqrt_topk(a: &mut Mat, k: usize, scale_sq_inv: f32) {
    let m = a.rows();
    let kk = k.min(m);
    a.as_mut_slice()
        .par_chunks_mut(m)
        .for_each(|col| {
            for v in col[..kk].iter_mut() {
                *v = (2.0 + *v * scale_sq_inv).max(0.0).sqrt();
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::active_backend;
    use crate::kernel::gemm_at_b;

    #[test]
    fn norms_basic() {
        let a = Mat::from_col_major(2, 2, vec![3.0, 4.0, 1.0, 0.0]);
        assert_eq!(col_sq_norms(&a), vec![25.0, 1.0]);
    }

    #[test]
    fn norms_empty() {
        let a = Mat::zeros(3, 0);
        assert!(col_sq_norms(&a).is_empty());
    }

    #[test]
    fn full_expansion_equals_euclidean_distance() {
        // ‖r−q‖² = ‖r‖² + ‖q‖² − 2·rᵀq  (Eq. 1)
        let r = Mat::from_col_major(3, 2, vec![1.0, 2.0, 3.0, 0.0, 1.0, -1.0]);
        let q = Mat::from_col_major(3, 2, vec![2.0, 2.0, 2.0, 1.0, 1.0, 1.0]);
        let n_r = col_sq_norms(&r);
        let n_q = col_sq_norms(&q);
        let mut a = gemm_at_b(active_backend(), -2.0, &r, &q);
        let k = a.rows();
        add_row_norms(&mut a, &n_r);
        add_col_norm_and_sqrt_topk(&mut a, &n_q, k);

        for i in 0..2 {
            for j in 0..2 {
                let expected: f32 = (0..3)
                    .map(|k| (r.get(k, i) - q.get(k, j)).powi(2))
                    .sum::<f32>()
                    .sqrt();
                assert!((a.get(i, j) - expected).abs() < 1e-5, "({i},{j})");
            }
        }
    }

    #[test]
    fn rootsift_shortcut_matches_full_expansion_for_unit_columns() {
        // With L2-normalized columns, ‖r−q‖² = 2 − 2·rᵀq.
        let norm = |v: Vec<f32>| {
            let n = (v.iter().map(|x| x * x).sum::<f32>()).sqrt();
            v.into_iter().map(|x| x / n).collect::<Vec<_>>()
        };
        let rcol = norm(vec![1.0, 2.0, 3.0]);
        let qcol = norm(vec![-1.0, 0.5, 2.0]);
        let r = Mat::from_col_major(3, 1, rcol.clone());
        let q = Mat::from_col_major(3, 1, qcol.clone());

        let mut a = gemm_at_b(active_backend(), -2.0, &r, &q);
        add2_and_sqrt_topk(&mut a, 1, 1.0);

        let expected: f32 = rcol
            .iter()
            .zip(&qcol)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!((a.get(0, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn sqrt_clamps_negative_noise() {
        let mut a = Mat::from_col_major(1, 1, vec![-2.0000005]);
        add2_and_sqrt_topk(&mut a, 1, 1.0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn topk_limits_mutation() {
        let mut a = Mat::from_col_major(3, 1, vec![2.0, 2.0, 2.0]);
        add2_and_sqrt_topk(&mut a, 2, 1.0);
        assert_eq!(a.get(0, 0), 2.0); // sqrt(2+2)
        assert_eq!(a.get(1, 0), 2.0);
        assert_eq!(a.get(2, 0), 2.0); // untouched beyond k
    }
}
