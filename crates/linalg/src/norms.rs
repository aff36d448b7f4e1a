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
        add_row_norms(&mut a, &n_r);

        for i in 0..2 {
            for (j, &nq) in n_q.iter().enumerate() {
                let expected: f32 = (0..3)
                    .map(|k| (r.get(k, i) - q.get(k, j)).powi(2))
                    .sum::<f32>()
                    .sqrt();
                // Steps 6–7: add N_Q[j], clamp rounding noise, square root.
                let got = (a.get(i, j) + nq).max(0.0).sqrt();
                assert!((got - expected).abs() < 1e-5, "({i},{j})");
            }
        }
    }
}
