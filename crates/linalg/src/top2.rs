//! Top-2 selection — the paper's key sorting optimization (§4.1).
//!
//! The cuBLAS KNN of Garcia et al. fully sorts every column of the distance
//! matrix with a modified insertion sort (67% of total time). Because the
//! ratio test only ever needs the two smallest distances, the paper replaces
//! the sort with a single scan keeping two running minima in registers,
//! cutting the sort time by 81.9%. This module provides that scan plus the
//! full-sort reference it replaces; the scan reads f32 or f16 elements.

use crate::mat::{Mat, Operand, Widen};

/// The two nearest neighbours of one query feature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Top2 {
    /// Row index (reference-feature index) of the nearest neighbour.
    pub idx: u32,
    /// Smallest column value (pre- or post-sqrt depending on pipeline stage).
    pub d1: f32,
    /// Second-smallest column value.
    pub d2: f32,
}

impl Top2 {
    /// The pre-scan state: both "registers" at `+∞`, index 0. Observing
    /// candidates in ascending-index order from this state reproduces the
    /// CUDA kernel's first-index tie-breaking exactly.
    pub const EMPTY: Top2 = Top2 { idx: 0, d1: f32::INFINITY, d2: f32::INFINITY };

    /// Fold one candidate `(index, value)` into the running minima — the
    /// incremental form of the register-resident scan, used by the fused
    /// GEMM epilogue (`crate::kernel::gemm_top2_ex`) to consume tile values
    /// as they are produced. Candidates must arrive in ascending-index
    /// order for ties to keep the first index.
    #[inline(always)]
    pub fn observe(&mut self, i: u32, v: f32) {
        if v < self.d1 {
            self.d2 = self.d1;
            self.d1 = v;
            self.idx = i;
        } else if v < self.d2 {
            self.d2 = v;
        }
    }

    /// Lowe's ratio `d1/d2`; `f32::INFINITY` when `d2` is zero.
    pub fn ratio(&self) -> f32 {
        if self.d2 == 0.0 {
            f32::INFINITY
        } else {
            self.d1 / self.d2
        }
    }
}

/// Single-pass top-2 scan over one column: two "registers", exactly as the
/// single-thread-per-column CUDA kernel. Half-precision elements widen at
/// every comparison — the `__half` intrinsic the paper identifies as the
/// FP16 sort overhead.
#[inline]
fn scan_top2<T: Widen>(col: &[T]) -> Top2 {
    debug_assert!(col.len() >= 2, "top-2 needs at least two candidates");
    let mut t = Top2::EMPTY;
    for (i, &v) in col.iter().enumerate() {
        t.observe(i as u32, v.widen());
    }
    t
}

/// The unfused reference scan. `a` stacks `batch` reference blocks of
/// `m_per_ref` rows each (`(batch·m) × n`); returns, for every (block,
/// column) pair, the two smallest entries within that block — per-reference
/// results, which is what texture identification needs (each reference is
/// matched *separately*). `batch = 1`, `m_per_ref = rows` is the plain
/// per-column scan.
///
/// Output layout: `out[b * n + j]` is block `b`, query column `j`; each
/// column is one independent scan, as in the one-thread-per-column GPU
/// kernel.
///
/// # Panics
/// Panics if `a`'s row count is not `batch * m_per_ref` or `m_per_ref < 2`.
pub fn top2_min_per_column<M: Operand>(a: &M, batch: usize, m_per_ref: usize) -> Vec<Top2> {
    let (data, m, n) = a.parts();
    assert!(m_per_ref >= 2, "top-2 needs at least two reference features");
    assert_eq!(m, batch * m_per_ref, "blocked top-2 shape mismatch");
    let mut out = vec![Top2::EMPTY; batch * n];
    for (b, block_out) in out.chunks_mut(n.max(1)).enumerate() {
        for (j, slot) in block_out.iter_mut().enumerate() {
            *slot = scan_top2(&data[j * m + b * m_per_ref..][..m_per_ref]);
        }
    }
    out
}

/// Full column sort (ascending), the Garcia et al. baseline. Returns the
/// sorted values and, for the front element, its original row index — enough
/// to emulate Algorithm 1's "sorted matrix + index" output for any `k`.
pub fn sort_columns(a: &Mat) -> (Mat, Vec<u32>) {
    let m = a.rows();
    let n = a.cols();
    let mut sorted = a.clone();
    let mut idx = vec![0u32; n];
    for (col, first_idx) in sorted.as_mut_slice().chunks_mut(m).zip(&mut idx) {
        // Track the argmin before sorting destroys positions.
        let mut best = 0usize;
        for i in 1..m {
            if col[i] < col[best] {
                best = i;
            }
        }
        *first_idx = best as u32;
        col.sort_by(|x, y| x.partial_cmp(y).expect("NaN in distance matrix"));
    }
    (sorted, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::F16;
    use crate::mat::MatF16;

    #[test]
    fn basic_top2() {
        let a = Mat::from_col_major(4, 1, vec![5.0, 1.0, 3.0, 2.0]);
        let t = top2_min_per_column(&a, 1, a.rows());
        assert_eq!(t[0], Top2 { idx: 1, d1: 1.0, d2: 2.0 });
    }

    #[test]
    fn duplicates_keep_first_index() {
        let a = Mat::from_col_major(3, 1, vec![2.0, 2.0, 2.0]);
        let t = top2_min_per_column(&a, 1, a.rows());
        assert_eq!(t[0].idx, 0);
        assert_eq!(t[0].d1, 2.0);
        assert_eq!(t[0].d2, 2.0);
    }

    #[test]
    fn multiple_columns_independent() {
        let a = Mat::from_col_major(2, 3, vec![1.0, 9.0, 9.0, 1.0, 4.0, 4.0]);
        let t = top2_min_per_column(&a, 1, a.rows());
        assert_eq!(t[0], Top2 { idx: 0, d1: 1.0, d2: 9.0 });
        assert_eq!(t[1], Top2 { idx: 1, d1: 1.0, d2: 9.0 });
        assert_eq!(t[2].d1, 4.0);
    }

    #[test]
    fn agrees_with_full_sort() {
        let a = Mat::from_fn(32, 16, |r, c| ((r * 31 + c * 17) % 97) as f32 * 0.5);
        let top = top2_min_per_column(&a, 1, a.rows());
        let (sorted, idx) = sort_columns(&a);
        for j in 0..16 {
            assert_eq!(top[j].d1, sorted.get(0, j), "col {j}");
            assert_eq!(top[j].d2, sorted.get(1, j), "col {j}");
            assert_eq!(top[j].idx, idx[j], "col {j}");
        }
    }

    #[test]
    fn f16_variant_matches_f32_on_representable_values() {
        let a = Mat::from_fn(8, 4, |r, c| (r as f32) * 0.25 + (c as f32));
        let ah = MatF16::from_col_major(
            8,
            4,
            a.as_slice().iter().map(|&v| F16::from_f32(v)).collect(),
        );
        let t32 = top2_min_per_column(&a, 1, 8);
        let t16 = top2_min_per_column(&ah, 1, 8);
        assert_eq!(t32, t16);
    }

    #[test]
    fn blocked_matches_per_block_scan() {
        // 3 blocks of 4 rows, 2 columns.
        let a = Mat::from_fn(12, 2, |r, c| ((r * 7 + c * 13) % 19) as f32);
        let blocked = top2_min_per_column(&a, 3, 4);
        for b in 0..3 {
            for j in 0..2 {
                let col: Vec<f32> = (0..4).map(|r| a.get(b * 4 + r, j)).collect();
                let expect = scan_top2(&col);
                assert_eq!(blocked[b * 2 + j], expect, "block {b} col {j}");
            }
        }
    }

    #[test]
    fn blocked_single_block_equals_plain() {
        let a = Mat::from_fn(6, 3, |r, c| ((r * 5 + c) % 11) as f32);
        let plain: Vec<Top2> = (0..3).map(|j| scan_top2(a.col(j))).collect();
        assert_eq!(top2_min_per_column(&a, 1, 6), plain);
    }

    #[test]
    fn incremental_observe_equals_scan() {
        let col = [5.0f32, 1.0, 3.0, 1.0, 2.0];
        let mut inc = Top2::EMPTY;
        for (i, &v) in col.iter().enumerate() {
            inc.observe(i as u32, v);
        }
        assert_eq!(inc, scan_top2(&col));
        assert_eq!(inc.idx, 1, "tie on 1.0 must keep the first index");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let t = Top2 { idx: 0, d1: 0.0, d2: 0.0 };
        assert_eq!(t.ratio(), f32::INFINITY);
        let t = Top2 { idx: 0, d1: 1.0, d2: 2.0 };
        assert_eq!(t.ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_row() {
        let a = Mat::zeros(1, 1);
        let _ = top2_min_per_column(&a, 1, 1);
    }
}
