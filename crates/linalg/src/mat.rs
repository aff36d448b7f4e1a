//! Column-major matrix containers.
//!
//! Feature matrices in the paper are `d × m` with one local feature per
//! column, so a column-major layout makes every descriptor a contiguous
//! slice — the same layout cuBLAS consumes.

use crate::dispatch::Backend;
use crate::f16::F16;
use std::ops::Range;

/// A matrix element the kernels read as f32: `f32` itself, or [`F16`]
/// widened on the way in.
pub trait Widen: Copy + Send + Sync {
    /// Half-precision storage: a scan of a product of such operands
    /// compares values rounded to f16, as a scan of a 16-bit HGEMM output
    /// does.
    const HALF: bool;
    /// This element as f32 (exact).
    fn widen(self) -> f32;
    /// Widen a whole column on `be`.
    fn widen_into(be: Backend, src: &[Self], dst: &mut [f32]);
    /// The column as f16 bits, if that is what it holds.
    fn halves(src: &[Self]) -> Option<&[F16]>;
}

impl Widen for f32 {
    const HALF: bool = false;
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
    fn widen_into(_be: Backend, src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }
    fn halves(_src: &[f32]) -> Option<&[F16]> {
        None
    }
}

impl Widen for F16 {
    const HALF: bool = true;
    #[inline(always)]
    fn widen(self) -> f32 {
        self.to_f32()
    }
    fn widen_into(be: Backend, src: &[F16], dst: &mut [f32]) {
        crate::f16::widen_slice_on(be, src, dst);
    }
    fn halves(src: &[F16]) -> Option<&[F16]> {
        Some(src)
    }
}

/// A column-major `d × cols` matrix the kernels take as an operand:
/// [`Mat`] or [`MatF16`]. Precision is this type parameter, so the two
/// operands of a call share it by construction.
pub trait Operand {
    /// `f32` or [`F16`].
    type Elem: Widen;
    /// `(column-major data, rows, cols)`.
    fn parts(&self) -> (&[Self::Elem], usize, usize);
}

impl Operand for Mat {
    type Elem = f32;
    fn parts(&self) -> (&[f32], usize, usize) {
        (&self.data, self.rows, self.cols)
    }
}

impl Operand for MatF16 {
    type Elem = F16;
    fn parts(&self) -> (&[F16], usize, usize) {
        (&self.data, self.rows, self.cols)
    }
}

/// Some columns of a matrix, borrowed: an [`Operand`] that packs as the
/// matrix of those columns alone, with nothing copied first.
pub struct ColRange<'a, E> {
    data: &'a [E],
    rows: usize,
    cols: usize,
}

impl<'a, E> ColRange<'a, E> {
    /// Columns `cols` of `mat`.
    ///
    /// # Panics
    /// Panics if `cols` runs past the last column.
    pub fn of<T: Operand<Elem = E>>(mat: &'a T, cols: Range<usize>) -> Self {
        let (data, rows, _) = mat.parts();
        ColRange { data: &data[cols.start * rows..cols.end * rows], rows, cols: cols.len() }
    }
}

impl<E: Widen> Operand for ColRange<'_, E> {
    type Elem = E;
    fn parts(&self) -> (&[E], usize, usize) {
        (self.data, self.rows, self.cols)
    }
}

/// A dense column-major `f32` matrix.
///
/// Element `(r, c)` lives at `data[c * rows + r]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// Create a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a column-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Self { rows, cols, data }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for r in 0..rows {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] = v;
    }

    /// Contiguous column slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[f32] {
        let start = c * self.rows;
        &self.data[start..start + self.rows]
    }

    /// Mutable contiguous column slice.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f32] {
        let start = c * self.rows;
        &mut self.data[start..start + self.rows]
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Horizontally concatenate matrices with identical row counts
    /// (the paper's reference-matrix *batching*: `[R₁ R₂ … R_B]`).
    ///
    /// # Panics
    /// Panics if row counts differ or the input is empty.
    pub fn hconcat(mats: &[&Mat]) -> Mat {
        assert!(!mats.is_empty(), "hconcat of zero matrices");
        let rows = mats[0].rows;
        assert!(
            mats.iter().all(|m| m.rows == rows),
            "hconcat requires identical row counts"
        );
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            data.extend_from_slice(&m.data);
        }
        Mat { rows, cols, data }
    }

    /// Remove the `count` columns starting at `start` in place: the last
    /// `count` columns move into their slot (column order is not kept), the
    /// rest stay where they are — `Vec::swap_remove` for one block of an
    /// [`Mat::hconcat`] of equal-width blocks. The oracle
    /// `PackedA::swap_remove_cols` is tested against.
    ///
    /// # Panics
    /// Panics unless the removed columns are the last `count` or end before
    /// them.
    pub fn swap_remove_cols(&mut self, start: usize, count: usize) {
        let tail = self.cols.checked_sub(count).expect("more columns than the matrix holds");
        assert!(start == tail || start + count <= tail, "hole overlaps the tail block");
        self.data.copy_within(tail * self.rows.., start * self.rows);
        self.data.truncate(tail * self.rows);
        self.cols = tail;
    }

    /// Convert to half precision after multiplying by `scale`
    /// (the paper's overflow-avoiding scale factor, §4.2). Vectorized on
    /// SIMD backends; bit-identical to the scalar `F16::from_f32(v * scale)`.
    pub fn to_f16_scaled(&self, scale: f32) -> MatF16 {
        MatF16::narrowed_scaled(self.rows, self.cols, &self.data, scale)
    }

    /// Size in bytes of the f32 payload.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<f32>()
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// A dense column-major half-precision matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatF16 {
    rows: usize,
    cols: usize,
    data: Vec<F16>,
}

impl MatF16 {
    /// Create a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![F16::ZERO; rows * cols] }
    }

    /// Build from a column-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<F16>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Self { rows, cols, data }
    }

    /// Narrow borrowed column-major f32 data after multiplying by `scale` —
    /// [`Mat::to_f16_scaled`] without needing an owned `Mat` first.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn narrowed_scaled(rows: usize, cols: usize, data: &[f32], scale: f32) -> MatF16 {
        assert_eq!(data.len(), rows * cols, "data length does not match dimensions");
        let mut out = vec![F16::ZERO; data.len()];
        crate::f16::narrow_slice_scaled_on(crate::dispatch::active_backend(), data, scale, &mut out);
        MatF16 { rows, cols, data: out }
    }

    /// Narrow an f32 matrix element-wise (round-to-nearest-even, no scale)
    /// — the 16-bit HGEMM *output* path, as opposed to
    /// [`Mat::to_f16_scaled`] which models scaled operand storage.
    pub fn narrowed(a: &Mat) -> MatF16 {
        let mut data = vec![F16::ZERO; a.data.len()];
        crate::f16::narrow_slice(&a.data, &mut data);
        MatF16 { rows: a.rows, cols: a.cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Contiguous column slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[F16] {
        let start = c * self.rows;
        &self.data[start..start + self.rows]
    }

    /// Underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[F16] {
        &self.data
    }

    /// Widen back to f32, undoing `scale` (i.e. divides by it).
    /// Vectorized on SIMD backends; bit-identical to the scalar
    /// `v.to_f32() * (1.0 / scale)`.
    pub fn to_f32_unscaled(&self, scale: f32) -> Mat {
        let inv = 1.0 / scale;
        let mut data = vec![0.0f32; self.data.len()];
        crate::f16::widen_slice_scaled_on(crate::dispatch::active_backend(), &self.data, inv, &mut data);
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// True if any stored element overflowed to ±∞ during conversion.
    pub fn has_overflow(&self) -> bool {
        self.data.iter().any(|v| v.is_infinite())
    }

    /// Horizontal concatenation (batched reference matrices, FP16 path).
    ///
    /// # Panics
    /// Panics if row counts differ or the input is empty.
    pub fn hconcat(mats: &[&MatF16]) -> MatF16 {
        assert!(!mats.is_empty(), "hconcat of zero matrices");
        let rows = mats[0].rows;
        assert!(
            mats.iter().all(|m| m.rows == rows),
            "hconcat requires identical row counts"
        );
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            data.extend_from_slice(&m.data);
        }
        MatF16 { rows, cols, data }
    }

    /// Size in bytes of the f16 payload (half of the f32 equivalent).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn col_major_indexing() {
        let m = Mat::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.col(1), &[3., 4.]);
    }

    #[test]
    fn from_fn_matches_get() {
        let m = Mat::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        for r in 0..3 {
            for c in 0..2 {
                assert_eq!(m.get(r, c), (r * 10 + c) as f32);
            }
        }
    }

    #[test]
    fn set_then_get() {
        let mut m = Mat::zeros(2, 2);
        m.set(1, 0, 7.5);
        assert_eq!(m.get(1, 0), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn hconcat_batches_columns() {
        let a = Mat::from_col_major(2, 1, vec![1., 2.]);
        let b = Mat::from_col_major(2, 2, vec![3., 4., 5., 6.]);
        let c = Mat::hconcat(&[&a, &b]);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.col(0), &[1., 2.]);
        assert_eq!(c.col(2), &[5., 6.]);
    }

    #[test]
    #[should_panic(expected = "identical row counts")]
    fn hconcat_rejects_mismatched_rows() {
        let a = Mat::zeros(2, 1);
        let b = Mat::zeros(3, 1);
        let _ = Mat::hconcat(&[&a, &b]);
    }

    #[test]
    fn f16_roundtrip_with_scale() {
        let m = Mat::from_col_major(2, 2, vec![0.5, 1.0, 2.0, 100.0]);
        let h = m.to_f16_scaled(0.125);
        let back = h.to_f32_unscaled(0.125);
        // These values are exactly representable after scaling.
        assert_eq!(back, m);
    }

    #[test]
    fn f16_overflow_detection() {
        let m = Mat::from_col_major(1, 1, vec![1.0e6]);
        assert!(m.to_f16_scaled(1.0).has_overflow());
        assert!(!m.to_f16_scaled(2.0_f32.powi(-7)).has_overflow());
    }

    #[test]
    fn size_bytes_halves_in_f16() {
        let m = Mat::zeros(128, 768);
        let h = m.to_f16_scaled(1.0);
        assert_eq!(m.size_bytes(), 128 * 768 * 4);
        assert_eq!(h.size_bytes(), 128 * 768 * 2);
    }

    #[test]
    fn swap_remove_cols_moves_the_last_block_into_the_hole() {
        let m = Mat::from_fn(2, 6, |r, c| (10 * c + r) as f32);
        let col = |c: usize| [10.0 * c as f32, 10.0 * c as f32 + 1.0];

        let mut mid = m.clone();
        mid.swap_remove_cols(0, 2);
        assert_eq!(mid.cols(), 4);
        assert_eq!(
            [mid.col(0), mid.col(1), mid.col(2), mid.col(3)],
            [col(4), col(5), col(2), col(3)]
        );

        let mut last = m.clone();
        last.swap_remove_cols(4, 2);
        assert_eq!(last, Mat::from_fn(2, 4, |r, c| (10 * c + r) as f32));

        let mut all = Mat::zeros(3, 2);
        all.swap_remove_cols(0, 2);
        assert_eq!((all.cols(), all.len()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "overlaps the tail")]
    fn swap_remove_cols_rejects_a_hole_that_overlaps_the_tail() {
        Mat::zeros(2, 5).swap_remove_cols(2, 2);
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = Mat::from_col_major(1, 2, vec![1.0, 2.0]);
        let b = Mat::from_col_major(1, 2, vec![1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
