//! Precision-tagged feature blocks.
//!
//! A [`FeatureBlock`] is one reference feature matrix (or a batched
//! concatenation of several) in whatever precision the engine is configured
//! for. FP16 blocks remember the scale factor applied before narrowing
//! (§4.2) so matching can undo `scale²` after the GEMM. It is the form
//! features travel and rest in — a pair to verify, one reference or one
//! query on its way to the packer, a stored reference (narrowed once, at
//! ingest). What a matcher multiplies, and all the engine keeps of
//! a batch, is the [`PackedBlock`] made from it: a reference is scattered
//! into its batch's panels as it arrives ([`PackedBlock::append_cols`]) and
//! overwritten there when its id is rewritten ([`PackedBlock::write_cols`]).

use std::borrow::Cow;
use std::ops::Range;
use texid_gpu::Precision;
use texid_linalg::kernel::{PackedA, PackedB};
use texid_linalg::mat::ColRange;
use texid_linalg::{Backend, Mat, MatF16, F16};

/// Components [`FeatureBlock::unstorable`] folds per step: a few vector
/// registers' worth, so a clean matrix is one compare pass, and a flagged
/// chunk costs one short scalar search.
const STORABLE_CHUNK: usize = 64;

/// A feature matrix in storage precision.
#[derive(Clone, Debug)]
pub enum FeatureBlock {
    /// Full-precision storage.
    F32(Mat),
    /// Half-precision storage; `scale` was multiplied in before narrowing.
    F16 {
        /// The narrowed matrix (values are `original · scale`).
        mat: MatF16,
        /// The paper's overflow-avoiding scale factor (2⁻⁷ in practice).
        scale: f32,
    },
}

/// A [`FeatureBlock`] packed into the kernel's k-major panels ([`PackedA`]
/// for references, f16 where the backend's tiles widen in register;
/// [`PackedB`] for a query, widened once) and bound to a kernel backend —
/// the form every matcher's GEMM takes its operands in. Remembers the
/// block's precision and FP16 scale, the two facts that cannot be read back
/// from the panels, so mismatched operands are rejected in one place
/// (`batched::scale_sq`).
pub struct PackedBlock<P> {
    pub(crate) panels: P,
    pub(crate) precision: Precision,
    /// The FP16 pre-narrowing scale (`1.0` for F32 blocks).
    pub(crate) scale: f32,
}

impl PackedBlock<PackedA> {
    /// Append `block`'s columns — one more reference of an open batch — in
    /// place ([`PackedA::append_cols`]): the pack of the
    /// [`FeatureBlock::hconcat`], without the concatenation.
    ///
    /// # Panics
    /// Panics on a block of another precision, scale or depth.
    pub fn append_cols(&mut self, block: &FeatureBlock) {
        match self.same_storage(block) {
            FeatureBlock::F32(m) => self.panels.append_cols(m),
            FeatureBlock::F16 { mat, .. } => self.panels.append_cols(mat),
        }
    }

    /// Overwrite the columns from `start` on with `block`'s — one reference
    /// rewritten in its slot ([`PackedA::write_cols`]).
    ///
    /// # Panics
    /// As [`Self::append_cols`], or on columns past the last.
    pub fn write_cols(&mut self, start: usize, block: &FeatureBlock) {
        match self.same_storage(block) {
            FeatureBlock::F32(m) => self.panels.write_cols(start, m),
            FeatureBlock::F16 { mat, .. } => self.panels.write_cols(start, mat),
        }
    }

    /// [`FeatureBlock::hconcat`]'s refusals, for a batch never concatenated.
    fn same_storage<'a>(&self, block: &'a FeatureBlock) -> &'a FeatureBlock {
        assert_eq!(block.precision(), self.precision, "mixed precisions in a batch");
        assert_eq!(block.scale(), self.scale, "mixed scales in a batch");
        block
    }

    /// Bytes the panels hold ([`PackedA::panel_bytes`]).
    pub fn panel_bytes(&self) -> usize {
        self.panels.panel_bytes()
    }

    /// Delete the `count` reference columns starting at `start` — one
    /// reference out of a batch — in the buffer the panels already have: the
    /// last `count` columns move into their slot
    /// ([`PackedA::swap_remove_cols`]).
    ///
    /// # Panics
    /// Panics unless the removed columns are the last `count` or end before
    /// them.
    pub fn swap_remove_cols(&mut self, start: usize, count: usize) {
        self.panels.swap_remove_cols(start, count)
    }

    /// The `count` reference columns starting at `start`, dequantized: the
    /// panel values for an F32 block, `panel value · (1 / scale)` for an F16
    /// one — the bits [`MatF16::to_f32_unscaled`] gives the block the panels
    /// were packed from.
    pub fn read_cols(&self, start: usize, count: usize) -> Mat {
        let mut cols = self.panels.read_cols(start, count);
        if self.precision == Precision::F16 {
            let inv = 1.0 / self.scale;
            cols.as_mut_slice().iter_mut().for_each(|v| *v *= inv);
        }
        cols
    }
}

impl PackedBlock<PackedB> {
    /// Number of query feature columns.
    pub fn cols(&self) -> usize {
        self.panels.cols()
    }

    /// Descriptor dimensionality.
    pub fn rows(&self) -> usize {
        self.panels.depth()
    }
}

impl FeatureBlock {
    /// Narrow an f32 feature matrix into the requested precision.
    pub fn from_mat(mat: Mat, precision: Precision, scale: f32) -> FeatureBlock {
        match precision {
            Precision::F32 => FeatureBlock::F32(mat),
            Precision::F16 => FeatureBlock::F16 { mat: mat.to_f16_scaled(scale), scale },
        }
    }

    /// [`Self::from_mat`] from borrowed column-major data (`d × cols`): the
    /// F16 encode narrows straight out of the slice, with no intermediate
    /// f32 copy.
    ///
    /// # Panics
    /// Panics if `data.len() != d * cols`.
    pub fn encode(d: usize, cols: usize, data: &[f32], precision: Precision, scale: f32) -> FeatureBlock {
        match precision {
            Precision::F32 => FeatureBlock::F32(Mat::from_col_major(d, cols, data.to_vec())),
            Precision::F16 => {
                FeatureBlock::F16 { mat: MatF16::narrowed_scaled(d, cols, data, scale), scale }
            }
        }
    }

    /// This block in `precision` (at `scale` for F16): itself if it already
    /// is; otherwise widened from f16 and unscaled, then narrowed if
    /// `precision` is F16 — each conversion once.
    pub fn into_precision(self, precision: Precision, scale: f32) -> FeatureBlock {
        match self {
            FeatureBlock::F32(mat) if precision == Precision::F32 => FeatureBlock::F32(mat),
            FeatureBlock::F16 { scale: s, .. } if precision == Precision::F16 && s == scale => self,
            FeatureBlock::F32(mat) => {
                FeatureBlock::encode(mat.rows(), mat.cols(), mat.as_slice(), precision, scale)
            }
            FeatureBlock::F16 { .. } => FeatureBlock::from_mat(self.to_f32(), precision, scale),
        }
    }

    /// The block dequantized: the f32 matrix itself, or the f16 one widened
    /// with the scale undone ([`MatF16::to_f32_unscaled`]).
    pub fn to_f32(&self) -> Mat {
        match self {
            FeatureBlock::F32(m) => m.clone(),
            FeatureBlock::F16 { mat, scale } => mat.to_f32_unscaled(*scale),
        }
    }

    /// The first `m` columns, zero columns appended where the block has
    /// fewer: borrowed when it has exactly `m`. Zero narrows to zero, so
    /// this is the block of the fitted f32 matrix.
    pub fn fit_cols(&self, m: usize) -> Cow<'_, FeatureBlock> {
        let (d, cols) = (self.rows(), self.cols());
        if cols == m {
            return Cow::Borrowed(self);
        }
        fn fit<T: Copy>(data: &[T], keep: usize, len: usize, zero: T) -> Vec<T> {
            let mut out = data[..keep].to_vec();
            out.resize(len, zero);
            out
        }
        let (keep, len) = (d * m.min(cols), d * m);
        Cow::Owned(match self {
            FeatureBlock::F32(mat) => {
                FeatureBlock::F32(Mat::from_col_major(d, m, fit(mat.as_slice(), keep, len, 0.0)))
            }
            FeatureBlock::F16 { mat, scale } => FeatureBlock::F16 {
                mat: MatF16::from_col_major(d, m, fit(mat.as_slice(), keep, len, F16::ZERO)),
                scale: *scale,
            },
        })
    }

    /// The first descriptor component of `data` that `precision` cannot
    /// hold: NaN or `±∞`, and under F16 also any `x` with `|x · scale|`
    /// above the largest finite half, 65 504 (it would narrow to `±∞` or
    /// round down to the maximum). `None` when every component is storable.
    pub fn unstorable(data: &[f32], precision: Precision, scale: f32) -> Option<f32> {
        let (limit, scale) = match precision {
            Precision::F32 => (f32::MAX, 1.0),
            Precision::F16 => (F16::MAX.to_f32(), scale),
        };
        let unstorable = |x: f32| x.is_nan() | ((x * scale).abs() > limit);
        // Each chunk is folded branch-free, which vectorizes where an
        // early-exit `find` does not; only the first flagged chunk is
        // searched for its first offender.
        data.chunks(STORABLE_CHUNK)
            .find(|chunk| chunk.iter().fold(false, |any, &x| any | unstorable(x)))
            .and_then(|chunk| chunk.iter().copied().find(|&x| unstorable(x)))
    }

    /// Pack as the reference (A) operand of the kernel on `be`.
    pub fn pack_refs(&self, be: Backend) -> PackedBlock<PackedA> {
        self.packed(match self {
            FeatureBlock::F32(m) => PackedA::pack(be, m),
            FeatureBlock::F16 { mat, .. } => PackedA::pack(be, mat),
        })
    }

    /// Pack as the query (B) operand of the kernel on `be`.
    pub fn pack_query(&self, be: Backend) -> PackedBlock<PackedB> {
        self.pack_query_cols(be, 0..self.cols())
    }

    /// Pack columns `cols` as the query (B) operand of the kernel on `be`:
    /// the pack of a block of those columns alone, straight from this one.
    ///
    /// # Panics
    /// Panics if `cols` runs past the last column.
    pub fn pack_query_cols(&self, be: Backend, cols: Range<usize>) -> PackedBlock<PackedB> {
        self.packed(match self {
            FeatureBlock::F32(m) => PackedB::pack(be, &ColRange::of(m, cols)),
            FeatureBlock::F16 { mat, .. } => PackedB::pack(be, &ColRange::of(mat, cols)),
        })
    }

    fn packed<P>(&self, panels: P) -> PackedBlock<P> {
        PackedBlock { panels, precision: self.precision(), scale: self.scale() }
    }

    /// The FP16 pre-narrowing scale (`1.0` for F32 blocks).
    fn scale(&self) -> f32 {
        match self {
            FeatureBlock::F32(_) => 1.0,
            FeatureBlock::F16 { scale, .. } => *scale,
        }
    }

    /// Number of feature columns.
    pub fn cols(&self) -> usize {
        match self {
            FeatureBlock::F32(m) => m.cols(),
            FeatureBlock::F16 { mat, .. } => mat.cols(),
        }
    }

    /// Descriptor dimensionality.
    pub fn rows(&self) -> usize {
        match self {
            FeatureBlock::F32(m) => m.rows(),
            FeatureBlock::F16 { mat, .. } => mat.rows(),
        }
    }

    /// Payload bytes in storage precision.
    pub fn size_bytes(&self) -> usize {
        match self {
            FeatureBlock::F32(m) => m.size_bytes(),
            FeatureBlock::F16 { mat, .. } => mat.size_bytes(),
        }
    }

    /// Storage precision.
    pub fn precision(&self) -> Precision {
        match self {
            FeatureBlock::F32(_) => Precision::F32,
            FeatureBlock::F16 { .. } => Precision::F16,
        }
    }

    /// Concatenate blocks of identical precision/scale column-wise
    /// (the paper's reference batching).
    ///
    /// # Panics
    /// Panics on empty input or mixed precisions/scales.
    pub fn hconcat(blocks: &[&FeatureBlock]) -> FeatureBlock {
        assert!(!blocks.is_empty(), "hconcat of zero blocks");
        match blocks[0] {
            FeatureBlock::F32(_) => {
                let mats: Vec<&Mat> = blocks
                    .iter()
                    .map(|b| match b {
                        FeatureBlock::F32(m) => m,
                        _ => panic!("mixed precisions in hconcat"),
                    })
                    .collect();
                FeatureBlock::F32(Mat::hconcat(&mats))
            }
            FeatureBlock::F16 { scale, .. } => {
                let s0 = *scale;
                let mats: Vec<&MatF16> = blocks
                    .iter()
                    .map(|b| match b {
                        FeatureBlock::F16 { mat, scale } if *scale == s0 => mat,
                        FeatureBlock::F16 { .. } => panic!("mixed scales in hconcat"),
                        _ => panic!("mixed precisions in hconcat"),
                    })
                    .collect();
                FeatureBlock::F16 { mat: MatF16::hconcat(&mats), scale: s0 }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cols: usize) -> Mat {
        Mat::from_fn(4, cols, |r, c| (r + c) as f32 * 0.1)
    }

    /// The early-exit scan `unstorable` shipped with: the oracle the
    /// chunked fold must answer exactly as.
    fn unstorable_reference(data: &[f32], precision: Precision, scale: f32) -> Option<f32> {
        let (limit, scale) = match precision {
            Precision::F32 => (f32::MAX, 1.0),
            Precision::F16 => (F16::MAX.to_f32(), scale),
        };
        data.iter().copied().find(|&x| x.is_nan() || (x * scale).abs() > limit)
    }

    /// One offender of each kind at every position 0–600 (across many
    /// chunk boundaries, and in the ragged last chunk), with a later one of
    /// another kind behind it: the first is the answer, as the `find` form
    /// gives it, and clean data of every length gives `None`.
    #[test]
    fn unstorable_finds_the_first_offender_as_the_scan_does() {
        let scale = 0.5;
        // `x · scale` past the largest finite half, either sign; and the
        // largest that still fits, which is storable.
        let overflow = 65_520.0 / scale;
        let fits = F16::MAX.to_f32() / scale;
        let kinds = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, overflow, -overflow];
        let clean: Vec<f32> =
            (0..601).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01).chain([fits, -fits]).collect();
        let same = |a: Option<f32>, b: Option<f32>| a.map(f32::to_bits) == b.map(f32::to_bits);
        for precision in [Precision::F32, Precision::F16] {
            for len in 0..=clean.len() {
                assert_eq!(FeatureBlock::unstorable(&clean[..len], precision, scale), None);
            }
            for at in 0..=600 {
                for (k, &bad) in kinds.iter().enumerate() {
                    let mut data = clean.clone();
                    data[at] = bad;
                    let later = at + 1 + at * 7 % 70;
                    if let Some(x) = data.get_mut(later) {
                        *x = kinds[(k + 1) % kinds.len()];
                    }
                    let got = FeatureBlock::unstorable(&data, precision, scale);
                    let want = unstorable_reference(&data, precision, scale);
                    assert!(same(got, want), "{precision:?} {bad} at {at}: {got:?} vs {want:?}");
                    if precision == Precision::F16 || !bad.is_finite() {
                        assert!(same(got, Some(bad)), "{precision:?} {bad} at {at}: {got:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn f32_roundtrip_properties() {
        let b = FeatureBlock::from_mat(sample(3), Precision::F32, 1.0);
        assert_eq!(b.cols(), 3);
        assert_eq!(b.rows(), 4);
        assert_eq!(b.size_bytes(), 48);
        assert_eq!(b.precision(), Precision::F32);
    }

    #[test]
    fn f16_halves_bytes() {
        let b = FeatureBlock::from_mat(sample(3), Precision::F16, 0.0078125);
        assert_eq!(b.size_bytes(), 24);
        assert_eq!(b.precision(), Precision::F16);
    }

    #[test]
    fn hconcat_f32() {
        let a = FeatureBlock::from_mat(sample(2), Precision::F32, 1.0);
        let b = FeatureBlock::from_mat(sample(3), Precision::F32, 1.0);
        let cat = FeatureBlock::hconcat(&[&a, &b]);
        assert_eq!(cat.cols(), 5);
    }

    #[test]
    fn hconcat_f16_same_scale() {
        let s = 2.0_f32.powi(-7);
        let a = FeatureBlock::from_mat(sample(2), Precision::F16, s);
        let b = FeatureBlock::from_mat(sample(1), Precision::F16, s);
        let cat = FeatureBlock::hconcat(&[&a, &b]);
        assert_eq!(cat.cols(), 3);
        assert_eq!(cat.precision(), Precision::F16);
    }

    #[test]
    fn appended_and_overwritten_panels_read_back_as_the_hconcat() {
        let be = texid_linalg::active_backend();
        for (precision, scale) in [(Precision::F32, 1.0), (Precision::F16, 0.25)] {
            let block = |cols, shift: usize| {
                let m = Mat::from_fn(4, cols, |r, c| (r + c + shift) as f32 * 0.125);
                FeatureBlock::from_mat(m, precision, scale)
            };
            let (a, b, c) = (block(3, 0), block(3, 5), block(3, 9));
            let mut grown = a.pack_refs(be);
            grown.append_cols(&b);
            let cat = FeatureBlock::hconcat(&[&a, &b]).pack_refs(be);
            assert_eq!(grown.read_cols(0, 6), cat.read_cols(0, 6), "{precision:?}");
            grown.write_cols(0, &c);
            let cat = FeatureBlock::hconcat(&[&c, &b]).pack_refs(be);
            assert_eq!(grown.read_cols(0, 6), cat.read_cols(0, 6), "{precision:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mixed scales")]
    fn append_rejects_another_scale() {
        let a = FeatureBlock::from_mat(sample(2), Precision::F16, 0.25);
        let b = FeatureBlock::from_mat(sample(2), Precision::F16, 0.5);
        a.pack_refs(texid_linalg::active_backend()).append_cols(&b);
    }

    #[test]
    #[should_panic(expected = "mixed precisions")]
    fn hconcat_rejects_mixed() {
        let a = FeatureBlock::from_mat(sample(2), Precision::F32, 1.0);
        let b = FeatureBlock::from_mat(sample(1), Precision::F16, 1.0);
        let _ = FeatureBlock::hconcat(&[&a, &b]);
    }
}
