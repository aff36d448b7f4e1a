//! CBIR-style pooled matching — the approach the paper argues *against*.
//!
//! Content-based image retrieval combines the features of all reference
//! images into one database and runs a single (approximate) nearest-
//! neighbour query per feature, voting for the image that owns each hit
//! (§2). The paper's point is that texture *identification* cannot use
//! this: the reference set is fine-grained (all images are "a tea brick"),
//! so pooled nearest neighbours and the pooled ratio test lose the
//! per-image discrimination that one-by-one matching retains.
//!
//! This module implements that pooled baseline faithfully so the claim can
//! be measured (`benches/ablation_cbir_baseline.rs`) instead of assumed.

use texid_knn::batched::rootsift_distances;
use texid_knn::good_matches;
use texid_linalg::kernel::{gemm_top2_ex, FusedEpilogue, PackedA, PackedB};
use texid_linalg::{active_backend, Mat};

/// A pooled (CBIR-style) feature database.
pub struct PooledIndex {
    /// `d × Σmᵢ` matrix of all reference features side by side.
    features: Mat,
    /// The same features pre-packed into the blocked-GEMM panel layout —
    /// built once so every query skips the packing pass.
    packed: PackedA,
    /// `owner[j]` = image id owning pooled column `j`.
    owner: Vec<u64>,
    /// Number of distinct images.
    images: usize,
}

impl PooledIndex {
    /// Build from per-image feature matrices (unit-norm RootSIFT columns).
    ///
    /// # Panics
    /// Panics on inconsistent descriptor dimensions or empty input.
    pub fn build(refs: &[(u64, &Mat)]) -> PooledIndex {
        assert!(!refs.is_empty(), "empty reference set");
        let mats: Vec<&Mat> = refs.iter().map(|(_, m)| *m).collect();
        let features = Mat::hconcat(&mats);
        let mut owner = Vec::with_capacity(features.cols());
        for (id, m) in refs {
            owner.extend(std::iter::repeat_n(*id, m.cols()));
        }
        let packed = PackedA::pack(active_backend(), &features);
        PooledIndex { features, packed, owner, images: refs.len() }
    }

    /// Fused global 2-NN: `top2(−2·RᵀQ)` straight from the pre-packed
    /// reference panels, never materializing the `Σmᵢ × n` distance matrix
    /// (which at CBIR scale dwarfs the operands).
    fn global_top2(&self, query: &Mat) -> Vec<texid_linalg::Top2> {
        gemm_top2_ex(
            -2.0,
            &self.packed,
            &PackedB::pack(self.packed.backend(), query),
            &FusedEpilogue::default(),
            1,
            self.packed.cols(),
        )
    }

    /// Total pooled features.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True when no features are pooled.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// CBIR query: each query feature finds its two *global* nearest
    /// neighbours; features passing the (global) ratio test vote for the
    /// image owning their nearest neighbour. Returns `(image id, votes)`
    /// sorted best-first.
    pub fn search(&self, query: &Mat, ratio_threshold: f32) -> Vec<(u64, usize)> {
        assert_eq!(query.rows(), self.features.rows(), "descriptor dim mismatch");
        // Same algebra as Algorithm 2, but over the pooled matrix: a single
        // global 2-NN instead of M per-image ones.
        let scored = rootsift_distances(&self.global_top2(query), 1.0);

        let mut votes: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for m in good_matches(&scored, ratio_threshold) {
            *votes.entry(self.owner[m.ref_idx as usize]).or_default() += 1;
        }
        let mut out: Vec<(u64, usize)> = votes.into_iter().collect();
        out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }

    /// Like [`Self::search`] but without the ratio test (pure 1-NN voting,
    /// the other common CBIR scoring).
    pub fn search_votes_only(&self, query: &Mat) -> Vec<(u64, usize)> {
        assert_eq!(query.rows(), self.features.rows(), "descriptor dim mismatch");
        let top2 = self.global_top2(query);
        let mut votes: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for t in &top2 {
            *votes.entry(self.owner[t.idx as usize]).or_default() += 1;
        }
        let mut out: Vec<(u64, usize)> = votes.into_iter().collect();
        out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }

    /// Number of distinct images indexed.
    pub fn image_count(&self) -> usize {
        self.images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_linalg::kernel::gemm_at_b;
    use texid_linalg::top2::top2_min_per_column;

    fn unit_features(d: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        let mut m = Mat::from_fn(d, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0
        });
        for c in 0..cols {
            let norm: f32 = m.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            for v in m.col_mut(c) {
                *v /= norm;
            }
        }
        m
    }

    #[test]
    fn owner_mapping() {
        let a = unit_features(16, 3, 1);
        let b = unit_features(16, 2, 2);
        let idx = PooledIndex::build(&[(10, &a), (20, &b)]);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.image_count(), 2);
    }

    #[test]
    fn exact_copy_wins_votes() {
        let refs: Vec<Mat> = (0..4).map(|i| unit_features(32, 20, 100 + i)).collect();
        let handles: Vec<(u64, &Mat)> =
            refs.iter().enumerate().map(|(i, m)| (i as u64, m)).collect();
        let idx = PooledIndex::build(&handles);
        // Query = image 2's own features: every vote goes to 2.
        let result = idx.search_votes_only(&refs[2]);
        assert_eq!(result[0].0, 2);
        assert_eq!(result[0].1, 20);
    }

    #[test]
    fn global_ratio_test_suppresses_fine_grained_matches() {
        // The pooled pathology: when other images contain near-duplicate
        // features (fine-grained set), the *global* second-nearest
        // neighbour is close, so the ratio test kills genuine matches.
        let base = unit_features(32, 30, 7);
        // Image 1 = base; image 2 = slightly perturbed base (sibling).
        let mut sibling = base.clone();
        for v in sibling.as_mut_slice() {
            *v += 0.01;
        }
        for c in 0..sibling.cols() {
            let norm: f32 = sibling.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            for v in sibling.col_mut(c) {
                *v /= norm;
            }
        }
        let idx = PooledIndex::build(&[(1, &base), (2, &sibling)]);
        // Query = base with small noise: its nearest is in image 1, but the
        // second-nearest (in image 2) is nearly as close ⇒ ratio ≈ 1 ⇒
        // almost no votes survive.
        let mut query = base.clone();
        for v in query.as_mut_slice() {
            *v += 0.005;
        }
        for c in 0..query.cols() {
            let norm: f32 = query.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            for v in query.col_mut(c) {
                *v /= norm;
            }
        }
        let survivors = idx.search(&query, 0.75);
        let total_votes: usize = survivors.iter().map(|(_, v)| v).sum();
        assert!(
            total_votes < 5,
            "global ratio test should kill sibling matches, got {total_votes}"
        );
        // Per-image matching (the paper's way) has no such problem: the
        // second-nearest *within image 1* is far, so matches survive.
        let a = gemm_at_b(active_backend(), -2.0, &base, &query);
        let scored = rootsift_distances(&top2_min_per_column(&a, 1, a.rows()), 1.0);
        let per_image = good_matches(&scored, 0.75).len();
        assert!(per_image > 25, "per-image matching should survive: {per_image}");
    }

    #[test]
    #[should_panic(expected = "empty reference set")]
    fn empty_rejected() {
        let _ = PooledIndex::build(&[]);
    }
}
