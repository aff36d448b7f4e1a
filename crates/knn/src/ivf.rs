//! IVF coarse quantizer: seeded k-means over pooled per-image descriptors
//! plus an inverted file of reference batches per centroid.
//!
//! This is the candidate-pruning layer of Johnson, Douze & Jégou
//! (*Billion-scale similarity search with GPUs*, IVFADC without the product
//! quantizer): a search scores its pooled query descriptor against `nlist`
//! centroids, keeps the top-`nprobe` cells, and runs the **exact** fused
//! top-2 sweep only over the reference batches posted in those cells. Total
//! sweep work drops from `O(refs)` to roughly `O(refs · nprobe / nlist)`
//! while the re-rank stays bit-exact — the survivors are scored by exactly
//! the same kernels as before.
//!
//! # Determinism
//!
//! Training is seeded and reproducible: k-means++ initialization draws from
//! a fixed LCG, Lloyd iterations are capped, the assignment step reuses the
//! packed GEMM (whose summation order is fixed — see `texid_linalg::kernel`),
//! and every tie (equidistant centroids, equally-far re-seed candidates)
//! breaks toward the lowest index. Two trainings from the same points and
//! seed produce bit-identical centroids and postings.

use std::collections::BTreeSet;

use texid_linalg::dispatch::active_backend;
use texid_linalg::kernel::{gemm_packed, gemm_top2_ex, FusedEpilogue, PackedA, PackedB};
use texid_linalg::mat::Mat;
use texid_linalg::norms::col_sq_norms;

/// The repo-standard LCG (same multiplier/increment as the test-data
/// generators), kept private to the quantizer so training is self-contained.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Result of a [`kmeans`] run.
pub struct Kmeans {
    /// `d × k` centroid matrix (column `c` is centroid `c`).
    pub centroids: Mat,
    /// Nearest-centroid assignment per input column.
    pub assignments: Vec<u32>,
    /// Lloyd iterations actually executed (≤ the cap; stops early when the
    /// assignment fixes).
    pub iterations: usize,
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Nearest-centroid assignment via the packed GEMM: per point, argmin over
/// cells of `‖c‖² − 2·cᵀx` (the `‖x‖²` term is constant per point). The
/// fused top-2 kernel's first-index tie-break gives the lowest cell on ties.
fn assign(packed: &PackedA, norms: &[f32], points: &Mat) -> Vec<u32> {
    let k = packed.cols();
    if k < 2 {
        return vec![0; points.cols()];
    }
    let epi = FusedEpilogue { row_bias: Some(norms), ..FusedEpilogue::default() };
    gemm_top2_ex(-2.0, packed, &PackedB::pack(packed.backend(), points), &epi, 1, k)
        .iter()
        .map(|t| t.idx)
        .collect()
}

/// Seeded, deterministic k-means: k-means++ initialization from a fixed LCG,
/// Lloyd iterations capped at `max_iters`, GEMM-backed assignment, and
/// empty clusters re-seeded to the currently-farthest points (ties to the
/// lowest index). Same inputs + seed ⇒ bit-identical output.
///
/// # Panics
/// Panics if `k == 0` or there are fewer points than clusters.
pub fn kmeans(points: &Mat, k: usize, seed: u64, max_iters: usize) -> Kmeans {
    let n = points.cols();
    let d = points.rows();
    assert!(k >= 1, "k-means needs at least one cluster");
    assert!(n >= k, "k-means needs at least k points ({n} < {k})");

    let mut rng = Lcg(seed | 1);

    // k-means++ seeding: first centroid uniform, each next one drawn with
    // probability proportional to its squared distance from the chosen set.
    let mut chosen: Vec<usize> = vec![rng.below(n)];
    let mut dist2: Vec<f32> = (0..n)
        .map(|j| sq_dist(points.col(j), points.col(chosen[0])))
        .collect();
    while chosen.len() < k {
        let total: f64 = dist2.iter().map(|&v| v as f64).sum();
        let pick = if total > 0.0 {
            let mut threshold = rng.next_f64() * total;
            let mut idx = n - 1;
            for (j, &v) in dist2.iter().enumerate() {
                threshold -= v as f64;
                if threshold <= 0.0 {
                    idx = j;
                    break;
                }
            }
            idx
        } else {
            // All mass at the chosen set (duplicate points): fall back to a
            // uniform draw so we still end with k centroids.
            rng.below(n)
        };
        chosen.push(pick);
        for (j, slot) in dist2.iter_mut().enumerate() {
            let nd = sq_dist(points.col(j), points.col(pick));
            if nd < *slot {
                *slot = nd;
            }
        }
    }
    let mut centroids = Mat::from_fn(d, k, |r, c| points.col(chosen[c])[r]);

    let mut assignments: Vec<u32> = Vec::new();
    let mut iterations = 0;
    for _ in 0..max_iters {
        let packed = PackedA::pack(active_backend(), &centroids);
        let norms = col_sq_norms(&centroids);
        let next = assign(&packed, &norms, points);
        let converged = next == assignments;
        assignments = next;
        iterations += 1;
        if converged {
            break;
        }

        // Update: plain mean of each cluster's members.
        let mut sums = vec![0.0f32; d * k];
        let mut counts = vec![0usize; k];
        for (j, &cell) in assignments.iter().enumerate() {
            let dst = &mut sums[cell as usize * d..(cell as usize + 1) * d];
            for (s, &v) in dst.iter_mut().zip(points.col(j)) {
                *s += v;
            }
            counts[cell as usize] += 1;
        }
        // Empty clusters re-seed to the farthest points from their current
        // centroids: walk points by descending assignment distance
        // (deterministically, ties to the lowest index).
        let empties: Vec<usize> = (0..k).filter(|&c| counts[c] == 0).collect();
        if !empties.is_empty() {
            let mut far: Vec<(usize, f32)> = (0..n)
                .map(|j| (j, sq_dist(points.col(j), centroids.col(assignments[j] as usize))))
                .collect();
            far.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (cell, &(j, _)) in empties.iter().zip(&far) {
                let dst = &mut sums[cell * d..(cell + 1) * d];
                dst.copy_from_slice(points.col(j));
                counts[*cell] = 1;
            }
        }
        centroids = Mat::from_fn(d, k, |r, c| sums[c * d + r] / counts[c] as f32);
    }

    Kmeans { centroids, assignments, iterations }
}

/// Mean of the non-zero columns of a feature matrix, renormalized to unit
/// length — the "pooled" per-image RootSIFT descriptor the coarse quantizer
/// clusters and probes. Zero-padding columns (the engine pads short
/// references) are skipped; an empty or all-zero matrix pools to zeros.
pub fn pool_columns(m: &Mat) -> Vec<f32> {
    pool_column_slice(m.rows(), m.as_slice())
}

/// [`pool_columns`] over borrowed column-major data (`d` rows per column),
/// so a column prefix of a larger matrix pools without being copied out.
pub fn pool_column_slice(d: usize, data: &[f32]) -> Vec<f32> {
    let mut sum = vec![0.0f32; d];
    let mut used = 0usize;
    for col in data.chunks_exact(d.max(1)) {
        if col.iter().all(|&v| v == 0.0) {
            continue;
        }
        for (s, &v) in sum.iter_mut().zip(col) {
            *s += v;
        }
        used += 1;
    }
    if used == 0 {
        return sum;
    }
    let inv = 1.0 / used as f32;
    for v in &mut sum {
        *v *= inv;
    }
    let norm: f32 = sum.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 0.0 {
        for v in &mut sum {
            *v /= norm;
        }
    }
    sum
}

/// The inverted file: trained centroids plus a posting list of reference
/// batch ids per cell, maintained incrementally as batches are ingested.
pub struct IvfIndex {
    centroids: Mat,
    packed: PackedA,
    norms: Vec<f32>,
    postings: Vec<Vec<u64>>,
    indexed: BTreeSet<u64>,
}

impl IvfIndex {
    /// Train the coarse quantizer on pooled descriptors (`d × n`, one column
    /// per reference image) and start with empty postings.
    ///
    /// # Panics
    /// Panics if `nlist < 2` or there are fewer points than cells.
    pub fn train(points: &Mat, nlist: usize, seed: u64, max_iters: usize) -> IvfIndex {
        assert!(nlist >= 2, "an IVF index needs at least two cells");
        let km = kmeans(points, nlist, seed, max_iters);
        let packed = PackedA::pack(active_backend(), &km.centroids);
        let norms = col_sq_norms(&km.centroids);
        IvfIndex {
            centroids: km.centroids,
            packed,
            norms,
            postings: vec![Vec::new(); nlist],
            indexed: BTreeSet::new(),
        }
    }

    /// Number of cells.
    pub fn nlist(&self) -> usize {
        self.centroids.cols()
    }

    /// Descriptor dimensionality the quantizer was trained on.
    pub fn dim(&self) -> usize {
        self.centroids.rows()
    }

    /// The trained centroid matrix (`d × nlist`).
    pub fn centroids(&self) -> &Mat {
        &self.centroids
    }

    /// Nearest cell per column of `pooled`.
    pub fn assign_cells(&self, pooled: &Mat) -> Vec<u32> {
        assign(&self.packed, &self.norms, pooled)
    }

    /// Post a reference batch under the cells of its members' pooled
    /// descriptors (`pooled`: one column per image in the batch). A batch
    /// whose images quantize to several cells is posted in each of them.
    pub fn add_batch(&mut self, batch_id: u64, pooled: &Mat) {
        for cell in self.assign_cells(pooled) {
            let list = &mut self.postings[cell as usize];
            if let Err(at) = list.binary_search(&batch_id) {
                list.insert(at, batch_id);
            }
        }
        self.indexed.insert(batch_id);
    }

    /// Take a batch that no longer exists out of `indexed` and of every
    /// posting list. A batch that only *lost* members is left alone: it may
    /// stay posted under the cell of a member that is gone, which makes some
    /// probe sweep it needlessly and can never hide a live member.
    pub fn remove_batch(&mut self, batch_id: u64) {
        if self.indexed.remove(&batch_id) {
            for list in &mut self.postings {
                if let Ok(at) = list.binary_search(&batch_id) {
                    list.remove(at);
                }
            }
        }
    }

    /// Whether a batch has been posted into the index.
    pub fn contains(&self, batch_id: u64) -> bool {
        self.indexed.contains(&batch_id)
    }

    /// Score one pooled query descriptor against every centroid and return
    /// the `min(nprobe, nlist)` nearest cells, nearest first (ties to the
    /// lower cell id). Distances use the same packed GEMM as assignment:
    /// `‖c‖² − 2·cᵀq`, the per-query-constant `‖q‖²` dropped.
    pub fn probe(&self, query_pool: &[f32], nprobe: usize) -> Vec<u32> {
        assert_eq!(query_pool.len(), self.dim(), "pooled query dimension mismatch");
        let q = Mat::from_col_major(self.dim(), 1, query_pool.to_vec());
        let scores =
            gemm_packed(-2.0, &self.packed, &PackedB::pack(self.packed.backend(), &q));
        let mut cells: Vec<u32> = (0..self.nlist() as u32).collect();
        cells.sort_by(|&a, &b| {
            let sa = self.norms[a as usize] + scores.get(a as usize, 0);
            let sb = self.norms[b as usize] + scores.get(b as usize, 0);
            sa.total_cmp(&sb).then(a.cmp(&b))
        });
        cells.truncate(nprobe.min(self.nlist()));
        cells
    }

    /// Union of the posting lists of `cells` — the batches a probed search
    /// must still sweep exactly.
    pub fn batches_in(&self, cells: &[u32]) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        for &cell in cells {
            out.extend(self.postings[cell as usize].iter().copied());
        }
        out
    }

    /// Posting-list length of one cell.
    pub fn posting_len(&self, cell: u32) -> usize {
        self.postings[cell as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` unit-norm points in `d` dims drawn around `k` well-separated
    /// anchors, so clustering has an unambiguous answer.
    fn clustered_points(d: usize, n: usize, k: usize, seed: u64) -> Mat {
        let mut rng = Lcg(seed | 1);
        Mat::from_fn(d, n, |r, c| {
            let anchor = c % k;
            let base = if r == anchor { 1.0 } else { 0.0 };
            let noise = (rng.next_f64() as f32 - 0.5) * 0.05;
            base + noise
        })
    }

    #[test]
    fn kmeans_same_seed_bit_identical() {
        let pts = clustered_points(8, 40, 4, 9);
        let a = kmeans(&pts, 4, 0xfeed, 12);
        let b = kmeans(&pts, 4, 0xfeed, 12);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.iterations, b.iterations);
        let (ca, cb) = (a.centroids.as_slice(), b.centroids.as_slice());
        assert!(ca.iter().zip(cb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let pts = clustered_points(6, 60, 3, 3);
        let km = kmeans(&pts, 3, 0x5eed, 20);
        // Points sharing an anchor must share a cluster.
        for j in 3..60 {
            assert_eq!(
                km.assignments[j],
                km.assignments[j % 3],
                "point {j} strayed from its anchor cluster"
            );
        }
    }

    #[test]
    fn kmeans_handles_duplicate_points() {
        let pts = Mat::from_fn(4, 10, |r, _| if r == 0 { 1.0 } else { 0.0 });
        let km = kmeans(&pts, 3, 7, 5);
        assert_eq!(km.assignments.len(), 10);
    }

    #[test]
    fn probe_ranks_own_cell_first_and_nprobe_nlist_returns_all() {
        let pts = clustered_points(6, 30, 3, 11);
        let mut ivf = IvfIndex::train(&pts, 3, 0xabc, 15);
        for b in 0..10u64 {
            let col = pts.col(b as usize * 3).to_vec();
            ivf.add_batch(b, &Mat::from_col_major(6, 1, col));
        }
        let q = pts.col(0);
        let one = ivf.probe(q, 1);
        assert_eq!(one.len(), 1);
        assert!(ivf.posting_len(one[0]) > 0, "query's nearest cell holds its batch");
        let all = ivf.probe(q, 3);
        assert_eq!(all.len(), 3, "nprobe = nlist probes every cell");
        let every = ivf.batches_in(&all);
        assert_eq!(every.len(), 10, "probing all cells covers all batches");
    }

    #[test]
    fn removed_batch_leaves_indexed_and_every_posting_list() {
        let pts = clustered_points(6, 30, 3, 11);
        let mut ivf = IvfIndex::train(&pts, 3, 0xabc, 15);
        // Batch 7 spans all three cells; batch 8 shares one of them.
        ivf.add_batch(7, &Mat::from_fn(6, 3, |r, c| pts.col(c)[r]));
        ivf.add_batch(8, &Mat::from_col_major(6, 1, pts.col(0).to_vec()));
        assert_eq!((0..3).map(|c| ivf.posting_len(c)).sum::<usize>(), 4);
        ivf.remove_batch(7);
        ivf.remove_batch(7); // gone already: nothing to do
        assert!(!ivf.contains(7) && ivf.contains(8));
        assert_eq!(ivf.batches_in(&[0, 1, 2]), BTreeSet::from([8]));
    }

    #[test]
    fn pool_columns_skips_zero_padding() {
        let mut m = Mat::zeros(4, 3);
        m.set(0, 0, 2.0);
        m.set(0, 1, 4.0);
        // Column 2 stays zero (padding) and must not dilute the mean.
        let pooled = pool_columns(&m);
        assert!((pooled[0] - 1.0).abs() < 1e-6, "unit-normalized mean of the real columns");
        assert_eq!(pool_columns(&Mat::zeros(4, 0)), vec![0.0; 4]);
    }
}
