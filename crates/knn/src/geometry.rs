//! Geometric verification — the final stage of the image-matching pipeline
//! (Fig. 2), removing outlier correspondences.
//!
//! The paper excludes this stage from its speed experiments ("no geometrical
//! verification is conducted") but it belongs to the identification pipeline
//! proper; the accuracy examples use it. We estimate a 2-D **similarity
//! transform** (rotation + uniform scale + translation — the family the
//! capture conditions span) with RANSAC over the ratio-test matches, and
//! report the inlier set.

use crate::ratio::FeatureMatch;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use texid_sift::Keypoint;

/// A 2-D similarity transform `p' = s·R(θ)·p + t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Similarity {
    /// `s·cos θ`.
    pub a: f32,
    /// `s·sin θ`.
    pub b: f32,
    /// Translation x.
    pub tx: f32,
    /// Translation y.
    pub ty: f32,
}

impl Similarity {
    /// Identity transform.
    pub fn identity() -> Similarity {
        Similarity { a: 1.0, b: 0.0, tx: 0.0, ty: 0.0 }
    }

    /// Apply to a point.
    pub fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        (self.a * x - self.b * y + self.tx, self.b * x + self.a * y + self.ty)
    }

    /// Scale factor `s`.
    pub fn scale(&self) -> f32 {
        (self.a * self.a + self.b * self.b).sqrt()
    }

    /// Rotation angle θ, radians.
    pub fn rotation(&self) -> f32 {
        self.b.atan2(self.a)
    }

    /// Exact fit from two point correspondences `(p, p')`.
    /// Returns `None` when the source points coincide (degenerate).
    pub fn from_two_points(
        p1: (f32, f32),
        p1p: (f32, f32),
        p2: (f32, f32),
        p2p: (f32, f32),
    ) -> Option<Similarity> {
        let dx = p2.0 - p1.0;
        let dy = p2.1 - p1.1;
        let denom = dx * dx + dy * dy;
        if denom < 1e-9 {
            return None;
        }
        let dxp = p2p.0 - p1p.0;
        let dyp = p2p.1 - p1p.1;
        // Complex division (dxp + i·dyp) / (dx + i·dy).
        let a = (dxp * dx + dyp * dy) / denom;
        let b = (dyp * dx - dxp * dy) / denom;
        let tx = p1p.0 - (a * p1.0 - b * p1.1);
        let ty = p1p.1 - (b * p1.0 + a * p1.1);
        Some(Similarity { a, b, tx, ty })
    }
}

/// A planar homography `p' ~ H·p` (eight degrees of freedom) — the model
/// for full out-of-plane viewpoint change of a planar texture patch, which
/// the tea-brick surfaces are.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Homography {
    /// Row-major 3×3 matrix, normalized to `h[8] = 1`.
    pub h: [f32; 9],
}

impl Homography {
    /// Identity.
    pub fn identity() -> Homography {
        Homography { h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0] }
    }

    /// Apply with the perspective divide. Returns `None` on a point at
    /// infinity (denominator ~0).
    pub fn apply(&self, x: f32, y: f32) -> Option<(f32, f32)> {
        let w = self.h[6] * x + self.h[7] * y + self.h[8];
        if w.abs() < 1e-9 {
            return None;
        }
        Some((
            (self.h[0] * x + self.h[1] * y + self.h[2]) / w,
            (self.h[3] * x + self.h[4] * y + self.h[5]) / w,
        ))
    }

    /// Exact DLT fit from four correspondences (h33 = 1 normalization).
    /// Returns `None` for degenerate configurations (three collinear
    /// source points make the 8×8 system singular).
    pub fn from_four_points(src: [(f32, f32); 4], dst: [(f32, f32); 4]) -> Option<Homography> {
        // Build the 8×8 system A·h = b for h = (h11..h32), h33 = 1.
        let mut a = [[0.0f64; 8]; 8];
        let mut b = [0.0f64; 8];
        for (k, (&(x, y), &(u, v))) in src.iter().zip(dst.iter()).enumerate() {
            let (x, y, u, v) = (x as f64, y as f64, u as f64, v as f64);
            a[2 * k] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y];
            b[2 * k] = u;
            a[2 * k + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y];
            b[2 * k + 1] = v;
        }
        let h = solve8(&mut a, &mut b)?;
        Some(Homography {
            h: [
                h[0] as f32,
                h[1] as f32,
                h[2] as f32,
                h[3] as f32,
                h[4] as f32,
                h[5] as f32,
                h[6] as f32,
                h[7] as f32,
                1.0,
            ],
        })
    }
}

/// Gaussian elimination with partial pivoting on an 8×8 system.
fn solve8(a: &mut [[f64; 8]; 8], b: &mut [f64; 8]) -> Option<[f64; 8]> {
    for col in 0..8 {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..8 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-10 {
            return None; // singular
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        let pivot_row = a[col];
        for row in col + 1..8 {
            let f = a[row][col] / pivot_row[col];
            for (dst, src) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *dst -= f * src;
            }
            b[row] -= f * b[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0f64; 8];
    for col in (0..8).rev() {
        let mut s = b[col];
        for c in col + 1..8 {
            s -= a[col][c] * x[c];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

/// RANSAC parameters.
#[derive(Clone, Copy, Debug)]
pub struct RansacParams {
    /// Sampling iterations.
    pub iterations: usize,
    /// Inlier reprojection tolerance, pixels.
    pub inlier_tolerance: f32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for RansacParams {
    fn default() -> Self {
        RansacParams { iterations: 200, inlier_tolerance: 3.0, seed: 0x9e3779b9 }
    }
}

/// Result of geometric verification.
#[derive(Clone, Debug)]
pub struct Verification {
    /// Best model found (identity when no model fit).
    pub transform: Similarity,
    /// Indices into the input match list that are inliers.
    pub inliers: Vec<usize>,
}

impl Verification {
    /// Verified match count — the score used for the final decision.
    pub fn inlier_count(&self) -> usize {
        self.inliers.len()
    }
}

/// Run RANSAC over ratio-test matches. `ref_kps`/`query_kps` are the
/// keypoint lists the match indices refer to (reference → query direction).
///
/// With fewer than two matches, verification degenerates to zero inliers.
pub fn verify_matches(
    matches: &[FeatureMatch],
    ref_kps: &[Keypoint],
    query_kps: &[Keypoint],
    params: &RansacParams,
) -> Verification {
    if matches.len() < 2 {
        return Verification { transform: Similarity::identity(), inliers: Vec::new() };
    }
    let pts = point_pairs(matches, ref_kps, query_kps);

    let mut rng = SmallRng::seed_from_u64(params.seed);
    let tol2 = params.inlier_tolerance * params.inlier_tolerance;
    let fits = |model: &Similarity, (p, pp): &Pair| {
        let (x, y) = model.apply(p.0, p.1);
        let dx = x - pp.0;
        let dy = y - pp.1;
        dx * dx + dy * dy <= tol2
    };
    // Count per hypothesis; the first best model wins, and only its inlier
    // list is ever collected.
    let mut best: Option<(Similarity, usize)> = None;

    for _ in 0..params.iterations {
        let i = rng.gen_range(0..pts.len());
        let mut j = rng.gen_range(0..pts.len());
        if i == j {
            j = (j + 1) % pts.len();
        }
        let Some(model) = Similarity::from_two_points(pts[i].0, pts[i].1, pts[j].0, pts[j].1)
        else {
            continue;
        };
        // Reject wild scale estimates (capture zoom stays near 1).
        let s = model.scale();
        if !(0.3..3.0).contains(&s) {
            continue;
        }
        let count = pts.iter().filter(|pair| fits(&model, pair)).count();
        if best.is_none_or(|(_, b)| count > b) {
            best = Some((model, count));
        }
    }

    match best {
        Some((transform, _)) => {
            Verification { transform, inliers: inliers_of(&pts, |pair| fits(&transform, pair)) }
        }
        None => Verification { transform: Similarity::identity(), inliers: Vec::new() },
    }
}

/// A match as (reference point, query point).
type Pair = ((f32, f32), (f32, f32));

/// The matches' point pairs, reference → query.
fn point_pairs(
    matches: &[FeatureMatch],
    ref_kps: &[Keypoint],
    query_kps: &[Keypoint],
) -> Vec<Pair> {
    matches
        .iter()
        .map(|m| {
            let r = &ref_kps[m.ref_idx as usize];
            let q = &query_kps[m.query_idx as usize];
            ((r.x, r.y), (q.x, q.y))
        })
        .collect()
}

/// Indices of the pairs `fits` accepts.
fn inliers_of(pts: &[Pair], fits: impl Fn(&Pair) -> bool) -> Vec<usize> {
    pts.iter().enumerate().filter(|(_, pair)| fits(pair)).map(|(k, _)| k).collect()
}

/// RANSAC with the **homography** model (4-point minimal samples). Returns
/// the best model and its inlier indices. Needs ≥ 4 matches.
pub fn verify_matches_homography(
    matches: &[FeatureMatch],
    ref_kps: &[Keypoint],
    query_kps: &[Keypoint],
    params: &RansacParams,
) -> (Homography, Vec<usize>) {
    if matches.len() < 4 {
        return (Homography::identity(), Vec::new());
    }
    let pts = point_pairs(matches, ref_kps, query_kps);

    let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x40_0070);
    let tol2 = params.inlier_tolerance * params.inlier_tolerance;
    let fits = |model: &Homography, (p, pp): &Pair| {
        model.apply(p.0, p.1).is_some_and(|(x, y)| {
            let dx = x - pp.0;
            let dy = y - pp.1;
            dx * dx + dy * dy <= tol2
        })
    };
    let mut best: Option<(Homography, usize)> = None;

    for _ in 0..params.iterations {
        // Four distinct sample indices.
        let mut idx = [0usize; 4];
        for k in 0..4 {
            let mut candidate = rng.gen_range(0..pts.len());
            while idx[..k].contains(&candidate) {
                candidate = (candidate + 1) % pts.len();
            }
            idx[k] = candidate;
        }
        let src = [pts[idx[0]].0, pts[idx[1]].0, pts[idx[2]].0, pts[idx[3]].0];
        let dst = [pts[idx[0]].1, pts[idx[1]].1, pts[idx[2]].1, pts[idx[3]].1];
        let Some(model) = Homography::from_four_points(src, dst) else {
            continue;
        };
        let count = pts.iter().filter(|pair| fits(&model, pair)).count();
        if best.is_none_or(|(_, b)| count > b) {
            best = Some((model, count));
        }
    }
    match best {
        Some((model, _)) => (model, inliers_of(&pts, |pair| fits(&model, pair))),
        None => (Homography::identity(), Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The collecting loop [`verify_matches`] replaced: an inlier `Vec` per
    /// hypothesis, the first longest kept.
    fn verify_matches_collecting(
        matches: &[FeatureMatch],
        ref_kps: &[Keypoint],
        query_kps: &[Keypoint],
        params: &RansacParams,
    ) -> Verification {
        if matches.len() < 2 {
            return Verification { transform: Similarity::identity(), inliers: Vec::new() };
        }
        let pts = point_pairs(matches, ref_kps, query_kps);
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let mut best: Option<(Similarity, Vec<usize>)> = None;
        let tol2 = params.inlier_tolerance * params.inlier_tolerance;
        for _ in 0..params.iterations {
            let i = rng.gen_range(0..pts.len());
            let mut j = rng.gen_range(0..pts.len());
            if i == j {
                j = (j + 1) % pts.len();
            }
            let Some(model) = Similarity::from_two_points(pts[i].0, pts[i].1, pts[j].0, pts[j].1)
            else {
                continue;
            };
            let s = model.scale();
            if !(0.3..3.0).contains(&s) {
                continue;
            }
            let inliers: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, (p, pp))| {
                    let (x, y) = model.apply(p.0, p.1);
                    let dx = x - pp.0;
                    let dy = y - pp.1;
                    dx * dx + dy * dy <= tol2
                })
                .map(|(k, _)| k)
                .collect();
            if best.as_ref().is_none_or(|(_, b)| inliers.len() > b.len()) {
                best = Some((model, inliers));
            }
        }
        match best {
            Some((transform, inliers)) => Verification { transform, inliers },
            None => Verification { transform: Similarity::identity(), inliers: Vec::new() },
        }
    }

    /// The collecting loop [`verify_matches_homography`] replaced.
    fn verify_matches_homography_collecting(
        matches: &[FeatureMatch],
        ref_kps: &[Keypoint],
        query_kps: &[Keypoint],
        params: &RansacParams,
    ) -> (Homography, Vec<usize>) {
        if matches.len() < 4 {
            return (Homography::identity(), Vec::new());
        }
        let pts = point_pairs(matches, ref_kps, query_kps);
        let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x40_0070);
        let mut best: Option<(Homography, Vec<usize>)> = None;
        let tol2 = params.inlier_tolerance * params.inlier_tolerance;
        for _ in 0..params.iterations {
            let mut idx = [0usize; 4];
            for k in 0..4 {
                let mut candidate = rng.gen_range(0..pts.len());
                while idx[..k].contains(&candidate) {
                    candidate = (candidate + 1) % pts.len();
                }
                idx[k] = candidate;
            }
            let src = [pts[idx[0]].0, pts[idx[1]].0, pts[idx[2]].0, pts[idx[3]].0];
            let dst = [pts[idx[0]].1, pts[idx[1]].1, pts[idx[2]].1, pts[idx[3]].1];
            let Some(model) = Homography::from_four_points(src, dst) else {
                continue;
            };
            let inliers: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, (p, pp))| {
                    model.apply(p.0, p.1).is_some_and(|(x, y)| {
                        let dx = x - pp.0;
                        let dy = y - pp.1;
                        dx * dx + dy * dy <= tol2
                    })
                })
                .map(|(k, _)| k)
                .collect();
            if best.as_ref().is_none_or(|(_, b)| inliers.len() > b.len()) {
                best = Some((model, inliers));
            }
        }
        best.unwrap_or((Homography::identity(), Vec::new()))
    }

    /// `n` matches from `seed`: the first `inliers` follow a seeded
    /// similarity up to a pixel of jitter, the rest are random pairs.
    fn random_matches(
        n: usize,
        inliers: usize,
        seed: u64,
    ) -> (Vec<FeatureMatch>, Vec<Keypoint>, Vec<Keypoint>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0
        };
        let (angle, scale) = (next() * std::f32::consts::TAU, 0.5 + next() * 1.5);
        let model = Similarity {
            a: scale * angle.cos(),
            b: scale * angle.sin(),
            tx: next() * 40.0,
            ty: next() * 40.0,
        };
        let (mut ref_kps, mut query_kps, mut matches) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let (x, y) = (next() * 300.0, next() * 300.0);
            let (qx, qy) = if i < inliers {
                let (qx, qy) = model.apply(x, y);
                (qx + next() - 0.5, qy + next() - 0.5)
            } else {
                (next() * 300.0, next() * 300.0)
            };
            ref_kps.push(kp(x, y));
            query_kps.push(kp(qx, qy));
            matches.push(FeatureMatch { query_idx: i as u32, ref_idx: i as u32, d1: 0.1, d2: 1.0 });
        }
        (matches, ref_kps, query_kps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counting_ransac_matches_the_collecting_loop(
            n in 0usize..90,
            inlier_pct in 0usize..101,
            tolerance in 0.25f32..12.0,
            iterations in 0usize..240,
            seed in any::<u64>(),
        ) {
            let (matches, rk, qk) = random_matches(n, n * inlier_pct / 100, seed);
            let params = RansacParams { iterations, inlier_tolerance: tolerance, seed };
            let (new, old) = (
                verify_matches(&matches, &rk, &qk, &params),
                verify_matches_collecting(&matches, &rk, &qk, &params),
            );
            let bits = |t: &Similarity| [t.a, t.b, t.tx, t.ty].map(f32::to_bits);
            prop_assert_eq!(bits(&new.transform), bits(&old.transform));
            prop_assert_eq!(new.inliers, old.inliers);

            let (new, old) = (
                verify_matches_homography(&matches, &rk, &qk, &params),
                verify_matches_homography_collecting(&matches, &rk, &qk, &params),
            );
            prop_assert_eq!(new.0.h.map(f32::to_bits), old.0.h.map(f32::to_bits));
            prop_assert_eq!(new.1, old.1);
        }
    }

    fn kp(x: f32, y: f32) -> Keypoint {
        Keypoint {
            x,
            y,
            sigma: 1.6,
            orientation: 0.0,
            response: 1.0,
            octave: 0,
            interval: 0.0,
            oct_x: x,
            oct_y: y,
        }
    }

    /// Build matches under a known transform, with `n_outliers` corrupted.
    fn planted(
        model: Similarity,
        n_inliers: usize,
        n_outliers: usize,
    ) -> (Vec<FeatureMatch>, Vec<Keypoint>, Vec<Keypoint>) {
        let mut ref_kps = Vec::new();
        let mut query_kps = Vec::new();
        let mut matches = Vec::new();
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0 * 200.0
        };
        for i in 0..n_inliers + n_outliers {
            let x = next();
            let y = next();
            ref_kps.push(kp(x, y));
            let (qx, qy) = if i < n_inliers {
                model.apply(x, y)
            } else {
                (next(), next()) // random — geometric outlier
            };
            query_kps.push(kp(qx, qy));
            matches.push(FeatureMatch { query_idx: i as u32, ref_idx: i as u32, d1: 0.1, d2: 1.0 });
        }
        (matches, ref_kps, query_kps)
    }

    #[test]
    fn homography_four_point_fit_exact() {
        // A keystone warp (perspective foreshortening).
        let truth = Homography { h: [1.0, 0.1, 5.0, 0.05, 0.95, -3.0, 1e-3, 2e-4, 1.0] };
        let src = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)];
        let dst = src.map(|(x, y)| truth.apply(x, y).unwrap());
        let fit = Homography::from_four_points(src, dst).unwrap();
        for (a, b) in fit.h.iter().zip(truth.h.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // And it reproduces an unseen point.
        let (x, y) = fit.apply(37.0, 64.0).unwrap();
        let (tx, ty) = truth.apply(37.0, 64.0).unwrap();
        assert!((x - tx).abs() < 1e-2 && (y - ty).abs() < 1e-2);
    }

    #[test]
    fn homography_rejects_collinear_sources() {
        let src = [(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (5.0, 0.0)];
        let dst = [(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (5.0, 0.0)];
        assert!(Homography::from_four_points(src, dst).is_none());
    }

    #[test]
    fn homography_ransac_beats_similarity_on_perspective_data() {
        // Plant a genuinely projective transform: a similarity cannot fit it.
        let truth = Homography { h: [0.95, 0.05, 10.0, -0.03, 1.02, 4.0, 8e-4, -5e-4, 1.0] };
        let mut ref_kps = Vec::new();
        let mut query_kps = Vec::new();
        let mut matches = Vec::new();
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0 * 250.0
        };
        for i in 0..70 {
            let x = next();
            let y = next();
            ref_kps.push(kp(x, y));
            let (qx, qy) = if i < 55 {
                truth.apply(x, y).unwrap()
            } else {
                (next(), next())
            };
            query_kps.push(kp(qx, qy));
            matches.push(FeatureMatch { query_idx: i as u32, ref_idx: i as u32, d1: 0.1, d2: 1.0 });
        }
        let tight = RansacParams { inlier_tolerance: 1.5, iterations: 500, ..RansacParams::default() };
        let (fit, h_inliers) = verify_matches_homography(&matches, &ref_kps, &query_kps, &tight);
        assert!(h_inliers.len() >= 50, "homography found {} inliers", h_inliers.len());
        assert!((fit.h[6] - truth.h[6]).abs() < 3e-4, "perspective term {}", fit.h[6]);
        let s_inliers = verify_matches(&matches, &ref_kps, &query_kps, &tight).inlier_count();
        assert!(
            h_inliers.len() > s_inliers,
            "homography {} vs similarity {s_inliers}",
            h_inliers.len()
        );
    }

    #[test]
    fn homography_needs_four_matches() {
        let (matches, rk, qk) = planted(Similarity::identity(), 3, 0);
        let (fit, inliers) = verify_matches_homography(&matches, &rk, &qk, &RansacParams::default());
        assert_eq!(fit, Homography::identity());
        assert!(inliers.is_empty());
    }

    #[test]
    fn two_point_fit_recovers_rotation() {
        // 90° rotation about origin: (x, y) → (−y, x).
        let m = Similarity::from_two_points((1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 0.0))
            .unwrap();
        assert!((m.scale() - 1.0).abs() < 1e-5);
        assert!((m.rotation() - core::f32::consts::FRAC_PI_2).abs() < 1e-5);
        let (x, y) = m.apply(2.0, 3.0);
        assert!((x + 3.0).abs() < 1e-4 && (y - 2.0).abs() < 1e-4);
    }

    #[test]
    fn degenerate_points_rejected() {
        assert!(Similarity::from_two_points((1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (3.0, 3.0))
            .is_none());
    }

    #[test]
    fn ransac_recovers_planted_transform() {
        let truth = Similarity { a: 0.95, b: 0.18, tx: 12.0, ty: -7.0 }; // ~10.7°, s≈0.967
        let (matches, rk, qk) = planted(truth, 60, 40);
        let v = verify_matches(&matches, &rk, &qk, &RansacParams::default());
        assert!(v.inlier_count() >= 55, "found {} inliers", v.inlier_count());
        assert!((v.transform.scale() - truth.scale()).abs() < 0.02);
        assert!((v.transform.rotation() - truth.rotation()).abs() < 0.02);
        // All recovered inliers must truly be inliers (first 60).
        assert!(v.inliers.iter().all(|&i| i < 60));
    }

    #[test]
    fn pure_outliers_give_few_inliers() {
        let truth = Similarity::identity();
        let (matches, rk, qk) = planted(truth, 0, 50);
        let v = verify_matches(&matches, &rk, &qk, &RansacParams::default());
        // Random correspondences support no consistent similarity.
        assert!(v.inlier_count() <= 6, "{} spurious inliers", v.inlier_count());
    }

    #[test]
    fn fewer_than_two_matches_degenerates() {
        let (matches, rk, qk) = planted(Similarity::identity(), 1, 0);
        let v = verify_matches(&matches, &rk, &qk, &RansacParams::default());
        assert_eq!(v.inlier_count(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let truth = Similarity { a: 1.02, b: -0.08, tx: 3.0, ty: 4.0 };
        let (matches, rk, qk) = planted(truth, 30, 30);
        let a = verify_matches(&matches, &rk, &qk, &RansacParams::default());
        let b = verify_matches(&matches, &rk, &qk, &RansacParams::default());
        assert_eq!(a.inliers, b.inliers);
    }

    #[test]
    fn wild_scales_rejected() {
        // A model implying 10× zoom must not be accepted even if two points
        // support it: plant mostly identity, two 10×-scale-consistent pairs.
        let (mut matches, mut rk, mut qk) = planted(Similarity::identity(), 20, 0);
        rk.push(kp(1.0, 0.0));
        qk.push(kp(10.0, 0.0));
        matches.push(FeatureMatch { query_idx: 20, ref_idx: 20, d1: 0.1, d2: 1.0 });
        rk.push(kp(2.0, 0.0));
        qk.push(kp(20.0, 0.0));
        matches.push(FeatureMatch { query_idx: 21, ref_idx: 21, d1: 0.1, d2: 1.0 });
        let v = verify_matches(&matches, &rk, &qk, &RansacParams::default());
        assert!((v.transform.scale() - 1.0).abs() < 0.05, "scale {}", v.transform.scale());
    }
}
