//! Defined outcomes for descriptors that are not unit-norm RootSIFT: a
//! component that is NaN, `+∞`, `−∞` or too large for f16 at the deployed
//! scale, and an all-zero column, on the query side and on the reference
//! side. Each goes `FeatureBlock::encode` → `score_batch_packed` (fused and
//! unfused, which must agree bit for bit) → the `√(2 + s)` distances → the
//! ratio test, on every available backend, and ends where DESIGN §10's
//! "Descriptors that are not unit-norm" says it does. These tests pin the
//! behaviour; they do not argue it is the right one.

use texid_gpu::Precision;
use texid_knn::{score_batch_packed, BatchOutcome, FeatureBlock, MatchConfig, RATIO_THRESHOLD};
use texid_linalg::{available_backends, Backend, Mat, Top2};

/// Descriptor depth, rows per reference (three 16-row panels, six 8-row
/// ones: the vector lane merge runs), references, query columns (ragged
/// against both tile widths).
const D: usize = 16;
const M: usize = 48;
const BATCH: usize = 2;
const N: usize = 30;
/// The poisoned component, and the poisoned reference row (in block 0).
const K: usize = 5;
const ROW: usize = 17;
/// Beyond f16 at the deployed scale 2⁻⁷ (65 504 · 128 ≈ 8.4 · 10⁶), finite
/// in f32.
const OVERFLOW: f32 = 1e7;

/// Unit-norm columns with every component in [0.05, 1.05) before
/// normalizing: every similarity between two of them is finite and
/// negative, and no component is zero, so `0 · ∞` never happens.
fn positive_unit(cols: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    let mut m = Mat::from_fn(D, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) & 0xffff) as f32 / 65535.0 + 0.05
    });
    for c in 0..cols {
        let norm = m.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
        m.col_mut(c).iter_mut().for_each(|v| *v /= norm);
    }
    m
}

/// `mat` with component `K` of column `col` set to `v`, or the whole column
/// zeroed for `v == 0`.
fn poisoned(mat: &Mat, col: usize, v: f32) -> Mat {
    let mut out = mat.clone();
    if v == 0.0 {
        out.col_mut(col).fill(0.0);
    } else {
        out.col_mut(col)[K] = v;
    }
    out
}

fn bits(t: &Top2) -> (u32, u32, u32) {
    (t.idx, t.d1.to_bits(), t.d2.to_bits())
}

fn is_good(t: &Top2) -> bool {
    texid_knn::count_good_matches(std::slice::from_ref(t), RATIO_THRESHOLD) == 1
}

/// The outcome at `precision`, after checking that it is the same bits
/// fused and unfused on every available backend.
fn outcome(precision: Precision, refs: &Mat, query: &Mat) -> BatchOutcome {
    let run = |be: Backend, fused: bool| {
        let cfg = MatchConfig { precision, fused, ..MatchConfig::default() };
        let r = FeatureBlock::encode(D, refs.cols(), refs.as_slice(), precision, cfg.scale);
        let q = FeatureBlock::encode(D, query.cols(), query.as_slice(), precision, cfg.scale);
        score_batch_packed(&cfg, &r.pack_refs(be), BATCH, M, &q.pack_query(be))
    };
    let want = run(Backend::Scalar, false);
    for be in available_backends() {
        for fused in [false, true] {
            let got = run(be, fused);
            let same = got.top2.iter().map(bits).eq(want.top2.iter().map(bits));
            assert!(same && got.scores == want.scores, "{precision:?} {be} fused {fused}");
        }
    }
    want
}

#[test]
fn a_poisoned_query_column_matches_nothing() {
    let (refs, query) = (positive_unit(BATCH * M, 1), positive_unit(N, 2));
    let (inf, sqrt2) = (f32::INFINITY, 2f32.sqrt());
    for precision in [Precision::F16, Precision::F32] {
        let clean = outcome(precision, &refs, &query);
        for v in [f32::NAN, inf, f32::NEG_INFINITY, OVERFLOW, 0.0] {
            let out = outcome(precision, &refs, &poisoned(&query, 0, v));
            for b in 0..BATCH {
                let t = out.top2[b * N];
                // NaN or `+∞` similarities never enter the scan, which stays
                // at its start state; `−∞` ties every row at distance 0
                // (`max(0.0)` before the root), so does a finite similarity
                // below −2; a zero column ties every row at `−0.0`, √2 away.
                let (d1, d2) = if v.is_nan() || v == f32::NEG_INFINITY {
                    (inf, inf)
                } else if v == 0.0 {
                    (sqrt2, sqrt2)
                } else {
                    (0.0, 0.0)
                };
                // Ties go to the first row, except a finite overflow, which
                // the row with the largest matching component wins.
                let block = &refs.as_slice()[b * M * D..(b + 1) * M * D];
                let largest = (0..M).max_by(|&x, &y| block[x * D + K].total_cmp(&block[y * D + K]));
                let finite_overflow = v == OVERFLOW && precision == Precision::F32;
                let idx = if finite_overflow { largest.expect("M rows") } else { 0 };
                let want = Top2 { idx: idx as u32, d1, d2 };
                assert_eq!(bits(&t), bits(&want), "{precision:?} {v}, block {b}");
                assert!(!is_good(&t), "{precision:?} {v}: a good match");
                // The other columns are untouched, and the score loses what
                // the clean column contributed.
                let rest = b * N + 1..(b + 1) * N;
                assert_eq!(out.top2[rest.clone()], clean.top2[rest], "{precision:?} {v}");
                let lost = usize::from(is_good(&clean.top2[b * N]));
                assert_eq!(out.scores[b], clean.scores[b] - lost, "{precision:?} {v}");
            }
        }
    }
}

#[test]
fn a_poisoned_reference_row_is_never_chosen_or_always_chosen() {
    let (refs, query) = (positive_unit(BATCH * M, 3), positive_unit(N, 4));
    for precision in [Precision::F16, Precision::F32] {
        let clean = outcome(precision, &refs, &query);
        // NaN, `+∞` similarities (from a `−∞` component) and the `−0.0` of a
        // zero column — the farthest a unit vector can be — never reach the
        // top 2: all three are the same outcome, which never names the row.
        let skipped = outcome(precision, &poisoned(&refs, ROW, 0.0), &query);
        for v in [f32::NAN, f32::NEG_INFINITY] {
            let out = outcome(precision, &poisoned(&refs, ROW, v), &query);
            let same = out.top2.iter().map(bits).eq(skipped.top2.iter().map(bits));
            assert!(same, "{precision:?} {v}");
            assert_eq!(out.scores, skipped.scores);
        }
        assert!(skipped.top2[..N].iter().all(|t| t.idx != ROW as u32));
        assert_eq!(skipped.top2[N..], clean.top2[N..], "{precision:?}: block 1 moved");

        // A `+∞` component (or one beyond f16, or a finite one large enough
        // to push the similarity below −2) is distance 0 to every query
        // feature: the row is everyone's nearest, its runner-up is the clean
        // nearest, and every query feature is a good match.
        for v in [f32::INFINITY, OVERFLOW] {
            let out = outcome(precision, &poisoned(&refs, ROW, v), &query);
            for (t, c) in out.top2[..N].iter().zip(&clean.top2[..N]) {
                let runner_up = if c.idx == ROW as u32 { c.d2 } else { c.d1 };
                let want = Top2 { idx: ROW as u32, d1: 0.0, d2: runner_up };
                assert_eq!(bits(t), bits(&want), "{precision:?} {v}");
            }
            assert_eq!(out.scores[0], N, "{precision:?} {v}: every feature a good match");
            assert_eq!(out.top2[N..], clean.top2[N..], "{precision:?} {v}: block 1 moved");
            assert_eq!(out.scores[1], clean.scores[1]);
        }
    }
}
