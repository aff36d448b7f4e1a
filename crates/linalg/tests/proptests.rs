//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use texid_linalg::f16::F16;
use texid_linalg::gemm::gemm_at_b_naive;
use texid_linalg::dispatch::{active_backend, available_backends, Backend};
use texid_linalg::kernel::{
    gemm_at_b, gemm_top2, gemm_top2_ex, FusedEpilogue, PackedA, PackedB,
};
use texid_linalg::mat::{Mat, MatF16};
use texid_linalg::norms::{add_row_norms, col_sq_norms};
use texid_linalg::top2::{sort_columns, top2_min_per_column, Top2};

fn mat_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Mat> {
    (2..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Mat::from_col_major(r, c, data))
    })
}

proptest! {
    #[test]
    fn gemm_matches_naive(
        d in 1usize..24, m in 1usize..12, n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a = Mat::from_fn(d, m, |_, _| next());
        let b = Mat::from_fn(d, n, |_, _| next());
        let fast = gemm_at_b(active_backend(), -2.0, &a, &b);
        let slow = gemm_at_b_naive(-2.0, &a, &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    #[test]
    fn top2_equals_sorted_prefix(a in mat_strategy(24, 8)) {
        let top = top2_min_per_column(&a, 1, a.rows());
        let (sorted, idx) = sort_columns(&a);
        for j in 0..a.cols() {
            prop_assert_eq!(top[j].d1, sorted.get(0, j));
            prop_assert_eq!(top[j].d2, sorted.get(1, j));
            prop_assert_eq!(top[j].idx, idx[j]);
            prop_assert!(top[j].d1 <= top[j].d2);
        }
    }

    #[test]
    fn blocked_top2_consistent(
        m_per in 2usize..8, batch in 1usize..5, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f32) * 1e-6
        };
        let a = Mat::from_fn(batch * m_per, n, |_, _| next());
        let blocked = top2_min_per_column(&a, batch, m_per);
        for b in 0..batch {
            // Each block result must equal a plain top-2 on the extracted block.
            let sub = Mat::from_fn(m_per, n, |r, c| a.get(b * m_per + r, c));
            let plain = top2_min_per_column(&sub, 1, m_per);
            for j in 0..n {
                prop_assert_eq!(blocked[b * n + j], plain[j]);
            }
        }
    }

    #[test]
    fn f16_roundtrip_error_bounded(v in -60000.0f32..60000.0) {
        let h = F16::from_f32(v);
        prop_assert!(!h.is_nan());
        let back = h.to_f32();
        // Relative error bounded by half an ulp: 2^-11, plus underflow slack.
        let tol = (v.abs() * 2.0_f32.powi(-11)).max(2.0_f32.powi(-25));
        prop_assert!((back - v).abs() <= tol, "{} -> {}", v, back);
    }

    #[test]
    fn f16_conversion_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    #[test]
    fn norms_nonnegative_and_exact_for_units(a in mat_strategy(16, 6)) {
        let norms = col_sq_norms(&a);
        prop_assert_eq!(norms.len(), a.cols());
        for (j, &nv) in norms.iter().enumerate() {
            prop_assert!(nv >= 0.0);
            let manual: f32 = a.col(j).iter().map(|x| x * x).sum();
            prop_assert!((nv - manual).abs() <= manual.abs() * 1e-5 + 1e-5);
        }
    }

    #[test]
    fn add_row_norms_shifts_rows(a in mat_strategy(8, 4)) {
        let n_r: Vec<f32> = (0..a.rows()).map(|i| i as f32 * 10.0).collect();
        let mut shifted = a.clone();
        add_row_norms(&mut shifted, &n_r);
        for (i, &shift) in n_r.iter().enumerate() {
            for j in 0..a.cols() {
                prop_assert_eq!(shifted.get(i, j), a.get(i, j) + shift);
            }
        }
    }

    #[test]
    fn hconcat_preserves_columns(
        a in mat_strategy(6, 4),
        extra_cols in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f32
        };
        let b = Mat::from_fn(a.rows(), extra_cols, |_, _| next());
        let cat = Mat::hconcat(&[&a, &b]);
        prop_assert_eq!(cat.cols(), a.cols() + extra_cols);
        for j in 0..a.cols() {
            prop_assert_eq!(cat.col(j), a.col(j));
        }
        for j in 0..extra_cols {
            prop_assert_eq!(cat.col(a.cols() + j), b.col(j));
        }
    }

    // ---- blocked / fused kernel equivalences ----

    #[test]
    fn blocked_equals_naive_bitwise(
        // Shape ranges deliberately straddle the tile boundaries: depths not
        // divisible by the k-unroll, m/n both smaller and larger than the
        // 4×4 register tile.
        d in 1usize..48, m in 1usize..40, n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a = Mat::from_fn(d, m, |_, _| next());
        let b = Mat::from_fn(d, n, |_, _| next());
        // Both kernels accumulate each output in one ascending-k f32
        // register, so they agree bit-for-bit (see gemm module docs).
        prop_assert_eq!(gemm_at_b(active_backend(), -2.0, &a, &b), gemm_at_b_naive(-2.0, &a, &b));
    }

    #[test]
    fn blocked_equals_naive_bitwise_at_the_exponent_edges(
        d in 1usize..48, m in 1usize..40, n in 1usize..20,
        seed in any::<u64>(),
    ) {
        // Every column carries its own power of two, so whole outputs sum
        // products that are subnormal (≈ 2⁻¹³⁷: a separate multiply would
        // round each before the add, a fused step does not) or that overflow
        // (≈ 2¹²⁴ each: `±∞`, then `∞ − ∞`). Hardware FMA, libm's `fmaf`
        // and the naive loop's must agree there too.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut edge_mat = |cols: usize| {
            let mut mat = Mat::zeros(d, cols);
            for c in 0..cols {
                let log2 = [-75i32, -60, 0, 62][(next() & 3) as usize];
                let scale = f32::from_bits(((127 + log2) as u32) << 23);
                for v in mat.col_mut(c) {
                    *v = (next() as f32 / (1u64 << 30) as f32 - 1.0) * scale;
                }
            }
            mat
        };
        let (a, b) = (edge_mat(m), edge_mat(n));
        let want = gemm_at_b_naive(-2.0, &a, &b);
        for be in available_backends() {
            let got = gemm_at_b(be, -2.0, &a, &b);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                // A NaN's sign and payload are the one thing IEEE 754 leaves
                // to the implementation.
                prop_assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{}: {:e} vs naive {:e}", be, g, w
                );
            }
        }
    }

    #[test]
    fn fused_top2_equals_materialize_then_scan(
        d in 1usize..32, m in 2usize..40, n in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a = Mat::from_fn(d, m, |_, _| next());
        let b = Mat::from_fn(d, n, |_, _| next());
        let fused = gemm_top2(active_backend(), -2.0, &a, &b, 1, m);
        let scanned = top2_min_per_column(&gemm_at_b(active_backend(), -2.0, &a, &b), 1, m);
        for (f, s) in fused.iter().zip(&scanned) {
            prop_assert_eq!(f.idx, s.idx);
            prop_assert_eq!(f.d1, s.d1, "d1 must be bit-identical");
            prop_assert_eq!(f.d2, s.d2, "d2 must be bit-identical");
        }
    }

    #[test]
    fn fused_f16_equals_narrow_then_scan(
        d in 1usize..24, m in 2usize..24, n in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let af = Mat::from_fn(d, m, |_, _| next());
        let bf = Mat::from_fn(d, n, |_, _| next());
        let a = af.to_f16_scaled(0.25);
        let b = bf.to_f16_scaled(0.25);
        let fused = gemm_top2(active_backend(), -2.0, &a, &b, 1, m);
        let scanned = top2_min_per_column(
            &MatF16::narrowed(&gemm_at_b(active_backend(), -2.0, &a, &b)),
            1,
            m,
        );
        for (f, s) in fused.iter().zip(&scanned) {
            prop_assert_eq!(f.idx, s.idx);
            prop_assert_eq!(f.d1, s.d1);
            prop_assert_eq!(f.d2, s.d2);
        }
    }

    #[test]
    fn fused_blocked_equals_blocked_scan(
        d in 1usize..16, m_per in 2usize..9, batch in 1usize..5, n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a = Mat::from_fn(d, batch * m_per, |_, _| next());
        let b = Mat::from_fn(d, n, |_, _| next());
        let fused = gemm_top2(active_backend(), -2.0, &a, &b, batch, m_per);
        let scanned =
            top2_min_per_column(&gemm_at_b(active_backend(), -2.0, &a, &b), batch, m_per);
        prop_assert_eq!(fused, scanned);
    }

    #[test]
    fn fused_row_bias_equals_add_norms_then_scan(
        d in 1usize..24, m in 2usize..20, n in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a = Mat::from_fn(d, m, |_, _| next());
        let b = Mat::from_fn(d, n, |_, _| next());
        let n_r = col_sq_norms(&a);
        let fused = gemm_top2_ex(
            -2.0,
            &PackedA::pack(active_backend(), &a),
            &PackedB::pack(active_backend(), &b),
            &FusedEpilogue { row_bias: Some(&n_r), ..FusedEpilogue::default() },
            1,
            m,
        );
        let mut c = gemm_at_b(active_backend(), -2.0, &a, &b);
        add_row_norms(&mut c, &n_r);
        prop_assert_eq!(fused, top2_min_per_column(&c, 1, m));
    }
}

// ---- register-resident epilogue vs an ascending-row `observe` replay ----

/// What the fused kernel must equal bit for bit: materialize each value with
/// the epilogue's per-element op order on the scalar backend, then replay
/// `Top2::observe` over the rows of every reference block in ascending
/// order.
fn observe_replay(
    alpha: f32,
    a: &MatF16,
    b: &MatF16,
    epi: &FusedEpilogue<'_>,
    batch: usize,
    m_per_ref: usize,
) -> Vec<Top2> {
    let c = gemm_at_b(Backend::Scalar, alpha, a, b);
    let mut out = vec![Top2::EMPTY; batch * b.cols()];
    for j in 0..b.cols() {
        for row in 0..a.cols() {
            let mut v = c.get(row, j) * epi.scale;
            if let Some(bias) = epi.row_bias {
                v += bias[row];
            }
            if epi.quantize_f16 {
                v = F16::from_f32(v).to_f32();
            }
            out[row / m_per_ref * b.cols() + j].observe((row % m_per_ref) as u32, v);
        }
    }
    out
}

fn assert_top2_bits_equal(got: &[Top2], want: &[Top2], what: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.idx, w.idx, "{}: idx at {}", what, i);
        prop_assert_eq!(g.d1.to_bits(), w.d1.to_bits(), "{}: d1 at {}", what, i);
        prop_assert_eq!(g.d2.to_bits(), w.d2.to_bits(), "{}: d2 at {}", what, i);
    }
    Ok(())
}

/// Every available backend's fused kernel against [`observe_replay`], bit for
/// bit.
fn every_backend_equals_replay(
    a: &MatF16,
    b: &MatF16,
    epi: &FusedEpilogue<'_>,
    batch: usize,
    m_per_ref: usize,
) -> Result<(), String> {
    let want = observe_replay(-2.0, a, b, epi, batch, m_per_ref);
    for be in available_backends() {
        let got = gemm_top2_ex(
            -2.0,
            &PackedA::pack(be, a),
            &PackedB::pack(be, b),
            epi,
            batch,
            m_per_ref,
        );
        assert_top2_bits_equal(&got, &want, be.name())?;
    }
    Ok(())
}

/// Seeded operands with the hostile columns the epilogue must define an
/// outcome for: duplicated reference columns (first-index tie-break),
/// all-zero (zero-norm) columns on both sides, and NaN / ±∞ / ±0 / tiny
/// (f16-underflowing, so the round-trip yields signed zeros) entries.
/// Stored as f16 at `scale`.
fn hostile_operands(
    d: usize,
    m: usize,
    n: usize,
    seed: u64,
    poison: bool,
    scale: f32,
) -> (MatF16, MatF16) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut val = |poison: bool| {
        let r = next();
        let v = (r & 0xffff) as f32 / 65535.0 - 0.5;
        match (poison, r >> 16 & 0x3f) {
            (true, 0) => f32::NAN,
            (true, 1) => f32::INFINITY,
            (true, 2) => f32::NEG_INFINITY,
            (_, 3) => 0.0,
            (_, 4) => -0.0,
            (_, 5) => v * 1e-6,
            _ => v,
        }
    };
    let mut a = Mat::from_fn(d, m, |_, _| val(poison));
    let b = Mat::from_fn(d, n, |_, _| val(poison));
    // Every fifth reference column repeats its predecessor; every seventh is
    // all zero.
    for c in 1..m {
        if c % 5 == 0 {
            let prev = a.col(c - 1).to_vec();
            a.col_mut(c).copy_from_slice(&prev);
        } else if c % 7 == 0 {
            a.col_mut(c).fill(0.0);
        }
    }
    (a.to_f16_scaled(scale), b.to_f16_scaled(scale))
}

// 16, 32 and 48 are whole 16-row panels (the AVX-512 register route: lanes
// survive from panel to panel, flushed after a block's last whole one);
// 23..25 and 95..97 are ragged against `nr = 24` and `NC = 96`.
const M_PER_REF: [usize; 12] = [2, 3, 7, 8, 9, 13, 16, 24, 31, 32, 40, 48];
const BATCH: [usize; 3] = [1, 3, 32];
const N_COLS: [usize; 13] = [1, 5, 8, 23, 24, 25, 63, 64, 65, 95, 96, 97, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every backend's fused kernel — the SIMD register-resident routes,
    /// their spill fallback, and the generic epilogue — equals the replay on
    /// shapes ragged against every geometry: `m_per_ref` not a multiple of
    /// 8 or 16 (blocks straddle panels), `m` / `n` not multiples of the
    /// panel widths / `NC`.
    #[test]
    fn fused_epilogue_bit_identical_to_observe_replay(
        d in 1usize..20,
        m_per_ref in 0usize..M_PER_REF.len(),
        batch in 0usize..BATCH.len(),
        n in 0usize..N_COLS.len(),
        with_bias in any::<bool>(),
        quantize_f16 in any::<bool>(),
        poison in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m_per_ref, batch, n) = (M_PER_REF[m_per_ref], BATCH[batch], N_COLS[n]);
        let m = batch * m_per_ref;
        let (a, b) = hostile_operands(d, m, n, seed, poison, 1.0);
        // Bias entries include both zeros, so `−0.0 + bias` flips signs.
        let bias: Vec<f32> = (0..m)
            .map(|i| match i % 4 { 0 => 0.0, 1 => -0.0, _ => (i as f32 * 0.37).sin() })
            .collect();
        let epi = FusedEpilogue {
            scale: if quantize_f16 { 4.0 } else { 1.0 },
            row_bias: with_bias.then_some(&bias[..]),
            quantize_f16,
        };
        every_backend_equals_replay(&a, &b, &epi, batch, m_per_ref)?;
    }

    /// Where one fused rounding per step could show in the answer: operands
    /// stored at the serving scale 2⁻⁷, and a gain that lands the results
    /// on both sides of the largest finite half (65504; from 65520 up the
    /// round-trip gives `±∞`), so an accumulator differing in its last bit
    /// would trade a finite minimum for `−∞`. With `poison`, all-zero
    /// columns meet `±∞` entries: `0·∞`, NaN from that step on, never
    /// selected.
    #[test]
    fn fused_epilogue_bit_identical_at_the_f16_overflow_edge(
        d in 1usize..20,
        m_per_ref in 0usize..M_PER_REF.len(),
        batch in 0usize..BATCH.len(),
        n in 0usize..N_COLS.len(),
        log2_gain in 14u32..21,
        poison in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m_per_ref, batch, n) = (M_PER_REF[m_per_ref], BATCH[batch], N_COLS[n]);
        let m = batch * m_per_ref;
        let (a, b) = hostile_operands(d, m, n, seed, poison, 0.0078125);
        let bias: Vec<f32> = (0..m).map(|i| (i % 7) as f32 * 16.0 - 48.0).collect();
        let epi = FusedEpilogue {
            // Undo the operand scale (2¹⁴), then the gain.
            scale: f32::from_bits((127 + 14 + log2_gain) << 23),
            row_bias: Some(&bias),
            quantize_f16: true,
        };
        every_backend_equals_replay(&a, &b, &epi, batch, m_per_ref)?;
    }
}

/// Signed-zero ties, the one place lane order could show: most candidates
/// are `±0.0` (equal as values, different as bits), tying for first or —
/// below a lone negative — for second place, so which zero's bits end up in
/// `d1`/`d2` depends on the row order the scan saw. The kernel resolves
/// ties by row, exactly as the ascending scan does.
#[test]
fn fused_epilogue_signed_zero_ties_resolve_by_row() {
    // One-deep operands: value(row, col) = −2 · a[row] · b[col].
    const PICKS: [f32; 8] = [0.0, -0.0, 0.0, -0.0, 1.0, 0.0, -0.0, 3.0];
    for (m_per_ref, batch) in [(24usize, 2usize), (9, 3), (16, 1), (40, 2), (48, 2)] {
        let m = m_per_ref * batch;
        for pattern in 0..64u64 {
            let a = Mat::from_fn(1, m, |_, c| {
                let h = (pattern * 131 + c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                PICKS[(h >> 61) as usize]
            })
            .to_f16_scaled(1.0);
            let b = Mat::from_fn(1, 2, |_, c| [1.0, -1.0][c]).to_f16_scaled(1.0);
            let epi = FusedEpilogue { quantize_f16: true, ..FusedEpilogue::default() };
            let want = observe_replay(-2.0, &a, &b, &epi, batch, m_per_ref);
            for be in available_backends() {
                let got = gemm_top2_ex(
                    -2.0,
                    &PackedA::pack(be, &a),
                    &PackedB::pack(be, &b),
                    &epi,
                    batch,
                    m_per_ref,
                );
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        (g.idx, g.d1.to_bits(), g.d2.to_bits()),
                        (w.idx, w.d1.to_bits(), w.d2.to_bits()),
                        "{be} m_per_ref={m_per_ref} batch={batch} pattern={pattern}"
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_gemm_empty_operands() {
    // Degenerate shapes must produce well-formed empty/zero results, not
    // panic: zero-depth (every dot is empty ⇒ 0), zero queries, and both.
    let c = gemm_at_b(active_backend(), -2.0, &Mat::zeros(0, 3), &Mat::zeros(0, 2));
    assert_eq!((c.rows(), c.cols()), (3, 2));
    assert!(c.as_slice().iter().all(|&v| v == 0.0));

    let c = gemm_at_b(active_backend(), 1.0, &Mat::zeros(4, 0), &Mat::zeros(4, 2));
    assert_eq!((c.rows(), c.cols()), (0, 2));

    let c = gemm_at_b(active_backend(), 1.0, &Mat::zeros(4, 3), &Mat::zeros(4, 0));
    assert_eq!((c.rows(), c.cols()), (3, 0));

    assert!(gemm_top2(active_backend(), -2.0, &Mat::zeros(5, 2), &Mat::zeros(5, 0), 1, 2).is_empty());
}
