//! Explicit `std::arch` SIMD implementations of the GEMM microkernel and
//! the f16↔f32 conversions, selected at runtime by [`crate::dispatch`].
//!
//! Every function here is **bit-identical** to its scalar reference:
//!
//! - The register tiles (8×8 on `ymm`, 16×24 on `zmm`) keep one accumulator
//!   per output element, taking one fused multiply-add (`vfmadd231ps`) per
//!   `k` in ascending order — the correctly-rounded step the scalar tile's
//!   `f32::mul_add` takes, per the summation-order contract documented in
//!   [`crate::kernel`]. SIMD lanes map to *distinct output rows*, so widening
//!   the tile changes which elements are computed together but not how any
//!   one element sums.
//! - The fused top-2 walker (`register_tile!`, one body instantiated per
//!   vector width) carries each tile from its accumulators through the
//!   epilogue into a lane-wise partial top-2 without leaving registers; the
//!   epilogue is one vector op per scalar op in the same order, and the lane
//!   merge — a branch-free vector reduction per width — picks exactly what
//!   an ascending-row scan keeps ("The fused epilogue's two routes" in
//!   [`crate::kernel`]).
//! - The tiles read packed A through [`LoadA`]: f32 panels as they are,
//!   f16 panels widened in register (`vcvtph2ps ymm, m128` /
//!   `vcvtph2ps zmm, m256`, one extra µop per 8 or 24 FMAs). Widening is
//!   exact, so each element's chain of fused steps is the f32 pack's.
//! - The converters use F16C (`vcvtph2ps`/`vcvtps2ph` with explicit
//!   round-to-nearest-even) on both SIMD backends; its rounding, gradual
//!   underflow and overflow behaviour match [`crate::f16::F16`] exactly; the
//!   one divergence — the hardware preserves NaN payloads on narrowing where
//!   the scalar reference canonicalizes to `sign | 0x7e00` — is patched by
//!   fixing up unordered lanes through the scalar path (NaNs are vanishingly
//!   rare in feature data, so the fixup never runs on the hot path).

/// Independent accumulator chains per round of a roofline probe
/// ([`crate::kernel::mul_add_probe`]): ten cover a 4–5 cycle FMA latency on
/// two ports.
pub(crate) const PROBE_CHAINS: usize = 10;

/// A packed-A element the SIMD tiles load. Off x86-64 there are no SIMD
/// tiles, and nothing to load.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) trait LoadA {}
#[cfg(not(target_arch = "x86_64"))]
impl LoadA for f32 {}
#[cfg(not(target_arch = "x86_64"))]
impl LoadA for crate::f16::F16 {}
#[cfg(target_arch = "x86_64")]
pub(crate) use x86::LoadA;

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::PROBE_CHAINS;
    use crate::f16::F16;
    use crate::kernel::{FusedEpilogue, NC};
    use crate::top2::Top2;
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// A packed-A element as the tiles load it: `W` consecutive elements
    /// of a panel into one vector of f32 lanes. f32 panels load as they
    /// are; f16 panels are widened on the way (`vcvtph2ps`), which is exact,
    /// so the lanes hold the values an f32 pack of the same source holds.
    pub(crate) trait LoadA: Copy {
        /// Eight elements into a `ymm`.
        ///
        /// # Safety
        /// Requires AVX2 + F16C; `p` valid for reads of 8 elements.
        unsafe fn ymm(p: *const Self) -> __m256;
        /// Sixteen elements into a `zmm`.
        ///
        /// # Safety
        /// Requires AVX-512F; `p` valid for reads of 16 elements.
        unsafe fn zmm(p: *const Self) -> __m512;
    }

    impl LoadA for f32 {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn ymm(p: *const f32) -> __m256 {
            // SAFETY: the caller vouches for 8 readable floats at `p`.
            _mm256_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn zmm(p: *const f32) -> __m512 {
            // SAFETY: the caller vouches for 16 readable floats at `p`.
            _mm512_loadu_ps(p)
        }
    }

    impl LoadA for F16 {
        #[inline]
        #[target_feature(enable = "avx2,f16c")]
        unsafe fn ymm(p: *const F16) -> __m256 {
            // SAFETY: the caller vouches for 8 readable halves (16 bytes,
            // one unaligned `m128`) at `p`.
            _mm256_cvtph_ps(_mm_loadu_si128(p.cast()))
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn zmm(p: *const F16) -> __m512 {
            // SAFETY: the caller vouches for 16 readable halves (32 bytes,
            // one unaligned `m256`) at `p`.
            _mm512_cvtph_ps(_mm256_loadu_si256(p.cast()))
        }
    }

    /// AVX2 8×8 register tile: 8 `ymm` accumulators, one output row per
    /// lane, each summing its dot product in ascending-`k` order.
    /// `c[j]` lane `r` `= Σ_k ap[k·8 + r] · bp[k·8 + j]`, one `vfmadd231ps`
    /// per step — the same per-element chain of fused steps as the scalar
    /// microkernel, just eight rows at a time.
    ///
    /// Returned by value so that a caller compiled with the same target
    /// features (the fused walker below) inlines it and the accumulators
    /// never leave registers.
    ///
    /// # Safety
    /// Requires AVX2 + FMA + F16C; `a_ptr` must be valid for reads of `d · 8`
    /// elements and `b_ptr` of `d · 8` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn tile_8x8<A: LoadA>(d: usize, a_ptr: *const A, b_ptr: *const f32) -> [__m256; 8] {
        let mut c = [_mm256_setzero_ps(); 8];
        for k in 0..d {
            // SAFETY: `k < d`, so both offsets stay inside the `d · 8`
            // elements the caller vouched for.
            let a = A::ymm(a_ptr.add(k * 8));
            let bk = b_ptr.add(k * 8);
            // The compiler fully unrolls this and keeps `c` in registers.
            for (j, cj) in c.iter_mut().enumerate() {
                let b = _mm256_broadcast_ss(&*bk.add(j));
                *cj = _mm256_fmadd_ps(a, b, *cj);
            }
        }
        c
    }

    /// AVX-512 16×24 register tile: [`tile_8x8`]'s chain on 24 `zmm`
    /// accumulators of 16 rows each — one A load and 24 broadcast
    /// `vfmadd231ps zmm` per `k`, which leaves 8 of the 32 registers for the
    /// load and the broadcasts in flight.
    ///
    /// # Safety
    /// Requires AVX-512F; `a_ptr` must be valid for reads of `d · 16`
    /// elements and `b_ptr` of `d · 24` floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_16x24<A: LoadA>(d: usize, a_ptr: *const A, b_ptr: *const f32) -> [__m512; 24] {
        let mut c = [_mm512_setzero_ps(); 24];
        for k in 0..d {
            // SAFETY: `k < d`, so the offsets stay inside the `d · 16` and
            // `d · 24` elements the caller vouched for.
            let a = A::zmm(a_ptr.add(k * 16));
            let bk = b_ptr.add(k * 24);
            for (j, cj) in c.iter_mut().enumerate() {
                *cj = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(j)), *cj);
            }
        }
        c
    }

    /// Lane-wise partial top-2 of one output column on a `W`-row vector:
    /// lane `r` holds the two smallest values (with their in-block row
    /// indices) among the rows `≡ r (mod W)` of the reference block currently
    /// being scanned. This is the `(d1, d2, idx)` register state of
    /// Algorithm 2 kept `W` lanes wide; the runner-up's row rides along so
    /// the merge can order ties exactly ([`merge_8`], [`merge_16`]).
    #[derive(Clone, Copy)]
    struct LaneTop2<const W: usize> {
        d1: [f32; W],
        d2: [f32; W],
        i1: [u32; W],
        i2: [u32; W],
    }

    impl<const W: usize> LaneTop2<W> {
        /// Every lane at the scan's start state ([`Top2::EMPTY`]).
        const EMPTY: Self =
            LaneTop2 { d1: [f32::INFINITY; W], d2: [f32::INFINITY; W], i1: [0; W], i2: [0; W] };

        /// The merge written as the scan it replaces, one candidate and two
        /// branches at a time: the oracle the vector merges are held to.
        #[cfg(test)]
        fn flush_into(&mut self, s: &mut Top2) {
            fn before((v, i): (f32, u32), (bv, bi): (f32, u32)) -> bool {
                v < bv || (v == bv && i < bi)
            }
            let (mut best, mut second) = ((f32::INFINITY, 0u32), (f32::INFINITY, 0u32));
            let firsts = self.d1.iter().zip(&self.i1);
            for (&v, &i) in firsts.chain(self.d2.iter().zip(&self.i2)) {
                if before((v, i), best) {
                    second = best;
                    best = (v, i);
                } else if before((v, i), second) {
                    second = (v, i);
                }
            }
            s.observe(best.1, best.0);
            s.observe(second.1, second.0);
            *self = LaneTop2::EMPTY;
        }
    }

    // The lane merge: fold a column's `2·W` lane candidates into the block's
    // scalar state and reset the lanes, once per (reference block, column).
    //
    // An ascending-row scan ends holding the two smallest candidates under
    // the order *(value, then row)*: `v < d` is strict, so of two equal
    // values (`−0.0 == +0.0` included) the earlier row stays. Each lane ran
    // that scan over its own rows, so within a lane `(d1, i1)` comes before
    // `(d2, i2)`, and the block's two smallest are among the candidates.
    // Rows differ across lanes, so the order is total except between lanes
    // still at the `(+∞, 0)` sentinel (`+∞` and NaN never enter a lane).
    //
    // Both merges pick the best twice without a branch on the data:
    // min-reduce `d1`, mask the lanes equal to it, min-reduce `i1` under the
    // mask; the lane holding that row wins, and its own `d1` bits are read
    // (not the reduction's, which may carry the other zero). The winner's
    // `(d2, i2)` then takes its place and the reduction runs again for the
    // runner-up. Several lanes win only when all are sentinels, whose
    // runner-up is the sentinel again. Both go to [`Top2::observe`], best
    // first: `s` only ever holds rows above this panel run (a straddling
    // panel's head), which `observe` already ranks before any tie, and the
    // sentinels fall through it untouched.

    /// `v`'s minimum in every lane (`−0.0` or `+0.0` for a zero tie).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn min_ps_8(v: __m256) -> __m256 {
        let v = _mm256_min_ps(v, _mm256_permute2f128_ps(v, v, 1));
        let v = _mm256_min_ps(v, _mm256_permute_ps(v, 0b01_00_11_10));
        _mm256_min_ps(v, _mm256_permute_ps(v, 0b10_11_00_01))
    }

    /// `v`'s unsigned minimum in every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn min_epu32_8(v: __m256i) -> __m256i {
        let v = _mm256_min_epu32(v, _mm256_permute2x128_si256(v, v, 1));
        let v = _mm256_min_epu32(v, _mm256_shuffle_epi32(v, 0b01_00_11_10));
        _mm256_min_epu32(v, _mm256_shuffle_epi32(v, 0b10_11_00_01))
    }

    /// The lane merge on `ymm`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn merge_8(lane: &mut LaneTop2<8>, s: &mut Top2) {
        // SAFETY: each pointer is to an 8-element (32-byte) array inside
        // `lane`, loaded whole.
        let (mut d, d2) = (_mm256_loadu_ps(lane.d1.as_ptr()), _mm256_loadu_ps(lane.d2.as_ptr()));
        let mut i = _mm256_loadu_si256(lane.i1.as_ptr().cast());
        let i2 = _mm256_loadu_si256(lane.i2.as_ptr().cast());
        for _ in 0..2 {
            let tied = _mm256_castps_si256(_mm256_cmp_ps(d, min_ps_8(d), _CMP_EQ_OQ));
            let rows = _mm256_blendv_epi8(_mm256_set1_epi32(-1), i, tied);
            let least = min_epu32_8(rows);
            let win = _mm256_cmpeq_epi32(rows, least);
            let first = _mm256_movemask_ps(_mm256_castsi256_ps(win)).trailing_zeros();
            let at = _mm256_set1_epi32(first as i32);
            let row = _mm256_cvtsi256_si32(least) as u32;
            s.observe(row, _mm256_cvtss_f32(_mm256_permutevar8x32_ps(d, at)));
            d = _mm256_blendv_ps(d, d2, _mm256_castsi256_ps(win));
            i = _mm256_blendv_epi8(i, i2, win);
        }
        *lane = LaneTop2::EMPTY;
    }

    /// The lane merge on `zmm`: the reductions are `vminps` / `vpminud`
    /// trees, the tie a mask register, the masked moves `vmovaps` /
    /// `vmovdqa32` under it.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn merge_16(lane: &mut LaneTop2<16>, s: &mut Top2) {
        // SAFETY: each pointer is to a 16-element (64-byte) array inside
        // `lane`, loaded whole.
        let (mut d, d2) = (_mm512_loadu_ps(lane.d1.as_ptr()), _mm512_loadu_ps(lane.d2.as_ptr()));
        let mut i = _mm512_loadu_si512(lane.i1.as_ptr().cast());
        let i2 = _mm512_loadu_si512(lane.i2.as_ptr().cast());
        for _ in 0..2 {
            let min = _mm512_set1_ps(_mm512_reduce_min_ps(d));
            let tied = _mm512_cmp_ps_mask(d, min, _CMP_EQ_OQ);
            let row = _mm512_mask_reduce_min_epu32(tied, i);
            let win = _mm512_mask_cmpeq_epi32_mask(tied, i, _mm512_set1_epi32(row as i32));
            let at = _mm512_set1_epi32(win.trailing_zeros() as i32);
            s.observe(row, _mm512_cvtss_f32(_mm512_permutexvar_ps(at, d)));
            d = _mm512_mask_mov_ps(d, win, d2);
            i = _mm512_mask_mov_epi32(i, win, i2);
        }
        *lane = LaneTop2::EMPTY;
    }

    /// Everything the fused walker needs besides the operands.
    pub(crate) struct FusedTile<'a> {
        pub alpha: f32,
        pub epi: &'a FusedEpilogue<'a>,
        /// Rows per reference block (the top-2 never mixes blocks).
        pub m_per_ref: usize,
        /// Reference blocks; `state[local_j · batch + blk]`.
        pub batch: usize,
        /// A panels per cache block (the generic walker's `MC_ROWS / mr`).
        pub mc_panels: usize,
    }

    /// The AVX2 epilogue + observe of one whole 8×8 tile whose rows
    /// `row0..row0 + 8` lie inside one reference block at offset `off`:
    /// every accumulator goes through `alpha → scale → bias → f16
    /// round-trip` (one vector op each, the per-element order of the
    /// generic epilogue) and into its column's [`LaneTop2`] — two `LT_OQ`
    /// compares and six blends, so NaN never enters, exactly as `v < d1` in
    /// [`Top2::observe`].
    ///
    /// # Safety
    /// Requires AVX2 + F16C; a bias slice holds `row0 + 8` floats or more.
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn observe_8x8(
        c: &[__m256; 8],
        t: &FusedTile<'_>,
        (row0, off): (usize, usize),
        group: &mut [LaneTop2<8>],
    ) {
        let alphav = _mm256_set1_ps(t.alpha);
        let scalev = _mm256_set1_ps(t.epi.scale);
        let biasv = match t.epi.row_bias {
            // SAFETY: the slice is 8 floats long, checked by the index.
            Some(bias) => _mm256_loadu_ps(bias[row0..row0 + 8].as_ptr()),
            None => _mm256_setzero_ps(),
        };
        let rowv = _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_set1_epi32(off as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        ));
        for (cj, lane) in c.iter().zip(group) {
            let mut v = _mm256_mul_ps(_mm256_mul_ps(*cj, alphav), scalev);
            if t.epi.row_bias.is_some() {
                v = _mm256_add_ps(v, biasv);
            }
            if t.epi.quantize_f16 {
                v = _mm256_cvtph_ps(_mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
            }
            // SAFETY: each pointer is to an 8-element (32-byte) array
            // inside `lane`, loaded and stored whole.
            let d1 = _mm256_loadu_ps(lane.d1.as_ptr());
            let d2 = _mm256_loadu_ps(lane.d2.as_ptr());
            let i1 = _mm256_loadu_ps(lane.i1.as_ptr().cast());
            let i2 = _mm256_loadu_ps(lane.i2.as_ptr().cast());
            let lt1 = _mm256_cmp_ps(v, d1, _CMP_LT_OQ);
            let lt2 = _mm256_cmp_ps(v, d2, _CMP_LT_OQ);
            // observe(): `v < d1` demotes the old minimum, else `v < d2`
            // replaces the runner-up.
            let d2n = _mm256_blendv_ps(_mm256_blendv_ps(d2, v, lt2), d1, lt1);
            let i2n = _mm256_blendv_ps(_mm256_blendv_ps(i2, rowv, lt2), i1, lt1);
            _mm256_storeu_ps(lane.d1.as_mut_ptr(), _mm256_blendv_ps(d1, v, lt1));
            _mm256_storeu_ps(lane.d2.as_mut_ptr(), d2n);
            _mm256_storeu_ps(lane.i1.as_mut_ptr().cast(), _mm256_blendv_ps(i1, rowv, lt1));
            _mm256_storeu_ps(lane.i2.as_mut_ptr().cast(), i2n);
        }
    }

    /// [`observe_8x8`] on 512 bits: the same ops in the same order, the
    /// compares into mask registers (`vcmpltps k`), the blends `vblendmps` /
    /// `vpblendmd`, the round trip `vcvtps2ph` / `vcvtph2ps zmm`.
    ///
    /// # Safety
    /// Requires AVX-512F; a bias slice holds `row0 + 16` floats or more.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn observe_16x24(
        c: &[__m512; 24],
        t: &FusedTile<'_>,
        (row0, off): (usize, usize),
        group: &mut [LaneTop2<16>],
    ) {
        let alphav = _mm512_set1_ps(t.alpha);
        let scalev = _mm512_set1_ps(t.epi.scale);
        let biasv = match t.epi.row_bias {
            // SAFETY: the slice is 16 floats long, checked by the index.
            Some(bias) => _mm512_loadu_ps(bias[row0..row0 + 16].as_ptr()),
            None => _mm512_setzero_ps(),
        };
        let rowv = _mm512_add_epi32(
            _mm512_set1_epi32(off as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        for (cj, lane) in c.iter().zip(group) {
            let mut v = _mm512_mul_ps(_mm512_mul_ps(*cj, alphav), scalev);
            if t.epi.row_bias.is_some() {
                v = _mm512_add_ps(v, biasv);
            }
            if t.epi.quantize_f16 {
                v = _mm512_cvtph_ps(_mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
            }
            // SAFETY: each pointer is to a 16-element (64-byte) array
            // inside `lane`, loaded and stored whole.
            let d1 = _mm512_loadu_ps(lane.d1.as_ptr());
            let d2 = _mm512_loadu_ps(lane.d2.as_ptr());
            let i1 = _mm512_loadu_si512(lane.i1.as_ptr().cast());
            let i2 = _mm512_loadu_si512(lane.i2.as_ptr().cast());
            let lt1 = _mm512_cmp_ps_mask(v, d1, _CMP_LT_OQ);
            let lt2 = _mm512_cmp_ps_mask(v, d2, _CMP_LT_OQ);
            let d2n = _mm512_mask_blend_ps(lt1, _mm512_mask_blend_ps(lt2, d2, v), d1);
            let i2n = _mm512_mask_blend_epi32(lt1, _mm512_mask_blend_epi32(lt2, i2, rowv), i1);
            _mm512_storeu_ps(lane.d1.as_mut_ptr(), _mm512_mask_blend_ps(lt1, d1, v));
            _mm512_storeu_ps(lane.d2.as_mut_ptr(), d2n);
            _mm512_storeu_si512(lane.i1.as_mut_ptr().cast(), _mm512_mask_blend_epi32(lt1, i1, rowv));
            _mm512_storeu_si512(lane.i2.as_mut_ptr().cast(), i2n);
        }
    }

    /// One register tile's two consumers, instantiated per vector width the
    /// way `microkernel_scalar_fma` and `fma_probe!` are: `$microkernel`
    /// spills `$tile` column-major (`acc[c · W + r]`) for the generic
    /// drivers, and `$walker` is the fused GEMM + top-2 over one N-chunk
    /// with a register-resident epilogue.
    ///
    /// The walker visits tiles in `for_each_tile`'s order (rows ascend for a
    /// fixed column group) and hands every `W × NR` tile that lies whole
    /// inside one reference block from its accumulators straight to
    /// `$observe`. Each column's lanes are folded into `state` by `$merge`,
    /// the width's branch-free lane merge, once per reference block — right
    /// after the block's last whole panel — not once per element.
    ///
    /// A panel that straddles a reference-block boundary or runs past `m`
    /// cannot use one block's lanes: it is spilled and handed to
    /// `spill(p, jr, tile, state)`, the generic epilogue. The lanes of that
    /// column group are empty at that point (the previous panel was its
    /// block's last whole one), so `state` sees the block's head rows, then
    /// the merged lanes, then its tail rows: ascending, as the tie-break
    /// needs.
    macro_rules! register_tile {
        ($features:literal, $w:literal x $nr:literal, $tile:ident, $storeu:ident,
         $observe:ident, $merge:ident, $microkernel:ident, $walker:ident) => {
            /// The tile spilled column-major: `acc[c · W + r]`.
            ///
            /// # Safety
            /// Requires the backend's target features (caller dispatches via
            /// `Backend::is_available`); `ap.len() >= d · W`,
            /// `bp.len() >= d · NR`, `acc.len() >= W · NR`.
            #[target_feature(enable = $features)]
            pub unsafe fn $microkernel<A: LoadA>(d: usize, ap: &[A], bp: &[f32], acc: &mut [f32]) {
                debug_assert!(ap.len() >= d * $w && bp.len() >= d * $nr);
                debug_assert!(acc.len() >= $w * $nr);
                // SAFETY: the slice lengths asserted above are the pointer
                // ranges the tile reads and the floats stored below.
                let c = $tile(d, ap.as_ptr(), bp.as_ptr());
                for (j, cj) in c.iter().enumerate() {
                    $storeu(acc.as_mut_ptr().add(j * $w), *cj);
                }
            }

            /// The fused walker over one N-chunk of `w` columns.
            ///
            /// # Safety
            /// Requires the backend's target features. `a` holds
            /// `ceil(m / W)` panels of `d · W` elements, `bp` holds
            /// `ceil(w / NR)` of `d · NR`; `w <= NC`;
            /// `state.len() == w · batch` with `m == batch · m_per_ref`; a
            /// bias slice is `m` long.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn $walker<A: LoadA>(
                t: &FusedTile<'_>,
                (a, m, d): (&[A], usize, usize),
                (bp, w): (&[f32], usize),
                state: &mut [Top2],
                mut spill: impl FnMut(usize, usize, &mut [f32], &mut [Top2]),
            ) {
                const W: usize = $w;
                const NR: usize = $nr;
                let panels = m.div_ceil(W);
                let b_panels = w.div_ceil(NR);
                debug_assert!(a.len() >= panels * d * W && bp.len() >= b_panels * d * NR);
                debug_assert!(w <= NC && NC % NR == 0 && state.len() == w * t.batch);
                debug_assert!(m == t.batch * t.m_per_ref && t.mc_panels >= 1);
                debug_assert!(t.epi.row_bias.is_none_or(|bias| bias.len() == m));
                let mut lanes = [LaneTop2::<W>::EMPTY; NC];
                let mut spilled = [0.0f32; W * NR];
                let mut ic0 = 0;
                while ic0 < panels {
                    let ic_end = (ic0 + t.mc_panels).min(panels);
                    for jr in 0..b_panels {
                        let bpanel = &bp[jr * d * NR..(jr + 1) * d * NR];
                        let group = &mut lanes[jr * NR..(jr + 1) * NR];
                        let cols = NR.min(w - jr * NR);
                        for p in ic0..ic_end {
                            let apanel = &a[p * d * W..(p + 1) * d * W];
                            // SAFETY: the panels were just sliced to `d · W`
                            // and `d · NR` elements.
                            let c = $tile(d, apanel.as_ptr(), bpanel.as_ptr());
                            let row0 = p * W;
                            let blk = row0 / t.m_per_ref;
                            let off = row0 - blk * t.m_per_ref;
                            if row0 + W > m || off + W > t.m_per_ref {
                                for (j, cj) in c.iter().enumerate() {
                                    debug_assert!((j + 1) * W <= spilled.len());
                                    // SAFETY: `j < NR`, inside the scratch.
                                    $storeu(spilled.as_mut_ptr().add(j * W), *cj);
                                }
                                spill(p, jr, &mut spilled, state);
                                continue;
                            }
                            debug_assert!(t.epi.row_bias.is_none_or(|b| row0 + W <= b.len()));
                            // SAFETY: `row0 + W <= m`, the bias length.
                            $observe(&c, t, (row0, off), group);
                            if off + 2 * W > t.m_per_ref {
                                // The next panel is not wholly inside `blk`:
                                // merge. (Lanes of zero-padded columns past
                                // `cols` are never read.)
                                for (cc, lane) in group[..cols].iter_mut().enumerate() {
                                    $merge(lane, &mut state[(jr * NR + cc) * t.batch + blk]);
                                }
                            }
                        }
                    }
                    ic0 = ic_end;
                }
            }
        };
    }

    register_tile!(
        "avx2,fma,f16c", 8 x 8, tile_8x8, _mm256_storeu_ps,
        observe_8x8, merge_8, microkernel_8x8, fused_top2_chunk_8x8
    );
    register_tile!(
        "avx512f", 16 x 24, tile_16x24, _mm512_storeu_ps,
        observe_16x24, merge_16, microkernel_16x24, fused_top2_chunk_16x24
    );

    /// Register-only roofline probes: `rounds` rounds of [`PROBE_CHAINS`]
    /// independent `c ← fma(x, r, c)` chains with no loads or stores — the
    /// microkernel's one instruction at its port-bound best. Each returns a
    /// lane sum so the work cannot be discarded.
    macro_rules! fma_probe {
        ($(#[$attr:meta])* $name:ident, $lanes:literal,
         $set1:ident, $zero:ident, $fmadd:ident, $store:ident) => {
            $(#[$attr])*
            pub unsafe fn $name(rounds: u64, x: f32, r: f32) -> f32 {
                let (xv, rv) = ($set1(x), $set1(r));
                let mut c = [$zero(); PROBE_CHAINS];
                for _ in 0..rounds {
                    for cj in c.iter_mut() {
                        *cj = $fmadd(xv, rv, *cj);
                    }
                }
                let mut lanes = [0.0f32; $lanes];
                let mut total = 0.0;
                for cj in c {
                    // SAFETY: `lanes` is exactly the vector's floats.
                    $store(lanes.as_mut_ptr(), cj);
                    total += lanes.iter().sum::<f32>();
                }
                total
            }
        };
    }

    fma_probe!(
        /// 8-lane probe — the AVX2 backend's roofline.
        ///
        /// # Safety
        /// Requires AVX2 + FMA.
        #[target_feature(enable = "avx2,fma")]
        fma_probe_avx2, 8,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_fmadd_ps, _mm256_storeu_ps
    );

    fma_probe!(
        /// 16-lane probe — the AVX-512 backend's roofline.
        ///
        /// # Safety
        /// Requires AVX-512F.
        #[target_feature(enable = "avx512f")]
        fma_probe_avx512, 16,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_fmadd_ps, _mm512_storeu_ps
    );

    fma_probe!(
        /// 4-lane probe — the roofline of the scalar backend's `fma`-compiled
        /// 4×4 tile, which the compiler vectorizes four rows wide.
        ///
        /// # Safety
        /// Requires FMA.
        #[target_feature(enable = "fma")]
        fma_probe_xmm, 4,
        _mm_set1_ps, _mm_setzero_ps, _mm_fmadd_ps, _mm_storeu_ps
    );

    /// 8-lane F16C widen; bit-identical to [`F16::to_f32`] (hardware
    /// quietization of signalling NaNs produces the same
    /// `sign | 0x7fc0_0000 | man << 13` pattern the scalar path builds).
    ///
    /// # Safety
    /// Requires F16C; `src.len() == dst.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn widen_slice(src: &[F16], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            _mm256_storeu_ps(dp.add(i), _mm256_cvtph_ps(h));
            i += 8;
        }
        while i < n {
            *dp.add(i) = (*sp.add(i).cast::<F16>()).to_f32();
            i += 1;
        }
    }

    /// 8-lane widen with a post-scale: `dst[i] = src[i].to_f32() * scale`.
    ///
    /// # Safety
    /// Requires F16C; `src.len() == dst.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn widen_slice_scaled(src: &[F16], scale: f32, dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(_mm256_cvtph_ps(h), sv));
            i += 8;
        }
        while i < n {
            *dp.add(i) = (*sp.add(i).cast::<F16>()).to_f32() * scale;
            i += 1;
        }
    }

    /// 8-lane F16C narrow with an optional pre-scale:
    /// `dst[i] = F16::from_f32(src[i] * scale)`.
    ///
    /// `vcvtps2ph` is invoked with explicit round-to-nearest-even and
    /// matches the scalar reference on every finite value (including
    /// gradual underflow and overflow-to-∞); NaN lanes are canonicalized
    /// through the scalar path because the hardware preserves payloads
    /// where [`F16::from_f32`] emits `sign | 0x7e00`.
    ///
    /// # Safety
    /// Requires F16C; `src.len() == dst.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn narrow_slice_scaled(src: &[f32], scale: f32, dst: &mut [F16]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut u16;
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let f = _mm256_mul_ps(_mm256_loadu_ps(sp.add(i)), sv);
            let h = _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT);
            _mm_storeu_si128(dp.add(i) as *mut __m128i, h);
            let unord = _mm256_movemask_ps(_mm256_cmp_ps(f, f, _CMP_UNORD_Q));
            if unord != 0 {
                for lane in 0..8 {
                    if unord & (1 << lane) != 0 {
                        *dp.add(i + lane) = F16::from_f32(*sp.add(i + lane) * scale).to_bits();
                    }
                }
            }
            i += 8;
        }
        while i < n {
            *dp.add(i) = F16::from_f32(*sp.add(i) * scale).to_bits();
            i += 1;
        }
    }

    /// In-place 8-lane f16 round-trip: `v = F16::from_f32(v).to_f32()` —
    /// the fused epilogue's quantize pass. NaN lanes are canonicalized to
    /// the scalar result (`sign | 0x7fc0_0000`).
    ///
    /// # Safety
    /// Requires F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn quantize_in_place(vals: &mut [f32]) {
        let n = vals.len();
        let p = vals.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let f = _mm256_loadu_ps(p.add(i));
            let h = _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT);
            _mm256_storeu_ps(p.add(i), _mm256_cvtph_ps(h));
            let unord = _mm256_movemask_ps(_mm256_cmp_ps(f, f, _CMP_UNORD_Q));
            if unord != 0 {
                for lane in 0..8 {
                    if unord & (1 << lane) != 0 {
                        let v = p.add(i + lane);
                        *v = F16::from_f32(*v).to_f32();
                    }
                }
            }
            i += 8;
        }
        while i < n {
            let v = p.add(i);
            *v = F16::from_f32(*v).to_f32();
            i += 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::dispatch::Backend;

        /// Adversarial columns for a `W`-lane group of `nr` columns: each
        /// case is a straddling head (rows `0..head`, already in the block
        /// state before the lanes merge) and `nr` columns of
        /// `head + panels · W` values drawn from a small palette, so that
        /// ties across lanes, signed zeros, `±∞` and NaN all occur.
        fn cases(w: usize, nr: usize) -> Vec<(usize, Vec<Vec<f32>>)> {
            let (inf, nan) = (f32::INFINITY, f32::NAN);
            let palettes: [&[f32]; 8] = [
                &[1.0, 2.0],                         // equal values in different lanes
                &[-0.0, 0.0],                        // signed-zero ties for first
                &[-1.0, -0.0, 0.0, 0.0, 0.0, -0.0], // ... and for second
                &[-0.0, 0.0, 3.0, 3.0, 3.0, 3.0],
                &[f32::NEG_INFINITY, -0.0, 0.0, 5.0],
                &[inf, nan],                         // every lane at the sentinel
                &[inf, inf, inf, nan, 1.0, -0.0, 0.0], // some lanes at the sentinel
                &[7.0, -2.5, 0.25, -0.0, 0.0, inf, f32::NEG_INFINITY, nan],
            ];
            let mut seed = 0x9e37_79b9_7f4a_7c15u64;
            let mut draw = |n: usize| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 33) as usize % n
            };
            let mut out = Vec::new();
            for palette in palettes {
                for head in [0, 1, w / 2 + 1, w - 1] {
                    for panels in [1, 2, 5] {
                        let mut column = || -> Vec<f32> {
                            (0..head + panels * w).map(|_| palette[draw(palette.len())]).collect()
                        };
                        let cols = (0..nr).map(|_| column()).collect();
                        out.push((head, cols));
                    }
                }
            }
            out
        }

        fn bits(t: Top2) -> (u32, u32, u32) {
            (t.idx, t.d1.to_bits(), t.d2.to_bits())
        }

        /// A width's observe step: one tile through the epilogue into its
        /// lane group.
        type Observe<V, const W: usize, const NR: usize> =
            unsafe fn(&[V; NR], &FusedTile<'_>, (usize, usize), &mut [LaneTop2<W>]);

        /// Scan each case's panels through the width's real `observe`, then
        /// merge every column both ways from the same block state.
        fn check<const W: usize, const NR: usize, V>(
            load: unsafe fn(*const f32) -> V,
            observe: Observe<V, W, NR>,
            merge: unsafe fn(&mut LaneTop2<W>, &mut Top2),
        ) {
            let epi = FusedEpilogue::default();
            for (case, (head, cols)) in cases(W, NR).into_iter().enumerate() {
                let m_per_ref = cols[0].len();
                let t = FusedTile { alpha: 1.0, epi: &epi, m_per_ref, batch: 1, mc_panels: 1 };
                let mut group = [LaneTop2::<W>::EMPTY; NR];
                for off in (head..m_per_ref).step_by(W) {
                    debug_assert!(cols.iter().all(|col| off + W <= col.len()));
                    // SAFETY: the caller checked the width's features; each
                    // load reads `W` of a column's `off + W <= m_per_ref`.
                    let c = std::array::from_fn(|j| unsafe { load(cols[j][off..].as_ptr()) });
                    // SAFETY: the caller checked the width's features, and
                    // the default epilogue has no bias slice to read.
                    unsafe { observe(&c, &t, (off, off), &mut group) };
                }
                for (j, (col, lanes)) in cols.iter().zip(&group).enumerate() {
                    let mut head_state = Top2::EMPTY;
                    for (x, &v) in col[..head].iter().enumerate() {
                        head_state.observe(x as u32, v);
                    }
                    let (mut oracle, mut vector) = (*lanes, *lanes);
                    let (mut want, mut got) = (head_state, head_state);
                    oracle.flush_into(&mut want);
                    // SAFETY: as above.
                    unsafe { merge(&mut vector, &mut got) };
                    assert_eq!(bits(got), bits(want), "W {W}, case {case}, column {j}: {col:?}");
                    let scan = col.iter().enumerate().fold(Top2::EMPTY, |mut s, (x, &v)| {
                        s.observe(x as u32, v);
                        s
                    });
                    assert_eq!(bits(want), bits(scan), "oracle vs scan, case {case}");
                    let reset = vector.d1.iter().chain(&vector.d2).all(|v| *v == f32::INFINITY)
                        && vector.i1.iter().chain(&vector.i2).all(|&i| i == 0);
                    assert!(reset, "W {W}: lanes not reset");
                }
            }
        }

        #[test]
        fn vector_merge_equals_the_scalar_oracle_bit_for_bit() {
            if Backend::Avx2.is_available() {
                // SAFETY: AVX2 is available; `check` hands `load` a pointer
                // to 8 readable floats.
                check::<8, 8, __m256>(|p| unsafe { _mm256_loadu_ps(p) }, observe_8x8, merge_8);
            }
            if Backend::Avx512.is_available() {
                // SAFETY: AVX-512F is available; `check` hands `load` a
                // pointer to 16 readable floats.
                check::<16, 24, __m512>(|p| unsafe { _mm512_loadu_ps(p) }, observe_16x24, merge_16);
            }
        }
    }
}
