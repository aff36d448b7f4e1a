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
//!   merge picks exactly what an ascending-row scan keeps ("The fused
//!   epilogue's two routes" in [`crate::kernel`]).
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

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::PROBE_CHAINS;
    use crate::f16::F16;
    use crate::kernel::{FusedEpilogue, NC};
    use crate::top2::Top2;
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

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
    /// Requires AVX2 + FMA; `a_ptr` and `b_ptr` must each be valid for reads
    /// of `d · 8` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_8x8(d: usize, a_ptr: *const f32, b_ptr: *const f32) -> [__m256; 8] {
        let mut c = [_mm256_setzero_ps(); 8];
        for k in 0..d {
            // SAFETY: `k < d`, so both offsets stay inside the `d · 8`
            // floats the caller vouched for.
            let a = _mm256_loadu_ps(a_ptr.add(k * 8));
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
    /// Requires AVX-512F; `a_ptr` must be valid for reads of `d · 16` floats
    /// and `b_ptr` of `d · 24`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_16x24(d: usize, a_ptr: *const f32, b_ptr: *const f32) -> [__m512; 24] {
        let mut c = [_mm512_setzero_ps(); 24];
        for k in 0..d {
            // SAFETY: `k < d`, so the offsets stay inside the `d · 16` and
            // `d · 24` floats the caller vouched for.
            let a = _mm512_loadu_ps(a_ptr.add(k * 16));
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
    /// the merge can order ties exactly (see [`LaneTop2::flush_into`]).
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

        /// Merge the `2·W` lane candidates into the block's scalar state
        /// and reset the lanes.
        ///
        /// An ascending-row scan ends holding the two smallest candidates
        /// under the order *(value, then row)* — `v < d` is strict, so of
        /// two equal values (`−0.0 == +0.0` included) the earlier row
        /// stays. Each lane ran that same scan over its own rows, so the
        /// block's two smallest are among the lanes' candidates; pick them
        /// under the same order and feed them to [`Top2::observe`], best
        /// first. `s` only ever holds rows above this panel run (a
        /// straddling panel's head), which `observe` already ranks before
        /// any tie. `+∞` and NaN never enter a lane, so the `(∞, 0)`
        /// sentinels fall through `observe` untouched.
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
    /// `$observe`, so lanes are merged into `state` once per reference
    /// block — right after the block's last whole panel — not once per
    /// element.
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
         $observe:ident, $microkernel:ident, $walker:ident) => {
            /// The tile spilled column-major: `acc[c · W + r]`.
            ///
            /// # Safety
            /// Requires the backend's target features (caller dispatches via
            /// `Backend::is_available`); `ap.len() >= d · W`,
            /// `bp.len() >= d · NR`, `acc.len() >= W · NR`.
            #[target_feature(enable = $features)]
            pub unsafe fn $microkernel(d: usize, ap: &[f32], bp: &[f32], acc: &mut [f32]) {
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
            /// `ceil(m / W)` panels of `d · W` floats, `bp` holds
            /// `ceil(w / NR)` of `d · NR`; `w <= NC`;
            /// `state.len() == w · batch` with `m == batch · m_per_ref`; a
            /// bias slice is `m` long.
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn $walker(
                t: &FusedTile<'_>,
                (a, m, d): (&[f32], usize, usize),
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
                            // and `d · NR` floats.
                            let c = $tile(d, apanel.as_ptr(), bpanel.as_ptr());
                            let row0 = p * W;
                            let blk = row0 / t.m_per_ref;
                            let off = row0 - blk * t.m_per_ref;
                            if row0 + W > m || off + W > t.m_per_ref {
                                for (j, cj) in c.iter().enumerate() {
                                    // SAFETY: `j < NR`, inside the scratch.
                                    $storeu(spilled.as_mut_ptr().add(j * W), *cj);
                                }
                                spill(p, jr, &mut spilled, state);
                                continue;
                            }
                            // SAFETY: `row0 + W <= m`, the bias length.
                            $observe(&c, t, (row0, off), group);
                            if off + 2 * W > t.m_per_ref {
                                // The next panel is not wholly inside `blk`:
                                // merge. (Lanes of zero-padded columns past
                                // `cols` are never read.)
                                for (cc, lane) in group[..cols].iter_mut().enumerate() {
                                    lane.flush_into(&mut state[(jr * NR + cc) * t.batch + blk]);
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
        observe_8x8, microkernel_8x8, fused_top2_chunk_8x8
    );
    register_tile!(
        "avx512f", 16 x 24, tile_16x24, _mm512_storeu_ps,
        observe_16x24, microkernel_16x24, fused_top2_chunk_16x24
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
}
