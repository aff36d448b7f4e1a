//! Packed, cache-blocked, register-tiled `AᵀB` microkernel — with an
//! optional **fused top-2 epilogue** so the `m × n` similarity matrix never
//! has to exist in memory.
//!
//! This is the CPU analogue of two GPU techniques the system leans on:
//! the paper's register-resident top-2 scan (§4.1, Algorithm 2) and Faiss's
//! fused k-selection, which folds the selection into the distance-matrix
//! tiles so only `O(n)` selection state survives a tile (Johnson, Douze &
//! Jégou, billion-scale similarity search).
//!
//! # Scheme
//!
//! Both operands are column-major `d × *` feature matrices and the product
//! is `C = alpha · AᵀB` (`m × n`), i.e. a GEMM with `M = m`, `N = n`,
//! `K = d`, where every descriptor is already K-contiguous.
//!
//! 1. **Packing.** A (the reference operand) is packed into panels of
//!    [`MR`] columns, interleaved k-major: panel `p` stores
//!    `a[p][k·MR + r] = A[k, p·MR + r]`, zero-padded past `m`. An
//!    FP16 reference keeps **two bytes per element** in the panels on the
//!    SIMD backends ([`Backend::f16_panels`]): the tile widens each A load
//!    in register (`vcvtph2ps`), one extra µop per 8 or 24 FMAs, and
//!    widening is exact, so every product is the f32 pack's. The scalar
//!    backend widens during packing instead (4 bytes per element, each
//!    converted once). B, the per-search query, is always widened during
//!    packing ([`PackedB`], panels of [`NR`] columns). Both packs are values
//!    the caller owns: pack a reference block once for as long as it lives
//!    and a query once per search, and no GEMM or scan packs anything again.
//!    A [`PackedA`] is also edited where it lies, whole columns at a time,
//!    and stays the pack of the edited matrix: [`PackedA::append_cols`],
//!    [`PackedA::write_cols`], [`PackedA::swap_remove_cols`]; one scatter,
//!    `pack_panels`, is behind the first two and both `pack`s. That scatter,
//!    `read_cols`, `swap_remove_cols` and the tiles are all that know a
//!    panel's element type (`Panel`).
//! 2. **Blocking.** Output columns are processed in chunks of `NC`, one
//!    after another on the calling thread (nothing is parallel inside a
//!    shard leg) — the chunk's slice of the packed B, ≤ `NC·d` floats,
//!    stays L2-resident. Within a chunk, A panels are walked in blocks of
//!    `MC_ROWS / mr` so the active `MC_ROWS·d` slice of packed A stays
//!    cache-hot while the chunk's B panels are swept.
//! 3. **Register tile.** The microkernel computes an `MR × NR` output tile
//!    with `MR·NR` independent accumulators (16 scalar, 64 AVX2, 384
//!    AVX-512), walking the full depth `K` in one pass (`d ≤ 128` for every
//!    paper shape, so the tile's accumulators never spill to a C buffer).
//!    Each packed A load is reused `NR` times and each B load `MR` times.
//! 4. **Epilogue.** Either the tile is written to C ([`gemm_packed`]), or —
//!    the fused path ([`gemm_top2_ex`]) — every value goes through
//!    `alpha → scale → per-row bias → f16 round-trip` (the last two
//!    optional, one f32 operation each) and into per-column [`Top2`]
//!    running minima. The fused path allocates only the result and one
//!    chunk's `NC·batch` selection state; no `m × n` buffer, and nothing
//!    proportional to an operand.
//!
//! # The fused epilogue's two routes
//!
//! **Generic** (scalar, and every SIMD tile the vector form cannot
//! cover): the tile is spilled, transformed in place in per-tile passes
//! (each optional pass branches once per tile, not per element) and
//! [`Top2::observe`]d row by row; the reference block of the tile's first
//! row is found with one division per tile and the rows below only step
//! forward. This is the reference the bit-identity tests replay.
//!
//! **Register-resident** (AVX2 and AVX-512; `crate::simd`, one walker body
//! instantiated per vector width `W` = 8 or 16 rows): the accumulators
//! never leave `ymm` / `zmm`. The transform is applied in-register in the
//! same per-element order, and each output column updates a *lane-wise
//! partial top-2* — `W` independent `(d1, d2)` pairs with their row
//! indices, lane `r` scanning the rows `≡ r (mod W)` — with two ordered `<`
//! compares and blends, so NaN never enters, exactly as `v < d1` in
//! `observe`. Because a fixed column group sees its rows in ascending
//! order, the lanes are merged into the scalar [`Top2`] only when the
//! reference block changes (once per `m_per_ref` rows, not per element).
//! The merge takes the two smallest of the `2·W` lane candidates under the
//! order *(value, then row)* and observes them, best first: an ascending
//! scan keeps exactly those two, because `<` is strict and an equal value
//! never displaces an earlier row. It is a vector reduction with no branch
//! on the data, one per width: min-reduce the lanes' `d1`, min-reduce the
//! rows of the lanes equal to that minimum, and read the winning lane's own
//! `d1` bits (so a `−0.0`/`+0.0` tie reports the earlier row's); then a
//! masked move puts that lane's runner-up in its place and the same
//! reduction picks the second. Which tiles fall back is read from the inputs
//! alone: a panel that straddles a reference-block boundary (`m_per_ref`
//! not a multiple of `W`) or runs past `m` holds rows of two blocks (or
//! padding), so one block's lanes cannot take it; it goes the generic
//! route, after that column group's lanes were merged and before the next
//! block's start, so `observe` still sees every block's rows in ascending
//! order.
//!
//! **Ties, `±0.0`, NaN, `±∞`.** Both routes give the ascending scan's answer
//! bit for bit: `idx` is the first row holding the minimum; of candidates
//! that compare equal — duplicates, or `−0.0` and `+0.0`, whose bits differ
//! — the earlier row's bits land in `d1`, the next one's in `d2` (the lanes
//! carry the runner-up's row for this, so lane order never shows). NaN is
//! never selected; `+∞` never displaces the `+∞` start state, so a column
//! whose values are all NaN/`+∞` reports `(idx 0, ∞, ∞)`; `−∞` is an
//! ordinary minimum. A zero-norm (all-zero) descriptor yields `alpha · 0`
//! (`−0.0` for the `−2` the matchers pass) for every pairing — a tie, won
//! by the first row.
//!
//! # Summation order (the backend contract)
//!
//! Every output element is **one accumulator taking one fused multiply-add
//! per `k`, in ascending `k`**: `acc ← round(a·b + acc)`, the product exact,
//! one rounding per step, no intra-dot splitting. That is the chain
//! [`crate::gemm::gemm_at_b_naive`] spells out with `f32::mul_add`, so f32
//! results are bit-identical to the naive reference — and it is what an
//! HGEMM's f32 accumulate does on the device the paper ran on.
//!
//! Determinism is a property of this order of operations, not of which
//! instruction carries it out: IEEE 754 defines `fusedMultiplyAdd` as
//! correctly rounded, so `vfmadd231ps` (the AVX2 8×8 and AVX-512 16×24
//! tiles), the scalar tile's `f32::mul_add` (an `fmadd` on aarch64) and
//! libm's `fmaf` all return the same bits. **Every runtime backend
//! ([`Backend`]) honors the contract**: the SIMD microkernels map lanes to
//! *distinct output rows* (one accumulator per element, still
//! ascending-`k`), so widening the register tile (`MR × NR` is 4×4 scalar,
//! 8×8 AVX2, 16×24 AVX-512) changes only which elements are computed
//! *together*; each element's chain, the epilogue's per-element op order
//! (plain multiplies and adds, never contracted) and the ascending-row
//! tile emission that the top-2 first-index tie-break relies on are the
//! same everywhere. Consequently `gemm_packed` / `gemm_top2_ex` results
//! are **bit-identical across scalar, AVX2 and AVX-512**; the
//! fused-vs-unfused / degenerate-IVF / coalescer bit-exactness
//! suites pin the contract for whichever backend dispatch selects, and a
//! committed CRC of the result bits pins it as a value
//! (`results_match_the_committed_golden_crc`).
//!
//! **The scalar tile on x86-64.** The crate is built for baseline x86-64,
//! which has no FMA, so a bare `mul_add` there is a call to libm's `fmaf` —
//! bit-identical, 17–25× slower. The one `#[inline(always)]` scalar tile
//! body is therefore compiled a second time under
//! `#[target_feature(enable = "fma")]`, and a scalar pack made on a CPU
//! where `is_x86_feature_detected!("fma")` holds runs that instance; on a
//! CPU without FMA it falls through to libm. Other targets need neither
//! (aarch64's `mul_add` is `fmadd`).
//!
//! # Backend selection
//!
//! The microkernel (and the f16 widen/narrow used in packing and the
//! quantize pass) is chosen per [`PackedA`] / [`PackedB`] at *pack time* —
//! panel width equals the backend's `MR` / `NR`, so the kernel that consumes
//! a pack is always the one it was laid out for (the two operands of a call
//! must be packed for the same backend). The backend is an argument of
//! [`PackedA::pack`] / [`PackedB::pack`] and of the two pack-and-run entry
//! points ([`gemm_at_b`], [`gemm_top2`]): pass
//! [`active_backend`](crate::dispatch::active_backend) (probed once,
//! overridable via `TEXID_KERNEL_BACKEND`) or force one for a test, a bench
//! or a `MatchConfig` override. Precision is the operand's type
//! ([`Operand`]: `Mat` or `MatF16`). A forced-but-unavailable backend
//! silently degrades to scalar.

use crate::dispatch::{Backend, MAX_TILE};
use crate::f16::F16;
use crate::mat::{Mat, MatF16, Operand, Widen};
use crate::simd::{LoadA, PROBE_CHAINS};
use crate::top2::Top2;

/// Reference (A) columns per **scalar** register tile — rows of the output
/// tile. SIMD backends use wider tiles: see [`Backend::mr`].
pub const MR: usize = 4;
/// Query (B) columns per **scalar** register tile — columns of the output
/// tile. SIMD backends may differ: see [`Backend::nr`].
pub const NR: usize = 4;
/// Reference rows per cache block (`MC_ROWS / mr` panels — a
/// `128 × 128` f32 slice ≈ 64 KiB of packed A kept hot per block,
/// independent of the backend's panel width).
const MC_ROWS: usize = 128;
/// Output columns per N-chunk (packed B chunk ≤ `NC·d` floats): a whole
/// number of B panels on every backend (`nr` is 4, 8 or 24). The fused
/// scan keeps selection state for one chunk at a time.
pub const NC: usize = 96;

/// A packed-A element: f32, or f16 bits that the SIMD tiles widen as they
/// load them. Both read back as the f32 the kernel multiplies ([`Widen`]).
pub(crate) trait Panel: Widen + LoadA + PartialEq + core::fmt::Debug {
    /// Padding past the last column.
    const ZERO: Self;
    /// One source column in this element type, into `dst` (`src.len()`
    /// long): widened into f32 panels, copied into f16 ones.
    ///
    /// # Panics
    /// Panics on an f32 column for f16 panels (narrowing is not packing).
    fn take<S: Widen>(be: Backend, src: &[S], dst: &mut [Self]);
}

impl Panel for f32 {
    const ZERO: f32 = 0.0;
    fn take<S: Widen>(be: Backend, src: &[S], dst: &mut [f32]) {
        S::widen_into(be, src, dst);
    }
}

impl Panel for F16 {
    const ZERO: F16 = F16::ZERO;
    fn take<S: Widen>(_be: Backend, src: &[S], dst: &mut [F16]) {
        dst.copy_from_slice(S::halves(src).expect("f16 panels take f16 columns"));
    }
}

/// A [`PackedA`]'s panel buffer, in its element type.
#[derive(Debug, PartialEq)]
enum Panels {
    F32(Vec<f32>),
    F16(Vec<F16>),
}

/// Run `$body` with `$v` bound to the panel buffer as a `Vec` of its own
/// element type (`$panels` is `&x` or `&mut x`).
macro_rules! on_panels {
    ($panels:expr, $v:ident => $body:expr) => {
        match $panels {
            Panels::F32($v) => $body,
            Panels::F16($v) => $body,
        }
    };
}

/// A pre-packed reference operand.
///
/// Pack once, multiply many times: the packing (and, for FP16 on the scalar
/// backend, the widening) cost is paid a single time per reference matrix
/// regardless of how many GEMMs or fused scans consume it.
pub struct PackedA {
    m: usize,
    d: usize,
    /// The backend this pack was laid out for (panel width = `backend.mr()`).
    backend: Backend,
    /// Cached `backend.mr()` — the panel width.
    mr: usize,
    /// A scalar pack on an x86-64 CPU with FMA: its tiles run
    /// `microkernel_scalar_fma` rather than call libm (same bits either way).
    fma_tile: bool,
    /// `ceil(m / mr)` panels of `d · mr` elements, k-major within a panel:
    /// f16 for a half-precision source on a backend whose tiles widen in
    /// register ([`Backend::f16_panels`]), f32 otherwise.
    panels: Panels,
}

impl PackedA {
    /// Pack a reference matrix for `be` (an unavailable backend degrades to
    /// scalar). Half-precision elements keep their bits where the backend's
    /// tiles widen in register, and are widened once here otherwise.
    pub fn pack<T: Operand>(be: Backend, a: &T) -> PackedA {
        let (cols, d, m) = a.parts();
        let backend = if be.is_available() { be } else { Backend::Scalar };
        let mr = backend.mr();
        let fma_tile = backend == Backend::Scalar && scalar_tile_has_fma();
        let len = m.div_ceil(mr) * d * mr;
        let mut panels = if T::Elem::HALF && backend.f16_panels() {
            Panels::F16(vec![F16::ZERO; len])
        } else {
            Panels::F32(vec![0.0; len])
        };
        on_panels!(&mut panels, data => pack_panels(data, cols, d, 0, mr, backend));
        PackedA { m, d, backend, mr, fma_tile, panels }
    }

    /// Append `a`'s columns in place: the result is the pack of the two
    /// matrices side by side. The buffer grows as a `Vec` does, so a pack
    /// built one block at a time copies each element amortized O(1) times.
    ///
    /// # Panics
    /// Panics if `a`'s depth is not the pack's, or on f32 columns for an
    /// f16 pack.
    pub fn append_cols<T: Operand>(&mut self, a: &T) {
        let (_, _, count) = a.parts();
        let start = self.m;
        self.m += count;
        let len = self.m.div_ceil(self.mr) * self.d * self.mr;
        on_panels!(&mut self.panels, data => data.resize(len, Panel::ZERO));
        self.write_cols(start, a);
    }

    /// Overwrite the columns from `start` on with `a`'s — the dual of
    /// [`Self::read_cols`]: the pack of the matrix with them replaced.
    ///
    /// # Panics
    /// Panics if `a`'s depth is not the pack's, the columns run past
    /// [`Self::cols`], or on f32 columns for an f16 pack.
    pub fn write_cols<T: Operand>(&mut self, start: usize, a: &T) {
        let (cols, d, count) = a.parts();
        assert_eq!(d, self.d, "columns of another depth than the pack's");
        assert!(start + count <= self.m, "columns past the end of the pack");
        let (mr, be) = (self.mr, self.backend);
        on_panels!(&mut self.panels, data => pack_panels(data, cols, d, start, mr, be));
    }

    /// [`Self::pack`] of a half-precision matrix (the name `benchmarks/`
    /// times).
    pub fn from_f16_on(be: Backend, a: &MatF16) -> PackedA {
        Self::pack(be, a)
    }

    /// Number of reference columns (`m`, rows of the product).
    pub fn cols(&self) -> usize {
        self.m
    }

    /// Descriptor dimensionality (`d`, the contraction depth).
    pub fn depth(&self) -> usize {
        self.d
    }

    /// The backend this operand was packed for — the one every GEMM or
    /// fused scan consuming it will run on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Bytes the panels hold, zero padding included: 2 per element for f16
    /// panels, 4 for f32.
    pub fn panel_bytes(&self) -> usize {
        on_panels!(&self.panels, data => std::mem::size_of_val(data.as_slice()))
    }

    /// The `count` columns starting at `start`, read back out of the panels
    /// as a column-major `d × count` matrix: the values the kernel
    /// multiplies, a half-precision source's elements exactly widened.
    ///
    /// # Panics
    /// Panics if the range runs past [`Self::cols`].
    pub fn read_cols(&self, start: usize, count: usize) -> Mat {
        assert!(start + count <= self.m, "columns past the end of the pack");
        let mut out = Mat::zeros(self.d, count);
        for j in 0..count {
            let src = col_offset(start + j, self.d, self.mr);
            on_panels!(&self.panels, data => {
                for (k, v) in out.col_mut(j).iter_mut().enumerate() {
                    *v = data[src + k * self.mr].widen();
                }
            });
        }
        out
    }

    /// [`Mat::swap_remove_cols`] on the packed form, in place: the result is
    /// the pack of the swap-removed matrix, in the buffer the pack already
    /// had. When `start`, `count` and the column count are all multiples of
    /// the panel width, the tail is whole unpadded panels and moves in one
    /// `memmove`; otherwise its elements move one by one inside the k-major
    /// panels and the padding of the new last panel is zeroed again.
    ///
    /// # Panics
    /// Panics unless the removed columns are the last `count` or end before
    /// them.
    pub fn swap_remove_cols(&mut self, start: usize, count: usize) {
        let (d, mr) = (self.d, self.mr);
        let tail = self.m.checked_sub(count).expect("more columns than the pack holds");
        assert!(start == tail || start + count <= tail, "hole overlaps the tail block");
        let at = |c: usize| col_offset(c, d, mr);
        on_panels!(&mut self.panels, data => {
            if [start, count, tail].iter().all(|v| v % mr == 0) {
                data.copy_within(tail * d.., start * d);
            } else {
                for j in 0..count {
                    let (src, dst) = (at(tail + j), at(start + j));
                    for k in 0..d {
                        data[dst + k * mr] = data[src + k * mr];
                    }
                }
            }
            for c in tail..tail.next_multiple_of(mr) {
                for k in 0..d {
                    data[at(c) + k * mr] = Panel::ZERO;
                }
            }
            data.truncate(tail.div_ceil(mr) * d * mr);
        });
        self.m = tail;
    }

    fn panel_count(&self) -> usize {
        self.m.div_ceil(self.mr)
    }
}

/// Where column `c`'s first element lies in `d`-deep, `mr`-wide panels; its
/// `d` elements follow at stride `mr`.
fn col_offset(c: usize, d: usize, mr: usize) -> usize {
    c / mr * d * mr + c % mr
}

/// A pre-packed, pre-widened query operand: the same k-major panel layout
/// as [`PackedA`], [`Backend::nr`] columns per panel, bound to a backend at
/// pack time.
///
/// Pack once per query, scan many reference batches: every N-chunk of every
/// GEMM or fused scan reads its panels straight out of this buffer instead
/// of widening and scattering the query again.
pub struct PackedB {
    n: usize,
    d: usize,
    backend: Backend,
    /// Cached `backend.nr()` — the panel width.
    nr: usize,
    /// `ceil(n / nr)` panels of `d · nr` floats, k-major within a panel.
    data: Vec<f32>,
}

impl PackedB {
    /// Pack a query matrix for `be`, exactly as [`PackedA::pack`] does a
    /// reference matrix.
    pub fn pack<T: Operand>(be: Backend, b: &T) -> PackedB {
        let (cols, d, n) = b.parts();
        let backend = if be.is_available() { be } else { Backend::Scalar };
        let nr = backend.nr();
        let mut data = vec![0.0f32; n.div_ceil(nr) * d * nr];
        pack_panels(&mut data, cols, d, 0, nr, backend);
        PackedB { n, d, backend, nr, data }
    }

    /// Number of query columns (`n`, columns of the product).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Descriptor dimensionality (`d`, the contraction depth).
    pub fn depth(&self) -> usize {
        self.d
    }

    /// The backend this operand was packed for.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The panels of the `w` columns starting at `j0` (`j0` a multiple of
    /// [`NC`], which every backend's `nr` divides).
    fn chunk(&self, j0: usize, w: usize) -> &[f32] {
        debug_assert_eq!(j0 % self.nr, 0);
        let stride = self.d * self.nr;
        &self.data[j0 / self.nr * stride..(j0 + w).div_ceil(self.nr) * stride]
    }
}

/// The one column-scatter behind every pack, append and overwrite: write
/// the K-contiguous columns `cols` (`d` elements each) into `data`'s
/// `width`-column panels, k-major within a panel (`panel[k · width + c]`),
/// the first of them at column `start`. What it does not touch — the zero
/// padding past the last column of a fresh or grown buffer — stays.
/// Each column is converted to the panel element once ([`Panel::take`]: a
/// whole column at a time, 8-lane F16C widening on SIMD backends, a copy
/// where the types agree), then scattered.
fn pack_panels<S: Widen, D: Panel>(
    data: &mut [D],
    cols: &[S],
    d: usize,
    start: usize,
    width: usize,
    be: Backend,
) {
    let mut conv = vec![D::ZERO; d];
    // Where the next column goes: its panel's offset, its lane in the panel
    // (stepped, not divided out per column: `width` is a runtime value).
    let (mut panel, mut lane) = (start / width * d * width, start % width);
    for col in cols.chunks_exact(d.max(1)) {
        D::take(be, col, &mut conv);
        let slots = &mut data[panel + lane..panel + d * width];
        for (k, &v) in conv.iter().enumerate() {
            slots[k * width] = v;
        }
        lane += 1;
        if lane == width {
            (panel, lane) = (panel + d * width, 0);
        }
    }
}

/// The scalar `MR × NR` register tile: 16 independent accumulators over the
/// full depth, one `f32::mul_add` per step. `acc[c · MR + r]` is the (r, c)
/// output (column-major tile). `#[inline(always)]` so that
/// [`microkernel_scalar_fma`] is this body compiled again (module docs,
/// "The scalar tile on x86-64"). A scalar pack has f32 panels; the element
/// type is generic only so that one `run_tile` serves both.
#[inline(always)]
fn microkernel_scalar<A: Panel>(d: usize, ap: &[A], bp: &[f32], acc: &mut [f32; MAX_TILE]) {
    let mut t = [0.0f32; MR * NR];
    for (av, bv) in ap[..d * MR].chunks_exact(MR).zip(bp[..d * NR].chunks_exact(NR)) {
        for (&b, acc_col) in bv.iter().zip(t.chunks_exact_mut(MR)) {
            for (&a, slot) in av.iter().zip(acc_col.iter_mut()) {
                *slot = a.widen().mul_add(b, *slot);
            }
        }
    }
    acc[..MR * NR].copy_from_slice(&t);
}

/// [`microkernel_scalar`] with `mul_add` compiled to `vfmadd`.
///
/// # Safety
/// Requires FMA (`PackedA::pack` probes it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn microkernel_scalar_fma<A: Panel>(
    d: usize,
    ap: &[A],
    bp: &[f32],
    acc: &mut [f32; MAX_TILE],
) {
    microkernel_scalar(d, ap, bp, acc);
}

/// Whether a scalar pack runs [`microkernel_scalar_fma`].
fn scalar_tile_has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Run one register tile of `a`'s backend on its A panel `ap`, filling the
/// first `mr · nr` slots of `acc` column-major (`acc[c · mr + r]`).
#[inline(always)]
fn run_tile<A: Panel>(a: &PackedA, ap: &[A], bp: &[f32], acc: &mut [f32; MAX_TILE]) {
    let d = a.d;
    // The SIMD tiles' length obligations: one `d`-deep panel of each operand.
    debug_assert!(ap.len() >= d * a.mr && bp.len() >= d * a.backend.nr());
    debug_assert!(a.backend.is_available() && (!a.fma_tile || scalar_tile_has_fma()));
    match a.backend {
        Backend::Scalar if a.fma_tile => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `fma_tile` is set only where the FMA probe succeeded.
            unsafe {
                microkernel_scalar_fma(d, ap, bp, acc)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("`fma_tile` is only ever set on x86-64")
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `PackedA::pack` downgrades unavailable backends, so an
        // Avx2 pack only exists on CPUs where the probe succeeded.
        Backend::Avx2 => unsafe { crate::simd::x86::microkernel_8x8(d, ap, bp, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — an Avx512 pack only exists where AVX-512F was
        // detected.
        Backend::Avx512 => unsafe { crate::simd::x86::microkernel_16x24(d, ap, bp, acc) },
        _ => microkernel_scalar(d, ap, bp, acc),
    }
}

/// `C = alpha · AᵀB` from pre-packed operands, one `NC`-column chunk of
/// the output after another.
///
/// # Panics
/// Panics if the contraction depths differ or the operands were packed for
/// different backends.
pub fn gemm_packed(alpha: f32, a: &PackedA, b: &PackedB) -> Mat {
    assert_eq!(a.depth(), b.depth(), "AᵀB requires equal row counts (d)");
    assert_eq!(a.backend, b.backend, "operands packed for different backends");
    let m = a.cols();
    let n = b.cols();
    let d = a.depth();
    let mut c = Mat::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    let mr = a.mr;
    let nr = b.nr;
    for (ci, chunk) in c.as_mut_slice().chunks_mut(m * NC).enumerate() {
        let w = chunk.len() / m;
        let emit = |p: usize, jr: usize, acc: &mut [f32]| {
            let rows = mr.min(m - p * mr);
            let cols = nr.min(w - jr * nr);
            for cc in 0..cols {
                let dst = &mut chunk[(jr * nr + cc) * m + p * mr..][..rows];
                for (r, slot) in dst.iter_mut().enumerate() {
                    *slot = alpha * acc[cc * mr + r];
                }
            }
        };
        on_panels!(&a.panels, ap => for_each_tile(a, ap, b.chunk(ci * NC, w), w, d, emit));
    }
    c
}

/// Walk every (A-panel, B-panel) register tile of one N-chunk (`a`'s
/// panels `ap`, in their element type) in the blocked order (`MC_ROWS / mr` A panels per block, B panels swept inside each
/// block), handing each finished tile — the first `mr · nr` slots of the
/// scratch, column-major, the callee's to overwrite — to
/// `emit(panel, jr, acc)`.
///
/// For any fixed output column, tiles arrive in ascending-row order — the
/// property the fused top-2 epilogue relies on for first-index tie-breaking.
/// This holds for every backend tile geometry (the fused walkers in
/// `crate::simd` visit tiles in this same order).
#[inline]
fn for_each_tile<A: Panel>(
    a: &PackedA,
    ap: &[A],
    bp: &[f32],
    w: usize,
    d: usize,
    mut emit: impl FnMut(usize, usize, &mut [f32]),
) {
    let (mr, nr) = (a.mr, a.backend.nr());
    let b_panels = w.div_ceil(nr);
    let mc_panels = (MC_ROWS / mr).max(1);
    let mut acc = [0.0f32; MAX_TILE];
    let mut ic0 = 0;
    while ic0 < a.panel_count() {
        let ic_end = (ic0 + mc_panels).min(a.panel_count());
        for jr in 0..b_panels {
            let bpanel = &bp[jr * d * nr..(jr + 1) * d * nr];
            for p in ic0..ic_end {
                run_tile(a, &ap[p * d * mr..(p + 1) * d * mr], bpanel, &mut acc);
                emit(p, jr, &mut acc[..mr * nr]);
            }
        }
        ic0 = ic_end;
    }
}

/// Per-element transform applied between the GEMM tile and the top-2
/// running minima — the fused analogue of the materialized pipeline
/// `C·scale → C + bias (rows) → narrow to f16 → scan`.
///
/// Each step is applied in exactly that order with exactly one f32
/// operation, so the fused path is bit-identical to the unfused one.
#[derive(Clone, Copy, Debug)]
pub struct FusedEpilogue<'a> {
    /// Multiplied in after `alpha` (use `1/scale²` to undo an FP16 operand
    /// scale; `1.0` is exact and changes nothing).
    pub scale: f32,
    /// Optional per-row additive bias of length `m` (the `N_R` vector of
    /// Algorithm 1, step 4).
    pub row_bias: Option<&'a [f32]>,
    /// Round-trip each value through f16 before comparing, reproducing the
    /// quantization of a 16-bit HGEMM output feeding the device scan.
    pub quantize_f16: bool,
}

impl Default for FusedEpilogue<'_> {
    fn default() -> Self {
        FusedEpilogue { scale: 1.0, row_bias: None, quantize_f16: false }
    }
}

/// The shape the blocked scan attributes rows by: `batch` reference blocks
/// of `m_per_ref` rows, per-column state laid out `state[local_j · batch +
/// blk]`.
#[derive(Clone, Copy)]
struct Blocks {
    batch: usize,
    m_per_ref: usize,
}

/// The generic fused epilogue for one spilled tile: transform the
/// `mr × nr` values in place (per element `alpha → scale → bias → f16
/// round-trip`, the `row_bias`/`quantize_f16` branches resolved once per
/// tile) and fold them into the per-column [`Top2`] states in ascending-row
/// order.
///
/// This is the whole epilogue on the scalar backend, the route of every
/// SIMD tile the register-resident form cannot cover, and the reference the
/// bit-identity tests replay.
#[allow(clippy::too_many_arguments)]
fn epilogue_tile(
    a: &PackedA,
    w: usize,
    (p, jr): (usize, usize),
    t: &mut [f32],
    alpha: f32,
    epi: &FusedEpilogue<'_>,
    blocks: Blocks,
    state: &mut [Top2],
) {
    let (mr, nr) = (a.mr, a.backend.nr());
    let rows = mr.min(a.m - p * mr);
    let cols = nr.min(w - jr * nr);
    for v in t.iter_mut() {
        *v = *v * alpha * epi.scale;
    }
    if let Some(bias) = epi.row_bias {
        // Padding lanes past `rows`/`cols` would index `bias` out of
        // range, so this pass alone respects the edges.
        for cc in 0..cols {
            for (r, v) in t[cc * mr..cc * mr + rows].iter_mut().enumerate() {
                *v += bias[p * mr + r];
            }
        }
    }
    if epi.quantize_f16 {
        quantize_tile(a.backend, t);
    }
    // One division per tile: the panel's first row fixes (block, offset)
    // and the rows below it only ever step forward.
    let blk0 = p * mr / blocks.m_per_ref;
    let off0 = p * mr - blk0 * blocks.m_per_ref;
    for cc in 0..cols {
        let col_states = &mut state[(jr * nr + cc) * blocks.batch..][..blocks.batch];
        let (mut blk, mut off) = (blk0, off0);
        for &v in &t[cc * mr..cc * mr + rows] {
            col_states[blk].observe(off as u32, v);
            off += 1;
            if off == blocks.m_per_ref {
                (blk, off) = (blk + 1, 0);
            }
        }
    }
}

/// In-place f16 round-trip of a spilled tile on the pack's backend.
#[inline]
fn quantize_tile(be: Backend, t: &mut [f32]) {
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_assert!(be.has_f16c());
            // SAFETY: `PackedA::pack` downgrades unavailable backends, so a
            // SIMD pack only exists where AVX2 + F16C were detected — no
            // per-tile re-probe (the line above checks it in debug builds).
            unsafe { crate::simd::x86::quantize_in_place(t) }
        }
        _ => {
            for v in t {
                *v = F16::from_f32(*v).to_f32();
            }
        }
    }
}

/// Fused GEMM + per-block top-2: `top2[blk · n + j]` holds the two smallest
/// values of `alpha · AᵀB` (after the epilogue) within reference block
/// `blk` of column `j` — without ever materializing the `m × n` product.
///
/// `batch` reference blocks of `m_per_ref` columns each are scanned
/// separately (the batched-reference layout of §5.2); pass `batch = 1`,
/// `m_per_ref = a.cols()` for a plain per-column top-2.
///
/// Both operands arrive packed, so the call allocates only the output and
/// one N-chunk's selection state (`min(n, NC) · batch` entries, reset for
/// every chunk) — nothing proportional to `m · d` or `n · d`.
///
/// # Panics
/// Panics if depths differ, the operands were packed for different
/// backends, `a.cols() != batch · m_per_ref`, `m_per_ref < 2`, or a
/// provided `row_bias` is not length `a.cols()`.
pub fn gemm_top2_ex(
    alpha: f32,
    a: &PackedA,
    b: &PackedB,
    epi: &FusedEpilogue<'_>,
    batch: usize,
    m_per_ref: usize,
) -> Vec<Top2> {
    assert_eq!(a.depth(), b.depth(), "AᵀB requires equal row counts (d)");
    assert_eq!(a.backend, b.backend, "operands packed for different backends");
    assert!(m_per_ref >= 2, "top-2 needs at least two reference features");
    assert_eq!(a.cols(), batch * m_per_ref, "blocked top-2 shape mismatch");
    if let Some(bias) = epi.row_bias {
        assert_eq!(bias.len(), a.cols(), "row bias length must equal m");
    }
    let n = b.cols();
    if n == 0 {
        return Vec::new();
    }
    let blocks = Blocks { batch, m_per_ref };

    let mut out = vec![Top2::EMPTY; batch * n];
    // `state[local_j · batch + blk]`: the only per-column memory the fused
    // path keeps — the paper's two "registers" plus an index — for the one
    // chunk being scanned, then scattered into `out[blk · n + j]`.
    let mut state = vec![Top2::EMPTY; NC.min(n) * batch];
    for j0 in (0..n).step_by(NC) {
        let w = NC.min(n - j0);
        let state = &mut state[..w * batch];
        state.fill(Top2::EMPTY);
        top2_chunk(a, b.chunk(j0, w), w, alpha, epi, blocks, state);
        for (lj, col_states) in state.chunks_exact(batch).enumerate() {
            for (blk, &t) in col_states.iter().enumerate() {
                out[blk * n + j0 + lj] = t;
            }
        }
    }
    out
}

/// Scan one N-chunk (`w ≤ NC` columns, panels `bp`) into `state`.
fn top2_chunk(
    a: &PackedA,
    bp: &[f32],
    w: usize,
    alpha: f32,
    epi: &FusedEpilogue<'_>,
    blocks: Blocks,
    state: &mut [Top2],
) {
    #[cfg(target_arch = "x86_64")]
    if a.backend != Backend::Scalar {
        use crate::simd::x86::{fused_top2_chunk_16x24, fused_top2_chunk_8x8, FusedTile};
        let tile = FusedTile {
            alpha,
            epi,
            m_per_ref: blocks.m_per_ref,
            batch: blocks.batch,
            mc_panels: MC_ROWS / a.mr,
        };
        let spill = |p, jr, t: &mut [f32], state: &mut [Top2]| {
            epilogue_tile(a, w, (p, jr), t, alpha, epi, blocks, state)
        };
        let nr = a.backend.nr();
        debug_assert!(a.backend.is_available() && w <= NC);
        debug_assert_eq!(on_panels!(&a.panels, ap => ap.len()), a.panel_count() * a.d * a.mr);
        debug_assert!(bp.len() >= w.div_ceil(nr) * a.d * nr);
        debug_assert_eq!(state.len(), w * blocks.batch);
        debug_assert!(epi.row_bias.is_none_or(|bias| bias.len() == a.m));
        // SAFETY: `PackedA::pack` downgrades unavailable backends, so a SIMD
        // pack only exists where its target features were detected; the
        // panels hold `ceil(m / mr)` panels of `d · mr` elements and `bp`
        // `ceil(w / nr)` of `d · nr` floats (both zero past their last
        // column), `w ≤ NC`, and `gemm_top2_ex` checked the bias length and
        // sized `state` to `w · batch`.
        on_panels!(&a.panels, ap => unsafe {
            let a_panels = (&ap[..], a.m, a.d);
            match a.backend {
                Backend::Avx512 => fused_top2_chunk_16x24(&tile, a_panels, (bp, w), state, spill),
                Backend::Avx2 => fused_top2_chunk_8x8(&tile, a_panels, (bp, w), state, spill),
                Backend::Scalar => unreachable!("the scalar backend has no walker"),
            }
        });
        return;
    }
    let emit = |p, jr, t: &mut [f32]| epilogue_tile(a, w, (p, jr), t, alpha, epi, blocks, state);
    on_panels!(&a.panels, ap => for_each_tile(a, ap, bp, w, a.d, emit));
}

/// Register-only roofline probe for `be`: `rounds` rounds of ten
/// independent `c ← fma(x, r, c)` chains (enough to cover the FMA latency on
/// two ports), all operands in registers — the microkernel's one
/// instruction with nothing else in the way. Returns `(flops, checksum)`;
/// time the call and divide to get the backend's practical peak, the
/// denominator of `pct_of_peak` in `BENCH_kernels.json`.
///
/// The probe is as wide as the backend's tile has rows per vector: explicit
/// 16-lane AVX-512, 8-lane AVX2, and for the scalar backend 4 lanes, one
/// per row of its 4×4 tile — explicit `vfmadd` on `xmm` where the scalar
/// tile runs its `fma`-compiled twin, otherwise the portable `mul_add` loop, which is
/// whatever the tile itself gets (an instruction on aarch64, libm on x86-64
/// without FMA). An unavailable backend is probed as scalar.
pub fn mul_add_probe(be: Backend, rounds: u64) -> (u64, f32) {
    // Opaque operands: the chains must stay real arithmetic.
    let (x, r) = (std::hint::black_box(1.0f32), std::hint::black_box(0.5f32));
    let flops = rounds * PROBE_CHAINS as u64 * 2;
    #[cfg(target_arch = "x86_64")]
    {
        use crate::simd::x86::{fma_probe_avx2, fma_probe_avx512, fma_probe_xmm};
        if be == Backend::Avx512 && be.is_available() {
            // SAFETY: availability checked on the line above.
            return (flops * 16, unsafe { fma_probe_avx512(rounds, x, r) });
        }
        if be == Backend::Avx2 && be.is_available() {
            // SAFETY: availability checked on the line above.
            return (flops * 8, unsafe { fma_probe_avx2(rounds, x, r) });
        }
        if scalar_tile_has_fma() {
            // SAFETY: FMA probed on the line above.
            return (flops * 4, unsafe { fma_probe_xmm(rounds, x, r) });
        }
    }
    let _ = be;
    let mut c = [[0.0f32; 4]; PROBE_CHAINS];
    for _ in 0..rounds {
        for cl in c.iter_mut().flatten() {
            *cl = x.mul_add(r, *cl);
        }
    }
    (flops * 4, c.iter().flatten().sum())
}

/// Pack both operands for `be` and run [`gemm_packed`]: `C = alpha · AᵀB`.
/// Half-precision operands are widened once during packing and accumulated
/// in f32 (the `CUBLAS_COMPUTE_32F` HGEMM analogue; the output stays f32).
///
/// # Panics
/// Panics if the contraction depths differ.
pub fn gemm_at_b<T: Operand>(be: Backend, alpha: f32, a: &T, b: &T) -> Mat {
    gemm_packed(alpha, &PackedA::pack(be, a), &PackedB::pack(be, b))
}

/// Pack both operands for `be` and run [`gemm_top2_ex`] with no scale or
/// bias: `top2(alpha · AᵀB)` per column within each of `batch` reference
/// blocks of `m_per_ref` columns (`out[blk · n + j]`; `batch = 1`,
/// `m_per_ref = a.cols()` is the plain per-column scan). Half-precision
/// operands compare every value after an f16 round trip, exactly like
/// scanning a 16-bit HGEMM output.
///
/// # Panics
/// Panics on shape mismatch or `m_per_ref < 2`.
pub fn gemm_top2<T: Operand>(
    be: Backend,
    alpha: f32,
    a: &T,
    b: &T,
    batch: usize,
    m_per_ref: usize,
) -> Vec<Top2> {
    let epi = FusedEpilogue { quantize_f16: T::Elem::HALF, ..FusedEpilogue::default() };
    gemm_top2_ex(alpha, &PackedA::pack(be, a), &PackedB::pack(be, b), &epi, batch, m_per_ref)
}

/// [`gemm_top2`] on half-precision operands (the name `benchmarks/` times).
///
/// # Panics
/// Panics on shape mismatch or `m_per_ref < 2`.
pub fn gemm_top2_blocked_f16_on(
    be: Backend,
    alpha: f32,
    a: &MatF16,
    b: &MatF16,
    batch: usize,
    m_per_ref: usize,
) -> Vec<Top2> {
    gemm_top2(be, alpha, a, b, batch, m_per_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_at_b_naive;
    use crate::dispatch::active_backend;
    use crate::top2::top2_min_per_column;

    fn mat_rand(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0 - 0.5
        })
    }

    #[test]
    fn blocked_matches_naive_exactly_on_aligned_shape() {
        // MR/NR-aligned shape: same ascending-k summation order as naive.
        let a = mat_rand(16, 8, 1);
        let b = mat_rand(16, 12, 2);
        let fast = gemm_at_b(active_backend(), -2.0, &a, &b);
        let slow = gemm_at_b_naive(-2.0, &a, &b);
        assert_eq!(fast, slow, "blocked kernel must match naive bit-for-bit");
    }

    #[test]
    fn blocked_handles_ragged_edges() {
        // m, n not multiples of the tile; d not a multiple of anything.
        for (d, m, n) in [(1, 1, 1), (5, 3, 7), (127, 9, 5), (3, 130, 66)] {
            let a = mat_rand(d, m, d as u64);
            let b = mat_rand(d, n, n as u64 + 7);
            let fast = gemm_at_b(active_backend(), 1.0, &a, &b);
            let slow = gemm_at_b_naive(1.0, &a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-5, "d={d} m={m} n={n}");
        }
    }

    #[test]
    fn blocked_empty_operands() {
        let c = gemm_at_b(active_backend(), 1.0, &Mat::zeros(4, 0), &Mat::zeros(4, 3));
        assert_eq!((c.rows(), c.cols()), (0, 3));
        let c = gemm_at_b(active_backend(), 1.0, &Mat::zeros(4, 3), &Mat::zeros(4, 0));
        assert_eq!((c.rows(), c.cols()), (3, 0));
        let c = gemm_at_b(active_backend(), 1.0, &Mat::zeros(0, 2), &Mat::zeros(0, 2));
        assert_eq!(c, Mat::zeros(2, 2));
    }

    #[test]
    fn f16_blocked_matches_widened_f32_gemm() {
        let a = mat_rand(24, 10, 3);
        let b = mat_rand(24, 6, 4);
        let (a16, b16) = (a.to_f16_scaled(1.0), b.to_f16_scaled(1.0));
        // Widening once up front must equal a full-precision GEMM over the
        // widened values.
        let widened_a = a16.to_f32_unscaled(1.0);
        let widened_b = b16.to_f32_unscaled(1.0);
        let via_f16 = gemm_at_b(active_backend(), -2.0, &a16, &b16);
        let via_f32 = gemm_at_b(active_backend(), -2.0, &widened_a, &widened_b);
        assert_eq!(via_f16, via_f32);
    }

    #[test]
    fn fused_equals_materialize_then_scan() {
        let a = mat_rand(32, 37, 5);
        let b = mat_rand(32, 21, 6);
        let fused = gemm_top2(active_backend(), -2.0, &a, &b, 1, a.cols());
        let c = gemm_at_b(active_backend(), -2.0, &a, &b);
        let unfused = top2_min_per_column(&c, 1, c.rows());
        assert_eq!(fused, unfused, "fused top-2 must be bit-identical");
    }

    #[test]
    fn fused_f16_equals_narrow_then_scan() {
        let a = mat_rand(16, 11, 7).to_f16_scaled(0.25);
        let b = mat_rand(16, 9, 8).to_f16_scaled(0.25);
        let fused = gemm_top2(active_backend(), -2.0, &a, &b, 1, a.cols());
        let c = gemm_at_b(active_backend(), -2.0, &a, &b);
        let narrowed = MatF16::from_col_major(
            c.rows(),
            c.cols(),
            c.as_slice().iter().map(|&v| F16::from_f32(v)).collect(),
        );
        let unfused = top2_min_per_column(&narrowed, 1, narrowed.rows());
        assert_eq!(fused, unfused);
    }

    #[test]
    fn fused_blocked_equals_blocked_scan() {
        let a = mat_rand(8, 15, 9); // 3 blocks of 5 — tiles straddle blocks
        let b = mat_rand(8, 6, 10);
        let fused = gemm_top2(active_backend(), -2.0, &a, &b, 3, 5);
        let c = gemm_at_b(active_backend(), -2.0, &a, &b);
        let unfused = top2_min_per_column(&c, 3, 5);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn fused_row_bias_equals_add_row_norms_then_scan() {
        let a = mat_rand(12, 10, 11);
        let b = mat_rand(12, 4, 12);
        let bias: Vec<f32> = (0..10).map(|i| i as f32 * 0.3).collect();
        let fused = gemm_top2_ex(
            -2.0,
            &PackedA::pack(active_backend(), &a),
            &PackedB::pack(active_backend(), &b),
            &FusedEpilogue { row_bias: Some(&bias), ..FusedEpilogue::default() },
            1,
            10,
        );
        let mut c = gemm_at_b(active_backend(), -2.0, &a, &b);
        crate::norms::add_row_norms(&mut c, &bias);
        assert_eq!(fused, top2_min_per_column(&c, 1, c.rows()));
    }

    #[test]
    fn fused_tie_keeps_first_index() {
        // Identical reference columns: the scan must report the first.
        let a = Mat::from_col_major(2, 3, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        let b = Mat::from_col_major(2, 1, vec![0.5, 0.5]);
        let t = gemm_top2(active_backend(), 1.0, &a, &b, 1, a.cols());
        assert_eq!(t[0].idx, 0);
        assert_eq!(t[0].d1, t[0].d2);
    }

    #[test]
    fn fused_empty_query() {
        let a = mat_rand(4, 6, 13);
        let b = Mat::zeros(4, 0);
        assert!(gemm_top2(active_backend(), 1.0, &a, &b, 1, a.cols()).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn fused_rejects_single_reference() {
        let a = Mat::zeros(4, 1);
        let b = Mat::zeros(4, 2);
        let _ = gemm_top2(active_backend(), 1.0, &a, &b, 1, a.cols());
    }

    #[test]
    fn all_backends_bit_identical_to_scalar() {
        // The summation-order contract: every available backend must
        // reproduce the scalar kernel bit for bit — plain GEMM, f16
        // operands, and the fully-loaded fused epilogue (scale + bias +
        // quantize), on a shape ragged against every tile geometry.
        let a = mat_rand(37, 53, 21);
        let b = mat_rand(37, 29, 22);
        let a16 = a.to_f16_scaled(0.25);
        let b16 = b.to_f16_scaled(0.25);
        let bias: Vec<f32> = (0..53).map(|i| i as f32 * 0.17 - 3.0).collect();
        let epi = FusedEpilogue { scale: 16.0, row_bias: Some(&bias), quantize_f16: true };
        let c_ref = gemm_at_b(Backend::Scalar, -2.0, &a, &b);
        let c16_ref = gemm_at_b(Backend::Scalar, -2.0, &a16, &b16);
        let fused_ref = gemm_top2_ex(
            -2.0,
            &PackedA::pack(Backend::Scalar, &a16),
            &PackedB::pack(Backend::Scalar, &b16),
            &epi,
            1,
            53,
        );
        for be in crate::dispatch::available_backends() {
            assert_eq!(gemm_at_b(be, -2.0, &a, &b), c_ref, "{be}: f32 gemm");
            assert_eq!(
                gemm_at_b(be, -2.0, &a16, &b16),
                c16_ref,
                "{be}: f16 gemm"
            );
            let fused = gemm_top2_ex(
                -2.0,
                &PackedA::pack(be, &a16),
                &PackedB::pack(be, &b16),
                &epi,
                1,
                53,
            );
            assert_eq!(fused, fused_ref, "{be}: fused epilogue");
        }
    }

    /// CRC32C over a result's bit patterns, little-endian.
    fn crc_of(words: impl Iterator<Item = u32>) -> u32 {
        texid_store::crc32c(&words.flat_map(u32::to_le_bytes).collect::<Vec<u8>>())
    }

    #[test]
    fn results_match_the_committed_golden_crc() {
        // The contract as a value: the cross-backend tests compare two
        // routes on one host, so a drift common to all of them (a libm
        // `fmaf` that is not correctly rounded, a mis-transcribed intrinsic,
        // a compiler that starts contracting or splitting) would pass. These
        // constants were computed once and are the same on x86-64 and
        // aarch64: inputs are built from integer draws with exactly-rounded
        // f32 operations only, and every route takes one fused step per `k`.
        const GEMM_CRC: u32 = 0xc3ea_5d51;
        const TOP2_CRC: u32 = 0x3618_cdb1;
        // Ragged against every tile geometry; three blocks of 13 rows, so
        // SIMD panels straddle block boundaries.
        let (mut a, mut b) = (mat_rand(37, 39, 31), mat_rand(37, 29, 32));
        let (a16, b16) = (a.to_f16_scaled(0.0078125), b.to_f16_scaled(0.0078125));
        // A sixth of the f32 outputs sum products near 2⁻¹³⁷: subnormal, so
        // a separate multiply would have rounded each one before the add.
        for (mat, log2) in [(&mut a, 75u32), (&mut b, 60)] {
            for c in (1..mat.cols()).step_by(3) {
                mat.col_mut(c).iter_mut().for_each(|v| *v *= f32::from_bits((127 - log2) << 23));
            }
        }
        let bias: Vec<f32> = (0..39).map(|i| i as f32 * 0.17 - 3.0).collect();
        let epi = FusedEpilogue { scale: 16384.0, row_bias: Some(&bias), quantize_f16: true };
        let mut routes: Vec<_> =
            crate::dispatch::available_backends().into_iter().map(|be| (be, false)).collect();
        // The scalar tile through libm's `fmaf` (x86-64; elsewhere the
        // scalar route again).
        routes.push((Backend::Scalar, true));
        for (be, libm) in routes {
            let route = |mut pa: PackedA| {
                pa.fma_tile &= !libm;
                pa
            };
            let c = gemm_packed(
                -2.0,
                &route(PackedA::pack(be, &a)),
                &PackedB::pack(be, &b),
            );
            assert_eq!(
                crc_of(c.as_slice().iter().map(|v| v.to_bits())),
                GEMM_CRC,
                "{be} (libm: {libm}): ragged f32 gemm"
            );
            let top2 = gemm_top2_ex(
                -2.0,
                &route(PackedA::pack(be, &a16)),
                &PackedB::pack(be, &b16),
                &epi,
                3,
                13,
            );
            assert_eq!(
                crc_of(top2.iter().flat_map(|t| [t.idx, t.d1.to_bits(), t.d2.to_bits()])),
                TOP2_CRC,
                "{be} (libm: {libm}): fused f16 top-2"
            );
        }
    }

    #[test]
    fn unavailable_backend_degrades_to_scalar() {
        for be in Backend::ALL {
            if !be.is_available() {
                let p = PackedA::pack(be, &mat_rand(4, 5, 1));
                assert_eq!(p.backend(), Backend::Scalar);
            }
        }
    }

    #[test]
    fn an_f16_source_keeps_two_bytes_per_element_where_the_tile_widens() {
        // 384 columns: whole panels on every backend, so no padding.
        let a = mat_rand(128, 384, 3);
        for be in crate::dispatch::available_backends() {
            let half = if be.f16_panels() { 2 } else { 4 };
            let pa = PackedA::pack(be, &a.to_f16_scaled(0.25));
            assert_eq!(pa.panel_bytes(), 128 * 384 * half, "{be}: f16 source");
            assert_eq!(PackedA::pack(be, &a).panel_bytes(), 128 * 384 * 4, "{be}: f32 source");
        }
    }

    #[test]
    fn an_f16_pack_refuses_f32_columns() {
        // Narrowing is not packing: f32 columns cannot join f16 panels.
        for be in crate::dispatch::available_backends().into_iter().filter(|be| be.f16_panels()) {
            let mut pa = PackedA::pack(be, &mat_rand(8, 16, 1).to_f16_scaled(0.25));
            let wide = mat_rand(8, 16, 2);
            let appended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pa.append_cols(&wide);
            }));
            assert!(appended.is_err(), "{be}");
        }
    }

    #[test]
    fn pack_records_active_backend() {
        let p = PackedA::pack(active_backend(), &mat_rand(8, 8, 2));
        assert_eq!(p.backend(), active_backend());
    }

    #[test]
    fn swap_removed_pack_equals_a_pack_of_the_swap_removed_matrix() {
        for be in Backend::ALL {
            let mr = PackedA::pack(be, &Mat::zeros(1, 1)).mr;
            // `Mat::swap_remove_cols` is the oracle: the edited pack must be
            // the pack of the edited matrix, padding included.
            let check = |pa: &mut PackedA, a: &mut Mat, start: usize, count: usize| {
                pa.swap_remove_cols(start, count);
                a.swap_remove_cols(start, count);
                let fresh = PackedA::pack(be, a);
                assert_eq!(
                    (pa.cols(), &pa.panels),
                    (fresh.cols(), &fresh.panels),
                    "{be:?}: {count} at {start}"
                );
            };
            // Five blocks of two panels each; drop a middle one, then the last.
            let (d, width) = (5, 2 * mr);
            let mut a = mat_rand(d, 5 * width, 21);
            let mut pa = PackedA::pack(be, &a);
            for start in [width, 3 * width] {
                check(&mut pa, &mut a, start, width);
            }
            // A hole, then a width, off the panel grid; then the last three of
            // the 4·mr − 1 columns left, which only truncates and re-zeroes.
            for (start, count) in [(1, mr), (0, mr + 1), (4 * mr - 4, 3)] {
                check(&mut pa, &mut a, start, count);
            }
            // A column count off the grid under an aligned hole.
            let mut a = mat_rand(d, 2 * mr + 1, 22);
            check(&mut PackedA::pack(be, &a), &mut a, 0, mr);

            // Columns read back out of the panels are the source's, widened.
            let src = mat_rand(d, 2 * mr + 3, 23);
            let src16 = src.to_f16_scaled(0.25);
            assert_eq!(PackedA::pack(be, &src).read_cols(0, src.cols()), src, "{be:?}");
            assert_eq!(
                PackedA::pack(be, &src16).read_cols(0, src.cols()),
                src16.to_f32_unscaled(1.0),
                "{be:?}"
            );
            let mid = PackedA::pack(be, &src).read_cols(mr - 1, mr + 2);
            assert_eq!(mid.as_slice(), &src.as_slice()[(mr - 1) * d..(2 * mr + 1) * d], "{be:?}");
        }
    }

    /// A pack built by `append_cols` one block at a time, and a pack with one
    /// block overwritten by `write_cols`, against `PackedA::pack` of the
    /// matrix they stand for: by bytes, padding included, then `read_cols`
    /// back out.
    fn check_append_and_overwrite<T: Operand>(
        be: Backend,
        blocks: &[Mat],
        replacement: (usize, &Mat),
        narrow: impl Fn(&Mat) -> T,
    ) {
        let cat = |blocks: &[Mat]| narrow(&Mat::hconcat(&blocks.iter().collect::<Vec<_>>()));
        let (d, m) = (blocks[0].rows(), blocks[0].cols());
        let mut grown = PackedA::pack(be, &narrow(&Mat::zeros(d, 0)));
        for block in blocks {
            grown.append_cols(&narrow(block));
        }
        let fresh = PackedA::pack(be, &cat(blocks));
        assert_eq!((grown.cols(), &grown.panels), (fresh.cols(), &fresh.panels), "{be:?}: append");

        let (i, new) = replacement;
        grown.write_cols(i * m, &narrow(new));
        let mut replaced = blocks.to_vec();
        replaced[i] = new.clone();
        let fresh = PackedA::pack(be, &cat(&replaced));
        assert_eq!(
            (grown.cols(), &grown.panels),
            (fresh.cols(), &fresh.panels),
            "{be:?}: overwrite"
        );
        assert_eq!(grown.read_cols(i * m, m), fresh.read_cols(i * m, m), "{be:?}: read back");
    }

    proptest::proptest! {
        /// `m_per_ref` from 1 to 19 is on and off every panel grid (4, 8
        /// and 16); up to five blocks leave the last panel ragged or full.
        #[test]
        fn appended_and_overwritten_packs_equal_a_pack_of_the_matrix(
            d in 1usize..9,
            m_per_ref in 1usize..20,
            nblocks in 1usize..6,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let blocks: Vec<Mat> =
                (0..nblocks as u64).map(|i| mat_rand(d, m_per_ref, seed ^ i)).collect();
            let new = mat_rand(d, m_per_ref, !seed);
            let replacement = (seed as usize % nblocks, &new);
            for be in Backend::ALL {
                check_append_and_overwrite(be, &blocks, replacement, Mat::clone);
                check_append_and_overwrite(be, &blocks, replacement, |a| a.to_f16_scaled(0.25));
            }
        }
    }

    #[test]
    fn packed_a_reuse_across_calls() {
        let a = mat_rand(8, 7, 14);
        let b1 = mat_rand(8, 3, 15);
        let b2 = mat_rand(8, 5, 16);
        let be = active_backend();
        let pa = PackedA::pack(be, &a);
        assert_eq!(gemm_packed(1.0, &pa, &PackedB::pack(be, &b1)), gemm_at_b(be, 1.0, &a, &b1));
        assert_eq!(gemm_packed(1.0, &pa, &PackedB::pack(be, &b2)), gemm_at_b(be, 1.0, &a, &b2));
    }
}
