//! Software IEEE 754 binary16 ("half precision", the paper's FP16).
//!
//! The paper stores feature matrices in FP16 to halve memory and enable
//! HGEMM/tensor cores, applying a scale factor before conversion to avoid
//! overflow (§4.2, Table 2). Reproducing that study requires bit-accurate
//! conversion semantics: round-to-nearest-even, gradual underflow to
//! subnormals, and saturation to ±∞ on overflow — all implemented here.

/// An IEEE 754 binary16 value stored as its raw bit pattern.
///
/// ```
/// use texid_linalg::F16;
///
/// assert_eq!(F16::from_f32(1.0).to_bits(), 0x3c00);
/// assert_eq!(F16::from_f32(0.1).to_f32(), 0.099975586); // quantized
/// assert!(F16::from_f32(100_000.0).is_infinite());      // overflow saturates
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon (2⁻¹⁰).
    pub const EPSILON: F16 = F16(0x1400);

    /// Construct from raw bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even.
    ///
    /// Values above the f16 range become ±∞ (this is what cuBLAS HGEMM input
    /// conversion does, and what the paper's scale factor exists to avoid);
    /// tiny values underflow gradually through subnormals to ±0.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let man = bits & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN. Preserve NaN-ness with a quiet payload.
            return if man == 0 {
                F16(sign | 0x7c00)
            } else {
                F16(sign | 0x7e00)
            };
        }

        // Re-bias the exponent: f32 bias 127 -> f16 bias 15.
        let e = exp - 127 + 15;

        if e >= 31 {
            // Overflow to infinity.
            return F16(sign | 0x7c00);
        }

        if e <= 0 {
            // Subnormal result (or zero). The implicit leading 1 becomes
            // explicit, then everything shifts right of the 10-bit field.
            if e < -10 {
                // Too small even for the largest subnormal: rounds to zero.
                return F16(sign);
            }
            let man = man | 0x0080_0000; // make the implicit bit explicit
            let shift = (14 - e) as u32; // 14..=24
            let half = man >> shift;
            let rem = man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let round_up = rem > halfway || (rem == halfway && (half & 1) == 1);
            // A carry out of the subnormal mantissa lands exactly on the
            // smallest normal (0x0400), which is the correct result.
            return F16(sign | (half + round_up as u32) as u16);
        }

        // Normal result: keep the top 10 mantissa bits, round on the 13 lost.
        let half = ((e as u32) << 10) | (man >> 13);
        let rem = man & 0x1fff;
        let round_up = rem > 0x1000 || (rem == 0x1000 && (half & 1) == 1);
        // A mantissa carry propagates into the exponent; carrying past the
        // largest finite value produces infinity, as required.
        F16(sign | (half + round_up as u32) as u16)
    }

    /// Widen to `f32` (exact: every f16 value is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = (self.0 as u32 & 0x8000) << 16;
        let exp = (self.0 >> 10) & 0x1f;
        let man = (self.0 & 0x03ff) as u32;

        if exp == 0 {
            if man == 0 {
                return f32::from_bits(sign);
            }
            // Subnormal: man × 2⁻²⁴.
            let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
            return if sign != 0 { -v } else { v };
        }
        if exp == 0x1f {
            return if man == 0 {
                f32::from_bits(sign | 0x7f80_0000)
            } else {
                f32::from_bits(sign | 0x7fc0_0000 | (man << 13))
            };
        }
        f32::from_bits(sign | ((exp as u32 + 112) << 23) | (man << 13))
    }

    /// True for ±∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// True for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// True for anything that is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl core::fmt::Display for F16 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

use crate::dispatch::{active_backend, Backend};

/// Widen a slice of halves to f32 with the process-wide backend
/// ([`active_backend`]) — `dst[i] = src[i].to_f32()`, bit-identical on
/// every backend.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn widen_slice(src: &[F16], dst: &mut [f32]) {
    widen_slice_on(active_backend(), src, dst)
}

/// [`widen_slice`] with an explicit backend (tests, benches, forced
/// configs). An unavailable backend falls back to the scalar path.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn widen_slice_on(be: Backend, src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if be.has_f16c() {
        // SAFETY: availability re-checked; the cpuid probe is cached by std.
        unsafe { crate::simd::x86::widen_slice(src, dst) };
        return;
    }
    let _ = be;
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// Widen with a post-scale: `dst[i] = src[i].to_f32() * scale` (the
/// [`crate::mat::MatF16::to_f32_unscaled`] inner loop).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn widen_slice_scaled_on(be: Backend, src: &[F16], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_slice_scaled length mismatch");
    #[cfg(target_arch = "x86_64")]
    if be.has_f16c() {
        // SAFETY: availability re-checked; the cpuid probe is cached by std.
        unsafe { crate::simd::x86::widen_slice_scaled(src, scale, dst) };
        return;
    }
    let _ = be;
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32() * scale;
    }
}

/// Narrow a slice of f32 to f16 with the process-wide backend —
/// `dst[i] = F16::from_f32(src[i])`, bit-identical on every backend
/// (SIMD paths canonicalize NaN lanes to the scalar `sign | 0x7e00`).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn narrow_slice(src: &[f32], dst: &mut [F16]) {
    narrow_slice_scaled_on(active_backend(), src, 1.0, dst)
}

/// Narrow with a pre-scale: `dst[i] = F16::from_f32(src[i] * scale)` (the
/// [`crate::mat::Mat::to_f16_scaled`] inner loop). An unavailable backend
/// falls back to the scalar path.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn narrow_slice_scaled_on(be: Backend, src: &[f32], scale: f32, dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if be.has_f16c() {
        // SAFETY: availability re-checked; the cpuid probe is cached by std.
        unsafe { crate::simd::x86::narrow_slice_scaled(src, scale, dst) };
        return;
    }
    let _ = be;
    for (d, s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(s * scale);
    }
}

/// In-place f16 round-trip — `v = F16::from_f32(v).to_f32()` — the fused
/// top-2 epilogue's quantize pass, on an explicit backend. Bit-identical
/// on every backend (NaNs canonicalize to `sign | 0x7fc0_0000`).
pub fn quantize_in_place_on(be: Backend, vals: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if be.has_f16c() {
        // SAFETY: availability re-checked; the cpuid probe is cached by std.
        unsafe { crate::simd::x86::quantize_in_place(vals) };
        return;
    }
    let _ = be;
    for v in vals {
        *v = F16::from_f32(*v).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(x: f32) -> f32 {
        F16::from_f32(x).to_f32()
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3c00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xc000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7bff);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite()); // rounds past MAX
        assert!(F16::from_f32(1.0e9).is_infinite());
        assert!(F16::from_f32(-1.0e9).is_infinite());
        assert_eq!(F16::from_f32(-1.0e9).to_bits(), 0xfc00);
    }

    #[test]
    fn just_below_overflow_stays_finite() {
        // 65519.996... rounds down to 65504.
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7bff);
    }

    #[test]
    fn subnormals_roundtrip() {
        let smallest = 2.0_f32.powi(-24);
        assert_eq!(rt(smallest), smallest);
        assert_eq!(F16::from_f32(smallest).to_bits(), 0x0001);
        let largest_sub = 1023.0 * 2.0_f32.powi(-24);
        assert_eq!(rt(largest_sub), largest_sub);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(2.0_f32.powi(-26)).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-2.0_f32.powi(-26)).to_bits(), 0x8000);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even (1.0).
        assert_eq!(rt(1.0 + 2.0_f32.powi(-11)), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even (1+2^-9).
        assert_eq!(rt(1.0 + 3.0 * 2.0_f32.powi(-11)), 1.0 + 2.0_f32.powi(-9));
        // Just above halfway rounds up.
        assert!(rt(1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-20)) > 1.0);
    }

    #[test]
    fn subnormal_rounding_carries_into_normal() {
        // Largest subnormal plus half an ulp (rounding up) = smallest normal.
        let just_under_normal = (1023.6) * 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(just_under_normal).to_bits(), 0x0400);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(f32::NAN).is_infinite());
    }

    #[test]
    fn infinity_propagates() {
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
    }

    #[test]
    fn exhaustive_roundtrip_f16_to_f32_to_f16() {
        // Every non-NaN f16 bit pattern must survive widening + narrowing.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits={bits:#06x}");
        }
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-3.0f32, -0.5, 0.0, 0.25, 1.0, 100.0];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(F16::from_f32(a).to_f32() < F16::from_f32(b).to_f32(), a < b);
            }
        }
    }

    #[test]
    fn quantize_roundtrip_scale() {
        // RootSIFT values are in [0,1]; a 2^-7 scale keeps them well within range.
        let vals = vec![0.0, 0.1, 0.5, 0.999];
        let scale = 2.0_f32.powi(-7);
        for a in vals {
            // scale → f16 → widen → unscale, as features go into an HGEMM.
            let b = F16::from_f32(a * scale).to_f32() / scale;
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn epsilon_is_2_pow_neg_10() {
        assert_eq!(F16::EPSILON.to_f32(), 2.0_f32.powi(-10));
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0_f32.powi(-14));
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }
}
