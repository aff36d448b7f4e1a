//! Vector-width prefixes of the two byte passes every REST request makes
//! over its payload: base64 decode and the JSON string scan.
//!
//! A `/verify`, `/search` or enrollment carries its feature matrix as one
//! base64 string inside a JSON body (≈ 560 KB for a 768-feature query).
//! `texid_distrib::{b64, json}` own both passes and keep their scalar loops;
//! each calls its prefix here first and lets the scalar loop finish the
//! tail. The prefixes live in this crate because it is the one that holds
//! `unsafe` (the other serving crates are `forbid(unsafe_code)`; only
//! `texid-store` allows one call, its CRC32C dispatch), under the same
//! `// SAFETY:` lint as the GEMM tiles.
//!
//! Dispatch follows the kernel backend: [`Backend::Avx2`] and
//! [`Backend::Avx512`] both imply AVX2 and run the 32-byte step,
//! [`Backend::Scalar`] (and every target but x86-64) does nothing, so the
//! caller's loop is the whole pass. There is no scalar copy of either pass
//! here: the callers' loops and their `#[cfg(test)]` oracles are the
//! reference the vector steps are held to, byte for byte and error for
//! error.

use crate::dispatch::Backend;

/// How far [`b64_decode_prefix`] got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct B64Prefix {
    /// Input characters decoded, a multiple of 32, into the first
    /// `read / 4 * 3` bytes of the output.
    pub read: usize,
    /// Every character read is in the standard alphabet (`A–Z a–z 0–9 + /`;
    /// `=` is not).
    pub valid: bool,
}

/// Decode the longest prefix of `src` that whole 32-character steps cover
/// into the start of `dst`, 24 bytes per step (Muła and Lemire's AVX2
/// decoder, arXiv:1704.00605): a nibble-table validity check OR-ed over
/// every step and tested once, a `pshufb` roll from character to sextet,
/// `maddubs` / `madd` packing, and a `pshufb` + `permutevar8x32` compaction.
///
/// Each step stores 32 bytes for its 24, so the loop also stops while that
/// store still lands inside `dst`: a `dst` of exactly `src.len() / 4 * 3`
/// bytes is never written past, and its last 8 or more bytes are left for
/// the caller's loop. Bytes of `dst` past `read / 4 * 3` may hold garbage.
/// Padding is the caller's: `src` should be the quads before the last one.
pub fn b64_decode_prefix(be: Backend, src: &[u8], dst: &mut [u8]) -> B64Prefix {
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar && be.is_available() {
        // SAFETY: both SIMD backends need AVX2, and availability was just
        // checked (the cpuid probe is cached by std).
        return unsafe { x86::b64_decode(src, dst) };
    }
    let _ = (be, src, dst);
    B64Prefix { read: 0, valid: true }
}

/// Length of the prefix of `b` that the 32-byte scan proves plain inside
/// a JSON string: no `"`, no `\` and no control character (below `0x20`,
/// compared unsigned, so the bytes of a multi-byte UTF-8 character never
/// stop it). It is either the index of the first such byte, or where fewer
/// than 32 bytes remain; the caller scans on from there.
pub fn json_plain_prefix(be: Backend, b: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar && be.is_available() {
        // SAFETY: both SIMD backends need AVX2, and availability was just
        // checked.
        return unsafe { x86::json_plain(b) };
    }
    let _ = (be, b);
    0
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::B64Prefix;
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// One register of 32 characters to their sextets, and the
    /// validity flags: a lane of the second value is nonzero iff its
    /// character is outside the alphabet.
    ///
    /// A character's low nibble selects a bit set of the high nibbles it is
    /// valid under (`lut_lo`), its high nibble its own bit (`lut_hi`); the
    /// AND is zero exactly on the 64 characters. The sextet is the
    /// character plus an offset chosen by its high nibble (`lut_roll`),
    /// with `/` — the one character whose class differs from its high
    /// nibble's — moved to its own slot by the `cmpeq` beside it.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sextets(chars: __m256i) -> (__m256i, __m256i) {
        #[rustfmt::skip]
        let lut_lo = _mm256_setr_epi8(
            0x15, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11,
            0x11, 0x11, 0x13, 0x1a, 0x1b, 0x1b, 0x1b, 0x1a,
            0x15, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11,
            0x11, 0x11, 0x13, 0x1a, 0x1b, 0x1b, 0x1b, 0x1a,
        );
        #[rustfmt::skip]
        let lut_hi = _mm256_setr_epi8(
            0x10, 0x10, 0x01, 0x02, 0x04, 0x08, 0x04, 0x08,
            0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10,
            0x10, 0x10, 0x01, 0x02, 0x04, 0x08, 0x04, 0x08,
            0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10,
        );
        #[rustfmt::skip]
        let lut_roll = _mm256_setr_epi8(
            0, 16, 19, 4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 16, 19, 4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0,
        );
        let slash = _mm256_set1_epi8(0x2f);
        let nibble = _mm256_set1_epi8(0x0f);
        let hi_nibbles = _mm256_and_si256(_mm256_srli_epi32::<4>(chars), nibble);
        let lo_nibbles = _mm256_and_si256(chars, nibble);
        let bad = _mm256_and_si256(
            _mm256_shuffle_epi8(lut_lo, lo_nibbles),
            _mm256_shuffle_epi8(lut_hi, hi_nibbles),
        );
        let is_slash = _mm256_cmpeq_epi8(chars, slash);
        let roll = _mm256_shuffle_epi8(lut_roll, _mm256_add_epi8(is_slash, hi_nibbles));
        (_mm256_add_epi8(chars, roll), bad)
    }

    /// 32 sextets to 24 bytes in the low 24 of the register: `maddubs`
    /// joins pairs into 12-bit fields, `madd` pairs of those into 24-bit
    /// ones, a byte shuffle puts each lane's three bytes in order and a
    /// dword permute closes the gap between the two 128-bit halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pack(sextets: __m256i) -> __m256i {
        let pairs = _mm256_maddubs_epi16(sextets, _mm256_set1_epi32(0x0140_0140));
        let triples = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x0001_1000));
        #[rustfmt::skip]
        let order = _mm256_setr_epi8(
            2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12, -1, -1, -1, -1,
            2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12, -1, -1, -1, -1,
        );
        let bytes = _mm256_shuffle_epi8(triples, order);
        _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 1, 2, 4, 5, 6, -1, -1))
    }

    /// [`super::b64_decode_prefix`] on AVX2.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn b64_decode(src: &[u8], dst: &mut [u8]) -> B64Prefix {
        let (mut read, mut written) = (0, 0);
        let mut bad = _mm256_setzero_si256();
        while read + 32 <= src.len() && written + 32 <= dst.len() {
            debug_assert!(read + 32 <= src.len());
            // SAFETY: the loop condition keeps the 32 bytes read inside
            // `src`.
            let chars = unsafe { _mm256_loadu_si256(src.as_ptr().add(read).cast()) };
            let (values, flags) = sextets(chars);
            bad = _mm256_or_si256(bad, flags);
            debug_assert!(written + 32 <= dst.len());
            // SAFETY: the loop condition keeps the 32 bytes stored inside
            // `dst`.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(written).cast(), pack(values)) };
            read += 32;
            written += 24;
        }
        B64Prefix { read, valid: _mm256_testz_si256(bad, bad) == 1 }
    }

    /// [`super::json_plain_prefix`] on AVX2: per 32 bytes, `cmpeq` against
    /// `"` and `\`, and `min_epu8(v, 0x1f) == v` for the control
    /// characters; `movemask` and `trailing_zeros` find the first.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn json_plain(b: &[u8]) -> usize {
        let quote = _mm256_set1_epi8(b'"' as i8);
        let backslash = _mm256_set1_epi8(b'\\' as i8);
        let last_control = _mm256_set1_epi8(0x1f);
        let mut at = 0;
        while at + 32 <= b.len() {
            debug_assert!(at + 32 <= b.len());
            // SAFETY: the loop condition keeps the 32 bytes read inside `b`.
            let v = unsafe { _mm256_loadu_si256(b.as_ptr().add(at).cast()) };
            let stops = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi8(v, quote), _mm256_cmpeq_epi8(v, backslash)),
                _mm256_cmpeq_epi8(_mm256_min_epu8(v, last_control), v),
            );
            let mask = _mm256_movemask_epi8(stops) as u32;
            if mask != 0 {
                return at + mask.trailing_zeros() as usize;
            }
            at += 32;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::available_backends;

    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

    /// Every byte value at every lane of one step: the validity flag is
    /// the alphabet's membership, and each valid character lands on its
    /// sextet (read back through a block of `A`s, whose sextets are 0).
    #[test]
    fn every_byte_at_every_lane_classifies_as_the_alphabet_says() {
        for be in available_backends() {
            for lane in 0..32 {
                for c in 0..=255u8 {
                    let mut src = [b'A'; 32];
                    src[lane] = c;
                    let mut dst = [0u8; 32];
                    let got = b64_decode_prefix(be, &src, &mut dst);
                    if be == Backend::Scalar {
                        assert_eq!(got, B64Prefix { read: 0, valid: true });
                        continue;
                    }
                    let sextet = ALPHABET.iter().position(|&a| a == c);
                    assert_eq!(got, B64Prefix { read: 32, valid: sextet.is_some() });
                    if let Some(s) = sextet {
                        let bits = s << (6 * (3 - lane % 4));
                        let want = [(bits >> 16) as u8, (bits >> 8) as u8, bits as u8];
                        let at = lane / 4 * 3;
                        assert_eq!(dst[at..at + 3], want, "{be} lane {lane} char {c:#x}");
                    }
                }
            }
        }
    }

    /// The exact-size stop: the step never stores past `dst`, however
    /// little room is left.
    #[test]
    fn steps_stop_while_the_store_fits() {
        let src = [b'Q'; 256];
        for be in available_backends() {
            for room in 0..=200 {
                let mut dst = vec![0u8; room + 16];
                let got = b64_decode_prefix(be, &src, &mut dst[..room]);
                assert!(dst[room..].iter().all(|&b| b == 0), "{be} room {room}");
                if be != Backend::Scalar {
                    let steps = (room.saturating_sub(8) / 24).min(src.len() / 32);
                    assert_eq!(got.read, 32 * steps, "{be} room {room}");
                }
            }
        }
    }

    #[test]
    fn plain_prefix_stops_at_the_first_stop_byte_or_the_last_whole_step() {
        for be in available_backends() {
            let simd = be != Backend::Scalar;
            let mut b = vec![b'a'; 100];
            assert_eq!(json_plain_prefix(be, &b), if simd { 96 } else { 0 });
            for (at, stop) in [(0, b'"'), (31, b'\\'), (32, b'\n'), (70, 0x1f), (95, 0)] {
                b[at] = stop;
                assert_eq!(json_plain_prefix(be, &b), if simd { at } else { 0 });
                b[at] = 0x80 | stop;
                assert_eq!(json_plain_prefix(be, &b), if simd { 96 } else { 0 }, "{be}");
                b[at] = b'a';
            }
        }
    }
}
