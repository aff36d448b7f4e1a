//! CRC32C (Castagnoli), the checksum guarding every WAL record and
//! snapshot blob.
//!
//! The iSCSI polynomial `0x1EDC6F41` (reflected `0x82F63B78`) — the
//! function the SSE4.2 `crc32` instruction computes. Every stored value is
//! summed on `set`, again when its WAL record is framed, and again on
//! replay and on a healing read, so the pass over a ~100 KB stored message
//! is on the request path. On x86-64 with SSE4.2 it runs on the
//! instruction, eight bytes per step (≈ 6 GB/s); elsewhere on a software
//! slice-by-8 loop, eight table lookups per 8-byte word (≈ 1.1 GB/s),
//! which the tests also hold the instruction to. Both carry the same state
//! with the same initial and final inversion, so the checksum, and with it
//! the on-media format, is one function.

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight bytes be
/// folded in at once. Built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32C of `bytes` in one call.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC32C hasher for streaming writers.
#[derive(Clone, Debug)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Crc32c {
        Crc32c::new()
    }
}

impl Crc32c {
    /// Fresh hasher.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state =
            update_hw(self.state, bytes).unwrap_or_else(|| update_table(self.state, bytes));
    }

    /// Final checksum (the hasher may keep absorbing afterwards;
    /// `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Fold `bytes` into the raw (inverted) state `crc` on the `crc32`
/// instruction, or `None` where the CPU lacks it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn update_hw(crc: u32, bytes: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `update_sse42` needs only SSE4.2, which the check above found.
    Some(unsafe { update_sse42(crc, bytes) })
}

/// No `crc32` instruction off x86-64: the table loop runs.
#[cfg(not(target_arch = "x86_64"))]
fn update_hw(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// One dependent `crc32` per 8-byte word, then one per tail byte. A
/// single stream: at ≈ 6 GB/s it is no longer the write path's cost.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut wide = u64::from(crc);
    for w in &mut words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    // The instruction leaves the 32-bit state zero-extended.
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Fold `bytes` into the raw (inverted) state `crc`, slice-by-8: the path
/// on CPUs without the instruction, and the tests' oracle for it.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][(lo >> 8 & 0xff) as usize]
            ^ TABLES[5][(lo >> 16 & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][(hi >> 8 & 0xff) as usize]
            ^ TABLES[1][(hi >> 16 & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fold over the raw (inverted) state.
    type Fold = fn(u32, &[u8]) -> u32;

    /// The fold paths this CPU can run, by name: the table always, the
    /// instruction where it is detected.
    fn paths() -> Vec<(&'static str, Fold)> {
        let mut paths: Vec<(&'static str, Fold)> = vec![("table", update_table)];
        if update_hw(!0, &[]).is_some() {
            paths.push(("crc32", |crc, bytes| update_hw(crc, bytes).expect("detected")));
        }
        paths
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors, through the dispatch and through
        // each path alone.
        let ascending: Vec<u8> = (0..32).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        for (bytes, want) in vectors {
            assert_eq!(crc32c(bytes), want, "{bytes:?}");
            for (name, fold) in paths() {
                assert_eq!(!fold(!0, bytes), want, "{name} {bytes:?}");
            }
        }
    }

    /// The dispatch takes the instruction wherever the CPU has it.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn dispatch_takes_the_instruction_on_sse42() {
        let detected = std::arch::is_x86_feature_detected!("sse4.2");
        assert_eq!(update_hw(!0, b"123456789").is_some(), detected);
        if detected {
            assert_eq!(paths().len(), 2);
        }
    }

    /// The slice-by-one loop this module shipped first: the oracle the
    /// word-at-a-time paths must match bit for bit.
    fn crc32c_reference(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(!0u32, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize])
    }

    /// Every length 0–256 (all eight tails of the word loops, many words
    /// deep) and every two-way split, which starts the word loop at every
    /// alignment: each path, and the dispatching `update`, equal the oracle.
    #[test]
    fn matches_reference_at_every_length_and_split() {
        let data: Vec<u8> = (0..256u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=data.len() {
            let expect = crc32c_reference(&data[..len]);
            assert_eq!(crc32c(&data[..len]), expect, "len {len}");
            for split in 0..=len {
                let mut h = Crc32c::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), expect, "len {len} split {split}");
                for (name, fold) in paths() {
                    let got = !fold(fold(!0, &data[..split]), &data[split..len]);
                    assert_eq!(got, expect, "{name} len {len} split {split}");
                }
            }
        }
    }

    /// `len` pseudo-random bytes from `seed` (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #[test]
        fn matches_reference_on_random_bytes(
            data in prop::collection::vec(any::<u8>(), 0..600),
            split in 0usize..600,
        ) {
            let split = split.min(data.len());
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finish(), crc32c_reference(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Buffers up to 300 KB, a stored message's size and more: the
        /// instruction equals the table.
        #[test]
        fn instruction_matches_table_on_large_buffers(
            len in 0usize..300_000,
            seed in any::<u64>(),
            split in any::<usize>(),
        ) {
            let data = noise(len, seed);
            let split = split % (len + 1);
            let expect = update_table(update_table(!0, &data[..split]), &data[split..]);
            for (name, fold) in paths() {
                prop_assert_eq!(fold(fold(!0, &data[..split]), &data[split..]), expect, "{}", name);
            }
            prop_assert_eq!(crc32c(&data), !expect);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255).cycle().take(10_000).collect();
        for split in [0, 1, 9, 4096, data.len()] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_sum() {
        let base = vec![0x5au8; 64];
        let reference = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
