//! CRC32C (Castagnoli), the checksum guarding every WAL record and
//! snapshot blob.
//!
//! Software slice-by-8 over the iSCSI polynomial `0x1EDC6F41` (reflected
//! `0x82F63B78`) — the same function hardware `crc32` instructions
//! compute. Every stored value is summed on `set`, again when its WAL
//! record is framed, and again on replay and on a healing read, so the
//! pass over a ~200 KB feature matrix is on the request path: eight table
//! lookups per 8-byte word instead of one dependent lookup per byte. The
//! checksum itself is unchanged, and with it the on-media format.

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
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// Final checksum (the hasher may keep absorbing afterwards;
    /// `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    /// The slice-by-one loop this module shipped before: the oracle the
    /// word-at-a-time `update` must match bit for bit.
    fn crc32c_reference(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(!0u32, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize])
    }

    /// Every length 0–40 (all eight tails of the word loop, several words
    /// deep) and every two-way split of `update`, which starts the word
    /// loop at every alignment.
    #[test]
    fn matches_reference_at_every_length_and_split() {
        let data: Vec<u8> = (0..40u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=data.len() {
            let expect = crc32c_reference(&data[..len]);
            assert_eq!(crc32c(&data[..len]), expect, "len {len}");
            for split in 0..=len {
                let mut h = Crc32c::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), expect, "len {len} split {split}");
            }
        }
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
