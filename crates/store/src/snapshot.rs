//! Checksummed snapshots: the compacted image of the store.
//!
//! A snapshot is the full key→value map serialized as one blob so the WAL
//! can be truncated behind it ([`crate::log`] owns that dance). The format
//! is self-verifying — a trailing CRC32C over everything before it — so
//! replay can tell a good snapshot from a truncated or bit-flipped one
//! instead of silently loading garbage:
//!
//! ```text
//! magic: b"TXSN" | version: u32 LE | count: u64 LE
//! entries: [key_len: varint | key | val_len: varint | val] * count
//! crc: u32 LE  (CRC32C of every preceding byte)
//! ```
//!
//! An empty blob means "no snapshot yet" and decodes to an empty map; any
//! other damage is a typed [`SnapshotError`], which replay reports and
//! survives by falling back to whatever the WAL still holds.
//!
//! [`Encoder`] builds a blob one entry at a time into a buffer sized once,
//! and tells where each value landed; [`walk`] verifies a blob and finds
//! every value in place. [`encode`] and [`decode`] are their copying
//! projections onto a map.

use crate::crc::crc32c;
use crate::wal::{get_varint, put_varint, varint_len, Found};
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"TXSN";
const VERSION: u32 = 1;

/// Why a snapshot blob could not be loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Blob ends before its own framing says it should.
    Truncated,
    /// Leading magic is not `TXSN` — not a snapshot at all.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Trailing CRC32C does not match the content.
    BadCrc,
    /// Framing is intact but an entry violates the grammar.
    BadEntry,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot has bad magic"),
            SnapshotError::BadVersion(v) => write!(f, "snapshot version {v} unsupported"),
            SnapshotError::BadCrc => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BadEntry => write!(f, "snapshot entry malformed"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Magic, version and `count`: the bytes before the first entry.
const HEADER_LEN: usize = 16;

/// A snapshot blob built entry by entry into one buffer.
pub struct Encoder {
    out: Vec<u8>,
    count: u64,
}

impl Encoder {
    /// An encoder whose buffer is sized once for entries of these
    /// `(key_len, value_len)`s, pushed in the same order.
    pub fn with_sizes(sizes: impl IntoIterator<Item = (usize, usize)>) -> Encoder {
        let len = |n: usize| varint_len(n as u64) + n;
        let body: usize = sizes.into_iter().map(|(key, val)| len(key) + len(val)).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + body + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // `count`, sealed by `finish`
        Encoder { out, count: 0 }
    }

    /// Append one entry; returns the offset its value starts at.
    pub fn push(&mut self, key: &str, value: &[u8]) -> u64 {
        put_varint(&mut self.out, key.len() as u64);
        self.out.extend_from_slice(key.as_bytes());
        put_varint(&mut self.out, value.len() as u64);
        let at = self.out.len() as u64;
        self.out.extend_from_slice(value);
        self.count += 1;
        at
    }

    /// Seal the blob: the entry count, then the trailing CRC32C.
    pub fn finish(mut self) -> Vec<u8> {
        self.out[8..HEADER_LEN].copy_from_slice(&self.count.to_le_bytes());
        let crc = crc32c(&self.out);
        self.out.extend_from_slice(&crc.to_le_bytes());
        self.out
    }
}

/// Serialize `entries` as a checksummed snapshot blob.
pub fn encode(entries: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut enc = Encoder::with_sizes(entries.iter().map(|(k, v)| (k.len(), v.len())));
    for (key, val) in entries {
        enc.push(key, val);
    }
    enc.finish()
}

/// Visit the `count` entries of a verified `body`; `BadEntry` at the first
/// one that breaks the grammar (the visitor has seen those before it).
fn entries<'a>(
    body: &'a [u8],
    count: u64,
    mut visit: impl FnMut(Found<'a>),
) -> Result<(), SnapshotError> {
    let mut pos = HEADER_LEN;
    for _ in 0..count {
        let key_len = get_varint(body, &mut pos).ok_or(SnapshotError::BadEntry)? as usize;
        let key_end = pos.checked_add(key_len).ok_or(SnapshotError::BadEntry)?;
        let key_bytes = body.get(pos..key_end).ok_or(SnapshotError::BadEntry)?;
        let key = std::str::from_utf8(key_bytes).map_err(|_| SnapshotError::BadEntry)?;
        pos = key_end;
        let val_len = get_varint(body, &mut pos).ok_or(SnapshotError::BadEntry)? as usize;
        let val_end = pos.checked_add(val_len).ok_or(SnapshotError::BadEntry)?;
        let val = body.get(pos..val_end).ok_or(SnapshotError::BadEntry)?;
        visit(Found { key, value: Some((pos, val)) });
        pos = val_end;
    }
    if pos != body.len() {
        return Err(SnapshotError::BadEntry);
    }
    Ok(())
}

/// Verify a snapshot blob, then hand `visit` every entry in order: its
/// key, and the offset and bytes of its value. The visitor sees nothing
/// unless the whole blob verifies, so it never has to undo a prefix. An
/// empty blob has no entries. Copies nothing.
///
/// # Errors
/// A typed [`SnapshotError`] describing the damage; never panics on
/// arbitrary input.
pub fn walk<'a>(bytes: &'a [u8], visit: impl FnMut(Found<'a>)) -> Result<(), SnapshotError> {
    if bytes.is_empty() {
        return Ok(());
    }
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SnapshotError::Truncated);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if &body[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if crc32c(body) != stored_crc {
        return Err(SnapshotError::BadCrc);
    }
    let count = u64::from_le_bytes(body[8..HEADER_LEN].try_into().unwrap());
    entries(body, count, |_| {})?;
    entries(body, count, visit)
}

/// Verify and load a snapshot blob. An empty blob is an empty map.
///
/// # Errors
/// A typed [`SnapshotError`] describing the damage; never panics on
/// arbitrary input.
pub fn decode(bytes: &[u8]) -> Result<BTreeMap<String, Vec<u8>>, SnapshotError> {
    let mut map = BTreeMap::new();
    walk(bytes, |found| {
        if let Some((_, val)) = found.value {
            map.insert(found.key.to_string(), val.to_vec());
        }
    })?;
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<String, Vec<u8>> {
        let mut m = BTreeMap::new();
        m.insert("feat:0001".to_string(), vec![1u8, 2, 3]);
        m.insert("feat:0002".to_string(), vec![0u8; 300]);
        m.insert("meta".to_string(), Vec::new());
        m
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
        assert_eq!(decode(&encode(&BTreeMap::new())).unwrap(), BTreeMap::new());
    }

    #[test]
    fn encoder_sizes_the_blob_once_and_places_each_value() {
        let m = sample();
        let blob = encode(&m);
        assert_eq!(blob.capacity(), blob.len());
        let mut seen = Vec::new();
        walk(&blob, |f| seen.push(f)).unwrap();
        assert_eq!(seen.len(), m.len());
        for (f, (key, val)) in seen.iter().zip(&m) {
            let (at, bytes) = f.value.unwrap();
            assert_eq!((f.key, bytes, &blob[at..at + val.len()]), (&key[..], &val[..], &val[..]));
        }
    }

    #[test]
    fn empty_blob_is_empty_map() {
        assert_eq!(decode(&[]).unwrap(), BTreeMap::new());
    }

    #[test]
    fn truncation_detected() {
        let blob = encode(&sample());
        for cut in [1, 5, 17, blob.len() - 1] {
            let err = decode(&blob[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadCrc),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flip_detected() {
        let blob = encode(&sample());
        for off in [0, 4, 9, 20, blob.len() - 1] {
            let mut bad = blob.clone();
            bad[off] ^= 0x01;
            assert!(decode(&bad).is_err(), "offset {off} accepted");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut blob = encode(&sample());
        blob[0] = b'X';
        assert_eq!(decode(&blob).unwrap_err(), SnapshotError::BadMagic);

        let mut v2 = encode(&BTreeMap::new());
        v2[4] = 2;
        // Re-seal the CRC so the version check is what fires.
        let body_len = v2.len() - 4;
        let crc = crate::crc::crc32c(&v2[..body_len]);
        v2[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&v2).unwrap_err(), SnapshotError::BadVersion(2));
    }
}
