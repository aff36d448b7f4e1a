//! WAL record codec and log scanning.
//!
//! Every `set`/`del` against the feature store becomes one record appended
//! to the log:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! payload = op: u8 (1 = set, 2 = del)
//!         | key_len: varint | key: key_len bytes (UTF-8)
//!         | value: remaining bytes          (set only)
//! ```
//!
//! `crc` is the CRC32C of the payload alone, so the scanner can verify a
//! record without trusting anything but its own header. [`scan`] walks a
//! log image and classifies damage instead of failing on it:
//!
//! * **Bit-flipped record** — header is plausible but the CRC (or the
//!   payload grammar) doesn't check out. The record is skipped and counted;
//!   because `len` framed the record, alignment is preserved and the scan
//!   continues at the next record.
//! * **Torn tail** — the blob ends mid-record: fewer than 8 header bytes
//!   remain, the stated length overruns the blob, or the length is larger
//!   than [`MAX_RECORD_LEN`] (a header sheared mid-write). The scan stops
//!   and the dangling bytes are counted, exactly what a crash between
//!   `write` and `fsync` leaves behind.
//!
//! Replay policy on top of these records lives in [`crate::log`].

use crate::crc::crc32c;

/// Record header: `len` + `crc`, both `u32` little-endian.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single record payload. Any header claiming more is a
/// sheared header, not a giant record — the scanner treats it as a torn
/// tail. 64 MiB comfortably covers the largest serialized feature matrix.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

const OP_SET: u8 = 1;
const OP_DEL: u8 = 2;

/// One logical mutation of the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Bind `key` to `value`.
    Set {
        /// Store key.
        key: String,
        /// Serialized value bytes.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Del {
        /// Store key.
        key: String,
    },
}

impl Record {
    /// The key this record mutates.
    pub fn key(&self) -> &str {
        match self {
            Record::Set { key, .. } | Record::Del { key } => key,
        }
    }
}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Append the framed encoding of `rec` (header + payload) to `out`,
/// growing it once by exactly the frame's length.
pub fn encode_into(rec: &Record, out: &mut Vec<u8>) {
    let (op, key, value): (u8, &str, &[u8]) = match rec {
        Record::Set { key, value } => (OP_SET, key, value),
        Record::Del { key } => (OP_DEL, key, &[]),
    };
    let len = 1 + varint_len(key.len() as u64) + key.len() + value.len();
    out.reserve_exact(HEADER_LEN + len);
    let start = out.len();
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the CRC, sealed below
    out.push(op);
    put_varint(out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(value);
    let crc = crc32c(&out[start + HEADER_LEN..]);
    out[start + 4..start + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// The framed encoding of `rec` as a fresh buffer.
pub fn encode(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(rec, &mut out);
    out
}

/// A record where an indexed walk found it in an image: its key, and for
/// a set the offset its value starts at and the value's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Found<'a> {
    /// Store key.
    pub key: &'a str,
    /// `Some((offset, value))` for a set, `None` for a del.
    pub value: Option<(usize, &'a [u8])>,
}

impl Found<'_> {
    /// The owned record this one encodes.
    pub fn to_record(&self) -> Record {
        let key = self.key.to_string();
        match self.value {
            Some((_, value)) => Record::Set { key, value: value.to_vec() },
            None => Record::Del { key },
        }
    }
}

/// Parse one payload, starting at offset `at` of its image, whose CRC
/// already checked out. `None` means the grammar is violated (bad op byte,
/// overlong key, trailing garbage on a del) — counted as corrupt by the
/// walk.
fn decode_payload(payload: &[u8], at: usize) -> Option<Found<'_>> {
    let op = *payload.first()?;
    let mut pos = 1;
    let key_len = get_varint(payload, &mut pos)? as usize;
    let key_end = pos.checked_add(key_len)?;
    let key = std::str::from_utf8(payload.get(pos..key_end)?).ok()?;
    match op {
        OP_SET => Some(Found { key, value: Some((at + key_end, &payload[key_end..])) }),
        OP_DEL if key_end == payload.len() => Some(Found { key, value: None }),
        _ => None,
    }
}

/// Outcome of scanning a log image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scan {
    /// Every record that framed and checksummed cleanly, in log order.
    pub records: Vec<Record>,
    /// Records whose frame was intact but whose CRC or grammar was not —
    /// bit rot. Skipped without losing alignment.
    pub corrupt_skipped: usize,
    /// Bytes dangling past the last complete record — a write sheared by a
    /// crash. Always zero on a cleanly closed log.
    pub torn_tail_bytes: usize,
    /// Total bytes examined (the whole image).
    pub scanned_bytes: usize,
}

/// Walk a log image, handing `visit` every complete record in log order
/// and classifying damage. The returned tallies' `records` stays empty:
/// the visitor saw them. Copies nothing and never panics on arbitrary
/// input.
pub fn walk<'a>(bytes: &'a [u8], mut visit: impl FnMut(Found<'a>)) -> Scan {
    let mut out = Scan { scanned_bytes: bytes.len(), ..Scan::default() };
    let mut pos = 0;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < HEADER_LEN {
            out.torn_tail_bytes = remaining;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN || (len as usize) > remaining - HEADER_LEN {
            // A length this blob cannot hold: the header itself was torn.
            out.torn_tail_bytes = remaining;
            break;
        }
        let at = pos + HEADER_LEN;
        let payload = &bytes[at..at + len as usize];
        pos = at + len as usize;
        if crc32c(payload) != crc {
            out.corrupt_skipped += 1;
            continue;
        }
        match decode_payload(payload, at) {
            Some(found) => visit(found),
            None => out.corrupt_skipped += 1,
        }
    }
    out
}

/// Walk a log image, recovering every complete record and classifying
/// damage. Never panics on arbitrary input.
pub fn scan(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let tally = walk(bytes, |found| records.push(found.to_record()));
    Scan { records, ..tally }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::Set { key: "a".into(), value: vec![1, 2, 3] },
            Record::Set { key: "feat:0042".into(), value: vec![0; 257] },
            Record::Del { key: "a".into() },
            Record::Set { key: String::new(), value: Vec::new() },
        ]
    }

    fn log_of(records: &[Record]) -> Vec<u8> {
        let mut log = Vec::new();
        for r in records {
            encode_into(r, &mut log);
        }
        log
    }

    #[test]
    fn clean_log_roundtrips() {
        let records = sample();
        let scan = scan(&log_of(&records));
        assert_eq!(scan.records, records);
        assert_eq!(scan.corrupt_skipped, 0);
        assert_eq!(scan.torn_tail_bytes, 0);
    }

    #[test]
    fn walk_finds_each_value_where_it_lies() {
        let records = sample();
        let log = log_of(&records);
        let mut found = Vec::new();
        walk(&log, |f| found.push(f));
        assert_eq!(found.iter().map(Found::to_record).collect::<Vec<_>>(), records);
        for (f, rec) in found.iter().zip(&records) {
            if let (Some((at, value)), Record::Set { value: want, .. }) = (f.value, rec) {
                assert_eq!(&log[at..at + want.len()], &want[..]);
                assert_eq!(value, &want[..]);
            }
        }
    }

    #[test]
    fn frames_are_sized_exactly() {
        for rec in sample() {
            let framed = encode(&rec);
            assert_eq!(framed.capacity(), framed.len());
        }
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn empty_log_is_clean() {
        assert_eq!(scan(&[]), Scan::default());
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let records = sample();
        let mut log = log_of(&records);
        let full = log.len();
        // Tear mid-payload of the final record.
        log.truncate(full - 1);
        let s = scan(&log);
        assert_eq!(s.records, records[..3]);
        assert_eq!(s.corrupt_skipped, 0);
        assert!(s.torn_tail_bytes > 0);
    }

    #[test]
    fn torn_header_recovers_prefix() {
        let records = sample();
        let first_len = encode(&records[0]).len();
        let mut log = log_of(&records[..2]);
        log.truncate(first_len + 3); // 3 header bytes of record 2
        let s = scan(&log);
        assert_eq!(s.records, records[..1]);
        assert_eq!(s.torn_tail_bytes, 3);
    }

    #[test]
    fn bit_flip_is_skipped_without_losing_alignment() {
        let records = sample();
        let mut log = log_of(&records);
        // Flip one payload bit inside the second record.
        let off = encode(&records[0]).len() + HEADER_LEN + 4;
        log[off] ^= 0x10;
        let s = scan(&log);
        assert_eq!(s.corrupt_skipped, 1);
        assert_eq!(s.torn_tail_bytes, 0);
        let mut expect = records.clone();
        expect.remove(1);
        assert_eq!(s.records, expect);
    }

    #[test]
    fn implausible_length_is_a_torn_tail() {
        let mut log = log_of(&sample()[..1]);
        let tail_at = log.len();
        log.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        log.extend_from_slice(&[0u8; 200]);
        let s = scan(&log);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.torn_tail_bytes, log.len() - tail_at);
    }

    #[test]
    fn grammar_violation_with_good_crc_counts_corrupt() {
        // Hand-build a payload with an unknown op byte but a valid CRC.
        let payload = [9u8, 0u8];
        let mut log = Vec::new();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&crc32c(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        encode_into(&Record::Del { key: "after".into() }, &mut log);
        let s = scan(&log);
        assert_eq!(s.corrupt_skipped, 1);
        assert_eq!(s.records, vec![Record::Del { key: "after".into() }]);
    }
}
