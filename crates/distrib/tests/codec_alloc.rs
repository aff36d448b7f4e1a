//! Allocation bounds of the edge codecs: what a request payload makes
//! `b64::decode`, `b64::encode` and `json::parse` allocate is bounded by
//! its length — one exactly-sized buffer each, on valid and on rejected
//! input alike, never a doubling `Vec`.
//!
//! And hostile bytes: `wire::decode_features` and `wal::scan` parse bytes
//! this process did not write (a request body, media after a crash). A
//! valid encoding with one structural lie — a length prefix that claims
//! something else, a truncation, appended bytes, a field or record twice —
//! is refused or decodes to something well-formed, never panics, and never
//! allocates by what a prefix *claims*: peak heap is bounded by a multiple
//! of the input's real length.
//!
//! The HTTP head is hostile bytes too: `http::read_request` gathers the
//! request line and headers into one buffer of at most 64 KiB, so neither
//! a line that never ends nor ten thousand short ones allocate beyond it.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide (the allocator is shared with `texid-linalg`'s
//! `fused_alloc` test).

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use proptest::prelude::*;
use texid_distrib::b64;
use texid_distrib::http::{read_request, RequestError};
use texid_distrib::json::{parse, Json};
use texid_distrib::wire::{decode_features, encode_features, get_varint, put_varint};
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;
use texid_store::wal::{self, Record};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn codecs_allocate_one_exactly_sized_buffer() {
    let data: Vec<u8> = (0..210_000u32).map(|i| (i * 31 + 7) as u8).collect();
    for len in (0..=64).chain([data.len() - 2, data.len() - 1, data.len()]) {
        let (text, heap) = measure(|| b64::encode(&data[..len]));
        // A bound, not an equality: a harness thread may allocate inside the
        // window (seen 1 run in 40 under `--release`).
        assert!(
            heap.peak <= len.div_ceil(3) * 4 + 1024,
            "encode of {len} bytes: peak {}",
            heap.peak
        );

        let (back, heap) = measure(|| b64::decode(&text));
        assert_eq!(back.as_deref(), Ok(&data[..len]));
        assert!(heap.peak <= 3 * text.len() / 4, "decode of {len} bytes: peak {}", heap.peak);

        // Rejected input is bounded the same way, wherever the bad byte is.
        for at in [0, text.len() / 2, text.len().saturating_sub(1)] {
            let mut bad = text.clone().into_bytes();
            if let Some(b) = bad.get_mut(at) {
                *b = b'!';
            }
            let bad = String::from_utf8(bad).expect("ascii");
            let (out, heap) = measure(|| b64::decode(&bad));
            assert_eq!(out.is_err(), !bad.is_empty());
            assert!(heap.peak <= 3 * bad.len() / 4, "rejected {len} bytes: peak {}", heap.peak);
        }
    }

    // A request body: the string value is copied once, as one run.
    let payload = b64::encode(&data);
    let body = format!(r#"{{"id": 7, "features": "{payload}"}}"#);
    let (v, heap) = measure(|| parse(&body));
    assert_eq!(v.expect("parses").get("features").and_then(Json::as_str), Some(&payload[..]));
    assert_eq!(heap.largest, payload.len());
    assert!(heap.peak <= payload.len() + 1024, "parse: peak {}", heap.peak);
}

#[test]
fn a_hostile_head_is_refused_within_its_bound() {
    // One line that never ends; ten thousand that do (≈ 120 KB of them).
    let endless = vec![b'a'; 1 << 20];
    let mut many = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..10_000 {
        many.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
    }
    for raw in [&endless, &many] {
        let (out, heap) = measure(|| read_request(&mut &raw[..]));
        assert!(matches!(out, Err(RequestError::HeadTooLarge)), "{out:?}");
        assert!(heap.peak <= 128 * 1024, "{} head bytes: peak {}", raw.len(), heap.peak);
    }

    // A Content-Length that is no number is refused, not read as 0 with
    // the body left behind in the socket.
    let raw = b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\nabc";
    match read_request(&mut &raw[..]) {
        Err(RequestError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("expected an InvalidData error, got {other:?}"),
    }
}

/// The lies a length prefix can tell: one off the truth either way, nothing,
/// more than the message, more than memory.
#[derive(Clone, Copy, Debug)]
enum Claim {
    Off(i64),
    Abs(u64),
}

impl Claim {
    fn instead_of(self, truth: u64) -> u64 {
        match self {
            Claim::Off(by) => truth.wrapping_add_signed(by),
            Claim::Abs(v) => v,
        }
    }
}

/// `(kind, pick, claim)`: what [`mutate`] does, where, and with what.
fn lie() -> impl Strategy<Value = (usize, usize, Claim)> {
    let claim = prop_oneof![
        Just(Claim::Off(-1)),
        Just(Claim::Off(1)),
        Just(Claim::Abs(0)),
        Just(Claim::Abs(u64::from(u32::MAX))),
        Just(Claim::Abs(1 << 63)),
        Just(Claim::Abs(u64::MAX)),
        (0u64..1_000_000).prop_map(Claim::Abs),
    ];
    (0usize..4, any::<usize>(), claim)
}

/// Where each field of a valid wire message lies: its key, the varint after
/// the key (a varint field's value, a length-delimited field's length
/// prefix), and its end.
fn wire_fields(buf: &[u8]) -> Vec<(usize, usize, usize)> {
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        let key_at = pos;
        let key = get_varint(buf, &mut pos).expect("valid key");
        let prefix_at = pos;
        let value = get_varint(buf, &mut pos).expect("valid varint") as usize;
        if key & 7 == 2 {
            pos += value;
        }
        fields.push((key_at, prefix_at, pos));
    }
    fields
}

/// One structural lie told to a valid encoding laid out as `fields`
/// (`(start, length-prefix offset, end)` each; `rewrite` re-encodes a
/// prefix): `kind` 0 rewrites field `pick`'s prefix to `claim`, 1 truncates
/// at `pick`, 2 appends `junk`, 3 repeats field `pick` at the end.
fn mutate(
    valid: &[u8],
    fields: &[(usize, usize, usize)],
    (kind, pick, claim): (usize, usize, Claim),
    junk: &[u8],
    rewrite: impl Fn(&[u8], usize, Claim) -> Vec<u8>,
) -> Vec<u8> {
    let (start, prefix_at, end) = fields[pick % fields.len()];
    match kind {
        0 => rewrite(valid, prefix_at, claim),
        1 => valid[..pick % (valid.len() + 1)].to_vec(),
        2 => [valid, junk].concat(),
        _ => [valid, &valid[start..end]].concat(),
    }
}

proptest! {
    #[test]
    fn mutated_feature_encodings_are_refused_or_well_formed(
        dim in 1usize..10,
        count in 0usize..8,
        lie in lie(),
        junk in prop::collection::vec(any::<u8>(), 1..48),
    ) {
        let mat = Mat::from_fn(dim, count, |r, c| (r * 7 + c) as f32 * 0.25);
        let valid = encode_features(&FeatureMatrix::from_mat(mat, true));
        let hostile = mutate(&valid, &wire_fields(&valid), lie, &junk, |buf, at, claim| {
            let mut after = at;
            let truth = get_varint(buf, &mut after).expect("valid varint");
            let mut out = buf[..at].to_vec();
            put_varint(&mut out, claim.instead_of(truth));
            out.extend_from_slice(&buf[after..]);
            out
        });
        let (decoded, heap) = measure(|| decode_features(&hostile));
        if let Ok(fm) = &decoded {
            prop_assert_eq!(fm.dim().checked_mul(fm.len()), Some(fm.mat.len()));
            prop_assert_eq!(fm.keypoints.len(), fm.len());
        }
        // The matrix (≤ the input) plus a doubling `Vec` of 40-byte
        // keypoints that each took ≥ 35 input bytes.
        prop_assert!(
            heap.peak <= 4 * hostile.len() + 1024,
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
    }

    #[test]
    fn mutated_wal_headers_are_skipped_or_end_the_scan(
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
        lie in lie(),
        junk in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let mut valid = Vec::new();
        let mut records = Vec::new();
        for (i, value) in values.iter().enumerate() {
            let start = valid.len();
            let record = Record::Set { key: format!("tex:{i}"), value: value.clone() };
            wal::encode_into(&record, &mut valid);
            records.push((start, start, valid.len()));
        }
        // A header's `len` is a fixed 4 bytes: the lie is its low 32 bits.
        let hostile = mutate(&valid, &records, lie, &junk, |buf, at, claim| {
            let mut out = buf.to_vec();
            let truth = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
            out[at..at + 4].copy_from_slice(&(claim.instead_of(truth.into()) as u32).to_le_bytes());
            out
        });
        let (scan, heap) = measure(|| wal::scan(&hostile));
        prop_assert_eq!(scan.scanned_bytes, hostile.len());
        let framed: usize =
            scan.records.iter().map(|r| wal::encode(r).len()).sum::<usize>() + scan.torn_tail_bytes;
        prop_assert!(framed <= hostile.len(), "recovered more than was there: {scan:?}");
        // Every record that comes back is one that went in.
        for rec in &scan.records {
            let Record::Set { key, value } = rec else {
                return Err(format!("a delete nobody wrote: {rec:?}"));
            };
            let i: usize = key["tex:".len()..].parse().map_err(|_| format!("key {key}"))?;
            prop_assert_eq!(value, &values[i]);
        }
        // Records are copied out of the image (≤ its length) into a doubling
        // `Vec` of ≤ 56-byte entries that each took ≥ 10 input bytes; a
        // header claiming 4 GiB allocates nothing.
        prop_assert!(
            heap.peak <= 16 * hostile.len() + 1024,
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
    }
}
