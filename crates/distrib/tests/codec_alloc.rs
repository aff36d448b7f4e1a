//! Allocation bounds of the edge codecs: what a request payload makes
//! `b64::decode`, `b64::encode` and `json::parse` allocate is bounded by
//! its length — one exactly-sized buffer each, on valid and on rejected
//! input alike, never a doubling `Vec`. The wire encoders that write every
//! stored message (`wire::encode_features`, `wire::encode_block`) make one
//! allocation of exactly the message's length.
//!
//! And hostile bytes: `wire::decode_features` (and `decode_block`, the form
//! the feature store reads back) and `wal::scan` parse bytes this process
//! did not write (a request body, media after a crash). A valid encoding,
//! of either matrix form, with one structural lie — a length prefix that
//! claims something else, a truncation, appended bytes, a field or record
//! twice — is refused or decodes to something well-formed, never panics,
//! and never allocates by what a prefix *claims*: peak heap is bounded by a
//! multiple of the input's real length. The lies only the f16 form can tell
//! (an odd byte count, both forms at once, a scale that is missing, zero or
//! not finite) are refused as `Malformed`.
//!
//! A request body is hostile text: a valid JSON document or base64
//! payload with one structural lie — cut short, a bracket, quote or
//! separator dropped, doubled or displaced, or nested past
//! `json::MAX_DEPTH` — is refused or parses to something well-formed,
//! never panics, and allocates within a multiple of its length.
//!
//! The HTTP head is hostile bytes too: `http::read_request` gathers the
//! request line and headers into one buffer of at most 64 KiB, so neither
//! a line that never ends nor ten thousand short ones allocate beyond it.
//! And so is the rest of a request: one with a structural lie — a
//! `Content-Length` that claims up to 64 MiB, a cut, a lost or doubled
//! line, junk in the head or after the body — is refused or reads as a
//! well-formed request, and its body grows with the bytes that arrive, not
//! with what the header claims.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide (the allocator is shared with `texid-linalg`'s
//! `fused_alloc` test).

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{CountingAlloc, HeapUse};
use proptest::prelude::*;
use texid_distrib::b64;
use texid_distrib::http::{read_request, RequestError, MAX_BODY_BYTES};
use texid_distrib::json::{parse, Json, MAX_DEPTH};
use texid_distrib::wire::{
    decode_block, decode_features, encode_block, encode_features, get_varint, put_varint, WireError,
};
use texid_gpu::Precision;
use texid_knn::FeatureBlock;
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;
use texid_store::wal::{self, Record};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// [`counting_alloc::measure`] with the kernel backend resolved first:
/// `b64::decode` and `json::parse` ask for it, and the first ask reads
/// `TEXID_KERNEL_BACKEND`, which allocates. No window may hold that read.
fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    texid_linalg::active_backend();
    counting_alloc::measure(f)
}

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

/// The wire encoders write a message into one buffer sized exactly to it:
/// no per-keypoint `Vec`, no growth, nothing else live beside it.
#[test]
fn wire_encoders_allocate_one_exactly_sized_buffer() {
    for cols in [0, 1, 24, 384] {
        let mat = Mat::from_fn(128, cols, |r, c| ((r * 31 + c * 7) % 97) as f32 / 97.0 - 0.25);
        let mut fm = FeatureMatrix::from_mat(mat.clone(), true);
        for (i, kp) in fm.keypoints.iter_mut().enumerate() {
            kp.x = i as f32 * 1.5;
            // Octaves up to 300 take a two-byte varint.
            kp.octave = i * 7 % 301;
        }
        let block = FeatureBlock::from_mat(mat, Precision::F16, 0.25);
        let encoders: [(&str, &dyn Fn() -> Vec<u8>); 2] = [
            ("encode_features", &|| encode_features(&fm)),
            ("encode_block", &|| encode_block(&block, &fm.keypoints, true)),
        ];
        for (name, encode) in encoders {
            let (bytes, heap) = measure(encode);
            let len = bytes.len();
            assert_eq!(bytes.capacity(), len, "{name} of {cols} columns");
            assert_eq!((heap.peak, heap.largest), (len, len), "{name} of {cols} columns");
            assert_eq!(heap.retained, len as isize, "{name} of {cols} columns");
        }
    }
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

/// A `/verify` body (≈ 560 KB of base64 features inside JSON) is read into
/// one allocation of exactly its size: reading as it arrives reserves what
/// a real request declares.
#[test]
fn a_verify_sized_body_is_one_allocation_of_its_size() {
    let body: Vec<u8> = (0..560_000u32).map(|i| b'A' + (i % 26) as u8).collect();
    let head = format!("POST /verify HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
    let raw = [head.as_bytes(), &body].concat();
    let (req, heap) = measure(|| read_request(&mut &raw[..]));
    assert_eq!(req.expect("reads").expect("a request").body, body);
    assert_eq!(heap.largest, body.len());
    assert!(heap.peak <= body.len() + 64 * 1024, "peak {}", heap.peak);

    // Cut short, it is still the error `read_exact` gave.
    let (out, heap) = measure(|| read_request(&mut &raw[..raw.len() - 1]));
    match out {
        Err(RequestError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
    assert_eq!(heap.largest, body.len());
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
    fn mutated_requests_are_refused_or_well_formed(
        method in "GET|HEAD|POST|PUT|DELETE",
        path in "/[a-z0-9/._-]{0,24}",
        headers in prop::collection::vec(("x-[a-z0-9-]{1,8}", "[!-~]([ -~]{0,12}[!-~])?"), 0..4),
        body in prop::collection::vec(any::<u8>(), 0..512),
        lie in (0usize..6, any::<usize>(), prop_oneof![
            Just(Claim::Off(-1)),
            Just(Claim::Off(1)),
            Just(Claim::Abs(0)),
            Just(Claim::Abs(MAX_BODY_BYTES as u64)),
            Just(Claim::Abs(MAX_BODY_BYTES as u64 + 1)),
            Just(Claim::Abs(u64::MAX)),
            (1u64 << 20..=MAX_BODY_BYTES as u64).prop_map(Claim::Abs),
        ]),
        junk in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let valid = request_bytes(&method, &path, &headers, &body);
        let (req, heap) = measure(|| read_request(&mut &valid[..]));
        let req = req.map_err(|e| e.to_string())?.ok_or("no request")?;
        prop_assert_eq!((&req.method, &req.path, &req.body), (&method, &path, &body));
        let mut sent = headers.clone();
        sent.push(("content-length".to_string(), body.len().to_string()));
        prop_assert_eq!(&req.headers, &sent);
        prop_assert!(heap.peak <= request_heap_bound(valid.len()), "valid: peak {}", heap.peak);

        let hostile = mutate_request(&valid, valid.len() - body.len(), body.len(), lie, &junk);
        let (out, heap) = measure(|| read_request(&mut &hostile[..]));
        prop_assert!(
            heap.peak <= request_heap_bound(hostile.len()),
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
        match out {
            // What reads is well-formed: a body of exactly the declared length.
            Ok(Some(req)) => {
                let declared = req.header("content-length").map_or(Ok(0), str::parse::<usize>);
                prop_assert_eq!(declared, Ok(req.body.len()));
            }
            Err(RequestError::TooLarge { declared }) => {
                prop_assert!(declared > MAX_BODY_BYTES as u64);
            }
            Ok(None) | Err(_) => {}
        }
    }

    #[test]
    fn mutated_feature_encodings_are_refused_or_well_formed(
        dim in 1usize..10,
        count in 0usize..8,
        half in any::<bool>(),
        lie in lie(),
        junk in prop::collection::vec(any::<u8>(), 1..48),
    ) {
        let mat = Mat::from_fn(dim, count, |r, c| (r * 7 + c) as f32 * 0.25);
        let fm = FeatureMatrix::from_mat(mat.clone(), true);
        let valid = if half {
            // Both forms round-trip: the f16 one to its block, and widened.
            let block = FeatureBlock::from_mat(mat.clone(), Precision::F16, 0.25);
            let valid = encode_block(&block, &fm.keypoints, true);
            let back = decode_block(&valid).map_err(|e| e.to_string())?;
            prop_assert_eq!(back.block.to_f32(), block.to_f32());
            prop_assert_eq!(back.block.precision(), Precision::F16);
            prop_assert_eq!(decode_features(&valid).map_err(|e| e.to_string())?.mat, mat);
            valid
        } else {
            let valid = encode_features(&fm);
            prop_assert_eq!(decode_features(&valid).map_err(|e| e.to_string())?.mat, mat);
            valid
        };
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
        // The matrix (≤ the input; an f16 one widened, ≤ twice more) plus a
        // doubling `Vec` of 40-byte keypoints that each took ≥ 35 input
        // bytes.
        prop_assert!(
            heap.peak <= 4 * hostile.len() + 1024,
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
        let (stored, heap) = measure(|| decode_block(&hostile));
        prop_assert_eq!(stored.is_ok(), decoded.is_ok());
        if let Ok(stored) = &stored {
            let elements = stored.block.to_f32().len();
            prop_assert_eq!(stored.block.rows().checked_mul(stored.block.cols()), Some(elements));
            prop_assert_eq!(stored.keypoints.len(), stored.block.cols());
        }
        prop_assert!(
            heap.peak <= 4 * hostile.len() + 1024,
            "{} hostile bytes ({lie:?}), block peak {}", hostile.len(), heap.peak
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

    #[test]
    fn mutated_json_bodies_are_refused_or_well_formed(
        doc in json_doc(),
        lie in (0usize..6, any::<usize>(), 0usize..2 * MAX_DEPTH),
        junk in "[\\[\\]{},:\"\\\\0-9eE.+-]{1,6}",
    ) {
        let text = doc.to_string();
        let (parsed, heap) = measure(|| parse(&text));
        prop_assert_eq!(parsed, Ok(doc.clone()));
        prop_assert!(heap.peak <= json_heap_bound(&text), "valid {text:?}: peak {}", heap.peak);

        let hostile = mutate_json(&text, lie, &junk);
        let (parsed, heap) = measure(|| parse(&hostile));
        prop_assert!(
            heap.peak <= json_heap_bound(&hostile),
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
        let (kind, _, levels) = lie;
        if kind == 5 {
            // Closed nesting parses exactly up to the bound.
            let fits = levels + depth(&doc) <= MAX_DEPTH;
            prop_assert_eq!(parsed.is_ok(), fits, "{} levels around depth {}", levels, depth(&doc));
        } else if let Ok(v) = parsed {
            // Whatever parses serializes and parses back to itself.
            prop_assert_eq!(parse(&v.to_string()), Ok(v));
        }
    }

    #[test]
    fn mutated_base64_is_refused_or_decodes_to_its_length(
        data in prop::collection::vec(any::<u8>(), 0..48),
        lie in (0usize..5, any::<usize>()),
        junk in "[=A-Za-z0-9+/! \n\té]{1,3}",
    ) {
        let valid = b64::encode(&data);
        let (back, heap) = measure(|| b64::decode(&valid));
        prop_assert_eq!(back, Ok(data));
        prop_assert!(heap.peak <= 3 * valid.len() / 4, "valid: peak {}", heap.peak);

        let hostile = mutate_b64(&valid, lie, &junk);
        let (decoded, heap) = measure(|| b64::decode(&hostile));
        // One output buffer sized from the text, whatever the text holds.
        prop_assert!(
            heap.peak <= 3 * hostile.len() / 4,
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
        if let Ok(bytes) = decoded {
            prop_assert_eq!(b64::encode(&bytes).len(), hostile.len());
        }
    }
}

/// One wire field: a varint, or a length-delimited run of bytes.
enum Field {
    Varint(u64),
    Bytes(Vec<u8>),
}

/// A `FeatureMatrix` message of `dim × count` with `fields` after the
/// header (tag, value) and no keypoints.
fn message(dim: u64, count: u64, fields: &[(u64, Field)]) -> Vec<u8> {
    let mut buf = Vec::new();
    let header = [(1, Field::Varint(dim)), (2, Field::Varint(count)), (3, Field::Varint(1))];
    for (tag, field) in header.iter().chain(fields) {
        match field {
            Field::Varint(v) => {
                put_varint(&mut buf, tag << 3);
                put_varint(&mut buf, *v);
            }
            Field::Bytes(b) => {
                put_varint(&mut buf, tag << 3 | 2);
                put_varint(&mut buf, b.len() as u64);
                buf.extend_from_slice(b);
            }
        }
    }
    buf
}

#[test]
fn the_f16_form_refuses_its_own_lies() {
    let malformed = |why: &'static str| Err(WireError::Malformed(why));
    let halves = |n: usize| Field::Bytes(vec![0x3c; 2 * n]);
    let scale = |s: f32| Field::Varint(u64::from(s.to_bits()));
    let cases = [
        // An odd byte count, and a length that claims past the message.
        (message(2, 0, &[(6, Field::Bytes(vec![0; 3])), (7, scale(0.5))]),
         malformed("f16 matrix bytes not a multiple of 2")),
        ([message(2, 0, &[(7, scale(0.5))]), vec![6 << 3 | 2, 9, 0, 0]].concat(),
         Err(WireError::Truncated)),
        // Both forms in one message, and a scale without the f16 form.
        (message(1, 0, &[(4, Field::Bytes(vec![])), (6, halves(0)), (7, scale(0.5))]),
         malformed("both matrix forms")),
        (message(1, 0, &[(4, Field::Bytes(vec![])), (7, scale(0.5))]),
         malformed("scale without f16 matrix")),
        // A scale that is missing, zero, negative, not finite or not 32 bits.
        (message(1, 0, &[(6, halves(0))]), malformed("missing f16 scale")),
        (message(1, 0, &[(6, halves(0)), (7, scale(0.0))]),
         malformed("f16 scale not positive and finite")),
        (message(1, 0, &[(6, halves(0)), (7, scale(-0.5))]),
         malformed("f16 scale not positive and finite")),
        (message(1, 0, &[(6, halves(0)), (7, scale(f32::INFINITY))]),
         malformed("f16 scale not positive and finite")),
        (message(1, 0, &[(6, halves(0)), (7, scale(f32::NAN))]),
         malformed("f16 scale not positive and finite")),
        (message(1, 0, &[(6, halves(0)), (7, Field::Varint(1 << 32))]),
         malformed("f16 scale not positive and finite")),
        // `dim × count` that overflows (and would wrap to the empty matrix).
        (message(1 << 63, 2, &[(6, halves(0)), (7, scale(0.5))]), malformed("matrix size mismatch")),
        (message(3, 2, &[(6, halves(5)), (7, scale(0.5))]), malformed("matrix size mismatch")),
    ];
    for (i, (bytes, want)) in cases.iter().enumerate() {
        let (got, heap) = measure(|| decode_block(bytes));
        assert_eq!(got.map(|_| ()), *want, "case {i}");
        assert_eq!(decode_features(bytes).map(|_| ()), *want, "case {i}");
        assert!(heap.peak <= 4 * bytes.len() + 1024, "case {i}: peak {}", heap.peak);
    }
    // The same shape told the truth decodes.
    let valid = message(3, 0, &[(6, halves(0)), (7, scale(0.5))]);
    assert!(decode_block(&valid).is_ok());
}

/// A valid request: the request line, `headers`, a `Content-Length` that
/// tells the truth about `body`, the blank line, `body`.
fn request_bytes(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    [head.as_bytes(), body].concat()
}

/// One structural lie told to a valid request whose head is `head_len`
/// bytes and whose body is `body_len`: `kind` 0 makes `Content-Length`
/// claim `claim` instead, 1 cuts the request at `pick`, 2 drops the
/// `pick`-th line break of the head, 3 doubles the `pick`-th head line, 4
/// puts `junk` into the head at `pick`, 5 appends `junk` after the body.
fn mutate_request(
    valid: &[u8],
    head_len: usize,
    body_len: usize,
    (kind, pick, claim): (usize, usize, Claim),
    junk: &[u8],
) -> Vec<u8> {
    let head = &valid[..head_len];
    // Where each head line starts; the last entry is the end of the head.
    let mut starts = vec![0];
    starts.extend(head.windows(2).enumerate().filter(|(_, w)| w == b"\r\n").map(|(i, _)| i + 2));
    let line = pick % (starts.len() - 1);
    let (from, to) = (starts[line], starts[line + 1]);
    match kind {
        0 => {
            let truth = format!("Content-Length: {body_len}\r\n");
            let lie = format!("Content-Length: {}\r\n", claim.instead_of(body_len as u64));
            let at = head.windows(truth.len()).position(|w| w == truth.as_bytes()).expect("header");
            [&valid[..at], lie.as_bytes(), &valid[at + truth.len()..]].concat()
        }
        1 => valid[..pick % (valid.len() + 1)].to_vec(),
        2 => [&valid[..to - 2], &valid[to..]].concat(),
        3 => [&valid[..to], &valid[from..]].concat(),
        4 => {
            let at = pick % (head_len + 1);
            [&valid[..at], junk, &valid[at..]].concat()
        }
        _ => [valid, junk].concat(),
    }
}

/// What `read_request` may allocate for `len` bytes, whatever they claim:
/// the 8 KiB read buffer; a head of `a:` lines costs a 48-byte header pair
/// (twice over in a doubling `Vec`) per 4 bytes; a body is what arrived,
/// past at most 1 MiB reserved for a declared length.
fn request_heap_bound(len: usize) -> usize {
    32 * len + (1 << 20) + 16 * 1024
}

/// A JSON document: scalars, then arrays and objects of them up to four
/// deep. Numbers are the two kinds `Json::to_string` prints (integers and
/// finite fractions); strings mix escapes and multi-byte characters.
fn json_doc() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1_000_000i64..1_000_000).prop_map(|v| Json::Num(v as f64)),
        (-1e9f64..1e9).prop_map(Json::Num),
        "[a-z\"\\\\/\n\té🦀 ]{0,12}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::btree_map("[a-z\"é]{0,4}", inner, 0..4).prop_map(Json::Obj),
        ]
    })
}

/// Arrays and objects nested in `v`, itself included.
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// What `parse` may allocate for `text`: the largest cost per input byte
/// is a one-entry object, `{"":v}`, whose five bytes of framing buy one
/// B-tree leaf (632 B for `String` keys and `Json` values on a 64-bit
/// target); an array's `Vec` is 64 B per byte of `[v]` at worst.
fn json_heap_bound(text: &str) -> usize {
    128 * text.len() + 1024
}

/// One structural lie told to a valid JSON text: `kind` 0 cuts it at its
/// `pick`-th structural byte (one of `[]{},:"`), 1 drops that byte, 2
/// doubles it, 3 puts `junk` before it, 4 opens `levels` arrays before the
/// text and closes none, 5 wraps the text in `levels` arrays.
fn mutate_json(text: &str, (kind, pick, levels): (usize, usize, usize), junk: &str) -> String {
    let structural: Vec<usize> =
        text.bytes().enumerate().filter(|(_, c)| b"[]{},:\"".contains(c)).map(|(i, _)| i).collect();
    // Scalars have none; the end of the text is a boundary either way.
    let at = structural.get(pick % structural.len().max(1)).copied().unwrap_or(text.len());
    let (head, tail) = text.split_at(at);
    match kind {
        0 => head.to_string(),
        1 => format!("{head}{}", tail.get(1..).unwrap_or("")),
        2 => format!("{head}{}{tail}", tail.get(..1).unwrap_or("")),
        3 => format!("{head}{junk}{tail}"),
        4 => format!("{}{text}", "[".repeat(levels)),
        _ => format!("{}{text}{}", "[".repeat(levels), "]".repeat(levels)),
    }
}

/// One structural lie told to a valid base64 text: `kind` 0 cuts it at
/// `pick`, 1 drops the character there, 2 puts `junk` there, 3 overwrites
/// the character there with `junk`, 4 appends a second encoding (padding
/// mid-stream if the first had any).
fn mutate_b64(valid: &str, (kind, pick): (usize, usize), junk: &str) -> String {
    // Base64 is ASCII: every offset is a character boundary.
    let at = pick % (valid.len() + 1);
    let (head, tail) = valid.split_at(at);
    match kind {
        0 => head.to_string(),
        1 => format!("{head}{}", tail.get(1..).unwrap_or("")),
        2 => format!("{head}{junk}{tail}"),
        3 => format!("{head}{junk}{}", tail.get(1..).unwrap_or("")),
        _ => format!("{valid}{}", b64::encode(junk.as_bytes())),
    }
}
