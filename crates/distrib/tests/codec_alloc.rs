//! Allocation bounds of the edge codecs: what a request payload makes
//! `b64::decode`, `b64::encode` and `json::parse` allocate is bounded by
//! its length — one exactly-sized buffer each, on valid and on rejected
//! input alike, never a doubling `Vec`.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide (the allocator is shared with `texid-linalg`'s
//! `fused_alloc` test).

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use texid_distrib::b64;
use texid_distrib::json::{parse, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test function: `measure` is not reentrant, and `cargo test` runs
/// the tests of a binary on parallel threads.
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
