//! Hostile bytes for `snapshot::decode`: a snapshot is read back from media
//! after a crash, so its bytes are whatever the disk holds. A valid
//! snapshot with one structural lie — cut short, a byte flipped or inserted
//! in the header or at an entry boundary, a `count` or a varint length that
//! claims more than is there — is refused or decodes to a map no larger
//! than its input, never panics, and never allocates by what a prefix
//! *claims*: peak heap is bounded by a multiple of the input's real length.
//! Every lie is re-sealed with a fresh trailing CRC32C, or the checksum
//! would refuse it before the entry grammar is ever reached.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide.

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use proptest::prelude::*;
use std::collections::BTreeMap;
use texid_store::crc32c;
use texid_store::snapshot::{decode, encode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Magic, version and `count`: the bytes before the first entry.
const HEADER: usize = 16;

/// The snapshot's LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn varint_len(v: u64) -> usize {
    let mut out = Vec::new();
    put_varint(&mut out, v);
    out.len()
}

/// `body` with its trailing CRC32C.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32c(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Where each entry's two length varints start in `map`'s encoding.
fn length_prefixes(map: &BTreeMap<String, Vec<u8>>) -> Vec<usize> {
    let mut at = HEADER;
    let mut out = Vec::new();
    for (key, val) in map {
        out.push(at);
        at += varint_len(key.len() as u64) + key.len();
        out.push(at);
        at += varint_len(val.len() as u64) + val.len();
    }
    out
}

/// Peak heap a decode of `len` bytes may reach: the keys and values it
/// copies out (at most `len` bytes between them) plus the map's nodes,
/// ≈ 130 bytes per entry at the worst fill, where every entry but one (the
/// empty key) took at least three input bytes.
fn heap_bound(len: usize) -> usize {
    64 * len + 4096
}

/// One structural lie told to `valid` (a sealed snapshot of a map whose
/// entry length varints start at `prefixes`): `kind` 0 cuts the body at
/// `pick` and re-seals it, 1 cuts the sealed blob, 2 flips `byte` into a
/// header byte or an entry boundary, 3 inserts it there, 4 rewrites `count`
/// to `claim`, 5 rewrites length prefix `pick` to `claim`. Every lie but 1
/// is re-sealed.
fn mutate(
    valid: &[u8],
    prefixes: &[usize],
    (kind, pick, byte, claim): (usize, usize, u8, u64),
) -> Vec<u8> {
    let body = &valid[..valid.len() - 4];
    // The header's bytes, every entry boundary, and the end of the body.
    let sites: Vec<usize> =
        (0..HEADER).chain(prefixes.iter().copied()).chain([body.len()]).collect();
    let site = sites[pick % sites.len()];
    let mut out = body.to_vec();
    match kind {
        0 => out.truncate(pick % (body.len() + 1)),
        1 => return valid[..pick % (valid.len() + 1)].to_vec(),
        2 => {
            if let Some(b) = out.get_mut(site) {
                *b ^= byte.max(1);
            }
        }
        3 => out.insert(site, byte),
        4 => out[8..HEADER].copy_from_slice(&claim.to_le_bytes()),
        _ => {
            let Some(&at) = prefixes.get(pick % prefixes.len().max(1)) else { return seal(out) };
            let mut end = at;
            while out[end] & 0x80 != 0 {
                end += 1;
            }
            let mut lie = Vec::new();
            put_varint(&mut lie, claim);
            out.splice(at..=end, lie);
        }
    }
    seal(out)
}

fn claim() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0),
        Just(1),
        Just(u64::from(u32::MAX)),
        Just(1 << 63),
        Just(u64::MAX),
        0u64..1_000_000,
    ]
}

proptest! {
    #[test]
    fn mutated_snapshots_are_refused_or_well_formed(
        map in prop::collection::btree_map(
            "[a-z]{0,4}",
            prop::collection::vec(any::<u8>(), 0..24),
            0..40,
        ),
        lie in (0usize..6, any::<usize>(), any::<u8>(), claim()),
    ) {
        let valid = encode(&map);
        let (back, heap) = measure(|| decode(&valid));
        prop_assert_eq!(back.as_ref(), Ok(&map));
        prop_assert!(heap.peak <= heap_bound(valid.len()), "valid: peak {}", heap.peak);

        let hostile = mutate(&valid, &length_prefixes(&map), lie);
        let (out, heap) = measure(|| decode(&hostile));
        prop_assert!(
            heap.peak <= heap_bound(hostile.len()),
            "{} hostile bytes ({lie:?}), peak {}", hostile.len(), heap.peak
        );
        // No one allocation is larger than the input or one map node.
        prop_assert!(heap.largest <= hostile.len().max(1024), "largest {}", heap.largest);
        // What decodes is no more than was there: its own encoding (minimal
        // varints, each key once) is at most the input's length.
        if let Ok(decoded) = out {
            prop_assert!(encode(&decoded).len() <= hostile.len(), "{lie:?} grew the map");
        }
    }
}

#[test]
fn a_count_of_u64_max_allocates_nothing_it_claims() {
    let mut map = BTreeMap::new();
    map.insert("tex:1".to_string(), vec![7u8; 100]);
    let valid = encode(&map);
    let hostile = mutate(&valid, &length_prefixes(&map), (4, 0, 0, u64::MAX));
    let (out, heap) = measure(|| decode(&hostile));
    assert!(out.is_err());
    assert!(heap.peak <= heap_bound(hostile.len()), "peak {}", heap.peak);
}
