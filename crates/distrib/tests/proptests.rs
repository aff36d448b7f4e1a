//! Property-based tests for the serialization substrates (wire, JSON, b64)
//! and a model check of the feature store's keydir.

use proptest::prelude::*;
use std::collections::BTreeMap;
use texid_distrib::b64;
use texid_distrib::json::{parse, Json};
use texid_distrib::kv::KvStore;
use texid_distrib::wire::{decode_features, encode_features, get_varint, put_varint};
use texid_linalg::Mat;
use texid_sift::{FeatureMatrix, Keypoint};
use texid_store::{crc32c, DurableLog, LogConfig, SnapshotFault, Volume, WriteFault};

fn arb_keypoint() -> impl Strategy<Value = Keypoint> {
    (
        -1e4f32..1e4,
        -1e4f32..1e4,
        0.1f32..100.0,
        -3.15f32..3.15,
        0.0f32..10.0,
        0usize..8,
        (-0.5f32..4.5, 0.0f32..512.0, 0.0f32..512.0),
    )
        .prop_map(|(x, y, sigma, orientation, response, octave, (interval, ox, oy))| Keypoint {
            x,
            y,
            sigma,
            orientation,
            response,
            octave,
            interval,
            oct_x: ox,
            oct_y: oy,
        })
}

fn arb_features() -> impl Strategy<Value = FeatureMatrix> {
    (1usize..16, 0usize..12).prop_flat_map(|(dim, count)| {
        (
            prop::collection::vec(-100.0f32..100.0, dim * count),
            prop::collection::vec(arb_keypoint(), count),
            any::<bool>(),
        )
            .prop_map(move |(data, keypoints, rootsift)| FeatureMatrix {
                keypoints,
                mat: Mat::from_col_major(dim, count, data),
                rootsift,
            })
    })
}

/// Recursive JSON value strategy (depth-limited).
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite, roundtrippable numbers.
        (-1e9f64..1e9).prop_map(|v| Json::Num((v * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 _\\-\\\\\"\n\t]{0,12}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Json::Obj),
        ]
    })
}

/// One operation on the store under test.
#[derive(Clone, Debug)]
enum KvOp {
    Set(usize, Vec<u8>, WriteFault),
    Del(usize, WriteFault),
    Compact(SnapshotFault),
    Replay,
}

const KEYS: [&str; 4] = ["tex:0", "tex:1", "tex:2", ""];

fn arb_kv_ops() -> impl Strategy<Value = Vec<KvOp>> {
    let write_fault = || {
        let faults = [WriteFault::Clean, WriteFault::Clean, WriteFault::Lose, WriteFault::Tear];
        (0..faults.len()).prop_map(move |i| faults[i])
    };
    let set = || {
        (0..KEYS.len(), prop::collection::vec(any::<u8>(), 0..48), write_fault())
            .prop_map(|(k, v, f)| KvOp::Set(k, v, f))
    };
    let op = prop_oneof![
        set(),
        set(),
        (0..KEYS.len(), write_fault()).prop_map(|(k, f)| KvOp::Del(k, f)),
        prop_oneof![Just(SnapshotFault::Clean), Just(SnapshotFault::Corrupt)].prop_map(KvOp::Compact),
        Just(KvOp::Replay),
    ];
    // A torn write is only ever the last append before a replay: the shape
    // a crash leaves (DESIGN.md §12).
    prop::collection::vec(op, 0..40).prop_map(|ops| {
        ops.into_iter()
            .flat_map(|op| {
                let torn = matches!(op, KvOp::Set(_, _, WriteFault::Tear) | KvOp::Del(_, WriteFault::Tear));
                std::iter::once(op).chain(torn.then_some(KvOp::Replay))
            })
            .collect()
    })
}

proptest! {
    /// After every operation the keydir store reads exactly what its writer
    /// believes it wrote, and after a replay exactly what the copying
    /// replay of the same volume recovers.
    #[test]
    fn keydir_matches_its_model(ops in arb_kv_ops()) {
        let volume = Volume::in_memory();
        let kv = KvStore::durable(DurableLog::new(volume.clone(), LogConfig { snapshot_every: 0 }));
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                KvOp::Set(k, value, fault) => {
                    let existed = kv.set_faulted(KEYS[*k], value.clone(), *fault);
                    prop_assert_eq!(existed, model.insert(KEYS[*k].to_string(), value.clone()).is_some());
                }
                KvOp::Del(k, fault) => {
                    let existed = kv.del_faulted(KEYS[*k], *fault);
                    prop_assert_eq!(existed, model.remove(KEYS[*k]).is_some());
                }
                KvOp::Compact(fault) => prop_assert!(kv.compact(*fault)),
                KvOp::Replay => {
                    let oracle = DurableLog::new(volume.clone(), LogConfig::default());
                    let (recovered, want) = oracle.replay().expect("memory media");
                    prop_assert_eq!(kv.replay().expect("memory media"), want);
                    model = recovered;
                }
            }
            for key in KEYS {
                let want = model.get(key).map(|v| (v.clone(), crc32c(v)));
                prop_assert_eq!(kv.get_with_crc(key), want, "{:?} after {:?}", key, op);
            }
            prop_assert_eq!(kv.len(), model.len());
            prop_assert_eq!(kv.used_bytes(), model.values().map(|v| v.len() as u64).sum::<u64>());
        }
    }

    #[test]
    fn wire_features_roundtrip(fm in arb_features()) {
        let bytes = encode_features(&fm);
        let back = decode_features(&bytes).expect("decode");
        prop_assert_eq!(back.mat, fm.mat);
        prop_assert_eq!(back.keypoints, fm.keypoints);
        prop_assert_eq!(back.rootsift, fm.rootsift);
    }

    #[test]
    fn wire_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_features(&bytes); // must return Err, not panic
    }

    #[test]
    fn varint_roundtrip(values in prop::collection::vec(any::<u64>(), 0..32)) {
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(get_varint(&buf, &mut pos).expect("varint"), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn json_roundtrip(v in arb_json()) {
        let text = v.to_string();
        let back = parse(&text).expect("parse own output");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_parse_never_panics(text in "\\PC{0,64}") {
        let _ = parse(&text); // must return Err, not panic
    }

    #[test]
    fn b64_roundtrip(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let enc = b64::encode(&data);
        prop_assert!(enc.len().is_multiple_of(4));
        prop_assert_eq!(b64::decode(&enc).expect("decode"), data);
    }

    #[test]
    fn b64_decode_never_panics(text in "\\PC{0,64}") {
        let _ = b64::decode(&text);
    }

    /// Whatever `decode` accepts is the encoding of what it returned, up to
    /// the bits of the last character that no output byte holds.
    #[test]
    fn b64_accepted_text_reencodes(text in "[A-Za-z0-9+/=]{0,64}") {
        if let Ok(bytes) = b64::decode(&text) {
            let again = b64::encode(&bytes);
            prop_assert_eq!(again.len(), text.len());
            let pad = text.bytes().rev().take_while(|&c| c == b'=').count();
            let exact = text.len().saturating_sub(pad + 1);
            prop_assert_eq!(&again[..exact], &text[..exact]);
            prop_assert_eq!(&again[text.len() - pad..], &text[text.len() - pad..]);
        }
    }

    /// Strings long enough to cross the 8-byte scan of `parse_string`
    /// several times, with quotes, backslashes, controls and multi-byte
    /// characters at every offset.
    #[test]
    fn json_string_roundtrip(s in "[a-z\"\\\\\n\té🦀]{0,64}") {
        let v = Json::Str(s);
        prop_assert_eq!(parse(&v.to_string()).expect("parse own output"), v);
    }

    /// Every supplementary-plane character arrives intact as a `\u`
    /// surrogate pair, in either hex case, wherever it sits in the string.
    #[test]
    fn json_surrogate_pair_escapes(
        code in 0x1_0000u32..0x11_0000,
        before in "[a-z]{0,9}",
        upper in any::<bool>(),
    ) {
        let c = char::from_u32(code).expect("no surrogates above U+FFFF");
        let (hi, lo) = (0xd800 + ((code - 0x1_0000) >> 10), 0xdc00 + (code & 0x3ff));
        let escaped = if upper {
            format!("\"{before}\\u{hi:04X}\\u{lo:04X}!\"")
        } else {
            format!("\"{before}\\u{hi:04x}\\u{lo:04x}!\"")
        };
        prop_assert_eq!(parse(&escaped).expect("valid"), Json::Str(format!("{before}{c}!")));
    }
}

#[test]
fn b64_pinned_accept_and_reject_set() {
    for ok in ["", "Zg==", "Zm8=", "Zm9v", "Zm9vYg==", "Zh==", "Zm9="] {
        assert!(b64::decode(ok).is_ok(), "{ok:?}");
    }
    for bad in ["Zg=", "Z!==", "====", "Zg==Zg==", "Zg=a", "Z===", "=Zg=", "Zm9=Zm9v", "Zg", "Zm9v\n"] {
        assert_eq!(b64::decode(bad), Err(b64::B64Error), "{bad:?}");
    }
}
