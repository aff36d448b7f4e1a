//! Standard base64 (RFC 4648, with padding) for carrying binary feature
//! payloads inside the JSON API.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`REVERSE`]. Sextets are below
/// `0x40`, so the two high bits of an OR over looked-up values are set iff
/// one of them was this.
const INVALID: u8 = 0xff;

/// Byte → sextet, [`INVALID`] for everything outside the alphabet ('='
/// included: padding is handled before the lookup, in the last quad only).
const REVERSE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encode bytes to base64 with padding.
pub fn encode(data: &[u8]) -> String {
    let quad = |t: u32| {
        [
            ALPHABET[(t >> 18) as usize & 63],
            ALPHABET[(t >> 12) as usize & 63],
            ALPHABET[(t >> 6) as usize & 63],
            ALPHABET[t as usize & 63],
        ]
    };
    let mut out = vec![b'='; data.len().div_ceil(3) * 4];
    let triples = data.chunks_exact(3);
    let rest = triples.remainder();
    let mut quads = out.chunks_exact_mut(4);
    for (t, q) in triples.zip(&mut quads) {
        q.copy_from_slice(&quad((t[0] as u32) << 16 | (t[1] as u32) << 8 | t[2] as u32));
    }
    if let (Some(q), Some(&b0)) = (quads.next(), rest.first()) {
        let b1 = rest.get(1).copied().unwrap_or(0);
        // One leftover byte fills two characters, two fill three; the
        // rest of the quad keeps its '='.
        let n = rest.len() + 1;
        q[..n].copy_from_slice(&quad((b0 as u32) << 16 | (b1 as u32) << 8)[..n]);
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Decoding failure (invalid character or bad length).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct B64Error;

impl std::fmt::Display for B64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid base64")
    }
}

impl std::error::Error for B64Error {}

/// Decode padded base64.
///
/// One table-driven pass, four characters to three bytes, into an output
/// sized once (never more than `3 * text.len() / 4` bytes). Validity is
/// the OR of every looked-up sextet, checked once at the end; '=' is legal
/// only as the last one or two characters of the input.
pub fn decode(text: &str) -> Result<Vec<u8>, B64Error> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(B64Error);
    }
    let Some((body, last)) = bytes.split_last_chunk::<4>() else {
        return Ok(Vec::new());
    };
    let pad = last.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err(B64Error);
    }
    let sextets = |q: &[u8]| {
        [
            REVERSE[q[0] as usize],
            REVERSE[q[1] as usize],
            REVERSE[q[2] as usize],
            REVERSE[q[3] as usize],
        ]
    };
    let triple = |[a, b, c, d]: [u8; 4]| [a << 2 | b >> 4, b << 4 | c >> 2, c << 6 | d];

    let mut out = vec![0u8; bytes.len() / 4 * 3 - pad];
    let (head, tail) = out.split_at_mut(body.len() / 4 * 3);
    let mut seen = 0u8;
    for (q, t) in body.chunks_exact(4).zip(head.chunks_exact_mut(3)) {
        let s = sextets(q);
        seen |= s[0] | s[1] | s[2] | s[3];
        t.copy_from_slice(&triple(s));
    }
    // The last quad: its padding decodes as zero bits that are not emitted.
    let mut q = *last;
    q[4 - pad..].fill(b'A');
    let s = sextets(&q);
    seen |= s[0] | s[1] | s[2] | s[3];
    tail.copy_from_slice(&triple(s)[..3 - pad]);

    if seen & 0xc0 != 0 {
        return Err(B64Error);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time decoder this module shipped before the table:
    /// the oracle [`decode`] must agree with on every input.
    fn decode_reference(text: &str) -> Result<Vec<u8>, B64Error> {
        fn decode_char(c: u8) -> Result<u32, B64Error> {
            match c {
                b'A'..=b'Z' => Ok((c - b'A') as u32),
                b'a'..=b'z' => Ok((c - b'a') as u32 + 26),
                b'0'..=b'9' => Ok((c - b'0') as u32 + 52),
                b'+' => Ok(62),
                b'/' => Ok(63),
                _ => Err(B64Error),
            }
        }
        let bytes = text.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(B64Error);
        }
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for chunk in bytes.chunks(4) {
            let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
            if pad > 2 {
                return Err(B64Error);
            }
            // '=' only allowed at the end of the input.
            let is_last = chunk.as_ptr() as usize + 4 == bytes.as_ptr() as usize + bytes.len();
            if pad > 0 && !is_last {
                return Err(B64Error);
            }
            let mut triple = 0u32;
            for (i, &c) in chunk.iter().enumerate() {
                let v = if c == b'=' {
                    if i < 4 - pad {
                        return Err(B64Error);
                    }
                    0
                } else {
                    decode_char(c)?
                };
                triple = (triple << 6) | v;
            }
            out.push((triple >> 16) as u8);
            if pad < 2 {
                out.push((triple >> 8) as u8);
            }
            if pad < 1 {
                out.push(triple as u8);
            }
        }
        Ok(out)
    }

    #[test]
    fn rfc_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn roundtrip_binary() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode("Zg=").is_err()); // bad length
        assert!(decode("Z!==").is_err()); // bad character
        assert!(decode("====").is_err()); // too much padding
        assert!(decode("Zg==Zg==").is_err()); // padding mid-stream
        assert!(decode("Zg=a").is_err()); // '=' before the end of the last quad
        assert!(decode("Zm9=Zm9v").is_err()); // one '=' closing a body quad
    }

    /// Every length 0–64 (so every tail of the 4-wide loop and both pad
    /// counts), and at every position of each encoding one byte replaced
    /// by each class of character: alphabet, '=', and outside both.
    #[test]
    fn matches_reference_on_every_single_byte_mutation() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for len in 0..=data.len() {
            let enc = encode(&data[..len]);
            assert_eq!(decode(&enc), Ok(data[..len].to_vec()), "len {len}");
            assert_eq!(decode(&enc), decode_reference(&enc), "len {len}");
            for at in 0..enc.len() {
                for with in *b"=A/!-\0 \x7f" {
                    let mut m = enc.clone().into_bytes();
                    m[at] = with;
                    let m = String::from_utf8(m).expect("ascii");
                    assert_eq!(decode(&m), decode_reference(&m), "{m:?}");
                }
            }
            // 1 to 4 trailing '=' on a whole number of quads.
            for pad in 1..=enc.len().min(4) {
                let m = format!("{}{}", &enc[..enc.len() - pad], "=".repeat(pad));
                assert_eq!(decode(&m), decode_reference(&m), "{m:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_reference_on_base64_like_text(text in "[A-Za-z0-9+/=!é]{0,64}") {
            prop_assert_eq!(decode(&text), decode_reference(&text));
        }

        #[test]
        fn matches_reference_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let text = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(decode(&text), decode_reference(&text));
        }

        #[test]
        fn encode_is_canonical_and_sized(data in prop::collection::vec(any::<u8>(), 0..64)) {
            let enc = encode(&data);
            prop_assert_eq!(enc.len(), data.len().div_ceil(3) * 4);
            let pad = (3 - data.len() % 3) % 3;
            prop_assert_eq!(enc.bytes().filter(|&c| c == b'=').count(), pad);
            // The bits of the last character that no input byte fills are zero.
            if pad > 0 {
                let last = REVERSE[enc.as_bytes()[enc.len() - pad - 1] as usize];
                prop_assert_eq!(last & ((1 << (2 * pad)) - 1), 0);
            }
            prop_assert_eq!(decode_reference(&enc), Ok(data));
        }
    }
}
