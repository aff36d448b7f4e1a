//! Protobuf-style wire format for feature matrices.
//!
//! The paper serializes reference feature matrices with Google protobuf
//! before storing them in Redis; this module is the from-scratch
//! equivalent: LEB128 varints, (tag, wire-type) field keys, and
//! length-delimited packed payloads. The encoding is self-describing enough
//! to skip unknown fields, so the format can evolve.
//!
//! Message `FeatureMatrix`:
//!
//! | field | tag | type |
//! |---|---|---|
//! | descriptor dim | 1 | varint |
//! | feature count | 2 | varint |
//! | rootsift flag | 3 | varint (0/1) |
//! | matrix data | 4 | length-delimited packed f32 LE (column-major) |
//! | keypoints | 5 | length-delimited, 8 × f32 LE + 1 varint each |

use texid_linalg::Mat;
use texid_sift::{FeatureMatrix, Keypoint};

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// An unknown wire type was encountered.
    BadWireType(u8),
    /// The decoded message misses required fields or is inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::BadWireType(t) => write!(f, "bad wire type {t}"),
            WireError::Malformed(why) => write!(f, "malformed message: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- primitives ----

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Read a LEB128 varint.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

const WT_VARINT: u8 = 0;
const WT_LEN: u8 = 2;

fn put_key(buf: &mut Vec<u8>, tag: u32, wire_type: u8) {
    put_varint(buf, ((tag as u64) << 3) | wire_type as u64);
}

fn get_key(buf: &[u8], pos: &mut usize) -> Result<(u32, u8), WireError> {
    let k = get_varint(buf, pos)?;
    Ok(((k >> 3) as u32, (k & 7) as u8))
}

fn put_len_delimited(buf: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_key(buf, tag, WT_LEN);
    put_varint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
}

fn get_slice<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], WireError> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(WireError::Truncated)?;
    if end > buf.len() {
        return Err(WireError::Truncated);
    }
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

fn skip_field(buf: &[u8], pos: &mut usize, wire_type: u8) -> Result<(), WireError> {
    match wire_type {
        WT_VARINT => {
            get_varint(buf, pos)?;
            Ok(())
        }
        WT_LEN => {
            get_slice(buf, pos)?;
            Ok(())
        }
        other => Err(WireError::BadWireType(other)),
    }
}

// ---- FeatureMatrix message ----

fn encode_keypoint(buf: &mut Vec<u8>, kp: &Keypoint) {
    for v in [kp.x, kp.y, kp.sigma, kp.orientation, kp.response, kp.interval, kp.oct_x, kp.oct_y] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    put_varint(buf, kp.octave as u64);
}

fn decode_keypoint(bytes: &[u8]) -> Result<Keypoint, WireError> {
    if bytes.len() < 33 {
        return Err(WireError::Malformed("keypoint too short"));
    }
    let f = |i: usize| f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    let mut pos = 32;
    let octave = get_varint(bytes, &mut pos)? as usize;
    Ok(Keypoint {
        x: f(0),
        y: f(1),
        sigma: f(2),
        orientation: f(3),
        response: f(4),
        interval: f(5),
        oct_x: f(6),
        oct_y: f(7),
        octave,
    })
}

/// Serialize a feature matrix.
pub fn encode_features(fm: &FeatureMatrix) -> Vec<u8> {
    let mut buf = Vec::with_capacity(fm.mat.len() * 4 + fm.keypoints.len() * 36 + 32);
    put_key(&mut buf, 1, WT_VARINT);
    put_varint(&mut buf, fm.dim() as u64);
    put_key(&mut buf, 2, WT_VARINT);
    put_varint(&mut buf, fm.len() as u64);
    put_key(&mut buf, 3, WT_VARINT);
    put_varint(&mut buf, fm.rootsift as u64);

    let mut data = Vec::with_capacity(fm.mat.len() * 4);
    for &v in fm.mat.as_slice() {
        data.extend_from_slice(&v.to_le_bytes());
    }
    put_len_delimited(&mut buf, 4, &data);

    for kp in &fm.keypoints {
        let mut kb = Vec::with_capacity(36);
        encode_keypoint(&mut kb, kp);
        put_len_delimited(&mut buf, 5, &kb);
    }
    buf
}

/// Deserialize a feature matrix.
pub fn decode_features(buf: &[u8]) -> Result<FeatureMatrix, WireError> {
    let mut pos = 0usize;
    let mut dim = None;
    let mut count = None;
    let mut rootsift = false;
    let mut data: Option<Vec<f32>> = None;
    let mut keypoints = Vec::new();

    while pos < buf.len() {
        let (tag, wt) = get_key(buf, &mut pos)?;
        match (tag, wt) {
            (1, WT_VARINT) => dim = Some(get_varint(buf, &mut pos)? as usize),
            (2, WT_VARINT) => count = Some(get_varint(buf, &mut pos)? as usize),
            (3, WT_VARINT) => rootsift = get_varint(buf, &mut pos)? != 0,
            (4, WT_LEN) => {
                let raw = get_slice(buf, &mut pos)?;
                if raw.len() % 4 != 0 {
                    return Err(WireError::Malformed("matrix bytes not a multiple of 4"));
                }
                data = Some(
                    raw.chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect(),
                );
            }
            (5, WT_LEN) => {
                let raw = get_slice(buf, &mut pos)?;
                keypoints.push(decode_keypoint(raw)?);
            }
            (_, wt) => skip_field(buf, &mut pos, wt)?, // forward compatibility
        }
    }

    let dim = dim.ok_or(WireError::Malformed("missing dim"))?;
    let count = count.ok_or(WireError::Malformed("missing count"))?;
    let data = data.ok_or(WireError::Malformed("missing matrix"))?;
    // Both factors are payload varints: their product may not fit.
    if dim.checked_mul(count) != Some(data.len()) {
        return Err(WireError::Malformed("matrix size mismatch"));
    }
    if keypoints.len() != count {
        return Err(WireError::Malformed("keypoint count mismatch"));
    }
    Ok(FeatureMatrix {
        keypoints,
        mat: Mat::from_col_major(dim, count, data),
        rootsift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_features(n: usize) -> FeatureMatrix {
        let mat = Mat::from_fn(128, n, |r, c| ((r * 31 + c * 7) % 100) as f32 * 0.01);
        let mut fm = FeatureMatrix::from_mat(mat, true);
        for (i, kp) in fm.keypoints.iter_mut().enumerate() {
            kp.x = i as f32 * 1.5;
            kp.y = i as f32 * 2.5;
            kp.orientation = (i as f32 * 0.1).sin();
            kp.octave = i % 4;
            kp.interval = 1.25;
        }
        fm
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_detected() {
        let buf = vec![0x80u8, 0x80]; // unterminated
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(WireError::Truncated));
    }

    #[test]
    fn features_roundtrip_exactly() {
        let fm = sample_features(17);
        let bytes = encode_features(&fm);
        let back = decode_features(&bytes).unwrap();
        assert_eq!(back.dim(), 128);
        assert_eq!(back.len(), 17);
        assert!(back.rootsift);
        assert_eq!(back.mat, fm.mat);
        assert_eq!(back.keypoints, fm.keypoints);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let fm = FeatureMatrix::from_mat(Mat::zeros(128, 0), false);
        let back = decode_features(&encode_features(&fm)).unwrap();
        assert_eq!(back.len(), 0);
        assert!(!back.rootsift);
    }

    #[test]
    fn unknown_fields_skipped() {
        let fm = sample_features(2);
        let mut bytes = encode_features(&fm);
        // Append an unknown varint field (tag 99) and an unknown
        // length-delimited field (tag 100).
        put_key(&mut bytes, 99, WT_VARINT);
        put_varint(&mut bytes, 42);
        put_len_delimited(&mut bytes, 100, b"future payload");
        let back = decode_features(&bytes).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn corrupted_length_rejected() {
        let fm = sample_features(2);
        let mut bytes = encode_features(&fm);
        let last = bytes.len() - 1;
        bytes.truncate(last); // chop one byte off the final keypoint
        assert!(decode_features(&bytes).is_err());
    }

    #[test]
    fn size_mismatch_rejected() {
        // Hand-built messages whose `dim × count` is not the matrix they
        // carry: 2 features claimed over 1 column; a product that overflows
        // (and wraps to the empty matrix's 0); a zero factor over 1 column.
        for (dim, count, floats) in [(4, 2, 4), (1 << 63, 2, 0), (0, 4, 4), (4, 0, 4)] {
            let mut buf = Vec::new();
            put_key(&mut buf, 1, WT_VARINT);
            put_varint(&mut buf, dim);
            put_key(&mut buf, 2, WT_VARINT);
            put_varint(&mut buf, count);
            let data: Vec<u8> = (0..floats).flat_map(|_| 1.0f32.to_le_bytes()).collect();
            put_len_delimited(&mut buf, 4, &data);
            assert_eq!(
                decode_features(&buf).unwrap_err(),
                WireError::Malformed("matrix size mismatch"),
                "dim {dim} count {count}"
            );
        }
    }

    #[test]
    fn wire_size_is_near_payload_size() {
        // Serialization overhead must stay small (a few % for real sizes).
        let fm = sample_features(384);
        let bytes = encode_features(&fm);
        let payload = 384 * 128 * 4;
        assert!(bytes.len() < payload + 384 * 40 + 64);
    }
}
