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
//! | f16 matrix data | 6 | length-delimited packed binary16 LE (column-major), values `x · scale` |
//! | f16 scale | 7 | varint (the f32 bit pattern; positive and finite) |
//!
//! A message carries its matrix in one form: f32 in field 4, or f16 in
//! field 6 with its scale in field 7 — never both, and never a scale without
//! the f16 matrix ([`WireError::Malformed`] otherwise). A client sends
//! either; the feature store keeps the form the engine indexes
//! ([`encode_block`]), so an F16 reference rests at two bytes per element.
//! [`encode_features`] writes the f32 form, byte for byte what it always
//! wrote; [`decode_features`] reads both, widening the f16 form.

use texid_knn::FeatureBlock;
use texid_linalg::{Mat, MatF16, F16};
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

/// A decoded `FeatureMatrix` message in the form it was written: the
/// descriptors as a [`FeatureBlock`] (`F32` from field 4, `F16` with its
/// scale from fields 6–7) and one keypoint per column.
#[derive(Clone, Debug)]
pub struct WireFeatures {
    /// `dim × count` descriptors, in the message's form.
    pub block: FeatureBlock,
    /// One per descriptor column.
    pub keypoints: Vec<Keypoint>,
    /// Whether the descriptors were RootSIFT-transformed.
    pub rootsift: bool,
}

/// The matrix of a message about to be written, in one form.
enum Matrix<'a> {
    F32(&'a [f32]),
    F16(&'a [F16], f32),
}

/// Bytes the LEB128 varint of `v` takes.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Bytes of a keypoint's payload: eight f32 and the octave's varint.
fn keypoint_len(kp: &Keypoint) -> usize {
    32 + varint_len(kp.octave as u64)
}

/// Write `values` into `buf`'s next `values.len() * N` bytes, one
/// little-endian `N`-byte word each, in one pass over memory `buf` grows
/// into once.
fn put_words<T: Copy, const N: usize>(buf: &mut Vec<u8>, values: &[T], le: impl Fn(T) -> [u8; N]) {
    let at = buf.len();
    buf.resize(at + values.len() * N, 0);
    for (out, &v) in buf[at..].chunks_exact_mut(N).zip(values) {
        out.copy_from_slice(&le(v));
    }
}

/// The message, written into one buffer of exactly its length. Every
/// field key is one byte (tags below 16).
fn encode_message(
    (dim, count, rootsift): (usize, usize, bool),
    matrix: Matrix<'_>,
    keypoints: &[Keypoint],
) -> Vec<u8> {
    let varint_field = |v: u64| 1 + varint_len(v);
    let len_field = |n: usize| 1 + varint_len(n as u64) + n;
    let (data_bytes, scale_field) = match matrix {
        Matrix::F32(v) => (v.len() * 4, 0),
        Matrix::F16(v, scale) => (v.len() * 2, varint_field(scale.to_bits().into())),
    };
    let len = varint_field(dim as u64)
        + varint_field(count as u64)
        + varint_field(rootsift.into())
        + len_field(data_bytes)
        + scale_field
        + keypoints.iter().map(|kp| len_field(keypoint_len(kp))).sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    put_key(&mut buf, 1, WT_VARINT);
    put_varint(&mut buf, dim as u64);
    put_key(&mut buf, 2, WT_VARINT);
    put_varint(&mut buf, count as u64);
    put_key(&mut buf, 3, WT_VARINT);
    put_varint(&mut buf, rootsift as u64);

    match matrix {
        Matrix::F32(values) => {
            put_key(&mut buf, 4, WT_LEN);
            put_varint(&mut buf, data_bytes as u64);
            put_words(&mut buf, values, f32::to_le_bytes);
        }
        Matrix::F16(values, scale) => {
            put_key(&mut buf, 6, WT_LEN);
            put_varint(&mut buf, data_bytes as u64);
            put_words(&mut buf, values, |v| v.to_bits().to_le_bytes());
            put_key(&mut buf, 7, WT_VARINT);
            put_varint(&mut buf, scale.to_bits() as u64);
        }
    }

    for kp in keypoints {
        put_key(&mut buf, 5, WT_LEN);
        put_varint(&mut buf, keypoint_len(kp) as u64);
        encode_keypoint(&mut buf, kp);
    }
    debug_assert_eq!(buf.len(), len, "the message is the length it was sized at");
    buf
}

/// Serialize a feature matrix (the f32 form).
pub fn encode_features(fm: &FeatureMatrix) -> Vec<u8> {
    let shape = (fm.dim(), fm.len(), fm.rootsift);
    encode_message(shape, Matrix::F32(fm.mat.as_slice()), &fm.keypoints)
}

/// Serialize descriptors in the form `block` holds them — f16 bits and
/// their scale for an `F16` block, exactly [`encode_features`] for an `F32`
/// one — with their keypoints (one per column).
pub fn encode_block(block: &FeatureBlock, keypoints: &[Keypoint], rootsift: bool) -> Vec<u8> {
    let shape = (block.rows(), block.cols(), rootsift);
    let matrix = match block {
        FeatureBlock::F32(mat) => Matrix::F32(mat.as_slice()),
        FeatureBlock::F16 { mat, scale } => Matrix::F16(mat.as_slice(), *scale),
    };
    encode_message(shape, matrix, keypoints)
}

/// Deserialize a feature matrix, widening (and unscaling) the f16 form.
pub fn decode_features(buf: &[u8]) -> Result<FeatureMatrix, WireError> {
    let WireFeatures { block, keypoints, rootsift } = decode_block(buf)?;
    let mat = match block {
        FeatureBlock::F32(mat) => mat,
        f16 => f16.to_f32(),
    };
    Ok(FeatureMatrix { keypoints, mat, rootsift })
}

/// Deserialize a message in the form it was written.
pub fn decode_block(buf: &[u8]) -> Result<WireFeatures, WireError> {
    let mut pos = 0usize;
    let mut dim = None;
    let mut count = None;
    let mut rootsift = false;
    let mut wide: Option<Vec<f32>> = None;
    let mut half: Option<Vec<F16>> = None;
    let mut scale = None;
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
                wide = Some(
                    raw.chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect(),
                );
            }
            (5, WT_LEN) => {
                let raw = get_slice(buf, &mut pos)?;
                keypoints.push(decode_keypoint(raw)?);
            }
            (6, WT_LEN) => {
                let raw = get_slice(buf, &mut pos)?;
                if raw.len() % 2 != 0 {
                    return Err(WireError::Malformed("f16 matrix bytes not a multiple of 2"));
                }
                half = Some(
                    raw.chunks_exact(2)
                        .map(|c| F16::from_bits(u16::from_le_bytes([c[0], c[1]])))
                        .collect(),
                );
            }
            (7, WT_VARINT) => scale = Some(get_varint(buf, &mut pos)?),
            (_, wt) => skip_field(buf, &mut pos, wt)?, // forward compatibility
        }
    }

    let dim = dim.ok_or(WireError::Malformed("missing dim"))?;
    let count = count.ok_or(WireError::Malformed("missing count"))?;
    // Both factors are payload varints: their product may not fit.
    let sized = |len: usize| {
        if dim.checked_mul(count) == Some(len) {
            Ok(())
        } else {
            Err(WireError::Malformed("matrix size mismatch"))
        }
    };
    let block = match (wide, half, scale) {
        (Some(_), Some(_), _) => return Err(WireError::Malformed("both matrix forms")),
        (Some(_), None, Some(_)) => return Err(WireError::Malformed("scale without f16 matrix")),
        (Some(data), None, None) => {
            sized(data.len())?;
            FeatureBlock::F32(Mat::from_col_major(dim, count, data))
        }
        (None, Some(_), None) => return Err(WireError::Malformed("missing f16 scale")),
        (None, Some(data), Some(bits)) => {
            sized(data.len())?;
            let scale = u32::try_from(bits).map(f32::from_bits).unwrap_or(f32::NAN);
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(WireError::Malformed("f16 scale not positive and finite"));
            }
            FeatureBlock::F16 { mat: MatF16::from_col_major(dim, count, data), scale }
        }
        (None, None, _) => return Err(WireError::Malformed("missing matrix")),
    };
    if keypoints.len() != count {
        return Err(WireError::Malformed("keypoint count mismatch"));
    }
    Ok(WireFeatures { block, keypoints, rootsift })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn put_len_delimited(buf: &mut Vec<u8>, tag: u32, payload: &[u8]) {
        put_key(buf, tag, WT_LEN);
        put_varint(buf, payload.len() as u64);
        buf.extend_from_slice(payload);
    }

    /// The per-element encoder this module shipped before: the oracle the
    /// one-pass `encode_message` must match byte for byte.
    fn encode_message_reference(
        (dim, count, rootsift): (usize, usize, bool),
        matrix: Matrix<'_>,
        keypoints: &[Keypoint],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key(&mut buf, 1, WT_VARINT);
        put_varint(&mut buf, dim as u64);
        put_key(&mut buf, 2, WT_VARINT);
        put_varint(&mut buf, count as u64);
        put_key(&mut buf, 3, WT_VARINT);
        put_varint(&mut buf, rootsift as u64);
        match matrix {
            Matrix::F32(values) => {
                put_key(&mut buf, 4, WT_LEN);
                put_varint(&mut buf, values.len() as u64 * 4);
                values.iter().for_each(|v| buf.extend_from_slice(&v.to_le_bytes()));
            }
            Matrix::F16(values, scale) => {
                put_key(&mut buf, 6, WT_LEN);
                put_varint(&mut buf, values.len() as u64 * 2);
                values.iter().for_each(|v| buf.extend_from_slice(&v.to_bits().to_le_bytes()));
                put_key(&mut buf, 7, WT_VARINT);
                put_varint(&mut buf, scale.to_bits() as u64);
            }
        }
        for kp in keypoints {
            let mut kb = Vec::with_capacity(36);
            encode_keypoint(&mut kb, kp);
            put_len_delimited(&mut buf, 5, &kb);
        }
        buf
    }

    /// `len` pseudo-random words from `seed` (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// F32 and F16 blocks of 0–400 columns, any bit patterns (NaN
        /// payloads included), keypoints with any octave: the one-pass
        /// encoder writes the reference encoder's bytes, in a buffer sized
        /// exactly.
        #[test]
        fn one_pass_encoder_writes_the_reference_bytes(
            cols in 0usize..=400,
            dim in prop_oneof![Just(128usize), 1usize..20],
            half in any::<bool>(),
            rootsift in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let words = noise(dim * cols + 9 * cols + 1, seed);
            let (elements, rest) = words.split_at(dim * cols);
            let keypoints: Vec<Keypoint> = rest[1..]
                .chunks_exact(9)
                .map(|w| {
                    let f = |i: usize| f32::from_bits(w[i] as u32);
                    Keypoint {
                        x: f(0),
                        y: f(1),
                        sigma: f(2),
                        orientation: f(3),
                        response: f(4),
                        interval: f(5),
                        oct_x: f(6),
                        oct_y: f(7),
                        // Small octaves mostly, every varint length sometimes.
                        octave: (w[8] >> (w[8] % 64)) as usize,
                    }
                })
                .collect();
            let block = if half {
                let bits = elements.iter().map(|&w| F16::from_bits(w as u16)).collect();
                let scale = f32::from_bits(rest[0] as u32 & 0x7f7f_ffff).max(f32::MIN_POSITIVE);
                FeatureBlock::F16 { mat: MatF16::from_col_major(dim, cols, bits), scale }
            } else {
                let values = elements.iter().map(|&w| f32::from_bits(w as u32)).collect();
                FeatureBlock::F32(Mat::from_col_major(dim, cols, values))
            };
            let matrix = match &block {
                FeatureBlock::F32(mat) => Matrix::F32(mat.as_slice()),
                FeatureBlock::F16 { mat, scale } => Matrix::F16(mat.as_slice(), *scale),
            };
            let want = encode_message_reference((dim, cols, rootsift), matrix, &keypoints);
            let got = encode_block(&block, &keypoints, rootsift);
            prop_assert_eq!(got.len(), want.len());
            prop_assert!(got == want, "bytes differ ({} columns, half {})", cols, half);
            prop_assert_eq!(got.capacity(), got.len());
        }
    }

    #[test]
    fn varint_len_is_what_put_varint_writes() {
        for v in
            (0..64).flat_map(|b| [1u64 << b, (1u64 << b) - 1, (1u64 << b) + 1]).chain([u64::MAX])
        {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
        }
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
    fn encode_features_writes_the_bytes_it_always_wrote() {
        // The f32 form is what every client and the benchmark send: pinned
        // as a length and a CRC32C of one fixed message.
        let mat = Mat::from_fn(128, 24, |r, c| ((r * 31 + c * 7) % 97) as f32 / 97.0 - 0.25);
        let mut fm = FeatureMatrix::from_mat(mat, true);
        for (i, kp) in fm.keypoints.iter_mut().enumerate() {
            kp.x = i as f32 * 1.5;
            kp.y = 300.0 - i as f32;
            kp.octave = i % 4;
        }
        let bytes = encode_features(&fm);
        assert_eq!((bytes.len(), texid_store::crc32c(&bytes)), (13_138, 0x2ea2_0e7c));
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
