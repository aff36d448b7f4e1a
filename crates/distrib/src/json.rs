//! Minimal JSON value, parser and serializer for the REST API.
//!
//! Hand-rolled (the workspace keeps network substrates from-scratch);
//! supports the full JSON grammar except for exotic number formats beyond
//! `f64`, which the API never uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use texid_linalg::bytepass::json_plain_prefix;
use texid_linalg::{active_backend, Backend};

/// The largest integer, 2⁵³ − 1, that a JSON number parsed as `f64` is
/// sure to hold exactly: from 2⁵³ on, neighbouring integers share a value.
const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_991.0;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (sorted keys for deterministic output).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer accessor: a whole number in `0..=2⁵³ − 1`. A larger
    /// literal may have been rounded to another integer by the `f64` parse
    /// (`9007199254740993` reads as `…992`), so it is refused, not guessed.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if (0.0..=MAX_SAFE_INTEGER).contains(v) && v.fract() == 0.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize to a compact string.
    #[allow(clippy::inherent_to_string)] // deliberate: Json::to_string is the API
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `Display` writes the shortest digits that read back to the
            // same bits (an integer without a decimal point, `-0` keeping
            // its sign), and `parse` reads them back exactly.
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`parse`] accepts. The API's
/// bodies nest at most three deep. The parser recurses once per level, so
/// without a bound a body of ten thousand `[` overflows an HTTP worker's
/// 2 MiB stack, which aborts the process.
pub const MAX_DEPTH: usize = 64;

/// Parse a JSON document (must consume all non-whitespace input). Nesting
/// deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    parse_on(active_backend(), input)
}

/// [`parse`] on an explicit kernel backend, which scans strings.
fn parse_on(be: Backend, input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(be, input, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError { at: pos, msg: "trailing characters" });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value, `depth` arrays and objects deep.
fn parse_value(be: Backend, s: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(JsonError { at: *pos, msg: "unexpected end of input" });
    };
    match c {
        b'[' | b'{' if depth == MAX_DEPTH => Err(JsonError { at: *pos, msg: "nested too deep" }),
        b'n' => expect_lit(b, pos, "null", Json::Null),
        b't' => expect_lit(b, pos, "true", Json::Bool(true)),
        b'f' => expect_lit(b, pos, "false", Json::Bool(false)),
        b'"' => Ok(Json::Str(parse_string(be, s, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(be, s, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError { at: *pos, msg: "expected ',' or ']'" }),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(be, s, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(JsonError { at: *pos, msg: "expected ':'" });
                }
                *pos += 1;
                let val = parse_value(be, s, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(JsonError { at: *pos, msg: "expected ',' or '}'" }),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(JsonError { at: *pos, msg: "unexpected character" }),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonError { at: *pos, msg: "bad literal" })
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    // `1e999` parses to infinity, which JSON cannot write back.
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        _ => Err(JsonError { at: start, msg: "invalid number" }),
    }
}

/// A byte that ends a plain run: `"`, `\`, or a control character (RFC
/// 8259 §7 allows U+0000–U+001F in a string only escaped).
fn is_stop(c: u8) -> bool {
    c == b'"' || c == b'\\' || c < 0x20
}

/// Length of the prefix of `b` that holds no [`is_stop`] byte: the bytes a
/// string literal copies verbatim. The 32-byte scan of
/// [`json_plain_prefix`] goes first where the kernel backend has AVX2;
/// from where it stops, this scans eight bytes per step with the
/// zero-byte test `(v - 0x01…) & !v & 0x80…` on the word XORed with each
/// needle, and its less-than form `(v - 0x20…) & !v & 0x80…` for the
/// control characters; the only false positives of either sit above a true
/// hit (a borrow out of a flagged byte), so the lowest flagged byte is
/// exact. Bytes ≥ 0x80 never flag: `!v` clears their high bit.
fn plain_run(be: Backend, b: &[u8]) -> usize {
    let run = json_plain_prefix(be, b);
    run + plain_run_swar(&b[run..])
}

/// The eight-byte scan of [`plain_run`].
fn plain_run_swar(b: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const QUOTES: u64 = ONES * b'"' as u64;
    const BACKSLASHES: u64 = ONES * b'\\' as u64;
    const SPACES: u64 = ONES * b' ' as u64;
    let below = |v: u64, n: u64| v.wrapping_sub(n) & !v & HIGHS;
    let mut words = b.chunks_exact(8);
    let mut run = 0;
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        let hits = below(w ^ QUOTES, ONES) | below(w ^ BACKSLASHES, ONES) | below(w, SPACES);
        if hits != 0 {
            return run + hits.trailing_zeros() as usize / 8;
        }
        run += 8;
    }
    let tail = words.remainder();
    run + tail.iter().position(|&c| is_stop(c)).unwrap_or(tail.len())
}

/// The UTF-16 code unit of a `\uXXXX` escape whose digits start at `at`.
fn hex4(s: &str, at: usize) -> Option<u32> {
    u32::from_str_radix(s.get(at..at + 4)?, 16).ok()
}

fn parse_string(be: Backend, s: &str, pos: &mut usize) -> Result<String, JsonError> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(JsonError { at: *pos, msg: "expected string" });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Everything up to the next quote, backslash or control character
        // is copied as one run. All three are ASCII, so a run never splits
        // a multi-byte character of the (already valid UTF-8) input.
        let run = plain_run(be, &b[*pos..]);
        out.push_str(&s[*pos..*pos + run]);
        *pos += run;
        let Some(&c) = b.get(*pos) else {
            return Err(JsonError { at: *pos, msg: "unterminated string" });
        };
        *pos += 1;
        if c == b'"' {
            return Ok(out);
        }
        if c < 0x20 {
            return Err(JsonError { at: *pos - 1, msg: "control character in string" });
        }
        let Some(&esc) = b.get(*pos) else {
            return Err(JsonError { at: *pos, msg: "unterminated escape" });
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let mut code = hex4(s, *pos).ok_or(JsonError { at: *pos, msg: "bad \\u escape" })?;
                *pos += 4;
                // A high surrogate followed by an escaped low one is one
                // character; either half alone maps to U+FFFD below.
                if (0xd800..0xdc00).contains(&code) && b[*pos..].starts_with(b"\\u") {
                    if let Some(low @ 0xdc00..=0xdfff) = hex4(s, *pos + 2) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        *pos += 6;
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(JsonError { at: *pos, msg: "unknown escape" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use texid_linalg::available_backends;

    /// The byte-at-a-time string parser this module shipped before the run
    /// copy: the oracle `parse_string` must agree with (value, error and
    /// end position) on everything but surrogate-pair escapes. Since raw
    /// control characters are refused, it refuses them too.
    fn parse_string_reference(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
        fn utf8_len(first: u8) -> usize {
            match first {
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            }
        }
        if b.get(*pos) != Some(&b'"') {
            return Err(JsonError { at: *pos, msg: "expected string" });
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = b.get(*pos) else {
                return Err(JsonError { at: *pos, msg: "unterminated string" });
            };
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = b.get(*pos) else {
                        return Err(JsonError { at: *pos, msg: "unterminated escape" });
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if *pos + 4 > b.len() {
                                return Err(JsonError { at: *pos, msg: "bad \\u escape" });
                            }
                            let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                .map_err(|_| JsonError { at: *pos, msg: "bad \\u escape" })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError { at: *pos, msg: "bad \\u escape" })?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(JsonError { at: *pos, msg: "unknown escape" }),
                    }
                }
                c if c < 0x20 => {
                    return Err(JsonError { at: *pos - 1, msg: "control character in string" });
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let len = utf8_len(c);
                    let end = *pos - 1 + len;
                    if end > b.len() {
                        return Err(JsonError { at: *pos, msg: "invalid utf-8" });
                    }
                    let s = std::str::from_utf8(&b[*pos - 1..end])
                        .map_err(|_| JsonError { at: *pos, msg: "invalid utf-8" })?;
                    out.push_str(s);
                    *pos = end;
                }
            }
        }
    }

    /// `parse_string` agrees with the oracle on every backend.
    fn assert_matches_reference(text: &str) {
        let mut old_pos = 0;
        let old = parse_string_reference(text.as_bytes(), &mut old_pos);
        for be in available_backends() {
            let mut new_pos = 0;
            let new = parse_string(be, text, &mut new_pos);
            assert_eq!((new, new_pos), (old.clone(), old_pos), "{be} {text:?}");
        }
    }

    /// The first stop byte, as the oracle's loop meets it.
    fn first_stop(b: &[u8]) -> usize {
        b.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20).unwrap_or(b.len())
    }

    /// On every backend, over multi-byte UTF-8 text: each stop byte at
    /// every offset 0–96 (across the 32-byte steps and into the 8-byte
    /// tail) is found there, a second one behind it changes nothing, and
    /// DEL, space and bytes ≥ 0x80 in its place stop nothing.
    #[test]
    fn plain_run_finds_every_stop_at_every_offset_on_every_backend() {
        let text = "aé語🦀".repeat(12).into_bytes();
        let stops = (0..0x20).chain([b'"', b'\\']);
        for be in available_backends() {
            assert_eq!(plain_run(be, &text), text.len(), "{be}");
            for at in 0..=96 {
                for stop in stops.clone() {
                    let mut b = text.clone();
                    b[at] = stop;
                    assert_eq!(plain_run(be, &b), at, "{be} {stop:#x} at {at}");
                    b[at + 5] = b'"';
                    assert_eq!(plain_run(be, &b), at, "{be} {stop:#x} at {at}, then a quote");
                }
                for plain in [b' ', 0x7f, 0x80, 0xbf, 0xff] {
                    let mut b = text.clone();
                    b[at] = plain;
                    assert_eq!(plain_run(be, &b), first_stop(&b), "{be} {plain:#x} at {at}");
                }
            }
        }
    }

    /// Plain runs of every length 0–64 (every tail of the 8-wide scan),
    /// ended by each of: a quote, each kind of escape, a multi-byte
    /// character, the end of input.
    #[test]
    fn string_matches_reference_at_every_run_length() {
        let plain: String = ('a'..='z').chain('0'..='9').cycle().take(64).collect();
        let enders = [
            "\"", "\\n\"", "\\\"\"", "\\\\\"", "\\u0041\"", "\\u00e9x\"", "\\u+041\"",
            "é\"", "語🦀\"", "\u{1}\"",
            // lone surrogates (a pair is the one input the two disagree on)
            "\\udc00\"", "\\ud83d\"", "\\ud83dx\\ude00\"",
            // malformed: each error arm at its position
            "", "\\", "\\u12", "\\u12\"", "\\x\"", "\\u00é\"",
        ];
        for len in 0..=plain.len() {
            for ender in enders {
                assert_matches_reference(&format!("\"{}{ender} tail", &plain[..len]));
                assert_matches_reference(&format!("\"é{}{ender}", &plain[..len]));
            }
        }
        assert_matches_reference("no quote");
        assert_matches_reference("");
    }

    proptest! {
        #[test]
        fn string_matches_reference_on_escape_heavy_text(
            body in "[a-c\"\\\\/nrtbfux0-9dé🦀 ]{0,64}",
        ) {
            // A surrogate pair is the one input the two disagree on.
            prop_assume!(!["\\ud8", "\\ud9", "\\uda", "\\udb"].iter().any(|h| body.contains(h)));
            assert_matches_reference(&format!("\"{body}\""));
        }

        #[test]
        fn string_matches_reference_on_random_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            assert_matches_reference(&format!("\"{}", String::from_utf8_lossy(&bytes)));
        }

        /// Random bytes from a background of non-stop bytes (so runs are
        /// long enough to cross the 32-byte steps), and random bytes of any
        /// value, with up to three needles of each stop class.
        #[test]
        fn plain_run_finds_the_first_needle(
            plain in prop::collection::vec(0x20u8..=0xff, 0..160),
            noisy in prop::collection::vec(any::<u8>(), 0..160),
            needles in prop::collection::vec((0usize..=96, 0u8..3), 0..3),
        ) {
            for mut bytes in [plain, noisy] {
                for &(at, class) in &needles {
                    if let Some(b) = bytes.get_mut(at) {
                        *b = [b'"', b'\\', 0x1f][class as usize];
                    }
                }
                for be in available_backends() {
                    prop_assert_eq!(plain_run(be, &bytes), first_stop(&bytes));
                }
            }
        }
    }

    #[test]
    fn surrogate_pair_escapes_combine() {
        let s = |text: &str| parse(text).unwrap();
        assert_eq!(s(r#""\ud83d\ude00""#), Json::Str("😀".to_string()));
        assert_eq!(s(r#""a\uD83D\uDE00b""#), Json::Str("a😀b".to_string()));
        // Lone halves, and a pair split by a plain character, stay U+FFFD.
        assert_eq!(s(r#""\ud83d""#), Json::Str("\u{fffd}".to_string()));
        assert_eq!(s(r#""\ude00""#), Json::Str("\u{fffd}".to_string()));
        assert_eq!(s(r#""\ud83dx\ude00""#), Json::Str("\u{fffd}x\u{fffd}".to_string()));
        // A high surrogate followed by a non-low escape keeps both.
        assert_eq!(s(r#""\ud83d\u0041""#), Json::Str("\u{fffd}A".to_string()));
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), Json::Str("\u{fffd}😀".to_string()));
        // ... and a malformed one still fails where it did.
        assert_eq!(parse(r#""\ud83d\uZZZZ""#), Err(JsonError { at: 9, msg: "bad \\u escape" }));
    }

    #[test]
    fn roundtrip_nested() {
        let doc = r#"{"id": 5, "name": "tea", "scores": [1, 2.5, -3], "meta": {"ok": true, "none": null}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("name").unwrap().as_str(), Some("tea"));
        assert_eq!(v.get("scores").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("meta").unwrap().get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("meta").unwrap().get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("id").unwrap().as_bool(), None);
        // Serialize → parse is identity.
        let again = parse(&v.to_string()).unwrap();
        assert_eq!(again, v);
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\tе".to_string()); // includes cyrillic е
        let s = v.to_string();
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".to_string()));
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("[-1e999]"), Err(JsonError { at: 1, msg: "invalid number" }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn raw_control_characters_are_refused_inside_strings_only() {
        let refused = |at| Err(JsonError { at, msg: "control character in string" });
        assert_eq!(parse("\"a\nb\""), refused(2));
        assert_eq!(parse("{\"k\u{1f}\": 1}"), refused(3));
        assert_eq!(parse("[\"\u{0}\"]"), refused(2));
        // Escaped, the same characters are legal; DEL and U+0080 need no escape.
        assert_eq!(parse(r#""a\nb\u001f""#), Ok(Json::Str("a\nb\u{1f}".to_string())));
        assert_eq!(parse("\"\u{7f}\u{80}\""), Ok(Json::Str("\u{7f}\u{80}".to_string())));
        assert_eq!(parse("\r\n[\t1 ,\n2 ]\n"), parse("[1,2]"));
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = parse(&nested(MAX_DEPTH)).expect("the bound itself parses");
        assert_eq!(parse(&deepest.to_string()), Ok(deepest));
        let too_deep = Err(JsonError { at: MAX_DEPTH, msg: "nested too deep" });
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), too_deep);
        assert_eq!(parse(&nested(1_000_000)), too_deep);
        // Objects count the same, and an unclosed body fails at the bound.
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&objects).map_err(|e| e.msg), Err("nested too deep"));
        assert_eq!(parse(&"[".repeat(1_000_000)), too_deep);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn integer_formatting_has_no_decimal_point() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(5.25).to_string(), "5.25");
        assert_eq!(Json::Num(-0.0).to_string(), "-0");
        assert_eq!(Json::Num(1e15).to_string(), "1000000000000000");
    }

    fn round_trip_bits(v: f64) -> u64 {
        parse(&Json::Num(v).to_string()).unwrap().as_f64().unwrap().to_bits()
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        let edges = [0.0, -0.0, 0.1 + 0.2, 1.0 / 3.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, 9e15];
        for v in edges.into_iter().chain([-f64::MAX, 2f64.powi(60)]) {
            assert_eq!(round_trip_bits(v), v.to_bits(), "{v:e}");
        }
    }

    proptest! {
        #[test]
        fn finite_numbers_round_trip_bit_for_bit(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            prop_assume!(v.is_finite());
            prop_assert_eq!(round_trip_bits(v), bits);
        }
    }

    #[test]
    fn object_builder() {
        let v = Json::obj([("a", Json::Num(1.0)), ("b", Json::Bool(false))]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":false}"#);
    }
}
