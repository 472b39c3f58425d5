//! The workspace's one JSON reader, and the two helpers its hand-rolled
//! writers share.
//!
//! The workspace carries no serde. Every exporter (Chrome traces, metrics
//! and profile snapshots, `BENCH_*.json` tables) writes its JSON by hand
//! with [`escape_json`] and [`json_f64`], and everything that reads JSON
//! back — the Chrome-trace check
//! ([`validate_chrome_json`](crate::validate_chrome_json)), the
//! bench-regression gate, the table writer's own check, the exporters'
//! tests — goes through [`parse_json`]. It is deliberately minimal:
//! numbers become `f64`, objects preserve key order as written, and errors
//! carry a byte offset for debugging hand-rolled writers.

use std::fmt::Write as _;

/// Maximum nesting depth [`parse_json`] accepts before reporting an
/// error instead of recursing further. Our exporters nest a handful of
/// levels; anything deeper is a malformed or adversarial document, and
/// bounding the recursion keeps the parser total (no stack overflow on
/// `[[[[…`).
pub const MAX_JSON_DEPTH: usize = 128;

/// A typed [`parse_json`] error: what went wrong and the byte offset
/// where the parser stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl JsonError {
    fn new(offset: usize, detail: impl Into<String>) -> JsonError {
        JsonError {
            offset,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.detail, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Objects are represented as ordered `(key, value)` pairs — the
/// documents we parse are written by our own deterministic exporters,
/// and preserving their order keeps diffs readable.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object entries in document order, if it is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format a float for JSON (and Prometheus text): Rust's shortest-roundtrip
/// `Display` for finite values, `0` for non-finite ones, which JSON cannot
/// represent. The workspace's exported floats are seconds, byte counts and
/// fractions, so a non-finite value is already a bug upstream.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parse a JSON document into a [`JsonValue`] tree.
///
/// Total over arbitrary input: malformed documents — including ones
/// nested deeper than [`MAX_JSON_DEPTH`] — yield a typed [`JsonError`]
/// carrying the byte offset where parsing failed, never a panic.
/// Rejects trailing garbage.
///
/// ```
/// use kw_gpu_sim::{parse_json, JsonValue};
/// let doc = parse_json("{\"rows\": [{\"qps\": 1.5}]}").unwrap();
/// let rows = doc.get("rows").unwrap().as_array().unwrap();
/// assert_eq!(rows[0].get("qps").unwrap().as_f64(), Some(1.5));
/// assert!(parse_json("{oops}").is_err());
/// ```
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(p.pos, "trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                format!("expected '{}'", b as char),
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_JSON_DEPTH {
            return Err(JsonError::new(
                self.pos,
                format!("nesting deeper than {MAX_JSON_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::new(
                self.pos,
                format!("unexpected '{}'", b as char),
            )),
            None => Err(JsonError::new(self.pos, "unexpected end of input")),
        };
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(self.pos, "bad literal"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::new(self.pos, "truncated \\u"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|s| u32::from_str_radix(s, 16).ok())
                                .ok_or_else(|| JsonError::new(self.pos, "bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The document arrived as
                    // &str, so every position is either a boundary or
                    // mid-scalar; `str::get` refuses mid-scalar slices,
                    // which cannot happen here because we only ever
                    // advance by whole scalars or over ASCII bytes.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| JsonError::new(self.pos, "bad UTF-8 boundary"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(JsonError::new(self.pos, "unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // The scanned slice is ASCII by construction ('-', digits, '.',
        // 'e', 'E', '+'), so it is always valid UTF-8.
        let text = self.text.get(start..self.pos).unwrap_or("");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError::new(start, format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse_json(
            "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\ny\"}, \"d\": true, \"e\": null}",
        )
        .unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("e"), Some(&JsonValue::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "123 456",
            "\"open",
            "{\"a\":}",
            "tru",
            "[1, 2",
            "\"bad \\u12",
            "\"bad \\q\"",
            "-",
            "1e",
        ] {
            assert!(parse_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = parse_json("{\"a\": nope}").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"), "got: {err}");
        let err = parse_json("[1, 2] junk").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.detail.contains("trailing garbage"));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Far past MAX_JSON_DEPTH: must return an error, not blow the stack.
        let bomb = "[".repeat(100_000);
        let err = parse_json(&bomb).unwrap_err();
        assert!(err.detail.contains("nesting"), "got: {err}");
        // A document at a legal depth still parses.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH - 1),
            "]".repeat(MAX_JSON_DEPTH - 1)
        );
        assert!(parse_json(&deep).is_ok());
    }

    #[test]
    fn multibyte_strings_roundtrip() {
        let doc = parse_json("{\"k\": \"héllo — ∑ ✓\"}").unwrap();
        assert_eq!(doc.get("k").unwrap().as_str(), Some("héllo — ∑ ✓"));
    }

    #[test]
    fn roundtrips_registry_export() {
        let mut m = crate::MetricsRegistry::default();
        m.inc("c", 7);
        m.set_gauge("g", 0.125);
        m.observe("h", 42);
        let doc = parse_json(&m.to_json()).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("c").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(0.125)
        );
        let h = doc.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(h.get("sum").unwrap().as_f64(), Some(42.0));
    }
}
