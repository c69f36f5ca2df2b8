//! Minimal JSON writer and reader, no dependencies.
//!
//! The workspace deliberately vendors a stub `serde` (marker traits only),
//! so run manifests are built and checked with this hand-rolled tree model:
//! [`JsonValue`] renders with stable key order (callers supply ordered
//! pairs) and [`parse`] reads the subset of JSON the manifests use. Numbers
//! round-trip exactly for `u64`/`i64`; floats render with enough precision
//! to re-parse to the same `f64`.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
#[must_use]
pub fn escape(s: &str) -> String {
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

/// A JSON document node.
///
/// Objects are ordered vectors of `(key, value)` pairs, not maps: manifest
/// writers control field order so the emitted files diff cleanly, and
/// [`parse`] preserves the order it reads.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (renders without sign or fraction).
    U64(u64),
    /// A negative integer (only produced for values below zero).
    I64(i64),
    /// A finite float; non-finite values render as `null`.
    F64(f64),
    /// A string (stored unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with explicit field order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor: a string node.
    #[must_use]
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// An integer node choosing `U64` for non-negative values.
    #[must_use]
    pub fn int(v: i64) -> JsonValue {
        if v >= 0 {
            JsonValue::U64(v as u64)
        } else {
            JsonValue::I64(v)
        }
    }

    /// The object's field `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string node.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            JsonValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer that fits.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::I64(v) => Some(*v),
            JsonValue::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented JSON (two spaces per level, trailing newline-free).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => {
                if v.is_finite() {
                    if *v == v.trunc() && v.abs() < 1e15 {
                        // Keep integral floats readable and re-parseable.
                        let _ = write!(out, "{v:.1}");
                    } else if *v != v.trunc() && (1e-4..1e17).contains(&v.abs()) {
                        // Rust's float Display is the shortest decimal that
                        // re-parses to the same f64 — canonical and humane
                        // ("0.22062625", not "2.20626249999999996e-1").
                        let _ = write!(out, "{v}");
                    } else {
                        // Extreme magnitudes: shortest mantissa, explicit
                        // exponent, so tiny/huge values stay compact.
                        let _ = write!(out, "{v:e}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                Self::write_seq(out, indent, level, items.len(), '[', ']', |out, i| {
                    items[i].write(out, indent, level + 1);
                });
            }
            JsonValue::Object(fields) => {
                Self::write_seq(out, indent, level, fields.len(), '{', '}', |out, i| {
                    let (k, v) = &fields[i];
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                });
            }
        }
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        level: usize,
        len: usize,
        open: char,
        close: char,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * (level + 1)));
            }
            item(out, i);
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * level));
        }
        out.push(close);
    }
}

/// A JSON parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// The deepest array/object nesting [`parse`] accepts. The reader
/// recurses once per level, and served request bodies are untrusted, so
/// a bound keeps a body of a million `[` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing whitespace is permitted;
/// trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`JsonParseError`] on malformed input, including numbers
/// outside `u64`/`i64` range (floats are accepted up to `f64`) and
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over plain UTF-8 runs.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
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
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x1_0000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control byte in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>().map(JsonValue::F64).map_err(|_| self.err("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(JsonValue::I64).map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>().map(JsonValue::U64).map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo"), "héllo");
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let doc = JsonValue::Object(vec![
            ("schema".into(), JsonValue::str("ola.run-manifest/v1")),
            ("n".into(), JsonValue::U64(42)),
            ("neg".into(), JsonValue::I64(-7)),
            ("pi".into(), JsonValue::F64(std::f64::consts::PI)),
            ("flag".into(), JsonValue::Bool(true)),
            ("none".into(), JsonValue::Null),
            (
                "items".into(),
                JsonValue::Array(vec![JsonValue::U64(1), JsonValue::str("two\n\"x\"")]),
            ),
            ("empty".into(), JsonValue::Array(vec![])),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&rendered).unwrap(), doc, "{rendered}");
        }
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_bound() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
        // A 1 MiB body of `[` (the served body limit) must fail cleanly,
        // not overflow the stack.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.0, -0.5, 1.0, 1e-12, 123_456.789, f64::MAX, f64::MIN_POSITIVE] {
            let rendered = JsonValue::F64(v).render();
            match parse(&rendered).unwrap() {
                JsonValue::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{rendered}"),
                // Integral floats may re-parse as such via the ".1" form.
                other => panic!("expected float back, got {other:?} from {rendered}"),
            }
        }
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
    }

    /// Regression: the old writer rendered every non-integral float as
    /// 17-significant-digit scientific notation, so BENCH files carried
    /// `"elapsed_secs":2.20626249999999996e-1` instead of `0.22062625`.
    /// Non-extreme floats must render as the shortest plain decimal that
    /// re-parses to the identical bits.
    #[test]
    fn floats_render_shortest_plain_decimal() {
        assert_eq!(JsonValue::F64(0.220_626_25).render(), "0.22062625");
        assert_eq!(JsonValue::F64(36_260.417_788_001_2).render(), "36260.4177880012");
        assert_eq!(JsonValue::F64(0.017_146_524).render(), "0.017146524");
        assert_eq!(JsonValue::F64(-1.5).render(), "-1.5");
        assert_eq!(JsonValue::F64(2.0).render(), "2.0", "integral floats keep the .0 marker");
        // Extreme magnitudes keep exponent form, shortest mantissa.
        assert_eq!(JsonValue::F64(f64::MAX).render(), "1.7976931348623157e308");
        assert_eq!(JsonValue::F64(1e-300).render(), "1e-300");
        // Every form still round-trips bit-exactly.
        for v in [0.220_626_25, 1e18, -1e18, 1e-300, f64::MIN_POSITIVE, 9.99e16, 1.01e-4] {
            match parse(&JsonValue::F64(v).render()).unwrap() {
                JsonValue::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{v}"),
                other => panic!("expected float back, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = parse(r#""aA\n\té 😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA\n\té 😀");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "01x", "{\"a\":}", "1 2", "nul", "-"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse("[1, @]").unwrap_err();
        assert!(err.offset >= 4, "{err}");
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"a": {"b": [1, -2, "s"]}, "t": true}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_i64(), Some(-2));
        assert_eq!(arr[2].as_str(), Some("s"));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::int(-3), JsonValue::I64(-3));
        assert_eq!(JsonValue::int(3), JsonValue::U64(3));
        assert_eq!(v.as_object().unwrap().len(), 2);
    }
}
