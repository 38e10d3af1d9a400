//! A minimal JSON writer and parser.
//!
//! The workspace is built offline (no `serde`), so both directions are
//! hand-rolled and deliberately small:
//!
//! * **writing** — [`ObjectWriter`]/[`array()`] emit deterministic JSON (object
//!   keys come from `BTreeMap` iteration or fixed field order in the
//!   callers); this is what reports, JSONL run streams and checkpoint
//!   manifests are rendered with;
//! * **parsing** — [`JsonValue::parse`] is a strict recursive-descent parser
//!   for the inputs the crate itself consumes: campaign spec files
//!   ([`Campaign::from_json_str`](crate::Campaign::from_json_str)), JSONL run
//!   streams ([`read_jsonl_records`](crate::sink::read_jsonl_records)) and
//!   checkpoint manifests.  Object member order is **preserved** (not
//!   sorted), which is what keeps a spec file's grid-axis order — and with it
//!   the canonical run order — exactly as written.
//!
//! Numbers keep their raw source text ([`JsonValue::Number`]) so integer
//! fields round-trip exactly even above 2⁵³ — checkpoint manifests persist
//! `f64` aggregates as their IEEE-754 bit patterns in `u64` fields, which a
//! lossy parse through `f64` would corrupt.

use std::fmt::Write as _;

/// Escapes a string for use inside a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for use inside a JSON string literal
/// (without quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
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
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, v);
    out
}

/// Appends `v` to `out` as [`number`] formats it.
fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An incremental writer for one JSON object: `{"k": v, ...}`.
///
/// Every field is written in place: keys and strings are escaped, and
/// numbers formatted, straight into the buffer.  Inside the crate a writer
/// can also open on the end of a reused buffer and hand it back closed, so
/// hot paths render without allocating once that buffer has grown to fit.
#[derive(Debug)]
pub struct ObjectWriter {
    /// What the buffer held before this object, its `{`, then its fields.
    out: String,
    /// The length of `out` just past this object's `{`.
    fields_from: usize,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        ObjectWriter::new()
    }
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjectWriter::append_to(String::new())
    }

    /// Starts an empty object at the end of `out`, which
    /// [`close`](Self::close) hands back.
    pub(crate) fn append_to(mut out: String) -> Self {
        out.push('{');
        let fields_from = out.len();
        ObjectWriter { out, fields_from }
    }

    /// Closes the object and returns the whole buffer.
    pub(crate) fn close(mut self) -> String {
        self.out.push('}');
        self.out
    }

    fn push_key(&mut self, key: &str) {
        if self.out.len() > self.fields_from {
            self.out.push(',');
        }
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.push_key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Adds a numeric field (`null` for non-finite values).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.push_key(key);
        number_into(&mut self.out, value);
        self
    }

    /// Adds an integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.push_key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.push_key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push_key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.push_key(key);
        self.out.push_str(json);
        self
    }

    /// Adds a field whose raw JSON value `write` appends to the buffer.
    pub(crate) fn raw_with(&mut self, key: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        self.push_key(key);
        write(&mut self.out);
        self
    }

    /// Adds a field whose value is an object `fill` writes in place.
    pub(crate) fn object(&mut self, key: &str, fill: impl FnOnce(&mut ObjectWriter)) -> &mut Self {
        self.push_key(key);
        let mut inner = ObjectWriter::append_to(std::mem::take(&mut self.out));
        fill(&mut inner);
        self.out = inner.close();
        self
    }

    /// Adds an array-of-integers field.
    pub(crate) fn u64s(&mut self, key: &str, values: impl IntoIterator<Item = u64>) -> &mut Self {
        self.push_key(key);
        self.out.push('[');
        for (index, value) in values.into_iter().enumerate() {
            if index > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{value}");
        }
        self.out.push(']');
        self
    }

    /// Finishes the object.
    pub fn finish(&self) -> String {
        let object = &self.out[self.fields_from - 1..];
        let mut text = String::with_capacity(object.len() + 1);
        text.push_str(object);
        text.push('}');
        text
    }
}

/// Renders an array from already-rendered JSON elements.
pub fn array(elements: &[String]) -> String {
    format!("[{}]", elements.join(","))
}

/// A parsed JSON value.
///
/// Two deliberate deviations from the usual tree shape:
///
/// * objects are an **ordered** list of members, so consumers that care about
///   source order (grid axes in a campaign spec file) see it;
/// * numbers keep their **raw source text**, so `u64` fields (seeds, f64 bit
///   patterns in checkpoint manifests) can be re-parsed exactly instead of
///   being forced through a lossy `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw (validated) source text.
    Number(String),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in source order (duplicate keys are rejected).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing garbage is an error).
    ///
    /// Strict by intent: no comments, no trailing commas, no bare NaN or
    /// Infinity — a campaign spec or checkpoint that needs relaxation is a
    /// bug, not an input class.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// Looks up an object member by key (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number (`null` maps to NaN so JSONL
    /// metric streams — where the writer renders non-finite values as `null`
    /// — survive a round-trip as non-finite).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an exact non-negative integer (parsed
    /// from the raw text, so the full `u64` range round-trips).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an exact integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Number(_) => "a number",
            JsonValue::String(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
        }
    }
}

/// Maximum container nesting the parser accepts.  Recursive descent uses the
/// call stack, so without a cap a corrupt or adversarial document of a few
/// hundred KB of `[` would abort the process with a stack overflow instead
/// of returning the parse error the checkpoint/spec loaders promise.  No
/// legitimate spec, manifest or JSONL line comes anywhere near 128 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> String {
        // Report a 1-based line:column so errors in hand-written spec files
        // are findable.
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = consumed.iter().filter(|b| **b == b'\n').count() + 1;
        let column = consumed.iter().rev().take_while(|b| **b != b'\n').count() + 1;
        format!("JSON error at line {line}, column {column}: {message}")
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(&format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.error(&format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    /// Bumps the container nesting depth, rejecting documents past
    /// [`MAX_DEPTH`] so corrupt input fails with an error, not a stack
    /// overflow.
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must
                                // follow to form one code point.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("unpaired UTF-16 surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid UTF-16 surrogate pair"));
                                }
                                let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(b) if b < 0x80 => {
                    // Plain ASCII, the dominant case: no UTF-8 decoding.
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // One multi-byte UTF-8 scalar: decode at most its 4
                    // bytes (the input is a &str, so the sequence starting
                    // here is valid; the window may merely cut a *following*
                    // character short, which valid_up_to tolerates).
                    // Validating the whole remaining document here would
                    // make string parsing quadratic.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        Err(e) => std::str::from_utf8(&window[..e.valid_up_to()])
                            .expect("valid_up_to is a char boundary"),
                    };
                    let c = valid.chars().next().expect("input was a &str");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits (after `\u`) and advances past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid unicode escape"))?;
        let unit =
            u32::from_str_radix(text, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(b'0'..=b'9') = self.peek() {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number: expected digits after '.'"));
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number: expected exponent digits"));
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        Ok(JsonValue::Number(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_and_array_rendering() {
        let mut o = ObjectWriter::new();
        o.string("name", "x").u64("runs", 3).f64("mean", 0.5).bool("ok", true);
        o.raw("inner", &array(&["1".to_string(), "2".to_string()]));
        assert_eq!(o.finish(), r#"{"name":"x","runs":3,"mean":0.5,"ok":true,"inner":[1,2]}"#);
    }

    #[test]
    fn object_writer_escapes_and_formats_in_place_like_escape_and_number() {
        for text in [
            "plain",
            "quote \" and backslash \\",
            "\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f} \n\r\t",
            "ünïcode 🚗 \u{7f}\u{2028}",
            "",
        ] {
            let mut o = ObjectWriter::new();
            o.string(text, text);
            let expected = format!("{{\"{}\":\"{}\"}}", escape(text), escape(text));
            assert_eq!(o.finish(), expected, "{text:?}");
        }
        for value in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            f64::MAX,
            -1e21,
            0.1 + 0.2,
        ] {
            let mut o = ObjectWriter::new();
            o.f64("v", value);
            assert_eq!(o.finish(), format!("{{\"v\":{}}}", number(value)), "{value:?}");
            let literal = if value.is_finite() { format!("{value}") } else { "null".into() };
            assert_eq!(number(value), literal, "{value:?}");
        }
        assert_eq!(number(-0.0), "-0");
        assert_eq!(escape("\"\\\u{0}é"), "\\\"\\\\\\u0000é");
    }

    #[test]
    fn nested_writers_render_in_place_like_finished_ones() {
        let mut inner = ObjectWriter::new();
        inner.u64("a", 1).string("b", "x");
        let mut o = ObjectWriter::new();
        o.raw("raw", &inner.finish()).raw("arr", &array(&["1".to_string(), "2".to_string()]));
        let mut in_place = ObjectWriter::append_to("prefix ".to_string());
        in_place
            .object("raw", |nested| {
                nested.u64("a", 1).string("b", "x");
            })
            .u64s("arr", [1, 2])
            .object("empty", |_| {})
            .u64s("none", []);
        o.raw("empty", "{}").raw("none", "[]");
        assert_eq!(in_place.finish(), o.finish());
        assert_eq!(in_place.close(), format!("prefix {}", o.finish()));
    }

    #[test]
    fn parser_handles_the_full_value_grammar() {
        let doc = r#" {"a": [1, -2.5, 1e3, true, false, null], "b": {"nested": "v"}, "c": ""} "#;
        let v = JsonValue::parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[5], JsonValue::Null);
        assert!(a[5].as_f64().unwrap().is_nan(), "null reads back as NaN for metric streams");
        assert_eq!(v.get("b").unwrap().get("nested").unwrap().as_str(), Some("v"));
        assert_eq!(v.get("c").unwrap().as_str(), Some(""));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_preserves_object_member_order() {
        let v = JsonValue::parse(r#"{"zeta": 1, "alpha": 2, "mid": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["zeta", "alpha", "mid"], "source order, not sorted order");
    }

    #[test]
    fn parser_keeps_raw_number_text_for_exact_u64() {
        // 2^63 + 27 is not representable in f64; the raw-text path keeps it.
        let v = JsonValue::parse("9223372036854775835").unwrap();
        assert_eq!(v.as_u64(), Some(9_223_372_036_854_775_835));
        assert_eq!(v.as_i64(), None, "out of i64 range");
    }

    #[test]
    fn parser_string_escapes_round_trip_the_writer() {
        let original = "tab\t, quote\", backslash\\, newline\n, control\u{1}, ünïcode 🚗";
        let doc = format!("{{\"k\":\"{}\"}}", escape(original));
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
        // Surrogate pairs parse back to the astral code point.
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (doc, needle) in [
            ("", "unexpected end"),
            ("{", "expected"),
            (r#"{"a":1,}"#, "expected"),
            (r#"{"a":1} extra"#, "trailing"),
            (r#"{"a":1,"a":2}"#, "duplicate"),
            ("[1 2]", "expected"),
            ("01", "trailing"),
            ("1.", "digits after"),
            ("1e", "exponent"),
            ("nul", "null"),
            (r#""\ud800""#, "surrogate"),
            ("\"a\nb\"", "control character"),
        ] {
            let err = JsonValue::parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc:?}: {err}");
            assert!(err.contains("line"), "errors carry a position: {err}");
        }
    }

    #[test]
    fn parser_reports_line_and_column() {
        let err = JsonValue::parse("{\n  \"a\": nope\n}").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn parser_rejects_pathological_nesting_without_overflowing() {
        // Within the cap: fine.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&ok).is_ok());
        // Past the cap: a parse error, not a stack-overflow abort.
        let deep = "[".repeat(200_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let mixed = "{\"a\":".repeat(200_000);
        assert!(JsonValue::parse(&mixed).unwrap_err().contains("nesting"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MB of mixed ASCII + multi-byte content; quadratic rescanning
        // would make this take minutes rather than milliseconds.
        let body: String = "abcdefé🚗".repeat(100_000);
        let doc = format!("{{\"k\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(body.as_str()));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "string parsing must be linear, took {:?}",
            start.elapsed()
        );
    }
}
