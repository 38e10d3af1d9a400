//! A minimal JSON writer, pull reader and tree.
//!
//! The workspace is built offline (no `serde`), so both directions are
//! hand-rolled and deliberately small:
//!
//! * **writing** — [`ObjectWriter`]/[`array()`] emit deterministic JSON (object
//!   keys come from `BTreeMap` iteration or fixed field order in the
//!   callers); this is what reports, JSONL run streams and checkpoint
//!   manifests are rendered with;
//! * **reading** — one strict pull reader (crate-private) holds the grammar:
//!   the caller steps through a document value by value, keys and number
//!   text borrow from the input, and whatever the caller does not need is
//!   validated and skipped without being built.  It refuses what a strict
//!   parser should — no comments, trailing commas, bare NaN or Infinity,
//!   nesting past 128 levels or a repeated key in any object — naming the
//!   line and column.  Two loaders read through it directly:
//!   [`read_jsonl_records`](crate::sink::read_jsonl_records) (and the
//!   campaign-aware [`Campaign::read_jsonl_records`](crate::Campaign::read_jsonl_records))
//!   fill each line's record from its `run`, `clamped_schedules` and
//!   `metrics`, and [`CheckpointManifest::parse`](crate::CheckpointManifest::parse)
//!   fills the point accumulators straight from `points`;
//! * **the tree** — [`JsonValue::parse`] builds a [`JsonValue`] on the same
//!   reader, so it accepts and refuses exactly the same documents.  Campaign
//!   spec files ([`Campaign::from_json_str`](crate::Campaign::from_json_str)),
//!   fault plans, shard manifests and the checkpoint manifest's small header
//!   go through the tree.  Object member order is **preserved** (not
//!   sorted), which is what keeps a spec file's grid-axis order — and with it
//!   the canonical run order — exactly as written.
//!
//! Numbers keep their raw source text ([`JsonValue::Number`]) so integer
//! fields round-trip exactly even above 2⁵³ — checkpoint manifests persist
//! `f64` aggregates as their IEEE-754 bit patterns in `u64` fields, which a
//! lossy parse through `f64` would corrupt.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Escapes a string for use inside a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for use inside a JSON string literal
/// (without quotes).  A string with nothing to escape — no `"`, `\` or
/// control character — is appended whole.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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

/// Appends `value` in decimal, as `format!("{value}")` would, from a stack
/// buffer rather than through `fmt`.
fn u64_into(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

/// Appends `value` in decimal, as `format!("{value}")` would.
fn i64_into(out: &mut String, value: i64) {
    if value < 0 {
        out.push('-');
    }
    u64_into(out, value.unsigned_abs());
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
        u64_into(&mut self.out, value);
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.push_key(key);
        i64_into(&mut self.out, value);
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
            u64_into(&mut self.out, value);
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
    /// bug, not an input class.  The tree is built on the module's pull
    /// reader, so it accepts and refuses exactly what the loaders that read
    /// without a tree do.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut reader = JsonReader::new(text);
        let token = reader.value()?;
        let value = reader.build(token)?;
        reader.finish()?;
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

/// Maximum container nesting the reader accepts.  No legitimate spec,
/// manifest or JSONL line comes anywhere near 128 levels; the cap bounds the
/// reader's frame stack and the depth of [`JsonReader::build`]'s recursion,
/// so a corrupt or adversarial document of a few hundred KB of `[` is a
/// parse error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// One value as [`JsonReader::value`] reads it: a scalar whole, a container
/// by its opening bracket.
#[derive(Debug, PartialEq)]
pub(crate) enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's validated source text.
    Number(&'a str),
    /// A string, escapes resolved: borrowed from the input unless it held an
    /// escape.
    String(Cow<'a, str>),
    /// `[`: read the items with [`JsonReader::next_item`].
    Array,
    /// `{`: read the members with [`JsonReader::next_key`].
    Object,
}

/// One open container of a [`JsonReader`].
struct Open {
    object: bool,
    /// True until the container's first member or item.
    empty: bool,
    /// Where this object's keys start in [`JsonReader::keys`].
    keys_from: usize,
    /// True while this object's keys have come in strictly increasing
    /// order, so a key greater than the last cannot repeat an earlier one.
    ascending: bool,
}

/// A strict pull reader over one JSON document that allocates nothing per
/// value.
///
/// The caller walks the document: [`value`](Self::value) reads the next
/// value, [`next_key`](Self::next_key) steps through an object's members
/// and [`next_item`](Self::next_item) through an array's items, and
/// [`skip`](Self::skip) validates the rest of a container without building
/// anything.  Keys and number text borrow from the input; only a string that
/// holds an escape is copied.  Every document is checked whole — grammar,
/// the [`MAX_DEPTH`] cap and duplicate keys at every level, the skipped
/// parts included — and a refusal names its 1-based line and column.  Its
/// two buffers (open containers, open objects' keys) survive
/// [`reset`](Self::reset), so a reader reused line after line allocates
/// only for strings with escapes.  [`JsonValue::parse`] builds its tree on
/// this reader, so the grammar is written once.
pub(crate) struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// The open containers, innermost last.
    open: Vec<Open>,
    /// The keys read so far in every open object, outermost first.
    keys: Vec<Cow<'a, str>>,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        JsonReader { text, pos: 0, open: Vec::new(), keys: Vec::new() }
    }

    /// Starts over on another document, keeping the buffers.
    pub(crate) fn reset(&mut self, text: &'a str) {
        self.text = text;
        self.pos = 0;
        self.open.clear();
        self.keys.clear();
    }

    /// A refusal at the cursor, with its 1-based line and column, so errors
    /// in hand-written spec files are findable.
    #[cold]
    fn error(&self, message: &str) -> String {
        let consumed = &self.text.as_bytes()[..self.pos.min(self.text.len())];
        let line = consumed.iter().filter(|b| **b == b'\n').count() + 1;
        let column = consumed.iter().rev().take_while(|b| **b != b'\n').count() + 1;
        format!("JSON error at line {line}, column {column}: {message}")
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    /// Reads the next value: a scalar whole, or a container's opening
    /// bracket, after which the caller reads (or [skips](Self::skip)) its
    /// members or items.
    pub(crate) fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.open(true),
            Some(b'[') => self.open(false),
            Some(b'"') => self.string().map(Token::String),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Number),
            Some(other) => Err(self.error(&format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Steps into the innermost object's next member and returns its key,
    /// or `None` at the object's closing `}`.  A key the object already
    /// holds is refused.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.step(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        let open = self.open.last_mut().expect("next_key inside an object");
        let earlier = &self.keys[open.keys_from..];
        let repeated = match earlier.last() {
            Some(last) if open.ascending && key > *last => false,
            Some(_) => {
                open.ascending = false;
                earlier.contains(&key)
            }
            None => false,
        };
        if repeated {
            return Err(self.error(&format!("duplicate object key {:?}", &*key)));
        }
        self.keys.push(key.clone());
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Steps to the innermost array's next item: `true` before an item,
    /// `false` at the array's closing `]`.
    pub(crate) fn next_item(&mut self) -> Result<bool, String> {
        Ok(!self.step(b']', "expected ',' or ']' in array")?)
    }

    /// Skips the rest of a value whose token [`value`](Self::value) just
    /// read, validating it whole and building nothing.
    pub(crate) fn skip(&mut self, token: &Token<'a>) -> Result<(), String> {
        if !matches!(token, Token::Array | Token::Object) {
            return Ok(());
        }
        let outside = self.open.len() - 1;
        while self.open.len() > outside {
            let object = self.open.last().is_some_and(|open| open.object);
            let more = if object { self.next_key()?.is_some() } else { self.next_item()? };
            if more {
                self.value()?;
            }
        }
        Ok(())
    }

    /// Reads and skips the next value.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        let token = self.value()?;
        self.skip(&token)
    }

    /// Reads the next value whole and returns its source text.
    pub(crate) fn raw_value(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        self.skip_value()?;
        Ok(&self.text[start..self.pos])
    }

    /// Reads the next value as [`JsonValue::as_u64`] reads one: a number
    /// whose text is a `u64`, or `None` for any other value.
    pub(crate) fn u64_value(&mut self) -> Result<Option<u64>, String> {
        Ok(match self.value()? {
            Token::Number(raw) => raw.parse().ok(),
            token => {
                self.skip(&token)?;
                None
            }
        })
    }

    /// Reads the next value as [`JsonValue::as_f64`] reads one: a number,
    /// `null` as NaN, or `None` for any other value.
    pub(crate) fn f64_value(&mut self) -> Result<Option<f64>, String> {
        Ok(match self.value()? {
            Token::Number(raw) => raw.parse().ok(),
            Token::Null => Some(f64::NAN),
            token => {
                self.skip(&token)?;
                None
            }
        })
    }

    /// Builds the tree of a value whose token [`value`](Self::value) just
    /// read.
    pub(crate) fn build(&mut self, token: Token<'a>) -> Result<JsonValue, String> {
        Ok(match token {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Number(raw) => JsonValue::Number(raw.to_string()),
            Token::String(s) => JsonValue::String(s.into_owned()),
            Token::Array => {
                let mut items = Vec::new();
                while self.next_item()? {
                    let token = self.value()?;
                    items.push(self.build(token)?);
                }
                JsonValue::Array(items)
            }
            Token::Object => {
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    let token = self.value()?;
                    members.push((key.into_owned(), self.build(token)?));
                }
                JsonValue::Object(members)
            }
        })
    }

    /// Ends the document: only whitespace may follow its value.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after the JSON document"));
        }
        Ok(())
    }

    /// Consumes a container's opening bracket, refusing nesting past
    /// [`MAX_DEPTH`].
    fn open(&mut self, object: bool) -> Result<Token<'a>, String> {
        self.pos += 1;
        if self.open.len() == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.open.push(Open { object, empty: true, keys_from: self.keys.len(), ascending: true });
        Ok(if object { Token::Object } else { Token::Array })
    }

    /// Consumes the separator before the innermost container's next entry,
    /// or its `close` bracket: `true` when the container closed.
    fn step(&mut self, close: u8, refusal: &str) -> Result<bool, String> {
        self.skip_ws();
        let next = self.peek();
        let open = self.open.last_mut().expect("a container is open");
        if open.empty {
            open.empty = false;
            if next != Some(close) {
                return Ok(false);
            }
        } else if next == Some(b',') {
            self.pos += 1;
            return Ok(false);
        } else if next != Some(close) {
            return Err(self.error(refusal));
        }
        self.pos += 1;
        let open = self.open.pop().expect("a container is open");
        self.keys.truncate(open.keys_from);
        Ok(true)
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    /// Reads a string literal, escapes resolved.  The text up to the first
    /// escape is borrowed; only a string with an escape is copied.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let plain = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
        self.pos = start + plain.unwrap_or(bytes.len() - start);
        match bytes.get(self.pos) {
            None => return Err(self.error("unterminated string")),
            Some(b'"') => {
                self.pos += 1;
                return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
            }
            Some(b'\\') => {}
            Some(_) => return Err(self.error("unescaped control character in string")),
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                            out.push(self.unicode_escape()?);
                            continue; // past the hex digits already
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // A run of plain text up to the next quote, escape or
                    // control byte, all ASCII, so both ends are char
                    // boundaries.
                    let run = self.pos;
                    while let Some(&b) = bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Reads the digits of a `\u` escape (the cursor is past the `u`),
    /// joining a high surrogate with the `\u` low surrogate that must follow
    /// it.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&unit) {
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.error("unpaired UTF-16 surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid UTF-16 surrogate pair"));
            }
            char::from_u32(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
        } else {
            char::from_u32(unit)
        };
        c.ok_or_else(|| self.error("invalid unicode escape"))
    }

    /// Reads exactly four hex digits (after `\u`) and advances past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid unicode escape"))?;
        let unit =
            u32::from_str_radix(text, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    /// Reads a number and returns its source text.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number: expected digits after '.'"));
            }
            self.digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number: expected exponent digits"));
            }
            self.digits();
        }
        Ok(&self.text[start..self.pos])
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
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
