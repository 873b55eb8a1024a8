//! A minimal dependency-free JSON value, writer and reader.
//!
//! Just enough for the exporters ([`crate::chrome`], [`crate::summary`]),
//! the `BENCH_*.json` files and the CI trace-validation step, which parses
//! exported files back and checks them structurally — no serde in the
//! offline workspace.
//!
//! There is one layout and one tokenizer. `Writer` appends a document
//! piece by piece and [`Json::to_pretty`] / `Display` drive it from a tree;
//! `Reader` pulls a document apart value by value and [`Json::parse`]
//! builds a tree from it. The trace codec and the Chrome exporter use the
//! two directly, so a trace of any size goes between [`crate::RunTrace`]
//! and text without a [`Json`] node.

use std::borrow::Cow;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers within 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (insertion order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements (empty slice for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: an object from key/value pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut w = Writer::pretty(0);
        self.emit(&mut w);
        w.finish()
    }

    fn emit(&self, w: &mut Writer) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.f64(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.begin_arr();
                for item in items {
                    item.emit(w);
                }
                w.end_arr();
            }
            Json::Obj(members) => {
                w.begin_obj();
                for (k, v) in members {
                    w.key(k);
                    v.emit(w);
                }
                w.end_obj();
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let value = Json::read(&mut r)?;
        r.end()?;
        Ok(value)
    }

    /// One level of recursion per container, which [`MAX_DEPTH`] bounds.
    fn read(r: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match r.peek()? {
            Kind::Null => {
                r.null()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(r.bool()?),
            Kind::Num => Json::Num(r.f64()?),
            Kind::Str => Json::Str(r.str()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                r.begin_arr()?;
                while r.next_elem()? {
                    items.push(Json::read(r)?);
                }
                Json::Arr(items)
            }
            Kind::Obj => {
                let mut members = Vec::new();
                r.begin_obj()?;
                while let Some(key) = r.next_key()? {
                    members.push((key.into_owned(), Json::read(r)?));
                }
                Json::Obj(members)
            }
        })
    }
}

/// Compact serialization (no whitespace); `to_string()` comes from here.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::compact(0);
        self.emit(&mut w);
        f.write_str(&w.finish())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    const SPACES: &str = "                                ";
    let mut left = indent * 2;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        left -= n;
    }
}

fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Every character that needs an escape is a single ASCII byte, so the
    // runs between them are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            let _ = fmt::Write::write_fmt(out, format_args!("\\u{b:04x}"));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// An append-only JSON writer: the bytes [`Json::to_pretty`] (two-space
/// indentation, trailing newline) or [`Json`]'s `Display` (compact) would
/// produce for the same document, without the tree. The caller keeps
/// `begin_*`/`end_*` balanced and writes a [`Writer::key`] before every
/// value inside an object.
#[derive(Debug)]
pub(crate) struct Writer {
    out: String,
    pretty: bool,
    /// Per open container: does it hold an item yet?
    open: Vec<bool>,
    /// The last thing written was a key; its value follows on the same line.
    after_key: bool,
}

impl Writer {
    /// A writer in the [`Json::to_pretty`] layout, with room for
    /// `capacity` bytes.
    pub(crate) fn pretty(capacity: usize) -> Self {
        Writer {
            out: String::with_capacity(capacity),
            pretty: true,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// A writer in the compact `Display` layout, with room for `capacity`
    /// bytes.
    pub(crate) fn compact(capacity: usize) -> Self {
        Writer {
            pretty: false,
            ..Writer::pretty(capacity)
        }
    }

    /// Separator and indentation before the next key or value.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(has_items) = self.open.last_mut() {
            if std::mem::replace(has_items, true) {
                self.out.push(',');
            }
            if self.pretty {
                self.out.push('\n');
                push_indent(&mut self.out, self.open.len());
            }
        }
    }

    fn begin(&mut self, bracket: char) {
        self.item();
        self.out.push(bracket);
        self.open.push(false);
    }

    fn end(&mut self, bracket: char) {
        let has_items = self.open.pop().expect("end_* without its begin_*");
        if has_items && self.pretty {
            self.out.push('\n');
            push_indent(&mut self.out, self.open.len());
        }
        self.out.push(bracket);
    }

    /// Opens an object.
    pub(crate) fn begin_obj(&mut self) {
        self.begin('{');
    }

    /// Closes the innermost object.
    pub(crate) fn end_obj(&mut self) {
        self.end('}');
    }

    /// Opens an array.
    pub(crate) fn begin_arr(&mut self) {
        self.begin('[');
    }

    /// Closes the innermost array.
    pub(crate) fn end_arr(&mut self) {
        self.end(']');
    }

    /// Writes a member key; the next call writes its value.
    pub(crate) fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_str(key, &mut self.out);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes `null`.
    pub(crate) fn null(&mut self) {
        self.item();
        self.out.push_str("null");
    }

    /// Writes `true` / `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an integer, every digit of it.
    pub(crate) fn u64(&mut self, n: u64) {
        self.item();
        write_u64(n, &mut self.out);
    }

    /// Writes a number as [`Json::Num`] prints it (`null` when not finite).
    pub(crate) fn f64(&mut self, n: f64) {
        self.item();
        write_num(n, &mut self.out);
    }

    /// Writes `thousandths / 1000` as [`Writer::f64`] prints
    /// `thousandths as f64 / 1000.0`, from the digits: the integer part, then
    /// up to three decimals without trailing zeros.
    ///
    /// That is the shortest decimal that reads back as the same `f64` as
    /// long as neighbouring `f64`s lie closer than 0.001 apart, which they
    /// do below 2^43; from there on the number goes through `f64`.
    pub(crate) fn thousandths(&mut self, thousandths: u64) {
        if thousandths >= 1000 << 43 {
            return self.f64(thousandths as f64 / 1000.0);
        }
        self.item();
        write_u64(thousandths / 1000, &mut self.out);
        let fraction = (thousandths % 1000) as u32;
        if fraction != 0 {
            let digits = [fraction / 100, fraction / 10 % 10, fraction % 10];
            let kept = 3 - digits.iter().rev().take_while(|&&d| d == 0).count();
            self.out.push('.');
            for digit in &digits[..kept] {
                self.out
                    .push(char::from_digit(*digit, 10).expect("a decimal digit"));
            }
        }
    }

    /// Writes a string, escaped.
    pub(crate) fn str(&mut self, s: &str) {
        self.item();
        write_str(s, &mut self.out);
    }

    /// Writes a string, or `null` for `None`.
    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => self.str(s),
            None => self.null(),
        }
    }

    /// The finished document.
    pub(crate) fn finish(mut self) -> String {
        debug_assert!(self.open.is_empty(), "a container is still open");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// `Reader` rejects containers nested deeper than this: deeper than any
/// document this workspace writes, and shallow enough that a client may
/// recurse once per level, as [`Json::parse`] does.
pub const MAX_DEPTH: usize = 128;

/// What the next value in a [`Reader`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array: [`Reader::begin_arr`], then [`Reader::next_elem`].
    Arr,
    /// An object: [`Reader::begin_obj`], then [`Reader::next_key`].
    Obj,
}

/// A pull reader: the one tokenizer behind [`Json::parse`], for clients
/// that decode a document without building a [`Json`] tree.
///
/// The client asks [`Reader::peek`] what comes next and consumes it with
/// the matching method, or with [`Reader::skip`]. A container, once begun,
/// is stepped until `next_elem` returns `false` / `next_key` returns
/// `None`, with exactly one value consumed per step. [`Reader::end`]
/// closes the document.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// A container was just opened: no separator before its first item.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    /// Skips whitespace and names the value that starts here.
    pub(crate) fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Num),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes `null`.
    pub(crate) fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Consumes `true` / `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, JsonError> {
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    fn at_number_punctuation(&self) -> bool {
        matches!(self.byte(), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
    }

    /// Consumes a number.
    pub(crate) fn f64(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        while self.byte().is_some_and(|c| c.is_ascii_digit()) || self.at_number_punctuation() {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("malformed number"))
    }

    /// Consumes a number and returns it as an exact `u64`; `None` when it
    /// is negative, fractional or 2^64 and above. Digits are read as
    /// digits, so integers above 2^53 are not rounded through `f64`.
    pub(crate) fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        let start = self.pos;
        let mut n = Some(0u64);
        while let Some(digit) = self.byte().filter(u8::is_ascii_digit) {
            n = n
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        if self.pos > start && !self.at_number_punctuation() {
            return Ok(n);
        }
        // Not a plain run of digits (`1e3`, `12.0`, `-0`): its value counts.
        self.pos = start;
        let f = self.f64()?;
        let in_range = f >= 0.0 && f.fract() == 0.0 && f < 18_446_744_073_709_551_616.0;
        Ok(in_range.then_some(f as u64))
    }

    /// Consumes a string; borrowed from the input unless it holds an
    /// escape.
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 bytes. It stops before an ASCII
            // byte, so on a character boundary.
            while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self.byte().ok_or_else(|| self.err("unfinished escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate and the low one escaped right
                            // after it are one character; a lone surrogate
                            // reads as U+FFFD.
                            let rest = &self.text.as_bytes()[self.pos..];
                            if (0xd800..0xdc00).contains(&code) && rest.starts_with(b"\\u") {
                                let after = self.pos;
                                self.pos += 2;
                                match self.hex4()? {
                                    low @ 0xdc00..0xe000 => {
                                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    }
                                    _ => self.pos = after,
                                }
                            }
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Consumes the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = (self.text.as_bytes().get(self.pos..self.pos + 4))
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn begin(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Is there another item in the container that `close` closes?
    /// Consumes the separator before it, or the closing bracket.
    fn next_item(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ => Err(self.err(format!("expected ',' or {:?}", close as char))),
        }
    }

    /// Opens an array.
    pub(crate) fn begin_arr(&mut self) -> Result<(), JsonError> {
        self.begin(b'[')
    }

    /// Moves to the next element; `false` once the array is closed.
    pub(crate) fn next_elem(&mut self) -> Result<bool, JsonError> {
        self.next_item(b']')
    }

    /// Opens an object.
    pub(crate) fn begin_obj(&mut self) -> Result<(), JsonError> {
        self.begin(b'{')
    }

    /// Moves to the next member and returns its key; `None` once the
    /// object is closed.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Consumes one value of any kind, checking its syntax.
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.f64().map(drop),
            Kind::Str => self.str().map(drop),
            Kind::Arr => {
                self.begin_arr()?;
                while self.next_elem()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Obj => {
                self.begin_obj()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Ends the document: only whitespace may follow its value.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let value = Json::obj([
            ("name", Json::str("fig5 \"trace\"\n")),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(1.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::str("x"), Json::Null]),
            ),
        ]);
        let text = value.to_string();
        assert!(text.contains("\\\"trace\\\"\\n"));
        assert!(text.contains("\"count\":42"));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn pretty_parses_back() {
        let value = Json::obj([
            ("a", Json::Arr(vec![Json::Num(1.0)])),
            ("b", Json::Obj(vec![])),
        ]);
        let text = value.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "a": [1, 2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").map(|a| a.items().len()), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""A\tBéé""#).unwrap();
        assert_eq!(v.as_str(), Some("A\tBéé"));
        let s = Json::str("control\u{1}").to_string();
        assert_eq!(s, "\"control\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("control\u{1}"));
    }

    #[test]
    fn non_finite_numbers_serialize_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    /// The same document through the tree and through the writer.
    fn sample(w: &mut Writer) -> Json {
        w.begin_obj();
        w.key("s").str("a\"b\\c\n\u{1}é");
        w.key("n").u64(42);
        w.key("f").f64(1.5);
        w.key("none").opt_str(None);
        w.key("empty").begin_arr();
        w.end_arr();
        w.key("items").begin_arr();
        w.bool(true);
        w.begin_obj();
        w.end_obj();
        w.begin_arr();
        w.u64(1);
        w.null();
        w.end_arr();
        w.end_arr();
        w.end_obj();
        Json::obj([
            ("s", Json::str("a\"b\\c\n\u{1}é")),
            ("n", Json::Num(42.0)),
            ("f", Json::Num(1.5)),
            ("none", Json::Null),
            ("empty", Json::Arr(vec![])),
            (
                "items",
                Json::Arr(vec![
                    Json::Bool(true),
                    Json::Obj(vec![]),
                    Json::Arr(vec![Json::Num(1.0), Json::Null]),
                ]),
            ),
        ])
    }

    #[test]
    fn writer_lays_out_what_the_tree_prints() {
        let mut pretty = Writer::pretty(0);
        let tree = sample(&mut pretty);
        assert_eq!(pretty.finish(), tree.to_pretty());
        let mut compact = Writer::compact(0);
        sample(&mut compact);
        assert_eq!(compact.finish(), tree.to_string());
        assert_eq!(
            tree.to_pretty(),
            "{\n  \"s\": \"a\\\"b\\\\c\\n\\u0001é\",\n  \"n\": 42,\n  \"f\": 1.5,\n  \"none\": null,\n  \
             \"empty\": [],\n  \"items\": [\n    true,\n    {},\n    [\n      1,\n      null\n    ]\n  ]\n}\n"
        );
    }

    #[test]
    fn integers_keep_every_digit() {
        let mut w = Writer::compact(0);
        w.begin_arr();
        for n in [0, 9_007_199_254_740_993, u64::MAX] {
            w.u64(n);
        }
        w.end_arr();
        let text = w.finish();
        assert_eq!(text, "[0,9007199254740993,18446744073709551615]");
        let mut r = Reader::new(&text);
        r.begin_arr().unwrap();
        for n in [0, 9_007_199_254_740_993, u64::MAX] {
            assert!(r.next_elem().unwrap());
            assert_eq!(r.u64().unwrap(), Some(n));
        }
        assert!(!r.next_elem().unwrap());
        r.end().unwrap();
    }

    #[test]
    fn thousandths_print_as_the_f64_quotient_does() {
        let both = |n: u64| {
            let (mut digits, mut float) = (Writer::compact(0), Writer::compact(0));
            digits.thousandths(n);
            float.f64(n as f64 / 1000.0);
            assert_eq!(digits.finish(), float.finish(), "{n} / 1000");
        };
        let limit = 1000u64 << 43;
        for n in [
            0,
            1,
            10,
            100,
            999,
            1000,
            1001,
            1010,
            1100,
            123_456_789,
            5_000_000,
        ] {
            both(n);
        }
        for n in (limit - 3000..limit + 3000).chain([1 << 53, (1 << 53) + 1, u64::MAX]) {
            both(n);
        }
        // Every magnitude up to the limit, a few hundred thousand draws.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..300_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            both(((x >> 11) % limit) >> (x % 53));
        }
        let mut w = Writer::compact(0);
        w.thousandths(1_234_560);
        assert_eq!(w.finish(), "1234.56");
    }

    #[test]
    fn u64_takes_integers_in_any_spelling_and_nothing_else() {
        let read = |text: &str| Reader::new(text).u64();
        assert_eq!(read("007"), Ok(Some(7)));
        assert_eq!(read("1e3"), Ok(Some(1000)));
        assert_eq!(read("12.0"), Ok(Some(12)));
        assert_eq!(read("-0"), Ok(Some(0)));
        assert_eq!(read("1.5"), Ok(None));
        assert_eq!(read("-1"), Ok(None));
        assert_eq!(read("18446744073709551616"), Ok(None));
        assert_eq!(read("1e30"), Ok(None));
        assert!(read("1-2").is_err());
        assert!(read("-").is_err());
    }

    #[test]
    fn strings_are_borrowed_unless_escaped() {
        let mut r = Reader::new(r#"["plain é", "tab\there"]"#);
        r.begin_arr().unwrap();
        assert!(r.next_elem().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain é")));
        assert!(r.next_elem().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "tab\there"));
        assert!(!r.next_elem().unwrap());
    }

    #[test]
    fn skip_checks_what_it_skips() {
        let skip = |text: &str| {
            let mut r = Reader::new(text);
            r.skip().and_then(|()| r.end())
        };
        assert!(skip(r#" {"a": [1, {"b": null}, "x\n"], "c": -2.5e3} "#).is_ok());
        assert!(skip(r#"{"a": [1, 2,]}"#).is_err());
        assert!(skip(r#"{"a": "\q"}"#).is_err());
        assert!(skip(r#"{"a": 1-2}"#).is_err());
        assert!(skip(r#"{"a": 1} x"#).is_err());
        assert!(skip(r#"[1 2]"#).is_err());
        assert!(skip("[1}").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        // Unclosed, and by the megabyte: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(1 << 18)).is_err());
        let open = "[".repeat(1 << 20);
        assert!(Reader::new(&open).skip().is_err());
    }
}
