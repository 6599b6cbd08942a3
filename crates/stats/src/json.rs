//! A minimal JSON value type with parser and pretty-printer.
//!
//! The workspace builds fully offline, so `serde`/`serde_json` are
//! unavailable; this module provides the small, dependency-free JSON
//! surface the machine-readable sweep reports need: build a [`Json`]
//! value, render it with `to_string()`/`{:#}`, and [`Json::parse`] it
//! back. Integers and floats are kept as distinct variants so `u64`
//! counters round-trip exactly.
//!
//! # Cost contract
//!
//! Parsing and rendering are linear in the size of the text. The
//! parser copies each run of plain string bytes (everything up to the
//! next `"` or `\`) as one slice, and the writer emits each run that
//! needs no escaping with one `write_str`. Nesting is bounded at 256
//! levels: a deeper document is a [`JsonError`], not a stack
//! overflow, so a hostile request line cannot abort a server.
//!
//! # Examples
//!
//! ```
//! use spb_stats::json::Json;
//!
//! let v = Json::obj([
//!     ("app", Json::str("x264")),
//!     ("cycles", Json::from(123456u64)),
//!     ("ipc", Json::from(1.62)),
//! ]);
//! let text = v.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(v, back);
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(123456));
//! ```

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// workspace's own documents nest fewer than ten levels; the bound only
/// keeps the recursive parser's stack use fixed.
pub(crate) const MAX_DEPTH: usize = 256;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // Counters beyond i64::MAX do not occur in practice; saturate
        // rather than silently wrapping if one ever does.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if integral and non-negative.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `f64` (accepts both numeric variants).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
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
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an
/// escape is ASCII, so the runs between them are whole UTF-8 text and
/// go out with one `write_str` each.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
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
        f.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(escape)?;
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

fn write_indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        f.write_str("  ")?;
    }
    Ok(())
}

impl Json {
    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, pretty: bool, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Always mark floats as floats so they re-parse as
                    // the same variant.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return f.write_str("[]");
                }
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    if pretty {
                        f.write_str("\n")?;
                        write_indent(f, depth + 1)?;
                    }
                    item.fmt_at(f, pretty, depth + 1)?;
                }
                if pretty {
                    f.write_str("\n")?;
                    write_indent(f, depth)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    return f.write_str("{}");
                }
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    if pretty {
                        f.write_str("\n")?;
                        write_indent(f, depth + 1)?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(if pretty { ": " } else { ":" })?;
                    v.fmt_at(f, pretty, depth + 1)?;
                }
                if pretty {
                    f.write_str("\n")?;
                    write_indent(f, depth)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl fmt::Display for Json {
    /// Compact with `{}`, two-space-indented with `{:#}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, f.alternate(), 0)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs don't appear in our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash as one slice. Both delimiters are ASCII
                    // and every escape consumes ASCII only, so the run
                    // starts and ends on character boundaries.
                    let start = self.pos;
                    self.pos += self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let run = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .expect("ascii digits are valid UTF-8");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::str("sweep")),
            ("count", Json::from(3u64)),
            ("ratio", Json::from(0.5)),
            ("whole", Json::from(2.0)),
            ("flag", Json::from(true)),
            ("nothing", Json::Null),
            (
                "runs",
                Json::arr([
                    Json::obj([("app", Json::str("x264")), ("cycles", Json::from(99u64))]),
                    Json::obj([("app", Json::str("lbm")), ("cycles", Json::from(-1i64))]),
                ]),
            ),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&format!("{v:#}")).unwrap(), v);
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        let v = Json::parse("[1, 1.0, 2e3]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Json::Int(1));
        assert_eq!(items[1], Json::Float(1.0));
        assert_eq!(items[2], Json::Float(2000.0));
        // A whole float re-serializes with a decimal point.
        assert_eq!(Json::Float(1.0).to_string(), "1.0");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::str("a\"b\\c\nd\té—ü");
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::str("Aé"));
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "s"]}}"#).unwrap();
        let arr = v
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("s"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(arr[2].as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1 2]",
            "nulll",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let e = Json::parse("[1,]").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let e = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert_eq!(e.offset, MAX_DEPTH);
        // Unbounded recursion on this line overflows the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects)
            .unwrap_err()
            .message
            .contains("nesting"));
        // Depth is nesting, not the number of values: long flat
        // documents and many sibling containers stay fine.
        let siblings = format!("[{}[]]", "[[1]],".repeat(10_000));
        assert!(Json::parse(&siblings).is_ok());
    }

    /// Reference string decoder: one character at a time, the plainest
    /// reading of the grammar. The properties below hold the
    /// run-copying parser to it: same accepted language, same decoded
    /// text, same error offsets and messages.
    fn char_at_a_time_string_doc(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let err = |pos: usize, message: &str| JsonError {
            offset: pos,
            message: message.to_string(),
        };
        if bytes.first() != Some(&b'"') {
            return Err(err(0, "expected '\"'"));
        }
        pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(pos).copied() {
                None => return Err(err(pos, "unterminated string")),
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(b'\\') => {
                    pos += 1;
                    match bytes.get(pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(pos + 1..pos + 5)
                                .ok_or_else(|| err(pos, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err(pos, "invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(pos, "invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            pos += 4;
                        }
                        _ => return Err(err(pos, "invalid escape")),
                    }
                    pos += 1;
                }
                Some(_) => {
                    let c = text[pos..].chars().next().expect("in bounds");
                    out.push(c);
                    pos += c.len_utf8();
                }
            }
        }
        while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            pos += 1;
        }
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(Json::Str(out))
    }

    /// Reference string writer: one character at a time.
    fn char_at_a_time_escape(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// String-literal fragments: plain runs of 1–4-byte characters,
    /// every escape the parser knows (valid, odd and invalid), raw
    /// control characters, stray quotes and backslashes.
    const FRAGMENTS: &[&str] = &[
        "a",
        "plain text",
        "é",
        "—",
        "😀",
        "ü—é😀z",
        " ",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\b",
        "\\f",
        "\\u00e9",
        "\\u0041",
        "\\u2014",
        "\\ud83d",
        "\\u+041",
        "\\u12",
        "\\uZZZZ",
        "\\u00é",
        "\\x",
        "\\",
        "\"",
        "\u{1}",
        "\u{1f}",
        "\n",
        "\t",
        "\r",
        "\u{7f}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        #[test]
        fn string_literals_decode_as_char_at_a_time(
            picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..12),
            close in proptest::any::<bool>(),
        ) {
            let mut doc = String::from("\"");
            for &i in &picks {
                doc.push_str(FRAGMENTS[i]);
            }
            if close {
                doc.push('"');
            }
            proptest::prop_assert_eq!(Json::parse(&doc), char_at_a_time_string_doc(&doc));
        }

        #[test]
        fn strings_round_trip_and_render_as_char_at_a_time(
            picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..12),
        ) {
            let s: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            let text = Json::str(s.as_str()).to_string();
            proptest::prop_assert_eq!(&text, &char_at_a_time_escape(&s));
            proptest::prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s.clone())));
            let pretty = format!("{:#}", Json::obj([(s.as_str(), Json::arr([Json::str(s.as_str())]))]));
            let back = Json::parse(&pretty).unwrap();
            proptest::prop_assert_eq!(back.get(&s).and_then(|a| a.as_arr()).map(|a| a[0].clone()), Some(Json::Str(s.clone())));
        }
    }

    #[test]
    fn a_mebibyte_of_strings_parses_in_linear_time() {
        let item = "cell x264/spb-burst(48) sb=14 — é😀 \"quoted\" path\\to\\it\t";
        let mut items = Vec::new();
        let mut len = 0;
        while len < 1 << 20 {
            let s = format!("{item}{}", items.len());
            len += s.len() + 4;
            items.push(Json::Str(s));
        }
        let doc = Json::Arr(items);
        let text = doc.to_string();
        assert!(text.len() >= 1 << 20);
        let start = std::time::Instant::now();
        let back = Json::parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(back, doc);
        // A decoder that rescans the rest of the input for every
        // character needs about 50 s here.
        assert!(took.as_secs_f64() < 2.0, "parsed 1 MiB in {took:?}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }
}
