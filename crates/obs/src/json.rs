//! A minimal JSON value model and writer, so snapshots can be exported
//! without any external serialization crate (the workspace builds fully
//! offline).
//!
//! Only what the exporters need: construction via [`Json`] variants and
//! the [`Json::obj`]/[`Json::arr`] helpers, rendering via `Display`
//! (compact) or [`Json::to_string_pretty`], [`write_pretty`] for
//! writing a file, and [`parse`]/[`read_file`] plus the
//! [`Json::get`]-family accessors so tools can reload a previously
//! written document (e.g. the benchmark reading back a trace). Numbers keep
//! their integer-ness: `u64`/`i64` render without a decimal point, `f64`
//! renders via Rust's shortest-round-trip formatting (NaN and infinities
//! degrade to `null`, which JSON requires).

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `f64` (from any number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value as `u64` (whole non-negative numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn render(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    out.push_str(&s);
                    // `{}` on a whole f64 prints no decimal point; keep
                    // the value typed as a float for consumers.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                    }
                    item.render(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                    }
                    Json::Str(key.clone()).render(out, indent + 1, pretty);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.render(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, 0, false);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Writes `value` to `path`, pretty-printed.
pub fn write_pretty(path: &Path, value: &Json) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(value.to_string_pretty().as_bytes())
}

/// A [`parse`] failure: byte offset and a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (the subset this module writes: no `\uXXXX`
/// surrogate-pair decoding beyond the BMP is attempted — escapes decode
/// to their code point, which round-trips everything [`Json`] emits).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Reads and parses a JSON file.
pub fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// The byte at `pos`, if any.
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances
                    // by ASCII bytes or by `len_utf8`, so it is on a char
                    // boundary and the slice cannot panic.
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .expect("a byte at `pos` starts a char");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", "cc-chain".into()),
            ("n", Json::U64(8)),
            ("mean", Json::F64(2.5)),
            ("whole", Json::F64(3.0)),
            ("ok", Json::Bool(true)),
            ("bound", Json::Null),
            ("xs", Json::arr(vec![Json::I64(-1), Json::U64(2)])),
            ("esc", "a\"b\\c\nd".into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"cc-chain","n":8,"mean":2.5,"whole":3.0,"ok":true,"bound":null,"xs":[-1,2],"esc":"a\"b\\c\nd"}"#
        );
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"name\": \"cc-chain\""));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::arr(vec![]).to_string(), "[]");
        assert_eq!(Json::obj(vec![]).to_string_pretty(), "{}\n");
    }

    #[test]
    fn parse_round_trips_what_we_write() {
        let v = Json::obj(vec![
            ("name", "cc-chain".into()),
            ("n", Json::U64(8)),
            ("neg", Json::I64(-3)),
            ("mean", Json::F64(2.5)),
            ("whole", Json::F64(3.0)),
            ("ok", Json::Bool(true)),
            ("bound", Json::Null),
            ("xs", Json::arr(vec![Json::I64(-1), Json::U64(2)])),
            ("esc", "a\"b\\c\nd\u{1}".into()),
            ("utf8", "N ≥ 2k · µ".into()),
            ("empty_obj", Json::obj(vec![])),
            ("empty_arr", Json::arr(vec![])),
        ]);
        let compact = parse(&v.to_string()).unwrap();
        let pretty = parse(&v.to_string_pretty()).unwrap();
        // I64(-1) reparses as I64(-1), U64 stays U64, F64(3.0) comes
        // back as F64 thanks to the forced `.0`.
        assert_eq!(compact, v);
        assert_eq!(pretty, v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        let err = parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = parse(r#"{"a": {"b": [1, 2.5, "x"]}, "t": 7}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), 3);
        assert_eq!(arr.as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(arr.as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(arr.as_arr().unwrap()[2].as_str(), Some("x"));
        assert_eq!(doc.get("t").unwrap().as_f64(), Some(7.0));
        assert_eq!(parse(r#""\u00b5µ""#).unwrap().as_str(), Some("µµ"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }
}
