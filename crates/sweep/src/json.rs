//! The unified JSON schema shared by the committed `results/*.json`
//! goldens, the CLI `--json` paths, and `BENCH_mega.json`.
//!
//! The build environment cannot fetch `serde_json`, so this is a tiny value
//! tree with a pretty-printer and a parser. The printer is byte-compatible
//! with `serde_json::to_string_pretty`: two-space indent, floats in Rust
//! `{:?}` (shortest round-trip) notation so `1.0` stays `1.0`, integers
//! without a fraction, and no trailing newline — the committed goldens are
//! diffed byte-for-byte against it.

use crate::figure::{Figure, Series};
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// A boolean literal.
    Bool(bool),
    /// Integer numbers: print without a fractional part (`3`).
    Int(i64),
    /// Floating-point numbers: print in shortest round-trip notation
    /// (`1.0`, `45.70333333333333`); non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serializes with two-space indentation and no trailing newline,
    /// byte-compatible with `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Parses a JSON document (the inverse of [`Self::to_string_pretty`]).
    /// Numbers with a fraction or exponent parse as [`Json::Num`], others as
    /// [`Json::Int`], so a parse → print round trip preserves the committed
    /// goldens byte-for-byte.
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// The member of an object by key, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload ([`Json::Int`] widens), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // {:?} is Rust's shortest-round-trip float notation,
                    // which matches serde_json's ryu output ("1.0").
                    let _ = write!(out, "{n:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&inner);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&inner);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
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

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n).map_or(Json::Num(n as f64), Json::Int)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(i64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        i64::try_from(n).map_or(Json::Num(n as f64), Json::Int)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// An array of scalars, such as a sweep axis in a report's meta block.
impl<T: Copy + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|&x| x.into()).collect())
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

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human description of the failure.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// The deepest `[`/`{` nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so without a bound a hostile document could overflow
/// the stack; the committed documents nest at most six levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if fractional {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.error("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.error("integer out of range"))
        }
    }
}

/// Types that render themselves as a [`Json`] value.
pub trait ToJson {
    /// The value's JSON encoding.
    fn to_json(&self) -> Json;
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for Figure {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("x_label", Json::Str(self.x_label.clone())),
            ("y_label", Json::Str(self.y_label.clone())),
            (
                "series",
                Json::Arr(self.series.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, JsonError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(JsonError {
            message: format!("missing string field '{key}'"),
            offset: 0,
        })
}

impl Series {
    /// Deserializes a series from its [`ToJson`] encoding.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when a field is missing or mistyped.
    pub fn from_json(v: &Json) -> Result<Series, JsonError> {
        let bad = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let points = v
            .get("points")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing array field 'points'"))?
            .iter()
            .map(|p| match p.as_arr() {
                Some([x, y]) => x
                    .as_f64()
                    .zip(y.as_f64())
                    .ok_or_else(|| bad("non-numeric point coordinate")),
                _ => Err(bad("point is not an [x, y] pair")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Series {
            label: str_field(v, "label")?,
            points,
        })
    }
}

impl Figure {
    /// Deserializes a figure from its [`ToJson`] encoding — the schema
    /// shared by `results/*.json` and `figures --json`.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when a field is missing or mistyped.
    pub fn from_json(v: &Json) -> Result<Figure, JsonError> {
        let series = v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or(JsonError {
                message: "missing array field 'series'".to_string(),
                offset: 0,
            })?
            .iter()
            .map(Series::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Figure {
            id: str_field(v, "id")?,
            title: str_field(v, "title")?,
            x_label: str_field(v, "x_label")?,
            y_label: str_field(v, "y_label")?,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_structure() {
        let v = Json::obj(vec![
            ("name", Json::from("fig\"4\"")),
            ("n", Json::from(3u32)),
            ("whole", Json::Num(3.0)),
            ("frac", Json::Num(2.5)),
            ("items", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = v.to_string_pretty();
        assert!(s.contains("\"name\": \"fig\\\"4\\\"\""));
        // Ints print bare; integral floats keep their ".0" (serde_json/ryu).
        assert!(s.contains("\"n\": 3,"));
        assert!(s.contains("\"whole\": 3.0,"));
        assert!(s.contains("\"frac\": 2.5,"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.contains("[\n    1.0,\n    null\n  ]"));
        assert!(!s.ends_with('\n'));
    }

    #[test]
    fn scalar_slices_convert_element_wise() {
        assert_eq!(
            Json::from(&[0.5, 1.0][..]),
            Json::Arr(vec![Json::Num(0.5), Json::Num(1.0)])
        );
        assert_eq!(
            Json::from(&[2u32, 8][..]),
            Json::Arr(vec![Json::Int(2), Json::Int(8)])
        );
        assert_eq!(
            Json::from(&["fifo"][..]),
            Json::Arr(vec![Json::from("fifo")])
        );
    }

    #[test]
    fn parse_round_trips_bytes() {
        let text = "{\n  \"id\": \"t\",\n  \"k\": 3,\n  \"x\": 1.0,\n  \"y\": 45.70333333333333,\n  \"flags\": [\n    true,\n    false,\n    null\n  ],\n  \"empty\": {}\n}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string_pretty(), text);
        assert_eq!(v.get("k"), Some(&Json::Int(3)));
        assert_eq!(v.get("x"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_exponents() {
        let v = Json::parse(r#"{"s": "a\"b\\c\ndA", "e": 1e3, "neg": -4}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
        assert_eq!(v.get("e"), Some(&Json::Num(1000.0)));
        assert_eq!(v.get("neg"), Some(&Json::Int(-4)));
    }

    #[test]
    fn figure_round_trips_through_schema() {
        let fig = Figure {
            id: "t".into(),
            title: "T".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "s1".into(),
                points: vec![(1.0, 2.5), (2.0, 45.70333333333333)],
            }],
        };
        let text = fig.to_json().to_string_pretty();
        let back = Figure::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, fig);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json().to_string_pretty(), text);
    }
}
