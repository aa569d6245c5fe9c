//! A minimal, order-preserving JSON value with a hand-rolled emitter
//! and recursive-descent parser.
//!
//! The container is offline: no serde, no external crates. This covers
//! exactly what the observability layer needs — emitting `RunReport`s,
//! timelines and `BENCH_*.json` files, and parsing them back for
//! schema checks and summaries.

use std::fmt;

/// A JSON value. Objects preserve insertion order so emitted files are
/// stable and diffable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integral values print without a
    /// fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for numbers.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `u64` as a JSON number (lossless below 2^53, which covers
    /// every counter the simulator produces).
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Sets a key of an object: a new key goes last, an existing one
    /// takes `value` in its place (panics on non-objects — a
    /// programming error, not a data error).
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        let key = key.into();
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, old)) => *old = value,
            None => entries.push((key, value)),
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        if let Json::Obj(entries) = self {
            for (k, v) in entries {
                if k == key {
                    return Some(v);
                }
            }
        }
        None
    }

    /// The value at dotted `path` (`a.b.c`): an object field lookup per
    /// segment.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// Array element lookup.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        if let Json::Arr(items) = self {
            items.get(i)
        } else {
            None
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        if let Json::Arr(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        if let Json::Obj(entries) = self {
            Some(entries)
        } else {
            None
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        if let Json::Num(n) = self {
            Some(*n)
        } else {
            None
        }
    }

    /// The number as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(|n| {
            if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
                Some(n as u64)
            } else {
                None
            }
        })
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        if let Json::Bool(b) = self {
            Some(*b)
        } else {
            None
        }
    }

    /// Emits compact JSON text.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. An object that repeats a key is an error: it
    /// holds two values for one field.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::u64(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::str(s)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = fmt::write(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::write(out, format_args!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            what: what.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte {:?}", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
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
                Some(other) => {
                    let bad = other as char;
                    return Err(self.err(&format!("expected ',' or ']' in array, got {bad:?}")));
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                self.pos = at;
                return Err(self.err(&format!("repeated key {key:?} in object")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                Some(other) => {
                    let bad = other as char;
                    return Err(self.err(&format!("expected ',' or '}}' in object, got {bad:?}")));
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_e| self.err("invalid utf-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(ctrl) => {
                    let bad = ctrl;
                    return Err(self.err(&format!("control character {bad:#x} in string")));
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let b = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // an escaped low surrogate.
                let c = if (0xd800..0xdc00).contains(&code) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let combined =
                            0x10000 + (((code - 0xd800) as u32) << 10) + (low - 0xdc00) as u32;
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code as u32)
                };
                out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            bad => {
                return Err(self.err(&format!("unknown escape {:?}", bad as char)));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            code = (code << 4) | digit as u16;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_e| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_e| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let mut j = Json::obj();
        j.set("name", Json::str("lu"))
            .set("finish_ns", Json::u64(123456789))
            .set("ratio", Json::num(0.25))
            .set("ok", Json::Bool(true))
            .set("none", Json::Null)
            .set("rows", Json::Arr(vec![Json::u64(1), Json::u64(2)]));
        let text = j.dump();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, j);
        assert_eq!(back.get("name").and_then(|v| v.as_str()), Some("lu"));
        assert_eq!(
            back.get("finish_ns").and_then(|v| v.as_u64()),
            Some(123456789)
        );
        assert_eq!(back.get("ratio").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(
            back.get("rows")
                .and_then(|v| v.idx(1))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::u64(42).dump(), "42");
        assert_eq!(Json::num(2.5).dump(), "2.5");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(-0.0).dump(), "0");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\te\u{1}f — π";
        let dumped = Json::str(s).dump();
        assert_eq!(Json::parse(&dumped).expect("parse"), Json::str(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").expect("parse"),
            Json::str("é😀")
        );
    }

    #[test]
    fn whitespace_and_nesting() {
        let text = " { \"a\" : [ 1 , { \"b\" : null } , true ] } ";
        let j = Json::parse(text).expect("parse");
        assert_eq!(
            j.get("a").and_then(|a| a.idx(1)).and_then(|o| o.get("b")),
            Some(&Json::Null)
        );
    }

    #[test]
    fn dotted_paths_walk_objects() {
        let j = Json::parse(r#"{"a": {"b": {"c": 7}}, "n": 3}"#).expect("parse");
        assert_eq!(j.at("a.b.c").and_then(Json::as_u64), Some(7));
        assert_eq!(j.at("n"), Some(&Json::u64(3)));
        assert_eq!(j.at("a.x.c"), None);
        // A step into a number finds nothing.
        assert_eq!(j.at("n.c"), None);
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\": }").expect_err("should fail");
        assert!(e.pos > 0);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn set_replaces_an_existing_key_in_place() {
        let mut j = Json::obj();
        j.set("a", Json::u64(1)).set("b", Json::u64(2));
        j.set("a", Json::u64(3));
        assert_eq!(j.dump(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn an_object_that_repeats_a_key_does_not_parse() {
        let e = Json::parse(r#"{"a": 1, "b": {"a": 2}, "a": 3}"#).expect_err("repeated");
        assert_eq!(e.what, r#"repeated key "a" in object"#);
        // The second `"a"` of the outer object.
        assert_eq!(e.pos, 24);
    }

    #[test]
    fn scientific_numbers() {
        assert_eq!(Json::parse("1.5e3").expect("parse").as_f64(), Some(1500.0));
        assert_eq!(Json::parse("-4").expect("parse").as_f64(), Some(-4.0));
        assert_eq!(Json::parse("-4").expect("parse").as_u64(), None);
    }
}
