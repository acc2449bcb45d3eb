//! The workspace's one JSON module. There is no `serde_json`: every
//! renderer builds its document by hand with [`push_escaped`] (strings)
//! and [`push_f64`] (floats), and everything that reads JSON goes through
//! [`parse`]. The A1 codec decodes its wire documents with it, and
//! [`validate`], the cross-check that hand-built output actually parses,
//! is `parse` with the value dropped.

use std::fmt::Write as _;

/// Appends `v` to `out` as a quoted JSON string, escaping `\`, `"`
/// and all control characters (`\n`, `\r`, `\t` get short forms, the
/// rest `\u00XX`).
pub fn push_escaped(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
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

/// Convenience wrapper around [`push_escaped`].
pub fn escape(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    push_escaped(&mut s, v);
    s
}

/// Appends `v` to `out` as a JSON number. Finite values use Rust's
/// shortest-round-trip `Display`, so parsing the digits back recovers the
/// identical bits; anything else is written as `null`, since JSON has no
/// NaN or Infinity literal ([`Object::get_f64`] reads `null` back as NaN).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // The write! sink is a String: infallible by construction.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Validates that `s` is exactly one well-formed JSON value (with
/// optional surrounding whitespace): [`parse`] with the value dropped.
/// Returns a short message with the byte offset on failure.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// A parsed JSON value.
#[derive(Debug)]
pub enum Value<'a> {
    /// Fields in document order.
    Object(Vec<(String, Value<'a>)>),
    /// Elements in document order.
    Array(Vec<Value<'a>>),
    /// An unescaped string.
    String(String),
    /// Raw number text; converted on demand so a `u64` stays exact.
    Number(&'a str),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// An object's fields, taken out one by one by the typed getters.
pub struct Object<'a>(Vec<(String, Value<'a>)>);

impl<'a> Value<'a> {
    /// This value as an [`Object`]; `what` names it in the error.
    pub fn into_object(self, what: &str) -> Result<Object<'a>, String> {
        match self {
            Value::Object(fields) => Ok(Object(fields)),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }
}

impl<'a> Object<'a> {
    /// Removes and returns the field `key`.
    pub fn get(&mut self, key: &str) -> Result<Value<'a>, String> {
        let idx = self
            .0
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        Ok(self.0.swap_remove(idx).1)
    }

    /// Removes the field `key`, which must be a string.
    pub fn get_str(&mut self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            Value::String(s) => Ok(s),
            other => Err(format!("field {key:?}: expected string, got {other:?}")),
        }
    }

    /// Removes the field `key`, which must be an integer in `u64` range;
    /// parsed from the raw text, never through an `f64`.
    pub fn get_u64(&mut self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Value::Number(raw) => {
                raw.parse().map_err(|_| format!("field {key:?}: {raw:?} is not a u64"))
            }
            other => Err(format!("field {key:?}: expected integer, got {other:?}")),
        }
    }

    /// Removes the field `key`, which must be a number (parsed with full
    /// precision, so [`push_f64`] output reads back bit-exactly) or
    /// `null` (read as NaN).
    pub fn get_f64(&mut self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Number(raw) => {
                raw.parse().map_err(|_| format!("field {key:?}: {raw:?} is not a number"))
            }
            Value::Null => Ok(f64::NAN),
            other => Err(format!("field {key:?}: expected number, got {other:?}")),
        }
    }
}

/// Parses `src` as exactly one JSON value (with optional surrounding
/// whitespace). Errors name the byte offset; nesting deeper than 32
/// levels and `\u` escapes that are not Unicode scalar values (such as
/// surrogate halves) are rejected.
pub fn parse(src: &str) -> Result<Value<'_>, String> {
    let mut p = Parser { src: src.as_bytes(), text: src, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.src.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The scanned run is valid UTF-8 because the input is &str
            // and the run breaks only at ASCII bytes.
            out.push_str(&self.text[start..self.pos]);
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
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Four hex digits (`from_str_radix` alone would
                            // also take a leading '+').
                            let code = Some(hex)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not decoded (no document
                            // the workspace writes has one); reject rather
                            // than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("number has no digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("number has an empty fraction"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("number has an empty exponent"));
            }
        }
        Ok(Value::Number(&self.text[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "-12.5e+3",
            "\"a\\n\\u00ff\"",
            "[]",
            "{}",
            "[1, 2, {\"a\": [null, false]}]",
            "  {\"k\" : \"v\"}  ",
            &format!("{}{}", "[".repeat(33), "]".repeat(33)),
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
        let Ok(Value::Array(items)) = parse("[1, {\"a\": [null, false]}]") else { panic!() };
        assert!(matches!(items[..], [Value::Number("1"), Value::Object(_)]), "{items:?}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "1.",
            "1e",
            "nul",
            "\"raw\ncontrol\"",
            "{} extra",
            "\"\\u+041\"",
            "\"\\ud800\"",
            &format!("{}{}", "[".repeat(34), "]".repeat(34)),
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let hostile = "a\"b\\c\nd\re\tf\u{0}g\u{7f}";
        let s = escape(hostile);
        validate(&s).expect("escaped string must validate");
        assert!(matches!(parse(&s), Ok(Value::String(back)) if back == hostile));
    }
}
