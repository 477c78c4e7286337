//! Minimal std-only JSON: enough for the newline-delimited wire protocol.
//!
//! The server cannot take registry dependencies (R1), so this module
//! implements the subset of JSON the protocol needs: a recursive-descent
//! parser with a hard depth limit and a canonical serializer. Numbers are
//! stored as `f64`; integral values round-trip without a fractional part
//! up to 2^53, which covers every counter the wire carries. A
//! [`Rendered`] value is serialized once and spliced into later documents
//! verbatim, so a reply the server sends many times is rendered once.

use std::fmt;
use std::sync::Arc;

/// Maximum nesting depth accepted by [`parse`]. Requests are flat objects,
/// so anything deeper is adversarial input, not traffic.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, stored as `f64`.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved for deterministic output.
    Object(Vec<(String, Value)>),
    /// Pre-rendered JSON, written verbatim. [`parse`] never produces it,
    /// and the accessors treat it as opaque.
    Raw(Rendered),
}

/// JSON text rendered once from a [`Value`], shared by `Arc`. Rendering a
/// `Value` is the only way to build one, so the text is always valid
/// JSON and [`Value::Raw`] can write it without re-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered(Arc<str>);

impl Rendered {
    /// Renders `value` once.
    #[must_use]
    pub(crate) fn new(value: &Value) -> Rendered {
        Rendered(value.to_string().into())
    }
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if integral.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // CAST: guarded — only integral values in [0, 2^53) are
            // converted, so the f64 -> u64 cast is exact.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(true) => f.write_str("true"),
            Value::Bool(false) => f.write_str("false"),
            Value::Num(n) => {
                if n.is_finite() && n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                    // CAST: guarded — integral and within f64's exact
                    // integer range, so the cast to i64 is lossless.
                    write!(f, "{}", *n as i64)
                } else if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than
                    // emit an unparseable token.
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
            Value::Raw(Rendered(text)) => f.write_str(text),
        }
    }
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    /// Static description of what went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the byte offset on malformed input,
/// nesting deeper than an internal limit, or trailing garbage.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
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

    fn eat(&mut self, expected: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't' | b'f') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[', "expected '['")?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined: the protocol never emits them and
                            // accepting lone halves would build invalid
                            // `char`s.
                            let ch = char::from_u32(u32::from(code))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar; input is a &str so the
                    // boundaries are already valid.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(chunk) => out.push_str(chunk),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code << 4 | u16::from(digit);
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

/// Convenience constructor for an object value.
#[must_use]
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Convenience constructor for a string value.
#[must_use]
pub fn s(text: &str) -> Value {
    Value::Str(text.to_owned())
}

/// Convenience constructor for a numeric value from an integer.
#[must_use]
pub fn num(n: u64) -> Value {
    // CAST: u64 -> f64 may round above 2^53; wire counters stay far
    // below that, and rounding is acceptable for a diagnostic payload.
    Value::Num(n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"op":"skyline","ids":[1,2,3],"nested":{"ok":true,"x":null},"f":1.5}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("skyline"));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(1.5));
        let reparsed = parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".to_owned());
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escape_decodes() {
        // The four-digit escape must decode to 'e'-acute and raw
        // multibyte UTF-8 must pass through untouched.
        let v = parse("\"A\\u00e9 é x\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé é x"));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":}",
            "[1,]",
            "nul",
            "\"unterminated",
            "{} trailing",
            "1e999",
            "\u{7}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push('[');
        }
        assert_eq!(parse(&text).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(num(42).to_string(), "42");
        assert_eq!(Value::Num(1.25).to_string(), "1.25");
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn raw_renders_verbatim_and_is_never_parsed() {
        let array = Value::Array(vec![num(3), num(1), num(4)]);
        let doc = obj(vec![
            ("skyline", Value::Raw(Rendered::new(&array))),
            ("size", num(3)),
        ]);
        let text = doc.to_string();
        assert_eq!(text, r#"{"skyline":[3,1,4],"size":3}"#);
        // Parsing the text back yields plain values, never `Raw`.
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.get("skyline"), Some(&array));
        assert_eq!(parsed, obj(vec![("skyline", array), ("size", num(3))]));
    }

    #[test]
    fn as_u64_guards_range_and_fraction() {
        assert_eq!(num(7).as_u64(), Some(7));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }
}
