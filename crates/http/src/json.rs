//! A minimal JSON value model, encoder and decoder.
//!
//! The paper's meme generator exchanges JSON between its HTML5 client and its
//! Go server (`GET /api/backgrounds` returns a JSON list; `POST /api/meme`
//! takes a JSON body).  To keep the dependency set to the pre-approved crates
//! we implement the small amount of JSON needed by hand.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (stored as f64, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with string keys.
    Object(BTreeMap<String, Json>),
}

/// Error produced when decoding malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset where the error occurred.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.offset, self.message)
    }
}

impl Error for JsonParseError {}

impl Json {
    /// Builds an empty object.
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Builder-style insertion into an object (no-op on other variants).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Object(ref mut map) = self {
            map.insert(key.to_owned(), value.into());
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes this value as compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::String(s) => encode_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Decodes JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] describing the first syntax problem.
    pub fn decode(text: &str) -> Result<Json, JsonParseError> {
        let bytes = text.as_bytes();
        let mut parser = Parser { bytes, pos: 0 };
        parser.skip_ws();
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::String(value.to_owned())
    }
}

impl From<String> for Json {
    fn from(value: String) -> Self {
        Json::String(value)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Number(value)
    }
}

impl From<i64> for Json {
    fn from(value: i64) -> Self {
        Json::Number(value as f64)
    }
}

impl From<i32> for Json {
    fn from(value: i32) -> Self {
        Json::Number(value as f64)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Self {
        Json::Number(value as f64)
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}

impl From<Vec<Json>> for Json {
    fn from(value: Vec<Json>) -> Self {
        Json::Array(value)
    }
}

impl From<Vec<String>> for Json {
    fn from(value: Vec<String>) -> Self {
        Json::Array(value.into_iter().map(Json::String).collect())
    }
}

fn encode_string(s: &str, out: &mut String) {
    out.push('"');
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a json value")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {literal}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.error("bad number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated unicode escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("bad unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad unicode escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_basic_values() {
        assert_eq!(Json::Null.encode(), "null");
        assert_eq!(Json::Bool(true).encode(), "true");
        assert_eq!(Json::from(42i64).encode(), "42");
        assert_eq!(Json::from(2.5).encode(), "2.5");
        assert_eq!(Json::from("hi\n\"there\"").encode(), "\"hi\\n\\\"there\\\"\"");
        let arr = Json::Array(vec![Json::from(1i64), Json::from("x")]);
        assert_eq!(arr.encode(), "[1,\"x\"]");
        let obj = Json::object().with("b", 2i64).with("a", 1i64);
        assert_eq!(obj.encode(), "{\"a\":1,\"b\":2}");
    }

    #[test]
    fn decode_basic_values() {
        assert_eq!(Json::decode("null").unwrap(), Json::Null);
        assert_eq!(Json::decode(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::decode("-12.5").unwrap(), Json::Number(-12.5));
        assert_eq!(Json::decode("\"a b\"").unwrap().as_str(), Some("a b"));
        assert_eq!(Json::decode("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::decode("{}").unwrap(), Json::object());
    }

    #[test]
    fn round_trip_nested_structures() {
        let value = Json::object()
            .with("name", "grumpy-cat.png")
            .with("width", 640i64)
            .with("tags", Json::Array(vec![Json::from("cat"), Json::from("meme")]))
            .with("meta", Json::object().with("nsfw", false).with("score", 9.5));
        let text = value.encode();
        let parsed = Json::decode(&text).unwrap();
        assert_eq!(parsed, value);
        assert_eq!(parsed.get("meta").unwrap().get("score").unwrap().as_f64(), Some(9.5));
        assert_eq!(parsed.get("width").unwrap().as_f64(), Some(640.0));
        assert_eq!(parsed.get("tags").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(parsed.get("meta").unwrap().get("nsfw").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let value = Json::from("emoji \u{1F600} tab\t backslash\\");
        let parsed = Json::decode(&value.encode()).unwrap();
        assert_eq!(parsed, value);
        let escaped = Json::decode("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(escaped.as_str(), Some("Aé"));
    }

    #[test]
    fn malformed_json_errors_carry_position() {
        for bad in ["{", "[1,", "\"unterminated", "{\"a\" 1}", "tru", "12..5", "[1] extra"] {
            let err = Json::decode(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}");
            assert!(err.to_string().contains("invalid json"));
        }
    }

    #[test]
    fn accessors_return_none_for_wrong_types() {
        let value = Json::from(1i64);
        assert_eq!(value.as_str(), None);
        assert_eq!(value.as_bool(), None);
        assert_eq!(value.as_array(), None);
        assert_eq!(value.get("key"), None);
        assert_eq!(Json::Null.as_f64(), None);
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Json::from(3i32), Json::Number(3.0));
        assert_eq!(Json::from(3usize), Json::Number(3.0));
        assert_eq!(Json::from("s".to_string()), Json::String("s".into()));
        assert_eq!(
            Json::from(vec!["a".to_string(), "b".to_string()])
                .as_array()
                .unwrap()
                .len(),
            2
        );
    }
}
