//! Offline stand-in for `serde_json` over the stand-in `serde` value
//! model: renderer, parser, `json!`, and the `to_*`/`from_*` entry
//! points the workspace calls.

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

// ---- serialization ------------------------------------------------

pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.serialize_value()
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.serialize_value().to_string())
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    write!(writer, "{}", value.serialize_value()).map_err(|e| Error(e.to_string()))
}

// ---- deserialization ----------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            ))
        }
    }

    fn parse_value(&mut self) -> std::result::Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        other => return Err(format!("bad array token {other:?}")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        other => return Err(format!("bad object token {other:?}")),
                    }
                }
            }
            Some(_) => self.parse_number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> std::result::Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> std::result::Result<Value, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn parse_string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape,
                    // validating it once. Neither byte occurs inside a
                    // multi-byte UTF-8 sequence, so a run of valid input
                    // ends on a character boundary.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut parser = Parser { bytes, pos: 0 };
    let value = parser.parse_value().map_err(Error)?;
    T::deserialize_value(&value).map_err(Error)
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Builds a [`Value`] object from a flat `{"key": expr, ...}` literal
/// (the only shape the workspace uses).
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $(($key.to_string(), $crate::to_value(&$value))),*
        ])
    };
}
