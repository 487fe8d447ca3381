//! A minimal, dependency-free JSON value model, parser, and writer.
//!
//! The serve wire protocol is newline-delimited JSON (one object per
//! line). The build environment is fully offline, so instead of serde
//! this module hand-rolls the three pieces the protocol needs:
//!
//! * [`Value`] — a tagged JSON tree. Numbers keep their integer-ness:
//!   `Int(i64)` round-trips database coordinates exactly, `Float(f64)`
//!   carries timing stats. Object keys preserve insertion order (a
//!   `Vec` of pairs, not a map) so emitted frames are deterministic.
//! * [`parse`] — a recursive-descent parser with a hard recursion
//!   depth limit, full string-escape handling (`\uXXXX` incl.
//!   surrogate pairs), and precise error offsets for protocol error
//!   reports.
//! * [`base64`] — standard alphabet with padding, used to ship GDSII
//!   bytes inside JSON strings.
//!
//! The parser accepts exactly the JSON grammar (RFC 8259) — no
//! comments, trailing commas, or bare words — because every frame a
//! client sends is untrusted input.

use std::fmt::Write as _;

/// Nesting depth past which [`parse`] rejects the document. Protocol
/// frames are at most a few levels deep; a thousand-level document is
/// a stack-overflow attempt, not a request.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number that lexed as an integer and fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Key/value pairs in insertion order. Duplicate keys keep the
    /// *last* occurrence when queried through [`Value::get`].
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (last duplicate wins); `None` on
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload: `Int` directly, or a `Float` with an exact
    /// integral value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes this value as compact JSON (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                // JSON has no NaN/Infinity; degrade to null like
                // serde_json's lossy mode rather than emit garbage.
                if f.is_finite() {
                    let start = out.len();
                    let _ = write!(out, "{f}");
                    // `{}` on a whole f64 prints no decimal point;
                    // keep the float-ness so a reader round-trips it.
                    if !out[start..].contains('.') && !out[start..].contains('e') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        if n <= i64::MAX as u64 {
            Value::Int(n as i64)
        } else {
            Value::Float(n as f64)
        }
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

/// Builds an object value from key/value pairs, preserving order.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes `s` as a JSON string literal: `"` and `\\` escaped, control
/// characters as their short escapes or `\u00XX`, everything else
/// verbatim. Runs of bytes that need no escape are copied whole.
fn write_json_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut rest = s;
    loop {
        let run = plain_run(rest.as_bytes());
        out.push_str(&rest[..run]);
        // The byte that ended the run is ASCII, so `run + 1` is a char
        // boundary.
        let Some(&b) = rest.as_bytes().get(run) else {
            break;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[run + 1..];
    }
    out.push('"');
}

/// The length of the prefix of `bytes` that a JSON string holds
/// verbatim: up to the first `"`, `\\` or control character (all
/// ASCII, so the prefix ends on a char boundary). Tests eight bytes
/// per step.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Nonzero in a byte's high bit iff some byte of `w` is zero (exact
    // as a whole: a borrow only sets bits above a true zero byte).
    let zero_bytes = |w: u64| w.wrapping_sub(ONES) & !w;
    let mut plain = 0;
    for word in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let control = w.wrapping_sub(ONES * 0x20) & !w;
        let quote = zero_bytes(w ^ (ONES * u64::from(b'"')));
        let backslash = zero_bytes(w ^ (ONES * u64::from(b'\\')));
        if (control | quote | backslash) & HIGHS != 0 {
            break;
        }
        plain += 8;
    }
    let rest = &bytes[plain..];
    plain
        + rest
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(rest.len())
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (a frame is exactly one value).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of bytes up to the next quote, backslash or
            // control character whole.
            let run = self.pos;
            self.pos += plain_run(&self.bytes[run..]);
            out.push_str(&self.text[run..self.pos]);
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.error("expected low surrogate"));
                                    }
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("invalid number"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("invalid number"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Standard base64 (RFC 4648, with padding) — encode and decode, used
/// to carry GDSII byte streams inside JSON strings. Both move whole
/// 3-byte / 4-character groups through tables.
pub mod base64 {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

    /// Marks a byte outside the alphabet in [`DECODE`].
    const INVALID: u8 = 0xFF;

    /// Each byte's 6-bit value, or [`INVALID`].
    const DECODE: [u8; 256] = {
        let mut table = [INVALID; 256];
        let mut i = 0;
        while i < 64 {
            table[ALPHABET[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    /// Encodes `bytes` with padding.
    pub fn encode(bytes: &[u8]) -> String {
        let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 63];
        let mut out = vec![b'='; bytes.len().div_ceil(3) * 4];
        let groups = bytes.chunks_exact(3);
        let tail = groups.remainder();
        for (g, o) in groups.zip(out.chunks_exact_mut(4)) {
            let n = (u32::from(g[0]) << 16) | (u32::from(g[1]) << 8) | u32::from(g[2]);
            o.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
        }
        if let [first, rest @ ..] = tail {
            let second = rest.first().copied().unwrap_or(0);
            let n = (u32::from(*first) << 16) | (u32::from(second) << 8);
            let o = &mut out[bytes.len() / 3 * 4..];
            o[0] = sextet(n, 18);
            o[1] = sextet(n, 12);
            if !rest.is_empty() {
                o[2] = sextet(n, 6);
            }
        }
        String::from_utf8(out).expect("the alphabet is ASCII")
    }

    /// Decodes padded or unpadded base64; whitespace is not accepted.
    /// Trailing `=` are dropped, then every character must be in the
    /// alphabet (the first one that is not is reported by offset), and
    /// a final group of one character is truncated input.
    pub fn decode(text: &str) -> Result<Vec<u8>, String> {
        let trimmed = text.trim_end_matches('=').as_bytes();
        let invalid = |at: usize, group: &[u8]| {
            let i = group
                .iter()
                .position(|&c| DECODE[usize::from(c)] == INVALID);
            format!("invalid base64 character at offset {}", at + i.unwrap_or(0))
        };
        let groups = trimmed.chunks_exact(4);
        let tail = groups.remainder();
        let mut out = vec![0u8; trimmed.len() / 4 * 3 + tail.len().saturating_sub(1)];
        for (gi, (g, o)) in groups.zip(out.chunks_exact_mut(3)).enumerate() {
            let v = [g[0], g[1], g[2], g[3]].map(|c| DECODE[usize::from(c)]);
            // A valid sextet is < 64; INVALID has its top bits set.
            if (v[0] | v[1] | v[2] | v[3]) & 0xC0 != 0 {
                return Err(invalid(gi * 4, g));
            }
            let n = (u32::from(v[0]) << 18)
                | (u32::from(v[1]) << 12)
                | (u32::from(v[2]) << 6)
                | u32::from(v[3]);
            o.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
        }
        let at = trimmed.len() - tail.len();
        if tail.iter().any(|&c| DECODE[usize::from(c)] == INVALID) {
            return Err(invalid(at, tail));
        }
        if tail.len() == 1 {
            return Err("truncated base64 input".to_string());
        }
        // The tail's bytes, the leftover bits past the last one ignored.
        let n = tail.iter().enumerate().fold(0u32, |n, (i, &c)| {
            n | u32::from(DECODE[usize::from(c)]) << (18 - 6 * i)
        });
        let o = &mut out[at / 4 * 3..];
        for (i, byte) in o.iter_mut().enumerate() {
            *byte = (n >> (16 - 8 * i)) as u8;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-character encoders and string scan the bulk ones
    /// replaced, kept as the reference their output must equal byte
    /// for byte.
    mod oracle {
        use super::super::{ParseError, Parser};
        use std::fmt::Write as _;

        pub fn write_json_string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        fn utf8_len(first: u8) -> usize {
            match first {
                0x00..=0x7F => 1,
                0xC0..=0xDF => 2,
                0xE0..=0xEF => 3,
                _ => 4,
            }
        }

        pub fn string(p: &mut Parser<'_>) -> Result<String, ParseError> {
            p.expect(b'"')?;
            let mut out = String::new();
            loop {
                match p.peek() {
                    None => return Err(p.error("unterminated string")),
                    Some(b'"') => {
                        p.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        p.pos += 1;
                        match p.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{08}'),
                            Some(b'f') => out.push('\u{0C}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                p.pos += 1;
                                let hi = p.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&hi) {
                                    if p.peek() == Some(b'\\') {
                                        p.pos += 1;
                                        if p.peek() != Some(b'u') {
                                            return Err(p.error("expected low surrogate"));
                                        }
                                        p.pos += 1;
                                        let lo = p.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(p.error("invalid low surrogate"));
                                        }
                                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(code)
                                    } else {
                                        return Err(p.error("lone high surrogate"));
                                    }
                                } else if (0xDC00..0xE000).contains(&hi) {
                                    return Err(p.error("lone low surrogate"));
                                } else {
                                    char::from_u32(hi)
                                };
                                match c {
                                    Some(c) => out.push(c),
                                    None => return Err(p.error("invalid unicode escape")),
                                }
                                continue;
                            }
                            _ => return Err(p.error("invalid escape")),
                        }
                        p.pos += 1;
                    }
                    Some(c) if c < 0x20 => return Err(p.error("control character in string")),
                    Some(_) => {
                        let start = p.pos;
                        let len = utf8_len(p.bytes[start]);
                        let slice = &p.bytes[start..start + len];
                        out.push_str(std::str::from_utf8(slice).expect("valid utf8"));
                        p.pos += len;
                    }
                }
            }
        }

        const ALPHABET: &[u8; 64] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

        pub fn encode(bytes: &[u8]) -> String {
            let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
            for chunk in bytes.chunks(3) {
                let b = [
                    chunk[0],
                    chunk.get(1).copied().unwrap_or(0),
                    chunk.get(2).copied().unwrap_or(0),
                ];
                let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
                out.push(ALPHABET[(n >> 18) as usize & 63] as char);
                out.push(ALPHABET[(n >> 12) as usize & 63] as char);
                out.push(if chunk.len() > 1 {
                    ALPHABET[(n >> 6) as usize & 63] as char
                } else {
                    '='
                });
                out.push(if chunk.len() > 2 {
                    ALPHABET[n as usize & 63] as char
                } else {
                    '='
                });
            }
            out
        }

        pub fn decode(text: &str) -> Result<Vec<u8>, String> {
            let trimmed = text.trim_end_matches('=');
            let mut out = Vec::with_capacity(trimmed.len() * 3 / 4);
            let mut acc: u32 = 0;
            let mut bits = 0u32;
            for (i, c) in trimmed.bytes().enumerate() {
                let v = match c {
                    b'A'..=b'Z' => c - b'A',
                    b'a'..=b'z' => c - b'a' + 26,
                    b'0'..=b'9' => c - b'0' + 52,
                    b'+' => 62,
                    b'/' => 63,
                    _ => return Err(format!("invalid base64 character at offset {i}")),
                };
                acc = (acc << 6) | u32::from(v);
                bits += 6;
                if bits >= 8 {
                    bits -= 8;
                    out.push((acc >> bits) as u8);
                }
            }
            if bits >= 6 {
                return Err("truncated base64 input".to_string());
            }
            Ok(out)
        }
    }

    /// Text built from fragments that stress the string codecs: quotes,
    /// backslashes, every control character, non-ASCII scalars, and
    /// well- and ill-formed escapes, among plain ASCII runs.
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0u8..16, any::<u32>()), 0..40).prop_map(|atoms| {
            let mut s = String::new();
            for (pick, n) in atoms {
                match pick {
                    0 => s.push('"'),
                    1 => s.push('\\'),
                    2 => s.push(char::from_u32(n % 0x20).expect("control")),
                    3 => s.push(char::from_u32(n % 0x11_0000).unwrap_or('\u{FFFD}')),
                    4 => s.push(['é', '😀', '\u{2028}', '\u{7f}', '/'][n as usize % 5]),
                    5 => {
                        let _ = std::fmt::Write::write_fmt(
                            &mut s,
                            format_args!("\\u{:04x}", n % 0x1_0000),
                        );
                    }
                    6 => s.push_str(
                        [
                            "\\ud83d\\ude00",
                            "\\ud800",
                            "\\udc00",
                            "\\ud800x",
                            "\\ud83d\\u0041",
                            "\\u12",
                            "\\uZZZZ",
                            "\\q",
                            "\\/",
                            "\\\"",
                        ][n as usize % 10],
                    ),
                    _ => {
                        for k in 0..=(n % 12) {
                            s.push(char::from(b' ' + ((n >> (k % 24)) % 95) as u8));
                        }
                    }
                }
            }
            s
        })
    }

    /// Runs a string scan at the start of `input`: its result and the
    /// offset it stopped at.
    fn scan<'a>(
        input: &'a str,
        f: impl FnOnce(&mut Parser<'a>) -> Result<String, ParseError>,
    ) -> (Result<String, ParseError>, usize) {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let result = f(&mut p);
        (result, p.pos)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn string_writer_matches_the_per_character_oracle(text in arb_text()) {
            let (mut bulk, mut old) = (String::from("x"), String::from("x"));
            write_json_string(&text, &mut bulk);
            oracle::write_json_string(&text, &mut old);
            prop_assert_eq!(&bulk, &old);
            prop_assert_eq!(parse(&bulk[1..]), Ok(Value::Str(text)));
        }

        #[test]
        fn string_scan_matches_the_per_character_oracle(body in arb_text(), close in any::<bool>()) {
            let input = format!("\"{body}{}", if close { "\"" } else { "" });
            prop_assert_eq!(scan(&input, |p| p.string()), scan(&input, oracle::string));
        }

        #[test]
        fn base64_encode_matches_the_oracle(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let encoded = base64::encode(&bytes);
            prop_assert_eq!(&encoded, &oracle::encode(&bytes));
            prop_assert_eq!(base64::decode(&encoded), Ok(bytes));
        }

        #[test]
        fn base64_decode_matches_the_oracle(
            picks in proptest::collection::vec((0u8..8, any::<u8>()), 0..80),
        ) {
            // Mostly alphabet characters, with padding, whitespace and
            // stray bytes mixed in.
            let text: String = picks
                .into_iter()
                .map(|(pick, b)| match pick {
                    0 => ['=', ' ', '\n', '-', 'é', '\0'][b as usize % 6],
                    _ => char::from(
                        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
                            [b as usize % 64],
                    ),
                })
                .collect();
            prop_assert_eq!(base64::decode(&text), oracle::decode(&text));
        }
    }

    #[test]
    fn base64_matches_the_oracle_at_every_short_length() {
        for len in 0..=64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 151 + len * 7) as u8).collect();
            let encoded = base64::encode(&data);
            assert_eq!(encoded, oracle::encode(&data), "len {len}");
            assert_eq!(
                base64::decode(&encoded),
                oracle::decode(&encoded),
                "len {len}"
            );
            // Every strict prefix and every padding-less form too.
            for cut in 0..encoded.len() {
                let text = &encoded[..cut];
                assert_eq!(
                    base64::decode(text),
                    oracle::decode(text),
                    "len {len} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn round_trips_values() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"-42"#,
            r#"3.5"#,
            r#""hi there""#,
            r#"[1,2,[3]]"#,
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
        ];
        for case in cases {
            let v = parse(case).unwrap();
            assert_eq!(v.to_json(), *case, "round trip {case}");
        }
    }

    #[test]
    fn integers_stay_integers() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1: breaks f64
        assert_eq!(v, Value::Int(9007199254740993));
        assert_eq!(v.to_json(), "9007199254740993");
        assert!(matches!(parse("1.5").unwrap(), Value::Float(_)));
        assert!(matches!(parse("1e3").unwrap(), Value::Float(_)));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndAé😀");
        // Writer escapes control characters back out.
        let out = Value::Str("x\n\"\\\u{01}".to_string()).to_json();
        assert_eq!(out, r#""x\n\"\\\u0001""#);
        assert_eq!(parse(&out).unwrap().as_str().unwrap(), "x\n\"\\\u{01}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "--1",
            "\"unterminated",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1] trailing",
            "{\"a\":1}}",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn base64_round_trips() {
        for len in 0..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let enc = base64::encode(&data);
            assert_eq!(base64::decode(&enc).unwrap(), data, "len {len}");
        }
        assert_eq!(base64::encode(b"f"), "Zg==");
        assert_eq!(base64::encode(b"fo"), "Zm8=");
        assert_eq!(base64::encode(b"foo"), "Zm9v");
        assert!(base64::decode("a b").is_err());
        assert!(base64::decode("abcde").is_err());
    }
}
