//! A minimal self-contained JSON document model, parser and writer.
//!
//! The build environment of this reproduction has no access to crates.io, so
//! `serde`/`serde_json` are unavailable. Schedule export ([`crate::export`])
//! only needs a small, well-understood JSON subset, which this module provides:
//! a [`Value`] tree, a strict recursive-descent [`Value::parse`] and a
//! pretty-printing [`Value::to_json_pretty`] / compact [`Value::to_json`]
//! writer. Object keys are kept in a `BTreeMap`, so output is deterministic.
//!
//! The parser is the entry point for bytes from outside the process (service
//! request frames, cache files), so it is built to be safe on hostile input:
//!
//! * **Linear time.** Strings are copied run by run up to the next quote,
//!   backslash or control character; no byte is examined more than a
//!   constant number of times.
//! * **Bounded depth.** Arrays and objects nest at most [`MAX_DEPTH`] levels.
//!   Deeper input is a [`JsonError`], not a stack overflow that would abort
//!   the process.
//! * **Strict grammar.** Numbers follow RFC 8259 exactly (no leading zeros,
//!   no bare `.5` or `1.`), and strings reject raw control characters
//!   U+0000–U+001F. The writer always escapes those characters, so every
//!   document it produces parses back to the same [`Value`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Value::parse`] accepts. Every document
/// this workspace writes nests fewer than ten levels; the cap only has to
/// stop a hostile frame (say, 100 000 `[`) from exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON document: the usual six value kinds.
///
/// Numbers are stored as `f64`, which is lossless for every quantity the
/// schedule exporter produces (indices, microsecond offsets and counters are
/// all far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Value>),
}

/// An error produced while parsing or interpreting a JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error in the input, when known.
    offset: Option<usize>,
}

impl JsonError {
    /// Creates an error with a free-form message (used by decoders built on
    /// top of [`Value`], e.g. for missing or mistyped fields).
    pub fn custom(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {}", self.message, offset),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document, requiring that the whole input is consumed.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::at("trailing characters", parser.pos));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the compact JSON form of the value to `out` — the bytes
    /// [`Value::to_json`] returns, for callers assembling a larger document.
    pub fn write_json(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Renders the value as pretty-printed JSON (two-space indentation).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Writes a number exactly as `f64`'s `Display` does — the shortest form
/// that parses back to the same value, integers without a fraction, `-0`
/// for negative zero — and `null` for non-finite values.
fn write_number(out: &mut String, n: f64) {
    // Integers below 2^53 are exact in f64 and in i64, and both `Display`
    // impls print them as plain digits, so the integer path (the common
    // case: indices, offsets, counters) prints identical bytes faster.
    const EXACT: f64 = (1u64 << 53) as f64;
    if n.fract() == 0.0 && n.abs() < EXACT {
        if n == 0.0 && n.is_sign_negative() {
            out.push_str("-0");
        } else {
            let _ = write!(out, "{}", n as i64);
        }
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that needs
/// no escape in one piece. Every escaped byte is ASCII, so each run ends on
/// a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            // Other control characters: written as `\u00XX` below.
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    /// The input; `bytes` is the same text as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                format!("expected `{}`", char::from(byte)),
                self.pos,
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(JsonError::at("unexpected character", self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    /// Parses one array or object a level deeper, failing past
    /// [`MAX_DEPTH`]. An error aborts the whole parse, so only the success
    /// path has to restore the depth.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::at(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{literal}`"), self.pos))
        }
    }

    /// Consumes one or more ASCII digits; errors if none are present.
    fn parse_digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(JsonError::at("expected a digit", start));
        }
        Ok(())
    }

    /// Parses a number following the JSON grammar exactly: an optional minus,
    /// an integer part without leading zeros, then optional fraction and
    /// exponent parts that each require at least one digit.
    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        self.parse_digits()?;
        if self.bytes[int_start] == b'0' && self.pos > int_start + 1 {
            return Err(JsonError::at("leading zeros are not allowed", int_start));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.parse_digits()?;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.parse_digits()?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::at("invalid number", start))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs a decision. Those
            // bytes are all ASCII and `text` is valid UTF-8, so the run is
            // whole characters.
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
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
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::at("invalid low surrogate", self.pos));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(JsonError::at("invalid unicode escape", self.pos))
                                }
                            }
                            // parse_hex4 advanced past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(JsonError::at("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(JsonError::at(
                        "unescaped control character in string",
                        self.pos,
                    ))
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::at("truncated unicode escape", self.pos));
        }
        let digits = &self.bytes[self.pos..self.pos + 4];
        // from_str_radix also accepts a sign, which JSON forbids.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(JsonError::at("invalid unicode escape", self.pos));
        }
        let text = std::str::from_utf8(digits).expect("hex digits are ASCII");
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError::at("invalid unicode escape", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -12.5e2 ").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            Value::parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].as_object().unwrap()["b"].as_bool(), Some(false));
        assert_eq!(obj["c"].as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{not json",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "",
            "\"unterminated",
            // RFC 8259: raw U+0000–U+001F must be escaped inside strings.
            "\"nul\u{0}byte\"",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "\"unit\u{1f}sep\"",
            "{\"key\u{7}\": 1}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // DEL and non-ASCII are not control characters in JSON's sense.
        assert_eq!(
            Value::parse("\"\u{7f}é\"").unwrap(),
            Value::String("\u{7f}é".to_owned())
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&deepest).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Value::parse(&objects).is_ok());
        for bomb in [
            format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
            "[".repeat(100_000),
            "{\"a\":[".repeat(50_000),
        ] {
            let error = Value::parse(&bomb).expect_err("too deep");
            assert!(error.to_string().contains("nesting deeper than"), "{error}");
        }
    }

    #[test]
    fn number_grammar_is_json_strict() {
        // Forms Rust's f64 parser accepts but JSON forbids must be rejected.
        for bad in [
            "01", "-01", "1.", ".5", "1.e5", "1e", "1e+", "-", "+1", "00",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad}");
        }
        for (good, expected) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("10", 10.0),
            ("1e5", 1e5),
            ("1.25E-2", 0.0125),
        ] {
            assert_eq!(Value::parse(good).unwrap(), Value::Number(expected));
        }
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let original = Value::parse(
            r#"{"name": "s\"1", "values": [0, 40000.5, -3], "flag": true, "none": null}"#,
        )
        .unwrap();
        for rendered in [original.to_json(), original.to_json_pretty()] {
            assert_eq!(Value::parse(&rendered).unwrap(), original);
        }
    }

    #[test]
    fn numbers_print_exactly_like_f64_display() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            42.0,
            40_000.5,
            0.1,
            -3.25e-7,
            1e15,
            1e21,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_993.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(Value::Number(n).to_json(), format!("{n}"), "{n:e}");
        }
        assert_eq!(Value::Number(-0.0).to_json(), "-0");
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Number(n).to_json(), "null");
        }
    }

    #[test]
    fn strings_escape_exactly_the_json_specials() {
        let s = "plain \"q\" \\ / \n\r\t\u{8}\u{c}\u{0}\u{1f} é😀\u{7f}";
        let json = Value::String(s.to_owned()).to_json();
        assert_eq!(
            json,
            "\"plain \\\"q\\\" \\\\ / \\n\\r\\t\\b\\f\\u0000\\u001f é😀\u{7f}\""
        );
        assert_eq!(Value::parse(&json).unwrap(), Value::String(s.to_owned()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".to_owned())
        );
    }

    #[test]
    fn unicode_escapes_require_exactly_four_hex_digits() {
        assert!(Value::parse("\"\\u+061\"").is_err());
        assert!(Value::parse("\"\\u00 1\"").is_err());
        assert!(Value::parse("\"\\u00\"").is_err());
        assert_eq!(
            Value::parse("\"\\u0061\"").unwrap(),
            Value::String("a".to_owned())
        );
    }

    #[test]
    fn u64_conversion_rejects_fractions_and_negatives() {
        assert_eq!(Value::Number(5.0).as_u64(), Some(5));
        assert_eq!(Value::Number(5.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }
}
