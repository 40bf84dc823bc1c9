//! A minimal, dependency-free JSON reader/writer.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; this module covers the repository's actual JSON needs instead:
//! recording run provenance next to experiment results ([`crate::config`])
//! and exporting scenario-matrix aggregates (`rackfabric-scenario`). Numbers
//! keep their source text so `u64` values (e.g. an event budget of
//! `u64::MAX`) round-trip exactly.
//!
//! [`parse`] takes time linear in its input's length and nests at most 128
//! arrays and objects deep: a deeper document is an error rather than a
//! stack overflow, so one untrusted line (a `rackfabricd` request) cannot
//! abort the process that parses it.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text for lossless integer round-trips.
    Number(String),
    /// A string (already unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as `u64`, if it is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The fields of an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of an object (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// A parse (or schema) error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input, when known.
    pub offset: usize,
}

impl JsonError {
    /// An error not tied to a source position (e.g. a missing field).
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` so it parses back as a JSON number (no NaN/inf, which
/// JSON cannot represent; those become `null`-safe zeros at a higher level).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        let s = format!("{value}");
        // `{}` on a whole f64 prints no decimal point; keep it a number either way.
        s
    } else {
        "0".to_string()
    }
}

/// An object from `(key, value)` fields, in the given order ([`canonical`]
/// sorts them when it renders).
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
pub fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

/// An unsigned integer, exact.
pub fn uint(v: u64) -> JsonValue {
    JsonValue::Number(v.to_string())
}

/// A signed integer, exact.
pub fn int(v: i64) -> JsonValue {
    JsonValue::Number(v.to_string())
}

/// A float, formatted by [`number`].
pub fn float(v: f64) -> JsonValue {
    JsonValue::Number(number(v))
}

/// Renders a value as **canonical JSON**: compact (no whitespace), object
/// keys sorted lexicographically by their UTF-8 bytes, numbers kept as their
/// source text. Two structurally equal documents always canonicalise to the
/// same byte string, which is what the content-addressed result store in
/// `rackfabric-sweep` hashes to key simulation results.
pub fn canonical(value: &JsonValue) -> String {
    let mut out = String::new();
    write_canonical(value, &mut out);
    out
}

/// Appends the [`canonical`] rendering of `value` to `out`.
pub fn write_canonical(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(raw) => out.push_str(raw),
        JsonValue::String(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            let mut order: Vec<usize> = (0..fields.len()).collect();
            order.sort_by(|&a, &b| fields[a].0.as_bytes().cmp(fields[b].0.as_bytes()));
            out.push('{');
            for (i, &idx) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (key, field) = &fields[idx];
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                write_canonical(field, out);
            }
            out.push('}');
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The deepest
/// document the repository writes (a journaled spec's edge tuples) nests
/// under 10 levels; 128 levels of recursion fit easily in a thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] at once.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// The UTF-16 code unit that the four bytes at `at` spell in hex, if
    /// they do.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = std::str::from_utf8(self.bytes.get(at..at + 4)?).ok()?;
        u32::from_str_radix(hex, 16).ok()
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter as one slice. Both
            // delimiters are ASCII, so the run ends on a char boundary of the
            // `&str` input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let mut code = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // A high surrogate escape followed by a low one is
                            // one UTF-16 pair; a lone surrogate stays U+FFFD.
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                if let Some(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn u64_max_round_trips() {
        let doc = format!("{{\"v\": {}}}", u64::MAX);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote \" backslash \\ newline \n tab \t unicode é";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_stay_replacement_chars() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(
            parse(r#""a\ud834\udd1eb""#).unwrap().as_str(),
            Some("a\u{1d11e}b")
        );
        for (doc, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx\ude00""#, "\u{fffd}x\u{fffd}"),
            (r#""\ud83dA""#, "\u{fffd}A"),
            (r#""\ud83d😀""#, "\u{fffd}😀"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        // A malformed escape after a high surrogate fails where it always did.
        let err = parse(r#""\ud83d\uzzzz""#).unwrap_err();
        assert_eq!((err.message.as_str(), err.offset), ("bad \\u escape", 8));
        let err = parse(r#""\ud83d\ude0"#).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("truncated \\u escape", 8)
        );
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let mixed = "{\"k\":".repeat(MAX_DEPTH - 1) + "[1]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse(&mixed).is_ok());

        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&past).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, "nesting deeper than 128 levels");
        let err = parse(&"{\"k\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH);
        // Far past the limit fails the same way instead of overflowing the stack.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn canonical_sorts_keys_and_strips_whitespace() {
        let a = parse(r#"{"b": 1, "a": {"y": [1, 2], "x": null}}"#).unwrap();
        let b = parse(r#"{ "a": { "x": null, "y": [1,2] }, "b": 1 }"#).unwrap();
        assert_eq!(canonical(&a), canonical(&b));
        assert_eq!(canonical(&a), r#"{"a":{"x":null,"y":[1,2]},"b":1}"#);
        // Canonical text parses back to an equal-up-to-ordering document.
        assert_eq!(
            parse(&canonical(&a)).unwrap().get("b").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn number_formatting_is_parseable() {
        for v in [0.0, 1.5, -2.25, 1e12, f64::NAN, f64::INFINITY] {
            let s = number(v);
            assert!(s.parse::<f64>().unwrap().is_finite());
        }
    }
}
