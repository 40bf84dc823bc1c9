//! A minimal, dependency-free JSON reader/writer.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; this module covers the repository's actual JSON needs instead:
//! exporting scenario-matrix aggregates (`rackfabric-scenario`), and the
//! result store's records, journals and `rackfabricd` lines above them.
//! Numbers keep their source text so `u64` values (e.g. an event budget of
//! `u64::MAX`) round-trip exactly.
//!
//! There is one grammar. [`Reader`] is a pull reader over a document
//! (object fields, array items, numbers as their source text, strings
//! borrowed unless escaped, a checking [`Reader::skip`], and
//! [`Reader::raw`], which also returns what it skipped), and [`parse`]
//! builds its [`JsonValue`] tree through it. A decoder that reads a document
//! in place, such as the result store's, therefore accepts exactly the
//! documents [`parse`] accepts. Either takes time linear in its input's
//! length and nests at most 128 arrays and objects deep: a deeper document
//! is an error rather than a stack overflow, so one untrusted line (a
//! `rackfabricd` request) cannot abort the process that parses it.
//!
//! On the writing side, [`canonical`] renders a tree with sorted keys and no
//! whitespace, and [`CanonicalWriter`] writes the same form straight into a
//! string for callers that emit their fields in key order.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

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

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` escaped for inclusion inside a JSON string literal (quotes
/// not included). Runs that need no escape are copied as whole slices.
pub fn write_escaped(s: &str, out: &mut String) {
    let mut start = 0;
    // Every byte that needs an escape is ASCII, and no byte of a multibyte
    // UTF-8 char is, so each cut below falls on a char boundary.
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(s, &mut out);
    out
}

/// Appends `s` as a JSON string literal, quotes included.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    write_escaped(s, out);
    out.push('"');
}

/// Formats an `f64` so it parses back as a JSON number (no NaN/inf, which
/// JSON cannot represent; those become `null`-safe zeros at a higher level).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        // `{}` on a whole f64 prints no decimal point; keep it a number either way.
        format!("{value}")
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
    JsonValue::Number(decimal(v, &mut [0; 20]).to_string())
}

/// `v` in decimal, spelled into `buf`.
fn decimal(v: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    let mut rest = v;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
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
        JsonValue::String(s) => write_string(s, out),
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
            out.push('{');
            // Fields already in order (every object built in key order) skip
            // the sort; a stable sort of sorted fields is the identity anyway,
            // duplicate keys included.
            if fields.windows(2).all(|pair| pair[0].0 <= pair[1].0) {
                write_fields(fields.iter(), out);
            } else {
                let mut order: Vec<&(String, JsonValue)> = fields.iter().collect();
                order.sort_by(|a, b| a.0.cmp(&b.0));
                write_fields(order.into_iter(), out);
            }
            out.push('}');
        }
    }
}

fn write_fields<'v>(fields: impl Iterator<Item = &'v (String, JsonValue)>, out: &mut String) {
    for (i, (key, field)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(key, out);
        out.push(':');
        write_canonical(field, out);
    }
}

/// Writes canonical JSON straight into one string, with no [`JsonValue`]
/// built first. The caller emits each object's fields in ascending key
/// order, which is what makes the output [`canonical`]; values are written
/// as [`write_canonical`] would write them.
///
/// ```
/// use rackfabric_sim::json::CanonicalWriter;
/// let mut w = CanonicalWriter::default();
/// w.begin_object();
/// w.key("a").uint(1);
/// w.key("b").begin_array().string("x").null().end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"a":1,"b":["x",null]}"#);
/// ```
#[derive(Debug, Default)]
pub struct CanonicalWriter {
    out: String,
    /// A value just ended: the next key or item takes a comma.
    comma: bool,
}

impl CanonicalWriter {
    /// The JSON written.
    pub fn finish(self) -> String {
        self.out
    }

    fn value_start(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn scalar(&mut self, text: &str) -> &mut Self {
        self.value_start();
        self.out.push_str(text);
        self.comma = true;
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value_start();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object; its fields follow in ascending key order.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes a field name; the field's value comes next.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.value_start();
        write_string(name, &mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// An unsigned integer, exact.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.scalar(decimal(v, &mut [0; 20]))
    }

    /// A float, formatted by [`number`].
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.scalar(&number(v))
    }

    /// A string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.value_start();
        write_string(s, &mut self.out);
        self.comma = true;
        self
    }

    /// A bool.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.scalar(if b { "true" } else { "false" })
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.scalar("null")
    }
}

/// Deepest nesting of arrays and objects a [`Reader`] (and so [`parse`])
/// accepts. The deepest document the repository writes (a journaled spec's
/// edge tuples) nests under 10 levels; 128 levels of recursion fit easily in
/// a thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document into a tree, through a [`Reader`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// The object `text` holds, read in place: the source text
/// ([`Reader::raw`]) of the first field of each of `names`, every other
/// field checked and passed over. `None` when `text` is not one JSON
/// object.
///
/// ```
/// use rackfabric_sim::json::object_fields;
/// let fields = object_fields(r#"{"b": [1, 2], "a": "x", "a": 3}"#, ["a", "b", "c"]);
/// assert_eq!(fields, Some([Some(r#""x""#), Some("[1, 2]"), None]));
/// ```
pub fn object_fields<'a, const N: usize>(
    text: &'a str,
    names: [&str; N],
) -> Option<[Option<&'a str>; N]> {
    let mut r = Reader::new(text);
    if r.peek().ok()? != Kind::Object {
        return None;
    }
    r.begin_object().ok()?;
    let mut found = [None; N];
    while let Some(name) = r.next_field().ok()? {
        match names.iter().position(|n| *n == name) {
            Some(i) if found[i].is_none() => found[i] = Some(r.raw().ok()?),
            _ => r.skip().ok()?,
        }
    }
    r.finish().ok()?;
    Some(found)
}

/// What kind of value comes next, as its first byte tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document: the grammar [`parse`] builds its
/// tree through, for decoders that read a document in place.
///
/// The caller walks the document value by value. [`Reader::peek`] names the
/// next value's kind, and exactly one call reads it: [`Reader::number`],
/// [`Reader::string`], [`Reader::value`] (into a tree), or
/// [`Reader::begin_object`] / [`Reader::begin_array`] followed by
/// [`Reader::next_field`] / [`Reader::next_item`] until they report the
/// end, each field or item read in turn. [`Reader::skip`] reads past a
/// value without building it, checking it all the same, and
/// [`Reader::raw`] also returns the value's source text. Numbers come back
/// as their source text and strings borrowed from the input unless they
/// hold escapes. [`Reader::finish`] checks that nothing follows the
/// document. Errors carry [`parse`]'s messages and offsets, and nesting
/// past 128 levels is an error rather than a stack overflow.
///
/// ```
/// use rackfabric_sim::json::Reader;
/// let mut r = Reader::new(r#"{"id": 7, "tags": ["a", "b"]}"#);
/// r.begin_object().unwrap();
/// let mut id = None;
/// while let Some(name) = r.next_field().unwrap() {
///     match &*name {
///         "id" => id = Some(r.number().unwrap()),
///         _ => r.skip().unwrap(),
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(id, Some("7"));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// An array or object just opened: its first item or field takes no
    /// comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`'s document.
    pub fn new(input: &'a str) -> Reader<'a> {
        let mut reader = Reader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        };
        reader.skip_ws();
        reader
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek_byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    /// The kind of the next value, which stays unread.
    pub fn peek(&self) -> Result<Kind, JsonError> {
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Checks that only whitespace follows the document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn null(&mut self) -> Result<(), JsonError> {
        self.keyword("null")
    }

    fn bool(&mut self) -> Result<bool, JsonError> {
        let value = self.peek_byte() == Some(b't');
        self.keyword(if value { "true" } else { "false" })?;
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek_byte(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads a number and returns its source text.
    ///
    /// The accepted shapes are `f64`'s: an optional `-`, digits with an
    /// optional `.` and at least one digit on either side of it, then an
    /// optional exponent with at least one digit (`1.`, `-.5` and `01` are
    /// numbers; `-`, `1e` and `1e+` are not).
    pub fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut mantissa = self.digits();
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            mantissa += self.digits();
        }
        let mut ok = mantissa > 0;
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(self.err("malformed number"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Reads a string: borrowed from the input when it holds no escape,
    /// unescaped into a new one when it does.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            // The run up to the next delimiter, as one slice. Both
            // delimiters are ASCII, so the run ends on a char boundary of the
            // `&str` input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let text = &self.input[self.pos..self.pos + run];
            self.pos += run;
            match self.peek_byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                _ => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.pos += 1;
                    self.unescape(out)?;
                }
            }
        }
    }

    /// Decodes the escape whose letter is at the reader's position.
    fn unescape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.peek_byte() {
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
                // A high surrogate escape followed by a low one is one
                // UTF-16 pair; a lone surrogate stays U+FFFD.
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
        Ok(())
    }

    /// The UTF-16 code unit that the four bytes at `at` spell in hex, if
    /// they do.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = std::str::from_utf8(self.bytes.get(at..at + 4)?).ok()?;
        u32::from_str_radix(hex, 16).ok()
    }

    /// Opens one array or object, refusing to open more than
    /// [`MAX_DEPTH`] at once.
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Opens an object; [`Reader::next_field`] walks its fields.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// Opens an array; [`Reader::next_item`] walks its items.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// The name of the open object's next field, with the reader at the
    /// field's value, which the caller reads or skips next; `None` once the
    /// object's closing brace is read.
    pub fn next_field(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        let name = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(name))
    }

    /// True with the reader at the open array's next item, which the caller
    /// reads or skips next; false once the array's closing bracket is read.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// Steps past the separator before the next member of the open array or
    /// object, or past its closing bracket (false).
    fn next_member(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        if std::mem::take(&mut self.first) {
            if self.peek_byte() != Some(close) {
                return Ok(true);
            }
        } else {
            match self.peek_byte() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    return Ok(true);
                }
                Some(c) if c == close => {}
                _ => return Err(self.err(message)),
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// Reads past the next value without building it, checking it as
    /// [`parse`] would.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                while self.next_field()?.is_some() {
                    self.skip()?;
                }
            }
            Kind::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Kind::String => {
                self.string()?;
            }
            Kind::Number => {
                self.number()?;
            }
            Kind::Bool => {
                self.bool()?;
            }
            Kind::Null => self.null()?,
        }
        Ok(())
    }

    /// Reads past the next value, checking it exactly as [`Reader::skip`]
    /// does, and returns the value's source text.
    pub fn raw(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        self.skip()?;
        // A value starts and ends on an ASCII byte, so both ends are char
        // boundaries.
        Ok(&self.input[start..self.pos])
    }

    /// Reads the next value into a tree.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(name) = self.next_field()? {
                    fields.push((name.into_owned(), self.value()?));
                }
                JsonValue::Object(fields)
            }
            Kind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                JsonValue::Array(items)
            }
            Kind::String => JsonValue::String(self.string()?.into_owned()),
            Kind::Number => JsonValue::Number(self.number()?.to_string()),
            Kind::Bool => JsonValue::Bool(self.bool()?),
            Kind::Null => {
                self.null()?;
                JsonValue::Null
            }
        })
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

    /// The number grammar before the reader existed: scan the shape, then
    /// let `f64`'s parser decide.
    fn number_as_before(doc: &str) -> Result<&str, (&'static str, usize)> {
        let b = doc.as_bytes();
        if !matches!(b.first(), Some(c) if *c == b'-' || c.is_ascii_digit()) {
            return Err(("expected a JSON value", 0));
        }
        let digits = |mut i: usize| {
            while b.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            i
        };
        let mut end = digits(usize::from(b[0] == b'-'));
        if b.get(end) == Some(&b'.') {
            end = digits(end + 1);
        }
        if matches!(b.get(end), Some(b'e' | b'E')) {
            end += 1;
            if matches!(b.get(end), Some(b'+' | b'-')) {
                end += 1;
            }
            end = digits(end);
        }
        if doc[..end].parse::<f64>().is_err() {
            return Err(("malformed number", end));
        }
        if end != doc.len() {
            return Err(("trailing characters after document", end));
        }
        Ok(&doc[..end])
    }

    fn parsed_number(doc: &str) -> Result<String, (String, usize)> {
        match parse(doc) {
            Ok(JsonValue::Number(raw)) => Ok(raw),
            Ok(other) => panic!("{doc:?} parsed as {other:?}"),
            Err(e) => Err((e.message, e.offset)),
        }
    }

    #[test]
    fn number_shapes_are_accepted_or_rejected_as_before() {
        for (doc, want) in [
            ("1.", Ok("1.")),
            ("-.5", Ok("-.5")),
            ("01", Ok("01")),
            ("1.e5", Ok("1.e5")),
            ("-0E-0", Ok("-0E-0")),
            ("1e", Err(("malformed number", 2))),
            ("1e+", Err(("malformed number", 3))),
            ("-", Err(("malformed number", 1))),
            ("-.", Err(("malformed number", 2))),
            ("--1", Err(("malformed number", 1))),
            (".5", Err(("expected a JSON value", 0))),
            ("+1", Err(("expected a JSON value", 0))),
            ("1e5.", Err(("trailing characters after document", 3))),
        ] {
            assert_eq!(number_as_before(doc), want, "{doc}");
            let got = parsed_number(doc);
            assert_eq!(
                got.as_ref()
                    .map(String::as_str)
                    .map_err(|(m, o)| (m.as_str(), *o)),
                want,
                "{doc}"
            );
        }
        // Every string of up to five number characters: same verdict, same
        // message, same offset as the scan-then-`f64` grammar.
        let alphabet = [b'-', b'0', b'1', b'.', b'e', b'E', b'+'];
        let mut docs = vec![Vec::new()];
        for _ in 0..5 {
            let longer: Vec<Vec<u8>> = docs
                .iter()
                .filter(|d| d.len() == docs.last().map_or(0, Vec::len))
                .flat_map(|d| alphabet.iter().map(move |&c| [d.as_slice(), &[c]].concat()))
                .collect();
            docs.extend(longer);
        }
        assert_eq!(docs.len(), 1 + 7 + 49 + 343 + 2401 + 16807);
        for doc in docs.iter().skip(1) {
            let doc = std::str::from_utf8(doc).unwrap();
            let want = number_as_before(doc)
                .map(str::to_string)
                .map_err(|(m, o)| (m.to_string(), o));
            assert_eq!(parsed_number(doc), want, "{doc}");
        }
    }

    #[test]
    fn the_reader_borrows_plain_strings_and_walks_in_place() {
        let doc = r#" {"plain": "abc", "esc\u0041ped": "x\ny", "n": -1.5e3,
                       "list": [true, null, {}, []], "nested": {"k": [1]}} "#;
        let mut r = Reader::new(doc);
        assert_eq!(r.peek(), Ok(Kind::Object));
        r.begin_object().unwrap();
        let mut seen = Vec::new();
        while let Some(name) = r.next_field().unwrap() {
            match &*name {
                "plain" => {
                    let value = r.string().unwrap();
                    assert!(matches!(name, Cow::Borrowed(_)));
                    assert!(matches!(value, Cow::Borrowed("abc")));
                }
                "escAped" => {
                    assert!(matches!(name, Cow::Owned(_)));
                    assert_eq!(r.string().unwrap(), "x\ny");
                }
                "n" => assert_eq!(r.number(), Ok("-1.5e3")),
                "list" => {
                    r.begin_array().unwrap();
                    let mut kinds = Vec::new();
                    while r.next_item().unwrap() {
                        kinds.push(r.peek().unwrap());
                        r.skip().unwrap();
                    }
                    assert_eq!(kinds, [Kind::Bool, Kind::Null, Kind::Object, Kind::Array]);
                }
                _ => r.skip().unwrap(),
            }
            seen.push(name.into_owned());
        }
        r.finish().unwrap();
        assert_eq!(seen, ["plain", "escAped", "n", "list", "nested"]);
    }

    /// Every prefix of `doc`, and every replacement of one of its
    /// characters by a byte that means something to the grammar.
    fn damaged(doc: &str) -> Vec<String> {
        let mut variants: Vec<String> = (0..doc.len())
            .filter(|&i| doc.is_char_boundary(i))
            .map(|i| doc[..i].to_string())
            .collect();
        for (i, _) in doc.char_indices() {
            for c in [
                '"', '\\', ',', ':', '[', ']', '{', '}', '0', 'e', '-', ' ', 'x',
            ] {
                let mut v = doc.to_string();
                v.replace_range(
                    i..i + doc[i..].chars().next().unwrap().len_utf8(),
                    &c.to_string(),
                );
                variants.push(v);
            }
        }
        variants
    }

    #[test]
    fn skip_checks_what_parse_checks_with_the_same_errors() {
        let doc = r#"{"a": [1, -2.5e-3, "s\u00e9\ud83d\ude00", {"b": null}], "c": true}"#;
        let skipped = |text: &str| {
            let mut r = Reader::new(text);
            r.skip().and_then(|()| r.finish())
        };
        assert_eq!(skipped(doc), Ok(()));
        for v in &damaged(doc) {
            assert_eq!(skipped(v), parse(v).map(drop), "{v}");
        }
        assert_eq!(skipped(&"[".repeat(100_000)).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn raw_returns_source_text_and_fails_where_skip_fails() {
        let doc = r#" {"obj": {"k" : [1, "a"] }, "list": [ true,null ],
                       "esc": "q\"\u00e9\n\ud83d\ude00", "num": -1.5e+3, "none": {}} "#;
        let mut r = Reader::new(doc);
        r.begin_object().unwrap();
        let mut fields = Vec::new();
        while let Some(name) = r.next_field().unwrap() {
            fields.push((name.into_owned(), r.raw().unwrap()));
        }
        r.finish().unwrap();
        let want = [
            ("obj", r#"{"k" : [1, "a"] }"#),
            ("list", "[ true,null ]"),
            ("esc", r#""q\"\u00e9\n\ud83d\ude00""#),
            ("num", "-1.5e+3"),
            ("none", "{}"),
        ];
        assert_eq!(fields.len(), want.len());
        for ((name, text), (want_name, want_text)) in fields.iter().zip(want) {
            assert_eq!((name.as_str(), *text), (want_name, want_text));
        }
        assert_eq!(Reader::new(doc).raw(), Ok(doc.trim()));

        // Damaged documents fail at the same offset with the same message,
        // and an intact value's text is what the reader stepped over.
        for v in &damaged(doc.trim()) {
            let (mut by_raw, mut by_skip) = (Reader::new(v), Reader::new(v));
            let raw = by_raw.raw();
            assert_eq!(raw.clone().map(drop), by_skip.skip(), "{v}");
            if let Ok(text) = raw {
                assert!(v.trim_start().starts_with(text), "{v}");
                assert_eq!(by_raw.pos, by_skip.pos, "{v}");
            }
        }
        let deep = "[".repeat(100_000);
        assert_eq!(Reader::new(&deep).raw().unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn the_canonical_writer_matches_canonical_rendering() {
        let mut w = CanonicalWriter::default();
        w.begin_object();
        w.key("a\"b").string("line\nbreak \u{1} é");
        w.key("big").uint(u64::MAX);
        w.key("empty").begin_object().end_object();
        w.key("list")
            .begin_array()
            .uint(0)
            .float(2.5)
            .float(f64::NAN)
            .bool(true)
            .null()
            .begin_array()
            .end_array()
            .end_array();
        w.key("z").bool(false);
        w.end_object();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"a\\\"b\":\"line\\nbreak \\u0001 é\",\"big\":18446744073709551615,\
             \"empty\":{},\"list\":[0,2.5,0,true,null,[]],\"z\":false}"
        );
        assert_eq!(canonical(&parse(&text).unwrap()), text);
    }

    #[test]
    fn canonical_sorts_unsorted_fields_stably() {
        let doc = parse(r#"{"b": 1, "a": 2, "b": 3, "a": 4}"#).unwrap();
        assert_eq!(canonical(&doc), r#"{"a":2,"a":4,"b":1,"b":3}"#);
        let sorted = parse(r#"{"a": 2, "a": 1, "b": 0}"#).unwrap();
        assert_eq!(canonical(&sorted), r#"{"a":2,"a":1,"b":0}"#);
    }

    #[test]
    fn number_formatting_is_parseable() {
        for v in [0.0, 1.5, -2.25, 1e12, f64::NAN, f64::INFINITY] {
            let s = number(v);
            assert!(s.parse::<f64>().unwrap().is_finite());
        }
    }
}
