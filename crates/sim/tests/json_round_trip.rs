//! Property test: `json::parse` reads back exactly what `json::escape` and
//! `json::canonical` write.
//!
//! The proptest facade draws integers only, so each case draws a seed and
//! builds its strings from a [`DetRng`]: ASCII runs, 2-, 3- and 4-byte chars,
//! control characters, and `"` / `\` right next to multibyte chars. Every
//! string is read back from `escape`'s spelling and from a random mix of the
//! other spellings JSON allows (`\/`, `\b`, `\f`, `\uXXXX` in either case,
//! UTF-16 surrogate pairs), so the parser meets every escape it knows.

use proptest::prelude::*;
use rackfabric_sim::json::{canonical, escape, parse, JsonValue};
use rackfabric_sim::rng::DetRng;

/// A char whose UTF-8 encoding is `len` bytes long.
fn char_of_len(rng: &mut DetRng, len: usize) -> char {
    let (lo, hi) = match len {
        1 => (0x20, 0x80),
        2 => (0x80, 0x800),
        3 => (0x800, 0x1_0000),
        _ => (0x1_0000, 0x11_0000),
    };
    loop {
        // Surrogate code points are not chars; draw again.
        if let Some(c) = char::from_u32(rng.range_u64(lo..hi) as u32) {
            return c;
        }
    }
}

/// A char of 2, 3 or 4 UTF-8 bytes.
fn multibyte_char(rng: &mut DetRng) -> char {
    let len = 2 + rng.index(3);
    char_of_len(rng, len)
}

fn gen_string(rng: &mut DetRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.index(12) {
        match rng.index(5) {
            0 => {
                for _ in 0..1 + rng.index(24) {
                    s.push(char_of_len(rng, 1));
                }
            }
            1 => s.push(multibyte_char(rng)),
            2 => s.push(char::from_u32(rng.range_u64(0..0x20) as u32).unwrap()),
            3 => s.push(['\n', '\r', '\t', '\u{8}', '\u{c}', '/'][rng.index(6)]),
            _ => {
                let delim = ['"', '\\'][rng.index(2)];
                let wide = multibyte_char(rng);
                if rng.chance(0.5) {
                    s.extend([delim, wide]);
                } else {
                    s.extend([wide, delim]);
                }
            }
        }
    }
    s
}

/// Spells `s` as a JSON string body, picking for each char at random among
/// the spellings the grammar allows.
fn escape_randomly(s: &str, rng: &mut DetRng) -> String {
    let mut out = String::new();
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        let raw_ok = c >= ' ' && c != '"' && c != '\\';
        match (rng.index(3), short) {
            (0, _) if raw_ok => out.push(c),
            (1, Some(short)) => out.push_str(short),
            _ => {
                let upper = rng.chance(0.5);
                for unit in c.encode_utf16(&mut [0; 2]) {
                    if upper {
                        out.push_str(&format!("\\u{unit:04X}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
            }
        }
    }
    out
}

fn gen_number(rng: &mut DetRng) -> String {
    match rng.index(3) {
        0 => rng.next_u64().to_string(),
        1 => format!("-{}", rng.range_u64(0..1000)),
        _ => format!(
            "{}.{}e-{}",
            rng.range_u64(0..100),
            rng.range_u64(0..1000),
            rng.range_u64(0..20)
        ),
    }
}

fn gen_value(rng: &mut DetRng, depth: usize) -> JsonValue {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.index(kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.chance(0.5)),
        2 => JsonValue::Number(gen_number(rng)),
        3 => JsonValue::String(gen_string(rng)),
        4 => JsonValue::Array(
            (0..rng.index(5))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.index(5))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_read_back_from_every_spelling(seed in 0u64..u64::MAX) {
        let mut rng = DetRng::new(seed);
        for _ in 0..8 {
            let s = gen_string(&mut rng);
            let want = JsonValue::String(s.clone());
            let escaped = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&escaped), Ok(want.clone()), "escaped as {}", escaped);
            let mixed = format!("\"{}\"", escape_randomly(&s, &mut rng));
            prop_assert_eq!(parse(&mixed), Ok(want), "spelt as {}", mixed);
        }
    }

    #[test]
    fn canonical_documents_read_back_unchanged(seed in 0u64..u64::MAX) {
        let mut rng = DetRng::new(seed);
        let doc = gen_value(&mut rng, 4);
        let text = canonical(&doc);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        prop_assert_eq!(canonical(&back), text);
    }
}
