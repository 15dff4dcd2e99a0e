//! The workspace's one hand-rolled JSON module.
//!
//! The workspace deliberately carries no JSON crate (third-party crates
//! are shimmed; see `shims/`), but three planes speak JSON: the committed
//! bench reports (`BENCH_*.json`, `--json` modes), the scenario record
//! (`vizsched-workload::record`, one object per line) and the JSONL trace.
//! This is the subset they share: an order-preserving value tree, a
//! serializer with stable float formatting, the string escaper, and a
//! recursive-descent parser with typed field accessors.
//!
//! Numbers keep their raw token: a parsed number is never routed through
//! `f64`, so a `u64` fingerprint above 2⁵³ and an `f32` camera angle read
//! back to identical bits, and `parse(text).pretty()` reproduces a
//! committed report byte for byte.

use std::fmt;

/// How deep arrays and objects may nest. Outside input reaches the
/// parser (`scenario --replay`), and unbounded recursion would turn a
/// line of `[[[[…` into a stack overflow instead of an error.
const MAX_DEPTH: usize = 64;

/// An order-preserving JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its token: what [`parse`] read, or what
    /// [`Json::num`] formatted.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on serialization.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number in the committed-file format ([`fmt_f64`]); non-finite
    /// values become `null`.
    pub fn num(n: f64) -> Json {
        if n.is_finite() {
            Json::Num(fmt_f64(n))
        } else {
            Json::Null
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.number().ok()
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A required object field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The elements of an array value.
    pub fn elements(&self) -> Result<&[Json], String> {
        self.as_arr().ok_or_else(|| "expected an array".to_string())
    }

    /// This number's token parsed as `T` — straight from the text, so
    /// integers stay exact and floats re-parse to the bits their
    /// shortest-round-trip formatting came from.
    pub fn number<T: std::str::FromStr>(&self) -> Result<T, String> {
        match self {
            Json::Num(raw) => raw.parse().map_err(|_| format!("bad number {raw:?}")),
            _ => Err("expected a number".to_string()),
        }
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} must be a string"))
    }

    /// A required unsigned-integer field.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key)?
            .number()
            .map_err(|_| format!("field {key:?} must be an unsigned integer"))
    }

    /// A required `f64` field.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key)?
            .number()
            .map_err(|_| format!("field {key:?} must be a number"))
    }

    /// A required `f32` field.
    pub fn f32_field(&self, key: &str) -> Result<f32, String> {
        self.field(key)?
            .number()
            .map_err(|_| format!("field {key:?} must be a number"))
    }

    /// Serialize with two-space indentation and a trailing newline —
    /// the committed-file format (stable diffs).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                let _ = write!(out, "{}", Escaped(s));
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    let _ = write!(out, "{}: ", Escaped(k));
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Build an object from `(key, value)` pairs, preserving order.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Format a float the way we want it in committed files: integers without
/// a fraction, everything else with at most 3 decimal places (µs-scale
/// values don't need more, and fewer digits means smaller diffs).
pub fn fmt_f64(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        let mut s = format!("{n:.3}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
        s
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Displays a string as a JSON string literal: quoted and escaped. The
/// one escaper — the tree serializer and the record writer's `write!`
/// lines both go through it.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Parse a JSON document. Total: malformed input of any shape — including
/// nesting deeper than 64 levels — is an `Err` carrying a byte offset,
/// never a panic.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .filter(|raw| raw.parse::<f64>().is_ok())
                .map(|raw| Json::Num(raw.to_string()))
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe
                // to do bytewise until the next ASCII special).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("input was utf-8"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structure() {
        let doc = obj([
            ("schema", Json::Str("v1".into())),
            (
                "cells",
                Json::Arr(vec![obj([
                    ("policy", Json::Str("OURS".into())),
                    ("us_per_job", Json::num(1.234)),
                    ("nodes", Json::num(256.0)),
                ])]),
            ),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("nan", Json::num(f64::NAN)),
        ]);
        let text = doc.pretty();
        let back = parse(&text).expect("own output parses");
        assert_eq!(back, doc);
    }

    /// The writer did not move: every committed document `pretty()`
    /// produced parses and re-serializes to its own bytes.
    #[test]
    fn committed_reports_reparse_to_their_own_bytes() {
        for name in [
            "BENCH_chaos.json",
            "BENCH_policy.json",
            "BENCH_render.json",
            "BENCH_sched.json",
            "BENCH_service.json",
            "BENCH_shard.json",
            "BENCH_traffic.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(doc.pretty() == text, "{name} does not round-trip");
        }
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(fmt_f64(256.0), "256");
        assert_eq!(fmt_f64(1.2345), "1.234"); // 3 places, then trimmed
        assert_eq!(fmt_f64(1.200), "1.2");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(Json::num(1.200), Json::Num("1.2".into()));
    }

    #[test]
    fn numbers_read_back_exactly() {
        let doc = parse(r#"{"big": 18446744073709551615, "neg": -3}"#).unwrap();
        assert_eq!(doc.u64_field("big"), Ok(u64::MAX));
        assert!(doc.u64_field("neg").is_err());
        assert_eq!(doc.f64_field("neg"), Ok(-3.0));
        // f32 → shortest round-trip text → f32 is the identity on bits,
        // which a detour through f64-then-narrow does not guarantee.
        for bits in [
            0x3ca3_d70a_u32,
            0x0000_0001,
            0x7f7f_ffff,
            0xbfc9_0fdb,
            0x3eaa_aaab,
        ] {
            let x = f32::from_bits(bits);
            let doc = parse(&format!("{{\"azimuth\":{x}}}")).unwrap();
            assert_eq!(doc.f32_field("azimuth").map(f32::to_bits), Ok(bits));
        }
    }

    #[test]
    fn accessors_navigate() {
        let doc = parse(r#"{"summary": {"geomean": 2.5}, "cells": [1, 2], "s": "x"}"#).unwrap();
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("geomean"))
                .and_then(Json::as_f64),
            Some(2.5)
        );
        assert_eq!(
            doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            doc.field("cells")
                .and_then(Json::elements)
                .map(<[Json]>::len),
            Ok(2)
        );
        assert_eq!(doc.str_field("s"), Ok("x"));
        assert!(doc.field("absent").unwrap_err().contains("absent"));
        assert!(doc.str_field("cells").is_err());
        assert!(doc.u64_field("s").is_err());
        assert!(doc.field("s").unwrap().elements().is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::Str("a\"b\\c\nd\u{1}".into());
        let text = doc.pretty();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} extra").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1-2e]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        for open in ["[", "{\"k\":"] {
            let e = parse(&open.repeat(100_000)).expect_err("must not overflow the stack");
            assert!(e.contains("nesting"), "{e}");
        }
    }
}
