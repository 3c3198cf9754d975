//! A minimal JSON value, parser, and writer.
//!
//! The wire protocol is line-delimited JSON and the build is offline
//! (vendored-only policy, no serde), so this is a small hand-rolled
//! implementation: full string escaping (including `\uXXXX`), exact
//! round-tripping for the full `u64` range (nanosecond epoch timestamps
//! exceed 2^53, so counters ride a dedicated integer variant rather than
//! `f64`), and objects that preserve insertion order so responses
//! serialize byte-stably.

use std::fmt::Write;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, exact across the full `u64` range —
    /// epoch-nanosecond timestamps do not survive an `f64` round trip.
    UInt(u64),
    /// Any other number (floats, negatives; exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member by key, mutably — a decoder moves a large string
    /// out of the tree through this instead of cloning it.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write<W: Write>(&self, out: &mut W) -> std::fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::UInt(n) => write!(out, "{n}"),
            Json::Num(n) if !n.is_finite() => out.write_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
                write!(out, "{}", *n as i64)
            }
            Json::Num(n) => write!(out, "{n}"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Compact (single-line, no whitespace) serialization: strings escape
/// `"`/`\\`/control characters; non-finite numbers serialize as `null`
/// (the protocol never produces them). Writes straight into the
/// formatter, so `to_string()` builds the line once.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write(f)
    }
}

/// Append `s` as a JSON string literal. Runs of characters that need no
/// escape (everything but `"`, `\` and C0 controls — all ASCII, so a
/// byte scan never splits a scalar) are appended whole.
fn write_escaped<W: Write>(out: &mut W, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[clean..i])?;
        clean = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[clean..])?;
    out.write_char('"')
}

/// Streams one JSON object — nested objects and arrays included — into a
/// line without building a [`Json`] tree first, so a large member
/// (profile text) is escaped from where it already lives instead of being
/// cloned into a `Json::Str`. (Writing to a `String` cannot fail, hence
/// the ignored `fmt::Result`s.)
pub(crate) struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    /// Open an object at the end of `out`.
    pub(crate) fn begin(out: &'a mut String) -> Self {
        out.push('{');
        ObjWriter { out, first: true }
    }

    /// Write the separator before the next member or array item and hand
    /// back the line.
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out
    }

    /// Write `"key":` and hand back the line for the value.
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.next();
        let _ = write_escaped(out, key);
        out.push(':');
        out
    }

    pub(crate) fn str(&mut self, key: &str, value: &str) {
        let _ = write_escaped(self.key(key), value);
    }

    pub(crate) fn value(&mut self, key: &str, value: &Json) {
        let _ = value.write(self.key(key));
    }

    /// Open an object (`'{'`) or array (`'['`) as the value of `key` — or,
    /// with `None`, as the next item of the array being written — until
    /// [`close`](Self::close).
    pub(crate) fn open(&mut self, key: Option<&str>, bracket: char) {
        match key {
            Some(key) => self.key(key),
            None => self.next(),
        }
        .push(bracket);
        self.first = true;
    }

    /// Close what [`open`](Self::open) or [`begin`](Self::begin) opened.
    pub(crate) fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.first = false;
    }
}

/// A parse failure with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct P<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", expected as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > 64 {
            return Err(self.err("nesting deeper than 64"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // Plain non-negative integer tokens stay exact (u64); anything
        // with a sign, fraction, or exponent takes the f64 path.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }

    /// The four hex digits of a `\u` escape whose `u` is at `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(at + 1..at + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run between two of them is
            // whole scalars of the (already valid) input: append it as is.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.pos += 1,
            }
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
                    let mut code = self.hex4(self.pos)?;
                    self.pos += 4;
                    // A high surrogate directly followed by an escaped low
                    // one is one scalar above the BMP (how `json.dumps`
                    // and `JSON.stringify` escape it). An unpaired half
                    // names no scalar and becomes the replacement char.
                    if (0xD800..0xDC00).contains(&code)
                        && self.text.as_bytes()[self.pos + 1..].starts_with(b"\\u")
                    {
                        if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            self.pos += 6;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }
}

/// Parse one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = P { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Convenience constructors used by the protocol layer.
impl Json {
    /// An object from key/value pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn num(n: u64) -> Json {
        Json::UInt(n)
    }

    /// A float value rounded to 4 decimals so responses stay byte-stable
    /// across platforms' float formatting.
    pub fn num_f(n: f64) -> Json {
        Json::Num((n * 10_000.0).round() / 10_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::obj(vec![
            ("cmd", Json::str("INGEST")),
            ("threads", Json::num(4)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::num(1), Json::num(2)])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).expect("parse"), v);
    }

    #[test]
    fn strings_with_newlines_and_quotes_round_trip() {
        let profile_text = "taskprof-profile v1\nthreads 1\nname \"weird\\path\"\n";
        let v = Json::obj(vec![("profile", Json::str(profile_text))]);
        let text = v.to_string();
        assert!(!text.contains('\n'), "wire form must be one line: {text}");
        let back = parse(&text).expect("parse");
        assert_eq!(back.get("profile").unwrap().as_str(), Some(profile_text));
    }

    #[test]
    fn control_chars_and_unicode_survive() {
        let nasty = "tab\there \u{1} bell\u{7} λ → 🦀";
        let text = Json::str(nasty).to_string();
        assert_eq!(parse(&text).expect("parse").as_str(), Some(nasty));
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_scalar() {
        // How `json.dumps` / `JSON.stringify` write a non-BMP character.
        let parsed = |text: &str| parse(text).expect("parse").as_str().map(str::to_owned);
        assert_eq!(parsed(r#""\ud83e\udd80""#).as_deref(), Some("🦀"));
        assert_eq!(parsed(r#""a\uD83E\uDD80b""#).as_deref(), Some("a🦀b"));
        assert_eq!(parsed(r#""\udbff\udfff""#).as_deref(), Some("\u{10ffff}"));
        // Unpaired halves name no scalar: one replacement char each, and
        // whatever follows a lone high half is still read as itself.
        assert_eq!(parsed(r#""\ud83e""#).as_deref(), Some("\u{fffd}"));
        assert_eq!(
            parsed(r#""\udd80\ud83e""#).as_deref(),
            Some("\u{fffd}\u{fffd}")
        );
        assert_eq!(parsed(r#""\ud83e\u0041""#).as_deref(), Some("\u{fffd}A"));
        assert_eq!(parsed(r#""\ud83e\n""#).as_deref(), Some("\u{fffd}\n"));
        assert_eq!(
            parsed(r#""\ud83e\ud83e\udd80""#).as_deref(),
            Some("\u{fffd}🦀")
        );
    }

    #[test]
    fn malformed_escapes_are_rejected() {
        for bad in [
            r#""\x""#,
            r#""\"#,
            r#""\u12""#,
            r#""\u12"#,
            r#""\uzzzz""#,
            r#""\u00é""#,
            r#""\ud83e\u12""#,
            r#""\ud83e\uzzzz""#,
            r#""\ud83e\"#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn numbers_are_exact_integers() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(Json::num(1 << 52).to_string(), format!("{}", 1u64 << 52));
        // Epoch-nanosecond territory: beyond 2^53, must stay exact.
        let t_ns = 1_754_640_000_123_456_789u64;
        assert_eq!(Json::num(t_ns).to_string(), t_ns.to_string());
        assert_eq!(parse(&t_ns.to_string()).unwrap().as_u64(), Some(t_ns));
        assert_eq!(
            parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nulll").is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
