//! A minimal in-repo JSON parser, string escaper and object reader.
//!
//! The workspace builds without external dependencies, so the Chrome
//! trace files written by [`crate::TraceReport::chrome_json`] are
//! validated with this hand-rolled recursive-descent parser instead of
//! `serde_json`. It supports the full JSON grammar the trace writer can
//! produce (objects, arrays, strings with escapes, numbers, booleans,
//! null). [`Object`] reads the job descriptions and protocol requests
//! that reach the simulation service as JSON.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key order preserved by sorted map).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a short line of `[`s overflows the
/// parsing thread's stack and aborts the whole process.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns `(byte offset, message)` of the first syntax error, including
/// trailing garbage after the top-level value and nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, (usize, String)> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err((p.pos, "trailing characters".into()));
    }
    Ok(v)
}

/// Escapes `s` for embedding in a JSON string literal (no quotes added).
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

/// Largest integer the typed getters accept. A JSON number is an `f64`,
/// so `2^53 + 1` already parses as `2^53`; every integer from `2^53` up
/// is rejected rather than read as a neighbouring value.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// Lists `labels` for an error message: `"a, b or c"`.
pub fn one_of<'s>(labels: impl IntoIterator<Item = &'s str>) -> String {
    let labels: Vec<&str> = labels.into_iter().collect();
    match labels.split_last() {
        Some((last, [])) => (*last).to_string(),
        Some((last, rest)) => format!("{} or {last}", rest.join(", ")),
        None => String::new(),
    }
}

/// A JSON object read field by field.
///
/// [`Object::check`] holds the keys to an allowlist. Each typed getter
/// returns `Ok(None)` for an absent key, so the caller decides what
/// absence means, and for a value of the wrong kind fails with a message
/// that names the key: `'key' must be a string`, `a boolean`, `a number`,
/// or for an integer `a non-negative integer representable in 53 bits`.
#[derive(Debug, Clone, Copy)]
pub struct Object<'a>(&'a BTreeMap<String, JsonValue>);

impl<'a> Object<'a> {
    /// `value` as an object, or `None` for any other kind of value.
    pub fn new(value: &'a JsonValue) -> Option<Self> {
        match value {
            JsonValue::Obj(map) => Some(Object(map)),
            _ => None,
        }
    }

    /// Checks every key against `known`; the error is the first key, in
    /// sorted order, that `known` rejects.
    pub fn check(self, known: impl Fn(&str) -> bool) -> Result<(), &'a str> {
        self.0
            .keys()
            .find(|key| !known(key))
            .map_or(Ok(()), |key| Err(key))
    }

    /// The value of `key`.
    pub fn get(self, key: &str) -> Option<&'a JsonValue> {
        self.0.get(key)
    }

    /// The string `key`.
    pub fn str(self, key: &str) -> Result<Option<&'a str>, String> {
        self.typed(key, "a string", JsonValue::as_str)
    }

    /// The boolean `key`.
    pub fn bool(self, key: &str) -> Result<Option<bool>, String> {
        self.typed(key, "a boolean", |v| match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The number `key`.
    pub fn f64(self, key: &str) -> Result<Option<f64>, String> {
        self.typed(key, "a number", JsonValue::as_num)
    }

    /// The integer `key`, exactly: at most [`MAX_EXACT_INT`].
    pub fn u64(self, key: &str) -> Result<Option<u64>, String> {
        match self.f64(key)? {
            Some(n) if n < 0.0 || n.fract() != 0.0 || n > MAX_EXACT_INT as f64 => Err(format!(
                "'{key}' must be a non-negative integer representable in 53 bits"
            )),
            n => Ok(n.map(|n| n as u64)),
        }
    }

    /// The integer `key` as a `usize`.
    pub fn usize(self, key: &str) -> Result<Option<usize>, String> {
        self.u64(key)?
            .map(|n| usize::try_from(n).map_err(|_| format!("'{key}' does not fit a usize")))
            .transpose()
    }

    fn typed<T>(
        self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| read(v).ok_or_else(|| format!("'{key}' must be {what}")))
            .transpose()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, (usize, String)> {
        Err((self.pos, msg.into()))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, (usize, String)> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, (usize, String)> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<JsonValue, (usize, String)> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, (usize, String)> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, joining a
    /// UTF-16 surrogate pair written as two escapes into one character;
    /// leaves `pos` on the last hex digit read.
    fn unicode_escape(&mut self) -> Result<char, (usize, String)> {
        let at = self.pos;
        let mut code = self.hex4()?;
        let escape_follows = self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u");
        if (0xD800..0xDC00).contains(&code) && escape_follows {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // Only a surrogate left unpaired fails to be a `char`.
        char::from_u32(code).ok_or_else(|| (at, "unpaired surrogate in \\u escape".into()))
    }

    /// The code unit spelled by exactly four hex digits after the `u` at
    /// `pos`; moves `pos` onto the last digit.
    fn hex4(&mut self) -> Result<u32, (usize, String)> {
        let Some(digits) = self.bytes.get(self.pos + 1..self.pos + 5) else {
            return self.err("truncated \\u escape");
        };
        match digits
            .iter()
            .try_fold(0, |v, &d| Some(v * 16 + char::from(d).to_digit(16)?))
        {
            Some(unit) => {
                self.pos += 4;
                Ok(unit)
            }
            None => self.err("invalid \\u escape"),
        }
    }

    fn number(&mut self) -> Result<JsonValue, (usize, String)> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| (start, "invalid number".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), JsonValue::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn escape_round_trips() {
        let original = "line\none\t\"quoted\" \\slash\u{1}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(Vec::new()));
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(BTreeMap::new()));
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let (pos, msg) = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(pos, MAX_DEPTH);
        assert!(msg.contains("nesting"), "{msg}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // A megabyte of `[` on a default-stack thread: rejected, not a
        // stack overflow.
        let deep = "[".repeat(1 << 20);
        let rejected = std::thread::spawn(move || parse(&deep).is_err())
            .join()
            .expect("parser thread survived");
        assert!(rejected);
    }

    #[test]
    fn unicode_escapes_join_surrogate_pairs_and_reject_the_rest() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""a\uD834\uDD1Eb""#).unwrap().as_str(), Some("a𝄞b"));
        assert_eq!(
            parse(r#""\u00e9\uFFFF""#).unwrap().as_str(),
            Some("é\u{ffff}")
        );
        for (doc, pos) in [
            (r#""\ud83d""#, 2),
            (r#""\ud83d x""#, 2),
            (r#""\ud83d\n""#, 2),
            (r#""\ud83d\u0041""#, 2),
            (r#""x\ude00""#, 3),
        ] {
            let (at, msg) = parse(doc).unwrap_err();
            assert_eq!(at, pos, "{doc}");
            assert!(msg.contains("unpaired surrogate"), "{doc}: {msg}");
        }
        for doc in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 41a""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(
                parse(doc).unwrap_err().1.contains("invalid \\u escape"),
                "{doc}"
            );
        }
        assert!(parse(r#""\u004"#).unwrap_err().1.contains("truncated"));
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"héllo→\"").unwrap().as_str(), Some("héllo→"));
    }
}
