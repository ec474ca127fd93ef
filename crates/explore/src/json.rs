//! The workspace's JSON codec: a value parser for experiment specs and
//! a renderer back to text.
//!
//! The build runs in network-isolated environments (no serde), and the
//! spec schema is open-ended — nested objects, optional blocks,
//! heterogeneous grids. This parses any JSON document into a [`Json`]
//! tree; the spec layer then walks the tree with typed accessors that
//! produce positioned errors. Strings render through
//! [`predllc_obs::json_string`], the one JSON string encoder every
//! layer shares.
//!
//! Integers are kept as exact `u64` where possible (addresses and cycle
//! counts exceed `f64`'s 53-bit mantissa); everything else is `f64`.

use std::fmt;

use predllc_obs::json_string;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the value as a compact JSON document that parses back to
    /// an equal value (`parse(v.render()) == v`): object key order is
    /// preserved, strings are escaped, exact integers stay integers, and
    /// floats use the shortest representation that round-trips.
    ///
    /// Non-finite floats have no JSON representation and render as
    /// `null` (they cannot come out of [`parse`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use predllc_explore::json::{parse, Json};
    ///
    /// let doc = parse(r#"{ "b" : [1, 2.5, "x\n"] , "a" : null }"#).unwrap();
    /// assert_eq!(doc.render(), r#"{"b":[1,2.5,"x\n"],"a":null}"#);
    /// assert_eq!(parse(&doc.render()).unwrap(), doc);
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None, 0);
        out
    }

    /// Renders the value as an indented (2-space) JSON document; same
    /// round-trip contract as [`Json::render`].
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (open_sep, item_sep, key_sep) = match indent {
            Some(_) => ("\n", ",\n", ": "),
            None => ("", ",", ":"),
        };
        let pad = |out: &mut String, level: usize| {
            if let Some(width) = indent {
                out.push_str(&" ".repeat(width * level));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) if !v.is_finite() => out.push_str("null"),
            // {:?} is the shortest round-trip form that stays a float on
            // re-parse ("2.0", not "2" — which would come back UInt).
            Json::Float(v) => out.push_str(&format!("{v:?}")),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                out.push_str(open_sep);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    pad(out, depth + 1);
                    item.render_into(out, indent, depth + 1);
                }
                out.push_str(open_sep);
                pad(out, depth);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                out.push_str(open_sep);
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    pad(out, depth + 1);
                    out.push_str(&json_string(key));
                    out.push_str(key_sep);
                    value.render_into(out, indent, depth + 1);
                }
                out.push_str(open_sep);
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset of the failure in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth [`parse`] accepts.
///
/// The parser is recursive-descent, so input depth consumes call-stack
/// frames; an adversarial body of brackets (`[[[[…`) would otherwise
/// overflow the 2 MiB default stack of the connection threads that feed
/// this parser in `predllc-serve`. 128 levels is far beyond any real
/// experiment spec while keeping worst-case stack use in the tens of
/// kilobytes.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// [`JsonError`] with the failure offset, including for trailing data —
/// and for containers nested deeper than 128 levels, reported
/// at the offset of the bracket that exceeded the limit.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        buf: input.as_bytes(),
        at: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.buf.len() {
        return Err(p.fail("trailing data after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    buf: &'a [u8],
    at: usize,
    /// Current container nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.at,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.buf.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.buf.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.fail(format!("expected '{}'", byte as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.buf[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            // Report at the opening bracket (peek already skipped the
            // whitespace in front of it).
            return Err(self.fail(format!("nesting exceeds the maximum depth of {MAX_DEPTH}")));
        }
        self.depth += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Json::Object(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(format!("duplicate key '{key}'")));
            }
            members.push((key, value));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.buf.get(self.at) else {
                return Err(self.fail("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.buf.get(self.at) else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            // from_str_radix tolerates a leading '+',
                            // which JSON does not: require 4 hex digits.
                            let hex = self
                                .buf
                                .get(self.at..self.at + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("invalid \\u escape"))?;
                            self.at += 4;
                            // Specs are machine-written; surrogate pairs
                            // are not supported.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.fail("invalid \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => {
                    let start = self.at - 1;
                    let len = utf8_len(b).ok_or_else(|| self.fail("invalid utf-8"))?;
                    let slice = self
                        .buf
                        .get(start..start + len)
                        .ok_or_else(|| self.fail("truncated utf-8"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.fail("invalid utf-8"))?;
                    out.push_str(s);
                    self.at = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.buf.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while self.buf.get(self.at).is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        let mut fractional = false;
        if self.buf.get(self.at) == Some(&b'.') {
            fractional = true;
            self.at += 1;
            while self.buf.get(self.at).is_some_and(|b| b.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if let Some(b'e' | b'E') = self.buf.get(self.at) {
            fractional = true;
            self.at += 1;
            if let Some(b'+' | b'-') = self.buf.get(self.at) {
                self.at += 1;
            }
            while self.buf.get(self.at).is_some_and(|b| b.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.buf[start..self.at])
            .map_err(|_| self.fail("invalid number"))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.fail("invalid number"))
    }
}

const fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a": [1, 2.5, "x", null, true], "b": {"c": -3}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[0].as_u64(),
            Some(1)
        );
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_f64(), Some(-3.0));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn big_integers_stay_exact() {
        let doc = parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(doc.as_u64(), Some(u64::MAX));
        // Fractions and negatives become floats.
        assert_eq!(parse("0.25").unwrap().as_f64(), Some(0.25));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn strings_unescape() {
        let doc = parse(r#""tab\t quote\" uA""#).unwrap();
        assert_eq!(doc.as_str(), Some("tab\t quote\" uA"));
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // Sign-prefixed "hex" is not JSON, even though from_str_radix
        // would accept it.
        assert!(parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        for (input, needle) in [
            ("{", "expected"),
            ("[1,]", "expected a value"),
            (r#"{"a":1,"a":2}"#, "duplicate"),
            ("1 2", "trailing"),
            ("nope", "expected a value"),
        ] {
            let err = parse(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "input {input:?} gave {err:?}, wanted {needle:?}"
            );
            assert!(err.to_string().contains("byte"));
        }
    }

    #[test]
    fn depth_limit_is_a_positioned_error_not_a_stack_overflow() {
        // At the limit: fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        // One past the limit: positioned error at the offending bracket.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&over).unwrap_err();
        assert!(err.message.contains("maximum depth"), "{err:?}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Mixed nesting counts objects too.
        let mixed = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&mixed).unwrap_err().message.contains("maximum depth"));
        // The probe that motivated the limit: half a million brackets on
        // a 2 MiB thread stack must return an error, not blow the stack.
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let depth = 500_000;
                let doc = "[".repeat(depth) + &"]".repeat(depth);
                parse(&doc).unwrap_err()
            })
            .expect("spawn probe thread");
        let err = handle.join().expect("no stack overflow");
        assert!(err.message.contains("maximum depth"));
        // Depth resets between sibling containers: wide is not deep.
        let wide = format!("[{}]", vec!["[[]]"; 64].join(","));
        assert!(parse(&wide).is_ok());
    }

    /// Deterministic random JSON values for the round-trip property
    /// loop (no proptest in the offline build — same pattern as the
    /// workload crate's property tests).
    fn arbitrary_json(rng: &mut predllc_workload::rng::Rng64, depth: usize) -> Json {
        let pick = if depth >= 3 {
            rng.below(5)
        } else {
            rng.below(7)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::UInt(rng.next_u64() >> (rng.below(64) as u32)),
            3 => {
                // A mix of fractions, negatives, huge and tiny floats.
                let mantissa = rng.next_u64() as i64 as f64;
                let scale = [1.0, 0.5, 1e-9, 1e9, 1e300, 1e-300][rng.below(6) as usize];
                let v = mantissa * scale;
                // Overflow to ±inf has no JSON form; the round-trip
                // property only holds for finite values.
                Json::Float(if v.is_finite() { v } else { 0.125 })
            }
            4 => {
                let len = rng.below(12) as usize;
                let mut s = String::new();
                for _ in 0..len {
                    // Bias toward characters that exercise escaping.
                    s.push(match rng.below(8) {
                        0 => '"',
                        1 => '\\',
                        2 => '\n',
                        3 => '\u{1}',
                        4 => 'é',
                        5 => '字',
                        _ => (b'a' + rng.below(26) as u8) as char,
                    });
                }
                Json::Str(s)
            }
            5 => {
                let len = rng.below(4) as usize;
                Json::Array((0..len).map(|_| arbitrary_json(rng, depth + 1)).collect())
            }
            _ => {
                let len = rng.below(4) as usize;
                Json::Object(
                    (0..len)
                        .map(|i| {
                            (
                                format!("k{}{}", i, rng.below(100)),
                                arbitrary_json(rng, depth + 1),
                            )
                        })
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn render_parse_round_trip_property() {
        let mut rng = predllc_workload::rng::Rng64::new(0x5e1f);
        for case in 0..500 {
            let value = arbitrary_json(&mut rng, 0);
            let compact = value.render();
            let reparsed = parse(&compact).unwrap_or_else(|e| {
                panic!("case {case}: render produced invalid json: {e}\n{compact}")
            });
            assert_eq!(
                reparsed, value,
                "case {case}: compact round trip\n{compact}"
            );
            let pretty = value.render_pretty();
            assert_eq!(
                parse(&pretty).unwrap(),
                value,
                "case {case}: pretty round trip\n{pretty}"
            );
        }
    }

    #[test]
    fn render_number_edge_cases() {
        // Exact integers stay integers.
        assert_eq!(Json::UInt(u64::MAX).render(), u64::MAX.to_string());
        assert_eq!(
            parse(&Json::UInt(u64::MAX).render()).unwrap().as_u64(),
            Some(u64::MAX)
        );
        // Integral floats keep their decimal point so they come back as
        // floats, not integers.
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::Float(-7.0).render(), "-7.0");
        // Shortest-form floats survive.
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, f64::MAX, -0.0] {
            let text = Json::Float(v).render();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
        // Non-finite values degrade to null rather than invalid JSON.
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn render_preserves_key_order_and_escapes() {
        let doc =
            parse("{\"zeta\": 1, \"alpha\": {\"tab\\t\": \"\\u0001\"}, \"mid\": []}").unwrap();
        let text = doc.render();
        // Insertion order is preserved, not sorted.
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
        assert!(text.find("alpha").unwrap() < text.find("mid").unwrap());
        assert!(text.contains("\\t") && text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), doc);
        // Pretty output is indented and ends with a newline.
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\n  \"zeta\""));
        assert!(pretty.ends_with('\n'));
        assert_eq!(Json::Str("a\"b".into()).render(), r#""a\"b""#);
    }
}
