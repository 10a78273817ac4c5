//! A minimal JSON reader/writer for the service wire protocol.
//!
//! The workspace builds hermetically — no serde — so the NDJSON protocol
//! is parsed by this hand-rolled recursive-descent reader. It accepts
//! strict JSON (RFC 8259) with a depth cap so a hostile request line
//! cannot overflow the worker's stack.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]. Requests are flat
/// objects; anything deeper than this is an attack or a bug.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys keep their input order; duplicate
/// keys are all retained and [`Json::get`] returns the last one, which
/// matches what most writers and readers converge on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in input order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (last duplicate wins); `None` for
    /// missing keys and for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render this value back to compact JSON. Used for echoing request
    /// ids verbatim into responses.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => {
                // f64 Display round-trips. `parse` never yields a
                // non-finite Float, but a hand-constructed one is not
                // representable in JSON, so render it as null.
                if x.is_finite() {
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Encode `s` as a JSON string literal, including the quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Parse one complete JSON value from `input`. Trailing non-whitespace is
/// an error — a protocol line carries exactly one value.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte 0x{b:02x} at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("sliced on ascii boundaries");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            // A literal that overflows f64 (1e999) parses to infinity;
            // non-finite values are not JSON and would degrade to `null`
            // on the way back out, so reject them here (RFC 8259).
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            Ok(_) => Err(format!("number {text:?} overflows at byte {start}")),
            Err(_) => Err(format!("bad number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("bad low surrogate".to_string());
                                    }
                                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| "bad surrogate pair".to_string())?
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| "lone low surrogate".to_string())?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                0x00..=0x1f => return Err("raw control byte in string".to_string()),
                _ => {
                    // Consume the run of plain bytes up to the next quote,
                    // backslash or control byte in one go, so a string
                    // costs time linear in its length. Those three are
                    // ASCII and the input came from &str, so the run is
                    // whole UTF-8 scalars.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_shaped_object() {
        let v = parse(
            r#"{"type":"explore","kernel":"figure3","max_f":3,"n":31,"strict":false,"id":7}"#,
        )
        .unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("explore"));
        assert_eq!(v.get("max_f").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("strict").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("id"), Some(&Json::Int(7)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        let v = parse(r#""a\"b\\c\n\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA\u{1f600}"));
        let re = parse(&v.to_compact()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::Int(-3).as_u64(), None, "negatives are not u64");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"\\q\"",
            "1e999",
            "-1e999",
            "{\"id\":1e999}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(2)));
    }

    #[test]
    fn max_size_string_line_parses_in_linear_time() {
        // A request line as long as the server accepts (1 MiB), nearly
        // all of it one string with multi-byte scalars in it: a parser
        // that re-reads the rest of the input per character takes seconds
        // on it, and the event loop parses every line itself.
        let pad = "ab\u{e9}\u{1f600}".repeat((1 << 20) / 8 - 4);
        let line = format!(r#"{{"type":"ping","pad":"{pad}"}}"#);
        assert!(line.len() <= 1 << 20);
        let start = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let took = start.elapsed();
        assert_eq!(v.get("pad").and_then(Json::as_str), Some(pad.as_str()));
        assert!(
            took < std::time::Duration::from_millis(250),
            "parsing a 1 MiB line took {took:?}"
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let src = r#"{"a":[1,2,{"b":null}],"c":true}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_compact(), src);
    }
}
