//! A deliberately small recursive-descent JSON reader shared by every
//! hand-rolled serialisation surface in the workspace.
//!
//! The offline build carries no serde, so the places that speak JSON — the
//! `BENCH_*.json` schema check in `hmsim-bench` and the `.scn` scenario
//! files of the `hmem-core` Scenario layer — write their documents through
//! hand-rolled formatting and read them back through this one parser. It
//! accepts exactly the JSON those writers emit (objects, arrays, strings
//! with `\`-escapes, finite numbers, booleans, null) and rejects everything
//! else, including trailing garbage.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An object; insertion order is irrelevant for validation.
    Object(BTreeMap<String, Json>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// A number (f64, as JSON numbers are).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// null.
    Null,
}

impl Json {
    /// The object's entry for `key`, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
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
}

/// Escape `text` as the body of a JSON string literal (no surrounding
/// quotes). The escape set mirrors what [`parse_json`] understands: `"`,
/// `\`, the C0 control characters (as `\n`/`\r`/`\t` or `\u00XX`), and
/// everything else verbatim UTF-8.
pub fn escape_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str upstream,
                    // so boundaries are valid).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("malformed number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number '{text}' at byte {start}"));
        }
        Ok(Json::Num(n))
    }
}

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after the JSON document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_shapes_the_writers_emit() {
        let doc = parse_json(
            "{\n  \"bench\": \"x\",\n  \"n\": -3.25e2,\n  \"ok\": true,\n  \
             \"list\": [1, \"two\\n\", null],\n  \"nested\": {\"a\": {}}\n}",
        )
        .unwrap();
        assert_eq!(doc.get("bench"), Some(&Json::Str("x".into())));
        assert_eq!(doc.get("n"), Some(&Json::Num(-325.0)));
        assert!(matches!(doc.get("list"), Some(Json::Array(v)) if v.len() == 3));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{\"a\": 1").is_err());
        assert!(parse_json("{\"a\": 1e999}").is_err(), "infinite number");
    }

    #[test]
    fn escaped_strings_survive_a_round_trip() {
        let hostile = "quote\" slash\\ nl\n cr\r tab\t nul\u{1} unicode é✓ 名前";
        let doc = format!("{{\"k\": \"{}\"}}", escape_str(hostile));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.get("k").and_then(Json::as_str), Some(hostile));
    }

    #[test]
    fn accessors_distinguish_value_kinds() {
        let doc = parse_json("{\"s\": \"v\", \"n\": 2.5}").unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(doc.get("n"), Some(&Json::Num(2.5)));
        assert_eq!(doc.get("n").and_then(Json::as_str), None);
        assert_eq!(doc.get("missing"), None);
    }
}
