//! A minimal, dependency-free JSON tree: writer helpers and a strict
//! parser.
//!
//! The workspace builds fully offline, so machine-readable experiment
//! reports cannot lean on `serde`. This module provides the small JSON
//! surface the report pipeline needs:
//!
//! * [`escape`] — string escaping for hand-written serializers (the
//!   serializers themselves live next to the types they serialize, so
//!   field order is explicit and stable);
//! * [`Json`] — a parsed JSON value, used by round-trip tests and by the
//!   CLI's report validation (`ants validate`).
//!
//! Object keys keep their document order, so a round-trip test can assert
//! a serializer's field order, not just its field set.

use std::fmt;

/// Escape a string for inclusion in a JSON document (without the
/// surrounding quotes): the one escaper the workspace shares, from
/// `ants-obs`.
///
/// ```
/// assert_eq!(ants_sim::json::escape("a\"b\nc"), "a\\\"b\\nc");
/// ```
pub use ants_obs::json::escape;

/// Serialize an `f64` as a JSON token, losslessly.
///
/// JSON has no NaN/infinity tokens, so the non-finite values serialize
/// as the string sentinels `"NaN"`, `"Inf"`, and `"-Inf"`. Consumers
/// that want the numeric value back go through [`Json::as_number`],
/// which maps the sentinels to their `f64`s; a plain JSON reader still
/// sees a well-formed document. (Serializing as `null`, the previous
/// behaviour, silently lost the values and made NaN-aware snapshot
/// diffing vacuous.)
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // Rust's `Display` for floats is the shortest representation that
        // round-trips, which is exactly what a machine-readable report
        // wants. Note `-0.0` prints as `-0`, which parses back to `-0.0`.
        format!("{x}")
    } else if x.is_nan() {
        "\"NaN\"".to_string()
    } else if x > 0.0 {
        "\"Inf\"".to_string()
    } else {
        "\"-Inf\"".to_string()
    }
}

/// A parsed JSON value.
///
/// Numbers are `f64` (the only number type JSON has); object keys keep
/// document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in document order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a number, honouring the non-finite string sentinels
    /// emitted by [`number`]: `"NaN"`, `"Inf"`, and `"-Inf"` map back to
    /// their `f64` values. Use this wherever a document cell is
    /// semantically numeric (report rows, snapshot diffs, the serve wire
    /// format); use [`Json::as_f64`] when only a literal JSON number
    /// will do.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Inf" => Some(f64::INFINITY),
                "-Inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize the tree back to a compact JSON document.
    ///
    /// Numbers go through [`number`], so non-finite values round-trip
    /// via the string sentinels; object keys keep document order. A
    /// `parse`/`serialize` round-trip is therefore stable after the
    /// first pass.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&number(*x)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number span is ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": null}], "c": "x,y"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.keys(), vec!["a", "c"]);
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x,y"));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g — ünïcode";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn number_serializer_round_trips() {
        for x in [0.0, 1.5, -3.25e-7, 1234567890.125, f64::MAX] {
            let v = Json::parse(&number(x)).unwrap();
            assert_eq!(v.as_f64(), Some(x));
            assert_eq!(v.as_number(), Some(x));
        }
        assert_eq!(number(f64::NAN), "\"NaN\"");
        assert_eq!(number(f64::INFINITY), "\"Inf\"");
        assert_eq!(number(f64::NEG_INFINITY), "\"-Inf\"");
    }

    /// The acceptance contract: NaN, ±Inf, and -0.0 survive a
    /// serialize → parse → read-back round trip bit-for-bit.
    #[test]
    fn non_finite_numbers_round_trip() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
            let v = Json::parse(&number(x)).unwrap();
            let back = v.as_number().expect("numeric after round trip");
            assert_eq!(back.to_bits(), x.to_bits(), "lost {x:?}");
        }
        // Plain strings are not numbers; the sentinel mapping is exact.
        assert_eq!(Json::Str("nan".into()).as_number(), None);
        assert_eq!(Json::Str("Infinity".into()).as_number(), None);
        assert_eq!(Json::Null.as_number(), None);
    }

    #[test]
    fn serialize_round_trips_documents() {
        let doc = r#"{"a":[1,2,{"b":null}],"c":"x\"y","d":true,"e":"NaN"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.serialize(), doc);
        assert_eq!(Json::parse(&v.serialize()).unwrap(), v);
        // Non-finite numbers serialize as sentinels and re-parse as
        // sentinel strings — still numeric through as_number.
        let tree = Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(-0.0)]);
        assert_eq!(tree.serialize(), r#"["Inf",-0]"#);
        let back = Json::parse(&tree.serialize()).unwrap();
        let items = back.as_array().unwrap();
        assert_eq!(items[0].as_number(), Some(f64::INFINITY));
        assert_eq!(items[1].as_number().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        assert_eq!(v.keys(), vec!["z", "a", "m"]);
    }
}
