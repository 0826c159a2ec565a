//! A minimal JSON value, parser, and writer.
//!
//! The workspace builds fully offline with no external crates, so the few
//! places that need a human-inspectable text encoding (the HTTP gateway,
//! the service-descriptor metadata) use this module instead of `serde`.
//! It is deliberately small: a [`Json`] tree, a recursive-descent parser,
//! a writer, and the [`ToJson`]/[`FromJson`] conversion traits.
//!
//! Numbers are kept lossless for the framework's needs: integers without a
//! fractional part parse as [`Json::I64`], everything else as
//! [`Json::F64`]; the writer always emits a decimal point (or exponent)
//! for floats so the distinction survives a round trip.
//!
//! # Example
//!
//! ```
//! use alfredo_osgi::json::Json;
//!
//! let j = Json::parse(r#"{"kind":"click","n":3}"#).unwrap();
//! assert_eq!(j.get("kind").and_then(Json::as_str), Some("click"));
//! assert_eq!(j.get("n").and_then(Json::as_i64), Some(3));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::properties::Properties;
use crate::value::Value;

/// A parse or conversion error, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts; deeper
/// input is an error, not a stack overflow (the parser recurses once per
/// level, and descriptor meta blocks and HTTP bodies are peer-controlled).
/// A [`Value`] map or struct becomes two JSON levels, so this leaves room
/// for the deepest value the R-OSGi codec admits (65 containers) plus the
/// few levels a journal record wraps around it.
pub const MAX_DEPTH: usize = 160;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys kept in sorted order).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(entries: I) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Returns the bool if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is an `I64` (or an exact `F64`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            Json::F64(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Returns the value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// Returns the number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the entries if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up a key of an `Obj`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document. The whole input must be consumed (modulo
    /// trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Serializes to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact JSON serialization onto `out` — the
    /// allocation-free form of [`Json::to_json_string`] for hot paths
    /// that assemble documents into a reused buffer.
    pub fn write_to(&self, out: &mut String) {
        self.write(out);
    }

    /// Appends `s` as a JSON string literal (quoted and escaped) onto
    /// `out`, without building an intermediate [`Json::Str`].
    pub fn write_str_to(s: &str, out: &mut String) {
        write_escaped(s, out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::I64(v) => {
                out.push_str(&v.to_string());
            }
            Json::F64(v) => {
                if !v.is_finite() {
                    // NaN/inf are not representable in JSON.
                    out.push_str("null");
                } else {
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Clean spans are bulk-copied; only `"`, `\`, and control bytes need
    // per-char handling (multi-byte UTF-8 is >= 0x80 and never matches,
    // so byte offsets stay on char boundaries).
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[start..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    let _ = write!(out, "\\u{:04x}", b);
                }
            }
            start = i + 1;
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    /// The input, for copying string runs out as `&str`; `bytes` is the
    /// same input as bytes, for scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let container = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                container
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary bytes up to the next `"` or `\` in
            // one slice. Both delimiters are ASCII, so the cut lands on a
            // char boundary of the input `&str` and needs no re-validation.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // A run stops only at `"`, `\` or the end: a backslash.
                Some(_) => {
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
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return err("unpaired surrogate");
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return err("invalid low surrogate");
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| JsonError("invalid surrogate pair".into()))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| JsonError("invalid \\u escape".into()))?
                            };
                            out.push(c);
                            // parse_hex4 leaves pos after the 4 digits;
                            // compensate for the += 1 below.
                            self.pos -= 1;
                        }
                        _ => return err("invalid escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let digits = &self.bytes[self.pos..self.pos + 4];
        let s = std::str::from_utf8(digits).map_err(|_| JsonError("bad \\u".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError("bad \\u".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("bad number".into()))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => err(format!("invalid number '{text}'")),
        }
    }
}

/// Conversion of a domain type into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;

    /// Convenience: straight to a string.
    fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }
}

/// Conversion of a [`Json`] tree back into a domain type.
pub trait FromJson: Sized {
    /// Rebuilds the value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the tree has the wrong shape.
    fn from_json(json: &Json) -> Result<Self, JsonError>;

    /// Convenience: parse then convert.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or wrong shape.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
            .ok_or_else(|| JsonError("expected bool".into()))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }
}

impl FromJson for i64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_i64()
            .ok_or_else(|| JsonError("expected integer".into()))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        match i64::try_from(*self) {
            Ok(v) => Json::I64(v),
            Err(_) => Json::F64(*self as f64),
        }
    }
}

impl FromJson for u64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_u64()
            .ok_or_else(|| JsonError("expected unsigned integer".into()))
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::I64(i64::from(*self))
    }
}

impl FromJson for u32 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| JsonError("expected u32".into()))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64()
            .ok_or_else(|| JsonError("expected number".into()))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError("expected string".into()))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if json.is_null() {
            Ok(None)
        } else {
            T::from_json(json).map(Some)
        }
    }
}

/// Helper: extract a required field of an object.
///
/// # Errors
///
/// Returns [`JsonError`] if `json` is not an object or the field is
/// missing or of the wrong shape.
pub fn field<T: FromJson>(json: &Json, name: &str) -> Result<T, JsonError> {
    match json.get(name) {
        Some(v) => T::from_json(v).map_err(|e| JsonError(format!("field '{name}': {}", e.0))),
        None => err(format!("missing field '{name}'")),
    }
}

/// Helper: extract an optional field (missing ⇒ `None`).
///
/// # Errors
///
/// Returns [`JsonError`] if the field is present but of the wrong shape.
pub fn opt_field<T: FromJson>(json: &Json, name: &str) -> Result<Option<T>, JsonError> {
    match json.get(name) {
        Some(v) => {
            Option::<T>::from_json(v).map_err(|e| JsonError(format!("field '{name}': {}", e.0)))
        }
        None => Ok(None),
    }
}

// --- Value <-> Json -------------------------------------------------------
//
// `Value` has variants JSON lacks (unit, bytes, structs, i64/f64 split), so
// the ambiguous ones are wrapped in single-key tag objects: `$bytes`,
// `$struct`, and `$map` (the latter only so a map's own keys can never
// collide with the tags). Scalars and lists map directly.

impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Unit => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::I64(v) => Json::I64(*v),
            Value::F64(v) => Json::F64(*v),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Bytes(b) => Json::obj([(
                "$bytes",
                Json::Arr(b.iter().map(|&x| Json::I64(i64::from(x))).collect()),
            )]),
            Value::List(items) => Json::Arr(items.iter().map(ToJson::to_json).collect()),
            Value::Map(m) => Json::obj([(
                "$map",
                Json::Obj(m.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            )]),
            Value::Struct { type_name, fields } => Json::obj([
                ("$struct", Json::Str(type_name.clone())),
                (
                    "$fields",
                    Json::Obj(
                        fields
                            .iter()
                            .map(|(k, v)| (k.clone(), v.to_json()))
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl FromJson for Value {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(match json {
            Json::Null => Value::Unit,
            Json::Bool(b) => Value::Bool(*b),
            Json::I64(v) => Value::I64(*v),
            Json::F64(v) => Value::F64(*v),
            Json::Str(s) => Value::Str(s.clone()),
            Json::Arr(items) => Value::List(
                items
                    .iter()
                    .map(Value::from_json)
                    .collect::<Result<_, _>>()?,
            ),
            Json::Obj(m) => {
                if let Some(bytes) = m.get("$bytes") {
                    let arr = bytes
                        .as_arr()
                        .ok_or_else(|| JsonError("$bytes must be an array".into()))?;
                    let mut out = Vec::with_capacity(arr.len());
                    for b in arr {
                        let v = b
                            .as_u64()
                            .and_then(|v| u8::try_from(v).ok())
                            .ok_or_else(|| JsonError("$bytes element out of range".into()))?;
                        out.push(v);
                    }
                    Value::Bytes(out)
                } else if let Some(map) = m.get("$map") {
                    let obj = map
                        .as_obj()
                        .ok_or_else(|| JsonError("$map must be an object".into()))?;
                    Value::Map(
                        obj.iter()
                            .map(|(k, v)| Ok((k.clone(), Value::from_json(v)?)))
                            .collect::<Result<_, JsonError>>()?,
                    )
                } else if let Some(name) = m.get("$struct") {
                    let type_name = name
                        .as_str()
                        .ok_or_else(|| JsonError("$struct must be a string".into()))?
                        .to_owned();
                    let fields = m
                        .get("$fields")
                        .and_then(Json::as_obj)
                        .ok_or_else(|| JsonError("$fields must be an object".into()))?;
                    Value::Struct {
                        type_name,
                        fields: fields
                            .iter()
                            .map(|(k, v)| Ok((k.clone(), Value::from_json(v)?)))
                            .collect::<Result<_, JsonError>>()?,
                    }
                } else {
                    // A plain object (e.g. from an external client) reads
                    // as a map.
                    Value::Map(
                        m.iter()
                            .map(|(k, v)| Ok((k.clone(), Value::from_json(v)?)))
                            .collect::<Result<_, JsonError>>()?,
                    )
                }
            }
        })
    }
}

impl ToJson for Properties {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_owned(), v.to_json()))
                .collect(),
        )
    }
}

impl FromJson for Properties {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let obj = json
            .as_obj()
            .ok_or_else(|| JsonError("expected object".into()))?;
        let mut props = Properties::new();
        for (k, v) in obj {
            props.insert(k.clone(), Value::from_json(v)?);
        }
        Ok(props)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null", "true", "false", "0", "-7", "3.5", "\"hi\"", "[]", "{}",
        ] {
            let j = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&j.to_json_string()).unwrap(), j, "{text}");
        }
    }

    #[test]
    fn integer_float_distinction_survives() {
        assert_eq!(Json::parse("5").unwrap(), Json::I64(5));
        assert_eq!(Json::parse("5.0").unwrap(), Json::F64(5.0));
        assert_eq!(Json::F64(5.0).to_json_string(), "5.0");
        assert_eq!(Json::I64(5).to_json_string(), "5");
    }

    #[test]
    fn nested_document_parses() {
        let j = Json::parse(r#" {"a": [1, 2.5, {"b": null}], "c": "x\ny"} "#).unwrap();
        assert_eq!(j.get("c").and_then(Json::as_str), Some("x\ny"));
        let arr = j.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote \" slash \\ newline \n tab \t unicode \u{1F600} end";
        let j = Json::Str(original.to_owned());
        let text = j.to_json_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
        // Explicit \u escapes, including a surrogate pair.
        let j = Json::parse(r#""aA😀""#).unwrap();
        assert_eq!(j.as_str(), Some("aA\u{1F600}"));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "\"abc",
            "01x",
            "{\"a\" 1}",
            "[1] tail",
            "nul",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn long_string_parses_in_linear_time() {
        let text = format!("{{\"s\":\"{}\"}}", "a".repeat(1 << 20));
        let started = std::time::Instant::now();
        let j = Json::parse(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(
            j.get("s").and_then(Json::as_str).map(str::len),
            Some(1 << 20)
        );
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn bulk_copied_runs_meet_escapes_exactly() {
        // `\u` escapes are spelled out at run time so no tool along the
        // way can fold them into the characters they stand for.
        let u = |hex: &str| format!("{}u{hex}", '\\');
        let pair = format!("{}{}", u("d83d"), u("de00"));
        for (body, expected) in [
            // Multi-byte UTF-8 right before and right after an escape.
            (r"é\n".to_owned(), "é\n"),
            (r"\né".to_owned(), "\né"),
            (format!("😀{}😀", u("0041")), "😀A😀"),
            (format!("ü{pair}ü"), "ü😀ü"),
            (r#"ü\"ü"#.to_owned(), "ü\"ü"),
            // Multi-byte UTF-8 at the start and at the end of a string.
            ("éab".to_owned(), "éab"),
            ("abé".to_owned(), "abé"),
            ("日本".to_owned(), "日本"),
            // Only escapes.
            (
                format!(r#"\"\\\/\b\f\n\r\t{}{pair}"#, u("0041")),
                "\"\\/\u{8}\u{c}\n\r\tA😀",
            ),
            // Raw control bytes are accepted and kept as they are.
            ("a\u{1}\tb\nc\u{1f}".to_owned(), "a\u{1}\tb\nc\u{1f}"),
            (String::new(), ""),
        ] {
            let text = format!("\"{body}\"");
            assert_eq!(Json::parse(&text), Ok(Json::str(expected)), "{text:?}");
        }
        for body in [r"\x".to_owned(), r"ab\".to_owned(), u("d83d"), u("12")] {
            let text = format!("\"{body}\"");
            assert!(Json::parse(&text).is_err(), "{text:?} should fail");
        }
        assert!(Json::parse("\"é").is_err(), "unterminated after a run");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Far past the limit, on a thread with the default stack: an
        // error, not a stack overflow.
        let bombs = std::thread::spawn(|| {
            [
                Json::parse(&"[".repeat(100_000)),
                Json::parse(&"{\"a\":".repeat(100_000)),
            ]
        })
        .join()
        .expect("parser thread survived");
        for bomb in bombs {
            assert!(bomb.unwrap_err().0.contains("nesting deeper"));
        }
    }

    #[test]
    fn value_round_trips_through_json() {
        let v = Value::structure(
            "t.T",
            [
                ("list", Value::from(vec![1i64, 2, 3])),
                ("nested", Value::map([("k", Value::Bytes(vec![9, 9]))])),
                ("f", Value::F64(2.0)),
                ("unit", Value::Unit),
            ],
        );
        let text = v.to_json_string();
        let back = Value::from_json_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn plain_object_reads_as_map() {
        let v = Value::from_json_str(r#"{"a": 1, "b": [true]}"#).unwrap();
        assert_eq!(v.field("a"), Some(&Value::I64(1)));
        assert_eq!(v.field("b"), Some(&Value::List(vec![Value::Bool(true)])));
    }

    #[test]
    fn properties_round_trip() {
        let p = Properties::new()
            .with("a", 1i64)
            .with("s", "x")
            .with_ranking(3);
        let text = p.to_json_string();
        let back = Properties::from_json_str(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn field_helpers_report_names() {
        let j = Json::parse(r#"{"n": 3}"#).unwrap();
        let n: i64 = field(&j, "n").unwrap();
        assert_eq!(n, 3);
        let missing: Result<i64, _> = field(&j, "absent");
        assert!(missing.unwrap_err().0.contains("absent"));
        let opt: Option<i64> = opt_field(&j, "absent").unwrap();
        assert!(opt.is_none());
    }
}
