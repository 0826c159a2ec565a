//! Wire codec for dynamic [`Value`]s and [`Properties`].
//!
//! Values are self-describing on the wire (tag byte + payload), mirroring
//! how Java serialization keeps remote invocation dynamically typed. The
//! encoding is deliberately compact — the benchmarks report real encoded
//! sizes when reproducing the paper's transfer numbers.

use std::collections::BTreeMap;

use alfredo_net::{ByteReader, ByteWriter, WireError};
use alfredo_osgi::{Properties, Value};

const TAG_UNIT: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;
const TAG_STRUCT: u8 = 9;

/// Maximum nesting depth accepted by the decoder (guards against
/// stack-exhaustion from hostile frames).
pub const MAX_DEPTH: u32 = 64;

/// Encodes a value into `w`.
pub fn encode_value(w: &mut ByteWriter, value: &Value) {
    match value {
        Value::Unit => w.put_u8(TAG_UNIT),
        Value::Bool(false) => w.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => w.put_u8(TAG_BOOL_TRUE),
        Value::I64(v) => {
            w.put_u8(TAG_I64);
            w.put_svarint(*v);
        }
        Value::F64(v) => {
            w.put_u8(TAG_F64);
            w.put_f64(*v);
        }
        Value::Str(s) => {
            w.put_u8(TAG_STR);
            w.put_str(s);
        }
        Value::Bytes(b) => {
            w.put_u8(TAG_BYTES);
            w.put_bytes(b);
        }
        Value::List(items) => {
            w.put_u8(TAG_LIST);
            w.put_varint(items.len() as u64);
            for item in items {
                encode_value(w, item);
            }
        }
        Value::Map(entries) => {
            w.put_u8(TAG_MAP);
            w.put_varint(entries.len() as u64);
            for (k, v) in entries {
                w.put_str(k);
                encode_value(w, v);
            }
        }
        Value::Struct { type_name, fields } => {
            w.put_u8(TAG_STRUCT);
            w.put_str(type_name);
            w.put_varint(fields.len() as u64);
            for (k, v) in fields {
                w.put_str(k);
                encode_value(w, v);
            }
        }
    }
}

/// Decodes a value from `r`.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or excessive nesting.
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, WireError> {
    decode_value_depth(r, 0)
}

fn decode_value_depth(r: &mut ByteReader<'_>, depth: u32) -> Result<Value, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::InvalidTag {
            context: "Value (nesting too deep)",
            tag: 0xff,
        });
    }
    let tag = r.u8()?;
    Ok(match tag {
        TAG_UNIT => Value::Unit,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_I64 => Value::I64(r.svarint()?),
        TAG_F64 => Value::F64(r.f64()?),
        TAG_STR => Value::Str(r.str()?.to_owned()),
        TAG_BYTES => Value::Bytes(r.bytes()?.to_vec()),
        TAG_LIST => {
            let n = r.varint()? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(decode_value_depth(r, depth + 1)?);
            }
            Value::List(items)
        }
        TAG_MAP => {
            let n = r.varint()? as usize;
            let mut entries = BTreeMap::new();
            for _ in 0..n {
                let k = r.str()?.to_owned();
                entries.insert(k, decode_value_depth(r, depth + 1)?);
            }
            Value::Map(entries)
        }
        TAG_STRUCT => {
            let type_name = r.str()?.to_owned();
            let n = r.varint()? as usize;
            let mut fields = BTreeMap::new();
            for _ in 0..n {
                let k = r.str()?.to_owned();
                fields.insert(k, decode_value_depth(r, depth + 1)?);
            }
            Value::Struct { type_name, fields }
        }
        other => {
            return Err(WireError::InvalidTag {
                context: "Value",
                tag: other,
            })
        }
    })
}

/// Encodes a value to a standalone byte vector.
pub fn value_to_bytes(value: &Value) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_value(&mut w, value);
    w.into_bytes()
}

/// Decodes a value from a standalone byte vector.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or trailing bytes.
pub fn value_from_bytes(bytes: &[u8]) -> Result<Value, WireError> {
    let mut r = ByteReader::new(bytes);
    let v = decode_value(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::InvalidTag {
            context: "Value (trailing bytes)",
            tag: 0,
        });
    }
    Ok(v)
}

/// Encodes a property dictionary into `w`.
pub fn encode_properties(w: &mut ByteWriter, props: &Properties) {
    w.put_varint(props.len() as u64);
    for (k, v) in props.iter() {
        w.put_str(k);
        encode_value(w, v);
    }
}

/// Decodes a property dictionary from `r`.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input.
pub fn decode_properties(r: &mut ByteReader<'_>) -> Result<Properties, WireError> {
    let n = r.varint()? as usize;
    let mut props = Properties::new();
    for _ in 0..n {
        let k = r.str()?.to_owned();
        let v = decode_value(r)?;
        props.insert(k, v);
    }
    Ok(props)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        value_from_bytes(&value_to_bytes(v)).expect("round trip")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(0),
            Value::I64(-12345),
            Value::I64(i64::MAX),
            Value::F64(3.75),
            Value::Str("héllo".into()),
            Value::Bytes(vec![0, 255, 127]),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Value::structure(
            "shop.Product",
            [
                ("name", Value::from("bed")),
                ("tags", Value::from(vec!["wood", "queen"])),
                (
                    "dims",
                    Value::map([("w", Value::I64(160)), ("h", Value::I64(200))]),
                ),
                ("thumb", Value::Bytes(vec![1, 2, 3, 4])),
            ],
        );
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn encoding_is_compact() {
        // A small invocation argument should be a handful of bytes.
        assert_eq!(value_to_bytes(&Value::Unit).len(), 1);
        assert_eq!(value_to_bytes(&Value::I64(5)).len(), 2);
        assert!(value_to_bytes(&Value::from("move")).len() <= 6);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = value_to_bytes(&Value::I64(1));
        bytes.push(0);
        assert!(value_from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_tag_rejected() {
        assert!(matches!(
            value_from_bytes(&[0x63]),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn deep_nesting_rejected() {
        // A list-of-list-of-... deeper than MAX_DEPTH must be rejected, not
        // overflow the stack.
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            bytes.push(TAG_LIST);
            bytes.push(1); // one element
        }
        bytes.push(TAG_UNIT);
        assert!(value_from_bytes(&bytes).is_err());
    }

    #[test]
    fn deepest_value_round_trips_through_json() {
        use alfredo_osgi::json::{self, FromJson, ToJson};
        // Maps and structs each become two JSON levels; journal records
        // wrap a value in a handful more.
        const { assert!(json::MAX_DEPTH >= 2 * (MAX_DEPTH as usize + 1) + 8) };
        let nest = |levels: u32| {
            (0..levels).fold(Value::Map(BTreeMap::new()), |inner, i| {
                if i % 2 == 0 {
                    Value::map([("m", inner)])
                } else {
                    Value::structure("t.S", [("s", inner)])
                }
            })
        };
        // `levels` wrappers around the empty map: the deepest the codec
        // admits has its innermost container at depth MAX_DEPTH.
        let deepest = nest(MAX_DEPTH);
        assert_eq!(round_trip(&deepest), deepest);
        assert!(value_from_bytes(&value_to_bytes(&nest(MAX_DEPTH + 1))).is_err());
        let text = deepest.to_json_string();
        assert_eq!(Value::from_json_str(&text), Ok(deepest));
    }

    #[test]
    fn properties_round_trip() {
        let props = Properties::new()
            .with("a", 1i64)
            .with("b", "text")
            .with("c", true);
        let mut w = ByteWriter::new();
        encode_properties(&mut w, &props);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_properties(&mut r).unwrap();
        assert_eq!(back, props);
        assert!(r.is_empty());
    }
}
