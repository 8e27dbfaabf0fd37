//! Tuples and their binary encoding.
//!
//! The encoding is self-describing (a type tag per value), so update
//! descriptors and catalog rows can be decoded without consulting a schema.
//! Layout per value:
//!
//! ```text
//! 0x00                      NULL
//! 0x01 <i64 le>             Int
//! 0x02 <f64 le bits>        Float
//! 0x03 <u32 le len> <utf8>  Str
//! ```
//!
//! A tuple is `<u16 le arity>` followed by its values.

use crate::error::{Result, TmanError};
use crate::value::Value;
use std::sync::Arc;

/// A row of values. Cheap to clone (`Arc` payload) because tokens carrying
/// tuples fan out across predicate-index partitions and network nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into(),
        }
    }

    /// Values, in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column ordinal `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Approximate heap footprint (for memory accounting experiments).
    pub fn heap_size(&self) -> usize {
        self.values.iter().map(Value::heap_size).sum::<usize>()
    }

    /// Serialize into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        Tuple::encode_values(&self.values, out);
    }

    /// Serialize `values` into `out` as a tuple of them, without building
    /// one.
    pub fn encode_values(values: &[Value], out: &mut Vec<u8>) {
        out.extend_from_slice(&(values.len() as u16).to_le_bytes());
        for v in values {
            encode_value(v, out);
        }
    }

    /// Serialize to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * self.values.len() + 2);
        self.encode_into(&mut out);
        out
    }

    /// Decode a tuple, advancing `cursor` past it.
    pub fn decode_from(buf: &[u8], cursor: &mut usize) -> Result<Tuple> {
        let arity = read_u16(buf, cursor)? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(decode_value(buf, cursor)?);
        }
        Ok(Tuple::new(values))
    }

    /// Decode a tuple that occupies the entire buffer.
    pub fn decode(buf: &[u8]) -> Result<Tuple> {
        let mut cursor = 0;
        let t = Tuple::decode_from(buf, &mut cursor)?;
        if cursor != buf.len() {
            return Err(TmanError::Storage(format!(
                "trailing bytes after tuple: {} of {}",
                buf.len() - cursor,
                buf.len()
            )));
        }
        Ok(t)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Encode one value (see module docs for the layout).
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(0x02);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(0x03);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode one value, advancing `cursor`.
pub(crate) fn decode_value(buf: &[u8], cursor: &mut usize) -> Result<Value> {
    let tag = *buf
        .get(*cursor)
        .ok_or_else(|| TmanError::Storage("truncated value tag".into()))?;
    *cursor += 1;
    match tag {
        0x00 => Ok(Value::Null),
        0x01 => {
            let bytes = take(buf, cursor, 8)?;
            Ok(Value::Int(i64::from_le_bytes(bytes.try_into().unwrap())))
        }
        0x02 => {
            let bytes = take(buf, cursor, 8)?;
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                bytes.try_into().unwrap(),
            ))))
        }
        0x03 => {
            let len_bytes = take(buf, cursor, 4)?;
            let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            let s = take(buf, cursor, len)?;
            Ok(Value::Str(
                std::str::from_utf8(s)
                    .map_err(|e| TmanError::Storage(format!("invalid utf8 in value: {e}")))?
                    .to_string(),
            ))
        }
        t => Err(TmanError::Storage(format!("unknown value tag {t:#x}"))),
    }
}

fn take<'a>(buf: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = cursor
        .checked_add(n)
        .ok_or_else(|| TmanError::Storage("length overflow".into()))?;
    if end > buf.len() {
        return Err(TmanError::Storage(format!(
            "truncated value: need {n} bytes at {cursor}, have {}",
            buf.len()
        )));
    }
    let s = &buf[*cursor..end];
    *cursor = end;
    Ok(s)
}

fn read_u16(buf: &[u8], cursor: &mut usize) -> Result<u16> {
    let b = take(buf, cursor, 2)?;
    Ok(u16::from_le_bytes(b.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_check::prelude::*;

    fn roundtrip(t: &Tuple) -> Tuple {
        Tuple::decode(&t.encode()).unwrap()
    }

    #[test]
    fn encode_decode_all_types() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.75),
            Value::str("héllo"),
        ]);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::new(vec![]);
        assert_eq!(t.encode(), vec![0u8, 0u8]);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn truncated_buffer_is_error_not_panic() {
        let enc = Tuple::new(vec![Value::str("abcdef")]).encode();
        for cut in 0..enc.len() {
            assert!(Tuple::decode(&enc[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = Tuple::new(vec![Value::Int(1)]).encode();
        enc.push(0xFF);
        assert!(Tuple::decode(&enc).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(vals in tman_check::collection::vec(any_value(), 0..12)) {
            let t = Tuple::new(vals);
            prop_assert_eq!(roundtrip(&t), t);
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in tman_check::collection::vec(any::<u8>(), 0..256)) {
            let _ = Tuple::decode(&bytes); // must not panic
        }
    }

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            // Use bit-pattern floats so NaN payloads round-trip exactly.
            any::<i64>().prop_map(|b| Value::Float(f64::from_bits(b as u64))),
            // Any char but a newline, as the pattern `.{0,24}` means.
            tman_check::string::chars(&['\0'..='\t', '\u{b}'..=char::MAX], 0..=24)
                .prop_map(Value::str),
        ]
    }
}
