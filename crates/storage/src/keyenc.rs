//! Order-preserving (memcmp-comparable) key encoding.
//!
//! The B+tree compares keys as raw bytes. This module encodes a composite
//! `[Value]` key into a byte string whose lexicographic order equals
//! [`Value::total_cmp`] order column by column:
//!
//! ```text
//! Null              0x01
//! Int / Float       0x02 <8 bytes: IEEE-754 bits, sign-flipped, big-endian>
//! Str               0x03 <escaped bytes> 0x00 0x00
//! ```
//!
//! * Numerics are unified as `f64` so `Int(1)` and `Float(1.0)` encode
//!   identically, matching `Value` equality. Integers beyond 2^53 lose
//!   precision in the *index*; the SQL executor re-verifies predicates on
//!   fetched rows, so this affects performance only, never correctness.
//! * String bytes `0x00` are escaped as `0x00 0x01`; the terminator
//!   `0x00 0x00` then sorts before any continuation, giving correct
//!   prefix ordering ("a" < "ab").
//! * No encoding is a proper prefix of another, so composite keys may be
//!   concatenated and still compare correctly.

use tman_common::Value;

const TAG_NULL: u8 = 0x01;
const TAG_NUM: u8 = 0x02;
const TAG_STR: u8 = 0x03;

/// Encode one value, appending to `out`.
fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => encode_num(*i as f64, out),
        Value::Float(f) => encode_num(*f, out),
        Value::Str(s) => {
            out.push(TAG_STR);
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.extend_from_slice(&[0x00, 0x01]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

fn encode_num(f: f64, out: &mut Vec<u8>) {
    out.push(TAG_NUM);
    let bits = f.to_bits();
    // Standard IEEE total-order transform: negative numbers flip all bits,
    // non-negative flip only the sign bit.
    let ordered = if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits ^ (1 << 63)
    };
    out.extend_from_slice(&ordered.to_be_bytes());
}

/// Encode a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 10);
    for v in values {
        encode_value(v, &mut out);
    }
    out
}

/// Upper bound for a prefix scan: every key starting with `prefix` compares
/// `< prefix ++ [0xFF]` because all tag bytes are `< 0xFF`.
pub fn prefix_upper_bound(prefix: &[u8]) -> Vec<u8> {
    let mut hi = prefix.to_vec();
    hi.push(0xFF);
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use tman_check::prelude::*;
    use tman_common::{Result, TmanError};

    /// Decode a composite key (inverse of [`encode_key`]; numerics come back as
    /// `Float` since ints and floats share an encoding).
    fn decode_key(buf: &[u8]) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < buf.len() {
            match buf[i] {
                TAG_NULL => {
                    out.push(Value::Null);
                    i += 1;
                }
                TAG_NUM => {
                    if i + 9 > buf.len() {
                        return Err(TmanError::Storage("truncated numeric key".into()));
                    }
                    let ordered = u64::from_be_bytes(buf[i + 1..i + 9].try_into().unwrap());
                    let bits = if ordered & (1 << 63) != 0 {
                        ordered ^ (1 << 63)
                    } else {
                        !ordered
                    };
                    out.push(Value::Float(f64::from_bits(bits)));
                    i += 9;
                }
                TAG_STR => {
                    i += 1;
                    let mut s = Vec::new();
                    loop {
                        if i >= buf.len() {
                            return Err(TmanError::Storage("unterminated string key".into()));
                        }
                        if buf[i] == 0x00 {
                            if i + 1 >= buf.len() {
                                return Err(TmanError::Storage("truncated string escape".into()));
                            }
                            match buf[i + 1] {
                                0x00 => {
                                    i += 2;
                                    break;
                                }
                                0x01 => {
                                    s.push(0x00);
                                    i += 2;
                                }
                                b => {
                                    return Err(TmanError::Storage(format!(
                                        "bad string escape {b:#x}"
                                    )))
                                }
                            }
                        } else {
                            s.push(buf[i]);
                            i += 1;
                        }
                    }
                    out.push(Value::Str(String::from_utf8(s).map_err(|e| {
                        TmanError::Storage(format!("invalid utf8 in key: {e}"))
                    })?));
                }
                t => return Err(TmanError::Storage(format!("unknown key tag {t:#x}"))),
            }
        }
        Ok(out)
    }

    fn cmp_vals(a: &[Value], b: &[Value]) -> Ordering {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.total_cmp(y) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        a.len().cmp(&b.len())
    }

    #[test]
    fn basic_orderings() {
        let cases = [
            (vec![Value::Int(1)], vec![Value::Int(2)]),
            (vec![Value::Int(-5)], vec![Value::Int(-4)]),
            (vec![Value::Float(-0.5)], vec![Value::Int(0)]),
            (vec![Value::Null], vec![Value::Int(i64::MIN)]),
            (vec![Value::str("a")], vec![Value::str("ab")]),
            (vec![Value::str("a\u{0}b")], vec![Value::str("a\u{0}c")]),
            (vec![Value::Int(9)], vec![Value::str("")]),
            (
                vec![Value::Int(1), Value::str("z")],
                vec![Value::Int(2), Value::str("a")],
            ),
        ];
        for (lo, hi) in cases {
            assert!(
                encode_key(&lo) < encode_key(&hi),
                "expected {lo:?} < {hi:?} in encoding"
            );
        }
    }

    #[test]
    fn int_float_equal_encodings() {
        assert_eq!(
            encode_key(&[Value::Int(42)]),
            encode_key(&[Value::Float(42.0)])
        );
    }

    #[test]
    fn decode_roundtrips_structure() {
        let key = vec![Value::Null, Value::Int(7), Value::str("x\u{0}y")];
        let dec = decode_key(&encode_key(&key)).unwrap();
        assert_eq!(dec.len(), 3);
        assert_eq!(dec[0], Value::Null);
        assert_eq!(dec[1], Value::Float(7.0)); // numerics decode as float
        assert_eq!(dec[2], Value::str("x\u{0}y"));
    }

    #[test]
    fn prefix_upper_bound_covers_extensions() {
        let p = encode_key(&[Value::Int(5)]);
        let full = encode_key(&[Value::Int(5), Value::str("anything")]);
        assert!(full > p);
        assert!(full < prefix_upper_bound(&p));
        let other = encode_key(&[Value::Int(6)]);
        assert!(other > prefix_upper_bound(&p));
    }

    #[test]
    fn no_encoding_is_prefix_of_another_single_column() {
        let vals = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Float(0.5),
            Value::str(""),
            Value::str("a"),
            Value::str("aa"),
        ];
        for a in &vals {
            for b in &vals {
                if a != b {
                    let ea = encode_key(std::slice::from_ref(a));
                    let eb = encode_key(std::slice::from_ref(b));
                    assert!(!eb.starts_with(&ea), "{a:?} encoding prefixes {b:?}");
                }
            }
        }
    }

    fn any_scalar() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            // Stay within f64-exact integer range: the documented encoding
            // unifies numerics as f64.
            (-(1i64 << 53)..(1i64 << 53)).prop_map(Value::Int),
            any::<f64>()
                .prop_filter("no NaN in keys", |f| !f.is_nan())
                .prop_map(Value::Float),
            tman_check::string::chars(&['a'..='z', '\0'..='\0'], 0..=12).prop_map(Value::str),
        ]
    }

    proptest! {
        #[test]
        fn prop_order_preserved(
            a in tman_check::collection::vec(any_scalar(), 1..4),
            b in tman_check::collection::vec(any_scalar(), 1..4),
        ) {
            // Compare only same-arity keys: composite keys in one index
            // always have the same column count.
            if a.len() == b.len() {
                let byte_ord = encode_key(&a).cmp(&encode_key(&b));
                prop_assert_eq!(byte_ord, cmp_vals(&a, &b));
            }
        }

        #[test]
        fn prop_roundtrip_values(a in tman_check::collection::vec(any_scalar(), 0..5)) {
            let dec = decode_key(&encode_key(&a)).unwrap();
            prop_assert_eq!(dec.len(), a.len());
            for (orig, back) in a.iter().zip(&dec) {
                prop_assert_eq!(orig.total_cmp(back), Ordering::Equal);
            }
        }
    }
}
