//! Runtime values and data types.
//!
//! `Value` is the dynamically-typed cell used by rows, expressions and the
//! SQL layer. Floats are ordered with `f64::total_cmp`, so `OrdValue` can be
//! used as a B+tree key.

use crate::error::{Result, StorageError};
use std::cmp::Ordering;
use std::fmt;

/// The column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOL"),
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints widen to floats; anything else is an error.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(StorageError::ExecError(format!(
                "expected numeric value, got {other}"
            ))),
        }
    }

    /// Integer view: floats truncate; anything else is an error.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(StorageError::ExecError(format!(
                "expected integer value, got {other}"
            ))),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(StorageError::ExecError(format!(
                "expected boolean value, got {other}"
            ))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(StorageError::ExecError(format!(
                "expected text value, got {other}"
            ))),
        }
    }

    /// Whether this value can be stored in a column of the given type.
    /// `Null` is storable in any column; ints are accepted by float columns.
    pub fn fits(&self, dtype: DataType) -> bool {
        matches!(
            (self, dtype),
            (Value::Null, _)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Int(_), DataType::Int | DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
        )
    }

    /// Total order across values; used by ORDER BY and index keys.
    /// Null < Bool < Int/Float (numeric, merged) < Text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Text(x), Value::Text(y)) => x.cmp(y),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Approximate in-memory/wire size in bytes, used for transfer accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => 4 + s.len(),
        }
    }

    /// Encode into `out` (self-delimiting given the column type).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Decode a value from `buf` starting at `*pos`, advancing `*pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let err = |m: &str| StorageError::DecodeError(m.to_string());
        let tag = *buf.get(*pos).ok_or_else(|| err("truncated value tag"))?;
        *pos += 1;
        match tag {
            0 => Ok(Value::Null),
            1 => {
                let b = *buf.get(*pos).ok_or_else(|| err("truncated bool"))?;
                *pos += 1;
                Ok(Value::Bool(b != 0))
            }
            2 => {
                let end = *pos + 8;
                let bytes = buf.get(*pos..end).ok_or_else(|| err("truncated int"))?;
                *pos = end;
                Ok(Value::Int(i64::from_le_bytes(bytes.try_into().unwrap())))
            }
            3 => {
                let end = *pos + 8;
                let bytes = buf.get(*pos..end).ok_or_else(|| err("truncated float"))?;
                *pos = end;
                Ok(Value::Float(f64::from_le_bytes(bytes.try_into().unwrap())))
            }
            4 => {
                let end = *pos + 4;
                let len_bytes = buf
                    .get(*pos..end)
                    .ok_or_else(|| err("truncated text len"))?;
                let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
                *pos = end;
                let send = *pos + len;
                let s = buf
                    .get(*pos..send)
                    .ok_or_else(|| err("truncated text body"))?;
                *pos = send;
                Ok(Value::Text(
                    std::str::from_utf8(s)
                        .map_err(|_| err("invalid utf8 in text value"))?
                        .to_string(),
                ))
            }
            t => Err(StorageError::DecodeError(format!("bad value tag {t}"))),
        }
    }

    /// Advance `*pos` past one encoded value without materializing it:
    /// the same tag validation and bounds checks as [`Value::decode`] and
    /// the same final position, so a reader that wants column `k` of a row
    /// skips `k` values and decodes one. Only a text body's UTF-8 goes
    /// unchecked — the one check that reads the bytes it steps over.
    pub fn skip(buf: &[u8], pos: &mut usize) -> Result<()> {
        let err = |m: &str| StorageError::DecodeError(m.to_string());
        let tag = *buf.get(*pos).ok_or_else(|| err("truncated value tag"))?;
        let body = *pos + 1;
        let end = match tag {
            0 => body,
            1 => body + 1,
            2 | 3 => body + 8,
            4 => {
                let len_bytes = buf
                    .get(body..body + 4)
                    .ok_or_else(|| err("truncated text len"))?;
                body + 4 + u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize
            }
            t => return Err(StorageError::DecodeError(format!("bad value tag {t}"))),
        };
        if end > buf.len() {
            return Err(err("truncated value"));
        }
        *pos = end;
        Ok(())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// A `Value` wrapper with a total `Ord`, usable as a B+tree key.
///
/// Equality follows `Value::total_cmp` (numeric across Int/Float), so `Eq`,
/// `Ord` and `Hash` are mutually consistent.
#[derive(Debug, Clone)]
pub struct OrdValue(pub Value);

impl PartialEq for OrdValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for OrdValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(u8::from(*b));
            }
            // Int and Float hash identically when numerically equal so that
            // `OrdValue` equality (numeric across Int/Float) stays consistent
            // with its hash. Integral floats hash as their integer value.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    state.write_u8(2);
                    state.write_i64(*f as i64);
                } else {
                    state.write_u8(3);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Text(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Float(f64::NEG_INFINITY),
            Value::Text(String::new()),
            Value::Text("héllo, wörld".to_string()),
        ];
        let mut buf = Vec::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let (mut pos, mut skipped) = (0, 0);
        for v in &values {
            let got = Value::decode(&buf, &mut pos).unwrap();
            assert_eq!(&got, v);
            Value::skip(&buf, &mut skipped).unwrap();
            assert_eq!(skipped, pos, "skip lands where decode lands");
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Value::Text("abcdef".to_string()).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(Value::decode(&buf[..cut], &mut pos).is_err(), "cut={cut}");
            assert!(Value::skip(&buf[..cut], &mut 0).is_err(), "cut={cut}");
        }
        assert!(Value::skip(&[9], &mut 0).is_err(), "bad tag");
    }

    #[test]
    fn ordering_is_total_and_numeric_across_int_float() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Ordering::Less);
        assert_eq!(
            Value::Text("a".into()).total_cmp(&Value::Int(99)),
            Ordering::Greater
        );
    }

    #[test]
    fn fits_matrix() {
        assert!(Value::Null.fits(DataType::Int));
        assert!(Value::Int(1).fits(DataType::Float));
        assert!(!Value::Float(1.0).fits(DataType::Int));
        assert!(!Value::Text("x".into()).fits(DataType::Bool));
    }

    #[test]
    fn wire_size_accounts_text_length() {
        assert_eq!(Value::Int(0).wire_size(), 8);
        assert_eq!(Value::Text("abcd".into()).wire_size(), 8);
    }
}
