//! Rows: ordered collections of values, encodable against a schema.

use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;

/// A materialized row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    pub values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total wire size of this row in bytes (for transfer accounting).
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// Encode the row into a fresh byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size() + self.values.len());
        for v in &self.values {
            v.encode(&mut buf);
        }
        buf
    }

    /// Decode a row of `schema.len()` values from `buf`.
    pub fn decode(buf: &[u8], schema: &Schema) -> Result<Row> {
        Row::decode_reserving(buf, schema, 0)
    }

    /// [`Row::decode`] into a buffer of exactly `schema.len() + tail`
    /// capacity, so a consumer that appends `tail` more values to the row
    /// never reallocates it.
    pub fn decode_reserving(buf: &[u8], schema: &Schema, tail: usize) -> Result<Row> {
        let mut pos = 0;
        let mut values = Vec::with_capacity(schema.len() + tail);
        for _ in 0..schema.len() {
            values.push(Value::decode(buf, &mut pos)?);
        }
        Ok(Row { values })
    }

    /// Decode only the values at column positions `cols` of an encoded
    /// row, in `cols` order, stepping over every other column with
    /// [`Value::skip`] — no row buffer, no value the caller will not read.
    /// What an index build uses to pull its key columns off a heap tuple.
    pub fn decode_columns<const N: usize>(buf: &[u8], cols: [usize; N]) -> Result<[Value; N]> {
        let mut out: [Value; N] = std::array::from_fn(|_| Value::Null);
        let mut pos = 0;
        for col in 0..cols.iter().max().map_or(0, |last| last + 1) {
            match cols.iter().position(|c| *c == col) {
                Some(slot) => out[slot] = Value::decode(buf, &mut pos)?,
                None => Value::skip(buf, &mut pos)?,
            }
        }
        // a position named twice was decoded into its first slot
        for slot in 1..N {
            if let Some(first) = cols[..slot].iter().position(|c| *c == cols[slot]) {
                out[slot] = out[first].clone();
            }
        }
        Ok(out)
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn encode_decode_roundtrip() {
        let schema = Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("label", DataType::Text)
            .with("flag", DataType::Bool);
        let row = Row::new(vec![
            Value::Int(7),
            Value::Float(-0.25),
            Value::Text("tile".into()),
            Value::Null,
        ]);
        let buf = row.encode();
        let back = Row::decode(&buf, &schema).unwrap();
        assert_eq!(back, row);
        let roomy = Row::decode_reserving(&buf, &schema, 7).unwrap();
        assert_eq!(roomy, row);
        assert_eq!(roomy.values.capacity(), schema.len() + 7);
        // a column subset in any order, a position twice, none at all
        let [label, id, again] = Row::decode_columns(&buf, [2, 0, 2]).unwrap();
        assert_eq!((&label, &id, &again), (&row[2], &row[0], &row[2]));
        assert!(Row::decode_columns::<0>(&buf, []).unwrap().is_empty());
        assert!(
            Row::decode_columns(&buf, [4]).is_err(),
            "past the last value"
        );
    }

    #[test]
    fn concat_joins_values() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(
            a.concat(&b).values,
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }
}
