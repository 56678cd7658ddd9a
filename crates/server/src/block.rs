//! How the backend tile cache holds a tile: one buffer of plain cells.
//!
//! A cached tile outlives the fetch that filled it and is freed by
//! whichever thread evicts it — usually a mutation's publication. As a
//! `Vec<Row>` that free walks one heap buffer per row and the drop glue of
//! every value; as a [`RowBlock`] it is one buffer (plus the text pool,
//! empty for every numeric table) with nothing to walk.

use kyrix_storage::{Row, Value};

/// A [`Value`] whose text lives in the [`RowBlock`]'s pool: `Copy`, with
/// no drop glue.
#[derive(Clone, Copy)]
pub(crate) enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// Index into the block's text pool.
    Text(u32),
}

// a `Value` is 24 bytes: its `String` sits inline
const _: () = assert!(std::mem::size_of::<Cell>() == 16);

/// Rows of one width as one row-major buffer of [`Cell`]s, with their
/// texts in a pool beside it.
pub(crate) struct RowBlock {
    width: usize,
    len: usize,
    cells: Vec<Cell>,
    texts: Vec<Box<str>>,
}

impl RowBlock {
    /// Copy `rows`, all of one width, into a block: one allocation for
    /// the cells, plus one per text value.
    pub(crate) fn from_rows(rows: &[Row]) -> Self {
        let width = rows.first().map_or(0, Row::len);
        let mut cells = Vec::with_capacity(width * rows.len());
        let mut texts = Vec::new();
        for row in rows {
            assert_eq!(row.len(), width, "a block holds rows of one width");
            cells.extend(row.values.iter().map(|v| match v {
                Value::Null => Cell::Null,
                Value::Bool(b) => Cell::Bool(*b),
                Value::Int(i) => Cell::Int(*i),
                Value::Float(f) => Cell::Float(*f),
                Value::Text(s) => {
                    let at = u32::try_from(texts.len()).expect("a tile holds < 2^32 texts");
                    texts.push(Box::from(s.as_str()));
                    Cell::Text(at)
                }
            }));
        }
        RowBlock {
            width,
            len: rows.len(),
            cells,
            texts,
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The rows in order, each as its cells.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Cell]> {
        (0..self.len).map(|i| &self.cells[i * self.width..(i + 1) * self.width])
    }

    /// One of [`RowBlock::rows`] as a [`Row`] of exactly its width in
    /// capacity (plus one allocation per text value) — what `Row::clone`
    /// makes, and as fast only when the per-cell conversion is inlined
    /// into the merge loop: without `#[inline]` it may land in another
    /// codegen unit and cost a call per cell, doubling a warm region.
    #[inline]
    pub(crate) fn row(&self, cells: &[Cell]) -> Row {
        Row::new(cells.iter().map(|c| self.value(*c)).collect())
    }

    #[inline]
    fn value(&self, cell: Cell) -> Value {
        match cell {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Text(i) => Value::Text(self.texts[i as usize].to_string()),
        }
    }
}

/// Numeric reads of one layer row's columns, whether the row is a [`Row`]
/// or a cached block row: the one accessor the tile predicate
/// ([`crate::fetch::TileMatcher`]) and the layout's bounding box read
/// coordinates through.
pub(crate) trait Columns {
    /// Column `col` as [`Value::as_f64`] reads it; `None` where that errs.
    fn f64_at(&self, col: usize) -> Option<f64>;
}

impl Columns for Row {
    fn f64_at(&self, col: usize) -> Option<f64> {
        self.get(col).as_f64().ok()
    }
}

impl Columns for [Cell] {
    #[inline]
    fn f64_at(&self, col: usize) -> Option<f64> {
        match self[col] {
            Cell::Int(i) => Some(i as f64),
            Cell::Float(f) => Some(f),
            Cell::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            Cell::Null | Cell::Text(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<Row> {
        let text = |s: &str| Value::Text(s.to_string());
        vec![
            Row::new(vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(i64::MIN),
                Value::Float(-0.0),
                text(""),
            ]),
            Row::new(vec![
                Value::Int(7),
                Value::Bool(false),
                Value::Float(f64::NAN),
                text("Zürich — 東京 🗺"),
                text("tile"),
            ]),
            Row::new(vec![
                text("a"),
                Value::Float(f64::INFINITY),
                Value::Int(i64::MAX),
                Value::Null,
                Value::Float(1.5),
            ]),
        ]
    }

    #[test]
    fn every_value_round_trips_byte_for_byte() {
        let rows = every_variant();
        let block = RowBlock::from_rows(&rows);
        assert_eq!(block.len(), 3);
        assert_eq!(block.texts.len(), 4, "one pool entry per text value");
        let back: Vec<Row> = block.rows().map(|cells| block.row(cells)).collect();
        // byte-for-byte: `NaN != NaN` and `-0.0 == 0.0` under `PartialEq`
        let encode = |rows: &[Row]| rows.iter().map(Row::encode).collect::<Vec<_>>();
        assert_eq!(encode(&back), encode(&rows));
        for row in &back {
            assert_eq!(row.values.capacity(), 5, "exact-capacity rows");
        }
    }

    #[test]
    fn cells_read_numbers_as_values_do() {
        let rows = every_variant();
        let block = RowBlock::from_rows(&rows);
        for (row, cells) in rows.iter().zip(block.rows()) {
            for col in 0..row.len() {
                let (want, got) = (row.f64_at(col), cells.f64_at(col));
                assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "column {col}"
                );
            }
        }
    }

    #[test]
    fn empty_and_numeric_blocks_hold_no_text() {
        let empty = RowBlock::from_rows(&[]);
        assert_eq!((empty.len(), empty.rows().count()), (0, 0));

        let rows: Vec<Row> = (0..4)
            .map(|i| Row::new(vec![Value::Int(i), Value::Float(i as f64 / 2.0)]))
            .collect();
        let block = RowBlock::from_rows(&rows);
        assert!(block.texts.is_empty());
        assert_eq!(block.cells.len(), 8);
        let back: Vec<Row> = block.rows().map(|cells| block.row(cells)).collect();
        assert_eq!(back, rows);
    }
}
