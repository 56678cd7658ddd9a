//! Tables and their indexes: the physical catalog.

use crate::btree::BPlusTree;
use crate::error::{Result, StorageError};
use crate::geom::Rect;
use crate::heap::{RecordId, TableHeap};
use crate::row::Row;
use crate::rtree::RTree;
use crate::schema::Schema;
use crate::spine::Copies;
use crate::stats::CowStats;
use crate::value::{OrdValue, Value};

/// Which columns a spatial index covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpatialCols {
    /// Point data: one x column and one y column; the bbox is degenerate.
    Point { x: String, y: String },
    /// Box data: explicit bounding-box columns.
    Bbox {
        min_x: String,
        min_y: String,
        max_x: String,
        max_y: String,
    },
}

/// Logical index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKind {
    /// B+tree on one column (supports equality and ranges; non-unique).
    BTree { column: String },
    /// R-tree over the given spatial columns.
    Spatial(SpatialCols),
}

/// A named index on a table.
#[derive(Clone)]
pub struct Index {
    pub name: String,
    pub kind: IndexKind,
    pub(crate) imp: IndexImpl,
}

#[derive(Clone)]
pub(crate) enum IndexImpl {
    BTree(BPlusTree<OrdValue, RecordId>),
    Spatial(RTree<RecordId>),
}

impl IndexImpl {
    /// Nodes and chunks of node handles this index copied on write.
    fn copies(&self) -> Copies {
        match self {
            IndexImpl::BTree(t) => t.copies(),
            IndexImpl::Spatial(t) => t.copies(),
        }
    }

    /// Continue the copy tally of the index this one replaces.
    fn carry_copies(&mut self, from_predecessor: Copies) {
        match self {
            IndexImpl::BTree(t) => t.carry_copies(from_predecessor),
            IndexImpl::Spatial(t) => t.carry_copies(from_predecessor),
        }
    }
}

/// A table: schema + heap + indexes.
///
/// `Clone` shares heap pages and B+tree / R-tree nodes with the original
/// (one refcount bump per chunk of [`crate::spine::CHUNK`] page or node
/// handles); a write then copies the page and the root-to-leaf index nodes
/// it changes, plus the first time each chunk's handles, which
/// [`Table::cow_stats`] counts.
/// [`crate::Database`] holds tables behind `Arc` and clones one the first
/// time it is mutated through a handle that shares it.
#[derive(Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub(crate) heap: TableHeap,
    pub(crate) indexes: Vec<Index>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            heap: TableHeap::new(),
            indexes: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Resident bytes of the heap (page-granular).
    pub fn heap_bytes(&self) -> usize {
        self.heap.bytes()
    }

    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// Pages, index nodes and chunks of their handles copied so far
    /// because a write landed on one still shared with another clone of
    /// this table. The tallies carry across `clone`, so the cost of a batch
    /// of writes is the difference between the clone's reading and the
    /// original's.
    pub fn cow_stats(&self) -> CowStats {
        let heap = self.heap.copies();
        let mut nodes = Copies::default();
        for index in &self.indexes {
            nodes += index.imp.copies();
        }
        CowStats {
            pages_copied: heap.elements,
            nodes_copied: nodes.elements,
            chunks_copied: heap.chunks + nodes.chunks,
        }
    }

    /// Positions of the columns a spatial index reads a row's bbox from,
    /// as `[min x, min y, max x, max y]` (a point names each twice).
    fn bbox_columns(&self, cols: &SpatialCols) -> Result<[usize; 4]> {
        let at = |column: &String| self.schema.index_of(column);
        Ok(match cols {
            SpatialCols::Point { x, y } => {
                let (x, y) = (at(x)?, at(y)?);
                [x, y, x, y]
            }
            SpatialCols::Bbox {
                min_x,
                min_y,
                max_x,
                max_y,
            } => [at(min_x)?, at(min_y)?, at(max_x)?, at(max_y)?],
        })
    }

    /// Extract the bbox of a row for a spatial index definition.
    pub(crate) fn row_bbox(&self, row: &Row, cols: &SpatialCols) -> Result<Rect> {
        let [x0, y0, x1, y1] = self.bbox_columns(cols)?;
        let f = |i: usize| row.get(i).as_f64();
        Ok(Rect::new(f(x0)?, f(y0)?, f(x1)?, f(y1)?))
    }

    /// Insert a row, maintaining every index.
    pub fn insert(&mut self, row: Row) -> Result<RecordId> {
        self.schema.check_row(&row.values)?;
        let rid = self.heap.insert(&row.encode())?;
        // Update indexes. Collect bboxes first to keep borrowck happy.
        for i in 0..self.indexes.len() {
            let kind = self.indexes[i].kind.clone();
            match (&kind, &mut self.indexes[i].imp) {
                (IndexKind::BTree { column }, IndexImpl::BTree(t)) => {
                    let ci = self.schema.index_of(column)?;
                    t.insert(OrdValue(row.get(ci).clone()), rid);
                }
                (IndexKind::Spatial(_), IndexImpl::Spatial(_)) => {
                    // computed below to avoid double borrow
                }
                _ => unreachable!("index kind / impl mismatch"),
            }
        }
        // spatial second pass (row_bbox borrows self immutably)
        let spatial_updates: Vec<(usize, Rect)> = self
            .indexes
            .iter()
            .enumerate()
            .filter_map(|(i, idx)| match &idx.kind {
                IndexKind::Spatial(cols) => Some((i, self.row_bbox(&row, cols))),
                _ => None,
            })
            .map(|(i, r)| r.map(|rect| (i, rect)))
            .collect::<Result<_>>()?;
        for (i, rect) in spatial_updates {
            if let IndexImpl::Spatial(t) = &mut self.indexes[i].imp {
                t.insert(rect, rid);
            }
        }
        Ok(rid)
    }

    /// Fetch and decode a row.
    pub fn get(&self, rid: RecordId) -> Result<Option<Row>> {
        self.get_reserving(rid, 0)
    }

    /// [`Table::get`] with room for `tail` more values in the decoded row
    /// (see [`Row::decode_reserving`]).
    pub fn get_reserving(&self, rid: RecordId, tail: usize) -> Result<Option<Row>> {
        match self.heap.get(rid) {
            Some(bytes) => Ok(Some(Row::decode_reserving(bytes, &self.schema, tail)?)),
            None => Ok(None),
        }
    }

    /// Full scan, decoding each live row.
    pub fn scan<F: FnMut(RecordId, Row)>(&self, mut f: F) -> Result<()> {
        for (rid, bytes) in self.heap.iter() {
            f(rid, Row::decode(bytes, &self.schema)?);
        }
        Ok(())
    }

    /// Scan live rows until the callback returns false. The substrate for
    /// LIMIT pushdown: a `LIMIT k` scan decodes only the rows it keeps
    /// plus the ones its filter rejects, instead of the whole heap. Rows are
    /// decoded with room for `tail` more values.
    pub fn scan_while<F: FnMut(RecordId, Row) -> bool>(&self, tail: usize, mut f: F) -> Result<()> {
        for (rid, bytes) in self.heap.iter() {
            if !f(rid, Row::decode_reserving(bytes, &self.schema, tail)?) {
                break;
            }
        }
        Ok(())
    }

    /// Create an index and build it from the current heap contents.
    /// Spatial indexes over a non-empty heap are STR bulk-loaded. The heap
    /// stays as it is — [`Table::cluster`] is the separate, explicit step
    /// that reorders it.
    pub fn create_index(&mut self, name: impl Into<String>, kind: IndexKind) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(StorageError::IndexExists(name));
        }
        let imp = self.build_index(&kind)?;
        self.indexes.push(Index { name, kind, imp });
        Ok(())
    }

    /// Build the structure of an index of `kind` over the current heap,
    /// decoding only the key columns of each tuple. Unknown columns are
    /// refused before the first tuple is read.
    fn build_index(&self, kind: &IndexKind) -> Result<IndexImpl> {
        let at = |column: &String| self.schema.index_of(column);
        Ok(match kind {
            IndexKind::BTree { column } => {
                let ci = at(column)?;
                let mut t = BPlusTree::new();
                for (rid, bytes) in self.heap.iter() {
                    let [key] = Row::decode_columns(bytes, [ci])?;
                    t.insert(OrdValue(key), rid);
                }
                IndexImpl::BTree(t)
            }
            IndexKind::Spatial(cols) => {
                let cols = self.bbox_columns(cols)?;
                let mut items = Vec::with_capacity(self.heap.len());
                for (rid, bytes) in self.heap.iter() {
                    let [x0, y0, x1, y1] = Row::decode_columns(bytes, cols)?;
                    let rect = Rect::new(x0.as_f64()?, y0.as_f64()?, x1.as_f64()?, y1.as_f64()?);
                    items.push((rect, rid));
                }
                IndexImpl::Spatial(RTree::bulk_load(items))
            }
        })
    }

    /// Rewrite the heap in the leaf order of spatial index `index_no` —
    /// this engine's `CLUSTER … USING`. Afterwards the rows a rectangle
    /// probe of that index returns sit on a handful of adjacent pages
    /// instead of one page each, which is what a cold fetch pays for.
    ///
    /// One walk of the R-tree copies each entry's tuple bytes (no decode)
    /// to the tail of a fresh heap and patches the entry's [`RecordId`] in
    /// place: the tree keeps its shape, so every probe returns the rows it
    /// returned before, in the order it returned them. Tombstones are left
    /// behind, every *other* index of the table is rebuilt over the new
    /// heap, and [`Table::cow_stats`] carries on from its earlier reading.
    /// A clone taken before the call keeps its own pages and nodes and
    /// answers as it did (the walk copies each leaf it still shares).
    ///
    /// Two things change for callers, which is why this is never a side
    /// effect of [`Table::create_index`]:
    ///
    /// * every [`RecordId`] handed out before the call is stale;
    /// * [`Table::scan`] order — heap order — is now the index's leaf
    ///   order. A consumer that folds floats in scan order (the LoD
    ///   pyramid's build and its maintenance) must see one order
    ///   throughout: cluster a raw table before the pyramid is built over
    ///   it, never between build and maintenance.
    ///
    /// Rows written later land at the heap tail as always, so the order
    /// decays under churn; `ExecStats::heap_pages ÷ rows_scanned` over the
    /// index's probes measures by how much. Clustering a clustered table
    /// rewrites it to the same bytes.
    ///
    /// Errors on an index that is not spatial or does not hold one entry
    /// per live tuple, and — with the table left unusable — on an entry
    /// that addresses no live tuple: index and heap had already diverged.
    pub fn cluster(&mut self, index_no: usize) -> Result<()> {
        let Some(IndexImpl::Spatial(tree)) = self.indexes.get_mut(index_no).map(|i| &mut i.imp)
        else {
            return Err(StorageError::PlanError(
                "cluster orders a heap by a spatial index".into(),
            ));
        };
        let old = &self.heap;
        if tree.len() != old.len() {
            return Err(StorageError::ExecError(format!(
                "index holds {} entries for {} live tuples",
                tree.len(),
                old.len()
            )));
        }
        let mut heap = old.successor();
        tree.try_for_each_value_mut(|rid| -> Result<()> {
            let tuple = old
                .get(*rid)
                .ok_or_else(|| StorageError::ExecError("dangling index entry".into()))?;
            *rid = heap.insert(tuple)?;
            Ok(())
        })?;
        self.heap = heap;
        for i in (0..self.indexes.len()).filter(|i| *i != index_no) {
            let mut imp = self.build_index(&self.indexes[i].kind)?;
            imp.carry_copies(self.indexes[i].imp.copies());
            self.indexes[i].imp = imp;
        }
        Ok(())
    }

    /// Delete a row, removing its entries from every index (the §4 update
    /// model's substrate: "editing updates, which can be supported by DBMS
    /// concurrency control"). Returns false if the row was already gone.
    pub fn delete_row(&mut self, rid: RecordId) -> Result<bool> {
        let Some(row) = self.get(rid)? else {
            return Ok(false);
        };
        // collect per-index removal keys before mutating
        enum Removal {
            Key(OrdValue),
            Box(Rect),
        }
        let mut removals = Vec::with_capacity(self.indexes.len());
        for idx in &self.indexes {
            removals.push(match &idx.kind {
                IndexKind::BTree { column } => {
                    let ci = self.schema.index_of(column)?;
                    Removal::Key(OrdValue(row.get(ci).clone()))
                }
                IndexKind::Spatial(cols) => Removal::Box(self.row_bbox(&row, cols)?),
            });
        }
        for (idx, removal) in self.indexes.iter_mut().zip(removals) {
            match (&mut idx.imp, removal) {
                (IndexImpl::BTree(t), Removal::Key(k)) => {
                    t.remove_one(&k, |r| *r == rid);
                }
                (IndexImpl::Spatial(t), Removal::Box(b)) => {
                    t.remove_one(&b, |r| *r == rid);
                }
                _ => unreachable!("index kind / impl mismatch"),
            }
        }
        Ok(self.heap.delete(rid))
    }

    /// Write `row` over the live row at `rid` without touching an index:
    /// only when its encoding is as wide as the stored tuple's and every
    /// column an index reads is bit-equal (a B+tree key, a spatial index's
    /// bbox columns), so each index entry already names it. The record id
    /// stays, and the write copies at most the one page a held clone still
    /// shares. Returns false, writing and copying nothing, for a dead slot,
    /// another width or a changed indexed column; errors on a row the
    /// schema refuses.
    pub fn overwrite(&mut self, rid: RecordId, row: &Row) -> Result<bool> {
        self.schema.check_row(&row.values)?;
        let Some(old) = self.heap.get(rid) else {
            return Ok(false);
        };
        let new = row.encode();
        if new.len() != old.len() || !self.same_index_keys(old, &new)? {
            return Ok(false);
        }
        Ok(self.heap.overwrite(rid, &new))
    }

    /// Whether two encoded tuples of this table hold the same bytes in
    /// every column one of its indexes reads.
    fn same_index_keys(&self, a: &[u8], b: &[u8]) -> Result<bool> {
        let mut keyed: Vec<usize> = Vec::with_capacity(4 * self.indexes.len());
        for idx in &self.indexes {
            match &idx.kind {
                IndexKind::BTree { column } => keyed.push(self.schema.index_of(column)?),
                IndexKind::Spatial(cols) => keyed.extend(self.bbox_columns(cols)?),
            }
        }
        let Some(last) = keyed.iter().max().copied() else {
            return Ok(true);
        };
        let (mut pa, mut pb) = (0, 0);
        for col in 0..=last {
            let (sa, sb) = (pa, pb);
            Value::skip(a, &mut pa)?;
            Value::skip(b, &mut pb)?;
            if keyed.contains(&col) && a[sa..pa] != b[sb..pb] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Update a row: in place when [`Table::overwrite`] accepts it (the
    /// record id stays), else delete + re-insert (indexes maintained).
    /// Returns the row's record id afterwards.
    pub fn update_row(&mut self, rid: RecordId, new_row: Row) -> Result<RecordId> {
        if self.overwrite(rid, &new_row)? {
            return Ok(rid);
        }
        if !self.delete_row(rid)? {
            return Err(StorageError::ExecError(format!(
                "update of missing row at {rid:?}"
            )));
        }
        self.insert(new_row)
    }

    /// Find an index whose kind matches `pred`.
    fn find_index<F: Fn(&IndexKind) -> bool>(&self, pred: F) -> Option<usize> {
        self.indexes.iter().position(|i| pred(&i.kind))
    }

    /// A B+tree index on `column`: the one index that serves equality and
    /// range probes and index joins.
    pub fn btree_index_on(&self, column: &str) -> Option<usize> {
        self.find_index(|k| matches!(k, IndexKind::BTree { column: c } if c == column))
    }

    pub fn spatial_index(&self) -> Option<usize> {
        self.find_index(|k| matches!(k, IndexKind::Spatial(_)))
    }

    /// Probe an equality index; visits matching record ids.
    pub fn probe_eq<F: FnMut(RecordId)>(&self, index_no: usize, key: &Value, mut f: F) -> usize {
        let key = OrdValue(key.clone());
        match &self.indexes[index_no].imp {
            IndexImpl::BTree(t) => t.for_each_eq(&key, |rid| f(*rid)),
            IndexImpl::Spatial(_) => 0,
        }
    }

    /// Probe a B-tree range; visits matching record ids.
    pub fn probe_range<F: FnMut(RecordId)>(
        &self,
        index_no: usize,
        lo: &Value,
        hi: &Value,
        mut f: F,
    ) -> usize {
        let lo = OrdValue(lo.clone());
        let hi = OrdValue(hi.clone());
        let mut n = 0;
        if let IndexImpl::BTree(t) = &self.indexes[index_no].imp {
            t.for_range(&lo, &hi, |_, rid| {
                f(*rid);
                n += 1;
            });
        }
        n
    }

    /// Name of an index, for EXPLAIN output.
    pub fn index_name(&self, index_no: usize) -> &str {
        &self.indexes[index_no].name
    }

    /// Smallest non-NULL key of a B+tree index, by left-edge descent.
    /// NULLs sort before every other value (see [`Value::total_cmp`]) and
    /// SQL `MIN` ignores them, so the walk skips the leading NULL run;
    /// `Value::Null` means the index is empty or all-NULL — exactly what
    /// `MIN` over that data returns. No heap rows are touched.
    pub fn index_min(&self, index_no: usize) -> Value {
        let mut out = Value::Null;
        if let IndexImpl::BTree(t) = &self.indexes[index_no].imp {
            t.for_each_while(|k, _| {
                if k.0.is_null() {
                    return true;
                }
                out = k.0.clone();
                false
            });
        }
        out
    }

    /// Largest non-NULL key of a B+tree index, by right-edge descent.
    /// The first entry of the reverse walk is the maximum; it is NULL only
    /// when every key is (NULLs sort first), which is also `MAX`'s answer.
    pub fn index_max(&self, index_no: usize) -> Value {
        let mut out = Value::Null;
        if let IndexImpl::BTree(t) = &self.indexes[index_no].imp {
            t.for_each_rev_while(|k, _| {
                if !k.0.is_null() {
                    out = k.0.clone();
                }
                false
            });
        }
        out
    }

    /// Walk a B+tree index in key order — ascending or descending —
    /// visiting record ids until the callback returns false. Descending
    /// runs of equal keys are re-emitted in insertion order (the reverse
    /// walk delivers them reversed), so the visit order matches a *stable*
    /// sort in either direction. Backs index-backed top-N.
    pub fn index_ordered_walk<F: FnMut(RecordId) -> bool>(
        &self,
        index_no: usize,
        desc: bool,
        mut f: F,
    ) {
        let IndexImpl::BTree(t) = &self.indexes[index_no].imp else {
            return;
        };
        if !desc {
            t.for_each_while(|_, rid| f(*rid));
            return;
        }
        // Buffer each equal-key run; flush it in insertion order when the
        // key changes. Only record ids are buffered — heap fetches stay
        // bounded by how far the caller walks.
        let mut run: Vec<RecordId> = Vec::new();
        let mut run_key: Option<OrdValue> = None;
        let mut stop = false;
        t.for_each_rev_while(|k, rid| {
            if run_key.as_ref().is_some_and(|rk| rk != k) {
                for r in run.drain(..).rev() {
                    if !f(r) {
                        stop = true;
                        break;
                    }
                }
                if stop {
                    return false;
                }
            }
            run_key = Some(k.clone());
            run.push(*rid);
            true
        });
        if !stop {
            for r in run.drain(..).rev() {
                if !f(r) {
                    break;
                }
            }
        }
    }

    /// Probe the spatial index; visits matching record ids.
    /// Returns (matches, nodes_visited).
    pub fn probe_spatial<F: FnMut(RecordId)>(
        &self,
        index_no: usize,
        rect: &Rect,
        mut f: F,
    ) -> (usize, usize) {
        let mut n = 0;
        let visited = if let IndexImpl::Spatial(t) = &self.indexes[index_no].imp {
            t.for_each_intersecting(rect, |_, rid| {
                f(*rid);
                n += 1;
            })
        } else {
            0
        };
        (n, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn dots_table() -> Table {
        let schema = Schema::empty()
            .with("tuple_id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float);
        let mut t = Table::new("dots", schema);
        for i in 0..100i64 {
            t.insert(Row::new(vec![
                Value::Int(i),
                Value::Float((i % 10) as f64),
                Value::Float((i / 10) as f64),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = dots_table();
        assert_eq!(t.len(), 100);
        let mut count = 0;
        t.scan(|_, row| {
            assert_eq!(row.len(), 3);
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 100);
    }

    #[test]
    fn btree_index_built_and_maintained() {
        let mut t = dots_table();
        t.create_index(
            "by_id",
            IndexKind::BTree {
                column: "tuple_id".into(),
            },
        )
        .unwrap();
        // post-index insert is also indexed
        t.insert(Row::new(vec![
            Value::Int(100),
            Value::Float(0.0),
            Value::Float(0.0),
        ]))
        .unwrap();
        let idx = t.btree_index_on("tuple_id").unwrap();
        let mut hits = Vec::new();
        t.probe_eq(idx, &Value::Int(100), |rid| hits.push(rid));
        assert_eq!(hits.len(), 1);
        let row = t.get(hits[0]).unwrap().unwrap();
        assert_eq!(row.get(0), &Value::Int(100));
    }

    #[test]
    fn spatial_index_point_queries() {
        let mut t = dots_table();
        t.create_index(
            "sp",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        let idx = t.spatial_index().unwrap();
        let mut hits = Vec::new();
        let (n, visited) =
            t.probe_spatial(idx, &Rect::new(0.0, 0.0, 2.0, 2.0), |rid| hits.push(rid));
        assert_eq!(n, 9); // 3x3 inclusive grid of (x,y) in 0..=2
        assert!(visited >= 1);
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = dots_table();
        t.create_index("i", IndexKind::BTree { column: "x".into() })
            .unwrap();
        assert!(matches!(
            t.create_index("i", IndexKind::BTree { column: "y".into() }),
            Err(StorageError::IndexExists(_))
        ));
    }

    #[test]
    fn index_on_missing_column_rejected() {
        let mut t = dots_table();
        assert!(t
            .create_index(
                "bad",
                IndexKind::BTree {
                    column: "nope".into()
                }
            )
            .is_err());
    }

    /// Ten labelled points, indexed by id (B+tree) and position (R-tree).
    fn labelled_table() -> Table {
        let schema = Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("label", DataType::Text);
        let mut t = Table::new("labelled", schema);
        for i in 0..10i64 {
            t.insert(labelled(i, i as f64, "abc")).unwrap();
        }
        t.create_index(
            "by_id",
            IndexKind::BTree {
                column: "id".into(),
            },
        )
        .unwrap();
        t.create_index(
            "by_xy",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        t
    }

    fn labelled(id: i64, x: f64, label: &str) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Float(x),
            Value::Float(1.0),
            Value::Text(label.into()),
        ])
    }

    fn rid_of(t: &Table, id: i64) -> RecordId {
        let mut hits = Vec::new();
        t.probe_eq(t.btree_index_on("id").unwrap(), &Value::Int(id), |r| {
            hits.push(r)
        });
        assert_eq!(hits.len(), 1);
        hits[0]
    }

    #[test]
    fn overwrite_refusals_write_and_copy_nothing() {
        let base = labelled_table();
        let mut t = base.clone();
        let rid = rid_of(&t, 3);
        let (origin, dead) = (rid_of(&t, 0), rid_of(&t, 4));
        assert!(t.delete_row(dead).unwrap());
        let after_delete = t.cow_stats();
        let refused = [
            (rid, labelled(3, 3.5, "abc"), "a changed spatial column"),
            (rid, labelled(30, 3.0, "abc"), "a changed B+tree key"),
            (
                origin,
                labelled(0, -0.0, "abc"),
                "-0.0 over 0.0, equal but not bit-equal",
            ),
            (rid, labelled(3, 3.0, "abcd"), "a wider text value"),
            (rid, labelled(3, 3.0, "ab"), "a narrower one"),
            (dead, labelled(4, 4.0, "xyz"), "a dead slot"),
        ];
        for (at, row, what) in refused {
            assert!(!t.overwrite(at, &row).unwrap(), "{what} must be refused");
            assert_eq!(t.cow_stats(), after_delete, "{what} copied something");
        }
        assert_eq!(t.get(rid).unwrap().unwrap(), labelled(3, 3.0, "abc"));
        assert!(t.overwrite(rid, &Row::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn overwrite_keeps_the_record_id_and_every_index_entry() {
        let base = labelled_table();
        let mut t = base.clone();
        let rid = rid_of(&t, 3);
        assert!(t.overwrite(rid, &labelled(3, 3.0, "xyz")).unwrap());
        let stats = t.cow_stats();
        assert_eq!((stats.pages_copied, stats.nodes_copied), (1, 0));
        assert_eq!(t.get(rid).unwrap().unwrap(), labelled(3, 3.0, "xyz"));
        assert_eq!(rid_of(&t, 3), rid);
        let mut hits = Vec::new();
        t.probe_spatial(
            t.spatial_index().unwrap(),
            &Rect::new(3.0, 1.0, 3.0, 1.0),
            |r| hits.push(r),
        );
        assert_eq!(hits, vec![rid]);
        assert_eq!(base.get(rid).unwrap().unwrap(), labelled(3, 3.0, "abc"));

        // update_row takes the same path when it can, and falls back to
        // delete + insert when it cannot
        assert_eq!(t.update_row(rid, labelled(3, 3.0, "abc")).unwrap(), rid);
        let moved = t.update_row(rid, labelled(3, 7.5, "abc")).unwrap();
        assert_ne!(moved, rid);
        assert_eq!(rid_of(&t, 3), moved);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut t = dots_table();
        assert!(t.insert(Row::new(vec![Value::Text("bad".into())])).is_err());
    }
}
