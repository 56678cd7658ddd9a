//! The `Database`: a named collection of tables plus the SQL entry points.

use crate::catalog::{IndexKind, Table};
use crate::error::{Result, StorageError};
use crate::fxhash::FxHashMap;
use crate::row::Row;
use crate::schema::Schema;
use crate::sql::bind::{Bindings, BoundExpr};
use crate::sql::{
    execute_select, execute_select_reserving, explain_select, output_schema, parse,
    parse_statement, QueryResult, Select, Statement,
};
use crate::stats::{DbCounters, ExecStats};
use crate::value::{DataType, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Callback invoked after every read query with the SQL text, the
/// wall-clock execution time, and the query's [`ExecStats`] — the
/// storage-level hook a serving layer uses to feed its `sql.execute`
/// telemetry (timing *and* rows-scanned truthfulness) without the storage
/// crate depending on any telemetry types. On a failed query the stats are
/// all-zero defaults.
pub type QueryObserver = Arc<dyn Fn(&str, Duration, &ExecStats) + Send + Sync>;

/// An embedded relational database.
///
/// Tables are held behind `Arc` so that cloning a `Database` is cheap: the
/// clone shares every table with the original. The first mutation through
/// a handle that shares a table with another clone gives that handle its
/// own [`Table`] — which still shares pages and index nodes with the other
/// clone's — and each write then copies the page and the root-to-leaf
/// nodes it changes. This is what lets a serving layer publish immutable
/// snapshots while a mutator builds the next version off to the side,
/// paying only for what it actually writes.
#[derive(Default)]
pub struct Database {
    tables: FxHashMap<String, Arc<Table>>,
    /// Cumulative counters across all queries (thread-safe; shared between
    /// clones so the totals stay process-wide across snapshot versions).
    pub counters: Arc<DbCounters>,
    /// Optional per-query timing hook (see [`QueryObserver`]).
    observer: Option<QueryObserver>,
}

impl Clone for Database {
    /// Cheap clone: bumps one `Arc` per table, shares the counters and
    /// the query observer.
    fn clone(&self) -> Self {
        Database {
            tables: self.tables.clone(),
            counters: Arc::clone(&self.counters),
            observer: self.observer.clone(),
        }
    }
}

/// A parsed statement, reusable across executions with different parameters.
/// This mirrors the prepared-statement path a Kyrix backend would use against
/// PostgreSQL for its per-tile / per-box queries: the server prepares each
/// layer's fetch statement once at launch and executes it per fetch.
///
/// A statement is independent of any one database (planning happens per
/// execution), so one `Prepared` serves every snapshot version and every
/// shard.
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Select,
    /// Original SQL, kept for diagnostics.
    pub sql: String,
    tail: usize,
}

impl Prepared {
    /// Parse a SELECT.
    pub fn new(sql: &str) -> Result<Prepared> {
        Ok(Prepared {
            stmt: parse(sql)?,
            sql: sql.to_string(),
            tail: 0,
        })
    }

    /// Declare that the consumer appends `tail` values to every returned
    /// row. The executor then allocates each row of a non-aggregate,
    /// single-table result with exactly `schema.len() + tail` capacity
    /// ([`crate::sql::exec::execute_select_reserving`]), so the row is
    /// allocated once, at its final width.
    pub fn reserving(mut self, tail: usize) -> Prepared {
        self.tail = tail;
        self
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Select {
        &self.stmt
    }

    /// How many values the consumer appends per row (see
    /// [`Prepared::reserving`]).
    pub fn tail(&self) -> usize {
        self.tail
    }
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a table. Errors if the name is taken.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<&mut Table> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        self.tables
            .insert(name.clone(), Arc::new(Table::new(&name, schema)));
        Ok(Arc::make_mut(
            self.tables.get_mut(&name).expect("just inserted"),
        ))
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table. If the table is shared with another
    /// `Database` clone (a published snapshot), this handle first gets its
    /// own [`Table`] that shares pages and index nodes with the other
    /// clone's, so the other clone keeps seeing the old contents; each such
    /// unsharing bumps [`DbCounters::cow_table_copies`].
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let counters = &self.counters;
        self.tables
            .get_mut(name)
            .map(|t| {
                if Arc::strong_count(t) > 1 {
                    counters.cow_table_copies.fetch_add(1, Ordering::Relaxed);
                }
                Arc::make_mut(t)
            })
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Install the per-query timing hook. The observer is shared with
    /// every later clone of this database (successor snapshots keep
    /// reporting into the same sink); pass `None` to detach.
    pub fn set_query_observer(&mut self, observer: Option<QueryObserver>) {
        self.observer = observer;
    }

    /// Insert a row into a table.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        self.table_mut(table)?.insert(row).map(|_| ())
    }

    /// Create an index on a table, building it from existing rows.
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: impl Into<String>,
        kind: IndexKind,
    ) -> Result<()> {
        self.table_mut(table)?.create_index(index_name, kind)
    }

    /// Rewrite a table's heap in the leaf order of its spatial index
    /// `index_name` ([`Table::cluster`]: record ids and scan order change,
    /// query answers do not). Goes through [`Database::table_mut`], so a
    /// clone of this database — a pinned snapshot — keeps the old pages
    /// and nodes and answers as before.
    pub fn cluster(&mut self, table: &str, index_name: &str) -> Result<()> {
        let index_no = self
            .table(table)?
            .indexes()
            .position(|i| i.name == index_name)
            .ok_or_else(|| StorageError::UnknownIndex(index_name.to_string()))?;
        self.table_mut(table)?.cluster(index_no)
    }

    /// Parse + plan + execute a read-only statement (SELECT or EXPLAIN).
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let start = self.observer.as_ref().map(|_| Instant::now());
        let result = match parse_statement(sql)? {
            Statement::Select(stmt) => execute_select(self, &stmt, params),
            Statement::Explain(stmt) => explain_select(self, &stmt),
            _ => Err(StorageError::PlanError(
                "Database::query is read-only; use Database::run for INSERT/UPDATE/DELETE"
                    .to_string(),
            )),
        };
        if let (Some(obs), Some(t0)) = (&self.observer, start) {
            let stats = result.as_ref().map(|r| r.stats).unwrap_or_default();
            obs(sql, t0.elapsed(), &stats);
        }
        result
    }

    /// Execute any statement. SELECT/EXPLAIN return their result; DML
    /// statements return a single-row result with an `affected` column.
    ///
    /// ```
    /// # use kyrix_storage::*;
    /// # let mut db = Database::new();
    /// # db.create_table("t", Schema::empty().with("x", DataType::Int)).unwrap();
    /// db.run("INSERT INTO t VALUES (1), (2), (3)", &[]).unwrap();
    /// let n = db.run("UPDATE t SET x = x * 10 WHERE x >= 2", &[]).unwrap();
    /// assert_eq!(n.rows[0].get(0), &Value::Int(2));
    /// let r = db.run("SELECT SUM(x) FROM t", &[]).unwrap();
    /// assert_eq!(r.rows[0].get(0), &Value::Int(51));
    /// ```
    pub fn run(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        match parse_statement(sql)? {
            Statement::Select(stmt) => execute_select(self, &stmt, params),
            Statement::Explain(stmt) => explain_select(self, &stmt),
            Statement::Insert(ins) => {
                let n = self.run_insert(&ins, params)?;
                Ok(affected_result(n))
            }
            Statement::Delete(del) => {
                let n = match &del.where_clause {
                    Some(pred) => self.delete_matching(&del.table.table, pred, params)?,
                    None => self.delete_all(&del.table.table)?,
                };
                Ok(affected_result(n))
            }
            Statement::Update(upd) => {
                let n = self.run_update(&upd, params)?;
                Ok(affected_result(n))
            }
            Statement::CreateTable(ct) => {
                let mut schema = Schema::empty();
                for (name, dtype) in ct.columns {
                    schema = schema.with(name, dtype);
                }
                self.create_table(ct.table, schema)?;
                Ok(affected_result(0))
            }
            Statement::CreateIndex(ci) => {
                let kind = match ci.kind {
                    crate::sql::ast::IndexSpec::BTree { column } => IndexKind::BTree { column },
                    crate::sql::ast::IndexSpec::SpatialPoint { x, y } => {
                        IndexKind::Spatial(crate::catalog::SpatialCols::Point { x, y })
                    }
                };
                self.create_index(&ci.table, ci.name, kind)?;
                Ok(affected_result(0))
            }
            Statement::DropTable(name) => {
                self.drop_table(&name)?;
                Ok(affected_result(0))
            }
        }
    }

    fn run_insert(&mut self, ins: &crate::sql::Insert, params: &[Value]) -> Result<usize> {
        let table = self.table(&ins.table)?;
        let schema = table.schema.clone();
        // map supplied expressions to schema positions
        let positions: Vec<usize> = match &ins.columns {
            Some(cols) => cols
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<_>>()?,
            None => (0..schema.len()).collect(),
        };
        let empty = Bindings::single(&ins.table, &schema);
        let mut staged = Vec::with_capacity(ins.rows.len());
        for exprs in &ins.rows {
            if exprs.len() != positions.len() {
                return Err(StorageError::ExecError(format!(
                    "INSERT expects {} values per row, got {}",
                    positions.len(),
                    exprs.len()
                )));
            }
            // unspecified columns default to NULL
            let mut values = vec![Value::Null; schema.len()];
            for (expr, &pos) in exprs.iter().zip(&positions) {
                let v = BoundExpr::bind(expr, &empty)?.eval_const(params)?;
                values[pos] = coerce(v, schema.column(pos).dtype);
            }
            staged.push(Row::new(values));
        }
        let n = staged.len();
        let t = self.table_mut(&ins.table)?;
        for row in staged {
            t.insert(row)?;
        }
        Ok(n)
    }

    fn run_update(&mut self, upd: &crate::sql::Update, params: &[Value]) -> Result<usize> {
        let table_name = upd.table.table.clone();
        let binding = upd.table.binding().to_string();
        let t = self.table(&table_name)?;
        let schema = t.schema.clone();
        let bindings = Bindings::single(&binding, &schema);
        // resolve assignments once
        let sets: Vec<(usize, DataType, BoundExpr)> = upd
            .sets
            .iter()
            .map(|(col, expr)| {
                let i = schema.index_of(col)?;
                Ok((i, schema.column(i).dtype, BoundExpr::bind(expr, &bindings)?))
            })
            .collect::<Result<_>>()?;
        let rids = match &upd.where_clause {
            Some(pred) => self.rids_matching(&table_name, &binding, pred, params)?,
            None => self.all_rids(&table_name)?,
        };
        let t = self.table_mut(&table_name)?;
        for &rid in &rids {
            let mut row = t
                .get(rid)?
                .ok_or_else(|| StorageError::ExecError("row vanished mid-update".into()))?;
            let mut new_values = Vec::with_capacity(sets.len());
            for (i, dtype, expr) in &sets {
                new_values.push((*i, coerce(expr.eval(&row.values, params)?, *dtype)));
            }
            for (i, v) in new_values {
                row.values[i] = v;
            }
            t.update_row(rid, row)?;
        }
        Ok(rids.len())
    }

    fn delete_matching(
        &mut self,
        table: &str,
        pred: &crate::sql::SqlExpr,
        params: &[Value],
    ) -> Result<usize> {
        let rids = self.rids_matching(table, table, pred, params)?;
        let t = self.table_mut(table)?;
        for rid in &rids {
            t.delete_row(*rid)?;
        }
        Ok(rids.len())
    }

    fn delete_all(&mut self, table: &str) -> Result<usize> {
        let rids = self.all_rids(table)?;
        let t = self.table_mut(table)?;
        for rid in &rids {
            t.delete_row(*rid)?;
        }
        Ok(rids.len())
    }

    fn all_rids(&self, table: &str) -> Result<Vec<crate::heap::RecordId>> {
        let t = self.table(table)?;
        let mut rids = Vec::with_capacity(t.len());
        t.scan(|rid, _| rids.push(rid))?;
        Ok(rids)
    }

    /// Record ids matching a bound predicate.
    fn rids_matching(
        &self,
        table: &str,
        binding: &str,
        pred: &crate::sql::SqlExpr,
        params: &[Value],
    ) -> Result<Vec<crate::heap::RecordId>> {
        let t = self.table(table)?;
        let bound = BoundExpr::bind(pred, &Bindings::single(binding, &t.schema))?;
        let mut rids = Vec::new();
        let mut first_err = None;
        t.scan(|rid, row| {
            if first_err.is_some() {
                return;
            }
            match bound.eval(&row.values, params).and_then(|v| v.as_bool()) {
                Ok(true) => rids.push(rid),
                Ok(false) => {}
                Err(e) => first_err = Some(e),
            }
        })?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(rids),
        }
    }

    /// Parse once; execute many times with different parameters.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        Prepared::new(sql)
    }

    /// Execute a prepared statement. Planning happens per execution (the
    /// plan depends on available indexes, which may change between calls).
    /// Result rows come back with room for the statement's
    /// [`Prepared::tail`].
    pub fn execute(&self, prepared: &Prepared, params: &[Value]) -> Result<QueryResult> {
        self.execute_statement(&prepared.stmt, &prepared.sql, params, prepared.tail)
    }

    /// Execute a parsed SELECT with room for `tail` more values per row,
    /// reporting to the query observer under `sql`. The one observed
    /// execution: [`Database::execute`] runs a [`Prepared`] through it, and
    /// a scatter-gather executor runs each shard's rewritten statement
    /// through it under the original text, so a shard run is observed
    /// exactly like a single-node one.
    pub fn execute_statement(
        &self,
        stmt: &Select,
        sql: &str,
        params: &[Value],
        tail: usize,
    ) -> Result<QueryResult> {
        let start = self.observer.as_ref().map(|_| Instant::now());
        let result = execute_select_reserving(self, stmt, params, tail);
        if let (Some(obs), Some(t0)) = (&self.observer, start) {
            let stats = result.as_ref().map(|r| r.stats).unwrap_or_default();
            obs(sql, t0.elapsed(), &stats);
        }
        result
    }

    /// Infer the output schema of a query without running it.
    pub fn query_schema(&self, sql: &str) -> Result<Schema> {
        let stmt = parse(sql)?;
        output_schema(self, &stmt)
    }

    /// Record ids of rows matching a WHERE predicate (`$n` params bind).
    fn rids_where(
        &self,
        table: &str,
        predicate: &str,
        params: &[Value],
    ) -> Result<Vec<crate::heap::RecordId>> {
        let stmt = parse(&format!("SELECT * FROM {table} WHERE {predicate}"))?;
        let pred = stmt
            .where_clause
            .ok_or_else(|| StorageError::ParseError("empty predicate".into()))?;
        self.rids_matching(table, stmt.from.binding(), &pred, params)
    }

    /// Delete all rows matching a predicate, maintaining every index
    /// (the §4 update model). Returns the number of rows deleted.
    ///
    /// ```
    /// # use kyrix_storage::*;
    /// # let mut db = Database::new();
    /// # db.create_table("t", Schema::empty().with("x", DataType::Int)).unwrap();
    /// # for i in 0..10 { db.insert("t", Row::new(vec![Value::Int(i)])).unwrap(); }
    /// let n = db.delete_where("t", "x >= $1", &[Value::Int(5)]).unwrap();
    /// assert_eq!(n, 5);
    /// assert_eq!(db.table("t").unwrap().len(), 5);
    /// ```
    pub fn delete_where(
        &mut self,
        table: &str,
        predicate: &str,
        params: &[Value],
    ) -> Result<usize> {
        let rids = self.rids_where(table, predicate, params)?;
        let t = self.table_mut(table)?;
        for rid in &rids {
            t.delete_row(*rid)?;
        }
        Ok(rids.len())
    }

    /// Set columns to constant values on all rows matching a predicate
    /// (e.g. tagging relevant data, the MGH use case in paper §4).
    /// Returns the number of rows updated.
    pub fn update_where(
        &mut self,
        table: &str,
        assignments: &[(&str, Value)],
        predicate: &str,
        params: &[Value],
    ) -> Result<usize> {
        let rids = self.rids_where(table, predicate, params)?;
        // resolve assignment columns once
        let t = self.table(table)?;
        let cols: Vec<usize> = assignments
            .iter()
            .map(|(c, _)| t.schema.index_of(c))
            .collect::<Result<_>>()?;
        let t = self.table_mut(table)?;
        for rid in &rids {
            let mut row = t
                .get(*rid)?
                .ok_or_else(|| StorageError::ExecError("row vanished mid-update".into()))?;
            for (ci, (_, v)) in cols.iter().zip(assignments) {
                row.values[*ci] = v.clone();
            }
            t.update_row(*rid, row)?;
        }
        Ok(rids.len())
    }

    /// Total resident bytes across table heaps.
    pub fn heap_bytes(&self) -> usize {
        self.tables.values().map(|t| t.heap_bytes()).sum()
    }
}

/// Single-row `affected` result for DML statements.
fn affected_result(n: usize) -> QueryResult {
    QueryResult {
        schema: Schema::empty().with("affected", DataType::Int),
        rows: vec![Row::new(vec![Value::Int(n as i64)])],
        stats: ExecStats::default(),
    }
}

/// Lossless convenience coercion for SQL writes: Int literals may land in
/// Float columns (the strict per-type check happens in `Schema::check_row`).
fn coerce(v: Value, dtype: DataType) -> Value {
    match (v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (v, _) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SpatialCols;
    use crate::stats::CowStats;
    use crate::value::DataType;

    /// Build the paper's two-design database: a record table, a tuple→tile
    /// mapping table (design 1) and a spatial side table (design 2).
    fn paper_db() -> Database {
        let mut db = Database::new();
        // record table: raw attributes + tuple_id
        db.create_table(
            "record",
            Schema::empty()
                .with("tuple_id", DataType::Int)
                .with("x", DataType::Float)
                .with("y", DataType::Float),
        )
        .unwrap();
        // mapping table: (tuple_id, tile_id)
        db.create_table(
            "mapping",
            Schema::empty()
                .with("tuple_id", DataType::Int)
                .with("tile_id", DataType::Int),
        )
        .unwrap();
        // 20x20 grid of dots; tiles of 10x10 -> 4 tiles (2x2)
        for i in 0..400i64 {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            db.insert(
                "record",
                Row::new(vec![Value::Int(i), Value::Float(x), Value::Float(y)]),
            )
            .unwrap();
            let tile = (x as i64 / 10) + (y as i64 / 10) * 2;
            db.insert("mapping", Row::new(vec![Value::Int(i), Value::Int(tile)]))
                .unwrap();
        }
        db.create_index(
            "record",
            "record_tuple_id",
            IndexKind::BTree {
                column: "tuple_id".into(),
            },
        )
        .unwrap();
        db.create_index(
            "mapping",
            "mapping_tile_id",
            IndexKind::BTree {
                column: "tile_id".into(),
            },
        )
        .unwrap();
        db.create_index(
            "record",
            "record_spatial",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        db
    }

    #[test]
    fn tile_query_via_mapping_join() {
        let db = paper_db();
        let r = db
            .query(
                "SELECT r.* FROM mapping m JOIN record r ON m.tuple_id = r.tuple_id \
                 WHERE m.tile_id = $1",
                &[Value::Int(0)],
            )
            .unwrap();
        // tile 0 = x in 0..10, y in 0..10 -> 100 dots
        assert_eq!(r.rows.len(), 100);
        assert_eq!(r.schema.len(), 3);
        assert!(r.stats.index_probes >= 1, "join must use indexes");
        // every returned dot is inside the tile
        for row in &r.rows {
            let x = row.get(1).as_f64().unwrap();
            let y = row.get(2).as_f64().unwrap();
            assert!(x < 10.0 && y < 10.0);
        }
    }

    #[test]
    fn box_query_via_spatial_index() {
        let db = paper_db();
        let r = db
            .query(
                "SELECT * FROM record WHERE bbox && rect($1, $2, $3, $4)",
                &[
                    Value::Float(0.0),
                    Value::Float(0.0),
                    Value::Float(4.0),
                    Value::Float(4.0),
                ],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 25); // 5x5 inclusive
        assert!(r.stats.nodes_visited > 0);
    }

    #[test]
    fn spatial_and_mapping_agree() {
        let db = paper_db();
        // tile 3 = x in 10..20, y in 10..20
        let via_mapping = db
            .query(
                "SELECT r.* FROM mapping m JOIN record r ON m.tuple_id = r.tuple_id \
                 WHERE m.tile_id = 3",
                &[],
            )
            .unwrap();
        let via_spatial = db
            .query(
                "SELECT * FROM record WHERE bbox && rect(10, 10, 19, 19)",
                &[],
            )
            .unwrap();
        let ids = |r: &QueryResult| {
            let mut v: Vec<i64> = r
                .rows
                .iter()
                .map(|row| row.get(0).as_i64().unwrap())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&via_mapping), ids(&via_spatial));
        assert_eq!(via_mapping.rows.len(), 100);
    }

    #[test]
    fn count_star_and_filters() {
        let db = paper_db();
        let r = db
            .query("SELECT COUNT(*) FROM record WHERE x < 5 AND y < 2", &[])
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(10));
    }

    #[test]
    fn order_by_and_limit() {
        let db = paper_db();
        let r = db
            .query(
                "SELECT tuple_id FROM record WHERE y = 0 ORDER BY x DESC LIMIT 3",
                &[],
            )
            .unwrap();
        let ids: Vec<i64> = r
            .rows
            .iter()
            .map(|row| row.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![19, 18, 17]);
    }

    #[test]
    fn between_uses_btree() {
        let mut db = paper_db();
        db.create_index(
            "record",
            "record_x",
            IndexKind::BTree { column: "x".into() },
        )
        .unwrap();
        let stmt = parse("SELECT * FROM record WHERE x BETWEEN 3 AND 4").unwrap();
        let plan = crate::sql::plan_select(&db, &stmt).unwrap();
        assert_eq!(plan.describe(), "IndexRange(record)");
        let r = db
            .query("SELECT * FROM record WHERE x BETWEEN 3 AND 4", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 40);
    }

    #[test]
    fn seq_scan_fallback_counts_all_rows() {
        let db = paper_db();
        let r = db
            .query("SELECT * FROM mapping WHERE tuple_id = 7", &[])
            .unwrap();
        // no index on mapping.tuple_id -> seq scan over 400 rows
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.stats.rows_scanned, 400);
    }

    #[test]
    fn prepared_statements_rerun() {
        let db = paper_db();
        let p = db
            .prepare("SELECT COUNT(*) FROM record WHERE bbox && rect($1,$2,$3,$4)")
            .unwrap();
        for (x, expect) in [(0.0, 4), (18.0, 4)] {
            let r = db
                .execute(
                    &p,
                    &[
                        Value::Float(x),
                        Value::Float(0.0),
                        Value::Float(x + 1.0),
                        Value::Float(1.0),
                    ],
                )
                .unwrap();
            assert_eq!(r.rows[0].get(0), &Value::Int(expect));
        }
    }

    #[test]
    fn counters_accumulate() {
        let db = paper_db();
        db.counters.reset();
        db.query("SELECT * FROM record WHERE x = 0", &[]).unwrap();
        db.query("SELECT * FROM record WHERE y = 0", &[]).unwrap();
        assert_eq!(db.counters.queries(), 2);
    }

    #[test]
    fn errors_surface() {
        let db = paper_db();
        assert!(matches!(
            db.query("SELECT * FROM nope", &[]),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(matches!(
            db.query("SELECT missing FROM record", &[]),
            Err(StorageError::UnknownColumn(_))
        ));
        assert!(matches!(
            db.query("SELECT * FROM record WHERE x = $1", &[]),
            Err(StorageError::MissingParam(1))
        ));
        assert!(db
            .query("SELECT * FROM mapping WHERE bbox && rect(0,0,1,1)", &[])
            .is_err());
    }

    #[test]
    fn delete_where_maintains_indexes() {
        let mut db = paper_db();
        // delete the top half of the grid
        let n = db.delete_where("record", "y >= 10", &[]).unwrap();
        assert_eq!(n, 200);
        assert_eq!(db.table("record").unwrap().len(), 200);
        // spatial index no longer returns deleted dots
        let r = db
            .query(
                "SELECT COUNT(*) FROM record WHERE bbox && rect(0, 0, 19, 19)",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(200));
        // a B-tree probe on a deleted tuple finds nothing
        let r = db
            .query("SELECT * FROM record WHERE tuple_id = 399", &[])
            .unwrap();
        assert!(r.rows.is_empty());
        // ... and still finds a surviving tuple
        let r = db
            .query("SELECT * FROM record WHERE tuple_id = 0", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn update_where_moves_rows_in_every_index() {
        let mut db = paper_db();
        // teleport dot 7 to a far corner (the MGH editing scenario)
        let n = db
            .update_where(
                "record",
                &[("x", Value::Float(19.0)), ("y", Value::Float(19.0))],
                "tuple_id = $1",
                &[Value::Int(7)],
            )
            .unwrap();
        assert_eq!(n, 1);
        // the spatial index sees it at the new location...
        let r = db
            .query(
                "SELECT tuple_id FROM record WHERE bbox && rect(18.5, 18.5, 19.5, 19.5)",
                &[],
            )
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|x| x.get(0).as_i64().unwrap()).collect();
        assert!(ids.contains(&7), "ids {ids:?}");
        // ...and not at the old one (x=7, y=0)
        let r = db
            .query(
                "SELECT tuple_id FROM record WHERE bbox && rect(6.5, -0.5, 7.5, 0.5)",
                &[],
            )
            .unwrap();
        assert!(r.rows.is_empty());
        // the B-tree on tuple_id still resolves the tuple exactly once
        let r = db
            .query("SELECT * FROM record WHERE tuple_id = 7", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(1), &Value::Float(19.0));
        assert_eq!(db.table("record").unwrap().len(), 400);
    }

    #[test]
    fn update_where_rejects_bad_inputs() {
        let mut db = paper_db();
        assert!(db
            .update_where("record", &[("nope", Value::Int(1))], "tuple_id = 0", &[])
            .is_err());
        assert!(db.delete_where("nope", "tuple_id = 0", &[]).is_err());
        assert!(db.delete_where("record", "SELECT garbage", &[]).is_err());
        // type-mismatched assignment is rejected by the schema check
        assert!(db
            .update_where(
                "record",
                &[("x", Value::Text("not a number".into()))],
                "tuple_id = 0",
                &[],
            )
            .is_err());
    }

    #[test]
    fn clone_shares_tables_until_written() {
        let base = paper_db();
        let mut succ = base.clone();
        // the clone shares every table physically
        assert!(std::ptr::eq(
            base.table("record").unwrap(),
            succ.table("record").unwrap()
        ));
        // mutating the clone leaves the original untouched...
        let n = succ.delete_where("record", "tuple_id < 100", &[]).unwrap();
        assert_eq!(n, 100);
        assert_eq!(succ.table("record").unwrap().len(), 300);
        assert_eq!(base.table("record").unwrap().len(), 400);
        // ...and only the mutated table was unshared
        assert!(!std::ptr::eq(
            base.table("record").unwrap(),
            succ.table("record").unwrap()
        ));
        assert!(std::ptr::eq(
            base.table("mapping").unwrap(),
            succ.table("mapping").unwrap()
        ));
    }

    #[test]
    fn query_observer_sees_reads_and_survives_clone() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut db = paper_db();
        let seen = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&seen);
        db.set_query_observer(Some(Arc::new(move |sql: &str, _dur, stats: &ExecStats| {
            assert!(sql.starts_with("SELECT"), "observer got {sql:?}");
            // COUNT(*) is metadata-answered: the stats hook must agree
            assert_eq!(stats.rows_scanned, 0, "COUNT(*) should not scan rows");
            assert_eq!(stats.rows_out, 1);
            sink.fetch_add(1, Ordering::Relaxed);
        })));
        db.query("SELECT COUNT(*) FROM record", &[]).unwrap();
        let p = db.prepare("SELECT COUNT(*) FROM record").unwrap();
        db.execute(&p, &[]).unwrap();
        // clones (successor snapshots) keep reporting into the same sink
        let clone = db.clone();
        clone.query("SELECT COUNT(*) FROM mapping", &[]).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 3);
        db.set_query_observer(None);
        db.query("SELECT COUNT(*) FROM record", &[]).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cow_unsharing_is_counted() {
        let base = paper_db();
        base.counters.reset();
        let mut succ = base.clone();
        // first mutation through a shared handle unshares the table and
        // copies the one page, the one R-tree leaf and the one B+tree leaf
        // the row sits in
        succ.delete_where("record", "tuple_id = 0", &[]).unwrap();
        assert_eq!(base.counters.cow_table_copies(), 1);
        let stats = succ.table("record").unwrap().cow_stats();
        assert_eq!((stats.pages_copied, stats.nodes_copied), (1, 2));
        // the table is now unshared and that page is this handle's own:
        // a second delete on it copies only another leaf, if any
        succ.delete_where("record", "tuple_id = 1", &[]).unwrap();
        assert_eq!(succ.counters.cow_table_copies(), 1);
        let stats = succ.table("record").unwrap().cow_stats();
        assert_eq!(stats.pages_copied, 1);
        assert!(stats.nodes_copied <= 2);
        // a different shared table pays its own unsharing: one page and
        // one B+tree leaf
        succ.delete_where("mapping", "tuple_id = 0", &[]).unwrap();
        assert_eq!(succ.counters.cow_table_copies(), 2);
        let stats = succ.table("mapping").unwrap().cow_stats();
        assert_eq!((stats.pages_copied, stats.nodes_copied), (1, 1));
        // the original never copied anything
        assert_eq!(
            base.table("record").unwrap().cow_stats(),
            CowStats::default()
        );
    }

    #[test]
    fn cluster_puts_a_rectangles_rows_on_adjacent_pages() {
        // a 200x200 lattice loaded in a scattered order (7919 is coprime
        // to 40,000): neighbours on the plane are strangers in the heap
        let mut db = Database::new();
        let schema = Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float);
        db.create_table("dots", schema).unwrap();
        for i in 0..40_000i64 {
            let at = i * 7919 % 40_000;
            let (x, y) = ((at % 200) as f64, (at / 200) as f64);
            db.insert(
                "dots",
                Row::new(vec![Value::Int(i), Value::Float(x), Value::Float(y)]),
            )
            .unwrap();
        }
        let sp = IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        });
        db.create_index("dots", "sp", sp).unwrap();
        let tile = "SELECT * FROM dots WHERE bbox && rect(50, 50, 69, 69)";
        let scattered = db.query(tile, &[]).unwrap();
        assert_eq!(scattered.stats.rows_scanned, 400);
        assert!(scattered.stats.heap_pages > 300, "{:?}", scattered.stats);

        assert!(matches!(
            db.cluster("dots", "nope"),
            Err(StorageError::UnknownIndex(_))
        ));
        db.cluster("dots", "sp").unwrap();
        let clustered = db.query(tile, &[]).unwrap();
        assert_eq!(clustered.rows, scattered.rows, "same rows, same order");
        assert_eq!(clustered.stats.rows_scanned, 400);
        assert!(clustered.stats.heap_pages <= 30, "{:?}", clustered.stats);
        // a seq scan counts each page it reads once
        let all = db.query("SELECT * FROM dots WHERE x < 0", &[]).unwrap();
        assert_eq!(all.stats.rows_scanned, 40_000);
        let pages = (db.heap_bytes() / crate::page::PAGE_SIZE) as u64;
        assert_eq!(all.stats.heap_pages, pages);
    }

    #[test]
    fn create_drop_table() {
        let mut db = Database::new();
        db.create_table("t", Schema::empty().with("a", DataType::Int))
            .unwrap();
        assert!(db.create_table("t", Schema::empty()).is_err());
        assert!(db.has_table("t"));
        db.drop_table("t").unwrap();
        assert!(!db.has_table("t"));
        assert!(db.drop_table("t").is_err());
    }
}
