//! Plan executor: materializes SELECT results (including aggregation,
//! multi-key ordering, OFFSET/LIMIT) and renders EXPLAIN output.
//!
//! A non-aggregate result row is allocated once. The scan decodes it from
//! its heap page; when the select list is the scan's columns in scan
//! order (`SELECT *`, or every column named in order) the projection hands
//! the scan's rows on as the result instead of copying them, and
//! [`execute_select_reserving`] lets a caller that will append columns
//! of its own have each row decoded with exactly that much room.

use super::ast::{AggFunc, ColumnRef, OrderBy, Select, SelectItem, SqlExpr};
use super::bind::{Bindings, BoundExpr};
use super::plan::{plan_fast_path, plan_select, FastPath, MetaAgg, ScanPlan};
use crate::database::Database;
use crate::error::{Result, StorageError};
use crate::geom::Rect;
use crate::heap::RecordId;
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::stats::ExecStats;
use crate::value::{DataType, OrdValue, Value};
use std::collections::HashMap;

/// The result of a query: output schema, rows, and execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub stats: ExecStats,
}

impl QueryResult {
    /// Value at (row, column-name); convenience for tests.
    pub fn value(&self, row: usize, column: &str) -> Result<&Value> {
        let ci = self.schema.index_of(column)?;
        Ok(self.rows[row].get(ci))
    }
}

/// Where a scan last read the heap. Every examined tuple goes through
/// [`HeapCursor::read`], which keeps [`ExecStats::rows_scanned`] and
/// [`ExecStats::heap_pages`] in step: a row counts a page only when it
/// sits on a different one than the row examined before it.
#[derive(Default)]
struct HeapCursor {
    page: Option<u32>,
}

impl HeapCursor {
    fn read(&mut self, rid: RecordId, stats: &mut ExecStats) {
        stats.rows_scanned += 1;
        if self.page.replace(rid.page) != Some(rid.page) {
            stats.heap_pages += 1;
        }
    }
}

/// Binding layout of a scan's output: names + schemas in flat order.
struct ScanOutput<'a> {
    entries: Vec<(String, &'a Schema)>,
    rows: Vec<Row>,
}

impl<'a> ScanOutput<'a> {
    fn bindings(&self) -> Bindings<'a> {
        match self.entries.as_slice() {
            [(b, s)] => Bindings::single(b, s),
            [(b1, s1), (b2, s2)] => Bindings::pair(b1, s1, b2, s2),
            _ => unreachable!("scans produce 1 or 2 bindings"),
        }
    }

    fn flat_schema(&self) -> Schema {
        match self.entries.as_slice() {
            [(_, s)] => (*s).clone(),
            [(b1, s1), (b2, s2)] => s1.join(b1, s2, b2),
            _ => unreachable!(),
        }
    }
}

/// Infer the output schema of a SELECT without executing it. Used by the
/// Kyrix compiler to type-check layer transforms at compile time.
pub fn output_schema(db: &Database, stmt: &Select) -> Result<Schema> {
    let plan = plan_select(db, stmt)?;
    let entries = scan_entries(db, &plan)?;
    let out = ScanOutput {
        entries,
        rows: Vec::new(),
    };
    let (schema, _) = if stmt.is_aggregate() {
        aggregate(&out, stmt, &[])?
    } else {
        project(out, &stmt.items, &[], 0)?
    };
    Ok(schema)
}

/// The binding layout a plan's output will have, without running it.
fn scan_entries<'a>(db: &'a Database, plan: &ScanPlan) -> Result<Vec<(String, &'a Schema)>> {
    match plan {
        ScanPlan::SeqScan { table, binding, .. }
        | ScanPlan::IndexEq { table, binding, .. }
        | ScanPlan::IndexRange { table, binding, .. }
        | ScanPlan::SpatialScan { table, binding, .. } => {
            Ok(vec![(binding.clone(), &db.table(table)?.schema)])
        }
        ScanPlan::IndexJoin {
            outer,
            inner_table,
            inner_binding,
            outer_is_from,
            ..
        }
        | ScanPlan::HashJoin {
            outer,
            inner_table,
            inner_binding,
            outer_is_from,
            ..
        } => {
            let outer_entries = scan_entries(db, outer)?;
            let inner_schema = &db.table(inner_table)?.schema;
            let out = ScanOutput {
                entries: outer_entries,
                rows: Vec::new(),
            };
            Ok(join_entries(&out, inner_binding, inner_schema, *outer_is_from).0)
        }
    }
}

/// Execute a parsed SELECT.
pub fn execute_select(db: &Database, stmt: &Select, params: &[Value]) -> Result<QueryResult> {
    execute_select_reserving(db, stmt, params, 0)
}

/// [`execute_select`] for a caller that appends `tail` values of its own
/// to every returned row: each row of a non-aggregate, single-table
/// result comes back with exactly `schema.len() + tail` capacity, so the
/// appends never reallocate it. Content, order and [`ExecStats`] are
/// those of `execute_select`; aggregates and join outputs ignore `tail`.
pub fn execute_select_reserving(
    db: &Database,
    stmt: &Select,
    params: &[Value],
    tail: usize,
) -> Result<QueryResult> {
    if let Some(fast) = plan_fast_path(db, stmt)? {
        return execute_fast_path(db, stmt, &fast, params, tail);
    }
    let plan = plan_select(db, stmt)?;
    let mut stats = ExecStats::default();
    let cap = limit_pushdown_cap(stmt);
    let mut out = run_scan(db, &plan, params, cap, tail, &mut stats)?;

    let (schema, mut rows) = if stmt.is_aggregate() {
        let (schema, mut rows) = aggregate(&out, stmt, params)?;
        // ORDER BY on aggregate output resolves against output columns
        if !stmt.order_by.is_empty() {
            sort_by_output(&schema, &mut rows, &stmt.order_by)?;
        }
        (schema, rows)
    } else {
        // ORDER BY before projection when every key is a scan column;
        // otherwise fall back to output-name resolution after projection
        // (e.g. `SELECT x * 2 AS d FROM t ORDER BY d`).
        let mut sorted = stmt.order_by.is_empty();
        if !sorted && sort_rows(&mut out, &stmt.order_by).is_ok() {
            sorted = true;
        }
        let (schema, mut rows) = project(out, &stmt.items, params, tail)?;
        if !sorted {
            sort_by_output(&schema, &mut rows, &stmt.order_by)?;
        }
        (schema, rows)
    };

    apply_offset_limit(&mut rows, stmt.offset, stmt.limit);
    Ok(finish(db, schema, rows, stats))
}

/// Close a result: count its rows and wire bytes and fold the statistics
/// into the database's cumulative counters.
fn finish(db: &Database, schema: Schema, rows: Vec<Row>, mut stats: ExecStats) -> QueryResult {
    stats.rows_out = rows.len() as u64;
    stats.bytes_out = rows.iter().map(|r| r.wire_size() as u64).sum();
    db.counters.record(&stats);
    QueryResult {
        schema,
        rows,
        stats,
    }
}

fn apply_offset_limit(rows: &mut Vec<Row>, offset: Option<u64>, limit: Option<u64>) {
    if let Some(off) = offset {
        let off = (off as usize).min(rows.len());
        rows.drain(..off);
    }
    if let Some(n) = limit {
        rows.truncate(n as usize);
    }
}

/// How many rows the scan needs to produce when LIMIT can be pushed into
/// it (`offset + limit`), or `None` when something downstream — an
/// aggregate, a sort, a join — consumes the full set. The executor still
/// runs [`apply_offset_limit`] afterwards to drain the offset prefix.
pub(crate) fn limit_pushdown_cap(stmt: &Select) -> Option<usize> {
    if stmt.is_aggregate() || stmt.join.is_some() || !stmt.order_by.is_empty() {
        return None;
    }
    stmt.limit
        .map(|l| l.saturating_add(stmt.offset.unwrap_or(0)) as usize)
}

/// Execute a SELECT resolved to a [`FastPath`]. Output — schema, row
/// content, ordering, error behavior — is identical to the general path;
/// only the work done (and therefore [`ExecStats`]) differs.
fn execute_fast_path(
    db: &Database,
    stmt: &Select,
    fast: &FastPath,
    params: &[Value],
    tail: usize,
) -> Result<QueryResult> {
    let mut stats = ExecStats::default();
    let (schema, mut rows) = match fast {
        FastPath::MetaAggregate { table, items } => {
            let t = db.table(table)?;
            let mut cols = Vec::with_capacity(items.len());
            let mut values = Vec::with_capacity(items.len());
            for (item, meta) in stmt.items.iter().zip(items) {
                let name = item
                    .aggregate_output_name()
                    .expect("MetaAggregate items are all aggregates");
                match meta {
                    MetaAgg::CountStar => {
                        cols.push(Column::new(name, DataType::Int));
                        values.push(Value::Int(t.len() as i64));
                    }
                    MetaAgg::Min { column, .. } | MetaAgg::Max { column, .. } => {
                        let ci = t.schema.index_of(column)?;
                        let index_no = t
                            .btree_index_on(column)
                            .ok_or_else(|| StorageError::ExecError("index vanished".into()))?;
                        stats.index_probes += 1;
                        let v = match meta {
                            MetaAgg::Min { .. } => t.index_min(index_no),
                            _ => t.index_max(index_no),
                        };
                        cols.push(Column::new(name, t.schema.column(ci).dtype));
                        values.push(v);
                    }
                }
            }
            let schema = Schema::new(cols);
            let mut rows = vec![Row::new(values)];
            // one output row, but ORDER BY must still resolve (and error)
            // exactly like the aggregate path does
            if !stmt.order_by.is_empty() {
                sort_by_output(&schema, &mut rows, &stmt.order_by)?;
            }
            (schema, rows)
        }
        FastPath::TopN {
            table,
            binding,
            index_no,
            desc,
            filter,
            k,
            offset,
            ..
        } => {
            let t = db.table(table)?;
            let bindings = Bindings::single(binding, &t.schema);
            let bound = filter
                .as_ref()
                .map(|f| BoundExpr::bind(f, &bindings))
                .transpose()?;
            let need = (*offset as usize).saturating_add(*k as usize);
            let mut scan_rows = Vec::with_capacity(need.min(1024));
            let mut err = None;
            let mut heap = HeapCursor::default();
            stats.index_probes += 1;
            if need > 0 {
                t.index_ordered_walk(*index_no, *desc, |rid| {
                    let row = match t.get_reserving(rid, tail) {
                        Ok(Some(row)) => row,
                        Ok(None) => {
                            err = Some(StorageError::ExecError("dangling index entry".into()));
                            return false;
                        }
                        Err(e) => {
                            err = Some(e);
                            return false;
                        }
                    };
                    heap.read(rid, &mut stats);
                    match keep(&bound, &row, params) {
                        Ok(true) => scan_rows.push(row),
                        Ok(false) => {}
                        Err(e) => {
                            err = Some(e);
                            return false;
                        }
                    }
                    scan_rows.len() < need
                });
            }
            if let Some(e) = err {
                return Err(e);
            }
            let out = ScanOutput {
                entries: vec![(binding.clone(), &t.schema)],
                rows: scan_rows,
            };
            // rows already arrive in ORDER BY order; project only
            project(out, &stmt.items, params, tail)?
        }
    };
    apply_offset_limit(&mut rows, stmt.offset, stmt.limit);
    Ok(finish(db, schema, rows, stats))
}

/// Multi-key comparison over resolved (index, desc) pairs.
fn cmp_keys(a: &Row, b: &Row, keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(idx, desc) in keys {
        let ord = a.get(idx).total_cmp(b.get(idx));
        if ord != std::cmp::Ordering::Equal {
            return if desc { ord.reverse() } else { ord };
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort scan output in place; errors if a key is not a scan column.
fn sort_rows(out: &mut ScanOutput<'_>, order_by: &[OrderBy]) -> Result<()> {
    let bindings = out.bindings();
    let keys: Vec<(usize, bool)> = order_by
        .iter()
        .map(|ob| bindings.resolve(&ob.column).map(|(i, _)| (i, ob.desc)))
        .collect::<Result<_>>()?;
    out.rows.sort_by(|a, b| cmp_keys(a, b, &keys));
    Ok(())
}

/// Sort projected rows by output column *names* (aliases included).
/// Qualified references fall back to the bare column name, since output
/// columns have no table qualifier.
fn sort_by_output(schema: &Schema, rows: &mut [Row], order_by: &[OrderBy]) -> Result<()> {
    let keys: Vec<(usize, bool)> = order_by
        .iter()
        .map(|ob| {
            schema
                .index_of(&ob.column.column)
                .map(|i| (i, ob.desc))
                .map_err(|_| {
                    StorageError::PlanError(format!(
                        "ORDER BY column `{}` is neither a scan column nor an output column",
                        ob.column
                    ))
                })
        })
        .collect::<Result<_>>()?;
    rows.sort_by(|a, b| cmp_keys(a, b, &keys));
    Ok(())
}

// ------------------------------------------------------------------ scans

fn run_scan<'a>(
    db: &'a Database,
    plan: &ScanPlan,
    params: &[Value],
    cap: Option<usize>,
    tail: usize,
    stats: &mut ExecStats,
) -> Result<ScanOutput<'a>> {
    match plan {
        ScanPlan::SeqScan {
            table,
            binding,
            filter,
        } => {
            let t = db.table(table)?;
            let bound = filter
                .as_ref()
                .map(|f| BoundExpr::bind(f, &Bindings::single(binding, &t.schema)))
                .transpose()?;
            let mut rows = Vec::new();
            let mut heap = HeapCursor::default();
            let mut err = None;
            if cap != Some(0) {
                t.scan_while(tail, |rid, row| {
                    heap.read(rid, stats);
                    match &bound {
                        Some(f) => match f.eval(&row.values, params).and_then(|v| v.as_bool()) {
                            Ok(true) => rows.push(row),
                            Ok(false) => {}
                            Err(e) => {
                                err = Some(e);
                                return false;
                            }
                        },
                        None => rows.push(row),
                    }
                    cap.is_none_or(|c| rows.len() < c)
                })?;
            }
            if let Some(e) = err {
                return Err(e);
            }
            Ok(ScanOutput {
                entries: vec![(binding.clone(), &t.schema)],
                rows,
            })
        }
        ScanPlan::IndexEq {
            table,
            binding,
            index_no,
            key,
            residual,
        } => {
            let t = db.table(table)?;
            let bindings = Bindings::single(binding, &t.schema);
            let key_val = BoundExpr::bind(key, &bindings)?.eval_const(params)?;
            let mut rids = Vec::new();
            t.probe_eq(*index_no, &key_val, |rid| rids.push(rid));
            stats.index_probes += 1;
            let rows = fetch_filter(t, &rids, residual, &bindings, params, cap, tail, stats)?;
            Ok(ScanOutput {
                entries: vec![(binding.clone(), &t.schema)],
                rows,
            })
        }
        ScanPlan::IndexRange {
            table,
            binding,
            index_no,
            lo,
            hi,
            residual,
        } => {
            let t = db.table(table)?;
            let bindings = Bindings::single(binding, &t.schema);
            let lo_v = BoundExpr::bind(lo, &bindings)?.eval_const(params)?;
            let hi_v = BoundExpr::bind(hi, &bindings)?.eval_const(params)?;
            let mut rids = Vec::new();
            t.probe_range(*index_no, &lo_v, &hi_v, |rid| rids.push(rid));
            stats.index_probes += 1;
            let rows = fetch_filter(t, &rids, residual, &bindings, params, cap, tail, stats)?;
            Ok(ScanOutput {
                entries: vec![(binding.clone(), &t.schema)],
                rows,
            })
        }
        ScanPlan::SpatialScan {
            table,
            binding,
            index_no,
            rect,
            residual,
        } => {
            let t = db.table(table)?;
            let bindings = Bindings::single(binding, &t.schema);
            let mut coords = [0f64; 4];
            for (i, e) in rect.iter().enumerate() {
                coords[i] = BoundExpr::bind(e, &bindings)?
                    .eval_const(params)?
                    .as_f64()?;
            }
            let query = Rect::new(coords[0], coords[1], coords[2], coords[3]);
            let mut rids = Vec::new();
            let (_, visited) = t.probe_spatial(*index_no, &query, |rid| rids.push(rid));
            stats.index_probes += 1;
            stats.nodes_visited += visited as u64;
            let rows = fetch_filter(t, &rids, residual, &bindings, params, cap, tail, stats)?;
            Ok(ScanOutput {
                entries: vec![(binding.clone(), &t.schema)],
                rows,
            })
        }
        ScanPlan::IndexJoin {
            outer,
            inner_table,
            inner_binding,
            inner_index_no,
            outer_key,
            outer_is_from,
            residual,
        } => {
            let outer_out = run_scan(db, outer, params, None, 0, stats)?;
            let inner_t = db.table(inner_table)?;
            let outer_bindings = outer_out.bindings();
            let (key_idx, _) = outer_bindings.resolve(outer_key)?;

            // output entries in from ++ joined order
            let (entries, outer_first) =
                join_entries(&outer_out, inner_binding, &inner_t.schema, *outer_is_from);
            let pair = match entries.as_slice() {
                [(b1, s1), (b2, s2)] => Bindings::pair(b1, s1, b2, s2),
                _ => unreachable!(),
            };
            let bound_residual = residual
                .as_ref()
                .map(|r| BoundExpr::bind(r, &pair))
                .transpose()?;

            let mut rows = Vec::new();
            let mut heap = HeapCursor::default();
            for orow in &outer_out.rows {
                let key = orow.get(key_idx);
                if key.is_null() {
                    continue;
                }
                stats.index_probes += 1;
                let mut rids = Vec::new();
                inner_t.probe_eq(*inner_index_no, key, |rid| rids.push(rid));
                for rid in rids {
                    let irow = inner_t
                        .get(rid)?
                        .ok_or_else(|| StorageError::ExecError("dangling index entry".into()))?;
                    heap.read(rid, stats);
                    let flat = if outer_first {
                        orow.concat(&irow)
                    } else {
                        irow.concat(orow)
                    };
                    if keep(&bound_residual, &flat, params)? {
                        rows.push(flat);
                    }
                }
            }
            Ok(ScanOutput { entries, rows })
        }
        ScanPlan::HashJoin {
            outer,
            inner_table,
            inner_binding,
            inner_key,
            outer_key,
            outer_is_from,
            residual,
        } => {
            let outer_out = run_scan(db, outer, params, None, 0, stats)?;
            let inner_t = db.table(inner_table)?;
            let outer_bindings = outer_out.bindings();
            let (key_idx, _) = outer_bindings.resolve(outer_key)?;
            let inner_key_idx = inner_t.schema.index_of(inner_key)?;

            let (entries, outer_first) =
                join_entries(&outer_out, inner_binding, &inner_t.schema, *outer_is_from);
            let pair = match entries.as_slice() {
                [(b1, s1), (b2, s2)] => Bindings::pair(b1, s1, b2, s2),
                _ => unreachable!(),
            };
            let bound_residual = residual
                .as_ref()
                .map(|r| BoundExpr::bind(r, &pair))
                .transpose()?;

            // build
            let mut table: HashMap<OrdValue, Vec<Row>> = HashMap::new();
            let mut heap = HeapCursor::default();
            inner_t.scan(|rid, row| {
                heap.read(rid, stats);
                let k = row.get(inner_key_idx).clone();
                if !k.is_null() {
                    table.entry(OrdValue(k)).or_default().push(row);
                }
            })?;

            // probe
            let mut rows = Vec::new();
            for orow in &outer_out.rows {
                let key = orow.get(key_idx);
                if key.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&OrdValue(key.clone())) {
                    for irow in matches {
                        let flat = if outer_first {
                            orow.concat(irow)
                        } else {
                            irow.concat(orow)
                        };
                        if keep(&bound_residual, &flat, params)? {
                            rows.push(flat);
                        }
                    }
                }
            }
            Ok(ScanOutput { entries, rows })
        }
    }
}

/// Output binding order is always `from ++ joined`; returns whether the
/// outer row comes first in that order.
fn join_entries<'a>(
    outer: &ScanOutput<'a>,
    inner_binding: &str,
    inner_schema: &'a Schema,
    outer_is_from: bool,
) -> (Vec<(String, &'a Schema)>, bool) {
    let (ob, os) = (&outer.entries[0].0, outer.entries[0].1);
    if outer_is_from {
        (
            vec![(ob.clone(), os), (inner_binding.to_string(), inner_schema)],
            true,
        )
    } else {
        (
            vec![(inner_binding.to_string(), inner_schema), (ob.clone(), os)],
            false,
        )
    }
}

fn keep(filter: &Option<BoundExpr>, row: &Row, params: &[Value]) -> Result<bool> {
    match filter {
        Some(f) => f.eval(&row.values, params)?.as_bool(),
        None => Ok(true),
    }
}

/// Fetch rows by record id and apply a residual filter; stops as soon as
/// `cap` kept rows have been produced (LIMIT pushdown). Rows are decoded
/// with room for `tail` more values.
#[allow(clippy::too_many_arguments)]
fn fetch_filter(
    t: &crate::catalog::Table,
    rids: &[RecordId],
    residual: &Option<SqlExpr>,
    bindings: &Bindings<'_>,
    params: &[Value],
    cap: Option<usize>,
    tail: usize,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    let bound = residual
        .as_ref()
        .map(|r| BoundExpr::bind(r, bindings))
        .transpose()?;
    let mut rows = Vec::with_capacity(rids.len());
    let mut heap = HeapCursor::default();
    for &rid in rids {
        if cap.is_some_and(|c| rows.len() >= c) {
            break;
        }
        let row = t
            .get_reserving(rid, tail)?
            .ok_or_else(|| StorageError::ExecError("dangling index entry".into()))?;
        heap.read(rid, stats);
        if keep(&bound, &row, params)? {
            rows.push(row);
        }
    }
    Ok(rows)
}

// ------------------------------------------------------------- projection

/// Evaluate the select list over the scan's rows. When the list is the
/// scan's columns in scan order the scan's rows *are* the result and move
/// into it untouched (the scan decoded them with room for `tail`); any
/// other list builds each output row once, at `width + tail` capacity.
fn project(
    out: ScanOutput<'_>,
    items: &[SelectItem],
    params: &[Value],
    tail: usize,
) -> Result<(Schema, Vec<Row>)> {
    let bindings = out.bindings();
    let flat_schema = out.flat_schema();
    let types: Vec<DataType> = flat_schema.columns().iter().map(|c| c.dtype).collect();

    // expand items into output columns and where each comes from: a scan
    // column index or a bound expression
    enum Source {
        Col(usize),
        Expr(BoundExpr),
    }
    let mut columns: Vec<Column> = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                columns.extend_from_slice(flat_schema.columns());
                sources.extend((0..flat_schema.len()).map(Source::Col));
            }
            SelectItem::QualifiedStar(b) => {
                let Some(list) = bindings.columns_of(b) else {
                    return Err(StorageError::UnknownTable(b.clone()));
                };
                for (idx, name, dtype) in list {
                    columns.push(Column::new(name, dtype));
                    sources.push(Source::Col(idx));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = BoundExpr::bind(expr, &bindings)?;
                let name = alias.clone().unwrap_or_else(|| match expr {
                    SqlExpr::Column(ColumnRef { column, .. }) => column.clone(),
                    _ => format!("expr{i}"),
                });
                columns.push(Column::new(name, bound.infer_type(&types)));
                sources.push(match bound {
                    BoundExpr::Col(idx) => Source::Col(idx),
                    bound => Source::Expr(bound),
                });
            }
            SelectItem::Aggregate { .. } => {
                return Err(StorageError::PlanError(
                    "aggregate select items are handled by the aggregate path".to_string(),
                ))
            }
        }
    }

    let schema = Schema::new(columns);
    let identity = sources.len() == flat_schema.len()
        && sources
            .iter()
            .enumerate()
            .all(|(i, src)| matches!(src, Source::Col(c) if *c == i));
    if identity {
        return Ok((schema, out.rows));
    }
    let mut rows = Vec::with_capacity(out.rows.len());
    for row in &out.rows {
        let mut values = Vec::with_capacity(sources.len() + tail);
        for src in &sources {
            values.push(match src {
                Source::Col(i) => row.get(*i).clone(),
                Source::Expr(e) => e.eval(&row.values, params)?,
            });
        }
        rows.push(Row::new(values));
    }
    Ok((schema, rows))
}

// ------------------------------------------------------------ aggregation

/// Running state for one aggregate output column.
#[derive(Debug, Clone)]
enum AggState {
    /// COUNT(*) counts rows; COUNT(expr) counts non-NULL evaluations.
    Count {
        n: i64,
        counts_rows: bool,
    },
    /// SUM stays Int while every input is Int (SQL semantics); NULLs are
    /// skipped; an all-NULL (or empty) group sums to NULL.
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        any: bool,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    Min {
        cur: Option<Value>,
    },
    Max {
        cur: Option<Value>,
    },
}

impl AggState {
    fn new(func: AggFunc, counts_rows: bool) -> AggState {
        match func {
            AggFunc::Count => AggState::Count { n: 0, counts_rows },
            AggFunc::Sum => AggState::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                any: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min { cur: None },
            AggFunc::Max => AggState::Max { cur: None },
        }
    }

    /// Fold one input. `v` is `None` for COUNT(*) (no argument expression).
    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count { n, counts_rows } => {
                if *counts_rows || v.is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            AggState::Sum {
                int,
                float,
                saw_float,
                any,
            } => match v {
                Some(Value::Int(i)) => {
                    *int = int.wrapping_add(*i);
                    *any = true;
                }
                Some(Value::Float(f)) => {
                    *float += f;
                    *saw_float = true;
                    *any = true;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(StorageError::ExecError(format!(
                        "SUM over non-numeric value {other}"
                    )))
                }
            },
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *sum += v.as_f64()?;
                        *n += 1;
                    }
                }
            }
            AggState::Min { cur } => {
                if let Some(v) = v {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max { cur } => {
                if let Some(v) = v {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count { n, .. } => Value::Int(*n),
            AggState::Sum {
                int,
                float,
                saw_float,
                any,
            } => {
                if !*any {
                    Value::Null
                } else if *saw_float {
                    Value::Float(*float + *int as f64)
                } else {
                    Value::Int(*int)
                }
            }
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
            AggState::Min { cur } | AggState::Max { cur } => cur.clone().unwrap_or(Value::Null),
        }
    }
}

/// How one output column of an aggregate query is produced.
enum AggColumn {
    /// An expression over group-by columns, evaluated on the group's
    /// representative row.
    GroupExpr(BoundExpr),
    /// The `slot`-th aggregate state.
    Agg { slot: usize },
}

/// Execute the aggregate path: grouping, folding, HAVING.
/// Groups are emitted in ascending group-key order so results are
/// deterministic even before any ORDER BY.
fn aggregate(out: &ScanOutput<'_>, stmt: &Select, params: &[Value]) -> Result<(Schema, Vec<Row>)> {
    let bindings = out.bindings();
    let flat_schema = out.flat_schema();
    let types: Vec<DataType> = flat_schema.columns().iter().map(|c| c.dtype).collect();

    // Resolve group-by keys to flat scan offsets.
    let group_idx: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|c| bindings.resolve(c).map(|(i, _)| i))
        .collect::<Result<_>>()?;

    // Build the output column plan.
    let mut agg_specs: Vec<(AggFunc, Option<BoundExpr>)> = Vec::new();
    let mut cols: Vec<(String, DataType, AggColumn)> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Star | SelectItem::QualifiedStar(_) => {
                return Err(StorageError::PlanError(
                    "SELECT * cannot be combined with GROUP BY / aggregates".to_string(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                // every referenced column must be a group-by key
                let mut refs = Vec::new();
                expr.columns(&mut refs);
                for r in &refs {
                    let (idx, _) = bindings.resolve(r)?;
                    if !group_idx.contains(&idx) {
                        return Err(StorageError::PlanError(format!(
                            "column `{r}` must appear in GROUP BY or inside an aggregate"
                        )));
                    }
                }
                let bound = BoundExpr::bind(expr, &bindings)?;
                let name = alias.clone().unwrap_or_else(|| match expr {
                    SqlExpr::Column(ColumnRef { column, .. }) => column.clone(),
                    _ => format!("expr{i}"),
                });
                let dtype = bound.infer_type(&types);
                cols.push((name, dtype, AggColumn::GroupExpr(bound)));
            }
            SelectItem::Aggregate { func, arg, .. } => {
                let bound_arg = arg
                    .as_ref()
                    .map(|e| BoundExpr::bind(e, &bindings))
                    .transpose()?;
                let arg_type = bound_arg
                    .as_ref()
                    .map(|b| b.infer_type(&types))
                    .unwrap_or(DataType::Int);
                let dtype = match func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    AggFunc::Sum => arg_type,
                    AggFunc::Min | AggFunc::Max => arg_type,
                };
                let name = item
                    .aggregate_output_name()
                    .expect("Aggregate items always name themselves");
                let slot = agg_specs.len();
                agg_specs.push((*func, bound_arg));
                cols.push((name, dtype, AggColumn::Agg { slot }));
            }
        }
    }

    // Group and fold.
    type Group = (Row, Vec<AggState>);
    let fresh_states = |specs: &[(AggFunc, Option<BoundExpr>)]| -> Vec<AggState> {
        specs
            .iter()
            .map(|(f, arg)| AggState::new(*f, arg.is_none()))
            .collect()
    };
    let mut groups: HashMap<Vec<OrdValue>, Group> = HashMap::new();
    for row in &out.rows {
        let key: Vec<OrdValue> = group_idx
            .iter()
            .map(|&i| OrdValue(row.get(i).clone()))
            .collect();
        let (_, states) = groups
            .entry(key)
            .or_insert_with(|| (row.clone(), fresh_states(&agg_specs)));
        for (state, (_, arg)) in states.iter_mut().zip(&agg_specs) {
            match arg {
                Some(expr) => state.update(Some(&expr.eval(&row.values, params)?))?,
                None => state.update(None)?,
            }
        }
    }
    // A query with no GROUP BY always yields exactly one group.
    if stmt.group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), (Row::new(Vec::new()), fresh_states(&agg_specs)));
    }

    let schema = Schema::new(
        cols.iter()
            .map(|(n, t, _)| Column::new(n.clone(), *t))
            .collect(),
    );

    // Deterministic emission order: ascending group key.
    let mut keyed: Vec<(Vec<OrdValue>, Group)> = groups.into_iter().collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));

    let mut rows = Vec::with_capacity(keyed.len());
    for (_, (rep, states)) in &keyed {
        let mut values = Vec::with_capacity(cols.len());
        for (_, _, src) in &cols {
            values.push(match src {
                AggColumn::GroupExpr(e) => e.eval(&rep.values, params)?,
                AggColumn::Agg { slot } => states[*slot].finish(),
            });
        }
        rows.push(Row::new(values));
    }

    // HAVING filters output rows; it resolves against output column names.
    if let Some(having) = &stmt.having {
        let out_bindings = Bindings::single(stmt.from.binding(), &schema);
        let bound = BoundExpr::bind(having, &out_bindings).map_err(|e| {
            StorageError::PlanError(format!(
                "HAVING must reference output columns (group keys or \
                 aggregate names/aliases): {e}"
            ))
        })?;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if bound.eval(&row.values, params)?.as_bool()? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    Ok((schema, rows))
}

// ---------------------------------------------------------------- explain

/// Render the LIMIT/OFFSET stage, or `None` when the query has neither.
/// `pushdown` marks a limit the executor pushes into the scan.
fn describe_limit(stmt: &Select, pushdown: bool) -> Option<String> {
    let mut s = match (stmt.limit, stmt.offset) {
        (None, None) => return None,
        (Some(l), None) => format!("Limit({l}"),
        (Some(l), Some(o)) => format!("Limit({l}, offset={o}"),
        (None, Some(o)) => format!("Offset({o}"),
    };
    if pushdown {
        s.push_str(", pushdown");
    }
    s.push(')');
    Some(s)
}

/// Render the physical plan of a SELECT as text rows (`EXPLAIN SELECT ...`).
///
/// Fast paths announce themselves by name (`CountStar(table_meta)`,
/// `Min(idx ...)`, `TopN(idx, k=..)`) so tests and operators can confirm a
/// shortcut is actually taken; everything else renders the scan pipeline.
pub fn explain_select(db: &Database, stmt: &Select) -> Result<QueryResult> {
    let mut lines = Vec::new();
    if let Some(fast) = plan_fast_path(db, stmt)? {
        lines.push(fast.describe());
        if let FastPath::MetaAggregate { .. } = &fast {
            if !stmt.order_by.is_empty() {
                let keys: Vec<String> = stmt
                    .order_by
                    .iter()
                    .map(|ob| format!("{}{}", ob.column, if ob.desc { " DESC" } else { "" }))
                    .collect();
                lines.push(format!("Sort({})", keys.join(", ")));
            }
            if let Some(l) = describe_limit(stmt, false) {
                lines.push(l);
            }
        }
        // TopN folds scan + sort + limit into its single line.
    } else {
        let plan = plan_select(db, stmt)?;
        lines.push(plan.describe());
        if stmt.is_aggregate() {
            let n_aggs = stmt
                .items
                .iter()
                .filter(|i| matches!(i, SelectItem::Aggregate { .. }))
                .count();
            lines.push(format!(
                "Aggregate(keys={}, aggs={n_aggs}{})",
                stmt.group_by.len(),
                if stmt.having.is_some() {
                    ", having"
                } else {
                    ""
                }
            ));
        }
        if !stmt.order_by.is_empty() {
            let keys: Vec<String> = stmt
                .order_by
                .iter()
                .map(|ob| format!("{}{}", ob.column, if ob.desc { " DESC" } else { "" }))
                .collect();
            lines.push(format!("Sort({})", keys.join(", ")));
        }
        if let Some(l) = describe_limit(stmt, limit_pushdown_cap(stmt).is_some()) {
            lines.push(l);
        }
    }
    let schema = Schema::empty().with("plan", DataType::Text);
    let rows = lines
        .into_iter()
        .map(|l| Row::new(vec![Value::Text(l)]))
        .collect();
    Ok(QueryResult {
        schema,
        rows,
        stats: ExecStats::default(),
    })
}
