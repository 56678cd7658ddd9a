//! Query planner: chooses access paths for SELECT statements.
//!
//! Planning rules (in priority order, mirroring what PostgreSQL would pick
//! for the paper's two database designs):
//! 1. `bbox && rect(...)` with a spatial index → R-tree scan.
//! 2. `col = const` with a B-tree index → index equality probe.
//! 3. `col BETWEEN a AND b` with a B-tree index → index range scan.
//! 4. otherwise → filtered sequential scan.
//!
//! Joins become index-nested-loop joins when the inner side has an index on
//! the join column (either side may be chosen as inner), and hash joins
//! otherwise.

use super::ast::{AggFunc, BinOp, ColumnRef, Select, SelectItem, SqlExpr};
use crate::database::Database;
use crate::error::{Result, StorageError};

/// A physical access path.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanPlan {
    SeqScan {
        table: String,
        binding: String,
        filter: Option<SqlExpr>,
    },
    IndexEq {
        table: String,
        binding: String,
        index_no: usize,
        key: SqlExpr,
        residual: Option<SqlExpr>,
    },
    IndexRange {
        table: String,
        binding: String,
        index_no: usize,
        lo: SqlExpr,
        hi: SqlExpr,
        residual: Option<SqlExpr>,
    },
    SpatialScan {
        table: String,
        binding: String,
        index_no: usize,
        rect: [SqlExpr; 4],
        residual: Option<SqlExpr>,
    },
    /// Index-nested-loop join: for each outer row, probe the inner index.
    IndexJoin {
        outer: Box<ScanPlan>,
        inner_table: String,
        inner_binding: String,
        inner_index_no: usize,
        /// Join key column in the *outer* plan's output.
        outer_key: ColumnRef,
        /// Whether the outer side is the FROM table (false = sides swapped);
        /// output rows are always ordered `from ++ joined`.
        outer_is_from: bool,
        residual: Option<SqlExpr>,
    },
    /// Hash join fallback: build a hash table over the inner table.
    HashJoin {
        outer: Box<ScanPlan>,
        inner_table: String,
        inner_binding: String,
        inner_key: String,
        outer_key: ColumnRef,
        outer_is_from: bool,
        residual: Option<SqlExpr>,
    },
}

impl ScanPlan {
    /// One-line description, e.g. for EXPLAIN-style tests.
    pub fn describe(&self) -> String {
        match self {
            ScanPlan::SeqScan { table, filter, .. } => format!(
                "SeqScan({table}{})",
                if filter.is_some() { ", filtered" } else { "" }
            ),
            ScanPlan::IndexEq { table, .. } => format!("IndexEq({table})"),
            ScanPlan::IndexRange { table, .. } => format!("IndexRange({table})"),
            ScanPlan::SpatialScan { table, .. } => format!("SpatialScan({table})"),
            ScanPlan::IndexJoin {
                outer, inner_table, ..
            } => format!("IndexJoin({} -> {inner_table})", outer.describe()),
            ScanPlan::HashJoin {
                outer, inner_table, ..
            } => format!("HashJoin({} -> {inner_table})", outer.describe()),
        }
    }
}

/// A statement-level shortcut that bypasses part of the scan → sort →
/// project pipeline. Planned *before* the [`ScanPlan`]; `None` from
/// [`plan_fast_path`] means the general path runs. Every fast path is
/// behaviorally identical to the general path (pinned by the differential
/// harness in `tests/sql_differential.rs`) — only `ExecStats` and wall
/// clock change.
#[derive(Debug, Clone, PartialEq)]
pub enum FastPath {
    /// Every output column is answered from table/index metadata —
    /// `COUNT(*)` from the live heap length, `MIN`/`MAX` from a B+tree
    /// edge descent. No heap rows are touched (`rows_scanned` stays 0).
    /// Eligible only when nothing can block the metadata answer: no
    /// WHERE, no join, no GROUP BY, no HAVING.
    MetaAggregate {
        table: String,
        /// One entry per SELECT item, in output order.
        items: Vec<MetaAgg>,
    },
    /// `ORDER BY <indexed col> [DESC] LIMIT k`: walk the B+tree in key
    /// order (either direction), fetching and filtering rows until
    /// `offset + k` survive, instead of materializing and sorting the
    /// whole table. Chosen only when the scan would otherwise be a
    /// sequential pass — an indexed WHERE keeps its own access path.
    TopN {
        table: String,
        binding: String,
        index_no: usize,
        /// Index name, surfaced by EXPLAIN.
        index_name: String,
        desc: bool,
        /// Residual WHERE conjuncts, applied during the ordered walk.
        filter: Option<SqlExpr>,
        /// The statement's LIMIT.
        k: u64,
        /// The statement's OFFSET (0 when absent); the walk keeps
        /// `offset + k` rows and the executor drains the prefix.
        offset: u64,
    },
}

/// One metadata-answered aggregate output column.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaAgg {
    /// `COUNT(*)` = live heap length.
    CountStar,
    /// `MIN(col)` from the left edge of a B+tree index (NULLs skipped).
    Min { column: String, index_name: String },
    /// `MAX(col)` from the right edge of a B+tree index.
    Max { column: String, index_name: String },
}

impl FastPath {
    /// One-line description for EXPLAIN, naming the chosen access path,
    /// e.g. `CountStar(table_meta)` or `TopN(idx_x, k=8)`.
    pub fn describe(&self) -> String {
        match self {
            FastPath::MetaAggregate { items, .. } => {
                let parts: Vec<String> = items
                    .iter()
                    .map(|m| match m {
                        MetaAgg::CountStar => "CountStar(table_meta)".to_string(),
                        MetaAgg::Min { index_name, .. } => format!("Min(idx {index_name})"),
                        MetaAgg::Max { index_name, .. } => format!("Max(idx {index_name})"),
                    })
                    .collect();
                match parts.as_slice() {
                    [one] => one.clone(),
                    many => format!("MetaAggregate({})", many.join(", ")),
                }
            }
            FastPath::TopN {
                index_name,
                desc,
                filter,
                k,
                offset,
                ..
            } => {
                let mut s = format!("TopN({index_name}, k={k}");
                if *offset > 0 {
                    s.push_str(&format!(", offset={offset}"));
                }
                if *desc {
                    s.push_str(", desc");
                }
                if filter.is_some() {
                    s.push_str(", filtered");
                }
                s.push(')');
                s
            }
        }
    }
}

/// Try to resolve a SELECT to a [`FastPath`]. Conservative by design:
/// anything outside the exactly-eligible shapes returns `Ok(None)` and the
/// general pipeline runs (including statements that will fail binding —
/// their errors must surface from the same code path as before).
pub fn plan_fast_path(db: &Database, stmt: &Select) -> Result<Option<FastPath>> {
    if stmt.join.is_some() {
        return Ok(None);
    }
    let table = db.table(&stmt.from.table)?;
    let binding = stmt.from.binding();
    // a qualified column must refer to the single FROM binding
    let owned = |c: &ColumnRef| c.table.as_deref().is_none_or(|t| t == binding);

    // --- metadata-answered aggregates -----------------------------------
    if stmt.is_aggregate()
        && stmt.where_clause.is_none()
        && stmt.group_by.is_empty()
        && stmt.having.is_none()
    {
        let mut items = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let SelectItem::Aggregate { func, arg, .. } = item else {
                return Ok(None); // plain exprs require the grouped path
            };
            match (func, arg) {
                (AggFunc::Count, None) => items.push(MetaAgg::CountStar),
                (AggFunc::Min | AggFunc::Max, Some(SqlExpr::Column(c)))
                    if owned(c) && table.schema.has_column(&c.column) =>
                {
                    let Some(index_no) = table.btree_index_on(&c.column) else {
                        return Ok(None);
                    };
                    let index_name = table.index_name(index_no).to_string();
                    items.push(match func {
                        AggFunc::Min => MetaAgg::Min {
                            column: c.column.clone(),
                            index_name,
                        },
                        _ => MetaAgg::Max {
                            column: c.column.clone(),
                            index_name,
                        },
                    });
                }
                _ => return Ok(None),
            }
        }
        return Ok(Some(FastPath::MetaAggregate {
            table: stmt.from.table.clone(),
            items,
        }));
    }

    // --- index-backed top-N ---------------------------------------------
    if let (false, Some(k), [ob]) = (stmt.is_aggregate(), stmt.limit, stmt.order_by.as_slice()) {
        if owned(&ob.column) && table.schema.has_column(&ob.column.column) {
            if let Some(index_no) = table.btree_index_on(&ob.column.column) {
                // only take over from a full sequential pass; an indexed
                // WHERE already bounds the scan better than a blind walk
                let plan = plan_select(db, stmt)?;
                if let ScanPlan::SeqScan { filter, .. } = plan {
                    return Ok(Some(FastPath::TopN {
                        table: stmt.from.table.clone(),
                        binding: binding.to_string(),
                        index_no,
                        index_name: table.index_name(index_no).to_string(),
                        desc: ob.desc,
                        filter,
                        k,
                        offset: stmt.offset.unwrap_or(0),
                    }));
                }
            }
        }
    }

    Ok(None)
}

/// Which single binding (if any) an expression's columns all belong to.
/// Returns Err on ambiguity, Ok(None) for constant expressions.
fn owner_binding(
    expr: &SqlExpr,
    bindings: &[(&str, &crate::schema::Schema)],
) -> Result<Option<String>> {
    let mut cols = Vec::new();
    expr.columns(&mut cols);
    let mut owner: Option<String> = None;
    for c in cols {
        let this = match &c.table {
            Some(t) => {
                if !bindings.iter().any(|(b, _)| b == t) {
                    return Err(StorageError::UnknownTable(t.clone()));
                }
                t.clone()
            }
            None => {
                let matches: Vec<&str> = bindings
                    .iter()
                    .filter(|(_, s)| s.has_column(&c.column))
                    .map(|(b, _)| *b)
                    .collect();
                match matches.len() {
                    0 => return Err(StorageError::UnknownColumn(c.column.clone())),
                    1 => matches[0].to_string(),
                    _ => {
                        return Err(StorageError::PlanError(format!(
                            "ambiguous column `{}`",
                            c.column
                        )))
                    }
                }
            }
        };
        match &owner {
            None => owner = Some(this),
            Some(o) if *o == this => {}
            Some(_) => {
                // references both sides
                return Ok(Some(String::new()));
            }
        }
    }
    Ok(owner)
}

/// Plan a single-table scan given the conjuncts that apply to it.
fn plan_single(
    db: &Database,
    table_name: &str,
    binding: &str,
    conjuncts: Vec<SqlExpr>,
) -> Result<ScanPlan> {
    let table = db.table(table_name)?;
    let mut residual: Vec<SqlExpr> = Vec::new();
    let mut chosen: Option<ScanPlan> = None;

    for conj in conjuncts {
        if chosen.is_some() {
            residual.push(conj);
            continue;
        }
        match &conj {
            // rule 1: spatial predicate
            SqlExpr::SpatialIntersect { rect } => {
                if let Some(index_no) = table.spatial_index() {
                    if rect.iter().all(|e| e.is_const()) {
                        chosen = Some(ScanPlan::SpatialScan {
                            table: table_name.to_string(),
                            binding: binding.to_string(),
                            index_no,
                            rect: [
                                (*rect[0]).clone(),
                                (*rect[1]).clone(),
                                (*rect[2]).clone(),
                                (*rect[3]).clone(),
                            ],
                            residual: None,
                        });
                        continue;
                    }
                }
                return Err(StorageError::PlanError(format!(
                    "bbox && rect(...) on `{table_name}` requires a spatial index \
                     and a constant rectangle"
                )));
            }
            // rule 2: indexed equality
            SqlExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => {
                let col_key = match (&**left, &**right) {
                    (SqlExpr::Column(c), k) if k.is_const() => Some((c, k)),
                    (k, SqlExpr::Column(c)) if k.is_const() => Some((c, k)),
                    _ => None,
                };
                if let Some((c, key)) = col_key {
                    if table.schema.has_column(&c.column) {
                        if let Some(index_no) = table.btree_index_on(&c.column) {
                            chosen = Some(ScanPlan::IndexEq {
                                table: table_name.to_string(),
                                binding: binding.to_string(),
                                index_no,
                                key: key.clone(),
                                residual: None,
                            });
                            continue;
                        }
                    }
                }
                residual.push(conj);
            }
            // rule 3: indexed range
            SqlExpr::Between { expr, lo, hi } => {
                if let SqlExpr::Column(c) = &**expr {
                    if lo.is_const() && hi.is_const() && table.schema.has_column(&c.column) {
                        if let Some(index_no) = table.btree_index_on(&c.column) {
                            chosen = Some(ScanPlan::IndexRange {
                                table: table_name.to_string(),
                                binding: binding.to_string(),
                                index_no,
                                lo: (**lo).clone(),
                                hi: (**hi).clone(),
                                residual: None,
                            });
                            continue;
                        }
                    }
                }
                residual.push(conj);
            }
            _ => residual.push(conj),
        }
    }

    let residual = SqlExpr::conjoin(residual);
    Ok(match chosen {
        Some(mut plan) => {
            match &mut plan {
                ScanPlan::IndexEq { residual: r, .. }
                | ScanPlan::IndexRange { residual: r, .. }
                | ScanPlan::SpatialScan { residual: r, .. } => *r = residual,
                _ => {}
            }
            plan
        }
        None => ScanPlan::SeqScan {
            table: table_name.to_string(),
            binding: binding.to_string(),
            filter: residual,
        },
    })
}

/// Plan a full SELECT (scan part only; projection/order/limit are applied by
/// the executor).
pub fn plan_select(db: &Database, stmt: &Select) -> Result<ScanPlan> {
    let from_table = db.table(&stmt.from.table)?;
    let from_binding = stmt.from.binding().to_string();
    let conjuncts = stmt
        .where_clause
        .clone()
        .map(SqlExpr::conjuncts)
        .unwrap_or_default();

    let Some(join) = &stmt.join else {
        return plan_single(db, &stmt.from.table, &from_binding, conjuncts);
    };

    let joined_table = db.table(&join.table.table)?;
    let joined_binding = join.table.binding().to_string();
    let bindings: [(&str, &crate::schema::Schema); 2] = [
        (&from_binding, &from_table.schema),
        (&joined_binding, &joined_table.schema),
    ];

    // Resolve the join keys to sides.
    let side_of = |c: &ColumnRef| -> Result<usize> {
        match owner_binding(&SqlExpr::Column(c.clone()), &bindings)? {
            Some(b) if b == from_binding => Ok(0),
            Some(b) if b == joined_binding => Ok(1),
            _ => Err(StorageError::PlanError(format!(
                "cannot resolve join key `{c}`"
            ))),
        }
    };
    let lside = side_of(&join.left)?;
    let rside = side_of(&join.right)?;
    if lside == rside {
        return Err(StorageError::PlanError(
            "join condition must reference both tables".to_string(),
        ));
    }
    // key column per side (0 = from, 1 = joined)
    let (from_key, joined_key) = if lside == 0 {
        (join.left.clone(), join.right.clone())
    } else {
        (join.right.clone(), join.left.clone())
    };

    // Split conjuncts by side.
    let mut from_conj = Vec::new();
    let mut joined_conj = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        match owner_binding(&c, &bindings)? {
            Some(b) if b == from_binding => from_conj.push(c),
            Some(b) if b == joined_binding => joined_conj.push(c),
            None => residual.push(c), // constant: keep as residual
            _ => residual.push(c),
        }
    }

    // Prefer the side with a filter as the outer side; the inner side needs
    // an index on its join column for an index join.
    let from_has_filter = !from_conj.is_empty();
    let joined_key_index = joined_table.btree_index_on(&joined_key.column);
    let from_key_index = from_table.btree_index_on(&from_key.column);

    // choose orientation: outer drives, inner is probed
    let (outer_is_from, inner_index) = if from_has_filter && joined_key_index.is_some() {
        (true, joined_key_index)
    } else if !from_has_filter && !joined_conj.is_empty() && from_key_index.is_some() {
        (false, from_key_index)
    } else if joined_key_index.is_some() {
        (true, joined_key_index)
    } else if from_key_index.is_some() {
        (false, from_key_index)
    } else {
        (true, None)
    };

    let (outer_table, outer_binding_s, outer_conj, inner_table, inner_binding_s, inner_conj) =
        if outer_is_from {
            (
                stmt.from.table.clone(),
                from_binding.clone(),
                from_conj,
                join.table.table.clone(),
                joined_binding.clone(),
                joined_conj,
            )
        } else {
            (
                join.table.table.clone(),
                joined_binding.clone(),
                joined_conj,
                stmt.from.table.clone(),
                from_binding.clone(),
                from_conj,
            )
        };
    // Inner-side single-table conjuncts must run as residual filters.
    residual.extend(inner_conj);
    let residual = SqlExpr::conjoin(residual);

    let outer_plan = plan_single(db, &outer_table, &outer_binding_s, outer_conj)?;
    let outer_key = if outer_is_from {
        from_key.clone()
    } else {
        joined_key.clone()
    };
    let inner_key_col = if outer_is_from {
        joined_key.column
    } else {
        from_key.column
    };

    Ok(match inner_index {
        Some(inner_index_no) => ScanPlan::IndexJoin {
            outer: Box::new(outer_plan),
            inner_table,
            inner_binding: inner_binding_s,
            inner_index_no,
            outer_key,
            outer_is_from,
            residual,
        },
        None => ScanPlan::HashJoin {
            outer: Box::new(outer_plan),
            inner_table,
            inner_binding: inner_binding_s,
            inner_key: inner_key_col,
            outer_key,
            outer_is_from,
            residual,
        },
    })
}
