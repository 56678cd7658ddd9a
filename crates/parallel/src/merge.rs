//! Coordinator-side query decomposition and result merging.
//!
//! Given one SQL `SELECT`, [`ShardPlan::new`] derives the statement each
//! shard runs and how the coordinator recombines shard outputs so the
//! merged result equals what a single node holding all rows would return:
//!
//! * non-aggregate: shards project (plus hidden sort-key columns when ORDER
//!   BY references non-output columns); the coordinator concatenates,
//!   sorts, applies OFFSET/LIMIT, and strips hidden columns.
//! * aggregate: shards compute **partials** per group (AVG decomposes into
//!   SUM + COUNT, COUNT combines by summing); the coordinator folds
//!   partials by group key, finalizes, applies HAVING / ORDER / LIMIT.

use kyrix_storage::sql::bind::{Bindings, BoundExpr};
use kyrix_storage::sql::{AggFunc, ColumnRef, Select, SelectItem, SqlExpr};
use kyrix_storage::{
    Column, DataType, OrdValue, QueryResult, Result, Row, Schema, StorageError, Value,
};
use std::collections::HashMap;

/// How one output column of an aggregate query is finalized from partials.
#[derive(Debug, Clone)]
enum FinalCol {
    /// Copy from the representative shard row at this position.
    Passthrough { shard_pos: usize },
    /// Combine a single partial column (COUNT/SUM: add; MIN/MAX: extreme).
    Combine { func: AggFunc, shard_pos: usize },
    /// AVG = combined sum / combined count.
    AvgOf { sum_pos: usize, count_pos: usize },
}

/// The statement shards execute plus the recipe to merge their outputs.
pub struct ShardPlan {
    /// Statement to run on every targeted shard.
    pub shard_stmt: Select,
    merge: MergeKind,
}

enum MergeKind {
    Plain {
        /// Number of visible output columns (hidden sort keys follow).
        visible: usize,
        /// Sort keys as (shard output position, desc).
        sort: Vec<(usize, bool)>,
        offset: Option<u64>,
        limit: Option<u64>,
    },
    Aggregate {
        /// Positions of the group-key columns in the shard output.
        key_pos: Vec<usize>,
        finals: Vec<(String, FinalCol)>,
        having: Option<SqlExpr>,
        order_by: Vec<(String, bool)>,
        offset: Option<u64>,
        limit: Option<u64>,
    },
}

impl ShardPlan {
    /// Decompose `stmt` for scatter-gather execution.
    pub fn new(stmt: &Select) -> Result<ShardPlan> {
        if stmt.is_aggregate() {
            Self::aggregate_plan(stmt)
        } else {
            Self::plain_plan(stmt)
        }
    }

    fn plain_plan(stmt: &Select) -> Result<ShardPlan> {
        let mut shard_stmt = stmt.clone();
        shard_stmt.order_by = Vec::new();
        shard_stmt.offset = None;
        // LIMIT pushdown: each shard needs at most offset+limit rows — but
        // only when the coordinator does not re-sort (sorting needs all
        // candidates anyway, and a sorted shard prefix is not a sorted
        // global prefix unless shards sort too; push the sort down as well).
        shard_stmt.limit = None;

        // ORDER BY keys must be findable in the shard output. Keys that are
        // plain scan columns not already projected ride along as hidden
        // trailing items. Star selects already project every scan column,
        // so they never need (and must not get) hidden keys; order keys
        // are resolved by name against the shard schema at merge time.
        let has_star = stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Star | SelectItem::QualifiedStar(_)));
        let visible = count_visible(stmt);
        let mut hidden: Vec<SqlExpr> = Vec::new();
        let mut sort_specs: Vec<(SortTarget, bool)> = Vec::new();
        for ob in &stmt.order_by {
            sort_specs.push((SortTarget::Name(ob.column.clone()), ob.desc));
        }
        if !has_star {
            for (target, _) in &mut sort_specs {
                if let SortTarget::Name(c) = target {
                    // leave resolution to merge time if the name is an
                    // output column; otherwise add a hidden projection
                    if !output_names(stmt).iter().any(|n| n == &c.column) {
                        let pos = visible + hidden.len();
                        hidden.push(SqlExpr::Column(c.clone()));
                        *target = SortTarget::Hidden(pos);
                    }
                }
            }
        }
        for (i, e) in hidden.iter().enumerate() {
            shard_stmt.items.push(SelectItem::Expr {
                expr: e.clone(),
                alias: Some(format!("__sort{i}")),
            });
        }
        if stmt.order_by.is_empty() {
            // no re-sort at the coordinator → shards can pre-truncate
            if let Some(l) = stmt.limit {
                shard_stmt.limit = Some(l + stmt.offset.unwrap_or(0));
            }
        } else {
            // push the sort down so each shard's truncation keeps the right
            // rows; shards sort cheaply and the coordinator re-sorts merged
            shard_stmt.order_by = stmt.order_by.clone();
            if let Some(l) = stmt.limit {
                shard_stmt.limit = Some(l + stmt.offset.unwrap_or(0));
            }
        }

        Ok(ShardPlan {
            shard_stmt,
            merge: MergeKind::Plain {
                visible,
                sort: sort_specs
                    .into_iter()
                    .map(|(t, desc)| match t {
                        SortTarget::Hidden(p) => (p, desc),
                        // resolved against the shard schema at merge time;
                        // store a sentinel replaced in merge()
                        SortTarget::Name(_) => (usize::MAX, desc),
                    })
                    .collect(),
                offset: stmt.offset,
                limit: stmt.limit,
            },
        })
    }

    fn aggregate_plan(stmt: &Select) -> Result<ShardPlan> {
        let mut items: Vec<SelectItem> = Vec::new();
        let mut finals: Vec<(String, FinalCol)> = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Star | SelectItem::QualifiedStar(_) => {
                    return Err(StorageError::PlanError(
                        "SELECT * cannot be combined with GROUP BY / aggregates".to_string(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        SqlExpr::Column(ColumnRef { column, .. }) => column.clone(),
                        _ => format!("expr{i}"),
                    });
                    let shard_pos = items.len();
                    items.push(item.clone());
                    finals.push((name, FinalCol::Passthrough { shard_pos }));
                }
                SelectItem::Aggregate { func, arg, .. } => {
                    let name = item
                        .aggregate_output_name()
                        .expect("aggregates name themselves");
                    match func {
                        AggFunc::Avg => {
                            let sum_pos = items.len();
                            items.push(SelectItem::Aggregate {
                                func: AggFunc::Sum,
                                arg: arg.clone(),
                                alias: Some(format!("__p{i}_sum")),
                            });
                            let count_pos = items.len();
                            items.push(SelectItem::Aggregate {
                                func: AggFunc::Count,
                                arg: arg.clone(),
                                alias: Some(format!("__p{i}_cnt")),
                            });
                            finals.push((name, FinalCol::AvgOf { sum_pos, count_pos }));
                        }
                        f => {
                            let shard_pos = items.len();
                            items.push(SelectItem::Aggregate {
                                func: *f,
                                arg: arg.clone(),
                                alias: Some(format!("__p{i}")),
                            });
                            finals.push((
                                name,
                                FinalCol::Combine {
                                    func: *f,
                                    shard_pos,
                                },
                            ));
                        }
                    }
                }
            }
        }
        // group keys ride along as trailing items so the coordinator can
        // recombine groups even when the select list transforms them
        let key_start = items.len();
        for (k, col) in stmt.group_by.iter().enumerate() {
            items.push(SelectItem::Expr {
                expr: SqlExpr::Column(col.clone()),
                alias: Some(format!("__k{k}")),
            });
        }
        let shard_stmt = Select {
            items,
            from: stmt.from.clone(),
            join: stmt.join.clone(),
            where_clause: stmt.where_clause.clone(),
            group_by: stmt.group_by.clone(),
            having: None, // applied after recombination
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        Ok(ShardPlan {
            shard_stmt,
            merge: MergeKind::Aggregate {
                key_pos: (key_start..key_start + stmt.group_by.len()).collect(),
                finals,
                having: stmt.having.clone(),
                order_by: stmt
                    .order_by
                    .iter()
                    .map(|ob| (ob.column.column.clone(), ob.desc))
                    .collect(),
                offset: stmt.offset,
                limit: stmt.limit,
            },
        })
    }

    /// Merge per-shard results into the final answer. `params` are the
    /// original query parameters (HAVING may reference them).
    pub fn merge(&self, shard_results: Vec<QueryResult>, params: &[Value]) -> Result<QueryResult> {
        let mut stats = kyrix_storage::ExecStats::default();
        // shard work adds up; each arm below counts the merged rows itself
        for r in &shard_results {
            stats.merge(&r.stats);
        }
        match &self.merge {
            MergeKind::Plain {
                visible,
                sort,
                offset,
                limit,
            } => {
                let shard_schema = shard_results
                    .first()
                    .map(|r| r.schema.clone())
                    .unwrap_or_else(Schema::empty);
                let mut rows: Vec<Row> = shard_results.into_iter().flat_map(|r| r.rows).collect();
                if !sort.is_empty() {
                    // resolve name-based keys against the shard schema
                    let keys: Vec<(usize, bool)> = sort
                        .iter()
                        .enumerate()
                        .map(|(i, &(pos, desc))| {
                            if pos != usize::MAX {
                                return Ok((pos, desc));
                            }
                            // positional sentinel: re-resolve by name
                            let name = match &self.shard_stmt.order_by.get(i) {
                                Some(ob) => ob.column.column.clone(),
                                None => {
                                    return Err(StorageError::PlanError(
                                        "sort key lost during decomposition".to_string(),
                                    ))
                                }
                            };
                            Ok((shard_schema.index_of(&name)?, desc))
                        })
                        .collect::<Result<_>>()?;
                    rows.sort_by(|a, b| cmp_keys(a, b, &keys));
                }
                apply_offset_limit(&mut rows, *offset, *limit);
                // strip hidden sort columns (star selects never add any,
                // so `visible` clamps to the full shard width)
                let visible = (*visible).min(shard_schema.len());
                let schema = Schema::new(shard_schema.columns()[..visible].to_vec());
                for row in &mut rows {
                    row.values.truncate(visible);
                }
                stats.rows_out = rows.len() as u64;
                Ok(QueryResult {
                    schema,
                    rows,
                    stats,
                })
            }
            MergeKind::Aggregate {
                key_pos,
                finals,
                having,
                order_by,
                offset,
                limit,
            } => {
                let shard_schema = shard_results
                    .first()
                    .map(|r| r.schema.clone())
                    .unwrap_or_else(Schema::empty);
                // fold shard partial rows per group key
                let mut groups: HashMap<Vec<OrdValue>, Vec<Row>> = HashMap::new();
                for r in shard_results {
                    for row in r.rows {
                        let key: Vec<OrdValue> = key_pos
                            .iter()
                            .map(|&i| OrdValue(row.get(i).clone()))
                            .collect();
                        groups.entry(key).or_default().push(row);
                    }
                }
                // a global aggregate with zero groups still yields one row
                // (each shard returned one partial row, so this only
                // happens with zero shards)
                if key_pos.is_empty() && groups.is_empty() {
                    groups.insert(Vec::new(), Vec::new());
                }

                let mut keyed: Vec<(Vec<OrdValue>, Vec<Row>)> = groups.into_iter().collect();
                keyed.sort_by(|a, b| a.0.cmp(&b.0));

                // output schema: names from finals, types from shard schema
                let schema = Schema::new(
                    finals
                        .iter()
                        .map(|(name, col)| {
                            let dtype = match col {
                                FinalCol::Passthrough { shard_pos }
                                | FinalCol::Combine { shard_pos, .. } => shard_schema
                                    .columns()
                                    .get(*shard_pos)
                                    .map(|c| c.dtype)
                                    .unwrap_or(DataType::Int),
                                FinalCol::AvgOf { .. } => DataType::Float,
                            };
                            Column::new(name.clone(), dtype)
                        })
                        .collect(),
                );

                let mut rows = Vec::with_capacity(keyed.len());
                for (_, partials) in &keyed {
                    let mut values = Vec::with_capacity(finals.len());
                    for (_, col) in finals {
                        values.push(finalize(col, partials)?);
                    }
                    rows.push(Row::new(values));
                }

                if let Some(having) = having {
                    let b = Bindings::single("agg", &schema);
                    let bound = BoundExpr::bind(having, &b)?;
                    let mut kept = Vec::with_capacity(rows.len());
                    for row in rows {
                        if bound.eval(&row.values, params)?.as_bool()? {
                            kept.push(row);
                        }
                    }
                    rows = kept;
                }
                if !order_by.is_empty() {
                    let keys: Vec<(usize, bool)> = order_by
                        .iter()
                        .map(|(name, desc)| Ok((schema.index_of(name)?, *desc)))
                        .collect::<Result<_>>()?;
                    rows.sort_by(|a, b| cmp_keys(a, b, &keys));
                }
                apply_offset_limit(&mut rows, *offset, *limit);
                stats.rows_out = rows.len() as u64;
                Ok(QueryResult {
                    schema,
                    rows,
                    stats,
                })
            }
        }
    }
}

enum SortTarget {
    Name(ColumnRef),
    Hidden(usize),
}

fn count_visible(stmt: &Select) -> usize {
    // Star expansions are resolved by shards; the coordinator learns the
    // true width from the shard schema. For star-free selects the item
    // count is exact; star selects cannot add hidden sort keys (ORDER BY
    // columns are always projected by `*`), so visible = shard width.
    if stmt
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Star | SelectItem::QualifiedStar(_)))
    {
        usize::MAX // replaced by shard schema width at merge
    } else {
        stmt.items.len()
    }
}

fn output_names(stmt: &Select) -> Vec<String> {
    stmt.items
        .iter()
        .enumerate()
        .filter_map(|(i, item)| match item {
            SelectItem::Expr { expr, alias } => Some(alias.clone().unwrap_or_else(|| match expr {
                SqlExpr::Column(ColumnRef { column, .. }) => column.clone(),
                _ => format!("expr{i}"),
            })),
            SelectItem::Aggregate { .. } => item.aggregate_output_name(),
            _ => None,
        })
        .collect()
}

fn cmp_keys(a: &Row, b: &Row, keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(idx, desc) in keys {
        let ord = a.get(idx).total_cmp(b.get(idx));
        if ord != std::cmp::Ordering::Equal {
            return if desc { ord.reverse() } else { ord };
        }
    }
    std::cmp::Ordering::Equal
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

/// Combine one output column from a group's shard partial rows.
fn finalize(col: &FinalCol, partials: &[Row]) -> Result<Value> {
    match col {
        FinalCol::Passthrough { shard_pos } => Ok(partials
            .first()
            .map(|r| r.get(*shard_pos).clone())
            .unwrap_or(Value::Null)),
        FinalCol::Combine { func, shard_pos } => {
            let vals = partials.iter().map(|r| r.get(*shard_pos));
            match func {
                AggFunc::Count => {
                    let mut n = 0i64;
                    for v in vals {
                        if !v.is_null() {
                            n += v.as_i64()?;
                        }
                    }
                    Ok(Value::Int(n))
                }
                AggFunc::Sum => sum_values(vals),
                AggFunc::Min => Ok(extreme(vals, std::cmp::Ordering::Less)),
                AggFunc::Max => Ok(extreme(vals, std::cmp::Ordering::Greater)),
                AggFunc::Avg => unreachable!("AVG decomposes into AvgOf"),
            }
        }
        FinalCol::AvgOf { sum_pos, count_pos } => {
            let sum = sum_values(partials.iter().map(|r| r.get(*sum_pos)))?;
            let mut n = 0i64;
            for r in partials {
                let v = r.get(*count_pos);
                if !v.is_null() {
                    n += v.as_i64()?;
                }
            }
            if n == 0 || sum.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(sum.as_f64()? / n as f64))
            }
        }
    }
}

/// SUM over partial sums: Int stays Int, NULL partials are skipped,
/// all-NULL combines to NULL.
fn sum_values<'a>(vals: impl Iterator<Item = &'a Value>) -> Result<Value> {
    let mut int = 0i64;
    let mut float = 0.0f64;
    let mut saw_float = false;
    let mut any = false;
    for v in vals {
        match v {
            Value::Int(i) => {
                int = int.wrapping_add(*i);
                any = true;
            }
            Value::Float(f) => {
                float += f;
                saw_float = true;
                any = true;
            }
            Value::Null => {}
            other => {
                return Err(StorageError::ExecError(format!(
                    "SUM over non-numeric partial {other}"
                )))
            }
        }
    }
    Ok(if !any {
        Value::Null
    } else if saw_float {
        Value::Float(float + int as f64)
    } else {
        Value::Int(int)
    })
}

fn extreme<'a>(vals: impl Iterator<Item = &'a Value>, keep: std::cmp::Ordering) -> Value {
    let mut cur: Option<Value> = None;
    for v in vals {
        if v.is_null() {
            continue;
        }
        if cur.as_ref().is_none_or(|c| v.total_cmp(c) == keep) {
            cur = Some(v.clone());
        }
    }
    cur.unwrap_or(Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyrix_storage::sql::parse;

    #[test]
    fn plain_plan_adds_hidden_sort_columns() {
        let stmt = parse("SELECT a FROM t ORDER BY b DESC LIMIT 5 OFFSET 2").unwrap();
        let plan = ShardPlan::new(&stmt).unwrap();
        // shard projects a plus the hidden sort key, sorted + truncated
        assert_eq!(plan.shard_stmt.items.len(), 2);
        assert_eq!(plan.shard_stmt.limit, Some(7));
        assert!(plan.shard_stmt.offset.is_none());
    }

    #[test]
    fn aggregate_plan_decomposes_avg() {
        let stmt = parse("SELECT g, AVG(x), COUNT(*) FROM t GROUP BY g HAVING count > 1").unwrap();
        let plan = ShardPlan::new(&stmt).unwrap();
        // items: g, __p1_sum, __p1_cnt, __p2, __k0
        assert_eq!(plan.shard_stmt.items.len(), 5);
        assert!(plan.shard_stmt.having.is_none());
        assert_eq!(plan.shard_stmt.group_by.len(), 1);
    }

    #[test]
    fn sum_values_type_rules() {
        let ints = [Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(sum_values(ints.iter()).unwrap(), Value::Int(3));
        let mixed = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(sum_values(mixed.iter()).unwrap(), Value::Float(1.5));
        let nulls = [Value::Null, Value::Null];
        assert_eq!(sum_values(nulls.iter()).unwrap(), Value::Null);
    }
}
