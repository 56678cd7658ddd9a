//! Table-aware query routing: which shards must a statement touch?
//!
//! A serving tier routes *many* partitioned tables — a raw point table
//! plus every LoD level table, each with its own [`Partitioner`] — so the
//! routing logic lives here, keyed by table name;
//! [`scatter_gather`](crate::scatter_gather) asks it where each statement
//! must run.
//!
//! Routing is conservative: a statement over a registered table routes by
//! the first usable predicate (spatial-rect intersection, partition-key
//! range, partition-key equality); anything else broadcasts. Statements
//! that touch no registered table are assumed replicated everywhere and
//! run on shard 0 alone.

use crate::partition::Partitioner;
use kyrix_storage::sql::bind::{Bindings, BoundExpr};
use kyrix_storage::sql::{Select, SqlExpr};
use kyrix_storage::{Rect, Result, Schema, StorageError, Value};

/// Routes statements and rects to shards across any number of
/// partitioned tables (unregistered tables count as replicated).
#[derive(Debug, Clone)]
pub struct QueryRouter {
    n: usize,
    tables: Vec<(String, Partitioner)>,
}

impl QueryRouter {
    /// A router over `n` shards with no partitioned tables yet.
    pub fn new(n: usize) -> Result<QueryRouter> {
        if n == 0 {
            return Err(StorageError::ExecError("need at least one shard".into()));
        }
        Ok(QueryRouter {
            n,
            tables: Vec::new(),
        })
    }

    /// Register `table` as partitioned by `partitioner`. The partitioner's
    /// natural shard count must match the router's.
    pub fn register(&mut self, table: impl Into<String>, partitioner: Partitioner) -> Result<()> {
        let table = table.into();
        let natural = partitioner.shard_count(self.n);
        if natural != self.n {
            return Err(StorageError::ExecError(format!(
                "partitioner for `{table}` implies {natural} shards, router has {}",
                self.n
            )));
        }
        if self.tables.iter().any(|(t, _)| *t == table) {
            return Err(StorageError::ExecError(format!(
                "table `{table}` already registered"
            )));
        }
        self.tables.push((table, partitioner));
        Ok(())
    }

    /// Number of shards this router targets.
    pub fn shard_count(&self) -> usize {
        self.n
    }

    /// The partitioner registered for `table`, if any.
    pub fn partitioner(&self, table: &str) -> Option<&Partitioner> {
        self.tables.iter().find(|(t, _)| t == table).map(|(_, p)| p)
    }

    /// Shards whose cells intersect `rect` in `table`'s coordinate space;
    /// `None` when the table is unregistered or its partitioner cannot
    /// route rects (caller should broadcast).
    pub fn route_rect(&self, table: &str, rect: &Rect) -> Option<Vec<usize>> {
        self.partitioner(table)?.route_rect(rect, self.n)
    }

    /// Which shards a SELECT must run on: spatial-rect and key predicates
    /// over a registered table route; everything else broadcasts;
    /// statements over unregistered (replicated) tables only run on
    /// shard 0.
    pub fn targets(&self, stmt: &Select, params: &[Value]) -> Vec<usize> {
        let all = || (0..self.n).collect();
        // routing applies to the registered table the statement scans
        // (joins still work: the partitioned side determines placement,
        // the replicated side is present everywhere)
        let partitioner = self.partitioner(&stmt.from.table).or_else(|| {
            stmt.join
                .as_ref()
                .and_then(|j| self.partitioner(&j.table.table))
        });
        let Some(partitioner) = partitioner else {
            // replicated-only query: any single shard has the full answer
            return vec![0];
        };
        let Some(where_clause) = &stmt.where_clause else {
            return all();
        };
        let empty = Schema::empty();
        let bindings = Bindings::single("_", &empty);
        let const_f64 = |e: &SqlExpr| -> Option<f64> {
            BoundExpr::bind(e, &bindings)
                .ok()?
                .eval_const(params)
                .ok()?
                .as_f64()
                .ok()
        };
        for conj in where_clause.clone().conjuncts() {
            match &conj {
                SqlExpr::SpatialIntersect { rect } => {
                    let vals: Option<Vec<f64>> = rect.iter().map(|e| const_f64(e)).collect();
                    if let Some(v) = vals {
                        if let Some(ids) =
                            partitioner.route_rect(&Rect::new(v[0], v[1], v[2], v[3]), self.n)
                        {
                            return ids;
                        }
                    }
                }
                SqlExpr::Between { expr, lo, hi } => {
                    if let SqlExpr::Column(c) = &**expr {
                        if let (Some(lo), Some(hi)) = (const_f64(lo), const_f64(hi)) {
                            if let Some(ids) = partitioner.route_range(&c.column, lo, hi, self.n) {
                                return ids;
                            }
                        }
                    }
                }
                SqlExpr::Binary {
                    op: kyrix_storage::sql::ast::BinOp::Eq,
                    left,
                    right,
                } => {
                    let col_key = match (&**left, &**right) {
                        (SqlExpr::Column(c), k) if k.is_const() => Some((c, k)),
                        (k, SqlExpr::Column(c)) if k.is_const() => Some((c, k)),
                        _ => None,
                    };
                    if let Some((c, k)) = col_key {
                        if let Ok(bound) = BoundExpr::bind(k, &bindings) {
                            if let Ok(v) = bound.eval_const(params) {
                                if let Some(ids) = partitioner.route_eq(&c.column, &v, self.n) {
                                    return ids;
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyrix_storage::sql::parse;

    fn grid(cols: u32, rows: u32) -> Partitioner {
        Partitioner::SpatialGrid {
            x_column: "x".into(),
            y_column: "y".into(),
            cols,
            rows,
            width: 200.0,
            height: 200.0,
        }
    }

    fn router() -> QueryRouter {
        let mut r = QueryRouter::new(4).unwrap();
        r.register("pts", grid(2, 2)).unwrap();
        r.register(
            "pts_lod1",
            Partitioner::SpatialGrid {
                x_column: "cx".into(),
                y_column: "cy".into(),
                cols: 2,
                rows: 2,
                width: 100.0,
                height: 100.0,
            },
        )
        .unwrap();
        r
    }

    fn targets(r: &QueryRouter, sql: &str) -> Vec<usize> {
        r.targets(&parse(sql).unwrap(), &[])
    }

    #[test]
    fn routes_each_registered_table_in_its_own_space() {
        let r = router();
        assert_eq!(
            targets(&r, "SELECT * FROM pts WHERE bbox && rect(0, 0, 40, 40)"),
            vec![0]
        );
        // the level table's space is half-size: (60..90)² lands in its
        // bottom-right quadrant, which is shard 3
        assert_eq!(
            targets(
                &r,
                "SELECT * FROM pts_lod1 WHERE bbox && rect(60, 60, 90, 90)"
            ),
            vec![3]
        );
    }

    #[test]
    fn unregistered_tables_run_on_shard_zero() {
        let r = router();
        assert_eq!(targets(&r, "SELECT COUNT(*) FROM labels"), vec![0]);
    }

    #[test]
    fn unroutable_predicates_broadcast() {
        let r = router();
        assert_eq!(
            targets(&r, "SELECT * FROM pts WHERE w = 3"),
            vec![0, 1, 2, 3]
        );
        assert_eq!(targets(&r, "SELECT COUNT(*) FROM pts"), vec![0, 1, 2, 3]);
    }

    #[test]
    fn register_validates_shard_count_and_duplicates() {
        let mut r = QueryRouter::new(4).unwrap();
        assert!(r.register("t", grid(3, 1)).is_err());
        r.register("t", grid(2, 2)).unwrap();
        assert!(r.register("t", grid(2, 2)).is_err());
        assert!(QueryRouter::new(0).is_err());
    }

    #[test]
    fn route_rect_uses_the_tables_partitioner() {
        let r = router();
        assert_eq!(
            r.route_rect("pts", &Rect::new(0.0, 0.0, 10.0, 10.0)),
            Some(vec![0])
        );
        assert_eq!(r.route_rect("labels", &Rect::new(0.0, 0.0, 1.0, 1.0)), None);
    }
}
