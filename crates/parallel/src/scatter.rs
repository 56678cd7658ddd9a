//! The scatter-gather executor: one SELECT over N shard databases.
//!
//! A sharded database is a slice of [`Database`]s plus the
//! [`QueryRouter`] that says which tables are partitioned how.
//! [`scatter_gather_prepared`] decomposes a parsed statement with
//! [`ShardPlan`], runs the shard statement on the routed shards (on
//! parallel threads when more than one is targeted) and merges at the
//! coordinator; [`scatter_gather`] parses SQL text and calls it.
//! `kyrix-server`'s sharded snapshots answer every fetch through this
//! body, with the layer's statement prepared once at launch.

use crate::merge::ShardPlan;
use crate::router::QueryRouter;
use kyrix_storage::{Database, Prepared, QueryResult, Result, StorageError, Value};
use std::time::{Duration, Instant};

/// A merged scatter-gather answer plus what producing it cost.
#[derive(Debug)]
pub struct Gathered {
    /// The merged result: what a single node holding all rows returns.
    pub result: QueryResult,
    /// `(shard, execution time)` for every shard the statement ran on,
    /// in routing order.
    pub shards: Vec<(usize, Duration)>,
    /// Wall-clock of the fan-out (all targeted shards, join included).
    pub scatter: Duration,
    /// Wall-clock of the coordinator merge.
    pub merge: Duration,
}

/// Run the shard statement on one shard through that database's observed
/// execution, under the original SQL text: a shard run reaches the query
/// observer exactly like a single-node execution does.
fn run_shard(
    db: &Database,
    plan: &ShardPlan,
    prepared: &Prepared,
    params: &[Value],
) -> Result<(Duration, QueryResult)> {
    let start = Instant::now();
    let result = db.execute_statement(&plan.shard_stmt, &prepared.sql, params, prepared.tail())?;
    Ok((start.elapsed(), result))
}

/// Execute one SELECT over `shards` (partitioned per `router`) and merge
/// the per-shard outputs into the single-node answer.
pub fn scatter_gather(
    shards: &[Database],
    router: &QueryRouter,
    sql: &str,
    params: &[Value],
) -> Result<Gathered> {
    scatter_gather_prepared(shards, router, &Prepared::new(sql)?, params)
}

/// [`scatter_gather`] for a statement parsed ahead of time. Shards honour
/// the statement's [`Prepared::tail`]: the coordinator merge of a plain
/// SELECT moves shard rows into the answer, so they arrive with the room
/// the shard's executor gave them.
pub fn scatter_gather_prepared(
    shards: &[Database],
    router: &QueryRouter,
    prepared: &Prepared,
    params: &[Value],
) -> Result<Gathered> {
    if router.shard_count() != shards.len() {
        return Err(StorageError::ExecError(format!(
            "router implies {} shards, got {}",
            router.shard_count(),
            shards.len()
        )));
    }
    let stmt = prepared.statement();
    let plan = ShardPlan::new(stmt)?;
    let mut targets = router.targets(stmt, params);
    if targets.is_empty() {
        // the routed predicate is unsatisfiable: any shard answers it
        // with no rows and the right columns
        targets.push(0);
    }
    let mut timings = Vec::with_capacity(targets.len());
    let mut results = Vec::with_capacity(targets.len());
    let mut keep = |i: usize, (dur, result): (Duration, QueryResult)| {
        timings.push((i, dur));
        results.push(result);
    };
    let scatter_start = Instant::now();
    if let [i] = targets[..] {
        // routed to one shard: run inline, no fan-out overhead — a fully
        // routed sharded fetch costs what a single node with 1/N of the
        // rows would pay
        keep(i, run_shard(&shards[i], &plan, prepared, params)?);
    } else {
        let plan = &plan;
        let runs: Vec<Result<(Duration, QueryResult)>> = std::thread::scope(|s| {
            let handles: Vec<_> = targets
                .iter()
                .map(|&i| s.spawn(move || run_shard(&shards[i], plan, prepared, params)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard query panicked"))
                .collect()
        });
        for (&i, run) in targets.iter().zip(runs) {
            keep(i, run?);
        }
    }
    let scatter = scatter_start.elapsed();
    let merge_start = Instant::now();
    let result = plan.merge(results, params)?;
    Ok(Gathered {
        result,
        shards: timings,
        scatter,
        merge: merge_start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use kyrix_storage::catalog::SpatialCols;
    use kyrix_storage::{DataType, IndexKind, Row, Schema};

    fn dots_schema() -> Schema {
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("w", DataType::Int)
    }

    fn labels_schema() -> Schema {
        Schema::empty()
            .with("w", DataType::Int)
            .with("name", DataType::Text)
    }

    fn dot(i: i64) -> Row {
        Row::new(vec![
            Value::Int(i),
            Value::Float((i % 20) as f64 * 10.0),
            Value::Float((i / 20) as f64 * 10.0),
            Value::Int(i % 7),
        ])
    }

    /// `n` shard databases holding a 20×20 dot grid over a 200×200 canvas
    /// routed by `part` (spatially indexed), the replicated `labels`
    /// table on every shard, and the router over them. One shard and a
    /// router with nothing registered is the single-node ground truth.
    fn dots(n: usize, part: Option<Partitioner>) -> (Vec<Database>, QueryRouter) {
        let mut db = Database::new();
        db.create_table("dots", dots_schema()).unwrap();
        db.create_index(
            "dots",
            "sp",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        db.create_table("labels", labels_schema()).unwrap();
        for w in 0..7 {
            db.insert(
                "labels",
                Row::new(vec![Value::Int(w), Value::Text(format!("w{w}"))]),
            )
            .unwrap();
        }
        let mut shards = vec![db; n];
        let mut router = QueryRouter::new(n).unwrap();
        for i in 0..400 {
            let row = dot(i);
            let s = match &part {
                Some(p) => p.route(&dots_schema(), &row, n).unwrap(),
                None => 0,
            };
            shards[s].insert("dots", row).unwrap();
        }
        if let Some(p) = part {
            router.register("dots", p).unwrap();
        }
        (shards, router)
    }

    fn grid() -> Partitioner {
        Partitioner::SpatialGrid {
            x_column: "x".into(),
            y_column: "y".into(),
            cols: 2,
            rows: 2,
            width: 200.0,
            height: 200.0,
        }
    }

    #[test]
    fn load_distributes_across_shards() {
        let (shards, _) = dots(4, Some(grid()));
        let sizes: Vec<usize> = shards
            .iter()
            .map(|s| s.table("dots").unwrap().len())
            .collect();
        assert_eq!(sizes, vec![100, 100, 100, 100]);
    }

    #[test]
    fn spatial_query_routes_to_intersecting_shards() {
        let (shards, router) = dots(4, Some(grid()));
        // viewport entirely inside shard 0's cell
        let g = scatter_gather(
            &shards,
            &router,
            "SELECT COUNT(*) FROM dots WHERE bbox && rect(0, 0, 40, 40)",
            &[],
        )
        .unwrap();
        assert_eq!(g.result.rows[0].get(0), &Value::Int(25));
        assert_eq!(g.shards.len(), 1);
        assert_eq!(g.shards[0].0, 0);
        // viewport spanning all four cells
        let g = scatter_gather(
            &shards,
            &router,
            "SELECT COUNT(*) FROM dots WHERE bbox && rect(80, 80, 120, 120)",
            &[],
        )
        .unwrap();
        assert_eq!(g.result.rows[0].get(0), &Value::Int(25));
        let touched: Vec<usize> = g.shards.iter().map(|(i, _)| *i).collect();
        assert_eq!(touched, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_results_match_single_node() {
        let (shards, router) = dots(4, Some(grid()));
        let (single, _) = dots(1, None);
        let queries: &[&str] = &[
            "SELECT COUNT(*) FROM dots",
            "SELECT * FROM dots WHERE bbox && rect(35, 35, 95, 95) ORDER BY id",
            "SELECT id, x FROM dots WHERE w = 3 ORDER BY x DESC, id LIMIT 10",
            "SELECT w, COUNT(*) AS n, AVG(x), MIN(y), MAX(y), SUM(id) FROM dots GROUP BY w",
            "SELECT w, COUNT(*) AS n FROM dots GROUP BY w HAVING n > 57 ORDER BY n DESC",
            "SELECT id FROM dots ORDER BY y DESC, x, id LIMIT 7 OFFSET 3",
            "SELECT AVG(x) FROM dots WHERE y > 150",
            "SELECT SUM(w) FROM dots WHERE id BETWEEN 100 AND 200",
        ];
        for q in queries {
            let par = scatter_gather(&shards, &router, q, &[]).unwrap().result;
            let seq = single[0].query(q, &[]).unwrap();
            assert_eq!(par.rows, seq.rows, "query: {q}");
            assert_eq!(
                par.schema.columns().len(),
                seq.schema.columns().len(),
                "schema width: {q}"
            );
        }
    }

    /// `SELECT *` rows are the shards' own rows, moved through the merge
    /// with the room the statement reserved — also when the rectangle
    /// routes to no shard at all and shard 0 answers with no rows.
    #[test]
    fn star_rows_arrive_with_their_reserved_room() {
        let (shards, router) = dots(4, Some(grid()));
        let (single, _) = dots(1, None);
        for (rect, routed, rows) in [
            ("rect(150, 150, 50, 50)", 0, 0),
            ("rect(0, 0, 40, 40)", 1, 25),
            ("rect(80, 80, 120, 120)", 4, 25),
        ] {
            let sql = format!("SELECT * FROM dots WHERE bbox && {rect}");
            let prepared = Prepared::new(&sql).unwrap().reserving(7);
            assert_eq!(router.targets(prepared.statement(), &[]).len(), routed);
            let g = scatter_gather_prepared(&shards, &router, &prepared, &[]).unwrap();
            let seq = single[0].query(&sql, &[]).unwrap();
            assert_eq!(g.result.schema, seq.schema, "{sql}");
            assert_eq!(g.result.rows.len(), rows, "{sql}");
            let by_id = |mut rows: Vec<Row>| {
                rows.sort_by_key(|r| r.get(0).as_i64().unwrap());
                rows
            };
            assert_eq!(by_id(g.result.rows.clone()), by_id(seq.rows), "{sql}");
            assert_eq!(g.result.stats.rows_out, rows as u64);
            // `clone` above trims; the gathered rows themselves keep the room
            for row in &g.result.rows {
                assert_eq!(row.values.capacity(), dots_schema().len() + 7);
            }
        }
    }

    #[test]
    fn hash_partitioning_routes_point_lookups() {
        let (shards, router) = dots(
            8,
            Some(Partitioner::Hash {
                column: "id".into(),
            }),
        );
        let g = scatter_gather(
            &shards,
            &router,
            "SELECT x FROM dots WHERE id = $1",
            &[Value::Int(42)],
        )
        .unwrap();
        assert_eq!(g.result.rows[0].get(0), &Value::Float(20.0));
        assert_eq!(g.shards.len(), 1, "point lookup must route");
        // a non-key predicate broadcasts
        let g = scatter_gather(
            &shards,
            &router,
            "SELECT COUNT(*) FROM dots WHERE x < 50",
            &[],
        )
        .unwrap();
        assert_eq!(g.result.rows[0].get(0), &Value::Int(100));
        assert_eq!(g.shards.len(), 8);
    }

    #[test]
    fn replicated_tables_join_against_partitioned() {
        let (shards, router) = dots(4, Some(grid()));
        // replicated-only query hits one shard
        let g = scatter_gather(&shards, &router, "SELECT COUNT(*) FROM labels", &[]).unwrap();
        assert_eq!(g.result.rows[0].get(0), &Value::Int(7));
        assert_eq!(g.shards.len(), 1);
        // join: partitioned ⋈ replicated matches single-node
        let (single, _) = dots(1, None);
        let q = "SELECT d.id, l.name FROM dots d JOIN labels l ON d.w = l.w \
                 WHERE d.id < 20 ORDER BY d.id";
        let par = scatter_gather(&shards, &router, q, &[]).unwrap().result;
        assert_eq!(par.rows, single[0].query(q, &[]).unwrap().rows);
    }

    #[test]
    fn shard_count_validation() {
        let (shards, _) = dots(4, Some(grid()));
        let router = QueryRouter::new(3).unwrap();
        assert!(scatter_gather(&shards, &router, "SELECT COUNT(*) FROM dots", &[]).is_err());
    }
}
