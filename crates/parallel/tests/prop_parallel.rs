//! Property: for any data distribution and any supported query,
//! scatter-gather over the partitioned shards returns exactly what a
//! single node would.

use kyrix_parallel::{scatter_gather, Partitioner, QueryRouter};
use kyrix_storage::{DataType, Database, QueryResult, Row, Schema, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
        .with("g", DataType::Int)
}

fn make_row(id: i64, x: f64, y: f64, g: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Float(x),
        Value::Float(y),
        Value::Int(g),
    ])
}

/// `n` shards of `pts`, each row on the shard `p` routes it to, plus the
/// router that says so.
fn sharded(n: usize, p: Partitioner, rows: Vec<Row>) -> (Vec<Database>, QueryRouter) {
    let mut empty = Database::new();
    empty.create_table("pts", schema()).unwrap();
    let mut shards = vec![empty; n];
    for row in rows {
        let s = p.route(&schema(), &row, n).unwrap();
        shards[s].insert("pts", row).unwrap();
    }
    let mut router = QueryRouter::new(n).unwrap();
    router.register("pts", p).unwrap();
    (shards, router)
}

fn query(db: &(Vec<Database>, QueryRouter), sql: &str, params: &[Value]) -> QueryResult {
    scatter_gather(&db.0, &db.1, sql, params).unwrap().result
}

fn column_names(r: &QueryResult) -> Vec<&str> {
    r.schema.columns().iter().map(|c| c.name.as_str()).collect()
}

/// Queries whose parallel/serial agreement we pin. Chosen to cover: plain
/// scans, filters, multi-key order + offset/limit, global and grouped
/// aggregates, HAVING, AVG decomposition, range predicates — and an
/// inverted `BETWEEN`, which a range layout routes to no shard at all.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM pts",
    "SELECT id, g FROM pts ORDER BY g DESC, id LIMIT 9 OFFSET 2",
    "SELECT g, COUNT(*) AS n, SUM(id), AVG(x), MIN(y), MAX(y) FROM pts GROUP BY g",
    "SELECT g, AVG(y) FROM pts GROUP BY g HAVING avg_y > 30 ORDER BY avg_y DESC",
    "SELECT AVG(x), COUNT(id) FROM pts WHERE g = 1",
    "SELECT id FROM pts WHERE x BETWEEN 10 AND 70 ORDER BY y, id",
    "SELECT SUM(g) FROM pts WHERE id != 3",
    "SELECT id, x FROM pts WHERE x BETWEEN 50 AND 10",
];

/// Value equality with float tolerance: partial sums combine in a
/// different order than a sequential fold, so floats may differ in the
/// final ulps. HAVING/ORDER results can differ only if a value sits within
/// tolerance of the predicate threshold, which the query constants avoid.
fn value_approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= scale * 1e-9
        }
        _ => a == b,
    }
}

fn rows_approx_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.values.len() == rb.values.len()
                && ra
                    .values
                    .iter()
                    .zip(&rb.values)
                    .all(|(x, y)| value_approx_eq(x, y))
        })
}

fn partitioners() -> Vec<(usize, Partitioner)> {
    vec![
        (
            4,
            Partitioner::Hash {
                column: "id".into(),
            },
        ),
        (
            3,
            Partitioner::Range {
                column: "x".into(),
                bounds: vec![30.0, 60.0],
            },
        ),
        (
            4,
            Partitioner::SpatialGrid {
                x_column: "x".into(),
                y_column: "y".into(),
                cols: 2,
                rows: 2,
                width: 100.0,
                height: 100.0,
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn parallel_equals_single_node(
        points in prop::collection::vec(
            (0..1000i64, 0.0..100.0f64, 0.0..100.0f64, 0..5i64),
            0..80,
        ),
    ) {
        let mut reference = Database::new();
        reference.create_table("pts", schema()).unwrap();
        for (id, x, y, g) in &points {
            reference.insert("pts", make_row(*id, *x, *y, *g)).unwrap();
        }

        for (n, p) in partitioners() {
            let pdb = sharded(
                n,
                p,
                points
                    .iter()
                    .map(|(id, x, y, g)| make_row(*id, *x, *y, *g))
                    .collect(),
            );

            for q in QUERIES {
                let par = query(&pdb, q, &[]);
                let mut seq = reference.query(q, &[]).unwrap();
                prop_assert_eq!(column_names(&par), column_names(&seq), "query {}", q);
                // row order for unsorted queries is unspecified; normalize
                let by_all_cols = |a: &Row, b: &Row| {
                    a.values
                        .iter()
                        .zip(&b.values)
                        .map(|(x, y)| x.total_cmp(y))
                        .find(|o| *o != std::cmp::Ordering::Equal)
                        .unwrap_or(std::cmp::Ordering::Equal)
                };
                let (par_rows, seq_rows) = if !q.contains("ORDER BY") {
                    // row order for unsorted queries is unspecified
                    let mut pr = par.rows.clone();
                    pr.sort_by(by_all_cols);
                    seq.rows.sort_by(by_all_cols);
                    (pr, seq.rows.clone())
                } else {
                    (par.rows.clone(), seq.rows.clone())
                };
                prop_assert!(
                    rows_approx_eq(&par_rows, &seq_rows),
                    "query {}\n parallel: {:?}\n   serial: {:?}",
                    q,
                    par_rows,
                    seq_rows
                );
            }
        }
    }
}

// ------------------------------------------------------------- edge cases

#[test]
fn empty_partitioned_table_answers_all_query_shapes() {
    let pdb = sharded(
        4,
        Partitioner::Hash {
            column: "id".into(),
        },
        Vec::new(),
    );

    let r = query(&pdb, "SELECT COUNT(*) FROM pts", &[]);
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Int(0));

    let r = query(&pdb, "SELECT g, SUM(x) FROM pts GROUP BY g", &[]);
    assert!(r.rows.is_empty());

    let r = query(&pdb, "SELECT id FROM pts ORDER BY x DESC LIMIT 3", &[]);
    assert!(r.rows.is_empty());
    assert_eq!(r.schema.len(), 1);
}

#[test]
fn limit_zero_and_huge_offset() {
    let pdb = sharded(
        2,
        Partitioner::Hash {
            column: "id".into(),
        },
        (0..20).map(|i| make_row(i, i as f64, 0.0, i % 3)).collect(),
    );
    let r = query(&pdb, "SELECT id FROM pts LIMIT 0", &[]);
    assert!(r.rows.is_empty());
    let r = query(
        &pdb,
        "SELECT id FROM pts ORDER BY id LIMIT 5 OFFSET 1000",
        &[],
    );
    assert!(r.rows.is_empty());
    let r = query(
        &pdb,
        "SELECT id FROM pts ORDER BY id LIMIT 5 OFFSET 18",
        &[],
    );
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0), &Value::Int(18));
}

#[test]
fn coordinator_having_uses_original_params() {
    let pdb = sharded(
        3,
        Partitioner::Range {
            column: "x".into(),
            bounds: vec![30.0, 60.0],
        },
        (0..90).map(|i| make_row(i, i as f64, 0.0, i % 2)).collect(),
    );
    // HAVING references a parameter, evaluated at the coordinator
    let q = "SELECT g, COUNT(*) AS n FROM pts GROUP BY g HAVING n > $1";
    let r = query(&pdb, q, &[Value::Int(44)]);
    assert_eq!(r.rows.len(), 2); // both groups have 45
    let r = query(&pdb, q, &[Value::Int(45)]);
    assert!(r.rows.is_empty());
}
