//! Integration tests for the extended SQL surface: aggregates, GROUP BY /
//! HAVING, multi-key ORDER BY, OFFSET, DML statements, and EXPLAIN.

use kyrix_storage::{DataType, Database, IndexKind, Row, Schema, Value};

/// Crime-rate style table: (state, county, rate, pop).
fn crimes_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "crimes",
        Schema::empty()
            .with("state", DataType::Text)
            .with("county", DataType::Text)
            .with("rate", DataType::Float)
            .with("pop", DataType::Int),
    )
    .unwrap();
    let rows = [
        ("MA", "Suffolk", 7.0, 800_000),
        ("MA", "Middlesex", 3.0, 1_600_000),
        ("MA", "Norfolk", 2.0, 700_000),
        ("NY", "Kings", 9.0, 2_600_000),
        ("NY", "Queens", 6.0, 2_300_000),
        ("CA", "Alameda", 8.0, 1_600_000),
    ];
    for (state, county, rate, pop) in rows {
        db.insert(
            "crimes",
            Row::new(vec![
                Value::Text(state.into()),
                Value::Text(county.into()),
                Value::Float(rate),
                Value::Int(pop),
            ]),
        )
        .unwrap();
    }
    db
}

#[test]
fn group_by_count_avg() {
    let db = crimes_db();
    let r = db
        .query(
            "SELECT state, COUNT(*) AS n, AVG(rate) FROM crimes GROUP BY state",
            &[],
        )
        .unwrap();
    assert_eq!(r.schema.len(), 3);
    // deterministic ascending key order: CA, MA, NY
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0].get(0), &Value::Text("CA".into()));
    assert_eq!(r.rows[0].get(1), &Value::Int(1));
    assert_eq!(r.rows[1].get(0), &Value::Text("MA".into()));
    assert_eq!(r.rows[1].get(1), &Value::Int(3));
    assert_eq!(r.rows[1].get(2), &Value::Float(4.0));
    assert_eq!(r.rows[2].get(0), &Value::Text("NY".into()));
    assert_eq!(r.rows[2].get(1), &Value::Int(2));
}

#[test]
fn sum_preserves_int_type_min_max_track_extremes() {
    let db = crimes_db();
    let r = db
        .query("SELECT SUM(pop), MIN(rate), MAX(rate) FROM crimes", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Int(9_600_000));
    assert_eq!(r.rows[0].get(1), &Value::Float(2.0));
    assert_eq!(r.rows[0].get(2), &Value::Float(9.0));
    // output names derive from the argument column
    assert_eq!(r.schema.index_of("sum_pop").unwrap(), 0);
    assert_eq!(r.schema.index_of("min_rate").unwrap(), 1);
}

#[test]
fn aggregate_over_empty_input_yields_single_row() {
    let mut db = Database::new();
    db.create_table("t", Schema::empty().with("x", DataType::Int))
        .unwrap();
    let r = db
        .query("SELECT COUNT(*), SUM(x), AVG(x), MIN(x) FROM t", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Int(0));
    assert_eq!(r.rows[0].get(1), &Value::Null);
    assert_eq!(r.rows[0].get(2), &Value::Null);
    assert_eq!(r.rows[0].get(3), &Value::Null);
    // ... but GROUP BY over empty input yields zero groups
    let r = db
        .query("SELECT x, COUNT(*) FROM t GROUP BY x", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn count_expr_skips_nulls() {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::empty()
            .with("g", DataType::Int)
            .with("x", DataType::Int),
    )
    .unwrap();
    for (g, x) in [(1, Some(10)), (1, None), (1, Some(30)), (2, None)] {
        db.insert(
            "t",
            Row::new(vec![
                Value::Int(g),
                x.map(Value::Int).unwrap_or(Value::Null),
            ]),
        )
        .unwrap();
    }
    let r = db
        .query(
            "SELECT g, COUNT(*) AS all_rows, COUNT(x) AS non_null, SUM(x) \
             FROM t GROUP BY g",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(1), &Value::Int(3)); // g=1 rows
    assert_eq!(r.rows[0].get(2), &Value::Int(2)); // g=1 non-null x
    assert_eq!(r.rows[0].get(3), &Value::Int(40));
    assert_eq!(r.rows[1].get(1), &Value::Int(1)); // g=2 rows
    assert_eq!(r.rows[1].get(2), &Value::Int(0));
    assert_eq!(r.rows[1].get(3), &Value::Null); // all-NULL sum
}

#[test]
fn having_filters_groups() {
    let db = crimes_db();
    let r = db
        .query(
            "SELECT state, COUNT(*) AS n FROM crimes GROUP BY state HAVING n >= 2 \
             ORDER BY n DESC",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0), &Value::Text("MA".into()));
    assert_eq!(r.rows[1].get(0), &Value::Text("NY".into()));
}

#[test]
fn having_may_reference_default_aggregate_names() {
    let db = crimes_db();
    let r = db
        .query(
            "SELECT state, AVG(rate) FROM crimes GROUP BY state HAVING avg_rate > 5",
            &[],
        )
        .unwrap();
    // NY avg 7.5, CA avg 8.0 pass; MA avg 4.0 does not
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn group_by_multiple_keys() {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::empty()
            .with("a", DataType::Int)
            .with("b", DataType::Int)
            .with("v", DataType::Int),
    )
    .unwrap();
    for (a, b, v) in [(1, 1, 5), (1, 2, 6), (1, 1, 7), (2, 1, 8)] {
        db.insert(
            "t",
            Row::new(vec![Value::Int(a), Value::Int(b), Value::Int(v)]),
        )
        .unwrap();
    }
    let r = db
        .query("SELECT a, b, SUM(v) FROM t GROUP BY a, b", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    // ascending (a, b) order
    assert_eq!(
        r.rows[0].values,
        vec![Value::Int(1), Value::Int(1), Value::Int(12)]
    );
    assert_eq!(
        r.rows[1].values,
        vec![Value::Int(1), Value::Int(2), Value::Int(6)]
    );
    assert_eq!(
        r.rows[2].values,
        vec![Value::Int(2), Value::Int(1), Value::Int(8)]
    );
}

#[test]
fn ungrouped_column_is_rejected() {
    let db = crimes_db();
    let e = db.query("SELECT county, COUNT(*) FROM crimes GROUP BY state", &[]);
    assert!(e.is_err());
    let e = db.query("SELECT * FROM crimes GROUP BY state", &[]);
    assert!(e.is_err());
}

#[test]
fn multi_key_order_by_and_offset() {
    let db = crimes_db();
    let r = db
        .query(
            "SELECT state, county FROM crimes ORDER BY state, rate DESC",
            &[],
        )
        .unwrap();
    let names: Vec<&Value> = r.rows.iter().map(|row| row.get(1)).collect();
    assert_eq!(
        names,
        vec![
            &Value::Text("Alameda".into()),
            &Value::Text("Suffolk".into()),
            &Value::Text("Middlesex".into()),
            &Value::Text("Norfolk".into()),
            &Value::Text("Kings".into()),
            &Value::Text("Queens".into()),
        ]
    );
    let r = db
        .query(
            "SELECT county FROM crimes ORDER BY rate DESC LIMIT 2 OFFSET 1",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0), &Value::Text("Alameda".into()));
    assert_eq!(r.rows[1].get(0), &Value::Text("Suffolk".into()));
    // offset past the end yields nothing
    let r = db
        .query("SELECT county FROM crimes LIMIT 5 OFFSET 100", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn order_by_output_alias() {
    let db = crimes_db();
    let r = db
        .query(
            "SELECT county, rate * 2 AS double_rate FROM crimes ORDER BY double_rate DESC LIMIT 1",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Text("Kings".into()));
    assert_eq!(r.rows[0].get(1), &Value::Float(18.0));
}

#[test]
fn order_by_unknown_column_errors() {
    let db = crimes_db();
    assert!(db
        .query("SELECT county FROM crimes ORDER BY nope", &[])
        .is_err());
}

// ----------------------------------------------------------------- DML

#[test]
fn insert_via_sql() {
    let mut db = crimes_db();
    let r = db
        .run(
            "INSERT INTO crimes (state, county, rate, pop) VALUES \
             ('VT', 'Chittenden', 1.5, 170000), ('VT', 'Addison', $1, 40000)",
            &[Value::Float(0.5)],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(2));
    let r = db
        .query("SELECT COUNT(*) FROM crimes WHERE state = 'VT'", &[])
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(2));
}

#[test]
fn insert_without_column_list_and_int_to_float_coercion() {
    let mut db = crimes_db();
    db.run("INSERT INTO crimes VALUES ('NH', 'Coos', 2, 31000)", &[])
        .unwrap();
    let r = db
        .query("SELECT rate FROM crimes WHERE state = 'NH'", &[])
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float(2.0));
}

#[test]
fn insert_partial_columns_defaults_null() {
    let mut db = crimes_db();
    db.run(
        "INSERT INTO crimes (state, county) VALUES ('RI', 'Kent')",
        &[],
    )
    .unwrap();
    let r = db
        .query("SELECT rate, pop FROM crimes WHERE state = 'RI'", &[])
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Null);
    assert_eq!(r.rows[0].get(1), &Value::Null);
}

#[test]
fn insert_arity_and_type_errors() {
    let mut db = crimes_db();
    assert!(db
        .run("INSERT INTO crimes (state) VALUES ('XX', 'extra')", &[])
        .is_err());
    assert!(db
        .run(
            "INSERT INTO crimes VALUES (1, 'north', 3.0, 100)", // state must be text
            &[],
        )
        .is_err());
    assert!(db.run("INSERT INTO nope VALUES (1)", &[]).is_err());
}

#[test]
fn update_via_sql_self_referencing() {
    let mut db = crimes_db();
    let r = db
        .run("UPDATE crimes SET rate = rate + 1 WHERE state = 'MA'", &[])
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(3));
    let r = db
        .query("SELECT SUM(rate) FROM crimes WHERE state = 'MA'", &[])
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float(15.0)); // 12 + 3
}

#[test]
fn update_maintains_indexes() {
    let mut db = crimes_db();
    db.create_index(
        "crimes",
        "by_pop",
        IndexKind::BTree {
            column: "pop".into(),
        },
    )
    .unwrap();
    db.run("UPDATE crimes SET pop = 999 WHERE county = 'Suffolk'", &[])
        .unwrap();
    let r = db
        .query(
            "SELECT county FROM crimes WHERE pop BETWEEN 999 AND 999",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Text("Suffolk".into()));
}

#[test]
fn delete_via_sql_and_delete_all() {
    let mut db = crimes_db();
    let r = db.run("DELETE FROM crimes WHERE rate > 6", &[]).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(3)); // Suffolk, Kings, Alameda
    assert_eq!(db.table("crimes").unwrap().len(), 3);
    let r = db.run("DELETE FROM crimes", &[]).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(3));
    assert!(db.table("crimes").unwrap().is_empty());
}

#[test]
fn query_rejects_dml() {
    let db = crimes_db();
    assert!(db.query("DELETE FROM crimes", &[]).is_err());
    assert!(db.query("INSERT INTO crimes VALUES (1)", &[]).is_err());
}

// -------------------------------------------------------------- EXPLAIN

#[test]
fn explain_shows_access_path() {
    let mut db = crimes_db();
    db.create_index(
        "crimes",
        "by_state",
        IndexKind::BTree {
            column: "state".into(),
        },
    )
    .unwrap();
    let text = |r: &kyrix_storage::QueryResult| -> Vec<String> {
        r.rows
            .iter()
            .map(|row| match row.get(0) {
                Value::Text(s) => s.clone(),
                other => panic!("expected text plan line, got {other:?}"),
            })
            .collect()
    };
    let r = db
        .query("EXPLAIN SELECT * FROM crimes WHERE state = 'MA'", &[])
        .unwrap();
    assert_eq!(text(&r)[0], "IndexEq(crimes)");

    let r = db
        .query(
            "EXPLAIN SELECT state, COUNT(*) AS n FROM crimes GROUP BY state \
             HAVING n > 1 ORDER BY n DESC LIMIT 2",
            &[],
        )
        .unwrap();
    let lines = text(&r);
    assert_eq!(lines[0], "SeqScan(crimes)");
    assert!(lines[1].starts_with("Aggregate(keys=1, aggs=1, having"));
    assert!(lines[2].starts_with("Sort(n DESC"));
    assert!(lines[3].starts_with("Limit"));
}

/// Collect EXPLAIN output as plain strings.
fn explain(db: &Database, sql: &str) -> Vec<String> {
    db.query(sql, &[])
        .unwrap()
        .rows
        .iter()
        .map(|row| match row.get(0) {
            Value::Text(s) => s.clone(),
            other => panic!("expected text plan line, got {other:?}"),
        })
        .collect()
}

fn crimes_db_with_pop_index() -> Database {
    let mut db = crimes_db();
    db.create_index(
        "crimes",
        "by_pop",
        IndexKind::BTree {
            column: "pop".into(),
        },
    )
    .unwrap();
    db
}

/// Golden text: every fast path announces itself by name, so a plan dump
/// proves the shortcut is taken rather than silently skipped.
#[test]
fn explain_announces_fast_paths() {
    let db = crimes_db_with_pop_index();
    assert_eq!(
        explain(&db, "EXPLAIN SELECT COUNT(*) FROM crimes"),
        ["CountStar(table_meta)"]
    );
    assert_eq!(
        explain(&db, "EXPLAIN SELECT MIN(pop) FROM crimes"),
        ["Min(idx by_pop)"]
    );
    assert_eq!(
        explain(
            &db,
            "EXPLAIN SELECT COUNT(*), MIN(pop), MAX(pop) FROM crimes"
        ),
        ["MetaAggregate(CountStar(table_meta), Min(idx by_pop), Max(idx by_pop))"]
    );
    assert_eq!(
        explain(&db, "EXPLAIN SELECT * FROM crimes ORDER BY pop LIMIT 3"),
        ["TopN(by_pop, k=3)"]
    );
    assert_eq!(
        explain(
            &db,
            "EXPLAIN SELECT * FROM crimes ORDER BY pop DESC LIMIT 3 OFFSET 1"
        ),
        ["TopN(by_pop, k=3, offset=1, desc)"]
    );
    assert_eq!(
        explain(
            &db,
            "EXPLAIN SELECT county FROM crimes WHERE rate > 5 ORDER BY pop LIMIT 2"
        ),
        ["TopN(by_pop, k=2, filtered)"]
    );
}

/// Golden text: ineligible shapes fall back to the scan pipeline and say
/// so — a filtered COUNT aggregates over a scan, an un-indexed ORDER BY
/// sorts after a scan (and its LIMIT cannot push down).
#[test]
fn explain_falls_back_when_ineligible() {
    let db = crimes_db_with_pop_index();
    assert_eq!(
        explain(
            &db,
            "EXPLAIN SELECT COUNT(*) FROM crimes WHERE state = 'MA'"
        ),
        ["SeqScan(crimes, filtered)", "Aggregate(keys=0, aggs=1)"]
    );
    assert_eq!(
        explain(&db, "EXPLAIN SELECT MIN(rate) FROM crimes"),
        ["SeqScan(crimes)", "Aggregate(keys=0, aggs=1)"]
    );
    assert_eq!(
        explain(&db, "EXPLAIN SELECT * FROM crimes ORDER BY rate LIMIT 2"),
        ["SeqScan(crimes)", "Sort(rate)", "Limit(2)"]
    );
}

/// Golden text for the Limit line itself: plain integers, absent fields
/// omitted (no `Some(..)`/`None` Debug leakage), and a `pushdown` marker
/// exactly when the cap reaches the scan.
#[test]
fn explain_limit_line_renders_plain_integers() {
    let db = crimes_db_with_pop_index();
    assert_eq!(
        explain(&db, "EXPLAIN SELECT county FROM crimes LIMIT 10"),
        ["SeqScan(crimes)", "Limit(10, pushdown)"]
    );
    assert_eq!(
        explain(&db, "EXPLAIN SELECT county FROM crimes LIMIT 10 OFFSET 5"),
        ["SeqScan(crimes)", "Limit(10, offset=5, pushdown)"]
    );
    assert_eq!(
        explain(&db, "EXPLAIN SELECT county FROM crimes OFFSET 5"),
        ["SeqScan(crimes)", "Offset(5)"]
    );
    // Aggregates consume the whole input before LIMIT applies: no pushdown.
    let lines = explain(
        &db,
        "EXPLAIN SELECT state, COUNT(*) FROM crimes GROUP BY state LIMIT 2",
    );
    assert_eq!(lines.last().unwrap(), "Limit(2)");
    for line in &lines {
        assert!(
            !line.contains("Some(") && !line.contains("None"),
            "Debug formatting leaked into plan line: {line}"
        );
    }
}

// ---------------------------------------------------- property: vs naive

mod vs_naive {
    use super::*;
    use proptest::prelude::*;

    /// Rows of (group in 0..5, value in -100..100 or NULL).
    fn rows_strategy() -> impl Strategy<Value = Vec<(i64, Option<i64>)>> {
        prop::collection::vec((0..5i64, prop::option::of(-100..100i64)), 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn group_by_matches_naive(rows in rows_strategy()) {
            let mut db = Database::new();
            db.create_table(
                "t",
                Schema::empty().with("g", DataType::Int).with("x", DataType::Int),
            )
            .unwrap();
            for (g, x) in &rows {
                db.insert(
                    "t",
                    Row::new(vec![
                        Value::Int(*g),
                        x.map(Value::Int).unwrap_or(Value::Null),
                    ]),
                )
                .unwrap();
            }
            let r = db
                .query(
                    "SELECT g, COUNT(*) AS n, COUNT(x) AS nx, SUM(x), MIN(x), MAX(x) \
                     FROM t GROUP BY g",
                    &[],
                )
                .unwrap();

            // naive model: (count, count_non_null, sum, min, max) per group
            use std::collections::BTreeMap;
            type GroupStats = (i64, i64, Option<i64>, Option<i64>, Option<i64>);
            let mut model: BTreeMap<i64, GroupStats> = BTreeMap::new();
            for (g, x) in &rows {
                let e = model.entry(*g).or_insert((0, 0, None, None, None));
                e.0 += 1;
                if let Some(x) = x {
                    e.1 += 1;
                    e.2 = Some(e.2.unwrap_or(0) + x);
                    e.3 = Some(e.3.map_or(*x, |m: i64| m.min(*x)));
                    e.4 = Some(e.4.map_or(*x, |m: i64| m.max(*x)));
                }
            }

            prop_assert_eq!(r.rows.len(), model.len());
            for (row, (g, (n, nx, sum, min, max))) in r.rows.iter().zip(model) {
                prop_assert_eq!(row.get(0), &Value::Int(g));
                prop_assert_eq!(row.get(1), &Value::Int(n));
                prop_assert_eq!(row.get(2), &Value::Int(nx));
                prop_assert_eq!(row.get(3), &sum.map(Value::Int).unwrap_or(Value::Null));
                prop_assert_eq!(row.get(4), &min.map(Value::Int).unwrap_or(Value::Null));
                prop_assert_eq!(row.get(5), &max.map(Value::Int).unwrap_or(Value::Null));
            }
        }

        #[test]
        fn order_offset_limit_matches_naive(
            rows in rows_strategy(),
            offset in 0u64..20,
            limit in 0u64..20,
        ) {
            let mut db = Database::new();
            db.create_table(
                "t",
                Schema::empty().with("g", DataType::Int).with("x", DataType::Int),
            )
            .unwrap();
            for (g, x) in &rows {
                db.insert(
                    "t",
                    Row::new(vec![
                        Value::Int(*g),
                        x.map(Value::Int).unwrap_or(Value::Null),
                    ]),
                )
                .unwrap();
            }
            let r = db
                .query(
                    &format!(
                        "SELECT g, x FROM t WHERE x != 0 ORDER BY g, x DESC \
                         LIMIT {limit} OFFSET {offset}"
                    ),
                    &[],
                )
                .unwrap();

            // naive: filter nulls & zeros (NULL comparisons are false),
            // stable sort by (g asc, x desc)
            let mut expect: Vec<(i64, i64)> = rows
                .iter()
                .filter_map(|(g, x)| x.filter(|&x| x != 0).map(|x| (*g, x)))
                .collect();
            expect.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let expect: Vec<(i64, i64)> = expect
                .into_iter()
                .skip(offset as usize)
                .take(limit as usize)
                .collect();

            prop_assert_eq!(r.rows.len(), expect.len());
            for (row, (g, x)) in r.rows.iter().zip(expect) {
                prop_assert_eq!(row.get(0), &Value::Int(g));
                prop_assert_eq!(row.get(1), &Value::Int(x));
            }
        }

        #[test]
        fn sql_dml_matches_api_dml(rows in rows_strategy(), cut in -50..50i64) {
            // the same edit through `run("DELETE ...")` and through
            // `delete_where` must leave identical tables
            let build = || {
                let mut db = Database::new();
                db.create_table(
                    "t",
                    Schema::empty().with("g", DataType::Int).with("x", DataType::Int),
                )
                .unwrap();
                for (g, x) in &rows {
                    db.insert(
                        "t",
                        Row::new(vec![
                            Value::Int(*g),
                            x.map(Value::Int).unwrap_or(Value::Null),
                        ]),
                    )
                    .unwrap();
                }
                db
            };
            let mut via_sql = build();
            let mut via_api = build();
            let n1 = via_sql.run("DELETE FROM t WHERE x < $1", &[Value::Int(cut)]).unwrap();
            let n2 = via_api.delete_where("t", "x < $1", &[Value::Int(cut)]).unwrap();
            prop_assert_eq!(n1.rows[0].get(0), &Value::Int(n2 as i64));
            let remaining = |db: &Database| {
                let r = db.query("SELECT g, x FROM t ORDER BY g, x", &[]).unwrap();
                r.rows
            };
            prop_assert_eq!(remaining(&via_sql), remaining(&via_api));
        }
    }
}

// -------------------------------------------------- aggregates over joins

#[test]
fn group_by_over_join_output() {
    let mut db = crimes_db();
    db.create_table(
        "regions",
        Schema::empty()
            .with("state", DataType::Text)
            .with("region", DataType::Text),
    )
    .unwrap();
    for (state, region) in [("MA", "northeast"), ("NY", "northeast"), ("CA", "west")] {
        db.insert(
            "regions",
            Row::new(vec![Value::Text(state.into()), Value::Text(region.into())]),
        )
        .unwrap();
    }
    let r = db
        .query(
            "SELECT r.region, COUNT(*) AS n, SUM(c.pop) FROM crimes c \
             JOIN regions r ON c.state = r.state \
             GROUP BY r.region ORDER BY n DESC",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0), &Value::Text("northeast".into()));
    assert_eq!(r.rows[0].get(1), &Value::Int(5)); // 3 MA + 2 NY
    assert_eq!(r.rows[0].get(2), &Value::Int(8_000_000));
    assert_eq!(r.rows[1].get(0), &Value::Text("west".into()));
    assert_eq!(r.rows[1].get(1), &Value::Int(1));
}

#[test]
fn explain_join_plan() {
    let mut db = crimes_db();
    db.create_table(
        "regions",
        Schema::empty()
            .with("state", DataType::Text)
            .with("region", DataType::Text),
    )
    .unwrap();
    db.create_index(
        "regions",
        "by_state",
        IndexKind::BTree {
            column: "state".into(),
        },
    )
    .unwrap();
    let r = db
        .query(
            "EXPLAIN SELECT c.county, r.region FROM crimes c \
             JOIN regions r ON c.state = r.state WHERE c.rate > 5",
            &[],
        )
        .unwrap();
    let line = match r.rows[0].get(0) {
        Value::Text(s) => s.clone(),
        other => panic!("{other:?}"),
    };
    assert!(
        line.contains("IndexJoin"),
        "join should probe the hash index: {line}"
    );
}

#[test]
fn aggregate_with_params_in_where_and_having() {
    let db = crimes_db();
    let r = db
        .query(
            "SELECT state, COUNT(*) AS n FROM crimes WHERE pop > $1 \
             GROUP BY state HAVING n >= $2",
            &[Value::Int(750_000), Value::Int(2)],
        )
        .unwrap();
    // pop > 750k: MA{Suffolk,Middlesex}, NY{Kings,Queens}, CA{Alameda}
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn limit_zero_and_degenerate_clauses() {
    let db = crimes_db();
    let r = db.query("SELECT * FROM crimes LIMIT 0", &[]).unwrap();
    assert!(r.rows.is_empty());
    let r = db
        .query(
            "SELECT state, COUNT(*) FROM crimes GROUP BY state LIMIT 0",
            &[],
        )
        .unwrap();
    assert!(r.rows.is_empty());
    let r = db
        .query("SELECT COUNT(*) FROM crimes OFFSET 1", &[])
        .unwrap();
    assert!(
        r.rows.is_empty(),
        "single aggregate row skipped by OFFSET 1"
    );
}

// ---------------------------------------------------------------- DDL

#[test]
fn create_table_insert_query_via_sql_only() {
    let mut db = Database::new();
    db.run(
        "CREATE TABLE cities (id INT, name TEXT, lng FLOAT, lat FLOAT, capital BOOL)",
        &[],
    )
    .unwrap();
    db.run(
        "INSERT INTO cities VALUES (1, 'Boston', -71.06, 42.36, true), \
         (2, 'Worcester', -71.80, 42.26, false)",
        &[],
    )
    .unwrap();
    let r = db
        .query("SELECT name FROM cities WHERE capital = true", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Text("Boston".into()));
    // type synonyms parse
    db.run(
        "CREATE TABLE t2 (a INTEGER, b DOUBLE, c VARCHAR, d BOOLEAN)",
        &[],
    )
    .unwrap();
    assert!(db.run("CREATE TABLE t3 (a BLOB)", &[]).is_err());
}

#[test]
fn create_index_via_sql_changes_plans() {
    let mut db = Database::new();
    db.run("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)", &[])
        .unwrap();
    for i in 0..50 {
        db.run(
            "INSERT INTO pts VALUES ($1, $2, $3)",
            &[
                Value::Int(i),
                Value::Float(i as f64),
                Value::Float((i % 7) as f64),
            ],
        )
        .unwrap();
    }
    // no index: seq scan
    let plan_line = |db: &Database, q: &str| -> String {
        let r = db.query(&format!("EXPLAIN {q}"), &[]).unwrap();
        match r.rows[0].get(0) {
            Value::Text(s) => s.clone(),
            other => panic!("{other:?}"),
        }
    };
    assert!(plan_line(&db, "SELECT * FROM pts WHERE id = 7").starts_with("SeqScan"));

    db.run("CREATE INDEX pts_id ON pts USING BTREE (id)", &[])
        .unwrap();
    assert!(plan_line(&db, "SELECT * FROM pts WHERE id = 7").starts_with("IndexEq"));

    db.run("CREATE INDEX pts_x ON pts (x)", &[]).unwrap(); // default BTREE
    assert!(plan_line(&db, "SELECT * FROM pts WHERE x BETWEEN 1 AND 3").starts_with("IndexRange"));

    db.run("CREATE INDEX pts_xy ON pts USING SPATIAL (x, y)", &[])
        .unwrap();
    assert!(
        plan_line(&db, "SELECT * FROM pts WHERE bbox && rect(0,0,3,3)").starts_with("SpatialScan")
    );
    let r = db
        .query(
            "SELECT COUNT(*) FROM pts WHERE bbox && rect(0, 0, 3, 3)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(4)); // (0,0),(1,1),(2,2),(3,3)
}

#[test]
fn drop_table_via_sql() {
    let mut db = Database::new();
    db.run("CREATE TABLE t (a INT)", &[]).unwrap();
    db.run("DROP TABLE t", &[]).unwrap();
    assert!(!db.has_table("t"));
    assert!(db.run("DROP TABLE t", &[]).is_err());
    // DDL through the read-only entry point is rejected
    assert!(db.query("CREATE TABLE x (a INT)", &[]).is_err());
}

#[test]
fn create_index_rejects_bad_specs() {
    let mut db = Database::new();
    db.run("CREATE TABLE t (a INT, b FLOAT)", &[]).unwrap();
    assert!(db
        .run("CREATE INDEX i ON t USING SPATIAL (a)", &[])
        .is_err());
    // the two index methods a statement can name are the two it gets
    let Err(e) = db.run("CREATE INDEX i ON t USING HASH (a)", &[]) else {
        panic!("USING HASH must not parse");
    };
    let msg = e.to_string();
    assert!(msg.contains("BTREE") && msg.contains("SPATIAL"), "{msg}");
    assert!(db.run("CREATE INDEX i ON t USING GIST (a)", &[]).is_err());
    assert!(db.run("CREATE INDEX i ON nope (a)", &[]).is_err());
}
