//! SQL executor integration tests: join strategies, projections,
//! planner choices and edge cases beyond the unit tests.

use kyrix_storage::sql::{parse, plan_select};
use kyrix_storage::{DataType, Database, IndexKind, Row, Schema, SpatialCols, StorageError, Value};

/// Orders/items database exercising joins in both directions.
fn shop_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "items",
        Schema::empty()
            .with("item_id", DataType::Int)
            .with("name", DataType::Text)
            .with("price", DataType::Float),
    )
    .unwrap();
    db.create_table(
        "orders",
        Schema::empty()
            .with("order_id", DataType::Int)
            .with("item_id", DataType::Int)
            .with("qty", DataType::Int),
    )
    .unwrap();
    for i in 0..20i64 {
        db.insert(
            "items",
            Row::new(vec![
                Value::Int(i),
                Value::Text(format!("item{i}")),
                Value::Float(i as f64 * 1.5),
            ]),
        )
        .unwrap();
    }
    for o in 0..100i64 {
        db.insert(
            "orders",
            Row::new(vec![
                Value::Int(o),
                Value::Int(o % 20),
                Value::Int(1 + o % 3),
            ]),
        )
        .unwrap();
    }
    db
}

#[test]
fn hash_join_without_indexes() {
    let db = shop_db();
    let stmt = parse(
        "SELECT o.order_id, name FROM orders o JOIN items i ON o.item_id = i.item_id \
         WHERE o.order_id < 5",
    )
    .unwrap();
    let plan = plan_select(&db, &stmt).unwrap();
    assert!(
        plan.describe().starts_with("HashJoin("),
        "{}",
        plan.describe()
    );
    let r = db
        .query(
            "SELECT o.order_id, name FROM orders o JOIN items i ON o.item_id = i.item_id \
             WHERE o.order_id < 5",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.value(0, "name").unwrap(), &Value::Text("item0".into()));
}

#[test]
fn index_join_used_when_available() {
    let mut db = shop_db();
    db.create_index(
        "items",
        "items_pk",
        IndexKind::BTree {
            column: "item_id".into(),
        },
    )
    .unwrap();
    let sql = "SELECT i.* FROM orders o JOIN items i ON o.item_id = i.item_id \
               WHERE o.order_id = 7";
    let stmt = parse(sql).unwrap();
    let plan = plan_select(&db, &stmt).unwrap();
    assert!(
        plan.describe().starts_with("IndexJoin("),
        "{}",
        plan.describe()
    );
    let r = db.query(sql, &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.value(0, "item_id").unwrap(), &Value::Int(7));
}

#[test]
fn join_direction_swaps_to_indexed_side() {
    let mut db = shop_db();
    // index only on orders.item_id: the planner should probe orders as the
    // inner side even though it is the FROM table's join partner
    db.create_index(
        "orders",
        "orders_item",
        IndexKind::BTree {
            column: "item_id".into(),
        },
    )
    .unwrap();
    let sql = "SELECT o.order_id FROM orders o JOIN items i ON o.item_id = i.item_id \
               WHERE i.price > 25";
    let stmt = parse(sql).unwrap();
    let plan = plan_select(&db, &stmt).unwrap();
    assert!(
        plan.describe().contains("-> orders"),
        "orders probed as inner: {}",
        plan.describe()
    );
    let r = db.query(sql, &[]).unwrap();
    // price > 25 -> items 17..19 -> 5 orders each
    assert_eq!(r.rows.len(), 15);
}

#[test]
fn projection_expressions_and_aliases() {
    let db = shop_db();
    let r = db
        .query(
            "SELECT name, price * 2 AS double_price, qty FROM orders o \
             JOIN items i ON o.item_id = i.item_id WHERE o.order_id = 3",
            &[],
        )
        .unwrap();
    assert_eq!(r.schema.index_of("double_price").unwrap(), 1);
    assert_eq!(r.value(0, "double_price").unwrap(), &Value::Float(9.0));
    assert_eq!(r.value(0, "qty").unwrap(), &Value::Int(1));
}

#[test]
fn order_by_on_join_output() {
    let db = shop_db();
    let r = db
        .query(
            "SELECT o.order_id FROM orders o JOIN items i ON o.item_id = i.item_id \
             WHERE i.item_id = 4 ORDER BY o.order_id DESC LIMIT 2",
            &[],
        )
        .unwrap();
    let ids: Vec<i64> = r
        .rows
        .iter()
        .map(|row| row.get(0).as_i64().unwrap())
        .collect();
    assert_eq!(ids, vec![84, 64]);
}

#[test]
fn count_star_on_join() {
    let db = shop_db();
    let r = db
        .query(
            "SELECT COUNT(*) FROM orders o JOIN items i ON o.item_id = i.item_id",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(100));
}

#[test]
fn ambiguous_join_column_is_an_error() {
    let db = shop_db();
    // item_id exists on both sides
    let e = db.query(
        "SELECT item_id FROM orders o JOIN items i ON o.item_id = i.item_id",
        &[],
    );
    assert!(matches!(e, Err(StorageError::PlanError(_))), "{e:?}");
}

#[test]
fn qualified_star_follows_from_joined_order() {
    let db = shop_db();
    let r = db
        .query(
            "SELECT i.*, o.qty FROM orders o JOIN items i ON o.item_id = i.item_id \
             WHERE o.order_id = 0",
            &[],
        )
        .unwrap();
    assert_eq!(r.schema.len(), 4);
    assert_eq!(r.schema.column(0).name, "item_id");
    assert_eq!(r.schema.column(3).name, "qty");
}

#[test]
fn planner_prefers_spatial_then_residual_filter() {
    let mut db = Database::new();
    db.create_table(
        "pts",
        Schema::empty()
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("kind", DataType::Int),
    )
    .unwrap();
    for i in 0..100i64 {
        db.insert(
            "pts",
            Row::new(vec![
                Value::Float((i % 10) as f64),
                Value::Float((i / 10) as f64),
                Value::Int(i % 2),
            ]),
        )
        .unwrap();
    }
    db.create_index(
        "pts",
        "sp",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();
    let sql = "SELECT COUNT(*) FROM pts WHERE bbox && rect(0, 0, 3, 3) AND kind = 1";
    let stmt = parse(sql).unwrap();
    let plan = plan_select(&db, &stmt).unwrap();
    assert_eq!(plan.describe(), "SpatialScan(pts)");
    let r = db.query(sql, &[]).unwrap();
    // 4x4 region has 16 dots, half of kind 1
    assert_eq!(r.rows[0].get(0), &Value::Int(8));
}

#[test]
fn boolean_algebra_in_where() {
    let db = shop_db();
    let r = db
        .query(
            "SELECT COUNT(*) FROM items WHERE NOT (price < 10 OR price > 20)",
            &[],
        )
        .unwrap();
    // price in [10, 20]: item ids 7..=13 -> prices 10.5..19.5
    assert_eq!(r.rows[0].get(0), &Value::Int(7));
}

#[test]
fn between_without_index_falls_back_to_scan() {
    let db = shop_db();
    let stmt = parse("SELECT * FROM items WHERE price BETWEEN 3 AND 6").unwrap();
    let plan = plan_select(&db, &stmt).unwrap();
    assert_eq!(plan.describe(), "SeqScan(items, filtered)");
    let r = db
        .query("SELECT * FROM items WHERE price BETWEEN 3 AND 6", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 3); // prices 3.0, 4.5, 6.0
}

#[test]
fn text_comparisons() {
    let db = shop_db();
    let r = db
        .query("SELECT name FROM items WHERE name = 'item5'", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db
        .query(
            "SELECT COUNT(*) FROM items WHERE name >= 'item18' AND name <= 'item19'",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(2));
}

#[test]
fn params_typed_correctly() {
    let db = shop_db();
    // int param against float column compares numerically
    let r = db
        .query(
            "SELECT COUNT(*) FROM items WHERE price = $1",
            &[Value::Int(3)],
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(1)); // item 2: price 3.0
}
