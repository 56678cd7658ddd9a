//! Microbenchmarks of the storage substrate's access paths — the pieces
//! whose relative costs drive the Figure 6/7 shapes:
//!
//! * R-tree rectangle queries (the spatial design's unit of work),
//! * STR bulk loading vs. incremental R-tree inserts (precompute cost),
//! * end-to-end SQL for one tile via both database designs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kyrix_storage::rtree::RTree;
use kyrix_storage::{
    DataType, Database, IndexKind, Prepared, Rect, Row, Schema, SpatialCols, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 100_000;
const WORLD: f64 = 10_000.0;

fn random_points(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_range(0.0..WORLD), rng.gen_range(0.0..WORLD)))
        .collect()
}

fn rtree_query(c: &mut Criterion) {
    let pts = random_points(N, 1);
    let tree = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, (x, y))| (Rect::point(*x, *y), i as u64))
            .collect(),
    );
    let mut group = c.benchmark_group("index_micro/rtree_query");
    for size in [100.0, 500.0, 2000.0] {
        let q = Rect::new(4000.0, 4000.0, 4000.0 + size, 4000.0 + size);
        group.bench_with_input(BenchmarkId::from_parameter(size as u64), &q, |b, q| {
            b.iter(|| tree.count_intersecting(q));
        });
    }
    group.finish();
}

fn rtree_build(c: &mut Criterion) {
    let pts = random_points(20_000, 2);
    let items: Vec<(Rect, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, (x, y))| (Rect::point(*x, *y), i as u64))
        .collect();
    let mut group = c.benchmark_group("index_micro/rtree_build");
    group.sample_size(10);
    group.bench_function("str_bulk_load", |b| {
        b.iter(|| RTree::bulk_load(items.clone()));
    });
    group.bench_function("incremental_insert", |b| {
        b.iter(|| {
            let mut t = RTree::new();
            for (r, v) in &items {
                t.insert(*r, *v);
            }
            t
        });
    });
    group.finish();
}

/// One tile fetched end-to-end through SQL via both database designs.
fn sql_designs(c: &mut Criterion) {
    let tile = 1000.0;
    let mut db = Database::new();
    db.create_table(
        "rec",
        Schema::empty()
            .with("tuple_id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float),
    )
    .unwrap();
    db.create_table(
        "map",
        Schema::empty()
            .with("tuple_id", DataType::Int)
            .with("tile_id", DataType::Int),
    )
    .unwrap();
    let pts = random_points(N, 4);
    for (i, (x, y)) in pts.iter().enumerate() {
        db.insert(
            "rec",
            Row::new(vec![
                Value::Int(i as i64),
                Value::Float(*x),
                Value::Float(*y),
            ]),
        )
        .unwrap();
        let t = (*x / tile) as i64 + (*y / tile) as i64 * 10;
        db.insert("map", Row::new(vec![Value::Int(i as i64), Value::Int(t)]))
            .unwrap();
    }
    db.create_index(
        "rec",
        "bt_tuple",
        IndexKind::BTree {
            column: "tuple_id".into(),
        },
    )
    .unwrap();
    db.create_index(
        "map",
        "bt",
        IndexKind::BTree {
            column: "tile_id".into(),
        },
    )
    .unwrap();
    db.create_index(
        "rec",
        "sp",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();

    let mut group = c.benchmark_group("index_micro/sql_tile_fetch");
    group.sample_size(20);
    let join = db
        .prepare("SELECT r.* FROM map m JOIN rec r ON m.tuple_id = r.tuple_id WHERE m.tile_id = $1")
        .unwrap();
    group.bench_function("tuple_tile_mapping_join", |b| {
        b.iter(|| db.execute(&join, &[Value::Int(44)]).unwrap().rows.len());
    });
    let spatial = db
        .prepare("SELECT * FROM rec WHERE bbox && rect($1, $2, $3, $4)")
        .unwrap();
    group.bench_function("spatial_rect", |b| {
        b.iter(|| {
            db.execute(
                &spatial,
                &[
                    Value::Float(4000.0),
                    Value::Float(4000.0),
                    Value::Float(5000.0),
                    Value::Float(5000.0),
                ],
            )
            .unwrap()
            .rows
            .len()
        });
    });

    // The serving shape: `SELECT *` over a 12-column LoD level table,
    // ~465 rows per rectangle (zoom_cold's rows per covering tile) — the
    // standalone number beside the benchmark's `storage.execute_us`.
    // tail 0 is the bare statement, tail 7 the separable store's, whose
    // rows are decoded with room for the geometry columns.
    load_level_table(&mut db, &pts);
    // 100k points on 10k x 10k: a 682-unit square holds ~465 of them
    let rect = [4000.0, 4000.0, 4682.0, 4682.0].map(Value::Float);
    for tail in [0, 7] {
        let star = Prepared::new("SELECT * FROM lvl WHERE bbox && rect($1, $2, $3, $4)")
            .unwrap()
            .reserving(tail);
        group.bench_function(format!("spatial_rect_star/tail{tail}"), |b| {
            b.iter(|| db.execute(&star, &rect).unwrap().rows.len());
        });
    }
    group.finish();
}

/// Table `lvl`: one mark per point in the 12-column shape of a LoD level
/// table, with the point R-tree on `(cx, cy)` the server fetches through.
fn load_level_table(db: &mut Database, pts: &[(f64, f64)]) {
    let mut schema = Schema::empty()
        .with("id", DataType::Int)
        .with("cx", DataType::Float)
        .with("cy", DataType::Float)
        .with("cnt", DataType::Int);
    for name in [
        "sum_a", "avg_a", "sum_b", "avg_b", "minx", "miny", "maxx", "maxy",
    ] {
        schema = schema.with(name, DataType::Float);
    }
    db.create_table("lvl", schema).unwrap();
    for (i, (x, y)) in pts.iter().enumerate() {
        let mut values = vec![
            Value::Int(i as i64),
            Value::Float(*x),
            Value::Float(*y),
            Value::Int(1 + (i % 9) as i64),
        ];
        values.extend([0.5, 0.5, 2.5, 2.5, *x, *y, *x, *y].map(Value::Float));
        db.insert("lvl", Row::new(values)).unwrap();
    }
    db.create_index(
        "lvl",
        "sp",
        IndexKind::Spatial(SpatialCols::Point {
            x: "cx".into(),
            y: "cy".into(),
        }),
    )
    .unwrap();
}

/// The cold side of `spatial_rect_star`: the same 12-column level-table
/// shape at a million rows (~185 MB of heap, past any cache), one
/// ~465-row rectangle per iteration along a shuffled tour of 2,048, so
/// the pages a query reads were last touched a whole tour ago — first on
/// the heap as loaded (rows in random spatial order), then on the same
/// table after `cluster`. One statement on both sides; the standalone
/// number beside the in-situ `fetch_filter` share of a cold interaction.
fn sql_cold_tile_fetch(c: &mut Criterion) {
    const ROWS: usize = 1_000_000;
    const TOUR: usize = 2048;
    let mut db = Database::new();
    load_level_table(&mut db, &random_points(ROWS, 6));
    // a million points on 10k x 10k: a 215.6-unit square holds ~465
    let side = WORLD * (465.0 / ROWS as f64).sqrt();
    let tour: Vec<[Value; 4]> = random_points(TOUR, 7)
        .into_iter()
        .map(|(x, y)| {
            let (x, y) = (x.min(WORLD - side), y.min(WORLD - side));
            [x, y, x + side, y + side].map(Value::Float)
        })
        .collect();
    let star = Prepared::new("SELECT * FROM lvl WHERE bbox && rect($1, $2, $3, $4)").unwrap();

    let mut group = c.benchmark_group("index_micro/sql_tile_fetch");
    group.sample_size(TOUR);
    for heap in ["insertion_order", "clustered"] {
        if heap == "clustered" {
            db.cluster("lvl", "sp").unwrap();
        }
        let mut stop = 0;
        group.bench_function(format!("cold_1m/{heap}"), |b| {
            b.iter(|| {
                stop = (stop + 1) % TOUR;
                db.execute(&star, &tour[stop]).unwrap().rows.len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    rtree_query,
    rtree_build,
    sql_designs,
    sql_cold_tile_fetch
);
criterion_main!(benches);
