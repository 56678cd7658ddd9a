//! Micro-benchmarks of the substrate extensions: SQL aggregation and
//! placement-by-example synthesis.

use criterion::{criterion_group, criterion_main, Criterion};
use kyrix_bench::ExperimentConfig;
use kyrix_core::{synthesize_placement, PlacementExample};
use kyrix_storage::{DataType, Database, Row, Schema, Value};
use kyrix_workload::load_uniform;

fn dots_db() -> (Database, usize) {
    let cfg = ExperimentConfig::tiny();
    let mut db = Database::new();
    let n = load_uniform(&mut db, &cfg.dots).expect("load");
    (db, n)
}

/// GROUP BY rollup vs. plain filtered count over the same scan.
fn bench_sql_aggregate(c: &mut Criterion) {
    let (mut db, _) = dots_db();
    // integer bucket column for grouping
    db.run("UPDATE dots SET weight = weight * 10", &[])
        .expect("bucketize");
    let mut group = c.benchmark_group("sql_aggregate");
    group.bench_function("count_filtered", |b| {
        b.iter(|| {
            db.query("SELECT COUNT(*) FROM dots WHERE weight > 5", &[])
                .expect("count")
        })
    });
    group.bench_function("group_by_rollup", |b| {
        b.iter(|| {
            db.query(
                "SELECT id, COUNT(*) AS n FROM dots GROUP BY id HAVING n > 0 LIMIT 5",
                &[],
            )
            .expect("rollup")
        })
    });
    group.bench_function("global_aggregates", |b| {
        b.iter(|| {
            db.query(
                "SELECT COUNT(*), SUM(weight), AVG(weight), MIN(x), MAX(y) FROM dots",
                &[],
            )
            .expect("aggregates")
        })
    });
    group.finish();
}

/// Placement-by-example synthesis cost over growing example sets.
fn bench_by_example(c: &mut Criterion) {
    let schema = Schema::empty()
        .with("id", DataType::Int)
        .with("lng", DataType::Float)
        .with("lat", DataType::Float)
        .with("pop", DataType::Float);
    let examples: Vec<PlacementExample> = (0..200)
        .map(|i| {
            let lng = -120.0 + i as f64 * 0.25;
            let lat = 25.0 + (i % 23) as f64;
            PlacementExample::new(
                Row::new(vec![
                    Value::Int(i),
                    Value::Float(lng),
                    Value::Float(lat),
                    Value::Float(i as f64 * 1e4),
                ]),
                5.0 * lng + 1000.0,
                -8.0 * lat + 900.0,
            )
        })
        .collect();
    let mut group = c.benchmark_group("by_example");
    for n in [4usize, 50, 200] {
        group.bench_function(format!("synthesize_{n}"), |b| {
            b.iter(|| synthesize_placement(&schema, &examples[..n], 0.1).expect("fit"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sql_aggregate, bench_by_example);
criterion_main!(benches);
