//! Micro-benchmarks of the substrate extensions: SQL aggregation, and what
//! a write batch on a copy-on-write clone costs over the same batch in
//! place.

use criterion::{criterion_group, criterion_main, Criterion};
use kyrix_bench::ExperimentConfig;
use kyrix_storage::{Database, RecordId, Row, Table, Value};
use kyrix_workload::{index_galaxy, load_uniform, load_zipf_galaxy, GalaxyConfig};

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

/// A mutation's storage bill on the million-point galaxy: the serving
/// layer's write path (clone the database, unshare the table, write 64
/// scattered inserts and 64 scattered deletes, retire the clone) beside
/// the same 128 writes applied in place. The difference is what snapshot
/// isolation costs a batch — the standalone number beside the in-situ
/// `server.publish_self_us` / `mutation_p50_ms` of the repo benchmark.
fn bench_cow_batch(c: &mut Criterion) {
    let cfg = GalaxyConfig::million();
    let mut db = Database::new();
    load_zipf_galaxy(&mut db, &cfg).expect("load");
    index_galaxy(&mut db).expect("index");
    let mut rids: Vec<RecordId> = Vec::with_capacity(cfg.n);
    db.table("galaxy")
        .expect("galaxy")
        .scan(|rid, _| rids.push(rid))
        .expect("scan");
    // batch `k` writes rows no other batch writes: 64 fresh points spread
    // over the canvas, and 64 loaded rows spread over the heap
    let write_batch = |t: &mut Table, k: usize| {
        for j in 0..64 {
            let i = k * 64 + j;
            t.insert(Row::new(vec![
                Value::Int((cfg.n + i) as i64),
                Value::Float((i * 104_729 % 131_072) as f64),
                Value::Float((i * 7_919 % 131_072) as f64),
                Value::Float(1.0),
                Value::Float(1.0),
            ]))
            .expect("insert");
            assert!(t.delete_row(rids[i * 7_919 % rids.len()]).expect("delete"));
        }
    };
    let mut group = c.benchmark_group("cow_batch");
    let mut k = 0;
    group.bench_function("clone_then_64_inserts_64_deletes", |b| {
        b.iter(|| {
            let mut next = db.clone();
            write_batch(next.table_mut("galaxy").expect("galaxy"), k);
            k += 1;
        })
    });
    // `db` is unshared again (every clone above was dropped): these land
    // in place, each batch on rows no earlier one deleted
    group.bench_function("bare_64_inserts_64_deletes", |b| {
        b.iter(|| {
            write_batch(db.table_mut("galaxy").expect("galaxy"), k);
            k += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sql_aggregate, bench_cow_batch);
criterion_main!(benches);
