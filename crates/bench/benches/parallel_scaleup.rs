//! Bench: §4 parallel partitioned execution — spatially routed viewport
//! queries vs. broadcast aggregates across shard counts.
//!
//! On a multi-core host broadcast aggregates approach `largest_shard /
//! total` of the single-node scan time; on any host routed viewport
//! queries stay flat because they touch a bounded number of grid cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kyrix_bench::{dots_on_grid, ExperimentConfig};
use kyrix_parallel::{scatter_gather, QueryRouter};
use kyrix_storage::{Database, Value};
use kyrix_workload::load_uniform;

/// The uniform dots table spread over a `cols` x `rows_grid` spatial
/// grid of shard databases, plus its router.
fn build_shards(cfg: &ExperimentConfig, cols: u32, rows_grid: u32) -> (Vec<Database>, QueryRouter) {
    let mut src = Database::new();
    load_uniform(&mut src, &cfg.dots).expect("load");
    dots_on_grid(&src, &cfg.dots, cols, rows_grid)
}

fn bench_parallel(c: &mut Criterion) {
    let cfg = ExperimentConfig::tiny();
    let grids: &[(u32, u32)] = &[(1, 1), (2, 2), (4, 4)];

    let mut group = c.benchmark_group("parallel_routed_viewport");
    for &(cols, rows_grid) in grids {
        let pdb = build_shards(&cfg, cols, rows_grid);
        let vp = (cfg.viewport.0, cfg.viewport.1);
        group.bench_with_input(
            BenchmarkId::from_parameter(cols * rows_grid),
            &pdb,
            |b, (shards, router)| {
                b.iter(|| {
                    scatter_gather(
                        shards,
                        router,
                        "SELECT COUNT(*) FROM dots WHERE bbox && rect($1, $2, $3, $4)",
                        &[
                            Value::Float(cfg.dots.width / 3.0),
                            Value::Float(cfg.dots.height / 3.0),
                            Value::Float(cfg.dots.width / 3.0 + vp.0),
                            Value::Float(cfg.dots.height / 3.0 + vp.1),
                        ],
                    )
                    .expect("routed query")
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("parallel_broadcast_aggregate");
    group.sample_size(20);
    for &(cols, rows_grid) in grids {
        let pdb = build_shards(&cfg, cols, rows_grid);
        group.bench_with_input(
            BenchmarkId::from_parameter(cols * rows_grid),
            &pdb,
            |b, (shards, router)| {
                b.iter(|| {
                    scatter_gather(
                        shards,
                        router,
                        "SELECT AVG(weight), COUNT(*) FROM dots",
                        &[],
                    )
                    .expect("broadcast aggregate")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
