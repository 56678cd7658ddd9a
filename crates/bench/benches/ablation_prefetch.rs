//! Ablation bench: momentum-based prefetching with dynamic boxes (the
//! paper's §4 future work). Measures a straight constant-velocity pan with
//! the prefetcher off vs. on (with a drain before each step, so the
//! background worker has completed its prediction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kyrix_bench::{build_database, Dataset, ExperimentConfig};
use kyrix_client::Session;
use kyrix_core::compile;
use kyrix_server::{BoxPolicy, FetchPlan, KyrixServer, PrefetchPolicy, ServerConfig};
use kyrix_workload::dots_app;
use std::sync::Arc;

fn bench_config() -> ExperimentConfig {
    let width = 20.0 * 512.0;
    let height = 16.0 * 512.0;
    let n = (width * height * 1e-3) as usize;
    ExperimentConfig {
        dots: kyrix_workload::DotsConfig {
            n,
            width,
            height,
            seed: 42,
        },
        viewport: (512.0, 512.0),
        trace_tile: 512.0,
        cost: kyrix_server::CostModel::paper_default(),
        runs: 1,
    }
}

fn launch(cfg: &ExperimentConfig, prefetch: Option<PrefetchPolicy>) -> Arc<KyrixServer> {
    let db = build_database(Dataset::Uniform, &cfg.dots);
    let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("compile");
    let config = ServerConfig {
        prefetch,
        ..ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        })
        .with_cost(cfg.cost)
    };
    let (server, _) = KyrixServer::launch(app, db, config).expect("launch");
    Arc::new(server)
}

fn prefetch(c: &mut Criterion) {
    let cfg = bench_config();
    let mut group = c.benchmark_group("ablation_prefetch");
    group.sample_size(10);
    for (label, policy) in [("off", None), ("on", Some(PrefetchPolicy::Momentum))] {
        let server = launch(&cfg, policy);
        group.bench_function(BenchmarkId::new("straight_pan", label), |b| {
            b.iter(|| {
                server.clear_caches();
                let (mut session, _) = Session::open(server.clone()).expect("open");
                session
                    .pan_to(cfg.viewport.0 * 2.0, cfg.dots.height / 2.0)
                    .expect("pan to start");
                let mut total = 0.0;
                for _ in 0..8 {
                    server
                        .drain_prefetch()
                        .expect("the prefetch worker is alive");
                    let step = session.pan_by(cfg.trace_tile / 2.0, 0.0).expect("pan step");
                    total += step.modeled_ms;
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, prefetch);
criterion_main!(benches);
