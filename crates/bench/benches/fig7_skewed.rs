//! Criterion bench regenerating **Figure 7**: average response time per
//! step for all eight fetching schemes on the *Skewed* dataset (80% of
//! dots in 20% of the canvas area).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kyrix_bench::{paper_schemes, paper_traces, Dataset, ExperimentConfig, LaunchedScheme};
use kyrix_workload::SkewConfig;

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

fn fig7(c: &mut Criterion) {
    let cfg = bench_config();
    let dataset = Dataset::Skewed(SkewConfig::default());
    let mut group = c.benchmark_group("fig7_skewed");
    group.sample_size(10);
    for scheme in paper_schemes(cfg.trace_tile) {
        let (launched, _) = LaunchedScheme::launch(dataset, &cfg, scheme);
        for (trace_name, start, moves) in paper_traces(&cfg) {
            group.bench_with_input(
                BenchmarkId::new(scheme.label(), trace_name),
                &moves,
                |b, moves| b.iter(|| launched.run_cell(start, moves, 1)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, fig7);
criterion_main!(benches);
