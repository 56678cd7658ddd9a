//! Criterion bench regenerating **Figure 6**: average response time per
//! step for all eight fetching schemes on the three Figure 5 traces over
//! the *Uniform* dataset.
//!
//! Each benchmark iteration replays one full 12-step (traces a/b) or
//! 6-step (trace c) viewport trace under the paper's cold-cache protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kyrix_bench::{paper_schemes, paper_traces, Dataset, ExperimentConfig, LaunchedScheme};

pub fn bench_config() -> ExperimentConfig {
    // paper density on a 20x16 grid of 512-unit reference tiles: keeps each
    // criterion sample fast while preserving tuples-per-viewport ratios
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

fn fig6(c: &mut Criterion) {
    let cfg = bench_config();
    let mut group = c.benchmark_group("fig6_uniform");
    group.sample_size(10);
    for scheme in paper_schemes(cfg.trace_tile) {
        let (launched, _) = LaunchedScheme::launch(Dataset::Uniform, &cfg, scheme);
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

criterion_group!(benches, fig6);
criterion_main!(benches);
