//! Figure 4 semantics and Figure 6/7 shape assertions: what each fetching
//! granularity requests, and who wins where.

use kyrix::prelude::*;
use kyrix::workload::{dots_app, load_uniform, DotsConfig};
use kyrix_bench::{
    launch_scheme, paper_traces, run_cell, run_cell_with, CacheMode, Dataset, ExperimentConfig,
    LaunchedScheme, Scheme,
};
use std::sync::Arc;

fn test_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::tiny();
    cfg.runs = 1;
    cfg
}

/// Dynamic boxes issue exactly one request per step; static tiles, as the
/// paper fetches them, issue one per missing tile (Figure 4). The server
/// itself answers a cold region over several tiles with one request for
/// the viewport.
#[test]
fn request_counts_match_figure4() {
    let cfg = test_cfg();
    let traces = paper_traces(&cfg);
    let (_, start_b, moves_b) = &traces[1]; // unaligned L-shape, 12 steps

    let (dbox, _) = launch_scheme(
        Dataset::Uniform,
        &cfg,
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    let cell = run_cell(&dbox, *start_b, moves_b, 1);
    assert_eq!(
        cell.last_run.total_requests(),
        12,
        "dbox: one request per step"
    );

    // unaligned viewport over same-size tiles needs 4 tiles per step
    let (tiles, _) =
        LaunchedScheme::launch(Dataset::Uniform, &cfg, Scheme::TileSpatial(cfg.trace_tile));
    let cell = tiles.run_cell(*start_b, moves_b, 1);
    assert_eq!(
        cell.last_run.total_requests(),
        48,
        "unaligned tiles: 4 per step under the cold protocol"
    );
    assert_eq!(cell.last_run.total_queries(), 48);

    // aligned viewport needs exactly 1 tile per step
    let (_, start_a, moves_a) = &traces[0];
    let cell = tiles.run_cell(*start_a, moves_a, 1);
    assert_eq!(
        cell.last_run.total_requests(),
        12,
        "aligned tiles: 1 per step"
    );

    // the server under the same tiles fetches each cold unaligned step as
    // its viewport: one request and one query, as dbox does
    let (served, _) = launch_scheme(
        Dataset::Uniform,
        &cfg,
        FetchPlan::StaticTiles {
            size: cfg.trace_tile,
            design: TileDesign::SpatialIndex,
        },
    );
    let cell = run_cell(&served, *start_b, moves_b, 1);
    assert_eq!(cell.last_run.total_requests(), 12);
    assert_eq!(cell.last_run.total_queries(), 12);
}

/// The paper's observation (1): dbox fetches the least data needed.
#[test]
fn dbox_fetches_least_data() {
    let cfg = test_cfg();
    let traces = paper_traces(&cfg);
    let (_, start, moves) = &traces[1];
    let mut rows_by_scheme = Vec::new();
    for plan in [
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
        FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        },
        FetchPlan::StaticTiles {
            size: cfg.trace_tile * 4.0,
            design: TileDesign::SpatialIndex,
        },
    ] {
        let (server, _) = launch_scheme(Dataset::Uniform, &cfg, plan);
        let cell = run_cell(&server, *start, moves, 1);
        rows_by_scheme.push((plan.label(), cell.last_run.total_rows()));
    }
    let dbox = rows_by_scheme[0].1;
    let dbox50 = rows_by_scheme[1].1;
    let big_tiles = rows_by_scheme[2].1;
    assert!(dbox < dbox50, "dbox {dbox} < dbox50 {dbox50}");
    assert!(dbox < big_tiles, "dbox {dbox} < big tiles {big_tiles}");
    // 50% larger box ≈ 2.25x the data
    let ratio = dbox50 as f64 / dbox as f64;
    assert!((1.8..=2.8).contains(&ratio), "dbox50/dbox ratio {ratio}");
}

/// Figure 6 shape: on the aligned trace, same-size spatial tiles are
/// competitive with dbox and beat dbox 50% (the paper's observation 2).
#[test]
fn aligned_tiles_beat_dbox50() {
    let cfg = test_cfg();
    let traces = paper_traces(&cfg);
    let (_, start_a, moves_a) = &traces[0];
    let (tiles, _) = launch_scheme(
        Dataset::Uniform,
        &cfg,
        FetchPlan::StaticTiles {
            size: cfg.trace_tile,
            design: TileDesign::SpatialIndex,
        },
    );
    let (dbox50, _) = launch_scheme(
        Dataset::Uniform,
        &cfg,
        FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        },
    );
    let t = run_cell(&tiles, *start_a, moves_a, 2);
    let d = run_cell(&dbox50, *start_a, moves_a, 2);
    assert!(
        t.avg_modeled_ms <= d.avg_modeled_ms * 1.1,
        "tile {:.2}ms should be competitive with dbox50 {:.2}ms on trace-a",
        t.avg_modeled_ms,
        d.avg_modeled_ms
    );
}

/// Figure 6 shape: quarter-size tiles are the worst of the spatial schemes
/// on unaligned traces (too many queries — the paper's observation 3).
#[test]
fn small_tiles_pay_per_query() {
    let cfg = test_cfg();
    let traces = paper_traces(&cfg);
    let (_, start_b, moves_b) = &traces[1];
    let mut results = Vec::new();
    for scheme in [
        Scheme::Served(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
        Scheme::TileSpatial(cfg.trace_tile / 4.0),
    ] {
        let (launched, _) = LaunchedScheme::launch(Dataset::Uniform, &cfg, scheme);
        results.push(launched.run_cell(*start_b, moves_b, 1).avg_modeled_ms);
    }
    assert!(
        results[1] > results[0] * 3.0,
        "small tiles {:.2}ms must be far worse than dbox {:.2}ms",
        results[1],
        results[0]
    );
}

/// Warm caches only help revisits; the cold protocol is strictly slower
/// on a trace that retraces its path.
#[test]
fn warm_cache_helps_revisits() {
    let cfg = test_cfg();
    let (server, _) = launch_scheme(
        Dataset::Uniform,
        &cfg,
        FetchPlan::StaticTiles {
            size: cfg.trace_tile,
            design: TileDesign::SpatialIndex,
        },
    );
    let traces = paper_traces(&cfg);
    let start = traces[0].1;
    // out and back: the return leg revisits every tile
    let t = cfg.trace_tile;
    let mut moves = Vec::new();
    for _ in 0..4 {
        moves.push(Move::PanBy { dx: -t, dy: 0.0 });
    }
    for _ in 0..4 {
        moves.push(Move::PanBy { dx: t, dy: 0.0 });
    }
    let cold = run_cell_with(&server, start, &moves, 1, CacheMode::PaperCold);
    let warm = run_cell_with(&server, start, &moves, 1, CacheMode::Warm);
    assert!(
        warm.last_run.total_queries() < cold.last_run.total_queries(),
        "warm {} queries < cold {} queries",
        warm.last_run.total_queries(),
        cold.last_run.total_queries()
    );
}

/// The separable skip path returns byte-identical data to the
/// materialized path.
#[test]
fn separable_and_materialized_agree() {
    let cfg = DotsConfig {
        n: 20_000,
        width: 4096.0,
        height: 4096.0,
        seed: 9,
    };
    let viewport = (512.0, 512.0);
    let mut visible_sets = Vec::new();
    for with_index in [false, true] {
        let mut db = Database::new();
        load_uniform(&mut db, &cfg).unwrap();
        if with_index {
            kyrix::workload::index_dots(&mut db).unwrap();
        }
        let app = compile(&dots_app(&cfg, viewport), &db).unwrap();
        let (server, reports) = KyrixServer::launch(
            app,
            db,
            ServerConfig::new(FetchPlan::DynamicBox {
                policy: BoxPolicy::Exact,
            }),
        )
        .unwrap();
        assert_eq!(
            reports.iter().any(|r| r.skipped_separable),
            with_index,
            "skip path iff raw index exists"
        );
        let (mut session, _) = Session::open(Arc::new(server)).unwrap();
        session.pan_to(1234.0, 2345.0).unwrap();
        let mut ids: Vec<i64> = session
            .visible(usize::MAX)
            .unwrap()
            .into_iter()
            .flat_map(|(_, rows)| rows.into_iter().map(|r| r.get(0).as_i64().unwrap()))
            .collect();
        ids.sort_unstable();
        visible_sets.push(ids);
    }
    assert_eq!(visible_sets[0], visible_sets[1]);
    assert!(!visible_sets[0].is_empty());
}

/// Momentum prefetching turns steady pans into backend cache hits.
#[test]
fn prefetch_produces_cache_hits() {
    let cfg = DotsConfig {
        n: 20_000,
        width: 8192.0,
        height: 2048.0,
        seed: 4,
    };
    let mut db = Database::new();
    load_uniform(&mut db, &cfg).unwrap();
    let app = compile(&dots_app(&cfg, (512.0, 512.0)), &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        })
        .with_prefetch(PrefetchPolicy::Momentum),
    )
    .unwrap();
    let server = Arc::new(server);
    let (mut session, _) = Session::open(server.clone()).unwrap();
    session.pan_to(1024.0, 1024.0).unwrap();
    let mut hits = 0;
    for _ in 0..10 {
        server.drain_prefetch().unwrap();
        let step = session.pan_by(256.0, 0.0).unwrap();
        hits += step.fetch.cache_hits;
    }
    assert!(hits >= 5, "at least half the steps prefetched, got {hits}");
}
