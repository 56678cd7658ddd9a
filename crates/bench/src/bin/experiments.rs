//! `experiments` — regenerates every table/figure of the paper's
//! evaluation as Markdown, plus this reproduction's ablations.
//!
//! ```text
//! cargo run -p kyrix-bench --bin experiments --release -- all
//! cargo run -p kyrix-bench --bin experiments --release -- fig6
//! cargo run -p kyrix-bench --bin experiments --release -- fig7 --small
//! ```
//!
//! Subcommands: `fig6`, `fig7`, `separability`, `prefetch`,
//! `prefetch-policy`, `parallel`, `latency`, `boxsweep`, `cache`, `lod`,
//! `all` (the default). `--small` shrinks the dataset for quick runs;
//! `lod --points N` runs only the pyramid part of `lod`, on a galaxy of
//! `N` points at the million set's density. Any other flag, a second
//! subcommand or an unknown one exits 2 with the usage line.

use kyrix_bench::{
    build_database, dots_on_grid, figure_table, galaxy_at_million_density, launch_scheme,
    paper_traces, proc_status_mb, run_cell, run_figure, run_lod_experiment, run_lod_maintenance,
    run_lod_plan_comparison, Dataset, ExperimentConfig, LodExperiment,
};
use kyrix_client::{run_trace, Session};
use kyrix_core::compile;
use kyrix_parallel::scatter_gather;
use kyrix_server::{BoxPolicy, FetchPlan, KyrixServer, PrefetchPolicy, ServerConfig, TileDesign};
use kyrix_storage::{Database, Value};
use kyrix_workload::{
    dots_app, index_dots, load_uniform, load_usmap, straight_pan, usmap_app, GalaxyConfig,
    SkewConfig,
};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: experiments [fig6|fig7|separability|prefetch|prefetch-policy|\
                     parallel|latency|boxsweep|cache|lod|all] [--small] [--points N]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Args {
    what: String,
    small: bool,
    points: Option<usize>,
}

/// Parse the arguments after the program name; `Err` is the message
/// printed above the usage line.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut what = None;
    let mut small = false;
    let mut points = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => small = true,
            "--points" => {
                let n = args
                    .next()
                    .and_then(|n| n.replace('_', "").parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--points takes a positive point count")?;
                points = Some(n);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            sub if what.is_some() => return Err(format!("unexpected argument `{sub}`")),
            sub => what = Some(sub.to_string()),
        }
    }
    Ok(Args {
        what: what.unwrap_or_else(|| "all".to_string()),
        small,
        points,
    })
}

fn config(small: bool) -> ExperimentConfig {
    if small {
        let mut cfg = ExperimentConfig::tiny();
        cfg.runs = 2;
        cfg
    } else {
        ExperimentConfig::default_bench()
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        what,
        small,
        points,
    } = parse_args(&args).unwrap_or_else(|msg| usage_exit(&msg));
    // resolve the subcommand before printing anything, so a typo exits
    // with the usage line alone
    let run: Box<dyn Fn(&ExperimentConfig)> = match what.as_str() {
        "fig6" => Box::new(fig6),
        "fig7" => Box::new(fig7),
        "separability" => Box::new(separability),
        "prefetch" => Box::new(prefetch),
        "prefetch-policy" => Box::new(prefetch_policy),
        "parallel" => Box::new(parallel),
        "latency" => Box::new(|_| latency()),
        "boxsweep" => Box::new(boxsweep),
        "cache" => Box::new(cache),
        "lod" => Box::new(move |_| match points {
            Some(n) => lod_pyramid(&galaxy_at_million_density(n)),
            None => lod(small),
        }),
        "all" => Box::new(move |cfg| {
            fig6(cfg);
            fig7(cfg);
            separability(cfg);
            prefetch(cfg);
            prefetch_policy(cfg);
            parallel(cfg);
            latency();
            boxsweep(cfg);
            cache(cfg);
            lod(small);
        }),
        other => usage_exit(&format!("unknown experiment `{other}`")),
    };
    let cfg = config(small);

    println!("# Kyrix reproduction — experiment run");
    println!(
        "\ndataset: {} dots on a {:.0}x{:.0} canvas (density {:.1e}/px^2), \
         viewport {:.0}x{:.0}, reference tile {:.0}, {} run(s) per cell",
        cfg.dots.n,
        cfg.dots.width,
        cfg.dots.height,
        cfg.dots.density(),
        cfg.viewport.0,
        cfg.viewport.1,
        cfg.trace_tile,
        cfg.runs
    );
    println!(
        "cost model: rtt {:.1} ms, query overhead {:.1} ms, {:.0} MB/s\n",
        cfg.cost.rtt_ms,
        cfg.cost.query_overhead_ms,
        cfg.cost.bytes_per_ms / 1000.0
    );

    run(&cfg);
}

/// Figure 6: average response times on Uniform.
fn fig6(cfg: &ExperimentConfig) {
    let started = Instant::now();
    let rows = run_figure(Dataset::Uniform, cfg);
    print!(
        "{}",
        figure_table("Figure 6 — avg response time per step, Uniform", &rows)
    );
    println!("\n(ran in {:.1}s)\n", started.elapsed().as_secs_f64());
}

/// Figure 7: average response times on Skewed.
fn fig7(cfg: &ExperimentConfig) {
    let started = Instant::now();
    let rows = run_figure(Dataset::Skewed(SkewConfig::default()), cfg);
    print!(
        "{}",
        figure_table("Figure 7 — avg response time per step, Skewed", &rows)
    );
    println!("\n(ran in {:.1}s)\n", started.elapsed().as_secs_f64());
}

/// §3.2: separable layers can skip precomputation entirely.
fn separability(cfg: &ExperimentConfig) {
    println!("## Separability (paper §3.2) — precompute skipped vs. materialized\n");
    println!("| path | precompute (ms) | avg step (ms, trace-b) |");
    println!("|---|---|---|");
    for (label, with_raw_index) in [
        ("materialized (non-separable path)", false),
        ("skipped (separable path)", true),
    ] {
        let mut db = Database::new();
        load_uniform(&mut db, &cfg.dots).expect("load");
        if with_raw_index {
            index_dots(&mut db).expect("index");
        }
        let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("compile");
        let t0 = Instant::now();
        let (server, reports) = KyrixServer::launch(
            app,
            db,
            ServerConfig::new(FetchPlan::DynamicBox {
                policy: BoxPolicy::Exact,
            })
            .with_cost(cfg.cost),
        )
        .expect("launch");
        let precompute_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let skipped = reports.iter().any(|r| r.skipped_separable);
        assert_eq!(
            skipped, with_raw_index,
            "skip path engages iff raw index exists"
        );
        let server = Arc::new(server);
        let traces = paper_traces(cfg);
        let cell = run_cell(&server, traces[1].1, &traces[1].2, cfg.runs);
        println!(
            "| {label} | {precompute_ms:.0} | {:.2} |",
            cell.avg_modeled_ms
        );
    }
    println!();
}

/// §4: momentum prefetching with dynamic boxes (the paper's future work).
fn prefetch(cfg: &ExperimentConfig) {
    println!("## Momentum prefetching (paper §4) — straight pan, dynamic boxes\n");
    println!("| prefetch | avg step (ms) | backend cache hits | queries |");
    println!("|---|---|---|---|");
    for enabled in [false, true] {
        let db = build_database(Dataset::Uniform, &cfg.dots);
        let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("compile");
        let (server, _) = KyrixServer::launch(
            app,
            db,
            ServerConfig::new(FetchPlan::DynamicBox {
                policy: BoxPolicy::Exact,
            })
            .with_cost(cfg.cost)
            .with_prefetch(enabled),
        )
        .expect("launch");
        let server = Arc::new(server);
        let (mut session, _) = Session::open(server.clone()).expect("open");
        session.send_momentum_hints = enabled;
        session
            .pan_to(cfg.viewport.0 * 2.0, cfg.dots.height / 2.0)
            .expect("pan");
        let moves = straight_pan(10, cfg.trace_tile / 2.0, 0.0);
        // pace the trace like a human pans (the paper's 500 ms budget per
        // interaction) so the prefetcher has time to run ahead
        let mut report = kyrix_client::TraceReport::default();
        for m in &moves {
            if enabled {
                server.drain_prefetch();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let step = match *m {
                kyrix_client::Move::PanBy { dx, dy } => session.pan_by(dx, dy).expect("pan"),
                kyrix_client::Move::PanTo { cx, cy } => session.pan_to(cx, cy).expect("pan"),
            };
            report.steps.push(step);
        }
        let totals = server.totals();
        println!(
            "| {} | {:.2} | {} | {} |",
            if enabled { "on" } else { "off" },
            report.avg_modeled_ms(),
            totals.cache_hits,
            totals.queries,
        );
    }
    println!();
}

/// §4 ablation: prefetch predictor comparison (off / momentum / semantic)
/// on two traces — a straight pan (momentum's home turf) and a patrol along
/// the Skewed dense-cluster edge that reverses direction every few steps:
/// velocity extrapolation keeps pointing the wrong way after each reversal,
/// while data-similarity ranking keeps warming the in-cluster directions.
fn prefetch_policy(cfg: &ExperimentConfig) {
    println!("## Prefetch policy ablation (paper §4) — dynamic boxes\n");
    println!("| trace | policy | avg step (ms) | backend cache hits | foreground queries |");
    println!("|---|---|---|---|---|");

    let skew = SkewConfig::default();
    let dense = skew.dense_rect(&cfg.dots);
    let step = cfg.trace_tile / 2.0;
    let straight: Vec<kyrix_client::Move> = straight_pan(10, step, 0.0);
    // patrol: 5 steps east, 5 west, repeat — along the cluster's top edge.
    // The legs are longer than the backend box shelf (4 entries), so the
    // no-prefetch baseline cannot ride the plain cache across a whole leg.
    let patrol: Vec<kyrix_client::Move> = (0..20)
        .map(|i| {
            let dir = if (i / 5) % 2 == 0 { 1.0 } else { -1.0 };
            kyrix_client::Move::PanBy {
                dx: dir * step,
                dy: 0.0,
            }
        })
        .collect();

    let policies: [(&str, Option<PrefetchPolicy>); 3] = [
        ("off", None),
        ("momentum", Some(PrefetchPolicy::Momentum)),
        ("semantic", Some(PrefetchPolicy::Semantic { top_k: 2 })),
    ];
    type TraceRow<'a> = (&'a str, Dataset, &'a [kyrix_client::Move], (f64, f64));
    let traces: [TraceRow<'_>; 2] = [
        (
            "straight pan (Uniform)",
            Dataset::Uniform,
            &straight,
            (cfg.viewport.0 * 2.0, cfg.dots.height / 2.0),
        ),
        (
            "edge patrol (Skewed)",
            Dataset::Skewed(skew),
            &patrol,
            (
                dense.min_x + 2.0 * cfg.viewport.0,
                dense.min_y + cfg.viewport.1 / 2.0,
            ),
        ),
    ];

    for (trace_label, dataset, moves, start) in traces {
        for (policy_label, policy) in &policies {
            let db = build_database(dataset, &cfg.dots);
            let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("compile");
            let mut config = ServerConfig::new(FetchPlan::DynamicBox {
                policy: BoxPolicy::Exact,
            })
            .with_cost(cfg.cost);
            if let Some(p) = policy {
                config = config.with_prefetch_policy(*p);
            }
            let (server, _) = KyrixServer::launch(app, db, config).expect("launch");
            let server = Arc::new(server);
            let (mut session, _) = Session::open(server.clone()).expect("open");
            session.send_momentum_hints = matches!(policy, Some(PrefetchPolicy::Momentum));
            session.send_semantic_hints = matches!(policy, Some(PrefetchPolicy::Semantic { .. }));
            session.pan_to(start.0, start.1).expect("pan to start");
            server.reset_totals();
            let mut report = kyrix_client::TraceReport::default();
            for m in moves {
                if policy.is_some() {
                    // pace like a human (the prefetcher runs between pans)
                    server.drain_prefetch();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                let s = match *m {
                    kyrix_client::Move::PanBy { dx, dy } => session.pan_by(dx, dy).expect("pan"),
                    kyrix_client::Move::PanTo { cx, cy } => session.pan_to(cx, cy).expect("pan"),
                };
                report.steps.push(s);
            }
            let totals = server.totals();
            println!(
                "| {trace_label} | {policy_label} | {:.2} | {} | {} |",
                report.avg_modeled_ms(),
                totals.cache_hits,
                totals.queries,
            );
        }
    }
    println!();
}

/// §4: the multi-node deployment, simulated by `kyrix-parallel`. Scale-up
/// table over shard counts. The headline metric is *work*, not wall time:
/// spatially routed viewport queries touch a constant number of shards, so
/// the rows each node scans per query drops with the grid; broadcast
/// aggregates split their scan across nodes. Wall-clock speedup requires
/// real cores (this harness reports available parallelism alongside).
fn parallel(cfg: &ExperimentConfig) {
    println!("## Parallel partitioned execution (paper §4) — SpatialGrid shards\n");
    println!(
        "(host parallelism: {} hardware thread(s); wall-time speedup needs >1)\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!(
        "| shards (grid) | viewport count avg (ms) | shards/query | largest shard (rows) | full-table AVG (ms) |"
    );
    println!("|---|---|---|---|---|");

    // one source of truth for the rows
    let src = build_database(Dataset::Skewed(SkewConfig::default()), &cfg.dots);

    for (label, cols, grid_rows) in [
        ("1 (1x1)", 1u32, 1u32),
        ("4 (2x2)", 2, 2),
        ("16 (4x4)", 4, 4),
    ] {
        let (shards, router) = dots_on_grid(&src, &cfg.dots, cols, grid_rows);

        // routed viewport counts across a diagonal of viewports
        let q_view = "SELECT COUNT(*) FROM dots WHERE bbox && rect($1, $2, $3, $4)";
        let n_queries = 12;
        let mut touched = 0;
        let t0 = Instant::now();
        for i in 0..n_queries {
            let x = (i as f64 / n_queries as f64) * (cfg.dots.width - cfg.viewport.0);
            let y = (i as f64 / n_queries as f64) * (cfg.dots.height - cfg.viewport.1);
            let g = scatter_gather(
                &shards,
                &router,
                q_view,
                &[
                    Value::Float(x),
                    Value::Float(y),
                    Value::Float(x + cfg.viewport.0),
                    Value::Float(y + cfg.viewport.1),
                ],
            )
            .expect("viewport count");
            touched += g.shards.len();
        }
        let routed_ms = t0.elapsed().as_secs_f64() * 1000.0 / n_queries as f64;
        let shards_per_query = touched as f64 / n_queries as f64;

        // broadcast aggregate (a coordinated-view rollup); with real cores
        // its latency is bounded by the largest shard's scan
        let largest = shards
            .iter()
            .map(|s| s.table("dots").expect("dots").len())
            .max()
            .unwrap_or(0);
        let t0 = Instant::now();
        let agg_runs = 3;
        for _ in 0..agg_runs {
            scatter_gather(
                &shards,
                &router,
                "SELECT AVG(weight), MIN(weight), MAX(weight), COUNT(*) FROM dots",
                &[],
            )
            .expect("aggregate");
        }
        let agg_ms = t0.elapsed().as_secs_f64() * 1000.0 / agg_runs as f64;

        println!("| {label} | {routed_ms:.2} | {shards_per_query:.1} | {largest} | {agg_ms:.2} |");
    }
    println!();
}

/// §3.3 / §3: end-to-end pan and jump latency vs. the 500 ms goal on the
/// usmap application (Figures 2–3).
fn latency() {
    println!("## Interactivity (paper §3) — usmap app, pan + jump vs the 500 ms goal\n");
    let mut db = Database::new();
    load_usmap(&mut db, 7).expect("usmap");
    let app = compile(&usmap_app(), &db).expect("compile");
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        }),
    )
    .expect("launch");
    let server = Arc::new(server);
    let (mut session, initial) = Session::open(server).expect("open");
    println!("| interaction | modeled (ms) | within 500 ms |");
    println!("|---|---|---|");
    println!(
        "| initial load | {:.2} | {} |",
        initial.modeled_ms,
        initial.modeled_ms <= 500.0
    );
    let pan = session.pan_by(200.0, 0.0).expect("pan");
    println!(
        "| pan | {:.2} | {} |",
        pan.modeled_ms,
        pan.modeled_ms <= 500.0
    );
    // click inside a state cell (cells are 198 wide on a 200 grid, so the
    // click must avoid the 2px gutters)
    let outcome = session
        .click(480.0, 280.0)
        .expect("click")
        .expect("a state triggers the jump");
    println!(
        "| jump ({}) | {:.2} | {} |",
        outcome.name.as_deref().unwrap_or("?"),
        outcome.report.modeled_ms,
        outcome.report.modeled_ms <= 500.0
    );
    assert_eq!(outcome.to_canvas, "countymap");
    println!();
}

/// Ablation: dynamic-box inflation sweep (0%..100%) + density-adaptive.
fn boxsweep(cfg: &ExperimentConfig) {
    println!("## Ablation — box inflation policy (Uniform, trace-b)\n");
    println!("| policy | avg step (ms) | requests | rows fetched |");
    println!("|---|---|---|---|");
    let policies = vec![
        BoxPolicy::Exact,
        BoxPolicy::PctLarger(0.25),
        BoxPolicy::PctLarger(0.5),
        BoxPolicy::PctLarger(1.0),
        BoxPolicy::DensityAdaptive {
            target_tuples: (cfg.viewport.0 * cfg.viewport.1 * cfg.dots.density() * 2.0) as usize,
            max_pct: 1.0,
        },
    ];
    let traces = paper_traces(cfg);
    for policy in policies {
        let (server, _) = launch_scheme(Dataset::Uniform, cfg, FetchPlan::DynamicBox { policy });
        let cell = run_cell(&server, traces[1].1, &traces[1].2, cfg.runs);
        println!(
            "| {} | {:.2} | {} | {} |",
            policy.label(),
            cell.avg_modeled_ms,
            cell.last_run.total_requests(),
            cell.last_run.total_rows(),
        );
    }
    println!();
}

/// Ablation: backend cache capacity on a revisiting trace.
fn cache(cfg: &ExperimentConfig) {
    println!("## Ablation — backend tile cache on a revisiting walk (tile spatial)\n");
    println!("| backend cache (tuples) | avg step (ms) | cache hits | queries |");
    println!("|---|---|---|---|");
    // an out-and-back walk revisits every tile once
    let t = cfg.trace_tile;
    let mut moves = Vec::new();
    for _ in 0..6 {
        moves.push(kyrix_client::Move::PanBy { dx: -t, dy: 0.0 });
    }
    for _ in 0..6 {
        moves.push(kyrix_client::Move::PanBy { dx: t, dy: 0.0 });
    }
    for cache_rows in [0usize, 2_000, 200_000] {
        let db = build_database(Dataset::Uniform, &cfg.dots);
        let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("compile");
        let (server, _) = KyrixServer::launch(
            app,
            db,
            ServerConfig::new(FetchPlan::StaticTiles {
                size: cfg.trace_tile,
                design: TileDesign::SpatialIndex,
            })
            .with_cost(cfg.cost)
            .with_backend_cache(cache_rows),
        )
        .expect("launch");
        let server = Arc::new(server);
        // frontend cache tiny so revisits go to the backend
        let (mut session, _) = Session::open_with_cache(server.clone(), 1).expect("open");
        let traces = paper_traces(cfg);
        session
            .pan_to(traces[0].1.cx, traces[0].1.cy)
            .expect("pan to start");
        server.reset_totals();
        let report = run_trace(&mut session, &moves).expect("trace");
        let totals = server.totals();
        println!(
            "| {} | {:.2} | {} | {} |",
            cache_rows,
            report.avg_modeled_ms(),
            totals.cache_hits,
            totals.queries,
        );
    }
    println!();
}

/// The pyramid part of the LoD experiment on one galaxy: set-up stage
/// times, bytes by owner (table heaps beside the maintenance state), and
/// per-level cold fetches against the 500 ms interactivity budget.
fn lod_pyramid(g: &GalaxyConfig) {
    println!(
        "## LoD pyramid — zipf_galaxy, {} points on a {:.0}x{:.0} canvas\n",
        g.n, g.width, g.height
    );
    let LodExperiment {
        pyramid,
        levels,
        stages,
        heap_bytes,
    } = run_lod_experiment(g, 3, 24.0, (1024.0, 1024.0), 6);
    println!(
        "pyramid build: {:.1} ms ({} levels above raw)\n",
        pyramid.build_time.as_secs_f64() * 1000.0,
        pyramid.depth() - 1
    );
    println!("| set-up stage | seconds |");
    println!("|---|---|");
    for (name, s) in [
        ("generate + load", stages.load_s),
        ("index + cluster", stages.index_s),
        ("build_pyramid", stages.build_s),
        ("compile + launch", stages.launch_s),
    ] {
        println!("| {name} | {s:.2} |");
    }
    if let Some(mb) = proc_status_mb("VmHWM:") {
        println!("\npeak resident set after the walk: {mb:.0} MB");
    }
    println!();

    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let raw_points = pyramid.levels[0].rows.max(1) as f64;
    println!("### bytes by owner\n");
    println!("| owner | entries | buckets | boxed outputs | MiB | B / raw point |");
    println!("|---|---|---|---|---|---|");
    let mut heaps = 0;
    for ((table, bytes), info) in heap_bytes.iter().zip(&pyramid.levels) {
        heaps += bytes;
        println!(
            "| heap: {table} | {} rows | | | {:.1} | {:.1} |",
            info.rows,
            mib(*bytes),
            *bytes as f64 / raw_points
        );
    }
    let state = pyramid
        .memory_report()
        .expect("a fresh pyramid carries its maintenance state");
    for l in &state.levels {
        println!(
            "| maintenance state: level {} | {} cells, {} retained | {} | {} | {:.1} | {:.1} |",
            l.level,
            l.candidate_cells,
            l.retained,
            l.buckets,
            l.boxed_outputs,
            mib(l.bytes),
            l.bytes as f64 / raw_points
        );
    }
    println!(
        "| maintenance state: id → cell map | {} ids | | | {:.1} | {:.1} |",
        state.id_map_entries,
        mib(state.id_map_bytes),
        state.id_map_bytes as f64 / raw_points
    );
    println!(
        "| **heaps / maintenance state** | | | | **{:.1} / {:.1}** | {:.1} / {:.1} |",
        mib(heaps),
        mib(state.total_bytes()),
        heaps as f64 / raw_points,
        state.total_bytes() as f64 / raw_points
    );
    println!("\n(heaps are `Table::heap_bytes`: pages, not their spatial indexes)\n");

    println!(
        "| level | marks | avg cold fetch (ms) | of the 500 ms budget | avg tuples/fetch | heap pages / row |"
    );
    println!("|---|---|---|---|---|---|");
    for r in &levels {
        println!(
            "| {} | {} | {:.3} | {:.3} % | {:.0} | {:.3} |",
            r.level,
            r.rows,
            r.avg_fetch_ms,
            r.avg_fetch_ms / 500.0 * 100.0,
            r.avg_rows_fetched,
            r.heap_pages_per_row
        );
    }
    println!();
}

/// LoD: cluster-pyramid construction over `zipf_galaxy`, per-level fetch
/// latency along a zoom-in/zoom-out trace, and the uniform-vs-mixed
/// fetch-plan policy comparison on the same app.
fn lod(small: bool) {
    let g = if small {
        GalaxyConfig::tiny()
    } else {
        GalaxyConfig::million()
    };
    lod_pyramid(&g);

    // plan-policy comparison, walked cold across the clustered↔raw plan
    // boundary in both directions. Deliberately run at e2e scale (131k
    // points), not the million-point config of the table above: the
    // comparison rebuilds the pyramid once per policy, and e2e scale keeps
    // that affordable while preserving the skew that separates the plans.
    // The `auto (measured)` row is the tuner: `PlanPolicy::Measured`
    // calibrated on the zoom walk, so its modeled cost is ≤ the best
    // uniform row (ties allowed, never worse).
    let cg = if small {
        GalaxyConfig::tiny()
    } else {
        GalaxyConfig::e2e()
    };
    println!(
        "### Fetch-plan policy on the LoD app — {} points, cold zoom walk\n",
        cg.n
    );
    println!("| policy | avg step modeled (ms) | avg step net (ms) | avg step wall (ms) | requests | queries | rows fetched |");
    println!("|---|---|---|---|---|---|---|");
    let rows = run_lod_plan_comparison(&cg, 3, 24.0, (1024.0, 1024.0), 6);
    for r in &rows {
        println!(
            "| {} | {:.2} | {:.2} | {:.3} | {} | {} | {} |",
            r.label,
            r.avg_modeled_ms,
            r.avg_net_ms,
            r.avg_measured_ms,
            r.requests,
            r.queries,
            r.rows
        );
    }
    for r in &rows {
        if let Some(plans) = &r.plans {
            println!("\nauto-tuned assignment: {plans}");
        }
    }
    println!();

    // incremental maintenance: folding a batch of raw inserts/deletes
    // into the level tables in place (local repair) vs. the full rebuild
    // a precompute-everything pyramid would need. Same scale as the plan
    // comparison above; insert+delete of a batch restores the original
    // pyramid, so every row starts from identical state.
    println!(
        "### Incremental maintenance — {} points, per-batch update vs. full rebuild\n",
        cg.n
    );
    println!("| batch | insert (ms) | delete (ms) | full rebuild (ms) | level rows rewritten | speedup |");
    println!("|---|---|---|---|---|---|");
    let batches: &[usize] = if small {
        &[16, 128, 1024]
    } else {
        &[16, 256, 4096]
    };
    for r in run_lod_maintenance(&cg, 3, 24.0, batches) {
        let per_batch = (r.insert_ms + r.delete_ms) / 2.0;
        println!(
            "| {} | {:.2} | {:.2} | {:.1} | {} | {:.0}x |",
            r.batch,
            r.insert_ms,
            r.delete_ms,
            r.rebuild_ms,
            r.rows_changed,
            r.rebuild_ms / per_batch.max(1e-9)
        );
    }
    println!();
    sql_fast_paths(&cg);
}

/// SQL fast paths on the LoD dataset: the COUNT/MIN/MAX and LIMIT probes
/// that `estimate_layer_rows` and the tuner's row estimates issue against
/// the raw/level tables now resolve from table metadata, B+tree edges, or
/// capped scans. Each probe reports the access path EXPLAIN names, the
/// rows it actually scanned, and the sequential scan the general path
/// would have paid.
fn sql_fast_paths(g: &GalaxyConfig) {
    let mut db = Database::new();
    kyrix_workload::load_zipf_galaxy(&mut db, g).expect("load galaxy");
    db.create_index(
        "galaxy",
        "galaxy_mass",
        kyrix_storage::IndexKind::BTree {
            column: "mass".into(),
        },
    )
    .expect("index galaxy.mass");
    let table_len = db.table("galaxy").unwrap().len() as u64;

    println!(
        "### SQL fast paths — {} points, row-count probes the server issues\n",
        g.n
    );
    println!("| probe | access path | rows scanned | seq-scan rows | reduction |");
    println!("|---|---|---|---|---|");
    let probes = [
        "SELECT COUNT(*) FROM galaxy",
        "SELECT MIN(mass), MAX(mass) FROM galaxy",
        "SELECT id FROM galaxy LIMIT 64",
        "SELECT id FROM galaxy ORDER BY mass LIMIT 16",
    ];
    let mut dump = String::new();
    for sql in probes {
        let plan = db.query(&format!("EXPLAIN {sql}"), &[]).expect("explain");
        let lines: Vec<String> = plan
            .rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Text(s) => s.clone(),
                other => panic!("non-text plan line {other:?}"),
            })
            .collect();
        dump.push_str(&format!("EXPLAIN {sql}\n"));
        for l in &lines {
            dump.push_str(&format!("  {l}\n"));
        }
        let r = db.query(sql, &[]).expect("probe");
        let reduction = if r.stats.rows_scanned == 0 {
            "inf".to_string()
        } else {
            format!("{:.0}x", table_len as f64 / r.stats.rows_scanned as f64)
        };
        println!(
            "| `{sql}` | {} | {} | {table_len} | {reduction} |",
            lines.first().map(String::as_str).unwrap_or("?"),
            r.stats.rows_scanned,
        );
    }
    println!("\nEXPLAIN dump:\n\n```\n{dump}```\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_subcommand_small_and_points_in_any_order() {
        let all = Args {
            what: "all".into(),
            small: false,
            points: None,
        };
        assert_eq!(parse(&[]), Ok(all));
        let lod = Args {
            what: "lod".into(),
            small: true,
            points: Some(200_000),
        };
        assert_eq!(parse(&["lod", "--small", "--points", "200_000"]), Ok(lod));
        let lod = parse(&["--points", "5", "--small", "lod"]).unwrap();
        assert_eq!(
            (lod.what.as_str(), lod.small, lod.points),
            ("lod", true, Some(5))
        );
    }

    #[test]
    fn refuses_unknown_flags_and_bad_values() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["lod", "--telemetry", "t.json"],
            &["--points"],
            &["lod", "--points", "0"],
            &["lod", "--points", "many"],
            &["fig6", "fig7"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }
}
