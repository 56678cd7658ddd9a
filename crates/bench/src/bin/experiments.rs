//! `experiments` — regenerates the paper's Figure 6/7 tables as Markdown,
//! plus this reproduction's prefetch and LoD experiments.
//!
//! ```text
//! cargo run -p kyrix-bench --bin experiments --release -- all
//! cargo run -p kyrix-bench --bin experiments --release -- fig6
//! cargo run -p kyrix-bench --bin experiments --release -- fig7 --small
//! ```
//!
//! Subcommands: `fig6`, `fig7`, `prefetch`, `lod`, `all` (the default).
//! `--small` shrinks the dataset for quick runs; `lod --points N` runs only
//! the pyramid part of `lod`, on a galaxy of `N` points at the million
//! set's density. Any other flag, a second subcommand or an unknown one
//! exits 2 with the usage line.

use kyrix_bench::{
    build_database, figure_table, galaxy_at_million_density, proc_status_mb, run_figure,
    run_lod_experiment, run_lod_maintenance, run_lod_plan_comparison, Dataset, ExperimentConfig,
    LodExperiment,
};
use kyrix_client::{Move, Session, TraceReport};
use kyrix_core::compile;
use kyrix_server::{BoxPolicy, FetchPlan, KyrixServer, PrefetchPolicy, ServerConfig};
use kyrix_storage::{Database, Value};
use kyrix_workload::{dots_app, straight_pan, GalaxyConfig, SkewConfig};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: experiments [fig6|fig7|prefetch|lod|all] [--small] [--points N]";

/// One subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Experiment {
    Fig6,
    Fig7,
    Prefetch,
    Lod,
    All,
}

impl Experiment {
    fn named(name: &str) -> Option<Experiment> {
        Some(match name {
            "fig6" => Experiment::Fig6,
            "fig7" => Experiment::Fig7,
            "prefetch" => Experiment::Prefetch,
            "lod" => Experiment::Lod,
            "all" => Experiment::All,
            _ => return None,
        })
    }
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Args {
    what: Experiment,
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
            sub => {
                let known = Experiment::named(sub);
                what = Some(known.ok_or_else(|| format!("unknown experiment `{sub}`"))?);
            }
        }
    }
    Ok(Args {
        what: what.unwrap_or(Experiment::All),
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        what,
        small,
        points,
    } = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    });
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

    match what {
        Experiment::Fig6 => fig6(&cfg),
        Experiment::Fig7 => fig7(&cfg),
        Experiment::Prefetch => prefetch(&cfg),
        Experiment::Lod => match points {
            Some(n) => lod_pyramid(&galaxy_at_million_density(n)),
            None => lod(small),
        },
        Experiment::All => {
            fig6(&cfg);
            fig7(&cfg);
            prefetch(&cfg);
            lod(small);
        }
    }
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

/// §4 (the paper's future work): prefetching with dynamic boxes, off vs.
/// each predictor, on two traces — a straight pan (momentum's home turf)
/// and a patrol along the Skewed dense-cluster edge that reverses
/// direction every few steps: velocity extrapolation keeps pointing the
/// wrong way after each reversal, while data-similarity ranking keeps
/// warming the in-cluster directions.
fn prefetch(cfg: &ExperimentConfig) {
    println!("## Prefetching (paper §4) — dynamic boxes\n");
    println!("| trace | prefetch | avg step (ms) | backend cache hits | foreground queries |");
    println!("|---|---|---|---|---|");

    let skew = SkewConfig::default();
    let dense = skew.dense_rect(&cfg.dots);
    let step = cfg.trace_tile / 2.0;
    let straight = straight_pan(10, step, 0.0);
    // patrol: 5 steps east, 5 west, repeat — along the cluster's top edge.
    // The legs are longer than the backend box shelf (4 entries), so the
    // no-prefetch baseline cannot ride the plain cache across a whole leg.
    let patrol: Vec<Move> = (0..20)
        .map(|i| {
            let dir = if (i / 5) % 2 == 0 { 1.0 } else { -1.0 };
            Move::PanBy {
                dx: dir * step,
                dy: 0.0,
            }
        })
        .collect();
    let policies = [
        ("off", None),
        ("momentum", Some(PrefetchPolicy::Momentum)),
        ("semantic", Some(PrefetchPolicy::Semantic { top_k: 2 })),
    ];
    type TraceRow<'a> = (&'a str, Dataset, &'a [Move], (f64, f64));
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
        for (policy_label, prefetch) in policies {
            let db = build_database(dataset, &cfg.dots);
            let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("compile");
            let config = ServerConfig {
                prefetch,
                ..ServerConfig::new(FetchPlan::DynamicBox {
                    policy: BoxPolicy::Exact,
                })
                .with_cost(cfg.cost)
            };
            let (server, _) = KyrixServer::launch(app, db, config).expect("launch");
            let server = Arc::new(server);
            let (mut session, _) = Session::open(server.clone()).expect("open");
            session.pan_to(start.0, start.1).expect("pan to start");
            server.reset_totals();
            let mut report = TraceReport::default();
            for m in moves {
                // pace like a human: the worker finishes its prediction
                // between two pans (a no-op with prefetch off)
                server
                    .drain_prefetch()
                    .expect("the prefetch worker is alive");
                let s = match *m {
                    Move::PanBy { dx, dy } => session.pan_by(dx, dy),
                    Move::PanTo { cx, cy } => session.pan_to(cx, cy),
                };
                report.steps.push(s.expect("pan"));
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
    println!("| batch | insert (ms) | delete (ms) | full rebuild (ms) | level rows rewritten | in place | speedup |");
    println!("|---|---|---|---|---|---|---|");
    let batches: &[usize] = if small {
        &[16, 128, 1024]
    } else {
        &[16, 256, 4096]
    };
    for r in run_lod_maintenance(&cg, 3, 24.0, batches) {
        let per_batch = (r.insert_ms + r.delete_ms) / 2.0;
        println!(
            "| {} | {:.2} | {:.2} | {:.1} | {} | {} | {:.0}x |",
            r.batch,
            r.insert_ms,
            r.delete_ms,
            r.rebuild_ms,
            r.rows_changed,
            r.rows_in_place,
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
            what: Experiment::All,
            small: false,
            points: None,
        };
        assert_eq!(parse(&[]), Ok(all));
        let lod = Args {
            what: Experiment::Lod,
            small: true,
            points: Some(200_000),
        };
        assert_eq!(parse(&["lod", "--small", "--points", "200_000"]), Ok(lod));
        let lod = parse(&["--points", "5", "--small", "lod"]).unwrap();
        assert_eq!(
            (lod.what, lod.small, lod.points),
            (Experiment::Lod, true, Some(5))
        );
        let prefetch = parse(&["prefetch", "--small"]).unwrap();
        assert_eq!(prefetch.what, Experiment::Prefetch);
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
            // retired subcommands: each has cover in a test or a bench
            &["separability"],
            &["prefetch-policy"],
            &["parallel"],
            &["latency"],
            &["boxsweep"],
            &["cache"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }
}
