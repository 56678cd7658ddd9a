//! `kyrix-bench`: the experiment harness behind the paper's evaluation
//! (Figures 6 and 7) and this reproduction's ablations.
//!
//! The paper measures the *average response time per step* of eight
//! fetching schemes over three viewport movement traces on two synthetic
//! datasets. [`run_figure`] reproduces one full figure; the `experiments`
//! binary prints the tables, and the criterion benches under `benches/`
//! time the same code paths. The dynamic-box rows drive the Kyrix server;
//! the six static-tile rows are the harness's [`TileReplay`], which pays
//! what the paper measures for tiles — one request and one query per
//! covering tile, every step — on the spatial design (the server's own
//! store) or the tuple–tile mapping design; the server itself answers a
//! cold multi-tile region as its viewport. The LoD suite
//! ([`run_lod_experiment`], [`run_lod_plan_comparison`],
//! [`run_lod_maintenance`]) covers the
//! cluster-pyramid subsystem: per-level fetch latency, the four-way
//! plan-policy comparison, and incremental maintenance against the
//! full-rebuild baseline.
//!
//! Every harness entry point is plain data in / plain data out, so a
//! scaled-down run doubles as an executable example — here, the
//! maintenance experiment on a small galaxy (build → insert batch →
//! delete batch → rebuild baseline):
//!
//! ```
//! use kyrix_bench::run_lod_maintenance;
//! use kyrix_workload::GalaxyConfig;
//!
//! let mut g = GalaxyConfig::tiny();
//! g.n = 2048;
//! g.width = 2048.0;
//! g.height = 2048.0;
//! let rows = run_lod_maintenance(&g, 2, 16.0, &[8]);
//! assert_eq!(rows[0].batch, 8);
//! assert!(rows[0].rows_changed > 0, "the batch rewrote some level rows");
//! assert!(rows[0].rebuild_ms > 0.0);
//! ```

pub mod replay;

pub use replay::TileReplay;

use kyrix_client::{run_trace, Move, Session, TraceReport};
use kyrix_core::compile;
use kyrix_lod::{build_pyramid, lod_app, LodConfig, LodPyramid};
use kyrix_server::{
    BoxPolicy, CostModel, FetchPlan, KyrixServer, PlanPolicy, PrecomputeReport, ServerConfig,
    TileDesign,
};
use kyrix_storage::{Database, Rect};
use kyrix_workload::{
    aligned_start, dots_app, half_tile_offset, index_galaxy, load_skewed, load_uniform,
    load_zipf_galaxy, trace_a, trace_b, trace_c, trace_c_start, zoom_trace, DotsConfig,
    GalaxyConfig, SkewConfig, TraceStart,
};
use std::sync::Arc;
use std::time::Instant;

/// Which dataset a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// Paper §3.3 "Uniform".
    Uniform,
    /// Paper §3.3 "Skewed" (80% of dots in 20% of the area).
    Skewed(SkewConfig),
}

impl Dataset {
    pub fn label(&self) -> &'static str {
        match self {
            Dataset::Uniform => "Uniform",
            Dataset::Skewed(_) => "Skewed",
        }
    }
}

/// The experiment grid configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    pub dots: DotsConfig,
    /// Viewport size in pixels (the paper's traces move by one reference
    /// tile of 1,024 per step).
    pub viewport: (f64, f64),
    /// Reference tile length used by the traces (Figure 5 uses 1,024).
    pub trace_tile: f64,
    pub cost: CostModel,
    /// Runs averaged per cell (the paper averages three runs).
    pub runs: usize,
}

impl ExperimentConfig {
    /// Bench-scale defaults: paper dot density on a 20×16-tile canvas,
    /// 1,024² viewport, 3 runs.
    pub fn default_bench() -> Self {
        let width = 20.0 * 1024.0;
        let height = 16.0 * 1024.0;
        let n = (width * height * 1e-3) as usize;
        ExperimentConfig {
            dots: DotsConfig {
                n,
                width,
                height,
                seed: 42,
            },
            viewport: (1024.0, 1024.0),
            trace_tile: 1024.0,
            cost: CostModel::paper_default(),
            runs: 3,
        }
    }

    /// Tiny configuration for unit tests and quick criterion runs (same
    /// density, 256-unit reference tile, room for the 12-step traces).
    pub fn tiny() -> Self {
        let width = 10.0 * 256.0;
        let height = 9.0 * 256.0;
        let n = (width * height * 1e-3) as usize;
        ExperimentConfig {
            dots: DotsConfig {
                n,
                width,
                height,
                seed: 42,
            },
            viewport: (256.0, 256.0),
            trace_tile: 256.0,
            cost: CostModel::paper_default(),
            runs: 1,
        }
    }
}

/// One of the paper's eight fetching schemes (Figures 6–7 legend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// A plan the Kyrix server serves.
    Served(FetchPlan),
    /// Static tiles of this edge length under the spatial design, fetched
    /// tile by tile as the paper measures them ([`TileReplay::spatial`]).
    TileSpatial(f64),
    /// Static tiles of this edge length under the tuple–tile mapping
    /// design, which only the harness builds ([`TileReplay::mapping`]).
    TileMapping(f64),
}

impl Scheme {
    /// Legend label matching the paper's Figures 6–7.
    pub fn label(&self) -> String {
        match self {
            Scheme::Served(plan) => plan.label(),
            Scheme::TileSpatial(size) => format!("tile spatial {}", *size as u64),
            Scheme::TileMapping(size) => format!("tile mapping {}", *size as u64),
        }
    }
}

/// The paper's eight fetching schemes, parameterized by the reference tile
/// so scaled-down configs stay proportionate: dbox, dbox 50%, tile spatial
/// {t, t/4, 4t}, tile mapping {t, t/4, 4t}.
pub fn paper_schemes(reference_tile: f64) -> Vec<Scheme> {
    let t = reference_tile;
    let spatial = Scheme::TileSpatial;
    vec![
        Scheme::Served(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
        Scheme::Served(FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        }),
        spatial(t),
        spatial(t / 4.0),
        spatial(t * 4.0),
        Scheme::TileMapping(t),
        Scheme::TileMapping(t / 4.0),
        Scheme::TileMapping(t * 4.0),
    ]
}

/// Load the dataset into a fresh database (no raw spatial index: the paper
/// benches the two precomputed designs, not the separable skip path —
/// that path gets its own ablation).
pub fn build_database(dataset: Dataset, cfg: &DotsConfig) -> Database {
    let mut db = Database::new();
    match dataset {
        Dataset::Uniform => load_uniform(&mut db, cfg).expect("load uniform"),
        Dataset::Skewed(skew) => load_skewed(&mut db, cfg, &skew).expect("load skewed"),
    };
    db
}

/// Compile the dots app and launch a server for one scheme.
pub fn launch_scheme(
    dataset: Dataset,
    cfg: &ExperimentConfig,
    plan: FetchPlan,
) -> (Arc<KyrixServer>, Vec<PrecomputeReport>) {
    let db = build_database(dataset, &cfg.dots);
    let app = compile(&dots_app(&cfg.dots, cfg.viewport), &db).expect("spec compiles");
    let config = ServerConfig::new(plan).with_cost(cfg.cost);
    let (server, reports) = KyrixServer::launch(app, db, config).expect("server launches");
    (Arc::new(server), reports)
}

/// A scheme ready to replay traces on.
pub enum LaunchedScheme {
    /// A server launched under the scheme's plan.
    Served(Arc<KyrixServer>),
    /// A tile design, replayed over a server on the spatial design.
    Replay(Box<TileReplay>),
}

impl LaunchedScheme {
    /// Launch `scheme` on the dataset; also returns the precompute wall
    /// clock in ms (a mapping scheme's includes materializing the layer
    /// table it copies).
    pub fn launch(dataset: Dataset, cfg: &ExperimentConfig, scheme: Scheme) -> (Self, f64) {
        type Build = fn(&KyrixServer, f64) -> kyrix_server::Result<TileReplay>;
        let (plan, replay): (FetchPlan, Option<(Build, f64)>) = match scheme {
            Scheme::Served(plan) => (plan, None),
            Scheme::TileSpatial(size) => (tiles(size), Some((TileReplay::spatial, size))),
            Scheme::TileMapping(size) => (tiles(size), Some((TileReplay::mapping, size))),
        };
        let (server, reports) = launch_scheme(dataset, cfg, plan);
        let mut precompute_ms: f64 = reports
            .iter()
            .map(|r| r.elapsed.as_secs_f64() * 1000.0)
            .sum();
        let Some((build, size)) = replay else {
            return (LaunchedScheme::Served(server), precompute_ms);
        };
        let started = Instant::now();
        let replay = build(&server, size).expect("tile design builds");
        precompute_ms += started.elapsed().as_secs_f64() * 1000.0;
        (LaunchedScheme::Replay(Box::new(replay)), precompute_ms)
    }

    /// One cell under the paper's cold-cache protocol ([`run_cell`]).
    pub fn run_cell(&self, start: TraceStart, moves: &[Move], runs: usize) -> CellResult {
        match self {
            LaunchedScheme::Served(server) => run_cell(server, start, moves, runs),
            LaunchedScheme::Replay(replay) => {
                replay.run_cell(start, moves, runs).expect("trace replays")
            }
        }
    }
}

/// Static tiles of `size` on the spatial design.
fn tiles(size: f64) -> FetchPlan {
    FetchPlan::StaticTiles {
        size,
        design: TileDesign::SpatialIndex,
    }
}

/// The three Figure 5 traces with their start positions for this config.
pub fn paper_traces(cfg: &ExperimentConfig) -> Vec<(&'static str, TraceStart, Vec<Move>)> {
    let canvas = Rect::new(0.0, 0.0, cfg.dots.width, cfg.dots.height);
    let t = cfg.trace_tile;
    let a_start = aligned_start(t, cfg.viewport, &canvas);
    let b_start = half_tile_offset(a_start, t);
    let c_start = trace_c_start(t, cfg.viewport, &canvas);
    vec![
        ("trace-a", a_start, trace_a(t)),
        ("trace-b", b_start, trace_b(t)),
        ("trace-c", c_start, trace_c(t)),
    ]
}

/// How caches behave during a measured trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// The paper's §3.3 measurement protocol: every step fetches everything
    /// intersecting the viewport from the DBMS ("the box fetched is exactly
    /// the viewport in each step") — caches are cleared before each step.
    /// Under tiles the server then fetches a multi-tile step as its
    /// viewport; the paper's per-tile cost is [`TileReplay`]'s.
    PaperCold,
    /// Realistic operation: frontend + backend caches persist across steps.
    Warm,
}

/// One cell of a figure: run a trace against a server `runs` times (fresh
/// session each run) and average.
pub fn run_cell_with(
    server: &Arc<KyrixServer>,
    start: TraceStart,
    moves: &[Move],
    runs: usize,
    mode: CacheMode,
) -> CellResult {
    let mut sum_modeled = 0.0;
    let mut sum_measured = 0.0;
    let mut last = TraceReport::default();
    for _ in 0..runs.max(1) {
        server.clear_caches();
        server.reset_totals();
        let (mut session, _initial) = Session::open(server.clone()).expect("session opens");
        // move to the trace start without counting it
        session
            .pan_to(start.cx, start.cy)
            .expect("pan to trace start");
        let report = match mode {
            CacheMode::Warm => run_trace(&mut session, moves).expect("trace runs"),
            CacheMode::PaperCold => {
                let mut report = TraceReport::default();
                for m in moves {
                    session.clear_frontend_cache();
                    server.clear_caches();
                    let step = match *m {
                        Move::PanBy { dx, dy } => session.pan_by(dx, dy).expect("pan"),
                        Move::PanTo { cx, cy } => session.pan_to(cx, cy).expect("pan"),
                    };
                    report.steps.push(step);
                }
                report
            }
        };
        sum_modeled += report.avg_modeled_ms();
        sum_measured += report.avg_measured_ms();
        last = report;
    }
    CellResult {
        avg_modeled_ms: sum_modeled / runs.max(1) as f64,
        avg_measured_ms: sum_measured / runs.max(1) as f64,
        last_run: last,
    }
}

/// [`run_cell_with`] using the paper's cold-cache protocol.
pub fn run_cell(
    server: &Arc<KyrixServer>,
    start: TraceStart,
    moves: &[Move],
    runs: usize,
) -> CellResult {
    run_cell_with(server, start, moves, runs, CacheMode::PaperCold)
}

/// Result of one (scheme, trace) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub avg_modeled_ms: f64,
    pub avg_measured_ms: f64,
    pub last_run: TraceReport,
}

/// One row of a figure: a scheme across all traces.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    pub label: String,
    pub precompute_ms: f64,
    pub cells: Vec<(String, CellResult)>,
}

/// Reproduce one full figure (6 = Uniform, 7 = Skewed): every scheme ×
/// every trace.
pub fn run_figure(dataset: Dataset, cfg: &ExperimentConfig) -> Vec<SchemeRow> {
    let traces = paper_traces(cfg);
    let mut rows = Vec::new();
    for scheme in paper_schemes(cfg.trace_tile) {
        let (launched, precompute_ms) = LaunchedScheme::launch(dataset, cfg, scheme);
        let mut cells = Vec::new();
        for (name, start, moves) in &traces {
            let cell = launched.run_cell(*start, moves, cfg.runs);
            cells.push((name.to_string(), cell));
        }
        rows.push(SchemeRow {
            label: scheme.label(),
            precompute_ms,
            cells,
        });
    }
    rows
}

/// Render figure rows as a Markdown table (modeled ms per step).
pub fn figure_table(title: &str, rows: &[SchemeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    if rows.is_empty() {
        return out;
    }
    out.push_str("| scheme |");
    for (name, _) in &rows[0].cells {
        out.push_str(&format!(" {name} (ms) |"));
    }
    out.push_str(" precompute (ms) |\n|---|");
    for _ in 0..rows[0].cells.len() + 1 {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("| {} |", row.label));
        for (_, cell) in &row.cells {
            out.push_str(&format!(" {:.2} |", cell.avg_modeled_ms));
        }
        out.push_str(&format!(" {:.0} |\n", row.precompute_ms));
    }
    out
}

/// Per-level measurements of the LoD pyramid experiment.
#[derive(Debug, Clone)]
pub struct LodLevelResult {
    pub level: usize,
    /// Marks on this level (raw points at level 0, clusters above).
    pub rows: usize,
    /// Average cold fetch wall-clock per viewport, ms.
    pub avg_fetch_ms: f64,
    /// Average tuples returned per viewport.
    pub avg_rows_fetched: f64,
    /// Heap pages read per heap row examined by this level's fetches
    /// (`sql.heap_pages ÷ sql.rows_scanned`): ~1 on a heap in load order,
    /// a few hundredths on one in the order of its spatial index.
    pub heap_pages_per_row: f64,
    /// Viewports fetched on this level.
    pub fetches: usize,
}

/// Wall-clock of the LoD experiment's set-up, stage by stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct LodStageTimes {
    /// Generating the galaxy and inserting it into the raw table.
    pub load_s: f64,
    /// Raw spatial index plus the heap rewrite into its leaf order.
    pub index_s: f64,
    /// `build_pyramid`: every level's clustering, table and index.
    pub build_s: f64,
    /// Compiling the LoD app and launching the server over the database.
    pub launch_s: f64,
}

/// What [`run_lod_experiment`] built and measured.
#[derive(Debug, Clone)]
pub struct LodExperiment {
    /// The built pyramid (its `memory_report` is the maintenance state's
    /// bytes by owner).
    pub pyramid: LodPyramid,
    /// One result per level, raw level first.
    pub levels: Vec<LodLevelResult>,
    /// Set-up wall-clock by stage.
    pub stages: LodStageTimes,
    /// Heap bytes of the raw table and every level table
    /// (`Table::heap_bytes`), raw first.
    pub heap_bytes: Vec<(String, usize)>,
}

/// One `kB` field of `/proc/self/status` (`VmRSS`: resident now,
/// `VmHWM`: its high-water mark) in MB; `None` where there is no procfs.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A galaxy of `n` points on a square canvas whose area scales with `n`,
/// so point density — and with it rows per viewport on every level — is
/// that of [`GalaxyConfig::million`] at any size.
pub fn galaxy_at_million_density(n: usize) -> GalaxyConfig {
    let million = GalaxyConfig::million();
    let side = (million.width * (n as f64 / million.n as f64).sqrt()).ceil();
    GalaxyConfig {
        n,
        width: side,
        height: side,
        ..million
    }
}

/// The per-step viewports of the LoD zoom trace: visit levels coarsest →
/// finest → coarsest (crossing every adjacent-level boundary twice),
/// panning a seeded walk on each level. Returns `(level, canvas, rect)`
/// per step.
pub fn zoom_walk(
    lod: &LodConfig,
    levels: usize,
    steps_per_level: usize,
    viewport: (f64, f64),
    seed: u64,
) -> Vec<(usize, String, Rect)> {
    let mut visit: Vec<usize> = (0..=levels).rev().collect();
    visit.extend(1..=levels);
    let segments = zoom_trace(levels, steps_per_level, viewport.0 / 2.0, seed);
    let mut out = Vec::new();
    for (seg, &k) in segments.iter().zip(&visit) {
        let canvas = lod.level_canvas(k);
        let (w, h) = lod.level_size(k);
        let (mut cx, mut cy) = (w / 2.0, h / 2.0);
        for m in seg {
            let (dx, dy) = match *m {
                Move::PanBy { dx, dy } => (dx, dy),
                Move::PanTo { cx: tx, cy: ty } => (tx - cx, ty - cy),
            };
            cx = (cx + dx).clamp(
                viewport.0 / 2.0,
                (w - viewport.0 / 2.0).max(viewport.0 / 2.0),
            );
            cy = (cy + dy).clamp(
                viewport.1 / 2.0,
                (h - viewport.1 / 2.0).max(viewport.1 / 2.0),
            );
            out.push((
                k,
                canvas.clone(),
                Rect::centered(cx, cy, viewport.0, viewport.1),
            ));
        }
    }
    out
}

/// One row of the plan-policy comparison.
#[derive(Debug, Clone)]
pub struct LodPlanResult {
    pub label: String,
    /// Modeled end-to-end ms per step (measured DB time + cost-model
    /// network/query overheads), averaged over the zoom walk.
    pub avg_modeled_ms: f64,
    /// The deterministic component of `avg_modeled_ms`: the cost-model
    /// network/query/byte overheads without the measured DB wall time.
    /// For a fixed plan assignment this is identical across runs.
    pub avg_net_ms: f64,
    /// Measured wall-clock ms per step, averaged.
    pub avg_measured_ms: f64,
    pub requests: u64,
    pub queries: u64,
    pub rows: u64,
}

/// Compare fetch-plan policies on one LoD app: uniform static tiles,
/// uniform dynamic boxes, the mixed policy resolved from `lod_app`'s
/// spec hints (tiles on the spacing-bounded clustered levels, dynamic
/// boxes on the raw level). Every policy
/// serves the *same* pyramid and walks the *same* cold zoom trace, which
/// crosses the clustered↔raw plan boundary in both directions.
pub fn run_lod_plan_comparison(
    g: &GalaxyConfig,
    levels: usize,
    spacing: f64,
    viewport: (f64, f64),
    steps_per_level: usize,
) -> Vec<LodPlanResult> {
    let tiles = FetchPlan::StaticTiles {
        size: viewport.0,
        design: TileDesign::SpatialIndex,
    };
    let boxes = FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    };
    let cost = CostModel::paper_default();
    let lod = galaxy_lod_config(g, levels, spacing);
    let walk = zoom_walk(&lod, levels, steps_per_level, viewport, g.seed);
    let policies = vec![
        ("uniform tiles".to_string(), PlanPolicy::uniform(tiles)),
        ("uniform boxes".to_string(), PlanPolicy::uniform(boxes)),
        (
            "mixed (hinted)".to_string(),
            PlanPolicy::SpecHints { tiles, boxes },
        ),
    ];
    let mut out = Vec::new();
    for (label, policy) in policies {
        // rebuilt per policy so each server owns pristine launch state; the
        // seeded generators and deterministic clustering make every rebuild
        // bit-identical (pinned by the determinism and sharded-pyramid
        // tests), so all policies serve the same data
        let mut db = Database::new();
        load_zipf_galaxy(&mut db, g).expect("load galaxy");
        index_galaxy(&mut db).expect("index galaxy");
        build_pyramid(&mut db, &lod).expect("build pyramid");
        let app = compile(&lod_app(&lod, viewport), &db).expect("lod app compiles");
        let (server, _) =
            KyrixServer::launch(app, db, ServerConfig::from_policy(policy).with_cost(cost))
                .expect("server launches");
        let steps = walk.len().max(1);
        let mut measured_ms = 0.0;
        for (_, canvas, rect) in &walk {
            server.clear_caches();
            let t0 = Instant::now();
            server.fetch_region(canvas, 0, rect).expect("fetch");
            measured_ms += t0.elapsed().as_secs_f64() * 1000.0;
        }
        let totals = server.totals();
        out.push(LodPlanResult {
            label,
            avg_modeled_ms: totals.modeled_ms(&cost) / steps as f64,
            avg_net_ms: cost.cost_ms(totals.requests, totals.queries, totals.bytes) / steps as f64,
            avg_measured_ms: measured_ms / steps as f64,
            requests: totals.requests,
            queries: totals.queries,
            rows: totals.rows,
        });
    }
    out
}

/// One row of the incremental-maintenance experiment: what a batch of
/// that size costs to fold into the pyramid, against the full-rebuild
/// baseline.
#[derive(Debug, Clone)]
pub struct LodMaintenanceResult {
    /// Points per insert/delete batch.
    pub batch: usize,
    /// Wall-clock ms to fold the insert batch into every level table.
    pub insert_ms: f64,
    /// Wall-clock ms to fold the matching delete batch back out.
    pub delete_ms: f64,
    /// Wall-clock ms of a from-scratch `build_pyramid` over the same
    /// table — the cost maintenance avoids.
    pub rebuild_ms: f64,
    /// Level-table rows rewritten across both batches.
    pub rows_changed: usize,
    /// Of those, rows overwritten in their slot (same id and position),
    /// across both batches.
    pub rows_in_place: usize,
}

/// The incremental-maintenance experiment: build the pyramid once, then
/// for each batch size insert a scattered batch of fresh points and
/// delete it again — timing both maintenance passes — and re-time a
/// from-scratch rebuild as the baseline. Insert followed by delete of the
/// same ids provably restores the original level tables (pinned by the
/// maintenance tests), so every batch size starts from the same pyramid.
pub fn run_lod_maintenance(
    g: &GalaxyConfig,
    levels: usize,
    spacing: f64,
    batches: &[usize],
) -> Vec<LodMaintenanceResult> {
    use kyrix_lod::RawPoint;

    let mut db = Database::new();
    load_zipf_galaxy(&mut db, g).expect("load galaxy");
    index_galaxy(&mut db).expect("index galaxy");
    let lod = galaxy_lod_config(g, levels, spacing);
    let mut pyramid = build_pyramid(&mut db, &lod).expect("build pyramid");

    let mut out = Vec::new();
    for (bi, &batch) in batches.iter().enumerate() {
        // deterministic scatter without RNG: Knuth-hash positions, fresh
        // ids far above the galaxy's, integer-valued measures (exactness)
        let pts: Vec<RawPoint> = (0..batch)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(2654435761)
                    .wrapping_add(bi as u64 * 97);
                let x = (h % 10_000) as f64 / 10_000.0 * (g.width - 2.0) + 1.0;
                let y = ((h / 10_000) % 10_000) as f64 / 10_000.0 * (g.height - 2.0) + 1.0;
                RawPoint::new(
                    50_000_000 + i as i64,
                    x,
                    y,
                    &[(h % 50) as f64, (h % 9) as f64],
                )
            })
            .collect();
        let ids: Vec<i64> = pts.iter().map(|p| p.id).collect();

        let t0 = Instant::now();
        let ins = pyramid.insert_points(&mut db, &pts).expect("insert batch");
        let insert_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let t0 = Instant::now();
        let del = pyramid.delete_points(&mut db, &ids).expect("delete batch");
        let delete_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let t0 = Instant::now();
        pyramid = build_pyramid(&mut db, &lod).expect("rebuild pyramid");
        let rebuild_ms = t0.elapsed().as_secs_f64() * 1000.0;

        out.push(LodMaintenanceResult {
            batch,
            insert_ms,
            delete_ms,
            rebuild_ms,
            rows_changed: ins.rows_changed() + del.rows_changed(),
            rows_in_place: [ins, del]
                .iter()
                .flat_map(|r| &r.levels)
                .map(|l| l.rows_in_place)
                .sum(),
        });
    }
    out
}

// ------------------------------------------------- partitioned dots

/// `src`'s `dots` table spread over a `cols` x `rows` spatial grid of
/// shard databases (each spatially indexed on `(x, y)`), plus the router
/// over them — the sharded database `kyrix_parallel::scatter_gather`
/// executes on in the §4 parallel table and the `parallel_scaleup` bench.
pub fn dots_on_grid(
    src: &Database,
    dots: &DotsConfig,
    cols: u32,
    rows: u32,
) -> (Vec<Database>, kyrix_parallel::QueryRouter) {
    use kyrix_storage::{IndexKind, SpatialCols};
    let n = (cols * rows) as usize;
    let part = kyrix_parallel::Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols,
        rows,
        width: dots.width,
        height: dots.height,
    };
    let table = src.table("dots").expect("dots");
    let mut empty = Database::new();
    empty
        .create_table("dots", table.schema.clone())
        .expect("table");
    empty
        .create_index(
            "dots",
            "sp",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .expect("index");
    let mut shards = vec![empty; n];
    table
        .scan(|_, row| {
            let s = part.route(&table.schema, &row, n).expect("route");
            shards[s].insert("dots", row).expect("load");
        })
        .expect("scan");
    let mut router = kyrix_parallel::QueryRouter::new(n).expect("router");
    router.register("dots", part).expect("register");
    (shards, router)
}

/// The pyramid configuration the LoD experiment and benches share: both
/// `zipf_galaxy` measures aggregated, pyramid height and spacing supplied
/// by the caller.
pub fn galaxy_lod_config(g: &GalaxyConfig, levels: usize, spacing: f64) -> LodConfig {
    LodConfig::new("galaxy", g.width, g.height, levels)
        .with_measure("mass")
        .with_measure("lum")
        .with_spacing(spacing)
}

/// The LoD experiment: build a cluster pyramid over the `zipf_galaxy`
/// dataset (timing the build), then walk a zoom-in/zoom-out trace of
/// cold fetches through the server. Per-level fetch latency is read
/// back from the server's own `fetch.region.layer{canvas/layer}`
/// telemetry histograms rather than harness-side stopwatches. Each
/// set-up stage reports to stderr as it ends, with the resident set at
/// that moment, so a run that outgrows the host says where it stopped.
pub fn run_lod_experiment(
    g: &GalaxyConfig,
    levels: usize,
    spacing: f64,
    viewport: (f64, f64),
    steps_per_level: usize,
) -> LodExperiment {
    let mut stages = LodStageTimes::default();
    let mut clock = Instant::now();
    let mut stage = |name: &str, slot: &mut f64| {
        *slot = clock.elapsed().as_secs_f64();
        let rss =
            proc_status_mb("VmRSS:").map_or(String::new(), |mb| format!(", {mb:.0} MB resident"));
        eprintln!("lod set-up: {name} took {:.2} s{rss}", *slot);
        clock = Instant::now();
    };
    let mut db = Database::new();
    load_zipf_galaxy(&mut db, g).expect("load galaxy");
    stage("load", &mut stages.load_s);
    index_galaxy(&mut db).expect("index galaxy");
    stage("index + cluster", &mut stages.index_s);
    let lod = galaxy_lod_config(g, levels, spacing);
    let pyramid = build_pyramid(&mut db, &lod).expect("build pyramid");
    stage("build_pyramid", &mut stages.build_s);
    let heap_bytes = (0..=levels)
        .map(|k| {
            let table = lod.level_table(k);
            let bytes = db.table(&table).expect("level table").heap_bytes();
            (table, bytes)
        })
        .collect();
    let app = compile(&lod_app(&lod, viewport), &db).expect("lod app compiles");
    let (server, _reports) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
    )
    .expect("server launches");
    stage("compile + launch", &mut stages.launch_s);

    let obs = server.obs();
    let heap_reads = || {
        let count = |name: &str| obs.counter(name).get();
        (count("sql.heap_pages"), count("sql.rows_scanned"))
    };
    let mut rows_fetched = vec![0.0f64; levels + 1];
    let mut heap_read = vec![(0u64, 0u64); levels + 1];
    let mut canvases = vec![String::new(); levels + 1];
    for (k, canvas, rect) in zoom_walk(&lod, levels, steps_per_level, viewport, g.seed) {
        server.clear_caches();
        let before = heap_reads();
        let resp = server.fetch_region(&canvas, 0, &rect).expect("fetch");
        let after = heap_reads();
        heap_read[k].0 += after.0 - before.0;
        heap_read[k].1 += after.1 - before.1;
        rows_fetched[k] += resp.rows.len() as f64;
        canvases[k] = canvas;
    }
    let levels = rows_fetched
        .into_iter()
        .enumerate()
        .map(|(level, rows)| {
            // the serving path timed itself; read its histogram back
            let snap = obs
                .histogram(&format!("fetch.region.layer{{{}/0}}", canvases[level]))
                .snapshot();
            LodLevelResult {
                level,
                rows: pyramid.levels[level].rows,
                avg_fetch_ms: snap.mean_ms(),
                avg_rows_fetched: rows / (snap.count().max(1)) as f64,
                heap_pages_per_row: heap_read[level].0 as f64 / heap_read[level].1.max(1) as f64,
                fetches: snap.count() as usize,
            }
        })
        .collect();
    LodExperiment {
        pyramid,
        levels,
        stages,
        heap_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lod_experiment_touches_every_level() {
        let LodExperiment {
            pyramid,
            levels: results,
            stages,
            heap_bytes,
        } = run_lod_experiment(&GalaxyConfig::tiny(), 2, 16.0, (256.0, 256.0), 3);
        assert_eq!(pyramid.depth(), 3);
        assert_eq!(results.len(), 3);
        assert!(stages.build_s > 0.0);
        // bytes by owner: a heap per level, a state entry per clustered one
        let tables: Vec<&str> = heap_bytes.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(tables, ["galaxy", "galaxy_lod1", "galaxy_lod2"]);
        assert!(heap_bytes.iter().all(|(_, bytes)| *bytes > 0));
        let state = pyramid.memory_report().expect("a fresh build can maintain");
        assert_eq!(state.levels.len(), 2);
        assert_eq!(state.levels[0].retained, results[1].rows);
        assert_eq!(state.id_map_entries, results[0].rows);
        assert!(results.iter().all(|r| r.fetches > 0));
        // coarser levels hold fewer marks
        assert!(results[1].rows < results[0].rows);
        assert!(results[2].rows <= results[1].rows);
    }

    #[test]
    fn lod_maintenance_rows_cover_every_batch() {
        let rows = run_lod_maintenance(&GalaxyConfig::tiny(), 2, 16.0, &[8, 64]);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].batch, rows[1].batch), (8, 64));
        for r in &rows {
            assert!(r.insert_ms >= 0.0 && r.delete_ms >= 0.0);
            assert!(r.rebuild_ms > 0.0);
            assert!(
                r.rows_changed > 0,
                "batch {} must rewrite some level rows",
                r.batch
            );
        }
    }

    #[test]
    fn lod_plan_comparison_produces_all_three_rows() {
        let rows = run_lod_plan_comparison(&GalaxyConfig::tiny(), 2, 16.0, (256.0, 256.0), 2);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "uniform tiles");
        assert_eq!(rows[2].label, "mixed (hinted)");
        // every policy actually fetched across the walk
        assert!(rows.iter().all(|r| r.requests > 0 && r.rows > 0));
        // uniform boxes issue exactly one request per step; uniform tiles
        // issue at least one per step (several on unaligned viewports)
        assert!(rows[1].requests <= rows[0].requests);
    }

    #[test]
    fn tiny_figure_shape_holds() {
        // smoke test of the full harness at tiny scale: dbox must beat the
        // small-tile scheme on the unaligned trace
        let cfg = ExperimentConfig::tiny();
        let traces = paper_traces(&cfg);
        let start = traces[1].1;
        let moves_b = traces[1].2.clone();
        let (dbox_server, _) = launch_scheme(
            Dataset::Uniform,
            &cfg,
            FetchPlan::DynamicBox {
                policy: BoxPolicy::Exact,
            },
        );
        let (small_tiles, _) = LaunchedScheme::launch(
            Dataset::Uniform,
            &cfg,
            Scheme::TileSpatial(cfg.trace_tile / 4.0),
        );
        let dbox = run_cell(&dbox_server, start, &moves_b, 1);
        let small = small_tiles.run_cell(start, &moves_b, 1);
        assert!(
            dbox.avg_modeled_ms < small.avg_modeled_ms,
            "dbox {:.2}ms should beat tile/4 {:.2}ms on trace-b",
            dbox.avg_modeled_ms,
            small.avg_modeled_ms
        );
        // dbox issues exactly one request per step
        assert_eq!(dbox.last_run.total_requests(), 12);
        assert!(small.last_run.total_requests() > 12);
        // the mapping design at the same tile size replays the same steps:
        // one request and one query per covering tile, the same rows
        let (mapping, _) = LaunchedScheme::launch(
            Dataset::Uniform,
            &cfg,
            Scheme::TileMapping(cfg.trace_tile / 4.0),
        );
        let mapped = mapping.run_cell(start, &moves_b, 1).last_run;
        let spatial = &small.last_run;
        assert_eq!(mapped.total_requests(), spatial.total_requests());
        assert_eq!(mapped.total_queries(), spatial.total_queries());
        assert_eq!(mapped.total_rows(), spatial.total_rows());
        assert_eq!(mapped.total_bytes(), spatial.total_bytes());
    }
}
