//! End-to-end acceptance test of the LoD subsystem: build a ≥100k-point
//! pyramid with ≥3 clustered levels over the `zipf_galaxy` workload,
//! verify the non-overlap spacing invariant and exact count/sum
//! conservation on every level, serve a tile and a dynamic box from every
//! level through `KyrixServer`, follow an auto-generated zoom jump
//! between adjacent levels, check that sharded pyramid construction
//! produces the same level tables as a single node, and pin that
//! incremental maintenance (insert→zoom→delete→zoom through
//! `KyrixServer::mutate_shards`) stays bit-identical to a from-scratch
//! rebuild while sessions refetch exactly the invalidated regions.

use kyrix_client::Session;
use kyrix_core::compile;
use kyrix_lod::{build_pyramid, build_pyramid_on_shards, lod_app, LodConfig, SpacingGrid};
use kyrix_parallel::{scatter_gather, Partitioner};
use kyrix_server::{
    fetch_rect, BoxPolicy, FetchPlan, KyrixServer, PlanPolicy, ServerConfig, TileDesign, Tiling,
};
use kyrix_storage::{Database, Rect, Value};
use kyrix_workload::{galaxy_rows, galaxy_schema, index_galaxy, load_zipf_galaxy, GalaxyConfig};
use std::sync::Arc;

const LEVELS: usize = 3;
const SPACING: f64 = 24.0;

fn lod_config(g: &GalaxyConfig) -> LodConfig {
    LodConfig::new("galaxy", g.width, g.height, LEVELS)
        .with_measure("mass")
        .with_measure("lum")
        .with_spacing(SPACING)
}

/// Galaxy database with a built pyramid (raw spatial index included).
fn built_db(g: &GalaxyConfig, cfg: &LodConfig) -> (Database, kyrix_lod::LodPyramid) {
    let mut db = Database::new();
    load_zipf_galaxy(&mut db, g).unwrap();
    index_galaxy(&mut db).unwrap();
    let pyramid = build_pyramid(&mut db, cfg).unwrap();
    (db, pyramid)
}

/// One representative mark per level: `(level, id, cx, cy)` of the first
/// row of each level table (raw columns at level 0).
fn probe_marks(db: &Database, cfg: &LodConfig) -> Vec<(usize, i64, f64, f64)> {
    (0..=cfg.levels)
        .map(|k| {
            let t = cfg.level_table(k);
            let (xc, yc) = if k == 0 { ("x", "y") } else { ("cx", "cy") };
            let r = db
                .query(&format!("SELECT id, {xc}, {yc} FROM {t} LIMIT 1"), &[])
                .unwrap();
            let row = &r.rows[0];
            (
                k,
                row.get(0).as_i64().unwrap(),
                row.get(1).as_f64().unwrap(),
                row.get(2).as_f64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn pyramid_end_to_end() {
    let g = GalaxyConfig::e2e();
    assert!(g.n >= 100_000, "acceptance: at least 100k points");
    let cfg = lod_config(&g);
    let (db, pyramid) = built_db(&g, &cfg);
    assert_eq!(pyramid.depth(), LEVELS + 1);
    assert_eq!(pyramid.levels[0].rows, g.n);

    // ---- invariants on every clustered level
    let raw_sums = db
        .query("SELECT SUM(mass), SUM(lum) FROM galaxy", &[])
        .unwrap();
    let raw_mass = raw_sums.rows[0].get(0).as_f64().unwrap();
    let raw_lum = raw_sums.rows[0].get(1).as_f64().unwrap();
    for k in 1..=LEVELS {
        let info = &pyramid.levels[k];
        assert!(info.rows > 0, "level {k} is non-empty");
        assert!(
            info.rows < pyramid.levels[k - 1].rows,
            "level {k} must be coarser than level {}",
            k - 1
        );

        // exact count/sum conservation: coarser totals equal level-0 totals
        let r = db
            .query(
                &format!(
                    "SELECT SUM(cnt), SUM(sum_mass), SUM(sum_lum) FROM {}",
                    info.table
                ),
                &[],
            )
            .unwrap();
        assert_eq!(
            r.rows[0].get(0).as_i64().unwrap(),
            g.n as i64,
            "level {k} count conservation"
        );
        assert_eq!(
            r.rows[0].get(1).as_f64().unwrap(),
            raw_mass,
            "level {k} mass-sum conservation"
        );
        assert_eq!(
            r.rows[0].get(2).as_f64().unwrap(),
            raw_lum,
            "level {k} lum-sum conservation"
        );

        // non-overlap: no two retained marks strictly closer than SPACING
        let marks = db
            .query(&format!("SELECT cx, cy FROM {}", info.table), &[])
            .unwrap();
        let mut grid = SpacingGrid::new(SPACING);
        for (i, row) in marks.rows.iter().enumerate() {
            let (x, y) = (row.get(0).as_f64().unwrap(), row.get(1).as_f64().unwrap());
            assert!(
                grid.violator(x, y).is_none(),
                "level {k}: marks closer than {SPACING}"
            );
            grid.insert(i, x, y);
        }
    }

    // ---- dynamic boxes from every level
    let spec = lod_app(&cfg, (1024.0, 1024.0));
    let app = compile(&spec, &db).unwrap();
    let probes = probe_marks(&db, &cfg);
    let (box_server, reports) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
    )
    .unwrap();
    assert!(
        reports.iter().all(|r| r.skipped_separable),
        "every level table serves through the separable spatial fast path"
    );
    for &(k, id, cx, cy) in &probes {
        let canvas = cfg.level_canvas(k);
        let vp = Rect::centered(cx, cy, 512.0, 512.0);
        let resp = box_server.fetch_region(&canvas, 0, &vp).unwrap();
        assert!(
            resp.rows.iter().any(|r| r.get(0) == &Value::Int(id)),
            "level {k}: dynamic box misses the probe mark"
        );
    }

    // ---- an auto-generated zoom jump between adjacent levels
    let server = Arc::new(box_server);
    let (mut session, first) = Session::open(server.clone()).unwrap();
    assert_eq!(session.canvas_id(), cfg.level_canvas(LEVELS));
    assert!(first.visible_rows > 0, "the coarse overview shows marks");
    let top = server
        .snapshot()
        .query(
            &format!("SELECT * FROM {} LIMIT 1", cfg.level_table(LEVELS)),
            &[],
        )
        .unwrap();
    let row = top.rows[0].clone();
    let (cx, cy) = (row.get(1).as_f64().unwrap(), row.get(2).as_f64().unwrap());
    let jump_id = format!(
        "zoomin_{}_{}",
        cfg.level_canvas(LEVELS),
        cfg.level_canvas(LEVELS - 1)
    );
    let outcome = session.jump(&jump_id, 0, &row).unwrap();
    assert_eq!(outcome.to_canvas, cfg.level_canvas(LEVELS - 1));
    assert_eq!(session.canvas_id(), cfg.level_canvas(LEVELS - 1));
    // the viewport landed on the clicked cluster, scaled up by the factor
    let vp = session.viewport();
    let (w2, h2) = cfg.level_size(LEVELS - 1);
    let expect_x = (cx * cfg.zoom_factor).clamp(512.0, w2 - 512.0);
    let expect_y = (cy * cfg.zoom_factor).clamp(512.0, h2 - 512.0);
    assert!(
        (vp.cx - expect_x).abs() < 1e-9 && (vp.cy - expect_y).abs() < 1e-9,
        "zoom-in centered at ({}, {}), expected ({expect_x}, {expect_y})",
        vp.cx,
        vp.cy
    );
    // and back out again
    let back = format!(
        "zoomout_{}_{}",
        cfg.level_canvas(LEVELS - 1),
        cfg.level_canvas(LEVELS)
    );
    let fine_row = server
        .snapshot()
        .query(
            &format!("SELECT * FROM {} LIMIT 1", cfg.level_table(LEVELS - 1)),
            &[],
        )
        .unwrap()
        .rows[0]
        .clone();
    let outcome = session.jump(&back, 0, &fine_row).unwrap();
    assert_eq!(outcome.to_canvas, cfg.level_canvas(LEVELS));
}

#[test]
fn pyramid_tiles_from_every_level() {
    let g = GalaxyConfig::e2e();
    let cfg = lod_config(&g);
    let (db, _pyramid) = built_db(&g, &cfg);
    let probes = probe_marks(&db, &cfg);
    let spec = lod_app(&cfg, (1024.0, 1024.0));
    let app = compile(&spec, &db).unwrap();
    let tile_size = 1024.0;
    let (server, _reports) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::StaticTiles {
            size: tile_size,
            design: TileDesign::SpatialIndex,
        }),
    )
    .unwrap();
    let tiling = Tiling::new(tile_size);
    for &(k, id, cx, cy) in &probes {
        let canvas = cfg.level_canvas(k);
        let tile = tiling.tile_of(cx, cy);
        let resp = server
            .fetch_region(&canvas, 0, &tiling.tile_rect(tile))
            .unwrap();
        assert!(
            resp.rows.iter().any(|r| r.get(0) == &Value::Int(id)),
            "level {k}: tile {tile:?} misses the probe mark"
        );
        // the plan-agnostic region fetch serves the same level, without
        // duplicating marks whose boxes straddle tile edges
        let region = server
            .fetch_region(&canvas, 0, &Rect::centered(cx, cy, 256.0, 256.0))
            .unwrap();
        assert!(region.rows.iter().any(|r| r.get(0) == &Value::Int(id)));
        let mut ids: Vec<i64> = region
            .rows
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "level {k}: region fetch returned duplicates");
    }
}

/// Acceptance: one `KyrixServer` serves the 3-level `zipf_galaxy` pyramid
/// under *mixed* fetch plans — static tiles on the clustered levels,
/// density-adaptive dynamic boxes on the raw level — resolved from the
/// `lod_app` spec hints by a `PlanPolicy::SpecHints` policy. A session
/// then follows a zoom trace from the coarsest level down to raw and back,
/// crossing the tiles↔boxes plan boundary in both directions.
#[test]
fn mixed_plans_serve_one_lod_app_across_a_zoom_trace() {
    let g = GalaxyConfig::e2e();
    let cfg = lod_config(&g);
    let (db, _pyramid) = built_db(&g, &cfg);
    let probes = probe_marks(&db, &cfg);
    let spec = lod_app(&cfg, (1024.0, 1024.0));
    let app = compile(&spec, &db).unwrap();
    let tiles = FetchPlan::StaticTiles {
        size: 1024.0,
        design: TileDesign::SpatialIndex,
    };
    let boxes = FetchPlan::DynamicBox {
        policy: BoxPolicy::DensityAdaptive {
            target_tuples: 50_000,
            max_pct: 1.0,
        },
    };
    let policy = PlanPolicy::SpecHints { tiles, boxes };
    let (server, reports) =
        KyrixServer::launch(app, db, ServerConfig::from_policy(policy)).unwrap();
    assert!(
        reports.iter().all(|r| r.skipped_separable),
        "every level serves through the separable fast path under either plan"
    );

    // the policy resolved tiles on every clustered level, boxes on raw
    for k in 1..=LEVELS {
        let canvas = cfg.level_canvas(k);
        assert_eq!(server.plan_for(&canvas, 0).unwrap(), tiles, "level {k}");
    }
    assert_eq!(server.plan_for("level0", 0).unwrap(), boxes);

    // the plan-agnostic region path serves every level's probe mark
    for &(k, id, cx, cy) in &probes {
        let canvas = cfg.level_canvas(k);
        let resp = server
            .fetch_region(&canvas, 0, &Rect::centered(cx, cy, 512.0, 512.0))
            .unwrap();
        assert!(
            resp.rows.iter().any(|r| r.get(0) == &Value::Int(id)),
            "level {k}: mixed region fetch misses the probe mark"
        );
    }

    // ---- zoom trace: coarsest (tiles) → … → raw (boxes) → back (tiles)
    let server = std::sync::Arc::new(server);
    let (mut session, first) = Session::open(server.clone()).unwrap();
    assert_eq!(session.canvas_id(), cfg.level_canvas(LEVELS));
    assert!(first.visible_rows > 0, "the tiled overview shows marks");
    for to in (0..LEVELS).rev() {
        let from = to + 1;
        let row = server
            .snapshot()
            .query(
                &format!("SELECT * FROM {} LIMIT 1", cfg.level_table(from)),
                &[],
            )
            .unwrap()
            .rows[0]
            .clone();
        let jump_id = format!("zoomin_{}_{}", cfg.level_canvas(from), cfg.level_canvas(to));
        let outcome = session.jump(&jump_id, 0, &row).unwrap();
        assert_eq!(outcome.to_canvas, cfg.level_canvas(to));
        assert!(
            outcome.report.visible_rows > 0,
            "level {to} shows marks after the zoom-in"
        );
        // pan a step on this level (exercises the level's own plan)
        session.pan_by(512.0, 256.0).unwrap();
    }
    assert_eq!(
        session.canvas_id(),
        "level0",
        "the trace reached the raw level"
    );

    // cross the plan boundary back out: raw (boxes) → level1 (tiles)
    let raw_row = server
        .snapshot()
        .query(
            &format!("SELECT * FROM {} LIMIT 1", cfg.level_table(0)),
            &[],
        )
        .unwrap()
        .rows[0]
        .clone();
    let back = format!("zoomout_{}_{}", cfg.level_canvas(0), cfg.level_canvas(1));
    let outcome = session.jump(&back, 0, &raw_row).unwrap();
    assert_eq!(outcome.to_canvas, cfg.level_canvas(1));
    assert!(
        outcome.report.visible_rows > 0,
        "tiled level shows marks again"
    );
}

#[test]
fn sharded_pyramid_matches_single_node() {
    let g = GalaxyConfig::e2e();
    let cfg = lod_config(&g);
    let (single, p1) = built_db(&g, &cfg);

    let part = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols: 2,
        rows: 2,
        width: g.width,
        height: g.height,
    };
    let schema = galaxy_schema();
    let mut empty = Database::new();
    empty.create_table("galaxy", schema.clone()).unwrap();
    let mut shards = vec![empty; 4];
    for row in galaxy_rows(&g) {
        let s = part.route(&schema, &row, 4).unwrap();
        shards[s].insert("galaxy", row).unwrap();
    }
    let p2 = build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap();
    let router = p2.shard_router().unwrap();

    assert_eq!(p1.levels, p2.levels);
    for k in 1..=LEVELS {
        let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
        let a = single.query(&q, &[]).unwrap();
        let b = scatter_gather(&shards, router, &q, &[]).unwrap().result;
        assert_eq!(a.rows.len(), b.rows.len(), "level {k} row count");
        assert_eq!(a.rows, b.rows, "level {k} tables differ");
    }
}

/// A deterministic walk over the pyramid's levels, as users zoom through
/// it: coarsest → raw → back to coarsest, with `steps_per_level` zig-zag
/// pans from each level's center, clamped to the level canvas. Pure
/// arithmetic — no RNG — so two calls produce identical walks.
fn zoom_walk(cfg: &LodConfig, viewport: (f64, f64), steps_per_level: usize) -> Vec<(usize, Rect)> {
    let mut visit: Vec<usize> = (0..=cfg.levels).rev().collect();
    visit.extend(1..=cfg.levels);
    let mut out = Vec::with_capacity(visit.len() * steps_per_level);
    for &k in &visit {
        let (w, h) = cfg.level_size(k);
        let half = (viewport.0 / 2.0, viewport.1 / 2.0);
        let clamp_x = |v: f64| v.clamp(half.0, (w - half.0).max(half.0));
        let clamp_y = |v: f64| v.clamp(half.1, (h - half.1).max(half.1));
        let (mut cx, mut cy) = (w / 2.0, h / 2.0);
        for s in 0..steps_per_level {
            // zig-zag: big pan out, smaller pan back — unaligned viewports
            // without RNG
            let dir = if s % 2 == 0 { 1.0 } else { -0.6 };
            cx = clamp_x(cx + dir * viewport.0 / 2.0);
            cy = clamp_y(cy + dir * viewport.1 / 3.0);
            out.push((k, Rect::centered(cx, cy, viewport.0, viewport.1)));
        }
    }
    out
}

/// Physical design: the raw table is clustered on its spatial index by its
/// loader and every level table is written in the leaf order of its own,
/// so a viewport's rows sit on adjacent heap pages — summed over a walk of
/// every level, fetches read a few pages per hundred rows (one page per
/// row on heaps in load / rep-id order), on one node and on a 2x2 grid.
#[test]
fn a_zoom_walk_reads_a_few_heap_pages_per_hundred_rows() {
    let g = GalaxyConfig::e2e();
    let cfg = lod_config(&g);
    let (single, _) = built_db(&g, &cfg);

    let part = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols: 2,
        rows: 2,
        width: g.width,
        height: g.height,
    };
    let schema = galaxy_schema();
    let mut empty = Database::new();
    empty.create_table("galaxy", schema.clone()).unwrap();
    let mut shards = vec![empty; 4];
    for row in galaxy_rows(&g) {
        let s = part.route(&schema, &row, 4).unwrap();
        shards[s].insert("galaxy", row).unwrap();
    }
    for shard in &mut shards {
        index_galaxy(shard).unwrap();
    }
    let pyramid = build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap();
    let router = pyramid.shard_router().unwrap();

    let (mut one_node, mut on_grid) = ((0, 0), (0, 0));
    for (level, rect) in zoom_walk(&cfg, (1024.0, 1024.0), 6) {
        let sql = format!(
            "SELECT * FROM {} WHERE bbox && rect($1, $2, $3, $4)",
            cfg.level_table(level)
        );
        let params = [rect.min_x, rect.min_y, rect.max_x, rect.max_y].map(Value::Float);
        let a = single.query(&sql, &params).unwrap().stats;
        let b = scatter_gather(&shards, router, &sql, &params)
            .unwrap()
            .result
            .stats;
        assert_eq!(a.rows_scanned, b.rows_scanned, "{sql} over {rect:?}");
        one_node = (one_node.0 + a.heap_pages, one_node.1 + a.rows_scanned);
        on_grid = (on_grid.0 + b.heap_pages, on_grid.1 + b.rows_scanned);
    }
    for (pages, rows) in [one_node, on_grid] {
        assert!(rows > 5_000, "the walk fetched only {rows} rows");
        assert!(
            pages * 10 <= rows,
            "{pages} heap pages for {rows} rows: more than 0.1 per row"
        );
    }
}

/// Acceptance: the pyramid is a *live* data structure. Raw-table inserts
/// and deletes fold into every level table in place through
/// `KyrixServer::mutate_shards` (local repair, no rebuild), the server
/// invalidates exactly the caches the dirty cells intersect, sessions
/// notice the data-version bump and refetch only the stale regions —
/// and after the whole insert→zoom→delete→zoom trace the maintained
/// level tables are bit-identical to a from-scratch rebuild over the
/// final point set.
#[test]
fn incremental_maintenance_serves_live_mutations_end_to_end() {
    use kyrix_lod::RawPoint;
    use kyrix_server::{DirtyRegion, ServerError};

    let g = GalaxyConfig::e2e();
    let cfg = lod_config(&g);
    let (db, pyramid) = built_db(&g, &cfg);
    let mut pyramid = pyramid;
    assert!(pyramid.can_maintain());
    let spec = lod_app(&cfg, (1024.0, 1024.0));
    let app = compile(&spec, &db).unwrap();
    // mixed plans: tiles on clustered levels, boxes on raw — a mutation
    // must invalidate both kinds of backend cache
    let tiles = FetchPlan::StaticTiles {
        size: 1024.0,
        design: TileDesign::SpatialIndex,
    };
    let boxes = FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    };
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::from_policy(PlanPolicy::SpecHints { tiles, boxes }),
    )
    .unwrap();
    let server = Arc::new(server);
    assert_eq!(server.data_version(), 0);
    // pyramid repairs report into the serving registry, beside the
    // mutation that triggered them
    pyramid.set_observability(server.obs());

    // a session zooms from the coarsest level down to raw
    let (mut session, first) = Session::open(server.clone()).unwrap();
    assert!(first.visible_rows > 0);
    for to in (0..LEVELS).rev() {
        let from = to + 1;
        let row = server
            .snapshot()
            .query(
                &format!("SELECT * FROM {} LIMIT 1", cfg.level_table(from)),
                &[],
            )
            .unwrap()
            .rows[0]
            .clone();
        let jump_id = format!("zoomin_{}_{}", cfg.level_canvas(from), cfg.level_canvas(to));
        session.jump(&jump_id, 0, &row).unwrap();
    }
    assert_eq!(session.canvas_id(), "level0");
    let vp = session.viewport();
    let (bx, by) = (vp.cx, vp.cy);

    // a second session watches a far corner of the raw level: its cached
    // region must survive the mutation untouched
    let (far_x, far_y) = (
        if bx < g.width / 2.0 {
            g.width - 2000.0
        } else {
            2000.0
        },
        if by < g.height / 2.0 {
            g.height - 2000.0
        } else {
            2000.0
        },
    );
    let (mut far_session, _) = Session::open_on(server.clone(), "level0", far_x, far_y).unwrap();

    // every table the maintenance passes may touch, declared up front
    let tables: Vec<String> = (0..=LEVELS).map(|k| cfg.level_table(k)).collect();
    let tables: Vec<&str> = tables.iter().map(String::as_str).collect();

    // ---- insert a dense blob of bright points at the viewport center
    let new_ids: Vec<i64> = (0..64).map(|i| 10_000_000 + i).collect();
    let pts: Vec<RawPoint> = new_ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            RawPoint::new(
                *id,
                bx + (i % 8) as f64 * 6.0 - 21.0,
                by + (i / 8) as f64 * 6.0 - 21.0,
                // integer-valued measures keep float sums bit-exact
                &[1000.0, 7.0],
            )
        })
        .collect();
    let report = server
        .mutate_shards(&tables, |shards| {
            let db = &mut shards[0];
            let report = pyramid
                .insert_points(db, &pts)
                .map_err(|e| ServerError::Config(e.to_string()))?;
            let dirty = report
                .dirty_regions()
                .map(|(t, r)| DirtyRegion::new(t, r))
                .collect();
            Ok((report, dirty))
        })
        .unwrap();
    assert_eq!(report.inserted, 64);
    assert_eq!(server.data_version(), 1);
    assert!(
        report.levels.iter().skip(1).any(|l| l.rows_changed > 0),
        "the blob must change at least one clustered level"
    );

    // the session refetches the invalidated region and sees the new points
    let step = session.pan_by(0.0, 0.0).unwrap();
    assert!(step.fetch.requests > 0, "stale viewport must refetch");
    let visible = session.visible(usize::MAX).unwrap();
    let ids: Vec<i64> = visible[0]
        .1
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    assert!(
        new_ids.iter().all(|id| ids.contains(id)),
        "all inserted points are visible in the mutated viewport"
    );
    // the far session's cached region was not invalidated
    let far_step = far_session.pan_by(0.0, 0.0).unwrap();
    assert_eq!(far_step.fetch.requests, 0, "far region stays cached");
    assert_eq!(far_step.frontend_hits, 1);

    // conservation after insert, on every clustered level
    let n_now = (g.n + 64) as i64;
    for k in 1..=LEVELS {
        let r = server
            .snapshot()
            .query(&format!("SELECT SUM(cnt) FROM {}", cfg.level_table(k)), &[])
            .unwrap();
        assert_eq!(r.rows[0].get(0).as_i64().unwrap(), n_now, "level {k} count");
    }
    // the blob shows up on the clustered (tiled) levels too
    let near_blob = Rect::centered(bx / 2.0, by / 2.0, 200.0, 200.0);
    let store = server.store("level1", 0).unwrap();
    let (l1, _) = fetch_rect(&*server.snapshot(), &store, &near_blob).unwrap();
    assert!(!l1.is_empty(), "level1 has a mark near the blob");

    // ---- zoom out across the plan boundary, then delete the blob plus
    // some original points
    let raw_row = server
        .snapshot()
        .query(
            &format!("SELECT * FROM {} LIMIT 1", cfg.level_table(0)),
            &[],
        )
        .unwrap()
        .rows[0]
        .clone();
    let back = format!("zoomout_{}_{}", cfg.level_canvas(0), cfg.level_canvas(1));
    let outcome = session.jump(&back, 0, &raw_row).unwrap();
    assert!(outcome.report.visible_rows > 0);

    let mut victims = new_ids.clone();
    victims.extend(0..100); // original galaxy ids
    let report = server
        .mutate_shards(&tables, |shards| {
            let db = &mut shards[0];
            let report = pyramid
                .delete_points(db, &victims)
                .map_err(|e| ServerError::Config(e.to_string()))?;
            let dirty = report
                .dirty_regions()
                .map(|(t, r)| DirtyRegion::new(t, r))
                .collect();
            Ok((report, dirty))
        })
        .unwrap();
    assert_eq!(report.deleted, 164);
    assert_eq!(server.data_version(), 2);

    // zoom back in: the tiled level refetches what changed and serves
    let step = session.pan_by(64.0, 64.0).unwrap();
    assert!(step.visible_rows > 0);

    // ---- telemetry: every life-of-request and life-of-mutation span,
    // the copy-on-write counters and the heap-page counter recorded
    // observations, and the registry dump names each of them
    let obs = server.obs();
    let spans = obs.histograms();
    let observations = |name: &str| {
        spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, s)| s.count())
    };
    let dump = server.telemetry_json();
    for span in [
        "span.session.interaction",
        "span.plan.resolve",
        "span.fetch.region",
        "span.snapshot.pin",
        "span.cache.lookup",
        "span.sql.execute",
        "span.merge",
        "span.cow.clone",
        "span.publish",
        "span.snapshot.retire",
    ] {
        assert!(observations(span) > 0, "no observations in {span}");
        assert!(dump.contains(&format!("\"{span}\"")), "dump misses {span}");
    }
    // one mutation span and one pyramid repair per mutation
    assert_eq!(observations("span.mutate.raw"), 2);
    assert_eq!(observations("span.pyramid.repair"), 2);
    for counter in [
        "snapshot.cow_pages_copied",
        "snapshot.cow_nodes_copied",
        "snapshot.cow_chunks_copied",
        "sql.heap_pages",
    ] {
        assert!(obs.counter(counter).get() > 0, "{counter} stayed at 0");
        assert!(
            dump.contains(&format!("\"{counter}\"")),
            "dump misses {counter}"
        );
    }

    let n_final = (g.n - 100) as i64;
    for k in 1..=LEVELS {
        let r = server
            .snapshot()
            .query(&format!("SELECT SUM(cnt) FROM {}", cfg.level_table(k)), &[])
            .unwrap();
        assert_eq!(
            r.rows[0].get(0).as_i64().unwrap(),
            n_final,
            "level {k} count"
        );
    }

    // ---- the maintained pyramid is bit-identical to a from-scratch
    // rebuild over the final point set (and the spacing invariant holds)
    assert_eq!(pyramid.levels[0].rows, n_final as usize);
    let mut fresh = Database::new();
    fresh.create_table("galaxy", galaxy_schema()).unwrap();
    {
        let live = server.snapshot();
        let all = live.query("SELECT * FROM galaxy", &[]).unwrap();
        for row in &all.rows {
            fresh.insert("galaxy", row.clone()).unwrap();
        }
    }
    let scratch = build_pyramid(&mut fresh, &cfg).unwrap();
    assert_eq!(pyramid.levels, scratch.levels);
    for k in 1..=LEVELS {
        let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
        let a = server.snapshot().query(&q, &[]).unwrap();
        let b = fresh.query(&q, &[]).unwrap();
        assert_eq!(a.rows, b.rows, "level {k} diverged from a full rebuild");

        let mut grid = SpacingGrid::new(SPACING);
        for (i, row) in a.rows.iter().enumerate() {
            let (x, y) = (row.get(1).as_f64().unwrap(), row.get(2).as_f64().unwrap());
            assert!(
                grid.violator(x, y).is_none(),
                "level {k}: maintained marks violate spacing"
            );
            grid.insert(i, x, y);
        }
    }
}
