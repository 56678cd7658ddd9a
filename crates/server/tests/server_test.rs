//! End-to-end tests of the Kyrix backend: precompute → fetch across every
//! store kind, caches, separability, and prefetching.

use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, PlanHint, RenderSpec,
    TransformSpec,
};
use kyrix_server::{
    fetch_rect, BoxPolicy, BoxResponse, CalibrationTrace, CostModel, DirtyRegion, FetchMetrics,
    FetchPlan, KyrixServer, LayerStore, MomentumTracker, PlanPolicy, PrefetchPolicy, ServerConfig,
    ServerError, Snapshot, TileDesign, TileId, Tiling, PREFETCH_QUEUE_BOUND,
};
use kyrix_storage::{
    DataType, Database, ExecStats, IndexKind, Rect, Row, Schema, SpatialCols, Value,
};
use std::sync::{Arc, Mutex};

/// Grid database: dots at every integer (x, y) in [0, 100) x [0, 100),
/// canvas maps 1 canvas unit = 1 raw unit (placement = raw attributes).
fn grid_db(with_raw_spatial_index: bool) -> Database {
    let mut db = Database::new();
    db.create_table(
        "dots",
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("v", DataType::Float),
    )
    .unwrap();
    for i in 0..10_000i64 {
        let x = (i % 100) as f64;
        let y = (i / 100) as f64;
        db.insert(
            "dots",
            Row::new(vec![
                Value::Int(i),
                Value::Float(x),
                Value::Float(y),
                Value::Float((i % 7) as f64),
            ]),
        )
        .unwrap();
    }
    if with_raw_spatial_index {
        db.create_index(
            "dots",
            "dots_xy",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
    }
    db
}

fn dots_app_sized(placement: PlacementSpec, size: f64) -> AppSpec {
    AppSpec::new("grid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", size, size).layer(LayerSpec::dynamic(
                "t",
                placement,
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("main", 50.0, 50.0)
        .viewport(10.0, 10.0)
}

fn dots_app(placement: PlacementSpec) -> AppSpec {
    dots_app_sized(placement, 100.0)
}

fn launch(db: Database, placement: PlacementSpec, plan: FetchPlan) -> KyrixServer {
    let app = compile(&dots_app(placement), &db).unwrap();
    let config = ServerConfig::new(plan).with_cost(CostModel::zero());
    let (server, _reports) = KyrixServer::launch(app, db, config).unwrap();
    server
}

/// One tile of a layer served as tiles of `size`: the region of exactly
/// the tile's rectangle, which covers that one tile.
fn fetch_one_tile(server: &KyrixServer, canvas: &str, size: f64, tile: TileId) -> BoxResponse {
    let rect = Tiling::new(size).tile_rect(tile);
    server.fetch_region(canvas, 0, &rect).unwrap()
}

fn row_ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Backend operations a metrics aggregate records: every prefetch fetch
/// touches a cache exactly once (hit or miss). `prefetch_totals().requests`
/// is always 0 — prefetching issues no frontend↔backend requests — so
/// background activity is observed through this instead.
fn backend_ops(m: &kyrix_server::FetchMetrics) -> u64 {
    m.cache_hits + m.cache_misses
}

#[test]
fn dbox_fetch_returns_viewport_contents() {
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    let vp = Rect::new(10.0, 10.0, 14.0, 14.0);
    let resp = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(resp.rect, vp);
    assert_eq!(row_ids(&resp.rows).len(), 25); // 5x5 inclusive grid
    assert_eq!(resp.metrics.queries, 1);
    assert_eq!(resp.metrics.cache_misses, 1);
}

#[test]
fn dbox_uses_separable_skip_when_raw_index_exists() {
    let server = launch(
        grid_db(true),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    assert!(matches!(
        server.store("main", 0).unwrap(),
        LayerStore::SeparableRaw { .. }
    ));
    // no side table was created
    assert!(!server.snapshot().has_table("k_grid_main_l0"));
    let vp = Rect::new(10.0, 10.0, 14.0, 14.0);
    let resp = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(row_ids(&resp.rows).len(), 25);
}

#[test]
fn separable_skip_respects_affine_scaling() {
    // canvas coordinates are 5x the raw attributes minus an offset;
    // a canvas-space viewport must translate back to raw space
    let db = grid_db(true);
    db.counters.reset();
    let app = compile(
        &dots_app_sized(PlacementSpec::point("x * 5 + 100", "y * 5 + 100"), 700.0),
        &db,
    )
    .unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        })
        .with_cost(CostModel::zero()),
    )
    .unwrap();
    assert!(matches!(
        server.store("main", 0).unwrap(),
        LayerStore::SeparableRaw { .. }
    ));
    // canvas [100, 120] -> raw [0, 4]
    let vp = Rect::new(100.0, 100.0, 120.0, 120.0);
    let resp = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(row_ids(&resp.rows).len(), 25);
    // returned rows carry canvas-space centers in the layout columns
    let layout = server.store("main", 0).unwrap().layout().unwrap();
    for row in resp.rows.iter() {
        let cx = layout.cx(row);
        assert!((100.0..=120.0).contains(&cx), "cx = {cx}");
    }
}

#[test]
fn non_separable_placement_materializes_side_table() {
    // sqrt placement cannot use the separable path even with a raw index
    let server = launch(
        grid_db(true),
        PlacementSpec::point("sqrt(x) * 10", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    assert!(matches!(
        server.store("main", 0).unwrap(),
        LayerStore::Spatial { .. }
    ));
    assert!(server.snapshot().has_table("k_grid_main_l0"));
    // x in [0,100) -> canvas cx in [0, 100); query a band
    let resp = server
        .fetch_region("main", 0, &Rect::new(0.0, 0.0, 30.0, 0.0))
        .unwrap();
    // sqrt(x)*10 <= 30 -> x <= 9 -> 10 dots in row y=0
    assert_eq!(row_ids(&resp.rows).len(), 10);
    // the side table was clustered on `sp_bbox` once that index existed:
    // a fetch of everything reads the heap front to back, a run per page
    // (~80 rows), where transform-output order would hop between the
    // four grid rows under every leaf
    let all = server
        .snapshot()
        .query(
            "SELECT * FROM k_grid_main_l0 WHERE bbox && rect(-1, -1, 101, 101)",
            &[],
        )
        .unwrap();
    assert_eq!(all.stats.rows_scanned, 10_000);
    assert!(all.stats.heap_pages <= 200, "{:?}", all.stats);
}

#[test]
fn backend_tile_cache_hits_on_refetch() {
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::StaticTiles {
            size: 10.0,
            design: TileDesign::SpatialIndex,
        },
    );
    let t = TileId::new(3, 3);
    let first = fetch_one_tile(&server, "main", 10.0, t);
    assert_eq!(first.metrics.cache_misses, 1);
    assert_eq!(first.metrics.queries, 1);
    let second = fetch_one_tile(&server, "main", 10.0, t);
    assert_eq!(second.metrics.cache_hits, 1);
    assert_eq!(second.metrics.queries, 0, "cache hit runs no query");
    assert_eq!(row_ids(&first.rows), row_ids(&second.rows));
    // clearing the cache forces a query again
    server.clear_caches();
    let third = fetch_one_tile(&server, "main", 10.0, t);
    assert_eq!(third.metrics.cache_misses, 1);
}

#[test]
fn box_cache_serves_contained_viewports() {
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        },
    );
    let vp = Rect::new(40.0, 40.0, 50.0, 50.0);
    let first = server.fetch_region("main", 0, &vp).unwrap();
    assert!(first.rect.contains(&vp));
    assert_eq!(first.metrics.cache_misses, 1);
    // a small pan stays inside the inflated box -> cache hit
    let vp2 = vp.translate(2.0, 0.0);
    let second = server.fetch_region("main", 0, &vp2).unwrap();
    assert_eq!(second.metrics.cache_hits, 1);
    assert_eq!(second.metrics.queries, 0);
    // a big jump leaves the box -> miss
    let vp3 = vp
        .translate(60.0, 0.0)
        .clamp_within(&Rect::new(0.0, 0.0, 100.0, 100.0));
    let third = server.fetch_region("main", 0, &vp3).unwrap();
    assert_eq!(third.metrics.cache_misses, 1);
}

#[test]
fn racing_box_misses_on_one_viewport_shelve_one_entry() {
    // two concurrent misses on the same viewport used to each push their
    // (identical) box onto the fixed-size shelf; the duplicate entry
    // would evict a distinct cached box
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    let a = Rect::new(0.0, 0.0, 10.0, 10.0);
    let b = Rect::new(20.0, 20.0, 30.0, 30.0);
    server.fetch_region("main", 0, &a).unwrap();
    server.fetch_region("main", 0, &b).unwrap();
    // race two threads on one viewport (shelf capacity is 4)
    let vp = Rect::new(40.0, 40.0, 50.0, 50.0);
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                barrier.wait();
                server.fetch_region("main", 0, &vp).unwrap();
            });
        }
    });
    // one more distinct box evicts at most the oldest entry...
    let c = Rect::new(60.0, 60.0, 70.0, 70.0);
    server.fetch_region("main", 0, &c).unwrap();
    // ...so with one shelf entry per racing viewport, `a`, `b` and `vp`
    // all still fit; a duplicated `vp` entry would have pushed `a` off
    for (name, rect) in [("a", &a), ("b", &b), ("vp", &vp)] {
        let again = server.fetch_region("main", 0, rect).unwrap();
        assert_eq!(
            again.metrics.cache_hits, 1,
            "box `{name}` evicted by a duplicate shelf entry"
        );
    }
}

#[test]
fn density_adaptive_box_bounds_tuples() {
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::DensityAdaptive {
                target_tuples: 200,
                max_pct: 1.0,
            },
        },
    );
    let vp = Rect::new(45.0, 45.0, 55.0, 55.0); // 11x11 = 121 dots
    let resp = server.fetch_region("main", 0, &vp).unwrap();
    assert!(resp.rect.contains(&vp));
    assert!(
        resp.rows.len() <= 200 || resp.rect == vp,
        "{} rows in {:?}",
        resp.rows.len(),
        resp.rect
    );
}

#[test]
fn momentum_prefetch_warms_the_cache() {
    let db = grid_db(false);
    let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_cost(CostModel::zero())
    .with_prefetch(PrefetchPolicy::Momentum);
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();

    let vp = Rect::new(10.0, 10.0, 20.0, 20.0);
    // user pans right at 5 units/step; hint the server
    server.hint("main", &vp, (5.0, 0.0));
    server.drain_prefetch().unwrap();
    // one predicted viewport, one box fetched for it
    let warmed = server.prefetch_totals();
    assert_eq!(
        (warmed.cache_misses, warmed.queries),
        (1, 1),
        "prefetch ran"
    );
    assert_eq!(
        server.prefetch_totals().requests,
        0,
        "prefetch is backend-internal: it issues no frontend requests"
    );
    // the predicted viewport is now a cache hit
    let predicted = vp.translate(5.0, 0.0);
    let resp = server.fetch_region("main", 0, &predicted).unwrap();
    assert_eq!(resp.metrics.cache_hits, 1, "prefetched box served");
}

#[test]
fn unknown_canvas_or_layer_is_a_bad_request() {
    let vp = Rect::new(0.0, 0.0, 1.0, 1.0);
    for plan in [MIXED_TILES, MIXED_BOXES] {
        let server = launch(grid_db(false), PlacementSpec::point("x", "y"), plan);
        for (canvas, layer) in [("nope", 0), ("main", 1)] {
            assert!(
                matches!(
                    server.fetch_region(canvas, layer, &vp),
                    Err(ServerError::BadRequest(_))
                ),
                "{plan:?}: layer {layer} of `{canvas}`"
            );
        }
        assert_eq!(server.totals(), FetchMetrics::default());
    }
}

#[test]
fn non_finite_viewports_are_bad_requests() {
    for plan in [MIXED_TILES, MIXED_BOXES] {
        let server = launch(grid_db(false), PlacementSpec::point("x", "y"), plan);
        let before = server.backend_cache_stats();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // each coordinate alone, then all four
            let one = |i: usize| {
                let mut c = [40.0, 40.0, 50.0, 50.0];
                c[i] = bad;
                Rect::new(c[0], c[1], c[2], c[3])
            };
            for rect in (0..4).map(one).chain([Rect::new(bad, bad, bad, bad)]) {
                let served = server.fetch_region("main", 0, &rect);
                assert!(
                    matches!(served, Err(ServerError::BadRequest(_))),
                    "{plan:?}: {rect:?} served {:?} rows",
                    served.map(|r| r.rows.len())
                );
            }
        }
        assert_eq!(
            server.backend_cache_stats(),
            before,
            "{plan:?}: no cache touched"
        );
        assert_eq!(server.totals(), FetchMetrics::default(), "{plan:?}");
        // the server still serves a finite viewport
        let vp = Rect::new(40.0, 40.0, 50.0, 50.0);
        assert!(!server.fetch_region("main", 0, &vp).unwrap().rows.is_empty());
    }
}

#[test]
fn a_non_finite_hint_leaves_the_prefetch_worker_alive() {
    for plan in [MIXED_TILES, MIXED_BOXES] {
        let db = grid_db(false);
        let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
        let config = ServerConfig::new(plan)
            .with_cost(CostModel::zero())
            .with_prefetch(PrefetchPolicy::Momentum);
        let (server, _) = KyrixServer::launch(app, db, config).unwrap();
        let vp = Rect::new(0.0, 20.0, 10.0, 30.0);
        server.hint("main", &vp, (f64::NEG_INFINITY, 0.0));
        server.hint("main", &vp, (f64::NAN, 0.0));
        server.hint("main", &Rect::new(f64::NAN, 20.0, 10.0, 30.0), (10.0, 0.0));
        server.drain_prefetch().unwrap();
        assert_eq!(
            backend_ops(&server.prefetch_totals()),
            0,
            "{plan:?}: a non-finite hint predicts nothing"
        );
        // panning right from tile (0, 2) predicts [10,20)x[20,30): tile
        // (1, 2), or a box around it
        server.hint("main", &vp, (10.0, 0.0));
        server.drain_prefetch().unwrap();
        assert_eq!(
            server.prefetch_totals().cache_misses,
            1,
            "{plan:?}: the worker is alive and warmed the prediction"
        );
        let next = Rect::new(10.0, 20.0, 20.0, 30.0);
        let resp = server.fetch_region("main", 0, &next).unwrap();
        assert_eq!(resp.metrics.cache_hits, 1, "{plan:?}: the warm serves");
    }
}

#[test]
fn totals_accumulate_and_reset() {
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    server
        .fetch_region("main", 0, &Rect::new(0.0, 0.0, 5.0, 5.0))
        .unwrap();
    server
        .fetch_region("main", 0, &Rect::new(50.0, 50.0, 55.0, 55.0))
        .unwrap();
    let t = server.totals();
    assert_eq!(t.requests, 2);
    assert_eq!(t.queries, 2);
    assert!(t.rows > 0);
    server.reset_totals();
    assert_eq!(server.totals().requests, 0);
}

#[test]
fn semantic_prefetch_warms_similar_neighbors() {
    // Skewed data: a dense cluster in the top-left quadrant, sparse dots
    // elsewhere. A user exploring inside the cluster should see the
    // semantic predictor warm the dense neighbor, not the sparse ones.
    let mut db = Database::new();
    db.create_table(
        "dots",
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("v", DataType::Float),
    )
    .unwrap();
    let mut id = 0i64;
    let mut push = |db: &mut Database, x: f64, y: f64| {
        db.insert(
            "dots",
            Row::new(vec![
                Value::Int(id),
                Value::Float(x),
                Value::Float(y),
                Value::Float(0.0),
            ]),
        )
        .unwrap();
        id += 1;
    };
    // dense: every 0.5 units in [0, 40) x [0, 40)
    for gx in 0..80 {
        for gy in 0..80 {
            push(&mut db, gx as f64 * 0.5, gy as f64 * 0.5);
        }
    }
    // sparse: every 10 units elsewhere
    for gx in 0..10 {
        for gy in 0..10 {
            let (x, y) = (gx as f64 * 10.0 + 45.0, gy as f64 * 10.0 + 45.0);
            push(&mut db, x, y);
        }
    }

    let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_cost(CostModel::zero())
    .with_prefetch(PrefetchPolicy::Semantic { top_k: 1 });
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();

    // two viewports inside the dense cluster build the profile. The
    // velocity plays no part in the semantic predictor: a still user is
    // prefetched for all the same
    server.hint("main", &Rect::new(10.0, 10.0, 20.0, 20.0), (0.0, 0.0));
    server.hint("main", &Rect::new(15.0, 10.0, 25.0, 20.0), (0.0, 0.0));
    server.drain_prefetch().unwrap();
    // top_k = 1: each hint warms one neighbor span, one box each
    let totals = server.prefetch_totals();
    assert_eq!(backend_ops(&totals), 2, "semantic prefetch ran per hint");
    // warmed region(s) must be dense-cluster neighbors: every prefetched
    // box should carry dense-cluster row counts (a 10x10 dense window has
    // 400 dots; a sparse one has ~1)
    assert!(
        totals.rows >= 100,
        "prefetched rows should come from the dense region, got {}",
        totals.rows
    );
}

/// Two-canvas app over the same dots table ("overview" + "detail"), for
/// mixed-plan policies. The optional hints mark overview as a tile target
/// and detail as a box target.
fn two_canvas_app(with_hints: bool) -> AppSpec {
    let layer = |hint: PlanHint| {
        let l = LayerSpec::dynamic(
            "t",
            PlacementSpec::point("x", "y"),
            RenderSpec::Marks(MarkEncoding::circle()),
        );
        if with_hints {
            l.with_plan_hint(hint)
        } else {
            l
        }
    };
    AppSpec::new("mixed")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(CanvasSpec::new("overview", 100.0, 100.0).layer(layer(PlanHint::StaticTiles)))
        .add_canvas(CanvasSpec::new("detail", 100.0, 100.0).layer(layer(PlanHint::DynamicBox)))
        .initial("overview", 50.0, 50.0)
        .viewport(10.0, 10.0)
}

const MIXED_TILES: FetchPlan = FetchPlan::StaticTiles {
    size: 10.0,
    design: TileDesign::SpatialIndex,
};
const MIXED_BOXES: FetchPlan = FetchPlan::DynamicBox {
    policy: BoxPolicy::PctLarger(0.5),
};

/// Shared assertions for a server that must serve `overview` with tiles
/// and `detail` with boxes.
fn assert_mixed_serving(server: &KyrixServer) {
    assert_eq!(server.plan_for("overview", 0).unwrap(), MIXED_TILES);
    assert_eq!(server.plan_for("detail", 0).unwrap(), MIXED_BOXES);

    // a tile-aligned rectangle is exactly one tile on the tiled layer
    let tile = fetch_one_tile(server, "overview", 10.0, TileId::new(2, 2));
    assert!(!tile.rows.is_empty());
    assert_eq!(tile.rect, Tiling::new(10.0).tile_rect(TileId::new(2, 2)));
    assert_eq!((tile.metrics.requests, tile.metrics.cache_misses), (1, 1));

    // the region path serves both plans; both responses cover the
    // viewport and agree on its contents (each plan over-fetches
    // differently: whole tiles vs. an inflated box)
    let vp = Rect::new(40.0, 40.0, 50.0, 50.0);
    let a = server.fetch_region("overview", 0, &vp).unwrap();
    let b = server.fetch_region("detail", 0, &vp).unwrap();
    assert!(a.rect.contains(&vp) && b.rect.contains(&vp));
    assert!(b.rect.area() > vp.area(), "box policy applied on detail");
    let within_vp = |rows: &[Row]| -> Vec<i64> {
        let mut ids: Vec<i64> = rows
            .iter()
            .filter(|r| {
                let (x, y) = (r.get(1).as_f64().unwrap(), r.get(2).as_f64().unwrap());
                vp.contains_point(x, y)
            })
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let (in_a, in_b) = (within_vp(&a.rows), within_vp(&b.rows));
    assert_eq!(
        in_a.len(),
        11 * 11,
        "viewport holds an 11x11 inclusive grid"
    );
    assert_eq!(in_a, in_b, "both plans agree on the viewport contents");

    // per-(canvas, layer) cache keys: a second fetch of each is a pure hit
    assert_eq!(
        fetch_one_tile(server, "overview", 10.0, TileId::new(2, 2))
            .metrics
            .cache_hits,
        1
    );
    assert_eq!(
        server
            .fetch_region("detail", 0, &vp)
            .unwrap()
            .metrics
            .cache_hits,
        1
    );
}

#[test]
fn per_canvas_policy_serves_mixed_plans_in_one_app() {
    let db = grid_db(true);
    let app = compile(&two_canvas_app(false), &db).unwrap();
    let policy = PlanPolicy::per_canvas(MIXED_BOXES).with_canvas("overview", MIXED_TILES);
    let config = ServerConfig::from_policy(policy).with_cost(CostModel::zero());
    let (server, reports) = KyrixServer::launch(app, db, config).unwrap();
    assert_eq!(reports.len(), 2);
    assert_mixed_serving(&server);
}

#[test]
fn spec_hint_policy_follows_layer_hints() {
    let db = grid_db(true);
    let app = compile(&two_canvas_app(true), &db).unwrap();
    let policy = PlanPolicy::SpecHints {
        tiles: MIXED_TILES,
        boxes: MIXED_BOXES,
    };
    let config = ServerConfig::from_policy(policy).with_cost(CostModel::zero());
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();
    assert_mixed_serving(&server);
}

#[test]
fn row_threshold_policy_splits_layers_by_volume() {
    // dots has 10k rows; sparse_marks has 3: the rule sends the dense
    // layer to tiles and the sparse one to boxes
    let mut db = grid_db(false);
    db.create_table(
        "sparse_marks",
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float),
    )
    .unwrap();
    for i in 0..3i64 {
        db.insert(
            "sparse_marks",
            Row::new(vec![
                Value::Int(i),
                Value::Float(i as f64 * 30.0 + 10.0),
                Value::Float(50.0),
            ]),
        )
        .unwrap();
    }
    let spec = AppSpec::new("volumes")
        .add_transform(TransformSpec::query("dense_t", "SELECT * FROM dots"))
        .add_transform(TransformSpec::query(
            "sparse_t",
            "SELECT * FROM sparse_marks",
        ))
        .add_canvas(
            CanvasSpec::new("dense", 100.0, 100.0).layer(LayerSpec::dynamic(
                "dense_t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .add_canvas(
            CanvasSpec::new("sparse", 100.0, 100.0).layer(LayerSpec::dynamic(
                "sparse_t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("dense", 50.0, 50.0)
        .viewport(10.0, 10.0);
    let app = compile(&spec, &db).unwrap();
    let policy = PlanPolicy::RowThreshold {
        threshold: 1000,
        dense: MIXED_TILES,
        sparse: MIXED_BOXES,
    };
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::from_policy(policy).with_cost(CostModel::zero()),
    )
    .unwrap();
    assert_eq!(server.plan_for("dense", 0).unwrap(), MIXED_TILES);
    assert_eq!(server.plan_for("sparse", 0).unwrap(), MIXED_BOXES);
    assert!(!fetch_one_tile(&server, "dense", 10.0, TileId::new(5, 5))
        .rows
        .is_empty());
    let sparse = server
        .fetch_region("sparse", 0, &Rect::new(0.0, 40.0, 100.0, 60.0))
        .unwrap();
    assert_eq!(sparse.rows.len(), 3);
}

#[test]
fn estimate_layer_rows_counts_query_output_not_table_size() {
    // an aggregate without GROUP BY scans the whole table but yields one
    // row; the row-threshold policy must see 1, not the table length
    let db = grid_db(false);
    let spec = AppSpec::new("est")
        .add_transform(TransformSpec::query("plain", "SELECT * FROM dots"))
        .add_transform(TransformSpec::query(
            "agg",
            "SELECT AVG(x) AS x, AVG(y) AS y FROM dots",
        ))
        .add_canvas(CanvasSpec::new("a", 100.0, 100.0).layer(LayerSpec::dynamic(
            "plain",
            PlacementSpec::point("x", "y"),
            RenderSpec::Marks(MarkEncoding::circle()),
        )))
        .add_canvas(CanvasSpec::new("b", 100.0, 100.0).layer(LayerSpec::dynamic(
            "agg",
            PlacementSpec::point("x", "y"),
            RenderSpec::Marks(MarkEncoding::circle()),
        )))
        .initial("a", 50.0, 50.0)
        .viewport(10.0, 10.0);
    let app = compile(&spec, &db).unwrap();
    let plain = &app.canvas("a").unwrap().layers[0];
    let agg = &app.canvas("b").unwrap().layers[0];
    assert_eq!(
        kyrix_server::estimate_layer_rows(&db, plain).unwrap(),
        10_000
    );
    assert_eq!(kyrix_server::estimate_layer_rows(&db, agg).unwrap(), 1);
}

#[test]
fn momentum_prefetch_goes_quiet_after_a_stopped_pan() {
    // regression: the smoothed velocity never decays to exactly zero, so
    // the worker used to keep issuing backend requests for sub-pixel
    // predictions indefinitely after a pan ended
    let db = grid_db(false);
    let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_cost(CostModel::zero())
    .with_prefetch(PrefetchPolicy::Momentum);
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();

    let mut tracker = MomentumTracker::new();
    let mut vp = Rect::new(0.0, 0.0, 10.0, 10.0);
    for _ in 0..6 {
        vp = vp.translate(5.0, 0.0);
        let v = tracker.observe(&vp);
        server.hint("main", &vp, v);
    }
    // the pan stops: the same viewport is observed from here on. The
    // residual velocity (5 units on a 10-unit viewport) must fall below
    // the decay threshold within a bounded number of idle observations…
    for _ in 0..16 {
        let v = tracker.observe(&vp);
        server.hint("main", &vp, v);
    }
    server.drain_prefetch().unwrap();
    let settled = backend_ops(&server.prefetch_totals());
    assert!(settled >= 5, "the pan itself was prefetched");
    // …after which further idle observations trigger zero backend work
    for _ in 0..16 {
        let v = tracker.observe(&vp);
        server.hint("main", &vp, v);
    }
    server.drain_prefetch().unwrap();
    assert_eq!(
        backend_ops(&server.prefetch_totals()),
        settled,
        "prefetcher still issuing backend work after the pan stopped"
    );
}

#[test]
fn a_full_prefetch_queue_drops_and_counts_hints() {
    let db = grid_db(false);
    let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_cost(CostModel::zero())
    .with_prefetch(PrefetchPolicy::Momentum);
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();

    // a burst far beyond the queue bound, faster than the worker fetches:
    // every hint moves, so each one the worker handles fetches one box
    let sent = 8 * PREFETCH_QUEUE_BOUND as u64;
    for i in 0..sent {
        let x = (i % 80) as f64;
        server.hint("main", &Rect::new(x, 10.0, x + 10.0, 20.0), (1.0, 0.0));
    }
    server.drain_prefetch().unwrap();
    let handled = backend_ops(&server.prefetch_totals());
    let dropped = server.obs().counter("prefetch.dropped").get();
    assert_eq!(handled + dropped, sent, "every hint handled or counted");
    assert!(handled >= 1, "the worker ran");
    assert!(dropped > 0, "the burst outran the worker");
    // once drained, the queue has room again: nothing more is dropped
    server.hint("main", &Rect::new(0.0, 50.0, 10.0, 60.0), (1.0, 0.0));
    server.drain_prefetch().unwrap();
    assert_eq!(backend_ops(&server.prefetch_totals()), handled + 1);
    assert_eq!(server.obs().counter("prefetch.dropped").get(), dropped);
}

#[test]
fn fetch_region_dedups_tile_straddlers_under_both_stores() {
    // marks have 1x1 boxes, so a mark at a multiple of the tile size
    // straddles a tile edge and arrives via several tiles; fetch_region
    // must return it once. A genuinely duplicated raw row (same id and
    // position) must still come back twice — it is two marks.
    for raw_index in [false, true] {
        let mut db = grid_db(raw_index);
        for _ in 0..2 {
            db.insert(
                "dots",
                Row::new(vec![
                    Value::Int(20_000),
                    Value::Float(50.0),
                    Value::Float(50.0),
                    Value::Float(1.0),
                ]),
            )
            .unwrap();
        }
        let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
        let (server, reports) = KyrixServer::launch(
            app,
            db,
            ServerConfig::new(FetchPlan::StaticTiles {
                size: 10.0,
                design: TileDesign::SpatialIndex,
            }),
        )
        .unwrap();
        assert_eq!(
            reports[0].skipped_separable, raw_index,
            "store kind follows the raw index"
        );
        // spans 2x2 tiles around (50, 50): plenty of straddlers
        let resp = server
            .fetch_region("main", 0, &Rect::new(41.0, 41.0, 59.0, 59.0))
            .unwrap();
        let mut counts: std::collections::HashMap<(i64, u64, u64), usize> =
            std::collections::HashMap::new();
        for row in resp.rows.iter() {
            let key = (
                row.get(0).as_i64().unwrap(),
                row.get(1).as_f64().unwrap().to_bits(),
                row.get(2).as_f64().unwrap().to_bits(),
            );
            *counts.entry(key).or_insert(0) += 1;
        }
        let dup_key = (20_000, 50.0f64.to_bits(), 50.0f64.to_bits());
        for (key, n) in &counts {
            let expect = if *key == dup_key { 2 } else { 1 };
            assert_eq!(
                *n, expect,
                "raw_index={raw_index}: mark {key:?} returned {n} times"
            );
        }
        assert!(counts.len() > 100, "the region actually held many marks");
    }
}

#[test]
fn fully_prefetched_trace_reports_cold_totals() {
    // Invariant: for the same trace, totals() + prefetch_totals() of a
    // fully prefetch-warmed run carries the same request/query/byte totals
    // as a cold run — warming moves work earlier, it must not double-count
    // it in modeled_ms (once at prefetch time, again at cache-hit serve).
    let tiles = FetchPlan::StaticTiles {
        size: 10.0,
        design: TileDesign::SpatialIndex,
    };
    // four viewports, each exactly one 10-unit tile, panning right
    let trace: Vec<Rect> = (1..=4)
        .map(|i| Rect::new(10.0 * i as f64, 20.0, 10.0 * i as f64 + 10.0, 30.0))
        .collect();

    // cold reference run
    let cold_server = launch(grid_db(false), PlacementSpec::point("x", "y"), tiles);
    for vp in &trace {
        cold_server.fetch_region("main", 0, vp).unwrap();
    }
    let cold = cold_server.totals();
    assert_eq!(cold.queries, 4, "four distinct tiles, each queried once");

    // warmed run: each step's momentum prediction is the next trace
    // viewport, starting one tile left of the trace
    let db = grid_db(false);
    let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
    let config = ServerConfig::new(tiles)
        .with_cost(CostModel::zero())
        .with_prefetch(PrefetchPolicy::Momentum);
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();
    let start = Rect::new(0.0, 20.0, 10.0, 30.0);
    for vp in std::iter::once(&start).chain(&trace[..trace.len() - 1]) {
        server.hint("main", vp, (10.0, 0.0));
    }
    server.drain_prefetch().unwrap();
    assert_eq!(
        server.prefetch_totals().queries,
        4,
        "trace fully prefetched"
    );
    for vp in &trace {
        let resp = server.fetch_region("main", 0, vp).unwrap();
        assert_eq!(resp.metrics.queries, 0, "served from the warmed cache");
    }
    let fg = server.totals();
    assert_eq!(fg.cache_hits, 4, "every foreground serve was a hit");
    let mut combined = fg;
    combined.merge(&server.prefetch_totals());
    assert_eq!(combined.requests, cold.requests, "requests double-counted");
    assert_eq!(combined.queries, cold.queries, "queries double-counted");
    assert_eq!(combined.bytes, cold.bytes, "bytes double-counted");
    assert_eq!(combined.rows, cold.rows + server.prefetch_totals().rows);
}

#[test]
fn measured_policy_tunes_each_layer_from_the_trace() {
    // Narrow modeled bandwidth (2 KB/ms) so byte over-fetch dominates:
    // tile-aligned one-tile viewports make tiles cheapest on `overview`
    // (the 50%-inflated box ships ~2x the rows for the same one request),
    // while the 3x3 `detail` viewports inside one tile ship the whole tile
    // under tiles and lose to one small inflated box.
    let cost = CostModel::new(1.0, 2.0, 2_000.0);
    let mut trace = CalibrationTrace::new();
    for i in 0..3 {
        let o = 10.0 * (i as f64 + 1.0);
        trace.push("overview", Rect::new(o, 10.0, o + 10.0, 20.0));
        trace.push("detail", tiny_viewport(o));
    }
    let policy = PlanPolicy::measured(vec![MIXED_TILES, MIXED_BOXES], trace);
    let db = grid_db(true);
    let app = compile(&two_canvas_app(false), &db).unwrap();
    let (server, reports) =
        KyrixServer::launch(app, db, ServerConfig::from_policy(policy).with_cost(cost)).unwrap();
    assert_eq!(reports.len(), 2);

    let report = server
        .tuning_report()
        .expect("measured launch reports")
        .clone();
    assert_eq!(report.layers.len(), 2);
    for lt in &report.layers {
        assert_eq!(lt.steps, 3, "every layer replayed its 3 trace steps");
        assert_eq!(lt.candidates.len(), 2);
        // chosen is the argmin of the recorded candidate costs…
        assert!(lt
            .candidates
            .iter()
            .all(|c| lt.chosen_cost().modeled_ms <= c.modeled_ms));
        // …and the server resolved exactly that plan
        assert_eq!(
            server.plan_for(&lt.canvas, lt.layer).unwrap(),
            lt.chosen_plan()
        );
    }
    assert_eq!(
        report.chosen("overview", 0),
        Some(MIXED_TILES),
        "aligned single-tile trace → tiles"
    );
    assert_eq!(
        report.chosen("detail", 0),
        Some(MIXED_BOXES),
        "trace of viewports far smaller than a tile → boxes"
    );
    // the tuned assignment never loses to either uniform assignment on the
    // calibration measurements
    assert!(report.total_modeled_ms() <= report.uniform_modeled_ms(&MIXED_TILES).unwrap());
    assert!(report.total_modeled_ms() <= report.uniform_modeled_ms(&MIXED_BOXES).unwrap());
    // the tuned server serves mixed plans end-to-end
    assert_mixed_serving(&server);

    // freezing the report reproduces the assignment without re-measuring
    let frozen = report.frozen_policy(MIXED_BOXES);
    let db = grid_db(true);
    let app = compile(&two_canvas_app(false), &db).unwrap();
    let (frozen_server, _) =
        KyrixServer::launch(app, db, ServerConfig::from_policy(frozen).with_cost(cost)).unwrap();
    assert!(frozen_server.tuning_report().is_none(), "no tuning ran");
    assert_eq!(frozen_server.plan_for("overview", 0).unwrap(), MIXED_TILES);
    assert_eq!(frozen_server.plan_for("detail", 0).unwrap(), MIXED_BOXES);
}

/// A cold viewport over several tiles under tiles is the very fetch an
/// exact box makes. The tuner measures that fetch once and both
/// candidates carry its cost, so they tie exactly and the earlier
/// candidate keeps the layer in either order — measured DB time, which
/// differs from one run of the same fetch to the next, never decides.
#[test]
fn candidates_that_make_the_same_fetch_tie_exactly() {
    let exact = FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    };
    let mut trace = CalibrationTrace::new();
    for i in 0..6 {
        // 10x10 viewports on a tile corner: four covering tiles each
        let o = 5.0 + 10.0 * i as f64;
        trace.push("overview", Rect::new(o, o, o + 10.0, o + 10.0));
        trace.push("detail", Rect::new(o, 15.0, o + 10.0, 25.0));
    }
    // a viewport past every edge: the exact box clamps it to the canvas,
    // the same fetch within the canvas
    trace.push("overview", Rect::new(-10.0, -10.0, 110.0, 110.0));
    for candidates in [vec![MIXED_TILES, exact], vec![exact, MIXED_TILES]] {
        let first = candidates[0];
        let policy = PlanPolicy::measured(candidates, trace.clone());
        let db = grid_db(true);
        let app = compile(&two_canvas_app(false), &db).unwrap();
        let (server, _) = KyrixServer::launch(app, db, ServerConfig::from_policy(policy)).unwrap();
        let report = server.tuning_report().expect("measured launch reports");
        for lt in &report.layers {
            let [a, b] = &lt.candidates[..] else {
                panic!("two candidates")
            };
            assert_eq!(a.metrics, b.metrics, "{}: one fetch, one cost", lt.canvas);
            assert_eq!(a.modeled_ms, b.modeled_ms);
            assert_eq!(
                lt.chosen, 0,
                "{}: the tie keeps the earlier candidate",
                lt.canvas
            );
            assert_eq!(server.plan_for(&lt.canvas, 0).unwrap(), first);
        }
    }
}

#[test]
fn layer_totals_attribute_foreground_metrics_per_layer() {
    let db = grid_db(true);
    let app = compile(&two_canvas_app(false), &db).unwrap();
    let policy = PlanPolicy::per_canvas(MIXED_BOXES).with_canvas("overview", MIXED_TILES);
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::from_policy(policy).with_cost(CostModel::zero()),
    )
    .unwrap();
    assert_eq!(
        server.layer_totals("overview", 0).unwrap(),
        FetchMetrics::default(),
        "zero before the first request"
    );
    fetch_one_tile(&server, "overview", 10.0, TileId::new(2, 2));
    fetch_one_tile(&server, "overview", 10.0, TileId::new(3, 2));
    server
        .fetch_region("detail", 0, &Rect::new(40.0, 40.0, 50.0, 50.0))
        .unwrap();
    let overview = server.layer_totals("overview", 0).unwrap();
    let detail = server.layer_totals("detail", 0).unwrap();
    assert_eq!(overview.requests, 2);
    assert_eq!(detail.requests, 1);
    // the per-layer totals partition the server totals
    let totals = server.totals();
    assert_eq!(totals.requests, overview.requests + detail.requests);
    assert_eq!(totals.queries, overview.queries + detail.queries);
    assert_eq!(totals.bytes, overview.bytes + detail.bytes);
    // a bogus layer is an error, not silent zeros
    assert!(server.layer_totals("overview", 7).is_err());
    assert!(server.layer_totals("nope", 0).is_err());
    server.reset_totals();
    assert_eq!(
        server.layer_totals("detail", 0).unwrap(),
        FetchMetrics::default()
    );
}

// ------------------------------------------------------- live mutation

/// Delete one dot by id inside a `mutate_shards` closure, reporting its
/// position as the dirty region.
fn delete_dot(server: &KyrixServer, id: i64, x: f64, y: f64) -> u64 {
    server
        .mutate_shards(&["dots"], |shards| {
            let db = &mut shards[0];
            let n = db
                .delete_where("dots", "id = $1", &[Value::Int(id)])
                .map_err(kyrix_server::ServerError::from)?;
            assert_eq!(n, 1, "dot {id} existed");
            Ok((
                server.data_version(),
                vec![kyrix_server::DirtyRegion::new(
                    "dots",
                    Rect::new(x, y, x, y),
                )],
            ))
        })
        .unwrap()
}

#[test]
fn mutate_shards_invalidates_only_intersecting_tiles() {
    let server = launch(
        grid_db(true),
        PlacementSpec::point("x", "y"),
        FetchPlan::StaticTiles {
            size: 25.0,
            design: TileDesign::SpatialIndex,
        },
    );
    assert_eq!(server.data_version(), 0);
    let near = TileId::new(0, 0); // covers [0,25)² — will be dirtied
    let far = TileId::new(3, 3); // covers [75,100)² — must survive
    let before = fetch_one_tile(&server, "main", 25.0, near);
    fetch_one_tile(&server, "main", 25.0, far);

    // delete the dot at (5, 5): id = y * 100 + x
    delete_dot(&server, 505, 5.0, 5.0);
    assert_eq!(server.data_version(), 1);

    // the far tile still serves from cache; the near tile refetches and
    // sees the deletion
    let far2 = fetch_one_tile(&server, "main", 25.0, far);
    assert_eq!(far2.metrics.cache_hits, 1, "clean tile must stay cached");
    let near2 = fetch_one_tile(&server, "main", 25.0, near);
    assert_eq!(near2.metrics.cache_misses, 1, "dirty tile must refetch");
    assert_eq!(near2.rows.len(), before.rows.len() - 1);
    assert!(!row_ids(&near2.rows).contains(&505));

    // the mutation log names the canvas-space region
    let changes = server.changes_since(0).unwrap();
    assert_eq!(changes.len(), 1);
    let (canvas, layer, rect) = &changes[0];
    assert_eq!((canvas.as_str(), *layer), ("main", 0));
    assert!(rect.contains_point(5.0, 5.0));
    assert!(server.changes_since(1).unwrap().is_empty());
}

#[test]
fn mutate_shards_invalidates_only_overlapping_boxes() {
    let server = launch(
        grid_db(true),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    let near_vp = Rect::new(10.0, 10.0, 20.0, 20.0);
    let far_vp = Rect::new(60.0, 60.0, 70.0, 70.0);
    let near_before = server.fetch_region("main", 0, &near_vp).unwrap();
    server.fetch_region("main", 0, &far_vp).unwrap();

    delete_dot(&server, 1515, 15.0, 15.0);

    let far2 = server.fetch_region("main", 0, &far_vp).unwrap();
    assert_eq!(far2.metrics.cache_hits, 1, "clean box must stay cached");
    let near2 = server.fetch_region("main", 0, &near_vp).unwrap();
    assert_eq!(near2.metrics.cache_misses, 1, "dirty box must refetch");
    assert_eq!(near2.rows.len(), near_before.rows.len() - 1);
    assert!(!row_ids(&near2.rows).contains(&1515));
}

#[test]
fn a_publish_invalidates_a_prefetched_tile() {
    // a tile the prefetch worker warmed is serving state like any other:
    // a mutation inside it must drop it, and the next fetch must read the
    // published data
    let db = grid_db(true);
    let app = compile(&dots_app(PlacementSpec::point("x", "y")), &db).unwrap();
    let config = ServerConfig::new(FetchPlan::StaticTiles {
        size: 10.0,
        design: TileDesign::SpatialIndex,
    })
    .with_cost(CostModel::zero())
    .with_prefetch(PrefetchPolicy::Momentum);
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();
    // panning right from tile (0, 2) predicts tile (1, 2) = [10,20)x[20,30)
    server.hint("main", &Rect::new(0.0, 20.0, 10.0, 30.0), (10.0, 0.0));
    server.drain_prefetch().unwrap();
    let tile = Rect::new(10.0, 20.0, 20.0, 30.0);
    assert_eq!(server.prefetch_totals().cache_misses, 1, "tile warmed");

    let (x, y) = (15.5, 25.5);
    server
        .mutate_shards(&["dots"], |shards| {
            let row = Row::new(vec![
                Value::Int(20_000),
                Value::Float(x),
                Value::Float(y),
                Value::Float(0.0),
            ]);
            shards[0]
                .insert("dots", row)
                .map_err(kyrix_server::ServerError::from)?;
            Ok(((), vec![DirtyRegion::new("dots", Rect::new(x, y, x, y))]))
        })
        .unwrap();

    let resp = server.fetch_region("main", 0, &tile).unwrap();
    assert_eq!(
        (resp.metrics.cache_hits, resp.metrics.cache_misses),
        (0, 1),
        "the warmed tile was dropped by the publish"
    );
    assert!(
        row_ids(&resp.rows).contains(&20_000),
        "the new row is served"
    );
}

#[test]
fn pinned_view_keeps_its_rows_across_publishes() {
    let server = launch(
        grid_db(true),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    let reads = [
        "SELECT * FROM dots",
        "SELECT * FROM dots WHERE bbox && rect(0, 0, 60, 60)",
    ];
    let pinned = server.snapshot();
    let before: Vec<Vec<Row>> = reads
        .iter()
        .map(|sql| pinned.query(sql, &[]).unwrap().rows)
        .collect();

    // three publishes, each deleting a dot the pinned view can see
    for (id, x, y) in [(0, 0.0, 0.0), (5050, 50.0, 50.0), (303, 3.0, 3.0)] {
        delete_dot(&server, id, x, y);
    }
    assert_eq!(server.data_version(), 3);
    assert_eq!(server.snapshot().table_len("dots").unwrap(), 9_997);

    // the successors were built from pages and nodes shared with the
    // pinned version; it answers as it did before them
    for (sql, rows) in reads.iter().zip(&before) {
        assert_eq!(&pinned.query(sql, &[]).unwrap().rows, rows, "{sql}");
    }
    // each publish unshared the table and copied the one heap page and the
    // one R-tree leaf its delete landed on, each with its chunk of handles,
    // then dropped the head it retired
    let count = |name: &str| server.obs().counter(name).get();
    assert_eq!(count("snapshot.cow_table_copies"), 3);
    assert_eq!(count("snapshot.cow_pages_copied"), 3);
    assert_eq!(count("snapshot.cow_nodes_copied"), 3);
    assert_eq!(count("snapshot.cow_chunks_copied"), 6);
    let retires = server.obs().histogram("span.snapshot.retire").snapshot();
    assert_eq!(retires.count(), 3);
}

#[test]
fn mutation_log_truncates_to_a_full_refetch_signal() {
    let server = launch(
        grid_db(true),
        PlacementSpec::point("x", "y"),
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    );
    // more mutations than the log keeps
    for i in 0..70i64 {
        delete_dot(&server, i, (i % 100) as f64, (i / 100) as f64);
    }
    assert_eq!(server.data_version(), 70);
    assert!(
        server.changes_since(0).is_none(),
        "a session 70 versions behind must be told to refetch everything"
    );
    assert!(server.changes_since(69).is_some());
    assert!(
        server.changes_since(71).is_none(),
        "future versions are unknown"
    );
}

#[test]
fn failed_mutation_closure_aborts_atomically() {
    // the closure mutates a *successor* database built off to the side;
    // when it errors the successor is discarded, so even a partial
    // mutation never reaches the published snapshot — no version bump, no
    // invalidation, caches intact
    let server = launch(
        grid_db(true),
        PlacementSpec::point("x", "y"),
        FetchPlan::StaticTiles {
            size: 25.0,
            design: TileDesign::SpatialIndex,
        },
    );
    let rows_before = server.snapshot().table_len("dots").unwrap();
    let tile = TileId::new(3, 3);
    fetch_one_tile(&server, "main", 25.0, tile); // warm a far-away tile
    let result: Result<(), _> = server.mutate_shards(&["dots"], |shards| {
        let db = &mut shards[0];
        // partial mutation, then failure
        db.delete_where("dots", "id = $1", &[Value::Int(0)])
            .unwrap();
        Err(kyrix_server::ServerError::Config(
            "crashed mid-batch".into(),
        ))
    });
    assert!(result.is_err());
    assert_eq!(server.data_version(), 0, "aborted mutations never bump");
    assert_eq!(
        server.snapshot().table_len("dots").unwrap(),
        rows_before,
        "the partial delete must not be visible"
    );
    assert_eq!(
        server.changes_since(0),
        Some(vec![]),
        "sessions have nothing to refetch"
    );
    let again = fetch_one_tile(&server, "main", 25.0, tile);
    assert_eq!(again.metrics.cache_hits, 1, "caches survive the abort");
}

#[test]
fn dirty_region_on_an_undeclared_table_aborts_before_publish() {
    // `dots` feeds a materialized layer (no raw point index), so declaring
    // it is refused up front; a closure that declares another table, then
    // writes `dots` and reports a dirty region on it, must not publish
    // either — the layer's copy would go stale without a word
    let server = launch(
        grid_db(false),
        PlacementSpec::point("x", "y"),
        FetchPlan::StaticTiles {
            size: 25.0,
            design: TileDesign::SpatialIndex,
        },
    );
    assert!(matches!(
        server.store("main", 0).unwrap(),
        LayerStore::Spatial { .. }
    ));
    let declared = server.mutate_shards::<()>(&["dots"], |_| {
        panic!("a refused table never reaches the closure")
    });
    assert!(
        declared.is_err(),
        "a materialized layer's source is refused"
    );
    let vp = Rect::new(0.0, 0.0, 30.0, 30.0);
    let pinned = server.snapshot();
    let seen = server.fetch_region("main", 0, &vp).unwrap();
    let result = server.mutate_shards(&["other"], |shards| {
        let db = &mut shards[0];
        db.delete_where("dots", "id < $1", &[Value::Int(500)])
            .map_err(kyrix_server::ServerError::from)?;
        Ok((
            (),
            vec![kyrix_server::DirtyRegion::new(
                "dots",
                Rect::new(0.0, 0.0, 99.0, 4.0),
            )],
        ))
    });
    assert!(result.is_err(), "an undeclared dirty table must be refused");
    assert_eq!(server.data_version(), 0, "nothing was published");
    assert_eq!(server.changes_since(0), Some(vec![]));
    assert_eq!(server.snapshot().table_len("dots").unwrap(), 10_000);
    // the session's pin and the head still answer with the rows it saw:
    // the cold region (the viewport) and, once the worker has filled its
    // tiles, the warm one (the covering tiles) are the pinned data over
    // the same rect
    let store = server.store("main", 0).unwrap();
    assert_eq!(seen.rect, vp, "served cold: the viewport");
    let (rows, _) = fetch_rect(&*pinned, &store, &seen.rect).unwrap();
    assert_eq!(row_ids(&rows), row_ids(&seen.rows));
    server.drain_prefetch().unwrap();
    let again = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(again.rect, Rect::new(0.0, 0.0, 50.0, 50.0), "served warm");
    let (rows, _) = fetch_rect(&*pinned, &store, &again.rect).unwrap();
    assert_eq!(row_ids(&again.rows), row_ids(&rows));
}

// ------------------------------------------------------- drift monitor

/// Measured launch whose calibration trace makes tiles win `overview` and
/// boxes win `detail`, with every serving cache disabled so a replay's
/// fetch metrics are exactly the cold-protocol calibration metrics.
///
/// Calibration on `overview` is 4x4 viewports over a tile corner: a cold
/// serve under tiles fetches the viewport (5x5 dots, counting the marks
/// that poke in), less than the 50%-inflated box (7x7). On `detail` it is
/// 3x3 viewports inside a tile: tiles ship the whole tile (11x11 dots),
/// the box 6x6.
fn launch_tuned_for_drift() -> KyrixServer {
    let cost = CostModel::new(1.0, 2.0, 2_000.0);
    let mut trace = CalibrationTrace::new();
    for i in 0..3 {
        let o = 10.0 * (i as f64 + 2.0);
        trace.push("overview", Rect::new(o - 2.0, 18.0, o + 2.0, 22.0));
        trace.push("detail", tiny_viewport(o));
    }
    let policy = PlanPolicy::measured(vec![MIXED_TILES, MIXED_BOXES], trace);
    let db = grid_db(true);
    let app = compile(&two_canvas_app(false), &db).unwrap();
    let mut config = ServerConfig::from_policy(policy)
        .with_cost(cost)
        .with_backend_cache(0);
    config.box_cache_entries = 0;
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();
    assert_eq!(server.plan_for("overview", 0).unwrap(), MIXED_TILES);
    assert_eq!(server.plan_for("detail", 0).unwrap(), MIXED_BOXES);
    server
}

/// A 3x3 viewport inside the tile whose left edge is at `o`.
fn tiny_viewport(o: f64) -> Rect {
    Rect::new(o + 3.0, 13.0, o + 6.0, 16.0)
}

/// The drifted workload: three `overview` viewports inside one tile each.
fn shift_overview(server: &KyrixServer) {
    for i in 0..3 {
        let o = 10.0 * (i as f64 + 2.0);
        server
            .fetch_region("overview", 0, &tiny_viewport(o))
            .unwrap();
    }
}

#[test]
fn drift_report_stays_quiet_on_an_undrifted_replay() {
    let server = launch_tuned_for_drift();
    // live traffic = the calibration workload itself (caches are off, so
    // every serve pays exactly what the calibration replay paid)
    for i in 0..3 {
        let o = 10.0 * (i as f64 + 2.0);
        server
            .fetch_region("overview", 0, &Rect::new(o - 2.0, 18.0, o + 2.0, 22.0))
            .unwrap();
        server.fetch_region("detail", 0, &tiny_viewport(o)).unwrap();
    }
    let report = server.drift_report().expect("measured launch has a report");
    assert_eq!(report.layers.len(), 2, "both layers saw live traffic");
    assert!(
        !report.any_drift(),
        "undrifted replay must not flag: {}",
        report.summary()
    );
    assert!(report.flagged().is_empty());
    for l in &report.layers {
        assert_eq!(l.live_steps, 3);
        assert!(l.best_alternative.is_some(), "two candidates were tuned");
    }
}

#[test]
fn drift_report_flags_a_shifted_workload() {
    let server = launch_tuned_for_drift();
    // the workload shifts: overview viewports now sit inside one tile, so
    // every step ships the whole tile (11x11 dots) where calibration
    // shipped a 5x5 viewport — and the box calibrated at 7x7
    shift_overview(&server);
    let report = server.drift_report().unwrap();
    assert_eq!(
        report.layers.len(),
        1,
        "only overview saw live traffic; detail is skipped"
    );
    let flagged = report.flagged();
    assert_eq!(flagged.len(), 1, "{}", report.summary());
    let l = flagged[0];
    assert_eq!((l.canvas.as_str(), l.layer), ("overview", 0));
    assert_eq!(l.serving, MIXED_TILES);
    assert_eq!(l.best_alternative, Some(MIXED_BOXES));
    assert!(l.live_net_per_step_ms > l.calib_net_per_step_ms);
    assert!(report.any_drift());
    assert!(report.summary().contains("overview"));
}

#[test]
fn drift_report_absent_without_a_measured_launch() {
    let server = launch(grid_db(false), PlacementSpec::point("x", "y"), MIXED_TILES);
    assert!(server.drift_report().is_none());
}

// ---------------------------------------------------- end-to-end EXPLAIN

#[test]
fn explain_renders_plan_tuner_drift_and_storage_path() {
    let server = launch_tuned_for_drift();

    // Before any traffic: tuner rationale present, drift not yet assessed.
    let ex = server.explain("overview", 0).unwrap();
    assert_eq!(ex.plan, MIXED_TILES);
    let tuning = ex.tuning.as_ref().expect("measured launch was tuned");
    assert_eq!(tuning.candidates.len(), 2, "per-candidate modeled costs");
    assert!(tuning.candidates.iter().all(|c| c.modeled_ms.is_finite()));
    assert!(ex.drift.is_none(), "no live traffic yet");
    let text = ex.render();
    assert!(text.contains("EXPLAIN canvas=overview layer=0"), "{text}");
    assert!(text.contains("tuner: 3 calibration steps"), "{text}");
    assert!(text.contains("[chosen]"), "{text}");
    assert!(text.contains("drift: not assessed"), "{text}");

    // The storage half: the layer's fetch SQL and its access path.
    // The SQL is the statement a fetch executes, text for text: fetch one
    // tile through the served store against a copy of the data whose
    // query observer records what ran.
    let sql = ex.fetch_sql.as_ref().expect("dynamic layer fetches");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let mut db = grid_db(true);
    db.set_query_observer(Some(Arc::new(move |sql: &str, _, _: &ExecStats| {
        sink.lock().unwrap().push(sql.to_string())
    })));
    let store = server.store("overview", 0).unwrap();
    let tile = Tiling::new(10.0).tile_rect(TileId::new(2, 2));
    let (rows, _) = fetch_rect(&Snapshot::pin(&db), &store, &tile).unwrap();
    assert!(!rows.is_empty());
    assert_eq!(*seen.lock().unwrap(), std::slice::from_ref(sql));
    assert!(
        ex.storage_plan
            .iter()
            .any(|l| l.starts_with("SpatialScan(")),
        "spatial store must explain to a spatial access path: {:?}",
        ex.storage_plan
    );

    // Shifted live traffic (the drift fixture's scenario): the report now
    // flags the layer and EXPLAIN says so.
    shift_overview(&server);
    let ex = server.explain("overview", 0).unwrap();
    let drift = ex.drift.as_ref().expect("live traffic was assessed");
    assert!(drift.drifted);
    let text = ex.render();
    assert!(text.contains("DRIFTED"), "{text}");
    assert!(text.contains("best alt"), "{text}");
}

#[test]
fn explain_on_a_static_launch_says_why_nothing_was_measured() {
    let server = launch(grid_db(false), PlacementSpec::point("x", "y"), MIXED_TILES);
    let ex = server.explain("main", 0).unwrap();
    assert!(ex.tuning.is_none());
    assert!(ex.drift.is_none());
    let text = ex.render();
    assert!(text.contains("tuner: not measured"), "{text}");
    assert!(text.contains("drift: not assessed"), "{text}");
    assert!(text.contains("policy:"), "{text}");
    assert!(server.explain("nope", 0).is_err(), "unknown canvas errors");
    assert!(server.explain("main", 9).is_err(), "unknown layer errors");
}
