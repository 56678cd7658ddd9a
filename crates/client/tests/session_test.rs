//! Session-level integration tests: fetching via frontend caches,
//! hit-testing, and rendering.

use kyrix_client::Session;
use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RampKind, RenderSpec,
    TransformSpec,
};
use kyrix_render::{Color, Mark};
use kyrix_server::{
    BoxPolicy, CostModel, DirtyRegion, FetchPlan, KyrixServer, ServerConfig, TileDesign,
};
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use std::sync::Arc;

/// 40x40 grid of dots, 25px apart on a 1000x1000 canvas, value = x index.
fn grid_db() -> Database {
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
    for i in 0..1600i64 {
        db.insert(
            "dots",
            Row::new(vec![
                Value::Int(i),
                Value::Float((i % 40) as f64 * 25.0 + 12.5),
                Value::Float((i / 40) as f64 * 25.0 + 12.5),
                Value::Float((i % 40) as f64),
            ]),
        )
        .unwrap();
    }
    db
}

fn launch(plan: FetchPlan) -> Arc<KyrixServer> {
    let db = grid_db();
    let spec = AppSpec::new("grid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", 1000.0, 1000.0).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::boxed("x", "y", "20", "20"),
                RenderSpec::Marks(MarkEncoding::rect().with_color(
                    "v",
                    0.0,
                    39.0,
                    RampKind::Viridis,
                )),
            )),
        )
        .initial("main", 500.0, 500.0)
        .viewport(200.0, 200.0);
    let app = compile(&spec, &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(plan).with_cost(CostModel::zero()),
    )
    .unwrap();
    Arc::new(server)
}

#[test]
fn frontend_region_cache_avoids_refetch() {
    let server = launch(FetchPlan::StaticTiles {
        size: 200.0,
        design: TileDesign::SpatialIndex,
    });
    let (mut session, _) = Session::open(server.clone()).unwrap();
    let before = server.totals().queries;
    // pan away and back: the original region is still on the frontend shelf
    session.pan_by(200.0, 0.0).unwrap();
    let mid = server.totals().queries;
    let back = session.pan_by(-200.0, 0.0).unwrap();
    assert!(mid > before, "the pan out fetched something");
    assert_eq!(
        server.totals().queries,
        mid,
        "the pan back was served locally"
    );
    assert!(back.frontend_hits > 0);
    assert_eq!(back.fetch.requests, 0, "no backend request on the pan back");
    assert!(session.frontend_cache_stats().hits > 0);
}

#[test]
fn object_at_finds_the_right_dot() {
    let server = launch(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    });
    let (mut session, _) = Session::open(server).unwrap();
    // dot at grid position (20, 20): center (512.5, 512.5)
    let hit = session.object_at(512.0, 512.0).unwrap();
    let (_, row) = hit.expect("a dot is under the cursor");
    assert_eq!(row.get(0), &Value::Int(20 * 40 + 20));
    // gutter between dots: boxes are 20 wide on a 25 grid
    let miss = session.object_at(500.0, 500.0).unwrap();
    assert!(miss.is_none(), "the gutter has no object");
}

#[test]
fn render_draws_viridis_choropleth() {
    let server = launch(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    });
    let (mut session, _) = Session::open(server).unwrap();
    let frame = session.render().unwrap();
    assert_eq!((frame.width, frame.height), (200, 200));
    // 8x8 dots of 20x20px in a 200x200 viewport = 3200px of ink minimum
    assert!(frame.ink(Color::TRANSPARENT) > 3000);
    // a pixel in the middle of a dot is not background
    let c = frame.get(100, 100);
    assert_ne!(c, Color::TRANSPARENT);
}

#[test]
fn static_layer_marks_render_in_viewport_space() {
    let mut db = Database::new();
    db.create_table("none", Schema::empty().with("x", DataType::Int))
        .unwrap();
    let spec = AppSpec::new("legend_only")
        .add_transform(TransformSpec::empty("empty"))
        .add_canvas(
            CanvasSpec::new("main", 5000.0, 5000.0).layer(LayerSpec::fixed(
                "empty",
                RenderSpec::Static(vec![Mark::Rect {
                    x: 10.0,
                    y: 10.0,
                    w: 50.0,
                    h: 20.0,
                    fill: Color::RED,
                    stroke: None,
                }]),
            )),
        )
        .initial("main", 2500.0, 2500.0)
        .viewport(100.0, 100.0);
    let app = compile(&spec, &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
    )
    .unwrap();
    let (mut session, _) = Session::open(Arc::new(server)).unwrap();
    let f1 = session.render().unwrap();
    assert_eq!(f1.get(30, 20), Color::RED);
    // panning must NOT move the static legend
    session.pan_by(1000.0, 1000.0).unwrap();
    let f2 = session.render().unwrap();
    assert_eq!(f2.get(30, 20), Color::RED, "legend pinned to the viewport");
}

#[test]
fn clear_frontend_cache_forces_refetch() {
    let server = launch(FetchPlan::DynamicBox {
        policy: BoxPolicy::PctLarger(0.5),
    });
    let (mut session, _) = Session::open(server.clone()).unwrap();
    server.clear_caches();
    server.reset_totals();
    // without clearing: no fetch needed (box covers the tiny pan)
    session.pan_by(5.0, 0.0).unwrap();
    assert_eq!(server.totals().queries, 0);
    // after clearing both caches the same pan must hit the DB
    session.clear_frontend_cache();
    server.clear_caches();
    session.pan_by(5.0, 0.0).unwrap();
    assert_eq!(server.totals().queries, 1);
}

#[test]
fn visible_respects_limit() {
    let server = launch(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    });
    let (mut session, _) = Session::open(server).unwrap();
    let limited = session.visible(3).unwrap();
    assert!(limited.iter().all(|(_, rows)| rows.len() <= 3));
    let full = session.visible(usize::MAX).unwrap();
    assert!(full[0].1.len() > 3);
}

#[test]
fn session_forwards_semantic_hints_to_the_server() {
    let db = grid_db();
    let spec = AppSpec::new("grid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", 1000.0, 1000.0).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("main", 500.0, 500.0)
        .viewport(200.0, 200.0);
    let app = compile(&spec, &db).unwrap();
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_cost(CostModel::zero())
    .with_prefetch(kyrix_server::PrefetchPolicy::Semantic { top_k: 2 });
    let (server, _) = KyrixServer::launch(app, db, config).unwrap();
    let server = Arc::new(server);

    let (mut session, _) = Session::open(server.clone()).unwrap();
    // opening is not a pan: nothing is hinted
    server.drain_prefetch().unwrap();
    // prefetch_totals().requests is always 0 (prefetch is backend-internal);
    // background activity shows up as cache operations
    let ops = |m: kyrix_server::FetchMetrics| m.cache_hits + m.cache_misses;
    assert_eq!(ops(server.prefetch_totals()), 0);

    // every pan hints: the server's semantic predictor warms the top 2 of
    // the 8 in-canvas neighbors, one box each
    session.pan_by(50.0, 0.0).unwrap();
    session.pan_by(50.0, 0.0).unwrap();
    server.drain_prefetch().unwrap();
    assert_eq!(
        ops(server.prefetch_totals()),
        4,
        "semantic prefetch must run from session hints"
    );
}

/// An idle session pins no retired generation: after a publish through
/// `mutate_shards`, the server's `snapshot.pinned` gauge reads what it
/// reads when no session was ever opened — the published head alone.
#[test]
fn an_idle_session_pins_no_retired_generation() {
    let pinned_after_publish = |open_session: bool| {
        let mut db = grid_db();
        db.create_index(
            "dots",
            "dots_xy",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        let spec = AppSpec::new("grid")
            .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
            .add_canvas(
                CanvasSpec::new("main", 1000.0, 1000.0).layer(LayerSpec::dynamic(
                    "t",
                    PlacementSpec::point("x", "y"),
                    RenderSpec::Marks(MarkEncoding::circle()),
                )),
            )
            .initial("main", 500.0, 500.0)
            .viewport(200.0, 200.0);
        let app = compile(&spec, &db).unwrap();
        let config = ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        });
        let server = Arc::new(KyrixServer::launch(app, db, config).unwrap().0);
        let session = open_session.then(|| Session::open(server.clone()).unwrap());
        server
            .mutate_shards(&["dots"], |shards| {
                let row = Row::new(vec![
                    Value::Int(9_999),
                    Value::Float(500.0),
                    Value::Float(500.0),
                    Value::Float(0.0),
                ]);
                shards[0].insert("dots", row)?;
                let dirty = Rect::new(499.0, 499.0, 501.0, 501.0);
                Ok(((), vec![DirtyRegion::new("dots", dirty)]))
            })
            .unwrap();
        assert_eq!(server.data_version(), 1);
        let pinned = server.obs().gauge("snapshot.pinned").get();
        drop(session);
        pinned
    };
    let without = pinned_after_publish(false);
    assert_eq!(without, 1, "the published head alone");
    assert_eq!(pinned_after_publish(true), without, "the idle session pins");
}
