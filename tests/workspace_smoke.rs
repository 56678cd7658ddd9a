//! Workspace smoke test: every member crate's public entry points are
//! reachable through `kyrix::prelude::*` alone, and they compose into a
//! working end-to-end flow. This pins the facade's re-export surface — a
//! crate dropped from the prelude is a compile failure here, not a
//! downstream surprise.

use kyrix::prelude::*;
use std::sync::Arc;

/// kyrix-storage: database, schema, rows, values, spatial types, indexes.
#[test]
fn storage_entry_points() {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float),
    )
    .unwrap();
    db.insert("t", Row::new(vec![Value::Int(1), Value::Float(2.5)]))
        .unwrap();
    let r = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(1));

    let rect = Rect::new(0.0, 0.0, 10.0, 10.0);
    assert!(rect.intersects(&Rect::new(5.0, 5.0, 15.0, 15.0)));
    // index types are at least nameable through the prelude
    let _: IndexKind = IndexKind::BTree {
        column: "id".into(),
    };
    let _: Option<SpatialCols> = None;
}

/// kyrix-expr: parse, evaluate, compile, affine analysis.
#[test]
fn expr_entry_points() {
    let e: Expr = parse("2 * x + 1").unwrap();
    let mut ctx = VarMap::new();
    ctx.set("x", Value::Float(3.0));
    assert_eq!(eval(&e, &ctx).unwrap().as_f64().unwrap(), 7.0);

    let compiled = Compiled::compile(&e, &["x"]).unwrap();
    assert_eq!(
        compiled
            .eval(&[Value::Float(3.0)])
            .unwrap()
            .as_f64()
            .unwrap(),
        7.0
    );

    let aff = as_affine(&e).expect("2x+1 is affine");
    assert_eq!(aff.apply(3.0), 7.0);
}

/// kyrix-parallel: scatter-gather over partitioned shards answers like a
/// single node.
#[test]
fn parallel_entry_points() {
    let part = Partitioner::Hash {
        column: "id".into(),
    };
    let schema = Schema::empty()
        .with("id", DataType::Int)
        .with("v", DataType::Int);
    let mut empty = Database::new();
    empty.create_table("t", schema.clone()).unwrap();
    let mut shards = vec![empty; 2];
    for i in 0..10 {
        let row = Row::new(vec![Value::Int(i), Value::Int(i * 2)]);
        let s = part.route(&schema, &row, 2).unwrap();
        shards[s].insert("t", row).unwrap();
    }
    let mut router = QueryRouter::new(2).unwrap();
    router.register("t", part).unwrap();
    let r = scatter_gather(&shards, &router, "SELECT SUM(v) FROM t", &[])
        .unwrap()
        .result;
    assert_eq!(r.rows[0].get(0), &Value::Int(90));
}

/// kyrix-lod: build a cluster pyramid over the galaxy workload, generate
/// the multi-level app, serve it, and take an auto-generated zoom jump —
/// all through `kyrix::prelude::*` alone.
#[test]
fn lod_entry_points() {
    let mut db = Database::new();
    let g = GalaxyConfig {
        n: 4096,
        ..GalaxyConfig::tiny()
    };
    let n = load_zipf_galaxy(&mut db, &g).unwrap();
    assert_eq!(n, 4096);
    kyrix::workload::index_galaxy(&mut db).unwrap();

    let cfg = LodConfig::new("galaxy", g.width, g.height, 2)
        .with_measure("mass")
        .with_spacing(16.0);
    let pyramid: LodPyramid = build_pyramid(&mut db, &cfg).unwrap();
    assert_eq!(pyramid.depth(), 3);
    assert!(pyramid.levels[2].rows < pyramid.levels[1].rows);

    // construction on shards reproduces the same level tables
    let part = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols: 2,
        rows: 1,
        width: g.width,
        height: g.height,
    };
    let schema = kyrix::workload::galaxy_schema();
    let mut empty = Database::new();
    empty.create_table("galaxy", schema.clone()).unwrap();
    let mut shards = vec![empty; 2];
    for row in kyrix::workload::galaxy_rows(&g) {
        let s = part.route(&schema, &row, 2).unwrap();
        shards[s].insert("galaxy", row).unwrap();
    }
    let on_shards = build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap();
    let q = "SELECT * FROM galaxy_lod1 ORDER BY id";
    assert_eq!(
        db.query(q, &[]).unwrap().rows,
        scatter_gather(&shards, on_shards.shard_router().unwrap(), q, &[])
            .unwrap()
            .result
            .rows
    );

    // the generated app serves through the ordinary server + session stack
    let spec = lod_app(&cfg, (512.0, 512.0));
    let app = compile(&spec, &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
    )
    .unwrap();
    let server = Arc::new(server);
    let (mut session, first) = Session::open(server.clone()).unwrap();
    assert_eq!(session.canvas_id(), "level2");
    assert!(first.visible_rows > 0);
    let row = server
        .snapshot()
        .query("SELECT * FROM galaxy_lod2 LIMIT 1", &[])
        .unwrap()
        .rows[0]
        .clone();
    let outcome = session.jump("zoomin_level2_level1", 0, &row).unwrap();
    assert_eq!(outcome.to_canvas, "level1");

    // zoom traces come from the workload crate
    let segments = zoom_trace(2, 3, 64.0, 5);
    assert_eq!(segments.len(), 5);

    // remaining nameable surface
    let _ = link_zoom_levels(&[ZoomLevelRef::new("only", "x", "y")], 2.0);
}

/// kyrix-workload + kyrix-core + kyrix-server + kyrix-client +
/// kyrix-render: load a dataset, compile a spec, launch a server, open a
/// session, interact, and rasterize a frame.
#[test]
fn app_stack_entry_points() {
    let mut db = Database::new();
    let cfg = DotsConfig {
        n: 2000,
        width: 4096.0,
        height: 1024.0,
        seed: 7,
    };
    let n = load_uniform(&mut db, &cfg).unwrap();
    assert_eq!(n, 2000);

    let spec: AppSpec = dots_app(&cfg, (512.0, 512.0));
    let app: CompiledApp = compile(&spec, &db).unwrap();
    // plan policies are the config's general form; ::new(plan) is the
    // uniform shorthand
    let policy: PlanPolicy = PlanPolicy::uniform(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    });
    let config = ServerConfig::from_policy(policy);
    let (server, _reports) = KyrixServer::launch(app, db, config).unwrap();
    let resolved: FetchPlan = server.plan_for("main", 0).unwrap();
    assert!(matches!(resolved, FetchPlan::DynamicBox { .. }));
    let (mut session, first): (Session, StepReport) = Session::open(Arc::new(server)).unwrap();
    assert!(first.visible_rows > 0);

    let step = session.pan_by(64.0, 0.0).unwrap();
    assert!(step.modeled_ms < 500.0, "paper interactivity bound");

    let frame: Frame = session.render().unwrap();
    assert!(frame.ink(Color::WHITE) > 0, "dots rendered some ink");

    // trace generation + remaining nameable surface
    let moves: Vec<Move> = trace_a(256.0);
    assert!(!moves.is_empty());
    #[allow(clippy::type_complexity)]
    let _: Option<(
        Viewport,
        Tiling,
        TileDesign,
        TileId,
        CostModel,
        PrefetchPolicy,
        PlanHint,
        LinkMode,
        MarkType,
        Mark,
    )> = None;
}
