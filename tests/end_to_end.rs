//! End-to-end integration: JSON spec → compiler → backend → session →
//! pan/jump → rendered frame — across every fetch scheme.

use kyrix::prelude::*;
use kyrix::workload::{load_usmap, usmap_app};
use std::sync::Arc;

fn usmap_db() -> Database {
    let mut db = Database::new();
    load_usmap(&mut db, 2019).unwrap();
    db
}

/// Every fetch scheme the server serves must produce the same visible data.
#[test]
fn all_schemes_show_the_same_data() {
    let plans = vec![
        FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
        FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        },
        FetchPlan::StaticTiles {
            size: 512.0,
            design: TileDesign::SpatialIndex,
        },
    ];
    let mut baseline: Option<Vec<i64>> = None;
    for plan in plans {
        let db = usmap_db();
        let app = compile(&usmap_app(), &db).unwrap();
        let (server, _) = KyrixServer::launch(app, db, ServerConfig::new(plan)).unwrap();
        let (mut session, _) = Session::open(Arc::new(server)).unwrap();
        session.pan_by(137.0, 59.0).unwrap();
        let visible = session.visible(usize::MAX).unwrap();
        let mut ids: Vec<i64> = visible
            .iter()
            .flat_map(|(_, rows)| rows.iter().map(|r| r.get(0).as_i64().unwrap()))
            .collect();
        ids.sort_unstable();
        match &baseline {
            None => baseline = Some(ids),
            Some(b) => assert_eq!(&ids, b, "scheme {} disagrees", plan.label()),
        }
    }
    assert!(
        baseline.map(|b| !b.is_empty()).unwrap_or(false),
        "something must be visible"
    );
}

/// The full Figure 2 walk: state map → click → county map → pan, rendering
/// a frame at each stage.
#[test]
fn figure2_interaction_walk() {
    let db = usmap_db();
    let app = compile(&usmap_app(), &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::PctLarger(0.5),
        }),
    )
    .unwrap();
    let (mut session, first) = Session::open(Arc::new(server)).unwrap();
    assert_eq!(session.canvas_id(), "statemap");
    assert!(first.visible_rows > 0, "states visible on load");

    // Figure 2a: the rendered state map has both legend and states
    let frame = session.render().unwrap();
    assert!(frame.ink(Color::WHITE) > 1000, "state map renders ink");

    // Figure 2b/c: click a state and land on the county map
    let outcome = session
        .click(480.0, 280.0)
        .unwrap()
        .expect("click on a state triggers the jump");
    assert_eq!(outcome.to_canvas, "countymap");
    assert!(outcome
        .name
        .as_deref()
        .unwrap()
        .starts_with("County map of "));
    assert_eq!(session.canvas_id(), "countymap");

    // Figure 2d: pan on the county map
    let step = session.pan_by(300.0, 120.0).unwrap();
    assert!(step.visible_rows > 0, "counties visible after pan");
    let frame = session.render().unwrap();
    assert!(frame.ink(Color::WHITE) > 1000, "county map renders ink");
}

/// The checked-in spec file (`specs/usmap.json`) parses to exactly the
/// builder-made spec — the declarative format is a stable artifact.
#[test]
fn checked_in_spec_file_matches_builder() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/specs/usmap.json"))
        .expect("specs/usmap.json exists");
    let from_file = kyrix::core::spec_from_json_str(&text).unwrap();
    assert_eq!(from_file, usmap_app());
}

/// Specs written as JSON files compile and serve identically to
/// builder-made specs.
#[test]
fn json_spec_end_to_end() {
    let db = usmap_db();
    let spec = usmap_app();
    let json_text = kyrix::core::spec_to_json(&spec).to_string_pretty();
    let reloaded = kyrix::core::spec_from_json_str(&json_text).unwrap();
    assert_eq!(reloaded, spec);

    let app = compile(&reloaded, &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
    )
    .unwrap();
    let (mut session, _) = Session::open(Arc::new(server)).unwrap();
    let step = session.pan_by(50.0, 25.0).unwrap();
    assert!(step.visible_rows > 0);
}

/// The paper's interactivity requirement: every interaction on the demo
/// app stays within 500 ms (modeled).
#[test]
fn interactions_within_500ms() {
    let db = usmap_db();
    let app = compile(&usmap_app(), &db).unwrap();
    let (server, _) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::StaticTiles {
            size: 512.0,
            design: TileDesign::SpatialIndex,
        }),
    )
    .unwrap();
    let (mut session, first) = Session::open(Arc::new(server)).unwrap();
    assert!(
        first.modeled_ms <= 500.0,
        "initial load {}",
        first.modeled_ms
    );
    for _ in 0..6 {
        let step = session.pan_by(150.0, 40.0).unwrap();
        assert!(step.modeled_ms <= 500.0, "pan {}", step.modeled_ms);
    }
}

/// Jumps with no explicit viewport function scale the center geometrically.
#[test]
fn geometric_jump_scales_center() {
    let mut db = Database::new();
    db.create_table(
        "pts",
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float),
    )
    .unwrap();
    for i in 0..100i64 {
        db.insert(
            "pts",
            Row::new(vec![
                Value::Int(i),
                Value::Float((i % 10) as f64 * 100.0),
                Value::Float((i / 10) as f64 * 100.0),
            ]),
        )
        .unwrap();
    }
    let spec = AppSpec::new("zoom")
        .add_transform(TransformSpec::query("t", "SELECT * FROM pts"))
        .add_canvas(
            CanvasSpec::new("overview", 1000.0, 1000.0).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .add_canvas(
            CanvasSpec::new("detail", 4000.0, 4000.0).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::point("x * 4", "y * 4"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .add_jump(JumpSpec::new(
            "in",
            "overview",
            "detail",
            JumpType::GeometricZoom,
        ))
        .initial("overview", 500.0, 500.0)
        .viewport(400.0, 400.0);
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
    let row = Row::new(vec![Value::Int(0), Value::Float(0.0), Value::Float(0.0)]);
    let outcome = session.jump("in", 0, &row).unwrap();
    assert_eq!(outcome.to_canvas, "detail");
    // center (500, 500) on a 1000² canvas scales to (2000, 2000) on 4000²
    let vp = session.viewport();
    assert_eq!((vp.cx, vp.cy), (2000.0, 2000.0));
}
