//! Integration tests for the §4 extensions working *together* through the
//! public facade: a learned placement drives an application, and edits to
//! a snapshot-file-backed database feed scatter-gather analytics.

use kyrix::prelude::*;
use std::sync::Arc;

fn cities(n: i64) -> (Schema, Vec<Row>) {
    let schema = Schema::empty()
        .with("id", DataType::Int)
        .with("lng", DataType::Float)
        .with("lat", DataType::Float)
        .with("pop", DataType::Float);
    let rows = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Float(-125.0 + (i % 60) as f64),
                Value::Float(24.0 + (i / 60 % 25) as f64),
                Value::Float(1000.0 + i as f64),
            ])
        })
        .collect();
    (schema, rows)
}

/// Learn a placement from drops, build the app, and verify the separable
/// fast path engages — all through the facade prelude.
#[test]
fn learned_placement_runs_end_to_end() {
    let (schema, rows) = cities(5_000);
    let mut db = Database::new();
    db.create_table("cities", schema.clone()).unwrap();
    for r in &rows {
        db.insert("cities", r.clone()).unwrap();
    }
    db.create_index(
        "cities",
        "sp",
        IndexKind::Spatial(SpatialCols::Point {
            x: "lng".into(),
            y: "lat".into(),
        }),
    )
    .unwrap();

    // drops follow x = 10*lng + 1300, y = -10*lat + 500. Sample rows from
    // different lat bands so no other column is collinear with lng/lat.
    let examples: Vec<PlacementExample> = [0usize, 7, 61, 135, 310]
        .iter()
        .map(|&i| {
            let r = &rows[i];
            let lng = r.get(1).as_f64().unwrap();
            let lat = r.get(2).as_f64().unwrap();
            PlacementExample::new(r.clone(), 10.0 * lng + 1300.0, -10.0 * lat + 500.0)
        })
        .collect();
    let learned = synthesize_placement(&schema, &examples, 0.01).unwrap();
    assert_eq!(learned.placement.x, "10 * lng + 1300");

    let spec = AppSpec::new("learned")
        .add_transform(TransformSpec::query("cities", "SELECT * FROM cities"))
        .add_canvas(
            CanvasSpec::new("map", 800.0, 800.0).layer(LayerSpec::dynamic(
                "cities",
                learned.placement,
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("map", 400.0, 200.0)
        .viewport(200.0, 200.0);
    let app = compile(&spec, &db).unwrap();
    let (server, reports) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        }),
    )
    .unwrap();
    assert!(
        reports.iter().any(|r| r.skipped_separable),
        "learned affine placement must hit the §3.2 skip path"
    );
    let (mut session, first) = Session::open(Arc::new(server)).unwrap();
    assert!(first.visible_rows > 0);
    let step = session.pan_by(50.0, 0.0).unwrap();
    assert!(step.modeled_ms < 500.0);
}

/// Edits to a database restored from its snapshot file feed a
/// partitioned analytics tier; scatter-gather aggregates over the shards
/// agree with the single-node answer.
#[test]
fn edits_flow_into_parallel_analytics() {
    let dir = std::env::temp_dir().join(format!("kyrix_ext_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (schema, rows) = cities(1_200);

    // bootstrap snapshot
    {
        let mut db = Database::new();
        db.create_table("cities", schema.clone()).unwrap();
        for r in &rows {
            db.insert("cities", r.clone()).unwrap();
        }
        db.save_to(dir.join("snapshot.kyrix")).unwrap();
    }

    // restore and edit: boost west-coast populations
    let mut edited = Database::load_from(dir.join("snapshot.kyrix")).unwrap();
    let boosted = edited
        .update_where(
            "cities",
            &[("pop", Value::Float(9_999_999.0))],
            "lng < -120",
            &[],
        )
        .unwrap();
    assert!(boosted > 0);

    // ship into the partitioned tier
    let part = Partitioner::Hash {
        column: "id".into(),
    };
    let mut empty = Database::new();
    empty.create_table("cities", schema.clone()).unwrap();
    let mut shards = vec![empty; 4];
    edited
        .table("cities")
        .unwrap()
        .scan(|_, r| {
            let s = part.route(&schema, &r, 4).unwrap();
            shards[s].insert("cities", r).unwrap();
        })
        .unwrap();
    let mut router = QueryRouter::new(4).unwrap();
    router.register("cities", part).unwrap();

    // the boost is visible in parallel aggregates and matches the
    // single-node answer
    let q = "SELECT COUNT(*) AS n, MAX(pop) FROM cities WHERE lng < -120";
    let par = scatter_gather(&shards, &router, q, &[]).unwrap().result;
    let seq = edited.query(q, &[]).unwrap();
    assert_eq!(par.rows, seq.rows);
    assert_eq!(par.rows[0].get(0), &Value::Int(boosted as i64));
    assert_eq!(par.rows[0].get(1), &Value::Float(9_999_999.0));

    std::fs::remove_dir_all(&dir).ok();
}

/// The semantic prefetch policy is reachable through the facade config.
#[test]
fn semantic_policy_configurable_from_prelude() {
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_prefetch_policy(PrefetchPolicy::Semantic { top_k: 3 });
    assert!(config.prefetch);
    assert_eq!(
        config.prefetch_policy,
        PrefetchPolicy::Semantic { top_k: 3 }
    );
}
