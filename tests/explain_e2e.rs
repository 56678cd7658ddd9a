//! End-to-end EXPLAIN through the facade: one report covers both halves
//! of a fetch — the server's plan/policy rationale and the storage
//! executor's access path for the layer's fetch SQL — and the storage
//! fast paths announce themselves through the same `Database` handle the
//! apps use.

use kyrix::prelude::*;
use kyrix::workload::{dots_app, index_dots, load_uniform, DotsConfig};

fn dots_db(cfg: &DotsConfig) -> Database {
    let mut db = Database::new();
    load_uniform(&mut db, cfg).unwrap();
    db
}

/// The same dots on a 2x2 shard grid, every shard spatially indexed,
/// behind `launch_sharded`.
fn sharded_dots_server(cfg: &DotsConfig, config: ServerConfig) -> KyrixServer {
    let part = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols: 2,
        rows: 2,
        width: cfg.width,
        height: cfg.height,
    };
    let all = dots_db(cfg);
    let dots = all.table("dots").unwrap();
    let mut shards: Vec<Database> = (0..4).map(|_| Database::new()).collect();
    for db in &mut shards {
        db.create_table("dots", dots.schema.clone()).unwrap();
    }
    dots.scan(|_, row| {
        let s = part.route(&dots.schema, &row, 4).unwrap();
        shards[s].insert("dots", row).unwrap();
    })
    .unwrap();
    for db in &mut shards {
        index_dots(db).unwrap();
    }
    let app = compile(&dots_app(cfg, (512.0, 512.0)), &shards[0]).unwrap();
    let mut router = QueryRouter::new(4).unwrap();
    router.register("dots", part).unwrap();
    KyrixServer::launch_sharded(app, shards, router, config).unwrap()
}

#[test]
fn server_explain_names_both_halves_of_a_fetch() {
    let cfg = DotsConfig {
        n: 5_000,
        width: 2048.0,
        height: 2048.0,
        seed: 11,
    };
    let config = || {
        ServerConfig::new(FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        })
    };
    let launch = |db: Database| {
        let app = compile(&dots_app(&cfg, (512.0, 512.0)), &db).unwrap();
        KyrixServer::launch(app, db, config()).unwrap().0
    };
    // a materialized layer table, the raw table served in place
    // (separable), and that same raw table on a 2x2 shard grid
    let materialized = launch(dots_db(&cfg));
    let mut indexed = dots_db(&cfg);
    index_dots(&mut indexed).unwrap();
    let separable = launch(indexed);
    let sharded = sharded_dots_server(&cfg, config());

    let explains = [&materialized, &separable, &sharded].map(|server| {
        let ex = server.explain("main", 0).unwrap();
        let text = ex.render();
        assert!(text.contains("EXPLAIN canvas=main layer=0"), "{text}");
        assert!(text.contains("serving plan: dbox"), "{text}");
        let sql = ex.fetch_sql.as_ref().expect("dynamic layer fetches");
        assert!(sql.starts_with("SELECT"), "{sql}");
        assert!(
            !ex.storage_plan.is_empty(),
            "the fetch SQL must explain to at least one plan line"
        );
        assert!(
            ex.storage_plan
                .iter()
                .any(|l| l.contains("Scan") || l.contains("Index")),
            "storage plan must name an access path: {:?}",
            ex.storage_plan
        );
        ex
    });
    // every shard plans the statement like the single node does
    assert_eq!(explains[1].fetch_sql, explains[2].fetch_sql);
    assert_eq!(explains[1].storage_plan, explains[2].storage_plan);
}

#[test]
fn storage_fast_paths_surface_through_the_facade() {
    let cfg = DotsConfig {
        n: 1_000,
        width: 1024.0,
        height: 1024.0,
        seed: 3,
    };
    let db = dots_db(&cfg);

    let plan = db.query("EXPLAIN SELECT COUNT(*) FROM dots", &[]).unwrap();
    assert_eq!(
        plan.rows[0].get(0),
        &Value::Text("CountStar(table_meta)".into())
    );

    let r = db.query("SELECT COUNT(*) FROM dots", &[]).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(cfg.n as i64));
    assert_eq!(r.stats.rows_scanned, 0, "metadata answers scan nothing");

    let r = db.query("SELECT id FROM dots LIMIT 7", &[]).unwrap();
    assert_eq!(r.rows.len(), 7);
    assert_eq!(r.stats.rows_scanned, 7, "LIMIT pushdown stops the scan");
}
