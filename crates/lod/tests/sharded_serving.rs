//! End-to-end acceptance of the *sharded serving engine* over the LoD
//! pyramid: build the zoom hierarchy directly on a shard grid with
//! `build_pyramid_on_shards`, serve it through the scatter-gather backend
//! (`KyrixServer::launch_sharded`), and pin that live mutations route
//! each raw delta to its owning shard (`insert_points_sharded` /
//! `delete_points_sharded` through `KyrixServer::mutate_shards`), bump
//! only the dirty shards' entries in the published version vector,
//! invalidate exactly the stale regions, and leave level tables
//! bit-identical to a from-scratch single-node rebuild over the final
//! point set.

use kyrix_client::Session;
use kyrix_core::compile;
use kyrix_lod::{build_pyramid, build_pyramid_on_shards, lod_app, LodConfig, RawPoint};
use kyrix_parallel::Partitioner;
use kyrix_server::{
    BoxPolicy, DirtyRegion, FetchPlan, KyrixServer, PlanPolicy, ServerConfig, ServerError,
    TileDesign,
};
use kyrix_storage::{Database, Rect};
use kyrix_workload::{galaxy_rows, galaxy_schema, index_galaxy, load_zipf_galaxy, GalaxyConfig};
use std::sync::Arc;

/// The galaxy rows placed on a `cols`x`rows` SpatialGrid, every shard
/// indexed, plus the partitioner that owns the placement.
fn galaxy_shards(g: &GalaxyConfig, cols: u32, rows: u32) -> (Vec<Database>, Partitioner) {
    let n = (cols * rows) as usize;
    let part = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols,
        rows,
        width: g.width,
        height: g.height,
    };
    let schema = galaxy_schema();
    let mut shards: Vec<Database> = (0..n)
        .map(|_| {
            let mut db = Database::new();
            db.create_table("galaxy", schema.clone()).unwrap();
            db
        })
        .collect();
    for row in galaxy_rows(g) {
        let s = part.route(&schema, &row, n).unwrap();
        shards[s].insert("galaxy", row).unwrap();
    }
    for db in &mut shards {
        index_galaxy(db).unwrap();
    }
    (shards, part)
}

/// Live mutation against the sharded backend, end to end: inserts and
/// deletes route to owning shards, sessions see exactly the invalidated
/// regions change, the version vector tracks per-shard dirtiness, and
/// the maintained level tables match a from-scratch single-node rebuild.
#[test]
fn sharded_mutations_serve_live_end_to_end() {
    let g = GalaxyConfig::tiny();
    let levels = 2;
    let cfg = LodConfig::new("galaxy", g.width, g.height, levels)
        .with_measure("mass")
        .with_measure("lum")
        .with_spacing(16.0);
    let viewport = (256.0, 256.0);

    let (mut shards, part) = galaxy_shards(&g, 2, 2);
    let mut pyramid = build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap();
    assert!(pyramid.can_maintain());
    let router = pyramid.shard_router().unwrap().clone();
    let app = compile(&lod_app(&cfg, viewport), &shards[0]).unwrap();
    let tiles = FetchPlan::StaticTiles {
        size: 256.0,
        design: TileDesign::SpatialIndex,
    };
    let boxes = FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    };
    let server = KyrixServer::launch_sharded(
        app,
        shards,
        router,
        ServerConfig::from_policy(PlanPolicy::SpecHints { tiles, boxes }),
    )
    .unwrap();
    let server = Arc::new(server);
    assert_eq!(server.shard_count(), 4);
    assert_eq!(server.data_version(), 0);
    assert_eq!(server.snapshot().versions(), &[0, 0, 0, 0]);

    // one cold box on the raw level, centered on the 2x2 seam, scatters to
    // all four shards — and every shard run reaches the storage observer
    // exactly as a single-node query does: four `sql.execute`
    // observations, rows scanned counted
    let seam = Rect::centered(g.width / 2.0, g.height / 2.0, viewport.0, viewport.1);
    let cold = server.fetch_region("level0", 0, &seam).unwrap();
    assert_eq!((cold.metrics.queries, cold.rows.is_empty()), (1, false));
    let obs = server.obs();
    let observations = |name: &str| obs.histogram(name).snapshot().count();
    assert_eq!(observations("span.shard.scatter"), 1);
    assert_eq!(observations("fetch.shard"), 4, "the box ran on every shard");
    assert_eq!(observations("span.sql.execute"), 4, "one per shard run");
    assert!(obs.counter("sql.rows_scanned").get() > 0);
    server.clear_caches();

    // a session watches the raw level at the canvas center — right on the
    // 2x2 shard seam — and another watches a far corner
    let (cx, cy) = (g.width / 2.0, g.height / 2.0);
    let (mut session, first) = Session::open_on(server.clone(), "level0", cx, cy).unwrap();
    assert!(first.visible_rows > 0);
    let (mut far_session, _) = Session::open_on(server.clone(), "level0", 300.0, 300.0).unwrap();

    let tables: Vec<String> = (0..=levels).map(|k| cfg.level_table(k)).collect();
    let tables: Vec<&str> = tables.iter().map(String::as_str).collect();

    // ---- insert a blob straddling the seam: all four shards get deltas
    let new_ids: Vec<i64> = (0..64).map(|i| 10_000_000 + i).collect();
    let pts: Vec<RawPoint> = new_ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            RawPoint::new(
                *id,
                cx + (i % 8) as f64 * 6.0 - 21.0,
                cy + (i / 8) as f64 * 6.0 - 21.0,
                // integer-valued measures keep float sums bit-exact
                &[1000.0, 7.0],
            )
        })
        .collect();
    let report = server
        .mutate_shards(&tables, |shards| {
            let report = pyramid
                .insert_points_sharded(shards, &pts)
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
    assert_eq!(
        server.snapshot().versions(),
        &[1, 1, 1, 1],
        "a seam-straddling blob dirties every shard"
    );

    // the watching session refetches and sees every inserted point
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
        "all inserted points visible in the mutated viewport"
    );
    // the far session's cached region was not invalidated
    let far_step = far_session.pan_by(0.0, 0.0).unwrap();
    assert_eq!(far_step.fetch.requests, 0, "far region stays cached");
    // the seam refetch merged shard results, shard runs counted the heap
    // pages their rows came from, and the mutation tallied its copies
    assert!(observations("span.shard.merge") > 0);
    for counter in [
        "sql.heap_pages",
        "snapshot.cow_pages_copied",
        "snapshot.cow_nodes_copied",
        "snapshot.cow_chunks_copied",
    ] {
        assert!(obs.counter(counter).get() > 0, "{counter} stayed at 0");
    }

    // conservation across the merged shards, on every clustered level
    for k in 1..=levels {
        let r = server
            .snapshot()
            .query(&format!("SELECT SUM(cnt) FROM {}", cfg.level_table(k)), &[])
            .unwrap();
        assert_eq!(
            r.rows[0].get(0).as_i64().unwrap(),
            (g.n + 64) as i64,
            "level {k} count conservation after insert"
        );
    }

    // ---- a second batch confined to one quadrant bumps only its shard
    let corner_ids: Vec<i64> = (0..16).map(|i| 20_000_000 + i).collect();
    let corner: Vec<RawPoint> = corner_ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            RawPoint::new(
                *id,
                500.0 + (i % 4) as f64 * 8.0,
                500.0 + (i / 4) as f64 * 8.0,
                &[3.0, 2.0],
            )
        })
        .collect();
    server
        .mutate_shards(&tables, |shards| {
            let report = pyramid
                .insert_points_sharded(shards, &corner)
                .map_err(|e| ServerError::Config(e.to_string()))?;
            let dirty = report
                .dirty_regions()
                .map(|(t, r)| DirtyRegion::new(t, r))
                .collect();
            Ok(((), dirty))
        })
        .unwrap();
    assert_eq!(server.data_version(), 2);
    let versions = server.snapshot().versions().to_vec();
    assert_eq!(versions.iter().max(), Some(&2));
    assert!(
        versions.iter().filter(|&&v| v == 2).count() < 4,
        "a quadrant-local batch must not dirty every shard: {versions:?}"
    );

    // ---- delete both batches plus some original points
    let mut victims = new_ids.clone();
    victims.extend(corner_ids);
    victims.extend(0..100);
    let report = server
        .mutate_shards(&tables, |shards| {
            let report = pyramid
                .delete_points_sharded(shards, &victims)
                .map_err(|e| ServerError::Config(e.to_string()))?;
            let dirty = report
                .dirty_regions()
                .map(|(t, r)| DirtyRegion::new(t, r))
                .collect();
            Ok((report, dirty))
        })
        .unwrap();
    assert_eq!(report.deleted, 180);
    assert_eq!(server.data_version(), 3);
    let n_final = (g.n - 100) as i64;
    for k in 1..=levels {
        let r = server
            .snapshot()
            .query(&format!("SELECT SUM(cnt) FROM {}", cfg.level_table(k)), &[])
            .unwrap();
        assert_eq!(
            r.rows[0].get(0).as_i64().unwrap(),
            n_final,
            "level {k} count conservation after delete"
        );
    }
    let step = session.pan_by(0.0, 0.0).unwrap();
    assert!(step.visible_rows > 0);

    // ---- the maintained sharded pyramid is bit-identical to a
    // from-scratch single-node rebuild over the final point set
    assert_eq!(pyramid.levels[0].rows, n_final as usize);
    let mut fresh = Database::new();
    fresh.create_table("galaxy", galaxy_schema()).unwrap();
    let live = server.snapshot();
    for row in &live.query("SELECT * FROM galaxy", &[]).unwrap().rows {
        fresh.insert("galaxy", row.clone()).unwrap();
    }
    index_galaxy(&mut fresh).unwrap();
    let scratch = build_pyramid(&mut fresh, &cfg).unwrap();
    assert_eq!(pyramid.levels, scratch.levels);
    for k in 1..=levels {
        let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
        let a = live.query(&q, &[]).unwrap();
        let b = fresh.query(&q, &[]).unwrap();
        assert_eq!(a.rows, b.rows, "level {k} diverged from a full rebuild");
    }
}

/// A generation a reader pinned keeps answering byte for byte while
/// batches publish after it — level rows overwritten in place included:
/// an overwrite writes through the heap's copy-on-write spine like every
/// other write, so the pinned version keeps the page it read. Checked on
/// one node (`launch`) and on a 2x2 grid (`launch_sharded`), through
/// `mutate_shards` with the pyramid's maintenance closure.
#[test]
fn a_pinned_generation_is_unchanged_by_later_batches() {
    let g = GalaxyConfig::tiny();
    let levels = 2;
    let cfg = LodConfig::new("galaxy", g.width, g.height, levels)
        .with_measure("mass")
        .with_measure("lum")
        .with_spacing(16.0);
    let tables: Vec<String> = (0..=levels).map(|k| cfg.level_table(k)).collect();
    let tables: Vec<&str> = tables.iter().map(String::as_str).collect();
    let config = || {
        ServerConfig::new(FetchPlan::StaticTiles {
            size: 256.0,
            design: TileDesign::SpatialIndex,
        })
    };

    for sharded in [false, true] {
        let (server, mut pyramid) = if sharded {
            let (mut shards, part) = galaxy_shards(&g, 2, 2);
            let pyramid = build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap();
            let router = pyramid.shard_router().unwrap().clone();
            let app = compile(&lod_app(&cfg, (256.0, 256.0)), &shards[0]).unwrap();
            let server = KyrixServer::launch_sharded(app, shards, router, config()).unwrap();
            (server, pyramid)
        } else {
            let mut db = Database::new();
            load_zipf_galaxy(&mut db, &g).unwrap();
            index_galaxy(&mut db).unwrap();
            let pyramid = build_pyramid(&mut db, &cfg).unwrap();
            let app = compile(&lod_app(&cfg, (256.0, 256.0)), &db).unwrap();
            (KyrixServer::launch(app, db, config()).unwrap().0, pyramid)
        };
        let encoded = |view: &dyn kyrix_server::SnapshotView| -> Vec<Vec<Vec<u8>>> {
            (1..=levels)
                .map(|k| {
                    let q = format!("SELECT * FROM {}", cfg.level_table(k));
                    let rows = view.query(&q, &[]).unwrap().rows;
                    rows.iter().map(|r| r.encode()).collect()
                })
                .collect()
        };
        let pinned = server.snapshot();
        let before = encoded(&*pinned);

        // ten insert/delete pairs of scattered zero-mass points: they join
        // clusters without becoming a representative, so most rewritten
        // rows keep their id and position and are overwritten in place
        let (mut in_place, mut rewritten) = (0, 0);
        for pair in 0..10i64 {
            let ids: Vec<i64> = (0..32).map(|i| 30_000_000 + pair * 100 + i).collect();
            let pts: Vec<RawPoint> = ids
                .iter()
                .map(|id| {
                    let h = (*id as u64).wrapping_mul(2_654_435_761);
                    let x = (h % 4000) as f64 + 48.0;
                    let y = (h / 4000 % 4000) as f64 + 48.0;
                    RawPoint::new(*id, x, y, &[0.0, 0.0])
                })
                .collect();
            for insert in [true, false] {
                let report = server
                    .mutate_shards(&tables, |shards| {
                        let report = if insert {
                            pyramid.insert_points_sharded(shards, &pts)
                        } else {
                            pyramid.delete_points_sharded(shards, &ids)
                        }
                        .map_err(|e| ServerError::Config(e.to_string()))?;
                        let dirty = report
                            .dirty_regions()
                            .map(|(t, r)| DirtyRegion::new(t, r))
                            .collect();
                        Ok((report, dirty))
                    })
                    .unwrap();
                in_place += report.levels.iter().map(|l| l.rows_in_place).sum::<usize>();
                rewritten += report.rows_changed() / 2;
            }
        }
        assert_eq!(server.data_version(), 20);
        assert!(
            in_place * 4 > rewritten,
            "sharded: {sharded}: {in_place} of ~{rewritten} rewritten rows went in place"
        );
        assert_eq!(
            encoded(&*pinned),
            before,
            "sharded: {sharded}: the pinned generation changed under later batches"
        );
        assert_ne!(
            encoded(&*server.snapshot()),
            before,
            "sharded: {sharded}: the head's rows moved (the batches wrote something)"
        );
    }
}
