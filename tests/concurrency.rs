//! Concurrency: the paper runs "each concurrent Kyrix application ... in a
//! separate process"; within one backend, multiple sessions (browser tabs,
//! coordinated views) fetch concurrently. The server must be safely
//! shareable across threads.

use kyrix::prelude::*;
use kyrix::server::{DirtyRegion, ServerError};
use kyrix::workload::{dots_app, index_dots, load_uniform, DotsConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn server(plan: FetchPlan) -> Arc<KyrixServer> {
    let cfg = DotsConfig {
        n: 40_000,
        width: 8192.0,
        height: 8192.0,
        seed: 21,
    };
    let mut db = Database::new();
    load_uniform(&mut db, &cfg).unwrap();
    let app = compile(&dots_app(&cfg, (512.0, 512.0)), &db).unwrap();
    let (server, _) = KyrixServer::launch(app, db, ServerConfig::new(plan)).unwrap();
    Arc::new(server)
}

#[test]
fn many_sessions_pan_concurrently() {
    let server = server(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    });
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            let (mut session, _) = Session::open(server).expect("open");
            let mut total_rows = 0usize;
            // each session walks a different diagonal
            let dir = if t % 2 == 0 { 1.0 } else { -1.0 };
            for i in 0..20 {
                let step = session
                    .pan_by(dir * 137.0, (t as f64 - 4.0) * 31.0 + i as f64)
                    .expect("pan");
                total_rows += step.visible_rows;
            }
            total_rows
        }));
    }
    for h in handles {
        let rows = h.join().expect("no panics");
        assert!(rows > 0, "every session saw data");
    }
    let totals = server.totals();
    assert!(totals.requests >= 8, "requests were served");
}

#[test]
fn concurrent_tile_sessions_share_the_backend_cache() {
    let server = server(FetchPlan::StaticTiles {
        size: 512.0,
        design: TileDesign::SpatialIndex,
    });
    // session 1 walks a path, warming the backend cache
    {
        let (mut s1, _) = Session::open(server.clone()).unwrap();
        for _ in 0..6 {
            s1.pan_by(512.0, 0.0).unwrap();
        }
    }
    // its cold regions were served as viewports; the worker filled their
    // tiles off the request path
    server.drain_prefetch().unwrap();
    server.reset_totals();
    // sessions 2..4 concurrently retrace it: mostly backend cache hits
    let mut handles = Vec::new();
    for _ in 0..3 {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            let (mut s, _) = Session::open(server).unwrap();
            for _ in 0..6 {
                s.pan_by(512.0, 0.0).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let totals = server.totals();
    assert!(
        totals.cache_hits > totals.cache_misses,
        "retraced path mostly hits: {totals:?}"
    );
}

/// The snapshot store's acceptance test: 8 sessions pan and zoom around a
/// marker region while a mutator thread loops whole-batch inserts and
/// deletes of a 16-dot marker grid through `mutate_shards` — each batch one
/// atomic mutation whose grid straddles four tiles. Every session step
/// must observe the grid all-or-none (a mixed count would mean a fetch
/// tore across a mutation), and the run must terminate (readers never
/// deadlock against the mutator). A deterministic epilogue pins both
/// directions: a fresh interaction after the insert sees all 16 markers,
/// and after the delete sees none.
#[test]
fn readers_see_mutations_whole_never_torn() {
    const MARKER_BASE: i64 = 9_000_000;
    const MARKERS: usize = 16;

    // raw spatial index => the dots layer is separable and served straight
    // off its raw table, which is exactly the server's mutable surface
    let cfg = DotsConfig {
        n: 20_000,
        width: 4096.0,
        height: 4096.0,
        seed: 7,
    };
    let mut db = Database::new();
    load_uniform(&mut db, &cfg).unwrap();
    index_dots(&mut db).unwrap();
    let app = compile(&dots_app(&cfg, (512.0, 512.0)), &db).unwrap();
    let (server, reports) = KyrixServer::launch(
        app,
        db,
        ServerConfig::new(FetchPlan::StaticTiles {
            size: 512.0,
            design: TileDesign::SpatialIndex,
        }),
    )
    .unwrap();
    assert!(
        reports.iter().any(|r| r.skipped_separable),
        "dots must be served separably for in-place mutation"
    );
    let server = Arc::new(server);

    // 4x4 marker grid spanning 300x300 around (2048, 2048): it straddles
    // the tile boundaries at 2048 in both axes (four tiles), yet fits in
    // every jittered 512x512 viewport below
    let positions: Vec<(f64, f64)> = (0..MARKERS)
        .map(|i| {
            (
                2048.0 - 150.0 + (i % 4) as f64 * 100.0,
                2048.0 - 150.0 + (i / 4) as f64 * 100.0,
            )
        })
        .collect();
    let marker_rect = Rect::new(1898.0, 1898.0, 2198.0, 2198.0);

    let insert_markers = |server: &KyrixServer| {
        server
            .mutate_shards(&["dots"], |shards| {
                let db = &mut shards[0];
                for (i, (x, y)) in positions.iter().enumerate() {
                    db.insert(
                        "dots",
                        Row::new(vec![
                            Value::Int(MARKER_BASE + i as i64),
                            Value::Float(*x),
                            Value::Float(*y),
                            Value::Float(0.5),
                        ]),
                    )
                    .map_err(ServerError::from)?;
                }
                Ok(((), vec![DirtyRegion::new("dots", marker_rect)]))
            })
            .expect("insert batch applies");
    };
    let delete_markers = |server: &KyrixServer| {
        let n = server
            .mutate_shards(&["dots"], |shards| {
                let db = &mut shards[0];
                let n = db
                    .delete_where("dots", "id >= $1", &[Value::Int(MARKER_BASE)])
                    .map_err(ServerError::from)?;
                Ok((n, vec![DirtyRegion::new("dots", marker_rect)]))
            })
            .expect("delete batch applies");
        assert_eq!(n, MARKERS, "every marker was live");
    };
    let count_markers = |session: &mut Session| -> usize {
        session
            .visible(usize::MAX)
            .expect("visible")
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .filter(|r| matches!(r.values[0], Value::Int(id) if id >= MARKER_BASE))
            .count()
    };

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mutator = scope.spawn(|| {
            for _ in 0..12 {
                insert_markers(&server);
                delete_markers(&server);
            }
            done.store(true, Ordering::Release);
        });

        let readers: Vec<_> = (0..8u64)
            .map(|t| {
                let server = Arc::clone(&server);
                let done = &done;
                scope.spawn(move || {
                    let (mut session, _) = Session::open(server).expect("open");
                    let mut step = 0u64;
                    while !done.load(Ordering::Acquire) {
                        // jitter the viewport center so sessions exercise
                        // different tile alignments while the whole marker
                        // grid stays inside the viewport
                        let jx = ((t * 13 + step * 7) % 80) as f64 - 40.0;
                        let jy = ((t * 29 + step * 11) % 80) as f64 - 40.0;
                        session.pan_to(2048.0 + jx, 2048.0 + jy).expect("pan");
                        let seen = count_markers(&mut session);
                        assert!(
                            seen == 0 || seen == MARKERS,
                            "session {t} step {step} saw a torn mutation: \
                             {seen} of {MARKERS} markers"
                        );
                        step += 1;
                    }
                    step
                })
            })
            .collect();
        for r in readers {
            assert!(r.join().expect("no reader panicked") > 0);
        }
        mutator.join().expect("mutator finished");
    });

    // both directions, deterministically: insert -> a fresh interaction
    // sees the whole grid; delete -> the next interaction sees none of it
    let (mut session, _) = Session::open(server.clone()).unwrap();
    insert_markers(&server);
    session.pan_to(2048.0, 2048.0).unwrap();
    assert_eq!(count_markers(&mut session), MARKERS);
    delete_markers(&server);
    session.pan_to(2049.0, 2048.0).unwrap();
    assert_eq!(count_markers(&mut session), 0);
}
