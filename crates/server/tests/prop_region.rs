//! Property: the plan-agnostic `fetch_region` under a static-tile plan
//! returns exactly the row *multiset* one direct fetch over the covered
//! area returns (over the viewport, when no covering tile was cached),
//! with tuple ids unique within the response — on every store a tile
//! plan can serve from (`SeparableRaw`, `Spatial`).
//!
//! This pins the merge's first-seeing-tile rule (`server.rs`): a mark whose
//! box straddles a tile edge arrives through every covering tile that sees
//! it and must be kept exactly once, while genuinely duplicated raw rows
//! (two marks at the same position) must survive as two rows, not collapse
//! to one. The fixtures put marks where that rule can go wrong: exactly on
//! tile edges and corners, exactly half a mark either side of an edge
//! (boxes that only *touch* the next tile), marks larger than a tile, and
//! placements through a non-trivial affine, all with duplicated rows and
//! under tiles with negative coordinates.
//!
//! Every viewport is served three ways. From empty caches, a region over
//! several tiles skips the merge: it is one fetch of the viewport, whose
//! rows must be that fetch's, ids unique. With one covering tile cached,
//! the merge reads both of its inputs: a missed tile's fetched rows are
//! moved into the response, a cached tile is read from its block of cells
//! and only the rows the merge keeps are rebuilt. With every tile cached,
//! it reads blocks only. One fixture carries a text column with empty,
//! non-ASCII and `NULL` labels, the values a block keeps outside its
//! cells. A last test races the worker's fill of a cold region against a
//! publication.

use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec, TransformSpec,
};
use kyrix_server::{
    fetch_rect, BoxResponse, DirtyRegion, FetchPlan, KyrixServer, ServerConfig, TileDesign, Tiling,
};
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::separable_rows_by_formula;

const TILE: f64 = 10.0;

/// Which physical design the fixture's layer is served from.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Store {
    /// Raw table with a point index: the §3.2 skip path.
    SeparableRaw,
    /// Materialized layer table with an R-tree over the boxes.
    Spatial,
}

/// The label of dot `id` in a labeled fixture: text, empty, non-ASCII
/// or `NULL`.
fn label(id: i64) -> Value {
    match id % 5 {
        0 => Value::Null,
        1 => Value::Text(String::new()),
        2 => Value::Text(format!("Zürich — 東京 {id}")),
        _ => Value::Text(format!("dot {id}")),
    }
}

/// A server over `points` (id, x, y, and a [`label`] column when
/// `labeled`), one dynamic layer placed by `placement`, served by static
/// tiles of [`TILE`] from `store`.
fn launch(
    points: &[(i64, f64, f64)],
    placement: PlacementSpec,
    store: Store,
    labeled: bool,
) -> KyrixServer {
    let mut db = Database::new();
    let mut schema = Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float);
    if labeled {
        schema = schema.with("label", DataType::Text);
    }
    db.create_table("dots", schema).unwrap();
    for &(id, x, y) in points {
        let mut values = vec![Value::Int(id), Value::Float(x), Value::Float(y)];
        if labeled {
            values.push(label(id));
        }
        db.insert("dots", Row::new(values)).unwrap();
    }
    // without the point index the layer is materialized instead of skipped
    if store == Store::SeparableRaw {
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
    let spec = AppSpec::new("propgrid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", 50.0, 50.0).layer(LayerSpec::dynamic(
                "t",
                placement,
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("main", 25.0, 25.0)
        .viewport(10.0, 10.0);
    let app = compile(&spec, &db).unwrap();
    let plan = FetchPlan::StaticTiles {
        size: TILE,
        design: TileDesign::SpatialIndex,
    };
    let (server, reports) = KyrixServer::launch(app, db, ServerConfig::new(plan)).unwrap();
    assert_eq!(
        reports[0].skipped_separable,
        store == Store::SeparableRaw,
        "fixture must land on the {store:?} store"
    );
    server
}

/// Dots on a 50x50 integer grid (1x1 boxes: every dot at a multiple of the
/// tile size straddles a tile edge), plus deliberate duplicate rows.
fn grid_server() -> &'static KyrixServer {
    static SERVER: OnceLock<KyrixServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut points: Vec<(i64, f64, f64)> = (0..2500i64)
            .map(|i| (i, (i % 50) as f64, (i / 50) as f64))
            .collect();
        // duplicated marks: same id and position twice, sitting on a tile
        // corner and in a tile interior
        points.extend([(9000, 20.0, 20.0), (9000, 20.0, 20.0)]);
        points.extend([(9001, 13.5, 7.5), (9001, 13.5, 7.5)]);
        launch(
            &points,
            PlacementSpec::point("x", "y"),
            Store::SeparableRaw,
            false,
        )
    })
}

/// Sorted multiset of row contents, ignoring the trailing tuple_id (the
/// separable store numbers it per fetch, so it differs between paths).
fn content_multiset<'a>(rows: impl IntoIterator<Item = &'a Row>, width: usize) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = rows
        .into_iter()
        .map(|r| Row::new(r.values[..width - 1].to_vec()).encode())
        .collect();
    keys.sort();
    keys
}

/// `vp` served from empty caches: a region over several tiles is one
/// fetch of the viewport, a one-tile region that tile.
fn serve_cold(server: &KyrixServer, vp: &Rect) -> BoxResponse {
    server.clear_caches();
    let cold = server.fetch_region("main", 0, vp).unwrap();
    let tiles = Tiling::new(TILE).covering(vp).unwrap().len() as u64;
    assert_eq!(cold.metrics.cache_hits, 0, "cold serve of {vp:?}");
    assert_eq!(cold.metrics.cache_misses, tiles, "cold serve of {vp:?}");
    assert_eq!(cold.metrics.queries, 1, "cold serve of {vp:?}");
    cold
}

/// `vp` served with one covering tile cached (the others fetched, their
/// rows moved into the response beside the cached block's) and then again
/// (every tile a cached block).
fn serve_mixed_then_warm(server: &KyrixServer, vp: &Rect) -> [BoxResponse; 2] {
    server.clear_caches();
    let tiling = Tiling::new(TILE);
    let tiles = tiling.covering(vp).unwrap();
    // a one-tile region is fetched and cached as that tile
    let warmed = tiling.tile_rect(tiles[tiles.len() / 2]);
    server.fetch_region("main", 0, &warmed).unwrap();
    let mixed = server.fetch_region("main", 0, vp).unwrap();
    let warm = server.fetch_region("main", 0, vp).unwrap();
    let misses = tiles.len() as u64 - 1;
    assert_eq!(mixed.metrics.cache_hits, 1, "mixed serve of {vp:?}");
    assert_eq!(mixed.metrics.cache_misses, misses, "mixed serve of {vp:?}");
    assert_eq!(warm.metrics.cache_misses, 0, "warm serve of {vp:?}");
    [mixed, warm]
}

/// The all-miss serve of `vp` over several tiles: the response is the
/// viewport, its rows exactly one direct fetch over it, ids unique.
fn check_cold(server: &KyrixServer, vp: &Rect, width: usize) {
    let cold = serve_cold(server, vp);
    if Tiling::new(TILE).covering(vp).unwrap().len() == 1 {
        return; // a one-tile region: the mixed serve covers it
    }
    let store = server.store("main", 0).unwrap();
    let (direct, _) = fetch_rect(&*server.snapshot(), &store, vp).unwrap();
    assert_eq!(cold.rect, *vp);
    assert_eq!(
        content_multiset(cold.rows.iter(), width),
        content_multiset(&direct, width),
        "cold row multiset for viewport {:?}",
        vp
    );
    let mut ids = sorted_ids(server, &cold.rows);
    ids.dedup();
    assert_eq!(ids.len(), cold.rows.len(), "cold tuple ids not unique");
}

/// Tuple ids of a response, sorted.
fn sorted_ids(server: &KyrixServer, rows: &[Row]) -> Vec<i64> {
    let layout = server.layout("main", 0).unwrap().unwrap();
    let mut ids: Vec<i64> = rows.iter().map(|r| layout.tuple_id(r)).collect();
    ids.sort_unstable();
    ids
}

/// One dataset served from both stores.
struct Fixture {
    name: &'static str,
    separable: KyrixServer,
    spatial: KyrixServer,
}

impl Fixture {
    fn new(
        name: &'static str,
        points: &[(i64, f64, f64)],
        placement: PlacementSpec,
        labeled: bool,
    ) -> Self {
        Fixture {
            name,
            separable: launch(points, placement.clone(), Store::SeparableRaw, labeled),
            spatial: launch(points, placement, Store::Spatial, labeled),
        }
    }
}

/// Positions that stress one axis of a 2-wide mark on [`TILE`]-tiles, over
/// tiles -2..=3: on each edge, exactly half a mark either side of it (the
/// box then only touches the neighbouring tile), and mid-tile.
fn edge_coords() -> Vec<f64> {
    (-2..=3)
        .flat_map(|k| {
            let edge = k as f64 * TILE;
            [edge - 1.0, edge, edge + 1.0, edge + 5.0]
        })
        .collect()
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        // (a) 2x2 marks on every combination of the edge positions: edge
        // straddlers, corner marks seen by four tiles, touching boxes;
        // every corner mark and every third other mark is stored twice
        let coords = edge_coords();
        let mut edges = Vec::new();
        for (i, &x) in coords.iter().enumerate() {
            for (j, &y) in coords.iter().enumerate() {
                let id = (i * coords.len() + j) as i64;
                edges.push((id, x, y));
                let corner = x % TILE == 0.0 && y % TILE == 0.0;
                if corner || id % 3 == 0 {
                    edges.push((id, x, y));
                }
            }
        }
        // (c) 25x25 marks: each reaches tiles that are not neighbours
        let mut big = Vec::new();
        for i in 0..9i64 {
            for j in 0..9i64 {
                let id = i * 9 + j;
                big.push((id, -25.0 + 7.5 * i as f64, -25.0 + 7.5 * j as f64));
                if id % 4 == 0 {
                    big.push((id, -25.0 + 7.5 * i as f64, -25.0 + 7.5 * j as f64));
                }
            }
        }
        // placements through inexact affines, one with a negative scale:
        // the replayed tile predicate must agree with the fetch to the bit
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut affine = Vec::new();
        for id in 0..1500i64 {
            let p = (id, -80.0 + 220.0 * unit(), -30.0 + 110.0 * unit());
            affine.push(p);
            if id % 5 == 0 {
                affine.push(p);
            }
        }
        let boxed = |w: &str| PlacementSpec::boxed("x", "y", w, w);
        vec![
            Fixture::new("edges", &edges, boxed("2"), false),
            Fixture::new("labeled edges", &edges, boxed("2"), true),
            Fixture::new("big", &big, boxed("25"), false),
            Fixture::new(
                "affine",
                &affine,
                PlacementSpec::boxed("x * 0.3 - 4", "y * -0.7 + 31", "2", "2"),
                false,
            ),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn region_fetch_matches_direct_rect_fetch(
        x0 in -5.0f64..50.0,
        y0 in -5.0f64..50.0,
        w in 0.5f64..25.0,
        h in 0.5f64..25.0,
        // half the cases snap the viewport onto tile-edge multiples, where
        // straddlers and boundary marks concentrate
        snap in any::<bool>(),
    ) {
        let (x0, y0) = if snap {
            ((x0 / TILE).round() * TILE, (y0 / TILE).round() * TILE)
        } else {
            (x0, y0)
        };
        let vp = Rect::new(x0, y0, x0 + w, y0 + h);
        let server = grid_server();
        let store = server.store("main", 0).unwrap();
        let width = store.layout().unwrap().width();

        check_cold(server, &vp, width);
        let [mixed, warm] = serve_mixed_then_warm(server, &vp);
        // compare against one direct spatial query over the same covered
        // (tile-aligned) area
        let (direct, _) = fetch_rect(&*server.snapshot(), &store, &mixed.rect).unwrap();
        // ... which is the raw query plus the geometry formula, row for row
        prop_assert_eq!(
            &direct,
            &separable_rows_by_formula(&*server.snapshot(), &store, &mixed.rect)
        );
        let want = content_multiset(&direct, width);

        for (path, region) in [("mixed", &mixed), ("warm", &warm)] {
            prop_assert_eq!(region.rect, mixed.rect);
            let got = content_multiset(region.rows.iter(), width);
            prop_assert_eq!(
                got.len(), want.len(),
                "{} row multiset size for viewport {:?} (covered {:?})", path, vp, region.rect
            );
            prop_assert_eq!(&got, &want, "{} row multiset for viewport {:?}", path, vp);

            // synthesized ids were renumbered: unique within the response
            let mut ids = sorted_ids(server, &region.rows);
            ids.dedup();
            prop_assert_eq!(ids.len(), region.rows.len(), "{} tuple ids not unique", path);
        }
    }

    /// Viewports covering exactly `nx` x `ny` tiles (1..=9 tiles) anywhere
    /// over tiles -3..=4, edge-aligned in half the cases, on every fixture
    /// and every store.
    #[test]
    fn straddlers_are_kept_once_on_every_store(
        (tx, ty) in (-3i32..3, -3i32..3),
        (nx, ny) in (1i32..4, 1i32..4),
        (fx, fy) in (0.0f64..5.0, 0.0f64..5.0),
        (gx, gy) in (5.0f64..9.9, 5.0f64..9.9),
        aligned in any::<bool>(),
    ) {
        let tile = |t: i32| t as f64 * TILE;
        let vp = if aligned {
            Rect::new(tile(tx), tile(ty), tile(tx + nx), tile(ty + ny))
        } else {
            Rect::new(
                tile(tx) + fx,
                tile(ty) + fy,
                tile(tx + nx - 1) + gx,
                tile(ty + ny - 1) + gy,
            )
        };
        let covered = Rect::new(tile(tx), tile(ty), tile(tx + nx), tile(ty + ny));
        let tiles = Tiling::new(TILE).covering(&vp).unwrap();
        prop_assert_eq!(tiles.len() as i32, nx * ny);

        for f in fixtures() {
            let width = f.spatial.layout("main", 0).unwrap().unwrap().width();

            // one direct fetch over the covered area is the reference
            for server in [&f.separable, &f.spatial] {
                let store = server.store("main", 0).unwrap();
                let (direct, _) = fetch_rect(&*server.snapshot(), &store, &covered).unwrap();
                let separable = matches!(store, kyrix_server::LayerStore::SeparableRaw { .. });
                if separable {
                    // synthesized rows: the raw query plus the geometry
                    // formula, row for row
                    prop_assert_eq!(
                        &direct,
                        &separable_rows_by_formula(&*server.snapshot(), &store, &covered),
                        "{}: synthesized rows for {:?}", f.name, covered
                    );
                }
                check_cold(server, &vp, width);
                for (path, region) in ["mixed", "warm"].into_iter().zip(serve_mixed_then_warm(server, &vp)) {
                    prop_assert_eq!(region.rect, covered);
                    prop_assert_eq!(
                        content_multiset(region.rows.iter(), width),
                        content_multiset(&direct, width),
                        "{} {}: row multiset for viewport {:?}", path, f.name, vp
                    );
                    let mut ids = sorted_ids(server, &region.rows);
                    if !separable {
                        // stable ids: the very tuples the direct fetch names
                        prop_assert_eq!(&ids, &sorted_ids(server, &direct));
                    }
                    ids.dedup();
                    prop_assert_eq!(ids.len(), region.rows.len(), "{} {}: ids not unique", path, f.name);
                }
            }
        }
    }
}

/// A hand-built 4-tile region: the merge reads every copy the covering
/// tiles return (`fetch.region.rows_in`) and keeps each stored row once
/// (`fetch.region.rows_out`); served cold, the region is one fetch of the
/// viewport and pays no straddler tax.
#[test]
fn region_row_counters_pin_the_straddler_tax() {
    let points = [
        (1, 5.0, 5.0),   // inside tile (0,0): 1 tile
        (2, 15.0, 15.0), // inside tile (1,1): 1 tile
        (3, 10.0, 5.0),  // on the edge between (0,0) and (1,0): 2 tiles
        (4, 5.0, 9.0),   // box touches the edge of (0,1) from above: 2 tiles
        (5, 10.0, 10.0), // on the corner: 4 tiles ...
        (5, 10.0, 10.0), // ... stored twice: 4 more
    ];
    let server = launch(
        &points,
        PlacementSpec::boxed("x", "y", "2", "2"),
        Store::SeparableRaw,
        false,
    );
    let count = |name: &str| server.obs().counter(name).get();
    let vp = Rect::new(1.0, 1.0, 19.0, 19.0);

    // tile (0,0) warm first: a one-tile region has nothing to merge away
    let tile = Rect::new(0.0, 0.0, 10.0, 10.0);
    let one = server.fetch_region("main", 0, &tile).unwrap();
    assert_eq!(one.rows.len(), 5);
    assert_eq!(count("fetch.region.rows_in"), 5);
    assert_eq!(count("fetch.region.rows_out"), 5);

    // the region merges the cached tile with three fetched ones
    let region = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(
        (region.metrics.cache_hits, region.metrics.cache_misses),
        (1, 3)
    );
    assert_eq!(region.rect, Rect::new(0.0, 0.0, 20.0, 20.0));
    assert_eq!(region.rows.len(), 6);
    assert_eq!(sorted_ids(&server, &region.rows), vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(count("fetch.region.rows_in"), 19);
    assert_eq!(count("fetch.region.rows_out"), 11);

    // a warm refetch (all four tiles cached) merges the same rows again
    let warm = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(warm.metrics.cache_hits, 4);
    assert_eq!(warm.rows.len(), 6);
    assert_eq!(count("fetch.region.rows_in"), 33);
    assert_eq!(count("fetch.region.rows_out"), 17);

    // cold, the four tiles are one fetch of the viewport: every row once
    server.clear_caches();
    let cold = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(cold.rect, vp);
    assert_eq!((cold.metrics.requests, cold.metrics.queries), (1, 1));
    assert_eq!((cold.metrics.cache_hits, cold.metrics.cache_misses), (0, 4));
    assert_eq!(cold.rows.len(), 6);
    assert_eq!(sorted_ids(&server, &cold.rows), vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(count("fetch.region.rows_in"), 39);
    assert_eq!(count("fetch.region.rows_out"), 23);

    // the worker filled the four tiles after the response returned
    server.drain_prefetch().unwrap();
    let filled = server.fetch_region("main", 0, &vp).unwrap();
    assert_eq!(filled.metrics.cache_hits, 4);
    assert_eq!(filled.rows.len(), 6);
}

/// The worker's fill of a cold region races a publication that changes
/// rows inside it: whichever lands first, once the worker is drained a
/// warm serve returns exactly what one direct fetch returns at the new
/// version. A fill that fetched before the publication is dropped at its
/// insert (the version moved), one that lands before it is evicted by it.
#[test]
fn a_fill_racing_a_publication_never_serves_stale_rows() {
    let points: Vec<(i64, f64, f64)> = (0..2500i64)
        .map(|i| (i, (i % 50) as f64, (i / 50) as f64))
        .collect();
    let server = launch(
        &points,
        PlacementSpec::point("x", "y"),
        Store::SeparableRaw,
        false,
    );
    let store = server.store("main", 0).unwrap();
    let width = store.layout().unwrap().width();
    let vp = Rect::new(3.0, 3.0, 27.0, 17.0);
    for round in 0..24i64 {
        server.clear_caches();
        let cold = server.fetch_region("main", 0, &vp).unwrap();
        assert_eq!(cold.rect, vp, "round {round}: every tile missed");
        // insert a dot under a covering tile, or delete the last round's
        let (x, y) = (
            4.0 + (round % 6) as f64 * 4.0,
            4.0 + (round % 3) as f64 * 5.0,
        );
        let id = 10_000 + round;
        server
            .mutate_shards(&["dots"], |shards| {
                let db = &mut shards[0];
                if round % 2 == 0 {
                    let row = vec![Value::Int(id), Value::Float(x), Value::Float(y)];
                    db.insert("dots", Row::new(row))?;
                } else {
                    db.delete_where("dots", "id = $1", &[Value::Int(id - 1)])?;
                }
                Ok((
                    (),
                    vec![DirtyRegion::new("dots", Rect::new(0.0, 0.0, 30.0, 20.0))],
                ))
            })
            .unwrap();
        server.drain_prefetch().unwrap();
        server.fetch_region("main", 0, &vp).unwrap();
        server.drain_prefetch().unwrap();
        let warm = server.fetch_region("main", 0, &vp).unwrap();
        assert_eq!(warm.metrics.cache_misses, 0, "round {round}: filled");
        let (direct, _) = fetch_rect(&*server.snapshot(), &store, &warm.rect).unwrap();
        assert_eq!(
            content_multiset(warm.rows.iter(), width),
            content_multiset(&direct, width),
            "round {round}: the warm serve is the data at version {}",
            server.data_version()
        );
    }
}
