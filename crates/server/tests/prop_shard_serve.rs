//! Property: `fetch_region` through the sharded scatter-gather backend
//! returns exactly the same row *multiset* as the single-node backend on
//! the same data, plan, and viewport — for every shard grid and for
//! viewports that straddle tile and shard boundaries. Genuinely
//! duplicated raw rows (two marks at the same position, including on a
//! shard boundary) must survive as two rows, and the synthesized tuple
//! ids must still be unique within each sharded response after the
//! coordinator merge renumbers them. The `(1, 1)` grid goes through the
//! same `launch_sharded` and must *be* the single-node server: identical
//! rows, ids and version vector, and no `shard.*` telemetry.

use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec, TransformSpec,
};
use kyrix_parallel::{Partitioner, QueryRouter};
use kyrix_server::{fetch_rect, FetchPlan, KyrixServer, ServerConfig, TileDesign};
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::separable_rows_by_formula;

const TILE: f64 = 10.0;
const EXTENT: f64 = 50.0;

fn dots_schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
}

/// Dots on a 50x50 integer grid (1x1 boxes: every dot at a multiple of
/// the tile size straddles a tile edge), plus deliberate duplicate rows —
/// one pair on a tile corner, one in a tile interior, one exactly on the
/// 2x2 grid's shard boundary.
fn dots_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut insert = |id: i64, x: f64, y: f64| {
        rows.push(Row::new(vec![
            Value::Int(id),
            Value::Float(x),
            Value::Float(y),
        ]));
    };
    for i in 0..2500i64 {
        insert(i, (i % 50) as f64, (i / 50) as f64);
    }
    insert(9000, 20.0, 20.0);
    insert(9000, 20.0, 20.0);
    insert(9001, 13.5, 7.5);
    insert(9001, 13.5, 7.5);
    insert(9002, 25.0, 25.0);
    insert(9002, 25.0, 25.0);
    rows
}

fn index_dots(db: &mut Database) {
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

fn dots_app(db: &Database) -> kyrix_core::CompiledApp {
    let spec = AppSpec::new("propgrid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", EXTENT, EXTENT).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("main", 25.0, 25.0)
        .viewport(10.0, 10.0);
    compile(&spec, db).unwrap()
}

fn config() -> ServerConfig {
    ServerConfig::new(FetchPlan::StaticTiles {
        size: TILE,
        design: TileDesign::SpatialIndex,
    })
}

/// The single-node reference plus one `launch_sharded` server per grid in
/// {1 (1x1), 2 (2x1), 4 (2x2), 8 (4x2)} — identical rows, plan, and app.
fn servers() -> &'static (KyrixServer, Vec<KyrixServer>) {
    static SERVERS: OnceLock<(KyrixServer, Vec<KyrixServer>)> = OnceLock::new();
    SERVERS.get_or_init(|| {
        let rows = dots_rows();
        let schema = dots_schema();

        let mut db = Database::new();
        db.create_table("dots", schema.clone()).unwrap();
        for row in &rows {
            db.insert("dots", row.clone()).unwrap();
        }
        index_dots(&mut db);
        let app = dots_app(&db);
        let (single, reports) = KyrixServer::launch(app, db, config()).unwrap();
        assert!(
            reports[0].skipped_separable,
            "the property targets the SeparableRaw store"
        );

        let mut sharded = Vec::new();
        for (cols, grid_rows) in [(1u32, 1u32), (2, 1), (2, 2), (4, 2)] {
            let n = (cols * grid_rows) as usize;
            let part = Partitioner::SpatialGrid {
                x_column: "x".into(),
                y_column: "y".into(),
                cols,
                rows: grid_rows,
                width: EXTENT,
                height: EXTENT,
            };
            let mut shards: Vec<Database> = (0..n)
                .map(|_| {
                    let mut db = Database::new();
                    db.create_table("dots", schema.clone()).unwrap();
                    db
                })
                .collect();
            for row in &rows {
                let s = part.route(&schema, row, n).unwrap();
                shards[s].insert("dots", row.clone()).unwrap();
            }
            for db in &mut shards {
                index_dots(db);
            }
            let app = dots_app(&shards[0]);
            let mut router = QueryRouter::new(n).unwrap();
            router.register("dots", part).unwrap();
            let server = KyrixServer::launch_sharded(app, shards, router, config()).unwrap();
            assert_eq!(server.shard_count(), n);
            sharded.push(server);
        }
        (single, sharded)
    })
}

/// Sorted multiset of row contents, ignoring the synthesized trailing
/// tuple_id (its numbering differs between backends).
fn content_multiset(rows: &[Row], width: usize) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| Row::new(r.values[..width - 1].to_vec()).encode())
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sharded_region_fetch_matches_single_node(
        x0 in -5.0f64..50.0,
        y0 in -5.0f64..50.0,
        w in 0.5f64..25.0,
        h in 0.5f64..25.0,
        // half the cases snap the viewport onto tile-edge multiples, where
        // straddlers, boundary marks, and shard seams concentrate
        snap in any::<bool>(),
    ) {
        let (x0, y0) = if snap {
            ((x0 / TILE).round() * TILE, (y0 / TILE).round() * TILE)
        } else {
            (x0, y0)
        };
        let vp = Rect::new(x0, y0, x0 + w, y0 + h);
        let (single, sharded) = servers();
        let store = single.store("main", 0).unwrap();
        let width = store.layout().unwrap().width();

        let reference = single.fetch_region("main", 0, &vp).unwrap();
        let want = content_multiset(&reference.rows, width);

        // on every backend a rectangle fetch is the view's own query plus
        // the geometry formula, row for row (rows gathered from several
        // shards keep the coordinator's order on both sides)
        for server in std::iter::once(single).chain(sharded) {
            let view = server.snapshot();
            let store = server.store("main", 0).unwrap();
            let (direct, _) = fetch_rect(&*view, &store, &reference.rect).unwrap();
            prop_assert_eq!(
                &direct,
                &separable_rows_by_formula(&*view, &store, &reference.rect),
                "synthesized rows on {} shards for {:?}",
                server.shard_count(), reference.rect
            );
        }

        for server in sharded {
            let region = server.fetch_region("main", 0, &vp).unwrap();
            prop_assert_eq!(
                region.rect, reference.rect,
                "covered area diverged on {} shards for viewport {:?}",
                server.shard_count(), vp
            );
            let got = content_multiset(&region.rows, width);
            prop_assert_eq!(
                &got, &want,
                "row multiset on {} shards for viewport {:?}",
                server.shard_count(), vp
            );

            // merge renumbered the synthesized ids: unique per response
            let layout = server.store("main", 0).unwrap();
            let layout = layout.layout().unwrap();
            let mut ids: Vec<i64> = region.rows.iter().map(|r| layout.tuple_id(r)).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(
                ids.len(), region.rows.len(),
                "tuple ids not unique on {} shards", server.shard_count()
            );

            // one shard is served inline: the single-node answer itself
            if server.shard_count() == 1 {
                prop_assert_eq!(&region.rows, &reference.rows, "rows and ids for {:?}", vp);
                let (a, b) = (server.snapshot(), single.snapshot());
                prop_assert_eq!(a.versions(), b.versions());
                let spans = server.obs().histograms();
                prop_assert!(spans.iter().all(|(name, _)| !name.contains("shard")));
            }
        }
    }
}
