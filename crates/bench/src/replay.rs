//! The paper's static-tile baseline of Figures 4, 6 and 7 (§3.1),
//! replayed by the harness. The Kyrix server serves a cold region over
//! several tiles as its viewport and fills the tiles off the request path,
//! so it does not pay what the paper measures for tiles: one request and
//! one query per covering tile, every step. [`TileReplay`] pays exactly
//! that, under either of the paper's two tile designs:
//!
//! * **spatial** — the server's own design: [`kyrix_server::fetch_rect`]
//!   over each tile's rectangle, on the server's snapshot and layer store;
//! * **mapping** — the tuple–tile mapping design, which only this module
//!   builds: a *record* table holding the layer rows and a
//!   `(tuple_id, tile_id)` *mapping* table listing, for every row, each
//!   tile its bounding box touches ([`Tiling::covering`]), with B+trees on
//!   `mapping.tile_id` and `record.tuple_id`. One tile is one index join.

use crate::CellResult;
use kyrix_client::{Move, StepReport, TraceReport, Viewport};
use kyrix_server::{
    fetch_rect, CostModel, FetchMetrics, KyrixServer, LayerRowLayout, LayerStore, Result,
    ServerError, SnapshotView, TileId, Tiling,
};
use kyrix_storage::fxhash::FxHashSet;
use kyrix_storage::{DataType, Database, IndexKind, Prepared, Rect, Row, Schema, Value};
use kyrix_workload::TraceStart;
use std::sync::Arc;
use std::time::Instant;

/// The statement fetching one tile (`$1`: tile key) under the mapping
/// design.
const TILE_JOIN: &str = "SELECT r.* FROM mapping m JOIN record r \
                         ON m.tuple_id = r.tuple_id WHERE m.tile_id = $1";

/// Where a [`TileReplay`] fetches a tile from.
enum Design {
    /// The server's snapshot and the layer's spatial store.
    Spatial {
        snap: Arc<dyn SnapshotView>,
        store: LayerStore,
    },
    /// The mapping design's own tables.
    Mapping(Box<MappingTables>),
}

/// The mapping and record tables, and the prepared index join.
struct MappingTables {
    db: Database,
    fetch: Prepared,
}

/// One tile design for one layer and one tile size, with what a session
/// on it needs: the canvas, the viewport size and the cost model.
pub struct TileReplay {
    design: Design,
    tiling: Tiling,
    layout: LayerRowLayout,
    canvas: Rect,
    viewport: (f64, f64),
    cost: CostModel,
}

/// What both designs read off the server: its snapshot, and the first
/// data layer of its initial canvas — a materialized layer table.
struct Layer {
    snap: Arc<dyn SnapshotView>,
    store: LayerStore,
    table: String,
    layout: LayerRowLayout,
    canvas: Rect,
}

impl Layer {
    fn of(server: &KyrixServer) -> Result<Self> {
        let app = server.app();
        let canvas = app
            .canvas(&app.initial_canvas)
            .ok_or_else(|| ServerError::Config("the app has no initial canvas".into()))?;
        let layer = canvas
            .layers
            .iter()
            .position(|l| !l.is_static)
            .ok_or_else(|| ServerError::Config("the initial canvas has no data layer".into()))?;
        let store = server.store(&canvas.id, layer)?;
        let LayerStore::Spatial { table, layout, .. } = &store else {
            return Err(ServerError::Config(
                "the tile replay reads a materialized layer table".into(),
            ));
        };
        Ok(Layer {
            snap: server.snapshot(),
            table: table.clone(),
            layout: *layout,
            store,
            canvas: canvas.bounds(),
        })
    }
}

impl TileReplay {
    /// The spatial design for tiles of `size` over the first data layer of
    /// `server`'s initial canvas, fetched from the server's own snapshot
    /// and store. The server must serve that layer from a materialized
    /// layer table, whose tuple ids hold across fetches.
    pub fn spatial(server: &KyrixServer, size: f64) -> Result<Self> {
        let layer = Layer::of(server)?;
        let design = Design::Spatial {
            snap: Arc::clone(&layer.snap),
            store: layer.store.clone(),
        };
        Ok(Self::new(server, size, &layer, design))
    }

    /// The mapping design for tiles of `size` over the same layer as
    /// [`TileReplay::spatial`]: the layer table's rows, read through the
    /// server's own snapshot, become the record table.
    pub fn mapping(server: &KyrixServer, size: f64) -> Result<Self> {
        let layer = Layer::of(server)?;
        let (snap, layout) = (&layer.snap, layer.layout);
        let rows = snap
            .query(&format!("SELECT * FROM {}", layer.table), &[])?
            .rows;

        let tiling = Tiling::new(size);
        let mut db = Database::new();
        db.create_table("record", snap.table_schema(&layer.table)?)?;
        let pairs = Schema::empty()
            .with("tuple_id", DataType::Int)
            .with("tile_id", DataType::Int);
        db.create_table("mapping", pairs)?;
        for row in rows {
            let tuple_id = Value::Int(layout.tuple_id(&row));
            for tile in tiling.covering(&layout.bbox(&row))? {
                let pair = vec![tuple_id.clone(), Value::Int(tile.key())];
                db.insert("mapping", Row::new(pair))?;
            }
            db.insert("record", row)?;
        }
        for (table, name, column) in [
            ("mapping", "bt_tile", "tile_id"),
            ("record", "bt_tuple", "tuple_id"),
        ] {
            let kind = IndexKind::BTree {
                column: column.into(),
            };
            db.create_index(table, name, kind)?;
        }
        let fetch = db.prepare(TILE_JOIN)?;
        let design = Design::Mapping(Box::new(MappingTables { db, fetch }));
        Ok(Self::new(server, size, &layer, design))
    }

    fn new(server: &KyrixServer, size: f64, layer: &Layer, design: Design) -> Self {
        let app = server.app();
        TileReplay {
            design,
            tiling: Tiling::new(size),
            layout: layer.layout,
            canvas: layer.canvas,
            viewport: (app.viewport_width, app.viewport_height),
            cost: server.cost_model(),
        }
    }

    /// One tile's rows: one request, one query.
    pub fn fetch_tile(&self, tile: TileId) -> Result<(Vec<Row>, FetchMetrics)> {
        let (rows, mut metrics) = match &self.design {
            Design::Spatial { snap, store } => {
                fetch_rect(&**snap, store, &self.tiling.tile_rect(tile))?
            }
            Design::Mapping(tables) => {
                let started = Instant::now();
                let result = tables
                    .db
                    .execute(&tables.fetch, &[Value::Int(tile.key())])?;
                let metrics = FetchMetrics {
                    queries: 1,
                    db_ms: started.elapsed().as_secs_f64() * 1000.0,
                    rows: result.rows.len() as u64,
                    bytes: result.stats.bytes_out,
                    ..FetchMetrics::default()
                };
                (result.rows, metrics)
            }
        };
        metrics.requests = 1;
        metrics.cache_misses = 1;
        Ok((rows, metrics))
    }

    /// One cold step at `viewport`: every tile covering its on-canvas part
    /// is fetched, as a session with both caches cleared fetches them.
    fn step(&self, viewport: &Viewport) -> Result<StepReport> {
        let started = Instant::now();
        let vp = viewport.rect().intersection(&self.canvas);
        let mut fetch = FetchMetrics::default();
        let mut visible = FxHashSet::default();
        for tile in self.tiling.covering(&vp)? {
            let (rows, metrics) = self.fetch_tile(tile)?;
            fetch.merge(&metrics);
            for row in rows.iter().filter(|r| self.layout.bbox(r).intersects(&vp)) {
                visible.insert(self.layout.tuple_id(row));
            }
        }
        Ok(StepReport {
            modeled_ms: fetch.modeled_ms(&self.cost),
            fetch,
            measured_ms: started.elapsed().as_secs_f64() * 1000.0,
            frontend_hits: 0,
            visible_rows: visible.len(),
        })
    }

    /// One cell of a figure under the paper's cold-cache protocol: from
    /// `start` (not counted), each move pans and clamps the viewport and
    /// fetches the step; `runs` replays are averaged.
    pub fn run_cell(&self, start: TraceStart, moves: &[Move], runs: usize) -> Result<CellResult> {
        let (w, h) = self.viewport;
        let mut sum_modeled = 0.0;
        let mut sum_measured = 0.0;
        let mut last = TraceReport::default();
        for _ in 0..runs.max(1) {
            let mut viewport = Viewport::new(start.cx, start.cy, w, h);
            viewport.center_on(start.cx, start.cy, &self.canvas);
            let mut report = TraceReport::default();
            for m in moves {
                match *m {
                    Move::PanBy { dx, dy } => viewport.pan(dx, dy, &self.canvas),
                    Move::PanTo { cx, cy } => viewport.center_on(cx, cy, &self.canvas),
                }
                report.steps.push(self.step(&viewport)?);
            }
            sum_modeled += report.avg_modeled_ms();
            sum_measured += report.avg_measured_ms();
            last = report;
        }
        Ok(CellResult {
            avg_modeled_ms: sum_modeled / runs.max(1) as f64,
            avg_measured_ms: sum_measured / runs.max(1) as f64,
            last_run: last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyrix_core::{
        compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec,
        TransformSpec,
    };
    use kyrix_server::{FetchPlan, ServerConfig, TileDesign};

    /// A server on the spatial design over point marks (1x1 boxes) at
    /// every integer point of [0, 40]²: under tiles of 10, marks sit on
    /// tile edges and corners and beside them.
    fn grid_server() -> KyrixServer {
        let mut db = Database::new();
        let schema = Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float);
        db.create_table("dots", schema).unwrap();
        for i in 0..41 * 41 {
            let (x, y) = ((i % 41) as f64, (i / 41) as f64);
            let row = vec![Value::Int(i), Value::Float(x), Value::Float(y)];
            db.insert("dots", Row::new(row)).unwrap();
        }
        let spec = AppSpec::new("grid")
            .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
            .add_canvas(
                CanvasSpec::new("main", 40.0, 40.0).layer(LayerSpec::dynamic(
                    "t",
                    PlacementSpec::point("x", "y"),
                    RenderSpec::Marks(MarkEncoding::circle()),
                )),
            )
            .initial("main", 20.0, 20.0)
            .viewport(10.0, 10.0);
        let app = compile(&spec, &db).unwrap();
        let plan = FetchPlan::StaticTiles {
            size: 10.0,
            design: TileDesign::SpatialIndex,
        };
        KyrixServer::launch(app, db, ServerConfig::new(plan))
            .unwrap()
            .0
    }

    /// The two §3.1 designs are two ways to the same tile: the mapping
    /// table lists a row under a tile exactly when the tile's rectangle
    /// probe returns it, boundary marks included — and the spatial design's
    /// probe is the server's own one-tile region.
    #[test]
    fn mapping_tiles_hold_the_spatial_tiles_ids() {
        let server = grid_server();
        let mapping = TileReplay::mapping(&server, 10.0).unwrap();
        let spatial = TileReplay::spatial(&server, 10.0).unwrap();
        let layout = server.layout("main", 0).unwrap().unwrap();
        let ids = |rows: &[Row]| {
            let mut ids: Vec<i64> = rows.iter().map(|r| layout.tuple_id(r)).collect();
            ids.sort_unstable();
            ids
        };
        // every mark is listed once per tile it touches: per axis, the 5
        // of 41 positions on an edge (0, 10, …, 40) touch two tiles
        let per_axis = 41 + 5;
        let Design::Mapping(tables) = &mapping.design else {
            panic!("built the mapping design");
        };
        let db = &tables.db;
        assert_eq!(db.table("mapping").unwrap().len(), per_axis * per_axis);
        assert_eq!(db.table("record").unwrap().len(), 41 * 41);
        for x in -1..=4 {
            for y in -1..=4 {
                let tile = TileId::new(x, y);
                let (mapped, by_map) = mapping.fetch_tile(tile).unwrap();
                let (probed, by_probe) = spatial.fetch_tile(tile).unwrap();
                let rect = mapping.tiling.tile_rect(tile);
                let served = server.fetch_region("main", 0, &rect).unwrap();
                assert_eq!(ids(&mapped), ids(&served.rows), "tile {tile:?}");
                assert_eq!(ids(&probed), ids(&served.rows), "tile {tile:?}");
                for m in [by_map, by_probe] {
                    assert_eq!((m.requests, m.queries), (1, 1), "tile {tile:?}");
                    assert_eq!(m.rows, served.metrics.rows, "tile {tile:?}");
                    assert_eq!(m.bytes, served.metrics.bytes, "tile {tile:?}");
                }
            }
        }
    }
}
