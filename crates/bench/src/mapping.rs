//! The paper's tuple–tile mapping design (§3.1), replayed as the Figures
//! 6–7 baseline. The Kyrix server serves tiles from the spatial design
//! only; this module builds the other design next to it and replays a
//! trace against it the way a session drives a tiled layer.
//!
//! The design: a *record* table holding the layer rows and a
//! `(tuple_id, tile_id)` *mapping* table listing, for every row, each tile
//! its bounding box touches ([`Tiling::covering`]), with B+trees on
//! `mapping.tile_id` and `record.tuple_id`. One tile is one index join.

use crate::CellResult;
use kyrix_client::{Move, StepReport, TraceReport, Viewport};
use kyrix_server::{
    CostModel, FetchMetrics, KyrixServer, LayerRowLayout, LayerStore, Result, ServerError, TileId,
    Tiling,
};
use kyrix_storage::fxhash::FxHashSet;
use kyrix_storage::{DataType, Database, IndexKind, Prepared, Rect, Row, Schema, Value};
use kyrix_workload::TraceStart;
use std::time::Instant;

/// The statement fetching one tile (`$1`: tile key) under the mapping
/// design.
const TILE_JOIN: &str = "SELECT r.* FROM mapping m JOIN record r \
                         ON m.tuple_id = r.tuple_id WHERE m.tile_id = $1";

/// The mapping design for one layer and one tile size, with what a session
/// on it needs: the canvas, the viewport size and the cost model.
pub struct MappingReplay {
    db: Database,
    fetch: Prepared,
    tiling: Tiling,
    layout: LayerRowLayout,
    canvas: Rect,
    viewport: (f64, f64),
    cost: CostModel,
}

impl MappingReplay {
    /// Build the design for tiles of `size` over the first data layer of
    /// `server`'s initial canvas. The server must serve that layer from
    /// the spatial design's materialized table: its rows, read through
    /// the server's own snapshot, become the record table.
    pub fn build(server: &KyrixServer, size: f64) -> Result<Self> {
        let app = server.app();
        let canvas = app
            .canvas(&app.initial_canvas)
            .ok_or_else(|| ServerError::Config("the app has no initial canvas".into()))?;
        let layer = canvas
            .layers
            .iter()
            .position(|l| !l.is_static)
            .ok_or_else(|| ServerError::Config("the initial canvas has no data layer".into()))?;
        let LayerStore::Spatial { table, layout, .. } = server.store(&canvas.id, layer)? else {
            return Err(ServerError::Config(
                "the mapping design copies a materialized layer table".into(),
            ));
        };
        let snap = server.snapshot();
        let rows = snap.query(&format!("SELECT * FROM {table}"), &[])?.rows;

        let tiling = Tiling::new(size);
        let mut db = Database::new();
        db.create_table("record", snap.table_schema(&table)?)?;
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
        Ok(MappingReplay {
            fetch: db.prepare(TILE_JOIN)?,
            db,
            tiling,
            layout,
            canvas: canvas.bounds(),
            viewport: (app.viewport_width, app.viewport_height),
            cost: server.cost_model(),
        })
    }

    /// One tile's rows: one request, one query.
    pub fn fetch_tile(&self, tile: TileId) -> Result<(Vec<Row>, FetchMetrics)> {
        let started = Instant::now();
        let result = self.db.execute(&self.fetch, &[Value::Int(tile.key())])?;
        let metrics = FetchMetrics {
            requests: 1,
            queries: 1,
            db_ms: started.elapsed().as_secs_f64() * 1000.0,
            rows: result.rows.len() as u64,
            bytes: result.stats.bytes_out,
            cache_hits: 0,
            cache_misses: 1,
        };
        Ok((result.rows, metrics))
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
    /// probe returns it, boundary marks included.
    #[test]
    fn mapping_tiles_hold_the_spatial_tiles_ids() {
        let server = grid_server();
        let replay = MappingReplay::build(&server, 10.0).unwrap();
        let layout = server.layout("main", 0).unwrap().unwrap();
        let ids = |rows: &[Row]| {
            let mut ids: Vec<i64> = rows.iter().map(|r| layout.tuple_id(r)).collect();
            ids.sort_unstable();
            ids
        };
        // every mark is listed once per tile it touches: per axis, the 5
        // of 41 positions on an edge (0, 10, …, 40) touch two tiles
        let per_axis = 41 + 5;
        let mapping = replay.db.table("mapping").unwrap().len();
        assert_eq!(mapping, per_axis * per_axis);
        assert_eq!(replay.db.table("record").unwrap().len(), 41 * 41);
        for x in -1..=4 {
            for y in -1..=4 {
                let tile = TileId::new(x, y);
                let (mapped, metrics) = replay.fetch_tile(tile).unwrap();
                let rect = replay.tiling.tile_rect(tile);
                let spatial = server.fetch_region("main", 0, &rect).unwrap();
                assert_eq!(ids(&mapped), ids(&spatial.rows), "tile {tile:?}");
                assert_eq!(metrics.rows, spatial.metrics.rows, "tile {tile:?}");
                assert_eq!(metrics.bytes, spatial.metrics.bytes, "tile {tile:?}");
            }
        }
    }
}
