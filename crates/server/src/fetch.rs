//! Fetch primitives: one SQL round trip per call, against a layer store —
//! an execution of the statement the store prepared at launch
//! ([`LayerStore::fetch_statement`]).

use crate::backend::SnapshotView;
use crate::block::Columns;
use crate::dbox::BoxPolicy;
use crate::error::{Result, ServerError};
use crate::metrics::FetchMetrics;
use crate::precompute::{FetchPlan, LayerRowLayout, LayerStore};
use crate::tile::{TileId, Tiling};
use kyrix_storage::{Prepared, Rect, Row, Value};
use std::time::Instant;

/// Wire size of the geometry tail a separable fetch appends to each raw
/// row: `cx, cy, minx, miny, maxx, maxy` floats plus the tuple id, 8 bytes
/// each.
const GEOMETRY_WIRE_BYTES: u64 = LayerRowLayout::GEOMETRY_COLS as u64 * 8;

/// A rectangle as the `$1..$4` of a store's rectangle fetch.
fn rect_params(r: &Rect) -> [Value; 4] {
    [r.min_x, r.min_y, r.max_x, r.max_y].map(Value::Float)
}

/// Map a canvas-space rectangle to the raw-data domain through the inverse
/// placement affines, expanding by the constant object extent so objects
/// whose box pokes into the rectangle are included.
fn raw_query_rect(
    rect: &Rect,
    x_affine: &kyrix_expr::Affine,
    y_affine: &kyrix_expr::Affine,
    obj_w: f64,
    obj_h: f64,
) -> Result<Rect> {
    let inv = |a: &kyrix_expr::Affine, v: f64| -> Result<f64> {
        a.invert(v)
            .ok_or_else(|| ServerError::Config("separable placement with zero scale".to_string()))
    };
    let x0 = inv(x_affine, rect.min_x - obj_w / 2.0)?;
    let x1 = inv(x_affine, rect.max_x + obj_w / 2.0)?;
    let y0 = inv(y_affine, rect.min_y - obj_h / 2.0)?;
    let y1 = inv(y_affine, rect.max_y + obj_h / 2.0)?;
    Ok(Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

/// Fetch all layer rows intersecting a canvas rectangle with one query:
/// a dynamic box, or one static tile ([`Tiling::tile_rect`]).
///
/// Shard-count-agnostic: on a [`crate::Snapshot`] over several shards the
/// `bbox && rect` predicate routes the query to the shards the rectangle
/// intersects and the coordinator merge concatenates their rows; over one
/// shard it is that database's own execution.
pub fn fetch_rect(
    db: &dyn SnapshotView,
    store: &LayerStore,
    rect: &Rect,
) -> Result<(Vec<Row>, FetchMetrics)> {
    match store {
        LayerStore::Static => Ok((Vec::new(), FetchMetrics::default())),
        LayerStore::Spatial { fetch, .. } => run_query(db, fetch, &rect_params(rect)),
        LayerStore::SeparableRaw {
            x_affine,
            y_affine,
            x_col,
            y_col,
            obj_w,
            obj_h,
            fetch,
            ..
        } => {
            let raw = raw_query_rect(rect, x_affine, y_affine, *obj_w, *obj_h)?;
            let (mut rows, mut metrics) = run_query(db, fetch, &rect_params(&raw))?;
            // complete the standard layer row layout in place: raw row
            // values are exactly the transform output (SELECT *, no derived
            // columns) and `fetch` had the executor decode each row with
            // room for the geometry tail, so the row stays the one buffer
            // it was decoded into; its wire size is the query's own plus
            // the constant tail
            for (i, row) in rows.iter_mut().enumerate() {
                let cx = x_affine.apply(row.get(*x_col).as_f64()?);
                let cy = y_affine.apply(row.get(*y_col).as_f64()?);
                let bbox = Rect::centered(cx, cy, *obj_w, *obj_h);
                row.values.extend([
                    Value::Float(cx),
                    Value::Float(cy),
                    Value::Float(bbox.min_x),
                    Value::Float(bbox.min_y),
                    Value::Float(bbox.max_x),
                    Value::Float(bbox.max_y),
                    Value::Int(i as i64),
                ]);
            }
            metrics.bytes += rows.len() as u64 * GEOMETRY_WIRE_BYTES;
            Ok((rows, metrics))
        }
    }
}

/// The predicate one tile's fetch evaluates in the DBMS, replayed on an
/// already-fetched layer row: `matches(row)` is true exactly when the
/// tile's [`fetch_rect`] returns the row. The region merge uses it
/// to tell which of several covering tiles saw a straddling mark first.
pub(crate) enum TileMatcher {
    /// Separable store: the raw `(x, y)` lies in the tile's raw-space
    /// query rectangle — the very floats [`fetch_rect`] sends.
    RawPoint {
        raw: Rect,
        x_col: usize,
        y_col: usize,
    },
    /// Spatial store: the row's bounding box intersects the tile.
    Bbox { tile: Rect, layout: LayerRowLayout },
}

impl TileMatcher {
    /// The matcher of `tile` under `store` (None for static layers, whose
    /// tiles hold no rows).
    pub(crate) fn new(store: &LayerStore, tiling: Tiling, tile: TileId) -> Result<Option<Self>> {
        Ok(match store {
            LayerStore::Static => None,
            LayerStore::Spatial { layout, .. } => Some(TileMatcher::Bbox {
                tile: tiling.tile_rect(tile),
                layout: *layout,
            }),
            LayerStore::SeparableRaw {
                x_affine,
                y_affine,
                x_col,
                y_col,
                obj_w,
                obj_h,
                ..
            } => Some(TileMatcher::RawPoint {
                raw: raw_query_rect(&tiling.tile_rect(tile), x_affine, y_affine, *obj_w, *obj_h)?,
                x_col: *x_col,
                y_col: *y_col,
            }),
        })
    }

    /// Whether the tile's fetch returns `row` — a fetched [`Row`] or the
    /// cells of a cached one.
    pub(crate) fn matches<R: Columns + ?Sized>(&self, row: &R) -> bool {
        match self {
            TileMatcher::RawPoint { raw, x_col, y_col } => {
                match (row.f64_at(*x_col), row.f64_at(*y_col)) {
                    (Some(x), Some(y)) => Rect::point(x, y).intersects(raw),
                    _ => false,
                }
            }
            TileMatcher::Bbox { tile, layout } => layout.bbox_of(row).intersects(tile),
        }
    }
}

/// Serve one viewport rectangle under an explicit plan with nothing
/// cached, as [`crate::KyrixServer::fetch_region`] serves it from empty
/// caches, bypassing every cache: for static tiles, a viewport inside
/// one tile is that tile and a viewport over several is one fetch of the
/// viewport itself (the server fills the tiles off the request path); for
/// dynamic boxes, one policy-computed box. One request either way.
///
/// This is the cold half of a region serve: it costs one `(store, plan)`
/// pair without touching the launched server's caches or per-layer totals.
pub(crate) fn fetch_plan_cold(
    db: &dyn SnapshotView,
    store: &LayerStore,
    plan: &FetchPlan,
    canvas_bounds: &Rect,
    rect: &Rect,
) -> Result<(Vec<Row>, FetchMetrics)> {
    let target = match plan {
        FetchPlan::StaticTiles { size, .. } => {
            let tiling = Tiling::new(*size);
            match tiling.covering(rect)?[..] {
                [] => return Ok((Vec::new(), FetchMetrics::default())),
                [tile] => tiling.tile_rect(tile),
                _ => *rect,
            }
        }
        FetchPlan::DynamicBox { policy } => {
            compute_fetch_box(db, store, policy, rect, canvas_bounds)
        }
    };
    let (rows, mut metrics) = fetch_rect(db, store, &target)?;
    metrics.requests = 1;
    Ok((rows, metrics))
}

/// The rectangle a dynamic-box policy fetches for a viewport, with the
/// store's spatial count as the density estimator. The estimator closure
/// is lazy — only [`BoxPolicy::DensityAdaptive`] ever invokes it — so this
/// is the single box-computation path for both the server's cached box
/// fetch and its cold serve.
pub fn compute_fetch_box(
    db: &dyn SnapshotView,
    store: &LayerStore,
    policy: &BoxPolicy,
    viewport: &Rect,
    canvas_bounds: &Rect,
) -> Rect {
    let estimator = |r: &Rect| count_rect(db, store, r).unwrap_or(usize::MAX);
    policy.compute(viewport, canvas_bounds, Some(&estimator))
}

/// Count (without fetching) the layer objects intersecting a rectangle;
/// used by the density-adaptive box policy. On a sharded view the count
/// sums routed per-shard index probes (rows live on exactly one shard).
pub(crate) fn count_rect(db: &dyn SnapshotView, store: &LayerStore, rect: &Rect) -> Result<usize> {
    match store {
        LayerStore::Static => Ok(0),
        LayerStore::Spatial { table, .. } => db
            .spatial_count(table, rect)?
            .ok_or_else(|| ServerError::Config("spatial store lost its index".into())),
        LayerStore::SeparableRaw {
            table,
            x_affine,
            y_affine,
            obj_w,
            obj_h,
            ..
        } => {
            let raw = raw_query_rect(rect, x_affine, y_affine, *obj_w, *obj_h)?;
            db.spatial_count(table, &raw)?
                .ok_or_else(|| ServerError::Config("raw table lost its spatial index".into()))
        }
    }
}

/// Execute a store's fetch statement, timing it and extracting metrics.
fn run_query(
    db: &dyn SnapshotView,
    fetch: &Prepared,
    params: &[Value],
) -> Result<(Vec<Row>, FetchMetrics)> {
    let start = Instant::now();
    let result = db.execute(fetch, params)?;
    let db_ms = start.elapsed().as_secs_f64() * 1000.0;
    let metrics = FetchMetrics {
        requests: 0, // the caller (server) counts frontend requests
        queries: 1,
        db_ms,
        rows: result.rows.len() as u64,
        bytes: result.stats.bytes_out,
        cache_hits: 0,
        cache_misses: 0,
    };
    Ok((result.rows, metrics))
}
