//! Backend precomputation (paper §3.1 "Database Design and Indexing" and
//! §3.2 "Separability").
//!
//! Each non-static layer gets one store, whatever plan serves it: the
//! paper's *spatial* design, in which the backend materializes a *layer
//! table* holding the transform output plus placement-derived geometry
//! columns, with an R-tree over the per-object bounding boxes that serves
//! dynamic boxes and static tiles alike. (The paper's other design, a
//! tuple–tile mapping table, is only the Figure 6/7 baseline;
//! `kyrix-bench` builds it itself.)
//!
//! When a layer's placement is *separable* (§3.2) and the raw table already
//! has a spatial index on the placement columns, precomputation is skipped
//! entirely and fetches run against the raw table through the placement's
//! affine inverse.

use crate::block::Columns;
use crate::dbox::BoxPolicy;
use crate::error::{Result, ServerError};
use kyrix_core::CompiledLayer;
use kyrix_expr::Affine;
use kyrix_storage::{
    sql, DataType, Database, IndexKind, Prepared, Rect, Row, Schema, SpatialCols, Value,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which database design backs static tiles (paper §3.1). The server
/// serves the spatial one only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileDesign {
    /// Spatial index on per-object bounding boxes.
    SpatialIndex,
}

/// The fetch scheme an application is served with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FetchPlan {
    /// Dynamic boxes (always spatial-index-backed).
    DynamicBox {
        /// How the fetched box extends beyond the viewport.
        policy: BoxPolicy,
    },
    /// Fixed-size static tiles.
    StaticTiles {
        /// Tile edge length in canvas units.
        size: f64,
        /// Which §3.1 database design serves the tiles.
        design: TileDesign,
    },
}

impl FetchPlan {
    /// Legend label matching the paper's Figures 6–7.
    pub fn label(&self) -> String {
        match self {
            FetchPlan::DynamicBox { policy } => policy.label(),
            FetchPlan::StaticTiles { size, .. } => format!("tile spatial {}", *size as u64),
        }
    }
}

/// Accessors into layer-table rows: `data columns ++ [cx, cy, minx, miny,
/// maxx, maxy, tuple_id]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerRowLayout {
    /// Number of transform (data) columns preceding the geometry columns.
    pub n_data_cols: usize,
}

impl LayerRowLayout {
    /// How many geometry columns follow the data columns: `cx, cy, minx,
    /// miny, maxx, maxy, tuple_id`.
    pub const GEOMETRY_COLS: usize = 7;

    /// Placement center x of a layer row.
    pub fn cx(&self, row: &Row) -> f64 {
        row.get(self.n_data_cols).as_f64().unwrap_or(0.0)
    }

    /// Placement center y of a layer row.
    pub fn cy(&self, row: &Row) -> f64 {
        row.get(self.n_data_cols + 1).as_f64().unwrap_or(0.0)
    }

    /// Bounding box of a layer row, canvas coordinates.
    pub fn bbox(&self, row: &Row) -> Rect {
        self.bbox_of(row)
    }

    /// [`LayerRowLayout::bbox`] of a [`Row`] or a cached block row.
    pub(crate) fn bbox_of<R: Columns + ?Sized>(&self, row: &R) -> Rect {
        let g = |i: usize| row.f64_at(self.n_data_cols + i).unwrap_or(0.0);
        Rect::new(g(2), g(3), g(4), g(5))
    }

    /// Stable tuple id of a layer row (-1 when absent).
    pub fn tuple_id(&self, row: &Row) -> i64 {
        row.get(self.n_data_cols + 6).as_i64().unwrap_or(-1)
    }

    /// Total row width.
    pub fn width(&self) -> usize {
        self.n_data_cols + Self::GEOMETRY_COLS
    }
}

/// How a layer's data is physically fetched. Every fetching store holds
/// its one fetch statement, prepared when the store is built at launch
/// ([`LayerStore::fetch_statement`]); [`crate::fetch`] executes it with a
/// fetch's parameters and never sees SQL text.
#[derive(Debug, Clone)]
pub enum LayerStore {
    /// Static layer: no data fetching.
    Static,
    /// Layer table with a spatial index over bounding boxes.
    Spatial {
        /// Materialized layer table.
        table: String,
        /// Row accessor layout of `table`.
        layout: LayerRowLayout,
        /// The rectangle fetch over `table`.
        fetch: Arc<Prepared>,
    },
    /// Separable skip path: query the raw table's spatial index directly,
    /// mapping canvas rectangles through the placement's affine inverses.
    SeparableRaw {
        /// The raw (source) table served directly.
        table: String,
        /// Row accessor layout of the synthesized layer rows.
        layout: LayerRowLayout,
        /// Canvas-x as an affine of the indexed x attribute.
        x_affine: Affine,
        /// Canvas-y as an affine of the indexed y attribute.
        y_affine: Affine,
        /// Position of the indexed x attribute in a raw (and layer) row.
        x_col: usize,
        /// Position of the indexed y attribute in a raw (and layer) row.
        y_col: usize,
        /// Constant object width in canvas units.
        obj_w: f64,
        /// Constant object height in canvas units.
        obj_h: f64,
        /// The rectangle fetch over the raw table, reserving the geometry
        /// tail [`crate::fetch_rect`] appends to every raw row.
        fetch: Arc<Prepared>,
    },
}

/// The statement fetching the rows of a spatially indexed table that
/// intersect a rectangle (`$1..$4`: min x, min y, max x, max y), for a
/// consumer that appends `tail` values to each row.
fn rect_fetch(table: &str, tail: usize) -> kyrix_storage::Result<Arc<Prepared>> {
    let sql = format!("SELECT * FROM {table} WHERE bbox && rect($1, $2, $3, $4)");
    Ok(Arc::new(Prepared::new(&sql)?.reserving(tail)))
}

impl LayerStore {
    /// Row accessor layout of this store (None for static layers).
    pub fn layout(&self) -> Option<LayerRowLayout> {
        match self {
            LayerStore::Static => None,
            LayerStore::Spatial { layout, .. } | LayerStore::SeparableRaw { layout, .. } => {
                Some(*layout)
            }
        }
    }

    /// The statement this store answers fetches with (None for static
    /// layers, which fetch nothing).
    pub fn fetch_statement(&self) -> Option<&Prepared> {
        match self {
            LayerStore::Static => None,
            LayerStore::Spatial { fetch, .. } | LayerStore::SeparableRaw { fetch, .. } => {
                Some(fetch)
            }
        }
    }
}

/// What precomputation did for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputeReport {
    /// Canvas id.
    pub canvas: String,
    /// Layer index within the canvas.
    pub layer: usize,
    /// Rows materialized (0 on the separable skip path).
    pub rows: usize,
    /// Wall-clock precomputation time.
    pub elapsed: Duration,
    /// True when the §3.2 separable path skipped materialization.
    pub skipped_separable: bool,
}

/// Sanitized physical table name for a layer.
fn layer_table_name(app: &str, canvas: &str, layer: usize) -> String {
    let clean = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    };
    format!("k_{}_{}_l{layer}", clean(app), clean(canvas))
}

/// Check the §3.2 separable fast path: placement separable, no derived
/// columns, transform is `SELECT * FROM raw`, and the raw table has a point
/// spatial index on exactly the placement columns.
pub(crate) fn separable_store(db: &Database, layer: &CompiledLayer) -> Option<LayerStore> {
    let placement = layer.placement.as_ref()?;
    let sep = placement.separability.as_ref()?;
    if !layer.transform.derived.is_empty() {
        return None;
    }
    let sql_text = layer.transform.query.as_deref()?;
    let stmt = sql::parse(sql_text).ok()?;
    let simple = stmt.items == vec![sql::SelectItem::Star]
        && stmt.join.is_none()
        && stmt.where_clause.is_none()
        && stmt.group_by.is_empty()
        && stmt.having.is_none()
        && stmt.order_by.is_empty()
        && stmt.limit.is_none()
        && stmt.offset.is_none();
    if !simple {
        return None;
    }
    let table = db.table(&stmt.from.table).ok()?;
    let has_matching_index = table.indexes().any(|i| {
        matches!(
            &i.kind,
            IndexKind::Spatial(SpatialCols::Point { x, y })
                if *x == sep.x_column && *y == sep.y_column
        )
    });
    if !has_matching_index {
        return None;
    }
    // constant object extent (checked by the separability analysis, but the
    // numeric values are needed here)
    let obj_w = placement.width.eval_f64(&[]).ok()?;
    let obj_h = placement.height.eval_f64(&[]).ok()?;
    Some(LayerStore::SeparableRaw {
        fetch: rect_fetch(&stmt.from.table, LayerRowLayout::GEOMETRY_COLS).ok()?,
        table: stmt.from.table.clone(),
        layout: LayerRowLayout {
            n_data_cols: layer.transform.columns.len(),
        },
        x_affine: sep.x_affine.clone(),
        y_affine: sep.y_affine.clone(),
        x_col: table.schema.index_of(&sep.x_column).ok()?,
        y_col: table.schema.index_of(&sep.y_column).ok()?,
        obj_w,
        obj_h,
    })
}

/// Create an index unless one with this name already exists; returns
/// whether this call created it.
fn ensure_index(db: &mut Database, table: &str, name: &str, kind: IndexKind) -> Result<bool> {
    let exists = db.table(table)?.indexes().any(|i| i.name == name);
    if !exists {
        db.create_index(table, name, kind)?;
    }
    Ok(!exists)
}

/// Materialize the layer table (data columns ++ geometry ++ tuple_id) if it
/// does not exist yet; returns (table name, layout, row count).
fn materialize_layer(
    db: &mut Database,
    layer: &CompiledLayer,
    app_name: &str,
) -> Result<(String, LayerRowLayout, usize)> {
    let table = layer_table_name(app_name, &layer.canvas_id, layer.layer_index);
    let layout = LayerRowLayout {
        n_data_cols: layer.transform.columns.len(),
    };
    if db.has_table(&table) {
        let n = db.table(&table)?.len();
        return Ok((table, layout, n));
    }
    let rows = layer.transform.run(db)?;

    // schema: base columns, derived columns (types inferred from the first
    // row, defaulting to FLOAT), then geometry + tuple_id
    let mut schema = Schema::empty();
    for c in layer.transform.base_schema.columns() {
        schema = schema.with(c.name.clone(), c.dtype);
    }
    let base_n = layer.transform.base_schema.len();
    for (i, (name, _)) in layer.transform.derived.iter().enumerate() {
        let dtype = rows
            .first()
            .and_then(|r| r.get(base_n + i).data_type())
            .unwrap_or(DataType::Float);
        schema = schema.with(name.clone(), dtype);
    }
    for g in ["cx", "cy", "minx", "miny", "maxx", "maxy"] {
        schema = schema.with(g, DataType::Float);
    }
    schema = schema.with("tuple_id", DataType::Int);

    db.create_table(&table, schema)?;
    for (tuple_id, row) in rows.into_iter().enumerate() {
        let (cx, cy, w, h) = layer.place(&row)?;
        let bbox = Rect::centered(cx, cy, w, h);
        let mut values = row.values;
        values.extend([
            Value::Float(cx),
            Value::Float(cy),
            Value::Float(bbox.min_x),
            Value::Float(bbox.min_y),
            Value::Float(bbox.max_x),
            Value::Float(bbox.max_y),
            Value::Int(tuple_id as i64),
        ]);
        db.insert(&table, Row::new(values))?;
    }
    let n = db.table(&table)?.len();
    Ok((table, layout, n))
}

/// Precompute one layer's store. The store does not depend on the plan
/// that serves the layer: a separable layer is served off its raw table,
/// any other is materialized with an R-tree over its boxes, and both answer
/// tiles and dynamic boxes.
pub fn precompute_layer(
    db: &mut Database,
    layer: &CompiledLayer,
    app_name: &str,
) -> Result<(LayerStore, PrecomputeReport)> {
    let start = Instant::now();
    let report = |rows, skipped_separable| PrecomputeReport {
        canvas: layer.canvas_id.clone(),
        layer: layer.layer_index,
        rows,
        elapsed: start.elapsed(),
        skipped_separable,
    };
    if layer.is_static {
        return Ok((LayerStore::Static, report(0, false)));
    }
    if let Some(store) = separable_store(db, layer) {
        return Ok((store, report(0, true)));
    }
    let (table, layout, rows) = materialize_layer(db, layer, app_name)?;
    let created = ensure_index(
        db,
        &table,
        "sp_bbox",
        IndexKind::Spatial(SpatialCols::Bbox {
            min_x: "minx".into(),
            min_y: "miny".into(),
            max_x: "maxx".into(),
            max_y: "maxy".into(),
        }),
    )?;
    if created {
        // the layer table sits in transform-output order; put it in the
        // order its fetches read it in (tuple ids live in the rows, so they
        // survive)
        db.cluster(&table, "sp_bbox")?;
    }
    let store = LayerStore::Spatial {
        fetch: rect_fetch(&table, 0)?,
        table,
        layout,
    };
    Ok((store, report(rows, false)))
}

impl From<kyrix_expr::ExprError> for ServerError {
    fn from(e: kyrix_expr::ExprError) -> Self {
        ServerError::Core(kyrix_core::CoreError::Expr(e))
    }
}
