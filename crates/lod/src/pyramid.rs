//! Pyramid materialization: run the clustering level by level and write
//! each level as a spatially-indexed table the existing `precompute`
//! machinery serves unmodified.

use crate::aggregate::{Cluster, Sums};
use crate::cluster::{aggregate_into_cells, merge_cell_maps, retain_with_spacing};
use crate::config::LodConfig;
use crate::error::{LodError, Result};
use crate::grid::{cell_of, Cell};
use crate::state::{LevelState, MaintainState, MemoryReport};
use kyrix_parallel::{Partitioner, QueryRouter};
use kyrix_storage::fxhash::FxHashMap;
use kyrix_storage::rtree::RTree;
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use std::time::{Duration, Instant};

/// What one level of a built pyramid looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelInfo {
    /// 0 = raw data; higher = coarser.
    pub level: usize,
    /// Physical table serving this level.
    pub table: String,
    /// Marks (raw points or clusters) on this level.
    pub rows: usize,
    /// Canvas width of this level.
    pub width: f64,
    /// Canvas height of this level.
    pub height: f64,
}

/// A built pyramid: the config it was built from plus per-level metadata,
/// finest (raw) level first.
#[derive(Debug, Clone)]
pub struct LodPyramid {
    /// The configuration the pyramid was built from.
    pub config: LodConfig,
    /// Per-level metadata, raw level first.
    pub levels: Vec<LevelInfo>,
    /// Wall-clock spent clustering and writing level tables.
    pub build_time: Duration,
    /// Incremental-maintenance state (one record per candidate cell and
    /// level, plus the id → cell map), coordinator-side even when the
    /// level tables live on shards. Every build captures it; `None` only after a
    /// maintenance batch failed mid-apply — see
    /// [`LodPyramid::insert_points_sharded`].
    pub(crate) maintenance: Option<MaintainState>,
    /// Routing of the raw table and every level table over serving
    /// shards. Present only after [`build_pyramid_on_shards`]; maintenance
    /// routes each row through it, and without it everything lives in the
    /// one database [`build_pyramid`] wrote.
    pub(crate) sharding: Option<QueryRouter>,
    /// Telemetry registry maintenance batches record `pyramid.repair`
    /// spans and the `lod.*` counters into (attached with
    /// [`LodPyramid::set_observability`]).
    pub(crate) observability: Option<std::sync::Arc<kyrix_obs::Registry>>,
}

/// Equality over what was *built* (config + levels), not how long the
/// build took — so "two builds produced the same pyramid" is expressible
/// as `p1 == p2`.
impl PartialEq for LodPyramid {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.levels == other.levels
    }
}

impl LodPyramid {
    /// Number of canvases (raw level included).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Attach a telemetry registry: every later maintenance batch
    /// ([`LodPyramid::insert_points_sharded`] /
    /// [`LodPyramid::delete_points_sharded`])
    /// records its in-place level repair as a `pyramid.repair` span
    /// there, and adds to the counters `lod.retention_cells` (candidates
    /// retention evaluated) and `lod.rows_in_place` (level rows
    /// overwritten in their slot) — typically the serving server's own
    /// registry, so pyramid repairs land in the same trace as the
    /// mutation that triggered them.
    pub fn set_observability(&mut self, reg: std::sync::Arc<kyrix_obs::Registry>) {
        self.observability = Some(reg);
    }

    /// Metadata of one level (0 = raw).
    pub fn level(&self, k: usize) -> Option<&LevelInfo> {
        self.levels.get(k)
    }

    /// Whether this pyramid carries the state incremental maintenance
    /// needs: true from every build until a maintenance batch fails
    /// mid-apply (then rebuild to recover).
    pub fn can_maintain(&self) -> bool {
        self.maintenance.is_some()
    }

    /// The statement router of a shard-resident pyramid: the raw table
    /// under the build partitioner plus one per-level `(cx, cy)` grid.
    /// Hand a clone to `kyrix-server`'s sharded launch so viewport
    /// queries over any level probe only the shards whose cells
    /// intersect. `None` for pyramids whose tables live in one database.
    pub fn shard_router(&self) -> Option<&QueryRouter> {
        self.sharding.as_ref()
    }

    /// The maintenance state's bytes by owner — per level the candidate
    /// cells, retained marks, boxed outputs, hash-table buckets and bytes,
    /// plus the id → cell map — computed from the sizes of what is held.
    /// `None` once a failed batch dropped the state
    /// ([`LodPyramid::can_maintain`]). The level tables' own bytes are
    /// the databases' to report (`Database::heap_bytes`).
    pub fn memory_report(&self) -> Option<MemoryReport> {
        self.maintenance.as_ref().map(MaintainState::memory)
    }

    /// Whether two pyramids carry the same maintenance *state* — per
    /// level and cell the candidate, fate and boxed output, the counters,
    /// the id → cell map — and the same per-level row counts. `Err` names
    /// the first difference. The property suite holds a maintained
    /// pyramid against a scratch build with it after every batch: a stale
    /// output or a fate pointing at the wrong neighbour shows here at
    /// once, not batches later in a level table.
    #[doc(hidden)]
    pub fn maintenance_eq(&self, other: &LodPyramid) -> std::result::Result<(), String> {
        if self.levels != other.levels {
            return Err(format!(
                "level metadata: {:?} against {:?}",
                self.levels, other.levels
            ));
        }
        let (a, b) = match (&self.maintenance, &other.maintenance) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => return Ok(()),
            _ => return Err("one pyramid carries no maintenance state".into()),
        };
        // equal level metadata: the same number of clustered levels
        for ((x, y), level) in a.levels.iter().zip(&b.levels).zip(1..) {
            if let Some(diff) = x.first_difference(y) {
                return Err(format!("level {level}: {diff}"));
            }
        }
        if a.id_cells != b.id_cells {
            return Err("id → cell maps differ".into());
        }
        Ok(())
    }
}

/// Column indexes of the configured raw columns.
pub(crate) struct RawLayout {
    pub(crate) id: usize,
    pub(crate) x: usize,
    pub(crate) y: usize,
    pub(crate) measures: Vec<usize>,
}

pub(crate) fn raw_layout(db: &Database, cfg: &LodConfig) -> Result<RawLayout> {
    let schema = &db.table(&cfg.table)?.schema;
    let find = |col: &str| -> Result<usize> {
        schema
            .index_of(col)
            .map_err(|_| LodError::Schema(format!("table `{}` has no column `{col}`", cfg.table)))
    };
    Ok(RawLayout {
        id: find(&cfg.id_column)?,
        x: find(&cfg.x_column)?,
        y: find(&cfg.y_column)?,
        measures: cfg
            .measures
            .iter()
            .map(|m| find(m))
            .collect::<Result<_>>()?,
    })
}

/// One raw row as a singleton cluster, its measures gathered straight
/// into the cluster's sums; `None` if an id, position or measure column
/// does not hold a number.
pub(crate) fn raw_singleton(row: &Row, layout: &RawLayout) -> Option<Cluster> {
    let f = |i: usize| row.get(i).as_f64().ok();
    let sums: Sums = layout
        .measures
        .iter()
        .map(|&i| f(i))
        .collect::<Option<_>>()?;
    let id = row.get(layout.id).as_i64().ok()?;
    Some(Cluster::singleton(id, f(layout.x)?, f(layout.y)?, sums))
}

/// Schema of a clustered level table.
fn level_schema(cfg: &LodConfig) -> Schema {
    let mut schema = Schema::empty()
        .with("id", DataType::Int)
        .with("cx", DataType::Float)
        .with("cy", DataType::Float)
        .with("cnt", DataType::Int);
    for m in &cfg.measures {
        schema = schema.with(format!("sum_{m}"), DataType::Float);
        schema = schema.with(format!("avg_{m}"), DataType::Float);
    }
    for g in ["minx", "miny", "maxx", "maxy"] {
        schema = schema.with(g, DataType::Float);
    }
    schema
}

/// One physical row of a clustered level table for a cluster.
pub(crate) fn level_row(scale: f64, c: &Cluster) -> Row {
    let mut values = Vec::with_capacity(8 + 2 * c.sums.len());
    values.extend([
        Value::Int(c.rep_id),
        Value::Float(c.rep_x / scale),
        Value::Float(c.rep_y / scale),
        Value::Int(c.count as i64),
    ]);
    for (sum, avg) in c.sums.iter().zip(c.avgs()) {
        values.push(Value::Float(*sum));
        values.push(Value::Float(avg));
    }
    let b = &c.bbox;
    values.extend([
        Value::Float(b.min_x),
        Value::Float(b.min_y),
        Value::Float(b.max_x),
        Value::Float(b.max_y),
    ]);
    Row::new(values)
}

/// Phase 1 over one database's raw table (local to a shard): one scan
/// folds every row into its level-1 cell's record, in scan order, and
/// records each point id's level-1 cell in `ids` — the secondary index
/// maintenance keeps, shared by every database of the build, so an id an
/// earlier database already holds is a duplicate. No point outlives its
/// own fold.
fn local_cells(
    db: &Database,
    cfg: &LodConfig,
    layout: &RawLayout,
    ids: &mut FxHashMap<i64, Cell>,
) -> Result<LevelState> {
    let table = db.table(&cfg.table)?;
    let scale1 = cfg.level_scale(1);
    // the one table that grows as it fills: counting level 1's cells first
    // would take a second scan, and its last doubling happens before the
    // coarser levels exist — far below the build's end state
    let mut cells = LevelState::default();
    let mut bad: Option<String> = None;
    table.scan(|_, row| {
        let Some(p) = raw_singleton(&row, layout) else {
            bad = Some(format!("non-numeric row in `{}`", cfg.table));
            return;
        };
        let cell = cell_of(p.rep_x / scale1, p.rep_y / scale1, cfg.spacing);
        if ids.insert(p.rep_id, cell).is_some() {
            bad = Some(format!(
                "table `{}` has duplicate values in id column `{}` (id {})",
                cfg.table, cfg.id_column, p.rep_id
            ));
        }
        cells.fold_candidate(cell, &p);
    })?;
    match bad {
        Some(msg) => Err(LodError::Schema(msg)),
        None => Ok(cells),
    }
}

/// The order a spatial index over points `at` will hold them in: its leaf
/// order, which is the order every rectangle probe returns rows in. Read
/// off a throwaway index of the positions alone — STR packing depends only
/// on the positions, so the table's own index, bulk-loaded later from the
/// rows, comes out the same (two marks with an equal coordinate may swap).
fn leaf_order(at: impl Iterator<Item = (f64, f64)>) -> Vec<usize> {
    // NaN meets no rectangle; such a mark may sit anywhere, but must stay
    let finite = |v: f64| if v.is_nan() { 0.0 } else { v };
    let tree = RTree::bulk_load(
        at.enumerate()
            .map(|(i, (x, y))| (Rect::point(finite(x), finite(y)), i))
            .collect(),
    );
    tree.query(&tree.bounds())
}

/// Write one clustered level as a table with a point spatial index on
/// `(cx, cy)` — the shape the server's separable fast path serves
/// directly. The table and its index exist on every database of `dbs`
/// (empty where the level has no local marks); with a `router`, each row
/// goes to the shard whose grid cell owns its position, without one
/// `dbs` is the single database that holds everything.
///
/// `clusters` arrive in rep-id order — the next level's fold order — but
/// each database's rows are *written* in the leaf order of the index it
/// is about to build ([`leaf_order`]), so a tile's rows sit on adjacent
/// heap pages. The table is born in the order `Table::cluster` would give
/// it instead of being clustered afterwards, which would hold two copies
/// of the level's heap while it ran.
fn write_level(
    dbs: &mut [Database],
    router: Option<&QueryRouter>,
    cfg: &LodConfig,
    level: usize,
    clusters: &[&Cluster],
) -> Result<()> {
    let table = cfg.level_table(level);
    let schema = level_schema(cfg);
    for db in dbs.iter_mut() {
        if db.has_table(&table) {
            db.drop_table(&table)?;
        }
        db.create_table(&table, schema.clone())?;
    }
    let part = router
        .map(|r| {
            r.partitioner(&table).ok_or_else(|| {
                LodError::Config(format!("the shard router has no grid for `{table}`"))
            })
        })
        .transpose()?;
    let scale = cfg.level_scale(level);
    let at = |c: &Cluster| (c.rep_x / scale, c.rep_y / scale);
    // each database's marks, still in rep-id order
    let mut local: Vec<Vec<&Cluster>> = vec![Vec::new(); dbs.len()];
    for &c in clusters {
        let (x, y) = at(c);
        let owner = match part {
            // a point lies in exactly one grid cell
            Some(p) => p
                .route_rect(&Rect::point(x, y), dbs.len())
                .and_then(|owners| owners.first().copied())
                .ok_or_else(|| {
                    LodError::Config(format!("({x}, {y}) routes to no shard of `{table}`"))
                })?,
            None => 0,
        };
        local[owner].push(c);
    }
    for (db, marks) in dbs.iter_mut().zip(local) {
        let level_table = db.table_mut(&table)?;
        for i in leaf_order(marks.iter().map(|c| at(c))) {
            level_table.insert(level_row(scale, marks[i]))?;
        }
    }
    // the orders are gone before the index builds allocate
    for db in dbs.iter_mut() {
        db.create_index(
            &table,
            format!("{table}_cxcy"),
            IndexKind::Spatial(SpatialCols::Point {
                x: "cx".into(),
                y: "cy".into(),
            }),
        )?;
    }
    Ok(())
}

/// The level loop every build runs: fold every database's raw rows into
/// level-1 cells (phase 1: one database after another on the calling
/// thread, into one id map sized once for every raw row), merge the
/// per-database cell maps (in database order — the canonical float
/// accumulation order),
/// cluster levels `1..=cfg.levels` keeping each level's records as
/// maintenance state, and write every level table into `dbs` (routed by
/// `sharding` when the pyramid lives on shards). A level's outputs are
/// only ever borrowed — sorted for the table and for the next level's
/// fold, copied into rows and coarser candidates, never cloned as a set.
fn build_levels(
    dbs: &mut [Database],
    sharding: Option<QueryRouter>,
    cfg: &LodConfig,
    start: Instant,
) -> Result<LodPyramid> {
    let layout = raw_layout(&dbs[0], cfg)?;
    let mut raw_rows = 0;
    for db in dbs.iter() {
        raw_rows += db.table(&cfg.table)?.len();
    }
    let mut id_cells = FxHashMap::with_capacity_and_hasher(raw_rows, Default::default());
    let maps = (dbs.iter())
        .map(|db| local_cells(db, cfg, &layout, &mut id_cells))
        .collect::<Result<Vec<_>>>()?;
    let mut levels = vec![LevelInfo {
        level: 0,
        table: cfg.level_table(0),
        rows: raw_rows,
        width: cfg.width,
        height: cfg.height,
    }];
    let mut states: Vec<LevelState> = Vec::with_capacity(cfg.levels);
    let mut state = merge_cell_maps(maps);
    for k in 1..=cfg.levels {
        retain_with_spacing(&mut state, cfg.level_scale(k), cfg.spacing);
        let sorted = state.sorted_outputs();
        write_level(dbs, sharding.as_ref(), cfg, k, &sorted)?;
        let (w, h) = cfg.level_size(k);
        levels.push(LevelInfo {
            level: k,
            table: cfg.level_table(k),
            rows: sorted.len(),
            width: w,
            height: h,
        });
        // the next level folds these outputs, in this order
        let coarser = if k < cfg.levels {
            aggregate_into_cells(&sorted, cfg.level_scale(k + 1), cfg.spacing)
        } else {
            LevelState::default()
        };
        drop(sorted);
        states.push(std::mem::replace(&mut state, coarser));
    }
    Ok(LodPyramid {
        config: cfg.clone(),
        levels,
        build_time: start.elapsed(),
        maintenance: Some(MaintainState {
            levels: states,
            id_cells,
        }),
        sharding,
        observability: None,
    })
}

/// Build the full pyramid on one node: cluster the raw table level by
/// level and materialize each level as a spatially-indexed table in `db`.
///
/// Level 1 folds the raw rows in the raw table's scan order, and
/// maintenance later re-folds cells in that same order. A raw table that
/// is to be physically clustered (`Database::cluster`, for cheap cold
/// fetches) must therefore be clustered *before* this call — its loader
/// does it right after indexing — and never between build and
/// maintenance.
pub fn build_pyramid(db: &mut Database, cfg: &LodConfig) -> Result<LodPyramid> {
    cfg.validate()?;
    let start = Instant::now();
    build_levels(std::slice::from_mut(db), None, cfg, start)
}

/// The statement router of a shard-resident pyramid: the raw table under
/// the caller's grid plus one grid per level with the extent shrunk by
/// the level scale and keyed on the level tables' `(cx, cy)` columns.
/// Because `(x / scale) / (width / scale) = x / width`, the grid cell of
/// a cluster's level coordinates equals the cell of its representative's
/// raw coordinates — every level row lives on the shard that owns its
/// representative point.
fn sharded_router(partitioner: &Partitioner, cfg: &LodConfig, n: usize) -> Result<QueryRouter> {
    let Partitioner::SpatialGrid {
        x_column,
        y_column,
        cols,
        rows,
        width,
        height,
    } = partitioner
    else {
        return Err(LodError::Config(
            "building a pyramid on shards needs a SpatialGrid partitioner over the raw \
             table (hash/range layouts cannot route viewport rectangles)"
                .into(),
        ));
    };
    if *x_column != cfg.x_column || *y_column != cfg.y_column {
        return Err(LodError::Config(format!(
            "partitioner grid keys ({x_column}, {y_column}) must be the configured raw \
             position columns ({}, {})",
            cfg.x_column, cfg.y_column
        )));
    }
    let mut router = QueryRouter::new(n)?;
    router.register(cfg.table.clone(), partitioner.clone())?;
    for k in 1..=cfg.levels {
        let s = cfg.level_scale(k);
        router.register(
            cfg.level_table(k),
            Partitioner::SpatialGrid {
                x_column: "cx".into(),
                y_column: "cy".into(),
                cols: *cols,
                rows: *rows,
                width: *width / s,
                height: *height / s,
            },
        )?;
    }
    Ok(router)
}

/// Build the pyramid *and its level tables* directly on serving shards:
/// every shard aggregates its local raw points into level-1 grid cells,
/// one shard after another on the calling thread, the coordinator merges
/// cells split across shard boundaries and runs the same level loop as
/// [`build_pyramid`], and each level row is written to the shard whose
/// grid cell owns its `(cx, cy)` position — the layout `kyrix-server`'s
/// sharded backend serves with per-shard R-tree probes. (A thread per
/// shard would allocate its shard's cells in an allocator arena of its
/// own, where the memory they free later stays resident and unused.)
///
/// The returned pyramid carries a router ([`LodPyramid::shard_router`])
/// over the raw table and every level table; mutate it in place with
/// [`LodPyramid::insert_points_sharded`] /
/// [`LodPyramid::delete_points_sharded`].
///
/// `partitioner` must be a [`Partitioner::SpatialGrid`] over the
/// configured raw x/y columns whose natural shard count is
/// `shards.len()`. Level-table contents are identical to a single-node
/// [`build_pyramid`] over the union of the shards: cell aggregation is
/// merge-order independent — exactly so for counts, bounding boxes and
/// representatives; up to floating-point sum association for measure
/// sums, which is exact for integer-valued measures.
pub fn build_pyramid_on_shards(
    shards: &mut [Database],
    partitioner: &Partitioner,
    cfg: &LodConfig,
) -> Result<LodPyramid> {
    cfg.validate()?;
    let start = Instant::now();
    let router = sharded_router(partitioner, cfg, shards.len())?;
    build_levels(shards, Some(router), cfg, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyrix_parallel::Partitioner;

    fn raw_schema() -> Schema {
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("m", DataType::Float)
    }

    fn grid_rows(n: i64) -> Vec<Row> {
        // a 32-wide integer lattice with integer-valued measures
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Float((i % 32) as f64 * 8.0),
                    Value::Float((i / 32) as f64 * 8.0),
                    Value::Float((i % 5) as f64),
                ])
            })
            .collect()
    }

    fn cfg() -> LodConfig {
        LodConfig::new("pts", 256.0, 256.0, 2)
            .with_measure("m")
            .with_spacing(12.0)
    }

    #[test]
    fn pyramid_conserves_count_and_sums() {
        let mut db = Database::new();
        db.create_table("pts", raw_schema()).unwrap();
        for r in grid_rows(1024) {
            db.insert("pts", r).unwrap();
        }
        let p = build_pyramid(&mut db, &cfg()).unwrap();
        assert_eq!(p.depth(), 3);
        assert_eq!(p.levels[0].rows, 1024);
        assert!(p.levels[1].rows < 1024);
        assert!(p.levels[2].rows <= p.levels[1].rows);
        let raw_sum: f64 = (0..1024).map(|i| (i % 5) as f64).sum();
        for k in 1..=2 {
            let r = db
                .query(
                    &format!("SELECT SUM(cnt), SUM(sum_m) FROM {}", p.levels[k].table),
                    &[],
                )
                .unwrap();
            assert_eq!(r.rows[0].get(0).as_i64().unwrap(), 1024, "level {k} count");
            assert_eq!(r.rows[0].get(1).as_f64().unwrap(), raw_sum, "level {k} sum");
        }
    }

    fn grid_partitioner() -> Partitioner {
        Partitioner::SpatialGrid {
            x_column: "x".into(),
            y_column: "y".into(),
            cols: 2,
            rows: 2,
            width: 256.0,
            height: 256.0,
        }
    }

    /// Four shard databases holding `rows` routed by `part`, raw spatial
    /// index included.
    fn shard_set(rows: Vec<Row>, part: &Partitioner) -> Vec<Database> {
        let schema = raw_schema();
        let mut shards: Vec<Database> = (0..4)
            .map(|_| {
                let mut db = Database::new();
                db.create_table("pts", schema.clone()).unwrap();
                db
            })
            .collect();
        for r in rows {
            let s = part.route(&schema, &r, shards.len()).unwrap();
            shards[s].insert("pts", r).unwrap();
        }
        for db in &mut shards {
            db.create_index(
                "pts",
                "pts_xy",
                IndexKind::Spatial(SpatialCols::Point {
                    x: "x".into(),
                    y: "y".into(),
                }),
            )
            .unwrap();
        }
        shards
    }

    #[test]
    fn on_shards_build_matches_single_node() {
        let rows = grid_rows(1024);
        let mut single = Database::new();
        single.create_table("pts", raw_schema()).unwrap();
        for r in rows.clone() {
            single.insert("pts", r).unwrap();
        }
        let p1 = build_pyramid(&mut single, &cfg()).unwrap();

        let part = grid_partitioner();
        let mut shards = shard_set(rows, &part);
        let p2 = build_pyramid_on_shards(&mut shards, &part, &cfg()).unwrap();

        assert_eq!(p1.levels, p2.levels);
        assert!(p2.can_maintain(), "shard-resident pyramids stay mutable");
        let router = p2.shard_router().expect("router captured");
        assert_eq!(router.shard_count(), 4);

        for k in 1..=2 {
            let q = format!("SELECT * FROM {} ORDER BY id", cfg().level_table(k));
            let want = single.query(&q, &[]).unwrap().rows;
            let mut got: Vec<Row> = shards
                .iter()
                .flat_map(|s| s.query(&q, &[]).unwrap().rows.clone())
                .collect();
            got.sort_unstable_by_key(|r| r.get(0).as_i64().unwrap());
            assert_eq!(want, got, "level {k} union differs");

            // every level row lives on the shard its (cx, cy) routes to,
            // so serving-side rect routing finds it
            let table = cfg().level_table(k);
            for (i, shard) in shards.iter().enumerate() {
                for row in shard
                    .query(&format!("SELECT * FROM {table}"), &[])
                    .unwrap()
                    .rows
                {
                    let (cx, cy) = (row.get(1).as_f64().unwrap(), row.get(2).as_f64().unwrap());
                    let owners = router
                        .route_rect(&table, &kyrix_storage::Rect::new(cx, cy, cx, cy))
                        .unwrap();
                    assert_eq!(owners, vec![i], "level {k} row on the wrong shard");
                }
            }
        }
    }

    #[test]
    fn on_shards_build_rejects_unroutable_layouts() {
        let part = Partitioner::Hash {
            column: "id".into(),
        };
        let mut shards: Vec<Database> = (0..4)
            .map(|_| {
                let mut db = Database::new();
                db.create_table("pts", raw_schema()).unwrap();
                db
            })
            .collect();
        assert!(matches!(
            build_pyramid_on_shards(&mut shards, &part, &cfg()),
            Err(LodError::Config(_))
        ));
        // grid keys must be the configured raw position columns
        let part = Partitioner::SpatialGrid {
            x_column: "lon".into(),
            y_column: "lat".into(),
            cols: 2,
            rows: 2,
            width: 256.0,
            height: 256.0,
        };
        assert!(matches!(
            build_pyramid_on_shards(&mut shards, &part, &cfg()),
            Err(LodError::Config(_))
        ));
    }

    /// A schema error that names the configured id column.
    fn assert_duplicate_id(built: Result<LodPyramid>) {
        match built {
            Err(LodError::Schema(m)) => assert!(m.contains("id column `id`"), "{m}"),
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_id_in_one_table_is_a_schema_error() {
        let mut rows = grid_rows(1024);
        rows[1].values[0] = Value::Int(0);
        let mut db = Database::new();
        db.create_table("pts", raw_schema()).unwrap();
        for r in rows {
            db.insert("pts", r).unwrap();
        }
        assert_duplicate_id(build_pyramid(&mut db, &cfg()));
    }

    #[test]
    fn an_id_repeated_across_shards_is_a_schema_error() {
        let mut rows = grid_rows(1024);
        // (0, 0) lies on shard 0 and (248, 248) on shard 3
        rows[1023].values[0] = Value::Int(0);
        let part = grid_partitioner();
        let mut shards = shard_set(rows, &part);
        assert_duplicate_id(build_pyramid_on_shards(&mut shards, &part, &cfg()));
    }

    #[test]
    fn missing_column_is_a_schema_error() {
        let mut db = Database::new();
        db.create_table("pts", raw_schema()).unwrap();
        let bad = LodConfig::new("pts", 256.0, 256.0, 1).with_measure("nope");
        assert!(matches!(
            build_pyramid(&mut db, &bad),
            Err(LodError::Schema(_))
        ));
    }
}
