//! Incremental pyramid maintenance: mutate the raw table without a full
//! rebuild.
//!
//! The from-scratch build ([`crate::build_pyramid`]) is a two-phase
//! pipeline per level — cell aggregation (an associative fold over the
//! finer level) followed by greedy spacing retention. Both phases
//! localize:
//!
//! * **Cell aggregation** is a fold per grid cell, so an insert merges
//!   into exactly one cell and a delete dirties exactly one cell (which is
//!   then re-aggregated from the raw rows still inside it, found through
//!   the raw table's spatial index — never a full scan).
//! * **Greedy retention** decides each candidate cell from the retained
//!   marks in its 3×3 cell neighborhood only, so a dirty cell's decision
//!   can be recomputed *locally* — provided every candidate whose decision
//!   could transitively change is recomputed with it. The repair pass's
//!   expansion loop grows the repaired region exactly along those
//!   dependency chains (a retained-membership flip adds the flipped cell's
//!   neighbors) until a fixed point, which is what makes the repaired
//!   level tables **bit-identical** to a from-scratch rebuild rather than
//!   merely spacing-valid. The region is kept as 8-connected components:
//!   no cell of one reads a cell of another, so each repairs against its
//!   own boundary and only a component that grew runs again. A repair
//!   that would engulf most of a level falls back to re-running full
//!   retention from the maintained cell map (still exact, still cheaper
//!   than re-scanning raw data).
//!
//! Changed retained outputs propagate upward: they dirty the cells they
//! map into on the next level, that level re-aggregates those cells from
//! the level below and repairs, and so on. Level tables are patched in
//! place, leaving the untouched rows untouched: a row that keeps its
//! representative id and position is overwritten in its slot (no index
//! write), any other changed row is a delete + insert with the spatial
//! index maintained incrementally.
//!
//! Exactness caveat (the same as the sharded build's): counts, bounding
//! boxes and representative elections are order-independent folds and
//! match a rebuild bitwise; floating-point measure *sums* match bitwise
//! whenever measure values are integer-valued (as `zipf_galaxy` emits),
//! and up to float association otherwise.

use crate::aggregate::Cluster;
use crate::cluster::{by_importance, retain_with_spacing};
use crate::config::LodConfig;
use crate::error::{LodError, Result};
use crate::grid::{cell_of, Cell, SpacingGrid};
use crate::pyramid::{level_row, raw_layout, raw_singleton, LodPyramid, RawLayout};
use crate::state::{Fate, LevelState, MaintainState};
use kyrix_parallel::{Partitioner, QueryRouter};
use kyrix_storage::fxhash::{FxHashMap, FxHashSet};
use kyrix_storage::{Database, RecordId, Rect, Row, Value};
use std::borrow::Cow;

/// One raw point to insert: the id, position and measure values of a new
/// row of the pyramid's raw table (measures in [`LodConfig::measures`]
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct RawPoint {
    /// Value for the id column (must be unused in the raw table).
    pub id: i64,
    /// Raw canvas-x position.
    pub x: f64,
    /// Raw canvas-y position.
    pub y: f64,
    /// One value per configured measure column.
    pub measures: Vec<f64>,
}

impl RawPoint {
    /// A point with the given id, position and measures.
    pub fn new(id: i64, x: f64, y: f64, measures: &[f64]) -> Self {
        RawPoint {
            id,
            x,
            y,
            measures: measures.to_vec(),
        }
    }
}

/// Raw row identifier: the value of the configured id column.
pub type TupleId = i64;

/// What one maintenance pass touched on one level (level 0 = raw table).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMaintenance {
    /// Level number (0 = raw).
    pub level: usize,
    /// Physical table of the level.
    pub table: String,
    /// Rectangles, in this level's canvas coordinates, covering every
    /// changed row — the exact regions a serving layer must invalidate.
    pub dirty_rects: Vec<Rect>,
    /// Table rows deleted plus inserted by the pass; a row overwritten in
    /// place counts as both.
    pub rows_changed: usize,
    /// Changed rows written over their old slot — same representative id
    /// and position, so no index entry moved (0 on the raw level).
    pub rows_in_place: usize,
    /// Candidate cells the repair pass re-examined (0 on the raw level).
    pub repair_cells: usize,
    /// Candidate cells greedy retention evaluated, summed over every run
    /// of the repair: one per component pass, or every candidate of the
    /// level on a fallback (0 on the raw level).
    pub retention_cells: usize,
    /// Whether the repair abandoned locality and re-ran full retention
    /// from the maintained cell map (exactness is unaffected).
    pub fallback: bool,
}

/// Report of one [`LodPyramid::insert_points`] / [`LodPyramid::delete_points`]
/// batch: per-level dirty regions and repair statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceReport {
    /// Raw rows inserted by the batch.
    pub inserted: usize,
    /// Raw rows deleted by the batch.
    pub deleted: usize,
    /// One entry per level, raw level first.
    pub levels: Vec<LevelMaintenance>,
}

impl MaintenanceReport {
    /// Every `(table, dirty rect)` pair of the batch, across all levels —
    /// the shape cache-invalidation entry points consume.
    pub fn dirty_regions(&self) -> impl Iterator<Item = (&str, Rect)> + '_ {
        self.levels
            .iter()
            .flat_map(|l| l.dirty_rects.iter().map(move |r| (l.table.as_str(), *r)))
    }

    /// Total level-table rows rewritten (clustered levels only).
    pub fn rows_changed(&self) -> usize {
        self.levels
            .iter()
            .filter(|l| l.level > 0)
            .map(|l| l.rows_changed)
            .sum()
    }
}

/// Output delta of one level's repair: `(cell, old output, new output)`
/// for every cell whose retained output appeared, vanished or changed.
type OutputDelta = Vec<(Cell, Option<Cluster>, Option<Cluster>)>;

struct RepairOutcome {
    changed: OutputDelta,
    region_cells: usize,
    retention_cells: usize,
    fallback: bool,
}

/// When the repaired region would cover more than this fraction of a
/// level's candidate cells, re-running full retention from the cell map is
/// cheaper than iterating regional passes.
const FALLBACK_NUM: usize = 1;
const FALLBACK_DEN: usize = 2;

/// Where the physical rows of one maintenance pass land: the databases a
/// pyramid was built over — one, or a shard set with its router. The
/// repair logic above is the same for any count; the router only decides
/// *which* database a raw point or level row lives in, and without one
/// everything lives in database 0. Raw deltas route by `(x, y)` through
/// the raw table's grid, level rows by `(cx, cy)` through the per-level
/// grids — the same routing the sharded serving backend reads with, so a
/// repair always patches the shard a fetch would probe.
struct ShardedTarget<'a> {
    shards: &'a mut [Database],
    router: Option<&'a QueryRouter>,
}

impl ShardedTarget<'_> {
    /// How `table` is spread over the shards; `None` without a router,
    /// when every table lives whole in database 0.
    fn partitioner(&self, table: &str) -> Result<Option<&Partitioner>> {
        let Some(router) = self.router else {
            return Ok(None);
        };
        match router.partitioner(table) {
            Some(part) => Ok(Some(part)),
            None => Err(LodError::Maintenance(format!(
                "no partitioner registered for `{table}`"
            ))),
        }
    }

    /// The one shard whose grid cell owns `row`'s position.
    fn route_row(&self, table: &str, row: &Row) -> Result<usize> {
        let Some(part) = self.partitioner(table)? else {
            return Ok(0);
        };
        let schema = &self.shards[0].table(table)?.schema;
        Ok(part.route(schema, row, self.shards.len())?)
    }

    /// Shards whose grid cells intersect `rect`, in ascending order —
    /// without a router the one database, which costs no allocation.
    fn targets(&self, table: &str, rect: &Rect) -> Result<Cow<'static, [usize]>> {
        let Some(part) = self.partitioner(table)? else {
            return Ok(Cow::Borrowed(&[0]));
        };
        match part.route_rect(rect, self.shards.len()) {
            Some(shards) => Ok(Cow::Owned(shards)),
            None => Err(LodError::Maintenance(format!(
                "partitioner for `{table}` cannot route rectangles"
            ))),
        }
    }

    /// Insert one raw point's row into the shard owning its position.
    fn insert_raw(
        &mut self,
        cfg: &LodConfig,
        layout: &RawLayout,
        schema_len: usize,
        p: &RawPoint,
    ) -> Result<()> {
        let row = raw_row(layout, schema_len, p);
        let shard = self.route_row(&cfg.table, &row)?;
        self.shards[shard].insert(&cfg.table, row)?;
        Ok(())
    }

    /// Delete the given ids from one level-1 cell of the raw table.
    fn delete_in_cell(
        &mut self,
        cfg: &LodConfig,
        layout: &RawLayout,
        cell: Cell,
        ids: &FxHashSet<i64>,
    ) -> Result<()> {
        // the cell may straddle shard boundaries: collect victims on every
        // intersecting shard, verify the total, then delete
        let rect = raw_cell_rect(cfg, cell);
        let mut victims: Vec<(usize, Vec<RecordId>)> = Vec::new();
        let mut found = 0usize;
        for &i in self.targets(&cfg.table, &rect)?.iter() {
            let rids = cell_victims(&self.shards[i], cfg, layout, &rect, ids)?;
            found += rids.len();
            victims.push((i, rids));
        }
        if found != ids.len() {
            return Err(LodError::Maintenance(format!(
                "cell ({}, {}) holds {found} of {} rows to delete: id index out of sync",
                cell.x,
                cell.y,
                ids.len()
            )));
        }
        for (i, rids) in victims {
            let table = self.shards[i].table_mut(&cfg.table)?;
            for rid in rids {
                table.delete_row(rid)?;
            }
        }
        Ok(())
    }

    /// Re-aggregate one level-1 cell from the raw rows still inside it.
    fn aggregate_cell(
        &self,
        cfg: &LodConfig,
        layout: &RawLayout,
        cell: Cell,
    ) -> Result<Option<Cluster>> {
        // per-shard partial folds merge in shard order — the fold order a
        // from-scratch build uses (`merge_cell_maps`)
        let rect = raw_cell_rect(cfg, cell);
        let mut acc: Option<Cluster> = None;
        for &i in self.targets(&cfg.table, &rect)?.iter() {
            if let Some(part) = aggregate_raw_cell(&self.shards[i], cfg, layout, cell)? {
                match &mut acc {
                    Some(agg) => agg.merge(&part),
                    None => acc = Some(part),
                }
            }
        }
        Ok(acc)
    }

    /// The database holding the level-table row of `out`, and that row's
    /// record id.
    fn find_level_row(&self, table: &str, out: &Cluster, scale: f64) -> Result<(usize, RecordId)> {
        // a degenerate point rect lies in exactly one grid cell — the
        // same cell `add_level_row` routed the insert to
        let (cx, cy) = (out.rep_x / scale, out.rep_y / scale);
        let targets = self.targets(table, &Rect::new(cx, cy, cx, cy))?;
        let shard = *targets.first().ok_or_else(|| {
            LodError::Maintenance(format!("({cx}, {cy}) routes to no shard of `{table}`"))
        })?;
        Ok((shard, level_row_id(&self.shards[shard], table, out, scale)?))
    }

    /// Delete one level-table row by representative id and position.
    fn remove_level_row(&mut self, table: &str, out: &Cluster, scale: f64) -> Result<()> {
        let (shard, rid) = self.find_level_row(table, out, scale)?;
        self.shards[shard].table_mut(table)?.delete_row(rid)?;
        Ok(())
    }

    /// Write `new`'s row over `old`'s in its slot ([`kyrix_storage::Table::overwrite`]);
    /// false, with nothing written, where the storage refuses.
    fn overwrite_level_row(
        &mut self,
        table: &str,
        old: &Cluster,
        new: &Cluster,
        scale: f64,
    ) -> Result<bool> {
        let (shard, rid) = self.find_level_row(table, old, scale)?;
        let row = level_row(scale, new);
        Ok(self.shards[shard].table_mut(table)?.overwrite(rid, &row)?)
    }

    /// Insert the level-table row of one cluster.
    fn add_level_row(&mut self, table: &str, scale: f64, c: &Cluster) -> Result<()> {
        let row = level_row(scale, c);
        let shard = self.route_row(table, &row)?;
        self.shards[shard].insert(table, row)?;
        Ok(())
    }
}

impl LodPyramid {
    /// [`LodPyramid::insert_points_sharded`] over the one database a
    /// [`crate::build_pyramid`] pyramid lives in.
    pub fn insert_points(
        &mut self,
        db: &mut Database,
        points: &[RawPoint],
    ) -> Result<MaintenanceReport> {
        self.insert_points_sharded(std::slice::from_mut(db), points)
    }

    /// [`LodPyramid::delete_points_sharded`] over the one database a
    /// [`crate::build_pyramid`] pyramid lives in.
    pub fn delete_points(
        &mut self,
        db: &mut Database,
        ids: &[TupleId],
    ) -> Result<MaintenanceReport> {
        self.delete_points_sharded(std::slice::from_mut(db), ids)
    }

    /// Insert a batch of raw points and fold them into every level table
    /// in place, over the databases the pyramid was built on — the one
    /// database of [`crate::build_pyramid`] as a one-element slice, or the
    /// shard set of [`crate::build_pyramid_on_shards`]. Each point's raw
    /// row lands on the shard whose grid cell owns its position and merges
    /// into its level-1 grid cell (the associative aggregation fold;
    /// boundary cells merge across shards exactly as the build does), the
    /// affected neighborhoods are repaired per level, and only the changed
    /// level-table rows are rewritten, each on the shard that owns it. The
    /// result is the pyramid a from-scratch build over the mutated tables
    /// would produce: counts, bounding boxes and representatives are
    /// bit-identical; float measure sums are exact when measure values are
    /// integer-valued. The report's per-level dirty regions are the shape
    /// `KyrixServer::mutate_shards` feeds its cache invalidation.
    ///
    /// Errors if `shards` is not as many databases as the pyramid was
    /// built over, an earlier batch poisoned the maintenance state, a
    /// point's id is already live, or a point's measure count does not
    /// match the config — all checked before anything mutates. Should a
    /// failure occur *after* mutation starts (a storage error mid-batch),
    /// the raw table may be partially mutated while the level tables are
    /// not yet repaired; the pyramid then drops its maintenance state, so
    /// every later maintenance call refuses loudly
    /// ([`LodPyramid::can_maintain`] turns false) instead of silently
    /// diverging — rebuild to recover.
    pub fn insert_points_sharded(
        &mut self,
        shards: &mut [Database],
        points: &[RawPoint],
    ) -> Result<MaintenanceReport> {
        self.maintain(
            shards,
            points.is_empty(),
            |cfg, state, shards| validate_insert(cfg, state, &shards[0], points),
            |target, cfg, state, levels, (layout, schema_len)| {
                apply_insert(target, cfg, state, levels, &layout, schema_len, points)
            },
        )
    }

    /// Delete a batch of raw rows by id and fold the removals into every
    /// level table in place, over the databases the pyramid was built on
    /// (see [`LodPyramid::insert_points_sharded`]). Each deleted row
    /// dirties its level-1 grid cell, which is re-aggregated from the raw
    /// rows still inside it via the raw tables' spatial indexes — probing
    /// only the shards the cell's extent intersects and folding the
    /// per-shard partials in shard order, the build's own merge order;
    /// repair then proceeds exactly as for inserts. Errors if the database
    /// count mismatches, an earlier batch poisoned the maintenance state,
    /// or an id is not live — checked before anything mutates; a failure
    /// after mutation starts drops the maintenance state so later calls
    /// refuse loudly.
    pub fn delete_points_sharded(
        &mut self,
        shards: &mut [Database],
        ids: &[TupleId],
    ) -> Result<MaintenanceReport> {
        self.maintain(
            shards,
            ids.is_empty(),
            |cfg, state, shards| {
                for shard in shards {
                    require_raw_spatial_index(shard, cfg)?;
                }
                validate_delete(cfg, state, &shards[0], ids)
            },
            |target, cfg, state, levels, (layout, by_cell)| {
                apply_delete(target, cfg, state, levels, &layout, by_cell, ids.len())
            },
        )
    }

    /// What every batch does around its own two halves: refuse a database
    /// count other than the build's and a poisoned state, answer an
    /// `empty_batch` with an empty report, run the read-only `validate` (a
    /// failure there leaves everything untouched), then `apply` under a
    /// `pyramid.repair` span — an error past that point poisons the
    /// maintenance state.
    fn maintain<V>(
        &mut self,
        shards: &mut [Database],
        empty_batch: bool,
        validate: impl FnOnce(&LodConfig, &MaintainState, &[Database]) -> Result<V>,
        apply: impl FnOnce(
            &mut ShardedTarget<'_>,
            &LodConfig,
            &mut MaintainState,
            &mut [crate::pyramid::LevelInfo],
            V,
        ) -> Result<MaintenanceReport>,
    ) -> Result<MaintenanceReport> {
        let LodPyramid {
            config,
            maintenance,
            levels,
            sharding,
            observability,
            ..
        } = self;
        let built_over = sharding.as_ref().map_or(1, QueryRouter::shard_count);
        if built_over != shards.len() {
            return Err(LodError::Maintenance(format!(
                "pyramid `{}` was built over {built_over} databases, got {}",
                config.table,
                shards.len()
            )));
        }
        let state = maintenance.as_mut().ok_or_else(|| {
            LodError::Maintenance(
                "pyramid carries no maintenance state: an earlier batch failed after it \
                 started mutating; rebuild the pyramid to mutate in place again"
                    .to_string(),
            )
        })?;
        if empty_batch {
            return Ok(empty_report(config, 0, 0));
        }
        let validated = validate(config, state, shards)?;
        let _repair = observability.as_deref().map(|o| o.span("pyramid.repair"));
        let mut target = ShardedTarget {
            shards,
            router: sharding.as_ref(),
        };
        let result = apply(&mut target, config, state, levels, validated);
        match (&result, observability.as_deref()) {
            (Err(_), _) => *maintenance = None,
            (Ok(report), Some(obs)) => {
                let (mut in_place, mut evaluated) = (0, 0);
                for l in &report.levels {
                    in_place += l.rows_in_place as u64;
                    evaluated += l.retention_cells as u64;
                }
                obs.counter("lod.rows_in_place").add(in_place);
                obs.counter("lod.retention_cells").add(evaluated);
            }
            (Ok(_), None) => {}
        }
        result
    }
}

/// The mutating half of [`LodPyramid::insert_points_sharded`] (the target
/// decides where rows physically land).
fn apply_insert(
    target: &mut ShardedTarget<'_>,
    cfg: &LodConfig,
    state: &mut MaintainState,
    levels: &mut [crate::pyramid::LevelInfo],
    layout: &RawLayout,
    schema_len: usize,
    points: &[RawPoint],
) -> Result<MaintenanceReport> {
    let scale1 = cfg.level_scale(1);
    let mut dirty: FxHashSet<Cell> = FxHashSet::default();
    for p in points {
        target.insert_raw(cfg, layout, schema_len, p)?;
        let cell = cell_of(p.x / scale1, p.y / scale1, cfg.spacing);
        state.id_cells.insert(p.id, cell);
        // fold into the level-1 candidate: new rows append to the raw
        // table, so this fold order matches a rebuild's scan order
        let point = Cluster::from_point(p.id, p.x, p.y, &p.measures);
        let folded = match state.levels[0].cand(cell) {
            Some(agg) => {
                let mut agg = agg.clone();
                agg.merge(&point);
                agg
            }
            None => point,
        };
        state.levels[0].set_cand(cell, Some(folded));
        dirty.insert(cell);
    }
    propagate(target, cfg, state, levels, dirty, points.len(), 0)
}

/// The mutating half of [`LodPyramid::delete_points_sharded`].
fn apply_delete(
    target: &mut ShardedTarget<'_>,
    cfg: &LodConfig,
    state: &mut MaintainState,
    levels: &mut [crate::pyramid::LevelInfo],
    layout: &RawLayout,
    by_cell: FxHashMap<Cell, FxHashSet<i64>>,
    deleted: usize,
) -> Result<MaintenanceReport> {
    let mut dirty: FxHashSet<Cell> = FxHashSet::default();
    let mut cells: Vec<(Cell, FxHashSet<i64>)> = by_cell.into_iter().collect();
    cells.sort_unstable_by_key(|(c, _)| *c);
    for (cell, cell_ids) in cells {
        target.delete_in_cell(cfg, layout, cell, &cell_ids)?;
        // re-aggregate the cell from the raw rows still inside it
        let survivors = target.aggregate_cell(cfg, layout, cell)?;
        state.levels[0].set_cand(cell, survivors);
        for id in &cell_ids {
            state.id_cells.remove(id);
        }
        dirty.insert(cell);
    }
    propagate(target, cfg, state, levels, dirty, 0, deleted)
}

fn require_raw_spatial_index(db: &Database, cfg: &LodConfig) -> Result<()> {
    if db.table(&cfg.table)?.spatial_index().is_none() {
        return Err(LodError::Maintenance(format!(
            "raw table `{}` needs a spatial index for maintenance",
            cfg.table
        )));
    }
    Ok(())
}

/// Read-only insert validation: schema shape, measure arity and id
/// freshness. `catalog` is the raw table's database (shard 0 carries the
/// broadcast catalog).
fn validate_insert(
    cfg: &LodConfig,
    state: &MaintainState,
    catalog: &Database,
    points: &[RawPoint],
) -> Result<(RawLayout, usize)> {
    let layout = raw_layout(catalog, cfg)?;
    let schema_len = catalog.table(&cfg.table)?.schema.len();
    if schema_len != 3 + cfg.measures.len() {
        return Err(LodError::Maintenance(format!(
            "insert_points needs `{}` to hold exactly the configured id/x/y/measure \
             columns ({} columns), found {schema_len}",
            cfg.table,
            3 + cfg.measures.len()
        )));
    }
    let mut fresh: FxHashSet<i64> = FxHashSet::default();
    for p in points {
        if p.measures.len() != cfg.measures.len() {
            return Err(LodError::Maintenance(format!(
                "point {} carries {} measures, config has {}",
                p.id,
                p.measures.len(),
                cfg.measures.len()
            )));
        }
        if state.id_cells.contains_key(&p.id) || !fresh.insert(p.id) {
            return Err(LodError::Maintenance(format!(
                "id {} is already live in `{}`",
                p.id, cfg.table
            )));
        }
    }
    Ok((layout, schema_len))
}

/// Read-only delete validation: every id live and distinct, grouped by its
/// level-1 cell.
fn validate_delete(
    cfg: &LodConfig,
    state: &MaintainState,
    catalog: &Database,
    ids: &[TupleId],
) -> Result<(RawLayout, FxHashMap<Cell, FxHashSet<i64>>)> {
    let layout = raw_layout(catalog, cfg)?;
    let mut by_cell: FxHashMap<Cell, FxHashSet<i64>> = FxHashMap::default();
    for id in ids {
        let cell = *state.id_cells.get(id).ok_or_else(|| {
            LodError::Maintenance(format!("id {id} is not live in `{}`", cfg.table))
        })?;
        if !by_cell.entry(cell).or_default().insert(*id) {
            return Err(LodError::Maintenance(format!(
                "id {id} appears twice in the delete batch"
            )));
        }
    }
    Ok((layout, by_cell))
}

fn empty_report(cfg: &LodConfig, inserted: usize, deleted: usize) -> MaintenanceReport {
    MaintenanceReport {
        inserted,
        deleted,
        levels: (0..=cfg.levels)
            .map(|k| LevelMaintenance {
                level: k,
                table: cfg.level_table(k),
                dirty_rects: Vec::new(),
                rows_changed: 0,
                rows_in_place: 0,
                repair_cells: 0,
                retention_cells: 0,
                fallback: false,
            })
            .collect(),
    }
}

/// A full raw-table row for one point, laid out per the configured column
/// indexes.
fn raw_row(layout: &RawLayout, schema_len: usize, p: &RawPoint) -> Row {
    let mut values = vec![Value::Int(0); schema_len];
    values[layout.id] = Value::Int(p.id);
    values[layout.x] = Value::Float(p.x);
    values[layout.y] = Value::Float(p.y);
    for (i, m) in layout.measures.iter().zip(&p.measures) {
        values[*i] = Value::Float(*m);
    }
    Row::new(values)
}

/// The raw-coordinate extent of a level-1 grid cell.
fn raw_cell_rect(cfg: &LodConfig, cell: Cell) -> Rect {
    let s = cfg.spacing * cfg.level_scale(1);
    Rect::new(
        cell.x as f64 * s,
        cell.y as f64 * s,
        (cell.x + 1) as f64 * s,
        (cell.y + 1) as f64 * s,
    )
}

/// The level-coordinate extent of a grid cell on any clustered level.
fn level_cell_rect(spacing: f64, cell: Cell) -> Rect {
    Rect::new(
        cell.x as f64 * spacing,
        cell.y as f64 * spacing,
        (cell.x + 1) as f64 * spacing,
        (cell.y + 1) as f64 * spacing,
    )
}

/// Row ids of the `ids` members inside `rect` on one database, located
/// through the raw table's spatial index (no scan, no count check — the
/// caller verifies the total, which may span shards).
fn cell_victims(
    db: &Database,
    cfg: &LodConfig,
    layout: &RawLayout,
    rect: &Rect,
    ids: &FxHashSet<i64>,
) -> Result<Vec<RecordId>> {
    let table = db.table(&cfg.table)?;
    let idx = table.spatial_index().ok_or_else(|| {
        LodError::Maintenance(format!(
            "raw table `{}` needs a spatial index for maintenance",
            cfg.table
        ))
    })?;
    let mut rids = Vec::new();
    table.probe_spatial(idx, rect, |rid| rids.push(rid));
    let mut victims = Vec::new();
    for rid in rids {
        let Some(row) = table.get(rid)? else { continue };
        let id = row
            .get(layout.id)
            .as_i64()
            .map_err(|_| LodError::Schema(format!("non-integer id in `{}`", cfg.table)))?;
        if ids.contains(&id) {
            victims.push(rid);
        }
    }
    Ok(victims)
}

/// Re-aggregate one level-1 cell from the raw rows inside it, in heap scan
/// order (the fold order a from-scratch build uses). `None` when empty.
fn aggregate_raw_cell(
    db: &Database,
    cfg: &LodConfig,
    layout: &RawLayout,
    cell: Cell,
) -> Result<Option<Cluster>> {
    let rect = raw_cell_rect(cfg, cell);
    let scale1 = cfg.level_scale(1);
    let table = db.table(&cfg.table)?;
    let idx = table.spatial_index().ok_or_else(|| {
        LodError::Maintenance(format!("raw table `{}` lost its spatial index", cfg.table))
    })?;
    let mut rids = Vec::new();
    table.probe_spatial(idx, &rect, |rid| rids.push(rid));
    // heap order = scan order: the order extract_points folds in
    rids.sort_unstable_by_key(|r| r.to_u64());
    let mut acc: Option<Cluster> = None;
    for rid in rids {
        let Some(row) = table.get(rid)? else { continue };
        let c = raw_singleton(&row, layout)
            .ok_or_else(|| LodError::Schema(format!("non-numeric row in `{}`", cfg.table)))?;
        // the probe rect is closed; boundary rows belong to the next cell
        if cell_of(c.rep_x / scale1, c.rep_y / scale1, cfg.spacing) != cell {
            continue;
        }
        match &mut acc {
            Some(agg) => agg.merge(&c),
            None => acc = Some(c),
        }
    }
    Ok(acc)
}

/// Drive the per-level repairs after the level-1 candidate map absorbed a
/// raw mutation that dirtied `dirty` cells. Rewrites level tables in place
/// and updates the pyramid's per-level row counts.
fn propagate(
    target: &mut ShardedTarget<'_>,
    cfg: &LodConfig,
    state: &mut MaintainState,
    infos: &mut [crate::pyramid::LevelInfo],
    mut dirty: FxHashSet<Cell>,
    inserted: usize,
    deleted: usize,
) -> Result<MaintenanceReport> {
    let mut report = MaintenanceReport {
        inserted,
        deleted,
        levels: vec![LevelMaintenance {
            level: 0,
            table: cfg.level_table(0),
            // raw-level invalidation regions: the raw extent of every
            // dirty level-1 cell covers all mutated points
            dirty_rects: {
                let mut cells: Vec<Cell> = dirty.iter().copied().collect();
                cells.sort_unstable();
                cells.iter().map(|c| raw_cell_rect(cfg, *c)).collect()
            },
            rows_changed: inserted + deleted,
            rows_in_place: 0,
            repair_cells: 0,
            retention_cells: 0,
            fallback: false,
        }],
    };
    infos[0].rows = state.id_cells.len();

    let mut changed_prev: OutputDelta = Vec::new();
    for k in 1..=cfg.levels {
        let scale = cfg.level_scale(k);
        if k > 1 {
            // derive this level's dirty cells from the level below's
            // changed outputs, re-aggregating each from its members
            dirty = FxHashSet::default();
            let (below, above) = state.levels.split_at_mut(k - 1);
            let prev = &below[k - 2];
            let cur = &mut above[0];
            let mut touched: FxHashSet<Cell> = FxHashSet::default();
            for (_, old, new) in &changed_prev {
                for c in [old, new].into_iter().flatten() {
                    touched.insert(cell_of(c.rep_x / scale, c.rep_y / scale, cfg.spacing));
                }
            }
            for cell in touched {
                let fresh = aggregate_cell_from_below(prev, cell, scale, cfg);
                if cur.cand(cell) != fresh.as_ref() {
                    cur.set_cand(cell, fresh);
                    dirty.insert(cell);
                }
            }
        }
        if dirty.is_empty() {
            report.levels.push(LevelMaintenance {
                level: k,
                table: cfg.level_table(k),
                dirty_rects: Vec::new(),
                rows_changed: 0,
                rows_in_place: 0,
                repair_cells: 0,
                retention_cells: 0,
                fallback: false,
            });
            changed_prev = Vec::new();
            continue;
        }
        let outcome = repair_level(&mut state.levels[k - 1], scale, cfg.spacing, &dirty);
        let rows_in_place = rewrite_level_table(target, cfg, k, scale, &outcome.changed)?;
        infos[k].rows = state.levels[k - 1].retained_len();
        report.levels.push(LevelMaintenance {
            level: k,
            table: cfg.level_table(k),
            dirty_rects: outcome
                .changed
                .iter()
                .map(|(c, _, _)| level_cell_rect(cfg.spacing, *c))
                .collect(),
            rows_changed: outcome
                .changed
                .iter()
                .map(|(_, o, n)| o.is_some() as usize + n.is_some() as usize)
                .sum(),
            rows_in_place,
            repair_cells: outcome.region_cells,
            retention_cells: outcome.retention_cells,
            fallback: outcome.fallback,
        });
        changed_prev = outcome.changed;
    }
    Ok(report)
}

/// Re-aggregate one cell of level `k` from the retained outputs of level
/// `k − 1` that map into it, folding in rep-id order — the exact order a
/// from-scratch `aggregate_into_cells` pass over the sorted lower level
/// uses, so even float sums reproduce.
fn aggregate_cell_from_below(
    prev: &LevelState,
    cell: Cell,
    scale: f64,
    cfg: &LodConfig,
) -> Option<Cluster> {
    let spacing = cfg.spacing;
    // the cell's extent in the lower level's coordinates, ± one cell of
    // float slack; every lower-level output lies inside its own cell
    let zoom = cfg.zoom_factor;
    let x0 = (cell.x as f64 * zoom).floor() as i64 - 1;
    let x1 = ((cell.x + 1) as f64 * zoom).ceil() as i64 + 1;
    let y0 = (cell.y as f64 * zoom).floor() as i64 - 1;
    let y1 = ((cell.y + 1) as f64 * zoom).ceil() as i64 + 1;
    let mut members: Vec<&Cluster> = Vec::new();
    for py in y0..=y1 {
        for px in x0..=x1 {
            if let Some(o) = prev.table_row(Cell { x: px, y: py }) {
                if cell_of(o.rep_x / scale, o.rep_y / scale, spacing) == cell {
                    members.push(o);
                }
            }
        }
    }
    members.sort_unstable_by_key(|c| c.rep_id);
    let mut it = members.into_iter();
    let mut acc = it.next()?.clone();
    for m in it {
        acc.merge(m);
    }
    Some(acc)
}

/// The cells one level's repair re-runs retention over, as 8-connected
/// components. A candidate's retention reads only its 3×3 neighbourhood,
/// so no cell of one component reads a cell of another: each component's
/// decisions depend on its own cells and the stored fates around it.
/// Adding a cell next to several components merges them into one.
#[derive(Default)]
struct Region {
    /// The component of every region cell.
    of: FxHashMap<Cell, usize>,
    /// The cells of each component; a component merged into another is
    /// left empty.
    cells: Vec<Vec<Cell>>,
}

impl Region {
    /// Region cells, over every component.
    fn len(&self) -> usize {
        self.of.len()
    }

    fn contains(&self, cell: &Cell) -> bool {
        self.of.contains_key(cell)
    }

    /// Every component, in no particular order.
    fn components(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cells.len()).filter(|c| !self.cells[*c].is_empty())
    }

    /// Add `cell`, merging the components of its 8-adjacent region cells
    /// into the one it joins (a new component if it has none). False if
    /// it was a region cell already.
    fn add(&mut self, cell: Cell) -> bool {
        if self.contains(&cell) {
            return false;
        }
        let mut joined: Option<usize> = None;
        for n in cell.neighborhood() {
            let Some(&c) = self.of.get(&n) else { continue };
            joined = Some(match joined {
                Some(j) if j != c => self.merge(j, c),
                _ => c,
            });
        }
        let c = joined.unwrap_or_else(|| {
            self.cells.push(Vec::new());
            self.cells.len() - 1
        });
        self.cells[c].push(cell);
        self.of.insert(cell, c);
        true
    }

    /// Merge two components, moving the smaller's cells; returns the one
    /// that keeps them.
    fn merge(&mut self, a: usize, b: usize) -> usize {
        let (keep, gone) = if self.cells[a].len() >= self.cells[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        let moved = std::mem::take(&mut self.cells[gone]);
        for cell in &moved {
            self.of.insert(*cell, keep);
        }
        self.cells[keep].extend(moved);
        keep
    }
}

/// Where a level's expansion loop settled: the repair region, and the
/// fate retention decided for each of its candidates — `None` when the
/// region outgrew its share of the level and full retention must run
/// instead.
struct Settled {
    region: Region,
    fates: Option<FxHashMap<Cell, Fate>>,
    /// Candidates the regional runs evaluated, over every round.
    retention_cells: usize,
}

/// Run regional retention from the dirty cells plus their neighborhoods,
/// expanding along retained-membership flips until the boundary is clean
/// — at which point the regional decisions provably equal a full
/// re-run's. The region is kept as [`Region`] components and each round
/// re-runs only those that grew since their last run: a component that
/// did not grow is at its fixed point already, and none of its cells
/// reads another component's. Reads the state only.
fn settle(st: &LevelState, scale: f64, spacing: f64, dirty: &FxHashSet<Cell>) -> Settled {
    let mut region = Region::default();
    for c in dirty {
        region.add(*c);
        for n in c.neighborhood() {
            if st.cand(n).is_some() {
                region.add(n);
            }
        }
    }

    let mut fates: FxHashMap<Cell, Fate> = FxHashMap::default();
    let mut retention_cells = 0;
    let mut pending: Vec<usize> = region.components().collect();
    while !pending.is_empty() {
        if st.cands_len() > 64 && region.len() * FALLBACK_DEN > st.cands_len() * FALLBACK_NUM {
            return Settled {
                region,
                fates: None,
                retention_cells,
            };
        }
        // every pending component runs against the region as the round
        // found it, so no component sees another's growth mid-round
        let mut flipped: Vec<Cell> = Vec::new();
        for &c in &pending {
            let cells = &region.cells[c];
            retention_cells += cells.len();
            regional_retention(st, scale, spacing, &region, cells, &mut fates);
            flipped.extend(cells.iter().filter(|cell| {
                st.is_retained(**cell) != fates.get(*cell).is_some_and(|f| f.is_retained())
            }));
        }
        // expansion: a retained-membership flip influences neighbors that
        // were assumed clean — pull them in; their components run again
        let mut grown: Vec<Cell> = Vec::new();
        for cell in flipped {
            for n in cell.neighborhood() {
                if st.cand(n).is_some() && region.add(n) {
                    grown.push(n);
                }
            }
        }
        pending = grown.iter().map(|c| region.of[c]).collect();
        pending.sort_unstable();
        pending.dedup();
    }
    Settled {
        region,
        fates: Some(fates),
        retention_cells,
    }
}

/// Repair one level's retention after the candidates of `dirty` cells
/// were rewritten through [`LevelState::set_cand`] (including appeared
/// and vanished): [`settle`] the region, commit its fates, sweep the
/// tombstones, re-derive the outputs that can have changed and return the
/// output delta; what a cell's row *was* is read off its record, where
/// `set_cand` pinned it.
fn repair_level(
    st: &mut LevelState,
    scale: f64,
    spacing: f64,
    dirty: &FxHashSet<Cell>,
) -> RepairOutcome {
    let Settled {
        region,
        fates,
        retention_cells,
    } = settle(st, scale, spacing, dirty);
    let Some(fates) = fates else {
        let mut outcome = full_retention(st, scale, spacing);
        outcome.retention_cells += retention_cells;
        return outcome;
    };

    // the outputs that can have changed: a region cell whose candidate
    // (it is dirty) or fate changed, and the old and new absorbers of each
    let mut out_dirty: FxHashSet<Cell> = FxHashSet::default();
    for cell in region.of.keys() {
        let old = st.record(*cell).map(|r| r.fate());
        let new = fates.get(cell).copied();
        if old == new && !dirty.contains(cell) {
            continue;
        }
        out_dirty.insert(*cell);
        for fate in [old, new].into_iter().flatten() {
            out_dirty.extend(fate.absorber(*cell));
        }
    }
    let mut out_cells: Vec<Cell> = out_dirty.into_iter().collect();
    out_cells.sort_unstable();
    // read the rows the level table holds before any fate moves
    let olds: Vec<Option<Cluster>> = (out_cells.iter())
        .map(|r| st.table_row(*r).cloned())
        .collect();

    for cell in region.of.keys() {
        match fates.get(cell) {
            Some(fate) => st.set_fate(*cell, *fate),
            None => {
                st.sweep(*cell);
            }
        }
    }
    let mut changed: OutputDelta = Vec::new();
    for (r, old) in out_cells.into_iter().zip(olds) {
        if st.record(r).is_none() {
            // a swept tombstone: its row, if it had one, is gone
            if old.is_some() {
                changed.push((r, old, None));
            }
            continue;
        }
        let new = st.is_retained(r).then(|| output_for(st, r));
        st.store_output(r, new.clone());
        if old != new {
            changed.push((r, old, new));
        }
    }
    RepairOutcome {
        changed,
        region_cells: region.len(),
        retention_cells,
        fallback: false,
    }
}

/// The repair that outgrew its region: re-run full retention from the
/// maintained candidates — the build's own phase 2, still exact, no raw
/// scan — and diff the rows it leaves against the rows the level table
/// holds.
fn full_retention(st: &mut LevelState, scale: f64, spacing: f64) -> RepairOutcome {
    let mut held: FxHashMap<Cell, Cluster> = (st.records())
        .filter_map(|(cell, rec)| Some((cell, rec.table_row()?.clone())))
        .collect();
    retain_with_spacing(st, scale, spacing);
    let mut changed: OutputDelta = Vec::new();
    for (cell, rec) in st.records() {
        let Some(new) = rec.table_row() else { continue };
        let old = held.remove(&cell);
        if old.as_ref() != Some(new) {
            changed.push((cell, old, Some(new.clone())));
        }
    }
    changed.extend(held.into_iter().map(|(cell, old)| (cell, Some(old), None)));
    changed.sort_unstable_by_key(|(c, _, _)| *c);
    RepairOutcome {
        changed,
        region_cells: st.cands_len(),
        retention_cells: st.cands_len(),
        fallback: true,
    }
}

/// Run greedy retention over the candidates of `cells` — one component of
/// `region` — against a boundary of unchanged external retained marks,
/// writing each decision into `fates`. Exactly reproduces the global
/// greedy's decisions for those cells *given* that no external fate
/// changes (the expansion loop in [`repair_level`] guarantees that at its
/// fixed point). No other component's cell is within a neighbourhood of
/// one of `cells`, so testing the boundary against the whole region is
/// testing it against the component.
fn regional_retention(
    st: &LevelState,
    scale: f64,
    spacing: f64,
    region: &Region,
    cells: &[Cell],
    fates: &mut FxHashMap<Cell, Fate>,
) {
    let mut cands: Vec<(Cell, &Cluster)> = cells
        .iter()
        .filter_map(|c| st.cand(*c).map(|cl| (*c, cl)))
        .collect();
    cands.sort_unstable_by(|a, b| by_importance(a.1, b.1));

    let sq = spacing * spacing;
    let mut grid = SpacingGrid::new(spacing);
    let mut retained: Vec<(Cell, &Cluster)> = Vec::new();
    for (cell, cl) in cands {
        let (lx, ly) = (cl.rep_x / scale, cl.rep_y / scale);
        // nearest regional violator: retained earlier in this pass, i.e.
        // higher priority (the grid tie-breaks to the smaller index =
        // higher priority, matching the global run)
        let mut best: Option<(Cell, f64, &Cluster)> = grid.violator(lx, ly).map(|(idx, d2)| {
            let (c, r) = retained[idx];
            (c, d2, r)
        });
        // external boundary: neighbors outside the region whose stored
        // fate is retained. Only higher-priority externals constrain
        // this candidate — in the global order, lower-priority marks are
        // not yet present when it is processed.
        for n in cell.neighborhood() {
            if region.contains(&n) || !st.is_retained(n) {
                continue;
            }
            // outside the region nothing was written: no tombstones
            #[allow(clippy::expect_used)]
            let ext = st
                .cand(n)
                .expect("an untouched retained cell has a candidate");
            if !ext.more_important_than(cl) {
                continue;
            }
            let (ex, ey) = (ext.rep_x / scale, ext.rep_y / scale);
            let d2 = (ex - lx) * (ex - lx) + (ey - ly) * (ey - ly);
            if d2 >= sq {
                continue;
            }
            let better = match &best {
                None => true,
                // global tie-break: the earlier-retained mark wins, and
                // retention order is priority order
                Some((_, bd2, bcl)) => d2 < *bd2 || (d2 == *bd2 && ext.more_important_than(bcl)),
            };
            if better {
                best = Some((n, d2, ext));
            }
        }
        match best {
            Some((absorber, _, _)) => {
                fates.insert(cell, Fate::toward(cell, absorber));
            }
            None => {
                grid.insert(retained.len(), lx, ly);
                retained.push((cell, cl));
                fates.insert(cell, Fate::RETAINED);
            }
        }
    }
}

/// Derive the post-absorption output of a retained cell: its own
/// candidate plus every neighbor whose fate points at it, folded in
/// priority order — the order the global greedy absorbs in, so the float
/// sums reproduce. With no such neighbor the output *is* the candidate,
/// which is why the state does not store it.
fn output_for(st: &LevelState, r: Cell) -> Cluster {
    let mut members: Vec<&Cluster> = r
        .neighborhood()
        .filter_map(|n| {
            let rec = st.record(n)?;
            (rec.fate().absorber(n) == Some(r)).then(|| rec.cand())?
        })
        .collect();
    members.sort_unstable_by(|a, b| by_importance(a, b));
    // `r` is retained, and the repair swept its region's tombstones first
    #[allow(clippy::expect_used)]
    let mut out = st.cand(r).expect("a retained cell has a candidate").clone();
    for m in members {
        out.absorb(m);
    }
    out
}

/// Patch one level table in place and return how many rows were
/// overwritten in their slot. An output that keeps its representative id
/// and bit-exact position is written over its old row
/// ([`kyrix_storage::Table::overwrite`]: no index write, same record id);
/// every other change deletes the old row (located through the level's
/// spatial index) and then inserts the new one. Deletes run before
/// inserts so a representative migrating between cells never collides
/// with itself.
fn rewrite_level_table(
    target: &mut ShardedTarget<'_>,
    cfg: &LodConfig,
    level: usize,
    scale: f64,
    changed: &OutputDelta,
) -> Result<usize> {
    let table = cfg.level_table(level);
    let mut in_place = 0;
    let mut inserts: Vec<&Cluster> = Vec::new();
    for (_, old, new) in changed {
        if let (Some(o), Some(n)) = (old, new) {
            let held = o.rep_id == n.rep_id
                && o.rep_x.to_bits() == n.rep_x.to_bits()
                && o.rep_y.to_bits() == n.rep_y.to_bits();
            if held && target.overwrite_level_row(&table, o, n, scale)? {
                in_place += 1;
                continue;
            }
        }
        if let Some(o) = old {
            target.remove_level_row(&table, o, scale)?;
        }
        inserts.extend(new);
    }
    inserts.sort_unstable_by_key(|c| c.rep_id);
    for c in inserts {
        target.add_level_row(&table, scale, c)?;
    }
    Ok(in_place)
}

/// The record id of one level-table row, found by its representative id
/// through the level's `(cx, cy)` spatial index at the output's exact
/// position.
fn level_row_id(db: &Database, table: &str, out: &Cluster, scale: f64) -> Result<RecordId> {
    let (cx, cy) = (out.rep_x / scale, out.rep_y / scale);
    let t = db.table(table)?;
    let idx = t.spatial_index().ok_or_else(|| {
        LodError::Maintenance(format!("level table `{table}` lost its spatial index"))
    })?;
    let probe = Rect::new(cx, cy, cx, cy);
    let mut rids = Vec::new();
    t.probe_spatial(idx, &probe, |rid| rids.push(rid));
    for rid in rids {
        let Some(row) = t.get(rid)? else { continue };
        if row.get(0) == &Value::Int(out.rep_id) {
            return Ok(rid);
        }
    }
    Err(LodError::Maintenance(format!(
        "row id {} missing from `{table}` at ({cx}, {cy}): level table out of sync",
        out.rep_id
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pyramid::build_pyramid;
    use kyrix_storage::{DataType, IndexKind, Schema, SpatialCols};

    fn raw_schema() -> Schema {
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("m", DataType::Float)
    }

    fn seeded_db(n: i64) -> Database {
        let mut db = Database::new();
        db.create_table("pts", raw_schema()).unwrap();
        for i in 0..n {
            db.insert(
                "pts",
                Row::new(vec![
                    Value::Int(i),
                    Value::Float((i % 16) as f64 * 15.0 + (i % 7) as f64),
                    Value::Float((i / 16) as f64 * 15.0 + (i % 5) as f64),
                    Value::Float((i % 5) as f64),
                ]),
            )
            .unwrap();
        }
        db.create_index(
            "pts",
            "pts_xy",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        db
    }

    fn cfg() -> LodConfig {
        LodConfig::new("pts", 256.0, 256.0, 2)
            .with_measure("m")
            .with_spacing(12.0)
    }

    /// Rebuild from scratch in a fresh database holding the same raw rows
    /// in the same scan order, and compare every level table bitwise.
    fn assert_matches_scratch(db: &Database, cfg: &LodConfig, maintained: &LodPyramid) {
        let mut fresh = Database::new();
        fresh
            .create_table(&cfg.table, db.table(&cfg.table).unwrap().schema.clone())
            .unwrap();
        db.table(&cfg.table)
            .unwrap()
            .scan(|_, row| {
                fresh.insert(&cfg.table, row).unwrap();
            })
            .unwrap();
        let scratch = build_pyramid(&mut fresh, cfg).unwrap();
        assert_eq!(maintained.levels, scratch.levels, "level metadata differs");
        for k in 1..=cfg.levels {
            let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
            let a = db.query(&q, &[]).unwrap();
            let b = fresh.query(&q, &[]).unwrap();
            assert_eq!(a.rows, b.rows, "level {k} tables differ");
        }
    }

    #[test]
    fn insert_batch_matches_scratch_rebuild() {
        let mut db = seeded_db(256);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        let pts: Vec<RawPoint> = (0..40)
            .map(|i| {
                RawPoint::new(
                    1000 + i,
                    (i % 8) as f64 * 30.0 + 3.0,
                    (i / 8) as f64 * 40.0 + 7.0,
                    &[(i % 3) as f64],
                )
            })
            .collect();
        let report = p.insert_points(&mut db, &pts).unwrap();
        assert_eq!(report.inserted, 40);
        assert_eq!(p.levels[0].rows, 296);
        assert!(report.rows_changed() > 0);
        assert_matches_scratch(&db, &cfg(), &p);
    }

    #[test]
    fn delete_batch_matches_scratch_rebuild() {
        let mut db = seeded_db(256);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        let victims: Vec<i64> = (0..256).filter(|i| i % 3 == 0).collect();
        let report = p.delete_points(&mut db, &victims).unwrap();
        assert_eq!(report.deleted, victims.len());
        assert_eq!(p.levels[0].rows, 256 - victims.len());
        assert_matches_scratch(&db, &cfg(), &p);
    }

    #[test]
    fn insert_then_delete_restores_the_original_tables() {
        let mut db = seeded_db(256);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        let before: Vec<_> = (1..=2)
            .map(|k| {
                db.query(
                    &format!("SELECT * FROM {} ORDER BY id", cfg().level_table(k)),
                    &[],
                )
                .unwrap()
                .rows
            })
            .collect();
        let pts: Vec<RawPoint> = (0..25)
            .map(|i| RawPoint::new(900 + i, (i as f64) * 9.0, 100.0 + (i as f64) * 3.0, &[2.0]))
            .collect();
        p.insert_points(&mut db, &pts).unwrap();
        p.delete_points(&mut db, &(900..925).collect::<Vec<_>>())
            .unwrap();
        for (k, rows) in (1..=2).zip(before) {
            let after = db
                .query(
                    &format!("SELECT * FROM {} ORDER BY id", cfg().level_table(k)),
                    &[],
                )
                .unwrap()
                .rows;
            assert_eq!(
                rows, after,
                "level {k} did not return to its original state"
            );
        }
        assert_matches_scratch(&db, &cfg(), &p);
    }

    #[test]
    fn conservation_holds_after_maintenance() {
        let mut db = seeded_db(300);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        p.delete_points(&mut db, &[0, 7, 150, 299]).unwrap();
        p.insert_points(&mut db, &[RawPoint::new(5000, 128.0, 128.0, &[4.0])])
            .unwrap();
        let n = p.levels[0].rows as i64;
        assert_eq!(n, 297);
        let raw = db.query("SELECT SUM(m) FROM pts", &[]).unwrap();
        let raw_sum = raw.rows[0].get(0).as_f64().unwrap();
        for k in 1..=2 {
            let r = db
                .query(
                    &format!("SELECT SUM(cnt), SUM(sum_m) FROM {}", cfg().level_table(k)),
                    &[],
                )
                .unwrap();
            assert_eq!(r.rows[0].get(0).as_i64().unwrap(), n, "level {k} count");
            assert_eq!(r.rows[0].get(1).as_f64().unwrap(), raw_sum, "level {k} sum");
        }
    }

    #[test]
    fn fallback_path_is_exact_too() {
        // a batch touching most cells forces the full-retention fallback
        let mut db = seeded_db(64);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        let pts: Vec<RawPoint> = (0..200)
            .map(|i| {
                RawPoint::new(
                    2000 + i,
                    (i % 20) as f64 * 12.5 + 1.0,
                    (i / 20) as f64 * 25.0 + 2.0,
                    &[1.0],
                )
            })
            .collect();
        let report = p.insert_points(&mut db, &pts).unwrap();
        assert!(
            report.levels.iter().any(|l| l.fallback),
            "expected at least one level to take the fallback"
        );
        assert_matches_scratch(&db, &cfg(), &p);
    }

    #[test]
    fn maintenance_errors_are_reported() {
        let mut db = seeded_db(64);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        // duplicate id
        assert!(matches!(
            p.insert_points(&mut db, &[RawPoint::new(3, 1.0, 1.0, &[0.0])]),
            Err(LodError::Maintenance(_))
        ));
        // unknown id
        assert!(matches!(
            p.delete_points(&mut db, &[999_999]),
            Err(LodError::Maintenance(_))
        ));
        // measure arity mismatch
        assert!(matches!(
            p.insert_points(&mut db, &[RawPoint::new(700, 1.0, 1.0, &[])]),
            Err(LodError::Maintenance(_))
        ));
        // a failed batch must not corrupt state: a valid batch still works
        p.insert_points(&mut db, &[RawPoint::new(700, 9.0, 9.0, &[1.0])])
            .unwrap();
        assert_matches_scratch(&db, &cfg(), &p);
    }

    #[test]
    fn mid_apply_failure_poisons_the_state() {
        let mut db = seeded_db(64);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        // sabotage the level-1 table: the apply phase will fail when it
        // tries to patch it, after the raw insert already happened
        db.drop_table("pts_lod1").unwrap();
        let r = p.insert_points(&mut db, &[RawPoint::new(800, 10.0, 10.0, &[1.0])]);
        assert!(r.is_err());
        assert!(
            !p.can_maintain(),
            "a failure after mutation started must poison the state"
        );
        // later maintenance refuses instead of silently diverging
        assert!(matches!(
            p.delete_points(&mut db, &[1]),
            Err(LodError::Maintenance(_))
        ));
    }

    fn grid_partitioner() -> kyrix_parallel::Partitioner {
        kyrix_parallel::Partitioner::SpatialGrid {
            x_column: "x".into(),
            y_column: "y".into(),
            cols: 2,
            rows: 2,
            width: 256.0,
            height: 256.0,
        }
    }

    /// The rows of [`seeded_db`] spread over four grid shards, raw
    /// spatial index included.
    fn seeded_shards(n: i64) -> Vec<Database> {
        let part = grid_partitioner();
        let schema = raw_schema();
        let mut shards: Vec<Database> = (0..4)
            .map(|_| {
                let mut db = Database::new();
                db.create_table("pts", schema.clone()).unwrap();
                db
            })
            .collect();
        let single = seeded_db(n);
        single
            .table("pts")
            .unwrap()
            .scan(|_, row| {
                let s = part.route(&schema, &row, 4).unwrap();
                shards[s].insert("pts", row).unwrap();
            })
            .unwrap();
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

    /// Sharded maintenance tracks the single-node path batch for batch:
    /// identical reports, identical level-table unions, identical
    /// maintenance state — boundary cells and all. (Measures are
    /// integer-valued, so even the float sums must match bitwise.)
    #[test]
    fn sharded_maintenance_matches_single_node() {
        let mut db = seeded_db(256);
        let mut single = build_pyramid(&mut db, &cfg()).unwrap();

        let part = grid_partitioner();
        let mut shards = seeded_shards(256);
        let mut sharded =
            crate::pyramid::build_pyramid_on_shards(&mut shards, &part, &cfg()).unwrap();
        assert_eq!(single.levels, sharded.levels);

        // a blob straddling the vertical shard boundary (x = 128) plus
        // scattered points — boundary cells must merge across shards
        let pts: Vec<RawPoint> = (0..40)
            .map(|i| {
                RawPoint::new(
                    1000 + i,
                    120.0 + (i % 8) as f64 * 2.5,
                    (i / 8) as f64 * 40.0 + 7.0,
                    &[(i % 3) as f64],
                )
            })
            .collect();
        let a = single.insert_points(&mut db, &pts).unwrap();
        let b = sharded.insert_points_sharded(&mut shards, &pts).unwrap();
        assert_eq!(a, b, "insert reports diverge");

        let victims: Vec<i64> = (0..256).filter(|i| i % 3 == 0).chain(1000..1010).collect();
        let a = single.delete_points(&mut db, &victims).unwrap();
        let b = sharded
            .delete_points_sharded(&mut shards, &victims)
            .unwrap();
        assert_eq!(a, b, "delete reports diverge");
        assert_eq!(single.levels, sharded.levels);

        for k in 1..=2 {
            let q = format!("SELECT * FROM {} ORDER BY id", cfg().level_table(k));
            let want = db.query(&q, &[]).unwrap().rows;
            let mut got: Vec<Row> = shards
                .iter()
                .flat_map(|s| s.query(&q, &[]).unwrap().rows.clone())
                .collect();
            got.sort_unstable_by_key(|r| r.get(0).as_i64().unwrap());
            assert_eq!(want, got, "level {k} union diverged");
        }
        // raw rows stayed on their owning shards
        let raw_total: usize = shards.iter().map(|s| s.table("pts").unwrap().len()).sum();
        assert_eq!(raw_total, sharded.levels[0].rows);
    }

    /// A pyramid built over K databases refuses a slice of any other
    /// length, through either entry-point name, before anything mutates.
    /// The refusal is by count alone: this test used to also pin that a
    /// `build_pyramid` pyramid refused `insert_points_sharded` outright
    /// ("not shard-resident") — that half was removed on purpose when the
    /// single-database entry points became the one-element-slice case of
    /// the sharded ones, and the call is now simply the general form.
    #[test]
    fn sharded_and_single_node_entry_points_refuse_each_other() {
        let part = grid_partitioner();
        let mut shards = seeded_shards(64);
        let mut sharded =
            crate::pyramid::build_pyramid_on_shards(&mut shards, &part, &cfg()).unwrap();
        let mut db = seeded_db(64);
        let mut single = build_pyramid(&mut db, &cfg()).unwrap();
        let pt = [RawPoint::new(901, 10.0, 10.0, &[1.0])];
        let raw_rows = |dbs: &[Database]| -> Vec<usize> {
            dbs.iter().map(|d| d.table("pts").unwrap().len()).collect()
        };
        let before = (raw_rows(&shards), raw_rows(std::slice::from_ref(&db)));

        // a four-shard pyramid refuses one database…
        assert!(matches!(
            sharded.insert_points(&mut db, &pt),
            Err(LodError::Maintenance(_))
        ));
        assert!(matches!(
            sharded.delete_points(&mut db, &[1]),
            Err(LodError::Maintenance(_))
        ));
        // …and two shards; a one-database pyramid refuses four
        assert!(matches!(
            sharded.insert_points_sharded(&mut shards[..2], &pt),
            Err(LodError::Maintenance(_))
        ));
        assert!(matches!(
            single.insert_points_sharded(&mut shards, &pt),
            Err(LodError::Maintenance(_))
        ));
        assert_eq!(
            before,
            (raw_rows(&shards), raw_rows(std::slice::from_ref(&db))),
            "a refused batch mutates nothing"
        );
        assert!(
            sharded.can_maintain() && single.can_maintain(),
            "refusals must not poison state"
        );
        // the right count goes through, under either name
        sharded.insert_points_sharded(&mut shards, &pt).unwrap();
        single
            .insert_points_sharded(std::slice::from_mut(&mut db), &pt)
            .unwrap();
        assert_matches_scratch(&db, &cfg(), &single);
    }

    #[test]
    fn sharded_mid_apply_failure_poisons_the_state() {
        let part = grid_partitioner();
        let mut shards = seeded_shards(64);
        let mut p = crate::pyramid::build_pyramid_on_shards(&mut shards, &part, &cfg()).unwrap();
        // sabotage one shard's level-1 table: the repair fails after the
        // raw insert landed on some shard
        shards[0].drop_table("pts_lod1").unwrap();
        let r = p.insert_points_sharded(&mut shards, &[RawPoint::new(800, 10.0, 10.0, &[1.0])]);
        assert!(r.is_err());
        assert!(!p.can_maintain());
        assert!(matches!(
            p.delete_points_sharded(&mut shards, &[1]),
            Err(LodError::Maintenance(_))
        ));
    }

    /// A candidate of `count` points stacked at `(x, 5)`: count is the
    /// retention priority.
    fn stack(id: i64, x: f64, count: i64) -> Cluster {
        let mut c = Cluster::from_point(id * 100, x, 5.0, &[1.0]);
        for j in 1..count {
            c.merge(&Cluster::from_point(id * 100 + j, x, 5.0, &[1.0]));
        }
        c
    }

    /// Cell `i` of the row `y = 0`.
    fn at(i: i64) -> Cell {
        Cell { x: i, y: 0 }
    }

    const ROW_X: [f64; 6] = [9.0, 18.0, 27.0, 35.5, 45.0, 53.0];

    /// The undecided candidates of the six-cell row below.
    fn six_in_a_row() -> LevelState {
        let mut st = LevelState::default();
        for (i, (x, n)) in (0..).zip(ROW_X.iter().zip([50, 40, 30, 10, 20, 5])) {
            st.fold_candidate(at(i), &stack(i, *x, n));
        }
        st
    }

    /// Two repair components that grow into each other merge, and the
    /// merged run decides what full retention decides. Six cells in a row
    /// (spacing 10, one level unit per raw unit), each candidate within
    /// spacing of its row neighbours only:
    ///
    /// ```text
    /// cell      0    1    2    3    4    5
    /// count    50   40   30   10   20    5 → 6
    /// before    R   a0    R   a2    R   a4
    /// after     –    R   a1   a4    R   a4
    /// ```
    ///
    /// Emptying cell 0 and growing cell 5 starts components {0, 1} and
    /// {4, 5}. Cell 1's flip pulls in 2, cell 2's flip pulls in 3, which
    /// touches 4: the two merge. Run alone, the left component would keep
    /// cell 3 as a mark — its absorber 4 is a region cell, so neither its
    /// grid nor the external boundary holds it.
    #[test]
    fn components_that_grow_into_each_other_merge() {
        let mut st = six_in_a_row();
        retain_with_spacing(&mut st, 1.0, 10.0);
        let before: Vec<bool> = (0..6).map(|i| st.is_retained(at(i))).collect();
        assert_eq!(before, [true, false, true, false, true, false]);

        st.set_cand(at(0), None);
        st.set_cand(at(5), Some(stack(5, ROW_X[5], 6)));
        let dirty: FxHashSet<Cell> = [at(0), at(5)].into_iter().collect();
        let mut start = Region::default();
        for c in [at(0), at(1), at(4), at(5)] {
            start.add(c);
        }
        assert_eq!(
            start.components().count(),
            2,
            "the batch starts two components"
        );

        let settled = settle(&st, 1.0, 10.0, &dirty);
        assert!(settled.fates.is_some(), "six cells never fall back");
        let merged: Vec<usize> = settled.region.components().collect();
        assert_eq!(merged.len(), 1, "the components grew into one");
        assert_eq!(settled.region.cells[merged[0]].len(), 6);

        let mut full = st.clone();
        let outcome = repair_level(&mut st, 1.0, 10.0, &dirty);
        retain_with_spacing(&mut full, 1.0, 10.0);
        assert_eq!(st.first_difference(&full), None);
        let after: Vec<Option<Cell>> = (1..6)
            .map(|i| st.record(at(i)).unwrap().fate().absorber(at(i)))
            .collect();
        assert_eq!(after, [None, Some(at(1)), Some(at(4)), None, Some(at(4))]);
        assert!(!outcome.fallback);
        assert_eq!(outcome.region_cells, 6);
    }

    /// A component that settles runs no more: beside a cascade that runs
    /// three rounds, a lone dirty cell far away is evaluated once.
    #[test]
    fn a_settled_component_is_not_run_again() {
        let far = Cell { x: 40, y: 40 };
        let mut st = six_in_a_row();
        st.fold_candidate(far, &stack(9, 405.0, 3));
        retain_with_spacing(&mut st, 1.0, 10.0);
        st.set_cand(at(0), None);
        let mut grown = stack(9, 405.0, 3);
        grown.merge(&Cluster::from_point(999, 405.0, 5.0, &[1.0]));
        st.set_cand(far, Some(grown));
        let dirty: FxHashSet<Cell> = [at(0), far].into_iter().collect();
        let mut full = st.clone();
        let outcome = repair_level(&mut st, 1.0, 10.0, &dirty);
        retain_with_spacing(&mut full, 1.0, 10.0);
        assert_eq!(st.first_difference(&full), None);
        // the row grows a cell a round, {0, 1} to {0, …, 3} (cell 3 keeps
        // its membership: absorbed by 4 now); the far cell's component
        // runs in the first round only, where rerunning the whole region
        // would evaluate 3 + 4 + 5 cells
        assert_eq!(outcome.retention_cells, (2 + 3 + 4) + 1);
        assert_eq!(outcome.region_cells, 5);
    }

    #[test]
    fn maintenance_records_pyramid_repair_spans() {
        let mut db = seeded_db(64);
        let mut p = build_pyramid(&mut db, &cfg()).unwrap();
        let reg = std::sync::Arc::new(kyrix_obs::Registry::new());
        p.set_observability(std::sync::Arc::clone(&reg));
        let ins = (p.insert_points(&mut db, &[RawPoint::new(700, 9.0, 9.0, &[0.0])])).unwrap();
        let del = p.delete_points(&mut db, &[700]).unwrap();
        let h = reg.histogram("span.pyramid.repair").snapshot();
        assert_eq!(h.count(), 2, "one span per maintenance batch");
        // the counters add up the batches' per-level tallies
        let levels = || ins.levels.iter().chain(&del.levels);
        let in_place: usize = levels().map(|l| l.rows_in_place).sum();
        let evaluated: usize = levels().map(|l| l.retention_cells).sum();
        assert!(in_place > 0, "a zero-weight point moves no representative");
        assert!(evaluated > 0);
        assert_eq!(reg.counter("lod.rows_in_place").get(), in_place as u64);
        assert_eq!(reg.counter("lod.retention_cells").get(), evaluated as u64);
    }
}
