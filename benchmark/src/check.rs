//! Output checks. A failed check counts its interaction as a miss and
//! fails the run.
//!
//! * every step: each visible row's box intersects the viewport, and no
//!   data id appears twice (a mark duplicated across tiles would);
//! * every [`ORACLE_EVERY`]th step: the visible ids equal a brute-force
//!   filter over that level's rows, read from the harness's own copy of
//!   the data — planner-, cache- and shard-blind;
//! * after a mutating run: every level table is back to its pre-run
//!   `(COUNT, SUM(cnt), row hash)`, and `SUM(cnt)` equals the raw count.

use crate::walk::Fnv;
use crate::world::World;
use kyrix_client::Session;
use kyrix_server::{LayerStore, SnapshotView};
use kyrix_storage::Rect;

/// Brute-force comparison cadence on the workloads that have one.
pub const ORACLE_EVERY: usize = 64;

/// One level's marks in canvas coordinates, as the oracle sees them.
struct LevelMarks {
    /// `(data id, centre x, centre y)`.
    marks: Vec<(i64, f64, f64)>,
    obj_w: f64,
    obj_h: f64,
}

/// The brute-force reference: every level's rows, scanned once from the
/// harness's shadow copy of the data.
pub struct Oracle {
    levels: Vec<LevelMarks>,
}

impl Oracle {
    pub fn build(world: &World) -> Self {
        let levels = (0..=world.lod.levels)
            .map(|k| {
                let LayerStore::SeparableRaw {
                    table,
                    x_affine,
                    y_affine,
                    obj_w,
                    obj_h,
                    ..
                } = world.store(k)
                else {
                    panic!("level {k} is not served off a separable store");
                };
                // every level table starts (id, x, y, ...)
                let mut marks = Vec::with_capacity(world.level_rows(k));
                for db in &world.shadow {
                    db.table(&table)
                        .expect("level table exists on every shard")
                        .scan(|_, row| {
                            let f = |i: usize| row.get(i).as_f64().expect("numeric position");
                            marks.push((
                                row.get(0).as_i64().expect("integer id"),
                                x_affine.apply(f(1)),
                                y_affine.apply(f(2)),
                            ));
                        })
                        .expect("level table scans");
                }
                LevelMarks {
                    marks,
                    obj_w,
                    obj_h,
                }
            })
            .collect();
        Oracle { levels }
    }

    /// Ascending ids of the level's marks whose box intersects `viewport`.
    pub fn visible_ids(&self, level: usize, viewport: &Rect) -> Vec<i64> {
        let l = &self.levels[level];
        let mut ids: Vec<i64> = l
            .marks
            .iter()
            .filter(|(_, x, y)| Rect::centered(*x, *y, l.obj_w, l.obj_h).intersects(viewport))
            .map(|(id, _, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// What a session shows after a step: ascending data ids, or why the
/// output is wrong.
pub fn visible_ids(session: &mut Session, viewport: &Rect) -> Result<Vec<i64>, String> {
    let canvas = session.canvas_id().to_string();
    let layout = session
        .server()
        .store(&canvas, 0)
        .map_err(|e| e.to_string())?
        .layout()
        .ok_or("layer 0 has no row layout")?;
    let visible = session.visible(usize::MAX).map_err(|e| e.to_string())?;
    let rows = visible
        .first()
        .map(|(_, rows)| rows.as_slice())
        .unwrap_or(&[]);
    let mut ids = Vec::with_capacity(rows.len());
    for row in rows {
        if !layout.bbox(row).intersects(viewport) {
            return Err(format!(
                "row {:?} lies outside viewport {viewport:?}",
                row.get(0)
            ));
        }
        ids.push(row.get(0).as_i64().map_err(|e| e.to_string())?);
    }
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("duplicate data id in viewport {viewport:?}"));
    }
    Ok(ids)
}

/// Fold one step's visible ids into a running checksum.
pub fn fold_ids(h: &mut Fnv, step: usize, ids: &[i64]) {
    h.write_u64(step as u64);
    h.write_u64(ids.len() as u64);
    for id in ids {
        h.write_u64(*id as u64);
    }
}

/// `(COUNT, SUM(cnt), order-free row hash)` of one level table.
pub type TableSignature = (usize, i64, u64);

/// Signatures of the raw table (`SUM(cnt)` reads as its row count) and
/// every clustered level, from the server's published head.
pub fn table_signatures(world: &World) -> Vec<TableSignature> {
    let view = world.server.snapshot();
    (0..=world.lod.levels)
        .map(|k| signature(&*view, &world.lod.level_table(k), k > 0))
        .collect()
}

fn signature(view: &dyn SnapshotView, table: &str, clustered: bool) -> TableSignature {
    let result = view
        .query(&format!("SELECT * FROM {table}"), &[])
        .expect("level table reads back");
    let mut sum_cnt = 0i64;
    let mut hash = 0u64;
    for row in &result.rows {
        // (id, x, y, cnt, ...) on clustered levels; one point per raw row
        sum_cnt += if clustered {
            row.get(3).as_i64().expect("cnt is an integer")
        } else {
            1
        };
        let mut h = Fnv::new();
        h.write(&row.encode());
        hash = hash.wrapping_add(h.finish());
    }
    (result.rows.len(), sum_cnt, hash)
}

/// Compare post-run signatures with the pre-run ones.
pub fn signatures_restored(before: &[TableSignature], after: &[TableSignature]) -> Vec<String> {
    let mut errors = Vec::new();
    for (k, (b, a)) in before.iter().zip(after).enumerate() {
        if b != a {
            errors.push(format!(
                "level {k} table changed: {b:?} before, {a:?} after"
            ));
        }
        if a.1 != after[0].0 as i64 {
            errors.push(format!(
                "level {k} SUM(cnt) = {} but the raw table holds {} rows",
                a.1, after[0].0
            ));
        }
    }
    errors
}
