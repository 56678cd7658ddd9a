//! The writer side: insert-64 / delete-the-same-ids batches folded into
//! the pyramid through `KyrixServer::mutate_shards` (single node: the
//! one-database case `mutate_raw` wraps), either on an open 20 Hz schedule
//! beside a reader (`mutate_mix`) or back to back (the per-layer probes).

use crate::walk::Rng;
use crate::world::World;
use kyrix_lod::{LodPyramid, MaintenanceReport, RawPoint};
use kyrix_server::{DirtyRegion, KyrixServer, ServerError};
use kyrix_storage::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Points per insert batch (and ids per delete batch).
pub const BATCH: usize = 64;
/// The open-loop mutator's schedule: one batch every 50 ms.
pub const PERIOD: Duration = Duration::from_millis(50);
/// Ids of inserted points start here, far above any galaxy row.
const FRESH_ID_BASE: i64 = 60_000_000;

/// One applied batch.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// When the batch was due (back-to-back batches: when it started).
    pub due: Instant,
    /// When `mutate_shards` was entered and when it returned (successor
    /// published).
    pub started: Instant,
    pub done: Instant,
    /// The closure — the pyramid repair — began here and took this long.
    pub repair_started: Instant,
    pub repair: Duration,
    /// Level-table rows rewritten.
    pub rows_changed: usize,
}

impl Applied {
    /// Due time → published: what the user who made the change waits.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator started the batch.
    pub fn lag(&self) -> Duration {
        self.started - self.due
    }

    /// `mutate_shards` minus the closure: copy-on-write begin, publish,
    /// cache eviction.
    pub fn publish_self(&self) -> Duration {
        (self.done - self.started).saturating_sub(self.repair)
    }
}

/// Generates and applies the alternating batches. Owns the pyramid's
/// maintenance handle for the duration.
pub struct Mutator<'w> {
    server: &'w KyrixServer,
    pyramid: &'w mut LodPyramid,
    tables: Vec<String>,
    extent: (f64, f64),
    rng: Rng,
    /// Ids of the batch inserted last and not yet deleted.
    live: Vec<i64>,
    rounds: u64,
}

impl<'w> Mutator<'w> {
    pub fn new(world: &'w World, pyramid: &'w mut LodPyramid, seed: u64) -> Self {
        let tables = (0..=world.lod.levels)
            .map(|k| world.lod.level_table(k))
            .collect();
        Mutator {
            server: &world.server,
            pyramid,
            tables,
            extent: (world.scale.galaxy.width, world.scale.galaxy.height),
            rng: Rng::new(seed ^ 0x6d75_7461_7465),
            live: Vec::new(),
            rounds: 0,
        }
    }

    /// Whether the next batch is a delete (an insert is outstanding).
    pub fn delete_pending(&self) -> bool {
        !self.live.is_empty()
    }

    /// Apply the next batch of the alternation, due at `due`.
    pub fn apply_next(&mut self, due: Instant) -> Result<Applied, ServerError> {
        let insert = self.live.is_empty();
        let points = if insert {
            fresh_batch(&mut self.rng, self.extent, self.rounds)
        } else {
            Vec::new()
        };
        let ids = if insert {
            points.iter().map(|p| p.id).collect()
        } else {
            std::mem::take(&mut self.live)
        };
        let tables: Vec<&str> = self.tables.iter().map(String::as_str).collect();
        let pyramid = &mut *self.pyramid;
        let started = Instant::now();
        let (mut repair_started, mut repair) = (started, Duration::ZERO);
        let report = self.server.mutate_shards(&tables, |shards| {
            repair_started = Instant::now();
            let report = fold(pyramid, shards, insert, &points, &ids)?;
            repair = repair_started.elapsed();
            let dirty = report
                .dirty_regions()
                .map(|(table, rect)| DirtyRegion::new(table, rect))
                .collect();
            Ok((report, dirty))
        })?;
        let done = Instant::now();
        if insert {
            self.live = ids;
            self.rounds += 1;
        }
        Ok(Applied {
            due,
            started,
            done,
            repair_started,
            repair,
            rows_changed: report.rows_changed(),
        })
    }
}

/// A batch of [`BATCH`] new points scattered over the whole canvas, with
/// ids no other round uses; integer-valued measures keep the level sums
/// exact.
pub fn fresh_batch(rng: &mut Rng, extent: (f64, f64), round: u64) -> Vec<RawPoint> {
    (0..BATCH)
        .map(|i| {
            RawPoint::new(
                FRESH_ID_BASE + (round as i64) * BATCH as i64 + i as i64,
                1.0 + rng.unit() * (extent.0 - 2.0),
                1.0 + rng.unit() * (extent.1 - 2.0),
                &[(1 + rng.below(999)) as f64, rng.below(256) as f64],
            )
        })
        .collect()
}

/// One maintenance call on whichever pyramid flavour the world holds.
pub fn fold(
    pyramid: &mut LodPyramid,
    shards: &mut [Database],
    insert: bool,
    points: &[RawPoint],
    ids: &[i64],
) -> Result<MaintenanceReport, ServerError> {
    match (shards, insert) {
        ([db], true) => pyramid.insert_points(db, points),
        ([db], false) => pyramid.delete_points(db, ids),
        (shards, true) => pyramid.insert_points_sharded(shards, points),
        (shards, false) => pyramid.delete_points_sharded(shards, ids),
    }
    .map_err(|e| ServerError::Config(e.to_string()))
}

/// What the scheduled mutator did over a run.
#[derive(Debug, Default)]
pub struct ScheduleLog {
    pub applied: Vec<Applied>,
    /// Slots the generator could not use because the previous batch was
    /// still running when they came due.
    pub skipped: u64,
    pub errors: Vec<String>,
}

/// Run the open-loop schedule until `stop` is raised, then finish the
/// outstanding delete so the data ends where it began. A batch that is
/// still running when later slots come due skips those slots (counted);
/// its successor is timed from the slot it actually takes.
pub fn run_schedule(mutator: &mut Mutator<'_>, stop: &AtomicBool) -> ScheduleLog {
    let mut log = ScheduleLog::default();
    let t0 = Instant::now();
    let mut slot = 0u32;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        if stopping && !mutator.delete_pending() {
            break;
        }
        let due = t0 + PERIOD * slot;
        // spin, never sleep: a sleeping mutator wakes on whichever core the
        // scheduler likes — often the reader's, where it then waits for a
        // timer tick and time-shares — and the run measures the scheduler.
        // A thread that is always runnable keeps a core to itself.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        match mutator.apply_next(due) {
            Ok(applied) => log.applied.push(applied),
            Err(e) => {
                log.errors.push(e.to_string());
                break;
            }
        }
        // next slot: the first one not yet past
        let elapsed_slots = (t0.elapsed().as_nanos() / PERIOD.as_nanos()) as u32;
        let next = (slot + 1).max(elapsed_slots);
        log.skipped += u64::from(next - (slot + 1));
        slot = next;
    }
    log
}
