//! The serving backend: one immutable, versioned [`Snapshot`] over N shard
//! databases — a single node is the one-shard case — and the `Head`
//! pointer the server publishes successors through.
//!
//! Every fetch primitive in [`crate::fetch`] resolves against the
//! [`SnapshotView`] trait, whose only implementor is [`Snapshot`]:
//!
//! * **one shard** answers with that [`Database`]'s own `execute`/`query`
//!   — no decomposition, no routing, no `shard.*` span, no allocation;
//! * **several shards** answer through
//!   [`kyrix_parallel::scatter_gather_prepared`]: the statement is
//!   decomposed, routed to the shards whose grid cells its predicate
//!   touches, executed in parallel (`shard.scatter` span, per-shard
//!   `fetch.shard{i}` histogram family) and recombined by the coordinator
//!   merge (`shard.merge` span). Each shard run goes through its database's
//!   observed execution, so `sql.execute` counts one observation per run.
//!
//! The server pins the head per fetch (two atomic ops, no lock held
//! afterwards), a mutation applies to copy-on-write clones of the shards
//! off to the side, and `Head::publish` swaps the successor in, so a
//! reader never blocks behind a repair and never observes a half-applied
//! mutation; a retired snapshot lives until its last reader drops it.
//! Versions are **per-shard vectors**: a mutation whose dirty regions
//! route to shards {1, 3} bumps only those entries, so a session comparing
//! vectors knows exactly how stale its pin is, while the scalar
//! [`SnapshotView::version`] (the max entry) keeps the single counter the
//! caches and mutation log key on.

use kyrix_obs::{Gauge, HistogramFamily, Registry};
use kyrix_parallel::{scatter_gather_prepared, QueryRouter};
use kyrix_storage::{Database, Prepared, QueryResult, Rect, Schema, Value};
use parking_lot::RwLock;
use std::sync::Arc;

/// An immutable, versioned read surface: what a fetch resolves against.
///
/// One SQL round trip per [`SnapshotView::execute`] call regardless of
/// how many shards execute it — sharding is invisible above this trait
/// (cache keys gain nothing from it).
pub trait SnapshotView: Send + Sync {
    /// Per-shard published versions (single node: one entry). Entry `i`
    /// is the data version of the last mutation that touched shard `i`.
    fn versions(&self) -> &[u64];

    /// The scalar data version: the newest per-shard entry.
    fn version(&self) -> u64 {
        self.versions().iter().copied().max().unwrap_or(0)
    }

    /// How many shards back this view (1 for single-node).
    fn shard_count(&self) -> usize {
        self.versions().len()
    }

    /// Execute one prepared SELECT against the view — the fetch path: a
    /// layer's statement is prepared once at launch and outlives every
    /// snapshot version.
    fn execute(&self, prepared: &Prepared, params: &[Value]) -> kyrix_storage::Result<QueryResult>;

    /// Parse and execute one read-only statement against the view: a
    /// SELECT, or `EXPLAIN <select>` ([`crate::KyrixServer::explain`] asks
    /// for the fetch statement's plan).
    fn query(&self, sql: &str, params: &[Value]) -> kyrix_storage::Result<QueryResult>;

    /// Schema of a table (identical on every shard; DDL is broadcast).
    fn table_schema(&self, table: &str) -> kyrix_storage::Result<Schema>;

    /// Whether the view has a table named `table`.
    fn has_table(&self, table: &str) -> bool;

    /// Total rows of `table` in the view (a partitioned table sums its
    /// shards; a replicated one counts one copy).
    fn table_len(&self, table: &str) -> kyrix_storage::Result<usize>;

    /// Count rows of `table` whose indexed position intersects `rect`
    /// (no fetch). `Ok(None)` when the table has no spatial index.
    fn spatial_count(&self, table: &str, rect: &Rect) -> kyrix_storage::Result<Option<usize>>;
}

/// Count via the first spatial index of `table` in one database.
fn local_spatial_count(
    db: &Database,
    table: &str,
    rect: &Rect,
) -> kyrix_storage::Result<Option<usize>> {
    let t = db.table(table)?;
    let Some(idx) = t
        .indexes()
        .position(|i| matches!(i.kind, kyrix_storage::IndexKind::Spatial(_)))
    else {
        return Ok(None);
    };
    let mut n = 0;
    t.probe_spatial(idx, rect, |_| n += 1);
    Ok(Some(n))
}

/// Where a several-shard [`Snapshot`] records its scatter-gather spans
/// (absent on pinned calibration views, which stay out of the serving
/// histograms, and on one-shard snapshots, which never scatter).
#[derive(Clone)]
pub(crate) struct ShardTelemetry {
    pub(crate) obs: Arc<Registry>,
    /// Per-shard execution latency: `fetch.shard{i}` children + total.
    pub(crate) family: HistogramFamily,
}

/// An immutable view over N shard databases at one version vector — the
/// only [`SnapshotView`] there is. A single-node server publishes
/// one-shard snapshots.
///
/// Rows of partitioned tables live on exactly one shard, so concatenating
/// routed per-shard results (in shard-index order, via the coordinator
/// merge) yields the same row multiset as a single node holding all rows.
///
/// Cheapness comes from the storage layer: a [`Database`] clone shares
/// pages and index nodes with the original, and a write copies the page
/// and the root-to-leaf nodes it changes, so a successor costs what its
/// mutation wrote and an old snapshot pins only what has since diverged.
pub struct Snapshot {
    shards: Vec<Database>,
    versions: Vec<u64>,
    /// How the shards' tables are partitioned. Present whenever there are
    /// several shards; a one-shard snapshot never consults it.
    router: Option<Arc<QueryRouter>>,
    telemetry: Option<ShardTelemetry>,
    /// Outstanding-snapshot gauge this snapshot is counted in (the
    /// server's `snapshot.pinned`: published head + any older versions
    /// still held by readers); decremented on drop.
    tracked: Option<Arc<Gauge>>,
}

impl Snapshot {
    /// A version-0 view over `shards`, partitioned per `router` (which
    /// several shards need; one database may go without).
    pub(crate) fn new(shards: Vec<Database>, router: Option<Arc<QueryRouter>>) -> Self {
        debug_assert!(shards.len() == 1 || router.is_some());
        Snapshot {
            versions: vec![0; shards.len()],
            shards,
            router,
            telemetry: None,
            tracked: None,
        }
    }

    /// Record scatter-gather spans into `telemetry` (successors inherit it).
    pub(crate) fn with_telemetry(mut self, telemetry: Option<ShardTelemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Count this snapshot in `gauge` until it drops (successors inherit it).
    pub(crate) fn tracked(mut self, gauge: Arc<Gauge>) -> Self {
        gauge.add(1);
        self.tracked = Some(gauge);
        self
    }

    /// Pin a point-in-time view of one database (cheap: shares every table
    /// until the original mutates one). Used outside the serving path —
    /// e.g. to run a store's fetch against a copy of the data — so the
    /// version is 0.
    pub fn pin(db: &Database) -> Self {
        Self::new(vec![db.clone()], None)
    }

    /// Copy-on-write clones of every shard (a mutation's scratch space).
    pub(crate) fn clone_shards(&self) -> Vec<Database> {
        self.shards.clone()
    }

    /// The shards whose rows of `table` can intersect `rect` (table
    /// coordinates). `None` means every shard: there is only one, or the
    /// table is not partitioned by a layout that routes rectangles.
    pub(crate) fn route_rect(&self, table: &str, rect: &Rect) -> Option<Vec<usize>> {
        match &self.shards[..] {
            [_] => None,
            _ => self.router().route_rect(table, rect),
        }
    }

    fn router(&self) -> &QueryRouter {
        self.router
            .as_deref()
            .expect("several shards are only ever published with their router")
    }

    /// The view `shards` publish as at `version`: entries of the version
    /// vector move only where `shard_dirty` says the shard changed.
    fn successor(&self, shards: Vec<Database>, version: u64, shard_dirty: &[bool]) -> Snapshot {
        let versions = self
            .versions
            .iter()
            .zip(shard_dirty)
            .map(|(&v, &dirty)| if dirty { version } else { v })
            .collect();
        let next = Snapshot {
            shards,
            versions,
            router: self.router.clone(),
            telemetry: self.telemetry.clone(),
            tracked: None,
        };
        match &self.tracked {
            Some(gauge) => next.tracked(Arc::clone(gauge)),
            None => next,
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if let Some(g) = &self.tracked {
            g.add(-1);
        }
    }
}

impl SnapshotView for Snapshot {
    fn versions(&self) -> &[u64] {
        &self.versions
    }

    fn execute(&self, prepared: &Prepared, params: &[Value]) -> kyrix_storage::Result<QueryResult> {
        let shards = match &self.shards[..] {
            [db] => return db.execute(prepared, params),
            shards => shards,
        };
        let gathered = scatter_gather_prepared(shards, self.router(), prepared, params)?;
        if let Some(t) = &self.telemetry {
            t.obs
                .record_external_span("shard.scatter", gathered.scatter);
            for (i, dur) in &gathered.shards {
                t.family.record_duration(&i.to_string(), *dur);
            }
            t.obs.record_external_span("shard.merge", gathered.merge);
        }
        Ok(gathered.result)
    }

    fn query(&self, sql: &str, params: &[Value]) -> kyrix_storage::Result<QueryResult> {
        if let [db] = &self.shards[..] {
            return db.query(sql, params);
        }
        match Prepared::new(sql) {
            Ok(prepared) => self.execute(&prepared, params),
            // not a SELECT: every shard plans alike, so shard 0 answers an
            // `EXPLAIN <select>` for all of them — and refuses the rest
            Err(_) => self.shards[0].query(sql, params),
        }
    }

    fn table_schema(&self, table: &str) -> kyrix_storage::Result<Schema> {
        Ok(self.shards[0].table(table)?.schema.clone())
    }

    fn has_table(&self, table: &str) -> bool {
        self.shards[0].has_table(table)
    }

    fn table_len(&self, table: &str) -> kyrix_storage::Result<usize> {
        let partitioned = self
            .router
            .as_ref()
            .is_some_and(|r| r.partitioner(table).is_some());
        let holders = if partitioned { self.shards.len() } else { 1 };
        let mut total = 0;
        for shard in &self.shards[..holders] {
            total += shard.table(table)?.len();
        }
        Ok(total)
    }

    fn spatial_count(&self, table: &str, rect: &Rect) -> kyrix_storage::Result<Option<usize>> {
        let routed = self.route_rect(table, rect);
        let mut total = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            if routed.as_ref().is_some_and(|ids| !ids.contains(&i)) {
                continue;
            }
            match local_spatial_count(shard, table, rect)? {
                Some(n) => total += n,
                None => return Ok(None),
            }
        }
        Ok(Some(total))
    }
}

/// The mutable head pointer: pins the published [`Snapshot`] and swaps in
/// its successor atomically. Exactly one publisher runs at a time (the
/// server's writer mutex); readers never block.
pub(crate) struct Head(RwLock<Arc<Snapshot>>);

impl Head {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        Head(RwLock::new(Arc::new(snapshot)))
    }

    /// Pin the currently published snapshot.
    pub(crate) fn pin(&self) -> Arc<Snapshot> {
        Arc::clone(&self.0.read())
    }

    /// Publish mutated shards as the head at `version`. `shard_dirty[i]`
    /// says whether shard `i` actually changed — untouched shards keep
    /// their previous version-vector entry. Returns the retired head so
    /// the caller can drop it once it holds no lock a reader needs:
    /// when no reader pins it, that drop is what frees the version.
    pub(crate) fn publish(
        &self,
        shards: Vec<Database>,
        version: u64,
        shard_dirty: &[bool],
    ) -> Arc<Snapshot> {
        let mut head = self.0.write();
        let next = head.successor(shards, version, shard_dirty);
        std::mem::replace(&mut *head, Arc::new(next))
    }
}
