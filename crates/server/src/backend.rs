//! Backend-agnostic serving: the snapshot-view and serving-backend traits.
//!
//! Every fetch primitive in [`crate::fetch`] resolves against a
//! [`SnapshotView`] — an immutable, versioned read surface — instead of a
//! concrete [`DatabaseSnapshot`]. Two implementations exist:
//!
//! * [`DatabaseSnapshot`]: today's single-node head, unchanged;
//! * [`ShardedSnapshot`]: N shard databases plus a
//!   [`QueryRouter`]. A query runs through
//!   [`kyrix_parallel::scatter_gather`]: decomposed, routed to the shards
//!   whose grid cells its predicate touches, executed in parallel
//!   (`shard.scatter` span, per-shard `fetch.shard{i}` histogram family),
//!   and recombined by the coordinator merge (`shard.merge` span).
//!
//! Above the view sits the [`ServingBackend`]: the mutable head pointer
//! the server publishes through. It pins the current view, hands out
//! copy-on-write shard clones for a mutation, and publishes the successor
//! atomically. Versions are **per-shard vectors**: a mutation whose dirty
//! regions route to shards {1, 3} bumps only those entries, so a session
//! comparing vectors knows exactly how stale its pin is, while the scalar
//! [`SnapshotView::version`] (the max entry) keeps the single counter the
//! caches and mutation log key on.

use crate::snapshot::DatabaseSnapshot;
use kyrix_obs::{Gauge, HistogramFamily, Registry};
use kyrix_parallel::{scatter_gather_prepared, QueryRouter};
use kyrix_storage::{Database, Prepared, QueryResult, Rect, Schema, StorageError, Value};
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

    /// Parse and execute one SELECT against the view.
    fn query(&self, sql: &str, params: &[Value]) -> kyrix_storage::Result<QueryResult> {
        self.execute(&Prepared::new(sql)?, params)
    }

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

impl SnapshotView for DatabaseSnapshot {
    fn versions(&self) -> &[u64] {
        self.version_slice()
    }

    fn execute(&self, prepared: &Prepared, params: &[Value]) -> kyrix_storage::Result<QueryResult> {
        self.database().execute(prepared, params)
    }

    /// Through [`Database::query`], which also answers `EXPLAIN SELECT ..`
    /// ([`crate::KyrixServer::explain`] asks for the fetch statement's plan).
    fn query(&self, sql: &str, params: &[Value]) -> kyrix_storage::Result<QueryResult> {
        self.database().query(sql, params)
    }

    fn table_schema(&self, table: &str) -> kyrix_storage::Result<Schema> {
        Ok(self.database().table(table)?.schema.clone())
    }

    fn has_table(&self, table: &str) -> bool {
        self.database().has_table(table)
    }

    fn table_len(&self, table: &str) -> kyrix_storage::Result<usize> {
        Ok(self.database().table(table)?.len())
    }

    fn spatial_count(&self, table: &str, rect: &Rect) -> kyrix_storage::Result<Option<usize>> {
        local_spatial_count(self.database(), table, rect)
    }
}

/// Telemetry hooks a [`ShardedSnapshot`] records into (optional so pinned
/// calibration views stay out of the serving histograms, mirroring the
/// single-node launch installing its query observer after tuning).
#[derive(Clone)]
pub(crate) struct ShardTelemetry {
    pub(crate) obs: Arc<Registry>,
    /// Per-shard execution latency: `fetch.shard{i}` children + total.
    pub(crate) family: HistogramFamily,
}

/// An immutable view over N shard databases, queried by scatter-gather.
///
/// Rows of partitioned tables live on exactly one shard, so concatenating
/// routed per-shard results (in shard-index order, via the coordinator
/// merge) yields the same row multiset as a single node holding all rows.
pub struct ShardedSnapshot {
    shards: Vec<Database>,
    versions: Vec<u64>,
    router: Arc<QueryRouter>,
    telemetry: Option<ShardTelemetry>,
    /// Outstanding-snapshot gauge (see [`DatabaseSnapshot`]); decremented
    /// on drop.
    tracked: Option<Arc<Gauge>>,
}

impl ShardedSnapshot {
    pub(crate) fn new(shards: Vec<Database>, versions: Vec<u64>, router: Arc<QueryRouter>) -> Self {
        debug_assert_eq!(shards.len(), versions.len());
        ShardedSnapshot {
            shards,
            versions,
            router,
            telemetry: None,
            tracked: None,
        }
    }

    pub(crate) fn with_telemetry(mut self, telemetry: ShardTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    pub(crate) fn tracked(mut self, gauge: Arc<Gauge>) -> Self {
        gauge.add(1);
        self.tracked = Some(gauge);
        self
    }

    /// The routing table (raw + level tables → partitioners).
    pub fn router(&self) -> &QueryRouter {
        &self.router
    }

    /// One shard's database (read-only; tests and diagnostics).
    pub fn shard(&self, i: usize) -> &Database {
        &self.shards[i]
    }

    /// Copy-on-write clones of every shard (a mutation's scratch space).
    pub(crate) fn clone_shards(&self) -> Vec<Database> {
        self.shards.clone()
    }
}

impl Drop for ShardedSnapshot {
    fn drop(&mut self) {
        if let Some(g) = &self.tracked {
            g.add(-1);
        }
    }
}

impl SnapshotView for ShardedSnapshot {
    fn versions(&self) -> &[u64] {
        &self.versions
    }

    fn execute(&self, prepared: &Prepared, params: &[Value]) -> kyrix_storage::Result<QueryResult> {
        let gathered = scatter_gather_prepared(&self.shards, &self.router, prepared, params)?;
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

    fn table_schema(&self, table: &str) -> kyrix_storage::Result<Schema> {
        Ok(self.shards[0].table(table)?.schema.clone())
    }

    fn has_table(&self, table: &str) -> bool {
        self.shards[0].has_table(table)
    }

    fn table_len(&self, table: &str) -> kyrix_storage::Result<usize> {
        if self.router.partitioner(table).is_some() {
            let mut total = 0;
            for shard in &self.shards {
                total += shard.table(table)?.len();
            }
            Ok(total)
        } else {
            Ok(self.shards[0].table(table)?.len())
        }
    }

    fn spatial_count(&self, table: &str, rect: &Rect) -> kyrix_storage::Result<Option<usize>> {
        let targets = match self.router.route_rect(table, rect) {
            Some(ids) => ids,
            None => (0..self.shards.len()).collect(),
        };
        let mut total = 0;
        for i in targets {
            match local_spatial_count(&self.shards[i], table, rect)? {
                Some(n) => total += n,
                None => return Ok(None),
            }
        }
        Ok(Some(total))
    }
}

/// The mutable head pointer: pins the published [`SnapshotView`], hands
/// out copy-on-write shard clones to a mutation, and swaps in the
/// successor atomically. Exactly one publisher runs at a time (the
/// server's writer mutex); readers never block.
pub trait ServingBackend: Send + Sync {
    /// Pin the currently published view.
    fn head(&self) -> Arc<dyn SnapshotView>;

    /// How many shards this backend serves from.
    fn shard_count(&self) -> usize;

    /// Copy-on-write clones of every shard, for a mutation to apply to
    /// (single node: one entry).
    fn begin_write(&self) -> Vec<Database>;

    /// Publish mutated shards as the head at `version`. `shard_dirty[i]`
    /// says whether shard `i` actually changed — untouched shards keep
    /// their previous version-vector entry. Returns the retired head so
    /// the caller can drop it once it holds no lock a reader needs:
    /// when no reader pins it, that drop is what frees the version.
    fn publish(
        &self,
        shards: Vec<Database>,
        version: u64,
        shard_dirty: &[bool],
    ) -> Arc<dyn SnapshotView>;

    /// Route a table-space rect to the shards owning intersecting rows
    /// (`None`: unroutable, treat every shard as affected).
    fn route_rect(&self, table: &str, rect: &Rect) -> Option<Vec<usize>>;
}

/// Today's backend: one database, one snapshot head.
pub(crate) struct SingleNodeBackend {
    head: RwLock<Arc<DatabaseSnapshot>>,
    gauge: Arc<Gauge>,
}

impl SingleNodeBackend {
    pub(crate) fn new(db: Database, gauge: Arc<Gauge>) -> Self {
        let head = DatabaseSnapshot::new(db, 0).tracked(Arc::clone(&gauge));
        SingleNodeBackend {
            head: RwLock::new(Arc::new(head)),
            gauge,
        }
    }
}

impl ServingBackend for SingleNodeBackend {
    fn head(&self) -> Arc<dyn SnapshotView> {
        Arc::clone(&*self.head.read()) as Arc<dyn SnapshotView>
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn begin_write(&self) -> Vec<Database> {
        vec![self.head.read().database().clone()]
    }

    fn publish(
        &self,
        mut shards: Vec<Database>,
        version: u64,
        _shard_dirty: &[bool],
    ) -> Arc<dyn SnapshotView> {
        let db = shards.pop().expect("single-node publish needs one shard");
        let next = DatabaseSnapshot::new(db, version).tracked(Arc::clone(&self.gauge));
        std::mem::replace(&mut *self.head.write(), Arc::new(next)) as Arc<dyn SnapshotView>
    }

    fn route_rect(&self, _table: &str, _rect: &Rect) -> Option<Vec<usize>> {
        Some(vec![0])
    }
}

/// The sharded backend: N shard databases behind one published
/// [`ShardedSnapshot`] head.
pub(crate) struct ShardedBackend {
    head: RwLock<Arc<ShardedSnapshot>>,
    router: Arc<QueryRouter>,
    telemetry: ShardTelemetry,
    gauge: Arc<Gauge>,
}

impl ShardedBackend {
    pub(crate) fn new(
        shards: Vec<Database>,
        router: Arc<QueryRouter>,
        telemetry: ShardTelemetry,
        gauge: Arc<Gauge>,
    ) -> Result<Self, StorageError> {
        if router.shard_count() != shards.len() {
            return Err(StorageError::ExecError(format!(
                "router implies {} shards, backend has {}",
                router.shard_count(),
                shards.len()
            )));
        }
        let versions = vec![0; shards.len()];
        let head = ShardedSnapshot::new(shards, versions, Arc::clone(&router))
            .with_telemetry(telemetry.clone())
            .tracked(Arc::clone(&gauge));
        Ok(ShardedBackend {
            head: RwLock::new(Arc::new(head)),
            router,
            telemetry,
            gauge,
        })
    }
}

impl ServingBackend for ShardedBackend {
    fn head(&self) -> Arc<dyn SnapshotView> {
        Arc::clone(&*self.head.read()) as Arc<dyn SnapshotView>
    }

    fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    fn begin_write(&self) -> Vec<Database> {
        self.head.read().clone_shards()
    }

    fn publish(
        &self,
        shards: Vec<Database>,
        version: u64,
        shard_dirty: &[bool],
    ) -> Arc<dyn SnapshotView> {
        let prev = self.head.read().versions().to_vec();
        let versions: Vec<u64> = prev
            .iter()
            .enumerate()
            .map(|(i, &v)| if shard_dirty[i] { version } else { v })
            .collect();
        let next = ShardedSnapshot::new(shards, versions, Arc::clone(&self.router))
            .with_telemetry(self.telemetry.clone())
            .tracked(Arc::clone(&self.gauge));
        std::mem::replace(&mut *self.head.write(), Arc::new(next)) as Arc<dyn SnapshotView>
    }

    fn route_rect(&self, table: &str, rect: &Rect) -> Option<Vec<usize>> {
        self.router.route_rect(table, rect)
    }
}
