//! The Kyrix backend server (paper Figure 1): owns the database, the layer
//! stores produced by precomputation, the backend caches, and the
//! prefetcher; answers the frontend's region requests with each layer's
//! static tiles or dynamic box.

use crate::backend::{Head, ShardTelemetry, Snapshot, SnapshotView};
use crate::block::RowBlock;
use crate::cache::CacheStats;
use crate::cache::LruCache;
use crate::cost::CostModel;
use crate::dbox::BoxPolicy;
use crate::error::{Result, ServerError};
use crate::fetch::{compute_fetch_box, count_rect, fetch_plan_cold, fetch_rect, TileMatcher};
use crate::metrics::FetchMetrics;
use crate::policy::PlanPolicy;
use crate::precompute::{
    precompute_layer, separable_store, FetchPlan, LayerRowLayout, LayerStore, PrecomputeReport,
};
use crate::prefetch::{
    neighbor_rects, predict_viewport, rank_by_similarity, RegionSignature, SemanticTracker,
};
use crate::tile::{TileId, Tiling, MAX_COVERING_TILES};
use kyrix_core::{CompiledApp, CompiledLayer};
use kyrix_obs::{Counter, FamilyMember, Gauge, Registry};
use kyrix_parallel::QueryRouter;
use kyrix_storage::fxhash::FxHashMap;
use kyrix_storage::{CowStats, Database, Rect, Row, Value};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Mutation-log entries kept for incremental frontend invalidation.
/// Sessions further behind than this refetch everything instead.
const MUTATION_LOG_CAP: usize = 64;

/// Tasks the worker's queue holds: pan hints and tile fills. A task that
/// finds it full is dropped and counted in `prefetch.dropped`: a worker
/// that has fallen this far behind would warm viewports the user has
/// already left.
pub const PREFETCH_QUEUE_BOUND: usize = 32;

/// Which §4 predictor drives the prefetch worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Extrapolate the user's pan velocity (ForeCache "momentum").
    Momentum,
    /// Rank the viewport's 8 neighbors by data-characteristic similarity
    /// to recently viewed regions and warm the `top_k` most similar
    /// (ForeCache "semantic").
    Semantic {
        /// How many of the 8 neighbors to warm, best-ranked first.
        top_k: usize,
    },
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How each `(canvas, layer)`'s fetch plan is chosen at launch.
    pub policy: PlanPolicy,
    /// Cost model fetch metrics are scored with ([`FetchMetrics::modeled_ms`]).
    pub cost: CostModel,
    /// Backend tile-cache capacity in *tuples* (0 disables).
    pub backend_cache_rows: usize,
    /// Cached dynamic boxes kept per layer (0 disables).
    pub box_cache_entries: usize,
    /// Predictor of the prefetch worker; `None` predicts nothing and
    /// [`KyrixServer::hint`] is then a no-op. The worker itself also runs
    /// without a predictor when a layer serves static tiles through a
    /// non-zero tile cache: it fills the tiles of regions served cold.
    pub prefetch: Option<PrefetchPolicy>,
}

impl ServerConfig {
    /// Uniform configuration: one plan for every layer of every canvas.
    pub fn new(plan: FetchPlan) -> Self {
        Self::from_policy(PlanPolicy::Uniform(plan))
    }

    /// Configuration with an explicit per-layer plan policy.
    pub fn from_policy(policy: PlanPolicy) -> Self {
        ServerConfig {
            policy,
            cost: CostModel::paper_default(),
            backend_cache_rows: 200_000,
            box_cache_entries: 4,
            prefetch: None,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Set the backend tile-cache capacity in tuples (0 disables).
    pub fn with_backend_cache(mut self, rows: usize) -> Self {
        self.backend_cache_rows = rows;
        self
    }

    /// Start a prefetch worker driven by `policy`.
    pub fn with_prefetch(mut self, policy: PrefetchPolicy) -> Self {
        self.prefetch = Some(policy);
        self
    }
}

/// Response to a region request ([`KyrixServer::fetch_region`]).
#[derive(Debug, Clone)]
pub struct BoxResponse {
    /// What was actually fetched (contains the viewport): the dynamic
    /// box, the union of the covering tiles, or — for a region over
    /// several tiles none of which was cached — the viewport itself.
    pub rect: Rect,
    /// Rows inside it (a dynamic box's are shared with the box cache).
    pub rows: Arc<Vec<Row>>,
    /// What serving the region cost.
    pub metrics: FetchMetrics,
}

type TileKey = (u32, u32, i64); // canvas idx, layer, tile key
type CachedRows = (Arc<RowBlock>, u64); // rows + wire bytes
/// What a tile-cache lookup saw: the data version and the cache
/// generation. A fetch made after it may enter the cache only while both
/// still hold ([`Inner::still_current`]).
type Seen = (u64, u64);
type CachedBox = (Rect, Arc<Vec<Row>>, u64); // rect, rows, bytes
type BoxCacheShelf = VecDeque<CachedBox>;

/// A tile's rows as a region serve read them.
enum TileRows {
    /// A miss: the fetched rows themselves (the cache took a copy).
    Fetched(Vec<Row>),
    /// A hit: the cached block.
    Cached(Arc<RowBlock>),
}

impl TileRows {
    fn len(&self) -> usize {
        match self {
            TileRows::Fetched(rows) => rows.len(),
            TileRows::Cached(block) => block.len(),
        }
    }
}

/// What serving a tile from the cache costs.
fn hit_metrics((block, bytes): &CachedRows) -> FetchMetrics {
    FetchMetrics {
        requests: 1,
        rows: block.len() as u64,
        bytes: *bytes,
        cache_hits: 1,
        ..Default::default()
    }
}

/// A rectangle of one physical table whose rows changed in a
/// [`KyrixServer::mutate_shards`] call, in that table's own coordinates.
/// The server maps it onto the canvases/layers the table backs and
/// invalidates exactly the intersecting cache state.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyRegion {
    /// Physical table whose rows changed.
    pub table: String,
    /// Extent of the change in table coordinates.
    pub rect: Rect,
}

impl DirtyRegion {
    /// A dirty region over one table.
    pub fn new(table: impl Into<String>, rect: Rect) -> Self {
        DirtyRegion {
            table: table.into(),
            rect,
        }
    }
}

/// One canvas-space invalidation entry: `(canvas id, layer, rect)`.
type MutationEntry = (String, u32, Rect);

/// Canvas-space invalidation entries of one mutation, stamped with the
/// data version it produced.
struct MutationLog {
    version: u64,
    entries: VecDeque<(u64, Vec<MutationEntry>)>,
}

/// `(canvas idx, layer idx)`: the key of everything kept per layer.
type LayerKey = (u32, u32);

/// Serving totals of one layer. Server-wide totals are sums over layers,
/// so a fetch takes no metrics lock shared with another layer's.
#[derive(Default)]
struct LayerStats {
    /// Foreground metrics — and therefore of the layer's resolved plan:
    /// how a plan assignment performs live.
    foreground: FetchMetrics,
    /// Backend-side work the prefetch worker did on this layer.
    prefetch: FetchMetrics,
}

/// Everything the server keeps per `(canvas, layer)`, built once at
/// launch: one lookup per fetch resolves all of it.
struct LayerServing {
    store: LayerStore,
    /// Plan the policy resolved for the layer. Both plan-matching sites
    /// (region fetch, prefetch dispatch) consult this, never a
    /// server-wide plan.
    plan: FetchPlan,
    /// Region-serve latency recorder of the `fetch.region.layer{canvas/N}`
    /// family, resolved at launch so a fetch formats no label.
    latency: FamilyMember,
    stats: Mutex<LayerStats>,
}

struct Inner {
    app: CompiledApp,
    /// The published *head* [`Snapshot`]. Every fetch pins it (the head
    /// lock is held only for that clone) and resolves against it with no
    /// lock held; [`KyrixServer::mutate_shards`] builds the successor
    /// shard set off to the side and publishes it here. Readers therefore
    /// never block behind a mutation. How many shards the snapshot spans
    /// is invisible above this field.
    head: Head,
    /// Serializes mutators ([`KyrixServer::mutate_shards`]). Never held by
    /// any fetch path.
    writer: Mutex<()>,
    layers: FxHashMap<LayerKey, LayerServing>,
    cost: CostModel,
    tile_cache: Mutex<LruCache<TileKey, CachedRows>>,
    /// The tile cache's capacity in rows: a miss heavier than this is
    /// never copied into a block the cache would refuse.
    tile_cache_rows: usize,
    box_caches: Mutex<FxHashMap<LayerKey, BoxCacheShelf>>,
    box_cache_entries: usize,
    /// Data-version stamp + per-mutation invalidation entries.
    mutations: Mutex<MutationLog>,
    /// Telemetry: span histograms, counters, gauges. The storage layer's
    /// query observer feeds `span.sql.execute` here; the fetch and
    /// mutation paths emit the rest.
    obs: Arc<Registry>,
    /// Rows the covering tiles of tiled region fetches returned
    /// (`fetch.region.rows_in`) and rows the merge kept
    /// (`fetch.region.rows_out`); in − out is the tile-straddler tax. A
    /// region fetched cold as its viewport adds its rows to both.
    region_rows_in: Arc<Counter>,
    region_rows_out: Arc<Counter>,
}

impl Inner {
    /// Serving state over a launched head: empty caches, zeroed totals,
    /// version 0, and one [`LayerServing`] per resolved `(store, plan)`.
    fn new(
        app: CompiledApp,
        head: Head,
        stores: FxHashMap<LayerKey, LayerStore>,
        plans: &FxHashMap<LayerKey, FetchPlan>,
        config: &ServerConfig,
        obs: Arc<Registry>,
    ) -> Self {
        let family = obs.histogram_family("fetch.region.layer");
        let layers = stores
            .into_iter()
            .map(|(key @ (ci, li), store)| {
                let label = format!("{}/{li}", app.canvases[ci as usize].id);
                let serving = LayerServing {
                    store,
                    plan: plans[&key],
                    latency: family.member(&label),
                    stats: Mutex::default(),
                };
                (key, serving)
            })
            .collect();
        Inner {
            app,
            head,
            writer: Mutex::new(()),
            layers,
            cost: config.cost,
            tile_cache: Mutex::new(LruCache::new(config.backend_cache_rows)),
            tile_cache_rows: config.backend_cache_rows,
            box_caches: Mutex::new(FxHashMap::default()),
            box_cache_entries: config.box_cache_entries,
            mutations: Mutex::new(MutationLog {
                version: 0,
                entries: VecDeque::new(),
            }),
            region_rows_in: obs.counter("fetch.region.rows_in"),
            region_rows_out: obs.counter("fetch.region.rows_out"),
            obs,
        }
    }

    fn canvas_idx(&self, canvas: &str) -> Result<u32> {
        self.app
            .canvases
            .iter()
            .position(|c| c.id == canvas)
            .map(|i| i as u32)
            .ok_or_else(|| ServerError::BadRequest(format!("unknown canvas `{canvas}`")))
    }

    /// The one per-fetch lookup: a layer's key and everything kept for it.
    fn layer(&self, canvas: &str, layer: usize) -> Result<(LayerKey, &LayerServing)> {
        let key = (self.canvas_idx(canvas)?, layer as u32);
        self.layers
            .get(&key)
            .map(|serving| (key, serving))
            .ok_or_else(|| ServerError::BadRequest(format!("unknown layer {layer} of `{canvas}`")))
    }

    fn canvas_id(&self, ci: u32) -> &str {
        &self.app.canvases[ci as usize].id
    }

    /// Warm one tile of a layer served under `tiling` (a prefetch): a
    /// cached tile counts as a background hit, a missing one is fetched
    /// and cached.
    fn warm_tile(
        &self,
        snap: &dyn SnapshotView,
        key @ (ci, li): LayerKey,
        serving: &LayerServing,
        tiling: Tiling,
        tile: TileId,
    ) -> Result<()> {
        // Cache entries are always valid for the *published* version
        // (invalidation drops intersecting ones under the same lock as the
        // version bump). Use the cache only when our pinned snapshot IS
        // the published version; a worker holding an older snapshot
        // (a mutation published mid-warm) fetches and skips the insert.
        let (hit, seen) = {
            let _lookup = self.obs.span("cache.lookup");
            let mut cache = self.tile_cache.lock();
            if self.version() == snap.version() {
                let seen = (snap.version(), cache.generation());
                (cache.get(&(ci, li, tile.key())).cloned(), Some(seen))
            } else {
                (None, None)
            }
        };
        match hit {
            Some(cached) => serving.record(&hit_metrics(&cached), true),
            None => {
                let (_, metrics) =
                    self.fetch_tile_missed(snap, key, serving, tiling, tile, seen)?;
                serving.record(&metrics, true);
            }
        }
        Ok(())
    }

    /// The miss half of a tile serve: the tile's rows fetched, moved to
    /// the caller after a copy of them went into the cache (if the lookup
    /// `seen` still holds; `None`, a lookup skipped on a stale snapshot,
    /// caches nothing), and what the fetch cost, for the caller to record.
    fn fetch_tile_missed(
        &self,
        snap: &dyn SnapshotView,
        (ci, li): LayerKey,
        serving: &LayerServing,
        tiling: Tiling,
        tile: TileId,
        seen: Option<Seen>,
    ) -> Result<(Vec<Row>, FetchMetrics)> {
        // no lock held while the query runs: the snapshot is immutable
        let (rows, mut metrics) = fetch_rect(snap, &serving.store, &tiling.tile_rect(tile))?;
        if let Some(seen) = seen {
            self.cache_tile((ci, li, tile.key()), &rows, metrics.bytes, seen);
        }
        metrics.requests = 1;
        metrics.cache_misses = 1;
        Ok((rows, metrics))
    }

    /// Whether the state a lookup saw (`seen`) still holds: the data is at
    /// its version and no [`KyrixServer::clear_caches`] ran since. Checked
    /// while *holding the cache lock*, which publication holds across its
    /// bump-and-retain: an insert either lands before the retain (and is
    /// dropped by it) or observes the bumped version and skips, so a
    /// stale fetch can never undo an invalidation or a clear.
    fn still_current(
        &self,
        cache: &LruCache<TileKey, CachedRows>,
        (version, generation): Seen,
    ) -> bool {
        cache.generation() == generation && self.version() == version
    }

    /// Copy a fetched tile into the cache as one block, if the state its
    /// lookup saw (`seen`) still holds. A tile heavier than the whole cache is never
    /// copied; returns whether the tile fits at all.
    fn cache_tile(&self, key: TileKey, rows: &[Row], bytes: u64, seen: Seen) -> bool {
        let weight = rows.len().max(1);
        if weight > self.tile_cache_rows {
            return false;
        }
        // copied before the lock is taken: no lookup waits for it
        let block = Arc::new(RowBlock::from_rows(rows));
        let mut cache = self.tile_cache.lock();
        if self.still_current(&cache, seen) {
            cache.insert(key, (block, bytes), weight);
        }
        true
    }

    /// A layer's dynamic box for `viewport` under `policy`: a shelved box
    /// containing the viewport on a hit; on a miss the box the policy
    /// computes, fetched and shelved.
    fn fetch_box_cached(
        &self,
        snap: &dyn SnapshotView,
        key @ (ci, _): LayerKey,
        serving: &LayerServing,
        policy: &BoxPolicy,
        viewport: &Rect,
        background: bool,
    ) -> Result<BoxResponse> {
        // backend box cache: any cached box containing the viewport serves
        // it — but only when our pinned snapshot is still the published
        // version (shelved boxes are valid for the published version; see
        // fetch_tile_cached)
        if self.box_cache_entries > 0 {
            let cached = {
                let _lookup = self.obs.span("cache.lookup");
                let caches = self.box_caches.lock();
                if self.version() == snap.version() {
                    caches.get(&key).and_then(|shelf| {
                        shelf
                            .iter()
                            .find(|(r, _, _)| r.contains(viewport))
                            .map(|(r, rows, bytes)| (*r, rows.clone(), *bytes))
                    })
                } else {
                    None
                }
            };
            if let Some((rect, rows, bytes)) = cached {
                let metrics = FetchMetrics {
                    requests: 1,
                    rows: rows.len() as u64,
                    bytes,
                    cache_hits: 1,
                    ..Default::default()
                };
                serving.record(&metrics, background);
                return Ok(BoxResponse {
                    rect,
                    rows,
                    metrics,
                });
            }
        }

        let canvas_bounds = self.app.canvases[ci as usize].bounds();
        let rect = compute_fetch_box(snap, &serving.store, policy, viewport, &canvas_bounds);
        let (rows, mut metrics) = fetch_rect(snap, &serving.store, &rect)?;
        let rows = Arc::new(rows);
        metrics.requests = 1;
        metrics.cache_misses = 1;
        // as with tiles: the snapshot tag is re-checked under the shelf
        // lock, which publication holds across its bump-and-retain, so a
        // stale fetch can never shelve data a mutation just invalidated
        if self.box_cache_entries > 0 {
            let mut caches = self.box_caches.lock();
            if self.version() == snap.version() {
                let shelf = caches.entry(key).or_default();
                // two concurrent misses on the same viewport both arrive
                // here with (near-)identical boxes; shelving both would
                // evict a *distinct* cached box from the fixed-size shelf.
                // Skip the insert when an already-shelved box contains
                // this one, and conversely drop shelved boxes this one
                // contains (it supersedes them).
                if !shelf.iter().any(|(r, _, _)| r.contains(&rect)) {
                    shelf.retain(|(r, _, _)| !rect.contains(r));
                    shelf.push_front((rect, rows.clone(), metrics.bytes));
                    shelf.truncate(self.box_cache_entries);
                }
            }
        }
        serving.record(&metrics, background);
        Ok(BoxResponse {
            rect,
            rows,
            metrics,
        })
    }

    /// Current data-version stamp.
    fn version(&self) -> u64 {
        self.mutations.lock().version
    }

    /// Sum one field of every layer's stats (server-wide totals are
    /// computed, not kept).
    fn sum_stats(&self, field: impl Fn(&LayerStats) -> &FetchMetrics) -> FetchMetrics {
        let mut total = FetchMetrics::default();
        for serving in self.layers.values() {
            total.merge(field(&serving.stats.lock()));
        }
        total
    }
}

impl LayerServing {
    fn record(&self, metrics: &FetchMetrics, background: bool) {
        if background {
            // Prefetch work is backend-internal: no frontend↔backend round
            // trip happens and no bytes cross the frontend link until a
            // foreground request is served — which records them itself,
            // possibly as a cache hit. Zero `requests` and `bytes` here so
            // `totals() + prefetch_totals()` over a warmed trace equals a
            // cold run's totals (prefetched traffic is never double-counted
            // in modeled_ms); keep the DBMS-side work (queries, db time),
            // the tuples the worker pulled, and the cache accounting.
            let backend_side = FetchMetrics {
                requests: 0,
                bytes: 0,
                ..*metrics
            };
            self.stats.lock().prefetch.merge(&backend_side);
        } else {
            self.stats.lock().foreground.merge(metrics);
        }
    }
}

enum Task {
    /// A pan: the viewport the user now sees on canvas index `canvas`
    /// and the smoothed per-step velocity that led there.
    Hint {
        canvas: u32,
        viewport: Rect,
        velocity: (f64, f64),
    },
    /// The covering tiles of a region served cold, to be loaded into the
    /// tile cache while the state the region's lookup saw still holds. It
    /// names no snapshot: a queued fill pins nothing.
    Fill {
        layer: LayerKey,
        tiling: Tiling,
        tiles: Vec<TileId>,
        seen: Seen,
    },
    /// Acknowledge once every task queued before it has been handled.
    Flush(mpsc::Sender<()>),
    Shutdown,
    /// Panic the worker, as a fault in a prediction would.
    #[cfg(test)]
    Panic,
}

/// The worker's handle: a bounded queue into the one thread that predicts,
/// warms and fills.
struct Prefetcher {
    tx: SyncSender<Task>,
    /// Tasks refused because the queue was full (`prefetch.dropped`).
    dropped: Arc<Counter>,
    /// Tasks refused because the worker is gone
    /// (`prefetch.worker_dead`).
    dead: Arc<Gauge>,
    obs: Arc<Registry>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    fn spawn(inner: Arc<Inner>, policy: Option<PrefetchPolicy>) -> Result<Self> {
        let (tx, rx) = mpsc::sync_channel::<Task>(PREFETCH_QUEUE_BOUND);
        let obs = Arc::clone(&inner.obs);
        let handle = std::thread::Builder::new()
            .name("kyrix-prefetch".to_string())
            .spawn(move || {
                let mut worker = Worker {
                    inner,
                    policy,
                    semantic: FxHashMap::default(),
                };
                while let Ok(task) = rx.recv() {
                    match task {
                        Task::Hint {
                            canvas,
                            viewport,
                            velocity,
                        } => worker.hint(canvas, &viewport, velocity),
                        Task::Fill {
                            layer,
                            tiling,
                            tiles,
                            seen,
                        } => worker.fill(layer, tiling, &tiles, seen),
                        Task::Flush(ack) => {
                            let _ = ack.send(());
                        }
                        Task::Shutdown => break,
                        #[cfg(test)]
                        Task::Panic => panic!("the prefetch worker was told to panic"),
                    }
                }
            })
            .map_err(|e| ServerError::Config(format!("cannot spawn the prefetch worker: {e}")))?;
        Ok(Prefetcher {
            tx,
            dropped: obs.counter("prefetch.dropped"),
            dead: obs.gauge("prefetch.worker_dead"),
            obs,
            handle: Some(handle),
        })
    }

    /// Queue `task` without waiting: a full queue drops it
    /// (`prefetch.dropped`), a dead worker too (`prefetch.worker_dead`).
    fn offer(&self, task: Task) {
        match self.tx.try_send(task) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.dropped.add(1),
            Err(TrySendError::Disconnected(_)) => self.dead.add(1),
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        let _ = self.tx.send(Task::Shutdown);
        if let Some(h) = self.handle.take() {
            if h.join().is_err() {
                self.obs.counter("prefetch.worker_panics").add(1);
            }
        }
    }
}

/// The worker thread's state: every prediction and fill runs here, never
/// on the thread that queued it.
struct Worker {
    inner: Arc<Inner>,
    /// The predictor pan hints drive (none arrive without one).
    policy: Option<PrefetchPolicy>,
    /// Per-canvas semantic profiles (data characteristics of recently
    /// viewed regions).
    semantic: FxHashMap<u32, SemanticTracker>,
}

impl Worker {
    /// Predict from one pan hint and warm what the policy picks, all
    /// against one pinned snapshot: if a mutation publishes mid-warm, the
    /// cache inserts simply skip (snapshot tag mismatch).
    fn hint(&mut self, ci: u32, viewport: &Rect, velocity: (f64, f64)) {
        let Some(policy) = self.policy else {
            return;
        };
        let snap = self.inner.head.pin();
        match policy {
            PrefetchPolicy::Momentum => {
                if let Some(rect) = predict_viewport(viewport, velocity) {
                    self.warm(&*snap, ci, &rect);
                }
            }
            PrefetchPolicy::Semantic { top_k } => {
                let Some(current) = self.signature(&*snap, ci, viewport) else {
                    return;
                };
                let bounds = self.inner.app.canvases[ci as usize].bounds();
                let candidates: Vec<(Rect, RegionSignature)> = neighbor_rects(viewport)
                    .into_iter()
                    .filter(|r| r.intersects(&bounds))
                    .filter_map(|r| Some((r, self.signature(&*snap, ci, &r)?)))
                    .collect();
                let profile = self.semantic.entry(ci).or_default().observe(&current);
                let ranked = rank_by_similarity(profile, candidates);
                for rect in ranked.into_iter().take(top_k) {
                    // warm the whole span from here to the predicted
                    // neighbor, so any partial pan that way is covered
                    self.warm(&*snap, ci, &rect.union(viewport));
                }
            }
        }
    }

    /// Density signature of a region, from spatial-index counts on the
    /// canvas's first non-static layer (no data transfer). `None` when the
    /// canvas has no data layer or a count fails.
    fn signature(&self, snap: &dyn SnapshotView, ci: u32, rect: &Rect) -> Option<RegionSignature> {
        let layers = &self.inner.app.canvases[ci as usize].layers;
        let li = layers.iter().position(|l| !l.is_static)?;
        let store = &self.inner.layers.get(&(ci, li as u32))?.store;
        let counts: Vec<u64> = RegionSignature::cell_rects(rect)
            .iter()
            .map(|cell| count_rect(snap, store, cell).map(|n| n as u64))
            .collect::<Result<_>>()
            .ok()?;
        Some(RegionSignature::from_counts(&counts))
    }

    /// Warm `rect` on every non-static layer of canvas `ci`. On a sharded
    /// backend the warm is shard-aware for free: each warming fetch carries
    /// the predicted rect as its predicate, so the router sends it only to
    /// the shards whose grid cells it intersects.
    fn warm(&self, snap: &dyn SnapshotView, ci: u32, rect: &Rect) {
        let inner = &self.inner;
        for (li, layer) in inner.app.canvases[ci as usize].layers.iter().enumerate() {
            if layer.is_static {
                continue;
            }
            let key = (ci, li as u32);
            let Some(serving) = inner.layers.get(&key) else {
                continue;
            };
            // dispatch per the layer's *resolved* plan: one predicted
            // viewport may warm tiles on one layer and a box on the next
            match serving.plan {
                FetchPlan::StaticTiles { size, .. } => {
                    let tiling = Tiling::new(size);
                    let Ok(tiles) = tiling.covering(rect) else {
                        continue; // degenerate prediction
                    };
                    for tile in tiles {
                        let _ = inner.warm_tile(snap, key, serving, tiling, tile);
                    }
                }
                FetchPlan::DynamicBox { policy } => {
                    // widen the prediction slightly so a near-miss (momentum
                    // estimate off by a few pixels) still serves the real
                    // next viewport from the box cache
                    let widened = rect.inflate_frac(0.15, 0.15);
                    let _ = inner.fetch_box_cached(snap, key, serving, &policy, &widened, true);
                }
            }
        }
    }

    /// Load the `tiles` a cold region missed into the tile cache, as long
    /// as the state the region's lookup saw (`seen`) holds: a tile already
    /// cached is skipped, the rest are fetched off the head and inserted
    /// under the rule every insert follows ([`Inner::still_current`]).
    /// The first tile too heavy for the whole cache ends the fill, so a
    /// layer whose tiles outweigh the cache wastes one fetch per fill,
    /// not one per tile. The work is recorded as background, in
    /// `prefetch_totals`.
    fn fill(&self, key @ (ci, li): LayerKey, tiling: Tiling, tiles: &[TileId], seen: Seen) {
        let inner = &self.inner;
        let snap = inner.head.pin();
        let Some(serving) = inner.layers.get(&key) else {
            return;
        };
        if snap.version() != seen.0 {
            return;
        }
        for &tile in tiles {
            let tile_key = (ci, li, tile.key());
            {
                let cache = inner.tile_cache.lock();
                if !inner.still_current(&cache, seen) {
                    return; // cleared or invalidated since: nothing to fill
                }
                if cache.peek(&tile_key).is_some() {
                    continue;
                }
            }
            let Ok((rows, metrics)) = fetch_rect(&*snap, &serving.store, &tiling.tile_rect(tile))
            else {
                return;
            };
            serving.record(&metrics, true);
            if !inner.cache_tile(tile_key, &rows, metrics.bytes, seen) {
                return;
            }
        }
    }
}

/// The Kyrix backend server.
pub struct KyrixServer {
    inner: Arc<Inner>,
    prefetcher: Option<Prefetcher>,
    config: ServerConfig,
}

impl KyrixServer {
    /// Precompute every layer's store, resolve the plan policy per
    /// `(canvas, layer)`, and start the server. Returns the per-layer
    /// precomputation reports.
    ///
    /// A layer's store does not depend on its plan, so stores are built
    /// once, before plans are resolved.
    pub fn launch(
        app: CompiledApp,
        mut db: Database,
        config: ServerConfig,
    ) -> Result<(Self, Vec<PrecomputeReport>)> {
        let mut stores = FxHashMap::default();
        let mut reports = Vec::new();
        for (key, layer) in Self::layers_of(&app) {
            let (store, report) = precompute_layer(&mut db, layer, &app.name)?;
            stores.insert(key, store);
            reports.push(report);
        }
        let server = Self::start(app, vec![db], None, stores, config)?;
        Ok((server, reports))
    }

    /// Every layer of the app with its key, in canvas-then-layer order.
    fn layers_of(app: &CompiledApp) -> impl Iterator<Item = (LayerKey, &CompiledLayer)> {
        app.canvases.iter().enumerate().flat_map(|(ci, canvas)| {
            let layers = canvas.layers.iter().enumerate();
            layers.map(move |(li, layer)| ((ci as u32, li as u32), layer))
        })
    }

    /// The serving registry, with every database of the backend-to-be
    /// reporting into it. The observer
    /// closure survives every copy-on-write clone of a database, so
    /// successor snapshots keep reporting `sql.execute` spans.
    fn observe_queries(dbs: &mut [Database]) -> Arc<Registry> {
        let obs = Arc::new(Registry::new());
        for db in dbs {
            let reg = Arc::clone(&obs);
            let scanned = reg.counter("sql.rows_scanned");
            let pages = reg.counter("sql.heap_pages");
            db.set_query_observer(Some(Arc::new(move |_sql, dur, stats| {
                reg.record_external_span("sql.execute", dur);
                scanned.add(stats.rows_scanned);
                pages.add(stats.heap_pages);
            })));
        }
        obs.gauge("snapshot.head_version").set(0);
        obs
    }

    /// The tail of every launch: resolve the policy for every layer,
    /// publish `shards` as the version-0 head (several shards record their
    /// scatter-gather spans; one never scatters), wire the stores and plans
    /// into the shared state and start the worker, if the config predicts
    /// or a layer caches tiles. Fails only when the OS refuses that worker
    /// its thread.
    fn start(
        app: CompiledApp,
        mut shards: Vec<Database>,
        router: Option<Arc<QueryRouter>>,
        stores: FxHashMap<LayerKey, LayerStore>,
        config: ServerConfig,
    ) -> Result<Self> {
        let plans: FxHashMap<LayerKey, FetchPlan> = Self::layers_of(&app)
            .map(|(key, layer)| (key, config.policy.resolve(layer)))
            .collect();
        let obs = Self::observe_queries(&mut shards);
        let telemetry = (shards.len() > 1).then(|| ShardTelemetry {
            obs: Arc::clone(&obs),
            family: obs.histogram_family("fetch.shard"),
        });
        let head = Snapshot::new(shards, router)
            .with_telemetry(telemetry)
            .tracked(obs.gauge("snapshot.pinned"));
        let inner = Arc::new(Inner::new(
            app,
            Head::new(head),
            stores,
            &plans,
            &config,
            obs,
        ));
        // the worker predicts when a policy is set, and fills the tiles
        // of cold regions wherever tiles are cached
        let fills = config.backend_cache_rows > 0
            && plans
                .values()
                .any(|plan| matches!(plan, FetchPlan::StaticTiles { .. }));
        let prefetcher = (config.prefetch.is_some() || fills)
            .then(|| Prefetcher::spawn(Arc::clone(&inner), config.prefetch))
            .transpose()?;
        Ok(KyrixServer {
            inner,
            prefetcher,
            config,
        })
    }

    /// Launch over `shards` — one [`Database`] per shard, partitioned per
    /// `router` — serving every fetch by scatter-gather: a request routes
    /// to the shards its rectangle intersects, each probes its own R-tree,
    /// and the coordinator merge recombines the rows. Everything above the
    /// backend (caches, prefetch, sessions) is unchanged — shards
    /// are invisible above the [`SnapshotView`] trait. One shard is served
    /// exactly as [`KyrixServer::launch`] serves its database: inline, with
    /// no routing, scatter or merge.
    ///
    /// Sharded serving fetches straight off the partitioned tables, so
    /// every non-static layer must take the §3.2 separable fast path
    /// (`SELECT *` transform, separable placement, per-shard point spatial
    /// index on the placement columns) — a materialized layer store would
    /// need a per-shard precompute pass and is refused at launch.
    pub fn launch_sharded(
        app: CompiledApp,
        shards: Vec<Database>,
        router: QueryRouter,
        config: ServerConfig,
    ) -> Result<Self> {
        if router.shard_count() != shards.len() {
            return Err(ServerError::Config(format!(
                "router implies {} shards, got {}",
                router.shard_count(),
                shards.len()
            )));
        }
        let router = Arc::new(router);
        // stores first, as in `launch`: separable stores serve both static
        // tiles and dynamic boxes
        let mut stores = FxHashMap::default();
        for (key @ (ci, li), layer) in Self::layers_of(&app) {
            let store = if layer.is_static {
                LayerStore::Static
            } else {
                separable_store(&shards[0], layer).ok_or_else(|| {
                    ServerError::Config(format!(
                        "layer {li} of canvas `{}` is not separable; sharded serving \
                         fetches straight off partitioned raw tables — relaunch \
                         single-node or make the layer separable",
                        app.canvases[ci as usize].id
                    ))
                })?
            };
            stores.insert(key, store);
        }
        Self::start(app, shards, Some(router), stores, config)
    }

    /// How many shards the backend serves from (1 for a
    /// [`KyrixServer::launch`]ed single-node server).
    pub fn shard_count(&self) -> usize {
        self.inner.head.pin().shard_count()
    }

    /// The compiled app this server serves.
    pub fn app(&self) -> &CompiledApp {
        &self.inner.app
    }

    /// The fetch plan resolved for one layer at launch.
    pub fn plan_for(&self, canvas: &str, layer: usize) -> Result<FetchPlan> {
        Ok(self.inner.layer(canvas, layer)?.1.plan)
    }

    /// The cost model fetch metrics are scored with.
    pub fn cost_model(&self) -> CostModel {
        self.inner.cost
    }

    /// The physical store backing a layer (exposed for tests/inspection).
    pub fn store(&self, canvas: &str, layer: usize) -> Result<LayerStore> {
        Ok(self.inner.layer(canvas, layer)?.1.store.clone())
    }

    /// Row accessor layout of a layer's rows (None for static layers),
    /// without copying the store.
    pub fn layout(&self, canvas: &str, layer: usize) -> Result<Option<LayerRowLayout>> {
        Ok(self.inner.layer(canvas, layer)?.1.store.layout())
    }

    /// The server's one fetch: everything intersecting a canvas
    /// rectangle, served under the layer's resolved plan — the dynamic box
    /// under boxes; under static tiles, the covering tiles through the
    /// tile cache (deduplicated — a tuple whose box straddles a tile edge
    /// arrives via several tiles and is kept from the first that sees it).
    /// A region over several tiles none of which is cached is fetched as
    /// the viewport itself, in one query, and the worker loads the tiles
    /// into the cache after the response returns; a one-tile region is
    /// fetched and cached as that tile. Tuple ids are unique within the
    /// response. Callers drive every canvas of a multi-level (LoD) app
    /// uniformly without matching on the plan; cache keys stay
    /// per-(canvas, layer), so levels never collide. A tile-aligned
    /// rectangle ([`Tiling::tile_rect`]) is served as exactly that one
    /// tile.
    ///
    /// The whole region is resolved against *one* pinned snapshot: even
    /// when the viewport spans many tiles and a mutation publishes midway,
    /// every row of the response comes from the same data version. A
    /// rectangle with a non-finite coordinate is a
    /// [`ServerError::BadRequest`], refused before anything is pinned.
    pub fn fetch_region(&self, canvas: &str, layer: usize, rect: &Rect) -> Result<BoxResponse> {
        if !rect.is_finite() {
            return Err(ServerError::BadRequest(format!(
                "viewport {rect:?} is not finite"
            )));
        }
        let obs = Arc::clone(&self.inner.obs);
        let _region = obs.span("fetch.region");
        let started = Instant::now();
        let snap = {
            let _pin = obs.span("snapshot.pin");
            self.inner.head.pin()
        };
        let (key, serving) = {
            let _resolve = obs.span("plan.resolve");
            self.inner.layer(canvas, layer)?
        };
        let out = match serving.plan {
            FetchPlan::DynamicBox { policy } => self
                .inner
                .fetch_box_cached(&*snap, key, serving, &policy, rect, false),
            FetchPlan::StaticTiles { size, .. } => {
                self.fetch_tiles(&*snap, key, serving, Tiling::new(size), rect)
            }
        };
        if out.is_ok() {
            serving.latency.record_duration(started.elapsed());
        }
        out
    }

    /// A region under static tiles: one lookup pass over the covering
    /// tiles, then the merge of cached and fetched tiles, or — every tile
    /// of several missed — the viewport fetched cold and the tiles queued
    /// for the worker to fill.
    fn fetch_tiles(
        &self,
        snap: &dyn SnapshotView,
        key @ (ci, li): LayerKey,
        serving: &LayerServing,
        tiling: Tiling,
        rect: &Rect,
    ) -> Result<BoxResponse> {
        let inner = &self.inner;
        let tiles = tiling.covering(rect)?;
        // Cache entries are always valid for the *published* version
        // (invalidation drops intersecting ones under the same lock as the
        // version bump). Look every covering tile up under one lock and
        // one version check, and only when our pinned snapshot IS the
        // published version; a reader holding an older snapshot (a
        // mutation published mid-request) serves itself from the snapshot
        // directly so every tile of its response is consistent.
        let (cached, seen) = {
            let _lookup = inner.obs.span("cache.lookup");
            let mut cache = inner.tile_cache.lock();
            if inner.version() == snap.version() {
                let cached: Vec<Option<CachedRows>> = tiles
                    .iter()
                    .map(|tile| cache.get(&(ci, li, tile.key())).cloned())
                    .collect();
                (cached, Some((snap.version(), cache.generation())))
            } else {
                (vec![None; tiles.len()], None)
            }
        };

        if tiles.len() > 1 && cached.iter().all(Option::is_none) {
            // nothing here will be reused before the step ends: fetch the
            // viewport, not its covering tiles
            let bounds = inner.app.canvases[ci as usize].bounds();
            let (rows, mut metrics) =
                fetch_plan_cold(snap, &serving.store, &serving.plan, &bounds, rect)?;
            metrics.cache_misses = tiles.len() as u64;
            serving.record(&metrics, false);
            inner.region_rows_in.add(rows.len() as u64);
            inner.region_rows_out.add(rows.len() as u64);
            if let (Some(worker), Some(seen)) = (&self.prefetcher, seen) {
                if inner.tile_cache_rows > 0 {
                    worker.offer(Task::Fill {
                        layer: key,
                        tiling,
                        tiles,
                        seen,
                    });
                }
            }
            return Ok(BoxResponse {
                rect: *rect,
                rows: Arc::new(rows),
                metrics,
            });
        }

        let store = &serving.store;
        // separable stores number tuple ids per fetch, so they repeat
        // across tiles: those rows get response-unique ids as they are
        // copied (callers dedup visible rows by tuple id)
        let fresh_id_col = match store {
            LayerStore::SeparableRaw { layout, .. } => Some(layout.width() - 1),
            _ => None,
        };
        let mut rows = Vec::new();
        let mut metrics = FetchMetrics::default();
        let mut covered = Rect::empty();
        for (&tile, hit) in tiles.iter().zip(cached) {
            let (tile_rows, tile_metrics) = match hit {
                Some(hit) => {
                    let metrics = hit_metrics(&hit);
                    serving.record(&metrics, false);
                    (TileRows::Cached(hit.0), metrics)
                }
                None => {
                    let (fetched, metrics) =
                        inner.fetch_tile_missed(snap, key, serving, tiling, tile, seen)?;
                    serving.record(&metrics, false);
                    (TileRows::Fetched(fetched), metrics)
                }
            };
            let _merge = inner.obs.span("merge");
            // A mark straddling a tile edge arrives through every tile
            // whose fetch sees it — with all its copies, when the table
            // holds identical rows. Keep a row only from the first
            // covering tile (row-major) that sees it. A tile's fetch is an
            // interval test per axis, so if any earlier covering tile saw
            // the row, this tile's left or upper neighbour did: replay
            // those two fetches' predicates on the row.
            let mut earlier = Vec::with_capacity(2);
            for (dx, dy) in [(1, 0), (0, 1)] {
                let before = TileId::new(tile.x - dx, tile.y - dy);
                if before.x >= tiles[0].x && before.y >= tiles[0].y {
                    earlier.extend(TileMatcher::new(store, tiling, before)?);
                }
            }
            inner.region_rows_in.add(tile_rows.len() as u64);
            rows.reserve(tile_rows.len());
            let mut keep = |mut row: Row| {
                if let Some(col) = fresh_id_col {
                    row.values[col] = Value::Int(rows.len() as i64);
                }
                rows.push(row);
            };
            // a missed tile's rows move into the response; a cached
            // tile's are read in place and only the kept ones built
            match tile_rows {
                TileRows::Fetched(fetched) => {
                    for row in fetched {
                        if !earlier.iter().any(|t| t.matches(&row)) {
                            keep(row);
                        }
                    }
                }
                TileRows::Cached(block) => {
                    for cells in block.rows() {
                        if !earlier.iter().any(|t| t.matches(cells)) {
                            keep(block.row(cells));
                        }
                    }
                }
            }
            metrics.merge(&tile_metrics);
            covered = covered.union(&tiling.tile_rect(tile));
        }
        inner.region_rows_out.add(rows.len() as u64);
        Ok(BoxResponse {
            rect: covered,
            rows: Arc::new(rows),
            metrics,
        })
    }

    /// Tell the prefetch worker the user panned to `viewport` on `canvas`
    /// with the smoothed per-step `velocity` (paper §4). The worker
    /// predicts with the configured [`PrefetchPolicy`] — momentum
    /// extrapolates the velocity, semantic ranks the viewport's neighbors —
    /// and warms the backend caches; this call only enqueues. A no-op when
    /// no policy is set; a hint that finds the queue full
    /// ([`PREFETCH_QUEUE_BOUND`]) is dropped and counted in the
    /// `prefetch.dropped` counter of [`KyrixServer::obs`], one that finds
    /// the worker gone in the `prefetch.worker_dead` gauge. A non-finite
    /// viewport or velocity predicts nothing and is dropped uncounted.
    pub fn hint(&self, canvas: &str, viewport: &Rect, velocity: (f64, f64)) {
        let Some(p) = &self.prefetcher else {
            return;
        };
        if self.config.prefetch.is_none() {
            return; // a fill-only worker predicts nothing
        }
        if !viewport.is_finite() || !velocity.0.is_finite() || !velocity.1.is_finite() {
            return;
        }
        let Ok(canvas) = self.inner.canvas_idx(canvas) else {
            return;
        };
        p.offer(Task::Hint {
            canvas,
            viewport: *viewport,
            velocity,
        });
    }

    /// Block until the worker has handled every task queued before this
    /// call — pan hints and tile fills alike (test/bench barrier;
    /// foreground requests never need it). Returns at once when the
    /// server runs no worker, and errs when its worker has died.
    pub fn drain_prefetch(&self) -> Result<()> {
        let Some(p) = &self.prefetcher else {
            return Ok(());
        };
        let (ack, done) = mpsc::channel();
        // a dead worker dropped the queue (the send errs) or, with the
        // queued flush, the ack sender (the recv errs): no hang either way
        if p.tx.send(Task::Flush(ack)).is_err() || done.recv().is_err() {
            return Err(ServerError::Config(
                "the prefetch worker has died".to_string(),
            ));
        }
        Ok(())
    }

    /// Cumulative foreground metrics: the sum of every layer's.
    pub fn totals(&self) -> FetchMetrics {
        self.inner.sum_stats(|s| &s.foreground)
    }

    /// Cumulative foreground metrics of one `(canvas, layer)` — and thus of
    /// the one plan the policy resolved for it. Zero until the layer serves
    /// its first foreground request.
    pub fn layer_totals(&self, canvas: &str, layer: usize) -> Result<FetchMetrics> {
        Ok(self.inner.layer(canvas, layer)?.1.stats.lock().foreground)
    }

    /// Cumulative background (prefetch) metrics. Prefetching is
    /// backend-internal, so `requests` and `bytes` are always 0 here — the
    /// foreground serve of a warmed region records them, exactly once.
    /// `queries` counts the worker's own DBMS work, which exceeds a cold
    /// run's when predictions miss (a wasted prefetch has no foreground
    /// counterpart); for a trace whose steps are all prefetch-warmed,
    /// [`KyrixServer::totals`] + `prefetch_totals` carries the same
    /// request/query/byte totals a cold run of that trace would.
    pub fn prefetch_totals(&self) -> FetchMetrics {
        self.inner.sum_stats(|s| &s.prefetch)
    }

    /// Zero every accumulated serving total (fetch metrics, per-layer
    /// totals, prefetch totals, cache statistics).
    pub fn reset_totals(&self) {
        for serving in self.inner.layers.values() {
            *serving.stats.lock() = LayerStats::default();
        }
        self.inner.tile_cache.lock().reset_stats();
    }

    // ------------------------------------------------------- observability

    /// The server's telemetry registry. Span histograms (`span.*`), the
    /// per-layer `fetch.region.layer{canvas/N}` family, snapshot/mutation
    /// counters and gauges all live here; callers may record their own
    /// instruments (e.g. a load harness's per-interaction latency) into
    /// the same registry so one dump carries the whole story.
    pub fn obs(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.obs)
    }

    /// Backend tile-cache accounting: hits, misses, and removals split by
    /// cause (capacity eviction vs. invalidation).
    pub fn backend_cache_stats(&self) -> CacheStats {
        self.inner.tile_cache.lock().stats()
    }

    /// Refresh the registry gauges that mirror sampled state (cache
    /// eviction causes, head version) and render the whole registry as
    /// machine-readable JSON.
    pub fn telemetry_json(&self) -> String {
        let s = self.backend_cache_stats();
        let obs = &self.inner.obs;
        obs.gauge("cache.hits").set(s.hits as i64);
        obs.gauge("cache.misses").set(s.misses as i64);
        obs.gauge("cache.evictions.capacity")
            .set(s.capacity_evictions as i64);
        obs.gauge("cache.removals.invalidation")
            .set(s.invalidation_removals as i64);
        obs.gauge("cache.evicted_weight")
            .set(s.evicted_weight as i64);
        obs.gauge("snapshot.head_version")
            .set(self.data_version() as i64);
        obs.to_json()
    }

    /// End-to-end EXPLAIN for one `(canvas, layer)`: the resolved
    /// [`FetchPlan`] and the policy that chose it, and the storage
    /// executor's plan for the layer's representative fetch SQL — both
    /// halves of a fetch in one report. Render it with
    /// [`crate::explain::LayerExplain::render`] (or `Display`).
    pub fn explain(&self, canvas: &str, layer: usize) -> Result<crate::explain::LayerExplain> {
        let plan = self.plan_for(canvas, layer)?;
        let store = self.store(canvas, layer)?;
        let fetch_sql = crate::explain::fetch_sql(&store);
        let mut storage_plan = Vec::new();
        if let Some(sql) = &fetch_sql {
            let snap = self.inner.head.pin();
            let result = snap.query(&format!("EXPLAIN {sql}"), &[])?;
            for row in &result.rows {
                if let Value::Text(line) = row.get(0) {
                    storage_plan.push(line.clone());
                }
            }
        }
        Ok(crate::explain::LayerExplain {
            canvas: canvas.to_string(),
            layer,
            plan,
            policy_label: self.config.policy.label(),
            fetch_sql,
            storage_plan,
        })
    }

    /// Clear all backend caches (tile + box).
    pub fn clear_caches(&self) {
        self.inner.tile_cache.lock().clear();
        self.inner.box_caches.lock().clear();
    }

    /// The latest published [`SnapshotView`] (a [`Snapshot`] over the
    /// server's shards; query it with [`SnapshotView::query`]). The
    /// returned `Arc` is an owned, immutable view holding no lock: keep it
    /// as long as you like, concurrent mutations publish new views without
    /// touching yours — it is *pinned*, so call again for a fresh one. Its
    /// [`SnapshotView::versions`] vector says, per shard, which data
    /// version last touched it.
    pub fn snapshot(&self) -> Arc<dyn SnapshotView> {
        self.inner.head.pin()
    }

    // ---------------------------------------------------- live mutation

    /// Apply a mutation to the database and publish the result as a new
    /// snapshot, surgically invalidating serving state. `tables`
    /// declares, up front, every physical table the mutation may touch —
    /// a source table of a materialized layer is refused *before* anything
    /// is applied (the layer's copy cannot be patched in place; relaunch
    /// to re-precompute) — and every [`DirtyRegion`] the closure reports
    /// must name a declared table, or the successor is dropped unpublished.
    ///
    /// `apply` runs against a *successor* shard set built off to the side
    /// — a copy-on-write clone of *every* shard of the published head
    /// (single node: a one-element slice): it shares pages and index nodes
    /// with the head, and a write copies the page and the root-to-leaf
    /// nodes it changes — routes each delta to its owning shard itself
    /// (`kyrix_lod`'s pyramid maintenance folds per-shard point deltas plus
    /// the boundary-cell changes of the coordinator merge this way), and
    /// returns its own result plus the [`DirtyRegion`]s it touched (table
    /// coordinates). Concurrent fetches keep resolving against the
    /// published head the whole time — they never block behind the repair.
    /// On success the server publishes the successor atomically with the
    /// invalidation:
    ///
    /// * bumps the data-version stamp, tags the new snapshot with it, and
    ///   logs the canvas-space dirty rectangles, so sessions
    ///   ([`KyrixServer::changes_since`]) refetch exactly the invalidated
    ///   regions (in-flight fetches that pinned the pre-mutation snapshot
    ///   compare their snapshot tag and refuse to cache),
    /// * routes each [`DirtyRegion`] through the head's partitioners and
    ///   bumps the version-vector entry of only the shards it lands on
    ///   (unroutable regions conservatively dirty every shard), so
    ///   sessions pinning per-shard version vectors see exactly which
    ///   shards moved under them,
    /// * drops every backend cached tile whose extent intersects a dirty
    ///   region of the table backing its layer (per the layer's resolved
    ///   plan and tiling),
    /// * drops every cached dynamic box that overlaps a dirty region.
    ///
    /// Untouched cache entries — other canvases, other layers, disjoint
    /// regions — survive.
    ///
    /// A closure error discards the half-built successor: the published
    /// head never saw any of it, so the mutation aborts atomically — no
    /// version bump, no invalidation, readers unaffected. (Caller-side
    /// state the closure mutated, e.g. a LoD pyramid's maintenance
    /// bookkeeping, is the caller's to roll back or poison.)
    ///
    /// Mutators are serialized against each other; a second call blocks
    /// until the first publishes, then clones the fresh head.
    ///
    /// Typical caller: `kyrix_lod`'s incremental pyramid maintenance,
    /// whose `MaintenanceReport` names exactly the tables and dirty
    /// regions this expects.
    pub fn mutate_shards<T>(
        &self,
        tables: &[&str],
        apply: impl FnOnce(&mut [Database]) -> Result<(T, Vec<DirtyRegion>)>,
    ) -> Result<T> {
        let obs = Arc::clone(&self.inner.obs);
        let _mutate = obs.span("mutate.raw");
        self.validate_mutable(tables)?;
        let _writer = self.inner.writer.lock();
        let mut next = {
            let _clone = obs.span("cow.clone");
            self.inner.head.pin().clone_shards()
        };
        // `DbCounters` is shared between clones and a cloned table carries
        // its `cow_stats` tallies along, so the deltas across `apply` are
        // exactly the tables this mutation unshared and the pages, index
        // nodes and chunks of their handles its writes copied (mutators are
        // serialized by the writer lock held above)
        let cow_totals = |shards: &[Database]| {
            let mut totals = (0u64, CowStats::default());
            for db in shards {
                totals.0 += db.counters.cow_table_copies();
                for table in tables.iter().filter_map(|t| db.table(t).ok()) {
                    let stats = table.cow_stats();
                    totals.1.pages_copied += stats.pages_copied;
                    totals.1.nodes_copied += stats.nodes_copied;
                    totals.1.chunks_copied += stats.chunks_copied;
                }
            }
            totals
        };
        let (tables_before, before) = cow_totals(&next);
        match apply(&mut next) {
            Ok((out, dirty)) => {
                // a dirty region on an undeclared table may sit under a
                // layer `validate_mutable` never checked: drop the
                // successors unpublished, the head was never touched
                if let Some(d) = dirty.iter().find(|d| !tables.contains(&d.table.as_str())) {
                    return Err(ServerError::Config(format!(
                        "the mutation reported a dirty region on `{}`, which it did \
                         not declare",
                        d.table
                    )));
                }
                let (tables_after, after) = cow_totals(&next);
                let copies = tables_after.saturating_sub(tables_before);
                obs.counter("snapshot.cow_table_copies").add(copies);
                obs.counter("snapshot.cow_pages_copied")
                    .add(after.pages_copied.saturating_sub(before.pages_copied));
                obs.counter("snapshot.cow_nodes_copied")
                    .add(after.nodes_copied.saturating_sub(before.nodes_copied));
                obs.counter("snapshot.cow_chunks_copied")
                    .add(after.chunks_copied.saturating_sub(before.chunks_copied));
                obs.gauge("mutation.last_cow_copies").set(copies as i64);
                // the retired head and the evicted tiles and boxes come
                // back out of `publish_locked` and are dropped here, after
                // the cache and log locks are released: no reader's cache
                // lookup waits for the free. Each is the last reference
                // unless a reader still holds one, and then that reader
                // pays the release instead
                let retired = self.publish_locked(next, &dirty);
                {
                    let _retire = obs.span("snapshot.retire");
                    drop(retired);
                }
                Ok(out)
            }
            // drop the successors; the head was never touched
            Err(e) => Err(e),
        }
    }

    /// Refuse tables whose serving state cannot be maintained in place:
    /// *source* tables of layers that were materialized into a side table
    /// (the copy would silently go stale). Separable layers — served
    /// straight off their raw table — are the mutable surface.
    fn validate_mutable(&self, tables: &[&str]) -> Result<()> {
        for (&(ci, li), serving) in &self.inner.layers {
            if !matches!(serving.store, LayerStore::Spatial { .. }) {
                continue;
            }
            // a materialized layer's table is a *copy* of its transform
            // output; mutating the transform's source table would leave
            // the copy stale with no way to repair it here
            let layer = &self.inner.app.canvases[ci as usize].layers[li as usize];
            let Some(sql_text) = layer.transform.query.as_deref() else {
                continue;
            };
            let Ok(stmt) = kyrix_storage::sql::parse(sql_text) else {
                continue;
            };
            let mut sources = vec![stmt.from.table.clone()];
            if let Some(join) = &stmt.join {
                sources.push(join.table.table.clone());
            }
            if let Some(src) = sources.iter().find(|s| tables.contains(&s.as_str())) {
                return Err(ServerError::Config(format!(
                    "table `{src}` feeds the materialized layer {li} of canvas \
                     `{}`; the materialized copy cannot be maintained in place — \
                     relaunch to re-precompute",
                    self.inner.canvas_id(ci)
                )));
            }
        }
        Ok(())
    }

    /// The publication pass: swap `next` in as the new head snapshot,
    /// atomically with the invalidation. Caller must hold the writer
    /// lock. The version bump, the mutation-log append, the cache drops
    /// and the head swap all happen under one acquisition of the cache +
    /// log locks, so every other participant observes them atomically: a
    /// fetch that pinned the pre-mutation snapshot re-checks its snapshot
    /// tag *under the cache lock* at insert time (it either inserts
    /// before the retain, which drops the entry, or sees the bumped
    /// version and skips), and a session that observes the new
    /// `data_version` is guaranteed to find the matching log entry.
    /// Returns the retired head and the evicted tiles and boxes for the
    /// caller to drop outside those locks.
    fn publish_locked(
        &self,
        next: Vec<Database>,
        dirty: &[DirtyRegion],
    ) -> (Arc<Snapshot>, Vec<CachedRows>, Vec<CachedBox>) {
        let obs = Arc::clone(&self.inner.obs);
        let _publish = obs.span("publish");
        // which shards actually changed: route every dirty region through
        // the head's partitioners. An empty or unroutable dirty set
        // conservatively dirties every shard (as does any region when
        // there is only one).
        let mut shard_dirty = vec![dirty.is_empty(); next.len()];
        {
            let head = self.inner.head.pin();
            for d in dirty {
                match head.route_rect(&d.table, &d.rect) {
                    Some(ids) => ids.into_iter().for_each(|i| shard_dirty[i] = true),
                    None => shard_dirty.iter_mut().for_each(|f| *f = true),
                }
            }
        }
        // map table-space dirty rects onto the (canvas, layer)s they back
        type CanvasMap = Box<dyn Fn(&Rect) -> Rect>;
        let mut entries: Vec<(u32, u32, Rect)> = Vec::new();
        for (&(ci, li), serving) in &self.inner.layers {
            let (table, to_canvas): (&str, CanvasMap) = match &serving.store {
                LayerStore::Static => continue,
                LayerStore::Spatial { table, .. } => (table.as_str(), Box::new(|r: &Rect| *r)),
                LayerStore::SeparableRaw {
                    table,
                    x_affine,
                    y_affine,
                    obj_w,
                    obj_h,
                    ..
                } => {
                    let (xa, ya, w, h) = (x_affine.clone(), y_affine.clone(), *obj_w, *obj_h);
                    (
                        table.as_str(),
                        Box::new(move |r: &Rect| {
                            let x0 = xa.apply(r.min_x);
                            let x1 = xa.apply(r.max_x);
                            let y0 = ya.apply(r.min_y);
                            let y1 = ya.apply(r.max_y);
                            // cover the whole extent of marks centered in
                            // the dirty region
                            Rect::new(
                                x0.min(x1) - w / 2.0,
                                y0.min(y1) - h / 2.0,
                                x0.max(x1) + w / 2.0,
                                y0.max(y1) + h / 2.0,
                            )
                        }),
                    )
                }
            };
            for d in dirty {
                if d.table == table {
                    entries.push((ci, li, to_canvas(&d.rect)));
                }
            }
        }

        // the atomic section: cache locks + log lock held together (lock
        // order tile_cache → box_caches → mutations → head, matching the
        // fetch paths' cache-then-version order; fetch paths never hold
        // the head lock while taking a cache lock, so acquiring the head
        // last cannot deadlock)
        let mut tiles = self.inner.tile_cache.lock();
        let mut boxes = self.inner.box_caches.lock();
        let mut log = self.inner.mutations.lock();
        log.version += 1;
        let version = log.version;
        obs.gauge("snapshot.head_version").set(version as i64);
        let retired = self.inner.head.publish(next, version, &shard_dirty);
        let named: Vec<MutationEntry> = entries
            .iter()
            .map(|&(ci, li, rect)| (self.inner.canvas_id(ci).to_string(), li, rect))
            .collect();
        log.entries.push_back((version, named));
        while log.entries.len() > MUTATION_LOG_CAP {
            log.entries.pop_front();
        }
        let _evict = obs.span("evict");
        // `entries` holds each layer's rects side by side (one pass over
        // the layer map pushed them): resolve the plan once per layer, drop
        // the intersecting tiles by key, and sweep the layer's box shelf
        // once for all of its rects
        let (mut evicted_tiles, mut evicted_boxes) = (Vec::new(), Vec::new());
        for group in entries.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let layer = (group[0].0, group[0].1);
            if let FetchPlan::StaticTiles { size, .. } = self.inner.layers[&layer].plan {
                let tiling = Tiling::new(size);
                for (_, _, rect) in group {
                    evicted_tiles.extend(evict_tiles(&mut tiles, layer, tiling, rect));
                }
            }
            if let Some(shelf) = boxes.get_mut(&layer) {
                let stale = |(r, _, _): &CachedBox| group.iter().any(|(_, _, d)| r.intersects(d));
                let (gone, kept): (BoxCacheShelf, _) =
                    std::mem::take(shelf).into_iter().partition(stale);
                *shelf = kept;
                evicted_boxes.extend(gone);
            }
        }
        (retired, evicted_tiles, evicted_boxes)
    }

    /// Monotonic data-version stamp: 0 at launch, bumped by every
    /// mutation. Sessions compare it against the version they last
    /// fetched under and refetch what [`KyrixServer::changes_since`]
    /// reports.
    pub fn data_version(&self) -> u64 {
        self.inner.mutations.lock().version
    }

    /// The canvas-space regions invalidated since data version `since`
    /// (as `(canvas, layer, rect)`), or `None` when the mutation log no
    /// longer reaches back that far — callers then drop all cached data.
    pub fn changes_since(&self, since: u64) -> Option<Vec<(String, usize, Rect)>> {
        let log = self.inner.mutations.lock();
        if since > log.version {
            return None;
        }
        if since < log.version.saturating_sub(log.entries.len() as u64) {
            return None; // truncated
        }
        Some(
            log.entries
                .iter()
                .filter(|(v, _)| *v > since)
                .flat_map(|(_, es)| es.iter().map(|(c, l, r)| (c.clone(), *l as usize, *r)))
                .collect(),
        )
    }
}

/// Remove every cached tile of `layer` whose closed extent intersects
/// `rect` ([`Rect::intersects`]: touching counts), returning them. The
/// tiles `rect` can touch are listed and removed by key; when they
/// outnumber the cached entries (or [`MAX_COVERING_TILES`]), one `retain`
/// over the cache is cheaper and runs instead.
fn evict_tiles<V>(
    tiles: &mut LruCache<TileKey, V>,
    layer: LayerKey,
    tiling: Tiling,
    rect: &Rect,
) -> Vec<V> {
    let (ci, li) = layer;
    let hit = |tile: TileId| tiling.tile_rect(tile).intersects(rect);
    let cap = tiles.len().min(MAX_COVERING_TILES) as i64;
    let count = |r: &RangeInclusive<i32>| i64::from(*r.end()) - i64::from(*r.start()) + 1;
    match tiling.touching(rect) {
        Some((xs, ys)) if count(&xs).checked_mul(count(&ys)).is_some_and(|n| n <= cap) => {
            let touched = ys.flat_map(|y| xs.clone().map(move |x| TileId::new(x, y)));
            touched
                .filter(|&tile| hit(tile))
                .filter_map(|tile| tiles.remove(&(ci, li, tile.key())))
                .collect()
        }
        _ => tiles
            .retain(|&(kci, kli, key), _| kci != ci || kli != li || !hit(TileId::from_key(key))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eviction `evict_tiles` replaces, kept as its reference: one
    /// `retain` over the whole cache per dirty rectangle.
    fn evict_tiles_by_scan<V>(
        tiles: &mut LruCache<TileKey, V>,
        (ci, li): LayerKey,
        tiling: Tiling,
        rect: &Rect,
    ) -> Vec<V> {
        tiles.retain(|&(kci, kli, key), _| {
            kci != ci || kli != li || !tiling.tile_rect(TileId::from_key(key)).intersects(rect)
        })
    }

    /// A rect coordinate: on a tile edge, or anywhere.
    #[derive(Debug, Clone, Copy)]
    enum Coord {
        Edge(i32),
        Free(f64),
    }

    impl Coord {
        fn at(self, size: f64) -> f64 {
            match self {
                Coord::Edge(k) => k as f64 * size,
                Coord::Free(t) => t * size,
            }
        }
    }

    fn arb_coord() -> impl Strategy<Value = Coord> {
        prop_oneof![
            (-8i32..8).prop_map(Coord::Edge),
            (-8.0f64..8.0).prop_map(Coord::Free),
        ]
    }

    /// Every key the generated caches can hold.
    fn universe() -> Vec<TileKey> {
        let mut keys = Vec::new();
        for (ci, li) in [(0, 0), (0, 1), (1, 0)] {
            for x in -6..6 {
                for y in -6..6 {
                    keys.push((ci, li, TileId::new(x, y).key()));
                }
            }
        }
        keys
    }

    fn contents(c: &LruCache<TileKey, u32>) -> Vec<(TileKey, u32)> {
        universe()
            .into_iter()
            .filter_map(|k| c.peek(&k).map(|v| (k, *v)))
            .collect()
    }

    /// A server of dots on every integer point of [0, 40]², served as
    /// tiles of 10 with a momentum predictor.
    /// The tile cache holds `cache_rows` tuples.
    fn tiled_server(cache_rows: usize) -> KyrixServer {
        use kyrix_core::{
            compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec,
            TransformSpec,
        };
        use kyrix_storage::{DataType, Schema};
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
            design: crate::precompute::TileDesign::SpatialIndex,
        };
        let config = ServerConfig::new(plan)
            .with_backend_cache(cache_rows)
            .with_prefetch(PrefetchPolicy::Momentum);
        KyrixServer::launch(app, db, config).unwrap().0
    }

    /// A fill stops at the first tile too heavy for the whole cache: it
    /// fetches that one tile, caches nothing, and leaves the rest alone.
    #[test]
    fn a_fill_stops_at_a_tile_the_cache_cannot_hold() {
        // a tile of 10 holds 121 dots (both edges included)
        let server = tiled_server(100);
        let vp = Rect::new(5.0, 5.0, 15.0, 15.0);
        let cold = server.fetch_region("main", 0, &vp).unwrap();
        assert_eq!(cold.rect, vp, "four missed tiles: the viewport is fetched");
        server.drain_prefetch().unwrap();
        assert_eq!(
            server.prefetch_totals().queries,
            1,
            "one tile fetched, then the fill ended"
        );
        assert!(server.inner.tile_cache.lock().is_empty());
    }

    /// A worker that dies is loud: `drain_prefetch` errs, every hint and
    /// fill the dead worker can no longer take is counted in
    /// `prefetch.worker_dead`, and dropping the server records the join
    /// error in `prefetch.worker_panics`.
    #[test]
    fn a_dead_worker_is_counted_and_drain_errs() {
        let server = tiled_server(1_000);
        let obs = server.obs();
        let dead = || obs.gauge("prefetch.worker_dead").get();
        server.drain_prefetch().unwrap();
        let worker = server
            .prefetcher
            .as_ref()
            .expect("a tiled server runs a worker");
        worker.tx.send(Task::Panic).unwrap();
        assert!(server.drain_prefetch().is_err(), "the worker is gone");
        assert_eq!(dead(), 0, "a drain is refused, not counted");

        server.hint("main", &Rect::new(5.0, 5.0, 15.0, 15.0), (2.0, 0.0));
        assert_eq!(dead(), 1, "the hint found the worker gone");
        // a cold region over four tiles is still served, as its viewport;
        // its fill finds the worker gone
        let vp = Rect::new(5.0, 5.0, 15.0, 15.0);
        let region = server.fetch_region("main", 0, &vp).unwrap();
        assert_eq!(region.rect, vp);
        assert_eq!(dead(), 2, "the fill found the worker gone");
        assert_eq!(obs.counter("prefetch.dropped").get(), 0);

        drop(server);
        assert_eq!(obs.counter("prefetch.worker_panics").get(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Removing the touched tiles by key leaves exactly the cache a
        /// `retain` per rect leaves — entries, weight, statistics and
        /// recency (checked by pushing everything out afterwards) — on
        /// random caches and tile sizes, with rect edges on tile edges,
        /// degenerate rects, and rects wider than the cache.
        #[test]
        fn evicting_by_key_leaves_the_cache_a_scan_leaves(
            size in prop_oneof![Just(1.0f64), Just(0.3), Just(7.5), Just(100.0)],
            cached in prop::collection::vec((0usize..3, -6i32..6, -6i32..6, 1usize..4), 0..80),
            touches in prop::collection::vec(any::<u16>(), 0..40),
            rects in prop::collection::vec(
                (0usize..3, arb_coord(), arb_coord(), 0i32..4, 0i32..4),
                1..10,
            ),
        ) {
            let layers = [(0u32, 0u32), (0, 1), (1, 0)];
            let tiling = Tiling::new(size);
            let build = || {
                let mut cache: LruCache<TileKey, u32> = LruCache::new(120);
                for (n, &(l, x, y, w)) in cached.iter().enumerate() {
                    let (ci, li) = layers[l];
                    cache.insert((ci, li, TileId::new(x, y).key()), n as u32, w);
                }
                let keys: Vec<TileKey> = contents(&cache).into_iter().map(|(k, _)| k).collect();
                for t in touches.iter().filter(|_| !keys.is_empty()) {
                    cache.get(&keys[*t as usize % keys.len()]);
                }
                cache
            };
            let (mut by_key, mut by_scan) = (build(), build());

            for &(l, x, y, w, h) in &rects {
                let (x0, y0) = (x.at(size), y.at(size));
                // whole tiles of width and height, so a rect that starts on
                // an edge ends on one
                let rect = Rect::new(x0, y0, x0 + w as f64 * size, y0 + h as f64 * size);
                let mut gone = evict_tiles(&mut by_key, layers[l], tiling, &rect);
                let mut want = evict_tiles_by_scan(&mut by_scan, layers[l], tiling, &rect);
                gone.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(gone, want, "evicted by {:?}", rect);
                prop_assert_eq!(contents(&by_key), contents(&by_scan), "after {:?}", rect);
            }
            // a rect spanning more tiles than the cache holds takes the
            // `retain` path
            let wide = Rect::new(-7.0 * size, -7.0 * size, 7.0 * size, 0.0);
            evict_tiles(&mut by_key, layers[0], tiling, &wide);
            evict_tiles_by_scan(&mut by_scan, layers[0], tiling, &wide);
            prop_assert_eq!(contents(&by_key), contents(&by_scan));
            prop_assert_eq!(by_key.weight(), by_scan.weight());
            prop_assert_eq!(by_key.len(), by_scan.len());
            prop_assert_eq!(by_key.stats(), by_scan.stats());
            // the survivors leave in the same order under pressure
            for n in 0..120u32 {
                let key = (2, 2, i64::from(n));
                by_key.insert(key, n, 1);
                by_scan.insert(key, n, 1);
                prop_assert_eq!(contents(&by_key), contents(&by_scan));
            }
        }
    }
}
