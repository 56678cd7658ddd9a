//! The Kyrix backend server (paper Figure 1): owns the database, the layer
//! stores produced by precomputation, the backend caches, and the
//! prefetcher; answers tile and box requests from the frontend.

use crate::backend::{
    ServingBackend, ShardTelemetry, ShardedBackend, ShardedSnapshot, SingleNodeBackend,
    SnapshotView,
};
use crate::cache::CacheStats;
use crate::cache::LruCache;
use crate::cost::CostModel;
use crate::drift::DriftReport;
use crate::error::{Result, ServerError};
use crate::fetch::fetch_rect;
use crate::fetch::{compute_fetch_box, count_rect, fetch_tile, TileMatcher};
use crate::metrics::FetchMetrics;
use crate::policy::PlanPolicy;
use crate::precompute::{
    estimate_layer_rows, precompute_layer, separable_store, FetchPlan, LayerRowLayout, LayerStore,
    PrecomputeReport, TileDesign,
};
use crate::prefetch::{
    neighbor_rects, predict_viewports, rank_by_similarity, RegionSignature, SemanticTracker,
};
use crate::tile::{TileId, Tiling};
use crate::tuner::{self, TuningReport};
use crossbeam::channel::{unbounded, Sender};
use kyrix_core::CompiledApp;
use kyrix_obs::{Counter, FamilyMember, Registry};
use kyrix_parallel::QueryRouter;
use kyrix_storage::fxhash::FxHashMap;
use kyrix_storage::{Database, Rect, Row, Value};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Mutation-log entries kept for incremental frontend invalidation.
/// Sessions further behind than this refetch everything instead.
const MUTATION_LOG_CAP: usize = 64;

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
    /// Cost model used by the tuner and by fetch-metric scoring.
    pub cost: CostModel,
    /// Backend tile-cache capacity in *tuples* (0 disables).
    pub backend_cache_rows: usize,
    /// Cached dynamic boxes kept per layer (0 disables).
    pub box_cache_entries: usize,
    /// Enable the prefetch worker.
    pub prefetch: bool,
    /// Viewports to look ahead when momentum-prefetching.
    pub prefetch_lookahead: usize,
    /// Predictor used by the worker.
    pub prefetch_policy: PrefetchPolicy,
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
            prefetch: false,
            prefetch_lookahead: 1,
            prefetch_policy: PrefetchPolicy::Momentum,
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

    /// Enable or disable the prefetch worker.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.prefetch = enabled;
        self
    }

    /// Enable the prefetch worker with an explicit predictor.
    pub fn with_prefetch_policy(mut self, policy: PrefetchPolicy) -> Self {
        self.prefetch = true;
        self.prefetch_policy = policy;
        self
    }
}

/// Response to a tile request.
#[derive(Debug, Clone)]
pub struct TileResponse {
    /// Which tile the rows belong to.
    pub tile: TileId,
    /// The tile's rows (shared with the backend cache).
    pub rows: Arc<Vec<Row>>,
    /// What serving this tile cost.
    pub metrics: FetchMetrics,
}

/// Response to a dynamic-box request.
#[derive(Debug, Clone)]
pub struct BoxResponse {
    /// The box that was actually fetched (contains the viewport).
    pub rect: Rect,
    /// Rows inside the box (shared with the box cache).
    pub rows: Arc<Vec<Row>>,
    /// What serving this box cost.
    pub metrics: FetchMetrics,
}

type TileKey = (u32, u32, i64); // canvas idx, layer, tile key
type CachedRows = (Arc<Vec<Row>>, u64); // rows + wire bytes
type BoxCacheShelf = VecDeque<(Rect, Arc<Vec<Row>>, u64)>; // rect, rows, bytes

/// A rectangle of one physical table whose rows changed in a
/// [`KyrixServer::mutate_raw`] call, in that table's own coordinates.
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

struct Inner {
    app: CompiledApp,
    /// The serving backend: publishes the *head* [`SnapshotView`]. Every
    /// fetch pins the head (the backend's lock is held only for that
    /// clone) and resolves against it with no lock held;
    /// [`KyrixServer::mutate_raw`] builds the successor shard set off to
    /// the side and publishes it through the backend. Readers therefore
    /// never block behind a mutation. Single-node and sharded backends
    /// are indistinguishable above this field.
    backend: Box<dyn ServingBackend>,
    /// Serializes mutators ([`KyrixServer::mutate_raw`]). Never held by
    /// any fetch path.
    writer: Mutex<()>,
    stores: FxHashMap<(u32, u32), LayerStore>,
    /// Plan resolved by the policy per `(canvas idx, layer idx)`, stored
    /// alongside the layer's store at launch. Every plan-matching site
    /// (tile/box fetch, region fetch, prefetch dispatch) consults this map,
    /// never a server-wide plan.
    plans: FxHashMap<(u32, u32), FetchPlan>,
    cost: CostModel,
    tile_cache: Mutex<LruCache<TileKey, CachedRows>>,
    box_caches: Mutex<FxHashMap<(u32, u32), BoxCacheShelf>>,
    box_cache_entries: usize,
    totals: Mutex<FetchMetrics>,
    /// Foreground metrics attributed per `(canvas idx, layer idx)` — and
    /// therefore per resolved plan, since each layer serves exactly one.
    /// The substrate for inspecting how a plan assignment performs live
    /// (the tuner measures candidates on its own side channel instead).
    layer_totals: Mutex<FxHashMap<(u32, u32), FetchMetrics>>,
    prefetch_totals: Mutex<FetchMetrics>,
    /// Per-canvas semantic profiles (data characteristics of recently
    /// viewed regions).
    semantic: Mutex<FxHashMap<u32, SemanticTracker>>,
    /// Data-version stamp + per-mutation invalidation entries.
    mutations: Mutex<MutationLog>,
    /// Telemetry: span histograms, counters, gauges. The storage layer's
    /// query observer feeds `span.sql.execute` here; the fetch and
    /// mutation paths emit the rest.
    obs: Arc<Registry>,
    /// Region-serve latency recorders of the `fetch.region.layer{canvas/N}`
    /// family, one per layer, resolved at launch so a fetch formats no label.
    region_latency: FxHashMap<(u32, u32), FamilyMember>,
    /// Rows the covering tiles of tiled region fetches returned
    /// (`fetch.region.rows_in`) and rows the merge kept
    /// (`fetch.region.rows_out`); in − out is the tile-straddler tax.
    region_rows_in: Arc<Counter>,
    region_rows_out: Arc<Counter>,
    /// Foreground [`KyrixServer::fetch_region`] serves per
    /// `(canvas idx, layer idx)` — the step count drift detection uses to
    /// normalize `layer_totals` to a per-interaction cost.
    layer_regions: Mutex<FxHashMap<(u32, u32), u64>>,
}

impl Inner {
    /// Serving state over a launched backend: empty caches, zeroed totals,
    /// version 0, and the per-layer telemetry handles resolved once.
    fn new(
        app: CompiledApp,
        backend: Box<dyn ServingBackend>,
        stores: FxHashMap<(u32, u32), LayerStore>,
        plans: FxHashMap<(u32, u32), FetchPlan>,
        config: &ServerConfig,
        obs: Arc<Registry>,
    ) -> Self {
        let family = obs.histogram_family("fetch.region.layer");
        let region_latency = stores
            .keys()
            .map(|&(ci, li)| {
                let label = format!("{}/{li}", app.canvases[ci as usize].id);
                ((ci, li), family.member(&label))
            })
            .collect();
        Inner {
            app,
            backend,
            writer: Mutex::new(()),
            stores,
            plans,
            cost: config.cost,
            tile_cache: Mutex::new(LruCache::new(config.backend_cache_rows)),
            box_caches: Mutex::new(FxHashMap::default()),
            box_cache_entries: config.box_cache_entries,
            totals: Mutex::new(FetchMetrics::default()),
            layer_totals: Mutex::new(FxHashMap::default()),
            prefetch_totals: Mutex::new(FetchMetrics::default()),
            semantic: Mutex::new(FxHashMap::default()),
            mutations: Mutex::new(MutationLog {
                version: 0,
                entries: VecDeque::new(),
            }),
            region_latency,
            region_rows_in: obs.counter("fetch.region.rows_in"),
            region_rows_out: obs.counter("fetch.region.rows_out"),
            obs,
            layer_regions: Mutex::new(FxHashMap::default()),
        }
    }

    /// Pin the published head view (two atomic ops; the backend's head
    /// lock is released before this returns).
    fn snapshot(&self) -> Arc<dyn SnapshotView> {
        self.backend.head()
    }

    /// Density signature of a region, from spatial-index counts on the
    /// first non-static layer (no data transfer).
    fn region_signature(&self, canvas: &str, rect: &Rect) -> Result<RegionSignature> {
        let cc = self
            .app
            .canvas(canvas)
            .ok_or_else(|| ServerError::BadRequest(format!("unknown canvas `{canvas}`")))?;
        let layer = cc
            .layers
            .iter()
            .position(|l| !l.is_static)
            .ok_or_else(|| ServerError::BadRequest("canvas has no data layers".to_string()))?;
        let store = self.store(canvas, layer)?;
        let snap = self.snapshot();
        let counts: Vec<u64> = RegionSignature::cell_rects(rect)
            .iter()
            .map(|cell| count_rect(&*snap, store, cell).map(|n| n as u64))
            .collect::<Result<_>>()?;
        Ok(RegionSignature::from_counts(&counts))
    }
    fn canvas_idx(&self, canvas: &str) -> Result<u32> {
        self.app
            .canvases
            .iter()
            .position(|c| c.id == canvas)
            .map(|i| i as u32)
            .ok_or_else(|| ServerError::BadRequest(format!("unknown canvas `{canvas}`")))
    }

    fn store(&self, canvas: &str, layer: usize) -> Result<&LayerStore> {
        let ci = self.canvas_idx(canvas)?;
        self.stores
            .get(&(ci, layer as u32))
            .ok_or_else(|| ServerError::BadRequest(format!("unknown layer {layer} of `{canvas}`")))
    }

    /// The plan resolved for a layer at launch.
    fn plan_for(&self, ci: u32, layer: usize) -> Result<FetchPlan> {
        self.plans
            .get(&(ci, layer as u32))
            .copied()
            .ok_or_else(|| ServerError::BadRequest(format!("unknown layer {layer}")))
    }

    fn fetch_tile_cached(
        &self,
        snap: &dyn SnapshotView,
        canvas: &str,
        layer: usize,
        tile: TileId,
        background: bool,
    ) -> Result<TileResponse> {
        let ci = self.canvas_idx(canvas)?;
        let store = self.store(canvas, layer)?;
        let FetchPlan::StaticTiles { size, .. } = self.plan_for(ci, layer)? else {
            return Err(ServerError::Config(format!(
                "tile request on dynamic-box layer {layer} of `{canvas}`"
            )));
        };
        let tiling = Tiling::new(size);
        let key = (ci, layer as u32, tile.key());

        // Cache entries are always valid for the *published* version
        // (invalidation drops intersecting ones under the same lock as the
        // version bump). Use the cache only when our pinned snapshot IS
        // the published version; a reader holding an older snapshot
        // (a mutation published mid-request) serves itself from the
        // snapshot directly so every tile of its response is consistent.
        let hit = {
            let _lookup = self.obs.span("cache.lookup");
            let mut cache = self.tile_cache.lock();
            if self.version() == snap.version() {
                cache.get(&key).cloned()
            } else {
                None
            }
        };
        if let Some((rows, bytes)) = hit {
            let metrics = FetchMetrics {
                requests: 1,
                rows: rows.len() as u64,
                bytes,
                cache_hits: 1,
                ..Default::default()
            };
            self.record(&metrics, background, (ci, layer as u32));
            return Ok(TileResponse {
                tile,
                rows,
                metrics,
            });
        }

        // no lock held while the query runs: the snapshot is immutable
        let (rows, mut metrics) = fetch_tile(snap, store, tiling, tile)?;
        let rows = Arc::new(rows);
        let bytes = metrics.bytes;
        {
            // the snapshot tag is re-checked while *holding the cache
            // lock*, which publication holds across its bump-and-retain:
            // either this insert lands before the retain (and is dropped
            // by it), or it observes the bumped version and skips — a
            // stale fetch can never undo an invalidation
            let mut cache = self.tile_cache.lock();
            if self.version() == snap.version() {
                cache.insert(key, (rows.clone(), bytes), rows.len().max(1));
            }
        }
        metrics.requests = 1;
        metrics.cache_misses = 1;
        self.record(&metrics, background, (ci, layer as u32));
        Ok(TileResponse {
            tile,
            rows,
            metrics,
        })
    }

    fn fetch_box_cached(
        &self,
        snap: &dyn SnapshotView,
        canvas: &str,
        layer: usize,
        viewport: &Rect,
        background: bool,
    ) -> Result<BoxResponse> {
        let ci = self.canvas_idx(canvas)?;
        let store = self.store(canvas, layer)?;
        let FetchPlan::DynamicBox { policy } = self.plan_for(ci, layer)? else {
            return Err(ServerError::Config(format!(
                "box request on static-tile layer {layer} of `{canvas}`"
            )));
        };
        let key = (ci, layer as u32);

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
                self.record(&metrics, background, key);
                return Ok(BoxResponse {
                    rect,
                    rows,
                    metrics,
                });
            }
        }

        let canvas_bounds = self
            .app
            .canvas(canvas)
            .map(|c| c.bounds())
            .unwrap_or_else(Rect::empty);
        let rect = compute_fetch_box(snap, store, &policy, viewport, &canvas_bounds);
        let (rows, mut metrics) = fetch_rect(snap, store, &rect)?;
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
        self.record(&metrics, background, key);
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

    fn record(&self, metrics: &FetchMetrics, background: bool, layer: (u32, u32)) {
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
            self.prefetch_totals.lock().merge(&backend_side);
        } else {
            self.totals.lock().merge(metrics);
            self.layer_totals
                .lock()
                .entry(layer)
                .or_default()
                .merge(metrics);
        }
    }
}

enum Task {
    Viewport { canvas: String, rect: Rect },
    Shutdown,
}

struct Prefetcher {
    tx: Sender<Task>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    fn spawn(inner: Arc<Inner>) -> Self {
        let (tx, rx) = unbounded::<Task>();
        let handle = std::thread::Builder::new()
            .name("kyrix-prefetch".to_string())
            .spawn(move || {
                while let Ok(task) = rx.recv() {
                    match task {
                        Task::Shutdown => break,
                        Task::Viewport { canvas, rect } => {
                            let Some(cc) = inner.app.canvas(&canvas) else {
                                continue;
                            };
                            let Ok(ci) = inner.canvas_idx(&canvas) else {
                                continue;
                            };
                            // one pinned snapshot per prediction; if a
                            // mutation publishes mid-warm, the inserts
                            // simply skip (snapshot tag mismatch). On a
                            // sharded backend the warm is shard-aware for
                            // free: each warming fetch carries the
                            // predicted rect as its predicate, so the
                            // router sends it only to the shards whose
                            // grid cells that viewport intersects —
                            // off-path shards do no work
                            let snap = inner.snapshot();
                            for (li, layer) in cc.layers.iter().enumerate() {
                                if layer.is_static {
                                    continue;
                                }
                                // dispatch per the layer's *resolved* plan:
                                // one predicted viewport may warm tiles on
                                // one layer and a box on the next
                                match inner.plan_for(ci, li) {
                                    Ok(FetchPlan::StaticTiles { size, .. }) => {
                                        let Ok(tiles) = Tiling::new(size).covering(&rect) else {
                                            continue; // degenerate prediction
                                        };
                                        for tile in tiles {
                                            let _ = inner
                                                .fetch_tile_cached(&*snap, &canvas, li, tile, true);
                                        }
                                    }
                                    Ok(FetchPlan::DynamicBox { .. }) => {
                                        // widen the prediction slightly so a
                                        // near-miss (momentum estimate off by
                                        // a few pixels) still serves the real
                                        // next viewport from the box cache
                                        let widened = rect.inflate_frac(0.15, 0.15);
                                        let _ = inner
                                            .fetch_box_cached(&*snap, &canvas, li, &widened, true);
                                    }
                                    Err(_) => {}
                                }
                            }
                        }
                    }
                }
            })
            .expect("spawn prefetch worker");
        Prefetcher {
            tx,
            handle: Some(handle),
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        let _ = self.tx.send(Task::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The Kyrix backend server.
pub struct KyrixServer {
    inner: Arc<Inner>,
    prefetcher: Option<Prefetcher>,
    config: ServerConfig,
    /// Present iff the launch policy was [`PlanPolicy::Measured`].
    tuning: Option<TuningReport>,
}

impl KyrixServer {
    /// Resolve the plan policy per `(canvas, layer)`, precompute every
    /// layer under its resolved plan, and start the server. Returns the
    /// per-layer precomputation reports.
    ///
    /// A [`PlanPolicy::Measured`] policy is resolved by the tuner
    /// ([`crate::tuner`]): every candidate plan is precomputed side by
    /// side and costed on the calibration trace before the cheapest wins;
    /// the assignment is available afterwards via
    /// [`KyrixServer::tuning_report`].
    pub fn launch(
        app: CompiledApp,
        mut db: Database,
        config: ServerConfig,
    ) -> Result<(Self, Vec<PrecomputeReport>)> {
        let (stores, plans, reports, tuning) = match &config.policy {
            PlanPolicy::Measured { candidates, trace } => {
                let tuned = tuner::tune(&mut db, &app, candidates, trace, &config.cost)?;
                (tuned.stores, tuned.plans, tuned.reports, Some(tuned.tuning))
            }
            policy => {
                let mut stores = FxHashMap::default();
                let mut plans = FxHashMap::default();
                let mut reports = Vec::new();
                for (ci, canvas) in app.canvases.iter().enumerate() {
                    for (li, layer) in canvas.layers.iter().enumerate() {
                        let estimated_rows = if policy.needs_row_estimate() {
                            estimate_layer_rows(&db, layer)?
                        } else {
                            0
                        };
                        let plan = policy.resolve(layer, estimated_rows);
                        let (store, report) = precompute_layer(&mut db, layer, &plan, &app.name)?;
                        stores.insert((ci as u32, li as u32), store);
                        plans.insert((ci as u32, li as u32), plan);
                        reports.push(report);
                    }
                }
                (stores, plans, reports, None)
            }
        };
        let obs = Self::observe_queries(std::slice::from_mut(&mut db));
        let backend = Box::new(SingleNodeBackend::new(db, obs.gauge("snapshot.pinned")));
        let server = Self::start(app, backend, stores, plans, config, tuning, obs);
        Ok((server, reports))
    }

    /// The serving registry, with every database of the backend-to-be
    /// reporting into it. Called after tuning so the calibration replay's
    /// queries never pollute the serving-path histograms. The observer
    /// closure survives every copy-on-write clone of a database, so
    /// successor snapshots keep reporting `sql.execute` spans.
    fn observe_queries(dbs: &mut [Database]) -> Arc<Registry> {
        let obs = Arc::new(Registry::new());
        for db in dbs {
            let reg = Arc::clone(&obs);
            let scanned = reg.counter("sql.rows_scanned");
            db.set_query_observer(Some(Arc::new(move |_sql, dur, stats| {
                reg.record_external_span("sql.execute", dur);
                scanned.add(stats.rows_scanned);
            })));
        }
        obs.gauge("snapshot.head_version").set(0);
        obs
    }

    /// The tail of every launch: wire the built backend and the resolved
    /// stores/plans into the shared state and start the prefetch worker.
    fn start(
        app: CompiledApp,
        backend: Box<dyn ServingBackend>,
        stores: FxHashMap<(u32, u32), LayerStore>,
        plans: FxHashMap<(u32, u32), FetchPlan>,
        config: ServerConfig,
        tuning: Option<TuningReport>,
        obs: Arc<Registry>,
    ) -> Self {
        let inner = Arc::new(Inner::new(app, backend, stores, plans, &config, obs));
        let prefetcher = if config.prefetch {
            Some(Prefetcher::spawn(inner.clone()))
        } else {
            None
        };
        KyrixServer {
            inner,
            prefetcher,
            config,
            tuning,
        }
    }

    /// Launch over `shards` — one [`Database`] per shard, partitioned per
    /// `router` — serving every fetch by scatter-gather: a request routes
    /// to the shards its rectangle intersects, each probes its own R-tree,
    /// and the coordinator merge recombines the rows. Everything above the
    /// backend (caches, prefetch, sessions, tuning) is unchanged — shards
    /// are invisible above the [`SnapshotView`] trait.
    ///
    /// Sharded serving fetches straight off the partitioned tables, so
    /// every non-static layer must take the §3.2 separable fast path
    /// (`SELECT *` transform, separable placement, per-shard point spatial
    /// index on the placement columns) — materialized layer stores would
    /// need a per-shard precompute pass, and tuple–tile mapping plans have
    /// no per-shard mapping tables; both are refused at launch.
    ///
    /// A [`PlanPolicy::Measured`] policy replays its calibration trace
    /// against a pinned sharded view, so tuning measures exactly the
    /// scatter-gather serve it will pick plans for.
    pub fn launch_sharded(
        app: CompiledApp,
        mut shards: Vec<Database>,
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
        // stores first: plan-independent on this path (separable stores
        // serve both spatial static tiles and dynamic boxes)
        let mut stores = FxHashMap::default();
        for (ci, canvas) in app.canvases.iter().enumerate() {
            for (li, layer) in canvas.layers.iter().enumerate() {
                let store = if layer.is_static {
                    LayerStore::Static
                } else {
                    separable_store(&shards[0], layer).ok_or_else(|| {
                        ServerError::Config(format!(
                            "layer {li} of canvas `{}` is not separable; sharded serving \
                             fetches straight off partitioned raw tables — relaunch \
                             single-node or make the layer separable",
                            canvas.id
                        ))
                    })?
                };
                stores.insert((ci as u32, li as u32), store);
            }
        }
        let (plans, tuning) = match &config.policy {
            PlanPolicy::Measured { candidates, trace } => {
                // pin a calibration view with no telemetry so the replay
                // stays out of the serving histograms
                let view = ShardedSnapshot::new(
                    shards.clone(),
                    vec![0; shards.len()],
                    Arc::new(router.clone()),
                );
                let tuned =
                    tuner::tune_sharded(&view, &app, &stores, candidates, trace, &config.cost)?;
                (tuned.plans, Some(tuned.tuning))
            }
            policy => {
                let mut plans = FxHashMap::default();
                for (ci, canvas) in app.canvases.iter().enumerate() {
                    for (li, layer) in canvas.layers.iter().enumerate() {
                        let estimated_rows = if policy.needs_row_estimate() && !layer.is_static {
                            // partitioned rows live on exactly one shard,
                            // so the global estimate is the per-shard sum
                            shards
                                .iter()
                                .map(|s| estimate_layer_rows(s, layer))
                                .sum::<Result<usize>>()?
                        } else {
                            0
                        };
                        plans.insert(
                            (ci as u32, li as u32),
                            policy.resolve(layer, estimated_rows),
                        );
                    }
                }
                (plans, None)
            }
        };
        if let Some(((ci, li), _)) = plans.iter().find(|(_, p)| {
            matches!(
                p,
                FetchPlan::StaticTiles {
                    design: TileDesign::TupleTileMapping,
                    ..
                }
            )
        }) {
            return Err(ServerError::Config(format!(
                "layer {li} of canvas {ci} resolved to a tuple–tile mapping plan; \
                 sharded backends have no per-shard mapping tables — use the \
                 spatial tile design"
            )));
        }
        let obs = Self::observe_queries(&mut shards);
        let telemetry = ShardTelemetry {
            obs: Arc::clone(&obs),
            family: obs.histogram_family("fetch.shard"),
        };
        let backend = Box::new(ShardedBackend::new(
            shards,
            Arc::new(router),
            telemetry,
            obs.gauge("snapshot.pinned"),
        )?);
        Ok(Self::start(
            app, backend, stores, plans, config, tuning, obs,
        ))
    }

    /// How many shards the backend serves from (1 for a
    /// [`KyrixServer::launch`]ed single-node server).
    pub fn shard_count(&self) -> usize {
        self.inner.backend.shard_count()
    }

    /// The compiled app this server serves.
    pub fn app(&self) -> &CompiledApp {
        &self.inner.app
    }

    /// The policy the resolved plans came from.
    pub fn policy(&self) -> &PlanPolicy {
        &self.config.policy
    }

    /// The fetch plan resolved for one layer at launch.
    pub fn plan_for(&self, canvas: &str, layer: usize) -> Result<FetchPlan> {
        let ci = self.inner.canvas_idx(canvas)?;
        self.inner.plan_for(ci, layer)
    }

    /// The tuner's per-layer candidate costs and chosen assignment. Present
    /// iff the server was launched with [`PlanPolicy::Measured`]; use
    /// [`crate::tuner::TuningReport::frozen_policy`] to reuse the
    /// assignment in later launches without re-measuring.
    pub fn tuning_report(&self) -> Option<&TuningReport> {
        self.tuning.as_ref()
    }

    /// The cost model fetch metrics are scored with.
    pub fn cost_model(&self) -> CostModel {
        self.inner.cost
    }

    /// The configuration the server was launched with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Tiling in effect for one layer (None when it serves dynamic boxes).
    pub fn tiling_for(&self, canvas: &str, layer: usize) -> Result<Option<Tiling>> {
        Ok(match self.plan_for(canvas, layer)? {
            FetchPlan::StaticTiles { size, .. } => Some(Tiling::new(size)),
            FetchPlan::DynamicBox { .. } => None,
        })
    }

    /// The physical store backing a layer (exposed for tests/inspection).
    pub fn store(&self, canvas: &str, layer: usize) -> Result<LayerStore> {
        self.inner.store(canvas, layer).cloned()
    }

    /// Row accessor layout of a layer's rows (None for static layers),
    /// without copying the store.
    pub fn layout(&self, canvas: &str, layer: usize) -> Result<Option<LayerRowLayout>> {
        Ok(self.inner.store(canvas, layer)?.layout())
    }

    /// Fetch one tile of a layer (static-tile plans only).
    pub fn fetch_tile(&self, canvas: &str, layer: usize, tile: TileId) -> Result<TileResponse> {
        let snap = {
            let _pin = self.inner.obs.span("snapshot.pin");
            self.inner.snapshot()
        };
        self.inner
            .fetch_tile_cached(&*snap, canvas, layer, tile, false)
    }

    /// Fetch the dynamic box for a viewport (dynamic-box plans only).
    pub fn fetch_box(&self, canvas: &str, layer: usize, viewport: &Rect) -> Result<BoxResponse> {
        let snap = {
            let _pin = self.inner.obs.span("snapshot.pin");
            self.inner.snapshot()
        };
        self.inner
            .fetch_box_cached(&*snap, canvas, layer, viewport, false)
    }

    /// Fetch everything intersecting a canvas rectangle under *either*
    /// plan: the covering tiles (through the tile cache, deduplicated — a
    /// tuple whose box straddles a tile edge arrives via several tiles and
    /// is kept from the first that sees it) when serving static tiles, the
    /// dynamic box otherwise; tuple ids are unique within the response.
    /// Lets callers drive every canvas of a multi-level (LoD) app
    /// uniformly without matching on the plan; cache keys stay
    /// per-(canvas, layer), so levels never collide.
    ///
    /// The whole region is resolved against *one* pinned snapshot: even
    /// when the viewport spans many tiles and a mutation publishes midway,
    /// every row of the response comes from the same data version.
    pub fn fetch_region(&self, canvas: &str, layer: usize, rect: &Rect) -> Result<BoxResponse> {
        let obs = Arc::clone(&self.inner.obs);
        let _region = obs.span("fetch.region");
        let started = Instant::now();
        let snap = {
            let _pin = obs.span("snapshot.pin");
            self.inner.snapshot()
        };
        let ci = self.inner.canvas_idx(canvas)?;
        let plan = {
            let _resolve = obs.span("plan.resolve");
            self.inner.plan_for(ci, layer)?
        };
        let out = match plan {
            FetchPlan::DynamicBox { .. } => self
                .inner
                .fetch_box_cached(&*snap, canvas, layer, rect, false),
            FetchPlan::StaticTiles { size, .. } => {
                let store = self.inner.store(canvas, layer)?;
                let tiling = Tiling::new(size);
                let tiles = tiling.covering(rect)?;
                // separable stores number tuple ids per fetch, so they
                // repeat across tiles: those rows get response-unique ids as
                // they are copied (callers dedup visible rows by tuple id)
                let fresh_id_col = match store {
                    LayerStore::SeparableRaw { layout, .. } => Some(layout.width() - 1),
                    _ => None,
                };
                let mut rows = Vec::new();
                let mut metrics = FetchMetrics::default();
                let mut covered = Rect::empty();
                for &tile in &tiles {
                    let resp = self
                        .inner
                        .fetch_tile_cached(&*snap, canvas, layer, tile, false)?;
                    let _merge = obs.span("merge");
                    // A mark straddling a tile edge arrives through every
                    // tile whose fetch sees it — with all its copies, when
                    // the table holds identical rows. Keep a row only from
                    // the first covering tile (row-major) that sees it. A
                    // tile's fetch is an interval test per axis, so if any
                    // earlier covering tile saw the row, this tile's left
                    // or upper neighbour did: replay those two fetches'
                    // predicates on the row.
                    let mut earlier = Vec::with_capacity(2);
                    for (dx, dy) in [(1, 0), (0, 1)] {
                        let before = TileId::new(tile.x - dx, tile.y - dy);
                        if before.x >= tiles[0].x && before.y >= tiles[0].y {
                            earlier.extend(TileMatcher::new(store, tiling, before)?);
                        }
                    }
                    self.inner.region_rows_in.add(resp.rows.len() as u64);
                    rows.reserve(resp.rows.len());
                    for row in resp.rows.iter() {
                        if earlier.iter().any(|t| t.matches(row)) {
                            continue;
                        }
                        let mut row = row.clone();
                        if let Some(col) = fresh_id_col {
                            row.values[col] = Value::Int(rows.len() as i64);
                        }
                        rows.push(row);
                    }
                    metrics.merge(&resp.metrics);
                    covered = covered.union(&tiling.tile_rect(tile));
                }
                self.inner.region_rows_out.add(rows.len() as u64);
                Ok(BoxResponse {
                    rect: covered,
                    rows: Arc::new(rows),
                    metrics,
                })
            }
        };
        if out.is_ok() {
            *self
                .inner
                .layer_regions
                .lock()
                .entry((ci, layer as u32))
                .or_insert(0) += 1;
            if let Some(latency) = self.inner.region_latency.get(&(ci, layer as u32)) {
                latency.record_duration(started.elapsed());
            }
        }
        out
    }

    /// Count layer objects in a canvas rectangle (no data transfer).
    pub fn count_in_rect(&self, canvas: &str, layer: usize, rect: &Rect) -> Result<usize> {
        count_rect(
            &*self.inner.snapshot(),
            self.inner.store(canvas, layer)?,
            rect,
        )
    }

    /// Inform the server of the user's pan momentum so it can prefetch
    /// (paper §4, momentum-based prefetching). No-op when prefetch is off
    /// or the policy is not [`PrefetchPolicy::Momentum`].
    pub fn hint_momentum(&self, canvas: &str, viewport: &Rect, velocity: (f64, f64)) {
        let Some(p) = &self.prefetcher else {
            return;
        };
        if !matches!(self.config.prefetch_policy, PrefetchPolicy::Momentum) {
            return;
        }
        for rect in predict_viewports(viewport, velocity, self.config.prefetch_lookahead) {
            let _ = p.tx.send(Task::Viewport {
                canvas: canvas.to_string(),
                rect,
            });
        }
    }

    /// Inform the server of a newly viewed viewport so the semantic
    /// predictor can update its profile and warm the most similar
    /// neighboring regions (paper §4 / ForeCache semantic prefetching).
    /// No-op when prefetch is off or the policy is not
    /// [`PrefetchPolicy::Semantic`].
    pub fn hint_semantic(&self, canvas: &str, viewport: &Rect) {
        let Some(p) = &self.prefetcher else {
            return;
        };
        let PrefetchPolicy::Semantic { top_k } = self.config.prefetch_policy else {
            return;
        };
        let Ok(ci) = self.inner.canvas_idx(canvas) else {
            return;
        };
        let Ok(current) = self.inner.region_signature(canvas, viewport) else {
            return;
        };
        let profile = {
            let mut trackers = self.inner.semantic.lock();
            let tracker = trackers.entry(ci).or_default();
            tracker.observe(&current);
            tracker.profile().cloned()
        };
        let Some(profile) = profile else { return };

        let bounds = self
            .inner
            .app
            .canvas(canvas)
            .map(|c| c.bounds())
            .unwrap_or_else(Rect::empty);
        let candidates: Vec<(Rect, RegionSignature)> = neighbor_rects(viewport)
            .into_iter()
            .filter(|r| r.intersects(&bounds))
            .filter_map(|r| {
                self.inner
                    .region_signature(canvas, &r)
                    .ok()
                    .map(|sig| (r, sig))
            })
            .collect();
        for rect in rank_by_similarity(&profile, candidates)
            .into_iter()
            .take(top_k)
        {
            // warm the whole span from here to the predicted neighbor, so
            // any partial pan in that direction is already covered
            let _ = p.tx.send(Task::Viewport {
                canvas: canvas.to_string(),
                rect: rect.union(viewport),
            });
        }
    }

    /// Drop the semantic profile of every canvas (after a jump).
    pub fn reset_semantic_profiles(&self) {
        self.inner.semantic.lock().clear();
    }

    /// Block until queued prefetch tasks have been processed (test/bench
    /// helper; foreground requests never need this).
    pub fn drain_prefetch(&self) {
        if self.prefetcher.is_some() {
            // the worker processes tasks in order; an empty channel plus an
            // idle worker is approximated by yielding until the queue drains
            while self.prefetcher.as_ref().is_some_and(|p| !p.tx.is_empty()) {
                std::thread::yield_now();
            }
            // one task may still be mid-flight; a tiny sleep is acceptable
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Cumulative foreground metrics.
    pub fn totals(&self) -> FetchMetrics {
        *self.inner.totals.lock()
    }

    /// Cumulative foreground metrics of one `(canvas, layer)` — and thus of
    /// the one plan the policy resolved for it. Zero until the layer serves
    /// its first foreground request.
    pub fn layer_totals(&self, canvas: &str, layer: usize) -> Result<FetchMetrics> {
        let ci = self.inner.canvas_idx(canvas)?;
        // validate the layer exists so a typo is an error, not silent zeros
        self.inner.plan_for(ci, layer)?;
        Ok(self
            .inner
            .layer_totals
            .lock()
            .get(&(ci, layer as u32))
            .copied()
            .unwrap_or_default())
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
        *self.inner.prefetch_totals.lock()
    }

    /// Zero every accumulated serving total (fetch metrics, per-layer
    /// totals and serve counts, prefetch totals, cache statistics).
    pub fn reset_totals(&self) {
        *self.inner.totals.lock() = FetchMetrics::default();
        self.inner.layer_totals.lock().clear();
        self.inner.layer_regions.lock().clear();
        *self.inner.prefetch_totals.lock() = FetchMetrics::default();
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

    /// Foreground [`KyrixServer::fetch_region`] serves of one layer so far
    /// (the step count [`KyrixServer::drift_report`] normalizes by).
    pub fn layer_region_serves(&self, canvas: &str, layer: usize) -> Result<u64> {
        let ci = self.inner.canvas_idx(canvas)?;
        self.inner.plan_for(ci, layer)?;
        Ok(self
            .inner
            .layer_regions
            .lock()
            .get(&(ci, layer as u32))
            .copied()
            .unwrap_or(0))
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
        self.sync_gauges();
        self.inner.obs.to_json()
    }

    /// Like [`KyrixServer::telemetry_json`], but as an aligned
    /// human-readable table.
    pub fn telemetry_text(&self) -> String {
        self.sync_gauges();
        self.inner.obs.to_text()
    }

    fn sync_gauges(&self) {
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
    }

    /// Compare each tuned layer's *live* per-interaction modeled cost
    /// against the tuner's calibration measurements and flag layers whose
    /// cheapest plan appears to have changed (see [`crate::drift`] for the
    /// comparison semantics — detection only, nothing is re-planned).
    /// Present iff the server was launched with
    /// [`PlanPolicy::Measured`], like [`KyrixServer::tuning_report`].
    pub fn drift_report(&self) -> Option<DriftReport> {
        let tuning = self.tuning.as_ref()?;
        let layer_totals = self.inner.layer_totals.lock().clone();
        let layer_regions = self.inner.layer_regions.lock().clone();
        Some(DriftReport::assess(
            tuning,
            &self.inner.cost,
            |canvas, layer| {
                let ci = self.inner.canvas_idx(canvas).ok()?;
                let key = (ci, layer as u32);
                let steps = layer_regions.get(&key).copied().unwrap_or(0);
                Some((layer_totals.get(&key).copied().unwrap_or_default(), steps))
            },
        ))
    }

    /// End-to-end EXPLAIN for one `(canvas, layer)`: the resolved
    /// [`FetchPlan`] and the policy that chose it, the tuner's
    /// per-candidate modeled costs (when the launch was
    /// [`PlanPolicy::Measured`]), the current drift assessment, and the
    /// storage executor's plan for the layer's representative fetch SQL —
    /// both halves of a fetch in one report. Render it with
    /// [`crate::explain::LayerExplain::render`] (or `Display`).
    pub fn explain(&self, canvas: &str, layer: usize) -> Result<crate::explain::LayerExplain> {
        let plan = self.plan_for(canvas, layer)?;
        let store = self.store(canvas, layer)?;
        let tuning = self.tuning.as_ref().and_then(|t| {
            t.layers
                .iter()
                .find(|l| l.canvas == canvas && l.layer == layer)
                .cloned()
        });
        let drift = self.drift_report().and_then(|r| {
            r.layers
                .into_iter()
                .find(|l| l.canvas == canvas && l.layer == layer)
        });
        let fetch_sql = crate::explain::fetch_sql(&store);
        let mut storage_plan = Vec::new();
        if let Some(sql) = &fetch_sql {
            let snap = self.inner.snapshot();
            let result = snap.query(&format!("EXPLAIN {sql}"), &[])?;
            for row in &result.rows {
                if let Value::Text(line) = row.get(0) {
                    // sharded views concatenate per-shard plan rows; every
                    // shard plans identically, so keep the first copy only
                    if !storage_plan.iter().any(|l| l == line) {
                        storage_plan.push(line.clone());
                    }
                }
            }
        }
        Ok(crate::explain::LayerExplain {
            canvas: canvas.to_string(),
            layer,
            plan,
            policy_label: self.config.policy.label(),
            tuning,
            drift,
            fetch_sql,
            storage_plan,
        })
    }

    /// Clear all backend caches (tile + box).
    pub fn clear_caches(&self) {
        self.inner.tile_cache.lock().clear();
        self.inner.box_caches.lock().clear();
    }

    /// The latest published [`SnapshotView`] (single-node: a
    /// [`crate::DatabaseSnapshot`]; sharded: a
    /// [`crate::ShardedSnapshot`]). The returned `Arc` is an owned,
    /// immutable view: hold it as long as you like, concurrent mutations
    /// publish new views without touching yours. Its
    /// [`SnapshotView::versions`] vector says, per shard, which data
    /// version last touched it.
    pub fn snapshot(&self) -> Arc<dyn SnapshotView> {
        self.inner.snapshot()
    }

    /// Direct read-only access to the underlying data, as an owned
    /// snapshot view (query it with [`SnapshotView::query`]).
    ///
    /// This used to return a `parking_lot` read guard, which made
    /// `server.mutate_raw(..)` while holding the guard a silent
    /// self-deadlock (the lock is not reentrant). The returned view
    /// holds no lock at all, so that hazard is gone by construction — but
    /// note it is *pinned*: it does not observe mutations published after
    /// this call. Call again for a fresh view.
    pub fn database(&self) -> Arc<dyn SnapshotView> {
        self.inner.snapshot()
    }

    // ---------------------------------------------------- live mutation

    /// Apply a mutation to the database and publish the result as a new
    /// snapshot, surgically invalidating serving state. `tables`
    /// declares, up front, every physical table the mutation may touch —
    /// a table backing a [`crate::TileDesign::TupleTileMapping`] layer is
    /// refused *before* anything is applied (its precomputed mapping rows
    /// cannot be patched in place; relaunch to re-tile).
    ///
    /// `apply` runs against a *successor* database built off to the side
    /// (a copy-on-write clone of the published head: it shares pages and
    /// index nodes with the head, and a write copies the page and the
    /// root-to-leaf nodes it changes) and returns its own result plus
    /// the [`DirtyRegion`]s it touched (table coordinates). Concurrent
    /// fetches keep resolving against the published head the whole time —
    /// they never block behind the repair. On success the server
    /// publishes the successor atomically with the invalidation:
    ///
    /// * bumps the data-version stamp, tags the new snapshot with it, and
    ///   logs the canvas-space dirty rectangles, so sessions
    ///   ([`KyrixServer::changes_since`]) refetch exactly the invalidated
    ///   regions (in-flight fetches that pinned the pre-mutation snapshot
    ///   compare their snapshot tag and refuse to cache),
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
    /// Mutators are serialized against each other; a second `mutate_raw`
    /// blocks until the first publishes, then clones the fresh head.
    ///
    /// Typical caller: `kyrix_lod`'s incremental pyramid maintenance,
    /// whose `MaintenanceReport` names exactly the tables and dirty
    /// regions this expects.
    pub fn mutate_raw<T>(
        &self,
        tables: &[&str],
        apply: impl FnOnce(&mut Database) -> Result<(T, Vec<DirtyRegion>)>,
    ) -> Result<T> {
        self.mutate_shards(tables, |shards| match shards {
            [db] => apply(db),
            _ => Err(ServerError::Config(
                "mutate_raw closures see one database; this backend is sharded — \
                 use mutate_shards and route each delta to its owning shard"
                    .to_string(),
            )),
        })
    }

    /// Sharded form of [`KyrixServer::mutate_raw`]: `apply` sees a
    /// copy-on-write clone of *every* shard (single node: a one-element
    /// slice) and routes each delta to its owning shard itself —
    /// `kyrix_lod`'s sharded pyramid maintenance folds per-shard point
    /// deltas plus the boundary-cell changes of the coordinator merge this
    /// way. Publication semantics match `mutate_raw`, with one addition:
    /// each returned [`DirtyRegion`] is routed through the backend's
    /// partitioners, and only the shards it lands on get their
    /// version-vector entry bumped (unroutable regions conservatively dirty
    /// every shard). Sessions pinning per-shard version vectors therefore
    /// see exactly which shards moved under them.
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
            self.inner.backend.begin_write()
        };
        // `DbCounters` is shared between clones and a cloned table carries
        // its `cow_stats` tallies along, so the deltas across `apply` are
        // exactly the tables this mutation unshared and the pages and index
        // nodes its writes copied (mutators are serialized by the writer
        // lock held above)
        let cow_totals = |shards: &[Database]| {
            let mut totals = (0u64, 0u64, 0u64);
            for db in shards {
                totals.0 += db.counters.cow_table_copies();
                for table in tables.iter().filter_map(|t| db.table(t).ok()) {
                    let stats = table.cow_stats();
                    totals.1 += stats.pages_copied;
                    totals.2 += stats.nodes_copied;
                }
            }
            totals
        };
        let (tables_before, pages_before, nodes_before) = cow_totals(&next);
        match apply(&mut next) {
            Ok((out, dirty)) => {
                let (tables_after, pages_after, nodes_after) = cow_totals(&next);
                let copies = tables_after.saturating_sub(tables_before);
                obs.counter("snapshot.cow_table_copies").add(copies);
                obs.counter("snapshot.cow_pages_copied")
                    .add(pages_after.saturating_sub(pages_before));
                obs.counter("snapshot.cow_nodes_copied")
                    .add(nodes_after.saturating_sub(nodes_before));
                obs.gauge("mutation.last_cow_copies").set(copies as i64);
                // the retired head comes back out of `publish_locked` and
                // is dropped here, after the cache and log locks are
                // released: no reader's cache lookup waits for the free
                drop(self.publish_locked(next, &dirty)?);
                Ok(out)
            }
            // drop the successors; the head was never touched
            Err(e) => Err(e),
        }
    }

    /// Refuse tables whose serving state cannot be maintained in place:
    /// record tables of tuple–tile mapping layers (precomputed mapping
    /// rows), and *source* tables of layers that were materialized into a
    /// side table (the copy would silently go stale). Separable layers —
    /// served straight off their raw table — are the mutable surface.
    fn validate_mutable(&self, tables: &[&str]) -> Result<()> {
        for (&(ci, li), store) in &self.inner.stores {
            let materialized = match store {
                LayerStore::TileMapping { record_table, .. } => {
                    if tables.contains(&record_table.as_str()) {
                        return Err(ServerError::Config(format!(
                            "table `{record_table}` backs a tuple–tile mapping layer; \
                             its mapping rows cannot be maintained in place — relaunch \
                             to re-precompute"
                        )));
                    }
                    true
                }
                LayerStore::Spatial { .. } => true,
                LayerStore::Static | LayerStore::SeparableRaw { .. } => false,
            };
            if !materialized {
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
                    self.inner.app.canvases[ci as usize].id
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
    /// Returns the retired head for the caller to drop outside those locks.
    fn publish_locked(
        &self,
        next: Vec<Database>,
        dirty: &[DirtyRegion],
    ) -> Result<Arc<dyn SnapshotView>> {
        let obs = Arc::clone(&self.inner.obs);
        let _publish = obs.span("publish");
        // which shards actually changed: route every dirty region through
        // the backend's partitioners. An empty or unroutable dirty set
        // conservatively dirties every shard.
        let n = self.inner.backend.shard_count();
        let mut shard_dirty = vec![dirty.is_empty(); n];
        for d in dirty {
            match self.inner.backend.route_rect(&d.table, &d.rect) {
                Some(ids) => ids.into_iter().for_each(|i| shard_dirty[i] = true),
                None => shard_dirty.iter_mut().for_each(|f| *f = true),
            }
        }
        // backstop for closures that report a dirty region on a
        // mapping-backed table they never declared (`validate_mutable`
        // checks the declared list up front): the mutation is already
        // applied in `next`, and nothing surgical is possible — publish
        // it, drop everything, truncate the log so every session
        // refetches, and surface the error; tile fetches on that layer
        // keep consulting stale mapping rows until a relaunch
        let stale_mapping = self.inner.stores.values().find_map(|s| match s {
            LayerStore::TileMapping { record_table, .. }
                if dirty.iter().any(|d| d.table == *record_table) =>
            {
                Some(record_table.clone())
            }
            _ => None,
        });
        if let Some(table) = stale_mapping {
            let _retired = {
                let mut tiles = self.inner.tile_cache.lock();
                let mut boxes = self.inner.box_caches.lock();
                let mut log = self.inner.mutations.lock();
                log.version += 1;
                log.entries.clear();
                tiles.clear();
                boxes.clear();
                obs.gauge("snapshot.head_version").set(log.version as i64);
                self.inner.backend.publish(next, log.version, &shard_dirty)
            };
            return Err(ServerError::Config(format!(
                "table `{table}` backs a tuple–tile mapping layer; its mapping rows \
                 are now stale — relaunch to re-precompute"
            )));
        }

        // map table-space dirty rects onto the (canvas, layer)s they back
        type CanvasMap = Box<dyn Fn(&Rect) -> Rect>;
        let mut entries: Vec<(u32, u32, Rect)> = Vec::new();
        for (&(ci, li), store) in &self.inner.stores {
            let (table, to_canvas): (&str, CanvasMap) = match store {
                LayerStore::Static | LayerStore::TileMapping { .. } => continue,
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
        let retired = self.inner.backend.publish(next, version, &shard_dirty);
        let named: Vec<MutationEntry> = entries
            .iter()
            .map(|&(ci, li, rect)| (self.inner.app.canvases[ci as usize].id.clone(), li, rect))
            .collect();
        log.entries.push_back((version, named));
        while log.entries.len() > MUTATION_LOG_CAP {
            log.entries.pop_front();
        }
        let _evict = obs.span("evict");
        // backend tile cache: drop intersecting tiles of affected layers
        for &(ci, li, ref rect) in &entries {
            if let Ok(FetchPlan::StaticTiles { size, .. }) = self.inner.plan_for(ci, li as usize) {
                let tiling = Tiling::new(size);
                tiles.retain(|&(kci, kli, key), _| {
                    kci != ci
                        || kli != li
                        || !tiling.tile_rect(TileId::from_key(key)).intersects(rect)
                });
            }
        }
        // backend box shelves: drop overlapping boxes
        for &(ci, li, ref rect) in &entries {
            if let Some(shelf) = boxes.get_mut(&(ci, li)) {
                shelf.retain(|(r, _, _)| !r.intersects(rect));
            }
        }
        Ok(retired)
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
