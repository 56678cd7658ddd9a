//! `kyrix-server`: the Kyrix backend (paper Figure 1).
//!
//! Implements the paper's §3 interactivity machinery:
//! * static **tiling** over the paper's spatial database design: one
//!   store per layer, whatever plan serves it — [`tile`], [`precompute`];
//! * the novel **dynamic box** fetching granularity with exact, inflated
//!   and density-adaptive policies — [`dbox`];
//! * per-layer **plan policies**: one server mixes static tiles and
//!   dynamic boxes across the `(canvas, layer)`s of one app — [`policy`];
//! * §3.2 **separability**: precomputation is skipped for layers whose
//!   placement is an affine of raw indexed attributes;
//! * backend **LRU caches** for tiles and boxes — [`cache`];
//! * **momentum- and semantic-based prefetching** (the paper's §4 future
//!   work, implemented) on one background worker — [`prefetch`];
//! * an explicit, configurable **cost model** for the network/DBMS
//!   overheads that an in-process reproduction does not naturally pay —
//!   [`cost`];
//! * **telemetry** threaded through the whole request and mutation paths
//!   (spans, histograms, snapshot gauges; `kyrix-obs`) and an end-to-end
//!   **EXPLAIN** per served layer — [`explain`];
//! * one serving backend for any shard count: fetches resolve against a
//!   [`SnapshotView`], whose one implementor is a [`Snapshot`] over N
//!   shard databases — a single node is the one-shard case, answered
//!   inline; several shards answer by scatter-gather — [`backend`].

#![warn(missing_docs)]

pub mod backend;
mod block;
pub mod cache;
pub mod cost;
pub mod dbox;
pub mod error;
pub mod explain;
pub mod fetch;
pub mod metrics;
pub mod policy;
pub mod precompute;
pub mod prefetch;
pub mod server;
pub mod tile;

pub use backend::{Snapshot, SnapshotView};
pub use cache::{CacheStats, LruCache};
pub use cost::CostModel;
pub use dbox::BoxPolicy;
pub use error::{Result, ServerError};
pub use explain::LayerExplain;
pub use fetch::fetch_rect;
pub use metrics::FetchMetrics;
pub use policy::PlanPolicy;
pub use precompute::{
    precompute_layer, FetchPlan, LayerRowLayout, LayerStore, PrecomputeReport, TileDesign,
};
pub use prefetch::{
    neighbor_rects, predict_viewport, rank_by_similarity, MomentumTracker, RegionSignature,
    SemanticTracker, MIN_VELOCITY_FRAC,
};
pub use server::{
    BoxResponse, DirtyRegion, KyrixServer, PrefetchPolicy, ServerConfig, PREFETCH_QUEUE_BOUND,
};
pub use tile::{TileId, Tiling, MAX_COVERING_TILES};
