//! # Kyrix — interactive visual data exploration at scale
//!
//! A from-scratch Rust reproduction of *Kyrix: Interactive Visual Data
//! Exploration at Scale* (Tao, Liu, Demiralp, Chang, Stonebraker —
//! CIDR 2019): an end-to-end system for building scalable
//! *details-on-demand* visualizations.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`storage`] | `kyrix-storage` | embedded DBMS: heap tables, B+tree / hash / R-tree indexes, SQL with aggregates/DML |
//! | [`parallel`] | `kyrix-parallel` | partitioned scatter-gather execution (§4 multi-node) |
//! | [`expr`] | `kyrix-expr` | the declarative expression language (placements, selectors, encodings) |
//! | [`core`] | `kyrix-core` | canvases, layers, jumps + the spec compiler |
//! | [`lod`] | `kyrix-lod` | automatic zoom-level hierarchy: overlap-bounded cluster pyramids + generated multi-level apps |
//! | [`render`] | `kyrix-render` | software rasterizer (marks, scales, PPM export) |
//! | [`server`] | `kyrix-server` | backend: tiles, dynamic boxes, precompute, caches, momentum/semantic prefetch |
//! | [`client`] | `kyrix-client` | headless frontend: sessions, traces, coordinated views |
//! | [`workload`] | `kyrix-workload` | the paper's datasets, traces and example apps |
//!
//! ## Quickstart
//!
//! ```
//! use kyrix::prelude::*;
//!
//! // 1. load data into the embedded database
//! let mut db = Database::new();
//! db.create_table("dots", Schema::empty()
//!     .with("id", DataType::Int)
//!     .with("x", DataType::Float)
//!     .with("y", DataType::Float)).unwrap();
//! for i in 0..1000i64 {
//!     db.insert("dots", Row::new(vec![
//!         Value::Int(i),
//!         Value::Float((i % 100) as f64 * 20.0),
//!         Value::Float((i / 100) as f64 * 200.0),
//!     ])).unwrap();
//! }
//!
//! // 2. declare the app (canvas + layer + placement + rendering)
//! let spec = AppSpec::new("quick")
//!     .add_transform(TransformSpec::query("dots", "SELECT * FROM dots"))
//!     .add_canvas(CanvasSpec::new("main", 2000.0, 2000.0).layer(
//!         LayerSpec::dynamic("dots", PlacementSpec::point("x", "y"),
//!                            RenderSpec::Marks(MarkEncoding::circle()))))
//!     .initial("main", 1000.0, 1000.0)
//!     .viewport(512.0, 512.0);
//!
//! // 3. compile, launch a server (precomputes indexes), open a session
//! let app = compile(&spec, &db).unwrap();
//! let config = ServerConfig::new(FetchPlan::DynamicBox { policy: BoxPolicy::Exact });
//! let (server, _reports) = KyrixServer::launch(app, db, config).unwrap();
//! let (mut session, first) = Session::open(std::sync::Arc::new(server)).unwrap();
//! assert!(first.visible_rows > 0);
//!
//! // 4. interact
//! let step = session.pan_by(100.0, 0.0).unwrap();
//! assert!(step.modeled_ms < 500.0, "the paper's interactivity bound");
//! ```

pub use kyrix_client as client;
pub use kyrix_core as core;
pub use kyrix_expr as expr;
pub use kyrix_lod as lod;
pub use kyrix_parallel as parallel;
pub use kyrix_render as render;
pub use kyrix_server as server;
pub use kyrix_storage as storage;
pub use kyrix_workload as workload;

/// Everything needed to build and run a Kyrix application.
pub mod prelude {
    pub use kyrix_client::{
        run_trace, JumpOutcome, LinkMode, LinkedViews, Move, Session, StepReport, TraceReport,
        Viewport,
    };
    pub use kyrix_core::{
        compile, link_zoom_levels, AppSpec, CanvasSpec, CompiledApp, JumpSpec, JumpType, LayerSpec,
        MarkEncoding, PlacementSpec, PlanHint, RampKind, RenderSpec, TransformSpec, ZoomLevelRef,
    };
    pub use kyrix_expr::{as_affine, eval, parse, Compiled, Expr, VarMap};
    pub use kyrix_lod::{build_pyramid, build_pyramid_on_shards, lod_app, LodConfig, LodPyramid};
    pub use kyrix_parallel::{scatter_gather, Partitioner, QueryRouter};
    pub use kyrix_render::{save_ppm, Color, Frame, Mark, MarkType};
    pub use kyrix_server::{
        BoxPolicy, CostModel, FetchPlan, KyrixServer, PlanPolicy, PrefetchPolicy, ServerConfig,
        Snapshot, TileDesign, TileId, Tiling,
    };
    pub use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
    pub use kyrix_workload::{
        dots_app, load_skewed, load_uniform, load_usmap, load_zipf_galaxy, trace_a, usmap_app,
        zoom_trace, DotsConfig, GalaxyConfig, SkewConfig,
    };
}
