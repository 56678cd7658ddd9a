//! `kyrix-lod`: the automatic zoom-level hierarchy (level-of-detail)
//! subsystem, after Kyrix-S ("Authoring Scalable Scatterplot
//! Visualizations of Big Data").
//!
//! The original paper's multi-scale scenarios (the Figure 2–3 US map)
//! require an author to wire every zoom level by hand. This crate *builds*
//! the zoom pyramid from data instead:
//!
//! * [`LodConfig`] names a raw point table, a pyramid height, a zoom
//!   factor and a minimum mark spacing;
//! * [`build_pyramid`] materializes the **cluster pyramid** — level 0 is
//!   the raw data, each coarser level is produced by deterministic,
//!   grid-hashed greedy clustering with the Kyrix-S non-overlap guarantee
//!   (no two retained marks closer than the spacing bound), each cluster
//!   carrying `cnt`, `sum_*`/`avg_*` of the configured measures and its
//!   members' bounding box;
//! * [`build_pyramid_on_shards`] runs the same construction over a raw
//!   table partitioned across shard databases: shards cluster their
//!   local points into grid cells one after another on the calling
//!   thread (a thread per shard would strand what it frees in an
//!   allocator arena of its own), the coordinator merges boundary cells —
//!   producing the same level tables as a single node —
//!   and each level row is written to the shard whose grid cell owns it,
//!   with a [`kyrix_parallel::QueryRouter`] over every level table: the
//!   layout `kyrix-server`'s scatter-gather backend serves directly;
//! * [`lod_app`] emits the multi-canvas [`kyrix_core::AppSpec`] with
//!   `geometric_semantic_zoom` jumps auto-wired between adjacent levels;
//! * [`LodPyramid::insert_points_sharded`] /
//!   [`LodPyramid::delete_points_sharded`] ([`maintain`]) mutate the raw
//!   table and fold the delta into every level table **in place** — a
//!   local repair around the dirty grid cells, bit-identical to a
//!   from-scratch rebuild — over the databases the pyramid was built on:
//!   each delta routes to its owning shard and boundary cells merge at
//!   the coordinator; [`LodPyramid::insert_points`] /
//!   [`LodPyramid::delete_points`] pass the one database of a
//!   [`build_pyramid`] pyramid as a one-element slice.
//!
//! Every level table carries a point R-tree on its `(cx, cy)` columns, so
//! the existing `kyrix-server` precompute paths (spatial design,
//! separable skip) serve tiles and dynamic boxes at any zoom level
//! unmodified. See `src/README.md` for pyramid anatomy, the sharded-build
//! merge argument, and the maintenance/repair flow.
//!
//! Build a tiny pyramid, mutate it, and read a level back:
//!
//! ```
//! use kyrix_lod::{build_pyramid, lod_app, LodConfig, RawPoint};
//! use kyrix_storage::{DataType, Database, IndexKind, Row, Schema, SpatialCols, Value};
//!
//! let mut db = Database::new();
//! db.create_table("pts", Schema::empty()
//!     .with("id", DataType::Int)
//!     .with("x", DataType::Float)
//!     .with("y", DataType::Float)
//!     .with("w", DataType::Float)).unwrap();
//! for i in 0..512i64 {
//!     db.insert("pts", Row::new(vec![
//!         Value::Int(i),
//!         Value::Float((i % 32) as f64 * 32.0),
//!         Value::Float((i / 32) as f64 * 32.0),
//!         Value::Float((i % 3) as f64),
//!     ])).unwrap();
//! }
//! // maintenance locates deleted rows through the raw spatial index
//! db.create_index("pts", "pts_xy", IndexKind::Spatial(SpatialCols::Point {
//!     x: "x".into(),
//!     y: "y".into(),
//! })).unwrap();
//! let cfg = LodConfig::new("pts", 1024.0, 512.0, 2).with_measure("w");
//! let mut pyramid = build_pyramid(&mut db, &cfg).unwrap();
//! assert_eq!(pyramid.depth(), 3);
//!
//! // insert a fresh point and delete an original one: every level table
//! // is patched in place, conserving counts exactly
//! pyramid.insert_points(&mut db, &[RawPoint::new(900, 500.0, 250.0, &[5.0])]).unwrap();
//! pyramid.delete_points(&mut db, &[0]).unwrap();
//! let total = db.query("SELECT SUM(cnt) FROM pts_lod1", &[]).unwrap();
//! assert_eq!(total.rows[0].get(0).as_i64().unwrap(), 512);
//!
//! let spec = lod_app(&cfg, (256.0, 256.0));
//! assert_eq!(spec.canvases.len(), 3);
//! ```
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod app;
mod cluster;
pub mod config;
pub mod error;
pub mod grid;
pub mod maintain;
pub mod pyramid;
mod state;

pub use aggregate::Cluster;
pub use app::lod_app;
pub use config::LodConfig;
pub use error::{LodError, Result};
pub use grid::{cell_of, Cell, SpacingGrid};
pub use maintain::{LevelMaintenance, MaintenanceReport, RawPoint, TupleId};
pub use pyramid::{build_pyramid, build_pyramid_on_shards, LevelInfo, LodPyramid};
pub use state::{LevelMemory, MemoryReport};
