//! `kyrix-parallel`: a partitioned, scatter-gather execution layer over the
//! embedded Kyrix engine.
//!
//! Paper §4: *"Fifty terabytes will require a parallel multi-node DBMS to
//! achieve our performance goals."* This crate simulates that multi-node
//! deployment in-process: a sharded database is N independent shards (each
//! a full [`kyrix_storage::Database`], standing in for one node) whose rows
//! were placed by a [`Partitioner`], plus the [`QueryRouter`] that records
//! which table is partitioned how. [`scatter_gather`] executes a query on
//! all — or, for spatially routed viewport queries, only the intersecting —
//! shards on parallel threads, then merges results at a coordinator.
//!
//! The merge layer understands the full SQL surface of the engine:
//!
//! * plain selects concatenate (with ORDER BY / OFFSET / LIMIT applied at
//!   the coordinator, and LIMIT pushed down to shards when order allows),
//! * aggregates are decomposed into per-shard **partials** (`AVG` becomes
//!   `SUM` + `COUNT`) and recombined per group key, matching single-node
//!   semantics exactly — a property the tests pin down.
//!
//! The Kyrix-relevant win is **spatial routing**: with a
//! [`Partitioner::SpatialGrid`], a dynamic-box query `bbox && rect(...)`
//! only touches the grid cells the viewport overlaps, so per-query work
//! stays constant as the canvas (and shard count) grows.

pub mod merge;
pub mod partition;
pub mod router;
pub mod scatter;

pub use partition::Partitioner;
pub use router::QueryRouter;
pub use scatter::{scatter_gather, scatter_gather_prepared, Gathered};
