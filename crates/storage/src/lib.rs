//! `kyrix-storage`: the embedded relational engine underpinning the Kyrix
//! reproduction.
//!
//! The CIDR'19 Kyrix paper runs on PostgreSQL; this crate provides the
//! equivalent substrate built from scratch:
//!
//! * slotted-page **heap tables** ([`heap::TableHeap`], 8 KiB pages),
//! * a **B+tree** with duplicate keys ([`btree::BPlusTree`]) for equality
//!   and range probes,
//! * an **R-tree** with STR bulk loading ([`rtree::RTree`]) — the paper's
//!   *spatial* design,
//! * a **SQL layer** ([`sql`]) whose planner picks between those access
//!   paths (rectangle probes, equality and range probes, index joins), with
//!   aggregates/GROUP BY, DML, DDL, and EXPLAIN on top.
//!
//! A [`Database`] is a plain value: a clone shares pages and index nodes
//! with the original, and a write copies the page and the root-to-leaf
//! nodes it changes. Pages and nodes sit in one two-level copy-on-write
//! arena ([`spine::Spine`]), so what a table version costs to clone, to
//! unshare and to drop grows with its chunks of handles, not its rows.
//! `kyrix-server` builds its concurrency control on that (a mutation edits
//! a clone and publishes it; readers keep the snapshot they pinned). The
//! engine itself has no locks and no log.
//!
//! Physical row order belongs to the engine too: [`Database::cluster`]
//! rewrites a heap in the leaf order of one of its spatial indexes, so the
//! rows a rectangle probe returns share a few adjacent pages, and
//! [`ExecStats::heap_pages`] counts the pages a query's rows were read
//! from.
//!
//! ```
//! use kyrix_storage::{Database, Schema, DataType, Row, Value, IndexKind, SpatialCols};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     "dots",
//!     Schema::empty()
//!         .with("id", DataType::Int)
//!         .with("x", DataType::Float)
//!         .with("y", DataType::Float),
//! ).unwrap();
//! for i in 0..100 {
//!     db.insert("dots", Row::new(vec![
//!         Value::Int(i), Value::Float(i as f64), Value::Float((i % 10) as f64),
//!     ])).unwrap();
//! }
//! db.create_index("dots", "sp", IndexKind::Spatial(SpatialCols::Point {
//!     x: "x".into(), y: "y".into(),
//! })).unwrap();
//! let r = db.query("SELECT COUNT(*) FROM dots WHERE bbox && rect(0, 0, 9, 9)", &[]).unwrap();
//! assert_eq!(r.rows[0].get(0), &Value::Int(10));
//! ```

pub mod btree;
pub mod catalog;
pub mod database;
pub mod error;
pub mod fxhash;
pub mod geom;
pub mod heap;
pub mod page;
pub mod row;
pub mod rtree;
pub mod schema;
pub mod spine;
pub mod sql;
pub mod stats;
pub mod value;

pub use catalog::{IndexKind, SpatialCols, Table};
pub use database::{Database, Prepared, QueryObserver};
pub use error::{Result, StorageError};
pub use geom::{Point, Rect};
pub use heap::RecordId;
pub use row::Row;
pub use schema::{Column, Schema};
pub use sql::QueryResult;
pub use stats::{CowStats, DbCounters, ExecStats};
pub use value::{DataType, OrdValue, Value};
