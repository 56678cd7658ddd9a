//! A small SQL layer: lexer → parser → planner → executor.
//!
//! The surface covers what Kyrix issues at runtime plus the analytics and
//! editing statements of the §4 extensions:
//!
//! ```sql
//! SELECT r.* FROM mapping m JOIN record r ON m.tuple_id = r.tuple_id
//!   WHERE m.tile_id = $1                                 -- tile (mapping design)
//! SELECT * FROM layer_dots WHERE bbox && rect($1,$2,$3,$4) -- tile/box (spatial design)
//! SELECT x, y FROM dots WHERE x BETWEEN 10 AND 20 ORDER BY y, x DESC LIMIT 100 OFFSET 20
//! SELECT state, COUNT(*) AS n, AVG(rate) FROM crimes GROUP BY state HAVING n > 2
//! INSERT INTO tags (id, label) VALUES (1, 'artifact')
//! UPDATE events SET tag = 'seen' WHERE bucket = $1
//! DELETE FROM events WHERE amplitude > 500
//! EXPLAIN SELECT * FROM dots WHERE bbox && rect(0, 0, 10, 10)
//! CREATE TABLE dots (id INT, x FLOAT, y FLOAT, label TEXT)
//! CREATE INDEX dots_xy ON dots USING SPATIAL (x, y)
//! DROP TABLE dots
//! ```
//!
//! # Access paths
//!
//! The planner works in two stages. First [`plan::plan_fast_path`] tries to
//! resolve the whole statement to a [`plan::FastPath`] shortcut:
//!
//! | fast path | eligible shape | EXPLAIN line |
//! |---|---|---|
//! | metadata aggregate | `COUNT(*)` / `MIN(col)` / `MAX(col)` only, no WHERE/GROUP BY/HAVING/join; MIN/MAX need a B+tree index on `col` | `CountStar(table_meta)`, `Min(idx ..)`, `Max(idx ..)` |
//! | index top-N | `ORDER BY <indexed col> [DESC] LIMIT k` whose scan would otherwise be sequential | `TopN(idx, k=..)` |
//!
//! `COUNT(*)` reads the live heap length; `MIN`/`MAX` descend to a B+tree
//! edge (skipping NULLs, which sort first); top-N walks the index in key
//! order and stops after `offset + k` rows survive the residual filter.
//! All three leave `ExecStats::rows_scanned` at (or near) the number of
//! rows actually *returned* rather than the table size.
//!
//! Ineligible statements fall through to [`plan::plan_select`], which picks
//! a [`plan::ScanPlan`] (spatial / index-eq / index-range / seq scan, plus
//! join strategies). On that path the executor still pushes `LIMIT` into
//! the scan when no aggregate, sort, or join needs the full row set —
//! EXPLAIN marks this as `Limit(k, pushdown)`.
//!
//! Every shortcut is pinned row-multiset-identical to the general path by
//! the differential harness in `crates/storage/tests/sql_differential.rs`.

pub mod ast;
pub mod bind;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{
    AggFunc, ColumnRef, CreateIndex, CreateTable, Delete, IndexSpec, Insert, Select, SelectItem,
    SqlExpr, Statement, Update,
};
pub use exec::{
    execute_select, execute_select_reserving, explain_select, output_schema, QueryResult,
};
pub use parser::{parse, parse_statement};
pub use plan::{plan_fast_path, plan_select, FastPath, MetaAgg, ScanPlan};
