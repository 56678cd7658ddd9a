//! Differential query-test harness for the SQL fast paths.
//!
//! Every fast path (metadata-answered `COUNT(*)`/`MIN`/`MAX`, LIMIT
//! pushdown, index-backed top-N) must produce output row-for-row identical
//! to [`naive_execute`], a reference interpreter that knows nothing about
//! planning or indexes: it filters the generated rows in insertion order,
//! stable-sorts, slices, and folds. Queries are generated structurally
//! (never parsed back) so the reference stays independent of the SQL
//! pipeline under test.
//!
//! The non-aggregate shapes run under three select lists ([`Proj`]): two
//! that are the scan's columns in scan order, whose result rows the
//! executor *moves* out of the scan, and one that is not, whose rows it
//! builds — both against the same reference. Hand-written cases below
//! cover what the generators cannot express (joins, ORDER BY fallbacks).
//!
//! Every generated case runs twice on the same table — as loaded, and
//! after `Database::cluster` has rewritten its heap in the order of a
//! spatial index — against the same reference, which is handed the rows in
//! the heap order each run finds them in (what ties under `ORDER BY` are
//! pinned to). Clustering may change where rows sit, never what a query
//! answers; and on both runs `heap_pages <= rows_scanned`.
//!
//! Each generated case also asserts *plan-level* expectations: eligible
//! shapes must resolve to a fast path (and show the matching `ExecStats`),
//! ineligible ones must fall back — so the shortcuts are provably
//! exercised, not silently skipped.

use kyrix_storage::sql::{self, FastPath};
use kyrix_storage::{DataType, Database, IndexKind, Row, Schema, SpatialCols, Value};

// ------------------------------------------------------------ generators

/// One generated row of table `t(id, k, v)`: `id` is the insertion index,
/// `k` is a duplicate-heavy nullable sort key, `v` a nullable payload.
type GenRow = (Option<i64>, Option<i64>);

/// WHERE clause shapes the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Filter {
    /// No WHERE.
    None,
    /// `v >= c` — not index-plannable, so it rides along as a residual.
    VGe(i64),
    /// `k BETWEEN lo AND hi` — plans to an index range scan, which makes
    /// top-N ineligible (the fallback must still match the reference).
    KBetween(i64, i64),
    /// `k BETWEEN lo AND hi AND v >= c` — the index range scan with a
    /// residual filter on the rows it fetches.
    KBetweenVGe(i64, i64, i64),
}

impl Filter {
    fn sql(&self) -> String {
        match self {
            Filter::None => String::new(),
            Filter::VGe(c) => format!(" WHERE v >= {c}"),
            Filter::KBetween(lo, hi) => format!(" WHERE k BETWEEN {lo} AND {hi}"),
            Filter::KBetweenVGe(lo, hi, c) => {
                format!(" WHERE k BETWEEN {lo} AND {hi} AND v >= {c}")
            }
        }
    }

    /// SQL comparison semantics: NULL never matches.
    fn matches(&self, k: Option<i64>, v: Option<i64>) -> bool {
        match self {
            Filter::None => true,
            Filter::VGe(c) => v.is_some_and(|v| v >= *c),
            Filter::KBetween(lo, hi) => k.is_some_and(|k| k >= *lo && k <= *hi),
            Filter::KBetweenVGe(lo, hi, c) => {
                Filter::KBetween(*lo, *hi).matches(k, v) && Filter::VGe(*c).matches(k, v)
            }
        }
    }

    /// Whether the WHERE plans to an index scan on `k`.
    fn is_indexed(&self) -> bool {
        matches!(self, Filter::KBetween(..) | Filter::KBetweenVGe(..))
    }
}

/// Select lists of the non-aggregate shapes. The first two are the scan's
/// columns in scan order — the executor hands the scan's rows on as the
/// result — the third is not, and builds each output row from its source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Proj {
    /// `SELECT *`.
    Star,
    /// `SELECT id, k, v`.
    Named,
    /// `SELECT v, k, id`.
    Reversed,
}

impl Proj {
    fn sql(&self) -> &'static str {
        match self {
            Proj::Star => "*",
            Proj::Named => "id, k, v",
            Proj::Reversed => "v, k, id",
        }
    }
}

/// The five aggregate items the metadata fast path can answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Agg {
    CountStar,
    MinK,
    MaxK,
    MinV,
    MaxV,
}

impl Agg {
    fn sql(&self) -> &'static str {
        match self {
            Agg::CountStar => "COUNT(*)",
            Agg::MinK => "MIN(k)",
            Agg::MaxK => "MAX(k)",
            Agg::MinV => "MIN(v)",
            Agg::MaxV => "MAX(v)",
        }
    }

    fn uses_v(&self) -> bool {
        matches!(self, Agg::MinV | Agg::MaxV)
    }
}

/// Decode a non-zero bitmask into a non-empty aggregate list.
fn aggs_of(mask: u8) -> Vec<Agg> {
    let all = [Agg::CountStar, Agg::MinK, Agg::MaxK, Agg::MinV, Agg::MaxV];
    all.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, a)| *a)
        .collect()
}

fn opt(v: Option<i64>) -> Value {
    v.map(Value::Int).unwrap_or(Value::Null)
}

/// Build `t(id, k, v)` from generated rows (insert-only, so heap order ==
/// insertion order), with a B+tree on `k` and optionally one on `v`.
fn build_db(rows: &[GenRow], index_v: bool) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::empty()
            .with("id", DataType::Int)
            .with("k", DataType::Int)
            .with("v", DataType::Int),
    )
    .unwrap();
    for (id, (k, v)) in rows.iter().enumerate() {
        db.insert("t", Row::new(vec![Value::Int(id as i64), opt(*k), opt(*v)]))
            .unwrap();
    }
    db.create_index("t", "idx_k", IndexKind::BTree { column: "k".into() })
        .unwrap();
    if index_v {
        db.create_index("t", "idx_v", IndexKind::BTree { column: "v".into() })
            .unwrap();
    }
    db
}

// ---------------------------------------------------- reference executor

/// What the generators can express: `SELECT <items> FROM t [WHERE ..]
/// [ORDER BY k [DESC]] [LIMIT n] [OFFSET n]` where `<items>` is either
/// a [`Proj`] or a non-empty aggregate list.
#[derive(Debug, Clone)]
struct GenQuery {
    aggs: Vec<Agg>,
    proj: Proj,
    filter: Filter,
    order_desc: Option<bool>,
    limit: Option<u64>,
    offset: Option<u64>,
}

impl GenQuery {
    fn sql(&self) -> String {
        let items = if self.aggs.is_empty() {
            self.proj.sql().to_string()
        } else {
            self.aggs
                .iter()
                .map(|a| a.sql())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut s = format!("SELECT {items} FROM t{}", self.filter.sql());
        if let Some(desc) = self.order_desc {
            s.push_str(" ORDER BY k");
            if desc {
                s.push_str(" DESC");
            }
        }
        if let Some(l) = self.limit {
            s.push_str(&format!(" LIMIT {l}"));
        }
        if let Some(o) = self.offset {
            s.push_str(&format!(" OFFSET {o}"));
        }
        s
    }
}

/// The reference interpreter: no planner, no indexes, no pushdown — just
/// filter → stable sort → aggregate/project → offset → limit over the
/// generated rows in heap order (`heap_order` lists their ids: insertion
/// order until the table is clustered).
fn naive_execute(rows: &[GenRow], heap_order: &[usize], q: &GenQuery) -> Vec<Vec<Value>> {
    type Kept = (i64, Option<i64>, Option<i64>);
    let mut kept: Vec<Kept> = heap_order
        .iter()
        .map(|&id| (id as i64, rows[id].0, rows[id].1))
        .filter(|(_, k, v)| q.filter.matches(*k, *v))
        .collect();

    if !q.aggs.is_empty() {
        let min = |sel: fn(&Kept) -> Option<i64>| kept.iter().filter_map(sel).min();
        let max = |sel: fn(&Kept) -> Option<i64>| kept.iter().filter_map(sel).max();
        let row = q
            .aggs
            .iter()
            .map(|a| match a {
                Agg::CountStar => Value::Int(kept.len() as i64),
                Agg::MinK => opt(min(|r| r.1)),
                Agg::MaxK => opt(max(|r| r.1)),
                Agg::MinV => opt(min(|r| r.2)),
                Agg::MaxV => opt(max(|r| r.2)),
            })
            .collect();
        return vec![row];
    }

    if let Some(desc) = q.order_desc {
        // stable: ties keep insertion order, matching both the executor's
        // stable sort and the index walk's run handling. NULLs sort first
        // ascending (Option: None < Some), last descending.
        if desc {
            kept.sort_by_key(|r| std::cmp::Reverse(r.1));
        } else {
            kept.sort_by_key(|r| r.1);
        }
    }
    let off = (q.offset.unwrap_or(0) as usize).min(kept.len());
    kept.drain(..off);
    if let Some(l) = q.limit {
        kept.truncate(l as usize);
    }
    kept.into_iter()
        .map(|(id, k, v)| {
            let mut row = vec![Value::Int(id), opt(k), opt(v)];
            if q.proj == Proj::Reversed {
                row.reverse();
            }
            row
        })
        .collect()
}

fn result_rows(r: &kyrix_storage::QueryResult) -> Vec<Vec<Value>> {
    let n = r.schema.columns().len();
    r.rows
        .iter()
        .map(|row| (0..n).map(|i| row.get(i).clone()).collect())
        .collect()
}

/// Run `q` through the real executor on `db` as loaded and again on a
/// clustered copy, comparing each run with the reference
/// ([`check_against`]). Returns the as-loaded result, whose `ExecStats`
/// the callers' plan-level assertions read.
fn check_differential(
    db: &Database,
    rows: &[GenRow],
    q: &GenQuery,
) -> std::result::Result<kyrix_storage::QueryResult, String> {
    let insertion_order: Vec<usize> = (0..rows.len()).collect();
    let loaded = check_against(db, rows, &insertion_order, q)?;

    // `id` on both axes: leaf order is not insertion order once the tree
    // has more than one leaf (the probe stack visits the last leaf first)
    let mut clustered = db.clone();
    let on_id = IndexKind::Spatial(SpatialCols::Point {
        x: "id".into(),
        y: "id".into(),
    });
    clustered.create_index("t", "sp_id", on_id).unwrap();
    clustered.cluster("t", "sp_id").unwrap();
    let mut heap_order = Vec::with_capacity(rows.len());
    clustered
        .table("t")
        .unwrap()
        .scan(|_, row| heap_order.push(row.get(0).as_i64().unwrap() as usize))
        .unwrap();
    check_against(&clustered, rows, &heap_order, q).map_err(|e| format!("clustered: {e}"))?;
    Ok(loaded)
}

/// One run against the reference. `ORDER BY` queries compare exact
/// sequences (ties are pinned to heap order on both sides); unordered
/// queries compare the result multiset. The one legitimately looser case
/// is a `LIMIT`/`OFFSET` window over an *unspecified* order — SQL lets the
/// executor window any ordering (an index scan reorders rows before LIMIT
/// applies), so there the window size must match the reference and every
/// returned row must come from the filtered set.
fn check_against(
    db: &Database,
    rows: &[GenRow],
    heap_order: &[usize],
    q: &GenQuery,
) -> std::result::Result<kyrix_storage::QueryResult, String> {
    let sql = q.sql();
    let r = db
        .query(&sql, &[])
        .map_err(|e| format!("`{sql}` failed: {e}"))?;
    if r.stats.heap_pages > r.stats.rows_scanned {
        return Err(format!("`{sql}`: more pages than rows in {:?}", r.stats));
    }
    let got = result_rows(&r);
    let want = naive_execute(rows, heap_order, q);
    let key = |rows: &[Vec<Value>]| {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    if q.order_desc.is_some() {
        if got != want {
            return Err(format!("`{sql}`: got {got:?}, reference {want:?}"));
        }
    } else if q.aggs.is_empty() && (q.limit.is_some() || q.offset.is_some()) {
        if got.len() != want.len() {
            return Err(format!(
                "`{sql}`: window size {} != reference {}",
                got.len(),
                want.len()
            ));
        }
        let unwindowed = GenQuery {
            limit: None,
            offset: None,
            ..q.clone()
        };
        let mut pool = key(&naive_execute(rows, heap_order, &unwindowed));
        for row in key(&got) {
            match pool.binary_search(&row) {
                Ok(i) => {
                    pool.remove(i);
                }
                Err(_) => {
                    return Err(format!("`{sql}`: row {row} is not in the filtered set"));
                }
            }
        }
    } else if key(&got) != key(&want) {
        return Err(format!("`{sql}`: multiset mismatch {got:?} vs {want:?}"));
    }
    Ok(r)
}

fn fast_path_of(db: &Database, sql: &str) -> Option<FastPath> {
    let stmt = sql::parse(sql).unwrap();
    sql::plan_fast_path(db, &stmt).unwrap()
}

// ------------------------------------------------------ generated cases

mod generated {
    use super::*;
    use proptest::prelude::*;

    fn rows_strategy() -> impl Strategy<Value = Vec<GenRow>> {
        prop::collection::vec(
            (prop::option::of(0..8i64), prop::option::of(-50..50i64)),
            0..60,
        )
    }

    fn filter_strategy() -> impl Strategy<Value = Filter> {
        (0u8..4, -40..40i64, 0..8i64, 0..8i64).prop_map(|(sel, c, a, b)| match sel {
            0 => Filter::None,
            1 => Filter::VGe(c),
            2 => Filter::KBetween(a.min(b), a.max(b)),
            _ => Filter::KBetweenVGe(a.min(b), a.max(b), c),
        })
    }

    fn proj_strategy() -> impl Strategy<Value = Proj> {
        (0u8..3).prop_map(|sel| match sel {
            0 => Proj::Star,
            1 => Proj::Named,
            _ => Proj::Reversed,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// COUNT(*)/MIN/MAX vs the reference. No-WHERE, fully-indexed
        /// shapes must hit the metadata fast path and scan zero rows;
        /// everything else must fall back (and still match).
        #[test]
        fn aggregates_match_reference(
            rows in rows_strategy(),
            mask in 1u8..32,
            filter in filter_strategy(),
            index_v in any::<bool>(),
        ) {
            let db = build_db(&rows, index_v);
            let q = GenQuery {
                aggs: aggs_of(mask),
                proj: Proj::Star,
                filter,
                order_desc: None,
                limit: None,
                offset: None,
            };
            let r = check_differential(&db, &rows, &q).unwrap_or_else(|e| panic!("{e}"));

            let eligible = filter == Filter::None
                && (index_v || !q.aggs.iter().any(|a| a.uses_v()));
            let fast = fast_path_of(&db, &q.sql());
            if eligible {
                prop_assert!(
                    matches!(fast, Some(FastPath::MetaAggregate { .. })),
                    "expected metadata fast path for `{}`", q.sql()
                );
                prop_assert_eq!(r.stats.rows_scanned, 0, "metadata answers scan nothing");
            } else {
                prop_assert!(fast.is_none(), "`{}` must take the general path", q.sql());
            }
        }

        /// ORDER BY k LIMIT vs the reference, both directions, with and
        /// without residual filters. Seq-scannable shapes must resolve to
        /// the index top-N; an indexed WHERE keeps its own access path.
        #[test]
        fn top_n_matches_reference(
            rows in rows_strategy(),
            desc in any::<bool>(),
            limit in 0u64..12,
            offset in prop::option::of(0u64..6),
            filter in filter_strategy(),
            proj in proj_strategy(),
        ) {
            let db = build_db(&rows, false);
            let q = GenQuery {
                aggs: Vec::new(),
                proj,
                filter,
                order_desc: Some(desc),
                limit: Some(limit),
                offset,
            };
            let r = check_differential(&db, &rows, &q).unwrap_or_else(|e| panic!("{e}"));

            let fast = fast_path_of(&db, &q.sql());
            if filter.is_indexed() {
                prop_assert!(fast.is_none(), "indexed WHERE keeps its range scan");
            } else {
                prop_assert!(
                    matches!(fast, Some(FastPath::TopN { .. })),
                    "expected top-N for `{}`", q.sql()
                );
            }
            if filter == Filter::None {
                let need = (offset.unwrap_or(0) + limit) as usize;
                prop_assert_eq!(
                    r.stats.rows_scanned,
                    need.min(rows.len()) as u64,
                    "top-N walk must stop after offset+limit rows"
                );
            }
        }

        /// LIMIT/OFFSET without ORDER BY vs the reference: the pushdown
        /// must stop the scan at offset+limit produced rows.
        #[test]
        fn limit_pushdown_matches_reference(
            rows in rows_strategy(),
            limit in 0u64..12,
            offset in prop::option::of(0u64..6),
            filter in filter_strategy(),
            proj in proj_strategy(),
        ) {
            let db = build_db(&rows, false);
            let q = GenQuery {
                aggs: Vec::new(),
                proj,
                filter,
                order_desc: None,
                limit: Some(limit),
                offset,
            };
            let r = check_differential(&db, &rows, &q).unwrap_or_else(|e| panic!("{e}"));

            prop_assert!(fast_path_of(&db, &q.sql()).is_none());
            if filter == Filter::None {
                let need = (offset.unwrap_or(0) + limit) as usize;
                prop_assert_eq!(
                    r.stats.rows_scanned,
                    need.min(rows.len()) as u64,
                    "pushdown must stop the seq scan at offset+limit rows"
                );
            } else {
                prop_assert!(
                    r.stats.rows_scanned <= rows.len() as u64,
                    "scan never exceeds the table"
                );
            }
        }
    }
}

// ------------------------------------------------- asserted fast-path hits

/// A fixed table where every fast path's stats signature is exact.
fn hits_db() -> (Database, usize) {
    let rows: Vec<GenRow> = (0..40)
        .map(|i| {
            (
                if i % 7 == 0 { None } else { Some(i % 5) },
                if i % 11 == 0 { None } else { Some(i - 20) },
            )
        })
        .collect();
    let n = rows.len();
    (build_db(&rows, true), n)
}

#[test]
fn count_star_hits_table_metadata() {
    let (db, _) = hits_db();
    let sql = "SELECT COUNT(*) FROM t";
    assert!(matches!(
        fast_path_of(&db, sql),
        Some(FastPath::MetaAggregate { .. })
    ));
    let r = db.query(sql, &[]).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(40));
    assert_eq!(r.stats.rows_scanned, 0);
    assert_eq!(r.stats.index_probes, 0);
}

#[test]
fn min_max_hit_index_edges() {
    let (db, _) = hits_db();
    let sql = "SELECT MIN(k), MAX(k), MIN(v), MAX(v) FROM t";
    assert!(matches!(
        fast_path_of(&db, sql),
        Some(FastPath::MetaAggregate { .. })
    ));
    let r = db.query(sql, &[]).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(0));
    assert_eq!(r.rows[0].get(1), &Value::Int(4));
    assert_eq!(r.rows[0].get(2), &Value::Int(-19)); // v = 1 - 20 (v of 0 is NULL)
    assert_eq!(r.rows[0].get(3), &Value::Int(19));
    assert_eq!(r.stats.rows_scanned, 0, "MIN/MAX answered from index edges");
    assert_eq!(r.stats.index_probes, 4);
}

#[test]
fn limit_pushdown_hits_scan_cap() {
    let (db, n) = hits_db();
    let r = db.query("SELECT id FROM t LIMIT 7", &[]).unwrap();
    assert_eq!(r.rows.len(), 7);
    assert_eq!(r.stats.rows_scanned, 7, "not {n}: the scan stopped early");
    // an offset widens the cap to offset + limit
    let r = db.query("SELECT id FROM t LIMIT 7 OFFSET 5", &[]).unwrap();
    assert_eq!(r.rows.len(), 7);
    assert_eq!(r.stats.rows_scanned, 12);
}

#[test]
fn index_top_n_hits_ordered_walk() {
    let (db, n) = hits_db();
    let sql = "SELECT id, k FROM t ORDER BY k DESC LIMIT 6";
    assert!(matches!(
        fast_path_of(&db, sql),
        Some(FastPath::TopN { desc: true, .. })
    ));
    let r = db.query(sql, &[]).unwrap();
    assert_eq!(r.rows.len(), 6);
    assert_eq!(
        r.stats.rows_scanned, 6,
        "not {n}: the walk stopped at k rows"
    );
    assert_eq!(r.stats.index_probes, 1);
    for row in &r.rows {
        assert_eq!(row.get(1), &Value::Int(4), "the top run of k is all 4s");
    }
}

/// The ExecStats the serving layer's telemetry sees (via `QueryObserver`)
/// must reflect the fast paths — rows_scanned == 0 for metadata answers,
/// == the cap under LIMIT pushdown — not the table length.
#[test]
fn query_observer_reports_fast_path_stats() {
    use std::sync::{Arc, Mutex};
    let (mut db, _) = hits_db();
    let seen: Arc<Mutex<Vec<(String, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    db.set_query_observer(Some(Arc::new(move |sql, _dur, stats| {
        sink.lock()
            .unwrap()
            .push((sql.to_string(), stats.rows_scanned, stats.rows_out));
    })));
    db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
    db.query("SELECT id FROM t LIMIT 7", &[]).unwrap();
    db.query("SELECT id FROM t ORDER BY k LIMIT 3", &[])
        .unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 3);
    assert_eq!(seen[0].1, 0, "COUNT(*) telemetry shows zero rows scanned");
    assert_eq!(seen[0].2, 1);
    assert_eq!(seen[1].1, 7, "LIMIT pushdown telemetry shows the cap");
    assert_eq!(
        seen[2].1, 3,
        "top-N telemetry shows k, not the table length"
    );
}

/// Deletions leave lazily-emptied leaves in the B+tree; edge descents and
/// ordered walks must skip them and metadata answers must track the live
/// heap, not historical inserts.
#[test]
fn fast_paths_survive_deletions() {
    let rows: Vec<GenRow> = (0..30).map(|i| (Some(i), Some(i))).collect();
    let mut db = build_db(&rows, true);
    db.run("DELETE FROM t WHERE k BETWEEN 0 AND 9", &[])
        .unwrap();
    db.run("DELETE FROM t WHERE k BETWEEN 25 AND 29", &[])
        .unwrap();
    let r = db
        .query("SELECT COUNT(*), MIN(k), MAX(k) FROM t", &[])
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(15));
    assert_eq!(r.rows[0].get(1), &Value::Int(10));
    assert_eq!(r.rows[0].get(2), &Value::Int(24));
    assert_eq!(r.stats.rows_scanned, 0);
    let r = db
        .query("SELECT k FROM t ORDER BY k DESC LIMIT 3", &[])
        .unwrap();
    let got: Vec<&Value> = r.rows.iter().map(|row| row.get(0)).collect();
    assert_eq!(got, vec![&Value::Int(24), &Value::Int(23), &Value::Int(22)]);
}

// ------------------------------------------- SELECT * moves the scan's rows

/// One row of table `u(k, name)`.
type URow = (Option<i64>, String);

/// `t(id, k, v)` beside `u(k, name)` with two rows per key 1..=3 (and a
/// NULL key that joins nothing); `index_u` decides which side an index
/// join can probe.
fn join_db(index_u: bool) -> (Database, Vec<GenRow>, Vec<URow>) {
    let rows: Vec<GenRow> = (0..24)
        .map(|i| (if i % 6 == 5 { None } else { Some(i % 5) }, Some(i - 10)))
        .collect();
    let mut db = build_db(&rows, false);
    db.create_table(
        "u",
        Schema::empty()
            .with("k", DataType::Int)
            .with("name", DataType::Text),
    )
    .unwrap();
    let mut u_rows = vec![(None, "nobody".to_string())];
    for k in 1..=3 {
        for copy in ["a", "b"] {
            u_rows.push((Some(k), format!("{copy}{k}")));
        }
    }
    for (k, name) in &u_rows {
        db.insert("u", Row::new(vec![opt(*k), Value::Text(name.clone())]))
            .unwrap();
    }
    if index_u {
        db.create_index("u", "idx_uk", IndexKind::BTree { column: "k".into() })
            .unwrap();
    }
    (db, rows, u_rows)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut v: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// `SELECT *` over an index join is the joined row `t ++ u` whichever
/// side drives the join, and an inner-side conjunct stays a residual.
#[test]
fn star_over_an_index_join_matches_nested_loops() {
    for (index_u, outer_is_from) in [(true, true), (false, false)] {
        let (db, t_rows, u_rows) = join_db(index_u);
        for (where_sql, min_v) in [("", i64::MIN), (" WHERE t.v >= 0", 0)] {
            // a filter on the FROM side makes it the outer side when the
            // joined side can be probed; without one the indexes decide
            let sql = format!("SELECT * FROM t JOIN u ON t.k = u.k{where_sql}");
            let stmt = sql::parse(&sql).unwrap();
            match sql::plan_select(&db, &stmt).unwrap() {
                sql::ScanPlan::IndexJoin {
                    outer_is_from: got, ..
                } => assert_eq!(got, outer_is_from, "`{sql}`"),
                other => panic!("`{sql}` planned {}", other.describe()),
            }
            let mut want = Vec::new();
            for (id, (k, v)) in t_rows.iter().enumerate() {
                for (uk, name) in &u_rows {
                    if k.is_some() && k == uk && v.is_some_and(|v| v >= min_v) {
                        want.push(vec![
                            Value::Int(id as i64),
                            opt(*k),
                            opt(*v),
                            opt(*uk),
                            Value::Text(name.clone()),
                        ]);
                    }
                }
            }
            assert!(!want.is_empty());
            let r = db.query(&sql, &[]).unwrap();
            let names: Vec<&str> = r.schema.columns().iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["id", "t.k", "v", "u.k", "name"]);
            assert_eq!(sorted(result_rows(&r)), sorted(want), "`{sql}`");
        }
    }
}

/// An ORDER BY key that is no scan column sorts *after* projection, by
/// output name — on rows the star projection moved, not copied.
#[test]
fn star_sorts_after_projection_when_the_key_is_no_scan_column() {
    let (db, _) = hits_db();
    // an unknown qualifier fails scan-column resolution and falls back to
    // the bare output name
    let by_name = db.query("SELECT * FROM t ORDER BY x.v DESC", &[]).unwrap();
    let by_col = db.query("SELECT * FROM t ORDER BY v DESC", &[]).unwrap();
    assert_eq!(by_name.rows.len(), 40);
    assert_eq!(result_rows(&by_name), result_rows(&by_col));
    let by_name = db
        .query("SELECT * FROM t ORDER BY x.k LIMIT 5 OFFSET 3", &[])
        .unwrap();
    let by_col = db
        .query("SELECT * FROM t ORDER BY k LIMIT 5 OFFSET 3", &[])
        .unwrap();
    assert_eq!(result_rows(&by_name), result_rows(&by_col));
    // a key that is neither errors as before
    let err = db.query("SELECT * FROM t ORDER BY nope", &[]).unwrap_err();
    assert!(err.to_string().contains("neither a scan column"), "{err}");
}

/// Moved or built, a result row is allocated once at `width + tail`.
#[test]
fn result_rows_are_allocated_at_final_width() {
    let (db, n) = hits_db();
    for (sql, width) in [
        ("SELECT * FROM t", 3),
        ("SELECT * FROM t WHERE k BETWEEN 1 AND 3 AND v >= 0", 3),
        ("SELECT * FROM t ORDER BY k LIMIT 9", 3),
        ("SELECT v, id FROM t", 2),
    ] {
        for tail in [0, 7] {
            let prepared = kyrix_storage::Prepared::new(sql).unwrap().reserving(tail);
            let r = db.execute(&prepared, &[]).unwrap();
            assert!(!r.rows.is_empty() && r.rows.len() <= n);
            assert_eq!(r.rows, db.query(sql, &[]).unwrap().rows, "`{sql}`");
            for row in &r.rows {
                assert_eq!(row.values.capacity(), width + tail, "`{sql}` tail {tail}");
            }
        }
    }
}
