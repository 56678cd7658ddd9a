//! Property-based tests of the storage substrate's invariants.

use kyrix_storage::btree::BPlusTree;
use kyrix_storage::page::Page;
use kyrix_storage::rtree::RTree;
use kyrix_storage::spine::{Copies, Spine, CHUNK};
use kyrix_storage::{
    CowStats, DataType, IndexKind, RecordId, Rect, Row, Schema, SpatialCols, Table, Value,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

// ------------------------------------------------------------------ values

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // finite floats only: NaN round-trips but breaks PartialEq checks
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 _'?-]{0,40}".prop_map(Value::Text),
    ]
}

proptest! {
    /// Every value survives encode → decode.
    #[test]
    fn value_roundtrip(values in prop::collection::vec(arb_value(), 0..20)) {
        let row = Row::new(values.clone());
        let schema = Schema::empty(); // decode uses count, not types
        let _ = schema;
        let buf = row.encode();
        let mut pos = 0;
        for v in &values {
            let got = Value::decode(&buf, &mut pos).unwrap();
            prop_assert_eq!(&got, v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// `Value::skip` lands where `Value::decode` lands on every encodable
    /// value, and fails at the same value of a truncated or bad-tag buffer.
    #[test]
    fn value_skip_tracks_decode(
        values in prop::collection::vec(arb_value(), 1..20),
        cut in any::<u16>(),
        bad_tag in 5u8..255,
        victim in any::<u16>(),
    ) {
        let buf = Row::new(values.clone()).encode();
        let mut boundaries = vec![0usize];
        for _ in &values {
            let mut pos = *boundaries.last().unwrap();
            Value::decode(&buf, &mut pos).unwrap();
            boundaries.push(pos);
        }
        // a bad tag where value `victim` starts; a cut anywhere
        let mut bad = buf.clone();
        bad[boundaries[victim as usize % values.len()]] = bad_tag;
        for damaged in [&buf[..], &buf[..cut as usize % buf.len()], &bad[..]] {
            let (mut decoded, mut skipped) = (0, 0);
            for _ in &values {
                let d = Value::decode(damaged, &mut decoded);
                let s = Value::skip(damaged, &mut skipped);
                prop_assert_eq!(d.is_ok(), s.is_ok(), "at byte {}", skipped);
                if d.is_err() {
                    break;
                }
                prop_assert_eq!(skipped, decoded);
            }
        }
    }

    /// total_cmp is a total order: antisymmetric and transitive on samples.
    #[test]
    fn value_order_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if a.total_cmp(&b) != Greater && b.total_cmp(&c) != Greater {
            prop_assert_ne!(a.total_cmp(&c), Greater);
        }
    }
}

// ------------------------------------------------------------------ B+tree

proptest! {
    /// The B+tree agrees with a sorted-vector model for point lookups,
    /// duplicate sets and range scans.
    #[test]
    fn btree_matches_model(
        entries in prop::collection::vec((0i64..200, 0u64..10_000), 0..400),
        probes in prop::collection::vec(0i64..220, 1..20),
        ranges in prop::collection::vec((0i64..220, 0i64..220), 1..10),
    ) {
        let mut tree: BPlusTree<i64, u64> = BPlusTree::with_order(4);
        let mut model: Vec<(i64, u64)> = Vec::new();
        for (k, v) in &entries {
            tree.insert(*k, *v);
            model.push((*k, *v));
        }
        prop_assert_eq!(tree.len(), model.len());

        for k in probes {
            let mut want: Vec<u64> = model.iter().filter(|(mk, _)| *mk == k).map(|(_, v)| *v).collect();
            let mut got = tree.get_all(&k);
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want, "key {}", k);
        }

        for (lo, hi) in ranges {
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let mut want: Vec<(i64, u64)> = model
                .iter()
                .filter(|(k, _)| *k >= lo && *k <= hi)
                .copied()
                .collect();
            want.sort_by_key(|(k, _)| *k);
            let got = tree.range_collect(&lo, &hi);
            // keys must come back sorted
            prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            let mut got_sorted = got.clone();
            got_sorted.sort();
            want.sort();
            prop_assert_eq!(got_sorted, want);
        }
    }

    /// Removal deletes exactly one matching entry.
    #[test]
    fn btree_remove_one(
        entries in prop::collection::vec((0i64..50, 0u64..100), 1..100),
    ) {
        let mut tree: BPlusTree<i64, u64> = BPlusTree::with_order(4);
        for (k, v) in &entries {
            tree.insert(*k, *v);
        }
        let (k0, v0) = entries[0];
        let before = tree.get_all(&k0).iter().filter(|v| **v == v0).count();
        let removed = tree.remove_one(&k0, |v| *v == v0);
        prop_assert_eq!(removed, Some(v0));
        let after = tree.get_all(&k0).iter().filter(|v| **v == v0).count();
        prop_assert_eq!(after + 1, before);
        prop_assert_eq!(tree.len() + 1, entries.len());
    }
}

// ------------------------------------------------------------------ R-tree

proptest! {
    /// R-tree queries agree with a naive scan, for both incremental
    /// inserts and STR bulk loading.
    #[test]
    fn rtree_matches_naive(
        rects in prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..50.0, 0.0f64..50.0),
            0..200,
        ),
        queries in prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..300.0, 0.0f64..300.0),
            1..10,
        ),
    ) {
        let items: Vec<(Rect, usize)> = rects
            .iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| (Rect::new(*x, *y, x + w, y + h), i))
            .collect();
        let mut incremental = RTree::new();
        for (r, v) in &items {
            incremental.insert(*r, *v);
        }
        let bulk = RTree::bulk_load(items.clone());
        for (qx, qy, qw, qh) in queries {
            let q = Rect::new(qx, qy, qx + qw, qy + qh);
            let mut naive: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, v)| *v)
                .collect();
            naive.sort_unstable();
            let mut a = incremental.query(&q);
            a.sort_unstable();
            let mut b = bulk.query(&q);
            b.sort_unstable();
            prop_assert_eq!(&a, &naive);
            prop_assert_eq!(&b, &naive);
        }
    }
}

// ------------------------------------------------------------------ pages

proptest! {
    /// Slotted pages return exactly what was stored, in order, until full.
    #[test]
    fn page_roundtrip(tuples in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..300), 0..100,
    )) {
        let mut page = Page::new();
        let mut stored: Vec<(u16, Vec<u8>)> = Vec::new();
        for t in &tuples {
            match page.insert(t) {
                Some(slot) => stored.push((slot, t.clone())),
                None => break, // page full: everything after is skipped
            }
        }
        for (slot, bytes) in &stored {
            prop_assert_eq!(page.get(*slot).unwrap(), &bytes[..]);
        }
        prop_assert_eq!(page.iter().count(), stored.len());
    }
}

// ------------------------------------------------------------------ rects

proptest! {
    /// Geometric identities used throughout the fetch paths.
    #[test]
    fn rect_identities(
        (ax, ay, aw, ah) in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
        (bx, by, bw, bh) in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
    ) {
        let a = Rect::new(ax, ay, ax + aw, ay + ah);
        let b = Rect::new(bx, by, bx + bw, by + bh);
        // union contains both
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
        // intersection is inside both (when non-empty)
        let i = a.intersection(&b);
        if !i.is_empty() {
            prop_assert!(a.contains(&i) && b.contains(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
        // intersects is symmetric
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        // enlargement is non-negative
        prop_assert!(a.enlargement(&b) >= -1e-9);
    }
}

// ------------------------------------------------ copy-on-write versions

/// `dots(id, x, y)` with a point R-tree on `(x, y)` and a B+tree on `id`.
fn dots_table(rows: &[(i64, f64, f64)]) -> Table {
    let schema = Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float);
    let mut t = Table::new("dots", schema);
    for &(id, x, y) in rows {
        t.insert(dot(id, x, y)).unwrap();
    }
    t.create_index(
        "sp",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();
    t.create_index(
        "by_id",
        IndexKind::BTree {
            column: "id".into(),
        },
    )
    .unwrap();
    t
}

fn dot(id: i64, x: f64, y: f64) -> Row {
    Row::new(vec![Value::Int(id), Value::Float(x), Value::Float(y)])
}

fn rid_of(t: &Table, id: i64) -> RecordId {
    let mut found = None;
    t.probe_eq(t.btree_index_on("id").unwrap(), &Value::Int(id), |rid| {
        found = Some(rid)
    });
    found.unwrap_or_else(|| panic!("id {id} is live"))
}

/// Ids the equality and range probes of [`answers`] cover.
const ID_SPACE: i64 = 640;

/// One list per read — the full scan, four spatial probes, B+tree equality
/// on every third id and three B+tree ranges — of `(record id, row bytes)`
/// in the order the access path visits them.
type Answers = Vec<Vec<(u64, Vec<u8>)>>;

fn answers(t: &Table) -> Answers {
    let fetch = |rid: RecordId| (rid.to_u64(), t.get(rid).unwrap().unwrap().encode());
    let mut out = Vec::new();
    let mut scan = Vec::new();
    t.scan(|rid, row| scan.push((rid.to_u64(), row.encode())))
        .unwrap();
    out.push(scan);
    let sp = t.spatial_index().unwrap();
    for rect in [
        Rect::new(0.0, 0.0, 1000.0, 1000.0),
        Rect::new(100.0, 100.0, 400.0, 300.0),
        Rect::new(500.0, 0.0, 520.0, 1000.0),
        Rect::new(990.0, 990.0, 2000.0, 2000.0),
    ] {
        let mut hits = Vec::new();
        t.probe_spatial(sp, &rect, |rid| hits.push(fetch(rid)));
        out.push(hits);
    }
    let by_id = t.btree_index_on("id").unwrap();
    for id in (0..ID_SPACE).step_by(3) {
        let mut hits = Vec::new();
        t.probe_eq(by_id, &Value::Int(id), |rid| hits.push(fetch(rid)));
        out.push(hits);
    }
    for (lo, hi) in [(0, ID_SPACE), (50, 90), (300, 500)] {
        let mut hits = Vec::new();
        t.probe_range(by_id, &Value::Int(lo), &Value::Int(hi), |rid| {
            hits.push(fetch(rid))
        });
        out.push(hits);
    }
    out
}

/// [`Answers`] without physical placement: per read, the sorted row bytes.
/// Two tables holding the same rows agree on this whatever their histories.
fn logical(answers: &Answers) -> Vec<Vec<&[u8]>> {
    answers
        .iter()
        .map(|hits| {
            let mut rows: Vec<&[u8]> = hits.iter().map(|(_, row)| &row[..]).collect();
            rows.sort_unstable();
            rows
        })
        .collect()
}

/// One write of a batch: `kind` 0 inserts a fresh id at `(x, y)`, 1 deletes
/// the live row `pick` selects, 2 moves it to `(x, y)`.
type WriteOp = (u8, u32, f64, f64);

/// Apply a batch to `t`, keeping `live` (the rows it should now hold) and
/// `next_id` in step.
fn apply_batch(t: &mut Table, live: &mut Vec<(i64, f64, f64)>, next_id: &mut i64, ops: &[WriteOp]) {
    for &(kind, pick, x, y) in ops {
        if kind == 0 || live.is_empty() {
            t.insert(dot(*next_id, x, y)).unwrap();
            live.push((*next_id, x, y));
            *next_id += 1;
            continue;
        }
        let at = pick as usize % live.len();
        let rid = rid_of(t, live[at].0);
        if kind == 1 {
            assert!(t.delete_row(rid).unwrap());
            live.swap_remove(at);
        } else {
            live[at] = (live[at].0, x, y);
            t.update_row(rid, dot(live[at].0, x, y)).unwrap();
        }
    }
}

fn arb_batch() -> impl Strategy<Value = Vec<WriteOp>> {
    prop::collection::vec(
        (0u8..3, any::<u32>(), 0.0f64..1000.0, 0.0f64..1000.0),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A chain of clone → write-batch generations: every generation still
    /// held keeps answering every read exactly as it did when it was
    /// finished, however many successors were built from it and in whatever
    /// order its neighbours are dropped; and each new head holds exactly
    /// the rows a from-scratch build of its contents holds.
    #[test]
    fn cow_generations_are_isolated(
        initial in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 150..300),
        batches in prop::collection::vec(arb_batch(), 8..11),
        drop_keys in prop::collection::vec(any::<u32>(), 11..12),
    ) {
        let mut live: Vec<(i64, f64, f64)> = initial
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (i as i64, x, y))
            .collect();
        let mut next_id = live.len() as i64;
        let first = dots_table(&live);
        let first_answers = answers(&first);
        let mut held: Vec<Option<(Table, Answers)>> = vec![Some((first, first_answers))];
        for ops in &batches {
            let (head, _) = held.last().unwrap().as_ref().unwrap();
            let mut next = head.clone();
            apply_batch(&mut next, &mut live, &mut next_id, ops);
            let next_answers = answers(&next);
            prop_assert_eq!(logical(&next_answers), logical(&answers(&dots_table(&live))));
            held.push(Some((next, next_answers)));
            for (table, published) in held.iter().flatten() {
                prop_assert_eq!(&answers(table), published);
            }
        }
        prop_assert!(next_id <= ID_SPACE, "probes must cover every id");
        let mut order: Vec<usize> = (0..held.len()).collect();
        order.sort_by_key(|&g| drop_keys[g]);
        for g in order {
            held[g] = None;
            for (table, published) in held.iter().flatten() {
                prop_assert_eq!(&answers(table), published);
            }
        }
    }
}

// -------------------------------------------------------------- clustering

/// Row bytes per read in visit order: [`Answers`] without record ids.
fn visit_order(answers: &Answers) -> Vec<Vec<&[u8]>> {
    answers
        .iter()
        .map(|hits| hits.iter().map(|(_, row)| &row[..]).collect())
        .collect()
}

/// Sorted row bytes the B+tree on `id` returns for every seventh id.
fn eq_hits(t: &Table) -> Vec<Vec<Vec<u8>>> {
    let index = t.btree_index_on("id").unwrap();
    (0..ID_SPACE)
        .step_by(7)
        .map(|id| {
            let mut rows = Vec::new();
            t.probe_eq(index, &Value::Int(id), |rid| {
                rows.push(t.get(rid).unwrap().unwrap().encode())
            });
            rows.sort_unstable();
            rows
        })
        .collect()
}

/// Everything `Table::cluster` promises, on `dots(id, x, y)` with an
/// R-tree and a B+tree, after the rows `doomed` picks were
/// deleted on a clone (so there are tombstones, and pages and nodes have
/// been copied before).
fn check_cluster(rows: &[(i64, f64, f64)], doomed: &[u32]) {
    let base = dots_table(rows);
    let mut t = base.clone();
    let mut rids = Vec::new();
    t.scan(|rid, _| rids.push(rid)).unwrap();
    for pick in doomed {
        if rids.is_empty() {
            break;
        }
        let rid = rids.swap_remove(*pick as usize % rids.len());
        assert!(t.delete_row(rid).unwrap());
    }
    let (sp, by_id) = (t.spatial_index().unwrap(), t.btree_index_on("id").unwrap());
    let pinned = t.clone();
    let (before, before_eq, before_stats) = (answers(&t), eq_hits(&t), t.cow_stats());

    // only a spatial index orders a heap; a refusal changes nothing
    assert!(t.cluster(by_id).is_err());
    assert_eq!(answers(&t), before);

    t.cluster(sp).unwrap();
    let after = answers(&t);
    // the same rows: the scan, every spatial probe, every B+tree
    // equality probe and every range answer with the same multiset
    assert_eq!(t.len(), rids.len());
    assert_eq!(logical(&after), logical(&before));
    assert_eq!(eq_hits(&t), before_eq);
    // the R-tree kept its shape: spatial probes answer in the same order
    assert_eq!(visit_order(&after)[1..=4], visit_order(&before)[1..=4]);
    // heap order is leaf order: the probe over everything (read 1) meets
    // strictly ascending record ids, and is the scan (read 0)
    assert!(after[1].windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(after[0], after[1]);
    // no tombstone: every page's live slots are 0, 1, 2, ..., and the heap
    // is as small as one freshly filled with these rows
    let placed: Vec<RecordId> = after[0]
        .iter()
        .map(|(rid, _)| RecordId::from_u64(*rid))
        .collect();
    for (i, rid) in placed.iter().enumerate() {
        let (page, slot) = match i.checked_sub(1).map(|p| placed[p]) {
            Some(prev) if prev.page == rid.page => (prev.page, prev.slot + 1),
            Some(prev) => (prev.page + 1, 0),
            None => (0, 0),
        };
        assert_eq!((rid.page, rid.slot), (page, slot), "row {i} left a gap");
    }
    let mut fresh = Table::new("fresh", t.schema.clone());
    t.scan(|_, row| {
        fresh.insert(row).unwrap();
    })
    .unwrap();
    assert_eq!(t.heap_bytes(), fresh.heap_bytes());

    // a second cluster finds nothing to move
    t.cluster(sp).unwrap();
    assert_eq!(answers(&t), after);
    assert_eq!(eq_hits(&t), before_eq);

    // clones taken before still answer exactly as they did, and the
    // copy tallies only ever grow
    assert_eq!(answers(&pinned), before);
    assert_eq!(answers(&base), answers(&dots_table(rows)));
    assert_eq!(pinned.cow_stats(), before_stats);
    let stats = t.cow_stats();
    assert!(
        stats.pages_copied >= before_stats.pages_copied
            && stats.nodes_copied >= before_stats.nodes_copied,
        "{stats:?} after {before_stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `cluster` on generated tables: duplicate ids, duplicate positions,
    /// whole duplicate rows, and up to all rows deleted beforehand.
    #[test]
    fn cluster_reorders_the_heap_and_nothing_else(
        rows in prop::collection::vec(
            (0i64..ID_SPACE / 8, 0u32..40, 0u32..40, any::<bool>()),
            0..400,
        ),
        doomed in prop::collection::vec(any::<u32>(), 0..450),
    ) {
        let mut table: Vec<(i64, f64, f64)> = Vec::new();
        for (id, x, y, repeat) in rows {
            match table.last().copied() {
                Some(last) if repeat => table.push(last),
                _ => table.push((id, x as f64 * 25.0, y as f64 * 25.0)),
            }
        }
        check_cluster(&table, &doomed);
    }
}

#[test]
fn cluster_of_an_empty_table_and_of_one_row() {
    check_cluster(&[], &[]);
    check_cluster(&[(7, 3.0, 4.0)], &[]);
    check_cluster(&[(7, 3.0, 4.0)], &[0]);
}

/// Two readers keep checking a pinned generation while a writer builds
/// eight successors from it. The barriers put the readers' first pass
/// beside the first four batches and at least one more beside the rest.
#[test]
fn cow_pinned_generation_is_stable_beside_a_writer() {
    let mut live: Vec<(i64, f64, f64)> = (0..400)
        .map(|i| (i, (i * 37 % 1000) as f64, (i * 91 % 1000) as f64))
        .collect();
    let mut next_id = live.len() as i64;
    let pinned = dots_table(&live);
    let published = answers(&pinned);
    let (start, halfway) = (Barrier::new(3), Barrier::new(3));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                assert_eq!(answers(&pinned), published);
                halfway.wait();
                loop {
                    assert_eq!(answers(&pinned), published);
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
        }
        start.wait();
        let mut head = pinned.clone();
        for generation in 0..8u32 {
            if generation == 4 {
                halfway.wait();
            }
            let ops: Vec<WriteOp> = (0..20u32)
                .map(|i| {
                    let n = generation * 20 + i;
                    (
                        (n % 3) as u8,
                        n * 7919,
                        (n * 53 % 1000) as f64,
                        (n * 29 % 1000) as f64,
                    )
                })
                .collect();
            let mut next = head.clone();
            apply_batch(&mut next, &mut live, &mut next_id, &ops);
            head = next;
        }
        done.store(true, Ordering::SeqCst);
        assert_eq!(
            logical(&answers(&head)),
            logical(&answers(&dots_table(&live)))
        );
    });
    assert_eq!(answers(&pinned), published);
}

/// What a batch of writes on a clone copies, by [`Table::cow_stats`]:
/// nothing at clone time; per delete one page and one leaf in each index
/// (the search for the entry copies nothing); per insert at most one
/// root-to-leaf path in each index, and one heap page for the whole batch.
/// So clone + 64 scattered inserts + 64 deletes stays far inside 130 pages
/// and 128 x height nodes, on a table of 100k rows.
#[test]
fn cow_batch_copies_what_it_touches() {
    const N: i64 = 100_000;
    let xy = |i: i64| {
        (
            (i * 7919 % 100_003) as f64 / 100.0,
            (i * 104_729 % 100_019) as f64 / 100.0,
        )
    };
    let rows: Vec<(i64, f64, f64)> = (0..N).map(|i| (i, xy(i).0, xy(i).1)).collect();
    let base = dots_table(&rows);
    // the two index shapes, rebuilt standalone for their heights
    let rtree_height = RTree::bulk_load(
        rows.iter()
            .map(|&(id, x, y)| (Rect::point(x, y), id))
            .collect(),
    )
    .height() as u64;
    let mut by_id = BPlusTree::new();
    rows.iter().for_each(|&(id, _, _)| by_id.insert(id, ()));
    let btree_height = by_id.height() as u64;

    let mut next = base.clone();
    assert_eq!(next.cow_stats(), CowStats::default());

    for i in 0..64 {
        let rid = rid_of(&next, i * 1563 % N);
        assert!(next.delete_row(rid).unwrap());
    }
    let deletes = next.cow_stats();
    assert!(deletes.pages_copied <= 64, "{deletes:?}");
    assert!(deletes.nodes_copied <= 2 * 64, "{deletes:?}");

    for i in 0..64 {
        let (x, y) = xy(i * 1567 + 13);
        next.insert(dot(N + i, x + 0.005, y + 0.005)).unwrap();
    }
    let both = next.cow_stats();
    assert!(both.pages_copied - deletes.pages_copied <= 1, "{both:?}");
    assert!(
        both.nodes_copied - deletes.nodes_copied <= 64 * (rtree_height + btree_height),
        "{both:?} after {deletes:?}, heights {rtree_height} + {btree_height}"
    );
    assert!(both.pages_copied <= 130 && both.nodes_copied <= 128 * rtree_height.max(btree_height));
    // a chunk of handles is copied only on the way to a page or node it
    // holds (or once for the append at a spine's end)
    assert!(deletes.chunks_copied <= deletes.pages_copied + deletes.nodes_copied);
    assert!(both.chunks_copied <= both.pages_copied + both.nodes_copied);

    // the original paid nothing and lost nothing
    assert_eq!(base.cow_stats(), CowStats::default());
    assert_eq!((base.len(), next.len()), (N as usize, N as usize));
}

// ------------------------------------------------------------------ spine

/// An element whose `clone` is counted: an element copy is exactly one.
struct Counted {
    value: u32,
    clones: Rc<Cell<u64>>,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.set(self.clones.get() + 1);
        Counted {
            value: self.value,
            clones: Rc::clone(&self.clones),
        }
    }
}

#[derive(Debug, Clone)]
enum SpineOp {
    Push(u8),
    Write(u8, u16),
    Clone(u8),
    Drop(u8),
}

/// Pushes and writes four times as often as clones and drops.
fn arb_spine_op() -> impl Strategy<Value = SpineOp> {
    (0u8..10, any::<u8>(), any::<u16>()).prop_map(|(kind, s, i)| match kind {
        0..=3 => SpineOp::Push(s),
        4..=7 => SpineOp::Write(s, i),
        8 => SpineOp::Clone(s),
        _ => SpineOp::Drop(s),
    })
}

/// One live clone as the model sees it: its values, the physical chunks it
/// holds (ids into [`SpineModel::chunks`]) and the copies it has counted.
#[derive(Clone)]
struct CloneModel {
    values: Vec<u32>,
    chunks: Vec<usize>,
    copies: Copies,
}

/// Every chunk allocation ever made, as the element ids it holds. A chunk
/// is shared when more than one live clone holds it; an element when more
/// than one chunk some live clone holds contains it.
struct SpineModel {
    chunks: Vec<Vec<usize>>,
    next_element: usize,
}

impl SpineModel {
    fn chunk_holders(clones: &[CloneModel], chunk: usize) -> usize {
        clones.iter().filter(|c| c.chunks.contains(&chunk)).count()
    }

    fn element_holders(&self, clones: &[CloneModel], element: usize) -> usize {
        let mut live: Vec<usize> = clones
            .iter()
            .flat_map(|c| c.chunks.iter().copied())
            .collect();
        live.sort_unstable();
        live.dedup();
        live.iter()
            .filter(|&&c| self.chunks[c].contains(&element))
            .count()
    }

    fn new_element(&mut self) -> usize {
        self.next_element += 1;
        self.next_element
    }

    /// Give clone `s` its own copy of chunk `c` if another clone holds it.
    fn unshare_chunk(&mut self, clones: &mut [CloneModel], s: usize, c: usize) {
        let id = clones[s].chunks[c];
        if Self::chunk_holders(clones, id) > 1 {
            self.chunks.push(self.chunks[id].clone());
            clones[s].chunks[c] = self.chunks.len() - 1;
            clones[s].copies.chunks += 1;
        }
    }

    fn push(&mut self, clones: &mut [CloneModel], s: usize, value: u32) {
        let element = self.new_element();
        if clones[s].values.len().is_multiple_of(CHUNK) {
            self.chunks.push(vec![element]);
            clones[s].chunks.push(self.chunks.len() - 1);
        } else {
            let c = clones[s].chunks.len() - 1;
            self.unshare_chunk(clones, s, c);
            self.chunks[clones[s].chunks[c]].push(element);
        }
        clones[s].values.push(value);
    }

    /// Returns whether the element was copied.
    fn write(&mut self, clones: &mut [CloneModel], s: usize, i: usize, value: u32) -> bool {
        let (c, slot) = (i / CHUNK, i % CHUNK);
        self.unshare_chunk(clones, s, c);
        let id = clones[s].chunks[c];
        let element = self.chunks[id][slot];
        let copied = self.element_holders(clones, element) > 1;
        if copied {
            self.chunks[id][slot] = self.new_element();
            clones[s].copies.elements += 1;
        }
        clones[s].values[i] = value;
        copied
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Push / write / clone / drop interleavings against a `Vec` per live
    /// clone: every clone reads its own values (writes never leak into
    /// another), and the copy tallies and the element clones are exactly
    /// what the model's sharing predicts. A refused write (index out of
    /// range) copies nothing.
    #[test]
    fn spine_matches_a_model_per_clone(
        ops in prop::collection::vec(arb_spine_op(), 1..200),
    ) {
        let clones_made = Rc::new(Cell::new(0u64));
        let mut spines: Vec<Spine<Counted>> = vec![Spine::new()];
        let mut models = vec![CloneModel { values: Vec::new(), chunks: Vec::new(), copies: Copies::default() }];
        let mut model = SpineModel { chunks: Vec::new(), next_element: 0 };
        let mut element_copies = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            let value = step as u32;
            match op {
                SpineOp::Push(s) => {
                    let s = s as usize % spines.len();
                    let at = spines[s].push(Counted { value, clones: Rc::clone(&clones_made) });
                    prop_assert_eq!(at, models[s].values.len());
                    model.push(&mut models, s, value);
                }
                SpineOp::Write(s, i) => {
                    let s = s as usize % spines.len();
                    // a quarter of the writes land past the end
                    let len = models[s].values.len();
                    let i = i as usize % (len + len / 4 + 1);
                    match spines[s].get_mut(i) {
                        Some(element) => {
                            prop_assert!(i < len);
                            element.value = value;
                            element_copies += u64::from(model.write(&mut models, s, i, value));
                        }
                        None => prop_assert!(i >= len),
                    }
                }
                SpineOp::Clone(s) => {
                    let s = s as usize % spines.len();
                    spines.push(spines[s].clone());
                    models.push(models[s].clone());
                }
                SpineOp::Drop(s) if spines.len() > 1 => {
                    let s = s as usize % spines.len();
                    spines.swap_remove(s);
                    models.swap_remove(s);
                }
                SpineOp::Drop(_) => {}
            }
            for (spine, m) in spines.iter().zip(&models) {
                let got: Vec<u32> = spine.iter().map(|e| e.value).collect();
                prop_assert_eq!(&got, &m.values);
                prop_assert_eq!(spine.len(), m.values.len());
                prop_assert_eq!(spine.chunk_count(), m.chunks.len());
                prop_assert_eq!(spine.copies(), m.copies, "step {}", step);
            }
            prop_assert_eq!(clones_made.get(), element_copies);
        }
    }
}
