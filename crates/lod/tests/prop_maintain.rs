//! Property: any interleaving of insert/delete batches applied
//! incrementally to a pyramid equals the from-scratch rebuild over the
//! final point set — bit-identical level tables, every time.
//!
//! Positions and batch shapes are arbitrary; measures are integer-valued
//! (the same exactness condition the sharded-build parity pins), so even
//! the floating-point `sum_*` columns must match bitwise.
//!
//! After every batch the maintained *state* — per level and cell the
//! candidate, fate and boxed output, the counters, the id → cell map — is
//! also held against a scratch build's (`LodPyramid::maintenance_eq`): a
//! stale output or a fate pointing at the wrong neighbour must fail at the
//! batch that wrote it, not batches later in a level table.
//!
//! Every batch also runs on a twin through the general entry points
//! (`insert_points_sharded` / `delete_points_sharded` over the database as
//! a one-element slice): reports and level tables must equal the
//! single-database shims' bit for bit.

use kyrix_lod::{build_pyramid, LodConfig, LodPyramid, RawPoint};
use kyrix_storage::{DataType, Database, IndexKind, Row, Schema, SpatialCols, Value};
use proptest::prelude::*;

const W: f64 = 256.0;

fn raw_schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
        .with("m", DataType::Float)
}

fn cfg() -> LodConfig {
    LodConfig::new("pts", W, W, 2)
        .with_measure("m")
        .with_spacing(14.0)
}

fn seed_db(points: &[(f64, f64, f64)]) -> Database {
    let mut db = Database::new();
    db.create_table("pts", raw_schema()).unwrap();
    for (i, (x, y, m)) in points.iter().enumerate() {
        db.insert(
            "pts",
            Row::new(vec![
                Value::Int(i as i64),
                Value::Float(*x),
                Value::Float(*y),
                Value::Float(*m),
            ]),
        )
        .unwrap();
    }
    db.create_index(
        "pts",
        "pts_xy",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();
    db
}

/// Every level table of `db`, rows in id order.
fn level_tables(db: &Database, cfg: &LodConfig) -> Vec<Vec<Row>> {
    (1..=cfg.levels)
        .map(|k| {
            let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
            db.query(&q, &[]).unwrap().rows
        })
        .collect()
}

/// Cluster before build, never after. A level-1 cell's measure sum is a
/// float fold over its raw rows in heap order — at build time by the raw
/// scan, after a delete by re-aggregating the cell's survivors sorted by
/// record id. With fractional measures of mixed magnitude the fold order
/// shows in the last bits, so maintained == rebuilt *bitwise* holds only
/// while the heap order the build saw is the one maintenance sees: the
/// loader clusters the raw table, then the pyramid is built over it.
#[test]
fn maintenance_over_a_clustered_raw_table_is_bitwise_exact_for_fractional_measures() {
    let cfg = cfg();
    // 600 points on a 256-unit canvas, about seven per level-1 cell;
    // measures span six orders of magnitude. The batches are small: most
    // cells keep the sum the build folded, a few are re-folded or extended
    let point = |i: u32| {
        let (x, y) = (
            (i * 7919 % 2560) as f64 / 10.0,
            (i * 104_729 % 2560) as f64 / 10.0,
        );
        (
            x,
            y,
            0.1 + (i as f64 * 0.37).sin().abs() * 10f64.powi((i % 7) as i32 - 3),
        )
    };
    let initial: Vec<(f64, f64, f64)> = (0..600).map(point).collect();
    let mut db = seed_db(&initial);
    db.cluster("pts", "pts_xy").unwrap();
    let mut pyramid = build_pyramid(&mut db, &cfg).unwrap();

    let victims: Vec<i64> = (0..600).step_by(40).collect();
    pyramid.delete_points(&mut db, &victims).unwrap();
    let fresh: Vec<RawPoint> = (600..620)
        .map(|i| {
            let (x, y, m) = point(i);
            RawPoint::new(i as i64, x, y, &[m])
        })
        .collect();
    pyramid.insert_points(&mut db, &fresh).unwrap();
    let victims: Vec<i64> = (1..620).step_by(40).collect();
    pyramid.delete_points(&mut db, &victims).unwrap();

    // the oracle: a build over the same rows in the same scan order
    let mut rebuilt = Database::new();
    rebuilt.create_table("pts", raw_schema()).unwrap();
    db.table("pts")
        .unwrap()
        .scan(|_, row| rebuilt.insert("pts", row).unwrap())
        .unwrap();
    let scratch = build_pyramid(&mut rebuilt, &cfg).unwrap();
    assert_eq!(pyramid.levels, scratch.levels);
    assert_eq!(level_tables(&db, &cfg), level_tables(&rebuilt, &cfg));
}

/// A from-scratch build over `db`'s raw rows in their scan order: the
/// fresh database and its pyramid, or `None` for an empty raw table
/// (which cannot seed a pyramid).
fn scratch_build(db: &Database, cfg: &LodConfig) -> Option<(Database, LodPyramid)> {
    let mut fresh = Database::new();
    fresh.create_table("pts", raw_schema()).unwrap();
    db.table("pts")
        .unwrap()
        .scan(|_, row| {
            fresh.insert("pts", row).unwrap();
        })
        .unwrap();
    if fresh.table("pts").unwrap().is_empty() {
        return None;
    }
    let pyramid = build_pyramid(&mut fresh, cfg).unwrap();
    Some((fresh, pyramid))
}

/// One batch of the maintenance trace: insert `inserts` fresh points or
/// delete up to `deletes` of the currently live ids (chosen by index).
#[derive(Debug, Clone)]
enum Batch {
    Insert(Vec<(f64, f64, f64)>),
    Delete(Vec<usize>),
}

fn point_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (0u32..2560, 0u32..2560, 0u32..5).prop_map(|(x, y, m)| {
        // tenth-unit grid positions exercise cell boundaries; integer
        // measures keep float sums associative
        (x as f64 / 10.0, y as f64 / 10.0, m as f64)
    })
}

fn batch_strategy() -> impl Strategy<Value = Batch> {
    prop_oneof![
        prop::collection::vec(point_strategy(), 1..24).prop_map(Batch::Insert),
        prop::collection::vec(any::<u16>().prop_map(|i| i as usize), 1..24).prop_map(Batch::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn interleaved_maintenance_equals_scratch_rebuild(
        initial in prop::collection::vec(point_strategy(), 8..64),
        batches in prop::collection::vec(batch_strategy(), 1..6),
    ) {
        let cfg = cfg();
        let mut db = seed_db(&initial);
        let mut pyramid = build_pyramid(&mut db, &cfg).unwrap();
        let (mut twin_db, mut twin) = (db.clone(), pyramid.clone());
        let mut live: Vec<i64> = (0..initial.len() as i64).collect();
        let mut next_id = initial.len() as i64;

        for batch in &batches {
            match batch {
                Batch::Insert(points) => {
                    let pts: Vec<RawPoint> = points
                        .iter()
                        .map(|(x, y, m)| {
                            next_id += 1;
                            live.push(next_id);
                            RawPoint::new(next_id, *x, *y, &[*m])
                        })
                        .collect();
                    let report = pyramid.insert_points(&mut db, &pts).unwrap();
                    prop_assert_eq!(report.inserted, pts.len());
                    let general = twin
                        .insert_points_sharded(std::slice::from_mut(&mut twin_db), &pts)
                        .unwrap();
                    prop_assert_eq!(report, general, "insert reports diverge");
                }
                Batch::Delete(picks) => {
                    if live.is_empty() {
                        continue;
                    }
                    // map picks onto distinct live indices
                    let mut victims: Vec<i64> = picks
                        .iter()
                        .map(|p| live[p % live.len()])
                        .collect();
                    victims.sort_unstable();
                    victims.dedup();
                    live.retain(|id| !victims.contains(id));
                    let report = pyramid.delete_points(&mut db, &victims).unwrap();
                    prop_assert_eq!(report.deleted, victims.len());
                    let general = twin
                        .delete_points_sharded(std::slice::from_mut(&mut twin_db), &victims)
                        .unwrap();
                    prop_assert_eq!(report, general, "delete reports diverge");
                }
            }
            // the state, not only the tables, and at every step
            if let Some((_, scratch)) = scratch_build(&db, &cfg) {
                if let Err(diff) = pyramid.maintenance_eq(&scratch) {
                    prop_assert!(false, "state diverged from a scratch build: {}", diff);
                }
            }
            if let Err(diff) = pyramid.maintenance_eq(&twin) {
                prop_assert!(false, "state diverged from the general form's: {}", diff);
            }
        }

        prop_assert_eq!(&pyramid.levels, &twin.levels);
        for k in 0..=cfg.levels {
            let q = format!("SELECT * FROM {}", cfg.level_table(k));
            let a = db.query(&q, &[]).unwrap();
            let b = twin_db.query(&q, &[]).unwrap();
            prop_assert_eq!(&a.rows, &b.rows, "level {} differs through the general form", k);
        }

        // oracle: rebuild from scratch over the same final rows in the
        // same scan order
        prop_assert_eq!(db.table("pts").unwrap().len(), live.len());
        if let Some((fresh, scratch)) = scratch_build(&db, &cfg) {
            prop_assert_eq!(&pyramid.levels, &scratch.levels);
            for k in 1..=cfg.levels {
                let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
                let a = db.query(&q, &[]).unwrap();
                let b = fresh.query(&q, &[]).unwrap();
                prop_assert_eq!(&a.rows, &b.rows, "level {} tables differ", k);
            }
        } else {
            // an empty raw table cannot seed a pyramid; the maintained
            // tables must simply be empty
            prop_assert!(live.is_empty());
            for k in 1..=cfg.levels {
                let n = db
                    .query(&format!("SELECT COUNT(*) FROM {}", cfg.level_table(k)), &[])
                    .unwrap();
                prop_assert_eq!(n.rows[0].get(0).as_i64().unwrap(), 0, "level {} not empty", k);
            }
        }
    }
}

/// The large canvas: 4096² raw units, spacing 24, three levels — a
/// level-1 grid of ~85² cells, so one batch of scattered points opens
/// dozens of separate repair components, and a clustered batch one
/// component that cascades.
fn wide_cfg() -> LodConfig {
    LodConfig::new("pts", 4096.0, 4096.0, 3)
        .with_measure("m")
        .with_spacing(24.0)
}

/// `n` points from a seed: half uniform over the canvas, half in eight
/// dense blobs (so every level absorbs), integer measures.
fn wide_points(seed: u64, n: usize) -> Vec<(f64, f64, f64)> {
    let mut s = seed | 1;
    let mut next = move || {
        // xorshift64*
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let blobs: Vec<(f64, f64)> = (0..8)
        .map(|_| ((next() % 3800 + 150) as f64, (next() % 3800 + 150) as f64))
        .collect();
    (0..n)
        .map(|i| {
            let (x, y) = if i % 2 == 0 {
                (
                    (next() % 40_960) as f64 / 10.0,
                    (next() % 40_960) as f64 / 10.0,
                )
            } else {
                let (bx, by) = blobs[i / 2 % blobs.len()];
                let dx = (next() % 2400) as f64 / 10.0 - 120.0;
                let dy = (next() % 2400) as f64 / 10.0 - 120.0;
                (bx + dx, by + dy)
            };
            (x, y, (next() % 9) as f64)
        })
        .collect()
}

/// One batch on the large canvas.
#[derive(Debug, Clone)]
enum WideBatch {
    /// Points spread over the whole canvas: many small components.
    Scattered(u64, usize),
    /// Points within a few cells of one spot: one component that grows.
    Clustered(u64, usize, (u16, u16)),
    /// Deletes, picked from the live ids by index.
    Delete(Vec<usize>),
}

fn wide_batch_strategy() -> impl Strategy<Value = WideBatch> {
    prop_oneof![
        (any::<u64>(), 16usize..96).prop_map(|(s, n)| WideBatch::Scattered(s, n)),
        (any::<u64>(), 16usize..96, (200u16..3900, 200u16..3900))
            .prop_map(|(s, n, at)| WideBatch::Clustered(s, n, at)),
        prop::collection::vec(any::<u16>().prop_map(|i| i as usize), 8..80)
            .prop_map(WideBatch::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Scattered, clustered and delete batches on a canvas with room for
    /// many repair components: after every batch the maintenance state
    /// equals a scratch build's and so does every level table.
    #[test]
    fn many_component_batches_equal_scratch_rebuild(
        seed in any::<u64>(),
        batches in prop::collection::vec(wide_batch_strategy(), 4..8),
    ) {
        let cfg = wide_cfg();
        let initial = wide_points(seed, 3000);
        let mut db = seed_db(&initial);
        let mut pyramid = build_pyramid(&mut db, &cfg).unwrap();
        let mut live: Vec<i64> = (0..initial.len() as i64).collect();
        let mut next_id = initial.len() as i64;
        let mut in_place = 0;

        for batch in &batches {
            let fresh = |points: Vec<(f64, f64, f64)>, next_id: &mut i64, live: &mut Vec<i64>| {
                points
                    .into_iter()
                    .map(|(x, y, m)| {
                        *next_id += 1;
                        live.push(*next_id);
                        RawPoint::new(*next_id, x.clamp(0.0, 4095.9), y.clamp(0.0, 4095.9), &[m])
                    })
                    .collect::<Vec<_>>()
            };
            let report = match batch {
                WideBatch::Scattered(s, n) => {
                    let pts = fresh(wide_points(*s, *n), &mut next_id, &mut live);
                    pyramid.insert_points(&mut db, &pts).unwrap()
                }
                WideBatch::Clustered(s, n, (cx, cy)) => {
                    let blob: Vec<(f64, f64, f64)> = wide_points(*s, *n)
                        .into_iter()
                        .map(|(x, y, m)| {
                            (f64::from(*cx) + x / 4096.0 * 150.0, f64::from(*cy) + y / 4096.0 * 150.0, m)
                        })
                        .collect();
                    let pts = fresh(blob, &mut next_id, &mut live);
                    pyramid.insert_points(&mut db, &pts).unwrap()
                }
                WideBatch::Delete(picks) => {
                    // picks name fresh and original ids alike
                    let mut victims: Vec<i64> = picks.iter().map(|p| live[p % live.len()]).collect();
                    victims.sort_unstable();
                    victims.dedup();
                    live.retain(|id| victims.binary_search(id).is_err());
                    pyramid.delete_points(&mut db, &victims).unwrap()
                }
            };
            in_place += report.levels.iter().map(|l| l.rows_in_place).sum::<usize>();
            let (fresh_db, scratch) = scratch_build(&db, &cfg).expect("the canvas never empties");
            if let Err(diff) = pyramid.maintenance_eq(&scratch) {
                prop_assert!(false, "state diverged from a scratch build after {:?}: {}", batch, diff);
            }
            prop_assert_eq!(&pyramid.levels, &scratch.levels);
            prop_assert_eq!(level_tables(&db, &cfg), level_tables(&fresh_db, &cfg), "after {:?}", batch);
        }
        prop_assert!(in_place > 0, "no level row was overwritten in place");
    }
}
