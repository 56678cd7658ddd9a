//! Property: any interleaving of insert/delete batches applied
//! incrementally to a pyramid equals the from-scratch rebuild over the
//! final point set — bit-identical level tables, every time.
//!
//! Positions and batch shapes are arbitrary; measures are integer-valued
//! (the same exactness condition the sharded-build parity pins), so even
//! the floating-point `sum_*` columns must match bitwise.
//!
//! Every batch also runs on a twin through the general entry points
//! (`insert_points_sharded` / `delete_points_sharded` over the database as
//! a one-element slice): reports and level tables must equal the
//! single-database shims' bit for bit.

use kyrix_lod::{build_pyramid, LodConfig, RawPoint};
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
        let mut fresh = Database::new();
        fresh.create_table("pts", raw_schema()).unwrap();
        db.table("pts")
            .unwrap()
            .scan(|_, row| {
                fresh.insert("pts", row).unwrap();
            })
            .unwrap();
        prop_assert_eq!(fresh.table("pts").unwrap().len(), live.len());
        if live.is_empty() {
            // an empty raw table cannot seed a pyramid; the maintained
            // tables must simply be empty
            for k in 1..=cfg.levels {
                let n = db
                    .query(&format!("SELECT COUNT(*) FROM {}", cfg.level_table(k)), &[])
                    .unwrap();
                prop_assert_eq!(n.rows[0].get(0).as_i64().unwrap(), 0, "level {} not empty", k);
            }
        } else {
            let scratch = build_pyramid(&mut fresh, &cfg).unwrap();
            prop_assert_eq!(&pyramid.levels, &scratch.levels);
            for k in 1..=cfg.levels {
                let q = format!("SELECT * FROM {} ORDER BY id", cfg.level_table(k));
                let a = db.query(&q, &[]).unwrap();
                let b = fresh.query(&q, &[]).unwrap();
                prop_assert_eq!(&a.rows, &b.rows, "level {} tables differ", k);
            }
        }
    }
}
