//! Integration tests for the §4 extensions working *together* through the
//! public facade: edits to a database feed scatter-gather analytics, and
//! the semantic prefetch policy is configurable from the prelude.

use kyrix::prelude::*;

fn cities(n: i64) -> (Schema, Vec<Row>) {
    let schema = Schema::empty()
        .with("id", DataType::Int)
        .with("lng", DataType::Float)
        .with("lat", DataType::Float)
        .with("pop", DataType::Float);
    let rows = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Float(-125.0 + (i % 60) as f64),
                Value::Float(24.0 + (i / 60 % 25) as f64),
                Value::Float(1000.0 + i as f64),
            ])
        })
        .collect();
    (schema, rows)
}

/// Edits to a database feed a partitioned analytics tier; scatter-gather
/// aggregates over the shards agree with the single-node answer.
#[test]
fn edits_flow_into_parallel_analytics() {
    let (schema, rows) = cities(1_200);
    let mut edited = Database::new();
    edited.create_table("cities", schema.clone()).unwrap();
    for r in &rows {
        edited.insert("cities", r.clone()).unwrap();
    }

    // edit: boost west-coast populations
    let boosted = edited
        .update_where(
            "cities",
            &[("pop", Value::Float(9_999_999.0))],
            "lng < -120",
            &[],
        )
        .unwrap();
    assert!(boosted > 0);

    // ship into the partitioned tier
    let part = Partitioner::Hash {
        column: "id".into(),
    };
    let mut empty = Database::new();
    empty.create_table("cities", schema.clone()).unwrap();
    let mut shards = vec![empty; 4];
    edited
        .table("cities")
        .unwrap()
        .scan(|_, r| {
            let s = part.route(&schema, &r, 4).unwrap();
            shards[s].insert("cities", r).unwrap();
        })
        .unwrap();
    let mut router = QueryRouter::new(4).unwrap();
    router.register("cities", part).unwrap();

    // the boost is visible in parallel aggregates and matches the
    // single-node answer
    let q = "SELECT COUNT(*) AS n, MAX(pop) FROM cities WHERE lng < -120";
    let par = scatter_gather(&shards, &router, q, &[]).unwrap().result;
    let seq = edited.query(q, &[]).unwrap();
    assert_eq!(par.rows, seq.rows);
    assert_eq!(par.rows[0].get(0), &Value::Int(boosted as i64));
    assert_eq!(par.rows[0].get(1), &Value::Float(9_999_999.0));
}

/// The semantic prefetch policy is reachable through the facade config.
#[test]
fn semantic_policy_configurable_from_prelude() {
    let config = ServerConfig::new(FetchPlan::DynamicBox {
        policy: BoxPolicy::Exact,
    })
    .with_prefetch(PrefetchPolicy::Semantic { top_k: 3 });
    assert_eq!(config.prefetch, Some(PrefetchPolicy::Semantic { top_k: 3 }));
}
