//! The MGH scale-out scenario (paper §4): *"Fifty terabytes will require a
//! parallel multi-node DBMS to achieve our performance goals."*
//!
//! Synthesizes multi-channel EEG recordings, range-partitions them over
//! simulated nodes by time (the natural layout for append-only recordings),
//! and runs the two query shapes the coordinated views issue:
//!
//! * **temporal window** — the temporal view's pan: a time-range predicate
//!   that routes to the one or two nodes owning that window;
//! * **spectral rollup** — the spectral view's summary: a GROUP BY
//!   aggregate decomposed into per-node partials and recombined.
//!
//! ```text
//! cargo run --example parallel_eeg --release
//! ```

use kyrix::prelude::*;
use kyrix::workload::{load_eeg, EegConfig};

fn main() {
    // ---- 1. synthesize the recording on a staging node -------------------
    let cfg = EegConfig {
        channels: 8,
        samples: 16_384,
        ..EegConfig::default()
    };
    let mut staging = Database::new();
    let (n_samples, n_power) = load_eeg(&mut staging, &cfg).expect("synthesize EEG");
    println!("synthesized {n_samples} samples, {n_power} spectral epochs");

    // ---- 2. range-partition over 4 "nodes" by time -----------------------
    // the `t` column is the sample index (one canvas pixel per sample)
    let total_time = cfg.samples as f64;
    let bounds: Vec<f64> = (1..4).map(|i| total_time * i as f64 / 4.0).collect();
    let part = Partitioner::Range {
        column: "t".into(),
        bounds,
    };
    let schema = staging.table("eeg").expect("eeg").schema.clone();
    let mut empty = Database::new();
    empty.create_table("eeg", schema.clone()).expect("table");
    let mut nodes = vec![empty; 4];
    staging
        .table("eeg")
        .expect("eeg")
        .scan(|_, r| {
            let node = part.route(&schema, &r, 4).expect("route");
            nodes[node].insert("eeg", r).expect("load");
        })
        .expect("scan");
    let mut router = QueryRouter::new(4).expect("router");
    router.register("eeg", part).expect("register");
    println!(
        "partitioned over 4 nodes by time: {:?} rows/node",
        nodes
            .iter()
            .map(|n| n.table("eeg").expect("eeg").len())
            .collect::<Vec<_>>()
    );
    // every query below goes through the scatter-gather executor; count
    // what the coordinator did as we go
    let (mut queries, mut touched, mut broadcasts) = (0, 0, 0);
    let mut query = |sql: &str, params: &[Value]| {
        let g = scatter_gather(&nodes, &router, sql, params).expect("query");
        queries += 1;
        touched += g.shards.len();
        broadcasts += usize::from(g.shards.len() == nodes.len());
        g.result
    };

    // ---- 3. temporal-view window queries route to owning nodes ----------
    let window = 8.0 * cfg.sample_rate; // 8 seconds of samples on screen
    for start in [0.0, total_time * 0.4, total_time * 0.8] {
        let r = query(
            "SELECT COUNT(*) FROM eeg WHERE t BETWEEN $1 AND $2 AND channel = 0",
            &[Value::Float(start), Value::Float(start + window)],
        );
        let count = match r.rows[0].get(0) {
            Value::Int(n) => *n,
            other => panic!("unexpected {other:?}"),
        };
        println!(
            "temporal window [{:>6.1}s, {:>6.1}s): {count} samples",
            start / cfg.sample_rate,
            (start + window) / cfg.sample_rate
        );
    }

    // ---- 4. spectral rollup: per-channel amplitude statistics -----------
    let r = query(
        "SELECT channel, COUNT(*) AS n, AVG(amplitude), MIN(amplitude), MAX(amplitude) \
         FROM eeg GROUP BY channel ORDER BY channel",
        &[],
    );
    println!("\nper-channel rollup (recombined from 4 nodes):");
    println!("channel |     n |      avg |      min |      max");
    for row in &r.rows {
        println!(
            "{:>7} | {:>5} | {:>8.3} | {:>8.3} | {:>8.3}",
            row.get(0).as_i64().unwrap(),
            row.get(1).as_i64().unwrap(),
            row.get(2).as_f64().unwrap(),
            row.get(3).as_f64().unwrap(),
            row.get(4).as_f64().unwrap(),
        );
    }

    // ---- 5. coordinator statistics ---------------------------------------
    println!(
        "\ncoordinator: {queries} queries, {:.1} nodes touched per query, {broadcasts} full broadcasts",
        touched as f64 / queries as f64,
    );
}
