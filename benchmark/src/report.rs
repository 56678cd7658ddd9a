//! Metric names, units and bounds, and the result line the driver reads.
//!
//! The two tables here are the source of truth; `BENCHMARK.json` repeats
//! them and a unit test keeps the two in step.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the parent's median by which it may get worse before a
/// change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// A single layer's metric (no bound: it explains, it does not gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "interaction_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "interaction_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "interaction_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "interactions_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "mutation_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // storage: one routed shard's share of a fetch
    layer("storage.query_us", "us", "lower"),
    layer("storage.prepare_us", "us", "lower"),
    layer("storage.execute_us", "us", "lower"),
    layer("storage.rows_scanned_per_row_out", "ratio", "lower"),
    layer("storage.nodes_visited_per_query", "count", "lower"),
    layer("storage.rows_out_per_query", "count", "lower"),
    layer("storage.load_rows_per_s", "1/s", "higher"),
    layer("storage.index_build_s", "s", "lower"),
    layer("storage.heap_bytes_per_row", "B", "lower"),
    // server
    layer("server.launch_s", "s", "lower"),
    layer("server.fetch_cold_us", "us", "lower"),
    layer("server.fetch_cold_self_us", "us", "lower"),
    layer("server.fetch_warm_us", "us", "lower"),
    layer("server.fetch_rect_self_us", "us", "lower"),
    layer("server.queries_per_request", "ratio", "lower"),
    layer("server.rows_per_request", "count", "lower"),
    layer("server.bytes_per_request", "B", "lower"),
    layer("server.backend_hit_ratio", "ratio", "higher"),
    layer("server.capacity_evictions", "count", "lower"),
    layer("server.invalidation_removals", "count", "lower"),
    layer("server.mutate_noop_us", "us", "lower"),
    layer("server.publish_self_us", "us", "lower"),
    layer("server.mutation_p95_ms", "ms", "lower"),
    layer("server.overlap_p95_ms", "ms", "lower"),
    layer("server.quiet_p95_ms", "ms", "lower"),
    // client
    layer("client.step_frontend_hit_us", "us", "lower"),
    layer("client.step_self_us", "us", "lower"),
    layer("client.frontend_hit_ratio", "ratio", "higher"),
    layer("client.backend_requests_per_step", "ratio", "lower"),
    layer("client.visible_rows_per_step", "count", "lower"),
    layer("client.invalidations_per_mutation", "ratio", "lower"),
    // lod
    layer("lod.build_s", "s", "lower"),
    layer("lod.build_on_shards_s", "s", "lower"),
    layer("lod.insert_batch_ms", "ms", "lower"),
    layer("lod.delete_batch_ms", "ms", "lower"),
    layer("lod.rows_rewritten_per_point", "ratio", "lower"),
    layer("lod.level_rows_ratio", "ratio", "lower"),
    // parallel
    layer("parallel.shards_per_query", "ratio", "lower"),
    layer("parallel.single_target_ratio", "ratio", "higher"),
    layer("parallel.scatter_overhead_us", "us", "lower"),
    layer("parallel.shard_skew", "ratio", "lower"),
    // core, render, obs
    layer("core.compile_ms", "ms", "lower"),
    layer("render.frame_ms", "ms", "lower"),
    layer("render.marks_per_frame", "count", "lower"),
    layer("obs.span_ns", "ns", "lower"),
    layer("obs.telemetry_json_ms", "ms", "lower"),
    // the generator and the tracing themselves
    layer("mutator_lag_ms", "ms", "lower"),
    layer("mutator_batches_skipped", "count", "lower"),
    layer("trace_overhead_ratio", "ratio", "lower"),
];

/// Metric values of one run, keyed by a name from one of the tables.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is in neither table of report.rs"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// A float with all its digits, as JSON (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
/// `names` fixes which metrics appear and in which order; one that was
/// never set is a bug in the harness.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: impl Iterator<Item = &'a str>,
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .map(|name| {
            let value = values
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was never measured"));
            let unit = unit_of(name).expect("known metric");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use kyrix_core::{parse_json, Json};

    #[test]
    fn result_line_is_the_contracts_object() {
        let mut v = Values::default();
        v.set("setup_s", 0.8127);
        v.set("interaction_p50_ms", 1.25);
        let line = result_line(
            true,
            1000,
            0,
            ["interaction_p50_ms", "setup_s"].into_iter(),
            &v,
        );
        let j = parse_json(&line).expect("result line parses as JSON");
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let m = j.get("metrics").expect("metrics");
        let p50 = m.get("interaction_p50_ms").expect("p50");
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "neither table")]
    fn unknown_metric_names_are_refused() {
        Values::default().set("storage.typo_us", 1.0);
    }

    /// `BENCHMARK.json` at the repo root repeats the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = parse_json(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);

        let e2e = j
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(have, "name").as_deref(), Some(want.name));
            assert_eq!(field(have, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(have, "better").as_deref(), Some(want.better));
            assert_eq!(have.get("bound").and_then(Json::as_f64), Some(want.bound));
            assert!(want.bound <= 0.25);
        }
        let layers = j
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (have, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(have, "name").as_deref(), Some(want.name));
            assert_eq!(field(have, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(have, "better").as_deref(), Some(want.better));
        }
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), workload::ALL.len());
        for (have, want) in workloads.iter().zip(workload::ALL) {
            assert_eq!(field(have, "name").as_deref(), Some(want.name()));
            assert_eq!(field(have, "why").as_deref(), Some(want.why()));
            assert!(want.why().len() <= 200);
        }
        assert_eq!(
            j.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
