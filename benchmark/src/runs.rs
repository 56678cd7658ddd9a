//! The three ways the binary runs: one untraced workload (end-to-end
//! metrics), one traced workload (per-layer metrics), or every workload in
//! a process of its own with the results tabulated.

use crate::mutate::{Applied, BATCH, PERIOD};
use crate::probes::{self, PROBE_MIN_PAIRS, PROBE_TIME_SHARE};
use crate::report::{self, Values, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile, quartile_spread, self_time_ns, sorted};
use crate::trace::{self, CallDown, SpanLog};
use crate::walk::Step;
use crate::workload::{self, Budget, Measured, Plan, Workload};
use crate::world::{Backend, World};
use crate::Args;
use kyrix_core::{parse_json, Json};
use kyrix_lod::LodPyramid;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generator threads a plan runs: the reader, plus the mutator.
fn generator_threads(plan: &Plan) -> usize {
    1 + usize::from(plan.mutator)
}

/// Refuse to run more generator threads than the host has cores: the
/// numbers would measure the scheduler.
fn cores_suffice(w: Workload, plan: &Plan) -> bool {
    let (need, have) = (generator_threads(plan), nproc());
    if need > have {
        println!(
            "{}: needs {need} generator threads, this host has {have} cores — not run",
            w.name()
        );
    }
    need <= have
}

/// What the generator and the checks say about a run, printed before the
/// result line. Returns every reason the run is not correct.
fn verdict(w: Workload, plan: &Plan, m: &Measured, mutations: &[Applied]) -> Vec<String> {
    let mut errors = m.errors.clone();
    if m.counts.missed > 0 {
        errors.push(format!("{} interactions missed", m.counts.missed));
    }
    if let Some(log) = &m.schedule {
        let lag = sorted(log.applied.iter().map(|a| ms(a.lag())).collect());
        let lag_p95 = percentile(&lag, 0.95);
        println!(
            "{}: mutator_lag_ms p95 {lag_p95:.3}, batches {} skipped {}",
            w.name(),
            log.applied.len(),
            log.skipped
        );
        if lag_p95 > ms(PERIOD) {
            errors.push(format!(
                "mutator ran {lag_p95:.1} ms late at p95, more than its {} ms period: \
                 the numbers measure the scheduler",
                ms(PERIOD)
            ));
        }
    }
    println!(
        "{}: nproc {} generator_threads {} tour {:016x} ({} steps) passes {} \
         interactions {} missed {} mutations {} checksum {:016x}",
        w.name(),
        nproc(),
        generator_threads(plan),
        m.tour_hash,
        m.tour_len,
        m.passes.len(),
        m.counts.interactions,
        m.counts.missed,
        mutations.len(),
        m.checksum,
    );
    for e in &errors {
        println!("{}: CHECK FAILED: {e}", w.name());
    }
    errors
}

/// Insert/delete pairs back to back with nobody reading; a failure is
/// recorded among the run's errors.
fn quiet_probe(
    world: &World,
    pyramid: &mut LodPyramid,
    args: &Args,
    errors: &mut Vec<String>,
) -> Vec<Applied> {
    let min_time = Duration::from_secs_f64(args.seconds * PROBE_TIME_SHARE);
    probes::mutation_probe(world, pyramid, args.seed, PROBE_MIN_PAIRS, min_time).unwrap_or_else(
        |e| {
            errors.push(format!("mutation probe: {e}"));
            Vec::new()
        },
    )
}

/// One workload, untraced: the end-to-end metrics.
pub fn untraced(w: Workload, args: &Args) -> bool {
    let plan = w.plan(args.smoke);
    if !cores_suffice(w, &plan) {
        return false;
    }
    let (world, mut pyramid, setups) = workload::setup(&plan);
    let mut m = workload::measure(
        &plan,
        &world,
        &mut pyramid,
        args.seed,
        Budget::Seconds(args.seconds),
        false,
    );
    // the scheduled mutator's batches where the workload has one, a
    // closed-loop probe after the read phase elsewhere
    let mutations = match &m.schedule {
        Some(log) => log.applied.clone(),
        None => quiet_probe(&world, &mut pyramid, args, &mut m.errors),
    };
    let errors = verdict(w, &plan, &m, &mutations);

    let mut v = Values::default();
    v.set("setup_s", median(&setups));
    v.set("interaction_p50_ms", m.median_of(|p| p.p50_ms));
    v.set("interaction_p95_ms", m.median_of(|p| p.p95_ms));
    v.set("interaction_p99_ms", m.median_of(|p| p.p99_ms));
    v.set("interactions_per_s", m.median_of(|p| p.per_s));
    let latencies: Vec<f64> = mutations.iter().map(|a| ms(a.latency())).collect();
    v.set("mutation_p50_ms", median(&latencies));
    v.set("peak_rss_mb", probes::peak_rss_mb());
    println!(
        "{}: set-ups {} (median of {:?} s; last: {:?}), measured {:.2} s, samples per pass {}",
        w.name(),
        setups.len(),
        setups,
        world.times,
        m.elapsed.as_secs_f64(),
        m.passes[0].interactions,
    );
    for e in END_TO_END {
        println!(
            "{}: {:<22} {:>12.4} {:<4} ({} is better, bound {})",
            w.name(),
            e.name,
            v.get(e.name).expect("set above"),
            e.unit,
            e.better,
            e.bound
        );
    }
    println!(
        "{}",
        report::result_line(
            errors.is_empty(),
            m.counts.interactions + mutations.len() as u64,
            m.counts.missed,
            END_TO_END.iter().map(|e| e.name),
            &v,
        )
    );
    errors.is_empty()
}

/// One workload, traced: the per-layer metrics and the span file.
pub fn traced(w: Workload, args: &Args) -> bool {
    let plan = w.plan(args.smoke);
    if !cores_suffice(w, &plan) {
        return false;
    }
    let (world, mut pyramid) = crate::world::build_world(plan.scale, plan.backend);
    let t0 = Instant::now();
    let mut log = SpanLog::new();
    let mut v = Values::default();

    // the workload itself, twice over the same tours: plain, then with
    // every interaction kept — the ratio of the two is the tracing overhead
    let plain = workload::measure(
        &plan,
        &world,
        &mut pyramid,
        args.seed,
        Budget::Seconds(args.seconds * 0.2),
        false,
    );
    let mut m = workload::measure(
        &plan,
        &world,
        &mut pyramid,
        args.seed,
        Budget::Passes(plain.passes.len()),
        true,
    );
    m.errors.extend(plain.errors.iter().cloned());
    let mean_step = |m: &Measured| mean(&m.passes.iter().map(|p| p.mean_ms).collect::<Vec<_>>());
    v.set("trace_overhead_ratio", mean_step(&m) / mean_step(&plain));
    // read before the replay disturbs the server's counts
    workload_counts(&mut v, &world, &m);
    let scheduled: Vec<Applied> = m
        .schedule
        .as_ref()
        .map_or(Vec::new(), |s| s.applied.clone());
    mutator_side(&mut v, &mut log, &m, &scheduled);

    // replay the first tour down the stack until 80 % of the time is used
    let tour = workload::plan_tour(&plan, &world, args.seed, 0);
    let replay_until = t0 + Duration::from_secs_f64(args.seconds * 0.8);
    let replayed = replay(&mut v, &mut log, &world, &m, &tour, replay_until);
    v.set(
        "parallel.scatter_overhead_us",
        match plan.backend {
            Backend::Grid2x2 => {
                replayed.view_self_ns as f64 / 1e3 / replayed.rect_calls.max(1) as f64
            }
            Backend::SingleNode => 0.0,
        },
    );
    stage_metrics(&mut v, &world, plan.backend);

    // fixed-size probes
    let (insert_ms, delete_ms) = probes::bare_batches(&world, &mut pyramid, args.seed, 4);
    v.set("lod.insert_batch_ms", insert_ms);
    v.set("lod.delete_batch_ms", delete_ms);
    let probe = quiet_probe(&world, &mut pyramid, args, &mut m.errors);
    let n = probe.len().max(1) as f64;
    v.set(
        "server.publish_self_us",
        probe
            .iter()
            .map(|a| a.publish_self().as_secs_f64() * 1e6)
            .sum::<f64>()
            / n,
    );
    v.set(
        "lod.rows_rewritten_per_point",
        probe.iter().map(|a| a.rows_changed).sum::<usize>() as f64 / (n * BATCH as f64),
    );
    // the loaded mutator's tail where there is one, the probe's otherwise
    let tail = if scheduled.is_empty() {
        &probe
    } else {
        &scheduled
    };
    let latencies = sorted(tail.iter().map(|a| ms(a.latency())).collect());
    v.set("server.mutation_p95_ms", percentile(&latencies, 0.95));
    v.set("server.mutate_noop_us", probes::mutate_noop_us(&world, 20));
    let first_cycle = &tour[..tour.len().min(workload::cycle_len(&plan))];
    let (frame_ms, marks) = probes::render_frames(&world, first_cycle);
    v.set("render.frame_ms", frame_ms);
    v.set("render.marks_per_frame", marks);
    v.set("obs.span_ns", probes::span_ns());
    v.set("obs.telemetry_json_ms", probes::telemetry_json_ms(&world));

    let errors = verdict(w, &plan, &m, &scheduled);
    let path = trace::output_dir().join(format!("trace-{}.jsonl", w.name()));
    match log.write_jsonl(&path) {
        Ok(()) => println!(
            "{}: {} spans over {} replayed steps written to {}",
            w.name(),
            log.spans.len(),
            replayed.ops,
            path.display()
        ),
        Err(e) => println!("{}: could not write {}: {e}", w.name(), path.display()),
    }
    for l in PER_LAYER {
        println!(
            "{}: {:<36} {:>14.4} {:<5} ({} is better)",
            w.name(),
            l.name,
            v.get(l.name).expect("every per-layer metric is set above"),
            l.unit,
            l.better
        );
    }
    println!(
        "{}",
        report::result_line(
            errors.is_empty(),
            plain.counts.interactions + m.counts.interactions + scheduled.len() as u64,
            plain.counts.missed + m.counts.missed,
            PER_LAYER.iter().map(|l| l.name),
            &v,
        )
    );
    errors.is_empty()
}

/// Counts of the kept-samples passes, from the public accessors.
fn workload_counts(v: &mut Values, world: &World, m: &Measured) {
    let totals = world.server.totals();
    let per_request = |x: u64| x as f64 / totals.requests.max(1) as f64;
    v.set("server.queries_per_request", per_request(totals.queries));
    v.set("server.rows_per_request", per_request(totals.rows));
    v.set("server.bytes_per_request", per_request(totals.bytes));
    let cache = world.server.backend_cache_stats();
    v.set(
        "server.backend_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    v.set("server.capacity_evictions", cache.capacity_evictions as f64);
    v.set(
        "server.invalidation_removals",
        cache.invalidation_removals as f64,
    );
    let c = m.counts;
    let per_step = |x: u64| x as f64 / c.interactions.max(1) as f64;
    v.set(
        "client.step_frontend_hit_us",
        c.frontend_only_ns as f64 / 1e3 / c.frontend_only.max(1) as f64,
    );
    v.set(
        "client.frontend_hit_ratio",
        c.frontend_hits as f64 / (c.frontend_hits + c.frontend_misses).max(1) as f64,
    );
    v.set(
        "client.backend_requests_per_step",
        per_step(c.backend_requests),
    );
    v.set("client.visible_rows_per_step", per_step(c.visible_rows));
}

/// The scheduled mutator's side of the kept-samples passes (all zero on a
/// workload without one).
fn mutator_side(v: &mut Values, log: &mut SpanLog, m: &Measured, scheduled: &[Applied]) {
    trace::record_mutations(log, scheduled);
    let (overlap, quiet) = trace::overlap_split(&m.samples, scheduled);
    v.set("server.overlap_p95_ms", percentile(&sorted(overlap), 0.95));
    v.set("server.quiet_p95_ms", percentile(&sorted(quiet), 0.95));
    v.set(
        "client.invalidations_per_mutation",
        match scheduled.len() {
            0 => 0.0,
            n => m.counts.frontend_invalidations as f64 / n as f64,
        },
    );
    let lag = sorted(scheduled.iter().map(|a| ms(a.lag())).collect());
    v.set("mutator_lag_ms", percentile(&lag, 0.95));
    v.set(
        "mutator_batches_skipped",
        m.schedule.as_ref().map_or(0.0, |s| s.skipped as f64),
    );
}

/// Record the kept interactions, replay the tour down the stack until
/// `until` (at least one step), and set the layer means that come of it.
fn replay(
    v: &mut Values,
    log: &mut SpanLog,
    world: &World,
    m: &Measured,
    tour: &[Step],
    until: Instant,
) -> CallDown {
    let step_spans = trace::record_steps(log, &m.samples, tour.len());
    let mut sums = CallDown::default();
    let mut beneath: Vec<Option<(u64, u64)>> = vec![None; tour.len()];
    for (i, step) in tour.iter().enumerate() {
        if Instant::now() >= until && sums.ops > 0 {
            break;
        }
        beneath[i] = Some(trace::call_down(
            world,
            log,
            &mut sums,
            i,
            step,
            step_spans[i],
        ));
    }
    // a step's self time: its latency minus the fetch beneath it — the
    // cold replay if it queried, the warm one if the backend cache served
    // it, nothing if the frontend did
    let self_ns: Vec<f64> = m
        .samples
        .iter()
        .filter(|s| s.pass == 0)
        .filter_map(|s| {
            let (cold, warm) = beneath[s.step]?;
            let fetch = match (s.fetched, s.queries > 0) {
                (false, _) => 0,
                (true, true) => cold,
                (true, false) => warm,
            };
            Some(self_time_ns(s.latency.as_nanos() as u64, fetch) as f64)
        })
        .collect();
    v.set("client.step_self_us", mean(&self_ns) / 1e3);

    let us_per = |ns: i64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
    v.set(
        "server.fetch_cold_us",
        us_per(sums.region_cold_ns as i64, sums.ops),
    );
    v.set(
        "server.fetch_warm_us",
        us_per(sums.region_warm_ns as i64, sums.ops),
    );
    v.set(
        "server.fetch_cold_self_us",
        us_per(sums.region_self_ns, sums.ops),
    );
    v.set(
        "server.fetch_rect_self_us",
        us_per(sums.rect_self_ns, sums.rect_calls),
    );
    let per_query = sums.shard_queries;
    v.set(
        "storage.query_us",
        us_per((sums.prepare_ns + sums.execute_ns) as i64, per_query),
    );
    v.set(
        "storage.prepare_us",
        us_per(sums.prepare_ns as i64, per_query),
    );
    v.set(
        "storage.execute_us",
        us_per(sums.execute_ns as i64, per_query),
    );
    v.set(
        "storage.rows_scanned_per_row_out",
        sums.exec.rows_scanned as f64 / sums.exec.rows_out.max(1) as f64,
    );
    v.set(
        "storage.nodes_visited_per_query",
        sums.exec.nodes_visited as f64 / per_query.max(1) as f64,
    );
    v.set(
        "storage.rows_out_per_query",
        sums.exec.rows_out as f64 / per_query.max(1) as f64,
    );
    let rects = sums.rect_calls.max(1) as f64;
    v.set("parallel.shards_per_query", sums.targets as f64 / rects);
    v.set(
        "parallel.single_target_ratio",
        sums.single_target as f64 / rects,
    );
    sums
}

/// Set-up stages and data shape, as per-layer metrics.
fn stage_metrics(v: &mut Values, world: &World, backend: Backend) {
    let t = world.times;
    let shard_rows = world.shard_rows();
    let raw_rows: usize = shard_rows.iter().sum();
    v.set("storage.load_rows_per_s", raw_rows as f64 / t.load_s);
    v.set("storage.index_build_s", t.index_s);
    v.set(
        "storage.heap_bytes_per_row",
        world.heap_bytes() as f64 / raw_rows as f64,
    );
    v.set("server.launch_s", t.launch_s);
    v.set("core.compile_ms", t.compile_s * 1e3);
    let sharded = backend == Backend::Grid2x2;
    v.set("lod.build_s", if sharded { 0.0 } else { t.build_s });
    v.set(
        "lod.build_on_shards_s",
        if sharded { t.build_s } else { 0.0 },
    );
    let level_rows: usize = (1..=world.lod.levels).map(|k| world.level_rows(k)).sum();
    v.set("lod.level_rows_ratio", level_rows as f64 / raw_rows as f64);
    let largest = *shard_rows.iter().max().expect("at least one shard");
    v.set(
        "parallel.shard_skew",
        largest as f64 * shard_rows.len() as f64 / raw_rows as f64,
    );
}

/// One child run's parsed result.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    checksum: Option<String>,
}

/// Run one workload in a process of its own, echoing what it prints.
fn child(w: Workload, args: &Args, seed: u64, trace: bool) -> Option<ChildRun> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end
    let out = cmd.output().expect("child benchmark process starts");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop()?;
    for line in &lines {
        println!("{line}");
    }
    if !out.status.success() {
        println!("{}: child exited with {}", w.name(), out.status);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let j = parse_json(last).ok()?;
    let Json::Obj(metrics) = j.get("metrics")? else {
        return None;
    };
    Some(ChildRun {
        correct: j.get("correct")?.as_bool()? && out.status.success(),
        attempted: j.get("attempted")?.as_f64()?,
        failed: j.get("failed")?.as_f64()?,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.clone(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect(),
        checksum: lines
            .iter()
            .find_map(|l| l.split("checksum ").nth(1))
            .map(|c| c.trim().to_string()),
    })
}

/// Every workload, each run in its own process: `--repeat` untraced runs
/// (a table of median, min, max and spread per end-to-end metric, flagged
/// against its bound) and one traced run (the per-layer metrics).
pub fn every_workload(args: &Args) -> bool {
    let mut ok = true;
    let mut checksums: Vec<(Workload, String)> = Vec::new();
    let mut table = vec![format!(
        "| workload | metric | unit | median | min | max | (max-min)/median | quartile spread | bound |\n\
         |---|---|---|---|---|---|---|---|---|"
    )];
    println!(
        "nproc {}, seed {}, {} s per run, {} untraced run(s) + 1 traced run per workload",
        nproc(),
        args.seed,
        args.seconds,
        args.repeat
    );
    for w in workload::ALL {
        let runs: Vec<ChildRun> = (0..args.repeat)
            .filter_map(|_| child(w, args, args.seed, false))
            .collect();
        if runs.len() < args.repeat || runs.iter().any(|r| !r.correct) {
            println!("{}: an untraced run failed", w.name());
            ok = false;
        }
        if let Some(c) = runs.first().and_then(|r| r.checksum.clone()) {
            checksums.push((w, c));
        }
        for e in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.0 == e.name).map(|m| m.1))
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = sorted(values.clone());
            let (lo, hi, mid) = (s[0], s[s.len() - 1], median(&s));
            let range = (hi - lo) / mid;
            let quartile = if s.len() >= 2 {
                format!("{:.4}", quartile_spread(&s))
            } else {
                "-".to_string()
            };
            let flag = if range > e.bound { " OVER BOUND" } else { "" };
            table.push(format!(
                "| {} | {} | {} | {mid:.4} | {lo:.4} | {hi:.4} | {range:.4}{flag} | {quartile} | {} |",
                w.name(),
                e.name,
                e.unit,
                e.bound
            ));
        }
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        let failed: f64 = runs.iter().map(|r| r.failed).sum();
        println!(
            "{}: {attempted} operations attempted, {failed} failed over {} untraced run(s)",
            w.name(),
            runs.len()
        );
        match child(w, args, args.seed, true) {
            Some(r) if r.correct => {}
            _ => {
                println!("{}: the traced run failed", w.name());
                ok = false;
            }
        }
    }
    // same tour, same data: the sharded backend must show what the
    // single node shows
    let sum_of = |w: Workload| {
        checksums
            .iter()
            .find(|(x, _)| *x == w)
            .map(|(_, c)| c.clone())
    };
    match (sum_of(Workload::ZoomCold), sum_of(Workload::ShardCold)) {
        (Some(a), Some(b)) if a == b => println!("zoom_cold and shard_cold checksums agree: {a}"),
        (a, b) => {
            println!("CHECK FAILED: zoom_cold checksum {a:?} != shard_cold checksum {b:?}");
            ok = false;
        }
    }
    println!("\n{}", table.join("\n"));
    println!("\n{}", if ok { "all checks passed" } else { "FAILED" });
    ok
}
