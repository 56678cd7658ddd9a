//! The traced run: per-layer numbers measured from outside the program.
//!
//! This benchmark may not edit the program, so layers are timed at their
//! public boundaries. After the workload's own interactions are recorded
//! (`client.step` spans), the first tour is replayed *down the stack*: for
//! each step's rectangle the harness calls, one after the other,
//!
//! ```text
//! client.step            Session::open_on / pan_to      (recorded above)
//! └ server.fetch_region  KyrixServer::fetch_region, caches cleared
//!   server.fetch_region.warm   the same call again
//!   └ server.fetch_rect  kyrix_server::fetch_rect, once per covering tile
//!     └ view.query       SnapshotView::query of the fetch SQL
//!       └ storage.prepare + storage.execute   on every routed shard
//! ```
//!
//! recording one span per call — name, start, end, parent, and `op`, the
//! step's index in the tour. The nesting is logical: each call re-executes
//! what its parent did inside, right after the parent returned. A layer's
//! self time is its span minus the calls beneath it. Spans stay in memory
//! and are written as JSON lines when the run ends.

use crate::mutate::Applied;
use crate::stats::self_time_ns;
use crate::walk::Step;
use crate::workload::StepSample;
use crate::world::World;
use kyrix_server::{fetch_rect, FetchPlan, LayerStore, Tiling};
use kyrix_storage::{ExecStats, Rect, Value};
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this call re-executes a part of.
    pub parent: Option<usize>,
    /// Step index in the tour (batch number for mutation spans).
    pub op: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one run, in memory until [`SpanLog::write_jsonl`].
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a call that already happened; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, parent, op, start, end), out)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Where span files go: beside the executable, which is inside the build
/// directory and therefore inside the checkout.
pub fn output_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default()
}

/// Sums over the replayed steps, from which the per-layer means come.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallDown {
    /// Steps replayed.
    pub ops: u64,
    pub region_cold_ns: u64,
    pub region_warm_ns: u64,
    /// Summed self time of `fetch_region`: cold call minus the
    /// `fetch_rect`s beneath it.
    pub region_self_ns: i64,
    pub rect_calls: u64,
    pub rect_self_ns: i64,
    /// `view.query` minus the slowest routed shard beneath it: dispatch on
    /// a single node, routing + scatter + merge on shards.
    pub view_self_ns: i64,
    /// One routed shard's prepare + execute.
    pub shard_queries: u64,
    pub prepare_ns: u64,
    pub execute_ns: u64,
    pub exec: ExecStats,
    /// Shards routed to, summed over `view.query` calls, and how many of
    /// those calls routed to exactly one.
    pub targets: u64,
    pub single_target: u64,
}

/// The fetch SQL of a separable store and the parameters for a canvas
/// rectangle — what `kyrix_server::fetch_rect` issues beneath itself.
fn fetch_query(store: &LayerStore, rect: &Rect) -> (String, Vec<Value>) {
    let LayerStore::SeparableRaw {
        table,
        x_affine,
        y_affine,
        obj_w,
        obj_h,
        ..
    } = store
    else {
        panic!("the LoD app's layers are all separable");
    };
    let inv = |a: &kyrix_expr::Affine, v: f64| a.invert(v).expect("placement scale is not zero");
    let (x0, x1) = (
        inv(x_affine, rect.min_x - obj_w / 2.0),
        inv(x_affine, rect.max_x + obj_w / 2.0),
    );
    let (y0, y1) = (
        inv(y_affine, rect.min_y - obj_h / 2.0),
        inv(y_affine, rect.max_y + obj_h / 2.0),
    );
    (
        format!("SELECT * FROM {table} WHERE bbox && rect($1, $2, $3, $4)"),
        [x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)]
            .map(Value::Float)
            .to_vec(),
    )
}

/// Replay one step down the stack. `parent` is the step's `client.step`
/// span. Returns the cold and warm `fetch_region` times, for the client's
/// self time.
pub fn call_down(
    world: &World,
    log: &mut SpanLog,
    sums: &mut CallDown,
    op: usize,
    step: &Step,
    parent: Option<usize>,
) -> (u64, u64) {
    let server = &world.server;
    let canvas = world.lod.level_canvas(step.level);
    let rect = world.viewport_rect(step.level, step.cx, step.cy);
    let fetch = || {
        server
            .fetch_region(&canvas, 0, &rect)
            .expect("replayed fetch_region succeeds")
    };
    server.clear_caches();
    let (region, _) = log.time("server.fetch_region", parent, op, fetch);
    let (warm, _) = log.time("server.fetch_region.warm", parent, op, fetch);
    let (cold_ns, warm_ns) = (log.spans[region].ns(), log.spans[warm].ns());

    // what fetch_region did beneath: one fetch_rect per covering tile
    // under a tile plan, one for the exact box otherwise
    let store = world.store(step.level);
    let rects: Vec<Rect> = match server.plan_for(&canvas, 0).expect("level has a plan") {
        FetchPlan::StaticTiles { size, .. } => {
            let tiling = Tiling::new(size);
            tiling
                .covering(&rect)
                .expect("a viewport covers a handful of tiles")
                .into_iter()
                .map(|t| tiling.tile_rect(t))
                .collect()
        }
        FetchPlan::DynamicBox { .. } => vec![rect],
    };
    let view = server.snapshot();
    let mut rect_ns = 0;
    for r in &rects {
        let (fr, _) = log.time("server.fetch_rect", Some(region), op, || {
            fetch_rect(&*view, &store, r).expect("replayed fetch_rect succeeds")
        });
        rect_ns += log.spans[fr].ns();

        let (sql, params) = fetch_query(&store, r);
        let (vq, _) = log.time("view.query", Some(fr), op, || {
            view.query(&sql, &params).expect("replayed query succeeds")
        });
        sums.rect_calls += 1;
        sums.rect_self_ns += self_time_ns(log.spans[fr].ns(), log.spans[vq].ns());

        // beneath the view: each routed shard's own database
        let targets = match &world.router {
            Some(router) => {
                let stmt = kyrix_storage::sql::parse(&sql).expect("fetch SQL parses");
                router.targets(&stmt, &params)
            }
            None => vec![0],
        };
        sums.targets += targets.len() as u64;
        sums.single_target += u64::from(targets.len() == 1);
        let mut slowest = 0;
        for shard in targets {
            let db = &world.shadow[shard];
            let (p, prepared) = log.time("storage.prepare", Some(vq), op, || {
                db.prepare(&sql).expect("fetch SQL prepares")
            });
            let (e, result) = log.time("storage.execute", Some(vq), op, || {
                db.execute(&prepared, &params).expect("fetch SQL executes")
            });
            let (p_ns, e_ns) = (log.spans[p].ns(), log.spans[e].ns());
            sums.shard_queries += 1;
            sums.prepare_ns += p_ns;
            sums.execute_ns += e_ns;
            sums.exec.merge(&result.stats);
            slowest = slowest.max(p_ns + e_ns);
        }
        sums.view_self_ns += self_time_ns(log.spans[vq].ns(), slowest);
    }
    sums.ops += 1;
    sums.region_cold_ns += cold_ns;
    sums.region_warm_ns += warm_ns;
    sums.region_self_ns += self_time_ns(cold_ns, rect_ns);
    (cold_ns, warm_ns)
}

/// Record the workload's own interactions as `client.step` spans; returns
/// the span index of the first recording of each step of tour 0.
pub fn record_steps(
    log: &mut SpanLog,
    samples: &[StepSample],
    tour_len: usize,
) -> Vec<Option<usize>> {
    let mut first = vec![None; tour_len];
    for s in samples {
        let id = log.record("client.step", None, s.step, s.start, s.start + s.latency);
        if s.pass == 0 && first[s.step].is_none() {
            first[s.step] = Some(id);
        }
    }
    first
}

/// Record the scheduled mutator's batches: `server.mutate` with the
/// pyramid repair inside it as `lod.repair`.
pub fn record_mutations(log: &mut SpanLog, applied: &[Applied]) {
    for (batch, a) in applied.iter().enumerate() {
        let m = log.record("server.mutate", None, batch, a.started, a.done);
        log.record(
            "lod.repair",
            Some(m),
            batch,
            a.repair_started,
            a.repair_started + a.repair,
        );
    }
}

/// p95 of reader latencies that do / do not overlap a `mutate` window.
pub fn overlap_split(samples: &[StepSample], applied: &[Applied]) -> (Vec<f64>, Vec<f64>) {
    let mut windows: Vec<(Instant, Instant)> =
        applied.iter().map(|a| (a.started, a.done)).collect();
    windows.sort();
    let (mut overlap, mut quiet) = (Vec::new(), Vec::new());
    for s in samples {
        let end = s.start + s.latency;
        // first window ending at or after the step starts
        let i = windows.partition_point(|w| w.1 < s.start);
        let hit = windows.get(i).is_some_and(|w| w.0 <= end);
        let ms = s.latency.as_secs_f64() * 1e3;
        if hit {
            overlap.push(ms);
        } else {
            quiet.push(ms);
        }
    }
    (overlap, quiet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_carry_name_times_parent_and_op() {
        let mut log = SpanLog::new();
        let (a, v) = log.time("client.step", None, 7, || 41 + 1);
        assert_eq!(v, 42);
        let (b, _) = log.time("server.fetch_region", Some(a), 7, || ());
        assert_eq!((a, b), (0, 1));
        assert_eq!(log.spans[b].parent, Some(0));
        assert_eq!(log.spans[b].op, 7);
        assert!(log.spans[a].end_ns >= log.spans[a].start_ns);
        assert!(log.spans[b].start_ns >= log.spans[a].end_ns);

        let path = output_dir().join(format!("trace-unit-test-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let j = kyrix_core::parse_json(line).expect("each line is a JSON object");
            for key in ["id", "name", "start_ns", "end_ns", "parent", "op"] {
                assert!(j.get(key).is_some(), "span line lacks `{key}`: {line}");
            }
        }
    }

    #[test]
    fn reader_steps_split_by_overlap_with_a_mutation_window() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let applied = [Applied {
            due: at(100),
            started: at(100),
            done: at(120),
            repair_started: at(101),
            repair: Duration::from_millis(15),
            rows_changed: 0,
        }];
        let sample = |start: u64, len: u64| StepSample {
            pass: 0,
            step: 0,
            start: at(start),
            latency: Duration::from_millis(len),
            queries: 0,
            fetched: false,
        };
        let samples = [
            sample(10, 5),   // long before
            sample(95, 10),  // straddles the start
            sample(105, 2),  // inside
            sample(119, 30), // straddles the end
            sample(121, 1),  // just after
        ];
        let (overlap, quiet) = overlap_split(&samples, &applied);
        assert_eq!(overlap, [10.0, 2.0, 30.0]);
        assert_eq!(quiet, [5.0, 1.0]);
    }
}
