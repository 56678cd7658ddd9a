//! The four interaction workloads and the loop that measures them.
//!
//! Every workload is a closed loop with zero think time: a Kyrix user
//! waits for a frame before the next pan. The measured phase is a whole
//! number of *passes*; a pass plays the seed's tour once (see
//! [`crate::walk`]), so each pass is a complete, comparable sample and a
//! run reports the **median over its passes** of every per-pass number —
//! one disturbed pass cannot move the result.

use crate::check::{self, Oracle, TableSignature};
use crate::drive::{Caches, Client, ClientCounts};
use crate::mutate::{self, Mutator, ScheduleLog};
use crate::stats::{mean, median, percentile, sorted};
use crate::walk::{tour, tour_hash, Fnv, Step, WalkSpec};
use crate::world::{build_world, Backend, Scale, World};
use kyrix_lod::LodPyramid;
use kyrix_storage::Rect;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZoomCold,
    PanWarm,
    MutateMix,
    ShardCold,
}

pub const ALL: [Workload; 4] = [
    Workload::ZoomCold,
    Workload::PanWarm,
    Workload::MutateMix,
    Workload::ShardCold,
];

/// `pan_warm`'s second session replays the first one's path this many
/// steps behind.
pub const FOLLOW_LAG: usize = 64;

/// How a workload plays its tour.
pub struct Plan {
    pub scale: Scale,
    pub backend: Backend,
    pub stations: usize,
    pub walk: WalkSpec,
    pub caches: Caches,
    /// Output checks run after every this-many-th step: every step where a
    /// step costs milliseconds, every 8th where it costs microseconds and
    /// the check would outweigh the work measured.
    pub check_every: usize,
    /// Brute-force comparison every 64th step (off where a writer changes
    /// the data under the reader).
    pub oracle: bool,
    /// A second session follows the first [`FOLLOW_LAG`] steps behind.
    pub follower: bool,
    /// Every tile of the tiled levels is fetched once before the warm-up,
    /// so the backend cache holds the whole working set and storage idles.
    pub prefill: bool,
    /// A 20 Hz mutator runs beside the reader.
    pub mutator: bool,
    /// Passes played before measuring, so caches are as full as they get.
    pub warmup_passes: usize,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZoomCold => "zoom_cold",
            Workload::PanWarm => "pan_warm",
            Workload::MutateMix => "mutate_mix",
            Workload::ShardCold => "shard_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` of BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ZoomCold => {
                "million points, caches cleared before every step: each interaction pays \
                 parse, plan, R-tree, heap decode and merge; storage does the work"
            }
            Workload::PanWarm => {
                "131k points, small pans on the tiled levels, caches kept: frontend and \
                 backend caches do the work, storage idles; storage changes must not show"
            }
            Workload::MutateMix => {
                "warm zoom walk beside a 20 Hz insert/delete mutator: pyramid repair, \
                 copy-on-write publish, invalidation and refetch; writes taxing reads show"
            }
            Workload::ShardCold => {
                "zoom_cold's exact tour on a 2x2 sharded backend: the difference to \
                 zoom_cold is the price of routing, scatter and coordinator merge"
            }
        }
    }

    pub fn plan(self, smoke: bool) -> Plan {
        // half-viewport jumps in any direction: with the caches cleared
        // only the positions matter, not the path between them
        let zoom = WalkSpec {
            finest: 0,
            steps_per_segment: 3,
            step_frac: 0.5,
            max_turn: std::f64::consts::PI,
        };
        // a drag: eighth-viewport pans along a gently curving line, so
        // most viewports stay inside what the frontend already holds
        let drag = WalkSpec {
            finest: 0,
            steps_per_segment: 8,
            step_frac: 1.0 / 8.0,
            max_turn: 0.35,
        };
        let cold = Plan {
            scale: Scale::million(),
            backend: Backend::SingleNode,
            stations: 48,
            walk: zoom,
            caches: Caches::ClearedEachStep,
            check_every: 1,
            oracle: true,
            follower: false,
            prefill: false,
            mutator: false,
            warmup_passes: 0,
        };
        let mut plan = match self {
            Workload::ZoomCold => cold,
            Workload::ShardCold => Plan {
                backend: Backend::Grid2x2,
                ..cold
            },
            // the raw level's exact boxes refetch on every pan by design;
            // staying on the tiled levels is what keeps storage idle here
            Workload::PanWarm => Plan {
                scale: Scale::e2e(),
                stations: 32,
                walk: WalkSpec { finest: 1, ..drag },
                caches: Caches::Kept,
                check_every: 8,
                follower: true,
                prefill: true,
                warmup_passes: 1,
                ..cold
            },
            Workload::MutateMix => Plan {
                scale: Scale::e2e(),
                stations: 48,
                walk: drag,
                caches: Caches::Kept,
                check_every: 8,
                oracle: false,
                mutator: true,
                warmup_passes: 1,
                ..cold
            },
        };
        if smoke {
            plan.scale = Scale::tiny();
            plan.stations = 12;
            plan.walk.steps_per_segment = plan.walk.steps_per_segment.min(8);
        }
        plan
    }
}

/// When the measured phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole passes while the next one still fits (at least one).
    Seconds(f64),
    /// Exactly this many passes (tests, where counts must repeat).
    Passes(usize),
}

/// Per-pass latency summary.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    pub interactions: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Clients x interactions / summed latency: the closed-loop service
    /// rate. Carries the mean, so rare huge outliers still register.
    pub per_s: f64,
    pub mean_ms: f64,
}

impl PassStats {
    pub fn of(latencies_ms: Vec<f64>) -> Self {
        let s = sorted(latencies_ms);
        let total_ms: f64 = s.iter().sum();
        PassStats {
            interactions: s.len(),
            p50_ms: percentile(&s, 0.50),
            p95_ms: percentile(&s, 0.95),
            p99_ms: percentile(&s, 0.99),
            per_s: s.len() as f64 / (total_ms / 1e3).max(1e-12),
            mean_ms: mean(&s),
        }
    }
}

/// One interaction kept by a traced run.
#[derive(Debug, Clone, Copy)]
pub struct StepSample {
    /// Which tour of the seed, and the index into it.
    pub pass: usize,
    pub step: usize,
    pub start: Instant,
    pub latency: Duration,
    /// Backend queries the interaction issued (0: served from a cache).
    pub queries: u64,
    /// Whether the interaction went to the server at all.
    pub fetched: bool,
}

/// What a measured phase produced.
pub struct Measured {
    pub passes: Vec<PassStats>,
    pub counts: ClientCounts,
    pub errors: Vec<String>,
    /// Checksum of the visible ids of every step of the first pass.
    pub checksum: u64,
    pub tour_hash: u64,
    pub tour_len: usize,
    pub schedule: Option<ScheduleLog>,
    /// Every measured interaction, in order (kept only when asked).
    pub samples: Vec<StepSample>,
    pub elapsed: Duration,
}

impl Measured {
    pub fn median_of(&self, f: impl Fn(&PassStats) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }
}

/// Tour number `pass` of a seed for a plan over a built world.
pub fn plan_tour(plan: &Plan, world: &World, seed: u64, pass: usize) -> Vec<Step> {
    tour(
        &plan.scale.geometry(),
        &plan.walk,
        world.stations(plan.stations),
        seed,
        pass,
    )
}

/// Set-ups of one run: at most this many, …
const MAX_SETUPS: usize = 5;
/// … and no further one once this many seconds have gone into them.
const SETUP_BUDGET_S: f64 = 6.0;

/// Steps of one station's cycle.
pub fn cycle_len(plan: &Plan) -> usize {
    (2 * (plan.scale.levels - plan.walk.finest) + 1) * plan.walk.steps_per_segment
}

/// Set up the plan's world, repeatedly while the repeats are cheap — up to
/// [`MAX_SETUPS`] times, stopping once another would push the total past
/// [`SETUP_BUDGET_S`] — keeping the last world and every total, so
/// `setup_s` can be their median.
pub fn setup(plan: &Plan) -> (World, LodPyramid, Vec<f64>) {
    let started = Instant::now();
    let mut totals = Vec::new();
    loop {
        let built = build_world(plan.scale, plan.backend);
        let last = built.0.times.total_s;
        totals.push(last);
        if totals.len() == MAX_SETUPS || started.elapsed().as_secs_f64() + last > SETUP_BUDGET_S {
            return (built.0, built.1, totals);
        }
        // the world just built is dropped before the next one is made
    }
}

/// Play the measured phase of a plan.
pub fn measure(
    plan: &Plan,
    world: &World,
    pyramid: &mut LodPyramid,
    seed: u64,
    budget: Budget,
    keep_samples: bool,
) -> Measured {
    let oracle = plan.oracle.then(|| Oracle::build(world));
    let before: Option<Vec<TableSignature>> = plan.mutator.then(|| check::table_signatures(world));

    let t0 = Instant::now();
    if plan.prefill {
        prefill_tiles(plan, world);
    }
    let mut reader = Reader::new(plan, world, seed, oracle.as_ref(), keep_samples);
    for _ in 0..plan.warmup_passes {
        reader.pass(false);
    }
    // the server's counts cover the measured passes only
    world.server.reset_totals();

    let stop = AtomicBool::new(false);
    let mut schedule = None;
    std::thread::scope(|scope| {
        let writer = plan.mutator.then(|| {
            let stop = &stop;
            scope.spawn(move || {
                let mut mutator = Mutator::new(world, pyramid, seed);
                mutate::run_schedule(&mut mutator, stop)
            })
        });
        loop {
            let pass_started = Instant::now();
            reader.pass(true);
            let last = pass_started.elapsed();
            let done = match budget {
                Budget::Passes(n) => reader.passes.len() >= n,
                Budget::Seconds(s) => (t0.elapsed() + last).as_secs_f64() > s,
            };
            if done {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(w) = writer {
            schedule = Some(w.join().expect("mutator thread panicked"));
        }
    });
    let elapsed = t0.elapsed();

    let Reader {
        clients,
        passes,
        checksum,
        samples,
        tour_hash,
        tour_len,
        ..
    } = reader;
    let mut counts = ClientCounts::default();
    let mut errors = Vec::new();
    for c in clients {
        let (cc, ce) = c.finish();
        counts.add(&cc);
        errors.extend(ce);
    }
    if let Some(log) = &schedule {
        errors.extend(log.errors.iter().cloned());
    }
    if let Some(before) = before {
        errors.extend(check::signatures_restored(
            &before,
            &check::table_signatures(world),
        ));
    }
    Measured {
        passes,
        counts,
        errors,
        checksum: checksum.finish(),
        tour_hash,
        tour_len,
        schedule,
        samples,
        elapsed,
    }
}

/// Fetch every tile of every level the walk visits above the raw level.
fn prefill_tiles(plan: &Plan, world: &World) {
    let tile = plan.scale.viewport.0;
    for k in plan.walk.finest.max(1)..=plan.scale.levels {
        let (w, h) = world.lod.level_size(k);
        let canvas = world.lod.level_canvas(k);
        for ty in 0..(h / tile).ceil() as usize {
            for tx in 0..(w / tile).ceil() as usize {
                let rect = Rect::new(
                    tx as f64 * tile,
                    ty as f64 * tile,
                    (tx + 1) as f64 * tile,
                    (ty + 1) as f64 * tile,
                );
                world
                    .server
                    .fetch_region(&canvas, 0, &rect)
                    .expect("tile prefill fetches");
            }
        }
    }
}

/// The reading side of a run: one thread, one or two sessions.
struct Reader<'a> {
    plan: &'a Plan,
    world: &'a World,
    seed: u64,
    oracle: Option<&'a Oracle>,
    /// The leader, then (pan_warm) the follower.
    clients: Vec<Client<'a>>,
    /// Tours played so far, warm-up included: the next pass plays this one.
    tours_played: usize,
    /// The previous pass's tour: the follower finishes it while the
    /// leader starts the next.
    previous: Vec<Step>,
    /// Hash and length of the first measured pass's tour.
    tour_hash: u64,
    tour_len: usize,
    passes: Vec<PassStats>,
    checksum: Fnv,
    keep_samples: bool,
    samples: Vec<StepSample>,
}

impl<'a> Reader<'a> {
    fn new(
        plan: &'a Plan,
        world: &'a World,
        seed: u64,
        oracle: Option<&'a Oracle>,
        keep_samples: bool,
    ) -> Self {
        let n_clients = if plan.follower { 2 } else { 1 };
        Reader {
            plan,
            world,
            seed,
            oracle,
            clients: (0..n_clients)
                .map(|_| Client::new(world, plan.caches))
                .collect(),
            tours_played: 0,
            previous: Vec::new(),
            tour_hash: 0,
            tour_len: 0,
            passes: Vec::new(),
            checksum: Fnv::new(),
            keep_samples,
            samples: Vec::new(),
        }
    }

    /// Play the next tour once. A measured pass keeps its latencies; the
    /// first measured pass also folds every step's visible ids into the
    /// checksum. Measured passes play tours 0, 1, 2, …; warm-up passes play
    /// tours of their own, numbered from the far end.
    fn pass(&mut self, measured: bool) {
        let number = if measured {
            self.passes.len()
        } else {
            usize::MAX - self.tours_played
        };
        let steps = plan_tour(self.plan, self.world, self.seed, number);
        let first = measured && self.passes.is_empty();
        if first {
            (self.tour_hash, self.tour_len) = (tour_hash(&steps), steps.len());
        }
        let n = steps.len();
        let mut latencies = Vec::with_capacity(n * self.clients.len());
        for i in 0..n {
            // the follower replays the leader's path FOLLOW_LAG steps
            // behind, finishing the previous tour first
            let follower_step = match i.checked_sub(FOLLOW_LAG) {
                Some(j) => steps.get(j),
                None => self
                    .previous
                    .get(self.previous.len().wrapping_sub(FOLLOW_LAG - i)),
            };
            let turns = [Some((i, &steps[i])), follower_step.map(|s| (i, s))];
            for (who, (client, turn)) in self.clients.iter_mut().zip(turns).enumerate() {
                let Some((index, step)) = turn else { continue };
                let played = client.play(step);
                if index % self.plan.check_every == 0 {
                    let checksum = (first && who == 0).then_some(&mut self.checksum);
                    client.check(index, step, self.oracle, checksum);
                }
                if let (true, Some(p)) = (measured, played) {
                    latencies.push(p.latency.as_secs_f64() * 1e3);
                    if self.keep_samples && who == 0 {
                        self.samples.push(StepSample {
                            pass: number,
                            step: index,
                            start: p.start,
                            latency: p.latency,
                            queries: p.report.fetch.queries,
                            fetched: p.report.fetch.requests > 0,
                        });
                    }
                }
            }
        }
        if measured {
            self.passes.push(PassStats::of(latencies));
        }
        self.tours_played += 1;
        self.previous = steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes;
    use crate::trace::{call_down, CallDown, SpanLog};

    /// Everything countable about a two-pass smoke run of a workload.
    #[derive(Debug, PartialEq)]
    struct Counted {
        client: ClientCounts,
        checksum: u64,
        tour_hash: u64,
        requests: u64,
        queries: u64,
        rows: u64,
        bytes: u64,
        backend_hits: u64,
        backend_misses: u64,
        shard_targets: u64,
        single_target: u64,
        rows_rewritten: usize,
    }

    fn counted(w: Workload, seed: u64) -> Counted {
        let plan = w.plan(true);
        let (world, mut pyramid) = build_world(plan.scale, plan.backend);
        let m = measure(&plan, &world, &mut pyramid, seed, Budget::Passes(2), false);
        assert_eq!(m.errors, Vec::<String>::new(), "{} output checks", w.name());
        assert_eq!(m.counts.missed, 0);
        assert_eq!(m.passes.len(), 2);
        let totals = world.server.totals();
        let cache = world.server.backend_cache_stats();
        let (mut log, mut sums) = (SpanLog::new(), CallDown::default());
        for (i, step) in plan_tour(&plan, &world, seed, 0).iter().enumerate() {
            call_down(&world, &mut log, &mut sums, i, step, None);
        }
        let probe = probes::mutation_probe(&world, &mut pyramid, seed, 2, Duration::ZERO)
            .expect("probe applies");
        Counted {
            // latency sums are times, not counts
            client: ClientCounts {
                frontend_only_ns: 0,
                ..m.counts
            },
            checksum: m.checksum,
            tour_hash: m.tour_hash,
            requests: totals.requests,
            queries: totals.queries,
            rows: totals.rows,
            bytes: totals.bytes,
            backend_hits: cache.hits,
            backend_misses: cache.misses,
            shard_targets: sums.targets,
            single_target: sums.single_target,
            rows_rewritten: probe.iter().map(|a| a.rows_changed).sum(),
        }
    }

    #[test]
    fn counts_of_the_single_thread_workloads_repeat_exactly() {
        for w in [Workload::ZoomCold, Workload::PanWarm, Workload::ShardCold] {
            let (a, b) = (counted(w, 42), counted(w, 42));
            assert_eq!(a, b, "{} counts differ between two runs", w.name());
            assert!(a.client.interactions > 0 && a.requests > 0 && a.rows_rewritten > 0);
            assert_ne!(a.tour_hash, counted(w, 7).tour_hash);
        }
    }

    #[test]
    fn the_sharded_backend_shows_what_the_single_node_shows() {
        let (single, sharded) = (
            counted(Workload::ZoomCold, 42),
            counted(Workload::ShardCold, 42),
        );
        assert_eq!(single.checksum, sharded.checksum);
        assert_eq!(single.tour_hash, sharded.tour_hash);
        assert_eq!(single.rows, sharded.rows);
        // a single node routes every query to its one database
        assert_eq!(single.shard_targets, single.single_target);
        assert!(sharded.shard_targets > sharded.single_target);
    }

    #[test]
    fn pan_warm_leaves_storage_idle_and_mutate_mix_restores_the_data() {
        let warm = counted(Workload::PanWarm, 42);
        assert_eq!(
            warm.queries, 0,
            "a prefetched tile cache answers every miss"
        );
        assert!(warm.client.frontend_hits > warm.client.frontend_misses);

        let plan = Workload::MutateMix.plan(true);
        let (world, mut pyramid) = build_world(plan.scale, plan.backend);
        let m = measure(&plan, &world, &mut pyramid, 42, Budget::Passes(3), false);
        // the level-table signature check is among the errors if it failed
        assert_eq!(m.errors, Vec::<String>::new());
        let log = m.schedule.expect("mutate_mix runs a mutator");
        assert!(!log.applied.is_empty() && log.applied.len().is_multiple_of(2));
    }

    #[test]
    fn a_seconds_budget_plays_whole_passes_and_at_least_one() {
        let plan = Workload::ZoomCold.plan(true);
        let (world, mut pyramid) = build_world(plan.scale, plan.backend);
        let m = measure(&plan, &world, &mut pyramid, 1, Budget::Seconds(1e-6), false);
        assert_eq!(m.passes.len(), 1);
        assert_eq!(m.passes[0].interactions, m.tour_len);
        assert_eq!(m.tour_len, plan.stations * cycle_len(&plan));
    }

    #[test]
    fn a_wrong_answer_is_caught_by_the_oracle() {
        let plan = Workload::ZoomCold.plan(true);
        let (world, _) = build_world(plan.scale, plan.backend);
        let oracle = Oracle::build(&world);
        let step = plan_tour(&plan, &world, 3, 0)[0];
        let mut client = Client::new(&world, plan.caches);
        client.play(&step).expect("step plays");
        client.check(0, &step, Some(&oracle), None);
        assert_eq!(client.counts.missed, 0);
        // the same session checked against a viewport it is not showing
        let elsewhere = Step {
            cx: step.cx + 300.0,
            ..step
        };
        client.check(0, &elsewhere, Some(&oracle), None);
        assert_eq!(client.counts.missed, 1);
        assert!(!client.errors.is_empty());
    }
}
