//! Fixed-size probes of single layers, run beside the workloads: back to
//! back mutation batches, bare pyramid maintenance, an empty publish,
//! frame rendering, and the telemetry primitives.

use crate::drive::{Caches, Client};
use crate::mutate::{fold, fresh_batch, Applied, Mutator};
use crate::walk::{Rng, Step};
use crate::world::World;
use kyrix_lod::LodPyramid;
use kyrix_obs::Registry;
use std::time::{Duration, Instant};

/// The closed-loop mutation probe applies at least this many insert/delete
/// pairs, and keeps going until it has run for this share of the measured
/// phase (1 s of the default 15): 8 pairs on the million-point set, some 40
/// on the 131k one — a median of 16 batches, half inserts and half
/// deletes, was seen to wander by 12 % there.
pub const PROBE_MIN_PAIRS: usize = 8;
pub const PROBE_TIME_SHARE: f64 = 1.0 / 15.0;

/// `VmHWM` of this process, in MB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Insert/delete pairs through the server, back to back with no reader
/// running — each batch is due the moment the previous one published —
/// until `min_pairs` are done and `min_time` has passed.
pub fn mutation_probe(
    world: &World,
    pyramid: &mut LodPyramid,
    seed: u64,
    min_pairs: usize,
    min_time: Duration,
) -> Result<Vec<Applied>, String> {
    let mut mutator = Mutator::new(world, pyramid, seed);
    let started = Instant::now();
    let mut applied = Vec::new();
    while applied.len() < min_pairs * 2 || started.elapsed() < min_time {
        for _ in 0..2 {
            applied.push(
                mutator
                    .apply_next(Instant::now())
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    Ok(applied)
}

/// Mean milliseconds of an insert batch and of a delete batch folded into
/// the pyramid on a bare database — no server, no publish. The first pair
/// is not timed: it pays the scratch copy's one-off table copies.
pub fn bare_batches(
    world: &World,
    pyramid: &mut LodPyramid,
    seed: u64,
    pairs: usize,
) -> (f64, f64) {
    let mut scratch = world.shadow.clone();
    let mut rng = Rng::new(seed ^ 0x6261_7265);
    let extent = (world.scale.galaxy.width, world.scale.galaxy.height);
    let (mut insert_ms, mut delete_ms) = (0.0, 0.0);
    for round in 0..=pairs {
        let points = fresh_batch(&mut rng, extent, round as u64);
        let ids: Vec<i64> = points.iter().map(|p| p.id).collect();
        let t = Instant::now();
        fold(pyramid, &mut scratch, true, &points, &ids).expect("bare insert batch folds");
        let inserted = t.elapsed();
        let t = Instant::now();
        fold(pyramid, &mut scratch, false, &[], &ids).expect("bare delete batch folds");
        let deleted = t.elapsed();
        if round > 0 {
            insert_ms += inserted.as_secs_f64() * 1e3;
            delete_ms += deleted.as_secs_f64() * 1e3;
        }
    }
    (insert_ms / pairs as f64, delete_ms / pairs as f64)
}

/// Mean microseconds of a mutation whose closure changes nothing: the
/// copy-on-write begin plus the publish, with nothing to repair or evict.
pub fn mutate_noop_us(world: &World, n: usize) -> f64 {
    let tables: Vec<String> = (0..=world.lod.levels)
        .map(|k| world.lod.level_table(k))
        .collect();
    let tables: Vec<&str> = tables.iter().map(String::as_str).collect();
    let t = Instant::now();
    for _ in 0..n {
        world
            .server
            .mutate_shards(&tables, |_| Ok(((), Vec::new())))
            .expect("an empty mutation publishes");
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Play `steps` with a fresh client (caches kept) and render the frame
/// after each: mean frame milliseconds and mean marks per frame.
pub fn render_frames(world: &World, steps: &[Step]) -> (f64, f64) {
    let mut client = Client::new(world, Caches::Kept);
    let (mut frames, mut ms, mut marks) = (0u32, 0.0, 0u64);
    for step in steps {
        let Some(played) = client.play(step) else {
            continue;
        };
        if let Some(frame) = client.render_frame() {
            frames += 1;
            ms += frame.as_secs_f64() * 1e3;
            marks += played.report.visible_rows as u64;
        }
    }
    let n = f64::from(frames.max(1));
    (ms / n, marks as f64 / n)
}

/// Nanoseconds to open and close one `Registry::span`.
pub fn span_ns() -> f64 {
    const N: u32 = 200_000;
    let reg = Registry::new();
    let t = Instant::now();
    for _ in 0..N {
        let _span = std::hint::black_box(reg.span("benchmark.probe"));
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Mean milliseconds of rendering the server's whole registry as JSON.
pub fn telemetry_json_ms(world: &World) -> f64 {
    const N: u32 = 5;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(world.server.telemetry_json());
    }
    t.elapsed().as_secs_f64() * 1e3 / f64::from(N)
}
