//! Memory budget of a pyramid build and of the maintenance state it
//! leaves, under a counting allocator (requested bytes; they repeat
//! exactly), on `GalaxyConfig::e2e()` — 131,072 points, three levels,
//! spacing 24, both measures: the benchmark's `pan_warm` / `mutate_mix`
//! world. One node and a 2x2 shard grid, in one test because the counting
//! `#[global_allocator]` sees every thread of the process.
//!
//! The same binary run at the parent of the commit that introduced it
//! (three hash maps per level — candidates, statuses, outputs — and a
//! heap `Vec<f64>` of sums behind every cluster) measured, per raw point:
//!
//! | | maintenance state | build allocations | peak live ÷ final live |
//! |---|---|---|---|
//! | parent, one node | 538.0 B | 10.62 | 1.023 |
//! | parent, 2x2 | 538.0 B | 11.50 | 1.023 |
//! | one record per cell, one node | 308.1 B | 3.32 | 1.008 |
//! | one record per cell, 2x2 | 308.1 B | 4.20 | 1.003 |
//!
//! The budget is 0.7 x the parent's state, 8 allocations a point, and a
//! build whose peak is its end state (+ 5 %): no cloned candidate map, no
//! rehash beside the previous level's outputs.

use kyrix_lod::{build_pyramid, build_pyramid_on_shards, Cluster, LodConfig, LodPyramid};
use kyrix_parallel::Partitioner;
use kyrix_storage::Database;
use kyrix_workload::{galaxy_rows, galaxy_schema, index_galaxy, GalaxyConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting the allocations it hands out (a
/// `realloc` that may move counts as one), the requested bytes live, and
/// their high-water mark.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counters touch no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The parent's maintenance state on this dataset, bytes per raw point
/// (the table above).
const PARENT_STATE_BYTES_PER_POINT: f64 = 538.0;

/// What one build cost and left.
#[derive(Debug)]
struct Footprint {
    /// Live bytes when the build returned (databases included).
    final_live: usize,
    /// High-water mark of live bytes while it ran.
    peak_live: usize,
    /// Allocations it made.
    allocations: u64,
    /// Live bytes the pyramid's drop gave back: the maintenance state.
    state: usize,
}

/// Run `build` (no other thread allocates meanwhile: one test), then drop
/// what it built.
fn footprint(build: impl FnOnce() -> LodPyramid) -> Footprint {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let pyramid = build();
    let final_live = LIVE.load(Ordering::Relaxed);
    let made = Footprint {
        final_live,
        peak_live: PEAK.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        state: 0,
    };
    let report = pyramid.memory_report().expect("a fresh build can maintain");
    drop(pyramid);
    let state = final_live - LIVE.load(Ordering::Relaxed);
    // the in-tree report accounts for what the allocator saw go
    let reported = report.total_bytes() as f64;
    assert!(
        (reported / state as f64 - 1.0).abs() < 0.02,
        "memory_report says {reported} B, dropping the pyramid freed {state} B"
    );
    Footprint { state, ..made }
}

fn assert_within_budget(what: &str, f: &Footprint, points: usize) {
    let n = points as f64;
    println!(
        "{what}: state {:.1} B/point, {:.2} allocations/point, peak {:.3} x final ({f:?})",
        f.state as f64 / n,
        f.allocations as f64 / n,
        f.peak_live as f64 / f.final_live as f64
    );
    assert!(
        f.state as f64 / n <= 0.7 * PARENT_STATE_BYTES_PER_POINT,
        "{what}: maintenance state is {:.1} B a raw point, budget {:.1}",
        f.state as f64 / n,
        0.7 * PARENT_STATE_BYTES_PER_POINT
    );
    assert!(
        f.peak_live as f64 <= f.final_live as f64 * 1.05,
        "{what}: the build peaked at {} B live and ended at {}: a transient above the end state",
        f.peak_live,
        f.final_live
    );
    assert!(
        f.allocations as f64 <= 8.0 * n,
        "{what}: {} allocations for {points} raw points, budget 8 a point",
        f.allocations
    );
}

#[test]
fn a_build_stays_inside_its_state_peak_and_allocation_budgets() {
    let g = GalaxyConfig::e2e();
    let cfg = LodConfig::new("galaxy", g.width, g.height, 3)
        .with_measure("mass")
        .with_measure("lum")
        .with_spacing(24.0);

    // a cluster carrying the config's measures owns no heap allocation
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut c = Cluster::from_point(1, 2.0, 3.0, &[4.0; 2]);
    c.merge(&c.clone());
    assert_eq!(c.count, 2);
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        0,
        "a {}-measure cluster allocated",
        cfg.measures.len()
    );

    // one node
    let mut db = Database::new();
    db.create_table("galaxy", galaxy_schema()).unwrap();
    for row in galaxy_rows(&g) {
        db.insert("galaxy", row).unwrap();
    }
    index_galaxy(&mut db).unwrap();
    let single = footprint(|| build_pyramid(&mut db, &cfg).unwrap());
    assert_within_budget("one node", &single, g.n);
    drop(db);

    // the same points on a 2x2 grid: the state is the coordinator's, and
    // the same
    let part = Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols: 2,
        rows: 2,
        width: g.width,
        height: g.height,
    };
    let schema = galaxy_schema();
    let mut shards: Vec<Database> = (0..4)
        .map(|_| {
            let mut db = Database::new();
            db.create_table("galaxy", schema.clone()).unwrap();
            db
        })
        .collect();
    for row in galaxy_rows(&g) {
        let s = part.route(&schema, &row, 4).unwrap();
        shards[s].insert("galaxy", row).unwrap();
    }
    for db in &mut shards {
        index_galaxy(db).unwrap();
    }
    let sharded = footprint(|| build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap());
    assert_within_budget("2x2 grid", &sharded, g.n);
    // (a sharded pyramid also owns its router: a few hundred bytes)
    assert!(
        sharded.state.abs_diff(single.state) < 4096,
        "coordinator-side state is {} B, one node's {}",
        sharded.state,
        single.state
    );
}
