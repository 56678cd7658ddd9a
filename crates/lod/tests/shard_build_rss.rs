//! What a 2x2 pyramid build leaves resident beyond what it leaves live.
//!
//! The build runs on `GalaxyConfig::e2e()` (131,072 points, three levels,
//! spacing 24, both measures) split over a 2x2 shard grid. The test reads
//! the process's resident set (`VmRSS` in `/proc/self/status`) and the
//! live bytes of a counting allocator before and after
//! `build_pyramid_on_shards`. The growth of the resident set must stay
//! within [`FACTOR`] times the growth of live bytes, plus [`SLACK`].
//!
//! Memory a build frees is resident still, but the next allocation of the
//! same thread reuses it. Memory freed on a thread of its own, in that
//! thread's allocator arena, is reused by no later allocation of the
//! caller: it is resident and dead. This is one `#[test]` in its own test
//! binary, so the process sees no build but this one.
//!
//! Resident growth ÷ live growth over the build, the same in the dev and
//! release profiles on a 2-core x86-64 Linux host with glibc:
//!
//! | build | resident growth | live growth | ratio |
//! |---|---|---|---|
//! | one node (`build_pyramid`, in a process of its own) | 53.6 MB | 58.4 MB | 0.92 |
//! | 2x2, a thread per shard for the level-1 fold | 78.7 MB | 58.5 MB | 1.35 |
//! | 2x2, the level-1 fold on the calling thread | 55.9 MB | 58.5 MB | 0.96 |
//!
//! [`FACTOR`] is one node's ratio rounded up to 1; where `/proc` is absent
//! the test says so and passes.

use kyrix_lod::{build_pyramid_on_shards, LodConfig};
use kyrix_parallel::Partitioner;
use kyrix_storage::Database;
use kyrix_workload::{galaxy_rows, galaxy_schema, index_galaxy, GalaxyConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the requested bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Resident growth allowed per byte of live growth: one node's ratio
/// (table above), rounded up to 1.
const FACTOR: f64 = 1.0;

/// Resident growth allowed beside [`FACTOR`]: page rounding and the
/// allocator's own bookkeeping.
const SLACK: usize = 4 << 20;

/// This process's resident set in bytes, `None` where `/proc` is absent.
fn resident_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn a_2x2_build_leaves_no_more_resident_than_live() {
    if resident_bytes().is_none() {
        println!("no /proc/self/status on this host: the resident set cannot be read");
        return;
    }
    let g = GalaxyConfig::e2e();
    let cfg = LodConfig::new("galaxy", g.width, g.height, 3)
        .with_measure("mass")
        .with_measure("lum")
        .with_spacing(24.0);
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

    let (rss0, live0) = (resident_bytes().unwrap(), LIVE.load(Ordering::Relaxed));
    let pyramid = build_pyramid_on_shards(&mut shards, &part, &cfg).unwrap();
    let (rss1, live1) = (resident_bytes().unwrap(), LIVE.load(Ordering::Relaxed));

    let resident = rss1.saturating_sub(rss0);
    let live = live1.saturating_sub(live0);
    let mb = |b: usize| b as f64 / 1e6;
    println!(
        "2x2 build: resident +{:.1} MB, live +{:.1} MB, ratio {:.2}",
        mb(resident),
        mb(live),
        resident as f64 / live as f64
    );
    assert!(
        resident as f64 <= FACTOR * live as f64 + SLACK as f64,
        "the build grew the resident set by {:.1} MB for {:.1} MB it left live: \
         more than {FACTOR} x plus {:.1} MB, memory freed where the caller cannot reuse it",
        mb(resident),
        mb(live),
        mb(SLACK)
    );
    assert_eq!(pyramid.depth(), 4);
}
