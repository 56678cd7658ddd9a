//! Allocation budget of the fetch paths on a separable store, and the
//! deallocations a publication pays for the tiles it evicts. A cold fetch
//! allocates one buffer per fetched row from heap page to response (the
//! region merge moves a missed tile's rows, the tile cache keeps one
//! block per tile; a region none of whose tiles is cached is one fetch of
//! the viewport); a warm region builds one buffer per row it keeps; an
//! evicted tile is freed as its one block, not row by row. The worker that
//! fills a cold region's tiles allocates one buffer per tile row and a
//! handful per tile. The budgets are the same whether the one database is
//! launched directly or as the one shard of `launch_sharded` (the inline
//! path allocates nothing for routing or merge). The counting
//! `#[global_allocator]` counts per thread, so the worker's fills never
//! land in a foreground budget; a binary of its own keeps other tests'
//! threads out of the process-wide totals the fill budget reads.

use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec, TransformSpec,
};
use kyrix_parallel::QueryRouter;
use kyrix_server::{
    fetch_rect, DirtyRegion, FetchPlan, KyrixServer, LayerStore, ServerConfig, TileDesign, TileId,
    Tiling,
};
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation it hands out (a
/// `realloc` that may move counts as one) and every deallocation, per
/// thread and process-wide.
struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading them never
    // allocates, so the allocator may touch them
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static ALL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // a thread being torn down has no counters left: it counts nowhere
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counters touch no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        ALL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCATIONS);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        ALL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on the calling thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    counted(&ALLOCATIONS, f)
}

/// Deallocations `f` performs on the calling thread, as [`allocations`]
/// counts allocations.
fn deallocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    counted(&DEALLOCATIONS, f)
}

fn counted<T>(
    counter: &'static std::thread::LocalKey<Cell<u64>>,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let before = counter.get();
    let out = f();
    (out, counter.get() - before)
}

/// Allocations `f` performs on every *other* thread: the process-wide
/// count less the calling thread's.
fn allocations_elsewhere<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALL_ALLOCATIONS.load(Ordering::Relaxed);
    let (out, here) = allocations(f);
    let all = ALL_ALLOCATIONS.load(Ordering::Relaxed) - before;
    (out, all - here)
}

const TILE: f64 = 40.0;

/// Dots at every integer point of [0, 100)², spatially indexed on the
/// placement columns, served as 40-unit tiles: tile (0, 0) holds 41 x 41
/// of them — launched single-node, and as the one shard of
/// `launch_sharded`.
fn launch() -> [KyrixServer; 2] {
    let mut db = Database::new();
    db.create_table(
        "dots",
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("v", DataType::Float),
    )
    .unwrap();
    for i in 0..10_000i64 {
        db.insert(
            "dots",
            Row::new(vec![
                Value::Int(i),
                Value::Float((i % 100) as f64),
                Value::Float((i / 100) as f64),
                Value::Float((i % 7) as f64),
            ]),
        )
        .unwrap();
    }
    db.create_index(
        "dots",
        "dots_xy",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();
    let spec = AppSpec::new("grid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", 100.0, 100.0).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("main", 50.0, 50.0)
        .viewport(10.0, 10.0);
    let app = compile(&spec, &db).unwrap();
    let plan = FetchPlan::StaticTiles {
        size: TILE,
        design: TileDesign::SpatialIndex,
    };
    let (single, _) =
        KyrixServer::launch(app.clone(), db.clone(), ServerConfig::new(plan)).unwrap();
    let router = QueryRouter::new(1).unwrap();
    let one_shard =
        KyrixServer::launch_sharded(app, vec![db], router, ServerConfig::new(plan)).unwrap();
    [single, one_shard]
}

#[test]
fn cold_fetch_allocates_one_buffer_per_row() {
    for server in launch() {
        fetches_and_evictions_stay_in_budget(&server);
    }
}

fn fetches_and_evictions_stay_in_budget(server: &KyrixServer) {
    let store = server.store("main", 0).unwrap();
    assert!(matches!(store, LayerStore::SeparableRaw { .. }));
    let width = server.layout("main", 0).unwrap().unwrap().width();

    // a cold one-tile region: the decode of each row is its only
    // allocation
    let one_tile = Tiling::new(TILE).tile_rect(TileId::new(0, 0));
    let (tile, allocs) = allocations(|| server.fetch_region("main", 0, &one_tile).unwrap());
    let n = tile.rows.len() as u64;
    assert_eq!(tile.metrics.cache_misses, 1);
    assert!(n >= 1000, "tile holds {n} rows");
    assert!(
        allocs <= n + 128,
        "cold one-tile fetch_region of {n} rows made {allocs} allocations"
    );
    for row in tile.rows.iter() {
        assert_eq!(row.values.capacity(), width, "row buffers are exact");
    }

    // a cold four-tile region is one fetch of the viewport: one
    // allocation per row out, nothing merged; the worker fills the four
    // tiles afterwards with one allocation per tile row, and a handful
    // per tile
    let tiling = Tiling::new(TILE);
    let rect = Rect::new(30.0, 30.0, 50.0, 50.0);
    let tiles = tiling.covering(&rect).unwrap();
    let tile_rows: u64 = tiles
        .iter()
        .map(|&t| {
            fetch_rect(&*server.snapshot(), &store, &tiling.tile_rect(t))
                .unwrap()
                .0
                .len() as u64
        })
        .sum();
    server.clear_caches();
    let ((cold, allocs), filling) = allocations_elsewhere(|| {
        let cold = allocations(|| server.fetch_region("main", 0, &rect).unwrap());
        server.drain_prefetch().unwrap();
        cold
    });
    assert_eq!(cold.rect, rect);
    assert_eq!(cold.metrics.cache_misses, 4);
    let cold_out = cold.rows.len() as u64;
    assert!(
        allocs <= cold_out + 128,
        "cold all-miss fetch_region ({cold_out} rows out) made {allocs} allocations"
    );
    for row in cold.rows.iter() {
        assert_eq!(row.values.capacity(), width, "row buffers are exact");
    }
    assert!(
        filling <= tile_rows + 64 * tiles.len() as u64,
        "filling {} tiles of {tile_rows} rows made {filling} allocations",
        tiles.len()
    );

    // the same region with one tile warm: one allocation per row fetched
    // for the three missed tiles; the merge moves the rows it keeps
    server.clear_caches();
    server
        .fetch_region("main", 0, &tiling.tile_rect(tiles[0]))
        .unwrap();
    let (region, allocs) = allocations(|| server.fetch_region("main", 0, &rect).unwrap());
    assert_eq!(
        (region.metrics.cache_hits, region.metrics.cache_misses),
        (1, 3)
    );
    let rows_in = region.metrics.rows;
    let rows_out = region.rows.len() as u64;
    assert!(rows_out < rows_in, "straddlers were merged");
    assert!(
        allocs <= rows_in + 256,
        "fetch_region with one tile warm ({rows_in} rows in, {rows_out} out) made \
         {allocs} allocations"
    );
    for row in region.rows.iter() {
        assert_eq!(row.values.capacity(), width, "row buffers are exact");
    }

    // the same region warm: one allocation per row kept, none per row the
    // merge skips
    let (warm, allocs) = allocations(|| server.fetch_region("main", 0, &rect).unwrap());
    assert_eq!(warm.metrics.cache_hits, 4);
    assert_eq!(warm.rows.len() as u64, rows_out);
    assert!(
        allocs <= rows_out + 256,
        "warm fetch_region ({rows_out} rows out) made {allocs} allocations"
    );
    for row in warm.rows.iter() {
        assert_eq!(row.values.capacity(), width, "row buffers are exact");
    }
    assert_eq!(
        warm.rows.iter().map(Row::encode).collect::<Vec<_>>(),
        region.rows.iter().map(Row::encode).collect::<Vec<_>>(),
        "a hit serves what the miss served"
    );

    // a mutation whose dirty region touches all four cached tiles frees
    // each as one block: a handful of deallocations beyond the same
    // mutation with nothing cached, not one per cached row
    let mutate = || {
        server
            .mutate_shards(&["dots"], |_| {
                Ok((
                    (),
                    vec![DirtyRegion::new("dots", Rect::new(39.0, 39.0, 41.0, 41.0))],
                ))
            })
            .unwrap()
    };
    let removals = || server.backend_cache_stats().invalidation_removals;
    let before = removals();
    let ((), evicting) = deallocations(mutate);
    assert_eq!(removals() - before, 4, "the four cached tiles were evicted");
    server.clear_caches();
    let ((), empty) = deallocations(mutate);
    assert!(
        evicting <= empty + 16,
        "evicting 4 tiles of {rows_in} rows took {evicting} deallocations, \
         the same mutation with empty caches {empty}"
    );
}
