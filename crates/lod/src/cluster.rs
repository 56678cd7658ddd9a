//! Deterministic, grid-hashed greedy clustering (the Kyrix-S recipe).
//!
//! Building level `k` from level `k−1` runs in two phases:
//!
//! 1. **Cell aggregation** — every input cluster lands in a
//!    `spacing`-sized grid cell of the *target* level's coordinate space;
//!    clusters sharing a cell merge. This phase is embarrassingly parallel
//!    and merge-order independent (up to floating-point sum association),
//!    which is what makes sharded pyramid construction produce the same
//!    level tables as a single-node build.
//! 2. **Greedy retention** — cell clusters are visited in importance order
//!    (count desc, first-measure sum desc, id asc); a cluster is retained
//!    unless an already-retained mark lies strictly closer than `spacing`,
//!    in which case it merges into the nearest retained mark. Because
//!    cells are `spacing`-sized, the check never looks past the 3×3
//!    neighborhood.
//!
//! The output therefore satisfies the non-overlap guarantee — no two
//! retained marks closer than `spacing` in level coordinates — and
//! conserves `count` and measure sums exactly.

use crate::aggregate::Cluster;
use crate::grid::{cell_of, Cell, SpacingGrid};
use kyrix_storage::fxhash::FxHashMap;

/// Phase 1: bucket clusters into `cell_size`-sized cells of the target
/// level (positions are representative raw coordinates divided by
/// `scale`), merging clusters that share a cell.
pub fn aggregate_into_cells<I: IntoIterator<Item = Cluster>>(
    clusters: I,
    scale: f64,
    cell_size: f64,
) -> FxHashMap<Cell, Cluster> {
    let mut cells: FxHashMap<Cell, Cluster> = FxHashMap::default();
    for c in clusters {
        let cell = cell_of(c.rep_x / scale, c.rep_y / scale, cell_size);
        match cells.get_mut(&cell) {
            Some(agg) => agg.merge(&c),
            None => {
                cells.insert(cell, c);
            }
        }
    }
    cells
}

/// Merge per-shard cell maps into one (the coordinator step of a sharded
/// build): cells split across shard boundaries combine their partial
/// aggregates. Maps must be supplied in shard-id order so the
/// floating-point sum accumulation order is canonical: the first map is
/// the accumulator and each later one folds into it, so a cell's sum is
/// its shard-0 part, plus its shard-1 part, and so on — whatever order a
/// map's own cells are visited in, since a map holds a cell once. A
/// single map — a single-node build — comes back as it is. Nothing
/// downstream reads the result's iteration order (retention sorts its
/// candidates by a total order).
pub fn merge_cell_maps(maps: Vec<FxHashMap<Cell, Cluster>>) -> FxHashMap<Cell, Cluster> {
    let mut maps = maps.into_iter();
    let mut out = maps.next().unwrap_or_default();
    for map in maps {
        out.reserve(map.len());
        for (cell, c) in map {
            match out.get_mut(&cell) {
                Some(agg) => agg.merge(&c),
                None => {
                    out.insert(cell, c);
                }
            }
        }
    }
    out
}

/// What greedy retention decided about one candidate cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionStatus {
    /// The cell's candidate survived as a mark of the level.
    Retained,
    /// The candidate lay within `spacing` of an earlier-retained mark and
    /// folded its aggregates into that mark's cell.
    AbsorbedInto(Cell),
}

impl RetentionStatus {
    /// Whether this candidate contributes a mark (rather than aggregates).
    pub fn is_retained(self) -> bool {
        matches!(self, RetentionStatus::Retained)
    }
}

/// Phase 2: greedy retention under the spacing bound. Returns the
/// post-absorption output clusters (keyed by the retained candidate's
/// cell) and every cell's [`RetentionStatus`]. This pair is exactly the
/// per-level state that incremental maintenance ([`crate::maintain`])
/// repairs locally — a candidate's decision depends only on retained
/// marks in its 3×3 cell neighborhood, so the statuses localize the
/// recomputation after a mutation.
pub fn retain_with_spacing_tracked(
    cells: FxHashMap<Cell, Cluster>,
    scale: f64,
    spacing: f64,
) -> (FxHashMap<Cell, RetentionStatus>, FxHashMap<Cell, Cluster>) {
    let mut candidates: Vec<(Cell, Cluster)> = cells.into_iter().collect();
    candidates.sort_unstable_by(|a, b| {
        if a.1.more_important_than(&b.1) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });

    let mut status: FxHashMap<Cell, RetentionStatus> = FxHashMap::default();
    let mut retained: Vec<(Cell, Cluster)> = Vec::new();
    let mut grid = SpacingGrid::new(spacing);
    for (cell, c) in candidates {
        let (lx, ly) = (c.rep_x / scale, c.rep_y / scale);
        match grid.violator(lx, ly) {
            // a retained mark is too close: fold the aggregates into it.
            // `absorb` keeps the retained representative in place, so the
            // spacing invariant over retained positions survives.
            Some((idx, _)) => {
                status.insert(cell, RetentionStatus::AbsorbedInto(retained[idx].0));
                retained[idx].1.absorb(&c);
            }
            None => {
                grid.insert(retained.len(), lx, ly);
                status.insert(cell, RetentionStatus::Retained);
                retained.push((cell, c));
            }
        }
    }
    (status, retained.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(id: i64, x: f64, y: f64, m: f64) -> Cluster {
        Cluster::from_point(id, x, y, &[m])
    }

    /// A level's marks in storage order (by representative id).
    fn retain_with_spacing(
        cells: FxHashMap<Cell, Cluster>,
        scale: f64,
        spacing: f64,
    ) -> Vec<Cluster> {
        let (_, outs) = retain_with_spacing_tracked(cells, scale, spacing);
        let mut retained: Vec<Cluster> = outs.into_values().collect();
        retained.sort_unstable_by_key(|c| c.rep_id);
        retained
    }

    #[test]
    fn cell_aggregation_merges_cohabitants() {
        let cells = aggregate_into_cells(
            vec![
                pt(0, 1.0, 1.0, 2.0),
                pt(1, 3.0, 3.0, 5.0),
                pt(2, 12.0, 1.0, 1.0),
            ],
            1.0,
            10.0,
        );
        assert_eq!(cells.len(), 2);
        let c00 = &cells[&cell_of(1.0, 1.0, 10.0)];
        assert_eq!(c00.count, 2);
        assert_eq!(c00.sums, vec![7.0]);
        assert_eq!(c00.rep_id, 1, "heavier member wins the representative");
    }

    #[test]
    fn sharded_cell_maps_merge_like_a_single_map() {
        let points: Vec<Cluster> = (0..100)
            .map(|i| {
                pt(
                    i,
                    (i % 10) as f64 * 3.0,
                    (i / 10) as f64 * 3.0,
                    (i % 7) as f64,
                )
            })
            .collect();
        let single = aggregate_into_cells(points.clone(), 1.0, 10.0);
        // split by parity of id: both halves aggregated independently
        let (even, odd): (Vec<Cluster>, Vec<Cluster>) =
            points.into_iter().partition(|c| c.rep_id % 2 == 0);
        let merged = merge_cell_maps(vec![
            aggregate_into_cells(even, 1.0, 10.0),
            aggregate_into_cells(odd, 1.0, 10.0),
        ]);
        assert_eq!(single.len(), merged.len());
        for (cell, c) in &single {
            let m = &merged[cell];
            assert_eq!((c.rep_id, c.count), (m.rep_id, m.count));
            assert_eq!(c.sums, m.sums, "integer-valued sums merge exactly");
            assert_eq!(c.bbox, m.bbox);
        }
    }

    #[test]
    fn retention_enforces_spacing_and_conserves_counts() {
        // a dense line of points, 1 unit apart; spacing 3 keeps every third
        let cells = aggregate_into_cells((0..30).map(|i| pt(i, i as f64, 0.0, 1.0)), 1.0, 3.0);
        let retained = retain_with_spacing(cells, 1.0, 3.0);
        let total: u64 = retained.iter().map(|c| c.count).sum();
        assert_eq!(total, 30, "every point is in exactly one cluster");
        for a in 0..retained.len() {
            for b in (a + 1)..retained.len() {
                let (ca, cb) = (&retained[a], &retained[b]);
                let d = ((ca.rep_x - cb.rep_x).powi(2) + (ca.rep_y - cb.rep_y).powi(2)).sqrt();
                assert!(d >= 3.0, "spacing violated: {d}");
            }
        }
    }

    #[test]
    fn output_order_is_canonical() {
        let mk = |rev: bool| {
            let mut ids: Vec<i64> = (0..50).collect();
            if rev {
                ids.reverse();
            }
            let cells = aggregate_into_cells(
                ids.into_iter()
                    .map(|id| pt(id, (id % 10) as f64 * 2.0, (id / 10) as f64 * 2.0, 1.0)),
                1.0,
                5.0,
            );
            retain_with_spacing(cells, 1.0, 5.0)
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].rep_id < w[1].rep_id));
    }
}
