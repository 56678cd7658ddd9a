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
use crate::state::{Fate, LevelState};
use std::cmp::Ordering;

/// Phase 1: bucket clusters into `cell_size`-sized cells of the target
/// level (positions are representative raw coordinates divided by
/// `scale`), merging clusters that share a cell, in slice order. The
/// distinct cells are counted first, so the level's table is allocated
/// once at its final size and never rehashes while the finer level's
/// outputs are still alive.
pub(crate) fn aggregate_into_cells(
    clusters: &[&Cluster],
    scale: f64,
    cell_size: f64,
) -> LevelState {
    let cell = |c: &Cluster| cell_of(c.rep_x / scale, c.rep_y / scale, cell_size);
    let mut distinct: Vec<Cell> = clusters.iter().map(|c| cell(c)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut level = LevelState::with_capacity(distinct.len());
    drop(distinct);
    for c in clusters {
        level.fold_candidate(cell(c), c);
    }
    level
}

/// Merge per-shard level-1 cell maps into one (the coordinator step of a
/// sharded build): cells split across shard boundaries combine their
/// partial aggregates. Maps must be supplied in shard-id order so the
/// floating-point sum accumulation order is canonical: the first map is
/// the accumulator and each later one folds into it, so a cell's sum is
/// its shard-0 part, plus its shard-1 part, and so on — whatever order a
/// map's own cells are visited in, since a map holds a cell once. A
/// single map — a single-node build — comes back as it is. Nothing
/// downstream reads the result's iteration order (retention sorts its
/// candidates by a total order).
pub(crate) fn merge_cell_maps(maps: Vec<LevelState>) -> LevelState {
    let mut maps = maps.into_iter();
    let mut out = maps.next().unwrap_or_default();
    let rest: Vec<LevelState> = maps.collect();
    // grow once: a cell two later shards share is counted twice, which
    // only ever rounds the one reservation up
    let fresh = (rest.iter().flat_map(LevelState::records))
        .filter(|(cell, _)| out.record(*cell).is_none())
        .count();
    out.reserve(fresh);
    for map in rest {
        for (cell, c) in map.into_candidates() {
            out.fold_candidate(cell, &c);
        }
    }
    out
}

/// Priority order of greedy retention ([`Cluster::more_important_than`]),
/// as a comparator. Representatives are distinct, so two different
/// candidates never compare equal.
pub(crate) fn by_importance(a: &Cluster, b: &Cluster) -> Ordering {
    if a.more_important_than(b) {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// Phase 2: greedy retention under the spacing bound over *every*
/// candidate of `level` — the one body behind a build and behind a
/// repair that outgrew its region. Decides each cell's [`Fate`] and folds
/// every absorbed candidate into its absorber's output, forgetting
/// whatever decisions the level held before. A candidate's decision
/// depends only on retained marks in its 3×3 cell neighborhood, which is
/// what lets [`crate::maintain`] repair it locally afterwards.
///
/// The candidates are never copied to be sorted: the pass orders borrowed
/// keys, writes its decisions down, and only then touches the records — a
/// candidate is cloned the first time it absorbs a neighbour, as its
/// output, and not otherwise.
pub(crate) fn retain_with_spacing(level: &mut LevelState, scale: f64, spacing: f64) {
    level.clear_decisions();
    let mut order: Vec<(Cell, &Cluster)> = Vec::with_capacity(level.cands_len());
    order.extend(
        level
            .records()
            .filter_map(|(cell, rec)| Some((cell, rec.cand()?))),
    );
    order.sort_unstable_by(|a, b| by_importance(a.1, b.1));

    // a mark is known to the grid by its position in `order`: a smaller
    // index is a higher priority, the grid's tie-break
    let mut grid = SpacingGrid::new(spacing);
    let mut decided: Vec<(Cell, Fate)> = Vec::with_capacity(order.len());
    for (i, (cell, c)) in order.iter().enumerate() {
        let (lx, ly) = (c.rep_x / scale, c.rep_y / scale);
        match grid.violator(lx, ly) {
            // a retained mark is too close: its cell will carry this
            // candidate's aggregates
            Some((idx, _)) => decided.push((*cell, Fate::toward(*cell, order[idx].0))),
            None => {
                grid.insert(i, lx, ly);
                decided.push((*cell, Fate::RETAINED));
            }
        }
    }
    drop((order, grid));

    // priority order is absorption order: an absorber was retained before
    // anything it absorbs, and its members fold in as the greedy met them.
    // `absorb` keeps the retained representative in place, so the spacing
    // invariant over retained positions survives.
    for (cell, fate) in decided {
        level.set_fate(cell, fate);
        if let Some(absorber) = fate.absorber(cell) {
            level.absorb(absorber, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyrix_storage::fxhash::FxHashMap;

    fn pt(id: i64, x: f64, y: f64, m: f64) -> Cluster {
        Cluster::from_point(id, x, y, &[m])
    }

    fn aggregate(points: &[Cluster], scale: f64, cell_size: f64) -> LevelState {
        aggregate_into_cells(&points.iter().collect::<Vec<_>>(), scale, cell_size)
    }

    /// A level's marks in storage order (by representative id).
    fn retain(mut level: LevelState, scale: f64, spacing: f64) -> Vec<Cluster> {
        retain_with_spacing(&mut level, scale, spacing);
        level.sorted_outputs().into_iter().cloned().collect()
    }

    /// What greedy retention decided about one candidate cell, spelled
    /// out (the reference's vocabulary; [`Fate`] packs it into a byte).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RetentionStatus {
        Retained,
        AbsorbedInto(Cell),
    }

    /// The reference phase 2: the textbook greedy over owned maps — move
    /// every candidate into a sorted `Vec`, absorb in place, hand back a
    /// status map and an output map. [`retain_with_spacing`] must decide
    /// and fold exactly like it.
    fn retain_with_spacing_tracked(
        cells: FxHashMap<Cell, Cluster>,
        scale: f64,
        spacing: f64,
    ) -> (FxHashMap<Cell, RetentionStatus>, FxHashMap<Cell, Cluster>) {
        let mut candidates: Vec<(Cell, Cluster)> = cells.into_iter().collect();
        candidates.sort_unstable_by(|a, b| by_importance(&a.1, &b.1));
        let mut fates: FxHashMap<Cell, RetentionStatus> = FxHashMap::default();
        let mut retained: Vec<(Cell, Cluster)> = Vec::new();
        let mut grid = SpacingGrid::new(spacing);
        for (cell, c) in candidates {
            let (lx, ly) = (c.rep_x / scale, c.rep_y / scale);
            match grid.violator(lx, ly) {
                Some((idx, _)) => {
                    fates.insert(cell, RetentionStatus::AbsorbedInto(retained[idx].0));
                    retained[idx].1.absorb(&c);
                }
                None => {
                    grid.insert(retained.len(), lx, ly);
                    fates.insert(cell, RetentionStatus::Retained);
                    retained.push((cell, c));
                }
            }
        }
        (fates, retained.into_iter().collect())
    }

    #[test]
    fn cell_aggregation_merges_cohabitants() {
        let cells = aggregate(
            &[
                pt(0, 1.0, 1.0, 2.0),
                pt(1, 3.0, 3.0, 5.0),
                pt(2, 12.0, 1.0, 1.0),
            ],
            1.0,
            10.0,
        );
        assert_eq!(cells.cands_len(), 2);
        let c00 = cells.cand(cell_of(1.0, 1.0, 10.0)).unwrap();
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
        let single = aggregate(&points, 1.0, 10.0);
        // split by parity of id: both halves aggregated independently
        let (even, odd): (Vec<Cluster>, Vec<Cluster>) =
            points.into_iter().partition(|c| c.rep_id % 2 == 0);
        let merged = merge_cell_maps(vec![
            aggregate(&even, 1.0, 10.0),
            aggregate(&odd, 1.0, 10.0),
        ]);
        assert_eq!(single.cands_len(), merged.cands_len());
        for (cell, rec) in single.records() {
            let (c, m) = (rec.cand().unwrap(), merged.cand(cell).unwrap());
            assert_eq!((c.rep_id, c.count), (m.rep_id, m.count));
            assert_eq!(c.sums, m.sums, "integer-valued sums merge exactly");
            assert_eq!(c.bbox, m.bbox);
        }
    }

    #[test]
    fn retention_enforces_spacing_and_conserves_counts() {
        // a dense line of points, 1 unit apart; spacing 3 keeps every third
        let points: Vec<Cluster> = (0..30).map(|i| pt(i, i as f64, 0.0, 1.0)).collect();
        let retained = retain(aggregate(&points, 1.0, 3.0), 1.0, 3.0);
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
            let points: Vec<Cluster> = ids
                .into_iter()
                .map(|id| pt(id, (id % 10) as f64 * 2.0, (id / 10) as f64 * 2.0, 1.0))
                .collect();
            retain(aggregate(&points, 1.0, 5.0), 1.0, 5.0)
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].rep_id < w[1].rep_id));
    }

    /// The record-based pass against the reference on a clumpy point set:
    /// the same cells retained, the same absorbers named, the same
    /// outputs folded in the same order — and a second pass over an
    /// already-decided level (the repair fallback's use) changes nothing.
    #[test]
    fn retention_over_records_matches_the_reference() {
        let points: Vec<Cluster> = (0..600u32)
            .map(|i| {
                let (x, y) = (
                    (i * 7919 % 977) as f64 / 4.0,
                    (i * 104_729 % 983) as f64 / 4.0,
                );
                pt(i as i64, x, y, (i % 5) as f64)
            })
            .collect();
        let (scale, spacing) = (2.0, 9.0);
        let mut level = aggregate(&points, scale, spacing);
        let cands: FxHashMap<Cell, Cluster> = level
            .records()
            .map(|(cell, rec)| (cell, rec.cand().unwrap().clone()))
            .collect();
        let (status, outs) = retain_with_spacing_tracked(cands, scale, spacing);
        assert!(status.len() > outs.len(), "some candidate was absorbed");

        for pass in 0..2 {
            retain_with_spacing(&mut level, scale, spacing);
            assert_eq!(level.cands_len(), status.len(), "pass {pass}");
            assert_eq!(level.retained_len(), outs.len(), "pass {pass}");
            for (cell, rec) in level.records() {
                let want = match rec.fate().absorber(cell) {
                    Some(absorber) => RetentionStatus::AbsorbedInto(absorber),
                    None => RetentionStatus::Retained,
                };
                assert_eq!(status[&cell], want, "pass {pass}, cell {cell:?}");
                assert_eq!(
                    rec.table_row(),
                    outs.get(&cell),
                    "pass {pass}, cell {cell:?}"
                );
            }
        }
        // an output is boxed exactly where something was absorbed into it
        let absorbers: std::collections::HashSet<Cell> = status
            .values()
            .filter_map(|s| match s {
                RetentionStatus::AbsorbedInto(a) => Some(*a),
                RetentionStatus::Retained => None,
            })
            .collect();
        assert_eq!(level.memory(1).boxed_outputs, absorbers.len());
    }
}
