//! Grid hashing: the spatial substrate of the deterministic greedy
//! clustering. Cells are `spacing`-sized squares; two marks closer than
//! `spacing` always land in the same cell or in 8-adjacent cells, so the
//! non-overlap check only ever inspects a 3×3 neighborhood.

use kyrix_storage::fxhash::FxHashMap;

/// Integer grid cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Cell column (floor of x / cell size).
    pub x: i64,
    /// Cell row (floor of y / cell size).
    pub y: i64,
}

/// Cell containing a point at a given cell size.
pub fn cell_of(x: f64, y: f64, size: f64) -> Cell {
    Cell {
        x: (x / size).floor() as i64,
        y: (y / size).floor() as i64,
    }
}

impl Cell {
    /// The 3×3 neighborhood (including self), row-major.
    pub fn neighborhood(self) -> impl Iterator<Item = Cell> {
        (-1..=1).flat_map(move |dy| {
            (-1..=1).map(move |dx| Cell {
                x: self.x + dx,
                y: self.y + dy,
            })
        })
    }
}

/// Positions of already-retained marks, bucketed by `spacing`-sized cells,
/// answering "which retained mark (if any) is within `spacing` of here?".
///
/// Every mark lives in one flat `Vec`; a cell maps to its most recent
/// mark and each mark links to the cell's previous one. A retention pass
/// over a level therefore allocates two growing buffers rather than a
/// small `Vec` per occupied cell, and frees two when it ends — it leaves
/// no field of small holes in the heap the server then allocates rows
/// from (ROADMAP, "set-up leaves the heap the server allocates rows
/// from").
pub struct SpacingGrid {
    spacing: f64,
    /// Index into `marks` of the last mark inserted into each cell.
    heads: FxHashMap<Cell, u32>,
    marks: Vec<Mark>,
}

struct Mark {
    idx: usize,
    x: f64,
    y: f64,
    /// The cell's previous mark, [`NO_MARK`] at the end of the chain.
    next: u32,
}

const NO_MARK: u32 = u32::MAX;

impl SpacingGrid {
    /// An empty grid enforcing one spacing bound.
    pub fn new(spacing: f64) -> Self {
        SpacingGrid {
            spacing,
            heads: FxHashMap::default(),
            marks: Vec::new(),
        }
    }

    /// Record a retained mark (identified by caller-side index).
    pub fn insert(&mut self, idx: usize, x: f64, y: f64) {
        // a mark is 32 bytes: u32::MAX of them would be 128 GiB of grid
        #[allow(clippy::expect_used)]
        let slot = u32::try_from(self.marks.len())
            .ok()
            .filter(|slot| *slot != NO_MARK)
            .expect("a spacing grid holds fewer than u32::MAX marks");
        let next = self
            .heads
            .insert(cell_of(x, y, self.spacing), slot)
            .unwrap_or(NO_MARK);
        self.marks.push(Mark { idx, x, y, next });
    }

    /// The nearest retained mark strictly closer than `spacing`, if any.
    /// Ties on distance break toward the smaller index (deterministic, and
    /// independent of the order marks were inserted in).
    pub fn violator(&self, x: f64, y: f64) -> Option<(usize, f64)> {
        let sq = self.spacing * self.spacing;
        let mut best: Option<(usize, f64)> = None;
        for cell in cell_of(x, y, self.spacing).neighborhood() {
            let mut slot = self.heads.get(&cell).copied().unwrap_or(NO_MARK);
            while slot != NO_MARK {
                let m = &self.marks[slot as usize];
                let d2 = (m.x - x) * (m.x - x) + (m.y - y) * (m.y - y);
                if d2 < sq {
                    let better = match best {
                        None => true,
                        Some((bi, bd2)) => d2 < bd2 || (d2 == bd2 && m.idx < bi),
                    };
                    if better {
                        best = Some((m.idx, d2));
                    }
                }
                slot = m.next;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_floors() {
        assert_eq!(cell_of(0.0, 0.0, 10.0), Cell { x: 0, y: 0 });
        assert_eq!(cell_of(9.99, 10.0, 10.0), Cell { x: 0, y: 1 });
        assert_eq!(cell_of(-0.1, -10.0, 10.0), Cell { x: -1, y: -1 });
    }

    #[test]
    fn neighborhood_is_nine_cells() {
        let n: Vec<Cell> = (Cell { x: 0, y: 0 }).neighborhood().collect();
        assert_eq!(n.len(), 9);
        assert!(n.contains(&Cell { x: -1, y: -1 }));
        assert!(n.contains(&Cell { x: 1, y: 1 }));
    }

    #[test]
    fn violator_finds_marks_across_cell_borders() {
        let mut g = SpacingGrid::new(10.0);
        g.insert(0, 9.5, 5.0); // cell (0,0)
                               // a point in cell (1,0), 1.0 away from mark 0
        let v = g.violator(10.5, 5.0);
        assert_eq!(v.map(|(i, _)| i), Some(0));
        // far away: no violator
        assert!(g.violator(25.0, 5.0).is_none());
        // exactly at spacing distance: allowed (strictly-closer check)
        assert!(g.violator(19.5, 5.0).is_none());
    }

    #[test]
    fn violator_prefers_nearest_then_smallest_index() {
        let mut g = SpacingGrid::new(10.0);
        g.insert(7, 0.0, 0.0);
        g.insert(3, 4.0, 0.0);
        let (idx, _) = g.violator(5.0, 0.0).unwrap();
        assert_eq!(idx, 3, "nearest wins");
        let mut tie = SpacingGrid::new(10.0);
        tie.insert(9, 2.0, 0.0);
        tie.insert(4, -2.0, 0.0);
        let (idx, _) = tie.violator(0.0, 0.0).unwrap();
        assert_eq!(idx, 4, "distance tie breaks to the smaller index");
    }

    #[test]
    fn many_marks_in_one_cell_are_all_seen() {
        // 64 marks chained in cell (0, 0), one more next door
        let mut g = SpacingGrid::new(100.0);
        for i in 0..64 {
            g.insert(i, (i % 8) as f64 * 10.0, (i / 8) as f64 * 10.0);
        }
        g.insert(64, 105.0, 5.0);
        for i in 0..64usize {
            let (x, y) = ((i % 8) as f64 * 10.0 + 1.0, (i / 8) as f64 * 10.0 + 1.0);
            assert_eq!(g.violator(x, y).map(|(idx, _)| idx), Some(i));
        }
        assert_eq!(g.violator(104.0, 5.0).map(|(idx, _)| idx), Some(64));
    }

    #[test]
    fn chain_order_does_not_change_the_answer() {
        // the same marks inserted forwards and backwards: every probe,
        // exact distance ties included, names the same violator
        let marks: Vec<(usize, f64, f64)> = (0..40)
            .map(|i| (i, (i % 5) as f64 * 4.0, (i / 5) as f64 * 4.0))
            .collect();
        let mut forwards = SpacingGrid::new(12.0);
        let mut backwards = SpacingGrid::new(12.0);
        for &(i, x, y) in &marks {
            forwards.insert(i, x, y);
        }
        for &(i, x, y) in marks.iter().rev() {
            backwards.insert(i, x, y);
        }
        for py in 0..36 {
            for px in 0..24 {
                // even coordinates sit midway between marks: ties
                let (x, y) = (px as f64, py as f64);
                assert_eq!(forwards.violator(x, y), backwards.violator(x, y));
            }
        }
    }
}
