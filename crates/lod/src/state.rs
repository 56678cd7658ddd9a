//! The pyramid's maintenance state: one record per candidate grid cell.
//!
//! A clustered level is decided by two phases (see [`crate::cluster`]):
//! phase 1 folds the finer level into one *candidate* cluster per grid
//! cell, phase 2 retains a candidate as a mark of the level or absorbs it
//! into a retained neighbour. Incremental maintenance
//! ([`crate::maintain`]) repairs both locally, so it keeps what both
//! phases decided — per cell, in one [`CellRecord`]: the candidate, a
//! one-byte [`Fate`], and the mark's post-absorption output *only where
//! absorption made it differ from the candidate*.
//!
//! Fields are private to this module: every write goes through the
//! handful of methods below, which is what keeps the counters and the
//! invariants on [`LevelState`] true.

use crate::aggregate::Cluster;
use crate::grid::Cell;
use kyrix_storage::fxhash::FxHashMap;

/// What greedy retention decided about one candidate cell, in one byte:
/// the row-major position, in the cell's own 3×3 neighbourhood, of the
/// cell whose mark carries this candidate's aggregates. The centre is the
/// cell itself — the candidate was *retained* as a mark; any other
/// position names the neighbour that absorbed it. Retention only ever
/// looks at the 3×3 neighbourhood ([`crate::grid::SpacingGrid::violator`]),
/// so an absorber is always one of the nine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fate(u8);

impl Fate {
    /// The candidate survived as a mark of the level.
    pub(crate) const RETAINED: Fate = Fate(4);
    /// Retention has not seen this candidate yet (a cell that appeared in
    /// the batch being repaired).
    pub(crate) const UNDECIDED: Fate = Fate(9);

    /// The fate of a candidate in `cell` carried by `carrier`'s mark
    /// (`carrier == cell`: retained).
    pub(crate) fn toward(cell: Cell, carrier: Cell) -> Fate {
        let (dx, dy) = (carrier.x - cell.x, carrier.y - cell.y);
        assert!(
            (-1..=1).contains(&dx) && (-1..=1).contains(&dy),
            "({}, {}) cannot absorb ({}, {}): not a 3x3 neighbour",
            carrier.x,
            carrier.y,
            cell.x,
            cell.y
        );
        Fate(((dy + 1) * 3 + dx + 1) as u8)
    }

    /// Whether the candidate is itself a mark of the level.
    pub(crate) fn is_retained(self) -> bool {
        self == Fate::RETAINED
    }

    /// The neighbour whose mark absorbed a candidate in `cell`; `None`
    /// for a retained or undecided one.
    pub(crate) fn absorber(self, cell: Cell) -> Option<Cell> {
        if self.0 >= 9 || self.is_retained() {
            return None;
        }
        let (dx, dy) = (i64::from(self.0 % 3) - 1, i64::from(self.0 / 3) - 1);
        Some(Cell {
            x: cell.x + dx,
            y: cell.y + dy,
        })
    }
}

/// Everything maintenance keeps about one candidate grid cell of one
/// level. See [`LevelState`] for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellRecord {
    /// Phase-1 candidate (pre-retention). `None` marks a *tombstone*: a
    /// batch emptied the cell, and the record survives until the level's
    /// repair has read what it used to be.
    cand: Option<Cluster>,
    /// The post-absorption output, kept only where it is not the
    /// candidate: a retained cell that absorbed at least one neighbour.
    /// Between a candidate write and the repair that follows it, also the
    /// *pin*: the row the level table still holds for this cell.
    out: Option<Box<Cluster>>,
    fate: Fate,
}

impl CellRecord {
    /// A candidate retention has not seen yet.
    fn undecided(cand: Cluster) -> Self {
        CellRecord {
            cand: Some(cand),
            out: None,
            fate: Fate::UNDECIDED,
        }
    }

    /// The phase-1 candidate; `None` on a tombstone.
    pub(crate) fn cand(&self) -> Option<&Cluster> {
        self.cand.as_ref()
    }

    /// The retention decision.
    pub(crate) fn fate(&self) -> Fate {
        self.fate
    }

    /// The level-table row of this cell: a retained cell's output — the
    /// boxed one where absorption (or a pin) made it differ from the
    /// candidate, the candidate itself otherwise. `None` for a cell that
    /// contributes no row.
    pub(crate) fn table_row(&self) -> Option<&Cluster> {
        if !self.fate.is_retained() {
            return None;
        }
        self.out.as_deref().or(self.cand.as_ref())
    }
}

/// Retention state of one clustered level: a [`CellRecord`] per candidate
/// grid cell. Three invariants hold whenever no repair is in flight —
/// after a build and after every maintenance batch:
///
/// 1. **fate ⇔ candidate.** Every record has a candidate and a decided
///    fate; an absorbed record's fate names a retained neighbour.
///    (Mid-batch a record may be a tombstone or undecided; the level's
///    repair sweeps the one and decides the other.)
/// 2. **boxed output ⇔ output ≠ candidate.** A record owns a boxed
///    output exactly when it is retained and absorbed a neighbour; every
///    other retained cell's output *is* its candidate and is not stored
///    twice. (Mid-batch a box may also be a pin, see
///    [`LevelState::set_cand`].)
/// 3. **One candidate writer.** Once fates exist, a candidate changes
///    only through [`LevelState::set_cand`], which pins the row the level
///    table still holds before it writes — that is what lets the repair
///    report `(cell, old row, new row)` although no copy of the old
///    outputs is kept. ([`LevelState::fold_candidate`] is phase 1 itself
///    and refuses a decided cell.)
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LevelState {
    cells: FxHashMap<Cell, CellRecord>,
    /// Records that have a candidate (all but tombstones).
    cands_len: usize,
    /// Records whose fate is retained — the level table's row count.
    retained_len: usize,
}

impl LevelState {
    /// An empty level with room for `cells` candidate cells, so phase 1
    /// never rehashes.
    pub(crate) fn with_capacity(cells: usize) -> Self {
        LevelState {
            cells: FxHashMap::with_capacity_and_hasher(cells, Default::default()),
            ..LevelState::default()
        }
    }

    /// Candidate cells (tombstones excluded).
    pub(crate) fn cands_len(&self) -> usize {
        self.cands_len
    }

    /// Retained cells: the level table's row count.
    pub(crate) fn retained_len(&self) -> usize {
        self.retained_len
    }

    /// The record of `cell`, if it has one.
    pub(crate) fn record(&self, cell: Cell) -> Option<&CellRecord> {
        self.cells.get(&cell)
    }

    /// The candidate of `cell`; `None` for an empty cell or a tombstone.
    pub(crate) fn cand(&self, cell: Cell) -> Option<&Cluster> {
        self.cells.get(&cell)?.cand.as_ref()
    }

    /// Whether `cell`'s stored fate is retained.
    pub(crate) fn is_retained(&self, cell: Cell) -> bool {
        self.cells.get(&cell).is_some_and(|r| r.fate.is_retained())
    }

    /// The level-table row of `cell` ([`CellRecord::table_row`]).
    pub(crate) fn table_row(&self, cell: Cell) -> Option<&Cluster> {
        self.cells.get(&cell)?.table_row()
    }

    /// Every record, in no particular order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (Cell, &CellRecord)> {
        self.cells.iter().map(|(c, r)| (*c, r))
    }

    /// The level's output clusters in canonical (rep-id) order — the fold
    /// order the next level's cell aggregation consumes, so incremental
    /// re-aggregation reproduces a from-scratch build's float sums
    /// exactly. Borrowed: an output is copied when a row or a coarser
    /// candidate is made of it, not to be sorted.
    pub(crate) fn sorted_outputs(&self) -> Vec<&Cluster> {
        let mut outs: Vec<&Cluster> = Vec::with_capacity(self.retained_len);
        outs.extend(self.cells.values().filter_map(CellRecord::table_row));
        outs.sort_unstable_by_key(|c| c.rep_id);
        outs
    }

    /// Phase 1: fold one finer-level cluster into `cell`'s candidate.
    /// Build-time only — a cell retention has decided is written through
    /// [`LevelState::set_cand`].
    pub(crate) fn fold_candidate(&mut self, cell: Cell, c: &Cluster) {
        match self.cells.get_mut(&cell) {
            Some(rec) => {
                assert!(rec.fate == Fate::UNDECIDED, "phase 1 on a decided cell");
                // phase 1 inserts records with a candidate and removes none
                #[allow(clippy::expect_used)]
                rec.cand
                    .as_mut()
                    .expect("an undecided record has a candidate")
                    .merge(c);
            }
            None => {
                self.cells.insert(cell, CellRecord::undecided(c.clone()));
                self.cands_len += 1;
            }
        }
    }

    /// Make room for `additional` more candidate cells.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.cells.reserve(additional);
    }

    /// Every record's cell and candidate, consuming the level (the
    /// coordinator step of a sharded build folds them into another map).
    pub(crate) fn into_candidates(self) -> impl Iterator<Item = (Cell, Cluster)> {
        self.cells
            .into_iter()
            .filter_map(|(cell, rec)| Some((cell, rec.cand?)))
    }

    /// The one candidate writer of maintenance: replace `cell`'s
    /// candidate (`None`: the cell is empty now). Before writing, **pin**
    /// the row the level table still holds — a retained cell whose output
    /// was its candidate gets that candidate boxed as its output — so the
    /// repair that follows can still report the old row. A record that
    /// loses its candidate stays as a tombstone carrying its old fate and
    /// pin until [`LevelState::sweep`].
    pub(crate) fn set_cand(&mut self, cell: Cell, new: Option<Cluster>) {
        match self.cells.get_mut(&cell) {
            Some(rec) => {
                self.cands_len += usize::from(new.is_some());
                self.cands_len -= usize::from(rec.cand.is_some());
                if rec.fate.is_retained() && rec.out.is_none() {
                    rec.out = rec.cand.take().map(Box::new);
                }
                rec.cand = new;
            }
            None => {
                if let Some(c) = new {
                    self.cells.insert(cell, CellRecord::undecided(c));
                    self.cands_len += 1;
                }
            }
        }
    }

    /// Record retention's decision for `cell`.
    pub(crate) fn set_fate(&mut self, cell: Cell, fate: Fate) {
        // both callers decide only cells they read off this level's records
        #[allow(clippy::expect_used)]
        let rec = self
            .cells
            .get_mut(&cell)
            .expect("retention decides candidate cells only");
        self.retained_len -= usize::from(rec.fate.is_retained());
        self.retained_len += usize::from(fate.is_retained());
        rec.fate = fate;
    }

    /// Fold `member`'s candidate into retained `absorber`'s output — one
    /// absorption of the greedy pass. The absorber's output is copied off
    /// its candidate the first time it absorbs, never before.
    #[allow(clippy::expect_used)]
    pub(crate) fn absorb(&mut self, absorber: Cell, member: Cell) {
        // retention absorbs between cells it ordered by candidate, removing none
        let m = self
            .cand(member)
            .expect("an absorbed cell has a candidate")
            .clone();
        let rec = self
            .cells
            .get_mut(&absorber)
            .expect("an absorber is a candidate cell");
        let cand = rec.cand.as_ref().expect("an absorber has a candidate");
        rec.out
            .get_or_insert_with(|| Box::new(cand.clone()))
            .absorb(&m);
    }

    /// Store a freshly derived output for `cell` (`None`: the cell
    /// contributes no row), boxing it only where it differs from the
    /// candidate. Ends a pin.
    pub(crate) fn store_output(&mut self, cell: Cell, out: Option<Cluster>) {
        // a repair stores outputs only for cells it just found a record for
        #[allow(clippy::expect_used)]
        let rec = self
            .cells
            .get_mut(&cell)
            .expect("an output belongs to a candidate cell");
        rec.out = out.filter(|o| rec.cand.as_ref() != Some(o)).map(Box::new);
    }

    /// Drop `cell`'s record if it is a tombstone. Returns whether it was.
    pub(crate) fn sweep(&mut self, cell: Cell) -> bool {
        let Some(rec) = self.cells.get(&cell) else {
            return false;
        };
        if rec.cand.is_some() {
            return false;
        }
        self.retained_len -= usize::from(rec.fate.is_retained());
        self.cells.remove(&cell);
        true
    }

    /// Forget every retention decision — tombstones, fates, outputs —
    /// keeping the candidates: the state phase 1 leaves, which is what a
    /// full retention pass starts from.
    pub(crate) fn clear_decisions(&mut self) {
        self.cells.retain(|_, rec| {
            rec.out = None;
            rec.fate = Fate::UNDECIDED;
            rec.cand.is_some()
        });
        self.retained_len = 0;
    }

    /// What this level's state occupies, by part.
    pub(crate) fn memory(&self, level: usize) -> LevelMemory {
        let (mut boxed_outputs, mut spilled) = (0, 0);
        for rec in self.cells.values() {
            boxed_outputs += usize::from(rec.out.is_some());
            for c in rec.cand.iter().chain(rec.out.as_deref()) {
                if c.sums.spilled() {
                    spilled += std::mem::size_of_val::<[f64]>(&c.sums);
                }
            }
        }
        let buckets = table_buckets(self.cells.capacity());
        LevelMemory {
            level,
            candidate_cells: self.cands_len,
            retained: self.retained_len,
            boxed_outputs,
            buckets,
            bytes: table_bytes::<(Cell, CellRecord)>(buckets)
                + boxed_outputs * std::mem::size_of::<Cluster>()
                + spilled,
        }
    }

    /// The first cell at which two levels' states differ, as text; `None`
    /// when they are equal record for record and counter for counter.
    pub(crate) fn first_difference(&self, other: &LevelState) -> Option<String> {
        if (self.cands_len, self.retained_len) != (other.cands_len, other.retained_len) {
            return Some(format!(
                "{} candidates / {} retained against {} / {}",
                self.cands_len, self.retained_len, other.cands_len, other.retained_len
            ));
        }
        let mut cells: Vec<Cell> = self
            .cells
            .keys()
            .chain(other.cells.keys())
            .copied()
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells.into_iter().find_map(|cell| {
            let (a, b) = (self.cells.get(&cell), other.cells.get(&cell));
            (a != b).then(|| format!("cell ({}, {}): {a:?} against {b:?}", cell.x, cell.y))
        })
    }
}

/// Buckets of a `std` hash map that reports `capacity`: the table keeps
/// one bucket in eight free, and small tables round up to 4 or 8.
fn table_buckets(capacity: usize) -> usize {
    match capacity {
        0 => 0,
        1..=3 => 4,
        4..=7 => 8,
        n => n / 7 * 8,
    }
}

/// Bytes of a hash table of `buckets` entries of `T`: the entries plus
/// one control byte each and one trailing control group.
fn table_bytes<T>(buckets: usize) -> usize {
    if buckets == 0 {
        return 0;
    }
    buckets * (std::mem::size_of::<T>() + 1) + 16
}

/// Maintenance state of a pyramid, coordinator-side wherever the level
/// tables live.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MaintainState {
    /// One state per clustered level (index 0 = level 1).
    pub(crate) levels: Vec<LevelState>,
    /// Level-1 grid cell of every live raw row — the secondary index that
    /// turns a delete-by-id into a single-cell repair instead of a scan.
    pub(crate) id_cells: FxHashMap<i64, Cell>,
}

impl MaintainState {
    /// Bytes by owner ([`crate::LodPyramid::memory_report`]).
    pub(crate) fn memory(&self) -> MemoryReport {
        MemoryReport {
            levels: (self.levels.iter().zip(1..))
                .map(|(st, level)| st.memory(level))
                .collect(),
            id_map_entries: self.id_cells.len(),
            id_map_bytes: table_bytes::<(i64, Cell)>(table_buckets(self.id_cells.capacity())),
        }
    }
}

/// What one clustered level's maintenance state holds and occupies.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMemory {
    /// Level number (1 = finest clustered level).
    pub level: usize,
    /// Grid cells holding a phase-1 candidate.
    pub candidate_cells: usize,
    /// Candidates retained as marks — the level table's rows.
    pub retained: usize,
    /// Retained cells that absorbed a neighbour and so own a boxed output
    /// beside their candidate.
    pub boxed_outputs: usize,
    /// Buckets of the level's one hash table (a power of two).
    pub buckets: usize,
    /// Bytes: the table's buckets, the boxed outputs and any measure sums
    /// spilled past [`crate::aggregate::INLINE_MEASURES`].
    pub bytes: usize,
}

/// The maintenance state's bytes by owner, from the sizes of what it
/// holds (requested bytes; the allocator's rounding is not in it).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// One entry per clustered level, finest first.
    pub levels: Vec<LevelMemory>,
    /// Live raw rows in the id → level-1-cell map.
    pub id_map_entries: usize,
    /// Bytes of the id → level-1-cell map.
    pub id_map_bytes: usize,
}

impl MemoryReport {
    /// Everything the maintenance state occupies.
    pub fn total_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.bytes).sum::<usize>() + self.id_map_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: Cell = Cell { x: 3, y: -2 };

    fn pt(id: i64, x: f64, y: f64, m: f64) -> Cluster {
        Cluster::from_point(id, x, y, &[m])
    }

    #[test]
    fn a_record_is_112_bytes() {
        // the tombstone's `None` lives in a niche of the candidate, the
        // fate byte in the padding after the output pointer
        assert_eq!(std::mem::size_of::<Cluster>(), 96);
        assert_eq!(std::mem::size_of::<CellRecord>(), 112);
        assert_eq!(std::mem::size_of::<(Cell, CellRecord)>(), 128);
    }

    #[test]
    fn fate_round_trips_all_nine_directions() {
        let mut seen = Vec::new();
        for carrier in HOME.neighborhood() {
            let fate = Fate::toward(HOME, carrier);
            assert_eq!(fate.is_retained(), carrier == HOME);
            let back = fate.absorber(HOME);
            assert_eq!(back, (carrier != HOME).then_some(carrier));
            assert_ne!(fate, Fate::UNDECIDED);
            seen.push(fate);
        }
        seen.dedup();
        assert_eq!(seen.len(), 9, "nine directions, nine distinct bytes");
        assert_eq!(Fate::UNDECIDED.absorber(HOME), None);
        assert!(!Fate::UNDECIDED.is_retained());
    }

    #[test]
    #[should_panic(expected = "not a 3x3 neighbour")]
    fn fate_refuses_a_distant_absorber() {
        Fate::toward(HOME, Cell { x: 5, y: -2 });
    }

    /// A level with one retained, never-absorbing cell at `HOME`.
    fn lone_retained() -> LevelState {
        let mut st = LevelState::default();
        st.fold_candidate(HOME, &pt(7, 1.0, 1.0, 2.0));
        st.set_fate(HOME, Fate::RETAINED);
        st
    }

    #[test]
    fn set_cand_pins_the_row_the_table_still_holds() {
        let mut st = lone_retained();
        let before = st.table_row(HOME).cloned().unwrap();
        assert_eq!(st.memory(1).boxed_outputs, 0, "output = candidate: no box");

        // the cell gains a point: the candidate moves on, the row does not
        let mut grown = before.clone();
        grown.merge(&pt(9, 2.0, 2.0, 1.0));
        st.set_cand(HOME, Some(grown.clone()));
        assert_eq!(st.cand(HOME), Some(&grown));
        assert_eq!(st.table_row(HOME), Some(&before), "pre-insert row is `old`");

        // a second write in the same batch keeps the first pin
        grown.merge(&pt(11, 3.0, 3.0, 1.0));
        st.set_cand(HOME, Some(grown.clone()));
        assert_eq!(st.table_row(HOME), Some(&before));

        // the repair derives the new output and ends the pin
        st.store_output(HOME, Some(grown.clone()));
        assert_eq!(st.table_row(HOME), Some(&grown));
        assert_eq!(st.memory(1).boxed_outputs, 0);
        assert_eq!((st.cands_len(), st.retained_len()), (1, 1));
    }

    #[test]
    fn an_emptied_cell_is_a_tombstone_until_swept() {
        let mut st = lone_retained();
        let before = st.table_row(HOME).cloned().unwrap();
        st.set_cand(HOME, None);
        assert_eq!(st.cand(HOME), None);
        assert!(st.is_retained(HOME), "the old fate survives the delete");
        assert_eq!(st.table_row(HOME), Some(&before), "and so does the row");
        assert_eq!((st.cands_len(), st.retained_len()), (0, 1));

        assert!(st.sweep(HOME));
        assert!(st.record(HOME).is_none());
        assert_eq!((st.cands_len(), st.retained_len()), (0, 0));
        assert!(!st.sweep(HOME), "nothing left to sweep");
    }

    #[test]
    fn sweep_leaves_live_records_alone() {
        let mut st = lone_retained();
        assert!(!st.sweep(HOME));
        assert!(st.record(HOME).is_some());
    }

    #[test]
    fn an_absorber_boxes_its_output_on_first_absorption_only() {
        let east = Cell {
            x: HOME.x + 1,
            y: HOME.y,
        };
        let mut st = lone_retained();
        st.fold_candidate(east, &pt(8, 9.0, 1.0, 1.0));
        st.set_fate(east, Fate::toward(east, HOME));
        st.absorb(HOME, east);
        let out = st.table_row(HOME).unwrap();
        assert_eq!((out.rep_id, out.count), (7, 2));
        assert_eq!(
            st.cand(HOME).unwrap().count,
            1,
            "the candidate is untouched"
        );
        assert_eq!(st.table_row(east), None, "an absorbed cell has no row");
        assert_eq!(st.memory(1).boxed_outputs, 1);
        // a new write does not re-pin over the real output
        st.set_cand(HOME, Some(pt(7, 1.0, 1.0, 5.0)));
        assert_eq!(st.table_row(HOME).unwrap().count, 2);
    }

    #[test]
    fn first_difference_names_the_cell() {
        let a = lone_retained();
        let mut b = lone_retained();
        assert_eq!(a.first_difference(&b), None);
        b.store_output(HOME, Some(pt(7, 1.0, 1.0, 3.0)));
        let msg = a.first_difference(&b).unwrap();
        assert!(msg.starts_with("cell (3, -2)"), "{msg}");
    }
}
