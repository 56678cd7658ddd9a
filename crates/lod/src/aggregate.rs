//! Cluster aggregates: what each retained mark carries about the raw
//! points it stands for.

use kyrix_storage::Rect;

/// How many measure sums a [`Cluster`] holds inline. An app declares a
/// handful of measures (`zipf_galaxy` has two); a cluster with at most
/// this many owns no heap allocation, one with more spills its sums into
/// a boxed slice.
pub const INLINE_MEASURES: usize = 2;

/// The per-measure sums of a [`Cluster`]: a short `[f64]` stored inline
/// up to [`INLINE_MEASURES`] values, on the heap beyond. Reads and writes
/// go through the slice it dereferences to.
#[derive(Clone)]
pub struct Sums(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        vals: [f64; INLINE_MEASURES],
    },
    Spilled(Box<[f64]>),
}

impl Sums {
    /// Whether the values live in a heap allocation of their own.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl FromIterator<f64> for Sums {
    /// Collects inline while the values fit; the first value past
    /// [`INLINE_MEASURES`] moves everything to the heap.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let mut vals = [0.0; INLINE_MEASURES];
        let mut len = 0;
        while len < INLINE_MEASURES {
            match it.next() {
                Some(v) => vals[len] = v,
                None => break,
            }
            len += 1;
        }
        match it.next() {
            None => Sums(Repr::Inline {
                len: len as u8,
                vals,
            }),
            Some(next) => Sums(Repr::Spilled(
                vals.into_iter().chain([next]).chain(it).collect(),
            )),
        }
    }
}

impl From<&[f64]> for Sums {
    fn from(values: &[f64]) -> Self {
        values.iter().copied().collect()
    }
}

impl std::ops::Deref for Sums {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }
}

impl std::ops::DerefMut for Sums {
    fn deref_mut(&mut self) -> &mut [f64] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }
}

impl PartialEq for Sums {
    fn eq(&self, other: &Sums) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<f64>> for Sums {
    fn eq(&self, other: &Vec<f64>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Sums {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One cluster (or, at the base of the recursion, one raw point).
///
/// A cluster is *represented by an actual raw point* — the member with the
/// highest representative weight (first-measure value, ties to the lower
/// id) — rather than a centroid: the representative's raw coordinates are
/// copied, never accumulated. Representative selection is an associative,
/// commutative max-fold over members, counts are integers and the bounding
/// box is a min/max fold, so all of those merge bit-identically no matter
/// how the build was partitioned; only the measure sums are floating-point
/// accumulations (exact whenever measure values are integer-valued, as the
/// `zipf_galaxy` workload produces).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Raw id of the representative point.
    pub rep_id: i64,
    /// Representative position in raw (level-0) canvas coordinates.
    pub rep_x: f64,
    /// Representative position in raw (level-0) canvas coordinates.
    pub rep_y: f64,
    /// Representative weight: the first-measure value of the
    /// representative point (0 when no measures are configured).
    pub rep_weight: f64,
    /// Number of raw points in the cluster.
    pub count: u64,
    /// Per-measure sums over all member raw points.
    pub sums: Sums,
    /// Bounding box of all member raw points, in raw coordinates.
    pub bbox: Rect,
}

impl Cluster {
    /// A singleton cluster from one raw point.
    pub fn from_point(id: i64, x: f64, y: f64, measures: &[f64]) -> Self {
        Cluster::singleton(id, x, y, measures.into())
    }

    /// [`Cluster::from_point`] over measures already gathered into
    /// [`Sums`] — what a table scan builds straight from a row's columns.
    pub(crate) fn singleton(id: i64, x: f64, y: f64, sums: Sums) -> Self {
        Cluster {
            rep_id: id,
            rep_x: x,
            rep_y: y,
            rep_weight: sums.first().copied().unwrap_or(0.0),
            count: 1,
            sums,
            bbox: Rect::new(x, y, x, y),
        }
    }

    /// Does `other`'s representative outrank this one's? Heavier wins,
    /// ties break to the smaller raw id — a total order over raw points,
    /// so the max-fold is order-independent.
    fn rep_outranked_by(&self, other: &Cluster) -> bool {
        other.rep_weight > self.rep_weight
            || (other.rep_weight == self.rep_weight && other.rep_id < self.rep_id)
    }

    /// Processing priority for greedy retention: bigger clusters first,
    /// then larger first-measure sum, then smaller representative id.
    /// Representatives are distinct raw points, so this is a total order —
    /// a deterministic processing sequence.
    pub fn more_important_than(&self, other: &Cluster) -> bool {
        if self.count != other.count {
            return self.count > other.count;
        }
        let (a, b) = (
            self.sums.first().copied().unwrap_or(0.0),
            other.sums.first().copied().unwrap_or(0.0),
        );
        if a != b {
            return a > b;
        }
        self.rep_id < other.rep_id
    }

    /// Fold `other` into `self`, re-electing the representative by the
    /// member-level max-fold. Commutative and associative except for the
    /// order of the floating-point sum additions. Used during cell
    /// aggregation, where the winner's position defines the cell's mark.
    pub fn merge(&mut self, other: &Cluster) {
        if self.rep_outranked_by(other) {
            self.rep_id = other.rep_id;
            self.rep_x = other.rep_x;
            self.rep_y = other.rep_y;
            self.rep_weight = other.rep_weight;
        }
        self.absorb(other);
    }

    /// Fold `other`'s aggregates into `self` *without* touching the
    /// representative. Used when a rejected candidate merges into an
    /// already-retained mark: the retained position must not move, or the
    /// spacing guarantee over retained marks would break.
    pub fn absorb(&mut self, other: &Cluster) {
        self.count += other.count;
        for (s, o) in self.sums.iter_mut().zip(other.sums.iter()) {
            *s += o;
        }
        self.bbox = self.bbox.union(&other.bbox);
    }

    /// Per-measure averages (`sum / count`), in measure order.
    pub fn avgs(&self) -> impl Iterator<Item = f64> + '_ {
        self.sums.iter().map(|s| s / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_elects_heaviest_member_and_conserves_totals() {
        let mut a = Cluster::from_point(5, 1.0, 2.0, &[10.0]);
        let b = Cluster::from_point(3, 4.0, 6.0, &[7.0]);
        a.merge(&b);
        assert_eq!(a.rep_id, 5, "heavier member stays representative");
        assert_eq!((a.rep_x, a.rep_y), (1.0, 2.0));
        assert_eq!(a.count, 2);
        assert_eq!(a.sums, vec![17.0]);
        assert_eq!(a.bbox, Rect::new(1.0, 2.0, 4.0, 6.0));
        assert_eq!(a.avgs().collect::<Vec<_>>(), vec![8.5]);

        // merging the other way elects the same representative
        let mut c = Cluster::from_point(3, 4.0, 6.0, &[7.0]);
        c.merge(&Cluster::from_point(5, 1.0, 2.0, &[10.0]));
        assert_eq!(c.rep_id, 5);
        assert_eq!((c.rep_x, c.rep_y), (1.0, 2.0));
    }

    #[test]
    fn merge_is_order_independent_for_representatives() {
        let pts: Vec<Cluster> = (0..6)
            .map(|i| Cluster::from_point(i, i as f64, 0.0, &[(i % 3) as f64]))
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = pts[order[0]].clone();
            for &i in &order[1..] {
                acc.merge(&pts[i]);
            }
            (acc.rep_id, acc.count, acc.bbox)
        };
        let a = fold(&[0, 1, 2, 3, 4, 5]);
        let b = fold(&[5, 3, 1, 4, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(a.0, 2, "weight 2 ties break to the smaller id");
    }

    #[test]
    fn absorb_freezes_the_representative() {
        let mut kept = Cluster::from_point(8, 0.0, 0.0, &[1.0]);
        kept.absorb(&Cluster::from_point(2, 9.0, 9.0, &[100.0]));
        assert_eq!(kept.rep_id, 8, "absorb never moves the mark");
        assert_eq!((kept.rep_x, kept.rep_y), (0.0, 0.0));
        assert_eq!(kept.count, 2);
        assert_eq!(kept.sums, vec![101.0]);
    }

    #[test]
    fn sums_stay_inline_up_to_the_const_and_spill_beyond() {
        for n in 0..=INLINE_MEASURES + 2 {
            let values: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let mut c = Cluster::from_point(1, 0.0, 0.0, &values);
            assert_eq!(c.sums.spilled(), n > INLINE_MEASURES, "{n} measures");
            assert_eq!(c.sums, values);
            // both representations fold alike
            c.merge(&Cluster::from_point(2, 1.0, 1.0, &values));
            let doubled: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
            assert_eq!(c.sums, doubled);
            assert_eq!(c.avgs().collect::<Vec<_>>(), values);
        }
    }

    #[test]
    fn importance_total_order_tie_breaks_by_id() {
        let a = Cluster::from_point(2, 0.0, 0.0, &[1.0]);
        let b = Cluster::from_point(9, 5.0, 5.0, &[1.0]);
        assert!(a.more_important_than(&b));
        assert!(!b.more_important_than(&a));
    }
}
