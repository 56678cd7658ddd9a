//! An R-tree spatial index with quadratic splits and STR bulk loading.
//!
//! This is the index behind the paper's second database design: a spatial
//! index over per-tuple bounding boxes, answering "all tuples whose bbox
//! intersects this rectangle" for both static-tile and dynamic-box fetching.
//!
//! Nodes live in a copy-on-write arena ([`Spine`]): cloning a tree shares
//! every node, and a writer copies exactly the nodes it changes (indexing
//! the arena mutably). The arena index is a node's identity in every
//! version, so a copied node needs no pointer fix-ups in its parent.
//! Descents are therefore read-only until they reach a node that really
//! changes.

use crate::geom::Rect;
use crate::spine::{Copies, Spine};
use std::sync::Arc;

/// Maximum entries per node.
const MAX_ENTRIES: usize = 16;
/// Minimum entries after a split.
const MIN_ENTRIES: usize = 6;

#[derive(Clone)]
enum Node<V> {
    Internal { children: Vec<(Rect, usize)> },
    Leaf { entries: Vec<(Rect, V)> },
}

impl<V> Node<V> {
    fn mbr(&self) -> Rect {
        match self {
            Node::Internal { children } => children
                .iter()
                .fold(Rect::empty(), |acc, (r, _)| acc.union(r)),
            Node::Leaf { entries } => entries
                .iter()
                .fold(Rect::empty(), |acc, (r, _)| acc.union(r)),
        }
    }
}

/// An R-tree mapping rectangles to values.
///
/// `Clone` shares every node with the original; see the module docs.
#[derive(Clone)]
pub struct RTree<V> {
    nodes: Spine<Node<V>>,
    root: usize,
    len: usize,
    height: usize,
}

impl<V: Clone> Default for RTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> RTree<V> {
    pub fn new() -> Self {
        let mut nodes = Spine::new();
        let root = nodes.push(Node::Leaf {
            entries: Vec::new(),
        });
        RTree {
            nodes,
            root,
            len: 0,
            height: 1,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Bounding box of everything in the tree.
    pub fn bounds(&self) -> Rect {
        self.nodes[self.root].mbr()
    }

    /// Nodes (`elements`) and chunks of node handles copied so far by
    /// writes that hit one shared with another clone.
    pub(crate) fn copies(&self) -> Copies {
        self.nodes.copies()
    }

    /// Continue the copy tally of the tree this one replaces.
    pub(crate) fn carry_copies(&mut self, from_predecessor: Copies) {
        self.nodes.carry(from_predecessor);
    }

    // ---------------------------------------------------------- insertion

    /// Insert an entry, splitting nodes as needed (quadratic split).
    pub fn insert(&mut self, rect: Rect, value: V) {
        if let Some((split_mbr, split_idx)) = self.insert_at(self.root, rect, value) {
            let old_root = self.root;
            let old_mbr = self.nodes[old_root].mbr();
            self.root = self.nodes.push(Node::Internal {
                children: vec![(old_mbr, old_root), (split_mbr, split_idx)],
            });
            self.height += 1;
        }
        self.len += 1;
    }

    /// Recursive insert; returns Some((mbr, node)) if `node` split.
    /// Only the leaf and the ancestors whose entry for the descended child
    /// really changes are written.
    fn insert_at(&mut self, node: usize, rect: Rect, value: V) -> Option<(Rect, usize)> {
        let (chosen, child_idx, old_mbr) = match &self.nodes[node] {
            Node::Leaf { .. } => {
                let Node::Leaf { entries } = &mut self.nodes[node] else {
                    unreachable!()
                };
                entries.push((rect, value));
                let overfull = entries.len() > MAX_ENTRIES;
                return overfull.then(|| self.split_leaf(node));
            }
            // choose subtree with least enlargement (ties: smaller area)
            Node::Internal { children } => {
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (r, _)) in children.iter().enumerate() {
                    let enl = r.enlargement(&rect);
                    let area = r.area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                (best, children[best].1, children[best].0)
            }
        };
        let split = self.insert_at(child_idx, rect, value);
        let child_mbr = self.nodes[child_idx].mbr();
        if split.is_none() && child_mbr == old_mbr {
            return None;
        }
        let Node::Internal { children } = &mut self.nodes[node] else {
            unreachable!()
        };
        children[chosen].0 = child_mbr;
        if let Some(split) = split {
            children.push(split);
            if children.len() > MAX_ENTRIES {
                return Some(self.split_internal(node));
            }
        }
        None
    }

    fn split_leaf(&mut self, node: usize) -> (Rect, usize) {
        let Node::Leaf { entries } = &mut self.nodes[node] else {
            unreachable!()
        };
        let (left, right) = quadratic_split(std::mem::take(entries), |e| e.0);
        *entries = left;
        let right_node = Node::Leaf { entries: right };
        (right_node.mbr(), self.nodes.push(right_node))
    }

    fn split_internal(&mut self, node: usize) -> (Rect, usize) {
        let Node::Internal { children } = &mut self.nodes[node] else {
            unreachable!()
        };
        let (left, right) = quadratic_split(std::mem::take(children), |e| e.0);
        *children = left;
        let right_node = Node::Internal { children: right };
        (right_node.mbr(), self.nodes.push(right_node))
    }

    /// Remove the first entry with exactly this rectangle whose value
    /// satisfies `pred`. Like the B+tree, removal is lazy: parent MBRs are
    /// not tightened (queries stay correct, just marginally less
    /// selective). Supports the update model of paper §4. The search is
    /// read-only; only the leaf that loses the entry is written.
    pub fn remove_one<F: Fn(&V) -> bool>(&mut self, rect: &Rect, pred: F) -> Option<V> {
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match &self.nodes[n] {
                Node::Internal { children } => {
                    for (r, c) in children.iter() {
                        if r.contains(rect) || r.intersects(rect) {
                            stack.push(*c);
                        }
                    }
                }
                Node::Leaf { entries } => {
                    if let Some(pos) = entries.iter().position(|(r, v)| r == rect && pred(v)) {
                        let Node::Leaf { entries } = &mut self.nodes[n] else {
                            unreachable!()
                        };
                        let (_, v) = entries.remove(pos);
                        self.len -= 1;
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    // ---------------------------------------------------------- queries

    /// Visit every entry whose rectangle intersects `query`.
    /// Returns the number of tree nodes visited (an I/O proxy for metrics).
    pub fn for_each_intersecting<F: FnMut(&Rect, &V)>(&self, query: &Rect, mut f: F) -> usize {
        let mut stack = vec![self.root];
        let mut visited = 0;
        while let Some(n) = stack.pop() {
            visited += 1;
            match &self.nodes[n] {
                Node::Internal { children } => {
                    for (r, c) in children {
                        if r.intersects(query) {
                            stack.push(*c);
                        }
                    }
                }
                Node::Leaf { entries } => {
                    for (r, v) in entries {
                        if r.intersects(query) {
                            f(r, v);
                        }
                    }
                }
            }
        }
        visited
    }

    /// Rewrite every value in place, in *leaf order*: the order
    /// [`RTree::for_each_intersecting`] visits entries in when the query
    /// covers everything (same stack discipline), whatever their
    /// rectangles. Rectangles and shape are untouched; each leaf is
    /// copied first if another clone still shares it. Stops at the first
    /// error, leaving the values visited so far rewritten.
    pub(crate) fn try_for_each_value_mut<E>(
        &mut self,
        mut f: impl FnMut(&mut V) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match &self.nodes[n] {
                Node::Internal { children } => {
                    stack.extend(children.iter().map(|(_, c)| *c));
                    continue;
                }
                Node::Leaf { entries } if entries.is_empty() => continue,
                Node::Leaf { .. } => {}
            }
            let Node::Leaf { entries } = &mut self.nodes[n] else {
                unreachable!()
            };
            entries.iter_mut().try_for_each(|(_, v)| f(v))?;
        }
        Ok(())
    }

    /// Collect values intersecting `query`.
    pub fn query(&self, query: &Rect) -> Vec<V> {
        let mut out = Vec::new();
        self.for_each_intersecting(query, |_, v| out.push(v.clone()));
        out
    }

    /// Count entries intersecting `query` without materializing them.
    pub fn count_intersecting(&self, query: &Rect) -> usize {
        let mut n = 0;
        self.for_each_intersecting(query, |_, _| n += 1);
        n
    }

    // ---------------------------------------------------------- bulk load

    /// Sort-Tile-Recursive bulk load. Replaces the tree contents.
    /// Much faster and better-packed than repeated inserts; used by the
    /// Kyrix precomputation step when building layer indexes from scratch.
    pub fn bulk_load(items: Vec<(Rect, V)>) -> Self {
        if items.is_empty() {
            return Self::new();
        }
        let len = items.len();
        // pack leaves with STR, then the levels above; the arena is built
        // over the finished node list (`Spine::from_handles`)
        let mut nodes = Vec::new();
        let mut level = Self::pack_leaves(&mut nodes, items);
        let mut height = 1;
        while level.len() > 1 {
            level = Self::pack_internal(&mut nodes, level);
            height += 1;
        }
        RTree {
            nodes: Spine::from_handles(nodes),
            root: level[0].1,
            len,
            height,
        }
    }

    /// Pack items into leaves using STR; returns (mbr, node) per leaf.
    fn pack_leaves(nodes: &mut Vec<Arc<Node<V>>>, mut items: Vec<(Rect, V)>) -> Vec<(Rect, usize)> {
        let n = items.len();
        let per_node = MAX_ENTRIES;
        let num_leaves = n.div_ceil(per_node);
        let num_slices = (num_leaves as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(num_slices);
        items.sort_by_cached_key(|e| total_order(e.0.center().x));
        let mut out = Vec::with_capacity(num_leaves);
        let mut items = items.into_iter().collect::<Vec<_>>();
        for slice in items.chunks_mut(per_slice.max(1)) {
            slice.sort_by_cached_key(|e| total_order(e.0.center().y));
            let mut start = 0;
            while start < slice.len() {
                let end = (start + per_node).min(slice.len());
                let entries: Vec<(Rect, V)> = slice[start..end]
                    .iter()
                    .map(|(r, v)| (*r, v.clone()))
                    .collect();
                let node = Node::Leaf { entries };
                out.push((node.mbr(), nodes.len()));
                nodes.push(Arc::new(node));
                start = end;
            }
        }
        out
    }

    fn pack_internal(
        nodes: &mut Vec<Arc<Node<V>>>,
        mut level: Vec<(Rect, usize)>,
    ) -> Vec<(Rect, usize)> {
        let n = level.len();
        let per_node = MAX_ENTRIES;
        let num_nodes = n.div_ceil(per_node);
        let num_slices = (num_nodes as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(num_slices);
        level.sort_by_cached_key(|e| total_order(e.0.center().x));
        let mut out = Vec::with_capacity(num_nodes);
        for slice in level.chunks_mut(per_slice.max(1)) {
            slice.sort_by_cached_key(|e| total_order(e.0.center().y));
            let mut start = 0;
            while start < slice.len() {
                let end = (start + per_node).min(slice.len());
                let children: Vec<(Rect, usize)> = slice[start..end].to_vec();
                let node = Node::Internal { children };
                out.push((node.mbr(), nodes.len()));
                nodes.push(Arc::new(node));
                start = end;
            }
        }
        out
    }
}

/// An integer that orders as [`f64::total_cmp`] orders `v` (the same bit
/// trick). STR sorts on it with `sort_by_cached_key` — stable like
/// `sort_by`, so ties still keep input order, but it sorts 16-byte
/// (key, index) pairs and moves each 40-byte entry once.
fn total_order(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Quadratic split (Guttman): pick the two seeds wasting the most area
/// together, then greedily assign remaining entries by least enlargement.
fn quadratic_split<T, F: Fn(&T) -> Rect>(mut entries: Vec<T>, rect_of: F) -> (Vec<T>, Vec<T>) {
    debug_assert!(entries.len() >= 2);
    // seed selection
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let ri = rect_of(&entries[i]);
            let rj = rect_of(&entries[j]);
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // remove seeds (remove larger index first)
    let e2 = entries.remove(s2.max(s1));
    let e1 = entries.remove(s2.min(s1));
    let (seed1, seed2) = if s1 < s2 { (e1, e2) } else { (e2, e1) };
    let mut r1 = rect_of(&seed1);
    let mut r2 = rect_of(&seed2);
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];
    let total = entries.len() + 2;
    for e in entries {
        // force balance so both groups reach MIN_ENTRIES
        let remaining_needed1 = MIN_ENTRIES.saturating_sub(g1.len());
        let remaining_needed2 = MIN_ENTRIES.saturating_sub(g2.len());
        let left = total - g1.len() - g2.len();
        let r = rect_of(&e);
        if remaining_needed1 >= left {
            r1 = r1.union(&r);
            g1.push(e);
            continue;
        }
        if remaining_needed2 >= left {
            r2 = r2.union(&r);
            g2.push(e);
            continue;
        }
        let enl1 = r1.enlargement(&r);
        let enl2 = r2.enlargement(&r);
        if enl1 < enl2 || (enl1 == enl2 && r1.area() <= r2.area()) {
            r1 = r1.union(&r);
            g1.push(e);
        } else {
            r2 = r2.union(&r);
            g2.push(e);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::point(x, y)
    }

    #[test]
    fn insert_and_query_grid() {
        let mut t = RTree::new();
        for x in 0..40 {
            for y in 0..40 {
                t.insert(pt(x as f64, y as f64), (x, y));
            }
        }
        assert_eq!(t.len(), 1600);
        assert!(t.height() > 1);
        let hits = t.query(&Rect::new(10.0, 10.0, 12.0, 12.0));
        assert_eq!(hits.len(), 9); // 3x3 inclusive grid
        let none = t.query(&Rect::new(100.0, 100.0, 200.0, 200.0));
        assert!(none.is_empty());
    }

    #[test]
    fn bulk_load_matches_incremental_results() {
        let items: Vec<(Rect, usize)> = (0..2000)
            .map(|i| {
                let x = ((i * 37) % 500) as f64;
                let y = ((i * 91) % 300) as f64;
                (Rect::new(x, y, x + 2.0, y + 2.0), i)
            })
            .collect();
        let mut incremental = RTree::new();
        for (r, v) in items.clone() {
            incremental.insert(r, v);
        }
        let bulk = RTree::bulk_load(items);
        assert_eq!(bulk.len(), 2000);
        for q in [
            Rect::new(0.0, 0.0, 50.0, 50.0),
            Rect::new(100.0, 100.0, 120.0, 130.0),
            Rect::new(499.0, 299.0, 600.0, 600.0),
        ] {
            let mut a = incremental.query(&q);
            let mut b = bulk.query(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q:?}");
        }
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let t: RTree<u32> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 1.0, 1.0)), Vec::<u32>::new());

        let t = RTree::bulk_load(vec![(pt(5.0, 5.0), 7u32)]);
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 10.0, 10.0)), vec![7]);
    }

    #[test]
    fn total_order_key_orders_as_total_cmp() {
        let values = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(total_order(a).cmp(&total_order(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn bounds_covers_all() {
        let mut t = RTree::new();
        t.insert(pt(-5.0, 3.0), 0);
        t.insert(pt(10.0, -2.0), 1);
        let b = t.bounds();
        assert_eq!(b, Rect::new(-5.0, -2.0, 10.0, 3.0));
    }

    #[test]
    fn count_matches_query_len() {
        let mut t = RTree::new();
        for i in 0..500 {
            t.insert(pt((i % 50) as f64, (i / 50) as f64), i);
        }
        let q = Rect::new(3.0, 3.0, 17.0, 8.0);
        assert_eq!(t.count_intersecting(&q), t.query(&q).len());
    }

    #[test]
    fn a_write_on_a_clone_copies_only_the_nodes_it_changes() {
        let mut base = RTree::new();
        for x in 0..40 {
            for y in 0..40 {
                base.insert(pt(x as f64, y as f64), (x, y));
            }
        }
        assert!(base.height() >= 3);
        assert_eq!(base.copies().elements, 0);
        for i in 0..40 {
            let at = pt(i as f64, (39 - i) as f64);
            // a removal copies the leaf; the search for it copies nothing
            let mut next = base.clone();
            assert_eq!(next.remove_one(&at, |_| true), Some((i, 39 - i)));
            assert_eq!(next.copies().elements, 1);
            // an insert that grows no MBR copies the leaf, plus one parent
            // per node it splits
            let mut next = base.clone();
            next.insert(at, (-1, -1));
            let splits = (next.nodes.len() - base.nodes.len()) as u64;
            assert!((1..=1 + splits).contains(&next.copies().elements));
            // an insert far outside grows every MBR on its path
            let mut next = base.clone();
            next.insert(pt(1e6, 1e6 + i as f64), (-1, -1));
            assert_eq!(next.copies().elements, base.height() as u64);
            assert_eq!(next.query(&at), vec![(i, 39 - i)]);
        }
        // none of it reached the original
        assert_eq!((base.len(), base.copies().elements), (1600, 0));
        assert_eq!(base.bounds(), Rect::new(0.0, 0.0, 39.0, 39.0));
        assert_eq!(base.count_intersecting(&base.bounds()), 1600);
    }

    #[test]
    fn rect_entries_supported() {
        // entries are boxes, not points: a big box should be found from any
        // intersecting viewport
        let mut t = RTree::new();
        t.insert(Rect::new(0.0, 0.0, 100.0, 100.0), "big");
        for i in 0..20 {
            t.insert(pt(200.0 + i as f64, 200.0), "small");
        }
        let hits = t.query(&Rect::new(50.0, 50.0, 60.0, 60.0));
        assert_eq!(hits, vec!["big"]);
    }
}
