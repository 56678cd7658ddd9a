//! An in-memory B+tree with duplicate-key support and leaf chaining.
//!
//! This is the index behind the paper's *tuple–tile mapping* design: a B-tree
//! on `mapping.tile_id` (non-unique: one tile maps to many tuples) and on
//! `record.tuple_id` (unique). Nodes live in a copy-on-write arena
//! ([`Spine`]) and leaves are chained for range scans. Cloning a tree shares
//! every node; a writer copies exactly the nodes it changes (indexing the
//! arena mutably), and because the arena index is a node's identity in every
//! version, neither parents nor the leaf chain need fix-ups. Descents are
//! read-only until they reach the node that changes.
//!
//! Deletion is *lazy*: entries are removed from leaves without rebalancing.
//! Kyrix workloads are read-only after load (paper §3.2, "Kyrix applications
//! function like read-only browsers"), so structural deletes are not on the
//! hot path.

use crate::spine::{Copies, Spine};

/// Maximum number of keys per node before a split.
const DEFAULT_ORDER: usize = 64;

#[derive(Clone)]
enum Node<K, V> {
    Internal {
        keys: Vec<K>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
        next: Option<usize>,
    },
}

/// B+tree supporting duplicate keys.
///
/// `Clone` shares every node with the original; see the module docs.
#[derive(Clone)]
pub struct BPlusTree<K, V> {
    nodes: Spine<Node<K, V>>,
    root: usize,
    len: usize,
    order: usize,
}

impl<K: Ord + Clone, V: Clone> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// `order` = max keys per node; must be at least 3.
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "B+tree order must be >= 3");
        let mut nodes = Spine::new();
        let root = nodes.push(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: None,
        });
        BPlusTree {
            nodes,
            root,
            len: 0,
            order,
        }
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

    /// Number of entries (duplicates counted).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = just a root leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Insert an entry. Duplicate keys are kept in insertion order.
    pub fn insert(&mut self, key: K, val: V) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, val) {
            let old_root = self.root;
            self.root = self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
        }
        self.len += 1;
    }

    /// Recursive insert; returns the separator and new right sibling if
    /// `node` split. Internal nodes are only read unless a child split.
    fn insert_rec(&mut self, node: usize, key: K, val: V) -> Option<(K, usize)> {
        let order = self.order;
        let child = match &self.nodes[node] {
            Node::Leaf { .. } => None,
            Node::Internal { keys, children } => {
                Some(children[keys.partition_point(|k| *k <= key)])
            }
        };
        let Some(child) = child else {
            let Node::Leaf { keys, vals, .. } = &mut self.nodes[node] else {
                unreachable!()
            };
            // insert after existing equal keys to keep insertion order
            let pos = keys.partition_point(|k| *k <= key);
            keys.insert(pos, key);
            vals.insert(pos, val);
            let overfull = keys.len() > order;
            return overfull.then(|| self.split_leaf(node));
        };
        let (sep, right) = self.insert_rec(child, key, val)?;
        let Node::Internal { keys, children } = &mut self.nodes[node] else {
            unreachable!()
        };
        let pos = keys.partition_point(|k| *k <= sep);
        keys.insert(pos, sep);
        children.insert(pos + 1, right);
        let overfull = keys.len() > order;
        overfull.then(|| self.split_internal(node))
    }

    fn split_leaf(&mut self, node: usize) -> (K, usize) {
        let new_idx = self.nodes.len();
        let (sep, right) = if let Node::Leaf { keys, vals, next } = &mut self.nodes[node] {
            let mid = keys.len() / 2;
            let rkeys: Vec<K> = keys.split_off(mid);
            let rvals: Vec<V> = vals.split_off(mid);
            let sep = rkeys[0].clone();
            let right = Node::Leaf {
                keys: rkeys,
                vals: rvals,
                next: next.take(),
            };
            *next = Some(new_idx);
            (sep, right)
        } else {
            unreachable!("split_leaf on internal node")
        };
        self.nodes.push(right);
        (sep, new_idx)
    }

    fn split_internal(&mut self, node: usize) -> (K, usize) {
        let new_idx = self.nodes.len();
        let (sep, right) = if let Node::Internal { keys, children } = &mut self.nodes[node] {
            let mid = keys.len() / 2;
            let rkeys: Vec<K> = keys.split_off(mid + 1);
            let sep = keys.pop().expect("internal node must have keys");
            let rchildren: Vec<usize> = children.split_off(mid + 1);
            (
                sep,
                Node::Internal {
                    keys: rkeys,
                    children: rchildren,
                },
            )
        } else {
            unreachable!("split_internal on leaf")
        };
        self.nodes.push(right);
        (sep, new_idx)
    }

    /// Leaf that may contain the smallest entry `>= key`.
    fn find_leaf(&self, key: &K) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k < key);
                    node = children[idx];
                }
            }
        }
    }

    /// Visit every value with this exact key.
    pub fn for_each_eq<F: FnMut(&V)>(&self, key: &K, mut f: F) -> usize {
        let mut count = 0;
        self.for_range(key, key, |_, v| {
            f(v);
            count += 1;
        });
        count
    }

    /// All values with this exact key, in insertion order.
    pub fn get_all(&self, key: &K) -> Vec<V> {
        let mut out = Vec::new();
        self.for_each_eq(key, |v| out.push(v.clone()));
        out
    }

    /// Visit all entries with `lo <= key <= hi` in key order.
    pub fn for_range<F: FnMut(&K, &V)>(&self, lo: &K, hi: &K, mut f: F) {
        if lo > hi {
            return;
        }
        let mut leaf = self.find_leaf(lo);
        loop {
            if let Node::Leaf { keys, vals, next } = &self.nodes[leaf] {
                let start = keys.partition_point(|k| k < lo);
                for i in start..keys.len() {
                    if &keys[i] > hi {
                        return;
                    }
                    f(&keys[i], &vals[i]);
                }
                match next {
                    Some(n) => leaf = *n,
                    None => return,
                }
            } else {
                unreachable!("find_leaf returned internal node")
            }
        }
    }

    /// Collect a range as owned pairs.
    pub fn range_collect(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.for_range(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Remove the first entry equal to `key` whose value satisfies `pred`.
    /// Lazy removal: the tree is not rebalanced. The walk along the key run
    /// is read-only; only the leaf that loses the entry is written.
    pub fn remove_one<F: Fn(&V) -> bool>(&mut self, key: &K, pred: F) -> Option<V> {
        let mut leaf = self.find_leaf(key);
        let pos = loop {
            let Node::Leaf { keys, vals, next } = &self.nodes[leaf] else {
                unreachable!("find_leaf returned internal node")
            };
            let start = keys.partition_point(|k| k < key);
            let run = keys[start..].iter().take_while(|k| *k == key).count();
            if let Some(i) = (start..start + run).find(|&i| pred(&vals[i])) {
                break i;
            }
            if start + run < keys.len() {
                return None; // moved past the key run
            }
            leaf = (*next)?;
        };
        self.len -= 1;
        let Node::Leaf { keys, vals, .. } = &mut self.nodes[leaf] else {
            unreachable!()
        };
        keys.remove(pos);
        Some(vals.remove(pos))
    }

    /// Visit all entries in key order.
    pub fn for_each<F: FnMut(&K, &V)>(&self, mut f: F) {
        self.for_each_while(|k, v| {
            f(k, v);
            true
        });
    }

    /// Visit entries in ascending key order until `f` returns false.
    /// Equal keys arrive in insertion order; lazily-emptied leaves are
    /// skipped via the leaf chain. This is the early-exit walk behind the
    /// SQL layer's index-backed top-N and MIN edge descent: the caller
    /// pays for exactly the prefix it consumes.
    pub fn for_each_while<F: FnMut(&K, &V) -> bool>(&self, mut f: F) {
        // leftmost leaf
        let mut node = self.root;
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
        }
        let mut leaf = node;
        while let Node::Leaf { keys, vals, next } = &self.nodes[leaf] {
            for (k, v) in keys.iter().zip(vals) {
                if !f(k, v) {
                    return;
                }
            }
            match next {
                Some(n) => leaf = *n,
                None => return,
            }
        }
    }

    /// Visit entries in *descending* key order until `f` returns false.
    /// Leaves are only chained forward, so this descends the arena
    /// right-to-left instead (recursion depth = tree height); lazily
    /// emptied leaves contribute nothing and are skipped naturally. Equal
    /// keys arrive in *reverse* insertion order — callers that need a
    /// stable-sort-compatible order buffer each equal-key run (see
    /// `Table::index_ordered_walk`). Backs MAX edge descent and
    /// descending top-N.
    pub fn for_each_rev_while<F: FnMut(&K, &V) -> bool>(&self, mut f: F) {
        self.rev_walk(self.root, &mut f);
    }

    fn rev_walk<F: FnMut(&K, &V) -> bool>(&self, node: usize, f: &mut F) -> bool {
        match &self.nodes[node] {
            Node::Leaf { keys, vals, .. } => {
                for (k, v) in keys.iter().zip(vals).rev() {
                    if !f(k, v) {
                        return false;
                    }
                }
                true
            }
            Node::Internal { children, .. } => {
                for &c in children.iter().rev() {
                    if !self.rev_walk(c, f) {
                        return false;
                    }
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup_sequential() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..1000i64 {
            t.insert(i, i * 10);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.height() > 1);
        for i in 0..1000i64 {
            assert_eq!(t.get_all(&i), vec![i * 10], "key {i}");
        }
        assert!(t.get_all(&-1).is_empty());
        assert!(t.get_all(&1000).is_empty());
    }

    #[test]
    fn insert_reverse_and_shuffled() {
        let mut t = BPlusTree::with_order(5);
        for i in (0..500i64).rev() {
            t.insert(i, i);
        }
        // shuffled-ish second pass of duplicates
        for i in 0..500i64 {
            t.insert((i * 7919) % 500, -1);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..500i64 {
            let all = t.get_all(&i);
            assert_eq!(all.len(), 2, "key {i}");
            assert_eq!(all[0], i, "original value first for key {i}");
        }
    }

    #[test]
    fn duplicates_kept_and_scanned() {
        let mut t = BPlusTree::with_order(4);
        for v in 0..100 {
            t.insert(42i64, v);
        }
        t.insert(41, -1);
        t.insert(43, -2);
        let all = t.get_all(&42);
        assert_eq!(all.len(), 100);
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_ordered() {
        let mut t = BPlusTree::with_order(4);
        for i in (0..200i64).step_by(2) {
            t.insert(i, i);
        }
        let r = t.range_collect(&10, &20);
        assert_eq!(
            r.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18, 20]
        );
        let empty = t.range_collect(&21, &21);
        assert!(empty.is_empty());
        let inverted = t.range_collect(&20, &10);
        assert!(inverted.is_empty());
    }

    #[test]
    fn for_each_is_sorted() {
        let mut t = BPlusTree::with_order(4);
        for i in [5i64, 3, 9, 1, 7, 3, 5] {
            t.insert(i, ());
        }
        let mut keys = Vec::new();
        t.for_each(|k, _| keys.push(*k));
        assert_eq!(keys, vec![1, 3, 3, 5, 5, 7, 9]);
    }

    #[test]
    fn remove_one_removes_matching_value() {
        let mut t = BPlusTree::with_order(4);
        t.insert(1i64, "a");
        t.insert(1, "b");
        t.insert(1, "c");
        assert_eq!(t.remove_one(&1, |v| *v == "b"), Some("b"));
        assert_eq!(t.get_all(&1), vec!["a", "c"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove_one(&1, |v| *v == "zzz"), None);
        assert_eq!(t.remove_one(&2, |_| true), None);
    }

    #[test]
    fn a_write_on_a_clone_copies_only_the_nodes_it_changes() {
        let mut base = BPlusTree::with_order(4);
        for i in 0..500i64 {
            base.insert(i * 2, i);
        }
        assert!(base.height() >= 4);
        for i in 0..50i64 {
            // a removal copies the leaf; finding it copies nothing
            let mut next = base.clone();
            assert_eq!(next.remove_one(&(i * 20), |_| true), Some(i * 10));
            assert_eq!(next.copies().elements, 1);
            // an insert copies the leaf, plus one parent per node it splits
            let mut next = base.clone();
            next.insert(i * 20 + 1, -1);
            let splits = (next.nodes.len() - base.nodes.len()) as u64;
            assert!((1..=1 + splits).contains(&next.copies().elements));
            assert_eq!(next.get_all(&(i * 20 + 1)), vec![-1]);
            assert_eq!(next.len(), 501);
        }
        // none of it reached the original, leaf chain included
        assert_eq!((base.len(), base.copies().elements), (500, 0));
        let mut keys = Vec::new();
        base.for_each(|k, _| keys.push(*k));
        assert_eq!(keys, (0..500).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_while_stops_early() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100i64 {
            t.insert(i, i);
        }
        let mut seen = Vec::new();
        t.for_each_while(|k, _| {
            seen.push(*k);
            seen.len() < 5
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reverse_walk_is_descending_and_stops_early() {
        let mut t = BPlusTree::with_order(4);
        for i in [5i64, 3, 9, 1, 7, 3, 5] {
            t.insert(i, ());
        }
        let mut keys = Vec::new();
        t.for_each_rev_while(|k, _| {
            keys.push(*k);
            true
        });
        assert_eq!(keys, vec![9, 7, 5, 5, 3, 3, 1]);
        let mut top = Vec::new();
        t.for_each_rev_while(|k, _| {
            top.push(*k);
            top.len() < 2
        });
        assert_eq!(top, vec![9, 7]);
    }

    #[test]
    fn edge_walks_survive_lazily_emptied_leaves() {
        let mut t = BPlusTree::with_order(3);
        for i in 0..50i64 {
            t.insert(i, i);
        }
        // lazily empty the leaves at both edges and in the middle
        for i in (0..10).chain(20..30).chain(40..50) {
            assert!(t.remove_one(&i, |_| true).is_some());
        }
        let mut first = None;
        t.for_each_while(|k, _| {
            first = Some(*k);
            false
        });
        assert_eq!(first, Some(10));
        let mut last = None;
        t.for_each_rev_while(|k, _| {
            last = Some(*k);
            false
        });
        assert_eq!(last, Some(39));
    }

    #[test]
    fn duplicate_run_across_leaf_boundary() {
        let mut t = BPlusTree::with_order(3);
        t.insert(0i64, 0);
        for v in 0..50 {
            t.insert(10, v);
        }
        t.insert(99, 0);
        assert_eq!(t.get_all(&10).len(), 50);
        assert_eq!(t.for_each_eq(&10, |_| {}), 50);
    }
}
