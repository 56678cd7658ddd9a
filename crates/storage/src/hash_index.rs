//! A chained hash index with incremental growth.
//!
//! Used for equality probes on `tuple_id` in the paper's tuple–tile mapping
//! join. Supports duplicate keys (multi-map semantics).

use crate::fxhash::FxBuildHasher;
use std::hash::{BuildHasher, Hash};

const INITIAL_BUCKETS: usize = 16;
const MAX_LOAD_NUM: usize = 3; // resize when len > buckets * 3/4
const MAX_LOAD_DEN: usize = 4;

/// A hash index mapping keys to (possibly many) values.
///
/// Unlike the heap, the B+tree and the R-tree, `Clone` deep-copies every
/// bucket: hash indexes sit only on the record tables of tuple–tile mapping
/// layers, which the server refuses to mutate, so no snapshot write path
/// ever clones one.
#[derive(Clone)]
pub struct HashIndex<K, V> {
    buckets: Vec<Vec<(K, V)>>,
    len: usize,
    hasher: FxBuildHasher,
}

impl<K: Hash + Eq + Clone, V: Clone> Default for HashIndex<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> HashIndex<K, V> {
    pub fn new() -> Self {
        Self::with_capacity(INITIAL_BUCKETS)
    }

    pub fn with_capacity(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(INITIAL_BUCKETS);
        HashIndex {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            len: 0,
            hasher: FxBuildHasher::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) & (self.buckets.len() - 1)
    }

    /// Insert an entry. Duplicate keys are kept.
    pub fn insert(&mut self, key: K, val: V) {
        if self.len * MAX_LOAD_DEN > self.buckets.len() * MAX_LOAD_NUM {
            self.grow();
        }
        let b = self.bucket_of(&key);
        self.buckets[b].push((key, val));
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        let mut new_buckets: Vec<Vec<(K, V)>> = (0..new_size).map(|_| Vec::new()).collect();
        for bucket in self.buckets.drain(..) {
            for (k, v) in bucket {
                let idx = (self.hasher.hash_one(&k) as usize) & (new_size - 1);
                new_buckets[idx].push((k, v));
            }
        }
        self.buckets = new_buckets;
    }

    /// First value for `key`.
    pub fn get_first(&self, key: &K) -> Option<&V> {
        let b = self.bucket_of(key);
        self.buckets[b]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Visit every value stored under `key`; returns the match count.
    pub fn for_each_eq<F: FnMut(&V)>(&self, key: &K, mut f: F) -> usize {
        let b = self.bucket_of(key);
        let mut n = 0;
        for (k, v) in &self.buckets[b] {
            if k == key {
                f(v);
                n += 1;
            }
        }
        n
    }

    pub fn get_all(&self, key: &K) -> Vec<V> {
        let mut out = Vec::new();
        self.for_each_eq(key, |v| out.push(v.clone()));
        out
    }

    /// Remove the first entry under `key` whose value satisfies `pred`.
    pub fn remove_one<F: Fn(&V) -> bool>(&mut self, key: &K, pred: F) -> Option<V> {
        let b = self.bucket_of(key);
        let bucket = &mut self.buckets[b];
        if let Some(pos) = bucket.iter().position(|(k, v)| k == key && pred(v)) {
            let (_, v) = bucket.remove(pos);
            self.len -= 1;
            return Some(v);
        }
        None
    }

    /// Visit all entries (arbitrary order).
    pub fn for_each<F: FnMut(&K, &V)>(&self, mut f: F) {
        for bucket in &self.buckets {
            for (k, v) in bucket {
                f(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_many() {
        let mut h: HashIndex<u64, u64> = HashIndex::new();
        for i in 0..10_000 {
            h.insert(i, i + 1);
        }
        assert_eq!(h.len(), 10_000);
        for i in (0..10_000).step_by(97) {
            assert_eq!(h.get_first(&i), Some(&(i + 1)));
        }
        assert_eq!(h.get_first(&10_001), None);
        assert!(h.bucket_count() >= 10_000 * MAX_LOAD_DEN / MAX_LOAD_NUM / 2);
    }

    #[test]
    fn duplicates_supported() {
        let mut h: HashIndex<u32, &str> = HashIndex::new();
        h.insert(1, "a");
        h.insert(1, "b");
        h.insert(2, "c");
        let mut all = h.get_all(&1);
        all.sort();
        assert_eq!(all, vec!["a", "b"]);
        assert_eq!(h.for_each_eq(&1, |_| {}), 2);
    }

    #[test]
    fn remove_one_by_predicate() {
        let mut h: HashIndex<u32, u32> = HashIndex::new();
        h.insert(9, 100);
        h.insert(9, 200);
        assert_eq!(h.remove_one(&9, |v| *v == 200), Some(200));
        assert_eq!(h.get_all(&9), vec![100]);
        assert_eq!(h.remove_one(&9, |v| *v == 999), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn grow_preserves_entries() {
        let mut h: HashIndex<u64, u64> = HashIndex::with_capacity(16);
        for i in 0..1000 {
            h.insert(i % 10, i);
        }
        let mut total = 0;
        for k in 0..10u64 {
            total += h.get_all(&k).len();
        }
        assert_eq!(total, 1000);
    }
}
