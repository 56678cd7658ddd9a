//! A weighted LRU cache (backend tile/box cache).

use kyrix_storage::fxhash::FxHashMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// Hit/miss/eviction accounting of one cache, distinguishing entries
/// pushed out by weight pressure (capacity) from entries dropped by
/// invalidation (`retain`/`remove`/`clear` after a data mutation). The
/// split is what makes cache-size tuning actionable: capacity evictions
/// call for a bigger cache, invalidation removals do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted because an insert pushed total weight past capacity.
    pub capacity_evictions: u64,
    /// Entries dropped by `retain`/`remove`/`clear` (invalidation and
    /// explicit removal — anything other than capacity pressure).
    pub invalidation_removals: u64,
    /// Total weight of entries removed for either cause.
    pub evicted_weight: u64,
}

impl CacheStats {
    /// Entries removed for any cause.
    pub fn total_removals(&self) -> u64 {
        self.capacity_evictions + self.invalidation_removals
    }
}

/// LRU cache where each entry carries a weight (e.g. tuple count) and the
/// cache evicts least-recently-used entries once total weight exceeds
/// capacity. A zero-capacity cache stores nothing.
pub struct LruCache<K, V> {
    map: FxHashMap<K, (V, usize, u64)>, // value, weight, stamp
    /// Stamps, oldest first. Lazy: a touch or a removal leaves the key's
    /// older records behind (eviction skips them), and
    /// [`LruCache::compact`] drops them once they outnumber the entries.
    order: VecDeque<(u64, K)>,
    capacity: usize,
    weight: usize,
    next_stamp: u64,
    stats: CacheStats,
    /// Bumped by [`LruCache::clear`]: a value computed for the cache
    /// before a clear compares it and stays out.
    generation: u64,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` total weight.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            weight: 0,
            next_stamp: 0,
            stats: CacheStats::default(),
            generation: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total weight of live entries.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Weight capacity this cache was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accounting since creation or the last
    /// [`LruCache::reset_stats`]: hits, misses, and removals split by
    /// cause (capacity eviction vs. invalidation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// How many times the cache was [`LruCache::clear`]ed: a writer that
    /// read it before computing a value inserts the value only if it has
    /// not moved, so nothing computed before a clear lands after it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Zero the statistics (entries are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn touch(&mut self, key: &K) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(entry) = self.map.get_mut(key) {
            entry.2 = stamp;
            self.order.push_back((stamp, key.clone()));
            self.compact();
        }
    }

    /// Drop the stale records from `order` once it exceeds `2 × len + 64`:
    /// afterwards it holds one record per entry, so the next compaction is
    /// at least `len + 64` pushes away and each push pays O(1) amortised.
    /// Records keep their relative order, so recency does too.
    fn compact(&mut self) {
        if self.order.len() > 2 * self.map.len() + 64 {
            let map = &self.map;
            self.order
                .retain(|(stamp, k)| map.get(k).is_some_and(|e| e.2 == *stamp));
        }
    }

    /// Look up and mark as recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.map.contains_key(key) {
            self.stats.hits += 1;
            self.touch(key);
            self.map.get(key).map(|(v, _, _)| v)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Check presence without stats/recency effects.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _, _)| v)
    }

    /// Insert an entry with a weight; evicts LRU entries as needed.
    /// Entries heavier than the whole capacity are not stored.
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        if self.capacity == 0 || weight > self.capacity {
            return;
        }
        if let Some((_, w, _)) = self.map.remove(&key) {
            self.weight -= w;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(key.clone(), (value, weight, stamp));
        self.order.push_back((stamp, key));
        self.weight += weight;
        self.evict();
        self.compact();
    }

    fn evict(&mut self) {
        while self.weight > self.capacity {
            let Some((stamp, key)) = self.order.pop_front() else {
                return;
            };
            // skip stale order entries (the key was touched again later)
            match self.map.get(&key) {
                Some((_, _, live_stamp)) if *live_stamp == stamp => {
                    let (_, w, _) = self.map.remove(&key).expect("checked");
                    self.weight -= w;
                    self.stats.capacity_evictions += 1;
                    self.stats.evicted_weight += w as u64;
                }
                _ => {}
            }
        }
    }

    /// Keep only the entries satisfying the predicate (e.g. surgical
    /// invalidation after a data mutation), returning the values of the
    /// others so the caller decides where they are freed. Weights are
    /// adjusted; the recency order of survivors is preserved.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &V) -> bool) -> Vec<V> {
        let mut dropped = 0usize;
        let removed: Vec<V> = self
            .map
            .extract_if(|k, (v, _, _)| !f(k, v))
            .map(|(_, (v, w, _))| {
                dropped += w;
                v
            })
            .collect();
        self.weight -= dropped;
        self.stats.invalidation_removals += removed.len() as u64;
        self.stats.evicted_weight += dropped as u64;
        let map = &self.map;
        self.order.retain(|(_, k)| map.contains_key(k));
        removed
    }

    /// Remove one entry, returning its value (counts as an invalidation
    /// removal, not a capacity eviction).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, w, _)| {
            self.weight -= w;
            self.stats.invalidation_removals += 1;
            self.stats.evicted_weight += w as u64;
            v
        })
    }

    /// Drop every entry (counted as invalidation removals) and bump the
    /// [`LruCache::generation`].
    pub fn clear(&mut self) {
        self.generation += 1;
        self.stats.invalidation_removals += self.map.len() as u64;
        self.stats.evicted_weight += self.weight as u64;
        self.map.clear();
        self.order.clear();
        self.weight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c: LruCache<u32, &str> = LruCache::new(10);
        c.insert(1, "one", 1);
        c.insert(2, "two", 1);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.total_removals(), 0);
    }

    #[test]
    fn evicts_lru_by_weight() {
        let mut c: LruCache<u32, u32> = LruCache::new(10);
        for i in 0..10 {
            c.insert(i, i, 1);
        }
        assert_eq!(c.len(), 10);
        // touch 0 so 1 becomes LRU
        c.get(&0);
        c.insert(100, 100, 1);
        assert!(c.peek(&0).is_some(), "recently used survives");
        assert!(c.peek(&1).is_none(), "LRU evicted");
        assert_eq!(c.weight(), 10);
        let s = c.stats();
        assert_eq!(s.capacity_evictions, 1, "one entry pushed out by weight");
        assert_eq!(s.invalidation_removals, 0);
        assert_eq!(s.evicted_weight, 1);
    }

    #[test]
    fn heavy_entries_evict_many() {
        let mut c: LruCache<u32, ()> = LruCache::new(10);
        for i in 0..10 {
            c.insert(i, (), 1);
        }
        c.insert(99, (), 8);
        assert!(c.weight() <= 10);
        assert!(c.peek(&99).is_some());
        assert!(c.len() <= 3);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c: LruCache<u32, ()> = LruCache::new(5);
        c.insert(1, (), 6);
        assert!(c.is_empty());
        // zero capacity stores nothing
        let mut z: LruCache<u32, ()> = LruCache::new(0);
        z.insert(1, (), 0);
        assert!(z.peek(&1).is_none());
    }

    #[test]
    fn reinsert_updates_weight() {
        let mut c: LruCache<u32, &str> = LruCache::new(10);
        c.insert(1, "a", 4);
        c.insert(1, "b", 2);
        assert_eq!(c.weight(), 2);
        assert_eq!(c.peek(&1), Some(&"b"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let mut c: LruCache<u32, u32> = LruCache::new(10);
        c.insert(1, 10, 3);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.weight(), 0);
        c.insert(2, 20, 3);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.weight(), 0);
        let s = c.stats();
        assert_eq!(s.invalidation_removals, 2, "remove + clear both count");
        assert_eq!(c.generation(), 1, "only the clear moves the generation");
        assert_eq!(s.evicted_weight, 6);
    }

    #[test]
    fn zero_capacity_stores_nothing_but_counts_stats() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10, 1);
        c.insert(2, 20, 0); // even weightless entries are rejected
        assert!(c.is_empty());
        assert_eq!(c.weight(), 0);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 2), "misses are still counted");
        // the lazy order queue must not accumulate anything either
        assert_eq!(c.remove(&1), None);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn single_entry_at_exact_capacity_evicts_everything_else() {
        let mut c: LruCache<u32, u32> = LruCache::new(5);
        for i in 0..5 {
            c.insert(i, i, 1);
        }
        // generate stale order records for every key, oldest-first
        for i in (0..5).rev() {
            c.get(&i);
        }
        // a capacity-weight entry must push out all five, skipping the
        // five stale queue records on its way
        c.insert(99, 99, 5);
        assert_eq!(c.len(), 1);
        assert_eq!(c.weight(), 5);
        assert_eq!(c.peek(&99), Some(&99));
        for i in 0..5 {
            assert!(c.peek(&i).is_none(), "key {i} must be evicted");
        }
        // one unit past capacity is still rejected, leaving the cache as-is
        c.insert(100, 100, 6);
        assert_eq!(c.peek(&99), Some(&99));
        assert!(c.peek(&100).is_none());
    }

    #[test]
    fn reinserting_the_sole_entry_does_not_self_evict() {
        // the old stamp becomes stale on reinsert; eviction must skip it
        // rather than dropping the fresh entry
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a", 2);
        c.insert(1, "b", 2);
        assert_eq!(c.peek(&1), Some(&"b"));
        assert_eq!(c.weight(), 2);
        c.insert(2, "c", 2); // evicts 1 through its *live* stamp
        assert_eq!(c.peek(&1), None);
        assert_eq!(c.peek(&2), Some(&"c"));
        assert_eq!(c.weight(), 2);
    }

    #[test]
    fn retain_adjusts_weight_and_preserves_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i * 10, 1);
        }
        c.get(&0); // 1 becomes LRU
        let mut removed = c.retain(|k, _| k % 2 == 0); // drop 1 and 3
        removed.sort_unstable();
        assert_eq!(removed, vec![10, 30], "the removed values come back");
        assert_eq!(c.len(), 2);
        assert_eq!(c.weight(), 2);
        let s = c.stats();
        assert_eq!(
            s.invalidation_removals, 2,
            "retain drops count as invalidation"
        );
        assert_eq!(s.capacity_evictions, 0);
        assert_eq!(s.evicted_weight, 2);
        assert!(c.peek(&1).is_none() && c.peek(&3).is_none());
        // eviction still works off the surviving recency order: 2 is LRU
        c.insert(4, 40, 1);
        c.insert(5, 50, 1);
        c.insert(6, 60, 1);
        assert!(c.peek(&2).is_none(), "surviving LRU evicted first");
        assert!(c.peek(&0).is_some(), "recently touched survivor stays");
    }

    #[test]
    fn hits_below_capacity_keep_the_order_queue_bounded() {
        let mut c: LruCache<u32, u32> = LruCache::new(1000);
        for i in 0..16 {
            c.insert(i, i, 1);
        }
        for n in 0..1_000_000u32 {
            assert!(c.get(&(n % 16)).is_some());
            assert!(
                c.order.len() <= 2 * c.len() + 64,
                "{} records",
                c.order.len()
            );
        }
        // removals leave records behind; the next push clears them
        for i in 0..8 {
            c.remove(&i);
        }
        c.insert(99, 99, 1);
        assert!(c.order.len() <= 2 * c.len() + 64);
        // recency survives the compactions: after the loop 0 is the least
        // recently used key and 3 was just touched
        let mut small: LruCache<u32, u32> = LruCache::new(16);
        for i in 0..16 {
            small.insert(i, i, 1);
        }
        for n in 0..10_000u32 {
            small.get(&(n % 16));
        }
        small.get(&3);
        small.insert(100, 100, 1);
        assert!(small.peek(&0).is_none(), "the least recently used goes");
        assert!(small.peek(&3).is_some() && small.peek(&100).is_some());
        assert_eq!(small.len(), 16);
    }

    #[test]
    fn stale_order_entries_skipped() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        c.insert(1, 1, 1);
        c.insert(2, 2, 1);
        // touch 1 many times to generate stale order records
        for _ in 0..5 {
            c.get(&1);
        }
        c.insert(3, 3, 1);
        c.insert(4, 4, 1); // must evict 2 (the true LRU), not 1
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&2).is_none());
    }
}
