//! The byte-budgeted LRU map behind both process-wide caches:
//! [`DistCache`](crate::DistCache) (substrate + APSP, keyed by
//! `(spec, seed)`) and [`TraceCache`](crate::TraceCache) (recorded demand,
//! keyed by [`TraceKey`](crate::TraceKey)). Each wraps one `ByteLru` and
//! only decides its key and how a value is built and sized.
//!
//! Discipline shared by both:
//!
//! * values are built **outside** the lock, so misses on different keys
//!   proceed in parallel under the seed-fanning runner; racing builders of
//!   one key do duplicate (bit-identical) work and the first insert is
//!   kept — later callers adopt it;
//! * a value larger than the whole budget is handed out uncached instead
//!   of evicting everything else (a budget of `0` therefore disables
//!   caching);
//! * every hit and every insert takes a fresh tick of the recency clock
//!   *under the lock*, so an entry is never older than the moment it was
//!   last handed out — even if other lookups completed while it was being
//!   built.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Hit/miss/eviction counters of a cache, snapshotted by `stats()` and
/// recorded in the result manifest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build their value.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads a byte budget from the environment variable `var`, falling back
/// to `default` when it is unset or not a number.
pub(crate) fn capacity_from_env(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Entry<V> {
    value: V,
    /// Clock tick of the last hit or insert (the LRU order).
    last_used: u64,
    bytes: usize,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
    /// Sum of the retained entries' `bytes`.
    bytes: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Inner<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Returns the retained value for `key`, marking it most recent.
    fn touch(&mut self, key: &K) -> Option<V> {
        let now = self.tick();
        let entry = self.map.get_mut(key)?;
        entry.last_used = now;
        Some(entry.value.clone())
    }

    /// Inserts `value` unless a racing builder got there first, and
    /// returns whichever is retained, marked most recent.
    fn insert_or_adopt(&mut self, key: K, value: V, bytes: usize) -> V {
        let now = self.tick();
        let entry = self.map.entry(key).or_insert_with(|| {
            self.bytes += bytes;
            Entry {
                value,
                last_used: now,
                bytes,
            }
        });
        entry.last_used = now;
        entry.value.clone()
    }

    /// Evicts least-recently-used entries until `capacity` holds; returns
    /// how many went.
    fn evict_to_capacity(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("a positive byte total has a retained entry");
            let entry = self.map.remove(&oldest).expect("the key was just found");
            self.bytes -= entry.bytes;
            evicted += 1;
        }
        evicted
    }
}

/// A thread-safe map from `K` to cheaply clonable `V` (typically
/// `Arc`-backed) that retains at most `capacity_bytes` of values, evicting
/// least-recently-used entries, and counts hits, misses and evictions.
pub(crate) struct ByteLru<K, V> {
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity_bytes: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> ByteLru<K, V> {
    /// Creates an empty cache with the given byte budget (`0` disables
    /// caching: every lookup builds and nothing is retained).
    pub(crate) fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        ByteLru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity_bytes,
        }
    }

    /// The map; builders run outside it, so only a panicking `K::hash`,
    /// `K::eq` or `V::clone` could poison it.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("ByteLru lock poisoned by a panic")
    }

    /// Returns the value for `key`, building it with `build` (which
    /// returns the value and its size in bytes) on a miss. A failed build
    /// retains nothing; its error propagates unchanged.
    pub(crate) fn get_or_try_insert_with<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<V, E> {
        if let Some(value) = self.lock().touch(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (value, bytes) = build()?;
        if bytes > self.capacity_bytes {
            return Ok(value); // too large to retain (or caching disabled)
        }
        let mut inner = self.lock();
        let value = inner.insert_or_adopt(key, value, bytes);
        let evicted = inner.evict_to_capacity(self.capacity_bytes);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(value)
    }

    /// Infallible [`Self::get_or_try_insert_with`].
    pub(crate) fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> (V, usize)) -> V {
        match self.get_or_try_insert_with(key, || Ok::<_, std::convert::Infallible>(build())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// Number of retained entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops all entries and resets the counters.
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<K: Eq + Hash + Clone + Ord, V: Clone> ByteLru<K, V> {
        fn sorted_keys(&self) -> Vec<K> {
            let mut keys: Vec<K> = self.lock().map.keys().cloned().collect();
            keys.sort();
            keys
        }
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // Budget fits exactly two 100-byte values.
        let lru = ByteLru::with_capacity_bytes(200);
        lru.get_or_insert_with(1, || (10, 100));
        lru.get_or_insert_with(2, || (20, 100));
        assert_eq!(lru.len(), 2);
        // Touch 1 so 2 is the LRU victim.
        assert_eq!(lru.get_or_insert_with(1, || panic!("cached")), 10);
        lru.get_or_insert_with(3, || (30, 100));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 1);
        assert_eq!(lru.sorted_keys(), [1, 3]);
        let misses = lru.stats().misses;
        lru.get_or_insert_with(2, || (20, 100));
        assert_eq!(lru.stats().misses, misses + 1, "evicted entry rebuilds");
    }

    #[test]
    fn over_budget_values_are_handed_out_uncached() {
        let lru = ByteLru::with_capacity_bytes(100);
        lru.get_or_insert_with(1, || (10, 60));
        assert_eq!(lru.get_or_insert_with(2, || (20, 101)), 20);
        assert_eq!(lru.sorted_keys(), [1], "the big value evicted nothing");
        assert_eq!(lru.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let lru = ByteLru::with_capacity_bytes(0);
        lru.get_or_insert_with(1, || (10, 1));
        lru.get_or_insert_with(1, || (10, 1));
        assert_eq!(lru.stats().misses, 2);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn failed_build_retains_nothing() {
        let lru: ByteLru<u32, u32> = ByteLru::with_capacity_bytes(100);
        let err = lru.get_or_try_insert_with(1, || Err("boom"));
        assert_eq!(err, Err("boom"));
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.stats().misses, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let lru = ByteLru::with_capacity_bytes(100);
        lru.get_or_insert_with(1, || (10, 60));
        lru.get_or_insert_with(1, || (10, 60));
        lru.clear();
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.stats(), CacheStats::default());
        // the byte total was reset too: a full-budget value fits again
        lru.get_or_insert_with(2, || (20, 100));
        assert_eq!(lru.sorted_keys(), [2]);
    }

    #[test]
    fn concurrent_same_key_lookups_converge() {
        use rayon::prelude::*;
        use std::sync::Arc;
        let lru = ByteLru::with_capacity_bytes(100);
        let values: Vec<Arc<u32>> = (0..8)
            .into_par_iter()
            .map(|_| lru.get_or_insert_with(7, || (Arc::new(70), 10)))
            .collect();
        assert_eq!(lru.len(), 1);
        let canonical = lru.get_or_insert_with(7, || panic!("cached"));
        for v in values {
            // Racing builders may hold a pre-insert copy with identical
            // contents; post-race lookups share the inserted Arc.
            assert_eq!(v, canonical);
        }
        let s = lru.stats();
        assert_eq!(s.hits + s.misses, 9);
        assert!(s.misses >= 1);
    }

    /// The reference: a recency-ordered `Vec` (front = least recent).
    struct Model {
        order: Vec<(u8, u32, usize)>,
        capacity: usize,
        stats: CacheStats,
    }

    impl Model {
        fn get_or_insert(&mut self, key: u8, value: u32, bytes: usize) -> u32 {
            if let Some(i) = self.order.iter().position(|e| e.0 == key) {
                let entry = self.order.remove(i);
                self.order.push(entry);
                self.stats.hits += 1;
                return entry.1;
            }
            self.stats.misses += 1;
            if bytes > self.capacity {
                return value;
            }
            self.order.push((key, value, bytes));
            while self.order.iter().map(|e| e.2).sum::<usize>() > self.capacity {
                self.order.remove(0);
                self.stats.evictions += 1;
            }
            value
        }

        fn sorted_keys(&self) -> Vec<u8> {
            let mut keys: Vec<u8> = self.order.iter().map(|e| e.0).collect();
            keys.sort();
            keys
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_a_naive_lru(
            // one case in eight runs the zero budget
            capacity in (0usize..160).prop_map(|c| c.saturating_sub(20)),
            ops in prop::collection::vec((0u64..8, 0usize..60), 1..80),
        ) {
            let lru = ByteLru::with_capacity_bytes(capacity);
            let mut model = Model { order: Vec::new(), capacity, stats: CacheStats::default() };
            for (i, &(key, bytes)) in ops.iter().enumerate() {
                let key = key as u8;
                // the value names the op that built it, so a hit that
                // returns a stale or foreign value shows up
                let value = i as u32;
                let got = lru.get_or_insert_with(key, || (value, bytes));
                let want = model.get_or_insert(key, value, bytes);
                prop_assert_eq!(got, want, "op {} (key {}, {} bytes)", i, key, bytes);
                prop_assert_eq!(lru.stats(), model.stats, "op {}", i);
                prop_assert_eq!(lru.sorted_keys(), model.sorted_keys(), "op {}", i);
            }
        }
    }
}
