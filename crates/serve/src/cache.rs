//! Sharded, capacity-bounded LRU result cache.
//!
//! Keys are the full `(method, query, top-k)` triple, so two requests share
//! an entry only when the engine would compute the identical list for both —
//! the cache can change *latency*, never *bytes* (the determinism policy in
//! DESIGN.md). Sharding bounds lock contention: a key's shard is chosen by
//! its [`stable_hash64`] (process-independent, so shard assignment is
//! reproducible), and each shard serializes access with its own mutex.
//!
//! Recency is tracked per shard with a monotonic clock: a `BTreeMap` from
//! stamp to key makes eviction (pop the oldest stamp) `O(log n)` without
//! ever iterating the backing `HashMap` (whose order is hasher-dependent —
//! see ultra-lint L2, which covers this crate).

use crate::api::Method;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use ultra_core::{stable_hash64, Query, RankedList, StableBuildHasher};

use serde::{Deserialize, Serialize};

/// A cache key: everything the engine's `expand` consults.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Expansion method.
    pub method: Method,
    /// The full query (ultra-class id + both seed sets).
    pub query: Query,
    /// Requested cutoff (`0` = untruncated).
    pub top_k: usize,
}

/// Counter snapshot, served under `GET /metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: usize,
    /// Total capacity across all shards.
    pub capacity: usize,
}

struct Shard {
    map: HashMap<CacheKey, (Arc<RankedList>, u64), StableBuildHasher>,
    recency: BTreeMap<u64, CacheKey>,
    clock: u64,
    capacity: usize,
}

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<Arc<RankedList>> {
        let (value, stamp) = self.map.get(key)?;
        let (value, old_stamp) = (value.clone(), *stamp);
        self.clock += 1;
        let now = self.clock;
        self.recency.remove(&old_stamp);
        self.recency.insert(now, key.clone());
        if let Some(entry) = self.map.get_mut(key) {
            entry.1 = now;
        }
        Some(value)
    }

    /// Inserts, evicting the least-recently-used entry when full. Returns
    /// whether an eviction happened.
    fn insert(&mut self, key: CacheKey, value: Arc<RankedList>) -> bool {
        self.clock += 1;
        let now = self.clock;
        if let Some(old_stamp) = self.map.get(&key).map(|(_, stamp)| *stamp) {
            // Re-insert of a live key: refresh value + recency, no eviction.
            self.recency.remove(&old_stamp);
            self.recency.insert(now, key.clone());
            self.map.insert(key, (value, now));
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            if let Some((&oldest, _)) = self.recency.iter().next() {
                if let Some(victim) = self.recency.remove(&oldest) {
                    self.map.remove(&victim);
                    evicted = true;
                }
            }
        }
        self.recency.insert(now, key.clone());
        self.map.insert(key, (value, now));
        evicted
    }
}

/// The sharded LRU cache.
///
/// Lock order (checked by L13 `no-blocking-under-lock`): shard mutexes are
/// leaves — nothing else is acquired while one is held, and the canonical
/// workspace-wide order is pool `queue` before any cache shard. `stats`
/// takes shards one at a time, releasing each before the next.
pub struct ShardedLruCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedLruCache {
    /// Builds a cache with `capacity` total entries spread over `shards`
    /// shards (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity.max(1)).div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::default(),
                        recency: BTreeMap::new(),
                        clock: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let idx = (stable_hash64(key) % self.shards.len() as u64) as usize;
        // ultra-lint: allow(no-panic-reachable-from-serve) idx = hash % len with len >= 1, always in bounds
        &self.shards[idx]
    }

    /// Looks up a key, bumping its recency and the hit/miss counters.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<RankedList>> {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match shard.touch(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a computed result.
    pub fn insert(&self, key: CacheKey, value: Arc<RankedList>) {
        let evicted = {
            let mut shard = self
                .shard(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            shard.insert(key, value)
        };
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counter values and occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut capacity = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            entries += shard.map.len();
            capacity += shard.capacity;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::{EntityId, UltraClassId};

    fn key(i: u32, top_k: usize) -> CacheKey {
        CacheKey {
            method: Method::RetExpan,
            query: Query::new(UltraClassId::new(i), vec![EntityId::new(i)], vec![]),
            top_k,
        }
    }

    fn list(i: u32) -> Arc<RankedList> {
        Arc::new(RankedList::from_scores(vec![(EntityId::new(i), 1.0)]))
    }

    #[test]
    fn hit_returns_exactly_the_inserted_list() {
        let cache = ShardedLruCache::new(8, 2);
        assert!(cache.get(&key(1, 0)).is_none());
        cache.insert(key(1, 0), list(1));
        let got = cache.get(&key(1, 0)).expect("hit");
        assert_eq!(*got, *list(1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_top_k_are_distinct_entries() {
        let cache = ShardedLruCache::new(8, 2);
        cache.insert(key(1, 10), list(1));
        assert!(cache.get(&key(1, 20)).is_none());
        assert!(cache.get(&key(1, 10)).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Single shard so the recency order is total.
        let cache = ShardedLruCache::new(2, 1);
        cache.insert(key(1, 0), list(1));
        cache.insert(key(2, 0), list(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1, 0)).is_some());
        cache.insert(key(3, 0), list(3));
        assert!(cache.get(&key(2, 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 0)).is_some());
        assert!(cache.get(&key(3, 0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = ShardedLruCache::new(2, 1);
        cache.insert(key(1, 0), list(1));
        cache.insert(key(1, 0), list(1));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shard_assignment_is_stable() {
        let a = ShardedLruCache::new(64, 8);
        let b = ShardedLruCache::new(64, 8);
        for i in 0..32 {
            a.insert(key(i, 0), list(i));
            b.insert(key(i, 0), list(i));
        }
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            let (sa, sb) = (
                sa.lock().unwrap_or_else(PoisonError::into_inner),
                sb.lock().unwrap_or_else(PoisonError::into_inner),
            );
            assert_eq!(sa.map.len(), sb.map.len());
        }
    }

    #[test]
    fn concurrent_access_keeps_counters_consistent() {
        // Room for all 200 keys in any one shard (800 / 4 = 200 each), so no
        // thread's inserts can evict a key between another thread's `insert`
        // and `get`: every counter is exact, whatever the interleaving.
        let cache = Arc::new(ShardedLruCache::new(800, 4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let k = key(t * 50 + i, 0);
                    cache.insert(k.clone(), list(i));
                    assert!(cache.get(&k).is_some());
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 200);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 200);
    }
}
