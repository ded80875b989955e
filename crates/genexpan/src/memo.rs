//! GenExpan's cross-request memos: one bounded map type, two instances
//! (DESIGN.md §6, "GenExpan round reuse" and "Eq. 7 once per entity pair").
//!
//! * The **window memo** maps a round's LM window and beam configuration to
//!   the round's admissible candidates. The order-`n` LM reads only the last
//!   `n − 1` tokens of a round's prompt, so the trie-constrained beam — and
//!   the candidates clearing the generation floor — are a pure function of
//!   that window, the beam parameters and the floor.
//! * The **pair memo** maps an unordered entity pair to Eq. 7's per-seed
//!   term `√(P(s|f(e)) · P(e|f(s)))`, a pure function of the two names, the
//!   LM and the separator. Neither factor is NaN and IEEE multiplication
//!   commutes, so one value serves both orders.
//!
//! Each instance is bounded by one capacity constant: once full, new keys
//! are still computed but no longer stored, and nothing is evicted, so
//! output never depends on the capacity. A lookup and an insert each hold
//! the lock for one map call; the value is computed between them without
//! it. The keys are request-derived, so the map is std's `HashMap`, whose
//! SipHash is keyed per process: a crafted request stream cannot force
//! collisions.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use ultra_core::{EntityId, TokenId};
use ultra_lm::ngram::MAX_ORDER;
use ultra_lm::BeamParams;

/// Most windows the window memo stores. Full, with its 96 B keys, it holds
/// ~2.5 MiB at 15 ids per window and ~3.3 MiB at beam 40's worst case of 40.
pub(crate) const WINDOW_CAPACITY: usize = 8192;

/// Most entity pairs the pair memo stores. Full, it holds ~4.4 MiB: 16 B
/// per entry plus a control byte in each of the map's 2^18 buckets.
pub(crate) const PAIR_CAPACITY: usize = 1 << 17;

/// Everything a round's admissible candidates depend on besides the
/// instance's LM, trie and world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct WindowKey {
    beam_size: usize,
    max_len: usize,
    /// `min_gen_score`'s bits.
    floor: u64,
    len: usize,
    window: [u32; MAX_ORDER - 1],
}

impl WindowKey {
    /// The key of a round whose LM window is `window` (the prompt's last
    /// `order − 1` tokens, or all of a shorter prompt).
    pub(crate) fn new(beam: BeamParams, min_gen_score: f64, window: &[TokenId]) -> Self {
        let mut key = Self {
            beam_size: beam.beam_size,
            max_len: beam.max_len,
            floor: min_gen_score.to_bits(),
            len: window.len(),
            window: [0; MAX_ORDER - 1],
        };
        for (slot, t) in key.window.iter_mut().zip(window) {
            *slot = t.0;
        }
        key
    }
}

/// An unordered entity pair, smaller id first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PairKey(EntityId, EntityId);

impl PairKey {
    pub(crate) fn new(a: EntityId, b: EntityId) -> Self {
        Self(a.min(b), a.max(b))
    }
}

/// Memo counters (observability only: nothing that ranks reads them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that found their key stored.
    pub hits: u64,
    /// Lookups that computed their value.
    pub misses: u64,
    /// Keys stored.
    pub entries: usize,
    /// Most keys the memo stores.
    pub capacity: usize,
}

/// A bounded, thread-safe map from key to a value computed once.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    map: RwLock<HashMap<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Round window → admissible candidate ids, in beam order.
pub(crate) type WindowMemo = Memo<WindowKey, Arc<[EntityId]>>;

/// Entity pair → Eq. 7's per-seed term.
pub(crate) type PairMemo = Memo<PairKey, f64>;

impl WindowMemo {
    pub(crate) fn new() -> Self {
        Self::with_capacity(WINDOW_CAPACITY)
    }
}

impl PairMemo {
    pub(crate) fn new() -> Self {
        Self::with_capacity(PAIR_CAPACITY)
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The stored value of `key`, or `compute()`'s, stored while the memo
    /// has room. `compute` runs without the lock held.
    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let stored = self.read().get(&key).cloned();
        if let Some(value) = stored {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        let mut map = self.write();
        if map.len() < self.capacity {
            // A racing lookup may have stored the same key first; both
            // computed the same value.
            map.entry(key).or_insert_with(|| value.clone());
        }
        value
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.read().len(),
            capacity: self.capacity,
        }
    }

    /// The map, recovered from a poisoned lock: a panic elsewhere cannot
    /// leave it half-written, since every insert is one map call.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<K, V>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<K, V>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }
}
