//! The window memo: each round's admissible beam candidates, computed once
//! per LM window (DESIGN.md §6, "GenExpan round reuse").
//!
//! The order-`n` LM reads only the last `n − 1` tokens of a round's prompt,
//! so the trie-constrained beam — and the candidates clearing the
//! generation floor — are a pure function of that window, the beam
//! parameters and the floor. The memo maps all four to the candidates' ids.
//! It is bounded: once [`MEMO_CAPACITY`] windows are stored, new windows are
//! still computed but no longer stored, so output never depends on the
//! capacity. Lookups and inserts hold the lock; the beam runs outside it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use ultra_core::{EntityId, TokenId};
use ultra_lm::ngram::MAX_ORDER;
use ultra_lm::BeamParams;

/// Most windows the memo stores. Full, with its 96 B keys, the memo holds
/// ~2 MiB at 15 ids per window and ~3 MiB at beam 40's worst case of 40.
pub(crate) const MEMO_CAPACITY: usize = 8192;

/// Everything a round's admissible candidates depend on besides the
/// instance's LM, trie and world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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

/// Memo counters (observability only: nothing that ranks reads them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Rounds whose window was stored.
    pub hits: u64,
    /// Rounds that ran the beam.
    pub misses: u64,
    /// Windows stored.
    pub windows: usize,
    /// Most windows the memo stores.
    pub capacity: usize,
}

/// A bounded, thread-safe map from round window to admissible candidate
/// ids, in beam order.
#[derive(Debug)]
pub(crate) struct WindowMemo {
    map: Mutex<BTreeMap<WindowKey, Arc<[EntityId]>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WindowMemo {
    pub(crate) fn new() -> Self {
        Self::with_capacity(MEMO_CAPACITY)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            map: Mutex::new(BTreeMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The stored candidates of `key`, or `compute()`'s, stored while the
    /// memo has room. `compute` runs without the lock held.
    pub(crate) fn get_or_compute(
        &self,
        key: WindowKey,
        compute: impl FnOnce() -> Vec<EntityId>,
    ) -> Arc<[EntityId]> {
        let stored = self.lock().get(&key).cloned();
        if let Some(ids) = stored {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ids;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ids: Arc<[EntityId]> = compute().into();
        let mut map = self.lock();
        if map.len() < self.capacity {
            // A racing round may have stored the same window first; both
            // computed the same ids.
            map.entry(key).or_insert_with(|| ids.clone());
        }
        ids
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            windows: self.lock().len(),
            capacity: self.capacity,
        }
    }

    /// The map, recovered from a poisoned lock: a panic elsewhere cannot
    /// leave it half-written, since every insert is one `BTreeMap` call.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<WindowKey, Arc<[EntityId]>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
