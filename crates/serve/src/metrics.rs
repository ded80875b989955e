//! Live serving metrics: atomic counters and latency histograms.
//!
//! This is the **only** library file in the workspace that reads the wall
//! clock (`lint.toml` carries the audited `no-wallclock-in-scoring` waiver):
//! measuring request latency is its entire purpose, and no scoring decision
//! ever flows from a [`Stopwatch`] — timings feed counters, never ranked
//! output. Everything is lock-free (`AtomicU64` with relaxed ordering;
//! counters tolerate torn cross-counter reads in a snapshot).

use crate::cache::CacheStats;
use crate::engine::IndexInfo;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use ultra_genexpan::MemoStats;

/// Histogram bucket upper bounds, in microseconds. The last bucket is
/// open-ended (`u64::MAX`).
pub const BUCKET_BOUNDS_MICROS: [u64; 14] = [
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    1_000_000,
    u64::MAX,
];

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_MICROS.len()],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, micros: u64) {
        let idx = BUCKET_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_MICROS.len() - 1);
        // `idx` is a valid position by construction; `get` keeps the
        // request path free of panic sites (L7) all the same.
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Point-in-time snapshot with estimated percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = BUCKET_BOUNDS_MICROS
            .iter()
            .zip(&self.buckets)
            .map(|(&bound, counter)| (bound, counter.load(Ordering::Relaxed)))
            .collect();
        let count: u64 = buckets.iter().map(|(_, c)| c).sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for &(bound, c) in &buckets {
                seen += c;
                if seen >= target {
                    return bound;
                }
            }
            // Unreachable (the last bound is u64::MAX, so the loop always
            // returns); stated as the same constant rather than indexed.
            u64::MAX
        };
        HistogramSnapshot {
            count,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
            p50_micros: quantile(0.50),
            p90_micros: quantile(0.90),
            p99_micros: quantile(0.99),
            buckets,
        }
    }
}

/// Serializable view of one histogram. Percentiles are upper bounds of the
/// bucket containing the quantile (conservative, never an underestimate).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (µs).
    pub sum_micros: u64,
    /// Largest observation (µs).
    pub max_micros: u64,
    /// Estimated median (µs).
    pub p50_micros: u64,
    /// Estimated 90th percentile (µs).
    pub p90_micros: u64,
    /// Estimated 99th percentile (µs).
    pub p99_micros: u64,
    /// `(upper_bound_micros, count)` per bucket; the last bound is
    /// `u64::MAX` (open-ended).
    pub buckets: Vec<(u64, u64)>,
}

/// A started latency measurement.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Microseconds since [`start`](Self::start), saturating at `u64::MAX`.
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// All counters the server exposes under `GET /metrics`.
#[derive(Default)]
pub struct ServeMetrics {
    /// Requests that reached routing.
    pub requests_total: AtomicU64,
    /// 2xx responses written.
    pub responses_2xx: AtomicU64,
    /// 4xx responses written.
    pub responses_4xx: AtomicU64,
    /// 5xx responses written (excluding queue-full 503s).
    pub responses_5xx: AtomicU64,
    /// Connections answered 503 because the request queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Handler panics caught by the connection-level `catch_unwind` guard
    /// (each answered with a 500 instead of tearing down the worker).
    pub panics_caught: AtomicU64,
    /// `POST /expand` latency.
    pub expand_latency: LatencyHistogram,
    /// `GET /healthz` latency.
    pub healthz_latency: LatencyHistogram,
    /// `GET /metrics` latency.
    pub metrics_latency: LatencyHistogram,
}

impl ServeMetrics {
    /// Classifies a written status code into the response counters.
    pub fn record_status(&self, status: u16) {
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of the server's own counters. Queue depth
    /// and the pool's panic count are sampled by the caller, which owns the
    /// pool; `pool_panics` is added to the route-level count so
    /// `panics_total` covers both containment layers. The engine's sections
    /// (`cache`, `genexpan_memo`, `genexpan_pairs`, `index`) are left at
    /// their defaults for the caller to fill from the engine.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        workers: usize,
        pool_panics: u64,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            panics_total: self
                .panics_caught
                .load(Ordering::Relaxed)
                .saturating_add(pool_panics),
            queue_depth,
            workers,
            expand_latency: self.expand_latency.snapshot(),
            healthz_latency: self.healthz_latency.snapshot(),
            metrics_latency: self.metrics_latency.snapshot(),
            ..MetricsSnapshot::default()
        }
    }
}

/// GenExpan's window-memo counters ([`MemoStats`]) as `GET /metrics` serves
/// them (`ultra-genexpan` has no serde dependency).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenExpanMemoStats {
    /// Rounds whose window was stored.
    pub hits: u64,
    /// Rounds that ran the beam.
    pub misses: u64,
    /// Windows stored.
    pub windows: usize,
    /// Most windows the memo stores.
    pub capacity: usize,
}

impl From<MemoStats> for GenExpanMemoStats {
    fn from(m: MemoStats) -> Self {
        Self {
            hits: m.hits,
            misses: m.misses,
            windows: m.entries,
            capacity: m.capacity,
        }
    }
}

/// GenExpan's pair-memo counters ([`MemoStats`]) as `GET /metrics` serves
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenExpanPairStats {
    /// Eq. 7 per-seed terms found stored.
    pub hits: u64,
    /// Eq. 7 per-seed terms computed.
    pub misses: u64,
    /// Entity pairs stored.
    pub pairs: usize,
    /// Most pairs the memo stores.
    pub capacity: usize,
}

impl From<MemoStats> for GenExpanPairStats {
    fn from(m: MemoStats) -> Self {
        Self {
            hits: m.hits,
            misses: m.misses,
            pairs: m.entries,
            capacity: m.capacity,
        }
    }
}

/// Body of `GET /metrics`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests that reached routing.
    pub requests_total: u64,
    /// 2xx responses written.
    pub responses_2xx: u64,
    /// 4xx responses written.
    pub responses_4xx: u64,
    /// 5xx responses written (excluding queue-full 503s).
    pub responses_5xx: u64,
    /// Connections answered 503 because the request queue was full.
    pub rejected_queue_full: u64,
    /// Handler panics caught by either containment layer (route-level
    /// `catch_unwind` plus the worker loop's guard).
    pub panics_total: u64,
    /// Requests waiting for a worker at snapshot time.
    pub queue_depth: usize,
    /// Worker thread count.
    pub workers: usize,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// GenExpan window-memo counters (all zero when GenExpan is off).
    pub genexpan_memo: GenExpanMemoStats,
    /// GenExpan pair-memo counters (all zero when GenExpan is off).
    pub genexpan_pairs: GenExpanPairStats,
    /// Active candidate source and its startup index-build cost.
    pub index: IndexInfo,
    /// `POST /expand` latency.
    pub expand_latency: HistogramSnapshot,
    /// `GET /healthz` latency.
    pub healthz_latency: HistogramSnapshot,
    /// `GET /metrics` latency.
    pub metrics_latency: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_percentiles() {
        let h = LatencyHistogram::default();
        for micros in [40, 60, 200, 400, 900, 2_000, 40_000, 900_000, 2_000_000] {
            h.record(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 9);
        assert_eq!(snap.max_micros, 2_000_000);
        assert_eq!(
            snap.sum_micros,
            40 + 60 + 200 + 400 + 900 + 2_000 + 40_000 + 900_000 + 2_000_000
        );
        // The 5th of 9 observations (median) is 900µs → bucket bound 1_000.
        assert_eq!(snap.p50_micros, 1_000);
        assert_eq!(snap.p99_micros, u64::MAX, "overflow bucket is open-ended");
        assert!(snap.p50_micros <= snap.p90_micros && snap.p90_micros <= snap.p99_micros);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeroes() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!((snap.count, snap.p50_micros, snap.max_micros), (0, 0, 0));
    }

    #[test]
    fn status_classification() {
        let m = ServeMetrics::default();
        m.record_status(200);
        m.record_status(204);
        m.record_status(400);
        m.record_status(503);
        let snap = m.snapshot(0, 4, 0);
        assert_eq!(snap.responses_2xx, 2);
        assert_eq!(snap.responses_4xx, 1);
        assert_eq!(snap.responses_5xx, 1);
        assert_eq!(snap.workers, 4);
    }

    #[test]
    fn panics_total_sums_route_and_pool_counts() {
        let m = ServeMetrics::default();
        m.panics_caught.fetch_add(2, Ordering::Relaxed);
        let snap = m.snapshot(0, 1, 3);
        assert_eq!(snap.panics_total, 5);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = ServeMetrics::default();
        m.expand_latency.record(123);
        m.record_status(200);
        let mut snap = m.snapshot(2, 8, 1);
        snap.genexpan_pairs = GenExpanPairStats {
            hits: 5,
            misses: 3,
            pairs: 3,
            capacity: 8,
        };
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_micros() < 10_000_000, "sane magnitude");
    }
}
