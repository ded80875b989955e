//! `ultra-par` — deterministic data-parallel execution.
//!
//! Every hot path in this workspace (entity scoring, contrastive gradient
//! accumulation, eval fan-out) is embarrassingly parallel, but naive
//! threading breaks the byte-identity contract enforced by
//! `tests/determinism.rs`: floating-point addition is not associative, so
//! any reduction whose order depends on thread scheduling produces
//! different bits on different machines — or on the same machine twice.
//!
//! This crate makes parallelism safe to adopt by construction:
//!
//! * **Fixed chunking** — chunk boundaries are a pure function of the input
//!   (its *length*, or per-item cost estimates via [`weighted_boundaries`]),
//!   never of the thread count or of scheduling, so the units of work are
//!   identical whether one thread or sixteen execute them.
//! * **Ordered assembly** — [`Pool::ranges_map_ordered`] hands kernels a
//!   chunk's index *range* and concatenates chunk outputs in chunk order
//!   regardless of completion order; [`Pool::map_ordered`] is the per-item
//!   form over a slice. Callers whose items are just positions
//!   (embedding-matrix rows, candidate ids) never materialize an `O(N)`
//!   index vector.
//! * **Ordered reduction** — a caller that reduces folds the per-chunk
//!   outputs left to right in chunk order, so the `f32` parenthesization
//!   depends only on the chunk boundaries and a sum is bit-identical at any
//!   thread count, including 1 (the single-threaded path runs the *same*
//!   chunked code).
//!
//! Workers are spawned scoped (`std::thread::scope`) per call and pull
//! chunks from an atomic counter. A [`Pool`] value therefore carries only
//! configuration — it is trivially reusable and `Copy` — while borrowed
//! inputs need no `'static` bound and the crate stays std-only and
//! unsafe-free. Spawn cost is real (~100µs per worker), so callers with
//! *light* per-item work gate small inputs down to one worker themselves
//! (e.g. `EntityEmbeddings::effective_pool`); that downgrade never changes
//! output bits because the one-worker path walks the same chunks in order.
//!
//! Thread count resolution, in priority order: [`set_threads`] override
//! (the CLI `--threads` flag), the `ULTRA_THREADS` environment variable,
//! then [`std::thread::available_parallelism`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Upper bound on the number of chunks an input is split into. Bounding the
/// chunk count bounds per-call overhead (one channel message per chunk)
/// while still providing enough grain for work stealing.
pub const MAX_CHUNKS: usize = 64;

/// Minimum chunk length: below this, per-chunk overhead dominates the work.
/// Part of the chunk-boundary function, so changing it changes *which*
/// partial sums are formed — it is a determinism-relevant constant.
pub const MIN_CHUNK: usize = 16;

/// Hard cap on configurable worker threads.
const MAX_THREADS: usize = 256;

/// Process-wide thread-count override (0 = unset). Set by the CLI/serve
/// layers from `--threads`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `ULTRA_THREADS` parse (0 = unset/invalid).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("ULTRA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(0)
    })
}

/// Overrides the global thread count (`0` restores automatic resolution).
/// Values are clamped to `[0, 256]`.
///
/// Because every primitive in this crate is thread-count-invariant in its
/// *output*, racing calls to `set_threads` can change how fast concurrent
/// work runs but never what it computes.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

/// Resolves the effective thread count: [`set_threads`] override, then
/// `ULTRA_THREADS`, then [`std::thread::available_parallelism`], then 1.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced >= 1 {
        return forced;
    }
    let env = env_threads();
    if env >= 1 {
        return env.min(MAX_THREADS);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Chunk length for an input of `len` items — a pure function of `len`
/// only, never of the thread count. All determinism guarantees rest on
/// this property.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(MIN_CHUNK)
}

/// A deterministic scoped worker pool. Carries only the worker count, so it
/// is `Copy` and freely reusable; workers are scoped to each call.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to `[1, 256]`).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// A pool sized by the global [`threads`] resolution.
    pub fn global() -> Self {
        Self::new(threads())
    }

    /// The pool's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps fixed chunk *ranges* of a length-`len` index space through `f`
    /// and concatenates outputs in chunk order. `f` may return any number
    /// of results per chunk (blocked kernels typically return one result
    /// per index).
    ///
    /// Output is bit-identical at any worker count provided `f` itself is
    /// deterministic, because chunk boundaries depend only on `len` and
    /// assembly order is chunk order.
    pub fn ranges_map_ordered<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> Vec<R> + Sync,
    {
        self.ranges_map_ordered_with(len, chunk_len(len), f)
    }

    /// [`ranges_map_ordered`](Self::ranges_map_ordered) with an explicit
    /// chunk length. `cl` MUST be derived from `len` alone (or be a
    /// constant) — never from the thread count — or the determinism
    /// contract breaks. Use `cl = 1` for heavy items (a full query
    /// expansion) where the default [`MIN_CHUNK`] grain would serialize
    /// small inputs. Uniform boundaries are materialized once and handed
    /// to [`bounds_map_ordered`](Self::bounds_map_ordered), the crate's
    /// single dispatch loop.
    pub fn ranges_map_ordered_with<R, F>(&self, len: usize, cl: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> Vec<R> + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let cl = cl.max(1);
        let nchunks = len.div_ceil(cl);
        let bounds: Vec<Range<usize>> = (0..nchunks)
            .map(|c| (c * cl)..((c + 1) * cl).min(len))
            .collect();
        self.bounds_map_ordered(&bounds, f)
    }

    /// Maps explicit chunk `bounds` through `f` and concatenates outputs in
    /// chunk order. `bounds` MUST be a pure function of the input (length
    /// and/or item costs — see [`weighted_boundaries`]), never of the
    /// thread count. This is the crate's single dispatch loop — every
    /// other mapping primitive is a shim over it.
    // ultra-lint: hot
    pub fn bounds_map_ordered<R, F>(&self, bounds: &[Range<usize>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> Vec<R> + Sync,
    {
        let nchunks = bounds.len();
        if nchunks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(nchunks);
        if workers <= 1 {
            // Same chunked traversal as the parallel path, in chunk order.
            let mut out = Vec::new();
            for r in bounds {
                out.extend(f(r.start..r.end));
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();
        let mut slots: Vec<Option<Vec<R>>> = Vec::new();
        slots.resize_with(nchunks, || None);
        std::thread::scope(|s| {
            for _ in 0..workers {
                // ultra-lint: allow(no-alloc-in-hot-loop) one sender clone per spawned worker — O(threads) setup, not per-item work
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                let bounds = &*bounds;
                s.spawn(move || loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    let out = f(bounds[c].start..bounds[c].end);
                    if tx.send((c, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Workers deliver chunks in completion order; slots restore
            // chunk order. A worker panic drops its sender, ends this loop
            // early, and the scope re-raises the panic on exit.
            while let Ok((c, v)) = rx.recv() {
                if let Some(slot) = slots.get_mut(c) {
                    *slot = Some(v);
                }
            }
        });
        slots.into_iter().flatten().flatten().collect()
    }

    /// Maps each item through `f` in input order, with chunk boundaries
    /// derived from per-item `cost` estimates via [`weighted_boundaries`]
    /// instead of uniform lengths. Use when item work is skewed (a training
    /// example's cost scales with bag length × negative count) so a uniform
    /// split would leave one chunk carrying most of the work.
    ///
    /// Boundaries depend only on `items` (through `cost`), never on the
    /// worker count, so output is bit-identical at any thread count.
    pub fn map_ordered_weighted<T, R, C, F>(&self, items: &[T], cost: C, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        C: Fn(&T) -> u64,
        F: Fn(&T) -> R + Sync,
    {
        let costs: Vec<u64> = items.iter().map(&cost).collect();
        let bounds = weighted_boundaries(&costs, MAX_CHUNKS);
        self.bounds_map_ordered(&bounds, |r| r.map(|i| f(&items[i])).collect())
    }

    /// Runs `body` with a team of `threads - 1` persistent workers, each
    /// executing `kernel` on jobs submitted to its private lane. Unlike the
    /// per-call primitives above, the workers live for the whole `body`
    /// invocation, so a training loop dispatching thousands of small
    /// batches pays the ~100µs spawn cost once instead of per batch.
    ///
    /// Determinism is the caller's contract: the team moves jobs and
    /// results verbatim and imposes no ordering of its own, so callers must
    /// (a) derive the job split from the input alone and (b) reassemble
    /// results by job identity, exactly as with [`weighted_boundaries`].
    /// With one thread the team has zero workers and the caller runs every
    /// job inline — the same code path the contract is validated against.
    ///
    /// A panicking `kernel` is relayed: the payload is captured, sent back,
    /// and re-raised on the thread that calls [`WorkerTeam::recv`]. A lane
    /// whose worker died rejects further submissions (`submit` hands the
    /// job back) so callers can fall back to running the job inline.
    pub fn with_worker_team<J, R, F, B, T>(&self, kernel: F, body: B) -> T
    where
        J: Send,
        R: Send,
        F: Fn(J) -> R + Sync,
        B: FnOnce(&WorkerTeam<J, R>) -> T,
    {
        let workers = self.threads.saturating_sub(1);
        let (rtx, rrx) = mpsc::channel();
        if workers == 0 {
            drop(rtx);
            return body(&WorkerTeam {
                txs: Vec::new(),
                rx: rrx,
            });
        }
        std::thread::scope(|s| {
            let kernel = &kernel;
            let mut txs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (jtx, jrx) = mpsc::channel::<J>();
                txs.push(jtx);
                let rtx = rtx.clone();
                s.spawn(move || {
                    while let Ok(job) = jrx.recv() {
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(job)));
                        let died = out.is_err();
                        if rtx.send(out).is_err() || died {
                            break;
                        }
                    }
                });
            }
            drop(rtx);
            let team = WorkerTeam { txs, rx: rrx };
            body(&team)
            // `team` drops here: job senders close, workers drain and exit,
            // and the scope joins them (re-raising any unrelayed panic).
        })
    }

    /// Maps each item through `f`, preserving input order.
    pub fn map_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.ranges_map_ordered(items.len(), |r| items[r].iter().map(&f).collect())
    }

    /// [`map_ordered`](Self::map_ordered) at one item per chunk, for items
    /// heavy enough (≳100µs) that per-chunk overhead is irrelevant and the
    /// default grain would leave threads idle on short inputs.
    pub fn map_ordered_each<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.ranges_map_ordered_with(items.len(), 1, |r| items[r].iter().map(&f).collect())
    }
}

/// A panic payload captured on a worker thread, relayed to the consumer.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Handle to the persistent workers of [`Pool::with_worker_team`]. Each
/// worker owns a private job lane; all workers share one result channel.
pub struct WorkerTeam<J, R> {
    txs: Vec<mpsc::Sender<J>>,
    rx: mpsc::Receiver<Result<R, PanicPayload>>,
}

impl<J, R> WorkerTeam<J, R> {
    /// Number of live lanes (`pool.threads() - 1`; zero at one thread, in
    /// which case the caller runs every job inline).
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Sends `job` to worker `lane`. Returns the job back if the lane does
    /// not exist or its worker has died (panicked), so the caller can run
    /// it inline — which yields identical bits, since workers add nothing
    /// to the computation.
    pub fn submit(&self, lane: usize, job: J) -> Result<(), J> {
        match self.txs.get(lane) {
            Some(tx) => tx.send(job).map_err(|mpsc::SendError(j)| j),
            None => Err(job),
        }
    }

    /// Receives one completed result, in completion order (callers
    /// reassemble by job identity). Re-raises a worker panic here, on the
    /// consuming thread, instead of deadlocking the result loop. Returns
    /// `None` only once every worker has exited.
    pub fn recv(&self) -> Option<R> {
        match self.rx.recv() {
            Ok(Ok(r)) => Some(r),
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => None,
        }
    }
}

/// Splits `costs.len()` items into at most `max_chunks` contiguous ranges
/// whose summed costs are approximately balanced: a greedy scan closes a
/// chunk once it has absorbed `ceil(total / max_chunks)` cost. Zero costs
/// are treated as 1 so every item contributes and empty chunks cannot
/// occur.
///
/// The boundaries are a pure function of `costs` (never of the thread
/// count), making this the cost-weighted analogue of length-derived chunking: work
/// split along these ranges and reassembled in range order is bit-identical
/// at any worker count. At most `max_chunks` ranges are returned: every
/// closed chunk carries at least the target cost, so more than
/// `max_chunks - 1` of them cannot close before the total is exhausted.
pub fn weighted_boundaries(costs: &[u64], max_chunks: usize) -> Vec<Range<usize>> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let max_chunks = max_chunks.max(1) as u64;
    let total: u64 = costs.iter().map(|&c| c.max(1)).sum();
    let target = total.div_ceil(max_chunks);
    let mut bounds = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c.max(1);
        if acc >= target {
            bounds.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        bounds.push(start..n);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_maps_to_empty_output() {
        let items: Vec<u32> = Vec::new();
        for t in [1, 2, 8] {
            assert!(Pool::new(t).map_ordered(&items, |x| x * 2).is_empty());
        }
    }

    #[test]
    fn map_matches_sequential_for_len_smaller_than_threads() {
        let items: Vec<u64> = (0..3).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(Pool::new(8).map_ordered(&items, |x| x * x), expect);
    }

    #[test]
    fn map_matches_sequential_when_len_is_not_a_chunk_multiple() {
        // 1037 = 64 * 16 + 13: last chunk is ragged.
        let items: Vec<i64> = (0..1037).collect();
        let expect: Vec<i64> = items.iter().map(|x| 3 * x - 1).collect();
        for t in [1, 2, 3, 8] {
            assert_eq!(Pool::new(t).map_ordered(&items, |x| 3 * x - 1), expect);
        }
    }

    #[test]
    fn chunk_boundaries_are_a_function_of_len_only() {
        for len in [1usize, 15, 16, 17, 1000, 1024, 1037, 100_000] {
            let cl = chunk_len(len);
            assert!(cl >= MIN_CHUNK);
            assert!(len.div_ceil(cl) <= MAX_CHUNKS);
        }
    }

    #[test]
    fn per_item_chunking_matches_default_chunking() {
        let items: Vec<u32> = (0..100).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 1).collect();
        for t in [1, 2, 8] {
            assert_eq!(Pool::new(t).map_ordered_each(&items, |x| x + 1), expect);
        }
    }

    #[test]
    fn range_dispatch_handles_empty_and_ragged_lengths() {
        assert!(Pool::new(4)
            .ranges_map_ordered(0, |r| r.collect::<Vec<usize>>())
            .is_empty());
        for len in [1usize, 15, 16, 17, 1037] {
            let out = Pool::new(3).ranges_map_ordered(len, |r| r.collect::<Vec<usize>>());
            let expect: Vec<usize> = (0..len).collect();
            assert_eq!(out, expect, "len {len}");
        }
    }

    #[test]
    fn set_threads_overrides_and_resets() {
        set_threads(3);
        assert_eq!(threads(), 3);
        let pool = Pool::global();
        assert_eq!(pool.threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn pool_clamps_worker_count() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(100_000).threads(), 256);
    }

    #[test]
    fn weighted_boundaries_cover_input_in_order() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![5],
            vec![1, 1, 1, 1],
            vec![100, 1, 1, 1, 1, 1, 1, 100],
            vec![0, 0, 0, 0, 0, 0, 0],
            (0..1000).map(|i| (i % 17) as u64).collect(),
        ];
        for costs in &cases {
            for max in [1usize, 2, 4, 64] {
                let bounds = weighted_boundaries(costs, max);
                assert!(bounds.len() <= max, "{costs:?} split into {bounds:?}");
                let mut next = 0;
                for r in &bounds {
                    assert_eq!(r.start, next, "gap/overlap in {bounds:?}");
                    assert!(r.end > r.start, "empty chunk in {bounds:?}");
                    next = r.end;
                }
                assert_eq!(next, costs.len(), "items dropped in {bounds:?}");
                // Pure function of the input: same costs, same boundaries.
                assert_eq!(bounds, weighted_boundaries(costs, max));
            }
        }
    }

    #[test]
    fn weighted_map_matches_uniform_map_bitwise() {
        let items: Vec<f32> = (0..3000).map(|i| (i as f32).sin() * 10.0).collect();
        let expect: Vec<u32> = Pool::new(1)
            .map_ordered(&items, |x| (x * 1.0001 + 3.7).to_bits())
            .to_vec();
        for t in [1usize, 2, 8] {
            let got = Pool::new(t).map_ordered_weighted(
                &items,
                |x| (x.abs() * 100.0) as u64,
                |x| (x * 1.0001 + 3.7).to_bits(),
            );
            assert_eq!(got, expect, "diverged at {t} threads");
        }
    }

    #[test]
    fn worker_team_round_trips_jobs_on_every_lane() {
        for t in [2usize, 4, 8] {
            let pool = Pool::new(t);
            let n_jobs = 37usize;
            let mut got = pool.with_worker_team(
                |j: usize| (j, j * j),
                |team| {
                    assert_eq!(team.workers(), t - 1);
                    let mut pending = 0;
                    for j in 0..n_jobs {
                        assert!(team.submit(j % team.workers(), j).is_ok());
                        pending += 1;
                    }
                    let mut out = Vec::new();
                    for _ in 0..pending {
                        match team.recv() {
                            Some(r) => out.push(r),
                            None => break,
                        }
                    }
                    out
                },
            );
            got.sort_unstable();
            let expect: Vec<(usize, usize)> = (0..n_jobs).map(|j| (j, j * j)).collect();
            assert_eq!(got, expect, "lost or corrupted jobs at {t} threads");
        }
    }

    #[test]
    fn worker_team_has_no_workers_at_one_thread() {
        Pool::new(1).with_worker_team(
            |j: usize| j,
            |team| {
                assert_eq!(team.workers(), 0);
                // No lanes: submit hands the job back for inline execution.
                assert_eq!(team.submit(0, 42), Err(42));
            },
        );
    }

    #[test]
    #[should_panic(expected = "kernel exploded")]
    fn worker_team_relays_worker_panics_to_recv() {
        Pool::new(2).with_worker_team(
            |_j: usize| -> usize { panic!("kernel exploded") },
            |team| {
                assert!(team.submit(0, 1).is_ok());
                let _ = team.recv();
            },
        );
    }
}
