//! Fixed-size worker pool with a bounded request queue.
//!
//! `std::thread` only — no async runtime. The queue is a `Mutex<VecDeque>`
//! plus a condvar; [`WorkerPool::try_submit`] never blocks (a full queue is
//! the caller's backpressure signal, which the HTTP layer turns into 503),
//! and [`WorkerPool::shutdown`] is graceful: accepted jobs are drained
//! before the workers exit and are joined.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Lock order (checked by L13 `no-blocking-under-lock`): `queue` is the
/// pool's only internal lock and is never held across the handler call or
/// any cache shard acquisition — the canonical workspace order is `queue` before
/// shards, enforced by dropping the queue guard before a job runs.
struct PoolShared<T> {
    queue: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    capacity: usize,
    shutting_down: AtomicBool,
    /// Handler panics caught by the worker loop (each would have killed a
    /// worker thread before the `catch_unwind` guard existed).
    panics: AtomicU64,
}

/// A fixed set of worker threads consuming jobs from a bounded queue.
pub struct WorkerPool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
    worker_count: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A cheap, cloneable handle that samples the pool's queue depth without
/// owning the pool (feeds the `queue_depth` gauge in `/metrics`). Holds only
/// the queue state, never the handler, so it cannot form a reference cycle
/// with closures that capture the pool's owner.
pub struct QueueDepthGauge<T>(Arc<PoolShared<T>>);

impl<T> Clone for QueueDepthGauge<T> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }
}

impl<T> QueueDepthGauge<T> {
    /// Jobs currently waiting for a worker.
    pub fn depth(&self) -> usize {
        self.0
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Handler panics caught by the worker loop since the pool started
    /// (feeds the `panics_total` counter in `/metrics`).
    pub fn panics_total(&self) -> u64 {
        self.0.panics.load(Ordering::Relaxed)
    }
}

/// Why [`WorkerPool::try_submit`] rejected a job.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError<T> {
    /// The queue is at capacity; the job is handed back.
    QueueFull(T),
    /// The pool is shutting down; the job is handed back.
    ShuttingDown(T),
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads (at least 1) running `handler` over
    /// submitted jobs. `queue_capacity` bounds jobs waiting for a worker
    /// (it does not count jobs already being handled).
    pub fn new<F>(workers: usize, queue_capacity: usize, handler: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            capacity: queue_capacity.max(1),
            shutting_down: AtomicBool::new(false),
            panics: AtomicU64::new(0),
        });
        let handler = Arc::new(handler);
        let handles: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                let handler = handler.clone();
                std::thread::Builder::new()
                    .name(format!("ultra-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, handler.as_ref()))
            })
            .filter_map(Result::ok)
            .collect();
        Self {
            shared,
            worker_count: handles.len(),
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues a job without blocking.
    pub fn try_submit(&self, job: T) -> Result<(), SubmitError<T>> {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown(job));
        }
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull(job));
        }
        queue.push_back(job);
        drop(queue);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// A detached queue-depth sampler for metrics.
    pub fn depth_gauge(&self) -> QueueDepthGauge<T> {
        QueueDepthGauge(self.shared.clone())
    }

    /// Number of worker threads spawned at construction.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Graceful shutdown: refuses new jobs, lets the workers drain every
    /// already-accepted job, then joins them. Idempotent — later calls (or
    /// calls racing from another holder of the pool) find no handles left.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop<T, F: Fn(T) + ?Sized>(shared: &PoolShared<T>, handler: &F) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    return; // queue fully drained
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Defense in depth behind L7: a panic that still escapes a handler
        // is contained here, so it costs one job, not a worker thread.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(job)));
        if caught.is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn all_submitted_jobs_run() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let pool = WorkerPool::new(4, 64, move |n: usize| {
            c.fetch_add(n, Ordering::Relaxed);
        });
        for _ in 0..50 {
            pool.try_submit(1).expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        // A single worker blocked on a gate keeps the queue occupied.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let pool = WorkerPool::new(1, 1, move |_n: usize| {
            let _ = gate_rx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv();
        });
        pool.try_submit(0).expect("first job accepted");
        // The worker may or may not have picked up job 0 yet; keep filling
        // until the bounded queue pushes back.
        let mut rejected = None;
        for i in 1..4 {
            if let Err(e) = pool.try_submit(i) {
                rejected = Some(e);
                break;
            }
        }
        match rejected {
            Some(SubmitError::QueueFull(job)) => assert!(job >= 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        drop(gate_tx); // release the worker
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        let pool = WorkerPool::new(1, 16, move |_n: usize| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            d.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..10 {
            pool.try_submit(i).expect("room");
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 10, "drained before join");
    }

    #[test]
    fn a_panicking_job_is_counted_and_does_not_kill_the_worker() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        let pool = WorkerPool::new(1, 16, move |n: usize| {
            if n == 0 {
                panic!("job zero explodes");
            }
            d.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..5 {
            pool.try_submit(i).expect("room");
        }
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::Relaxed),
            4,
            "the single worker survived the panic and drained the rest"
        );
        assert_eq!(pool.depth_gauge().panics_total(), 1);
    }

    #[test]
    fn queue_depth_reports_waiting_jobs() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let pool = WorkerPool::new(1, 8, move |_n: usize| {
            let _ = gate_rx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv();
        });
        for i in 0..4 {
            pool.try_submit(i).expect("room");
        }
        // One job may be in-flight; the rest are queued.
        assert!(pool.depth_gauge().depth() >= 3);
        for _ in 0..4 {
            let _ = gate_tx.send(());
        }
        pool.shutdown();
    }
}
