//! `ultra-serve` — the online expansion-serving engine.
//!
//! Every other binary in this workspace pays full world-generation and
//! encoder-training cost per invocation. This crate splits that into the
//! classic offline/online architecture: an [`ExpansionEngine`] generates the
//! world and trains the expansion pipelines **once** at startup, freezes the
//! artifacts behind `Arc`, and then answers queries through `&self` only —
//! the same immutable `expand` entry points the offline pipelines expose, so
//! a served result is *byte-identical* to an offline run on the same
//! `(profile, seed)`.
//!
//! The serving stack, bottom to top:
//!
//! * [`engine`] — offline phase + cache-aware online `expand`,
//! * [`cache`] — sharded, capacity-bounded LRU over
//!   `(method, query, top-k)` keys with hit/miss/eviction counters,
//! * [`pool`] — fixed-size `std::thread` worker pool with a bounded request
//!   queue and graceful drain-then-join shutdown,
//! * [`http`] — hand-rolled HTTP/1.1 framing over `std::net` (no deps),
//! * [`api`] — the JSON request/response DTOs,
//! * [`metrics`] — lock-free atomic counters and latency histograms,
//! * [`server`] — the `TcpListener` accept loop wiring it all together:
//!   `POST /expand`, `GET /healthz`, `GET /metrics`.
//!
//! # Determinism contract
//!
//! The cache stores exactly the `RankedList` the cold path computed; keys
//! are the full `(method, query, top_k)` triple (`Query` is `Hash + Eq`),
//! so a hit can never substitute a different query's result, and a cached
//! response is bit-for-bit the cold response. Request *latency* is the only
//! observable that may differ. Wall-clock reads are confined to
//! [`metrics`] (see `lint.toml`); scoring code remains clock-free.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ultra_serve::{EngineConfig, ExpansionEngine, Server, ServerConfig};
//!
//! let engine = Arc::new(ExpansionEngine::build(EngineConfig::default()).unwrap());
//! let handle = Server::start(engine, ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! handle.join();
//! ```

pub mod api;
pub mod cache;
pub mod engine;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod server;

pub use api::{ExpandRequest, ExpandResponse, HealthResponse, Method};
pub use cache::{CacheKey, CacheStats, ShardedLruCache};
pub use engine::{CacheOutcome, EngineConfig, ExpansionEngine, IndexInfo, SnapshotRuntime};
pub use metrics::{GenExpanMemoStats, GenExpanPairStats, MetricsSnapshot, ServeMetrics};
pub use pool::WorkerPool;
pub use server::{EngineInstaller, Server, ServerConfig, ServerHandle};

use std::fmt;
use ultra_core::UltraError;

/// Errors surfaced by the serving stack.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying expansion pipeline rejected the input.
    Engine(UltraError),
    /// The request was syntactically or semantically invalid (HTTP 400).
    BadRequest(String),
    /// A socket or I/O operation failed.
    Io(std::io::Error),
    /// A snapshot failed to serialize, deserialize, or validate.
    Snapshot(ultra_snap::SnapError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<UltraError> for ServeError {
    fn from(e: UltraError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ultra_snap::SnapError> for ServeError {
    fn from(e: ultra_snap::SnapError) -> Self {
        ServeError::Snapshot(e)
    }
}
