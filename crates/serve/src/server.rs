//! The TCP accept loop wiring engine, pool, cache, and metrics together.
//!
//! One acceptor thread pulls connections off a `TcpListener` and hands each
//! to the bounded [`WorkerPool`]; a full queue is answered 503 directly on
//! the acceptor thread (backpressure without head-of-line blocking). Workers
//! parse one HTTP/1.1 request, route it, and write a `Connection: close`
//! response. Shutdown is graceful: the flag flips, a self-connect wakes the
//! acceptor, and the pool drains accepted connections before joining.

use crate::api::{ErrorBody, ExpandResponse, HealthResponse};
use crate::engine::ExpansionEngine;
use crate::http::{self, HttpError, Request};
use crate::metrics::{MetricsSnapshot, ServeMetrics, Stopwatch};
use crate::pool::{QueueDepthGauge, SubmitError, WorkerPool};
use crate::ServeError;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Online-phase configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker thread count.
    pub workers: usize,
    /// Bound on connections waiting for a worker.
    pub queue_capacity: usize,
    /// Enables `POST /debug/panic`, a route whose handler panics on purpose
    /// so tests (and operators) can exercise the containment path: the
    /// panic must surface as a 500 and a `panics_total` tick, never a dead
    /// worker. Off by default; the route 404s when disabled.
    pub debug_panic_route: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_capacity: 128,
            debug_panic_route: false,
        }
    }
}

/// Per-connection read/write deadline so a stalled peer cannot pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

struct ServerShared {
    /// The serving engine, installed exactly once. A server can bind and
    /// accept *before* its engine is ready (snapshot still validating,
    /// training still running); until installation every route answers 503
    /// so probes see "up but not ready", never a wrong answer.
    engine: OnceLock<Arc<ExpansionEngine>>,
    metrics: ServeMetrics,
    shutting_down: AtomicBool,
    debug_panic_route: bool,
    // Set once right after the pool is built (the pool's handler captures
    // this struct, so the pool cannot be a direct field).
    pool_view: OnceLock<(QueueDepthGauge<TcpStream>, usize)>,
}

impl ServerShared {
    /// `None` while the engine is still warming.
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let engine = self.engine.get()?;
        let (queue_depth, workers, pool_panics) = self
            .pool_view
            .get()
            .map(|(gauge, workers)| (gauge.depth(), *workers, gauge.panics_total()))
            .unwrap_or((0, 0, 0));
        Some(MetricsSnapshot {
            cache: engine.cache_stats(),
            genexpan_memo: engine.memo_stats(),
            genexpan_pairs: engine.pair_stats(),
            index: engine.index_info().clone(),
            ..self.metrics.snapshot(queue_depth, workers, pool_panics)
        })
    }
}

/// Namespace for [`Server::start`] and [`Server::start_warming`].
pub struct Server;

/// A running server: bound address, live metrics, and shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
}

/// One-shot engine installer returned by [`Server::start_warming`]. The
/// server answers 503 on every route until [`EngineInstaller::install`] is
/// called with a validated engine; install is idempotent-safe (the first
/// engine wins, later calls return `false`).
pub struct EngineInstaller {
    shared: Arc<ServerShared>,
}

impl EngineInstaller {
    /// Installs the engine, flipping the server from 503-warming to serving.
    /// Returns `false` if an engine was already installed.
    pub fn install(&self, engine: Arc<ExpansionEngine>) -> bool {
        self.shared.engine.set(engine).is_ok()
    }
}

impl Server {
    /// Binds the listener, spawns the worker pool and acceptor thread, and
    /// returns immediately with a ready engine installed.
    pub fn start(
        engine: Arc<ExpansionEngine>,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        let (handle, installer) = Self::start_warming(config)?;
        installer.install(engine);
        Ok(handle)
    }

    /// Binds the listener and starts accepting *before* an engine exists.
    /// Every route answers 503 ("engine warming up") until the returned
    /// [`EngineInstaller`] installs a validated engine — so a snapshot can
    /// be checksum-verified (or training can finish) while the port is
    /// already up for liveness probes.
    pub fn start_warming(
        config: ServerConfig,
    ) -> Result<(ServerHandle, EngineInstaller), ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            engine: OnceLock::new(),
            metrics: ServeMetrics::default(),
            shutting_down: AtomicBool::new(false),
            debug_panic_route: config.debug_panic_route,
            pool_view: OnceLock::new(),
        });

        let pool = {
            let shared = shared.clone();
            WorkerPool::new(config.workers, config.queue_capacity, move |conn| {
                handle_connection(&shared, conn)
            })
        };
        let _ = shared.pool_view.set((pool.depth_gauge(), pool.workers()));

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ultra-serve-acceptor".to_string())
                .spawn(move || accept_loop(&shared, &listener, pool))
                .map_err(ServeError::Io)?
        };

        let handle = ServerHandle {
            addr,
            shared: shared.clone(),
            acceptor: Some(acceptor),
        };
        Ok((handle, EngineInstaller { shared }))
    }
}

impl ServerHandle {
    /// The bound socket address (the actual port when `addr` asked for `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time metrics (the same numbers `GET /metrics` serves), or
    /// `None` while the engine is still warming.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.shared.metrics_snapshot()
    }

    /// Requests shutdown: stops accepting, drains in-flight connections,
    /// joins the acceptor (and, through it, the pool).
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the acceptor exits (e.g. after a `shutdown` from another
    /// handle or process signal path).
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    fn request_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // The acceptor is parked in `accept()`; poke it awake.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
    }
}

fn accept_loop(shared: &ServerShared, listener: &TcpListener, pool: WorkerPool<TcpStream>) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _peer)) => conn,
            Err(_) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        match pool.try_submit(conn) {
            Ok(()) => {}
            Err(SubmitError::QueueFull(mut conn) | SubmitError::ShuttingDown(mut conn)) => {
                shared
                    .metrics
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                let body = serde_json::to_vec(&ErrorBody {
                    error: "request queue full, retry later".to_string(),
                })
                .unwrap_or_default();
                let _ = http::write_json_response(&mut conn, 503, &[], &body);
            }
        }
    }
    pool.shutdown();
}

fn handle_connection(shared: &ServerShared, conn: TcpStream) {
    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
    let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(conn);
    let request = match http::read_request(&mut reader) {
        Ok(req) => req,
        Err(err) => {
            let status = match err {
                HttpError::TooLarge(_) => 413,
                _ => 400,
            };
            let mut conn = reader.into_inner();
            write_error(shared, &mut conn, status, &format!("{err}"));
            return;
        }
    };
    shared
        .metrics
        .requests_total
        .fetch_add(1, Ordering::Relaxed);
    let mut conn = reader.into_inner();
    route(shared, &mut conn, &request);
}

/// A fully materialised response, built *before* any byte hits the socket
/// so metrics (status counters, latency histograms) can be recorded first.
/// A client that has received its answer is then guaranteed to see that
/// answer already counted in a subsequent `/metrics` scrape — recording
/// after the write raced exactly that scrape-after-response pattern.
struct Reply {
    status: u16,
    cache_header: Option<&'static str>,
    body: Vec<u8>,
}

impl Reply {
    fn error(status: u16, message: &str) -> Reply {
        let body = serde_json::to_vec(&ErrorBody {
            error: message.to_string(),
        })
        .unwrap_or_default();
        Reply {
            status,
            cache_header: None,
            body,
        }
    }

    fn json<T: serde::Serialize>(value: &T) -> Reply {
        match serde_json::to_vec(value) {
            Ok(body) => Reply {
                status: 200,
                cache_header: None,
                body,
            },
            Err(err) => Reply::error(500, &format!("serialization failed: {err}")),
        }
    }
}

fn route(shared: &ServerShared, conn: &mut TcpStream, request: &Request) {
    // Route-level containment (the inner of two layers — the worker loop in
    // pool.rs carries the outer one): a panic escaping any handler becomes
    // a 500 on *this* connection plus a `panics_total` tick. Without it the
    // peer would see a silently dropped connection.
    let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dispatch(shared, request)
    })) {
        Ok(reply) => reply,
        Err(_) => {
            shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
            Reply::error(500, "internal error: handler panicked")
        }
    };
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(value) = reply.cache_header {
        headers.push(("x-ultra-cache", value));
    }
    write_response(shared, conn, reply.status, &headers, &reply.body);
}

fn dispatch(shared: &ServerShared, request: &Request) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/expand") => {
            let sw = Stopwatch::start();
            let reply = handle_expand(shared, &request.body);
            shared.metrics.expand_latency.record(sw.elapsed_micros());
            reply
        }
        ("GET", "/healthz") => {
            let sw = Stopwatch::start();
            let reply = handle_healthz(shared);
            shared.metrics.healthz_latency.record(sw.elapsed_micros());
            reply
        }
        ("GET", "/metrics") => {
            let sw = Stopwatch::start();
            let reply = handle_metrics(shared);
            shared.metrics.metrics_latency.record(sw.elapsed_micros());
            reply
        }
        ("POST", "/debug/panic") if shared.debug_panic_route => {
            // Deliberate panic source for exercising the containment path
            // end-to-end; compiled in but unreachable unless the operator
            // opted in via `ServerConfig::debug_panic_route`.
            // ultra-lint: allow(no-panic-in-lib) test-only route behind an off-by-default config flag
            panic!("debug panic route triggered")
        }
        (_, "/expand") | (_, "/healthz") | (_, "/metrics") => {
            Reply::error(405, &format!("method {} not allowed here", request.method))
        }
        (_, path) => Reply::error(404, &format!("no route for `{path}`")),
    }
}

const WARMING_MESSAGE: &str = "engine warming up, not ready to serve";

fn handle_expand(shared: &ServerShared, body: &[u8]) -> Reply {
    let Some(engine) = shared.engine.get() else {
        return Reply::error(503, WARMING_MESSAGE);
    };
    let request = match serde_json::from_slice::<crate::api::ExpandRequest>(body) {
        Ok(req) => req,
        Err(err) => return Reply::error(400, &format!("invalid JSON body: {err}")),
    };
    let (method, query, top_k) = match engine.resolve(&request) {
        Ok(resolved) => resolved,
        Err(err) => return Reply::error(400, &format!("{err}")),
    };
    match engine.expand(method, &query, top_k) {
        Ok((list, outcome)) => {
            let response = ExpandResponse {
                method: method.name().to_string(),
                query,
                top_k,
                list: (*list).clone(),
            };
            let mut reply = Reply::json(&response);
            if reply.status == 200 {
                reply.cache_header = Some(outcome.header_value());
            }
            reply
        }
        Err(ServeError::BadRequest(msg)) => Reply::error(400, &msg),
        Err(err) => Reply::error(500, &format!("{err}")),
    }
}

fn handle_healthz(shared: &ServerShared) -> Reply {
    let Some(engine) = shared.engine.get() else {
        return Reply::error(503, WARMING_MESSAGE);
    };
    let health = HealthResponse {
        status: "ok".to_string(),
        profile: engine.config().profile.clone(),
        seed: engine.config().seed,
        methods: engine.methods().iter().map(|m| m.to_string()).collect(),
        entities: engine.world().num_entities(),
        queries: engine.num_queries(),
    };
    Reply::json(&health)
}

fn handle_metrics(shared: &ServerShared) -> Reply {
    match shared.metrics_snapshot() {
        Some(snapshot) => Reply::json(&snapshot),
        None => Reply::error(503, WARMING_MESSAGE),
    }
}

fn write_response(
    shared: &ServerShared,
    conn: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) {
    shared.metrics.record_status(status);
    let _ = http::write_json_response(conn, status, extra_headers, body);
}

fn write_error(shared: &ServerShared, conn: &mut impl Write, status: u16, message: &str) {
    let body = serde_json::to_vec(&ErrorBody {
        error: message.to_string(),
    })
    .unwrap_or_default();
    write_response(shared, conn, status, &[], &body);
}
