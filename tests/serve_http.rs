//! End-to-end tests of the serving stack over a real TCP socket.
//!
//! One engine (tiny world, 1-epoch encoder) is trained once and shared by
//! every test; each test that needs a live server starts its own on an
//! ephemeral port so tests can run concurrently without port clashes.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use ultra_serve::http::{read_response, write_json_request, Response};
use ultra_serve::{
    EngineConfig, ExpandRequest, ExpandResponse, ExpansionEngine, Method, MetricsSnapshot, Server,
    ServerConfig, ServerHandle, SnapshotRuntime,
};
use ultrawiki::prelude::{EncoderConfig, GenExpanConfig};

/// The tiny engine config every test serves (1-epoch encoder).
fn tiny_config() -> EngineConfig {
    EngineConfig {
        profile: "tiny".into(),
        encoder: EncoderConfig {
            epochs: 1,
            dim: 16,
            neg_samples: 8,
            max_sentences_per_entity: 4,
            ..EncoderConfig::default()
        },
        ..EngineConfig::default()
    }
}

fn engine() -> Arc<ExpansionEngine> {
    static ENGINE: OnceLock<Arc<ExpansionEngine>> = OnceLock::new();
    ENGINE
        .get_or_init(|| Arc::new(ExpansionEngine::build(tiny_config()).expect("engine builds")))
        .clone()
}

fn start_server() -> ServerHandle {
    start_server_on(engine())
}

fn start_server_on(engine: Arc<ExpansionEngine>) -> ServerHandle {
    Server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            debug_panic_route: true,
        },
    )
    .expect("server starts")
}

fn roundtrip(handle: &ServerHandle, method: &str, path: &str, body: &[u8]) -> Response {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_json_request(&mut stream, method, path, body).expect("write");
    read_response(&mut BufReader::new(stream)).expect("read")
}

fn expand_body(query_index: usize, top_k: usize) -> Vec<u8> {
    serde_json::to_vec(&ExpandRequest::replay(Method::RetExpan, query_index, top_k))
        .expect("serialize")
}

#[test]
fn healthz_reports_the_engine() {
    let handle = start_server();
    let resp = roundtrip(&handle, "GET", "/healthz", b"");
    assert_eq!(resp.status, 200);
    let health: serde_json::Value = serde_json::from_slice(&resp.body).expect("json");
    assert_eq!(
        health.get("status").and_then(serde_json::Value::as_str),
        Some("ok")
    );
    assert_eq!(
        health.get("profile").and_then(serde_json::Value::as_str),
        Some("tiny")
    );
    assert!(health.get("queries").and_then(serde_json::Value::as_u64) > Some(0));
    handle.shutdown();
}

#[test]
fn served_expansion_is_byte_identical_to_offline_and_to_cache_hits() {
    let handle = start_server();
    let engine = engine();

    // First request: a miss computed by the worker pool.
    let cold = roundtrip(&handle, "POST", "/expand", &expand_body(0, 0));
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(cold.header("x-ultra-cache"), Some("miss"));

    // Same request again: a hit, body byte-identical.
    let hit = roundtrip(&handle, "POST", "/expand", &expand_body(0, 0));
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-ultra-cache"), Some("hit"));
    assert_eq!(hit.body, cold.body, "cache hit must not change a byte");

    // And the served list equals the offline pipeline's, bit for bit.
    let served: ExpandResponse = serde_json::from_slice(&cold.body).expect("parse");
    let (_ultra, query) = engine.world().queries().next().expect("query 0");
    let offline = engine.retexpan().expand(engine.world(), query);
    assert_eq!(served.list, offline, "served == offline (bit-exact)");
    assert_eq!(&served.query, query);
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_identical_deterministic_answers() {
    let handle = start_server();
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                write_json_request(&mut stream, "POST", "/expand", &expand_body(1, 0))
                    .expect("write");
                let resp = read_response(&mut BufReader::new(stream)).expect("read");
                assert_eq!(resp.status, 200);
                resp.body
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "all 8 concurrent answers byte-identical");
    }
    let engine = engine();
    let served: ExpandResponse = serde_json::from_slice(&bodies[0]).expect("parse");
    let (_ultra, query) = engine.world().queries().nth(1).expect("query 1");
    assert_eq!(served.list, engine.retexpan().expand(engine.world(), query));
    handle.shutdown();
}

#[test]
fn bad_requests_get_400s_with_json_errors() {
    let handle = start_server();
    for (label, body) in [
        ("malformed JSON", &b"{not json"[..]),
        ("no query at all", br#"{"method":"retexpan"}"#),
        (
            "both query forms",
            br#"{"query_index":0,"query":{"ultra":0,"pos_seeds":[0],"neg_seeds":[]}}"#,
        ),
        ("unknown method", br#"{"method":"gpt5","query_index":0}"#),
        ("index out of range", br#"{"query_index":999999}"#),
        (
            "genexpan not enabled",
            br#"{"method":"genexpan","query_index":0}"#,
        ),
    ] {
        let resp = roundtrip(&handle, "POST", "/expand", body);
        assert_eq!(resp.status, 400, "{label}");
        let err: serde_json::Value = serde_json::from_slice(&resp.body).expect("json error body");
        assert!(err.get("error").is_some(), "{label} carries an error field");
    }
    handle.shutdown();
}

#[test]
fn unknown_routes_and_verbs_are_rejected() {
    let handle = start_server();
    assert_eq!(roundtrip(&handle, "GET", "/nope", b"").status, 404);
    assert_eq!(roundtrip(&handle, "GET", "/expand", b"").status, 405);
    assert_eq!(roundtrip(&handle, "POST", "/healthz", b"").status, 405);
    handle.shutdown();
}

#[test]
fn metrics_count_traffic_and_cache_outcomes() {
    let handle = start_server();
    // Two identical expands: one miss, one hit.
    for _ in 0..2 {
        assert_eq!(
            roundtrip(&handle, "POST", "/expand", &expand_body(2, 10)).status,
            200
        );
    }
    let resp = roundtrip(&handle, "GET", "/metrics", b"");
    assert_eq!(resp.status, 200);
    let snap: serde_json::Value = serde_json::from_slice(&resp.body).expect("json");
    let field = |name: &str| snap.get(name).and_then(serde_json::Value::as_u64);
    assert!(field("requests_total") >= Some(3));
    assert!(field("responses_2xx") >= Some(2));
    let cache = snap.get("cache").expect("cache stats");
    assert!(cache.get("hits").and_then(serde_json::Value::as_u64) >= Some(1));
    let expand = snap.get("expand_latency").expect("expand histogram");
    assert!(expand.get("count").and_then(serde_json::Value::as_u64) >= Some(2));
    handle.shutdown();
}

#[test]
fn a_deeper_genexpan_request_takes_every_round_from_the_window_memo() {
    // Its own engine, so the memo counters are this test's alone.
    let engine = ExpansionEngine::build(EngineConfig {
        genexpan: Some(GenExpanConfig::default()),
        ..tiny_config()
    })
    .expect("engine builds");
    let handle = start_server_on(Arc::new(engine));
    let memo = || {
        let resp = roundtrip(&handle, "GET", "/metrics", b"");
        assert_eq!(resp.status, 200);
        let snap: MetricsSnapshot = serde_json::from_slice(&resp.body).expect("metrics json");
        (snap.genexpan_memo, snap.genexpan_pairs)
    };
    let expand = |top_k: usize| {
        let body = serde_json::to_vec(&ExpandRequest::replay(Method::GenExpan, 0, top_k))
            .expect("serialize");
        let resp = roundtrip(&handle, "POST", "/expand", &body);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        // A new top_k is a new result-cache key: both requests run GenExpan.
        assert_eq!(resp.header("x-ultra-cache"), Some("miss"));
        let parsed: ExpandResponse = serde_json::from_slice(&resp.body).expect("json");
        parsed.list.entities().collect::<Vec<_>>()
    };

    let first = expand(10);
    let (after_first, pairs_first) = memo();
    assert!(after_first.misses > 0, "a cold memo runs beams");
    assert!(pairs_first.misses > 0, "and scores Eq. 7 terms");
    let second = expand(20);
    let (after_second, pairs_second) = memo();
    assert_eq!(
        after_second.misses, after_first.misses,
        "the same query's rounds are all stored"
    );
    assert!(after_second.hits > after_first.hits);
    assert_eq!(
        pairs_second.misses, pairs_first.misses,
        "and so are its Eq. 7 terms"
    );
    assert!(pairs_second.hits > pairs_first.hits);
    assert!(pairs_second.pairs <= pairs_second.capacity);
    assert_eq!(second.len(), 20);
    assert_eq!(second[..10], first[..]);
    handle.shutdown();
}

#[test]
fn a_panicking_handler_answers_500_and_the_pool_keeps_serving() {
    let handle = start_server();

    // Establish a baseline answer before anything panics.
    let before = roundtrip(&handle, "POST", "/expand", &expand_body(0, 5));
    assert_eq!(before.status, 200);

    // The debug route panics inside the handler; containment must turn
    // that into a JSON 500 on this very connection.
    let boom = roundtrip(&handle, "POST", "/debug/panic", b"");
    assert_eq!(
        boom.status, 500,
        "panic surfaces as 500, not a dropped conn"
    );
    let err: serde_json::Value = serde_json::from_slice(&boom.body).expect("json error body");
    assert!(err.get("error").is_some());

    // Every worker survives: more requests than workers all still answer,
    // and the expansion bytes are identical to the pre-panic answer.
    for _ in 0..8 {
        let after = roundtrip(&handle, "POST", "/expand", &expand_body(0, 5));
        assert_eq!(after.status, 200);
        assert_eq!(after.body, before.body, "byte-identical after the panic");
    }

    // The incident is counted.
    let resp = roundtrip(&handle, "GET", "/metrics", b"");
    let snap: serde_json::Value = serde_json::from_slice(&resp.body).expect("json");
    assert!(
        snap.get("panics_total").and_then(serde_json::Value::as_u64) >= Some(1),
        "panics_total records the caught panic"
    );
    handle.shutdown();
}

#[test]
fn served_from_snapshot_is_byte_identical_to_train_at_startup() {
    let trained = engine();
    let bytes = trained.to_snapshot().expect("snapshot").to_bytes();
    let loaded = Arc::new(
        ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
            .expect("snapshot loads"),
    );

    // Two live servers: one answering from the trained engine, one from the
    // snapshot-loaded engine. Every observable byte must agree.
    let server_a = start_server();
    let server_b = Server::start(
        loaded,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            debug_panic_route: false,
        },
    )
    .expect("snapshot server starts");

    let health_a = roundtrip(&server_a, "GET", "/healthz", b"");
    let health_b = roundtrip(&server_b, "GET", "/healthz", b"");
    assert_eq!(health_a.status, 200);
    assert_eq!(health_b.status, 200);
    assert_eq!(health_a.body, health_b.body, "healthz bodies differ");

    for query_index in 0..5 {
        for top_k in [0, 10] {
            let a = roundtrip(
                &server_a,
                "POST",
                "/expand",
                &expand_body(query_index, top_k),
            );
            let b = roundtrip(
                &server_b,
                "POST",
                "/expand",
                &expand_body(query_index, top_k),
            );
            assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
            assert_eq!(b.status, 200, "{}", String::from_utf8_lossy(&b.body));
            assert_eq!(
                a.body, b.body,
                "query {query_index} top_k {top_k}: snapshot-served body differs"
            );
        }
    }

    // The snapshot server's /metrics attributes its provenance.
    let resp = roundtrip(&server_b, "GET", "/metrics", b"");
    assert_eq!(resp.status, 200);
    let snap: serde_json::Value = serde_json::from_slice(&resp.body).expect("json");
    let index = snap.get("index").expect("index info");
    assert!(
        index
            .get("snapshot_fingerprint")
            .and_then(serde_json::Value::as_str)
            .is_some(),
        "snapshot server reports its fingerprint"
    );
    assert!(
        index
            .get("snapshot_load_micros")
            .and_then(serde_json::Value::as_u64)
            .is_some(),
        "snapshot server reports its load time"
    );
    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn server_answers_503_until_the_engine_is_installed() {
    let (handle, installer) = Server::start_warming(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        debug_panic_route: false,
    })
    .expect("warming server starts");

    // The port is up, but nothing serves until validation finishes.
    for (method, path, body) in [
        ("GET", "/healthz", &b""[..]),
        ("GET", "/metrics", &b""[..]),
        ("POST", "/expand", &expand_body(0, 0)[..]),
    ] {
        let resp = roundtrip(&handle, method, path, body);
        assert_eq!(resp.status, 503, "{method} {path} while warming");
        let err: serde_json::Value = serde_json::from_slice(&resp.body).expect("json error body");
        assert!(err.get("error").is_some(), "{method} {path} carries error");
    }
    assert!(handle.metrics().is_none(), "no metrics while warming");

    assert!(installer.install(engine()), "first install succeeds");
    assert!(!installer.install(engine()), "second install is rejected");

    assert_eq!(roundtrip(&handle, "GET", "/healthz", b"").status, 200);
    assert_eq!(
        roundtrip(&handle, "POST", "/expand", &expand_body(0, 0)).status,
        200
    );
    assert!(handle.metrics().is_some(), "metrics live after install");
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_releases_the_port() {
    let handle = start_server();
    let addr = handle.addr();
    assert_eq!(roundtrip(&handle, "GET", "/healthz", b"").status, 200);
    handle.shutdown(); // joins acceptor + drains workers
                       // The listener is gone: a fresh connection must fail (or be refused
                       // before any response arrives).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = write_json_request(&mut stream, "GET", "/healthz", b"");
            assert!(
                read_response(&mut BufReader::new(stream)).is_err(),
                "no server behind the socket after shutdown"
            );
        }
    }
}
