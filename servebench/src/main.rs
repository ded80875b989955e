//! `servebench`: the serving and build benchmark (see README.md).
//!
//! ```text
//! servebench --ultrawiki BIN --work DIR --workload ret_hot|ret_cold|gen_cold|build
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs drive `ultrawiki` as a child process over real HTTP (or
//! time its `build-index`), check every answer, and print the end-to-end
//! metrics. `--trace 1` replays the same generated inputs in-process with
//! spans around each layer's public calls and prints the per-layer metrics.
//! Human-readable lines come first; the last stdout line is the JSON result.

mod client;
mod gen;
mod proc;
mod trace;

use client::{drive, Phase, Plan, Reply};
use gen::{ColdStream, Request};
use proc::{Host, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;
use ultra_core::{Query, RankedList};
use ultra_serve::engine::SnapshotRuntime;
use ultra_serve::{ExpandRequest, ExpandResponse, ExpansionEngine, Method, MetricsSnapshot};

/// `build-index` arguments of the snapshot every serving workload loads.
pub const SNAPSHOT_ARGS: [&str; 6] = [
    "--profile",
    "small",
    "--seed",
    "42",
    "--methods",
    "retexpan,genexpan",
];
/// `build-index` arguments of the build workload.
pub const BUILD_ARGS: [&str; 4] = ["--profile", "tiny", "--methods", "retexpan,genexpan"];
/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 5;
/// Distinct explicit queries sent before ret_cold's timed phase: more than
/// the server's 4096-entry cache holds, so every timed insert evicts.
pub const COLD_WARM: usize = 6000;
/// GenExpan requests sent before gen_cold's timed phase.
pub const GEN_WARM: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RetHot,
    RetCold,
    GenCold,
    Build,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "ret_hot" => Some(Kind::RetHot),
            "ret_cold" => Some(Kind::RetCold),
            "gen_cold" => Some(Kind::GenCold),
            "build" => Some(Kind::Build),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::RetHot => "ret_hot",
            Kind::RetCold => "ret_cold",
            Kind::GenCold => "gen_cold",
            Kind::Build => "build",
        }
    }

    /// Client connections (closed loop, one process).
    fn conns(self) -> usize {
        if self == Kind::RetHot {
            1
        } else {
            2
        }
    }

    /// Upper bound on timed requests per second, to size the stream.
    fn max_rate(self) -> usize {
        match self {
            Kind::GenCold => 200,
            _ => 10_000,
        }
    }

    /// One in `n` requests is compared with the in-process answer.
    fn sample_every(self) -> u64 {
        match self {
            Kind::RetHot => 16,
            Kind::RetCold => 64,
            Kind::GenCold => 32,
            Kind::Build => 8,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    ultrawiki: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed: num("--seed")?,
        seconds,
        trace: num("--trace")? != 0,
        ultrawiki: PathBuf::from(get("--ultrawiki")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// A run's result: the JSON line's fields.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn main() {
    let code = match parse_args().and_then(|a| {
        std::fs::create_dir_all(&a.work).map_err(|e| format!("{}: {e}", a.work.display()))?;
        let host = Host::start();
        let out = match (a.trace, a.kind) {
            (true, _) => trace::run(&a.ultrawiki, &a.work, a.kind, a.seed, a.seconds)?,
            (false, Kind::Build) => build_run(&a)?,
            (false, kind) => serve_run(&a, kind)?,
        };
        println!("{}", host.report());
        out.json()
    }) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `sorted`, or `None` unless at least ten
/// samples lie beyond it.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Min, median and max of the responses completed in each whole second:
/// shows host interference within a run (a diagnostic, not a metric).
fn per_second(done_ns: &[u64]) -> String {
    let secs = done_ns.iter().max().map_or(0, |&d| d / 1_000_000_000) as usize;
    if secs == 0 {
        return "under a second".into();
    }
    let mut counts = vec![0.0; secs];
    for &d in done_ns {
        if let Some(c) = counts.get_mut((d / 1_000_000_000) as usize) {
            *c += 1.0;
        }
    }
    counts.sort_by(f64::total_cmp);
    format!(
        "min {}, median {}, max {}",
        counts[0],
        median(&counts),
        counts[secs - 1]
    )
}

/// `/metrics` of a running server.
pub fn scrape(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    let reply = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    serde_json::from_slice(&reply.body).map_err(|e| format!("/metrics body: {e}"))
}

/// The differences of two `/metrics` scrapes a run checks and reports.
pub struct Delta {
    pub expands: u64,
    pub handler_us: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub rejected: u64,
    pub panics: u64,
}

impl Delta {
    pub fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Delta {
        let expands = b.expand_latency.count - a.expand_latency.count;
        Delta {
            expands,
            handler_us: (b.expand_latency.sum_micros - a.expand_latency.sum_micros) as f64
                / expands.max(1) as f64,
            hits: b.cache.hits - a.cache.hits,
            misses: b.cache.misses - a.cache.misses,
            evictions: b.cache.evictions - a.cache.evictions,
            rejected: b.rejected_queue_full - a.rejected_queue_full,
            panics: b.panics_total - a.panics_total,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// The in-process answer for a request body, as the server encodes it.
pub fn expected_body(engine: &ExpansionEngine, body: &[u8]) -> Result<Vec<u8>, String> {
    let req: ExpandRequest = serde_json::from_slice(body).map_err(|e| e.to_string())?;
    let (method, query, top_k) = engine.resolve(&req).map_err(|e| e.to_string())?;
    let list = engine
        .expand_uncached(method, &query, top_k)
        .map_err(|e| e.to_string())?;
    response_body(method, query, top_k, &list)
}

/// The `/expand` response body, encoded as the server's handler encodes it
/// (including its clone of the list).
pub fn response_body(
    method: Method,
    query: Query,
    top_k: usize,
    list: &RankedList,
) -> Result<Vec<u8>, String> {
    let resp = ExpandResponse {
        method: method.name().to_string(),
        query,
        top_k,
        list: list.clone(),
    };
    serde_json::to_vec(&resp).map_err(|e| e.to_string())
}

/// Compares sampled response bodies byte for byte with the in-process
/// answers; returns the mismatch count and prints the sample's digest.
fn compare_sample(engine: &ExpansionEngine, sample: &[(&[u8], &[u8])]) -> Result<usize, String> {
    let mut mismatches = 0;
    let mut digest = Vec::new();
    for (req, got) in sample {
        if expected_body(engine, req)?.as_slice() != *got {
            mismatches += 1;
        }
        digest.extend_from_slice(got);
    }
    println!(
        "sample: {} bodies compared in-process, {mismatches} mismatched, digest {:016x}",
        sample.len(),
        ultra_snap::fnv1a(&digest)
    );
    Ok(mismatches)
}

/// Boots the server `n` times; returns the ready times and the last,
/// still running, server.
fn boot_n(bin: &Path, snap: &Path, n: usize) -> Result<(Vec<f64>, Server), String> {
    let mut ready = Vec::new();
    for b in 1..=n {
        let mut server = proc::boot(bin, snap)?;
        ready.push(server.ready.as_secs_f64());
        if b == n {
            return Ok((ready, server));
        }
        let status = server.proc.finish();
        println!(
            "boot {b}: ready in {:.3}s, stopped ({status})",
            server.ready.as_secs_f64()
        );
    }
    Err("no boots requested".into())
}

fn phase_line(name: &str, p: &Phase) {
    println!(
        "{name}: sent {}, succeeded {}, failed {}, resent {}, {:.2}s{}",
        p.sent,
        p.ok,
        p.failed,
        p.resent,
        p.wall.as_secs_f64(),
        if p.errors.is_empty() {
            String::new()
        } else {
            format!(" (first errors: {})", p.errors.join("; "))
        }
    );
}

/// The requests of one serving workload.
pub struct Load {
    pub kind: Kind,
    /// ret_hot: the key set; otherwise the warm-up then the timed stream.
    pub reqs: Vec<Request>,
    pub warm: usize,
    pub seed: u64,
}

impl Load {
    pub fn new(kind: Kind, engine: &ExpansionEngine, seed: u64, seconds: u64) -> Load {
        let world = engine.world();
        let (reqs, warm) = match kind {
            Kind::RetHot => {
                let keys = gen::hot_keys(world);
                let n = keys.len();
                (keys, n)
            }
            Kind::RetCold | Kind::GenCold => {
                let (method, warm) = if kind == Kind::RetCold {
                    (Method::RetExpan, COLD_WARM)
                } else {
                    (Method::GenExpan, GEN_WARM)
                };
                let n = warm + kind.max_rate() * seconds as usize;
                (ColdStream::new(world, method, seed).take(n), warm)
            }
            Kind::Build => unreachable!("build has no request load"),
        };
        Load {
            kind,
            reqs,
            warm,
            seed,
        }
    }

    /// The request behind timed request `i`.
    pub fn timed(&self, i: usize) -> Option<&Request> {
        match self.kind {
            Kind::RetHot => self.reqs.get(gen::hot_pick(self.seed, i, self.reqs.len())),
            _ => self.reqs.get(self.warm + i),
        }
    }

    fn sampled(&self, i: usize) -> bool {
        gen::mix(self.seed ^ 0x53414D50 ^ i as u64).is_multiple_of(self.kind.sample_every())
    }
}

/// What one untraced serving phase saw.
pub struct ServePhase {
    pub ready: Vec<f64>,
    pub warm: Phase,
    pub timed: Phase,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub rss_kib: u64,
    pub died: bool,
    /// ret_hot: the cold body of every key, from the warm-up.
    pub cold: Vec<Vec<u8>>,
}

/// Boots the server `boots` times, warms it, and drives `load` for `limit`
/// over HTTP, scraping `/metrics` around the timed phase.
pub fn serve_phase(
    bin: &Path,
    snap: &Path,
    load: &Load,
    boots: usize,
    limit: Duration,
) -> Result<ServePhase, String> {
    let kind = load.kind;
    let (ready, mut server) = boot_n(bin, snap, boots)?;
    let addr = server.addr;
    let warm_wire = |i: usize| {
        load.reqs
            .get(i)
            .filter(|_| i < load.warm)
            .map(|r| r.wire.as_slice())
    };
    let warm = drive(
        addr,
        kind.conns(),
        None,
        &Plan {
            wire: &warm_wire,
            check: &|_, _| true,
            keep: &|_| kind == Kind::RetHot,
        },
    );
    phase_line("warm-up", &warm);
    let mut cold: Vec<Vec<u8>> = vec![
        Vec::new();
        if kind == Kind::RetHot {
            load.reqs.len()
        } else {
            0
        }
    ];
    for (i, body) in &warm.kept {
        cold[*i] = body.clone();
    }
    let before = scrape(addr)?;
    let timed_wire = |i: usize| load.timed(i).map(|r| r.wire.as_slice());
    // ret_hot: every timed response must equal the cold body of its key.
    let hot_check = |i: usize, r: &Reply| r.body == cold[gen::hot_pick(load.seed, i, cold.len())];
    let timed = drive(
        addr,
        kind.conns(),
        Some(limit),
        &Plan {
            wire: &timed_wire,
            check: if kind == Kind::RetHot {
                &hot_check
            } else {
                &|_, _| true
            },
            keep: &|i| kind != Kind::RetHot && load.sampled(i),
        },
    );
    let after = scrape(addr)?;
    phase_line("timed", &timed);
    let rss_kib = proc::vm_hwm_kib(server.proc.pid()).unwrap_or(0);
    let died = server.proc.exited().is_some();
    let status = server.proc.finish();
    println!(
        "server: {} ({status}), stderr tail: {}",
        if died {
            "DIED during the run"
        } else {
            "alive until stopped"
        },
        server.proc.stderr_tail()
    );
    Ok(ServePhase {
        ready,
        warm,
        timed,
        before,
        after,
        rss_kib,
        died,
        cold,
    })
}

fn serve_run(a: &Args, kind: Kind) -> Result<Outcome, String> {
    let snap = proc::cached_snapshot(&a.ultrawiki, &a.work, &SNAPSHOT_ARGS)?;
    let bytes = ultra_snap::read_bytes(&snap).map_err(|e| e.to_string())?;
    // Loading validates the file and checks its world fingerprint against
    // the world regenerated from (profile, seed): the world the requests
    // below are generated from.
    let engine = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
        .map_err(|e| format!("snapshot load: {e}"))?;
    println!(
        "world fingerprint {:016x}, snapshot {:016x}, {} queries",
        engine.world().fingerprint(),
        ultra_snap::file_fingerprint(&bytes),
        engine.num_queries()
    );
    let load = Load::new(kind, &engine, a.seed, a.seconds);
    let r = serve_phase(
        &a.ultrawiki,
        &snap,
        &load,
        BOOTS,
        Duration::from_secs(a.seconds),
    )?;
    let d = Delta::between(&r.before, &r.after);
    let sample: Vec<(&[u8], &[u8])> = match kind {
        Kind::RetHot => (0..load.reqs.len())
            .filter(|&i| load.sampled(i))
            .map(|i| (load.reqs[i].body(), r.cold[i].as_slice()))
            .collect(),
        _ => r
            .timed
            .kept
            .iter()
            .filter_map(|(i, body)| load.timed(*i).map(|q| (q.body(), body.as_slice())))
            .collect(),
    };
    let mismatches = compare_sample(&engine, &sample)?;

    let timed = &r.timed;
    let mut lat = timed.lat_ns.clone();
    lat.sort_unstable();
    println!(
        "throughput per second of the timed phase: {}",
        per_second(&timed.done_ns)
    );
    let mean_lat_us = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1e3;
    let attempted = r.warm.sent + timed.sent;
    let failed = r.warm.failed + timed.failed + mismatches;
    let cache_ok = match kind {
        Kind::RetHot => d.misses == 0 && d.hits == timed.ok as u64,
        _ => d.hits == 0,
    };
    println!(
        "/metrics delta: {} expands, handler mean {:.1}us, hits {}, misses {}, evictions {} ({:.3}/req), rejected {}, panics {}; client mean {mean_lat_us:.1}us, hit headers {}",
        d.expands, d.handler_us, d.hits, d.misses, d.evictions,
        d.evictions as f64 / timed.sent.max(1) as f64, d.rejected, d.panics, timed.hit_headers
    );
    let q = |f: f64| {
        lat.get(((lat.len() as f64 * f) as usize).min(lat.len().saturating_sub(1)))
            .map_or(0.0, |&n| n as f64 / 1e3)
    };
    println!(
        "latency us: p10 {:.1}, p50 {:.1}, p90 {:.1}, p99 {:.1}, p99.9 {:.1}, max {:.1}; over 1ms {}, over 100ms {}",
        q(0.1), q(0.5), q(0.9), q(0.99), q(0.999), q(1.0),
        lat.iter().filter(|&&n| n > 1_000_000).count(),
        lat.iter().filter(|&&n| n > 100_000_000).count()
    );
    match tail(&lat, 0.99) {
        Some(p99) => println!(
            "latency_p99_ms {:.4} ms (n={})",
            p99 as f64 / 1e6,
            lat.len()
        ),
        None => println!(
            "latency_p99_ms unsupported (n={}: fewer than 10 samples beyond p99)",
            lat.len()
        ),
    }
    println!(
        "failed_frac {:.6} ratio ({failed}/{attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    if !cache_ok {
        println!("cache check FAILED: ret_hot must be all hits, the cold workloads all misses");
    }
    let p50 = lat
        .get(lat.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0);
    let out = Outcome {
        correct: failed == 0 && cache_ok && !r.died && d.panics == 0 && timed.ok > 0,
        attempted,
        failed,
        metrics: vec![
            (
                "throughput_rps".into(),
                timed.ok as f64 / timed.wall.as_secs_f64(),
                "1/s",
            ),
            ("latency_p50_ms".into(), p50 as f64 / 1e6, "ms"),
            ("setup_s".into(), median(&r.ready), "s"),
            ("peak_rss_mb".into(), r.rss_kib as f64 / 1024.0, "MiB"),
            (
                "snapshot_mb".into(),
                bytes.len() as f64 / (1 << 20) as f64,
                "MiB",
            ),
        ],
    };
    print_metrics(&out, &format!("boots n={BOOTS}, timed n={}", lat.len()));
    Ok(out)
}

fn print_metrics(out: &Outcome, counts: &str) {
    for (name, value, unit) in &out.metrics {
        println!("{name} {value:.4} {unit}");
    }
    println!("samples: {counts}");
}

fn build_run(a: &Args) -> Result<Outcome, String> {
    let start = std::time::Instant::now();
    let mut builds: Vec<proc::Built> = Vec::new();
    while builds.len() < 2 || start.elapsed().as_secs() < a.seconds {
        let out = a.work.join(format!("build-{}.usnp", builds.len() % 2));
        let b = proc::build_index(&a.ultrawiki, &BUILD_ARGS, &out)?;
        println!(
            "build {}: {:.3}s, peak {:.1} MiB, fingerprint {}",
            builds.len() + 1,
            b.wall.as_secs_f64(),
            b.peak_rss_mib,
            b.fingerprint
        );
        builds.push(b);
    }
    let first = &builds[0].fingerprint;
    let irreproducible = builds.iter().filter(|b| &b.fingerprint != first).count();
    let snap = a.work.join("build-0.usnp");
    let bytes = ultra_snap::read_bytes(&snap).map_err(|e| e.to_string())?;
    let engine = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
        .map_err(|e| format!("built snapshot does not load: {e}"))?;

    // Set-up: boots of the snapshot just built, then a seeded verification
    // stream against the last boot, compared byte for byte in-process.
    let (ready, mut server) = boot_n(&a.ultrawiki, &snap, BOOTS)?;
    let probe = ColdStream::new(engine.world(), Method::RetExpan, a.seed).take(200);
    let wire = |i: usize| probe.get(i).map(|r| r.wire.as_slice());
    let verify = drive(
        server.addr,
        1,
        None,
        &Plan {
            wire: &wire,
            check: &|_, _| true,
            keep: &|i| gen::mix(a.seed ^ i as u64).is_multiple_of(Kind::Build.sample_every()),
        },
    );
    phase_line("verify", &verify);
    let died = server.proc.exited();
    let status = server.proc.finish();
    println!(
        "server: {} ({status})",
        if died.is_some() {
            "DIED"
        } else {
            "alive until stopped"
        }
    );
    let sample: Vec<(&[u8], &[u8])> = verify
        .kept
        .iter()
        .map(|(i, body)| (probe[*i].body(), body.as_slice()))
        .collect();
    let mismatches = compare_sample(&engine, &sample)?;

    let walls: Vec<f64> = builds.iter().map(|b| b.wall.as_secs_f64()).collect();
    let peaks: Vec<f64> = builds.iter().map(|b| b.peak_rss_mib).collect();
    let attempted = builds.len() + verify.sent;
    let failed = irreproducible + verify.failed + mismatches;
    println!(
        "build_s {:.4} s (median of {})",
        median(&walls),
        walls.len()
    );
    println!(
        "failed_frac {:.6} ratio ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );
    let out = Outcome {
        correct: failed == 0 && died.is_none() && verify.ok > 0,
        attempted,
        failed,
        metrics: vec![
            (
                "throughput_rps".into(),
                builds.len() as f64 / walls.iter().sum::<f64>(),
                "1/s",
            ),
            ("latency_p50_ms".into(), median(&walls) * 1e3, "ms"),
            ("setup_s".into(), median(&ready), "s"),
            ("peak_rss_mb".into(), median(&peaks), "MiB"),
            (
                "snapshot_mb".into(),
                builds[0].bytes as f64 / (1 << 20) as f64,
                "MiB",
            ),
        ],
    };
    print_metrics(&out, &format!("builds n={}, boots n={BOOTS}", builds.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v, 0.99), None, "999 samples leave 9 beyond p99");
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 0.99), Some(990), "1000 samples leave 10 beyond");
        assert_eq!(tail(&v, 0.5), Some(500));
        assert_eq!(tail(&[], 0.5), None);
        assert_eq!(tail(&(1..=10).collect::<Vec<_>>(), 0.0), None);
        assert_eq!(tail(&(1..=11).collect::<Vec<_>>(), 0.0), Some(1));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.25, "s")],
        };
        assert_eq!(
            out.json().expect("finite"),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        let bad = Outcome {
            metrics: vec![("x".into(), f64::NAN, "s")],
            ..out
        };
        assert!(bad.json().is_err());
    }
}
