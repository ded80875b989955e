//! `ultrawiki` — command-line interface to the reproduction.
//!
//! ```text
//! ultrawiki stats   [--profile tiny|small|paper|huge] [--seed N]
//! ultrawiki classes [--profile …]
//! ultrawiki expand  [--profile …] [--method NAME] [--query N] [--top K]
//! ultrawiki eval    [--profile …] [--method NAME]
//! ultrawiki serve   [--profile …] [--port N] [--workers N] [--methods …]
//! ```
//!
//! `--method` names any Table 2 row of the `ultra-bench` registry. Argument
//! parsing is hand-rolled (no CLI dependency) and deterministic: the same
//! profile + seed always yields the same world, model, and output. Bad
//! input (an unknown flag, method or profile, or a number that does not
//! parse) exits 2 with the accepted values before any world is generated.

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::str::FromStr;
use std::sync::Arc;
use ultra_bench::{Method, Suite};
use ultrawiki::prelude::*;
use ultrawiki::serve::{Method as ServedMethod, ServerHandle};

type Flags = HashMap<String, String>;

/// Parses `--flag [value]` pairs, validating against the command's known
/// flag names. A flag followed by another `--`-prefixed token (or by nothing)
/// carries an empty value instead of swallowing the next flag.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected positional argument `{}`", args[i]));
        };
        if !known.contains(&name) {
            return Err(format!(
                "unknown flag `--{name}` (expected one of: {})",
                known
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let value = match args.get(i + 1) {
            Some(next) if !next.starts_with("--") => {
                i += 2;
                next.clone()
            }
            _ => {
                i += 1;
                String::new()
            }
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// Prints `error: {msg}` and exits 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// `--name` parsed as `T`, or `None` when the flag is absent. A value that
/// does not parse exits 2.
fn flag<T: FromStr>(flags: &Flags, name: &str) -> Option<T> {
    flags.get(name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            fail(&format!(
                "invalid --{name} `{v}` (expected {})",
                std::any::type_name::<T>()
            ))
        })
    })
}

/// `--profile` (default `small`) and the world it selects with `--seed`.
fn world_config(flags: &Flags) -> (&str, WorldConfig) {
    let profile = flags.get("profile").map_or("small", String::as_str);
    let cfg = WorldConfig::from_profile(profile).unwrap_or_else(|e| fail(&e.to_string()));
    (profile, cfg.with_seed(flag(flags, "seed").unwrap_or(42)))
}

fn generate((profile, cfg): (&str, WorldConfig)) -> World {
    eprintln!("generating world (profile={profile}, seed={})…", cfg.seed);
    World::generate(cfg).expect("world generation")
}

/// Parses `--ann` / `--nlist` / `--nprobe` into a candidate-source spec.
fn ann_spec(flags: &Flags) -> AnnSpec {
    let kind = flags.get("ann").map_or("exhaustive", String::as_str);
    AnnSpec::from_flags(kind, flag(flags, "nlist"), flag(flags, "nprobe"))
        .unwrap_or_else(|| fail(&format!("unknown --ann `{kind}` (expected exhaustive|ivf)")))
}

/// The `--method` row (default `retexpan`).
fn method_flag(flags: &Flags) -> Method {
    let name = flags.get("method").map_or("retexpan", String::as_str);
    Method::from_name(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown --method `{name}` (expected {})",
            method_names().join("|")
        ))
    })
}

fn method_names() -> Vec<&'static str> {
    Method::ALL.iter().map(Method::wire_name).collect()
}

/// A suite over the selected world whose RetExpan uses `--ann`.
fn suite_for(world: (&str, WorldConfig), ann: AnnSpec) -> Suite {
    let mut suite = Suite::new(generate(world));
    suite.retexpan_config.ann = ann;
    suite
}

fn cmd_stats(flags: &Flags) {
    let world = generate(world_config(flags));
    let stats = WorldStats::compute(&world);
    println!("entities              {}", stats.num_entities);
    println!("  in fine classes     {}", stats.num_class_entities);
    println!("sentences             {}", stats.num_sentences);
    println!("tokens                {}", stats.num_tokens);
    println!("fine-grained classes  {}", stats.num_fine_classes);
    println!("ultra-fine classes    {}", stats.num_ultra_classes);
    println!("queries               {}", stats.num_queries);
    println!(
        "avg |P| / |N|         {:.1} / {:.1}",
        stats.avg_pos_targets, stats.avg_neg_targets
    );
    println!(
        "class overlap         {:.1}%",
        100.0 * stats.overlap_fraction
    );
}

fn cmd_classes(flags: &Flags) {
    let world = generate(world_config(flags));
    for class in &world.classes {
        let attrs: Vec<String> = class
            .attributes
            .iter()
            .map(|&a| {
                let schema = &world.attributes[a.index()];
                format!("{}({} values)", schema.name, schema.values.len())
            })
            .collect();
        let ultra = world
            .ultra_classes
            .iter()
            .filter(|u| u.fine == class.id)
            .count();
        println!(
            "{:<24} {:>4} entities  {:>3} ultra classes  attrs: {}",
            class.name,
            class.entities.len(),
            ultra,
            attrs.join(", ")
        );
    }
}

fn cmd_expand(flags: &Flags) {
    let (world, method, ann) = (world_config(flags), method_flag(flags), ann_spec(flags));
    let query_idx: usize = flag(flags, "query").unwrap_or(0);
    let top: usize = flag(flags, "top").unwrap_or(15);
    let mut suite = suite_for(world, ann);
    let expand = method.build(&mut suite);
    let world = &suite.world;
    let Some((ultra, query)) = world.queries().nth(query_idx) else {
        fail(&format!("query index {query_idx} out of range"));
    };
    println!("query #{query_idx}: {}", world.describe_ultra(ultra));
    let names = |ids: &[EntityId]| {
        ids.iter()
            .map(|&e| world.entity(e).name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("  + seeds: {}", names(&query.pos_seeds));
    println!("  - seeds: {}", names(&query.neg_seeds));
    let out = expand(world, ultra, query);
    println!("\n{} expansion:", method.wire_name());
    for (i, e) in out.entities().take(top).enumerate() {
        let tag = if ultra.pos_targets.contains(&e) {
            "+++"
        } else if ultra.neg_targets.contains(&e) {
            "---"
        } else if e.index() >= world.num_entities() {
            "???"
        } else {
            "   "
        };
        let name = if e.index() < world.num_entities() {
            world.entity(e).name.clone()
        } else {
            "<hallucination>".to_string()
        };
        println!("  {:2} {tag} {name}", i + 1);
    }
}

fn cmd_export(flags: &Flags) {
    let world = generate(world_config(flags));
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "ultrawiki-dataset".to_string());
    let dir = std::path::Path::new(&out);
    ultrawiki::data::export::export_dataset(&world, dir).expect("export");
    println!(
        "exported {} entities / {} queries / {} sentences to {}",
        world.num_entities(),
        world
            .ultra_classes
            .iter()
            .map(|u| u.queries.len())
            .sum::<usize>(),
        world.corpus.len(),
        dir.display()
    );
}

fn cmd_eval(flags: &Flags) {
    let (world, method, ann) = (world_config(flags), method_flag(flags), ann_spec(flags));
    let mut suite = suite_for(world, ann);
    let expand = method.build(&mut suite);
    let world = &suite.world;
    let pool = Pool::global();
    eprintln!("evaluating over every query ({} threads)…", pool.threads());
    let report = evaluate_method_par(world, &pool, |u, q| expand(world, u, q));
    println!(
        "method: {} ({} queries)",
        method.wire_name(),
        report.num_queries
    );
    println!("          @10     @20     @50     @100");
    println!(
        "PosMAP  {:6.2}  {:6.2}  {:6.2}  {:6.2}",
        report.pos_map[0], report.pos_map[1], report.pos_map[2], report.pos_map[3]
    );
    println!(
        "NegMAP  {:6.2}  {:6.2}  {:6.2}  {:6.2}",
        report.neg_map[0], report.neg_map[1], report.neg_map[2], report.neg_map[3]
    );
    println!(
        "Comb    {:6.2}  {:6.2}  {:6.2}  {:6.2}",
        report.comb_map[0], report.comb_map[1], report.comb_map[2], report.comb_map[3]
    );
    println!(
        "averages: Pos {:.2}  Neg {:.2}  Comb {:.2}",
        report.avg_pos(),
        report.avg_neg(),
        report.avg_comb()
    );
}

/// Builds an [`EngineConfig`] from `serve`/`build-index` flags (shared so a
/// snapshot built offline trains exactly what `serve` would train online).
fn engine_config(flags: &Flags) -> EngineConfig {
    let (profile, world) = world_config(flags);
    let mut genexpan = None;
    let methods = flags.get("methods").map_or("retexpan", String::as_str);
    for name in methods.split(',').map(str::trim) {
        match ServedMethod::from_name(name) {
            Some(ServedMethod::GenExpan) => genexpan = Some(GenExpanConfig::default()),
            Some(ServedMethod::RetExpan) => {}
            None => fail(&format!(
                "unknown method `{name}` in --methods (expected retexpan,genexpan)"
            )),
        }
    }
    EngineConfig {
        profile: profile.to_string(),
        seed: world.seed,
        genexpan,
        cache_capacity: flag(flags, "cache-cap").unwrap_or(4096),
        threads: flag(flags, "threads").unwrap_or(0),
        retexpan: RetExpanConfig {
            ann: ann_spec(flags),
            ..RetExpanConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Runs the offline phase for `serve`/`build-index`.
fn build_engine(config: EngineConfig) -> ExpansionEngine {
    let methods = if config.genexpan.is_some() {
        "retexpan,genexpan"
    } else {
        "retexpan"
    };
    eprintln!(
        "building engine (profile={}, seed={}, methods={methods})…",
        config.profile, config.seed
    );
    ExpansionEngine::build(config).unwrap_or_else(|e| fail(&format!("engine build failed: {e}")))
}

fn cmd_build_index(flags: &Flags) {
    let Some(out) = flags.get("out").filter(|s| !s.is_empty()) else {
        fail("build-index needs --out PATH for the snapshot file");
    };
    let config = engine_config(flags);
    let started = std::time::Instant::now();
    let engine = build_engine(config);
    let train_ms = started.elapsed().as_millis();
    let snapshot = engine
        .to_snapshot()
        .unwrap_or_else(|e| fail(&format!("snapshot encoding failed: {e}")));
    let bytes = snapshot.to_bytes();
    let fingerprint = ultrawiki::snap::file_fingerprint(&bytes);
    if let Err(e) = ultrawiki::snap::write_bytes(std::path::Path::new(out), &bytes) {
        fail(&format!("snapshot write failed: {e}"));
    }
    println!(
        "wrote {out}: {} bytes, fingerprint {fingerprint:016x} (trained in {train_ms}ms)",
        bytes.len()
    );
}

/// `--port`/`--workers`/`--queue`, shared by both ways of serving.
fn server_config(flags: &Flags) -> ServerConfig {
    ServerConfig {
        addr: format!("127.0.0.1:{}", flag::<u16>(flags, "port").unwrap_or(7878)),
        workers: flag(flags, "workers").unwrap_or(4),
        queue_capacity: flag(flags, "queue").unwrap_or(128),
        ..ServerConfig::default()
    }
}

/// Writes the startup banner (its first line carries the bound address).
/// Write errors are ignored: a closed stdout must not take the server down.
fn write_banner(mut out: impl Write, addr: SocketAddr) {
    let _ = write!(
        out,
        "serving on http://{addr}\n  \
         POST /expand   {{\"method\":\"retexpan\",\"query_index\":0,\"top_k\":10}}\n  \
         GET  /healthz\n  \
         GET  /metrics\n"
    )
    .and_then(|()| out.flush());
}

/// Announces a started server and serves until it shuts down.
fn serve_until_shutdown(handle: ServerHandle) {
    write_banner(std::io::stdout(), handle.addr());
    handle.join();
}

fn cmd_serve_snapshot(flags: &Flags, path: &str) {
    for conflicting in ["profile", "seed", "ann", "nlist", "nprobe", "methods"] {
        if flags.contains_key(conflicting) {
            fail(&format!(
                "--snapshot carries its own {conflicting}; drop --{conflicting} \
                 (snapshots pin profile, seed, methods, and the ANN spec)"
            ));
        }
    }
    let server_cfg = server_config(flags);
    let runtime = SnapshotRuntime {
        cache_capacity: flag(flags, "cache-cap").unwrap_or(4096),
        threads: flag(flags, "threads").unwrap_or(0),
        ..SnapshotRuntime::default()
    };
    // Bind first: the port answers 503 while the snapshot is checksummed
    // and validated, and flips to serving only once the engine is sound.
    let (handle, installer) = Server::start_warming(server_cfg)
        .unwrap_or_else(|e| fail(&format!("server start failed: {e}")));
    eprintln!("loading snapshot {path}…");
    let engine = ExpansionEngine::load_snapshot(std::path::Path::new(path), runtime)
        .unwrap_or_else(|e| fail(&format!("snapshot load failed: {e}")));
    installer.install(Arc::new(engine));
    serve_until_shutdown(handle);
}

fn cmd_serve(flags: &Flags) {
    if let Some(path) = flags.get("snapshot").filter(|s| !s.is_empty()) {
        return cmd_serve_snapshot(flags, path);
    }
    let server_cfg = server_config(flags);
    let engine = Arc::new(build_engine(engine_config(flags)));
    let handle = Server::start(engine, server_cfg)
        .unwrap_or_else(|e| fail(&format!("server start failed: {e}")));
    serve_until_shutdown(handle);
}

const USAGE: &str = "\
ultrawiki — Ultra-ESE reproduction CLI

USAGE:
  ultrawiki stats   [--profile tiny|small|paper|huge] [--seed N]
  ultrawiki classes [--profile ...] [--seed N]
  ultrawiki expand  [--profile ...] [--method NAME] [--query N] [--top K]
                    [--ann exhaustive|ivf] [--nlist N] [--nprobe N]
  ultrawiki eval    [--profile ...] [--method NAME] [--ann ...] [--nlist N]
                    [--nprobe N]
  ultrawiki export  [--profile ...] [--out DIR]
  ultrawiki serve   [--profile ...] [--seed N] [--port N] [--workers N]
                    [--queue N] [--cache-cap N] [--methods retexpan[,genexpan]]
                    [--ann exhaustive|ivf] [--nlist N] [--nprobe N]
  ultrawiki serve   --snapshot PATH [--port N] [--workers N] [--queue N]
                    [--cache-cap N]
  ultrawiki build-index --out PATH [--profile ...] [--seed N]
                    [--methods retexpan[,genexpan]] [--ann exhaustive|ivf]
                    [--nlist N] [--nprobe N]

--method NAME picks a Table 2 row (default retexpan): {methods}.

Every command also accepts --threads N (data-parallel worker count for
scoring/training/eval; overrides ULTRA_THREADS; output is byte-identical
at any value). --ann ivf puts a deterministic IVF index in front of
RetExpan preliminary scoring; --nprobe 0 probes every list (byte-identical
to --ann exhaustive), --nlist 0 picks sqrt(N) lists.

build-index runs the expensive offline phase once and writes a versioned,
checksummed snapshot; `serve --snapshot` loads it in milliseconds and
serves byte-identical answers. A snapshot pins profile, seed, methods,
and the ANN spec, so those flags conflict with --snapshot.

An unknown flag, method or profile, or a number that does not parse,
exits 2 before any work starts.
";

fn usage() -> String {
    USAGE.replace("{methods}", &method_names().join("|"))
}

/// Flags each command accepts (unknown flags are reported, not ignored).
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "expand" => &[
            "profile", "seed", "method", "query", "top", "threads", "ann", "nlist", "nprobe",
        ],
        "eval" => &[
            "profile", "seed", "method", "threads", "ann", "nlist", "nprobe",
        ],
        "export" => &["profile", "seed", "out", "threads"],
        "serve" => &[
            "profile",
            "seed",
            "port",
            "workers",
            "queue",
            "cache-cap",
            "methods",
            "threads",
            "ann",
            "nlist",
            "nprobe",
            "snapshot",
        ],
        "build-index" => &[
            "profile", "seed", "out", "methods", "threads", "ann", "nlist", "nprobe",
        ],
        _ => &["profile", "seed", "threads"],
    }
}

/// Applies `--threads N` (overriding the `ULTRA_THREADS` environment
/// variable) before any work runs. `0` or absence keeps the default.
fn apply_threads(flags: &Flags) {
    if let Some(n) = flag(flags, "threads") {
        ultrawiki::par::set_threads(n);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return;
    }
    let flags = match parse_flags(&args[1..], known_flags(cmd)) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{}", usage());
            std::process::exit(2);
        }
    };
    apply_threads(&flags);
    match cmd.as_str() {
        "stats" => cmd_stats(&flags),
        "classes" => cmd_classes(&flags),
        "expand" => cmd_expand(&flags),
        "eval" => cmd_eval(&flags),
        "export" => cmd_export(&flags),
        "serve" => cmd_serve(&flags),
        "build-index" => cmd_build_index(&flags),
        _ => {
            eprint!("{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_flags, write_banner};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_followed_by_flag_keeps_both() {
        // The old parser swallowed `--seed` as the value of `--profile`.
        let flags = parse_flags(&argv(&["--profile", "--seed", "7"]), &["profile", "seed"])
            .expect("parses");
        assert_eq!(flags.get("profile").map(String::as_str), Some(""));
        assert_eq!(flags.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn trailing_flag_without_value_is_empty() {
        let flags = parse_flags(&argv(&["--seed", "7", "--profile"]), &["profile", "seed"])
            .expect("parses");
        assert_eq!(flags.get("seed").map(String::as_str), Some("7"));
        assert_eq!(flags.get("profile").map(String::as_str), Some(""));
    }

    #[test]
    fn unknown_flags_are_reported() {
        let err = parse_flags(&argv(&["--sed", "7"]), &["profile", "seed"]).unwrap_err();
        assert!(err.contains("--sed"), "names the bad flag: {err}");
        assert!(err.contains("--seed"), "lists the known flags: {err}");
    }

    #[test]
    fn positional_arguments_are_reported() {
        let err = parse_flags(&argv(&["tiny"]), &["profile"]).unwrap_err();
        assert!(err.contains("tiny"), "{err}");
    }

    #[test]
    fn normal_pairs_still_parse() {
        let flags = parse_flags(
            &argv(&["--profile", "tiny", "--seed", "123"]),
            &["profile", "seed"],
        )
        .expect("parses");
        assert_eq!(flags.get("profile").map(String::as_str), Some("tiny"));
        assert_eq!(flags.get("seed").map(String::as_str), Some("123"));
    }

    /// A stdout whose reader has gone away.
    struct ClosedPipe;

    impl std::io::Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn banner_survives_a_closed_stdout() {
        write_banner(ClosedPipe, "127.0.0.1:7878".parse().expect("addr"));
    }

    #[test]
    fn banner_starts_with_the_bound_address() {
        let mut out = Vec::new();
        write_banner(&mut out, "127.0.0.1:9".parse().expect("addr"));
        assert_eq!(
            String::from_utf8(out).expect("utf-8"),
            "serving on http://127.0.0.1:9\n  \
             POST /expand   {\"method\":\"retexpan\",\"query_index\":0,\"top_k\":10}\n  \
             GET  /healthz\n  \
             GET  /metrics\n"
        );
    }
}
