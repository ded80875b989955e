//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Tracing never runs inside a timed run. This run
//! 1. drives each serving workload untraced over HTTP for a short phase,
//!    for the `/metrics` counts and ratios and the untraced references,
//!    and times one untraced `build-index` process;
//! 2. replays each serving workload's generated requests in-process
//!    against an engine loaded from the same snapshot, once untraced and
//!    once with a span around every layer call, with RetExpan split into
//!    its stages;
//! 3. runs replicas of a boot and of a build, split into their phases.
//!
//! Every decomposition is checked against the composite call it splits:
//! the split RetExpan lists must equal `RetExpan::expand` and
//! `RetExpan::preliminary_list` bit for bit, the traced responses must equal
//! the untraced ones byte for byte, each decoded section must re-encode to
//! its payload, and the split build must write the same snapshot
//! fingerprint as the `build-index` process. Spans are kept in memory and
//! written to `<work>/spans-<workload>-<seed>.jsonl` at the end.

use crate::proc;
use crate::{median, response_body, Delta, Kind, Load, Outcome, BUILD_ARGS, SNAPSHOT_ARGS};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ultra_ann::{AnnSpec, CandidateSource, Exhaustive};
use ultra_core::{segmented_rerank, EntityId, Query, RankedList};
use ultra_data::World;
use ultra_embed::{EntityEmbeddings, EntityEncoder};
use ultra_genexpan::{CoocIndex, GenExpan, GenExpanConfig};
use ultra_lm::NgramLm;
use ultra_par::Pool;
use ultra_retexpan::RetExpanConfig;
use ultra_serve::engine::SnapshotRuntime;
use ultra_serve::http::{read_request, write_json_response};
use ultra_serve::{
    CacheKey, EngineConfig, ExpandRequest, ExpansionEngine, Method, ShardedLruCache,
};
use ultra_snap::{Snapshot, SnapshotMeta};
use ultra_text::{Bm25Index, Bm25Params, PrefixTrie};

const SERVING: [Kind; 3] = [Kind::RetHot, Kind::RetCold, Kind::GenCold];
/// Boot replicas per traced run (their medians are reported).
const BOOT_REPLICAS: usize = 3;
/// Most timed requests replayed per serving workload, which bounds the
/// spans kept in memory and written out.
const REPLAY_CAP: [usize; 3] = [10_000, 3_000, 100];

/// One span: a timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rid: u64,
}

/// In-memory span recorder; nesting follows the call stack.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for request `rid`.
    fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rid,
        });
        self.stack.push(id);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.stack.pop();
        let s = &mut self.spans[id];
        (s.start_ns, s.end_ns) = (start, end);
        out
    }

    fn dur(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.dur(i);
            }
        }
        (0..self.spans.len())
            .map(|i| self.dur(i).saturating_sub(child[i]))
            .collect()
    }

    /// Self times (ns) per `(source, span name)`.
    fn by_name(&self) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(selfs) {
            out.entry((source(s.rid), s.name))
                .or_default()
                .push(ns as f64);
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":\"{}-{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                source(s.rid),
                s.rid & 0xFFFF_FFFF
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}

/// Request ids carry their source in the high word.
fn rid(src: usize, i: usize) -> u64 {
    ((src as u64) << 32) | i as u64
}

const SOURCES: [&str; 5] = ["ret_hot", "ret_cold", "gen_cold", "boot", "build"];

fn source(rid: u64) -> &'static str {
    SOURCES.get((rid >> 32) as usize).copied().unwrap_or("?")
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The server's request path without spans (the untraced reference):
/// returns the full response bytes.
fn serve_plain(
    engine: &ExpansionEngine,
    cache: &ShardedLruCache,
    wire: &[u8],
) -> Result<Vec<u8>, String> {
    let req = read_request(&mut &wire[..]).map_err(err)?;
    let er: ExpandRequest = serde_json::from_slice(&req.body).map_err(err)?;
    let (method, query, top_k) = engine.resolve(&er).map_err(err)?;
    let key = CacheKey {
        method,
        query: query.clone(),
        top_k,
    };
    let (list, outcome) = match cache.get(&key) {
        Some(list) => (list, "hit"),
        None => {
            let list = Arc::new(engine.expand_uncached(method, &query, top_k).map_err(err)?);
            cache.insert(key, list.clone());
            (list, "miss")
        }
    };
    let body = response_body(method, query, top_k, &list)?;
    let mut out = Vec::new();
    write_json_response(&mut out, 200, &[("x-ultra-cache", outcome)], &body).map_err(err)?;
    Ok(out)
}

/// Counts gathered while replaying.
#[derive(Default)]
struct Tally {
    scored: Vec<f64>,
    gen_len: Vec<f64>,
    body_bytes: Vec<f64>,
    /// `(rid, query, full list, L0)` of every split RetExpan request, checked
    /// against the composite calls after the timed loop.
    splits: Vec<(u64, Query, RankedList, RankedList)>,
}

fn same_bits(a: &RankedList, b: &RankedList) -> bool {
    a.len() == b.len()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// RetExpan split into its stages, each in a span; returns the full
/// (untruncated) list and the preliminary list `L0`.
fn retexpan_split(
    tr: &mut Tracer,
    rid: u64,
    engine: &ExpansionEngine,
    q: &Query,
    tally: &mut Tally,
) -> (RankedList, RankedList) {
    let ret = engine.retexpan();
    let pool = Pool::global();
    let cands: Vec<(EntityId, f32)> = tr.span("ann.candidates", rid, |_| {
        let scored = Exhaustive.scored_candidates(&ret.reps, &q.pos_seeds, &pool);
        tally.scored.push(scored.len() as f64);
        scored.into_iter().filter(|&(e, _)| !q.is_seed(e)).collect()
    });
    let l0 = tr.span("core.rank", rid, |_| {
        RankedList::from_scores(cands).truncated(ret.config.top_k)
    });
    if !ret.config.rerank || q.neg_seeds.is_empty() {
        return (l0.clone(), l0);
    }
    let table = tr.span("embed.neg_scores", rid, |_| {
        let ids: Vec<EntityId> = l0.entities().collect();
        let neg = ret.reps.seed_scores(&ids, &q.neg_seeds, &pool);
        let mut table: Vec<(EntityId, f32)> = ids.into_iter().zip(neg).collect();
        table.sort_by_key(|&(e, _)| e);
        table
    });
    let list = tr.span("core.rerank", rid, |_| {
        segmented_rerank(&l0, ret.config.segment_len, |e| {
            match table.binary_search_by(|probe| probe.0.cmp(&e)) {
                Ok(i) => table[i].1,
                Err(_) => ret.reps.seed_score(e, &q.neg_seeds),
            }
        })
    });
    (list, l0)
}

/// The request path with a span around every layer call.
fn serve_traced(
    tr: &mut Tracer,
    rid: u64,
    engine: &ExpansionEngine,
    cache: &ShardedLruCache,
    wire: &[u8],
    tally: &mut Tally,
) -> Result<Vec<u8>, String> {
    tr.span("request", rid, |tr| {
        let req = tr
            .span("http.parse", rid, |_| read_request(&mut &wire[..]))
            .map_err(err)?;
        let er: ExpandRequest = tr
            .span("api.decode", rid, |_| serde_json::from_slice(&req.body))
            .map_err(err)?;
        let (method, query, top_k) = tr
            .span("engine.resolve", rid, |_| engine.resolve(&er))
            .map_err(err)?;
        let (key, hit) = tr.span("cache.lookup", rid, |_| {
            let key = CacheKey {
                method,
                query: query.clone(),
                top_k,
            };
            let hit = cache.get(&key);
            (key, hit)
        });
        let (list, outcome) = match hit {
            Some(list) => (list, "hit"),
            None => {
                let list = match method {
                    Method::RetExpan => {
                        let (full, l0) = retexpan_split(tr, rid, engine, &query, tally);
                        let list = if top_k > 0 {
                            full.truncated(top_k)
                        } else {
                            full.clone()
                        };
                        tally.splits.push((rid, query.clone(), full, l0));
                        list
                    }
                    Method::GenExpan => {
                        let list = tr
                            .span("genexpan.expand", rid, |_| {
                                engine.expand_uncached(Method::GenExpan, &query, top_k)
                            })
                            .map_err(err)?;
                        tally.gen_len.push(list.len() as f64);
                        list
                    }
                };
                let list = Arc::new(list);
                tr.span("cache.insert", rid, |_| cache.insert(key, list.clone()));
                (list, "miss")
            }
        };
        let body = tr.span("api.encode", rid, |_| {
            response_body(method, query, top_k, &list)
        })?;
        tally.body_bytes.push(body.len() as f64);
        tr.span("http.write", rid, |_| {
            let mut out = Vec::new();
            write_json_response(&mut out, 200, &[("x-ultra-cache", outcome)], &body).map(|()| out)
        })
        .map_err(err)
    })
}

/// Times the composite calls the RetExpan split reproduces and counts the
/// lists that differ from it in any bit.
fn check_splits(
    tr: &mut Tracer,
    engine: &ExpansionEngine,
    splits: &[(u64, Query, RankedList, RankedList)],
) -> usize {
    let ret = engine.retexpan();
    let world = engine.world();
    let mut bad = 0;
    for (rid, query, full, l0) in splits {
        let composite = tr.span("retexpan.expand", *rid, |_| ret.expand(world, query));
        let prelim = tr.span("retexpan.preliminary", *rid, |_| {
            ret.preliminary_list(world, query, None)
        });
        bad += usize::from(!same_bits(full, &composite) || !same_bits(l0, &prelim));
    }
    bad
}

/// An in-process replay of one serving workload.
struct Replay {
    /// Untraced per-request time, timed requests only (ns).
    plain_ns: Vec<f64>,
    /// Traced request-root span ids of the timed requests.
    roots: Vec<usize>,
    /// Traced responses that differ from the untraced ones.
    body_mismatches: usize,
    split_mismatches: usize,
    tally: Tally,
}

fn replay(
    tr: &mut Tracer,
    engine: &ExpansionEngine,
    load: &Load,
    src: usize,
    budget: Duration,
) -> Result<Replay, String> {
    let rt = SnapshotRuntime::default();
    let warm: Vec<&[u8]> = load.reqs[..load.warm]
        .iter()
        .map(|r| r.wire.as_slice())
        .collect();
    // Untraced pass: the same requests through the composite path.
    let cache = ShardedLruCache::new(rt.cache_capacity, rt.cache_shards);
    for w in &warm {
        serve_plain(engine, &cache, w)?;
    }
    let mut plain_ns = Vec::new();
    let mut expected = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget && plain_ns.len() < REPLAY_CAP[src] {
        let Some(req) = load.timed(plain_ns.len()) else {
            break;
        };
        let t0 = Instant::now();
        let out = serve_plain(engine, &cache, &req.wire)?;
        plain_ns.push(t0.elapsed().as_nanos() as f64);
        expected.push(ultra_snap::fnv1a(&out));
    }
    // Traced pass over the same requests, on a fresh cache warmed alike.
    let cache = ShardedLruCache::new(rt.cache_capacity, rt.cache_shards);
    for w in &warm {
        serve_plain(engine, &cache, w)?;
    }
    let mut tally = Tally::default();
    let mut roots = Vec::new();
    let mut body_mismatches = 0;
    for (i, want) in expected.iter().enumerate() {
        let req = load.timed(i).expect("replayed above");
        roots.push(tr.spans.len());
        let out = serve_traced(tr, rid(src, i), engine, &cache, &req.wire, &mut tally)?;
        body_mismatches += usize::from(ultra_snap::fnv1a(&out) != *want);
    }
    let split_mismatches = check_splits(tr, engine, &tally.splits);
    Ok(Replay {
        plain_ns,
        roots,
        body_mismatches,
        split_mismatches,
        tally,
    })
}

/// One boot replica, split into its phases; returns the root span id and
/// the number of failed checks.
fn boot_replica(
    tr: &mut Tracer,
    snap: &Path,
    r: u64,
    mb: &mut BTreeMap<&'static str, f64>,
) -> Result<(usize, usize), String> {
    let root = tr.spans.len();
    let (bytes, engine) = tr.span("boot", r, |tr| -> Result<_, String> {
        let bytes = tr
            .span("snap.read", r, |_| ultra_snap::read_bytes(snap))
            .map_err(err)?;
        let snapshot = tr
            .span("snap.decode", r, |_| Snapshot::from_bytes(&bytes))
            .map_err(err)?;
        let engine = tr
            .span("engine.from_snapshot", r, |_| {
                ExpansionEngine::from_snapshot(snapshot, SnapshotRuntime::default())
            })
            .map_err(err)?;
        Ok((bytes, engine))
    })?;
    // Section by section, each decode checked by re-encoding its payload.
    let mut bad = 0;
    for s in ultra_snap::section_spans(&bytes).map_err(err)? {
        let payload = &bytes[s.payload_start..s.payload_end];
        let size = payload.len() as f64 / (1 << 20) as f64;
        let same = match &s.tag {
            b"EMBD" => {
                mb.insert("snap.embd_mb", size);
                tr.span("snap.decode_embd", r, |_| {
                    EntityEmbeddings::from_bytes(payload)
                })
                .map_err(err)?
                .to_bytes()
                    == payload
            }
            b"NGLM" => {
                mb.insert("snap.nglm_mb", size);
                tr.span("snap.decode_nglm", r, |_| NgramLm::from_bytes(payload))
                    .map_err(err)?
                    .to_bytes()
                    == payload
            }
            b"TRIE" => {
                mb.insert("snap.trie_mb", size);
                tr.span("snap.decode_trie", r, |_| PrefixTrie::from_bytes(payload))
                    .map_err(err)?
                    .to_bytes()
                    == payload
            }
            b"BM25" => {
                mb.insert("snap.bm25_mb", size);
                tr.span("snap.decode_bm25", r, |_| Bm25Index::from_bytes(payload))
                    .map_err(err)?
                    .to_bytes()
                    == payload
            }
            _ => true,
        };
        bad += usize::from(!same);
    }
    // The cheap structures `from_snapshot` rebuilds, one by one.
    let world = tr.span("data.world", r, |_| {
        engine
            .config()
            .world_config()
            .map_err(err)
            .and_then(|c| World::generate(c).map_err(err))
    })?;
    bad += usize::from(world.fingerprint() != engine.world().fingerprint());
    tr.span("embed.encoder_init", r, |_| {
        EntityEncoder::new(&world, engine.config().encoder.clone())
    });
    tr.span("genexpan.cooc_build", r, |_| CoocIndex::build(&world));
    Ok((root, bad))
}

/// One build replica of `build-index --profile tiny --methods
/// retexpan,genexpan`, split into its phases; returns the root span id,
/// the written snapshot's fingerprint, and whether the split GenExpan
/// training equals `GenExpan::train`.
fn build_replica(tr: &mut Tracer, out: &Path) -> Result<(usize, String, bool), String> {
    let r = rid(4, 0);
    let cfg = EngineConfig {
        profile: "tiny".into(),
        genexpan: Some(GenExpanConfig::default()),
        retexpan: RetExpanConfig {
            ann: AnnSpec::from_flags("exhaustive", None, None).expect("exhaustive spec"),
            ..RetExpanConfig::default()
        },
        ..EngineConfig::default()
    };
    let root = tr.spans.len();
    let built = tr.span("build", r, |tr| -> Result<_, String> {
        let world = tr.span("data.world", r, |_| {
            cfg.world_config()
                .map_err(err)
                .and_then(|c| World::generate(c).map_err(err))
        })?;
        let mut enc = tr.span("embed.encoder_init", r, |_| {
            EntityEncoder::new(&world, cfg.encoder.clone())
        });
        tr.span("embed.train", r, |_| enc.train_entity_prediction(&world));
        let reps = tr.span("embed.reps", r, |_| enc.entity_embeddings(&world));
        let gcfg = cfg.genexpan.clone().expect("genexpan enabled");
        let mut lm = NgramLm::new(gcfg.model.order, gcfg.model.smoothing, world.vocab.len());
        tr.span("lm.train", r, |_| {
            lm.train(world.base_lm_docs().iter().map(Vec::as_slice));
            if gcfg.further_pretrain {
                lm.train(world.further_pretrain_docs().iter().map(Vec::as_slice));
            }
        });
        let trie = tr.span("text.trie_build", r, |_| {
            let mut trie = PrefixTrie::new();
            for e in &world.entities {
                trie.insert(&world.name_tokens[e.id.index()], e.id);
            }
            trie
        });
        let gen = tr.span("genexpan.cooc_build", r, |_| {
            GenExpan::from_parts(&world, gcfg.clone(), lm, trie)
        });
        let snapshot = tr.span("engine.to_snapshot", r, |tr| {
            let bm25 = tr.span("text.bm25_build", r, |_| {
                let docs = world.lm_sentences();
                Bm25Index::build(docs.iter().map(Vec::as_slice), Bm25Params::default())
            });
            let num_entities = world.num_entities();
            Snapshot {
                meta: SnapshotMeta {
                    profile: cfg.profile.clone(),
                    seed: cfg.seed,
                    world_fingerprint: world.fingerprint(),
                    num_entities,
                    num_queries: world.ultra_classes.iter().map(|u| u.queries.len()).sum(),
                    num_docs: bm25.num_docs(),
                    encoder: cfg.encoder.clone(),
                    retexpan: RetExpanConfig {
                        ann: cfg.retexpan.ann.resolve(num_entities),
                        ..cfg.retexpan.clone()
                    },
                    genexpan_enabled: true,
                },
                reps: reps.clone(),
                lm: Some(gen.lm().clone()),
                trie: Some(gen.trie().clone()),
                bm25,
                ivf: None,
            }
        });
        let bytes = tr.span("snap.encode", r, |_| snapshot.to_bytes());
        tr.span("snap.write", r, |_| ultra_snap::write_bytes(out, &bytes))
            .map_err(err)?;
        Ok((bytes, world, gen, gcfg))
    })?;
    // The composite the LM, trie and co-occurrence steps split.
    let (bytes, world, split, gcfg) = built;
    let whole = tr.span("genexpan.train", r, |_| GenExpan::train(&world, gcfg));
    let same = whole.lm().to_bytes() == split.lm().to_bytes()
        && whole.trie().to_bytes() == split.trie().to_bytes();
    Ok((
        root,
        format!("{:016x}", ultra_snap::file_fingerprint(&bytes)),
        same,
    ))
}

/// For every span, the summed durations of its direct children whose names
/// are not in `skip`.
fn children_ns(tr: &Tracer, skip: &[&str]) -> Vec<f64> {
    let mut sum = vec![0.0; tr.spans.len()];
    for (i, s) in tr.spans.iter().enumerate() {
        if let (Some(p), false) = (s.parent, skip.contains(&s.name)) {
            sum[p] += tr.dur(i) as f64;
        }
    }
    sum
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(
    bin: &Path,
    work: &Path,
    kind: Kind,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let snap = proc::cached_snapshot(bin, work, &SNAPSHOT_ARGS)?;
    let bytes = ultra_snap::read_bytes(&snap).map_err(err)?;
    let engine =
        ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default()).map_err(err)?;
    if engine.retexpan().source_name() != Exhaustive.name() {
        return Err("the RetExpan split assumes the exhaustive candidate source".into());
    }
    let phase_s = (seconds / 5).max(1);
    let budget = Duration::from_secs(phase_s);
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();

    // 1. Untraced references.
    let mut handler_ref = Vec::new();
    let mut ready = Vec::new();
    let mut loads = Vec::new();
    for (src, k) in SERVING.into_iter().enumerate() {
        let load = Load::new(k, &engine, seed, phase_s);
        let boots = if src == 0 { 3 } else { 1 };
        let r = crate::serve_phase(bin, &snap, &load, boots, budget)?;
        let d = Delta::between(&r.before, &r.after);
        attempted += r.warm.sent + r.timed.sent;
        failed += r.warm.failed + r.timed.failed + usize::from(r.died);
        let client_us = mean(
            &r.timed
                .lat_ns
                .iter()
                .map(|&n| n as f64 / 1e3)
                .collect::<Vec<_>>(),
        );
        let n = k.name();
        metrics.push((format!("cache.hit_ratio.{n}"), d.hit_ratio(), "ratio"));
        metrics.push((
            format!("cache.evictions_per_req.{n}"),
            d.evictions as f64 / r.timed.sent.max(1) as f64,
            "ratio",
        ));
        metrics.push((format!("server.handler_us.{n}"), d.handler_us, "us"));
        metrics.push((
            format!("server.outside_handler_us.{n}"),
            client_us - d.handler_us,
            "us",
        ));
        metrics.push((format!("pool.rejected.{n}"), d.rejected as f64, "count"));
        handler_ref.push(d.handler_us * 1e3);
        ready.extend(r.ready);
        loads.push(load);
    }
    let built = proc::build_index(bin, &BUILD_ARGS, &work.join("trace-build.usnp"))?;
    attempted += 1;
    println!(
        "untraced build-index: {:.3}s, fingerprint {}",
        built.wall.as_secs_f64(),
        built.fingerprint
    );

    // 2. In-process replays.
    let mut tr = Tracer::new();
    let mut replays = Vec::new();
    for (src, load) in loads.iter().enumerate() {
        let r = replay(&mut tr, &engine, load, src, budget)?;
        attempted += r.roots.len();
        failed += r.body_mismatches + r.split_mismatches;
        let traced: f64 = r.roots.iter().map(|&i| tr.dur(i) as f64).sum();
        println!(
            "replay {}: {} requests, {} traced responses differ from untraced, {} of {} RetExpan splits differ from the composite, traced/untraced time {:.3}",
            SOURCES[src],
            r.roots.len(),
            r.body_mismatches,
            r.split_mismatches,
            r.tally.splits.len(),
            traced / r.plain_ns.iter().sum::<f64>()
        );
        replays.push(r);
    }

    // 3. Boot and build replicas.
    let mut mb = BTreeMap::new();
    let mut boot_roots = Vec::new();
    for i in 0..BOOT_REPLICAS {
        let (root, bad) = boot_replica(&mut tr, &snap, rid(3, i), &mut mb)?;
        failed += bad;
        boot_roots.push(root);
    }
    let (build_root, fingerprint, gen_same) =
        build_replica(&mut tr, &work.join("trace-replica.usnp"))?;
    attempted += BOOT_REPLICAS + 1;
    failed += usize::from(!gen_same);
    if fingerprint != built.fingerprint {
        println!(
            "build replica wrote {fingerprint}, build-index wrote {}",
            built.fingerprint
        );
        failed += 1;
    }

    // Per-layer medians of self time, from the workload each one moves.
    let names = tr.by_name();
    let layer =
        |src: &'static str, span: &'static str, name: &str, scale: f64, unit: &'static str| {
            let v = names.get(&(src, span)).cloned().unwrap_or_default();
            (name.to_string(), median(&v) / scale, unit, v.len())
        };
    let mut layers = vec![
        layer("ret_hot", "http.parse", "http.parse_us", 1e3, "us"),
        layer("ret_hot", "http.write", "http.write_us", 1e3, "us"),
        layer("ret_cold", "api.decode", "api.decode_us", 1e3, "us"),
        layer("ret_hot", "api.encode", "api.encode_us", 1e3, "us"),
        layer("ret_hot", "engine.resolve", "engine.resolve_us", 1e3, "us"),
        layer("ret_hot", "cache.lookup", "cache.lookup_us", 1e3, "us"),
        layer("ret_cold", "cache.insert", "cache.insert_us", 1e3, "us"),
        layer(
            "ret_cold",
            "retexpan.expand",
            "retexpan.expand_us",
            1e3,
            "us",
        ),
        layer(
            "ret_cold",
            "retexpan.preliminary",
            "retexpan.preliminary_us",
            1e3,
            "us",
        ),
        layer("ret_cold", "ann.candidates", "ann.candidates_us", 1e3, "us"),
        layer("ret_cold", "core.rank", "core.rank_us", 1e3, "us"),
        layer(
            "ret_cold",
            "embed.neg_scores",
            "embed.neg_scores_us",
            1e3,
            "us",
        ),
        layer("ret_cold", "core.rerank", "core.rerank_us", 1e3, "us"),
        layer(
            "gen_cold",
            "genexpan.expand",
            "genexpan.expand_us",
            1e3,
            "us",
        ),
        layer("boot", "snap.read", "snap.read_ms", 1e6, "ms"),
        layer("boot", "snap.decode", "snap.decode_ms", 1e6, "ms"),
        layer("boot", "snap.decode_nglm", "snap.decode_nglm_ms", 1e6, "ms"),
        layer("boot", "snap.decode_embd", "snap.decode_embd_ms", 1e6, "ms"),
        layer("boot", "snap.decode_trie", "snap.decode_trie_ms", 1e6, "ms"),
        layer("boot", "snap.decode_bm25", "snap.decode_bm25_ms", 1e6, "ms"),
        layer("boot", "data.world", "data.world_ms", 1e6, "ms"),
        layer(
            "boot",
            "genexpan.cooc_build",
            "genexpan.cooc_build_ms",
            1e6,
            "ms",
        ),
        layer(
            "boot",
            "embed.encoder_init",
            "embed.encoder_init_ms",
            1e6,
            "ms",
        ),
        layer(
            "boot",
            "engine.from_snapshot",
            "engine.from_snapshot_ms",
            1e6,
            "ms",
        ),
        layer("build", "embed.train", "embed.train_ms", 1e6, "ms"),
        layer("build", "embed.reps", "embed.reps_ms", 1e6, "ms"),
        layer("build", "lm.train", "lm.train_ms", 1e6, "ms"),
        layer("build", "text.trie_build", "text.trie_build_ms", 1e6, "ms"),
        layer("build", "genexpan.train", "genexpan.train_ms", 1e6, "ms"),
        layer("build", "text.bm25_build", "text.bm25_build_ms", 1e6, "ms"),
        layer("build", "snap.encode", "snap.encode_ms", 1e6, "ms"),
        layer("build", "snap.write", "snap.write_ms", 1e6, "ms"),
    ];
    let t = &replays[0].tally;
    layers.push((
        "http.response_bytes".into(),
        median(&t.body_bytes),
        "bytes",
        t.body_bytes.len(),
    ));
    let t = &replays[1].tally;
    layers.push((
        "ann.scored_per_req".into(),
        mean(&t.scored),
        "count",
        t.scored.len(),
    ));
    let t = &replays[2].tally;
    layers.push((
        "genexpan.list_len".into(),
        mean(&t.gen_len),
        "count",
        t.gen_len.len(),
    ));
    for (name, size) in &mb {
        layers.push((name.to_string(), *size, "MiB", 1));
    }

    // Coverage: how much of each untraced composite the spans account for.
    // The handler excludes socket parse and write, as `/metrics` does.
    let handler_ns = children_ns(&tr, &["http.parse", "http.write"]);
    let all_ns = children_ns(&tr, &[]);
    let mut coverage = Vec::new();
    for (src, r) in replays.iter().enumerate() {
        let covered: Vec<f64> = r.roots.iter().map(|&root| handler_ns[root]).collect();
        coverage.push((
            format!("handler {}", SOURCES[src]),
            mean(&covered) / handler_ref[src],
        ));
    }
    let boot_cov: Vec<f64> = boot_roots.iter().map(|&root| all_ns[root]).collect();
    coverage.push(("setup".into(), median(&boot_cov) / 1e9 / median(&ready)));
    coverage.push((
        "build".into(),
        all_ns[build_root] / 1e9 / built.wall.as_secs_f64(),
    ));
    for (what, c) in &coverage {
        println!("coverage {what}: {c:.3}");
    }
    // Overhead: traced request roots vs the untraced path, same requests.
    let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
    for r in &replays[..2] {
        traced_ns += r.roots.iter().map(|&i| tr.dur(i) as f64).sum::<f64>();
        plain_ns += r.plain_ns.iter().sum::<f64>();
    }
    let min_cov = coverage.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    layers.push(("trace.coverage".into(), min_cov, "ratio", coverage.len()));
    layers.push((
        "trace.overhead_pct".into(),
        100.0 * (traced_ns - plain_ns) / plain_ns,
        "%",
        replays[0].roots.len() + replays[1].roots.len(),
    ));

    for (name, value, unit, n) in layers {
        println!("{name} {value:.4} {unit} (n={n})");
        metrics.push((name, value, unit));
    }
    println!("spans by source and name (median self time, count):");
    for ((src, name), v) in &names {
        println!(
            "  {src:<8} {name:<22} {:>12.1} us  n={}",
            median(v) / 1e3,
            v.len()
        );
    }
    let path = work.join(format!("spans-{}-{seed}.jsonl", kind.name()));
    tr.write_jsonl(&path)?;
    println!("spans: {} written to {}", tr.spans.len(), path.display());
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
