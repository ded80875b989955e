//! Seeded request generation. The server sees only these requests; the
//! same `--seed` always yields the same streams.

use std::collections::HashSet;
use ultra_core::{EntityId, Query};
use ultra_data::World;
use ultra_serve::{ExpandRequest, Method};

/// The `top_k` values every serving workload draws from.
pub const TOP_KS: [usize; 4] = [10, 20, 50, 100];

/// SplitMix64: small, seedable, and the same on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 finalizer: a stateless hash of one word.
pub fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated `POST /expand`: the full HTTP/1.1 request bytes
/// (keep-alive by default: no `connection: close`), JSON body last.
pub struct Request {
    pub wire: Vec<u8>,
    body_at: usize,
}

impl Request {
    pub fn new(req: &ExpandRequest) -> Request {
        let body = serde_json::to_vec(req).expect("ExpandRequest serializes");
        let mut wire = format!(
            "POST /expand HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        let body_at = wire.len();
        wire.extend_from_slice(&body);
        Request { wire, body_at }
    }

    /// The JSON body.
    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_at..]
    }
}

/// ret_hot's key set: every world query replayed by `query_index` at every
/// `top_k` (query-major order). 237 queries x 4 = 948 keys on `small`.
pub fn hot_keys(world: &World) -> Vec<Request> {
    let queries = world.queries().count();
    (0..queries)
        .flat_map(|q| TOP_KS.map(|k| Request::new(&ExpandRequest::replay(Method::RetExpan, q, k))))
        .collect()
}

/// The key index ret_hot sends as its `i`-th timed request: a uniform,
/// stateless draw, so any number of connections can share the stream.
pub fn hot_pick(seed: u64, i: usize, keys: usize) -> usize {
    (mix(seed ^ mix(i as u64)) % keys as u64) as usize
}

/// Never-repeating explicit queries, as the world's own query generator
/// draws them: one ultra class, `seeds_min..=seeds_max` positive seeds
/// from its `pos_targets` and as many negative seeds from its
/// `neg_targets`, plus a `top_k` from [`TOP_KS`]. Seeds are sorted so a
/// repeat is a repeat of bytes.
pub struct ColdStream<'w> {
    world: &'w World,
    method: Method,
    rng: SplitMix,
    /// FNV-1a of every body so far (a collision only skips a fresh key).
    seen: HashSet<u64>,
}

impl<'w> ColdStream<'w> {
    pub fn new(world: &'w World, method: Method, seed: u64) -> Self {
        let salt = match method {
            Method::RetExpan => 0x5245_5443,
            Method::GenExpan => 0x4745_4E43,
        };
        ColdStream {
            world,
            method,
            rng: SplitMix::new(mix(seed ^ salt)),
            seen: HashSet::new(),
        }
    }

    /// The next query and its request, never equal to an earlier one.
    pub fn next_request(&mut self) -> (Query, Request) {
        loop {
            let query = self.query();
            let top_k = TOP_KS[self.rng.below(TOP_KS.len())];
            let req = Request::new(&ExpandRequest {
                method: Some(self.method.name().to_string()),
                query_index: None,
                query: Some(query.clone()),
                top_k: Some(top_k),
            });
            if self.seen.insert(ultra_snap::fnv1a(req.body())) {
                return (query, req);
            }
        }
    }

    /// The first `n` requests of the stream.
    pub fn take(mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request().1).collect()
    }

    fn query(&mut self) -> Query {
        let classes = &self.world.ultra_classes;
        let u = &classes[self.rng.below(classes.len())];
        let cfg = &self.world.config;
        let span = cfg.seeds_max - cfg.seeds_min + 1;
        let k_pos = (cfg.seeds_min + self.rng.below(span)).min(u.pos_targets.len() - 1);
        let k_neg = (cfg.seeds_min + self.rng.below(span)).min(u.neg_targets.len() - 1);
        let pos = sample(&u.pos_targets, k_pos, &mut self.rng);
        let neg = sample(&u.neg_targets, k_neg, &mut self.rng);
        Query::new(u.id, pos, neg)
    }
}

/// `k` distinct entities of `pool`, ascending.
fn sample(pool: &[EntityId], k: usize, rng: &mut SplitMix) -> Vec<EntityId> {
    let mut v = pool.to_vec();
    for i in 0..k {
        let j = i + rng.below(v.len() - i);
        v.swap(i, j);
    }
    v.truncate(k);
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;
    use ultra_serve::{EngineConfig, ExpansionEngine};

    fn world() -> World {
        World::generate(WorldConfig::tiny()).expect("tiny world")
    }

    #[test]
    fn streams_are_deterministic_for_a_seed() {
        let w = world();
        for method in [Method::RetExpan, Method::GenExpan] {
            let a = ColdStream::new(&w, method, 7).take(300);
            let b = ColdStream::new(&w, method, 7).take(300);
            let c = ColdStream::new(&w, method, 8).take(300);
            assert!(a.iter().zip(&b).all(|(x, y)| x.wire == y.wire));
            assert!(a.iter().zip(&c).any(|(x, y)| x.wire != y.wire));
        }
        let picks: Vec<usize> = (0..100).map(|i| hot_pick(3, i, 948)).collect();
        assert_eq!(
            picks,
            (0..100).map(|i| hot_pick(3, i, 948)).collect::<Vec<_>>()
        );
        assert!(picks.iter().all(|&p| p < 948));
    }

    #[test]
    fn cold_keys_never_repeat() {
        let w = world();
        for method in [Method::RetExpan, Method::GenExpan] {
            let reqs = ColdStream::new(&w, method, 1).take(5000);
            let distinct: HashSet<&[u8]> = reqs.iter().map(Request::body).collect();
            assert_eq!(distinct.len(), reqs.len());
        }
    }

    #[test]
    fn every_generated_query_validates() {
        let engine = ExpansionEngine::from_world(
            world(),
            EngineConfig {
                profile: "tiny".into(),
                encoder: ultra_embed::EncoderConfig {
                    epochs: 0,
                    dim: 8,
                    ..Default::default()
                },
                ..EngineConfig::default()
            },
        )
        .expect("untrained engine");
        let w = engine.world();
        let cfg = &w.config;
        let mut stream = ColdStream::new(w, Method::RetExpan, 11);
        for _ in 0..2000 {
            let (q, req) = stream.next_request();
            engine.validate(&q).expect("generated query validates");
            let u = &w.ultra_classes[q.ultra.index()];
            assert!(q.pos_seeds.iter().all(|e| u.pos_targets.contains(e)));
            assert!(q.neg_seeds.iter().all(|e| u.neg_targets.contains(e)));
            assert!(q.pos_seeds.len() <= cfg.seeds_max && !q.neg_seeds.is_empty());
            let parsed: ExpandRequest = serde_json::from_slice(req.body()).expect("json");
            engine.resolve(&parsed).expect("request resolves");
        }
        for key in hot_keys(w) {
            let parsed: ExpandRequest = serde_json::from_slice(key.body()).expect("json");
            engine.resolve(&parsed).expect("replay resolves");
        }
    }
}
