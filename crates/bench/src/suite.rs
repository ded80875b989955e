//! Shared experiment plumbing: world construction, trained-component
//! caching, result dumping.

use std::io::Write;
use std::sync::Arc;
use ultra_data::{KnowledgeOracle, OracleConfig, World, WorldConfig};
use ultra_embed::EncoderConfig;
use ultra_genexpan::{GenExpan, GenExpanConfig};
use ultra_retexpan::{RetExpan, RetExpanConfig};

/// Builds the world selected by `ULTRA_PROFILE` / `ULTRA_SEED`. An unknown
/// profile or a seed that does not parse exits 2 before anything runs.
pub fn world_from_env() -> World {
    let profile = std::env::var("ULTRA_PROFILE").unwrap_or_else(|_| "small".into());
    let seed = std::env::var("ULTRA_SEED").map_or(Ok(42), |s| s.parse::<u64>());
    let cfg = match (WorldConfig::from_profile(&profile), seed) {
        (Ok(cfg), Ok(seed)) => cfg.with_seed(seed),
        (Err(e), _) => exit_with(&format!("ULTRA_PROFILE: {e}")),
        (_, Err(e)) => exit_with(&format!("ULTRA_SEED: {e}")),
    };
    eprintln!(
        "[suite] generating world (profile={profile}, seed={})…",
        cfg.seed
    );
    let world =
        World::generate(cfg).unwrap_or_else(|e| exit_with(&format!("world generation: {e}")));
    eprintln!(
        "[suite] world ready: {} entities, {} sentences, {} ultra classes, {} queries",
        world.num_entities(),
        world.corpus.len(),
        world.ultra_classes.len(),
        world
            .ultra_classes
            .iter()
            .map(|u| u.queries.len())
            .sum::<usize>()
    );
    world
}

fn exit_with(msg: &str) -> ! {
    eprintln!("[suite] {msg}");
    std::process::exit(2)
}

/// Writes a JSON value to `target/experiments/<name>.json`.
pub fn dump_json(name: &str, value: &impl serde::Serialize) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let (Ok(mut f), Ok(json)) = (
        std::fs::File::create(&path),
        serde_json::to_string_pretty(value),
    ) {
        let _ = writeln!(f, "{json}");
        eprintln!("[suite] wrote {}", path.display());
    }
}

/// A lazily-built bundle of trained components shared across the methods of
/// one experiment binary (training the encoder once instead of per-method).
pub struct Suite {
    /// The generated world.
    pub world: World,
    /// Pipeline configuration of every RetExpan the suite trains (the
    /// CLI's `--ann` lands here).
    pub retexpan_config: RetExpanConfig,
    retexpan: Option<Arc<RetExpan>>,
    genexpan: Option<Arc<GenExpan>>,
    oracle: Option<Arc<KnowledgeOracle>>,
}

impl Suite {
    /// Builds the suite around a world.
    pub fn new(world: World) -> Self {
        Self {
            world,
            retexpan_config: RetExpanConfig::default(),
            retexpan: None,
            genexpan: None,
            oracle: None,
        }
    }

    /// The shared plain RetExpan (trained once on first use).
    pub fn retexpan(&mut self) -> Arc<RetExpan> {
        let (world, config) = (&self.world, &self.retexpan_config);
        let ret = self.retexpan.get_or_insert_with(|| {
            eprintln!("[suite] training shared RetExpan encoder…");
            let ret = RetExpan::train(world, EncoderConfig::default(), config.clone());
            eprintln!("[suite] candidate source: {}", ret.source_name());
            Arc::new(ret)
        });
        ret.clone()
    }

    /// The shared plain GenExpan (LM trained once on first use).
    pub fn genexpan(&mut self) -> Arc<GenExpan> {
        let world = &self.world;
        let gen = self.genexpan.get_or_insert_with(|| {
            eprintln!("[suite] training shared GenExpan LM…");
            Arc::new(GenExpan::train(world, GenExpanConfig::default()))
        });
        gen.clone()
    }

    /// The shared GPT-4 oracle.
    pub fn oracle(&mut self) -> Arc<KnowledgeOracle> {
        let world = &self.world;
        let oracle = self
            .oracle
            .get_or_insert_with(|| Arc::new(KnowledgeOracle::new(world, OracleConfig::default())));
        oracle.clone()
    }
}
