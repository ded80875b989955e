//! **ultra-snap** — the `USNP` persistent snapshot container.
//!
//! Every serving process so far pays the full offline phase at startup:
//! world generation plus encoder training, tens of seconds on the `small`
//! profile. This crate separates *building* the trained artifacts from
//! *serving* them: `ultrawiki build-index` trains once and writes a
//! versioned, checksummed binary snapshot; `ultrawiki serve --snapshot`
//! deserializes it into the same immutable artifacts the engine would have
//! trained, dropping startup to roughly the cost of regenerating the
//! (cheap, deterministic) world.
//!
//! # Container format, version 2
//!
//! ```text
//! "USNP"                      magic, 4 bytes
//! u32 LE                      schema version (currently 2)
//! u32 LE                      section count
//! per section:
//!   [u8; 4]                   ASCII tag
//!   u64 LE                    payload length
//!   payload                   section bytes (see the per-crate codecs)
//!   u64 LE                    FNV-1a fingerprint of the payload
//! u64 LE                      FNV-1a fingerprint of ALL preceding bytes
//! <exact end of file>
//! ```
//!
//! Sections appear in a fixed canonical order (`CONF`, `EMBD`, `NGLM`,
//! `TRIE`, `BM25`, `UANN`); `NGLM`/`TRIE` are present iff GenExpan was
//! trained and `UANN` iff the ANN spec is IVF. Every payload is produced by
//! a canonical codec (id-/key-ordered, strictly validated on load), so two
//! builds of the same configuration emit byte-identical snapshots.
//!
//! Version 2 changed one payload: `NGLM` writes each context as a
//! varint-coded link to the entry it extends and its run as varint token
//! gaps and counts, instead of keys, totals and fixed-width fields
//! ([`NgramLm::to_bytes`]). Version 1 files are rejected; rebuild them with
//! `ultrawiki build-index`.
//!
//! # Corruption-handling policy
//!
//! Loading is *strict* and panic-free: magic, version, section structure,
//! per-section checksums, the whole-file checksum, and exact end-of-file
//! are all verified **before** any payload is decoded, and payload decoding
//! itself is the strict per-crate `from_bytes` path. The checksums take one
//! pass over the file: each payload byte advances its section's hash and
//! the whole-file hash together, and the whole-file fingerprint is that
//! verified hash continued over the trailer. Errors still come in file
//! order: a section's tag and order, then its checksum, section by
//! section, then the whole-file checksum. Any single-bit flip
//! anywhere in a snapshot file surfaces as a typed [`SnapError`] — the
//! whole-file fingerprint covers every byte up to the trailer, and a flip
//! inside the trailer breaks the fingerprint comparison itself. Duplicated,
//! reordered, unknown, or missing sections, length lies, truncation at any
//! offset, and trailing garbage are each rejected with their own variant.

use std::fmt;
use std::path::Path;

use ultra_ann::{AnnSpec, IvfConfig, IvfIndex};
use ultra_core::stable::{fnv1a_from, FNV_OFFSET, FNV_PRIME};
use ultra_core::{ByteReader, ByteWriter, UltraError};
use ultra_embed::{Augmentation, EncoderConfig, EntityEmbeddings};
use ultra_lm::NgramLm;
use ultra_retexpan::RetExpanConfig;
use ultra_text::{Bm25Index, PrefixTrie};

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"USNP";
/// Current schema version. Anything else is rejected on load.
pub const VERSION: u32 = 2;

/// Sanity cap on the section count field; the format defines six tags, so
/// anything near this bound is hostile input, not a future extension.
const MAX_SECTIONS: u32 = 64;
/// Tag (4) + payload length (8).
const SECTION_HEADER_LEN: usize = 12;
/// Magic (4) + version (4) + section count (4).
const FILE_HEADER_LEN: usize = 12;
/// FNV-1a fingerprint width.
const CHECKSUM_LEN: usize = 8;

/// Canonical tags in their required order.
const TAGS: [[u8; 4]; 6] = [*b"CONF", *b"EMBD", *b"NGLM", *b"TRIE", *b"BM25", *b"UANN"];

fn tag_rank(tag: [u8; 4]) -> Option<usize> {
    TAGS.iter().position(|&t| t == tag)
}

fn tag_name(tag: [u8; 4]) -> String {
    String::from_utf8_lossy(&tag).into_owned()
}

/// FNV-1a over a byte slice — the container's fingerprint function
/// (deterministic across platforms, no dependencies).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Whole-file fingerprint of a snapshot (covers the trailer too); this is
/// the value surfaced in startup logs and `GET /metrics`.
pub fn file_fingerprint(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// Typed snapshot-load failures. Loading never panics and never yields a
/// partially decoded snapshot: every variant is a hard rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The file does not start with `USNP`.
    BadMagic,
    /// The schema version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the declared structure does.
    Truncated,
    /// The section count field is implausible.
    SectionCount(u32),
    /// A section tag is not part of the format.
    UnknownSection(String),
    /// The same section appears twice.
    DuplicateSection(String),
    /// Sections are not in canonical order.
    SectionOrder(String),
    /// A section payload does not match its stored fingerprint.
    SectionChecksum(String),
    /// The whole-file fingerprint does not match the trailer.
    FileChecksum,
    /// Bytes follow the trailer.
    TrailingGarbage,
    /// A required section is absent.
    MissingSection(String),
    /// A structurally sound payload failed its strict decoder.
    Decode(String, String),
    /// Decoded sections disagree with each other or with the metadata.
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot schema version {v} (expected {VERSION})"
                )
            }
            SnapError::Truncated => write!(f, "snapshot is truncated"),
            SnapError::SectionCount(n) => write!(f, "implausible section count {n}"),
            SnapError::UnknownSection(tag) => write!(f, "unknown section `{tag}`"),
            SnapError::DuplicateSection(tag) => write!(f, "duplicate section `{tag}`"),
            SnapError::SectionOrder(tag) => {
                write!(f, "section `{tag}` out of canonical order")
            }
            SnapError::SectionChecksum(tag) => {
                write!(f, "section `{tag}` failed its checksum")
            }
            SnapError::FileChecksum => write!(f, "whole-file checksum mismatch"),
            SnapError::TrailingGarbage => write!(f, "trailing bytes after the snapshot trailer"),
            SnapError::MissingSection(tag) => write!(f, "required section `{tag}` is missing"),
            SnapError::Decode(tag, msg) => write!(f, "section `{tag}` failed to decode: {msg}"),
            SnapError::Mismatch(msg) => write!(f, "snapshot is internally inconsistent: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The `CONF` section: everything needed to regenerate the world, rebuild
/// cheap derived structures, and cross-check every other section.
#[derive(Clone, Debug)]
pub struct SnapshotMeta {
    /// World profile name (`tiny` | `small` | `paper` | `huge`).
    pub profile: String,
    /// World seed.
    pub seed: u64,
    /// `ultra_data::World::fingerprint` of the world
    /// the artifacts were trained on; verified against the regenerated
    /// world at load time.
    pub world_fingerprint: u64,
    /// Entity count of that world.
    pub num_entities: usize,
    /// Query count of that world.
    pub num_queries: usize,
    /// Document count the `BM25` section was built over.
    pub num_docs: usize,
    /// Encoder configuration the `EMBD` representations were trained with.
    pub encoder: EncoderConfig,
    /// RetExpan configuration with a **resolved** ANN spec (no `0`
    /// placeholders — see [`AnnSpec::resolve`]).
    pub retexpan: RetExpanConfig,
    /// Whether GenExpan artifacts (`NGLM` + `TRIE`) are included.
    pub genexpan_enabled: bool,
}

fn encode_meta(meta: &SnapshotMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(meta.profile.len() as u32);
    w.bytes(meta.profile.as_bytes());
    w.u64(meta.seed);
    w.u64(meta.world_fingerprint);
    w.u64(meta.num_entities as u64);
    w.u64(meta.num_queries as u64);
    w.u64(meta.num_docs as u64);
    let e = &meta.encoder;
    w.u64(e.dim as u64);
    w.f32(e.eta);
    w.f32(e.lr);
    w.f32(e.weight_decay);
    w.f32(e.clip);
    w.u64(e.epochs as u64);
    w.u64(e.neg_samples as u64);
    w.u64(e.max_sentences_per_entity as u64);
    w.f32(e.tau);
    w.f32(e.contrastive_lr);
    w.u64(e.contrastive_epochs as u64);
    w.u8(match e.augment {
        Augmentation::None => 0,
        Augmentation::Introduction => 1,
        Augmentation::WikidataAttrs => 2,
        Augmentation::GtAttrs => 3,
    });
    w.u64(e.seed);
    let r = &meta.retexpan;
    w.u64(r.top_k as u64);
    w.u64(r.segment_len as u64);
    w.u8(u8::from(r.rerank));
    match &r.ann {
        AnnSpec::Exhaustive => w.u8(0),
        AnnSpec::Ivf(cfg) => {
            w.u8(1);
            w.u64(cfg.nlist as u64);
            w.u64(cfg.nprobe as u64);
            w.u64(cfg.kmeans_iters as u64);
            w.u64(cfg.seed);
        }
    }
    w.u8(u8::from(meta.genexpan_enabled));
    w.finish()
}

fn read_usize(r: &mut ByteReader<'_>, what: &str) -> Result<usize, UltraError> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| UltraError::Corrupt(format!("conf: {what} {v} overflows usize")))
}

fn decode_meta(payload: &[u8]) -> Result<SnapshotMeta, UltraError> {
    let corrupt = |msg: &str| UltraError::Corrupt(format!("conf: {msg}"));
    let mut r = ByteReader::new(payload, "conf");
    let profile_len = r.u32()? as usize;
    if profile_len == 0 || profile_len > 32 {
        return Err(corrupt("profile name length out of range"));
    }
    let profile = std::str::from_utf8(r.take(profile_len)?)
        .map_err(|_| corrupt("profile name is not UTF-8"))?
        .to_string();
    let seed = r.u64()?;
    let world_fingerprint = r.u64()?;
    let num_entities = read_usize(&mut r, "num_entities")?;
    let num_queries = read_usize(&mut r, "num_queries")?;
    let num_docs = read_usize(&mut r, "num_docs")?;
    if num_entities == 0 {
        return Err(corrupt("world has no entities"));
    }
    let dim = read_usize(&mut r, "encoder dim")?;
    if dim == 0 {
        return Err(corrupt("encoder dim must be non-zero"));
    }
    let eta = r.f32()?;
    let lr = r.f32()?;
    let weight_decay = r.f32()?;
    let clip = r.f32()?;
    let epochs = read_usize(&mut r, "epochs")?;
    let neg_samples = read_usize(&mut r, "neg_samples")?;
    let max_sentences_per_entity = read_usize(&mut r, "max_sentences_per_entity")?;
    let tau = r.f32()?;
    let contrastive_lr = r.f32()?;
    let contrastive_epochs = read_usize(&mut r, "contrastive_epochs")?;
    for (name, v) in [
        ("eta", eta),
        ("lr", lr),
        ("weight_decay", weight_decay),
        ("clip", clip),
        ("tau", tau),
        ("contrastive_lr", contrastive_lr),
    ] {
        if !v.is_finite() {
            return Err(corrupt(&format!("encoder {name} is not finite")));
        }
    }
    let augment = match r.u8()? {
        0 => Augmentation::None,
        1 => Augmentation::Introduction,
        2 => Augmentation::WikidataAttrs,
        3 => Augmentation::GtAttrs,
        other => return Err(corrupt(&format!("unknown augmentation tag {other}"))),
    };
    let encoder_seed = r.u64()?;
    let encoder = EncoderConfig {
        dim,
        eta,
        lr,
        weight_decay,
        clip,
        epochs,
        neg_samples,
        max_sentences_per_entity,
        tau,
        contrastive_lr,
        contrastive_epochs,
        augment,
        seed: encoder_seed,
    };
    let top_k = read_usize(&mut r, "top_k")?;
    let segment_len = read_usize(&mut r, "segment_len")?;
    let rerank = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(&format!("bad rerank flag {other}"))),
    };
    let ann = match r.u8()? {
        0 => AnnSpec::Exhaustive,
        1 => {
            let nlist = read_usize(&mut r, "nlist")?;
            let nprobe = read_usize(&mut r, "nprobe")?;
            let kmeans_iters = read_usize(&mut r, "kmeans_iters")?;
            let ivf_seed = r.u64()?;
            let spec = AnnSpec::Ivf(IvfConfig {
                nlist,
                nprobe,
                kmeans_iters,
                seed: ivf_seed,
            });
            spec.validate_resolved()
                .map_err(|e| corrupt(&format!("persisted ann spec is unresolved: {e}")))?;
            spec
        }
        other => return Err(corrupt(&format!("unknown ann tag {other}"))),
    };
    let genexpan_enabled = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(&format!("bad genexpan flag {other}"))),
    };
    r.expect_end()?;
    Ok(SnapshotMeta {
        profile,
        seed,
        world_fingerprint,
        num_entities,
        num_queries,
        num_docs,
        encoder,
        retexpan: RetExpanConfig {
            top_k,
            segment_len,
            rerank,
            ann,
        },
        genexpan_enabled,
    })
}

/// A fully decoded snapshot: the trained artifacts the serving engine needs
/// plus the metadata to regenerate and cross-check the world.
#[derive(Debug)]
pub struct Snapshot {
    /// The `CONF` section.
    pub meta: SnapshotMeta,
    /// The `EMBD` section: trained entity representations.
    pub reps: EntityEmbeddings,
    /// The `NGLM` section (present iff `meta.genexpan_enabled`).
    pub lm: Option<NgramLm>,
    /// The `TRIE` section (present iff `meta.genexpan_enabled`).
    pub trie: Option<PrefixTrie>,
    /// The `BM25` section: corpus retrieval statistics.
    pub bm25: Bm25Index,
    /// The `UANN` section (present iff the resolved ANN spec is IVF).
    pub ivf: Option<IvfIndex>,
}

impl Snapshot {
    /// Serializes into the `USNP` container. Output is canonical: the same
    /// snapshot contents always produce byte-identical files.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<([u8; 4], Vec<u8>)> = Vec::with_capacity(6);
        sections.push((TAGS[0], encode_meta(&self.meta)));
        sections.push((TAGS[1], self.reps.to_bytes()));
        if let Some(lm) = &self.lm {
            sections.push((TAGS[2], lm.to_bytes()));
        }
        if let Some(trie) = &self.trie {
            sections.push((TAGS[3], trie.to_bytes()));
        }
        sections.push((TAGS[4], self.bm25.to_bytes()));
        if let Some(ivf) = &self.ivf {
            sections.push((TAGS[5], ivf.to_bytes()));
        }
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.u32(sections.len() as u32);
        for (tag, payload) in &sections {
            w.bytes(tag);
            w.u64(payload.len() as u64);
            w.bytes(payload);
            w.u64(fnv1a(payload));
        }
        let mut out = w.finish();
        let trailer = fnv1a(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes); see the module docs
    /// for the corruption-handling policy. Validation order: magic and
    /// version, section structure (every section length-prefixed and
    /// checksum-verified, canonical order enforced), trailer and exact
    /// end-of-file, whole-file checksum — and only then payload decoding
    /// and cross-section consistency checks.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapError> {
        Self::from_bytes_with_fingerprint(bytes).map(|(snapshot, _)| snapshot)
    }

    /// [`from_bytes`](Self::from_bytes), also returning the whole-file
    /// fingerprint ([`file_fingerprint`]) from the same single pass that
    /// verifies the checksums.
    pub fn from_bytes_with_fingerprint(bytes: &[u8]) -> Result<(Snapshot, u64), SnapError> {
        let (payloads, fingerprint) = verify(bytes)?;
        let require = |rank: usize| -> Result<&[u8], SnapError> {
            payloads
                .get(rank)
                .copied()
                .flatten()
                .ok_or_else(|| SnapError::MissingSection(tag_name(TAGS[rank])))
        };
        let decode_err = |rank: usize| {
            move |e: UltraError| SnapError::Decode(tag_name(TAGS[rank]), e.to_string())
        };
        let meta = decode_meta(require(0)?).map_err(decode_err(0))?;
        let reps = EntityEmbeddings::from_bytes(require(1)?).map_err(decode_err(1))?;
        let lm = match payloads[2] {
            Some(p) => Some(NgramLm::from_bytes(p).map_err(decode_err(2))?),
            None => None,
        };
        let trie = match payloads[3] {
            Some(p) => Some(PrefixTrie::from_bytes(p).map_err(decode_err(3))?),
            None => None,
        };
        let bm25 = Bm25Index::from_bytes(require(4)?).map_err(decode_err(4))?;
        let ivf = match payloads[5] {
            Some(p) => Some(IvfIndex::from_bytes(p).map_err(decode_err(5))?),
            None => None,
        };

        let snapshot = Snapshot {
            meta,
            reps,
            lm,
            trie,
            bm25,
            ivf,
        };
        snapshot.cross_check()?;
        Ok((snapshot, fingerprint))
    }

    /// Cross-section consistency: presence flags match actual sections and
    /// every artifact agrees with the metadata's world shape.
    fn cross_check(&self) -> Result<(), SnapError> {
        let meta = &self.meta;
        if self.lm.is_some() != self.trie.is_some() {
            return Err(SnapError::Mismatch(
                "NGLM and TRIE must be present together".into(),
            ));
        }
        if meta.genexpan_enabled != self.lm.is_some() {
            return Err(SnapError::Mismatch(format!(
                "conf says genexpan_enabled={} but genexpan sections present={}",
                meta.genexpan_enabled,
                self.lm.is_some()
            )));
        }
        let ivf_spec = matches!(meta.retexpan.ann, AnnSpec::Ivf(_));
        if ivf_spec != self.ivf.is_some() {
            return Err(SnapError::Mismatch(format!(
                "conf ann spec is {} but UANN section present={}",
                if ivf_spec { "ivf" } else { "exhaustive" },
                self.ivf.is_some()
            )));
        }
        if self.reps.len() != meta.num_entities {
            return Err(SnapError::Mismatch(format!(
                "EMBD holds {} entities, conf says {}",
                self.reps.len(),
                meta.num_entities
            )));
        }
        if self.reps.dim() != meta.encoder.dim {
            return Err(SnapError::Mismatch(format!(
                "EMBD dim {} != encoder dim {}",
                self.reps.dim(),
                meta.encoder.dim
            )));
        }
        if self.bm25.num_docs() != meta.num_docs {
            return Err(SnapError::Mismatch(format!(
                "BM25 indexes {} documents, conf says {}",
                self.bm25.num_docs(),
                meta.num_docs
            )));
        }
        if let Some(trie) = &self.trie {
            if trie.len() != meta.num_entities {
                return Err(SnapError::Mismatch(format!(
                    "TRIE holds {} names, conf says {} entities",
                    trie.len(),
                    meta.num_entities
                )));
            }
        }
        if let (Some(ivf), AnnSpec::Ivf(cfg)) = (&self.ivf, &meta.retexpan.ann) {
            if ivf.num_entities() != meta.num_entities {
                return Err(SnapError::Mismatch(format!(
                    "UANN indexes {} entities, conf says {}",
                    ivf.num_entities(),
                    meta.num_entities
                )));
            }
            if ivf.dim() != meta.encoder.dim {
                return Err(SnapError::Mismatch(format!(
                    "UANN dim {} != encoder dim {}",
                    ivf.dim(),
                    meta.encoder.dim
                )));
            }
            if ivf.nlist() != cfg.nlist {
                return Err(SnapError::Mismatch(format!(
                    "UANN has {} lists, conf says nlist={}",
                    ivf.nlist(),
                    cfg.nlist
                )));
            }
        }
        Ok(())
    }
}

/// Each canonical section's payload, by tag rank.
type Payloads<'a> = [Option<&'a [u8]>; TAGS.len()];

/// Verifies the container in one pass over `bytes`: section by section its
/// tag, its order and its checksum, then the whole-file checksum. Each
/// payload byte advances the section hash and the whole-file hash together.
/// Returns the payloads and the whole-file fingerprint: the verified body
/// hash continued over the trailer.
fn verify(bytes: &[u8]) -> Result<(Payloads<'_>, u64), SnapError> {
    let spans = scan_structure(bytes)?;
    let mut prev_rank: Option<usize> = None;
    let mut payloads: Payloads<'_> = [None; TAGS.len()];
    // The whole-file hash of `bytes[..hashed]`.
    let mut file = FNV_OFFSET;
    let mut hashed = 0;
    for span in &spans {
        let Some(rank) = tag_rank(span.tag) else {
            return Err(SnapError::UnknownSection(tag_name(span.tag)));
        };
        match prev_rank {
            Some(p) if p == rank => return Err(SnapError::DuplicateSection(tag_name(span.tag))),
            Some(p) if p > rank => return Err(SnapError::SectionOrder(tag_name(span.tag))),
            _ => {}
        }
        prev_rank = Some(rank);
        let payload = bytes
            .get(span.payload_start..span.payload_end)
            .ok_or(SnapError::Truncated)?;
        let header = bytes
            .get(hashed..span.payload_start)
            .ok_or(SnapError::Truncated)?;
        let (through_payload, section) = fnv1a_pair(fnv1a_from(file, header), payload);
        file = through_payload;
        hashed = span.payload_end;
        let stored = read_u64_at(bytes, span.payload_end).ok_or(SnapError::Truncated)?;
        if section != stored {
            return Err(SnapError::SectionChecksum(tag_name(span.tag)));
        }
        if let Some(slot) = payloads.get_mut(rank) {
            *slot = Some(payload);
        }
    }
    let trailer_at = bytes.len() - CHECKSUM_LEN;
    let rest = bytes.get(hashed..trailer_at).ok_or(SnapError::Truncated)?;
    let trailer = bytes.get(trailer_at..).ok_or(SnapError::Truncated)?;
    let body = fnv1a_from(file, rest);
    if Some(body) != read_u64_at(trailer, 0) {
        return Err(SnapError::FileChecksum);
    }
    Ok((payloads, fnv1a_from(body, trailer)))
}

/// FNV-1a over `bytes` twice at once: continuing `state`, and from the
/// offset basis. The two multiply chains are independent, so they overlap
/// and cost about what one pass costs.
fn fnv1a_pair(state: u64, bytes: &[u8]) -> (u64, u64) {
    let (mut a, mut b) = (state, FNV_OFFSET);
    for &x in bytes {
        a = (a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

fn read_u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let b = bytes.get(at..at + 8)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Byte extents of one section inside a snapshot file (fault-injection
/// support for the corruption test harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionSpan {
    /// The section tag as stored.
    pub tag: [u8; 4],
    /// Offset of the section header (tag byte 0).
    pub start: usize,
    /// Offset of the first payload byte.
    pub payload_start: usize,
    /// Offset one past the last payload byte (= start of the section
    /// checksum).
    pub payload_end: usize,
    /// Offset one past the section checksum.
    pub end: usize,
}

/// Structural scan: magic, version, section-count plausibility, section
/// boundaries, and exactly one trailer at end-of-file. Deliberately
/// tolerant of unknown tags, duplicates, and wrong order so the corruption
/// harness (and [`reseal`]) can address tampered files;
/// [`Snapshot::from_bytes`] layers the strict checks on top.
pub fn section_spans(bytes: &[u8]) -> Result<Vec<SectionSpan>, SnapError> {
    scan_structure(bytes)
}

fn scan_structure(bytes: &[u8]) -> Result<Vec<SectionSpan>, SnapError> {
    let magic = bytes.get(..4).ok_or(SnapError::Truncated)?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = bytes
        .get(4..8)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(SnapError::Truncated)?;
    if version != VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let count = bytes
        .get(8..12)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(SnapError::Truncated)?;
    if count > MAX_SECTIONS {
        return Err(SnapError::SectionCount(count));
    }
    let mut offset = FILE_HEADER_LEN;
    let mut spans = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let tag: [u8; 4] = bytes
            .get(offset..offset + 4)
            .and_then(|b| b.try_into().ok())
            .ok_or(SnapError::Truncated)?;
        let declared = read_u64_at(bytes, offset + 4).ok_or(SnapError::Truncated)?;
        let payload_len = usize::try_from(declared).map_err(|_| SnapError::Truncated)?;
        let payload_start = offset + SECTION_HEADER_LEN;
        let payload_end = payload_start
            .checked_add(payload_len)
            .ok_or(SnapError::Truncated)?;
        let end = payload_end
            .checked_add(CHECKSUM_LEN)
            .ok_or(SnapError::Truncated)?;
        // The trailer must still fit after this section.
        if end.checked_add(CHECKSUM_LEN).is_none() || end + CHECKSUM_LEN > bytes.len() {
            return Err(SnapError::Truncated);
        }
        spans.push(SectionSpan {
            tag,
            start: offset,
            payload_start,
            payload_end,
            end,
        });
        offset = end;
    }
    match bytes.len() - offset {
        CHECKSUM_LEN => Ok(spans),
        n if n < CHECKSUM_LEN => Err(SnapError::Truncated),
        _ => Err(SnapError::TrailingGarbage),
    }
}

/// Recomputes every section checksum and the whole-file trailer in place.
/// Fault-injection support: structural mutations (reordered or duplicated
/// sections, length lies) are spliced raw, then resealed so the *semantic*
/// validation layer — not a checksum — is what rejects them.
pub fn reseal(bytes: &mut [u8]) -> Result<(), SnapError> {
    let spans = scan_structure(bytes)?;
    for span in spans {
        let payload = bytes
            .get(span.payload_start..span.payload_end)
            .ok_or(SnapError::Truncated)?;
        let sum = fnv1a(payload).to_le_bytes();
        let slot = bytes
            .get_mut(span.payload_end..span.end)
            .ok_or(SnapError::Truncated)?;
        slot.copy_from_slice(&sum);
    }
    let trailer_at = bytes.len() - CHECKSUM_LEN;
    let trailer = fnv1a(bytes.get(..trailer_at).ok_or(SnapError::Truncated)?).to_le_bytes();
    let slot = bytes.get_mut(trailer_at..).ok_or(SnapError::Truncated)?;
    slot.copy_from_slice(&trailer);
    Ok(())
}

/// Reads a snapshot file into memory.
pub fn read_bytes(path: &Path) -> Result<Vec<u8>, SnapError> {
    std::fs::read(path).map_err(|e| SnapError::Io(format!("{}: {e}", path.display())))
}

/// Writes snapshot bytes to disk.
pub fn write_bytes(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    std::fs::write(path, bytes).map_err(|e| SnapError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::TokenId;
    use ultra_lm::Smoothing;

    /// A tiny, training-free snapshot: 4 entities, dim 3.
    fn fixture(genexpan: bool) -> Snapshot {
        let mut w = ByteWriter::new();
        w.u32(4);
        w.u32(3);
        for i in 0..12u32 {
            w.f32(0.25 + i as f32 * 0.125);
        }
        let reps = EntityEmbeddings::from_bytes(&w.finish()).expect("fixture reps");
        let docs: Vec<Vec<TokenId>> = vec![
            vec![TokenId::new(1), TokenId::new(2), TokenId::new(3)],
            vec![TokenId::new(2), TokenId::new(4)],
        ];
        let bm25 = Bm25Index::build(
            docs.iter().map(Vec::as_slice),
            ultra_text::Bm25Params::default(),
        );
        let (lm, trie) = if genexpan {
            let mut lm = NgramLm::new(2, Smoothing::WittenBell, 8);
            lm.train(docs.iter().map(Vec::as_slice));
            let mut trie = PrefixTrie::new();
            for i in 0..4u32 {
                trie.insert(&[TokenId::new(i + 1)], ultra_core::EntityId::new(i));
            }
            (Some(lm), Some(trie))
        } else {
            (None, None)
        };
        Snapshot {
            meta: SnapshotMeta {
                profile: "tiny".into(),
                seed: 42,
                world_fingerprint: 0x1234_5678_9abc_def0,
                num_entities: 4,
                num_queries: 2,
                num_docs: 2,
                encoder: EncoderConfig {
                    dim: 3,
                    ..EncoderConfig::default()
                },
                retexpan: RetExpanConfig::default(),
                genexpan_enabled: genexpan,
            },
            reps,
            lm,
            trie,
            bm25,
            ivf: None,
        }
    }

    #[test]
    fn round_trip_is_canonical() {
        for genexpan in [false, true] {
            let snap = fixture(genexpan);
            let bytes = snap.to_bytes();
            let back = Snapshot::from_bytes(&bytes).expect("round trip");
            assert_eq!(back.to_bytes(), bytes, "genexpan={genexpan}");
            assert_eq!(back.meta.profile, "tiny");
            assert_eq!(back.meta.genexpan_enabled, genexpan);
            assert_eq!(back.lm.is_some(), genexpan);
        }
    }

    #[test]
    fn magic_version_and_count_are_validated() {
        let bytes = fixture(false).to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bad).unwrap_err(), SnapError::BadMagic);
        let mut bad = bytes.clone();
        bad[4] = 9;
        // The version flip also invalidates checksums, but version must be
        // checked first.
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapError::UnsupportedVersion(9)
        );
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapError::SectionCount(u32::MAX)
        );
        assert_eq!(Snapshot::from_bytes(&[]).unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn the_one_pass_fingerprint_is_the_file_fingerprint() {
        for genexpan in [false, true] {
            let bytes = fixture(genexpan).to_bytes();
            let (_, fingerprint) = Snapshot::from_bytes_with_fingerprint(&bytes).expect("loads");
            assert_eq!(fingerprint, file_fingerprint(&bytes));
        }
    }

    #[test]
    fn a_version_1_file_is_rejected_by_version() {
        let mut bytes = fixture(true).to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn payload_flip_is_a_section_checksum_error() {
        let snap = fixture(false);
        let bytes = snap.to_bytes();
        let spans = section_spans(&bytes).expect("spans");
        let embd = spans.iter().find(|s| s.tag == *b"EMBD").expect("embd");
        let mut bad = bytes.clone();
        bad[embd.payload_start] ^= 0x01;
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapError::SectionChecksum("EMBD".into())
        );
    }

    #[test]
    fn trailer_flip_and_trailing_garbage_are_typed() {
        let bytes = fixture(false).to_bytes();
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x80;
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapError::FileChecksum
        );
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapError::TrailingGarbage
        );
    }

    #[test]
    fn reordered_sections_survive_reseal_but_fail_semantically() {
        let bytes = fixture(false).to_bytes();
        let spans = section_spans(&bytes).expect("spans");
        // Swap the first two sections (CONF and EMBD) wholesale.
        let a = &spans[0];
        let b = &spans[1];
        let mut swapped = bytes[..a.start].to_vec();
        swapped.extend_from_slice(&bytes[b.start..b.end]);
        swapped.extend_from_slice(&bytes[a.start..a.end]);
        swapped.extend_from_slice(&bytes[b.end..]);
        reseal(&mut swapped).expect("structurally valid");
        assert_eq!(
            Snapshot::from_bytes(&swapped).unwrap_err(),
            SnapError::SectionOrder("CONF".into())
        );
    }

    #[test]
    fn mismatched_presence_flags_are_rejected() {
        let mut snap = fixture(true);
        snap.meta.genexpan_enabled = false;
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
            SnapError::Mismatch(_)
        ));
        let mut snap = fixture(false);
        snap.meta.retexpan.ann = AnnSpec::Ivf(IvfConfig {
            nlist: 2,
            nprobe: 2,
            kmeans_iters: 6,
            seed: 0xA55,
        });
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
            SnapError::Mismatch(_)
        ));
    }

    #[test]
    fn unresolved_ann_placeholders_do_not_deserialize() {
        let mut snap = fixture(false);
        snap.meta.retexpan.ann = AnnSpec::Ivf(IvfConfig {
            nlist: 0,
            nprobe: 0,
            kmeans_iters: 6,
            seed: 0xA55,
        });
        // The CONF decoder rejects the placeholder spec before any
        // cross-check runs.
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
            SnapError::Decode(tag, msg) if tag == "CONF" && msg.contains("unresolved")
        ));
    }
}
