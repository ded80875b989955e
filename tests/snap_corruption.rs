//! Adversarial fault-injection suite for the USNP snapshot format.
//!
//! Every mutation of a valid snapshot — bit flips in any section,
//! truncation at any boundary, header tampering, length lies, duplicated
//! or reordered sections, trailing garbage — must surface as a *typed*
//! [`SnapError`], never a panic and never a silently different engine.
//! Each decode here runs under `catch_unwind` so a panic is a test
//! failure in its own right, not just an aborted test binary.

use proptest::prelude::*;
use std::sync::OnceLock;
use ultra_serve::{EngineConfig, ExpansionEngine, ServeError, SnapshotRuntime};
use ultra_snap::{reseal, section_spans, SnapError, Snapshot, MAGIC, VERSION};
use ultrawiki::prelude::*;

/// Offset of the section-count field in the file header.
const COUNT_AT: usize = 8;
/// Trailer length (whole-file FNV fingerprint).
const TRAILER_LEN: usize = 8;

/// A pristine snapshot exercising **every** section: CONF + EMBD + NGLM +
/// TRIE + BM25 + UANN (tiny world, cheap encoder, IVF source, GenExpan on).
fn pristine() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let config = EngineConfig {
            profile: "tiny".into(),
            encoder: EncoderConfig {
                epochs: 1,
                dim: 16,
                neg_samples: 8,
                max_sentences_per_entity: 4,
                ..EncoderConfig::default()
            },
            retexpan: RetExpanConfig {
                ann: AnnSpec::Ivf(IvfConfig {
                    nlist: 8,
                    nprobe: 3,
                    ..IvfConfig::default()
                }),
                ..RetExpanConfig::default()
            },
            genexpan: Some(GenExpanConfig::default()),
            cache_capacity: 64,
            cache_shards: 2,
            ..EngineConfig::default()
        };
        let engine = ExpansionEngine::build(config).expect("fixture engine builds");
        let bytes = engine.to_snapshot().expect("fixture snapshot").to_bytes();
        // Sanity: the fixture decodes and carries all six sections.
        let snapshot = Snapshot::from_bytes(&bytes).expect("fixture decodes");
        assert!(snapshot.lm.is_some() && snapshot.trie.is_some() && snapshot.ivf.is_some());
        assert_eq!(section_spans(&bytes).expect("fixture scans").len(), 6);
        bytes
    })
}

/// Decodes under panic containment: `Ok(result)` if the decoder returned,
/// `Err(())` if it panicked.
fn decode_contained(bytes: &[u8]) -> Result<Result<Snapshot, SnapError>, ()> {
    let bytes = bytes.to_vec();
    std::panic::catch_unwind(move || Snapshot::from_bytes(&bytes)).map_err(|_| ())
}

/// Asserts corrupted bytes yield a typed error — no panic, no `Ok`.
fn assert_typed_error(bytes: &[u8], context: &str) -> SnapError {
    match decode_contained(bytes) {
        Ok(Err(e)) => e,
        Ok(Ok(_)) => panic!("{context}: corrupted snapshot decoded successfully"),
        Err(()) => panic!("{context}: decoder panicked"),
    }
}

fn flipped(bytes: &[u8], byte_at: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[byte_at] ^= 1 << bit;
    out
}

#[test]
fn single_bit_flips_in_every_section_are_typed_errors() {
    let bytes = pristine();
    let spans = section_spans(bytes).expect("pristine scans");

    // Sampled offsets per region: both edges, interior quartiles, and the
    // section header + checksum fields. (Exhausting all ~40M bit positions
    // is a no-op: every file byte is covered by either the per-section or
    // the whole-file fingerprint, which these samples prove region by
    // region.)
    let mut targets: Vec<(usize, &str)> = Vec::new();
    for at in 0..12 {
        targets.push((at, "file header"));
    }
    for span in &spans {
        let name = std::str::from_utf8(&span.tag).unwrap_or("????").to_string();
        let name: &'static str = Box::leak(name.into_boxed_str());
        for at in [span.start, span.start + 4, span.payload_end, span.end - 1] {
            targets.push((at, name)); // tag, length field, checksum edges
        }
        let len = span.payload_end - span.payload_start;
        for quarter in 0..4 {
            targets.push((span.payload_start + quarter * len / 4, name));
        }
        targets.push((span.payload_end - 1, name));
    }
    for at in bytes.len() - TRAILER_LEN..bytes.len() {
        targets.push((at, "trailer"));
    }

    for (at, region) in targets {
        for bit in [0u8, 3, 7] {
            let corrupted = flipped(bytes, at, bit);
            if corrupted == bytes {
                continue;
            }
            assert_typed_error(&corrupted, &format!("bit {bit} of byte {at} ({region})"));
        }
    }
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let bytes = pristine();
    let spans = section_spans(bytes).expect("pristine scans");
    let mut cuts: Vec<usize> = (0..16).collect(); // every header prefix
    for span in &spans {
        cuts.extend([
            span.start,
            span.start + 4,
            span.payload_start,
            span.payload_start + 1,
            span.payload_end - 1,
            span.payload_end,
            span.end - 1,
            span.end,
        ]);
    }
    cuts.extend([bytes.len() - TRAILER_LEN, bytes.len() - 1]);
    for cut in cuts {
        assert!(cut < bytes.len(), "cut {cut} out of range");
        assert_typed_error(&bytes[..cut], &format!("truncated to {cut} bytes"));
    }
    assert_typed_error(b"", "empty file");
}

#[test]
fn magic_and_version_tampering_is_rejected_by_name() {
    let bytes = pristine();
    for at in 0..4 {
        let corrupted = flipped(bytes, at, 5);
        assert_eq!(
            assert_typed_error(&corrupted, "magic tamper"),
            SnapError::BadMagic
        );
    }
    // Version 1 wrote the NGLM section in a layout this build cannot read.
    for version in [0u32, 1, VERSION + 1, u32::MAX] {
        let mut corrupted = bytes.to_vec();
        corrupted[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            assert_typed_error(&corrupted, "version tamper"),
            SnapError::UnsupportedVersion(version)
        );
    }
    // Sanity check of the constants this format is defined by.
    assert_eq!(&bytes[..4], &MAGIC);
    assert_eq!(VERSION, 2);
}

#[test]
fn section_length_lies_are_typed_errors() {
    let bytes = pristine();
    let spans = section_spans(bytes).expect("pristine scans");
    for span in &spans {
        let declared = (span.payload_end - span.payload_start) as u64;
        for lie in [
            declared.wrapping_sub(1),
            declared + 1,
            0,
            u64::MAX,
            u64::MAX / 2, // huge but non-overflowing: must not allocate
        ] {
            let mut corrupted = bytes.to_vec();
            corrupted[span.start + 4..span.start + 12].copy_from_slice(&lie.to_le_bytes());
            // Raw lie: the whole-file fingerprint no longer matches.
            assert_typed_error(&corrupted, "raw length lie");
            // Resealed lie: checksums are made internally consistent again,
            // so the *structural/semantic* layer must reject it instead.
            if reseal(&mut corrupted).is_ok() {
                assert_typed_error(&corrupted, "resealed length lie");
            }
        }
    }
}

/// Splices `bytes`' sections in a new order (indices into the span list),
/// fixes the section count, and reseals — producing a file whose checksums
/// are all valid so only semantic validation can reject it.
fn respliced(bytes: &[u8], order: &[usize]) -> Vec<u8> {
    let spans = section_spans(bytes).expect("scans");
    let mut out = bytes[..12].to_vec();
    out[COUNT_AT..COUNT_AT + 4].copy_from_slice(&(order.len() as u32).to_le_bytes());
    for &i in order {
        out.extend_from_slice(&bytes[spans[i].start..spans[i].end]);
    }
    out.extend_from_slice(&[0u8; TRAILER_LEN]);
    reseal(&mut out).expect("respliced file reseals");
    out
}

#[test]
fn duplicated_and_reordered_sections_are_typed_errors() {
    let bytes = pristine();
    let n = section_spans(bytes).expect("scans").len();

    // Identity resplice sanity check: the harness itself is sound.
    let identity: Vec<usize> = (0..n).collect();
    let rebuilt = respliced(bytes, &identity);
    assert_eq!(rebuilt, bytes, "identity resplice reproduces the file");

    // Every adjacent swap → SectionOrder.
    for i in 0..n - 1 {
        let mut order = identity.clone();
        order.swap(i, i + 1);
        let err = assert_typed_error(&respliced(bytes, &order), "swapped sections");
        assert!(
            matches!(err, SnapError::SectionOrder(_)),
            "swap {i}: expected SectionOrder, got {err:?}"
        );
    }

    // Every duplicated section → DuplicateSection or SectionOrder (a
    // duplicate is also out of order unless adjacent to itself).
    for i in 0..n {
        let mut order = identity.clone();
        order.insert(i + 1, i);
        let err = assert_typed_error(&respliced(bytes, &order), "duplicated section");
        assert!(
            matches!(
                err,
                SnapError::DuplicateSection(_) | SnapError::SectionOrder(_)
            ),
            "dup {i}: expected DuplicateSection/SectionOrder, got {err:?}"
        );
    }

    // A dropped *required* section → MissingSection (after reseal the
    // container is pristine, so only the semantic layer can notice).
    let without_embd: Vec<usize> = identity.iter().copied().filter(|&i| i != 1).collect();
    let err = assert_typed_error(&respliced(bytes, &without_embd), "dropped EMBD");
    assert!(
        matches!(err, SnapError::MissingSection(_)),
        "expected MissingSection, got {err:?}"
    );
}

#[test]
fn trailing_garbage_is_a_typed_error() {
    let bytes = pristine();
    for garbage in [&[0u8][..], &[0xFF; 7], &[0xAB; 64]] {
        let mut corrupted = bytes.to_vec();
        corrupted.extend_from_slice(garbage);
        let err = assert_typed_error(&corrupted, "trailing garbage");
        assert!(
            matches!(err, SnapError::TrailingGarbage | SnapError::Truncated),
            "expected TrailingGarbage/Truncated, got {err:?}"
        );
    }
}

/// One context of a hand-built NGLM payload: its link gap (ignored in the
/// first table) and its run as `(token gap, count − 1)` pairs.
type Context<'a> = (u64, &'a [(u64, u64)]);

/// An NGLM payload (NGLM v2: varints after a fixed header) of one table
/// per entry of `tables`. A run's length − 1 is written first, as
/// `to_bytes` writes it.
fn nglm_payload(tables: &[&[Context<'_>]]) -> Vec<u8> {
    let mut w = ultrawiki::core::ByteWriter::new();
    w.u32(tables.len() as u32);
    w.u8(1);
    w.f64(0.5);
    w.u64(8);
    for (k, table) in tables.iter().enumerate() {
        w.varint(table.len() as u64);
        for &(link, run) in table.iter() {
            if k > 0 {
                w.varint(link);
            }
            w.varint((run.len() as u64).wrapping_sub(1));
            for &(gap, count) in run {
                w.varint(gap);
                w.varint(count);
            }
        }
    }
    w.finish()
}

/// `bytes` with `tag`'s payload replaced by `payload`, resealed, so every
/// checksum passes and only the section's decoder can reject it.
fn with_section(bytes: &[u8], tag: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let spans = section_spans(bytes).expect("scans");
    let span = spans
        .iter()
        .find(|s| &s.tag == tag)
        .expect("fixture has the section");
    let mut out = bytes[..span.start].to_vec();
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&[0u8; 8]);
    out.extend_from_slice(&bytes[span.end..]);
    reseal(&mut out).expect("spliced file reseals");
    out
}

/// Asserts `corrupted` fails as a `tag` decode error whose message holds
/// `why`, and that the engine refuses to load it.
fn assert_never_served(corrupted: &[u8], tag: &str, why: &str) {
    let err = assert_typed_error(corrupted, why);
    assert!(
        matches!(&err, SnapError::Decode(t, msg) if t == tag && msg.contains(why)),
        "expected a {tag} decode error ({why}), got {err:?}"
    );
    let outcome = std::panic::catch_unwind(|| {
        ExpansionEngine::from_snapshot_bytes(corrupted, SnapshotRuntime::default()).map(|_| ())
    });
    assert!(
        matches!(outcome, Ok(Err(ServeError::Snapshot(_)))),
        "a snapshot with a broken {tag} section must fail to load"
    );
}

#[test]
fn an_nglm_context_without_its_prefix_never_reaches_serving() {
    // Table 0: the empty context, continuations 1×2, 3×1 (two entries).
    // Table 1: [3] → 2×1, linked from entry 1. Table 2: a context linked
    // from entry 1 of table 1, which has one entry: its prefix is not
    // stored, and a link past the parent's entries is the only way to
    // write it.
    let payload = nglm_payload(&[
        &[(0, &[(1, 1), (1, 0)])],
        &[(1, &[(2, 0)])],
        &[(1, &[(1, 3)])],
    ]);
    let corrupted = with_section(pristine(), b"NGLM", &payload);
    assert_never_served(&corrupted, "NGLM", "links past");
}

#[test]
fn an_nglm_context_with_an_empty_run_never_reaches_serving() {
    // Version 1 accepted a context whose run was empty (total 0), and
    // every probability through it was NaN. Version 2 writes a run's
    // length − 1, so an empty run written that way is a run of 2^64
    // entries: here the run of [1].
    let payload = nglm_payload(&[&[(0, &[(1, 1), (0, 0)])], &[(0, &[])]]);
    let corrupted = with_section(pristine(), b"NGLM", &payload);
    assert_never_served(&corrupted, "NGLM", "continuations");
}

#[test]
fn a_non_finite_embedding_never_reaches_serving() {
    // EMBD is `u32` rows, `u32` columns, then the cells. A NaN or infinite
    // cell would poison every cosine it enters, so one in entity 1's row
    // must be a decode error, not a changed ranking.
    let bytes = pristine();
    let spans = section_spans(bytes).expect("scans");
    let embd = spans
        .iter()
        .find(|s| &s.tag == b"EMBD")
        .expect("fixture has EMBD");
    let payload = &bytes[embd.payload_start..embd.payload_end];
    let cols = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")) as usize;
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut poisoned = payload.to_vec();
        let at = 8 + 4 * (cols + 3);
        poisoned[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        let corrupted = with_section(bytes, b"EMBD", &poisoned);
        assert_never_served(&corrupted, "EMBD", "row 1 column 3");
    }
}

#[test]
fn checksum_valid_but_semantically_tampered_payloads_never_reach_serving() {
    let bytes = pristine();
    let spans = section_spans(bytes).expect("scans");
    // Tamper *inside* the CONF payload and reseal, so every checksum
    // passes and only the engine's semantic cross-checks stand between a
    // lying snapshot and serving. Targets are the world-identity fields
    // the load path re-derives and verifies (CONF layout for the `"tiny"`
    // fixture: profile len u32 + 4 profile bytes, then seed u64 at payload
    // offset 8, then world_fingerprint u64 at offset 16):
    let conf = &spans[0];
    for (delta, field) in [
        (5usize, "profile bytes"), // "tiny" -> "thny": unknown profile
        (8, "seed"),               // world regenerates differently
        (16, "world fingerprint"), // stored claim no longer matches
    ] {
        let at = conf.payload_start + delta;
        let mut corrupted = bytes.to_vec();
        corrupted[at] ^= 0x01;
        reseal(&mut corrupted).expect("payload tamper reseals cleanly");
        assert_eq!(
            Snapshot::from_bytes(&corrupted).err(),
            None,
            "container layer alone must accept a resealed {field} tamper \
             (that is the point: semantic checks have to catch it)"
        );
        let outcome = std::panic::catch_unwind(|| {
            ExpansionEngine::from_snapshot_bytes(&corrupted, SnapshotRuntime::default()).map(|_| ())
        });
        match outcome {
            Ok(Err(ServeError::Snapshot(_) | ServeError::BadRequest(_))) => {}
            Ok(Err(e)) => panic!("{field} tamper: unexpected error class {e}"),
            Ok(Ok(())) => panic!("{field} tamper: engine served from a lying snapshot"),
            Err(_) => panic!("{field} tamper: load path panicked"),
        }
    }
}

proptest! {
    /// Arbitrary byte soup never panics the decoder — worst case a typed
    /// error, and an `Ok` only for a byte-exact valid file (which random
    /// soup cannot produce: it would need four matching fingerprints).
    #[test]
    fn arbitrary_bytes_never_panic(
        soup in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..4096),
    ) {
        match decode_contained(&soup) {
            Ok(Ok(_)) => prop_assert!(false, "random soup decoded as a snapshot"),
            Ok(Err(_)) => {}
            Err(()) => prop_assert!(false, "decoder panicked on random soup"),
        }
    }

    /// Valid-prefix soup: a real header followed by garbage is the
    /// adversarial sweet spot (it gets past magic/version into the
    /// count-driven section walk).
    #[test]
    fn header_plus_soup_never_panics(
        count in 0u32..80,
        soup in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..2048),
    ) {
        let mut bytes = Vec::with_capacity(12 + soup.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&soup);
        match decode_contained(&bytes) {
            Ok(Ok(_)) => prop_assert!(false, "header+soup decoded as a snapshot"),
            Ok(Err(_)) => {}
            Err(()) => prop_assert!(false, "decoder panicked on header+soup"),
        }
    }

    /// Random single-bit flips anywhere in a pristine snapshot: always a
    /// typed error (or, never in practice, an undetected no-op is ruled
    /// out because every byte is fingerprint-covered).
    #[test]
    fn random_bit_flips_are_typed_errors(at_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = pristine();
        let at = ((bytes.len() as f64 * at_frac) as usize).min(bytes.len() - 1);
        let corrupted = flipped(bytes, at, bit);
        match decode_contained(&corrupted) {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => prop_assert!(false, "flip at byte {at} bit {bit} went undetected"),
            Err(()) => prop_assert!(false, "flip at byte {at} bit {bit} panicked the decoder"),
        }
    }
}
