//! Okapi BM25 over an inverted index.
//!
//! Used in two places, matching the paper:
//!
//! * **Hard-negative mining** (Section 4.2): distractor entities whose
//!   context documents score highly against in-class entity contexts are
//!   promoted into the candidate vocabulary as hard negatives.
//! * **Retrieval augmentation**: fetching the most relevant introduction
//!   documents for an entity.

use std::collections::HashMap;
use ultra_core::{top_k, ByteReader, ByteWriter, TokenId, UltraError};

/// BM25 free parameters.
#[derive(Clone, Copy, Debug)]
pub struct Bm25Params {
    /// Term-frequency saturation (`k1`), conventionally 1.2–2.0.
    pub k1: f32,
    /// Length normalization strength (`b`), conventionally 0.75.
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

#[derive(Clone, Debug)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// Immutable BM25 inverted index over token-id documents.
#[derive(Clone, Debug)]
pub struct Bm25Index {
    params: Bm25Params,
    postings: HashMap<TokenId, Vec<Posting>>,
    doc_len: Vec<u32>,
    avg_len: f32,
}

impl Bm25Index {
    /// Builds the index from documents given as token-id slices.
    pub fn build<'a, I>(docs: I, params: Bm25Params) -> Self
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        let mut postings: HashMap<TokenId, Vec<Posting>> = HashMap::new();
        let mut doc_len = Vec::new();
        let mut tf_scratch: HashMap<TokenId, u32> = HashMap::new();
        for (doc_idx, doc) in docs.into_iter().enumerate() {
            doc_len.push(doc.len() as u32);
            tf_scratch.clear();
            for &tok in doc {
                *tf_scratch.entry(tok).or_insert(0) += 1;
            }
            for (&tok, &tf) in &tf_scratch {
                postings.entry(tok).or_default().push(Posting {
                    doc: doc_idx as u32,
                    tf,
                });
            }
        }
        let avg_len = if doc_len.is_empty() {
            0.0
        } else {
            doc_len.iter().map(|&l| l as f64).sum::<f64>() as f32 / doc_len.len() as f32
        };
        Self {
            params,
            postings,
            doc_len,
            avg_len,
        }
    }

    /// Number of indexed documents.
    #[inline]
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Robertson-Sparck-Jones idf with the standard +1 floor (never negative).
    fn idf(&self, term: TokenId) -> f32 {
        let n = self.num_docs() as f32;
        let df = self.postings.get(&term).map_or(0, Vec::len) as f32;
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Scores every document against `query`, returning the top-`k`
    /// `(doc index, score)` pairs, best first. Documents with zero overlap
    /// are omitted.
    pub fn search(&self, query: &[TokenId], k: usize) -> Vec<(usize, f32)> {
        let mut scores: HashMap<u32, f32> = HashMap::new();
        // Deduplicate query terms; repeated query terms in BM25's classic
        // form contribute linearly, which over-weights our synthetic
        // repeated markers, so we score unique terms.
        let mut seen = std::collections::HashSet::new();
        for &term in query {
            if !seen.insert(term) {
                continue;
            }
            let Some(plist) = self.postings.get(&term) else {
                continue;
            };
            let idf = self.idf(term);
            for p in plist {
                let tf = p.tf as f32;
                let dl = self.doc_len[p.doc as usize] as f32;
                let denom =
                    tf + self.params.k1 * (1.0 - self.params.b + self.params.b * dl / self.avg_len);
                *scores.entry(p.doc).or_insert(0.0) += idf * tf * (self.params.k1 + 1.0) / denom;
            }
        }
        top_k(
            scores.into_iter().map(|(d, s)| (d as usize, s)).collect(),
            k,
        )
    }

    /// Serializes the index in canonical form: parameters, document
    /// lengths, the stored average length's exact bit pattern, then the
    /// posting lists in ascending term order (postings within a list are
    /// already in ascending document order by construction).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.f32(self.params.k1);
        w.f32(self.params.b);
        w.u64(self.doc_len.len() as u64);
        for &l in &self.doc_len {
            w.u32(l);
        }
        w.f32(self.avg_len);
        w.u64(self.postings.len() as u64);
        let mut terms: Vec<TokenId> = self.postings.keys().copied().collect();
        terms.sort_unstable();
        for term in terms {
            w.u32(term.0);
            let plist = &self.postings[&term];
            w.u64(plist.len() as u64);
            for p in plist {
                w.u32(p.doc);
                w.u32(p.tf);
            }
        }
        w.finish()
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes). Validates term and
    /// posting order (strictly increasing — duplicates and reorderings are
    /// rejected), document ids against the length table, non-zero term
    /// frequencies, and exact payload consumption; failures are typed
    /// errors, never panics.
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<Self> {
        let corrupt = |msg: &str| UltraError::Corrupt(format!("bm25: {msg}"));
        let mut r = ByteReader::new(bytes, "bm25");
        let k1 = r.f32()?;
        let b = r.f32()?;
        if !k1.is_finite() || !b.is_finite() || k1 < 0.0 || !(0.0..=1.0).contains(&b) {
            return Err(corrupt("parameters out of range"));
        }
        let declared_docs = r.u64()?;
        let num_docs = r.check_count(declared_docs, 4, "documents")?;
        let mut doc_len = Vec::with_capacity(num_docs);
        for _ in 0..num_docs {
            doc_len.push(r.u32()?);
        }
        let avg_len = r.f32()?;
        let declared_terms = r.u64()?;
        // A term entry is at least term + postings-count bytes.
        let num_terms = r.check_count(declared_terms, 12, "terms")?;
        let mut postings: HashMap<TokenId, Vec<Posting>> = HashMap::with_capacity(num_terms);
        let mut prev_term: Option<u32> = None;
        for _ in 0..num_terms {
            let term = r.u32()?;
            if prev_term.is_some_and(|p| p >= term) {
                return Err(corrupt("terms not strictly increasing"));
            }
            prev_term = Some(term);
            let declared_postings = r.u64()?;
            let n = r.check_count(declared_postings, 8, "postings")?;
            if n == 0 {
                return Err(corrupt("empty posting list"));
            }
            let mut plist = Vec::with_capacity(n);
            let mut prev_doc: Option<u32> = None;
            for _ in 0..n {
                let doc = r.u32()?;
                if prev_doc.is_some_and(|p| p >= doc) {
                    return Err(corrupt("postings not strictly increasing by doc"));
                }
                prev_doc = Some(doc);
                if doc as usize >= num_docs {
                    return Err(corrupt("posting references unknown document"));
                }
                let tf = r.u32()?;
                if tf == 0 {
                    return Err(corrupt("zero term frequency"));
                }
                plist.push(Posting { doc, tf });
            }
            postings.insert(TokenId::new(term), plist);
        }
        r.expect_end()?;
        Ok(Self {
            params: Bm25Params { k1, b },
            postings,
            doc_len,
            avg_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }

    fn index(docs: &[Vec<TokenId>]) -> Bm25Index {
        Bm25Index::build(docs.iter().map(Vec::as_slice), Bm25Params::default())
    }

    #[test]
    fn exact_match_outranks_partial_match() {
        let idx = index(&[
            vec![t(1), t(2), t(3)],
            vec![t(1), t(9), t(9)],
            vec![t(7), t(8)],
        ]);
        let hits = idx.search(&[t(1), t(2)], 3);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits.len(), 2, "doc 2 has no overlap and is omitted");
    }

    #[test]
    fn rare_terms_weigh_more_than_common_terms() {
        // t(1) appears in all docs, t(5) only in doc 1.
        let idx = index(&[
            vec![t(1), t(2)],
            vec![t(1), t(5)],
            vec![t(1), t(3)],
            vec![t(1), t(4)],
        ]);
        let hits = idx.search(&[t(5)], 4);
        assert_eq!(hits[0].0, 1);
        let common = idx.search(&[t(1)], 4);
        assert!(hits[0].1 > common[0].1);
    }

    #[test]
    fn length_normalization_prefers_shorter_doc_with_same_tf() {
        let idx = index(&[
            vec![t(1), t(2), t(3), t(4), t(5), t(6), t(7), t(8)],
            vec![t(1), t(2)],
        ]);
        let hits = idx.search(&[t(1)], 2);
        assert_eq!(hits[0].0, 1, "shorter document ranks first");
    }

    #[test]
    fn empty_query_and_empty_index_are_harmless() {
        let idx = index(&[vec![t(1)]]);
        assert!(idx.search(&[], 5).is_empty());
        let empty = index(&[]);
        assert!(empty.search(&[t(1)], 5).is_empty());
    }

    #[test]
    fn duplicate_query_terms_do_not_double_count() {
        let idx = index(&[vec![t(1), t(2)], vec![t(2), t(3)]]);
        let once = idx.search(&[t(1)], 2);
        let twice = idx.search(&[t(1), t(1)], 2);
        assert_eq!(once, twice);
    }

    #[test]
    fn top_k_truncates() {
        let idx = index(&[vec![t(1)], vec![t(1)], vec![t(1)]]);
        assert_eq!(idx.search(&[t(1)], 2).len(), 2);
    }

    #[test]
    fn byte_round_trip_preserves_scores_bit_exactly() {
        let idx = index(&[
            vec![t(1), t(2), t(3)],
            vec![t(1), t(9), t(9)],
            vec![t(7), t(8)],
        ]);
        let bytes = idx.to_bytes();
        let back = Bm25Index::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_bytes(), bytes, "re-serialization must be canonical");
        assert_eq!(back.num_docs(), idx.num_docs());
        let a = idx.search(&[t(1), t(2), t(9)], 10);
        let b = back.search(&[t(1), t(2), t(9)], 10);
        assert_eq!(a.len(), b.len());
        for ((da, sa), (db, sb)) in a.iter().zip(&b) {
            assert_eq!(da, db);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }

    #[test]
    fn corrupt_bm25_payloads_are_typed_errors() {
        let bytes = index(&[vec![t(1), t(2)], vec![t(2), t(3)]]).to_bytes();
        for cut in 0..bytes.len() {
            assert!(Bm25Index::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(1);
        assert!(Bm25Index::from_bytes(&padded).is_err());
        // Non-finite k1 is rejected.
        let mut bad = bytes.clone();
        bad[0..4].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert!(Bm25Index::from_bytes(&bad).is_err());
    }
}
