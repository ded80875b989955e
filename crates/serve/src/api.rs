//! JSON request/response shapes of the HTTP API.
//!
//! Everything here (de)serializes through the vendored `serde` stub, whose
//! derive supports named-field structs and newtypes — so methods travel as
//! plain strings validated by [`Method::from_name`], and optional fields use
//! `Option` (absent keys deserialize to `None`).

use serde::{Deserialize, Serialize};
use ultra_core::{Query, RankedList};

/// Expansion methods the engine can serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    /// The retrieval-based framework (always trained at startup).
    RetExpan,
    /// The generation-based framework (trained only when enabled).
    GenExpan,
}

impl Method {
    /// The lower-case wire name (`"retexpan"` / `"genexpan"`).
    pub fn name(self) -> &'static str {
        match self {
            Method::RetExpan => "retexpan",
            Method::GenExpan => "genexpan",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Method> {
        match name {
            "retexpan" => Some(Method::RetExpan),
            "genexpan" => Some(Method::GenExpan),
            _ => None,
        }
    }
}

/// Body of `POST /expand`.
///
/// The query is given either by `query_index` (replaying one of the world's
/// generated queries) or as an explicit [`Query`]
/// (`{"ultra": N, "pos_seeds": [...], "neg_seeds": [...]}`); exactly one of
/// the two must be present.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExpandRequest {
    /// Method wire name; defaults to `"retexpan"`.
    pub method: Option<String>,
    /// Index into the world's generated query set.
    pub query_index: Option<usize>,
    /// Explicit query (mutually exclusive with `query_index`).
    pub query: Option<Query>,
    /// Result-list cutoff; `0` (the default) returns the full list.
    pub top_k: Option<usize>,
}

impl ExpandRequest {
    /// A replay request for a generated query, untruncated.
    pub fn replay(method: Method, query_index: usize, top_k: usize) -> Self {
        Self {
            method: Some(method.name().to_string()),
            query_index: Some(query_index),
            query: None,
            top_k: Some(top_k),
        }
    }
}

/// Body of a successful `POST /expand` response.
///
/// Deliberately contains *only* deterministic fields — whether the result
/// came from the cache travels in the `X-Ultra-Cache` response header, so a
/// cache hit's body is byte-identical to the cold body.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExpandResponse {
    /// Method wire name that produced the list.
    pub method: String,
    /// The resolved query (echoed so explicit and replayed requests agree).
    pub query: Query,
    /// The cutoff actually applied (`0` = untruncated).
    pub top_k: usize,
    /// The ranked expansion.
    pub list: RankedList,
}

/// Body of `GET /healthz`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` once the engine is answering.
    pub status: String,
    /// World profile the engine was built with.
    pub profile: String,
    /// World seed.
    pub seed: u64,
    /// Wire names of the methods this engine serves.
    pub methods: Vec<String>,
    /// Candidate vocabulary size `|V|`.
    pub entities: usize,
    /// Number of generated queries available to `query_index`.
    pub queries: usize,
}

/// Body of every non-2xx response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable cause.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::{EntityId, UltraClassId};

    #[test]
    fn method_names_round_trip() {
        for m in [Method::RetExpan, Method::GenExpan] {
            assert_eq!(Method::from_name(m.name()), Some(m));
        }
        assert_eq!(Method::from_name("gpt5"), None);
    }

    #[test]
    fn expand_request_round_trips() {
        let req = ExpandRequest {
            method: Some("retexpan".into()),
            query_index: None,
            query: Some(Query::new(
                UltraClassId::new(2),
                vec![EntityId::new(1)],
                vec![EntityId::new(7)],
            )),
            top_k: Some(25),
        };
        let json = serde_json::to_string(&req).expect("serialize");
        let back: ExpandRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.method.as_deref(), Some("retexpan"));
        assert_eq!(back.query.expect("query").pos_seeds, vec![EntityId::new(1)]);
        assert_eq!(back.top_k, Some(25));
    }

    #[test]
    fn absent_optionals_deserialize_to_none() {
        let req: ExpandRequest = serde_json::from_str(r#"{"query_index": 3}"#).expect("parse");
        assert_eq!(req.query_index, Some(3));
        assert!(req.method.is_none() && req.query.is_none() && req.top_k.is_none());
    }

    #[test]
    fn expand_response_round_trips_bit_exact() {
        let resp = ExpandResponse {
            method: "retexpan".into(),
            query: Query::new(UltraClassId::new(0), vec![EntityId::new(3)], vec![]),
            top_k: 0,
            list: RankedList::from_scores(vec![(EntityId::new(9), 0.75), (EntityId::new(4), 0.5)]),
        };
        let json = serde_json::to_string(&resp).expect("serialize");
        let back: ExpandResponse = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.list, resp.list);
        assert_eq!(serde_json::to_string(&back).expect("re-serialize"), json);
    }
}
