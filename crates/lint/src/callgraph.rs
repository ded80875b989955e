//! Workspace call graph and the interprocedural rules L7 and L9.
//!
//! Name resolution is heuristic and layered. Method calls whose receiver
//! can be *typed* — `self` (the enclosing `impl` target), a typed param or
//! `let` binding, or a same-file struct field — resolve through the
//! workspace-wide `(type, method)` impl index: a hit is an edge, a typed
//! miss on a workspace type stays unresolved, and a typed miss on a foreign
//! type (`Vec`, `HashMap`, `TcpStream`, …) is *external* — known
//! out-of-workspace, neither an edge nor noise in the unresolved count.
//! Smart-pointer receivers (`Arc`, `Box`, …) auto-deref, so they fall back
//! to the name layering below rather than being misclassified as foreign.
//!
//! Everything else resolves by name: a call from file `F` in crate `C` to
//! `name` resolves to (1) every non-test `fn name` in `F` itself, else (2)
//! every one in `C`, else (3) every one in a workspace crate that `F`
//! imports (`use ultra_<k>::…` / `use ultrawiki::…`). Anything else is
//! *unresolved*: counted in [`crate::Report::unresolved_calls`] and never
//! traversed, so the graph over-approximates within the workspace and is
//! explicit about what it cannot see (std / vendored deps). Multiple
//! same-name matches all become edges — reachability may report a chain
//! through a same-named sibling, which errs toward reporting.
//!
//! - **L7** walks breadth-first from the serve entry points (`handle_*` in
//!   `crates/serve/**/api.rs` / `server.rs`, and `worker_loop` in
//!   `pool.rs`) and flags every reachable panic source with its full call
//!   chain. `unwrap`/`expect`/panic-macros count in any library crate;
//!   indexing counts only inside `crates/serve` (index-heavy numeric kernels
//!   are L4/L9 territory — flagging every `m[i]` reachable through the
//!   engine would drown the signal). Calls and panic sites inside a
//!   `catch_unwind(..)` argument are skipped: the panic cannot escape.
//! - **L9** flags allocation calls inside loop bodies of functions carrying
//!   a `// ultra-lint: hot` marker.
//!
//! Lock order is checked by L13 in [`crate::guards`], over the same graph:
//! it reports each held-while-acquiring pair at its acquisition site, so an
//! inversion shows up at both of its sites.

use crate::parser::{CallSite, FileModel, PanicKind};
use crate::rules::{ChainFrame, Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Smart pointers and cells that auto-deref to their payload: a receiver
/// typed to one of these says nothing about where the method lives, so
/// resolution falls back to the name layering instead of calling it
/// foreign.
const TRANSPARENT_TYPES: [&str; 6] = ["Arc", "Rc", "Box", "RefCell", "Ref", "RefMut"];

/// How one call site relates to the workspace graph.
pub(crate) enum Resolution {
    /// Resolved to one or more workspace definitions (graph edges).
    Workspace(Vec<FnId>),
    /// Typed receiver on a foreign type — known external, not counted.
    External,
    /// No workspace definition found — counted, never traversed.
    Unresolved,
}

/// A function's global identity: (file index, fn index within the file).
pub(crate) type FnId = (usize, usize);

/// The heuristic workspace call graph, built once per run and shared by
/// this module's rules, [`crate::guards`] and [`crate::dataflow`], whose
/// taint propagation follows the same resolution layering.
pub(crate) struct Graph<'a> {
    pub(crate) models: &'a [FileModel],
    /// (crate key, fn name) → definitions, in (file, fn) order.
    by_crate: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    /// (impl target type, method name) → definitions, workspace-wide.
    by_impl: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    /// Every type name the workspace defines (structs, enums, impl
    /// targets) — the boundary between "unresolved" and "external".
    type_defs: BTreeSet<&'a str>,
}

impl<'a> Graph<'a> {
    pub(crate) fn build(models: &'a [FileModel]) -> Graph<'a> {
        let mut by_crate: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut type_defs: BTreeSet<&str> = BTreeSet::new();
        for (fi, m) in models.iter().enumerate() {
            type_defs.extend(m.type_defs.iter().map(String::as_str));
            for (fj, f) in m.fns.iter().enumerate() {
                if f.in_test || m.krate.is_empty() {
                    continue;
                }
                by_crate
                    .entry((m.krate.as_str(), f.name.as_str()))
                    .or_default()
                    .push((fi, fj));
                if let Some(ty) = f.self_type.as_deref() {
                    by_impl
                        .entry((ty, f.name.as_str()))
                        .or_default()
                        .push((fi, fj));
                }
            }
        }
        Graph {
            models,
            by_crate,
            by_impl,
            type_defs,
        }
    }

    /// The syntactic type of a receiver identifier inside one function, if
    /// recoverable: `self` → impl target, then typed params/lets, then
    /// same-file struct fields.
    pub(crate) fn receiver_type(&self, file: usize, fnidx: usize, recv: &str) -> Option<&str> {
        let m = &self.models[file];
        let f = &m.fns[fnidx];
        if recv == "self" {
            return f.self_type.as_deref();
        }
        if let Some((_, t)) = f.local_types.iter().find(|(n, _)| n == recv) {
            return Some(t);
        }
        m.fields
            .iter()
            .find_map(|fd| fd.ty.as_deref().filter(|_| fd.name == recv))
    }

    /// Full resolution of one call site: typed-receiver impl lookup first,
    /// name layering as the fallback (see the module docs).
    pub(crate) fn resolve_site(&self, file: usize, fnidx: usize, call: &CallSite) -> Resolution {
        if let Some(recv) = call.recv.as_deref() {
            if let Some(ty) = self.receiver_type(file, fnidx, recv) {
                if !TRANSPARENT_TYPES.contains(&ty) {
                    if let Some(hits) = self.by_impl.get(&(ty, call.callee.as_str())) {
                        return Resolution::Workspace(hits.clone());
                    }
                    if self.type_defs.contains(ty) {
                        // A workspace type without that method in any impl:
                        // derive-generated or trait-provided — unknown.
                        return Resolution::Unresolved;
                    }
                    return Resolution::External;
                }
            }
        }
        let hits = self.resolve(file, &call.callee);
        if hits.is_empty() {
            Resolution::Unresolved
        } else {
            Resolution::Workspace(hits)
        }
    }

    /// Resolves a call made in `file` to workspace definitions (see the
    /// module docs for the same-file → same-crate → imports layering).
    /// Empty means unresolved.
    pub(crate) fn resolve(&self, file: usize, callee: &str) -> Vec<FnId> {
        let local = self.resolve_in_crate(file, callee);
        if !local.is_empty() {
            return local;
        }
        let m = &self.models[file];
        let mut out = Vec::new();
        for key in &m.imports {
            if *key == m.krate {
                continue;
            }
            if let Some(hits) = self.by_crate.get(&(key.as_str(), callee)) {
                out.extend(hits.iter().copied());
            }
        }
        out
    }

    /// Same-file, else same-crate resolution: the first two layers of
    /// [`Graph::resolve`]. Lock fields are per crate, so a helper exposing
    /// a lock is looked up here.
    pub(crate) fn resolve_in_crate(&self, file: usize, callee: &str) -> Vec<FnId> {
        let m = &self.models[file];
        let same_file: Vec<FnId> = m
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.in_test && f.name == callee)
            .map(|(fj, _)| (file, fj))
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        self.by_crate
            .get(&(m.krate.as_str(), callee))
            .cloned()
            .unwrap_or_default()
    }

    /// Call sites (in non-test library functions) that resolve to no
    /// workspace function — std, vendored deps, methods on foreign types.
    /// Reported so the over-approximation boundary stays visible.
    pub(crate) fn unresolved_calls(&self) -> usize {
        let mut unresolved = 0;
        for (fi, m) in self.models.iter().enumerate() {
            for (fj, f) in m.fns.iter().enumerate().filter(|(_, f)| !f.in_test) {
                unresolved += f
                    .calls
                    .iter()
                    .filter(|c| matches!(self.resolve_site(fi, fj, c), Resolution::Unresolved))
                    .count();
            }
        }
        unresolved
    }

    /// One chain frame: a function's name and definition site.
    pub(crate) fn frame(&self, id: FnId) -> ChainFrame {
        let m = &self.models[id.0];
        let f = &m.fns[id.1];
        ChainFrame {
            function: f.name.clone(),
            path: m.path.clone(),
            line: f.line,
        }
    }

    /// The root→…→sink chain recorded by BFS parent pointers (L7 and L13).
    pub(crate) fn chain(
        &self,
        parent: &BTreeMap<FnId, FnId>,
        root: FnId,
        sink: FnId,
    ) -> Vec<ChainFrame> {
        let mut frames = vec![self.frame(sink)];
        let mut cur = sink;
        while cur != root {
            let Some(&p) = parent.get(&cur) else { break };
            frames.push(self.frame(p));
            cur = p;
        }
        frames.reverse();
        frames
    }
}

/// Runs L7, L9 and L13 over the call graph of every library file.
pub(crate) fn check_cross(graph: &Graph<'_>) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    check_panic_reachability(graph, &mut diagnostics);
    check_hot_loops(graph.models, &mut diagnostics);
    crate::guards::check_guards(graph, &mut diagnostics);
    diagnostics
}

/// Whether a function is an L7 entry point: a request handler or the worker
/// loop in `crates/serve`.
fn is_serve_entry(path: &str, name: &str) -> bool {
    if !path.starts_with("crates/serve/") {
        return false;
    }
    (name.starts_with("handle_") && (path.ends_with("/api.rs") || path.ends_with("/server.rs")))
        || (name == "worker_loop" && path.ends_with("/pool.rs"))
}

/// L7 — BFS from each serve entry; every reachable unguarded panic source
/// is a finding, reported once with the first (shortest, lowest-entry)
/// chain that reaches it.
fn check_panic_reachability(graph: &Graph<'_>, out: &mut Vec<Diagnostic>) {
    let mut entries: Vec<FnId> = Vec::new();
    for (fi, m) in graph.models.iter().enumerate() {
        for (fj, f) in m.fns.iter().enumerate() {
            if !f.in_test && is_serve_entry(&m.path, &f.name) {
                entries.push((fi, fj));
            }
        }
    }
    entries.sort_by(|a, b| {
        let (ma, mb) = (&graph.models[a.0], &graph.models[b.0]);
        (&ma.path, ma.fns[a.1].line).cmp(&(&mb.path, mb.fns[b.1].line))
    });

    // (path, line, kind tag) → already reported.
    let mut reported: BTreeSet<(String, u32, u8)> = BTreeSet::new();
    for &entry in &entries {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        seen.insert(entry);
        queue.push_back(entry);
        while let Some(id) = queue.pop_front() {
            let m = &graph.models[id.0];
            let f = &m.fns[id.1];
            for site in &f.panics {
                if site.guarded {
                    continue;
                }
                if site.kind == PanicKind::Index && !m.path.starts_with("crates/serve/") {
                    continue;
                }
                let key = (m.path.clone(), site.line, site.kind as u8);
                if reported.contains(&key) {
                    continue;
                }
                reported.insert(key);
                let entry_name = &graph.models[entry.0].fns[entry.1].name;
                out.push(Diagnostic {
                    rule: Rule::NoPanicReachableFromServe,
                    severity: Rule::NoPanicReachableFromServe.severity(),
                    path: m.path.clone(),
                    line: site.line,
                    message: format!(
                        "{}; reachable from serve entry `{entry_name}`",
                        site.kind.describe(&site.what)
                    ),
                    suggestion: "return an error (or pre-validate) on serve paths — a panic \
                                 here kills a worker; waive only with a bounds/invariant proof",
                    chain: graph.chain(&parent, entry, id),
                    origin: None,
                    region: None,
                });
            }
            for call in &f.calls {
                if call.guarded {
                    continue;
                }
                let Resolution::Workspace(targets) = graph.resolve_site(id.0, id.1, call) else {
                    continue;
                };
                for target in targets {
                    if seen.insert(target) {
                        parent.insert(target, id);
                        queue.push_back(target);
                    }
                }
            }
        }
    }
}

/// L9 — allocations inside loops of `// ultra-lint: hot` functions.
fn check_hot_loops(models: &[FileModel], out: &mut Vec<Diagnostic>) {
    for m in models {
        for f in &m.fns {
            if !f.hot || f.in_test {
                continue;
            }
            for site in &f.allocs_in_loops {
                out.push(Diagnostic {
                    rule: Rule::NoAllocInHotLoop,
                    severity: Rule::NoAllocInHotLoop.severity(),
                    path: m.path.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` allocates inside a loop of hot function `{}`",
                        site.what, f.name
                    ),
                    suggestion: "hoist the allocation out of the loop (pre-size a buffer with \
                                 `with_capacity` and reuse it) or restructure into a bulk \
                                 operation outside the loop",
                    chain: Vec::new(),
                    origin: None,
                    region: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_code_mask};
    use crate::parser;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let mask = test_code_mask(&lexed.tokens);
                parser::build(path, &lexed, &mask)
            })
            .collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        check_cross(&Graph::build(&models(files)))
    }

    #[test]
    fn l7_reports_a_cross_crate_chain_three_deep() {
        let server = "use ultra_core::decode;\n\
                      pub fn handle_expand(b: &[u8]) -> u32 { parse_request(b) }\n\
                      fn parse_request(b: &[u8]) -> u32 { decode(b) }";
        let core = "pub fn decode(b: &[u8]) -> u32 { inner(b) }\n\
                    fn inner(b: &[u8]) -> u32 { b.first().copied().map(u32::from).unwrap() }";
        let diags = run(&[
            ("crates/serve/src/server.rs", server),
            ("crates/core/src/lib.rs", core),
        ]);
        let l7: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == Rule::NoPanicReachableFromServe)
            .collect();
        assert_eq!(l7.len(), 1, "{:?}", diags);
        let d = l7[0];
        assert_eq!(d.path, "crates/core/src/lib.rs");
        assert_eq!(d.line, 2);
        let names: Vec<&str> = d.chain.iter().map(|c| c.function.as_str()).collect();
        assert_eq!(
            names,
            vec!["handle_expand", "parse_request", "decode", "inner"],
            "full chain from the entry to the panicking fn"
        );
    }

    #[test]
    fn l7_skips_guarded_calls_test_fns_and_non_serve_indexing() {
        let server = "pub fn handle_x(v: &[u32]) -> u32 {\n\
                      let g = std::panic::catch_unwind(|| risky());\n\
                      safe(v)\n\
                      }\n\
                      fn risky() { panic!(\"contained\"); }\n\
                      fn safe(v: &[u32]) -> u32 { crunch(v) }\n\
                      fn crunch(v: &[u32]) -> u32 { v.iter().sum() }\n\
                      #[cfg(test)]\nmod t { fn handle_fake() { x.unwrap(); } }";
        let diags = run(&[("crates/serve/src/server.rs", server)]);
        assert!(diags.is_empty(), "{:?}", diags);
        // The same indexing that is exempt outside serve fires inside it.
        let nn = "pub fn kernel(v: &[u32]) -> u32 { v[0] }";
        let serve_calls_nn = "use ultra_nn::kernel;\n\
                              pub fn handle_y(v: &[u32]) -> u32 { kernel(v) }";
        let diags = run(&[
            ("crates/serve/src/api.rs", serve_calls_nn),
            ("crates/nn/src/lib.rs", nn),
        ]);
        assert!(
            diags.is_empty(),
            "indexing outside crates/serve is not an L7 finding: {:?}",
            diags
        );
        let serve_indexing = "pub fn handle_z(v: &[u32]) -> u32 { pick(v) }\n\
                              fn pick(v: &[u32]) -> u32 { v[0] }";
        let diags = run(&[("crates/serve/src/server.rs", serve_indexing)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn l7_dedupes_a_site_reachable_from_two_entries() {
        let server = "pub fn handle_a(x: Option<u32>) -> u32 { shared(x) }\n\
                      pub fn handle_b(x: Option<u32>) -> u32 { shared(x) }\n\
                      fn shared(x: Option<u32>) -> u32 { x.unwrap() }";
        let diags = run(&[("crates/serve/src/server.rs", server)]);
        let l7: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == Rule::NoPanicReachableFromServe)
            .collect();
        assert_eq!(l7.len(), 1, "one finding despite two entries");
        assert_eq!(l7[0].chain[0].function, "handle_a", "lowest entry wins");
    }

    #[test]
    fn l9_fires_only_in_hot_fns() {
        let src = "// ultra-lint: hot\n\
                   fn kernel(v: &[u32], out: &mut Vec<u32>) {\n\
                   for x in v { out.push(*x); }\n\
                   }\n\
                   fn cold(v: &[u32], out: &mut Vec<u32>) { for x in v { out.push(*x); } }";
        let diags = run(&[("crates/nn/src/ops.rs", src)]);
        let l9: Vec<(&str, u32)> = diags
            .iter()
            .filter(|d| d.rule == Rule::NoAllocInHotLoop)
            .map(|d| (d.path.as_str(), d.line))
            .collect();
        assert_eq!(l9, vec![("crates/nn/src/ops.rs", 3)]);
    }

    #[test]
    fn unresolved_calls_are_counted_not_dropped() {
        let src = "pub fn f() { std::fs::read(\"x\").ok(); mystery(); }";
        let models = models(&[("crates/core/src/lib.rs", src)]);
        let graph = Graph::build(&models);
        // `read`, `ok`, and `mystery` all resolve to nothing here.
        assert!(graph.unresolved_calls() >= 2);
        assert!(check_cross(&graph).is_empty());
    }
}
