//! Guard-region concurrency analysis: **L13 `no-blocking-under-lock`**.
//!
//! [`crate::parser`] computes a live range for every lock acquisition (see
//! `GuardRegion` there for the let/`if let`/temporary rules). This module
//! first decides which of those candidates are *real* lock guards — the
//! receiver must be a known crate-wide lock field, a
//! `Mutex`/`RwLock`-typed param or local, or a helper method attributable
//! to exactly one lock field, with the acquiring method compatible with the
//! lock kind (`lock` for `Mutex`, `read`/`write` for `RwLock`) — which is
//! what keeps `stream.read(..)` and `ByteReader::read_*` from becoming
//! phantom guards.
//!
//! For each real guard, **L13** walks the call graph from every call inside
//! the live range to *blocking operations* (channel `recv`, `join`,
//! `sleep`, socket accept/connect, typed-receiver file/socket reads and
//! writes) and to *other lock acquisitions*. The latter is the workspace's
//! lock-order check: every held-while-acquiring pair is reported at its
//! acquisition site, so an inversion (`a` then `b` in one place, `b` then
//! `a` in another) shows up at both sites. A guard dropped before the
//! second lock does not count, and a second lock reached through callees
//! does. A name on the blocking list that resolves to a workspace function
//! is traversed, not reported — the workspace body decides
//! (`WorkerTeam::recv` reports at its inner channel `recv`, with the chain
//! showing both).
//!
//! Deliberate under-approximations (documented in DESIGN.md §5): `Condvar
//! wait`/`wait_timeout` release the mutex while blocked and are exempt;
//! bare `read`/`write` only count when the receiver types to a known I/O
//! struct, so untyped socket reads are missed rather than spamming every
//! `RwLock` acquisition.

use crate::callgraph::{FnId, Graph, Resolution};
use crate::parser::{CallSite, FileModel, GuardRegion, LockKind};
use crate::rules::{ChainFrame, Diagnostic, RegionSpan, Rule, TaintOrigin};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Blocking operations by method/function name. These stall the calling
/// thread on an external event while any held guard keeps every contender
/// stalled too. Names that are also common non-blocking methods are kept
/// off this list on purpose.
fn blocking_kind(name: &str) -> Option<&'static str> {
    Some(match name {
        "accept" => "socket accept",
        "connect" => "socket connect",
        "recv" | "recv_timeout" | "recv_deadline" => "channel receive",
        "join" => "thread join",
        "sleep" | "park" | "park_timeout" => "thread sleep/park",
        "read_to_end" | "read_to_string" | "read_exact" | "read_line" => "stream read",
        "write_all" | "write_fmt" => "stream write",
        _ => return None,
    })
}

/// Foreign receiver types whose bare `read`/`write`/`flush` are real I/O.
const IO_TYPES: [&str; 9] = [
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "File",
    "Stdin",
    "Stdout",
    "Stderr",
    "BufReader",
    "BufWriter",
];

/// A validated guard: which lock it holds and where.
struct LiveGuard<'a> {
    file: usize,
    fnidx: usize,
    region: &'a GuardRegion,
    /// Display name of the lock ("`queue`" or "`shard()`").
    lock_name: String,
}

/// Crate key → lock field name → kind.
fn crate_lock_fields(models: &[FileModel]) -> BTreeMap<&str, BTreeMap<&str, LockKind>> {
    let mut fields: BTreeMap<&str, BTreeMap<&str, LockKind>> = BTreeMap::new();
    for m in models {
        for fd in &m.fields {
            if let Some(kind) = fd.lock {
                fields
                    .entry(m.krate.as_str())
                    .or_default()
                    .entry(fd.name.as_str())
                    .or_insert(kind);
            }
        }
    }
    fields
}

/// Whether the acquiring method matches the lock kind.
fn method_compatible(kind: LockKind, method: &str) -> bool {
    match kind {
        LockKind::Mutex => method == "lock",
        LockKind::RwLock => method == "read" || method == "write",
    }
}

/// Validates one acquisition (a guard candidate or a nested lock site): is
/// the receiver `target` actually a lock that `method` acquires? Returns
/// the display name of the lock when it is.
fn validate_lock(
    graph: &Graph<'_>,
    fields: &BTreeMap<&str, BTreeMap<&str, LockKind>>,
    (file, fnidx): FnId,
    target: &str,
    via_method: bool,
    method: &str,
) -> Option<String> {
    let m = &graph.models[file];
    let known = fields.get(m.krate.as_str());
    if via_method {
        // Helper exposing a lock: attributable to exactly one known field
        // that its body references (ambiguous helpers are skipped).
        let known = known?;
        let mut touched: BTreeSet<&str> = BTreeSet::new();
        for def in graph.resolve_in_crate(file, target) {
            let tf = &graph.models[def.0].fns[def.1];
            for r in &tf.field_refs {
                if known.contains_key(r.as_str()) {
                    touched.insert(r);
                }
            }
        }
        if let [field] = touched.into_iter().collect::<Vec<_>>()[..] {
            if method_compatible(known[field], method) {
                return Some(format!("{target}()"));
            }
        }
        return None;
    }
    // Crate-wide lock field.
    if let Some(kind) = known.and_then(|k| k.get(target)) {
        return method_compatible(*kind, method).then(|| target.to_string());
    }
    // `Mutex`/`RwLock`-typed param or local (`shared: &RwLock<..>`,
    // `let m = Mutex::new(..)`).
    if let Some(ty) = graph.receiver_type(file, fnidx, target) {
        let kind = match ty {
            "Mutex" => Some(LockKind::Mutex),
            "RwLock" => Some(LockKind::RwLock),
            _ => None,
        };
        if let Some(kind) = kind {
            return method_compatible(kind, method).then(|| target.to_string());
        }
    }
    None
}

/// Whether a call site is a blocking operation *at this site* — either a
/// listed blocking name that does not resolve into the workspace, or a bare
/// `read`/`write`/`flush` on a receiver typed to a known I/O struct.
fn blocking_at(
    graph: &Graph<'_>,
    file: usize,
    fnidx: usize,
    call: &CallSite,
) -> Option<&'static str> {
    if let Some(kind) = blocking_kind(&call.callee) {
        // A workspace fn by this name is traversed instead (its body will
        // reveal the real blocking site, keeping the chain honest).
        if matches!(
            graph.resolve_site(file, fnidx, call),
            Resolution::Workspace(_)
        ) {
            return None;
        }
        return Some(kind);
    }
    if matches!(call.callee.as_str(), "read" | "write" | "flush") {
        let io_recv = call
            .recv
            .as_deref()
            .and_then(|r| graph.receiver_type(file, fnidx, r))
            .is_some_and(|ty| IO_TYPES.contains(&ty));
        if io_recv {
            return Some("stream I/O");
        }
    }
    None
}

/// Runs L13 over every validated guard region.
pub(crate) fn check_guards(graph: &Graph<'_>, out: &mut Vec<Diagnostic>) {
    let fields = crate_lock_fields(graph.models);
    let mut guards: Vec<LiveGuard<'_>> = Vec::new();
    for (fi, m) in graph.models.iter().enumerate() {
        for (fj, f) in m.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            for g in &f.guards {
                if g.span.is_empty() {
                    continue;
                }
                let lock_name =
                    validate_lock(graph, &fields, (fi, fj), &g.target, g.via_method, &g.method);
                if let Some(lock_name) = lock_name {
                    guards.push(LiveGuard {
                        file: fi,
                        fnidx: fj,
                        region: g,
                        lock_name,
                    });
                }
            }
        }
    }

    // (guard path, guard line, sink path, sink line) → reported.
    let mut reported: BTreeSet<(String, u32, String, u32)> = BTreeSet::new();
    for lg in &guards {
        check_one_guard_l13(graph, &fields, lg, &mut reported, out);
    }
}

/// L13 for one guard: BFS from the calls inside the live range to blocking
/// ops and nested lock acquisitions.
fn check_one_guard_l13(
    graph: &Graph<'_>,
    fields: &BTreeMap<&str, BTreeMap<&str, LockKind>>,
    lg: &LiveGuard<'_>,
    reported: &mut BTreeSet<(String, u32, String, u32)>,
    out: &mut Vec<Diagnostic>,
) {
    let root = (lg.file, lg.fnidx);
    let m = &graph.models[lg.file];
    let f = &m.fns[lg.fnidx];
    let g = lg.region;
    let origin = || {
        Some(TaintOrigin {
            desc: format!("guard of `{}` acquired via `.{}()`", lg.lock_name, g.method),
            path: m.path.clone(),
            line: g.line,
        })
    };
    let region = || {
        Some(RegionSpan {
            label: format!("guard `{}` live", lg.lock_name),
            path: m.path.clone(),
            start_line: g.line,
            end_line: g.end_line,
        })
    };
    let mut emit = |sink_path: &str,
                    sink_line: u32,
                    message: String,
                    chain: Vec<ChainFrame>,
                    out: &mut Vec<Diagnostic>| {
        let key = (m.path.clone(), g.line, sink_path.to_string(), sink_line);
        if !reported.insert(key) {
            return;
        }
        out.push(Diagnostic {
            rule: Rule::NoBlockingUnderLock,
            severity: Rule::NoBlockingUnderLock.severity(),
            path: sink_path.to_string(),
            line: sink_line,
            message,
            suggestion: "narrow the guard: copy the needed data out and drop it before \
                         blocking, or restructure so every thread acquires locks in one \
                         global order",
            chain,
            origin: origin(),
            region: region(),
        });
    };

    // Direct nested acquisitions inside the live range (the acquisition
    // itself sits outside its own span, so the guard never flags itself).
    for other in &f.locks {
        if !g.span.contains(&other.tok) {
            continue;
        }
        let inner = validate_lock(
            graph,
            fields,
            root,
            &other.target,
            other.via_method,
            &other.method,
        );
        if let Some(inner) = inner {
            if inner != lg.lock_name {
                emit(
                    &m.path,
                    other.line,
                    format!(
                        "lock `{inner}` acquired while guard `{}` (acquired {}:{}) is \
                         still held — held-while-acquiring pair",
                        lg.lock_name, m.path, g.line
                    ),
                    vec![graph.frame(root)],
                    out,
                );
            }
        }
    }

    // BFS from calls inside the live range.
    let mut queue: VecDeque<FnId> = VecDeque::new();
    let mut seen: BTreeSet<FnId> = BTreeSet::new();
    let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
    for call in &f.calls {
        if !g.span.contains(&call.tok) {
            continue;
        }
        if let Some(kind) = blocking_at(graph, lg.file, lg.fnidx, call) {
            emit(
                &m.path,
                call.line,
                format!(
                    "`{}` ({kind}) called while guard `{}` (acquired {}:{}) is held — \
                     every contender stalls behind this thread",
                    call.callee, lg.lock_name, m.path, g.line
                ),
                vec![graph.frame(root)],
                out,
            );
            continue;
        }
        if let Resolution::Workspace(targets) = graph.resolve_site(lg.file, lg.fnidx, call) {
            for t in targets {
                if t != root && seen.insert(t) {
                    parent.insert(t, root);
                    queue.push_back(t);
                }
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        let tm = &graph.models[id.0];
        let tf = &tm.fns[id.1];
        for other in &tf.locks {
            let inner = validate_lock(
                graph,
                fields,
                id,
                &other.target,
                other.via_method,
                &other.method,
            );
            if let Some(inner) = inner {
                if inner != lg.lock_name || tm.krate != m.krate {
                    emit(
                        &tm.path,
                        other.line,
                        format!(
                            "lock `{inner}` acquired while guard `{}` (acquired {}:{}) is \
                             still held — held-while-acquiring pair through `{}`",
                            lg.lock_name, m.path, g.line, tf.name
                        ),
                        graph.chain(&parent, root, id),
                        out,
                    );
                }
            }
        }
        for call in &tf.calls {
            if let Some(kind) = blocking_at(graph, id.0, id.1, call) {
                emit(
                    &tm.path,
                    call.line,
                    format!(
                        "`{}` ({kind}) reached while guard `{}` (acquired {}:{}) is held — \
                         every contender stalls behind this thread",
                        call.callee, lg.lock_name, m.path, g.line
                    ),
                    graph.chain(&parent, root, id),
                    out,
                );
                continue;
            }
            if let Resolution::Workspace(targets) = graph.resolve_site(id.0, id.1, call) {
                for t in targets {
                    if t != root && seen.insert(t) {
                        parent.insert(t, id);
                        queue.push_back(t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_code_mask};
    use crate::parser;

    fn diags(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let mask = test_code_mask(&lexed.tokens);
                parser::build(path, &lexed, &mask)
            })
            .collect();
        let graph = Graph::build(&models);
        let mut out = Vec::new();
        check_guards(&graph, &mut out);
        out
    }

    #[test]
    fn l13_fires_on_sleep_under_let_bound_guard() {
        let src = "struct S { q: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let g = self.q.lock().unwrap_or_default();\n\
                   std::thread::sleep(d);\n\
                   }\n\
                   }";
        let out = diags(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::NoBlockingUnderLock);
        assert_eq!(out[0].line, 5);
        let region = out[0].region.as_ref().unwrap();
        assert_eq!(region.start_line, 4);
        assert!(out[0].origin.is_some());
    }

    #[test]
    fn l13_respects_early_drop() {
        let src = "struct S { q: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let g = self.q.lock().unwrap_or_default();\n\
                   drop(g);\n\
                   std::thread::sleep(d);\n\
                   }\n\
                   }";
        let out = diags(&[("crates/serve/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l13_fires_on_match_temporary_guard() {
        let src = "struct S { q: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self, rx: &Receiver<u32>) {\n\
                   match self.q.lock() {\n\
                   Ok(g) => { rx.recv(); }\n\
                   Err(_) => {}\n\
                   }\n\
                   }\n\
                   }";
        let out = diags(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
        assert!(out[0].message.contains("channel receive"));
    }

    #[test]
    fn l13_walks_into_callees_and_reports_the_chain() {
        let src = "struct S { q: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let g = self.q.lock().unwrap_or_default();\n\
                   self.slow();\n\
                   }\n\
                   fn slow(&self) { std::thread::sleep(d); }\n\
                   }";
        let out = diags(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 7);
        let names: Vec<&str> = out[0].chain.iter().map(|c| c.function.as_str()).collect();
        assert_eq!(names, vec!["f", "slow"]);
    }

    #[test]
    fn l13_flags_nested_lock_but_not_sequential_locks() {
        let nested = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                      impl S {\n\
                      fn f(&self) {\n\
                      let ga = self.a.lock().unwrap_or_default();\n\
                      let gb = self.b.lock().unwrap_or_default();\n\
                      }\n\
                      }";
        let out = diags(&[("crates/serve/src/x.rs", nested)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("held-while-acquiring"));

        // Guard dropped before the second acquisition: no pair is held.
        let sequential = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                          impl S {\n\
                          fn f(&self) {\n\
                          let ga = self.a.lock().unwrap_or_default();\n\
                          drop(ga);\n\
                          let gb = self.b.lock().unwrap_or_default();\n\
                          }\n\
                          }";
        let out = diags(&[("crates/serve/src/x.rs", sequential)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l13_flags_both_halves_of_an_inversion_including_via_calls() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn fwd(&self) { let ga = self.a.lock(); self.b.lock(); }\n\
                   fn take_a(&self) { self.a.lock(); }\n\
                   fn rev(&self) { let gb = self.b.lock(); self.take_a(); }\n\
                   }";
        let out = diags(&[("crates/serve/src/cache.rs", src)]);
        let mut pairs: Vec<(u32, &str)> = out
            .iter()
            .map(|d| {
                assert_eq!(d.rule, Rule::NoBlockingUnderLock, "{d:?}");
                (d.line, d.origin.as_ref().map_or("", |o| o.desc.as_str()))
            })
            .collect();
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![
                (3, "guard of `a` acquired via `.lock()`"),
                (4, "guard of `b` acquired via `.lock()`"),
            ],
            "`b` under `a` in `fwd`, and `a` under `b` through `take_a`: {out:?}"
        );
        let through = out.iter().find(|d| d.line == 4).expect("finding in take_a");
        let via: Vec<&str> = through.chain.iter().map(|c| c.function.as_str()).collect();
        assert_eq!(via, vec!["rev", "take_a"]);
    }

    #[test]
    fn l13_ignores_condvar_wait_and_reader_homonyms() {
        let src = "struct S { q: Mutex<u32>, cv: Condvar }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let g = self.q.lock().unwrap_or_default();\n\
                   let g = self.cv.wait(g).unwrap_or_default();\n\
                   }\n\
                   fn parse(&self, r: &mut ByteReader) { r.read(); stream.read(); }\n\
                   }";
        let out = diags(&[("crates/serve/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }
}
