//! Per-file structural model for the workspace-wide rules (L2, L7, L9–L13).
//!
//! The lexer gives a flat token stream; this module recovers just enough
//! structure from it to build a call graph: function definitions with body
//! spans, call sites (with `catch_unwind` guarding), panic sources
//! (`unwrap`/`expect`/panic macros/slice indexing), struct fields with
//! their types (and lock kind, for `Mutex`/`RwLock` fields), lock
//! acquisition sites and guard live ranges, allocation sites inside loops,
//! `use`-imported workspace crates, and each function's dataflow IR (see
//! [`crate::dataflow`]). Everything is heuristic and
//! over-approximates: a call we cannot attribute stays in the model as
//! *unresolved* (counted, never silently dropped), and closure bodies are
//! attributed to the defining function (a closure may run elsewhere, but
//! attributing it at its definition site errs toward reporting).

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::PANIC_MACROS;
use std::ops::Range;

/// What kind of panic source a site is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// Indexing (`x[i]`) into a slice/array/Vec — panics out of bounds.
    Index,
}

impl PanicKind {
    /// Human-readable description for diagnostics.
    pub fn describe(self, what: &str) -> String {
        match self {
            PanicKind::Unwrap => "`.unwrap()` panics on the error path".to_string(),
            PanicKind::Expect => "`.expect(..)` panics on the error path".to_string(),
            PanicKind::PanicMacro => format!("`{what}!` aborts the worker"),
            PanicKind::Index => format!("indexing `{what}[..]` panics out of bounds"),
        }
    }
}

/// One potential panic source inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// Source kind.
    pub kind: PanicKind,
    /// 1-based line.
    pub line: u32,
    /// The receiver/macro identifier (for messages).
    pub what: String,
    /// Inside a `catch_unwind(..)` argument — the panic cannot escape.
    pub guarded: bool,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee identifier (last path segment).
    pub callee: String,
    /// 1-based line.
    pub line: u32,
    /// Token index (orders calls against lock acquisitions).
    pub tok: usize,
    /// Inside a `catch_unwind(..)` argument — panics below this call are
    /// contained, so reachability analysis stops here.
    pub guarded: bool,
    /// Immediate method receiver when it is a plain identifier
    /// (`map.get(..)` → `map`, `self.touch(..)` → `self`). `None` for free
    /// calls and chained receivers — those resolve by name only.
    pub recv: Option<String>,
}

/// `Mutex` vs `RwLock` (for matching `.lock()` vs `.read()`/`.write()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex` (acquired via `.lock()`).
    Mutex,
    /// `std::sync::RwLock` (acquired via `.read()` / `.write()`).
    RwLock,
}

/// One named struct field.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// First identifier of the field's type (`shards: Vec<Mutex<Shard>>` →
    /// `Vec`; references, `mut`, `dyn` and lifetimes skipped, paths followed
    /// to their last segment) — receiver typing for call resolution. `None`
    /// when the type starts with a tuple, array or other punctuation.
    pub ty: Option<String>,
    /// The lock kind when `Mutex`/`RwLock` appears at the type's top level,
    /// directly or as a generic argument (`Vec<Mutex<Shard>>`), but not
    /// inside a tuple or array.
    pub lock: Option<LockKind>,
}

/// One `.lock()` / `.read()` / `.write()` site inside a function body.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// The receiver identifier: a field name (`self.queue.lock()`), or a
    /// method name when the receiver is a call (`self.shard(k).lock()`).
    pub target: String,
    /// Whether `target` is a method call rather than a field access.
    pub via_method: bool,
    /// The acquiring method: `lock`, `read`, or `write`.
    pub method: String,
    /// 1-based line.
    pub line: u32,
    /// Token index (orders acquisitions against calls).
    pub tok: usize,
}

/// The live range of one lock guard inside a function body (L13's unit of
/// analysis). The span covers the tokens over which the guard is held,
/// *excluding* the acquisition expression itself and its `unwrap*` adapter
/// chain; for a let-bound guard that is the rest of the enclosing block
/// (truncated at an explicit `drop(binding)`), for an `if let`/`while let`
/// guard the conditional's body, and for a temporary (match scrutinee,
/// mid-chain lock) the rest of the statement.
#[derive(Clone, Debug)]
pub struct GuardRegion {
    /// Receiver identifier of the acquisition (field, param, local, or
    /// helper-method name — same attribution as [`LockSite`]).
    pub target: String,
    /// Whether `target` is a helper method rather than a field/binding.
    pub via_method: bool,
    /// The acquiring method: `lock`, `read`, or `write`.
    pub method: String,
    /// The guard's binding name, when let-bound.
    pub binding: Option<String>,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Token range over which the guard is live.
    pub span: Range<usize>,
    /// 1-based line of the last token of the live range.
    pub end_line: u32,
}

/// One allocation site inside a loop (L9's unit of reporting).
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Which allocating operation (`push`, `collect`, `to_vec`, `clone`,
    /// `format!`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// One function definition with everything the graph rules need.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name (resolution is by name, by typed receiver when the
    /// receiver is recoverable).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (the `fn` line for
    /// body-less declarations).
    pub end_line: u32,
    /// Token index range of the body, braces included. Empty for body-less
    /// declarations (trait methods).
    pub body: Range<usize>,
    /// Token index range of the signature after the name (parameter list
    /// and return type). Empty for body-less declarations.
    pub sig: Range<usize>,
    /// Statement-level dataflow IR for the determinism-taint pass
    /// (L10–L12); see [`crate::dataflow`].
    pub flow: crate::dataflow::FnFlow,
    /// Defined inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Carries an `// ultra-lint: hot` marker (L9's scope).
    pub hot: bool,
    /// Call sites, in token order.
    pub calls: Vec<CallSite>,
    /// Panic sources, in token order.
    pub panics: Vec<PanicSite>,
    /// Lock acquisition sites, in token order.
    pub locks: Vec<LockSite>,
    /// Allocation sites inside this function's loops, in token order.
    pub allocs_in_loops: Vec<AllocSite>,
    /// Field names this function's body reads (`.field` accesses) — used to
    /// attribute lock-returning helper methods to the field they expose.
    pub field_refs: Vec<String>,
    /// Lock-guard live ranges, in token order.
    pub guards: Vec<GuardRegion>,
    /// The `impl` block's target type, when the fn is a method.
    pub self_type: Option<String>,
    /// Local/parameter types recoverable syntactically, first binding wins:
    /// `x: Type` params, `let x: Type` ascriptions, and `let x =
    /// [path::]Type::ctor(..)` constructor calls.
    pub local_types: Vec<(String, String)>,
}

/// The per-file model.
#[derive(Clone, Debug)]
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// Workspace crate key: `crates/<k>/…` → `k`, root `src/…` →
    /// `"ultrawiki"`.
    pub krate: String,
    /// All function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// Workspace crate keys imported via `use ultra_<k>::…` /
    /// `use ultrawiki::…` (sorted, deduplicated).
    pub imports: Vec<String>,
    /// Every named struct field declared in this file, in source order.
    pub fields: Vec<Field>,
    /// Type names this file defines (`struct`/`enum` declarations and
    /// `impl` targets), sorted and deduplicated.
    pub type_defs: Vec<String>,
}

/// The workspace crate key of a file path, if it belongs to one.
pub fn crate_key(path: &str) -> Option<String> {
    if path.starts_with("src/") {
        return Some("ultrawiki".to_string());
    }
    let rest = path.strip_prefix("crates/")?;
    let (krate, _) = rest.split_once('/')?;
    Some(krate.to_string())
}

/// Keywords that look like calls when followed by `(` but are not. Shared
/// with [`crate::dataflow`], which skips them as value identifiers too.
pub(crate) const NON_CALL_KEYWORDS: [&str; 23] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "in", "as", "move", "fn",
    "pub", "use", "mod", "where", "unsafe", "break", "continue", "struct", "enum", "trait", "impl",
];

/// Builds the per-file model from lexed tokens plus the test-code mask.
pub fn build(path: &str, lexed: &Lexed, mask: &[bool]) -> FileModel {
    let toks = &lexed.tokens;
    let guarded = guarded_mask(toks);
    let mut fns = find_fns(toks, mask, &lexed.hots);
    let owner = owner_map(toks.len(), &fns);
    let loops = loop_spans(toks, &owner);

    for (i, tok) in toks.iter().enumerate() {
        let Some(f) = owner[i] else { continue };
        match &tok.kind {
            TokKind::Ident(name) => {
                scan_ident_site(toks, i, name, &guarded, &loops, &owner, &mut fns[f]);
            }
            TokKind::Punct('[') => {
                if let Some(what) = index_receiver(toks, i) {
                    fns[f].panics.push(PanicSite {
                        kind: PanicKind::Index,
                        line: tok.line,
                        what,
                        guarded: guarded[i],
                    });
                }
            }
            TokKind::Punct('.') => {
                // `.field` access (not a method call) → field reference.
                if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                    if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                        let refs = &mut fns[f].field_refs;
                        if !refs.iter().any(|r| r == name) {
                            refs.push(name.to_string());
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Attach dataflow IR, impl types, local types, and guard live ranges.
    let impls = impl_spans(toks);
    let file_hash = crate::dataflow::file_hash_idents(toks);
    for f in fns.iter_mut() {
        f.flow = crate::dataflow::extract_flow(toks, &f.sig, &f.body, &file_hash);
        f.self_type = impls
            .iter()
            .find(|(_, r)| r.contains(&f.body.start))
            .map(|(t, _)| t.clone());
        f.local_types = local_types(toks, &f.sig, &f.body);
        f.guards = guard_regions(toks, f);
    }

    FileModel {
        path: path.to_string(),
        krate: crate_key(path).unwrap_or_default(),
        fns,
        imports: find_imports(toks),
        fields: find_fields(toks),
        type_defs: find_type_defs(toks, &impls),
    }
}

/// Classifies one identifier token inside a function body.
#[allow(clippy::too_many_arguments)]
fn scan_ident_site(
    toks: &[Tok],
    i: usize,
    name: &str,
    guarded: &[bool],
    loops: &[Range<usize>],
    owner: &[Option<usize>],
    f: &mut FnDef,
) {
    let line = toks[i].line;
    let in_loop = |idx: usize| {
        loops
            .iter()
            .any(|l| l.contains(&idx) && owner[l.start] == owner[idx])
    };

    // Panic macros.
    if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
        f.panics.push(PanicSite {
            kind: PanicKind::PanicMacro,
            line,
            what: name.to_string(),
            guarded: guarded[i],
        });
        return;
    }
    // `format!` inside a loop (L9).
    if name == "format" && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) && in_loop(i) {
        f.allocs_in_loops.push(AllocSite {
            what: "format!".to_string(),
            line,
        });
        return;
    }
    // Method-position checks: `. name (`.
    let is_method = i >= 1
        && toks[i - 1].is_punct('.')
        && (toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            || has_turbofish_call(toks, i).is_some());
    if is_method {
        match name {
            "unwrap" | "expect" => {
                f.panics.push(PanicSite {
                    kind: if name == "unwrap" {
                        PanicKind::Unwrap
                    } else {
                        PanicKind::Expect
                    },
                    line,
                    what: name.to_string(),
                    guarded: guarded[i],
                });
                return;
            }
            "lock" | "read" | "write" => {
                if let Some((target, via_method)) = lock_receiver(toks, i - 1) {
                    f.locks.push(LockSite {
                        target,
                        via_method,
                        method: name.to_string(),
                        line,
                        tok: i,
                    });
                }
                // A `.lock()` is also a call site (falls through below) so
                // unresolved-call accounting stays honest.
            }
            "push" | "collect" | "to_vec" | "clone" if in_loop(i) => {
                f.allocs_in_loops.push(AllocSite {
                    what: name.to_string(),
                    line,
                });
            }
            _ => {}
        }
    }
    // Call site: `name (` or `name::<T>(`, excluding definitions, macros,
    // and keywords.
    let followed_by_call =
        toks.get(i + 1).is_some_and(|t| t.is_punct('(')) || has_turbofish_call(toks, i).is_some();
    let is_def = i >= 1 && toks[i - 1].is_ident("fn");
    let is_macro = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
    if followed_by_call && !is_def && !is_macro && !NON_CALL_KEYWORDS.contains(&name) {
        // Record the receiver only when it is a direct identifier
        // (`x.name(..)`); chained receivers (`a.b().name(..)`) stay `None`.
        let recv = (is_method && i >= 2)
            .then(|| toks[i - 2].ident().map(String::from))
            .flatten();
        f.calls.push(CallSite {
            callee: name.to_string(),
            line,
            tok: i,
            guarded: guarded[i],
            recv,
        });
    }
}

/// If `toks[i]` is followed by a turbofish call — `::<…>(` — returns the
/// index of the `(`.
fn has_turbofish_call(toks: &[Tok], i: usize) -> Option<usize> {
    if !(toks.get(i + 1)?.is_punct(':') && toks.get(i + 2)?.is_punct(':')) {
        return None;
    }
    if !toks.get(i + 3)?.is_punct('<') {
        return None;
    }
    let mut depth = 1i32;
    let mut j = i + 4;
    while j < toks.len() && depth > 0 && j < i + 64 {
        match &toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    (depth == 0 && toks.get(j).is_some_and(|t| t.is_punct('('))).then_some(j)
}

/// Walks back from the `.` preceding `lock`/`read`/`write` to the receiver
/// identifier, skipping one trailing index (`[..]`) or call (`(..)`) group.
/// Returns `(identifier, receiver_is_a_method_call)`.
fn lock_receiver(toks: &[Tok], dot: usize) -> Option<(String, bool)> {
    let mut k = dot.checked_sub(1)?;
    let mut via_method = false;
    loop {
        match &toks[k].kind {
            TokKind::Punct(']') => {
                k = skip_group_back(toks, k, '[', ']')?;
            }
            TokKind::Punct(')') => {
                via_method = true;
                k = skip_group_back(toks, k, '(', ')')?;
            }
            TokKind::Ident(name) => return Some((name.clone(), via_method)),
            _ => return None,
        }
    }
}

/// From a closing delimiter at `close`, returns the index just before its
/// matching opener.
fn skip_group_back(toks: &[Tok], close: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 1i32;
    let mut k = close.checked_sub(1)?;
    loop {
        if toks[k].is_punct(close_c) {
            depth += 1;
        } else if toks[k].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return k.checked_sub(1);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// Whether `[` at `i` opens an *index expression* (receiver is a value)
/// rather than a type, attribute, array literal, or pattern. Returns the
/// receiver identifier.
fn index_receiver(toks: &[Tok], i: usize) -> Option<String> {
    let prev = toks.get(i.checked_sub(1)?)?;
    match &prev.kind {
        TokKind::Ident(name) => {
            if NON_CALL_KEYWORDS.contains(&name.as_str()) || name == "mut" || name == "ref" {
                None
            } else {
                Some(name.clone())
            }
        }
        // `foo()[0]` / `x[0][1]` — receiver is an expression; name it after
        // the nearest preceding identifier for the message.
        TokKind::Punct(')') | TokKind::Punct(']') => {
            let start = skip_group_back(toks, i - 1, opener(prev), closer(prev))?;
            toks.get(start).and_then(|t| t.ident().map(String::from))
        }
        _ => None,
    }
}

fn opener(t: &Tok) -> char {
    if t.is_punct(']') {
        '['
    } else {
        '('
    }
}

fn closer(t: &Tok) -> char {
    if t.is_punct(']') {
        ']'
    } else {
        ')'
    }
}

/// Marks tokens inside any `catch_unwind(..)` argument list.
fn guarded_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    for i in 0..toks.len() {
        if !toks[i].is_ident("catch_unwind") || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            mask[j] = true;
            j += 1;
        }
    }
    mask
}

/// Finds every `fn` definition with its body span, test flag, and hot flag.
fn find_fns(toks: &[Tok], mask: &[bool], hots: &[u32]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        // Body: first `{` after the signature (a `;` first means a
        // declaration without a body).
        let mut j = i + 2;
        let mut body = 0..0;
        while j < toks.len() {
            if toks[j].is_punct(';') {
                break;
            }
            if toks[j].is_punct('{') {
                let mut depth = 0i32;
                let open = j;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        depth += 1;
                    } else if toks[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                body = open..(j + 1).min(toks.len());
                break;
            }
            j += 1;
        }
        let sig = if body.is_empty() {
            0..0
        } else {
            (i + 2).min(body.start)..body.start
        };
        let end_line = if body.is_empty() {
            toks[i].line
        } else {
            toks[body.end - 1].line
        };
        fns.push(FnDef {
            name: name.to_string(),
            line: toks[i].line,
            end_line,
            body,
            sig,
            in_test: mask.get(i).copied().unwrap_or(false),
            hot: false,
            flow: crate::dataflow::FnFlow::default(),
            calls: Vec::new(),
            panics: Vec::new(),
            locks: Vec::new(),
            allocs_in_loops: Vec::new(),
            field_refs: Vec::new(),
            guards: Vec::new(),
            self_type: None,
            local_types: Vec::new(),
        });
    }
    // Each hot marker attaches to the first fn at or below its line.
    for &h in hots {
        if let Some(f) = fns
            .iter_mut()
            .filter(|f| f.line >= h)
            .min_by_key(|f| f.line)
        {
            f.hot = true;
        }
    }
    fns
}

/// Maps each token index to the *innermost* enclosing function.
fn owner_map(len: usize, fns: &[FnDef]) -> Vec<Option<usize>> {
    let mut owner = vec![None; len];
    // Source order: nested fns come later and overwrite their outer fn.
    for (fi, f) in fns.iter().enumerate() {
        for slot in owner[f.body.start..f.body.end.min(len)].iter_mut() {
            *slot = Some(fi);
        }
    }
    owner
}

/// Token spans of loop bodies (`for`/`while`/`loop` … `{ … }`), braces
/// included (L9's "inside a loop").
fn loop_spans(toks: &[Tok], owner: &[Option<usize>]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if owner[i].is_none() {
            continue;
        }
        let Some(kw) = toks[i].ident() else { continue };
        if kw != "for" && kw != "while" && kw != "loop" {
            continue;
        }
        // `for<'a>` is a higher-ranked trait bound, not a loop.
        if kw == "for" && toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        // Find the body's opening brace, then its balanced close.
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let open = j;
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if open < toks.len() {
            spans.push(open..(j + 1).min(toks.len()));
        }
    }
    spans
}

/// Workspace crates imported with `use ultra_<k>::…` / `use ultrawiki::…`.
fn find_imports(toks: &[Tok]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("use") {
            continue;
        }
        let Some(first) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        let key = if first == "ultrawiki" {
            Some("ultrawiki".to_string())
        } else {
            first.strip_prefix("ultra_").map(String::from)
        };
        if let Some(key) = key {
            if !out.contains(&key) {
                out.push(key);
            }
        }
    }
    out.sort();
    out
}

/// Every named field of every `struct` in the file: its name, the first
/// identifier of its type, and its lock kind (see [`Field`]).
fn find_fields(toks: &[Tok]) -> Vec<Field> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        // Find the field block `{ … }`; a `;` or `(` first means a unit or
        // tuple struct (no named fields).
        let mut j = i + 1;
        while j < toks.len()
            && !toks[j].is_punct('{')
            && !toks[j].is_punct(';')
            && !toks[j].is_punct('(')
        {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i = j.max(i + 1);
            continue;
        }
        let mut depth = 1i32;
        let mut k = j + 1;
        while k < toks.len() && depth > 0 {
            match &toks[k].kind {
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                // `name :` (not `::`) at depth 1 opens a field.
                TokKind::Ident(id)
                    if depth == 1
                        && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        && !toks.get(k + 2).is_some_and(|t| t.is_punct(':')) =>
                {
                    let mut field = Field {
                        name: id.clone(),
                        ty: first_type_ident(toks, k + 2),
                        lock: None,
                    };
                    // Walk the type to the field's end (top-level comma or
                    // the struct's closing brace). `<`/`>` are plain
                    // puncts, so `Mutex` inside generics still sits at the
                    // top level.
                    let mut d2 = 0i32;
                    k += 2;
                    while k < toks.len() {
                        match &toks[k].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                d2 += 1
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') => d2 -= 1,
                            TokKind::Punct('}') => {
                                if d2 == 0 {
                                    depth -= 1;
                                    break;
                                }
                                d2 -= 1;
                            }
                            TokKind::Punct(',') if d2 == 0 => break,
                            TokKind::Ident(t) if d2 == 0 && field.lock.is_none() => {
                                field.lock = match t.as_str() {
                                    "Mutex" => Some(LockKind::Mutex),
                                    "RwLock" => Some(LockKind::RwLock),
                                    _ => None,
                                };
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    out.push(field);
                }
                _ => {}
            }
            k += 1;
        }
        i = k;
    }
    out
}

/// First type identifier at or after `i`: `&`, `*`, `mut`, `dyn` and
/// lifetimes skipped, a path followed to its last segment (`std::sync::Mutex`
/// → `Mutex`).
fn first_type_ident(toks: &[Tok], mut i: usize) -> Option<String> {
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('&') | TokKind::Punct('*') => i += 1,
            TokKind::Lifetime => i += 1,
            TokKind::Ident(id) if id == "mut" || id == "dyn" => i += 1,
            TokKind::Ident(id) => {
                // Follow `A::B::C` chains to the last segment.
                let mut last = id.clone();
                let mut j = i + 1;
                while toks.get(j).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                {
                    if let Some(seg) = toks.get(j + 2).and_then(|t| t.ident()) {
                        last = seg.to_string();
                        j += 3;
                    } else {
                        break;
                    }
                }
                return Some(last);
            }
            _ => return None,
        }
    }
    None
}

/// `impl` block target types with their body token spans. Handles
/// `impl<..> Type`, `impl Trait for Type`, and path-qualified targets; the
/// recorded name is the last path segment at angle-depth 0.
fn impl_spans(toks: &[Tok]) -> Vec<(String, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut name: Option<String> = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct('{') if angle <= 0 => break,
                TokKind::Punct(';') => break, // `impl Trait` in return pos etc.
                TokKind::Ident(id) if angle == 0 => {
                    if id == "for" {
                        name = None; // trait impl: the target follows `for`
                    } else if id == "where" {
                        // where-clause: stop collecting names.
                        while j < toks.len() && !toks[j].is_punct('{') {
                            j += 1;
                        }
                        continue;
                    } else if id != "mut" && id != "dyn" {
                        name = Some(id.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i = j.max(i + 1);
            continue;
        }
        // Balanced body span.
        let open = j;
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if let Some(name) = name {
            out.push((name, open..(j + 1).min(toks.len())));
        }
        i = j.max(i + 1);
    }
    out
}

/// Type names the file defines: `struct`/`enum` declarations plus `impl`
/// targets, sorted and deduplicated. Receiver resolution treats these as
/// "workspace types" (a typed call that misses every impl stays
/// unresolved) and everything else as foreign (`Vec`, `HashMap`, …).
fn find_type_defs(toks: &[Tok], impls: &[(String, Range<usize>)]) -> Vec<String> {
    let mut out: Vec<String> = impls.iter().map(|(n, _)| n.clone()).collect();
    for i in 0..toks.len() {
        if toks[i].is_ident("struct") || toks[i].is_ident("enum") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                out.push(name.to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Syntactically recoverable local types of one function: typed params
/// (`x: Type`), `let` ascriptions (`let x: Type`), and constructor bindings
/// (`let x = path::Type::ctor(..)` — the second-to-last path segment when
/// it is capitalized). First binding of a name wins.
fn local_types(toks: &[Tok], sig: &Range<usize>, body: &Range<usize>) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let put = |name: String, ty: String, out: &mut Vec<(String, String)>| {
        if !out.iter().any(|(n, _)| *n == name) {
            out.push((name, ty));
        }
    };
    // Params: `name :` at paren depth 1 of the signature.
    let mut depth = 0i32;
    for i in sig.clone() {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Ident(id)
                if depth == 1
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && id != "mut"
                    && id != "ref" =>
            {
                if let Some(ty) = first_type_ident(toks, i + 2) {
                    put(id.clone(), ty, &mut out);
                }
            }
            _ => {}
        }
    }
    // `let` bindings in the body.
    let mut i = body.start;
    while i < body.end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while toks
            .get(j)
            .is_some_and(|t| t.is_ident("mut") || t.is_ident("ref"))
        {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(|t| t.ident().map(String::from)) else {
            i += 1;
            continue;
        };
        // `let x : Type = …`.
        if toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(ty) = first_type_ident(toks, j + 2) {
                put(name, ty, &mut out);
            }
            i = j + 2;
            continue;
        }
        // `let x = [path::]Type::ctor(` — the capitalized segment before the
        // final `::ctor(` names the type.
        if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            let mut k = j + 2;
            let mut prev: Option<String> = None;
            while let Some(id) = toks.get(k).and_then(|t| t.ident()) {
                let sep = toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct(':'));
                if sep {
                    prev = Some(id.to_string());
                    k += 3;
                    continue;
                }
                if toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                    if let Some(ty) = prev {
                        if ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                            put(name, ty, &mut out);
                        }
                    }
                }
                break;
            }
        }
        i = j + 1;
    }
    out
}

/// Adapter methods that unwrap a lock `Result` without ending the guard's
/// life (`m.lock().unwrap_or_else(PoisonError::into_inner)` still yields
/// the guard).
const GUARD_ADAPTERS: [&str; 5] = [
    "unwrap",
    "expect",
    "unwrap_or_else",
    "unwrap_or_default",
    "unwrap_or",
];

/// From an opening delimiter at `open`, returns the index of its balanced
/// close (or `toks.len()` when unbalanced).
fn skip_group_fwd(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct(open_c) {
            depth += 1;
        } else if toks[j].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Index just past the acquisition expression: the lock call's argument
/// list, a trailing `?`, and any `unwrap*` adapter chain.
fn adapter_chain_end(toks: &[Tok], lock_tok: usize) -> usize {
    let mut j = lock_tok + 1;
    // Turbofish between the name and `(`.
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        while j < toks.len() && !toks[j].is_punct('(') && j < lock_tok + 64 {
            j += 1;
        }
    }
    if toks.get(j).is_some_and(|t| t.is_punct('(')) {
        j = skip_group_fwd(toks, j, '(', ')') + 1;
    }
    loop {
        if toks.get(j).is_some_and(|t| t.is_punct('?')) {
            j += 1;
            continue;
        }
        let is_adapter = toks.get(j).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(j + 1)
                .and_then(|t| t.ident())
                .is_some_and(|id| GUARD_ADAPTERS.contains(&id))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('));
        if !is_adapter {
            return j;
        }
        j = skip_group_fwd(toks, j + 2, '(', ')') + 1;
    }
}

/// Computes the live range of every lock acquisition in one function. See
/// [`GuardRegion`] for the range rules; validity (is the receiver actually
/// a `Mutex`/`RwLock`?) is decided later by `crate::guards` with crate-wide
/// context, so this records every candidate.
fn guard_regions(toks: &[Tok], f: &FnDef) -> Vec<GuardRegion> {
    let mut out = Vec::new();
    for ls in &f.locks {
        let chain_end = adapter_chain_end(toks, ls.tok).min(f.body.end);
        // Statement start: walk back to the nearest top-level `;`, `{`, or
        // group opener.
        let mut b = ls.tok;
        let mut depth = 0i32;
        while b > f.body.start {
            b -= 1;
            match &toks[b].kind {
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth += 1,
                TokKind::Punct('(') | TokKind::Punct('[') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                TokKind::Punct('{') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
        }
        let head = b + 1;
        let nested_in_group = depth < 0;
        let let_pos = (!nested_in_group)
            .then(|| {
                let mut d = 0i32;
                (head..ls.tok).find(|&k| {
                    match &toks[k].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                        _ => {}
                    }
                    d == 0 && toks[k].is_ident("let")
                })
            })
            .flatten();
        let conditional = let_pos.is_some_and(|lp| {
            (head..lp).any(|k| toks[k].is_ident("if") || toks[k].is_ident("while"))
        });
        let binding = let_pos.and_then(|lp| {
            // Last pattern identifier before the `=` (skipping mut/ref and
            // constructor-ish segments: `Ok(mut g)` → `g`).
            let mut d = 0i32;
            let mut last = None;
            for t in toks.iter().take(ls.tok).skip(lp + 1) {
                match &t.kind {
                    TokKind::Punct('=') if d == 0 => break,
                    TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
                    TokKind::Ident(id) if id != "mut" && id != "ref" => {
                        last = Some(id.clone());
                    }
                    _ => {}
                }
            }
            last
        });

        let span = if conditional && toks.get(chain_end).is_some_and(|t| t.is_punct('{')) {
            // `if let`/`while let` guard: live for the conditional's body.
            let close = skip_group_fwd(toks, chain_end, '{', '}');
            chain_end + 1..close.min(f.body.end)
        } else if let_pos.is_some()
            && !conditional
            && toks.get(chain_end).is_some_and(|t| t.is_punct(';'))
        {
            // Plain let-bound guard: rest of the enclosing block, truncated
            // at an explicit `drop(binding)`.
            let mut d = 0i32;
            let mut end = f.body.end.saturating_sub(1);
            let mut j = chain_end + 1;
            while j < f.body.end {
                match &toks[j].kind {
                    TokKind::Punct('{') => d += 1,
                    TokKind::Punct('}') => {
                        if d == 0 {
                            end = j;
                            break;
                        }
                        d -= 1;
                    }
                    TokKind::Ident(id) if id == "drop" => {
                        let dropped = toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                            && toks.get(j + 2).and_then(|t| t.ident()) == binding.as_deref()
                            && toks.get(j + 3).is_some_and(|t| t.is_punct(')'));
                        if dropped && binding.is_some() {
                            end = j;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            chain_end + 1..end
        } else {
            // Temporary guard (match scrutinee, mid-chain lock): rest of
            // the statement — through a trailing brace group (match arms)
            // or up to the `;`/block close.
            let mut d = 0i32;
            let mut end = chain_end;
            let mut j = chain_end;
            while j < f.body.end {
                match &toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => {
                        d -= 1;
                        if d < 0 {
                            end = j;
                            break;
                        }
                    }
                    TokKind::Punct('{') if d == 0 => {
                        // A statement-level brace group (match arms / if
                        // body using the temporary): the temp lives through
                        // it, then dies.
                        end = skip_group_fwd(toks, j, '{', '}') + 1;
                        break;
                    }
                    TokKind::Punct('{') => d += 1,
                    TokKind::Punct('}') => {
                        if d == 0 {
                            end = j;
                            break;
                        }
                        d -= 1;
                    }
                    TokKind::Punct(';') if d <= 0 => {
                        end = j;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            chain_end..end.min(f.body.end)
        };
        let span = span.start.min(f.body.end)..span.end.min(f.body.end);
        let end_line = if span.end > span.start {
            toks[span.end - 1].line
        } else {
            ls.line
        };
        out.push(GuardRegion {
            target: ls.target.clone(),
            via_method: ls.via_method,
            method: ls.method.clone(),
            binding: if let_pos.is_some() && !nested_in_group {
                binding
            } else {
                None
            },
            line: ls.line,
            span,
            end_line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_code_mask};

    fn model(path: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let mask = test_code_mask(&lexed.tokens);
        build(path, &lexed, &mask)
    }

    fn serve(src: &str) -> FileModel {
        model("crates/serve/src/server.rs", src)
    }

    #[test]
    fn fns_get_names_lines_and_bodies() {
        let m = serve("fn a() { one(); }\n\npub fn b(x: u32) -> u32 { two(x) }\n#[cfg(test)]\nmod t { fn c() {} }");
        let names: Vec<(&str, u32, bool)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.line, f.in_test))
            .collect();
        assert_eq!(
            names,
            vec![("a", 1, false), ("b", 3, false), ("c", 5, true)]
        );
        assert_eq!(m.fns[0].calls.len(), 1);
        assert_eq!(m.fns[0].calls[0].callee, "one");
        assert_eq!(m.fns[1].calls[0].callee, "two");
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let m = serve("fn outer() {\n  fn inner() { deep(); }\n  shallow();\n}");
        let outer = &m.fns[0];
        let inner = &m.fns[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "inner");
        assert_eq!(
            inner
                .calls
                .iter()
                .map(|c| c.callee.as_str())
                .collect::<Vec<_>>(),
            vec!["deep"]
        );
        assert_eq!(
            outer
                .calls
                .iter()
                .map(|c| c.callee.as_str())
                .collect::<Vec<_>>(),
            vec!["shallow"]
        );
    }

    #[test]
    fn turbofish_calls_are_detected() {
        let m = serve("fn f() { let v = it.collect::<Vec<u32>>(); parse::<u64>(s); }");
        let callees: Vec<&str> = m.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"collect"));
        assert!(callees.contains(&"parse"));
    }

    #[test]
    fn panic_sites_cover_unwrap_expect_macros_and_indexing() {
        let src = "fn f(x: Option<u32>, v: &[u32]) -> u32 {\n  let a = x.unwrap();\n  let b = x.expect(\"m\");\n  if a > b { panic!(\"no\"); }\n  v[0] + foo()[1]\n}";
        let m = serve(src);
        let kinds: Vec<(PanicKind, u32)> =
            m.fns[0].panics.iter().map(|p| (p.kind, p.line)).collect();
        assert_eq!(
            kinds,
            vec![
                (PanicKind::Unwrap, 2),
                (PanicKind::Expect, 3),
                (PanicKind::PanicMacro, 4),
                (PanicKind::Index, 5),
                (PanicKind::Index, 5),
            ]
        );
    }

    #[test]
    fn types_patterns_attributes_and_literals_are_not_index_sites() {
        let src = "#[derive(Debug)]\nfn f(buf: &[u8], n: [u8; 2]) -> Vec<u8> {\n  let [a, b] = n;\n  let arr = [0u8; 4];\n  let v: Vec<[f32; 2]> = Vec::new();\n  (a + b) as u8;\n  arr.to_vec()\n}";
        let m = serve(src);
        assert!(
            m.fns[0].panics.iter().all(|p| p.kind != PanicKind::Index),
            "{:?}",
            m.fns[0].panics
        );
    }

    #[test]
    fn catch_unwind_guards_calls_and_panics_inside_it() {
        let src =
            "fn f() {\n  let r = std::panic::catch_unwind(|| { inner().unwrap() });\n  outer();\n}";
        let m = serve(src);
        let f = &m.fns[0];
        let inner = f.calls.iter().find(|c| c.callee == "inner").unwrap();
        assert!(inner.guarded);
        let outer = f.calls.iter().find(|c| c.callee == "outer").unwrap();
        assert!(!outer.guarded);
        assert!(
            f.panics.iter().all(|p| p.guarded),
            "unwrap inside the guard"
        );
    }

    #[test]
    fn lock_fields_and_direct_acquisitions_are_extracted() {
        let src = "struct S { queue: Mutex<Vec<u32>>, shards: Vec<Mutex<u32>>, state: RwLock<u32>, plain: u32 }\nimpl S {\n  fn f(&self) {\n    let a = self.queue.lock();\n    let b = self.shards[0].lock();\n    let c = self.state.read();\n    stream.read(&mut buf);\n  }\n}";
        let m = serve(src);
        let fields: Vec<(&str, Option<&str>, Option<LockKind>)> = m
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_deref(), f.lock))
            .collect();
        assert_eq!(
            fields,
            vec![
                ("queue", Some("Mutex"), Some(LockKind::Mutex)),
                ("shards", Some("Vec"), Some(LockKind::Mutex)),
                ("state", Some("RwLock"), Some(LockKind::RwLock)),
                ("plain", Some("u32"), None),
            ]
        );
        let locks: Vec<(&str, &str, bool)> = m.fns[0]
            .locks
            .iter()
            .map(|l| (l.target.as_str(), l.method.as_str(), l.via_method))
            .collect();
        assert_eq!(
            locks,
            vec![
                ("queue", "lock", false),
                ("shards", "lock", false),
                ("state", "read", false),
                ("stream", "read", false), // filtered later: not a lock field
            ]
        );
    }

    #[test]
    fn lock_through_a_helper_method_records_the_method() {
        let m = serve("impl S {\n  fn shard(&self) -> &Mutex<u32> { &self.shards[0] }\n  fn get(&self) { self.shard().lock(); }\n}");
        let get = m.fns.iter().find(|f| f.name == "get").unwrap();
        assert_eq!(get.locks.len(), 1);
        assert_eq!(get.locks[0].target, "shard");
        assert!(get.locks[0].via_method);
        let shard = m.fns.iter().find(|f| f.name == "shard").unwrap();
        assert!(shard.field_refs.iter().any(|r| r == "shards"));
    }

    #[test]
    fn hot_markers_attach_to_the_next_fn_and_allocs_in_loops_are_found() {
        let src = "// ultra-lint: hot\nfn kernel(v: &[u32]) -> Vec<u32> {\n  let mut out = Vec::with_capacity(v.len());\n  for x in v {\n    out.push(*x);\n    let s = format!(\"{x}\");\n  }\n  out.clone()\n}\nfn cold(v: &[u32]) { for x in v { sink.push(*x); } }";
        let m = model("crates/nn/src/k.rs", src);
        let kernel = &m.fns[0];
        assert!(kernel.hot);
        let allocs: Vec<(&str, u32)> = kernel
            .allocs_in_loops
            .iter()
            .map(|a| (a.what.as_str(), a.line))
            .collect();
        assert_eq!(
            allocs,
            vec![("push", 5), ("format!", 6)],
            "clone outside the loop not flagged"
        );
        let cold = &m.fns[1];
        assert!(!cold.hot);
        assert_eq!(
            cold.allocs_in_loops.len(),
            1,
            "collected but inert unless hot"
        );
    }

    #[test]
    fn while_let_and_bare_loop_bodies_count_as_loops() {
        let src = "// ultra-lint: hot\nfn f(mut it: I) {\n  while let Some(x) = it.next() { buf.push(x); }\n  loop { buf2.push(1); break; }\n}";
        let m = serve(src);
        assert_eq!(m.fns[0].allocs_in_loops.len(), 2);
    }

    #[test]
    fn imports_map_workspace_crates() {
        let src = "use ultra_core::Query;\nuse ultra_par::Pool;\nuse std::sync::Arc;\nuse ultrawiki::prelude::*;\nfn f() {}";
        let m = serve(src);
        assert_eq!(m.imports, vec!["core", "par", "ultrawiki"]);
        assert_eq!(m.krate, "serve");
        assert_eq!(crate_key("src/lib.rs").as_deref(), Some("ultrawiki"));
        assert_eq!(crate_key("tests/x.rs"), None);
    }
}
