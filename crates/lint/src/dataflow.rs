//! Determinism-taint dataflow: the machinery behind **L2
//! `no-hash-iteration-order`**, **L10 `no-tainted-ranking`**, **L11
//! `seeded-rng-only`**, and **L12 `ordered-float-reduction`**.
//!
//! The pass works in two layers:
//!
//! 1. **Extraction** ([`extract_flow`], run by [`crate::parser::build`])
//!    lowers each function body to a statement-level IR: `let` bindings,
//!    assignments, loop heads, returns, and the trailing tail expression,
//!    each carrying the identifiers it reads and the calls it makes
//!    (receiver, `Path::` qualifier, turbofish types, and arguments,
//!    recursively). Braces that open control blocks (`for`/`while`/`if`/
//!    `match`/…, labelled loops, match-arm blocks) segment statements and
//!    maintain a loop stack; braces that
//!    appear in expression position (struct literals, `let x = if … {…}
//!    else {…}`, closure bodies) are absorbed into the enclosing statement,
//!    which gives branchy expressions *union* semantics — taint from any
//!    branch taints the binding.
//!
//! 2. **Evaluation** (`check_taint`, run by [`crate::check_sources`])
//!    interprets the IR per function over an abstract state mapping locals
//!    to taint values, and iterates function *summaries* (returned taint,
//!    param→return flows, param→sink flows) to a fixpoint over the
//!    [`crate::callgraph`] resolution so taint crosses call boundaries in
//!    both directions. Two taint kinds are tracked separately:
//!
//!    * **order** — the value depends on an unordered iteration
//!      (`HashMap`/`HashSet` layout). Killed by sanitizers: the `sort*`
//!      family, `ultra-par`'s `*_ordered` APIs, collecting into a
//!      `BTreeMap`/`BTreeSet`, and order-insensitive observers (`len`,
//!      `contains`, `max_by_key`, integer `sum::<u64>()`, …).
//!    * **value** — the value embeds an environmental observation
//!      (wall-clock, thread id, OS entropy, `env::var`, pointer address).
//!      Nothing sanitizes it; only a waiver can.
//!
//!    When either kind reaches a determinism sink — `RankedList`
//!    construction, a serve response body, a dataset export, loss-curve
//!    accumulation — L10 fires with the source site and the full
//!    source→sink call chain, exactly like L7 prints panic chains.
//!
//! L2 reads the same IR without evaluating it: in ranked-output crates,
//! every hash-ordered iteration site (the order sources above) is a
//! finding wherever it occurs, sink or not.
//!
//! Everything is heuristic: locals are tracked by name, fields are not
//! tracked, and unresolved calls pass taint through from receiver and
//! arguments (erring toward reporting; the observer sanitizers keep that
//! over-approximation from drowning the signal).

use crate::callgraph::{FnId, Graph};
use crate::lexer::{Tok, TokKind};
use crate::parser::{FileModel, FnDef, NON_CALL_KEYWORDS};
use crate::rules::{ChainFrame, Diagnostic, Rule, TaintOrigin};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

// ---------------------------------------------------------------------------
// IR
// ---------------------------------------------------------------------------

/// Statement-level dataflow IR of one function body.
#[derive(Clone, Debug, Default)]
pub struct FnFlow {
    /// Parameters, in declaration order.
    pub params: Vec<Param>,
    /// Statements, in source order (control-block bodies inlined).
    pub stmts: Vec<Stmt>,
    /// Identifiers bound to `HashMap`/`HashSet` values: hash-typed params
    /// plus every file-wide hash binding (locals and struct fields, by
    /// name).
    pub hash_locals: BTreeSet<String>,
    /// Identifiers bound to float values: `f32`/`f64` params plus `let`
    /// bindings whose initialiser mentions a float literal or type.
    pub float_locals: BTreeSet<String>,
}

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (first identifier of the pattern).
    pub name: String,
    /// Type mentions `HashMap`/`HashSet`.
    pub is_hash: bool,
    /// Type mentions `f32`/`f64`.
    pub is_float: bool,
}

/// What a statement does with its expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// `let PAT = EXPR;` (also `if let` / `while let` heads).
    Let,
    /// `LHS = EXPR;` / `LHS op= EXPR;`.
    Assign,
    /// `for PAT in EXPR {` head.
    For,
    /// `return EXPR;`.
    Return,
    /// The function's trailing tail expression.
    Tail,
    /// Anything else (conditions, bare calls, match heads).
    Plain,
}

/// One lowered statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// 1-based line of the statement's first token.
    pub line: u32,
    /// Statement role.
    pub kind: StmtKind,
    /// Identifiers the statement binds or assigns.
    pub bound: Vec<String>,
    /// The evaluated expression (right-hand side for `Let`/`Assign`).
    pub expr: Expr,
    /// A float `+=`/`-=`/`*=`//=` (or `x = x.max(..)`/`.min(..)`)
    /// accumulation — L12's trigger when inside a hash-ordered loop.
    pub compound_float_op: bool,
    /// Line of the innermost enclosing `for` over a hash-ordered
    /// collection, if any.
    pub hash_loop: Option<u32>,
    /// `let` with a `BTreeMap`/`BTreeSet` type ascription — sanitizes
    /// order-taint like a `collect::<BTreeMap<…>>()` turbofish.
    pub btree_let: bool,
}

/// A flattened expression: the identifiers it reads and the calls it makes.
#[derive(Clone, Debug, Default)]
pub struct Expr {
    /// Non-call identifiers, in source order.
    pub idents: Vec<String>,
    /// Calls, in source order.
    pub calls: Vec<Call>,
    /// `for` loops nested in the expression (a closure body, or a block the
    /// statement absorbed): each head's line and iterable.
    pub fors: Vec<(u32, Expr)>,
}

/// One call inside an expression.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// Path segment before `::name(`, if any (`RankedList`, `env`, …).
    pub qualifier: Option<String>,
    /// Identifier before `.name(`, if any (method receiver).
    pub receiver: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// Identifiers inside a `::<…>` turbofish.
    pub turbofish: Vec<String>,
    /// Argument expressions.
    pub args: Vec<Expr>,
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Brace-introducing keywords that segment statements (besides match-arm
/// blocks, everything else in brace position is an expression brace and is
/// absorbed).
const CONTROL_KEYWORDS: [&str; 7] = ["for", "while", "loop", "if", "else", "match", "unsafe"];

/// File-wide identifiers bound to `HashMap`/`HashSet`: type ascriptions
/// (`x: HashMap<…>`, struct fields and params included) and constructor
/// bindings (`let x = HashMap::new()`). Tracking is by name, so a hash
/// binding anywhere in the file taints same-named locals everywhere — an
/// over-approximation that [`extract_flow`] narrows per function, where a
/// parameter's declared type shadows the file-wide name.
pub fn file_hash_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        let mut start = i;
        while start >= 3
            && toks[start - 1].is_punct(':')
            && toks[start - 2].is_punct(':')
            && toks[start - 3].ident().is_some()
        {
            start -= 3;
        }
        // Skip reference/mutability/lifetime tokens between the `:` and the
        // path (`m: &mut HashMap<…>`, `m: &'a HashMap<…>`).
        let mut j = start;
        while j >= 1
            && (toks[j - 1].is_punct('&')
                || toks[j - 1].is_ident("mut")
                || matches!(toks[j - 1].kind, TokKind::Lifetime))
        {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].is_punct(':') && !toks[j - 2].is_punct(':') {
            if let Some(id) = toks[j - 2].ident() {
                out.insert(id.to_string());
            }
        }
        if start >= 1 && toks[start - 1].is_punct('=') {
            for back in 2..=6usize {
                let Some(j) = start.checked_sub(back) else {
                    break;
                };
                if toks[j].is_punct(';') || toks[j].is_punct('{') {
                    break;
                }
                if toks[j].is_ident("let") {
                    let mut k = j + 1;
                    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                        k += 1;
                    }
                    if let Some(id) = toks.get(k).and_then(|t| t.ident()) {
                        out.insert(id.to_string());
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Lowers one function (signature + body token ranges) to [`FnFlow`].
pub fn extract_flow(
    toks: &[Tok],
    sig: &Range<usize>,
    body: &Range<usize>,
    file_hash: &BTreeSet<String>,
) -> FnFlow {
    let mut flow = FnFlow {
        params: parse_params(toks, sig),
        ..FnFlow::default()
    };
    flow.hash_locals.extend(file_hash.iter().cloned());
    // A parameter's declared type shadows any same-named file-wide binding:
    // `weights: &BTreeMap<…>` here is not hash-ordered even if another
    // function takes `weights: &HashMap<…>`.
    for p in &flow.params {
        if p.is_hash {
            flow.hash_locals.insert(p.name.clone());
        } else {
            flow.hash_locals.remove(&p.name);
        }
        if p.is_float {
            flow.float_locals.insert(p.name.clone());
        }
    }
    if body.is_empty() {
        return flow;
    }

    // One frame per open control block: the hash-`for` line, if the block
    // is a `for` over a hash-ordered collection (L12).
    let mut loop_stack: Vec<Option<u32>> = Vec::new();
    let mut seg: Vec<usize> = Vec::new();
    let mut depth = 0i32; // paren/bracket depth within the current segment
    let mut i = body.start + 1;
    let end = body.end.saturating_sub(1);
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => {
                depth += 1;
                seg.push(i);
            }
            TokKind::Punct(')') | TokKind::Punct(']') => {
                depth -= 1;
                seg.push(i);
            }
            TokKind::Punct(';') if depth == 0 => {
                flush_stmt(toks, &mut seg, &loop_stack, &mut flow, false);
            }
            TokKind::Punct('{') if depth == 0 => {
                // A loop label (`'outer: for …`) reads nothing; the keyword
                // after it decides the block.
                if seg.len() >= 2
                    && toks[seg[0]].kind == TokKind::Lifetime
                    && toks[seg[1]].is_punct(':')
                {
                    seg.drain(..2);
                }
                let head = seg.first().and_then(|&k| toks[k].ident());
                if ends_with_fat_arrow(toks, &seg) {
                    // A match arm's block (`PAT => {`): the pattern (with
                    // any brace-less arms before it) is read as one
                    // statement, and the body lowers like any control
                    // block, so its loops are loop statements.
                    seg.truncate(seg.len() - 2);
                    flush_stmt(toks, &mut seg, &loop_stack, &mut flow, false);
                    loop_stack.push(None);
                } else if seg.is_empty() || head.is_some_and(|h| CONTROL_KEYWORDS.contains(&h)) {
                    let hash_for = flush_control_head(toks, &mut seg, &loop_stack, &mut flow);
                    loop_stack.push(hash_for);
                } else {
                    // Expression brace (struct literal, `let x = if … {…}`,
                    // match-in-let): absorb the balanced group — union
                    // semantics over every branch.
                    let mut braces = 0i32;
                    while i < end {
                        match &toks[i].kind {
                            TokKind::Punct('{') => braces += 1,
                            TokKind::Punct('}') => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        seg.push(i);
                        i += 1;
                    }
                }
            }
            TokKind::Punct('}') if depth == 0 => {
                flush_stmt(toks, &mut seg, &loop_stack, &mut flow, false);
                loop_stack.pop();
            }
            _ => seg.push(i),
        }
        i += 1;
    }
    flush_stmt(toks, &mut seg, &loop_stack, &mut flow, true);
    flow
}

/// Parses the parameter list out of the signature range.
fn parse_params(toks: &[Tok], sig: &Range<usize>) -> Vec<Param> {
    let mut params = Vec::new();
    let mut i = sig.start;
    while i < sig.end && !toks[i].is_punct('(') {
        i += 1;
    }
    let mut depth = 0i32;
    let mut seg: Vec<usize> = Vec::new();
    let flush = |seg: &mut Vec<usize>, params: &mut Vec<Param>| {
        let mut name = None;
        let mut is_hash = false;
        let mut is_float = false;
        for &k in seg.iter() {
            if let Some(id) = toks[k].ident() {
                if name.is_none() && id != "mut" && id != "ref" && id != "_" {
                    name = Some(id.to_string());
                }
                is_hash |= id == "HashMap" || id == "HashSet";
                is_float |= id == "f32" || id == "f64";
            }
        }
        if let Some(name) = name {
            params.push(Param {
                name,
                is_hash,
                is_float,
            });
        }
        seg.clear();
    };
    while i < sig.end {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                depth += 1;
                if depth > 1 {
                    seg.push(i);
                }
            }
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                seg.push(i);
            }
            TokKind::Punct(',') if depth == 1 => flush(&mut seg, &mut params),
            _ if depth >= 1 => seg.push(i),
            _ => {}
        }
        i += 1;
    }
    flush(&mut seg, &mut params);
    params
}

/// Whether the segment ends with a match arm's `=>`.
fn ends_with_fat_arrow(toks: &[Tok], seg: &[usize]) -> bool {
    matches!(seg, [.., eq, gt] if toks[*eq].is_punct('=') && toks[*gt].is_punct('>'))
}

/// Innermost enclosing hash-ordered `for` line, if any.
fn cur_hash_loop(loop_stack: &[Option<u32>]) -> Option<u32> {
    loop_stack.iter().rev().find_map(|x| *x)
}

/// Pattern identifiers (excluding `mut`/`ref`/`_` and path-like segments).
fn binder_idents(toks: &[Tok], seg: &[usize]) -> Vec<String> {
    seg.iter()
        .filter_map(|&k| toks[k].ident())
        .filter(|id| *id != "mut" && *id != "ref" && *id != "_")
        .map(String::from)
        .collect()
}

/// Position in `seg` of the top-level assignment `=`, plus the compound-op
/// character when the `=` completes `+=`/`-=`/`*=`//=`/….
fn top_level_assign(toks: &[Tok], seg: &[usize]) -> Option<(usize, Option<char>)> {
    let mut depth = 0i32;
    for (s, &k) in seg.iter().enumerate() {
        match &toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Punct('=') if depth == 0 => {
                // `==` / `=>`: not an assignment.
                if let Some(&n) = seg.get(s + 1) {
                    if toks[n].is_punct('=') || toks[n].is_punct('>') {
                        continue;
                    }
                }
                match s.checked_sub(1).map(|p| &toks[seg[p]].kind) {
                    // `let v: Vec<u8> = …`: the `>` closes the ascribed type.
                    Some(TokKind::Punct('>')) if closes_ascription(toks, &seg[..s]) => {
                        return Some((s, None))
                    }
                    // Second half of `==`/`!=`/`<=`/`>=` (or `<<=`/`>>=`).
                    Some(TokKind::Punct(c)) if "=!<>".contains(*c) => continue,
                    Some(TokKind::Punct(c)) if "+-*/%&|^".contains(*c) => {
                        return Some((s, Some(*c)))
                    }
                    _ => return Some((s, None)),
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether `head` (a segment up to an `=`) ends in a type ascription whose
/// angle brackets balance: a top-level `:` precedes, and every `<` after it
/// is closed (`->`'s `>` is not a bracket). Then the final `>` closes a
/// generic type rather than starting `>=`.
fn closes_ascription(toks: &[Tok], head: &[usize]) -> bool {
    let Some(colon) = top_level_colon(toks, head, head.len()) else {
        return false;
    };
    let mut angle = 0i32;
    for (s, &k) in head.iter().enumerate().skip(colon + 1) {
        if toks[k].is_punct('<') {
            angle += 1;
        } else if toks[k].is_punct('>') && !toks[head[s - 1]].is_punct('-') {
            angle -= 1;
        }
    }
    angle == 0
}

/// Position in `seg` of the top-level type-ascription `:` (not `::`).
fn top_level_colon(toks: &[Tok], seg: &[usize], before: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (s, &k) in seg.iter().enumerate().take(before) {
        match &toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Punct(':') if depth == 0 => {
                let next_colon = seg.get(s + 1).is_some_and(|&n| toks[n].is_punct(':'));
                let prev_colon = s.checked_sub(1).is_some_and(|p| toks[seg[p]].is_punct(':'));
                if !next_colon && !prev_colon {
                    return Some(s);
                }
            }
            _ => {}
        }
    }
    None
}

/// Flushes the accumulated segment as one classified statement.
fn flush_stmt(
    toks: &[Tok],
    seg: &mut Vec<usize>,
    loop_stack: &[Option<u32>],
    flow: &mut FnFlow,
    is_tail: bool,
) {
    if seg.is_empty() {
        return;
    }
    let line = toks[seg[0]].line;
    let hash_loop = cur_hash_loop(loop_stack);
    let head = toks[seg[0]].ident().unwrap_or("");
    let stmt = if head == "let" {
        let eq = top_level_assign(toks, seg).map(|(s, _)| s);
        let bound_end = top_level_colon(toks, seg, eq.unwrap_or(seg.len()))
            .or(eq)
            .unwrap_or(seg.len());
        let bound = binder_idents(toks, &seg[1..bound_end]);
        let ty = &seg[bound_end..eq.unwrap_or(seg.len())];
        let btree_let = ty
            .iter()
            .any(|&k| toks[k].is_ident("BTreeMap") || toks[k].is_ident("BTreeSet"));
        let expr = eq
            .map(|e| parse_expr(toks, &seg[e + 1..]))
            .unwrap_or_default();
        let is_float = seg.iter().any(|&k| {
            matches!(toks[k].kind, TokKind::Float)
                || toks[k].is_ident("f32")
                || toks[k].is_ident("f64")
        });
        if is_float {
            for b in &bound {
                flow.float_locals.insert(b.clone());
            }
        }
        Stmt {
            line,
            kind: StmtKind::Let,
            bound,
            expr,
            compound_float_op: false,
            hash_loop,
            btree_let,
        }
    } else if head == "return" {
        Stmt {
            line,
            kind: StmtKind::Return,
            bound: Vec::new(),
            expr: parse_expr(toks, &seg[1..]),
            compound_float_op: false,
            hash_loop,
            btree_let: false,
        }
    } else if let Some((pos, op)) = top_level_assign(toks, seg) {
        let lhs_end = if op.is_some() { pos - 1 } else { pos };
        let bound: Vec<String> = seg[..lhs_end]
            .iter()
            .rev()
            .find_map(|&k| toks[k].ident().map(String::from))
            .into_iter()
            .collect();
        let bound_is_float = bound.iter().any(|b| flow.float_locals.contains(b));
        let (expr, compound_float_op) = if let Some(op) = op {
            // Compound: the whole segment (LHS reads feed the result too).
            (parse_expr(toks, seg), "+-*/".contains(op) && bound_is_float)
        } else {
            let expr = parse_expr(toks, &seg[pos + 1..]);
            // `x = x.max(v)` / `x = x.min(v)` on a float accumulator.
            let minmax = bound_is_float
                && bound.len() == 1
                && expr.calls.iter().any(|c| {
                    (c.name == "max" || c.name == "min")
                        && c.receiver.as_deref() == Some(bound[0].as_str())
                });
            (expr, minmax)
        };
        Stmt {
            line,
            kind: StmtKind::Assign,
            bound,
            expr,
            compound_float_op,
            hash_loop,
            btree_let: false,
        }
    } else {
        Stmt {
            line,
            kind: if is_tail {
                StmtKind::Tail
            } else {
                StmtKind::Plain
            },
            bound: Vec::new(),
            expr: parse_expr(toks, seg),
            compound_float_op: false,
            hash_loop,
            btree_let: false,
        }
    };
    flow.stmts.push(stmt);
    seg.clear();
}

/// Flushes a control-block head (`for x in m` / `while let …` / `if c` /
/// `match v` / `loop` / `unsafe`). Returns `Some(line)` when the block is a
/// `for` over a hash-ordered collection.
fn flush_control_head(
    toks: &[Tok],
    seg: &mut Vec<usize>,
    loop_stack: &[Option<u32>],
    flow: &mut FnFlow,
) -> Option<u32> {
    if seg.is_empty() {
        return None;
    }
    let line = toks[seg[0]].line;
    let hash_loop = cur_hash_loop(loop_stack);
    let head = toks[seg[0]].ident().unwrap_or("");
    let mut hash_for = None;
    match head {
        "for" => {
            let in_pos = seg
                .iter()
                .position(|&k| toks[k].is_ident("in"))
                .unwrap_or(seg.len());
            let bound = binder_idents(toks, &seg[1..in_pos]);
            let expr = parse_expr(toks, &seg[(in_pos + 1).min(seg.len())..]);
            let via_method = expr
                .calls
                .iter()
                .any(|c| hash_iter_receiver(c, &flow.hash_locals).is_some());
            if iterates_directly(&expr, &flow.hash_locals) || via_method {
                hash_for = Some(line);
            }
            flow.stmts.push(Stmt {
                line,
                kind: StmtKind::For,
                bound,
                expr,
                compound_float_op: false,
                hash_loop,
                btree_let: false,
            });
        }
        "while" | "if" | "else" => {
            // `while let PAT = EXPR` / `if let PAT = EXPR` bind; plain
            // conditions just read.
            let let_pos = seg.iter().position(|&k| toks[k].is_ident("let"));
            let stmt = match (let_pos, top_level_assign(toks, seg)) {
                (Some(lp), Some((eq, None))) => Stmt {
                    line,
                    kind: StmtKind::Let,
                    bound: binder_idents(toks, &seg[lp + 1..eq]),
                    expr: parse_expr(toks, &seg[eq + 1..]),
                    compound_float_op: false,
                    hash_loop,
                    btree_let: false,
                },
                _ => Stmt {
                    line,
                    kind: StmtKind::Plain,
                    bound: Vec::new(),
                    expr: parse_expr(toks, &seg[1..]),
                    compound_float_op: false,
                    hash_loop,
                    btree_let: false,
                },
            };
            flow.stmts.push(stmt);
        }
        "match" => flow.stmts.push(Stmt {
            line,
            kind: StmtKind::Plain,
            bound: Vec::new(),
            expr: parse_expr(toks, &seg[1..]),
            compound_float_op: false,
            hash_loop,
            btree_let: false,
        }),
        // `loop` / `unsafe` heads carry no expression.
        _ => {}
    }
    seg.clear();
    hash_for
}

/// Iteration adapters whose order reflects the hash map's internal layout:
/// on a hash-typed receiver, an order source (L10–L12) and an L2 site.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// The hash-typed receiver a call iterates (`m.keys()` with `m` hash-typed:
/// `m`), if the call is a hash-ordered iteration.
fn hash_iter_receiver<'c>(c: &'c Call, hash_locals: &BTreeSet<String>) -> Option<&'c str> {
    c.receiver
        .as_deref()
        .filter(|r| HASH_ITER_METHODS.contains(&c.name.as_str()) && hash_locals.contains(*r))
}

/// Whether a `for` head's iterable is a hash-typed binding itself, with no
/// call in between (`for x in &m`).
fn iterates_directly(iterable: &Expr, hash_locals: &BTreeSet<String>) -> bool {
    iterable.calls.is_empty() && iterable.idents.iter().any(|id| hash_locals.contains(id))
}

/// The iterable of a `for` head inside a flattened expression (`rest`
/// starts after the `for`): the tokens between `in` and the body's `{`.
fn nested_for_iterable<'s>(toks: &[Tok], rest: &'s [usize]) -> Option<&'s [usize]> {
    if rest.first().is_some_and(|&k| toks[k].is_punct('<')) {
        return None; // `for<'a>`: a higher-ranked bound, not a loop
    }
    let start = rest.iter().position(|&k| toks[k].is_ident("in"))? + 1;
    let mut depth = 0i32;
    for (j, &k) in rest.iter().enumerate().skip(start) {
        match &toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some(&rest[start..j]),
            _ => {}
        }
    }
    None
}

/// If `seg[s]` starts a call — `name (` or `name ::<…> (` — returns the
/// segment position of the `(` and the turbofish identifiers.
fn call_open(toks: &[Tok], seg: &[usize], s: usize) -> Option<(usize, Vec<String>)> {
    if seg.get(s + 1).is_some_and(|&n| toks[n].is_punct('(')) {
        return Some((s + 1, Vec::new()));
    }
    if !(seg.get(s + 1).is_some_and(|&n| toks[n].is_punct(':'))
        && seg.get(s + 2).is_some_and(|&n| toks[n].is_punct(':'))
        && seg.get(s + 3).is_some_and(|&n| toks[n].is_punct('<')))
    {
        return None;
    }
    let mut depth = 1i32;
    let mut fish = Vec::new();
    let mut t = s + 4;
    while t < seg.len() && depth > 0 && t < s + 64 {
        match &toks[seg[t]].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => depth -= 1,
            TokKind::Ident(id) => fish.push(id.clone()),
            _ => {}
        }
        t += 1;
    }
    (depth == 0 && seg.get(t).is_some_and(|&n| toks[n].is_punct('('))).then_some((t, fish))
}

/// Flattens a token segment to an [`Expr`]: identifiers and (recursive)
/// calls, left to right. Macro names are skipped; keywords are skipped.
fn parse_expr(toks: &[Tok], seg: &[usize]) -> Expr {
    let mut e = Expr::default();
    let mut s = 0usize;
    while s < seg.len() {
        let k = seg[s];
        let Some(name) = toks[k].ident() else {
            s += 1;
            continue;
        };
        if name == "for" {
            if let Some(iterable) = nested_for_iterable(toks, &seg[s + 1..]) {
                e.fors.push((toks[k].line, parse_expr(toks, iterable)));
            }
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            s += 1;
            continue;
        }
        if seg.get(s + 1).is_some_and(|&n| toks[n].is_punct('!')) {
            s += 2; // macro name: skip it, still scan its arguments
            continue;
        }
        if let Some((open, turbofish)) = call_open(toks, seg, s) {
            let qualifier =
                (s >= 3 && toks[seg[s - 1]].is_punct(':') && toks[seg[s - 2]].is_punct(':'))
                    .then(|| toks[seg[s - 3]].ident())
                    .flatten()
                    .map(String::from);
            let receiver = (s >= 2 && toks[seg[s - 1]].is_punct('.'))
                .then(|| toks[seg[s - 2]].ident())
                .flatten()
                .map(String::from);
            let mut depth = 0i32;
            let mut t = open;
            let mut args: Vec<Expr> = Vec::new();
            let mut cur: Vec<usize> = Vec::new();
            while t < seg.len() {
                match &toks[seg[t]].kind {
                    TokKind::Punct('(') => {
                        depth += 1;
                        if depth > 1 {
                            cur.push(seg[t]);
                        }
                    }
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                        cur.push(seg[t]);
                    }
                    TokKind::Punct(',') if depth == 1 => {
                        if !cur.is_empty() {
                            args.push(parse_expr(toks, &cur));
                            cur.clear();
                        }
                    }
                    _ => cur.push(seg[t]),
                }
                t += 1;
            }
            if !cur.is_empty() {
                args.push(parse_expr(toks, &cur));
            }
            e.calls.push(Call {
                name: name.to_string(),
                qualifier,
                receiver,
                line: toks[k].line,
                turbofish,
                args,
            });
            s = t + 1;
            continue;
        }
        e.idents.push(name.to_string());
        s += 1;
    }
    e
}

// ---------------------------------------------------------------------------
// Taint domain
// ---------------------------------------------------------------------------

const ORDER: u8 = 1;
const VALUE: u8 = 2;

/// Where a concrete taint entered the dataflow, plus the call chain it has
/// travelled (creator first, current function last).
#[derive(Clone, Debug, PartialEq, Eq)]
struct OriginInfo {
    desc: String,
    path: String,
    line: u32,
    frames: Vec<ChainFrame>,
}

impl OriginInfo {
    fn with_frame(&self, frame: &ChainFrame) -> OriginInfo {
        let mut o = self.clone();
        if o.frames.last() != Some(frame) {
            o.frames.push(frame.clone());
        }
        o
    }
}

/// Abstract taint value of one local / expression: concrete origins (first
/// one wins; one witness suffices) plus the parameter indices whose taint
/// would flow here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TV {
    order: Option<OriginInfo>,
    value: Option<OriginInfo>,
    p_order: BTreeSet<usize>,
    p_value: BTreeSet<usize>,
}

impl TV {
    fn merge(&mut self, other: &TV) {
        if self.order.is_none() {
            self.order = other.order.clone();
        }
        if self.value.is_none() {
            self.value = other.value.clone();
        }
        self.p_order.extend(other.p_order.iter().copied());
        self.p_value.extend(other.p_value.iter().copied());
    }

    fn kill_order(&mut self) {
        self.order = None;
        self.p_order.clear();
    }
}

/// A sink reachable from a parameter: what the sink is, where, and the
/// callee-side chain from the summarised function down to the sink.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SinkInfo {
    desc: String,
    path: String,
    line: u32,
    frames: Vec<ChainFrame>,
}

/// One function's interprocedural summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Summary {
    /// Taint of the returned value (concrete origins + param flows).
    ret: TV,
    /// Parameter index → sinks its taint reaches inside this function
    /// (transitively), with the taint kinds that get through.
    param_sink: BTreeMap<usize, Vec<(u8, SinkInfo)>>,
}

// ---------------------------------------------------------------------------
// Sources, sinks, sanitizers
// ---------------------------------------------------------------------------

/// The `sort*` family: establishes a deterministic order.
const SORT_SANITIZERS: [&str; 7] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// `ultra-par`'s ordered execution APIs: chunking and assembly order are
/// fixed, so results are thread-count-invariant by construction.
const ORDERED_API_SANITIZERS: [&str; 4] = [
    "ranges_map_ordered",
    "ranges_map_ordered_with",
    "map_ordered",
    "map_ordered_each",
];

/// Order-insensitive observers: their result does not depend on iteration
/// order, so order-taint stops here (value-taint does not).
const OBSERVER_SANITIZERS: [&str; 11] = [
    "len",
    "count",
    "is_empty",
    "contains",
    "contains_key",
    "any",
    "all",
    "max",
    "min",
    "max_by_key",
    "min_by_key",
];

/// Integer types whose `sum()`/`product()` is order-insensitive (exact
/// arithmetic commutes; float sums do not).
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Methods that fold their argument's taint into the receiver.
const ACCUMULATORS: [&str; 5] = ["push", "insert", "extend", "append", "push_back"];

fn is_order_sanitizer(c: &Call) -> bool {
    let name = c.name.as_str();
    if SORT_SANITIZERS.contains(&name)
        || ORDERED_API_SANITIZERS.contains(&name)
        || OBSERVER_SANITIZERS.contains(&name)
    {
        return true;
    }
    if name == "collect"
        && c.turbofish
            .iter()
            .any(|t| t == "BTreeMap" || t == "BTreeSet")
    {
        return true;
    }
    (name == "sum" || name == "product")
        && c.turbofish.iter().any(|t| INT_TYPES.contains(&t.as_str()))
}

fn collect_order_sanitizers<'e>(expr: &'e Expr, out: &mut Vec<&'e Call>) {
    for c in &expr.calls {
        if is_order_sanitizer(c) {
            out.push(c);
        }
        for a in &c.args {
            collect_order_sanitizers(a, out);
        }
    }
}

/// Nondeterminism-source classification of one call. `fn_name` gates the
/// `env::var` exemption: configuration loaders may read the environment.
fn source_of(call: &Call, fn_name: &str, hash_locals: &BTreeSet<String>) -> Option<(u8, String)> {
    let name = call.name.as_str();
    let qual = call.qualifier.as_deref();
    if let Some(r) = hash_iter_receiver(call, hash_locals) {
        return Some((ORDER, format!("iteration over hash-ordered `{r}`")));
    }
    if name == "current" && qual == Some("thread") {
        return Some((VALUE, "thread-id observation (`thread::current()`)".into()));
    }
    if name == "now" && matches!(qual, Some("Instant") | Some("SystemTime")) {
        return Some((
            VALUE,
            format!("wall-clock read (`{}::now()`)", qual.unwrap_or("")),
        ));
    }
    if name == "thread_rng" || name == "from_entropy" {
        return Some((VALUE, format!("OS-entropy RNG (`{name}`)")));
    }
    if (name == "var" || name == "var_os") && qual == Some("env") {
        let lower = fn_name.to_lowercase();
        let configish = lower.contains("env") || lower.contains("config") || lower.contains("load");
        if !configish {
            return Some((VALUE, format!("environment read (`env::{name}`)")));
        }
    }
    if name == "as_ptr" && qual == Some("Arc") {
        return Some((VALUE, "pointer-address observation (`Arc::as_ptr`)".into()));
    }
    None
}

/// Determinism-sink classification of one call.
fn sink_of(call: &Call) -> Option<String> {
    let name = call.name.as_str();
    match name {
        "from_scores" | "from_sorted" | "top_k"
            if call.qualifier.as_deref() == Some("RankedList") =>
        {
            Some(format!("RankedList construction (`RankedList::{name}`)"))
        }
        "write_json_response" => Some("serve response body (`write_json_response`)".into()),
        "export_dataset" => Some("dataset export (`export_dataset`)".into()),
        "push" if call.receiver.as_deref() == Some("losses") => {
            Some("loss-curve accumulation (`losses.push`)".into())
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

struct Ctx<'a> {
    graph: &'a Graph<'a>,
    summaries: &'a BTreeMap<FnId, Summary>,
}

struct FnEval<'a> {
    ctx: &'a Ctx<'a>,
    file: usize,
    path: &'a str,
    fn_name: &'a str,
    me: ChainFrame,
    flow: &'a FnFlow,
    state: BTreeMap<String, TV>,
    summary: Summary,
    emit: bool,
    findings: Vec<Diagnostic>,
}

impl<'a> FnEval<'a> {
    fn run(mut self) -> (Summary, Vec<Diagnostic>) {
        for p in self.flow.params.iter().enumerate() {
            let (pi, p) = p;
            let mut tv = TV::default();
            tv.p_order.insert(pi);
            tv.p_value.insert(pi);
            self.state.insert(p.name.clone(), tv);
        }
        // Two sweeps so loop-carried taint (an accumulator tainted late in
        // the body, read early in the next iteration) stabilises; findings
        // only fire on the second to avoid duplicates.
        for pass in 0..2 {
            let emit_now = self.emit && pass == 1;
            let stmts = self.flow.stmts.clone();
            for stmt in &stmts {
                self.eval_stmt(stmt, emit_now);
            }
        }
        (self.summary, self.findings)
    }

    fn eval_stmt(&mut self, stmt: &Stmt, emit: bool) {
        let mut tv = self.eval_expr(&stmt.expr, emit);
        // Statement-level order kill: any sanitizing call cleans the whole
        // statement's result and its direct receiver.
        let mut sans = Vec::new();
        collect_order_sanitizers(&stmt.expr, &mut sans);
        if !sans.is_empty() || stmt.btree_let {
            tv.kill_order();
            for c in &sans {
                if let Some(r) = &c.receiver {
                    if let Some(s) = self.state.get_mut(r) {
                        s.kill_order();
                    }
                }
            }
        }
        match stmt.kind {
            StmtKind::For => {
                if stmt.hash_loop == Some(stmt.line) {
                    // This head *is* the hash-ordered iteration: the loop
                    // bindings are order-tainted at the source.
                    let what = stmt
                        .expr
                        .idents
                        .first()
                        .cloned()
                        .unwrap_or_else(|| "a hash map".into());
                    if tv.order.is_none() {
                        tv.order = Some(OriginInfo {
                            desc: format!("iteration over hash-ordered `{what}`"),
                            path: self.path.to_string(),
                            line: stmt.line,
                            frames: vec![self.me.clone()],
                        });
                    }
                }
                for b in &stmt.bound {
                    self.state.insert(b.clone(), tv.clone());
                }
            }
            StmtKind::Let => {
                if stmt.bound.len() == 1 {
                    self.state.insert(stmt.bound[0].clone(), tv);
                } else {
                    for b in &stmt.bound {
                        self.state.entry(b.clone()).or_default().merge(&tv);
                    }
                }
            }
            StmtKind::Assign => {
                // Compound assignments parse the LHS into the expression,
                // so a plain strong update preserves accumulated taint.
                if let Some(b) = stmt.bound.first() {
                    self.state.insert(b.clone(), tv);
                }
            }
            StmtKind::Return | StmtKind::Tail => {
                self.summary.ret.merge(&tv);
            }
            StmtKind::Plain => {}
        }
    }

    fn eval_expr(&mut self, expr: &Expr, emit: bool) -> TV {
        let mut tv = TV::default();
        for id in &expr.idents {
            if let Some(v) = self.state.get(id) {
                let v = v.clone();
                tv.merge(&v);
            }
        }
        for call in &expr.calls {
            let ct = self.eval_call(call, emit);
            tv.merge(&ct);
        }
        tv
    }

    fn eval_call(&mut self, call: &Call, emit: bool) -> TV {
        let arg_tvs: Vec<TV> = call.args.iter().map(|a| self.eval_expr(a, emit)).collect();
        let recv_tv = call
            .receiver
            .as_ref()
            .and_then(|r| self.state.get(r).cloned())
            .unwrap_or_default();

        // 1. Nondeterminism source?
        if let Some((kind, desc)) = source_of(call, self.fn_name, &self.flow.hash_locals) {
            let origin = OriginInfo {
                desc,
                path: self.path.to_string(),
                line: call.line,
                frames: vec![self.me.clone()],
            };
            let mut tv = TV::default();
            if kind == ORDER {
                tv.order = Some(origin);
            } else {
                tv.value = Some(origin);
            }
            return tv;
        }

        // 2. Order sanitizer? The result no longer depends on iteration
        // order; value taint (wall-clock, entropy, …) still flows — sorting
        // doesn't remove an environmental observation from the data.
        if is_order_sanitizer(call) {
            let mut out = recv_tv;
            for a in &arg_tvs {
                out.merge(a);
            }
            out.kill_order();
            return out;
        }

        // 3. Determinism sink?
        if let Some(desc) = sink_of(call) {
            let mut incoming = TV::default();
            for a in &arg_tvs {
                incoming.merge(a);
            }
            if emit {
                for origin in [&incoming.order, &incoming.value].into_iter().flatten() {
                    self.report(&desc, self.path, call.line, origin, &[]);
                }
            }
            let sink = SinkInfo {
                desc: desc.clone(),
                path: self.path.to_string(),
                line: call.line,
                frames: vec![self.me.clone()],
            };
            for (&pi, kind) in incoming
                .p_order
                .iter()
                .map(|p| (p, ORDER))
                .chain(incoming.p_value.iter().map(|p| (p, VALUE)))
            {
                push_param_sink(&mut self.summary, pi, kind, sink.clone());
            }
            // The sink consumes the value; don't cascade taint further.
            return TV::default();
        }

        // 4. Workspace call with a summary: apply return and sink effects.
        let targets = self.ctx.graph.resolve(self.file, &call.name);
        if !targets.is_empty() {
            let mut out = TV::default();
            for t in targets {
                let Some(sum) = self.ctx.summaries.get(&t) else {
                    continue;
                };
                if let Some(o) = &sum.ret.order {
                    if out.order.is_none() {
                        out.order = Some(o.with_frame(&self.me));
                    }
                }
                if let Some(o) = &sum.ret.value {
                    if out.value.is_none() {
                        out.value = Some(o.with_frame(&self.me));
                    }
                }
                // Param → return flows.
                for (&pi, kind) in sum
                    .ret
                    .p_order
                    .iter()
                    .map(|p| (p, ORDER))
                    .chain(sum.ret.p_value.iter().map(|p| (p, VALUE)))
                {
                    let Some(arg) = arg_tvs.get(pi) else { continue };
                    if kind == ORDER {
                        if out.order.is_none() {
                            out.order = arg.order.clone();
                        }
                        out.p_order.extend(arg.p_order.iter().copied());
                    } else {
                        if out.value.is_none() {
                            out.value = arg.value.clone();
                        }
                        out.p_value.extend(arg.p_value.iter().copied());
                    }
                }
                // Param → sink flows: a tainted argument here reaches a sink
                // inside the callee.
                for (&pi, sinks) in &sum.param_sink {
                    let Some(arg) = arg_tvs.get(pi) else { continue };
                    for (kind, sink) in sinks {
                        let origin = if *kind == ORDER {
                            &arg.order
                        } else {
                            &arg.value
                        };
                        if let Some(origin) = origin {
                            if emit {
                                self.report(
                                    &sink.desc,
                                    &sink.path,
                                    sink.line,
                                    origin,
                                    &sink.frames,
                                );
                            }
                        }
                        let params = if *kind == ORDER {
                            &arg.p_order
                        } else {
                            &arg.p_value
                        };
                        for &pj in params {
                            let mut fwd = sink.clone();
                            let mut frames = vec![self.me.clone()];
                            frames.extend(fwd.frames);
                            fwd.frames = frames;
                            push_param_sink(&mut self.summary, pj, *kind, fwd);
                        }
                    }
                }
            }
            return out;
        }

        // 5. Unresolved (std / foreign): taint passes through from the
        // receiver and the arguments; accumulators also fold argument taint
        // back into the receiver.
        let mut out = recv_tv;
        for a in &arg_tvs {
            out.merge(a);
        }
        if ACCUMULATORS.contains(&call.name.as_str()) {
            if let Some(r) = &call.receiver {
                let mut add = TV::default();
                for a in &arg_tvs {
                    add.merge(a);
                }
                self.state.entry(r.clone()).or_default().merge(&add);
            }
        }
        out
    }

    fn report(
        &mut self,
        sink_desc: &str,
        sink_path: &str,
        sink_line: u32,
        origin: &OriginInfo,
        callee_frames: &[ChainFrame],
    ) {
        let mut chain = origin.frames.clone();
        for f in callee_frames {
            if chain.last() != Some(f) {
                chain.push(f.clone());
            }
        }
        self.findings.push(Diagnostic {
            rule: Rule::NoTaintedRanking,
            severity: Rule::NoTaintedRanking.severity(),
            path: sink_path.to_string(),
            line: sink_line,
            message: format!("{sink_desc} receives a value influenced by {}", origin.desc),
            suggestion: "establish a deterministic order before the sink (sort with a total \
                         key, collect into a BTreeMap, or use ultra_par's *_ordered APIs) — \
                         or waive with a written reason in lint.toml",
            chain,
            origin: Some(TaintOrigin {
                desc: origin.desc.clone(),
                path: origin.path.clone(),
                line: origin.line,
            }),
            region: None,
        });
    }
}

fn push_param_sink(summary: &mut Summary, pi: usize, kind: u8, sink: SinkInfo) {
    let sinks = summary.param_sink.entry(pi).or_default();
    if !sinks.iter().any(|(k, s)| *k == kind && *s == sink) {
        sinks.push((kind, sink));
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs L2, L10, L11 and L12 over the library-file models in `graph`.
pub(crate) fn check_taint(graph: &Graph<'_>) -> Vec<Diagnostic> {
    let models = graph.models;
    let mut summaries: BTreeMap<FnId, Summary> = BTreeMap::new();

    // Summaries to a fixpoint (capped: each round deepens visible chains by
    // one call level; ten covers any realistic workspace depth).
    for _round in 0..10 {
        let ctx = Ctx {
            graph,
            summaries: &summaries,
        };
        let mut next: BTreeMap<FnId, Summary> = BTreeMap::new();
        for_each_fn(models, |fi, fj, m, f| {
            let (sum, _) = make_eval(&ctx, (fi, fj), m, f, false).run();
            next.insert((fi, fj), sum);
        });
        let stable = next == summaries;
        summaries = next;
        if stable {
            break;
        }
    }

    // Final emitting pass against the stable summaries.
    let ctx = Ctx {
        graph,
        summaries: &summaries,
    };
    let mut findings = Vec::new();
    for_each_fn(models, |fi, fj, m, f| {
        let (_, found) = make_eval(&ctx, (fi, fj), m, f, true).run();
        findings.extend(found);
    });

    // A flow can be witnessed from several functions along the chain; keep
    // the first (longest-chain reports come from the outermost caller, which
    // eval order visits in file order — dedupe purely on sink+source site).
    let mut seen: BTreeSet<(String, u32, String, u32)> = BTreeSet::new();
    findings.retain(|d| match d.origin.as_ref() {
        Some(o) => seen.insert((d.path.clone(), d.line, o.path.clone(), o.line)),
        None => true,
    });

    check_hash_iteration(models, &mut findings);
    check_seeded_rng(models, &mut findings);
    check_ordered_float(models, &mut findings);
    findings
}

/// L2 — `HashMap`/`HashSet` iteration order varies run to run (and with
/// the hasher's DoS-resistance seed), so in a ranked-output crate every
/// hash-ordered iteration the IR records is a finding: a
/// `HASH_ITER_METHODS` call on a hash-typed receiver, or a `for` over a
/// hash-typed binding (a loop statement, or a loop nested in a closure or
/// an absorbed block), in a non-test function. One finding per line.
fn check_hash_iteration(models: &[FileModel], out: &mut Vec<Diagnostic>) {
    for m in models.iter().filter(|m| crate::classify_ranked(&m.path)) {
        let mut lines = BTreeSet::new();
        for f in m.fns.iter().filter(|f| !f.in_test) {
            let hash = &f.flow.hash_locals;
            for stmt in &f.flow.stmts {
                if stmt.kind == StmtKind::For && iterates_directly(&stmt.expr, hash) {
                    lines.insert(stmt.line);
                }
                expr_any(&stmt.expr, &mut |e| {
                    for c in &e.calls {
                        if hash_iter_receiver(c, hash).is_some() {
                            lines.insert(c.line);
                        }
                    }
                    for (line, iterable) in &e.fors {
                        if iterates_directly(iterable, hash) {
                            lines.insert(*line);
                        }
                    }
                });
            }
        }
        out.extend(lines.into_iter().map(|line| Diagnostic {
            rule: Rule::NoHashIterationOrder,
            severity: Rule::NoHashIterationOrder.severity(),
            path: m.path.clone(),
            line,
            message: "iteration over a HashMap/HashSet: order depends on hasher state".to_string(),
            suggestion: "use BTreeMap/BTreeSet, or collect and sort by a stable key",
            chain: Vec::new(),
            origin: None,
            region: None,
        }));
    }
}

fn for_each_fn(models: &[FileModel], mut f: impl FnMut(usize, usize, &FileModel, &FnDef)) {
    for (fi, m) in models.iter().enumerate() {
        for (fj, fun) in m.fns.iter().enumerate() {
            if fun.in_test || fun.body.is_empty() {
                continue;
            }
            f(fi, fj, m, fun);
        }
    }
}

fn make_eval<'a>(
    ctx: &'a Ctx<'a>,
    id: FnId,
    m: &'a FileModel,
    f: &'a FnDef,
    emit: bool,
) -> FnEval<'a> {
    FnEval {
        ctx,
        file: id.0,
        path: &m.path,
        fn_name: &f.name,
        me: ctx.graph.frame(id),
        flow: &f.flow,
        state: BTreeMap::new(),
        summary: Summary::default(),
        emit,
        findings: Vec::new(),
    }
}

/// RNG creation entry points L11 audits.
const RNG_SEED_FNS: [&str; 3] = ["derive_rng", "seed_from_u64", "from_seed"];

/// Calls that mark a seed expression as properly derived.
const SEED_DERIVERS: [&str; 3] = ["mix_seed", "stream_label", "derive_rng"];

/// Identifier roots that count as config/query-derived state.
const SEEDISH_IDENTS: [&str; 4] = ["cfg", "config", "query", "stream"];

/// L11 — every RNG creation site must *syntactically* receive a seed that
/// traces back to config/query state: an identifier containing "seed", one
/// of the config/query roots, or a call through the seed-derivation helpers.
fn check_seeded_rng(models: &[FileModel], out: &mut Vec<Diagnostic>) {
    for m in models {
        for f in &m.fns {
            if f.in_test {
                continue;
            }
            for stmt in &f.flow.stmts {
                walk_calls(&stmt.expr, &mut |c| {
                    if RNG_SEED_FNS.contains(&c.name.as_str()) && !seed_is_derived(c) {
                        out.push(Diagnostic {
                            rule: Rule::SeededRngOnly,
                            severity: Rule::SeededRngOnly.severity(),
                            path: m.path.clone(),
                            line: c.line,
                            message: format!(
                                "`{}` without a config/query-derived seed argument",
                                c.name
                            ),
                            suggestion: "derive the seed from run state: \
                                         `ultra_core::rng::derive_rng(cfg.seed, \
                                         stream_label(\"...\"))`",
                            chain: Vec::new(),
                            origin: None,
                            region: None,
                        });
                    }
                });
            }
        }
    }
}

fn seed_is_derived(call: &Call) -> bool {
    let mut ok = false;
    for a in &call.args {
        expr_any(a, &mut |e| {
            ok |= e.idents.iter().any(|id| {
                let lower = id.to_lowercase();
                lower.contains("seed") || SEEDISH_IDENTS.contains(&lower.as_str())
            });
            ok |= e.calls.iter().any(|c| {
                SEED_DERIVERS.contains(&c.name.as_str())
                    || c.name.to_lowercase().contains("seed")
                    || c.receiver
                        .as_deref()
                        .is_some_and(|r| SEEDISH_IDENTS.contains(&r.to_lowercase().as_str()))
            });
        });
    }
    ok
}

fn expr_any(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    for c in &expr.calls {
        for a in &c.args {
            expr_any(a, f);
        }
    }
}

fn walk_calls(expr: &Expr, f: &mut impl FnMut(&Call)) {
    for c in &expr.calls {
        f(c);
        for a in &c.args {
            walk_calls(a, f);
        }
    }
}

/// L12 — float accumulation (`+=`, `-=`, `*=`, `/=`, `x = x.max(..)`)
/// inside a loop over a hash-ordered collection: float arithmetic is not
/// associative, so the iteration order changes the result.
fn check_ordered_float(models: &[FileModel], out: &mut Vec<Diagnostic>) {
    for m in models {
        for f in &m.fns {
            if f.in_test {
                continue;
            }
            for stmt in &f.flow.stmts {
                let (true, Some(loop_line)) = (stmt.compound_float_op, stmt.hash_loop) else {
                    continue;
                };
                out.push(Diagnostic {
                    rule: Rule::OrderedFloatReduction,
                    severity: Rule::OrderedFloatReduction.severity(),
                    path: m.path.clone(),
                    line: stmt.line,
                    message: format!(
                        "float accumulation in a loop over a hash-ordered collection \
                         (loop at line {loop_line}): iteration order changes the sum"
                    ),
                    suggestion: "iterate a BTreeMap / sorted keys, or map through \
                                 ultra_par's ordered APIs (`ranges_map_ordered`) \
                                 and fold the chunk outputs in chunk order",
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
    use crate::check_source;
    use crate::rules::Rule;

    /// A non-ranked library path (keeps L2 out of the way so the tests see
    /// only the taint rules).
    const LIB: &str = "crates/lm/src/x.rs";

    fn taint_findings(src: &str) -> Vec<Diagnostic> {
        check_source(LIB, src)
            .into_iter()
            .filter(|d| d.rule == Rule::NoTaintedRanking)
            .collect()
    }

    #[test]
    fn file_hash_idents_sees_ascriptions_and_constructors() {
        let lexed = crate::lexer::lex(
            "struct S { cache: HashMap<u64, u32> }\n\
             fn f(m: &std::collections::HashMap<u64, u32>) {\n\
                 let mut local = HashMap::new();\n\
                 let plain: Vec<u32> = Vec::new();\n\
             }",
        );
        let hash = file_hash_idents(&lexed.tokens);
        assert!(hash.contains("cache"));
        assert!(hash.contains("m"), "qualified path walks back to the name");
        assert!(hash.contains("local"));
        assert!(!hash.contains("plain"));
    }

    #[test]
    fn three_deep_hash_iteration_chain_reaches_ranked_list() {
        let src = "\
fn collect_scores(m: &HashMap<u64, f32>) -> Vec<(u64, f32)> {
    let mut out = Vec::new();
    for (k, v) in m.iter() {
        out.push((*k, *v));
    }
    out
}

fn assemble(m: &HashMap<u64, f32>) -> Vec<(u64, f32)> {
    let pairs = collect_scores(m);
    pairs
}

fn rank(m: &HashMap<u64, f32>) -> RankedList {
    let pairs = assemble(m);
    RankedList::from_sorted(pairs)
}
";
        let found = taint_findings(src);
        assert_eq!(found.len(), 1, "exactly one flow: {found:#?}");
        let d = &found[0];
        assert_eq!(d.line, 16, "fires at the sink call");
        let names: Vec<&str> = d.chain.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(names, ["collect_scores", "assemble", "rank"]);
        let origin = d.origin.as_ref().expect("L10 carries an origin");
        assert_eq!(origin.line, 3, "origin is the hash iteration");
        assert!(origin.desc.contains("hash-ordered"), "{}", origin.desc);
        // The rendered finding shows the whole story.
        let text = d.to_string();
        assert!(text.contains("source:"), "{text}");
        assert!(text.contains("collect_scores"), "{text}");
    }

    #[test]
    fn sorting_before_the_sink_silences_the_chain() {
        let src = "\
fn collect_scores(m: &HashMap<u64, f32>) -> Vec<(u64, f32)> {
    let mut out = Vec::new();
    for (k, v) in m.iter() {
        out.push((*k, *v));
    }
    out
}

fn rank(m: &HashMap<u64, f32>) -> RankedList {
    let mut pairs = collect_scores(m);
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    RankedList::from_sorted(pairs)
}
";
        assert!(taint_findings(src).is_empty());
    }

    #[test]
    fn taint_flows_through_a_callee_parameter_to_its_sink() {
        let src = "\
fn respond(body: Vec<u8>) {
    write_json_response(body);
}

fn build_response(m: &HashMap<u64, u64>) {
    let mut body = Vec::new();
    for k in m.keys() {
        body.push(*k);
    }
    respond(body);
}
";
        let found = taint_findings(src);
        assert_eq!(found.len(), 1, "{found:#?}");
        let d = &found[0];
        assert_eq!(d.line, 2, "reported at the sink inside the callee");
        let names: Vec<&str> = d.chain.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(names, ["build_response", "respond"]);
        assert_eq!(d.origin.as_ref().expect("origin").line, 7);
    }

    #[test]
    fn observers_and_btree_collects_stop_order_taint() {
        let src = "\
fn summarize(m: &HashMap<u64, u64>) -> RankedList {
    let n = m.len();
    let ordered = m.iter().collect::<BTreeMap<_, _>>();
    let mut out = Vec::new();
    out.push(n);
    RankedList::from_scores(out, ordered)
}
";
        assert!(taint_findings(src).is_empty());
    }

    #[test]
    fn value_taint_is_not_sanitized_by_sorting() {
        let src = "\
fn stamp() -> u64 {
    let t = SystemTime::now();
    to_millis(t)
}

fn rank(scores: Vec<u64>) -> RankedList {
    let mut v = scores;
    let salt = stamp();
    v.push(salt);
    v.sort_unstable();
    RankedList::from_sorted(v)
}
";
        let found = taint_findings(src);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0]
            .origin
            .as_ref()
            .expect("origin")
            .desc
            .contains("wall-clock"));
    }

    #[test]
    fn unseeded_rng_construction_fires_l11() {
        let bad = "\
fn make(x: u64) -> UltraRng {
    UltraRng::seed_from_u64(x)
}
";
        let found: Vec<Diagnostic> = check_source(LIB, bad)
            .into_iter()
            .filter(|d| d.rule == Rule::SeededRngOnly)
            .collect();
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].line, 2);

        let good = "\
fn make(cfg: &Config) -> UltraRng {
    let a = UltraRng::seed_from_u64(cfg.seed);
    let b = UltraRng::seed_from_u64(mix_seed(cfg.seed, stream_label(\"expand\")));
    let c = derive_rng(query.seed, 7);
    mix(a, b, c)
}
";
        assert!(!check_source(LIB, good)
            .iter()
            .any(|d| d.rule == Rule::SeededRngOnly));
    }

    #[test]
    fn float_accumulation_in_hash_loop_fires_l12() {
        let bad = "\
fn total(m: &HashMap<u64, f32>) -> f32 {
    let mut sum = 0.0;
    for (_, v) in m.iter() {
        sum += *v;
    }
    sum
}
";
        let found: Vec<Diagnostic> = check_source(LIB, bad)
            .into_iter()
            .filter(|d| d.rule == Rule::OrderedFloatReduction)
            .collect();
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].line, 4);
        assert!(found[0].message.contains("line 3"), "{}", found[0].message);

        // Same reduction over a BTreeMap is deterministic: silent.
        let good = bad.replace("HashMap", "BTreeMap");
        assert!(!check_source(LIB, &good)
            .iter()
            .any(|d| d.rule == Rule::OrderedFloatReduction));

        // `x = x.max(..)` over hash iteration counts as accumulation too.
        let minmax = "\
fn peak(m: &HashMap<u64, f32>) -> f32 {
    let mut best = 0.0;
    for (_, v) in m.iter() {
        best = best.max(*v);
    }
    best
}
";
        assert!(check_source(LIB, minmax)
            .iter()
            .any(|d| d.rule == Rule::OrderedFloatReduction));
    }

    #[test]
    fn integer_accumulation_in_hash_loop_is_fine() {
        let src = "\
fn total(m: &HashMap<u64, u64>) -> u64 {
    let mut sum = 0;
    for (_, v) in m.iter() {
        sum += *v;
    }
    sum
}
";
        assert!(!check_source(LIB, src)
            .iter()
            .any(|d| d.rule == Rule::OrderedFloatReduction));
    }
}
