//! The fourteen ultra-lint rules (L1–L15; L8 `lock-order` is retired and
//! its id left unused, because L13 reports every pair it did).
//!
//! L1–L6 are pure functions over a single file's token stream (plus its
//! test-code mask); L7 and L9 are interprocedural and live in
//! [`crate::callgraph`]; L10–L12 run over the determinism-taint dataflow
//! pass in [`crate::dataflow`]; L13/L14 run over lock-guard live ranges
//! ([`crate::guards`]) and L15 over writer/reader byte-sequence pairs
//! ([`crate::symmetry`]). All share the [`Rule`]/[`Diagnostic`]
//! vocabulary defined here. Rules are heuristic by design: they
//! over-approximate slightly and rely on the allowlist / inline directives
//! for audited exceptions, which keeps every waiver visible and justified
//! in the repo.

use crate::lexer::{Tok, TokKind};
use std::fmt;

/// Rule identifiers, used in diagnostics, `lint.toml`, and inline waivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1: `thread_rng()` / `from_entropy()` outside tests.
    NoUnseededRng,
    /// L2: iteration over `HashMap`/`HashSet` in ranked-output crates.
    NoHashIterationOrder,
    /// L3: `partial_cmp().unwrap()` inside sort/min/max comparators, or an
    /// unstable sort/select on one float key with no tie-break.
    NoNanUnwrapSort,
    /// L4: `unwrap`/`expect`/panic macros in non-test library code.
    NoPanicInLib,
    /// L5: wall-clock reads (`Instant::now`, `SystemTime`) in library code.
    NoWallclockInScoring,
    /// L6: raw `std::thread` spawning outside the sanctioned crates.
    NoRawThreadSpawn,
    /// L7: panic source transitively reachable from a serve entry point.
    NoPanicReachableFromServe,
    /// L9: allocation inside a loop of a `// ultra-lint: hot` function.
    NoAllocInHotLoop,
    /// L10: a nondeterminism source flows into a ranked/serialized output
    /// sink (interprocedural taint).
    NoTaintedRanking,
    /// L11: an RNG creation site that does not syntactically receive a
    /// config/query-derived seed.
    SeededRngOnly,
    /// L12: float accumulation inside a loop over a hash-ordered
    /// collection.
    OrderedFloatReduction,
    /// L13: a blocking operation (or another lock acquisition) reachable
    /// from inside a lock-guard live range.
    NoBlockingUnderLock,
    /// L14: a guard whose live range spans an entire hot-marked loop,
    /// serializing the parallel region.
    NoGuardAcrossHotLoop,
    /// L15: a writer/reader serialization pair whose primitive byte
    /// sequences diverge (width mismatch, reorder, unread field).
    SerdeSymmetry,
}

impl Rule {
    /// Every rule, in documentation order.
    pub const ALL: [Rule; 14] = [
        Rule::NoUnseededRng,
        Rule::NoHashIterationOrder,
        Rule::NoNanUnwrapSort,
        Rule::NoPanicInLib,
        Rule::NoWallclockInScoring,
        Rule::NoRawThreadSpawn,
        Rule::NoPanicReachableFromServe,
        Rule::NoAllocInHotLoop,
        Rule::NoTaintedRanking,
        Rule::SeededRngOnly,
        Rule::OrderedFloatReduction,
        Rule::NoBlockingUnderLock,
        Rule::NoGuardAcrossHotLoop,
        Rule::SerdeSymmetry,
    ];

    /// The kebab-case name used in configuration and output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::NoHashIterationOrder => "no-hash-iteration-order",
            Rule::NoNanUnwrapSort => "no-nan-unwrap-sort",
            Rule::NoPanicInLib => "no-panic-in-lib",
            Rule::NoWallclockInScoring => "no-wallclock-in-scoring",
            Rule::NoRawThreadSpawn => "no-raw-thread-spawn",
            Rule::NoPanicReachableFromServe => "no-panic-reachable-from-serve",
            Rule::NoAllocInHotLoop => "no-alloc-in-hot-loop",
            Rule::NoTaintedRanking => "no-tainted-ranking",
            Rule::SeededRngOnly => "seeded-rng-only",
            Rule::OrderedFloatReduction => "ordered-float-reduction",
            Rule::NoBlockingUnderLock => "no-blocking-under-lock",
            Rule::NoGuardAcrossHotLoop => "no-guard-across-hot-loop",
            Rule::SerdeSymmetry => "serde-symmetry",
        }
    }

    /// Parses a rule name as written in `lint.toml` or inline directives.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Stable short id (`L1`…`L15`, skipping the retired `L8`), used by
    /// `--list-rules` and the docs.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoUnseededRng => "L1",
            Rule::NoHashIterationOrder => "L2",
            Rule::NoNanUnwrapSort => "L3",
            Rule::NoPanicInLib => "L4",
            Rule::NoWallclockInScoring => "L5",
            Rule::NoRawThreadSpawn => "L6",
            Rule::NoPanicReachableFromServe => "L7",
            Rule::NoAllocInHotLoop => "L9",
            Rule::NoTaintedRanking => "L10",
            Rule::SeededRngOnly => "L11",
            Rule::OrderedFloatReduction => "L12",
            Rule::NoBlockingUnderLock => "L13",
            Rule::NoGuardAcrossHotLoop => "L14",
            Rule::SerdeSymmetry => "L15",
        }
    }

    /// One-line description, used by `--list-rules` and kept in sync with
    /// README's rule table by `crates/lint/tests` assertions.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NoUnseededRng => "thread_rng()/from_entropy() outside tests",
            Rule::NoHashIterationOrder => "HashMap/HashSet iteration in ranked-output crates",
            Rule::NoNanUnwrapSort => {
                "partial_cmp + unwrap/default in comparators; unstable sorts on one float key"
            }
            Rule::NoPanicInLib => "unwrap/expect/panic macros in non-test library code",
            Rule::NoWallclockInScoring => "Instant::now/SystemTime reads in library code",
            Rule::NoRawThreadSpawn => "raw std::thread use outside the execution layer",
            Rule::NoPanicReachableFromServe => "panic source reachable from a serve entry point",
            Rule::NoAllocInHotLoop => "allocation inside a loop of a `hot` function",
            Rule::NoTaintedRanking => {
                "nondeterminism source flows into a ranked/serialized output sink"
            }
            Rule::SeededRngOnly => "RNG creation site without a config/query-derived seed",
            Rule::OrderedFloatReduction => {
                "float accumulation in a loop over a hash-ordered collection"
            }
            Rule::NoBlockingUnderLock => {
                "blocking call or nested lock reachable while a guard is held"
            }
            Rule::NoGuardAcrossHotLoop => "lock guard held across an entire `hot` loop",
            Rule::SerdeSymmetry => "writer/reader byte sequences of a serialization pair diverge",
        }
    }

    /// Which files the rule inspects, for `--list-rules`.
    pub fn scope(self) -> &'static str {
        match self {
            Rule::NoUnseededRng | Rule::NoNanUnwrapSort => "all files",
            Rule::NoHashIterationOrder => "ranked-output crates",
            Rule::NoPanicInLib
            | Rule::NoWallclockInScoring
            | Rule::NoPanicReachableFromServe
            | Rule::NoAllocInHotLoop
            | Rule::NoTaintedRanking
            | Rule::SeededRngOnly
            | Rule::OrderedFloatReduction
            | Rule::NoBlockingUnderLock
            | Rule::NoGuardAcrossHotLoop
            | Rule::SerdeSymmetry => "library crates",
            Rule::NoRawThreadSpawn => "library crates except par/serve",
        }
    }

    /// Default severity. Everything is an error except L4, L7, L10, and
    /// L14, whose violations in practice include audited boundary cases
    /// (e.g. modulo-bounded indexing, intentionally time-derived metrics,
    /// deliberately serialized hot sections). Severity orders and labels
    /// the report; a finding of either severity fails the run unless
    /// waived.
    pub fn severity(self) -> Severity {
        match self {
            Rule::NoPanicInLib
            | Rule::NoPanicReachableFromServe
            | Rule::NoTaintedRanking
            | Rule::NoGuardAcrossHotLoop => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

/// Diagnostic severity. Every unwaived finding fails the run; severity
/// decides report order (errors first) and the label CI annotates with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An audited-boundary rule's finding.
    Warn,
    /// Any other rule's finding.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One frame of an L7 call chain: a function, at its definition site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainFrame {
    /// Function name.
    pub function: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// The nondeterminism source behind an L10 finding: what it is and where it
/// enters the dataflow. The diagnostic itself points at the *sink*; this
/// points at the *source*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaintOrigin {
    /// Human description of the source ("iteration over hash-ordered `m`").
    pub desc: String,
    /// Workspace-relative path of the source site.
    pub path: String,
    /// 1-based line of the source site.
    pub line: u32,
}

/// A contiguous source region attached to a finding: the live range of the
/// offending guard (L13/L14) or the span of the paired counterpart function
/// (L15). The diagnostic itself points at one line; this names the extent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionSpan {
    /// Human label ("guard `queue`", "reader `from_bytes`").
    pub label: String,
    /// Workspace-relative path of the region.
    pub path: String,
    /// 1-based first line of the region.
    pub start_line: u32,
    /// 1-based last line of the region.
    pub end_line: u32,
}

/// One finding: rule, location, message, and a suggested fix.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Severity at the point of firing.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub suggestion: &'static str,
    /// For L7/L10: the call chain from the entry (serve handler for L7,
    /// source function for L10) down to the function containing the finding
    /// site. Empty for every other rule.
    pub chain: Vec<ChainFrame>,
    /// For L10: the nondeterminism source feeding the sink. For L13: the
    /// guard acquisition site. For L15: the counterpart (reader) op site.
    /// `None` for every other rule.
    pub origin: Option<TaintOrigin>,
    /// For L13/L14: the guard live range (L14: the spanned loop). For L15:
    /// the counterpart function's span. `None` for every other rule.
    pub region: Option<RegionSpan>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.path,
            self.line,
            self.severity,
            self.rule.name(),
            self.message,
        )?;
        if let Some(origin) = &self.origin {
            write!(
                f,
                "\n    source: {} ({}:{})",
                origin.desc, origin.path, origin.line
            )?;
        }
        if !self.chain.is_empty() {
            let rendered: Vec<String> = self
                .chain
                .iter()
                .map(|c| format!("{} ({}:{})", c.function, c.path, c.line))
                .collect();
            write!(f, "\n    chain: {}", rendered.join(" -> "))?;
        }
        if let Some(region) = &self.region {
            write!(
                f,
                "\n    region: {} ({}:{}-{})",
                region.label, region.path, region.start_line, region.end_line
            )?;
        }
        write!(f, "\n    help: {}", self.suggestion)
    }
}

/// Per-file context the rules need beyond the tokens themselves.
pub struct FileContext<'a> {
    /// Workspace-relative path (`crates/core/src/ranking.rs`).
    pub path: &'a str,
    /// Tokens from [`crate::lexer::lex`].
    pub tokens: &'a [Tok],
    /// Parallel mask from [`crate::lexer::test_code_mask`].
    pub in_test: &'a [bool],
    /// Whether the file is library code (see [`crate::walk`] for the
    /// classification: `crates/*/src/**` minus bins, not tests/benches/
    /// examples).
    pub is_lib: bool,
    /// Whether the file belongs to a crate whose output ranking must be
    /// deterministic (L2's scope).
    pub is_ranked_crate: bool,
}

/// Runs every intraprocedural rule (L1–L6) over one file. The graph rules
/// (L7–L9) need the whole workspace and run in
/// [`crate::callgraph::check_cross`].
pub fn check_file(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_no_unseeded_rng(ctx, &mut out);
    rule_no_hash_iteration_order(ctx, &mut out);
    rule_no_nan_unwrap_sort(ctx, &mut out);
    rule_no_panic_in_lib(ctx, &mut out);
    rule_no_wallclock(ctx, &mut out);
    rule_no_raw_thread_spawn(ctx, &mut out);
    out
}

fn diag(
    ctx: &FileContext<'_>,
    rule: Rule,
    line: u32,
    message: String,
    suggestion: &'static str,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: rule.severity(),
        path: ctx.path.to_string(),
        line,
        message,
        suggestion,
        chain: Vec::new(),
        origin: None,
        region: None,
    }
}

/// L1 — unseeded randomness is nondeterministic by construction.
fn rule_no_unseeded_rng(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = tok.ident() else { continue };
        if name == "thread_rng"
            || name == "from_entropy"
            || name == "random" && is_rand_random(ctx.tokens, i)
        {
            out.push(diag(
                ctx,
                Rule::NoUnseededRng,
                tok.line,
                format!("`{name}` draws entropy from the OS; results are not reproducible"),
                "seed explicitly: `ultra_core::rng::derive_rng(seed, stream_label(\"...\"))`",
            ));
        }
    }
}

/// `rand::random` / `rand :: random` — but not an arbitrary ident `random`.
fn is_rand_random(tokens: &[Tok], i: usize) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident("rand")
}

/// Iteration adapters whose order reflects the hash map's internal layout.
/// Shared with [`crate::dataflow`], which treats them as taint sources.
pub(crate) const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// L2 — `HashMap`/`HashSet` iteration order varies run-to-run (and with the
/// hasher's DoS-resistance seed), so anything order-sensitive downstream of
/// a ranked-output crate must iterate a `BTreeMap`/`BTreeSet` or sort after
/// collecting.
fn rule_no_hash_iteration_order(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_ranked_crate {
        return;
    }
    // Pass 1: identifiers bound to hash-ordered collections, from type
    // ascriptions (`x: HashMap<…>`, struct fields included) and constructor
    // bindings (`let x = HashMap::new()` / `HashMap::from(...)` /
    // `…collect::<HashMap<_,_>>()` within the same `let`).
    let mut hash_idents: Vec<&str> = Vec::new();
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // Walk back over a qualified path (`std :: collections ::`) so both
        // bare and fully-qualified spellings anchor at the path start.
        let mut start = i;
        while start >= 3
            && ctx.tokens[start - 1].is_punct(':')
            && ctx.tokens[start - 2].is_punct(':')
            && ctx.tokens[start - 3].ident().is_some()
        {
            start -= 3;
        }
        // `ident : [path::]HashMap` — type ascription / struct field / fn
        // param.
        if start >= 2 && ctx.tokens[start - 1].is_punct(':') && !ctx.tokens[start - 2].is_punct(':')
        {
            if let Some(id) = ctx.tokens[start - 2].ident() {
                hash_idents.push(id);
            }
        }
        // `let (mut)? ident = [path::]HashMap::…` constructor binding. The
        // `=` must directly precede the constructor so that container types
        // like `Vec<HashMap<…>>` (whose own iteration order is
        // deterministic) do not bind the outer identifier.
        if start >= 1 && ctx.tokens[start - 1].is_punct('=') {
            for back in 2..=6usize {
                let Some(j) = start.checked_sub(back) else {
                    break;
                };
                if ctx.tokens[j].is_punct(';') || ctx.tokens[j].is_punct('{') {
                    break;
                }
                if ctx.tokens[j].is_ident("let") {
                    let mut k = j + 1;
                    if ctx.tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
                        k += 1;
                    }
                    if let Some(id) = ctx.tokens.get(k).and_then(|t| t.ident()) {
                        hash_idents.push(id);
                    }
                    break;
                }
            }
        }
    }
    hash_idents.sort_unstable();
    hash_idents.dedup();

    // Pass 2: flag order-sensitive iteration over those identifiers.
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = tok.ident() else { continue };
        let flagged = if HASH_ITER_METHODS.contains(&name) {
            // `x . iter ( )` — receiver ident two tokens back.
            i >= 2
                && ctx.tokens[i - 1].is_punct('.')
                && ctx.tokens[i - 2]
                    .ident()
                    .is_some_and(|id| hash_idents.binary_search(&id).is_ok())
        } else if name == "in" {
            // `for pat in (&(mut)?)? x {` or `for pat in x.…`.
            let mut k = i + 1;
            while ctx
                .tokens
                .get(k)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                k += 1;
            }
            ctx.tokens
                .get(k)
                .and_then(|t| t.ident())
                .is_some_and(|id| hash_idents.binary_search(&id).is_ok())
                && ctx.tokens.get(k + 1).is_some_and(|t| t.is_punct('{'))
        } else {
            false
        };
        if flagged {
            out.push(diag(
                ctx,
                Rule::NoHashIterationOrder,
                tok.line,
                "iteration over a HashMap/HashSet: order depends on hasher state".to_string(),
                "use BTreeMap/BTreeSet, or collect and sort by a stable key",
            ));
        }
    }
}

/// Comparator-taking methods L3 inspects.
const COMPARATOR_METHODS: [&str; 7] = [
    "sort_by",
    "sort_unstable_by",
    "sort_by_cached_key",
    "max_by",
    "min_by",
    "binary_search_by",
    "select_nth_unstable_by",
];

/// L3 — `partial_cmp().unwrap()` in a comparator panics on NaN and, worse,
/// `unwrap_or(Equal)` silently produces non-total orderings that make sort
/// output depend on input order. `f64::total_cmp` is total and portable.
///
/// An unstable sort or select whose comparator makes one float comparison
/// of a projection (`b.1.total_cmp(&a.1)`) and breaks no tie is a partial
/// order too: equal scores land wherever the algorithm leaves them, so
/// output moves with the toolchain's sort. Comparing whole floats
/// (`f64::total_cmp`, `|a, b| b.total_cmp(a)`) stays quiet: equal floats
/// are the same bits.
fn rule_no_nan_unwrap_sort(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !COMPARATOR_METHODS.contains(&name) {
            continue;
        }
        let Some(open) = ctx.tokens.get(i + 1).filter(|t| t.is_punct('(')) else {
            continue;
        };
        let _ = open;
        // Scan the balanced argument list for partial_cmp + unwrap family.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut saw_partial: Option<u32> = None;
        let mut saw_unwrap = false;
        // (line, compares a projection) per float comparison.
        let mut float_cmps: Vec<(u32, bool)> = Vec::new();
        let mut tie_break = false;
        while j < ctx.tokens.len() {
            match &ctx.tokens[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(id) => {
                    if id == "partial_cmp" {
                        saw_partial.get_or_insert(ctx.tokens[j].line);
                    }
                    if id == "partial_cmp" || id == "total_cmp" {
                        float_cmps.push((ctx.tokens[j].line, compares_a_projection(ctx.tokens, j)));
                    }
                    if id == "unwrap" || id == "expect" || id == "unwrap_or" {
                        saw_unwrap = true;
                    }
                    if id == "then" || id == "then_with" {
                        tie_break = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let (Some(line), true) = (saw_partial, saw_unwrap) {
            out.push(diag(
                ctx,
                Rule::NoNanUnwrapSort,
                line,
                format!("`partial_cmp` + unwrap/default inside `{name}` comparator"),
                "use `f64::total_cmp` (total order, NaN-safe, no panic)",
            ));
        } else if let ([(line, true)], false, "sort_unstable_by" | "select_nth_unstable_by") =
            (float_cmps.as_slice(), tie_break, name)
        {
            out.push(diag(
                ctx,
                Rule::NoNanUnwrapSort,
                *line,
                format!("`{name}` on one float key: ties fall in the sort algorithm's order"),
                "rank through `ultra_core::top_k` (score descending, then key)",
            ));
        }
    }
}

/// Whether the comparison method at `j` compares a projection of the
/// element (`a.1`, `a.logp`, `s[a]`) rather than the element itself (`a`)
/// or names a path (`f64::total_cmp`).
fn compares_a_projection(tokens: &[Tok], j: usize) -> bool {
    if j < 3 || !tokens[j - 1].is_punct('.') {
        return false;
    }
    let bare_receiver = tokens[j - 2].ident().is_some() && !tokens[j - 3].is_punct('.');
    !bare_receiver
}

/// Panicking macro names L4 flags (with a following `!`).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// L4 — panics in library code abort callers that could have handled an
/// `UltraError`. Tests may panic freely (that's what assertions are).
fn rule_no_panic_in_lib(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_lib {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = tok.ident() else { continue };
        let finding = if (name == "unwrap" || name == "expect")
            && i >= 1
            && ctx.tokens[i - 1].is_punct('.')
            && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            Some(format!("`.{name}()` panics on the error path"))
        } else if PANIC_MACROS.contains(&name)
            && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            Some(format!("`{name}!` in library code"))
        } else {
            None
        };
        if let Some(message) = finding {
            out.push(diag(
                ctx,
                Rule::NoPanicInLib,
                tok.line,
                message,
                "propagate `ultra_core::UltraError` (or document the invariant and allowlist)",
            ));
        }
    }
}

/// L5 — wall-clock reads in scoring paths make outputs time-dependent.
/// Timing belongs in `ultra-bench`; everything else must be clock-free.
fn rule_no_wallclock(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_lib {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = tok.ident() else { continue };
        // The clock *read* is the nondeterminism source: `Instant::now()` /
        // `SystemTime::now()`. (Merely naming the type, e.g. in a `use`
        // item, does not fire.)
        let is_clock_read = (name == "Instant" || name == "SystemTime")
            && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && ctx.tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && ctx.tokens.get(i + 3).is_some_and(|t| t.is_ident("now"));
        if is_clock_read {
            out.push(diag(
                ctx,
                Rule::NoWallclockInScoring,
                tok.line,
                format!("`{name}::now()` read in library code: output becomes time-dependent"),
                "move timing into ultra-bench; scoring must be a pure function of (input, seed)",
            ));
        }
    }
}

/// Crates allowed to touch `std::thread` directly: `ultra-par` *is* the
/// execution layer, and `ultra-serve` manages long-lived request workers
/// (a different lifecycle than data-parallel fan-out). Everything else goes
/// through `ultra-par`, whose fixed chunking and ordered assembly keep
/// outputs thread-count-invariant. Bench/CLI binaries (`src/bin/`) are
/// outside `is_lib` and therefore outside this rule's scope.
const THREAD_EXEMPT_PREFIXES: [&str; 2] = ["crates/par/", "crates/serve/"];

/// `thread::` members that create or structure OS threads.
const THREAD_SPAWN_MEMBERS: [&str; 3] = ["spawn", "scope", "Builder"];

/// L6 — ad-hoc `std::thread` use reintroduces scheduling-dependent
/// execution orders that `ultra-par` exists to eliminate; a stray
/// `thread::spawn` in a scoring or training path silently breaks the
/// byte-identity contract.
fn rule_no_raw_thread_spawn(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_lib
        || THREAD_EXEMPT_PREFIXES
            .iter()
            .any(|p| ctx.path.starts_with(p))
    {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if !tok.is_ident("thread") {
            continue;
        }
        // `thread :: spawn` / `thread :: scope` / `thread :: Builder`
        // (bare or as the tail of `std::thread::…`).
        let member = ctx
            .tokens
            .get(i + 1)
            .filter(|t| t.is_punct(':'))
            .and_then(|_| ctx.tokens.get(i + 2))
            .filter(|t| t.is_punct(':'))
            .and_then(|_| ctx.tokens.get(i + 3))
            .and_then(|t| t.ident())
            .filter(|m| THREAD_SPAWN_MEMBERS.contains(m));
        if let Some(member) = member {
            out.push(diag(
                ctx,
                Rule::NoRawThreadSpawn,
                tok.line,
                format!("raw `thread::{member}` outside the execution layer"),
                "use ultra_par::Pool (deterministic chunking + ordered assembly), \
                 or move long-lived workers into crates/serve",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_code_mask};

    fn check(src: &str, is_lib: bool, is_ranked: bool) -> Vec<Diagnostic> {
        check_at("crates/x/src/lib.rs", src, is_lib, is_ranked)
    }

    fn check_at(path: &str, src: &str, is_lib: bool, is_ranked: bool) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let mask = test_code_mask(&lexed.tokens);
        check_file(&FileContext {
            path,
            tokens: &lexed.tokens,
            in_test: &mask,
            is_lib,
            is_ranked_crate: is_ranked,
        })
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn l1_flags_thread_rng_outside_tests_only() {
        let src = "fn f() { let r = thread_rng(); }\n#[cfg(test)]\nmod tests { fn t() { let r = thread_rng(); } }";
        let diags = check(src, true, false);
        assert_eq!(rules_of(&diags), vec![Rule::NoUnseededRng]);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn l2_flags_hash_iteration_in_ranked_crates() {
        let src = "fn f(m: HashMap<u32, f64>) { for (k, v) in &m { use_it(k, v); }\n let s: HashSet<u32> = HashSet::new();\n for x in s.iter() { g(x); } }";
        let diags = check(src, true, true);
        assert_eq!(
            rules_of(&diags),
            vec![Rule::NoHashIterationOrder, Rule::NoHashIterationOrder]
        );
        // Not flagged outside ranked crates.
        assert!(check(src, true, false).is_empty());
    }

    #[test]
    fn l2_catches_qualified_path_declarations() {
        let src = "fn f() { let mut m: std::collections::HashMap<u32, f32> = std::collections::HashMap::new();\n let v: Vec<(u32, f32)> = m.into_iter().collect(); }";
        assert_eq!(
            rules_of(&check(src, true, true)),
            vec![Rule::NoHashIterationOrder]
        );
    }

    #[test]
    fn l2_does_not_bind_vec_of_hashmaps() {
        let src = "fn f() { let mut counts: Vec<HashMap<u32, u32>> = vec![HashMap::new(); 4];\n for slot in &counts { g(slot); } }";
        assert!(check(src, true, true).is_empty());
    }

    #[test]
    fn l2_ignores_point_lookups() {
        let src = "fn f(m: HashMap<u32, f64>) -> Option<f64> { m.get(&3).copied() }";
        assert!(check(src, true, true).is_empty());
    }

    #[test]
    fn l3_flags_partial_cmp_unwrap_in_sort() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let diags = check(src, true, false);
        assert_eq!(
            rules_of(&diags),
            vec![Rule::NoNanUnwrapSort, Rule::NoPanicInLib]
        );
    }

    #[test]
    fn l3_flags_unwrap_or_equal_too() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)); }";
        let diags = check(src, true, false);
        assert_eq!(rules_of(&diags), vec![Rule::NoNanUnwrapSort]);
    }

    #[test]
    fn l3_accepts_total_cmp() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(check(src, true, false).is_empty());
    }

    #[test]
    fn l3_flags_an_unstable_sort_on_one_float_key_without_a_tie_break() {
        let flagged = [
            "v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));",
            "v.select_nth_unstable_by(k, |a, b| b.logp.total_cmp(&a.logp));",
            "o.sort_unstable_by(|&a, &b| s[b].total_cmp(&s[a]));",
        ];
        for call in flagged {
            let diags = check(&format!("fn f() {{ {call} }}"), true, false);
            assert_eq!(rules_of(&diags), vec![Rule::NoNanUnwrapSort], "{call}");
        }
        let quiet = [
            "v.sort_by(|a, b| b.1.total_cmp(&a.1));",
            "v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));",
            "v.sort_unstable_by(f64::total_cmp);",
            "v.sort_unstable_by(|a, b| b.total_cmp(a));",
            "v.sort_unstable_by(|a, b| b.1.cmp(&a.1));",
        ];
        for call in quiet {
            assert!(
                check(&format!("fn f() {{ {call} }}"), true, false).is_empty(),
                "{call}"
            );
        }
    }

    #[test]
    fn l4_flags_unwrap_expect_and_panic_macros_in_lib_only() {
        let src = "fn f(x: Option<u32>) -> u32 { let y = x.unwrap(); if y > 3 { panic!(\"no\"); } x.expect(\"msg\") }";
        let diags = check(src, true, false);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.rule == Rule::NoPanicInLib));
        assert!(
            check(src, false, false).is_empty(),
            "non-lib code is exempt"
        );
    }

    #[test]
    fn l4_does_not_flag_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }";
        assert!(check(src, true, false).is_empty());
    }

    #[test]
    fn l5_flags_wallclock_in_lib() {
        let src =
            "fn f() -> u64 { let t = std::time::Instant::now(); t.elapsed().as_nanos() as u64 }";
        let diags = check(src, true, false);
        assert_eq!(rules_of(&diags), vec![Rule::NoWallclockInScoring]);
    }

    #[test]
    fn l6_flags_raw_thread_spawn_in_lib_code() {
        let src = "fn f() { std::thread::spawn(|| work()); }\nfn g() { thread::scope(|s| { s.spawn(|| {}); }); }\nfn h() { let b = std::thread::Builder::new(); }";
        let diags = check(src, true, false);
        let l6: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == Rule::NoRawThreadSpawn)
            .map(|d| d.line)
            .collect();
        assert_eq!(l6, vec![1, 2, 3], "spawn, scope, Builder");
    }

    #[test]
    fn l6_exempts_execution_layer_serve_and_non_lib_code() {
        let src = "fn f() { std::thread::spawn(|| work()); }";
        assert!(check_at("crates/par/src/lib.rs", src, true, false).is_empty());
        assert!(check_at("crates/serve/src/pool.rs", src, true, true).is_empty());
        // Bench/CLI binaries and tests are outside lib scope.
        assert!(check_at("crates/bench/src/bin/perf.rs", src, false, false).is_empty());
        // Test code inside a lib file is exempt too.
        let in_test = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }";
        assert!(check(in_test, true, false).is_empty());
    }

    #[test]
    fn l6_ignores_non_spawning_thread_mentions() {
        let src = "fn f() { std::thread::sleep(d); let n = std::thread::available_parallelism(); }";
        assert!(check(src, true, false)
            .iter()
            .all(|d| d.rule != Rule::NoRawThreadSpawn));
    }

    #[test]
    fn severities_follow_rule_defaults() {
        assert_eq!(Rule::NoPanicInLib.severity(), Severity::Warn);
        assert_eq!(Rule::NoUnseededRng.severity(), Severity::Error);
    }
}
