//! `ultra-lint`: workspace-wide determinism & panic-safety analyzer.
//!
//! The UltraWiki reproduction promises byte-identical ranked output for a
//! fixed `(input, seed)` pair, and library crates that never abort callers.
//! Those properties erode one innocuous line at a time — an unseeded RNG in
//! a helper, a `HashMap` iteration feeding a ranking, a `partial_cmp()
//! .unwrap()` that panics the first time a score goes NaN. `ultra-lint`
//! enforces them mechanically over every `.rs` file in the workspace:
//!
//! * **L1 `no-unseeded-rng`** — `thread_rng()` / `from_entropy()` outside
//!   tests.
//! * **L2 `no-hash-iteration-order`** — `HashMap`/`HashSet` iteration in
//!   crates whose output ordering matters.
//! * **L3 `no-nan-unwrap-sort`** — `partial_cmp` + unwrap/default inside
//!   sort comparators, and unstable sorts/selects on one float key with no
//!   tie-break.
//! * **L4 `no-panic-in-lib`** — `unwrap`/`expect`/panic macros in non-test
//!   library code.
//! * **L5 `no-wallclock-in-scoring`** — `Instant::now`/`SystemTime` in
//!   library code.
//! * **L6 `no-raw-thread-spawn`** — `thread::spawn`/`scope`/`Builder`
//!   outside `crates/par` (the deterministic execution layer) and
//!   `crates/serve` (long-lived request workers).
//!
//! Two further rules are *interprocedural*: they run over a heuristic
//! whole-workspace call graph (see [`parser`] and [`callgraph`]) instead of
//! one file at a time:
//!
//! * **L7 `no-panic-reachable-from-serve`** — no `unwrap`/`expect`/panic
//!   macro/slice-indexing panic source transitively reachable from a serve
//!   entry point (`handle_*`, the pool worker loop); findings carry the
//!   full entry→panic call chain.
//! * **L9 `no-alloc-in-hot-loop`** — no `push`/`collect`/`to_vec`/`clone`/
//!   `format!` inside loops of functions marked `// ultra-lint: hot`.
//!
//! L8 (`lock-order`) is retired: L13 flags both acquisitions of each
//! inversion as held-while-acquiring pairs, and skips L8's false positives
//! where the first guard was dropped before the second lock. The id stays
//! unused so L9–L15 keep theirs.
//!
//! Three determinism-taint rules run over an interprocedural dataflow built
//! on the same call graph (see [`dataflow`]):
//!
//! * **L10 `no-tainted-ranking`** — no nondeterminism source (hash-ordered
//!   iteration, wall-clock, thread id, OS entropy, `env::var`, pointer
//!   address) may flow — through locals, call arguments, and return
//!   values — into a determinism sink (`RankedList` construction, serve
//!   response bodies, dataset export, loss-curve accumulation) without
//!   passing a sanitizer; findings print the source→sink chain like L7.
//! * **L11 `seeded-rng-only`** — every RNG creation site must receive a
//!   seed derived from config/query state.
//! * **L12 `ordered-float-reduction`** — no float accumulation inside a
//!   loop over a hash-ordered collection.
//!
//! Two guard-region rules model lock-guard live ranges and walk the call
//! graph from statements inside them (see [`guards`]):
//!
//! * **L13 `no-blocking-under-lock`** — no blocking operation (socket
//!   I/O, channel `recv`, `join`, `sleep`, file reads) and no *other* lock
//!   acquisition reachable while a guard is live (the lock-order check);
//!   findings carry the guard's live range and the guard→blocking-site
//!   chain.
//! * **L14 `no-guard-across-hot-loop`** — no guard held across an entire
//!   `// ultra-lint: hot` loop.
//!
//! One format rule diffs paired serializers (see [`symmetry`]):
//!
//! * **L15 `serde-symmetry`** — a writer/reader pair
//!   (`to_bytes`/`from_bytes` or `write_X`/`read_X`) whose primitive-width
//!   byte sequences diverge — width drift, reordered fields,
//!   written-but-never-read — is flagged with both sites.
//!
//! Findings carry `file:line` locations, severities, and fix suggestions.
//! Audited exceptions live in the workspace-root `lint.toml` (each with a
//! mandatory justification) or as inline `// ultra-lint: allow(rule)`
//! comments. The analyzer runs as `cargo run -p ultra-lint` and as the
//! root package's `tests/lint_gate.rs`, so tier-1 fails on any new
//! violation of any severity.
//!
//! The per-file lex/parse phase fans out over `ultra-par` (honouring
//! `ULTRA_THREADS`) and merges results in file-id order, so diagnostics are
//! byte-identical at any thread count; everything downstream of the merge
//! is sequential.

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod guards;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symmetry;

use config::Allowlist;
use rules::{Diagnostic, FileContext};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Crates whose ranked output must be reproducible (L2's scope). `serve`
/// belongs here because it hands out cached `RankedList`s: iteration-order
/// nondeterminism anywhere in its request path would break the byte-identity
/// contract between served and offline results. `snap` belongs here because
/// snapshots must be byte-identical across builds: any iteration-order
/// nondeterminism while serializing sections would break `cmp a.usnp b.usnp`.
pub const RANKED_CRATES: [&str; 9] = [
    "core",
    "retexpan",
    "genexpan",
    "baselines",
    "eval",
    "data",
    "serve",
    "ann",
    "snap",
];

/// Directory names never scanned.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Wall-clock cost of each analyzer phase, in milliseconds. Reported only
/// in the JSON output's `timing` section — never in the text report, which
/// must stay byte-identical across thread counts and machines.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Per-file lex + parse + intraprocedural rules (the parallel phase).
    pub lex_parse_ms: u64,
    /// Cross-file analysis: call graph, taint, guards, symmetry.
    pub analyze_ms: u64,
    /// Whole run, including file I/O and waiver matching.
    pub total_ms: u64,
}

/// Full analyzer outcome for one workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by any waiver, most severe first.
    pub violations: Vec<Diagnostic>,
    /// Findings waived by `lint.toml` or inline directives.
    pub allowed: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing (stale).
    pub stale_allows: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Call sites the graph could not resolve to a workspace function
    /// (std, vendored deps) — the visible boundary of what the
    /// interprocedural rules can see.
    pub unresolved_calls: usize,
    /// Per-phase wall time (JSON output only).
    pub timings: PhaseTimings,
}

impl Report {
    /// Whether the run should fail the build: any unwaived finding, of
    /// either severity, or any stale allowlist entry (an allowlist that
    /// outlives the code it excuses has rotted).
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || !self.stale_allows.is_empty()
    }
}

/// Errors from the analyzer itself (I/O, config syntax).
#[derive(Debug)]
pub enum LintError {
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
    /// `lint.toml` did not parse.
    Config(config::ConfigError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Runs the analyzer over a workspace rooted at `root`.
///
/// Reads `<root>/lint.toml` if present (a missing file means an empty
/// allowlist). Scans every `.rs` file outside [`SKIP_DIRS`].
pub fn run_workspace(root: &Path) -> Result<Report, LintError> {
    let run_start = Instant::now();
    let allowlist = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => Allowlist::parse(&text).map_err(LintError::Config)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(LintError::Io(root.join("lint.toml"), e)),
    };

    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort(); // deterministic scan order → deterministic output

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(file).map_err(|e| LintError::Io(file.clone(), e))?;
        sources.push((rel, source));
    }

    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    let outcome = check_sources(&borrowed);
    report.unresolved_calls = outcome.unresolved_calls;
    report.timings = outcome.timings;
    // Malformed inline directives fail the run the same way stale allowlist
    // entries do: a waiver that never matches is policy rot either way.
    report.stale_allows.extend(outcome.inline_allow_errors);
    let mut allow_used = vec![false; allowlist.entries.len()];
    for d in outcome.diagnostics {
        let mut waived = false;
        for (i, entry) in allowlist.entries.iter().enumerate() {
            if entry.matches(&d) {
                allow_used[i] = true;
                waived = true;
            }
        }
        if waived {
            report.allowed.push(d);
        } else {
            report.violations.push(d);
        }
    }
    for (i, entry) in allowlist.entries.iter().enumerate() {
        if !allow_used[i] {
            report.stale_allows.push(format!(
                "{} @ {}{} ({})",
                entry.rule.name(),
                entry.path,
                entry.line.map(|l| format!(":{l}")).unwrap_or_default(),
                entry.reason
            ));
        }
    }
    // Most severe first, then by location, so CI output leads with blockers.
    report.violations.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)))
    });
    report.timings.total_ms = run_start.elapsed().as_millis() as u64;
    Ok(report)
}

/// Outcome of linting a batch of in-memory sources: diagnostics surviving
/// inline waivers, plus the graph's unresolved-call count.
pub struct BatchOutcome {
    /// All findings (L1–L7, L9–L15), in per-file then cross-file order (callers
    /// that need a canonical order sort, as [`run_workspace`] does).
    pub diagnostics: Vec<Diagnostic>,
    /// See [`Report::unresolved_calls`].
    pub unresolved_calls: usize,
    /// Inline `ultra-lint: allow(...)` directives naming unknown rules —
    /// treated like stale allowlist entries by [`run_workspace`].
    pub inline_allow_errors: Vec<String>,
    /// Per-phase wall time (`total_ms` is filled by [`run_workspace`]).
    pub timings: PhaseTimings,
}

/// Everything the parallel per-file phase produces for one file. Workers
/// return these through `map_ordered`, so the merge is in file-id order
/// regardless of which worker finished first.
struct FileAnalysis {
    diags: Vec<Diagnostic>,
    model: Option<parser::FileModel>,
    allows: Vec<lexer::InlineAllow>,
    inline_allow_errors: Vec<String>,
}

/// Lints a batch of sources as one workspace: every file gets the
/// intraprocedural rules (L1–L6), and all library-classified files together
/// feed the call graph for L7, L9 and L13–L14, the taint pass for L10–L12,
/// and the symmetry pass for L15 (a panic three crates away from a serve
/// handler is only visible with the whole batch in view). Inline
/// `ultra-lint: allow(...)` directives are applied here — each diagnostic
/// against the directives of the file it landed in; `lint.toml` waivers are
/// applied by [`run_workspace`]. The per-file phase runs on the `ultra-par`
/// pool; results merge in input order, so output is identical at any
/// `ULTRA_THREADS`.
pub fn check_sources(files: &[(&str, &str)]) -> BatchOutcome {
    let mut timings = PhaseTimings::default();
    let phase_start = Instant::now();
    // Weight by source length: lex/parse cost tracks bytes, and a handful
    // of files (the parser itself, the serve handlers) dominate the tree.
    let pool = ultra_par::Pool::global();
    let per_file = pool.map_ordered_weighted(
        files,
        |(_, s)| s.len() as u64,
        |(rel_path, source)| {
            let lexed = lexer::lex(source);
            let mask = lexer::test_code_mask(&lexed.tokens);
            let ctx = FileContext {
                path: rel_path,
                tokens: &lexed.tokens,
                in_test: &mask,
                is_lib: classify_lib(rel_path),
                is_ranked_crate: classify_ranked(rel_path),
            };
            let diags = rules::check_file(&ctx);
            let model = ctx.is_lib.then(|| parser::build(rel_path, &lexed, &mask));
            let mut inline_allow_errors = Vec::new();
            for a in &lexed.allows {
                for r in &a.rules {
                    if rules::Rule::from_name(r).is_none() {
                        inline_allow_errors.push(format!(
                            "inline allow({r}) @ {rel_path}:{} names no known rule",
                            a.line
                        ));
                    }
                }
            }
            FileAnalysis {
                diags,
                model,
                allows: lexed.allows,
                inline_allow_errors,
            }
        },
    );
    timings.lex_parse_ms = phase_start.elapsed().as_millis() as u64;

    let phase_start = Instant::now();
    let mut diags = Vec::new();
    let mut models = Vec::new();
    let mut allows: Vec<(&str, Vec<lexer::InlineAllow>)> = Vec::with_capacity(files.len());
    let mut inline_allow_errors = Vec::new();
    for ((rel_path, _), fa) in files.iter().zip(per_file) {
        diags.extend(fa.diags);
        models.extend(fa.model);
        inline_allow_errors.extend(fa.inline_allow_errors);
        allows.push((rel_path, fa.allows));
    }
    let cross = callgraph::check_cross(&models);
    diags.extend(cross.diagnostics);
    diags.extend(dataflow::check_taint(&models));
    symmetry::check_symmetry(&models, &mut diags);
    // An inline directive waives its rules on the comment's own line and the
    // line that follows it (so a directive can sit above the flagged line).
    diags.retain(|d| {
        !allows.iter().any(|(path, file_allows)| {
            *path == d.path
                && file_allows.iter().any(|a| {
                    (a.line == d.line || a.line + 1 == d.line)
                        && a.rules.iter().any(|r| r == d.rule.name())
                })
        })
    });
    timings.analyze_ms = phase_start.elapsed().as_millis() as u64;
    BatchOutcome {
        diagnostics: diags,
        unresolved_calls: cross.unresolved_calls,
        inline_allow_errors,
        timings,
    }
}

/// Lints one file's source text (the unit tests' and fixtures' entry
/// point). Single-file view of [`check_sources`]: the interprocedural rules
/// see only this file's functions.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    check_sources(&[(rel_path, source)]).diagnostics
}

/// Library code: `crates/*/src/**` and the root facade `src/**`, excluding
/// per-crate `src/bin/` trees (CLI entry points may exit loudly).
fn classify_lib(rel: &str) -> bool {
    let in_src = rel.starts_with("src/")
        || (rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"));
    in_src && !rel.contains("/bin/")
}

/// Whether the file belongs to a ranked-output crate (L2's scope).
fn classify_ranked(rel: &str) -> bool {
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let Some((krate, rest)) = rest.split_once('/') else {
        return false;
    };
    RANKED_CRATES.contains(&krate) && rest.starts_with("src/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::Severity;

    #[test]
    fn classification_covers_the_workspace_layout() {
        assert!(classify_lib("crates/core/src/ranking.rs"));
        assert!(classify_lib("src/lib.rs"));
        assert!(!classify_lib("crates/bench/src/bin/expt_table1.rs"));
        assert!(!classify_lib("src/bin/ultrawiki.rs"));
        assert!(!classify_lib("tests/end_to_end.rs"));
        assert!(!classify_lib("crates/core/tests/x.rs"));

        assert!(classify_ranked("crates/core/src/ranking.rs"));
        assert!(classify_ranked("crates/eval/src/metrics.rs"));
        assert!(classify_ranked("crates/serve/src/cache.rs"));
        assert!(!classify_ranked("crates/lm/src/decode.rs"));
        assert!(!classify_ranked("crates/core/tests/x.rs"));
        assert!(!classify_ranked("tests/end_to_end.rs"));
    }

    #[test]
    fn inline_allow_waives_same_and_next_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // ultra-lint: allow(no-panic-in-lib) invariant: checked by caller\n    x.unwrap()\n}";
        assert!(check_source("crates/x/src/lib.rs", src).is_empty());
        let trailing =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // ultra-lint: allow(no-panic-in-lib) ok";
        assert!(check_source("crates/x/src/lib.rs", trailing).is_empty());
    }

    #[test]
    fn inline_allow_only_waives_named_rules() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // ultra-lint: allow(no-unseeded-rng) wrong rule\n    x.unwrap()\n}";
        let diags = check_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn report_fails_on_a_finding_of_either_severity() {
        let warn = Diagnostic {
            rule: rules::Rule::NoPanicInLib,
            severity: Severity::Warn,
            path: "p".into(),
            line: 1,
            message: String::new(),
            suggestion: "",
            chain: Vec::new(),
            origin: None,
            region: None,
        };
        let mut r = Report::default();
        assert!(!r.failed());
        r.violations.push(warn);
        assert!(r.failed());
    }
}
