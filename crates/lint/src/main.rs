//! CLI entry point:
//! `cargo run -p ultra-lint [-- --root <dir>] [--format json|text] [--list-rules]`.
//!
//! Exit codes: 0 = clean, 1 = an unwaived finding of any severity or a
//! stale allowlist entry, 2 = analyzer/config error or a bad argument.
//! Tier-1 runs the same check through the root package's
//! `tests/lint_gate.rs`.

use std::path::PathBuf;
use ultra_lint::rules::{Rule, Severity};
use ultra_lint::{run_workspace, Report};

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) if !dir.starts_with("--") => root = Some(PathBuf::from(dir)),
                other => {
                    eprintln!(
                        "ultra-lint: --root takes a directory, got `{}`",
                        other.as_deref().unwrap_or("<none>")
                    );
                    std::process::exit(2);
                }
            },
            "--list-rules" => {
                print!("{}", list_rules());
                return;
            }
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "ultra-lint: --format takes `json` or `text`, got `{}`",
                        other.unwrap_or("<none>")
                    );
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "ultra-lint: determinism & panic-safety analyzer\n\n\
                     USAGE: ultra-lint [--root <dir>] [--format json|text] [--list-rules]\n\n\
                     Scans every .rs file under the workspace root (default:\n\
                     the directory containing this crate's workspace) and\n\
                     enforces rules L1-L7 and L9-L13 (L7 and L9 run over a\n\
                     workspace call graph, L2 and L10-L12 over an\n\
                     interprocedural taint dataflow, L13 over lock-guard live\n\
                     ranges); `--list-rules` prints the rule table, README.md\n\
                     has the details and lint.toml the audited allowlist. Any\n\
                     unwaived finding fails the run.\n\n\
                     `--format json` emits a stable machine-readable report\n\
                     on stdout."
                );
                return;
            }
            other => {
                eprintln!("ultra-lint: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        // crates/lint -> workspace root.
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let report = match run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ultra-lint: {e}");
            std::process::exit(2);
        }
    };

    if json {
        println!("{}", render_json(&report));
    } else {
        render_text(&report);
    }
    if report.failed() {
        std::process::exit(1);
    }
}

/// The `--list-rules` table (also asserted against the registry in tests).
fn list_rules() -> String {
    let mut out = String::from("ID   NAME                           SEVERITY  SCOPE\n");
    for rule in Rule::ALL {
        out.push_str(&format!(
            "{:<4} {:<30} {:<9} {}\n         {}\n",
            rule.id(),
            rule.name(),
            rule.severity().to_string(),
            rule.scope(),
            rule.describe(),
        ));
    }
    out
}

fn render_text(report: &Report) {
    for d in &report.violations {
        println!("{d}");
    }
    for s in &report.stale_allows {
        println!("lint.toml: stale allowlist entry: {s}");
    }
    let errors = report
        .violations
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warns = report.violations.len() - errors;
    println!(
        "ultra-lint: {} files scanned, {errors} errors, {warns} warnings, {} allowed, \
         {} stale allowlist entries, {} unresolved calls",
        report.files_scanned,
        report.allowed.len(),
        report.stale_allows.len(),
        report.unresolved_calls
    );
}

/// Renders the report as JSON. Schema v4:
///
/// ```json
/// {"version":4,
///  "files_scanned":N, "allowed":N, "unresolved_calls":N,
///  "timing":{"lex_parse_ms":N,"analyze_ms":N,"total_ms":N},
///  "violations":[{"rule":"...","severity":"...","path":"...","line":N,
///                 "message":"...","suggestion":"...",
///                 "origin":{"desc":"...","path":"...","line":N} | null,
///                 "region":{"label":"...","path":"...",
///                           "start_line":N,"end_line":N} | null,
///                 "chain":[{"function":"...","path":"...","line":N}]}],
///  "stale_allows":["..."]}
/// ```
///
/// v2 over v1: `origin` on every violation (the taint source for L10, the
/// guard acquisition for L13, null otherwise). v3 over v2: `region` (the
/// guard live range for L13, null otherwise) and the `timing` section —
/// timing appears *only* here, never in the text report, which stays
/// byte-identical across thread counts. v4 over v3: the
/// differential-baseline fields (`new` on each violation, the top-level
/// `baseline` summary) are gone, and rule `lock-order` no longer appears.
/// The retired `no-guard-across-hot-loop` and `serde-symmetry` rules no
/// longer appear either; no field changed, so the version stays 4.
/// Hand-rolled (no crates.io in the build image); strings are escaped per
/// RFC 8259.
fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"version\":4");
    out.push_str(&format!(",\"files_scanned\":{}", report.files_scanned));
    out.push_str(&format!(",\"allowed\":{}", report.allowed.len()));
    out.push_str(&format!(
        ",\"unresolved_calls\":{}",
        report.unresolved_calls
    ));
    out.push_str(&format!(
        ",\"timing\":{{\"lex_parse_ms\":{},\"analyze_ms\":{},\"total_ms\":{}}}",
        report.timings.lex_parse_ms, report.timings.analyze_ms, report.timings.total_ms
    ));
    out.push_str(",\"violations\":[");
    for (i, d) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"severity\":{},\"path\":{},\"line\":{},\"message\":{},\"suggestion\":{}",
            json_str(d.rule.name()),
            json_str(&d.severity.to_string()),
            json_str(&d.path),
            d.line,
            json_str(&d.message),
            json_str(d.suggestion),
        ));
        match &d.origin {
            Some(o) => out.push_str(&format!(
                ",\"origin\":{{\"desc\":{},\"path\":{},\"line\":{}}}",
                json_str(&o.desc),
                json_str(&o.path),
                o.line
            )),
            None => out.push_str(",\"origin\":null"),
        }
        match &d.region {
            Some(r) => out.push_str(&format!(
                ",\"region\":{{\"label\":{},\"path\":{},\"start_line\":{},\"end_line\":{}}}",
                json_str(&r.label),
                json_str(&r.path),
                r.start_line,
                r.end_line
            )),
            None => out.push_str(",\"region\":null"),
        }
        out.push_str(",\"chain\":[");
        for (j, frame) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"function\":{},\"path\":{},\"line\":{}}}",
                json_str(&frame.function),
                json_str(&frame.path),
                frame.line
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"stale_allows\":[");
    for (i, s) in report.stale_allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(s));
    }
    out.push_str("]}");
    out
}

/// JSON string literal with RFC 8259 escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_lint::rules::{ChainFrame, Diagnostic, RegionSpan, Rule, TaintOrigin};

    fn sample_report() -> Report {
        Report {
            violations: vec![
                Diagnostic {
                    rule: Rule::NoPanicReachableFromServe,
                    severity: Severity::Warn,
                    path: "crates/serve/src/cache.rs".into(),
                    line: 130,
                    message: "indexing `shards[..]` panics out of bounds".into(),
                    suggestion: "bound it",
                    chain: vec![ChainFrame {
                        function: "handle_expand".into(),
                        path: "crates/serve/src/server.rs".into(),
                        line: 279,
                    }],
                    origin: None,
                    region: None,
                },
                Diagnostic {
                    rule: Rule::NoTaintedRanking,
                    severity: Severity::Warn,
                    path: "crates/core/src/ranking.rs".into(),
                    line: 51,
                    message: "RankedList receives hash-ordered data".into(),
                    suggestion: "sort first",
                    chain: Vec::new(),
                    origin: Some(TaintOrigin {
                        desc: "iteration over hash-ordered `m`".into(),
                        path: "crates/core/src/scores.rs".into(),
                        line: 12,
                    }),
                    region: Some(RegionSpan {
                        label: "guard `shards` live".into(),
                        path: "crates/core/src/ranking.rs".into(),
                        start_line: 49,
                        end_line: 58,
                    }),
                },
            ],
            allowed: Vec::new(),
            stale_allows: vec!["no-panic-in-lib @ x.rs (gone)".into()],
            files_scanned: 3,
            unresolved_calls: 7,
            timings: ultra_lint::PhaseTimings {
                lex_parse_ms: 12,
                analyze_ms: 34,
                total_ms: 56,
            },
        }
    }

    #[test]
    fn json_escaping_is_rfc8259() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_report_round_trips_through_serde() {
        let report = sample_report();
        let text = render_json(&report);
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let num = |v: &serde_json::Value, k: &str| v.get(k).and_then(serde_json::Value::as_u64);
        assert_eq!(num(&value, "version"), Some(4));
        assert_eq!(num(&value, "files_scanned"), Some(3));
        assert_eq!(num(&value, "unresolved_calls"), Some(7));
        let timing = value.get("timing").expect("timing section");
        assert_eq!(
            timing
                .get("lex_parse_ms")
                .and_then(serde_json::Value::as_u64),
            Some(12)
        );
        assert_eq!(
            timing.get("total_ms").and_then(serde_json::Value::as_u64),
            Some(56)
        );
        let violations = value
            .get("violations")
            .and_then(|v| v.as_array())
            .expect("violations");
        assert_eq!(violations.len(), 2);
        assert_eq!(
            violations[0]
                .get("rule")
                .and_then(serde_json::Value::as_str),
            Some("no-panic-reachable-from-serve")
        );
        assert!(violations[0].get("origin").expect("origin key").is_null());
        let frame = violations[0]
            .get("chain")
            .and_then(|v| v.as_array())
            .and_then(|v| v.first())
            .expect("one chain frame");
        assert_eq!(
            frame.get("function").and_then(serde_json::Value::as_str),
            Some("handle_expand")
        );
        let origin = violations[1].get("origin").expect("taint origin");
        assert_eq!(
            origin.get("line").and_then(serde_json::Value::as_u64),
            Some(12)
        );
        assert!(violations[0].get("region").expect("region key").is_null());
        let region = violations[1].get("region").expect("region object");
        assert_eq!(
            region.get("label").and_then(serde_json::Value::as_str),
            Some("guard `shards` live")
        );
        assert_eq!(
            region.get("start_line").and_then(serde_json::Value::as_u64),
            Some(49)
        );
        assert_eq!(
            region.get("end_line").and_then(serde_json::Value::as_u64),
            Some(58)
        );
        assert_eq!(
            value
                .get("stale_allows")
                .and_then(|v| v.as_array())
                .and_then(|v| v.first())
                .and_then(serde_json::Value::as_str),
            Some("no-panic-in-lib @ x.rs (gone)")
        );
    }

    #[test]
    fn list_rules_table_matches_the_registry() {
        let table = list_rules();
        for rule in Rule::ALL {
            assert!(table.contains(rule.id()), "missing id {}", rule.id());
            assert!(table.contains(rule.name()), "missing name {}", rule.name());
            assert!(
                table.contains(rule.describe()),
                "missing description for {}",
                rule.id()
            );
        }
        assert_eq!(
            table.lines().count(),
            1 + 2 * Rule::ALL.len(),
            "header plus two lines per rule"
        );
    }
}
