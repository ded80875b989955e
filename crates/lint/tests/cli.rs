//! The `ultra-lint` binary end to end: strict exit codes, the JSON report
//! (schema v4) on a scratch workspace, the `--list-rules` registry, and
//! rejection of unknown arguments and of a `--root` without a directory.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch workspace under the target directory, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/lm/src")).expect("mkdir");
        Scratch { root }
    }

    fn write(&self, rel: &str, content: &str) {
        std::fs::write(self.root.join(rel), content).expect("write");
    }

    fn lint(&self, extra: &[&str]) -> Output {
        lint(&[&["--root", self.root.to_str().expect("utf-8 path")], extra].concat())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ultra-lint"))
        .args(args)
        .output()
        .expect("run ultra-lint")
}

/// Hash-ordered data reaching a `RankedList` two calls deep: one L10
/// finding, which is a warning. The crate (`lm`) is outside L2's scope, so
/// nothing else fires.
const TAINTED: &str = "\
fn collect(m: &HashMap<u64, f32>) -> Vec<(u64, f32)> {
    let mut out = Vec::new();
    for (k, v) in m.iter() {
        out.push((*k, *v));
    }
    out
}

fn rank(m: &HashMap<u64, f32>) -> RankedList {
    RankedList::from_sorted(collect(m))
}
";

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).expect("string field")
}

#[test]
fn a_warning_fails_the_run_and_the_json_report_carries_its_chain() {
    let ws = Scratch::new("strict");
    ws.write("crates/lm/src/lib.rs", TAINTED);

    let out = ws.lint(&["--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    let v: Value = serde_json::from_str(text.trim())
        .unwrap_or_else(|e| panic!("invalid JSON ({e:?}): {text}"));
    assert_eq!(v.get("version").and_then(Value::as_u64), Some(4));
    assert!(v.get("baseline").is_none(), "{text}");
    let timing = v.get("timing").expect("timing section");
    for phase in ["lex_parse_ms", "analyze_ms", "total_ms"] {
        assert!(
            timing.get(phase).and_then(Value::as_u64).is_some(),
            "{phase} in {timing:?}"
        );
    }
    let violations = v
        .get("violations")
        .and_then(Value::as_array)
        .expect("violations array");
    assert_eq!(violations.len(), 1, "{text}");
    let d = &violations[0];
    assert_eq!(str_field(d, "rule"), "no-tainted-ranking");
    assert_eq!(str_field(d, "severity"), "warn", "strict mode fails on it");
    assert!(d.get("new").is_none(), "{text}");
    let chain: Vec<&str> = d
        .get("chain")
        .and_then(Value::as_array)
        .expect("chain")
        .iter()
        .map(|f| str_field(f, "function"))
        .collect();
    assert_eq!(chain, ["collect", "rank"], "full chain in the JSON report");
    let origin = d.get("origin").expect("origin field");
    assert_eq!(
        origin.get("line").and_then(Value::as_u64),
        Some(3),
        "origin is the hash iteration"
    );

    // Text mode exits the same way, and a clean tree exits 0.
    assert_eq!(ws.lint(&[]).status.code(), Some(1));
    ws.write("crates/lm/src/lib.rs", "pub fn f() -> u32 { 1 }\n");
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn list_rules_prints_the_full_registry() {
    let out = lint(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|w| w.starts_with('L') && w[1..].chars().all(|c| c.is_ascii_digit()))
        .collect();
    assert_eq!(
        ids,
        ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L9", "L10", "L11", "L12", "L13"],
        "L8, L14 and L15 are retired; every other id keeps its number:\n{text}"
    );
    assert!(text.contains("no-tainted-ranking"), "{text}");
    for retired in ["lock-order", "no-guard-across-hot-loop", "serde-symmetry"] {
        assert!(!text.contains(retired), "{retired}: {text}");
    }
}

#[test]
fn retired_flags_are_unknown_arguments() {
    for args in [
        &["--baseline", "lint-baseline.json"][..],
        &["--write-baseline", "lint-baseline.json"],
        &["--allow-warnings"],
        &["--deny-warnings"],
    ] {
        let out = lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown argument `{}`", args[0])),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not lint anything");
    }
}

#[test]
fn root_without_a_directory_is_a_usage_error() {
    // Neither form may fall back to linting the default workspace, and the
    // second must not take `--format` as the directory.
    for args in [&["--root"][..], &["--root", "--format", "json"]] {
        let out = lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--root takes a directory"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not lint anything");
    }
}
