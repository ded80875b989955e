//! Tier-1 gate: the workspace must be `ultra-lint`-clean.
//!
//! This is the only in-test whole-workspace run (`cargo run -p ultra-lint`
//! is the CLI twin). It rides the root package's test suite so a plain
//! `cargo test` from the repository root cannot pass with an unwaived
//! finding of any severity, a stale allowlist entry, or a call graph that
//! went blind.

#[test]
fn workspace_has_no_lint_violations() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = ultra_lint::run_workspace(root).expect("ultra-lint run");
    assert!(
        report.files_scanned > 50,
        "expected to scan the whole workspace, saw only {} files",
        report.files_scanned
    );
    assert!(
        !report.failed(),
        "ultra-lint violations:\n{}\nstale allowlist entries:\n{}",
        report
            .violations
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
        report.stale_allows.join("\n")
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale allowlist entries:\n{}",
        report.stale_allows.join("\n")
    );
    // The call-graph resolver leaves method calls and std/vendored paths
    // unresolved by design, but the count should stay close to today's
    // measurement (3419 on this tree; the ceiling is that + 10%, and
    // deleting code only lowers the count). The typed-receiver resolution
    // layer classifies foreign-type method calls as external rather than
    // unresolved, so a jump past this ceiling means name resolution
    // regressed and the interprocedural rules (L7, L10-L13) are silently
    // going blind.
    assert!(
        report.unresolved_calls < 3761,
        "unresolved call count exploded: {} (was 3419); \
         did callgraph resolution regress?",
        report.unresolved_calls
    );
}
