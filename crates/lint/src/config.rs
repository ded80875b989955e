//! The `lint.toml` allowlist.
//!
//! Format (a TOML subset parsed without external crates — the build
//! environment has no crates.io access):
//!
//! ```toml
//! [[allow]]
//! rule = "no-panic-in-lib"
//! path = "crates/data/src/export.rs"
//! line = 42            # optional: omit to waive the rule file-wide
//! reason = "why this is sound"
//! ```
//!
//! `[[allow]]` is the only table: any other is a [`ConfigError`]. Every
//! entry must carry a non-empty `reason`: a waiver without a
//! justification is a violation of the policy, not an exception to it.
//! Entries that match nothing are reported as stale so the allowlist cannot
//! quietly outlive the code it excuses.

use crate::rules::{Diagnostic, Rule};

/// One `[[allow]]` entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// The rule being waived.
    pub rule: Rule,
    /// Workspace-relative path the waiver applies to.
    pub path: String,
    /// Specific line, or `None` for the whole file.
    pub line: Option<u32>,
    /// Human justification (required, non-empty).
    pub reason: String,
}

impl AllowEntry {
    /// Whether this entry waives the given diagnostic.
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule && self.path == d.path && self.line.is_none_or(|l| l == d.line)
    }
}

/// Parsed `lint.toml`.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// All `[[allow]]` entries, in file order.
    pub entries: Vec<AllowEntry>,
}

/// A `lint.toml` parse failure, with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// Line the error occurred on.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

/// An `[[allow]]` entry mid-parse: optional rule/path/line/reason fields
/// plus the line number of the entry header (for error messages).
type PartialAllow = (
    Option<Rule>,
    Option<String>,
    Option<u32>,
    Option<String>,
    u32,
);

impl Allowlist {
    /// Parses the `lint.toml` text.
    pub fn parse(text: &str) -> Result<Allowlist, ConfigError> {
        let mut out = Allowlist::default();
        let mut current: Option<PartialAllow> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                finish(current.take(), &mut out)?;
                current = Some((None, None, None, None, lineno));
                continue;
            }
            if line.starts_with('[') {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown table `{line}` (only [[allow]] is supported)"),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let Some(cur) = current.as_mut() else {
                return Err(ConfigError {
                    line: lineno,
                    message: "key outside any [[allow]] entry".into(),
                });
            };
            match key {
                "rule" => {
                    let name = parse_string(value, lineno)?;
                    let rule = Rule::from_name(&name).ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!("unknown rule `{name}`"),
                    })?;
                    cur.0 = Some(rule);
                }
                "path" => cur.1 = Some(parse_string(value, lineno)?),
                "line" => {
                    let n: u32 = value.parse().map_err(|_| ConfigError {
                        line: lineno,
                        message: format!("`line` must be an integer, got `{value}`"),
                    })?;
                    cur.2 = Some(n);
                }
                "reason" => cur.3 = Some(parse_string(value, lineno)?),
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key `{other}` in [[allow]]"),
                    });
                }
            }
        }
        finish(current.take(), &mut out)?;
        Ok(out)
    }
}

/// Validates and commits the entry currently being assembled.
fn finish(cur: Option<PartialAllow>, out: &mut Allowlist) -> Result<(), ConfigError> {
    let Some((rule, path, line, reason, at)) = cur else {
        return Ok(());
    };
    let err = |message: String| ConfigError { line: at, message };
    let rule = rule.ok_or_else(|| err("entry is missing `rule`".into()))?;
    let path = path.ok_or_else(|| err("entry is missing `path`".into()))?;
    let reason = reason.ok_or_else(|| err("entry is missing `reason`".into()))?;
    if reason.trim().is_empty() {
        return Err(err("`reason` must not be empty".into()));
    }
    // A duplicated (rule, path, line) entry is rot: the second copy can
    // never match anything the first did not already waive, yet both read
    // as live policy.
    if out
        .entries
        .iter()
        .any(|e| e.rule == rule && e.path == path && e.line == line)
    {
        let at_line = line.map(|l| format!(":{l}")).unwrap_or_default();
        return Err(err(format!(
            "duplicate [[allow]] entry for `{} @ {}{}`",
            rule.name(),
            path,
            at_line
        )));
    }
    out.entries.push(AllowEntry {
        rule,
        path,
        line,
        reason,
    });
    Ok(())
}

/// Strips a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Parses a double-quoted TOML basic string (escapes limited to `\"` and
/// `\\`, which is all the allowlist needs).
fn parse_string(value: &str, line: u32) -> Result<String, ConfigError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })?;
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    #[test]
    fn parses_entries_and_matches() {
        let toml = r#"
# workspace waivers
[[allow]]
rule = "no-panic-in-lib"
path = "crates/x/src/lib.rs"
line = 10
reason = "slice length checked on the previous line"

[[allow]]
rule = "no-hash-iteration-order"
path = "crates/y/src/a.rs"
reason = "feeds a commutative integer sum"
"#;
        let list = Allowlist::parse(toml).expect("parses");
        assert_eq!(list.entries.len(), 2);
        let d = Diagnostic {
            rule: Rule::NoPanicInLib,
            severity: Severity::Warn,
            path: "crates/x/src/lib.rs".into(),
            line: 10,
            message: String::new(),
            suggestion: "",
            chain: Vec::new(),
            origin: None,
            region: None,
        };
        assert!(list.entries[0].matches(&d));
        assert!(!list.entries[1].matches(&d));
        // File-wide entry matches any line of its rule+path.
        let d2 = Diagnostic {
            rule: Rule::NoHashIterationOrder,
            severity: Severity::Error,
            path: "crates/y/src/a.rs".into(),
            line: 999,
            message: String::new(),
            suggestion: "",
            chain: Vec::new(),
            origin: None,
            region: None,
        };
        assert!(list.entries[1].matches(&d2));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let toml = "[[allow]]\nrule = \"no-panic-in-lib\"\npath = \"x.rs\"\n";
        assert!(Allowlist::parse(toml).is_err());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        // Retired rules are unknown too: a waiver naming one has rotted.
        for rule in [
            "no-such-rule",
            "lock-order",
            "no-guard-across-hot-loop",
            "serde-symmetry",
        ] {
            let toml = format!("[[allow]]\nrule = \"{rule}\"\npath = \"x.rs\"\nreason = \"r\"\n");
            let err = Allowlist::parse(&toml).unwrap_err();
            assert!(err.message.contains("unknown rule"), "{rule}");
        }
    }

    #[test]
    fn duplicate_entries_are_rejected_with_the_duplicate_location() {
        let one =
            "[[allow]]\nrule = \"no-panic-in-lib\"\npath = \"x.rs\"\nline = 7\nreason = \"a\"\n";
        let dup = format!("{one}\n{one}");
        let err = Allowlist::parse(&dup).unwrap_err();
        assert!(err.message.contains("duplicate"), "{}", err.message);
        assert_eq!(err.line, 7, "error points at the second entry's header");

        // File-wide duplicates (both without `line`) are duplicates too.
        let wide =
            "[[allow]]\nrule = \"no-wallclock-in-scoring\"\npath = \"m.rs\"\nreason = \"a\"\n";
        assert!(Allowlist::parse(&format!("{wide}\n{wide}")).is_err());

        // Same rule+path at *different* lines is two distinct waivers.
        let two_lines = "[[allow]]\nrule = \"no-panic-in-lib\"\npath = \"x.rs\"\nline = 7\nreason = \"a\"\n\
                         [[allow]]\nrule = \"no-panic-in-lib\"\npath = \"x.rs\"\nline = 9\nreason = \"b\"\n";
        assert_eq!(Allowlist::parse(two_lines).expect("ok").entries.len(), 2);
    }

    #[test]
    fn empty_and_comment_only_files_parse() {
        assert!(Allowlist::parse("").expect("ok").entries.is_empty());
        assert!(Allowlist::parse("# nothing\n")
            .expect("ok")
            .entries
            .is_empty());
    }

    #[test]
    fn only_the_allow_table_is_accepted() {
        for table in ["[[sanitizer]]", "[[symmetry_pair]]"] {
            let toml = format!(
                "[[allow]]\nrule = \"no-panic-in-lib\"\npath = \"x.rs\"\nreason = \"r\"\n\n\
                 {table}\nfunction = \"f\"\nreason = \"r\"\n"
            );
            let err = Allowlist::parse(&toml).unwrap_err();
            assert_eq!(err.line, 6, "points at the table header");
            assert!(err.message.contains("unknown table"), "{}", err.message);
            assert!(err.message.contains(table), "{}", err.message);
        }
    }
}
