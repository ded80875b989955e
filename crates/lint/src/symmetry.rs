//! Serialization-symmetry checking: **L15 `serde-symmetry`**.
//!
//! The hand-rolled `USNP` byte formats are written and read by paired
//! functions (`to_bytes`/`from_bytes`, `write_header`/`read_header`). A
//! width drift between the two sides — write `u32`, read `u64` — corrupts
//! every field after it and is only caught today by corruption tests
//! *after* the bug ships. This pass catches it statically: pair the
//! writer/reader functions, lower each side to its ordered sequence of
//! primitive-width operations over the [`crate::dataflow::FnFlow`] IR, and
//! diff the sequences.
//!
//! **Pairing.** By convention within one file: `to_bytes` ↔ `from_bytes`
//! (matched per `impl` target, so two types in one file pair correctly)
//! and `write_X` ↔ `read_X` for any suffix `X`. Every serializer pair in
//! the workspace follows one of the two conventions.
//!
//! **Width ops.** A call contributes an op when its name is a primitive
//! width (`u8`…`u128`, `i8`…`i16`, `f32`, `f64`) called as a method
//! (`w.u32(..)`, `r.f64()?`), or carries a `read_`/`write_` width prefix
//! (`read_u32(..)`), or is `bytes`/`take` on a receiver typed
//! `ByteWriter`/`ByteReader` (variable-length payloads). Extraction is
//! intra-function: helpers called by a writer contribute nothing. A side
//! that lowers to *zero* ops is therefore treated as opaque (it delegates
//! all byte work — the IVF writer appends to a raw `Vec`, the snapshot
//! reader parses through `scan_structure`), not as an empty sequence, and
//! the pair is skipped: there is no visible sequence to diff against.
//!
//! **Diff.** First divergence wins, one finding per pair: a width
//! mismatch at the same position, a field *reorder* (same widths, both
//! sides label the position, and the labels appear swapped), a
//! written-but-never-read suffix, or a read-but-never-written suffix. Both
//! sites are reported: the diagnostic points at the writer op, `origin` at
//! the reader op, and the `region` span names the reader function. Loops
//! are tolerated asymmetrically (a `for` writing N floats pairs with a
//! counted reading loop) — repetition counts are a dynamic property the
//! IR cannot see.

use crate::dataflow::{Call, Expr, Stmt, StmtKind};
use crate::parser::{FileModel, FnDef};
use crate::rules::{Diagnostic, RegionSpan, Rule, TaintOrigin};

/// One primitive-width operation in a function's byte sequence.
struct WidthOp {
    /// Width label: `u8`…`f64`, or `bytes` for variable-length payloads.
    width: &'static str,
    /// Field label when recoverable: the reader's single `let` binding or
    /// the writer's argument identifier/getter.
    label: Option<String>,
    /// 1-based line of the op.
    line: u32,
}

const WIDTH_NAMES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32", "f64",
];

/// The width a call name denotes, if any.
fn width_name(name: &str) -> Option<&'static str> {
    let bare = name
        .strip_prefix("read_")
        .or_else(|| name.strip_prefix("write_"))
        .unwrap_or(name);
    WIDTH_NAMES.iter().find(|w| **w == bare).copied()
}

/// Whether a call contributes a width op for function `f`.
fn op_width(c: &Call, f: &FnDef) -> Option<&'static str> {
    if let Some(w) = width_name(&c.name) {
        // Prefixed names (`read_u32`) stand alone; pure width names must be
        // method calls (`r.u32()`), which excludes `u32::from(..)`-style
        // qualified constructors.
        if c.name.starts_with("read_") || c.name.starts_with("write_") || c.receiver.is_some() {
            return Some(w);
        }
        return None;
    }
    if c.name == "bytes" || c.name == "take" {
        let cursor = c
            .receiver
            .as_deref()
            .and_then(|r| f.local_types.iter().find(|(n, _)| n == r))
            .is_some_and(|(_, t)| t == "ByteWriter" || t == "ByteReader");
        if cursor {
            return Some("bytes");
        }
    }
    None
}

/// Best-effort field label for one op: the reader's single-let binding,
/// else the writer's first argument call (getter) or identifier.
fn label_for(c: &Call, stmt: &Stmt) -> Option<String> {
    if stmt.kind == StmtKind::Let && stmt.bound.len() == 1 {
        return Some(stmt.bound[0].clone());
    }
    let a = c.args.first()?;
    if let Some(call) = a.calls.first() {
        return Some(call.name.clone());
    }
    a.idents.iter().find(|id| *id != "self").cloned()
}

fn walk_expr(e: &Expr, stmt: &Stmt, f: &FnDef, ops: &mut Vec<WidthOp>) {
    for c in &e.calls {
        if let Some(width) = op_width(c, f) {
            ops.push(WidthOp {
                width,
                label: label_for(c, stmt),
                line: c.line,
            });
        }
        for a in &c.args {
            walk_expr(a, stmt, f, ops);
        }
    }
}

/// Lowers one function to its ordered width-op sequence.
fn collect_ops(f: &FnDef) -> Vec<WidthOp> {
    let mut ops = Vec::new();
    for stmt in &f.flow.stmts {
        walk_expr(&stmt.expr, stmt, f, &mut ops);
    }
    ops
}

/// A resolved pair: (file, fn) of each side.
type Pair = ((usize, usize), (usize, usize));

/// Convention pairs within one file: `to_bytes`/`from_bytes` per impl
/// target, `write_X`/`read_X` per suffix.
fn convention_pairs(models: &[FileModel]) -> Vec<Pair> {
    let mut out = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        for (wj, wf) in m.fns.iter().enumerate() {
            if wf.in_test {
                continue;
            }
            let reader_name = if wf.name == "to_bytes" {
                "from_bytes".to_string()
            } else if let Some(suffix) = wf.name.strip_prefix("write_") {
                format!("read_{suffix}")
            } else {
                continue;
            };
            // Same file, same impl target (both None for free fns).
            let mut hits = m.fns.iter().enumerate().filter(|(_, rf)| {
                !rf.in_test && rf.name == reader_name && rf.self_type == wf.self_type
            });
            if let Some((rj, _)) = hits.next() {
                if hits.next().is_none() {
                    out.push(((fi, wj), (fi, rj)));
                }
            }
        }
    }
    out
}

/// Runs L15 over every paired writer/reader.
pub(crate) fn check_symmetry(models: &[FileModel], out: &mut Vec<Diagnostic>) {
    for (w_id, r_id) in convention_pairs(models) {
        let (wm, wf) = (&models[w_id.0], &models[w_id.0].fns[w_id.1]);
        let (rm, rf) = (&models[r_id.0], &models[r_id.0].fns[r_id.1]);
        let w_ops = collect_ops(wf);
        let r_ops = collect_ops(rf);
        // A zero-op side is opaque (fully delegating), not empty — skip.
        if w_ops.is_empty() || r_ops.is_empty() {
            continue;
        }
        if let Some(d) = diff_pair(wm, wf, &w_ops, rm, rf, &r_ops) {
            out.push(d);
        }
    }
}

/// Diffs one pair's sequences; at most one finding (first divergence).
fn diff_pair(
    wm: &FileModel,
    wf: &FnDef,
    w_ops: &[WidthOp],
    rm: &FileModel,
    rf: &FnDef,
    r_ops: &[WidthOp],
) -> Option<Diagnostic> {
    let pair_name = format!("`{}` ↔ `{}`", wf.name, rf.name);
    let reader_region = || {
        Some(RegionSpan {
            label: format!("reader `{}`", rf.name),
            path: rm.path.clone(),
            start_line: rf.line,
            end_line: rf.end_line,
        })
    };
    let reader_origin = |line: u32, desc: String| {
        Some(TaintOrigin {
            desc,
            path: rm.path.clone(),
            line,
        })
    };
    let diag = |line: u32, message: String, origin: Option<TaintOrigin>| Diagnostic {
        rule: Rule::SerdeSymmetry,
        severity: Rule::SerdeSymmetry.severity(),
        path: wm.path.clone(),
        line,
        message,
        suggestion: "make the reader mirror the writer field-for-field (same widths, same \
                     order); bump the format version if the layout must change",
        chain: Vec::new(),
        origin,
        region: reader_region(),
    };

    let n = w_ops.len().min(r_ops.len());
    for i in 0..n {
        let (w, r) = (&w_ops[i], &r_ops[i]);
        if w.width != r.width {
            let wl = w
                .label
                .as_deref()
                .map(|l| format!(" (`{l}`)"))
                .unwrap_or_default();
            return Some(diag(
                w.line,
                format!(
                    "pair {pair_name}: writer writes `{}`{wl} at op #{} but reader reads \
                     `{}` ({}:{}) — every later field is decoded from shifted bytes",
                    w.width,
                    i + 1,
                    r.width,
                    rm.path,
                    r.line,
                ),
                reader_origin(r.line, format!("reader expects `{}` here", r.width)),
            ));
        }
        if let (Some(wl), Some(rl)) = (w.label.as_deref(), r.label.as_deref()) {
            if wl != rl {
                let w_has_rl = w_ops.iter().any(|o| o.label.as_deref() == Some(rl));
                let r_has_wl = r_ops.iter().any(|o| o.label.as_deref() == Some(wl));
                if w_has_rl && r_has_wl {
                    return Some(diag(
                        w.line,
                        format!(
                            "pair {pair_name}: field order diverges at op #{} — writer \
                             writes `{wl}` but reader reads `{rl}` ({}:{})",
                            i + 1,
                            rm.path,
                            r.line,
                        ),
                        reader_origin(r.line, format!("reader reads `{rl}` here")),
                    ));
                }
            }
        }
    }
    if w_ops.len() > r_ops.len() {
        let w = &w_ops[n];
        let wl = w
            .label
            .as_deref()
            .map(|l| format!(" (`{l}`)"))
            .unwrap_or_default();
        return Some(diag(
            w.line,
            format!(
                "pair {pair_name}: writer writes `{}`{wl} at op #{} but reader `{}` \
                 ({}:{}) stops after {} ops — written but never read",
                w.width,
                n + 1,
                rf.name,
                rm.path,
                rf.line,
                r_ops.len(),
            ),
            reader_origin(rf.end_line, "reader ends here".to_string()),
        ));
    }
    if r_ops.len() > w_ops.len() {
        let r = &r_ops[n];
        let rl = r
            .label
            .as_deref()
            .map(|l| format!(" (`{l}`)"))
            .unwrap_or_default();
        return Some(diag(
            wf.line,
            format!(
                "pair {pair_name}: reader reads `{}`{rl} at op #{} ({}:{}) but writer \
                 `{}` only writes {} ops — read past the written payload",
                r.width,
                n + 1,
                rm.path,
                r.line,
                wf.name,
                w_ops.len(),
            ),
            reader_origin(r.line, format!("reader expects `{}` here", r.width)),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_code_mask};
    use crate::parser;

    fn diags(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let mask = test_code_mask(&lexed.tokens);
        let models = [parser::build("crates/core/src/fmt.rs", &lexed, &mask)];
        let mut out = Vec::new();
        check_symmetry(&models, &mut out);
        out
    }

    const CLEAN: &str = "impl M {\n\
                         fn to_bytes(&self, w: &mut ByteWriter) {\n\
                         w.u32(self.rows() as u32);\n\
                         w.u32(self.cols() as u32);\n\
                         for v in &self.data { w.f32(*v); }\n\
                         }\n\
                         fn from_bytes(r: &mut ByteReader) -> M {\n\
                         let rows = r.u32()? as usize;\n\
                         let cols = r.u32()? as usize;\n\
                         for i in 0..rows { data.push(r.f32()?); }\n\
                         M { rows, cols, data }\n\
                         }\n\
                         }";

    #[test]
    fn symmetric_pair_is_quiet() {
        assert!(diags(CLEAN).is_empty(), "{:?}", diags(CLEAN));
    }

    #[test]
    fn width_mismatch_is_flagged_with_both_sites() {
        let src = CLEAN.replace(
            "let cols = r.u32()? as usize;",
            "let cols = r.u64()? as usize;",
        );
        let out = diags(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        let d = &out[0];
        assert_eq!(d.rule, Rule::SerdeSymmetry);
        assert_eq!(d.line, 4, "writer op site");
        assert!(d.message.contains("`u32`") && d.message.contains("`u64`"));
        assert_eq!(d.origin.as_ref().unwrap().line, 9, "reader op site");
        assert!(d.region.as_ref().unwrap().label.contains("from_bytes"));
    }

    #[test]
    fn written_but_never_read_is_flagged() {
        let src = CLEAN.replace("for i in 0..rows { data.push(r.f32()?); }\n", "");
        let out = diags(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("written but never read"));
    }

    #[test]
    fn reordered_fields_are_flagged() {
        let src = "fn write_hdr(w: &mut ByteWriter, rows: u32, cols: u32) {\n\
                   w.u32(rows);\n\
                   w.u32(cols);\n\
                   }\n\
                   fn read_hdr(r: &mut ByteReader) -> (u32, u32) {\n\
                   let cols = r.u32()?;\n\
                   let rows = r.u32()?;\n\
                   (rows, cols)\n\
                   }";
        let out = diags(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("field order diverges"), "{out:?}");
    }

    #[test]
    fn two_impls_in_one_file_pair_by_self_type() {
        let src = "impl A {\n\
                   fn to_bytes(&self, w: &mut ByteWriter) { w.u32(self.n); }\n\
                   fn from_bytes(r: &mut ByteReader) -> A { let n = r.u32()?; A { n } }\n\
                   }\n\
                   impl B {\n\
                   fn to_bytes(&self, w: &mut ByteWriter) { w.u64(self.m); }\n\
                   fn from_bytes(r: &mut ByteReader) -> B { let m = r.u64()?; B { m } }\n\
                   }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }
}
