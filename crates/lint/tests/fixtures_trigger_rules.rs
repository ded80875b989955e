//! Each fixture under `tests/fixtures/` must trigger exactly its rule's
//! expected findings — this pins both directions: the rules fire on real
//! violations, and they stay quiet on the adjacent compliant code.

use std::path::Path;
use ultra_lint::check_source;
use ultra_lint::rules::Rule;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Fixtures are checked as if they were library files inside a
/// ranked-output crate, so every rule's scope applies.
fn check(name: &str) -> Vec<(Rule, u32)> {
    let diags = check_source(&format!("crates/core/src/{name}"), &fixture(name));
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn l1_fixture_fires_twice_outside_tests() {
    let hits = check("l1_unseeded_rng.rs");
    let l1: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoUnseededRng)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l1,
        vec![5, 6],
        "thread_rng + from_entropy, not the test mod"
    );
}

#[test]
fn l2_fixture_fires_on_each_iteration_site() {
    let hits = check("l2_hash_iteration.rs");
    let l2: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoHashIterationOrder)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l2,
        vec![12, 21, 25, 38, 42],
        "for-loop, .iter() on a set, .keys() on a field, then a for-loop and \
         .keys() on a `&HashMap` parameter; the BTreeMap `m` stays quiet"
    );
}

#[test]
fn l3_fixture_fires_on_each_comparator() {
    let hits = check("l3_nan_unwrap_sort.rs");
    let l3: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoNanUnwrapSort)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l3,
        vec![5, 10, 16, 25, 26],
        "sort_by, sort_unstable_by, max_by, then unstable sort and select on one float key"
    );
}

#[test]
fn l4_fixture_fires_on_unwraps_and_macros() {
    let hits = check("l4_panic_in_lib.rs");
    let l4: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoPanicInLib)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l4,
        vec![5, 6, 12, 14],
        "unwrap, expect, panic!, unreachable! — but no *_or variants, no tests"
    );
}

#[test]
fn l5_fixture_fires_on_clock_reads_only() {
    let hits = check("l5_wallclock.rs");
    let l5: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoWallclockInScoring)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l5,
        vec![7, 14],
        "Instant::now and SystemTime::now, not the use item"
    );
}

#[test]
fn l6_fixture_fires_on_spawning_constructs_only() {
    let hits = check("l6_raw_thread_spawn.rs");
    let l6: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoRawThreadSpawn)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l6,
        vec![6, 8, 16],
        "spawn, scope, Builder — not sleep/available_parallelism, not tests"
    );
}

#[test]
fn l6_fixture_is_quiet_inside_the_execution_layer() {
    let diags =
        ultra_lint::check_source("crates/par/src/lib.rs", &fixture("l6_raw_thread_spawn.rs"));
    assert!(diags.iter().all(|d| d.rule != Rule::NoRawThreadSpawn));
}

#[test]
fn l7_fixture_reports_the_three_deep_chain_and_spares_the_guarded_branch() {
    // Checked as a serve API file so `handle_*` functions count as entries.
    let diags = check_source("crates/serve/src/api.rs", &fixture("l7_panic_chain.rs"));
    let l7: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::NoPanicReachableFromServe)
        .collect();
    assert_eq!(l7.len(), 1, "{diags:?}");
    let d = l7[0];
    assert_eq!(d.line, 13, "the unwrap three calls below the entry");
    let names: Vec<&str> = d.chain.iter().map(|c| c.function.as_str()).collect();
    assert_eq!(
        names,
        vec!["handle_widget", "step_one", "step_two"],
        "full entry-to-panic chain; `handle_contained`'s guarded subtree is quiet"
    );
    // The rendered diagnostic carries the chain for humans too.
    assert!(format!("{d}").contains("handle_widget"));
}

#[test]
fn l8_fixture_reports_the_order_inversion_once() {
    // Lock order is L13's: each held-while-acquiring pair is reported, so
    // the inversion shows at both of its sites (14 and 20), and
    // `consistent` repeats the `alpha`-then-`beta` pair (26).
    let diags = check_source("crates/serve/src/pair.rs", &fixture("l8_lock_order.rs"));
    let l13: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::NoBlockingUnderLock)
        .collect();
    let lines: Vec<u32> = l13.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![14, 20, 26], "{diags:#?}");
    for (d, (held, taken)) in
        l13.iter()
            .zip([("alpha", "beta"), ("beta", "alpha"), ("alpha", "beta")])
    {
        assert!(
            d.message
                .contains(&format!("lock `{taken}` acquired while guard `{held}`")),
            "{}",
            d.message
        );
    }
}

#[test]
fn l9_fixture_fires_on_each_loop_allocation_in_the_hot_fn_only() {
    let hits = check("l9_hot_alloc.rs");
    let l9: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::NoAllocInHotLoop)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l9,
        vec![8, 9],
        "push + format! in the hot loop; the cold twin stays quiet"
    );
}

#[test]
fn fixtures_outside_lib_scope_relax_scoped_rules() {
    // The same L4 fixture seen as a test file produces no panic findings…
    let as_test = check_source("tests/l4_panic_in_lib.rs", &fixture("l4_panic_in_lib.rs"));
    assert!(as_test.iter().all(|d| d.rule != Rule::NoPanicInLib));
    // …and the L2 fixture outside a ranked crate produces no order findings.
    let as_lm = check_source("crates/lm/src/l2.rs", &fixture("l2_hash_iteration.rs"));
    assert!(as_lm.iter().all(|d| d.rule != Rule::NoHashIterationOrder));
}

#[test]
fn l10_fixture_reports_the_three_deep_taint_chain_and_spares_the_sorted_twin() {
    let diags = check_source("crates/core/src/l10.rs", &fixture("l10_tainted_ranking.rs"));
    let l10: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::NoTaintedRanking)
        .collect();
    let lines: Vec<u32> = l10.iter().map(|d| d.line).collect();
    assert_eq!(
        lines,
        vec![19, 31],
        "the chain and the ascribed `let`: {diags:#?}"
    );
    let d = l10[0];
    let names: Vec<&str> = d.chain.iter().map(|c| c.function.as_str()).collect();
    assert_eq!(
        names,
        vec!["collect_scores", "assemble", "rank"],
        "full source-to-sink chain; `rank_sorted` stays quiet"
    );
    let origin = d.origin.as_ref().expect("L10 carries a taint origin");
    assert_eq!(origin.line, 6, "origin is the hash iteration");
    assert!(origin.desc.contains("hash-ordered"), "{}", origin.desc);
    // The rendered diagnostic tells the whole story for humans too.
    let text = format!("{d}");
    assert!(text.contains("source:"), "{text}");
    assert!(text.contains("collect_scores"), "{text}");
    assert!(text.contains("assemble"), "{text}");
    // `let v: Vec<(u64, f32)> = m.iter()…collect();` keeps its right-hand
    // side: the `>` before `=` closes the ascribed type, not a `>=`.
    let ascribed = l10[1];
    assert_eq!(ascribed.origin.as_ref().expect("origin").line, 30);
    let names: Vec<&str> = ascribed.chain.iter().map(|c| c.function.as_str()).collect();
    assert_eq!(names, vec!["rank_ascribed"]);
}

#[test]
fn l11_fixture_fires_on_underived_seeds_only() {
    let hits = check("l11_unseeded_construction.rs");
    let l11: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::SeededRngOnly)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l11,
        vec![5, 9],
        "raw argument + hardcoded literal; the cfg/query-derived twins are quiet"
    );
}

#[test]
fn l13_fixture_flags_blocking_and_nesting_but_not_the_dropped_guard() {
    let diags = check_source(
        "crates/core/src/l13.rs",
        &fixture("l13_blocking_under_lock.rs"),
    );
    let l13: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::NoBlockingUnderLock)
        .collect();
    let mut sinks: Vec<u32> = l13.iter().map(|d| d.line).collect();
    sinks.sort_unstable();
    assert_eq!(
        sinks,
        vec![15, 30, 45, 57],
        "direct sleep, match-temporary sleep, nested `side` lock, callee sleep: {l13:#?}"
    );
    // The early-drop twin must NOT fire: no finding originates at its
    // guard acquisition (line 20), because `drop(g)` ends the live range
    // before the sleep.
    assert!(
        l13.iter()
            .all(|d| d.origin.as_ref().is_some_and(|o| o.line != 20)),
        "guard-dropped-early false positive: {l13:#?}"
    );
    // The match-temporary guard fires with its acquisition as origin and
    // its arm braces as the live range.
    let tmp = l13.iter().find(|d| d.line == 30).expect("match arm sink");
    assert_eq!(tmp.origin.as_ref().expect("origin").line, 28);
    let region = tmp.region.as_ref().expect("region");
    assert!(region.label.contains("state"), "{}", region.label);
    assert!(
        region.start_line <= 29 && region.end_line >= 34,
        "live range spans the match arms: {region:?}"
    );
    // The interprocedural case carries the caller→callee chain.
    let deep = l13.iter().find(|d| d.line == 57).expect("callee sink");
    let names: Vec<&str> = deep.chain.iter().map(|c| c.function.as_str()).collect();
    assert_eq!(names, vec!["blocks_in_a_callee", "slow_helper"]);
    // And the nested acquisition names both locks.
    let nested = l13.iter().find(|d| d.line == 45).expect("nested lock");
    assert!(
        nested.message.contains("`side`") && nested.message.contains("`state`"),
        "{}",
        nested.message
    );
}

#[test]
fn l12_fixture_fires_on_the_hash_ordered_float_reduction_only() {
    let hits = check("l12_unordered_float_reduction.rs");
    let l12: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| *r == Rule::OrderedFloatReduction)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        l12,
        vec![7, 33, 44],
        "float += over the HashMap (plain, in a match arm, after a label); \
         BTreeMap and integer twins are quiet"
    );
    let diags = check_source(
        "crates/core/src/l12.rs",
        &fixture("l12_unordered_float_reduction.rs"),
    );
    let d = diags
        .iter()
        .find(|d| d.rule == Rule::OrderedFloatReduction)
        .expect("l12 finding");
    assert!(
        d.message.contains("line 6"),
        "names the loop: {}",
        d.message
    );
}
