// Fixture: L3 no-nan-unwrap-sort must flag partial_cmp-based comparators
// that unwrap or default on NaN.

fn sort_panics_on_nan(v: &mut Vec<f64>) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // <- violation
}

fn sort_breaks_total_order(v: &mut [(u32, f32)]) {
    v.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1) // <- violation
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn max_by_panics(v: &[f64]) -> Option<&f64> {
    v.iter().max_by(|a, b| a.partial_cmp(b).expect("NaN")) // <- violation
}

fn total_cmp_is_fine(v: &mut Vec<f64>) {
    v.sort_by(f64::total_cmp);
    v.sort_by(|a, b| b.total_cmp(a));
}

fn unstable_sort_on_one_float_key(v: &mut [(u32, f64)], k: usize) {
    v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1)); // <- violation
    v.select_nth_unstable_by(k, |a, b| b.1.total_cmp(&a.1)); // <- violation
}

fn ties_broken_or_stable_is_fine(v: &mut [(u32, f64)]) {
    v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
}

fn partial_cmp_outside_comparators_is_fine(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)
}
