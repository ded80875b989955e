// Fixture: L2 no-hash-iteration-order must flag iteration over hash-ordered
// collections (checked as if this file lived in a ranked-output crate).

use std::collections::{HashMap, HashSet};

struct Index {
    postings: HashMap<u32, Vec<u32>>,
}

fn iterate_map(counts: HashMap<u32, f64>) -> Vec<(u32, f64)> {
    let mut out = Vec::new();
    for (k, v) in &counts {
        // <- violation: for-loop over a HashMap
        out.push((*k, *v));
    }
    out
}

fn iterate_set() -> Vec<u32> {
    let seen: HashSet<u32> = HashSet::new();
    seen.iter().copied().collect() // <- violation: .iter() on a HashSet
}

fn field_iteration(idx: &Index) -> usize {
    idx.postings.keys().count() // <- violation: .keys() on a HashMap field
}

fn point_lookups_are_fine(counts: &HashMap<u32, f64>) -> Option<f64> {
    counts.get(&7).copied()
}

fn btree_is_fine(m: std::collections::BTreeMap<u32, f64>) -> Vec<u32> {
    m.keys().copied().collect()
}

fn iterate_borrowed(m: &HashMap<u32, f64>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, _) in m {
        // <- violation: for-loop over a borrowed HashMap parameter
        out.push(*k);
    }
    out.extend(m.keys().copied()); // <- violation: .keys() behind `&`
    out
}
