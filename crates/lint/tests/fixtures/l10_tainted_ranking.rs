//! L10 fixture: hash-ordered iteration flows through two helpers into a
//! `RankedList`; the sorted twin next to it is silent.

fn collect_scores(m: &HashMap<u64, f32>) -> Vec<(u64, f32)> {
    let mut out = Vec::new();
    for (k, v) in m.iter() {
        out.push((*k, *v));
    }
    out
}

fn assemble(m: &HashMap<u64, f32>) -> Vec<(u64, f32)> {
    let pairs = collect_scores(m);
    pairs
}

fn rank(m: &HashMap<u64, f32>) -> RankedList {
    let pairs = assemble(m);
    RankedList::from_sorted(pairs)
}

fn rank_sorted(m: &HashMap<u64, f32>) -> RankedList {
    let mut pairs = assemble(m);
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    RankedList::from_sorted(pairs)
}

// The flow passes through a `let` whose type ascription ends in `>`.
fn rank_ascribed(m: &HashMap<u64, f32>) -> RankedList {
    let v: Vec<(u64, f32)> = m.iter().map(|(k, s)| (*k, *s)).collect();
    RankedList::from_scores(v)
}
