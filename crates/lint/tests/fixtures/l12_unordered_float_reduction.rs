//! L12 fixture: float accumulation inside a loop over a hash-ordered
//! collection, in a match arm or after a label too; the twins are silent.

fn tainted_total(weights: &HashMap<u64, f32>) -> f32 {
    let mut sum = 0.0;
    for (_, w) in weights.iter() {
        sum += *w;
    }
    sum
}

fn ordered_total(weights: &BTreeMap<u64, f32>) -> f32 {
    let mut sum = 0.0;
    for (_, w) in weights.iter() {
        sum += *w;
    }
    sum
}

fn counting_is_exact(weights: &HashMap<u64, u64>) -> u64 {
    let mut total = 0;
    for (_, w) in weights.iter() {
        total += *w;
    }
    total
}

fn tainted_in_a_match_arm(weights: &HashMap<u64, f32>, on: Option<u8>) -> f32 {
    let mut sum = 0.0;
    match on {
        Some(_) => {
            for (_, w) in weights {
                sum += *w;
            }
        }
        None => {}
    }
    sum
}

fn tainted_after_a_label(weights: &HashMap<u64, f32>) -> f32 {
    let mut sum = 0.0;
    'outer: for (_, w) in weights {
        sum += *w;
        if sum > 1.0 {
            break 'outer;
        }
    }
    sum
}
