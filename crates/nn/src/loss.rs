//! Training losses: label-smoothed softmax cross-entropy (Eq. 3) and
//! InfoNCE (Section 5.1.2).

use crate::ops::dot;

/// Numerically-stable softmax.
fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Label-smoothed softmax cross-entropy.
///
/// Implements the entity-prediction objective of Eq. 3 in its standard
/// smoothed-target form: the target distribution is
/// `(1-η)` on the gold entity and `η/(C-1)` spread over the rest, so the
/// smoothing factor `η` "mitigates over-penalization for entities that
/// exhibit similar semantics to the ground-truth entity".
///
/// Returns `(loss, dlogits)` where `dlogits = softmax(logits) - target`.
pub fn label_smoothed_ce(logits: &[f32], gold: usize, eta: f32) -> (f32, Vec<f32>) {
    assert!(gold < logits.len(), "gold index out of range");
    assert!(
        (0.0..1.0).contains(&eta),
        "smoothing factor must be in [0,1)"
    );
    let probs = softmax(logits);
    let c = logits.len();
    let off = if c > 1 { eta / (c as f32 - 1.0) } else { 0.0 };
    let mut loss = 0.0f32;
    let mut grad = Vec::with_capacity(c);
    for (j, &p) in probs.iter().enumerate() {
        let target = if j == gold { 1.0 - eta } else { off };
        // Clamp avoids log(0) on fully-saturated logits.
        loss -= target * p.max(1e-12).ln();
        grad.push(p - target);
    }
    (loss, grad)
}

/// Gradients produced by one InfoNCE term.
#[derive(Clone, Debug)]
pub struct InfoNceGrads {
    /// Loss value.
    pub loss: f32,
    /// Gradient w.r.t. the anchor vector.
    pub d_anchor: Vec<f32>,
    /// Gradient w.r.t. the positive vector.
    pub d_pos: Vec<f32>,
    /// Gradients w.r.t. each negative vector, in input order.
    pub d_negs: Vec<Vec<f32>>,
}

/// InfoNCE contrastive loss over *pre-normalized* vectors, with optional
/// per-negative weights.
///
/// `L = -log( exp(a·p/τ) / (exp(a·p/τ) + Σ_k w_k·exp(a·n_k/τ)) )`.
///
/// Inputs are assumed l2-normalized (the contrastive head l2-normalizes its
/// projections, matching the paper's "new hypersphere space"), so similarity
/// is the dot product. With `None` weights every negative shares the
/// denominator with equal weight — the property the paper's Table 7
/// analysis attributes the dilution of hard-negative penalties to.
///
/// A weight `w_k > 1` multiplies negative `k`'s exponential in the
/// denominator, amplifying its repulsion — the "directly increasing the
/// weights of negative terms" idea whose ineffectiveness the paper reports
/// (Section 6.2 point 4: mined hard negatives "inevitably contain errors",
/// so amplifying them amplifies the noise).
pub fn infonce_weighted(
    anchor: &[f32],
    positive: &[f32],
    negatives: &[&[f32]],
    weights: Option<&[f32]>,
    tau: f32,
) -> InfoNceGrads {
    assert!(tau > 0.0, "temperature must be positive");
    if let Some(w) = weights {
        assert_eq!(w.len(), negatives.len(), "one weight per negative");
        assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
    }
    let d = anchor.len();
    // Logits: positive first, then negatives. Weight w_k enters as an
    // additive ln(w_k) on the negative logit (w·exp(x) = exp(x + ln w)).
    let mut logits = Vec::with_capacity(1 + negatives.len());
    logits.push(dot(anchor, positive) / tau);
    for (k, n) in negatives.iter().enumerate() {
        let lw = weights.map_or(0.0, |w| w[k].ln());
        logits.push(dot(anchor, n) / tau + lw);
    }
    let probs = softmax(&logits);
    let loss = -probs[0].max(1e-12).ln();

    // d loss / d logit_0 = p0 - 1 ; d loss / d logit_k = pk.
    let mut d_anchor = vec![0.0f32; d];
    let coef0 = (probs[0] - 1.0) / tau;
    let mut d_pos = vec![0.0f32; d];
    for i in 0..d {
        d_anchor[i] += coef0 * positive[i];
        d_pos[i] = coef0 * anchor[i];
    }
    let mut d_negs = Vec::with_capacity(negatives.len());
    for (k, n) in negatives.iter().enumerate() {
        let coef = probs[k + 1] / tau;
        let mut dn = vec![0.0f32; d];
        for i in 0..d {
            d_anchor[i] += coef * n[i];
            dn[i] = coef * anchor[i];
        }
        d_negs.push(dn);
    }
    InfoNceGrads {
        loss,
        d_anchor,
        d_pos,
        d_negs,
    }
}

/// [`infonce_weighted`] against caller-owned buffers — the allocation-free
/// form used by the fused training workspace. Negatives arrive as one flat
/// row-major slice (`k·d` elements); gradients land in `d_anchor`, `d_pos`
/// and the flat `d_negs_flat` (all caller-sized); `logits` is scratch of
/// length `1 + k` (also holding the softmax probabilities on return).
///
/// Bit-identical to [`infonce_weighted`] on the same inputs: identical
/// logit, softmax, loss and gradient arithmetic in identical order, only
/// the buffer ownership differs (`tests::into_variant_matches_allocating`
/// pins this).
// ultra-lint: hot
#[allow(clippy::too_many_arguments)]
pub fn infonce_weighted_into(
    anchor: &[f32],
    positive: &[f32],
    negatives_flat: &[f32],
    weights: Option<&[f32]>,
    tau: f32,
    logits: &mut [f32],
    d_anchor: &mut [f32],
    d_pos: &mut [f32],
    d_negs_flat: &mut [f32],
) -> f32 {
    assert!(tau > 0.0, "temperature must be positive");
    let d = anchor.len();
    let k = negatives_flat.len().checked_div(d).unwrap_or(0);
    assert_eq!(negatives_flat.len(), k * d, "ragged flat negatives");
    assert_eq!(logits.len(), 1 + k, "logit scratch length mismatch");
    assert_eq!(
        d_negs_flat.len(),
        k * d,
        "negative gradient length mismatch"
    );
    if let Some(w) = weights {
        assert_eq!(w.len(), k, "one weight per negative");
        assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
    }
    logits[0] = dot(anchor, positive) / tau;
    for kk in 0..k {
        let n = &negatives_flat[kk * d..(kk + 1) * d];
        let lw = weights.map_or(0.0, |w| w[kk].ln());
        logits[kk + 1] = dot(anchor, n) / tau + lw;
    }
    // In-place softmax: same max-fold / exp / sequential-sum / divide
    // sequence as the private `softmax`, so identical bits.
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in logits.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = logits.iter().sum();
    for x in logits.iter_mut() {
        *x /= sum;
    }
    let probs = &*logits;
    let loss = -probs[0].max(1e-12).ln();

    let coef0 = (probs[0] - 1.0) / tau;
    // d_anchor accumulates from zero with `+=`, mirroring the allocating
    // version exactly (0.0 + x is not always the same bits as x: it maps
    // -0.0 to +0.0).
    d_anchor.iter_mut().for_each(|a| *a = 0.0);
    for i in 0..d {
        d_anchor[i] += coef0 * positive[i];
        d_pos[i] = coef0 * anchor[i];
    }
    for kk in 0..k {
        let coef = probs[kk + 1] / tau;
        let n = &negatives_flat[kk * d..(kk + 1) * d];
        let dn = &mut d_negs_flat[kk * d..(kk + 1) * d];
        for i in 0..d {
            d_anchor[i] += coef * n[i];
            dn[i] = coef * anchor[i];
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_variant_matches_allocating_bitwise() {
        let d = 7usize;
        let anchor: Vec<f32> = (0..d).map(|i| ((i as f32) * 0.7).sin()).collect();
        let pos: Vec<f32> = (0..d).map(|i| ((i as f32) * 1.3).cos()).collect();
        let negs: Vec<Vec<f32>> = (0..3)
            .map(|k| (0..d).map(|i| ((i + k) as f32 * 0.41).sin()).collect())
            .collect();
        let neg_refs: Vec<&[f32]> = negs.iter().map(|n| n.as_slice()).collect();
        let flat: Vec<f32> = negs.iter().flatten().copied().collect();
        for weights in [None, Some(vec![1.5f32, 0.5, 3.0])] {
            let a = infonce_weighted(&anchor, &pos, &neg_refs, weights.as_deref(), 0.21);
            let mut logits = vec![0.0f32; 4];
            let mut da = vec![7.0f32; d];
            let mut dp = vec![7.0f32; d];
            let mut dn = vec![7.0f32; 3 * d];
            let loss = infonce_weighted_into(
                &anchor,
                &pos,
                &flat,
                weights.as_deref(),
                0.21,
                &mut logits,
                &mut da,
                &mut dp,
                &mut dn,
            );
            assert_eq!(loss.to_bits(), a.loss.to_bits());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&da), bits(&a.d_anchor));
            assert_eq!(bits(&dp), bits(&a.d_pos));
            let flat_ref: Vec<f32> = a.d_negs.iter().flatten().copied().collect();
            assert_eq!(bits(&dn), bits(&flat_ref));
        }
    }

    #[test]
    fn smoothed_ce_gradient_sums_to_zero() {
        let (_, grad) = label_smoothed_ce(&[1.0, -0.5, 0.2], 0, 0.075);
        let s: f32 = grad.iter().sum();
        assert!(s.abs() < 1e-5, "softmax-minus-target grads sum to 0");
    }

    #[test]
    fn smoothed_ce_prefers_correct_prediction() {
        let (good, _) = label_smoothed_ce(&[5.0, 0.0, 0.0], 0, 0.075);
        let (bad, _) = label_smoothed_ce(&[0.0, 5.0, 0.0], 0, 0.075);
        assert!(good < bad);
    }

    #[test]
    fn zero_smoothing_reduces_to_plain_ce() {
        let logits = [2.0f32, 1.0, -1.0];
        let (loss, _) = label_smoothed_ce(&logits, 1, 0.0);
        let probs = softmax(&logits);
        assert!((loss + probs[1].ln()).abs() < 1e-5);
    }

    #[test]
    fn smoothing_softens_gradient_on_gold() {
        let logits = [0.0f32, 0.0, 0.0];
        let (_, g0) = label_smoothed_ce(&logits, 0, 0.0);
        let (_, g1) = label_smoothed_ce(&logits, 0, 0.3);
        assert!(
            g1[0] > g0[0],
            "smoothed target pulls less on the gold logit"
        );
    }

    #[test]
    fn infonce_loss_decreases_when_anchor_aligns_with_positive() {
        let pos = [1.0f32, 0.0];
        let neg = [0.0f32, 1.0];
        let aligned = infonce_weighted(&[1.0, 0.0], &pos, &[&neg], None, 0.2);
        let misaligned = infonce_weighted(&[0.0, 1.0], &pos, &[&neg], None, 0.2);
        assert!(aligned.loss < misaligned.loss);
    }

    #[test]
    fn infonce_gradients_match_finite_differences_on_anchor() {
        let anchor = [0.6f32, 0.8];
        let pos = [0.0f32, 1.0];
        let neg1 = [1.0f32, 0.0];
        let neg2 = [-1.0f32, 0.0];
        let g = infonce_weighted(&anchor, &pos, &[&neg1, &neg2], None, 0.5);
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut ap = anchor;
            ap[i] += eps;
            let mut am = anchor;
            am[i] -= eps;
            let lp = infonce_weighted(&ap, &pos, &[&neg1, &neg2], None, 0.5).loss;
            let lm = infonce_weighted(&am, &pos, &[&neg1, &neg2], None, 0.5).loss;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - g.d_anchor[i]).abs() < 1e-2,
                "anchor[{i}]: fd {fd} vs {}",
                g.d_anchor[i]
            );
        }
    }

    #[test]
    fn infonce_more_negatives_raise_loss() {
        let anchor = [1.0f32, 0.0];
        let pos = [0.9f32, 0.1];
        let neg = [0.5f32, 0.5];
        let one = infonce_weighted(&anchor, &pos, &[&neg], None, 0.2).loss;
        let two = infonce_weighted(&anchor, &pos, &[&neg, &neg], None, 0.2).loss;
        assert!(two > one);
    }

    #[test]
    #[should_panic(expected = "gold index")]
    fn smoothed_ce_rejects_bad_gold() {
        label_smoothed_ce(&[0.0, 1.0], 5, 0.0);
    }

    #[test]
    fn unit_weights_match_plain_infonce() {
        let anchor = [0.6f32, 0.8];
        let pos = [0.0f32, 1.0];
        let neg = [1.0f32, 0.0];
        let plain = infonce_weighted(&anchor, &pos, &[&neg], None, 0.4);
        let weighted = infonce_weighted(&anchor, &pos, &[&neg], Some(&[1.0]), 0.4);
        assert!((plain.loss - weighted.loss).abs() < 1e-6);
        for i in 0..2 {
            assert!((plain.d_anchor[i] - weighted.d_anchor[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn heavier_negatives_raise_the_loss() {
        let anchor = [0.6f32, 0.8];
        let pos = [0.0f32, 1.0];
        let neg = [1.0f32, 0.0];
        let light = infonce_weighted(&anchor, &pos, &[&neg], Some(&[1.0]), 0.4);
        let heavy = infonce_weighted(&anchor, &pos, &[&neg], Some(&[4.0]), 0.4);
        assert!(heavy.loss > light.loss);
        // And the heavier negative pushes the anchor harder.
        let push_light: f32 = light.d_anchor.iter().map(|x| x.abs()).sum();
        let push_heavy: f32 = heavy.d_anchor.iter().map(|x| x.abs()).sum();
        assert!(push_heavy > push_light);
    }

    #[test]
    #[should_panic(expected = "one weight per negative")]
    fn weight_count_must_match() {
        let v = [1.0f32, 0.0];
        infonce_weighted(&v, &v, &[&v, &v], Some(&[1.0]), 0.4);
    }
}
