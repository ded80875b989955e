//! The entity encoder with its entity-prediction head and contrastive
//! projection head.

use crate::config::EncoderConfig;
use crate::reps::EntityEmbeddings;
use rand::seq::SliceRandom;
use rand::Rng;
use ultra_core::rng::{derive_rng, stream_label, UltraRng};
use ultra_core::stable::{FNV_OFFSET, FNV_PRIME};
use ultra_core::{EntityId, Sentence, TokenId};
use ultra_data::World;
use ultra_nn::{
    infonce_weighted_into, l2_normalize, l2_normalize_backward, l2_normalize_backward_into,
    label_smoothed_ce, Activation, EmbeddingBag, Matrix, Mlp, MlpGrad, MlpT, Sgd, SparseGrad,
    SparseSink, TrainWorkspace,
};

/// One fully sampled contrastive training example: the anchor, positive,
/// and negative context bags plus optional per-negative weights. Sampling
/// is sequential (RNG order is part of the determinism contract); gradient
/// computation over a batch of examples is parallel.
#[derive(Clone, Debug)]
pub struct ContrastiveExample {
    /// Anchor context bag.
    pub anchor_bag: Vec<TokenId>,
    /// Positive context bag.
    pub pos_bag: Vec<TokenId>,
    /// Negative context bags.
    pub neg_bags: Vec<Vec<TokenId>>,
    /// Per-negative InfoNCE weights (`None` = uniform).
    pub weights: Option<Vec<f32>>,
}

/// Chunks per training batch. Fixed — never derived from the thread count
/// — so the chunk boundaries, and with them the f32 reduction tree, are a
/// pure function of the batch. That is what makes the loss curve
/// bit-identical whether the chunks run on one thread or eight.
pub(crate) const TRAIN_CHUNKS: usize = 4;

/// Work estimate for one example, driving the cost-weighted chunking:
/// every bag pays a projection-head forward and backward (a handful of
/// `dim × dim` passes, flattened here to units of `dim`), and every token
/// two embedding-row traversals (forward mean, backward scatter).
pub(crate) fn example_cost(ex: &ContrastiveExample, dim: usize) -> u64 {
    let bags = 2 + ex.neg_bags.len();
    let tokens =
        ex.anchor_bag.len() + ex.pos_bag.len() + ex.neg_bags.iter().map(Vec::len).sum::<usize>();
    (bags * 6 * dim + 2 * tokens) as u64
}

/// Deterministic cost-weighted chunk boundaries for one batch: a pure
/// function of the examples and the model width, never of the thread
/// count.
pub(crate) fn batch_boundaries(
    examples: &[ContrastiveExample],
    dim: usize,
) -> Vec<std::ops::Range<usize>> {
    let costs: Vec<u64> = examples.iter().map(|e| example_cost(e, dim)).collect();
    ultra_par::weighted_boundaries(&costs, TRAIN_CHUNKS)
}

/// Merges chunk accumulators `1..nchunks` into chunk 0, in chunk order —
/// the fixed reduction the determinism contract requires. Every
/// accumulated value is a sum that started from `+0.0`, so no `-0.0` can
/// appear and the left-fold is bit-equal to the reference path's
/// fresh-accumulator fold.
pub(crate) fn merge_chunk_accumulators(chunks: &mut [TrainWorkspace], nchunks: usize) {
    if nchunks <= 1 {
        return;
    }
    let (first, rest) = chunks.split_at_mut(1);
    for ws in &mut rest[..nchunks - 1] {
        first[0].proj_grad.add_assign(&ws.proj_grad);
        first[0].sink.merge_from(&ws.sink);
    }
}

/// The trainable entity encoder (Section 5.1.1).
#[derive(Clone, Debug)]
pub struct EntityEncoder {
    /// Hyper-parameters.
    pub cfg: EncoderConfig,
    emb: EmbeddingBag,
    /// Entity-prediction head: `num_entities × dim`.
    head: Matrix,
    /// Contrastive projection head (maps into the hypersphere space).
    proj: Mlp,
    /// Transposed snapshot of `proj`'s weights for the sweep-form batched
    /// forward; refreshed by [`refresh_proj_t`](Self::refresh_proj_t) at
    /// every parameter update (the only `proj` mutation sites are
    /// construction and the two optimizer-apply paths, all of which
    /// refresh).
    proj_t: MlpT,
    /// Common-mode centering vector, calibrated after entity-prediction
    /// training. Bag-of-token means concentrate around a global direction
    /// (Zipf filler dominates every sentence); subtracting the mean
    /// contextual feature spreads cosine similarities so that both Eq. 4
    /// retrieval and InfoNCE geometry are non-degenerate. This mirrors the
    /// "all-but-the-top" post-processing standard for embedding spaces.
    center: Vec<f32>,
    num_entities: usize,
    mask: TokenId,
}

impl EntityEncoder {
    /// Freshly initialised encoder for a world.
    pub fn new(world: &World, cfg: EncoderConfig) -> Self {
        let mut rng = derive_rng(cfg.seed, stream_label("encoder-init"));
        let dim = cfg.dim;
        // RNG draw order (emb, head, proj) is part of the determinism
        // contract — do not reorder.
        let emb = EmbeddingBag::new(world.vocab.len(), dim, &mut rng);
        let head = Matrix::xavier(world.num_entities(), dim, &mut rng);
        let proj = Mlp::new_projection(dim, dim, dim, Activation::Tanh, &mut rng);
        let mut proj_t = MlpT::new();
        proj_t.refresh(&proj);
        Self {
            emb,
            head,
            proj,
            proj_t,
            center: vec![0.0; dim],
            num_entities: world.num_entities(),
            mask: world.vocab.mask(),
            cfg,
        }
    }

    /// Re-transposes the projection head's weight snapshot. Must run after
    /// every `proj` mutation; the snapshot staleness is what the
    /// `forward_batch_pret` debug asserts and the fused-vs-reference
    /// proptest would catch.
    fn refresh_proj_t(&mut self) {
        self.proj_t.refresh(&self.proj);
    }

    /// Hidden dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Builds the context bag for `(sentence, entity)`: the sentence with
    /// the entity's mentions replaced by `[MASK]`, prefixed by the
    /// configured augmentation tokens.
    pub fn context_bag(
        &self,
        world: &World,
        sentence: &Sentence,
        entity: EntityId,
    ) -> Vec<TokenId> {
        let mut bag = self.cfg.augment.prefix_tokens(world, entity);
        bag.extend(sentence.masked(entity, self.mask));
        bag
    }

    /// Encodes a token bag into the (centered) contextual feature
    /// `h = tanh(mean E[t]) - c`. The center `c` is zero until
    /// [`calibrate_center`](Self::calibrate_center) runs.
    pub fn encode_bag(&self, tokens: &[TokenId]) -> Vec<f32> {
        let mut h = vec![0.0; self.cfg.dim];
        self.encode_bag_into(tokens, &mut h);
        h
    }

    /// Estimates the common-mode center as the mean contextual feature over
    /// up to `sample_cap` corpus contexts, then enables centering.
    pub fn calibrate_center(&mut self, world: &World, sample_cap: usize) {
        self.center = vec![0.0; self.cfg.dim];
        let mut rng = derive_rng(self.cfg.seed, stream_label("center"));
        let n = world.corpus.len();
        if n == 0 {
            return;
        }
        let mut acc = vec![0.0f64; self.cfg.dim];
        let samples = sample_cap.min(n);
        for _ in 0..samples {
            let sid = ultra_core::SentenceId::from_index(rng.gen_range(0..n));
            let s = world.corpus.sentence(sid);
            let Some(&(_, entity)) = s.mentions.first() else {
                continue;
            };
            let bag = self.context_bag(world, s, entity);
            let h = self.encode_bag(&bag);
            for (a, x) in acc.iter_mut().zip(&h) {
                *a += *x as f64;
            }
        }
        self.center = acc.iter().map(|a| (*a / samples as f64) as f32).collect();
    }

    /// Accumulates embedding gradients for `dL/dh` through the tanh (the
    /// additive center is a constant under the gradient) into the
    /// reference [`SparseGrad`] map.
    fn encode_bag_backward_into(
        &self,
        tokens: &[TokenId],
        h: &[f32],
        dh: &[f32],
        g: &mut SparseGrad,
    ) {
        let dz = self.encode_bag_backward_dz(h, dh);
        self.emb.backward_into(tokens, &dz, g);
    }

    /// [`encode_bag`](Self::encode_bag) into a caller-owned buffer:
    /// writes `tanh(mean E[t]) - c` into `out` (an empty bag encodes as
    /// `0.0.tanh() - c`).
    // ultra-lint: hot
    pub(crate) fn encode_bag_into(&self, tokens: &[TokenId], out: &mut [f32]) {
        if !self.emb.forward_into(tokens, out) {
            out.fill(0.0);
        }
        for (x, c) in out.iter_mut().zip(&self.center) {
            *x = x.tanh() - c;
        }
    }

    /// The tanh pre-activation gradient of the encoder.
    fn encode_bag_backward_dz(&self, h: &[f32], dh: &[f32]) -> Vec<f32> {
        dh.iter()
            .zip(h.iter().zip(&self.center))
            .map(|(&d, (&hc, &c))| {
                let y = hc + c; // un-centered tanh output
                d * (1.0 - y * y)
            })
            .collect()
    }

    /// Projects a contextual feature into the l2-normalized contrastive
    /// hypersphere space.
    pub fn project(&self, h: &[f32]) -> Vec<f32> {
        let (_, mut z) = self.proj.forward(h);
        l2_normalize(&mut z);
        z
    }

    /// Trains the entity-prediction task (Eq. 2/3) for `cfg.epochs` epochs
    /// using sampled softmax with `cfg.neg_samples` negatives.
    ///
    /// The full-softmax of Eq. 2 over 10⁴–10⁵ candidates is replaced by
    /// sampled softmax for tractability; the label-smoothing behaviour that
    /// the paper's η analysis (Figure 7) depends on is preserved because
    /// smoothing mass is spread over the sampled negatives.
    pub fn train_entity_prediction(&mut self, world: &World) {
        let mut rng = derive_rng(self.cfg.seed, stream_label("entity-prediction"));
        let examples = self.collect_examples(world, &mut rng);
        // One sparse accumulator for the whole run, shaped once and
        // cleared after every step.
        let mut sink = SparseSink::new();
        sink.ensure(self.emb.vocab_size(), self.cfg.dim);
        for _epoch in 0..self.cfg.epochs {
            let mut order: Vec<usize> = (0..examples.len()).collect();
            order.shuffle(&mut rng);
            for &i in &order {
                let (sid, entity) = examples[i];
                let sentence = world.corpus.sentence(sid);
                let bag = self.context_bag(world, sentence, entity);
                self.entity_prediction_step(&bag, entity, &mut sink, &mut rng);
            }
        }
        // Calibrate the common-mode center once representations settle.
        self.calibrate_center(world, 2000);
    }

    /// One sampled-softmax SGD step; the embedding gradient goes through
    /// `sink`, which is left empty.
    // ultra-lint: hot
    fn entity_prediction_step(
        &mut self,
        bag: &[TokenId],
        gold: EntityId,
        sink: &mut SparseSink,
        rng: &mut UltraRng,
    ) {
        let h = self.encode_bag(bag);
        // Sample the candidate set: gold first, then distinct negatives.
        let mut cands: Vec<usize> = Vec::with_capacity(self.cfg.neg_samples + 1);
        cands.push(gold.index());
        while cands.len() <= self.cfg.neg_samples {
            let c = rng.gen_range(0..self.num_entities);
            if c != gold.index() {
                // ultra-lint: allow(no-alloc-in-hot-loop) bounded by neg_samples+1 and inside the with_capacity reservation above — never reallocates
                cands.push(c);
            }
        }
        let logits: Vec<f32> = cands
            .iter()
            .map(|&c| {
                let row = self.head.row(c);
                row.iter().zip(&h).map(|(w, x)| w * x).sum()
            })
            .collect();
        let (_loss, dlogits) = label_smoothed_ce(&logits, 0, self.cfg.eta);
        // dh and head-row updates.
        let mut dh = vec![0.0f32; self.cfg.dim];
        let lr = self.cfg.lr;
        let wd = self.cfg.weight_decay;
        for (k, &c) in cands.iter().enumerate() {
            let d = dlogits[k];
            let row = self.head.row_mut(c);
            for j in 0..row.len() {
                dh[j] += d * row[j];
                row[j] -= lr * (d * h[j] + wd * row[j]);
            }
        }
        let dz = self.encode_bag_backward_dz(&h, &dh);
        self.emb.backward_into_sink(bag, &dz, sink);
        self.emb
            .apply_sparse_sgd_from_sink(sink, lr, wd, self.cfg.clip);
        sink.clear();
    }

    /// Gradients of the InfoNCE loss for one example, computed against the
    /// current (frozen) parameters through the historical allocating path:
    /// forward all branches, then backward each through l2norm → proj →
    /// tanh → embeddings. Accumulates into the *caller's* buffers so a
    /// chunk of examples shares one accumulator — the same f32 fold the
    /// fused kernel performs. Returns the example's loss.
    fn contrastive_grads_into(
        &self,
        ex: &ContrastiveExample,
        proj_g: &mut MlpGrad,
        emb_g: &mut SparseGrad,
    ) -> f32 {
        let forward = |bag: &[TokenId]| {
            let h = self.encode_bag(bag);
            let (hidden, pre) = self.proj.forward(&h);
            let mut z = pre.clone();
            let norm = l2_normalize(&mut z);
            (h, hidden, pre, z, norm)
        };
        let a = forward(&ex.anchor_bag);
        let p = forward(&ex.pos_bag);
        let negs: Vec<_> = ex.neg_bags.iter().map(|b| forward(b)).collect();
        let neg_views: Vec<&[f32]> = negs.iter().map(|n| n.3.as_slice()).collect();
        let g =
            ultra_nn::infonce_weighted(&a.3, &p.3, &neg_views, ex.weights.as_deref(), self.cfg.tau);

        let mut backward_fn =
            |bag: &[TokenId], st: &(Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, f32), dz: &[f32]| {
                let dpre = l2_normalize_backward(&st.3, st.4, dz);
                let dh = self.proj.backward_into(&st.0, &st.1, &st.2, &dpre, proj_g);
                self.encode_bag_backward_into(bag, &st.0, &dh, emb_g);
            };
        backward_fn(&ex.anchor_bag, &a, &g.d_anchor);
        backward_fn(&ex.pos_bag, &p, &g.d_pos);
        for (k, n) in negs.iter().enumerate() {
            backward_fn(&ex.neg_bags[k], n, &g.d_negs[k]);
        }
        g.loss
    }

    /// Fused gradients for one chunk of examples against frozen
    /// parameters, accumulated into `ws` (reshaped and reset here).
    /// Returns the chunk's loss sum, left-folded in example order.
    ///
    /// The fusion: every bag of every example becomes one row of `ws.h`,
    /// the projection head runs as two sweep-form GEMMs over the whole
    /// chunk ([`Mlp::forward_batch_pret`]), and the backward pass accumulates
    /// straight into the chunk-level `proj_grad` / `sink` accumulators —
    /// no per-example gradient structs, no allocations after warm-up.
    /// Bit-equality with the per-example reference path
    /// ([`contrastive_batch_step_reference`](Self::contrastive_batch_step_reference))
    /// is pinned by the fused-vs-reference proptest in
    /// `tests/par_determinism.rs`.
    // ultra-lint: hot
    pub(crate) fn contrastive_chunk_grads(
        &self,
        examples: &[ContrastiveExample],
        ws: &mut TrainWorkspace,
    ) -> f32 {
        let mut rows = 0usize;
        let mut max_logits = 1usize;
        for ex in examples {
            rows += 2 + ex.neg_bags.len();
            max_logits = max_logits.max(1 + ex.neg_bags.len());
        }
        ws.ensure(&self.proj, self.emb.vocab_size(), rows, max_logits);
        ws.reset();
        // 1) Encode every bag into its row of `h`, example-major
        //    (anchor, positive, negatives…).
        let mut r = 0usize;
        for ex in examples {
            self.encode_bag_into(&ex.anchor_bag, ws.h.row_mut(r));
            self.encode_bag_into(&ex.pos_bag, ws.h.row_mut(r + 1));
            for (k, nb) in ex.neg_bags.iter().enumerate() {
                self.encode_bag_into(nb, ws.h.row_mut(r + 2 + k));
            }
            r += 2 + ex.neg_bags.len();
        }
        // 2) Project the whole chunk: two sweep-form GEMMs against the
        //    transposed weight snapshot (bit-identical to per-row
        //    `Mlp::forward` — see `matmat_nt_pret_into`).
        self.proj.forward_batch_pret(
            &self.proj_t,
            &ws.h,
            &mut ws.hidden,
            &mut ws.pre,
            &mut ws.lanes,
        );
        // 3) Normalize each row into `z`, remembering the norms.
        ws.z.as_mut_slice().copy_from_slice(ws.pre.as_slice());
        for rr in 0..rows {
            ws.norms[rr] = l2_normalize(ws.z.row_mut(rr));
        }
        // 4) InfoNCE per example: an example's rows are contiguous, so the
        //    flat-negatives kernel reads `z` in place and writes `dz` in
        //    place.
        let d = ws.z.cols();
        let mut loss_sum = 0.0f32;
        let mut base = 0usize;
        for ex in examples {
            let k = ex.neg_bags.len();
            let z = ws.z.as_slice();
            let anchor = &z[base * d..(base + 1) * d];
            let positive = &z[(base + 1) * d..(base + 2) * d];
            let negatives = &z[(base + 2) * d..(base + 2 + k) * d];
            let dz = &mut ws.dz.as_mut_slice()[base * d..(base + 2 + k) * d];
            let (d_anchor, rest) = dz.split_at_mut(d);
            let (d_pos, d_negs) = rest.split_at_mut(d);
            loss_sum += infonce_weighted_into(
                anchor,
                positive,
                negatives,
                ex.weights.as_deref(),
                self.cfg.tau,
                &mut ws.logits[..1 + k],
                d_anchor,
                d_pos,
                d_negs,
            );
            base += 2 + k;
        }
        // 5) Backward in three sweeps: the normalize backward per row,
        //    the projection head over blocks of four rows (the backward
        //    is bandwidth-bound — blocks stream each weight/gradient
        //    matrix once per block instead of once per row), then the
        //    encoder tanh + sparse embedding pass per bag in
        //    example-major order. Every `proj_grad` / `sink` element
        //    still receives its summands in ascending row order, so the
        //    sweeps are bit-identical to a per-row backward — which is
        //    exactly what the reference path computes.
        for r in 0..rows {
            l2_normalize_backward_into(ws.z.row(r), ws.norms[r], ws.dz.row(r), ws.dpre.row_mut(r));
        }
        let mut rb = 0usize;
        while rb < rows {
            let re = (rb + 4).min(rows);
            self.proj.backward_rows_into_buf(
                &ws.h,
                &ws.hidden,
                &ws.pre,
                &ws.dpre,
                rb,
                re,
                &mut ws.proj_grad,
                &mut ws.dz_out,
                &mut ws.dh,
                &mut ws.dz_hidden,
                &mut ws.dx,
            );
            rb = re;
        }
        let mut rr = 0usize;
        for ex in examples {
            self.bag_grad_into_sink(&ex.anchor_bag, rr, ws);
            self.bag_grad_into_sink(&ex.pos_bag, rr + 1, ws);
            for (k, nb) in ex.neg_bags.iter().enumerate() {
                self.bag_grad_into_sink(nb, rr + 2 + k, ws);
            }
            rr += 2 + ex.neg_bags.len();
        }
        loss_sum
    }

    /// Encoder-side backward for one bag (row `r` of the workspace):
    /// tanh backward from the block backward's `dx` row, then the sparse
    /// embedding gradient into the chunk's sink.
    // ultra-lint: hot
    fn bag_grad_into_sink(&self, bag: &[TokenId], r: usize, ws: &mut TrainWorkspace) {
        // Encoder tanh backward — the same expression (and bits) as
        // `encode_bag_backward_dz`; `y` is the un-centered tanh output.
        let h_row = ws.h.row(r);
        let dx_row = ws.dx.row(r);
        for (i, demb) in ws.row_demb.iter_mut().enumerate() {
            let y = h_row[i] + self.center[i];
            *demb = dx_row[i] * (1.0 - y * y);
        }
        self.emb.backward_into_sink(bag, &ws.row_demb, &mut ws.sink);
    }

    /// Applies one batch's merged gradients: accumulate into the
    /// projection head, one SGD step, then the sparse embedding update.
    pub(crate) fn apply_contrastive_update(&mut self, proj_g: &MlpGrad, sink: &SparseSink) {
        self.proj.accumulate(proj_g);
        let lr = self.cfg.contrastive_lr;
        Sgd::new(lr)
            .with_weight_decay(self.cfg.weight_decay)
            .step(&mut self.proj);
        self.refresh_proj_t();
        self.emb
            .apply_sparse_sgd_from_sink(sink, lr, self.cfg.weight_decay, self.cfg.clip);
    }

    /// Per-example reference for the worker-team batch step
    /// ([`contrastive_batch_step_pooled`](crate::contrastive_batch_step_pooled)):
    /// identical chunk boundaries and reduction order, but gradients
    /// computed one example at a time through the allocating path
    /// (`contrastive_grads_into`) into the
    /// [`SparseGrad`] map. Exists to pin the fused kernel — the determinism
    /// proptest asserts both paths produce bit-identical losses and
    /// parameters.
    pub fn contrastive_batch_step_reference(&mut self, examples: &[ContrastiveExample]) -> f32 {
        if examples.is_empty() {
            return 0.0;
        }
        let bounds = batch_boundaries(examples, self.cfg.dim);
        let mut proj_g = MlpGrad::zeros_like(&self.proj);
        let mut emb_g = SparseGrad::new();
        let mut loss_sum = 0.0f32;
        for r in &bounds {
            let mut chunk_proj = MlpGrad::zeros_like(&self.proj);
            let mut chunk_emb = SparseGrad::new();
            let mut chunk_loss = 0.0f32;
            for ex in &examples[r.start..r.end] {
                chunk_loss += self.contrastive_grads_into(ex, &mut chunk_proj, &mut chunk_emb);
            }
            proj_g.add_assign(&chunk_proj);
            emb_g.merge(chunk_emb);
            loss_sum += chunk_loss;
        }
        self.proj.accumulate(&proj_g);
        let lr = self.cfg.contrastive_lr;
        Sgd::new(lr)
            .with_weight_decay(self.cfg.weight_decay)
            .step(&mut self.proj);
        self.refresh_proj_t();
        self.emb
            .apply_sparse_sgd_from(emb_g, lr, self.cfg.weight_decay, self.cfg.clip);
        loss_sum / examples.len() as f32
    }

    /// FNV-1a fingerprint over every trainable parameter's exact bits.
    /// Two encoders behave identically iff their fingerprints match — the
    /// determinism tests compare these instead of dumping whole tensors.
    pub fn params_fingerprint(&self) -> u64 {
        fn eat(mut h: u64, s: &[f32]) -> u64 {
            for v in s {
                h = (h ^ u64::from(v.to_bits())).wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut h = FNV_OFFSET;
        for t in 0..self.emb.vocab_size() {
            h = eat(h, self.emb.row(TokenId::new(t as u32)));
        }
        h = eat(h, self.head.as_slice());
        h = eat(h, self.proj.hidden.weights().as_slice());
        h = eat(h, self.proj.out.weights().as_slice());
        h = eat(h, &self.center);
        h
    }

    /// Gathers `(sentence, entity)` training examples, capped per entity.
    fn collect_examples(
        &self,
        world: &World,
        rng: &mut UltraRng,
    ) -> Vec<(ultra_core::SentenceId, EntityId)> {
        let mut examples = Vec::new();
        for e in &world.entities {
            let sids = world.corpus.sentences_of(e.id);
            if sids.len() <= self.cfg.max_sentences_per_entity {
                examples.extend(sids.iter().map(|&s| (s, e.id)));
            } else {
                let mut pool: Vec<_> = sids.to_vec();
                pool.shuffle(rng);
                pool.truncate(self.cfg.max_sentences_per_entity);
                examples.extend(pool.into_iter().map(|s| (s, e.id)));
            }
        }
        examples
    }

    /// Computes every entity's representation: the mean contextual feature
    /// over (up to `max_sentences_per_entity`) sentences mentioning it,
    /// with the configured augmentation prefix.
    pub fn entity_embeddings(&self, world: &World) -> EntityEmbeddings {
        let mut mat = Matrix::zeros(world.num_entities(), self.cfg.dim);
        let mut rng = derive_rng(self.cfg.seed, stream_label("repr-sampling"));
        for e in &world.entities {
            let sids = world.corpus.sentences_of(e.id);
            let chosen: Vec<_> = if sids.len() <= self.cfg.max_sentences_per_entity {
                sids.to_vec()
            } else {
                let mut pool = sids.to_vec();
                pool.shuffle(&mut rng);
                pool.truncate(self.cfg.max_sentences_per_entity);
                pool
            };
            if chosen.is_empty() {
                continue;
            }
            let row = mat.row_mut(e.id.index());
            for sid in &chosen {
                let bag = self.context_bag(world, world.corpus.sentence(*sid), e.id);
                let h = self.encode_bag(&bag);
                for (r, x) in row.iter_mut().zip(&h) {
                    *r += x;
                }
            }
            let inv = 1.0 / chosen.len() as f32;
            row.iter_mut().for_each(|x| *x *= inv);
        }
        EntityEmbeddings::new(mat)
    }

    /// ProbExpan's read-out: the (sparse, top-`k`) probability distribution
    /// over candidate entities at the `[MASK]` position, derived from the
    /// entity's mean representation. The paper contrasts this
    /// probability-space representation with RetExpan's hidden-state
    /// representation (Section 6.2 point 2).
    pub fn entity_distribution(&self, h: &[f32], top_k: usize) -> Vec<(u32, f32)> {
        // The head was trained on *uncentered* features; add the center back.
        let uncentered: Vec<f32> = h.iter().zip(&self.center).map(|(x, c)| x + c).collect();
        let logits = self.head.matvec(&uncentered);
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut exps: Vec<(u32, f32)> = logits
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u32, (l - max).exp()))
            .collect();
        let sum: f32 = exps.iter().map(|(_, e)| e).sum();
        for (_, e) in exps.iter_mut() {
            *e /= sum;
        }
        let mut dist = ultra_core::top_k(exps, top_k);
        dist.sort_unstable_by_key(|(i, _)| *i);
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;
    use ultra_nn::cosine;

    fn world() -> World {
        World::generate(WorldConfig::tiny()).unwrap()
    }

    fn quick_cfg() -> EncoderConfig {
        EncoderConfig {
            epochs: 6,
            dim: 48,
            neg_samples: 48,
            max_sentences_per_entity: 10,
            ..EncoderConfig::default()
        }
    }

    #[test]
    fn encode_bag_is_bounded_by_tanh() {
        let w = world();
        let enc = EntityEncoder::new(&w, quick_cfg());
        let s = w.corpus.sentence(ultra_core::SentenceId::new(0));
        let e = s.mentions[0].1;
        let bag = enc.context_bag(&w, s, e);
        let h = enc.encode_bag(&bag);
        assert_eq!(h.len(), enc.dim());
        assert!(h.iter().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn context_bag_masks_the_entity() {
        let w = world();
        let enc = EntityEncoder::new(&w, quick_cfg());
        let e = w.classes[0].entities[0];
        let sid = w.corpus.sentences_of(e)[0];
        let s = w.corpus.sentence(sid);
        let bag = enc.context_bag(&w, s, e);
        assert!(!bag.contains(&w.mention_tokens[e.index()]));
        assert!(bag.contains(&w.vocab.mask()));
    }

    #[test]
    fn training_improves_same_class_similarity() {
        let w = world();
        let mut enc = EntityEncoder::new(&w, quick_cfg());
        enc.train_entity_prediction(&w);
        let reps = enc.entity_embeddings(&w);
        // Mean cosine within a class vs across classes.
        let c0 = &w.classes[0].entities;
        let c1 = &w.classes[1].entities;
        let within: f32 = (0..8)
            .map(|i| cosine(reps.row(c0[i]), reps.row(c0[i + 1])))
            .sum::<f32>()
            / 8.0;
        let across: f32 = (0..8)
            .map(|i| cosine(reps.row(c0[i]), reps.row(c1[i])))
            .sum::<f32>()
            / 8.0;
        assert!(
            within > across,
            "within-class cosine {within:.3} should exceed cross-class {across:.3}"
        );
    }

    #[test]
    fn entity_distribution_is_a_sparse_probability() {
        let w = world();
        let enc = EntityEncoder::new(&w, quick_cfg());
        let reps = enc.entity_embeddings(&w);
        let dist = enc.entity_distribution(reps.row(w.classes[0].entities[0]), 20);
        assert_eq!(dist.len(), 20);
        let sum: f32 = dist.iter().map(|(_, p)| p).sum();
        assert!(sum > 0.0 && sum <= 1.0 + 1e-5);
        // Sorted by entity index for sparse-cosine consumption.
        assert!(dist.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn contrastive_steps_pull_anchor_toward_positive() {
        let w = world();
        let mut enc = EntityEncoder::new(&w, quick_cfg());
        let e0 = w.classes[0].entities[0];
        let e1 = w.classes[0].entities[1];
        let e2 = w.classes[5].entities[0];
        let bag = |enc: &EntityEncoder, e: EntityId| {
            let sid = w.corpus.sentences_of(e)[0];
            enc.context_bag(&w, w.corpus.sentence(sid), e)
        };
        let (a, p, n) = (bag(&enc, e0), bag(&enc, e1), bag(&enc, e2));
        let sim_before = {
            let za = enc.project(&enc.encode_bag(&a));
            let zp = enc.project(&enc.encode_bag(&p));
            cosine(&za, &zp)
        };
        let ex = ContrastiveExample {
            anchor_bag: a.clone(),
            pos_bag: p.clone(),
            neg_bags: vec![n],
            weights: None,
        };
        let (pool, mut wss) = (ultra_par::Pool::new(1), ultra_nn::TrainWorkspaces::new(1));
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            last = crate::contrastive_batch_step_pooled(
                &mut enc,
                std::slice::from_ref(&ex),
                &pool,
                &mut wss,
            );
        }
        let sim_after = {
            let za = enc.project(&enc.encode_bag(&a));
            let zp = enc.project(&enc.encode_bag(&p));
            cosine(&za, &zp)
        };
        assert!(sim_after > sim_before, "{sim_after} > {sim_before}");
        assert!(last < 1.0, "loss should have dropped, got {last}");
    }

    #[test]
    fn training_is_deterministic() {
        let w = world();
        let mut e1 = EntityEncoder::new(&w, quick_cfg());
        let mut e2 = EntityEncoder::new(&w, quick_cfg());
        e1.train_entity_prediction(&w);
        e2.train_entity_prediction(&w);
        let r1 = e1.entity_embeddings(&w);
        let r2 = e2.entity_embeddings(&w);
        let e = w.classes[0].entities[0];
        assert_eq!(r1.row(e), r2.row(e));
    }
}
