//! The optimizer: SGD with weight decay.
//!
//! Appendix B trains RetExpan with lr 4e-5 / weight-decay 1e-2; the
//! dense parameters (the projection head) step through [`Sgd`], the
//! embedding rows through `EmbeddingBag`'s sparse row update.

/// Visitor trait exposing `(parameters, gradients)` pairs of a model.
///
/// Layers accumulate gradients into their own buffers; optimizers walk
/// the pairs via this trait, in a stable visit order.
pub trait GradApply {
    /// Calls `f(params, grads)` for every parameter block, in a stable order.
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Clears accumulated gradients.
    fn zero_grads(&mut self);
}

/// Plain SGD: `w -= lr · (g + wd · w)`.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Sgd {
    /// SGD with the given learning rate and no decay.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Sets weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update and clears gradients.
    pub fn step(&self, model: &mut dyn GradApply) {
        let (lr, wd) = (self.lr, self.weight_decay);
        model.visit(&mut |params, grads| {
            for (w, g) in params.iter_mut().zip(grads.iter()) {
                *w -= lr * (g + wd * *w);
            }
        });
        model.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single scalar parameter for optimizer unit tests.
    struct Scalar {
        w: [f32; 1],
        g: [f32; 1],
    }

    impl GradApply for Scalar {
        fn visit(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
            f(&mut self.w, &mut self.g);
        }
        fn zero_grads(&mut self) {
            self.g[0] = 0.0;
        }
    }

    #[test]
    fn sgd_descends_and_clears_grads() {
        let mut s = Scalar { w: [1.0], g: [2.0] };
        Sgd::new(0.1).step(&mut s);
        assert!((s.w[0] - 0.8).abs() < 1e-6);
        assert_eq!(s.g[0], 0.0);
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut s = Scalar { w: [1.0], g: [0.0] };
        Sgd::new(0.1).with_weight_decay(0.5).step(&mut s);
        assert!((s.w[0] - 0.95).abs() < 1e-6);
    }
}
