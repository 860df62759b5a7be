//! The learnable sample-weight module.
//!
//! Weights must stay positive, start at `w = 1` (Algorithm 1, line 2) and be
//! pulled back towards 1 by `R_w = mean((w_i - 1)^2)` (Eq. 11). We
//! parameterise `w = softplus(raw)` with `raw` initialised at
//! `softplus^{-1}(1)`, which keeps the positivity constraint out of the
//! optimiser.

use sbrl_nn::{Adam, Binding, Optimizer, ParamHandle, ParamStore};
use sbrl_tensor::{stable_softplus, Graph, Matrix, TensorId};

/// `softplus^{-1}(1) = ln(e - 1)` — the raw value at which `w = 1`.
pub fn softplus_inverse_one() -> f64 {
    (std::f64::consts::E - 1.0).ln()
}

/// Per-training-sample positive weights with their own parameter store and
/// optimiser (the alternating scheme steps them separately from the
/// network).
pub struct SampleWeights {
    store: ParamStore,
    raw: ParamHandle,
    opt: Adam,
    n: usize,
}

impl SampleWeights {
    /// Creates `n` weights initialised to exactly 1.
    pub fn new(n: usize, lr: f64) -> Self {
        let mut store = ParamStore::new();
        let raw = store.register("sample_weights.raw", Matrix::full(n, 1, softplus_inverse_one()));
        let opt = Adam::new(&store, lr);
        Self { store, raw, opt, n }
    }

    /// Number of weights (training-set size).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the module tracks no samples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current weight values `softplus(raw)` (plain).
    pub fn values(&self) -> Vec<f64> {
        self.store.get(self.raw).as_slice().iter().map(|&r| stable_softplus(r)).collect()
    }

    /// Binds the batch weights into a graph as a *trainable* function of the
    /// raw parameters: `w_b = softplus(raw[batch])`.
    pub fn bind_trainable(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        batch: &[usize],
    ) -> TensorId {
        let raw = binding.bind(&self.store, g, self.raw);
        let gathered = g.gather_rows(raw, batch);
        g.softplus(gathered)
    }

    /// Binds the batch weights as constants (network-update phase, Eq. 13).
    /// The values are written straight into a pooled graph buffer, so the
    /// steady-state step allocates nothing here.
    pub fn bind_const(&self, g: &mut Graph, batch: &[usize]) -> TensorId {
        let mut buf = g.take_buffer(batch.len(), 1);
        let raw = self.store.get(self.raw);
        for (o, &i) in buf.as_mut_slice().iter_mut().zip(batch) {
            *o = stable_softplus(raw[(i, 0)]);
        }
        g.constant(buf)
    }

    /// The anti-collapse regulariser `R_w = mean((w - 1)^2)` (Eq. 11).
    pub fn r_w(&self, g: &mut Graph, w: TensorId) -> TensorId {
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        g.mean(sq)
    }

    /// Creates a fresh binding over the weight store.
    pub fn new_binding(&self) -> Binding {
        Binding::new(&self.store)
    }

    /// Resets a binding created by [`SampleWeights::new_binding`] for reuse
    /// on the next step (no allocation).
    pub fn reset_binding(&self, binding: &mut Binding) {
        binding.reset(&self.store);
    }

    /// Applies one optimiser step from the gradients in `g` / `binding`.
    pub fn step(&mut self, g: &Graph, binding: &Binding) {
        self.opt.step(&mut self.store, g, binding);
    }

    /// Snapshot of the raw weight parameters (checkpoint-rollback support:
    /// the trainer pairs this with the backbone's `store().snapshot()`).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.store.snapshot()
    }

    /// Restores a snapshot taken with [`SampleWeights::snapshot`].
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        self.store.restore(snapshot);
    }

    /// Replaces the optimiser with a fresh one (recovery resumes with clean
    /// Adam moments — stale moment estimates are often what diverged).
    pub fn reset_optimizer(&mut self, lr: f64) {
        self.opt = Adam::new(&self.store, lr);
    }

    /// Summary statistics of the current weights (min, mean, max).
    pub fn stats(&self) -> (f64, f64, f64) {
        let v = self.values();
        if v.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        (min, mean, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_start_at_one() {
        let w = SampleWeights::new(10, 1e-2);
        for v in w.values() {
            assert!((v - 1.0).abs() < 1e-12, "initial weight {v}");
        }
        let (min, mean, max) = w.stats();
        assert!(
            (min - 1.0).abs() < 1e-12 && (mean - 1.0).abs() < 1e-12 && (max - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn weights_remain_positive_under_aggressive_updates() {
        let mut w = SampleWeights::new(4, 0.5);
        // Push hard toward zero: minimise mean(w).
        for _ in 0..200 {
            let mut g = Graph::new();
            let mut binding = w.new_binding();
            let wb = w.bind_trainable(&mut g, &mut binding, &[0, 1, 2, 3]);
            let loss = g.mean(wb);
            g.backward(loss);
            w.step(&g, &binding);
        }
        for v in w.values() {
            assert!(v > 0.0, "weight must remain positive, got {v}");
        }
    }

    #[test]
    fn r_w_anchors_weights_at_one() {
        let mut w = SampleWeights::new(6, 0.05);
        // Perturb away from 1 by minimising -mean(w) for a while...
        for _ in 0..50 {
            let mut g = Graph::new();
            let mut binding = w.new_binding();
            let wb = w.bind_trainable(&mut g, &mut binding, &[0, 1, 2, 3, 4, 5]);
            let m = g.mean(wb);
            let loss = g.scale(m, -1.0);
            g.backward(loss);
            w.step(&g, &binding);
        }
        let (_, drifted, _) = w.stats();
        assert!(drifted > 1.2, "weights should have drifted up, got {drifted}");
        // ...then train on R_w alone: weights return to 1.
        for _ in 0..400 {
            let mut g = Graph::new();
            let mut binding = w.new_binding();
            let wb = w.bind_trainable(&mut g, &mut binding, &[0, 1, 2, 3, 4, 5]);
            let loss = w.r_w(&mut g, wb);
            g.backward(loss);
            w.step(&g, &binding);
        }
        let (_, recovered, _) = w.stats();
        assert!((recovered - 1.0).abs() < 0.05, "R_w should pull back to 1, got {recovered}");
    }

    #[test]
    fn batch_gather_matches_full_values() {
        let w = SampleWeights::new(5, 1e-2);
        let mut g = Graph::new();
        let mut binding = w.new_binding();
        let wb = w.bind_trainable(&mut g, &mut binding, &[4, 0, 2]);
        assert_eq!(g.value(wb).shape(), (3, 1));
        let full = w.values();
        assert_eq!(g.value(wb).as_slice(), &[full[4], full[0], full[2]]);
    }

    #[test]
    fn const_binding_has_no_gradient_path() {
        let w = SampleWeights::new(3, 1e-2);
        let mut g = Graph::new();
        let wb = w.bind_const(&mut g, &[0, 1, 2]);
        let loss = g.mean(wb);
        g.backward(loss);
        assert!(g.grad(wb).is_none(), "const weights must not accumulate gradients");
    }
}
