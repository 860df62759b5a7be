//! Optimisers and learning-rate schedules.
//!
//! The paper trains all methods with Adam and an exponentially decaying
//! learning rate (Sec. V-C).

use sbrl_tensor::{Graph, Matrix};

use crate::params::{Binding, ParamStore};

/// Learning-rate schedule evaluated per optimisation step.
#[derive(Clone, Copy, Debug)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// `lr(t) = lr0 * rate^(t / steps)` — smooth exponential decay.
    ExponentialDecay {
        /// Multiplicative decay applied every `steps` steps.
        rate: f64,
        /// Step interval over which one `rate` factor is applied.
        steps: usize,
    },
}

impl LrSchedule {
    /// Learning-rate multiplier at step `t`.
    pub fn factor(self, t: usize) -> f64 {
        match self {
            LrSchedule::Constant => 1.0,
            LrSchedule::ExponentialDecay { rate, steps } => {
                rate.powf(t as f64 / steps.max(1) as f64)
            }
        }
    }
}

/// Shared optimiser interface: consume gradients from the current graph and
/// update the parameter store in place.
pub trait Optimizer {
    /// Applies one update using the gradients bound in `binding`.
    fn step(&mut self, store: &mut ParamStore, g: &Graph, binding: &Binding);
    /// The step counter (number of updates applied so far).
    fn steps_taken(&self) -> usize;
}

/// Adam (Kingma & Ba, 2015) with optional LR decay and gradient clipping.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    schedule: LrSchedule,
    /// Global gradient-norm clip; `None` disables clipping.
    clip_norm: Option<f64>,
    t: usize,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Default global gradient-norm clip installed by [`Adam::new`].
    /// Recovery policies escalate clipping *down* from this value
    /// (`sbrl-core`'s rollback path), so it is public: the starting point
    /// of the escalation has a single source of truth.
    pub const DEFAULT_CLIP_NORM: f64 = 10.0;

    /// Creates an Adam optimiser for every parameter in `store`.
    pub fn new(store: &ParamStore, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            schedule: LrSchedule::Constant,
            clip_norm: Some(Self::DEFAULT_CLIP_NORM),
            t: 0,
            m: vec![None; store.len()],
            v: vec![None; store.len()],
        }
    }

    /// Sets the LR schedule (builder style).
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets (or disables) global gradient-norm clipping.
    pub fn with_clip_norm(mut self, clip: Option<f64>) -> Self {
        self.clip_norm = clip;
        self
    }
}

impl Optimizer for Adam {
    // lint: no_alloc
    fn step(&mut self, store: &mut ParamStore, g: &Graph, binding: &Binding) {
        self.t += 1;
        let lr_t = self.lr * self.schedule.factor(self.t);
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);

        // Optional global-norm clipping across all bound gradients.
        let mut scale = 1.0;
        if let Some(max_norm) = self.clip_norm {
            let mut total = 0.0;
            for (_, id) in binding.bound() {
                if let Some(grad) = g.grad(id) {
                    total += grad.as_slice().iter().map(|x| x * x).sum::<f64>();
                }
            }
            let norm = total.sqrt();
            if norm > max_norm {
                scale = max_norm / norm;
            }
        }

        for (h, id) in binding.bound() {
            let Some(grad) = g.grad(id) else { continue };
            // lint: allow(alloc) — warm-up only: moment buffers are created on
            // the first step per parameter and reused for the fit's lifetime.
            let m = self.m[h.0].get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            // lint: allow(alloc) — warm-up only, as above.
            let v = self.v[h.0].get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            let param = store.get_mut(h);
            // The gradient is read in place (no clone); clip scaling is
            // applied per element only when it fires, matching the historical
            // `grad.scale(scale)` bit for bit while keeping the steady-state
            // step allocation-free.
            for ((p, &gr), (mi, vi)) in param
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                let gi = if scale != 1.0 { gr * scale } else { gr };
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *p -= lr_t * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn steps_taken(&self) -> usize {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Binding;
    use sbrl_tensor::Graph;

    /// Minimise ||w - target||^2 and check convergence.
    fn run_quadratic(opt: &mut dyn Optimizer, store: &mut ParamStore, iters: usize) -> f64 {
        let h = crate::params::ParamHandle(0);
        let target = Matrix::from_vec(1, 2, vec![3.0, -2.0]);
        for _ in 0..iters {
            let mut g = Graph::new();
            let mut binding = Binding::new(store);
            let w = binding.bind(store, &mut g, h);
            let t = g.constant(target.clone());
            let loss = g.sq_dist(w, t);
            g.backward(loss);
            opt.step(store, &g, &binding);
        }
        store.get(h).max_abs_diff(&target)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::zeros(1, 2));
        let mut opt = Adam::new(&store, 0.1);
        let err = run_quadratic(&mut opt, &mut store, 500);
        assert!(err < 1e-3, "Adam should converge, err = {err}");
        assert_eq!(opt.steps_taken(), 500);
    }

    #[test]
    fn exponential_decay_shrinks_lr() {
        let s = LrSchedule::ExponentialDecay { rate: 0.5, steps: 100 };
        assert!((s.factor(0) - 1.0).abs() < 1e-12);
        assert!((s.factor(100) - 0.5).abs() < 1e-12);
        assert!((s.factor(200) - 0.25).abs() < 1e-12);
        assert!(s.factor(50) < 1.0 && s.factor(50) > 0.5);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let h = store.register("w", Matrix::zeros(1, 1));
        let mut opt = Adam::new(&store, 0.1).with_clip_norm(Some(1.0));
        // Huge gradient: loss = 1e6 * w -> grad 1e6, clipped to norm 1.
        let mut g = Graph::new();
        let mut binding = Binding::new(&store);
        let w = binding.bind(&store, &mut g, h);
        let scaled = g.scale(w, 1e6);
        let loss = g.sum(scaled);
        g.backward(loss);
        opt.step(&mut store, &g, &binding);
        // Adam's first step magnitude is ~lr regardless, but must be finite & small.
        let v = store.get(h)[(0, 0)];
        assert!(v.abs() <= 0.11, "update too large: {v}");
    }
}
