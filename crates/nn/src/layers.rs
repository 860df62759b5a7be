//! Neural-network layers: dense layers, activations, batch normalisation and
//! multi-layer perceptrons with "layer taps" (the per-layer activations the
//! Hierarchical-Attention Paradigm decorrelates).

use rand::rngs::StdRng;
use sbrl_tensor::rng::randn_scaled;
use sbrl_tensor::{Graph, Matrix, TensorId};

use crate::params::{Binding, ParamHandle, ParamStore};

/// Nonlinearity applied after a dense layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// Identity (linear output layer).
    Identity,
    /// Exponential linear unit with `alpha = 1` — the paper's activation
    /// (Sec. V-C).
    Elu,
}

impl Activation {
    /// Applies the activation in graph space.
    pub fn apply(self, g: &mut Graph, x: TensorId) -> TensorId {
        match self {
            Activation::Identity => x,
            Activation::Elu => g.elu(x),
        }
    }
}

/// A dense (fully-connected) layer `y = x W + b`.
pub struct Linear {
    w: ParamHandle,
    b: ParamHandle,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new dense layer's parameters in `store`: He-normal
    /// weights `N(0, 2 / in_dim)`, the usual choice for ELU stacks, and
    /// zero biases.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let std = (2.0 / in_dim.max(1) as f64).sqrt();
        let w = store.register(format!("{name}.w"), randn_scaled(rng, in_dim, out_dim, 0.0, std));
        let b = store.register(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight handle (exposed for L2 regularisation).
    pub fn weight(&self) -> ParamHandle {
        self.w
    }

    /// Bias handle.
    pub fn bias(&self) -> ParamHandle {
        self.b
    }

    /// Forward pass `x W + b`.
    pub fn forward(
        &self,
        store: &ParamStore,
        binding: &mut Binding,
        g: &mut Graph,
        x: TensorId,
    ) -> TensorId {
        let w = binding.bind(store, g, self.w);
        let b = binding.bind(store, g, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// Batch normalisation over the batch dimension with learnable scale/shift.
///
/// In training mode the batch statistics flow through the graph (so the
/// normalisation is differentiated); running statistics are tracked for
/// evaluation mode, matching the `batch norm` hyper-parameter of the paper's
/// configurations (Tables IV & V).
pub struct BatchNorm {
    gamma: ParamHandle,
    beta: ParamHandle,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    eps: f64,
    dim: usize,
}

impl BatchNorm {
    /// Registers batch-norm parameters for `dim` features.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Matrix::ones(1, dim));
        let beta = store.register(format!("{name}.beta"), Matrix::zeros(1, dim));
        Self {
            gamma,
            beta,
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.9,
            eps: 1e-5,
            dim,
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The frozen running statistics `(mean, variance)` used at inference —
    /// the training-only state a serialized model must carry alongside its
    /// parameter store.
    pub fn running_stats(&self) -> (&[f64], &[f64]) {
        (&self.running_mean, &self.running_var)
    }

    /// Overwrites the running statistics (model deserialization). Returns
    /// `false` — leaving the layer untouched — when either slice does not
    /// match the feature width.
    pub fn set_running_stats(&mut self, mean: &[f64], var: &[f64]) -> bool {
        if mean.len() != self.dim || var.len() != self.dim {
            return false;
        }
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
        true
    }

    /// Training-mode forward pass: normalises by the batch statistics (which
    /// flow through the tape and are differentiated) and updates the running
    /// averages used at inference. This is the only mutating path — keep it
    /// out of serving code.
    pub fn forward_train(
        &mut self,
        store: &ParamStore,
        binding: &mut Binding,
        g: &mut Graph,
        x: TensorId,
    ) -> TensorId {
        let gamma = binding.bind(store, g, self.gamma);
        let beta = binding.bind(store, g, self.beta);
        let mean = g.mean_axis0(x);
        let centred = g.sub_row(x, mean);
        let sq = g.square(centred);
        let var = g.mean_axis0(sq);
        let var_eps = g.add_scalar(var, self.eps);
        let std = g.sqrt(var_eps);
        // Track running stats outside the tape (reading the node values in
        // place keeps the training step allocation-free).
        let momentum = self.momentum;
        for (rm, &mv) in self.running_mean.iter_mut().zip(g.value(mean).as_slice()) {
            *rm = momentum * *rm + (1.0 - momentum) * mv;
        }
        for (rv, &vv) in self.running_var.iter_mut().zip(g.value(var).as_slice()) {
            *rv = momentum * *rv + (1.0 - momentum) * vv;
        }
        let normalised = g.div_row(centred, std);
        let scaled = g.mul_row(normalised, gamma);
        g.add_row(scaled, beta)
    }

    /// Inference-mode forward pass: normalises by the frozen running
    /// statistics. Takes `&self`, so fitted models can serve concurrently.
    pub fn forward_infer(
        &self,
        store: &ParamStore,
        binding: &mut Binding,
        g: &mut Graph,
        x: TensorId,
    ) -> TensorId {
        let gamma = binding.bind(store, g, self.gamma);
        let beta = binding.bind(store, g, self.beta);
        let mean = g.constant(Matrix::row_vec(&self.running_mean));
        let std_vals: Vec<f64> = self.running_var.iter().map(|v| (v + self.eps).sqrt()).collect();
        let std = g.constant(Matrix::row_vec(&std_vals));
        let centred = g.sub_row(x, mean);
        let normalised = g.div_row(centred, std);
        let scaled = g.mul_row(normalised, gamma);
        g.add_row(scaled, beta)
    }
}

/// Normalises every row of a representation to unit L2 norm — the paper's
/// `rep normalization` option (CFR's representation normalisation).
pub fn l2_normalize_rows(g: &mut Graph, x: TensorId) -> TensorId {
    let sq = g.square(x);
    let sumsq = g.sum_axis1(sq);
    let safe = g.add_scalar(sumsq, 1e-12);
    let norm = g.sqrt(safe);
    g.div_col(x, norm)
}

/// A stack of dense layers with ELU hidden activations, exposing every
/// layer's activation ("taps") for the Hierarchical-Attention Paradigm.
pub struct Mlp {
    layers: Vec<Linear>,
    output_activation: Activation,
}

/// The result of an [`Mlp`] forward pass.
pub struct MlpOutput {
    /// Activations of each layer, in order; the last entry is the output.
    pub taps: Vec<TensorId>,
    /// The final output node (same as `taps.last()`).
    pub output: TensorId,
}

impl Mlp {
    /// Builds an MLP with `dims = [in, h1, ..., out]`; `dims.len() >= 2`.
    /// Every layer but the last applies ELU; the last applies
    /// `output_activation`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    #[track_caller]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dims: &[usize],
        output_activation: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new requires at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.l{i}"), w[0], w[1]))
            .collect();
        Self { layers, output_activation }
    }

    /// Number of dense layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output width of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Borrow of the dense layers (for L2 regularisation over weights).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass returning all layer taps.
    ///
    /// The tap list is drawn from the graph's recycled id-buffer pool;
    /// callers chasing allocation-free steps should return it via
    /// [`Graph::give_id_buf`] once the taps are no longer needed.
    pub fn forward(
        &self,
        store: &ParamStore,
        binding: &mut Binding,
        g: &mut Graph,
        x: TensorId,
    ) -> MlpOutput {
        let mut taps = g.take_id_buf();
        taps.reserve(self.layers.len());
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(store, binding, g, h);
            let act = if i == last { self.output_activation } else { Activation::Elu };
            h = act.apply(g, pre);
            taps.push(h);
        }
        MlpOutput { output: h, taps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed};

    #[test]
    fn linear_forward_matches_manual() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(0);
        let layer = Linear::new(&mut store, &mut rng, "l", 3, 2);
        // Overwrite with known values.
        *store.get_mut(layer.weight()) = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        *store.get_mut(layer.bias()) = Matrix::from_vec(1, 2, vec![0.5, -0.5]);

        let mut g = Graph::new();
        let mut b = Binding::new(&store);
        let x = g.constant(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let y = layer.forward(&store, &mut b, &mut g, x);
        // y = [1*1+2*0+3*1 + 0.5, 1*0+2*1+3*1 - 0.5] = [4.5, 4.5]
        assert!(g.value(y).approx_eq(&Matrix::from_vec(1, 2, vec![4.5, 4.5]), 1e-12));
    }

    #[test]
    fn linear_init_shapes() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(0);
        let layer = Linear::new(&mut store, &mut rng, "l", 7, 3);
        assert_eq!(store.get(layer.weight()).shape(), (7, 3));
        assert_eq!(store.get(layer.bias()).shape(), (1, 3));
    }

    #[test]
    fn linear_bias_init_is_zero() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(2);
        let layer = Linear::new(&mut store, &mut rng, "l", 3, 3);
        assert_eq!(store.get(layer.bias()).sum(), 0.0);
        assert!(store.get(layer.bias()).as_slice().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn he_scale_shrinks_with_fan_in() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(1);
        let narrow = Linear::new(&mut store, &mut rng, "narrow", 4, 2000);
        let wide = Linear::new(&mut store, &mut rng, "wide", 400, 2000);
        let std_narrow = store.get(narrow.weight()).std_axis0().mean();
        let std_wide = store.get(wide.weight()).std_axis0().mean();
        assert!(std_narrow > std_wide * 5.0, "He init should scale ~1/sqrt(fan_in)");
    }

    #[test]
    fn mlp_tap_count_and_shapes() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(1);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[4, 8, 8, 2], Activation::Identity);
        assert_eq!(mlp.num_layers(), 3);
        assert_eq!(mlp.out_dim(), 2);

        let mut g = Graph::new();
        let mut b = Binding::new(&store);
        let x = g.constant(randn(&mut rng, 5, 4));
        let out = mlp.forward(&store, &mut b, &mut g, x);
        assert_eq!(out.taps.len(), 3);
        assert_eq!(g.value(out.taps[0]).shape(), (5, 8));
        assert_eq!(g.value(out.taps[1]).shape(), (5, 8));
        assert_eq!(g.value(out.output).shape(), (5, 2));
    }

    #[test]
    fn l2_normalize_rows_yields_unit_norms() {
        let mut g = Graph::new();
        let mut rng = rng_from_seed(2);
        let x = g.constant(randn(&mut rng, 6, 4));
        let n = l2_normalize_rows(&mut g, x);
        let v = g.value(n);
        for i in 0..6 {
            let norm: f64 = v.row(i).iter().map(|a| a * a).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "row {i} norm {norm}");
        }
    }

    #[test]
    fn batchnorm_training_standardises_batch() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(3);
        let mut bn = BatchNorm::new(&mut store, "bn", 3);
        let mut g = Graph::new();
        let mut binding = Binding::new(&store);
        let x = g.constant(randn(&mut rng, 64, 3).scale(4.0).add_scalar(10.0));
        let y = bn.forward_train(&store, &mut binding, &mut g, x);
        let v = g.value(y);
        let mean = v.mean_axis0();
        let std = v.std_axis0();
        for j in 0..3 {
            assert!(mean.as_slice()[j].abs() < 1e-8);
            assert!((std.as_slice()[j] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(4);
        let mut bn = BatchNorm::new(&mut store, "bn", 2);
        // Train on shifted data a few times to move running stats.
        for _ in 0..50 {
            let mut g = Graph::new();
            let mut binding = Binding::new(&store);
            let x = g.constant(randn(&mut rng, 32, 2).add_scalar(5.0));
            let _ = bn.forward_train(&store, &mut binding, &mut g, x);
        }
        // Eval pass on the same distribution should be roughly standardised.
        let mut g = Graph::new();
        let mut binding = Binding::new(&store);
        let x = g.constant(randn(&mut rng, 256, 2).add_scalar(5.0));
        let y = bn.forward_infer(&store, &mut binding, &mut g, x);
        let mean = g.value(y).mean_axis0();
        assert!(mean.as_slice().iter().all(|m| m.abs() < 0.5), "eval mean {mean:?}");
    }

    #[test]
    fn batchnorm_running_stats_round_trip() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm::new(&mut store, "bn", 3);
        assert!(bn.set_running_stats(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]));
        let (mean, var) = bn.running_stats();
        assert_eq!(mean, &[1.0, 2.0, 3.0]);
        assert_eq!(var, &[4.0, 5.0, 6.0]);
        // Wrong widths are rejected and leave the layer untouched.
        assert!(!bn.set_running_stats(&[0.0; 2], &[1.0; 3]));
        assert!(!bn.set_running_stats(&[0.0; 3], &[1.0; 4]));
        assert_eq!(bn.running_stats().0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gradients_flow_through_mlp() {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(5);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[3, 4, 1], Activation::Identity);
        let mut g = Graph::new();
        let mut binding = Binding::new(&store);
        let x = g.constant(randn(&mut rng, 8, 3));
        let out = mlp.forward(&store, &mut binding, &mut g, x);
        let loss = g.sumsq(out.output);
        g.backward(loss);
        for (_, id) in binding.bound() {
            assert!(g.grad(id).is_some(), "every bound param should get a gradient");
        }
    }
}
