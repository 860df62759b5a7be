//! TARNet (Shalit et al., 2017): a treatment-agnostic shared representation
//! network with two outcome heads and no balancing penalty.

use rand::rngs::StdRng;
use sbrl_nn::{Activation, BatchNorm, Binding, Mlp, ParamHandle, ParamStore};
use sbrl_tensor::{Graph, TensorId};

use crate::backbone::{
    export_bn_state, import_bn_state, select_by_treatment, Backbone, BatchContext, ForwardPass,
    LayerTaps,
};
use crate::kind::BackboneConfig;

/// Architecture hyper-parameters shared by TARNet and CFR (Tables IV/V use
/// `{d_r, d_y}` layer counts and `{h_r, h_y}` widths).
#[derive(Clone, Copy, Debug)]
pub struct TarnetConfig {
    /// Covariate dimension.
    pub in_dim: usize,
    /// Number of representation layers `d_r`.
    pub rep_layers: usize,
    /// Representation width `h_r`.
    pub rep_width: usize,
    /// Number of hidden head layers `d_y`.
    pub head_layers: usize,
    /// Head width `h_y`.
    pub head_width: usize,
    /// Apply batch normalisation to the input covariates.
    pub batch_norm: bool,
    /// L2-normalise the representation rows (CFR's `rep normalization`).
    pub rep_normalization: bool,
}

impl TarnetConfig {
    /// A small default suitable for tests and quick experiments.
    pub fn small(in_dim: usize) -> Self {
        Self {
            in_dim,
            rep_layers: 2,
            rep_width: 32,
            head_layers: 2,
            head_width: 16,
            batch_norm: false,
            rep_normalization: false,
        }
    }
}

/// The TARNet backbone.
pub struct Tarnet {
    cfg: TarnetConfig,
    store: ParamStore,
    input_bn: Option<BatchNorm>,
    rep: Mlp,
    head0: Mlp,
    head1: Mlp,
}

impl Tarnet {
    /// Builds a TARNet with He-initialised ELU layers (Sec. V-C).
    pub fn new(cfg: TarnetConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let input_bn = cfg.batch_norm.then(|| BatchNorm::new(&mut store, "input_bn", cfg.in_dim));
        let mut rep_dims = vec![cfg.in_dim];
        rep_dims.extend(std::iter::repeat_n(cfg.rep_width, cfg.rep_layers.max(1)));
        let rep = Mlp::new(&mut store, rng, "rep", &rep_dims, Activation::Elu);
        let mut head_dims = vec![cfg.rep_width];
        head_dims.extend(std::iter::repeat_n(cfg.head_width, cfg.head_layers.max(1)));
        head_dims.push(1);
        let head0 = Mlp::new(&mut store, rng, "head0", &head_dims, Activation::Identity);
        let head1 = Mlp::new(&mut store, rng, "head1", &head_dims, Activation::Identity);
        Self { cfg, store, input_bn, rep, head0, head1 }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &TarnetConfig {
        &self.cfg
    }

    /// Inference-mode forward shared with CFR: returns the pass plus the
    /// representation node so CFR can attach its IPM penalty.
    pub(crate) fn forward_with_rep(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> (ForwardPass, TensorId) {
        let x = match &self.input_bn {
            Some(bn) => bn.forward_infer(&self.store, binding, g, x),
            None => x,
        };
        self.body(g, binding, x, ctx)
    }

    /// Training-mode forward shared with CFR (updates batch-norm running
    /// statistics).
    pub(crate) fn forward_with_rep_train(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> (ForwardPass, TensorId) {
        let x = match &mut self.input_bn {
            Some(bn) => bn.forward_train(&self.store, binding, g, x),
            None => x,
        };
        self.body(g, binding, x, ctx)
    }

    /// Mode-independent network body after the (optional) input batch norm.
    fn body(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> (ForwardPass, TensorId) {
        let rep_out = self.rep.forward(&self.store, binding, g, x);
        let mut phi = rep_out.output;
        if self.cfg.rep_normalization {
            phi = sbrl_nn::l2_normalize_rows(g, phi);
        }

        let h0 = self.head0.forward(&self.store, binding, g, phi);
        let h1 = self.head1.forward(&self.store, binding, g, phi);

        // Hidden taps: rep hiddens before Φ are "other" layers; the factual
        // mix of the heads' last hidden layers is Z_p; earlier head hiddens
        // are "other" layers too. The rep tap list is reused as the z_o
        // buffer and the head tap lists are recycled, so a warmed-up step
        // allocates nothing here.
        let mut z_o: Vec<TensorId> = rep_out.taps;
        z_o.pop(); // the last rep tap is Φ itself
        let n_hidden = self.head0.num_layers() - 1; // exclude linear output
        for l in 0..n_hidden.saturating_sub(1) {
            let mixed = select_by_treatment(g, ctx, h1.taps[l], h0.taps[l]);
            z_o.push(mixed);
        }
        let z_p = if n_hidden > 0 {
            select_by_treatment(g, ctx, h1.taps[n_hidden - 1], h0.taps[n_hidden - 1])
        } else {
            phi
        };
        g.give_id_buf(h0.taps);
        g.give_id_buf(h1.taps);

        let zero = g.scalar_const(0.0);
        let pass = ForwardPass {
            y0_raw: h0.output,
            y1_raw: h1.output,
            taps: LayerTaps { z_o, z_r: phi, z_p },
            reg_loss: zero,
        };
        (pass, phi)
    }

    fn collect_l2(&self) -> Vec<ParamHandle> {
        self.rep
            .layers()
            .iter()
            .chain(self.head0.layers())
            .chain(self.head1.layers())
            .map(|l| l.weight())
            .collect()
    }
}

impl Backbone for Tarnet {
    fn name(&self) -> String {
        "TARNet".to_string()
    }

    fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass {
        self.forward_with_rep(g, binding, x, ctx).0
    }

    fn forward_train(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
        _with_reg: bool,
    ) -> ForwardPass {
        self.forward_with_rep_train(g, binding, x, ctx).0
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn l2_handles(&self) -> Vec<ParamHandle> {
        self.collect_l2()
    }

    fn export_config(&self) -> BackboneConfig {
        BackboneConfig::Tarnet(self.cfg)
    }

    fn export_extra_state(&self) -> Vec<(String, Vec<f64>)> {
        export_bn_state(&self.input_bn)
    }

    fn import_extra_state(&mut self, state: &[(String, Vec<f64>)]) -> Result<(), String> {
        import_bn_state(&mut self.input_bn, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed};

    #[test]
    fn forward_shapes_and_taps() {
        let mut rng = rng_from_seed(0);
        let cfg = TarnetConfig::small(5);
        let mut model = Tarnet::new(cfg, &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 8, 5));
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
        assert_eq!(g.value(pass.y0_raw).shape(), (8, 1));
        assert_eq!(g.value(pass.y1_raw).shape(), (8, 1));
        assert_eq!(g.value(pass.taps.z_r).shape(), (8, 32));
        assert_eq!(g.value(pass.taps.z_p).shape(), (8, 16));
        // rep has 2 layers -> 1 "other" tap; head has 2 hidden -> 1 more.
        assert_eq!(pass.taps.z_o.len(), 2);
        assert_eq!(g.scalar(pass.reg_loss), 0.0);
    }

    #[test]
    fn heads_differ_after_initialisation() {
        let mut rng = rng_from_seed(1);
        let model = Tarnet::new(TarnetConfig::small(4), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 4, 4));
        let ctx = BatchContext::new(&[1.0, 1.0, 0.0, 0.0]);
        let pass = model.forward(&mut g, &mut binding, x, &ctx);
        let y0 = g.value(pass.y0_raw).clone();
        let y1 = g.value(pass.y1_raw).clone();
        assert!(!y0.approx_eq(&y1, 1e-9), "independent heads should differ");
    }

    #[test]
    fn rep_normalization_gives_unit_rows() {
        let mut rng = rng_from_seed(2);
        let cfg = TarnetConfig { rep_normalization: true, ..TarnetConfig::small(4) };
        let mut model = Tarnet::new(cfg, &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 6, 4));
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
        let phi = g.value(pass.taps.z_r);
        for i in 0..6 {
            let norm: f64 = phi.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-6, "row {i} norm {norm}");
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = rng_from_seed(3);
        let mut model = Tarnet::new(TarnetConfig::small(3), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 6, 3));
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
        // Train on the factual mix so both heads receive gradient.
        let fact = select_by_treatment(&mut g, &ctx, pass.y1_raw, pass.y0_raw);
        let loss = g.sumsq(fact);
        g.backward(loss);
        let grads = binding.bound().filter(|&(_, id)| g.grad(id).is_some()).count();
        assert_eq!(grads, binding.bound().count(), "all bound params should have grads");
    }

    #[test]
    fn l2_handles_cover_all_weight_matrices() {
        let mut rng = rng_from_seed(4);
        let model = Tarnet::new(TarnetConfig::small(3), &mut rng);
        // rep 2 + head0 3 + head1 3 (2 hidden + 1 output each)
        assert_eq!(model.l2_handles().len(), 8);
    }
}
