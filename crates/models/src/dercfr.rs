//! DeR-CFR — Decomposed Representations for Counterfactual Regression
//! (Wu et al., TKDE 2022): three dedicated representation networks separate
//! instrumental variables `I(X)`, confounders `C(X)` and adjustment
//! variables `A(X)`, with decomposition regularizers that orthogonalise the
//! three groups. The paper (Sec. V-A) uses it as its strongest baseline and
//! notes that this built-in decorrelation already buys some shift
//! resistance.
//!
//! This implementation follows the decomposition objectives at the level of
//! detail the SBRL-HAP paper relies on, with the hyper-parameter naming of
//! its Table V (`{α, β, γ, μ, λ}`):
//!
//! * `α` — adjustment balance: `IPM(A_t, A_c)` drives `A ⊥ T`;
//! * `β` — treatment prediction: cross-entropy of `t̂([I, C])`, keeping
//!   treatment information inside `I`/`C`;
//! * `γ` — confounder balance: `IPM(C_t, C_c)` in representation space;
//! * `μ` — deep orthogonality between the first-layer weight columns of the
//!   three representation networks (hard decomposition);
//! * `λ` — L2 regularisation (applied by the trainer through
//!   [`Backbone::l2_handles`]).
//!
//! Outcome heads regress `Y` from `[C | A]`; the treatment head classifies
//! `T` from `[I | C]`.

use rand::rngs::StdRng;
use sbrl_nn::{Activation, BatchNorm, Binding, Mlp, ParamHandle, ParamStore};
use sbrl_stats::{ipm_graph, IpmKind};
use sbrl_tensor::{Graph, TensorId};

use crate::backbone::{
    export_bn_state, import_bn_state, select_by_treatment, Backbone, BatchContext, ForwardPass,
    LayerTaps,
};
use crate::kind::BackboneConfig;
use crate::tarnet::TarnetConfig;

/// DeR-CFR hyper-parameters (`{α, β, γ, μ, λ}` per the paper's Table V; `λ`
/// is consumed by the trainer's L2 term).
#[derive(Clone, Copy, Debug)]
pub struct DerCfrConfig {
    /// Base architecture (layer counts / widths; `rep_width` is the width of
    /// *each* of the three representation networks).
    pub arch: TarnetConfig,
    /// Adjustment-balance weight `α`.
    pub alpha: f64,
    /// Treatment-prediction weight `β`.
    pub beta: f64,
    /// Confounder-balance weight `γ`.
    pub gamma: f64,
    /// Orthogonality weight `μ`.
    pub mu: f64,
    /// IPM kind used by the balance terms.
    pub ipm: IpmKind,
}

impl DerCfrConfig {
    /// A small default suitable for tests and quick experiments.
    pub fn small(in_dim: usize) -> Self {
        Self {
            arch: TarnetConfig::small(in_dim),
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            mu: 1.0,
            ipm: IpmKind::MmdLin,
        }
    }
}

/// The DeR-CFR backbone.
pub struct DerCfr {
    cfg: DerCfrConfig,
    store: ParamStore,
    input_bn: Option<BatchNorm>,
    rep_i: Mlp,
    rep_c: Mlp,
    rep_a: Mlp,
    treat_head: Mlp,
    head0: Mlp,
    head1: Mlp,
}

impl DerCfr {
    /// Builds a DeR-CFR model.
    pub fn new(cfg: DerCfrConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let arch = cfg.arch;
        let input_bn = arch.batch_norm.then(|| BatchNorm::new(&mut store, "input_bn", arch.in_dim));
        let mut rep_dims = vec![arch.in_dim];
        rep_dims.extend(std::iter::repeat_n(arch.rep_width, arch.rep_layers.max(1)));
        let mk_rep = |store: &mut ParamStore, rng: &mut StdRng, name: &str| {
            Mlp::new(store, rng, name, &rep_dims, Activation::Elu)
        };
        let rep_i = mk_rep(&mut store, rng, "rep_i");
        let rep_c = mk_rep(&mut store, rng, "rep_c");
        let rep_a = mk_rep(&mut store, rng, "rep_a");

        // Treatment head on [I | C] -> logit.
        let treat_head = Mlp::new(
            &mut store,
            rng,
            "treat_head",
            &[2 * arch.rep_width, arch.head_width, 1],
            Activation::Identity,
        );
        // Outcome heads on [C | A].
        let mut head_dims = vec![2 * arch.rep_width];
        head_dims.extend(std::iter::repeat_n(arch.head_width, arch.head_layers.max(1)));
        head_dims.push(1);
        let head0 = Mlp::new(&mut store, rng, "head0", &head_dims, Activation::Identity);
        let head1 = Mlp::new(&mut store, rng, "head1", &head_dims, Activation::Identity);
        Self { cfg, store, input_bn, rep_i, rep_c, rep_a, treat_head, head0, head1 }
    }

    /// The configuration.
    pub fn config(&self) -> &DerCfrConfig {
        &self.cfg
    }

    /// Orthogonality penalty between the first-layer weights of the three
    /// representation networks: mean squared cross-Gram entries
    /// `||W_a^T W_b||_F^2` over the three pairs.
    fn orthogonality_loss(&self, g: &mut Graph, binding: &mut Binding) -> TensorId {
        let w_i = binding.bind(&self.store, g, self.rep_i.layers()[0].weight());
        let w_c = binding.bind(&self.store, g, self.rep_c.layers()[0].weight());
        let w_a = binding.bind(&self.store, g, self.rep_a.layers()[0].weight());
        let mut acc = g.scalar_const(0.0);
        for (a, b) in [(w_i, w_c), (w_i, w_a), (w_c, w_a)] {
            let gram = g.matmul_tn(a, b);
            let sq = g.square(gram);
            let m = g.mean(sq);
            acc = g.add(acc, m);
        }
        acc
    }
}

impl DerCfr {
    /// Mode-independent network body after the (optional) input batch norm;
    /// `with_reg` attaches the decomposition losses (training only). The
    /// treatment head only feeds the `β·BCE` term, so it is built only with
    /// that term.
    fn body(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
        with_reg: bool,
    ) -> ForwardPass {
        let out_i = self.rep_i.forward(&self.store, binding, g, x);
        let out_c = self.rep_c.forward(&self.store, binding, g, x);
        let out_a = self.rep_a.forward(&self.store, binding, g, x);
        let (rep_i, rep_c, rep_a) = (out_i.output, out_c.output, out_a.output);

        let ic = (with_reg && self.cfg.beta > 0.0).then(|| g.concat_cols(rep_i, rep_c));
        let ca = g.concat_cols(rep_c, rep_a);
        let t_logit = ic.map(|ic| self.treat_head.forward(&self.store, binding, g, ic));
        let h0 = self.head0.forward(&self.store, binding, g, ca);
        let h1 = self.head1.forward(&self.store, binding, g, ca);

        // Decomposition losses (training only).
        let mut reg = g.scalar_const(0.0);
        if with_reg {
            let c = self.cfg;
            if c.alpha > 0.0 {
                let bal_a = ipm_graph(g, c.ipm, rep_a, &ctx.treated_idx, &ctx.control_idx);
                let s = g.scale(bal_a, c.alpha);
                reg = g.add(reg, s);
            }
            if c.gamma > 0.0 {
                let bal_c = ipm_graph(g, c.ipm, rep_c, &ctx.treated_idx, &ctx.control_idx);
                let s = g.scale(bal_c, c.gamma);
                reg = g.add(reg, s);
            }
            if let Some(t_logit) = &t_logit {
                let t_target = g.constant_col(&ctx.t);
                let t_loss = sbrl_nn::loss::bce_with_logits(g, t_logit.output, t_target);
                let s = g.scale(t_loss, c.beta);
                reg = g.add(reg, s);
            }
            if c.mu > 0.0 {
                let ortho = self.orthogonality_loss(g, binding);
                let s = g.scale(ortho, c.mu);
                reg = g.add(reg, s);
            }
        }

        // Taps: Z_r is the confounder representation (the layer DeR-CFR
        // balances); the I/A outputs and all earlier hiddens are Z_o. Tap
        // buffers come from / return to the graph's id-buffer pool so the
        // training step stays allocation-free.
        let mut z_o: Vec<TensorId> = g.take_id_buf();
        for out in [&out_i, &out_c, &out_a] {
            z_o.extend_from_slice(&out.taps[..out.taps.len() - 1]);
        }
        z_o.push(rep_i);
        z_o.push(rep_a);
        let n_hidden = self.head0.num_layers() - 1;
        for l in 0..n_hidden.saturating_sub(1) {
            let mixed = select_by_treatment(g, ctx, h1.taps[l], h0.taps[l]);
            z_o.push(mixed);
        }
        let z_p = if n_hidden > 0 {
            select_by_treatment(g, ctx, h1.taps[n_hidden - 1], h0.taps[n_hidden - 1])
        } else {
            rep_c
        };
        let (y0_raw, y1_raw) = (h0.output, h1.output);
        for out in [out_i, out_c, out_a].into_iter().chain(t_logit).chain([h0, h1]) {
            g.give_id_buf(out.taps);
        }

        ForwardPass { y0_raw, y1_raw, taps: LayerTaps { z_o, z_r: rep_c, z_p }, reg_loss: reg }
    }
}

impl Backbone for DerCfr {
    fn name(&self) -> String {
        "DeRCFR".to_string()
    }

    fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass {
        let x = match &self.input_bn {
            Some(bn) => bn.forward_infer(&self.store, binding, g, x),
            None => x,
        };
        self.body(g, binding, x, ctx, false)
    }

    fn forward_train(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
        with_reg: bool,
    ) -> ForwardPass {
        let x = match &mut self.input_bn {
            Some(bn) => bn.forward_train(&self.store, binding, g, x),
            None => x,
        };
        self.body(g, binding, x, ctx, with_reg)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn l2_handles(&self) -> Vec<ParamHandle> {
        self.rep_i
            .layers()
            .iter()
            .chain(self.rep_c.layers())
            .chain(self.rep_a.layers())
            .chain(self.treat_head.layers())
            .chain(self.head0.layers())
            .chain(self.head1.layers())
            .map(|l| l.weight())
            .collect()
    }

    fn export_config(&self) -> BackboneConfig {
        BackboneConfig::DerCfr(self.cfg)
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
        let mut model = DerCfr::new(DerCfrConfig::small(6), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 8, 6));
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
        assert_eq!(g.value(pass.y0_raw).shape(), (8, 1));
        assert_eq!(g.value(pass.taps.z_r).shape(), (8, 32));
        assert_eq!(g.value(pass.taps.z_p).shape(), (8, 16));
        // 3 reps x 1 early hidden + I + A outputs + 1 head hidden = 6 taps.
        assert_eq!(pass.taps.z_o.len(), 6);
        assert!(g.scalar(pass.reg_loss) > 0.0, "decomposition losses should be active");
    }

    #[test]
    fn eval_mode_has_no_reg_loss() {
        let mut rng = rng_from_seed(1);
        let model = DerCfr::new(DerCfrConfig::small(4), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 6, 4));
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let pass = model.forward(&mut g, &mut binding, x, &ctx);
        assert_eq!(g.scalar(pass.reg_loss), 0.0);
    }

    #[test]
    fn treatment_head_is_built_only_for_the_bce_term() {
        let mut rng = rng_from_seed(5);
        let treat_head: Vec<ParamHandle> = {
            let model = DerCfr::new(DerCfrConfig::small(4), &mut rng);
            model.treat_head.layers().iter().flat_map(|l| [l.weight(), l.bias()]).collect()
        };
        let x = randn(&mut rng, 6, 4);
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        // Whether a forward in the given mode binds any treatment-head
        // parameter: `None` = inference, `Some(with_reg)` = training.
        let binds_head = |beta: f64, mode: Option<bool>| {
            let cfg = DerCfrConfig { beta, ..DerCfrConfig::small(4) };
            let mut model = DerCfr::new(cfg, &mut rng_from_seed(6));
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let xc = g.constant(x.clone());
            let _pass = match mode {
                None => model.forward(&mut g, &mut binding, xc, &ctx),
                Some(with_reg) => model.forward_train(&mut g, &mut binding, xc, &ctx, with_reg),
            };
            let binds = binding.bound().any(|(h, _)| treat_head.contains(&h));
            binds
        };
        assert!(!binds_head(1.0, None), "inference built the treatment head");
        assert!(!binds_head(1.0, Some(false)), "the weight phase built the treatment head");
        assert!(!binds_head(0.0, Some(true)), "β = 0 built the treatment head");
        assert!(binds_head(1.0, Some(true)), "the β·BCE term needs the treatment head");
    }

    #[test]
    fn treatment_head_learns_to_predict_treatment() {
        use sbrl_nn::{Adam, Optimizer};
        let mut rng = rng_from_seed(2);
        let cfg = DerCfrConfig { alpha: 0.0, gamma: 0.0, mu: 0.0, ..DerCfrConfig::small(3) };
        let mut model = DerCfr::new(cfg, &mut rng);
        // Treatment driven by the first covariate.
        let x = randn(&mut rng, 40, 3);
        let t: Vec<f64> = (0..40).map(|i| f64::from(x[(i, 0)] > 0.0)).collect();
        let ctx = BatchContext::new(&t);

        let reg_at = |model: &mut DerCfr| {
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let xc = g.constant(x.clone());
            let pass = model.train_step().forward(&mut g, &mut binding, xc, &ctx);
            g.scalar(pass.reg_loss)
        };
        let before = reg_at(&mut model); // pure β·BCE at this config
        let mut opt = Adam::new(model.store(), 1e-2);
        for _ in 0..80 {
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let xc = g.constant(x.clone());
            let pass = model.train_step().forward(&mut g, &mut binding, xc, &ctx);
            g.backward(pass.reg_loss);
            opt.step(model.store_mut(), &g, &binding);
        }
        let after = reg_at(&mut model);
        assert!(after < before * 0.5, "BCE should drop: {before} -> {after}");
    }

    #[test]
    fn orthogonality_loss_decreases_under_training() {
        use sbrl_nn::{Adam, Optimizer};
        let mut rng = rng_from_seed(3);
        let cfg =
            DerCfrConfig { alpha: 0.0, beta: 0.0, gamma: 0.0, mu: 1.0, ..DerCfrConfig::small(4) };
        let mut model = DerCfr::new(cfg, &mut rng);
        let x = randn(&mut rng, 10, 4);
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let reg_at = |model: &mut DerCfr| {
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let xc = g.constant(x.clone());
            let pass = model.train_step().forward(&mut g, &mut binding, xc, &ctx);
            g.scalar(pass.reg_loss)
        };
        let before = reg_at(&mut model);
        let mut opt = Adam::new(model.store(), 1e-2);
        for _ in 0..50 {
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let xc = g.constant(x.clone());
            let pass = model.train_step().forward(&mut g, &mut binding, xc, &ctx);
            g.backward(pass.reg_loss);
            opt.step(model.store_mut(), &g, &binding);
        }
        let after = reg_at(&mut model);
        assert!(after < before * 0.5, "orthogonality should drop: {before} -> {after}");
    }

    #[test]
    fn l2_handles_cover_six_networks() {
        let mut rng = rng_from_seed(4);
        let model = DerCfr::new(DerCfrConfig::small(3), &mut rng);
        // 3 reps x 2 + treat head 2 + heads 3 + 3 = 14 weight matrices.
        assert_eq!(model.l2_handles().len(), 14);
    }
}
