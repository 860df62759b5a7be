//! CFR — Counterfactual Regression (Shalit et al., 2017; Johansson et al.,
//! 2016): TARNet plus an integral-probability-metric penalty `α·IPM(Φ_t, Φ_c)`
//! that balances the treated/control representation distributions.

use rand::rngs::StdRng;
use sbrl_nn::{Binding, ParamHandle, ParamStore};
use sbrl_stats::{ipm_graph, IpmKind};
use sbrl_tensor::{Graph, TensorId};

use crate::backbone::{Backbone, BatchContext, ForwardPass};
use crate::kind::BackboneConfig;
use crate::tarnet::{Tarnet, TarnetConfig};

/// CFR hyper-parameters: the TARNet architecture plus the IPM penalty.
#[derive(Clone, Copy, Debug)]
pub struct CfrConfig {
    /// Shared TARNet architecture.
    pub arch: TarnetConfig,
    /// IPM penalty weight `α` (Tables IV/V).
    pub alpha: f64,
    /// Which IPM to use (the paper's CFR default is Wasserstein).
    pub ipm: IpmKind,
}

impl CfrConfig {
    /// A small default suitable for tests and quick experiments.
    pub fn small(in_dim: usize) -> Self {
        Self { arch: TarnetConfig::small(in_dim), alpha: 1.0, ipm: IpmKind::MmdLin }
    }
}

/// The CFR backbone.
pub struct Cfr {
    tarnet: Tarnet,
    alpha: f64,
    ipm: IpmKind,
}

impl Cfr {
    /// Builds a CFR model.
    pub fn new(cfg: CfrConfig, rng: &mut StdRng) -> Self {
        Self { tarnet: Tarnet::new(cfg.arch, rng), alpha: cfg.alpha, ipm: cfg.ipm }
    }

    /// The IPM penalty weight.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Backbone for Cfr {
    fn name(&self) -> String {
        "CFR".to_string()
    }

    fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass {
        self.tarnet.forward_with_rep(g, binding, x, ctx).0
    }

    fn forward_train(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
        with_reg: bool,
    ) -> ForwardPass {
        let (mut pass, phi) = self.tarnet.forward_with_rep_train(g, binding, x, ctx);
        if with_reg && self.alpha > 0.0 {
            let ipm = ipm_graph(g, self.ipm, phi, &ctx.treated_idx, &ctx.control_idx);
            let scaled = g.scale(ipm, self.alpha);
            pass.reg_loss = g.add(pass.reg_loss, scaled);
        }
        pass
    }

    fn store(&self) -> &ParamStore {
        self.tarnet.store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        self.tarnet.store_mut()
    }

    fn l2_handles(&self) -> Vec<ParamHandle> {
        self.tarnet.l2_handles()
    }

    fn export_config(&self) -> BackboneConfig {
        BackboneConfig::Cfr(CfrConfig {
            arch: *self.tarnet.config(),
            alpha: self.alpha,
            ipm: self.ipm,
        })
    }

    fn export_extra_state(&self) -> Vec<(String, Vec<f64>)> {
        self.tarnet.export_extra_state()
    }

    fn import_extra_state(&mut self, state: &[(String, Vec<f64>)]) -> Result<(), String> {
        self.tarnet.import_extra_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed};

    #[test]
    fn reg_loss_is_positive_under_imbalance() {
        let mut rng = rng_from_seed(0);
        let mut model = Cfr::new(CfrConfig::small(4), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        // Treated units shifted far from control units.
        let xt = randn(&mut rng, 5, 4).add_scalar(3.0);
        let xc = randn(&mut rng, 5, 4);
        let x = g.constant(xt.vstack(&xc));
        let ctx = BatchContext::new(&[1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
        assert!(g.scalar(pass.reg_loss) > 0.0, "IPM penalty should fire");
    }

    #[test]
    fn reg_loss_absent_in_eval_mode_and_at_zero_alpha() {
        let mut rng = rng_from_seed(1);
        let model = Cfr::new(CfrConfig::small(4), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let x = g.constant(randn(&mut rng, 6, 4));
        let ctx = BatchContext::new(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let pass = model.forward(&mut g, &mut binding, x, &ctx);
        assert_eq!(g.scalar(pass.reg_loss), 0.0);

        let cfg = CfrConfig { alpha: 0.0, ..CfrConfig::small(4) };
        let mut model0 = Cfr::new(cfg, &mut rng);
        let mut g2 = Graph::new();
        let mut b2 = Binding::new(model0.store());
        let x2 = g2.constant(randn(&mut rng, 6, 4));
        let pass2 = model0.train_step().forward(&mut g2, &mut b2, x2, &ctx);
        assert_eq!(g2.scalar(pass2.reg_loss), 0.0);
    }

    #[test]
    fn ipm_gradient_reaches_representation_weights() {
        let mut rng = rng_from_seed(2);
        let mut model = Cfr::new(CfrConfig::small(3), &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new(model.store());
        let xt = randn(&mut rng, 4, 3).add_scalar(2.0);
        let xc = randn(&mut rng, 4, 3);
        let x = g.constant(xt.vstack(&xc));
        let ctx = BatchContext::new(&[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
        g.backward(pass.reg_loss);
        // At least the representation weights must receive nonzero gradient.
        let any_nonzero =
            binding.bound().filter_map(|(_, id)| g.grad(id)).any(|grad| grad.norm_fro() > 0.0);
        assert!(any_nonzero, "IPM penalty should push gradients into the encoder");
    }

    #[test]
    fn minimising_ipm_balances_representations() {
        use sbrl_nn::{Adam, Optimizer};
        use sbrl_stats::ipm_plain;
        let mut rng = rng_from_seed(3);
        let mut model = Cfr::new(CfrConfig::small(3), &mut rng);
        let xt = randn(&mut rng, 16, 3).add_scalar(2.0);
        let xc = randn(&mut rng, 16, 3);
        let x_all = xt.vstack(&xc);
        let t: Vec<f64> = (0..32).map(|i| f64::from(i < 16)).collect();
        let ctx = BatchContext::new(&t);

        let measure = |model: &Cfr| {
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let x = g.constant(x_all.clone());
            let pass = model.forward(&mut g, &mut binding, x, &ctx);
            let phi = g.value(pass.taps.z_r).clone();
            let pt = phi.select_rows(&ctx.treated_idx);
            let pc = phi.select_rows(&ctx.control_idx);
            ipm_plain(IpmKind::MmdLin, &pt, &pc)
        };

        let before = measure(&model);
        let mut opt = Adam::new(model.store(), 1e-2);
        for _ in 0..60 {
            let mut g = Graph::new();
            let mut binding = Binding::new(model.store());
            let x = g.constant(x_all.clone());
            let pass = model.train_step().forward(&mut g, &mut binding, x, &ctx);
            g.backward(pass.reg_loss);
            opt.step(model.store_mut(), &g, &binding);
        }
        let after = measure(&model);
        assert!(after < before * 0.5, "IPM training should balance: {before} -> {after}");
    }
}
