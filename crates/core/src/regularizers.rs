//! The three regularizers of SBRL-HAP assembled into the weight objective
//! `L_w` (Eq. 11).
//!
//! * **Balancing Regularizer** `L_B` (Eq. 4): weighted IPM between treated
//!   and control rows of the balanced representation `Z_r`.
//! * **Independence Regularizer** `L_I = L_D(Z_p, w)` (Eq. 10): weighted
//!   HSIC-RFF decorrelation of the last layer.
//! * **Hierarchical-Attention Paradigm**: additional decorrelation at
//!   `Z_r` (weight `γ2`) and every other hidden layer (weight `γ3`).

use rand::rngs::StdRng;
use sbrl_models::{BatchContext, LayerTaps};
use sbrl_stats::{decorrelation_losses_graph, ipm_weighted_graph, HsicScratch, Rff};
use sbrl_tensor::{Graph, TensorId};

use crate::config::SbrlConfig;

/// Individual loss terms of `L_w`, kept separate for logging/ablation.
pub struct WeightLossTerms {
    /// `α · L_B` (zero node when BR is disabled).
    pub balance: TensorId,
    /// `γ1 · L_I` (zero node when IR is disabled).
    pub independence: TensorId,
    /// `γ2 · L_D(Z_r, w) + γ3 · Σ L_D(Z_o^i, w)` (zero when HAP disabled).
    pub hierarchy: TensorId,
    /// `R_w` anti-collapse term.
    pub anchor: TensorId,
    /// The full `L_w` (Eq. 11).
    pub total: TensorId,
}

/// Builds `L_w` over a forward pass's layer taps.
///
/// `w` must be the *trainable* batch-weight node
/// ([`crate::weights::SampleWeights::bind_trainable`]); the taps must come
/// from a frozen binding (or be constants), so gradients stop at them.
///
/// The decorrelation terms (`z_p`, then `z_r`, then each `z_o`) go through
/// [`decorrelation_losses_graph`]: each is built and differentiated on its
/// own tape in `scratch`, concurrently on the worker pool, and spliced into
/// `g` as one scalar node that replays its `w` gradient. Values and `w`'s
/// gradient are bit-identical to building every term on `g`, for every
/// [`Parallelism`](sbrl_tensor::Parallelism) setting. `scratch` is the
/// per-fit [`HsicScratch`] holding those tapes; reusing it across steps
/// keeps the weight phase allocation-free.
///
/// # Panics
/// Panics if a tap of an enabled decorrelation term requires gradients.
#[allow(clippy::too_many_arguments)]
pub fn weight_objective(
    g: &mut Graph,
    cfg: &SbrlConfig,
    taps: &LayerTaps,
    ctx: &BatchContext,
    w: TensorId,
    r_w: TensorId,
    rff: &Rff,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
) -> WeightLossTerms {
    let mut total = r_w;

    let balance = if cfg.use_br && cfg.alpha > 0.0 {
        let b = ipm_weighted_graph(g, cfg.ipm, taps.z_r, w, &ctx.treated_idx, &ctx.control_idx);
        g.scale(b, cfg.alpha)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, balance);

    let use_ir = cfg.use_ir && cfg.gamma1 > 0.0;
    let use_z_o = cfg.use_hap && cfg.gamma3 > 0.0;
    let terms = use_ir
        .then_some((taps.z_p, cfg.gamma1))
        .into_iter()
        .chain((cfg.use_hap && cfg.gamma2 > 0.0).then_some((taps.z_r, cfg.gamma2)))
        .chain(taps.z_o.iter().filter(|_| use_z_o).map(|&z| (z, cfg.gamma3)));
    let mut decor = g.take_id_buf();
    decorrelation_losses_graph(g, terms, w, rff, &cfg.decor, rng, scratch, &mut decor);

    let independence = if use_ir { decor[0] } else { g.scalar_const(0.0) };
    total = g.add(total, independence);

    let hierarchy = if cfg.use_hap {
        let mut h = g.scalar_const(0.0);
        for &s in &decor[usize::from(use_ir)..] {
            h = g.add(h, s);
        }
        h
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, hierarchy);
    g.give_id_buf(decor);

    WeightLossTerms { balance, independence, hierarchy, anchor: r_w, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SbrlConfig;
    use sbrl_tensor::rng::{randn, rng_from_seed};
    use sbrl_tensor::Matrix;

    fn toy_taps(g: &mut Graph, rng: &mut StdRng, n: usize) -> LayerTaps {
        let z_o = vec![g.constant(randn(rng, n, 4)), g.constant(randn(rng, n, 4))];
        let z_r = g.constant(randn(rng, n, 6));
        let z_p = g.constant(randn(rng, n, 3));
        LayerTaps { z_o, z_r, z_p }
    }

    fn toy_ctx(n: usize) -> BatchContext {
        let t: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        BatchContext::new(&t)
    }

    fn build(cfg: &SbrlConfig) -> (f64, f64, f64, f64) {
        let mut rng = rng_from_seed(0);
        let mut g = Graph::new();
        let taps = toy_taps(&mut g, &mut rng, 16);
        let ctx = toy_ctx(16);
        let w = g.param(Matrix::ones(16, 1));
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        let r_w = g.mean(sq);
        let rff = Rff::sample(&mut rng, 4);
        let mut scratch = HsicScratch::new();
        let terms =
            weight_objective(&mut g, cfg, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
        (
            g.scalar(terms.balance),
            g.scalar(terms.independence),
            g.scalar(terms.hierarchy),
            g.scalar(terms.total),
        )
    }

    #[test]
    fn vanilla_reduces_to_anchor_only() {
        let (b, i, h, total) = build(&SbrlConfig::vanilla());
        assert_eq!((b, i, h), (0.0, 0.0, 0.0));
        assert_eq!(total, 0.0); // w = 1 -> R_w = 0
    }

    #[test]
    fn sbrl_activates_balance_and_independence() {
        let (b, i, h, total) = build(&SbrlConfig::sbrl(1.0, 1.0));
        assert!(b > 0.0, "balance term should fire, got {b}");
        assert!(i > 0.0, "independence term should fire, got {i}");
        assert_eq!(h, 0.0);
        assert!((total - (b + i)).abs() < 1e-12);
    }

    #[test]
    fn hap_adds_hierarchy_terms() {
        let cfg = SbrlConfig::sbrl_hap(1.0, 1.0, 0.5, 0.25);
        let (b, i, h, total) = build(&cfg);
        assert!(h > 0.0, "hierarchy terms should fire, got {h}");
        assert!((total - (b + i + h)).abs() < 1e-12);
    }

    #[test]
    fn coefficients_scale_terms_linearly() {
        let lo = SbrlConfig::sbrl(0.5, 0.5);
        let hi = SbrlConfig::sbrl(1.0, 1.0);
        let (b_lo, i_lo, _, _) = build(&lo);
        let (b_hi, i_hi, _, _) = build(&hi);
        assert!((b_hi - 2.0 * b_lo).abs() < 1e-9);
        assert!((i_hi - 2.0 * i_lo).abs() < 1e-9);
    }

    #[test]
    fn gradient_reaches_weights_through_every_term() {
        let mut rng = rng_from_seed(1);
        let mut g = Graph::new();
        let taps = toy_taps(&mut g, &mut rng, 12);
        let ctx = toy_ctx(12);
        let w = g.param(Matrix::ones(12, 1));
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        let r_w = g.mean(sq);
        let rff = Rff::sample(&mut rng, 4);
        let cfg = SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 1.0);
        let mut scratch = HsicScratch::new();
        let terms =
            weight_objective(&mut g, &cfg, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
        g.backward(terms.total);
        let grad = g.grad(w).expect("weights must receive gradient");
        assert!(grad.norm_fro() > 0.0, "non-trivial gradient expected");
    }
}
