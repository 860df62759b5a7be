//! Micro-benchmarks of the numerical hot paths behind every experiment:
//! the matmul kernels, the differentiable weighted IPMs, the HSIC-RFF
//! decorrelation loss and the whole weight objective of one weight step,
//! the weight phase's frozen CFR forward and the generation of one
//! synthetic test environment.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_core::{weight_objective, Framework, MethodSpec};
use sbrl_data::{SyntheticConfig, SyntheticProcess};
use sbrl_experiments::presets::{paper_syn_16_16_16_2, quick_variant};
use sbrl_models::{Backbone, BackboneKind, BatchContext, LayerTaps};
use sbrl_nn::Binding;
use sbrl_stats::{
    decorrelation_loss_graph_scratch, ipm_weighted_graph, DecorrelationConfig, HsicScratch,
    IpmKind, Rff,
};
use sbrl_tensor::rng::{randn, rng_from_seed};
use sbrl_tensor::{Graph, Matrix};
use std::hint::black_box;

// The autodiff cases mirror the trainer's step loop: one reusable tape
// (reset per step, buffers pooled) and one per-fit scratch, so each sample
// measures the steady-state cost of a step, not one-shot allocation churn.
fn bench_micro(c: &mut Criterion) {
    let mut rng = rng_from_seed(0);
    let mut group = c.benchmark_group("micro");

    let a = randn(&mut rng, 128, 64);
    let b = randn(&mut rng, 64, 64);
    let phi = randn(&mut rng, 128, 48);
    let ones = Matrix::ones(128, 1);
    let treated: Vec<usize> = (0..64).collect();
    let control: Vec<usize> = (64..128).collect();
    let z = randn(&mut rng, 128, 48);
    let rff = Rff::sample(&mut rng, 5);
    let cfg = DecorrelationConfig { normalize: false, ..Default::default() };

    // The weight objective at `fit_hap`'s shapes: a 128-row batch through
    // the quick CFR+SBRL-HAP preset's frozen network, whose four taps
    // (z_p, z_r and two z_o) each carry a decorrelation term.
    let preset = quick_variant(paper_syn_16_16_16_2());
    let sbrl = preset
        .sbrl_config(MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::SbrlHap });
    let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), 1000);
    let batch = process.generate(2.5, 128, 0);
    let ctx = BatchContext::new(&batch.t);
    let hap_rff = Rff::sample(&mut rng, sbrl.rff_functions);
    // Drawn from their own stream so the other cases keep their inputs.
    let mut nt_rng = rng_from_seed(1);
    let grad = randn(&mut nt_rng, 128, 48);
    let weight = randn(&mut nt_rng, 48, 48);
    let tap_values: Vec<Matrix> = {
        let mut model = preset.backbone_config(BackboneKind::Cfr, batch.dim()).build(&mut rng);
        let mut g = Graph::new();
        let x = g.constant_copied(&batch.x);
        let mut frozen = Binding::new_frozen(model.store());
        let taps = model.train_step().forward(&mut g, &mut frozen, x, &ctx).taps;
        [taps.z_p, taps.z_r].iter().chain(&taps.z_o).map(|&id| g.value(id).clone()).collect()
    };

    group.bench_function("matmul_128x64x64", |bch| {
        bch.iter(|| black_box(a.matmul(&b)));
    });

    // A quick-preset layer's input gradient, dX = g * W^T.
    group.bench_function("matmul_nt_128x48x48", |bch| {
        bch.iter(|| black_box(grad.matmul_nt(&weight)));
    });

    // One ELU of a quick-preset hidden layer on a reused tape: the
    // activation every backbone layer applies, mostly `exp` on `z`'s
    // negative half.
    let mut g = Graph::new();
    group.bench_function("elu_fwd_128x48", |bch| {
        bch.iter(|| {
            g.reset();
            let x = g.constant_copied(&z);
            let y = g.elu(x);
            black_box(g.value(y)[(0, 0)])
        });
    });

    for (label, kind) in [
        ("ipm_mmd_lin_fwd_bwd", IpmKind::MmdLin),
        ("ipm_wasserstein_fwd_bwd", IpmKind::Wasserstein { lambda: 10.0, iterations: 5 }),
    ] {
        let mut g = Graph::new();
        group.bench_function(label, |bch| {
            bch.iter(|| {
                g.reset();
                let p = g.constant_copied(&phi);
                let w = g.param_copied(&ones);
                let loss = ipm_weighted_graph(&mut g, kind, p, w, &treated, &control);
                g.backward(loss);
                black_box(g.grad(w).map(Matrix::norm_fro))
            });
        });
    }

    let mut g = Graph::new();
    let mut scratch = HsicScratch::new();
    group.bench_function("hsic_decorrelation_fwd_bwd", |bch| {
        bch.iter(|| {
            g.reset();
            let zc = g.constant_copied(&z);
            let w = g.param_copied(&ones);
            let mut r = rng_from_seed(1);
            let loss =
                decorrelation_loss_graph_scratch(&mut g, zc, w, &rff, &cfg, &mut r, &mut scratch);
            g.backward(loss);
            black_box(g.grad(w).map(Matrix::norm_fro))
        });
    });

    let mut g = Graph::new();
    let mut scratch = HsicScratch::new();
    group.bench_function("weight_objective_fwd_bwd", |bch| {
        bch.iter(|| {
            g.reset();
            let z_p = g.constant_copied(&tap_values[0]);
            let z_r = g.constant_copied(&tap_values[1]);
            let mut z_o = g.take_id_buf();
            for m in &tap_values[2..] {
                let id = g.constant_copied(m);
                z_o.push(id);
            }
            let taps = LayerTaps { z_o, z_r, z_p };
            let w = g.param_copied(&ones);
            let shifted = g.add_scalar(w, -1.0);
            let sq = g.square(shifted);
            let r_w = g.mean(sq);
            let mut r = rng_from_seed(1);
            let terms = weight_objective(
                &mut g,
                &sbrl,
                &taps,
                &ctx,
                w,
                r_w,
                &hap_rff,
                &mut r,
                &mut scratch,
            );
            g.give_id_buf(taps.z_o);
            g.backward(terms.total);
            black_box(g.grad(w).map(Matrix::norm_fro))
        });
    });

    // The weight phase's frozen forward at `fit_hap`'s shapes: the quick
    // CFR preset on the 128-row batch, in training mode (batch-norm
    // statistics update) with no backbone regularizer.
    let mut model = preset.backbone_config(BackboneKind::Cfr, batch.dim()).build(&mut rng);
    let mut frozen = Binding::new_frozen(model.store());
    let mut g = Graph::new();
    group.bench_function("cfr_frozen_forward", |bch| {
        bch.iter(|| {
            g.reset();
            frozen.reset(model.store());
            let x = g.constant_copied(&batch.x);
            let pass = model.train_step().forward_without_reg(&mut g, &mut frozen, x, &ctx);
            g.give_id_buf(pass.taps.z_o);
            black_box(g.value(pass.y1_raw)[(0, 0)])
        });
    });

    // One `fit_hap` test environment: 2 400 rows from a 24 000-row pool.
    group.bench_function("synthetic_generate", |bch| {
        bch.iter(|| black_box(process.generate(-3.0, 2400, 0)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_micro
}
criterion_main!(benches);
