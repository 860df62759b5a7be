//! Cross-crate integration tests: the full pipeline from dataset generation
//! through training to evaluation, exercised through the public meta-crate
//! API exactly as a downstream user would.

use sbrl_hap::core::{Estimator, Framework, MethodSpec, SbrlConfig, TrainConfig};
use sbrl_hap::data::{CausalDataset, SyntheticConfig, SyntheticProcess};
use sbrl_hap::metrics::pehe;
use sbrl_hap::models::{BackboneKind, CfrConfig};

fn tiny_process() -> SyntheticProcess {
    SyntheticProcess::new(
        SyntheticConfig {
            m_instrument: 3,
            m_confounder: 3,
            m_adjustment: 3,
            m_unstable: 2,
            pool_factor: 4,
            threshold_pool: 1500,
        },
        77,
    )
}

fn tiny_splits() -> (CausalDataset, CausalDataset, CausalDataset) {
    let p = tiny_process();
    (p.generate(2.5, 400, 0), p.generate(2.5, 150, 1), p.generate(-2.5, 300, 2))
}

fn smoke_budget() -> TrainConfig {
    TrainConfig {
        iterations: 80,
        batch_size: 64,
        eval_every: 20,
        patience: 50,
        ..TrainConfig::default()
    }
}

#[test]
fn every_backbone_trains_and_tracks_the_zero_effect_predictor_in_distribution() {
    let (train_data, val_data, _) = tiny_splits();
    let id_test = tiny_process().generate(2.5, 300, 9);
    let ite_true = id_test.true_ite().unwrap();
    // The "no effect anywhere" strawman: predict ITE = 0 for everyone.
    // In-distribution a trained model should be at least competitive with
    // it. (Out of distribution even beating this strawman is not guaranteed
    // — that instability is precisely the paper's problem statement.)
    let zero_pehe = pehe(&vec![0.0; id_test.n()], &ite_true);

    for kind in BackboneKind::ALL {
        let fitted = Estimator::builder()
            .method(MethodSpec { backbone: kind, framework: Framework::Vanilla })
            .train(TrainConfig { iterations: 150, ..smoke_budget() })
            .fit(&train_data, &val_data)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let eval = fitted.evaluate(&id_test).expect("oracle");
        assert!(eval.pehe.is_finite(), "{}: PEHE finite", kind.name());
        assert!(
            eval.pehe < zero_pehe * 1.2,
            "{}: ID PEHE {} should be competitive with the zero baseline {zero_pehe}",
            kind.name(),
            eval.pehe
        );
    }
}

#[test]
fn sbrl_weights_reduce_the_objectives_they_minimise() {
    // The contract of the weight phase, checked against a *frozen* network
    // (learning rate 0, full-batch updates): starting from w = 1, the
    // learned weights must not end with a worse weighted balance or weighted
    // decorrelation than the unit weights they started from.
    use sbrl_hap::stats::{decorrelation_loss_plain, ipm_weighted_plain, IpmKind, Rff};
    use sbrl_hap::tensor::rng::rng_from_seed;

    let (train_data, val_data, _) = tiny_splits();
    let n = train_data.n();
    let frozen_budget = TrainConfig {
        iterations: 200,
        batch_size: n, // full batch: the weight objective is deterministic
        lr: 0.0,       // freeze the network entirely
        eval_every: 100,
        patience: 1000,
        ..TrainConfig::default()
    };
    // --- BR only: the learned weights must improve the weighted IPM. ---
    let br_only = SbrlConfig { use_ir: false, ..SbrlConfig::sbrl(10.0, 0.0) };
    let fitted = Estimator::builder()
        .backbone(CfrConfig::small(train_data.dim()))
        .sbrl(br_only)
        .train(frozen_budget)
        .seed(1)
        .fit(&train_data, &val_data)
        .expect("training");

    let rep = fitted.representation(&train_data.x);
    let weights = fitted.weights().to_vec();
    assert!(weights.iter().any(|w| (w - 1.0).abs() > 1e-4), "weights should have moved");
    let treated = train_data.treated_indices();
    let control = train_data.control_indices();
    let rep_t = rep.select_rows(&treated);
    let rep_c = rep.select_rows(&control);
    let w_t: Vec<f64> = treated.iter().map(|&i| weights[i]).collect();
    let w_c: Vec<f64> = control.iter().map(|&i| weights[i]).collect();

    let ipm_unit = ipm_weighted_plain(IpmKind::MmdLin, &rep_t, &rep_c, None, None);
    let ipm_learned = ipm_weighted_plain(IpmKind::MmdLin, &rep_t, &rep_c, Some(&w_t), Some(&w_c));
    assert!(
        ipm_learned <= ipm_unit + 1e-9,
        "learned weights must improve balance on a frozen network: {ipm_learned} vs {ipm_unit}"
    );

    // --- IR only: the learned weights must improve weighted decorrelation
    //     of the last layer Z_p. ---
    let ir_only = SbrlConfig::sbrl(0.0, 10.0);
    let fitted_ir = Estimator::builder()
        .backbone(CfrConfig::small(train_data.dim()))
        .sbrl(ir_only)
        .train(frozen_budget)
        .seed(2)
        .fit(&train_data, &val_data)
        .expect("training");
    let z_p = fitted_ir.last_layer(&train_data.x);
    let z_p = sbrl_hap::data::Scaler::fit(&z_p).transform(&z_p); // align with training-time standardisation
    let weights_ir = fitted_ir.weights().to_vec();
    // A fresh RFF bank estimates the same dependence the trainer minimised,
    // so a modest tolerance absorbs the estimator change.
    let mut rng = rng_from_seed(2);
    let rff = Rff::sample(&mut rng, 5);
    let d_unit = decorrelation_loss_plain(&z_p, None, &rff, false, true);
    let d_learned = decorrelation_loss_plain(&z_p, Some(&weights_ir), &rff, false, true);
    assert!(
        d_learned <= d_unit * 1.15,
        "learned weights should improve decorrelation: {d_learned} vs {d_unit}"
    );
}

#[test]
fn reproducibility_same_seed_same_predictions() {
    let (train_data, val_data, ood) = tiny_splits();
    let run = |seed: u64| {
        Estimator::builder()
            .backbone(CfrConfig::small(train_data.dim()))
            .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
            .train(smoke_budget())
            .seed(seed)
            .fit(&train_data, &val_data)
            .expect("training")
            .predict(&ood.x)
            .ite_hat()
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a, b, "identical seeds must give identical predictions");
    let c = run(4);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn all_nine_grid_methods_run_on_one_replication() {
    use sbrl_hap::experiments::fit_method;
    use sbrl_hap::experiments::presets::{bench_variant, paper_syn_8_8_8_2};

    let (train_data, val_data, ood) = tiny_splits();
    let preset = bench_variant(paper_syn_8_8_8_2());
    for spec in MethodSpec::grid() {
        let cfg = sbrl_hap::experiments::Scale::Bench.train_config(preset.lr, preset.l2, 5);
        let fitted = fit_method(spec, &preset, &train_data, &val_data, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        let eval = fitted.evaluate(&ood).expect("oracle");
        assert!(eval.pehe.is_finite() && eval.ate_bias.is_finite(), "{}", spec.name());
    }
}

#[test]
fn twins_and_ihdp_pipelines_run_end_to_end() {
    use sbrl_hap::data::{IhdpConfig, IhdpSimulator, TwinsConfig, TwinsSimulator};

    let twins = TwinsSimulator::try_new(TwinsConfig { n: 500, ..Default::default() }, 3)
        .expect("valid config");
    let split = twins.try_partition(0).expect("simulated data carries the oracle");
    let fitted = Estimator::builder()
        .method("TARNet".parse().expect("a grid method name"))
        .train(smoke_budget())
        .seed(9)
        .fit(&split.train, &split.val)
        .expect("twins training");
    assert!(fitted.evaluate(&split.test).expect("oracle").pehe.is_finite());

    let ihdp = IhdpSimulator::try_new(IhdpConfig::default(), 4).expect("valid config");
    let split = ihdp.try_replicate(0).expect("simulated data carries the oracle");
    let fitted = Estimator::builder()
        .method("TARNet".parse().expect("a grid method name"))
        .train(smoke_budget())
        .seed(10)
        .fit(&split.train, &split.val)
        .expect("ihdp training");
    let eval = fitted.evaluate(&split.test).expect("oracle");
    assert!(eval.pehe.is_finite());
    // IHDP is continuous-outcome: predictions need not be probabilities.
    let est = fitted.predict(&split.test.x);
    assert!(est.y1_hat.iter().any(|&v| v > 1.0), "continuous outcomes exceed [0,1]");
}
