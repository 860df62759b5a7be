//! Workspace-wiring smoke tests: the meta-crate's re-exports must resolve to
//! the member crates, and the public API must support a minimal train/eval
//! round-trip under a tiny budget. This is the first suite to fail if a crate
//! manifest, re-export, or crate boundary is mis-wired.

use sbrl_hap::core::{Estimator, TrainConfig};
use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::TarnetConfig;

/// Every re-exported module path must resolve to a usable item. Touching one
/// item per module keeps this a compile-time wiring check, not a logic test.
#[test]
fn meta_crate_re_exports_resolve() {
    // tensor
    let m = sbrl_hap::tensor::Matrix::zeros(2, 3);
    assert_eq!(m.shape(), (2, 3));
    // nn
    let _ = std::any::type_name::<sbrl_hap::nn::Mlp>();
    // stats
    let _ = sbrl_hap::stats::IpmKind::MmdLin;
    // data
    let _ = SyntheticConfig::syn_8_8_8_2();
    // models
    let _ = TarnetConfig::small(4);
    // core
    let _ = sbrl_hap::core::SbrlConfig::vanilla();
    let _: sbrl_hap::core::MethodSpec = "CFR+SBRL-HAP".parse().expect("grid method name");
    // metrics
    assert_eq!(sbrl_hap::metrics::pehe(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    // experiments
    let _ = std::any::type_name::<sbrl_hap::experiments::Scale>();
}

/// A full generate → fit → evaluate round-trip through the public builder
/// API, sized to finish in a couple of seconds in debug builds.
#[test]
fn minimal_train_eval_round_trip() {
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 5);
    let train_data = process.generate(2.5, 200, 0);
    let val_data = process.generate(2.5, 80, 1);
    let test_data = process.generate(-1.5, 120, 2);

    let budget = TrainConfig {
        iterations: 30,
        batch_size: 32,
        eval_every: 10,
        patience: 30,
        ..TrainConfig::default()
    };
    let fitted = Estimator::builder()
        .method("TARNet".parse().expect("a grid method name"))
        .train(budget)
        .seed(5)
        .fit(&train_data, &val_data)
        .expect("tiny training budget succeeds");

    let eval = fitted.evaluate(&test_data).expect("synthetic data has oracle effects");
    assert!(eval.pehe.is_finite(), "PEHE must be finite, got {}", eval.pehe);
    assert!(eval.pehe >= 0.0, "PEHE is an RMS and cannot be negative");
}
