//! Failure-injection tests: degenerate and malformed inputs must surface as
//! typed errors (or documented panics), never as silent NaN propagation.

use sbrl_hap::core::{Estimator, SbrlConfig, SbrlError, TrainConfig};
use sbrl_hap::data::{CausalDataset, DataError, OutcomeKind};
use sbrl_hap::models::{CfrConfig, DerCfrConfig, TarnetConfig};
use sbrl_hap::stats::IpmKind;
use sbrl_hap::tensor::rng::{randn, rng_from_seed};
use sbrl_hap::tensor::Matrix;

fn valid_data(n: usize, seed: u64) -> CausalDataset {
    let mut rng = rng_from_seed(seed);
    let x = randn(&mut rng, n, 4);
    let t: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
    let yf: Vec<f64> = (0..n).map(|i| x[(i, 0)] + t[i]).collect();
    CausalDataset { x, t, yf, ycf: None, mu0: None, mu1: None, outcome: OutcomeKind::Continuous }
}

fn budget() -> TrainConfig {
    TrainConfig { iterations: 20, batch_size: 16, ..TrainConfig::default() }
}

fn fit(train: &CausalDataset, val: &CausalDataset) -> Result<(), SbrlError> {
    Estimator::builder()
        .backbone(TarnetConfig::small(4))
        .train(budget())
        .fit(train, val)
        .map(|_| ())
}

#[test]
fn empty_treatment_arm_is_a_typed_error() {
    let mut data = valid_data(40, 0);
    data.t = vec![0.0; 40];
    let err = fit(&data, &valid_data(20, 1));
    match err {
        Err(SbrlError::Data(DataError::EmptyTreatmentArm { treated, control })) => {
            assert_eq!(treated, 0);
            assert_eq!(control, 40);
        }
        other => panic!(
            "expected EmptyTreatmentArm, got {other:?}",
            other = other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn nan_covariates_are_rejected_before_training() {
    let mut data = valid_data(40, 2);
    data.x[(3, 1)] = f64::NAN;
    let err = fit(&data, &valid_data(20, 3));
    assert!(matches!(err, Err(SbrlError::Data(DataError::NonFinite { field: "x" }))));
}

#[test]
fn invalid_treatment_value_is_rejected() {
    let mut data = valid_data(40, 4);
    data.t[7] = 0.5;
    let err = fit(&data, &valid_data(20, 5));
    assert!(matches!(err, Err(SbrlError::Data(DataError::InvalidTreatment { index: 7, .. }))));
}

#[test]
fn empty_dataset_is_rejected() {
    let data = CausalDataset {
        x: Matrix::zeros(0, 4),
        t: vec![],
        yf: vec![],
        ycf: None,
        mu0: None,
        mu1: None,
        outcome: OutcomeKind::Continuous,
    };
    assert!(matches!(data.validate(), Err(DataError::Empty)));
}

#[test]
fn validation_fold_is_checked_too() {
    let mut bad_val = valid_data(20, 6);
    bad_val.yf[0] = f64::INFINITY;
    let err = fit(&valid_data(40, 7), &bad_val);
    assert!(matches!(err, Err(SbrlError::Data(DataError::NonFinite { field: "yf" }))));
}

#[test]
fn mismatched_lengths_are_typed() {
    let mut data = valid_data(40, 8);
    data.yf.pop();
    assert!(matches!(
        data.validate(),
        Err(DataError::LengthMismatch { field: "yf", got: 39, expected: 40 })
    ));
}

#[test]
fn misconfigured_builders_are_typed_errors() {
    let train = valid_data(40, 12);
    let val = valid_data(20, 13);
    // No backbone selected at all.
    let err = Estimator::builder().train(budget()).fit(&train, &val);
    assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "backbone", .. })));
    // Architecture/data dimension mismatch.
    let err =
        Estimator::builder().backbone(TarnetConfig::small(9)).train(budget()).fit(&train, &val);
    assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "backbone.in_dim", .. })));
    // Degenerate optimisation budget.
    let err = Estimator::builder()
        .backbone(TarnetConfig::small(4))
        .train(TrainConfig { batch_size: 0, ..budget() })
        .fit(&train, &val);
    assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "train.batch_size", .. })));
}

/// A NaN or negative backbone penalty weight or Wasserstein `lambda` is
/// rejected by `build`, before any fit: at fit time it would surface only as
/// a `NonFiniteLoss`, which a sweep retries as transient.
#[test]
fn invalid_backbone_and_ipm_coefficients_are_rejected_at_build_time() {
    let wasserstein = |lambda| IpmKind::Wasserstein { lambda, iterations: 10 };
    let build_err = |builder: sbrl_hap::core::EstimatorBuilder| match builder.build() {
        Err(SbrlError::InvalidConfig { what, .. }) => what,
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("expected InvalidConfig, got an estimator"),
    };
    let cfr = |c: CfrConfig| Estimator::builder().backbone(c);
    let dercfr = |c: DerCfrConfig| Estimator::builder().backbone(c);
    assert_eq!(
        build_err(cfr(CfrConfig { alpha: f64::NAN, ..CfrConfig::small(4) })),
        "backbone.alpha"
    );
    assert_eq!(
        build_err(cfr(CfrConfig { ipm: wasserstein(f64::NAN), ..CfrConfig::small(4) })),
        "backbone.ipm"
    );
    assert_eq!(
        build_err(dercfr(DerCfrConfig { alpha: -1.0, ..DerCfrConfig::small(4) })),
        "backbone.alpha"
    );
    assert_eq!(
        build_err(dercfr(DerCfrConfig { beta: -1.0, ..DerCfrConfig::small(4) })),
        "backbone.beta"
    );
    assert_eq!(
        build_err(dercfr(DerCfrConfig { gamma: f64::INFINITY, ..DerCfrConfig::small(4) })),
        "backbone.gamma"
    );
    assert_eq!(
        build_err(dercfr(DerCfrConfig { mu: f64::NAN, ..DerCfrConfig::small(4) })),
        "backbone.mu"
    );
    assert_eq!(
        build_err(dercfr(DerCfrConfig { ipm: wasserstein(-10.0), ..DerCfrConfig::small(4) })),
        "backbone.ipm"
    );
    let sbrl = SbrlConfig::sbrl(1.0, 1.0).with_ipm(wasserstein(f64::NAN));
    assert_eq!(build_err(cfr(CfrConfig::small(4)).sbrl(sbrl)), "sbrl.ipm");
    // The paper's coefficients build.
    let ok = CfrConfig { ipm: wasserstein(10.0), ..CfrConfig::small(4) };
    assert!(cfr(ok).sbrl(SbrlConfig::sbrl(1.0, 1.0).with_ipm(wasserstein(10.0))).build().is_ok());
    assert!(dercfr(DerCfrConfig::small(4)).build().is_ok());
}

#[test]
#[should_panic(expected = "Scaler: column count mismatch")]
fn scaler_rejects_wrong_width() {
    use sbrl_hap::data::Scaler;
    let mut rng = rng_from_seed(9);
    let scaler = Scaler::fit(&randn(&mut rng, 10, 4));
    let _ = scaler.transform(&randn(&mut rng, 5, 3));
}

#[test]
fn zero_variance_feature_does_not_produce_nan() {
    // A constant column must survive standardisation (std floored) and
    // training must stay finite.
    let mut data = valid_data(60, 10);
    for i in 0..60 {
        data.x[(i, 2)] = 5.0;
    }
    let val = {
        let mut v = valid_data(30, 11);
        for i in 0..30 {
            v.x[(i, 2)] = 5.0;
        }
        v
    };
    let fitted = Estimator::builder()
        .backbone(TarnetConfig::small(4))
        .sbrl(SbrlConfig::sbrl(1.0, 1.0))
        .train(budget())
        .fit(&data, &val)
        .expect("constant features must not break training");
    let est = fitted.predict(&val.x);
    assert!(est.y0_hat.iter().all(|v| v.is_finite()));
}

#[test]
fn extreme_bias_rates_still_generate_valid_data() {
    use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
    let process = SyntheticProcess::new(
        SyntheticConfig {
            m_instrument: 2,
            m_confounder: 2,
            m_adjustment: 2,
            m_unstable: 2,
            pool_factor: 5,
            threshold_pool: 500,
        },
        0,
    );
    for rho in [-50.0, -1.0001, 1.0001, 50.0] {
        let d = process.generate(rho, 100, 0);
        d.validate().unwrap_or_else(|e| panic!("rho = {rho}: {e}"));
    }
}
