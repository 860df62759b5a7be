//! Fault-tolerance contracts of the training loop: watchdog timeouts,
//! checkpoint-rollback recovery, and — behind the `fault-inject` feature —
//! deterministic fault injection driving the whole recovery path end to
//! end. The no-fault default-policy leg must stay bit-identical to the
//! golden PR 2 predictions (guarded by `tests/parallel_identity.rs`); here
//! we additionally pin that *enabling* a recovery policy without any fault
//! leaves predictions bit-for-bit unchanged.

use std::time::Duration;

use sbrl_hap::core::{Estimator, RecoveryPolicy, SbrlConfig, SbrlError, TrainConfig};
use sbrl_hap::data::{CausalDataset, SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::CfrConfig;

fn fixtures() -> (CausalDataset, CausalDataset, CausalDataset) {
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 21);
    (process.generate(2.5, 300, 0), process.generate(2.5, 120, 1), process.generate(-2.5, 250, 2))
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        iterations: 30,
        batch_size: 64,
        eval_every: 10,
        patience: 40,
        ..TrainConfig::default()
    }
}

fn fit(
    train: &CausalDataset,
    val: &CausalDataset,
    cfg: TrainConfig,
) -> Result<sbrl_hap::core::FittedModel<Box<dyn sbrl_hap::models::Backbone>>, SbrlError> {
    Estimator::builder()
        .backbone(CfrConfig::small(train.dim()))
        .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
        .train(cfg)
        .seed(11)
        .fit(train, val)
}

/// Held by every fit outside `injected`. Fault plans are process-global and
/// one-shot, so a fault-free fit running beside an injected test could
/// consume that test's fault; the guard of an empty plan serialises them.
#[cfg(feature = "fault-inject")]
fn fault_free() -> sbrl_hap::core::FaultGuard {
    sbrl_hap::core::inject(&sbrl_hap::core::FaultPlan::default())
}

/// Without the feature there are no plans to race for.
#[cfg(not(feature = "fault-inject"))]
fn fault_free() -> impl Sized {}

fn prediction_bits(est: &sbrl_hap::metrics::EffectEstimate) -> (Vec<u64>, Vec<u64>) {
    (
        est.y0_hat.iter().map(|v| v.to_bits()).collect(),
        est.y1_hat.iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn zero_time_budget_times_out_with_a_typed_error() {
    let _serial = fault_free();
    let (train, val, _) = fixtures();
    let cfg = TrainConfig { time_budget: Some(Duration::ZERO), ..train_cfg() };
    match fit(&train, &val, cfg) {
        Err(SbrlError::TimedOut { iteration, .. }) => assert_eq!(iteration, 0),
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

#[test]
fn generous_time_budget_does_not_interfere() {
    let _serial = fault_free();
    let (train, val, _) = fixtures();
    let cfg = TrainConfig { time_budget: Some(Duration::from_secs(3600)), ..train_cfg() };
    let fitted = fit(&train, &val, cfg).expect("an hour is plenty for 30 iterations");
    assert_eq!(fitted.fit_report().time_budget, Some(Duration::from_secs(3600)));
}

#[test]
fn malformed_recovery_policies_are_rejected_up_front() {
    let _serial = fault_free();
    let (train, val, _) = fixtures();
    for (policy, what) in [
        (
            RecoveryPolicy { lr_backoff: 0.0, ..RecoveryPolicy::retries(1) },
            "train.recovery.lr_backoff",
        ),
        (
            RecoveryPolicy { lr_backoff: f64::NAN, ..RecoveryPolicy::retries(1) },
            "train.recovery.lr_backoff",
        ),
        (
            RecoveryPolicy { grad_clip_escalation: 1.5, ..RecoveryPolicy::retries(1) },
            "train.recovery.grad_clip_escalation",
        ),
    ] {
        let cfg = TrainConfig { recovery: policy, ..train_cfg() };
        match fit(&train, &val, cfg) {
            Err(SbrlError::InvalidConfig { what: got, .. }) => assert_eq!(got, what),
            other => panic!("expected InvalidConfig({what}), got {other:?}"),
        }
    }
}

#[test]
fn default_fit_reports_are_empty_and_policy_free() {
    let _serial = fault_free();
    let (train, val, _) = fixtures();
    let fitted = fit(&train, &val, train_cfg()).expect("training succeeds");
    let report = fitted.fit_report();
    assert!(!report.recovered());
    assert!(report.recoveries.is_empty());
    assert_eq!(report.policy, RecoveryPolicy::default());
    assert_eq!(report.policy.max_retries, 0);
    assert_eq!(report.time_budget, None);
}

/// Arming a recovery policy must be free when no fault occurs: the rollback
/// machinery (checkpoint bookkeeping, gradient finiteness scans) only reads
/// training state, so predictions stay bit-identical to the default path.
#[test]
fn recovery_policy_without_faults_is_bit_identical_to_default() {
    let _serial = fault_free();
    let (train, val, test) = fixtures();
    let baseline = fit(&train, &val, train_cfg()).expect("training succeeds");
    let armed_cfg = TrainConfig { recovery: RecoveryPolicy::retries(2), ..train_cfg() };
    let armed = fit(&train, &val, armed_cfg).expect("training succeeds");
    assert!(!armed.fit_report().recovered(), "no fault, no recovery events");
    assert_eq!(
        prediction_bits(&baseline.predict(&test.x)),
        prediction_bits(&armed.predict(&test.x)),
        "dormant recovery machinery must not perturb a healthy fit"
    );
}

#[test]
fn builder_threads_recovery_knobs_into_the_config() {
    let _serial = fault_free();
    let (train, val, _) = fixtures();
    let fitted = Estimator::builder()
        .backbone(CfrConfig::small(train.dim()))
        .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
        .train(TrainConfig {
            recovery: RecoveryPolicy::retries(1),
            time_budget: Some(Duration::from_secs(600)),
            ..train_cfg()
        })
        .seed(11)
        .fit(&train, &val)
        .expect("training succeeds");
    let report = fitted.fit_report();
    assert_eq!(report.policy.max_retries, 1);
    assert_eq!(report.time_budget, Some(Duration::from_secs(600)));
}

#[cfg(feature = "fault-inject")]
mod injected {
    use super::*;
    use sbrl_hap::core::{inject, FaultPlan, NonFiniteTerm};

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("valid plan")
    }

    #[test]
    fn injected_nan_loss_recovers_into_a_successful_fit() {
        let (train, val, _) = fixtures();
        let cfg = TrainConfig { recovery: RecoveryPolicy::retries(2), ..train_cfg() };
        let _guard = inject(&plan("nan-loss@5"));
        let fitted = fit(&train, &val, cfg).expect("recovery absorbs the injected NaN");
        let report = fitted.fit_report();
        assert!(report.recovered());
        assert_eq!(report.recoveries.len(), 1);
        let event = &report.recoveries[0];
        assert_eq!(event.iteration, 5);
        assert_eq!(event.term, NonFiniteTerm::FactualLoss);
        assert_eq!(event.retry, 1);
        assert!(event.lr < TrainConfig::default().lr, "LR must back off on rollback");
    }

    #[test]
    fn recovery_is_bit_stable_under_the_same_seed_and_plan() {
        let (train, val, test) = fixtures();
        let cfg = TrainConfig { recovery: RecoveryPolicy::retries(2), ..train_cfg() };
        let run = || {
            let _guard = inject(&plan("nan-loss@5"));
            let fitted = fit(&train, &val, cfg).expect("recovery succeeds");
            assert!(fitted.fit_report().recovered());
            prediction_bits(&fitted.predict(&test.x))
        };
        assert_eq!(run(), run(), "same seed + same fault plan must be bit-identical");
    }

    #[test]
    fn every_objective_term_is_classified_at_its_site() {
        let (train, val, _) = fixtures();
        let cfg = TrainConfig { recovery: RecoveryPolicy::retries(2), ..train_cfg() };
        for (spec, term) in [
            ("nan-reg@4", NonFiniteTerm::Regularizer),
            ("nan-weight-loss@4", NonFiniteTerm::WeightObjective),
            ("nan-grad@4", NonFiniteTerm::Gradient),
        ] {
            let _guard = inject(&plan(spec));
            let fitted = fit(&train, &val, cfg)
                .unwrap_or_else(|e| panic!("{spec}: recovery should absorb the fault: {e}"));
            let report = fitted.fit_report();
            assert_eq!(report.recoveries.len(), 1, "{spec}");
            assert_eq!(report.recoveries[0].term, term, "{spec}");
            assert_eq!(report.recoveries[0].iteration, 4, "{spec}");
        }
    }

    #[test]
    fn default_policy_surfaces_the_fault_as_a_typed_error() {
        let (train, val, _) = fixtures();
        let _guard = inject(&plan("nan-loss@3"));
        match fit(&train, &val, train_cfg()) {
            Err(SbrlError::NonFiniteLoss { iteration, term }) => {
                assert_eq!(iteration, 3);
                assert_eq!(term, NonFiniteTerm::FactualLoss);
            }
            other => panic!("expected NonFiniteLoss, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retry_budgets_surface_the_last_fault() {
        let (train, val, _) = fixtures();
        // Two faults, one retry: the second fault exhausts the budget.
        let cfg = TrainConfig { recovery: RecoveryPolicy::retries(1), ..train_cfg() };
        let _guard = inject(&plan("nan-loss@3;nan-loss@4"));
        match fit(&train, &val, cfg) {
            Err(SbrlError::NonFiniteLoss { term: NonFiniteTerm::FactualLoss, .. }) => {}
            other => panic!("expected NonFiniteLoss after budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn worker_panics_surface_as_typed_errors_and_the_pool_survives() {
        let (train, val, test) = fixtures();
        let fitted = fit(&train, &val, train_cfg()).expect("training succeeds");
        {
            let _guard = inject(&plan("panic-task@0"));
            match fitted.try_predict_batched(&test.x, 4) {
                Err(SbrlError::WorkerPanic { task }) => assert_eq!(task, 0),
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
        // The pool threads replace themselves after a panic: the same model
        // predicts normally once the fault is disarmed, bit-identical to the
        // serial path.
        let recovered = fitted.try_predict_batched(&test.x, 4).expect("pool recovered");
        assert_eq!(
            prediction_bits(&recovered),
            prediction_bits(&fitted.predict(&test.x)),
            "post-panic predictions must match the serial path bit-for-bit"
        );
    }

    #[test]
    fn stalled_iterations_trip_the_watchdog() {
        let (train, val, _) = fixtures();
        let cfg = TrainConfig { time_budget: Some(Duration::from_millis(150)), ..train_cfg() };
        let _guard = inject(&plan("stall-iter@3:500"));
        match fit(&train, &val, cfg) {
            Err(SbrlError::TimedOut { iteration, elapsed }) => {
                assert!(iteration <= 3, "watchdog fires at or before the stalled iteration");
                assert!(elapsed >= Duration::from_millis(150));
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }
}
