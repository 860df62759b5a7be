//! Serving-shaped guarantees of the redesigned estimator API: a fitted
//! model is an immutable `Send + Sync` artifact whose inference fans out
//! across threads with bit-identical results.

use sbrl_hap::core::{Estimator, FittedModel, SbrlConfig, TrainConfig};
use sbrl_hap::data::{CausalDataset, SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::{Backbone, CfrConfig};

fn splits() -> (CausalDataset, CausalDataset, CausalDataset) {
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 21);
    (process.generate(2.5, 300, 0), process.generate(2.5, 120, 1), process.generate(-2.5, 250, 2))
}

fn budget() -> TrainConfig {
    TrainConfig {
        iterations: 60,
        batch_size: 64,
        eval_every: 20,
        patience: 40,
        ..TrainConfig::default()
    }
}

fn fit_small() -> (FittedModel<Box<dyn Backbone>>, CausalDataset) {
    let (train_data, val_data, test_data) = splits();
    let fitted = Estimator::builder()
        .backbone(CfrConfig::small(train_data.dim()))
        .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
        .train(budget())
        .seed(11)
        .fit(&train_data, &val_data)
        .expect("training succeeds");
    (fitted, test_data)
}

/// Compile-time assertion: the boxed fitted model is `Send + Sync`.
#[test]
fn fitted_model_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FittedModel<Box<dyn Backbone>>>();
    assert_send_sync::<Box<dyn Backbone>>();
}

/// One fitted model shared by four scoped threads, each predicting a
/// disjoint row slice, must reproduce the single-threaded predictions
/// bit for bit.
#[test]
fn shared_model_predicts_identically_across_threads() {
    let (fitted, test_data) = fit_small();
    let sequential = fitted.predict(&test_data.x);

    let n = test_data.n();
    let workers = 4;
    let chunk = n.div_ceil(workers);
    let fitted_ref = &fitted;
    let pieces: Vec<(usize, Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(n);
                let hi = ((w + 1) * chunk).min(n);
                let rows: Vec<usize> = (lo..hi).collect();
                let slice = test_data.x.select_rows(&rows);
                s.spawn(move || {
                    let est = fitted_ref.predict(&slice);
                    (lo, est.y0_hat, est.y1_hat)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).collect()
    });

    let mut y0 = vec![0.0; n];
    let mut y1 = vec![0.0; n];
    for (lo, p0, p1) in pieces {
        y0[lo..lo + p0.len()].copy_from_slice(&p0);
        y1[lo..lo + p1.len()].copy_from_slice(&p1);
    }
    assert_eq!(y0, sequential.y0_hat, "threaded y0 must be bit-identical");
    assert_eq!(y1, sequential.y1_hat, "threaded y1 must be bit-identical");
}

/// `predict_batched` is deterministic and bit-identical to `predict` for
/// any worker count, including degenerate ones.
#[test]
fn predict_batched_matches_sequential_for_any_worker_count() {
    let (fitted, test_data) = fit_small();
    let sequential = fitted.predict(&test_data.x);
    for workers in [1, 2, 3, 4, 7, 64, 10_000] {
        let batched = fitted.predict_batched(&test_data.x, workers);
        assert_eq!(batched.y0_hat, sequential.y0_hat, "workers = {workers}");
        assert_eq!(batched.y1_hat, sequential.y1_hat, "workers = {workers}");
    }
    // Repeated calls are deterministic.
    let again = fitted.predict_batched(&test_data.x, 4);
    assert_eq!(again.y0_hat, sequential.y0_hat);
}
