//! Differential-testing suite for the opt-in `NumericsMode::Fast` tier.
//!
//! `Fast` swaps the kernel layer's bit-exact accumulation chains for FMA
//! microkernels and multi-accumulator / pairwise-tree reductions. It is
//! **not** bit-identical to `BitExact`, so its contract is different and is
//! pinned here:
//!
//! 1. every Fast statistic stays within a documented relative-error bound of
//!    its BitExact value (`FAST_*_TOL` constants below, quoted in
//!    `docs/PERFORMANCE.md`), across random shapes;
//! 2. Fast is *deterministic*: its reduction trees depend only on operand
//!    shapes, so results are bit-identical run-to-run;
//! 3. an end-to-end fit under the global Fast knob trains to predictions
//!    that agree with the BitExact fit within tolerance, and is itself
//!    bit-reproducible run-to-run.
//!
//! Tests that mutate the process-global knobs serialise on [`GLOBAL_KNOBS`]
//! (tests in one binary share the process); the differential proptests use
//! the explicit `*_mode` / `*_with` APIs and never touch the globals.

use std::sync::Mutex;

use proptest::prelude::*;
use sbrl_hap::core::{Estimator, SbrlConfig, TrainConfig};
use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::CfrConfig;
use sbrl_hap::stats::{
    hsic_biased_with, ipm_weighted_plain_with, pairwise_hsic_matrix_with, IpmKind, Rff,
};
use sbrl_hap::tensor::kernels::{
    gemm_mode, gemm_nt_mode, gemm_tn_mode, reduce_dot, reduce_sum, NumericsMode, Parallelism,
};
use sbrl_hap::tensor::rng::{randn, rng_from_seed};
use sbrl_hap::tensor::Matrix;

/// Serialises every test that sets the process-global `Parallelism` /
/// `NumericsMode` knobs.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

/// Per-element GEMM bound: `|fast - exact| <= tol_per_k * k * (1 + |exact|)`
/// for an inner dimension `k` (each output element is one length-`k` chain).
const FAST_GEMM_TOL_PER_K: f64 = 1e-14;

/// Relative-error bound for the HSIC statistics (biased trace and RFF
/// pairwise matrix), `|fast - exact| <= tol * (1 + |exact|)`.
const FAST_HSIC_TOL: f64 = 1e-10;

/// Relative-error bound for the plain IPMs. Sinkhorn iterates a fixed point
/// (divisions compound the reduction error), so the bound is looser than
/// the single-reduction statistics.
const FAST_IPM_TOL: f64 = 1e-8;

/// Maximum absolute prediction divergence of a short Fast fit from the
/// BitExact fit of the same seed and data (outcome scale is O(1)).
const FAST_FIT_TOL: f64 = 5e-2;

fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = rng_from_seed(seed);
    randn(&mut rng, rows, cols)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[track_caller]
fn assert_matrix_close(exact: &Matrix, fast: &Matrix, tol: f64, what: &str) {
    assert_eq!(exact.shape(), fast.shape(), "{what}: shape mismatch");
    for (i, (&e, &f)) in exact.as_slice().iter().zip(fast.as_slice()).enumerate() {
        let err = (f - e).abs();
        assert!(
            err <= tol * (1.0 + e.abs()),
            "{what}: element {i} exact {e}, fast {f}, err {err} > tol {tol}"
        );
    }
}

#[track_caller]
fn assert_scalar_close(exact: f64, fast: f64, tol: f64, what: &str) {
    let err = (fast - exact).abs();
    assert!(
        err <= tol * (1.0 + exact.abs()),
        "{what}: exact {exact}, fast {fast}, err {err} > tol {tol}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast GEMM (all three transpose layouts) stays within the documented
    /// per-element bound of BitExact, and its bits are reproducible.
    #[test]
    fn fast_gemm_matches_bitexact_within_bounds(
        dims in (1usize..48, 1usize..48, 1usize..48),
        seed in 0u64..1_000,
    ) {
        let (m, k, n) = dims;
        let tol = FAST_GEMM_TOL_PER_K * k as f64;

        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed ^ 0x5eed, k, n);
        let exact = gemm_mode(&a, &b, NumericsMode::BitExact);
        let fast = gemm_mode(&a, &b, NumericsMode::Fast);
        assert_matrix_close(&exact, &fast, tol, "gemm_nn");
        prop_assert_eq!(bits(&fast), bits(&gemm_mode(&a, &b, NumericsMode::Fast)));

        let b_nt = random_matrix(seed ^ 1, n, k); // a * b_nt^T
        let exact = gemm_nt_mode(&a, &b_nt, NumericsMode::BitExact);
        let fast = gemm_nt_mode(&a, &b_nt, NumericsMode::Fast);
        assert_matrix_close(&exact, &fast, tol, "gemm_nt");

        let b_tn = random_matrix(seed ^ 2, m, n); // a^T * b_tn
        let exact = gemm_tn_mode(&a, &b_tn, NumericsMode::BitExact);
        let fast = gemm_tn_mode(&a, &b_tn, NumericsMode::Fast);
        // gemm_tn chains over m (the shared row count), not k.
        assert_matrix_close(&fast, &exact, FAST_GEMM_TOL_PER_K * m as f64, "gemm_tn");
    }

    /// Fast tree reductions stay within bound of the serial folds and are
    /// bit-reproducible.
    #[test]
    fn fast_reductions_match_serial_folds(len in 0usize..600, seed in 0u64..1_000) {
        let xs = random_matrix(seed, len.max(1), 1);
        let ys = random_matrix(seed ^ 3, len.max(1), 1);
        let (xs, ys) = (&xs.as_slice()[..len], &ys.as_slice()[..len]);
        let tol = 1e-15 * (len.max(1) as f64);
        assert_scalar_close(
            reduce_sum(xs, NumericsMode::BitExact),
            reduce_sum(xs, NumericsMode::Fast),
            tol,
            "reduce_sum",
        );
        assert_scalar_close(
            reduce_dot(xs, ys, NumericsMode::BitExact),
            reduce_dot(xs, ys, NumericsMode::Fast),
            tol,
            "reduce_dot",
        );
        let again = reduce_dot(xs, ys, NumericsMode::Fast);
        prop_assert_eq!(reduce_dot(xs, ys, NumericsMode::Fast).to_bits(), again.to_bits());
    }

    /// Fast `hsic_biased` and the pairwise HSIC-RFF matrix stay within the
    /// documented bound of BitExact across shapes.
    #[test]
    fn fast_hsic_statistics_stay_within_tolerance(
        dims in (2usize..64, 1usize..4),
        seed in 0u64..1_000,
    ) {
        let (n, d) = dims;
        let a = random_matrix(seed, n, d);
        let b = random_matrix(seed ^ 7, n, d);
        // Positive bandwidths: the median heuristic resolves through the
        // *global* knobs and this test must not depend on them.
        let exact = hsic_biased_with(&a, &b, 1.0, 0.8, NumericsMode::BitExact);
        let fast = hsic_biased_with(&a, &b, 1.0, 0.8, NumericsMode::Fast);
        assert_scalar_close(exact, fast, FAST_HSIC_TOL, "hsic_biased");
        let again = hsic_biased_with(&a, &b, 1.0, 0.8, NumericsMode::Fast);
        prop_assert_eq!(fast.to_bits(), again.to_bits());

        let mut rng = rng_from_seed(seed ^ 99);
        let rff = Rff::sample(&mut rng, 5);
        let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.3).collect();
        for w in [None, Some(weights.as_slice())] {
            let exact = pairwise_hsic_matrix_with(&a, &rff, w, NumericsMode::BitExact);
            let fast = pairwise_hsic_matrix_with(&a, &rff, w, NumericsMode::Fast);
            assert_matrix_close(&exact, &fast, FAST_HSIC_TOL, "pairwise_hsic_matrix");
        }
    }

    /// Fast plain IPMs (linear MMD, RBF MMD², Sinkhorn-Wasserstein) stay
    /// within the documented bound of BitExact across shapes and weightings.
    #[test]
    fn fast_plain_ipms_stay_within_tolerance(
        dims in (2usize..48, 2usize..48, 1usize..5),
        seed in 0u64..1_000,
    ) {
        let (nt, nc, d) = dims;
        let phi_t = random_matrix(seed, nt, d);
        let phi_c = random_matrix(seed ^ 11, nc, d);
        let w_t: Vec<f64> = (0..nt).map(|i| 0.25 + (i % 4) as f64 * 0.5).collect();
        for kind in [
            IpmKind::MmdLin,
            IpmKind::MmdRbf { sigma: 1.0 },
            IpmKind::Wasserstein { lambda: 10.0, iterations: 5 },
        ] {
            let ipm = |mode| ipm_weighted_plain_with(kind, &phi_t, &phi_c, Some(&w_t), None, mode);
            let (exact, fast) = (ipm(NumericsMode::BitExact), ipm(NumericsMode::Fast));
            assert_scalar_close(exact, fast, FAST_IPM_TOL, &format!("{kind:?}"));
            prop_assert_eq!(fast.to_bits(), ipm(NumericsMode::Fast).to_bits());
        }
    }
}

/// `SBRL_NUMERICS` / `set_global` round trip — the global-knob semantics the
/// tensor crate's unit tests cannot exercise without racing its bit-identity
/// tests in the same process.
#[test]
fn numerics_mode_global_round_trip() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    NumericsMode::Fast.set_global();
    assert_eq!(NumericsMode::global(), NumericsMode::Fast);
    assert!(NumericsMode::global().is_fast());
    NumericsMode::BitExact.set_global();
    assert_eq!(NumericsMode::global(), NumericsMode::BitExact);
    NumericsMode::from_env().set_global();
}

/// A scoped tier pins the calling thread and the pool tasks it submits,
/// and nothing else: inside `NumericsMode::BitExact.scoped`, two coarse
/// tasks that must run at the same time (one of them on a pool worker) see
/// BitExact, while a thread outside the scope sees the global Fast.
#[test]
fn scoped_tier_pins_its_tasks_but_not_other_threads() {
    use sbrl_hap::tensor::workers::run_coarse_tasks;
    use std::sync::Barrier;
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    NumericsMode::Fast.set_global();
    let caller = std::thread::current().id();
    let both_running = Barrier::new(2);
    let seen = Mutex::new(Vec::new());
    let outside = NumericsMode::BitExact.scoped(|| {
        run_coarse_tasks(2, 2, &|_| {
            both_running.wait();
            let on = std::thread::current().id();
            seen.lock().unwrap().push((on, NumericsMode::global()));
        });
        std::thread::scope(|s| s.spawn(NumericsMode::global).join().unwrap())
    });
    let after = NumericsMode::global();
    NumericsMode::from_env().set_global();

    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 2);
    assert!(seen.iter().any(|&(on, _)| on != caller), "no task ran on a pool worker");
    assert!(seen.iter().all(|&(_, mode)| mode == NumericsMode::BitExact), "{seen:?}");
    assert_eq!(outside, NumericsMode::Fast, "the scope leaked to another thread");
    assert_eq!(after, NumericsMode::Fast, "the scope outlived its closure");
}

fn short_fit(mode: NumericsMode, par: Parallelism) -> (Vec<f64>, Vec<f64>) {
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 21);
    let train_data = process.generate(2.5, 200, 0);
    let val_data = process.generate(2.5, 80, 1);
    let test_data = process.generate(-2.5, 120, 2);
    let cfg = TrainConfig {
        iterations: 30,
        batch_size: 64,
        eval_every: 10,
        patience: 30,
        ..TrainConfig::default()
    };
    mode.set_global();
    par.set_global();
    let fitted = Estimator::builder()
        .backbone(CfrConfig::small(train_data.dim()))
        .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
        .train(cfg)
        .seed(11)
        .fit(&train_data, &val_data)
        .expect("training succeeds");
    assert_eq!(fitted.numerics(), mode, "FittedModel must record its numerics tier");
    let est = fitted.predict(&test_data.x);
    Parallelism::from_env().set_global();
    NumericsMode::from_env().set_global();
    (est.y0_hat, est.y1_hat)
}

/// An end-to-end fit under the global Fast knob predicts within tolerance of
/// the BitExact fit of the same seed and data, and the Fast fit itself is
/// bit-identical run-to-run at a fixed worker count (determinism).
#[test]
fn fast_fit_agrees_with_bitexact_and_is_reproducible() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    let par = Parallelism::Threads(4);
    let (e_y0, e_y1) = short_fit(NumericsMode::BitExact, par);
    let (f_y0, f_y1) = short_fit(NumericsMode::Fast, par);
    let max_diff = e_y0
        .iter()
        .chain(&e_y1)
        .zip(f_y0.iter().chain(&f_y1))
        .map(|(e, f)| (e - f).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff <= FAST_FIT_TOL,
        "fast fit diverged from bitexact: max |Δprediction| = {max_diff}"
    );

    let (g_y0, g_y1) = short_fit(NumericsMode::Fast, par);
    let same_bits = f_y0.iter().zip(&g_y0).all(|(a, b)| a.to_bits() == b.to_bits())
        && f_y1.iter().zip(&g_y1).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same_bits, "fast fit must be bit-identical run-to-run at a fixed worker count");
}
