//! Differential-testing suite for the opt-in `NumericsMode::Fast` tier.
//!
//! `Fast` contracts the GEMM tile's multiply-add chains into FMAs. A
//! result that runs through a GEMM is **not** bit-identical to `BitExact`,
//! so its contract is different and is pinned here:
//!
//! 1. every Fast statistic stays within a documented relative-error bound of
//!    its BitExact value (`FAST_*_TOL` constants below, quoted in
//!    `docs/PERFORMANCE.md`), across random shapes, and one that runs no
//!    GEMM is bit-identical to it;
//! 2. Fast is *deterministic*: each element is a fixed `mul_add` chain, so
//!    results are bit-identical run-to-run;
//! 3. an end-to-end fit under the Fast tier trains to predictions that
//!    agree with the BitExact fit within tolerance, and is itself
//!    bit-reproducible run-to-run;
//! 4. a tier pinned with `NumericsMode::scoped` holds on its thread and the
//!    pool tasks it submits, and on nothing else, so concurrent tests in one
//!    process can each run in their own tier without a lock.
//!
//! Every test chooses its tier with `NumericsMode::scoped`, the only
//! programmatic way to choose one; none of them depends on
//! `SBRL_NUMERICS`.

use std::sync::{Barrier, Mutex};

use proptest::prelude::*;
use sbrl_hap::core::{Estimator, SbrlConfig, TrainConfig};
use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::CfrConfig;
use sbrl_hap::stats::{
    hsic_biased, ipm_plain, ipm_weighted_plain, median_bandwidth, pairwise_hsic_matrix,
    pairwise_sq_dists, IpmKind, Rff,
};
use sbrl_hap::tensor::kernels::{NumericsMode, Parallelism};
use sbrl_hap::tensor::rng::{randn, rng_from_seed};
use sbrl_hap::tensor::workers::run_coarse_tasks;
use sbrl_hap::tensor::Matrix;

const EXACT: NumericsMode = NumericsMode::BitExact;
const FAST: NumericsMode = NumericsMode::Fast;

/// Per-element GEMM bound: `|fast - exact| <= tol_per_k * k * (1 + |exact|)`
/// for an inner dimension `k` (each output element is one length-`k` chain).
const FAST_GEMM_TOL_PER_K: f64 = 1e-14;

/// Relative-error bound for the biased HSIC trace, whose kernel fills run
/// the GEMM, `|fast - exact| <= tol * (1 + |exact|)`.
const FAST_HSIC_TOL: f64 = 1e-10;

/// Relative-error bound for the plain kernel IPMs. Sinkhorn iterates a
/// fixed point (divisions compound the cost matrix's GEMM error), so the
/// bound is looser than the single-reduction statistics.
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
        let nn = || a.matmul(&b);
        let (exact, fast) = (EXACT.scoped(nn), FAST.scoped(nn));
        assert_matrix_close(&exact, &fast, tol, "gemm_nn");
        prop_assert_eq!(bits(&fast), bits(&FAST.scoped(nn)));

        let b_nt = random_matrix(seed ^ 1, n, k); // a * b_nt^T
        let nt = || a.matmul_nt(&b_nt);
        let (exact, fast) = (EXACT.scoped(nt), FAST.scoped(nt));
        assert_matrix_close(&exact, &fast, tol, "gemm_nt");

        let b_tn = random_matrix(seed ^ 2, m, n); // a^T * b_tn
        let tn = || a.matmul_tn(&b_tn);
        let (exact, fast) = (EXACT.scoped(tn), FAST.scoped(tn));
        // gemm_tn chains over m (the shared row count), not k.
        assert_matrix_close(&fast, &exact, FAST_GEMM_TOL_PER_K * m as f64, "gemm_tn");
    }

    /// Fast `hsic_biased` stays within the documented bound of BitExact
    /// across shapes; the pairwise HSIC-RFF matrix runs no GEMM, so its bits
    /// are the same in both tiers.
    #[test]
    fn fast_hsic_statistics_stay_within_tolerance(
        dims in (2usize..64, 1usize..4),
        seed in 0u64..1_000,
    ) {
        let (n, d) = dims;
        let a = random_matrix(seed, n, d);
        let b = random_matrix(seed ^ 7, n, d);
        let biased = || hsic_biased(&a, &b, 1.0, 0.8);
        let (exact, fast) = (EXACT.scoped(biased), FAST.scoped(biased));
        assert_scalar_close(exact, fast, FAST_HSIC_TOL, "hsic_biased");
        prop_assert_eq!(fast.to_bits(), FAST.scoped(biased).to_bits());

        let mut rng = rng_from_seed(seed ^ 99);
        let rff = Rff::sample(&mut rng, 5);
        let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.3).collect();
        for w in [None, Some(weights.as_slice())] {
            let pairwise = || pairwise_hsic_matrix(&a, &rff, w);
            prop_assert_eq!(bits(&EXACT.scoped(pairwise)), bits(&FAST.scoped(pairwise)));
        }
    }

    /// Fast plain kernel IPMs (RBF MMD², Sinkhorn-Wasserstein) stay within
    /// the documented bound of BitExact across shapes and weightings; linear
    /// MMD runs no GEMM, so its bits are the same in both tiers.
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
            let ipm = || ipm_weighted_plain(kind, &phi_t, &phi_c, Some(&w_t), None);
            let (exact, fast) = (EXACT.scoped(ipm), FAST.scoped(ipm));
            if kind == IpmKind::MmdLin {
                prop_assert_eq!(exact.to_bits(), fast.to_bits());
            }
            assert_scalar_close(exact, fast, FAST_IPM_TOL, &format!("{kind:?}"));
            prop_assert_eq!(fast.to_bits(), FAST.scoped(ipm).to_bits());
        }
    }
}

/// FNV-1a over the bit patterns of `values`, so one recorded constant pins a
/// whole matrix bit for bit.
fn digest(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3))
}

/// The plain statistics reproduce their recorded BitExact bits on fixed
/// seeded inputs: the kernel fills, the median heuristic, the HSIC folds and
/// every plain IPM, with a zero weight on each side to reach the quadratic
/// forms' zero-weight skip. A change to any BitExact accumulation order
/// fails here; the constants change only with a deliberate re-recording.
#[test]
fn bitexact_statistics_reproduce_recorded_bits() {
    let (a, b) = (random_matrix(41, 70, 3), random_matrix(42, 70, 2));
    let (phi_t, phi_c) = (random_matrix(43, 37, 4), random_matrix(44, 29, 4));
    let z = random_matrix(45, 70, 6);
    let rff = Rff::sample(&mut rng_from_seed(46), Rff::DEFAULT_NUM_FUNCTIONS);
    let ramp = |n: usize| -> Vec<f64> { (0..n).map(|i| (i % 7) as f64 * 0.25).collect() };
    let (w_t, w_c, w_z) = (ramp(37), ramp(29), ramp(70));
    let ipm = |kind| ipm_weighted_plain(kind, &phi_t, &phi_c, Some(&w_t), Some(&w_c)).to_bits();

    let got = EXACT.scoped(|| {
        [
            ("hsic_biased", hsic_biased(&a, &b, -1.0, -1.0).to_bits()),
            ("median_bandwidth", median_bandwidth(&a).to_bits()),
            ("pairwise_hsic_matrix", digest(pairwise_hsic_matrix(&z, &rff, Some(&w_z)).as_slice())),
            ("pairwise_sq_dists", digest(pairwise_sq_dists(&phi_t, &phi_c).as_slice())),
            ("MmdLin", ipm(IpmKind::MmdLin)),
            ("MmdRbf", ipm(IpmKind::MmdRbf { sigma: -1.0 })),
            ("Wasserstein", ipm(IpmKind::Wasserstein { lambda: 10.0, iterations: 10 })),
        ]
    });
    let recorded: [u64; 7] = [
        0x3f73_e94d_b8f4_51d7,
        0x3ff9_2e55_a3b3_3ec8,
        0x7cb8_8f29_576b_7e92,
        0x026b_851d_b672_ea8e,
        0x3fbf_98a9_cb8e_fb63,
        0x3f93_a9db_c965_03a0,
        0x3ff7_4001_9299_1309,
    ];
    for ((what, bits), want) in got.into_iter().zip(recorded) {
        assert_eq!(bits, want, "{what}: got {bits:#018x}, recorded {want:#018x}");
    }
}

/// The work whose bits a tier must pin: a GEMM and an RBF MMD² whose
/// bandwidth comes from the median heuristic.
fn tier_work(a: &Matrix, b: &Matrix, phi_t: &Matrix, phi_c: &Matrix) -> Vec<u64> {
    let mut out = bits(&a.matmul(b));
    out.push(ipm_plain(IpmKind::MmdRbf { sigma: -1.0 }, phi_t, phi_c).to_bits());
    out
}

/// A scoped tier pins the calling thread and the pool tasks it submits,
/// and nothing else. Two threads run the same work at the same time, one
/// under `Fast.scoped` and one under `BitExact.scoped`, both inline and on
/// two coarse tasks that must run at once (so one runs on a pool worker).
/// Each must reproduce its own tier's reference bits, while a thread spawned
/// inside either scope, and the test thread afterwards, read the ambient
/// tier.
#[test]
fn scoped_tier_pins_its_tasks_but_not_other_threads() {
    let (a, b) = (random_matrix(1, 33, 70), random_matrix(2, 70, 17));
    let (phi_t, phi_c) = (random_matrix(3, 40, 6), random_matrix(4, 50, 6));
    let work = || tier_work(&a, &b, &phi_t, &phi_c);
    let (exact, fast) = (EXACT.scoped(work), FAST.scoped(work));
    assert!(exact != fast, "the tiers must differ on this work for a leak to show");
    let ambient = NumericsMode::global();

    let start = Barrier::new(2);
    let run = |mode: NumericsMode| {
        mode.scoped(|| {
            start.wait();
            let caller = std::thread::current().id();
            let both_running = Barrier::new(2);
            let on_pool = Mutex::new(Vec::new());
            run_coarse_tasks(2, 2, &|_| {
                both_running.wait();
                let got = work();
                on_pool.lock().unwrap().push((std::thread::current().id() != caller, got));
            });
            let inline = work();
            let outside = std::thread::scope(|s| s.spawn(NumericsMode::global).join().unwrap());
            (inline, on_pool.into_inner().unwrap(), outside)
        })
    };
    let (fast_run, exact_run) = std::thread::scope(|s| {
        let fast_run = s.spawn(|| run(FAST));
        let exact_run = s.spawn(|| run(EXACT));
        (fast_run.join().unwrap(), exact_run.join().unwrap())
    });

    for (mode, want, (inline, on_pool, outside)) in
        [(FAST, &fast, fast_run), (EXACT, &exact, exact_run)]
    {
        assert!(&inline == want, "{mode}: the inline work left its tier");
        assert_eq!(on_pool.len(), 2);
        assert!(on_pool.iter().any(|(worker, _)| *worker), "{mode}: no task ran on a pool worker");
        assert!(on_pool.iter().all(|(_, got)| got == want), "{mode}: a pool task left its tier");
        assert_eq!(outside, ambient, "{mode}: the scope leaked to another thread");
    }
    assert_eq!(NumericsMode::global(), ambient, "a scope outlived its closure");
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
    par.set_global();
    let est = mode.scoped(|| {
        let fitted = Estimator::builder()
            .backbone(CfrConfig::small(train_data.dim()))
            .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
            .train(cfg)
            .seed(11)
            .fit(&train_data, &val_data)
            .expect("training succeeds");
        assert_eq!(fitted.numerics(), mode, "FittedModel must record its numerics tier");
        fitted.predict(&test_data.x)
    });
    Parallelism::from_env().set_global();
    (est.y0_hat, est.y1_hat)
}

/// An end-to-end fit under the Fast tier predicts within tolerance of
/// the BitExact fit of the same seed and data, and the Fast fit itself is
/// bit-identical run-to-run at a fixed worker count (determinism).
#[test]
fn fast_fit_agrees_with_bitexact_and_is_reproducible() {
    let par = Parallelism::Threads(4);
    let (e_y0, e_y1) = short_fit(EXACT, par);
    let (f_y0, f_y1) = short_fit(FAST, par);
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

    let (g_y0, g_y1) = short_fit(FAST, par);
    let same_bits = f_y0.iter().zip(&g_y0).all(|(a, b)| a.to_bits() == b.to_bits())
        && f_y1.iter().zip(&g_y1).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same_bits, "fast fit must be bit-identical run-to-run at a fixed worker count");
}
