//! Bit-identity guarantees of the parallel layer. The kernels (blocked
//! GEMM, pairwise distances, HSIC matrices, plain IPMs) run on their
//! caller's thread; for random shapes and data, several copies running
//! concurrently as coarse tasks on the worker pool, the way sweep
//! replications and decorrelation terms call them, must reproduce the
//! calling thread's output bit for bit, and the plain statistics must
//! reproduce their recorded bits on fixed inputs. A whole fit under
//! `Parallelism::Serial` must reproduce the exact predictions recorded
//! before the kernel layer existed, and `Parallelism::Threads(4)` the same
//! bits.
//!
//! The weight objective, whose decorrelation terms run concurrently on
//! tapes of their own, must reproduce the one-tape build's loss and
//! weight-gradient bits at every worker count.
//!
//! The synthetic generator, which draws its pools in parallel row shards
//! from generator checkpoints, must output the same bits at every worker
//! count and inside a coarse task.

use proptest::prelude::*;
use rand::rngs::StdRng;
use sbrl_hap::core::{weight_objective, Estimator, SbrlConfig, TrainConfig};
use sbrl_hap::data::synthetic::CHECKPOINT_ROWS;
use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::{BatchContext, CfrConfig, LayerTaps};
use sbrl_hap::stats::{
    decorrelation_loss_graph_scratch, hsic_biased, ipm_plain, ipm_weighted_graph,
    ipm_weighted_plain, median_bandwidth, pairwise_hsic_matrix, pairwise_sq_dists, rbf_kernel,
    DecorrelationConfig, HsicScratch, IpmKind, Rff,
};
use sbrl_hap::tensor::kernels::Parallelism;
use sbrl_hap::tensor::rng::{randn, rng_from_seed};
use sbrl_hap::tensor::workers::run_coarse_tasks;
use sbrl_hap::tensor::{Graph, Matrix, TensorId};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises the tests that set the global `Parallelism` knob, so each
/// sees the worker counts it compares.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

fn knobs() -> MutexGuard<'static, ()> {
    GLOBAL_KNOBS.lock().unwrap_or_else(|p| p.into_inner())
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = rng_from_seed(seed);
    randn(&mut rng, rows, cols)
}

/// Whether `threads` copies of `f`, run concurrently as coarse tasks on the
/// worker pool, all give the bits `f` gives on the calling thread.
fn same_bits_on_pool(threads: usize, f: impl Fn() -> Vec<u64> + Sync) -> bool {
    let serial = f();
    let on_pool: Vec<OnceLock<Vec<u64>>> = (0..threads).map(|_| OnceLock::new()).collect();
    run_coarse_tasks(threads, threads, &|i| {
        on_pool[i].get_or_init(&f);
    });
    on_pool.iter().all(|got| got.get() == Some(&serial))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_gemm_is_bit_identical_to_serial(
        dims in (1usize..48, 1usize..48, 1usize..48, 2usize..12),
        seed in 0u64..1_000,
    ) {
        let (m, k, n, threads) = dims;
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed ^ 0xabcd, k, n);
        prop_assert!(same_bits_on_pool(threads, || bits(&a.matmul(&b))));
    }

    #[test]
    fn parallel_fused_transpose_gemms_are_bit_identical_to_serial(
        dims in (1usize..40, 1usize..40, 1usize..40, 2usize..12),
        seed in 0u64..1_000,
    ) {
        let (m, k, n, threads) = dims;
        let a = random_matrix(seed, m, k);
        let b_nt = random_matrix(seed ^ 1, n, k); // a * b_nt^T
        let b_tn = random_matrix(seed ^ 2, m, n); // a^T * b_tn
        prop_assert!(same_bits_on_pool(threads, || bits(&a.matmul_nt(&b_nt))));
        prop_assert!(same_bits_on_pool(threads, || bits(&a.matmul_tn(&b_tn))));
    }

    #[test]
    fn parallel_pairwise_kernels_are_bit_identical_to_serial(
        dims in (1usize..64, 1usize..64, 1usize..6, 2usize..12),
        seed in 0u64..1_000,
    ) {
        let (n, m, d, threads) = dims;
        let a = random_matrix(seed, n, d);
        let b = random_matrix(seed ^ 7, m, d);
        let dists = || bits(&pairwise_sq_dists(&a, &b));
        prop_assert!(same_bits_on_pool(threads, dists));
        let rbf = || bits(&rbf_kernel(&a, &b, 1.0));
        prop_assert!(same_bits_on_pool(threads, rbf));
    }

    #[test]
    fn parallel_hsic_matrix_is_bit_identical_to_serial(
        dims in (2usize..80, 1usize..8, 2usize..12),
        seed in 0u64..1_000,
    ) {
        let (n, d, threads) = dims;
        let z = random_matrix(seed, n, d);
        let mut rng = rng_from_seed(seed ^ 99);
        let rff = Rff::sample(&mut rng, 5);
        let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        for w in [None, Some(weights.as_slice())] {
            let hsic = || bits(&pairwise_hsic_matrix(&z, &rff, w));
            prop_assert!(same_bits_on_pool(threads, hsic));
        }
    }

    #[test]
    fn parallel_plain_ipms_are_bit_identical_to_serial(
        dims in (1usize..48, 1usize..48, 1usize..5, 2usize..12),
        seed in 0u64..1_000,
    ) {
        let (nt, nc, d, threads) = dims;
        let phi_t = random_matrix(seed, nt, d);
        let phi_c = random_matrix(seed ^ 3, nc, d);
        for kind in [
            IpmKind::MmdLin,
            IpmKind::MmdRbf { sigma: 1.0 },
            IpmKind::MmdRbf { sigma: -1.0 }, // median heuristic path
            IpmKind::Wasserstein { lambda: 10.0, iterations: 5 },
        ] {
            let ipm = || vec![ipm_plain(kind, &phi_t, &phi_c).to_bits()];
            prop_assert!(same_bits_on_pool(threads, ipm), "{kind:?}");
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

/// The plain statistics reproduce their recorded bits on fixed
/// seeded inputs: the kernel fills, the median heuristic, the HSIC folds and
/// every plain IPM, with a zero weight on each side to reach the quadratic
/// forms' zero-weight skip. A change to any accumulation order fails here;
/// the constants change only with a deliberate re-recording.
#[test]
fn bitexact_statistics_reproduce_recorded_bits() {
    let (a, b) = (random_matrix(41, 70, 3), random_matrix(42, 70, 2));
    let (phi_t, phi_c) = (random_matrix(43, 37, 4), random_matrix(44, 29, 4));
    let z = random_matrix(45, 70, 6);
    let rff = Rff::sample(&mut rng_from_seed(46), Rff::DEFAULT_NUM_FUNCTIONS);
    let ramp = |n: usize| -> Vec<f64> { (0..n).map(|i| (i % 7) as f64 * 0.25).collect() };
    let (w_t, w_c, w_z) = (ramp(37), ramp(29), ramp(70));
    let ipm = |kind| ipm_weighted_plain(kind, &phi_t, &phi_c, Some(&w_t), Some(&w_c)).to_bits();

    let got = [
        ("hsic_biased", hsic_biased(&a, &b, -1.0, -1.0).to_bits()),
        ("median_bandwidth", median_bandwidth(&a).to_bits()),
        ("pairwise_hsic_matrix", digest(pairwise_hsic_matrix(&z, &rff, Some(&w_z)).as_slice())),
        ("pairwise_sq_dists", digest(pairwise_sq_dists(&phi_t, &phi_c).as_slice())),
        ("MmdLin", ipm(IpmKind::MmdLin)),
        ("MmdRbf", ipm(IpmKind::MmdRbf { sigma: -1.0 })),
        ("Wasserstein", ipm(IpmKind::Wasserstein { lambda: 10.0, iterations: 10 })),
    ];
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

/// `Parallelism::Serial` must reproduce, bit for bit, the predictions this
/// exact fit produced *before* the blocked kernel layer existed; and
/// `Parallelism::Threads(4)`, whose weight phase runs its decorrelation
/// terms on the pool, must match serial on the same fit. Guards the
/// "serial mode reproduces historical output" contract.
#[test]
fn serial_mode_reproduces_recorded_pr2_predictions() {
    // (row index, y0_hat bits, y1_hat bits) recorded from the PR 2 tree with
    // the single-threaded i-k-j matmul, for the fit below.
    const GOLDEN: [(usize, u64, u64); 8] = [
        (0, 0x3fb335b8902f3717, 0x3fd9c77cb67d6597),
        (1, 0x3fc46f752ffbdabf, 0x3fd020917e0eb110),
        (2, 0x3fe4ad37aac58021, 0x3fe5e7384c435e3f),
        (50, 0x3fcebbff4964072f, 0x3fe85707d6af4085),
        (100, 0x3fc4e36d7bbfdbd2, 0x3fe668a2fbad9295),
        (150, 0x3fc5937ffd91a327, 0x3fe5ea4a8e2c64f7),
        (200, 0x3fe23a2d1fbae5e3, 0x3fd677d5e577e2de),
        (249, 0x3fc0fc4d58cea6d8, 0x3fe83252b9c0317a),
    ];

    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 21);
    let train_data = process.generate(2.5, 300, 0);
    let val_data = process.generate(2.5, 120, 1);
    let test_data = process.generate(-2.5, 250, 2);
    let cfg = TrainConfig {
        iterations: 60,
        batch_size: 64,
        eval_every: 20,
        patience: 40,
        ..TrainConfig::default()
    };
    let _knobs = knobs();
    let fit = |par: Parallelism| {
        par.set_global();
        let fitted = Estimator::builder()
            .backbone(CfrConfig::small(train_data.dim()))
            .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
            .train(cfg)
            .seed(11)
            .fit(&train_data, &val_data)
            .expect("training succeeds");
        fitted.predict(&test_data.x)
    };

    let serial = fit(Parallelism::Serial);
    for (i, y0_bits, y1_bits) in GOLDEN {
        assert_eq!(serial.y0_hat[i].to_bits(), y0_bits, "y0[{i}] drifted from PR 2");
        assert_eq!(serial.y1_hat[i].to_bits(), y1_bits, "y1[{i}] drifted from PR 2");
    }

    // The parallel fit trains to bit-identical predictions.
    let parallel = fit(Parallelism::Threads(4));
    Parallelism::from_env().set_global();
    assert_eq!(
        serial.y0_hat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        parallel.y0_hat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    assert_eq!(
        serial.y1_hat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        parallel.y1_hat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
}

/// `weight_objective` rebuilt on one tape from its public parts, in the
/// same order: every decorrelation term goes through
/// `decorrelation_loss_graph_scratch` on `g` itself.
#[allow(clippy::too_many_arguments)]
fn weight_objective_one_tape(
    g: &mut Graph,
    cfg: &SbrlConfig,
    taps: &LayerTaps,
    ctx: &BatchContext,
    w: TensorId,
    r_w: TensorId,
    rff: &Rff,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
) -> TensorId {
    let mut total = r_w;
    let balance = if cfg.use_br && cfg.alpha > 0.0 {
        let b = ipm_weighted_graph(g, cfg.ipm, taps.z_r, w, &ctx.treated_idx, &ctx.control_idx);
        g.scale(b, cfg.alpha)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, balance);
    let mut term = |g: &mut Graph, z: TensorId, gamma: f64| {
        let d = decorrelation_loss_graph_scratch(g, z, w, rff, &cfg.decor, rng, scratch);
        g.scale(d, gamma)
    };
    let independence = if cfg.use_ir && cfg.gamma1 > 0.0 {
        term(g, taps.z_p, cfg.gamma1)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, independence);
    let hierarchy = if cfg.use_hap {
        let mut h = g.scalar_const(0.0);
        if cfg.gamma2 > 0.0 {
            let s = term(g, taps.z_r, cfg.gamma2);
            h = g.add(h, s);
        }
        if cfg.gamma3 > 0.0 {
            for &z in &taps.z_o {
                let s = term(g, z, cfg.gamma3);
                h = g.add(h, s);
            }
        }
        h
    } else {
        g.scalar_const(0.0)
    };
    g.add(total, hierarchy)
}

/// Loss and `w`-gradient bits of two steps of the weight objective over
/// constant taps of the given widths, the second step reusing the tape and
/// scratch of the first.
fn weight_objective_bits(cfg: &SbrlConfig, widths: [usize; 4], one_tape: bool) -> Vec<u64> {
    const N: usize = 40;
    let mut data_rng = rng_from_seed(17);
    let tap_values: Vec<Matrix> = widths.iter().map(|&d| randn(&mut data_rng, N, d)).collect();
    let raw = randn(&mut data_rng, N, 1);
    let t: Vec<f64> = (0..N).map(|i| ((i * 7) % 3 == 0) as u8 as f64).collect();
    let ctx = BatchContext::new(&t);
    let rff = Rff::sample(&mut data_rng, cfg.rff_functions);
    let mut rng = rng_from_seed(5);
    let mut scratch = HsicScratch::new();
    let mut g = Graph::new();
    let mut bits = Vec::new();
    for _ in 0..2 {
        g.reset();
        let taps = LayerTaps {
            z_o: vec![g.constant_copied(&tap_values[2]), g.constant_copied(&tap_values[3])],
            z_r: g.constant_copied(&tap_values[1]),
            z_p: g.constant_copied(&tap_values[0]),
        };
        let raw_id = g.param_copied(&raw);
        let w = g.softplus(raw_id);
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        let r_w = g.mean(sq);
        let total = if one_tape {
            weight_objective_one_tape(
                &mut g,
                cfg,
                &taps,
                &ctx,
                w,
                r_w,
                &rff,
                &mut rng,
                &mut scratch,
            )
        } else {
            weight_objective(&mut g, cfg, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch).total
        };
        g.backward(total);
        bits.push(g.scalar(total).to_bits());
        bits.extend(
            g.grad(raw_id)
                .expect("weights receive a gradient")
                .as_slice()
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    bits
}

/// The concurrent weight objective reproduces the one-tape build's loss
/// and weight-gradient bits for every worker count.
#[test]
fn weight_objective_matches_the_one_tape_build() {
    let _knobs = knobs();
    let hap = SbrlConfig::sbrl_hap(0.5, 1.0, 0.3, 0.2);
    let default_widths = [6, 8, 5, 4];
    let decor = |f: fn(&mut DecorrelationConfig)| {
        let mut cfg = hap;
        f(&mut cfg.decor);
        cfg
    };
    let cases: [(&str, SbrlConfig, [usize; 4]); 7] = [
        ("IR only", SbrlConfig { use_br: false, ..SbrlConfig::sbrl(0.0, 1.0) }, default_widths),
        ("SBRL-HAP", hap, default_widths),
        ("include_diagonal", decor(|d| d.include_diagonal = true), default_widths),
        ("standardize off", decor(|d| d.standardize = false), default_widths),
        ("no max_features", decor(|d| d.max_features = None), [40, 36, 5, 4]),
        ("taps wider than max_features", decor(|d| d.max_features = Some(3)), default_widths),
        ("one-column tap", hap, [1, 8, 1, 4]),
    ];
    for (name, cfg, widths) in &cases {
        Parallelism::Serial.set_global();
        let reference = weight_objective_bits(cfg, *widths, true);
        for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
            par.set_global();
            let got = weight_objective_bits(cfg, *widths, false);
            let first_diff = got.iter().zip(&reference).position(|(a, b)| a != b);
            assert!(got == reference, "{name}: {par:?}: bits differ from word {first_diff:?} on");
        }
    }
    Parallelism::from_env().set_global();
}

/// The bits of a process's thresholds and of one environment's `x, t, yf,
/// ycf, mu0, mu1`.
fn synthetic_bits(config: SyntheticConfig, rho: f64, n: usize) -> Vec<u64> {
    let process = SyntheticProcess::new(config, 5);
    let (threshold0, threshold1) = process.thresholds();
    let d = process.generate(rho, n, 9);
    let mut out = vec![threshold0.to_bits(), threshold1.to_bits()];
    for v in
        [&d.t, &d.yf, d.ycf.as_ref().unwrap(), d.mu0.as_ref().unwrap(), d.mu1.as_ref().unwrap()]
    {
        out.extend(v.iter().map(|x| x.to_bits()));
    }
    out.extend(bits(&d.x));
    out
}

/// Threshold and environment pools below, at and off a multiple of the
/// checkpoint spacing, a one-row environment, `pool_factor = 1`, and both
/// signs of the bias rate come out the same at every worker count and
/// inside a coarse task, where every shard runs inline.
#[test]
fn synthetic_generation_is_thread_count_invariant() {
    let _knobs = knobs();
    let config = |pool_factor: usize, threshold_pool: usize| SyntheticConfig {
        m_instrument: 3,
        m_confounder: 3,
        m_adjustment: 3,
        m_unstable: 2,
        pool_factor,
        threshold_pool,
    };
    let c = CHECKPOINT_ROWS;
    let cases = [
        (config(5, c / 2), -3.0, c / 10),      // pools smaller than a chunk
        (config(1, c), 2.5, c),                // pools of exactly one chunk
        (config(3, 2 * c + 7), -1.3, c + 333), // off a multiple of the chunk
        (config(7, 3 * c), 1.3, 1),            // a one-row environment
        (config(1, c + 1), -2.5, 5 * c / 2),   // every pool row selected
    ];
    Parallelism::Serial.set_global();
    let reference: Vec<Vec<u64>> =
        cases.iter().map(|&(cfg, rho, n)| synthetic_bits(cfg, rho, n)).collect();
    for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
        par.set_global();
        for (&(cfg, rho, n), expected) in cases.iter().zip(&reference) {
            let got = synthetic_bits(cfg, rho, n);
            assert!(&got == expected, "{par:?}, rho {rho}, n {n}: bits differ");
        }
        let coarse: Vec<OnceLock<Vec<u64>>> = cases.iter().map(|_| OnceLock::new()).collect();
        run_coarse_tasks(cases.len(), par.workers(), &|i| {
            let (cfg, rho, n) = cases[i];
            coarse[i].get_or_init(|| synthetic_bits(cfg, rho, n));
        });
        for (got, expected) in coarse.iter().zip(&reference) {
            assert!(got.get() == Some(expected), "{par:?} inside a coarse task: bits differ");
        }
    }
    Parallelism::from_env().set_global();
}
