//! The two training workloads: one quick-scale `CFR+SBRL-HAP` fit
//! (`fit_hap`) and the vanilla-TARNet environment sweep (`sweep_tarnet`).

use std::time::Instant;

use sbrl_core::{FittedModel, Framework, MethodSpec};
use sbrl_data::{CausalDataset, SyntheticConfig, SyntheticProcess, PAPER_BIAS_RATES};
use sbrl_experiments::presets::{paper_syn_16_16_16_2, quick_variant};
use sbrl_experiments::{
    fit_method, run_synthetic_sweep, ExperimentPreset, Scale, SyntheticExperiment,
};
use sbrl_models::{Backbone, BackboneKind};
use sbrl_tensor::rng::rng_from_seed;

use crate::reference;
use crate::report::Report;
use crate::stats;

/// Mechanism seed of the `fit_hap` data process (fixed).
const FIT_PROCESS_SEED: u64 = 1000;
/// The fit seed and the train/val draws are fixed, so every seed fits the
/// same model; the seed draws the eight test sets it is scored on. (Seeded
/// fits move PEHE's spread across environments by ±10% from seed to seed,
/// which would swamp the metric's bound.)
pub const FIT_SEED: u64 = 0;

/// The method under test in `fit_hap`.
pub fn hap_spec() -> MethodSpec {
    MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::SbrlHap }
}

/// The quick-scale preset both training workloads use.
pub fn quick_preset() -> ExperimentPreset {
    quick_variant(paper_syn_16_16_16_2())
}

/// `fit_hap`'s inputs for one seed.
pub struct FitInputs {
    /// Training fold (ρ = 2.5).
    pub train: CausalDataset,
    /// Validation fold (ρ = 2.5).
    pub val: CausalDataset,
    /// The eight paper test environments, in `PAPER_BIAS_RATES` order.
    pub tests: Vec<CausalDataset>,
}

/// Rows per `fit_hap` test environment: four times the quick scale's 600,
/// so the test draw moves PEHE by about 2% from seed to seed, not 4%.
const FIT_TEST_ROWS: usize = 2400;

/// Generates `fit_hap`'s inputs: Syn_16_16_16_2 at the quick scale.
pub fn fit_inputs(seed: u64) -> FitInputs {
    let (n_train, n_val, _) = Scale::Quick.synthetic_samples();
    let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), FIT_PROCESS_SEED);
    let base = 16 * (seed + 1);
    FitInputs {
        train: process.generate(sbrl_data::TRAIN_BIAS_RATE, n_train, 0),
        val: process.generate(sbrl_data::TRAIN_BIAS_RATE, n_val, 1),
        tests: PAPER_BIAS_RATES
            .iter()
            .enumerate()
            .map(|(k, &rho)| process.generate(rho, FIT_TEST_ROWS, base + 2 + k as u64))
            .collect(),
    }
}

/// Mean PEHE over the ρ < 0 environments and the spread (population sd)
/// of PEHE over all eight, from per-environment PEHEs in
/// `PAPER_BIAS_RATES` order.
pub fn pehe_summary(per_env: &[f64]) -> (f64, f64) {
    let ood: Vec<f64> = per_env
        .iter()
        .zip(PAPER_BIAS_RATES)
        .filter(|(_, rho)| *rho < 0.0)
        .map(|(p, _)| *p)
        .collect();
    (stats::mean(&ood).unwrap_or(f64::NAN), stats::std_dev(per_env).unwrap_or(f64::NAN))
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Predictions for every test environment, as bit patterns.
fn prediction_bits(model: &FittedModel<Box<dyn Backbone>>, tests: &[CausalDataset]) -> Vec<u64> {
    tests
        .iter()
        .flat_map(|d| {
            let est = model.predict(&d.x);
            let mut b = bits(&est.y0_hat);
            b.extend(bits(&est.y1_hat));
            b
        })
        .collect()
}

/// Runs `f` once and returns its result and wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Records the metrics both training workloads share for their one timed
/// op, and checks the PEHE pair against the seed's reference.
fn record_training(report: &mut Report, workload: &str, seed: u64, op_secs: f64, pehe: (f64, f64)) {
    report.metric("p50_ms", "ms", op_secs * 1e3, 1);
    report.metric("op_ms", "ms", op_secs * 1e3, 1);
    report.metric("pehe_ood", "outcome", pehe.0, 4);
    report.metric("pehe_sd", "outcome", pehe.1, 8);
    let got = (pehe.0.to_bits(), pehe.1.to_bits());
    println!("reference line: {}", reference::line(workload, seed, got));
    match reference::lookup(workload, seed) {
        Some(want) => report.check(
            want == got,
            format!(
                "{workload} seed {seed}: PEHE bits {got:016x?} differ from reference {want:016x?}"
            ),
        ),
        None => println!("note: no recorded PEHE reference for {workload} seed {seed}"),
    }
}

/// `fit_hap`, one op: generate the inputs (set-up), fit `CFR+SBRL-HAP`
/// through `fit_method`, evaluate on the eight environments, and check
/// that a persisted copy predicts the same bits.
pub fn fit_hap(seed: u64) -> Report {
    let mut report = Report::default();
    let (inputs, setup_s) = timed(|| fit_inputs(seed));
    report.metric("setup_s", "s", setup_s, 1);
    let preset = quick_preset();
    let cfg = Scale::Quick.train_config(preset.lr, preset.l2, FIT_SEED);
    let (fitted, fit_s) =
        timed(|| fit_method(hap_spec(), &preset, &inputs.train, &inputs.val, &cfg));
    report.ops(1, 0);
    let fitted = match fitted {
        Ok(f) => f,
        Err(e) => {
            report.check(false, format!("fit_hap: fit failed: {e}"));
            return report;
        }
    };
    let per_env: Vec<f64> =
        inputs.tests.iter().map(|d| fitted.evaluate(d).map_or(f64::NAN, |e| e.pehe)).collect();
    match FittedModel::from_sbrl_bytes(&fitted.to_sbrl_bytes()) {
        Ok(loaded) => report.check(
            prediction_bits(&loaded, &inputs.tests) == prediction_bits(&fitted, &inputs.tests),
            "fit_hap: the reloaded model predicts different bits",
        ),
        Err(e) => report.check(false, format!("fit_hap: reload failed: {e}")),
    }
    let iterations = fitted.report().iterations_run;
    report.metric("fit_s", "s", fit_s, 1);
    report.metric("rows_per_s", "rows/s", (iterations * cfg.batch_size) as f64 / fit_s, 1);
    report.metric("iterations_run", "count", iterations as f64, 1);
    record_training(&mut report, "fit_hap", seed, fit_s, pehe_summary(&per_env));
    report
}

/// `sweep_tarnet`'s experiment: the paper sweep at the quick scale with
/// the eight test environments in a seed-chosen order (the runner draws
/// each environment's test set from its position, so the order picks the
/// test draws).
pub fn sweep_experiment(seed: u64) -> SyntheticExperiment {
    let mut exp = SyntheticExperiment::paper_sweep(
        SyntheticConfig::syn_16_16_16_2(),
        quick_preset(),
        Scale::Quick,
    );
    let mut rng = rng_from_seed(seed);
    for i in (1..exp.test_rhos.len()).rev() {
        let j = rand::RngExt::random_range(&mut rng, 0..i + 1);
        exp.test_rhos.swap(i, j);
    }
    exp
}

/// The vanilla TARNet method of `sweep_tarnet`.
pub fn tarnet_spec() -> MethodSpec {
    MethodSpec { backbone: BackboneKind::Tarnet, framework: Framework::Vanilla }
}

/// A small TARNet fit on fresh data: the sweep's warm-up (worker pool,
/// allocator, code pages), timed as its set-up.
fn sweep_warmup(seed: u64) {
    let (n_train, n_val, _) = Scale::Bench.synthetic_samples();
    let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), FIT_PROCESS_SEED);
    let train = process.generate(sbrl_data::TRAIN_BIAS_RATE, n_train, 16 * seed + 2);
    let val = process.generate(sbrl_data::TRAIN_BIAS_RATE, n_val, 16 * seed + 3);
    let preset = quick_preset();
    let cfg = Scale::Bench.train_config(preset.lr, preset.l2, seed);
    std::hint::black_box(fit_method(tarnet_spec(), &preset, &train, &val, &cfg).is_ok());
}

/// `sweep_tarnet`, one op: a warm-up fit (set-up), then one
/// `run_synthetic_sweep` with TARNet as the only method.
pub fn sweep_tarnet(seed: u64) -> Report {
    let mut report = Report::default();
    let ((), setup_s) = timed(|| sweep_warmup(seed));
    report.metric("setup_s", "s", setup_s, 1);
    let exp = sweep_experiment(seed);
    let (results, sweep_s) = timed(|| run_synthetic_sweep(&exp, &[tarnet_spec()], |_| {}));
    let r = &results[0];
    let failed = r.failures.len();
    report.ops(1, 0);
    report.check(failed == 0, format!("sweep_tarnet: {failed} replications failed"));
    // Per-environment mean PEHE over replications, in paper order.
    let mut per_env = vec![f64::NAN; PAPER_BIAS_RATES.len()];
    for (k, rho) in exp.test_rhos.iter().enumerate() {
        let pos = PAPER_BIAS_RATES.iter().position(|r| r == rho).expect("a paper rate");
        per_env[pos] = stats::mean(&r.metric(k, |e| e.pehe)).unwrap_or(f64::NAN);
    }
    // Early stopping cannot cut a quick fit (patience 16 of 17
    // evaluations), so every replication steps the full budget.
    let cfg = Scale::Quick.train_config(0.0, 0.0, 0);
    let rows = (Scale::Quick.replications() * cfg.iterations * cfg.batch_size) as f64;
    report.metric("sweep_s", "s", sweep_s, 1);
    report.metric("rows_per_s", "rows/s", rows / sweep_s, 1);
    record_training(&mut report, "sweep_tarnet", seed, sweep_s, pehe_summary(&per_env));
    report
}
