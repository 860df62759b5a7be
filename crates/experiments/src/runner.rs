//! Shared experiment execution: fit one method on one split, and run the
//! full method grid over synthetic environment sweeps with replications.

use std::sync::{Mutex, OnceLock, PoisonError};

use sbrl_core::{Estimator, FittedModel, SbrlError, TrainConfig};
use sbrl_data::{CausalDataset, SyntheticConfig, SyntheticProcess};
use sbrl_metrics::Evaluation;
use sbrl_models::Backbone;
use sbrl_tensor::workers::run_coarse_tasks;
use sbrl_tensor::Parallelism;

use crate::methods::{ExperimentPreset, MethodSpec};
use crate::scale::Scale;

/// Default bounded retry budget of the sweep runners: a transiently failed
/// fit (divergence, timeout, worker panic) is re-attempted up to this many
/// times with a reseeded configuration before being skipped.
pub const DEFAULT_FIT_RETRIES: usize = 2;

/// Salt mixed into the base seed for retry attempts, so each attempt walks a
/// fresh but deterministic initialisation/shuffle trajectory.
const RETRY_SEED_SALT: u64 = 0x9e37_79b9_97f4_a7c5;

/// The seed of retry `attempt`. Attempt 0 is the base seed itself, so a fit
/// that succeeds first try is bit-identical to the non-retrying path.
pub fn retry_seed(base_seed: u64, attempt: usize) -> u64 {
    if attempt == 0 {
        base_seed
    } else {
        base_seed ^ RETRY_SEED_SALT.wrapping_mul(attempt as u64)
    }
}

/// Whether an error is worth retrying with a fresh seed. Config and data
/// errors are deterministic — the retry would fail identically.
fn is_transient(e: &SbrlError) -> bool {
    matches!(
        e,
        SbrlError::NonFiniteLoss { .. }
            | SbrlError::TimedOut { .. }
            | SbrlError::WorkerPanic { .. }
    )
}

/// Runs `fit` with bounded retry-with-reseed: attempt 0 gets `base_seed`
/// verbatim, attempt `k > 0` gets [`retry_seed`]`(base_seed, k)`. Returns
/// the fitted value plus the number of retries consumed (0 = first try).
/// Non-transient errors and exhausted budgets surface the last error.
pub fn retrying<T>(
    base_seed: u64,
    max_retries: usize,
    mut fit: impl FnMut(u64) -> Result<T, SbrlError>,
) -> Result<(T, usize), SbrlError> {
    let mut attempt = 0;
    loop {
        match fit(retry_seed(base_seed, attempt)) {
            Ok(v) => return Ok((v, attempt)),
            Err(e) if attempt < max_retries && is_transient(&e) => attempt += 1,
            Err(e) => return Err(e),
        }
    }
}

/// [`fit_method`] wrapped in [`retrying`]: the sweep runners' upgrade from
/// skip-on-first-failure to bounded retry-with-reseed.
pub fn fit_method_retrying(
    spec: MethodSpec,
    preset: &ExperimentPreset,
    train_data: &CausalDataset,
    val_data: &CausalDataset,
    train_cfg: &TrainConfig,
    max_retries: usize,
) -> Result<(FittedModel<Box<dyn Backbone>>, usize), SbrlError> {
    retrying(train_cfg.seed, max_retries, |seed| {
        let cfg = TrainConfig { seed, ..*train_cfg };
        fit_method(spec, preset, train_data, val_data, &cfg)
    })
}

/// Fits one method specification on a train/val split through the fluent
/// estimator pipeline. Training failures (divergence, invalid data) surface
/// as typed errors so sweep runners can skip and report them.
pub fn fit_method(
    spec: MethodSpec,
    preset: &ExperimentPreset,
    train_data: &CausalDataset,
    val_data: &CausalDataset,
    train_cfg: &TrainConfig,
) -> Result<FittedModel<Box<dyn Backbone>>, SbrlError> {
    Estimator::builder()
        .backbone(preset.backbone_config(spec.backbone, train_data.dim()))
        .sbrl(preset.sbrl_config(spec))
        .train(*train_cfg)
        .fit(train_data, val_data)
}

/// Configuration of one synthetic environment-sweep experiment (Table I /
/// Fig. 3 / Fig. 4 style).
#[derive(Clone, Debug)]
pub struct SyntheticExperiment {
    /// Dataset dimensions.
    pub data_cfg: SyntheticConfig,
    /// Hyper-parameter preset.
    pub preset: ExperimentPreset,
    /// Run scale (samples / iterations / replications).
    pub scale: Scale,
    /// Training-environment bias rate (paper: 2.5).
    pub train_rho: f64,
    /// Test-environment bias rates (paper: ±1.3, ±1.5, ±2.5, ±3).
    pub test_rhos: Vec<f64>,
}

impl SyntheticExperiment {
    /// The paper's standard sweep on a dataset config.
    pub fn paper_sweep(data_cfg: SyntheticConfig, preset: ExperimentPreset, scale: Scale) -> Self {
        Self {
            data_cfg,
            preset,
            scale,
            train_rho: sbrl_data::TRAIN_BIAS_RATE,
            test_rhos: sbrl_data::PAPER_BIAS_RATES.to_vec(),
        }
    }
}

/// Evaluations of one method across environments, accumulated over
/// replications: `per_env[env_index][replication]`.
#[derive(Clone, Debug, Default)]
pub struct MethodEnvResults {
    /// Method label.
    pub method: String,
    /// One vector of per-replication evaluations per test environment.
    pub per_env: Vec<Vec<Evaluation>>,
    /// Human-readable descriptions of failed replications (the sweep skips
    /// them instead of aborting).
    pub failures: Vec<String>,
    /// Human-readable descriptions of fits that only succeeded after one or
    /// more reseeded retries.
    pub retries: Vec<String>,
}

impl MethodEnvResults {
    /// Extracts one metric across replications for an environment.
    pub fn metric(&self, env: usize, f: impl Fn(&Evaluation) -> f64) -> Vec<f64> {
        self.per_env[env].iter().map(f).collect()
    }
}

/// Runs the method grid over the synthetic sweep.
///
/// For every replication a fresh causal mechanism is drawn (process seed =
/// replication index), one training/validation pair is generated at
/// `train_rho`, every method is fitted once, and each fitted model is
/// evaluated on every test environment. A failed fit is reported through
/// `progress` and recorded in [`MethodEnvResults::failures`] instead of
/// aborting the whole sweep.
///
/// Replications run concurrently, one per worker of the global
/// [`Parallelism`] knob (`SBRL_THREADS=1` runs them one after another on
/// the calling thread). Results and `progress` lines are merged in
/// replication order, so neither depends on the worker count; a
/// replication's lines are reported once it and every earlier replication
/// have finished. The kernels of concurrent replications run on their own
/// replication's thread, so replications never wait on each other. Builds
/// with fault injection compiled in always run serially, so an armed fault
/// hits the same fit on every run.
pub fn run_synthetic_sweep(
    exp: &SyntheticExperiment,
    methods: &[MethodSpec],
    progress: impl FnMut(&str) + Send,
) -> Vec<MethodEnvResults> {
    let workers =
        if sbrl_core::faults::compiled_in() { 1 } else { Parallelism::global().workers() };
    run_synthetic_sweep_on(exp, methods, workers, progress)
}

/// One method's outcome in one replication.
enum RepOutcome {
    /// The fit succeeded: its evaluation on every test environment, the
    /// retry note when it needed reseeding, and its training time.
    Fitted { evals: Vec<Evaluation>, retry: Option<String>, train_seconds: f64 },
    /// The fit failed; the failure note.
    Failed(String),
}

/// [`run_synthetic_sweep`] on `workers` workers: each replication is one
/// worker-pool task writing its own slot.
fn run_synthetic_sweep_on(
    exp: &SyntheticExperiment,
    methods: &[MethodSpec],
    workers: usize,
    progress: impl FnMut(&str) + Send,
) -> Vec<MethodEnvResults> {
    let reps = exp.scale.replications();
    let slots: Vec<OnceLock<Vec<RepOutcome>>> = (0..reps).map(|_| OnceLock::new()).collect();
    // The next replication to report, and the sink it is reported to.
    let reporter = Mutex::new((0, progress));
    run_coarse_tasks(reps, workers.min(reps), &|rep| {
        let _ = slots[rep].set(run_replication(exp, methods, rep));
        let mut guard = reporter.lock().unwrap_or_else(PoisonError::into_inner);
        let (next, progress) = &mut *guard;
        while let Some(outcomes) = slots.get(*next).and_then(OnceLock::get) {
            for (mi, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    RepOutcome::Failed(msg) => progress(msg),
                    RepOutcome::Fitted { retry, train_seconds, .. } => {
                        if let Some(msg) = retry {
                            progress(msg);
                        }
                        progress(&format!(
                            "rep {}/{} method {}/{} ({}) done in {:.1}s",
                            *next + 1,
                            reps,
                            mi + 1,
                            methods.len(),
                            methods[mi].name(),
                            train_seconds
                        ));
                    }
                }
            }
            *next += 1;
        }
    });

    let mut results: Vec<MethodEnvResults> = methods
        .iter()
        .map(|m| MethodEnvResults {
            method: m.name(),
            per_env: vec![Vec::with_capacity(reps); exp.test_rhos.len()],
            failures: Vec::new(),
            retries: Vec::new(),
        })
        .collect();
    for slot in slots {
        // lint: allow(panic) — infallible: `run_coarse_tasks` returned, so every
        // replication task ran to completion and set its slot.
        let outcomes = slot.into_inner().expect("a completed task set its slot");
        for (result, outcome) in results.iter_mut().zip(outcomes) {
            match outcome {
                RepOutcome::Fitted { evals, retry, .. } => {
                    for (env, eval) in result.per_env.iter_mut().zip(evals) {
                        env.push(eval);
                    }
                    result.retries.extend(retry);
                }
                RepOutcome::Failed(msg) => result.failures.push(msg),
            }
        }
    }
    results
}

/// One replication: draws its mechanism and train/val pair, fits every
/// method, then generates the test environments one at a time and scores
/// every fitted model on each, so at most one environment is alive.
fn run_replication(
    exp: &SyntheticExperiment,
    methods: &[MethodSpec],
    rep: usize,
) -> Vec<RepOutcome> {
    let (n_train, n_val, n_test) = exp.scale.synthetic_samples();
    let reps = exp.scale.replications();
    let process = SyntheticProcess::new(exp.data_cfg, 1000 + rep as u64);
    let train_data = process.generate(exp.train_rho, n_train, 10 * rep as u64);
    let val_data = process.generate(exp.train_rho, n_val, 10 * rep as u64 + 1);

    let fits: Vec<Result<_, String>> = methods
        .iter()
        .enumerate()
        .map(|(mi, spec)| {
            let train_cfg =
                exp.scale.train_config(exp.preset.lr, exp.preset.l2, (rep * 97 + mi) as u64);
            match fit_method_retrying(
                *spec,
                &exp.preset,
                &train_data,
                &val_data,
                &train_cfg,
                DEFAULT_FIT_RETRIES,
            ) {
                Ok((fitted, 0)) => Ok((fitted, None)),
                Ok((fitted, attempts)) => {
                    let msg = format!(
                        "rep {}/{} method {} recovered after {attempts} reseeded retries",
                        rep + 1,
                        reps,
                        spec.name()
                    );
                    Ok((fitted, Some(msg)))
                }
                Err(e) => {
                    Err(format!("rep {}/{} method {} FAILED: {e}", rep + 1, reps, spec.name()))
                }
            }
        })
        .collect();
    // The folds are dead once every method is fitted; freeing them before
    // the test environments are drawn keeps concurrent replications small.
    drop((train_data, val_data));

    let mut evals: Vec<Vec<Evaluation>> =
        methods.iter().map(|_| Vec::with_capacity(exp.test_rhos.len())).collect();
    for (k, &rho) in exp.test_rhos.iter().enumerate() {
        let test = process.generate(rho, n_test, 10 * rep as u64 + 2 + k as u64);
        for (fit, evals) in fits.iter().zip(&mut evals) {
            if let Ok((fitted, _)) = fit {
                // lint: allow(panic) — synthetic environments always carry the
                // oracle; a miss is a generator bug, not a recoverable state.
                evals.push(fitted.evaluate(&test).expect("synthetic data carries the oracle"));
            }
        }
    }
    fits.into_iter()
        .zip(evals)
        .map(|(fit, evals)| match fit {
            Ok((fitted, retry)) => {
                RepOutcome::Fitted { evals, retry, train_seconds: fitted.report().train_seconds }
            }
            Err(msg) => RepOutcome::Failed(msg),
        })
        .collect()
}

/// Records one skipped fit: logs it to stderr under the runner's tag and
/// appends it to the runner's failure list (later rendered by
/// [`render_failures`]). The single code path for skip-and-report handling
/// in the eprintln-driven runners.
pub fn record_failure(tag: &str, message: String, failures: &mut Vec<String>) {
    eprintln!("[{tag}] {message}");
    failures.push(message);
}

/// Renders failed-replication messages as a report block (empty string when
/// every fit succeeded). The single formatting point for every runner's
/// skipped-replication output.
pub fn render_failures<'a>(failures: impl IntoIterator<Item = &'a String>) -> String {
    let mut out = String::new();
    for failure in failures {
        out.push_str(&format!("SKIPPED {failure}\n"));
    }
    if !out.is_empty() {
        out.insert_str(0, "\nFailed replications (skipped):\n");
    }
    out
}

/// Records one retried-then-recovered fit: logs it to stderr under the
/// runner's tag and appends it to the runner's retry list (later rendered by
/// [`render_retries`]).
pub fn record_retry(tag: &str, message: String, retries: &mut Vec<String>) {
    eprintln!("[{tag}] {message}");
    retries.push(message);
}

/// Renders retried-fit messages as a report block (empty string when every
/// fit succeeded first try). The single formatting point for every runner's
/// retry provenance output.
pub fn render_retries<'a>(retries: impl IntoIterator<Item = &'a String>) -> String {
    let mut out = String::new();
    for retry in retries {
        out.push_str(&format!("RETRIED {retry}\n"));
    }
    if !out.is_empty() {
        out.insert_str(0, "\nRetried fits (recovered after reseeding):\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BackboneKind;
    use crate::presets::{bench_variant, paper_syn_8_8_8_2};
    use sbrl_core::Framework;

    fn tiny_exp() -> SyntheticExperiment {
        SyntheticExperiment {
            data_cfg: SyntheticConfig {
                m_instrument: 3,
                m_confounder: 3,
                m_adjustment: 3,
                m_unstable: 2,
                pool_factor: 4,
                threshold_pool: 1000,
            },
            preset: bench_variant(paper_syn_8_8_8_2()),
            scale: Scale::Bench,
            train_rho: 2.5,
            test_rhos: vec![2.5, -2.5],
        }
    }

    #[test]
    fn sweep_produces_one_cell_per_method_env_rep() {
        let exp = tiny_exp();
        let methods = vec![
            MethodSpec { backbone: BackboneKind::Tarnet, framework: Framework::Vanilla },
            MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::SbrlHap },
        ];
        let results = run_synthetic_sweep(&exp, &methods, |_| {});
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_env.len(), 2);
            for env in &r.per_env {
                assert_eq!(env.len(), 1); // bench scale = 1 replication
                assert!(env[0].pehe.is_finite());
                assert!(env[0].ate_bias.is_finite());
            }
        }
        let pehes = results[0].metric(0, |e| e.pehe);
        assert_eq!(pehes.len(), 1);
    }

    #[test]
    fn sweep_reports_failures_instead_of_aborting() {
        let mut exp = tiny_exp();
        exp.preset.lr = f64::NAN; // invalid config: every fit fails fast
        let methods =
            vec![MethodSpec { backbone: BackboneKind::Tarnet, framework: Framework::Vanilla }];
        let mut messages = Vec::new();
        let results = run_synthetic_sweep(&exp, &methods, |m| messages.push(m.to_string()));
        assert_eq!(results[0].failures.len(), 1);
        assert!(results[0].per_env.iter().all(Vec::is_empty));
        assert!(messages.iter().any(|m| m.contains("FAILED")));
    }

    #[test]
    fn sweep_output_does_not_depend_on_the_worker_count() {
        let mut exp = tiny_exp();
        // Three replications, on a one-layer network that keeps nine
        // quick-scale fits cheap in debug.
        exp.scale = Scale::Quick;
        (exp.preset.rep_layers, exp.preset.head_layers) = (1, 1);
        (exp.preset.rep_width, exp.preset.head_width) = (8, 4);
        let mut broken = exp.clone();
        broken.preset.lr = f64::NAN; // every fit fails: exercises `failures`
        let methods =
            vec![MethodSpec { backbone: BackboneKind::Tarnet, framework: Framework::Vanilla }];
        let run = |exp: &SyntheticExperiment, workers| {
            let mut lines = Vec::new();
            let results = run_synthetic_sweep_on(exp, &methods, workers, |m: &str| {
                // Fit wall-clock varies run to run; the line order must not.
                lines.push(m.split(" done in ").next().unwrap_or(m).to_string());
            });
            let r = &results[0];
            let bits: Vec<Vec<[u64; 4]>> = r
                .per_env
                .iter()
                .map(|env| {
                    env.iter()
                        .map(|e| {
                            [e.pehe, e.ate_bias, e.factual_score, e.counterfactual_score]
                                .map(f64::to_bits)
                        })
                        .collect()
                })
                .collect();
            (bits, r.failures.clone(), r.retries.clone(), lines)
        };
        for (exp, failed) in [(&exp, 0), (&broken, 3)] {
            let serial = run(exp, 1);
            assert!(serial.0.iter().all(|env| env.len() == 3 - failed));
            assert_eq!(serial.1.len(), failed);
            assert_eq!(serial.3.len(), 3, "one progress line per replication");
            for workers in [2, 3] {
                assert_eq!(run(exp, workers), serial, "workers = {workers}");
            }
        }
    }

    #[test]
    fn retry_seed_leaves_the_first_attempt_untouched() {
        assert_eq!(retry_seed(42, 0), 42);
        assert_ne!(retry_seed(42, 1), 42);
        assert_ne!(retry_seed(42, 1), retry_seed(42, 2));
        // Deterministic: same attempt, same seed.
        assert_eq!(retry_seed(42, 1), retry_seed(42, 1));
    }

    #[test]
    fn retrying_recovers_from_transient_errors_with_fresh_seeds() {
        let mut seeds = Vec::new();
        let (value, attempts) = retrying(7, 2, |seed| {
            seeds.push(seed);
            if seeds.len() < 3 {
                Err(SbrlError::NonFiniteLoss {
                    iteration: 5,
                    term: sbrl_core::NonFiniteTerm::FactualLoss,
                })
            } else {
                Ok(seed)
            }
        })
        .unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(seeds[0], 7, "attempt 0 must use the base seed verbatim");
        assert_eq!(seeds.len(), 3);
        assert!(seeds.iter().skip(1).all(|&s| s != 7), "retries must reseed");
        assert_eq!(value, seeds[2]);
    }

    #[test]
    fn retrying_does_not_retry_deterministic_errors() {
        let mut calls = 0;
        let err = retrying(7, 5, |_| -> Result<(), SbrlError> {
            calls += 1;
            Err(SbrlError::InvalidConfig { what: "train.lr", message: "bad".into() })
        })
        .unwrap_err();
        assert_eq!(calls, 1, "config errors fail identically; retrying is pointless");
        assert!(matches!(err, SbrlError::InvalidConfig { .. }));
    }

    #[test]
    fn retrying_surfaces_the_last_error_when_the_budget_runs_out() {
        let mut calls = 0;
        let err = retrying(7, 2, |_| -> Result<(), SbrlError> {
            calls += 1;
            Err(SbrlError::NonFiniteLoss {
                iteration: calls,
                term: sbrl_core::NonFiniteTerm::Gradient,
            })
        })
        .unwrap_err();
        assert_eq!(calls, 3, "1 try + 2 retries");
        assert!(matches!(err, SbrlError::NonFiniteLoss { iteration: 3, .. }));
    }

    #[test]
    fn render_retries_formats_a_block_only_when_nonempty() {
        assert_eq!(render_retries(&[]), "");
        let notes = vec!["rep 1 method CFR recovered after 1 reseeded retries".to_string()];
        let block = render_retries(&notes);
        assert!(block.starts_with("\nRetried fits"));
        assert!(block.contains("RETRIED rep 1 method CFR"));
    }

    #[test]
    fn fit_method_surfaces_typed_errors() {
        let exp = tiny_exp();
        let process = SyntheticProcess::new(exp.data_cfg, 1);
        let train_data = process.generate(2.5, 120, 0);
        let val_data = process.generate(2.5, 60, 1);
        let spec = MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::Vanilla };
        let bad = TrainConfig { iterations: 0, ..TrainConfig::smoke() };
        let err = fit_method(spec, &exp.preset, &train_data, &val_data, &bad).unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "train.iterations", .. }));
    }
}
