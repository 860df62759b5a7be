//! Shared experiment execution: fit one method on one split, and run the
//! full method grid over synthetic environment sweeps with replications.

use std::sync::{Mutex, OnceLock, PoisonError};

use sbrl_core::{Estimator, FittedModel, SbrlError, TrainConfig};
use sbrl_data::{CausalDataset, SyntheticConfig, SyntheticProcess};
use sbrl_metrics::Evaluation;
use sbrl_models::Backbone;
use sbrl_tensor::workers::run_tasks;
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

/// A fit's outcome with its note: the model and, when it needed reseeding,
/// the retry note; or the failure note.
pub type Noted<T> = Result<(T, Option<String>), String>;

/// Fits through [`retrying`] with [`DEFAULT_FIT_RETRIES`], starting from
/// `train_cfg.seed`: `fit` gets `train_cfg` with each attempt's seed. The
/// notes name the fit by `label`. The single fit path of every runner.
pub fn fit_noted<T>(
    label: &str,
    train_cfg: &TrainConfig,
    mut fit: impl FnMut(&TrainConfig) -> Result<T, SbrlError>,
) -> Noted<T> {
    match retrying(train_cfg.seed, DEFAULT_FIT_RETRIES, |seed| {
        fit(&TrainConfig { seed, ..*train_cfg })
    }) {
        Ok((fitted, 0)) => Ok((fitted, None)),
        Ok((fitted, k)) => {
            Ok((fitted, Some(format!("{label} recovered after {k} reseeded retries"))))
        }
        Err(e) => Err(format!("{label} FAILED: {e}")),
    }
}

/// The retry and failure notes of one report, rendered after its tables.
#[derive(Debug, Default)]
pub struct FitNotes {
    /// Fits that only succeeded after one or more reseeded retries.
    pub retries: Vec<String>,
    /// Fits (or data) that failed and were skipped.
    pub failures: Vec<String>,
}

impl FitNotes {
    /// The notes of a sweep, method by method.
    pub fn of_sweep(results: &[MethodEnvResults]) -> Self {
        Self {
            retries: results.iter().flat_map(|r| r.retries.iter().cloned()).collect(),
            failures: results.iter().flat_map(|r| r.failures.iter().cloned()).collect(),
        }
    }

    /// Logs a failure note to stderr under the runner's `tag` and keeps it.
    pub fn fail(&mut self, tag: &str, note: String) {
        eprintln!("[{tag}] {note}");
        self.failures.push(note);
    }

    /// Keeps `fit`'s note, logged to stderr under the runner's `tag`, and
    /// returns the model unless the fit failed.
    pub fn keep<T>(&mut self, tag: &str, fit: Noted<T>) -> Option<T> {
        match fit {
            Ok((fitted, retry)) => {
                if let Some(note) = retry {
                    eprintln!("[{tag}] {note}");
                    self.retries.push(note);
                }
                Some(fitted)
            }
            Err(note) => {
                self.fail(tag, note);
                None
            }
        }
    }

    /// Moves `other`'s notes after these.
    pub fn append(&mut self, other: &mut FitNotes) {
        self.retries.append(&mut other.retries);
        self.failures.append(&mut other.failures);
    }

    /// The RETRIED block, then the SKIPPED block; each only when it has
    /// notes, so a clean run renders nothing.
    pub fn render(&self) -> String {
        let block = |title: &str, tag: &str, notes: &[String]| {
            let mut out = String::new();
            if !notes.is_empty() {
                out.push_str(title);
                for note in notes {
                    out.push_str(&format!("{tag} {note}\n"));
                }
            }
            out
        };
        block("\nRetried fits (recovered after reseeding):\n", "RETRIED", &self.retries)
            + &block("\nFailed replications (skipped):\n", "SKIPPED", &self.failures)
    }
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

    /// The mean of one metric over replications for an environment (0 when
    /// every replication failed).
    pub fn mean(&self, env: usize, f: impl Fn(&Evaluation) -> f64) -> f64 {
        let vals = self.metric(env, f);
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
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
/// Each replication is one fit task (its data and every method's fit) and
/// one scoring task per test environment (that environment's test set and
/// every fitted method's evaluation). The tasks share the workers of the
/// global [`Parallelism`] knob, every fit ahead of every scoring task, so
/// the last replication's fit overlaps the scoring of the earlier ones;
/// `SBRL_THREADS=1` runs them one after another on the calling thread. A
/// single-replication sweep fits on the calling thread, where the fits'
/// kernels keep the pool, and runs only its scoring as tasks. Results and
/// `progress` lines are merged in replication order, so neither depends on
/// the worker count; a replication's lines are reported once its fit and
/// every earlier replication's fit have finished. Builds with fault
/// injection compiled in always run serially, so an armed fault hits the
/// same fit on every run.
pub fn run_synthetic_sweep(
    exp: &SyntheticExperiment,
    methods: &[MethodSpec],
    progress: impl FnMut(&str) + Send,
) -> Vec<MethodEnvResults> {
    let workers =
        if sbrl_core::faults::compiled_in() { 1 } else { Parallelism::global().workers() };
    run_synthetic_sweep_on(exp, methods, workers, progress)
}

/// A replication's fits: its mechanism, which draws the test environments,
/// and every method's noted fit.
type FittedReplication = (SyntheticProcess, Vec<Noted<FittedModel<Box<dyn Backbone>>>>);

/// [`run_synthetic_sweep`] on `workers` workers.
fn run_synthetic_sweep_on(
    exp: &SyntheticExperiment,
    methods: &[MethodSpec],
    workers: usize,
    mut progress: impl FnMut(&str) + Send,
) -> Vec<MethodEnvResults> {
    let reps = exp.scale.replications();
    let sweep = fit_then_score(
        reps,
        exp.test_rhos.len(),
        workers,
        |rep| fit_replication(exp, methods, rep),
        |rep, (_, fits): &FittedReplication| {
            for (mi, fit) in fits.iter().enumerate() {
                match fit {
                    Err(msg) => progress(msg),
                    Ok((fitted, retry)) => {
                        if let Some(msg) = retry {
                            progress(msg);
                        }
                        progress(&format!(
                            "rep {}/{} method {}/{} ({}) done in {:.1}s",
                            rep + 1,
                            reps,
                            mi + 1,
                            methods.len(),
                            methods[mi].name(),
                            fitted.report().train_seconds
                        ));
                    }
                }
            }
        },
        |rep, k, fitted: &FittedReplication| score_environment(exp, fitted, rep, k),
    );

    let mut results: Vec<MethodEnvResults> = methods
        .iter()
        .map(|m| MethodEnvResults {
            method: m.name(),
            per_env: vec![Vec::with_capacity(reps); exp.test_rhos.len()],
            failures: Vec::new(),
            retries: Vec::new(),
        })
        .collect();
    for ((_, fits), scores) in sweep {
        let mut scores: Vec<_> = scores.into_iter().map(Vec::into_iter).collect();
        for (result, fit) in results.iter_mut().zip(fits) {
            for (env, evals) in result.per_env.iter_mut().zip(&mut scores) {
                env.extend(evals.next().flatten());
            }
            match fit {
                Ok((_, retry)) => result.retries.extend(retry),
                Err(msg) => result.failures.push(msg),
            }
        }
    }
    results
}

/// The schedule of a sweep of `reps` replications with `envs` test
/// environments each, on `workers` workers: `fit(rep)` once per
/// replication, then `score(rep, k, &fitted)` for every environment `k`,
/// returned per replication as `(fitted, scores in k order)`.
/// `report(rep, &fitted)` runs once per replication, in replication order,
/// as soon as that fit and every earlier one have finished.
///
/// Every fit and scoring task is one pool task of a single [`run_tasks`]
/// call, the fits first. A scoring task waits for its replication's fit,
/// which is then already running or done, because every fit index is
/// claimed before any scoring index. A fit that unwinds still publishes its
/// slot, empty, so its scoring tasks skip instead of waiting forever, and
/// `run_tasks` re-raises the panic. A single replication fits on the
/// calling thread before the scoring tasks start, so the parallel kernels
/// inside its fit keep the pool.
fn fit_then_score<F: Send + Sync, S: Send + Sync>(
    reps: usize,
    envs: usize,
    workers: usize,
    fit: impl Fn(usize) -> F + Sync,
    report: impl FnMut(usize, &F) + Send,
    score: impl Fn(usize, usize, &F) -> S + Sync,
) -> Vec<(F, Vec<S>)> {
    /// Publishes an empty fit when dropped before the fit was published.
    struct Publish<'a, F>(&'a OnceLock<Option<F>>);
    impl<F> Drop for Publish<'_, F> {
        fn drop(&mut self) {
            let _ = self.0.set(None);
        }
    }

    let fits: Vec<OnceLock<Option<F>>> = (0..reps).map(|_| OnceLock::new()).collect();
    let scores: Vec<OnceLock<S>> = (0..reps * envs).map(|_| OnceLock::new()).collect();
    // The next replication to report, and the sink it is reported to.
    let reporter = Mutex::new((0, report));
    let fit_task = |rep: usize| {
        let slot = Publish(&fits[rep]);
        let _ = slot.0.set(Some(fit(rep)));
        let mut guard = reporter.lock().unwrap_or_else(PoisonError::into_inner);
        let (next, report) = &mut *guard;
        while let Some(fitted) = fits.get(*next).and_then(OnceLock::get) {
            if let Some(fitted) = fitted {
                report(*next, fitted);
            }
            *next += 1;
        }
    };
    let score_task = |i: usize| {
        let rep = i / envs;
        if let Some(fitted) = fits[rep].wait() {
            let _ = scores[i].set(score(rep, i % envs, fitted));
        }
    };

    let fit_tasks = if reps == 1 {
        fit_task(0);
        0
    } else {
        reps
    };
    let total = fit_tasks + reps * envs;
    run_tasks(total, workers.min(total), &|i| {
        if i < fit_tasks {
            fit_task(i);
        } else {
            score_task(i - fit_tasks);
        }
    });

    let mut scores = scores.into_iter().map(OnceLock::into_inner);
    fits.into_iter()
        .map(|slot| {
            // lint: allow(panic) — infallible: `run_tasks` returned, so
            // every fit and scoring task ran to completion and set its slot.
            let fitted = slot.into_inner().flatten().expect("a completed fit set its slot");
            let scores = scores.by_ref().take(envs).collect::<Option<Vec<S>>>();
            // lint: allow(panic) — infallible, as above.
            (fitted, scores.expect("a completed scoring task set its slot"))
        })
        .collect()
}

/// The fit seed of `spec` in replication `rep`: common random numbers. A
/// backbone and its +SBRL and +SBRL-HAP variants share one seed, so they
/// start from the same weights and the same first batch, and a difference
/// between them carries no init noise of its own. The backbone's index is
/// its position in [`crate::BackboneKind::ALL`], which lists the kinds in
/// declaration order.
fn method_seed(rep: usize, spec: MethodSpec) -> u64 {
    (rep * 97 + spec.backbone as usize) as u64
}

/// Replication `rep`'s fit task: draws its mechanism and train/val pair
/// and fits every method. The folds die on return, before any of the
/// replication's test environments is drawn.
fn fit_replication(
    exp: &SyntheticExperiment,
    methods: &[MethodSpec],
    rep: usize,
) -> FittedReplication {
    let (n_train, n_val, _) = exp.scale.synthetic_samples();
    let reps = exp.scale.replications();
    let process = SyntheticProcess::new(exp.data_cfg, 1000 + rep as u64);
    let train_data = process.generate(exp.train_rho, n_train, 10 * rep as u64);
    let val_data = process.generate(exp.train_rho, n_val, 10 * rep as u64 + 1);
    let fits = methods
        .iter()
        .map(|spec| {
            let label = format!("rep {}/{} method {}", rep + 1, reps, spec.name());
            let train_cfg =
                exp.scale.train_config(exp.preset.lr, exp.preset.l2, method_seed(rep, *spec));
            fit_noted(&label, &train_cfg, |cfg| {
                fit_method(*spec, &exp.preset, &train_data, &val_data, cfg)
            })
        })
        .collect();
    (process, fits)
}

/// Replication `rep`'s scoring task for test environment `k`: draws the
/// environment's test set, so at most one is alive per worker, and
/// evaluates every fitted method on it (`None` for a failed fit).
fn score_environment(
    exp: &SyntheticExperiment,
    (process, fits): &FittedReplication,
    rep: usize,
    k: usize,
) -> Vec<Option<Evaluation>> {
    let (_, _, n_test) = exp.scale.synthetic_samples();
    let test = process.generate(exp.test_rhos[k], n_test, 10 * rep as u64 + 2 + k as u64);
    fits.iter()
        .map(|fit| {
            let (fitted, _) = fit.as_ref().ok()?;
            // lint: allow(panic) — synthetic environments always carry the
            // oracle; a miss is a generator bug, not a recoverable state.
            Some(fitted.evaluate(&test).expect("synthetic data carries the oracle"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BackboneKind;
    use crate::presets::{bench_variant, paper_syn_8_8_8_2};
    use sbrl_core::Framework;
    use std::sync::Condvar;
    use std::time::Duration;

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
        // Three replications, on a one-layer network and CFR's linear MMD,
        // which keep the quick-scale fits cheap in debug.
        exp.scale = Scale::Quick;
        (exp.preset.rep_layers, exp.preset.head_layers) = (1, 1);
        (exp.preset.rep_width, exp.preset.head_width) = (8, 4);
        exp.preset.ipm = sbrl_stats::IpmKind::MmdLin;
        let mut broken = exp.clone();
        broken.preset.lr = f64::NAN; // every fit fails: exercises `failures`
        let methods = vec![
            MethodSpec { backbone: BackboneKind::Tarnet, framework: Framework::Vanilla },
            MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::Vanilla },
        ];
        let run = |exp: &SyntheticExperiment, workers| {
            let mut lines = Vec::new();
            let results = run_synthetic_sweep_on(exp, &methods, workers, |m: &str| {
                // Fit wall-clock varies run to run; the line order must not.
                lines.push(m.split(" done in ").next().unwrap_or(m).to_string());
            });
            let per_method: Vec<_> = results
                .iter()
                .map(|r| {
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
                    (bits, r.failures.clone(), r.retries.clone())
                })
                .collect();
            (per_method, lines)
        };
        for (exp, failed) in [(&exp, 0), (&broken, 3)] {
            let serial = run(exp, 1);
            for (bits, failures, _) in &serial.0 {
                assert!(bits.iter().all(|env| env.len() == 3 - failed));
                assert_eq!(failures.len(), failed);
            }
            assert_eq!(serial.1.len(), 6, "one progress line per replication and method");
            // More workers than replications leaves some only scoring.
            for workers in [2, 3, 5, 8] {
                assert_eq!(run(exp, workers), serial, "workers = {workers}");
            }
        }
    }

    /// Runs `f` on its own thread and returns whether it panicked, failing
    /// the test if it has not returned within a minute.
    fn panics_within_a_minute(f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
            let _ = tx.send(panicked);
        });
        let panicked = rx.recv_timeout(Duration::from_secs(60)).expect("the sweep hung");
        thread.join().expect("the sweep's thread returned");
        panicked
    }

    /// A flag one task raises and another waits on. The wait gives up
    /// after ten seconds, in case no second thread ever runs the raiser.
    #[derive(Default)]
    struct Latch(Mutex<bool>, Condvar);

    impl Latch {
        fn raise(&self) {
            *self.0.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let raised = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            drop(self.1.wait_timeout_while(raised, Duration::from_secs(10), |r| !*r));
        }
    }

    #[test]
    fn a_panicking_fit_task_fails_the_sweep_instead_of_hanging() {
        let panicked = panics_within_a_minute(|| {
            // Replication 1's fit unwinds only once scoring has begun, so
            // the other worker is past the fits and claiming scoring tasks,
            // replication 1's among them.
            let scoring = Latch::default();
            fit_then_score(
                3,
                4,
                2,
                |rep| {
                    if rep == 1 {
                        scoring.wait();
                        panic!("fit {rep} unwinds");
                    }
                    rep
                },
                |_, _| {},
                |rep, k, &fitted| {
                    scoring.raise();
                    (rep, k, fitted)
                },
            );
        });
        assert!(panicked, "the fit's panic reaches the caller");
    }

    #[test]
    fn the_schedule_scores_every_environment_and_reports_in_replication_order() {
        for workers in [1, 2, 3, 8] {
            // With a second worker, replication 1's fit finishes first.
            let fit1_done = Latch::default();
            let mut reported = Vec::new();
            let sweep = fit_then_score(
                3,
                4,
                workers,
                |rep| {
                    match rep {
                        0 if workers > 1 => fit1_done.wait(),
                        1 => fit1_done.raise(),
                        _ => {}
                    }
                    10 * rep
                },
                |rep, &fitted| reported.push((rep, fitted)),
                |rep, k, &fitted| (rep, k, fitted),
            );
            assert_eq!(reported, [(0, 0), (1, 10), (2, 20)], "workers = {workers}");
            for (rep, (fitted, scores)) in sweep.into_iter().enumerate() {
                assert_eq!(fitted, 10 * rep);
                assert_eq!(scores, (0..4).map(|k| (rep, k, fitted)).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_single_replication_fits_off_the_coarse_task_path() {
        // Inside a pool task every parallel call runs inline and never
        // reaches the pool; a single replication's fit must instead keep
        // the pool for its kernels. A parallel call asking for one worker
        // more than the pool has grows the pool only off that path.
        let caller = std::thread::current().id();
        let reps = Scale::Bench.replications();
        assert_eq!(reps, 1);
        let sweep = fit_then_score(
            reps,
            3,
            2,
            |_| {
                let want = sbrl_tensor::workers::pool_size() + 2;
                sbrl_tensor::workers::run_tasks(2, want, &|_| {});
                (std::thread::current().id(), sbrl_tensor::workers::pool_size() + 1 >= want)
            },
            |_, _| {},
            |_, _, _| (),
        );
        let ((fit_thread, reached_the_pool), scores) = &sweep[0];
        assert_eq!(*fit_thread, caller, "the fit runs on the calling thread");
        assert!(reached_the_pool, "the fit's parallel calls reach the pool");
        assert_eq!(scores.len(), 3);
    }

    #[test]
    fn methods_of_one_backbone_share_their_seed() {
        for (i, kind) in BackboneKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL lists the kinds in declaration order");
        }
        for rep in 0..3 {
            let seeds: Vec<Vec<u64>> = BackboneKind::ALL
                .into_iter()
                .map(|backbone| {
                    Framework::ALL
                        .into_iter()
                        .map(|framework| method_seed(rep, MethodSpec { backbone, framework }))
                        .collect()
                })
                .collect();
            // Vanilla TARNet keeps the seed it had as method 0 of the grid.
            assert_eq!(seeds[0], [rep as u64 * 97; 3]);
            assert_eq!(seeds[1], [rep as u64 * 97 + 1; 3]);
            assert_eq!(seeds[2], [rep as u64 * 97 + 2; 3]);
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
    fn fit_noted_notes_retries_and_failures_and_renders_them_in_order() {
        let cfg = TrainConfig { seed: 7, ..TrainConfig::smoke() };
        let mut notes = FitNotes::default();
        assert_eq!(notes.render(), "", "a clean run renders no block");

        let mut seeds = Vec::new();
        let ok = fit_noted("first", &cfg, |c| {
            seeds.push(c.seed);
            Ok(c.seed)
        });
        assert_eq!(ok, Ok((7, None)));
        assert_eq!(notes.keep("test", ok), Some(7));

        let transient = fit_noted("second", &cfg, |c| {
            seeds.push(c.seed);
            if c.seed == 7 {
                Err(SbrlError::NonFiniteLoss {
                    iteration: 1,
                    term: sbrl_core::NonFiniteTerm::FactualLoss,
                })
            } else {
                Ok(c.seed)
            }
        });
        let reseeded = retry_seed(7, 1);
        let retry_note = "second recovered after 1 reseeded retries".to_string();
        assert_eq!(transient, Ok((reseeded, Some(retry_note.clone()))));
        assert_eq!(notes.keep("test", transient), Some(reseeded));
        assert_eq!(seeds, [7, 7, reseeded]);
        assert_eq!(
            notes.render(),
            format!("\nRetried fits (recovered after reseeding):\nRETRIED {retry_note}\n")
        );

        let error = SbrlError::InvalidConfig { what: "train.lr", message: "bad".into() };
        let failure_note = format!("third FAILED: {error}");
        let mut calls = 0;
        let failed = fit_noted("third", &cfg, |_| -> Result<u64, SbrlError> {
            calls += 1;
            Err(SbrlError::InvalidConfig { what: "train.lr", message: "bad".into() })
        });
        assert_eq!(calls, 1, "a deterministic error is not retried");
        assert_eq!(failed, Err(failure_note.clone()));
        assert_eq!(notes.keep("test", failed), None);

        assert_eq!(
            notes.render(),
            format!(
                "\nRetried fits (recovered after reseeding):\nRETRIED {retry_note}\n\
                 \nFailed replications (skipped):\nSKIPPED {failure_note}\n"
            )
        );
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
