//! End-to-end alternating training (Algorithm 1 of the paper).
//!
//! Each iteration draws a mini-batch and performs two phases:
//!
//! 1. **Network phase** — update the backbone parameters `W, b` on the
//!    weighted factual loss `L^w_Y` (Eq. 13) plus the backbone's own
//!    regularizers and L2, with the sample weights held constant;
//! 2. **Weight phase** — rebuild the forward pass with the network *frozen*
//!    (parameters enter the tape as constants) and update the sample
//!    weights on `L_w` (Eq. 11).
//!
//! Validation uses the unweighted factual loss; the best-evaluated iterate
//! is restored at the end (Sec. V-C: early stopping, best iterate).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sbrl_data::{CausalDataset, OutcomeKind, Scaler};
use sbrl_metrics::{evaluate, EffectEstimate, Evaluation};
use sbrl_models::{select_by_treatment, Backbone, BatchContext, LayerTaps};
use sbrl_nn::{
    loss::l2_penalty, Adam, BatchIter, Binding, EarlyStopping, LrSchedule, Optimizer, OutcomeLoss,
};
use sbrl_stats::{HsicScratch, Rff};
use sbrl_tensor::rng::rng_from_seed;
use sbrl_tensor::{Graph, Matrix, TensorId};

use crate::config::SbrlConfig;
use crate::error::{NonFiniteTerm, SbrlError};
use crate::faults;
use crate::recovery::{FitReport, RecoveryEvent, RecoveryPolicy};
use crate::regularizers::weight_objective;
use crate::weights::SampleWeights;

/// Salt folded into the batch-shuffle seed at each recovery, so a resumed
/// run draws a fresh (but fully reproducible) batch sequence instead of
/// replaying the exact batches that diverged.
const RECOVERY_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Standardised covariates are winsorised to this many standard deviations.
/// Unbounded test-time inputs otherwise let deep ELU heads extrapolate
/// explosively on rows far outside the training support (observed on the
/// IHDP surface's heavy tails).
const CLIP_SIGMA: f64 = 5.0;

fn prep(scaler: &Option<Scaler>, x: &Matrix) -> Matrix {
    match scaler {
        Some(s) => s.transform(x).clamp(-CLIP_SIGMA, CLIP_SIGMA),
        None => x.clone(),
    }
}

/// Optimisation hyper-parameters (Sec. V-C defaults scaled for CPU runs).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Maximum number of alternating iterations (paper: 3000).
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Network learning rate.
    pub lr: f64,
    /// Sample-weight learning rate.
    pub weight_lr: f64,
    /// Exponential LR decay `(rate, steps)`; `None` = constant.
    pub lr_decay: Option<(f64, usize)>,
    /// L2 regularisation coefficient `λ` on the weight matrices.
    pub l2: f64,
    /// Validation cadence in iterations.
    pub eval_every: usize,
    /// Early-stopping patience in *evaluations* (not iterations).
    pub patience: usize,
    /// RNG seed for batching, RFF sampling and column subsampling.
    pub seed: u64,
    /// Standardise covariates with train-fold statistics.
    pub standardize: bool,
    /// Standardise *continuous* outcomes with train-fold statistics during
    /// training and invert at prediction time (the reference CFR's `y`
    /// normalisation; prevents divergence on heavy-tailed surfaces such as
    /// IHDP's exponential response).
    pub standardize_outcome: bool,
    /// What to do when a training-objective term goes non-finite: the
    /// default performs no retries (the fit fails with a typed
    /// [`NonFiniteLoss`](SbrlError::NonFiniteLoss), exactly as before);
    /// `max_retries > 0` enables checkpoint rollback + backoff + resume.
    pub recovery: RecoveryPolicy,
    /// Wall-clock watchdog: when set, the budget is checked at the top of
    /// every iteration and an overrun fails the fit with a typed
    /// [`TimedOut`](SbrlError::TimedOut). `None` (default) = unbounded.
    pub time_budget: Option<Duration>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            iterations: 500,
            batch_size: 128,
            lr: 1e-3,
            weight_lr: 1e-2,
            lr_decay: Some((0.97, 100)),
            l2: 1e-4,
            eval_every: 25,
            patience: 10,
            seed: 0,
            standardize: true,
            standardize_outcome: true,
            recovery: RecoveryPolicy::default(),
            time_budget: None,
        }
    }
}

impl TrainConfig {
    /// The paper's full-scale settings (3000 iterations).
    pub fn paper() -> Self {
        Self { iterations: 3000, eval_every: 50, ..Self::default() }
    }

    /// A very small budget for unit tests.
    pub fn smoke() -> Self {
        Self { iterations: 60, batch_size: 64, eval_every: 20, patience: 50, ..Self::default() }
    }

    /// Validates the optimisation budget: counts must be positive and every
    /// rate finite and non-negative.
    pub fn validate(&self) -> Result<(), SbrlError> {
        let counts = [
            ("train.iterations", self.iterations),
            ("train.batch_size", self.batch_size),
            ("train.eval_every", self.eval_every),
        ];
        for (what, v) in counts {
            if v == 0 {
                return Err(SbrlError::InvalidConfig {
                    what,
                    message: "must be at least 1".into(),
                });
            }
        }
        let rates =
            [("train.lr", self.lr), ("train.weight_lr", self.weight_lr), ("train.l2", self.l2)];
        for (what, v) in rates {
            if !v.is_finite() || v < 0.0 {
                return Err(SbrlError::InvalidConfig {
                    what,
                    message: format!("must be finite and non-negative, got {v}"),
                });
            }
        }
        if let Some((rate, steps)) = self.lr_decay {
            if !rate.is_finite() || rate <= 0.0 || steps == 0 {
                return Err(SbrlError::InvalidConfig {
                    what: "train.lr_decay",
                    message: format!(
                        "needs a positive finite rate and steps >= 1, got ({rate}, {steps})"
                    ),
                });
            }
        }
        self.recovery.validate()?;
        Ok(())
    }
}

/// Summary of one training run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// Iterations actually executed (early stopping may cut the budget).
    pub iterations_run: usize,
    /// Best validation loss observed.
    pub best_val_loss: f64,
    /// Iteration of the best validation loss.
    pub best_iteration: usize,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// `(min, mean, max)` of the final sample weights.
    pub weight_stats: (f64, f64, f64),
    /// `(iteration, validation loss)` trace.
    pub val_curve: Vec<(usize, f64)>,
}

/// A trained backbone bundled with its preprocessing and sample weights.
///
/// A fitted model is an **immutable inference artifact**: every serving
/// entry point ([`FittedModel::predict`], [`FittedModel::evaluate`],
/// [`FittedModel::representation`], ...) takes `&self`, and because
/// [`Backbone`] requires `Send + Sync` the model can fan out across threads
/// — see [`FittedModel::predict_batched`].
pub struct FittedModel<B: Backbone> {
    pub(crate) model: B,
    pub(crate) scaler: Option<Scaler>,
    pub(crate) loss_kind: OutcomeLoss,
    /// Outcome transform `(shift, scale)`: training used `(y - shift) / scale`.
    pub(crate) y_transform: (f64, f64),
    pub(crate) weights: Vec<f64>,
    pub(crate) report: TrainReport,
    /// Fault-tolerance provenance: the recovery policy the fit ran under
    /// and every rollback it performed.
    pub(crate) fit_report: FitReport,
    /// Which framework wrapped the fit (provenance + the registry key).
    pub(crate) framework: crate::config::Framework,
    /// Master seed the fit ran under (provenance; also rebuilds the
    /// architecture deterministically at load time).
    pub(crate) seed: u64,
}

impl<B: Backbone> std::fmt::Debug for FittedModel<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedModel")
            .field("model", &self.model.name())
            .field("loss_kind", &self.loss_kind)
            .field("report", &self.report)
            .field("fit_report", &self.fit_report)
            .finish_non_exhaustive()
    }
}

impl<B: Backbone> FittedModel<B> {
    /// Predicted potential outcomes for raw (unstandardised) covariates.
    pub fn predict(&self, x: &Matrix) -> EffectEstimate {
        let x = prep(&self.scaler, x);
        let n = x.rows();
        let t_dummy = vec![0.0; n];
        let (mut y0_hat, mut y1_hat) =
            sbrl_models::predict_potential_outcomes(&self.model, &x, &t_dummy, self.loss_kind);
        let (shift, scale) = self.y_transform;
        if shift != 0.0 || scale != 1.0 {
            for v in y0_hat.iter_mut().chain(y1_hat.iter_mut()) {
                *v = *v * scale + shift;
            }
        }
        EffectEstimate { y0_hat, y1_hat }
    }

    /// [`FittedModel::predict`] sharded across the workspace's persistent
    /// worker pool — the serving-shaped hot path for large inference
    /// matrices.
    ///
    /// Rows are split into contiguous shards, each shard is predicted as one
    /// pool task (no per-call thread spawns), and the pieces are reassembled
    /// in order. Every per-row operation of the inference path is
    /// independent of the other rows, so the result is **bit-identical** to
    /// a single-threaded [`FittedModel::predict`] for any worker count.
    ///
    /// `workers == 0` selects the worker count from the workspace-wide
    /// [`Parallelism`](sbrl_tensor::kernels::Parallelism) knob
    /// (`SBRL_THREADS` / available cores).
    /// # Panics
    /// Re-raises a worker-task panic as a panic on the calling thread.
    /// Server loops use [`FittedModel::try_predict_batched`], which
    /// contains the panic and returns it as a typed error instead.
    pub fn predict_batched(&self, x: &Matrix, workers: usize) -> EffectEstimate {
        self.try_predict_batched(x, workers)
            // lint: allow(panic) — documented re-raise (`# Panics`); serving
            // paths use the typed `try_predict_batched` instead.
            .unwrap_or_else(|e| panic!("predict_batched failed: {e}"))
    }

    /// [`FittedModel::predict_batched`] with typed failure: a panic inside
    /// a prediction shard is contained by the worker pool
    /// ([`run_tasks_catching`](sbrl_tensor::workers::run_tasks_catching))
    /// and surfaces as [`SbrlError::WorkerPanic`] naming the shard, with
    /// the pool left fully usable — one poisoned request cannot take down
    /// a serving loop.
    pub fn try_predict_batched(
        &self,
        x: &Matrix,
        workers: usize,
    ) -> Result<EffectEstimate, SbrlError> {
        let n = x.rows();
        let workers = if workers == 0 {
            sbrl_tensor::kernels::Parallelism::global().workers()
        } else {
            workers
        };
        let workers = workers.clamp(1, n.max(1));
        let ranges = sbrl_tensor::kernels::shard_ranges(n, workers);
        let shards: Vec<OnceLock<EffectEstimate>> =
            (0..ranges.len()).map(|_| OnceLock::new()).collect();
        sbrl_tensor::workers::run_tasks_catching(ranges.len(), workers, &|w| {
            let (lo, hi) = ranges[w];
            let rows: Vec<usize> = (lo..hi).collect();
            let est = self.predict(&x.select_rows(&rows));
            let _ = shards[w].set(est);
        })?;
        let mut y0_hat = Vec::with_capacity(n);
        let mut y1_hat = Vec::with_capacity(n);
        for shard in shards {
            // lint: allow(panic) — infallible: `run_tasks_catching` returned
            // Ok, so every shard task ran to completion and set its slot.
            let est = shard.into_inner().expect("a completed task set its shard");
            y0_hat.extend(est.y0_hat);
            y1_hat.extend(est.y1_hat);
        }
        Ok(EffectEstimate { y0_hat, y1_hat })
    }

    /// Evaluates against a dataset carrying the counterfactual oracle.
    pub fn evaluate(&self, data: &CausalDataset) -> Option<Evaluation> {
        let est = self.predict(&data.x);
        evaluate(&est, data)
    }

    /// The balanced representation `Z_r` for given covariates (used by the
    /// Fig. 5 decorrelation analysis).
    pub fn representation(&self, x: &Matrix) -> Matrix {
        self.frozen_tap(x, |taps| taps.z_r)
    }

    /// The last hidden layer `Z_p` for given covariates (the layer the
    /// Independence Regularizer decorrelates). Computed with a zero
    /// treatment column, i.e. the control head's path.
    pub fn last_layer(&self, x: &Matrix) -> Matrix {
        self.frozen_tap(x, |taps| taps.z_p)
    }

    /// Runs the frozen forward on raw covariates with a zero treatment
    /// column and returns the value of the tap `pick` selects.
    fn frozen_tap(&self, x: &Matrix, pick: fn(&LayerTaps) -> TensorId) -> Matrix {
        let x = prep(&self.scaler, x);
        let mut g = Graph::new();
        let mut binding = Binding::new_frozen(self.model.store());
        let xc = g.constant(x);
        let n = g.value(xc).rows();
        let ctx = BatchContext::new(&vec![0.0; n]);
        let pass = self.model.forward(&mut g, &mut binding, xc, &ctx);
        g.value(pick(&pass.taps)).clone()
    }

    /// The underlying backbone.
    pub fn model(&self) -> &B {
        &self.model
    }

    /// The training report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Final per-training-sample weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The outcome-loss kind used at training time.
    pub fn loss_kind(&self) -> OutcomeLoss {
        self.loss_kind
    }

    /// Fault-tolerance provenance of the fit: the [`RecoveryPolicy`] it ran
    /// under, its watchdog budget, and every rollback-recovery it performed
    /// (empty for a clean fit).
    pub fn fit_report(&self) -> &FitReport {
        &self.fit_report
    }

    /// The framework that wrapped the fit (provenance).
    pub fn framework(&self) -> crate::config::Framework {
        self.framework
    }

    /// The master seed the fit ran under (provenance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The grid cell this model belongs to — the
    /// [`ModelRegistry`](crate::persist::ModelRegistry) key, e.g.
    /// `"CFR+SBRL-HAP"`.
    pub fn method_spec(&self) -> crate::method::MethodSpec {
        crate::method::MethodSpec {
            backbone: self.model.export_config().kind(),
            framework: self.framework,
        }
    }
}

fn loss_kind_for(outcome: OutcomeKind) -> OutcomeLoss {
    match outcome {
        OutcomeKind::Binary => OutcomeLoss::BceWithLogits,
        OutcomeKind::Continuous => OutcomeLoss::Mse,
    }
}

/// Unweighted factual loss of the current model on a dataset (validation).
/// `g` is the caller's reusable tape — it is reset here, and reading the
/// scalar result out before returning keeps the tape free for the next step.
fn factual_loss(
    g: &mut Graph,
    model: &dyn Backbone,
    x: &Matrix,
    t: &[f64],
    yf: &[f64],
    loss_kind: OutcomeLoss,
) -> f64 {
    g.reset();
    let mut binding = Binding::new_frozen(model.store());
    let xc = g.constant_copied(x);
    let ctx = BatchContext::new(t);
    let pass = model.forward(g, &mut binding, xc, &ctx);
    let fac = select_by_treatment(g, &ctx, pass.y1_raw, pass.y0_raw);
    let target = g.constant_col(yf);
    let loss = loss_kind.loss(g, fac, target);
    g.give_id_buf(pass.taps.z_o);
    g.scalar(loss)
}

/// Trains `model` on `train`, early-stopping on `val`, with the SBRL /
/// SBRL-HAP weight objective given by `sbrl`.
///
/// The training loop behind [`crate::Estimator::fit`], which builds the
/// backbone from its configuration and seed first; callers outside this
/// crate go through [`crate::Estimator::builder`].
pub(crate) fn fit_backbone<B: Backbone>(
    mut model: B,
    train: &CausalDataset,
    val: &CausalDataset,
    sbrl: &SbrlConfig,
    cfg: &TrainConfig,
) -> Result<FittedModel<B>, SbrlError> {
    sbrl.validate()?;
    cfg.validate()?;
    train.validate()?;
    val.validate()?;
    faults::fit_begin();
    let started = Instant::now();
    let loss_kind = loss_kind_for(train.outcome);
    let mut rng = rng_from_seed(cfg.seed ^ 0x5b71_7a11);

    let scaler = cfg.standardize.then(|| Scaler::fit(&train.x));
    let x_train = prep(&scaler, &train.x);
    let x_val = prep(&scaler, &val.x);

    // Outcome standardisation (continuous outcomes only, train statistics).
    let y_transform = if cfg.standardize_outcome && train.outcome == OutcomeKind::Continuous {
        let mean = train.yf.iter().sum::<f64>() / train.n() as f64;
        let var = train.yf.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / train.n() as f64;
        (mean, var.sqrt().max(1e-8))
    } else {
        (0.0, 1.0)
    };
    let scale_y = |ys: &[f64]| -> Vec<f64> {
        ys.iter().map(|y| (y - y_transform.0) / y_transform.1).collect()
    };
    let yf_train = scale_y(&train.yf);
    let yf_val = scale_y(&val.yf);

    let n = train.n();
    let mut weights = SampleWeights::new(n, cfg.weight_lr);
    let schedule = match cfg.lr_decay {
        Some((rate, steps)) => LrSchedule::ExponentialDecay { rate, steps },
        None => LrSchedule::Constant,
    };
    let mut opt = Adam::new(model.store(), cfg.lr).with_schedule(schedule);
    let mut batches = BatchIter::new(&mut rng, n, cfg.batch_size);
    let mut stopper = EarlyStopping::new(cfg.patience);
    let rff = Rff::sample(&mut rng, sbrl.rff_functions.max(1));
    let l2_handles = model.l2_handles();

    // Step engine state, allocated once and recycled every iteration: the
    // reusable tape (with its buffer pool), the parameter bindings, the
    // batch context/target scratch and the regularizer scratch. A warmed-up
    // iteration performs no heap allocation.
    let mut tape = Graph::new();
    let mut net_binding = Binding::new(model.store());
    let mut frozen_binding = Binding::new_frozen(model.store());
    let mut w_binding = weights.new_binding();
    let mut ctx = BatchContext::default();
    let mut scratch = HsicScratch::new();
    let mut tb: Vec<f64> = Vec::with_capacity(batches.batch_size());
    let mut yb: Vec<f64> = Vec::with_capacity(batches.batch_size());

    let mut best_snapshot = model.store().snapshot();
    let mut best_val = f64::INFINITY;
    let mut best_iter = 0usize;
    let mut val_curve = Vec::new();
    let mut iterations_run = 0usize;

    // Recovery state. The weight-store checkpoint is maintained only when
    // rollback is enabled — the default policy pays nothing on this path.
    let mut lr_now = cfg.lr;
    let mut clip_now = Adam::DEFAULT_CLIP_NORM;
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut best_weights = (cfg.recovery.max_retries > 0).then(|| weights.snapshot());

    for iter in 0..cfg.iterations {
        // ---- Watchdog: fail typed (not hang) past the wall-clock budget ----
        faults::stall(iter);
        if let Some(budget) = cfg.time_budget {
            let elapsed = started.elapsed();
            if elapsed > budget {
                return Err(SbrlError::TimedOut { iteration: iter, elapsed });
            }
        }
        iterations_run = iter + 1;
        let batch = batches.next_batch(&mut rng);
        tb.clear();
        tb.extend(batch.iter().map(|&i| train.t[i]));
        yb.clear();
        yb.extend(batch.iter().map(|&i| yf_train[i]));
        ctx.rebuild(&tb);

        // ---- Phase 1: network update with weights fixed (Eq. 13) ----
        let mut diverged: Option<NonFiniteTerm> = None;
        {
            tape.reset();
            net_binding.reset(model.store());
            let g = &mut tape;
            let x = g.constant_selected_rows(&x_train, batch);
            let pass = model.train_step().forward(g, &mut net_binding, x, &ctx);
            let fac = select_by_treatment(g, &ctx, pass.y1_raw, pass.y0_raw);
            let target = g.constant_col(&yb);
            let w_node = if sbrl.weights_enabled() {
                weights.bind_const(g, batch)
            } else {
                g.constant_full(batch.len(), 1, 1.0)
            };
            let pred = loss_kind.weighted_loss(g, fac, target, w_node);
            let with_reg = g.add(pred, pass.reg_loss);
            let l2 = l2_penalty(g, model.store(), &mut net_binding, &l2_handles, cfg.l2);
            let total = g.add(with_reg, l2);
            g.give_id_buf(pass.taps.z_o);
            // Classify *which* term diverged: the factual loss itself, or
            // the regularizers/L2 stacked on a still-finite factual loss.
            let pred_val = faults::poison(NonFiniteTerm::FactualLoss, iter, g.scalar(pred));
            let total_val = if pred_val.is_finite() {
                faults::poison(NonFiniteTerm::Regularizer, iter, g.scalar(total))
            } else {
                f64::NAN
            };
            if !pred_val.is_finite() {
                diverged = Some(NonFiniteTerm::FactualLoss);
            } else if !total_val.is_finite() {
                diverged = Some(NonFiniteTerm::Regularizer);
            } else {
                g.backward(total);
                // The gradient scan runs only when its verdict can change
                // anything — rollback enabled or a fault plan armed — so
                // the default configuration pays nothing extra here.
                let check_grads = cfg.recovery.max_retries > 0 || faults::any_armed();
                let grad_bad = check_grads
                    && (faults::grad_poisoned(iter)
                        || net_binding
                            .bound()
                            .any(|(_, id)| g.grad(id).is_some_and(|m| !m.all_finite())));
                if grad_bad {
                    diverged = Some(NonFiniteTerm::Gradient);
                } else {
                    opt.step(model.store_mut(), g, &net_binding);
                }
            }
        }

        // ---- Phase 2: weight update with the network frozen (Eq. 11) ----
        if sbrl.weights_enabled() && diverged.is_none() {
            tape.reset();
            frozen_binding.reset(model.store());
            weights.reset_binding(&mut w_binding);
            let g = &mut tape;
            let x = g.constant_selected_rows(&x_train, batch);
            let pass = model.train_step().forward_without_reg(g, &mut frozen_binding, x, &ctx);
            let w = weights.bind_trainable(g, &mut w_binding, batch);
            let r_w = weights.r_w(g, w);
            let terms =
                weight_objective(g, sbrl, &pass.taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
            g.give_id_buf(pass.taps.z_o);
            let lw_val =
                faults::poison(NonFiniteTerm::WeightObjective, iter, g.scalar(terms.total));
            if !lw_val.is_finite() {
                diverged = Some(NonFiniteTerm::WeightObjective);
            } else {
                g.backward(terms.total);
                weights.step(g, &w_binding);
            }
        }

        // ---- Rollback recovery: restore the last best-validated checkpoint,
        // back off, reseed the shuffle, resume (docs/ROBUSTNESS.md) ----
        if let Some(term) = diverged {
            if recoveries.len() >= cfg.recovery.max_retries {
                return Err(SbrlError::NonFiniteLoss { iteration: iter, term });
            }
            let retry = recoveries.len() + 1;
            model.store_mut().restore(&best_snapshot);
            if let Some(bw) = &best_weights {
                weights.restore(bw);
            }
            lr_now *= cfg.recovery.lr_backoff;
            clip_now *= cfg.recovery.grad_clip_escalation;
            // Fresh optimisers on purpose: stale Adam moment estimates are
            // frequently what diverged in the first place.
            opt = Adam::new(model.store(), lr_now)
                .with_schedule(schedule)
                .with_clip_norm(Some(clip_now));
            weights.reset_optimizer(cfg.weight_lr);
            rng = rng_from_seed(
                cfg.seed ^ 0x5b71_7a11 ^ RECOVERY_SEED_SALT.wrapping_mul(retry as u64),
            );
            batches = BatchIter::new(&mut rng, n, cfg.batch_size);
            recoveries.push(RecoveryEvent {
                iteration: iter,
                term,
                retry,
                rolled_back_to: best_iter,
                lr: lr_now,
                clip_norm: clip_now,
            });
            continue;
        }

        // ---- Validation / early stopping ----
        if iter % cfg.eval_every == 0 || iter + 1 == cfg.iterations {
            let vl = factual_loss(&mut tape, &model, &x_val, &val.t, &yf_val, loss_kind);
            val_curve.push((iter, vl));
            if vl.is_finite() && vl < best_val {
                best_val = vl;
                best_iter = iter;
                best_snapshot = model.store().snapshot();
                if let Some(bw) = &mut best_weights {
                    *bw = weights.snapshot();
                }
            }
            if stopper.update(vl) {
                break;
            }
        }
    }

    model.store_mut().restore(&best_snapshot);
    let report = TrainReport {
        iterations_run,
        best_val_loss: best_val,
        best_iteration: best_iter,
        train_seconds: started.elapsed().as_secs_f64(),
        weight_stats: weights.stats(),
        val_curve,
    };
    Ok(FittedModel {
        model,
        scaler,
        loss_kind,
        y_transform,
        weights: weights.values(),
        report,
        fit_report: FitReport { recoveries, policy: cfg.recovery, time_budget: cfg.time_budget },
        framework: sbrl.framework(),
        seed: cfg.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_data::{DataError, SyntheticConfig, SyntheticProcess};
    use sbrl_models::{Cfr, CfrConfig, Tarnet, TarnetConfig};
    use sbrl_tensor::rng::rng_from_seed;

    fn tiny_data() -> (CausalDataset, CausalDataset) {
        let cfg = SyntheticConfig {
            m_instrument: 3,
            m_confounder: 3,
            m_adjustment: 3,
            m_unstable: 2,
            pool_factor: 4,
            threshold_pool: 1500,
        };
        let proc = SyntheticProcess::new(cfg, 42);
        let train = proc.generate(2.5, 300, 0);
        let val = proc.generate(2.5, 120, 1);
        (train, val)
    }

    #[test]
    fn vanilla_training_improves_validation_loss() {
        let (train, val) = tiny_data();
        let mut rng = rng_from_seed(0);
        let model = Tarnet::new(TarnetConfig::small(train.dim()), &mut rng);
        let fitted = super::fit_backbone(
            model,
            &train,
            &val,
            &SbrlConfig::vanilla(),
            &TrainConfig { iterations: 150, ..TrainConfig::smoke() },
        )
        .unwrap();
        let curve = &fitted.report().val_curve;
        let first = curve.first().unwrap().1;
        let best = fitted.report().best_val_loss;
        assert!(best < first, "validation should improve: {first} -> {best}");
        // Vanilla framework leaves the weights untouched at 1.
        assert!(fitted.weights().iter().all(|&w| (w - 1.0).abs() < 1e-12));
    }

    #[test]
    fn sbrl_training_moves_weights_away_from_one() {
        let (train, val) = tiny_data();
        let mut rng = rng_from_seed(1);
        let model = Cfr::new(CfrConfig::small(train.dim()), &mut rng);
        let fitted = super::fit_backbone(
            model,
            &train,
            &val,
            &SbrlConfig::sbrl(1.0, 1.0),
            &TrainConfig::smoke(),
        )
        .unwrap();
        let (min, _, max) = fitted.report().weight_stats;
        assert!(max - min > 1e-4, "weights should differentiate, got [{min}, {max}]");
        assert!(min > 0.0, "weights stay positive");
    }

    #[test]
    fn hap_training_runs_and_predicts_finite_effects() {
        let (train, val) = tiny_data();
        let mut rng = rng_from_seed(2);
        let model = Cfr::new(CfrConfig::small(train.dim()), &mut rng);
        let fitted = super::fit_backbone(
            model,
            &train,
            &val,
            &SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01),
            &TrainConfig::smoke(),
        )
        .unwrap();
        let est = fitted.predict(&val.x);
        assert_eq!(est.y0_hat.len(), val.n());
        assert!(est.y0_hat.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
        assert!(est.y1_hat.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
        let eval = fitted.evaluate(&val).expect("oracle available");
        assert!(eval.pehe.is_finite() && eval.pehe > 0.0);
    }

    #[test]
    fn trained_model_beats_untrained_on_factual_fit() {
        let (train, val) = tiny_data();
        let mut rng = rng_from_seed(3);
        let model = Tarnet::new(TarnetConfig::small(train.dim()), &mut rng);
        let untrained_model = Tarnet::new(TarnetConfig::small(train.dim()), &mut rng);
        let x_val = Scaler::fit(&train.x).transform(&val.x);
        let mut tape = Graph::new();
        let before = factual_loss(
            &mut tape,
            &untrained_model,
            &x_val,
            &val.t,
            &val.yf,
            OutcomeLoss::BceWithLogits,
        );
        let fitted = super::fit_backbone(
            model,
            &train,
            &val,
            &SbrlConfig::vanilla(),
            &TrainConfig { iterations: 200, ..TrainConfig::smoke() },
        )
        .unwrap();
        assert!(
            fitted.report().best_val_loss < before,
            "trained {} should beat untrained {}",
            fitted.report().best_val_loss,
            before
        );
    }

    #[test]
    fn invalid_data_is_rejected() {
        let (train, val) = tiny_data();
        let mut broken = train.clone();
        broken.t = vec![1.0; broken.n()]; // kill overlap
        let mut rng = rng_from_seed(4);
        let model = Tarnet::new(TarnetConfig::small(train.dim()), &mut rng);
        let err = super::fit_backbone(
            model,
            &broken,
            &val,
            &SbrlConfig::vanilla(),
            &TrainConfig::smoke(),
        );
        assert!(matches!(err, Err(SbrlError::Data(DataError::EmptyTreatmentArm { .. }))));
    }

    #[test]
    fn representation_has_expected_width() {
        let (train, val) = tiny_data();
        let mut rng = rng_from_seed(5);
        let model = Tarnet::new(TarnetConfig::small(train.dim()), &mut rng);
        let fitted = super::fit_backbone(
            model,
            &train,
            &val,
            &SbrlConfig::vanilla(),
            &TrainConfig { iterations: 30, ..TrainConfig::smoke() },
        )
        .unwrap();
        let rep = fitted.representation(&val.x);
        assert_eq!(rep.shape(), (val.n(), 32));
        assert!(rep.all_finite());
    }
}
