//! The traced run: per-layer metrics measured from the benchmark's own
//! code, by timing calls into each layer's public functions.
//!
//! The fit layers are measured by replaying the trainer's two-phase step
//! from outside (the structure of `sbrl-core`'s `fit_backbone`, on
//! `fit_hap`'s preset and data). The serving layers are measured by
//! calling each hop on its own: inference, the in-process service, the
//! wire codec and the socket. Every workload's traced run measures every
//! layer, so each per-layer metric exists for each workload.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Instant;

use rand::rngs::StdRng;
use sbrl_core::wire::{self, Message};
use sbrl_core::{
    weight_objective, ClientConfig, FittedModel, InferenceService, ModelRegistry, SampleWeights,
    SbrlConfig, ServeClient, ServeConfig,
};
use sbrl_data::{CausalDataset, OutcomeKind, Scaler, SyntheticProcess};
use sbrl_experiments::{fit_method, MethodSpec, Scale};
use sbrl_models::{select_by_treatment, Backbone, BatchContext, LayerTaps};
use sbrl_nn::{loss::l2_penalty, Adam, BatchIter, Binding, LrSchedule, Optimizer, OutcomeLoss};
use sbrl_stats::{decorrelation_loss_graph_scratch, ipm_weighted_graph, HsicScratch, Rff};
use sbrl_tensor::rng::rng_from_seed;
use sbrl_tensor::{Graph, Matrix, Parallelism, TensorId};

use crate::fit::{self, FitInputs};
use crate::report::Report;
use crate::serve::{self, RequestPool};
use crate::stats;
use crate::trace::{self, Tracer};

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("models.train_fwd_ms", "ms"),
    ("tensor.net_backward_ms", "ms"),
    ("nn.adam_step_ms", "ms"),
    ("models.frozen_fwd_ms", "ms"),
    ("stats.ipm_ms", "ms"),
    ("stats.hsic_ms", "ms"),
    ("stats.hsic_calls", "count"),
    ("core.weight_objective_ms", "ms"),
    ("tensor.weight_backward_ms", "ms"),
    ("core.weights_step_ms", "ms"),
    ("models.val_fwd_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.step_serial_ms", "ms"),
    ("core.unattributed_share", "ratio"),
    ("core.replay_bit_identical", "bool"),
    ("trace.step_overhead_ms", "ms"),
    ("tensor.gemm_mflop_step", "Mflop"),
    ("workers.threads_spawned", "count"),
    ("core.iterations_run", "count"),
    ("models.tarnet_fwd_ms", "ms"),
    ("tensor.tarnet_backward_ms", "ms"),
    ("nn.tarnet_adam_ms", "ms"),
    ("core.tarnet_step_ms", "ms"),
    ("data.generate_ms", "ms"),
    ("metrics.evaluate_ms", "ms"),
    ("experiments.fit_ms", "ms"),
    ("experiments.other_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.bytes", "bytes"),
    ("models.predict_us", "us"),
    ("models.predict_ns_per_row", "ns"),
    ("serve.inproc_us", "us"),
    ("serve.admit_wait_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("wire.health_rtt_us", "us"),
    ("serve.socket_rtt_us", "us"),
    ("serve.socket_hop_us", "us"),
    ("serve.unattributed_share", "ratio"),
    ("trace.request_overhead_us", "us"),
    ("serve.queue_depth_p99", "count"),
    ("serve.shed_ratio", "ratio"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
];

/// Replayed steps before measuring (they fill the tape's buffer pool and
/// warm the worker pool), and steps measured per replay.
const WARM_STEPS: usize = 10;
const MEASURED_STEPS: usize = 40;
/// Repetitions of each single-call probe.
const CALLS: usize = 200;

/// Standardised covariates are clipped to this many standard deviations,
/// as the trainer does.
const CLIP_SIGMA: f64 = 5.0;

// ---------------------------------------------------------------------------
// The replayed training step
// ---------------------------------------------------------------------------

/// The trainer's step state, built from public parts the way `sbrl-core`'s
/// `fit_backbone` builds it.
struct StepReplay {
    model: Box<dyn Backbone>,
    sbrl: SbrlConfig,
    weights: SampleWeights,
    opt: Adam,
    rff: Rff,
    rng: StdRng,
    batches: BatchIter,
    batch: Vec<usize>,
    tape: Graph,
    net_binding: Binding,
    frozen_binding: Binding,
    w_binding: Binding,
    scratch: HsicScratch,
    ctx: BatchContext,
    x: Matrix,
    t: Vec<f64>,
    yf: Vec<f64>,
    tb: Vec<f64>,
    yb: Vec<f64>,
    l2: f64,
    loss_kind: OutcomeLoss,
    l2_handles: Vec<sbrl_nn::ParamHandle>,
}

fn prep(train: &CausalDataset, x: &Matrix) -> Matrix {
    Scaler::fit(&train.x).transform(x).clamp(-CLIP_SIGMA, CLIP_SIGMA)
}

impl StepReplay {
    fn new(spec: MethodSpec, train: &CausalDataset) -> Self {
        let preset = fit::quick_preset();
        let cfg = Scale::Quick.train_config(preset.lr, preset.l2, fit::FIT_SEED);
        let sbrl = preset.sbrl_config(spec);
        let mut rng = rng_from_seed(cfg.seed ^ 0x5b71_7a11);
        let model = preset.backbone_config(spec.backbone, train.dim()).build(&mut rng);
        let schedule = match cfg.lr_decay {
            Some((rate, steps)) => LrSchedule::ExponentialDecay { rate, steps },
            None => LrSchedule::Constant,
        };
        let opt = Adam::new(model.store(), cfg.lr).with_schedule(schedule);
        let batches = BatchIter::new(&mut rng, train.n(), cfg.batch_size);
        let rff = Rff::sample(&mut rng, sbrl.rff_functions.max(1));
        let weights = SampleWeights::new(train.n(), cfg.weight_lr);
        let loss_kind = match train.outcome {
            OutcomeKind::Binary => OutcomeLoss::BceWithLogits,
            OutcomeKind::Continuous => OutcomeLoss::Mse,
        };
        Self {
            net_binding: Binding::new(model.store()),
            frozen_binding: Binding::new_frozen(model.store()),
            w_binding: weights.new_binding(),
            l2_handles: model.l2_handles(),
            model,
            sbrl,
            weights,
            opt,
            rff,
            rng,
            batches,
            batch: Vec::with_capacity(cfg.batch_size),
            tape: Graph::new(),
            scratch: HsicScratch::new(),
            ctx: BatchContext::default(),
            x: prep(train, &train.x),
            t: train.t.clone(),
            // Binary outcomes are not standardised by the trainer.
            yf: train.yf.clone(),
            tb: Vec::with_capacity(cfg.batch_size),
            yb: Vec::with_capacity(cfg.batch_size),
            l2: cfg.l2,
            loss_kind,
        }
    }

    /// One iteration: the network phase, then (when the framework has
    /// sample weights) the weight phase. With `piecewise`, the weight
    /// objective is rebuilt from its public parts so its IPM and HSIC calls
    /// get spans of their own; otherwise `weight_objective` runs whole.
    fn step(&mut self, tr: &mut Tracer, piecewise: bool) {
        tr.begin("core.step");
        self.batch.clear();
        self.batch.extend_from_slice(self.batches.next_batch(&mut self.rng));
        self.tb.clear();
        self.tb.extend(self.batch.iter().map(|&i| self.t[i]));
        self.yb.clear();
        self.yb.extend(self.batch.iter().map(|&i| self.yf[i]));
        self.ctx.rebuild(&self.tb);

        tr.begin("core.network_phase");
        self.tape.reset();
        self.net_binding.reset(self.model.store());
        let g = &mut self.tape;
        let x = g.constant_selected_rows(&self.x, &self.batch);
        let pass = tr.leaf("models.train_fwd", || {
            self.model.train_step().forward(g, &mut self.net_binding, x, &self.ctx)
        });
        let fac = select_by_treatment(g, &self.ctx, pass.y1_raw, pass.y0_raw);
        let target = g.constant_col(&self.yb);
        let w_node = if self.sbrl.weights_enabled() {
            self.weights.bind_const(g, &self.batch)
        } else {
            g.constant_full(self.batch.len(), 1, 1.0)
        };
        let pred = self.loss_kind.weighted_loss(g, fac, target, w_node);
        let with_reg = g.add(pred, pass.reg_loss);
        let l2 =
            l2_penalty(g, self.model.store(), &mut self.net_binding, &self.l2_handles, self.l2);
        let total = g.add(with_reg, l2);
        g.give_id_buf(pass.taps.z_o);
        std::hint::black_box(g.scalar(total));
        tr.leaf("tensor.net_backward", || g.backward(total));
        tr.leaf("nn.adam_step", || self.opt.step(self.model.store_mut(), g, &self.net_binding));
        tr.end();

        if self.sbrl.weights_enabled() {
            tr.begin("core.weight_phase");
            self.tape.reset();
            self.frozen_binding.reset(self.model.store());
            self.weights.reset_binding(&mut self.w_binding);
            let g = &mut self.tape;
            let x = g.constant_selected_rows(&self.x, &self.batch);
            let pass = tr.leaf("models.frozen_fwd", || {
                self.model.train_step().forward(g, &mut self.frozen_binding, x, &self.ctx)
            });
            let w = self.weights.bind_trainable(g, &mut self.w_binding, &self.batch);
            let r_w = self.weights.r_w(g, w);
            tr.begin("core.weight_objective");
            let total = if piecewise {
                weight_objective_piecewise(
                    g,
                    &self.sbrl,
                    &pass.taps,
                    &self.ctx,
                    w,
                    r_w,
                    &self.rff,
                    &mut self.rng,
                    &mut self.scratch,
                    tr,
                )
            } else {
                let cfg = &self.sbrl;
                let (ctx, rff) = (&self.ctx, &self.rff);
                weight_objective(
                    g,
                    cfg,
                    &pass.taps,
                    ctx,
                    w,
                    r_w,
                    rff,
                    &mut self.rng,
                    &mut self.scratch,
                )
                .total
            };
            tr.end();
            g.give_id_buf(pass.taps.z_o);
            std::hint::black_box(g.scalar(total));
            tr.leaf("tensor.weight_backward", || g.backward(total));
            tr.leaf("core.weights_step", || self.weights.step(g, &self.w_binding));
            tr.end();
        }
        tr.end();
    }

    fn param_bits(&self) -> Vec<u64> {
        let mut bits: Vec<u64> = self
            .model
            .store()
            .snapshot()
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect();
        bits.extend(self.weights.values().iter().map(|v| v.to_bits()));
        bits
    }

    /// Multiply-adds of the network's GEMMs per step, in Mflop: forward
    /// and two backward GEMMs in the network phase, one forward in the
    /// weight phase. Computed from the weight-matrix shapes, not measured.
    fn gemm_mflop(&self, batch: usize) -> f64 {
        let mn: usize = self
            .model
            .store()
            .iter()
            .filter(|(_, _, m)| m.rows() > 1 && m.cols() > 1)
            .map(|(_, _, m)| m.rows() * m.cols())
            .sum();
        let passes = if self.sbrl.weights_enabled() { 3 + 1 } else { 3 };
        2.0 * (batch * mn * passes) as f64 / 1e6
    }
}

/// `weight_objective`, rebuilt from the same public calls in the same order
/// (so the same bits), with a span around each statistics call.
#[allow(clippy::too_many_arguments)]
fn weight_objective_piecewise(
    g: &mut Graph,
    cfg: &SbrlConfig,
    taps: &LayerTaps,
    ctx: &BatchContext,
    w: TensorId,
    r_w: TensorId,
    rff: &Rff,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
    tr: &mut Tracer,
) -> TensorId {
    let mut total = r_w;
    let balance = if cfg.use_br && cfg.alpha > 0.0 {
        let b = tr.leaf("stats.ipm", || {
            ipm_weighted_graph(g, cfg.ipm, taps.z_r, w, &ctx.treated_idx, &ctx.control_idx)
        });
        g.scale(b, cfg.alpha)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, balance);
    let mut decor = |g: &mut Graph, z: TensorId, tr: &mut Tracer| {
        tr.leaf("stats.hsic", || {
            decorrelation_loss_graph_scratch(g, z, w, rff, &cfg.decor, rng, scratch)
        })
    };
    let independence = if cfg.use_ir && cfg.gamma1 > 0.0 {
        let d = decor(g, taps.z_p, tr);
        g.scale(d, cfg.gamma1)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, independence);
    let hierarchy = if cfg.use_hap {
        let mut h = g.scalar_const(0.0);
        if cfg.gamma2 > 0.0 {
            let d = decor(g, taps.z_r, tr);
            let s = g.scale(d, cfg.gamma2);
            h = g.add(h, s);
        }
        if cfg.gamma3 > 0.0 {
            for &z in &taps.z_o {
                let d = decor(g, z, tr);
                let s = g.scale(d, cfg.gamma3);
                h = g.add(h, s);
            }
        }
        h
    } else {
        g.scalar_const(0.0)
    };
    g.add(total, hierarchy)
}

/// Runs `steps` replayed steps and returns the mean wall-clock per step (ms).
fn run_steps(r: &mut StepReplay, tr: &mut Tracer, steps: usize, piecewise: bool) -> f64 {
    let t = Instant::now();
    for _ in 0..steps {
        r.step(tr, piecewise);
    }
    t.elapsed().as_secs_f64() * 1e3 / steps as f64
}

/// Mean span time per step (ms) of `name` over `steps` steps, and the
/// number of such spans per step.
fn per_step(spans: &[trace::Span], name: &str, steps: usize) -> (f64, f64) {
    let (ns, n) = trace::total(spans, name);
    (ns as f64 / 1e6 / steps as f64, n as f64 / steps as f64)
}

fn fit_layers(report: &mut Report, tr: &mut Tracer, inputs: &FitInputs) {
    let hap = fit::hap_spec();
    let mut off = Tracer::new(false);

    // Untraced and traced replays from the same initial state: the
    // difference is the tracing overhead, and equal parameter bits show the
    // piecewise weight objective is the real one.
    let mut plain = StepReplay::new(hap, &inputs.train);
    let mut traced = StepReplay::new(hap, &inputs.train);
    for _ in 0..WARM_STEPS {
        plain.step(&mut off, false);
        traced.step(&mut off, true);
    }
    // Alternate the two so drift in machine speed hits both alike.
    let warm_spawned = sbrl_tensor::workers::threads_spawned();
    let first_span = tr.spans().len();
    tr.set_request(1);
    let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
    for _ in 0..MEASURED_STEPS {
        let t = Instant::now();
        plain.step(&mut off, false);
        plain_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        traced.step(tr, true);
        traced_ns += t.elapsed().as_nanos();
    }
    let step_ms = plain_ns as f64 / 1e6 / MEASURED_STEPS as f64;
    let traced_ms = traced_ns as f64 / 1e6 / MEASURED_STEPS as f64;
    let spawned = sbrl_tensor::workers::threads_spawned() - warm_spawned;
    let spans = &tr.spans_since(first_span);
    let identical = plain.param_bits() == traced.param_bits();
    if !identical {
        eprintln!(
            "note: the piecewise weight objective no longer reproduces weight_objective's bits"
        );
    }

    let n = MEASURED_STEPS;
    for (metric, span) in [
        ("models.train_fwd_ms", "models.train_fwd"),
        ("tensor.net_backward_ms", "tensor.net_backward"),
        ("nn.adam_step_ms", "nn.adam_step"),
        ("models.frozen_fwd_ms", "models.frozen_fwd"),
        ("stats.ipm_ms", "stats.ipm"),
        ("stats.hsic_ms", "stats.hsic"),
        ("core.weight_objective_ms", "core.weight_objective"),
        ("tensor.weight_backward_ms", "tensor.weight_backward"),
        ("core.weights_step_ms", "core.weights_step"),
    ] {
        report.metric(metric, "ms", per_step(spans, span, n).0, n);
    }
    report.metric("stats.hsic_calls", "count", per_step(spans, "stats.hsic", n).1, n);
    report.metric("core.step_ms", "ms", step_ms, n);
    report.metric("trace.step_overhead_ms", "ms", traced_ms - step_ms, n);
    let glue = ["core.network_phase", "core.weight_phase"];
    report.metric(
        "core.unattributed_share",
        "ratio",
        trace::unattributed_share(spans, "core.step", &glue),
        n,
    );
    report.metric("core.replay_bit_identical", "bool", f64::from(u8::from(identical)), 1);
    report.metric("workers.threads_spawned", "count", spawned as f64, 2 * n);
    report.metric(
        "tensor.gemm_mflop_step",
        "Mflop",
        plain.gemm_mflop(inputs.train.n().min(128)),
        1,
    );

    // The same step with the worker pool off.
    let prev = Parallelism::global();
    Parallelism::Serial.set_global();
    let mut serial = StepReplay::new(hap, &inputs.train);
    run_steps(&mut serial, &mut off, WARM_STEPS, false);
    report.metric("core.step_serial_ms", "ms", run_steps(&mut serial, &mut off, n, false), n);
    prev.set_global();

    // Validation forward: the trainer's per-evaluation pass over the
    // 400-row validation fold.
    let x_val = prep(&inputs.train, &inputs.val.x);
    let ctx = BatchContext::new(&inputs.val.t);
    let mut g = Graph::new();
    let times: Vec<f64> = (0..20)
        .map(|_| {
            g.reset();
            let t = Instant::now();
            let mut binding = Binding::new_frozen(plain.model.store());
            let x = g.constant_copied(&x_val);
            let pass = plain.model.forward(&mut g, &mut binding, x, &ctx);
            std::hint::black_box((pass.y0_raw, pass.y1_raw));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric(
        "models.val_fwd_ms",
        "ms",
        stats::median(&times).unwrap_or(f64::NAN),
        times.len(),
    );

    // TARNet's network phase at sweep_tarnet's shapes.
    let mut tarnet = StepReplay::new(fit::tarnet_spec(), &inputs.train);
    run_steps(&mut tarnet, &mut off, WARM_STEPS, false);
    let first_span = tr.spans().len();
    tr.set_request(2);
    run_steps(&mut tarnet, tr, n, false);
    let spans = &tr.spans_since(first_span);
    for (metric, span) in [
        ("models.tarnet_fwd_ms", "models.train_fwd"),
        ("tensor.tarnet_backward_ms", "tensor.net_backward"),
        ("nn.tarnet_adam_ms", "nn.adam_step"),
        ("core.tarnet_step_ms", "core.step"),
    ] {
        report.metric(metric, "ms", per_step(spans, span, n).0, n);
    }
    report.ops(4 * n as u64, 0);
}

/// The sweep's replications replayed from outside with a span per call,
/// plus one real `fit_hap` fit for its iteration count.
fn experiment_layers(report: &mut Report, tr: &mut Tracer, inputs: &FitInputs, seed: u64) {
    let first_span = tr.spans().len();
    tr.set_request(3);
    let (n_train, n_val, n_test) = Scale::Quick.synthetic_samples();
    let exp = fit::sweep_experiment(seed);
    let reps = Scale::Quick.replications();
    for rep in 0..reps {
        tr.begin("experiments.replication");
        let (train, val, tests) = tr.leaf("data.generate", || {
            let process = SyntheticProcess::new(exp.data_cfg, 1000 + rep as u64);
            let r = 10 * rep as u64;
            let tests: Vec<CausalDataset> = exp
                .test_rhos
                .iter()
                .enumerate()
                .map(|(k, &rho)| process.generate(rho, n_test, r + 2 + k as u64))
                .collect();
            (
                process.generate(exp.train_rho, n_train, r),
                process.generate(exp.train_rho, n_val, r + 1),
                tests,
            )
        });
        let cfg = exp.scale.train_config(exp.preset.lr, exp.preset.l2, (rep * 97) as u64);
        let fitted = tr.leaf("experiments.fit", || {
            fit_method(fit::tarnet_spec(), &exp.preset, &train, &val, &cfg)
        });
        match fitted {
            Ok(model) => {
                for test in &tests {
                    let e = tr.leaf("metrics.evaluate", || model.evaluate(test));
                    report.check(
                        e.is_some_and(|e| e.pehe.is_finite()),
                        "sweep replay: PEHE not finite",
                    );
                }
                report.ops(1, 0);
            }
            Err(e) => {
                report.ops(1, 0);
                report.check(false, format!("sweep replay: fit failed: {e}"));
            }
        }
        tr.end();
    }
    let spans = &tr.spans_since(first_span);
    let (rep_ns, _) = trace::total(spans, "experiments.replication");
    let (fit_ns, fits) = trace::total(spans, "experiments.fit");
    let (eval_ns, evals) = trace::total(spans, "metrics.evaluate");
    report.metric("experiments.fit_ms", "ms", fit_ns as f64 / 1e6 / fits.max(1) as f64, fits);
    report.metric("experiments.other_ms", "ms", (rep_ns - fit_ns) as f64 / 1e6 / reps as f64, reps);
    report.metric("metrics.evaluate_ms", "ms", eval_ns as f64 / 1e6 / evals.max(1) as f64, evals);

    let gen_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fit::fit_inputs(seed));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric(
        "data.generate_ms",
        "ms",
        stats::median(&gen_ms).unwrap_or(f64::NAN),
        gen_ms.len(),
    );

    let preset = fit::quick_preset();
    let cfg = Scale::Quick.train_config(preset.lr, preset.l2, fit::FIT_SEED);
    match fit_method(fit::hap_spec(), &preset, &inputs.train, &inputs.val, &cfg) {
        Ok(m) => {
            report.ops(1, 0);
            report.metric("core.iterations_run", "count", m.report().iterations_run as f64, 1)
        }
        Err(e) => {
            report.ops(1, 0);
            report.check(false, format!("fit_hap fit failed: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Serving layers
// ---------------------------------------------------------------------------

/// Median wall-clock (µs) of `calls` runs of `f`.
fn median_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times).unwrap_or(f64::NAN)
}

fn serve_layers(report: &mut Report, tr: &mut Tracer, seed: u64) {
    let registry = serve::load_registry();
    let pool = RequestPool::new(&registry, seed);
    let models: Vec<&FittedModel<Box<dyn Backbone>>> =
        pool.models.iter().map(|m| registry.require(m).expect("a registry model")).collect();
    let model_of = |i: usize| registry.require(pool.request(i).0).expect("a registry model");

    // Persistence: what a serving process pays to come up.
    let dir = std::path::Path::new(serve::REGISTRY_DIR);
    let load_ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ModelRegistry::load_dir(dir).map(|r| r.len()).unwrap_or(0));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric("persist.load_ms", "ms", stats::median(&load_ms).unwrap_or(f64::NAN), 20);
    let bytes: usize = models.iter().map(|m| m.to_sbrl_bytes().len()).sum();
    let save_us = median_us(20, |_| {
        std::hint::black_box(models.iter().map(|m| m.to_sbrl_bytes().len()).sum::<usize>());
    });
    report.metric("persist.save_ms", "ms", save_us / 1e3, 20);
    report.metric("persist.bytes", "bytes", bytes as f64, models.len());

    // Inference alone.
    let predict_us = median_us(CALLS, |i| {
        std::hint::black_box(model_of(i).predict(pool.request(i).1));
    });
    report.metric("models.predict_us", "us", predict_us, CALLS);
    let stack: Matrix =
        (1..64).fold(pool.request(0).1.clone(), |acc, i| acc.vstack(pool.request(i * 8).1));
    let batched_us = median_us(20, |_| {
        std::hint::black_box(models[0].try_predict_batched(&stack, 0).map(|e| e.y0_hat.len()).ok());
    });
    report.metric("models.predict_ns_per_row", "ns", batched_us * 1e3 / stack.rows() as f64, 20);
    let direct_us = median_us(CALLS, |i| {
        std::hint::black_box(model_of(i).try_predict_batched(pool.request(i).1, 0).is_ok());
    });

    // The in-process service, one request at a time.
    let svc =
        InferenceService::start(serve::load_registry(), ServeConfig::default()).expect("start");
    let mut wrong = 0;
    for i in 0..CALLS {
        tr.set_request(1_000_000 + i as u64);
        let (name, x) = pool.request(i);
        tr.begin("request.inproc");
        let pending = tr.leaf("serve.submit", || svc.submit(name, x.clone()));
        let got = tr.leaf("serve.wait", || pending.map(|p| p.wait()));
        tr.end();
        if !got.ok().and_then(Result::ok).is_some_and(|e| pool.matches(i, &e)) {
            wrong += 1;
        }
    }
    report.ops(CALLS as u64, 0);
    if wrong > 0 {
        report.fail(wrong, format!("{wrong} in-process answers differ from FittedModel::predict"));
    }
    let inproc_us = median_us(CALLS, |i| {
        let (name, x) = pool.request(i);
        std::hint::black_box(svc.predict(name, x.clone()).is_ok());
    });
    report.metric("serve.inproc_us", "us", inproc_us, CALLS);
    report.metric("serve.admit_wait_us", "us", inproc_us - direct_us, CALLS);

    // Bursts into the same service: queue depth and shedding.
    let mut tally = serve::Tally::default();
    let burst = serve::burst_phase(&svc, &pool, 100, 0, true, &mut tally);
    tally.check(report);
    let depth = stats::tail(&burst.depth).map_or(0.0, |t| t.value);
    report.metric("serve.queue_depth_p99", "count", depth, burst.depth.len());
    report.metric(
        "serve.shed_ratio",
        "ratio",
        burst.shed as f64 / burst.submitted.max(1) as f64,
        burst.submitted,
    );
    report.ops(burst.submitted as u64, burst.failed as u64);
    svc.drain();

    // The wire codec on a 16-row request and its reply.
    let (name, x) = pool.request(0);
    let request = Message::Predict { model: name.into(), x: x.clone() };
    let est = models[0].predict(x);
    let reply = Message::Prediction { y0_hat: est.y0_hat.clone(), y1_hat: est.y1_hat.clone() };
    let req_frame = wire::encode_message(&request).expect("encode a request");
    let rep_frame = wire::encode_message(&reply).expect("encode a reply");
    let encode_us = median_us(CALLS, |_| {
        std::hint::black_box(wire::encode_message(&request).map(|f| f.len()).ok());
        std::hint::black_box(wire::encode_message(&reply).map(|f| f.len()).ok());
    });
    let decode_us = median_us(CALLS, |_| {
        std::hint::black_box(wire::decode_message(&req_frame).is_ok());
        std::hint::black_box(wire::decode_message(&rep_frame).is_ok());
    });
    report.metric("wire.encode_us", "us", encode_us, CALLS);
    report.metric("wire.decode_us", "us", decode_us, CALLS);
    report.metric("wire.frame_bytes", "bytes", (req_frame.len() + rep_frame.len()) as f64, 1);

    // The socket: health probes (no batcher) and predictions.
    let rig = serve::socket_rig(&pool);
    let mut client = ServeClient::connect(rig.server.local_addr(), ClientConfig::default());
    let health_us = median_us(CALLS, |_| {
        std::hint::black_box(client.health().is_ok());
    });
    report.metric("wire.health_rtt_us", "us", health_us, CALLS);
    let mut wrong = 0;
    let rtt_us = median_us(CALLS, |i| {
        let (name, x) = pool.request(i);
        let ok = client.predict(name, x).is_ok_and(|e| pool.matches(i, &e));
        wrong += u64::from(!ok);
    });
    report.ops(CALLS as u64, 0);
    if wrong > 0 {
        report.fail(wrong, format!("{wrong} socket answers differ from FittedModel::predict"));
    }
    report.metric("serve.socket_rtt_us", "us", rtt_us, CALLS);
    report.metric("serve.socket_hop_us", "us", rtt_us - inproc_us, CALLS);

    // Per-request spans over the raw stream, and the same loop untraced.
    let first_span = tr.spans().len();
    let mut stream = rig.stream.try_clone().expect("clone the client stream");
    let socket_request = |tr: &mut Tracer, i: usize, s: &mut TcpStream| {
        tr.set_request(2_000_000 + i as u64);
        let (name, x) = pool.request(i);
        tr.begin("request.socket");
        let frame = tr.leaf("wire.encode", || {
            wire::encode_message(&Message::Predict { model: name.into(), x: x.clone() })
        });
        let ok = tr.leaf("wire.transport", || {
            frame.is_ok_and(|f| s.write_all(&f).is_ok()) && wire::read_message(s).is_ok()
        });
        tr.end();
        ok
    };
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for i in 0..CALLS {
        for (tracer, times) in [(&mut off, &mut untraced), (&mut *tr, &mut traced)] {
            let t = Instant::now();
            failed += u64::from(!socket_request(tracer, i, &mut stream));
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let untraced_us = stats::median(&untraced).unwrap_or(f64::NAN);
    let traced_us = stats::median(&traced).unwrap_or(f64::NAN);
    report.ops(2 * CALLS as u64, failed);
    let spans = &tr.spans_since(first_span);
    report.metric(
        "serve.unattributed_share",
        "ratio",
        trace::unattributed_share(spans, "request.socket", &[]),
        CALLS,
    );
    report.metric("trace.request_overhead_us", "us", traced_us - untraced_us, CALLS);

    // One second of open-loop traffic at the heavy rate: generator lateness.
    let mut tally = serve::Tally::default();
    let n = serve::HEAVY_RATE as usize;
    let phase = serve::socket_phase(&rig.stream, &pool, serve::HEAVY_RATE, n, 0, &mut tally);
    tally.check(report);
    let late = phase.lateness_us();
    report.ops(phase.attempted() as u64, phase.failed() as u64);
    report.metric("gen.late_p50_us", "us", stats::median(&late).unwrap_or(f64::NAN), late.len());
    report.metric(
        "gen.late_p99_us",
        "us",
        stats::tail(&late).map_or(f64::NAN, |t| t.value),
        late.len(),
    );
    drop((stream, client));
    rig.close();
}

/// The traced run: every layer probe, spans written to
/// `perfbench/out/trace-<workload>-<seed>.jsonl`.
pub fn run(workload: &str, seed: u64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(true);
    let inputs = fit::fit_inputs(seed);
    fit_layers(&mut report, &mut tr, &inputs);
    experiment_layers(&mut report, &mut tr, &inputs, seed);
    serve_layers(&mut report, &mut tr, seed);
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
    }
    report
}
