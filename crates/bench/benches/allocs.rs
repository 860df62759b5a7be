//! Allocation-count and thread-spawn probes: a warmed-up two-phase SBRL-HAP
//! optimisation step — the exact per-iteration structure of
//! `sbrl-core`'s trainer (network phase + weight phase, reusable tape,
//! recycled bindings/context/scratch) — must perform **zero** heap
//! allocations (under `Parallelism::Serial`), and once the persistent
//! worker pool is warm the parallel path must spawn **zero** new threads
//! per step.
//!
//! Requires the `alloc-probe` feature, which installs the counting global
//! allocator from `sbrl_bench::alloc_probe`:
//!
//! ```sh
//! cargo bench -p sbrl-bench --features alloc-probe --bench allocs
//! ```
//!
//! The step uses a fixed batch (the trainer's shapes recur per step; a fixed
//! batch makes the shape set deterministic, so the warm-up provably
//! populates every buffer-pool class). The allocation section runs under
//! `Parallelism::Serial` (worker threads would allocate their stacks); the
//! thread-spawn section then warms the pool with one step under
//! `Parallelism::Threads(4)`, whose decorrelation terms run as pool tasks,
//! and asserts `sbrl_tensor::workers::threads_spawned()` stays flat.

use sbrl_bench::alloc_probe;
use sbrl_core::{weight_objective, SampleWeights, SbrlConfig};
use sbrl_data::{SyntheticConfig, SyntheticProcess};
use sbrl_models::{select_by_treatment, Backbone, BatchContext, Cfr, CfrConfig};
use sbrl_nn::{loss::l2_penalty, Adam, Binding, Optimizer, OutcomeLoss};
use sbrl_stats::{HsicScratch, Rff};
use sbrl_tensor::rng::rng_from_seed;
use sbrl_tensor::{Graph, Parallelism};

const BATCH: usize = 64;
const WARMUP_STEPS: usize = 10;
const MEASURED_STEPS: usize = 25;

/// The allocation probe, then the thread-spawn probe. `--test` smoke mode
/// (CI bench smoke) runs it once like any other bench; the assertion is
/// identical either way.
fn main() {
    Parallelism::Serial.set_global();

    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 7);
    let data = process.generate(2.5, 256, 0);
    let mut rng = rng_from_seed(0);
    let mut model = Cfr::new(CfrConfig::small(data.dim()), &mut rng);
    let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
    let rff = Rff::sample(&mut rng, sbrl.rff_functions.max(1));
    let l2_handles = model.l2_handles();
    let loss_kind = OutcomeLoss::BceWithLogits;

    let mut weights = SampleWeights::new(data.n(), 1e-2);
    let mut opt = Adam::new(model.store(), 1e-3);
    let mut tape = Graph::new();
    let mut net_binding = Binding::new(model.store());
    let mut frozen_binding = Binding::new_frozen(model.store());
    let mut w_binding = weights.new_binding();
    let mut scratch = HsicScratch::new();

    let batch: Vec<usize> = (0..BATCH).collect();
    let tb: Vec<f64> = batch.iter().map(|&i| data.t[i]).collect();
    let yb: Vec<f64> = batch.iter().map(|&i| data.yf[i]).collect();
    let mut ctx = BatchContext::default();
    ctx.rebuild(&tb);

    let mut step = |tape: &mut Graph,
                    model: &mut Cfr,
                    weights: &mut SampleWeights,
                    net_binding: &mut Binding,
                    frozen_binding: &mut Binding,
                    w_binding: &mut Binding,
                    scratch: &mut HsicScratch,
                    rng: &mut rand::rngs::StdRng| {
        // ---- Phase 1: network update, weights fixed (trainer shape) ----
        {
            tape.reset();
            net_binding.reset(model.store());
            let g = &mut *tape;
            let x = g.constant_selected_rows(&data.x, &batch);
            let pass = model.train_step().forward(g, net_binding, x, &ctx);
            let fac = select_by_treatment(g, &ctx, pass.y1_raw, pass.y0_raw);
            let target = g.constant_col(&yb);
            let w_node = weights.bind_const(g, &batch);
            let pred = loss_kind.weighted_loss(g, fac, target, w_node);
            let with_reg = g.add(pred, pass.reg_loss);
            let l2 = l2_penalty(g, model.store(), net_binding, &l2_handles, 1e-4);
            let total = g.add(with_reg, l2);
            g.give_id_buf(pass.taps.z_o);
            g.backward(total);
            opt.step(model.store_mut(), g, net_binding);
        }
        // ---- Phase 2: weight update, network frozen ----
        {
            tape.reset();
            frozen_binding.reset(model.store());
            weights.reset_binding(w_binding);
            let g = &mut *tape;
            let x = g.constant_selected_rows(&data.x, &batch);
            let pass = model.train_step().forward_without_reg(g, frozen_binding, x, &ctx);
            let w = weights.bind_trainable(g, w_binding, &batch);
            let r_w = weights.r_w(g, w);
            let terms = weight_objective(g, &sbrl, &pass.taps, &ctx, w, r_w, &rff, rng, scratch);
            g.give_id_buf(pass.taps.z_o);
            g.backward(terms.total);
            weights.step(g, w_binding);
        }
    };

    for _ in 0..WARMUP_STEPS {
        step(
            &mut tape,
            &mut model,
            &mut weights,
            &mut net_binding,
            &mut frozen_binding,
            &mut w_binding,
            &mut scratch,
            &mut rng,
        );
    }

    let before = alloc_probe::allocation_count();
    for _ in 0..MEASURED_STEPS {
        step(
            &mut tape,
            &mut model,
            &mut weights,
            &mut net_binding,
            &mut frozen_binding,
            &mut w_binding,
            &mut scratch,
            &mut rng,
        );
    }
    let delta = alloc_probe::allocation_count() - before;

    println!(
        "allocs: {delta} heap allocations across {MEASURED_STEPS} steady-state steps \
         ({WARMUP_STEPS} warm-up steps, batch {BATCH}, CFR + SBRL-HAP, serial)"
    );
    assert_eq!(delta, 0, "steady-state training steps must not allocate");
    println!("test allocs/steady_state_steps_allocate_zero ... ok");

    // ---- Thread-spawn probe --------------------------------------------
    // The persistent worker pool replaces PR 3's per-call `thread::scope`
    // spawns. Warm it with one step under the parallel knob (the weight
    // phase runs its decorrelation terms as pool tasks), then assert that
    // further training steps spawn zero new threads.
    Parallelism::Threads(4).set_global();
    step(
        &mut tape,
        &mut model,
        &mut weights,
        &mut net_binding,
        &mut frozen_binding,
        &mut w_binding,
        &mut scratch,
        &mut rng,
    );
    let warmed = sbrl_tensor::workers::threads_spawned();
    assert!(warmed > 0, "the warm-up step must have run its decorrelation terms on the pool");

    for _ in 0..MEASURED_STEPS {
        step(
            &mut tape,
            &mut model,
            &mut weights,
            &mut net_binding,
            &mut frozen_binding,
            &mut w_binding,
            &mut scratch,
            &mut rng,
        );
    }
    let spawned = sbrl_tensor::workers::threads_spawned() - warmed;

    Parallelism::Serial.set_global();
    println!(
        "threads: {spawned} spawned across {MEASURED_STEPS} warmed-up parallel steps \
         (pool size {})",
        sbrl_tensor::workers::pool_size()
    );
    assert_eq!(spawned, 0, "warmed-up parallel steps must not spawn threads");
    println!("test allocs/steady_state_steps_spawn_zero_threads ... ok");
}
