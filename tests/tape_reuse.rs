//! Bit-identity guarantees of the reusable tape: a pooled `Graph` that is
//! `reset()` between optimisation steps must reproduce, bit for bit, the
//! numbers a fresh `Graph::new()` per step produces — across random layer
//! shapes, batch sizes and step counts, through a full Adam training loop
//! and through the scratch-reusing decorrelation regularizer.

use proptest::prelude::*;
use sbrl_hap::nn::{Activation, Adam, Binding, Mlp, Optimizer, ParamStore};
use sbrl_hap::stats::{decorrelation_loss_graph_scratch, DecorrelationConfig, HsicScratch, Rff};
use sbrl_hap::tensor::rng::{randn, rng_from_seed};
use sbrl_hap::tensor::{Graph, Matrix, TensorId};

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One MSE training step on `g`: forward the MLP, square-error against a
/// target, backward, Adam update. Returns nothing; the store mutates.
fn train_step(
    g: &mut Graph,
    store: &mut ParamStore,
    mlp: &Mlp,
    opt: &mut Adam,
    x: &Matrix,
    y: &Matrix,
) {
    let mut binding = Binding::new(store);
    let xc = g.constant_copied(x);
    let out = mlp.forward(store, &mut binding, g, xc);
    let target = g.constant_copied(y);
    let diff = g.sub(out.output, target);
    let sq = g.square(diff);
    let loss = g.mean(sq);
    g.backward(loss);
    opt.step(store, g, &binding);
    let taps = out.taps;
    g.give_id_buf(taps);
}

fn build_mlp(dims: &[usize], seed: u64) -> (ParamStore, Mlp) {
    let mut store = ParamStore::new();
    let mut rng = rng_from_seed(seed);
    let mlp = Mlp::new(&mut store, &mut rng, "mlp", dims, Activation::Identity);
    (store, mlp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A pooled, reset tape trains an MLP to bit-identical parameters
    /// compared with a fresh graph per step, for random widths, batch sizes
    /// and step counts.
    #[test]
    fn pooled_training_loop_is_bit_identical_to_fresh_graphs(
        cfg in (1usize..24, 1usize..12, 1usize..20, 2usize..10),
        seed in 1u64..1000,
    ) {
        let (in_dim, hidden, batch, steps) = cfg;
        let dims = [in_dim, hidden, 1];

        let (mut store_fresh, mlp_fresh) = build_mlp(&dims, seed);
        let (mut store_pooled, mlp_pooled) = build_mlp(&dims, seed);
        let mut opt_fresh = Adam::new(&store_fresh, 1e-2);
        let mut opt_pooled = Adam::new(&store_pooled, 1e-2);

        let mut data_rng = rng_from_seed(seed ^ 0xdead);
        let batches: Vec<(Matrix, Matrix)> =
            (0..steps).map(|_| (randn(&mut data_rng, batch, in_dim), randn(&mut data_rng, batch, 1))).collect();

        let mut pooled = Graph::new();
        for (step, (x, y)) in batches.iter().enumerate() {
            let mut fresh = Graph::new();
            train_step(&mut fresh, &mut store_fresh, &mlp_fresh, &mut opt_fresh, x, y);

            pooled.reset();
            train_step(&mut pooled, &mut store_pooled, &mlp_pooled, &mut opt_pooled, x, y);

            let _ = step;
            for ((_, _, fresh_v), (_, _, pooled_v)) in store_fresh.iter().zip(store_pooled.iter()) {
                prop_assert_eq!(bits(fresh_v), bits(pooled_v));
            }
        }
    }

    /// The scratch-reusing decorrelation loss matches the scratch-free one
    /// bit for bit — loss value and weight gradient — across steps, shapes
    /// and subsampling configurations.
    #[test]
    fn decorrelation_scratch_is_bit_identical_across_steps(
        cfg in (4usize..40, 2usize..12, 1usize..8, 1usize..5),
        seed in 1u64..1000,
    ) {
        let (n, d, k, steps) = cfg;
        let mut rng = rng_from_seed(seed);
        let rff = Rff::sample(&mut rng, k);
        let cfg_decor = DecorrelationConfig {
            max_features: Some(d.min(6)),
            ..DecorrelationConfig::default()
        };

        let run = |use_scratch: bool| -> Vec<(u64, Vec<u64>)> {
            let mut out = Vec::new();
            let mut g = Graph::new();
            let mut scratch = HsicScratch::new();
            let mut data_rng = rng_from_seed(seed ^ 0xbeef);
            // One RNG for the subsample draws, consumed identically by both
            // variants across steps.
            let mut sub_rng = rng_from_seed(seed ^ 0x50b5);
            for _ in 0..steps {
                g.reset();
                let z = randn(&mut data_rng, n, d);
                let w_init = randn(&mut data_rng, n, 1).map(|v| 1.0 + 0.2 * v.tanh());
                let zc = g.constant_copied(&z);
                let w = g.param_copied(&w_init);
                let mut fresh = HsicScratch::new();
                let scratch = if use_scratch { &mut scratch } else { &mut fresh };
                let loss = decorrelation_loss_graph_scratch(
                    &mut g, zc, w, &rff, &cfg_decor, &mut sub_rng, scratch,
                );
                g.backward(loss);
                let grad = g.grad(w).map(bits).unwrap_or_default();
                out.push((g.scalar(loss).to_bits(), grad));
            }
            out
        };

        prop_assert_eq!(run(true), run(false));
    }
}

/// The fused ops (`rff_features`, `sumsq`, `matmul_tn`,
/// `block_masked_sumsq`) must reproduce the historical op chains bit for
/// bit, values and gradients, on random inputs.
#[test]
fn fused_ops_match_their_op_chains() {
    /// The unfused feature map: one `scale`/`add_scalar`/`cos`/`scale` block
    /// per coefficient pair, left-nested through `concat_cols`.
    fn rff_chain(g: &mut Graph, z: TensorId, coefs: &[(f64, f64)], s: f64) -> TensorId {
        let mut chain = None;
        for &(omega, phi) in coefs {
            let sc = g.scale(z, omega);
            let sh = g.add_scalar(sc, phi);
            let co = g.cos(sh);
            let block = g.scale(co, s);
            chain = Some(match chain {
                None => block,
                Some(acc) => g.concat_cols(acc, block),
            });
        }
        chain.expect("at least one coefficient pair")
    }

    let mut rng = rng_from_seed(42);
    for case in 0..20 {
        let n = 2 + case % 7;
        let d = 1 + case % 5;
        let z = randn(&mut rng, n, d);
        let (omega, phi, s) = (0.3 + case as f64 * 0.17, 1.1 - case as f64 * 0.05, 1.25);

        // rff_features == scale/add_scalar/cos/scale blocks + concat_cols,
        // a single block included
        for k in [1, 3] {
            let coefs: Vec<(f64, f64)> =
                (0..k).map(|i| (omega + i as f64 * 0.4, phi - i as f64 * 0.2)).collect();
            let mut gc = Graph::new();
            let zc = gc.param_copied(&z);
            let f_fused = gc.rff_features(zc, &coefs, s);
            let lc = gc.sumsq(f_fused);
            gc.backward(lc);
            let mut gd = Graph::new();
            let zd = gd.param_copied(&z);
            let f_chain = rff_chain(&mut gd, zd, &coefs, s);
            let ld = gd.sumsq(f_chain);
            gd.backward(ld);
            assert_eq!(gc.scalar(lc).to_bits(), gd.scalar(ld).to_bits(), "rff_features value");
            assert_eq!(
                bits(gc.grad(zc).unwrap()),
                bits(gd.grad(zd).unwrap()),
                "rff_features gradient ({k} blocks)"
            );
        }

        // ... including when the input has a second, later-recorded consumer
        // (the input's gradient slot is already populated when the fused
        // backward runs, exercising the per-block replay path).
        let coefs: Vec<(f64, f64)> =
            (0..3).map(|i| (omega + i as f64 * 0.4, phi - i as f64 * 0.2)).collect();
        let mut gm = Graph::new();
        let zm = gm.param_copied(&z);
        let fm = gm.rff_features(zm, &coefs, s);
        let lm1 = gm.sumsq(fm);
        let lm2 = gm.sumsq(zm);
        let lm = gm.add(lm1, lm2);
        gm.backward(lm);
        let mut gn = Graph::new();
        let zn = gn.param_copied(&z);
        let f_chain = rff_chain(&mut gn, zn, &coefs, s);
        let ln1 = gn.sumsq(f_chain);
        let ln2 = gn.sumsq(zn);
        let ln = gn.add(ln1, ln2);
        gn.backward(ln);
        assert_eq!(gm.scalar(lm).to_bits(), gn.scalar(ln).to_bits(), "rff_features value");
        assert_eq!(
            bits(gm.grad(zm).unwrap()),
            bits(gn.grad(zn).unwrap()),
            "rff_features gradient with a second consumer"
        );

        // matmul_tn == transpose + matmul; block_masked_sumsq == mask chain
        let a = randn(&mut rng, n, d);
        let b = randn(&mut rng, n, d + 1);
        let mut ge = Graph::new();
        let ae = ge.param_copied(&a);
        let be = ge.param_copied(&b);
        let prod = ge.matmul_tn(ae, be);
        let le = ge.sumsq(prod);
        ge.backward(le);
        let mut gf = Graph::new();
        let af = gf.param_copied(&a);
        let bf = gf.param_copied(&b);
        let at = gf.transpose(af);
        let prod2 = gf.matmul(at, bf);
        let sq2 = gf.square(prod2);
        let lf = gf.sum(sq2);
        gf.backward(lf);
        assert_eq!(ge.scalar(le).to_bits(), gf.scalar(lf).to_bits(), "matmul_tn value");
        assert_eq!(bits(ge.grad(ae).unwrap()), bits(gf.grad(af).unwrap()), "matmul_tn da");
        assert_eq!(bits(ge.grad(be).unwrap()), bits(gf.grad(bf).unwrap()), "matmul_tn db");

        let kd = 2 * d;
        let sqm = randn(&mut rng, kd, kd);
        for keep in [false, true] {
            let mut gg = Graph::new();
            let mg = gg.param_copied(&sqm);
            let lg = gg.block_masked_sumsq(mg, d, keep);
            gg.backward(lg);
            let mut gh = Graph::new();
            let mh = gh.param_copied(&sqm);
            let mask =
                Matrix::from_fn(kd, kd, |p, q| if (p % d == q % d) == keep { 1.0 } else { 0.0 });
            let mask_c = gh.constant_copied(&mask);
            let masked = gh.mul(mh, mask_c);
            let sq3 = gh.square(masked);
            let lh = gh.sum(sq3);
            gh.backward(lh);
            assert_eq!(
                gg.scalar(lg).to_bits(),
                gh.scalar(lh).to_bits(),
                "block_masked_sumsq value (keep={keep})"
            );
            assert_eq!(
                bits(gg.grad(mg).unwrap()),
                bits(gh.grad(mh).unwrap()),
                "block_masked_sumsq gradient (keep={keep})"
            );
        }
    }
}
