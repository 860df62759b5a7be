//! Blocked-GEMM kernel bench at `Syn_16_16_16_2` training shapes: the
//! batch-by-width products of one forward pass, the fused-transpose
//! backward pair, the weight phase's HSIC-RFF covariance pair and its
//! `k = 1` mean outer product, and a head's `n = 1` weight gradient, each
//! timed in the default `NumericsMode::BitExact` tier and in
//! `NumericsMode::Fast` (FMA contraction), each case's tier pinned with
//! `NumericsMode::scoped`.
//! Emits the baseline tracked in `results/BENCH_gemm.json`
//! (see `docs/PERFORMANCE.md`).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_tensor::kernels::{gemm_into, gemm_tn_into, NumericsMode};
use sbrl_tensor::rng::{randn, rng_from_seed};
use sbrl_tensor::Matrix;
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = rng_from_seed(0);
    let mut group = c.benchmark_group("gemm");
    let tiers = [("serial", NumericsMode::BitExact), ("fast", NumericsMode::Fast)];

    // Forward-pass shapes of a syn_16 (50-feature) batch at paper widths
    // (256 x 50 -> rep width 128 -> 128), plus a square stress shape.
    for (label, m, k, n) in [
        ("fwd_256x50x128", 256, 50, 128),
        ("fwd_256x128x128", 256, 128, 128),
        ("square_256", 256, 256, 256),
    ] {
        let a = randn(&mut rng, m, k);
        let b = randn(&mut rng, k, n);
        for (tier, mode) in tiers {
            group.bench_function(&format!("{label}/{tier}"), |bch| {
                mode.scoped(|| bch.iter(|| black_box(a.matmul(&b))));
            });
        }
    }

    // The autodiff tape's MatMul backward pair: dA = g * B^T, dB = A^T * g.
    let x = randn(&mut rng, 256, 128);
    let g = randn(&mut rng, 256, 128);
    for (tier, mode) in tiers {
        group.bench_function(&format!("bwd_nt_256x128x128/{tier}"), |bch| {
            mode.scoped(|| bch.iter(|| black_box(g.matmul_nt(&x))));
        });
        group.bench_function(&format!("bwd_tn_256x128x128/{tier}"), |bch| {
            mode.scoped(|| bch.iter(|| black_box(x.matmul_tn(&g))));
        });
    }

    // The weight phase's HSIC-RFF covariance `F^T (F o w)` over a 128-row
    // batch at a 160-wide tap, and its backward `F G`: the largest GEMMs of
    // a CFR+SBRL-HAP step.
    let f = randn(&mut rng, 128, 160);
    let fw = randn(&mut rng, 128, 160);
    let gc = randn(&mut rng, 160, 160);
    for (tier, mode) in tiers {
        group.bench_function(&format!("hsic_cov_tn_160x128x160/{tier}"), |bch| {
            mode.scoped(|| bch.iter(|| black_box(f.matmul_tn(&fw))));
        });
        group.bench_function(&format!("hsic_bwd_nn_128x160x160/{tier}"), |bch| {
            mode.scoped(|| bch.iter(|| black_box(f.matmul(&gc))));
        });
    }

    // The HSIC-RFF covariance's mean outer product `m^T m`, `k = 1`
    // (hundreds of calls per CFR+SBRL-HAP fit), into a reused buffer as the
    // tape runs it: its cost is writing the output.
    let u = randn(&mut rng, 160, 1);
    let v = randn(&mut rng, 1, 160);
    let mut uv = Matrix::zeros(160, 160);
    for (tier, mode) in tiers {
        group.bench_function(&format!("outer_160x1x160/{tier}"), |bch| {
            mode.scoped(|| bch.iter(|| gemm_into(&u, &v, black_box(&mut uv))));
        });
    }

    // A quick-preset head's last-layer weight gradient `hᵀ g`: a 24-wide
    // hidden layer over a 128-row batch into one output column, the tn
    // product of the `n = 1` kernel, into a reused buffer as the tape runs it.
    let h = randn(&mut rng, 128, 24);
    let gh = randn(&mut rng, 128, 1);
    let mut dw = Matrix::zeros(24, 1);
    for (tier, mode) in tiers {
        group.bench_function(&format!("head_bwd_tn_24x128x1/{tier}"), |bch| {
            mode.scoped(|| bch.iter(|| gemm_tn_into(&h, &gh, black_box(&mut dw))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_gemm
}
criterion_main!(benches);
