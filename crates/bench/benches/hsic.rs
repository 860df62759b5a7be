//! HSIC kernel-statistic bench at Fig. 5 scale: the classic biased RBF
//! estimator (O(n²) kernel fills + implicit double-centring; it used to pay
//! two O(n³) centring GEMMs) and the pairwise HSIC-RFF matrix (O(d² n) with
//! per-column feature maps computed once), in the default
//! `NumericsMode::BitExact` tier and in `NumericsMode::Fast` (FMA contraction
//! in the GEMM kernels, which only the biased estimator's kernel fills
//! run), each case's tier pinned with `NumericsMode::scoped`. Emits the
//! baseline tracked in `results/BENCH_hsic.json` (see `docs/PERFORMANCE.md`).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_stats::{hsic_biased, pairwise_hsic_matrix, Rff};
use sbrl_tensor::kernels::NumericsMode;
use sbrl_tensor::rng::{randn, rng_from_seed};
use std::hint::black_box;

fn bench_hsic(c: &mut Criterion) {
    let mut rng = rng_from_seed(0);
    let mut group = c.benchmark_group("hsic");
    let tiers = [("serial", NumericsMode::BitExact), ("fast", NumericsMode::Fast)];

    let x = randn(&mut rng, 256, 8);
    let y = randn(&mut rng, 256, 8);
    for (label, mode) in tiers {
        group.bench_function(&format!("biased_256x8/{label}"), |bch| {
            mode.scoped(|| bch.iter(|| black_box(hsic_biased(&x, &y, 1.0, 1.0))));
        });
    }

    // The Fig. 5 diagnostic: all column pairs of a 256 x 16 representation.
    let z = randn(&mut rng, 256, 16);
    let rff = Rff::sample(&mut rng, 5);
    for (label, mode) in tiers {
        group.bench_function(&format!("pairwise_256x16/{label}"), |bch| {
            mode.scoped(|| bch.iter(|| black_box(pairwise_hsic_matrix(&z, &rff, None))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_hsic
}
criterion_main!(benches);
