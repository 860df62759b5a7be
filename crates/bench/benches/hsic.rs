//! HSIC kernel-statistic bench at Fig. 5 scale: the classic biased RBF
//! estimator (O(n²) kernel fills + implicit double-centring; it used to pay
//! two O(n³) centring GEMMs) and the pairwise HSIC-RFF matrix (O(d² n) with
//! per-column feature maps computed once). Each case keeps the `/serial`
//! suffix of its baseline row. Emits the baseline tracked in
//! `results/BENCH_hsic.json` (see `docs/PERFORMANCE.md`).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_stats::{hsic_biased, pairwise_hsic_matrix, Rff};
use sbrl_tensor::rng::{randn, rng_from_seed};
use std::hint::black_box;

fn bench_hsic(c: &mut Criterion) {
    let mut rng = rng_from_seed(0);
    let mut group = c.benchmark_group("hsic");

    let x = randn(&mut rng, 256, 8);
    let y = randn(&mut rng, 256, 8);
    group.bench_function("biased_256x8/serial", |bch| {
        bch.iter(|| black_box(hsic_biased(&x, &y, 1.0, 1.0)));
    });

    // The Fig. 5 diagnostic: all column pairs of a 256 x 16 representation.
    let z = randn(&mut rng, 256, 16);
    let rff = Rff::sample(&mut rng, 5);
    group.bench_function("pairwise_256x16/serial", |bch| {
        bch.iter(|| black_box(pairwise_hsic_matrix(&z, &rff, None)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_hsic
}
criterion_main!(benches);
