//! Bench for **Table III** (real-world benchmarks): one sample = one
//! method fitted on one Twins partition round / one IHDP replication.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_data::{IhdpConfig, IhdpSimulator, TwinsConfig, TwinsSimulator};
use sbrl_experiments::fit_method;
use sbrl_experiments::presets::{bench_variant, paper_ihdp, paper_twins};
use std::hint::black_box;

fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3");

    let twins_preset = bench_variant(paper_twins());
    let twins = TwinsSimulator::try_new(TwinsConfig { n: 800, ..Default::default() }, 7)
        .expect("valid config");
    let split = twins.try_partition(0).expect("simulated data carries the oracle");
    let twins_budget = common::budget(&twins_preset);
    group.bench_function("twins_round_cfr_sbrl_hap", |b| {
        b.iter(|| {
            let fitted = fit_method(
                common::hap_method(),
                &twins_preset,
                &split.train,
                &split.val,
                &twins_budget,
            )
            .expect("bench training");
            black_box(fitted.evaluate(&split.test).expect("oracle").pehe)
        });
    });

    let ihdp_preset = bench_variant(paper_ihdp());
    let ihdp = IhdpSimulator::try_new(IhdpConfig::default(), 11).expect("valid config");
    let isplit = ihdp.try_replicate(0).expect("simulated data carries the oracle");
    let ihdp_budget = common::budget(&ihdp_preset);
    group.bench_function("ihdp_rep_cfr_sbrl_hap", |b| {
        b.iter(|| {
            let fitted = fit_method(
                common::hap_method(),
                &ihdp_preset,
                &isplit.train,
                &isplit.val,
                &ihdp_budget,
            )
            .expect("bench training");
            black_box(fitted.evaluate(&isplit.test).expect("oracle").pehe)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_table3
}
criterion_main!(benches);
