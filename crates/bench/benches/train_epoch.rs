//! End-to-end training bench: one bench-scale CFR+SBRL-HAP fit on
//! `Syn_16_16_16_2` (the full alternating loop — backbone GEMMs, weighted
//! IPM, HSIC-RFF decorrelation), under the serial, parallel, and
//! parallel + `NumericsMode::Fast` settings. Emits the baseline tracked in
//! `results/BENCH_train_epoch.json`.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_data::SyntheticConfig;
use sbrl_experiments::fit_method;
use sbrl_tensor::kernels::{available_cores, NumericsMode, Parallelism};
use std::hint::black_box;

fn bench_train_epoch(c: &mut Criterion) {
    let preset = common::preset_syn16();
    let data = common::synthetic_fixture(SyntheticConfig::syn_16_16_16_2(), 1);
    let budget = common::budget(&preset);
    let spec = common::hap_method();
    let parallel = Parallelism::Threads(available_cores());
    let mut group = c.benchmark_group("train_epoch");
    // Each case sets the global worker count for its duration (restored
    // from the environment afterwards) and pins its tier with `scoped`.
    for (label, par, mode) in [
        ("serial", Parallelism::Serial, NumericsMode::BitExact),
        ("parallel", parallel, NumericsMode::BitExact),
        ("fast", parallel, NumericsMode::Fast),
    ] {
        group.bench_function(&format!("syn16_sbrl_hap/{label}"), |bch| {
            par.set_global();
            mode.scoped(|| {
                bch.iter(|| {
                    let fitted = fit_method(spec, &preset, &data.train, &data.val, &budget)
                        .expect("bench training");
                    black_box(fitted.evaluate(&data.test_id).expect("oracle").pehe)
                })
            });
        });
    }
    Parallelism::from_env().set_global();
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_train_epoch
}
criterion_main!(benches);
