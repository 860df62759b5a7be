//! Bench for **Table VI** (training cost): directly measures the quantity
//! the table reports — wall-clock of a single training execution on IHDP —
//! for the vanilla / +SBRL / +SBRL-HAP CFR variants, exposing the cost
//! ordering the paper describes (vanilla < +SBRL < +SBRL-HAP).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use sbrl_core::Framework;
use sbrl_data::{IhdpConfig, IhdpSimulator};
use sbrl_experiments::presets::{bench_variant, paper_ihdp};
use sbrl_experiments::{fit_method, BackboneKind, MethodSpec};
use std::hint::black_box;

fn bench_table6(c: &mut Criterion) {
    let preset = bench_variant(paper_ihdp());
    let sim = IhdpSimulator::try_new(IhdpConfig::default(), 3).expect("valid config");
    let split = sim.try_replicate(0).expect("simulated data carries the oracle");
    let budget = common::budget(&preset);
    let mut group = c.benchmark_group("table6");
    for (label, framework) in [
        ("cfr_vanilla", Framework::Vanilla),
        ("cfr_sbrl", Framework::Sbrl),
        ("cfr_sbrl_hap", Framework::SbrlHap),
    ] {
        let spec = MethodSpec { backbone: BackboneKind::Cfr, framework };
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    fit_method(spec, &preset, &split.train, &split.val, &budget)
                        .expect("bench training"),
                )
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench_table6
}
criterion_main!(benches);
