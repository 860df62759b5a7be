//! Five-minute tour of the library: draw a selection-biased synthetic
//! population from the paper's synthetic process, fit a vanilla CFR and a
//! CFR+SBRL-HAP through the fluent `Estimator` builder, and compare their
//! heterogeneous-treatment-effect error in-distribution versus on a
//! strongly shifted out-of-distribution population.
//!
//! Run with: `cargo run --release --example quickstart`

use sbrl_hap::core::{Estimator, SbrlConfig, TrainConfig};
use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::{CfrConfig, TarnetConfig};
use sbrl_hap::stats::IpmKind;

fn main() {
    // 1. The paper's synthetic process Syn_8_8_8_2: 8 instruments, 8
    //    confounders, 8 adjustment variables and 2 unstable features whose
    //    correlation with the outcome flips across environments. One seeded
    //    mechanism yields every environment; the bias rate rho picks it.
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 7);
    let train_data = process.generate(2.5, 2000, 70); // training environment
    let val_data = process.generate(2.5, 600, 71);
    let id_test = process.generate(2.5, 1000, 72); // same distribution
    let ood_test = process.generate(-3.0, 1000, 72); // shifted environment

    println!(
        "train: {} units, {:.0}% treated",
        train_data.n(),
        100.0 * train_data.treated_fraction()
    );
    println!("true ATE (train env): {:.3}\n", train_data.true_ate().unwrap());

    // 2. Shared backbone architecture and optimisation budget.
    let arch = TarnetConfig {
        rep_layers: 2,
        rep_width: 48,
        head_layers: 2,
        head_width: 24,
        batch_norm: true,
        rep_normalization: false,
        in_dim: train_data.dim(),
    };
    let cfr_config = CfrConfig { arch, alpha: 0.05, ipm: IpmKind::MmdLin };
    let train_cfg = TrainConfig { iterations: 400, ..TrainConfig::default() };

    // 3. Fit the vanilla CFR baseline and the full SBRL-HAP wrapper through
    //    the fluent builder. A fitted model is immutable and thread-safe.
    let fitted_vanilla = Estimator::builder()
        .backbone(cfr_config)
        .train(train_cfg)
        .seed(0)
        .fit(&train_data, &val_data)
        .expect("vanilla training");
    let fitted_hap = Estimator::builder()
        .backbone(cfr_config)
        .sbrl(SbrlConfig::sbrl_hap(0.05, 1.0, 1.0, 0.1))
        .train(train_cfg)
        .seed(0)
        .fit(&train_data, &val_data)
        .expect("SBRL-HAP training");

    // 4. Compare PEHE (individual-level error) and ATE bias in- and
    //    out-of-distribution.
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "method", "ID PEHE", "OOD PEHE", "ID eATE", "OOD eATE"
    );
    for (name, fitted) in [("CFR", &fitted_vanilla), ("CFR+SBRL-HAP", &fitted_hap)] {
        let id_eval = fitted.evaluate(&id_test).expect("oracle");
        let ood_eval = fitted.evaluate(&ood_test).expect("oracle");
        println!(
            "{name:<16} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            id_eval.pehe, ood_eval.pehe, id_eval.ate_bias, ood_eval.ate_bias
        );
    }

    // 5. Serving-shaped inference: predict_batched shards the rows across
    //    the persistent worker pool and returns bit-identical outputs.
    let sequential = fitted_hap.predict(&ood_test.x);
    let sharded = fitted_hap.predict_batched(&ood_test.x, 4);
    assert_eq!(sequential.y0_hat, sharded.y0_hat);
    assert_eq!(sequential.y1_hat, sharded.y1_hat);
    println!("\npredict_batched(4 workers) is bit-identical to sequential predict");

    let (min, mean, max) = {
        let w = fitted_hap.weights();
        let min = w.iter().copied().fold(f64::INFINITY, f64::min);
        let max = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (min, w.iter().sum::<f64>() / w.len() as f64, max)
    };
    println!("learned sample weights: min {min:.3}, mean {mean:.3}, max {max:.3}");
    println!(
        "(expected shape: SBRL-HAP degrades less from the ID to the OOD column;\n\
         single runs are noisy — the table1 binary averages replications)"
    );
}
