//! End-to-end Twins-like study (the paper's Sec. V-E1 protocol): mortality
//! of the heavier versus lighter twin, with a distribution-shifted test fold
//! drawn at bias rate `ρ = -2.5` over the unstable covariates.
//!
//! Runs several partition rounds, trains DeR-CFR with and without SBRL-HAP,
//! and reports train/test PEHE and ATE bias (mean ± std across rounds),
//! mirroring one block of the paper's Table III.
//!
//! Run with: `cargo run --release --example twins_study`

use sbrl_hap::core::{Estimator, SbrlConfig, TrainConfig};
use sbrl_hap::data::{DataError, TwinsConfig, TwinsSimulator};
use sbrl_hap::metrics::mean_std;
use sbrl_hap::models::{DerCfrConfig, TarnetConfig};
use sbrl_hap::stats::IpmKind;

const ROUNDS: u64 = 3;

fn main() -> Result<(), DataError> {
    let sim = TwinsSimulator::try_new(TwinsConfig { n: 2500, ..Default::default() }, 17)?;
    let full = sim.full();
    println!(
        "Twins-like cohort: {} same-sex twin pairs, {} covariates, {:.1}% mortality (lighter twin)",
        full.n(),
        full.dim(),
        100.0 * full.mu0.as_ref().unwrap().iter().sum::<f64>() / full.n() as f64
    );

    let arch = TarnetConfig {
        rep_layers: 2,
        rep_width: 48,
        head_layers: 2,
        head_width: 24,
        batch_norm: true,
        rep_normalization: true,
        in_dim: full.dim(),
    };
    let dercfr_cfg =
        DerCfrConfig { arch, alpha: 0.01, beta: 5.0, gamma: 1e-4, mu: 5.0, ipm: IpmKind::MmdLin };
    let budget = TrainConfig { iterations: 350, ..TrainConfig::default() };

    let mut results: Vec<(String, Vec<f64>, Vec<f64>)> = vec![
        ("DeRCFR".into(), Vec::new(), Vec::new()),
        ("DeRCFR+SBRL-HAP".into(), Vec::new(), Vec::new()),
    ];

    for round in 0..ROUNDS {
        let split = sim.try_partition(round)?;
        for (idx, sbrl) in [SbrlConfig::vanilla(), SbrlConfig::sbrl_hap(0.01, 1.0, 1.0, 0.01)]
            .into_iter()
            .enumerate()
        {
            let fitted = Estimator::builder()
                .backbone(dercfr_cfg)
                .sbrl(sbrl)
                .train(budget)
                .seed(round * 13 + idx as u64)
                .fit(&split.train, &split.val)
                .expect("training");
            let test_eval = fitted.evaluate(&split.test).expect("oracle");
            let train_eval = fitted.evaluate(&split.train).expect("oracle");
            results[idx].1.push(test_eval.pehe);
            results[idx].2.push(test_eval.ate_bias);
            eprintln!(
                "round {}: {} train PEHE {:.3} | test PEHE {:.3}",
                round + 1,
                results[idx].0,
                train_eval.pehe,
                test_eval.pehe
            );
        }
    }

    println!("\n{:<18} {:>18} {:>18}", "method", "test PEHE", "test eATE");
    for (name, pehes, ates) in &results {
        let (pm, ps) = mean_std(pehes);
        let (am, as_) = mean_std(ates);
        println!("{name:<18} {pm:>11.3}±{ps:.3} {am:>11.3}±{as_:.3}");
    }
    println!(
        "\nThe test fold was sampled at ρ = -2.5 over the unstable covariates,\n\
         so it is a (mildly) out-of-distribution population — the paper notes\n\
         Twins' shift level is low because many covariates are near-duplicates."
    );
    Ok(())
}
