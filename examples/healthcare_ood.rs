//! The paper's motivating scenario (Fig. 1): a treatment-effect model is
//! fitted on observational records from urban hospitals and then deployed on
//! populations it has never seen — rural clinics, different seasons, holiday
//! cohorts — each with its own covariate distribution.
//!
//! We simulate the urban training environment at bias rate `ρ = 2.5` and a
//! spectrum of deployment populations, then show how the vanilla estimator's
//! error drifts as deployment moves away from the training distribution
//! while the SBRL-HAP estimator stays flat.
//!
//! Run with: `cargo run --release --example healthcare_ood`

use sbrl_hap::core::{Estimator, SbrlConfig, TrainConfig};
use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::{CfrConfig, TarnetConfig};
use sbrl_hap::stats::IpmKind;

/// Deployment populations, ordered from "most like training" to "least".
const DEPLOYMENTS: [(&str, f64); 5] = [
    ("urban (training-like)", 2.5),
    ("suburban", 1.5),
    ("seasonal shift", 1.3),
    ("rural", -1.5),
    ("remote village", -3.0),
];

fn main() {
    // Patient covariates: demographics & vitals (confounders/adjusters) plus
    // context features (weather, locality) that are *not* causal for the
    // outcome — the unstable block V.
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 23);
    let train_data = process.generate(2.5, 2500, 0);
    let val_data = process.generate(2.5, 700, 1);

    let arch = TarnetConfig {
        rep_layers: 2,
        rep_width: 48,
        head_layers: 2,
        head_width: 24,
        batch_norm: true,
        rep_normalization: false,
        in_dim: train_data.dim(),
    };
    let cfg = CfrConfig { arch, alpha: 0.05, ipm: IpmKind::MmdLin };
    let budget = TrainConfig { iterations: 400, ..TrainConfig::default() };

    println!("fitting on the urban observational cohort ({} patients)...\n", train_data.n());
    let vanilla = Estimator::builder()
        .backbone(cfg)
        .train(budget)
        .seed(1)
        .fit(&train_data, &val_data)
        .expect("vanilla training");
    let stable = Estimator::builder()
        .backbone(cfg)
        .sbrl(SbrlConfig::sbrl_hap(0.05, 1.0, 1.0, 0.1))
        .train(budget)
        .seed(1)
        .fit(&train_data, &val_data)
        .expect("stable training");

    println!(
        "{:<24} {:>12} {:>16} {:>10}",
        "deployment population", "CFR PEHE", "+SBRL-HAP PEHE", "delta"
    );
    let mut base_id_pehe = None;
    for (name, rho) in DEPLOYMENTS {
        let cohort = process.generate(rho, 1200, 7 + rho.to_bits() % 97);
        let ev = vanilla.evaluate(&cohort).expect("oracle");
        let es = stable.evaluate(&cohort).expect("oracle");
        base_id_pehe.get_or_insert(ev.pehe);
        let delta = 100.0 * (ev.pehe - es.pehe) / ev.pehe;
        println!("{name:<24} {:>12.3} {:>16.3} {delta:>+9.1}%", ev.pehe, es.pehe);
    }

    println!(
        "\nReading guide: each row is a population the model never saw.\n\
         Both columns worsen toward the bottom rows (the deployment context\n\
         diverges from training); the stable column's edge over the vanilla\n\
         one should grow with the shift — that flattening is what 'stable\n\
         HTE estimation across OOD populations' means in the paper. A single\n\
         seed at this budget shows the direction; the table1/fig3 binaries\n\
         average replications for the full comparison."
    );
}
