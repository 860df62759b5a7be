//! Extension experiment (the paper's future-work sketch, Sec. VI): measure
//! the OOD level of each test environment and interpolate between the
//! vanilla backbone (sharp in-distribution) and the SBRL-HAP model (stable
//! out-of-distribution).
//!
//! Usage: `cargo run -p sbrl-experiments --release --bin ood_blend [--scale ...]`

use sbrl_core::{BlendedEstimator, OodDetector, OodDetectorConfig};
use sbrl_data::{SyntheticConfig, SyntheticProcess, PAPER_BIAS_RATES};
use sbrl_experiments::presets::paper_syn_8_8_8_2;
use sbrl_experiments::{fit_method, MethodSpec, Scale};
use sbrl_metrics::evaluate;

fn main() {
    let scale = Scale::from_args_or_exit();
    let preset = scale.preset(paper_syn_8_8_8_2());
    let (n_train, n_val, n_test) = scale.synthetic_samples();
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 31);
    let train_data = process.generate(2.5, n_train, 0);
    let val_data = process.generate(2.5, n_val, 1);

    eprintln!("fitting the vanilla and stable experts...");
    let budget = scale.train_config(preset.lr, preset.l2, 3);
    // Experts are selected by name — the same strings a server endpoint
    // would accept.
    let fit_by_name = |name: &str| {
        let spec: MethodSpec = name.parse().expect("grid method name");
        fit_method(spec, &preset, &train_data, &val_data, &budget).unwrap_or_else(|e| {
            eprintln!("error: training {name} failed: {e}");
            std::process::exit(1);
        })
    };
    let vanilla = fit_by_name("CFR");
    let stable = fit_by_name("CFR+SBRL-HAP");

    let detector = OodDetector::fit(&train_data.x, &OodDetectorConfig::default());
    let blender = BlendedEstimator::new(detector, 5.0);

    println!(
        "{:>6} {:>10} {:>8} {:>14} {:>14} {:>14}",
        "rho", "OOD level", "blend c", "vanilla PEHE", "stable PEHE", "blended PEHE"
    );
    for &rho in &PAPER_BIAS_RATES {
        let env = process.generate(rho, n_test, 100 + rho.to_bits() % 31);
        let c = blender.coefficient(&env.x);
        let level = blender_level(&blender, &env.x);
        let est_v = vanilla.predict(&env.x);
        let est_s = stable.predict(&env.x);
        let est_b = blender.blend(&env.x, &est_v, &est_s);
        let pv = evaluate(&est_v, &env).expect("oracle").pehe;
        let ps = evaluate(&est_s, &env).expect("oracle").pehe;
        let pb = evaluate(&est_b, &env).expect("oracle").pehe;
        println!("{rho:>6} {level:>10.2} {c:>8.2} {pv:>14.3} {ps:>14.3} {pb:>14.3}");
    }
    println!(
        "\nThe blend should track the better expert per row: vanilla near\n\
         rho = 2.5 (low OOD level), the stable model at strongly shifted rho."
    );
}

fn blender_level(blender: &BlendedEstimator, x: &sbrl_tensor::Matrix) -> f64 {
    // Invert coefficient -> level for display: c = l / (l + hp).
    let c = blender.coefficient(x);
    blender.half_point * c / (1.0 - c).max(1e-9)
}
