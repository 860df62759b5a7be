//! **Fig. 6** — hyper-parameter sensitivity of the hierarchical attention
//! coefficients `{γ1, γ2, γ3}` on `Syn_16_16_16_2` (CFR+SBRL-HAP backbone).
//!
//! Each coefficient sweeps `{0, 0.01, 0.1, 1, 10, 100}` with the other two
//! held at the preset optimum; the artefact reports PEHE on the ID
//! environment (`ρ = 2.5`) and the factual F1 score on the far OOD
//! environment (`ρ = −3`).

use sbrl_core::Framework;
use sbrl_data::{SyntheticConfig, SyntheticProcess};

use crate::methods::{BackboneKind, MethodSpec};
use crate::presets::paper_syn_16_16_16_2;
use crate::report::{fmt_num, render_table, results_dir, write_tsv};
use crate::runner::{fit_method, fit_noted, FitNotes};
use crate::scale::Scale;

/// The sweep values of Fig. 6.
pub const SWEEP: [f64; 6] = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0];

/// One sweep point result.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Which coefficient was swept (1, 2 or 3).
    pub gamma_index: usize,
    /// The coefficient value.
    pub value: f64,
    /// PEHE at `ρ = 2.5`.
    pub pehe_id: f64,
    /// Factual F1 at `ρ = −3`.
    pub f1_ood: f64,
}

/// Enumerates `(gamma_index, gammas)` combinations for the sweep.
pub fn sweep_grid(optimum: (f64, f64, f64)) -> Vec<(usize, f64, (f64, f64, f64))> {
    let mut grid = Vec::with_capacity(3 * SWEEP.len());
    for (idx, _) in [optimum.0, optimum.1, optimum.2].iter().enumerate() {
        for &v in &SWEEP {
            let mut g = optimum;
            match idx {
                0 => g.0 = v,
                1 => g.1 = v,
                _ => g.2 = v,
            }
            grid.push((idx + 1, v, g));
        }
    }
    grid
}

/// Runs the sweep and returns the points; failed sweep points are skipped,
/// and the notes record them and the points recovered by reseeded retries.
pub fn analyse(scale: Scale) -> (Vec<SweepPoint>, FitNotes) {
    let base_preset = scale.preset(paper_syn_16_16_16_2());
    let (n_train, n_val, n_test) = scale.synthetic_samples();
    let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), 9);
    let train_data = process.generate(2.5, n_train, 0);
    let val_data = process.generate(2.5, n_val, 1);
    let test_id = process.generate(2.5, n_test, 2);
    let test_ood = process.generate(-3.0, n_test, 3);
    let spec = MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::SbrlHap };

    let mut notes = FitNotes::default();
    let points = sweep_grid(base_preset.gammas)
        .into_iter()
        .filter_map(|(idx, value, gammas)| {
            let preset = crate::methods::ExperimentPreset { gammas, ..base_preset };
            let train_cfg = scale.train_config(preset.lr, preset.l2, (idx * 17) as u64);
            let label = format!("sweep point gamma{idx} = {value}");
            let fitted = notes.keep(
                "fig6",
                fit_noted(&label, &train_cfg, |cfg| {
                    fit_method(spec, &preset, &train_data, &val_data, cfg)
                }),
            )?;
            // lint: allow(panic) — simulator splits always carry the oracle;
            // a miss is a generator bug that must stop the sweep loudly.
            let id = fitted.evaluate(&test_id).expect("oracle");
            // lint: allow(panic) — as above.
            let ood = fitted.evaluate(&test_ood).expect("oracle");
            eprintln!(
                "[fig6] gamma{idx} = {value}: PEHE_id {:.3}, F1_ood {:.3}",
                id.pehe, ood.factual_score
            );
            Some(SweepPoint {
                gamma_index: idx,
                value,
                pehe_id: id.pehe,
                f1_ood: ood.factual_score,
            })
        })
        .collect();
    (points, notes)
}

/// Runs Fig. 6 and renders the report.
pub fn run(scale: Scale) -> String {
    let (points, notes) = analyse(scale);
    let header = vec![
        "Coefficient".to_string(),
        "Value".into(),
        "PEHE rho=2.5".into(),
        "F1 factual rho=-3".into(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("gamma{}", p.gamma_index),
                format!("{}", p.value),
                fmt_num(p.pehe_id),
                fmt_num(p.f1_ood),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!("Fig. 6 — gamma sensitivity (CFR+SBRL-HAP), scale {}", scale.name()),
        &header,
        &rows,
    );
    write_tsv(results_dir().join("fig6_gamma_sensitivity.tsv"), &header, &rows).ok();
    out.push_str(&notes.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_covers_three_coefficients_times_six_values() {
        let grid = sweep_grid((1.0, 0.001, 0.001));
        assert_eq!(grid.len(), 18);
        // First block sweeps gamma1, others stay at the optimum.
        let (idx, v, g) = grid[0];
        assert_eq!(idx, 1);
        assert_eq!(v, 0.0);
        assert_eq!(g, (0.0, 0.001, 0.001));
        let (idx2, v2, g2) = grid[17];
        assert_eq!(idx2, 3);
        assert_eq!(v2, 100.0);
        assert_eq!(g2, (1.0, 0.001, 100.0));
    }

    #[test]
    fn sweep_values_match_the_paper() {
        assert_eq!(SWEEP, [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]);
    }
}
