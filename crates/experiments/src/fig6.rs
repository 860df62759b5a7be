//! **Fig. 6** — hyper-parameter sensitivity of the hierarchical attention
//! coefficients `{γ1, γ2, γ3}` on `Syn_16_16_16_2` (CFR+SBRL-HAP backbone).
//!
//! Each coefficient sweeps `{0, 0.01, 0.1, 1, 10, 100}` with the other two
//! held at the preset optimum; the artefact reports PEHE on the ID
//! environment (`ρ = 2.5`) and the factual F1 score on the far OOD
//! environment (`ρ = −3`).

use std::borrow::Cow;

use sbrl_core::Framework;
use sbrl_data::{SyntheticConfig, SyntheticProcess};

use crate::methods::{BackboneKind, ExperimentPreset, MethodSpec};
use crate::presets::paper_syn_16_16_16_2;
use crate::report::{fmt_num, save_table};
use crate::runner::{fit_method, fit_noted, run_grid, FitNotes};
use crate::scale::Scale;
use crate::table2::ID_OOD_RHOS;

/// The sweep values of Fig. 6.
pub const SWEEP: [f64; 6] = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0];

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

/// Runs Fig. 6 and renders the report: one fit per sweep point, scored on
/// the ID and the far OOD environment. Failed sweep points are left out of
/// the table; the notes record them and the points recovered by reseeded
/// retries.
pub fn run(scale: Scale) -> String {
    let base_preset = scale.preset(paper_syn_16_16_16_2());
    let (n_train, n_val, n_test) = scale.synthetic_samples();
    let spec = MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::SbrlHap };
    let points = sweep_grid(base_preset.gammas);
    let arms: Vec<String> =
        points.iter().map(|(idx, value, _)| format!("sweep point gamma{idx} = {value}")).collect();
    let results = run_grid(
        &arms,
        1,
        ID_OOD_RHOS.len(),
        |msg| eprintln!("[fig6] {msg}"),
        |_| {
            let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), 9);
            let train_data = process.generate(2.5, n_train, 0);
            let val_data = process.generate(2.5, n_val, 1);
            let fits = points
                .iter()
                .zip(&arms)
                .map(|(&(idx, _, gammas), label)| {
                    let preset = ExperimentPreset { gammas, ..base_preset };
                    let train_cfg = scale.train_config(preset.lr, preset.l2, (idx * 17) as u64);
                    fit_noted(label, &train_cfg, |cfg| {
                        fit_method(spec, &preset, &train_data, &val_data, cfg)
                    })
                })
                .collect();
            (process, fits)
        },
        |_, k, process| Cow::Owned(process.generate(ID_OOD_RHOS[k], n_test, 2 + k as u64)),
    );

    let header = vec![
        "Coefficient".to_string(),
        "Value".into(),
        "PEHE rho=2.5".into(),
        "F1 factual rho=-3".into(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&results)
        .filter_map(|((idx, value, _), r)| {
            let (id, ood) = (r.per_env[0].first()?, r.per_env[1].first()?);
            Some(vec![
                format!("gamma{idx}"),
                format!("{value}"),
                fmt_num(id.pehe),
                fmt_num(ood.factual_score),
            ])
        })
        .collect();
    let mut out = save_table(
        &format!("Fig. 6 — gamma sensitivity (CFR+SBRL-HAP), scale {}", scale.name()),
        "fig6_gamma_sensitivity.tsv",
        &header,
        &rows,
    );
    out.push_str(&FitNotes::of_sweep(&results).render());
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
