//! **Table II** — ablation of the three sub-modules on `Syn_16_16_16_2`:
//! every row keeps two of {BR, IR, HAP} (plus the full model) and reports
//! PEHE on the ID environment (`ρ = 2.5`) and the far OOD environment
//! (`ρ = −3`), with the CFR backbone.

use sbrl_core::{Estimator, SbrlConfig};
use sbrl_data::{SyntheticConfig, SyntheticProcess};

use crate::methods::{BackboneKind, ExperimentPreset};
use crate::presets::paper_syn_16_16_16_2;
use crate::report::{fmt_mean_std, render_table, results_dir, write_tsv};
use crate::runner::{fit_noted, FitNotes};
use crate::scale::Scale;

/// One ablation row: which sub-modules stay on.
#[derive(Clone, Copy, Debug)]
pub struct AblationRow {
    /// Balancing Regularizer kept.
    pub br: bool,
    /// Independence Regularizer kept.
    pub ir: bool,
    /// Hierarchical-Attention terms kept.
    pub hap: bool,
}

impl AblationRow {
    /// The paper's four rows.
    pub const ALL: [AblationRow; 4] = [
        AblationRow { br: false, ir: true, hap: true },
        AblationRow { br: true, ir: false, hap: true },
        AblationRow { br: true, ir: true, hap: false },
        AblationRow { br: true, ir: true, hap: true },
    ];

    /// Check-mark label, e.g. `"BR+IR"`.
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        if self.br {
            parts.push("BR");
        }
        if self.ir {
            parts.push("IR");
        }
        if self.hap {
            parts.push("HAP");
        }
        parts.join("+")
    }

    /// Translates the row into an [`SbrlConfig`] using preset coefficients.
    pub fn config(self, preset: &ExperimentPreset) -> SbrlConfig {
        let (g1, g2, g3) = preset.gammas;
        let mut cfg = SbrlConfig::sbrl_hap(preset.alpha, g1, g2, g3).with_ipm(preset.ipm);
        cfg.use_br = self.br;
        cfg.use_ir = self.ir;
        cfg.use_hap = self.hap;
        cfg
    }
}

/// Runs Table II and renders the report.
pub fn run(scale: Scale) -> String {
    let preset = scale.preset(paper_syn_16_16_16_2());
    let (n_train, n_val, n_test) = scale.synthetic_samples();
    let reps = scale.replications();

    let mut per_row: Vec<(String, Vec<f64>, Vec<f64>)> =
        AblationRow::ALL.iter().map(|r| (r.label(), Vec::new(), Vec::new())).collect();
    let mut notes = FitNotes::default();

    for rep in 0..reps {
        let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), 2000 + rep as u64);
        let train_data = process.generate(2.5, n_train, 20 * rep as u64);
        let val_data = process.generate(2.5, n_val, 20 * rep as u64 + 1);
        let test_id = process.generate(2.5, n_test, 20 * rep as u64 + 2);
        let test_ood = process.generate(-3.0, n_test, 20 * rep as u64 + 3);

        for (k, row) in AblationRow::ALL.iter().enumerate() {
            let cfg = row.config(&preset);
            let train_cfg = scale.train_config(preset.lr, preset.l2, (rep * 31 + k) as u64);
            let label = format!("rep {} row {}", rep + 1, per_row[k].0);
            let fit = fit_noted(&label, &train_cfg, |train_cfg| {
                Estimator::builder()
                    .backbone(preset.backbone_config(BackboneKind::Cfr, train_data.dim()))
                    .sbrl(cfg)
                    .train(*train_cfg)
                    .fit(&train_data, &val_data)
            });
            let Some(fitted) = notes.keep("table2", fit) else { continue };
            // lint: allow(panic) — simulator splits always carry the oracle.
            per_row[k].1.push(fitted.evaluate(&test_id).expect("oracle").pehe);
            // lint: allow(panic) — as above.
            per_row[k].2.push(fitted.evaluate(&test_ood).expect("oracle").pehe);
            eprintln!("[table2] rep {} row {} done", rep + 1, per_row[k].0);
        }
    }

    let header = vec!["Modules".to_string(), "PEHE rho=2.5".to_string(), "PEHE rho=-3".to_string()];
    let rows: Vec<Vec<String>> = per_row
        .iter()
        .map(|(label, id, ood)| vec![label.clone(), fmt_mean_std(id), fmt_mean_std(ood)])
        .collect();
    let mut out = render_table(
        &format!("Table II — sub-module ablation (CFR backbone), scale {}", scale.name()),
        &header,
        &rows,
    );
    write_tsv(results_dir().join("table2_ablation.tsv"), &header, &rows).ok();
    out.push_str(&notes.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::paper_syn_16_16_16_2;

    #[test]
    fn four_rows_matching_the_paper() {
        let labels: Vec<String> = AblationRow::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, vec!["IR+HAP", "BR+HAP", "BR+IR", "BR+IR+HAP"]);
    }

    #[test]
    fn row_config_toggles_flags() {
        let preset = paper_syn_16_16_16_2();
        let cfg = AblationRow { br: false, ir: true, hap: true }.config(&preset);
        assert!(!cfg.use_br && cfg.use_ir && cfg.use_hap);
        assert!(cfg.weights_enabled());
        let full = AblationRow { br: true, ir: true, hap: true }.config(&preset);
        assert_eq!(full.gamma1, preset.gammas.0);
    }
}
