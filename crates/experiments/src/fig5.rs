//! **Fig. 5** — nonlinear correlation among features of the balanced
//! representation.
//!
//! Trains CFR, CFR+SBRL and CFR+SBRL-HAP on `Syn_16_16_16_2`, samples 25
//! dimensions of the learned representation `Φ` and computes the pairwise
//! `HSIC_RFF` matrix. The paper reports the average dependence dropping
//! `0.85 → 0.64 → 0.58`; the shape to reproduce is the strict ordering
//! `CFR > CFR+SBRL > CFR+SBRL-HAP`.

use sbrl_core::Framework;
use sbrl_data::{SyntheticConfig, SyntheticProcess};
use sbrl_stats::{mean_offdiag_hsic, pairwise_hsic_matrix, Rff};
use sbrl_tensor::rng::{rng_from_seed, sample_without_replacement};
use sbrl_tensor::Matrix;

use crate::methods::{BackboneKind, MethodSpec};
use crate::presets::paper_syn_16_16_16_2;
use crate::report::{fmt_num, render_table, results_dir, write_tsv};
use crate::runner::{fit_method, fit_noted, FitNotes};
use crate::scale::Scale;

/// Result for one method: average off-diagonal HSIC and the matrix itself.
pub struct DecorrelationResult {
    /// Method label.
    pub method: String,
    /// Average pairwise `HSIC_RFF` over the sampled dimensions.
    pub mean_hsic: f64,
    /// The full pairwise matrix (for heat-map rendering).
    pub matrix: Matrix,
}

/// Number of representation dimensions sampled by the paper.
pub const SAMPLED_DIMS: usize = 25;

/// Runs the Fig. 5 analysis; failed fits are skipped, and the notes record
/// them and the fits recovered by reseeded retries.
pub fn analyse(scale: Scale) -> (Vec<DecorrelationResult>, FitNotes) {
    let preset = scale.preset(paper_syn_16_16_16_2());
    let (n_train, n_val, n_test) = scale.synthetic_samples();
    let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), 5);
    let train_data = process.generate(2.5, n_train, 0);
    let val_data = process.generate(2.5, n_val, 1);
    let probe = process.generate(2.5, n_test, 2);

    let mut rng = rng_from_seed(55);
    let rff = Rff::sample(&mut rng, Rff::DEFAULT_NUM_FUNCTIONS);

    let mut notes = FitNotes::default();
    let results = Framework::ALL
        .into_iter()
        .filter_map(|framework| {
            let spec = MethodSpec { backbone: BackboneKind::Cfr, framework };
            let train_cfg = scale.train_config(preset.lr, preset.l2, 7);
            let label = format!("method {}", spec.name());
            let fitted = notes.keep(
                "fig5",
                fit_noted(&label, &train_cfg, |cfg| {
                    fit_method(spec, &preset, &train_data, &val_data, cfg)
                }),
            )?;
            let rep = fitted.representation(&probe.x);
            // Sample 25 dimensions (or all, when the rep is narrower) and
            // standardise them so HSIC magnitudes are comparable.
            let d = rep.cols();
            let k = SAMPLED_DIMS.min(d);
            let dims = sample_without_replacement(&mut rng, d, k);
            let sub = rep.select_cols(&dims);
            let sub = sbrl_data::Scaler::fit(&sub).transform(&sub);
            let matrix = pairwise_hsic_matrix(&sub, &rff, None);
            let mean_hsic = mean_offdiag_hsic(&sub, &rff, None);
            eprintln!("[fig5] {} mean HSIC_RFF = {mean_hsic:.4}", spec.name());
            Some(DecorrelationResult { method: spec.name(), mean_hsic, matrix })
        })
        .collect();
    (results, notes)
}

/// Coarse text heat map of a pairwise matrix (darker = more dependent).
pub fn text_heatmap(m: &Matrix) -> String {
    let max = m.max().max(1e-12);
    let shades = [' ', '.', ':', '+', '#', '@'];
    let mut out = String::new();
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            let level = ((m[(i, j)] / max) * (shades.len() - 1) as f64).round() as usize;
            out.push(shades[level.min(shades.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// Runs Fig. 5 and renders the report.
pub fn run(scale: Scale) -> String {
    let (results, notes) = analyse(scale);
    let header = vec!["Method".to_string(), "avg HSIC_RFF".to_string()];
    let rows: Vec<Vec<String>> =
        results.iter().map(|r| vec![r.method.clone(), fmt_num(r.mean_hsic)]).collect();
    let mut out = render_table(
        &format!("Fig. 5 — representation decorrelation, scale {}", scale.name()),
        &header,
        &rows,
    );
    write_tsv(results_dir().join("fig5_hsic.tsv"), &header, &rows).ok();
    out.push_str(&notes.render());
    for r in &results {
        out.push_str(&format!(
            "\n{} heat map ({}x{}):\n",
            r.method,
            r.matrix.rows(),
            r.matrix.cols()
        ));
        out.push_str(&text_heatmap(&r.matrix));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shades_scale_with_magnitude() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.5, 1.0]);
        let h = text_heatmap(&m);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].chars().next(), Some('@'));
        assert_eq!(lines[0].chars().nth(1), Some(' '));
    }

    #[test]
    fn sampled_dims_matches_paper() {
        assert_eq!(SAMPLED_DIMS, 25);
    }

    #[test]
    #[ignore = "trains three models; run with --ignored"]
    fn bench_scale_ordering_smoke() {
        let (results, notes) = analyse(Scale::Bench);
        assert_eq!(results.len(), 3);
        assert!(notes.failures.is_empty());
        assert!(results.iter().all(|r| r.mean_hsic.is_finite()));
    }
}
