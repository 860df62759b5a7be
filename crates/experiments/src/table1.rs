//! **Table I** — treatment-effect estimation on `Syn_8_8_8_2` across bias
//! rates `ρ ∈ {−3, −2.5, −1.5, −1.3, 1.3, 1.5, 2.5, 3}` (train: `ρ = 2.5`).
//! Reports PEHE and `ε_ATE` (mean ± std over replications) for the 9-method
//! grid plus the paper's "Improvement" row (best `+SBRL-HAP` versus best
//! vanilla baseline per column).

use sbrl_data::SyntheticConfig;
use sbrl_metrics::Evaluation;

use crate::methods::MethodSpec;
use crate::presets::paper_syn_8_8_8_2;
use crate::report::{fmt_mean_std, render_table, results_dir, write_tsv};
use crate::runner::{run_synthetic_sweep, FitNotes, MethodEnvResults, SyntheticExperiment};
use crate::scale::Scale;

/// Builds the experiment description for a scale.
pub fn experiment(scale: Scale) -> SyntheticExperiment {
    let preset = scale.preset(paper_syn_8_8_8_2());
    SyntheticExperiment::paper_sweep(SyntheticConfig::syn_8_8_8_2(), preset, scale)
}

/// The paper's per-column improvement: relative reduction of the best
/// `+SBRL-HAP` mean over the best vanilla mean (positive = we win).
pub fn improvement_row(
    results: &[MethodEnvResults],
    env_count: usize,
    metric: impl Fn(&Evaluation) -> f64 + Copy,
) -> Vec<String> {
    let mut row = vec!["Improvement".to_string()];
    for env in 0..env_count {
        let best_vanilla = results
            .iter()
            .filter(|r| !r.method.contains("+SBRL"))
            .map(|r| r.mean(env, metric))
            .fold(f64::INFINITY, f64::min);
        let best_ours = results
            .iter()
            .filter(|r| r.method.ends_with("+SBRL-HAP"))
            .map(|r| r.mean(env, metric))
            .fold(f64::INFINITY, f64::min);
        let pct = 100.0 * (best_vanilla - best_ours) / best_vanilla.max(1e-12);
        row.push(format!("{pct:+.1}%"));
    }
    row
}

/// Renders the metric block (PEHE or `ε_ATE`) of the table.
pub fn metric_block(
    rhos: &[f64],
    results: &[MethodEnvResults],
    metric: impl Fn(&Evaluation) -> f64 + Copy,
) -> (Vec<String>, Vec<Vec<String>>) {
    let mut header = vec!["Method".to_string()];
    header.extend(rhos.iter().map(|r| format!("rho={r}")));
    let mut rows = Vec::new();
    for r in results {
        let mut row = vec![r.method.clone()];
        for env in 0..rhos.len() {
            row.push(fmt_mean_std(&r.metric(env, metric)));
        }
        rows.push(row);
    }
    rows.push(improvement_row(results, rhos.len(), metric));
    (header, rows)
}

/// Runs Table I and returns the rendered report.
pub fn run(scale: Scale) -> String {
    let exp = experiment(scale);
    let methods = MethodSpec::grid();
    let results = run_synthetic_sweep(&exp, &methods, |msg| eprintln!("[table1] {msg}"));

    let mut out = String::new();
    let (header, rows) = metric_block(&exp.test_rhos, &results, |e| e.pehe);
    out.push_str(&render_table(
        &format!("Table I (PEHE) — Syn_8_8_8_2, scale {}", scale.name()),
        &header,
        &rows,
    ));
    write_tsv(results_dir().join("table1_pehe.tsv"), &header, &rows).ok();

    let (header_a, rows_a) = metric_block(&exp.test_rhos, &results, |e| e.ate_bias);
    out.push_str(&render_table(
        &format!("Table I (eATE) — Syn_8_8_8_2, scale {}", scale.name()),
        &header_a,
        &rows_a,
    ));
    write_tsv(results_dir().join("table1_ate.tsv"), &header_a, &rows_a).ok();
    out.push_str(&FitNotes::of_sweep(&results).render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_results() -> Vec<MethodEnvResults> {
        let eval = |pehe: f64| Evaluation { pehe, ate_bias: pehe / 10.0, ..Default::default() };
        vec![
            MethodEnvResults {
                method: "CFR".into(),
                per_env: vec![vec![eval(0.5)], vec![eval(0.6)]],
                failures: Vec::new(),
                retries: Vec::new(),
            },
            MethodEnvResults {
                method: "CFR+SBRL".into(),
                per_env: vec![vec![eval(0.45)], vec![eval(0.5)]],
                failures: Vec::new(),
                retries: Vec::new(),
            },
            MethodEnvResults {
                method: "CFR+SBRL-HAP".into(),
                per_env: vec![vec![eval(0.4)], vec![eval(0.45)]],
                failures: Vec::new(),
                retries: Vec::new(),
            },
        ]
    }

    #[test]
    fn improvement_row_compares_best_ours_vs_best_vanilla() {
        let row = improvement_row(&fake_results(), 2, |e| e.pehe);
        assert_eq!(row[0], "Improvement");
        // (0.5 - 0.4)/0.5 = 20%, (0.6 - 0.45)/0.6 = 25%
        assert_eq!(row[1], "+20.0%");
        assert_eq!(row[2], "+25.0%");
    }

    #[test]
    fn metric_block_shapes() {
        let (header, rows) = metric_block(&[2.5, -3.0], &fake_results(), |e| e.pehe);
        assert_eq!(header.len(), 3);
        assert_eq!(rows.len(), 4); // 3 methods + improvement
        assert!(rows[0][1].contains('±'));
    }

    #[test]
    fn experiment_uses_paper_rhos() {
        let exp = experiment(Scale::Bench);
        assert_eq!(exp.test_rhos.len(), 8);
        assert_eq!(exp.train_rho, 2.5);
        assert_eq!(exp.data_cfg.dim(), 26);
    }

    #[test]
    #[ignore = "full 9-method sweep; run with --ignored"]
    fn full_bench_scale_run() {
        let report = run(Scale::Bench);
        assert!(report.contains("Table I (PEHE)"));
    }
}
