//! **Fig. 3 & Fig. 4** — the high-dimensional sweep on `Syn_16_16_16_2`.
//!
//! Fig. 3 plots PEHE versus the test bias rate `ρ` for the 9-method grid
//! (trained at `ρ = 2.5`); Fig. 4 plots factual and counterfactual F1
//! scores, with each method's mean ± std across all test environments. Both
//! come from one sweep, so this module runs it once and renders both
//! artefacts.

use sbrl_data::SyntheticConfig;
use sbrl_metrics::{env_aggregate, Evaluation};

use crate::methods::MethodSpec;
use crate::presets::paper_syn_16_16_16_2;
use crate::report::{fmt_mean_std, fmt_opt, render_table, save_table};
use crate::runner::{run_synthetic_sweep, FitNotes, MethodEnvResults, SyntheticExperiment};
use crate::scale::Scale;

/// Builds the Fig. 3/4 experiment for a scale.
pub fn experiment(scale: Scale) -> SyntheticExperiment {
    let preset = scale.preset(paper_syn_16_16_16_2());
    SyntheticExperiment::paper_sweep(SyntheticConfig::syn_16_16_16_2(), preset, scale)
}

/// Per-method series of one metric across environments (a "figure" as rows),
/// with the mean and std of the method's environment means. An environment
/// where every replication failed is left out of them; a method with none
/// left renders `n/a`.
pub fn series_block(
    rhos: &[f64],
    results: &[MethodEnvResults],
    metric: impl Fn(&Evaluation) -> f64 + Copy,
) -> (Vec<String>, Vec<Vec<String>>) {
    let mut header = vec!["Method".to_string()];
    header.extend(rhos.iter().map(|r| format!("rho={r}")));
    header.push("mean".to_string());
    header.push("std".to_string());
    let mut rows = Vec::new();
    for r in results {
        let mut row = vec![r.method.clone()];
        row.extend((0..rhos.len()).map(|env| fmt_mean_std(&r.metric(env, metric))));
        let env_means: Vec<f64> = (0..rhos.len()).filter_map(|env| r.mean(env, metric)).collect();
        let agg = (!env_means.is_empty()).then(|| env_aggregate(&env_means));
        row.push(fmt_opt(agg.map(|a| a.mean)));
        row.push(fmt_opt(agg.map(|a| a.std)));
        rows.push(row);
    }
    (header, rows)
}

/// The paper's headline degradation statistic (footnote 2 of Sec. V-D):
/// `(metric(ρ=-3) - metric(ρ=2.5)) / metric(ρ=2.5)` per method; `n/a`
/// where every replication of either environment failed.
pub fn degradation_block(
    rhos: &[f64],
    results: &[MethodEnvResults],
) -> (Vec<String>, Vec<Vec<String>>) {
    let idx_of = |target: f64| rhos.iter().position(|&r| r == target);
    let header = vec![
        "Method".to_string(),
        "PEHE(rho=2.5)".into(),
        "PEHE(rho=-3)".into(),
        "Decrease".into(),
    ];
    let mut rows = Vec::new();
    if let (Some(id_train), Some(id_far)) = (idx_of(2.5), idx_of(-3.0)) {
        for r in results {
            let base = r.mean(id_train, |e| e.pehe);
            let far = r.mean(id_far, |e| e.pehe);
            let decrease = base.zip(far).map_or_else(
                || "n/a".to_string(),
                |(base, far)| format!("{:+.1}%", 100.0 * (far - base) / base.max(1e-12)),
            );
            rows.push(vec![r.method.clone(), fmt_opt(base), fmt_opt(far), decrease]);
        }
    }
    (header, rows)
}

/// Runs the sweep once and renders Fig. 3 + Fig. 4 (+ degradation summary).
pub fn run(scale: Scale) -> String {
    let exp = experiment(scale);
    let methods = MethodSpec::grid();
    let results = run_synthetic_sweep(&exp, &methods, |msg| eprintln!("[fig3/4] {msg}"));
    render(&exp, &results, scale)
}

/// Renders from precomputed results (shared with the bench harness).
pub fn render(exp: &SyntheticExperiment, results: &[MethodEnvResults], scale: Scale) -> String {
    let (h3, r3) = series_block(&exp.test_rhos, results, |e| e.pehe);
    let mut out = save_table(
        &format!("Fig. 3 — PEHE vs rho on Syn_16_16_16_2, scale {}", scale.name()),
        "fig3_pehe.tsv",
        &h3,
        &r3,
    );

    let (hd, rd) = degradation_block(&exp.test_rhos, results);
    out.push_str(&render_table("Fig. 3 companion — OOD performance decrease", &hd, &rd));

    let (h4f, r4f) = series_block(&exp.test_rhos, results, |e| e.factual_score);
    out.push_str(&save_table(
        &format!("Fig. 4a — factual F1 vs rho, scale {}", scale.name()),
        "fig4_factual_f1.tsv",
        &h4f,
        &r4f,
    ));

    let (h4c, r4c) = series_block(&exp.test_rhos, results, |e| e.counterfactual_score);
    out.push_str(&save_table(
        &format!("Fig. 4b — counterfactual F1 vs rho, scale {}", scale.name()),
        "fig4_counterfactual_f1.tsv",
        &h4c,
        &r4c,
    ));
    out.push_str(&FitNotes::of_sweep(results).render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake() -> Vec<MethodEnvResults> {
        let eval = |pehe: f64, f1: f64| Evaluation {
            pehe,
            ate_bias: 0.0,
            factual_score: f1,
            counterfactual_score: f1 - 0.05,
        };
        vec![MethodEnvResults {
            method: "CFR".into(),
            per_env: vec![vec![eval(0.4, 0.8)], vec![eval(0.7, 0.6)]],
            failures: Vec::new(),
            retries: Vec::new(),
        }]
    }

    #[test]
    fn series_block_appends_mean_and_std() {
        let (header, rows) = series_block(&[2.5, -3.0], &fake(), |e| e.pehe);
        assert_eq!(header.last().unwrap(), "std");
        assert_eq!(rows[0].len(), 5);
        // mean of (0.4, 0.7) = 0.55
        assert_eq!(rows[0][3], "0.550");
    }

    #[test]
    fn degradation_block_computes_relative_decrease() {
        let (_, rows) = degradation_block(&[2.5, -3.0], &fake());
        assert_eq!(rows.len(), 1);
        // (0.7 - 0.4)/0.4 = +75%
        assert_eq!(rows[0][3], "+75.0%");
    }

    #[test]
    fn failed_cells_are_left_out_not_read_as_zero() {
        let eval = |pehe: f64| Evaluation { pehe, ..Default::default() };
        let mut results = fake();
        // Every replication of the far environment failed.
        results.push(MethodEnvResults {
            method: "TARNet".into(),
            per_env: vec![vec![eval(0.4)], Vec::new()],
            ..MethodEnvResults::default()
        });
        // Every replication failed.
        results.push(MethodEnvResults {
            method: "DeR-CFR".into(),
            per_env: vec![Vec::new(), Vec::new()],
            ..MethodEnvResults::default()
        });
        let (_, rows) = series_block(&[2.5, -3.0], &results, |e| e.pehe);
        assert_eq!(rows[1][1..], ["0.400±0.000", "n/a", "0.400", "0.000"]);
        assert_eq!(rows[2][1..], ["n/a", "n/a", "n/a", "n/a"]);
        let (_, rows) = degradation_block(&[2.5, -3.0], &results);
        assert_eq!(rows[1][1..], ["0.400", "n/a", "n/a"]);
        assert_eq!(rows[2][1..], ["n/a", "n/a", "n/a"]);
    }

    #[test]
    fn experiment_is_high_dimensional() {
        assert_eq!(experiment(Scale::Bench).data_cfg.dim(), 50);
    }
}
