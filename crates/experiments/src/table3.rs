//! **Table III** — treatment-effect estimation on the real-world-style
//! benchmarks: Twins (10 partition rounds) and IHDP (100 outcome
//! replications), reporting PEHE and `ε_ATE` on the train / validation /
//! (OOD) test folds for the 9-method grid.

use std::borrow::Cow;

use sbrl_data::{DataError, DataSplit, IhdpConfig, IhdpSimulator, TwinsConfig, TwinsSimulator};
use sbrl_metrics::Evaluation;

use crate::methods::{ExperimentPreset, MethodSpec};
use crate::presets::{paper_ihdp, paper_twins};
use crate::report::{fmt_mean_std, save_table};
use crate::runner::{fit_method, fit_noted, run_grid, FitNotes, MethodEnvResults};
use crate::scale::Scale;

fn blocks(results: &[MethodEnvResults]) -> (Vec<String>, Vec<Vec<String>>) {
    let header = vec![
        "Method".to_string(),
        "PEHE train".into(),
        "PEHE val".into(),
        "PEHE test".into(),
        "eATE train".into(),
        "eATE val".into(),
        "eATE test".into(),
    ];
    let metrics: [fn(&Evaluation) -> f64; 2] = [|e| e.pehe, |e| e.ate_bias];
    let rows = results
        .iter()
        .map(|r| {
            let cells = metrics
                .iter()
                .flat_map(|&metric| (0..3).map(move |fold| fmt_mean_std(&r.metric(fold, metric))));
            std::iter::once(r.method.clone()).chain(cells).collect()
        })
        .collect();
    (header, rows)
}

/// Fits every method on every replication's train/val folds, scores each
/// fit on the train, validation and test folds, and renders one block of
/// the table. A [`DataError`] from the simulator leaves the block without
/// replications and is reported the way a failed fit is.
fn run_block(
    name: &str,
    title: &str,
    splits: Result<Vec<DataSplit>, DataError>,
    preset: &ExperimentPreset,
    scale: Scale,
    methods: &[MethodSpec],
) -> String {
    let tag = format!("table3:{name}");
    let mut notes = FitNotes::default();
    let splits = splits.unwrap_or_else(|e| {
        notes.fail(&tag, format!("{title} data FAILED: {e}"));
        Vec::new()
    });
    let arms: Vec<String> = methods.iter().map(|m| m.name()).collect();
    let results = run_grid(
        &arms,
        splits.len(),
        3,
        |msg| eprintln!("[{tag}] {msg}"),
        |rep| {
            let split = &splits[rep];
            let fits = methods
                .iter()
                .enumerate()
                .map(|(mi, spec)| {
                    let train_cfg =
                        scale.train_config(preset.lr, preset.l2, (rep * 131 + mi) as u64);
                    let label = format!("rep {}/{} method {}", rep + 1, splits.len(), spec.name());
                    fit_noted(&label, &train_cfg, |cfg| {
                        fit_method(*spec, preset, &split.train, &split.val, cfg)
                    })
                })
                .collect();
            (split, fits)
        },
        |_, fold, split| Cow::Borrowed([&split.train, &split.val, &split.test][fold]),
    );
    let (header, rows) = blocks(&results);
    let mut out = save_table(
        &format!("Table III ({title}) — scale {}", scale.name()),
        &format!("table3_{name}.tsv"),
        &header,
        &rows,
    );
    notes.append(&mut FitNotes::of_sweep(&results));
    out.push_str(&notes.render());
    out
}

/// Runs the Twins block of Table III.
pub fn run_twins(scale: Scale, methods: &[MethodSpec]) -> String {
    let preset = scale.preset(paper_twins());
    let (rounds, _) = scale.realworld_replications();
    let config = TwinsConfig { n: scale.twins_records(), ..Default::default() };
    let splits = TwinsSimulator::try_new(config, 7)
        .and_then(|sim| (0..rounds).map(|r| sim.try_partition(r as u64)).collect());
    run_block("twins", "Twins", splits, &preset, scale, methods)
}

/// Runs the IHDP block of Table III.
pub fn run_ihdp(scale: Scale, methods: &[MethodSpec]) -> String {
    let preset = scale.preset(paper_ihdp());
    let (_, reps) = scale.realworld_replications();
    let splits = IhdpSimulator::try_new(IhdpConfig::default(), 11)
        .and_then(|sim| (0..reps).map(|r| sim.try_replicate(r as u64)).collect());
    run_block("ihdp", "IHDP", splits, &preset, scale, methods)
}

/// Runs both blocks for the full grid.
pub fn run(scale: Scale) -> String {
    let methods = MethodSpec::grid();
    let mut out = run_twins(scale, &methods);
    out.push_str(&run_ihdp(scale, &methods));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_format_all_folds() {
        let eval = Evaluation { pehe: 0.5, ate_bias: 0.1, ..Default::default() };
        let results = vec![MethodEnvResults {
            method: "CFR".into(),
            per_env: vec![vec![eval]; 3],
            ..MethodEnvResults::default()
        }];
        let (header, rows) = blocks(&results);
        assert_eq!(header.len(), 7);
        assert_eq!(rows[0][1], "0.500±0.000");
        assert_eq!(rows[0][4], "0.100±0.000");
    }
}
