//! **Table III** — treatment-effect estimation on the real-world-style
//! benchmarks: Twins (10 partition rounds) and IHDP (100 outcome
//! replications), reporting PEHE and `ε_ATE` on the train / validation /
//! (OOD) test folds for the 9-method grid.

use sbrl_data::{DataError, DataSplit, IhdpConfig, IhdpSimulator, TwinsConfig, TwinsSimulator};
use sbrl_metrics::Evaluation;

use crate::methods::MethodSpec;
use crate::presets::{paper_ihdp, paper_twins};
use crate::report::{fmt_mean_std, render_table, results_dir, write_tsv};
use crate::runner::{fit_method, fit_noted, FitNotes};
use crate::scale::Scale;

/// Per-method, per-fold evaluations across replications.
pub struct RealWorldResults {
    /// Method label.
    pub method: String,
    /// Evaluations on the training fold.
    pub train: Vec<Evaluation>,
    /// Evaluations on the validation fold.
    pub val: Vec<Evaluation>,
    /// Evaluations on the (distribution-shifted) test fold.
    pub test: Vec<Evaluation>,
    /// Failed replications (skipped rather than fatal) and replications
    /// that only succeeded after one or more reseeded retries.
    pub notes: FitNotes,
}

fn run_splits(
    name: &str,
    splits: &[DataSplit],
    preset: &crate::methods::ExperimentPreset,
    scale: Scale,
    methods: &[MethodSpec],
) -> Vec<RealWorldResults> {
    let mut results: Vec<RealWorldResults> = methods
        .iter()
        .map(|m| RealWorldResults {
            method: m.name(),
            train: Vec::new(),
            val: Vec::new(),
            test: Vec::new(),
            notes: FitNotes::default(),
        })
        .collect();
    let tag = format!("table3:{name}");
    for (rep, split) in splits.iter().enumerate() {
        for (mi, spec) in methods.iter().enumerate() {
            let train_cfg = scale.train_config(preset.lr, preset.l2, (rep * 131 + mi) as u64);
            let label = format!("rep {}/{} method {}", rep + 1, splits.len(), spec.name());
            let fit = fit_noted(&label, &train_cfg, |cfg| {
                fit_method(*spec, preset, &split.train, &split.val, cfg)
            });
            let Some(fitted) = results[mi].notes.keep(&tag, fit) else { continue };
            // lint: allow(panic) — simulator splits always carry the oracle.
            results[mi].train.push(fitted.evaluate(&split.train).expect("oracle"));
            // lint: allow(panic) — as above.
            results[mi].val.push(fitted.evaluate(&split.val).expect("oracle"));
            // lint: allow(panic) — as above.
            results[mi].test.push(fitted.evaluate(&split.test).expect("oracle"));
            eprintln!("[{tag}] {label} done");
        }
    }
    results
}

fn blocks(results: &[RealWorldResults]) -> (Vec<String>, Vec<Vec<String>>) {
    let header = vec![
        "Method".to_string(),
        "PEHE train".into(),
        "PEHE val".into(),
        "PEHE test".into(),
        "eATE train".into(),
        "eATE val".into(),
        "eATE test".into(),
    ];
    let pick = |evals: &[Evaluation], f: fn(&Evaluation) -> f64| -> Vec<f64> {
        evals.iter().map(f).collect()
    };
    let rows = results
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                fmt_mean_std(&pick(&r.train, |e| e.pehe)),
                fmt_mean_std(&pick(&r.val, |e| e.pehe)),
                fmt_mean_std(&pick(&r.test, |e| e.pehe)),
                fmt_mean_std(&pick(&r.train, |e| e.ate_bias)),
                fmt_mean_std(&pick(&r.val, |e| e.ate_bias)),
                fmt_mean_std(&pick(&r.test, |e| e.ate_bias)),
            ]
        })
        .collect();
    (header, rows)
}

/// Fits every method on every replication and renders one block of the
/// table. A [`DataError`] from the simulator leaves the block without
/// replications and is reported the way a failed fit is.
fn run_block(
    name: &str,
    title: &str,
    splits: Result<Vec<DataSplit>, DataError>,
    preset: &crate::methods::ExperimentPreset,
    scale: Scale,
    methods: &[MethodSpec],
) -> String {
    let mut notes = FitNotes::default();
    let splits = splits.unwrap_or_else(|e| {
        notes.fail(&format!("table3:{name}"), format!("{title} data FAILED: {e}"));
        Vec::new()
    });
    let mut results = run_splits(name, &splits, preset, scale, methods);
    let (header, rows) = blocks(&results);
    let mut out =
        render_table(&format!("Table III ({title}) — scale {}", scale.name()), &header, &rows);
    write_tsv(results_dir().join(format!("table3_{name}.tsv")), &header, &rows).ok();
    for r in &mut results {
        notes.append(&mut r.notes);
    }
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
        let results = vec![RealWorldResults {
            method: "CFR".into(),
            train: vec![eval],
            val: vec![eval],
            test: vec![eval],
            notes: FitNotes::default(),
        }];
        let (header, rows) = blocks(&results);
        assert_eq!(header.len(), 7);
        assert_eq!(rows[0][1], "0.500±0.000");
        assert_eq!(rows[0][4], "0.100±0.000");
    }
}
