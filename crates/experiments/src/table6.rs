//! **Table VI** — training cost: wall-clock seconds of a single execution on
//! IHDP for every method. The paper's shape: `+SBRL` roughly doubles the
//! vanilla TARNet/CFR cost (the extra weight-update phase), `+SBRL-HAP`
//! roughly triples it (hierarchical decorrelation over every layer), while
//! DeR-CFR starts higher and grows by ~1.5x.

use sbrl_data::{IhdpConfig, IhdpSimulator};

use crate::methods::MethodSpec;
use crate::presets::paper_ihdp;
use crate::report::{render_table, results_dir, write_tsv};
use crate::runner::{fit_method, fit_noted, FitNotes};
use crate::scale::Scale;

/// One timing measurement.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Method label.
    pub method: String,
    /// Wall-clock seconds of one training execution.
    pub seconds: f64,
}

/// Measures a single training execution per method on one IHDP replication;
/// failed fits (and a replication the simulator cannot build) are skipped,
/// and the notes record them and the fits recovered by reseeded retries.
pub fn analyse(scale: Scale) -> (Vec<Timing>, FitNotes) {
    let preset = scale.preset(paper_ihdp());
    let mut notes = FitNotes::default();
    let split = match IhdpSimulator::try_new(IhdpConfig::default(), 3)
        .and_then(|sim| sim.try_replicate(0))
    {
        Ok(split) => split,
        Err(e) => {
            notes.fail("table6", format!("IHDP data FAILED: {e}"));
            return (Vec::new(), notes);
        }
    };
    let timings = MethodSpec::grid()
        .into_iter()
        .filter_map(|spec| {
            let train_cfg = scale.train_config(preset.lr, preset.l2, 1);
            let label = format!("method {}", spec.name());
            let fitted = notes.keep(
                "table6",
                fit_noted(&label, &train_cfg, |cfg| {
                    fit_method(spec, &preset, &split.train, &split.val, cfg)
                }),
            )?;
            let seconds = fitted.report().train_seconds;
            eprintln!("[table6] {} trained in {seconds:.2}s", spec.name());
            Some(Timing { method: spec.name(), seconds })
        })
        .collect();
    (timings, notes)
}

/// Runs Table VI and renders the report, including per-backbone ratios.
pub fn run(scale: Scale) -> String {
    let (timings, notes) = analyse(scale);
    let base_of = |name: &str| {
        timings.iter().find(|t| t.method == name).map(|t| t.seconds).unwrap_or(f64::NAN)
    };
    let header =
        vec!["Method".to_string(), "Time (s)".to_string(), "x vanilla backbone".to_string()];
    let rows: Vec<Vec<String>> = timings
        .iter()
        .map(|t| {
            let backbone = t.method.split('+').next().unwrap_or(&t.method).to_string();
            let ratio = t.seconds / base_of(&backbone);
            vec![t.method.clone(), format!("{:.2}", t.seconds), format!("{ratio:.2}x")]
        })
        .collect();
    let mut out = render_table(
        &format!("Table VI — training time per execution on IHDP, scale {}", scale.name()),
        &header,
        &rows,
    );
    write_tsv(results_dir().join("table6_time.tsv"), &header, &rows).ok();
    out.push_str(&notes.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "trains nine models; run with --ignored"]
    fn bench_scale_cost_ordering() {
        let (t, notes) = analyse(Scale::Bench);
        assert_eq!(t.len(), 9);
        assert!(notes.failures.is_empty());
        let sec = |name: &str| t.iter().find(|x| x.method == name).unwrap().seconds;
        // The weight phase must make +SBRL strictly more expensive than
        // vanilla, and HAP more expensive than SBRL.
        assert!(sec("CFR+SBRL") > sec("CFR"));
        assert!(sec("CFR+SBRL-HAP") > sec("CFR+SBRL"));
    }
}
