//! **Table VI** — training cost: wall-clock seconds of a single execution on
//! IHDP for every method. The paper's shape: `+SBRL` roughly doubles the
//! vanilla TARNet/CFR cost (the extra weight-update phase), `+SBRL-HAP`
//! roughly triples it (hierarchical decorrelation over every layer), while
//! DeR-CFR starts higher and grows by ~1.5x.

use sbrl_data::{IhdpConfig, IhdpSimulator};

use crate::methods::MethodSpec;
use crate::presets::{bench_variant, paper_ihdp, quick_variant};
use crate::report::{render_table, results_dir, write_tsv};
use crate::runner::{fit_method_retrying, DEFAULT_FIT_RETRIES};
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
/// failed fits (and a replication the simulator cannot build) are skipped
/// and described in the second element, fits
/// recovered by reseeded retries in the third, so the report can record
/// both.
pub fn analyse(scale: Scale) -> (Vec<Timing>, Vec<String>, Vec<String>) {
    let preset = match scale {
        Scale::Paper => paper_ihdp(),
        Scale::Quick => quick_variant(paper_ihdp()),
        Scale::Bench => bench_variant(paper_ihdp()),
    };
    let mut failures = Vec::new();
    let mut retries = Vec::new();
    let split = match IhdpSimulator::try_new(IhdpConfig::default(), 3)
        .and_then(|sim| sim.try_replicate(0))
    {
        Ok(split) => split,
        Err(e) => {
            let msg = format!("IHDP data FAILED: {e}");
            crate::runner::record_failure("table6", msg, &mut failures);
            return (Vec::new(), failures, retries);
        }
    };
    let timings = MethodSpec::grid()
        .into_iter()
        .filter_map(|spec| {
            let train_cfg = scale.train_config(preset.lr, preset.l2, 1);
            let fitted = match fit_method_retrying(
                spec,
                &preset,
                &split.train,
                &split.val,
                &train_cfg,
                DEFAULT_FIT_RETRIES,
            ) {
                Ok((fitted, 0)) => fitted,
                Ok((fitted, attempts)) => {
                    let msg = format!(
                        "method {} recovered after {attempts} reseeded retries",
                        spec.name()
                    );
                    crate::runner::record_retry("table6", msg, &mut retries);
                    fitted
                }
                Err(e) => {
                    let msg = format!("method {} FAILED: {e}", spec.name());
                    crate::runner::record_failure("table6", msg, &mut failures);
                    return None;
                }
            };
            let seconds = fitted.report().train_seconds;
            eprintln!("[table6] {} trained in {seconds:.2}s", spec.name());
            Some(Timing { method: spec.name(), seconds })
        })
        .collect();
    (timings, failures, retries)
}

/// Runs Table VI and renders the report, including per-backbone ratios.
pub fn run(scale: Scale) -> String {
    let (timings, failures, retries) = analyse(scale);
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
    out.push_str(&crate::runner::render_retries(&retries));
    out.push_str(&crate::runner::render_failures(&failures));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "trains nine models; run with --ignored"]
    fn bench_scale_cost_ordering() {
        let (t, failures, _retries) = analyse(Scale::Bench);
        assert_eq!(t.len(), 9);
        assert!(failures.is_empty());
        let sec = |name: &str| t.iter().find(|x| x.method == name).unwrap().seconds;
        // The weight phase must make +SBRL strictly more expensive than
        // vanilla, and HAP more expensive than SBRL.
        assert!(sec("CFR+SBRL") > sec("CFR"));
        assert!(sec("CFR+SBRL-HAP") > sec("CFR+SBRL"));
    }
}
