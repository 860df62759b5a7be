//! # sbrl-experiments
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation section (README.md's "Reproducing the paper's tables and
//! figures" gives each binary's command line):
//!
//! | Artefact | Module | Binary |
//! |----------|--------|--------|
//! | Table I  | [`table1`] | `table1` |
//! | Fig. 3 & Fig. 4 | [`fig34`] | `fig3` |
//! | Fig. 5   | [`fig5`] | `fig5` |
//! | Table II | [`table2`] | `table2_ablation` |
//! | Table III| [`table3`] | `table3_realworld` |
//! | Fig. 6   | [`fig6`] | `fig6_hparam` |
//! | Table VI | [`table6`] | `table6_time` |
//!
//! Every binary accepts `--scale bench|quick|paper` (default `quick`);
//! results are printed as markdown tables and persisted as TSV under
//! `results/`.

pub mod fig34;
pub mod fig5;
pub mod fig6;
pub mod methods;
pub mod presets;
pub mod report;
pub mod runner;
pub mod scale;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table6;

pub use methods::{BackboneConfig, BackboneKind, ExperimentPreset, MethodSpec};
pub use runner::{
    fit_method, fit_noted, retry_seed, retrying, run_synthetic_sweep, FitNotes, MethodEnvResults,
    Noted, SyntheticExperiment, DEFAULT_FIT_RETRIES,
};
pub use scale::{ParseScaleError, Scale};
