//! Experiment scales: the paper's full settings versus CPU-friendly
//! variants for quick runs and Criterion benches.

use std::fmt;
use std::str::FromStr;

use sbrl_core::TrainConfig;

use crate::methods::ExperimentPreset;
use crate::presets::{bench_variant, quick_variant};

/// Typed error for an unrecognised `--scale` value, listing the valid
/// scales so experiment binaries can fail with an actionable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScaleError {
    /// The rejected value, or `None` when `--scale` had no value at all.
    pub input: Option<String>,
}

impl fmt::Display for ParseScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(input) => {
                write!(
                    f,
                    "unrecognised --scale value '{input}' (valid scales: bench, quick, paper)"
                )
            }
            None => write!(f, "--scale needs a value (valid scales: bench, quick, paper)"),
        }
    }
}

impl std::error::Error for ParseScaleError {}

/// How big an experiment run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal settings so `cargo bench` completes in minutes.
    Bench,
    /// Laptop-scale settings preserving the papers' qualitative shape
    /// (default for the experiment binaries).
    Quick,
    /// The paper's settings (3000 iterations, 10000 samples, full
    /// replication counts) — hours of CPU time.
    Paper,
}

impl FromStr for Scale {
    type Err = ParseScaleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bench" => Ok(Scale::Bench),
            "quick" => Ok(Scale::Quick),
            "paper" => Ok(Scale::Paper),
            other => Err(ParseScaleError { input: Some(other.to_string()) }),
        }
    }
}

impl Scale {
    /// Parses `--scale bench|quick|paper` from process args (default Quick);
    /// an unrecognised value is a typed error, not a silent fallback.
    pub fn from_args() -> Result<Self, ParseScaleError> {
        let args: Vec<String> = std::env::args().collect();
        Self::from_arg_list(&args)
    }

    /// Parses from an explicit argument list (testable).
    pub fn from_arg_list(args: &[String]) -> Result<Self, ParseScaleError> {
        for pair in args.windows(2) {
            if pair[0] == "--scale" {
                return pair[1].parse();
            }
        }
        if args.last().map(String::as_str) == Some("--scale") {
            return Err(ParseScaleError { input: None });
        }
        Ok(Scale::Quick)
    }

    /// CLI entry-point helper: parse `--scale`, or print the error (with the
    /// valid scales) to stderr and exit non-zero.
    pub fn from_args_or_exit() -> Self {
        Self::from_args().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// `(n_train, n_val, n_test)` for synthetic environments.
    pub fn synthetic_samples(self) -> (usize, usize, usize) {
        match self {
            Scale::Bench => (300, 100, 200),
            Scale::Quick => (1200, 400, 600),
            Scale::Paper => (7000, 3000, 10_000),
        }
    }

    /// Number of replications (fresh processes / seeds) per experiment.
    pub fn replications(self) -> usize {
        match self {
            Scale::Bench => 1,
            Scale::Quick => 3,
            Scale::Paper => 10,
        }
    }

    /// Twins partition rounds (paper: 10) and IHDP replications (paper: 100).
    pub fn realworld_replications(self) -> (usize, usize) {
        match self {
            Scale::Bench => (1, 1),
            Scale::Quick => (3, 5),
            Scale::Paper => (10, 100),
        }
    }

    /// Twins record count (paper: 5271).
    pub fn twins_records(self) -> usize {
        match self {
            Scale::Bench => 800,
            Scale::Quick => 2500,
            Scale::Paper => 5271,
        }
    }

    /// Optimisation budget at this scale.
    pub fn train_config(self, lr: f64, l2: f64, seed: u64) -> TrainConfig {
        let base = TrainConfig { lr, l2, seed, ..TrainConfig::default() };
        match self {
            Scale::Bench => {
                TrainConfig { iterations: 60, batch_size: 64, eval_every: 30, patience: 20, ..base }
            }
            Scale::Quick => TrainConfig {
                iterations: 400,
                batch_size: 128,
                eval_every: 25,
                patience: 16,
                ..base
            },
            Scale::Paper => TrainConfig {
                iterations: 3000,
                batch_size: 256,
                eval_every: 50,
                patience: 20,
                ..base
            },
        }
    }

    /// The `paper` preset at this scale: verbatim at `Paper`, shrunk by
    /// [`quick_variant`] or [`bench_variant`] otherwise.
    pub fn preset(self, paper: ExperimentPreset) -> ExperimentPreset {
        match self {
            Scale::Bench => bench_variant(paper),
            Scale::Quick => quick_variant(paper),
            Scale::Paper => paper,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_scale_flag() {
        assert_eq!(Scale::from_arg_list(&args(&["bin", "--scale", "bench"])), Ok(Scale::Bench));
        assert_eq!(Scale::from_arg_list(&args(&["bin", "--scale", "paper"])), Ok(Scale::Paper));
        assert_eq!(Scale::from_arg_list(&args(&["bin", "--scale", "quick"])), Ok(Scale::Quick));
        assert_eq!(Scale::from_arg_list(&args(&["bin"])), Ok(Scale::Quick));
    }

    #[test]
    fn bad_scale_values_are_typed_errors_listing_valid_scales() {
        let err = Scale::from_arg_list(&args(&["bin", "--scale", "huge"])).unwrap_err();
        assert_eq!(err.input.as_deref(), Some("huge"));
        let msg = err.to_string();
        assert!(msg.contains("bench") && msg.contains("quick") && msg.contains("paper"));
        // A trailing `--scale` with no value is also an error, not a default.
        let err = Scale::from_arg_list(&args(&["bin", "--scale"])).unwrap_err();
        assert_eq!(err.input, None);
    }

    #[test]
    fn scales_are_ordered() {
        let (bt, _, _) = Scale::Bench.synthetic_samples();
        let (qt, _, _) = Scale::Quick.synthetic_samples();
        let (pt, _, _) = Scale::Paper.synthetic_samples();
        assert!(bt < qt && qt < pt);
        assert!(
            Scale::Bench.train_config(1e-3, 1e-4, 0).iterations
                < Scale::Paper.train_config(1e-3, 1e-4, 0).iterations
        );
        assert_eq!(Scale::Paper.train_config(1e-3, 1e-4, 0).iterations, 3000);
        assert_eq!(Scale::Paper.replications(), 10);
        assert_eq!(Scale::Paper.realworld_replications(), (10, 100));
        assert_eq!(Scale::Paper.twins_records(), 5271);
    }
}
