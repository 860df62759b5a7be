//! The causal dataset abstraction shared by every generator, model and
//! experiment in the workspace.

use std::fmt;

use sbrl_tensor::Matrix;

/// Outcome type of a dataset, selecting the prediction loss (Eq. 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Continuous outcome — MSE loss (IHDP).
    Continuous,
    /// Binary outcome — cross-entropy loss (synthetic, Twins).
    Binary,
}

/// Typed validation failures surfaced at the library boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum DataError {
    /// The treated or control arm is empty, violating overlap
    /// (Assumption 3.3 of the paper).
    EmptyTreatmentArm {
        /// Number of treated units found.
        treated: usize,
        /// Number of control units found.
        control: usize,
    },
    /// A non-finite value (NaN/inf) was found in the named field.
    NonFinite {
        /// Which field failed the check.
        field: &'static str,
    },
    /// Field lengths are inconsistent with the covariate matrix.
    LengthMismatch {
        /// Which field failed the check.
        field: &'static str,
        /// Its length.
        got: usize,
        /// The expected sample count.
        expected: usize,
    },
    /// A treatment indicator was neither 0 nor 1.
    InvalidTreatment {
        /// Sample index of the offending value.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The dataset holds no samples.
    Empty,
    /// A simulator/dataset specification is structurally invalid (e.g. a
    /// treated count outside `1..n`): the spec degrades to a typed error
    /// instead of panicking a sweep.
    InvalidSpec {
        /// Which spec field is at fault.
        what: &'static str,
        /// Human-readable explanation.
        message: String,
    },
    /// An operation needed the counterfactual oracle (`mu0`/`mu1` or
    /// `ycf`), but the dataset does not carry it.
    MissingOracle {
        /// The operation that needed the oracle.
        context: &'static str,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::EmptyTreatmentArm { treated, control } => write!(
                f,
                "overlap violated: {treated} treated / {control} control units (both arms must be non-empty)"
            ),
            DataError::NonFinite { field } => write!(f, "non-finite value in `{field}`"),
            DataError::LengthMismatch { field, got, expected } => {
                write!(f, "`{field}` has length {got}, expected {expected}")
            }
            DataError::InvalidTreatment { index, value } => {
                write!(f, "treatment[{index}] = {value} is not 0/1")
            }
            DataError::Empty => write!(f, "dataset holds no samples"),
            DataError::InvalidSpec { what, message } => {
                write!(f, "invalid dataset spec ({what}): {message}")
            }
            DataError::MissingOracle { context } => {
                write!(f, "{context} needs the counterfactual oracle, which this dataset lacks")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// An observational dataset with (optionally) known counterfactuals.
///
/// Synthetic and semi-synthetic benchmarks expose both potential outcomes so
/// that PEHE can be evaluated; the *model* only ever sees `x`, `t` and the
/// factual outcome `yf`.
#[derive(Clone, Debug)]
pub struct CausalDataset {
    /// Covariates, one row per unit.
    pub x: Matrix,
    /// Treatment indicators in `{0.0, 1.0}`.
    pub t: Vec<f64>,
    /// Factual (observed) outcomes aligned with `t`.
    pub yf: Vec<f64>,
    /// Counterfactual outcomes (oracle; evaluation only).
    pub ycf: Option<Vec<f64>>,
    /// Noiseless expected potential outcome under control (oracle).
    pub mu0: Option<Vec<f64>>,
    /// Noiseless expected potential outcome under treatment (oracle).
    pub mu1: Option<Vec<f64>>,
    /// Outcome type, selecting the loss function.
    pub outcome: OutcomeKind,
}

impl CausalDataset {
    /// Number of units.
    pub fn n(&self) -> usize {
        self.x.rows()
    }

    /// Covariate dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Indices of treated units (`t = 1`).
    pub fn treated_indices(&self) -> Vec<usize> {
        self.t.iter().enumerate().filter_map(|(i, &t)| (t > 0.5).then_some(i)).collect()
    }

    /// Indices of control units (`t = 0`).
    pub fn control_indices(&self) -> Vec<usize> {
        self.t.iter().enumerate().filter_map(|(i, &t)| (t <= 0.5).then_some(i)).collect()
    }

    /// Fraction of treated units.
    pub fn treated_fraction(&self) -> f64 {
        if self.t.is_empty() {
            0.0
        } else {
            self.t.iter().sum::<f64>() / self.t.len() as f64
        }
    }

    /// Ground-truth individual treatment effects `y1 - y0` (Definition 3.1),
    /// preferring noiseless `mu` when available.
    ///
    /// Returns `None` when the dataset carries no counterfactual oracle.
    pub fn true_ite(&self) -> Option<Vec<f64>> {
        if let (Some(mu0), Some(mu1)) = (&self.mu0, &self.mu1) {
            return Some(mu1.iter().zip(mu0).map(|(a, b)| a - b).collect());
        }
        let ycf = self.ycf.as_ref()?;
        Some(
            self.t
                .iter()
                .zip(self.yf.iter().zip(ycf))
                .map(|(&t, (&yf, &ycf))| if t > 0.5 { yf - ycf } else { ycf - yf })
                .collect(),
        )
    }

    /// Ground-truth average treatment effect (Definition 3.2).
    pub fn true_ate(&self) -> Option<f64> {
        let ite = self.true_ite()?;
        if ite.is_empty() {
            return None;
        }
        Some(ite.iter().sum::<f64>() / ite.len() as f64)
    }

    /// Counterfactual outcome vector aligned as `(y0, y1)` pairs, if known.
    pub fn potential_outcomes(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let ycf = self.ycf.as_ref()?;
        let mut y0 = Vec::with_capacity(self.n());
        let mut y1 = Vec::with_capacity(self.n());
        for (i, &t) in self.t.iter().enumerate() {
            if t > 0.5 {
                y1.push(self.yf[i]);
                y0.push(ycf[i]);
            } else {
                y0.push(self.yf[i]);
                y1.push(ycf[i]);
            }
        }
        Some((y0, y1))
    }

    /// Extracts the subset of units at `indices` (preserving order).
    pub fn select(&self, indices: &[usize]) -> CausalDataset {
        let pick = |v: &Vec<f64>| indices.iter().map(|&i| v[i]).collect::<Vec<f64>>();
        CausalDataset {
            x: self.x.select_rows(indices),
            t: pick(&self.t),
            yf: pick(&self.yf),
            ycf: self.ycf.as_ref().map(pick),
            mu0: self.mu0.as_ref().map(pick),
            mu1: self.mu1.as_ref().map(pick),
            outcome: self.outcome,
        }
    }

    /// Structural validation: shapes, 0/1 treatments, finiteness and overlap.
    pub fn validate(&self) -> Result<(), DataError> {
        let n = self.n();
        if n == 0 {
            return Err(DataError::Empty);
        }
        for (field, len) in [("t", self.t.len()), ("yf", self.yf.len())] {
            if len != n {
                return Err(DataError::LengthMismatch { field, got: len, expected: n });
            }
        }
        for (field, opt) in [("ycf", &self.ycf), ("mu0", &self.mu0), ("mu1", &self.mu1)] {
            if let Some(v) = opt {
                if v.len() != n {
                    return Err(DataError::LengthMismatch { field, got: v.len(), expected: n });
                }
                if !v.iter().all(|x| x.is_finite()) {
                    return Err(DataError::NonFinite { field });
                }
            }
        }
        if !self.x.all_finite() {
            return Err(DataError::NonFinite { field: "x" });
        }
        if !self.yf.iter().all(|x| x.is_finite()) {
            return Err(DataError::NonFinite { field: "yf" });
        }
        for (i, &t) in self.t.iter().enumerate() {
            if t != 0.0 && t != 1.0 {
                return Err(DataError::InvalidTreatment { index: i, value: t });
            }
        }
        let treated = self.treated_indices().len();
        let control = n - treated;
        if treated == 0 || control == 0 {
            return Err(DataError::EmptyTreatmentArm { treated, control });
        }
        Ok(())
    }
}

/// Per-column standardisation fitted on one dataset and applied to others
/// (fit on train, apply to val/test — never the other way around).
#[derive(Clone, Debug)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fits column means and standard deviations (floored at 1e-8).
    pub fn fit(x: &Matrix) -> Self {
        let means = x.mean_axis0().into_vec();
        let stds = x.std_axis0().map(|s| s.max(1e-8)).into_vec();
        Self { means, stds }
    }

    /// Standardises a matrix with the fitted statistics.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted one.
    #[track_caller]
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.means.len(), "Scaler: column count mismatch");
        Matrix::from_fn(x.rows(), x.cols(), |i, j| (x[(i, j)] - self.means[j]) / self.stds[j])
    }

    /// Rebuilds a scaler from previously fitted statistics (model
    /// deserialization). Returns `None` when the statistics cannot have come
    /// from [`Scaler::fit`]: mismatched or empty columns, non-finite values,
    /// or non-positive standard deviations.
    pub fn from_stats(means: Vec<f64>, stds: Vec<f64>) -> Option<Self> {
        if means.is_empty() || means.len() != stds.len() {
            return None;
        }
        if !means.iter().all(|m| m.is_finite()) || !stds.iter().all(|s| s.is_finite() && *s > 0.0) {
            return None;
        }
        Some(Self { means, stds })
    }

    /// Fitted means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed};

    fn toy() -> CausalDataset {
        CausalDataset {
            x: Matrix::from_vec(4, 2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            t: vec![1.0, 0.0, 1.0, 0.0],
            yf: vec![2.0, 1.0, 3.0, 0.0],
            ycf: Some(vec![1.0, 2.0, 1.0, 1.0]),
            mu0: None,
            mu1: None,
            outcome: OutcomeKind::Continuous,
        }
    }

    #[test]
    fn scaler_from_stats_validates_and_round_trips() {
        let d = toy();
        let fitted = Scaler::fit(&d.x);
        let rebuilt = Scaler::from_stats(fitted.means().to_vec(), fitted.stds().to_vec())
            .expect("fitted stats are valid");
        assert_eq!(fitted.transform(&d.x).as_slice(), rebuilt.transform(&d.x).as_slice());
        // Invalid statistics are rejected.
        assert!(Scaler::from_stats(vec![], vec![]).is_none());
        assert!(Scaler::from_stats(vec![0.0], vec![1.0, 1.0]).is_none());
        assert!(Scaler::from_stats(vec![f64::NAN], vec![1.0]).is_none());
        assert!(Scaler::from_stats(vec![0.0], vec![0.0]).is_none());
        assert!(Scaler::from_stats(vec![0.0], vec![-1.0]).is_none());
    }

    #[test]
    fn indices_and_fraction() {
        let d = toy();
        assert_eq!(d.treated_indices(), vec![0, 2]);
        assert_eq!(d.control_indices(), vec![1, 3]);
        assert!((d.treated_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn true_ite_from_counterfactuals() {
        let d = toy();
        // treated: yf - ycf; control: ycf - yf
        assert_eq!(d.true_ite().unwrap(), vec![1.0, 1.0, 2.0, 1.0]);
        assert!((d.true_ate().unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn true_ite_prefers_mu() {
        let mut d = toy();
        d.mu0 = Some(vec![0.0; 4]);
        d.mu1 = Some(vec![5.0; 4]);
        assert_eq!(d.true_ite().unwrap(), vec![5.0; 4]);
    }

    #[test]
    fn potential_outcomes_align() {
        let d = toy();
        let (y0, y1) = d.potential_outcomes().unwrap();
        assert_eq!(y0, vec![1.0, 1.0, 1.0, 0.0]);
        assert_eq!(y1, vec![2.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn select_subsets_all_fields() {
        let d = toy();
        let s = d.select(&[2, 0]);
        assert_eq!(s.n(), 2);
        assert_eq!(s.t, vec![1.0, 1.0]);
        assert_eq!(s.yf, vec![3.0, 2.0]);
        assert_eq!(s.ycf.as_ref().unwrap(), &vec![1.0, 1.0]);
        assert_eq!(s.x.row(0), d.x.row(2));
    }

    #[test]
    fn validate_accepts_well_formed_data() {
        assert!(toy().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty_arm() {
        let mut d = toy();
        d.t = vec![1.0, 1.0, 1.0, 1.0];
        assert!(matches!(d.validate(), Err(DataError::EmptyTreatmentArm { .. })));
    }

    #[test]
    fn validate_rejects_nan_and_bad_treatment() {
        let mut d = toy();
        d.x[(0, 0)] = f64::NAN;
        assert!(matches!(d.validate(), Err(DataError::NonFinite { field: "x" })));

        let mut d2 = toy();
        d2.t[1] = 0.5;
        assert!(matches!(d2.validate(), Err(DataError::InvalidTreatment { index: 1, .. })));

        let mut d3 = toy();
        d3.yf.pop();
        assert!(matches!(d3.validate(), Err(DataError::LengthMismatch { field: "yf", .. })));
    }

    #[test]
    fn scaler_standardises_train_and_transfers_to_test() {
        let mut rng = rng_from_seed(0);
        let train = randn(&mut rng, 200, 3).scale(5.0).add_scalar(2.0);
        let scaler = Scaler::fit(&train);
        let z = scaler.transform(&train);
        let m = z.mean_axis0();
        let s = z.std_axis0();
        for j in 0..3 {
            assert!(m.as_slice()[j].abs() < 1e-9);
            assert!((s.as_slice()[j] - 1.0).abs() < 1e-9);
        }
        // Test data transformed with train statistics, not its own.
        let test = randn(&mut rng, 50, 3).scale(5.0).add_scalar(4.0);
        let zt = scaler.transform(&test);
        assert!(zt.mean_axis0().as_slice()[0] > 0.1, "shifted test should not be centred");
    }
}
