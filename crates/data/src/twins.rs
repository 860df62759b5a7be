//! Twins-like benchmark (Sec. V-E1 of the paper).
//!
//! The paper uses the NBER linked birth / infant-death records of same-sex
//! twins born 1989–1991 weighing under 2000 g (5271 records after filtering).
//! Those files are not available offline, so this module ships a simulator
//! that reproduces the benchmark's *published schema and augmentation
//! protocol* exactly (the substitution argument is in the `sbrl_data` crate
//! documentation, `crates/data/src/lib.rs`):
//!
//! * 28 "real" covariates `X1..X28` about parents / pregnancy / birth,
//!   generated from shared latent health & socioeconomic factors with mixed
//!   types (continuous, ordinal, binary) — including blocks of strongly
//!   redundant variables, matching the paper's observation that Twins has
//!   "an abundance of similar or identical variables" and hence a low
//!   intrinsic OOD level;
//! * 10 synthetic instruments `X29..X38 ~ N(0,1)` and 5 unstable variables
//!   `X39..X43 ~ N(0,1)` appended verbatim per the paper;
//! * treatment `t = 1` means "the heavier twin"; both potential mortality
//!   outcomes are observed in the twin pair, with the heavier twin enjoying
//!   a small survival advantage;
//! * observational treatment assignment is re-simulated as
//!   `t | x ~ B(sigmoid(w' X_IC + eta))`, `w ~ U(-0.1, 0.1)`,
//!   `eta ~ N(0, 0.1)`;
//! * the OOD test fold (20%) is drawn with bias-rate `rho = -2.5` sampling
//!   on `X_V`; the remainder splits 70/30 into train/validation; partitions
//!   are repeated for 10 rounds.

use sbrl_tensor::rng::{rng_from_seed, sample_bernoulli, sample_standard_normal, sample_uniform};
use sbrl_tensor::{stable_sigmoid, Matrix};

use crate::dataset::{CausalDataset, DataError, OutcomeKind};
use crate::sampling::{selection_log_weight, weighted_sample_without_replacement};
use crate::splits::{train_val_indices, DataSplit};

/// Configuration of the Twins-like benchmark.
#[derive(Clone, Copy, Debug)]
pub struct TwinsConfig {
    /// Number of twin-pair records (paper: 5271).
    pub n: usize,
    /// Bias rate of the OOD test sampling (paper: -2.5).
    pub rho: f64,
    /// Fraction of records sampled (biasedly) into the test fold (paper: 20%).
    pub test_fraction: f64,
    /// Fraction of the remainder assigned to validation (paper: 30%).
    pub val_fraction: f64,
}

impl Default for TwinsConfig {
    fn default() -> Self {
        Self { n: 5271, rho: -2.5, test_fraction: 0.2, val_fraction: 0.3 }
    }
}

/// Number of "real" covariates (`X1..X28`).
pub const NUM_REAL_COVARIATES: usize = 28;
/// Number of synthetic instruments (`X29..X38`).
pub const NUM_INSTRUMENTS: usize = 10;
/// Number of synthetic unstable variables (`X39..X43`).
pub const NUM_UNSTABLE: usize = 5;
/// Total covariate dimension (43).
pub const TOTAL_COVARIATES: usize = NUM_REAL_COVARIATES + NUM_INSTRUMENTS + NUM_UNSTABLE;

/// The Twins-like data generator; covariates, potential outcomes and the
/// observational treatment assignment are frozen at construction, partitions
/// vary by round.
pub struct TwinsSimulator {
    config: TwinsConfig,
    full: CausalDataset,
}

impl TwinsSimulator {
    /// Generates the full record table from `seed`. A malformed config
    /// (zero cohort, out-of-range fractions, a bias rate the selection
    /// mechanism cannot represent) is a [`DataError::InvalidSpec`].
    pub fn try_new(config: TwinsConfig, seed: u64) -> Result<Self, DataError> {
        if config.n < 2 {
            return Err(DataError::InvalidSpec {
                what: "twins.n",
                message: format!("needs at least 2 records, got {}", config.n),
            });
        }
        for (what, v) in [
            ("twins.test_fraction", config.test_fraction),
            ("twins.val_fraction", config.val_fraction),
        ] {
            if !v.is_finite() || !(0.0..1.0).contains(&v) {
                return Err(DataError::InvalidSpec {
                    what,
                    message: format!("must be a finite fraction in [0, 1), got {v}"),
                });
            }
        }
        if !config.rho.is_finite() || config.rho.abs() <= 1.0 {
            return Err(DataError::InvalidSpec {
                what: "twins.rho",
                message: format!("bias rate needs |rho| > 1 and finite, got {}", config.rho),
            });
        }
        let mut rng = rng_from_seed(seed ^ 0x7717_5000);
        let n = config.n;
        let mut x = Matrix::zeros(n, TOTAL_COVARIATES);
        let mut mu0 = Vec::with_capacity(n);
        let mut mu1 = Vec::with_capacity(n);
        let mut y0 = Vec::with_capacity(n);
        let mut y1 = Vec::with_capacity(n);

        for i in 0..n {
            // Latent factors: maternal health, socioeconomic status,
            // pregnancy risk.
            let health = sample_standard_normal(&mut rng);
            let ses = sample_standard_normal(&mut rng);
            let risk = 0.6 * sample_standard_normal(&mut rng) - 0.4 * health;

            let row = x.row_mut(i);
            // --- parental block (X1..X10) ---
            row[0] = 26.0 + 5.5 * ses + 1.5 * sample_standard_normal(&mut rng); // mother age
            row[1] = (row[0] - 2.0 + sample_standard_normal(&mut rng)).max(15.0); // father age proxy
            let edu = (2.0 + ses + 0.3 * sample_standard_normal(&mut rng)).clamp(0.0, 4.0);
            row[2] = edu.round(); // mother education (ordinal 0..4)
            row[3] = (edu + 0.4 * sample_standard_normal(&mut rng)).clamp(0.0, 4.0).round(); // father education (redundant with X3)
            row[4] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(0.8 * ses))); // married
            let race = sample_uniform(&mut rng, 0.0, 1.0);
            row[5] = f64::from(race < 0.55); // race group A
            row[6] = f64::from((0.55..0.8).contains(&race)); // race group B
            row[7] = f64::from(race >= 0.8); // race group C
            row[8] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.9 * ses))); // public insurance
            row[9] =
                (1.0 + (-ses).max(0.0) + 0.5 * sample_standard_normal(&mut rng)).max(0.0).round(); // parity

            // --- pregnancy block (X11..X20), deliberately redundant ---
            let visits = (10.0 + 2.5 * ses + health + sample_standard_normal(&mut rng)).max(0.0);
            row[10] = visits.round(); // prenatal visits
            row[11] = f64::from(visits < 6.0); // few-visits flag (function of X11)
            row[12] =
                f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-1.2 * health - 0.5 * ses))); // smoked
            row[13] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-1.5 * health - 1.0))); // alcohol
            row[14] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(0.9 * risk - 1.2))); // diabetes
            row[15] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(1.1 * risk - 1.0))); // hypertension
            row[16] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(1.0 * risk - 1.5))); // eclampsia
            row[17] = (20.0 + 6.0 * health - 3.0 * risk + 2.0 * sample_standard_normal(&mut rng))
                .max(0.0); // weight gain
            row[18] = f64::from(row[17] < 15.0); // low weight gain flag
            row[19] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(0.8 * risk - 0.8))); // previous preterm

            // --- birth block (X21..X28) ---
            let gestation =
                34.0 + 2.2 * health - 1.8 * risk + 1.2 * sample_standard_normal(&mut rng);
            row[20] = gestation.clamp(22.0, 40.0); // gestation weeks
            row[21] = f64::from(gestation < 32.0); // very preterm flag
            let w_light = (1350.0
                + 120.0 * (gestation - 34.0)
                + 90.0 * health
                + 60.0 * sample_standard_normal(&mut rng))
            .clamp(400.0, 1990.0);
            row[22] = w_light / 1000.0; // lighter-twin weight (kg, < 2)
            let delta =
                (110.0 + 45.0 * sample_standard_normal(&mut rng).abs()).min(1990.0 - w_light);
            row[23] = (w_light + delta.max(10.0)).min(1995.0) / 1000.0; // heavier-twin weight
            row[24] = f64::from(sample_bernoulli(&mut rng, 0.49)); // twins are female
            row[25] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(risk - 1.0))); // c-section
            row[26] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-health))); // NICU admission proxy
            row[27] = (5.0 + 2.5 * health - 1.5 * risk + sample_standard_normal(&mut rng))
                .clamp(0.0, 10.0); // APGAR-like score

            // --- instruments X29..X38 and unstable X39..X43 ---
            for x in &mut row[NUM_REAL_COVARIATES..TOTAL_COVARIATES] {
                *x = sample_standard_normal(&mut rng);
            }

            // Potential mortality outcomes. The heavier twin (t = 1) has a
            // survival advantage growing with the weight gap.
            let frailty = -1.6 - 1.0 * health + 0.9 * risk
                - 0.09 * (gestation - 34.0)
                - 0.9 * (w_light / 1000.0 - 1.4);
            let p0 = stable_sigmoid(frailty);
            let p1 = stable_sigmoid(frailty - 0.25 - 0.2 * (delta / 500.0));
            mu0.push(p0);
            mu1.push(p1);
            let shared = sample_standard_normal(&mut rng);
            // Correlated Bernoulli draws: twins share environment.
            let u0 = stable_sigmoid(1.5 * shared + sample_standard_normal(&mut rng));
            let u1 = stable_sigmoid(1.5 * shared + sample_standard_normal(&mut rng));
            y0.push(f64::from(u0 < p0));
            y1.push(f64::from(u1 < p1));
        }

        // Observational treatment assignment on X_IC = real covariates +
        // instruments (paper: w ~ U(-0.1, 0.1), eta ~ N(0, 0.1)).
        let n_ic = NUM_REAL_COVARIATES + NUM_INSTRUMENTS;
        let w: Vec<f64> = (0..n_ic).map(|_| sample_uniform(&mut rng, -0.1, 0.1)).collect();
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let row = x.row(i);
            let eta = 0.1 * sample_standard_normal(&mut rng);
            let z: f64 = row[..n_ic].iter().zip(&w).map(|(&x, &w)| w * x).sum::<f64>() + eta;
            t.push(f64::from(sample_bernoulli(&mut rng, stable_sigmoid(z))));
        }

        let yf: Vec<f64> = (0..n).map(|i| if t[i] > 0.5 { y1[i] } else { y0[i] }).collect();
        let ycf: Vec<f64> = (0..n).map(|i| if t[i] > 0.5 { y0[i] } else { y1[i] }).collect();

        let full = CausalDataset {
            x,
            t,
            yf,
            ycf: Some(ycf),
            mu0: Some(mu0),
            mu1: Some(mu1),
            outcome: OutcomeKind::Binary,
        };
        Ok(Self { config, full })
    }

    /// The full record table (all 43 covariates, both potential outcomes).
    pub fn full(&self) -> &CausalDataset {
        &self.full
    }

    /// The benchmark configuration.
    pub fn config(&self) -> &TwinsConfig {
        &self.config
    }

    /// Column indices of the unstable variables `X_V`.
    pub fn unstable_columns() -> std::ops::Range<usize> {
        (NUM_REAL_COVARIATES + NUM_INSTRUMENTS)..TOTAL_COVARIATES
    }

    /// One partitioning round: biased 20% test fold (`rho` tilt on `X_V`),
    /// remaining 70/30 train/validation. A record table without the
    /// counterfactual oracle the biased sampler needs (a simulator-built
    /// table always carries it) is a [`DataError::MissingOracle`].
    pub fn try_partition(&self, round: u64) -> Result<DataSplit, DataError> {
        let mut rng = rng_from_seed(round ^ 0x7717_5041);
        let n = self.full.n();
        let ite = self
            .full
            .true_ite()
            .ok_or(DataError::MissingOracle { context: "the twins partitioning protocol" })?;
        let v_cols: Vec<usize> = Self::unstable_columns().collect();
        let log_w: Vec<f64> = (0..n)
            .map(|i| {
                let v: Vec<f64> = v_cols.iter().map(|&j| self.full.x[(i, j)]).collect();
                selection_log_weight(self.config.rho, ite[i], &v)
            })
            .collect();
        let n_test = ((n as f64) * self.config.test_fraction).round() as usize;
        let test_idx = weighted_sample_without_replacement(&mut rng, &log_w, n_test);
        let in_test: std::collections::HashSet<usize> = test_idx.iter().copied().collect();
        let rest: Vec<usize> = (0..n).filter(|i| !in_test.contains(i)).collect();

        let (tr_local, va_local) =
            train_val_indices(&mut rng, rest.len(), self.config.val_fraction);
        let train_idx: Vec<usize> = tr_local.iter().map(|&k| rest[k]).collect();
        let val_idx: Vec<usize> = va_local.iter().map(|&k| rest[k]).collect();

        Ok(DataSplit {
            train: self.full.select(&train_idx),
            val: self.full.select(&val_idx),
            test: self.full.select(&test_idx),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TwinsSimulator {
        TwinsSimulator::try_new(TwinsConfig { n: 800, ..Default::default() }, 1)
            .expect("valid config")
    }

    #[test]
    fn schema_matches_the_paper() {
        let sim = small();
        let d = sim.full();
        assert_eq!(d.dim(), 43);
        assert_eq!(d.n(), 800);
        d.validate().unwrap();
        assert_eq!(d.outcome, OutcomeKind::Binary);
        assert_eq!(TwinsSimulator::unstable_columns(), 38..43);
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let c = TwinsConfig::default();
        assert_eq!(c.n, 5271);
        assert_eq!(c.rho, -2.5);
        assert_eq!(c.test_fraction, 0.2);
    }

    #[test]
    fn weights_stay_under_two_kilograms() {
        let sim = small();
        let d = sim.full();
        for i in 0..d.n() {
            assert!(d.x[(i, 22)] < 2.0, "lighter twin weight");
            assert!(d.x[(i, 23)] < 2.0, "heavier twin weight");
            assert!(d.x[(i, 23)] > d.x[(i, 22)], "heavier twin must be heavier");
        }
    }

    #[test]
    fn heavier_twin_has_survival_advantage() {
        let sim = TwinsSimulator::try_new(TwinsConfig { n: 4000, ..Default::default() }, 3)
            .expect("valid config");
        let d = sim.full();
        let m0: f64 = d.mu0.as_ref().unwrap().iter().sum::<f64>() / d.n() as f64;
        let m1: f64 = d.mu1.as_ref().unwrap().iter().sum::<f64>() / d.n() as f64;
        assert!(m1 < m0, "heavier twin mortality {m1} should undercut lighter {m0}");
        assert!(m0 > 0.05 && m0 < 0.4, "plausible mortality base rate, got {m0}");
    }

    #[test]
    fn partition_sizes_follow_the_protocol() {
        let sim = small();
        let split = sim.try_partition(0).expect("simulated data carries the oracle");
        assert_eq!(split.test.n(), 160); // 20% of 800
        let rest = 800 - 160;
        assert_eq!(split.val.n(), (rest as f64 * 0.3).round() as usize);
        assert_eq!(split.train.n() + split.val.n() + split.test.n(), 800);
        split.train.validate().unwrap();
        split.val.validate().unwrap();
        split.test.validate().unwrap();
    }

    #[test]
    fn rounds_differ_but_are_reproducible() {
        let sim = small();
        let a = sim.try_partition(0).expect("simulated data carries the oracle");
        let b = sim.try_partition(0).expect("simulated data carries the oracle");
        let c = sim.try_partition(1).expect("simulated data carries the oracle");
        assert_eq!(a.test.yf, b.test.yf);
        assert!(a.test.x.approx_eq(&b.test.x, 0.0));
        assert_ne!(a.test.yf, c.test.yf);
    }

    #[test]
    fn malformed_specs_degrade_to_typed_errors() {
        let bad = TwinsConfig { n: 1, ..Default::default() };
        assert!(matches!(
            TwinsSimulator::try_new(bad, 0),
            Err(DataError::InvalidSpec { what: "twins.n", .. })
        ));
        let bad = TwinsConfig { test_fraction: 1.2, ..Default::default() };
        assert!(TwinsSimulator::try_new(bad, 0).is_err());
        let bad = TwinsConfig { val_fraction: f64::NAN, ..Default::default() };
        assert!(TwinsSimulator::try_new(bad, 0).is_err());
        let bad = TwinsConfig { rho: 0.5, ..Default::default() };
        assert!(TwinsSimulator::try_new(bad, 0).is_err());
        // The happy path is unchanged.
        assert!(TwinsSimulator::try_new(TwinsConfig { n: 100, ..Default::default() }, 0).is_ok());
    }

    #[test]
    fn test_fold_is_distribution_shifted() {
        // Under rho = -2.5 the test fold tilts the unstable features against
        // the treatment effect, so the X_V marginal differs from train.
        let sim = TwinsSimulator::try_new(TwinsConfig { n: 4000, ..Default::default() }, 5)
            .expect("valid config");
        let split = sim.try_partition(0).expect("simulated data carries the oracle");
        let col = TwinsSimulator::unstable_columns().start;
        let mean_of =
            |d: &CausalDataset| (0..d.n()).map(|i| d.x[(i, col)]).sum::<f64>() / d.n() as f64;
        let shift = (mean_of(&split.test) - mean_of(&split.train)).abs();
        assert!(shift > 0.02, "test fold should shift X_V, got {shift}");
    }
}
