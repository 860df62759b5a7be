//! IHDP-like benchmark (Sec. V-E1 of the paper).
//!
//! The Infant Health and Development Program benchmark (Hill 2011) is itself
//! semi-synthetic: real RCT covariates (747 units — 139 treated, 608 control
//! — with 25 covariates, 6 continuous and 19 binary), selection bias induced
//! by removing a biased subset of the treated group, and outcomes simulated
//! by the NPCI package. The covariate files are not available offline, so
//! this module simulates covariates with matched dimensionality, types and
//! correlation structure, and then applies the published protocol verbatim
//! (substitution argument in the `sbrl_data` crate documentation,
//! `crates/data/src/lib.rs`):
//!
//! * treatment assignment confounded through a logistic model on the
//!   covariates, calibrated to exactly 139 treated units;
//! * the NPCI nonlinear/heterogeneous response surface (Hill's surface B,
//!   NPCI setting "A": `mu0 = exp((X + 0.5) beta)`, `mu1 = X beta - omega`,
//!   with `omega` calibrated so the average effect on the treated is 4), as
//!   used by the CFR/TARNet line of work and this paper;
//! * continuous outcomes `y = mu + N(0, 1)`, re-simulated per replication
//!   (the paper averages 100 replications);
//! * OOD test fold: 10% of records drawn with bias-rate `rho` sampling where
//!   `D_i` is computed on the six *continuous* covariates (standardised), a
//!   deliberately harder shift because continuous covariates can be causal.

use sbrl_tensor::rng::{rng_from_seed, sample_bernoulli, sample_standard_normal, sample_uniform};
use sbrl_tensor::{stable_sigmoid, Matrix};

use crate::dataset::{CausalDataset, DataError, OutcomeKind, Scaler};
use crate::sampling::weighted_sample_without_replacement;
use crate::splits::{train_val_indices, DataSplit};

/// Configuration of the IHDP-like benchmark.
#[derive(Clone, Copy, Debug)]
pub struct IhdpConfig {
    /// Number of units (paper: 747).
    pub n: usize,
    /// Number of treated units (paper: 139).
    pub n_treated: usize,
    /// Bias rate for the OOD test sampling.
    pub rho: f64,
    /// Fraction of records biasedly sampled into the test fold (paper: 10%).
    pub test_fraction: f64,
    /// Fraction of the remainder assigned to validation (paper: 30%).
    pub val_fraction: f64,
}

impl Default for IhdpConfig {
    fn default() -> Self {
        Self { n: 747, n_treated: 139, rho: -2.5, test_fraction: 0.1, val_fraction: 0.3 }
    }
}

/// Number of continuous covariates (columns `0..6`).
pub const NUM_CONTINUOUS: usize = 6;
/// Number of binary covariates (columns `6..25`).
pub const NUM_BINARY: usize = 19;
/// Total covariate dimension (25).
pub const TOTAL_COVARIATES: usize = NUM_CONTINUOUS + NUM_BINARY;

/// The IHDP-like generator: covariates and treatment are frozen per instance,
/// outcomes are re-simulated per replication.
pub struct IhdpSimulator {
    config: IhdpConfig,
    x: Matrix,
    t: Vec<f64>,
    /// Standardised continuous block used for the shift mechanism.
    x_cont_std: Matrix,
    /// Fully standardised covariates used by the response surfaces (NPCI
    /// computes the surfaces on standardised covariates; raw covariates
    /// would give the exponential surface million-scale tails).
    x_std: Matrix,
}

impl IhdpSimulator {
    /// Generates covariates and the confounded treatment assignment;
    /// rejects malformed configurations with [`DataError::InvalidSpec`].
    pub fn try_new(config: IhdpConfig, seed: u64) -> Result<Self, DataError> {
        if config.n_treated == 0 || config.n_treated >= config.n {
            return Err(DataError::InvalidSpec {
                what: "ihdp.n_treated",
                message: format!(
                    "need 0 < n_treated < n, got n_treated={} with n={}",
                    config.n_treated, config.n
                ),
            });
        }
        for (what, f) in [
            ("ihdp.test_fraction", config.test_fraction),
            ("ihdp.val_fraction", config.val_fraction),
        ] {
            if !f.is_finite() || !(0.0..1.0).contains(&f) {
                return Err(DataError::InvalidSpec {
                    what,
                    message: format!("need a finite fraction in [0, 1), got {f}"),
                });
            }
        }
        if !config.rho.is_finite() || config.rho.abs() <= 1.0 {
            return Err(DataError::InvalidSpec {
                what: "ihdp.rho",
                message: format!("need a finite bias rate with |rho| > 1, got {}", config.rho),
            });
        }
        let mut rng = rng_from_seed(seed ^ IHDP_TAG);
        let n = config.n;
        let mut x = Matrix::zeros(n, TOTAL_COVARIATES);
        for i in 0..n {
            // Latent factors: infant health, family socioeconomic status.
            let health = sample_standard_normal(&mut rng);
            let ses = sample_standard_normal(&mut rng);
            let row = x.row_mut(i);
            // Continuous block (standard IHDP: birth weight, head
            // circumference, weeks preterm, birth order, neonatal index,
            // mother's age).
            row[0] = health + 0.4 * sample_standard_normal(&mut rng); // birth weight (std)
            row[1] = 0.8 * health + 0.5 * sample_standard_normal(&mut rng); // head circumference
            row[2] = -0.7 * health + 0.6 * sample_standard_normal(&mut rng); // weeks preterm
            row[3] = sample_uniform(&mut rng, 0.0, 4.0).floor(); // birth order
            row[4] = 0.5 * health - 0.3 * ses + 0.6 * sample_standard_normal(&mut rng); // neonatal index
            row[5] = 0.9 * ses + 0.5 * sample_standard_normal(&mut rng); // mother age (std)

            // Binary block: demographics, risk behaviours, 8 site dummies.
            row[6] = f64::from(sample_bernoulli(&mut rng, 0.51)); // infant is male
            row[7] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(0.7 * ses))); // married
            row[8] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.8 * ses))); // mother dropped out
            row[9] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(0.6 * ses - 0.5))); // attended college
            row[10] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.7 * health - 0.8))); // drugs
            row[11] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.5 * health - 0.4))); // alcohol
            row[12] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.6 * ses - 0.2))); // smoked
            row[13] = f64::from(sample_bernoulli(&mut rng, 0.45)); // first born
            row[14] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.4 * ses))); // public assistance
            row[15] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(0.3 * health - 1.0))); // twin birth
            row[16] = f64::from(sample_bernoulli(&mut rng, stable_sigmoid(-0.3 * ses - 0.6))); // teen mother

            // 8 site dummies: one-hot over sites with SES-dependent mix.
            let site = ((stable_sigmoid(0.5 * ses) * 8.0) as usize
                + (sample_uniform(&mut rng, 0.0, 3.0) as usize))
                % 8;
            for s in 0..8 {
                row[17 + s] = f64::from(s == site);
            }
        }

        // Confounded treatment: logistic on health/SES proxies, intercept
        // calibrated by bisection to hit E[#treated] = n_treated, then the
        // realised draw adjusted to the exact count (Hill's benchmark fixes
        // 139 treated units).
        let logits: Vec<f64> = (0..n)
            .map(|i| {
                let r = x.row(i);
                0.9 * r[0] + 0.6 * r[5] - 0.5 * r[8] + 0.4 * r[9] - 0.3 * r[12]
            })
            .collect();
        let mut lo = -10.0;
        let mut hi = 10.0;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let expected: f64 = logits.iter().map(|&z| stable_sigmoid(z + mid)).sum();
            if expected > config.n_treated as f64 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let intercept = 0.5 * (lo + hi);
        let mut scored: Vec<(f64, usize)> = logits
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let p = stable_sigmoid(z + intercept);
                // Random tie-breaking keeps the draw stochastic while the
                // top-k cut fixes the exact treated count.
                let u: f64 = sample_uniform(&mut rng, 1e-12, 1.0);
                (p / u, i) // Efraimidis–Spirakis-style key: P(select) ∝ p
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut t = vec![0.0; n];
        for &(_, i) in scored.iter().take(config.n_treated) {
            t[i] = 1.0;
        }

        let x_cont = x.slice_cols(0, NUM_CONTINUOUS);
        let x_cont_std = Scaler::fit(&x_cont).transform(&x_cont);
        let x_std = Scaler::fit(&x).transform(&x);
        Ok(Self { config, x, t, x_cont_std, x_std })
    }

    /// The benchmark configuration.
    pub fn config(&self) -> &IhdpConfig {
        &self.config
    }

    /// The frozen covariate matrix.
    pub fn covariates(&self) -> &Matrix {
        &self.x
    }

    /// The frozen treatment assignment.
    pub fn treatment(&self) -> &[f64] {
        &self.t
    }

    /// One replication: simulate outcomes (fresh response-surface draw) and
    /// partition into the biased test fold plus train/validation. A missing
    /// counterfactual oracle (which simulated data always carries) is a
    /// [`DataError::MissingOracle`].
    pub fn try_replicate(&self, rep_seed: u64) -> Result<DataSplit, DataError> {
        let full = self.simulate_outcomes(rep_seed);
        self.try_partition(&full, rep_seed)
    }

    /// Simulates the response surface and outcomes for one replication over
    /// the full 747 units.
    pub fn simulate_outcomes(&self, rep_seed: u64) -> CausalDataset {
        let mut rng = rng_from_seed(rep_seed ^ IHDP_TAG ^ 0xabcd);
        let n = self.config.n;
        // NPCI coefficient draw: beta_j in {0, .1, .2, .3, .4} with
        // probabilities (.6, .1, .1, .1, .1).
        let beta: Vec<f64> = (0..TOTAL_COVARIATES)
            .map(|_| {
                let u = sample_uniform(&mut rng, 0.0, 1.0);
                if u < 0.6 {
                    0.0
                } else {
                    0.1 * (((u - 0.6) / 0.1).floor() + 1.0).min(4.0)
                }
            })
            .collect();

        let dot = |row: &[f64], off: f64| -> f64 {
            row.iter().zip(&beta).map(|(&x, &b)| (x + off) * b).sum()
        };
        let (mut mu0, mut mu1): (Vec<f64>, Vec<f64>) =
            (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n {
            let row = self.x_std.row(i);
            mu0.push(dot(row, 0.5).exp());
            mu1.push(dot(row, 0.0));
        }
        // Calibrate omega so the average effect on the treated is 4.
        let treated: Vec<usize> = (0..n).filter(|&i| self.t[i] > 0.5).collect();
        let gap: f64 = treated.iter().map(|&i| mu1[i] - mu0[i]).sum::<f64>() / treated.len() as f64;
        let omega = gap - 4.0;
        for m in &mut mu1 {
            *m -= omega;
        }

        let y0: Vec<f64> = mu0.iter().map(|&m| m + sample_standard_normal(&mut rng)).collect();
        let y1: Vec<f64> = mu1.iter().map(|&m| m + sample_standard_normal(&mut rng)).collect();
        let yf: Vec<f64> = (0..n).map(|i| if self.t[i] > 0.5 { y1[i] } else { y0[i] }).collect();
        let ycf: Vec<f64> = (0..n).map(|i| if self.t[i] > 0.5 { y0[i] } else { y1[i] }).collect();

        CausalDataset {
            x: self.x.clone(),
            t: self.t.clone(),
            yf,
            ycf: Some(ycf),
            mu0: Some(mu0),
            mu1: Some(mu1),
            outcome: OutcomeKind::Continuous,
        }
    }

    /// Partitions a replication: biased 10% test fold over the standardised
    /// continuous covariates, remaining 70/30 train/validation. `full`
    /// without oracle outcomes is a [`DataError::MissingOracle`].
    pub fn try_partition(
        &self,
        full: &CausalDataset,
        rep_seed: u64,
    ) -> Result<DataSplit, DataError> {
        let mut rng = rng_from_seed(rep_seed ^ IHDP_TAG ^ 0x5511);
        let n = full.n();
        let ite = full
            .true_ite()
            .ok_or(DataError::MissingOracle { context: "the IHDP partitioning protocol" })?;
        // D_i on the six standardised continuous covariates; effects are
        // standardised too so the tilt is scale-free for continuous outcomes.
        let e_mean = ite.iter().sum::<f64>() / n as f64;
        let e_std = (ite.iter().map(|e| (e - e_mean) * (e - e_mean)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-9);
        let sign = if self.config.rho >= 0.0 { 1.0 } else { -1.0 };
        let log_base = self.config.rho.abs().ln();
        let log_w: Vec<f64> = (0..n)
            .map(|i| {
                let e = (ite[i] - e_mean) / e_std;
                let mut lw = 0.0;
                for j in 0..NUM_CONTINUOUS {
                    let d = (e - sign * self.x_cont_std[(i, j)]).abs();
                    lw -= 10.0 * d * log_base;
                }
                lw
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
            train: full.select(&train_idx),
            val: full.select(&val_idx),
            test: full.select(&test_idx),
        })
    }
}

/// Seed-domain tag separating IHDP RNG streams from other generators.
const IHDP_TAG: u64 = 0x014d_9000;

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> IhdpSimulator {
        IhdpSimulator::try_new(IhdpConfig::default(), 0).expect("valid config")
    }

    #[test]
    fn malformed_specs_degrade_to_typed_errors() {
        use crate::dataset::DataError;
        let bad = |cfg: IhdpConfig| match IhdpSimulator::try_new(cfg, 0) {
            Ok(_) => panic!("expected {cfg:?} to be rejected"),
            Err(e) => e,
        };
        let e = bad(IhdpConfig { n_treated: 0, ..IhdpConfig::default() });
        assert!(matches!(e, DataError::InvalidSpec { what: "ihdp.n_treated", .. }), "{e}");
        let e = bad(IhdpConfig { n_treated: 747, ..IhdpConfig::default() });
        assert!(matches!(e, DataError::InvalidSpec { what: "ihdp.n_treated", .. }), "{e}");
        let e = bad(IhdpConfig { test_fraction: 1.5, ..IhdpConfig::default() });
        assert!(matches!(e, DataError::InvalidSpec { what: "ihdp.test_fraction", .. }), "{e}");
        let e = bad(IhdpConfig { val_fraction: f64::NAN, ..IhdpConfig::default() });
        assert!(matches!(e, DataError::InvalidSpec { what: "ihdp.val_fraction", .. }), "{e}");
        let e = bad(IhdpConfig { rho: 0.5, ..IhdpConfig::default() });
        assert!(matches!(e, DataError::InvalidSpec { what: "ihdp.rho", .. }), "{e}");
        assert!(IhdpSimulator::try_new(IhdpConfig::default(), 0).is_ok());
    }

    #[test]
    fn schema_matches_the_paper() {
        let s = sim();
        assert_eq!(s.covariates().shape(), (747, 25));
        let treated = s.treatment().iter().filter(|&&t| t > 0.5).count();
        assert_eq!(treated, 139, "exactly 139 treated units");
    }

    #[test]
    fn binary_block_is_binary_and_sites_one_hot() {
        let s = sim();
        let x = s.covariates();
        for i in 0..x.rows() {
            for j in 6..TOTAL_COVARIATES {
                let v = x[(i, j)];
                assert!(v == 0.0 || v == 1.0, "x[{i}][{j}] = {v}");
            }
            let site_sum: f64 = (17..25).map(|j| x[(i, j)]).sum();
            assert_eq!(site_sum, 1.0, "site dummies must be one-hot");
        }
    }

    #[test]
    fn treatment_is_confounded_with_covariates() {
        let s = sim();
        let x = s.covariates();
        let t = s.treatment();
        let treated_mean: f64 =
            (0..x.rows()).filter(|&i| t[i] > 0.5).map(|i| x[(i, 0)]).sum::<f64>() / 139.0;
        let control_mean: f64 =
            (0..x.rows()).filter(|&i| t[i] <= 0.5).map(|i| x[(i, 0)]).sum::<f64>() / 608.0;
        assert!(
            (treated_mean - control_mean).abs() > 0.2,
            "selection bias on birth weight: {treated_mean} vs {control_mean}"
        );
    }

    #[test]
    fn nonlinear_surface_att_is_calibrated_to_four() {
        let s = sim();
        let d = s.simulate_outcomes(7);
        let treated: Vec<usize> = d.treated_indices();
        let mu0 = d.mu0.as_ref().unwrap();
        let mu1 = d.mu1.as_ref().unwrap();
        let att: f64 = treated.iter().map(|&i| mu1[i] - mu0[i]).sum::<f64>() / treated.len() as f64;
        assert!((att - 4.0).abs() < 1e-9, "ATT should be calibrated to 4, got {att}");
    }

    #[test]
    fn replications_differ_in_outcomes_not_covariates() {
        let s = sim();
        let a = s.simulate_outcomes(1);
        let b = s.simulate_outcomes(2);
        assert!(a.x.approx_eq(&b.x, 0.0));
        assert_eq!(a.t, b.t);
        assert_ne!(a.yf, b.yf);
    }

    #[test]
    fn partition_sizes_follow_the_protocol() {
        let s = sim();
        let split = s.try_replicate(11).expect("simulated data carries the oracle");
        assert_eq!(split.test.n(), 75); // 10% of 747
        assert_eq!(split.train.n() + split.val.n(), 672);
        split.train.validate().unwrap();
        split.test.validate().unwrap();
    }

    #[test]
    fn outcomes_are_continuous_with_unit_noise() {
        let s = sim();
        let d = s.simulate_outcomes(5);
        assert_eq!(d.outcome, OutcomeKind::Continuous);
        let mu0 = d.mu0.as_ref().unwrap();
        // Residuals yf - mu(t) should have roughly unit variance.
        let mut resid = Vec::new();
        for ((&ti, &yi), &m0) in d.t.iter().zip(&d.yf).zip(mu0.iter()) {
            if ti <= 0.5 {
                resid.push(yi - m0);
            }
        }
        let m = resid.iter().sum::<f64>() / resid.len() as f64;
        let v = resid.iter().map(|r| (r - m) * (r - m)).sum::<f64>() / resid.len() as f64;
        assert!((v - 1.0).abs() < 0.2, "noise variance {v}");
    }
}
