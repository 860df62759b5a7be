//! The paper's synthetic benchmark `Syn_mI_mC_mA_mV` (Sec. V-D1).
//!
//! Covariates `X = [I | C | A | V]` are split into instruments (affect only
//! the treatment), confounders (affect treatment and outcome), adjustments
//! (affect only the outcome) and unstable noise features `V`. The causal
//! mechanism — treatment assignment and the two potential-outcome surfaces —
//! is drawn once per replication ([`SyntheticProcess`]) and shared by every
//! environment; environments differ only in the covariate distribution,
//! induced by bias-rate-`rho` sampling on the unstable features
//! (`crate::sampling`). This realises exactly the paper's setting:
//! `P(T, Y | X)` invariant, `P(X)` shifting.
//!
//! Generation recipe (verbatim from the paper):
//! * `X_j ~ N(0, 1)` for all `m = m_I + m_C + m_A + m_V` coordinates;
//! * `t ~ B(sigmoid(z))`, `z = theta_t . X_IC / 10 + xi`,
//!   `theta_t ~ U(8, 16)^(m_I + m_C)`, `xi ~ N(0, 1)`;
//! * `z0 = theta_y0 . X_CA / (10 (m_C + m_A))`,
//!   `z1 = theta_y1 . X_CA^2 / (10 (m_C + m_A))`,
//!   `Y0 = sign(max(0, z0 - mean(z0)))`, `Y1 = sign(max(0, z1 - mean(z1)))`
//!   (binary potential outcomes thresholded at the *population* mean, which
//!   we estimate once from a large unbiased reference pool so the mechanism
//!   stays fixed across environments);
//! * environment `rho`: sample `n` records from an unbiased pool with
//!   probability `prod_i |rho|^(-10 |Y1 - Y0 - sign(rho) X_vi|)`.

use rand::rngs::StdRng;
use rand::RngCore;
use sbrl_tensor::kernels::{par_for_row_chunks, Parallelism};
use sbrl_tensor::rng::{rng_from_seed, sample_bernoulli, sample_standard_normal, sample_uniform};
use sbrl_tensor::{stable_sigmoid, Matrix};

use crate::dataset::{CausalDataset, OutcomeKind};
use crate::sampling::{selection_log_weight, weighted_sample_without_replacement};

/// Dimension/shape configuration of a synthetic benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Number of instrumental variables `m_I`.
    pub m_instrument: usize,
    /// Number of confounders `m_C`.
    pub m_confounder: usize,
    /// Number of adjustment variables `m_A`.
    pub m_adjustment: usize,
    /// Number of unstable variables `m_V`.
    pub m_unstable: usize,
    /// Oversampling factor of the unbiased pool behind each biased draw.
    pub pool_factor: usize,
    /// Reference-pool size used to estimate the fixed outcome thresholds.
    pub threshold_pool: usize,
}

impl SyntheticConfig {
    /// The paper's `Syn_8_8_8_2` setting.
    pub fn syn_8_8_8_2() -> Self {
        Self {
            m_instrument: 8,
            m_confounder: 8,
            m_adjustment: 8,
            m_unstable: 2,
            pool_factor: 10,
            threshold_pool: 20_000,
        }
    }

    /// The paper's `Syn_16_16_16_2` setting.
    pub fn syn_16_16_16_2() -> Self {
        Self { m_instrument: 16, m_confounder: 16, m_adjustment: 16, ..Self::syn_8_8_8_2() }
    }

    /// Total covariate dimension `m`.
    pub fn dim(&self) -> usize {
        self.m_instrument + self.m_confounder + self.m_adjustment + self.m_unstable
    }

    /// Dataset name in the paper's `Syn_mI_mC_mA_mV` convention.
    pub fn name(&self) -> String {
        format!(
            "Syn_{}_{}_{}_{}",
            self.m_instrument, self.m_confounder, self.m_adjustment, self.m_unstable
        )
    }

    /// Column range of the unstable features within `X`.
    pub fn unstable_columns(&self) -> std::ops::Range<usize> {
        let start = self.m_instrument + self.m_confounder + self.m_adjustment;
        start..start + self.m_unstable
    }
}

/// One replication's frozen causal mechanism.
#[derive(Clone, Debug)]
pub struct SyntheticProcess {
    config: SyntheticConfig,
    theta_t: Vec<f64>,
    theta_y0: Vec<f64>,
    theta_y1: Vec<f64>,
    threshold0: f64,
    threshold1: f64,
}

impl SyntheticProcess {
    /// Draws the mechanism coefficients (and calibrates the outcome
    /// thresholds on an unbiased reference pool) from `seed`.
    pub fn new(config: SyntheticConfig, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let n_ic = config.m_instrument + config.m_confounder;
        let n_ca = config.m_confounder + config.m_adjustment;
        let theta_t: Vec<f64> = (0..n_ic).map(|_| sample_uniform(&mut rng, 8.0, 16.0)).collect();
        let theta_y0: Vec<f64> = (0..n_ca).map(|_| sample_uniform(&mut rng, 8.0, 16.0)).collect();
        let theta_y1: Vec<f64> = (0..n_ca).map(|_| sample_uniform(&mut rng, 8.0, 16.0)).collect();

        let mut process =
            Self { config, theta_t, theta_y0, theta_y1, threshold0: 0.0, threshold1: 0.0 };

        // Estimate the population means of z0 / z1 from an unbiased pool:
        // the per-row latents are drawn in parallel row shards, then summed
        // serially in row order so the sums keep their association.
        let (latents, _) =
            summarise_pool(&mut rng, config.threshold_pool, config.dim(), 2, |row, z| {
                (z[0], z[1]) = process.outcome_latents(row);
            });
        let (mut sum0, mut sum1) = (0.0, 0.0);
        for z in latents.chunks_exact(2) {
            sum0 += z[0];
            sum1 += z[1];
        }
        process.threshold0 = sum0 / config.threshold_pool as f64;
        process.threshold1 = sum1 / config.threshold_pool as f64;
        process
    }

    /// The benchmark configuration of this process.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// The fixed outcome thresholds `(mean(z0), mean(z1))`, estimated on
    /// the unbiased reference pool.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.threshold0, self.threshold1)
    }

    fn outcome_latents(&self, x: &[f64]) -> (f64, f64) {
        let c = &self.config;
        let ca = &x[c.m_instrument..c.m_instrument + c.m_confounder + c.m_adjustment];
        let denom = 10.0 * (c.m_confounder + c.m_adjustment) as f64;
        let z0: f64 = ca.iter().zip(&self.theta_y0).map(|(&x, &th)| th * x).sum::<f64>() / denom;
        let z1: f64 =
            ca.iter().zip(&self.theta_y1).map(|(&x, &th)| th * x * x).sum::<f64>() / denom;
        (z0, z1)
    }

    /// The covariate part `theta_t . X_IC / 10` of the treatment logit; the
    /// logit itself is this term `+ xi`.
    fn treatment_term(&self, x: &[f64]) -> f64 {
        let c = &self.config;
        let ic = &x[..c.m_instrument + c.m_confounder];
        ic.iter().zip(&self.theta_t).map(|(&x, &th)| th * x).sum::<f64>() / 10.0
    }

    /// Generates one environment: `n` units sampled with bias rate `rho`.
    ///
    /// `rho.abs()` must exceed 1 (the paper uses
    /// `rho in {±1.3, ±1.5, ±2.5, ±3}`).
    ///
    /// The unbiased pool of `n * pool_factor` rows is streamed, never
    /// materialised, in four steps:
    /// 1. one serial pass steps the random stream past the pool, keeping a
    ///    copy of the generator every [`CHECKPOINT_ROWS`] rows;
    /// 2. parallel row shards, each started from the checkpoint at or
    ///    before its first row, redraw the pool and keep only what
    ///    treatment and selection need per row;
    /// 3. the treatment draws and the biased selection consume the stream
    ///    serially, in row order;
    /// 4. parallel shards of the `n` selected rows redraw their covariates
    ///    from the checkpoints.
    ///
    /// Every row is drawn from its own position in the one stream, so the
    /// draws, and so the bits, are those of drawing the whole pool up
    /// front, at any [`Parallelism`] setting.
    #[track_caller]
    pub fn generate(&self, rho: f64, n: usize, seed: u64) -> CausalDataset {
        assert!(rho.abs() > 1.0, "bias rate must satisfy |rho| > 1, got {rho}");
        let c = &self.config;
        let dim = c.dim();
        let mut rng = rng_from_seed(seed ^ 0x5b5b_0001);
        let pool_n = n * c.pool_factor.max(1);

        // Per pool row: y0, y1, the treatment term, then the unstable block.
        let v_cols = c.unstable_columns();
        let width = 3 + v_cols.len();
        let (mut summary, checkpoints) = summarise_pool(&mut rng, pool_n, dim, width, |row, s| {
            let (z0, z1) = self.outcome_latents(row);
            s[0] = if z0 - self.threshold0 > 0.0 { 1.0 } else { 0.0 };
            s[1] = if z1 - self.threshold1 > 0.0 { 1.0 } else { 0.0 };
            s[2] = self.treatment_term(row);
            s[3..].copy_from_slice(&row[v_cols.clone()]);
        });
        // Each row's treatment, drawn in row order, replaces its term.
        for s in summary.chunks_exact_mut(width) {
            let xi = sample_standard_normal(&mut rng);
            let p = stable_sigmoid(s[2] + xi);
            s[2] = if sample_bernoulli(&mut rng, p) { 1.0 } else { 0.0 };
        }

        // Biased environment selection on the unstable block.
        let log_w: Vec<f64> = summary
            .chunks_exact(width)
            .map(|s| selection_log_weight(rho, s[1] - s[0], &s[3..]))
            .collect();
        let idx = weighted_sample_without_replacement(&mut rng, &log_w, n);

        // Redraw the selected rows, each shard from the checkpoint at or
        // before its first row, skipping the unselected rows between.
        let mut x = Matrix::zeros(n, dim);
        let workers = Parallelism::global().workers();
        par_for_row_chunks(x.as_mut_slice(), n, dim, workers, |lo, hi, out| {
            let mut next_row = idx[lo..hi].first().copied().unwrap_or(0);
            let mut replay = rng_at_row(&checkpoints, next_row, dim);
            for (&i, row) in idx[lo..hi].iter().zip(out.chunks_exact_mut(dim)) {
                skip_rows(&mut replay, i - next_row, dim);
                fill_standard_normal(&mut replay, row);
                next_row = i + 1;
            }
        });
        let pick = |col: usize| idx.iter().map(|&i| summary[i * width + col]).collect();
        binary_dataset(x, pick(2), pick(0), pick(1))
    }
}

/// Pool rows between two generator checkpoints. A shard of a pool starts
/// from the checkpoint at or before its first row and steps forward to it,
/// so it steps past fewer than this many rows.
pub const CHECKPOINT_ROWS: usize = 1024;

/// Draws a pool of `rows` standard-normal rows of width `dim` from `rng`
/// and returns, in row order, `summarise(row, out)`'s `width` values for
/// every row, with the generator checkpoints of the pool (see
/// [`rng_at_row`]). Leaves `rng` just past the pool, as a serial draw
/// would.
///
/// The pool is drawn in parallel row shards on [`Parallelism::global`]'s
/// workers (inline when serial or inside a pool task); each row is
/// drawn from its own position in the stream, so the output is the same
/// at any worker count.
fn summarise_pool<F>(
    rng: &mut StdRng,
    rows: usize,
    dim: usize,
    width: usize,
    summarise: F,
) -> (Vec<f64>, Vec<StdRng>)
where
    F: Fn(&[f64], &mut [f64]) + Sync,
{
    let mut checkpoints = Vec::with_capacity(rows / CHECKPOINT_ROWS + 1);
    for start in (0..=rows).step_by(CHECKPOINT_ROWS) {
        checkpoints.push(rng.clone());
        skip_rows(rng, CHECKPOINT_ROWS.min(rows - start), dim);
    }
    let mut out = vec![0.0; rows * width];
    let workers = Parallelism::global().workers();
    par_for_row_chunks(&mut out, rows, width, workers, |lo, _, shard| {
        let mut shard_rng = rng_at_row(&checkpoints, lo, dim);
        let mut row = vec![0.0; dim];
        for summary in shard.chunks_exact_mut(width) {
            fill_standard_normal(&mut shard_rng, &mut row);
            summarise(&row, summary);
        }
    });
    (out, checkpoints)
}

/// The generator positioned at pool row `row` (at most the pool's length),
/// from the pool's checkpoints.
fn rng_at_row(checkpoints: &[StdRng], row: usize, dim: usize) -> StdRng {
    let mut rng = checkpoints[row / CHECKPOINT_ROWS].clone();
    skip_rows(&mut rng, row % CHECKPOINT_ROWS, dim);
    rng
}

/// Steps `rng` past `rows` pool rows of width `dim`: each standard normal
/// consumes exactly two raw draws.
fn skip_rows(rng: &mut StdRng, rows: usize, dim: usize) {
    for _ in 0..2 * dim * rows {
        rng.next_u64();
    }
}

/// Overwrites `row` with i.i.d. `N(0, 1)` draws, in order.
fn fill_standard_normal(rng: &mut StdRng, row: &mut [f64]) {
    for v in row {
        *v = sample_standard_normal(rng);
    }
}

/// Assembles a binary-outcome dataset from the selected units' covariates,
/// treatments and potential outcomes.
fn binary_dataset(x: Matrix, t: Vec<f64>, y0: Vec<f64>, y1: Vec<f64>) -> CausalDataset {
    let yf: Vec<f64> = t
        .iter()
        .zip(y0.iter().zip(&y1))
        .map(|(&t, (&y0, &y1))| if t > 0.5 { y1 } else { y0 })
        .collect();
    let ycf: Vec<f64> = t
        .iter()
        .zip(y0.iter().zip(&y1))
        .map(|(&t, (&y0, &y1))| if t > 0.5 { y0 } else { y1 })
        .collect();
    CausalDataset {
        x,
        t,
        yf,
        ycf: Some(ycf),
        mu0: Some(y0),
        mu1: Some(y1),
        outcome: OutcomeKind::Binary,
    }
}

/// The bias rates evaluated in Table I / Fig. 3 of the paper.
pub const PAPER_BIAS_RATES: [f64; 8] = [-3.0, -2.5, -1.5, -1.3, 1.3, 1.5, 2.5, 3.0];

/// The training bias rate used throughout the paper's experiments.
pub const TRAIN_BIAS_RATE: f64 = 2.5;

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::randn;

    /// The materialising recipe `SyntheticProcess::new` and `generate`
    /// replaced: the whole threshold pool and the whole unbiased pool drawn
    /// up front. Kept to pin the streamed versions to its bits.
    mod materialised {
        use super::*;

        pub fn new(config: SyntheticConfig, seed: u64) -> SyntheticProcess {
            let mut rng = rng_from_seed(seed);
            let n_ic = config.m_instrument + config.m_confounder;
            let n_ca = config.m_confounder + config.m_adjustment;
            let theta_t = (0..n_ic).map(|_| sample_uniform(&mut rng, 8.0, 16.0)).collect();
            let theta_y0 = (0..n_ca).map(|_| sample_uniform(&mut rng, 8.0, 16.0)).collect();
            let theta_y1 = (0..n_ca).map(|_| sample_uniform(&mut rng, 8.0, 16.0)).collect();
            let mut process = SyntheticProcess {
                config,
                theta_t,
                theta_y0,
                theta_y1,
                threshold0: 0.0,
                threshold1: 0.0,
            };
            let pool = randn(&mut rng, config.threshold_pool, config.dim());
            let (mut sum0, mut sum1) = (0.0, 0.0);
            for i in 0..pool.rows() {
                let (z0, z1) = process.outcome_latents(pool.row(i));
                sum0 += z0;
                sum1 += z1;
            }
            process.threshold0 = sum0 / pool.rows() as f64;
            process.threshold1 = sum1 / pool.rows() as f64;
            process
        }

        pub fn generate(p: &SyntheticProcess, rho: f64, n: usize, seed: u64) -> CausalDataset {
            let c = &p.config;
            let mut rng = rng_from_seed(seed ^ 0x5b5b_0001);
            let pool_n = n * c.pool_factor.max(1);
            let x_pool = randn(&mut rng, pool_n, c.dim());
            let (mut y0, mut y1, mut t) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..pool_n {
                let row = x_pool.row(i);
                let (z0, z1) = p.outcome_latents(row);
                y0.push(if z0 - p.threshold0 > 0.0 { 1.0 } else { 0.0 });
                y1.push(if z1 - p.threshold1 > 0.0 { 1.0 } else { 0.0 });
                let xi = sample_standard_normal(&mut rng);
                let prob = stable_sigmoid(p.treatment_term(row) + xi);
                t.push(if sample_bernoulli(&mut rng, prob) { 1.0 } else { 0.0 });
            }
            let v_cols = c.unstable_columns();
            let log_w: Vec<f64> = (0..pool_n)
                .map(|i| selection_log_weight(rho, y1[i] - y0[i], &x_pool.row(i)[v_cols.clone()]))
                .collect();
            let idx = weighted_sample_without_replacement(&mut rng, &log_w, n);
            let pick = |v: &[f64]| idx.iter().map(|&i| v[i]).collect::<Vec<f64>>();
            binary_dataset(x_pool.select_rows(&idx), pick(&t), pick(&y0), pick(&y1))
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn streamed_generation_matches_the_materialising_recipe() {
        let mut one_row_pool = small_config();
        one_row_pool.pool_factor = 1; // every pool row is selected
        for (config, seed) in
            [(SyntheticConfig::syn_8_8_8_2(), 1000), (small_config(), 7), (one_row_pool, 3)]
        {
            let streamed = SyntheticProcess::new(config, seed);
            let reference = materialised::new(config, seed);
            assert_eq!(streamed.threshold0.to_bits(), reference.threshold0.to_bits());
            assert_eq!(streamed.threshold1.to_bits(), reference.threshold1.to_bits());
            for rho in [1.3, -1.3, 3.0, -3.0] {
                for n in [1, 120] {
                    let a = streamed.generate(rho, n, 11);
                    let b = materialised::generate(&reference, rho, n, 11);
                    let what = format!("{} rho {rho} n {n}", config.name());
                    assert_eq!(bits(a.x.as_slice()), bits(b.x.as_slice()), "x: {what}");
                    assert_eq!(bits(&a.t), bits(&b.t), "t: {what}");
                    assert_eq!(bits(&a.yf), bits(&b.yf), "yf: {what}");
                    for (u, v) in [(&a.ycf, &b.ycf), (&a.mu0, &b.mu0), (&a.mu1, &b.mu1)] {
                        assert_eq!(
                            bits(u.as_deref().unwrap()),
                            bits(v.as_deref().unwrap()),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            m_instrument: 4,
            m_confounder: 4,
            m_adjustment: 4,
            m_unstable: 2,
            pool_factor: 5,
            threshold_pool: 2000,
        }
    }

    #[test]
    fn shapes_and_validity() {
        let p = SyntheticProcess::new(small_config(), 7);
        let d = p.generate(2.5, 500, 1);
        assert_eq!(d.n(), 500);
        assert_eq!(d.dim(), 14);
        d.validate().unwrap();
        assert_eq!(d.outcome, OutcomeKind::Binary);
    }

    #[test]
    fn outcomes_are_binary_and_counterfactuals_consistent() {
        let p = SyntheticProcess::new(small_config(), 3);
        let d = p.generate(1.5, 300, 2);
        for i in 0..d.n() {
            assert!(d.yf[i] == 0.0 || d.yf[i] == 1.0);
            let y0 = d.mu0.as_ref().unwrap()[i];
            let y1 = d.mu1.as_ref().unwrap()[i];
            let expected = if d.t[i] > 0.5 { y1 } else { y0 };
            assert_eq!(d.yf[i], expected);
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let p = SyntheticProcess::new(small_config(), 5);
        let a = p.generate(2.5, 100, 42);
        let b = p.generate(2.5, 100, 42);
        assert!(a.x.approx_eq(&b.x, 0.0));
        assert_eq!(a.t, b.t);
        assert_eq!(a.yf, b.yf);
        let c = p.generate(2.5, 100, 43);
        assert!(!a.x.approx_eq(&c.x, 1e-9));
    }

    #[test]
    fn selection_bias_is_present() {
        // Confounders influence treatment: treated and control means of a
        // confounder column should differ noticeably.
        let p = SyntheticProcess::new(small_config(), 11);
        let d = p.generate(2.5, 2000, 1);
        let treated = d.treated_indices();
        let control = d.control_indices();
        let col = p.config().m_instrument; // first confounder
        let mt: f64 = treated.iter().map(|&i| d.x[(i, col)]).sum::<f64>() / treated.len() as f64;
        let mc: f64 = control.iter().map(|&i| d.x[(i, col)]).sum::<f64>() / control.len() as f64;
        assert!((mt - mc).abs() > 0.1, "selection bias too weak: {mt} vs {mc}");
    }

    #[test]
    fn bias_rate_sign_controls_unstable_correlation() {
        let p = SyntheticProcess::new(small_config(), 13);
        let col = p.config().unstable_columns().start;
        let mut cors = Vec::new();
        for rho in [2.5, -2.5] {
            let d = p.generate(rho, 2000, 1);
            let ite = d.true_ite().unwrap();
            let xv: Vec<f64> = (0..d.n()).map(|i| d.x[(i, col)]).collect();
            let me = ite.iter().sum::<f64>() / ite.len() as f64;
            let mx = xv.iter().sum::<f64>() / xv.len() as f64;
            let cov: f64 = ite.iter().zip(&xv).map(|(&e, &x)| (e - me) * (x - mx)).sum::<f64>()
                / ite.len() as f64;
            cors.push(cov);
        }
        assert!(cors[0] > 0.02, "rho=2.5 should induce positive correlation, got {}", cors[0]);
        assert!(cors[1] < -0.02, "rho=-2.5 should induce negative correlation, got {}", cors[1]);
    }

    #[test]
    fn environments_share_the_causal_mechanism() {
        // P(Y|X,T) must be invariant: the same covariate row run through the
        // process yields identical potential outcomes regardless of rho.
        let p = SyntheticProcess::new(small_config(), 17);
        let (z0, z1) = p.outcome_latents(&[0.3; 14]);
        let (z0b, z1b) = p.outcome_latents(&[0.3; 14]);
        assert_eq!((z0, z1), (z0b, z1b));
    }

    #[test]
    fn stronger_shift_induces_stronger_spurious_correlation() {
        // |rho| controls the tilt strength: the correlation between the
        // unstable feature and the effect must grow with |rho| ("the higher
        // |rho| is, the stronger correlation between Y and X_V").
        let p = SyntheticProcess::new(small_config(), 19);
        let col = p.config().unstable_columns().start;
        let corr = |d: &CausalDataset| {
            let ite = d.true_ite().unwrap();
            let xv: Vec<f64> = (0..d.n()).map(|i| d.x[(i, col)]).collect();
            let me = ite.iter().sum::<f64>() / ite.len() as f64;
            let mx = xv.iter().sum::<f64>() / xv.len() as f64;
            let cov: f64 = ite.iter().zip(&xv).map(|(&e, &x)| (e - me) * (x - mx)).sum::<f64>();
            let ve: f64 = ite.iter().map(|&e| (e - me) * (e - me)).sum::<f64>();
            let vx: f64 = xv.iter().map(|&x| (x - mx) * (x - mx)).sum::<f64>();
            cov / (ve.sqrt() * vx.sqrt()).max(1e-12)
        };
        let near = corr(&p.generate(1.3, 3000, 1));
        let far = corr(&p.generate(3.0, 3000, 1));
        assert!(
            far > near + 0.05,
            "rho=3 correlation {far} should exceed rho=1.3 correlation {near}"
        );
    }

    #[test]
    fn paper_configs_have_expected_dims() {
        assert_eq!(SyntheticConfig::syn_8_8_8_2().dim(), 26);
        assert_eq!(SyntheticConfig::syn_16_16_16_2().dim(), 50);
        assert_eq!(SyntheticConfig::syn_8_8_8_2().name(), "Syn_8_8_8_2");
    }
}
