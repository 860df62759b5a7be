//! Hilbert–Schmidt Independence Criterion with Random Fourier Features
//! (HSIC-RFF) — the paper's Independence Regularizer machinery (Eq. 5–10).
//!
//! For two scalar features `A`, `B` and random Fourier functions
//! `u_i(x) = sqrt(2) cos(w_i x + phi_i)` with `w ~ N(0,1)`,
//! `phi ~ U(0, 2*pi)` (Eq. 6), the statistic is the squared Frobenius norm of
//! the cross-covariance of the feature maps (Eq. 7). The weighted version
//! (Eq. 9) plugs normalised sample weights into the covariance. The
//! decorrelation loss `L_D` (Eq. 10) sums the statistic over feature pairs.
//!
//! Implementation notes (how the weight phase schedules these terms is in
//! `docs/PERFORMANCE.md`, "Term-level parallelism in the weight phase"):
//! * one bank of `k` Fourier functions is shared across features (they are
//!   identically distributed, so this is a variance-reduction-neutral
//!   simplification that lets the pair sum collapse into a single
//!   block-covariance computation);
//! * the `a = b` self-dependence term of Eq. 10 is excluded by default (it
//!   penalises feature variance rather than dependence); set
//!   [`DecorrelationConfig::include_diagonal`] to restore the literal sum;
//! * features can be standardised and column-subsampled per call to keep the
//!   loss scale-free and affordable on wide layers;
//! * only the sample weights are learned (the weight step runs with the
//!   network frozen), so the Fourier features are computed off the tape by
//!   one forward-only kernel and enter it as a constant.

use rand::rngs::StdRng;
use sbrl_tensor::kernels::Parallelism;
use sbrl_tensor::rng::{permutation_into, sample_standard_normal, sample_uniform};
use sbrl_tensor::workers::run_tasks;
use sbrl_tensor::{Graph, Matrix, TensorId};
use std::sync::{Mutex, PoisonError};

use crate::kernels::{median_bandwidth, rbf_kernel};

/// A bank of `k` random Fourier functions shared across features.
#[derive(Clone, Debug)]
pub struct Rff {
    omegas: Vec<f64>,
    phis: Vec<f64>,
}

impl Rff {
    /// The paper's default number of Fourier functions per feature.
    pub const DEFAULT_NUM_FUNCTIONS: usize = 5;

    /// Samples `k` functions `(w_i, phi_i)` from `N(0,1) x U(0, 2*pi)`.
    pub fn sample(rng: &mut StdRng, k: usize) -> Self {
        let omegas = (0..k).map(|_| sample_standard_normal(rng)).collect();
        let phis = (0..k).map(|_| sample_uniform(rng, 0.0, 2.0 * std::f64::consts::PI)).collect();
        Self { omegas, phis }
    }

    /// Number of functions in the bank.
    pub fn num_functions(&self) -> usize {
        self.omegas.len()
    }

    /// Feature map of a scalar series: `n x k` matrix `U` with
    /// `U[r][i] = u_i(x_r)`.
    pub fn feature_map(&self, xs: &[f64]) -> Matrix {
        let mut u = Matrix::zeros(xs.len(), self.num_functions());
        fourier_features_into(xs, 1, &[0], false, self, &mut u);
        u
    }
}

/// The Fourier features of columns `cols` of the row-major `z` (`width`
/// columns per row), forward only: `out`'s block `i` (columns
/// `i*d .. (i+1)*d`, `d = cols.len()`) is `sqrt(2) cos(w_i x + phi_i)` of
/// the `n x d` input `x`, whose column `c` is column `cols[c]` of `z`.
///
/// With `standardize`, each input column is first shifted and scaled by its
/// batch statistics: `x = (z + (-m)) * s` with `m` the column mean and
/// `s = 1 / max(std, 1e-6)`, each a serial fold over the rows. The rounding
/// order (`(z + (-m)) * s`, then `cos(x * w_i + phi_i) * sqrt(2)`, with no
/// fused multiply-add) is fixed: the committed goldens and fixtures pin
/// these bits. Nothing is differentiated: the weights are the only thing
/// the decorrelation loss learns.
fn fourier_features_into(
    z: &[f64],
    width: usize,
    cols: &[usize],
    standardize: bool,
    rff: &Rff,
    out: &mut Matrix,
) {
    let (n, d) = (out.rows(), cols.len());
    debug_assert_eq!(out.cols(), rff.num_functions() * d, "one block per Fourier function");
    if out.cols() == 0 {
        return;
    }
    // Block 0 first holds the (standardised) inputs, one column per pass.
    let inv_n = 1.0 / n as f64;
    for (c, &j) in cols.iter().enumerate() {
        let src = z.iter().skip(j).step_by(width);
        let dst = out.as_mut_slice().iter_mut().skip(c).step_by(rff.num_functions() * d);
        if standardize {
            let mut mean = 0.0;
            for &v in src.clone() {
                mean += v;
            }
            mean *= inv_n;
            let mut ss = 0.0;
            for &v in src.clone() {
                let dv = v - mean;
                ss += dv * dv;
            }
            let (neg_mean, inv_std) = (-mean, 1.0 / (ss * inv_n).sqrt().max(1e-6));
            for (o, &v) in dst.zip(src) {
                *o = (v + neg_mean) * inv_std;
            }
        } else {
            for (o, &v) in dst.zip(src) {
                *o = v;
            }
        }
    }
    // Then every other block reads them, and block 0 is mapped last, in
    // place.
    let feature = |x: f64, omega: f64, phi: f64| (x * omega + phi).cos() * std::f64::consts::SQRT_2;
    let mut coefs = rff.omegas.iter().copied().zip(rff.phis.iter().copied());
    let Some((omega0, phi0)) = coefs.next() else { return };
    for r in 0..n {
        let (x, rest) = out.row_mut(r).split_at_mut(d);
        for (block, (omega, phi)) in rest.chunks_exact_mut(d).zip(coefs.clone()) {
            for (o, &v) in block.iter_mut().zip(x.iter()) {
                *o = feature(v, omega, phi);
            }
        }
        for v in x {
            *v = feature(*v, omega0, phi0);
        }
    }
}

fn normalized_weights(weights: Option<&[f64]>, n: usize) -> Vec<f64> {
    match weights {
        None => vec![1.0 / n as f64; n],
        Some(w) => {
            assert_eq!(w.len(), n, "weight length mismatch");
            let total: f64 = w.iter().sum::<f64>().max(1e-12);
            w.iter().map(|x| x / total).collect()
        }
    }
}

/// Weighted `HSIC_RFF` between two scalar series (Eq. 7 / Eq. 9):
/// `|| Cov_w(u(A), v(B)) ||_F^2`.
///
/// # Panics
/// Panics if the series lengths differ.
#[track_caller]
pub fn hsic_rff_pair(a: &[f64], b: &[f64], rff: &Rff, weights: Option<&[f64]>) -> f64 {
    assert_eq!(a.len(), b.len(), "hsic_rff_pair: length mismatch");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let w = normalized_weights(weights, n);
    let u = rff.feature_map(a);
    let v = rff.feature_map(b);
    let k = rff.num_functions();

    let mut mean_u = vec![0.0; k];
    let mut mean_v = vec![0.0; k];
    for r in 0..n {
        for i in 0..k {
            mean_u[i] += w[r] * u[(r, i)];
            mean_v[i] += w[r] * v[(r, i)];
        }
    }
    cross_cov_frob2(&u, &v, &mean_u, &mean_v, &w)
}

/// Symmetric `d x d` matrix of pairwise `HSIC_RFF` values between the columns
/// of `z` — the quantity visualised in the paper's Fig. 5. It runs no GEMM.
///
/// The Fourier feature map and its weighted column means are computed
/// **once per column** (not once per pair, which used to re-extract every
/// column into fresh vectors on each call) and shared read-only across the
/// `d (d + 1) / 2` unordered pairs; each pair's statistic is computed from
/// the same per-column values the pairwise evaluation would produce.
pub fn pairwise_hsic_matrix(z: &Matrix, rff: &Rff, weights: Option<&[f64]>) -> Matrix {
    let d = z.cols();
    let n = z.rows();
    if d == 0 {
        return Matrix::zeros(0, 0);
    }
    if n == 0 {
        return Matrix::zeros(d, d);
    }
    let w = normalized_weights(weights, n);
    let k = rff.num_functions();
    // One transpose makes every column a contiguous row slice; per-column
    // feature maps and weighted means are then computed exactly once.
    let zt = z.transpose();
    let maps: Vec<Matrix> = (0..d).map(|j| rff.feature_map(zt.row(j))).collect();
    let means: Vec<Vec<f64>> = maps
        .iter()
        .map(|u| {
            let mut mean = vec![0.0; k];
            for r in 0..n {
                for i in 0..k {
                    mean[i] += w[r] * u[(r, i)];
                }
            }
            mean
        })
        .collect();

    let mut out = Matrix::zeros(d, d);
    for a in 0..d {
        for b in a..d {
            let v = cross_cov_frob2(&maps[a], &maps[b], &means[a], &means[b], &w);
            out[(a, b)] = v;
            out[(b, a)] = v;
        }
    }
    out
}

/// `|| Cov_w(u, v) ||_F^2` from precomputed feature maps and weighted means
/// — the shared kernel of [`hsic_rff_pair`] and [`pairwise_hsic_matrix`]
/// (identical accumulation order in both): one serial fold per covariance
/// entry.
fn cross_cov_frob2(u: &Matrix, v: &Matrix, mean_u: &[f64], mean_v: &[f64], w: &[f64]) -> f64 {
    let n = u.rows();
    let k = u.cols();
    let mut frob2 = 0.0;
    for i in 0..k {
        for j in 0..k {
            let mut cov = 0.0;
            for r in 0..n {
                cov += w[r] * u[(r, i)] * v[(r, j)];
            }
            cov -= mean_u[i] * mean_v[j];
            frob2 += cov * cov;
        }
    }
    frob2
}

/// Mean of the off-diagonal entries of [`pairwise_hsic_matrix`] — the
/// "average HSIC_RFF" the paper reports for Fig. 5 (0.85 / 0.64 / 0.58).
pub fn mean_offdiag_hsic(z: &Matrix, rff: &Rff, weights: Option<&[f64]>) -> f64 {
    let d = z.cols();
    if d < 2 {
        return 0.0;
    }
    let m = pairwise_hsic_matrix(z, rff, weights);
    let mut acc = 0.0;
    for a in 0..d {
        for b in 0..d {
            if a != b {
                acc += m[(a, b)];
            }
        }
    }
    acc / (d * (d - 1)) as f64
}

/// Classic biased HSIC estimator `tr(K_a H K_b H) / (n-1)^2` with RBF
/// kernels (test oracle for the RFF approximation's behaviour).
///
/// Non-positive bandwidths select the median heuristic per input. The
/// centring by `H = I - 11^T/n` is applied **implicitly**: `K_a` is
/// double-centred through its row/column/grand means and the trace collapses
/// to an elementwise dot with the (symmetric) `K_b`, so the estimator costs
/// O(n²) instead of the two O(n³) GEMMs that materialising `H` used to
/// pay. Mathematically identical to the explicit product (up to
/// floating-point summation order).
///
/// The row-mean and trace folds are serial; the kernel fills' `A Bᵀ` (the
/// median-heuristic bandwidths' included) are GEMMs.
///
/// # Example
///
/// ```
/// use sbrl_stats::hsic_biased;
/// use sbrl_tensor::rng::{randn, rng_from_seed};
///
/// let mut rng = rng_from_seed(0);
/// let x = randn(&mut rng, 100, 1);
/// let y_dependent = x.map(|v| v * v); // uncorrelated but dependent
/// let y_independent = randn(&mut rng, 100, 1);
/// // Negative bandwidths select the median heuristic.
/// let dep = hsic_biased(&x, &y_dependent, -1.0, -1.0);
/// let ind = hsic_biased(&x, &y_independent, -1.0, -1.0);
/// assert!(dep > ind);
/// ```
#[track_caller]
pub fn hsic_biased(a: &Matrix, b: &Matrix, sigma_a: f64, sigma_b: f64) -> f64 {
    assert_eq!(a.rows(), b.rows(), "hsic_biased: sample counts differ");
    let n = a.rows();
    if n < 2 {
        return 0.0;
    }
    let sa = if sigma_a > 0.0 { sigma_a } else { median_bandwidth(a) };
    let sb = if sigma_b > 0.0 { sigma_b } else { median_bandwidth(b) };
    let ka = rbf_kernel(a, a, sa);
    let kb = rbf_kernel(b, b, sb);

    // Implicit double-centring of K_a: with H = I - 11^T/n,
    //   (H K_a H)[i][j] = K_a[i][j] - r_i - r_j + m
    // where r_i are row means (K_a is symmetric, so column means coincide)
    // and m is the grand mean. By trace cyclicity and K_b's symmetry,
    //   tr(K_a H K_b H) = Σ_ij (H K_a H)[i][j] · K_b[i][j].
    let inv_n = 1.0 / n as f64;
    let row_means: Vec<f64> = (0..n).map(|i| ka.row(i).iter().sum::<f64>() * inv_n).collect();
    let grand_mean = row_means.iter().sum::<f64>() * inv_n;
    let denom = ((n - 1) * (n - 1)) as f64;
    let mut trace = 0.0;
    for i in 0..n {
        let r_i = row_means[i];
        for (j, (&kav, &kbv)) in ka.row(i).iter().zip(kb.row(i)).enumerate() {
            trace += (kav - r_i - row_means[j] + grand_mean) * kbv;
        }
    }
    trace / denom
}

/// Options for the decorrelation loss `L_D` (Eq. 10).
#[derive(Clone, Copy, Debug)]
pub struct DecorrelationConfig {
    /// Include the `a = b` self-dependence terms of the literal Eq. 10 sum.
    pub include_diagonal: bool,
    /// Standardise columns (batch mean/std treated as constants) before the
    /// Fourier map, keeping the cosine features in a well-conditioned range.
    pub standardize: bool,
    /// Cap on the number of feature columns considered per call; wider
    /// layers are subsampled without replacement. `None` = all columns.
    pub max_features: Option<usize>,
    /// Divide by the number of feature pairs so the loss magnitude (and the
    /// paper's γ coefficients) transfer across layer widths.
    pub normalize: bool,
}

impl Default for DecorrelationConfig {
    fn default() -> Self {
        Self { include_diagonal: false, standardize: true, max_features: Some(32), normalize: true }
    }
}

/// Per-fit scratch space for the SBRL decorrelation regularizer.
///
/// The weight-phase loss is rebuilt every optimiser step; this scratch keeps
/// the step-invariant pieces alive across steps, so a warmed-up step
/// allocates nothing in this module:
///
/// * the column list of [`decorrelation_loss_graph_scratch`], refilled in
///   place (a subsample with the same RNG draws as
///   `sample_without_replacement`);
/// * one tape per term of [`decorrelation_losses_graph`], reset each step
///   rather than rebuilt, with that term's own column list.
///
/// All tensor values flow through pooled graph buffers, so results are
/// bit-identical with or without a reused scratch.
#[derive(Default)]
pub struct HsicScratch {
    perm: Vec<usize>,
    terms: Vec<Mutex<TermTape>>,
}

impl HsicScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Writes into `perm` the columns of an `n x d_full` tap a decorrelation
/// term reads: the first `s` entries of a fresh permutation when
/// [`DecorrelationConfig::max_features`] caps the width at `s`, else every
/// column in order. Returns how many leading entries of `perm` the term
/// reads, or `None` when the term is the constant zero: fewer than two rows,
/// no columns, or one column without the diagonal term.
fn draw_columns(
    n: usize,
    d_full: usize,
    cfg: &DecorrelationConfig,
    rng: &mut StdRng,
    perm: &mut Vec<usize>,
) -> Option<usize> {
    if n < 2 || d_full < 1 {
        return None;
    }
    let d = match cfg.max_features {
        Some(s) if d_full > s => {
            permutation_into(rng, perm, d_full);
            s
        }
        _ => {
            perm.clear();
            perm.extend(0..d_full);
            d_full
        }
    };
    let min_width = if cfg.include_diagonal { 1 } else { 2 };
    (d >= min_width).then_some(d)
}

/// Panics if `tap` requires gradients: a term reads its tap's values into
/// constant Fourier features, so a trainable tap would silently lose its
/// gradient.
#[track_caller]
fn assert_frozen_tap(g: &Graph, tap: TensorId) {
    if g.requires_grad(tap) {
        // lint: allow(panic) — documented precondition (`# Panics`) of both
        // entry points: a trainable tap would otherwise lose its gradient
        // silently.
        panic!("decorrelation loss: tap {tap:?} requires gradients");
    }
}

/// One term of [`decorrelation_losses_graph`]: its own tape, reused across
/// steps, plus this step's plan and results.
#[derive(Default)]
struct TermTape {
    tape: Graph,
    perm: Vec<usize>,
    /// `(tap, γ, width)`, planned on the calling thread before dispatch;
    /// `width` is [`draw_columns`]'s.
    plan: Option<(TensorId, f64, Option<usize>)>,
    /// `(γ · L_D, w leaf feeding div, w leaf feeding sum)` on `tape`.
    built: Option<(TensorId, TensorId, TensorId)>,
}

impl TermTape {
    /// Builds `γ · L_D(tap, w)` on this term's tape from the values in `src`
    /// and back-propagates it with seed 1.0.
    fn build(&mut self, src: &Graph, w: TensorId, rff: &Rff, cfg: &DecorrelationConfig) {
        let Some((tap, gamma, width)) = self.plan.take() else { return };
        let t = &mut self.tape;
        t.reset();
        // One leaf per use of `w`, so each receives exactly one delta.
        let w_sum = t.param_copied(src.value(w));
        let w_div = t.param_copied(src.value(w));
        let loss = match width {
            Some(d) => {
                let (z, cols) = (src.value(tap), &self.perm[..d]);
                let mut f = t.take_buffer(z.rows(), rff.num_functions() * d);
                fourier_features_into(z.as_slice(), z.cols(), cols, cfg.standardize, rff, &mut f);
                let f = t.constant(f);
                loss_term(t, f, d, w_sum, w_div, cfg)
            }
            None => t.scalar_const(0.0),
        };
        let out = t.scale(loss, gamma);
        t.backward(out);
        self.built = Some((out, w_div, w_sum));
    }
}

/// Weighted decorrelation loss `L_D(Z, w)` (Eq. 10): the sum over feature
/// pairs of `HSIC^w_RFF` between columns of `z`.
///
/// `w` is an `n x 1` column of positive sample weights (renormalised
/// internally, Eq. 9); gradients flow into `w` only. The Fourier features
/// of `z` enter `g` as a constant, computed off the tape. `rng` drives the
/// per-call column subsample when [`DecorrelationConfig::max_features`]
/// caps the width. `scratch` holds the column list; step loops keep one per
/// fit, so a warm step allocates nothing (a one-off call passes
/// `&mut HsicScratch::new()`).
///
/// # Panics
/// Panics if `z` requires gradients, which would be silently lost.
#[track_caller]
pub fn decorrelation_loss_graph_scratch(
    g: &mut Graph,
    z: TensorId,
    w: TensorId,
    rff: &Rff,
    cfg: &DecorrelationConfig,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
) -> TensorId {
    assert_frozen_tap(g, z);
    let (n, d_full) = g.value(z).shape();
    let Some(d) = draw_columns(n, d_full, cfg, rng, &mut scratch.perm) else {
        return g.scalar_const(0.0);
    };
    let mut f = g.take_buffer(n, rff.num_functions() * d);
    let zv = g.value(z).as_slice();
    fourier_features_into(zv, d_full, &scratch.perm[..d], cfg.standardize, rff, &mut f);
    let f = g.constant(f);
    loss_term(g, f, d, w, w, cfg)
}

/// Several weighted decorrelation terms `γ_i · L_D(z_i, w)` at once, the
/// weight phase's HSIC work. Each term is built and back-propagated on its
/// own tape in `scratch`, the terms running concurrently as tasks of the
/// worker pool (inline under [`Parallelism::Serial`] or inside another pool
/// task). Each is then spliced into `g` with [`Graph::replay`]; `out`
/// (cleared first) receives the spliced `1 x 1` nodes in term order.
///
/// Values and `w`'s gradient are bit-identical to building each term on `g`
/// with [`decorrelation_loss_graph_scratch`] and `g.scale(·, γ_i)`, in the
/// same order, when the upstream gradient reaching each node is exactly 1.0,
/// as it is when the nodes are summed into the loss with `Graph::add`:
///
/// * the column subsamples are drawn here, on the calling thread, in term
///   order, so the RNG stream is the serial one;
/// * each term tape binds `w` as two leaves, one for the `sum` and one for
///   the `div_scalar_of` that normalise it, and the replay adds the `div`
///   delta and then the `sum` delta into `w`: the order the one-tape sweep
///   adds them. Adding their pre-summed total instead rounds differently;
/// * the nodes are created in term order, so the reverse sweep replays the
///   last term first, as it visits the terms on one tape.
///
/// # Panics
/// Panics if a tap requires gradients, as
/// [`decorrelation_loss_graph_scratch`] does.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn decorrelation_losses_graph(
    g: &mut Graph,
    terms: impl IntoIterator<Item = (TensorId, f64)>,
    w: TensorId,
    rff: &Rff,
    cfg: &DecorrelationConfig,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
    out: &mut Vec<TensorId>,
) {
    let mut count = 0;
    for (tap, gamma) in terms {
        assert_frozen_tap(g, tap);
        if scratch.terms.len() == count {
            scratch.terms.push(Mutex::default());
        }
        let term = scratch.terms[count].get_mut().unwrap_or_else(PoisonError::into_inner);
        let (n, d_full) = g.value(tap).shape();
        let width = draw_columns(n, d_full, cfg, rng, &mut term.perm);
        term.plan = Some((tap, gamma, width));
        count += 1;
    }

    // `run_tasks` re-raises a task's panic, and every build resets
    // its tape first, so a guard poisoned by an earlier panic is safe to
    // reuse.
    let (tapes, src) = (&scratch.terms[..count], &*g);
    run_tasks(count, Parallelism::global().workers(), &|k| {
        tapes[k].lock().unwrap_or_else(PoisonError::into_inner).build(src, w, rff, cfg);
    });

    out.clear();
    for term in &mut scratch.terms[..count] {
        let term = term.get_mut().unwrap_or_else(PoisonError::into_inner);
        // Every planned term was built: `run_tasks` runs each task
        // once or re-raises its panic.
        let Some((loss, w_div, w_sum)) = term.built.take() else { continue };
        out.push(g.replay(&term.tape, loss, &[(w_div, w), (w_sum, w)]));
    }
}

/// Builds one `L_D` term (Eq. 10) on `g` from the constant `n x (k*d)`
/// Fourier features `f` of its `d` columns; feature `a`'s functions sit at
/// columns `{a, d+a, ...}`. `w` enters twice: `w_sum` is summed into the
/// normaliser and `w_div` divided by it; pass the same node for both to
/// build on a single tape.
fn loss_term(
    g: &mut Graph,
    f: TensorId,
    d: usize,
    w_sum: TensorId,
    w_div: TensorId,
    cfg: &DecorrelationConfig,
) -> TensorId {
    // Normalised weights and weighted covariance C = F^T diag(w_hat) F - m m^T.
    let w_total = g.sum(w_sum);
    let w_safe = g.add_scalar(w_total, 1e-12);
    let w_hat = g.div_scalar_of(w_div, w_safe);
    let fw = g.mul_col(f, w_hat);
    let mean = g.sum_axis0(fw); // 1 x kd (weighted mean)
    let raw = g.matmul_tn(f, fw); // kd x kd, fused transpose
    let mean_t = g.transpose(mean);
    let mm = g.matmul(mean_t, mean);
    let cov = g.sub(raw, mm);

    // Block masks: entry (p, q) belongs to feature pair (p mod d, q mod d).
    // The fused reduction applies the {0,1} mask arithmetic on the fly —
    // bit-identical to materialising the mask matrix, with no mask traffic.
    let off_sum = g.block_masked_sumsq(cov, d, false);
    let mut loss = g.scale(off_sum, 0.5); // each unordered pair counted twice

    let mut num_pairs = (d * (d - 1) / 2) as f64;
    if cfg.include_diagonal {
        let diag_sum = g.block_masked_sumsq(cov, d, true);
        loss = g.add(loss, diag_sum);
        num_pairs += d as f64;
    }

    if cfg.normalize && num_pairs > 0.0 {
        loss = g.scale(loss, 1.0 / num_pairs);
    }
    loss
}

/// Plain (non-differentiable) value of the decorrelation loss with unit
/// semantics matching [`decorrelation_loss_graph_scratch`] minus subsampling —
/// useful for evaluation and tests.
pub fn decorrelation_loss_plain(
    z: &Matrix,
    weights: Option<&[f64]>,
    rff: &Rff,
    include_diagonal: bool,
    normalize: bool,
) -> f64 {
    let d = z.cols();
    let mut acc = 0.0;
    let mut pairs = 0usize;
    // One transpose turns every column into a borrowable contiguous row.
    let zt = z.transpose();
    for a in 0..d {
        let lo = if include_diagonal { a } else { a + 1 };
        for b in lo..d {
            acc += hsic_rff_pair(zt.row(a), zt.row(b), rff, weights);
            pairs += 1;
        }
    }
    if normalize && pairs > 0 {
        acc / pairs as f64
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed, sample_standard_normal};

    #[test]
    fn independent_features_have_small_hsic() {
        let mut rng = rng_from_seed(0);
        let rff = Rff::sample(&mut rng, 5);
        let a: Vec<f64> = (0..500).map(|_| sample_standard_normal(&mut rng)).collect();
        let b: Vec<f64> = (0..500).map(|_| sample_standard_normal(&mut rng)).collect();
        let indep = hsic_rff_pair(&a, &b, &rff, None);
        let dep = hsic_rff_pair(&a, &a, &rff, None);
        assert!(indep < dep * 0.1, "independent {indep} vs self {dep}");
    }

    #[test]
    fn nonlinear_dependence_is_detected() {
        let mut rng = rng_from_seed(1);
        let rff = Rff::sample(&mut rng, 8);
        let a: Vec<f64> = (0..800).map(|_| sample_standard_normal(&mut rng)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * x).collect(); // uncorrelated but dependent
        let c: Vec<f64> = (0..800).map(|_| sample_standard_normal(&mut rng)).collect();
        let dep = hsic_rff_pair(&a, &b, &rff, None);
        let indep = hsic_rff_pair(&a, &c, &rff, None);
        assert!(dep > 3.0 * indep, "nonlinear dep {dep} vs indep {indep}");
    }

    #[test]
    fn weights_can_remove_dependence() {
        // Construct dependence by concatenating (x, x) pairs and (x, -x)
        // pairs; weighting only one half leaves a dependent sample, weighting
        // both halves equally cancels the linear dependence.
        let mut rng = rng_from_seed(2);
        let rff = Rff::sample(&mut rng, 6);
        let n = 400;
        let x: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mut a = Vec::with_capacity(2 * n);
        let mut b = Vec::with_capacity(2 * n);
        for &v in &x {
            a.push(v);
            b.push(v);
        }
        for &v in &x {
            a.push(v);
            b.push(-v);
        }
        // All mass on the first half: strongly dependent.
        let mut w_first = vec![1.0; 2 * n];
        for wv in w_first.iter_mut().skip(n) {
            *wv = 1e-9;
        }
        let dep = hsic_rff_pair(&a, &b, &rff, Some(&w_first));
        let balanced = hsic_rff_pair(&a, &b, &rff, None);
        assert!(balanced < dep * 0.7, "balanced {balanced} vs skewed {dep}");
    }

    #[test]
    fn unit_weights_match_unweighted() {
        let mut rng = rng_from_seed(3);
        let rff = Rff::sample(&mut rng, 5);
        let a: Vec<f64> = (0..100).map(|_| sample_standard_normal(&mut rng)).collect();
        let b: Vec<f64> = a.iter().map(|x| x.sin()).collect();
        let w = vec![1.0; 100];
        let lhs = hsic_rff_pair(&a, &b, &rff, Some(&w));
        let rhs = hsic_rff_pair(&a, &b, &rff, None);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn biased_hsic_oracle_agrees_qualitatively() {
        let mut rng = rng_from_seed(4);
        let x = randn(&mut rng, 150, 1);
        let y_dep = x.map(|v| v * v);
        let y_ind = randn(&mut rng, 150, 1);
        let dep = hsic_biased(&x, &y_dep, -1.0, -1.0);
        let ind = hsic_biased(&x, &y_ind, -1.0, -1.0);
        assert!(dep > 3.0 * ind, "dep {dep} vs ind {ind}");
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_selfdependence_on_diagonal() {
        let mut rng = rng_from_seed(5);
        let rff = Rff::sample(&mut rng, 5);
        let z = randn(&mut rng, 200, 4);
        let m = pairwise_hsic_matrix(&z, &rff, None);
        assert_eq!(m.shape(), (4, 4));
        for a in 0..4 {
            for b in 0..4 {
                assert!((m[(a, b)] - m[(b, a)]).abs() < 1e-12);
            }
            assert!(m[(a, a)] > 0.0);
        }
    }

    #[test]
    fn mean_offdiag_tracks_dependence_level() {
        let mut rng = rng_from_seed(6);
        let rff = Rff::sample(&mut rng, 5);
        let base = randn(&mut rng, 300, 1);
        // Dependent: all columns are noisy copies of one factor.
        let noise = randn(&mut rng, 300, 3).scale(0.1);
        let mut dep = Matrix::zeros(300, 3);
        for i in 0..300 {
            for j in 0..3 {
                dep[(i, j)] = base[(i, 0)] + noise[(i, j)];
            }
        }
        let ind = randn(&mut rng, 300, 3);
        assert!(mean_offdiag_hsic(&dep, &rff, None) > 5.0 * mean_offdiag_hsic(&ind, &rff, None));
    }

    #[test]
    fn graph_loss_matches_plain_loss() {
        let mut rng = rng_from_seed(7);
        let rff = Rff::sample(&mut rng, 5);
        let z = randn(&mut rng, 60, 4);
        let plain = decorrelation_loss_plain(&z, None, &rff, false, true);
        let mut g = Graph::new();
        let zc = g.constant(z.clone());
        let w = g.constant(Matrix::ones(60, 1));
        let cfg = DecorrelationConfig {
            include_diagonal: false,
            standardize: false,
            max_features: None,
            normalize: true,
        };
        let (mut rng2, mut scratch) = (rng_from_seed(0), HsicScratch::new());
        let loss =
            decorrelation_loss_graph_scratch(&mut g, zc, w, &rff, &cfg, &mut rng2, &mut scratch);
        assert!((g.scalar(loss) - plain).abs() < 1e-9, "graph {} vs plain {plain}", g.scalar(loss));
    }

    #[test]
    fn graph_loss_with_diagonal_matches_plain() {
        let mut rng = rng_from_seed(8);
        let rff = Rff::sample(&mut rng, 4);
        let z = randn(&mut rng, 40, 3);
        let plain = decorrelation_loss_plain(&z, None, &rff, true, false);
        let mut g = Graph::new();
        let zc = g.constant(z.clone());
        let w = g.constant(Matrix::ones(40, 1));
        let cfg = DecorrelationConfig {
            include_diagonal: true,
            standardize: false,
            max_features: None,
            normalize: false,
        };
        let (mut rng2, mut scratch) = (rng_from_seed(0), HsicScratch::new());
        let loss =
            decorrelation_loss_graph_scratch(&mut g, zc, w, &rff, &cfg, &mut rng2, &mut scratch);
        assert!((g.scalar(loss) - plain).abs() < 1e-9, "graph {} vs plain {plain}", g.scalar(loss));
    }

    #[test]
    fn gradcheck_decorrelation_wrt_weights() {
        use sbrl_tensor::gradcheck::check_gradient;
        let mut rng = rng_from_seed(10);
        let rff = Rff::sample(&mut rng, 3);
        let z = randn(&mut rng, 12, 3);
        let w0 = randn(&mut rng, 12, 1).map(|v| 1.0 + 0.2 * v.tanh());
        let cfg = DecorrelationConfig {
            include_diagonal: true,
            standardize: false,
            max_features: None,
            normalize: true,
        };
        check_gradient(
            &move |g, w| {
                let zc = g.constant(z.clone());
                let (mut r, mut scratch) = (rng_from_seed(1), HsicScratch::new());
                decorrelation_loss_graph_scratch(g, zc, w, &rff, &cfg, &mut r, &mut scratch)
            },
            &w0,
            1e-5,
            1e-4,
        )
        .unwrap();
    }

    #[test]
    fn subsampling_caps_the_feature_count() {
        let mut rng = rng_from_seed(11);
        let rff = Rff::sample(&mut rng, 5);
        let z = randn(&mut rng, 30, 20);
        let mut g = Graph::new();
        let zc = g.constant(z);
        let w = g.constant(Matrix::ones(30, 1));
        let cfg = DecorrelationConfig { max_features: Some(4), ..Default::default() };
        let mut scratch = HsicScratch::new();
        let loss =
            decorrelation_loss_graph_scratch(&mut g, zc, w, &rff, &cfg, &mut rng, &mut scratch);
        assert!(g.scalar(loss).is_finite());
        // With 4-of-20 columns, two different subsample draws should look at
        // different column sets and hence yield different losses.
        let loss2 =
            decorrelation_loss_graph_scratch(&mut g, zc, w, &rff, &cfg, &mut rng, &mut scratch);
        assert_ne!(g.scalar(loss), g.scalar(loss2), "subsampling should vary across draws");
    }

    /// Both entry points refuse a trainable tap: its features enter the
    /// tape as a constant, so its gradient would be lost.
    #[test]
    #[should_panic(expected = "requires gradients")]
    fn multi_term_losses_reject_a_trainable_tap() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = rng_from_seed(12);
        let rff = Rff::sample(&mut rng, 3);
        let mut g = Graph::new();
        let z = g.param(randn(&mut rng, 8, 3));
        let w = g.param(Matrix::ones(8, 1));
        let cfg = DecorrelationConfig::default();
        let mut scratch = HsicScratch::new();
        let single = catch_unwind(AssertUnwindSafe(|| {
            decorrelation_loss_graph_scratch(&mut g, z, w, &rff, &cfg, &mut rng, &mut scratch)
        }));
        let message = single.unwrap_err().downcast::<String>();
        assert!(message.is_ok_and(|m| m.contains("requires gradients")), "single-term entry");
        let mut out = Vec::new();
        decorrelation_losses_graph(
            &mut g,
            [(z, 1.0)],
            w,
            &rff,
            &cfg,
            &mut rng,
            &mut scratch,
            &mut out,
        );
    }

    /// The feature kernel reproduces, bit for bit, the per-element formula
    /// spelled with `Matrix` reductions: `x = (z + (-mean)) * (1 / max(std,
    /// 1e-6))` per selected column when standardising, then block `i` is
    /// `cos(x * w_i + phi_i) * sqrt(2)`.
    #[test]
    fn fourier_features_match_the_per_element_formula() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(std::f64::consts::SQRT_2.to_bits(), 2.0f64.sqrt().to_bits());
        let mut rng = rng_from_seed(13);
        for (n, d_full) in [(2, 1), (5, 4), (9, 7)] {
            // Offset, scaled columns, so standardising changes every value.
            let z = randn(&mut rng, n, d_full).map(|v| 3.0 * v + 1.5);
            let all: Vec<usize> = (0..d_full).collect();
            let mut sampled = Vec::new();
            permutation_into(&mut rng, &mut sampled, d_full);
            sampled.truncate(d_full.div_ceil(2));
            for k in [1, 3] {
                let rff = Rff::sample(&mut rng, k);
                for cols in [&all, &sampled] {
                    for standardize in [false, true] {
                        let d = cols.len();
                        let x = z.select_cols(cols);
                        let x = if standardize {
                            let mean = x.mean_axis0();
                            let std = x.std_axis0();
                            Matrix::from_fn(n, d, |r, c| {
                                (x[(r, c)] + -mean[(0, c)]) * (1.0 / std[(0, c)].max(1e-6))
                            })
                        } else {
                            x
                        };
                        let want = Matrix::from_fn(n, k * d, |r, p| {
                            let (i, c) = (p / d, p % d);
                            (x[(r, c)] * rff.omegas[i] + rff.phis[i]).cos()
                                * std::f64::consts::SQRT_2
                        });
                        let mut got = Matrix::full(n, k * d, f64::NAN);
                        fourier_features_into(
                            z.as_slice(),
                            d_full,
                            cols,
                            standardize,
                            &rff,
                            &mut got,
                        );
                        let case = format!("n={n} cols={cols:?} k={k} standardize={standardize}");
                        assert_eq!(bits(&got), bits(&want), "{case}");
                    }
                }
                // The plain path's feature map is the same kernel on one
                // raw column.
                let column: Vec<f64> = (0..n).map(|r| z[(r, 0)]).collect();
                let want = Matrix::from_fn(n, k, |r, i| {
                    (column[r] * rff.omegas[i] + rff.phis[i]).cos() * std::f64::consts::SQRT_2
                });
                assert_eq!(bits(&rff.feature_map(&column)), bits(&want));
            }
        }
    }
}
