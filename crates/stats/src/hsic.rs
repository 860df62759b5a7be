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
//! Implementation notes (recorded in DESIGN.md):
//! * one bank of `k` Fourier functions is shared across features (they are
//!   identically distributed, so this is a variance-reduction-neutral
//!   simplification that lets the pair sum collapse into a single
//!   block-covariance computation);
//! * the `a = b` self-dependence term of Eq. 10 is excluded by default (it
//!   penalises feature variance rather than dependence); set
//!   [`DecorrelationConfig::include_diagonal`] to restore the literal sum;
//! * features can be standardised and column-subsampled per call to keep the
//!   loss scale-free and affordable on wide layers.

use rand::rngs::StdRng;
use sbrl_tensor::kernels::Parallelism;
use sbrl_tensor::rng::{permutation_into, sample_standard_normal, sample_uniform};
use sbrl_tensor::workers::run_coarse_tasks;
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

    /// Applies function `i` to a scalar.
    #[inline]
    pub fn apply(&self, i: usize, x: f64) -> f64 {
        (2.0f64).sqrt() * (self.omegas[i] * x + self.phis[i]).cos()
    }

    /// Feature map of a scalar series: `n x k` matrix `U` with
    /// `U[r][i] = u_i(x_r)`.
    pub fn feature_map(&self, xs: &[f64]) -> Matrix {
        Matrix::from_fn(xs.len(), self.num_functions(), |r, i| self.apply(i, xs[r]))
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

/// Options for the differentiable decorrelation loss `L_D` (Eq. 10).
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
/// * the column-subsample permutation buffer of
///   [`decorrelation_loss_graph_scratch`], refilled in place with the same
///   RNG draws as `sample_without_replacement`;
/// * the Fourier coefficient list;
/// * one tape per term of [`decorrelation_losses_graph`], reset each step
///   rather than rebuilt, with that term's own permutation buffer.
///
/// All tensor values flow through pooled graph buffers, so results are
/// bit-identical with or without a reused scratch.
#[derive(Default)]
pub struct HsicScratch {
    perm: Vec<usize>,
    coefs: Vec<(f64, f64)>,
    terms: Vec<Mutex<TermTape>>,
}

impl HsicScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refills the `(omega, phi)` list from `rff`.
    fn fill_coefs(&mut self, rff: &Rff) {
        self.coefs.clear();
        self.coefs.extend(rff.omegas.iter().copied().zip(rff.phis.iter().copied()));
    }
}

/// Which columns of a tap a decorrelation term reads, decided (and, when
/// subsampling, drawn) before the term is built.
#[derive(Clone, Copy, Debug)]
enum Columns {
    /// Fewer than two rows or no columns: the term is the constant zero.
    Zero,
    /// Every column.
    All,
    /// The first `s` entries of the term's drawn permutation.
    Sampled(usize),
}

/// Decides a term's columns for an `n x d_full` tap, drawing the subsample
/// into `perm` when [`DecorrelationConfig::max_features`] caps the width.
fn draw_columns(
    n: usize,
    d_full: usize,
    cfg: &DecorrelationConfig,
    rng: &mut StdRng,
    perm: &mut Vec<usize>,
) -> Columns {
    if n < 2 || d_full < 1 {
        return Columns::Zero;
    }
    match cfg.max_features {
        Some(s) if d_full > s => {
            permutation_into(rng, perm, d_full);
            Columns::Sampled(s)
        }
        _ => Columns::All,
    }
}

/// One term of [`decorrelation_losses_graph`]: its own tape, reused across
/// steps, plus this step's plan and results.
#[derive(Default)]
struct TermTape {
    tape: Graph,
    perm: Vec<usize>,
    /// `(tap, γ, columns)`, planned on the calling thread before dispatch.
    plan: Option<(TensorId, f64, Columns)>,
    /// `(γ · L_D, w leaf feeding div, w leaf feeding sum)` on `tape`.
    built: Option<(TensorId, TensorId, TensorId)>,
}

impl TermTape {
    /// Builds `γ · L_D(tap, w)` on this term's tape from the values in `src`
    /// and back-propagates it with seed 1.0.
    fn build(&mut self, src: &Graph, w: TensorId, coefs: &[(f64, f64)], cfg: &DecorrelationConfig) {
        let Some((tap, gamma, cols)) = self.plan.take() else { return };
        let t = &mut self.tape;
        t.reset();
        let z = t.constant_copied(src.value(tap));
        // One leaf per use of `w`, so each receives exactly one delta.
        let w_sum = t.param_copied(src.value(w));
        let w_div = t.param_copied(src.value(w));
        let loss = loss_term(t, z, w_sum, w_div, coefs, cfg, cols, &self.perm);
        let out = t.scale(loss, gamma);
        t.backward(out);
        self.built = Some((out, w_div, w_sum));
    }
}

/// Differentiable weighted decorrelation loss `L_D(Z, w)` (Eq. 10):
/// the sum over feature pairs of `HSIC^w_RFF` between columns of `z`.
///
/// `w` is an `n x 1` column of positive sample weights (renormalised
/// internally, Eq. 9); gradients flow into both `z` and `w`. `rng` drives the
/// per-call column subsample when [`DecorrelationConfig::max_features`] caps
/// the width. `scratch` holds the subsample permutation and the Fourier
/// coefficients; step loops keep one per fit, so a warm step allocates
/// nothing (a one-off call passes `&mut HsicScratch::new()`).
#[allow(clippy::too_many_arguments)]
pub fn decorrelation_loss_graph_scratch(
    g: &mut Graph,
    z: TensorId,
    w: TensorId,
    rff: &Rff,
    cfg: &DecorrelationConfig,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
) -> TensorId {
    let (n, d_full) = g.value(z).shape();
    let cols = draw_columns(n, d_full, cfg, rng, &mut scratch.perm);
    scratch.fill_coefs(rff);
    loss_term(g, z, w, w, &scratch.coefs, cfg, cols, &scratch.perm)
}

/// Several weighted decorrelation terms `γ_i · L_D(z_i, w)` at once, the
/// weight phase's HSIC work. Each term is built and back-propagated on its
/// own tape in `scratch`, the terms running concurrently as coarse tasks of
/// the worker pool (inline under [`Parallelism::Serial`] or inside another
/// coarse task). Each is then spliced into `g` with [`Graph::replay`]; `out`
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
/// Panics if a tap requires gradients: a term tape binds its tap as a
/// constant, so a trainable tap would silently lose its gradient.
#[allow(clippy::too_many_arguments)]
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
        if g.requires_grad(tap) {
            // lint: allow(panic) — documented precondition (`# Panics`): a
            // trainable tap would otherwise lose its gradient silently.
            panic!("decorrelation_losses_graph: tap {tap:?} requires gradients");
        }
        if scratch.terms.len() == count {
            scratch.terms.push(Mutex::default());
        }
        let term = scratch.terms[count].get_mut().unwrap_or_else(PoisonError::into_inner);
        let (n, d_full) = g.value(tap).shape();
        let cols = draw_columns(n, d_full, cfg, rng, &mut term.perm);
        term.plan = Some((tap, gamma, cols));
        count += 1;
    }
    scratch.fill_coefs(rff);

    // `run_coarse_tasks` re-raises a task's panic, and every build resets
    // its tape first, so a guard poisoned by an earlier panic is safe to
    // reuse.
    let (tapes, coefs, src) = (&scratch.terms[..count], &scratch.coefs[..], &*g);
    run_coarse_tasks(count, Parallelism::global().workers(), &|k| {
        tapes[k].lock().unwrap_or_else(PoisonError::into_inner).build(src, w, coefs, cfg);
    });

    out.clear();
    for term in &mut scratch.terms[..count] {
        let term = term.get_mut().unwrap_or_else(PoisonError::into_inner);
        // Every planned term was built: `run_coarse_tasks` runs each task
        // once or re-raises its panic.
        let Some((loss, w_div, w_sum)) = term.built.take() else { continue };
        out.push(g.replay(&term.tape, loss, &[(w_div, w), (w_sum, w)]));
    }
}

/// Builds one `L_D` term (Eq. 10) on `g` from already-decided columns. `w`
/// enters twice: `w_sum` is summed into the normaliser and `w_div` divided
/// by it; pass the same node for both to build on a single tape.
#[allow(clippy::too_many_arguments)]
fn loss_term(
    g: &mut Graph,
    z: TensorId,
    w_sum: TensorId,
    w_div: TensorId,
    coefs: &[(f64, f64)],
    cfg: &DecorrelationConfig,
    cols: Columns,
    perm: &[usize],
) -> TensorId {
    let z = match cols {
        Columns::Zero => return g.scalar_const(0.0),
        Columns::All => z,
        Columns::Sampled(s) => g.gather_cols(z, &perm[..s]),
    };
    let (n, d) = g.value(z).shape();
    if d < 2 && !cfg.include_diagonal {
        return g.scalar_const(0.0);
    }
    // Optional standardisation with batch statistics held constant. The
    // statistics are computed straight into pooled graph buffers with the
    // same accumulation order as `mean_axis0` / `std_axis0`.
    let z = if cfg.standardize {
        let mut mean = g.take_buffer(1, d);
        {
            let zv = g.value(z);
            mean.fill_with(0.0);
            for i in 0..n {
                for (m, &v) in mean.as_mut_slice().iter_mut().zip(zv.row(i)) {
                    *m += v;
                }
            }
            let inv = 1.0 / n as f64;
            for m in mean.as_mut_slice() {
                *m *= inv;
            }
        }
        let mut inv_std = g.take_buffer(1, d);
        {
            let zv = g.value(z);
            inv_std.fill_with(0.0);
            for i in 0..n {
                for ((s, &v), &m) in
                    inv_std.as_mut_slice().iter_mut().zip(zv.row(i)).zip(mean.as_slice())
                {
                    let dv = v - m;
                    *s += dv * dv;
                }
            }
            let inv = 1.0 / n as f64;
            for s in inv_std.as_mut_slice() {
                *s = 1.0 / (*s * inv).sqrt().max(1e-6);
            }
        }
        let mean_c = g.constant(mean);
        let inv_std_c = g.constant(inv_std);
        let centred = g.sub_row(z, mean_c);
        g.mul_row(centred, inv_std_c)
    } else {
        z
    };

    // F = [sqrt(2) cos(w_1 z + phi_1) | ... | sqrt(2) cos(w_k z + phi_k)],
    // shape n x (k*d); feature `a`'s functions sit at columns {a, d+a, ...}.
    // One fused tape node builds the whole matrix (bit-identical to the
    // historical per-function scale/add_scalar/cos/scale + concat chain).
    let sqrt2 = (2.0f64).sqrt();
    let f = g.rff_features(z, coefs, sqrt2);

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
    fn gradcheck_decorrelation_wrt_representation() {
        use sbrl_tensor::gradcheck::check_gradient;
        let mut rng = rng_from_seed(9);
        let rff = Rff::sample(&mut rng, 3);
        let z0 = randn(&mut rng, 12, 3);
        let cfg = DecorrelationConfig {
            include_diagonal: false,
            standardize: false,
            max_features: None,
            normalize: true,
        };
        check_gradient(
            &move |g, z| {
                let w = g.constant(Matrix::ones(12, 1));
                let (mut r, mut scratch) = (rng_from_seed(1), HsicScratch::new());
                decorrelation_loss_graph_scratch(g, z, w, &rff, &cfg, &mut r, &mut scratch)
            },
            &z0,
            1e-5,
            1e-4,
        )
        .unwrap();
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

    #[test]
    #[should_panic(expected = "requires gradients")]
    fn multi_term_losses_reject_a_trainable_tap() {
        let mut rng = rng_from_seed(12);
        let rff = Rff::sample(&mut rng, 3);
        let mut g = Graph::new();
        let z = g.param(randn(&mut rng, 8, 3));
        let w = g.param(Matrix::ones(8, 1));
        let mut out = Vec::new();
        let cfg = DecorrelationConfig::default();
        let mut scratch = HsicScratch::new();
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
}
