//! Integral probability metrics between treated and control groups, in plain
//! (evaluation) and graph-space (differentiable) forms.
//!
//! The Balancing Regularizer (Eq. 3–4 of the paper) measures the discrepancy
//! `dist(P^w_{Φ_c}, P^w_{Φ_t})` of the *weighted* representation
//! distributions. Three standard IPM instantiations are provided, matching
//! the CFR reference implementation:
//!
//! * [`IpmKind::MmdLin`] — squared distance of (weighted) group means;
//! * [`IpmKind::MmdRbf`] — full weighted kernel MMD²;
//! * [`IpmKind::Wasserstein`] — entropic Sinkhorn approximation,
//!   differentiated through the fixed-point iterations.

use sbrl_tensor::{Graph, Matrix, TensorId};

use crate::kernels::{median_bandwidth, pairwise_sq_dists, rbf_kernel};

/// Which integral probability metric to use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IpmKind {
    /// Linear MMD: squared Euclidean distance of weighted group means.
    MmdLin,
    /// RBF-kernel MMD² with bandwidth `sigma` (`<= 0` selects the median
    /// heuristic on the pooled representation).
    MmdRbf {
        /// Kernel bandwidth; non-positive = median heuristic.
        sigma: f64,
    },
    /// Entropic-regularised Wasserstein distance via `iterations` Sinkhorn
    /// steps; `lambda` scales the inverse temperature (larger = sharper).
    Wasserstein {
        /// Inverse-temperature multiplier (CFR uses 10).
        lambda: f64,
        /// Number of Sinkhorn fixed-point iterations (CFR uses 10).
        iterations: usize,
    },
}

impl Default for IpmKind {
    fn default() -> Self {
        IpmKind::Wasserstein { lambda: 10.0, iterations: 10 }
    }
}

// ---------------------------------------------------------------------------
// Graph-space (differentiable) versions
// ---------------------------------------------------------------------------

/// Normalises a positive weight column to sum to one (graph-space).
fn normalize_weights(g: &mut Graph, w: TensorId) -> TensorId {
    let total = g.sum(w);
    let safe = g.add_scalar(total, 1e-12);
    g.div_scalar_of(w, safe)
}

/// Pairwise squared distances between rows of two graph matrices.
fn pairwise_sq_dists_graph(g: &mut Graph, a: TensorId, b: TensorId) -> TensorId {
    let a_sq = g.square(a);
    let a2 = g.sum_axis1(a_sq); // n x 1
    let b_sq = g.square(b);
    let b2_col = g.sum_axis1(b_sq); // m x 1
    let b2 = g.transpose(b2_col); // 1 x m
    let outer = g.col_plus_row(a2, b2); // n x m
    let bt = g.transpose(b);
    let cross = g.matmul(a, bt);
    let twice = g.scale(cross, -2.0);
    let d = g.add(outer, twice);
    // Numerical noise can push tiny distances below zero; clamp for sqrt.
    g.relu(d)
}

/// Differentiable weighted IPM between the rows of `phi` indexed by
/// `treated_idx` and `control_idx`.
///
/// `w` is an `n x 1` column of positive sample weights aligned with `phi`;
/// it is gathered and renormalised per group inside, so gradients flow into
/// both `phi` and `w`. Degenerate groups (fewer than one sample on either
/// side) yield a zero constant.
pub fn ipm_weighted_graph(
    g: &mut Graph,
    kind: IpmKind,
    phi: TensorId,
    w: TensorId,
    treated_idx: &[usize],
    control_idx: &[usize],
) -> TensorId {
    if treated_idx.is_empty() || control_idx.is_empty() {
        return g.scalar_const(0.0);
    }
    let phi_t = g.gather_rows(phi, treated_idx);
    let phi_c = g.gather_rows(phi, control_idx);
    let w_t_raw = g.gather_rows(w, treated_idx);
    let w_c_raw = g.gather_rows(w, control_idx);
    let w_t = normalize_weights(g, w_t_raw);
    let w_c = normalize_weights(g, w_c_raw);

    match kind {
        IpmKind::MmdLin => {
            let phi_t_w = g.mul_col(phi_t, w_t);
            let mean_t = g.sum_axis0(phi_t_w);
            let phi_c_w = g.mul_col(phi_c, w_c);
            let mean_c = g.sum_axis0(phi_c_w);
            g.sq_dist(mean_t, mean_c)
        }
        IpmKind::MmdRbf { sigma } => {
            let sigma = if sigma > 0.0 {
                sigma
            } else {
                // Median heuristic on the pooled current values (treated as a
                // constant w.r.t. differentiation, as is standard).
                let pooled = g.value(phi_t).vstack(g.value(phi_c));
                median_bandwidth(&pooled)
            };
            let ktt = rbf_kernel_graph(g, phi_t, phi_t, sigma);
            let kcc = rbf_kernel_graph(g, phi_c, phi_c, sigma);
            let ktc = rbf_kernel_graph(g, phi_t, phi_c, sigma);
            let tt = quadratic_form(g, w_t, ktt, w_t);
            let cc = quadratic_form(g, w_c, kcc, w_c);
            let tc = quadratic_form(g, w_t, ktc, w_c);
            let tc2 = g.scale(tc, -2.0);
            let s = g.add(tt, cc);
            let mmd2 = g.add(s, tc2);
            // The estimator can dip below zero for finite samples.
            g.relu(mmd2)
        }
        IpmKind::Wasserstein { lambda, iterations } => {
            sinkhorn_graph(g, phi_t, phi_c, w_t, w_c, lambda, iterations)
        }
    }
}

/// Differentiable *unweighted* IPM (unit weights) — the vanilla CFR penalty.
pub fn ipm_graph(
    g: &mut Graph,
    kind: IpmKind,
    phi: TensorId,
    treated_idx: &[usize],
    control_idx: &[usize],
) -> TensorId {
    let n = g.value(phi).rows();
    let ones = g.constant_full(n, 1, 1.0);
    ipm_weighted_graph(g, kind, phi, ones, treated_idx, control_idx)
}

fn rbf_kernel_graph(g: &mut Graph, a: TensorId, b: TensorId, sigma: f64) -> TensorId {
    let d = pairwise_sq_dists_graph(g, a, b);
    let scaled = g.scale(d, -1.0 / (2.0 * sigma * sigma));
    g.exp(scaled)
}

/// `u^T K v` for column vectors `u`, `v` -> `1 x 1`.
fn quadratic_form(g: &mut Graph, u: TensorId, k: TensorId, v: TensorId) -> TensorId {
    let kv = g.matmul(k, v);
    g.matmul_tn(u, kv)
}

/// Entropic-regularised OT cost, differentiated through the Sinkhorn loop.
///
/// Marginals `a` (`nt x 1`) and `b` (`nc x 1`) must each sum to one. The
/// temperature is set relative to the mean ground cost so `lambda` has a
/// scale-free meaning, mirroring the CFR implementation.
fn sinkhorn_graph(
    g: &mut Graph,
    phi_t: TensorId,
    phi_c: TensorId,
    a: TensorId,
    b: TensorId,
    lambda: f64,
    iterations: usize,
) -> TensorId {
    let d2 = pairwise_sq_dists_graph(g, phi_t, phi_c);
    let d2e = g.add_scalar(d2, 1e-10);
    let m = g.sqrt(d2e); // ground cost: Euclidean distance

    // Scale-free temperature: divide by the mean ground cost, kept inside the
    // tape so the whole construction is differentiable.
    let mean_cost = g.mean(m);
    let mean_safe = g.add_scalar(mean_cost, 1e-12);
    let m_rel = g.div_scalar_of(m, mean_safe);
    let neg = g.scale(m_rel, -lambda);
    let k = g.exp(neg); // nt x nc Gibbs kernel
    let eps = 1e-12;

    // Sinkhorn fixed point: u = a ./ (K v), v = b ./ (K^T u).
    let nt = g.value(a).rows();
    let nc = g.value(b).rows();
    let mut v = g.constant_full(nc, 1, 1.0);
    let mut u = g.constant_full(nt, 1, 1.0);
    for _ in 0..iterations {
        let kv = g.matmul(k, v);
        let kv_safe = g.add_scalar(kv, eps);
        u = g.div(a, kv_safe);
        let ktu = g.matmul_tn(k, u);
        let ktu_safe = g.add_scalar(ktu, eps);
        v = g.div(b, ktu_safe);
    }
    // Transport plan T = diag(u) K diag(v); cost = sum(T .* M).
    let vk = g.mul_col(k, u);
    let vt = g.transpose(v);
    let t_plan = g.mul_row(vk, vt);
    let tm = g.mul(t_plan, m);
    g.sum(tm)
}

// ---------------------------------------------------------------------------
// Plain (evaluation) versions
// ---------------------------------------------------------------------------

/// Plain weighted IPM on matrices (no gradients). Weights are renormalised
/// per group; pass `None` for unit weights.
///
/// The O(n²) folds (quadratic forms, Sinkhorn fixed-point updates) keep the
/// historical serial order; the kernel and cost matrices' `A Bᵀ` (the
/// median-heuristic bandwidth's included) are GEMMs.
pub fn ipm_weighted_plain(
    kind: IpmKind,
    phi_t: &Matrix,
    phi_c: &Matrix,
    w_t: Option<&[f64]>,
    w_c: Option<&[f64]>,
) -> f64 {
    if phi_t.rows() == 0 || phi_c.rows() == 0 {
        return 0.0;
    }
    let wt = normalize_plain(w_t, phi_t.rows());
    let wc = normalize_plain(w_c, phi_c.rows());
    match kind {
        IpmKind::MmdLin => {
            let mt = weighted_mean_rows(phi_t, &wt);
            let mc = weighted_mean_rows(phi_c, &wc);
            mt.iter().zip(&mc).map(|(a, b)| (a - b) * (a - b)).sum()
        }
        IpmKind::MmdRbf { sigma } => {
            let sigma = if sigma > 0.0 { sigma } else { median_bandwidth(&phi_t.vstack(phi_c)) };
            let ktt = rbf_kernel(phi_t, phi_t, sigma);
            let kcc = rbf_kernel(phi_c, phi_c, sigma);
            let ktc = rbf_kernel(phi_t, phi_c, sigma);
            let tt = quad_plain(&wt, &ktt, &wt);
            let cc = quad_plain(&wc, &kcc, &wc);
            let tc = quad_plain(&wt, &ktc, &wc);
            (tt + cc - 2.0 * tc).max(0.0)
        }
        IpmKind::Wasserstein { lambda, iterations } => {
            sinkhorn_plain(phi_t, phi_c, &wt, &wc, lambda, iterations)
        }
    }
}

/// Plain unweighted IPM on matrices.
pub fn ipm_plain(kind: IpmKind, phi_t: &Matrix, phi_c: &Matrix) -> f64 {
    ipm_weighted_plain(kind, phi_t, phi_c, None, None)
}

fn normalize_plain(w: Option<&[f64]>, n: usize) -> Vec<f64> {
    match w {
        None => vec![1.0 / n as f64; n],
        Some(w) => {
            assert_eq!(w.len(), n, "weight length mismatch");
            let total: f64 = w.iter().sum::<f64>().max(1e-12);
            w.iter().map(|x| x / total).collect()
        }
    }
}

fn weighted_mean_rows(x: &Matrix, w: &[f64]) -> Vec<f64> {
    let mut mean = vec![0.0; x.cols()];
    for (i, &wi) in w.iter().enumerate() {
        for (m, &v) in mean.iter_mut().zip(x.row(i)) {
            *m += wi * v;
        }
    }
    mean
}

/// `u^T K v`: per row a serial dot product, summed in row order, skipping
/// rows whose `u[i]` is exactly zero.
fn quad_plain(u: &[f64], k: &Matrix, v: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        if ui == 0.0 {
            continue;
        }
        acc += ui * k.row(i).iter().zip(v).map(|(&x, &y)| x * y).sum::<f64>();
    }
    acc
}

/// Entropic OT cost via Sinkhorn iterations, with serial folds throughout.
fn sinkhorn_plain(
    phi_t: &Matrix,
    phi_c: &Matrix,
    a: &[f64],
    b: &[f64],
    lambda: f64,
    iterations: usize,
) -> f64 {
    let m = pairwise_sq_dists(phi_t, phi_c).map(|v| (v + 1e-10).sqrt());
    let mean_cost = m.mean().max(1e-12);
    let k = m.map(|v| (-lambda * v / mean_cost).exp());
    let (nt, nc) = k.shape();
    let mut u = vec![1.0; nt];
    let mut v = vec![1.0; nc];
    for _ in 0..iterations {
        for (i, ui) in u.iter_mut().enumerate() {
            let kv: f64 = k.row(i).iter().zip(&v).map(|(&x, &y)| x * y).sum();
            *ui = a[i] / (kv + 1e-12);
        }
        for (j, vj) in v.iter_mut().enumerate() {
            let ktu: f64 = (0..nt).map(|i| k[(i, j)] * u[i]).sum();
            *vj = b[j] / (ktu + 1e-12);
        }
    }
    let mut cost = 0.0;
    for i in 0..nt {
        for j in 0..nc {
            cost += u[i] * k[(i, j)] * v[j] * m[(i, j)];
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed};

    fn all_kinds() -> [IpmKind; 3] {
        [
            IpmKind::MmdLin,
            IpmKind::MmdRbf { sigma: 1.0 },
            IpmKind::Wasserstein { lambda: 10.0, iterations: 10 },
        ]
    }

    #[test]
    fn identical_distributions_give_near_zero_ipm() {
        let mut rng = rng_from_seed(0);
        let x = randn(&mut rng, 40, 3);
        for kind in all_kinds() {
            let v = ipm_plain(kind, &x, &x);
            assert!(v.abs() < 0.3, "{kind:?} on identical samples = {v}");
        }
    }

    #[test]
    fn shifted_distributions_give_larger_ipm() {
        let mut rng = rng_from_seed(1);
        let a = randn(&mut rng, 50, 3);
        let b = randn(&mut rng, 50, 3).add_scalar(3.0);
        let c = randn(&mut rng, 50, 3);
        for kind in all_kinds() {
            let far = ipm_plain(kind, &a, &b);
            let near = ipm_plain(kind, &a, &c);
            assert!(far > near, "{kind:?}: far {far} should exceed near {near}");
        }
    }

    #[test]
    fn graph_and_plain_versions_agree() {
        let mut rng = rng_from_seed(2);
        let phi = randn(&mut rng, 30, 4);
        let treated: Vec<usize> = (0..15).collect();
        let control: Vec<usize> = (15..30).collect();
        let phi_t = phi.select_rows(&treated);
        let phi_c = phi.select_rows(&control);
        for kind in all_kinds() {
            let plain = ipm_plain(kind, &phi_t, &phi_c);
            let mut g = Graph::new();
            let p = g.constant(phi.clone());
            let v = ipm_graph(&mut g, kind, p, &treated, &control);
            assert!(
                (g.scalar(v) - plain).abs() < 1e-9,
                "{kind:?}: graph {} vs plain {plain}",
                g.scalar(v)
            );
        }
    }

    #[test]
    fn weighting_can_remove_imbalance() {
        // Control group is a 2:1 mixture of two clusters; treated is 1:1.
        // Upweighting the under-represented control cluster should shrink the
        // linear MMD.
        let mut rng = rng_from_seed(3);
        let c0 = randn(&mut rng, 20, 2); // cluster at 0
        let c1 = randn(&mut rng, 10, 2).add_scalar(4.0); // cluster at 4
        let control = c0.vstack(&c1);
        let t0 = randn(&mut rng, 15, 2);
        let t1 = randn(&mut rng, 15, 2).add_scalar(4.0);
        let treated = t0.vstack(&t1);

        let unweighted = ipm_plain(IpmKind::MmdLin, &treated, &control);
        // Weight the 10 samples of cluster-1 twice as much.
        let w_c: Vec<f64> = (0..30).map(|i| if i < 20 { 1.0 } else { 2.0 }).collect();
        let weighted = ipm_weighted_plain(IpmKind::MmdLin, &treated, &control, None, Some(&w_c));
        assert!(
            weighted < unweighted * 0.5,
            "reweighting should reduce imbalance: {weighted} vs {unweighted}"
        );
    }

    #[test]
    fn empty_groups_yield_zero() {
        let x = Matrix::ones(4, 2);
        assert_eq!(ipm_plain(IpmKind::MmdLin, &Matrix::zeros(0, 2), &x), 0.0);
        let mut g = Graph::new();
        let p = g.constant(x);
        let ones = g.constant(Matrix::ones(4, 1));
        let v = ipm_weighted_graph(&mut g, IpmKind::MmdLin, p, ones, &[], &[0, 1]);
        assert_eq!(g.scalar(v), 0.0);
    }

    #[test]
    fn sinkhorn_transport_plan_cost_is_nonnegative_and_finite() {
        let mut rng = rng_from_seed(4);
        let a = randn(&mut rng, 12, 3);
        let b = randn(&mut rng, 18, 3).add_scalar(1.0);
        let v = ipm_plain(IpmKind::Wasserstein { lambda: 10.0, iterations: 20 }, &a, &b);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn gradients_flow_through_all_ipm_kinds() {
        use sbrl_tensor::gradcheck::check_gradient;
        let mut rng = rng_from_seed(5);
        let phi = randn(&mut rng, 10, 3);
        let treated: Vec<usize> = (0..5).collect();
        let control: Vec<usize> = (5..10).collect();
        for kind in all_kinds() {
            let t = treated.clone();
            let c = control.clone();
            check_gradient(&move |g, p| ipm_graph(g, kind, p, &t, &c), &phi, 1e-5, 2e-4)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn gradients_flow_into_weights() {
        use sbrl_tensor::gradcheck::check_gradient;
        let mut rng = rng_from_seed(6);
        let phi = randn(&mut rng, 10, 3);
        let treated: Vec<usize> = (0..5).collect();
        let control: Vec<usize> = (5..10).collect();
        // Positive weights around 1.
        let w0 = randn(&mut rng, 10, 1).map(|v| 1.0 + 0.3 * v.tanh());
        for kind in all_kinds() {
            let t = treated.clone();
            let c = control.clone();
            let phi_c = phi.clone();
            check_gradient(
                &move |g, w| {
                    let p = g.constant(phi_c.clone());
                    ipm_weighted_graph(g, kind, p, w, &t, &c)
                },
                &w0,
                1e-5,
                2e-4,
            )
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }
}
