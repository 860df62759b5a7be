//! Finite-difference gradient verification.
//!
//! Every autodiff op (and every composite loss built on top of the engine) is
//! validated against central finite differences. The helpers here are used by
//! the unit and property tests across the workspace; they live in the library
//! (not `#[cfg(test)]`) so downstream crates can check their own composite
//! losses.

use crate::graph::{Graph, TensorId};
use crate::matrix::Matrix;

/// Builds a scalar loss from a single differentiable input.
///
/// The closure receives a fresh graph and the id of the input (inserted as a
/// parameter) and must return a `1 x 1` loss node.
pub type LossBuilder<'a> = &'a dyn Fn(&mut Graph, TensorId) -> TensorId;

/// Evaluates `loss(x)` by building a throwaway graph.
pub fn eval_loss(build: LossBuilder<'_>, x: &Matrix) -> f64 {
    let mut g = Graph::new();
    let id = g.param(x.clone());
    let loss = build(&mut g, id);
    g.scalar(loss)
}

/// Central finite-difference gradient of `loss` at `x`.
pub fn finite_diff_grad(build: LossBuilder<'_>, x: &Matrix, eps: f64) -> Matrix {
    let mut grad = Matrix::zeros(x.rows(), x.cols());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            grad[(i, j)] = (eval_loss(build, &xp) - eval_loss(build, &xm)) / (2.0 * eps);
        }
    }
    grad
}

/// Analytic (reverse-mode) gradient of `loss` at `x`.
pub fn analytic_grad(build: LossBuilder<'_>, x: &Matrix) -> Matrix {
    let mut g = Graph::new();
    let id = g.param(x.clone());
    let loss = build(&mut g, id);
    g.backward(loss);
    g.grad(id)
        // lint: allow(panic) — infallible: `id` is a parameter of this very
        // graph and `backward` was just run from a loss that depends on it;
        // gradcheck is a diagnostic harness, not a serving path.
        .expect("input parameter should receive a gradient")
        .clone()
}

/// Outcome of a gradient check, with enough context to debug a failure.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest elementwise discrepancy found.
    pub max_abs_err: f64,
    /// Largest relative discrepancy (denominator floored at 1.0).
    pub max_rel_err: f64,
}

/// Compares the reverse-mode gradient against central finite differences.
///
/// Returns `Ok(report)` if the maximum relative error (with the denominator
/// floored at 1 to avoid blow-ups near zero) is below `tol`, `Err(report)`
/// otherwise.
pub fn check_gradient(
    build: LossBuilder<'_>,
    x: &Matrix,
    eps: f64,
    tol: f64,
) -> Result<GradCheckReport, String> {
    let fd = finite_diff_grad(build, x, eps);
    let an = analytic_grad(build, x);
    if fd.shape() != an.shape() {
        return Err(format!(
            "gradient shape mismatch: fd {:?} vs analytic {:?}",
            fd.shape(),
            an.shape()
        ));
    }
    let mut max_abs = 0.0f64;
    let mut max_rel = 0.0f64;
    for (f, a) in fd.as_slice().iter().zip(an.as_slice()) {
        let abs = (f - a).abs();
        let rel = abs / f.abs().max(a.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    let report = GradCheckReport { max_abs_err: max_abs, max_rel_err: max_rel };
    if max_rel <= tol {
        Ok(report)
    } else {
        Err(format!(
            "gradient check failed: max_rel_err {max_rel:.3e} > tol {tol:.1e} (max_abs_err {max_abs:.3e});\nfinite-diff:\n{fd:?}\nanalytic:\n{an:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{randn, rng_from_seed};

    fn check(build: LossBuilder<'_>, x: &Matrix) {
        check_gradient(build, x, 1e-5, 1e-5).unwrap();
    }

    /// Checks `sumsq(op(a, b))` against `a` with `b` held constant, then
    /// against `b` with `a` held constant.
    #[rustfmt::skip]
    fn check_both(op: fn(&mut Graph, TensorId, TensorId) -> TensorId, a: &Matrix, b: &Matrix) {
        let (ac, bc) = (a.clone(), b.clone());
        check(&move |g, x| { let c = g.constant(bc.clone()); let y = op(g, x, c); g.sumsq(y) }, a);
        check(&move |g, x| { let c = g.constant(ac.clone()); let y = op(g, c, x); g.sumsq(y) }, b);
    }

    #[test]
    #[rustfmt::skip]
    fn grad_of_elementwise_unary_ops() {
        let mut rng = rng_from_seed(101);
        // Keep inputs in valid domains (positive for sqrt/recip) and away
        // from relu's kink at 0. One op per line so a missing backward rule
        // is visible at a glance.
        let x = randn(&mut rng, 3, 4).map(|v| v.abs() + 0.5);
        check(&|g, a| { let t = g.sqrt(a); g.sum(t) }, &x);
        check(&|g, a| { let t = g.recip(a); g.sum(t) }, &x);

        let y = randn(&mut rng, 3, 4);
        check(&|g, a| { let t = g.relu(a); g.sumsq(t) }, &y.map(|v| v + 0.5 * v.signum()));
        check(&|g, a| { let t = g.exp(a); g.sum(t) }, &y);
        check(&|g, a| { let t = g.cos(a); g.sum(t) }, &y);
        check(&|g, a| { let t = g.sigmoid(a); g.sum(t) }, &y);
        check(&|g, a| { let t = g.softplus(a); g.sum(t) }, &y);
        check(&|g, a| { let t = g.square(a); g.sum(t) }, &y);
        check(&|g, a| { let t = g.neg(a); g.sumsq(t) }, &y);
        check(&|g, a| { let t = g.scale(a, -1.7); g.sumsq(t) }, &y);
        check(&|g, a| { let t = g.add_scalar(a, 3.0); g.sumsq(t) }, &y);
        check(&|g, a| { let t = g.elu(a); g.sumsq(t) }, &y);
    }

    #[test]
    #[rustfmt::skip]
    fn grad_of_reductions() {
        let mut rng = rng_from_seed(102);
        let x = randn(&mut rng, 4, 3);
        check(&|g, a| { let t = g.square(a); g.mean(t) }, &x);
        check(&|g, a| { let t = g.sum_axis0(a); g.sumsq(t) }, &x);
        check(&|g, a| { let t = g.mean_axis0(a); g.sumsq(t) }, &x);
        check(&|g, a| { let t = g.sum_axis1(a); g.sumsq(t) }, &x);
    }

    #[test]
    fn grad_of_matmul_and_transpose() {
        let mut rng = rng_from_seed(103);
        let x = randn(&mut rng, 3, 4);
        let w = randn(&mut rng, 4, 2);
        check(
            &move |g, a| {
                let wc = g.constant(w.clone());
                let y = g.matmul(a, wc);
                g.sumsq(y)
            },
            &x,
        );
        let u = randn(&mut rng, 3, 4);
        check(
            &move |g, a| {
                let t = g.transpose(a);
                let uc = g.constant(u.clone());
                let y = g.matmul(uc, t); // (3x4)*(4x3)
                g.sumsq(y)
            },
            &x,
        );
    }

    #[test]
    #[rustfmt::skip]
    fn grad_of_broadcast_ops() {
        let mut rng = rng_from_seed(104);
        let x = randn(&mut rng, 4, 3);
        let row = randn(&mut rng, 1, 3);
        let col = randn(&mut rng, 4, 1);
        let pos = |m: &Matrix| m.map(|v| v.abs() + 0.5);
        check_both(Graph::add_row, &x, &row);
        check_both(Graph::mul_row, &x, &row);
        check_both(Graph::mul_col, &x, &col);
        check_both(Graph::col_plus_row, &col, &row);
        check_both(Graph::sub_row, &x, &row);
        check_both(Graph::div_row, &x, &pos(&row));
        check_both(Graph::div_col, &x, &pos(&col));
    }

    #[test]
    fn grad_of_structural_ops() {
        let mut rng = rng_from_seed(105);
        let x = randn(&mut rng, 5, 3);
        check(
            &|g, a| {
                let gth = g.gather_rows(a, &[0, 2, 2, 4]);
                g.sumsq(gth)
            },
            &x,
        );
        check(
            &|g, a| {
                let gth = g.gather_cols(a, &[2, 0, 2]);
                g.sumsq(gth)
            },
            &x,
        );
        let other = randn(&mut rng, 5, 2);
        check(
            &move |g, a| {
                let oc = g.constant(other.clone());
                let cat = g.concat_cols(a, oc);
                g.sumsq(cat)
            },
            &x,
        );
    }

    #[test]
    fn grad_of_scalar_of_ops() {
        let mut rng = rng_from_seed(106);
        let x = randn(&mut rng, 3, 3);
        check(
            &|g, a| {
                let s = g.sum(a); // scalar depends on a too
                let y = g.div_scalar_of(a, s);
                g.sumsq(y)
            },
            &x.map(|v| v.abs() + 1.0),
        );
    }

    #[test]
    #[rustfmt::skip]
    fn grad_of_binary_ops_wrt_both_operands() {
        let mut rng = rng_from_seed(108);
        let x = randn(&mut rng, 4, 3);
        let y = randn(&mut rng, 4, 3);
        check_both(Graph::mul, &x, &y);
        check_both(Graph::sub, &x, &y);
        check_both(Graph::div, &x, &y.map(|v| v.abs() + 0.5));
        check_both(Graph::matmul_tn, &x, &randn(&mut rng, 4, 2));
    }

    #[test]
    #[rustfmt::skip]
    fn grad_of_fused_hsic_ops() {
        let mut rng = rng_from_seed(109);
        let z = randn(&mut rng, 5, 2);
        let coefs = [(0.7, 0.3), (-1.2, 2.0), (0.4, -1.1)];
        // Sole consumer (one folded delta), then with `z` already holding a
        // gradient from a later node (per-block deltas).
        check(&|g, a| { let f = g.rff_features(a, &coefs, 0.5); g.sumsq(f) }, &z);
        check(&|g, a| { let f = g.rff_features(a, &coefs, 0.5); let s = g.sumsq(f); let t = g.sumsq(a); g.add(s, t) }, &z);
        let k = randn(&mut rng, 6, 6);
        check(&|g, a| g.block_masked_sumsq(a, 3, true), &k);
        check(&|g, a| g.block_masked_sumsq(a, 3, false), &k);
    }

    #[test]
    fn grad_of_deep_composition() {
        // A small MLP-like composite: sumsq(elu(x W1 + b1) W2).
        let mut rng = rng_from_seed(107);
        let x = randn(&mut rng, 6, 4);
        let w1 = randn(&mut rng, 4, 5);
        let b1 = randn(&mut rng, 1, 5);
        let w2 = randn(&mut rng, 5, 2);
        check(
            &move |g, a| {
                let w1c = g.constant(w1.clone());
                let b1c = g.constant(b1.clone());
                let w2c = g.constant(w2.clone());
                let h = g.matmul(a, w1c);
                let h = g.add_row(h, b1c);
                let h = g.elu(h);
                let y = g.matmul(h, w2c);
                g.sumsq(y)
            },
            &x,
        );
    }
}
