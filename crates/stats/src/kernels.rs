//! Kernel primitives: pairwise distances, RBF kernels and bandwidth
//! heuristics (plain-matrix, non-differentiable versions).
//!
//! The `A Bᵀ` cross term of the squared distances is a GEMM; the row
//! squared-norms are serial folds.

use sbrl_tensor::Matrix;

/// Pairwise squared Euclidean distances between the rows of `a` (`n x d`)
/// and the rows of `b` (`m x d`), returned as an `n x m` matrix.
#[track_caller]
pub fn pairwise_sq_dists(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "pairwise_sq_dists: feature dims differ");
    let (n, m) = (a.rows(), b.rows());
    if n == 0 || m == 0 {
        return Matrix::zeros(n, m);
    }
    let sq_norms = |x: &Matrix| -> Vec<f64> {
        (0..x.rows()).map(|i| x.row(i).iter().map(|&v| v * v).sum()).collect()
    };
    let (a2, b2) = (sq_norms(a), sq_norms(b));
    let mut out = a.matmul_nt(b);
    for (row, &a2i) in out.as_mut_slice().chunks_mut(m).zip(&a2) {
        for (v, &b2j) in row.iter_mut().zip(&b2) {
            *v = (a2i + b2j - 2.0 * *v).max(0.0);
        }
    }
    out
}

/// RBF (Gaussian) kernel matrix `exp(-||a_i - b_j||^2 / (2 sigma^2))`.
#[track_caller]
pub fn rbf_kernel(a: &Matrix, b: &Matrix, sigma: f64) -> Matrix {
    let mut d = pairwise_sq_dists(a, b);
    let denom = 2.0 * sigma * sigma;
    d.map_inplace(|v| (-v / denom).exp());
    d
}

/// Median-heuristic bandwidth: the square root of half the median pairwise
/// squared distance between rows of `x`. Returns 1.0 for degenerate inputs
/// (fewer than two rows or all-identical rows).
pub fn median_bandwidth(x: &Matrix) -> f64 {
    let n = x.rows();
    if n < 2 {
        return 1.0;
    }
    let d = pairwise_sq_dists(x, x);
    let mut offdiag = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            offdiag.push(d[(i, j)]);
        }
    }
    offdiag.sort_by(f64::total_cmp);
    let median = offdiag[offdiag.len() / 2];
    if median <= 0.0 {
        1.0
    } else {
        (median / 2.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{randn, rng_from_seed};

    #[test]
    fn sq_dists_match_manual() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let d = pairwise_sq_dists(&a, &b);
        assert!((d[(0, 0)] - 25.0).abs() < 1e-12);
        assert!((d[(1, 0)] - 13.0).abs() < 1e-12);
    }

    #[test]
    fn self_distances_are_zero_on_diagonal() {
        let mut rng = rng_from_seed(0);
        let x = randn(&mut rng, 6, 3);
        let d = pairwise_sq_dists(&x, &x);
        for i in 0..6 {
            assert!(d[(i, i)].abs() < 1e-9);
        }
        // Symmetry.
        for i in 0..6 {
            for j in 0..6 {
                assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rbf_kernel_is_one_on_diagonal_and_in_unit_interval() {
        let mut rng = rng_from_seed(1);
        let x = randn(&mut rng, 5, 2);
        let k = rbf_kernel(&x, &x, 1.0);
        for i in 0..5 {
            assert!((k[(i, i)] - 1.0).abs() < 1e-9);
            for j in 0..5 {
                assert!(k[(i, j)] > 0.0 && k[(i, j)] <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn median_bandwidth_scales_with_data_spread() {
        let mut rng = rng_from_seed(2);
        let x = randn(&mut rng, 40, 3);
        let wide = x.scale(10.0);
        assert!(median_bandwidth(&wide) > 5.0 * median_bandwidth(&x));
    }

    #[test]
    fn median_bandwidth_degenerate_inputs() {
        assert_eq!(median_bandwidth(&Matrix::zeros(1, 3)), 1.0);
        assert_eq!(median_bandwidth(&Matrix::ones(5, 2)), 1.0);
    }

    #[test]
    fn pairwise_kernels_accept_empty_inputs() {
        // Regression: the fills must not assume a non-zero row width.
        let x = Matrix::ones(5, 3);
        let empty = Matrix::zeros(0, 3);
        assert_eq!(pairwise_sq_dists(&x, &empty).shape(), (5, 0));
        assert_eq!(pairwise_sq_dists(&empty, &x).shape(), (0, 5));
        assert_eq!(pairwise_sq_dists(&empty, &empty).shape(), (0, 0));
        assert_eq!(rbf_kernel(&x, &empty, 1.0).shape(), (5, 0));
        assert_eq!(rbf_kernel(&empty, &x, 1.0).shape(), (0, 5));
    }
}
