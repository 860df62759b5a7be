//! Seeded random sampling helpers.
//!
//! Every stochastic component of the workspace draws from a [`StdRng`] seeded
//! with an explicit `u64` so that all experiments are exactly reproducible.
//! Gaussian samples use the Box–Muller transform so we do not need the
//! `rand_distr` crate.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::matrix::Matrix;

/// Creates a deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0) by nudging the lower bound of the open interval.
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws one `N(mean, std^2)` sample.
pub fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    mean + std * sample_standard_normal(rng)
}

/// Draws one `U(lo, hi)` sample.
pub fn sample_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

/// Draws a Bernoulli sample with success probability `p` (clamped to `[0,1]`).
pub fn sample_bernoulli(rng: &mut StdRng, p: f64) -> bool {
    rng.random::<f64>() < p.clamp(0.0, 1.0)
}

/// A matrix with i.i.d. `N(0,1)` entries.
pub fn randn(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_standard_normal(rng))
}

/// A matrix with i.i.d. `N(mean, std^2)` entries.
pub fn randn_scaled(rng: &mut StdRng, rows: usize, cols: usize, mean: f64, std: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_normal(rng, mean, std))
}

/// A random permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut idx = Vec::with_capacity(n);
    permutation_into(rng, &mut idx, n);
    idx
}

/// Writes a random permutation of `0..n` into `out`, reusing its capacity —
/// the allocation-free variant of [`permutation`]. Consumes exactly the same
/// RNG draws, so the resulting permutation is identical.
pub fn permutation_into(rng: &mut StdRng, out: &mut Vec<usize>, n: usize) {
    out.clear();
    out.extend(0..n);
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
}

/// Samples `k` indices from `0..n` without replacement.
///
/// # Panics
/// Panics if `k > n`.
#[track_caller]
pub fn sample_without_replacement(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from {n} without replacement");
    let mut idx = permutation(rng, n);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(sample_standard_normal(&mut a), sample_standard_normal(&mut b));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let xs: Vec<f64> = (0..8).map(|_| sample_standard_normal(&mut a)).collect();
        let ys: Vec<f64> = (0..8).map(|_| sample_standard_normal(&mut b)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = rng_from_seed(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean too far from 0: {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance too far from 1: {var}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = rng_from_seed(3);
        for _ in 0..1000 {
            let u = sample_uniform(&mut rng, -2.0, 5.0);
            assert!((-2.0..5.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_rate_tracks_p() {
        let mut rng = rng_from_seed(11);
        let hits = (0..10_000).filter(|_| sample_bernoulli(&mut rng, 0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = rng_from_seed(5);
        let p = permutation(&mut rng, 100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sampling_without_replacement_is_unique() {
        let mut rng = rng_from_seed(9);
        let s = sample_without_replacement(&mut rng, 50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn randn_shape() {
        let mut rng = rng_from_seed(1);
        assert_eq!(randn(&mut rng, 3, 4).shape(), (3, 4));
    }
}
