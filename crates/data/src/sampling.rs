//! Biased-sampling utilities implementing the paper's distribution-shift
//! mechanism.
//!
//! Every dataset in the paper induces OOD populations the same way: each
//! record gets a selection probability
//! `Pr = prod_{X_i in X_V} |rho|^(-10 * D_i)` with
//! `D_i = |Y1 - Y0 - sign(rho) * X_i|` (Sec. V-D/V-E), then records are drawn
//! according to those probabilities. `rho > 1` tilts the sample towards
//! records whose unstable features agree with the treatment effect (positive
//! spurious correlation), `rho < -1` towards disagreement; `|rho|` controls
//! the tilt strength.
//!
//! We realise the tilt with weighted sampling *without replacement*
//! (Efraimidis–Spirakis exponential keys), which reproduces the same biased
//! marginal over a finite pool without the pathological acceptance rates a
//! literal rejection sampler would have at large `|rho|`.

use rand::rngs::StdRng;
use rand::RngExt;

/// Selection weight of one record (log-space internally to avoid underflow).
///
/// `effect` is the record's `Y1 - Y0`; `unstable` are the values of its
/// unstable features `X_V`.
pub fn selection_log_weight(rho: f64, effect: f64, unstable: &[f64]) -> f64 {
    debug_assert!(rho.abs() > 1.0, "the paper uses |rho| > 1 (got {rho})");
    let sign = if rho >= 0.0 { 1.0 } else { -1.0 };
    let log_base = rho.abs().ln();
    let mut log_w = 0.0;
    for &xi in unstable {
        let d = (effect - sign * xi).abs();
        log_w -= 10.0 * d * log_base;
    }
    log_w
}

/// Weighted sampling of `k` distinct indices with probabilities proportional
/// to `exp(log_weights)` (Efraimidis–Spirakis keys, numerically stable in
/// log space).
///
/// # Panics
/// Panics if `k > log_weights.len()`.
#[track_caller]
pub fn weighted_sample_without_replacement(
    rng: &mut StdRng,
    log_weights: &[f64],
    k: usize,
) -> Vec<usize> {
    let n = log_weights.len();
    assert!(k <= n, "cannot draw {k} from {n} records");
    // Key_i = log(u_i) / w_i with w_i = exp(log_w_i); take the k largest.
    // In log space: key_i = log(-log u_i) - log_w_i, take the k *smallest*.
    let mut keyed: Vec<(f64, usize)> = log_weights
        .iter()
        .enumerate()
        .map(|(i, &lw)| {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let key = (-u.ln()).ln() - lw;
            (key, i)
        })
        .collect();
    // Ties in the key go to the lower index, as under a stable sort by key;
    // with that tie-break a partial selection picks the same `k` records.
    if k < n {
        keyed.select_nth_unstable_by(k, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        keyed.truncate(k);
    }
    let mut idx: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::{rng_from_seed, sample_standard_normal};

    #[test]
    fn aligned_records_get_higher_weight() {
        // With rho > 1, an unstable feature equal to the effect gives D = 0.
        let aligned = selection_log_weight(2.5, 1.0, &[1.0]);
        let misaligned = selection_log_weight(2.5, 1.0, &[-1.0]);
        assert!(aligned > misaligned);
        assert_eq!(aligned, 0.0);
    }

    #[test]
    fn negative_rho_flips_the_alignment() {
        let aligned = selection_log_weight(-2.5, 1.0, &[-1.0]);
        let misaligned = selection_log_weight(-2.5, 1.0, &[1.0]);
        assert!(aligned > misaligned);
    }

    #[test]
    fn larger_magnitude_rho_is_a_sharper_tilt() {
        let mild = selection_log_weight(1.3, 1.0, &[0.0]);
        let sharp = selection_log_weight(3.0, 1.0, &[0.0]);
        assert!(sharp < mild, "same D, larger |rho| => smaller weight");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_records() {
        let mut rng = rng_from_seed(0);
        // Record 0 has overwhelming weight.
        let log_w = vec![0.0, -50.0, -50.0, -50.0];
        let mut hits = 0;
        for _ in 0..200 {
            let s = weighted_sample_without_replacement(&mut rng, &log_w, 1);
            if s == vec![0] {
                hits += 1;
            }
        }
        assert!(hits > 195, "heavy record picked {hits}/200 times");
    }

    #[test]
    fn sampling_returns_distinct_sorted_indices() {
        let mut rng = rng_from_seed(1);
        let log_w = vec![0.0; 100];
        let s = weighted_sample_without_replacement(&mut rng, &log_w, 40);
        assert_eq!(s.len(), 40);
        for w in s.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn biased_sampling_induces_effect_feature_correlation() {
        // End-to-end check of the shift mechanism: after sampling with
        // rho = 2.5, the unstable feature should correlate positively with
        // the effect; with rho = -2.5, negatively.
        let mut rng = rng_from_seed(2);
        let n = 4000;
        let effects: Vec<f64> =
            (0..n).map(|_| if rng.random::<f64>() < 0.5 { 1.0 } else { 0.0 }).collect();
        let xv: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        for (rho, expect_positive) in [(2.5, true), (-2.5, false)] {
            let log_w: Vec<f64> =
                (0..n).map(|i| selection_log_weight(rho, effects[i], &[xv[i]])).collect();
            let idx = weighted_sample_without_replacement(&mut rng, &log_w, 800);
            let me: f64 = idx.iter().map(|&i| effects[i]).sum::<f64>() / 800.0;
            let mx: f64 = idx.iter().map(|&i| xv[i]).sum::<f64>() / 800.0;
            let cov: f64 =
                idx.iter().map(|&i| (effects[i] - me) * (xv[i] - mx)).sum::<f64>() / 800.0;
            if expect_positive {
                assert!(cov > 0.05, "rho=2.5 cov {cov}");
            } else {
                assert!(cov < -0.05, "rho=-2.5 cov {cov}");
            }
        }
    }
}
