//! Summary statistics for the benchmark's samples.
//!
//! Percentiles follow one rule: a tail is reported only at a percentile
//! that has at least [`MIN_BEYOND`] samples strictly beyond it, so a p99 is
//! never read off a handful of points.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the benchmark may report, highest first.
const TAILS: [f64; 3] = [99.0, 95.0, 90.0];

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0..=100) of sorted `v`: the smallest value
/// with at least `p`% of the samples at or below it.
fn nearest_rank(v: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Number of samples strictly beyond nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n - rank.min(n)
}

/// A latency tail: which percentile, its value, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0), or 100.0 for the maximum.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was read from.
    pub samples: usize,
}

/// The highest of [`TAILS`] that has at least [`MIN_BEYOND`] samples beyond
/// it. With too few samples for any of them, the maximum is returned and
/// labelled as percentile 100 so the report says so.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAILS {
        if beyond(n, p) >= MIN_BEYOND {
            return Some(Tail { percentile: p, value: nearest_rank(&v, p), samples: n });
        }
    }
    Some(Tail { percentile: 100.0, value: v[n - 1], samples: n })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation (the spread of a fixed set, such as the
/// eight test environments); `None` when empty.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some((xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples leave only 9 beyond rank 990, so p99 is not supported
        // and the rule falls back to p95 (rank 950, 49 beyond).
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
    }

    #[test]
    fn p99_is_the_highest_tail_reported() {
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 9900.0));
    }

    #[test]
    fn too_few_samples_report_the_maximum_labelled_as_such() {
        let t = tail(&[5.0, 7.0, 6.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 7.0, 3));
        // 100 samples: p90 has exactly 10 beyond it.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn spread_of_a_fixed_set_is_the_population_sd() {
        assert_eq!(std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }
}
