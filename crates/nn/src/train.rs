//! Training utilities: mini-batch iteration and early stopping.
//!
//! The paper trains for up to 3000 iterations with early stopping on the
//! validation metric and reports the best-evaluated iterate (Sec. V-C).

use rand::rngs::StdRng;
use sbrl_tensor::rng::{permutation, permutation_into};

/// Cycles over shuffled mini-batches of indices `0..n`.
pub struct BatchIter {
    n: usize,
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
}

impl BatchIter {
    /// Creates a batch iterator over `n` samples.
    ///
    /// # Panics
    /// Panics if `n == 0` or `batch_size == 0`.
    #[track_caller]
    pub fn new(rng: &mut StdRng, n: usize, batch_size: usize) -> Self {
        assert!(n > 0, "BatchIter requires at least one sample");
        assert!(batch_size > 0, "BatchIter requires a positive batch size");
        Self { n, batch_size: batch_size.min(n), order: permutation(rng, n), cursor: 0 }
    }

    /// Returns the next batch of indices, reshuffling after each epoch.
    ///
    /// The returned slice borrows the iterator's internal order buffer, so
    /// steady-state batching (including the epoch-boundary reshuffle, which
    /// rebuilds the permutation in place with the same RNG draws) performs no
    /// heap allocation.
    pub fn next_batch(&mut self, rng: &mut StdRng) -> &[usize] {
        if self.cursor + self.batch_size > self.n {
            permutation_into(rng, &mut self.order, self.n);
            self.cursor = 0;
        }
        let batch = &self.order[self.cursor..self.cursor + self.batch_size];
        self.cursor += self.batch_size;
        batch
    }

    /// Effective batch size (clamped to `n`).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

/// Early stopping on a minimised validation metric. It only decides when to
/// stop; the caller keeps its own record of the best iterate.
pub struct EarlyStopping {
    patience: usize,
    best: f64,
    since_best: usize,
}

impl EarlyStopping {
    /// Smallest decrease below the best value that counts as an improvement.
    const MIN_DELTA: f64 = 1e-9;

    /// Creates a monitor that stops after `patience` non-improving checks.
    pub fn new(patience: usize) -> Self {
        Self { patience, best: f64::INFINITY, since_best: 0 }
    }

    /// Records a validation value; returns `true` when the budget of
    /// non-improving checks is exhausted and training should stop.
    pub fn update(&mut self, value: f64) -> bool {
        if value.is_nan() {
            // NaN never improves; count it against patience.
            self.since_best += 1;
        } else if value < self.best - Self::MIN_DELTA {
            self.best = value;
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
        self.since_best > self.patience
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_tensor::rng::rng_from_seed;

    #[test]
    fn batches_cover_all_samples_each_epoch() {
        let mut rng = rng_from_seed(0);
        let mut it = BatchIter::new(&mut rng, 10, 5);
        let mut seen: Vec<usize> = Vec::new();
        seen.extend(it.next_batch(&mut rng));
        seen.extend(it.next_batch(&mut rng));
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batch_size_clamps_to_n() {
        let mut rng = rng_from_seed(1);
        let mut it = BatchIter::new(&mut rng, 3, 100);
        assert_eq!(it.batch_size(), 3);
        assert_eq!(it.next_batch(&mut rng).len(), 3);
    }

    #[test]
    fn partial_tail_batches_trigger_reshuffle() {
        let mut rng = rng_from_seed(2);
        let mut it = BatchIter::new(&mut rng, 10, 4);
        let mut counts = vec![0usize; 10];
        for _ in 0..25 {
            for &i in it.next_batch(&mut rng) {
                counts[i] += 1;
            }
        }
        // Every sample should appear roughly equally often.
        assert!(counts.iter().all(|&c| c >= 6), "counts {counts:?}");
    }

    #[test]
    fn early_stopping_tracks_best_and_stops() {
        let mut es = EarlyStopping::new(2);
        assert!(!es.update(1.0));
        assert!(!es.update(0.5)); // improvement
        assert!(!es.update(0.6));
        assert!(!es.update(0.5 - 1e-10)); // below the best by less than 1e-9: a miss
        assert!(es.update(0.8)); // third miss > patience 2
    }

    #[test]
    fn nan_counts_against_patience() {
        let mut es = EarlyStopping::new(1);
        assert!(!es.update(1.0));
        assert!(!es.update(f64::NAN));
        assert!(es.update(f64::NAN));
    }
}
