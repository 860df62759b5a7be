//! Checkpoint-rollback recovery for the alternating trainer.
//!
//! Training the SBRL objectives on heavy-tailed surfaces can diverge: a
//! single non-finite loss used to kill the whole fit. With a
//! [`RecoveryPolicy`] on [`TrainConfig`](crate::TrainConfig), the trainer
//! instead rolls back to the last best-validated checkpoint (the same
//! `store().snapshot()` early stopping already keeps), backs off the
//! learning rate, escalates gradient clipping, reseeds the batch shuffle
//! from a salted derivation, and resumes — recording every such event in
//! the [`FitReport`] carried on
//! [`FittedModel`](crate::FittedModel) provenance.
//!
//! The default policy performs **zero** retries: an untouched
//! configuration fails exactly as before (typed
//! [`NonFiniteLoss`](crate::SbrlError::NonFiniteLoss)) and every golden
//! regression stays bit-identical.

use std::time::Duration;

use crate::error::{NonFiniteTerm, SbrlError};

/// What the trainer does when a training-objective term goes non-finite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Rollback-and-resume attempts before the fit fails with
    /// [`NonFiniteLoss`](crate::SbrlError::NonFiniteLoss). `0` (default)
    /// disables recovery entirely — no extra work on the training path.
    pub max_retries: usize,
    /// Multiplier applied to the network learning rate at each recovery
    /// (e.g. `0.5` halves it). Must be finite and in `(0, 1]`.
    pub lr_backoff: f64,
    /// Multiplier applied to Adam's global gradient-norm clip at each
    /// recovery (escalation = a *tighter* clip). Must be finite and in
    /// `(0, 1]`.
    pub grad_clip_escalation: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_retries: 0, lr_backoff: 0.5, grad_clip_escalation: 0.5 }
    }
}

impl RecoveryPolicy {
    /// A policy with `n` retries and the default backoff factors.
    pub fn retries(n: usize) -> Self {
        Self { max_retries: n, ..Self::default() }
    }

    /// Validates the backoff factors: both must be finite and in `(0, 1]`.
    pub fn validate(&self) -> Result<(), SbrlError> {
        let factors = [
            ("train.recovery.lr_backoff", self.lr_backoff),
            ("train.recovery.grad_clip_escalation", self.grad_clip_escalation),
        ];
        for (what, v) in factors {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(SbrlError::InvalidConfig {
                    what,
                    message: format!("must be finite and in (0, 1], got {v}"),
                });
            }
        }
        Ok(())
    }
}

/// One recovery performed during a fit: what diverged, where the trainer
/// rolled back to, and the hyper-parameters it resumed with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// Iteration at which the non-finite term was detected.
    pub iteration: usize,
    /// Which objective term diverged.
    pub term: NonFiniteTerm,
    /// 1-based retry count (the first recovery is `1`).
    pub retry: usize,
    /// Iteration of the best-validated checkpoint restored by the rollback.
    pub rolled_back_to: usize,
    /// Network learning rate after the backoff.
    pub lr: f64,
    /// Adam gradient-norm clip after the escalation.
    pub clip_norm: f64,
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery #{}: {} non-finite at iteration {}, rolled back to \
             iteration {} (lr {:.3e}, clip {:.3e})",
            self.retry, self.term, self.iteration, self.rolled_back_to, self.lr, self.clip_norm
        )
    }
}

/// Fault-tolerance provenance of a fit, carried on
/// [`FittedModel`](crate::FittedModel): the policy the fit ran under and
/// every recovery it performed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FitReport {
    /// Recovery events in the order they occurred (empty for a clean fit).
    pub recoveries: Vec<RecoveryEvent>,
    /// The policy the fit ran under.
    pub policy: RecoveryPolicy,
    /// The watchdog budget the fit ran under (`None` = unbounded).
    pub time_budget: Option<Duration>,
}

impl FitReport {
    /// True when the fit survived at least one non-finite divergence.
    pub fn recovered(&self) -> bool {
        !self.recoveries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_performs_no_retries() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.max_retries, 0);
        p.validate().expect("default policy is valid");
        assert_eq!(RecoveryPolicy::retries(3).max_retries, 3);
    }

    #[test]
    fn validate_rejects_out_of_range_factors() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let p = RecoveryPolicy { lr_backoff: bad, ..RecoveryPolicy::default() };
            assert!(p.validate().is_err(), "lr_backoff {bad} must be rejected");
            let p = RecoveryPolicy { grad_clip_escalation: bad, ..RecoveryPolicy::default() };
            assert!(p.validate().is_err(), "grad_clip_escalation {bad} must be rejected");
        }
    }

    #[test]
    fn report_default_is_clean_and_events_render() {
        let r = FitReport::default();
        assert!(!r.recovered() && r.recoveries.is_empty() && r.time_budget.is_none());
        let e = RecoveryEvent {
            iteration: 42,
            term: NonFiniteTerm::FactualLoss,
            retry: 1,
            rolled_back_to: 25,
            lr: 5e-4,
            clip_norm: 5.0,
        };
        let s = e.to_string();
        assert!(s.contains("iteration 42") && s.contains("factual loss") && s.contains("25"));
    }
}
