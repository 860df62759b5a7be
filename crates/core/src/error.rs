//! The unified error type of the estimator pipeline.
//!
//! Everything that can go wrong between "configure an estimator" and "hold a
//! fitted model" — structural data validation, training divergence, builder
//! misconfiguration, and name parsing — surfaces as one [`SbrlError`], so
//! callers (sweep runners, server endpoints) match a single enum instead of
//! juggling per-layer error types.

use std::fmt;
use std::time::Duration;

use sbrl_data::DataError;
use sbrl_models::ParseBackboneError;

/// Which term of the training objective went non-finite — the recovery log
/// and SKIPPED lines say *what* diverged, not just when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonFiniteTerm {
    /// The weighted factual outcome loss `L^w_Y` (Eq. 13).
    FactualLoss,
    /// The backbone regularizers / L2 added on top of a finite factual loss.
    Regularizer,
    /// The sample-weight objective `L_w` (Eq. 11) of the weight phase.
    WeightObjective,
    /// A parameter gradient (the loss itself was still finite).
    Gradient,
}

impl fmt::Display for NonFiniteTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NonFiniteTerm::FactualLoss => "factual loss",
            NonFiniteTerm::Regularizer => "regularizer",
            NonFiniteTerm::WeightObjective => "weight objective",
            NonFiniteTerm::Gradient => "gradient",
        };
        f.write_str(name)
    }
}

/// Typed failure of the fit/predict pipeline.
#[derive(Debug)]
pub enum SbrlError {
    /// The training or validation data failed structural validation.
    Data(DataError),
    /// A training-objective term became non-finite (and the configured
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) retries, if any, were
    /// exhausted).
    NonFiniteLoss {
        /// Iteration at which the divergence was detected.
        iteration: usize,
        /// Which objective term diverged.
        term: NonFiniteTerm,
    },
    /// A deadline expired: the fit exceeded
    /// [`TrainConfig::time_budget`](crate::TrainConfig) (checked at the top
    /// of every iteration — the watchdog), or a serving request ran past its
    /// `SBRL_DEADLINE_MS` budget (`iteration` is 0 for serving deadlines).
    TimedOut {
        /// Iteration at which the budget check tripped (0 for serving).
        iteration: usize,
        /// Wall-clock time elapsed when the check tripped.
        elapsed: Duration,
    },
    /// A worker-pool task panicked during batched inference; the panic was
    /// contained to its shard and the pool remains usable.
    WorkerPanic {
        /// Chunk index of the (lowest) panicking task.
        task: usize,
    },
    /// An estimator/training configuration failed validation.
    InvalidConfig {
        /// Which configuration field or builder step is at fault.
        what: &'static str,
        /// Human-readable explanation.
        message: String,
    },
    /// A method/backbone/framework name failed to parse.
    Parse(ParseError),
    /// A persisted model artifact could not be written, read or validated.
    Persist(crate::persist::PersistError),
    /// The serving admission queue was full: the request was shed at the
    /// door instead of queueing without bound (backpressure, not collapse).
    Overloaded {
        /// Queue depth observed when the request was shed.
        depth: usize,
        /// The configured `queue_max` admission limit.
        limit: usize,
    },
    /// The inference service stopped (drain or shutdown closed admission)
    /// before this request could be admitted.
    ServiceStopped {
        /// What stopped the service.
        reason: String,
    },
    /// A wire-protocol frame could not be written, read, or decoded.
    Wire(crate::wire::WireError),
}

impl fmt::Display for SbrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SbrlError::Data(e) => write!(f, "invalid data: {e}"),
            SbrlError::NonFiniteLoss { iteration, term } => {
                write!(f, "the {term} became non-finite at iteration {iteration}")
            }
            SbrlError::TimedOut { iteration, elapsed } => {
                write!(
                    f,
                    "deadline exceeded at iteration {iteration} (elapsed {:.3}s)",
                    elapsed.as_secs_f64()
                )
            }
            SbrlError::WorkerPanic { task } => {
                write!(f, "batched inference worker task {task} panicked")
            }
            SbrlError::InvalidConfig { what, message } => {
                write!(f, "invalid configuration ({what}): {message}")
            }
            SbrlError::Parse(e) => write!(f, "{e}"),
            SbrlError::Persist(e) => write!(f, "persistence failure: {e}"),
            SbrlError::Overloaded { depth, limit } => {
                write!(f, "service overloaded: admission queue is at depth {depth}/{limit}")
            }
            SbrlError::ServiceStopped { reason } => {
                write!(f, "service stopped before answering: {reason}")
            }
            SbrlError::Wire(e) => write!(f, "wire failure: {e}"),
        }
    }
}

impl From<sbrl_tensor::workers::TaskPanicked> for SbrlError {
    fn from(e: sbrl_tensor::workers::TaskPanicked) -> Self {
        SbrlError::WorkerPanic { task: e.task }
    }
}

impl std::error::Error for SbrlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SbrlError::Data(e) => Some(e),
            SbrlError::Parse(e) => Some(e),
            SbrlError::Persist(e) => Some(e),
            SbrlError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::persist::PersistError> for SbrlError {
    fn from(e: crate::persist::PersistError) -> Self {
        SbrlError::Persist(e)
    }
}

impl From<DataError> for SbrlError {
    fn from(e: DataError) -> Self {
        SbrlError::Data(e)
    }
}

impl From<ParseError> for SbrlError {
    fn from(e: ParseError) -> Self {
        SbrlError::Parse(e)
    }
}

impl From<crate::wire::WireError> for SbrlError {
    fn from(e: crate::wire::WireError) -> Self {
        SbrlError::Wire(e)
    }
}

/// Typed error for a name that failed to parse into a grid component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The backbone segment of the name was not recognised.
    Backbone {
        /// The rejected segment.
        input: String,
    },
    /// The framework segment of the name was not recognised.
    Framework {
        /// The rejected segment.
        input: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Delegate so the expected-backbones list has a single source.
            ParseError::Backbone { input } => ParseBackboneError { input: input.clone() }.fmt(f),
            ParseError::Framework { input } => {
                write!(f, "unknown framework '{input}' (expected one of: Vanilla, SBRL, SBRL-HAP)")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseBackboneError> for ParseError {
    fn from(e: ParseBackboneError) -> Self {
        ParseError::Backbone { input: e.input }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let d = SbrlError::Data(DataError::Empty);
        assert!(d.to_string().contains("invalid data"));
        let n = SbrlError::NonFiniteLoss { iteration: 7, term: NonFiniteTerm::FactualLoss };
        assert!(n.to_string().contains("iteration 7"));
        assert!(n.to_string().contains("factual loss"));
        let t = SbrlError::TimedOut { iteration: 3, elapsed: Duration::from_millis(1500) };
        assert!(t.to_string().contains("iteration 3") && t.to_string().contains("1.500"));
        let w = SbrlError::WorkerPanic { task: 2 };
        assert!(w.to_string().contains("task 2"));
        let c = SbrlError::InvalidConfig { what: "train.lr", message: "must be finite".into() };
        assert!(c.to_string().contains("train.lr"));
        let p = SbrlError::Parse(ParseError::Framework { input: "JUNK".into() });
        assert!(p.to_string().contains("JUNK"));
        let s = SbrlError::Persist(crate::persist::PersistError::BadMagic {
            found: [0, 1, 2, 3, 4, 5, 6, 7],
        });
        assert!(s.to_string().contains("persistence failure"));
        assert!(s.to_string().contains("magic"));
        let o = SbrlError::Overloaded { depth: 128, limit: 128 };
        assert!(o.to_string().contains("128/128"));
        let st = SbrlError::ServiceStopped { reason: "drained".into() };
        assert!(st.to_string().contains("drained"));
        let wi = SbrlError::Wire(crate::wire::WireError::BadMagic { found: [0, 1, 2, 3] });
        assert!(wi.to_string().contains("wire failure") && wi.to_string().contains("magic"));
    }

    #[test]
    fn non_finite_terms_name_the_objective_term() {
        let names: Vec<String> = [
            NonFiniteTerm::FactualLoss,
            NonFiniteTerm::Regularizer,
            NonFiniteTerm::WeightObjective,
            NonFiniteTerm::Gradient,
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        assert_eq!(names, ["factual loss", "regularizer", "weight objective", "gradient"]);
    }

    #[test]
    fn task_panics_convert_to_worker_panic() {
        let e: SbrlError = sbrl_tensor::workers::TaskPanicked { task: 5 }.into();
        assert!(matches!(e, SbrlError::WorkerPanic { task: 5 }));
    }

    #[test]
    fn conversions_preserve_payloads() {
        let e: SbrlError = DataError::Empty.into();
        assert!(matches!(e, SbrlError::Data(DataError::Empty)));
        let p: ParseError = ParseBackboneError { input: "x".into() }.into();
        assert_eq!(p, ParseError::Backbone { input: "x".into() });
    }
}
