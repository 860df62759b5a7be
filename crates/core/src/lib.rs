//! # sbrl-core
//!
//! The paper's primary contribution: **Stable Balanced Representation
//! Learning with Hierarchical-Attention Paradigm** (SBRL-HAP, ICDE 2024).
//!
//! The framework wraps any [`sbrl_models::Backbone`] with three regularizers
//! driving a set of learnable per-sample weights:
//!
//! * [`config`] — framework flags and the `{α, γ1, γ2, γ3}` coefficients of
//!   the weight objective (Eq. 11);
//! * [`weights`] — the positive sample-weight module with its `R_w` anchor;
//! * [`regularizers`] — the Balancing Regularizer (weighted IPM, Eq. 4), the
//!   Independence Regularizer (weighted HSIC-RFF, Eq. 10) and the
//!   Hierarchical-Attention terms assembled into `L_w`;
//! * [`trainer`] — the alternating optimisation of Algorithm 1 and the
//!   [`FittedModel`] inference wrapper;
//! * [`estimator`] — the fluent [`Estimator::builder`] fit pipeline;
//! * [`method`] — the name-addressable 3 x 3 method grid;
//! * [`recovery`] — the checkpoint-rollback [`RecoveryPolicy`] and the
//!   [`FitReport`] fault-tolerance provenance carried on [`FittedModel`];
//! * [`faults`] — deterministic fault injection (`fault-inject` feature;
//!   zero overhead and no hooks when off);
//! * [`persist`] — the versioned `.sbrl` artifact format
//!   ([`FittedModel::save`]/[`FittedModel::load`]) and the method-keyed
//!   [`ModelRegistry`];
//! * [`serve`] — the [`InferenceService`] over a loaded registry (the
//!   `serve` binary's engine; each request is predicted on its caller's
//!   thread behind a counting admission limit) and the [`SocketServer`]
//!   front-end with deadlines, backpressure, and graceful drain;
//! * [`wire`] — the length-framed, CRC-checked socket protocol and the
//!   retrying [`ServeClient`];
//! * [`error`] — the unified [`SbrlError`] type.
//!
//! ```no_run
//! use sbrl_core::{Estimator, Framework, SbrlConfig, TrainConfig};
//! use sbrl_data::{SyntheticConfig, SyntheticProcess};
//! use sbrl_models::CfrConfig;
//!
//! let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 0);
//! let train_data = process.generate(2.5, 1000, 0);
//! let val_data = process.generate(2.5, 300, 1);
//!
//! let fitted = Estimator::builder()
//!     .backbone(CfrConfig::small(train_data.dim()))
//!     .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 0.1))
//!     .train(TrainConfig::default())
//!     .seed(0)
//!     .fit(&train_data, &val_data)?;
//! let ood = process.generate(-3.0, 500, 2);
//! let eval = fitted.evaluate(&ood).expect("oracle available");
//! println!("OOD PEHE = {:.3}", eval.pehe);
//!
//! // Grid cells are name-addressable, too:
//! let fitted = Estimator::builder().method("CFR+SBRL-HAP".parse()?).fit(&train_data, &val_data)?;
//! # Ok::<(), sbrl_core::SbrlError>(())
//! ```

mod codec;
pub mod config;
pub mod error;
pub mod estimator;
pub mod faults;
pub mod method;
pub mod ood;
pub mod persist;
pub mod recovery;
pub mod regularizers;
pub mod serve;
pub mod trainer;
pub mod weights;
pub mod wire;

pub use config::{Framework, SbrlConfig};
pub use error::{NonFiniteTerm, ParseError, SbrlError};
pub use estimator::{Estimator, EstimatorBuilder};
#[cfg(feature = "fault-inject")]
pub use faults::{inject, FaultGuard, FaultPlan};
pub use method::MethodSpec;
pub use ood::{BlendedEstimator, OodDetector, OodDetectorConfig};
pub use persist::{ModelRegistry, PersistError};
pub use recovery::{FitReport, RecoveryEvent, RecoveryPolicy};
pub use regularizers::{weight_objective, WeightLossTerms};
pub use serve::{InferenceService, LatencySummary, PendingPrediction, ServeConfig, SocketServer};
pub use trainer::{FittedModel, TrainConfig, TrainReport};
pub use weights::SampleWeights;
pub use wire::{ClientConfig, HealthReport, ServeClient, WireError};
