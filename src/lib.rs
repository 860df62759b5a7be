//! # sbrl-hap
//!
//! A from-scratch Rust reproduction of **"Stable Heterogeneous Treatment
//! Effect Estimation across Out-of-Distribution Populations"** (Zhang et
//! al., ICDE 2024): balanced representation learning plus
//! independence-driven sample reweighting, coordinated by a
//! Hierarchical-Attention Paradigm, so that treatment-effect estimators
//! trained on one population stay accurate on covariate-shifted ones.
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`tensor`] — dense matrices + reverse-mode autodiff;
//! * [`nn`] — layers, optimisers, schedules;
//! * [`stats`] — IPM (MMD / Sinkhorn-Wasserstein) and HSIC-RFF machinery;
//! * [`data`] — synthetic / Twins-like / IHDP-like benchmark generators;
//! * [`models`] — TARNet, CFR and DeR-CFR backbones;
//! * [`core`] — the SBRL / SBRL-HAP framework and alternating trainer;
//! * [`metrics`] — PEHE, ATE bias, F1 and stability metrics;
//! * [`experiments`] — runners regenerating every table/figure of the paper.
//!
//! ## Quickstart
//!
//! ```no_run
//! use sbrl_hap::core::{Estimator, SbrlConfig, TrainConfig};
//! use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
//! use sbrl_hap::models::CfrConfig;
//!
//! // One seeded mechanism; the bias rate rho picks the environment.
//! let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 7);
//! let train = process.generate(2.5, 2000, 70);
//! let val = process.generate(2.5, 600, 71);
//! let ood_test = process.generate(-3.0, 1000, 72);
//!
//! // Fit through the fluent builder; the result is an immutable,
//! // thread-safe artifact.
//! let fitted = Estimator::builder()
//!     .backbone(CfrConfig::small(train.dim()))
//!     .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 0.1))
//!     .train(TrainConfig::default())
//!     .seed(0)
//!     .fit(&train, &val)?;
//! println!("OOD PEHE: {:.3}", fitted.evaluate(&ood_test).unwrap().pehe);
//!
//! // Grid cells parse from strings, and inference shards across the
//! // persistent worker pool.
//! let hap = Estimator::builder().method("CFR+SBRL-HAP".parse()?).fit(&train, &val)?;
//! let est = hap.predict_batched(&ood_test.x, 8); // bit-identical to predict()
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use sbrl_core as core;
pub use sbrl_data as data;
pub use sbrl_experiments as experiments;
pub use sbrl_metrics as metrics;
pub use sbrl_models as models;
pub use sbrl_nn as nn;
pub use sbrl_stats as stats;
pub use sbrl_tensor as tensor;
