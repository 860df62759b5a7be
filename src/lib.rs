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
//! use sbrl_hap::data::{DatasetOptions, DatasetRegistry};
//! use sbrl_hap::models::CfrConfig;
//!
//! // Datasets are name-addressable through the registry.
//! let registry = DatasetRegistry::builtin();
//! let opts = DatasetOptions { n_train: 2000, n_val: 600, n_test: 1000, ..Default::default() };
//! let split = registry.generate("syn_8_8_8_2", &opts)?; // OOD test at rho = -3
//!
//! // Fit through the fluent builder; the result is an immutable,
//! // thread-safe artifact.
//! let fitted = Estimator::builder()
//!     .backbone(CfrConfig::small(split.train.dim()))
//!     .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 0.1))
//!     .train(TrainConfig::default())
//!     .seed(0)
//!     .fit(&split.train, &split.val)?;
//! println!("OOD PEHE: {:.3}", fitted.evaluate(&split.test).unwrap().pehe);
//!
//! // Grid cells parse from strings, and inference shards across threads.
//! let hap = Estimator::builder().method("CFR+SBRL-HAP".parse()?).fit(&split.train, &split.val)?;
//! let est = hap.predict_batched(&split.test.x, 8); // bit-identical to predict()
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
