//! # sbrl-nn
//!
//! Minimal neural-network stack for the SBRL-HAP reproduction: dense layers
//! with per-layer activation taps, batch / representation normalisation,
//! Adam with exponential LR decay, weighted outcome losses and early
//! stopping — exactly the training machinery Sec. V-C of the paper assumes.
//!
//! Parameters live in a [`ParamStore`] outside the autodiff tape; each
//! optimisation step binds them into a fresh [`sbrl_tensor::Graph`] through a
//! [`Binding`], runs backward, and lets an [`Optimizer`] update the store.

pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
pub mod train;

pub use layers::{l2_normalize_rows, Activation, BatchNorm, Linear, Mlp, MlpOutput};
pub use loss::OutcomeLoss;
pub use optim::{Adam, LrSchedule, Optimizer};
pub use params::{Binding, ParamHandle, ParamStore};
pub use train::{BatchIter, EarlyStopping};
