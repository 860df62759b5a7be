//! # sbrl-data
//!
//! Dataset substrate of the SBRL-HAP reproduction: the causal dataset
//! abstraction, the paper's biased-sampling shift mechanism, and the three
//! benchmarks of its evaluation section —
//!
//! * [`synthetic`] — `Syn_mI_mC_mA_mV` with bias rate `rho` (Sec. V-D);
//! * [`twins`] — Twins-like simulator with the paper's augmentation and
//!   partitioning protocol (Sec. V-E1);
//! * [`ihdp`] — IHDP-like simulator with the NPCI nonlinear response
//!   surface and the continuous-covariate shift (Sec. V-E1).
//!
//! ## Why simulators stand in for the real Twins and IHDP files
//!
//! The paper's real-world studies (Table III) run on the NBER twin-birth
//! records and on the IHDP covariates. Neither file ships with this
//! repository and neither can be fetched offline, so [`twins`] and [`ihdp`]
//! simulate covariates with the published dimensionality, variable types
//! and correlation structure (shared latent health and socioeconomic
//! factors), and then apply the paper's protocol verbatim: the synthetic
//! instruments and unstable variables appended to Twins, the confounded
//! treatment assignment (exactly 139 treated IHDP units), NPCI's
//! nonlinear response surface, and above all the partitioning protocol —
//! a biased-sampling OOD test fold (bias rate `rho` on the unstable block
//! for Twins, on the six continuous covariates for IHDP) with the remainder
//! split 70/30 into train and validation. What Table III measures is how
//! each method's PEHE degrades under that shifted partition, and the
//! protocol, not the particular covariate values, produces the shift. The
//! absolute numbers therefore differ from the paper's; the comparison
//! between methods is what the simulators preserve.

pub mod dataset;
pub mod ihdp;
pub mod sampling;
pub mod splits;
pub mod synthetic;
pub mod twins;

pub use dataset::{CausalDataset, DataError, OutcomeKind, Scaler};
pub use ihdp::{IhdpConfig, IhdpSimulator};
pub use sampling::{selection_log_weight, weighted_sample_without_replacement};
pub use splits::{split_train_val, train_val_indices, DataSplit};
pub use synthetic::{SyntheticConfig, SyntheticProcess, PAPER_BIAS_RATES, TRAIN_BIAS_RATE};
pub use twins::{TwinsConfig, TwinsSimulator};
