//! # sbrl-stats
//!
//! Statistical machinery of the SBRL-HAP reproduction:
//!
//! * [`kernels`] — pairwise distances, RBF kernels and median-heuristic
//!   bandwidths;
//! * [`ipm`] — integral probability metrics between treated and control
//!   groups (linear MMD, RBF MMD², Sinkhorn-Wasserstein), weighted and
//!   unweighted, in plain and differentiable graph forms (Eq. 3–4);
//! * [`hsic`] — HSIC with Random Fourier Features, the weighted
//!   decorrelation loss `L_D` (Eq. 5–10) and the pairwise-HSIC diagnostics
//!   behind the paper's Fig. 5.
//!
//! The O(n²) pairwise loops (kernel matrices, HSIC pair sums, Sinkhorn
//! updates) run on the calling thread as serial folds, the same in both
//! [`NumericsMode`](sbrl_tensor::kernels::NumericsMode) tiers. This crate
//! never reads the tier: a statistic that multiplies matrices (the kernel
//! fills' `A Bᵀ`, the graph forms' products) follows its calling thread's
//! tier through the GEMM, which under `Fast` contracts each element's
//! multiply-add chain into FMAs. Choose a tier with
//! [`NumericsMode::scoped`](sbrl_tensor::kernels::NumericsMode::scoped).
//! Parallelism lives one level up: the weight phase evaluates its
//! decorrelation terms as concurrent pool tasks
//! ([`decorrelation_losses_graph`]).

#![warn(missing_docs)]

pub mod hsic;
pub mod ipm;
pub mod kernels;

pub use hsic::{
    decorrelation_loss_graph_scratch, decorrelation_loss_plain, decorrelation_losses_graph,
    hsic_biased, hsic_rff_pair, mean_offdiag_hsic, pairwise_hsic_matrix, DecorrelationConfig,
    HsicScratch, Rff,
};
pub use ipm::{ipm_graph, ipm_plain, ipm_weighted_graph, ipm_weighted_plain, IpmKind};
pub use kernels::{median_bandwidth, pairwise_sq_dists, rbf_kernel};
