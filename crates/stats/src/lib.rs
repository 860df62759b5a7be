//! # sbrl-stats
//!
//! Statistical machinery of the SBRL-HAP reproduction:
//!
//! * [`kernels`] — pairwise distances, RBF kernels, median-heuristic
//!   bandwidths, centering matrices;
//! * [`ipm`] — integral probability metrics between treated and control
//!   groups (linear MMD, RBF MMD², Sinkhorn-Wasserstein), weighted and
//!   unweighted, in plain and differentiable graph forms (Eq. 3–4);
//! * [`hsic`] — HSIC with Random Fourier Features, the weighted
//!   decorrelation loss `L_D` (Eq. 5–10) and the pairwise-HSIC diagnostics
//!   behind the paper's Fig. 5.
//!
//! The O(n²) pairwise loops (kernel matrices, HSIC pair sums, Sinkhorn
//! updates) run on the calling thread and honour the
//! [`NumericsMode`](sbrl_tensor::kernels::NumericsMode) tier: `BitExact`
//! (default) keeps the historical serial folds, `Fast` swaps in
//! multi-accumulator / pairwise-tree reductions that are deterministic but
//! not bit-identical to `BitExact`. Each public entry point reads the tier of
//! its calling thread once; choose one with
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
pub use kernels::{centering_matrix, median_bandwidth, pairwise_sq_dists, rbf_kernel};
