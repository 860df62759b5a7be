//! # sbrl-tensor
//!
//! Dense `f64` matrix library and reverse-mode automatic differentiation
//! engine — the numerical substrate of the SBRL-HAP reproduction
//! (*Stable Heterogeneous Treatment Effect Estimation across
//! Out-of-Distribution Populations*, ICDE 2024).
//!
//! The paper's training objective differentiates custom losses (weighted
//! integral probability metrics, a Sinkhorn loop, weighted HSIC with random
//! Fourier features) with respect to both network parameters and per-sample
//! weights. Mainstream Rust DL bindings are not mature enough for these
//! custom reweighting losses, so this crate provides a small, fully-tested
//! define-by-run tape ([`Graph`]) over a plain matrix type ([`Matrix`]).
//!
//! Modules:
//! * [`matrix`] — the dense matrix type and BLAS-free operations.
//! * [`kernels`] — the cache-blocked GEMM layer every matrix product
//!   funnels through, its bit-exact [`kernels::NumericsMode`], and the
//!   workspace-wide [`kernels::Parallelism`] knob of the coarse tasks.
//! * [`workers`] — the persistent worker pool (lazily spawned threads, a
//!   chunked work queue) that executes every coarse parallel task without
//!   per-call thread spawns.
//! * [`graph`] — the autodiff tape (`Graph`, `TensorId`, ~40 primitive ops),
//!   reusable across optimisation steps via [`Graph::reset`].
//! * [`pool`] — the shape-keyed [`pool::BufferPool`] that keeps a reset
//!   tape's value/gradient buffers alive across steps (allocation-free
//!   steady-state training).
//! * [`rng`] — seeded sampling helpers (Box–Muller normals, permutations).
//! * [`gradcheck`] — finite-difference gradient verification used throughout
//!   the workspace's test suites.

#![warn(missing_docs)]

pub mod gradcheck;
pub mod graph;
pub mod kernels;
pub mod matrix;
pub mod pool;
pub mod rng;
pub mod workers;

pub use graph::{stable_sigmoid, stable_softplus, Graph, TensorId};
pub use kernels::{NumericsMode, Parallelism};
pub use matrix::Matrix;
pub use pool::BufferPool;
