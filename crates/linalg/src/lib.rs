//! # osn-linalg
//!
//! A deliberately small, dependency-free linear-algebra kernel sized for the
//! needs of the factorization-based link-prediction metrics in LinkLens:
//!
//! * [`dense::Matrix`] — row-major dense matrices with matmul, transpose
//!   and LU solve (partial pivoting).
//! * [`sparse`] — products with a snapshot's adjacency matrix (`A·x`,
//!   `A·X` on the shared worker pool, and a dense copy for small graphs),
//!   read in place from the [`Snapshot`](osn_graph::snapshot::Snapshot)'s
//!   CSR.
//! * [`lanczos`] — the symmetric eigensolvers behind the low-rank Katz
//!   approximation (Katz ≈ U f(Λ) Uᵀ): a dense Householder + implicit-QL
//!   solver, and Lanczos with full reorthogonalization whose tridiagonal
//!   projection goes through the same QL step. The tests hold both to a
//!   cyclic Jacobi oracle.
//! * [`factor`] — a blocked ALS factorization core (`A ≈ X R Xᵀ`) that
//!   routes `A·X` products through [`sparse::spmm_into_t`] and surfaces
//!   singular and non-finite fits as structured [`FactorError`]s.
//!
//! The crate intentionally implements only what the metrics need; it is not
//! a general-purpose BLAS. Everything is `f64`, everything is
//! deterministic, and all algorithms are exact except where the doc comment
//! says otherwise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod factor;
pub mod lanczos;
pub mod sparse;

pub use dense::{LuFactors, Matrix};
pub use factor::{AlsConfig, AlsFit, FactorError};

/// Numerical tolerance used by the iterative routines in this crate when a
/// caller does not supply one.
pub const DEFAULT_TOL: f64 = 1e-10;
