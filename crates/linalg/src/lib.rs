//! Dense linear algebra substrate for the CPS dimensioning tool-chain.
//!
//! This crate provides the small-scale numerical kernels that the control,
//! switching and verification layers build on:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual arithmetic,
//!   slicing and construction helpers.
//! * [`Vector`] — a thin newtype over a column of numbers with dot products
//!   and element-wise arithmetic.
//! * [`decomp`] — LU decomposition with partial pivoting, linear solves,
//!   inverses and determinants.
//! * [`eigen`] — eigenvalues as the roots of the characteristic polynomial
//!   (supports complex conjugate pairs).
//! * [`lyapunov`] — discrete-time Lyapunov equation solver (Kronecker
//!   vectorization) and positive-definiteness tests via Cholesky.
//! * [`backend`] — the traits ([`MatrixOps`], [`VectorOps`],
//!   [`LinalgBackend`]) carrying the kernels the dwell search engine runs,
//!   with the heap-backed types as the default [`DynBackend`].
//! * [`static_backend`] — stack-allocated const-generic square
//!   [`StaticMatrix`] / [`StaticVector`]: the allocation-free fast path
//!   ([`StaticBackend`]) for the small fixed dimensions of the case-study
//!   plants.
//!
//! The plants in the reproduced paper are at most third order, so these
//! routines favour clarity and numerical robustness over asymptotic
//! performance; they are nevertheless exact enough to reproduce every figure
//! and table of the evaluation.
//!
//! # Example
//!
//! ```
//! use cps_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), cps_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let x = Vector::from_slice(&[1.0, 1.0]);
//! let y = a.mul_vector(&x)?;
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod decomp;
pub mod eigen;
mod error;
pub mod lyapunov;
mod matrix;
pub mod static_backend;
mod vector;

pub use backend::{DynBackend, LinalgBackend, MatrixOps, VectorOps};
pub use decomp::LuDecomposition;
pub use eigen::{spectral_radius, Eigenvalues};
pub use error::LinalgError;
pub use lyapunov::{is_positive_definite, solve_discrete_lyapunov};
pub use matrix::Matrix;
pub use static_backend::{StaticBackend, StaticMatrix, StaticVector};
pub use vector::Vector;

/// Default absolute tolerance used by comparisons throughout the crate.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Returns `true` when two floating point numbers differ by less than `tol`.
///
/// This is deliberately an absolute comparison: the quantities handled in this
/// workspace (states, outputs, gains) are all normalised around unit scale.
///
/// # Example
///
/// ```
/// assert!(cps_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!cps_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() < tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(0.1 + 0.2, 0.3, 1e-12));
    }

    #[test]
    fn approx_eq_outside_tolerance() {
        assert!(!approx_eq(1.0, 1.0001, 1e-6));
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix>();
        assert_send_sync::<Vector>();
        assert_send_sync::<LinalgError>();
        assert_send_sync::<Eigenvalues>();
        assert_send_sync::<StaticMatrix<3>>();
        assert_send_sync::<StaticVector<3>>();
        assert_send_sync::<DynBackend>();
        assert_send_sync::<StaticBackend<3>>();
    }
}
