//! The linear-algebra backend the dwell search engine is generic over.
//!
//! The dwell search (`cps_core::engine`) steps small dense closed loops with
//! one `gemv` per sample and tests a Lyapunov certificate with `quad_form`;
//! the dimensions are fixed per application at build time. This module puts
//! exactly those kernels behind a trait family so the engine can
//! monomorphize over the storage strategy:
//!
//! - [`VectorOps`] / [`MatrixOps`] are the kernel surface the engine runs:
//!   `from_dyn` (where a shape is checked), `gemv`, `quad_form`, `dot` and
//!   `assign`, plus the element and row views they are written against.
//! - [`LinalgBackend`] bundles a matching matrix/vector pair so the engine
//!   carries a single type parameter.
//! - [`DynBackend`] runs the kernels on the heap-allocated
//!   [`Matrix`]/[`Vector`]; [`crate::StaticBackend`] is the stack-allocated
//!   const-generic fast path.
//!
//! # Bitwise-equivalence contract
//!
//! Implementations must produce **bitwise-identical** results for the same
//! inputs: every kernel fixes the floating-point accumulation order
//! (ascending index, folding from `0.0`, no FMA contraction). The
//! conformance suite in `tests/backend_conformance.rs` and the bench
//! harnesses assert `f64::to_bits` equality between backends on every run,
//! the same discipline as the engine-vs-oracle checks elsewhere in the
//! workspace.

use crate::{LinalgError, Matrix, Vector};

/// The kernel surface of a dense column vector of `f64`.
///
/// The kernels are infallible: shape mismatches are programming errors and
/// panic, exactly like the inherent [`Vector`] methods. Fallible shape
/// checking is confined to [`VectorOps::from_dyn`], where the dimension
/// first enters the backend.
pub trait VectorOps: Clone + std::fmt::Debug + PartialEq + Send + Sync + Sized + 'static {
    /// Converts a dynamic [`Vector`] into this representation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when `v` is empty or (for
    /// statically-shaped implementations) its length does not match the
    /// compile-time dimension.
    fn from_dyn(v: &Vector) -> Result<Self, LinalgError>;

    /// Borrow the elements as a contiguous slice.
    fn elements(&self) -> &[f64];

    /// Mutably borrow the elements as a contiguous slice.
    fn elements_mut(&mut self) -> &mut [f64];

    /// Dot product with another vector.
    ///
    /// Accumulation order: ascending index, folding from `0.0` — the fold of
    /// every other kernel here. (`Iterator::sum` folds from `-0.0`, so it
    /// would return `-0.0` where every product is `-0.0`.)
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn dot(&self, other: &Self) -> f64 {
        let (a, b) = (self.elements(), other.elements());
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            acc += x * y;
        }
        acc
    }

    /// Copies the elements of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn assign(&mut self, other: &Self) {
        let dst = self.elements_mut();
        let src = other.elements();
        assert_eq!(dst.len(), src.len(), "assign length mismatch");
        dst.copy_from_slice(src);
    }
}

/// The kernel surface of a dense, row-major, square matrix of `f64`.
///
/// [`MatrixOps::from_dyn`] admits square matrices only, so every kernel acts
/// on a `dim × dim` matrix and a `dim`-vector.
pub trait MatrixOps: Clone + std::fmt::Debug + PartialEq + Send + Sync + Sized + 'static {
    /// The matching vector type for `gemv`/`quad_form`.
    type Vector: VectorOps;

    /// Converts a dynamic [`Matrix`] into this representation.
    ///
    /// # Errors
    ///
    /// Returns an error when `m` is not square or (for statically-shaped
    /// implementations) its size does not match the compile-time dimension.
    fn from_dyn(m: &Matrix) -> Result<Self, LinalgError>;

    /// The side length of the square matrix.
    fn dim(&self) -> usize;

    /// Borrow row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    fn row_slice(&self, i: usize) -> &[f64];

    /// Allocation-free matrix-vector product `out = self * x` (BLAS `gemv`).
    ///
    /// This is the single hottest kernel in the workspace: every simulated
    /// sample of a switched closed loop is exactly one `gemv`. Accumulation
    /// order per output element: ascending column index, folding from `0.0`
    /// — identical to [`Matrix::gemv_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` does not have the matrix dimension.
    fn gemv(&self, x: &Self::Vector, out: &mut Self::Vector);

    /// Quadratic form `zᵀ · self · z` without materialising `self * z`.
    ///
    /// The dwell-search engine evaluates Lyapunov certificates with this on
    /// every early-exit probe. Terms with `z[i] == 0.0` are skipped entirely
    /// (both the row accumulation and the outer product term), which every
    /// implementation must replicate so threshold comparisons agree bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `z` does not have the matrix dimension.
    fn quad_form(&self, z: &Self::Vector) -> f64 {
        let zs = z.elements();
        assert_eq!(self.dim(), zs.len(), "quad_form shape mismatch");
        let mut acc = 0.0;
        for (i, &zi) in zs.iter().enumerate() {
            if zi == 0.0 {
                continue;
            }
            let mut row = 0.0;
            for (p, &zj) in self.row_slice(i).iter().zip(zs.iter()) {
                row += p * zj;
            }
            acc += zi * row;
        }
        acc
    }
}

/// A matched matrix/vector pair engines can carry as a single type parameter.
pub trait LinalgBackend:
    Clone + Copy + std::fmt::Debug + Default + PartialEq + Send + Sync + 'static
{
    /// The matrix representation.
    type Matrix: MatrixOps<Vector = Self::Vector>;
    /// The vector representation.
    type Vector: VectorOps;

    /// Short name for reports and bench JSON.
    fn name() -> &'static str;
}

/// The default backend: heap-allocated, runtime-shaped [`Matrix`]/[`Vector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynBackend;

impl LinalgBackend for DynBackend {
    type Matrix = Matrix;
    type Vector = Vector;

    fn name() -> &'static str {
        "dyn"
    }
}

impl VectorOps for Vector {
    fn from_dyn(v: &Vector) -> Result<Self, LinalgError> {
        if v.is_empty() {
            return Err(LinalgError::InvalidShape {
                reason: "vector dimension must be non-zero".to_string(),
            });
        }
        Ok(v.clone())
    }

    fn elements(&self) -> &[f64] {
        self.as_slice()
    }

    fn elements_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }

    // `dot`/`assign` keep the trait defaults.
}

impl MatrixOps for Matrix {
    type Vector = Vector;

    fn from_dyn(m: &Matrix) -> Result<Self, LinalgError> {
        if !m.is_square() {
            return Err(LinalgError::NotSquare { dims: m.dims() });
        }
        Ok(m.clone())
    }

    fn dim(&self) -> usize {
        // A `Matrix` reaches the kernels without `from_dyn` too; refuse to
        // read a rectangular one as its leading square block.
        assert!(self.is_square(), "MatrixOps kernels need a square matrix");
        self.rows()
    }

    fn row_slice(&self, i: usize) -> &[f64] {
        assert!(i < self.rows(), "row index out of bounds");
        &self.as_slice()[i * self.cols()..(i + 1) * self.cols()]
    }

    fn gemv(&self, x: &Vector, out: &mut Vector) {
        // Delegates to the inherent kernel (identical accumulation order);
        // after construction-time validation a shape mismatch is a bug.
        self.gemv_into(x, out).expect("gemv shape mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn from_dyn_rejects_what_the_kernels_cannot_run() {
        assert_eq!(DynBackend::name(), "dyn");
        assert!(<Vector as VectorOps>::from_dyn(&Vector::zeros(0)).is_err());
        assert!(matches!(
            <Matrix as MatrixOps>::from_dyn(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { dims: (2, 3) })
        ));
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(<Matrix as MatrixOps>::from_dyn(&a).unwrap(), a);
        assert_eq!(a.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "square matrix")]
    fn kernels_refuse_a_rectangular_matrix() {
        let wide = Matrix::zeros(2, 3);
        let _ = wide.quad_form(&Vector::zeros(2));
    }

    #[test]
    fn trait_kernels_match_inherent_kernels_bitwise() {
        let a = mat(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, -1.0], &[4.0, 0.5, 2.0]]);
        let x = Vector::from_slice(&[0.1, -0.7, 2.0]);
        let mut via_trait = Vector::zeros(3);
        MatrixOps::gemv(&a, &x, &mut via_trait);
        let via_inherent = a.mul_vector(&x).unwrap();
        for (t, i) in via_trait.as_slice().iter().zip(via_inherent.as_slice()) {
            assert_eq!(t.to_bits(), i.to_bits());
        }
        assert_eq!(
            VectorOps::dot(&x, &via_inherent).to_bits(),
            x.dot(&via_inherent).to_bits()
        );
        let mut dst = Vector::zeros(3);
        VectorOps::assign(&mut dst, &via_trait);
        assert_eq!(dst, via_trait);
    }

    #[test]
    fn quad_form_skips_zero_components() {
        let p = mat(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let z = Vector::from_slice(&[0.0, 2.0]);
        // With z0 == 0.0 the first row is skipped entirely: z1 * (p10*z0 + p11*z1).
        assert_eq!(p.quad_form(&z), 2.0 * (1.0 * 0.0 + 3.0 * 2.0));
        let full = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(p.quad_form(&full), 1.0 * (2.0 + 2.0) + 2.0 * (1.0 + 6.0));
    }
}
