//! The pluggable linear-algebra backend abstraction.
//!
//! The numeric engines of the workspace — dwell search and co-simulation —
//! bottom out in gemv/axpy calls on small dense matrices whose dimensions
//! are fixed per application at build time. This module
//! abstracts the numeric kernel behind a trait family so those engines can
//! monomorphize over the storage strategy:
//!
//! - [`VectorOps`] / [`MatrixOps`] describe the kernel surface: constructors,
//!   shape queries, `gemv`/`axpy`/`copy_from`, add/sub/scale/matmul,
//!   transpose/pow, and conversions to/from the dynamic types for the
//!   cold-path solvers (decomposition, eigenvalues, Lyapunov).
//! - [`LinalgBackend`] bundles a matching matrix/vector pair so engines can
//!   carry a single type parameter.
//! - [`DynBackend`] is the default implementation, backed by the heap-allocated
//!   [`Matrix`]/[`Vector`] pair that has served as the workspace's only
//!   representation until now. [`crate::StaticBackend`] is the stack-allocated
//!   const-generic fast path.
//!
//! # Bitwise-equivalence contract
//!
//! Implementations must produce **bitwise-identical** results for the same
//! inputs: all default method bodies fix the floating-point accumulation order
//! (ascending index, folding from `0.0`, no FMA contraction), and overrides
//! must preserve it. The conformance suite in `tests/backend_conformance.rs`
//! and the bench harnesses assert `f64::to_bits` equality between backends on
//! every run, the same discipline as the engine-vs-oracle checks elsewhere in
//! the workspace.
//!
//! # Adding a new backend (e.g. faer or nalgebra)
//!
//! Implement [`VectorOps`] for the vector type and [`MatrixOps`] for the
//! matrix type (only the shape/storage accessors are required; the kernels
//! have defaults), add a unit struct implementing [`LinalgBackend`], and
//! instantiate the generic conformance suite against it. Engines pick it up
//! through their backend type parameter without further changes.

use crate::{LinalgError, Matrix, Vector};

/// The kernel surface of a dense column vector of `f64`.
///
/// Hot-path kernels (`dot`, `axpy`, `assign`, `scale_in_place`) are
/// infallible: shape mismatches are programming errors and panic, exactly like
/// the inherent [`Vector`] methods they generalise. Fallible shape checking is
/// confined to the constructors, where the dimension first enters the system.
pub trait VectorOps: Clone + std::fmt::Debug + PartialEq + Send + Sync + Sized + 'static {
    /// Creates a zero vector of dimension `len`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when `len` is zero or (for
    /// statically-shaped implementations) does not match the compile-time
    /// dimension.
    fn zeros_len(len: usize) -> Result<Self, LinalgError>;

    /// Converts a dynamic [`Vector`] into this representation.
    ///
    /// # Errors
    ///
    /// As for [`VectorOps::zeros_len`] when the length is unrepresentable.
    fn from_dyn(v: &Vector) -> Result<Self, LinalgError>;

    /// Converts into the dynamic [`Vector`] representation (cold path).
    fn to_dyn(&self) -> Vector {
        Vector::from_slice(self.elements())
    }

    /// Borrow the elements as a contiguous slice.
    fn elements(&self) -> &[f64];

    /// Mutably borrow the elements as a contiguous slice.
    fn elements_mut(&mut self) -> &mut [f64];

    /// Number of elements.
    fn dim(&self) -> usize {
        self.elements().len()
    }

    /// Dot product with another vector.
    ///
    /// Accumulation order: ascending index, folding from `0.0` — identical to
    /// [`Vector::dot`].
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn dot(&self, other: &Self) -> f64 {
        let (a, b) = (self.elements(), other.elements());
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    /// Copies the elements of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn assign(&mut self, other: &Self) {
        let dst = self.elements_mut();
        let src = other.elements();
        assert_eq!(dst.len(), src.len(), "copy_from length mismatch");
        dst.copy_from_slice(src);
    }

    /// In-place scaled accumulation `self += alpha · x` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn axpy(&mut self, alpha: f64, x: &Self) {
        let dst = self.elements_mut();
        let src = x.elements();
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        for (a, b) in dst.iter_mut().zip(src.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `factor` in place.
    fn scale_in_place(&mut self, factor: f64) {
        for x in self.elements_mut() {
            *x *= factor;
        }
    }

    /// Infinity norm (largest absolute element), `0.0` for the empty vector.
    fn norm_inf(&self) -> f64 {
        self.elements()
            .iter()
            .fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }
}

/// The kernel surface of a dense, row-major matrix of `f64`.
///
/// Only the shape/storage accessors and the dynamic conversions are required;
/// every kernel has a default body written against them with a pinned
/// floating-point accumulation order. Implementations may override kernels for
/// speed but must preserve the result bit-for-bit (see the module docs).
pub trait MatrixOps: Clone + std::fmt::Debug + PartialEq + Send + Sync + Sized + 'static {
    /// The matching vector type for `gemv`/`quad_form`.
    type Vector: VectorOps;

    /// Creates a zero matrix with the given dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when either dimension is zero or
    /// (for statically-shaped implementations) does not match the compile-time
    /// shape.
    fn zeros_shape(rows: usize, cols: usize) -> Result<Self, LinalgError>;

    /// Converts a dynamic [`Matrix`] into this representation.
    ///
    /// # Errors
    ///
    /// As for [`MatrixOps::zeros_shape`] when the shape is unrepresentable.
    fn from_dyn(m: &Matrix) -> Result<Self, LinalgError>;

    /// Converts into the dynamic [`Matrix`] representation (cold path).
    fn to_dyn(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.nrows() * self.ncols());
        for i in 0..self.nrows() {
            data.extend_from_slice(self.row_slice(i));
        }
        Matrix::from_vec(self.nrows(), self.ncols(), data)
            .expect("MatrixOps shape is always a valid Matrix shape")
    }

    /// Creates the `n`-by-`n` identity matrix.
    ///
    /// # Errors
    ///
    /// As for [`MatrixOps::zeros_shape`].
    fn identity_of(n: usize) -> Result<Self, LinalgError> {
        let mut m = Self::zeros_shape(n, n)?;
        for i in 0..n {
            m.set_at(i, i, 1.0);
        }
        Ok(m)
    }

    /// Number of rows.
    fn nrows(&self) -> usize;

    /// Number of columns.
    fn ncols(&self) -> usize;

    /// Returns `true` when the matrix is square.
    fn is_square_shape(&self) -> bool {
        self.nrows() == self.ncols()
    }

    /// Borrow row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    fn row_slice(&self, i: usize) -> &[f64];

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    fn at(&self, row: usize, col: usize) -> f64 {
        self.row_slice(row)[col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    fn set_at(&mut self, row: usize, col: usize, value: f64);

    /// Allocation-free matrix-vector product `out = self * x` (BLAS `gemv`).
    ///
    /// This is the single hottest kernel in the workspace: every simulated
    /// sample of a switched closed loop is exactly one `gemv`. Accumulation
    /// order per output element: ascending column index, folding from `0.0` —
    /// identical to [`Matrix::gemv_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.dim() != self.ncols()` or `out.dim() != self.nrows()`.
    fn gemv(&self, x: &Self::Vector, out: &mut Self::Vector) {
        let xs = x.elements();
        assert_eq!(xs.len(), self.ncols(), "gemv input length mismatch");
        let os = out.elements_mut();
        assert_eq!(os.len(), self.nrows(), "gemv output length mismatch");
        for (i, o) in os.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (a, b) in self.row_slice(i).iter().zip(xs.iter()) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// Quadratic form `zᵀ · self · z` without materialising `self * z`.
    ///
    /// The dwell-search engine evaluates Lyapunov certificates with this on
    /// every early-exit probe. Terms with `z[i] == 0.0` are skipped entirely
    /// (both the row accumulation and the outer product term), which every
    /// implementation must replicate so threshold comparisons agree bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square of dimension `z.dim()`.
    fn quad_form(&self, z: &Self::Vector) -> f64 {
        let zs = z.elements();
        assert!(
            self.is_square_shape() && self.nrows() == zs.len(),
            "quad_form shape mismatch"
        );
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

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add_mat(&self, other: &Self) -> Self {
        self.zip_elementwise(other, "matrix add shape mismatch", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub_mat(&self, other: &Self) -> Self {
        self.zip_elementwise(other, "matrix sub shape mismatch", |a, b| a - b)
    }

    #[doc(hidden)]
    fn zip_elementwise(&self, other: &Self, msg: &str, f: impl Fn(f64, f64) -> f64) -> Self {
        assert!(
            self.nrows() == other.nrows() && self.ncols() == other.ncols(),
            "{msg}"
        );
        let mut out = self.clone();
        for i in 0..self.nrows() {
            for j in 0..self.ncols() {
                out.set_at(i, j, f(self.at(i, j), other.at(i, j)));
            }
        }
        out
    }

    /// Returns a copy with every element multiplied by `factor`.
    fn scale_mat(&self, factor: f64) -> Self {
        let mut out = self.clone();
        for i in 0..self.nrows() {
            for j in 0..self.ncols() {
                out.set_at(i, j, self.at(i, j) * factor);
            }
        }
        out
    }

    /// Matrix multiplication `self * other` for same-typed square operands.
    ///
    /// Accumulation order: the i-k-j loop nest of [`Matrix::mul`], including
    /// its skip of `a[i][k] == 0.0` pivots, so repeated products (and thus
    /// [`MatrixOps::powi`]) agree bitwise across backends.
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != other.nrows()`.
    fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.ncols(), other.nrows(), "matmul inner dim mismatch");
        let mut out = Self::zeros_shape(self.nrows(), other.ncols())
            .expect("operand shapes are representable");
        for i in 0..self.nrows() {
            for k in 0..self.ncols() {
                let aik = self.at(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.ncols() {
                    out.set_at(i, j, out.at(i, j) + aik * other.at(k, j));
                }
            }
        }
        out
    }

    /// Transpose of a square matrix.
    ///
    /// Restricted to square shapes because `Self` fixes both dimensions for
    /// statically-shaped implementations; rectangular transpose stays on the
    /// concrete types.
    ///
    /// # Panics
    ///
    /// Panics for rectangular matrices.
    fn transposed(&self) -> Self {
        assert!(
            self.is_square_shape(),
            "transposed requires a square matrix"
        );
        let mut out = self.clone();
        for i in 0..self.nrows() {
            for j in 0..self.ncols() {
                out.set_at(j, i, self.at(i, j));
            }
        }
        out
    }

    /// Raises a square matrix to a non-negative integer power by repeated
    /// squaring (same multiplication sequence as [`Matrix::pow`]).
    ///
    /// # Panics
    ///
    /// Panics for rectangular matrices.
    fn powi(&self, mut exponent: u32) -> Self {
        assert!(self.is_square_shape(), "powi requires a square matrix");
        let mut result = Self::identity_of(self.nrows()).expect("operand shape is representable");
        let mut base = self.clone();
        while exponent > 0 {
            if exponent & 1 == 1 {
                result = result.matmul(&base);
            }
            exponent >>= 1;
            if exponent > 0 {
                base = base.matmul(&base);
            }
        }
        result
    }

    /// Frobenius norm (square root of the sum of squared entries, accumulated
    /// in row-major order like [`Matrix::frobenius_norm`]).
    fn frobenius(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.nrows() {
            for x in self.row_slice(i) {
                acc += x * x;
            }
        }
        acc.sqrt()
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

    /// `Some(n)` when the backend is specialised to dimension `n` at compile
    /// time, `None` for dynamically-shaped backends.
    const STATIC_DIM: Option<usize>;

    /// Short name for reports and bench JSON.
    fn name() -> &'static str;
}

/// The default backend: heap-allocated, runtime-shaped [`Matrix`]/[`Vector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynBackend;

impl LinalgBackend for DynBackend {
    type Matrix = Matrix;
    type Vector = Vector;

    const STATIC_DIM: Option<usize> = None;

    fn name() -> &'static str {
        "dyn"
    }
}

impl VectorOps for Vector {
    fn zeros_len(len: usize) -> Result<Self, LinalgError> {
        if len == 0 {
            return Err(LinalgError::InvalidShape {
                reason: "vector dimension must be non-zero".to_string(),
            });
        }
        Ok(Vector::zeros(len))
    }

    fn from_dyn(v: &Vector) -> Result<Self, LinalgError> {
        if v.is_empty() {
            return Err(LinalgError::InvalidShape {
                reason: "vector dimension must be non-zero".to_string(),
            });
        }
        Ok(v.clone())
    }

    fn to_dyn(&self) -> Vector {
        self.clone()
    }

    fn elements(&self) -> &[f64] {
        self.as_slice()
    }

    fn elements_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }

    // `dot`/`assign`/`axpy`/`norm_inf` keep the trait defaults, which are
    // written to match the inherent methods operation-for-operation.
}

impl MatrixOps for Matrix {
    type Vector = Vector;

    fn zeros_shape(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidShape {
                reason: "matrix dimensions must be non-zero".to_string(),
            });
        }
        Ok(Matrix::zeros(rows, cols))
    }

    fn from_dyn(m: &Matrix) -> Result<Self, LinalgError> {
        Ok(m.clone())
    }

    fn to_dyn(&self) -> Matrix {
        self.clone()
    }

    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn row_slice(&self, i: usize) -> &[f64] {
        assert!(i < self.rows(), "row index out of bounds");
        &self.as_slice()[i * self.cols()..(i + 1) * self.cols()]
    }

    fn set_at(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] = value;
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
    fn dyn_backend_reports_its_shape_contract() {
        assert_eq!(DynBackend::name(), "dyn");
        assert_eq!(<DynBackend as LinalgBackend>::STATIC_DIM, None);
    }

    #[test]
    fn constructors_reject_zero_dimensions() {
        assert!(<Vector as VectorOps>::zeros_len(0).is_err());
        assert!(<Matrix as MatrixOps>::zeros_shape(0, 2).is_err());
        assert!(<Matrix as MatrixOps>::zeros_shape(2, 0).is_err());
        assert!(<Vector as VectorOps>::from_dyn(&Vector::zeros(0)).is_err());
    }

    #[test]
    fn trait_kernels_match_inherent_kernels_bitwise() {
        let a = mat(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, -1.0], &[4.0, 0.5, 2.0]]);
        let x = Vector::from_slice(&[0.1, -0.7, 2.0]);
        let mut via_trait = Vector::zeros(3);
        MatrixOps::gemv(&a, &x, &mut via_trait);
        let via_inherent = a.mul_vector(&x).unwrap();
        for (t, i) in via_trait.iter().zip(via_inherent.iter()) {
            assert_eq!(t.to_bits(), i.to_bits());
        }
        assert_eq!(
            VectorOps::dot(&x, &via_inherent).to_bits(),
            x.dot(&via_inherent).to_bits()
        );
        assert_eq!(a.matmul(&a), a.mul(&a).unwrap());
        assert_eq!(a.powi(5), a.pow(5).unwrap());
        assert_eq!(a.transposed(), a.transpose());
        assert_eq!(a.add_mat(&a), a.add(&a).unwrap());
        assert_eq!(a.sub_mat(&a), a.sub(&a).unwrap());
        assert_eq!(a.scale_mat(-1.5), a.scale(-1.5));
        assert_eq!(a.frobenius().to_bits(), a.frobenius_norm().to_bits());
    }

    #[test]
    fn axpy_and_assign_defaults_match_inherent() {
        let base = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let inc = Vector::from_slice(&[0.5, -1.0, 2.0]);
        let mut via_trait = base.clone();
        VectorOps::axpy(&mut via_trait, 2.0, &inc);
        let mut via_inherent = base.clone();
        via_inherent.axpy(2.0, &inc);
        assert_eq!(via_trait, via_inherent);
        let mut dst = Vector::zeros(3);
        VectorOps::assign(&mut dst, &via_trait);
        assert_eq!(dst, via_trait);
        assert_eq!(VectorOps::norm_inf(&dst), dst.norm_inf());
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

    #[test]
    fn identity_and_round_trips() {
        let i = <Matrix as MatrixOps>::identity_of(3).unwrap();
        assert_eq!(i, Matrix::identity(3));
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(MatrixOps::to_dyn(&a), a);
        assert_eq!(<Matrix as MatrixOps>::from_dyn(&a).unwrap(), a);
        let v = Vector::from_slice(&[1.0, -2.0]);
        assert_eq!(VectorOps::to_dyn(&v), v);
        let mut scaled = v.clone();
        VectorOps::scale_in_place(&mut scaled, 2.0);
        assert_eq!(scaled, v.scale(2.0));
    }
}
