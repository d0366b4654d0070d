//! Stack-allocated, const-generic matrices and vectors: the fast path behind
//! [`LinalgBackend`].
//!
//! Case-study plants have 2–3 states, so their augmented closed loops are
//! 3–4-dimensional: small enough that a `[[f64; C]; R]` on the stack beats the
//! heap-backed [`Matrix`] by removing allocation, pointer chasing and runtime
//! bounds dispatch, and letting LLVM fully unroll every kernel loop. Shapes
//! are part of the type, so mismatches are compile errors on the inherent API
//! and unreachable on the trait kernels — which is why those are infallible.
//!
//! The trait impls ([`MatrixOps`] / [`VectorOps`]) exist only for square
//! matrices `StaticMatrix<N, N>`: the backend abstraction pairs one matrix
//! type with one vector type, which pins both gemv operands to the same
//! dimension. Rectangular shapes keep their compile-time checking through the
//! inherent methods ([`StaticMatrix::mul_static`], [`StaticMatrix::gemv_static`],
//! [`StaticMatrix::transpose_static`]).
//!
//! All kernels replicate the dynamic backend's floating-point accumulation
//! order exactly (see the contract in [`crate::backend`]); the conformance
//! suite pins `to_bits` equality against [`Matrix`]/[`Vector`].

use crate::backend::{LinalgBackend, MatrixOps, VectorOps};
use crate::{LinalgError, Matrix, Vector};

/// A stack-allocated column vector with compile-time dimension `N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticVector<const N: usize> {
    data: [f64; N],
}

impl<const N: usize> StaticVector<N> {
    /// The zero vector.
    pub const fn zeros() -> Self {
        StaticVector { data: [0.0; N] }
    }

    /// Creates a vector from an array.
    pub const fn from_array(data: [f64; N]) -> Self {
        StaticVector { data }
    }

    /// Borrow the underlying array.
    pub const fn as_array(&self) -> &[f64; N] {
        &self.data
    }

    /// Dimension (compile-time constant).
    pub const fn len(&self) -> usize {
        N
    }

    /// Returns `true` when `N == 0`.
    pub const fn is_empty(&self) -> bool {
        N == 0
    }
}

impl<const N: usize> Default for StaticVector<N> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const N: usize> VectorOps for StaticVector<N> {
    fn zeros_len(len: usize) -> Result<Self, LinalgError> {
        if len != N || N == 0 {
            return Err(LinalgError::InvalidShape {
                reason: format!("StaticVector<{N}> cannot hold {len} elements"),
            });
        }
        Ok(Self::zeros())
    }

    fn from_dyn(v: &Vector) -> Result<Self, LinalgError> {
        let mut out = Self::zeros_len(v.len())?;
        out.data.copy_from_slice(v.as_slice());
        Ok(out)
    }

    fn elements(&self) -> &[f64] {
        &self.data
    }

    fn elements_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn dim(&self) -> usize {
        N
    }

    fn dot(&self, other: &Self) -> f64 {
        // Same fold as the dynamic kernel, with the trip count a constant.
        let mut acc = 0.0;
        for i in 0..N {
            acc += self.data[i] * other.data[i];
        }
        acc
    }

    fn assign(&mut self, other: &Self) {
        self.data = other.data;
    }

    fn axpy(&mut self, alpha: f64, x: &Self) {
        for i in 0..N {
            self.data[i] += alpha * x.data[i];
        }
    }
}

/// A stack-allocated, row-major matrix with compile-time shape `R`×`C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticMatrix<const R: usize, const C: usize> {
    data: [[f64; C]; R],
}

impl<const R: usize, const C: usize> StaticMatrix<R, C> {
    /// The zero matrix.
    pub const fn zeros() -> Self {
        StaticMatrix {
            data: [[0.0; C]; R],
        }
    }

    /// Creates a matrix from an array of rows.
    pub const fn from_rows_array(data: [[f64; C]; R]) -> Self {
        StaticMatrix { data }
    }

    /// Number of rows (compile-time constant).
    pub const fn rows(&self) -> usize {
        R
    }

    /// Number of columns (compile-time constant).
    pub const fn cols(&self) -> usize {
        C
    }

    /// Borrow row `i` as a fixed-size array.
    pub const fn row_array(&self, i: usize) -> &[f64; C] {
        &self.data[i]
    }

    /// Matrix-vector product with compile-time shape checking: a
    /// `StaticMatrix<R, C>` only accepts a `StaticVector<C>` and only
    /// produces a `StaticVector<R>` — a mismatch is a type error, not a
    /// runtime [`LinalgError`].
    pub fn gemv_static(&self, x: &StaticVector<C>) -> StaticVector<R> {
        let mut out = StaticVector::zeros();
        for i in 0..R {
            let mut acc = 0.0;
            for j in 0..C {
                acc += self.data[i][j] * x.data[j];
            }
            out.data[i] = acc;
        }
        out
    }

    /// Matrix product with compile-time inner-dimension checking.
    pub fn mul_static<const K: usize>(&self, other: &StaticMatrix<C, K>) -> StaticMatrix<R, K> {
        let mut out = StaticMatrix::zeros();
        for i in 0..R {
            for k in 0..C {
                let aik = self.data[i][k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..K {
                    out.data[i][j] += aik * other.data[k][j];
                }
            }
        }
        out
    }

    /// Transpose with the flipped shape in the type.
    pub fn transpose_static(&self) -> StaticMatrix<C, R> {
        let mut out = StaticMatrix::zeros();
        for i in 0..R {
            for j in 0..C {
                out.data[j][i] = self.data[i][j];
            }
        }
        out
    }
}

impl<const R: usize, const C: usize> Default for StaticMatrix<R, C> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const N: usize> MatrixOps for StaticMatrix<N, N> {
    type Vector = StaticVector<N>;

    fn zeros_shape(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        if rows != N || cols != N || N == 0 {
            return Err(LinalgError::InvalidShape {
                reason: format!("StaticMatrix<{N}, {N}> cannot hold a {rows}x{cols} matrix"),
            });
        }
        Ok(Self::zeros())
    }

    fn from_dyn(m: &Matrix) -> Result<Self, LinalgError> {
        let mut out = Self::zeros_shape(m.rows(), m.cols())?;
        for (i, row) in out.data.iter_mut().enumerate() {
            row.copy_from_slice(MatrixOps::row_slice(m, i));
        }
        Ok(out)
    }

    fn nrows(&self) -> usize {
        N
    }

    fn ncols(&self) -> usize {
        N
    }

    fn row_slice(&self, i: usize) -> &[f64] {
        &self.data[i]
    }

    fn set_at(&mut self, row: usize, col: usize, value: f64) {
        self.data[row][col] = value;
    }

    fn gemv(&self, x: &StaticVector<N>, out: &mut StaticVector<N>) {
        // Fixed trip counts; same per-element fold as `Matrix::gemv_into`.
        for i in 0..N {
            let mut acc = 0.0;
            for j in 0..N {
                acc += self.data[i][j] * x.data[j];
            }
            out.data[i] = acc;
        }
    }

    fn quad_form(&self, z: &StaticVector<N>) -> f64 {
        // Identical to the default body — including the `z[i] == 0.0` skip —
        // but with constant bounds so the certificate probe fully unrolls.
        let mut acc = 0.0;
        for i in 0..N {
            let zi = z.data[i];
            if zi == 0.0 {
                continue;
            }
            let mut row = 0.0;
            for j in 0..N {
                row += self.data[i][j] * z.data[j];
            }
            acc += zi * row;
        }
        acc
    }
}

/// The stack-allocated backend specialised to dimension `N`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticBackend<const N: usize>;

impl<const N: usize> LinalgBackend for StaticBackend<N> {
    type Matrix = StaticMatrix<N, N>;
    type Vector = StaticVector<N>;

    const STATIC_DIM: Option<usize> = Some(N);

    fn name() -> &'static str {
        match N {
            2 => "static<2>",
            3 => "static<3>",
            4 => "static<4>",
            5 => "static<5>",
            _ => "static",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_enforce_the_compile_time_shape() {
        assert!(<StaticVector<3> as VectorOps>::zeros_len(3).is_ok());
        assert!(<StaticVector<3> as VectorOps>::zeros_len(2).is_err());
        assert!(<StaticMatrix<3, 3> as MatrixOps>::zeros_shape(3, 3).is_ok());
        assert!(<StaticMatrix<3, 3> as MatrixOps>::zeros_shape(3, 2).is_err());
        let dyn_m = Matrix::identity(2);
        assert!(<StaticMatrix<3, 3> as MatrixOps>::from_dyn(&dyn_m).is_err());
        assert_eq!(
            <StaticMatrix<2, 2> as MatrixOps>::from_dyn(&dyn_m)
                .unwrap()
                .to_dyn(),
            dyn_m
        );
    }

    #[test]
    fn rectangular_inherent_api_has_compile_time_shapes() {
        let a: StaticMatrix<2, 3> =
            StaticMatrix::from_rows_array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let x = StaticVector::from_array([1.0, 0.0, -1.0]);
        let y = a.gemv_static(&x);
        assert_eq!(y.as_array(), &[-2.0, -2.0]);
        let t: StaticMatrix<3, 2> = a.transpose_static();
        assert_eq!(t.row_array(0), &[1.0, 4.0]);
        let square: StaticMatrix<2, 2> = a.mul_static(&t);
        assert_eq!(square.row_array(0), &[14.0, 32.0]);
        assert_eq!((a.rows(), a.cols()), (2, 3));
        assert!(!x.is_empty());
        assert_eq!(x.len(), 3);
    }

    #[test]
    fn square_kernels_match_the_dynamic_backend_bitwise() {
        let rows = [[0.73, -1.2, 0.05], [2.5, 0.0, -0.625], [-0.31, 1.07, 0.9]];
        let zs = [0.11, -2.3, 0.0];
        let s = StaticMatrix::from_rows_array(rows);
        let sv = StaticVector::from_array(zs);
        let d = s.to_dyn();
        let dv = VectorOps::to_dyn(&sv);

        let mut s_out = StaticVector::zeros();
        s.gemv(&sv, &mut s_out);
        let d_out = d.mul_vector(&dv).unwrap();
        for (a, b) in s_out.elements().iter().zip(d_out.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        assert_eq!(s.quad_form(&sv).to_bits(), d.quad_form(&dv).to_bits());
        assert_eq!(
            VectorOps::dot(&sv, &s_out).to_bits(),
            dv.dot(&d_out).to_bits()
        );
        assert_eq!(s.powi(7).to_dyn(), d.pow(7).unwrap());
        assert_eq!(s.matmul(&s).to_dyn(), d.mul(&d).unwrap());
        assert_eq!(s.frobenius().to_bits(), d.frobenius_norm().to_bits());
    }

    #[test]
    fn axpy_and_assign_match_dynamic() {
        let mut s = StaticVector::from_array([1.0, 2.0]);
        let inc = StaticVector::from_array([0.25, -0.75]);
        let mut d = VectorOps::to_dyn(&s);
        s.axpy(3.0, &inc);
        d.axpy(3.0, &VectorOps::to_dyn(&inc));
        assert_eq!(VectorOps::to_dyn(&s), d);
        let mut dst = StaticVector::zeros();
        dst.assign(&s);
        assert_eq!(dst, s);
    }

    #[test]
    fn backend_names_cover_the_dispatch_menu() {
        assert_eq!(StaticBackend::<2>::name(), "static<2>");
        assert_eq!(StaticBackend::<5>::name(), "static<5>");
        assert_eq!(StaticBackend::<9>::name(), "static");
        assert_eq!(StaticBackend::<3>::STATIC_DIM, Some(3));
    }
}
