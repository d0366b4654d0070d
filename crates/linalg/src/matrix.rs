use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{LinalgError, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse type of the workspace: plant models, feedback
/// gains, closed-loop dynamics and Lyapunov certificates are all expressed as
/// small dense matrices. All binary operations validate dimensions and return
/// a [`LinalgError`] when they do not match.
///
/// # Example
///
/// ```
/// use cps_linalg::Matrix;
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]])?;
/// let c = a.mul(&b)?;
/// assert_eq!(c, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero; use [`Matrix::from_rows`] for
    /// fallible construction from data.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from the supplied diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is empty.
    pub fn diagonal(diag: &[f64]) -> Self {
        assert!(!diag.is_empty(), "diagonal must be non-empty");
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when the slice is empty, a row is
    /// empty, or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidShape {
                reason: "no rows supplied".to_string(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::InvalidShape {
                reason: "rows must not be empty".to_string(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::InvalidShape {
                    reason: format!("row {i} has {} columns, expected {cols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(LinalgError::InvalidShape {
                reason: format!("cannot reshape {} elements into {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a single-column matrix from a [`Vector`].
    pub fn column_from_vector(v: &Vector) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.as_slice().to_vec(),
        }
    }

    /// Builds a single-row matrix from a [`Vector`].
    pub fn row_from_vector(v: &Vector) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.as_slice().to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Dimensions as `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the `j`-th column as a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index out of bounds");
        Vector::from_iter((0..self.rows).map(|i| self[(i, j)]))
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the operands differ in
    /// shape.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the operands differ in
    /// shape.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        operation: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.dims() != other.dims() {
            return Err(LinalgError::DimensionMismatch {
                operation,
                left: self.dims(),
                right: other.dims(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Matrix multiplication `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "mul",
                left: self.dims(),
                right: other.dims(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x` treating `x` as a column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `self.cols() != x.len()`.
    pub fn mul_vector(&self, x: &Vector) -> Result<Vector, LinalgError> {
        let mut out = Vector::zeros(self.rows);
        self.gemv_into(x, &mut out)?;
        Ok(out)
    }

    /// Allocation-free matrix-vector product `out = self * x` (BLAS `gemv`).
    ///
    /// This is the workhorse of the dwell-time search engine: every simulated
    /// sample of a switched closed loop is exactly one `gemv_into` on a
    /// pre-allocated buffer. The accumulation order (ascending columns,
    /// starting from `0.0`) is identical to [`Matrix::mul_vector`], so the two
    /// produce bitwise-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `self.cols() != x.len()`
    /// or `self.rows() != out.len()`.
    pub fn gemv_into(&self, x: &Vector, out: &mut Vector) -> Result<(), LinalgError> {
        if self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "gemv_into",
                left: self.dims(),
                right: (x.len(), 1),
            });
        }
        if self.rows != out.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "gemv_into",
                left: self.dims(),
                right: (out.len(), 1),
            });
        }
        let xs = x.as_slice();
        for (row, o) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.as_mut_slice().iter_mut())
        {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(xs.iter()) {
                acc += a * b;
            }
            *o = acc;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * factor).collect(),
        }
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "hstack",
                left: self.dims(),
                right: other.dims(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = self[(i, j)];
            }
            for j in 0..other.cols {
                out[(i, self.cols + j)] = other[(i, j)];
            }
        }
        Ok(out)
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the column counts
    /// differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "vstack",
                left: self.dims(),
                right: other.dims(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn trace(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { dims: self.dims() });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when every corresponding pair of entries differs by less
    /// than `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.dims() == other.dims()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() < tol)
    }

    /// Kronecker product `self ⊗ other`.
    ///
    /// Used by the discrete Lyapunov solver to vectorize `AᵀPA − P = −Q`.
    pub fn kronecker(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let aij = self[(i, j)];
                if aij == 0.0 {
                    continue;
                }
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = aij * other[(k, l)];
                    }
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn add(self, rhs: &Matrix) -> Self::Output {
        Matrix::add(self, rhs)
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn sub(self, rhs: &Matrix) -> Self::Output {
        Matrix::sub(self, rhs)
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn mul(self, rhs: &Matrix) -> Self::Output {
        Matrix::mul(self, rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.dims(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        assert_eq!(i.trace().unwrap(), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidShape { .. }));
    }

    #[test]
    fn from_rows_rejects_empty_input() {
        assert!(Matrix::from_rows(&[]).is_err());
        let empty_row: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty_row]).is_err());
    }

    #[test]
    fn from_vec_checks_element_count() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum[(0, 0)], 2.0);
        let back = sum.sub(&b).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn add_rejects_mismatched_dims() {
        let a = sample();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.add(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn mul_identity_is_noop() {
        let a = sample();
        assert!(a.mul(&Matrix::identity(2)).unwrap().approx_eq(&a, 1e-12));
        assert!(Matrix::identity(2).mul(&a).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn mul_vector_matches_hand_computation() {
        let a = sample();
        let x = Vector::from_slice(&[1.0, -1.0]);
        let y = a.mul_vector(&x).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn gemv_into_matches_mul_vector() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, -1.0]]).unwrap();
        let x = Vector::from_slice(&[0.1, -0.7, 2.0]);
        let mut out = Vector::zeros(2);
        a.gemv_into(&x, &mut out).unwrap();
        assert_eq!(out, a.mul_vector(&x).unwrap());
        // Dimension validation on both operands.
        assert!(a.gemv_into(&Vector::zeros(2), &mut out).is_err());
        let mut bad_out = Vector::zeros(3);
        assert!(a.gemv_into(&x, &mut bad_out).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().dims(), (3, 2));
        assert!(a.transpose().transpose().approx_eq(&a, 1e-12));
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = sample();
        let b = Matrix::identity(2);
        assert_eq!(a.hstack(&b).unwrap().dims(), (2, 4));
        assert_eq!(a.vstack(&b).unwrap().dims(), (4, 2));
        let wide = Matrix::zeros(3, 2);
        assert!(a.hstack(&wide).is_err());
    }

    #[test]
    fn column_view() {
        let a = sample();
        assert_eq!(a.column(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn symmetry_detection() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn kronecker_product_small_case() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 3.0], &[1.0, 0.0]]).unwrap();
        let k = a.kronecker(&b);
        let expected = Matrix::from_rows(&[&[0.0, 3.0, 0.0, 6.0], &[1.0, 0.0, 2.0, 0.0]]).unwrap();
        assert!(k.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn trace_of_square_matrices() {
        let a = sample();
        assert_eq!(a.trace().unwrap(), 5.0);
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn index_writes_through() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 5.0;
        assert_eq!(a.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn operator_overloads() {
        let a = sample();
        let b = Matrix::identity(2);
        assert!((&a + &b).is_ok());
        assert!((&a - &b).is_ok());
        assert!((&a * &b).is_ok());
        let n = -&a;
        assert_eq!(n[(0, 0)], -1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = sample();
        let _ = a[(5, 0)];
    }

    #[test]
    fn display_renders_all_rows() {
        let text = sample().to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("1.0"));
    }
}
