//! LU decomposition with partial pivoting, linear solves, inverses and
//! determinants.
//!
//! The decomposition is the basis of all "solve"-type operations in the
//! workspace: inverting closed-loop transformation matrices, solving the
//! Kronecker-vectorized Lyapunov system, and computing Ackermann gains.

use crate::{LinalgError, Matrix, Vector};

/// Threshold below which a pivot is treated as zero (matrix declared
/// singular).
const PIVOT_TOLERANCE: f64 = 1e-12;

/// An LU decomposition `P·A = L·U` of a square matrix with partial pivoting.
///
/// The factors are stored compactly: `lu` holds `U` in its upper triangle and
/// the sub-diagonal multipliers of `L` below it, `perm` records the row
/// permutation and `sign` the permutation parity (used by the determinant).
///
/// # Example
///
/// ```
/// use cps_linalg::{LuDecomposition, Matrix, Vector};
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve_vector(&Vector::from_slice(&[10.0, 12.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl LuDecomposition {
    /// Computes the pivoted LU decomposition of `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::Singular`] if a pivot smaller than the internal
    ///   tolerance is encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.dims() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for k in 0..n {
            // Partial pivoting: find the row with the largest magnitude in
            // column k at or below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_TOLERANCE {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / lu[(k, k)];
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    lu[(i, j)] -= factor * lu[(k, j)];
                }
            }
        }

        Ok(LuDecomposition { lu, perm, sign })
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` does not
    /// match the decomposition dimension.
    pub fn solve_vector(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "solve_vector",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x = vec![0.0; n];
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        for i in 0..n {
            for j in 0..i {
                x[i] -= self.lu[(i, j)] * x[j];
            }
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                x[i] -= self.lu[(i, j)] * x[j];
            }
            x[i] /= self.lu[(i, i)];
        }
        Ok(Vector::from_vec(x))
    }

    /// Solves `A·X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `B` has the wrong
    /// number of rows.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "solve_matrix",
                left: (n, n),
                right: b.dims(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve_vector(&b.column(j))?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates any solve error (which cannot occur for a successfully
    /// constructed decomposition of a well-conditioned matrix).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// Solves the linear system `A·x = b`.
///
/// Convenience wrapper around [`LuDecomposition`].
///
/// # Errors
///
/// Returns an error when `a` is rectangular, singular, or `b` has the wrong
/// length.
///
/// # Example
///
/// ```
/// use cps_linalg::{decomp, Matrix, Vector};
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// let x = decomp::solve(&a, &Vector::from_slice(&[2.0, 8.0]))?;
/// assert_eq!(x.as_slice(), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    LuDecomposition::new(a)?.solve_vector(b)
}

/// Computes the inverse of a square matrix.
///
/// # Errors
///
/// Returns an error when `a` is rectangular or singular.
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    LuDecomposition::new(a)?.inverse()
}

/// Computes the determinant of a square matrix.
///
/// Singular matrices return `0.0` rather than an error, because a zero
/// determinant is a meaningful answer for them.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `a` is rectangular.
pub fn determinant(a: &Matrix) -> Result<f64, LinalgError> {
    match LuDecomposition::new(a) {
        Ok(lu) => Ok(lu.determinant()),
        Err(LinalgError::Singular) => Ok(0.0),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a =
            Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.0]);
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&Vector::from_slice(&[1.0, -2.0, -2.0]), 1e-9));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &Vector::from_slice(&[2.0, 3.0])).unwrap();
        assert!(x.approx_eq(&Vector::from_slice(&[3.0, 2.0]), 1e-12));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let product = a.mul(&inv).unwrap();
        assert!(product.approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn determinant_of_known_matrices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((determinant(&a).unwrap() + 2.0).abs() < 1e-12);
        assert!((determinant(&Matrix::identity(3)).unwrap() - 1.0).abs() < 1e-12);
        // Singular matrix has determinant 0.
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(determinant(&s).unwrap(), 0.0);
    }

    #[test]
    fn determinant_sign_tracks_permutations() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((determinant(&a).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected_by_solver() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            solve(&s, &Vector::from_slice(&[1.0, 1.0])),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn rectangular_matrix_is_rejected() {
        let r = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&r),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_matrix_right_hand_side() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0], &[4.0, 10.0]]).unwrap();
        let x = LuDecomposition::new(&a).unwrap().solve_matrix(&b).unwrap();
        let reconstructed = a.mul(&x).unwrap();
        assert!(reconstructed.approx_eq(&b, 1e-9));
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = Matrix::identity(2);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu
            .solve_vector(&Vector::from_slice(&[1.0, 2.0, 3.0]))
            .is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn well_conditioned_matrix() -> impl Strategy<Value = Matrix> {
            // Diagonally dominant random 3x3 matrices are always invertible.
            proptest::collection::vec(-5.0..5.0f64, 9).prop_map(|v| {
                let mut m = Matrix::from_vec(3, 3, v).unwrap();
                for i in 0..3 {
                    let row_sum: f64 = (0..3).map(|j| m[(i, j)].abs()).sum();
                    m[(i, i)] += row_sum + 1.0;
                }
                m
            })
        }

        proptest! {
            #[test]
            fn solve_then_multiply_recovers_rhs(
                a in well_conditioned_matrix(),
                b in proptest::collection::vec(-10.0..10.0f64, 3)
            ) {
                let b = Vector::from_vec(b);
                let x = solve(&a, &b).unwrap();
                let back = a.mul_vector(&x).unwrap();
                prop_assert!(back.approx_eq(&b, 1e-6));
            }

            #[test]
            fn inverse_is_two_sided(a in well_conditioned_matrix()) {
                let inv = inverse(&a).unwrap();
                prop_assert!(a.mul(&inv).unwrap().approx_eq(&Matrix::identity(3), 1e-6));
                prop_assert!(inv.mul(&a).unwrap().approx_eq(&Matrix::identity(3), 1e-6));
            }

            #[test]
            fn determinant_of_product_is_product_of_determinants(
                a in well_conditioned_matrix(),
                b in well_conditioned_matrix()
            ) {
                let da = determinant(&a).unwrap();
                let db = determinant(&b).unwrap();
                let dab = determinant(&a.mul(&b).unwrap()).unwrap();
                prop_assert!((dab - da * db).abs() < 1e-6 * (1.0 + dab.abs()));
            }
        }
    }
}
