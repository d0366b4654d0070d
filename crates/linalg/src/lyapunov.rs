//! Discrete-time Lyapunov equations and definiteness tests.
//!
//! The dwell engine's early-exit certificate solves `Aᵀ·P·A − P = −I` for
//! the event-triggered closed loop and requires `P` to be positive definite.
//! The building blocks live here:
//!
//! * [`solve_discrete_lyapunov`] — solves `Aᵀ·P·A − P = −Q` by Kronecker
//!   vectorization (exact for the small system orders involved).
//! * [`cholesky`] / [`is_positive_definite`] — the definiteness test that
//!   validates the certificate.

use crate::{decomp::LuDecomposition, LinalgError, Matrix, Vector};

/// Stacks the columns of a matrix into a single vector (the `vec(·)`
/// operator).
fn vectorize(m: &Matrix) -> Vector {
    let mut data = Vec::with_capacity(m.rows() * m.cols());
    for j in 0..m.cols() {
        for i in 0..m.rows() {
            data.push(m[(i, j)]);
        }
    }
    Vector::from_vec(data)
}

/// Inverse of [`vectorize`]: reshapes a stacked column vector back into an
/// `n`-by-`n` matrix.
fn unvectorize(v: &Vector, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            m[(i, j)] = v[j * n + i];
        }
    }
    m
}

/// Solves the discrete-time Lyapunov equation `Aᵀ·P·A − P = −Q` for `P`.
///
/// The equation is vectorized with the identity
/// `vec(Aᵀ·P·A) = (Aᵀ ⊗ Aᵀ)·vec(P)`, yielding the linear system
/// `(I − Aᵀ ⊗ Aᵀ)·vec(P) = vec(Q)` which is solved by LU decomposition.
///
/// When `A` is Schur stable and `Q` is symmetric positive definite, the
/// returned `P` is the unique symmetric positive-definite solution and
/// `V(x) = xᵀ·P·x` is a Lyapunov function for `x[k+1] = A·x[k]`.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] when the
///   operands are not square matrices of equal dimension.
/// * [`LinalgError::Singular`] when `A` has a pair of eigenvalues whose
///   product is exactly one (no unique solution exists).
///
/// # Example
///
/// ```
/// use cps_linalg::{lyapunov, Matrix};
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::diagonal(&[0.5, 0.8]);
/// let q = Matrix::identity(2);
/// let p = lyapunov::solve_discrete_lyapunov(&a, &q)?;
/// assert!(lyapunov::is_positive_definite(&p)?);
/// # Ok(())
/// # }
/// ```
pub fn solve_discrete_lyapunov(a: &Matrix, q: &Matrix) -> Result<Matrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { dims: a.dims() });
    }
    if a.dims() != q.dims() {
        return Err(LinalgError::DimensionMismatch {
            operation: "solve_discrete_lyapunov",
            left: a.dims(),
            right: q.dims(),
        });
    }
    let n = a.rows();
    let at = a.transpose();
    let kron = at.kronecker(&at);
    let system = Matrix::identity(n * n).sub(&kron)?;
    let rhs = vectorize(q);
    let solution = LuDecomposition::new(&system)?.solve_vector(&rhs)?;
    let p = unvectorize(&solution, n);
    // Symmetrize to remove rounding asymmetry: the true solution is symmetric
    // whenever Q is.
    Ok(p.add(&p.transpose())?.scale(0.5))
}

/// Computes the lower-triangular Cholesky factor `L` with `M = L·Lᵀ`.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NotSymmetric`] when `M` is not symmetric.
/// * [`LinalgError::NotPositiveDefinite`] when a non-positive pivot is
///   encountered, i.e. the matrix is not positive definite.
pub fn cholesky(m: &Matrix) -> Result<Matrix, LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare { dims: m.dims() });
    }
    if !m.is_symmetric(1e-7) {
        return Err(LinalgError::NotSymmetric);
    }
    let n = m.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = m[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Returns `true` when the symmetric matrix `M` is positive definite.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] or [`LinalgError::NotSymmetric`] when
/// `M` is not a symmetric square matrix (asymmetry is an input error rather
/// than a "not definite" answer).
pub fn is_positive_definite(m: &Matrix) -> Result<bool, LinalgError> {
    match cholesky(m) {
        Ok(_) => Ok(true),
        Err(LinalgError::NotPositiveDefinite) => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eigen, MatrixOps};

    #[test]
    fn vectorize_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = vectorize(&m);
        assert_eq!(v.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert!(unvectorize(&v, 2).approx_eq(&m, 1e-12));
    }

    #[test]
    fn lyapunov_solution_satisfies_equation() {
        let a = Matrix::from_rows(&[&[0.5, 0.1], &[-0.2, 0.7]]).unwrap();
        let q = Matrix::identity(2);
        let p = solve_discrete_lyapunov(&a, &q).unwrap();
        // Check AᵀPA − P = −Q.
        let residual = a
            .transpose()
            .mul(&p)
            .unwrap()
            .mul(&a)
            .unwrap()
            .sub(&p)
            .unwrap()
            .add(&q)
            .unwrap();
        assert!(residual.approx_eq(&Matrix::zeros(2, 2), 1e-9));
    }

    #[test]
    fn lyapunov_solution_is_positive_definite_for_stable_systems() {
        let a = Matrix::from_rows(&[&[0.9, 0.05], &[0.0, 0.8]]).unwrap();
        assert!(eigen::spectral_radius(&a).unwrap() < 1.0);
        let p = solve_discrete_lyapunov(&a, &Matrix::identity(2)).unwrap();
        assert!(p.is_symmetric(1e-9));
        assert!(is_positive_definite(&p).unwrap());
    }

    #[test]
    fn lyapunov_solution_not_definite_for_unstable_systems() {
        let a = Matrix::diagonal(&[1.5, 0.5]);
        let p = solve_discrete_lyapunov(&a, &Matrix::identity(2)).unwrap();
        assert!(!is_positive_definite(&p).unwrap());
    }

    #[test]
    fn lyapunov_rejects_mismatched_dimensions() {
        let a = Matrix::identity(2).scale(0.5);
        let q = Matrix::identity(3);
        assert!(solve_discrete_lyapunov(&a, &q).is_err());
        assert!(solve_discrete_lyapunov(&Matrix::zeros(2, 3), &q).is_err());
    }

    #[test]
    fn cholesky_of_known_matrix() {
        let m = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let l = cholesky(&m).unwrap();
        let reconstructed = l.mul(&l.transpose()).unwrap();
        assert!(reconstructed.approx_eq(&m, 1e-9));
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_asymmetric_and_indefinite_input() {
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(cholesky(&asym), Err(LinalgError::NotSymmetric)));
        let indefinite = Matrix::diagonal(&[1.0, -1.0]);
        assert!(matches!(
            cholesky(&indefinite),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn definiteness_tests() {
        assert!(is_positive_definite(&Matrix::identity(3)).unwrap());
        assert!(!is_positive_definite(&Matrix::diagonal(&[1.0, 0.0])).unwrap());
        // Asymmetric input is an error, not `false`.
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(is_positive_definite(&asym).is_err());
    }

    #[test]
    fn lyapunov_function_decreases_along_trajectories() {
        let a = Matrix::from_rows(&[&[0.8, 0.2], &[-0.1, 0.6]]).unwrap();
        let p = solve_discrete_lyapunov(&a, &Matrix::identity(2)).unwrap();
        let mut x = Vector::from_slice(&[1.0, -1.0]);
        let mut v_prev = p.quad_form(&x);
        for _ in 0..20 {
            x = a.mul_vector(&x).unwrap();
            let v = p.quad_form(&x);
            assert!(v < v_prev + 1e-12, "Lyapunov function must not increase");
            v_prev = v;
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn stable_matrix() -> impl Strategy<Value = Matrix> {
            // Scale random 2x2 matrices so their spectral radius is < 1.
            proptest::collection::vec(-1.0..1.0f64, 4).prop_map(|v| {
                let m = Matrix::from_vec(2, 2, v).unwrap();
                let rho = eigen::spectral_radius(&m).unwrap();
                if rho >= 0.95 {
                    m.scale(0.9 / (rho + 1e-9))
                } else {
                    m
                }
            })
        }

        proptest! {
            #[test]
            fn lyapunov_residual_is_small(a in stable_matrix()) {
                let q = Matrix::identity(2);
                let p = solve_discrete_lyapunov(&a, &q).unwrap();
                let residual = a.transpose().mul(&p).unwrap().mul(&a).unwrap()
                    .sub(&p).unwrap().add(&q).unwrap();
                prop_assert!(residual.approx_eq(&Matrix::zeros(2, 2), 1e-7));
            }

            #[test]
            fn stable_systems_yield_positive_definite_certificates(a in stable_matrix()) {
                let p = solve_discrete_lyapunov(&a, &Matrix::identity(2)).unwrap();
                prop_assert!(is_positive_definite(&p).unwrap());
            }
        }
    }
}
