//! Controllability analysis and Ackermann pole placement.
//!
//! The paper designs its controllers with optimization-driven pole placement
//! (its reference \[2\]); the gains are printed in the paper and re-used here
//! verbatim for the reproduction. This module provides the standard
//! single-input pole-placement machinery so that *new* applications can be
//! added to a slot-dimensioning study without external tooling.

use cps_linalg::{decomp, eigen::Complex, Matrix, Vector};

use crate::ControlError;

/// Builds the controllability matrix `[Γ, Φ·Γ, …, Φⁿ⁻¹·Γ]` of a single-input
/// system given as a matrix pair.
///
/// # Errors
///
/// * [`ControlError::NotSingleInput`] when `gamma` has more than one column.
/// * [`ControlError::InconsistentDimensions`] when the dimensions disagree.
pub fn controllability_matrix(phi: &Matrix, gamma: &Matrix) -> Result<Matrix, ControlError> {
    if gamma.cols() != 1 {
        return Err(ControlError::NotSingleInput {
            inputs: gamma.cols(),
        });
    }
    if !phi.is_square() || phi.rows() != gamma.rows() {
        return Err(ControlError::InconsistentDimensions {
            reason: format!(
                "state matrix is {:?}, input matrix is {:?}",
                phi.dims(),
                gamma.dims()
            ),
        });
    }
    let n = phi.rows();
    let mut columns = gamma.clone();
    let mut current = gamma.clone();
    for _ in 1..n {
        current = phi.mul(&current)?;
        columns = columns.hstack(&current)?;
    }
    Ok(columns)
}

/// Returns `true` when the single-input pair `(Φ, Γ)` is controllable, i.e.
/// its controllability matrix has full rank.
///
/// # Errors
///
/// Same error conditions as [`controllability_matrix`].
pub fn is_controllable(phi: &Matrix, gamma: &Matrix) -> Result<bool, ControlError> {
    let wc = controllability_matrix(phi, gamma)?;
    Ok(decomp::determinant(&wc)?.abs() > 1e-10)
}

/// Evaluates the monic polynomial with the given roots at the matrix `Φ`,
/// i.e. computes `(Φ − p₁·I)·(Φ − p₂·I)·…` for real roots and expands complex
/// conjugate pairs into their real quadratic factors.
fn desired_polynomial_of_matrix(phi: &Matrix, poles: &[Complex]) -> Result<Matrix, ControlError> {
    let n = phi.rows();
    let mut acc = Matrix::identity(n);
    let mut used = vec![false; poles.len()];
    for i in 0..poles.len() {
        if used[i] {
            continue;
        }
        let p = poles[i];
        if p.is_real(1e-12) {
            let factor = phi.sub(&Matrix::identity(n).scale(p.re))?;
            acc = acc.mul(&factor)?;
            used[i] = true;
        } else {
            // Find the conjugate partner and expand the real quadratic factor
            // Φ² − 2·Re(p)·Φ + |p|²·I.
            let partner = poles
                .iter()
                .enumerate()
                .position(|(j, q)| {
                    !used[j] && j != i && (q.re - p.re).abs() < 1e-9 && (q.im + p.im).abs() < 1e-9
                })
                .ok_or(ControlError::InvalidParameter {
                    reason: format!("complex pole {p} has no conjugate partner"),
                })?;
            let quad = phi
                .mul(phi)?
                .sub(&phi.scale(2.0 * p.re))?
                .add(&Matrix::identity(n).scale(p.abs() * p.abs()))?;
            acc = acc.mul(&quad)?;
            used[i] = true;
            used[partner] = true;
        }
    }
    Ok(acc)
}

/// Ackermann pole placement for single-input systems.
///
/// Computes the state-feedback gain `K` such that the eigenvalues of
/// `Φ − Γ·K` are the desired `poles`. Complex poles must appear in conjugate
/// pairs.
///
/// # Errors
///
/// * [`ControlError::WrongPoleCount`] when the number of poles differs from
///   the system order.
/// * [`ControlError::NotControllable`] when the controllability matrix is
///   singular.
/// * [`ControlError::InvalidParameter`] when a complex pole has no conjugate
///   partner.
///
/// # Example
///
/// ```
/// use cps_control::place::place_poles;
/// use cps_linalg::{eigen::Complex, Matrix};
///
/// # fn main() -> Result<(), cps_control::ControlError> {
/// let phi = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap();
/// let gamma = Matrix::from_rows(&[&[0.005], &[0.1]]).unwrap();
/// let k = place_poles(&phi, &gamma, &[Complex::from_real(0.5), Complex::from_real(0.6)])?;
/// assert_eq!(k.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn place_poles(
    phi: &Matrix,
    gamma: &Matrix,
    poles: &[Complex],
) -> Result<Vector, ControlError> {
    let n = phi.rows();
    if poles.len() != n {
        return Err(ControlError::WrongPoleCount {
            got: poles.len(),
            expected: n,
        });
    }
    let wc = controllability_matrix(phi, gamma)?;
    if decomp::determinant(&wc)?.abs() <= 1e-10 {
        return Err(ControlError::NotControllable);
    }
    let wc_inv = decomp::inverse(&wc)?;
    let p_phi = desired_polynomial_of_matrix(phi, poles)?;
    // K = eₙᵀ · Wc⁻¹ · p(Φ)
    let mut e_n = Matrix::zeros(1, n);
    e_n[(0, n - 1)] = 1.0;
    let k = e_n.mul(&wc_inv)?.mul(&p_phi)?;
    Ok(k.row(0))
}

/// Convenience wrapper for purely real desired poles.
///
/// # Errors
///
/// Same error conditions as [`place_poles`].
pub fn place_real_poles(
    phi: &Matrix,
    gamma: &Matrix,
    poles: &[f64],
) -> Result<Vector, ControlError> {
    let poles: Vec<Complex> = poles.iter().map(|&p| Complex::from_real(p)).collect();
    place_poles(phi, gamma, &poles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_linalg::eigen;

    fn double_integrator() -> (Matrix, Matrix) {
        let phi = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap();
        let gamma = Matrix::from_rows(&[&[0.005], &[0.1]]).unwrap();
        (phi, gamma)
    }

    #[test]
    fn controllability_matrix_structure() {
        let (phi, gamma) = double_integrator();
        let wc = controllability_matrix(&phi, &gamma).unwrap();
        assert_eq!(wc.dims(), (2, 2));
        assert_eq!(wc[(0, 0)], 0.005);
        assert!((wc[(0, 1)] - 0.015).abs() < 1e-12);
        assert!(is_controllable(&phi, &gamma).unwrap());
    }

    #[test]
    fn uncontrollable_pair_is_detected() {
        let phi = Matrix::diagonal(&[0.5, 0.5]);
        let gamma = Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        assert!(!is_controllable(&phi, &gamma).unwrap());
        assert!(matches!(
            place_real_poles(&phi, &gamma, &[0.1, 0.2]),
            Err(ControlError::NotControllable)
        ));
    }

    #[test]
    fn placed_real_poles_are_achieved() {
        let (phi, gamma) = double_integrator();
        let k = place_real_poles(&phi, &gamma, &[0.4, 0.5]).unwrap();
        let cl = crate::feedback::closed_loop_matrix(&phi, &gamma, &k).unwrap();
        let eig = eigen::eigenvalues(&cl).unwrap();
        let mut mags: Vec<f64> = eig.values().iter().map(|z| z.re).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mags[0] - 0.4).abs() < 1e-6);
        assert!((mags[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn placed_complex_poles_are_achieved() {
        let (phi, gamma) = double_integrator();
        let desired = [Complex::new(0.6, 0.2), Complex::new(0.6, -0.2)];
        let k = place_poles(&phi, &gamma, &desired).unwrap();
        let cl = crate::feedback::closed_loop_matrix(&phi, &gamma, &k).unwrap();
        let eig = eigen::eigenvalues(&cl).unwrap();
        for v in eig.values() {
            assert!((v.re - 0.6).abs() < 1e-6);
            assert!((v.im.abs() - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn deadbeat_design_drives_state_to_zero() {
        let (phi, gamma) = double_integrator();
        let k = place_real_poles(&phi, &gamma, &[0.0, 0.0]).unwrap();
        let cl = crate::feedback::closed_loop_matrix(&phi, &gamma, &k).unwrap();
        // After n steps the state must be (numerically) zero.
        let after_two = cl.mul(&cl).unwrap();
        assert!(after_two.max_abs() < 1e-9);
    }

    #[test]
    fn pole_count_is_validated() {
        let (phi, gamma) = double_integrator();
        assert!(matches!(
            place_real_poles(&phi, &gamma, &[0.5]),
            Err(ControlError::WrongPoleCount {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn unpaired_complex_pole_is_rejected() {
        let (phi, gamma) = double_integrator();
        let desired = [Complex::new(0.6, 0.2), Complex::from_real(0.5)];
        assert!(matches!(
            place_poles(&phi, &gamma, &desired),
            Err(ControlError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn multi_input_and_mismatched_dims_are_rejected() {
        let phi = Matrix::identity(2);
        assert!(controllability_matrix(&phi, &Matrix::zeros(2, 2)).is_err());
        assert!(controllability_matrix(&phi, &Matrix::zeros(3, 1)).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn random_stable_real_poles_are_achieved(
                p1 in -0.9..0.9f64,
                p2 in -0.9..0.9f64,
            ) {
                let (phi, gamma) = double_integrator();
                let k = place_real_poles(&phi, &gamma, &[p1, p2]).unwrap();
                let cl = crate::feedback::closed_loop_matrix(&phi, &gamma, &k).unwrap();
                let eig = eigen::eigenvalues(&cl).unwrap();
                // The placed closed loop must contain both requested poles.
                for target in [p1, p2] {
                    let hit = eig.values().iter().any(|z| {
                        (z.re - target).abs() < 1e-5 && z.im.abs() < 1e-5
                    });
                    prop_assert!(hit, "pole {} not achieved", target);
                }
            }
        }
    }
}
