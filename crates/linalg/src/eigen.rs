//! Eigenvalue computation for small dense matrices.
//!
//! The closed-loop system matrices in this workspace are at most fourth order
//! (third-order plant plus one delayed input), so eigenvalues are computed by
//! the characteristic polynomial route: the Faddeev–LeVerrier recursion yields
//! the coefficients and a Durand–Kerner (Weierstrass) iteration finds all of
//! its (possibly complex) roots simultaneously. This is simple, has no special
//! cases for complex conjugate pairs, and is numerically more than adequate
//! for the orders involved.
//!
//! No pipeline stage calls this module: the dwell engine certifies its early
//! exit with the Lyapunov solver instead. It stays as the independent
//! stability check that tests compare against: the Lyapunov solver's tests,
//! the case-study gain tests of `cps-apps`, and the random stable plants of
//! the root `tests/engine_oracle.rs`.

use std::fmt;

use crate::{LinalgError, Matrix};

/// A complex number with `f64` components.
///
/// Provided locally so that the workspace does not need an external complex
/// arithmetic dependency; only the operations required by the root finder and
/// stability analyses are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude (modulus) of the complex number.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Complex addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    /// Complex subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }

    /// Complex multiplication.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    /// Complex division.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other` is exactly zero; the root finder
    /// never divides by an exact zero because the iterates are perturbed.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Complex) -> Complex {
        let denom = other.re * other.re + other.im * other.im;
        debug_assert!(denom > 0.0, "complex division by zero");
        Complex::new(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// The set of eigenvalues of a square matrix.
///
/// # Example
///
/// ```
/// use cps_linalg::{Matrix, eigen};
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::diagonal(&[0.5, -0.25]);
/// let eig = eigen::eigenvalues(&a)?;
/// assert!((eig.spectral_radius() - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Eigenvalues {
    values: Vec<Complex>,
}

impl Eigenvalues {
    /// The eigenvalues, in no particular order.
    pub fn values(&self) -> &[Complex] {
        &self.values
    }

    /// Largest eigenvalue magnitude.
    pub fn spectral_radius(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |acc, z| acc.max(z.abs()))
    }

    /// Returns `true` when all eigenvalues lie strictly inside the unit
    /// circle, i.e. the associated discrete-time system is Schur stable.
    pub fn is_schur_stable(&self) -> bool {
        self.spectral_radius() < 1.0
    }
}

/// Computes the coefficients of the characteristic polynomial
/// `λⁿ + c₁·λⁿ⁻¹ + … + cₙ` of a square matrix via the Faddeev–LeVerrier
/// recursion.
///
/// The returned vector is `[1, c₁, …, cₙ]` (monic, highest degree first).
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular matrices.
pub fn characteristic_polynomial(a: &Matrix) -> Result<Vec<f64>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { dims: a.dims() });
    }
    let n = a.rows();
    let mut coeffs = vec![1.0];
    // Faddeev–LeVerrier: M₁ = I, Mₖ = A·Mₖ₋₁ + cₖ₋₁·I, cₖ = −tr(A·Mₖ)/k.
    let mut m = Matrix::identity(n);
    for k in 1..=n {
        if k > 1 {
            m = a
                .mul(&m)
                .expect("square matrices of equal dimension")
                .add(&Matrix::identity(n).scale(coeffs[k - 1]))
                .expect("same dimensions");
        }
        let trace = a
            .mul(&m)
            .expect("square matrices of equal dimension")
            .trace()
            .expect("square matrix");
        coeffs.push(-trace / k as f64);
    }
    Ok(coeffs)
}

/// Finds all (complex) roots of a monic polynomial given by coefficients
/// `[1, c₁, …, cₙ]` (highest degree first) using the Durand–Kerner method.
///
/// # Errors
///
/// Returns [`LinalgError::ConvergenceFailure`] if the iteration does not
/// converge within the internal budget, and [`LinalgError::InvalidShape`] if
/// fewer than two coefficients are supplied.
pub fn polynomial_roots(coefficients: &[f64]) -> Result<Vec<Complex>, LinalgError> {
    if coefficients.len() < 2 {
        return Err(LinalgError::InvalidShape {
            reason: "polynomial must have degree at least 1".to_string(),
        });
    }
    let leading = coefficients[0];
    if leading.abs() < 1e-300 {
        return Err(LinalgError::InvalidShape {
            reason: "leading coefficient must be non-zero".to_string(),
        });
    }
    // Normalise to a monic polynomial.
    let coeffs: Vec<f64> = coefficients.iter().map(|c| c / leading).collect();
    let degree = coeffs.len() - 1;

    let eval = |z: Complex| -> Complex {
        let mut acc = Complex::from_real(coeffs[0]);
        for &c in &coeffs[1..] {
            acc = acc.mul(z).add(Complex::from_real(c));
        }
        acc
    };

    // Initial guesses on a circle whose radius bounds the roots (Cauchy bound),
    // with an irrational angle offset to avoid symmetric stagnation.
    let radius = 1.0 + coeffs[1..].iter().fold(0.0_f64, |acc, c| acc.max(c.abs()));
    let mut roots: Vec<Complex> = (0..degree)
        .map(|i| {
            let angle = 0.4 + 2.0 * std::f64::consts::PI * i as f64 / degree as f64;
            Complex::new(radius * angle.cos(), radius * angle.sin())
        })
        .collect();

    const MAX_ITERATIONS: usize = 2000;
    const STEP_TOLERANCE: f64 = 1e-13;
    let residual_scale = 1.0 + coeffs[1..].iter().fold(0.0_f64, |acc, c| acc.max(c.abs()));
    let finish = |mut roots: Vec<Complex>| {
        // Snap tiny imaginary parts produced by rounding to exactly zero.
        for r in &mut roots {
            if r.im.abs() < 1e-9 {
                r.im = 0.0;
            }
        }
        roots
    };
    for _ in 0..MAX_ITERATIONS {
        let mut max_step = 0.0_f64;
        for i in 0..degree {
            let mut denom = Complex::from_real(1.0);
            for j in 0..degree {
                if i != j {
                    denom = denom.mul(roots[i].sub(roots[j]));
                }
            }
            if denom.abs() < 1e-300 {
                // Two iterates collided: nudge one of them.
                roots[i] = roots[i].add(Complex::new(1e-8, 1e-8));
                continue;
            }
            let delta = eval(roots[i]).div(denom);
            roots[i] = roots[i].sub(delta);
            max_step = max_step.max(delta.abs());
        }
        if max_step < STEP_TOLERANCE {
            return Ok(finish(roots));
        }
    }
    // Repeated roots only converge linearly; accept the iterate anyway when the
    // polynomial residual at every root is already negligible.
    let max_residual = roots.iter().fold(0.0_f64, |acc, &z| acc.max(eval(z).abs()));
    if max_residual < 1e-8 * residual_scale {
        return Ok(finish(roots));
    }
    Err(LinalgError::ConvergenceFailure {
        algorithm: "durand-kerner roots",
        iterations: MAX_ITERATIONS,
    })
}

/// Computes all eigenvalues of a square matrix.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input and
/// [`LinalgError::ConvergenceFailure`] if the root finder fails (not observed
/// for the system orders used in this workspace).
pub fn eigenvalues(a: &Matrix) -> Result<Eigenvalues, LinalgError> {
    let coeffs = characteristic_polynomial(a)?;
    let values = polynomial_roots(&coeffs)?;
    Ok(Eigenvalues { values })
}

/// Computes the spectral radius (largest eigenvalue magnitude) of a square
/// matrix.
///
/// # Errors
///
/// Same error conditions as [`eigenvalues`].
pub fn spectral_radius(a: &Matrix) -> Result<f64, LinalgError> {
    Ok(eigenvalues(a)?.spectral_radius())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contains_root(roots: &[Complex], target: Complex, tol: f64) -> bool {
        roots.iter().any(|r| r.sub(target).abs() < tol)
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a.add(b), Complex::new(4.0, 1.0));
        assert_eq!(a.sub(b), Complex::new(-2.0, 3.0));
        assert_eq!(a.mul(b), Complex::new(5.0, 5.0));
        let q = a.div(b);
        let back = q.mul(b);
        assert!(back.sub(a).abs() < 1e-12);
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn characteristic_polynomial_of_diagonal() {
        // (λ - 2)(λ - 3) = λ² - 5λ + 6
        let a = Matrix::diagonal(&[2.0, 3.0]);
        let p = characteristic_polynomial(&a).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] + 5.0).abs() < 1e-12);
        assert!((p[2] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn characteristic_polynomial_of_companion_like_matrix() {
        // [[0, 1], [-6, 5]] has characteristic polynomial λ² - 5λ + 6.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-6.0, 5.0]]).unwrap();
        let p = characteristic_polynomial(&a).unwrap();
        assert!((p[1] + 5.0).abs() < 1e-9);
        assert!((p[2] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn roots_of_quadratic_with_real_roots() {
        // λ² - 5λ + 6 = 0 -> 2, 3
        let roots = polynomial_roots(&[1.0, -5.0, 6.0]).unwrap();
        assert!(contains_root(&roots, Complex::from_real(2.0), 1e-8));
        assert!(contains_root(&roots, Complex::from_real(3.0), 1e-8));
    }

    #[test]
    fn roots_of_quadratic_with_complex_roots() {
        // λ² + 1 = 0 -> ±i
        let roots = polynomial_roots(&[1.0, 0.0, 1.0]).unwrap();
        assert!(contains_root(&roots, Complex::new(0.0, 1.0), 1e-8));
        assert!(contains_root(&roots, Complex::new(0.0, -1.0), 1e-8));
    }

    #[test]
    fn roots_handle_non_monic_input() {
        // 2λ² - 8 = 0 -> ±2
        let roots = polynomial_roots(&[2.0, 0.0, -8.0]).unwrap();
        assert!(contains_root(&roots, Complex::from_real(2.0), 1e-8));
        assert!(contains_root(&roots, Complex::from_real(-2.0), 1e-8));
    }

    #[test]
    fn roots_reject_degenerate_polynomials() {
        assert!(polynomial_roots(&[1.0]).is_err());
        assert!(polynomial_roots(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let a = Matrix::diagonal(&[0.5, -0.3, 0.9]);
        let eig = eigenvalues(&a).unwrap();
        assert_eq!(eig.values().len(), 3);
        assert!(contains_root(eig.values(), Complex::from_real(0.5), 1e-8));
        assert!(contains_root(eig.values(), Complex::from_real(-0.3), 1e-8));
        assert!(contains_root(eig.values(), Complex::from_real(0.9), 1e-8));
        assert!((eig.spectral_radius() - 0.9).abs() < 1e-8);
        assert!(eig.is_schur_stable());
    }

    #[test]
    fn eigenvalues_of_rotation_matrix_are_complex() {
        let theta = 0.3_f64;
        let a = Matrix::from_rows(&[&[theta.cos(), -theta.sin()], &[theta.sin(), theta.cos()]])
            .unwrap();
        let eig = eigenvalues(&a).unwrap();
        // Rotation matrices have eigenvalues e^{±iθ} with unit magnitude.
        for v in eig.values() {
            assert!((v.abs() - 1.0).abs() < 1e-8);
            assert!(v.im.abs() > 1e-6);
        }
        assert!(!eig.is_schur_stable());
    }

    #[test]
    fn eigenvalues_of_unstable_matrix() {
        let a = Matrix::from_rows(&[&[1.2, 0.0], &[0.3, 0.4]]).unwrap();
        let eig = eigenvalues(&a).unwrap();
        assert!((eig.spectral_radius() - 1.2).abs() < 1e-8);
        assert!(!eig.is_schur_stable());
    }

    #[test]
    fn eigenvalues_reject_rectangular_matrices() {
        assert!(matches!(
            eigenvalues(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn spectral_radius_convenience_function() {
        let a = Matrix::diagonal(&[0.1, -0.7]);
        assert!((spectral_radius(&a).unwrap() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn complex_display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1.000000+2.000000i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1.000000-2.000000i");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn trace_equals_sum_of_eigenvalues(
                entries in proptest::collection::vec(-2.0..2.0f64, 9)
            ) {
                let a = Matrix::from_vec(3, 3, entries).unwrap();
                let eig = eigenvalues(&a).unwrap();
                let sum_re: f64 = eig.values().iter().map(|z| z.re).sum();
                let sum_im: f64 = eig.values().iter().map(|z| z.im).sum();
                prop_assert!((sum_re - a.trace().unwrap()).abs() < 1e-6);
                prop_assert!(sum_im.abs() < 1e-6);
            }

            #[test]
            fn determinant_equals_product_of_eigenvalues(
                entries in proptest::collection::vec(-2.0..2.0f64, 4)
            ) {
                let a = Matrix::from_vec(2, 2, entries).unwrap();
                let eig = eigenvalues(&a).unwrap();
                let prod = eig.values().iter().fold(Complex::from_real(1.0), |acc, &z| acc.mul(z));
                let det = a[(0, 0)] * a[(1, 1)] - a[(0, 1)] * a[(1, 0)];
                prop_assert!((prod.re - det).abs() < 1e-6);
                prop_assert!(prod.im.abs() < 1e-6);
            }

            #[test]
            fn diagonal_eigenvalues_are_the_diagonal(
                d in proptest::collection::vec(-3.0..3.0f64, 1..5)
            ) {
                let a = Matrix::diagonal(&d);
                let eig = eigenvalues(&a).unwrap();
                for &di in &d {
                    prop_assert!(contains_root(eig.values(), Complex::from_real(di), 1e-6));
                }
            }
        }
    }
}
