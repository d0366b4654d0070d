use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense column vector of `f64` values.
///
/// Plant states, control inputs and output trajectories are represented as
/// [`Vector`]s. The type intentionally stays small: element access, the usual
/// element-wise arithmetic and dot products.
///
/// # Example
///
/// ```
/// use cps_linalg::Vector;
///
/// let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
/// assert_eq!(x.len(), 3);
/// assert_eq!(x.dot(&x), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector taking ownership of `values`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Vector { data: values }
    }

    /// Creates a unit vector of dimension `n` with a one at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn unit(n: usize, index: usize) -> Self {
        assert!(index < n, "unit vector index out of bounds");
        let mut v = Vector::zeros(n);
        v[index] = 1.0;
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying storage (for in-place kernels).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot product length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Element-wise scaling by a constant.
    pub fn scale(&self, factor: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Returns `true` when every corresponding pair of elements differs by
    /// less than `tol`.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() < tol)
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 3.0);
    }

    #[test]
    fn zeros_and_unit() {
        assert_eq!(Vector::zeros(4).as_slice(), &[0.0; 4]);
        let e1 = Vector::unit(3, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unit_rejects_bad_index() {
        let _ = Vector::unit(2, 2);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn mutable_slice_writes_through() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let mut c = a.clone();
        c.as_mut_slice()[1] = 0.0;
        assert_eq!(c[1], 0.0);
        assert_eq!(c[0], a[0]);
    }

    #[test]
    fn approx_eq_checks_length_and_values() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        assert!(a.approx_eq(&Vector::from_slice(&[1.0 + 1e-12, 2.0]), 1e-9));
        assert!(!a.approx_eq(&Vector::from_slice(&[1.0, 2.1]), 1e-9));
        assert!(!a.approx_eq(&Vector::from_slice(&[1.0]), 1e-9));
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let sum: f64 = (&v).into_iter().sum();
        assert_eq!(sum, 3.0);
    }

    #[test]
    fn display_format() {
        let v = Vector::from_slice(&[1.0, -2.5]);
        assert_eq!(v.to_string(), "[1.000000, -2.500000]");
    }
}
