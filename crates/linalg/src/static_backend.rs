//! Stack-allocated, const-generic square matrices and vectors: the fast path
//! behind [`LinalgBackend`].
//!
//! Case-study plants have 2–3 states, so their augmented closed loops are
//! 3–4-dimensional: small enough that a `[[f64; N]; N]` on the stack beats
//! the heap-backed [`Matrix`] by removing allocation, pointer chasing and
//! runtime bounds dispatch, and letting LLVM fully unroll every kernel loop.
//! The dimension is part of the type, so once [`MatrixOps::from_dyn`] /
//! [`VectorOps::from_dyn`] have accepted a shape the kernels cannot see a
//! mismatch — which is why they are infallible.
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

impl<const N: usize> VectorOps for StaticVector<N> {
    fn from_dyn(v: &Vector) -> Result<Self, LinalgError> {
        if v.len() != N || N == 0 {
            return Err(LinalgError::InvalidShape {
                reason: format!("StaticVector<{N}> cannot hold {} elements", v.len()),
            });
        }
        let mut data = [0.0; N];
        data.copy_from_slice(v.as_slice());
        Ok(StaticVector { data })
    }

    fn elements(&self) -> &[f64] {
        &self.data
    }

    fn elements_mut(&mut self) -> &mut [f64] {
        &mut self.data
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
}

/// A stack-allocated, row-major square matrix with compile-time dimension
/// `N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticMatrix<const N: usize> {
    data: [[f64; N]; N],
}

impl<const N: usize> MatrixOps for StaticMatrix<N> {
    type Vector = StaticVector<N>;

    fn from_dyn(m: &Matrix) -> Result<Self, LinalgError> {
        if m.dims() != (N, N) {
            return Err(LinalgError::InvalidShape {
                reason: format!(
                    "StaticMatrix<{N}> cannot hold a {}x{} matrix",
                    m.rows(),
                    m.cols()
                ),
            });
        }
        let mut data = [[0.0; N]; N];
        for (row, src) in data.iter_mut().zip(m.as_slice().chunks_exact(N)) {
            row.copy_from_slice(src);
        }
        Ok(StaticMatrix { data })
    }

    fn dim(&self) -> usize {
        N
    }

    fn row_slice(&self, i: usize) -> &[f64] {
        &self.data[i]
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
    type Matrix = StaticMatrix<N>;
    type Vector = StaticVector<N>;

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
    fn from_dyn_enforces_the_compile_time_dimension() {
        let dyn_m = Matrix::identity(2);
        assert!(<StaticMatrix<3> as MatrixOps>::from_dyn(&dyn_m).is_err());
        assert!(<StaticMatrix<2> as MatrixOps>::from_dyn(&Matrix::zeros(2, 3)).is_err());
        let s = <StaticMatrix<2> as MatrixOps>::from_dyn(&dyn_m).unwrap();
        assert_eq!(
            (s.dim(), s.row_slice(0), s.row_slice(1)),
            (2, &[1.0, 0.0][..], &[0.0, 1.0][..])
        );
        assert!(<StaticVector<3> as VectorOps>::from_dyn(&Vector::zeros(2)).is_err());
        assert!(<StaticVector<0> as VectorOps>::from_dyn(&Vector::zeros(0)).is_err());
    }

    #[test]
    fn kernels_match_the_dynamic_backend_bitwise() {
        let d = Matrix::from_rows(&[
            &[0.73, -1.2, 0.05],
            &[2.5, 0.0, -0.625],
            &[-0.31, 1.07, 0.9],
        ])
        .unwrap();
        let dv = Vector::from_slice(&[0.11, -2.3, 0.0]);
        let s = StaticMatrix::<3>::from_dyn(&d).unwrap();
        let sv = StaticVector::<3>::from_dyn(&dv).unwrap();

        let mut s_out = sv;
        s.gemv(&sv, &mut s_out);
        let d_out = d.mul_vector(&dv).unwrap();
        for (a, b) in s_out.elements().iter().zip(d_out.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        assert_eq!(s.quad_form(&sv).to_bits(), d.quad_form(&dv).to_bits());
        assert_eq!(
            VectorOps::dot(&sv, &s_out).to_bits(),
            VectorOps::dot(&dv, &d_out).to_bits()
        );
        let mut dst = sv;
        dst.assign(&s_out);
        assert_eq!(dst, s_out);
    }

    #[test]
    fn backend_names_cover_the_dispatch_menu() {
        assert_eq!(StaticBackend::<2>::name(), "static<2>");
        assert_eq!(StaticBackend::<5>::name(), "static<5>");
        assert_eq!(StaticBackend::<9>::name(), "static");
    }
}
