//! Backend conformance suite: one generic battery of checks instantiated
//! against every [`LinalgBackend`] implementation in the crate.
//!
//! The contract under test is the one the dwell engine relies on:
//!
//! 1. **Shape discipline** — `from_dyn` is where a shape enters a backend:
//!    it rejects shapes the backend cannot hold and copies the rest exactly.
//! 2. **Bitwise kernel equivalence** — every kernel the engine runs (`gemv`,
//!    `quad_form`, `dot`, `assign`) produces bit-for-bit the same floats as
//!    the heap-backed [`DynBackend`] on the same inputs, because all backends
//!    fix the same accumulation order. This is what lets `cps-core` dispatch
//!    between backends without perturbing a single settling time.
//!
//! A deterministic pseudo-random property pass (`proptest`) pins the
//! dyn-vs-static equivalence over many sampled matrices, not just the
//! hand-written fixtures.

use cps_linalg::{
    DynBackend, LinalgBackend, Matrix, MatrixOps, StaticBackend, StaticMatrix, StaticVector,
    Vector, VectorOps,
};
use proptest::{collection, prop_assert_eq, proptest};

/// Deterministic, well-scattered, diagonally dominant test matrix.
fn dyn_matrix(dim: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..dim)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let scatter = ((i * 7 + j * 3 + 2) % 11) as f64 / 11.0 - 0.45;
                    scatter / (2.0 * dim as f64) + if i == j { 0.6 } else { 0.0 }
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&refs).unwrap()
}

fn dyn_vector(dim: usize) -> Vector {
    Vector::from_slice(
        &(0..dim)
            .map(|i| ((i * 5 + 3) % 7) as f64 / 7.0 - 0.4)
            .collect::<Vec<f64>>(),
    )
}

fn assert_bits(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: entry bit-diverges");
    }
}

/// The conformance battery for a backend whose (square) dimension is `dim`.
/// Every result is compared bitwise against the heap-backed reference on
/// identical inputs.
fn conforms<B: LinalgBackend>(dim: usize) {
    let name = B::name();
    let ad = dyn_matrix(dim);
    let xd = dyn_vector(dim);

    // Shape discipline.
    assert!(B::Matrix::from_dyn(&Matrix::zeros(dim, dim + 1)).is_err());
    assert!(B::Vector::from_dyn(&Vector::zeros(0)).is_err());
    let a = B::Matrix::from_dyn(&ad).unwrap();
    let x = B::Vector::from_dyn(&xd).unwrap();
    assert_eq!(a.dim(), dim, "{name}: dim");
    assert_bits(name, x.elements(), xd.as_slice());
    for (i, want) in ad.as_slice().chunks_exact(dim).enumerate() {
        assert_bits(name, a.row_slice(i), want);
    }

    // gemv against the inherent heap kernel.
    let mut out = x.clone();
    a.gemv(&x, &mut out);
    let dout = ad.mul_vector(&xd).unwrap();
    assert_bits(name, out.elements(), dout.as_slice());

    // Scalar kernels, including the zero-component skip of `quad_form` and
    // a dot whose every product is `-0.0`.
    let dq = <Matrix as MatrixOps>::quad_form(&ad, &xd);
    assert_eq!(a.quad_form(&x).to_bits(), dq.to_bits(), "{name}: quad_form");
    let mut sparse = x.clone();
    sparse.elements_mut()[0] = 0.0;
    let mut dsparse = xd.clone();
    dsparse[0] = 0.0;
    assert_eq!(
        a.quad_form(&sparse).to_bits(),
        <Matrix as MatrixOps>::quad_form(&ad, &dsparse).to_bits(),
        "{name}: sparse quad_form"
    );
    assert_eq!(
        x.dot(&out).to_bits(),
        VectorOps::dot(&xd, &dout).to_bits(),
        "{name}: dot"
    );
    let (mut ones, mut neg_zeros) = (x.clone(), x.clone());
    ones.elements_mut().fill(1.0);
    neg_zeros.elements_mut().fill(-0.0);
    assert_eq!(
        ones.dot(&neg_zeros).to_bits(),
        0.0_f64.to_bits(),
        "{name}: -0.0"
    );

    // assign.
    out.assign(&x);
    assert_bits(name, out.elements(), xd.as_slice());
}

/// A static backend holds exactly its compile-time dimension.
fn rejects_other_dimensions<B: LinalgBackend>(dim: usize) {
    assert!(B::Matrix::from_dyn(&Matrix::identity(dim + 1)).is_err());
    assert!(B::Matrix::from_dyn(&Matrix::identity(dim - 1)).is_err());
    assert!(B::Vector::from_dyn(&Vector::zeros(dim + 1)).is_err());
}

#[test]
fn dyn_backend_conforms_across_dimensions() {
    for dim in 1..=6 {
        conforms::<DynBackend>(dim);
    }
}

#[test]
fn static_backends_conform_on_the_whole_menu() {
    conforms::<StaticBackend<2>>(2);
    conforms::<StaticBackend<3>>(3);
    conforms::<StaticBackend<4>>(4);
    conforms::<StaticBackend<5>>(5);
    rejects_other_dimensions::<StaticBackend<2>>(2);
    rejects_other_dimensions::<StaticBackend<3>>(3);
    rejects_other_dimensions::<StaticBackend<4>>(4);
    rejects_other_dimensions::<StaticBackend<5>>(5);
}

proptest! {
    // Dyn and static kernels agree bitwise on random 3x3 systems.
    #[test]
    fn dyn_and_static_agree_bitwise(
        entries in collection::vec(-1.0..1.0f64, 9),
        xs in collection::vec(-1.0..1.0f64, 3),
    ) {
        let rows: Vec<&[f64]> = entries.chunks_exact(3).collect();
        let ad = Matrix::from_rows(&rows).unwrap();
        let xd = Vector::from_slice(&xs);
        let sa = StaticMatrix::<3>::from_dyn(&ad).unwrap();
        let sx = StaticVector::<3>::from_dyn(&xd).unwrap();

        // gemv against the inherent heap kernel.
        let inherent = ad.mul_vector(&xd).unwrap();
        let mut fast = sx;
        sa.gemv(&sx, &mut fast);
        for (f, w) in fast.elements().iter().zip(inherent.as_slice()) {
            prop_assert_eq!(f.to_bits(), w.to_bits());
        }

        // Quadratic form and dot product.
        prop_assert_eq!(
            sa.quad_form(&sx).to_bits(),
            MatrixOps::quad_form(&ad, &xd).to_bits()
        );
        prop_assert_eq!(sx.dot(&fast).to_bits(), VectorOps::dot(&xd, &inherent).to_bits());
    }
}
