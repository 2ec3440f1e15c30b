//! Element-wise kernels: Hadamard product, element-wise division,
//! scalar multiplication, and generic maps.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::sparse::SparseBuilder;

fn check(a: &Matrix, b: &Matrix, op: &'static str) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch { op, lhs: a.shape(), rhs: b.shape() });
    }
    Ok(())
}

/// Hadamard (element-wise) product `A ⊙ B`. If either operand is sparse the
/// result is sparse (zero annihilates).
pub fn hadamard(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check(a, b, "hadamard")?;
    Ok(match (a, b) {
        (Matrix::Dense(x), Matrix::Dense(y)) => {
            let mut out = x.clone();
            for (o, &v) in out.data_mut().iter_mut().zip(y.data()) {
                *o *= v;
            }
            Matrix::Dense(out)
        }
        (Matrix::Sparse(x), other) | (other, Matrix::Sparse(x)) => {
            // Stored entries come in order: the product is written as is.
            let mut out = SparseBuilder::new(x.rows(), x.cols(), x.nnz());
            for (r, c, v) in x.triplets() {
                out.push(r, c, v * other.get(r, c));
            }
            Matrix::Sparse(out.finish())
        }
    })
}

/// Element-wise division `A / B` (dense result; divisions by zero follow
/// IEEE-754 like R and NumPy do).
pub fn divide(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check(a, b, "divide")?;
    let (ad, bd) = (a.to_dense(), b.to_dense());
    let mut out = ad;
    for (o, &v) in out.data_mut().iter_mut().zip(bd.data()) {
        *o /= v;
    }
    Ok(Matrix::Dense(out))
}

/// `s * A`, preserving representation.
pub fn scalar_mul(a: &Matrix, s: f64) -> Matrix {
    match a {
        Matrix::Dense(d) => {
            let mut out = d.clone();
            for o in out.data_mut() {
                *o *= s;
            }
            Matrix::Dense(out)
        }
        Matrix::Sparse(sp) => Matrix::Sparse(sp.map_values(|v| v * s)),
    }
}

/// Element-wise map over *all* cells. Densifies when `f(0) != 0`, otherwise
/// sparse inputs stay sparse.
pub fn map(a: &Matrix, f: impl Fn(f64) -> f64 + Copy) -> Matrix {
    match a {
        Matrix::Dense(d) => {
            let mut out = d.clone();
            for o in out.data_mut() {
                *o = f(*o);
            }
            Matrix::Dense(out)
        }
        Matrix::Sparse(s) => {
            if f(0.0) == 0.0 {
                Matrix::Sparse(s.map_values(f))
            } else {
                let mut out = DenseMatrix::filled(s.rows(), s.cols(), f(0.0));
                for (r, c, v) in s.triplets() {
                    out.set(r, c, f(v));
                }
                Matrix::Dense(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadamard_multiplies_cellwise() {
        let a = Matrix::dense(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::dense(2, 2, vec![5., 6., 7., 8.]);
        let c = hadamard(&a, &b).unwrap();
        assert_eq!(c.to_dense().data(), &[5., 12., 21., 32.]);
    }

    #[test]
    fn hadamard_with_sparse_stays_sparse() {
        let a = Matrix::sparse(2, 2, vec![(0, 1, 3.0)]);
        let b = Matrix::dense(2, 2, vec![9., 9., 9., 9.]);
        let c = hadamard(&a, &b).unwrap();
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 1), 27.0);
        assert_eq!(c.nnz(), 1);
    }

    #[test]
    fn divide_cellwise() {
        let a = Matrix::dense(1, 3, vec![10., 9., 8.]);
        let b = Matrix::dense(1, 3, vec![2., 3., 4.]);
        let c = divide(&a, &b).unwrap();
        assert_eq!(c.to_dense().data(), &[5., 3., 2.]);
    }

    #[test]
    fn scalar_multiplication() {
        let a = Matrix::sparse(2, 2, vec![(1, 1, 4.0)]);
        let c = scalar_mul(&a, 0.5);
        assert!(c.is_sparse());
        assert_eq!(c.get(1, 1), 2.0);
    }

    #[test]
    fn map_densifies_when_zero_maps_to_nonzero() {
        let a = Matrix::sparse(2, 2, vec![(0, 0, 1.0)]);
        let e = map(&a, f64::exp);
        assert!(!e.is_sparse());
        assert!((e.get(0, 0) - std::f64::consts::E).abs() < 1e-12);
        assert_eq!(e.get(1, 1), 1.0);
    }
}
