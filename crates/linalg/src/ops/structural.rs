//! Structural operators: Kronecker (direct) product, direct sum, diagonal
//! extraction, row reversal, and concatenation (the latter
//! backs Morpheus' normalized-matrix materialization `M = [S, K R]`).

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Kronecker / direct product `A ⊗ B` (the paper's `product_D`).
pub fn kronecker(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let mut out = DenseMatrix::zeros(ar * br, ac * bc);
    for i in 0..ar {
        for j in 0..ac {
            let aij = a.get(i, j);
            if aij == 0.0 {
                continue;
            }
            for p in 0..br {
                for q in 0..bc {
                    out.set(i * br + p, j * bc + q, aij * b.get(p, q));
                }
            }
        }
    }
    Matrix::Dense(out)
}

/// Direct sum `A ⊕ B`: block-diagonal stacking (the paper's `sum_D`).
pub fn direct_sum(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let mut out = DenseMatrix::zeros(ar + br, ac + bc);
    for r in 0..ar {
        for c in 0..ac {
            out.set(r, c, a.get(r, c));
        }
    }
    for r in 0..br {
        for c in 0..bc {
            out.set(ar + r, ac + c, b.get(r, c));
        }
    }
    Matrix::Dense(out)
}

/// Diagonal of a square matrix as a column vector (the paper's `diag`).
pub fn diag(a: &Matrix) -> Result<Matrix> {
    a.check_square("diag")?;
    let mut out = DenseMatrix::zeros(a.rows(), 1);
    for i in 0..a.rows() {
        out.set(i, 0, a.get(i, i));
    }
    Ok(Matrix::Dense(out))
}

/// Reverses the row order (SystemML's `rev`).
pub fn reverse_rows(a: &Matrix) -> Matrix {
    let d = a.to_dense();
    let out = DenseMatrix::from_fn(d.rows(), d.cols(), |r, c| d.get(d.rows() - 1 - r, c));
    Matrix::Dense(out)
}

/// Horizontal concatenation `[A | B]` (cbind).
pub fn hconcat(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "hconcat",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(r, c, a.get(r, c));
        }
        for c in 0..b.cols() {
            out.set(r, a.cols() + c, b.get(r, c));
        }
    }
    Ok(Matrix::Dense(out))
}

/// Vertical concatenation (rbind).
pub fn vconcat(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "vconcat",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(a.rows() + b.rows(), a.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(r, c, a.get(r, c));
        }
    }
    for r in 0..b.rows() {
        for c in 0..b.cols() {
            out.set(a.rows() + r, c, b.get(r, c));
        }
    }
    Ok(Matrix::Dense(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kronecker_small() {
        let a = Matrix::dense(1, 2, vec![1., 2.]);
        let b = Matrix::dense(2, 1, vec![3., 4.]);
        let k = kronecker(&a, &b);
        assert_eq!(k.shape(), (2, 2));
        assert_eq!(k.to_dense().data(), &[3., 6., 4., 8.]);
    }

    #[test]
    fn direct_sum_is_block_diagonal() {
        let a = Matrix::dense(1, 1, vec![1.]);
        let b = Matrix::dense(2, 2, vec![2., 3., 4., 5.]);
        let s = direct_sum(&a, &b);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(1, 1), 2.0);
        assert_eq!(s.get(2, 2), 5.0);
        assert_eq!(s.get(0, 1), 0.0);
    }

    #[test]
    fn diag_extracts_diagonal() {
        let m = Matrix::dense(2, 2, vec![7., 1., 1., 9.]);
        assert_eq!(diag(&m).unwrap().to_dense().data(), &[7., 9.]);
        assert!(diag(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn reverse_flips_rows() {
        let m = Matrix::dense(3, 1, vec![1., 2., 3.]);
        assert_eq!(reverse_rows(&m).to_dense().data(), &[3., 2., 1.]);
    }

    #[test]
    fn concat_shapes() {
        let a = Matrix::dense(2, 1, vec![1., 2.]);
        let b = Matrix::dense(2, 2, vec![3., 4., 5., 6.]);
        let h = hconcat(&a, &b).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.get(1, 2), 6.0);
        let v = vconcat(&b, &b).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert!(hconcat(&a, &Matrix::zeros(3, 1)).is_err());
        assert!(vconcat(&a, &Matrix::zeros(2, 2)).is_err());
    }
}
