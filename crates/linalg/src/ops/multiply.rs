//! Matrix product kernels.
//!
//! Representation policy: `sparse x sparse` stays sparse (classical row-wise
//! SpGEMM); anything involving a dense operand produces a dense result, with
//! sparse-aware inner loops so that ultra-sparse operands (the backbone of
//! HADAD's hybrid experiments) cost `O(nnz * k)` rather than `O(n*m*k)`.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;

fn check(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "multiply",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// `A * B`.
pub fn multiply(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check(a, b)?;
    Ok(match (a, b) {
        (Matrix::Dense(x), Matrix::Dense(y)) => Matrix::Dense(dense_dense(x, y)),
        (Matrix::Sparse(x), Matrix::Dense(y)) => Matrix::Dense(sparse_dense(x, y)),
        (Matrix::Dense(x), Matrix::Sparse(y)) => Matrix::Dense(dense_sparse(x, y)),
        (Matrix::Sparse(x), Matrix::Sparse(y)) => Matrix::Sparse(sparse_sparse(x, y)),
    })
}

/// Dense x dense with i-k-j loop order (streams rows of B, cache-friendly).
pub fn dense_dense(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for (kk, &aik) in a_row.iter().enumerate().take(k) {
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(kk);
            let out_row = out.row_mut(i);
            for (j, &bkj) in b_row.iter().enumerate() {
                out_row[j] += aik * bkj;
            }
        }
    }
    out
}

/// Sparse x dense: for each stored `a[i,k]`, accumulate `a[i,k] * B[k,:]`.
pub fn sparse_dense(a: &SparseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for (i, idx, vals) in a.stored_rows() {
        let out_row = out.row_mut(i);
        for (&kk, &aik) in idx.iter().zip(vals) {
            let b_row = b.row(kk);
            for (j, &bkj) in b_row.iter().enumerate() {
                out_row[j] += aik * bkj;
            }
        }
    }
    out
}

/// Dense x sparse: for each stored `b[k,j]`, accumulate `A[:,k] * b[k,j]`
/// column-wise into the output.
pub fn dense_sparse(a: &DenseMatrix, b: &SparseMatrix) -> DenseMatrix {
    let (m, n) = (a.rows(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    for (kk, idx, vals) in b.stored_rows() {
        if idx.is_empty() {
            continue;
        }
        for i in 0..m {
            let aik = a.get(i, kk);
            if aik == 0.0 {
                continue;
            }
            let out_row = out.row_mut(i);
            for (&j, &bkj) in idx.iter().zip(vals) {
                out_row[j] += aik * bkj;
            }
        }
    }
    out
}

/// Sparse x sparse row-wise SpGEMM with a dense accumulator per row.
pub fn sparse_sparse(a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
    let (m, n) = (a.rows(), b.cols());
    let mut acc = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for (i, idx, vals) in a.stored_rows() {
        for (&kk, &aik) in idx.iter().zip(vals) {
            let (bidx, bvals) = b.row(kk);
            for (&j, &bkj) in bidx.iter().zip(bvals) {
                if acc[j] == 0.0 {
                    touched.push(j);
                }
                acc[j] += aik * bkj;
            }
        }
        for &j in &touched {
            if acc[j] != 0.0 {
                triplets.push((i, j, acc[j]));
            }
            acc[j] = 0.0;
        }
        touched.clear();
    }
    SparseMatrix::from_triplets(m, n, triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn d(r: usize, c: usize, v: Vec<f64>) -> Matrix {
        Matrix::dense(r, c, v)
    }

    #[test]
    fn dense_product_matches_hand_computation() {
        let a = d(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = d(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = multiply(&a, &b).unwrap();
        assert_eq!(c.to_dense().data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = d(2, 3, vec![0.; 6]);
        let b = d(2, 2, vec![0.; 4]);
        assert!(multiply(&a, &b).is_err());
    }

    #[test]
    fn all_representation_combinations_agree() {
        let a_dense = d(3, 4, vec![0., 2., 0., 1., 3., 0., 0., 0., 0., 0., 5., 4.]);
        let b_dense = d(4, 2, vec![1., 0., 0., 2., 3., 0., 0., 4.]);
        let a_sparse = Matrix::Sparse(a_dense.to_sparse());
        let b_sparse = Matrix::Sparse(b_dense.to_sparse());
        let reference = multiply(&a_dense, &b_dense).unwrap();
        for a in [&a_dense, &a_sparse] {
            for b in [&b_dense, &b_sparse] {
                let got = multiply(a, b).unwrap();
                assert!(approx_eq(&reference, &got, 1e-12), "{a:?} x {b:?}");
            }
        }
    }

    #[test]
    fn sparse_product_stays_sparse() {
        let a = Matrix::sparse(2, 2, vec![(0, 0, 2.0)]);
        let b = Matrix::sparse(2, 2, vec![(0, 1, 3.0)]);
        let c = multiply(&a, &b).unwrap();
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 1), 6.0);
        assert_eq!(c.nnz(), 1);
    }

    #[test]
    fn identity_is_neutral() {
        let a = d(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::identity(2);
        assert!(approx_eq(&multiply(&a, &i).unwrap(), &a, 1e-12));
        assert!(approx_eq(&multiply(&i, &a).unwrap(), &a, 1e-12));
    }
}
