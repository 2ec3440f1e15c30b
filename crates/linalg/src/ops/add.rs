//! Matrix addition / subtraction.
//!
//! `sparse + sparse` merges row-wise and stays sparse; mixing with a dense
//! operand materializes a dense result (exactly the densification HADAD's
//! P1.4 rewrite `(A+B)v -> Av + Bv` avoids).

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::sparse::{SparseBuilder, SparseMatrix};

fn check(a: &Matrix, b: &Matrix, op: &'static str) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(LinalgError::DimensionMismatch { op, lhs: a.shape(), rhs: b.shape() });
    }
    Ok(())
}

/// `A + B`.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check(a, b, "add")?;
    Ok(match (a, b) {
        (Matrix::Sparse(x), Matrix::Sparse(y)) => Matrix::Sparse(sparse_sparse(x, y, 1.0)),
        _ => Matrix::Dense(dense_combine(a, b, 1.0)),
    })
}

/// `A - B`.
pub fn sub(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check(a, b, "sub")?;
    Ok(match (a, b) {
        (Matrix::Sparse(x), Matrix::Sparse(y)) => Matrix::Sparse(sparse_sparse(x, y, -1.0)),
        _ => Matrix::Dense(dense_combine(a, b, -1.0)),
    })
}

fn dense_combine(a: &Matrix, b: &Matrix, sign: f64) -> DenseMatrix {
    // Start from whichever operand is dense and scatter the sparse one in.
    match (a, b) {
        (Matrix::Dense(x), Matrix::Dense(y)) => {
            let mut out = x.clone();
            for (o, &v) in out.data_mut().iter_mut().zip(y.data()) {
                *o += sign * v;
            }
            out
        }
        (Matrix::Dense(x), Matrix::Sparse(y)) => {
            let mut out = x.clone();
            for (r, c, v) in y.triplets() {
                let cur = out.get(r, c);
                out.set(r, c, cur + sign * v);
            }
            out
        }
        (Matrix::Sparse(x), Matrix::Dense(y)) => {
            let mut out = DenseMatrix::zeros(y.rows(), y.cols());
            for (o, &v) in out.data_mut().iter_mut().zip(y.data()) {
                *o = sign * v;
            }
            for (r, c, v) in x.triplets() {
                let cur = out.get(r, c);
                out.set(r, c, cur + v);
            }
            out
        }
        (Matrix::Sparse(_), Matrix::Sparse(_)) => unreachable!("handled by caller"),
    }
}

/// Merges the stored rows of both operands in row order, and each pair of
/// rows in column order.
fn sparse_sparse(a: &SparseMatrix, b: &SparseMatrix, sign: f64) -> SparseMatrix {
    let mut out = SparseBuilder::new(a.rows(), a.cols(), a.nnz() + b.nnz());
    let (mut ra, mut rb) = (a.stored_rows().peekable(), b.stored_rows().peekable());
    loop {
        // The lower row id comes next; on a tie both rows are consumed.
        let r = match (ra.peek(), rb.peek()) {
            (Some(x), Some(y)) => x.0.min(y.0),
            (Some(x), None) => x.0,
            (None, Some(y)) => y.0,
            (None, None) => break,
        };
        let (ai, av) = ra.next_if(|x| x.0 == r).map_or((&[][..], &[][..]), |x| (x.1, x.2));
        let (bi, bv) = rb.next_if(|y| y.0 == r).map_or((&[][..], &[][..]), |y| (y.1, y.2));
        let (mut p, mut q) = (0usize, 0usize);
        while p < ai.len() || q < bi.len() {
            // A cell both hold is summed (and dropped if it cancels).
            let ca = ai.get(p).copied().unwrap_or(usize::MAX);
            let cb = bi.get(q).copied().unwrap_or(usize::MAX);
            let mut v = 0.0;
            if ca <= cb {
                v = av[p];
                p += 1;
            }
            if cb <= ca {
                v += sign * bv[q];
                q += 1;
            }
            out.push(r, ca.min(cb), v);
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dense_addition() {
        let a = Matrix::dense(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::dense(2, 2, vec![10., 20., 30., 40.]);
        let c = add(&a, &b).unwrap();
        assert_eq!(c.to_dense().data(), &[11., 22., 33., 44.]);
    }

    #[test]
    fn sparse_plus_sparse_stays_sparse() {
        let a = Matrix::sparse(2, 3, vec![(0, 0, 1.0), (1, 2, 2.0)]);
        let b = Matrix::sparse(2, 3, vec![(0, 0, -1.0), (0, 1, 5.0)]);
        let c = add(&a, &b).unwrap();
        assert!(c.is_sparse());
        assert_eq!(c.nnz(), 2, "cancelled entry must be dropped");
        assert_eq!(c.get(0, 1), 5.0);
        assert_eq!(c.get(1, 2), 2.0);
    }

    #[test]
    fn mixed_add_densifies() {
        let a = Matrix::sparse(2, 2, vec![(0, 0, 1.0)]);
        let b = Matrix::dense(2, 2, vec![1., 1., 1., 1.]);
        let c = add(&a, &b).unwrap();
        assert!(!c.is_sparse());
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(1, 1), 1.0);
    }

    #[test]
    fn subtraction_is_inverse_of_addition() {
        let a = Matrix::dense(2, 2, vec![5., 6., 7., 8.]);
        let b = Matrix::dense(2, 2, vec![1., 2., 3., 4.]);
        let c = sub(&add(&a, &b).unwrap(), &b).unwrap();
        assert!(approx_eq(&a, &c, 1e-12));
    }

    #[test]
    fn sparse_sub() {
        let a = Matrix::sparse(1, 3, vec![(0, 0, 3.0), (0, 2, 1.0)]);
        let b = Matrix::sparse(1, 3, vec![(0, 1, 4.0), (0, 2, 1.0)]);
        let c = sub(&a, &b).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(0, 1), -4.0);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(add(&a, &b).is_err());
        assert!(sub(&a, &b).is_err());
    }
}
