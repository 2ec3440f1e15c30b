//! Unified matrix value: dense or sparse, with operator dispatch.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::ops;
use crate::sparse::SparseMatrix;

/// A matrix value flowing through a HADAD pipeline: either dense row-major
/// or CSR sparse. Kernels pick representation-specific fast paths and decide
/// the representation of their output (e.g. sparse x sparse products stay
/// sparse; adding a dense matrix densifies).
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Row-major dense storage.
    Dense(DenseMatrix),
    /// CSR sparse storage.
    Sparse(SparseMatrix),
}

impl Matrix {
    /// Dense zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix::Dense(DenseMatrix::zeros(rows, cols))
    }

    /// Dense identity.
    pub fn identity(n: usize) -> Matrix {
        Matrix::Dense(DenseMatrix::identity(n))
    }

    /// 1x1 scalar matrix.
    pub fn scalar(v: f64) -> Matrix {
        Matrix::Dense(DenseMatrix::scalar(v))
    }

    /// Dense matrix from a row-major vector.
    pub fn dense(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        Matrix::Dense(DenseMatrix::from_vec(rows, cols, data))
    }

    /// Sparse matrix from COO triplets.
    pub fn sparse(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Matrix {
        Matrix::Sparse(SparseMatrix::from_triplets(rows, cols, triplets))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows(),
            Matrix::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.cols(),
            Matrix::Sparse(s) => s.cols(),
        }
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Whether the CSR representation backs this matrix.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Matrix::Sparse(_))
    }

    /// Scalar if 1x1.
    pub fn as_scalar(&self) -> Option<f64> {
        if self.shape() == (1, 1) {
            Some(self.get(0, 0))
        } else {
            None
        }
    }

    /// Entry at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            Matrix::Dense(d) => d.get(r, c),
            Matrix::Sparse(s) => s.get(r, c),
        }
    }

    /// Stored/actual non-zero count.
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.nnz(),
            Matrix::Sparse(s) => s.nnz(),
        }
    }

    /// Fraction of non-zero cells.
    pub fn density(&self) -> f64 {
        let cells = self.rows() as f64 * self.cols() as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// Densified copy (or clone if already dense).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(d) => d.clone(),
            Matrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Sparse copy (or clone if already sparse).
    pub fn to_sparse(&self) -> SparseMatrix {
        match self {
            Matrix::Dense(d) => SparseMatrix::from_dense(d),
            Matrix::Sparse(s) => s.clone(),
        }
    }

    /// Errors with [`LinalgError::NotSquare`] unless square.
    pub fn check_square(&self, op: &'static str) -> Result<()> {
        if self.rows() != self.cols() {
            return Err(LinalgError::NotSquare { op, shape: self.shape() });
        }
        Ok(())
    }

    // ---- operator conveniences (delegate to `ops` kernels) ----

    /// Matrix product.
    pub fn multiply(&self, other: &Matrix) -> Result<Matrix> {
        ops::multiply::multiply(self, other)
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        ops::add::add(self, other)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        ops::add::sub(self, other)
    }

    /// Hadamard (element-wise) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        ops::elementwise::hadamard(self, other)
    }

    /// Element-wise division.
    pub fn divide(&self, other: &Matrix) -> Result<Matrix> {
        ops::elementwise::divide(self, other)
    }

    /// Scales every entry by `s`.
    pub fn scalar_mul(&self, s: f64) -> Matrix {
        ops::elementwise::scalar_mul(self, s)
    }

    /// Transposition.
    pub fn transpose(&self) -> Matrix {
        ops::transpose::transpose(self)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        ops::aggregates::sum(self)
    }

    /// Per-row sums, as a column vector.
    pub fn row_sums(&self) -> Matrix {
        ops::aggregates::row_sums(self)
    }

    /// Per-column sums, as a row vector.
    pub fn col_sums(&self) -> Matrix {
        ops::aggregates::col_sums(self)
    }

    /// Trace (square matrices only).
    pub fn trace(&self) -> Result<f64> {
        ops::aggregates::trace(self)
    }

    /// Matrix inverse via pivoted LU.
    pub fn inverse(&self) -> Result<Matrix> {
        crate::decomp::lu::inverse(self)
    }

    /// Determinant via pivoted LU.
    pub fn det(&self) -> Result<f64> {
        crate::decomp::lu::det(self)
    }
}

impl From<DenseMatrix> for Matrix {
    fn from(d: DenseMatrix) -> Self {
        Matrix::Dense(d)
    }
}

impl From<SparseMatrix> for Matrix {
    fn from(s: SparseMatrix) -> Self {
        Matrix::Sparse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_scalar() {
        let m = Matrix::scalar(4.5);
        assert_eq!(m.shape(), (1, 1));
        assert_eq!(m.as_scalar(), Some(4.5));
        assert_eq!(Matrix::zeros(2, 3).as_scalar(), None);
    }

    #[test]
    fn density_of_sparse() {
        let s = Matrix::sparse(10, 10, vec![(0, 0, 1.0), (5, 5, 1.0)]);
        assert!((s.density() - 0.02).abs() < 1e-12);
    }
}
