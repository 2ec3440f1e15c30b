//! Row-major dense matrix.

/// A dense `rows x cols` matrix of `f64`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix from row-major data. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// 1x1 matrix holding a scalar (HADAD treats scalars as degenerate matrices).
    pub fn scalar(v: f64) -> Self {
        DenseMatrix { rows: 1, cols: 1, data: vec![v] }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (all) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix stores no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Overwrites the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Count of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Transposed copy, moved in cache-resident tiles.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// True when the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Writes the transpose of the row-major `rows × cols` matrix `src` into
/// `dst` (`cols × rows`), in 16×16 tiles: a tile's source rows and
/// destination rows are two cache lines each, so both sides stay
/// cache-resident instead of one of them striding a whole matrix per
/// element.
pub(crate) fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    const T: usize = 16;
    assert!(src.len() == rows * cols && dst.len() == rows * cols, "transpose buffer sizes");
    if rows <= 1 || cols <= 1 {
        // A vector keeps its element order.
        dst.copy_from_slice(src);
        return;
    }
    for r0 in (0..rows).step_by(T) {
        let r1 = (r0 + T).min(rows);
        for c0 in (0..cols).step_by(T) {
            let c1 = (c0 + T).min(cols);
            for c in c0..c1 {
                let out = &mut dst[c * rows + r0..c * rows + r1];
                for (r, v) in (r0..r1).zip(out) {
                    *v = src[r * cols + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_unit_diagonal() {
        let i = DenseMatrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = DenseMatrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.get(0, 1), 4.0);
    }

    /// The tiled copy against the definition, on shapes around the tile
    /// edge and the vector fast path, values distinct per cell.
    #[test]
    fn transpose_matches_the_definition_on_ragged_shapes() {
        for &(r, c) in &[(0, 3), (1, 1), (1, 7), (7, 1), (15, 17), (16, 16), (33, 47), (130, 5)]
        {
            let m = DenseMatrix::from_fn(r, c, |i, j| (i * c + j) as f64 - 0.5);
            let t = m.transpose();
            assert_eq!((t.rows(), t.cols()), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(
                        t.get(j, i).to_bits(),
                        m.get(i, j).to_bits(),
                        "{r}x{c} ({i},{j})"
                    );
                }
            }
            assert_eq!(t.transpose(), m);
        }
    }

    #[test]
    fn nnz_counts_nonzeros() {
        let m = DenseMatrix::from_vec(2, 2, vec![0., 1., 2., 0.]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn symmetric_detection() {
        let s = DenseMatrix::from_vec(2, 2, vec![1., 2., 2., 5.]);
        assert!(s.is_symmetric(1e-12));
        let ns = DenseMatrix::from_vec(2, 2, vec![1., 2., 3., 5.]);
        assert!(!ns.is_symmetric(1e-12));
    }
}
