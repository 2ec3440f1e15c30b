//! Compressed Sparse Row (CSR) matrix with a COO builder.
//!
//! HADAD's evaluation depends heavily on sparse inputs (ultra-sparse
//! tweet-hashtag matrices at 0.00018% density, Amazon/Netflix rating
//! matrices): several of its winning rewrites are wins precisely because an
//! operand is sparse. CSR gives `O(nnz)` row-wise kernels for those paths.

use crate::dense::DenseMatrix;

/// CSR sparse matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices of stored entries, sorted within each row.
    indices: Vec<usize>,
    /// Stored values, aligned with `indices`.
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds from COO triplets; duplicate coordinates are summed.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut trips: Vec<(usize, usize, f64)> = triplets
            .into_iter()
            .inspect(|&(r, c, _)| {
                assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds {rows}x{cols}");
            })
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        trips.sort_unstable_by_key(|t| (t.0, t.1));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(trips.len());
        let mut values: Vec<f64> = Vec::with_capacity(trips.len());
        for (r, c, v) in trips {
            if let (Some(&last_c), true) = (indices.last(), indptr[r + 1] > 0) {
                // Merge duplicates that landed adjacent after the sort.
                let row_has_entries = indptr[r + 1] > indptr[r];
                if row_has_entries && last_c == c {
                    *values.last_mut().expect("non-empty") += v;
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
            indptr[r + 1] = indices.len();
        }
        // Forward-fill row pointers for empty rows.
        for r in 0..rows {
            if indptr[r + 1] < indptr[r] {
                indptr[r + 1] = indptr[r];
            }
        }
        SparseMatrix { rows, cols, indptr, indices, values }
    }

    /// Builds directly from CSR arrays (caller guarantees validity).
    pub fn from_csr(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1);
        assert_eq!(indices.len(), values.len());
        assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        SparseMatrix { rows, cols, indptr, indices, values }
    }

    /// All-zero sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix { rows, cols, indptr: vec![0; rows + 1], indices: vec![], values: vec![] }
    }

    /// Sparse identity of order `n`.
    pub fn identity(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of non-zero cells.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Column indices / values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Random access (O(log nnz_row)).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (idx, vals) = self.row(r);
        match idx.binary_search(&c) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Densifies.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Builds a CSR from a dense matrix, dropping zeros.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut indptr = Vec::with_capacity(d.rows() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..d.rows() {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        SparseMatrix { rows: d.rows(), cols: d.cols(), indptr, indices, values }
    }

    /// CSR transpose in O(nnz).
    pub fn transpose(&self) -> SparseMatrix {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for c in 0..self.cols {
            counts[c + 1] += counts[c];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0f64; nnz];
        let mut next = counts;
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                let pos = next[c];
                indices[pos] = r;
                values[pos] = v;
                next[c] += 1;
            }
        }
        SparseMatrix { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Iterator over stored `(row, col, value)` triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (idx, vals) = self.row(r);
            idx.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Keeps only entries satisfying the predicate on `(row, col, value)`.
    pub fn filter(&self, mut pred: impl FnMut(usize, usize, f64) -> bool) -> SparseMatrix {
        SparseMatrix::from_triplets(
            self.rows,
            self.cols,
            self.triplets().filter(|&(r, c, v)| pred(r, c, v)).collect::<Vec<_>>(),
        )
    }

    /// Applies `f` to every stored value (implicit zeros untouched; results
    /// that become zero are dropped).
    pub fn map_values(&self, mut f: impl FnMut(f64) -> f64) -> SparseMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out.prune()
    }

    /// Drops explicit zeros.
    pub fn prune(&self) -> SparseMatrix {
        if self.values.iter().all(|&v| v != 0.0) {
            return self.clone();
        }
        SparseMatrix::from_triplets(self.rows, self.cols, self.triplets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_roundtrip() {
        let m = SparseMatrix::from_triplets(3, 4, vec![(0, 1, 2.0), (2, 3, -1.0), (2, 0, 4.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(2, 3), -1.0);
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = SparseMatrix::from_triplets(3, 2, vec![(0, 1, 5.0), (2, 0, 7.0)]);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(1, 0), 5.0);
        assert_eq!(t.get(0, 2), 7.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn dense_roundtrip() {
        let d = DenseMatrix::from_vec(2, 3, vec![0., 1., 0., 2., 0., 3.]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn filter_selects_entries() {
        let m = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 5.0), (1, 1, 2.0)]);
        let f = m.filter(|_, _, v| v < 4.0);
        assert_eq!(f.nnz(), 1);
        assert_eq!(f.get(1, 1), 2.0);
    }

    #[test]
    fn empty_rows_have_consistent_indptr() {
        let m = SparseMatrix::from_triplets(4, 4, vec![(3, 3, 1.0)]);
        assert_eq!(m.get(3, 3), 1.0);
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(2).0.len(), 0);
    }
}
