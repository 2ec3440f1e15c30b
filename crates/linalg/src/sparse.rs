//! Compressed-row sparse matrix whose cost follows `nnz`, with a streaming
//! builder.
//!
//! HADAD's evaluation depends heavily on sparse inputs (ultra-sparse
//! tweet-hashtag matrices at 0.00018% density, Amazon/Netflix rating
//! matrices): several of its winning rewrites are wins precisely because an
//! operand is sparse, and its hybrid pipelines cast a few thousand selected
//! tuples into a matrix over the whole id space.
//!
//! # Two row layouts, one rule
//!
//! Entries are stored row by row (`indices`/`values`, columns ascending
//! within a row). What differs is how a row finds its entries:
//!
//! * **flat** — the classical CSR pointer array of `rows + 1` entries:
//!   `row(r)` is O(1), the matrix costs O(rows + nnz) to build, hold and
//!   scan;
//! * **compact** — pointers for the non-empty rows only, beside their
//!   ascending row ids (DCSR): the matrix costs O(nnz) to build, hold,
//!   clone and scan whatever `rows` is, and `row(r)` is a binary search
//!   over the stored row ids.
//!
//! The layout is chosen from the data when a matrix is constructed, by one
//! constant: compact when `stored_rows * COMPACT_RATIO < rows`
//! (`COMPACT_RATIO` = 4, so a compact matrix holds at most half the
//! pointer words of its flat twin), flat otherwise. Nothing selects it from
//! outside. A flat pointer array that is already paid for is kept as it is:
//! the one [`SparseMatrix::from_csr`] is handed, and the one a counting-pass
//! [`SparseMatrix::transpose`] builds (never more than `COMPACT_RATIO * nnz`
//! words). `==` compares content, never layout, and every kernel gives
//! bitwise the same result on either.
//!
//! The measurement behind the constant (200 000 × 200, one entry per
//! stored row, each layout against its twin forced into the other; 2-vCPU
//! build host, release build, medians of 31): with 3 125 rows stored a
//! build from ordered entries takes 23 µs compact against 590 µs flat,
//! `clone` + `sum` + `colSums` 24 against 720, `transpose` 11 against 210;
//! with 48 780 stored — just under a quarter — the same three still read
//! 375 against 730, 490 against 1 180 and 230 against 290, while 100 000
//! random `row(r)` calls (the inner lookup of SpGEMM's right operand) take
//! 3.6 ms against 0.17 ms: 36 ns a binary search, 1.7 ns an index. The
//! gain shrinks to nothing at half the rows stored (both layouts then hold
//! as many pointer words) and the lookup penalty grows with `log stored`,
//! so the rule stops where compact still wins 2× on what it is for.
//! `la_exec`'s 2 000 × 2 000 operands at 1 % and its 4 000-row SpMM
//! operand store every row and stay flat; a cast of 1 000 or 40 000
//! selected tuples into a 202 000-row id space is compact.
//!
//! # What costs what
//!
//! | operation | flat | compact |
//! |---|---|---|
//! | [`SparseBuilder`], [`SparseMatrix::from_triplets`] in `(row, col)` order | O(n + rows) | O(n) |
//! | — out of order | O(n log n + rows) | O(n log n) |
//! | [`SparseMatrix::from_sorted_rows`] (one entry per row, a keyed table's bulk cast: one checking pass, no per-entry push) | O(nnz + rows) | O(nnz) |
//! | `clone`, `triplets`, `to_dense`'s scatter, `filter`, `prune`, `map_values`, `==`, the aggregates, `add`, `hadamard` | O(rows + nnz) | O(nnz) |
//! | `row(r)`, `get(r, c)` | O(1), O(log row) | O(log stored) more |
//! | `transpose` | O(nnz + rows + cols) | O(nnz log nnz) when the result is compact too |
//! | products | walk the slots of a sparse left operand; a dense `m × n` output stays O(m·n) | |

use std::ops::Range;

use crate::dense::DenseMatrix;

/// The layout rule's one constant: see the module docs.
const COMPACT_RATIO: usize = 4;

/// Whether `stored` non-empty rows out of `rows` are few enough for the
/// compact layout.
fn compact_pays(stored: usize, rows: usize) -> bool {
    stored.saturating_mul(COMPACT_RATIO) < rows
}

/// Compressed-row sparse matrix of `f64` (layouts: see the module docs).
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Compact layout: ids of the non-empty rows, ascending, one per slot.
    /// `None` in the flat layout, where slot `r` is row `r`.
    row_ids: Option<Vec<usize>>,
    /// Slot `k` holds entries `indptr[k]..indptr[k + 1]`: `rows + 1`
    /// pointers when flat, `row_ids.len() + 1` when compact.
    indptr: Vec<usize>,
    /// Column indices of stored entries, sorted within each row.
    indices: Vec<usize>,
    /// Stored values, aligned with `indices`.
    values: Vec<f64>,
}

/// Content equality: two matrices holding the same entries are equal
/// whichever layout each is in.
impl PartialEq for SparseMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && self.indices == other.indices
            && self.values == other.values
            && self.row_lens().eq(other.row_lens())
    }
}

/// Builds a [`SparseMatrix`] from entries pushed one at a time. Entries
/// that arrive in `(row, col)` order — the order a cast of a sorted table
/// produces — are written straight into the matrix's arrays; the first
/// entry below its predecessor switches the builder to buffering, and
/// [`finish`](SparseBuilder::finish) sorts once. Explicit zeros are
/// dropped; entries at equal coordinates are summed — in arrival order
/// when the input is in order, in the sort's order otherwise (a sum that
/// cancels stays stored as `0.0`, see [`SparseMatrix::prune`]).
#[derive(Debug)]
pub struct SparseBuilder {
    rows: usize,
    cols: usize,
    /// Non-empty rows so far, ascending.
    row_ids: Vec<usize>,
    /// First entry of each row in `row_ids`.
    starts: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    /// Once an entry arrived below its predecessor: every entry so far, in
    /// arrival order (and the four arrays above are empty).
    spill: Vec<(usize, usize, f64)>,
}

impl SparseBuilder {
    /// Builder for a `rows x cols` matrix expecting about `capacity`
    /// entries.
    pub fn new(rows: usize, cols: usize, capacity: usize) -> Self {
        SparseBuilder {
            rows,
            cols,
            row_ids: Vec::with_capacity(capacity.min(rows)),
            starts: Vec::with_capacity(capacity.min(rows) + 1),
            indices: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
            spill: Vec::new(),
        }
    }

    /// `(rows, cols)` of the matrix being built.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Adds `v` at `(r, c)`.
    ///
    /// # Panics
    ///
    /// When `(r, c)` lies outside the matrix.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "triplet ({r},{c}) out of bounds {}x{}",
            self.rows,
            self.cols
        );
        if v == 0.0 {
            return;
        }
        if self.spill.is_empty() {
            if self.last().is_none_or(|l| (r, c) >= l) {
                self.merge(r, c, v);
                return;
            }
            // First entry below its predecessor: the in-order prefix (already
            // merged) moves in front of it, and every entry is buffered from
            // here on.
            self.spill.reserve(self.indices.capacity());
            let mut k = 0;
            for (i, (&c, &v)) in self.indices.iter().zip(&self.values).enumerate() {
                if self.starts.get(k + 1) == Some(&i) {
                    k += 1;
                }
                self.spill.push((self.row_ids[k], c, v));
            }
            self.row_ids.clear();
            self.starts.clear();
            self.indices.clear();
            self.values.clear();
        }
        self.spill.push((r, c, v));
    }

    /// The highest stored coordinate.
    fn last(&self) -> Option<(usize, usize)> {
        Some((*self.row_ids.last()?, *self.indices.last()?))
    }

    /// Adds `v` at `(r, c)`, which must not lie below [`last`](Self::last).
    fn merge(&mut self, r: usize, c: usize, v: f64) {
        if self.last() == Some((r, c)) {
            *self.values.last_mut().expect("an entry is stored at `last`") += v;
        } else {
            self.append(r, c, v);
        }
    }

    /// Stores `v` at `(r, c)`, which must lie above [`last`](Self::last): the
    /// unchecked push of kernels that produce their entries in order.
    pub(crate) fn append(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(self.spill.is_empty() && self.last().is_none_or(|l| (r, c) > l));
        debug_assert!(r < self.rows && c < self.cols);
        if self.row_ids.last() != Some(&r) {
            self.row_ids.push(r);
            self.starts.push(self.indices.len());
        }
        self.indices.push(c);
        self.values.push(v);
    }

    /// Joins `tail`, whose every entry lies in a row above this builder's
    /// last, onto the end (the halves of a row-partitioned kernel).
    pub(crate) fn concat(mut self, tail: SparseBuilder) -> SparseBuilder {
        debug_assert!(self.spill.is_empty() && tail.spill.is_empty());
        debug_assert!(self.row_ids.last() < tail.row_ids.first() || tail.row_ids.is_empty());
        let base = self.indices.len();
        self.row_ids.extend(tail.row_ids);
        self.starts.extend(tail.starts.iter().map(|s| s + base));
        self.indices.extend(tail.indices);
        self.values.extend(tail.values);
        self
    }

    /// The matrix of everything pushed.
    pub fn finish(mut self) -> SparseMatrix {
        if !self.spill.is_empty() {
            // The sort `from_triplets` has always used, on the same array:
            // which of three or more values at one coordinate is added first
            // is its choice, and sums — `corpus_hash` reads their last bit —
            // stay what they were.
            let mut entries = std::mem::take(&mut self.spill);
            entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
            for (r, c, v) in entries {
                self.merge(r, c, v);
            }
        }
        self.seal()
    }

    /// Closes the pointer array, in the layout the rule picks.
    fn seal(self) -> SparseMatrix {
        let SparseBuilder { rows, cols, row_ids, mut starts, indices, values, .. } = self;
        starts.push(indices.len());
        SparseMatrix::laid_out(rows, cols, row_ids, starts, indices, values)
    }
}

impl SparseMatrix {
    /// Builds from COO triplets in any order; duplicate coordinates are
    /// summed, explicit zeros dropped (the rules of [`SparseBuilder`]).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let triplets = triplets.into_iter();
        let mut b = SparseBuilder::new(rows, cols, triplets.size_hint().0);
        for (r, c, v) in triplets {
            b.push(r, c, v);
        }
        b.finish()
    }

    /// Builds from one entry per stored row: the rows (`row_ids`, strictly
    /// ascending) and the column and value of each, aligned. The bulk
    /// constructor of a cast from a table keyed and ordered by the row id:
    /// no per-entry push, no merge, no growth. The arrays are checked by
    /// one read of each, and the layout rule then applies as it does to a
    /// builder's arrays, stored row `k` starting at entry `k`.
    ///
    /// # Panics
    ///
    /// When the arrays break that shape: a row or column out of bounds, a
    /// row not above its predecessor, an explicit zero, or lengths that
    /// disagree.
    pub fn from_sorted_rows(
        rows: usize,
        cols: usize,
        row_ids: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        let n = row_ids.len();
        assert!(
            indices.len() == n && values.len() == n,
            "{n} row ids, {} indices, {} values",
            indices.len(),
            values.len()
        );
        // Folded without a branch: each check is one straight read.
        assert!(
            row_ids.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]))
                && row_ids.last().is_none_or(|&r| r < rows),
            "row ids not ascending below {rows}"
        );
        assert!(
            indices.iter().fold(true, |ok, &c| ok & (c < cols)),
            "a column index out of bounds {rows}x{cols}"
        );
        assert!(values.iter().fold(true, |ok, &v| ok & (v != 0.0)), "an explicit zero");
        SparseMatrix::laid_out(rows, cols, row_ids, (0..=n).collect(), indices, values)
    }

    /// The matrix over valid sorted-row arrays, in the layout the rule picks
    /// for them: kept as they are when compact, expanded to one pointer per
    /// row when flat.
    fn laid_out(
        rows: usize,
        cols: usize,
        row_ids: Vec<usize>,
        starts: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        if compact_pays(row_ids.len(), rows) {
            return SparseMatrix {
                rows,
                cols,
                row_ids: Some(row_ids),
                indptr: starts,
                indices,
                values,
            };
        }
        // Most rows are stored: one pointer per row. An empty row starts
        // (and ends) where the next stored row starts.
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut k = 0;
        for r in 0..rows {
            indptr.push(starts[k]);
            k += usize::from(row_ids.get(k) == Some(&r));
        }
        indptr.push(indices.len());
        SparseMatrix { rows, cols, row_ids: None, indptr, indices, values }
    }

    /// Builds directly from CSR arrays (caller guarantees validity). The
    /// caller has paid for a `rows + 1` pointer array, so it is kept: the
    /// result is in the flat layout.
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
        SparseMatrix { rows, cols, row_ids: None, indptr, indices, values }
    }

    /// All-zero sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseBuilder::new(rows, cols, 0).seal()
    }

    /// Sparse identity of order `n`.
    pub fn identity(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: n,
            row_ids: None,
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

    /// Column indices / values of the `k`-th slot.
    #[inline]
    fn slot(&self, k: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.indptr[k], self.indptr[k + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Column indices / values of row `r`: O(1) in the flat layout, a
    /// binary search over the stored rows in the compact one.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        debug_assert!(r < self.rows, "row {r} of {}", self.rows);
        match &self.row_ids {
            None => self.slot(r),
            Some(ids) => match ids.binary_search(&r) {
                Ok(k) => self.slot(k),
                Err(_) => (&[], &[]),
            },
        }
    }

    /// `(row, length)` of every non-empty row, ascending.
    fn row_lens(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.stored_rows().map(|(r, idx, _)| (r, idx.len())).filter(|&(_, len)| len > 0)
    }

    /// Stored values, in `(row, col)` order.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of the stored values, aligned with
    /// [`values`](Self::values).
    #[inline]
    pub(crate) fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of slots: the rows that have a pointer.
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.indptr.len() - 1
    }

    /// `(row, column indices, values)` of slots `range`, rows ascending.
    pub(crate) fn slot_rows(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, &[usize], &[f64])> + '_ {
        let (ids, indices, values) = (self.row_ids.as_deref(), &self.indices, &self.values);
        self.indptr[range.start..=range.end].windows(2).zip(range).map(move |(w, k)| {
            (ids.map_or(k, |ids| ids[k]), &indices[w[0]..w[1]], &values[w[0]..w[1]])
        })
    }

    /// Every row that can hold entries, ascending: the non-empty rows of a
    /// compact matrix, all rows of a flat one. What kernels iterate instead
    /// of `0..rows`.
    pub(crate) fn stored_rows(&self) -> impl Iterator<Item = (usize, &[usize], &[f64])> + '_ {
        self.slot_rows(0..self.slots())
    }

    /// [`stored_rows`](Self::stored_rows) restricted to rows `r0..r1`.
    pub(crate) fn stored_rows_in(
        &self,
        r0: usize,
        r1: usize,
    ) -> impl Iterator<Item = (usize, &[usize], &[f64])> + '_ {
        self.slot_rows(match &self.row_ids {
            None => r0..r1,
            Some(ids) => ids.partition_point(|&r| r < r0)..ids.partition_point(|&r| r < r1),
        })
    }

    /// Random access (O(log nnz_row) once the row is found).
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
        for (r, idx, vals) in self.stored_rows() {
            let out_row = out.row_mut(r);
            for (&c, &v) in idx.iter().zip(vals) {
                out_row[c] = v;
            }
        }
        out
    }

    /// Builds from a dense matrix, dropping zeros.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut b = SparseBuilder::new(d.rows(), d.cols(), 0);
        for r in 0..d.rows() {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    b.append(r, c, v);
                }
            }
        }
        b.seal()
    }

    /// Transpose. O(nnz log nnz) when the result has so few entries for its
    /// rows that it is compact whatever they are; otherwise a counting pass
    /// over the column ids, O(nnz + cols), whose pointer array — at most
    /// `COMPACT_RATIO * nnz` words — is kept, as `from_csr` keeps one.
    pub fn transpose(&self) -> SparseMatrix {
        let nnz = self.nnz();
        if compact_pays(nnz, self.cols) {
            let mut entries: Vec<_> = self.triplets().map(|(r, c, v)| (c, r, v)).collect();
            // Stable: within a column the row ids stay ascending.
            entries.sort_by_key(|&(c, _, _)| c);
            let mut b = SparseBuilder::new(self.cols, self.rows, nnz);
            for (c, r, v) in entries {
                b.append(c, r, v);
            }
            return b.seal();
        }
        let mut next = vec![0; self.cols + 1];
        for &c in &self.indices {
            next[c + 1] += 1;
        }
        for c in 0..self.cols {
            next[c + 1] += next[c];
        }
        let indptr = next.clone();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0f64; nnz];
        for (r, idx, vals) in self.stored_rows() {
            for (&c, &v) in idx.iter().zip(vals) {
                let pos = next[c];
                indices[pos] = r;
                values[pos] = v;
                next[c] += 1;
            }
        }
        SparseMatrix::from_csr(self.cols, self.rows, indptr, indices, values)
    }

    /// Iterator over stored `(row, col, value)` triplets, `(row, col)`
    /// ascending.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.stored_rows()
            .flat_map(|(r, idx, vals)| idx.iter().zip(vals).map(move |(&c, &v)| (r, c, v)))
    }

    /// Keeps only entries satisfying the predicate on `(row, col, value)`
    /// (and no explicit zero), compacted in row order.
    pub fn filter(&self, mut pred: impl FnMut(usize, usize, f64) -> bool) -> SparseMatrix {
        let mut b = SparseBuilder::new(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.triplets() {
            if pred(r, c, v) && v != 0.0 {
                b.append(r, c, v);
            }
        }
        b.seal()
    }

    /// Applies `f` to every stored value (implicit zeros untouched; results
    /// that become zero are dropped).
    pub fn map_values(&self, mut f: impl FnMut(f64) -> f64) -> SparseMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        if out.values.contains(&0.0) {
            out.filter(|_, _, _| true)
        } else {
            out
        }
    }

    /// Drops explicit zeros.
    pub fn prune(&self) -> SparseMatrix {
        if self.values.contains(&0.0) {
            self.filter(|_, _, _| true)
        } else {
            self.clone()
        }
    }
}

#[cfg(test)]
impl SparseMatrix {
    /// Whether row pointers are kept for the stored rows only.
    pub(crate) fn is_compact(&self) -> bool {
        self.row_ids.is_some()
    }

    /// The same content forced into the flat layout through `from_csr`.
    pub(crate) fn flat_twin(&self) -> SparseMatrix {
        let mut indptr = vec![0; self.rows + 1];
        for (r, _, _) in self.triplets() {
            indptr[r + 1] += 1;
        }
        for r in 0..self.rows {
            indptr[r + 1] += indptr[r];
        }
        let flat = SparseMatrix::from_csr(
            self.rows,
            self.cols,
            indptr,
            self.indices.clone(),
            self.values.clone(),
        );
        assert!(!flat.is_compact());
        flat
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

    /// The parent commit's `from_triplets` (comparison sort, zeroed
    /// `rows + 1` pointer array, forward-fill), verbatim: the oracle the
    /// builder is compared against.
    fn oracle(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> SparseMatrix {
        let mut trips: Vec<(usize, usize, f64)> =
            triplets.iter().copied().filter(|&(_, _, v)| v != 0.0).collect();
        trips.sort_unstable_by_key(|t| (t.0, t.1));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(trips.len());
        let mut values: Vec<f64> = Vec::with_capacity(trips.len());
        for (r, c, v) in trips {
            if let (Some(&last_c), true) = (indices.last(), indptr[r + 1] > 0) {
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
        for r in 0..rows {
            if indptr[r + 1] < indptr[r] {
                indptr[r + 1] = indptr[r];
            }
        }
        SparseMatrix::from_csr(rows, cols, indptr, indices, values)
    }

    fn assert_same(got: &SparseMatrix, want: &SparseMatrix, what: &str) {
        assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
        let bits = |m: &SparseMatrix| {
            m.triplets().map(|(r, c, v)| (r, c, v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(got), bits(want), "{what}: triplets");
        for r in 0..want.rows() {
            for c in 0..want.cols() {
                assert_eq!(
                    got.get(r, c).to_bits(),
                    want.get(r, c).to_bits(),
                    "{what}: ({r},{c})"
                );
            }
        }
        assert_eq!(got, want, "{what}: ==");
        assert_eq!(want, got, "{what}: == the other way");
    }

    /// A bag of `n` triplets over `stored` of the rows: values are multiples
    /// of 0.5 in `[-1.5, 1.5]` (sums are exact in any order; explicit zeros
    /// and duplicates that cancel both occur).
    fn bag(
        rng: &mut crate::rng::Rng64,
        rows: usize,
        cols: usize,
        stored: usize,
        n: usize,
    ) -> Vec<(usize, usize, f64)> {
        let stride = rows / stored.max(1);
        (0..n)
            .map(|_| {
                let r = rng.range_usize(stored) * stride;
                (r, rng.range_usize(cols), rng.range_i64(-3, 3) as f64 * 0.5)
            })
            .collect()
    }

    #[test]
    fn sparse_builder_agrees_with_the_parent_from_triplets() {
        let mut rng = crate::rng::Rng64::new(22);
        // (rows, cols, rows drawn from): on both sides of the layout rule —
        // 9 of 40 rows is compact, 10 of 40 is not — down to one stored row
        // and up to every row.
        let shapes = [
            (1, 1, 1),
            (3, 4, 3),
            (40, 6, 9),
            (40, 6, 10),
            (40, 2, 40),
            (64, 5, 1),
            (64, 3, 2),
            (200, 3, 7),
            (200, 3, 200),
        ];
        for &(rows, cols, stored) in &shapes {
            for n in [0, 1, 2, 7, 30, 120] {
                let trips = bag(&mut rng, rows, cols, stored, n);
                let want = oracle(rows, cols, &trips);
                let what = format!("{rows}x{cols} over {stored} rows, {n} triplets");
                let got = SparseMatrix::from_triplets(rows, cols, trips.clone());
                assert_same(&got, &want, &what);
                let kept =
                    got.triplets().map(|t| t.0).collect::<std::collections::BTreeSet<_>>();
                assert_eq!(got.is_compact(), compact_pays(kept.len(), rows), "{what}: layout");
                // The same bag in (row, col) order takes the streaming path.
                let mut sorted = trips;
                sorted.sort_by_key(|t| (t.0, t.1));
                assert_same(&SparseMatrix::from_triplets(rows, cols, sorted), &want, &what);
            }
        }
    }

    /// The three arrays of zero-free triplets with strictly ascending rows,
    /// as a keyed cast writes them.
    type RowArrays = (Vec<usize>, Vec<usize>, Vec<f64>);

    fn row_arrays(entries: &[(usize, usize, f64)]) -> RowArrays {
        (
            entries.iter().map(|e| e.0).collect(),
            entries.iter().map(|e| e.1).collect(),
            entries.iter().map(|e| e.2).collect(),
        )
    }

    #[test]
    fn sorted_rows_build_what_the_builder_builds_and_refuse_anything_else() {
        let mut rng = crate::rng::Rng64::new(35);
        for &(rows, cols, stored) in
            &[(1, 1, 1), (40, 6, 9), (40, 6, 10), (64, 5, 64), (200, 3, 7)]
        {
            for n in [0, 1, 7, 30, 120] {
                let mut entries = bag(&mut rng, rows, cols, stored, n);
                entries.retain(|e| e.2 != 0.0);
                entries.sort_by_key(|e| (e.0, e.1));
                entries.dedup_by_key(|e| e.0);
                let (ids, idx, vals) = row_arrays(&entries);
                let got = SparseMatrix::from_sorted_rows(rows, cols, ids, idx, vals);
                let want = SparseMatrix::from_triplets(rows, cols, entries);
                assert_same(&got, &want, &format!("{rows}x{cols} over {stored} rows, {n}"));
                assert_eq!(got.is_compact(), want.is_compact());
            }
        }
        let ok = [(0, 1, 1.0), (2, 2, -2.0), (3, 0, 0.5)];
        let refused = |entries: &[(usize, usize, f64)], edit: &dyn Fn(&mut RowArrays)| {
            let mut arrays = row_arrays(entries);
            edit(&mut arrays);
            let (ids, idx, vals) = arrays;
            std::panic::catch_unwind(|| SparseMatrix::from_sorted_rows(4, 3, ids, idx, vals))
                .is_err()
        };
        assert!(!refused(&ok, &|_| {}));
        assert!(!refused(&[], &|_| {}));
        // A row or column out of bounds, two entries in a row, rows out of
        // order, an explicit zero (`-0.0` is one), lengths that disagree.
        assert!(refused(&[(0, 1, 1.0), (4, 0, 1.0)], &|_| {}));
        assert!(refused(&[(0, 1, 1.0), (2, 3, 1.0)], &|_| {}));
        assert!(refused(&[(0, 1, 1.0), (0, 2, 1.0)], &|_| {}));
        assert!(refused(&[(2, 0, 1.0), (1, 0, 1.0)], &|_| {}));
        assert!(refused(&ok, &|a| a.2[1] = -0.0));
        assert!(refused(&ok, &|a| a.0.push(3)));
        assert!(refused(&ok, &|a| a.2.pop().map_or((), drop)));
    }

    #[test]
    fn sparse_layout_follows_the_rule_and_equality_ignores_it() {
        let diag = |rows: usize, stored: usize| {
            SparseMatrix::from_triplets(
                rows,
                3,
                (0..stored).map(|k| (k * 4, k % 3, 1.0 + k as f64)),
            )
        };
        let (few, many) = (diag(40, 9), diag(40, 10));
        assert!(few.is_compact() && few.slots() == 9);
        assert!(!many.is_compact() && many.slots() == 40);
        assert!(SparseMatrix::zeros(40, 3).is_compact());
        assert!(!SparseMatrix::zeros(0, 3).is_compact());
        assert!(!SparseMatrix::identity(5).is_compact());
        // Content equality across layouts, both ways; a differing cell,
        // row or shape is still unequal.
        let twin = few.flat_twin();
        assert_eq!(few, twin);
        assert_eq!(twin, few);
        assert_eq!(few.row(8), twin.row(8));
        assert_eq!(few.row(9), twin.row(9));
        assert_ne!(few, diag(40, 8).flat_twin());
        assert_ne!(few, few.filter(|r, _, _| r != 4));
        assert_ne!(few.flat_twin(), few.map_values(|v| v + 1.0));
        assert_ne!(SparseMatrix::zeros(40, 3), SparseMatrix::zeros(41, 3));
        // Rebuilding kernels re-apply the rule to what they keep.
        assert!(many.filter(|r, _, _| r < 8).is_compact());
        assert!(!few.transpose().is_compact(), "3 x 40 with every row stored");
        assert!(few.transpose().transpose().is_compact());
        assert!(SparseMatrix::from_dense(&few.to_dense()).is_compact());
    }

    #[test]
    fn sparse_rebuilds_keep_order_and_drop_zeros() {
        for m in [
            SparseMatrix::from_triplets(50, 4, vec![(7, 1, 2.0), (7, 3, -2.0), (30, 0, 0.5)]),
            SparseMatrix::from_triplets(4, 4, vec![(0, 1, 2.0), (1, 3, -2.0), (3, 0, 0.5)]),
        ] {
            assert_eq!(m.prune(), m);
            let halved = m.map_values(|v| v * 0.5);
            assert_eq!(halved.nnz(), 3);
            assert_eq!(halved.get(m.triplets().next().unwrap().0, 1), 1.0);
            // A value mapped to zero is dropped, and its row with it.
            let clipped = m.map_values(|v| v.max(0.0) - 0.5);
            assert_eq!(clipped.triplets().count(), 2);
            assert_eq!(clipped.nnz(), 2);
            assert_eq!(clipped, clipped.flat_twin());
            assert_eq!(m.filter(|_, c, _| c != 3).nnz(), 2);
            assert_eq!(m.to_dense(), m.flat_twin().to_dense());
        }
        // Explicit zeros (a cancelled duplicate) survive construction, as
        // before, and `prune` removes them.
        let cancelled =
            SparseMatrix::from_triplets(9, 2, vec![(8, 1, 1.0), (8, 1, -1.0), (2, 0, 3.0)]);
        assert_eq!(cancelled.nnz(), 2);
        assert_eq!(cancelled.prune().nnz(), 1);
        assert_eq!(cancelled.prune().triplets().collect::<Vec<_>>(), vec![(2, 0, 3.0)]);
    }
}
