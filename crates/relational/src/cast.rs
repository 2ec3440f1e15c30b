//! Table ↔ matrix conversions (paper §3: "a matrix can be implicitly
//! converted into a relation (the order among matrix rows is lost), and the
//! opposite conversion (each tuple becomes a matrix line...)").

use hadad_linalg::{DenseMatrix, Matrix, SparseBuilder};

use crate::table::{float_key, str_numeric, Column, Table};

/// Casts the named numeric columns of a table into a dense matrix, one row
/// per tuple in the table's current row order. Each column is resolved once
/// and written down its matrix column by a loop typed on the column.
pub fn table_to_matrix(t: &Table, cols: &[&str]) -> Matrix {
    let width = cols.len();
    let mut out = DenseMatrix::zeros(t.num_rows(), width);
    let data = out.data_mut();
    for (j, c) in cols.iter().enumerate() {
        let column = t.column(c).unwrap_or_else(|| panic!("no column {c}"));
        let cells = data.iter_mut().skip(j).step_by(width);
        match column {
            Column::Int(v) => cells.zip(v).for_each(|(d, x)| *d = *x as f64),
            Column::Float(v) => cells.zip(v).for_each(|(d, x)| *d = *x),
            Column::Str(_) => {
                cells.enumerate().for_each(|(r, d)| *d = column.numeric(r));
            }
        }
    }
    Matrix::Dense(out)
}

/// Builds an ultra-sparse `rows x cols` matrix from (row-id, col-id, value)
/// columns — the construction of the tweet-hashtag filter-level matrix `N`
/// in the paper's §2 and of the MIMIC patient-service matrix in §9.2.2.
///
/// An id is the cell's integer key, in range: negative, non-integral and
/// string ids are dropped with the out-of-range ones; values at one
/// coordinate are summed. The three columns are resolved once and read by
/// one loop typed on all three, which hands each entry to a
/// [`SparseBuilder`]: a table in `(row, col)` order — any prefix result
/// sorted on its row id — is written straight into the matrix in
/// O(table rows), whatever `rows` is; anything else is sorted once.
pub fn table_to_sparse(
    t: &Table,
    row_col: &str,
    col_col: &str,
    val_col: &str,
    rows: usize,
    cols: usize,
) -> Matrix {
    let rc = t.column(row_col).unwrap_or_else(|| panic!("no column {row_col}"));
    let cc = t.column(col_col).unwrap_or_else(|| panic!("no column {col_col}"));
    let vc = t.column(val_col).unwrap_or_else(|| panic!("no column {val_col}"));
    let mut out = SparseBuilder::new(rows, cols, t.num_rows());
    match rc {
        Column::Int(r) => entries_by_col(&mut out, r, cc, vc),
        Column::Float(r) => entries_by_col(&mut out, r, cc, vc),
        Column::Str(_) => {}
    }
    Matrix::Sparse(out.finish())
}

/// A cell of an id column: its integer key, when it has one below `bound`.
trait IdCell: Copy {
    fn id(self, bound: usize) -> Option<usize>;
}

impl IdCell for i64 {
    fn id(self, bound: usize) -> Option<usize> {
        usize::try_from(self).ok().filter(|&k| k < bound)
    }
}

impl IdCell for f64 {
    fn id(self, bound: usize) -> Option<usize> {
        float_key(self)?.id(bound)
    }
}

/// A cell of a value column, as [`Column::numeric`] reads it.
trait ValCell {
    fn val(&self) -> f64;
}

impl ValCell for i64 {
    fn val(&self) -> f64 {
        *self as f64
    }
}

impl ValCell for f64 {
    fn val(&self) -> f64 {
        *self
    }
}

impl ValCell for String {
    fn val(&self) -> f64 {
        str_numeric(self)
    }
}

fn entries_by_col<R: IdCell>(out: &mut SparseBuilder, r: &[R], cc: &Column, vc: &Column) {
    match cc {
        Column::Int(c) => entries_by_val(out, r, c, vc),
        Column::Float(c) => entries_by_val(out, r, c, vc),
        Column::Str(_) => {}
    }
}

fn entries_by_val<R: IdCell, C: IdCell>(
    out: &mut SparseBuilder,
    r: &[R],
    c: &[C],
    vc: &Column,
) {
    match vc {
        Column::Int(v) => entries(out, r, c, v),
        Column::Float(v) => entries(out, r, c, v),
        Column::Str(v) => entries(out, r, c, v),
    }
}

fn entries<R: IdCell, C: IdCell, V: ValCell>(
    out: &mut SparseBuilder,
    r: &[R],
    c: &[C],
    v: &[V],
) {
    let (rows, cols) = out.shape();
    for ((r, c), v) in r.iter().zip(c).zip(v) {
        if let (Some(r), Some(c)) = (r.id(rows), c.id(cols)) {
            out.push(r, c, v.val());
        }
    }
}

/// Casts a matrix back into a table with synthesized column names
/// `c0, c1, ...` (row order is whatever the matrix had; the relational view
/// forgets it, per the paper's data model). Each column is built once —
/// strided out of a dense matrix, scattered from the stored entries of a
/// sparse one — and moved into the table.
pub fn matrix_to_table(m: &Matrix) -> Table {
    let columns: Vec<Vec<f64>> = match m {
        Matrix::Dense(d) => (0..d.cols())
            .map(|c| d.data().iter().skip(c).step_by(d.cols()).copied().collect())
            .collect(),
        Matrix::Sparse(s) => {
            let mut columns = vec![vec![0.0; s.rows()]; s.cols()];
            for (r, c, v) in s.triplets() {
                columns[c][r] = v;
            }
            columns
        }
    };
    let names: Vec<String> = (0..m.cols()).map(|c| format!("c{c}")).collect();
    Table::new(
        names.iter().map(String::as_str).zip(columns.into_iter().map(Column::Float)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Value;

    #[test]
    fn dense_cast_roundtrip() {
        let t = Table::new(vec![
            ("a", Column::Int(vec![1, 2])),
            ("b", Column::Float(vec![0.5, 1.5])),
        ]);
        let m = table_to_matrix(&t, &["a", "b"]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.5);
        let back = matrix_to_table(&m);
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.value(1, "c0"), Value::Float(2.0));
    }

    #[test]
    fn sparse_cast_builds_coo() {
        let t = Table::new(vec![
            ("tweet", Column::Int(vec![0, 5, 9])),
            ("hashtag", Column::Int(vec![1, 2, 0])),
            ("level", Column::Int(vec![3, 1, 4])),
        ]);
        let m = table_to_sparse(&t, "tweet", "hashtag", "level", 10, 3);
        assert!(m.is_sparse());
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(5, 2), 1.0);
        assert_eq!(m.get(9, 0), 4.0);
    }

    #[test]
    fn sparse_cast_drops_out_of_range() {
        let t = Table::new(vec![
            ("r", Column::Int(vec![0, 99, -1, 3])),
            ("c", Column::Int(vec![0, 0, 0, -1])),
            ("v", Column::Int(vec![1, 1, 1, 1])),
        ]);
        // Row 99 is past the shape; a negative id (either column) is no id.
        let m = table_to_sparse(&t, "r", "c", "v", 10, 1);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 1.0);
    }

    /// The parent commit's `table_to_sparse`, verbatim: every cell through
    /// `key_at` / `numeric`, an intermediate triplet vector, `from_triplets`.
    fn oracle(t: &Table, ids: (&str, &str), val: &str, rows: usize, cols: usize) -> Matrix {
        let (rc, cc) = (t.column(ids.0).unwrap(), t.column(ids.1).unwrap());
        let vc = t.column(val).unwrap();
        let id = |c: &Column, r: usize, bound: usize| {
            c.key_at(r).and_then(|k| usize::try_from(k).ok()).filter(|&k| k < bound)
        };
        let triplets: Vec<(usize, usize, f64)> = (0..t.num_rows())
            .filter_map(|r| Some((id(rc, r, rows)?, id(cc, r, cols)?, vc.numeric(r))))
            .collect();
        Matrix::sparse(rows, cols, triplets)
    }

    #[test]
    fn sparse_cast_agrees_with_the_parent_on_every_column_type() {
        // In order, out of order, duplicated coordinates, and ids that are
        // negative, fractional, past the shape, not finite or not numbers.
        let n = 12usize;
        let int_ids = |f: &dyn Fn(i64) -> i64| Column::Int((0..n as i64).map(f).collect());
        let float_ids = |f: &dyn Fn(i64) -> f64| Column::Float((0..n as i64).map(f).collect());
        let row_ids = [
            int_ids(&|i| i * 3),
            int_ids(&|i| (i * 7) % 12 * 3),
            int_ids(&|i| [5, -1, 5, 99, 0, 5, 35, 36, 2, 2, i64::MAX, 1][i as usize]),
            float_ids(&|i| i as f64 * 3.0),
            float_ids(&|i| {
                [
                    4.0,
                    2.5,
                    -0.0,
                    -3.0,
                    f64::NAN,
                    1e300,
                    35.0,
                    36.0,
                    7.0,
                    7.0,
                    1.0,
                    f64::INFINITY,
                ][i as usize]
            }),
            Column::Str((0..n).map(|i| i.to_string()).collect()),
        ];
        let col_ids = [
            int_ids(&|i| i % 4),
            int_ids(&|i| 3 - i % 4),
            int_ids(&|i| [0, 1, 0, 2, -2, 0, 3, 3, 4, 1, 1, 2][i as usize]),
            float_ids(&|i| (i % 4) as f64),
            float_ids(&|i| if i % 5 == 0 { 0.5 } else { (i % 3) as f64 }),
            Column::Str(vec!["1".into(); n]),
        ];
        let vals = [
            Column::Int((0..n as i64).map(|i| i % 3 - 1).collect()),
            Column::Float((0..n).map(|i| i as f64 * 0.5 - 2.0).collect()),
            Column::Str((0..n).map(|i| format!("s{}", i % 5)).collect()),
        ];
        for (ri, r) in row_ids.iter().enumerate() {
            for (ci, c) in col_ids.iter().enumerate() {
                for (vi, v) in vals.iter().enumerate() {
                    let t =
                        Table::new(vec![("r", r.clone()), ("c", c.clone()), ("v", v.clone())]);
                    // 36 x 4 takes the flat layout, 360 x 4 the compact one.
                    for rows in [36, 360] {
                        let got = table_to_sparse(&t, "r", "c", "v", rows, 4);
                        let want = oracle(&t, ("r", "c"), "v", rows, 4);
                        assert_eq!(
                            got, want,
                            "row ids {ri}, col ids {ci}, values {vi}, {rows} rows"
                        );
                        assert_eq!(got.nnz(), want.nnz());
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_cast_costs_what_it_stores_not_the_id_space() {
        // A 2^40-row id space: a flat row-pointer array would be 8 TiB.
        let rows = 1usize << 40;
        let t = Table::new(vec![
            ("r", Column::Int(vec![5, 1 << 39, (1 << 40) - 1])),
            ("c", Column::Int(vec![7, 0, 7])),
            ("v", Column::Float(vec![1.5, -2.0, 4.0])),
        ]);
        let m = table_to_sparse(&t, "r", "c", "v", rows, 8);
        assert_eq!(m.shape(), (rows, 8));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1 << 39, 0), -2.0);
        assert_eq!(m.get(rows - 1, 7), 4.0);
        assert_eq!(m.get(6, 7), 0.0);
        assert_eq!(m.sum(), 3.5);
        assert_eq!(m.col_sums().to_dense().data(), &[-2.0, 0., 0., 0., 0., 0., 0., 5.5]);
        assert_eq!(hadad_linalg::ops::aggregates::min(&m), -2.0);
        let back = m.transpose().transpose();
        assert_eq!(back, m);
        assert_eq!(m.transpose().get(7, rows - 1), 4.0);
        assert!(hadad_linalg::approx_eq(&back, &m, 0.0));
    }

    #[test]
    fn matrix_to_table_reads_dense_and_sparse_alike() {
        let s = Matrix::sparse(3, 2, vec![(0, 1, 2.0), (2, 0, -1.0)]);
        let from_sparse = matrix_to_table(&s);
        assert_eq!(from_sparse, matrix_to_table(&Matrix::Dense(s.to_dense())));
        assert_eq!(from_sparse.column_names(), ["c0", "c1"]);
        assert_eq!(from_sparse.column("c1"), Some(&Column::Float(vec![2.0, 0.0, 0.0])));
        assert_eq!(matrix_to_table(&Matrix::zeros(2, 0)).num_cols(), 0);
    }
}
