//! Table ↔ matrix conversions (paper §3: "a matrix can be implicitly
//! converted into a relation (the order among matrix rows is lost), and the
//! opposite conversion (each tuple becomes a matrix line...)").

use hadad_linalg::{DenseMatrix, Matrix, SparseMatrix};

use crate::table::{Column, Table};

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

/// Casts all columns of a table into a dense matrix.
pub fn table_to_matrix_all(t: &Table) -> Matrix {
    let names: Vec<&str> = t.column_names().iter().map(std::string::String::as_str).collect();
    table_to_matrix(t, &names)
}

/// Builds an ultra-sparse `rows x cols` matrix from (row-id, col-id, value)
/// columns — the construction of the tweet-hashtag filter-level matrix `N`
/// in the paper's §2 and of the MIMIC patient-service matrix in §9.2.2.
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
    // An id is the cell's integer key, in range: negative, non-integral and
    // string ids are dropped with the out-of-range ones.
    let id = |c: &Column, r: usize, bound: usize| {
        c.key_at(r).and_then(|k| usize::try_from(k).ok()).filter(|&k| k < bound)
    };
    let entry = |r: usize, v: f64| Some((id(rc, r, rows)?, id(cc, r, cols)?, v));
    let n = 0..t.num_rows();
    let triplets: Vec<(usize, usize, f64)> = match vc {
        Column::Int(v) => n.filter_map(|r| entry(r, v[r] as f64)).collect(),
        Column::Float(v) => n.filter_map(|r| entry(r, v[r])).collect(),
        Column::Str(_) => n.filter_map(|r| entry(r, vc.numeric(r))).collect(),
    };
    Matrix::Sparse(SparseMatrix::from_triplets(rows, cols, triplets))
}

/// Casts a matrix back into a table with synthesized column names
/// `c0, c1, ...` (row order is whatever the matrix had; the relational view
/// forgets it, per the paper's data model).
pub fn matrix_to_table(m: &Matrix) -> Table {
    let d = m.to_dense();
    let cols: Vec<(String, Column)> = (0..d.cols())
        .map(|c| {
            let data: Vec<f64> = (0..d.rows()).map(|r| d.get(r, c)).collect();
            (format!("c{c}"), Column::Float(data))
        })
        .collect();
    Table::new(cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect())
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
}
