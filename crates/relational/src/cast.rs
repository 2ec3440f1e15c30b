//! Table ↔ matrix conversions (paper §3: "a matrix can be implicitly
//! converted into a relation (the order among matrix rows is lost), and the
//! opposite conversion (each tuple becomes a matrix line...)").

use hadad_linalg::{DenseMatrix, Matrix, SparseBuilder, SparseMatrix};

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
/// passes typed on all three. The first reads them without allocating: a
/// table whose ids are all in range, whose values are all non-zero and
/// whose row ids strictly ascend — one entry per matrix row, as a
/// selection over a table or view keyed and ordered by the row id gives —
/// is then written in bulk, one exact-size collect per matrix array, into
/// [`SparseMatrix::from_sorted_rows`]. Any other table hands its entries
/// one at a time to a [`SparseBuilder`], which writes an in-order run
/// straight into the matrix and sorts anything else once. Either way the
/// cast is O(table rows), whatever `rows` is.
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
    let cast = typed(rc, cc, vc, Cast { rows, cols })
        // No string cell is an id: nothing is stored.
        .unwrap_or_else(|| SparseMatrix::zeros(rows, cols));
    Matrix::Sparse(cast)
}

/// A cell of an id column.
trait IdCell: Copy {
    /// The cell's integer key, or `u64::MAX` for a negative cell or one
    /// without a key: past every bound.
    fn key(self) -> u64;

    /// The cell's id, when it is below `bound`.
    fn id(self, bound: usize) -> Option<usize> {
        let k = self.key();
        (k < bound as u64).then_some(k as usize)
    }
}

impl IdCell for i64 {
    fn key(self) -> u64 {
        u64::try_from(self).unwrap_or(u64::MAX)
    }
}

impl IdCell for f64 {
    fn key(self) -> u64 {
        float_key(self).map_or(u64::MAX, i64::key)
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

/// A pass over the three columns of a sparse cast, typed on all three.
trait CastPass {
    type Out;
    fn run<R: IdCell, C: IdCell, V: ValCell>(self, r: &[R], c: &[C], v: &[V]) -> Self::Out;
}

/// Runs `pass` over the columns' typed cells; `None` when an id column
/// holds strings.
fn typed<P: CastPass>(rc: &Column, cc: &Column, vc: &Column, pass: P) -> Option<P::Out> {
    fn by_col<P: CastPass, R: IdCell>(
        r: &[R],
        cc: &Column,
        vc: &Column,
        p: P,
    ) -> Option<P::Out> {
        match cc {
            Column::Int(c) => Some(by_val(r, c, vc, p)),
            Column::Float(c) => Some(by_val(r, c, vc, p)),
            Column::Str(_) => None,
        }
    }
    fn by_val<P: CastPass, R: IdCell, C: IdCell>(
        r: &[R],
        c: &[C],
        vc: &Column,
        p: P,
    ) -> P::Out {
        match vc {
            Column::Int(v) => p.run(r, c, v),
            Column::Float(v) => p.run(r, c, v),
            Column::Str(v) => p.run(r, c, v),
        }
    }
    match rc {
        Column::Int(r) => by_col(r, cc, vc, pass),
        Column::Float(r) => by_col(r, cc, vc, pass),
        Column::Str(_) => None,
    }
}

/// The cast into a `rows x cols` matrix: in bulk when the table allows it,
/// entry by entry otherwise.
struct Cast {
    rows: usize,
    cols: usize,
}

impl CastPass for Cast {
    type Out = SparseMatrix;
    fn run<R: IdCell, C: IdCell, V: ValCell>(self, r: &[R], c: &[C], v: &[V]) -> SparseMatrix {
        let Cast { rows, cols } = self;
        bulk(r, c, v, rows, cols).unwrap_or_else(|| {
            let mut out = SparseBuilder::new(rows, cols, r.len());
            for ((r, c), v) in r.iter().zip(c).zip(v) {
                if let (Some(r), Some(c)) = (r.id(rows), c.id(cols)) {
                    out.push(r, c, v.val());
                }
            }
            out.finish()
        })
    }
}

/// The bulk cast of a table every row of which is an entry and holds the
/// only entry of its matrix row, row ids strictly ascending; `None`,
/// having allocated nothing, for any other table.
fn bulk<R: IdCell, C: IdCell, V: ValCell>(
    r: &[R],
    c: &[C],
    v: &[V],
    rows: usize,
    cols: usize,
) -> Option<SparseMatrix> {
    if !one_per_row(r, c, v, rows, cols) {
        return None;
    }
    let row_ids = r.iter().map(|r| r.key() as usize).collect();
    let indices = c.iter().map(|c| c.key() as usize).collect();
    let values = v.iter().map(ValCell::val).collect();
    Some(SparseMatrix::from_sorted_rows(rows, cols, row_ids, indices, values))
}

/// Whether every row is an entry — both ids in range, the value non-zero —
/// with row ids strictly ascending, so `(row, col)` strictly ascends too.
/// Reads the columns once, stops at the first row that is not, and
/// allocates nothing.
fn one_per_row<R: IdCell, C: IdCell, V: ValCell>(
    r: &[R],
    c: &[C],
    v: &[V],
    rows: usize,
    cols: usize,
) -> bool {
    let mut last = None;
    r.iter().zip(c).zip(v).all(|((r, c), v)| {
        let at = r.id(rows);
        let ok = at.is_some() && last < at && c.id(cols).is_some() && v.val() != 0.0;
        last = at;
        ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadad_linalg::rng::Rng64;

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

    /// [`bulk`] alone, without the fallback.
    struct BulkOnly {
        rows: usize,
        cols: usize,
    }

    impl CastPass for BulkOnly {
        type Out = Option<SparseMatrix>;
        fn run<R: IdCell, C: IdCell, V: ValCell>(self, r: &[R], c: &[C], v: &[V]) -> Self::Out {
            bulk(r, c, v, self.rows, self.cols)
        }
    }

    /// Stored entries, values as bits (`NaN` is a value too).
    fn bits(m: &Matrix) -> Vec<(usize, usize, u64)> {
        m.to_sparse().triplets().map(|(r, c, v)| (r, c, v.to_bits())).collect()
    }

    /// Whether every row of `t` is an entry — ids in range, value non-zero
    /// — with row ids strictly ascending: the tables the bulk path must
    /// take, spelled out cell by cell.
    fn one_entry_per_row(t: &Table, rows: usize, cols: usize) -> bool {
        let (rc, cc, vc) =
            (t.column("r").unwrap(), t.column("c").unwrap(), t.column("v").unwrap());
        let id = |c: &Column, i: usize, bound: usize| {
            c.key_at(i).and_then(|k| usize::try_from(k).ok()).filter(|&k| k < bound)
        };
        let mut last = None;
        (0..t.num_rows()).all(|i| {
            let row = id(rc, i, rows);
            let ok = row.is_some()
                && id(cc, i, cols).is_some()
                && vc.numeric(i) != 0.0
                && last < row;
            last = row;
            ok
        })
    }

    /// `n` sorted `(row, col)` coordinates: distinct rows, or a few rows
    /// holding several entries each.
    fn sorted_coords(
        rng: &mut Rng64,
        n: usize,
        rows: usize,
        cols: usize,
        per_row: bool,
    ) -> Vec<(f64, f64)> {
        let from = if per_row { rows } else { 1 + n / 3 };
        let mut coords: Vec<(usize, usize)> =
            (0..n).map(|_| (rng.range_usize(from), rng.range_usize(cols))).collect();
        coords.sort_unstable();
        if per_row {
            coords.dedup_by_key(|c| c.0);
        } else {
            coords.dedup();
        }
        coords.into_iter().map(|(r, c)| (r as f64, c as f64)).collect()
    }

    /// Seeded tables of at most 64 rows over every column-type triple:
    /// sorted with one entry per row and with several, and each corner one
    /// cell away from sorted — a `(row, col)` tie at the end, an
    /// out-of-range id first or last, a zero, `-0.0` or `NaN` value,
    /// fractional and non-finite float ids, two entries swapped. The cast
    /// equals the oracle bit for bit, and the bulk pass takes exactly the
    /// sorted tables with one entry per row; several entries in a row go
    /// to the builder.
    #[test]
    fn the_bulk_cast_takes_exactly_one_entry_per_ascending_row_and_agrees_with_the_oracle() {
        let mut rng = Rng64::new(35);
        let cols = 5;
        let mut taken = [0usize; 2];
        for kind in 0..8 {
            for ty in 0..27 {
                let (rt, ct, vt) = (ty / 9, ty / 3 % 3, ty % 3);
                let rows = [64, 1000][rng.range_usize(2)];
                let n = 1 + rng.range_usize(if kind == 2 { 63 } else { 64 });
                let mut coords = sorted_coords(&mut rng, n, rows, cols, kind != 1);
                let mut vals: Vec<f64> = coords
                    .iter()
                    .map(|_| [-2.0, -1.0, 1.0, 3.0, 7.0][rng.range_usize(5)])
                    .collect();
                let last = coords.len() - 1;
                let at = rng.range_usize(coords.len());
                let far = [-1.0, rows as f64, 1e18][rng.range_usize(3)];
                match kind {
                    2 => {
                        coords.push(coords[last]);
                        vals.push(1.0);
                    }
                    3 => coords[0].0 = far,
                    4 => coords[last].1 = far.min(cols as f64),
                    5 => vals[at] = [0.0, -0.0, f64::NAN][rng.range_usize(3)],
                    6 => {
                        let odd =
                            [2.5, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
                        let odd = odd[rng.range_usize(odd.len())];
                        if rng.range_usize(2) == 0 {
                            coords[at].0 = odd;
                        } else {
                            coords[at].1 = odd;
                        }
                    }
                    7 if last > 0 => coords.swap(at, (at + 1) % (last + 1)),
                    _ => {}
                }
                let ids = |ty: usize, xs: Vec<f64>| match ty {
                    0 => Column::Int(xs.iter().map(|&x| x as i64).collect()),
                    1 => Column::Float(xs),
                    _ => Column::Str(xs.iter().map(f64::to_string).collect()),
                };
                let t = Table::new(vec![
                    ("r", ids(rt, coords.iter().map(|c| c.0).collect())),
                    ("c", ids(ct, coords.iter().map(|c| c.1).collect())),
                    ("v", ids(vt, vals)),
                ]);
                let what = format!("kind {kind}, types {rt}{ct}{vt}, {rows} rows, {n} drawn");
                let want = bits(&oracle(&t, ("r", "c"), "v", rows, cols));
                assert_eq!(
                    bits(&table_to_sparse(&t, "r", "c", "v", rows, cols)),
                    want,
                    "{what}"
                );
                let (rc, cc, vc) =
                    (t.column("r").unwrap(), t.column("c").unwrap(), t.column("v").unwrap());
                let bulk = typed(rc, cc, vc, BulkOnly { rows, cols }).flatten();
                let keyed = one_entry_per_row(&t, rows, cols);
                assert_eq!(bulk.is_some(), keyed, "{what}");
                if let Some(m) = bulk {
                    assert_eq!(bits(&Matrix::Sparse(m)), want, "{what}");
                }
                taken[usize::from(keyed)] += 1;
            }
        }
        // Both sides of the line are exercised.
        assert!(taken.iter().all(|&k| k > 10), "{taken:?}");
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
}
