//! Aggregation kernels: full / row-wise / column-wise sums, min, max, mean,
//! variance, and trace. These are the operations SystemML's rewrite-rule
//! catalogue (paper Appendix B) reorders to avoid large intermediates.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Sum of all cells. A sparse matrix sums its stored values in `(row, col)`
/// order, from the start value [`Sum`](std::iter::Sum) uses.
pub fn sum(a: &Matrix) -> f64 {
    match a {
        Matrix::Dense(d) => d.data().iter().sum(),
        Matrix::Sparse(s) => s.values().iter().sum(),
    }
}

/// Column vector (`rows x 1`) of per-row sums. A stored sparse row adds its
/// values left to right onto `0.0`.
pub fn row_sums(a: &Matrix) -> Matrix {
    let mut out = DenseMatrix::zeros(a.rows(), 1);
    match a {
        Matrix::Dense(d) => {
            for r in 0..d.rows() {
                out.set(r, 0, d.row(r).iter().sum());
            }
        }
        Matrix::Sparse(s) => {
            let data = out.data_mut();
            for (r, _, vals) in s.stored_rows() {
                data[r] = vals.iter().fold(0.0, |acc, &v| acc + v);
            }
        }
    }
    Matrix::Dense(out)
}

/// Row vector (`1 x cols`) of per-column sums.
pub fn col_sums(a: &Matrix) -> Matrix {
    let mut out = DenseMatrix::zeros(1, a.cols());
    match a {
        Matrix::Dense(d) => {
            for r in 0..d.rows() {
                let row = d.row(r);
                let data = out.data_mut();
                for (c, &v) in row.iter().enumerate() {
                    data[c] += v;
                }
            }
        }
        Matrix::Sparse(s) => {
            let data = out.data_mut();
            for (&c, &v) in s.indices().iter().zip(s.values()) {
                data[c] += v;
            }
        }
    }
    Matrix::Dense(out)
}

/// Mean of all cells (implicit zeros included).
pub fn mean(a: &Matrix) -> f64 {
    let cells = a.rows() as f64 * a.cols() as f64;
    if cells == 0.0 {
        0.0
    } else {
        sum(a) / cells
    }
}

/// Population variance of all cells (implicit zeros included).
pub fn var(a: &Matrix) -> f64 {
    let cells = (a.rows() * a.cols()) as f64;
    if cells == 0.0 {
        return 0.0;
    }
    let mu = mean(a);
    let mut acc = 0.0;
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let d = a.get(r, c) - mu;
            acc += d * d;
        }
    }
    acc / cells
}

/// Minimum over all cells (implicit zeros participate for sparse).
pub fn min(a: &Matrix) -> f64 {
    fold_cells(a, f64::INFINITY, f64::min)
}

/// Maximum over all cells (implicit zeros participate for sparse).
pub fn max(a: &Matrix) -> f64 {
    fold_cells(a, f64::NEG_INFINITY, f64::max)
}

fn fold_cells(a: &Matrix, init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    match a {
        Matrix::Dense(d) => d.data().iter().fold(init, |acc, &v| f(acc, v)),
        Matrix::Sparse(s) => {
            let acc = s.values().iter().fold(init, |acc, &v| f(acc, v));
            if (s.nnz() as u128) < s.rows() as u128 * s.cols() as u128 {
                f(acc, 0.0)
            } else {
                acc
            }
        }
    }
}

/// Column vector of per-row minima.
pub fn row_min(a: &Matrix) -> Matrix {
    per_row(a, f64::INFINITY, f64::min)
}

/// Column vector of per-row maxima.
pub fn row_max(a: &Matrix) -> Matrix {
    per_row(a, f64::NEG_INFINITY, f64::max)
}

/// Column vector of per-row means.
pub fn row_means(a: &Matrix) -> Matrix {
    let rs = row_sums(a);
    rs.scalar_mul(1.0 / a.cols() as f64)
}

/// Row vector of per-column means.
pub fn col_means(a: &Matrix) -> Matrix {
    let cs = col_sums(a);
    cs.scalar_mul(1.0 / a.rows() as f64)
}

/// Column vector of per-row population variances.
pub fn row_var(a: &Matrix) -> Matrix {
    let n = a.cols() as f64;
    let mut out = DenseMatrix::zeros(a.rows(), 1);
    for r in 0..a.rows() {
        let mu: f64 = (0..a.cols()).map(|c| a.get(r, c)).sum::<f64>() / n;
        let v: f64 = (0..a.cols()).map(|c| (a.get(r, c) - mu).powi(2)).sum::<f64>() / n;
        out.set(r, 0, v);
    }
    Matrix::Dense(out)
}

/// Row vector of per-column population variances.
pub fn col_var(a: &Matrix) -> Matrix {
    let n = a.rows() as f64;
    let mut out = DenseMatrix::zeros(1, a.cols());
    for c in 0..a.cols() {
        let mu: f64 = (0..a.rows()).map(|r| a.get(r, c)).sum::<f64>() / n;
        let v: f64 = (0..a.rows()).map(|r| (a.get(r, c) - mu).powi(2)).sum::<f64>() / n;
        out.set(0, c, v);
    }
    Matrix::Dense(out)
}

fn per_row(a: &Matrix, init: f64, f: impl Fn(f64, f64) -> f64) -> Matrix {
    let mut out = DenseMatrix::zeros(a.rows(), 1);
    for r in 0..a.rows() {
        let mut acc = init;
        for c in 0..a.cols() {
            acc = f(acc, a.get(r, c));
        }
        out.set(r, 0, acc);
    }
    Matrix::Dense(out)
}

/// Row vector of per-column minima.
pub fn col_min(a: &Matrix) -> Matrix {
    per_col(a, f64::INFINITY, f64::min)
}

/// Row vector of per-column maxima.
pub fn col_max(a: &Matrix) -> Matrix {
    per_col(a, f64::NEG_INFINITY, f64::max)
}

fn per_col(a: &Matrix, init: f64, f: impl Fn(f64, f64) -> f64) -> Matrix {
    let mut out = DenseMatrix::zeros(1, a.cols());
    for c in 0..a.cols() {
        let mut acc = init;
        for r in 0..a.rows() {
            acc = f(acc, a.get(r, c));
        }
        out.set(0, c, acc);
    }
    Matrix::Dense(out)
}

/// Trace (sum of diagonal) of a square matrix.
pub fn trace(a: &Matrix) -> Result<f64> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { op: "trace", shape: a.shape() });
    }
    Ok((0..a.rows()).map(|i| a.get(i, i)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::dense(2, 3, vec![1., 2., 3., 4., 5., 6.])
    }

    #[test]
    fn sums() {
        let m = sample();
        assert_eq!(sum(&m), 21.0);
        assert_eq!(row_sums(&m).to_dense().data(), &[6., 15.]);
        assert_eq!(col_sums(&m).to_dense().data(), &[5., 7., 9.]);
    }

    #[test]
    fn sparse_sums_match_dense() {
        let d = Matrix::dense(2, 3, vec![0., 2., 0., 4., 0., 6.]);
        let s = Matrix::Sparse(d.to_sparse());
        assert_eq!(sum(&d), sum(&s));
        assert_eq!(row_sums(&d), row_sums(&s));
        assert_eq!(col_sums(&d), col_sums(&s));
    }

    /// Stored `(row, col, value)` entries in `(row, col)` order, read row
    /// by row through the public `row`.
    fn entries(s: &crate::sparse::SparseMatrix) -> Vec<(usize, usize, f64)> {
        (0..s.rows())
            .flat_map(|r| {
                let (idx, vals) = s.row(r);
                idx.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
            })
            .collect()
    }

    /// The parent commit's sparse `sum`, `row_sums`, `col_sums`, `min` and
    /// `max`, entry by entry, as bits.
    fn oracle(a: &Matrix) -> Vec<u64> {
        let Matrix::Sparse(s) = a else { unreachable!() };
        let stored = entries(s);
        let mut rs = DenseMatrix::zeros(s.rows(), 1);
        let mut cs = DenseMatrix::zeros(1, s.cols());
        for &(r, c, v) in &stored {
            rs.set(r, 0, rs.get(r, 0) + v);
            cs.set(0, c, cs.get(0, c) + v);
        }
        let fold = |init: f64, f: fn(f64, f64) -> f64| {
            let acc = stored.iter().fold(init, |acc, e| f(acc, e.2));
            if stored.len() < s.rows() * s.cols() {
                f(acc, 0.0)
            } else {
                acc
            }
        };
        let sum: f64 = stored.iter().map(|e| e.2).sum();
        let mut bits =
            vec![sum, fold(f64::INFINITY, f64::min), fold(f64::NEG_INFINITY, f64::max)];
        bits.extend(rs.data().iter().chain(cs.data()));
        bits.iter().map(|v| v.to_bits()).collect()
    }

    fn aggregated(a: &Matrix) -> Vec<u64> {
        let mut bits = vec![sum(a), min(a), max(a)];
        bits.extend(row_sums(a).to_dense().data().iter().chain(col_sums(a).to_dense().data()));
        bits.iter().map(|v| v.to_bits()).collect()
    }

    /// Bit for bit the parent's sparse aggregates, on both row layouts,
    /// with values whose sums depend on their order and sign: `±0.0` from
    /// cancelled duplicates, `NaN`, ±∞, and magnitudes that round.
    #[test]
    fn sparse_aggregates_read_the_stored_arrays_in_the_parents_order() {
        // One entry-by-entry sum is 1e16 (each `+ 1` rounds away); a sum of
        // per-row sums would be 1e16 + 2.
        let rounding = Matrix::sparse(3, 2, vec![(0, 0, 1e16), (1, 0, 1.0), (1, 1, 1.0)]);
        assert_eq!(sum(&rounding), 1e16);
        assert_eq!(aggregated(&rounding), oracle(&rounding));
        let salt = [1e16, 1.0, -1e16, 0.1, -0.0, 3.0, f64::NAN, f64::INFINITY, -2.5];
        let mut rng = crate::rng::Rng64::new(35);
        for &(rows, cols, n) in &[(1, 1, 1), (3, 4, 0), (3, 4, 12), (40, 5, 9), (40, 5, 60)] {
            for round in 0..6 {
                let trips: Vec<_> = (0..n)
                    .map(|_| {
                        let v = salt[rng.range_usize(salt.len() - 3 + round.min(3))];
                        (rng.range_usize(rows), rng.range_usize(cols), v)
                    })
                    .collect();
                let m = Matrix::sparse(rows, cols, trips.clone());
                let twin = Matrix::Sparse(m.to_sparse().flat_twin());
                let what = format!("{rows}x{cols}, {n} entries, round {round}");
                assert_eq!(aggregated(&m), oracle(&m), "{what}");
                assert_eq!(aggregated(&twin), oracle(&twin), "{what}, flat");
                // A cancelled duplicate stays stored as an explicit zero.
                let cancelled = Matrix::sparse(
                    rows,
                    cols,
                    trips.iter().chain([(0, 0, 1.0), (0, 0, -1.0)].iter()).copied(),
                );
                assert_eq!(aggregated(&cancelled), oracle(&cancelled), "{what}, cancelled");
            }
        }
    }

    #[test]
    fn trace_of_square() {
        let m = Matrix::dense(2, 2, vec![1., 9., 9., 5.]);
        assert_eq!(trace(&m).unwrap(), 6.0);
        assert!(trace(&sample()).is_err());
    }

    #[test]
    fn min_max_consider_implicit_zeros() {
        let s = Matrix::sparse(2, 2, vec![(0, 0, 5.0), (1, 1, 3.0)]);
        assert_eq!(min(&s), 0.0);
        assert_eq!(max(&s), 5.0);
        let neg = Matrix::sparse(2, 2, vec![(0, 0, -5.0)]);
        assert_eq!(max(&neg), 0.0);
    }

    #[test]
    fn mean_and_var() {
        let m = Matrix::dense(1, 4, vec![1., 2., 3., 4.]);
        assert_eq!(mean(&m), 2.5);
        assert!((var(&m) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn row_col_stats() {
        let m = sample();
        assert_eq!(row_min(&m).to_dense().data(), &[1., 4.]);
        assert_eq!(row_max(&m).to_dense().data(), &[3., 6.]);
        assert_eq!(col_min(&m).to_dense().data(), &[1., 2., 3.]);
        assert_eq!(col_max(&m).to_dense().data(), &[4., 5., 6.]);
        assert_eq!(row_means(&m).to_dense().data(), &[2., 5.]);
        assert_eq!(col_means(&m).to_dense().data(), &[2.5, 3.5, 4.5]);
    }
}
