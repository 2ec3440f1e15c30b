//! Seeded random matrix generators used by the workloads crate to
//! instantiate the paper's synthetic datasets (Table 5) and sparse
//! stand-ins for its real datasets (Table 4).

use crate::dense::DenseMatrix;
use crate::rng::Rng64;
use crate::sparse::SparseMatrix;

/// Uniform `[0, 1)` dense matrix with a fixed seed.
pub fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng64::new(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.next_f64()).collect();
    DenseMatrix::from_vec(rows, cols, data)
}

/// Uniform `[lo, hi)` dense matrix.
pub fn random_dense_range(
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
    seed: u64,
) -> DenseMatrix {
    let mut rng = Rng64::new(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.range_f64(lo, hi)).collect();
    DenseMatrix::from_vec(rows, cols, data)
}

/// Sparse matrix with approximately `density * rows * cols` non-zeros drawn
/// uniformly (values in `[0.5, 1.5)` so entries never cancel to zero).
pub fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> SparseMatrix {
    let mut rng = Rng64::new(seed);
    let target = ((rows * cols) as f64 * density).round() as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        let r = rng.range_usize(rows.max(1));
        let c = rng.range_usize(cols.max(1));
        triplets.push((r, c, rng.range_f64(0.5, 1.5)));
    }
    SparseMatrix::from_triplets(rows, cols, triplets)
}

/// Well-conditioned invertible matrix: random entries plus `n` on the
/// diagonal (strictly diagonally dominant).
pub fn random_invertible(n: usize, seed: u64) -> DenseMatrix {
    let mut m = random_dense_range(n, n, -0.5, 0.5, seed);
    for i in 0..n {
        let v = m.get(i, i) + n as f64 * 0.1 + 1.0;
        m.set(i, i, v);
    }
    m
}

/// Symmetric positive definite matrix `A A^T + n I`.
pub fn random_spd(n: usize, seed: u64) -> DenseMatrix {
    let a = random_dense_range(n, n, -1.0, 1.0, seed);
    let at = a.transpose();
    let mut out = crate::ops::multiply::dense_dense(&a, &at);
    for i in 0..n {
        let v = out.get(i, i) + n as f64 * 0.05 + 1.0;
        out.set(i, i, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_dense(4, 4, 9), random_dense(4, 4, 9));
        assert_eq!(random_sparse(10, 10, 0.2, 9), random_sparse(10, 10, 0.2, 9));
    }

    #[test]
    fn sparse_density_is_approximate() {
        let s = random_sparse(100, 100, 0.05, 1);
        // Collisions can reduce the count slightly; allow a band.
        assert!(s.nnz() > 300 && s.nnz() <= 500, "nnz = {}", s.nnz());
    }

    #[test]
    fn invertible_matrices_invert() {
        let m = Matrix::Dense(random_invertible(10, 5));
        assert!(m.inverse().is_ok());
    }

    #[test]
    fn spd_is_symmetric() {
        let m = random_spd(6, 77);
        assert!(m.is_symmetric(1e-9));
    }
}
