//! Matrix substrate for the HADAD reproduction.
//!
//! This crate provides the linear-algebra execution substrate that the
//! paper's evaluation runs on: dense (row-major) and sparse (compressed
//! rows whose pointers follow `nnz`, see [`sparse`]) matrices, the full
//! operator set `Lops` of HADAD §6.1 (products, element-wise ops,
//! transposition, inversion, determinants, traces, aggregates, Kronecker /
//! direct sums, matrix exponential), the matrix decompositions the
//! constraint catalogue reasons about (LU, pivoted LU, Cholesky, QR).
//!
//! Everything is implemented from scratch on `Vec<f64>` storage — no BLAS —
//! so that benchmark wall-times are a deterministic function of the
//! intermediate-result sizes HADAD's cost model reasons about and, for
//! products on the `Parallel` backend, of the vector width detected on the
//! host ([`backend::Width`]: the product kernels are compiled for AVX-512,
//! AVX2 and the portable baseline, and the widest the CPU runs is picked
//! once per process). *Values* are not a function of the width: every
//! width performs the same IEEE operations in the same order and equals
//! the `Reference` kernels bit for bit.

pub mod backend;
pub mod dense;
pub mod error;
pub mod matrix;
mod micro;
pub mod rand_gen;
pub mod rng;
pub mod sparse;

/// The operator kernels (`Lops`, paper §6.1).
pub mod ops {
    pub mod add;
    pub mod aggregates;
    pub mod elementwise;
    pub mod multiply;
    pub mod structural;
    pub mod transpose;
}

/// Matrix decompositions the constraint catalogue reasons about.
pub mod decomp {
    pub mod adjugate;
    pub mod cholesky;
    pub mod exp;
    pub mod lu;
    pub mod qr;
}

pub use backend::{default_backend, ExecBackend, Parallel, Reference, PARALLEL, REFERENCE};
pub use dense::DenseMatrix;
pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use sparse::{SparseBuilder, SparseMatrix};

/// Relative tolerance used across the workspace when comparing an original
/// expression's value against a rewriting's value (machine-checkable
/// soundness, cf. Theorem 8.1 of the paper).
pub const SOUNDNESS_RTOL: f64 = 1e-8;

/// Returns true when `a` and `b` have the same representation, shape and
/// stored cells with every value equal bit for bit — `-0.0` is not `0.0` —
/// except that any `NaN` equals any `NaN` (which payload survives
/// `NaN + NaN` is the operand order the compiler picked, not a value). The
/// equality the `Parallel` kernels are held to against `Reference`.
pub fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    match (a, b) {
        (Matrix::Dense(x), Matrix::Dense(y)) => {
            (x.rows(), x.cols()) == (y.rows(), y.cols())
                && x.data().iter().zip(y.data()).all(|(&p, &q)| same(p, q))
        }
        (Matrix::Sparse(x), Matrix::Sparse(y)) => {
            (x.rows(), x.cols(), x.nnz()) == (y.rows(), y.cols(), y.nnz())
                && x.triplets()
                    .zip(y.triplets())
                    .all(|(p, q)| (p.0, p.1) == (q.0, q.1) && same(p.2, q.2))
        }
        _ => false,
    }
}

/// Returns true when `a` and `b` are element-wise equal within a relative
/// tolerance of `rtol` (absolute floor `1e-10`). A cell that is `NaN` or
/// infinite on either side agrees only with an equal cell or, if `NaN`,
/// with a `NaN`. Two sparse matrices are compared over the cells either
/// stores, in O(nnz).
pub fn approx_eq(a: &Matrix, b: &Matrix, rtol: f64) -> bool {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return false;
    }
    let differ = |x: f64, y: f64| {
        if !(x.is_finite() && y.is_finite()) {
            return x != y && !(x.is_nan() && y.is_nan());
        }
        let scale = x.abs().max(y.abs()).max(1.0);
        (x - y).abs() > rtol * scale + 1e-10
    };
    if let (Matrix::Sparse(x), Matrix::Sparse(y)) = (a, b) {
        let (mut p, mut q) = (x.triplets().peekable(), y.triplets().peekable());
        // The lowest cell either side still holds comes next.
        while let Some(cell) =
            [p.peek(), q.peek()].into_iter().flatten().map(|t| (t.0, t.1)).min()
        {
            let xv = p.next_if(|t| (t.0, t.1) == cell).map_or(0.0, |t| t.2);
            let yv = q.next_if(|t| (t.0, t.1) == cell).map_or(0.0, |t| t.2);
            if differ(xv, yv) {
                return false;
            }
        }
        return true;
    }
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if differ(a.get(r, c), b.get(r, c)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Non-finite cells agree only when equal or both `NaN`, in dense and
    /// sparse operands alike, and a stored `NaN` never matches an absent
    /// cell.
    #[test]
    fn approx_eq_refuses_non_finite_cells_that_differ() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let dense = |v: f64| Matrix::dense(1, 1, vec![v]);
        let sparse = |v: f64| Matrix::sparse(1, 2, vec![(0, 1, v)]);
        for (x, y, agree) in [
            (nan, 1.0, false),
            (inf, 1.0, false),
            (inf, -inf, false),
            (inf, inf, true),
            (nan, nan, true),
        ] {
            for (a, b) in [(x, y), (y, x)] {
                assert_eq!(approx_eq(&dense(a), &dense(b), 1e-8), agree, "dense {a} vs {b}");
                assert_eq!(approx_eq(&sparse(a), &sparse(b), 1e-8), agree, "sparse {a} vs {b}");
            }
        }
        let absent = Matrix::sparse(1, 2, Vec::new());
        assert!(!approx_eq(&sparse(nan), &absent, 1e-8));
        assert!(!approx_eq(&absent, &sparse(nan), 1e-8));
    }
}
