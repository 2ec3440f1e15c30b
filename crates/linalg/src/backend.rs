//! Execution backends: the pluggable kernel layer behind every matrix
//! product the evaluator runs.
//!
//! Two implementations of [`ExecBackend`] ship:
//!
//! * [`Reference`] — the original naive single-threaded kernels in
//!   [`crate::ops`], kept verbatim as the differential-testing baseline.
//! * [`Parallel`] — every dense-output product on one register-blocked
//!   micro-kernel (`micro.rs`): a block of the output is held in locals
//!   across the whole `k` (or stored-entry) loop instead of being loaded
//!   and stored once per `k`. Dense×dense GEMM and the fused `Aᵀ·B` (which
//!   never materializes the transpose) run 4-row blocks, depth-blocked at
//!   [`GEMM_TILE`]; CSR×dense runs one accumulator strip per stored row;
//!   dense×CSR and `Aᵀ·CSR` run as `(Sᵀ·Dᵀ)ᵀ` on that same SpMM kernel, a
//!   panel of output rows at a time. The kernel is compiled once per vector
//!   [`Width`] (AVX-512, AVX2, portable) and the width is picked from the
//!   CPU once per process — there is no setting. SpGEMM keeps a dense
//!   accumulator per row and finds its touched columns, in order, in a
//!   two-level bitmap. Output rows are partitioned across
//!   `std::thread::scope` workers, each supervised.
//!
//! Every `Parallel` kernel accumulates each output cell in the same
//! floating-point order as its `Reference` counterpart: blocking, strips and
//! row partitioning only re-tile rows and columns, never the per-cell `k`
//! order; the micro-kernel is plain Rust the compiler vectorizes, and Rust
//! never contracts `a*b + c` into a fused multiply-add, so wider lanes
//! perform the same IEEE operations. The two backends therefore agree
//! bitwise on products at every width: the tests below pin it per
//! instantiation, the differential property test in `hadad-rewrite` end to
//! end.
//!
//! Only products route through the backend: element-wise ops, aggregates,
//! and decompositions are memory-bound or inherently sequential and stay
//! on the shared kernels. [`default_backend`] is `Parallel`, what every
//! plan runs on; `Reference` is the differential reference the tests and
//! `xtask kernels` compare it with. Neither is a cost input: the cost
//! oracle (`hadad_core::stats::op_cost`) prices every plan in reference
//! flops, so plan choice does not depend on the host.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::dense::{transpose_into, DenseMatrix};
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::micro;
pub use crate::micro::Width;
use crate::ops;
use crate::sparse::{SparseBuilder, SparseMatrix};

/// Records a contained kernel-worker panic: `Parallel` discards the partial
/// output and retries the operation once on [`Reference`], so a panicking
/// kernel degrades to the slow path instead of aborting the process. The
/// record is one `kernel.panics` increment and one `linalg.kernel` entry
/// in the obs event log naming the backend and the op.
fn record_backend_panic(backend: &'static str, op: &'static str) {
    static PANICS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("kernel.panics");
    PANICS.incr();
    hadad_obs::event(
        "linalg.kernel",
        hadad_obs::Severity::Warn,
        format!("worker panic in {backend} backend during {op}"),
    );
}

/// Internal marker: a supervised worker panicked and the kernel's output
/// buffer must be discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanicked;

/// Depth (`k`) block of the dense GEMM and fused `Aᵀ·B` kernels: a block of
/// the output is loaded, accumulated over this many steps and stored, so
/// the `B` strip the blocks of one column share — 256 × 16 `f64` at the
/// widest strip, 32 KiB — stays L1-resident while every row block passes
/// over it.
pub const GEMM_TILE: usize = 256;

/// Upper bound on worker threads, so a large host does not drown small
/// kernels in spawn overhead.
const MAX_THREADS: usize = 8;

/// Worker count for `threads = 0` (auto): physical parallelism, capped,
/// observed once per process like [`Width::detected`] —
/// `available_parallelism` reads cgroup files, and every product kernel of
/// the auto-sized [`Parallel`] asks.
pub fn auto_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(MAX_THREADS)
    })
}

/// The kernel layer the evaluator dispatches matrix products through.
/// Implementations decide threading and blocking; they must keep the
/// representation policy of [`crate::ops::multiply`] (sparse×sparse stays
/// sparse, anything dense densifies) and validate shapes.
pub trait ExecBackend: Sync + Send + std::fmt::Debug {
    /// Stable backend name (`"reference"` | `"parallel"`).
    fn name(&self) -> &'static str;

    /// Worker threads the backend fans products across (1 = sequential).
    fn threads(&self) -> usize;

    /// `A · B`.
    fn multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix>;

    /// `Aᵀ · B`, fused where the backend supports it (no materialized
    /// transpose); implementations may fall back to transpose-then-multiply
    /// where fusion does not pay (e.g. sparse `A`, whose transpose is
    /// `O(nnz)`).
    fn transpose_multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix>;

    /// Number of *fused* transpose-multiply executions served so far —
    /// observability for the rewrite-awareness tests; backends without a
    /// fused path report 0.
    fn fused_tmul_calls(&self) -> usize {
        0
    }
}

fn check_mul(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "multiply",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

fn check_tmul(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "transpose_multiply",
            lhs: (a.cols(), a.rows()),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// The original naive kernels, unchanged: the baseline `Parallel` is
/// differentially tested against. Transpose-multiply materializes the
/// transpose, exactly what the fused kernel is measured against.
#[derive(Debug)]
pub struct Reference;

impl ExecBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn threads(&self) -> usize {
        1
    }

    fn multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        ops::multiply::multiply(a, b)
    }

    fn transpose_multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        check_tmul(a, b)?;
        ops::multiply::multiply(&ops::transpose::transpose(a), b)
    }
}

/// Register-blocked, multi-threaded kernels at the detected vector
/// [`Width`]. `threads = 0` resolves to [`auto_threads`], so one static
/// instance adapts to the host; fixed counts are for the differential
/// tests.
#[derive(Debug)]
pub struct Parallel {
    threads: usize,
    fused: AtomicUsize,
}

impl Parallel {
    /// Auto-sized instance (the host's [`auto_threads`]).
    pub const fn auto() -> Self {
        Parallel { threads: 0, fused: AtomicUsize::new(0) }
    }

    /// Fixed thread count (still capped by the row count per kernel).
    pub const fn with_threads(threads: usize) -> Self {
        Parallel { threads, fused: AtomicUsize::new(0) }
    }
}

impl ExecBackend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn threads(&self) -> usize {
        if self.threads == 0 {
            auto_threads()
        } else {
            self.threads
        }
    }

    fn multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        static GEMM: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("kernel.gemm");
        static SPMM: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("kernel.spmm");
        static DENSE_SPARSE: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("kernel.dense_sparse");
        static SPGEMM: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("kernel.spgemm");
        check_mul(a, b)?;
        let _span = hadad_obs::span("kernel.multiply");
        let (t, w) = (self.threads(), Width::detected());
        let attempt = match (a, b) {
            (Matrix::Dense(x), Matrix::Dense(y)) => {
                GEMM.incr();
                gemm_blocked(x, y, t, w).map(Matrix::Dense)
            }
            (Matrix::Sparse(x), Matrix::Dense(y)) => {
                SPMM.incr();
                spmm_rows(x, y, t, w).map(Matrix::Dense)
            }
            (Matrix::Dense(x), Matrix::Sparse(y)) => {
                DENSE_SPARSE.incr();
                dense_sparse_rows(x, y, t, w).map(Matrix::Dense)
            }
            (Matrix::Sparse(x), Matrix::Sparse(y)) => {
                SPGEMM.incr();
                spgemm_rows(x, y, t).map(Matrix::Sparse)
            }
        };
        match attempt {
            Ok(m) => Ok(m),
            // A worker panicked: record it, drop the partial output, retry
            // once on the single-threaded reference kernels.
            Err(WorkerPanicked) => {
                record_backend_panic(self.name(), "multiply");
                REFERENCE.multiply(a, b)
            }
        }
    }

    fn transpose_multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        check_tmul(a, b)?;
        match a {
            // Dense Aᵀ is an O(rows·cols) strided rewrite — fuse it away.
            Matrix::Dense(x) => {
                static TMUL: hadad_obs::LazyCounter =
                    hadad_obs::LazyCounter::new("kernel.tmul_fused");
                TMUL.incr();
                let _span = hadad_obs::span("kernel.tmul");
                let (t, w) = (self.threads(), Width::detected());
                let attempt = match b {
                    Matrix::Dense(y) => tmul_dense_dense(x, y, t, w),
                    Matrix::Sparse(y) => tmul_dense_sparse(x, y, t, w),
                };
                match attempt {
                    Ok(m) => {
                        self.fused.fetch_add(1, Ordering::Relaxed);
                        Ok(Matrix::Dense(m))
                    }
                    Err(WorkerPanicked) => {
                        record_backend_panic(self.name(), "transpose_multiply");
                        REFERENCE.transpose_multiply(a, b)
                    }
                }
            }
            // Sparse transposition is O(nnz); fusion would re-scan A per
            // thread for no win.
            Matrix::Sparse(x) => self.multiply(&Matrix::Sparse(x.transpose()), b),
        }
    }

    fn fused_tmul_calls(&self) -> usize {
        self.fused.load(Ordering::Relaxed)
    }
}

/// Contiguous row ranges for `threads` workers (empty ranges dropped).
fn row_ranges(rows: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.clamp(1, rows.max(1));
    let chunk = rows.div_ceil(t).max(1);
    (0..t).map(|i| (i * chunk, ((i + 1) * chunk).min(rows))).filter(|(s, e)| s < e).collect()
}

/// Runs `f` over row-partitioned mutable slices of a `rows×cols` row-major
/// output buffer, spawning scoped threads only when more than one range
/// exists. Every worker (including the single-range in-line path) runs
/// under `catch_unwind` supervision: a panic anywhere surfaces as
/// [`WorkerPanicked`] instead of unwinding through the scope, and the
/// caller discards the partially-written buffer.
fn partition_rows(
    out: &mut [f64],
    rows: usize,
    cols: usize,
    threads: usize,
    f: impl Fn(&mut [f64], usize, usize) + Sync,
) -> std::result::Result<(), WorkerPanicked> {
    let supervised = |chunk: &mut [f64], r0: usize, r1: usize| {
        catch_unwind(AssertUnwindSafe(|| {
            hadad_failpoint::hit("linalg.kernel").expect("linalg.kernel failpoint");
            f(chunk, r0, r1);
        }))
        .map_err(|_| WorkerPanicked)
    };
    let ranges = row_ranges(rows, threads);
    if ranges.len() <= 1 {
        if let Some(&(r0, r1)) = ranges.first() {
            supervised(out, r0, r1)?;
        }
        return Ok(());
    }
    let mut ok = true;
    std::thread::scope(|s| {
        let supervised = &supervised;
        let mut rest = out;
        let mut handles = Vec::with_capacity(ranges.len());
        for &(r0, r1) in &ranges {
            let (chunk, tail) = rest.split_at_mut((r1 - r0) * cols);
            rest = tail;
            handles.push(s.spawn(move || supervised(chunk, r0, r1).is_ok()));
        }
        for h in handles {
            // join() cannot fail: the worker catches its own panics.
            ok &= h.join().unwrap_or(false);
        }
    });
    if ok {
        Ok(())
    } else {
        Err(WorkerPanicked)
    }
}

/// Threaded dense×dense GEMM on the register-blocked micro-kernel.
pub fn gemm_blocked(
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    width: Width,
) -> std::result::Result<DenseMatrix, WorkerPanicked> {
    let (m, n) = (a.rows(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    partition_rows(out.data_mut(), m, n, threads, |chunk, r0, r1| {
        micro::gemm_rows(width, a, b, chunk, r0, r1, GEMM_TILE);
    })?;
    Ok(out)
}

/// Threaded CSR × dense (SpMV when `b` is a vector, SpMM otherwise):
/// output rows partitioned across workers, each streaming its stored rows
/// of `A` through one accumulator strip.
pub fn spmm_rows(
    a: &SparseMatrix,
    b: &DenseMatrix,
    threads: usize,
    width: Width,
) -> std::result::Result<DenseMatrix, WorkerPanicked> {
    let (m, n) = (a.rows(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    let b = micro::Panel { data: b.data(), ld: n, c0: 0, c1: n };
    partition_rows(out.data_mut(), m, n, threads, |chunk, r0, r1| {
        micro::spmm_rows(width, a, b, chunk, r0, r1, false);
    })?;
    Ok(out)
}

/// Output rows a dense×sparse product computes at a time: one single-row
/// strip of the widest kernel, and small enough that the two transposed
/// panels of a few-thousand-column product stay in L2.
const SPARSE_RIGHT_PANEL: usize = 64;

/// `D·S` (`left_transposed` false) or `Dᵀ·S` (true) for dense `D` and CSR
/// `S`, as `(Sᵀ·Dᵀ)ᵀ` — resp. `(Sᵀ·D)ᵀ` — on the SpMM kernel, a panel of
/// output rows at a time: the scatter of a stored `S[k,j]` into column `j`
/// of the output becomes a strip across the panel's rows. `Sᵀ` is O(nnz)
/// and keeps each column's entries in ascending `k`, so every cell sums in
/// the reference's order; the zeros of `D` the reference skips contribute
/// `+0.0`. Output rows are partitioned across workers.
fn sparse_right(
    d: &DenseMatrix,
    left_transposed: bool,
    s: &SparseMatrix,
    threads: usize,
    width: Width,
) -> std::result::Result<DenseMatrix, WorkerPanicked> {
    let (k, n) = (s.rows(), s.cols());
    let m = if left_transposed { d.cols() } else { d.rows() };
    let st = s.transpose();
    let mut out = DenseMatrix::zeros(m, n);
    partition_rows(out.data_mut(), m, n, threads, |chunk, r0, r1| {
        let widest = SPARSE_RIGHT_PANEL.min(r1 - r0);
        // The panel's rows of `D` as columns (when they are not already),
        // and its rows of the product as columns.
        let mut d_t = vec![0.0; if left_transposed { 0 } else { k * widest }];
        let mut out_t = vec![0.0; n * widest];
        for i0 in (r0..r1).step_by(SPARSE_RIGHT_PANEL) {
            let i1 = (i0 + SPARSE_RIGHT_PANEL).min(r1);
            let pw = i1 - i0;
            let panel = if left_transposed {
                micro::Panel { data: d.data(), ld: d.cols(), c0: i0, c1: i1 }
            } else {
                transpose_into(&d.data()[i0 * k..i1 * k], pw, k, &mut d_t[..k * pw]);
                micro::Panel { data: &d_t, ld: pw, c0: 0, c1: pw }
            };
            let out_t = &mut out_t[..n * pw];
            out_t.fill(0.0);
            micro::spmm_rows(width, &st, panel, out_t, 0, n, true);
            transpose_into(out_t, n, pw, &mut chunk[(i0 - r0) * n..(i1 - r0) * n]);
        }
    })?;
    Ok(out)
}

/// Threaded dense × CSR, as `(Sᵀ·Dᵀ)ᵀ` on the SpMM kernel, a panel of
/// output rows at a time; bitwise the reference's scatter.
pub fn dense_sparse_rows(
    a: &DenseMatrix,
    b: &SparseMatrix,
    threads: usize,
    width: Width,
) -> std::result::Result<DenseMatrix, WorkerPanicked> {
    sparse_right(a, false, b, threads, width)
}

/// Calls `f` with the position of every set bit of `bits`, lowest first.
fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Threaded row-wise SpGEMM: each worker takes a contiguous range of `A`'s
/// stored rows with a thread-local dense accumulator and writes sorted
/// output rows straight into its own builder — no global triplet sort — and
/// the builders are joined in row order. An `A` with few stored rows costs
/// what it stores, not its row count.
pub fn spgemm_rows(
    a: &SparseMatrix,
    b: &SparseMatrix,
    threads: usize,
) -> std::result::Result<SparseMatrix, WorkerPanicked> {
    let (m, n) = (a.rows(), b.cols());
    let ranges = row_ranges(a.slots(), threads);
    let run_range = |k0: usize, k1: usize| -> SparseBuilder {
        hadad_failpoint::hit("linalg.kernel").expect("linalg.kernel failpoint");
        let mut acc = vec![0.0f64; n];
        // Touched columns of the current output row, as a two-level bitmap:
        // a bit per column in `marks`, a bit per non-empty word of `marks`
        // in `groups`. Draining it lowest bit first yields the columns in
        // order without sorting them, for what the row touches plus
        // `n / 4096` words, and a cell touched again after it cancelled to
        // zero is still one bit.
        let mut marks = vec![0u64; n.div_ceil(64)];
        let mut groups = vec![0u64; marks.len().div_ceil(64)];
        // No output row holds more than the `B` entries its products touch,
        // or than `n`: reserved once, the output never grows by copying.
        let bound: usize = a
            .slot_rows(k0..k1)
            .map(|(_, idx, _)| idx.iter().map(|&kk| b.row(kk).0.len()).sum::<usize>().min(n))
            .sum();
        let mut out = SparseBuilder::new(m, n, bound);
        for (i, idx, vals) in a.slot_rows(k0..k1) {
            for (&kk, &aik) in idx.iter().zip(vals) {
                let (bidx, bvals) = b.row(kk);
                for (&j, &bkj) in bidx.iter().zip(bvals) {
                    marks[j / 64] |= 1 << (j % 64);
                    groups[j / 4096] |= 1 << (j / 64 % 64);
                    acc[j] += aik * bkj;
                }
            }
            for (g, group) in groups.iter_mut().enumerate() {
                for_each_bit(std::mem::take(group), |w| {
                    let w = g * 64 + w;
                    for_each_bit(std::mem::take(&mut marks[w]), |j| {
                        let j = w * 64 + j;
                        if acc[j] != 0.0 {
                            out.append(i, j, acc[j]);
                        }
                        acc[j] = 0.0;
                    });
                });
            }
        }
        out
    };
    // Supervised workers: each catches its own panics, so join() cannot
    // fail and one bad worker surfaces as `WorkerPanicked` for the whole
    // product (the chunks are interdependent only at assembly).
    let supervised =
        |k0: usize, k1: usize| catch_unwind(AssertUnwindSafe(|| run_range(k0, k1)));
    let chunks: Vec<SparseBuilder> = if ranges.len() <= 1 {
        ranges
            .iter()
            .map(|&(k0, k1)| supervised(k0, k1).map_err(|_| WorkerPanicked))
            .collect::<std::result::Result<_, _>>()?
    } else {
        std::thread::scope(|s| {
            let supervised = &supervised;
            // The collect is load-bearing: spawning is lazy through `map`,
            // so joining straight off the iterator would run one worker at
            // a time.
            #[allow(clippy::needless_collect)]
            let handles: Vec<_> =
                ranges.iter().map(|&(k0, k1)| s.spawn(move || supervised(k0, k1))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Err(Box::new(WorkerPanicked))))
                .collect::<std::result::Result<Vec<_>, _>>()
                .map_err(|_| WorkerPanicked)
        })?
    };
    let joined = chunks.into_iter().reduce(SparseBuilder::concat);
    Ok(joined.map_or_else(|| SparseMatrix::zeros(m, n), SparseBuilder::finish))
}

/// Fused dense `Aᵀ·B` (both dense): output rows (= columns of `A`)
/// partitioned across workers; each block of the micro-kernel reads `A`
/// and `B` row-major in place — no transposed copy of `A` is ever built.
pub fn tmul_dense_dense(
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    width: Width,
) -> std::result::Result<DenseMatrix, WorkerPanicked> {
    let (p, n) = (a.cols(), b.cols());
    let mut out = DenseMatrix::zeros(p, n);
    partition_rows(out.data_mut(), p, n, threads, |chunk, r0, r1| {
        micro::tmul_rows(width, a, b, chunk, r0, r1, GEMM_TILE);
    })?;
    Ok(out)
}

/// Fused dense-`A` `Aᵀ·B` with sparse `B`, as `(Bᵀ·A)ᵀ` on the SpMM
/// kernel, a panel of output rows at a time: `A` is read in place.
pub fn tmul_dense_sparse(
    a: &DenseMatrix,
    b: &SparseMatrix,
    threads: usize,
    width: Width,
) -> std::result::Result<DenseMatrix, WorkerPanicked> {
    sparse_right(a, true, b, threads, width)
}

/// Shared backend instances ([`Parallel`] carries the fused-call counter,
/// so callers needing isolation construct their own).
pub static REFERENCE: Reference = Reference;
/// Shared [`Parallel`] instance with auto-sized workers.
pub static PARALLEL: Parallel = Parallel::auto();

/// The process-default backend: the shared [`Parallel`] instance.
pub fn default_backend() -> &'static dyn ExecBackend {
    &PARALLEL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_gen;

    fn dense(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::Dense(rand_gen::random_dense(r, c, seed))
    }

    fn sparse(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::Sparse(rand_gen::random_sparse(r, c, 0.15, seed))
    }

    /// `r x c` with entries in three of its rows only: few enough stored
    /// rows (for `r >= 13`) that the matrix takes the compact layout.
    fn few_rows(r: usize, c: usize, seed: u64) -> Matrix {
        let picked = rand_gen::random_sparse(3, c, 0.4, seed);
        let rows = [1, r / 2, r - 1];
        let m = Matrix::sparse(r, c, picked.triplets().map(|(i, j, v)| (rows[i], j, v)));
        assert!(m.to_sparse().is_compact());
        m
    }

    /// Representation, stored count and every cell, bit for bit.
    fn bits(m: &Matrix) -> (bool, usize, Vec<u64>) {
        (m.is_sparse(), m.nnz(), m.to_dense().data().iter().map(|v| v.to_bits()).collect())
    }

    /// Layout independence: a compact operand and the same content forced
    /// flat give bitwise the same result from every kernel that reads a
    /// sparse matrix, on every backend — and `Parallel` agrees with
    /// `Reference` on them (spmm, spgemm and fused `Aᵀ·B` walk a compact
    /// operand's stored rows under two threads here).
    #[test]
    fn backend_results_do_not_depend_on_the_row_layout() {
        use crate::ops::aggregates;
        let flat = |m: &Matrix| Matrix::Sparse(m.to_sparse().flat_twin());
        for &(m, k, n) in &[(40, 48, 13), (130, 64, 33)] {
            let (sa, sb) = (few_rows(m, k, 1), few_rows(k, n, 2));
            let (da, db) = (dense(m, k, 3), dense(k, n, 4));
            // Same-shape partners for the element-wise kernels and the
            // left operand of `Aᵀ·B`.
            let (sa2, st, dt) = (few_rows(m, k, 5), few_rows(m, n, 6), dense(m, n, 7));
            let backends: [&dyn ExecBackend; 3] =
                [&REFERENCE, &Parallel::with_threads(1), &Parallel::with_threads(2)];
            let mut per_backend = Vec::new();
            for backend in backends {
                let run = |twin: &dyn Fn(&Matrix) -> Matrix| {
                    let (sa, sb, sa2, st) = (twin(&sa), twin(&sb), twin(&sa2), twin(&st));
                    vec![
                        backend.multiply(&sa, &sb).unwrap(),
                        backend.multiply(&sa, &db).unwrap(),
                        backend.multiply(&da, &sb).unwrap(),
                        backend.multiply(&da, &db).unwrap(),
                        backend.transpose_multiply(&sa, &st).unwrap(),
                        backend.transpose_multiply(&sa, &dt).unwrap(),
                        backend.transpose_multiply(&da, &st).unwrap(),
                        sa.add(&sa2).unwrap(),
                        sa.sub(&sa2).unwrap(),
                        sa.add(&da).unwrap(),
                        da.sub(&sa).unwrap(),
                        sa.hadamard(&sa2).unwrap(),
                        sa.hadamard(&da).unwrap(),
                        sa.transpose(),
                        sa.transpose().transpose(),
                        sa.row_sums(),
                        sa.col_sums(),
                        Matrix::scalar(sa.sum()),
                        Matrix::scalar(aggregates::min(&sa)),
                        Matrix::scalar(aggregates::max(&sa)),
                        Matrix::Dense(sa.to_dense()),
                    ]
                };
                let compact: Vec<_> = run(&Matrix::clone).iter().map(bits).collect();
                let flat: Vec<_> = run(&flat).iter().map(bits).collect();
                assert_eq!(compact, flat, "{m}x{k}x{n} on {}", backend.name());
                per_backend.push(compact);
            }
            assert!(
                per_backend.windows(2).all(|w| w[0] == w[1]),
                "{m}x{k}x{n} across backends"
            );
        }
    }

    /// Every representation pair, odd shapes straddling the tile width,
    /// across thread counts: `Parallel` must agree with `Reference`
    /// bitwise (same per-cell accumulation order).
    #[test]
    fn parallel_products_match_reference_bitwise() {
        let shapes = [(1, 1, 1), (3, 5, 2), (7, 65, 9), (130, 64, 33), (65, 130, 7)];
        for &(m, k, n) in &shapes {
            for (a, b) in [
                (dense(m, k, 1), dense(k, n, 2)),
                (sparse(m, k, 3), dense(k, n, 4)),
                (dense(m, k, 5), sparse(k, n, 6)),
                (sparse(m, k, 7), sparse(k, n, 8)),
            ] {
                let want = REFERENCE.multiply(&a, &b).unwrap();
                for t in [1, 2, 8] {
                    let got = Parallel::with_threads(t).multiply(&a, &b).unwrap();
                    assert_eq!(want, got, "{m}x{k}x{n} t={t}");
                }
            }
        }
    }

    /// `r x c`, about one cell in five replaced by a value the kernels' zero
    /// rules turn on: exact zeros, `-0.0`, both infinities and `NaN`.
    fn salted(r: usize, c: usize, seed: u64) -> DenseMatrix {
        let salt = [0.0, 0.0, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut rng = crate::rng::Rng64::new(seed ^ 0x5a17);
        let mut d = rand_gen::random_dense(r, c, seed);
        for v in d.data_mut() {
            if rng.range_usize(5) == 0 {
                *v = salt[rng.range_usize(salt.len())];
            }
        }
        d
    }

    /// About a third of `d`'s cells, stored as they are — the exact zeros
    /// among them, which `from_csr` keeps and SpMM must multiply.
    fn stored_third(d: &DenseMatrix, seed: u64) -> SparseMatrix {
        let mut rng = crate::rng::Rng64::new(seed);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..d.rows() {
            for (j, &v) in d.row(i).iter().enumerate() {
                if rng.range_usize(3) == 0 {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        SparseMatrix::from_csr(d.rows(), d.cols(), indptr, indices, values)
    }

    /// Every product kind, at every vector width this host supports (each
    /// instantiation called directly, not through the dispatch), on shapes
    /// ragged around every block and strip edge, on plain operands and on
    /// operands salted with zeros, `-0.0`, `inf` and `NaN`, across thread
    /// counts: bit for bit the `Reference` result.
    #[test]
    fn every_kernel_at_every_width_matches_reference() {
        let dims = [1, 3, 5, 17, 47, 61, 130];
        // Every dimension in every position, against two different partners.
        let shapes = (0..dims.len()).flat_map(|i| {
            [(2, 4), (5, 3)].map(|(p, q)| (dims[i], dims[(i + p) % 7], dims[(i + q) % 7]))
        });
        for (m, k, n) in shapes {
            for salt in [false, true] {
                let d = |r, c, seed| {
                    if salt {
                        salted(r, c, seed)
                    } else {
                        rand_gen::random_dense(r, c, seed)
                    }
                };
                // `a: m x k`, `b: k x n`, and `t: m x n` for `aᵀ·t`.
                let (da, db, dt) = (d(m, k, 1), d(k, n, 2), d(m, n, 3));
                let (sa, sb, st) =
                    (stored_third(&da, 4), stored_third(&db, 5), stored_third(&dt, 6));
                let (ma, mb, mt) = (
                    Matrix::Dense(da.clone()),
                    Matrix::Dense(db.clone()),
                    Matrix::Dense(dt.clone()),
                );
                let (xa, xb, xt) = (
                    Matrix::Sparse(sa.clone()),
                    Matrix::Sparse(sb.clone()),
                    Matrix::Sparse(st.clone()),
                );
                type Run<'a> = Box<dyn Fn(usize, Width) -> Matrix + 'a>;
                let kinds: [(&str, Matrix, Run<'_>); 8] = [
                    (
                        "D·D",
                        REFERENCE.multiply(&ma, &mb).unwrap(),
                        Box::new(|t, w| Matrix::Dense(gemm_blocked(&da, &db, t, w).unwrap())),
                    ),
                    (
                        "S·D",
                        REFERENCE.multiply(&xa, &mb).unwrap(),
                        Box::new(|t, w| Matrix::Dense(spmm_rows(&sa, &db, t, w).unwrap())),
                    ),
                    (
                        "D·S",
                        REFERENCE.multiply(&ma, &xb).unwrap(),
                        Box::new(|t, w| {
                            Matrix::Dense(dense_sparse_rows(&da, &sb, t, w).unwrap())
                        }),
                    ),
                    (
                        "S·S",
                        REFERENCE.multiply(&xa, &xb).unwrap(),
                        Box::new(|t, _| Matrix::Sparse(spgemm_rows(&sa, &sb, t).unwrap())),
                    ),
                    (
                        "Dᵀ·D",
                        REFERENCE.transpose_multiply(&ma, &mt).unwrap(),
                        Box::new(|t, w| {
                            Matrix::Dense(tmul_dense_dense(&da, &dt, t, w).unwrap())
                        }),
                    ),
                    (
                        "Dᵀ·S",
                        REFERENCE.transpose_multiply(&ma, &xt).unwrap(),
                        Box::new(|t, w| {
                            Matrix::Dense(tmul_dense_sparse(&da, &st, t, w).unwrap())
                        }),
                    ),
                    // A sparse left operand is transposed, then multiplied.
                    (
                        "Sᵀ·D",
                        REFERENCE.transpose_multiply(&xa, &mt).unwrap(),
                        Box::new(|t, w| {
                            Matrix::Dense(spmm_rows(&sa.transpose(), &dt, t, w).unwrap())
                        }),
                    ),
                    (
                        "Sᵀ·S",
                        REFERENCE.transpose_multiply(&xa, &xt).unwrap(),
                        Box::new(|t, _| {
                            Matrix::Sparse(spgemm_rows(&sa.transpose(), &st, t).unwrap())
                        }),
                    ),
                ];
                for (kind, want, run) in &kinds {
                    for w in Width::supported() {
                        for t in [1, 2, 3, 8] {
                            let what =
                                format!("{kind} {m}x{k}x{n} salt={salt} {} t={t}", w.name());
                            assert!(crate::bitwise_eq(want, &run(t, w)), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_transpose_multiply_matches_and_counts() {
        for (a, b) in [
            (dense(65, 7, 11), dense(65, 9, 12)),
            (dense(40, 33, 13), sparse(40, 21, 14)),
            (sparse(50, 8, 15), dense(50, 3, 16)),
            (sparse(50, 8, 17), sparse(50, 6, 18)),
        ] {
            let want = REFERENCE.transpose_multiply(&a, &b).unwrap();
            assert_eq!(REFERENCE.fused_tmul_calls(), 0, "reference never fuses");
            for t in [1, 2, 8] {
                let backend = Parallel::with_threads(t);
                let before = backend.fused_tmul_calls();
                let got = backend.transpose_multiply(&a, &b).unwrap();
                assert_eq!(want, got);
                // Dense A fuses; sparse A takes the O(nnz) transpose path.
                assert_eq!(backend.fused_tmul_calls() - before, usize::from(!a.is_sparse()));
            }
        }
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = dense(3, 4, 1);
        let b = dense(3, 4, 2);
        assert!(PARALLEL.multiply(&a, &b).is_err());
        assert!(PARALLEL.transpose_multiply(&a, &dense(4, 3, 3)).is_err());
        assert!(REFERENCE.transpose_multiply(&a, &dense(4, 3, 3)).is_err());
    }

    #[test]
    fn sparse_products_stay_sparse_and_prune_zeros() {
        // Cancellation inside SpGEMM must drop the entry, as the reference
        // kernel does.
        let a = Matrix::sparse(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        let b = Matrix::sparse(2, 2, vec![(0, 0, 2.0), (1, 0, -2.0), (1, 1, 3.0)]);
        let got = Parallel::with_threads(2).multiply(&a, &b).unwrap();
        assert!(got.is_sparse());
        assert_eq!(got, REFERENCE.multiply(&a, &b).unwrap());
        assert_eq!(got.nnz(), 1, "cancelled cell must be pruned");
    }

    #[test]
    fn empty_and_zero_row_matrices() {
        let a = Matrix::sparse(4, 3, vec![(3, 0, 2.0)]);
        let b = dense(3, 2, 5);
        assert_eq!(PARALLEL.multiply(&a, &b).unwrap(), REFERENCE.multiply(&a, &b).unwrap());
        let empty = Matrix::zeros(0, 3);
        let rhs = Matrix::zeros(3, 2);
        assert_eq!(PARALLEL.multiply(&empty, &rhs).unwrap().shape(), (0, 2));
    }
}
