//! The register-blocked micro-kernel under every dense-output product of
//! the `Parallel` backend, and the vector widths it is compiled for.
//!
//! One body, [`block`]: an `M × N` block of the output lives in local
//! arrays from the first accumulation step to the last, each step adding
//! `a[r] · b[..N]` to row `r`. It is plain safe Rust over fixed-size arrays
//! — no intrinsics — that the autovectorizer lifts to whatever lanes the
//! enclosing function is compiled for, and Rust never contracts `a*b + c`
//! into a fused multiply-add, so every width performs the same IEEE
//! operations on every cell in the same (ascending step) order: the result
//! is bitwise the one the scalar `Reference` kernels produce. Blocking
//! re-tiles rows and columns only.
//!
//! The kernels built on it ([`gemm_rows`], [`tmul_rows`], [`spmm_rows`])
//! each take the [`Width`] to run at and exist once per width: the same
//! generic function instantiated under `#[target_feature]` for AVX-512 and
//! AVX2 and plainly for the portable baseline. Ragged edges step down
//! through narrower strips (powers of two down to 1 column) and single
//! rows of the same body, so at a full strip of 16 a 47-column product
//! runs as 16 + 16 + 8 + 4 + 2 + 1.

use std::array::from_fn;
use std::sync::OnceLock;

use crate::dense::DenseMatrix;
use crate::sparse::SparseMatrix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// A vector width the product kernels are compiled for *and this host can
/// run*: values come from [`Width::supported`] and [`Width::detected`]
/// only, which is what lets a kernel enter its `#[target_feature]`
/// instantiation. Not a setting — `Parallel` always runs at the detected
/// width; the others are reachable so tests and `xtask kernels` can hold
/// every instantiation against `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Width(Isa);

impl Width {
    /// Every width this host can run, narrowest first; the portable
    /// baseline is always among them (and alone off x86-64 and under Miri).
    pub fn supported() -> Vec<Width> {
        #[cfg(target_arch = "x86_64")]
        if !cfg!(miri) {
            let wider = [
                (Isa::Avx2, std::arch::is_x86_feature_detected!("avx2")),
                (Isa::Avx512, std::arch::is_x86_feature_detected!("avx512f")),
            ];
            let detected = wider.into_iter().filter(|w| w.1).map(|w| Width(w.0));
            return std::iter::once(Width(Isa::Portable)).chain(detected).collect();
        }
        vec![Width(Isa::Portable)]
    }

    /// The widest supported width, observed from the CPU once per process.
    pub fn detected() -> Width {
        static DETECTED: OnceLock<Width> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            *Width::supported().last().expect("the portable width is always supported")
        })
    }

    /// `"portable"` | `"avx2"` | `"avx512f"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512f",
        }
    }

    /// `f64` lanes of one vector register at this width (the portable
    /// baseline of x86-64 is SSE2).
    pub fn lanes(self) -> usize {
        match self.0 {
            Isa::Portable => 2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => 8,
        }
    }
}

/// Output rows a full block holds; fewer are left only at the bottom edge
/// of a row range, and run one at a time.
const MR: usize = 4;

/// The micro-kernel: `C[..M, ..N] += Σ_s a(s)[r] · b(s)[..N]` for
/// `(a(s), b(s)) = step(s)`, steps ascending, where `C` is the `M × N`
/// block at the head of `c` (row stride `ldc`). The block is loaded once,
/// held in locals across all steps, and stored once.
///
/// The two flags are the zero rules of the `Reference` kernels. `SKIP_A`:
/// a zero left factor contributes nothing to its row (dense `A`; decided
/// per (row, step), as the reference does). `ZERO_B`: a zero *strip*
/// factor contributes `+0.0` (the transposed routes, where the dense
/// operand the reference skips on lies along the strip): an accumulator
/// that starts at `+0.0` is never `-0.0`, so adding `+0.0` is the identity
/// the skip is, including when the other factor is `inf` or `NaN`.
#[inline(always)]
fn block<'a, const M: usize, const N: usize, const SKIP_A: bool, const ZERO_B: bool>(
    c: &mut [f64],
    ldc: usize,
    steps: usize,
    step: impl Fn(usize) -> ([f64; M], &'a [f64]),
) {
    let mut acc = [[0.0f64; N]; M];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + N]);
    }
    for s in 0..steps {
        let (a, b) = step(s);
        let b: &[f64; N] = b[..N].try_into().expect("a strip is N wide");
        for r in 0..M {
            if SKIP_A && a[r] == 0.0 {
                continue;
            }
            for j in 0..N {
                let p = a[r] * b[j];
                acc[r][j] += if ZERO_B && b[j] == 0.0 { 0.0 } else { p };
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + N].copy_from_slice(row);
    }
}

/// Widest strip for `left >= 1` remaining columns when full strips are
/// `nr` (a power of two) wide: the largest power of two within both.
#[inline(always)]
fn strip_width(left: usize, nr: usize) -> usize {
    (1 << left.ilog2()).min(nr)
}

/// [`block`] at the strip width `w` picked by [`strip_width`] for `NR`.
#[inline(always)]
fn strip<'a, const M: usize, const NR: usize, const SKIP_A: bool, const ZERO_B: bool>(
    w: usize,
    c: &mut [f64],
    ldc: usize,
    steps: usize,
    step: impl Fn(usize) -> ([f64; M], &'a [f64]),
) {
    match w {
        64 if NR >= 64 => block::<M, 64, SKIP_A, ZERO_B>(c, ldc, steps, step),
        32 if NR >= 32 => block::<M, 32, SKIP_A, ZERO_B>(c, ldc, steps, step),
        16 if NR >= 16 => block::<M, 16, SKIP_A, ZERO_B>(c, ldc, steps, step),
        8 if NR >= 8 => block::<M, 8, SKIP_A, ZERO_B>(c, ldc, steps, step),
        4 => block::<M, 4, SKIP_A, ZERO_B>(c, ldc, steps, step),
        2 => block::<M, 2, SKIP_A, ZERO_B>(c, ldc, steps, step),
        _ => block::<M, 1, SKIP_A, ZERO_B>(c, ldc, steps, step),
    }
}

/// Defines `$name(width, args…)` as `$body::<NR, NR1>(args…)` compiled once
/// per vector width: `NR` is the full strip of an `MR`-row block, `NR1` of
/// a single-row one. Each is eight vector registers of accumulators (half
/// the register file of AVX2 and SSE2), and at 512 bits also the largest
/// block — 64 cells — the compiler still unrolls into registers: measured,
/// a 4 × 32 block falls back to an accumulator in memory and runs 3× slower.
macro_rules! per_width {
    ($(#[$doc:meta])* fn $name:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        pub(crate) fn $name(width: Width, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn avx512($($arg: $ty),*) {
                $body::<16, 64>($($arg),*);
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) {
                $body::<8, 32>($($arg),*);
            }
            match width.0 {
                // SAFETY: a `Width` holding `Avx512` is built only by
                // `Width::supported`, behind
                // `is_x86_feature_detected!("avx512f")`.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { avx512($($arg),*) },
                // SAFETY: likewise `Avx2`, behind
                // `is_x86_feature_detected!("avx2")`.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { avx2($($arg),*) },
                Isa::Portable => $body::<4, 16>($($arg),*),
            }
        }
    };
}

per_width! {
    /// Dense `A·B` into `out`, rows `r0..r1` of the product (row-major,
    /// zeroed by the caller). Depth-blocked at `depth` so the `B` strip a
    /// column of blocks shares stays cache-resident; within a depth block
    /// the strip loop is outside and the row-block loop inside. Each cell
    /// accumulates in ascending `k`, zero `A[i,k]` skipped, as
    /// `ops::multiply::dense_dense` does.
    fn gemm_rows = gemm_body(
        a: &DenseMatrix,
        b: &DenseMatrix,
        out: &mut [f64],
        r0: usize,
        r1: usize,
        depth: usize,
    )
}

#[inline(always)]
fn gemm_body<const NR: usize, const NR1: usize>(
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut [f64],
    r0: usize,
    r1: usize,
    depth: usize,
) {
    let (k, n) = (a.cols(), b.cols());
    let (ad, bd) = (a.data(), b.data());
    for k0 in (0..k).step_by(depth) {
        let kd = depth.min(k - k0);
        let mut j = 0;
        while j < n {
            let w = strip_width(n - j, NR);
            let b_at = |s: usize| &bd[(k0 + s) * n + j..];
            let mut i = r0;
            while i < r1 {
                let c = &mut out[(i - r0) * n + j..];
                if i + MR <= r1 {
                    let rows: [&[f64]; MR] = from_fn(|r| &ad[(i + r) * k + k0..][..kd]);
                    let step = |s: usize| (from_fn(|r| rows[r][s]), b_at(s));
                    strip::<MR, NR, true, false>(w, c, n, kd, step);
                    i += MR;
                } else {
                    let row = &ad[i * k + k0..][..kd];
                    strip::<1, NR, true, false>(w, c, n, kd, |s| ([row[s]], b_at(s)));
                    i += 1;
                }
            }
            j += w;
        }
    }
}

per_width! {
    /// Fused dense `Aᵀ·B` into `out`, rows `r0..r1` of the product (the
    /// columns `r0..r1` of `A`), zeroed by the caller: a block reads
    /// `A[i, j..j+MR]` and `B[i, c..c+NR]`, both contiguous, walking `i`
    /// down a depth block of `depth` rows. Each cell accumulates in
    /// ascending `i`, zero `A[i,j]` skipped — the order of the reference's
    /// transpose-then-multiply. With an `n×1` right operand the output
    /// column is itself contiguous, so the strip runs along it, across the
    /// columns of `A`.
    fn tmul_rows = tmul_body(
        a: &DenseMatrix,
        b: &DenseMatrix,
        out: &mut [f64],
        r0: usize,
        r1: usize,
        depth: usize,
    )
}

#[inline(always)]
fn tmul_body<const NR: usize, const NR1: usize>(
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut [f64],
    r0: usize,
    r1: usize,
    depth: usize,
) {
    let (m, p, n) = (a.rows(), a.cols(), b.cols());
    let (ad, bd) = (a.data(), b.data());
    for i0 in (0..m).step_by(depth) {
        let md = depth.min(m - i0);
        if n == 1 {
            let mut j = r0;
            while j < r1 {
                let w = strip_width(r1 - j, NR1);
                let step = |s: usize| ([bd[i0 + s]], &ad[(i0 + s) * p + j..]);
                strip::<1, NR1, false, true>(w, &mut out[j - r0..], 1, md, step);
                j += w;
            }
            continue;
        }
        let mut c0 = 0;
        while c0 < n {
            let w = strip_width(n - c0, NR);
            let b_at = |s: usize| &bd[(i0 + s) * n + c0..];
            let mut j = r0;
            while j < r1 {
                let c = &mut out[(j - r0) * n + c0..];
                let a_at = |s: usize| &ad[(i0 + s) * p + j..];
                if j + MR <= r1 {
                    let step = |s: usize| (from_fn(|r| a_at(s)[r]), b_at(s));
                    strip::<MR, NR, true, false>(w, c, n, md, step);
                    j += MR;
                } else {
                    strip::<1, NR, true, false>(w, c, n, md, |s| ([a_at(s)[0]], b_at(s)));
                    j += 1;
                }
            }
            c0 += w;
        }
    }
}

/// The dense right operand of [`spmm_rows`]: columns `c0..c1` of a
/// row-major buffer with row stride `ld`.
#[derive(Clone, Copy)]
pub(crate) struct Panel<'a> {
    pub data: &'a [f64],
    pub ld: usize,
    pub c0: usize,
    pub c1: usize,
}

per_width! {
    /// Sparse `A` × the dense panel `b` into `out`, rows `r0..r1` of the
    /// product (row-major, as wide as the panel, zeroed by the caller): one
    /// accumulator strip per stored row of `A`, walked over that row's
    /// stored entries in order — every stored value multiplied, as
    /// `ops::multiply::sparse_dense` does. `zero_b` is for the transposed
    /// routes (`D·S` as `(Sᵀ·Dᵀ)ᵀ`), whose reference skips the zeros of the
    /// dense operand: see [`block`].
    fn spmm_rows = spmm_body(
        a: &SparseMatrix,
        b: Panel<'_>,
        out: &mut [f64],
        r0: usize,
        r1: usize,
        zero_b: bool,
    )
}

#[inline(always)]
fn spmm_body<const NR: usize, const NR1: usize>(
    a: &SparseMatrix,
    b: Panel<'_>,
    out: &mut [f64],
    r0: usize,
    r1: usize,
    zero_b: bool,
) {
    if zero_b {
        spmm_strips::<NR1, true>(a, b, out, r0, r1);
    } else {
        spmm_strips::<NR1, false>(a, b, out, r0, r1);
    }
}

#[inline(always)]
fn spmm_strips<const NR1: usize, const ZERO_B: bool>(
    a: &SparseMatrix,
    b: Panel<'_>,
    out: &mut [f64],
    r0: usize,
    r1: usize,
) {
    let n = b.c1 - b.c0;
    for (i, idx, vals) in a.stored_rows_in(r0, r1) {
        let vals = &vals[..idx.len()];
        let mut j = 0;
        while j < n {
            let w = strip_width(n - j, NR1);
            let step = |s: usize| ([vals[s]], &b.data[idx[s] * b.ld + b.c0 + j..]);
            strip::<1, NR1, false, ZERO_B>(w, &mut out[(i - r0) * n + j..], n, idx.len(), step);
            j += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::multiply::{dense_dense, dense_sparse, sparse_dense};

    /// Small integers and quarters with every seventh cell zero and every
    /// eleventh infinite: sums are exact, and both zero rules have
    /// something to decide.
    fn operand(r: usize, c: usize, phase: usize) -> DenseMatrix {
        DenseMatrix::from_fn(r, c, |i, j| match (i * c + j + phase) % 77 {
            x if x % 7 == 0 => 0.0,
            x if x % 11 == 0 => f64::INFINITY,
            x => x as f64 * 0.25 - 4.0,
        })
    }

    fn bits(d: &[f64]) -> Vec<u64> {
        // `inf - inf` and `0 * inf` are the same `NaN` on both sides here:
        // the operands carry none, so only the default one can arise.
        d.iter().map(|v| if v.is_nan() { 0 } else { v.to_bits() }).collect()
    }

    /// The three kernels against the reference loops, at every supported
    /// width, on shapes small enough for Miri that still cross a block edge
    /// (5 = 4 + 1 rows) and step a strip down (23 = 16 + 4 + 2 + 1).
    #[test]
    fn kernels_match_the_reference_loops_on_small_shapes() {
        for width in Width::supported() {
            for &(m, k, n) in &[(1, 1, 1), (5, 3, 23), (2, 6, 1), (9, 2, 5)] {
                let (a, b, t) = (operand(m, k, 0), operand(k, n, 3), operand(m, n, 5));
                let what = format!("{m}x{k}x{n} at {}", width.name());

                let mut out = vec![0.0; m * n];
                gemm_rows(width, &a, &b, &mut out, 0, m, 2);
                assert_eq!(bits(&out), bits(dense_dense(&a, &b).data()), "gemm {what}");

                let mut out = vec![0.0; k * n];
                tmul_rows(width, &a, &t, &mut out, 0, k, 2);
                let want = dense_dense(&a.transpose(), &t);
                assert_eq!(bits(&out), bits(want.data()), "tmul {what}");

                let sa = SparseMatrix::from_dense(&a);
                let mut out = vec![0.0; m * n];
                let panel = Panel { data: b.data(), ld: n, c0: 0, c1: n };
                spmm_rows(width, &sa, panel, &mut out, 0, m, false);
                assert_eq!(bits(&out), bits(sparse_dense(&sa, &b).data()), "spmm {what}");

                // `(Bᵀ·Aᵀ)ᵀ = A·B` with `B` sparse: the zero rule moves to
                // the strip operand.
                let sb = SparseMatrix::from_dense(&b);
                let (at, mut out_t) = (a.transpose(), vec![0.0; n * m]);
                let panel = Panel { data: at.data(), ld: m, c0: 0, c1: m };
                spmm_rows(width, &sb.transpose(), panel, &mut out_t, 0, n, true);
                let got = DenseMatrix::from_vec(n, m, out_t).transpose();
                assert_eq!(bits(got.data()), bits(dense_sparse(&a, &sb).data()), "dsp {what}");
            }
        }
    }

    #[test]
    fn detection_picks_the_widest_supported_width() {
        let widths = Width::supported();
        assert_eq!(widths[0].name(), "portable");
        assert_eq!(Width::detected(), *widths.last().unwrap());
        assert!(widths.windows(2).all(|w| w[0].lanes() < w[1].lanes()));
    }
}
