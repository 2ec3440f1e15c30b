//! Shared corpus for the differential property tests: a catalog of
//! shape-compatible base matrices and a generator of random shape-valid
//! expressions over them. Used by the engine-equivalence suite
//! (naive vs semi-naïve chase) and the backend suite (Reference vs
//! Parallel kernels), so both differentials exercise the same space.

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;

/// Base matrices every random expression draws from. Two square sizes, a
/// compatible rectangular pair, and vectors keep all binary ops satisfiable.
pub fn corpus_catalog() -> MetaCatalog {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(12, 8));
    cat.register("B", MatrixMeta::dense(8, 12));
    cat.register("C", MatrixMeta::dense(8, 8));
    cat.register("D", MatrixMeta::dense(12, 12));
    cat.register("x", MatrixMeta::dense(8, 1));
    cat.register("y", MatrixMeta::dense(12, 1));
    cat
}

/// Grows a pool of shape-tracked expressions by random composition and
/// returns the largest composite below a node budget. Only chase-friendly
/// operators (no divergent inverse interplay) so every sample saturates
/// within the test budget.
pub fn random_expr(rng: &mut Rng64) -> Expr {
    let mut pool: Vec<(Expr, (usize, usize))> = vec![
        (m("A"), (12, 8)),
        (m("B"), (8, 12)),
        (m("C"), (8, 8)),
        (m("D"), (12, 12)),
        (m("x"), (8, 1)),
        (m("y"), (12, 1)),
    ];
    let steps = 3 + rng.range_usize(4);
    let mut last_composite: Option<(Expr, usize)> = None;
    for _ in 0..steps {
        let op = rng.range_usize(8);
        let pick = |rng: &mut Rng64, pool: &[(Expr, (usize, usize))]| {
            pool[rng.range_usize(pool.len())].clone()
        };
        let made: Option<(Expr, (usize, usize))> = match op {
            // Multiplication dominates (it is what the catalogue rewrites
            // hardest): pick a left factor, then any right factor that fits.
            0..=2 => {
                let (l, (lr, lc)) = pick(rng, &pool);
                let fits: Vec<&(Expr, (usize, usize))> =
                    pool.iter().filter(|(_, (rr, _))| *rr == lc).collect();
                if fits.is_empty() {
                    None
                } else {
                    let (r, (_, rc)) = fits[rng.range_usize(fits.len())].clone();
                    Some((mul(l, r), (lr, rc)))
                }
            }
            3..=5 => {
                let (l, ls) = pick(rng, &pool);
                let fits: Vec<&(Expr, (usize, usize))> =
                    pool.iter().filter(|(_, s)| *s == ls).collect();
                let (r, _) = fits[rng.range_usize(fits.len())].clone();
                Some(match op {
                    3 => (add(l, r), ls),
                    4 => (sub(l, r), ls),
                    _ => (had(l, r), ls),
                })
            }
            6 => {
                let (e, (r, c)) = pick(rng, &pool);
                Some((t(e), (c, r)))
            }
            _ => {
                let squares: Vec<&(Expr, (usize, usize))> =
                    pool.iter().filter(|(_, (r, c))| r == c && *r > 1).collect();
                if squares.is_empty() {
                    None
                } else {
                    let (e, _) = squares[rng.range_usize(squares.len())].clone();
                    Some((trace(e), (1, 1)))
                }
            }
        };
        if let Some((e, shape)) = made {
            let n = e.node_count();
            if n <= 16 {
                if last_composite.as_ref().is_none_or(|(_, best)| n >= *best) {
                    last_composite = Some((e.clone(), n));
                }
                pool.push((e, shape));
            }
        }
    }
    last_composite.map_or_else(|| m("A"), |(e, _)| e)
}
