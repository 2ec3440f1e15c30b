//! Canonical expression fingerprints — the key space of the plan cache in
//! `hadad-rewrite`.
//!
//! Two queries that differ only in base-matrix *names* chase to isomorphic
//! instances and extract isomorphic plans, so the cache abstracts leaves
//! to first-occurrence indices: `trace(A B)` and `trace(C D)` share a
//! canonical skeleton, and a hit is re-skinned onto the probe's names.
//! What a rewrite reads of a leaf is its whole [`MatrixMeta`] — shape and
//! exact nnz price the plans, and the type flags gate the decomposition
//! rules — so the key carries each leaf's metadata unabridged, and
//! [`structural_hash`] hashes it with the skeleton. Matching skeleton and
//! matching metadata ⇒ the cold pipeline would produce the same plans.
//!
//! Skeletons and re-skinned plans are rebuilt by one walk over the leaves
//! (a unary node keeps its [`crate::expr::UnaryOp`]) that shares every
//! subtree whose names it leaves alone, and the key's leaf names share the
//! expression's. [`hash_expr`] hashes a unary node's operator, so
//! `qr.Q(A)` and `qr.R(A)` key apart.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::expr::Expr;
use crate::stats::MatrixMeta;

/// Prefix of canonical placeholder leaf names. A control character keeps
/// placeholders disjoint from any user-registered matrix name.
const PLACEHOLDER: char = '\u{1}';

/// The canonical placeholder name for the `idx`-th distinct leaf.
pub fn placeholder(idx: usize) -> Arc<str> {
    format!("{PLACEHOLDER}{idx}").into()
}

/// An expression with base-matrix names abstracted to first-occurrence
/// indices, plus the distinct concrete names in occurrence order (the
/// substitution that maps the skeleton back to the original).
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalExpr {
    /// The skeleton: every `Mat(name)` replaced by `Mat(placeholder(i))`.
    pub skeleton: Expr,
    /// Distinct concrete leaf names, in first-occurrence order, shared with
    /// the expression; `leaves[i]` is what `placeholder(i)` stands for.
    pub leaves: Vec<Arc<str>>,
}

/// Abstracts `e`'s base-matrix names to first-occurrence indices. A
/// subtree without a `Mat` leaf is shared with `e`.
pub fn canonicalize(e: &Expr) -> CanonicalExpr {
    let mut leaves: Vec<Arc<str>> = Vec::new();
    let mut marks: Vec<Arc<str>> = Vec::new();
    let skeleton = map_leaves(e, &mut |name| {
        let idx = leaves.iter().position(|l| l == name).unwrap_or_else(|| {
            leaves.push(Arc::clone(name));
            marks.push(placeholder(marks.len()));
            leaves.len() - 1
        });
        Some(Arc::clone(&marks[idx]))
    });
    CanonicalExpr { skeleton: skeleton.unwrap_or_else(|| e.clone()), leaves }
}

/// Rewrites every `Mat` leaf whose name appears in `from` to the
/// positionally corresponding name in `to` (leaves outside `from` are kept
/// verbatim). This re-skins a cached plan onto a dimension-compatible
/// probe with different base-matrix names; a subtree with no leaf in
/// `from` is shared with `e`.
pub fn rename_leaves(e: &Expr, from: &[Arc<str>], to: &[Arc<str>]) -> Expr {
    debug_assert_eq!(from.len(), to.len());
    let renamed = map_leaves(e, &mut |name| {
        from.iter().position(|f| f == name).map(|i| Arc::clone(&to[i]))
    });
    renamed.unwrap_or_else(|| e.clone())
}

/// `e` with each `Mat` name `n` replaced by `leaf(n)`, or `None` where
/// `leaf` replaces no name in `e`: the caller then shares `e` itself, and
/// an unchanged operand is shared into the rebuilt node.
fn map_leaves(e: &Expr, leaf: &mut impl FnMut(&Arc<str>) -> Option<Arc<str>>) -> Option<Expr> {
    use Expr::*;
    match e {
        Mat(n) => leaf(n).map(Mat),
        Const(_) | Identity(_) | Zero(..) => None,
        Unary(op, x) => map_leaves(x, leaf).map(|x| Unary(*op, Arc::new(x))),
        Add(x, y) => pair(x, y, leaf).map(|(x, y)| Add(x, y)),
        Sub(x, y) => pair(x, y, leaf).map(|(x, y)| Sub(x, y)),
        Mul(x, y) => pair(x, y, leaf).map(|(x, y)| Mul(x, y)),
        Hadamard(x, y) => pair(x, y, leaf).map(|(x, y)| Hadamard(x, y)),
        Div(x, y) => pair(x, y, leaf).map(|(x, y)| Div(x, y)),
        Kron(x, y) => pair(x, y, leaf).map(|(x, y)| Kron(x, y)),
        DirectSum(x, y) => pair(x, y, leaf).map(|(x, y)| DirectSum(x, y)),
        ScalarMul(x, y) => pair(x, y, leaf).map(|(x, y)| ScalarMul(x, y)),
    }
}

/// [`map_leaves`] over both operands of a binary node, `x` first: the new
/// operands, an unchanged one shared, or `None` where neither changed.
fn pair(
    x: &Arc<Expr>,
    y: &Arc<Expr>,
    leaf: &mut impl FnMut(&Arc<str>) -> Option<Arc<str>>,
) -> Option<(Arc<Expr>, Arc<Expr>)> {
    let (new_x, new_y) = (map_leaves(x, leaf), map_leaves(y, leaf));
    if new_x.is_none() && new_y.is_none() {
        return None;
    }
    let share =
        |new: Option<Expr>, old: &Arc<Expr>| new.map_or_else(|| Arc::clone(old), Arc::new);
    Some((share(new_x, x), share(new_y, y)))
}

/// Structural hash of a canonical skeleton plus its leaves' metadata.
/// Collisions are tolerated by the cache (entries verify full equality),
/// so `DefaultHasher` is sufficient.
pub fn structural_hash(skeleton: &Expr, leaves: &[MatrixMeta]) -> u64 {
    let mut h = DefaultHasher::new();
    hash_expr(skeleton, &mut h);
    leaves.hash(&mut h);
    h.finish()
}

/// Recursive structural hash over `Expr`, which cannot derive `Hash`
/// (`Const` holds an `f64`); literals hash by bit pattern, and a unary node
/// hashes its operator (kind and output) after the variant.
pub fn hash_expr(e: &Expr, h: &mut impl Hasher) {
    std::mem::discriminant(e).hash(h);
    match e {
        Expr::Mat(n) => n.hash(h),
        Expr::Const(v) => v.to_bits().hash(h),
        Expr::Identity(n) => n.hash(h),
        Expr::Zero(r, c) => {
            r.hash(h);
            c.hash(h);
        }
        Expr::Unary(op, a) => {
            op.hash(h);
            hash_expr(a, h);
        }
        _ => {
            for c in e.children() {
                hash_expr(c, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;
    use crate::stats::TypeFlags;

    #[test]
    fn canonicalize_abstracts_names_in_occurrence_order() {
        let e = trace(mul(m("A"), mul(m("B"), m("A"))));
        let canon = canonicalize(&e);
        assert_eq!(canon.leaves, vec![Arc::from("A"), Arc::from("B")]);
        let f = trace(mul(m("X"), mul(m("Y"), m("X"))));
        assert_eq!(canonicalize(&f).skeleton, canon.skeleton);
        // Different sharing structure yields a different skeleton.
        let g = trace(mul(m("X"), mul(m("Y"), m("Z"))));
        assert_ne!(canonicalize(&g).skeleton, canon.skeleton);
    }

    #[test]
    fn rename_leaves_round_trips() {
        let e = add(mul(m("A"), m("B")), t(m("A")));
        let canon = canonicalize(&e);
        let back =
            rename_leaves(&canon.skeleton, &[placeholder(0), placeholder(1)], &canon.leaves);
        assert_eq!(back, e);
    }

    /// Shape, exact nnz and type flags all key apart: an nnz below the
    /// ppm resolution of a density, and a flag that fires a decomposition
    /// rule, change the plans.
    #[test]
    fn structural_hash_separates_shapes_and_literals() {
        let canon = canonicalize(&mul(m("A"), m("B"))).skeleton;
        let b1 = vec![MatrixMeta::dense(8, 8); 2];
        let b2 = vec![MatrixMeta::dense(9, 8); 2];
        assert_ne!(structural_hash(&canon, &b1), structural_hash(&canon, &b2));
        let nnz = |n| vec![MatrixMeta::sparse(4000, 1000, n); 2];
        assert_ne!(
            structural_hash(&canon, &nnz(2_000_000)),
            structural_hash(&canon, &nnz(2_000_001))
        );
        let orthogonal = TypeFlags { orthogonal: true, ..TypeFlags::default() };
        let flagged = vec![MatrixMeta::dense(8, 8).with_flags(orthogonal); 2];
        assert_ne!(structural_hash(&canon, &b1), structural_hash(&canon, &flagged));
        let l1 = canonicalize(&smul(lit(2.0), m("A"))).skeleton;
        let l2 = canonicalize(&smul(lit(3.0), m("A"))).skeleton;
        assert_ne!(structural_hash(&l1, &b1), structural_hash(&l2, &b1));
    }
}
