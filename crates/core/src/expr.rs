//! The hybrid LA expression language `L` (paper §3, operator set `Lops` of
//! §6.1).
//!
//! Scalars are degenerate `1x1` matrices (paper §3), so scalar arithmetic
//! reuses the matrix operators: `det(C) * det(D)` is a `Mul` of two `1x1`
//! expressions. Subtraction is kept in the surface syntax but desugared to
//! `Add(a, ScalarMul(-1, b))` by the relational encoder so that every
//! addition property applies to it for free; the decoder resugars.
//!
//! Each unary operator is declared once, as an [`OpKind`] (one VREM
//! relation of the paper's Table 1). An [`Expr::Unary`] node names it
//! through the checked [`UnaryOp`], so traversals, hashing, the encoder
//! and the extractor handle every unary operator in one arm. What an
//! operator does is said per kind: its shape rule and cost in
//! [`crate::stats`], its kernel in the evaluator. `Display` prints the
//! relation's name, except for `ᵀ`, `⁻¹` and the decompositions.
//!
//! An expression is a shared tree: a node holds its operands as
//! `Arc<Expr>` and a leaf its name as `Arc<str>`, so a clone is O(1) — a
//! refcount bump, whatever the tree's size — and one subtree may sit
//! under many parents (the extractor's candidates share their operands'
//! plans). Equality stays structural and derived: two trees are equal
//! when their shapes, names and literals are, whether or not they share
//! nodes, and a `Const(NaN)` is never equal to itself, shared or not.

use std::fmt;
use std::sync::Arc;

use crate::schema::OpKind;

/// A hybrid linear-algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Base matrix (or materialized view) identified by name.
    Mat(Arc<str>),
    /// Literal scalar, as a 1x1 matrix.
    Const(f64),
    /// Identity matrix of order `n`.
    Identity(usize),
    /// Zero matrix.
    Zero(usize, usize),

    // -- binary --
    /// Matrix addition.
    Add(Arc<Expr>, Arc<Expr>),
    /// Matrix subtraction.
    Sub(Arc<Expr>, Arc<Expr>),
    /// Matrix product.
    Mul(Arc<Expr>, Arc<Expr>),
    /// Element-wise (Hadamard) product.
    Hadamard(Arc<Expr>, Arc<Expr>),
    /// Element-wise division.
    Div(Arc<Expr>, Arc<Expr>),
    /// Kronecker / direct product (paper `product_D`).
    Kron(Arc<Expr>, Arc<Expr>),
    /// Direct sum (paper `sum_D`).
    DirectSum(Arc<Expr>, Arc<Expr>),
    /// Scalar-matrix product; the first operand must be scalar (1x1).
    ScalarMul(Arc<Expr>, Arc<Expr>),

    // -- unary --
    /// A unary operator applied to its operand: transposition, inverse,
    /// an aggregate, a decomposition component, ... ([`UnaryOp`]).
    Unary(UnaryOp, Arc<Expr>),
}

/// The operator of an [`Expr::Unary`] node: a unary [`OpKind`] and, for
/// QR and LU, which of their two outputs (`qr.Q`/`lu.L` are 0, `qr.R`/`lu.U`
/// are 1). [`UnaryOp::new`] is the only constructor, so an `Expr` never
/// holds a binary kind or an output its operator does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnaryOp {
    kind: OpKind,
    out: u8,
}

impl UnaryOp {
    /// Output `out` of the unary `kind`; `None` for a binary kind or an
    /// output past the kind's last.
    pub fn new(kind: OpKind, out: usize) -> Option<UnaryOp> {
        let outputs = kind.arity() - kind.num_inputs();
        (kind.num_inputs() == 1 && out < outputs).then_some(UnaryOp { kind, out: out as u8 })
    }

    /// The operator kind (one VREM relation).
    pub fn kind(self) -> OpKind {
        self.kind
    }

    /// Which output of the kind's relation this is (0 unless QR/LU).
    pub fn out(self) -> usize {
        usize::from(self.out)
    }

    /// Writes `op(a)`: postfix for transposition and inverse, else a
    /// function named as the operator's VREM relation is, but for the
    /// decompositions.
    fn fmt(self, a: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use OpKind::*;
        let name = match (self.kind, self.out) {
            (Transpose, _) => return write!(f, "{a}ᵀ"),
            (Inv, _) => return write!(f, "{a}⁻¹"),
            (Cho, _) => "cho",
            (Qr, 0) => "qr.Q",
            (Qr, _) => "qr.R",
            (Lu, 0) => "lu.L",
            (Lu, _) => "lu.U",
            (kind, _) => kind.pred_name(),
        };
        write!(f, "{name}({a})")
    }
}

/// The single-output unary `kind` applied to `a`.
fn apply(kind: OpKind, a: Expr) -> Expr {
    let op = UnaryOp::new(kind, 0).expect("a single-output unary kind");
    Expr::Unary(op, Arc::new(a))
}

impl Expr {
    /// A base matrix (or view) reference.
    pub fn mat(name: impl Into<Arc<str>>) -> Expr {
        Expr::Mat(name.into())
    }

    /// Children of this node, for generic traversals.
    pub fn children(&self) -> Vec<&Expr> {
        use Expr::*;
        match self {
            Mat(_) | Const(_) | Identity(_) | Zero(..) => vec![],
            Add(a, b)
            | Sub(a, b)
            | Mul(a, b)
            | Hadamard(a, b)
            | Div(a, b)
            | Kron(a, b)
            | DirectSum(a, b)
            | ScalarMul(a, b) => vec![a, b],
            Unary(_, a) => vec![a],
        }
    }

    /// Number of operator nodes (size of the expression tree).
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Names of all base matrices referenced.
    pub fn base_matrices(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_bases(&mut out);
        out
    }

    fn collect_bases<'a>(&'a self, out: &mut Vec<&'a str>) {
        if let Expr::Mat(n) = self {
            if !out.contains(&n.as_ref()) {
                out.push(n);
            }
        }
        for c in self.children() {
            c.collect_bases(out);
        }
    }

    /// The factors of a product chain, left to right — the leaf names of a
    /// tree of `Mul` over `Mat` leaves, repeats included, so a bare `Mat`
    /// is a chain of one — or `None` for any other expression.
    pub fn product_factors(&self) -> Option<Vec<&str>> {
        let mut out = Vec::new();
        self.collect_factors(&mut out).then_some(out)
    }

    fn collect_factors<'a>(&'a self, out: &mut Vec<&'a str>) -> bool {
        match self {
            Expr::Mat(n) => {
                out.push(n);
                true
            }
            Expr::Mul(a, b) => a.collect_factors(out) && b.collect_factors(out),
            _ => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Expr::*;
        match self {
            Mat(n) => write!(f, "{n}"),
            Const(v) => write!(f, "{v}"),
            Identity(n) => write!(f, "I{n}"),
            Zero(r, c) => write!(f, "0[{r}x{c}]"),
            Add(a, b) => write!(f, "({a} + {b})"),
            Sub(a, b) => write!(f, "({a} - {b})"),
            Mul(a, b) => write!(f, "({a} {b})"),
            Hadamard(a, b) => write!(f, "({a} ⊙ {b})"),
            Div(a, b) => write!(f, "({a} / {b})"),
            Kron(a, b) => write!(f, "({a} ⊗ {b})"),
            DirectSum(a, b) => write!(f, "({a} ⊕ {b})"),
            ScalarMul(a, b) => write!(f, "({a} · {b})"),
            Unary(op, a) => op.fmt(a, f),
        }
    }
}

/// Convenience constructors (keep workload definitions terse).
pub mod dsl {
    use std::sync::Arc;

    use super::{apply, Expr};
    use crate::schema::OpKind;

    /// [`Expr::Mat`] reference.
    pub fn m(name: &str) -> Expr {
        Expr::mat(name)
    }
    /// Scalar literal (1x1).
    pub fn lit(v: f64) -> Expr {
        Expr::Const(v)
    }
    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Arc::new(a), Arc::new(b))
    }
    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Arc::new(a), Arc::new(b))
    }
    /// Matrix product `a b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Arc::new(a), Arc::new(b))
    }
    /// Hadamard product.
    pub fn had(a: Expr, b: Expr) -> Expr {
        Expr::Hadamard(Arc::new(a), Arc::new(b))
    }
    /// Element-wise division.
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Arc::new(a), Arc::new(b))
    }
    /// Scalar-matrix product (`s` must be 1x1).
    pub fn smul(s: Expr, a: Expr) -> Expr {
        Expr::ScalarMul(Arc::new(s), Arc::new(a))
    }
    /// Transpose.
    pub fn t(a: Expr) -> Expr {
        apply(OpKind::Transpose, a)
    }
    /// Inverse.
    pub fn inv(a: Expr) -> Expr {
        apply(OpKind::Inv, a)
    }
    /// Determinant.
    pub fn det(a: Expr) -> Expr {
        apply(OpKind::Det, a)
    }
    /// Trace.
    pub fn trace(a: Expr) -> Expr {
        apply(OpKind::Trace, a)
    }
    /// Sum of all entries.
    pub fn sum(a: Expr) -> Expr {
        apply(OpKind::Sum, a)
    }
    /// Matrix exponential.
    pub fn exp(a: Expr) -> Expr {
        apply(OpKind::Exp, a)
    }
    /// Per-row sums.
    pub fn row_sums(a: Expr) -> Expr {
        apply(OpKind::RowSums, a)
    }
    /// Per-column sums.
    pub fn col_sums(a: Expr) -> Expr {
        apply(OpKind::ColSums, a)
    }
    /// Cholesky factor `L`.
    pub fn cho(a: Expr) -> Expr {
        apply(OpKind::Cho, a)
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;
    use crate::fingerprint::{canonicalize, structural_hash};
    use crate::{ChainCells, Encoder, Extractor, LaAnalysis, MatrixMeta, MetaCatalog, Vrem};

    #[test]
    fn display_is_readable() {
        let e = t(mul(m("M"), m("N")));
        assert_eq!(e.to_string(), "(M N)ᵀ");
        let ols = mul(inv(mul(t(m("X")), m("X"))), mul(t(m("X")), m("y")));
        assert_eq!(ols.to_string(), "((Xᵀ X)⁻¹ (Xᵀ y))");
    }

    /// Every unary operator over a square `D`, in `OpKind::all()` order
    /// and then output order, as `Display` prints it.
    const UNARY_OVER_D: [&str; 28] = [
        "Dᵀ",
        "D⁻¹",
        "adj(D)",
        "exp(D)",
        "diag(D)",
        "rev(D)",
        "rowSums(D)",
        "colSums(D)",
        "rowMeans(D)",
        "colMeans(D)",
        "rowMin(D)",
        "rowMax(D)",
        "colMin(D)",
        "colMax(D)",
        "rowVar(D)",
        "colVar(D)",
        "det(D)",
        "trace(D)",
        "sum(D)",
        "min(D)",
        "max(D)",
        "mean(D)",
        "var(D)",
        "cho(D)",
        "qr.Q(D)",
        "qr.R(D)",
        "lu.L(D)",
        "lu.U(D)",
    ];

    /// Each unary `(kind, out)` the checked constructor admits prints as it
    /// always did, comes back from encode → extract as itself, and keys
    /// the plan cache apart from every other one (`qr.Q` from `qr.R`
    /// too). Binary kinds and outputs past a kind's last are refused, or
    /// the count would not be 28.
    #[test]
    fn every_unary_operator_prints_round_trips_and_hashes_apart() {
        let ops: Vec<UnaryOp> = OpKind::all()
            .iter()
            .flat_map(|&kind| (0..3).filter_map(move |out| UnaryOp::new(kind, out)))
            .collect();
        assert_eq!(ops.len(), UNARY_OVER_D.len());
        let mut cat = MetaCatalog::new();
        cat.register("D", MatrixMeta::dense(10, 10));
        let leaves = [MatrixMeta::dense(10, 10)];
        let mut hashes = Vec::new();
        for (&op, shown) in ops.iter().zip(UNARY_OVER_D) {
            let e = Expr::Unary(op, Arc::new(m("D")));
            assert_eq!(e.to_string(), shown);
            let mut vrem = Vrem::new();
            let enc = Encoder::new(&mut vrem, &cat).encode(&e).unwrap();
            let analysis = LaAnalysis::new(&vrem, enc.classes);
            let cells = ChainCells::default();
            let ex = Extractor::new(&vrem, &enc.instance, &analysis, &cat, &cells);
            assert_eq!(ex.extract(enc.root).as_ref(), Some(&e), "{shown}");
            hashes.push(structural_hash(&canonicalize(&e).skeleton, &leaves));
        }
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), ops.len(), "two unary operators share a cache hash");
    }

    #[test]
    fn base_matrices_dedup() {
        let e = mul(m("M"), mul(m("N"), m("M")));
        assert_eq!(e.base_matrices(), vec!["M", "N"]);
    }

    #[test]
    fn node_count() {
        let e = add(m("A"), m("B"));
        assert_eq!(e.node_count(), 3);
    }
}
