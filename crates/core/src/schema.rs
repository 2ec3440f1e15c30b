//! The VREM schema (Virtual Relational Encoding of Matrices, paper §6.2,
//! Table 1): one virtual relation per LA operation, plus `name`, `zero`,
//! `identity`, `type`, and scalar-literal relations. The paper's `size`
//! relation is not one here: shapes are the per-class data of
//! [`crate::analysis::LaAnalysis`], which rules read through guards.
//!
//! IDs in these relations denote *value-equivalence classes* of expressions
//! (§6.2.1): the chase's functional EGDs merge IDs of provably value-equal
//! expressions, so the saturated instance doubles as an e-graph.

use std::sync::Arc;

use hadad_chase::{PredId, Vocabulary};

/// Operator tags shared by the encoder, the constraint catalogue, and the
/// extractor. Each maps to one VREM relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Matrix addition — `add(A, B, C)`.
    Add,
    /// Matrix product — `multiM(A, B, C)`.
    Mul,
    /// Hadamard product — `multiE`.
    Hadamard,
    /// Element-wise division — `divi`.
    Div,
    /// Scalar-matrix product — `multiMS`.
    ScalarMul,
    /// Kronecker product — `product_D`.
    Kron,
    /// Direct sum — `sum_D`.
    DirectSum,
    /// Transposition — `tr`.
    Transpose,
    /// Matrix inverse — `invM`.
    Inv,
    /// Adjugate (classical adjoint) — `adj`.
    Adj,
    /// Matrix exponential — `expM`.
    Exp,
    /// Diagonal of a square matrix, as a column vector — `diag`.
    Diag,
    /// Row-order reversal (SystemML `rev`) — `rev`.
    Rev,
    /// Per-row sums, as a column vector.
    RowSums,
    /// Per-column sums, as a row vector.
    ColSums,
    /// Per-row means, as a column vector.
    RowMeans,
    /// Per-column means, as a row vector.
    ColMeans,
    /// Per-row minima, as a column vector.
    RowMin,
    /// Per-row maxima, as a column vector.
    RowMax,
    /// Per-column minima, as a row vector.
    ColMin,
    /// Per-column maxima, as a row vector.
    ColMax,
    /// Per-row population variances, as a column vector.
    RowVar,
    /// Per-column population variances, as a row vector.
    ColVar,
    /// Determinant — `det`.
    Det,
    /// Trace — `trace`.
    Trace,
    /// Sum of all entries.
    Sum,
    /// Minimum entry.
    Min,
    /// Maximum entry.
    Max,
    /// Mean of all entries.
    Mean,
    /// Population variance of all entries.
    Var,
    /// Cholesky factor `L` of a symmetric positive definite `M = L Lᵀ`: `CHO(M, L)`.
    Cho,
    /// QR: `QR(M, Q, R)` — two outputs, `qr.Q` (0) and `qr.R` (1).
    Qr,
    /// LU: `LU(M, L, U)` — two outputs, `lu.L` (0) and `lu.U` (1).
    Lu,
}

impl OpKind {
    /// VREM relation name (Table 1 of the paper).
    pub fn pred_name(&self) -> &'static str {
        use OpKind::*;
        match self {
            Add => "addM",
            Mul => "multiM",
            Hadamard => "multiE",
            Div => "divM",
            ScalarMul => "multiMS",
            Kron => "productD",
            DirectSum => "sumD",
            Transpose => "tr",
            Inv => "invM",
            Adj => "adj",
            Exp => "exp",
            Diag => "diag",
            Rev => "rev",
            RowSums => "rowSums",
            ColSums => "colSums",
            RowMeans => "rowMeans",
            ColMeans => "colMeans",
            RowMin => "rowMin",
            RowMax => "rowMax",
            ColMin => "colMin",
            ColMax => "colMax",
            RowVar => "rowVar",
            ColVar => "colVar",
            Det => "det",
            Trace => "trace",
            Sum => "sum",
            Min => "min",
            Max => "max",
            Mean => "mean",
            Var => "var",
            Cho => "CHO",
            Qr => "QR",
            Lu => "LU",
        }
    }

    /// Relation arity: inputs + outputs.
    pub fn arity(&self) -> usize {
        use OpKind::*;
        match self {
            Add | Mul | Hadamard | Div | ScalarMul | Kron | DirectSum => 3,
            Qr | Lu => 3,
            _ => 2,
        }
    }

    /// Number of input arguments (the rest are outputs).
    pub fn num_inputs(&self) -> usize {
        use OpKind::*;
        match self {
            Add | Mul | Hadamard | Div | ScalarMul | Kron | DirectSum => 2,
            _ => 1,
        }
    }

    /// All operator kinds, in declaration (discriminant) order.
    pub fn all() -> &'static [OpKind] {
        use OpKind::*;
        &[
            Add, Mul, Hadamard, Div, ScalarMul, Kron, DirectSum, Transpose, Inv, Adj, Exp,
            Diag, Rev, RowSums, ColSums, RowMeans, ColMeans, RowMin, RowMax, ColMin, ColMax,
            RowVar, ColVar, Det, Trace, Sum, Min, Max, Mean, Var, Cho, Qr, Lu,
        ]
    }
}

/// The VREM schema: interned predicates over a shared vocabulary.
#[derive(Debug, Clone)]
pub struct Vrem {
    /// The shared vocabulary all predicates are interned in.
    pub vocab: Vocabulary,
    /// `name(M, n)`: class `M` is the matrix stored under name `n`.
    pub name: PredId,
    /// `zero(O)`: class `O` is an all-zeros matrix.
    pub zero: PredId,
    /// `identity(I)`: class `I` is an identity matrix.
    pub identity: PredId,
    /// `type(M, f)`: structural flag `f` ∈ {"S","L","U","O","P"} (§6.2.5).
    pub ty: PredId,
    /// `lit(S, v)`: class `S` is the 1x1 scalar literal `v`.
    pub lit: PredId,
    /// `square(M)`: a rule guard, never a fact — it holds when the
    /// analysis gives class `M` a square shape.
    pub square: PredId,
    /// Operator relation per `OpKind`, indexed by discriminant; shared
    /// with every clone.
    ops: Arc<[PredId]>,
    /// Reverse of `ops`, indexed by `PredId.0`; shared with every clone
    /// and with the analysis.
    kinds: Arc<[Option<OpKind>]>,
}

impl Vrem {
    /// A fresh schema: interns every VREM predicate into a new vocabulary.
    pub fn new() -> Self {
        let mut vocab = Vocabulary::new();
        let name = vocab.predicate("name", 2);
        let zero = vocab.predicate("zero", 1);
        let identity = vocab.predicate("identity", 1);
        let ty = vocab.predicate("type", 2);
        let lit = vocab.predicate("lit", 2);
        let square = vocab.predicate("square", 1);
        let ops: Arc<[PredId]> =
            OpKind::all().iter().map(|k| vocab.predicate(k.pred_name(), k.arity())).collect();
        let mut kinds = vec![None; vocab.num_preds()];
        for (&k, p) in OpKind::all().iter().zip(ops.iter()) {
            kinds[p.0 as usize] = Some(k);
        }
        Vrem { vocab, name, zero, identity, ty, lit, square, ops, kinds: kinds.into() }
    }

    /// Predicate of an operator relation.
    pub fn op(&self, kind: OpKind) -> PredId {
        self.ops[kind as usize]
    }

    /// Reverse lookup: operator kind of a predicate, if it is one.
    pub fn kind_of(&self, pred: PredId) -> Option<OpKind> {
        self.kinds.get(pred.0 as usize).copied().flatten()
    }

    /// The [`Self::kind_of`] table, shared.
    pub(crate) fn kinds(&self) -> Arc<[Option<OpKind>]> {
        Arc::clone(&self.kinds)
    }
}

impl Default for Vrem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ops_registered() {
        let vrem = Vrem::new();
        for &k in OpKind::all() {
            let p = vrem.op(k);
            assert_eq!(vrem.vocab.pred_arity(p), k.arity());
            assert_eq!(vrem.kind_of(p), Some(k));
        }
    }

    #[test]
    fn table1_names() {
        let vrem = Vrem::new();
        assert_eq!(vrem.vocab.pred_name(vrem.op(OpKind::Mul)), "multiM");
        assert_eq!(vrem.vocab.pred_name(vrem.op(OpKind::Hadamard)), "multiE");
        assert_eq!(vrem.vocab.pred_name(vrem.op(OpKind::ScalarMul)), "multiMS");
        assert_eq!(vrem.vocab.pred_name(vrem.op(OpKind::Transpose)), "tr");
    }

    #[test]
    fn inputs_vs_arity() {
        assert_eq!(OpKind::Mul.num_inputs(), 2);
        assert_eq!(OpKind::Qr.num_inputs(), 1);
        assert_eq!(OpKind::Qr.arity(), 3);
        assert_eq!(OpKind::Det.arity(), 2);
    }
}
