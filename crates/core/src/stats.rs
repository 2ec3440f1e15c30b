//! Matrix metadata and the **unified cost oracle's** estimator: dimensions,
//! non-zero counts, structural type flags, and the single
//! shape/density/flops propagation every consumer shares — per operator
//! ([`op_stats`]/[`op_flops`]/[`op_cost`], which the extraction DP prices
//! each plan it builds with) and per expression ([`expr_estimate`], the
//! one recursion over [`Expr`], which [`expr_stats`] wraps,
//! `hadad_rewrite::Optimizer` prices the original with, and whose
//! one-level step the encoders run bottom-up). Both compute the same price
//! for the same plan. Costs are in reference flops: one model on every
//! host, whichever kernels later run the plan.
//!
//! The estimator is the paper's *naïve* metadata propagation (§7.2.1) and
//! the only one here: it reads `rows`, `cols` and `nnz`, so that is what
//! [`MatrixMeta`] carries. The MNC estimator of §7.2.2 is not implemented;
//! when someone builds it, it brings its row/column count histograms with
//! their reader, built once at registration, and a q-error metric in its
//! own `[benchmark]` change.
//!
//! A [`MetaCatalog`] is a frozen map and a tail, as a `Vocabulary` is a
//! frozen prefix and a tail. [`MetaCatalog::freeze`] folds every entry
//! registered so far into the frozen map, an `Arc` every clone shares;
//! what is registered after that goes into the tail, which each clone
//! owns, and a tail entry shadows a frozen one of the same name. The
//! catalog's owner freezes wherever it already holds `&mut` and is about
//! to hand out copies (`Optimizer::new`, every snapshot publish), so a
//! rewrite's copy of the catalog — cloned to register the call's own cast
//! and view entries — is a pointer bump and a tail of those entries,
//! whatever the number of matrices registered.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hadad_linalg::Matrix;

use crate::expr::Expr;
use crate::schema::OpKind;

/// Structural type flags used by the decomposition constraints (§6.2.5):
/// symmetric positive definite ("S"), lower/upper triangular ("L"/"U"),
/// orthogonal ("O"), permutation ("P").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TypeFlags {
    /// Symmetric positive definite ("S").
    pub symmetric_pd: bool,
    /// Lower triangular ("L").
    pub lower_triangular: bool,
    /// Upper triangular ("U").
    pub upper_triangular: bool,
    /// Orthogonal ("O").
    pub orthogonal: bool,
}

/// The four flags in one write: a plan-cache probe hashes every leaf's.
impl Hash for TypeFlags {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let TypeFlags { symmetric_pd, lower_triangular, upper_triangular, orthogonal } = *self;
        let flags = [symmetric_pd, lower_triangular, upper_triangular, orthogonal];
        u32::from_le_bytes(flags.map(u8::from)).hash(state);
    }
}

/// Metadata for one base matrix (or materialized view). Everything a
/// rewrite reads of a leaf, so it is the leaf's part of a plan-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatrixMeta {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Exact (or estimated) non-zero count.
    pub nnz: usize,
    /// Structural type flags (§6.2.5).
    pub flags: TypeFlags,
}

impl MatrixMeta {
    /// Dense metadata (`nnz = rows * cols`).
    pub fn dense(rows: usize, cols: usize) -> Self {
        MatrixMeta { rows, cols, nnz: rows * cols, flags: TypeFlags::default() }
    }

    /// Sparse metadata from an nnz count.
    pub fn sparse(rows: usize, cols: usize, nnz: usize) -> Self {
        MatrixMeta { rows, cols, nnz, flags: TypeFlags::default() }
    }

    /// Shape and exact non-zero count of an actual matrix.
    pub fn from_matrix(m: &Matrix) -> Self {
        MatrixMeta::sparse(m.rows(), m.cols(), m.nnz())
    }

    /// Replaces the structural flags.
    pub fn with_flags(mut self, flags: TypeFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Non-zero fraction in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The shape/density summary the unified estimator propagates.
    pub fn stats(&self) -> ClassStats {
        ClassStats { rows: self.rows, cols: self.cols, density: self.density() }
    }
}

/// Catalog of metadata for named base matrices and views: a frozen map
/// every clone shares and a tail each clone owns (see the module docs).
#[derive(Clone, Default)]
pub struct MetaCatalog {
    /// The entries registered up to the last [`Self::freeze`], shared by
    /// every clone.
    frozen: Arc<BTreeMap<String, MatrixMeta>>,
    /// The entries registered since, sorted by name, each name once. An
    /// entry here shadows the frozen entry of its name.
    tail: Vec<(String, MatrixMeta)>,
}

impl MetaCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the tail into the shared map, so that a clone copies only
    /// what is registered after this call. The map is copied first if a
    /// clone still shares it: once per freeze, never per registration.
    pub fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        if self.frozen.is_empty() {
            self.frozen = Arc::new(tail.into_iter().collect());
        } else {
            Arc::make_mut(&mut self.frozen).extend(tail);
        }
    }

    /// Registers (or replaces) metadata under `name`, in this catalog's
    /// tail. Inserting costs up to the tail's length: freeze after a bulk
    /// registration.
    pub fn register(&mut self, name: impl Into<String>, meta: MatrixMeta) {
        let name = name.into();
        match self.tail_slot(&name) {
            Ok(i) => self.tail[i].1 = meta,
            Err(i) => self.tail.insert(i, (name, meta)),
        }
    }

    /// Metadata registered under `name`, if any: the tail's entry, else
    /// the frozen one.
    pub fn get(&self, name: &str) -> Option<&MatrixMeta> {
        match self.tail_slot(name) {
            Ok(i) => Some(&self.tail[i].1),
            Err(_) => self.frozen.get(name),
        }
    }

    /// All registered names, sorted, each once.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries().map(|(name, _)| name)
    }

    /// Where `name` is, or would be inserted, in the tail.
    fn tail_slot(&self, name: &str) -> Result<usize, usize> {
        self.tail.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// Every entry `get` answers with, sorted by name: the frozen map and
    /// the tail merged, a shadowed frozen entry skipped.
    fn entries(&self) -> impl Iterator<Item = (&str, &MatrixMeta)> {
        let mut frozen = self.frozen.iter().map(|(n, m)| (n.as_str(), m)).peekable();
        let mut tail = self.tail.iter().map(|(n, m)| (n.as_str(), m)).peekable();
        std::iter::from_fn(move || {
            let order = match (frozen.peek(), tail.peek()) {
                (Some(f), Some(t)) => f.0.cmp(t.0),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            match order {
                Ordering::Less => frozen.next(),
                Ordering::Equal => {
                    frozen.next();
                    tail.next()
                }
                Ordering::Greater => tail.next(),
            }
        })
    }
}

impl std::fmt::Debug for MetaCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

/// Shape-inference error.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeError {
    /// A referenced matrix has no catalog entry.
    UnknownMatrix(String),
    /// Operand shapes are incompatible for the operator.
    Mismatch(String),
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::UnknownMatrix(n) => write!(f, "unknown matrix {n}"),
            ShapeError::Mismatch(m) => write!(f, "shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Shape + density estimate of one expression — the currency of the
/// unified cost oracle. Is propagated per operator by [`op_stats`] and
/// priced by [`op_flops`]/[`op_cost`]; its shape seeds the chase's
/// analysis ([`crate::analysis`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Estimated fraction of non-zero cells in `[0, 1]`.
    pub density: f64,
}

impl ClassStats {
    /// Fully dense stats.
    pub fn dense(rows: usize, cols: usize) -> Self {
        ClassStats { rows, cols, density: 1.0 }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total cell count.
    pub fn cells(&self) -> f64 {
        self.rows as f64 * self.cols as f64
    }

    /// Estimated non-zero count.
    pub fn nnz(&self) -> f64 {
        self.cells() * self.density
    }
}

/// Weight of one materialized output cell relative to one flop, shared by
/// every estimator built on [`op_cost`] (paper §7.1: flops plus
/// intermediate materialization).
pub const MEM_WEIGHT: f64 = 0.5;

/// Output shape and density of one operator application (the naïve
/// metadata propagation of §7.2.1), assuming shape-valid inputs. `out_idx`
/// distinguishes the two outputs of QR/LU. `child` follows the VREM
/// argument order (`ScalarMul` is `[scalar, matrix]`).
pub fn op_stats(kind: OpKind, out_idx: usize, child: &[ClassStats]) -> ClassStats {
    use OpKind::*;
    let st = |rows, cols, density: f64| ClassStats { rows, cols, density };
    match kind {
        // Union bound on non-zeros.
        Add => st(child[0].rows, child[0].cols, (child[0].density + child[1].density).min(1.0)),
        Hadamard => st(child[0].rows, child[0].cols, child[0].density * child[1].density),
        Div => child[0],
        Mul => {
            // Naïve independence estimate: the chance a result cell stays
            // zero is (1 - dA·dB)^k.
            let k = child[0].cols as f64;
            let density = 1.0 - (1.0 - child[0].density * child[1].density).powf(k);
            st(child[0].rows, child[1].cols, density.clamp(0.0, 1.0))
        }
        ScalarMul => child[1],
        Kron => st(
            child[0].rows * child[1].rows,
            child[0].cols * child[1].cols,
            child[0].density * child[1].density,
        ),
        DirectSum => {
            let out =
                ClassStats::dense(child[0].rows + child[1].rows, child[0].cols + child[1].cols);
            let density = if out.cells() == 0.0 {
                0.0
            } else {
                (child[0].nnz() + child[1].nnz()) / out.cells()
            };
            st(out.rows, out.cols, density)
        }
        Transpose => st(child[0].cols, child[0].rows, child[0].density),
        Rev => child[0],
        // Inverses/exponentials of sparse matrices are dense.
        Inv | Adj | Exp => st(child[0].rows, child[0].cols, 1.0),
        // Triangular/orthogonal factors: Q is dense, the rest half-filled.
        Cho => st(child[0].rows, child[0].cols, 0.5),
        Qr => st(child[0].rows, child[0].cols, if out_idx == 0 { 1.0 } else { 0.5 }),
        Lu => st(child[0].rows, child[0].cols, 0.5),
        Diag => st(child[0].rows, 1, child[0].density.min(1.0)),
        RowSums | RowMeans | RowMin | RowMax | RowVar => st(child[0].rows, 1, 1.0),
        ColSums | ColMeans | ColMin | ColMax | ColVar => st(1, child[0].cols, 1.0),
        Det | Trace | Sum | Min | Max | Mean | Var => st(1, 1, 1.0),
    }
}

/// Sparsity-aware flop estimate of one operator application (children
/// excluded) — §7.2.1's cost table, single-sourced for the ranking cost
/// model and the extraction DP. Densities of 1.0 reproduce the dense
/// counts.
pub fn op_flops(kind: OpKind, _out_idx: usize, child: &[ClassStats]) -> f64 {
    use OpKind::*;
    let n = child.first().map_or(1.0, |c| c.rows as f64);
    match kind {
        Mul => {
            2.0 * child[0].rows as f64
                * child[0].cols as f64
                * child[1].cols as f64
                * child[0].density
                * child[1].density
                + child[0].rows as f64 * child[1].cols as f64
        }
        Add | Div => child[0].cells(),
        Hadamard => child[0].nnz().min(child[1].nnz()),
        ScalarMul => child[1].nnz(),
        Kron => child[0].nnz() * child[1].nnz(),
        DirectSum => child[0].nnz() + child[1].nnz(),
        Transpose | Rev => child[0].nnz(),
        Inv => 2.0 * n * n * n,
        Adj => 2.0 * n * n * n * n,
        Exp => 30.0 * n * n * n,
        Det => n * n * n,
        Cho => n * n * n / 3.0,
        Qr => 2.0 * n * n * n,
        Lu => 2.0 * n * n * n / 3.0,
        Diag | Trace => n,
        RowSums | ColSums | RowMeans | ColMeans | RowMin | RowMax | ColMin | ColMax | Sum
        | Min | Max | Mean => child[0].cells(),
        RowVar | ColVar | Var => 2.0 * child[0].cells(),
    }
}

/// Full per-operator charge in reference flops: the operator's flops plus
/// the materialization of the output's estimated non-zeros. One model for
/// every host — plans are priced the same whatever kernels execute them.
pub fn op_cost(kind: OpKind, out_idx: usize, child: &[ClassStats], out: &ClassStats) -> f64 {
    op_flops(kind, out_idx, child) + MEM_WEIGHT * out.nnz()
}

/// Infers shape *and* density of an expression from base-matrix metadata,
/// validating operator shapes along the way: the stats half of
/// [`expr_estimate`]. The encoder seeds the chase's analysis with the
/// shapes of every subexpression, computed by the same one-level step,
/// once per node.
pub fn expr_stats(e: &Expr, cat: &MetaCatalog) -> Result<ClassStats, ShapeError> {
    expr_estimate(e, cat).map(|(stats, _)| stats)
}

/// The estimator over full expressions (§7.2.1): shape and density of `e`
/// plus the accumulated cost of computing it — children first, then this
/// operator's [`op_cost`] charge. Leaves read the metadata catalog and
/// cost nothing (base matrices and literals are already materialized);
/// every operator application is validated by the one shape-rule table
/// (`check_shapes`).
pub fn expr_estimate(e: &Expr, cat: &MetaCatalog) -> Result<(ClassStats, f64), ShapeError> {
    let children = e.children();
    if children.is_empty() {
        return Ok((leaf_stats(e, cat)?, 0.0));
    }
    let mut child = [ClassStats::dense(0, 0); 2];
    let mut cost = 0.0;
    for (slot, c) in child.iter_mut().zip(&children) {
        let (stats, child_cost) = expr_estimate(c, cat)?;
        *slot = stats;
        cost += child_cost;
    }
    let child = &child[..children.len()];
    let (kind, out_idx, out) = op_step(e, child)?;
    Ok((out, cost + op_cost(kind, out_idx, child, &out)))
}

/// Stats of a leaf (`Mat`, `Const`, `Identity`, `Zero`) — the leaf half of
/// the estimator's one-level step, and what extraction prices a leaf
/// e-node at. Base matrices read `cat`.
pub(crate) fn leaf_stats(e: &Expr, cat: &MetaCatalog) -> Result<ClassStats, ShapeError> {
    use Expr::*;
    Ok(match e {
        Mat(n) => cat.get(n).ok_or_else(|| ShapeError::UnknownMatrix(n.to_string()))?.stats(),
        Identity(n) => ClassStats { rows: *n, cols: *n, density: 1.0 / (*n).max(1) as f64 },
        Zero(r, c) => ClassStats { rows: *r, cols: *c, density: 0.0 },
        Const(_) => ClassStats::dense(1, 1),
        _ => unreachable!("{e} is not a leaf"),
    })
}

/// The operator half of the estimator's one-level step: operator kind,
/// output index and output stats of the non-leaf `e` from its operands'
/// stats (`child`, in operand order), after checking the shape rules.
/// [`expr_estimate`] runs it at every node of its recursion; the encoders
/// run it once per hash-consed node, bottom-up.
pub(crate) fn op_step(
    e: &Expr,
    child: &[ClassStats],
) -> Result<(OpKind, usize, ClassStats), ShapeError> {
    let (kind, out_idx) = op_of(e);
    check_shapes(e, kind, child)?;
    Ok((kind, out_idx, op_stats(kind, out_idx, child)))
}

/// Operator kind and output index of a non-leaf expression (`Sub` is
/// estimated as the `Add` it desugars to).
fn op_of(e: &Expr) -> (OpKind, usize) {
    let out = if let Expr::Unary(op, _) = e { op.out() } else { 0 };
    (crate::encode::op_kind_of(e).expect("non-leaf expression"), out)
}

/// The shape rules of the operator set: what [`op_stats`] assumes of its
/// inputs, checked once per operator application.
fn check_shapes(e: &Expr, kind: OpKind, child: &[ClassStats]) -> Result<(), ShapeError> {
    use OpKind::*;
    match kind {
        Add | Hadamard | Div if child[0].shape() != child[1].shape() => {
            Err(ShapeError::Mismatch(format!("{e}")))
        }
        Mul if child[0].cols != child[1].rows => Err(ShapeError::Mismatch(format!("{e}"))),
        ScalarMul if child[0].shape() != (1, 1) => {
            Err(ShapeError::Mismatch(format!("non-scalar multiplier in {e}")))
        }
        Inv | Adj | Exp | Cho | Qr | Lu | Diag | Det | Trace
            if child[0].rows != child[0].cols =>
        {
            Err(ShapeError::Mismatch(format!("{e} requires square input")))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;

    fn cat() -> MetaCatalog {
        let mut c = MetaCatalog::new();
        c.register("M", MatrixMeta::dense(50, 10));
        c.register("N", MatrixMeta::dense(10, 50));
        c
    }

    #[test]
    fn shapes_of_products_and_transposes() {
        let c = cat();
        let shape = |e: Expr| expr_stats(&e, &c).unwrap().shape();
        assert_eq!(shape(mul(m("M"), m("N"))), (50, 50));
        assert_eq!(shape(t(mul(m("M"), m("N")))), (50, 50));
        assert_eq!(shape(col_sums(m("M"))), (1, 10));
        assert_eq!(shape(row_sums(m("M"))), (50, 1));
        assert_eq!(shape(sum(m("M"))), (1, 1));
    }

    #[test]
    fn mismatches_detected() {
        let c = cat();
        assert!(expr_stats(&add(m("M"), m("N")), &c).is_err());
        assert!(expr_stats(&mul(m("M"), m("M")), &c).is_err());
        assert!(expr_stats(&det(m("M")), &c).is_err());
        assert!(expr_stats(&m("missing"), &c).is_err());
    }

    /// `cat()` frozen, plus a tail: `N` re-registered and `A`, `Z` new.
    fn frozen_with_tail() -> MetaCatalog {
        let mut c = cat();
        c.freeze();
        c.register("Z", MatrixMeta::dense(1, 1));
        c.register("N", MatrixMeta::dense(10, 60));
        c.register("A", MatrixMeta::dense(2, 2));
        c
    }

    #[test]
    fn re_registering_a_frozen_name_wins_in_get() {
        let c = frozen_with_tail();
        assert_eq!(c.get("N"), Some(&MatrixMeta::dense(10, 60)));
        assert_eq!(c.get("M"), Some(&MatrixMeta::dense(50, 10)), "read from the frozen map");
        assert_eq!(c.get("A"), Some(&MatrixMeta::dense(2, 2)), "read from the tail");
        assert_eq!(c.get("B"), None);
    }

    #[test]
    fn names_are_sorted_and_listed_once_across_the_frozen_map_and_the_tail() {
        let c = frozen_with_tail();
        assert_eq!(c.names().collect::<Vec<_>>(), ["A", "M", "N", "Z"]);
        assert_eq!(MetaCatalog::new().names().count(), 0);
        assert_eq!(cat().names().collect::<Vec<_>>(), ["M", "N"], "a tail alone");
        assert_eq!(format!("{:?}", MetaCatalog::new()), "{}");
    }

    #[test]
    fn freeze_keeps_the_tail_value() {
        let mut c = frozen_with_tail();
        let held = c.clone();
        c.freeze();
        for name in ["A", "M", "N", "Z"] {
            assert_eq!(c.get(name), held.get(name), "{name}");
        }
        assert_eq!(c.names().collect::<Vec<_>>(), ["A", "M", "N", "Z"]);
        // Freezing again, with nothing registered since, changes nothing.
        c.freeze();
        assert_eq!(c.get("N"), Some(&MatrixMeta::dense(10, 60)));
    }

    #[test]
    fn registering_into_a_clone_reaches_neither_the_original_nor_a_sibling() {
        let mut base = cat();
        base.freeze();
        let mut one = base.clone();
        let mut two = base.clone();
        one.register("M", MatrixMeta::dense(5, 5));
        one.register("X", MatrixMeta::dense(3, 3));
        two.register("M", MatrixMeta::dense(7, 7));
        two.freeze();
        assert_eq!(base.get("M"), Some(&MatrixMeta::dense(50, 10)));
        assert_eq!(base.get("X"), None);
        assert_eq!(one.get("M"), Some(&MatrixMeta::dense(5, 5)));
        assert_eq!(two.get("M"), Some(&MatrixMeta::dense(7, 7)));
        assert_eq!(two.get("X"), None);
        // And the original's own registrations reach no clone.
        base.register("N", MatrixMeta::dense(1, 1));
        base.freeze();
        assert_eq!(one.get("N"), Some(&MatrixMeta::dense(10, 50)));
        assert_eq!(two.get("N"), Some(&MatrixMeta::dense(10, 50)));
    }

    #[test]
    fn density() {
        let meta = MatrixMeta::sparse(10, 10, 5);
        assert!((meta.density() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn expr_stats_propagates_density() {
        let mut c = MetaCatalog::new();
        c.register("S", MatrixMeta::sparse(100, 100, 100)); // density 0.01
        c.register("D", MatrixMeta::dense(100, 100));
        // Transpose preserves density; Hadamard multiplies; Add unions;
        // inverses densify.
        let s = expr_stats(&t(m("S")), &c).unwrap();
        assert!((s.density - 0.01).abs() < 1e-12);
        let h = expr_stats(&had(m("S"), m("S")), &c).unwrap();
        assert!((h.density - 0.0001).abs() < 1e-12);
        let a = expr_stats(&add(m("S"), m("S")), &c).unwrap();
        assert!((a.density - 0.02).abs() < 1e-12);
        assert_eq!(expr_stats(&inv(m("S")), &c).unwrap().density, 1.0);
        // Product of sparse factors stays sparse under the independence
        // estimate; dense × dense stays dense.
        let ss = expr_stats(&mul(m("S"), m("S")), &c).unwrap();
        assert!(ss.density < 0.02, "density {}", ss.density);
        assert_eq!(expr_stats(&mul(m("D"), m("D")), &c).unwrap().density, 1.0);
    }

    #[test]
    fn op_cost_reduces_to_dense_flops_at_density_one() {
        let a = ClassStats::dense(30, 4);
        let b = ClassStats::dense(4, 30);
        let out = op_stats(OpKind::Mul, 0, &[a, b]);
        assert_eq!(out.shape(), (30, 30));
        assert_eq!(out.density, 1.0);
        let cost = op_cost(OpKind::Mul, 0, &[a, b], &out);
        // 2·30·4·30 flops + 30·30 output term + mem weight on 900 cells.
        assert!((cost - (7200.0 + 900.0 + MEM_WEIGHT * 900.0)).abs() < 1e-9);
    }

    /// Base matrices for the cost comparisons: a rectangular pair and a
    /// large sparse square.
    fn cost_cat() -> MetaCatalog {
        let mut c = MetaCatalog::new();
        c.register("A", MatrixMeta::dense(30, 4));
        c.register("B", MatrixMeta::dense(4, 30));
        c.register("S", MatrixMeta::sparse(1000, 1000, 5000));
        c
    }

    /// `expr_estimate`'s cost of `e`.
    fn cost(c: &MetaCatalog, e: &Expr) -> f64 {
        expr_estimate(e, c).unwrap().1
    }

    #[test]
    fn rotated_trace_is_cheaper() {
        let c = cost_cat();
        let ab = cost(&c, &trace(mul(m("A"), m("B"))));
        let ba = cost(&c, &trace(mul(m("B"), m("A"))));
        assert!(ba < ab, "trace(BA)={ba} should beat trace(AB)={ab}");
    }

    #[test]
    fn right_deep_chain_is_cheaper() {
        let mut c = cost_cat();
        c.register("x", MatrixMeta::dense(30, 1));
        let left = cost(&c, &mul(mul(m("A"), m("B")), m("x")));
        let right = cost(&c, &mul(m("A"), mul(m("B"), m("x"))));
        assert!(right < left);
    }

    #[test]
    fn sparsity_lowers_product_cost() {
        let sparse = cost(&cost_cat(), &mul(m("S"), m("S")));
        let mut dense_cat = MetaCatalog::new();
        dense_cat.register("S", MatrixMeta::dense(1000, 1000));
        let dense = cost(&dense_cat, &mul(m("S"), m("S")));
        assert!(sparse < dense / 10.0, "sparse={sparse} dense={dense}");
    }

    #[test]
    fn subtraction_costs_like_addition() {
        let mut c = MetaCatalog::new();
        c.register("P", MatrixMeta::dense(8, 8));
        // Sub desugars to a + (-1 · b); the direct estimate must at least
        // cover the Add part and carry the union density.
        let (stats, cost) = expr_estimate(&sub(m("P"), m("P")), &c).unwrap();
        assert_eq!((stats.rows, stats.cols), (8, 8));
        assert_eq!(stats.density, 1.0);
        assert!(cost > 0.0);
    }

    #[test]
    fn shape_errors_surface() {
        let c = cost_cat();
        assert!(expr_estimate(&add(m("A"), m("B")), &c).is_err());
        assert!(expr_estimate(&m("missing"), &c).is_err());
        assert!(expr_estimate(&trace(m("A")), &c).is_err());
    }

    #[test]
    fn op_cost_orders_mul_shapes() {
        let (a, b) = (ClassStats::dense(30, 4), ClassStats::dense(4, 30));
        let big = op_cost(OpKind::Mul, 0, &[a, b], &ClassStats::dense(30, 30));
        let small = op_cost(OpKind::Mul, 0, &[b, a], &ClassStats::dense(4, 4));
        assert!(small < big);
    }

    #[test]
    fn sparsity_lowers_op_flops() {
        let s = ClassStats { rows: 1000, cols: 1000, density: 0.005 };
        let d = ClassStats::dense(1000, 1000);
        let sparse = op_flops(OpKind::Mul, 0, &[s, s]);
        let dense = op_flops(OpKind::Mul, 0, &[d, d]);
        assert!(sparse < dense / 10.0, "sparse={sparse} dense={dense}");
    }
}
