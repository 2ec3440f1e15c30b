//! `dec_LA`: min-cost decoding of a (possibly chased) VREM instance back
//! into an [`Expr`] — the inverse of [`crate::encode::Encoder`] (paper
//! §6.2.2).
//!
//! After the chase saturates an encoded instance under the MMC catalogue,
//! each union-find class is an equivalence class of value-equal
//! subexpressions and each operator fact is one way to compute its output
//! class: the instance is an e-graph. The extractor runs a Bellman-Ford
//! style cost relaxation over that e-graph (classes may be cyclic —
//! `(Aᵀ)ᵀ = A` merges a class with a descendant of itself) and rebuilds the
//! cheapest expression per class, resugaring the encoder's
//! `a + (-1 · b)` desugaring back to subtraction.

use std::collections::HashMap;

use hadad_chase::{Instance, NodeId};

use crate::expr::Expr;
use crate::schema::{OpKind, Vrem, DENSITY_SCALE};
use crate::stats::{op_stats, ClassStats};

/// One way to produce a class: a leaf fact or an operator application.
#[derive(Debug, Clone, PartialEq)]
pub enum ENode {
    /// `name(class, n)` — base matrix `n`.
    Mat(String),
    /// `lit(class, v)` — scalar literal.
    Const(f64),
    /// `identity(class)`; the order comes from the class's `size` fact.
    Identity,
    /// `zero(class)`; dims come from the class's `size` fact.
    Zero,
    /// Operator fact producing this class as output `out_idx` (QR/LU have
    /// two outputs; everything else one).
    Op {
        /// The operator.
        kind: OpKind,
        /// Input classes, in operand order.
        inputs: Vec<NodeId>,
        /// Which output of the operator this class is (QR/LU have two).
        out_idx: usize,
    },
}

/// Pluggable cost for the extraction DP. Implementations see operator
/// kinds and per-class [`ClassStats`] (shape + estimated density), so
/// `hadad-core` stays decoupled from any particular estimator;
/// `hadad-rewrite` supplies one built on the shared `op_cost_with` table.
/// Densities come from the chased instance's `density` facts (catalogued
/// leaves, view roots, shape-preserving propagation) and default to dense
/// for chase-created classes without facts — a deterministic,
/// derivation-order-independent choice.
pub trait ExtractionCost {
    /// Cost of reading a leaf (base matrix / literal / identity / zero).
    fn leaf_cost(&self, stats: ClassStats) -> f64;

    /// Cost of one operator application (children excluded). `out_idx`
    /// distinguishes the two outputs of QR/LU.
    fn op_cost(
        &self,
        kind: OpKind,
        out_idx: usize,
        child: &[ClassStats],
        out: ClassStats,
    ) -> f64;
}

/// Default cost: expression-tree size. Extraction under this cost returns
/// the syntactically smallest representative of a class.
pub struct TreeSizeCost;

impl ExtractionCost for TreeSizeCost {
    fn leaf_cost(&self, _stats: ClassStats) -> f64 {
        1.0
    }

    fn op_cost(
        &self,
        _kind: OpKind,
        _out_idx: usize,
        _child: &[ClassStats],
        _out: ClassStats,
    ) -> f64 {
        1.0
    }
}

/// Min-cost extractor over a VREM instance.
pub struct Extractor<'a> {
    inst: &'a Instance,
    /// Canonical class -> candidate e-nodes.
    classes: HashMap<NodeId, Vec<ENode>>,
    /// Canonical class -> shape, from `size` facts (the chase propagates
    /// them to created classes) or inferred during the relaxation.
    shapes: HashMap<NodeId, (usize, usize)>,
    /// Canonical class -> estimated density, the minimum over the class's
    /// `density` facts (min is order-independent, keeping extraction
    /// deterministic when merged derivations disagree on the estimate).
    densities: HashMap<NodeId, f64>,
    /// Canonical class -> (best cost, index into `classes[class]`).
    best: HashMap<NodeId, (f64, usize)>,
}

impl<'a> Extractor<'a> {
    /// Collects e-nodes and shapes from the instance and runs the cost
    /// relaxation to fixpoint.
    pub fn new(vrem: &Vrem, inst: &'a Instance, cost: &dyn ExtractionCost) -> Self {
        // Fault-injection site: `extract.solve=panic` exercises the
        // optimizer's phase-level catch_unwind (degrade to the original
        // plan); `delay:<ms>` exercises deadlines. The `error` action has
        // no typed path here and is a no-op.
        let _ = hadad_failpoint::hit("extract.solve");
        static SOLVES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("extract.solves");
        SOLVES.incr();
        let _span = hadad_obs::span("extract.solve");
        let mut ex = Extractor {
            inst,
            classes: HashMap::new(),
            shapes: HashMap::new(),
            densities: HashMap::new(),
            best: HashMap::new(),
        };
        ex.collect(vrem);
        ex.solve(cost);
        ex
    }

    fn push(&mut self, class: NodeId, node: ENode) {
        let nodes = self.classes.entry(class).or_default();
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }

    fn collect(&mut self, vrem: &Vrem) {
        for f in self.inst.facts() {
            let canon: Vec<NodeId> = f.args.iter().map(|&a| self.inst.find(a)).collect();
            if f.pred == vrem.name {
                if let Some(sym) = self.inst.const_of(canon[1]) {
                    let name = vrem.vocab.const_name(sym).to_owned();
                    self.push(canon[0], ENode::Mat(name));
                }
            } else if f.pred == vrem.lit {
                if let Some(sym) = self.inst.const_of(canon[1]) {
                    if let Ok(v) = vrem.vocab.const_name(sym).parse::<f64>() {
                        self.push(canon[0], ENode::Const(v));
                    }
                }
            } else if f.pred == vrem.identity {
                self.push(canon[0], ENode::Identity);
            } else if f.pred == vrem.zero {
                self.push(canon[0], ENode::Zero);
            } else if f.pred == vrem.size {
                let dim = |n: NodeId| {
                    self.inst
                        .const_of(n)
                        .and_then(|s| vrem.vocab.const_name(s).parse::<usize>().ok())
                };
                if let (Some(r), Some(c)) = (dim(canon[1]), dim(canon[2])) {
                    self.shapes.insert(canon[0], (r, c));
                }
            } else if f.pred == vrem.density {
                if let Some(ppm) = self
                    .inst
                    .const_of(canon[1])
                    .and_then(|s| vrem.vocab.const_name(s).parse::<i64>().ok())
                {
                    let d = (ppm as f64 / DENSITY_SCALE).clamp(0.0, 1.0);
                    self.densities
                        .entry(canon[0])
                        .and_modify(|cur| *cur = cur.min(d))
                        .or_insert(d);
                }
            } else if let Some(kind) = vrem.kind_of(f.pred) {
                let n_in = kind.num_inputs();
                let inputs = canon[..n_in].to_vec();
                for (out_idx, &out) in canon[n_in..].iter().enumerate() {
                    self.push(out, ENode::Op { kind, inputs: inputs.clone(), out_idx });
                }
            }
        }
    }

    /// Bellman-Ford relaxation: every pass can only lower class costs, and
    /// each finite cost certifies a finite (cycle-free) derivation, so the
    /// in-place sweep reaches fixpoint in at most `#classes` passes.
    fn solve(&mut self, cost: &dyn ExtractionCost) {
        let class_ids: Vec<NodeId> = self.classes.keys().copied().collect();
        // Costs converge within #classes passes; tie-break refinement (keys
        // depend on child costs) may take as long again.
        let max_rounds = 2 * (class_ids.len() + 1);
        for _ in 0..max_rounds {
            let mut changed = false;
            for &class in &class_ids {
                let num_nodes = self.classes[&class].len();
                for idx in 0..num_nodes {
                    // Borrow the node per iteration (instead of cloning the
                    // whole e-node vector per round); `best`/`shapes` are
                    // only written after the borrow ends.
                    let node = &self.classes[&class][idx];
                    let computed = node_candidate(
                        node,
                        class,
                        &self.best,
                        &self.shapes,
                        &self.densities,
                        cost,
                    );
                    if let Some((c, shape)) = computed {
                        self.shapes.entry(class).or_insert(shape);
                        let incumbent = self
                            .best
                            .get(&class)
                            .map(|&(cur, ci)| (cur, &self.classes[&class][ci]));
                        if improves((c, node), incumbent, &self.best) {
                            self.best.insert(class, (c, idx));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Cost of the cheapest derivation of a class, if one exists.
    pub fn class_cost(&self, class: NodeId) -> Option<f64> {
        self.best.get(&self.inst.find(class)).map(|&(c, _)| c)
    }

    /// Shape of a class, from `size` facts or inference.
    pub fn shape(&self, class: NodeId) -> Option<(usize, usize)> {
        self.shapes.get(&self.inst.find(class)).copied()
    }

    /// Estimated density of a class from its `density` facts, if any.
    pub fn density(&self, class: NodeId) -> Option<f64> {
        self.densities.get(&self.inst.find(class)).copied()
    }

    /// The cheapest expression of a class, resugared.
    pub fn extract(&self, root: NodeId) -> Option<Expr> {
        let root = self.inst.find(root);
        let &(_, idx) = self.best.get(&root)?;
        let e = self.build(root, &self.classes[&root][idx])?;
        Some(resugar(&e))
    }

    /// One candidate expression per derivation of the root class, each
    /// completed with min-cost children and deduplicated syntactically.
    /// The caller ranks these with its own (richer) cost model.
    pub fn candidates(&self, root: NodeId) -> Vec<Expr> {
        let root = self.inst.find(root);
        let nodes = self.classes.get(&root).map_or(&[][..], Vec::as_slice);
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        nodes
            .iter()
            .filter_map(|n| self.build(root, n).map(|e| resugar(&e)))
            .filter(|e| seen.insert(e.to_string()))
            .collect()
    }

    /// Rebuilds an expression from a chosen e-node, following best
    /// derivations below it. Finite best costs certify acyclicity.
    fn build(&self, class: NodeId, node: &ENode) -> Option<Expr> {
        let expr = match node {
            ENode::Mat(n) => Expr::Mat(n.clone()),
            ENode::Const(v) => Expr::Const(*v),
            ENode::Identity => {
                let (r, _) = self.shape(class)?;
                Expr::Identity(r)
            }
            ENode::Zero => {
                let (r, c) = self.shape(class)?;
                Expr::Zero(r, c)
            }
            ENode::Op { kind, inputs, out_idx } => {
                let mut children = Vec::with_capacity(inputs.len());
                for &i in inputs {
                    let &(_, idx) = self.best.get(&i)?;
                    children.push(self.build(i, &self.classes[&i][idx])?);
                }
                op_expr(*kind, *out_idx, children)?
            }
        };
        Some(expr)
    }
}

/// Deterministic tie-break key for e-nodes whose derivations cost exactly
/// the same: variant, operator, output index, then the child best-cost
/// bits. Depends only on isomorphism-invariant data (never on `NodeId`s or
/// collection order), so two structurally equal instances extract the same
/// plan regardless of fact ordering — which keeps the naive and semi-naïve
/// chase engines observationally identical.
fn tie_key<'n>(
    node: &'n ENode,
    best: &HashMap<NodeId, (f64, usize)>,
) -> (u8, u32, u8, Vec<u64>, &'n str) {
    match node {
        ENode::Mat(n) => (0, 0, 0, Vec::new(), n.as_str()),
        ENode::Const(v) => (1, 0, 0, vec![v.to_bits()], ""),
        ENode::Identity => (2, 0, 0, Vec::new(), ""),
        ENode::Zero => (3, 0, 0, Vec::new(), ""),
        ENode::Op { kind, inputs, out_idx } => {
            let child_costs = inputs
                .iter()
                .map(|i| best.get(i).map_or(u64::MAX, |&(c, _)| c.to_bits()))
                .collect();
            (4, *kind as u32, *out_idx as u8, child_costs, "")
        }
    }
}

/// `true` when `candidate` should replace the incumbent `(cur_cost, cur_idx)`
/// derivation: strictly cheaper, or equally cheap with a smaller tie key.
fn improves(
    candidate: (f64, &ENode),
    incumbent: Option<(f64, &ENode)>,
    best: &HashMap<NodeId, (f64, usize)>,
) -> bool {
    match incumbent {
        None => true,
        Some((cur, cur_node)) => {
            let (c, node) = candidate;
            c < cur || (c == cur && tie_key(node, best) < tie_key(cur_node, best))
        }
    }
}

/// Cost and shape of one e-node derivation against a cost/shape snapshot,
/// or `None` while some child is still unsolved. Densities come from the
/// class's `density` facts; classes without facts assume dense children and
/// [`op_stats`]-propagated outputs — both derivation-order-independent, so
/// extraction stays deterministic.
fn node_candidate(
    node: &ENode,
    class: NodeId,
    best: &HashMap<NodeId, (f64, usize)>,
    shapes: &HashMap<NodeId, (usize, usize)>,
    densities: &HashMap<NodeId, f64>,
    cost: &dyn ExtractionCost,
) -> Option<(f64, (usize, usize))> {
    let stats_of = |n: NodeId, shape: (usize, usize)| ClassStats {
        rows: shape.0,
        cols: shape.1,
        density: densities.get(&n).copied().unwrap_or(1.0),
    };
    match node {
        ENode::Mat(_) | ENode::Identity | ENode::Zero => {
            shapes.get(&class).map(|&s| (cost.leaf_cost(stats_of(class, s)), s))
        }
        ENode::Const(_) => Some((cost.leaf_cost(stats_of(class, (1, 1))), (1, 1))),
        ENode::Op { kind, inputs, out_idx } => {
            let mut child_costs = 0.0;
            let mut child_stats = Vec::with_capacity(inputs.len());
            for &i in inputs {
                match (best.get(&i), shapes.get(&i)) {
                    (Some(&(c, _)), Some(&s)) => {
                        child_costs += c;
                        child_stats.push(stats_of(i, s));
                    }
                    _ => return None,
                }
            }
            let propagated = op_stats(*kind, *out_idx, &child_stats);
            let out_shape = shapes.get(&class).copied().unwrap_or_else(|| propagated.shape());
            let out = ClassStats {
                rows: out_shape.0,
                cols: out_shape.1,
                density: densities.get(&class).copied().unwrap_or(propagated.density),
            };
            let op = cost.op_cost(*kind, *out_idx, &child_stats, out);
            // Clamp so parents always cost strictly more than children;
            // cyclic classes then cannot be their own best derivation.
            Some((op.max(1e-9) + child_costs, out_shape))
        }
    }
}

/// Builds the `Expr` node for an operator kind and output index.
fn op_expr(kind: OpKind, out_idx: usize, mut ch: Vec<Expr>) -> Option<Expr> {
    use OpKind::*;
    let bin = |ch: &mut Vec<Expr>| {
        let b = Box::new(ch.pop().unwrap());
        let a = Box::new(ch.pop().unwrap());
        (a, b)
    };
    let un = |ch: &mut Vec<Expr>| Box::new(ch.pop().unwrap());
    Some(match kind {
        Add => {
            let (a, b) = bin(&mut ch);
            Expr::Add(a, b)
        }
        Mul => {
            let (a, b) = bin(&mut ch);
            Expr::Mul(a, b)
        }
        Hadamard => {
            let (a, b) = bin(&mut ch);
            Expr::Hadamard(a, b)
        }
        Div => {
            let (a, b) = bin(&mut ch);
            Expr::Div(a, b)
        }
        ScalarMul => {
            let (a, b) = bin(&mut ch);
            Expr::ScalarMul(a, b)
        }
        Kron => {
            let (a, b) = bin(&mut ch);
            Expr::Kron(a, b)
        }
        DirectSum => {
            let (a, b) = bin(&mut ch);
            Expr::DirectSum(a, b)
        }
        Transpose => Expr::Transpose(un(&mut ch)),
        Inv => Expr::Inv(un(&mut ch)),
        Adj => Expr::Adj(un(&mut ch)),
        Exp => Expr::Exp(un(&mut ch)),
        Diag => Expr::Diag(un(&mut ch)),
        Rev => Expr::Rev(un(&mut ch)),
        RowSums => Expr::RowSums(un(&mut ch)),
        ColSums => Expr::ColSums(un(&mut ch)),
        RowMeans => Expr::RowMeans(un(&mut ch)),
        ColMeans => Expr::ColMeans(un(&mut ch)),
        RowMin => Expr::RowMin(un(&mut ch)),
        RowMax => Expr::RowMax(un(&mut ch)),
        ColMin => Expr::ColMin(un(&mut ch)),
        ColMax => Expr::ColMax(un(&mut ch)),
        RowVar => Expr::RowVar(un(&mut ch)),
        ColVar => Expr::ColVar(un(&mut ch)),
        Det => Expr::Det(un(&mut ch)),
        Trace => Expr::Trace(un(&mut ch)),
        Sum => Expr::Sum(un(&mut ch)),
        Min => Expr::Min(un(&mut ch)),
        Max => Expr::Max(un(&mut ch)),
        Mean => Expr::Mean(un(&mut ch)),
        Var => Expr::Var(un(&mut ch)),
        Cho => Expr::Cho(un(&mut ch)),
        Qr => {
            let a = un(&mut ch);
            if out_idx == 0 {
                Expr::QrQ(a)
            } else {
                Expr::QrR(a)
            }
        }
        Lu => {
            let a = un(&mut ch);
            if out_idx == 0 {
                Expr::LuL(a)
            } else {
                Expr::LuU(a)
            }
        }
    })
}

/// Resugars the encoder's subtraction desugaring: `a + (-1 · b)` becomes
/// `a - b` (in either addend order, since the chase may commute additions).
pub fn resugar(e: &Expr) -> Expr {
    use Expr::*;
    let rebuilt = map_children(e, &|c| resugar(c));
    if let Add(a, b) = &rebuilt {
        if let Some(neg) = negated_operand(b) {
            return Sub(a.clone(), Box::new(neg));
        }
        if let Some(neg) = negated_operand(a) {
            return Sub(b.clone(), Box::new(neg));
        }
    }
    rebuilt
}

/// If `e` is `(-1) · x`, returns `x`.
fn negated_operand(e: &Expr) -> Option<Expr> {
    if let Expr::ScalarMul(s, x) = e {
        if matches!(**s, Expr::Const(v) if v == -1.0) {
            return Some((**x).clone());
        }
    }
    None
}

/// Rebuilds an expression with each child replaced by `f(child)`.
pub(crate) fn map_children(e: &Expr, f: &impl Fn(&Expr) -> Expr) -> Expr {
    use Expr::*;
    let b = |x: &Expr| Box::new(f(x));
    match e {
        Mat(_) | Const(_) | Identity(_) | Zero(..) => e.clone(),
        Add(x, y) => Add(b(x), b(y)),
        Sub(x, y) => Sub(b(x), b(y)),
        Mul(x, y) => Mul(b(x), b(y)),
        Hadamard(x, y) => Hadamard(b(x), b(y)),
        Div(x, y) => Div(b(x), b(y)),
        Kron(x, y) => Kron(b(x), b(y)),
        DirectSum(x, y) => DirectSum(b(x), b(y)),
        ScalarMul(x, y) => ScalarMul(b(x), b(y)),
        Transpose(x) => Transpose(b(x)),
        Inv(x) => Inv(b(x)),
        Adj(x) => Adj(b(x)),
        Exp(x) => Exp(b(x)),
        Diag(x) => Diag(b(x)),
        Rev(x) => Rev(b(x)),
        RowSums(x) => RowSums(b(x)),
        ColSums(x) => ColSums(b(x)),
        RowMeans(x) => RowMeans(b(x)),
        ColMeans(x) => ColMeans(b(x)),
        RowMin(x) => RowMin(b(x)),
        RowMax(x) => RowMax(b(x)),
        ColMin(x) => ColMin(b(x)),
        ColMax(x) => ColMax(b(x)),
        RowVar(x) => RowVar(b(x)),
        ColVar(x) => ColVar(b(x)),
        Det(x) => Det(b(x)),
        Trace(x) => Trace(b(x)),
        Sum(x) => Sum(b(x)),
        Min(x) => Min(b(x)),
        Max(x) => Max(b(x)),
        Mean(x) => Mean(b(x)),
        Var(x) => Var(b(x)),
        Cho(x) => Cho(b(x)),
        QrQ(x) => QrQ(b(x)),
        QrR(x) => QrR(b(x)),
        LuL(x) => LuL(b(x)),
        LuU(x) => LuU(b(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use crate::expr::dsl::*;
    use crate::stats::{MatrixMeta, MetaCatalog};

    fn cat() -> MetaCatalog {
        let mut c = MetaCatalog::new();
        c.register("M", MatrixMeta::dense(100, 10));
        c.register("N", MatrixMeta::dense(10, 100));
        c.register("D", MatrixMeta::dense(10, 10));
        c.register("y", MatrixMeta::dense(100, 1));
        c
    }

    fn roundtrip(e: &Expr) -> Expr {
        let mut vrem = Vrem::new();
        let c = cat();
        let enc = Encoder::new(&mut vrem, &c).encode(e).unwrap();
        let ex = Extractor::new(&vrem, &enc.instance, &TreeSizeCost);
        ex.extract(enc.root).expect("root extractable")
    }

    #[test]
    fn decodes_example_6_1() {
        let e = t(mul(m("M"), m("N")));
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn decodes_nested_operators() {
        let ols = mul(inv(mul(t(m("M")), m("M"))), mul(t(m("M")), m("y")));
        assert_eq!(roundtrip(&ols), ols);
    }

    #[test]
    fn resugars_subtraction() {
        let e = sub(m("D"), mul(m("D"), m("D")));
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn reconstructs_decomposition_pairs() {
        let e = mul(Expr::QrQ(Box::new(m("D"))), Expr::QrR(Box::new(m("D"))));
        assert_eq!(roundtrip(&e), e);
        let lu = mul(Expr::LuL(Box::new(m("D"))), Expr::LuU(Box::new(m("D"))));
        assert_eq!(roundtrip(&lu), lu);
    }

    #[test]
    fn decodes_leaves() {
        let e = add(smul(lit(2.5), m("D")), Expr::Identity(10));
        assert_eq!(roundtrip(&e), e);
        let z = add(m("D"), Expr::Zero(10, 10));
        assert_eq!(roundtrip(&z), z);
    }

    #[test]
    fn extraction_picks_cheaper_enode_after_merge() {
        // Manually merge the class of (M N) with the class of a base matrix
        // "P": extraction under tree size must then prefer P.
        let mut vrem = Vrem::new();
        let mut c = cat();
        c.register("P", MatrixMeta::dense(100, 100));
        let e = mul(m("M"), m("N"));
        let enc = Encoder::new(&mut vrem, &c).encode_many(&[&e, &m("P")]).unwrap();
        let (mut inst, roots) = enc;
        inst.merge(roots[0], roots[1]).unwrap();
        inst.rehash();
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        assert_eq!(ex.extract(roots[0]).unwrap(), m("P"));
        // Both derivations remain available as candidates.
        let cands = ex.candidates(roots[0]);
        assert_eq!(cands.len(), 2);
    }
}
