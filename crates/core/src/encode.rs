//! `enc_LA`: relational encoding of LA expressions over VREM (paper §6.2.2,
//! Example 6.1).
//!
//! Each subexpression becomes an equivalence-class node in a canonical
//! [`Instance`]; each operator application becomes a fact of the matching
//! VREM relation whose last argument is the (fresh) result class. `type`
//! facts record structural flags and base matrices are anchored by `name`
//! facts; shapes and estimated densities are not facts but the seed of the
//! chase's analysis ([`Encoded::classes`], [`crate::analysis`]).
//!
//! Surface subtraction is desugared to `a + (-1 · b)` so that the addition
//! property catalogue covers it; the decoder resugars (see `extract`).
//!
//! Both encoders hash-cons: a subexpression is keyed by what it is made of
//! once its operands are encoded — operator, output index and operand
//! classes; a leaf's interned symbol; the dims of `I` and `0` — so equal
//! subexpressions share one class, and every node is keyed, shape-checked
//! and estimated once, bottom-up, by the estimator's one-level step.
//!
//! One step runs after [`Encoder::encode`], on what it returns:
//! [`Encoded::tabulate_chains`] adds each maximal product chain's
//! matrix-chain (CYK) table — a class per contiguous sub-chain, a `mul`
//! fact per split — which is the instance the two associativity rules
//! would saturate it into over several chase rounds. The encoded instance
//! is then closed under them, and the clock the step returns is where a
//! chase may start their watermarks (see [`hadad_chase::chase`]). The
//! encoder itself is unchanged, so decoding an encoding still gives the
//! input back.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use hadad_chase::{Analysis, Atom, ChaseBudget, Instance, NodeId, PredId, SymId, Term};

use crate::analysis::{ClassData, LaAnalysis};
use crate::expr::Expr;
use crate::schema::{OpKind, Vrem};
use crate::stats::{
    leaf_stats, op_stats, op_step, ClassStats, MetaCatalog, ShapeError, TypeFlags,
};

/// Sets `classes[i]`, growing the vector to reach it.
fn record(classes: &mut Vec<Option<ClassData>>, i: usize, data: ClassData) {
    if classes.len() <= i {
        classes.resize(i + 1, None);
    }
    classes[i] = Some(data);
}

/// What makes two subexpressions one class before any chase runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key<C> {
    /// Base matrix, by interned name.
    Mat(SymId),
    /// Scalar literal, by interned rendering.
    Lit(SymId),
    /// Identity of this order.
    Identity(usize),
    /// Zero matrix of these dims.
    Zero(usize, usize),
    /// Operator, output index, operand classes (a unary operand twice).
    Op(OpKind, usize, [C; 2]),
}

/// Hash-consing state of one encoder.
struct Memo<C> {
    classes: HashMap<Key<C>, (C, ClassStats)>,
    /// QR/LU: one fact with two output classes per operator and input.
    pairs: HashMap<(OpKind, C), (C, C)>,
}

impl<C> Default for Memo<C> {
    fn default() -> Self {
        Memo { classes: HashMap::new(), pairs: HashMap::new() }
    }
}

/// The traversal both encoders share. An implementation only says what a
/// new class is made of: instance facts for [`Encoder`], CQ atoms for
/// [`CqEncoder`].
trait HashCons {
    /// An instance node, or a CQ variable.
    type Class: Copy + Eq + Hash;

    fn cat(&self) -> &MetaCatalog;
    fn vrem(&mut self) -> &mut Vrem;
    fn memo(&mut self) -> &mut Memo<Self::Class>;
    /// A new leaf class: `pred(class)`, or `pred(class, sym)`.
    fn new_leaf(&mut self, e: &Expr, pred: PredId, sym: Option<SymId>) -> Self::Class;
    /// The new class a single-output operator computes from `inputs`.
    fn new_op(&mut self, kind: OpKind, inputs: &[Self::Class]) -> Self::Class;
    /// The two new classes QR/LU computes from `input`.
    fn new_pair(&mut self, kind: OpKind, input: Self::Class) -> (Self::Class, Self::Class);
    /// Records the estimated stats of a new class.
    fn new_stats(&mut self, class: Self::Class, stats: ClassStats);

    /// The class of `e` and its stats, encoding what is not encoded yet.
    /// Operands go first, left to right, so new classes appear in the
    /// order a depth-first walk first meets each distinct subexpression,
    /// and a shape error is the one [`crate::stats::expr_stats`] reports.
    fn class_of(&mut self, e: &Expr) -> Result<(Self::Class, ClassStats), ShapeError> {
        use Expr::*;
        match e {
            Mat(_) | Const(_) | Identity(_) | Zero(..) => {
                let stats = leaf_stats(e, self.cat())?;
                let vrem = self.vrem();
                let (key, pred, sym) = match e {
                    Mat(n) => {
                        let sym = vrem.vocab.constant(n);
                        (Key::Mat(sym), vrem.name, Some(sym))
                    }
                    Const(v) => {
                        let sym = vrem.vocab.constant(format!("{v}"));
                        (Key::Lit(sym), vrem.lit, Some(sym))
                    }
                    Identity(n) => (Key::Identity(*n), vrem.identity, None),
                    Zero(r, c) => (Key::Zero(*r, *c), vrem.zero, None),
                    _ => unreachable!("matched a leaf"),
                };
                if let Some(&hit) = self.memo().classes.get(&key) {
                    return Ok(hit);
                }
                let class = self.new_leaf(e, pred, sym);
                Ok(self.remember(key, class, stats))
            }
            Sub(a, b) => {
                // a - b = a + (-1 · b), shape-checked (and estimated) as the
                // `Add` so the error names the subtraction.
                let (an, sa) = self.class_of(a)?;
                let (minus_one, sm) = self.class_of(&Const(-1.0))?;
                let (bn, sb) = self.class_of(b)?;
                let (_, _, out) = op_step(e, &[sa, sb])?;
                let scaled = op_stats(OpKind::ScalarMul, 0, &[sm, sb]);
                let (negated, _) = self.apply(OpKind::ScalarMul, 0, [minus_one, bn], scaled);
                Ok(self.apply(OpKind::Add, 0, [an, negated], out))
            }
            _ => {
                let operands = e.children();
                let (an, sa) = self.class_of(operands[0])?;
                let (inputs, child) = match operands.get(1) {
                    Some(b) => {
                        let (bn, sb) = self.class_of(b)?;
                        ([an, bn], [sa, sb])
                    }
                    None => ([an, an], [sa, sa]),
                };
                let (kind, out_idx, out) = op_step(e, &child[..operands.len()])?;
                Ok(self.apply(kind, out_idx, inputs, out))
            }
        }
    }

    /// Output `out_idx` of `kind` over `inputs`: the existing class, or a
    /// new one with `stats`.
    fn apply(
        &mut self,
        kind: OpKind,
        out_idx: usize,
        inputs: [Self::Class; 2],
        stats: ClassStats,
    ) -> (Self::Class, ClassStats) {
        let key = Key::Op(kind, out_idx, inputs);
        if let Some(&hit) = self.memo().classes.get(&key) {
            return hit;
        }
        let class = match kind {
            OpKind::Qr | OpKind::Lu => {
                let pair = match self.memo().pairs.get(&(kind, inputs[0])) {
                    Some(&pair) => pair,
                    None => {
                        let pair = self.new_pair(kind, inputs[0]);
                        self.memo().pairs.insert((kind, inputs[0]), pair);
                        pair
                    }
                };
                if out_idx == 0 {
                    pair.0
                } else {
                    pair.1
                }
            }
            _ => self.new_op(kind, &inputs[..kind.num_inputs()]),
        };
        self.remember(key, class, stats)
    }

    fn remember(
        &mut self,
        key: Key<Self::Class>,
        class: Self::Class,
        stats: ClassStats,
    ) -> (Self::Class, ClassStats) {
        self.new_stats(class, stats);
        self.memo().classes.insert(key, (class, stats));
        (class, stats)
    }
}

/// Result of encoding an expression.
#[derive(Debug)]
pub struct Encoded {
    /// The canonical instance holding the encoded facts.
    pub instance: Instance,
    /// Class of the whole expression (the CQ head of `enc_LA(E)`).
    pub root: NodeId,
    /// Shape and estimated density of every class, indexed by `NodeId.0`:
    /// the seed of [`crate::analysis::LaAnalysis`].
    pub classes: Vec<Option<ClassData>>,
}

impl Encoded {
    /// Closes the instance under associativity of `mul` before any chase
    /// runs: every maximal product chain gets its matrix-chain (CYK)
    /// table, one class per contiguous sub-chain and one `mul` fact per
    /// split of it. Call it on an instance as [`Encoder::encode`] returns
    /// it, where every class still has one defining fact.
    ///
    /// Classes are keyed by factor sequence across all chains: a sub-chain
    /// the input already built (or another chain shares) keeps its class,
    /// two associations of one sequence in the input are merged into one
    /// (their analysis data joined as a chase merge joins it), and a class
    /// only the table has is seeded with its shape and no density — what
    /// [`crate::LaAnalysis`] gives a class a chase firing mints.
    ///
    /// Returns the clock the table ends at: every premise match of
    /// `mul-assoc-l`/`-r` among the facts stamped up to it already has its
    /// conclusion, so a chase may start those two rules' watermarks there
    /// ([`hadad_chase::ChaseEngine::with_watermarks`]). Declines — `None`,
    /// the instance untouched — when the tables could push it past
    /// `budget`'s fact or null cap: an n-chain's table holds n(n²−1)/6
    /// `mul` facts.
    pub fn tabulate_chains(&mut self, vrem: &Vrem, budget: &ChaseBudget) -> Option<u64> {
        let mul = vrem.op(OpKind::Mul);
        let inst = &mut self.instance;
        let products: Vec<[NodeId; 3]> = inst
            .facts_with_pred(mul)
            .iter()
            .map(|&i| {
                let args = &inst.fact(i).args;
                [args[0], args[1], args[2]]
            })
            .collect();
        // Chain lengths (a factor is 1) and roots: operands are encoded
        // before the product over them, so one pass in stamp order sees
        // every operand's length first.
        let mut len = vec![0u64; inst.num_nodes()];
        let mut operand = vec![false; inst.num_nodes()];
        for &[a, b, c] in &products {
            len[c.0 as usize] = len[a.0 as usize].max(1) + len[b.0 as usize].max(1);
            operand[a.0 as usize] = true;
            operand[b.0 as usize] = true;
        }
        let roots: Vec<NodeId> =
            products.iter().map(|p| p[2]).filter(|c| !operand[c.0 as usize]).collect();
        // No product over a product: every chain is one `mul` fact, its own
        // table.
        if roots.len() == products.len() {
            return Some(inst.clock());
        }
        let (facts, nulls, factors) = roots.iter().fold((0u64, 0u64, 0u64), |(f, n, l), r| {
            let k = len[r.0 as usize];
            (
                f.saturating_add(k.saturating_mul(k * k - 1) / 6),
                n.saturating_add(k * (k - 1) / 2),
                l.saturating_add(k),
            )
        });
        if inst.num_facts() as u64 + facts > budget.max_facts as u64
            || inst.num_nulls() as u64 + nulls > budget.max_nulls as u64
        {
            return None;
        }

        // Every product class's factor sequence, as a span of one arena.
        let mut arena: Vec<NodeId> = Vec::new();
        let mut span = vec![(0, 0); inst.num_nodes()];
        for &[a, b, c] in &products {
            let start = arena.len();
            for x in [a, b] {
                match span[x.0 as usize] {
                    (from, to) if to > from => arena.extend_from_within(from..to),
                    _ => arena.push(x),
                }
            }
            span[c.0 as usize] = (start, arena.len());
        }
        let seq = |c: NodeId| &arena[span[c.0 as usize].0..span[c.0 as usize].1];

        // One class per factor sequence: a second association of a
        // sequence is merged into the first.
        let mut tabled: HashMap<&[NodeId], (NodeId, bool)> = HashMap::new();
        let mut merges = Vec::new();
        for &[_, _, c] in &products {
            let first = tabled.entry(seq(c)).or_insert((c, false)).0;
            if first != c {
                merges.push((first, c));
            }
        }
        if !merges.is_empty() {
            let mut analysis = LaAnalysis::new(vrem, std::mem::take(&mut self.classes));
            for (a, b) in merges {
                let (ra, rb) = (inst.find(a), inst.find(b));
                let root = inst.merge(ra, rb).expect("product classes carry no constant");
                let absorbed = if root == ra { rb } else { ra };
                analysis.join(inst, root, absorbed).expect("one factor sequence has one shape");
            }
            self.classes = analysis.into_classes();
            inst.rehash();
            self.root = inst.find(self.root);
        }

        // Within the budget, so each count fits a `usize`. A table fact's
        // three arguments are classes of its chain — a factor or a tabled
        // sub-chain — so it adds at most three positional keys per class.
        inst.reserve(mul, facts as usize, 3 * (nulls + factors) as usize);

        // Each root's table, shortest sub-chains first so that a split's
        // operands exist before it; `cell[i * n + w - 1]` is the class of
        // the `w` factors from the `i`-th.
        let mut cell = Vec::new();
        for &r in &roots {
            let s = seq(r);
            let n = s.len();
            cell.clear();
            cell.resize(n * n, r);
            for (i, &factor) in s.iter().enumerate() {
                cell[i * n] = inst.find(factor);
            }
            for width in 2..=n {
                for i in 0..=n - width {
                    let sub = &s[i..i + width];
                    let class = match tabled.entry(sub) {
                        Entry::Occupied(mut seen) => {
                            let (c, done) = seen.get_mut();
                            let c = inst.find(*c);
                            cell[i * n + width - 1] = c;
                            if std::mem::replace(done, true) {
                                continue;
                            }
                            c
                        }
                        Entry::Vacant(slot) => {
                            let c = inst.fresh_null();
                            slot.insert((c, true));
                            cell[i * n + width - 1] = c;
                            let (first, last) = (sub[0].0 as usize, sub[width - 1].0 as usize);
                            if let (Some(Some(f)), Some(Some(l))) =
                                (self.classes.get(first), self.classes.get(last))
                            {
                                let data =
                                    ClassData { rows: f.rows, cols: l.cols, density: None };
                                record(&mut self.classes, c.0 as usize, data);
                            }
                            c
                        }
                    };
                    for k in 1..width {
                        let left = cell[i * n + k - 1];
                        let right = cell[(i + k) * n + width - k - 1];
                        inst.insert(mul, vec![left, right, class]);
                    }
                }
            }
        }
        Some(inst.clock())
    }
}

/// Encoder state: shares subexpression classes structurally so that e.g.
/// `M` appearing twice maps to one class even before the chase runs.
pub struct Encoder<'a> {
    /// The VREM schema facts are encoded over.
    pub vrem: &'a mut Vrem,
    /// Metadata for base-matrix stats facts.
    pub cat: &'a MetaCatalog,
    inst: Instance,
    memo: Memo<NodeId>,
    classes: Vec<Option<ClassData>>,
}

impl<'a> Encoder<'a> {
    /// An encoder over `vrem` with metadata from `cat`.
    pub fn new(vrem: &'a mut Vrem, cat: &'a MetaCatalog) -> Self {
        Encoder { vrem, cat, inst: Instance::new(), memo: Memo::default(), classes: Vec::new() }
    }

    /// Encodes `e`, returning the instance, the root class and the
    /// classes' stats.
    pub fn encode(mut self, e: &Expr) -> Result<Encoded, ShapeError> {
        let (root, _) = self.class_of(e)?;
        Ok(Encoded { instance: self.inst, root, classes: self.classes })
    }

    /// Encodes several expressions into one shared instance, returning
    /// each one's class and the classes' stats.
    #[allow(clippy::type_complexity)]
    pub fn encode_many(
        mut self,
        es: &[&Expr],
    ) -> Result<(Instance, Vec<NodeId>, Vec<Option<ClassData>>), ShapeError> {
        let mut roots = Vec::with_capacity(es.len());
        for e in es {
            roots.push(self.class_of(e)?.0);
        }
        Ok((self.inst, roots, self.classes))
    }

    fn type_facts(&mut self, node: NodeId, flags: TypeFlags) {
        let add = |enc: &mut Self, tag: &str| {
            let sym = enc.vrem.vocab.constant(tag);
            let sn = enc.inst.const_node(sym);
            enc.inst.insert(enc.vrem.ty, vec![node, sn]);
        };
        if flags.symmetric_pd {
            add(self, "S");
        }
        if flags.lower_triangular {
            add(self, "L");
        }
        if flags.upper_triangular {
            add(self, "U");
        }
        if flags.orthogonal {
            add(self, "O");
        }
    }
}

impl HashCons for Encoder<'_> {
    type Class = NodeId;

    fn cat(&self) -> &MetaCatalog {
        self.cat
    }

    fn vrem(&mut self) -> &mut Vrem {
        self.vrem
    }

    fn memo(&mut self) -> &mut Memo<NodeId> {
        &mut self.memo
    }

    /// A `name`/`lit`/`identity`/`zero` fact over a fresh null; base
    /// matrices also get their catalogued `type` facts.
    fn new_leaf(&mut self, e: &Expr, pred: PredId, sym: Option<SymId>) -> NodeId {
        let sym_node = sym.map(|s| self.inst.const_node(s));
        let class = self.inst.fresh_null();
        let args = std::iter::once(class).chain(sym_node).collect();
        self.inst.insert(pred, args);
        if let Expr::Mat(n) = e {
            if let Some(meta) = self.cat.get(n) {
                self.type_facts(class, meta.flags);
            }
        }
        class
    }

    fn new_op(&mut self, kind: OpKind, inputs: &[NodeId]) -> NodeId {
        let out = self.inst.fresh_null();
        let mut args = Vec::with_capacity(inputs.len() + 1);
        args.extend_from_slice(inputs);
        args.push(out);
        self.inst.insert(self.vrem.op(kind), args);
        out
    }

    /// Both outputs get the input's shape; the one the expression reads
    /// gets its estimate from [`HashCons::new_stats`] next, the other stays
    /// without a density, like any class the chase creates.
    fn new_pair(&mut self, kind: OpKind, input: NodeId) -> (NodeId, NodeId) {
        let o1 = self.inst.fresh_null();
        let o2 = self.inst.fresh_null();
        self.inst.insert(self.vrem.op(kind), vec![input, o1, o2]);
        if let Some(&Some(of)) = self.classes.get(input.0 as usize) {
            for out in [o1, o2] {
                record(&mut self.classes, out.0 as usize, ClassData { density: None, ..of });
            }
        }
        (o1, o2)
    }

    /// The analysis seed: every encoded subexpression starts from the
    /// estimate the ranking cost model computes for it.
    fn new_stats(&mut self, node: NodeId, stats: ClassStats) {
        record(&mut self.classes, node.0 as usize, ClassData::estimated(stats));
    }
}

/// Encodes an expression as a conjunctive-query body over VREM, with
/// variables in place of classes. Used for view definitions (`enc_LA(V)`,
/// §6.2.4, Figure 3): the returned atoms form a TGD premise and
/// `root_var` is the variable holding the view's output class.
pub struct CqEncoder<'a> {
    /// The VREM schema atoms are built over.
    pub vrem: &'a mut Vrem,
    /// Metadata for constant stats atoms.
    pub cat: &'a MetaCatalog,
    /// The accumulated CQ body.
    pub atoms: Vec<Atom>,
    /// Shape and estimated density of each variable's class, indexed by
    /// variable (`None` for the output of QR/LU the expression never
    /// reads): what a rule concluding these atoms tells the analysis.
    pub classes: Vec<Option<ClassData>>,
    next_var: u32,
    memo: Memo<u32>,
}

impl<'a> CqEncoder<'a> {
    /// A CQ encoder over `vrem` with metadata from `cat`.
    pub fn new(vrem: &'a mut Vrem, cat: &'a MetaCatalog) -> Self {
        CqEncoder {
            vrem,
            cat,
            atoms: Vec::new(),
            classes: Vec::new(),
            next_var: 0,
            memo: Memo::default(),
        }
    }

    /// A fresh CQ variable.
    pub fn fresh_var(&mut self) -> u32 {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    /// Encodes `e`; returns the variable of its class.
    pub fn enc(&mut self, e: &Expr) -> Result<u32, ShapeError> {
        Ok(self.class_of(e)?.0)
    }
}

impl HashCons for CqEncoder<'_> {
    type Class = u32;

    fn cat(&self) -> &MetaCatalog {
        self.cat
    }

    fn vrem(&mut self) -> &mut Vrem {
        self.vrem
    }

    fn memo(&mut self) -> &mut Memo<u32> {
        &mut self.memo
    }

    fn new_leaf(&mut self, _e: &Expr, pred: PredId, sym: Option<SymId>) -> u32 {
        let v = self.fresh_var();
        let args = std::iter::once(Term::Var(v)).chain(sym.map(Term::Const)).collect();
        self.atoms.push(Atom::new(pred, args));
        v
    }

    fn new_op(&mut self, kind: OpKind, inputs: &[u32]) -> u32 {
        let out = self.fresh_var();
        let args = inputs.iter().chain([&out]).map(|&v| Term::Var(v)).collect();
        self.atoms.push(Atom::new(self.vrem.op(kind), args));
        out
    }

    fn new_pair(&mut self, kind: OpKind, input: u32) -> (u32, u32) {
        let o1 = self.fresh_var();
        let o2 = self.fresh_var();
        let args = vec![Term::Var(input), Term::Var(o1), Term::Var(o2)];
        self.atoms.push(Atom::new(self.vrem.op(kind), args));
        (o1, o2)
    }

    fn new_stats(&mut self, var: u32, stats: ClassStats) {
        record(&mut self.classes, var as usize, ClassData::estimated(stats));
    }
}

/// Operator kind of a non-leaf expression (`Sub` is the `Add` it desugars
/// to; a QR/LU component is its pair's kind).
pub fn op_kind_of(e: &Expr) -> Option<OpKind> {
    use Expr::*;
    Some(match e {
        Add(..) | Sub(..) => OpKind::Add,
        Mul(..) => OpKind::Mul,
        Hadamard(..) => OpKind::Hadamard,
        Div(..) => OpKind::Div,
        Kron(..) => OpKind::Kron,
        DirectSum(..) => OpKind::DirectSum,
        ScalarMul(..) => OpKind::ScalarMul,
        Unary(op, _) => op.kind(),
        Mat(_) | Const(_) | Identity(_) | Zero(..) => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;
    use crate::expr::UnaryOp;
    use crate::stats::MatrixMeta;

    fn cat() -> MetaCatalog {
        let mut c = MetaCatalog::new();
        c.register("M", MatrixMeta::dense(100, 10));
        c.register("N", MatrixMeta::dense(10, 100));
        c
    }

    /// Paper Example 6.1: enc((MN)^T) produces tr, multiM, and name atoms.
    #[test]
    fn example_6_1() {
        let mut vrem = Vrem::new();
        let c = cat();
        let e = t(mul(m("M"), m("N")));
        let enc = Encoder::new(&mut vrem, &c).encode(&e).unwrap();
        let inst = &enc.instance;
        assert_eq!(inst.facts_with_pred(vrem.name).len(), 2);
        assert_eq!(inst.facts_with_pred(vrem.op(OpKind::Mul)).len(), 1);
        assert_eq!(inst.facts_with_pred(vrem.op(OpKind::Transpose)).len(), 1);
        // The transpose fact's output is the root.
        let tr_fact = &inst.facts()[inst.facts_with_pred(vrem.op(OpKind::Transpose))[0]];
        assert_eq!(inst.find(tr_fact.args[1]), inst.find(enc.root));
        // Stats, not facts, for M, N, MN, (MN)^T.
        assert_eq!(inst.num_facts(), 4);
        assert_eq!(enc.classes.iter().flatten().count(), 4);
        let root = enc.classes[enc.root.0 as usize].expect("the root is estimated");
        assert_eq!((root.shape(), root.density), ((100, 100), Some(1.0)));
    }

    #[test]
    fn shared_subexpressions_share_classes() {
        let mut vrem = Vrem::new();
        let mut c = cat();
        c.register("D", MatrixMeta::dense(10, 10));
        // D*D: one name fact, one class for D.
        let e = mul(m("D"), m("D"));
        let enc = Encoder::new(&mut vrem, &c).encode(&e).unwrap();
        assert_eq!(enc.instance.facts_with_pred(vrem.name).len(), 1);
    }

    #[test]
    fn subtraction_desugars_to_addition() {
        let mut vrem = Vrem::new();
        let mut c = MetaCatalog::new();
        c.register("A", MatrixMeta::dense(5, 5));
        c.register("B", MatrixMeta::dense(5, 5));
        let e = sub(m("A"), m("B"));
        let enc = Encoder::new(&mut vrem, &c).encode(&e).unwrap();
        assert_eq!(enc.instance.facts_with_pred(vrem.op(OpKind::Add)).len(), 1);
        assert_eq!(enc.instance.facts_with_pred(vrem.op(OpKind::ScalarMul)).len(), 1);
        assert_eq!(enc.instance.facts_with_pred(vrem.lit).len(), 1);
    }

    #[test]
    fn qr_components_share_one_fact() {
        let mut vrem = Vrem::new();
        let mut c = MetaCatalog::new();
        c.register("D", MatrixMeta::dense(8, 8));
        let qr = |out| Expr::Unary(UnaryOp::new(OpKind::Qr, out).unwrap(), Box::new(m("D")));
        let e = mul(qr(0), qr(1));
        let enc = Encoder::new(&mut vrem, &c).encode(&e).unwrap();
        assert_eq!(enc.instance.facts_with_pred(vrem.op(OpKind::Qr)).len(), 1);
    }

    #[test]
    fn cq_encoder_builds_view_premise() {
        // Figure 3: V = N^T + (M^T)^{-1}.
        let mut vrem = Vrem::new();
        let mut c = MetaCatalog::new();
        c.register("M", MatrixMeta::dense(6, 6));
        c.register("N", MatrixMeta::dense(6, 6));
        let v_def = add(t(m("N")), inv(t(m("M"))));
        let mut enc = CqEncoder::new(&mut vrem, &c);
        let root = enc.enc(&v_def).unwrap();
        // name x2, tr x2, invM, addM = 6 atoms.
        assert_eq!(enc.atoms.len(), 6);
        assert!(root > 0);
        let shape_err = CqEncoder::new(&mut vrem, &c).enc(&mul(m("M"), t(m("M"))));
        assert!(shape_err.is_ok());
    }

    #[test]
    fn cq_encoder_records_stats_per_variable() {
        let mut vrem = Vrem::new();
        let mut c = MetaCatalog::new();
        c.register("M", MatrixMeta::dense(6, 4));
        c.register("D", MatrixMeta::dense(5, 5));
        let mut enc = CqEncoder::new(&mut vrem, &c);
        let root = enc.enc(&t(m("M"))).unwrap();
        // name(M) + tr: the stats are beside the atoms, not among them.
        assert_eq!(enc.atoms.len(), 2);
        let q = enc
            .enc(&Expr::Unary(UnaryOp::new(OpKind::Qr, 0).unwrap(), Box::new(m("D"))))
            .unwrap();
        let of = |v: u32| enc.classes.get(v as usize)?.map(|d| (d.shape(), d.density));
        assert_eq!(of(0), Some(((6, 4), Some(1.0))));
        assert_eq!(of(root), Some(((4, 6), Some(1.0))), "the transposed dims");
        // QR read through Q only: R's variable has no estimate.
        assert_eq!(of(q), Some(((5, 5), Some(1.0))));
        assert_eq!(of(q + 1), None);
    }

    #[test]
    fn encoder_records_catalogued_sparsity() {
        let mut vrem = Vrem::new();
        let mut c = MetaCatalog::new();
        c.register("S", MatrixMeta::sparse(100, 100, 500)); // density 0.05
        let enc = Encoder::new(&mut vrem, &c).encode(&t(m("S"))).unwrap();
        let dens: Vec<Option<f64>> = enc.classes.iter().flatten().map(|d| d.density).collect();
        assert_eq!(dens, [Some(0.05); 2], "one estimate per subexpression");
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let mut vrem = Vrem::new();
        let c = cat();
        let e = add(m("M"), m("N"));
        assert!(Encoder::new(&mut vrem, &c).encode(&e).is_err());
    }
}
