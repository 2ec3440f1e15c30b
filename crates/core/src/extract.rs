//! `dec_LA`: min-cost decoding of a (possibly chased) VREM instance back
//! into an [`Expr`] — the inverse of [`crate::encode::Encoder`] (paper
//! §6.2.2).
//!
//! After the chase saturates an encoded instance under the MMC catalogue,
//! each union-find class is an equivalence class of value-equal
//! subexpressions and each operator fact is one way to compute its output
//! class: the instance is an e-graph, and it may be cyclic (`(Aᵀ)ᵀ = A`
//! merges a class with a descendant of itself). The extractor groups the
//! e-nodes of every class in arrays indexed by the class's dense
//! union-find id and finds each class's cheapest derivation in one
//! worklist pass — Knuth's generalization of Dijkstra's algorithm. An
//! e-node costs `op + Σ operand classes` with `op ≥ 0`, which is monotone
//! in every operand and never below any of them, so the cheapest class
//! still queued is final when it is popped, and an e-node is costed exactly
//! once, when the last of its operand classes is popped.
//!
//! A class's price is the price of the plan its cheapest e-node builds, as
//! [`crate::expr_estimate`] computes it: each class carries that plan's
//! [`ClassStats`], a leaf's from the estimator's `leaf_stats` (a base
//! matrix's from the catalog) and an operator's from [`op_stats`] over its
//! operands' stats, charged [`op_cost`]. An `Add` rebuilt as a subtraction
//! is priced as that subtraction, so the encoder's `-1 ·` costs nothing.
//!
//! Expressions are rebuilt from the chosen e-nodes on demand, resugaring
//! the encoder's `a + (-1 · b)` back to subtraction. One built plan per
//! class: a call to [`Extractor::extract`] or [`Extractor::candidates`]
//! builds each class's cheapest plan at most once, memoized by class id in
//! a `Vec` indexed like the cheapest derivations, and every plan over that
//! class shares it by `Arc` — a candidate is one new node over its
//! operands' shared plans, not a copy of their trees. A unary e-node is
//! rebuilt as one [`Expr::Unary`] through [`UnaryOp::new`] from its kind
//! and output index, so no unary operator is named here.
//!
//! A product chain whose table the encoder kept out of the instance
//! ([`crate::Encoded::tabulate_chains_as_cells`]) is extracted from its
//! [`ChainCells`]: the `j`-th class only the table has is class
//! `num_nodes() + j`, with the shape the cells give it, each split is one
//! more `mul` e-node of its product's class, and each view the cells hold
//! is one more `Mat` leaf of its class, after every other e-node of it —
//! where a view rule's `name` fact lands on the same table as facts —
//! priced like any base matrix, from the call's catalog. The worklist then
//! runs over them as over any e-node — on a chain it is the matrix-chain
//! DP — and prices and builds exactly what it would from the same table
//! inserted as facts, with its views chased.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use hadad_chase::{Instance, NodeId};

use crate::analysis::LaAnalysis;
use crate::encode::{ChainCell, ChainCells};
use crate::expr::{Expr, UnaryOp};
use crate::schema::{OpKind, Vrem};
use crate::stats::{leaf_stats, op_cost, op_stats, ClassStats, MetaCatalog};

/// One way to produce a class: a leaf fact or an operator application.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ENode {
    /// `name(class, n)` — base matrix `names[n]`.
    Mat(u32),
    /// `lit(class, v)` — scalar literal.
    Const(f64),
    /// `identity(class)`; the order comes from the class's shape.
    Identity,
    /// `zero(class)`; dims come from the class's shape.
    Zero,
    /// Operator fact producing this class as output `out_idx` (QR/LU have
    /// two outputs; everything else one) from the first
    /// `kind.num_inputs()` classes of `inputs` (a unary operand twice).
    Op { kind: OpKind, out_idx: usize, inputs: [NodeId; 2] },
}

impl ENode {
    fn operands(&self) -> &[NodeId] {
        match self {
            ENode::Op { kind, inputs, .. } => &inputs[..kind.num_inputs()],
            _ => &[],
        }
    }
}

/// Min-cost extractor over a VREM instance. Every per-class vector is
/// indexed by the class's canonical `NodeId.0`, then by `num_nodes() + j`
/// for the `j`-th class only a [`ChainCells`] table has.
///
/// Leaves cost nothing (base matrices and literals are already
/// materialized); a base matrix the catalog lacks is never a derivation.
/// An operator e-node costs [`op_cost`] over its operands' plans' stats.
pub struct Extractor<'a> {
    inst: &'a Instance,
    /// The call's catalog, which base matrices are priced from.
    cat: &'a MetaCatalog,
    /// Base-matrix names the `Mat` e-nodes point into; a built leaf
    /// shares its name.
    names: Vec<Arc<str>>,
    /// Every class's e-nodes, grouped by class and in fact order within
    /// one: class `c`'s are `nodes[first[c]..first[c + 1]]`.
    nodes: Vec<ENode>,
    first: Vec<u32>,
    /// Shape, from the analysis or, for a class it knows nothing of, from
    /// the first priced leaf or operator e-node.
    shapes: Vec<Option<(usize, usize)>>,
    /// Cheapest derivation.
    best: Vec<Option<Best>>,
}

/// A class's cheapest derivation: its price, its index into
/// `Extractor::nodes`, and the stats of the plan it builds.
#[derive(Clone, Copy)]
struct Best {
    cost: f64,
    node: u32,
    stats: ClassStats,
}

/// A class queued at a tentative cost. The heap pops the cheapest first
/// (equal costs: the lower id).
struct Queued(f64, u32);

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Queued {}

/// The solver's frontier: classes with a tentative cost, and the classes
/// whose cost is final.
struct Worklist {
    heap: BinaryHeap<Reverse<Queued>>,
    done: Vec<bool>,
}

impl<'a> Extractor<'a> {
    /// Collects e-nodes from the instance and from `cells` (empty where no
    /// table was kept out of the instance), shapes from the analysis and
    /// the cells, and solves for every class's cheapest derivation, pricing
    /// base matrices from `cat`.
    pub fn new(
        vrem: &Vrem,
        inst: &'a Instance,
        analysis: &LaAnalysis,
        cat: &'a MetaCatalog,
        cells: &ChainCells,
    ) -> Self {
        // Fault-injection site: `extract.solve=panic` exercises the
        // optimizer's phase-level catch_unwind (degrade to the original
        // plan); `delay:<ms>` exercises deadlines. The `error` action has
        // no typed path here and is a no-op.
        let _ = hadad_failpoint::hit("extract.solve");
        static SOLVES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("extract.solves");
        SOLVES.incr();
        let _span = hadad_obs::span("extract.solve");
        let n = inst.num_nodes();
        let total = n + cells.classes.len();
        let class = |c: usize| match c.checked_sub(n) {
            None => analysis.class(NodeId(c as u32)),
            Some(j) => cells.classes[j],
        };
        let mut ex = Extractor {
            inst,
            cat,
            names: Vec::new(),
            nodes: Vec::new(),
            first: vec![0; total + 1],
            shapes: (0..total).map(|c| class(c).map(|d| d.shape())).collect(),
            best: vec![None; total],
        };
        ex.collect(vrem, cells);
        ex.solve();
        ex
    }

    fn class_nodes(&self, class: usize) -> Range<usize> {
        self.first[class] as usize..self.first[class + 1] as usize
    }

    fn collect(&mut self, vrem: &Vrem, cells: &ChainCells) {
        let inst = self.inst;
        let constant = |n: NodeId| inst.const_of(n).map(|s| vrem.vocab.const_name(s));
        let mut found: Vec<(u32, ENode)> =
            Vec::with_capacity(inst.num_facts() + cells.splits.len());
        for f in inst.facts() {
            let arg = |i: usize| inst.find(f.args[i]);
            if f.pred == vrem.name {
                if let Some(name) = constant(arg(1)) {
                    found.push((arg(0).0, self.mat(name)));
                }
            } else if f.pred == vrem.lit {
                if let Some(v) = constant(arg(1)).and_then(|s| s.parse::<f64>().ok()) {
                    found.push((arg(0).0, ENode::Const(v)));
                }
            } else if f.pred == vrem.identity {
                found.push((arg(0).0, ENode::Identity));
            } else if f.pred == vrem.zero {
                found.push((arg(0).0, ENode::Zero));
            } else if let Some(kind) = vrem.kind_of(f.pred) {
                let n_in = kind.num_inputs();
                let inputs = [arg(0), arg(n_in - 1)];
                for out_idx in 0..f.args.len() - n_in {
                    found.push((arg(n_in + out_idx).0, ENode::Op { kind, out_idx, inputs }));
                }
            }
        }
        let n = inst.num_nodes() as u32;
        let id = |cell: ChainCell| match cell {
            ChainCell::Class(c) => inst.find(c),
            ChainCell::Table(j) => NodeId(n + j),
        };
        let split = |&[left, right, out]: &[ChainCell; 3]| {
            (
                id(out).0,
                ENode::Op { kind: OpKind::Mul, out_idx: 0, inputs: [id(left), id(right)] },
            )
        };
        let into_table = |s: &&[ChainCell; 3]| matches!(s[2], ChainCell::Table(_));
        found.extend(cells.splits.iter().filter(|s| !into_table(s)).map(split));
        // Group by class; the sort is stable, so fact order within a class
        // survives, and a repeated e-node keeps its first position. The
        // splits of table-only classes are in class order already, after
        // every instance class.
        found.sort_by_key(|&(class, _)| class);
        found.extend(cells.splits.iter().filter(into_table).map(split));
        // A view's leaf goes after every other e-node of its class, where
        // the same table as facts gets the `name` fact its `V_IO` rule
        // chases; two views of one class keep the order they were given in.
        for (cell, view) in &cells.views {
            let leaf = (id(*cell).0, self.mat(view));
            let at = found.partition_point(|&(class, _)| class <= leaf.0);
            found.insert(at, leaf);
        }
        let mut group = (u32::MAX, 0);
        for (class, node) in found {
            if group.0 != class {
                group = (class, self.nodes.len());
            }
            if !self.nodes[group.1..].contains(&node) {
                self.nodes.push(node);
                self.first[class as usize + 1] += 1;
            }
        }
        for c in 1..self.first.len() {
            self.first[c] += self.first[c - 1];
        }
    }

    /// The `Mat` e-node of base matrix `name`.
    fn mat(&mut self, name: &str) -> ENode {
        let i = match self.names.iter().position(|n| **n == *name) {
            Some(i) => i,
            None => {
                self.names.push(name.into());
                self.names.len() - 1
            }
        };
        ENode::Mat(i as u32)
    }

    /// Knuth's worklist: pop the cheapest queued class, which makes its
    /// cost final; every e-node reading it that has no operand left to
    /// wait for is costed and offered to its own class.
    fn solve(&mut self) {
        let n = self.best.len();
        // Per e-node: its class and its operands not yet final. Per class:
        // the e-nodes reading it, once per operand position —
        // `readers[reader_first[c]..reader_first[c + 1]]`.
        let mut owner = vec![0; self.nodes.len()];
        let mut waiting = vec![0u8; self.nodes.len()];
        let mut reader_first = vec![0u32; n + 1];
        for class in 0..n {
            for i in self.class_nodes(class) {
                owner[i] = class;
                let operands = self.nodes[i].operands();
                waiting[i] = operands.len() as u8;
                for o in operands {
                    reader_first[o.0 as usize + 1] += 1;
                }
            }
        }
        for c in 1..=n {
            reader_first[c] += reader_first[c - 1];
        }
        let mut readers = vec![0u32; reader_first[n] as usize];
        let mut cursor = reader_first.clone();
        for (i, node) in self.nodes.iter().enumerate() {
            for o in node.operands() {
                let slot = &mut cursor[o.0 as usize];
                readers[*slot as usize] = i as u32;
                *slot += 1;
            }
        }

        let mut queue = Worklist { heap: BinaryHeap::new(), done: vec![false; n] };
        for class in 0..n {
            self.offer_leaves(class, &mut queue);
        }
        while let Some(Reverse(Queued(_, class))) = queue.heap.pop() {
            let class = class as usize;
            if queue.done[class] {
                continue;
            }
            queue.done[class] = true;
            for r in reader_first[class]..reader_first[class + 1] {
                let i = readers[r as usize] as usize;
                waiting[i] -= 1;
                if waiting[i] == 0 {
                    self.cost_op(owner[i], i, &mut queue);
                }
            }
        }
    }

    /// Costs operator e-node `i` of `class`, whose operands are all final.
    /// A popped class is final, so a cyclic class never becomes its own
    /// derivation, even where an operator costs nothing.
    fn cost_op(&mut self, class: usize, i: usize, q: &mut Worklist) {
        if q.done[class] {
            return;
        }
        let (cost, stats) = self.price(class, self.nodes[i]).expect("its operands are final");
        self.set_shape(class, stats.shape(), q);
        self.offer(class, i, cost, stats, q);
    }

    /// The price of e-node `node` of `class` and the stats of the plan it
    /// builds — what [`crate::expr_estimate`] computes for that plan. A
    /// leaf costs nothing and has the stats of the leaf it builds. An
    /// operator costs its operands' cheapest prices, in operand order, plus
    /// [`op_cost`] over their stats; an `Add` with an addend whose cheapest
    /// derivation is `(-1) · x` is the subtraction [`add_or_sub`] rebuilds,
    /// priced over `x`. `None` for a base matrix the catalog lacks, an
    /// identity or zero matrix of a class without a shape yet, and an
    /// operator while an operand has no derivation.
    fn price(&self, class: usize, node: ENode) -> Option<(f64, ClassStats)> {
        let ENode::Op { kind, out_idx, inputs: [a, b] } = node else {
            return Some((0.0, leaf_stats(&self.build(class, node, &mut [])?, self.cat).ok()?));
        };
        let mut operands = [a, b];
        if kind == OpKind::Add {
            if let Some(x) = self.negated(b) {
                operands = [a, x];
            } else if let Some(x) = self.negated(a) {
                operands = [b, x];
            }
        }
        let mut child = [ClassStats::dense(0, 0); 2];
        let mut cost = 0.0;
        for (slot, o) in child.iter_mut().zip(&operands[..kind.num_inputs()]) {
            let best = self.best[o.0 as usize]?;
            cost += best.cost;
            *slot = best.stats;
        }
        let child = &child[..kind.num_inputs()];
        let out = op_stats(kind, out_idx, child);
        Some((cost + op_cost(kind, out_idx, child, &out), out))
    }

    /// `x` if the class's cheapest derivation is `(-1) · x`.
    fn negated(&self, class: NodeId) -> Option<NodeId> {
        let best = |c: NodeId| self.best[c.0 as usize].map(|b| self.nodes[b.node as usize]);
        let ENode::Op { kind: OpKind::ScalarMul, inputs: [s, x], .. } = best(class)? else {
            return None;
        };
        matches!(best(s)?, ENode::Const(v) if v == -1.0).then_some(x)
    }

    /// Offers every leaf e-node of `class` that [`Self::price`] prices.
    fn offer_leaves(&mut self, class: usize, q: &mut Worklist) {
        for i in self.class_nodes(class) {
            let node = self.nodes[i];
            if matches!(node, ENode::Op { .. }) {
                continue;
            }
            if let Some((cost, stats)) = self.price(class, node) {
                self.set_shape(class, stats.shape(), q);
                self.offer(class, i, cost, stats, q);
            }
        }
    }

    /// Fixes a shapeless class's shape, which prices its shape-dependent
    /// leaves (`Identity`/`Zero`).
    fn set_shape(&mut self, class: usize, shape: (usize, usize), q: &mut Worklist) {
        if self.shapes[class].is_none() {
            self.shapes[class] = Some(shape);
            self.offer_leaves(class, q);
        }
    }

    /// Makes e-node `i` (costing `c`, building a plan of `stats`) the
    /// class's derivation if it beats the incumbent: strictly cheaper, or
    /// as cheap with a smaller [`Self::tie_cmp`] key.
    fn offer(&mut self, class: usize, i: usize, c: f64, stats: ClassStats, q: &mut Worklist) {
        if q.done[class] {
            return;
        }
        let better = match self.best[class] {
            None => true,
            Some(cur) => {
                c < cur.cost
                    || (c == cur.cost
                        && self.tie_cmp(&self.nodes[i], &self.nodes[cur.node as usize]).is_lt())
            }
        };
        if better {
            self.best[class] = Some(Best { cost: c, node: i as u32, stats });
            q.heap.push(Reverse(Queued(c, class as u32)));
        }
    }

    /// Deterministic order of e-nodes whose derivations cost exactly the
    /// same: variant, then a leaf's name or value bits, or an operator's
    /// kind, output index and operands' best-cost bits. It reads only
    /// isomorphism-invariant data (never `NodeId`s or collection order), so
    /// two structurally equal instances extract the same plan regardless of
    /// fact order — which keeps the naive and semi-naïve chase engines
    /// observationally identical.
    fn tie_cmp(&self, a: &ENode, b: &ENode) -> Ordering {
        let variant = |n: &ENode| match n {
            ENode::Mat(_) => 0,
            ENode::Const(_) => 1,
            ENode::Identity => 2,
            ENode::Zero => 3,
            ENode::Op { .. } => 4,
        };
        let bits = |o: &NodeId| self.best[o.0 as usize].map_or(u64::MAX, |b| b.cost.to_bits());
        variant(a).cmp(&variant(b)).then_with(|| match (a, b) {
            (ENode::Mat(x), ENode::Mat(y)) => {
                self.names[*x as usize].cmp(&self.names[*y as usize])
            }
            (ENode::Const(x), ENode::Const(y)) => x.to_bits().cmp(&y.to_bits()),
            (
                ENode::Op { kind: ka, out_idx: oa, .. },
                ENode::Op { kind: kb, out_idx: ob, .. },
            ) => ka
                .cmp(kb)
                .then(oa.cmp(ob))
                .then_with(|| a.operands().iter().map(bits).cmp(b.operands().iter().map(bits))),
            _ => Ordering::Equal,
        })
    }

    /// Price of the cheapest derivation of a class, if one exists.
    pub fn class_cost(&self, class: NodeId) -> Option<f64> {
        self.best[self.inst.find(class).0 as usize].map(|b| b.cost)
    }

    /// Stats of the plan the cheapest derivation of a class builds.
    pub fn stats(&self, class: NodeId) -> Option<ClassStats> {
        self.best[self.inst.find(class).0 as usize].map(|b| b.stats)
    }

    /// The cheapest expression of a class, resugared.
    pub fn extract(&self, root: NodeId) -> Option<Expr> {
        let root = self.inst.find(root).0 as usize;
        let best = self.best[root]?;
        self.build(root, self.nodes[best.node as usize], &mut vec![None; self.best.len()])
    }

    /// One candidate per derivation of the root class, completed with
    /// min-cost children and deduplicated, with its price: what
    /// [`crate::expr_estimate`] prices that expression at. Each class's
    /// cheapest plan is built once per call and shared by every candidate
    /// over it, so a candidate is one new node over shared operands.
    pub fn candidates(&self, root: NodeId) -> Vec<(Expr, f64)> {
        let root = self.inst.find(root).0 as usize;
        let mut built = vec![None; self.best.len()];
        let mut out: Vec<(Expr, f64)> = Vec::new();
        for i in self.class_nodes(root) {
            let node = self.nodes[i];
            if let Some(((price, _), e)) =
                self.price(root, node).zip(self.build(root, node, &mut built))
            {
                if !out.iter().any(|(seen, _)| *seen == e) {
                    out.push((e, price));
                }
            }
        }
        out
    }

    /// The cheapest plan of `class`, built on its first use in a call and
    /// shared from `built` (indexed like `best`) on every later one.
    fn build_best(&self, class: NodeId, built: &mut [Option<Arc<Expr>>]) -> Option<Arc<Expr>> {
        let class = class.0 as usize;
        if let Some(plan) = &built[class] {
            return Some(Arc::clone(plan));
        }
        let best = self.best[class]?;
        let plan = Arc::new(self.build(class, self.nodes[best.node as usize], built)?);
        built[class] = Some(Arc::clone(&plan));
        Some(plan)
    }

    /// Rebuilds an expression from a chosen e-node over the best plans of
    /// its operand classes — an acyclic walk, since a class's best e-node
    /// only reads classes that were final before it.
    fn build(
        &self,
        class: usize,
        node: ENode,
        built: &mut [Option<Arc<Expr>>],
    ) -> Option<Expr> {
        Some(match node {
            ENode::Mat(i) => Expr::Mat(Arc::clone(&self.names[i as usize])),
            ENode::Const(v) => Expr::Const(v),
            ENode::Identity => Expr::Identity(self.shapes[class]?.0),
            ENode::Zero => {
                let (r, c) = self.shapes[class]?;
                Expr::Zero(r, c)
            }
            ENode::Op { kind, out_idx, inputs } => {
                let a = self.build_best(inputs[0], built)?;
                if let Some(op) = UnaryOp::new(kind, out_idx) {
                    Expr::Unary(op, a)
                } else {
                    binary_expr(kind, a, self.build_best(inputs[1], built)?)
                }
            }
        })
    }
}

/// The `Expr` node of a binary operator; `Add` resugars.
fn binary_expr(kind: OpKind, a: Arc<Expr>, b: Arc<Expr>) -> Expr {
    use OpKind::*;
    match kind {
        Add => add_or_sub(a, b),
        Mul => Expr::Mul(a, b),
        Hadamard => Expr::Hadamard(a, b),
        Div => Expr::Div(a, b),
        ScalarMul => Expr::ScalarMul(a, b),
        Kron => Expr::Kron(a, b),
        DirectSum => Expr::DirectSum(a, b),
        _ => unreachable!("{kind:?} is unary"),
    }
}

/// `a + b`, resugaring the encoder's `a + (-1 · b)` to `a - b` — in either
/// addend order, since the chase may commute additions. Operands are built
/// bottom-up, so they are resugared already.
fn add_or_sub(a: Arc<Expr>, b: Arc<Expr>) -> Expr {
    if let Some(x) = negated_operand(&b) {
        return Expr::Sub(a, x);
    }
    match negated_operand(&a) {
        Some(x) => Expr::Sub(b, x),
        None => Expr::Add(a, b),
    }
}

/// `x` if `e` is `(-1) · x`.
fn negated_operand(e: &Expr) -> Option<Arc<Expr>> {
    match e {
        Expr::ScalarMul(s, x) if matches!(**s, Expr::Const(v) if v == -1.0) => {
            Some(Arc::clone(x))
        }
        _ => None,
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
        let analysis = LaAnalysis::new(&vrem, enc.classes);
        let ex = Extractor::new(&vrem, &enc.instance, &analysis, &c, &ChainCells::default());
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
        let of_d = |kind, out| Expr::Unary(UnaryOp::new(kind, out).unwrap(), Arc::new(m("D")));
        let e = mul(of_d(OpKind::Qr, 0), of_d(OpKind::Qr, 1));
        assert_eq!(roundtrip(&e), e);
        let lu = mul(of_d(OpKind::Lu, 0), of_d(OpKind::Lu, 1));
        assert_eq!(roundtrip(&lu), lu);
    }

    #[test]
    fn decodes_leaves() {
        let e = add(smul(lit(2.5), m("D")), Expr::Identity(10));
        assert_eq!(roundtrip(&e), e);
        let z = add(m("D"), Expr::Zero(10, 10));
        assert_eq!(roundtrip(&z), z);
    }

    /// `X = diag(S)` of an all-zero 10⁸ × 10⁸ sparse `S` costs 10⁸ flops;
    /// a transpose of it moves no non-zeros, so each costs nothing. Merging
    /// `(Xᵀ)ᵀ` into `X` gives the class a cyclic e-node exactly as cheap as
    /// `diag(S)` and with a smaller tie key (`Transpose` sorts before
    /// `Diag`): a relaxation to fixpoint would pick it and `extract` would
    /// never return. The worklist finalizes `X` before its cyclic e-node is
    /// ever costed.
    #[test]
    fn a_class_is_never_its_own_best_derivation() {
        let n = 100_000_000;
        let mut c = MetaCatalog::new();
        c.register("S", MatrixMeta::sparse(n, n, 0));
        let x = Expr::Unary(UnaryOp::new(OpKind::Diag, 0).unwrap(), Arc::new(m("S")));
        let mut vrem = Vrem::new();
        let (mut inst, roots, classes) = Encoder::new(&mut vrem, &c)
            .encode_many(&[&x, &t(x.clone()), &t(t(x.clone()))])
            .unwrap();
        inst.merge(roots[0], roots[2]).unwrap();
        inst.rehash();
        let analysis = LaAnalysis::new(&vrem, classes);
        let ex = Extractor::new(&vrem, &inst, &analysis, &c, &ChainCells::default());
        assert_eq!(ex.class_cost(roots[0]), Some(n as f64));
        assert_eq!(ex.class_cost(roots[1]), Some(n as f64), "a transpose costs nothing");
        assert_eq!(ex.extract(roots[0]), Some(x.clone()));
        assert_eq!(ex.extract(roots[2]), Some(x.clone()));
        assert_eq!(ex.extract(roots[1]), Some(t(x.clone())));
        // The cyclic derivation is still a candidate, built on the acyclic one.
        assert_eq!(ex.candidates(roots[0]), vec![(x.clone(), n as f64), (t(t(x)), n as f64)]);
    }

    /// `e` encoded with its chain tables as facts, and encoded with them
    /// as cells holding `views`: each instance, analysis and cells.
    fn both_tables(
        e: &Expr,
        c: &MetaCatalog,
        views: &[(&str, &Expr)],
    ) -> [(Vrem, crate::Encoded, LaAnalysis); 2] {
        let budget = hadad_chase::ChaseBudget::default();
        let table = |as_cells: bool| {
            let mut vrem = Vrem::new();
            let mut enc = Encoder::new(&mut vrem, c).encode(e).unwrap();
            let clock = if as_cells {
                enc.tabulate_chains_as_cells(&vrem, &budget, views)
            } else {
                enc.tabulate_chains(&vrem, &budget)
            };
            assert_eq!(clock, Some(enc.instance.clock()));
            let analysis = LaAnalysis::new(&vrem, std::mem::take(&mut enc.classes));
            (vrem, enc, analysis)
        };
        [table(false), table(true)]
    }

    /// A 5-chain's cells are the e-graph its table inserted as facts is:
    /// the same e-nodes per class, every class at the same cost, the same
    /// best plan and candidates.
    #[test]
    fn chain_cells_extract_as_the_same_table_as_facts() {
        let mut c = MetaCatalog::new();
        let dims = [40, 6, 30, 2, 25, 8];
        let names = ["A", "B", "C", "E", "F"];
        for (i, name) in names.iter().enumerate() {
            c.register(*name, MatrixMeta::dense(dims[i], dims[i + 1]));
        }
        let e = names[1..].iter().fold(m(names[0]), |acc, n| mul(acc, m(n)));
        let [(vrem, facts, fa), (_, cells, ca)] = both_tables(&e, &c, &[]);
        assert!(facts.cells.splits.is_empty());
        assert_eq!(cells.cells.splits.len(), 5 * 24 / 6, "n(n²−1)/6 splits");
        assert_eq!(cells.cells.classes.len(), 10 - 4, "sub-chains the input did not build");
        assert_eq!(facts.instance.num_facts(), 5 + 20);
        assert_eq!(cells.instance.num_facts(), 5 + 4);

        let tabled = Extractor::new(&vrem, &facts.instance, &fa, &c, &facts.cells);
        let implicit = Extractor::new(&vrem, &cells.instance, &ca, &c, &cells.cells);
        assert_eq!(implicit.nodes, tabled.nodes);
        assert_eq!(implicit.first, tabled.first);
        assert_eq!(implicit.shapes, tabled.shapes);
        let costs = |ex: &Extractor<'_>| -> Vec<Option<u64>> {
            ex.best.iter().map(|b| b.map(|b| b.cost.to_bits())).collect()
        };
        assert_eq!(costs(&implicit), costs(&tabled));
        for n in 0..cells.instance.num_nodes() as u32 {
            let bits = |ex: &Extractor<'_>| ex.class_cost(NodeId(n)).map(f64::to_bits);
            assert_eq!(bits(&implicit), bits(&tabled), "class {n}");
        }
        let best = implicit.extract(cells.root).unwrap();
        assert_eq!(best.to_string(), "((A (B C)) (E F))");
        assert_eq!(tabled.extract(facts.root), Some(best));
        let candidates = implicit.candidates(cells.root);
        assert_eq!(candidates.len(), 4, "one per split of the root");
        assert_eq!(tabled.candidates(facts.root), candidates);
    }

    /// In `(A B)(A B)` both occurrences of `A B` are the class the encoder
    /// built for it: the table adds only `B A`, `A B A` and `B A B`.
    #[test]
    fn a_repeated_sub_chain_is_one_cell() {
        let mut c = MetaCatalog::new();
        c.register("A", MatrixMeta::dense(6, 9));
        c.register("B", MatrixMeta::dense(9, 6));
        let ab = mul(m("A"), m("B"));
        let e = mul(ab.clone(), ab);
        let [(vrem, facts, fa), (_, cells, ca)] = both_tables(&e, &c, &[]);
        let inst = &cells.instance;
        let fact = inst.fact(inst.facts_with_pred(vrem.op(OpKind::Mul))[1]);
        assert_eq!(fact.args[0], fact.args[1], "the encoder shares A B");
        let ab = ChainCell::Class(fact.args[0]);
        assert_eq!(cells.cells.classes.len(), 3);
        let root = ChainCell::Class(cells.root);
        assert!(cells.cells.splits.contains(&[ab, ab, root]));
        let reads_ab = cells.cells.splits.iter().filter(|s| s[..2].contains(&ab)).count();
        assert_eq!(reads_ab, 3, "(A B)(A B), (A B) A, B (A B)");

        let tabled = Extractor::new(&vrem, &facts.instance, &fa, &c, &facts.cells);
        let implicit = Extractor::new(&vrem, inst, &ca, &c, &cells.cells);
        assert_eq!(implicit.extract(cells.root), tabled.extract(facts.root));
        assert_eq!(implicit.candidates(cells.root), tabled.candidates(facts.root));
        assert_eq!(implicit.candidates(cells.root).len(), 3);
    }

    /// A view in the cells is the leaf its `name` fact is on the same table
    /// as facts, where a view rule inserts that fact after the table: the
    /// same e-nodes in the same order, every class at the same cost, the
    /// same plans. `V := B C` lands on a class only the table has, `W` on
    /// the root, and `U`, defined as `W` is, beside `W`; `X := A C` is no
    /// sub-chain and lands nowhere.
    #[test]
    fn a_view_in_the_cells_is_the_leaf_its_name_fact_is() {
        let mut c = MetaCatalog::new();
        let dims = [40, 6, 30, 2, 25, 8];
        let names = ["A", "B", "C", "E", "F"];
        for (i, name) in names.iter().enumerate() {
            c.register(*name, MatrixMeta::dense(dims[i], dims[i + 1]));
        }
        c.register("V", MatrixMeta::dense(6, 2));
        for whole in ["W", "U"] {
            c.register(whole, MatrixMeta::dense(40, 8));
        }
        c.register("X", MatrixMeta::dense(40, 2));
        let e = names[1..].iter().fold(m(names[0]), |acc, n| mul(acc, m(n)));
        let (bc, ac) = (mul(m("B"), m("C")), mul(m("A"), m("C")));
        let whole = mul(m("A"), mul(mul(m("B"), m("C")), mul(m("E"), m("F"))));
        let views = [("V", &bc), ("W", &whole), ("X", &ac), ("U", &whole)];
        let [(mut vrem, mut facts, fa), (_, cells, ca)] = both_tables(&e, &c, &views);
        let n = cells.instance.num_nodes() as u32;
        let found: Vec<_> =
            cells.cells.views.iter().map(|(cell, v)| (*cell, v.as_str())).collect();
        assert_eq!(found[0], (ChainCell::Table(0), "V"), "B C is the first sub-chain tabled");
        assert_eq!(found[1..], [(ChainCell::Class(cells.root), "W"), (cells.root.into(), "U")]);
        for (cell, view) in found {
            let class = match cell {
                ChainCell::Class(c) => c,
                ChainCell::Table(j) => NodeId(n + j),
            };
            let sym = vrem.vocab.constant(view);
            let sym = facts.instance.const_node(sym);
            facts.instance.insert(vrem.name, vec![class, sym]);
        }

        let tabled = Extractor::new(&vrem, &facts.instance, &fa, &c, &facts.cells);
        let implicit = Extractor::new(&vrem, &cells.instance, &ca, &c, &cells.cells);
        assert_eq!(implicit.nodes, tabled.nodes);
        let classes = implicit.best.len();
        assert_eq!(
            implicit.first[..],
            tabled.first[..=classes],
            "a name's node adds no e-node"
        );
        let costs = |ex: &Extractor<'_>| -> Vec<Option<u64>> {
            ex.best[..classes].iter().map(|b| b.map(|b| b.cost.to_bits())).collect()
        };
        assert_eq!(costs(&implicit), costs(&tabled));
        assert_eq!(implicit.extract(cells.root), Some(m("U")), "U sorts before W");
        assert_eq!(tabled.extract(facts.root), Some(m("U")));
        let candidates = implicit.candidates(cells.root);
        assert_eq!(candidates.len(), 4 + 2, "one per split of the root and per view");
        assert_eq!(tabled.candidates(facts.root), candidates);
    }

    #[test]
    fn extraction_picks_cheaper_enode_after_merge() {
        // Manually merge the class of (M N) with the class of a base matrix
        // "P": extraction must then prefer the leaf P, which costs nothing.
        let mut vrem = Vrem::new();
        let mut c = cat();
        c.register("P", MatrixMeta::dense(100, 100));
        let e = mul(m("M"), m("N"));
        let (mut inst, roots, classes) =
            Encoder::new(&mut vrem, &c).encode_many(&[&e, &m("P")]).unwrap();
        inst.merge(roots[0], roots[1]).unwrap();
        inst.rehash();
        let analysis = LaAnalysis::new(&vrem, classes);
        let ex = Extractor::new(&vrem, &inst, &analysis, &c, &ChainCells::default());
        assert_eq!(ex.extract(roots[0]).unwrap(), m("P"));
        // Both derivations remain available as candidates.
        let cands = ex.candidates(roots[0]);
        assert_eq!(cands.len(), 2);
    }
}
