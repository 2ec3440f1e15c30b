//! Differential test of the extractor's worklist solver against the
//! fixpoint relaxation it replaced, kept here as the reference the way the
//! naive chase engine is kept for the semi-naïve one. Over the 124
//! expressions `same_chase.rs` pins, and its 120 random expressions again
//! over sparse leaves, each chased as a cold `rewrite` chases it, every
//! class's best cost must be bitwise equal, and the extracted
//! root expression and the root's priced candidates equal. Both read
//! shapes from the same chase's analysis and price a class as the plan its
//! chosen e-node builds: leaves from the catalog, operators through
//! `op_stats`/`op_cost` over the operands' chosen plans. The corpus must
//! make the reference break exact-cost ties, so the two tie orders are
//! compared too.
//!
//! A second test checks that price against `expr_estimate`: every
//! candidate extraction returns, over a dense and a sparse catalog, is
//! priced bit for bit as `expr_estimate` prices it.

use std::collections::HashMap;
use std::sync::Arc;

use hadad_chase::{ChaseEngine, Instance, NodeId};
use hadad_core::expr::dsl::*;
use hadad_core::{
    expr_estimate, expr_stats, op_cost, op_stats, Catalogue, ChainCells, ClassStats, Encoder,
    Expr, Extractor, LaAnalysis, MatrixMeta, MetaCatalog, OpKind, UnaryOp, Vrem,
};
use hadad_linalg::rng::Rng64;
use hadad_rewrite::Optimizer;

mod common;
use common::{corpus_catalog, random_expr};

#[derive(Debug, Clone, PartialEq)]
enum ENode {
    Mat(String),
    Const(f64),
    Identity,
    Zero,
    Op { kind: OpKind, inputs: Vec<NodeId>, out_idx: usize },
}

/// A class's chosen derivation: its price, its e-node's index, and the
/// stats of the plan it builds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Chosen {
    cost: f64,
    idx: usize,
    stats: ClassStats,
}

/// The extractor before the worklist: e-nodes, shapes and chosen
/// derivations in `HashMap`s, solved by in-place Bellman-Ford sweeps over
/// every class until nothing changes. Each sweep re-derives a class's
/// choice as the cheapest of its e-nodes at the operands' current choices,
/// so a class priced from an operand's superseded plan is re-priced.
/// Classes are swept in id order, so the reference is deterministic.
struct Relaxation<'c> {
    cat: &'c MetaCatalog,
    classes: HashMap<NodeId, Vec<ENode>>,
    shapes: HashMap<NodeId, (usize, usize)>,
    best: HashMap<NodeId, Chosen>,
    /// Comparisons of an e-node with the cheapest so far of its class,
    /// another e-node at exactly its cost, decided by the tie key.
    ties: usize,
}

impl<'c> Relaxation<'c> {
    fn new(vrem: &Vrem, inst: &Instance, analysis: &LaAnalysis, cat: &'c MetaCatalog) -> Self {
        let mut r = Relaxation {
            cat,
            classes: HashMap::new(),
            shapes: HashMap::new(),
            best: HashMap::new(),
            ties: 0,
        };
        for class in (0..inst.num_nodes() as u32).map(NodeId) {
            let Some(data) = analysis.class(class).filter(|_| inst.find(class) == class) else {
                continue;
            };
            r.shapes.insert(class, data.shape());
        }
        r.collect(vrem, inst);
        r.solve();
        r
    }

    fn push(&mut self, class: NodeId, node: ENode) {
        let nodes = self.classes.entry(class).or_default();
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }

    fn collect(&mut self, vrem: &Vrem, inst: &Instance) {
        let constant =
            |n: NodeId| inst.const_of(n).map(|s| vrem.vocab.const_name(s).to_owned());
        for f in inst.facts() {
            let canon: Vec<NodeId> = f.args.iter().map(|&a| inst.find(a)).collect();
            if f.pred == vrem.name {
                if let Some(name) = constant(canon[1]) {
                    self.push(canon[0], ENode::Mat(name));
                }
            } else if f.pred == vrem.lit {
                if let Some(v) = constant(canon[1]).and_then(|s| s.parse::<f64>().ok()) {
                    self.push(canon[0], ENode::Const(v));
                }
            } else if f.pred == vrem.identity {
                self.push(canon[0], ENode::Identity);
            } else if f.pred == vrem.zero {
                self.push(canon[0], ENode::Zero);
            } else if let Some(kind) = vrem.kind_of(f.pred) {
                let n_in = kind.num_inputs();
                for (out_idx, &out) in canon[n_in..].iter().enumerate() {
                    let inputs = canon[..n_in].to_vec();
                    self.push(out, ENode::Op { kind, inputs, out_idx });
                }
            }
        }
    }

    /// Choices converge within #classes sweeps; tie-break refinement (keys
    /// depend on child costs) may take as long again.
    fn solve(&mut self) {
        let mut class_ids: Vec<NodeId> = self.classes.keys().copied().collect();
        class_ids.sort_unstable();
        for _ in 0..2 * (class_ids.len() + 1) {
            let mut changed = false;
            for &class in &class_ids {
                let mut chosen: Option<Chosen> = None;
                for (idx, node) in self.classes[&class].iter().enumerate() {
                    let Some((cost, stats)) = self.price(node, class) else {
                        continue;
                    };
                    self.shapes.entry(class).or_insert(stats.shape());
                    let better = match chosen {
                        None => true,
                        Some(cur) if cost == cur.cost => {
                            self.ties += 1;
                            self.tie_key(node) < self.tie_key(&self.classes[&class][cur.idx])
                        }
                        Some(cur) => cost < cur.cost,
                    };
                    if better {
                        chosen = Some(Chosen { cost, idx, stats });
                    }
                }
                if let Some(chosen) = chosen {
                    if self.best.insert(class, chosen) != Some(chosen) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn tie_key<'n>(&self, node: &'n ENode) -> (u8, u32, u8, Vec<u64>, &'n str) {
        match node {
            ENode::Mat(n) => (0, 0, 0, Vec::new(), n.as_str()),
            ENode::Const(v) => (1, 0, 0, vec![v.to_bits()], ""),
            ENode::Identity => (2, 0, 0, Vec::new(), ""),
            ENode::Zero => (3, 0, 0, Vec::new(), ""),
            ENode::Op { kind, inputs, out_idx } => {
                let child_costs = inputs
                    .iter()
                    .map(|i| self.best.get(i).map_or(u64::MAX, |b| b.cost.to_bits()))
                    .collect();
                (4, *kind as u32, *out_idx as u8, child_costs, "")
            }
        }
    }

    /// `x` if the class's chosen e-node is `(-1) · x`.
    fn negated(&self, class: NodeId) -> Option<NodeId> {
        let chosen = |c: &NodeId| self.best.get(c).map(|b| &self.classes[c][b.idx]);
        match chosen(&class)? {
            ENode::Op { kind: OpKind::ScalarMul, inputs, .. }
                if chosen(&inputs[0]) == Some(&ENode::Const(-1.0)) =>
            {
                Some(inputs[1])
            }
            _ => None,
        }
    }

    /// A leaf costs nothing and has the catalog's stats (none for an
    /// uncatalogued matrix); an operator e-node costs its `op_cost` plus
    /// its operands' chosen prices. An `Add` over a chosen `(-1) · x` is
    /// priced as the subtraction it is rebuilt as: over `x`.
    fn price(&self, node: &ENode, class: NodeId) -> Option<(f64, ClassStats)> {
        let ENode::Op { kind, inputs, out_idx } = node else {
            return Some((0.0, expr_stats(&self.build(class, node)?, self.cat).ok()?));
        };
        let mut operands = inputs.clone();
        if *kind == OpKind::Add {
            if let Some(x) = self.negated(inputs[1]) {
                operands = vec![inputs[0], x];
            } else if let Some(x) = self.negated(inputs[0]) {
                operands = vec![inputs[1], x];
            }
        }
        let mut child_costs = 0.0;
        let mut child_stats = Vec::with_capacity(operands.len());
        for i in &operands {
            let chosen = self.best.get(i)?;
            child_costs += chosen.cost;
            child_stats.push(chosen.stats);
        }
        let out = op_stats(*kind, *out_idx, &child_stats);
        Some((child_costs + op_cost(*kind, *out_idx, &child_stats, &out), out))
    }

    fn extract(&self, root: NodeId) -> Option<Expr> {
        let chosen = self.best.get(&root)?;
        self.build(root, &self.classes[&root][chosen.idx])
    }

    /// Old `candidates`: every root derivation, deduplicated by rendering,
    /// with its price.
    fn candidates(&self, root: NodeId) -> Vec<(Expr, f64)> {
        let mut seen = std::collections::HashSet::new();
        self.classes[&root]
            .iter()
            .filter_map(|n| Some((self.build(root, n)?, self.price(n, root)?.0)))
            .filter(|(e, _)| seen.insert(e.to_string()))
            .collect()
    }

    /// Builds bottom-up, resugaring each `Add` from already resugared
    /// operands — what the old build-then-`resugar` pass computed.
    fn build(&self, class: NodeId, node: &ENode) -> Option<Expr> {
        Some(match node {
            ENode::Mat(n) => m(n),
            ENode::Const(v) => lit(*v),
            ENode::Identity => Expr::Identity(self.shapes.get(&class)?.0),
            ENode::Zero => {
                let &(r, c) = self.shapes.get(&class)?;
                Expr::Zero(r, c)
            }
            ENode::Op { kind, inputs, out_idx } => {
                let mut ch = Vec::new();
                for i in inputs {
                    ch.push(self.extract(*i)?);
                }
                op_expr(*kind, *out_idx, ch)
            }
        })
    }
}

fn op_expr(kind: OpKind, out_idx: usize, mut ch: Vec<Expr>) -> Expr {
    use OpKind::*;
    let b = Arc::new(ch.pop().expect("an operand"));
    let Some(a) = ch.pop().map(Arc::new) else {
        let op = UnaryOp::new(kind, out_idx).expect("a unary operator's output");
        return Expr::Unary(op, b);
    };
    let negated = |e: &Expr| match e {
        Expr::ScalarMul(s, x) if **s == lit(-1.0) => Some(x.clone()),
        _ => None,
    };
    match kind {
        Add => match (negated(&a), negated(&b)) {
            (_, Some(x)) => Expr::Sub(a, x),
            (Some(x), None) => Expr::Sub(b, x),
            (None, None) => Expr::Add(a, b),
        },
        Mul => Expr::Mul(a, b),
        Hadamard => Expr::Hadamard(a, b),
        Div => Expr::Div(a, b),
        ScalarMul => Expr::ScalarMul(a, b),
        Kron => Expr::Kron(a, b),
        DirectSum => Expr::DirectSum(a, b),
        _ => unreachable!("{kind:?} is unary"),
    }
}

/// `same_chase.rs`'s corpus: its 120 random expressions, then left-deep
/// product chains of 4, 6, 8 and 12 factors.
fn corpus() -> Vec<(MetaCatalog, Expr)> {
    let mut rng = Rng64::new(0xADAD_5EED);
    let mut out: Vec<_> = (0..120).map(|_| (corpus_catalog(), random_expr(&mut rng))).collect();
    let dims = [96, 80, 64, 48, 36, 24, 20, 16, 12, 8, 6, 4, 1];
    for len in [4, 6, 8, 12] {
        let mut cat = MetaCatalog::new();
        let mut chain: Option<Expr> = None;
        for i in 0..len {
            let name = format!("M{}", i + 1);
            cat.register(&name, MatrixMeta::dense(dims[i], dims[i + 1]));
            chain = Some(match chain {
                Some(e) => mul(e, m(&name)),
                None => m(&name),
            });
        }
        out.push((cat, chain.expect("len >= 1")));
    }
    out
}

/// `corpus_catalog`'s names and shapes, sparse: no density is a whole
/// number of parts per million.
fn sparse_catalog() -> MetaCatalog {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::sparse(12, 8, 10));
    cat.register("B", MatrixMeta::sparse(8, 12, 9));
    cat.register("C", MatrixMeta::sparse(8, 8, 7));
    cat.register("D", MatrixMeta::sparse(12, 12, 20));
    cat.register("x", MatrixMeta::sparse(8, 1, 3));
    cat.register("y", MatrixMeta::sparse(12, 1, 5));
    cat
}

/// `corpus`'s 120 random expressions over `sparse_catalog`.
fn sparse_corpus() -> impl Iterator<Item = (MetaCatalog, Expr)> {
    let mut rng = Rng64::new(0xADAD_5EED);
    (0..120).map(move |_| (sparse_catalog(), random_expr(&mut rng)))
}

/// `e` encoded over `cat` and chased as a cold `rewrite` chases it (the
/// chain tables aside), with its analysis and root.
fn chased(cat: &MetaCatalog, e: &Expr) -> (Vrem, Instance, LaAnalysis, NodeId) {
    let (standard_vrem, rules) = Catalogue::shared_standard();
    let budget = Optimizer::new(MetaCatalog::new()).budget();
    let mut vrem = standard_vrem.clone();
    let enc = Encoder::new(&mut vrem, cat).encode(e).expect("generator emits valid shapes");
    let mut inst = enc.instance;
    let mut analysis = LaAnalysis::new(&vrem, enc.classes);
    ChaseEngine::new(rules).with_budget(budget).chase_analyzed(&mut inst, &mut analysis);
    let root = inst.find(enc.root);
    (vrem, inst, analysis, root)
}

#[test]
fn worklist_extraction_equals_the_fixpoint_relaxation() {
    let samples: Vec<_> = corpus().into_iter().chain(sparse_corpus()).collect();
    assert_eq!(samples.len(), 244);
    let (mut solved, mut ties) = (0usize, 0usize);
    for (i, (cat, e)) in samples.iter().enumerate() {
        let (vrem, inst, analysis, root) = chased(cat, e);
        let ex = Extractor::new(&vrem, &inst, &analysis, cat, &ChainCells::default());
        let reference = Relaxation::new(&vrem, &inst, &analysis, cat);
        for n in 0..inst.num_nodes() {
            let class = inst.find(NodeId(n as u32));
            let want = reference.best.get(&class).map(|b| b.cost.to_bits());
            assert_eq!(
                ex.class_cost(class).map(f64::to_bits),
                want,
                "sample {i} ({e}): class {class:?} costs differ"
            );
            solved += usize::from(want.is_some() && class.0 as usize == n);
        }
        assert_eq!(ex.extract(root), reference.extract(root), "sample {i} ({e})");
        assert_eq!(ex.candidates(root), reference.candidates(root), "sample {i} ({e})");
        ties += reference.ties;
    }
    assert!(solved >= 244 * 5, "corpus too degenerate: {solved} solved classes");
    assert!(ties > 0, "no class's derivation was decided by an exact-cost tie");
}

/// Every candidate extraction prices, and every plan a cold `rewrite`
/// ranks, costs exactly what `expr_estimate` prices that expression at:
/// over the 124-expression corpus and over its 120 random expressions
/// again with sparse leaves. Identities, subtractions (the encoder's
/// `-1 ·` costs nothing) and densities that are no whole number of ppm
/// price the same way too.
#[test]
fn every_candidate_is_priced_as_its_plan() {
    let mut ridge_cat = corpus_catalog();
    ridge_cat.register("P", MatrixMeta::dense(12, 12));
    let ridge = add(m("P"), smul(lit(0.5), Expr::Identity(12)));
    let extra = [(ridge_cat.clone(), ridge), (ridge_cat, sub(m("x"), m("x")))];
    let (mut candidates, mut sparse_seen) = (0usize, 0usize);
    for (i, (cat, e)) in corpus().into_iter().chain(sparse_corpus()).chain(extra).enumerate() {
        let (vrem, inst, analysis, root) = chased(&cat, &e);
        let ex = Extractor::new(&vrem, &inst, &analysis, &cat, &ChainCells::default());
        let priced = ex.candidates(root);
        assert!(!priced.is_empty(), "sample {i} ({e})");
        candidates += priced.len();
        let opt = Optimizer::new(cat.clone()).with_plan_cache(0);
        let ranked = opt.rewrite(&e).expect("generator emits valid shapes");
        let plans = ranked.plans.iter().map(|p| (p.expr.clone(), p.est_cost));
        for (plan, price) in priced.into_iter().chain(plans) {
            let (stats, estimate) = expr_estimate(&plan, &cat).expect("a candidate prices");
            assert_eq!(price.to_bits(), estimate.to_bits(), "sample {i} ({e}): {plan}");
            sparse_seen += usize::from(stats.density < 1.0);
        }
    }
    assert!(candidates >= 398, "only {candidates} candidates priced");
    assert!(sparse_seen > 0, "no candidate was sparse");
}
