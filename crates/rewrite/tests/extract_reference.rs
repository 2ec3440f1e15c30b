//! Differential test of the extractor's worklist solver against the
//! fixpoint relaxation it replaced, kept here as the reference the way the
//! naive chase engine is kept for the semi-naïve one. Over the 124
//! expressions `same_chase.rs` pins, each chased as a cold `rewrite` chases
//! it, every class's best cost must be bitwise equal, and the extracted
//! root expression and the root's candidates equal. Both read shapes and
//! densities from the same chase's analysis and price operators through
//! `op_cost`; the corpus must make the reference break exact-cost ties, so
//! the two tie orders are compared too.

use std::collections::HashMap;

use hadad_chase::{ChaseEngine, Instance, NodeId};
use hadad_core::expr::dsl::*;
use hadad_core::{
    expr_estimate, op_cost, op_stats, Catalogue, ChainCells, ClassStats, Encoder, Expr,
    Extractor, LaAnalysis, MatrixMeta, MetaCatalog, OpKind, UnaryOp, Vrem,
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

/// The extractor before the worklist: e-nodes, shapes, densities and best
/// derivations in `HashMap`s, solved by in-place Bellman-Ford sweeps over
/// every class until nothing changes. Classes are swept in id order, so
/// the reference is deterministic.
struct Relaxation {
    classes: HashMap<NodeId, Vec<ENode>>,
    shapes: HashMap<NodeId, (usize, usize)>,
    densities: HashMap<NodeId, f64>,
    best: HashMap<NodeId, (f64, usize)>,
    /// Comparisons of an e-node with its class's incumbent, another e-node
    /// at exactly its cost, decided by the tie key.
    ties: usize,
}

impl Relaxation {
    fn new(vrem: &Vrem, inst: &Instance, analysis: &LaAnalysis) -> Self {
        let mut r = Relaxation {
            classes: HashMap::new(),
            shapes: HashMap::new(),
            densities: HashMap::new(),
            best: HashMap::new(),
            ties: 0,
        };
        for class in (0..inst.num_nodes() as u32).map(NodeId) {
            let Some(data) = analysis.class(class).filter(|_| inst.find(class) == class) else {
                continue;
            };
            r.shapes.insert(class, data.shape());
            if let Some(d) = data.density {
                r.densities.insert(class, d);
            }
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

    /// Costs converge within #classes sweeps; tie-break refinement (keys
    /// depend on child costs) may take as long again.
    fn solve(&mut self) {
        let mut class_ids: Vec<NodeId> = self.classes.keys().copied().collect();
        class_ids.sort_unstable();
        for _ in 0..2 * (class_ids.len() + 1) {
            let mut changed = false;
            for &class in &class_ids {
                for idx in 0..self.classes[&class].len() {
                    let node = &self.classes[&class][idx];
                    let Some((c, shape)) = self.candidate(node, class) else {
                        continue;
                    };
                    self.shapes.entry(class).or_insert(shape);
                    let improves = match self.best.get(&class) {
                        None => true,
                        Some(&(cur, ci)) if c == cur && ci != idx => {
                            self.ties += 1;
                            self.tie_key(node) < self.tie_key(&self.classes[&class][ci])
                        }
                        Some(&(cur, _)) => c < cur,
                    };
                    if improves {
                        self.best.insert(class, (c, idx));
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
                    .map(|i| self.best.get(i).map_or(u64::MAX, |&(c, _)| c.to_bits()))
                    .collect();
                (4, *kind as u32, *out_idx as u8, child_costs, "")
            }
        }
    }

    /// A leaf costs nothing; an operator e-node costs its `op_cost` plus
    /// its operands' best costs.
    fn candidate(&self, node: &ENode, class: NodeId) -> Option<(f64, (usize, usize))> {
        let stats_of = |n: NodeId, shape: (usize, usize)| ClassStats {
            rows: shape.0,
            cols: shape.1,
            density: self.densities.get(&n).copied().unwrap_or(1.0),
        };
        match node {
            ENode::Mat(_) | ENode::Identity | ENode::Zero => {
                self.shapes.get(&class).map(|&s| (0.0, s))
            }
            ENode::Const(_) => Some((0.0, (1, 1))),
            ENode::Op { kind, inputs, out_idx } => {
                let mut child_costs = 0.0;
                let mut child_stats = Vec::with_capacity(inputs.len());
                for &i in inputs {
                    let (&(c, _), &s) = (self.best.get(&i)?, self.shapes.get(&i)?);
                    child_costs += c;
                    child_stats.push(stats_of(i, s));
                }
                let propagated = op_stats(*kind, *out_idx, &child_stats);
                let shape = self.shapes.get(&class).copied().unwrap_or(propagated.shape());
                let out = ClassStats {
                    rows: shape.0,
                    cols: shape.1,
                    density: self.densities.get(&class).copied().unwrap_or(propagated.density),
                };
                let op = op_cost(*kind, *out_idx, &child_stats, &out);
                Some((op.max(1e-9) + child_costs, shape))
            }
        }
    }

    fn extract(&self, root: NodeId) -> Option<Expr> {
        let &(_, idx) = self.best.get(&root)?;
        self.build(root, &self.classes[&root][idx])
    }

    /// Old `candidates`: every root derivation, deduplicated by rendering.
    fn candidates(&self, root: NodeId) -> Vec<Expr> {
        let mut seen = std::collections::HashSet::new();
        self.classes[&root]
            .iter()
            .filter_map(|n| self.build(root, n))
            .filter(|e| seen.insert(e.to_string()))
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
    let b = Box::new(ch.pop().expect("an operand"));
    let Some(a) = ch.pop().map(Box::new) else {
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

#[test]
fn worklist_extraction_equals_the_fixpoint_relaxation() {
    let (standard_vrem, rules) = Catalogue::shared_standard();
    let budget = Optimizer::new(MetaCatalog::new()).budget();
    let samples = corpus();
    assert_eq!(samples.len(), 124);
    let (mut solved, mut ties) = (0usize, 0usize);
    for (i, (cat, e)) in samples.iter().enumerate() {
        let mut vrem = standard_vrem.clone();
        let enc = Encoder::new(&mut vrem, cat).encode(e).expect("generator emits valid shapes");
        let mut inst = enc.instance;
        let mut analysis = LaAnalysis::new(&vrem, enc.classes);
        ChaseEngine::new(rules).with_budget(budget).chase_analyzed(&mut inst, &mut analysis);
        let root = inst.find(enc.root);
        let ex = Extractor::new(&vrem, &inst, &analysis, &ChainCells::default());
        let reference = Relaxation::new(&vrem, &inst, &analysis);
        for n in 0..inst.num_nodes() {
            let class = inst.find(NodeId(n as u32));
            let want = reference.best.get(&class).map(|&(c, _)| c.to_bits());
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
    assert!(solved >= 124 * 5, "corpus too degenerate: {solved} solved classes");
    assert!(ties > 0, "no class's derivation was decided by an exact-cost tie");
}

/// `e` chased as in `worklist_extraction_equals_the_fixpoint_relaxation`:
/// the extraction DP's price of the root, its best plan, and
/// `expr_estimate`'s price of that plan.
fn dp_and_plan_price(cat: &MetaCatalog, e: &Expr) -> (f64, Expr, f64) {
    let (standard_vrem, rules) = Catalogue::shared_standard();
    let budget = Optimizer::new(MetaCatalog::new()).budget();
    let mut vrem = standard_vrem.clone();
    let enc = Encoder::new(&mut vrem, cat).encode(e).expect("valid shapes");
    let mut inst = enc.instance;
    let mut analysis = LaAnalysis::new(&vrem, enc.classes);
    ChaseEngine::new(rules).with_budget(budget).chase_analyzed(&mut inst, &mut analysis);
    let ex = Extractor::new(&vrem, &inst, &analysis, &ChainCells::default());
    let plan = ex.extract(enc.root).expect("root extractable");
    let estimate = expr_estimate(&plan, cat).expect("plan prices").1;
    (ex.class_cost(enc.root).expect("root solvable"), plan, estimate)
}

/// Whether `e` has a node `pred` holds for.
fn has(e: &Expr, pred: &dyn Fn(&Expr) -> bool) -> bool {
    pred(e) || e.children().into_iter().any(|c| has(c, pred))
}

/// The extraction DP and `expr_estimate` share `op_cost`, but the DP reads
/// each class's density from the analysis and `expr_estimate` from the
/// expression tree. Where every density is exact (dense operands, no
/// identity, zero or subtraction) the DP's price of the root is the best
/// plan's price, bit for bit. Elsewhere they part: the analysis keeps
/// densities ppm-quantized (and the lower one of merged classes), and the
/// DP charges the encoder's `-1 ·` of a subtraction, which `expr_estimate`
/// prices as the `Add` it desugars to. That is why ranking re-prices every
/// candidate with `expr_estimate` (`rank_candidates`) and does not reuse
/// the DP's price.
#[test]
fn the_dp_price_is_the_plan_price_where_densities_are_exact() {
    let exact = |e: &Expr| {
        !has(e, &|n| matches!(n, Expr::Identity(_) | Expr::Zero(..) | Expr::Sub(..)))
    };
    let mut checked = 0usize;
    for (i, (cat, e)) in corpus().iter().enumerate() {
        if !exact(e) {
            continue;
        }
        let (dp, plan, estimate) = dp_and_plan_price(cat, e);
        assert!(exact(&plan), "sample {i} ({e}): plan {plan}");
        assert_eq!(dp.to_bits(), estimate.to_bits(), "sample {i} ({e}): {dp} vs {estimate}");
        checked += 1;
    }
    assert!(checked >= 90, "only {checked} samples checked");

    let mut cat = corpus_catalog();
    cat.register("P", MatrixMeta::dense(12, 12));
    // 1/12 is not a whole number of ppm: the analysis' density of `0.5 I`
    // is not the tree's.
    let ridge = add(m("P"), smul(lit(0.5), Expr::Identity(12)));
    let (dp, plan, estimate) = dp_and_plan_price(&cat, &ridge);
    assert!(has(&plan, &|n| matches!(n, Expr::Identity(_))), "{plan}");
    assert_ne!(dp.to_bits(), estimate.to_bits(), "{plan}: {dp}");
    // The DP charges `-1 · x`; `expr_estimate` prices `x - x` as `x + x`.
    let (dp, plan, estimate) = dp_and_plan_price(&cat, &sub(m("x"), m("x")));
    assert_eq!(plan, sub(m("x"), m("x")));
    assert_ne!(dp.to_bits(), estimate.to_bits(), "{plan}: {dp}");
}
