//! Provenance-Aware Chase & Backchase (PACB, paper §4.2), with the
//! `Prune_prov` cost-threshold extension of §7.3.
//!
//! Given a conjunctive query `Q` over a source schema, integrity
//! constraints `I`, and a set of views `V` (CQs with distinguished head
//! predicates), PACB finds the reformulations of `Q` over the view schema
//! that are equivalent to `Q` under `I ∪ C_V`:
//!
//! 1. chase the canonical instance of `Q` with `I ∪ C_V^IO`;
//! 2. restrict to view atoms — the *universal plan* `U`;
//! 3. annotate each `U`-atom with a provenance term `p_i`;
//! 4. *backchase*: chase `U` with `I ∪ C_V^OI`, combining provenance
//!    conjunctively across each step (skipping steps whose premise image
//!    exceeds the cost threshold, when pruning is enabled);
//! 5. match `Q` into the result; each conjunct of the DNF provenance of a
//!    match image is a subset of `U` that forms an equivalent rewriting.

use std::collections::HashMap;

use crate::analysis::{Analysis, AnalysisConflict};
use crate::atom::Atom;
use crate::chase::{
    degradation_of, ChaseBudget, ChaseEngine, ChaseOutcome, ChaseStats, Degraded, RewritePhase,
    RuleSet,
};
use crate::constraint::{Constraint, Tgd};
use crate::cq::Cq;
use crate::homomorphism::{self, Bindings, Match};
use crate::instance::{Instance, NodeId};
use crate::provenance::{Provenance, MAX_PROV_TERMS};
use crate::symbols::PredId;
use crate::term::Term;

/// A view: a named CQ whose result is materialized under `head_pred`.
#[derive(Debug, Clone)]
pub struct View {
    /// Human-readable view name (used in rule tags like `V_IO:<name>`).
    pub name: String,
    /// Predicate (over the view schema) holding the materialized output.
    pub head_pred: PredId,
    /// The defining CQ over base predicates.
    pub def: Cq,
}

impl View {
    /// A view `name` materializing `def` under `head_pred`.
    pub fn new(name: impl Into<String>, head_pred: PredId, def: Cq) -> Self {
        View { name: name.into(), head_pred, def }
    }

    /// `V_IO`: every match of the view body yields a view output tuple.
    pub fn io_constraint(&self) -> Tgd {
        Tgd::new(
            format!("V_IO:{}", self.name),
            self.def.body.clone(),
            vec![Atom::new(self.head_pred, self.def.head.clone())],
        )
    }

    /// `V_OI`: every view output tuple is due to a body match.
    pub fn oi_constraint(&self) -> Tgd {
        Tgd::new(
            format!("V_OI:{}", self.name),
            vec![Atom::new(self.head_pred, self.def.head.clone())],
            self.def.body.clone(),
        )
    }
}

/// Options for a PACB run.
#[derive(Debug, Clone, Default)]
pub struct PacbOptions {
    /// Budget applied to both chase phases.
    pub budget: ChaseBudget,
    /// When set, backchase steps whose premise image (a subquery of `U`)
    /// costs strictly more than this threshold are pruned (`Prune_prov`).
    pub prune_threshold: Option<f64>,
}

/// An equivalent rewriting of the input query over the view schema.
#[derive(Debug, Clone)]
pub struct Rewriting {
    /// The rewriting as a CQ over view predicates.
    pub query: Cq,
    /// Indices (into the universal plan) of the atoms used.
    pub u_atoms: Vec<usize>,
    /// Cost under the caller-supplied cost function, if any.
    pub cost: Option<f64>,
}

/// Cost of a candidate rewriting given the universal-plan atoms it uses.
pub type CostFn<'a> = &'a dyn Fn(&Instance, &[usize]) -> f64;

/// The PACB engine.
pub struct Pacb<'a> {
    /// Source integrity constraints `I`.
    pub constraints: &'a [Constraint],
    /// The registered views to reformulate over.
    pub views: &'a [View],
    /// Budgets and pruning knobs.
    pub options: PacbOptions,
    /// Cost of a candidate rewriting, given the universal-plan atoms it
    /// uses. Required when `prune_threshold` is set; also used to attach
    /// costs to results.
    pub cost_fn: Option<CostFn<'a>>,
}

/// `Prune_prov` (§7.3) as the backchase's analysis: it keeps no per-class
/// data (its `make`, `join` and `guard` are those of
/// [`crate::NoAnalysis`]) and vetoes a firing whose premise image already
/// costs more than `threshold` — the cost of the original query, fixed for
/// the run, so a veto never needs revisiting. Vetoes are counted by the
/// engine (`ChaseStats::pruned_firings()`), which PACB surfaces as
/// `backchase_stats`.
struct PruneProv<'b> {
    cost_fn: CostFn<'b>,
    threshold: f64,
}

impl PruneProv<'_> {
    /// Prices a firing by the provenance of its premise image (Example
    /// 7.2): the cheapest conjunct of the combined premise provenance, since
    /// any rewriting the step contributes to must read at least that much.
    /// `0.0` — never vetoed — when nothing in the universal plan justifies
    /// the premise.
    fn firing_cost(&self, inst: &Instance, m: &Match) -> f64 {
        let provs: Vec<&Provenance> =
            m.fact_indices.iter().map(|&fi| &inst.fact(fi).prov).collect();
        let combined = Provenance::and_all(&provs);
        if combined.is_empty() {
            return 0.0;
        }
        combined
            .conjuncts()
            .iter()
            .map(|&c| (self.cost_fn)(inst, &Provenance::conjunct_terms(c)))
            .fold(f64::INFINITY, f64::min)
    }
}

impl Analysis for PruneProv<'_> {
    fn make(&mut self, _: &Instance, _: usize, _: &Atom, _: &[NodeId]) {}

    fn join(&mut self, _: &Instance, _: NodeId, _: NodeId) -> Result<(), AnalysisConflict> {
        Ok(())
    }

    fn guard(&self, _: &Instance, _: &Atom, _: &Bindings) -> bool {
        false
    }

    fn allow(&mut self, inst: &Instance, _: usize, _: &Tgd, m: &Match) -> bool {
        self.firing_cost(inst, m) <= self.threshold
    }
}

/// Result of a PACB run.
#[derive(Debug, Clone)]
pub struct PacbResult {
    /// Every equivalent rewriting found, over view predicates.
    pub rewritings: Vec<Rewriting>,
    /// How the forward chase ended.
    pub chase_outcome: ChaseOutcome,
    /// How the backchase ended.
    pub backchase_outcome: ChaseOutcome,
    /// Number of universal-plan atoms.
    pub universal_plan_size: usize,
    /// Statistics of the forward chase (phase i).
    pub chase_stats: ChaseStats,
    /// Statistics of the backchase (phase iv); `pruned_firings()` counts
    /// the steps vetoed by `Prune_prov`.
    pub backchase_stats: ChaseStats,
    /// Set when either chase phase ran out of budget/deadline: the
    /// rewritings found are a sound subset of the full search's (anytime
    /// semantics — the caller still gets every reformulation discovered
    /// before the cut).
    pub degraded: Option<Degraded>,
}

impl<'a> Pacb<'a> {
    /// A PACB engine over `constraints` and `views` with default options.
    pub fn new(constraints: &'a [Constraint], views: &'a [View]) -> Self {
        Pacb { constraints, views, options: PacbOptions::default(), cost_fn: None }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: PacbOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches the cost function pruning and ranking read.
    pub fn with_cost_fn(mut self, f: CostFn<'a>) -> Self {
        self.cost_fn = Some(f);
        self
    }

    /// Finds every reformulation of `q` over the view predicates that is
    /// equivalent under the constraints (paper Example 4.1 end-to-end).
    pub fn rewrite(&self, q: &Cq) -> PacbResult {
        // Phase (i): canonical instance of Q, chased with I ∪ C_IO.
        let mut inst = Instance::new();
        let mut var_node = Bindings::default();
        let mut node_of = |inst: &mut Instance, t: &Term| match t {
            Term::Var(v) => var_node.get_or_insert_with(*v, || inst.fresh_null()),
            Term::Const(c) => inst.const_node(*c),
        };
        for atom in &q.body {
            let args: Vec<NodeId> = atom.args.iter().map(|t| node_of(&mut inst, t)).collect();
            inst.insert(atom.pred, args, Provenance::empty(), None);
        }
        let head_nodes: Vec<NodeId> = q.head.iter().map(|t| node_of(&mut inst, t)).collect();

        let mut io_constraints: Vec<Constraint> = self.constraints.to_vec();
        for v in self.views {
            io_constraints.push(v.io_constraint().into());
        }
        let io_rules = RuleSet::compile(io_constraints);
        let engine = ChaseEngine::new(&io_rules).with_budget(self.options.budget);
        let (chase_outcome, chase_stats) = {
            let _span = hadad_obs::span("pacb.chase");
            engine.chase(&mut inst)
        };

        // Phase (ii)+(iii): universal plan = view atoms, each with a fresh
        // provenance term, rebuilt in a fresh instance.
        let view_preds: Vec<PredId> = self.views.iter().map(|v| v.head_pred).collect();
        let mut u = Instance::new();
        let mut node_map: HashMap<NodeId, NodeId> = HashMap::new();
        let mut u_atoms: Vec<(PredId, Vec<NodeId>)> = Vec::new();
        for &vp in &view_preds {
            for &fi in inst.facts_with_pred(vp) {
                if u_atoms.len() >= MAX_PROV_TERMS {
                    break;
                }
                let fact = inst.fact(fi);
                let args: Vec<NodeId> = fact
                    .args
                    .iter()
                    .map(|&n| {
                        let root = inst.find(n);
                        *node_map.entry(root).or_insert_with(|| match inst.const_of(root) {
                            Some(c) => u.const_node(c),
                            None => u.fresh_null(),
                        })
                    })
                    .collect();
                let term = Provenance::term(u_atoms.len());
                u.insert(vp, args.clone(), term, None);
                u_atoms.push((vp, args));
            }
        }
        let universal_plan_size = u_atoms.len();
        let head_in_u: Vec<Option<NodeId>> =
            head_nodes.iter().map(|n| node_map.get(&inst.find(*n)).copied()).collect();

        // Phase (iv): backchase U with I ∪ C_OI (provenance-propagating).
        let mut oi_constraints: Vec<Constraint> = self.constraints.to_vec();
        for v in self.views {
            oi_constraints.push(v.oi_constraint().into());
        }
        let oi_rules = RuleSet::compile(oi_constraints);
        let back_engine = ChaseEngine::new(&oi_rules).with_budget(self.options.budget);
        let (backchase_outcome, backchase_stats) = {
            let _span = hadad_obs::span("pacb.backchase");
            match (self.options.prune_threshold, self.cost_fn) {
                (Some(threshold), Some(cost_fn)) => {
                    back_engine.chase_analyzed(&mut u, &mut PruneProv { cost_fn, threshold })
                }
                _ => back_engine.chase(&mut u),
            }
        };

        // Phase (v): match Q into the backchase result; read rewritings off
        // the provenance formulas of the match images.
        let mut rewriting_masks: Provenance = Provenance::empty();
        homomorphism::for_each_match(&u, &q.body, &mut |m| {
            // Head compatibility: h(head of Q) must equal the universal
            // plan's head nodes. Constant head positions pin to the
            // constant's node in `u`.
            let compatible = q.head.iter().zip(&head_in_u).all(|(t, hu)| match hu {
                Some(hu) => {
                    let image = match t {
                        Term::Var(v) => m.bindings.get(*v).map(|n| u.find(n)),
                        Term::Const(c) => u.node_of_const(*c).map(|n| u.find(n)),
                    };
                    image == Some(u.find(*hu))
                }
                None => false,
            });
            if compatible {
                let provs: Vec<&Provenance> =
                    m.fact_indices.iter().map(|&fi| &u.fact(fi).prov).collect();
                rewriting_masks.or_with(&Provenance::and_all(&provs));
            }
            true
        });

        let mut rewritings = Vec::new();
        for &c in rewriting_masks.conjuncts() {
            let atom_idxs = Provenance::conjunct_terms(c);
            // A head node that is neither a constant nor covered by the
            // chosen atoms would make the rewriting unsafe; such candidates
            // are rejected (previously they were emitted with a sentinel
            // variable, silently malformed).
            let Some(rw) = self.build_rewriting(&u, &u_atoms, &atom_idxs, &head_in_u) else {
                continue;
            };
            let cost = self.cost_fn.map(|f| f(&u, &atom_idxs));
            if let (Some(cost_v), Some(t)) = (cost, self.options.prune_threshold) {
                if cost_v > t {
                    continue;
                }
            }
            rewritings.push(Rewriting { query: rw, u_atoms: atom_idxs, cost });
        }
        rewritings.sort_by(|a, b| {
            a.cost
                .unwrap_or(f64::INFINITY)
                .partial_cmp(&b.cost.unwrap_or(f64::INFINITY))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let degraded = degradation_of(&chase_stats, RewritePhase::Chase)
            .or_else(|| degradation_of(&backchase_stats, RewritePhase::Backchase));
        static RUNS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("pacb.runs");
        static REWRITINGS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("pacb.rewritings");
        RUNS.incr();
        REWRITINGS.add(rewritings.len() as u64);
        PacbResult {
            rewritings,
            chase_outcome,
            backchase_outcome,
            universal_plan_size,
            chase_stats,
            backchase_stats,
            degraded,
        }
    }

    /// Converts a subset of universal-plan atoms back into a CQ over view
    /// predicates: nodes become variables (constants stay constants).
    /// Returns `None` when some head node is neither a constant nor bound
    /// by the chosen atoms (the rewriting would be unsafe).
    fn build_rewriting(
        &self,
        u: &Instance,
        u_atoms: &[(PredId, Vec<NodeId>)],
        atom_idxs: &[usize],
        head_in_u: &[Option<NodeId>],
    ) -> Option<Cq> {
        let mut var_of: HashMap<NodeId, u32> = HashMap::new();
        let mut next = 0u32;
        let mut body = Vec::with_capacity(atom_idxs.len());
        for &i in atom_idxs {
            let (pred, args) = &u_atoms[i];
            let terms: Vec<Term> = args
                .iter()
                .map(|&n| {
                    let root = u.find(n);
                    match u.const_of(root) {
                        Some(c) => Term::Const(c),
                        None => {
                            let v = *var_of.entry(root).or_insert_with(|| {
                                let v = next;
                                next += 1;
                                v
                            });
                            Term::Var(v)
                        }
                    }
                })
                .collect();
            body.push(Atom::new(*pred, terms));
        }
        let mut head = Vec::with_capacity(head_in_u.len());
        for h in head_in_u {
            let root = u.find((*h)?);
            match u.const_of(root) {
                Some(c) => head.push(Term::Const(c)),
                None => head.push(Term::Var(*var_of.get(&root)?)),
            }
        }
        Some(Cq { head, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocabulary;

    /// Paper Example 4.1: σ = {R, S}, V(x,y) :- R(x,z), S(z,y);
    /// Q(x,y) :- R(x,z), S(z,y) rewrites to ρ(x,y) :- V(x,y).
    #[test]
    fn example_4_1_join_view() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let s = vocab.predicate("S", 2);
        let v = vocab.predicate("V", 2);

        let view = View::new(
            "V",
            v,
            Cq::with_var_head(
                vec![0, 2],
                vec![
                    Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
                    Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
                ],
            ),
        );
        let q = Cq::with_var_head(
            vec![0, 2],
            vec![
                Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
            ],
        );
        let views = [view];
        let pacb = Pacb::new(&[], &views);
        let result = pacb.rewrite(&q);
        assert_eq!(result.chase_outcome, ChaseOutcome::Saturated);
        assert_eq!(result.universal_plan_size, 1);
        assert_eq!(result.rewritings.len(), 1);
        let rw = &result.rewritings[0];
        assert_eq!(rw.query.body.len(), 1);
        assert_eq!(rw.query.body[0].pred, v);
        assert_eq!(rw.query.head.len(), 2);
        // ρ(x, y) :- V(x, y): head variables are the view atom's args.
        assert_eq!(rw.query.head, rw.query.body[0].args);
    }

    /// A query that the views cannot answer gets no rewriting.
    #[test]
    fn unanswerable_query_has_no_rewriting() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let t = vocab.predicate("T", 2);
        let v = vocab.predicate("V", 2);
        // View over R only; query needs T.
        let view = View::new(
            "V",
            v,
            Cq::with_var_head(vec![0, 1], vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])]),
        );
        let q =
            Cq::with_var_head(vec![0, 1], vec![Atom::new(t, vec![Term::Var(0), Term::Var(1)])]);
        let views = [view];
        let pacb = Pacb::new(&[], &views);
        let result = pacb.rewrite(&q);
        assert!(result.rewritings.is_empty());
    }

    /// Two copies of the same view atom must not appear in a minimal
    /// rewriting (minimality via provenance-DNF absorption).
    #[test]
    fn rewritings_are_minimal() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let v = vocab.predicate("V", 2);
        let view = View::new(
            "V",
            v,
            Cq::with_var_head(vec![0, 1], vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])]),
        );
        // Q(x,y) :- R(x,y), R(x,y) — redundant atom.
        let q = Cq::with_var_head(
            vec![0, 1],
            vec![
                Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
            ],
        );
        let views = [view];
        let pacb = Pacb::new(&[], &views);
        let result = pacb.rewrite(&q);
        assert_eq!(result.rewritings.len(), 1);
        assert_eq!(result.rewritings[0].query.body.len(), 1);
    }

    /// Regression: a constant in the query head must survive into the
    /// rewriting as a constant (previously it became the `u32::MAX`
    /// sentinel variable, silently malformed).
    #[test]
    fn constant_head_round_trips() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let v = vocab.predicate("V", 2);
        let seven = vocab.constant("7");

        // V(x, y) :- R(x, y); Q(x, 7) :- R(x, 7).
        let view = View::new(
            "V",
            v,
            Cq::with_var_head(vec![0, 1], vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])]),
        );
        let q = Cq::new(
            vec![Term::Var(0), Term::Const(seven)],
            vec![Atom::new(r, vec![Term::Var(0), Term::Const(seven)])],
        );
        let views = [view];
        let pacb = Pacb::new(&[], &views);
        let result = pacb.rewrite(&q);
        assert_eq!(result.rewritings.len(), 1);
        let rw = &result.rewritings[0];
        assert_eq!(rw.query.body.len(), 1);
        assert_eq!(rw.query.body[0].pred, v);
        // Head: the variable of the view atom's first arg, then the constant.
        assert_eq!(rw.query.head.len(), 2);
        assert_eq!(rw.query.head[0], rw.query.body[0].args[0]);
        assert!(rw.query.head[0].is_var());
        assert_eq!(rw.query.head[1], Term::Const(seven));
        assert_eq!(rw.query.body[0].args[1], Term::Const(seven));
        assert!(rw.query.is_safe());
    }

    /// `Prune_prov`: with a cost function and a threshold, backchase steps
    /// justified only by expensive universal-plan atoms are vetoed (and
    /// counted), while the cheap rewriting survives.
    #[test]
    fn prune_prov_vetoes_expensive_steps() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let ve = vocab.predicate("Ve", 2);
        let vc = vocab.predicate("Vc", 2);

        let def =
            Cq::with_var_head(vec![0, 1], vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])]);
        // Two copies of the same view; the expensive one is listed first so
        // its backchase step is offered (and vetoed) before the cheap one
        // satisfies the conclusion.
        let views = [View::new("Ve", ve, def.clone()), View::new("Vc", vc, def)];
        let q =
            Cq::with_var_head(vec![0, 1], vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])]);

        // Universal-plan atom 0 is Ve (cost 100), atom 1 is Vc (cost 1).
        let cost_fn = |inst: &Instance, atoms: &[usize]| -> f64 {
            atoms.iter().map(|&i| if inst.fact(i).pred == ve { 100.0 } else { 1.0 }).sum()
        };
        let pacb = Pacb::new(&[], &views)
            .with_options(PacbOptions { prune_threshold: Some(50.0), ..Default::default() })
            .with_cost_fn(&cost_fn);
        let result = pacb.rewrite(&q);

        assert_eq!(result.universal_plan_size, 2);
        // The Ve-justified backchase step was pruned...
        assert_eq!(result.backchase_stats.pruned_firings(), 1);
        // ...and only the cheap rewriting survives, with its cost attached.
        assert_eq!(result.rewritings.len(), 1);
        let rw = &result.rewritings[0];
        assert_eq!(rw.query.body[0].pred, vc);
        assert_eq!(rw.cost, Some(1.0));
        assert_eq!(rw.u_atoms, vec![1]);
    }
}
