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
//!
//! `I` and `V` are registered once and each query pays only for its own
//! reasoning: [`Pacb::new`] compiles both rule sets, `I ∪ C_V^IO` and
//! `I ∪ C_V^OI`, and every [`Pacb::rewrite`] runs steps 1–5 over them.
//! `Prune_prov`'s cost function and threshold are per call, because they
//! depend on the query.
//!
//! The formulas are PACB's alone: the chase engine's facts carry none.
//! The backchase keeps them in its own [`Analysis`], one per fact of the
//! universal plan's instance. Its `allow` computes a firing's premise
//! conjunction once — for the `Prune_prov` veto and for the `make` calls
//! that follow, each of which ORs it into the fact the firing inserted or
//! found — and its `rehashed` ORs a fact an EGD merge made a duplicate
//! into the one it became. The forward chase (phase i) computes no
//! formula.

use std::collections::HashMap;

use crate::analysis::{Analysis, AnalysisConflict};
use crate::atom::Atom;
use crate::chase::{
    degradation_of, ChaseEngine, ChaseOutcome, ChaseStats, DegradeReason, Degraded,
    ExhaustedBy, RewritePhase, RuleSet,
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

/// An equivalent rewriting of the input query over the view schema.
#[derive(Debug, Clone)]
pub struct Rewriting {
    /// The rewriting as a CQ over view predicates.
    pub query: Cq,
    /// Indices (into the universal plan) of the atoms used.
    pub u_atoms: Vec<usize>,
    /// Cost under the pruning cost function, if the run pruned.
    pub cost: Option<f64>,
}

/// Cost of a candidate rewriting given the universal-plan atoms it uses.
pub type CostFn<'a> = &'a dyn Fn(&Instance, &[usize]) -> f64;

/// The PACB engine over one set of integrity constraints `I` and views
/// `V`, with both of its rule sets compiled: build it once per schema and
/// run [`Pacb::rewrite`] per query.
pub struct Pacb {
    /// `I ∪ C_V^IO`: the forward chase's rules (phase i).
    io_rules: RuleSet,
    /// `I ∪ C_V^OI`: the backchase's rules (phase iv).
    oi_rules: RuleSet,
    /// The views' head predicates, in view order: the universal plan is
    /// their facts (phase ii).
    view_preds: Vec<PredId>,
}

/// The backchase's analysis: the provenance formula of every fact, by
/// fact index, seeded with `p_i` for the universal-plan atoms. It keeps
/// no per-class data (its `join` and `guard` are those of
/// [`crate::NoAnalysis`]). With `prune` set it is also `Prune_prov`
/// (§7.3): it vetoes a firing whose premise image already costs more than
/// the threshold — the cost of the original query, fixed for the run, so
/// a veto never needs revisiting. Vetoes are counted by the engine
/// (`ChaseStats::pruned_firings()`), which PACB surfaces as
/// `backchase_stats`.
struct Formulas<'b> {
    /// Formula of fact `i` of the backchased instance.
    of_fact: Vec<Provenance>,
    /// The premise conjunction of the firing `allow` last let through,
    /// which that firing's `make` calls OR into their facts.
    premise: Provenance,
    prune: Option<(CostFn<'b>, f64)>,
}

/// Prices a premise conjunction (Example 7.2): its cheapest conjunct, since
/// any rewriting the step contributes to must read at least that much.
/// `0.0` — never vetoed — when nothing in the universal plan justifies the
/// premise.
fn firing_cost(cost_fn: CostFn<'_>, inst: &Instance, premise: &Provenance) -> f64 {
    if premise.is_empty() {
        return 0.0;
    }
    premise
        .conjuncts()
        .iter()
        .map(|&c| cost_fn(inst, &Provenance::conjunct_terms(c)))
        .fold(f64::INFINITY, f64::min)
}

impl Formulas<'_> {
    /// Conjunction of the formulas of a match image's facts.
    fn of_image(&self, m: &Match) -> Provenance {
        Provenance::and_all(m.fact_indices.iter().map(|&fi| &self.of_fact[fi]))
    }
}

impl Analysis for Formulas<'_> {
    fn make(&mut self, _: &Instance, _: usize, _: &Atom, fact: usize) {
        if fact == self.of_fact.len() {
            self.of_fact.push(self.premise.clone());
        } else {
            self.of_fact[fact].or_with(&self.premise);
        }
    }

    fn join(&mut self, _: &Instance, _: NodeId, _: NodeId) -> Result<(), AnalysisConflict> {
        Ok(())
    }

    fn guard(&self, _: &Instance, _: &Atom, _: &Bindings) -> bool {
        false
    }

    /// Either derivation justifies a coalesced fact: its formula is the
    /// disjunction of its duplicates', the earliest's first.
    fn rehashed(&mut self, _: &Instance, moved_to: &[usize]) {
        let old = std::mem::take(&mut self.of_fact);
        for (formula, &to) in old.into_iter().zip(moved_to) {
            if to == self.of_fact.len() {
                self.of_fact.push(formula);
            } else {
                self.of_fact[to].or_with(&formula);
            }
        }
    }

    fn allow(&mut self, inst: &Instance, _: usize, _: &Tgd, m: &Match) -> bool {
        self.premise = self.of_image(m);
        self.prune.is_none_or(|(cost_fn, threshold)| {
            firing_cost(cost_fn, inst, &self.premise) <= threshold
        })
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
    /// Set when either chase phase ran out of budget, or when the
    /// universal plan was cut at 128 atoms, one per provenance term (a fact
    /// budget of the chase phase): the rewritings found are a sound subset
    /// of the full search's (anytime semantics — the caller still gets
    /// every reformulation discovered before the cut).
    pub degraded: Option<Degraded>,
}

impl Pacb {
    /// A PACB engine over `constraints` and `views`: compiles `I ∪ C_V^IO`
    /// and `I ∪ C_V^OI` (each view's [`View::io_constraint`] and
    /// [`View::oi_constraint`] after the constraints, in view order). Both
    /// chase phases run under the default [`crate::ChaseBudget`].
    pub fn new(constraints: &[Constraint], views: &[View]) -> Self {
        let with = |pair: fn(&View) -> Tgd| {
            let rules = constraints.iter().cloned().chain(views.iter().map(|v| pair(v).into()));
            RuleSet::compile(rules.collect())
        };
        Pacb {
            io_rules: with(View::io_constraint),
            oi_rules: with(View::oi_constraint),
            view_preds: views.iter().map(|v| v.head_pred).collect(),
        }
    }

    /// Finds every reformulation of `q` over the view predicates that is
    /// equivalent under the constraints (paper Example 4.1 end-to-end).
    ///
    /// `prune` is `Prune_prov` (§7.3): the cost of a candidate rewriting
    /// given the universal-plan atoms it uses, and a threshold. Backchase
    /// steps whose premise image (a subquery of `U`) costs strictly more
    /// than the threshold are pruned, and so are rewritings that do; the
    /// others carry their cost. `None` prunes nothing and costs nothing.
    pub fn rewrite(&self, q: &Cq, prune: Option<(CostFn<'_>, f64)>) -> PacbResult {
        // Phase (i): canonical instance of Q, chased with I ∪ C_IO.
        let mut inst = Instance::new();
        let mut var_node = Bindings::default();
        let mut node_of = |inst: &mut Instance, t: &Term| match t {
            Term::Var(v) => var_node.get_or_insert_with(*v, || inst.fresh_null()),
            Term::Const(c) => inst.const_node(*c),
        };
        for atom in &q.body {
            let args: Vec<NodeId> = atom.args.iter().map(|t| node_of(&mut inst, t)).collect();
            inst.insert(atom.pred, args);
        }
        let head_nodes: Vec<NodeId> = q.head.iter().map(|t| node_of(&mut inst, t)).collect();

        let engine = ChaseEngine::new(&self.io_rules);
        let (chase_outcome, chase_stats) = {
            let _span = hadad_obs::span("pacb.chase");
            engine.chase(&mut inst)
        };

        // Phase (ii)+(iii): universal plan = view atoms, each with a fresh
        // provenance term, rebuilt in a fresh instance. A plan with more
        // atoms than there are terms is cut, and the run reports it.
        let mut u = Instance::new();
        let mut formulas =
            Formulas { of_fact: Vec::new(), premise: Provenance::empty(), prune };
        let mut node_map: HashMap<NodeId, NodeId> = HashMap::new();
        let mut u_atoms: Vec<(PredId, Vec<NodeId>)> = Vec::new();
        let mut truncated = false;
        for &vp in &self.view_preds {
            for &fi in inst.facts_with_pred(vp) {
                if u_atoms.len() >= MAX_PROV_TERMS {
                    truncated = true;
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
                match u.insert(vp, args.clone()) {
                    (_, true) => formulas.of_fact.push(term),
                    (i, false) => formulas.of_fact[i].or_with(&term),
                }
                u_atoms.push((vp, args));
            }
        }
        let universal_plan_size = u_atoms.len();
        let head_in_u: Vec<Option<NodeId>> =
            head_nodes.iter().map(|n| node_map.get(&inst.find(*n)).copied()).collect();

        // Phase (iv): backchase U with I ∪ C_OI (provenance-propagating).
        let back_engine = ChaseEngine::new(&self.oi_rules);
        let (backchase_outcome, backchase_stats) = {
            let _span = hadad_obs::span("pacb.backchase");
            back_engine.chase_analyzed(&mut u, &mut formulas)
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
                rewriting_masks.or_with(&formulas.of_image(m));
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
            let cost = match prune {
                Some((cost_fn, threshold)) => match cost_fn(&u, &atom_idxs) {
                    c if c > threshold => continue,
                    c => Some(c),
                },
                None => None,
            };
            rewritings.push(Rewriting { query: rw, u_atoms: atom_idxs, cost });
        }
        rewritings.sort_by(|a, b| {
            a.cost
                .unwrap_or(f64::INFINITY)
                .partial_cmp(&b.cost.unwrap_or(f64::INFINITY))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let cut = truncated.then_some(Degraded {
            reason: DegradeReason::Budget(ExhaustedBy::Facts),
            phase: RewritePhase::Chase,
        });
        let degraded = degradation_of(&chase_stats, RewritePhase::Chase)
            .or(cut)
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
        let result = pacb.rewrite(&q, None);
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
        let result = pacb.rewrite(&q, None);
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
        let result = pacb.rewrite(&q, None);
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
        let result = pacb.rewrite(&q, None);
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

    /// Coalescing: the guarded key EGD `R(x,y) ∧ R(x,z) ∧ K(x) → y = z`
    /// merges the backchase's two `R` facts, whose formulas are `p0` (from
    /// `P2`) and `p1` (from `P1`). The merged fact's formula must be their
    /// disjunction, so the match of `Q` into `P1`'s atoms reads off the
    /// minimal `[1]` rather than `[0, 1]`. The EGD is not of the functional
    /// two-atom shape, so existential reuse does not pre-empt the merge.
    #[test]
    fn rehash_coalescing_ors_the_merged_formulas() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let s = vocab.predicate("S", 1);
        let k = vocab.predicate("K", 1);
        let p2 = vocab.predicate("P2", 1);
        let p1 = vocab.predicate("P1", 1);
        let (x, y, z) = (Term::Var(0), Term::Var(1), Term::Var(2));
        let rsk = vec![Atom::new(r, vec![x, y]), Atom::new(s, vec![y]), Atom::new(k, vec![x])];
        let views = [
            View::new(
                "P2",
                p2,
                Cq::with_var_head(
                    vec![0],
                    vec![Atom::new(r, vec![x, y]), Atom::new(k, vec![x])],
                ),
            ),
            View::new("P1", p1, Cq::with_var_head(vec![0], rsk.clone())),
        ];
        let key = crate::constraint::Egd::new(
            "R-key-on-K",
            vec![Atom::new(r, vec![x, y]), Atom::new(r, vec![x, z]), Atom::new(k, vec![x])],
            vec![(y, z)],
        );
        let constraints = [Constraint::from(key)];
        let q = Cq::with_var_head(vec![0], rsk);
        let result = Pacb::new(&constraints, &views).rewrite(&q, None);

        assert_eq!(result.universal_plan_size, 2);
        assert_eq!(result.backchase_stats.egd_merges, 1);
        assert_eq!(result.rewritings.len(), 1);
        assert_eq!(result.rewritings[0].u_atoms, vec![1]);
        assert_eq!(result.rewritings[0].query.body[0].pred, p1);
    }

    /// A universal plan with more view atoms than there are provenance
    /// terms is cut at 128 — and the run says so, so nothing caches its
    /// rewritings as the full search's: ten copies of `V(x,y) :- R(x,y)`
    /// over a 13-atom `R` chain make 130 view atoms.
    #[test]
    fn a_truncated_universal_plan_is_reported_degraded() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let views: Vec<View> = (0..10)
            .map(|i| {
                let v = vocab.predicate(format!("V{i}"), 2);
                let def = Cq::with_var_head(
                    vec![0, 1],
                    vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])],
                );
                View::new(format!("V{i}"), v, def)
            })
            .collect();
        let chain =
            (0..13).map(|i| Atom::new(r, vec![Term::Var(i), Term::Var(i + 1)])).collect();
        let q = Cq::with_var_head(vec![0, 13], chain);
        let result = Pacb::new(&[], &views).rewrite(&q, None);

        assert_eq!(result.universal_plan_size, 128);
        assert_eq!(result.chase_outcome, ChaseOutcome::Saturated);
        assert_eq!(result.backchase_outcome, ChaseOutcome::Saturated);
        assert_eq!(
            result.degraded,
            Some(Degraded {
                reason: DegradeReason::Budget(ExhaustedBy::Facts),
                phase: RewritePhase::Chase,
            })
        );
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
        let pacb = Pacb::new(&[], &views);
        let result = pacb.rewrite(&q, Some((&cost_fn, 50.0)));

        assert_eq!(result.universal_plan_size, 2);
        // The Ve-justified backchase step was pruned...
        assert_eq!(result.backchase_stats.pruned_firings(), 1);
        // ...and only the cheap rewriting survives, with its cost attached.
        assert_eq!(result.rewritings.len(), 1);
        let rw = &result.rewritings[0];
        assert_eq!(rw.query.body[0].pred, vc);
        assert_eq!(rw.cost, Some(1.0));
        assert_eq!(rw.u_atoms, vec![1]);

        // Pruning is the call's, not the engine's: the same engine run
        // unpruned lets Ve's step fire first (which leaves Vc's nothing to
        // add) and costs nothing, and a pruned run after it prunes as the
        // first did.
        let plain = pacb.rewrite(&q, None);
        assert_eq!(plain.backchase_stats.pruned_firings(), 0);
        let atoms: Vec<_> =
            plain.rewritings.iter().map(|rw| (rw.u_atoms.clone(), rw.cost)).collect();
        assert_eq!(atoms, vec![(vec![0], None)]);
        let again = pacb.rewrite(&q, Some((&cost_fn, 50.0)));
        assert_eq!(again.backchase_stats.pruned_firings(), 1);
        assert_eq!(again.rewritings[0].u_atoms, vec![1]);
    }
}
