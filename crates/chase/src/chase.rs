//! The bounded restricted chase (paper §4.2 step (i), §6.3).
//!
//! Applies TGDs (adding facts with fresh labelled nulls for existentials,
//! only when the conclusion is not already satisfied — the *restricted*
//! chase) and EGDs (merging union-find classes) until fixpoint or until a
//! configurable budget is exhausted. HADAD's `LAprop` catalogue is
//! chase-terminating for the stratified core, but associativity-style rules
//! generate fresh IDs without bound, so the engine carries the same
//! practical budgets the paper's PACB++ implementation does.
//!
//! Premise matching is **semi-naïve**: each rule keeps a watermark into
//! the instance's revision clock and only enumerates matches touching facts
//! stamped after it — fresh insertions plus facts rewritten by EGD merges
//! (the merged classes feed back into the frontier through `rehash`
//! re-stamping). A run starts with all watermarks at zero, so its first
//! round is the classic naive round; a naive chase is therefore this
//! engine restarted every round, which is how the differential tests build
//! their naive reference.
//!
//! A caller may start named rules' watermarks at a later clock
//! ([`ChaseEngine::with_watermarks`]) when it knows the instance is
//! already closed under them up to that clock: every premise match among
//! the facts stamped up to it has its conclusion in the instance. That is
//! the state the rules would leave behind had they run to fixpoint there,
//! so skipping those matches is *sound* (nothing is derived that the rules
//! would not derive) and *complete*: a match that involves a fact stamped
//! later — an insertion, or a fact a merge's `rehash` re-stamped — is
//! still enumerated, and a conclusion once present stays present, merges
//! only renaming its nodes. The LA optimizer starts `mul-assoc-l`/`-r`
//! where the encoder's product-chain tables end (`Encoded::tabulate_chains`
//! in `hadad-core`); every other caller, PACB included, starts at zero.
//!
//! Rules are *compiled* once into a [`RuleSet`] — slot count, existential
//! variables, the functional signature each EGD proves, each TGD
//! conclusion's [`ResolutionOrder`], shared rule names — and the engine
//! borrows it, so nothing about a rule is recomputed per application or
//! per run; a set that adds rules to another ([`RuleSet::extended`])
//! shares the other's compiled rules and orders. Premise matches bind variables in a dense slot array
//! ([`crate::homomorphism::Bindings`]); a TGD's conclusion check runs
//! *while* its premise matches are enumerated, and only the matches whose
//! conclusion is not yet satisfied are buffered (in one flat arena) for
//! application. Matching and checking allocate nothing per match.
//!
//! The check is a walk of the conclusion's resolution order, not a search
//! ([`crate::resolve`]): each atom over a functional predicate is one probe
//! of the instance's memo from (predicate, canonical input nodes) to the
//! facts carrying them, binding or comparing the atom's outputs, and each
//! other atom is ground by its turn — one probe of the dedup index. Only a
//! conclusion with no complete order falls back to the backtracking
//! search. Existential reuse walks the same order. A run keeps the memo
//! for its set's signatures ([`Instance`] builds it when the run starts,
//! on insertion and in `rehash`) and none when the set proves none.
//!
//! The memo also enforces the EGDs that prove those signatures, as an
//! e-graph keeps congruence at its hash-cons: a fact the memo chains
//! behind an older one with the same canonical inputs and another output
//! queues the union of the outputs, wherever the memo is written (an
//! insertion, the build when a run starts, a `rehash`). At such an EGD's
//! turn the engine merges the queue — every functional predicate's, so a
//! cascade from one predicate to another lands in the same turn — and
//! rehashes, and repeats while the rehash queues more; the EGD enumerates
//! nothing. Every other EGD is a premise join over its delta.
//!
//! The engine has one extension point, the [`Analysis`] trait
//! ([`ChaseEngine::chase_analyzed`]; [`ChaseEngine::chase`] runs with
//! [`NoAnalysis`]): data a domain keeps beside the instance — per class,
//! or per fact — sees every fact a firing inserts or finds (right after
//! the firing's [`Analysis::allow`]), every merge and every renumbering of
//! the facts a merge's `rehash` makes, decides rule guards, and may veto a
//! firing. Cost-based pruning (PACB's
//! `Prune_prov`, §7.3: a firing whose premise image already costs more than
//! a fixed threshold never executes, Example 7.2) is such a veto. Under
//! semi-naïve evaluation a vetoed firing is not offered again until one of
//! its premise facts is re-stamped, so a veto must not rest on a threshold
//! that loosens during the run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::analysis::{Analysis, AnalysisConflict, NoAnalysis};
use crate::atom::Atom;
use crate::constraint::{Constraint, Egd, Tgd};
use crate::homomorphism::{slot_count, Bindings, Match, Matcher};
use crate::instance::{ConstClash, Instance, NodeId};
use crate::resolve::{ResolutionOrder, Resolver};
use crate::symbols::{PredId, SymId};
use crate::term::Term;

/// Budgets bounding the chase.
#[derive(Debug, Clone, Copy)]
pub struct ChaseBudget {
    /// Maximum number of full rounds over the constraint set.
    pub max_rounds: usize,
    /// Hard cap on the number of facts in the instance.
    pub max_facts: usize,
    /// Hard cap on labelled nulls (fresh IDs) created.
    pub max_nulls: usize,
    /// Optional wall-clock deadline, checked at every round boundary and
    /// inside long TGD application loops. A chase that runs out of time
    /// ends with [`ChaseOutcome::BudgetExhausted`] — the instance at that
    /// point is still a sound under-approximation to extract from.
    pub deadline: Option<Instant>,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget { max_rounds: 12, max_facts: 60_000, max_nulls: 30_000, deadline: None }
    }
}

impl ChaseBudget {
    /// Stamps a deadline `timeout` from now onto this budget.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Which resource bound ended a budget-exhausted chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustedBy {
    /// The round budget ran out.
    Rounds,
    /// The fact budget ran out.
    Facts,
    /// The labelled-null budget ran out.
    Nulls,
    /// The wall-clock deadline passed.
    Deadline,
    /// An armed failpoint (`chase.round=error`) asked the round loop to
    /// stop — the degradation path behaves exactly like a budget trip.
    Fault,
}

impl std::fmt::Display for ExhaustedBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExhaustedBy::Rounds => "round budget",
            ExhaustedBy::Facts => "fact budget",
            ExhaustedBy::Nulls => "null budget",
            ExhaustedBy::Deadline => "deadline",
            ExhaustedBy::Fault => "injected fault",
        };
        f.write_str(s)
    }
}

/// Marks a result produced by a degraded (anytime) pipeline run: a resource
/// bound or contained fault ended `phase` early, and the result is the best
/// incumbent found up to that point rather than the full search's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// What ended the phase early.
    pub reason: DegradeReason,
    /// The phase that was cut short.
    pub phase: RewritePhase,
}

impl std::fmt::Display for Degraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degraded in {} phase: {}", self.phase, self.reason)
    }
}

/// Why a pipeline degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// A fact/null/round budget was exhausted.
    Budget(ExhaustedBy),
    /// A worker panicked and was contained by `catch_unwind` supervision.
    WorkerPanic,
    /// An armed failpoint asked the phase to stop early.
    Fault,
    /// View maintenance is poisoned; rewriting proceeded without views.
    MaintenancePoisoned,
    /// A constraint merged classes the chase's analysis knows to differ
    /// (see [`ChaseOutcome::AnalysisConflict`]): the instance is unsound,
    /// so nothing was extracted from it.
    AnalysisConflict,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Deadline => f.write_str("deadline exceeded"),
            DegradeReason::Budget(b) => write!(f, "{b} exhausted"),
            DegradeReason::WorkerPanic => f.write_str("worker panic contained"),
            DegradeReason::Fault => f.write_str("injected fault"),
            DegradeReason::MaintenancePoisoned => f.write_str("view maintenance poisoned"),
            DegradeReason::AnalysisConflict => {
                f.write_str("a constraint merged classes whose analysis data disagree")
            }
        }
    }
}

/// Maps a finished chase's exhaustion record onto the [`Degraded`] marker
/// reported for the pipeline phase that ran it.
pub fn degradation_of(stats: &ChaseStats, phase: RewritePhase) -> Option<Degraded> {
    stats.exhausted.map(|by| Degraded {
        reason: match by {
            ExhaustedBy::Deadline => DegradeReason::Deadline,
            ExhaustedBy::Fault => DegradeReason::Fault,
            bounded => DegradeReason::Budget(bounded),
        },
        phase,
    })
}

/// Which pipeline phase degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewritePhase {
    /// Forward chase (saturation).
    Chase,
    /// Backchase (candidate minimization).
    Backchase,
    /// Plan extraction from the saturated instance.
    Extraction,
    /// Incremental view maintenance.
    Maintenance,
}

impl std::fmt::Display for RewritePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RewritePhase::Chase => "chase",
            RewritePhase::Backchase => "backchase",
            RewritePhase::Extraction => "extraction",
            RewritePhase::Maintenance => "maintenance",
        };
        f.write_str(s)
    }
}

/// How a chase run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// Fixpoint: no constraint is applicable.
    Saturated,
    /// A budget was hit; the instance is a sound under-approximation of the
    /// full chase (every fact is still implied by the constraints).
    BudgetExhausted,
    /// An EGD equated the two distinct constants carried in the payload:
    /// constraints inconsistent with the instance.
    ConstClash(ConstClash),
    /// An EGD merged two classes the run's [`Analysis`] refused to join:
    /// constraints inconsistent with what the analysis knows.
    AnalysisConflict(AnalysisConflict),
}

/// One rule's counters in a [`ChaseStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule's name, shared with the [`RuleSet`] it was compiled into.
    pub name: Arc<str>,
    /// Premise matches enumerated. Semi-naïve evaluation should report
    /// dramatically fewer than naive on saturating workloads. A functional
    /// EGD the memo enforces enumerates none: it merges what the memo
    /// queued.
    pub matches: u64,
    /// Successful firings (always 0 for an EGD; see
    /// [`ChaseStats::egd_merges`]).
    pub firings: usize,
    /// Firings the run's analysis vetoed ([`Analysis::allow`]; EGDs are
    /// never offered to it).
    pub vetoes: usize,
}

/// Statistics from a chase run (exposed so the optimizer can report which
/// LA properties fired, cf. the paper's per-pipeline discussions).
#[derive(Debug, Clone, Default)]
pub struct ChaseStats {
    /// Rounds the chase ran before saturating or exhausting its budget.
    pub rounds: usize,
    /// Per-rule counters, in the engine's rule order.
    pub rules: Vec<RuleStats>,
    /// Node merges performed by EGDs, counted as they are made: a run that
    /// ends in a clash or an analysis conflict counts the merges before it,
    /// and a merge the analysis refused.
    pub egd_merges: usize,
    /// When the outcome is [`ChaseOutcome::BudgetExhausted`], which bound
    /// tripped.
    pub exhausted: Option<ExhaustedBy>,
}

impl ChaseStats {
    /// Total premise matches enumerated across all rules and rounds.
    pub fn matches_enumerated(&self) -> u64 {
        self.rules.iter().map(|r| r.matches).sum()
    }

    /// Total successful TGD firings across all rules.
    pub fn firings(&self) -> u64 {
        self.rules.iter().map(|r| r.firings as u64).sum()
    }

    /// Total firings vetoed across all rules.
    pub fn pruned_firings(&self) -> usize {
        self.rules.iter().map(|r| r.vetoes).sum()
    }
}

/// Publishes one run's aggregate counters to the shared metrics registry.
fn publish_chase_metrics(stats: &ChaseStats) {
    static RUNS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.runs");
    static ROUNDS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.rounds");
    static FIRINGS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.rule_firings");
    static VETOES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.rule_vetoes");
    static MERGES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.egd_merges");
    static MATCHES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.matches");
    static DEADLINES: hadad_obs::LazyCounter =
        hadad_obs::LazyCounter::new("chase.deadline_expiries");
    RUNS.incr();
    ROUNDS.add(stats.rounds as u64);
    FIRINGS.add(stats.firings());
    VETOES.add(stats.pruned_firings() as u64);
    MERGES.add(stats.egd_merges as u64);
    MATCHES.add(stats.matches_enumerated());
    if stats.exhausted == Some(ExhaustedBy::Deadline) {
        DEADLINES.incr();
    }
}

/// Positions a predicate is functional in, derived from the engine's own
/// EGDs: `inputs` are the agreeing positions of the two-atom premise, each
/// holding a variable found at no other position, and `outputs` the
/// equated ones. Existence of such an EGD proves that the outputs are
/// semantically determined by the inputs on *every* fact of the predicate,
/// which is what makes a conclusion atom over the predicate a memo lookup,
/// conclusion-atom *reuse* sound (see [`ResolutionOrder`]) and the EGD
/// itself the unions the memo queues. Public so static analysis
/// (`hadad-analyze`) can certify which TGD existentials the engine will
/// bind by reuse rather than mint as fresh nulls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalSig {
    /// Premise positions the two atoms agree on (the functional key), each
    /// holding a distinct variable.
    pub inputs: Vec<usize>,
    /// Positions whose values the EGD forces equal (determined outputs).
    pub outputs: Vec<usize>,
}

/// Detects the generalized `Egd::functional` shape: two atoms over one
/// predicate that share a distinct variable at each `inputs` position and
/// carry distinct, premise-unique variables on the `outputs` positions,
/// every such pair (and nothing else) being equated. Covers `I_multiM`
/// (one output) and the QR/LU EGDs (two outputs) as well as
/// inverse-functional constraints like `name-unique` (input = the name
/// constant position). An agreeing constant or repeated variable
/// (`f(c,x) ∧ f(c,y)`, `f(x,x,y) ∧ f(x,x,z)`) proves no signature.
pub fn functional_sig(egd: &Egd) -> Option<(crate::symbols::PredId, FunctionalSig)> {
    let [a, b] = egd.premise.as_slice() else {
        return None;
    };
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return None;
    }
    let occurrences = |v: &u32| {
        egd.premise.iter().flat_map(|a| &a.args).filter(|t| **t == Term::Var(*v)).count()
    };
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut pairs = Vec::new();
    for (i, (ta, tb)) in a.args.iter().zip(&b.args).enumerate() {
        let (Term::Var(x), Term::Var(y)) = (ta, tb) else {
            return None;
        };
        if x == y {
            // An input variable is at this position of both atoms only.
            if occurrences(x) != 2 {
                return None;
            }
            inputs.push(i);
        } else {
            // The equated variables must be tied to their slot alone.
            if occurrences(x) != 1 || occurrences(y) != 1 {
                return None;
            }
            outputs.push(i);
            pairs.push((*x, *y));
        }
    }
    if outputs.is_empty() || egd.equalities.len() != pairs.len() {
        return None;
    }
    for (x, y) in pairs {
        let eq = (Term::Var(x), Term::Var(y));
        let rev = (Term::Var(y), Term::Var(x));
        if !egd.equalities.contains(&eq) && !egd.equalities.contains(&rev) {
            return None;
        }
    }
    Some((a.pred, FunctionalSig { inputs, outputs }))
}

/// One rule of a [`RuleSet`]: the constraint plus everything the engine
/// needs to know about it that does not depend on the instance.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    name: Arc<str>,
    constraint: Constraint,
    /// Slots a match of this rule needs: largest variable id in premise,
    /// conclusion and equalities, plus one.
    slots: usize,
    /// A TGD's existential variables, in first-occurrence order.
    existentials: Vec<u32>,
    /// The signature an EGD proves ([`functional_sig`]): while the memo
    /// keeps it for the predicate, the EGD merges the unions the memo
    /// queued instead of joining its premise.
    sig: Option<(PredId, FunctionalSig)>,
    /// A TGD's conclusion as lookups over the set's functional signatures.
    order: Option<ResolutionOrder>,
}

impl CompiledRule {
    /// `constraint` compiled but for its resolution order, which depends
    /// on the whole set ([`RuleSet::extended`]).
    fn new(constraint: Constraint) -> Self {
        let (slots, existentials, sig) = match &constraint {
            Constraint::Tgd(t) => (
                slot_count(&t.premise).max(slot_count(&t.conclusion)),
                t.existential_vars(),
                None,
            ),
            Constraint::Egd(e) => {
                let slots = e
                    .equalities
                    .iter()
                    .flat_map(|(l, r)| [l, r])
                    .filter_map(Term::as_var)
                    .fold(slot_count(&e.premise), |n, v| n.max(v as usize + 1));
                (slots, Vec::new(), functional_sig(e))
            }
        };
        CompiledRule {
            name: Arc::from(constraint.name()),
            constraint,
            slots,
            existentials,
            sig,
            order: None,
        }
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rule as the engine applies it — variables renumbered densely if
    /// the registered rule's ids had gaps (see [`RuleSet::compile`]).
    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }
}

/// An ordered constraint list compiled for the engine: per rule the slot
/// count, existential variables and a shared name, per EGD the
/// [`FunctionalSig`] it proves, and per TGD the [`ResolutionOrder`] of its
/// conclusion; per predicate the signature the memo keeps — the one the
/// set's last functional EGD over it proves. Built once
/// *per process* for the standard catalogue (`hadad-core` keeps it behind
/// `Catalogue::shared_standard`) and borrowed by every [`ChaseEngine`] over
/// it; a caller with rules of its own — an optimizer's view constraints —
/// chases over [`RuleSet::extended`], which shares the base's compiled
/// rules instead of copying or recompiling them.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Arc<CompiledRule>>,
    /// Indexed by predicate id: the signature the *last* functional EGD
    /// over that predicate proves. Conclusion atoms over such predicates
    /// are resolved through the instance's memo and may bind existentials
    /// to existing witnesses (core-chase-style reuse) instead of churning
    /// fresh nulls the EGDs would merge a round later. Shared with the set
    /// this one extends until an added EGD proves a signature of its own.
    functional: Arc<Vec<Option<FunctionalSig>>>,
}

/// The signature `functional` (indexed by predicate id) holds for `pred`.
fn sig_of(functional: &[Option<FunctionalSig>], pred: PredId) -> Option<&FunctionalSig> {
    functional.get(pred.0 as usize)?.as_ref()
}

impl RuleSet {
    /// Compiles `constraints`, keeping their order (it is the firing
    /// order). A rule whose variable ids have gaps is renumbered by first
    /// occurrence, so that its matches fit a slot array no longer than its
    /// variable count; dense rules — the catalogue's, view constraints',
    /// compiled CQs' — are kept as they are.
    pub fn compile(constraints: Vec<Constraint>) -> Self {
        RuleSet::default().extended(constraints)
    }

    /// This set followed by `extra`, compiled as [`RuleSet::compile`]
    /// would compile the concatenation: this set's rules are shared (one
    /// pointer copy each, nothing recompiled), only `extra` is compiled,
    /// and a functional EGD in `extra` overrides the signature an earlier
    /// one proved for the same predicate. An inherited TGD whose
    /// conclusion uses a predicate such an override changes is compiled
    /// again, for its resolution order.
    pub fn extended(&self, extra: Vec<Constraint>) -> Self {
        let extra: Vec<CompiledRule> =
            extra.into_iter().map(|c| CompiledRule::new(densify(c))).collect();
        let mut functional = Arc::clone(&self.functional);
        for (pred, sig) in extra.iter().filter_map(|r| r.sig.as_ref()) {
            let functional = Arc::make_mut(&mut functional);
            let p = pred.0 as usize;
            if functional.len() <= p {
                functional.resize(p + 1, None);
            }
            functional[p] = Some(sig.clone());
        }
        let order_of = |c: &Constraint| match c {
            Constraint::Tgd(t) => Some(ResolutionOrder::compile(t, |p| sig_of(&functional, p))),
            Constraint::Egd(_) => None,
        };
        let shared = Arc::ptr_eq(&functional, &self.functional);
        let changed = |pred| sig_of(&functional, pred) != sig_of(&self.functional, pred);
        let mut rules = Vec::with_capacity(self.rules.len() + extra.len());
        rules.extend(self.rules.iter().map(|rule| match &rule.constraint {
            Constraint::Tgd(t) if !shared && t.conclusion.iter().any(|a| changed(a.pred)) => {
                Arc::new(CompiledRule { order: order_of(&rule.constraint), ..(**rule).clone() })
            }
            _ => Arc::clone(rule),
        }));
        rules.extend(
            extra.into_iter().map(|rule| {
                Arc::new(CompiledRule { order: order_of(&rule.constraint), ..rule })
            }),
        );
        RuleSet { rules, functional }
    }

    /// The compiled rules, in firing order. A rule an extension inherited
    /// is the very allocation of the set it extends, unless the extension
    /// changed a signature its conclusion resolves through.
    pub fn rules(&self) -> &[Arc<CompiledRule>] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set has no rule.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    #[cfg(test)]
    fn functional(&self, pred: PredId) -> Option<&FunctionalSig> {
        sig_of(&self.functional, pred)
    }
}

/// Renumbers a rule's variables by first occurrence (premise, then
/// conclusion or equalities) when their ids have gaps; a rule whose ids are
/// already `0..n` is returned untouched.
fn densify(c: Constraint) -> Constraint {
    let mut vars: Vec<u32> = Vec::new();
    let mut note = |t: &Term| match t {
        Term::Var(v) if !vars.contains(v) => vars.push(*v),
        _ => {}
    };
    match &c {
        Constraint::Tgd(t) => {
            t.premise
                .iter()
                .chain(&t.conclusion)
                .chain(&t.guard)
                .flat_map(|a| &a.args)
                .for_each(&mut note);
        }
        Constraint::Egd(e) => {
            e.premise.iter().flat_map(|a| &a.args).for_each(&mut note);
            for (l, r) in &e.equalities {
                note(l);
                note(r);
            }
        }
    }
    // Distinct ids all below their count are exactly `0..n`.
    if vars.iter().all(|&v| (v as usize) < vars.len()) {
        return c;
    }
    let term = |t: &Term| match t {
        Term::Var(v) => Term::Var(
            vars.iter().position(|x| x == v).expect("every variable was collected") as u32,
        ),
        constant => *constant,
    };
    let atom = |a: &Atom| Atom::new(a.pred, a.args.iter().map(term).collect());
    let atoms = |atoms: &[Atom]| -> Vec<Atom> { atoms.iter().map(atom).collect() };
    match &c {
        Constraint::Tgd(t) => Tgd {
            guard: t.guard.as_ref().map(atom),
            ..Tgd::new(t.name.clone(), atoms(&t.premise), atoms(&t.conclusion))
        }
        .into(),
        Constraint::Egd(e) => Egd::new(
            e.name.clone(),
            atoms(&e.premise),
            e.equalities.iter().map(|(l, r)| (term(l), term(r))).collect(),
        )
        .into(),
    }
}

/// The chase engine: a borrowed, compiled rule set plus budgets.
#[derive(Debug, Clone, Copy)]
pub struct ChaseEngine<'r> {
    /// The dependencies to saturate under, in firing order.
    pub rules: &'r RuleSet,
    /// Resource bounds ending a divergent run.
    pub budget: ChaseBudget,
    /// Rules (indexes into `rules`) whose watermark starts at the clock
    /// beside them instead of 0 ([`ChaseEngine::with_watermarks`]).
    pub start: (&'r [usize], u64),
}

/// A merge an EGD match asks for: a node bound during the match, or a
/// constant to intern at application time.
#[derive(Debug, Clone, Copy)]
enum MergeArg {
    Node(NodeId),
    Const(SymId),
}

/// Buffers one chase run reuses across rule applications, so that applying
/// a rule allocates only for the facts it inserts.
#[derive(Default)]
struct RunScratch {
    /// Enumerates premise matches.
    premise: Matcher,
    /// Resolves conclusions — while `premise` is mid-enumeration.
    check: Resolver,
    /// The pending match being applied (what [`Analysis::allow`] is
    /// shown).
    firing: Match,
    /// Flat arena of pending TGD matches: binding slots at a stride of the
    /// rule's slot count ...
    pending_slots: Vec<NodeId>,
    /// ... and premise fact indices at a stride of `premise.len()`.
    pending_facts: Vec<usize>,
    /// Merge requests of the EGD being applied.
    merges: Vec<(MergeArg, MergeArg)>,
    /// The unions taken from the memo's queue, being merged.
    unions: Vec<(NodeId, NodeId)>,
}

impl<'r> ChaseEngine<'r> {
    /// An engine over `rules` with the default budget.
    pub fn new(rules: &'r RuleSet) -> Self {
        ChaseEngine { rules, budget: ChaseBudget::default(), start: (&[], 0) }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Starts the watermarks of `rules` (indexes into the set) at `clock`
    /// instead of 0, so their first round enumerates only the matches
    /// that involve a fact stamped after it. Sound and complete only when
    /// the caller knows that every premise match of those rules among the
    /// facts stamped up to `clock` already has its conclusion in the
    /// instance — as after the rules ran to fixpoint there (see the module
    /// docs).
    pub fn with_watermarks(mut self, rules: &'r [usize], clock: u64) -> Self {
        self.start = (rules, clock);
        self
    }

    /// Runs the chase to fixpoint (or budget) with [`NoAnalysis`]: nothing
    /// is vetoed, and a guarded rule never fires.
    pub fn chase(&self, inst: &mut Instance) -> (ChaseOutcome, ChaseStats) {
        self.chase_analyzed(inst, &mut NoAnalysis)
    }

    /// Runs the chase to fixpoint (or budget), keeping `analysis` up to
    /// date with every fact it inserts and every merge, and letting it
    /// decide rule guards and veto firings.
    ///
    /// Every run publishes its aggregate [`ChaseStats`] to the shared
    /// `hadad-obs` metrics registry (`chase.rounds`, `chase.rule_firings`,
    /// `chase.rule_vetoes`, `chase.egd_merges`, `chase.matches`,
    /// `chase.deadline_expiries`) and executes under a `"chase"` tracing
    /// span — the per-rule counters in the returned stats stay the
    /// fine-grained record.
    pub fn chase_analyzed<A: Analysis>(
        &self,
        inst: &mut Instance,
        analysis: &mut A,
    ) -> (ChaseOutcome, ChaseStats) {
        let _span = hadad_obs::span("chase");
        let (outcome, stats) = self.chase_run(inst, analysis);
        publish_chase_metrics(&stats);
        (outcome, stats)
    }

    fn chase_run<A: Analysis>(
        &self,
        inst: &mut Instance,
        analysis: &mut A,
    ) -> (ChaseOutcome, ChaseStats) {
        let rules = self.rules.rules();
        let mut stats = ChaseStats {
            rules: rules
                .iter()
                .map(|r| RuleStats {
                    name: Arc::clone(&r.name),
                    matches: 0,
                    firings: 0,
                    vetoes: 0,
                })
                .collect(),
            ..Default::default()
        };
        let mut scratch = RunScratch::default();
        inst.index_functional(&self.rules.functional);
        // Per-rule clock watermark: facts stamped after it are this rule's
        // delta. Zero means "everything is new" (the naive first round).
        let mut last_seen: Vec<u64> = vec![0; rules.len()];
        for &r in self.start.0 {
            last_seen[r] = self.start.1;
        }
        for _round in 0..self.budget.max_rounds {
            if self.budget.deadline_passed() {
                stats.exhausted = Some(ExhaustedBy::Deadline);
                return (ChaseOutcome::BudgetExhausted, stats);
            }
            if hadad_failpoint::hit("chase.round").is_err() {
                stats.exhausted = Some(ExhaustedBy::Fault);
                return (ChaseOutcome::BudgetExhausted, stats);
            }
            stats.rounds += 1;
            let mut changed = false;
            for (ci, rule) in rules.iter().enumerate() {
                let watermark = last_seen[ci];
                // Snapshot before enumeration: facts this rule creates (or
                // EGD re-stamps) during application stay in its next delta.
                let snapshot = inst.clock();
                let rule_stats = &mut stats.rules[ci];
                match &rule.constraint {
                    Constraint::Egd(egd) => {
                        let merges_before = stats.egd_merges;
                        let merged = &mut stats.egd_merges;
                        let applied = match &rule.sig {
                            Some((pred, sig))
                                if sig_of(&self.rules.functional, *pred) == Some(sig) =>
                            {
                                drain_unions(inst, analysis, &mut scratch.unions, merged)
                            }
                            _ => apply_egd(
                                inst,
                                (rule, egd),
                                analysis,
                                watermark,
                                &mut scratch,
                                (rule_stats, merged),
                            ),
                        };
                        if let Err(failed) = applied {
                            return (failed, stats);
                        }
                        changed |= stats.egd_merges > merges_before;
                    }
                    Constraint::Tgd(tgd) => {
                        let firings_before = rule_stats.firings;
                        let over_budget = self.apply_tgd(
                            inst,
                            (ci, rule, tgd),
                            analysis,
                            watermark,
                            &mut scratch,
                            rule_stats,
                        );
                        if rule_stats.firings > firings_before {
                            changed = true;
                        }
                        if let Some(by) = over_budget {
                            stats.exhausted = Some(by);
                            return (ChaseOutcome::BudgetExhausted, stats);
                        }
                    }
                }
                last_seen[ci] = snapshot;
                if inst.num_facts() > self.budget.max_facts {
                    stats.exhausted = Some(ExhaustedBy::Facts);
                    return (ChaseOutcome::BudgetExhausted, stats);
                }
                if inst.num_nulls() > self.budget.max_nulls {
                    stats.exhausted = Some(ExhaustedBy::Nulls);
                    return (ChaseOutcome::BudgetExhausted, stats);
                }
            }
            if !changed {
                return (ChaseOutcome::Saturated, stats);
            }
        }
        stats.exhausted = Some(ExhaustedBy::Rounds);
        (ChaseOutcome::BudgetExhausted, stats)
    }

    /// Applies one TGD (restricted semantics, with core-chase-style
    /// existential reuse through functional predicates) over its delta,
    /// counting matches, firings and vetoes into `stats`, letting
    /// `analysis` veto each firing and showing it every fact one inserts.
    /// Returns the bound that tripped, if one did.
    ///
    /// Both the check and the reuse walk the rule's [`ResolutionOrder`]:
    /// one memo lookup per functional conclusion atom, one dedup probe per
    /// ground one (see [`crate::resolve`]).
    fn apply_tgd<A: Analysis>(
        &self,
        inst: &mut Instance,
        (rule_idx, rule, tgd): (usize, &CompiledRule, &Tgd),
        analysis: &mut A,
        watermark: u64,
        scratch: &mut RunScratch,
        stats: &mut RuleStats,
    ) -> Option<ExhaustedBy> {
        let RunScratch { premise, check, firing, pending_slots, pending_facts, .. } = scratch;
        let order = rule.order.as_ref().expect("a TGD has a resolution order");
        let slots = rule.slots;
        let arity = tgd.premise.len();
        // Phase 1: enumerate premise matches against the still-immutable
        // instance, drop those the guard refuses, and resolve the
        // conclusion of the rest right away. Applying a TGD only appends
        // facts and never merges, so a conclusion satisfied now stays
        // satisfied for the whole application: such a match (most of them)
        // is dropped without being buffered. Survivors go into the flat
        // pending arena.
        pending_slots.clear();
        pending_facts.clear();
        let mut pending = 0usize;
        let analysis_now = &*analysis;
        premise.for_each_match_since(inst, &tgd.premise, slots, watermark, &mut |m| {
            stats.matches += 1;
            if tgd.guard.as_ref().is_some_and(|g| !analysis_now.guard(inst, g, &m.bindings)) {
                return true;
            }
            if !check.holds(inst, order, &tgd.conclusion, slots, &m.bindings) {
                pending_slots.extend_from_slice(m.bindings.slots());
                pending_facts.extend_from_slice(&m.fact_indices);
                pending += 1;
            }
            true
        });

        // Phase 2: re-check against the instance as it grows (an earlier
        // firing of this application may have satisfied a later pending
        // match), let the analysis veto, and apply. Fact indices stay
        // valid throughout: TGD application only appends facts, so the
        // memo and the dedup index stay exact without a rehash.
        // The deadline is re-checked every `DEADLINE_STRIDE` pending matches
        // so a rule with a huge pending buffer can't blow past it by a round.
        const DEADLINE_STRIDE: usize = 64;
        firing.bindings.reset(slots);
        for fi in 0..pending {
            if fi % DEADLINE_STRIDE == 0 && self.budget.deadline_passed() {
                return Some(ExhaustedBy::Deadline);
            }
            firing.bindings.load(&pending_slots[fi * slots..(fi + 1) * slots]);
            firing.fact_indices.clear();
            firing.fact_indices.extend_from_slice(&pending_facts[fi * arity..(fi + 1) * arity]);
            if check.holds(inst, order, &tgd.conclusion, slots, &firing.bindings) {
                continue;
            }
            if !analysis.allow(inst, rule_idx, tgd, firing) {
                stats.vetoes += 1;
                continue;
            }
            let bindings = &mut firing.bindings;
            // Existential reuse: a lookup whose inputs are bound determines
            // its outputs semantically, so an existential there is bound to
            // the existing witness instead of a fresh null the functional
            // EGD would merge (and re-stamp) a round later. The lookups run
            // in order, so one reuse binds a later atom's inputs (e.g.
            // `mul(b,c,F) ∧ mul(a,F,W)` chains through `F`).
            check.reuse(inst, order, &tgd.conclusion, bindings);
            for &ev in &rule.existentials {
                bindings.get_or_insert_with(ev, || inst.fresh_null());
            }
            for atom in &tgd.conclusion {
                let args: Vec<NodeId> = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => bindings.get(*v).expect("conclusion var bound"),
                        Term::Const(c) => inst.const_node(*c),
                    })
                    .collect();
                let (fact, _) = inst.insert(atom.pred, args);
                analysis.make(inst, rule_idx, atom, fact);
            }
            stats.firings += 1;
            if inst.num_facts() > self.budget.max_facts {
                return Some(ExhaustedBy::Facts);
            }
            if inst.num_nulls() > self.budget.max_nulls {
                return Some(ExhaustedBy::Nulls);
            }
        }
        None
    }
}

/// Applies one EGD over its delta, joining each merge into `analysis` and
/// counting it into `merged`; fails with the outcome that ends the chase
/// (two constants clashed, or the analysis refused a merge), the merges
/// made before it counted. Merge requests stream out of the enumeration
/// sink (no match materialization) and apply afterwards.
fn apply_egd<A: Analysis>(
    inst: &mut Instance,
    (rule, egd): (&CompiledRule, &Egd),
    analysis: &mut A,
    watermark: u64,
    scratch: &mut RunScratch,
    (stats, merged): (&mut RuleStats, &mut usize),
) -> Result<(), ChaseOutcome> {
    let RunScratch { premise, merges, .. } = scratch;
    let resolve = |bindings: &Bindings, t: &Term| match t {
        Term::Var(v) => bindings.get(*v).map(MergeArg::Node),
        Term::Const(c) => Some(MergeArg::Const(*c)),
    };
    merges.clear();
    let view = &*inst;
    premise.for_each_match_since(view, &egd.premise, rule.slots, watermark, &mut |m| {
        stats.matches += 1;
        for (l, r) in &egd.equalities {
            match (resolve(&m.bindings, l), resolve(&m.bindings, r)) {
                // Already one class (a fact matched with itself, mostly):
                // nothing to merge, so nothing to buffer.
                (Some(MergeArg::Node(a)), Some(MergeArg::Node(b)))
                    if view.find(a) == view.find(b) => {}
                (Some(ln), Some(rn)) => merges.push((ln, rn)),
                _ => {}
            }
        }
        true
    });
    let before = *merged;
    for &(a, b) in merges.iter() {
        let mut node = |arg| match arg {
            MergeArg::Node(n) => n,
            MergeArg::Const(c) => inst.const_node(c),
        };
        let (a, b) = (node(a), node(b));
        merge_joined(inst, analysis, a, b, merged)?;
    }
    if *merged > before {
        let moved_to = inst.rehash();
        analysis.rehashed(inst, &moved_to);
    }
    Ok(())
}

/// Enforces the functional EGDs whose signatures the memo keeps: merges
/// every union the memo queued (see [`Instance`]), joining each into
/// `analysis`, then rehashes once; entering the memo again queues the
/// unions those merges imply, and the drain repeats until none is queued.
/// Counts and fails as [`apply_egd`] does.
fn drain_unions<A: Analysis>(
    inst: &mut Instance,
    analysis: &mut A,
    unions: &mut Vec<(NodeId, NodeId)>,
    merged: &mut usize,
) -> Result<(), ChaseOutcome> {
    loop {
        inst.take_unions(unions);
        let before = *merged;
        for &(a, b) in unions.iter() {
            merge_joined(inst, analysis, a, b, merged)?;
        }
        if *merged == before {
            return Ok(());
        }
        let moved_to = inst.rehash();
        analysis.rehashed(inst, &moved_to);
    }
}

/// Merges the classes of `a` and `b` unless they are one, counting the
/// merge into `merged`, then joins the absorbed class into `analysis`. A
/// merge the analysis then refuses is counted: the classes are one.
fn merge_joined<A: Analysis>(
    inst: &mut Instance,
    analysis: &mut A,
    a: NodeId,
    b: NodeId,
    merged: &mut usize,
) -> Result<(), ChaseOutcome> {
    let (a, b) = (inst.find(a), inst.find(b));
    if a == b {
        return Ok(());
    }
    let root = inst.merge(a, b).map_err(ChaseOutcome::ConstClash)?;
    *merged += 1;
    let absorbed = if root == a { b } else { a };
    analysis.join(inst, root, absorbed).map_err(ChaseOutcome::AnalysisConflict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::symbols::Vocabulary;

    /// Paper §4.1 example: Review(p, r, t) → ∃a PC(r, a), plus the EGD that
    /// a paper is submitted to a single track.
    #[test]
    fn review_pc_example() {
        let mut vocab = Vocabulary::new();
        let review = vocab.predicate("Review", 3);
        let pc = vocab.predicate("PC", 2);

        let tgd = Tgd::new(
            "review-implies-pc",
            vec![Atom::new(review, vec![Term::Var(0), Term::Var(1), Term::Var(2)])],
            vec![Atom::new(pc, vec![Term::Var(1), Term::Var(3)])],
        );
        let egd = Egd::new(
            "single-track",
            vec![
                Atom::new(review, vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
                Atom::new(review, vec![Term::Var(0), Term::Var(3), Term::Var(4)]),
            ],
            vec![(Term::Var(2), Term::Var(4))],
        );

        let mut inst = Instance::new();
        let p = inst.const_node(vocab.constant("paper1"));
        let r1 = inst.const_node(vocab.constant("alice"));
        let r2 = inst.const_node(vocab.constant("bob"));
        let t1 = inst.fresh_null();
        let t2 = inst.fresh_null();
        inst.insert(review, vec![p, r1, t1]);
        inst.insert(review, vec![p, r2, t2]);

        let rules = RuleSet::compile(vec![tgd.into(), egd.into()]);
        let engine = ChaseEngine::new(&rules);
        let (outcome, stats) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        // Tracks merged by the EGD.
        assert_eq!(inst.find(t1), inst.find(t2));
        assert!(stats.egd_merges >= 1);
        // PC facts derived for both reviewers.
        assert_eq!(inst.facts_with_pred(pc).len(), 2);
    }

    #[test]
    fn restricted_chase_does_not_refire() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 1);
        let q = vocab.predicate("Q", 2);
        // P(x) → ∃y Q(x, y); chasing twice must not add a second witness.
        let tgd = Tgd::new(
            "p-implies-q",
            vec![Atom::new(p, vec![Term::Var(0)])],
            vec![Atom::new(q, vec![Term::Var(0), Term::Var(1)])],
        );
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        inst.insert(p, vec![a]);
        let rules = RuleSet::compile(vec![tgd.into()]);
        let engine = ChaseEngine::new(&rules);
        let (outcome, _) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(inst.facts_with_pred(q).len(), 1);
        assert_eq!(inst.num_nulls(), 1);
    }

    #[test]
    fn budget_stops_divergent_chase() {
        let mut vocab = Vocabulary::new();
        let e = vocab.predicate("E", 2);
        // E(x, y) → ∃z E(y, z): classic non-terminating TGD.
        let tgd = Tgd::new(
            "succ",
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(1)])],
            vec![Atom::new(e, vec![Term::Var(1), Term::Var(2)])],
        );
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        let b = inst.const_node(vocab.constant("b"));
        inst.insert(e, vec![a, b]);
        let rules = RuleSet::compile(vec![tgd.into()]);
        let engine = ChaseEngine::new(&rules).with_budget(ChaseBudget {
            max_rounds: 3,
            max_facts: 1000,
            max_nulls: 1000,
            deadline: None,
        });
        let (outcome, stats) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::BudgetExhausted);
        assert_eq!(stats.rounds, 3);
        assert!(inst.num_facts() >= 3);
    }

    /// An analysis that keeps nothing and refuses every guard, as
    /// [`NoAnalysis`] does, and asks its closure whether each firing offered
    /// to it may apply.
    struct Allow<F>(F);

    impl<F: FnMut(&Match) -> bool> Analysis for Allow<F> {
        fn make(&mut self, _: &Instance, _: usize, _: &Atom, _: usize) {}

        fn join(&mut self, _: &Instance, _: NodeId, _: NodeId) -> Result<(), AnalysisConflict> {
            Ok(())
        }

        fn guard(&self, _: &Instance, _: &Atom, _: &Bindings) -> bool {
            false
        }

        fn allow(&mut self, _: &Instance, _: usize, _: &Tgd, m: &Match) -> bool {
            (self.0)(m)
        }
    }

    #[test]
    fn pruner_vetoes_firings() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 1);
        let q = vocab.predicate("Q", 1);
        let tgd = Tgd::new(
            "p-q",
            vec![Atom::new(p, vec![Term::Var(0)])],
            vec![Atom::new(q, vec![Term::Var(0)])],
        );
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        inst.insert(p, vec![a]);
        let rules = RuleSet::compile(vec![tgd.into()]);
        let engine = ChaseEngine::new(&rules);
        let (outcome, stats) = engine.chase_analyzed(&mut inst, &mut Allow(|_: &Match| false));
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(inst.facts_with_pred(q).len(), 0);
        assert!(stats.pruned_firings() > 0);
    }

    #[test]
    fn cost_pruner_vetoes_above_threshold() {
        // Prices every firing at ten times its number of premise facts and
        // vetoes it above `threshold`.
        let priced_below = |threshold: f64| {
            Allow(move |m: &Match| 10.0 * m.fact_indices.len() as f64 <= threshold)
        };
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 1);
        let q = vocab.predicate("Q", 1);
        let tgd = Tgd::new(
            "p-q",
            vec![Atom::new(p, vec![Term::Var(0)])],
            vec![Atom::new(q, vec![Term::Var(0)])],
        );
        let build = |vocab: &mut Vocabulary| {
            let mut inst = Instance::new();
            let a = inst.const_node(vocab.constant("a"));
            inst.insert(p, vec![a]);
            inst
        };
        let rules = RuleSet::compile(vec![tgd.into()]);
        let engine = ChaseEngine::new(&rules);

        // Threshold below the firing cost: vetoed, counted per rule.
        let mut inst = build(&mut vocab);
        let (_, stats) = engine.chase_analyzed(&mut inst, &mut priced_below(5.0));
        assert_eq!(inst.facts_with_pred(q).len(), 0);
        assert_eq!(stats.pruned_firings(), 1);
        assert_eq!(
            stats.rules,
            vec![RuleStats { name: "p-q".into(), matches: 1, firings: 0, vetoes: 1 }]
        );

        // Threshold above: fires.
        let mut inst = build(&mut vocab);
        let (_, stats) = engine.chase_analyzed(&mut inst, &mut priced_below(50.0));
        assert_eq!(inst.facts_with_pred(q).len(), 1);
        assert_eq!(stats.pruned_firings(), 0);
    }

    /// A merge the caller left pending when the chase starts is seen by
    /// the lookups: the run builds the memo over the current classes.
    #[test]
    fn lookups_see_a_merge_pending_at_the_start() {
        let mut vocab = Vocabulary::new();
        let (p, f) = (vocab.predicate("p", 1), vocab.predicate("f", 2));
        let rules = RuleSet::compile(vec![
            Tgd::new(
                "p-has-f",
                vec![Atom::new(p, vec![Term::Var(0)])],
                vec![Atom::new(f, vec![Term::Var(0), Term::Var(1)])],
            )
            .into(),
            Egd::functional("f-func", f, 2).into(),
        ]);
        let mut inst = Instance::new();
        let (a, b, o) = (inst.fresh_null(), inst.fresh_null(), inst.fresh_null());
        inst.insert(p, vec![a]);
        inst.insert(f, vec![b, o]);
        inst.merge(a, b).unwrap();
        let (outcome, stats) = ChaseEngine::new(&rules).chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(stats.firings(), 0, "f(b, o) already holds for a");
    }

    #[test]
    fn functional_egd_dedups_outputs() {
        let mut vocab = Vocabulary::new();
        let f = vocab.predicate("f", 2);
        let egd = Egd::functional("f-func", f, 2);
        let mut inst = Instance::new();
        let x = inst.const_node(vocab.constant("x"));
        let o1 = inst.fresh_null();
        let o2 = inst.fresh_null();
        inst.insert(f, vec![x, o1]);
        inst.insert(f, vec![x, o2]);
        let rules = RuleSet::compile(vec![egd.into()]);
        let engine = ChaseEngine::new(&rules);
        let (outcome, _) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(inst.find(o1), inst.find(o2));
        assert_eq!(inst.facts_with_pred(f).len(), 1, "duplicate facts coalesced");
    }

    #[test]
    fn const_clash_carries_the_constants() {
        let mut vocab = Vocabulary::new();
        let f = vocab.predicate("f", 2);
        let egd = Egd::functional("f-func", f, 2);
        let mut inst = Instance::new();
        let x = inst.const_node(vocab.constant("x"));
        let one = vocab.constant("one");
        let two = vocab.constant("two");
        let n1 = inst.const_node(one);
        let n2 = inst.const_node(two);
        inst.insert(f, vec![x, n1]);
        inst.insert(f, vec![x, n2]);
        let rules = RuleSet::compile(vec![egd.into()]);
        let engine = ChaseEngine::new(&rules);
        let (outcome, _) = engine.chase(&mut inst);
        match outcome {
            ChaseOutcome::ConstClash(clash) => {
                let pair = [clash.a, clash.b];
                assert!(pair.contains(&one) && pair.contains(&two), "payload: {clash:?}");
            }
            other => panic!("expected ConstClash, got {other:?}"),
        }
    }

    /// Two facts with the same inputs and different outputs, there before
    /// the instance was ever chased: building the memo when the run starts
    /// queues their union, and the EGD's first turn merges it.
    #[test]
    fn a_violation_there_at_the_start_is_merged_in_round_one() {
        let f = PredId(0);
        let rules = RuleSet::compile(vec![Egd::functional("f-func", f, 2).into()]);
        let mut inst = Instance::new();
        let (x, o1, o2) = (inst.fresh_null(), inst.fresh_null(), inst.fresh_null());
        inst.insert(f, vec![x, o1]);
        inst.insert(f, vec![x, o2]);
        let one_round = ChaseBudget { max_rounds: 1, ..ChaseBudget::default() };
        let (_, stats) = ChaseEngine::new(&rules).with_budget(one_round).chase(&mut inst);
        assert_eq!((stats.rounds, stats.egd_merges, stats.matches_enumerated()), (1, 1, 0));
        assert_eq!(inst.find(o1), inst.find(o2));
        assert_eq!(inst.num_facts(), 1, "the two facts coalesced");
    }

    /// The memo outlives a run: an insertion between two chases of one
    /// instance under one rule set queues its union on the memo the first
    /// run built, and the second run, keeping that memo, merges it.
    #[test]
    fn unions_queued_between_two_chases_are_merged_by_the_second() {
        let f = PredId(0);
        let rules = RuleSet::compile(vec![Egd::functional("f-func", f, 2).into()]);
        let engine = ChaseEngine::new(&rules);
        let mut inst = Instance::new();
        let (x, o1, o2) = (inst.fresh_null(), inst.fresh_null(), inst.fresh_null());
        inst.insert(f, vec![x, o1]);
        let (outcome, stats) = engine.chase(&mut inst);
        assert_eq!((outcome, stats.egd_merges), (ChaseOutcome::Saturated, 0));
        inst.insert(f, vec![x, o2]);
        let (outcome, stats) = engine.chase(&mut inst);
        assert_eq!((outcome, stats.egd_merges), (ChaseOutcome::Saturated, 1));
        assert_eq!(inst.find(o1), inst.find(o2));
    }

    /// A clash the drain meets in a cascade ends the run with both
    /// constants: merging `u` and `v` (both `f(w, ·)`) makes `f(u, one)` and
    /// `f(v, two)` share their input, and the union this queues equates
    /// `one` and `two` in the same turn.
    #[test]
    fn a_clash_in_the_drains_cascade_carries_both_constants() {
        let mut vocab = Vocabulary::new();
        let f = vocab.predicate("f", 2);
        let rules = RuleSet::compile(vec![Egd::functional("f-func", f, 2).into()]);
        let (one, two) = (vocab.constant("one"), vocab.constant("two"));
        let mut inst = Instance::new();
        let (u, v, w) = (inst.fresh_null(), inst.fresh_null(), inst.fresh_null());
        let (n1, n2) = (inst.const_node(one), inst.const_node(two));
        inst.insert(f, vec![u, n1]);
        inst.insert(f, vec![v, n2]);
        inst.insert(f, vec![w, u]);
        inst.insert(f, vec![w, v]);
        let (outcome, stats) = ChaseEngine::new(&rules).chase(&mut inst);
        let ChaseOutcome::ConstClash(clash) = outcome else {
            panic!("expected ConstClash, got {outcome:?}");
        };
        let mut pair = [clash.a, clash.b];
        pair.sort_unstable();
        assert_eq!(pair, [one, two]);
        assert_eq!(stats.rounds, 1, "u = v, then the clash, in one turn");
        assert_eq!(stats.egd_merges, 1, "the merge made before the clash is counted");
    }

    #[test]
    fn functional_sig_requires_distinct_input_vars_and_premise_unique_outputs() {
        let (f, x, y, z) = (PredId(0), Term::Var(0), Term::Var(1), Term::Var(2));
        assert_eq!(
            functional_sig(&Egd::functional("f", f, 3)),
            Some((f, FunctionalSig { inputs: vec![0, 1], outputs: vec![2] }))
        );
        let egd = |premise: [Vec<Term>; 2], equalities| {
            Egd::new("e", premise.map(|args| Atom::new(f, args)).to_vec(), equalities)
        };
        // [f(x,x), f(x,y)] → x = y: one differing position, but x also
        // occurs elsewhere, so a chain member is not a match.
        let tricky = egd([vec![x, x], vec![x, y]], vec![(x, y)]);
        assert_eq!(functional_sig(&tricky), None);
        // An agreeing constant or repeated variable restricts the facts
        // the EGD applies to: it proves nothing about the others.
        let constant = Term::Const(SymId(0));
        let at_constant = egd([vec![constant, x], vec![constant, y]], vec![(x, y)]);
        assert_eq!(functional_sig(&at_constant), None);
        let diagonal = egd([vec![x, x, y], vec![x, x, z]], vec![(y, z)]);
        assert_eq!(functional_sig(&diagonal), None);
    }

    /// The chase reuses a witness only where an EGD proves it is the only
    /// one: `f(d, w)` is no witness for `Q(d) → ∃z f(d, z) ∧ g(z)` under an
    /// EGD that only equates outputs at the constant `c`, or only on the
    /// diagonal — `g(w)` follows from neither.
    #[test]
    fn a_restricted_egd_makes_no_witness_reusable() {
        let mut vocab = Vocabulary::new();
        let (q, g) = (vocab.predicate("Q", 2), vocab.predicate("g", 1));
        let (x, y, z, u, v) =
            (Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3), Term::Var(4));
        let c = Term::Const(vocab.constant("c"));
        let (f2, f3) = (vocab.predicate("f2", 2), vocab.predicate("f3", 3));
        // Per shape: the EGD's premise over `f`, its equality, and the
        // TGD's `f` atom.
        let shapes = [
            ("at-c", f2, [vec![c, x], vec![c, y]], (x, y), vec![u, z]),
            ("diagonal", f3, [vec![x, x, y], vec![x, x, z]], (y, z), vec![u, v, z]),
        ];
        for (name, f, premise, equality, concluded) in shapes {
            let premise = premise.map(|args| Atom::new(f, args)).to_vec();
            let egd = Egd::new(name, premise, vec![equality]);
            let tgd = Tgd::new(
                "q-f-g",
                vec![Atom::new(q, vec![u, v])],
                vec![Atom::new(f, concluded), Atom::new(g, vec![z])],
            );
            let mut inst = Instance::new();
            let (d, e) =
                (inst.const_node(vocab.constant("d")), inst.const_node(vocab.constant("e")));
            let w = inst.fresh_null();
            let args = if f == f2 { vec![d, w] } else { vec![d, e, w] };
            inst.insert(f, args);
            inst.insert(q, vec![d, e]);
            let rules = RuleSet::compile(vec![tgd.into(), egd.into()]);
            let (outcome, stats) = ChaseEngine::new(&rules).chase(&mut inst);
            assert_eq!(outcome, ChaseOutcome::Saturated);
            assert_eq!(stats.firings(), 1, "{name}: the TGD fires");
            let derived = inst.fact(inst.facts_with_pred(g)[0]).args[0];
            assert_ne!(inst.find(derived), inst.find(w), "{name}: g(w) is not implied");
            assert_eq!(inst.num_nulls(), 2, "{name}: a fresh witness is minted");
        }
    }

    #[test]
    fn asymmetric_egd_merges_old_new_pairs_under_semi_naive() {
        // The tricky EGD above, driven so its only merge pairs an OLD fact
        // with a NEW one mid-chase: f(a,a) exists from the start, a TGD
        // adds f(a,w) in round one, and the EGD must still equate a = w.
        let mut vocab = Vocabulary::new();
        let f = vocab.predicate("f", 2);
        let q = vocab.predicate("Q", 2);
        let egd = Egd::new(
            "tricky",
            vec![
                Atom::new(f, vec![Term::Var(0), Term::Var(0)]),
                Atom::new(f, vec![Term::Var(0), Term::Var(1)]),
            ],
            vec![(Term::Var(0), Term::Var(1))],
        );
        let tgd = Tgd::new(
            "copy",
            vec![Atom::new(q, vec![Term::Var(0), Term::Var(1)])],
            vec![Atom::new(f, vec![Term::Var(0), Term::Var(1)])],
        );
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        let n = inst.fresh_null();
        inst.insert(f, vec![a, a]);
        inst.insert(q, vec![a, n]);
        // EGD ordered first so its first (naive) round sees only f(a,a);
        // the TGD then adds f(a,n) and the EGD's delta round must pair the
        // old f(a,a) with the new f(a,n) to merge a = n.
        let rules = RuleSet::compile(vec![egd.into(), tgd.into()]);
        let engine = ChaseEngine::new(&rules);
        let (outcome, stats) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert!(stats.egd_merges >= 1, "old⋈new merge missed: {stats:?}");
        assert_eq!(inst.find(n), inst.find(a));
        assert_eq!(inst.facts_with_pred(f).len(), 1, "f(a,n) coalesced into f(a,a)");
    }

    #[test]
    fn semi_naive_and_naive_agree_and_semi_naive_enumerates_less() {
        // Transitive closure: E(x,y) ∧ E(y,z) → T(x,z); T(x,y) ∧ E(y,z) → T(x,z)
        // over a 6-node path. Saturating this naively re-enumerates every
        // join each round; semi-naïve only touches the frontier.
        let mut vocab = Vocabulary::new();
        let e = vocab.predicate("E", 2);
        let t = vocab.predicate("T", 2);
        let rules: Vec<Constraint> = vec![
            Tgd::new(
                "base",
                vec![Atom::new(e, vec![Term::Var(0), Term::Var(1)])],
                vec![Atom::new(t, vec![Term::Var(0), Term::Var(1)])],
            )
            .into(),
            Tgd::new(
                "step",
                vec![
                    Atom::new(t, vec![Term::Var(0), Term::Var(1)]),
                    Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                ],
                vec![Atom::new(t, vec![Term::Var(0), Term::Var(2)])],
            )
            .into(),
        ];
        let mut build = || {
            let mut inst = Instance::new();
            let ns: Vec<NodeId> =
                (0..6).map(|i| inst.const_node(vocab.constant(format!("n{i}")))).collect();
            for w in ns.windows(2) {
                inst.insert(e, vec![w[0], w[1]]);
            }
            inst
        };
        let mut naive_inst = build();
        let mut semi_inst = build();
        let rules = RuleSet::compile(rules);
        let engine = ChaseEngine::new(&rules);
        let (o1, s1) = chase_naive(engine, &mut naive_inst);
        let (o2, s2) = engine.chase(&mut semi_inst);
        assert_eq!(o1, ChaseOutcome::Saturated);
        assert_eq!(o2, ChaseOutcome::Saturated);
        assert_eq!(naive_inst.num_facts(), semi_inst.num_facts());
        assert_eq!(naive_inst.facts_with_pred(t).len(), 15); // 5+4+3+2+1
                                                             // Five naive rounds: `base` matches its 5 E facts each round, `step`
                                                             // the 4 + 7 + 9 + 10 + 10 paths it can extend.
        assert_eq!((s1.rounds, s1.matches_enumerated()), (5, 65));
        assert!(
            s2.matches_enumerated() < s1.matches_enumerated(),
            "semi-naïve {} should beat naive {}",
            s2.matches_enumerated(),
            s1.matches_enumerated()
        );
    }

    /// The naive reference: the engine restarted every round. A run's first
    /// round starts with every watermark at 0, which is exactly a naive
    /// round, so one-round runs looped over one instance re-enumerate every
    /// homomorphism each round. Rounds, merges and per-rule counters are
    /// summed over the runs.
    fn chase_naive(engine: ChaseEngine<'_>, inst: &mut Instance) -> (ChaseOutcome, ChaseStats) {
        let one_round =
            ChaseEngine { budget: ChaseBudget { max_rounds: 1, ..engine.budget }, ..engine };
        let mut total = ChaseStats::default();
        for _ in 0..engine.budget.max_rounds {
            let (outcome, stats) = one_round.chase(inst);
            total.rounds += stats.rounds;
            total.egd_merges += stats.egd_merges;
            total.exhausted = stats.exhausted;
            if total.rules.is_empty() {
                total.rules = stats.rules;
            } else {
                for (sum, run) in total.rules.iter_mut().zip(&stats.rules) {
                    sum.matches += run.matches;
                    sum.firings += run.firings;
                    sum.vetoes += run.vetoes;
                }
            }
            if outcome != ChaseOutcome::BudgetExhausted
                || total.exhausted != Some(ExhaustedBy::Rounds)
            {
                return (outcome, total);
            }
        }
        (ChaseOutcome::BudgetExhausted, total)
    }

    /// Streamed check ≡ buffered check, case 1: two matches pend (neither
    /// conclusion holds while enumerating); the first firing satisfies the
    /// second's conclusion, and the phase-2 re-check must still drop it.
    #[test]
    fn pending_match_satisfied_by_an_earlier_firing_is_dropped() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 2);
        let q = vocab.predicate("Q", 2);
        // P(x, y) → ∃z Q(x, z)
        let tgd = Tgd::new(
            "p-q",
            vec![Atom::new(p, vec![Term::Var(0), Term::Var(1)])],
            vec![Atom::new(q, vec![Term::Var(0), Term::Var(2)])],
        );
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        let b = inst.const_node(vocab.constant("b"));
        let c = inst.const_node(vocab.constant("c"));
        inst.insert(p, vec![a, b]);
        inst.insert(p, vec![a, c]);
        let rules = RuleSet::compile(vec![tgd.into()]);
        let mut offers = 0;
        let mut count = Allow(|_: &Match| {
            offers += 1;
            true
        });
        let (outcome, stats) = ChaseEngine::new(&rules).chase_analyzed(&mut inst, &mut count);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(stats.rules[0].matches, 2, "round two's delta holds no P fact");
        assert_eq!(stats.rules[0].firings, 1, "the second pending match was re-checked");
        assert_eq!(offers, 1, "and dropped before `allow` saw it");
        assert_eq!(inst.num_facts(), 3);
        assert_eq!(inst.num_nulls(), 1);
    }

    /// Case 2: a conclusion that holds before enumeration starts is dropped
    /// in the sink — counted as a match, never offered, never fired.
    #[test]
    fn match_whose_conclusion_already_holds_never_pends() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 1);
        let q = vocab.predicate("Q", 1);
        let tgd = Tgd::new(
            "p-q",
            vec![Atom::new(p, vec![Term::Var(0)])],
            vec![Atom::new(q, vec![Term::Var(0)])],
        );
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        let b = inst.const_node(vocab.constant("b"));
        inst.insert(p, vec![a]);
        inst.insert(p, vec![b]);
        inst.insert(q, vec![a]);
        let rules = RuleSet::compile(vec![tgd.into()]);
        let mut offers = 0;
        let mut count = Allow(|_: &Match| {
            offers += 1;
            true
        });
        let (outcome, stats) = ChaseEngine::new(&rules).chase_analyzed(&mut inst, &mut count);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(stats.rules[0].matches, 2);
        assert_eq!(stats.rules[0].firings, 1, "only P(b) lacks its Q");
        assert_eq!(offers, 1);
        assert_eq!(inst.num_facts(), 4);
        assert_eq!(stats.firings(), 1);
        assert_eq!(stats.matches_enumerated(), 2);
    }

    #[test]
    fn compile_renumbers_sparse_rules_and_keeps_dense_ones() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 2);
        let q = vocab.predicate("Q", 2);
        // P(?7, ?900) → ∃?40 Q(?900, ?40): ids with gaps.
        let sparse = Tgd::new(
            "sparse",
            vec![Atom::new(p, vec![Term::Var(7), Term::Var(900)])],
            vec![Atom::new(q, vec![Term::Var(900), Term::Var(40)])],
        );
        let dense = Egd::functional("q-func", q, 2);
        let rules = RuleSet::compile(vec![sparse.into(), dense.clone().into()]);
        assert_eq!(rules.len(), 2);
        let Constraint::Tgd(t) = rules.rules()[0].constraint() else {
            panic!("kind is kept");
        };
        assert_eq!(t.premise[0].args, vec![Term::Var(0), Term::Var(1)]);
        assert_eq!(t.conclusion[0].args, vec![Term::Var(1), Term::Var(2)]);
        assert_eq!(rules.rules()[0].slots, 3);
        assert_eq!(rules.rules()[0].existentials, vec![2]);
        assert_eq!(rules.rules()[0].name(), "sparse");
        assert_eq!(rules.rules()[1].constraint(), &Constraint::Egd(dense));
        assert_eq!(rules.rules()[1].slots, 3, "?0, ?1 and the equated ?2");
        let sig = FunctionalSig { inputs: vec![0], outputs: vec![1] };
        assert_eq!(rules.rules()[1].sig, Some((q, sig.clone())));
        assert_eq!(rules.functional(q), Some(&sig));
        assert_eq!(rules.functional(p), None);

        // The renumbered rule chases like the original.
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        let b = inst.const_node(vocab.constant("b"));
        inst.insert(p, vec![a, b]);
        let (outcome, stats) = ChaseEngine::new(&rules).chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(stats.rules[0].firings, 1);
        let derived = inst.fact(inst.facts_with_pred(q)[0]);
        assert_eq!(inst.find(derived.args[0]), inst.find(b));
        assert_eq!(inst.const_of(derived.args[1]), None, "a fresh null for the existential");
    }

    /// A toy analysis: every class carries a depth. `make` gives the class
    /// a `Q(y, z)` fact mints the depth of `y` plus one, `join` refuses to
    /// merge classes of different depths, and `even(?v)` holds on even
    /// depths.
    struct Depth {
        depths: Vec<Option<u32>>,
        even: PredId,
    }

    impl Analysis for Depth {
        fn make(&mut self, inst: &Instance, _: usize, _: &Atom, fact: usize) {
            self.depths.resize(inst.num_nodes(), None);
            let &[y, z] = &inst.fact(fact).args[..] else { return };
            let next = self.depths[y.0 as usize].map(|d| d + 1);
            self.depths[z.0 as usize].get_or_insert(next.unwrap_or(0));
        }

        fn join(
            &mut self,
            _: &Instance,
            root: NodeId,
            absorbed: NodeId,
        ) -> Result<(), AnalysisConflict> {
            match (self.depths[root.0 as usize], self.depths[absorbed.0 as usize]) {
                (Some(a), Some(b)) if a != b => Err(AnalysisConflict { root, absorbed }),
                (a, b) => {
                    self.depths[root.0 as usize] = a.or(b);
                    Ok(())
                }
            }
        }

        fn guard(&self, inst: &Instance, guard: &Atom, bindings: &Bindings) -> bool {
            let Some(Term::Var(v)) = guard.args.first() else { return false };
            guard.pred == self.even
                && bindings
                    .get(*v)
                    .and_then(|n| self.depths[inst.find(n).0 as usize])
                    .is_some_and(|d| d % 2 == 0)
        }
    }

    #[test]
    fn analysis_makes_joins_and_guards() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 2);
        let q = vocab.predicate("Q", 2);
        let even = vocab.predicate("even", 1);
        // P(x, y) → ∃z Q(y, z), only where y's depth is even.
        let step = Tgd::new(
            "step",
            vec![Atom::new(p, vec![Term::Var(0), Term::Var(1)])],
            vec![Atom::new(q, vec![Term::Var(1), Term::Var(2)])],
        )
        .with_guard(Atom::new(even, vec![Term::Var(1)]));
        let build = |depths: [u32; 4]| {
            let mut inst = Instance::new();
            let n: Vec<NodeId> = (0..4).map(|_| inst.fresh_null()).collect();
            inst.insert(p, vec![n[0], n[1]]);
            inst.insert(p, vec![n[2], n[3]]);
            (inst, Depth { depths: depths.map(Some).to_vec(), even })
        };

        let rules = RuleSet::compile(vec![step.clone().into()]);
        let (mut inst, mut depth) = build([5, 0, 5, 1]);
        let (outcome, stats) = ChaseEngine::new(&rules).chase_analyzed(&mut inst, &mut depth);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(stats.rules[0].matches, 2, "both premise matches are enumerated");
        assert_eq!(stats.rules[0].firings, 1, "the odd one is refused by the guard");
        assert_eq!(stats.pruned_firings(), 0, "a refusal is not a veto");
        let minted = inst.fact(inst.facts_with_pred(q)[0]).args[1];
        assert_eq!(depth.depths[minted.0 as usize], Some(1), "make saw the minted class");

        // Without an analysis nothing vouches for the guard.
        let (mut bare, _) = build([5, 0, 5, 1]);
        ChaseEngine::new(&rules).chase(&mut bare);
        assert!(bare.facts_with_pred(q).is_empty());

        // P(x, y) → x = y merges depth 5 with depth 0: refused, typed.
        let collapse = Egd::new(
            "collapse",
            vec![Atom::new(p, vec![Term::Var(0), Term::Var(1)])],
            vec![(Term::Var(0), Term::Var(1))],
        );
        let rules = RuleSet::compile(vec![collapse.into()]);
        let (mut inst, mut depth) = build([5, 0, 5, 5]);
        let (outcome, stats) = ChaseEngine::new(&rules).chase_analyzed(&mut inst, &mut depth);
        let ChaseOutcome::AnalysisConflict(conflict) = outcome else {
            panic!("expected a conflict, got {outcome:?}");
        };
        let mut pair = [conflict.root.0, conflict.absorbed.0];
        pair.sort_unstable();
        assert_eq!(pair, [0, 1]);
        assert_eq!(stats.egd_merges, 1, "the refused merge was made, so it counts");
    }

    /// The memo's drain counts a merge the analysis refuses as the join
    /// does: `f(u, a) ∧ f(u, b)` queues `a = b`, whose depths differ.
    #[test]
    fn a_merge_the_analysis_refuses_in_the_drain_is_counted() {
        let mut vocab = Vocabulary::new();
        let f = vocab.predicate("f", 2);
        let even = vocab.predicate("even", 1);
        let rules = RuleSet::compile(vec![Egd::functional("f-func", f, 2).into()]);
        let mut inst = Instance::new();
        let (u, a, b) = (inst.fresh_null(), inst.fresh_null(), inst.fresh_null());
        inst.insert(f, vec![u, a]);
        inst.insert(f, vec![u, b]);
        let mut depth = Depth { depths: vec![Some(0), Some(1), Some(2)], even };
        let (outcome, stats) = ChaseEngine::new(&rules).chase_analyzed(&mut inst, &mut depth);
        let ChaseOutcome::AnalysisConflict(conflict) = outcome else {
            panic!("expected a conflict, got {outcome:?}");
        };
        let mut pair = [conflict.root, conflict.absorbed];
        pair.sort_unstable();
        assert_eq!(pair, [a, b]);
        assert_eq!((stats.rounds, stats.egd_merges), (1, 1));
        assert_eq!(stats.rules[0].matches, 0, "the memo queued it; nothing was enumerated");
    }

    /// An extension is the concatenation compiled — without compiling the
    /// base again: inherited rules are the base's allocations unless an
    /// added EGD changes a signature their conclusion resolves through, a
    /// functional EGD among the added rules wins over the base's for its
    /// predicate, and the base itself is left as it was.
    #[test]
    fn extended_shares_the_base_rules_and_merges_functional_last_wins() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 3);
        let q = vocab.predicate("Q", 2);
        let copy = Tgd::new(
            "copy",
            vec![Atom::new(p, vec![Term::Var(0), Term::Var(1), Term::Var(2)])],
            vec![Atom::new(q, vec![Term::Var(0), Term::Var(1)])],
        );
        let base_list: Vec<Constraint> =
            vec![copy.into(), Egd::functional("p-func", p, 3).into()];
        // Functional in its *first* position only: a different signature.
        let narrower = Egd::new(
            "p-narrow",
            vec![
                Atom::new(p, vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
                Atom::new(p, vec![Term::Var(0), Term::Var(3), Term::Var(4)]),
            ],
            vec![(Term::Var(1), Term::Var(3)), (Term::Var(2), Term::Var(4))],
        );
        let extra: Vec<Constraint> =
            vec![Egd::functional("q-func", q, 2).into(), narrower.clone().into()];

        let base = RuleSet::compile(base_list.clone());
        let ext = base.extended(extra.clone());
        let whole = RuleSet::compile(base_list.into_iter().chain(extra).collect());

        assert_eq!(ext.len(), 4);
        // `q-func` gives Q, which `copy` concludes over, a signature: `copy`
        // alone is compiled again (keeping its name), for its order.
        let inherited: Vec<bool> =
            ext.rules().iter().zip(base.rules()).map(|(e, b)| Arc::ptr_eq(e, b)).collect();
        assert_eq!(inherited, [false, true]);
        assert!(Arc::ptr_eq(&ext.rules()[0].name, &base.rules()[0].name));
        let lookups =
            |set: &RuleSet| set.rules()[0].order.as_ref().map(ResolutionOrder::lookups);
        assert_eq!((lookups(&base), lookups(&ext)), (Some(0), Some(1)));
        for (e, w) in ext.rules().iter().zip(whole.rules()) {
            assert_eq!(e.constraint(), w.constraint());
            assert_eq!(
                (e.slots, &e.existentials, &e.sig, &e.order),
                (w.slots, &w.existentials, &w.sig, &w.order)
            );
        }
        // A changed signature `copy` does not resolve through shares it.
        let narrowed = base.extended(vec![narrower.into()]);
        assert!(narrowed.rules().iter().zip(base.rules()).all(|(n, b)| Arc::ptr_eq(n, b)));
        assert_eq!(ext.functional, whole.functional);
        assert_eq!(ext.functional(p).unwrap().inputs, vec![0], "the later EGD over P wins");
        assert_eq!(base.functional(p).unwrap().inputs, vec![0, 1], "the base keeps its own");
        assert_eq!(base.functional(q), None);

        // Nothing added: the signatures are shared, not copied.
        assert!(Arc::ptr_eq(&base.extended(Vec::new()).functional, &base.functional));
    }

    /// Local xorshift64* for the randomized differential below.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The witness existential reuse took before conclusions were resolved
    /// through the memo, kept as the reference: a fact over `atom`'s
    /// predicate agreeing with the bound inputs, probed through the
    /// positional index on the first input.
    fn witness_reference<'a>(
        inst: &'a Instance,
        atom: &Atom,
        sig: &FunctionalSig,
        bindings: &Bindings,
    ) -> Option<&'a crate::instance::Fact> {
        let input = |p: usize| match atom.args[p] {
            Term::Var(v) => bindings.get(v),
            Term::Const(c) => inst.node_of_const(c),
        };
        if sig.inputs.iter().any(|&p| input(p).is_none()) {
            return None;
        }
        let agrees = |f: &&crate::instance::Fact| {
            sig.inputs
                .iter()
                .all(|&p| input(p).is_some_and(|n| inst.find(f.args[p]) == inst.find(n)))
        };
        let indexed = sig
            .inputs
            .first()
            .and_then(|&p| inst.facts_with_pred_arg(atom.pred, p as u32, inst.find(input(p)?)));
        let candidates = indexed.unwrap_or_else(|| inst.facts_with_pred(atom.pred));
        candidates.iter().map(|&i| inst.fact(i)).find(agrees)
    }

    /// The reuse loop resolution orders replaced, kept as the reference:
    /// passes over the conclusion in its own order until nothing binds.
    fn reuse_reference(
        inst: &Instance,
        conclusion: &[Atom],
        rules: &RuleSet,
        bindings: &mut Bindings,
    ) {
        loop {
            let mut progressed = false;
            for atom in conclusion {
                let Some(sig) = rules.functional(atom.pred) else {
                    continue;
                };
                let unbound = |t: Term| t.as_var().is_some_and(|v| bindings.get(v).is_none());
                if !sig.outputs.iter().any(|&p| unbound(atom.args[p])) {
                    continue;
                }
                let Some(witness) = witness_reference(inst, atom, sig, bindings) else {
                    continue;
                };
                for &p in sig.outputs.iter().rev() {
                    match atom.args[p] {
                        Term::Var(v) if bindings.get(v).is_none() => {
                            bindings.set(v, inst.find(witness.args[p]));
                        }
                        _ => {}
                    }
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// The lookup check equals the general search (`Matcher::satisfiable`),
    /// and reuse binds what the reference loop binds, on seeded random
    /// instances of at most 64 facts and random conclusions: predicates
    /// functional in one output, in two, inversely (input after output, as
    /// `name-unique`) and not at all; same-input chains longer than one
    /// fact, before and after a merge's rehash; constants the instance
    /// never interned; repeated variables; constant output positions.
    #[test]
    fn lookups_decide_what_the_search_decides_and_reuse_what_the_loop_reused() {
        const ARITY: [usize; 5] = [3, 2, 3, 2, 2];
        let (f, g, q, k, n) = (PredId(0), PredId(1), PredId(2), PredId(3), PredId(4));
        let (x, y, z, w) = (Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3));
        let rules = RuleSet::compile(vec![
            Egd::functional("f", f, 3).into(),
            Egd::functional("g", g, 2).into(),
            Egd::new(
                "q",
                vec![Atom::new(q, vec![x, y, z]), Atom::new(q, vec![x, w, Term::Var(4)])],
                vec![(y, w), (z, Term::Var(4))],
            )
            .into(),
            Egd::new(
                "k",
                vec![Atom::new(k, vec![x, z]), Atom::new(k, vec![y, z])],
                vec![(x, y)],
            )
            .into(),
        ]);
        assert_eq!(rules.functional(q).map(|s| s.outputs.len()), Some(2));
        assert_eq!(rules.functional(k).map(|s| s.inputs.clone()), Some(vec![1]));
        assert_eq!(rules.functional(n), None);
        let (mut resolver, mut matcher) = (Resolver::default(), Matcher::default());
        let premise = vec![Atom::new(PredId(9), vec![x, y, z])];

        // One input pair, two facts: the check gets past the newest fact
        // to the older one, and reuse takes the older (lowest-index) one.
        let mut inst = Instance::new();
        inst.index_functional(&rules.functional);
        let [a, b, c1, c2] = [0, 1, 2, 3].map(|c| inst.const_node(SymId(c)));
        inst.insert(f, vec![a, b, c1]);
        inst.insert(f, vec![a, b, c2]);
        let check = Tgd::new("check", premise.clone(), vec![Atom::new(f, vec![x, y, z])]);
        let reuse = Tgd::new("reuse", premise.clone(), vec![Atom::new(f, vec![x, y, w])]);
        let mut partial = Bindings::new(4);
        for (v, node) in [(0, a), (1, b), (2, c1)] {
            partial.set(v, node);
        }
        let order = ResolutionOrder::compile(&check, |p| rules.functional(p));
        assert!(resolver.holds(&inst, &order, &check.conclusion, 4, &partial));
        let order = ResolutionOrder::compile(&reuse, |p| rules.functional(p));
        let mut reused = partial.clone();
        resolver.reuse(&inst, &order, &reuse.conclusion, &mut reused);
        assert_eq!(reused.get(3), Some(c1));

        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut seen = [0usize; 5]; // held, failed, reused, incomplete, long chains
        for round in 0..12 {
            let mut inst = Instance::new();
            if round % 2 == 0 {
                inst.index_functional(&rules.functional); // built as facts arrive
            }
            let mut nodes: Vec<NodeId> = (0..4).map(|c| inst.const_node(SymId(c))).collect();
            nodes.extend((0..3 + rng.below(3)).map(|_| inst.fresh_null()));
            let add_facts = |inst: &mut Instance, rng: &mut XorShift, count: usize| {
                for _ in 0..count {
                    let p = rng.below(5);
                    let args = (0..ARITY[p]).map(|_| nodes[rng.below(nodes.len())]).collect();
                    inst.insert(PredId(p as u32), args);
                }
            };
            let count = 15 + rng.below(20);
            add_facts(&mut inst, &mut rng, count);
            if round % 3 == 0 {
                for _ in 0..2 {
                    let (a, b) = (rng.below(nodes.len()), rng.below(nodes.len()));
                    let _ = inst.merge(nodes[a], nodes[b]); // clashing constants refuse
                }
                inst.rehash();
                let count = rng.below(20);
                add_facts(&mut inst, &mut rng, count);
            }
            inst.index_functional(&rules.functional); // built over the facts there
            assert!(inst.num_facts() <= 64);
            let facts = inst.facts();
            seen[4] += facts
                .iter()
                .enumerate()
                .filter(|(i, a)| {
                    rules.functional(a.pred).is_some_and(|sig| {
                        facts[..*i].iter().any(|b| {
                            b.pred == a.pred
                                && sig.inputs.iter().all(|&p| a.args[p] == b.args[p])
                        })
                    })
                })
                .count();

            for _ in 0..30 {
                // Variables 0..3 are the premise's; 3..6 are existential.
                let conclusion: Vec<Atom> = (0..1 + rng.below(3))
                    .map(|_| {
                        let p = rng.below(5);
                        let args = (0..ARITY[p])
                            .map(|_| match rng.below(6) {
                                0 => Term::Const(SymId(rng.below(5) as u32)), // c4: never interned
                                _ => Term::Var(rng.below(6) as u32),
                            })
                            .collect();
                        Atom::new(PredId(p as u32), args)
                    })
                    .collect();
                let tgd = Tgd::new("t", premise.clone(), conclusion);
                let order = ResolutionOrder::compile(&tgd, |p| rules.functional(p));
                let mut partial = Bindings::new(6);
                for v in 0..3 {
                    partial.set(v, inst.find(nodes[rng.below(nodes.len())]));
                }

                let expected = matcher.satisfiable(&inst, &tgd.conclusion, 6, &partial);
                let held = resolver.holds(&inst, &order, &tgd.conclusion, 6, &partial);
                assert_eq!(held, expected, "check of {:?} under {partial:?}", tgd.conclusion);
                seen[usize::from(!held)] += usize::from(order.is_complete());
                seen[3] += usize::from(!order.is_complete());

                let (mut reused, mut reference) = (partial.clone(), partial.clone());
                resolver.reuse(&inst, &order, &tgd.conclusion, &mut reused);
                reuse_reference(&inst, &tgd.conclusion, &rules, &mut reference);
                assert_eq!(reused, reference, "reuse for {:?}", tgd.conclusion);
                seen[2] += usize::from(reused != partial);
            }
        }
        assert!(seen.iter().all(|&s| s >= 5), "every case is exercised: {seen:?}");
    }

    /// A functional EGD enforced through the memo merges what the premise
    /// join merges: on seeded random instances, the rule set and a copy
    /// whose EGDs carry no signature (each a join, as every EGD was before)
    /// end with the same outcome. A saturated pair has the same classes,
    /// canonical facts and merge count; a clashing pair clashes on the same
    /// two constants, after however many merges its schedule made first.
    /// Copy TGDs after the EGDs add facts sharing inputs with older ones, so
    /// later rounds pair new facts with old; the signatures have one output,
    /// two (QR-shaped), and one input after its output with the equality
    /// written second atom first (a flipped merge).
    #[test]
    fn memo_enforced_egds_merge_what_the_join_merges() {
        const ARITY: [usize; 6] = [3, 3, 2, 3, 3, 2];
        let [f, q, k, rf, rq, rk] = [0, 1, 2, 3, 4, 5].map(PredId);
        let [x, y, z, w, v] = [0, 1, 2, 3, 4].map(Term::Var);
        let copy = |name: &str, from: PredId, to: PredId| -> Constraint {
            let args: Vec<Term> = (0..ARITY[from.0 as usize] as u32).map(Term::Var).collect();
            Tgd::new(name, vec![Atom::new(from, args.clone())], vec![Atom::new(to, args)])
                .into()
        };
        let memo = RuleSet::compile(vec![
            Egd::functional("f", f, 3).into(),
            Egd::new(
                "q",
                vec![Atom::new(q, vec![x, y, z]), Atom::new(q, vec![x, w, v])],
                vec![(y, w), (z, v)],
            )
            .into(),
            Egd::new(
                "k",
                vec![Atom::new(k, vec![x, z]), Atom::new(k, vec![y, z])],
                vec![(y, x)],
            )
            .into(),
            copy("rf", rf, f),
            copy("rq", rq, q),
            copy("rk", rk, k),
        ]);
        assert!(memo.rules()[..3].iter().all(|r| r.sig.is_some()));
        let join = RuleSet {
            rules: memo
                .rules()
                .iter()
                .map(|r| Arc::new(CompiledRule { sig: None, ..(**r).clone() }))
                .collect(),
            functional: Arc::clone(&memo.functional),
        };
        // Each node named by the least node of its class: equal for two
        // instances exactly when their classes are, whichever roots won.
        let classes = |inst: &Instance| -> Vec<u32> {
            let mut least = vec![u32::MAX; inst.num_nodes()];
            (0..inst.num_nodes() as u32)
                .map(|n| {
                    let class = &mut least[inst.find(NodeId(n)).0 as usize];
                    *class = (*class).min(n);
                    *class
                })
                .collect()
        };
        let facts = |inst: &Instance| -> Vec<(PredId, Vec<u32>)> {
            let named = classes(inst);
            let mut facts: Vec<(PredId, Vec<u32>)> = inst
                .facts()
                .iter()
                .map(|f| (f.pred, f.args.iter().map(|a| named[a.0 as usize]).collect()))
                .collect();
            facts.sort();
            facts
        };
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut seen = [0usize; 3]; // saturated, merged after round one, clashed
        for _ in 0..60 {
            // Nodes 0 and 1 are constants, rarely used, so merges can clash.
            let nodes = 5 + rng.below(4);
            let node = |rng: &mut XorShift| match rng.below(10) {
                0 => rng.below(2),
                _ => 2 + rng.below(nodes - 2),
            };
            let spec: Vec<(PredId, Vec<usize>)> = (0..10 + rng.below(20))
                .map(|_| {
                    let p = rng.below(6);
                    (PredId(p as u32), (0..ARITY[p]).map(|_| node(&mut rng)).collect())
                })
                .collect();
            let build = || {
                let mut inst = Instance::new();
                let ids: Vec<NodeId> = (0..nodes)
                    .map(|i| {
                        if i < 2 {
                            inst.const_node(SymId(i as u32))
                        } else {
                            inst.fresh_null()
                        }
                    })
                    .collect();
                for (p, args) in &spec {
                    inst.insert(*p, args.iter().map(|&a| ids[a]).collect());
                }
                inst
            };
            let (mut by_memo, mut by_join) = (build(), build());
            let (memo_outcome, memo_stats) = ChaseEngine::new(&memo).chase(&mut by_memo);
            let (join_outcome, join_stats) = ChaseEngine::new(&join).chase(&mut by_join);
            match (memo_outcome, join_outcome) {
                (ChaseOutcome::ConstClash(m), ChaseOutcome::ConstClash(j)) => {
                    let pair = |c: ConstClash| if c.a < c.b { (c.a, c.b) } else { (c.b, c.a) };
                    assert_eq!(pair(m), pair(j), "{spec:?}");
                    seen[2] += 1;
                }
                (m, j) => {
                    assert_eq!(m, j, "{spec:?}");
                    assert_eq!(memo_stats.egd_merges, join_stats.egd_merges, "{spec:?}");
                    assert_eq!(classes(&by_memo), classes(&by_join), "{spec:?}");
                    assert_eq!(facts(&by_memo), facts(&by_join), "{spec:?}");
                }
            }
            // The memo's EGDs enumerate nothing: they merge what it queued.
            assert!(memo_stats.rules[..3].iter().all(|r| r.matches == 0), "{memo_stats:?}");
            let one_round = ChaseBudget { max_rounds: 1, ..ChaseBudget::default() };
            let (_, first) = ChaseEngine::new(&memo).with_budget(one_round).chase(&mut build());
            seen[0] += usize::from(memo_outcome == ChaseOutcome::Saturated);
            seen[1] += usize::from(memo_stats.egd_merges > first.egd_merges);
        }
        assert!(seen.iter().all(|&s| s >= 10), "every case is exercised: {seen:?}");
    }
}
