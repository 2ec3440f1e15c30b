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
//! Premise matching is **semi-naïve** by default ([`EvalMode::SemiNaive`]):
//! each rule keeps a watermark into the instance's revision clock and only
//! enumerates matches touching facts stamped after it — fresh insertions
//! plus facts rewritten by EGD merges (the merged classes feed back into
//! the frontier through `rehash` re-stamping). The first time a rule runs
//! its watermark is zero, so round one is the classic naive round. The
//! naive mode re-enumerates every homomorphism each round and is kept for
//! differential testing and as the enumeration-count baseline.
//!
//! Cost-based pruning (`Prune_prov`, §7.3) plugs in through the [`Pruner`]
//! trait: a firing whose premise image already costs more than the best
//! known rewriting never executes (Example 7.2). Note that under semi-naïve
//! evaluation a *vetoed* firing is not re-offered to the pruner until one of
//! its premise facts is re-stamped; pruners whose thresholds loosen over
//! time should run in naive mode.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::constraint::{Constraint, Egd, Tgd};
use crate::homomorphism::{self, Match};
use crate::instance::{ConstClash, Instance, NodeId};
use crate::provenance::Provenance;
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
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Deadline => f.write_str("deadline exceeded"),
            DegradeReason::Budget(b) => write!(f, "{b} exhausted"),
            DegradeReason::WorkerPanic => f.write_str("worker panic contained"),
            DegradeReason::Fault => f.write_str("injected fault"),
            DegradeReason::MaintenancePoisoned => f.write_str("view maintenance poisoned"),
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
    /// Candidate ranking / verification.
    Ranking,
    /// Incremental view maintenance.
    Maintenance,
}

impl std::fmt::Display for RewritePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RewritePhase::Chase => "chase",
            RewritePhase::Backchase => "backchase",
            RewritePhase::Extraction => "extraction",
            RewritePhase::Ranking => "ranking",
            RewritePhase::Maintenance => "maintenance",
        };
        f.write_str(s)
    }
}

/// Premise-matching strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Re-enumerate every homomorphism of every rule each round.
    Naive,
    /// Delta-driven: only enumerate matches touching facts stamped after
    /// the rule's last run (plus one full first round per rule).
    #[default]
    SemiNaive,
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
}

/// Veto hook for TGD firings (cost-based pruning).
pub trait Pruner {
    /// Return `false` to skip this firing. `rule_idx` indexes the engine's
    /// constraint list; `m` is the premise match.
    fn allow_firing(&mut self, inst: &Instance, rule_idx: usize, tgd: &Tgd, m: &Match) -> bool;
}

/// Pruner that allows everything (the naive PACB behaviour).
pub struct NoPrune;

impl Pruner for NoPrune {
    fn allow_firing(&mut self, _: &Instance, _: usize, _: &Tgd, _: &Match) -> bool {
        true
    }
}

/// Oracle answering cost questions about prospective TGD firings — the
/// abstraction behind `Prune_prov` (paper §7.3): PACB's backchase prices a
/// firing by the provenance of its premise image (relational scan costs).
pub trait CostOracle {
    /// Estimated lower-bound cost of any rewriting that uses what this
    /// firing derives. `0.0` means "nothing can be bounded" and the firing
    /// is always allowed.
    fn firing_cost(&self, inst: &Instance, tgd: &Tgd, m: &Match) -> f64;
}

/// `Prune_prov` as a [`Pruner`]: vetoes firings whose oracle cost exceeds
/// a fixed threshold (PACB passes the cost of the original query). The
/// threshold never loosens, so the pruner is safe under semi-naïve
/// evaluation.
pub struct CostPruner<'a> {
    oracle: &'a dyn CostOracle,
    threshold: f64,
}

impl<'a> CostPruner<'a> {
    /// A pruner vetoing firings the oracle prices above `threshold`.
    pub fn new(oracle: &'a dyn CostOracle, threshold: f64) -> Self {
        CostPruner { oracle, threshold }
    }
}

impl Pruner for CostPruner<'_> {
    fn allow_firing(&mut self, inst: &Instance, _: usize, tgd: &Tgd, m: &Match) -> bool {
        self.oracle.firing_cost(inst, tgd, m) <= self.threshold
    }
}

/// Per-rule statistics from a chase run (exposed so the optimizer can report
/// which LA properties fired, cf. the paper's per-pipeline discussions).
#[derive(Debug, Clone, Default)]
pub struct ChaseStats {
    /// Rounds the chase ran before saturating or exhausting its budget.
    pub rounds: usize,
    /// Successful firings per TGD, in the engine's constraint order.
    pub tgd_firings: Vec<(String, usize)>,
    /// Node merges performed by EGDs.
    pub egd_merges: usize,
    /// Total firings vetoed by the cost pruner.
    pub pruned_firings: usize,
    /// Firings vetoed by the pruner, per rule (same order as the engine's
    /// constraint list; EGDs are never offered to the pruner and stay 0).
    pub rule_vetoes: Vec<(String, usize)>,
    /// Premise matches enumerated per rule (same order as the engine's
    /// constraint list). Semi-naïve evaluation should report dramatically
    /// fewer than naive on saturating workloads.
    pub rule_matches: Vec<(String, u64)>,
    /// Size of the delta frontier at the start of each round (round one
    /// counts every fact).
    pub round_deltas: Vec<usize>,
    /// When the outcome is [`ChaseOutcome::BudgetExhausted`], which bound
    /// tripped.
    pub exhausted: Option<ExhaustedBy>,
}

impl ChaseStats {
    /// Total premise matches enumerated across all rules and rounds.
    pub fn matches_enumerated(&self) -> u64 {
        self.rule_matches.iter().map(|(_, n)| n).sum()
    }

    /// Total successful TGD firings across all rules.
    pub fn firings(&self) -> u64 {
        self.tgd_firings.iter().map(|(_, n)| *n as u64).sum()
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
    VETOES.add(stats.pruned_firings as u64);
    MERGES.add(stats.egd_merges as u64);
    MATCHES.add(stats.matches_enumerated());
    if stats.exhausted == Some(ExhaustedBy::Deadline) {
        DEADLINES.incr();
    }
}

/// A premise match buffered for application, flattened so the enumeration
/// sink copies two small vectors instead of cloning a whole [`Match`]
/// (with its `HashMap`) per match.
struct PendingFiring {
    bindings: Vec<(u32, NodeId)>,
    fact_indices: Vec<usize>,
}

/// Positions a predicate is functional in, derived from the engine's own
/// EGDs: `inputs` are the agreeing positions of the two-atom premise,
/// `outputs` the equated ones. Existence of such an EGD proves that the
/// outputs are semantically determined by the inputs, which is what makes
/// conclusion-atom *reuse* sound (see [`ChaseEngine::apply_tgd`]). Public
/// so static analysis (`hadad-analyze`) can certify which TGD existentials
/// the engine will bind by reuse rather than mint as fresh nulls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalSig {
    /// Premise positions the two atoms agree on (the functional key).
    pub inputs: Vec<usize>,
    /// Positions whose values the EGD forces equal (determined outputs).
    pub outputs: Vec<usize>,
}

/// Detects the generalized `Egd::functional` shape: two atoms over one
/// predicate whose args agree on the `inputs` positions and carry distinct,
/// premise-unique variables on the `outputs` positions, every such pair
/// (and nothing else) being equated. Covers `I_multiM` (one output) and
/// the QR/LU EGDs (two outputs) as well as inverse-functional constraints
/// like `name-unique` (input = the name constant position).
pub fn functional_sig(egd: &Egd) -> Option<(crate::symbols::PredId, FunctionalSig)> {
    let [a, b] = egd.premise.as_slice() else {
        return None;
    };
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return None;
    }
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut pairs = Vec::new();
    for (i, (ta, tb)) in a.args.iter().zip(&b.args).enumerate() {
        if ta == tb {
            inputs.push(i);
        } else {
            let (Term::Var(x), Term::Var(y)) = (ta, tb) else {
                return None;
            };
            // The equated variables must be tied to their slot alone.
            let occurrences = |v: u32| {
                egd.premise.iter().flat_map(|a| &a.args).filter(|t| **t == Term::Var(v)).count()
            };
            if occurrences(*x) != 1 || occurrences(*y) != 1 {
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

/// The chase engine: an ordered list of constraints plus budgets.
#[derive(Debug, Clone)]
pub struct ChaseEngine {
    /// The dependencies to saturate under, in firing order.
    pub constraints: Vec<Constraint>,
    /// Resource bounds ending a divergent run.
    pub budget: ChaseBudget,
    /// Naive or semi-naïve premise evaluation.
    pub mode: EvalMode,
}

impl ChaseEngine {
    /// An engine over `constraints` with default budget and mode.
    pub fn new(constraints: Vec<Constraint>) -> Self {
        ChaseEngine { constraints, budget: ChaseBudget::default(), mode: EvalMode::default() }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the evaluation mode.
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the chase to fixpoint (or budget) without pruning.
    pub fn chase(&self, inst: &mut Instance) -> (ChaseOutcome, ChaseStats) {
        self.chase_with(inst, &mut NoPrune)
    }

    /// Runs the chase with a pruning hook.
    ///
    /// Every run publishes its aggregate [`ChaseStats`] to the shared
    /// `hadad-obs` metrics registry (`chase.rounds`, `chase.rule_firings`,
    /// `chase.rule_vetoes`, `chase.egd_merges`, `chase.matches`,
    /// `chase.deadline_expiries`) and executes under a `"chase"` tracing
    /// span — the per-rule vectors in the returned stats stay the
    /// fine-grained record.
    pub fn chase_with(
        &self,
        inst: &mut Instance,
        pruner: &mut dyn Pruner,
    ) -> (ChaseOutcome, ChaseStats) {
        let _span = hadad_obs::span("chase");
        let (outcome, stats) = self.chase_run(inst, pruner);
        publish_chase_metrics(&stats);
        (outcome, stats)
    }

    fn chase_run(
        &self,
        inst: &mut Instance,
        pruner: &mut dyn Pruner,
    ) -> (ChaseOutcome, ChaseStats) {
        let mut stats = ChaseStats {
            tgd_firings: self.constraints.iter().map(|c| (c.name().to_owned(), 0)).collect(),
            rule_matches: self.constraints.iter().map(|c| (c.name().to_owned(), 0)).collect(),
            rule_vetoes: self.constraints.iter().map(|c| (c.name().to_owned(), 0)).collect(),
            ..Default::default()
        };
        // Predicates the engine's own EGDs prove functional: conclusion
        // atoms over them may bind existentials to existing witnesses
        // (core-chase-style reuse) instead of churning fresh nulls the
        // EGDs would merge a round later.
        let functional: HashMap<crate::symbols::PredId, FunctionalSig> = self
            .constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::Egd(e) => functional_sig(e),
                Constraint::Tgd(_) => None,
            })
            .collect();
        // Per-rule clock watermark: facts stamped after it are this rule's
        // delta. Zero means "everything is new" (the naive first round).
        let mut last_seen: Vec<u64> = vec![0; self.constraints.len()];
        let mut prev_round_clock = 0u64;
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
            stats.round_deltas.push(inst.delta_size(prev_round_clock));
            prev_round_clock = inst.clock();
            let mut changed = false;
            for (ci, c) in self.constraints.iter().enumerate() {
                let watermark = match self.mode {
                    EvalMode::Naive => 0,
                    EvalMode::SemiNaive => last_seen[ci],
                };
                // Snapshot before enumeration: facts this rule creates (or
                // EGD re-stamps) during application stay in its next delta.
                let snapshot = inst.clock();
                match c {
                    Constraint::Egd(egd) => {
                        match self.apply_egd(
                            inst,
                            egd,
                            watermark,
                            &mut stats.rule_matches[ci].1,
                        ) {
                            Ok(merges) => {
                                if merges > 0 {
                                    stats.egd_merges += merges;
                                    changed = true;
                                }
                            }
                            Err(clash) => return (ChaseOutcome::ConstClash(clash), stats),
                        }
                    }
                    Constraint::Tgd(tgd) => {
                        let (fired, pruned, over_budget) = self.apply_tgd(
                            inst,
                            ci,
                            tgd,
                            pruner,
                            watermark,
                            &functional,
                            &mut stats.rule_matches[ci].1,
                        );
                        stats.tgd_firings[ci].1 += fired;
                        stats.pruned_firings += pruned;
                        stats.rule_vetoes[ci].1 += pruned;
                        if fired > 0 {
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

    /// Applies one EGD over its delta; returns the number of merges, or the
    /// clashing constants. Merge requests stream out of the enumeration
    /// sink (no match materialization) and apply afterwards.
    fn apply_egd(
        &self,
        inst: &mut Instance,
        egd: &Egd,
        watermark: u64,
        matches_seen: &mut u64,
    ) -> Result<usize, ConstClash> {
        // A merge target is either a node bound during the match or a
        // constant to intern at application time.
        enum MergeArg {
            Node(NodeId),
            Const(crate::symbols::SymId),
        }
        let resolve = |bindings: &HashMap<u32, NodeId>, t: &Term| match t {
            Term::Var(v) => bindings.get(v).copied().map(MergeArg::Node),
            Term::Const(c) => Some(MergeArg::Const(*c)),
        };
        let mut merges: Vec<(MergeArg, MergeArg)> = Vec::new();
        let mut collect = |m: &Match| {
            *matches_seen += 1;
            for (l, r) in &egd.equalities {
                if let (Some(ln), Some(rn)) = (resolve(&m.bindings, l), resolve(&m.bindings, r))
                {
                    merges.push((ln, rn));
                }
            }
            true
        };
        if is_symmetric_pair(egd) {
            homomorphism::for_each_match_since_symmetric(
                inst,
                &egd.premise,
                watermark,
                &mut collect,
            );
        } else {
            homomorphism::for_each_match_since(inst, &egd.premise, watermark, &mut collect);
        }
        if merges.is_empty() {
            return Ok(0);
        }
        let mut count = 0;
        for (a, b) in merges {
            let a = match a {
                MergeArg::Node(n) => n,
                MergeArg::Const(c) => inst.const_node(c),
            };
            let b = match b {
                MergeArg::Node(n) => n,
                MergeArg::Const(c) => inst.const_node(c),
            };
            if inst.find(a) != inst.find(b) {
                inst.merge(a, b)?;
                count += 1;
            }
        }
        if count > 0 {
            inst.rehash();
        }
        Ok(count)
    }

    /// Applies one TGD (restricted semantics, with core-chase-style
    /// existential reuse through `functional` predicates) over its delta.
    /// Returns `(firings, pruned, over_budget)`.
    #[allow(clippy::too_many_arguments)]
    fn apply_tgd(
        &self,
        inst: &mut Instance,
        rule_idx: usize,
        tgd: &Tgd,
        pruner: &mut dyn Pruner,
        watermark: u64,
        functional: &HashMap<crate::symbols::PredId, FunctionalSig>,
        matches_seen: &mut u64,
    ) -> (usize, usize, Option<ExhaustedBy>) {
        let existentials = tgd.existential_vars();
        // Phase 1: stream premise matches into a flat buffer (immutable
        // borrow; the sink copies bindings + fact indices, not Matches).
        let mut pending: Vec<PendingFiring> = Vec::new();
        homomorphism::for_each_match_since(inst, &tgd.premise, watermark, &mut |m| {
            *matches_seen += 1;
            pending.push(PendingFiring {
                bindings: m.bindings.iter().map(|(&v, &n)| (v, n)).collect(),
                fact_indices: m.fact_indices.clone(),
            });
            true
        });
        let mut fired = 0usize;
        let mut pruned = 0usize;

        // Phase 2: re-check satisfiability against the instance as it grows
        // (restricted chase), consult the pruner, and apply. Fact indices
        // stay valid throughout: TGD application only appends facts.
        // The deadline is re-checked every `DEADLINE_STRIDE` firings so a
        // rule with a huge pending buffer can't blow past it by a round.
        const DEADLINE_STRIDE: usize = 64;
        for (fi, firing) in pending.into_iter().enumerate() {
            if fi % DEADLINE_STRIDE == 0 && self.budget.deadline_passed() {
                return (fired, pruned, Some(ExhaustedBy::Deadline));
            }
            let relevant: HashMap<u32, NodeId> = firing.bindings.iter().copied().collect();
            if homomorphism::satisfiable_with(inst, &tgd.conclusion, &relevant) {
                continue;
            }
            let m = Match { bindings: relevant, fact_indices: firing.fact_indices };
            if !pruner.allow_firing(inst, rule_idx, tgd, &m) {
                pruned += 1;
                continue;
            }
            // Provenance of new facts: conjunction of the premise image.
            let premise_provs: Vec<&Provenance> =
                m.fact_indices.iter().map(|&fi| &inst.fact(fi).prov).collect();
            let prov = Provenance::and_all(&premise_provs);
            let mut bindings = m.bindings;
            // Existential reuse: a conclusion atom over a functional
            // predicate whose input positions are fully bound determines
            // its outputs semantically — if a witnessing fact exists, bind
            // the existentials to it instead of minting fresh nulls the
            // functional EGD would merge (and re-stamp) a round later.
            // Iterated because one reuse can bind another atom's inputs
            // (e.g. `mul(b,c,F) ∧ mul(a,F,W)` chains through `F`).
            loop {
                let mut progressed = false;
                for atom in &tgd.conclusion {
                    let Some(sig) = functional.get(&atom.pred) else {
                        continue;
                    };
                    let unbound: Vec<(usize, u32)> = sig
                        .outputs
                        .iter()
                        .filter_map(|&p| match atom.args[p] {
                            Term::Var(v) if !bindings.contains_key(&v) => Some((p, v)),
                            _ => None,
                        })
                        .collect();
                    if unbound.is_empty() {
                        continue;
                    }
                    let input_nodes: Option<Vec<(usize, NodeId)>> = sig
                        .inputs
                        .iter()
                        .map(|&p| match atom.args[p] {
                            Term::Var(v) => bindings.get(&v).map(|&n| (p, n)),
                            Term::Const(c) => inst.node_of_const(c).map(|n| (p, n)),
                        })
                        .collect();
                    let Some(input_nodes) = input_nodes else {
                        continue;
                    };
                    if let Some(fact) = find_witness(inst, atom.pred, &input_nodes) {
                        for &(p, v) in &unbound {
                            bindings.insert(v, fact[p]);
                        }
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            for &ev in &existentials {
                bindings.entry(ev).or_insert_with(|| inst.fresh_null());
            }
            for atom in &tgd.conclusion {
                let args: Vec<NodeId> = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => *bindings.get(v).expect("conclusion var bound"),
                        Term::Const(c) => inst.const_node(*c),
                    })
                    .collect();
                inst.insert(atom.pred, args, prov.clone(), Some(rule_idx));
            }
            fired += 1;
            if inst.num_facts() > self.budget.max_facts {
                return (fired, pruned, Some(ExhaustedBy::Facts));
            }
            if inst.num_nulls() > self.budget.max_nulls {
                return (fired, pruned, Some(ExhaustedBy::Nulls));
            }
        }
        (fired, pruned, None)
    }
}

/// Canonical args of a fact over `pred` agreeing with `input_nodes` at the
/// given positions, if one exists — the witness an existential reuse binds
/// to. Probes the positional index through the first input position (the
/// instance is canonical during TGD application); a predicate functional
/// in *all* positions has at most one semantically distinct fact, so the
/// first is taken.
fn find_witness(
    inst: &Instance,
    pred: crate::symbols::PredId,
    input_nodes: &[(usize, NodeId)],
) -> Option<Vec<NodeId>> {
    let matches_inputs =
        |args: &[NodeId]| input_nodes.iter().all(|&(p, n)| inst.find(args[p]) == inst.find(n));
    let scan = |idxs: &[usize]| {
        idxs.iter()
            .map(|&i| inst.fact(i))
            .find(|f| matches_inputs(&f.args))
            .map(|f| f.args.iter().map(|&a| inst.find(a)).collect())
    };
    match input_nodes.first() {
        Some(&(p, n)) => match inst.facts_with_pred_arg(pred, p as u32, inst.find(n)) {
            Some(idxs) => scan(idxs),
            None => scan(inst.facts_with_pred(pred)),
        },
        None => scan(inst.facts_with_pred(pred)),
    }
}

/// True for the `Egd::functional` shape: two atoms over the same predicate
/// that agree everywhere except one position holding two distinct variables
/// equated by the EGD. Matches of such a premise are closed under swapping
/// the atoms, so the engine may enumerate only one orientation.
fn is_symmetric_pair(egd: &Egd) -> bool {
    let [a, b] = egd.premise.as_slice() else {
        return false;
    };
    if a.pred != b.pred || a.args.len() != b.args.len() || egd.equalities.len() != 1 {
        return false;
    }
    let mut diff = None;
    for (ta, tb) in a.args.iter().zip(&b.args) {
        if ta != tb {
            if diff.is_some() {
                return false;
            }
            diff = Some((ta, tb));
        }
    }
    match diff {
        Some((Term::Var(x), Term::Var(y))) => {
            // The swap argument needs each differing variable tied to its
            // atom's slot alone: occurring anywhere else in the premise
            // (e.g. [f(x,x), f(x,y)]) breaks the mirror-match bijection.
            let occurrences = |v: u32| {
                egd.premise.iter().flat_map(|a| &a.args).filter(|t| **t == Term::Var(v)).count()
            };
            if occurrences(*x) != 1 || occurrences(*y) != 1 {
                return false;
            }
            let eq = &egd.equalities[0];
            *eq == (Term::Var(*x), Term::Var(*y)) || *eq == (Term::Var(*y), Term::Var(*x))
        }
        _ => false,
    }
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
        inst.insert(review, vec![p, r1, t1], Provenance::empty(), None);
        inst.insert(review, vec![p, r2, t2], Provenance::empty(), None);

        let engine = ChaseEngine::new(vec![tgd.into(), egd.into()]);
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
        inst.insert(p, vec![a], Provenance::empty(), None);
        let engine = ChaseEngine::new(vec![tgd.into()]);
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
        inst.insert(e, vec![a, b], Provenance::empty(), None);
        let engine = ChaseEngine::new(vec![tgd.into()]).with_budget(ChaseBudget {
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

    #[test]
    fn pruner_vetoes_firings() {
        struct VetoAll;
        impl Pruner for VetoAll {
            fn allow_firing(&mut self, _: &Instance, _: usize, _: &Tgd, _: &Match) -> bool {
                false
            }
        }
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
        inst.insert(p, vec![a], Provenance::empty(), None);
        let engine = ChaseEngine::new(vec![tgd.into()]);
        let (outcome, stats) = engine.chase_with(&mut inst, &mut VetoAll);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(inst.facts_with_pred(q).len(), 0);
        assert!(stats.pruned_firings > 0);
    }

    #[test]
    fn cost_pruner_vetoes_above_threshold() {
        /// Prices every firing at the number of premise facts, scaled.
        struct FactCountOracle(f64);
        impl CostOracle for FactCountOracle {
            fn firing_cost(&self, _: &Instance, _: &Tgd, m: &Match) -> f64 {
                self.0 * m.fact_indices.len() as f64
            }
        }
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
            inst.insert(p, vec![a], Provenance::empty(), None);
            inst
        };
        let engine = ChaseEngine::new(vec![tgd.into()]);

        // Threshold below the firing cost: vetoed, counted per rule.
        let oracle = FactCountOracle(10.0);
        let mut inst = build(&mut vocab);
        let mut pruner = CostPruner::new(&oracle, 5.0);
        let (_, stats) = engine.chase_with(&mut inst, &mut pruner);
        assert_eq!(inst.facts_with_pred(q).len(), 0);
        assert_eq!(stats.pruned_firings, 1);
        assert_eq!(stats.rule_vetoes, vec![("p-q".to_owned(), 1)]);

        // Threshold above: fires.
        let mut inst = build(&mut vocab);
        let mut pruner = CostPruner::new(&oracle, 50.0);
        let (_, stats) = engine.chase_with(&mut inst, &mut pruner);
        assert_eq!(inst.facts_with_pred(q).len(), 1);
        assert_eq!(stats.pruned_firings, 0);
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
        inst.insert(f, vec![x, o1], Provenance::empty(), None);
        inst.insert(f, vec![x, o2], Provenance::empty(), None);
        let engine = ChaseEngine::new(vec![egd.into()]);
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
        inst.insert(f, vec![x, n1], Provenance::empty(), None);
        inst.insert(f, vec![x, n2], Provenance::empty(), None);
        let engine = ChaseEngine::new(vec![egd.into()]);
        let (outcome, _) = engine.chase(&mut inst);
        match outcome {
            ChaseOutcome::ConstClash(clash) => {
                let pair = [clash.a, clash.b];
                assert!(pair.contains(&one) && pair.contains(&two), "payload: {clash:?}");
            }
            other => panic!("expected ConstClash, got {other:?}"),
        }
    }

    #[test]
    fn symmetric_pair_detection_requires_unique_diff_vars() {
        use crate::symbols::PredId;
        assert!(is_symmetric_pair(&Egd::functional("f", PredId(0), 3)));
        // [f(x,x), f(x,y)] → x = y: one differing position, but x also
        // occurs elsewhere, so the atom-swap mirror argument fails and the
        // single-orientation pass must not be used.
        let tricky = Egd::new(
            "tricky",
            vec![
                Atom::new(PredId(0), vec![Term::Var(0), Term::Var(0)]),
                Atom::new(PredId(0), vec![Term::Var(0), Term::Var(1)]),
            ],
            vec![(Term::Var(0), Term::Var(1))],
        );
        assert!(!is_symmetric_pair(&tricky));
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
        inst.insert(f, vec![a, a], Provenance::empty(), None);
        inst.insert(q, vec![a, n], Provenance::empty(), None);
        // EGD ordered first so its first (naive) round sees only f(a,a);
        // the TGD then adds f(a,n) and the EGD's delta round must pair the
        // old f(a,a) with the new f(a,n) to merge a = n.
        let engine = ChaseEngine::new(vec![egd.into(), tgd.into()]);
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
                inst.insert(e, vec![w[0], w[1]], Provenance::empty(), None);
            }
            inst
        };
        let mut naive_inst = build();
        let mut semi_inst = build();
        let naive = ChaseEngine::new(rules.clone()).with_mode(EvalMode::Naive);
        let semi = ChaseEngine::new(rules);
        let (o1, s1) = naive.chase(&mut naive_inst);
        let (o2, s2) = semi.chase(&mut semi_inst);
        assert_eq!(o1, ChaseOutcome::Saturated);
        assert_eq!(o2, ChaseOutcome::Saturated);
        assert_eq!(naive_inst.num_facts(), semi_inst.num_facts());
        assert_eq!(naive_inst.facts_with_pred(t).len(), 15); // 5+4+3+2+1
        assert!(
            s2.matches_enumerated() < s1.matches_enumerated(),
            "semi-naïve {} should beat naive {}",
            s2.matches_enumerated(),
            s1.matches_enumerated()
        );
        assert_eq!(s2.round_deltas[0], 5, "round one sees all base facts");
    }
}
