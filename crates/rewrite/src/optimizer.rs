//! The end-to-end rewriting facade: encode → chase under the MMC
//! catalogue → decode candidates → rank by estimated cost → (optionally)
//! execute to check semantic equivalence.
//!
//! This is the paper's §4–§7 loop specialized to pure LA inputs: the chase
//! saturates the VREM encoding of the input expression under `LAprop`, and
//! cost-ranked extraction from the saturated instance plays the role of
//! the backchase — every candidate it returns is a full reformulation
//! justified by the constraints, and the cost model picks the winner.
//! There is one cost model, `op_cost`, in reference flops, so plan choice
//! is the same on every host; `rewrite_verified` and `check_equivalent`
//! evaluate on [`default_backend`]. Extraction ([`Extractor`]) prices every
//! candidate as the plan it builds, which is the price `expr_estimate`
//! gives that plan, so ranking only sorts: a plan's `est_cost` is the
//! extraction's price, and the original's is `expr_estimate`'s.
//!
//! The constraint set a call chases with is the process-wide standard
//! catalogue ([`Catalogue::shared_standard`]: LA properties are fixed, so
//! they are interned and compiled once) plus, where the call's chain
//! tables are instance facts (below), the `V_IO`/`V_OI` pair of each
//! registered view, built against the call's catalog into a clone of the
//! shared [`Vrem`] the call's expression is encoded into. That clone
//! copies no name: the shared vocabulary is frozen, and the clone owns only
//! the tail the call interns into (its leaf names, its views' constants).
//! An optimizer without views chases over the shared rule set as it is, and
//! so does a call whose tables are kept out of the instance; otherwise `v`
//! views compile `2·v` rules per call and share the rest
//! ([`RuleSet::extended`]). Nothing is kept from one call to the next, so
//! nothing is keyed, locked or evicted.
//!
//! The call's catalog is a clone of the optimizer's [`MetaCatalog`] with
//! the call's cast and view entries registered into its tail. The
//! optimizer's catalog is frozen by [`Optimizer::new`] and by every
//! snapshot publish of a hybrid optimizer ([`MetaCatalog::freeze`]), so
//! that clone shares the registered matrices by pointer: its cost follows
//! the call's own entries, not the size of the catalog. So does the
//! plan-cache key's configuration hash, computed when the budget, the
//! deadline or the views change rather than per call. The rest of the key
//! is read from the call's catalog: each leaf's metadata (the cast leaf's
//! included) and, with views, the entries of each view and of each leaf of
//! its definition. That is everything the cold path reads, so a hit is the
//! plan the cold path would build ([`crate::cache`]). Everything up to
//! the cold path — the call's catalog, pricing the original, and the cache
//! key and probe (serving a hit) — is one timed phase,
//! [`RewriteReport::setup_us`].
//!
//! Encoding includes each product chain's matrix-chain table, so the chase
//! starts the two associativity rules where the tables end
//! ([`Catalogue::watermark_rules`]). The encoder decides where a table
//! goes ([`hadad_core::Encoded::tabulate_chains_as_cells`]). Offered the
//! call's views, it keeps a table out of the instance wherever nothing but
//! associativity could read it, and makes each product-chain view a `Mat`
//! leaf of its factor sequence's cell — what the view's `V_IO` rule would
//! derive — so the call chases the shared standard set. Where it declines,
//! the call builds its views' pairs and inserts the tables as facts
//! ([`hadad_core::Encoded::tabulate_chains`]), where view rules, `tr-mul`
//! and the rest can read them; both are encoding work
//! ([`RewriteReport::encode_us`]).
//!
//! The chase runs with the LA analysis ([`LaAnalysis`]): shapes seeded by
//! the encoder, kept for the classes the chase creates and merges, and
//! read by extraction. A constraint that merges classes of different
//! shapes ends the call with the original plan, degraded
//! ([`DegradeReason::AnalysisConflict`]).

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use hadad_chase::{
    degradation_of, ChaseBudget, ChaseEngine, ChaseOutcome, ChaseStats, Constraint,
    DegradeReason, Degraded, RewritePhase, RuleSet,
};
use hadad_core::fingerprint::{canonicalize, rename_leaves};
use hadad_core::{
    expr_estimate, expr_stats, Catalogue, ClassData, Encoded, Encoder, Expr, Extractor,
    LaAnalysis, MatrixMeta, MetaCatalog, RuleRejection, ShapeError, ViewRules, Vrem,
};
use hadad_linalg::{approx_eq, default_backend, Matrix};

use crate::cache::{CacheReport, CachedPlans, PlanCache, PlanCacheKey};
use crate::eval::{eval_with, Env, EvalError};

// Shared-registry instrumentation for the rewrite pipeline. The phase
// histograms record the *same* measurements the `RewriteReport` timing
// fields carry — the report is a per-call view of these process metrics.
static M_REWRITE_CALLS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("rewrite.calls");
static M_CACHE_SERVED: hadad_obs::LazyCounter =
    hadad_obs::LazyCounter::new("rewrite.cache_served");
static M_DEGRADED: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("rewrite.degraded");
static M_CONFLICTS: hadad_obs::LazyCounter =
    hadad_obs::LazyCounter::new("rewrite.analysis_conflicts");
static M_TOTAL_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("rewrite.total_us");
static M_ENCODE_US: hadad_obs::LazyHistogram =
    hadad_obs::LazyHistogram::new("rewrite.encode_us");
static M_CHASE_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("rewrite.chase_us");
static M_EXTRACT_US: hadad_obs::LazyHistogram =
    hadad_obs::LazyHistogram::new("rewrite.extract_us");
static M_RANK_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("rewrite.rank_us");
static M_SETUP_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("rewrite.setup_us");

/// Where a cache miss's plans are stored: the cache and their key.
type CacheSlot = (Arc<PlanCache>, PlanCacheKey);

/// One candidate plan: an expression equivalent to the input under the
/// catalogue, with its estimated cost.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The rewritten expression.
    pub expr: Expr,
    /// Estimated execution cost, in reference flops.
    pub est_cost: f64,
}

/// Diagnostics from one `rewrite` call, including a per-phase time
/// breakdown (setup → encode → chase → extract → rank) and the full chase
/// statistics, so regressions show up in the right phase.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    /// How the chase ended (fixpoint, or which budget tripped).
    pub chase_outcome: ChaseOutcome,
    /// Chase rounds executed.
    pub chase_rounds: usize,
    /// Facts in the final instance. A chain table kept out of the instance
    /// adds none: its splits are extraction's e-nodes, not facts.
    pub num_facts: usize,
    /// Candidate plans extracted.
    pub num_candidates: usize,
    /// `chase_stats.pruned_firings()`: always 0 here, since the LA chase
    /// runs unpruned — `Prune_prov` vetoes only in PACB's backchase.
    pub pruned_firings: usize,
    /// End-to-end wall-clock time of the `rewrite` call, microseconds.
    pub elapsed_us: u128,
    /// Time spent before encoding: the call's catalog, pricing the
    /// original, and the plan-cache key and probe. A call served from the
    /// cache ends in this phase. The call's view rules are built after
    /// encoding, where they are built at all, and timed in
    /// [`RewriteReport::encode_us`].
    pub setup_us: u128,
    /// Time spent encoding the expression into a canonical instance,
    /// tabling its product chains and, where the tables are instance
    /// facts, building the call's view rules.
    pub encode_us: u128,
    /// Time spent chasing the instance to (bounded) fixpoint.
    pub chase_us: u128,
    /// Time spent in the extraction DP, and dropping the call's instance.
    pub extract_us: u128,
    /// Time spent turning priced candidates into plans and sorting them.
    pub rank_us: u128,
    /// Per-rule matches, firings and vetoes, merges and rounds of the chase.
    /// Shared, not copied: a cache hit's report holds the entry's counters
    /// (the cold pass that produced its plans), as does every clone.
    pub chase_stats: Arc<ChaseStats>,
    /// `Some` when the pipeline had to give up completeness — a budget or
    /// deadline tripped, or a phase worker panicked and was contained. The
    /// returned plans are still sound (every candidate is justified by the
    /// facts that *were* derived), but cheaper rewritings may have been
    /// missed. `None` means the chase terminated and every phase ran clean.
    pub degraded: Option<Degraded>,
    /// Plan-cache counters (all zero when no cache is configured). When
    /// `cache.hit` is set, this call was served from the cache: only
    /// `elapsed_us` and `cache` describe the serving call — every other
    /// field documents the cold pass that originally produced the plans.
    pub cache: CacheReport,
}

/// Result of `Optimizer::rewrite`: the original plan plus all candidate
/// reformulations, cheapest first.
#[derive(Debug, Clone)]
pub struct RankedPlans {
    /// The unrewritten input, priced by the same estimator.
    pub original: Plan,
    /// Candidates sorted by ascending estimated cost, exact ties going to
    /// the original expression — which is among them whenever extraction
    /// rebuilds it or no candidate is strictly cheaper. Shared, not
    /// copied: a same-name cache hit hands out the entry's plans, and a
    /// clone shares them too; iterate with `.iter()`, and copy with
    /// `.to_vec()` to reorder them.
    pub plans: Arc<[Plan]>,
    /// Diagnostics for this call.
    pub report: RewriteReport,
}

impl RankedPlans {
    /// The cheapest plan (falls back to the original when the chase or
    /// extraction produced nothing better).
    pub fn best(&self) -> &Plan {
        self.plans.first().unwrap_or(&self.original)
    }

    /// Estimated speedup of the best plan over the original. A zero-cost
    /// best plan (a rewrite onto an already-materialized matrix) yields
    /// `f64::INFINITY` rather than masking the win.
    pub fn est_speedup(&self) -> f64 {
        if self.best().est_cost > 0.0 {
            self.original.est_cost / self.best().est_cost
        } else if self.original.est_cost > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Rewriting failure.
#[derive(Debug)]
pub enum RewriteError {
    /// The input expression is not shape-consistent.
    Shape(ShapeError),
    /// The reference expression failed to evaluate in `rewrite_verified`.
    Eval(EvalError),
    /// The root class could not be decoded (should not happen for
    /// well-formed encodings; kept explicit instead of panicking).
    NoPlan,
    /// A registration was refused by static analysis: the offered rules
    /// are range-unrestricted or break weak acyclicity modulo reuse (a
    /// chase-termination risk the budgets would otherwise have to absorb).
    Rejected(RuleRejection),
    /// An LA view registration named a registered LA view or a catalogued
    /// matrix: the chase's `name-unique` EGD would merge the two
    /// definitions and make unrelated expressions "equivalent".
    DuplicateName(String),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Shape(e) => write!(f, "{e}"),
            RewriteError::Eval(e) => write!(f, "original failed to evaluate: {e}"),
            RewriteError::NoPlan => write!(f, "no plan could be extracted"),
            RewriteError::Rejected(r) => write!(f, "{r}"),
            RewriteError::DuplicateName(n) => {
                write!(f, "name {n} is already a registered LA view or matrix")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<ShapeError> for RewriteError {
    fn from(e: ShapeError) -> Self {
        RewriteError::Shape(e)
    }
}

impl From<RuleRejection> for RewriteError {
    fn from(r: RuleRejection) -> Self {
        RewriteError::Rejected(r)
    }
}

/// Static gate of an LA view's `V_IO`/`V_OI` pair: the standard
/// catalogue — read back from the shared compiled rules — followed by the
/// `offered` rules must certify (range restriction, weak acyclicity modulo
/// conclusion-atom reuse). `vrem` is the clone of the shared schema
/// `offered` was built over. Subsumption is skipped here — it can only
/// produce warnings, which never reject — keeping registration O(rules),
/// not O(rules²).
fn registration_gate(offered: &[Constraint], vrem: &Vrem) -> Result<(), RuleRejection> {
    let (_, standard) = Catalogue::shared_standard();
    let constraints: Vec<Constraint> =
        standard.rules().iter().map(|r| r.constraint()).chain(offered).cloned().collect();
    let report = hadad_core::analyze::Analyzer::new(&constraints)
        .with_vocab(&vrem.vocab)
        .without_subsumption()
        .report();
    match report.rejection() {
        Some(r) => Err(r),
        None => Ok(()),
    }
}

/// A registered, materialized LA view: a name the evaluation environment
/// binds to a precomputed matrix, plus the defining expression over base
/// matrices (paper §6.2.4). Its metadata is estimated from the definition
/// at rewrite time.
#[derive(Debug, Clone)]
pub struct LaView {
    /// Name the environment binds to the materialized matrix.
    pub name: String,
    /// Defining expression over base matrices.
    pub def: Expr,
    /// The static gate's verdict on this view's `V_IO`/`V_OI` pair, set
    /// the first time the pair can be built: at registration, or — for a
    /// definition over matrices catalogued later — by the first rewrite
    /// that builds it. Shared by clones of the optimizer, so whichever
    /// clone builds the pair first certifies it for all.
    gate: Arc<OnceLock<Result<(), RuleRejection>>>,
}

impl LaView {
    /// The verdict on `pair`, this view's freshly built constraints over
    /// `vrem`: analyzed the first time, remembered after.
    fn certified(&self, pair: &[Constraint], vrem: &Vrem) -> Result<(), RuleRejection> {
        self.gate.get_or_init(|| registration_gate(pair, vrem)).clone()
    }

    /// This view's `V_IO`/`V_OI` pair built against `cat` into `vrem`, once
    /// the gate has certified it; `None` for a view over a matrix `cat`
    /// lacks, which is left out of the call.
    fn pair(
        &self,
        vrem: &mut Vrem,
        cat: &MetaCatalog,
    ) -> Result<Option<ViewRules>, RewriteError> {
        match Catalogue::la_view_constraints(vrem, cat, &self.name, &self.def) {
            Err(ShapeError::UnknownMatrix(_)) => Ok(None),
            view => {
                let view = view?;
                // A view registered ahead of its leaves is certified here, once.
                self.certified(&view.constraints, vrem)?;
                Ok(Some(view))
            }
        }
    }
}

/// The optimizer facade.
#[derive(Clone)]
pub struct Optimizer {
    /// Metadata catalog the estimator prices against. Frozen by
    /// [`Optimizer::new`]; freeze it again after registering many entries,
    /// or every call copies them.
    pub cat: MetaCatalog,
    /// Chase resource budget.
    budget: ChaseBudget,
    /// Materialized LA views registered for view-based reformulation:
    /// each contributes `V_IO`/`V_OI` constraints to the chase, so plans
    /// can land on (and expand through) `Mat(view)` leaves. Only
    /// [`Optimizer::register_la_view`] adds one, so every pair the chase
    /// runs is the one its gate verdict covers.
    views: Vec<LaView>,
    /// Optional wall-clock allowance for each `rewrite` call. When set, the
    /// chase budget is stamped with `Instant::now() + deadline` at the start
    /// of the call; a chase cut short by it still yields an anytime result
    /// (see [`RewriteReport::degraded`]).
    deadline: Option<Duration>,
    /// Shared plan cache (`None` = disabled). Clones share the same cache,
    /// which is how the live hybrid path and concurrent snapshot readers
    /// all hit one map.
    cache: Option<Arc<PlanCache>>,
    /// [`Optimizer::config_hash`] of the current budget, deadline and
    /// views, stored by every method that changes one of them.
    config: u64,
}

/// What a hybrid call adds to one rewrite: the cast leaf, catalogued for
/// that call only. The default is a bare [`Optimizer::rewrite`]: no leaf.
#[derive(Clone, Copy, Default)]
pub(crate) struct CallContext<'a> {
    pub(crate) cast: Option<(&'a str, &'a MatrixMeta)>,
}

impl Optimizer {
    /// Optimizer over `cat` with default budgets and the standard
    /// catalogue. Freezes `cat`, so that every call's copy of it shares
    /// what is registered so far.
    pub fn new(mut cat: MetaCatalog) -> Self {
        cat.freeze();
        let mut opt = Optimizer {
            cat,
            // Tighter than the chase default: rewriting works expression by
            // expression, so instances are small and saturate quickly.
            budget: ChaseBudget {
                max_rounds: 12,
                max_facts: 30_000,
                max_nulls: 15_000,
                deadline: None,
            },
            views: Vec::new(),
            deadline: None,
            cache: None,
            config: 0,
        };
        opt.config = opt.config_hash();
        opt
    }

    /// Enables the plan cache with `capacity` total entries (`0`
    /// disables); it is off until this is called. Clones of this optimizer
    /// share the cache; see [`crate::cache`] for the key, which holds
    /// everything a plan depends on.
    pub fn with_plan_cache(mut self, capacity: usize) -> Self {
        self.cache = (capacity > 0).then(|| Arc::new(PlanCache::new(capacity)));
        self
    }

    /// The shared plan cache, when one is enabled.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// Bounds each `rewrite` call to roughly `timeout` of wall-clock time.
    /// The bound is enforced inside the chase (checked at every round start
    /// and every few TGD firings), so the pipeline degrades to the best plan
    /// derivable from the partial instance rather than erroring.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self.config = self.config_hash();
        self
    }

    /// Replaces the chase budget.
    pub fn with_budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self.config = self.config_hash();
        self
    }

    /// The chase budget each call runs under.
    pub fn budget(&self) -> ChaseBudget {
        self.budget
    }

    /// Registers a materialized LA view. Shape/density metadata is
    /// estimated from the definition when the view is used (so definitions
    /// may reference matrices registered later, e.g. a hybrid cast). A
    /// name that is already a registered LA view or a matrix of `cat` is
    /// refused with [`RewriteError::DuplicateName`].
    ///
    /// The view's `V_IO`/`V_OI` constraints are statically analyzed
    /// against the standard catalogue and rejected with
    /// [`RewriteError::Rejected`] if they are unsafe or break weak
    /// acyclicity modulo reuse. When metadata gaps (forward references)
    /// make the constraints unbuildable yet, the view is accepted and the
    /// same analysis runs once, in the first `rewrite` that can build
    /// them: from then on a refused view makes every `rewrite` return
    /// [`RewriteError::Rejected`] instead of chasing uncertified rules.
    pub fn register_la_view(
        &mut self,
        name: impl Into<String>,
        def: Expr,
    ) -> Result<(), RewriteError> {
        let name = name.into();
        if self.has_la_view(&name) || self.cat.get(&name).is_some() {
            return Err(RewriteError::DuplicateName(name));
        }
        // Build the candidate view's constraints over a clone of the
        // shared schema and gate on certification. `effective_cat`/
        // `la_view_constraints` failures mean metadata is not available
        // yet (the definition references matrices to be registered later):
        // the verdict is then reached by the first rewrite that can build
        // them — the documented contract, kept by `encode_call`.
        let candidate = LaView { name, def, gate: Arc::default() };
        if let Ok(meta_cat) = self.effective_cat(CallContext::default()) {
            let mut vrem = Catalogue::shared_standard().0.clone();
            if let Ok(view) = Catalogue::la_view_constraints(
                &mut vrem,
                &meta_cat,
                &candidate.name,
                &candidate.def,
            ) {
                candidate.certified(&view.constraints, &vrem)?;
            }
        }
        self.views.push(candidate);
        self.config = self.config_hash();
        Ok(())
    }

    /// Whether `name` is a registered LA view.
    pub fn has_la_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| v.name == name)
    }

    /// The metadata catalog with the call's `cast` leaf registered, then
    /// every registered view priced in: shape and density estimated from
    /// the definition (views may build on the cast and on earlier views).
    /// A view over a matrix this call does not catalogue is left out of
    /// the call; a view whose shapes mismatch fails it.
    fn effective_cat(&self, call: CallContext<'_>) -> Result<MetaCatalog, RewriteError> {
        let mut cat = self.cat.clone();
        if let Some((name, meta)) = call.cast {
            cat.register(name, meta.clone());
        }
        for v in &self.views {
            if cat.get(&v.name).is_some() {
                continue;
            }
            let est = match expr_stats(&v.def, &cat) {
                Err(ShapeError::UnknownMatrix(_)) => continue,
                est => est?,
            };
            let nnz = (est.density * est.rows as f64 * est.cols as f64).round();
            cat.register(&v.name, MatrixMeta::sparse(est.rows, est.cols, nnz as usize));
        }
        Ok(cat)
    }

    /// Clone of `env` with every registered view materialized and bound
    /// (views already bound by the caller are left untouched). A view over
    /// a matrix `env` does not bind stays unbound: a plan that reads it
    /// fails to evaluate on its own.
    fn env_with_views(&self, env: &Env) -> Result<Env, EvalError> {
        if self.views.is_empty() {
            return Ok(env.clone());
        }
        let mut env = env.clone();
        for v in &self.views {
            if env.get(&v.name).is_none() {
                match eval_with(&v.def, &env, default_backend()) {
                    Ok(m) => {
                        env.bind(&v.name, m);
                    }
                    Err(EvalError::Unbound(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(env)
    }

    /// `e` encoded for one call into a clone of the shared schema, with its
    /// chain tables and the rules it chases. The encoder decides where the
    /// tables go, offered the call's views (those over matrices `cat`
    /// catalogues). In the cells, the call chases the shared standard set;
    /// a view registered ahead of its leaves is still certified by the
    /// first call that can build its pair. Otherwise the standard rules are
    /// extended — in this order, which fixes symbol ids and firing order —
    /// by each view's `V_IO`/`V_OI` pair built against `cat` (its class
    /// stats follow the metadata of the definition's leaves, call by call),
    /// and the tables are instance facts.
    fn encode_call(&self, e: &Expr, cat: &MetaCatalog) -> Result<CallEncoding, RewriteError> {
        let (vrem, standard) = Catalogue::shared_standard();
        let mut vrem = vrem.clone();
        let mut encoded = Encoder::new(&mut vrem, cat).encode(e)?;
        let in_call = |v: &&LaView| v.def.base_matrices().iter().all(|l| cat.get(l).is_some());
        let views: Vec<(&str, &Expr)> =
            self.views.iter().filter(in_call).map(|v| (v.name.as_str(), &v.def)).collect();
        let clock = encoded.tabulate_chains_as_cells(&vrem, &self.budget, &views);
        if clock.is_some() {
            for v in &self.views {
                match v.gate.get() {
                    Some(verdict) => verdict.clone()?,
                    // Built only to be certified: no rule of it is chased.
                    None => drop(v.pair(&mut vrem, cat)?),
                }
            }
            let rules = Arc::clone(standard);
            return Ok(CallEncoding { vrem, encoded, clock, rules, pairs: Vec::new() });
        }
        let mut extra = Vec::with_capacity(2 * self.views.len());
        let mut pairs = Vec::with_capacity(self.views.len());
        for v in &self.views {
            let Some(view) = v.pair(&mut vrem, cat)? else { continue };
            let first = standard.len() + extra.len();
            extra.extend(view.constraints);
            pairs.push((first..standard.len() + extra.len(), view.classes));
        }
        let rules = if extra.is_empty() {
            Arc::clone(standard)
        } else {
            Arc::new(standard.extended(extra))
        };
        let clock = encoded.tabulate_chains(&vrem, &self.budget);
        Ok(CallEncoding { vrem, encoded, clock, rules, pairs })
    }

    /// Opaque configuration hash for plan-cache keys: two optimizers with
    /// the same hash would run an identical cold pipeline on equal inputs.
    /// Computed when the configuration changes; calls read `self.config`.
    fn config_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.budget.max_rounds.hash(&mut h);
        self.budget.max_facts.hash(&mut h);
        self.budget.max_nulls.hash(&mut h);
        self.deadline.hash(&mut h);
        for v in &self.views {
            v.name.hash(&mut h);
            v.def.to_string().hash(&mut h);
        }
        h.finish()
    }

    /// Plan-cache key for `e` over the call's catalog `cat`, or `None`
    /// when some leaf has no metadata (the rewrite will fail shape
    /// inference on its own terms): each leaf's metadata and, per view,
    /// `cat`'s entries for its name and its definition's leaves — what
    /// [`Optimizer::effective_cat`], [`Optimizer::encode_call`] and
    /// extraction read beyond the query's leaves. Cross-name sharing is
    /// only allowed while no views are registered — their plans can embed
    /// leaves tied to concrete names, so those keys bind the leaf names too.
    fn cache_key(&self, e: &Expr, cat: &MetaCatalog) -> Option<PlanCacheKey> {
        let canon = canonicalize(e);
        let leaves = canon.leaves.iter().map(|n| cat.get(n).cloned()).collect::<Option<_>>()?;
        let views = self
            .views
            .iter()
            .flat_map(|v| std::iter::once(v.name.as_str()).chain(v.def.base_matrices()))
            .map(|n| cat.get(n).cloned())
            .collect();
        Some(PlanCacheKey::new(canon, leaves, views, self.config))
    }

    /// Rewrites `e` into cost-ranked equivalent plans.
    pub fn rewrite(&self, e: &Expr) -> Result<RankedPlans, RewriteError> {
        self.rewrite_in(e, CallContext::default())
    }

    /// [`Optimizer::rewrite`] with what a hybrid call adds. The report's
    /// `elapsed_us` is the measurement `rewrite.total_us` records, on a
    /// cache hit as on the cold path (a served hit is still one call).
    pub(crate) fn rewrite_in(
        &self,
        e: &Expr,
        call: CallContext<'_>,
    ) -> Result<RankedPlans, RewriteError> {
        M_REWRITE_CALLS.incr();
        let (out, elapsed_us) =
            hadad_obs::timed("rewrite", &M_TOTAL_US, || self.rewrite_phases(e, call));
        let (mut ranked, pending) = out?;
        ranked.report.elapsed_us = elapsed_us;
        // Only clean results are cached: a degraded pass may have missed
        // cheaper plans, and serving it later would freeze the degradation.
        if let Some((cache, key)) = pending {
            if ranked.report.degraded.is_none() {
                cache.insert(key, Arc::clone(&ranked.plans), ranked.report.clone());
            }
        }
        Ok(ranked)
    }

    /// What a call does before its cold path: the call's catalog, the
    /// priced original and the plan-cache probe — a hit is served from the
    /// cache and takes the original; a miss goes on to the cold path.
    fn setup(&self, e: &Expr, call: CallContext<'_>) -> Result<Setup, RewriteError> {
        let cat = self.effective_cat(call)?;
        // The original is priced by `expr_estimate`, which prices every
        // candidate plan as extraction does.
        let original = Plan { expr: e.clone(), est_cost: expr_estimate(e, &cat)?.1 };
        let mut pending: Option<CacheSlot> = None;
        if let Some(cache) = &self.cache {
            if let Some(key) = self.cache_key(e, &cat) {
                if let Some(cached) = cache.lookup(&key) {
                    if let Some((plans, report)) =
                        serve_hit(cache, cached, &key, &cat, &original.expr)
                    {
                        return Ok(Setup::Served(RankedPlans { original, plans, report }));
                    }
                }
                pending = Some((Arc::clone(cache), key));
            }
        }
        Ok(Setup::Cold(ColdStart { cat, original, pending }))
    }

    /// The phases of [`Optimizer::rewrite_in`], untimed: the plans, and on
    /// a cache miss the cache and key to store them under.
    fn rewrite_phases(
        &self,
        e: &Expr,
        call: CallContext<'_>,
    ) -> Result<(RankedPlans, Option<CacheSlot>), RewriteError> {
        let (setup, setup_us) =
            hadad_obs::timed("rewrite.setup", &M_SETUP_US, || self.setup(e, call));
        let ColdStart { cat, original, pending } = match setup? {
            Setup::Served(served) => return Ok((served, None)),
            Setup::Cold(cold) => cold,
        };
        // The product chains' tables are encoding work, and so are the
        // call's view rules, which only a call tabled as facts builds.
        let (call, encode_us) =
            hadad_obs::timed("rewrite.encode", &M_ENCODE_US, || self.encode_call(e, &cat));
        let CallEncoding { vrem, encoded, clock, rules, pairs } = call?;
        let mut analysis = LaAnalysis::new(&vrem, encoded.classes);
        for (rules, classes) in pairs {
            analysis = analysis.with_view(rules, classes);
        }

        let budget = match self.deadline {
            Some(timeout) => self.budget.with_deadline(timeout),
            None => self.budget,
        };
        let mut engine = ChaseEngine::new(&rules).with_budget(budget);
        if let Some(clock) = clock {
            engine = engine.with_watermarks(Catalogue::watermark_rules(), clock);
        }
        let mut inst = encoded.instance;
        // Phase supervision: a panic inside the chase (a bug, or an injected
        // fault) is contained here. The partially saturated instance is still
        // a sound under-approximation — every fact in it was derived from the
        // catalogue — so extraction proceeds on whatever was built.
        let ((chase_outcome, stats, mut degraded), chase_us) =
            hadad_obs::timed("rewrite.chase", &M_CHASE_US, || {
                let chased = catch_unwind(AssertUnwindSafe(|| {
                    engine.chase_analyzed(&mut inst, &mut analysis)
                }));
                match chased {
                    // An unsound merge: nothing in the instance is to be
                    // trusted, so only the original is returned.
                    Ok((outcome @ ChaseOutcome::AnalysisConflict(_), stats)) => {
                        M_CONFLICTS.incr();
                        let degraded = Degraded {
                            reason: DegradeReason::AnalysisConflict,
                            phase: RewritePhase::Chase,
                        };
                        (outcome, stats, Some(degraded))
                    }
                    Ok((outcome, stats)) => {
                        let degraded = degradation_of(&stats, RewritePhase::Chase);
                        (outcome, stats, degraded)
                    }
                    Err(_) => (
                        ChaseOutcome::BudgetExhausted,
                        ChaseStats::default(),
                        Some(Degraded {
                            reason: DegradeReason::WorkerPanic,
                            phase: RewritePhase::Chase,
                        }),
                    ),
                }
            });

        let conflict = matches!(chase_outcome, ChaseOutcome::AnalysisConflict(_));
        let num_facts = inst.num_facts();
        let (candidates, extract_us) =
            hadad_obs::timed("rewrite.extract", &M_EXTRACT_US, || {
                let candidates = if conflict {
                    Vec::new()
                } else {
                    catch_unwind(AssertUnwindSafe(|| {
                        Extractor::new(&vrem, &inst, &analysis, &cat, &encoded.cells)
                            .candidates(encoded.root)
                    }))
                    .unwrap_or_else(|_| {
                        degraded.get_or_insert(Degraded {
                            reason: DegradeReason::WorkerPanic,
                            phase: RewritePhase::Extraction,
                        });
                        Vec::new()
                    })
                };
                // Nothing after extraction reads the instance. Dropping it
                // (hundreds of facts for a tabled chain) is this phase's
                // work, not time that no phase sees.
                drop((inst, analysis, encoded.cells, vrem));
                candidates
            });
        if candidates.is_empty() && degraded.is_none() {
            return Err(RewriteError::NoPlan);
        }

        let (plans, rank_us) = hadad_obs::timed("rewrite.rank", &M_RANK_US, || {
            let mut plans: Vec<Plan> = candidates
                .into_iter()
                .map(|(expr, est_cost)| Plan { expr, est_cost })
                .collect();
            // The unrewritten expression is always a sound incumbent: unless
            // a candidate is strictly cheaper it is the answer, so it joins
            // the ranking even when extraction did not rebuild it (children
            // decode through min-cost ties) or a degraded call found nothing.
            if !plans.iter().any(|p| p.est_cost < original.est_cost || p.expr == original.expr)
            {
                plans.push(original.clone());
            }
            sort_plans(&mut plans, &original.expr);
            plans
        });

        if degraded.is_some() {
            M_DEGRADED.incr();
        }
        let report = RewriteReport {
            chase_outcome,
            chase_rounds: stats.rounds,
            num_facts,
            num_candidates: plans.len(),
            pruned_firings: stats.pruned_firings(),
            elapsed_us: 0,
            setup_us,
            encode_us,
            chase_us,
            extract_us,
            rank_us,
            chase_stats: Arc::new(stats),
            degraded,
            cache: self.cache.as_ref().map_or_else(CacheReport::default, |c| c.report(false)),
        };
        Ok((RankedPlans { original, plans: plans.into(), report }, pending))
    }

    /// Execution hook: evaluates `original` and `candidate` on the linalg
    /// backend and checks element-wise agreement within `rtol`. Registered
    /// views not bound in `env` are materialized from their definitions.
    pub fn check_equivalent(
        &self,
        original: &Expr,
        candidate: &Expr,
        env: &Env,
        rtol: f64,
    ) -> Result<bool, EvalError> {
        let env = self.env_with_views(env)?;
        let backend = default_backend();
        let a = eval_with(original, &env, backend)?;
        let b = eval_with(candidate, &env, backend)?;
        Ok(approx_eq(&a, &b, rtol))
    }

    /// Rewrites `e`, then executes plans (cheapest first) against `env`
    /// until one agrees with the original's value; returns that plan and
    /// the matrices. A plan that fails to evaluate (e.g. a numerically
    /// singular inverse) is skipped, mirroring the paper's stance that
    /// rewritten plans must be machine-checked before being trusted.
    pub fn rewrite_verified(
        &self,
        e: &Expr,
        env: &Env,
        rtol: f64,
    ) -> Result<(RankedPlans, Plan, Matrix), RewriteError> {
        self.rewrite_verified_in(e, env, rtol, CallContext::default())
    }

    /// [`Optimizer::rewrite_verified`] with what a hybrid call adds.
    pub(crate) fn rewrite_verified_in(
        &self,
        e: &Expr,
        env: &Env,
        rtol: f64,
        call: CallContext<'_>,
    ) -> Result<(RankedPlans, Plan, Matrix), RewriteError> {
        let ranked = self.rewrite_in(e, call)?;
        let env = self.env_with_views(env).map_err(RewriteError::Eval)?;
        let backend = default_backend();
        let reference = eval_with(e, &env, backend).map_err(RewriteError::Eval)?;
        for plan in ranked.plans.iter() {
            if let Ok(value) = eval_with(&plan.expr, &env, backend) {
                if approx_eq(&value, &reference, rtol) {
                    let plan = plan.clone();
                    return Ok((ranked, plan, reference));
                }
            }
        }
        let plan = ranked.original.clone();
        Ok((ranked, plan, reference))
    }
}

/// What a call's set-up ends in ([`Optimizer::setup`]).
enum Setup {
    /// Plans served from the plan cache.
    Served(RankedPlans),
    /// What the cold path starts from.
    Cold(ColdStart),
}

/// The cold path's start: the call's catalog, the priced original and
/// where to cache the plans (on a miss).
struct ColdStart {
    cat: MetaCatalog,
    original: Plan,
    pending: Option<CacheSlot>,
}

/// What one `rewrite` call chases (see [`Optimizer::encode_call`]).
struct CallEncoding {
    /// The call's clone of the shared schema.
    vrem: Vrem,
    /// The expression's encoding, its chain tables in the instance or in
    /// its cells.
    encoded: Encoded,
    /// Where the tables end, and the watermark rules start; `None` where
    /// a table would not fit the budget.
    clock: Option<u64>,
    /// The shared standard rules, extended by the call's own.
    rules: Arc<RuleSet>,
    /// Each chased view's `V_IO`/`V_OI` rule indexes in `rules`, and the
    /// class stats their firings join ([`LaAnalysis::with_view`]). Empty
    /// without views, and where the cells hold them.
    pairs: Vec<(Range<usize>, Vec<Option<ClassData>>)>,
}

/// Sorts `plans` cheapest first. Exact cost ties go to the input
/// expression, so `best()` is a rewrite only when something is strictly
/// cheaper; the remaining ties go by the plans' rendering, so the order
/// does not depend on the order extraction met them in (the fact order of
/// the chased instance).
fn sort_plans(plans: &mut [Plan], original: &Expr) {
    plans.sort_by(|a, b| a.est_cost.partial_cmp(&b.est_cost).unwrap_or(Ordering::Equal));
    for tied in plans.chunk_by_mut(|a, b| a.est_cost == b.est_cost) {
        if tied.len() > 1 {
            tied.sort_by_cached_key(|p| (&p.expr != original, p.expr.to_string()));
        }
    }
}

/// Serves a cache hit: the cached plans and report, to be anchored on this
/// call's freshly priced `original`. A same-name hit shares the entry's
/// plans; a cross-name hit (same skeleton and leaf metadata, different leaf names)
/// re-skins them onto the probe's names and re-prices them under its
/// catalog. Returns `None` when no re-skinned plan prices (treated as a
/// miss by the caller).
fn serve_hit(
    cache: &PlanCache,
    cached: CachedPlans,
    key: &PlanCacheKey,
    cat: &MetaCatalog,
    original: &Expr,
) -> Option<(Arc<[Plan]>, RewriteReport)> {
    let CachedPlans { plans, mut report, names } = cached;
    let plans = match names {
        None => plans,
        Some(names) => {
            let renamed = plans.iter().map(|p| rename_leaves(&p.expr, &names, &key.names));
            let mut reskinned = rank_candidates(cat, renamed.collect());
            if reskinned.is_empty() {
                return None;
            }
            sort_plans(&mut reskinned, original);
            report.num_candidates = reskinned.len();
            reskinned.into()
        }
    };
    report.cache = cache.report(true);
    M_CACHE_SERVED.incr();
    Some((plans, report))
}

/// Prices re-skinned cached plans under the probe's catalog; a plan that
/// does not price there is skipped rather than failing the call.
fn rank_candidates(cat: &MetaCatalog, candidates: Vec<Expr>) -> Vec<Plan> {
    candidates
        .into_iter()
        .filter_map(|expr| {
            expr_estimate(&expr, cat).ok().map(|(_, est_cost)| Plan { expr, est_cost })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadad_core::expr::dsl::*;
    use hadad_core::MatrixMeta;
    use hadad_linalg::rand_gen;

    fn trace_setup() -> (Optimizer, Env) {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(30, 4));
        cat.register("B", MatrixMeta::dense(4, 30));
        let mut env = Env::new();
        env.bind("A", Matrix::Dense(rand_gen::random_dense(30, 4, 1)));
        env.bind("B", Matrix::Dense(rand_gen::random_dense(4, 30, 2)));
        (Optimizer::new(cat), env)
    }

    #[test]
    fn trace_rotation_wins_and_verifies() {
        let (opt, env) = trace_setup();
        let e = trace(mul(m("A"), m("B")));
        let ranked = opt.rewrite(&e).unwrap();
        assert!(ranked.plans.len() >= 2, "plans: {}", ranked.plans.len());
        assert_eq!(ranked.best().expr.to_string(), "trace((B A))");
        assert!(ranked.est_speedup() > 2.0);
        assert!(opt.check_equivalent(&e, &ranked.best().expr, &env, 1e-9).unwrap());
    }

    #[test]
    fn rewrite_verified_returns_checked_plan() {
        let (opt, env) = trace_setup();
        let e = trace(mul(m("A"), m("B")));
        let (_, plan, _) = opt.rewrite_verified(&e, &env, 1e-9).unwrap();
        assert_eq!(plan.expr.to_string(), "trace((B A))");
    }

    /// View-based reformulation: the gram matrix XᵀX is registered as a
    /// materialized view, so the ridge-style pipeline rewrites onto the
    /// zero-cost view leaf and is ranked strictly cheaper.
    #[test]
    fn registered_view_wins_and_verifies() {
        let mut cat = MetaCatalog::new();
        cat.register("X", MatrixMeta::dense(200, 8));
        let mut opt = Optimizer::new(cat);
        opt.register_la_view("G", mul(t(m("X")), m("X"))).unwrap();

        let e = mul(t(m("X")), m("X"));
        let ranked = opt.rewrite(&e).unwrap();
        assert_eq!(ranked.best().expr, m("G"));
        assert!(ranked.best().est_cost < ranked.original.est_cost);
        assert_eq!(ranked.est_speedup(), f64::INFINITY);

        // Execution-verified: the view is materialized from its definition
        // and the winning plan agrees with the original.
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(rand_gen::random_dense(200, 8, 7)));
        let (_, plan, _) = opt.rewrite_verified(&e, &env, 1e-9).unwrap();
        assert_eq!(plan.expr, m("G"));
    }

    /// A view embedded in a larger pipeline: (XᵀX)⁻¹ rewrites to G⁻¹.
    #[test]
    fn view_lands_inside_larger_pipeline() {
        let mut cat = MetaCatalog::new();
        cat.register("X", MatrixMeta::dense(100, 6));
        let mut opt = Optimizer::new(cat);
        opt.register_la_view("G", mul(t(m("X")), m("X"))).unwrap();
        let e = inv(mul(t(m("X")), m("X")));
        let ranked = opt.rewrite(&e).unwrap();
        assert_eq!(ranked.best().expr, inv(m("G")));
        assert!(ranked.best().est_cost < ranked.original.est_cost);
    }

    /// A view's metadata is estimated from its definition, and
    /// `effective_cat` does not leak into the caller's catalog.
    #[test]
    fn view_metadata_is_estimated_or_explicit() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(10, 10));
        cat.register("S", MatrixMeta::sparse(10, 10, 10));
        let mut opt = Optimizer::new(cat);
        opt.register_la_view("V", mul(m("A"), m("A"))).unwrap();
        opt.register_la_view("W", had(m("S"), m("S"))).unwrap();
        let eff = opt.effective_cat(CallContext::default()).unwrap();
        assert_eq!(*eff.get("V").unwrap(), MatrixMeta::dense(10, 10));
        assert_eq!(*eff.get("W").unwrap(), MatrixMeta::sparse(10, 10, 1));
        assert!(opt.cat.get("V").is_none());
    }

    /// The stored configuration hash is what a fresh computation gives,
    /// after each method that changes the configuration, and each change
    /// moves it.
    #[test]
    fn stored_config_hash_follows_every_reconfiguration() {
        let mut cat = MetaCatalog::new();
        cat.register("X", MatrixMeta::dense(200, 8));
        let mut opt = Optimizer::new(cat);
        let mut seen = vec![opt.config];
        assert_eq!(opt.config, opt.config_hash());
        opt.register_la_view("G", mul(t(m("X")), m("X"))).unwrap();
        assert_eq!(opt.config, opt.config_hash(), "after register_la_view");
        seen.push(opt.config);
        let budget = ChaseBudget { max_rounds: 3, ..opt.budget() };
        let opt = opt.with_budget(budget);
        assert_eq!(opt.config, opt.config_hash(), "after with_budget");
        seen.push(opt.config);
        let opt = opt.with_deadline(Duration::from_secs(5));
        assert_eq!(opt.config, opt.config_hash(), "after with_deadline");
        seen.push(opt.config);
        seen.dedup();
        assert_eq!(seen.len(), 4, "every change moves the hash");
        // A clone carries it, and a refused registration leaves it alone.
        let mut clone = opt.clone();
        assert!(clone.register_la_view("G", m("X")).is_err());
        assert_eq!((clone.config, clone.config_hash()), (opt.config, opt.config));
    }

    /// Rank ties return the input: the ridge normal equations only admit
    /// the commuted sum at identical cost, so `best()` stays the original.
    #[test]
    fn cost_tie_keeps_original_expression() {
        let mut cat = MetaCatalog::new();
        cat.register("X", MatrixMeta::dense(200, 30));
        cat.register("y", MatrixMeta::dense(200, 1));
        let gram = add(mul(t(m("X")), m("X")), smul(lit(0.5), Expr::Identity(30)));
        let e = mul(inv(gram), mul(t(m("X")), m("y")));
        let ranked = Optimizer::new(cat).rewrite(&e).unwrap();
        assert!(ranked.plans.len() >= 2, "the commuted sum is a candidate too");
        assert_eq!(ranked.plans[1].est_cost, ranked.original.est_cost);
        assert_eq!(ranked.best().expr, e);
    }

    /// Anytime behaviour under an already-expired deadline: the chase stops
    /// before round one, yet `rewrite` still returns `Ok` with the original
    /// expression recoverable from the un-chased instance, flagged degraded.
    #[test]
    fn expired_deadline_degrades_to_sound_plan() {
        let (opt, env) = trace_setup();
        let opt = opt.with_deadline(Duration::ZERO);
        let e = trace(mul(m("A"), m("B")));
        let ranked = opt.rewrite(&e).unwrap();
        let degraded = ranked.report.degraded.as_ref().expect("deadline must mark degradation");
        assert_eq!(degraded.reason, DegradeReason::Deadline);
        assert_eq!(degraded.phase, RewritePhase::Chase);
        assert_eq!(ranked.report.chase_outcome, ChaseOutcome::BudgetExhausted);
        // The anytime result is never worse than the unrewritten plan.
        assert!(ranked.best().est_cost <= ranked.original.est_cost);
        let (_, plan, _) = opt.rewrite_verified(&e, &env, 1e-9).unwrap();
        assert!(plan.est_cost <= ranked.original.est_cost);
    }

    /// An ample deadline changes nothing: the full search runs and the
    /// report is not degraded.
    #[test]
    fn ample_deadline_is_transparent() {
        let (opt, _) = trace_setup();
        let opt = opt.with_deadline(Duration::from_secs(60));
        let ranked = opt.rewrite(&trace(mul(m("A"), m("B")))).unwrap();
        assert!(ranked.report.degraded.is_none());
        assert_eq!(ranked.best().expr.to_string(), "trace((B A))");
    }

    /// Every association of a square 4-chain costs the same, so the
    /// ranking is all ties: whatever order the candidates arrive in, they
    /// sort into one order, the original first.
    #[test]
    fn ties_sort_the_same_from_any_candidate_order() {
        let mut cat = MetaCatalog::new();
        for name in ["A", "B", "C", "D"] {
            cat.register(name, MatrixMeta::dense(16, 16));
        }
        let e = mul(mul(mul(m("A"), m("B")), m("C")), m("D"));
        let ranked = Optimizer::new(cat).rewrite(&e).unwrap();
        assert!(ranked.plans.len() >= 3, "one candidate per split of the root");
        assert!(ranked.plans.iter().all(|p| p.est_cost == ranked.original.est_cost));
        assert_eq!(ranked.best().expr, e);
        let render =
            |plans: &[Plan]| plans.iter().map(|p| p.expr.to_string()).collect::<Vec<_>>();
        let sorted = render(&ranked.plans);
        let n = ranked.plans.len();
        for shift in 0..n {
            let mut permuted = ranked.plans.to_vec();
            permuted.rotate_left(shift);
            sort_plans(&mut permuted, &e);
            assert_eq!(render(&permuted), sorted, "rotated by {shift}");
            permuted.reverse();
            sort_plans(&mut permuted, &e);
            assert_eq!(render(&permuted), sorted, "rotated by {shift}, reversed");
        }
    }

    #[test]
    fn leaf_expression_survives() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(3, 3));
        let opt = Optimizer::new(cat);
        let ranked = opt.rewrite(&m("A")).unwrap();
        assert_eq!(ranked.best().expr, m("A"));
    }

    /// The per-call extension: a view-less optimizer chases over the shared
    /// standard set itself (nothing compiled); `v` views add exactly `2·v`
    /// rules after the inherited ones, in registration order, built against
    /// the catalog of *this* call.
    #[test]
    fn view_rules_extend_the_shared_standard_call_by_call() {
        let mut cat = MetaCatalog::new();
        cat.register("X", MatrixMeta::dense(200, 8));
        let (_, standard) = Catalogue::shared_standard();
        let rules_of = |opt: &Optimizer| {
            opt.encode_call(&m("X"), &opt.effective_cat(CallContext::default()).unwrap())
                .expect("rules build")
        };
        let inherits_standard = |rules: &RuleSet| {
            rules.rules().iter().zip(standard.rules()).all(|(a, b)| Arc::ptr_eq(a, b))
        };
        // The shape the analysis joins into the class `V_IO:G` tags.
        let view_shape = |call: &CallEncoding| -> (usize, usize) {
            let (rules, classes) = &call.pairs[0];
            let io = &call.rules.rules()[rules.start];
            assert_eq!(io.name(), "V_IO:G");
            let Constraint::Tgd(tgd) = io.constraint() else { panic!("V_IO is a TGD") };
            let root = tgd.conclusion[0].args[0].as_var().expect("name(root, G)");
            classes[root as usize].expect("the view's class is estimated").shape()
        };

        let mut opt = Optimizer::new(cat);
        assert!(
            Arc::ptr_eq(&rules_of(&opt).rules, standard),
            "no view: the shared set as it is"
        );

        opt.register_la_view("G", mul(t(m("X")), m("X"))).unwrap();
        let one_view = rules_of(&opt);
        assert_eq!(one_view.rules.len(), standard.len() + 2, "V_IO:G and V_OI:G");
        assert_eq!(one_view.pairs[0].0, standard.len()..standard.len() + 2);
        assert!(inherits_standard(&one_view.rules), "the standard rules are shared");
        assert_eq!(view_shape(&one_view), (8, 8));

        // The same optimizer after the view's leaf changed shape.
        opt.cat.register("X", MatrixMeta::dense(200, 6));
        assert_eq!(view_shape(&rules_of(&opt)), (6, 6), "built against this call's catalog");

        opt.register_la_view("H", mul(m("X"), t(m("X")))).unwrap();
        let all = rules_of(&opt);
        assert!(inherits_standard(&all.rules));
        let own: Vec<&str> =
            all.rules.rules()[standard.len()..].iter().map(|r| r.name()).collect();
        assert_eq!(own, ["V_IO:G", "V_OI:G", "V_IO:H", "V_OI:H"]);
        let h = standard.len() + 2..standard.len() + 4;
        assert_eq!(all.pairs.iter().map(|(r, _)| r.clone()).nth(1), Some(h));
    }

    /// A call whose views are all product chains of base factors chases
    /// the shared standard set itself, its views held by the chain tables;
    /// a query the tables cannot hold, a query naming a view, or a view
    /// over a transpose gets each view's pair, as before.
    #[test]
    fn product_chain_views_are_chased_with_the_shared_standard_set() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(40, 6));
        cat.register("B", MatrixMeta::dense(6, 40));
        cat.register("x", MatrixMeta::dense(40, 1));
        let (_, standard) = Catalogue::shared_standard();
        let rules_of = |opt: &Optimizer, e: &Expr| {
            opt.encode_call(e, &opt.effective_cat(CallContext::default()).unwrap())
                .expect("rules build")
        };
        let mut opt = Optimizer::new(cat);
        opt.register_la_view("P", mul(m("A"), m("B"))).unwrap();
        let nested = mul(mul(m("A"), m("B")), m("x"));
        let folded = rules_of(&opt, &nested);
        assert!(Arc::ptr_eq(&folded.rules, standard), "the shared set as it is");
        assert!(folded.pairs.is_empty());
        for e in [trace(mul(m("A"), m("B"))), mul(m("P"), m("x"))] {
            let paired = rules_of(&opt, &e);
            assert_eq!(paired.rules.len(), standard.len() + 2, "{e}");
            assert_eq!(paired.pairs.len(), 1, "{e}");
        }

        opt.register_la_view("G", mul(t(m("A")), m("A"))).unwrap();
        let both = rules_of(&opt, &nested);
        assert_eq!(both.rules.len(), standard.len() + 4, "one view the tables cannot hold");
    }

    /// One optimizer whose view leaf alternates between two shapes (what a
    /// single cached rule set thrashed on) answers, call for call, what a
    /// fresh optimizer that only ever saw that shape answers — plans and
    /// chase counts.
    #[test]
    fn alternating_view_leaf_metadata_matches_fresh_optimizers() {
        let metas = [MatrixMeta::dense(200, 8), MatrixMeta::sparse(60, 30, 90)];
        let build = |meta: &MatrixMeta| {
            let mut cat = MetaCatalog::new();
            cat.register("X", meta.clone());
            let mut opt = Optimizer::new(cat);
            opt.register_la_view("G", mul(t(m("X")), m("X"))).unwrap();
            opt
        };
        let e = trace(mul(mul(t(m("X")), m("X")), mul(t(m("X")), m("X"))));
        let answer = |opt: &Optimizer| {
            let ranked = opt.rewrite(&e).unwrap();
            let stats = &ranked.report.chase_stats;
            let plans: Vec<String> =
                ranked.plans.iter().map(|p| format!("{} @ {}", p.expr, p.est_cost)).collect();
            let per_rule: Vec<(u64, usize)> =
                stats.rules.iter().map(|r| (r.matches, r.firings)).collect();
            (plans, stats.rounds, stats.egd_merges, ranked.report.num_facts, per_rule)
        };
        let fresh = [answer(&build(&metas[0])), answer(&build(&metas[1]))];
        assert_ne!(fresh[0], fresh[1], "the two shapes must be told apart");

        let mut opt = build(&metas[0]);
        for call in 0..200 {
            opt.cat.register("X", metas[call % 2].clone());
            assert_eq!(answer(&opt), fresh[call % 2], "call {call}");
        }
    }
}
