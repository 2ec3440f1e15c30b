//! Hybrid relational–LA pipelines (paper §3, §9.2): a declarative
//! relational prefix over catalog tables, a cast into a matrix, and an LA
//! suffix over that matrix.
//!
//! Both halves rewrite against materialized views:
//!
//! * the relational prefix compiles to a [`Cq`] over a vocabulary derived
//!   from the table catalog and runs through [`Pacb::rewrite`], with
//!   `Prune_prov` driven by the catalog's row-count cost
//!   ([`hadad_relational::Catalog::scan_cost`]), so preprocessing queries
//!   land on materialized table views instead of re-scanning base tables.
//!   What no query changes — the table vocabulary, the views' CQs and
//!   PACB's two rule sets — is compiled once per catalog schema, when a
//!   table or view is registered, and shared by every run and snapshot;
//! * the LA suffix goes through [`Optimizer::rewrite`], whose registered
//!   LA views contribute `V_IO`/`V_OI` constraints to the chase, so the
//!   pipeline lands on zero-cost `Mat(view)` leaves.
//!
//! This module is the engine: the pipeline and result types, the one
//! implementation of a hybrid rewrite (`run_state`), the writer
//! ([`HybridOptimizer`]) and the read side ([`SnapshotReader`] →
//! [`CatalogSnapshot`], which answers each relational prefix once per
//! published snapshot). The prefix's query language and its two
//! executions live in [`crate::query`], the cast in [`crate::cast`]; both
//! are re-exported here, so `hybrid::RelQuery` and the like resolve.
//!
//! [`HybridOptimizer`] is the catalog's one owner: callers read it through
//! a [`LiveCatalog`], whose only writes are logged row changes, and add
//! tables through [`HybridOptimizer::register_table`]. So only a view's
//! definition and the maintainer write its table. Freshness has one owner
//! too: the [`ViewMaintainer`] holds the table views, the maintained casts
//! and the poison flag, and the optimizer asks it whether it may rewrite
//! against the views or publish them; it keeps the catalog, the LA
//! optimizer, the compiled relational side and publishing.
//!
//! Execution verifies both halves (the paper's machine-checkable
//! soundness): the rewritten prefix must produce the same cast matrix as
//! the operator pipeline, and the winning LA plan must agree with the
//! original suffix on the backend.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use hadad_chase::{
    ChaseOutcome, ChaseStats, Cq, DegradeReason, Degraded, Instance, Pacb, PacbResult,
    RewritePhase, View,
};
use hadad_core::MatrixMeta;
use hadad_linalg::{approx_eq, Matrix};
use hadad_relational::{Catalog, Column, IvmError, Table, Value};

use crate::cast::apply_cast;
use crate::eval::{Env, EvalError};
use crate::optimizer::{CallContext, Optimizer, Plan, RankedPlans, RewriteError};
use crate::query::eval_cq_sorted;
use hadad_core::Expr;

pub use crate::cast::{CastKind, MaintainedCast};
pub use crate::maintain::{MaintenanceReport, ViewChange, ViewMaintainer};
pub use crate::query::{eval_cq, CompiledQuery, RelOp, RelQuery, TableVocab};

/// Hybrid-pipeline failure.
#[derive(Debug)]
pub enum HybridError {
    /// A query or view referenced a table the catalog does not hold.
    MissingTable(String),
    /// A stage referenced a column its input table does not carry.
    MissingColumn(String),
    /// An equality selection contradicts an earlier one on the same column.
    Unsatisfiable(String),
    /// A registration would shadow a table or view (or replace a view's
    /// table), or a pipeline casts its prefix under an LA view's name.
    DuplicateName(String),
    /// Registered views whose base tables carry unmaintained updates — run
    /// maintenance before rewriting, or the rewriter would read stale
    /// materializations.
    StaleViews(Vec<String>),
    /// Tracking a view over a catalog with unmaintained updates (the
    /// cached intermediates would double-count them); maintain first.
    PendingUpdates(Vec<String>),
    /// A previous maintenance pass failed partway, leaving view state
    /// unknown — rebuild the views before maintaining or rewriting again.
    MaintenancePoisoned,
    /// A logged write reached a table view's own table, which only its
    /// definition writes: maintenance refuses it and poisons, and a rebuild
    /// re-derives the view.
    ViewWrite(String),
    /// A delta-maintenance step failed (schema drift, retraction of a
    /// missing row, ...).
    Ivm(hadad_relational::IvmError),
    /// An `error`-armed failpoint fired (fault-injection runs only).
    Fault {
        /// The failpoint that fired.
        site: &'static str,
    },
    /// A view registration was refused by static analysis: its `V_IO`/
    /// `V_OI` constraint pair is unsafe or closes a dependency cycle
    /// through an unguarded existential (a chase-termination risk).
    RejectedView(hadad_core::RuleRejection),
    /// The LA phase failed to rewrite the suffix.
    Rewrite(RewriteError),
    /// Evaluating a cast or an LA plan failed.
    Eval(EvalError),
}

impl std::fmt::Display for HybridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HybridError::MissingTable(t) => write!(f, "unknown table {t}"),
            HybridError::MissingColumn(c) => write!(f, "unknown column {c}"),
            HybridError::Unsatisfiable(c) => {
                write!(f, "contradictory equality selections on {c}")
            }
            HybridError::DuplicateName(n) => {
                write!(f, "name {n} is already registered in the catalog")
            }
            HybridError::StaleViews(vs) => {
                write!(f, "views stale under pending updates: {}", vs.join(", "))
            }
            HybridError::PendingUpdates(ts) => {
                write!(f, "catalog holds unmaintained updates for: {}", ts.join(", "))
            }
            HybridError::MaintenancePoisoned => {
                write!(
                    f,
                    "a failed maintenance pass left view state unknown; rebuild the views"
                )
            }
            HybridError::ViewWrite(v) => {
                write!(f, "a logged write reached view {v}, which only its definition writes")
            }
            HybridError::Ivm(e) => write!(f, "{e}"),
            HybridError::Fault { site } => write!(f, "injected fault at failpoint `{site}`"),
            HybridError::RejectedView(r) => write!(f, "{r}"),
            HybridError::Rewrite(e) => write!(f, "{e}"),
            HybridError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HybridError {}

impl From<hadad_relational::IvmError> for HybridError {
    fn from(e: hadad_relational::IvmError) -> Self {
        HybridError::Ivm(e)
    }
}

impl From<hadad_failpoint::Injected> for HybridError {
    fn from(e: hadad_failpoint::Injected) -> Self {
        HybridError::Fault { site: e.site }
    }
}

impl From<RewriteError> for HybridError {
    fn from(e: RewriteError) -> Self {
        HybridError::Rewrite(e)
    }
}

impl From<EvalError> for HybridError {
    fn from(e: EvalError) -> Self {
        HybridError::Eval(e)
    }
}

/// A full hybrid pipeline: relational prefix → cast → LA suffix.
#[derive(Debug, Clone)]
pub struct HybridPipeline {
    /// The relational prefix producing the tuples to cast.
    pub prefix: RelQuery,
    /// Sorted ascending by this integer key before a dense cast (relation →
    /// matrix casts need a defined order; sparse casts carry their own row
    /// ids). Applied identically to original and rewritten prefixes, so
    /// verification compares like with like.
    pub sort_key: Option<String>,
    /// How the prefix's output becomes a matrix.
    pub cast: CastKind,
    /// Name the cast matrix is bound under for the LA suffix.
    pub cast_name: String,
    /// The LA expression evaluated over the cast matrix.
    pub suffix: Expr,
}

/// A materialized relational view: registered both as a catalog table (its
/// materialization) and as a PACB view (its definition).
#[derive(Debug, Clone)]
pub struct TableView {
    /// Name the materialization is stored under in the catalog.
    pub name: String,
    /// The defining query over base tables.
    pub def: RelQuery,
}

/// Timings and outcomes of the relational (PACB) phase.
#[derive(Debug, Clone)]
pub struct RelPhase {
    /// The compiled prefix (CQ + output columns).
    pub compiled: CompiledQuery,
    /// Outcome of the PACB reformulation over the registered views.
    pub pacb: PacbResult,
    /// Row-count cost of the original prefix (base-table scans).
    pub cost_original: f64,
    /// Cost of the chosen rewriting, when one beat the original.
    pub cost_best: Option<f64>,
    /// The chosen rewriting over view predicates, when used.
    pub rewriting: Option<Cq>,
    /// Wall-time this call spent in the PACB phase, microseconds (0 on a
    /// snapshot memo hit).
    pub pacb_us: u128,
    /// Wall-time this call spent executing the chosen prefix, microseconds
    /// (0 on a snapshot memo hit).
    pub exec_us: u128,
    /// Row count of the prefix's output.
    pub rows_out: usize,
    /// Whether this phase, the table and the cast were served from the
    /// snapshot's prefix memo instead of being computed by this call.
    pub memo_hit: bool,
}

/// Result of a hybrid rewrite: the relational phase, the cast, and the LA
/// phase, with the machine-checked verification verdict when requested.
#[derive(Debug)]
pub struct HybridResult {
    /// The relational (PACB) phase.
    pub rel: RelPhase,
    /// Output of the (possibly rewritten) relational prefix.
    pub table: Table,
    /// The matrix `table` was cast into: bind it under the pipeline's
    /// `cast_name` to evaluate `best` — casting `table` again would only
    /// rebuild it.
    pub cast: Matrix,
    /// Metadata the cast matrix was catalogued under for the LA suffix:
    /// real shape and nnz from the materialization — a sparse cast must
    /// surface its true density here (not a dense default), or the
    /// suffix's cost oracle would misprice every plan touching it.
    pub cast_meta: MatrixMeta,
    /// Wall-time this call spent in the relation-to-matrix cast,
    /// microseconds (0 on a snapshot memo hit).
    pub cast_us: u128,
    /// The ranked LA plans for the suffix.
    pub ranked: RankedPlans,
    /// The winning LA plan (execution-verified in the verified path).
    pub best: Plan,
    /// `Some(true)` when both halves verified by execution: the rewritten
    /// prefix cast to the same matrix, and the best-ranked LA plan agreed
    /// with the original suffix. `None` when verification was not run.
    pub verified: Option<bool>,
    /// `Some` when any phase gave up completeness: a poisoned maintainer
    /// (the run proceeded without materialized table views), a chase or
    /// backchase budget/deadline, or a contained panic in the LA phase.
    /// The result is still sound — degraded runs just may miss cheaper
    /// rewritings. The first (most upstream) degradation wins.
    pub degraded: Option<Degraded>,
    /// End-to-end wall-time of the hybrid rewrite, microseconds.
    pub elapsed_us: u128,
}

/// The live catalog of a [`HybridOptimizer`]: base tables plus the table
/// views' materializations. It reads as a [`Catalog`]; its only writes are
/// logged row changes, whose views stay stale until
/// [`HybridOptimizer::maintain_views`]. Write base tables only: maintenance
/// refuses a write to a view's own table ([`HybridError::ViewWrite`]) and
/// poisons until [`HybridOptimizer::rebuild_views`]. Tables arrive through
/// [`HybridOptimizer::register_table`], and only maintenance drains the log.
///
/// ```
/// # use hadad_relational::{Catalog, Column, Table, Value};
/// # use hadad_rewrite::{HybridOptimizer, Optimizer, RelQuery};
/// let mut hy = HybridOptimizer::new(Catalog::new(), Optimizer::new(Default::default()));
/// hy.register_table("tweets", Table::new(vec![("topic", Column::Int(vec![3, 4]))]))?;
/// hy.register_table_view("topic3", RelQuery::scan("tweets").select_eq("topic", 3))?;
/// hy.catalog.insert_rows("tweets", vec![vec![Value::Int(3)]])?;
/// assert_eq!(hy.stale_views(), ["topic3"]);
/// hy.maintain_views()?;
/// assert_eq!(hy.catalog.cardinality("topic3"), Some(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Registering a table, draining the log and applying an unlogged delta
/// through the handle do not compile:
///
/// ```compile_fail,E0596
/// # use {hadad_relational::{Catalog, Table}, hadad_rewrite::{HybridOptimizer, Optimizer}};
/// let mut hy = HybridOptimizer::new(Catalog::new(), Optimizer::new(Default::default()));
/// hy.catalog.register("t", Table::new(vec![]));
/// ```
///
/// ```compile_fail,E0596
/// # use {hadad_relational::Catalog, hadad_rewrite::{HybridOptimizer, Optimizer}};
/// let mut hy = HybridOptimizer::new(Catalog::new(), Optimizer::new(Default::default()));
/// hy.catalog.take_updates();
/// ```
///
/// ```compile_fail,E0596
/// # use hadad_relational::{ivm::Delta, Catalog, Table};
/// # use hadad_rewrite::{HybridOptimizer, Optimizer};
/// let mut hy = HybridOptimizer::new(Catalog::new(), Optimizer::new(Default::default()));
/// hy.catalog.apply_unlogged("t", &Delta::empty(&Table::new(vec![])));
/// ```
pub struct LiveCatalog(Catalog);

impl Deref for LiveCatalog {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

impl LiveCatalog {
    /// [`Catalog::insert_rows`], logged for [`HybridOptimizer::maintain_views`].
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize, IvmError> {
        self.0.insert_rows(name, rows)
    }

    /// [`Catalog::delete_rows`], logged for [`HybridOptimizer::maintain_views`].
    pub fn delete_rows(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize, IvmError> {
        self.0.delete_rows(name, rows)
    }
}

/// The hybrid facade: a table catalog on the relational side, an
/// [`Optimizer`] (with its LA views) on the LA side, and a
/// [`ViewMaintainer`] owning the table views and maintained casts and
/// keeping them consistent under base-table updates.
pub struct HybridOptimizer {
    /// The relational side: base tables plus materialized views.
    pub catalog: LiveCatalog,
    /// The LA side: rewriter, cost oracle, and LA views.
    pub optimizer: Optimizer,
    /// The table views, the maintained casts and their freshness.
    maintainer: ViewMaintainer,
    /// The relational side compiled for `catalog` and the table views,
    /// shared with every published snapshot.
    schema: Arc<RelSchema>,
    /// Published read snapshot, lazily allocated by [`HybridOptimizer::reader`].
    /// `None` until a reader exists — snapshot clones are only paid for
    /// once someone reads concurrently.
    shared: Option<Arc<Mutex<Arc<CatalogSnapshot>>>>,
}

impl HybridOptimizer {
    /// A hybrid optimizer over `catalog` and `optimizer`, with no views.
    /// PACB runs under the default chase budget.
    pub fn new(catalog: Catalog, optimizer: Optimizer) -> Self {
        let schema =
            RelSchema::compile(&catalog, &[]).expect("a schema without views compiles");
        HybridOptimizer {
            schema: Arc::new(schema),
            catalog: LiveCatalog(catalog),
            optimizer,
            maintainer: ViewMaintainer::new(),
            shared: None,
        }
    }

    /// Materializes `def` over the current catalog and registers the result
    /// as a table (under `name`), a PACB view, and a maintained view.
    /// Registering over an existing table or view name is an error — a
    /// silent overwrite would leave the displaced table's dependents
    /// reading a different relation. Pending catalog updates are
    /// maintained first, so the new materialization and the maintainer's
    /// caches agree on the base-table state.
    pub fn register_table_view(
        &mut self,
        name: impl Into<String>,
        def: RelQuery,
    ) -> Result<(), HybridError> {
        let name = name.into();
        if self.catalog.get(&name).is_some() {
            return Err(HybridError::DuplicateName(name));
        }
        self.analyze_table_view(&name, &def)?;
        self.maintain_views()?;
        let table = def.execute(&self.catalog)?;
        self.catalog.0.register(&name, table);
        self.maintainer.track(&self.catalog, TableView { name, def })?;
        self.schema = Arc::new(RelSchema::compile(&self.catalog, self.maintainer.views())?);
        self.publish();
        Ok(())
    }

    /// Adds or replaces the base table `name`, then
    /// [`HybridOptimizer::rebuild_views`], so no view or cast is left stale
    /// and the schema is compiled once. A table view's name is refused
    /// ([`HybridError::DuplicateName`]): its definition owns its table.
    pub fn register_table(&mut self, name: &str, table: Table) -> Result<(), HybridError> {
        if self.maintainer.views().iter().any(|v| v.name == name) {
            return Err(HybridError::DuplicateName(name.to_owned()));
        }
        self.catalog.0.register(name, table);
        self.rebuild_views()
    }

    /// Static gate for a candidate table view: compiles the definition on
    /// a scratch vocabulary and analyzes the `V_IO`/`V_OI` pair PACB will
    /// chase with. The pair is analyzed in isolation — cross-view cycles
    /// exist for any two projecting views over a shared table and the
    /// restricted chase saturates through them, so only a cycle the view
    /// closes *by itself* (or an unsafe definition) is a rejection.
    fn analyze_table_view(&self, name: &str, def: &RelQuery) -> Result<(), HybridError> {
        let mut tv = TableVocab::from_catalog(&self.catalog);
        let compiled = def.compile(&self.catalog, &mut tv)?;
        let head_pred = tv.vocab.predicate(name, compiled.columns.len());
        let view = hadad_chase::View::new(name, head_pred, compiled.cq);
        let pair: Vec<hadad_chase::Constraint> =
            vec![view.io_constraint().into(), view.oi_constraint().into()];
        let report = hadad_core::analyze::Analyzer::new(&pair)
            .with_vocab(&tv.vocab)
            .without_subsumption()
            .report();
        match report.rejection() {
            Some(r) => Err(HybridError::RejectedView(r)),
            None => Ok(()),
        }
    }

    /// Registers a materialized LA view on the suffix optimizer. Refused
    /// (as [`RewriteError::Rejected`]) if the view's constraints fail
    /// static analysis.
    pub fn register_la_view(
        &mut self,
        name: impl Into<String>,
        def: Expr,
    ) -> Result<(), HybridError> {
        self.optimizer.register_la_view(name, def)?;
        self.publish();
        Ok(())
    }

    /// The registered table views, in registration order.
    pub fn table_views(&self) -> &[TableView] {
        self.maintainer.views()
    }

    /// Registers a cast whose matrix metadata tracks the underlying view
    /// across updates, and stamps it now. The cast name must be fresh in
    /// the LA catalog (which holds every maintained cast from its first
    /// stamp) and among the LA views — re-stamping over an existing input
    /// matrix (or a previously registered cast) would silently repoint
    /// every plan that reads it at the cast's metadata, and a view's name
    /// would merge the cast with the view's definition.
    pub fn register_maintained_cast(
        &mut self,
        cast: MaintainedCast,
    ) -> Result<(), HybridError> {
        if self.optimizer.cat.get(&cast.cast_name).is_some()
            || self.optimizer.has_la_view(&cast.cast_name)
        {
            return Err(HybridError::DuplicateName(cast.cast_name));
        }
        let name = cast.cast_name.clone();
        let meta = self.maintainer.track_cast(&self.catalog, cast)?;
        self.optimizer.cat.register(name, meta);
        self.publish();
        Ok(())
    }

    /// The registered maintained casts, in registration order.
    pub fn maintained_casts(&self) -> &[MaintainedCast] {
        self.maintainer.casts()
    }

    /// Drains the catalog's update log, delta-maintains every registered
    /// table view, and re-stamps the matrix metadata of maintained casts
    /// whose source changed. Call it after a batch of
    /// [`LiveCatalog::insert_rows`] / [`LiveCatalog::delete_rows`] writes:
    /// until then, the views and casts those writes reach are stale.
    pub fn maintain_views(&mut self) -> Result<MaintenanceReport, HybridError> {
        let report = self.maintainer.maintain(&mut self.catalog.0)?;
        if report.entries_processed > 0 {
            for (name, meta) in &report.restamped {
                self.optimizer.cat.register(name.as_str(), meta.clone());
            }
            self.publish();
        }
        Ok(report)
    }

    /// Views whose base tables (direct, or through another stale view)
    /// carry unmaintained updates, or whose maintainer is poisoned.
    pub fn stale_views(&self) -> Vec<&str> {
        self.maintainer.stale_views(&self.catalog)
    }

    /// Recovery from a failed maintenance pass (or a replaced table): drops
    /// the pending log, re-derives every view from the current base tables
    /// in place, in registration order, re-stamps every maintained cast and
    /// compiles the relational side. A failure keeps every registration and
    /// leaves the maintainer poisoned.
    pub fn rebuild_views(&mut self) -> Result<(), HybridError> {
        for (name, meta) in self.maintainer.rebuild(&mut self.catalog.0)? {
            self.optimizer.cat.register(name, meta);
        }
        // Every definition compiled when it was registered and re-executed
        // just now, so this compiles.
        self.schema = Arc::new(RelSchema::compile(&self.catalog, self.maintainer.views())?);
        self.publish();
        Ok(())
    }

    /// A [`SnapshotReader`] tracking this optimizer's latest published
    /// snapshot. The first call allocates the shared slot (snapshot clones
    /// are only paid for once a concurrent reader exists); every call
    /// republishes the current state first, and is refused while that
    /// state is not fresh: a poisoned maintainer or stale
    /// materializations would bake unknown or outdated view contents into
    /// every read served from it. Clone the returned handle freely across
    /// threads — the writer's later clean commits (registrations,
    /// maintenance passes, rebuilds) show up in readers automatically.
    pub fn reader(&mut self) -> Result<SnapshotReader, HybridError> {
        self.maintainer.check_fresh(&self.catalog)?;
        match &self.shared {
            Some(shared) => {
                let shared = Arc::clone(shared);
                self.publish();
                Ok(SnapshotReader { shared })
            }
            None => {
                let shared = Arc::new(Mutex::new(Arc::new(self.make_snapshot())));
                self.shared = Some(Arc::clone(&shared));
                Ok(SnapshotReader { shared })
            }
        }
    }

    fn make_snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            catalog: self.catalog.clone(),
            views: self.maintainer.views().to_vec(),
            schema: Arc::clone(&self.schema),
            optimizer: self.optimizer.clone(),
            epoch: self.catalog.epoch(),
            memo: Arc::default(),
        }
    }

    /// Republishes the shared snapshot after a state change. A no-op until
    /// a reader exists; silently skipped when the state is not fresh
    /// (poisoned maintainer, stale materializations) — readers then keep
    /// serving the last clean snapshot, which is exactly the wanted
    /// semantics for a writer mid-batch.
    fn publish(&self) {
        static PUBLISHES: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("snapshot.publishes");
        static EPOCH_ADVANCE: hadad_obs::LazyHistogram =
            hadad_obs::LazyHistogram::new("snapshot.epoch_advance");
        let Some(shared) = &self.shared else { return };
        if self.maintainer.check_fresh(&self.catalog).is_err() {
            return;
        }
        let snap = Arc::new(self.make_snapshot());
        let mut slot = shared.lock().unwrap_or_else(PoisonError::into_inner);
        // Epoch lag between consecutive published snapshots: how many
        // committed epochs a reader could skip past in one reload.
        EPOCH_ADVANCE.record(snap.epoch().saturating_sub(slot.epoch()));
        PUBLISHES.incr();
        *slot = snap;
    }

    /// Rewrites the pipeline without executing the LA verification step
    /// (the relational prefix still executes — its output feeds the cast).
    pub fn rewrite_hybrid(&self, p: &HybridPipeline) -> Result<HybridResult, HybridError> {
        self.run(p, None)
    }

    /// Rewrites the pipeline and verifies both halves by execution: the
    /// LA suffix through [`Optimizer::rewrite_verified`] (cheapest plan
    /// that agrees with the original wins), the relational prefix by
    /// comparing the cast matrices of the original and rewritten queries.
    pub fn rewrite_hybrid_verified(
        &self,
        p: &HybridPipeline,
        env: &Env,
        rtol: f64,
    ) -> Result<HybridResult, HybridError> {
        self.run(p, Some((env, rtol)))
    }

    fn run(
        &self,
        p: &HybridPipeline,
        verify: Option<(&Env, f64)>,
    ) -> Result<HybridResult, HybridError> {
        // A poisoned maintainer means view materializations are unknown —
        // but base tables are always current (mutations land immediately;
        // the pending log only defers *view* maintenance). So instead of
        // refusing, degrade: run the pipeline against base tables only, with
        // no materialized views offered to either rewriter. The caller sees
        // the degradation on the result and can `rebuild_views()` at leisure.
        // Stale materializations, unlike poisoning, have a cheap remedy —
        // `maintain_views()` — so they stay a hard error rather than a
        // silent degradation.
        let degraded = match self.maintainer.check_fresh(&self.catalog) {
            Ok(()) => None,
            Err(HybridError::MaintenancePoisoned) => Some(Degraded {
                reason: DegradeReason::MaintenancePoisoned,
                phase: RewritePhase::Maintenance,
            }),
            Err(stale) => return Err(stale),
        };
        run_state(
            &RunState {
                catalog: &self.catalog,
                schema: &self.schema,
                optimizer: &self.optimizer,
                epoch: self.catalog.epoch(),
                degraded,
                memo: None,
            },
            p,
            verify,
        )
    }
}

/// Everything one hybrid rewrite reads, borrowed either from the live
/// [`HybridOptimizer`] (the `&self` path) or from a published
/// [`CatalogSnapshot`] (the concurrent read path). Capturing it in one
/// struct is what lets `run_state` stay free of `&mut` and of the
/// optimizer itself.
struct RunState<'a> {
    catalog: &'a Catalog,
    /// The relational side compiled for `catalog`'s schema and its table
    /// views; a degraded run compiles a view-less one of its own instead.
    schema: &'a RelSchema,
    optimizer: &'a Optimizer,
    /// Catalog epoch the state was captured at — the epoch the LA
    /// suffix's plan-cache probes and inserts carry.
    epoch: u64,
    /// Pre-determined degradation (poisoned maintainer): the run proceeds
    /// with no materialized views offered.
    degraded: Option<Degraded>,
    /// The snapshot memo the prefix is answered from, on the one path
    /// that reads it ([`CatalogSnapshot::rewrite_hybrid`]).
    memo: Option<&'a PrefixMemo>,
}

/// The relational half of one run (phases 1–4): the prefix's PACB phase,
/// its output table, the matrix that table was cast into and the metadata
/// that matrix is catalogued under.
#[derive(Clone)]
struct PrefixOutcome {
    rel: RelPhase,
    table: Table,
    cast: Matrix,
    cast_meta: MatrixMeta,
    cast_us: u128,
}

impl PrefixOutcome {
    /// Approximate heap footprint: what a memo entry holds on to.
    fn bytes(&self) -> usize {
        let table: usize = (0..self.table.num_cols())
            .map(|i| match self.table.column_at(i) {
                Column::Str(v) => v.iter().map(|s| size_of::<String>() + s.len()).sum(),
                c => c.len() * size_of::<i64>(),
            })
            .sum();
        let cast = match &self.cast {
            Matrix::Dense(_) => self.cast_meta.rows * self.cast_meta.cols * size_of::<f64>(),
            Matrix::Sparse(_) => self.cast_meta.nnz * (size_of::<usize>() + size_of::<f64>()),
        };
        table + cast
    }
}

/// The relational side of a run that no query changes, compiled for one
/// catalog schema and its table views: the table vocabulary (with the
/// views' constants interned), the views' CQs and PACB's two rule sets.
/// [`HybridOptimizer`] compiles it wherever a table or view is registered
/// or the views are rebuilt — the only places the schema moves — and
/// shares it with every snapshot.
struct RelSchema {
    /// One predicate per catalog table, and the views' constants, frozen:
    /// a run compiles its prefix into an O(1) clone, so the prefix's
    /// constants stay the run's.
    vocab: TableVocab,
    /// PACB over the views.
    pacb: Pacb,
}

impl RelSchema {
    /// Compiles `views` over `catalog`'s schema: each definition to a CQ,
    /// then PACB over them all. Counted by `hybrid.schema_compiles`.
    fn compile(catalog: &Catalog, views: &[TableView]) -> Result<Self, HybridError> {
        static COMPILES: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("hybrid.schema_compiles");
        COMPILES.incr();
        let mut vocab = TableVocab::from_catalog(catalog);
        let views = views
            .iter()
            .map(|v| {
                let def = v.def.compile(catalog, &mut vocab)?;
                Ok(View::new(&v.name, vocab.pred(&v.name)?, def.cq))
            })
            .collect::<Result<Vec<View>, HybridError>>()?;
        vocab.vocab.freeze();
        Ok(RelSchema { pacb: Pacb::new(&[], &views), vocab })
    }
}

/// Phases 1–4 of a run: compile, PACB, execute and cast the prefix. What
/// they return depends only on the pipeline's prefix, sort key and cast
/// and on the state's catalog and views — which is what lets a snapshot
/// memoize it.
fn run_prefix(state: &RunState<'_>, p: &HybridPipeline) -> Result<PrefixOutcome, HybridError> {
    static PACB_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("hybrid.pacb_us");
    static EXEC_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("hybrid.exec_us");
    static CAST_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("hybrid.cast_us");

    // Phase 1: compile the prefix to a CQ over the schema's vocabulary. A
    // degraded run offers no views, so it compiles a view-less schema.
    let own;
    let schema = match state.degraded {
        None => state.schema,
        Some(_) => {
            own = RelSchema::compile(state.catalog, &[])?;
            &own
        }
    };
    let mut tv = schema.vocab.clone();
    let compiled = p.prefix.compile(state.catalog, &mut tv)?;

    // Phase 2: PACB with the catalog's row-count cost as `Prune_prov`
    // threshold — rewritings that cannot beat re-running the original
    // prefix are pruned during the backchase.
    let cost_original =
        state.catalog.scan_cost(compiled.cq.body.iter().filter_map(|a| tv.table_of(a.pred)));
    let cost_fn = |inst: &Instance, atoms: &[usize]| -> f64 {
        state.catalog.scan_cost(
            atoms.iter().map(|&i| tv.table_of(inst.fact(i).pred).unwrap_or("?unknown-pred")),
        )
    };
    // Supervised: a panic inside PACB (a bug, or an injected fault in
    // the shared chase engine) degrades the relational phase to "no
    // rewriting found" — the original prefix below is always a sound
    // fallback — instead of unwinding out of the pipeline.
    let (pacb, pacb_us) = hadad_obs::timed("hybrid.pacb", &PACB_US, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            schema.pacb.rewrite(&compiled.cq, Some((&cost_fn, cost_original)))
        }))
        .unwrap_or_else(|_| PacbResult {
            rewritings: Vec::new(),
            chase_outcome: ChaseOutcome::BudgetExhausted,
            backchase_outcome: ChaseOutcome::BudgetExhausted,
            universal_plan_size: 0,
            chase_stats: ChaseStats::default(),
            backchase_stats: ChaseStats::default(),
            degraded: Some(Degraded {
                reason: DegradeReason::WorkerPanic,
                phase: RewritePhase::Chase,
            }),
        })
    });

    let best_rw = pacb.rewritings.iter().find(|r| r.cost.is_some_and(|c| c < cost_original));

    // Phase 3: execute the chosen prefix — the winning rewriting, or else
    // the compiled original, whose constants each filter their own atom.
    let sort_key = p.sort_key.as_deref();
    let chosen = best_rw.map_or(&compiled.cq, |rw| &rw.query);
    let (table, exec_us) = hadad_obs::timed("hybrid.rel_exec", &EXEC_US, || {
        eval_cq_sorted(chosen, &compiled.columns, state.catalog, &tv, sort_key)
    });
    let table = table?;

    // Phase 4: cast into the LA world.
    let (cast, cast_us) =
        hadad_obs::timed("hybrid.cast", &CAST_US, || apply_cast(&table, &p.cast));
    let cast = cast?;
    let cast_meta = MatrixMeta::from_matrix(&cast);

    let rel = RelPhase {
        compiled,
        cost_original,
        cost_best: best_rw.and_then(|r| r.cost),
        rewriting: best_rw.map(|r| r.query.clone()),
        pacb,
        pacb_us,
        exec_us,
        rows_out: table.num_rows(),
        memo_hit: false,
    };
    Ok(PrefixOutcome { rel, table, cast, cast_meta, cast_us })
}

/// One hybrid rewrite over a captured [`RunState`]: shared verbatim by the
/// live `&self` path and by snapshot readers on other threads. Its
/// `elapsed_us` is the measurement `hybrid.total_us` records.
fn run_state(
    state: &RunState<'_>,
    p: &HybridPipeline,
    verify: Option<(&Env, f64)>,
) -> Result<HybridResult, HybridError> {
    static RUNS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("hybrid.runs");
    static TOTAL_US: hadad_obs::LazyHistogram =
        hadad_obs::LazyHistogram::new("hybrid.total_us");
    RUNS.incr();
    let (result, elapsed_us) =
        hadad_obs::timed("hybrid.run", &TOTAL_US, || run_phases(state, p, verify));
    let mut result = result?;
    result.elapsed_us = elapsed_us;
    Ok(result)
}

/// The phases of [`run_state`], untimed.
fn run_phases(
    state: &RunState<'_>,
    p: &HybridPipeline,
    verify: Option<(&Env, f64)>,
) -> Result<HybridResult, HybridError> {
    // The chase's `name-unique` EGD would merge the cast leaf with the
    // view's definition and make the two "equivalent".
    if state.optimizer.has_la_view(&p.cast_name) {
        return Err(HybridError::DuplicateName(p.cast_name.clone()));
    }

    let PrefixOutcome { rel, table, cast: mut mat, cast_meta, cast_us } = match state.memo {
        Some(memo) => memo.answer(p, || run_prefix(state, p))?,
        None => run_prefix(state, p)?,
    };

    // Phase 5: LA suffix rewriting with the cast matrix catalogued, for
    // this call only, from its actual materialization (shape and nnz) —
    // for a sparse cast the true ultra-sparse density, which the encoder
    // seeds the chase's analysis with. The call's plan-cache entries carry
    // the captured epoch, not whatever the live catalog has moved on to.
    let call = CallContext { epoch: state.epoch, cast: Some((&p.cast_name, &cast_meta)) };

    let (ranked, best, verified) = match verify {
        None => {
            let ranked = state.optimizer.rewrite_in(&p.suffix, call)?;
            let best = ranked.best().clone();
            (ranked, best, None)
        }
        Some((env, rtol)) => {
            // Relational half: the rewriting must cast to the same
            // matrix as the operator pipeline over base tables.
            let rel_ok = match &rel.rewriting {
                None => true,
                Some(_) => {
                    let orig = p.prefix.execute_sorted(state.catalog, p.sort_key.as_deref())?;
                    let orig_mat = apply_cast(&orig, &p.cast)?;
                    approx_eq(&orig_mat, &mat, rtol)
                }
            };
            // The cast is lent to the verification environment and taken
            // back for the result.
            let mut env = env.clone();
            env.bind(&p.cast_name, mat);
            let (ranked, plan, _) =
                state.optimizer.rewrite_verified_in(&p.suffix, &env, rtol, call)?;
            mat = env.unbind(&p.cast_name).expect("bound above");
            // Verified only if the *best-ranked* plan is the one that
            // passed execution (a fallback to a later plan or to the
            // original means the top plan failed the check).
            let la_ok = plan.expr == ranked.best().expr;
            (ranked, plan, Some(rel_ok && la_ok))
        }
    };

    // Most upstream degradation wins: maintenance, then the relational
    // (PACB) phase, then the LA phase.
    let degraded = state
        .degraded
        .clone()
        .or_else(|| rel.pacb.degraded.clone())
        .or_else(|| ranked.report.degraded.clone());

    Ok(HybridResult {
        rel,
        table,
        cast: mat,
        cast_meta,
        cast_us,
        ranked,
        best,
        verified,
        degraded,
        elapsed_us: 0,
    })
}

/// Heap bytes one snapshot's prefix memo may hold. A prefix whose outcome
/// would overflow it runs cold, every time: nothing is evicted, because
/// the memo only lives until the writer's next publish.
const PREFIX_MEMO_BYTES: usize = 32 << 20;

/// A published snapshot's answers to the relational prefixes it was asked
/// for, keyed by value on what [`run_prefix`] reads of a pipeline. The
/// snapshot never changes, so an entry never goes stale: there is no
/// invalidation, only the byte bound.
#[derive(Default)]
struct PrefixMemo {
    entries: RwLock<MemoEntries>,
}

#[derive(Default)]
struct MemoEntries {
    /// Stored as a hit reads them: timings zeroed, `memo_hit` set.
    by_prefix: HashMap<(RelQuery, Option<String>, CastKind), Arc<PrefixOutcome>>,
    bytes: usize,
}

impl PrefixMemo {
    /// The memoized outcome for `p`'s prefix, or `cold()`'s. Only a clean
    /// outcome is stored — an error, an injected fault or a budget cut is
    /// recomputed by the next call. The lock is never held while `cold`
    /// runs, so two racing misses may both compute; the first to finish
    /// stores.
    fn answer(
        &self,
        p: &HybridPipeline,
        cold: impl FnOnce() -> Result<PrefixOutcome, HybridError>,
    ) -> Result<PrefixOutcome, HybridError> {
        static HITS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("hybrid.prefix_memo_hits");
        let key = (p.prefix.clone(), p.sort_key.clone(), p.cast.clone());
        let hit = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_prefix
            .get(&key)
            .cloned();
        if let Some(entry) = hit {
            HITS.incr();
            return Ok(PrefixOutcome::clone(&entry));
        }
        let out = cold()?;
        if out.rel.pacb.degraded.is_none() {
            let bytes = out.bytes();
            let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
            if entries.bytes + bytes <= PREFIX_MEMO_BYTES
                && !entries.by_prefix.contains_key(&key)
            {
                let mut stored = out.clone();
                stored.rel.memo_hit = true;
                (stored.rel.pacb_us, stored.rel.exec_us, stored.cast_us) = (0, 0, 0);
                entries.bytes += bytes;
                entries.by_prefix.insert(key, Arc::new(stored));
            }
        }
        Ok(out)
    }
}

/// An immutable, owned copy of a [`HybridOptimizer`]'s rewriting state —
/// relational catalog, table views, LA optimizer — captured at a committed
/// catalog epoch. The relational side compiled for that catalog's schema
/// is the writer's, shared rather than copied: a publish compiles nothing.
///
/// Every method takes `&self`, so one snapshot (behind an [`Arc`]) serves
/// hybrid rewrites from any number of threads while the writer keeps
/// mutating and maintaining the live optimizer. Snapshots are only ever
/// published from fresh states (maintainer healthy, nothing stale),
/// so the stale-view and poisoning checks of the live path are vacuous
/// here by construction. Because a snapshot never changes, it memoizes
/// the relational half of [`CatalogSnapshot::rewrite_hybrid`] for all of
/// its readers: created empty at publish, bounded by a byte constant,
/// dropped with the snapshot.
#[derive(Clone)]
pub struct CatalogSnapshot {
    catalog: Catalog,
    views: Vec<TableView>,
    schema: Arc<RelSchema>,
    optimizer: Optimizer,
    epoch: u64,
    /// Prefix outcomes computed against this snapshot; published empty,
    /// dropped with the snapshot (a clone of the snapshot shares it).
    memo: Arc<PrefixMemo>,
}

impl CatalogSnapshot {
    /// The catalog epoch this snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshotted relational catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The snapshotted table views, in registration order.
    pub fn table_views(&self) -> &[TableView] {
        &self.views
    }

    /// Rewrites a hybrid pipeline against the snapshot, without the LA
    /// verification step — the snapshot analogue of
    /// [`HybridOptimizer::rewrite_hybrid`]. The relational half (PACB,
    /// prefix execution, cast) is memoized per snapshot: a prefix already
    /// answered cleanly here is served from the memo
    /// (`result.rel.memo_hit`); the LA suffix is rewritten every call.
    pub fn rewrite_hybrid(&self, p: &HybridPipeline) -> Result<HybridResult, HybridError> {
        run_state(&self.state(Some(&self.memo)), p, None)
    }

    /// Rewrites and execution-verifies a hybrid pipeline against the
    /// snapshot — the snapshot analogue of
    /// [`HybridOptimizer::rewrite_hybrid_verified`]. Never reads the
    /// prefix memo: verification re-executes the prefix it checks.
    pub fn rewrite_hybrid_verified(
        &self,
        p: &HybridPipeline,
        env: &Env,
        rtol: f64,
    ) -> Result<HybridResult, HybridError> {
        run_state(&self.state(None), p, Some((env, rtol)))
    }

    /// Rewrites a pure-LA expression against the snapshot's optimizer;
    /// its plan-cache probes carry the snapshot's epoch.
    pub fn rewrite(&self, e: &Expr) -> Result<RankedPlans, RewriteError> {
        self.optimizer.rewrite_in(e, CallContext { epoch: self.epoch, cast: None })
    }

    fn state<'a>(&'a self, memo: Option<&'a PrefixMemo>) -> RunState<'a> {
        RunState {
            catalog: &self.catalog,
            schema: &self.schema,
            optimizer: &self.optimizer,
            epoch: self.epoch,
            degraded: None,
            memo,
        }
    }
}

/// A cloneable, `Send` handle onto a [`HybridOptimizer`]'s latest
/// *published* [`CatalogSnapshot`].
///
/// Hand clones to reader threads: each loads the current snapshot
/// ([`SnapshotReader::current`]; the lock is held only for the `Arc`
/// pointer copy) and rewrites against it lock-free, while the writer
/// maintains the live state and republishes after every clean commit.
/// Readers never observe a mid-maintenance state — publication happens
/// only when nothing is stale and the maintainer is healthy.
#[derive(Clone)]
pub struct SnapshotReader {
    shared: Arc<Mutex<Arc<CatalogSnapshot>>>,
}

impl SnapshotReader {
    /// The latest published snapshot. Callers holding the returned `Arc`
    /// keep that epoch's state alive even after the writer republishes.
    pub fn current(&self) -> Arc<CatalogSnapshot> {
        static READS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("snapshot.reads");
        READS.incr();
        Arc::clone(&self.shared.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::tests::catalog;
    use hadad_core::expr::dsl::*;
    use hadad_core::MetaCatalog;
    use hadad_relational::ops;

    /// Regression: rewritten prefixes run under bag semantics. Projecting
    /// away the key leaves duplicate tuples, and the view-backed rewriting
    /// must keep every one of them (a set-semantics evaluation would
    /// collapse the 10 rows to the 4 distinct levels and cast the wrong
    /// matrix).
    #[test]
    fn rewriting_preserves_duplicate_rows() {
        let mut hy = HybridOptimizer::new(catalog(), Optimizer::new(MetaCatalog::new()));
        hy.register_table_view("topic3", RelQuery::scan("tweets").select_eq("topic", 3))
            .unwrap();
        let prefix = RelQuery::scan("tweets").select_eq("topic", 3).project(&["level"]);
        let p = HybridPipeline {
            prefix: prefix.clone(),
            sort_key: Some("level".into()),
            cast: CastKind::Dense { columns: vec!["level".into()] },
            cast_name: "M".into(),
            suffix: m("M"),
        };
        let r = hy.rewrite_hybrid(&p).unwrap();
        assert!(r.rel.rewriting.is_some());
        assert_eq!(r.rel.rows_out, 10);
        let direct = ops::sort_by_int(&prefix.execute(&hy.catalog).unwrap(), "level").unwrap();
        assert_eq!(r.table, direct);
    }

    #[test]
    fn pacb_rewrites_prefix_onto_materialized_view() {
        let mut hy = HybridOptimizer::new(catalog(), Optimizer::new(MetaCatalog::new()));
        hy.register_table_view("topic3", RelQuery::scan("tweets").select_eq("topic", 3))
            .unwrap();
        let p = HybridPipeline {
            prefix: RelQuery::scan("tweets").select_eq("topic", 3),
            sort_key: Some("tid".into()),
            cast: CastKind::Dense { columns: vec!["tid".into(), "level".into()] },
            cast_name: "M".into(),
            suffix: m("M"),
        };
        let r = hy.rewrite_hybrid(&p).unwrap();
        // The rewriting reads the 10-row view instead of 60-row tweets.
        assert!(r.rel.rewriting.is_some());
        assert_eq!(r.rel.cost_original, 60.0);
        assert_eq!(r.rel.cost_best, Some(10.0));
        assert_eq!(r.rel.rows_out, 10);
        assert_eq!(r.table.num_rows(), 10);
    }
}
