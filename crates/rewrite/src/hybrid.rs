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
//!   land on materialized table views instead of re-scanning base tables;
//! * the LA suffix goes through [`Optimizer::rewrite`], whose registered
//!   LA views contribute `V_IO`/`V_OI` constraints to the chase, so the
//!   pipeline lands on zero-cost `Mat(view)` leaves.
//!
//! Both forms of a prefix — the operator pipeline ([`RelQuery::execute`])
//! and a rewriting's CQ ([`eval_cq`]) — run on one executor,
//! [`hadad_relational::rowset`]: stages and atoms rewrite `u32` selection
//! vectors over the borrowed catalog tables, the pipeline's sort key
//! reorders those vectors, and each output column is gathered once at the
//! end — and on its one cell equality, so a `HashJoin` stage and the
//! shared variable it compiles to pair the same rows.
//!
//! Execution verifies both halves (the paper's machine-checkable
//! soundness): the rewritten prefix must produce the same cast matrix as
//! the operator pipeline, and the winning LA plan must agree with the
//! original suffix on the backend.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use hadad_chase::{
    Atom, ChaseBudget, ChaseOutcome, ChaseStats, Cq, DegradeReason, Degraded, Instance, Pacb,
    PacbOptions, PacbResult, PredId, RewritePhase, Term, Vocabulary,
};
use hadad_core::MatrixMeta;
use hadad_linalg::{approx_eq, Matrix};
use hadad_relational::rowset::{ColRef, Out};
use hadad_relational::{cast, Catalog, RowSet, Table, Value};

use crate::eval::{Env, EvalError};
use crate::optimizer::{Optimizer, Plan, RankedPlans, RewriteError};
use hadad_core::Expr;

pub use crate::maintain::{MaintenanceReport, ViewChange, ViewMaintainer};

/// Hybrid-pipeline failure.
#[derive(Debug)]
pub enum HybridError {
    /// A query or view referenced a table the catalog does not hold.
    MissingTable(String),
    /// A stage referenced a column its input table does not carry.
    MissingColumn(String),
    /// An equality selection contradicts an earlier one on the same column.
    Unsatisfiable(String),
    /// A table view's materialized arity differs from its definition's.
    ViewArity {
        /// The offending view.
        view: String,
        /// Column count of the stored materialization.
        expected: usize,
        /// Column count the definition produces.
        got: usize,
    },
    /// A view registration would shadow an existing table or view.
    DuplicateName(String),
    /// Registered views whose base tables carry unmaintained updates — run
    /// maintenance before rewriting, or the rewriter would read stale
    /// materializations.
    StaleViews(Vec<String>),
    /// A view reached the maintainer without being tracked first.
    UntrackedView(String),
    /// Tracking a view over a catalog with unmaintained updates (the
    /// cached intermediates would double-count them); maintain first.
    PendingUpdates(Vec<String>),
    /// A previous maintenance pass failed partway, leaving view state
    /// unknown — rebuild the views before maintaining or rewriting again.
    MaintenancePoisoned,
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
            HybridError::ViewArity { view, expected, got } => {
                write!(f, "view {view}: definition has {expected} columns, table has {got}")
            }
            HybridError::DuplicateName(n) => {
                write!(f, "name {n} is already registered in the catalog")
            }
            HybridError::StaleViews(vs) => {
                write!(f, "views stale under pending updates: {}", vs.join(", "))
            }
            HybridError::UntrackedView(v) => write!(f, "view {v} is not tracked"),
            HybridError::PendingUpdates(ts) => {
                write!(f, "catalog holds unmaintained updates for: {}", ts.join(", "))
            }
            HybridError::MaintenancePoisoned => {
                write!(
                    f,
                    "a failed maintenance pass left view state unknown; rebuild the views"
                )
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

/// One declarative relational stage. These mirror the executable operators
/// in `hadad_relational::ops` (and run on the executor under them),
/// restricted to the CQ-expressible fragment so the prefix can be
/// reformulated by PACB.
#[derive(Debug, Clone)]
pub enum RelOp {
    /// Equality selection on an integer column (the column position becomes
    /// a constant in the compiled CQ).
    SelectEq {
        /// Column the selection filters on.
        column: String,
        /// The integer constant selected.
        value: i64,
    },
    /// Equality selection on a string column.
    SelectStrEq {
        /// Column the selection filters on.
        column: String,
        /// The string constant selected.
        value: String,
    },
    /// Hash equi-join with another catalog table; right-side columns that
    /// collide are prefixed `right.` (repeatedly, until unique), exactly as
    /// `ops::hash_join` does.
    HashJoin {
        /// Right-side catalog table.
        table: String,
        /// Join key on the accumulated left side.
        left_key: String,
        /// Join key on the right table.
        right_key: String,
    },
    /// Projection to the named columns, in order.
    Project {
        /// Output columns, in order.
        columns: Vec<String>,
    },
}

impl RelOp {
    /// Applies this stage to a relation under construction — shared by
    /// [`RelQuery::execute`] and the view maintainer (which replays stages
    /// to cache join inputs).
    pub(crate) fn apply<'c>(
        &self,
        rows: &mut RowSet<'c>,
        catalog: &'c Catalog,
    ) -> Result<(), HybridError> {
        match self {
            RelOp::SelectEq { column: name, value } => {
                rows.filter(column(rows, name)?, &Value::Int(*value));
            }
            RelOp::SelectStrEq { column: name, value } => {
                rows.filter(column(rows, name)?, &Value::Str(value.clone()));
            }
            RelOp::HashJoin { table, left_key, right_key } => {
                let right = catalog
                    .get(table)
                    .ok_or_else(|| HybridError::MissingTable(table.clone()))?;
                let left = column(rows, left_key)?;
                let right_key = right
                    .column_index(right_key)
                    .ok_or_else(|| HybridError::MissingColumn(right_key.clone()))?;
                rows.hash_join(left, right, right_key);
            }
            RelOp::Project { columns } => {
                rows.project(columns).map_err(HybridError::MissingColumn)?;
            }
        }
        Ok(())
    }
}

/// The cell behind output column `name` of a relation under construction.
fn column(rows: &RowSet<'_>, name: &str) -> Result<ColRef, HybridError> {
    rows.column(name).ok_or_else(|| HybridError::MissingColumn(name.to_owned()))
}

/// A relational query: a scan of a catalog table followed by stages.
#[derive(Debug, Clone)]
pub struct RelQuery {
    /// The catalog table the scan starts from.
    pub table: String,
    /// The declarative stages applied to the scan, in order.
    pub ops: Vec<RelOp>,
}

impl RelQuery {
    /// A bare scan of `table` with no stages yet.
    pub fn scan(table: impl Into<String>) -> Self {
        RelQuery { table: table.into(), ops: Vec::new() }
    }

    /// Appends an integer equality selection.
    pub fn select_eq(mut self, column: impl Into<String>, value: i64) -> Self {
        self.ops.push(RelOp::SelectEq { column: column.into(), value });
        self
    }

    /// Appends a string equality selection.
    pub fn select_str_eq(
        mut self,
        column: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.ops.push(RelOp::SelectStrEq { column: column.into(), value: value.into() });
        self
    }

    /// Appends a hash equi-join with `table` on `left_key = right_key`.
    pub fn join(
        mut self,
        table: impl Into<String>,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Self {
        self.ops.push(RelOp::HashJoin {
            table: table.into(),
            left_key: left_key.into(),
            right_key: right_key.into(),
        });
        self
    }

    /// Appends a projection to `columns`, in order.
    pub fn project(mut self, columns: &[&str]) -> Self {
        self.ops.push(RelOp::Project {
            columns: columns.iter().map(std::string::ToString::to_string).collect(),
        });
        self
    }

    /// Runs the query on the [`RowSet`] executor: every stage rewrites
    /// selection vectors over the borrowed catalog tables, and the output
    /// columns are gathered once, after the last stage. A stage-less query
    /// is the only one that copies its whole scan table.
    pub fn execute(&self, catalog: &Catalog) -> Result<Table, HybridError> {
        self.execute_sorted(catalog, None)
    }

    /// [`RelQuery::execute`] with the rows stably sorted ascending by the
    /// integer key `sort_key` — the sort reorders selection vectors before
    /// the gather, so nothing is materialized twice.
    pub(crate) fn execute_sorted(
        &self,
        catalog: &Catalog,
        sort_key: Option<&str>,
    ) -> Result<Table, HybridError> {
        let scan = catalog
            .get(&self.table)
            .ok_or_else(|| HybridError::MissingTable(self.table.clone()))?;
        let mut rows = RowSet::scan(scan);
        for op in &self.ops {
            op.apply(&mut rows, catalog)?;
        }
        if let Some(key) = sort_key {
            rows.sort_by_key(column(&rows, key)?);
        }
        Ok(rows.gather())
    }

    /// Compiles the query to a CQ over the table vocabulary. Selections
    /// become constants (possibly in the head — rewritings preserve them),
    /// joins share variables across atoms, and the projection picks the
    /// head terms. The returned column names mirror the executable
    /// pipeline's output schema exactly, including `right.` prefixing.
    pub fn compile(
        &self,
        catalog: &Catalog,
        tv: &mut TableVocab,
    ) -> Result<CompiledQuery, HybridError> {
        let mut next_var = 0u32;
        let fresh = |n: &mut u32| {
            let v = *n;
            *n += 1;
            Term::Var(v)
        };

        let base = catalog
            .get(&self.table)
            .ok_or_else(|| HybridError::MissingTable(self.table.clone()))?;
        let mut cols: Vec<(String, Term)> =
            base.column_names().iter().map(|n| (n.clone(), fresh(&mut next_var))).collect();
        let mut atoms =
            vec![Atom::new(tv.pred(&self.table)?, cols.iter().map(|(_, t)| *t).collect())];

        let select_const = |column: &str,
                            sym: Term,
                            cols: &mut Vec<(String, Term)>,
                            atoms: &mut Vec<Atom>|
         -> Result<(), HybridError> {
            let cur = cols
                .iter()
                .find(|(n, _)| n == column)
                .map(|(_, t)| *t)
                .ok_or_else(|| HybridError::MissingColumn(column.to_owned()))?;
            match cur {
                Term::Var(v) => {
                    let subst = |t: &mut Term| {
                        if *t == Term::Var(v) {
                            *t = sym;
                        }
                    };
                    for a in atoms.iter_mut() {
                        a.args.iter_mut().for_each(&subst);
                    }
                    for (_, t) in cols.iter_mut() {
                        subst(t);
                    }
                    Ok(())
                }
                c if c == sym => Ok(()),
                _ => Err(HybridError::Unsatisfiable(column.to_owned())),
            }
        };

        for op in &self.ops {
            match op {
                RelOp::SelectEq { column, value } => {
                    let sym = Term::Const(tv.vocab.int(*value));
                    select_const(column, sym, &mut cols, &mut atoms)?;
                }
                RelOp::SelectStrEq { column, value } => {
                    let sym = Term::Const(tv.vocab.constant(intern_str_const(value)));
                    select_const(column, sym, &mut cols, &mut atoms)?;
                }
                RelOp::HashJoin { table, left_key, right_key } => {
                    let right = catalog
                        .get(table)
                        .ok_or_else(|| HybridError::MissingTable(table.clone()))?;
                    let key_term = cols
                        .iter()
                        .find(|(n, _)| n == left_key)
                        .map(|(_, t)| *t)
                        .ok_or_else(|| HybridError::MissingColumn(left_key.clone()))?;
                    if right.column_index(right_key).is_none() {
                        return Err(HybridError::MissingColumn(right_key.clone()));
                    }
                    let mut args = Vec::with_capacity(right.num_cols());
                    let mut new_cols: Vec<(String, Term)> = Vec::new();
                    for n in right.column_names() {
                        if n == right_key {
                            args.push(key_term);
                        } else {
                            let t = fresh(&mut next_var);
                            args.push(t);
                            // Mirror ops::hash_join's collision prefixing.
                            let mut out_name = n.clone();
                            while cols.iter().chain(&new_cols).any(|(c, _)| *c == out_name) {
                                out_name = format!("right.{out_name}");
                            }
                            new_cols.push((out_name, t));
                        }
                    }
                    atoms.push(Atom::new(tv.pred(table)?, args));
                    cols.extend(new_cols);
                }
                RelOp::Project { columns } => {
                    let mut picked = Vec::with_capacity(columns.len());
                    for c in columns {
                        let t = cols
                            .iter()
                            .find(|(n, _)| n == c)
                            .cloned()
                            .ok_or_else(|| HybridError::MissingColumn(c.clone()))?;
                        picked.push(t);
                    }
                    cols = picked;
                }
            }
        }

        let head: Vec<Term> = cols.iter().map(|(_, t)| *t).collect();
        let columns: Vec<String> = cols.into_iter().map(|(n, _)| n).collect();
        Ok(CompiledQuery { cq: Cq::new(head, atoms), columns })
    }
}

fn require_column(t: &Table, name: &str) -> Result<(), HybridError> {
    if t.column_index(name).is_none() {
        return Err(HybridError::MissingColumn(name.to_owned()));
    }
    Ok(())
}

/// A compiled relational prefix: the CQ plus its output column names (head
/// order).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The conjunctive query over table predicates.
    pub cq: Cq,
    /// Output column names, in head order.
    pub columns: Vec<String>,
}

/// Vocabulary derived from the table catalog: one predicate per table
/// (arity = column count), with both directions of the mapping.
#[derive(Debug, Clone)]
pub struct TableVocab {
    /// The chase vocabulary the table predicates are interned in.
    pub vocab: Vocabulary,
    by_name: HashMap<String, PredId>,
    by_pred: HashMap<PredId, String>,
}

impl TableVocab {
    /// Interns one predicate per catalog table (arity = column count).
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut tv = TableVocab {
            vocab: Vocabulary::new(),
            by_name: HashMap::new(),
            by_pred: HashMap::new(),
        };
        for name in catalog.names() {
            let arity = catalog.get(name).map_or(0, hadad_relational::Table::num_cols);
            let pred = tv.vocab.predicate(name, arity);
            tv.by_name.insert(name.to_owned(), pred);
            tv.by_pred.insert(pred, name.to_owned());
        }
        tv
    }

    /// The predicate interned for `table`.
    pub fn pred(&self, table: &str) -> Result<PredId, HybridError> {
        self.by_name.get(table).copied().ok_or_else(|| HybridError::MissingTable(table.into()))
    }

    /// Reverse lookup: the table `pred` was interned for.
    pub fn table_of(&self, pred: PredId) -> Option<&str> {
        self.by_pred.get(&pred).map(std::string::String::as_str)
    }
}

/// Interned rendering of a *string* constant: wrapped in quotes so the
/// integer 7 and the string "7" intern to different symbols — otherwise a
/// rewriting's selection semantics could diverge from the executable
/// operators (which never equate `Int(7)` with `Str("7")`).
fn intern_str_const(s: &str) -> String {
    format!("\"{s}\"")
}

/// Inner value of a quote-wrapped string constant.
fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"').and_then(|rest| rest.strip_suffix('"'))
}

/// Evaluates a CQ against the catalog's tables under *bag* semantics,
/// mirroring the executable operator pipeline (a projection does not
/// deduplicate, so neither may the rewriting's evaluation — otherwise a
/// rewritten prefix would silently drop duplicate tuples from the cast).
/// Used to execute PACB rewritings, whose bodies range over materialized
/// view tables.
///
/// Runs atom by atom on the same [`RowSet`] executor as
/// [`RelQuery::execute`]: an atom's constants (decoded once per atom)
/// and a variable it repeats filter its table; its first already-bound
/// variable joins it to the rows so far; further shared variables filter
/// column against column; an atom sharing nothing is a left-major product;
/// an empty body is the single row of head constants. A head variable is
/// gathered from the column that first bound it, so an empty answer keeps
/// its source columns' types (a head constant its own).
pub fn eval_cq(
    q: &Cq,
    columns: &[String],
    catalog: &Catalog,
    tv: &TableVocab,
) -> Result<Table, HybridError> {
    eval_cq_sorted(q, columns, catalog, tv, None)
}

/// [`eval_cq`] with the rows stably sorted ascending by the integer key of
/// head column `sort_key`, before anything is gathered.
fn eval_cq_sorted(
    q: &Cq,
    columns: &[String],
    catalog: &Catalog,
    tv: &TableVocab,
    sort_key: Option<&str>,
) -> Result<Table, HybridError> {
    let mut rows = RowSet::unit();
    let mut bound: HashMap<u32, ColRef> = HashMap::new();
    for atom in &q.body {
        let name = tv
            .table_of(atom.pred)
            .ok_or_else(|| HybridError::MissingTable(format!("pred#{}", atom.pred.0)))?;
        let t = catalog.get(name).ok_or_else(|| HybridError::MissingTable(name.into()))?;

        // The atom alone: constants and a repeated variable filter its
        // table. `vars` keeps each variable's first position, in order.
        let mut scan = RowSet::scan(t);
        let cell = |source: usize, column: usize| ColRef { source, column };
        let mut vars: Vec<(u32, usize)> = Vec::new();
        for (i, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    scan.filter(cell(0, i), &decode_const(tv.vocab.const_name(*c)));
                }
                Term::Var(v) => match vars.iter().find(|(w, _)| w == v) {
                    Some(&(_, first)) => {
                        scan.filter_eq(cell(0, first), cell(0, i));
                    }
                    None => vars.push((*v, i)),
                },
            }
        }

        let mut shared = vars.iter().filter_map(|(v, i)| bound.get(v).map(|c| (*c, *i)));
        let source = match shared.next() {
            Some((left, i)) => rows.join(left, scan, cell(0, i)),
            None => rows.product(scan),
        };
        for (left, i) in shared {
            rows.filter_eq(left, cell(source, i));
        }
        for (v, i) in vars {
            bound.entry(v).or_insert(cell(source, i));
        }
    }

    // Head projection (bag semantics).
    let head: Vec<(&str, Out)> = columns
        .iter()
        .zip(&q.head)
        .map(|(name, t)| {
            let out = match t {
                Term::Var(v) => Out::Cell(*bound.get(v).expect("safe head variable is bound")),
                Term::Const(c) => Out::Const(decode_const(tv.vocab.const_name(*c))),
            };
            (name.as_str(), out)
        })
        .collect();
    if let Some(key) = sort_key {
        let at = head.iter().position(|(name, _)| *name == key);
        let (_, out) = &head[at.ok_or_else(|| HybridError::MissingColumn(key.to_owned()))?];
        // A constant column ties on every row: nothing to reorder.
        if let Out::Cell(c) = out {
            rows.sort_by_key(*c);
        }
    }
    Ok(rows.gather_as(head))
}

/// The cell an interned CQ constant stands for — what a body position is
/// filtered by and what a head position holds: a quoted constant is that
/// string, an `i64`-parsable one that integer (so a compiled `SelectEq`
/// keeps exactly the rows the stage keeps), any other number a float, and a
/// bare symbol a string verbatim.
fn decode_const(s: &str) -> Value {
    if let Some(inner) = unquote(s) {
        Value::Str(inner.to_owned())
    } else if let Ok(v) = s.parse::<i64>() {
        Value::Int(v)
    } else if let Ok(v) = s.parse::<f64>() {
        Value::Float(v)
    } else {
        Value::Str(s.to_owned())
    }
}

/// How the relational prefix's output becomes a matrix (paper §3).
#[derive(Debug, Clone)]
pub enum CastKind {
    /// One row per tuple, one column per named numeric column.
    Dense {
        /// Numeric columns that become the matrix columns, in order.
        columns: Vec<String>,
    },
    /// Ultra-sparse `rows x cols` matrix from (row-id, col-id, value)
    /// columns — the tweet/MIMIC filter-level matrix construction.
    Sparse {
        /// Column holding the 0-based row id of each entry.
        row: String,
        /// Column holding the 0-based column id of each entry.
        col: String,
        /// Column holding the numeric value of each entry.
        val: String,
        /// Row count of the cast matrix.
        rows: usize,
        /// Column count of the cast matrix.
        cols: usize,
    },
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

/// A cast whose matrix metadata is kept fresh across base-table updates:
/// after each maintenance pass the source view (or base table) is re-cast
/// and its [`MatrixMeta`] — shape and nnz, all the cost oracle reads —
/// re-stamped into the LA optimizer's catalog, so the suffix cost oracle
/// prices post-update instances correctly.
#[derive(Debug, Clone)]
pub struct MaintainedCast {
    /// Name the matrix metadata is stamped under in the LA catalog.
    pub cast_name: String,
    /// Catalog table (usually a maintained view) the cast reads.
    pub view: String,
    /// Row order of a dense cast, as in [`HybridPipeline`]. Part of the
    /// cast's description and validated (the column must exist), but never
    /// applied when stamping: shape and nnz are invariant under row
    /// permutation.
    pub sort_key: Option<String>,
    /// How the source rows become the maintained matrix.
    pub cast: CastKind,
}

/// Timings and outcomes of the relational (PACB) phase.
#[derive(Debug)]
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
    /// Wall-time of the PACB phase, microseconds.
    pub pacb_us: u128,
    /// Wall-time of executing the chosen prefix, microseconds.
    pub exec_us: u128,
    /// Row count of the prefix's output.
    pub rows_out: usize,
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
    /// Wall-time of the relation-to-matrix cast, microseconds.
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

/// The hybrid facade: a table catalog + table views on the relational side,
/// an [`Optimizer`] (with its LA views) on the LA side, and a
/// [`ViewMaintainer`] keeping the materializations consistent under
/// base-table updates.
pub struct HybridOptimizer {
    /// The relational side: base tables plus materialized views.
    pub catalog: Catalog,
    /// The LA side: rewriter, cost oracle, and LA views.
    pub optimizer: Optimizer,
    /// Budget applied to the relational (PACB) chase phases.
    pub budget: ChaseBudget,
    table_views: Vec<TableView>,
    maintainer: ViewMaintainer,
    maintained_casts: Vec<MaintainedCast>,
    /// Published read snapshot, lazily allocated by [`HybridOptimizer::reader`].
    /// `None` until a reader exists — snapshot clones are only paid for
    /// once someone reads concurrently.
    shared: Option<Arc<Mutex<Arc<CatalogSnapshot>>>>,
}

impl HybridOptimizer {
    /// A hybrid optimizer over `catalog` and `optimizer`, with no views
    /// and a default chase budget.
    pub fn new(catalog: Catalog, optimizer: Optimizer) -> Self {
        HybridOptimizer {
            catalog,
            optimizer,
            budget: ChaseBudget::default(),
            table_views: Vec::new(),
            maintainer: ViewMaintainer::new(),
            maintained_casts: Vec::new(),
            shared: None,
        }
    }

    /// Selects the execution backend for the LA suffix: both the kernels
    /// the suffix runs on and the calibration constants its plans are
    /// ranked under (the inner [`Optimizer`] is what the hybrid path
    /// clones for suffix rewriting).
    pub fn with_backend(mut self, backend: hadad_linalg::BackendKind) -> Self {
        self.optimizer = self.optimizer.with_backend(backend);
        self
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
        self.catalog.register(&name, table);
        let view = TableView { name, def };
        self.maintainer.track(&self.catalog, &view)?;
        self.table_views.push(view);
        self.publish();
        Ok(())
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
        &self.table_views
    }

    /// Registers a cast whose matrix metadata tracks the underlying view
    /// across updates, and stamps it now. The cast name must be fresh in
    /// the LA catalog — re-stamping over an existing input matrix (or a
    /// previously registered cast) would silently repoint every plan that
    /// reads it at the cast's metadata.
    pub fn register_maintained_cast(
        &mut self,
        cast: MaintainedCast,
    ) -> Result<(), HybridError> {
        if self.optimizer.cat.get(&cast.cast_name).is_some()
            || self.maintained_casts.iter().any(|c| c.cast_name == cast.cast_name)
        {
            return Err(HybridError::DuplicateName(cast.cast_name));
        }
        self.restamp_cast(&cast)?;
        self.maintained_casts.push(cast);
        self.publish();
        Ok(())
    }

    /// The registered maintained casts, in registration order.
    pub fn maintained_casts(&self) -> &[MaintainedCast] {
        &self.maintained_casts
    }

    /// Inserts rows into a base table and immediately delta-maintains
    /// every affected view and maintained cast.
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<MaintenanceReport, HybridError> {
        self.catalog.insert_rows(table, rows)?;
        self.maintain_views()
    }

    /// Deletes rows from a base table (counting semantics — each listed
    /// row retracts one copy) and immediately delta-maintains every
    /// affected view and maintained cast.
    pub fn delete_rows(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<MaintenanceReport, HybridError> {
        self.catalog.delete_rows(table, rows)?;
        self.maintain_views()
    }

    /// Drains the catalog's update log, delta-maintains every registered
    /// table view, and re-stamps the matrix metadata of maintained casts
    /// whose source changed. Called automatically by the mutation facade;
    /// call it explicitly after batching raw `catalog.insert_rows` /
    /// `catalog.delete_rows` mutations.
    pub fn maintain_views(&mut self) -> Result<MaintenanceReport, HybridError> {
        if self.maintainer.is_poisoned() {
            return Err(HybridError::MaintenancePoisoned);
        }
        if self.catalog.pending_updates().is_empty() {
            return Ok(MaintenanceReport {
                epoch: self.catalog.epoch(),
                ..MaintenanceReport::default()
            });
        }
        let mut dirty: HashSet<String> =
            self.catalog.pending_updates().iter().map(|e| e.table.clone()).collect();
        let mut report = self.maintainer.maintain(&mut self.catalog, &self.table_views)?;
        dirty.extend(report.changes.iter().map(|c| c.view.clone()));
        static RESTAMP_US: hadad_obs::LazyHistogram =
            hadad_obs::LazyHistogram::new("maintain.restamp_us");
        let _restamp_span = hadad_obs::span("maintain.restamp");
        let restamp_start = Instant::now();
        for cast in &self.maintained_casts {
            if dirty.contains(&cast.view) {
                if let Err(e) = restamp_cast_into(&self.catalog, &mut self.optimizer, cast) {
                    // The log is already drained, so a failed re-stamp must
                    // not silently clear the staleness signal: poison the
                    // maintainer and require a rebuild, exactly as for a
                    // failed propagation pass.
                    self.maintainer.poison();
                    return Err(e);
                }
            }
        }
        report.restamp_us = restamp_start.elapsed().as_micros();
        RESTAMP_US.record(u64::try_from(report.restamp_us).unwrap_or(u64::MAX));
        drop(_restamp_span);
        self.publish();
        Ok(report)
    }

    fn restamp_cast(&mut self, cast: &MaintainedCast) -> Result<(), HybridError> {
        restamp_cast_into(&self.catalog, &mut self.optimizer, cast)
    }

    /// Tables carrying unmaintained state: pending-update base tables plus
    /// every view they reach (directly or through another dirty view). A
    /// poisoned maintainer dirties every view — a failed pass leaves their
    /// contents unknown.
    fn dirty_names(&self) -> HashSet<&str> {
        let mut dirty: HashSet<&str> =
            self.catalog.pending_updates().iter().map(|e| e.table.as_str()).collect();
        for v in &self.table_views {
            let hit = self.maintainer.is_poisoned()
                || dirty.contains(v.def.table.as_str())
                || v.def.ops.iter().any(
                    |op| matches!(op, RelOp::HashJoin { table, .. } if dirty.contains(table.as_str())),
                );
            if hit {
                dirty.insert(v.name.as_str());
            }
        }
        dirty
    }

    /// Views whose base tables (direct, or through another stale view)
    /// carry unmaintained updates, or whose maintainer is poisoned.
    pub fn stale_views(&self) -> Vec<&str> {
        let dirty = self.dirty_names();
        self.table_views
            .iter()
            .filter(|v| dirty.contains(v.name.as_str()))
            .map(|v| v.name.as_str())
            .collect()
    }

    /// Stale materializations a rewrite must not read: stale views plus
    /// maintained casts whose source table (a view *or* a base table) is
    /// dirty — the LA catalog's stamped metadata no longer matches it.
    fn stale_materializations(&self) -> Vec<String> {
        let dirty = self.dirty_names();
        let mut stale: Vec<String> = self
            .table_views
            .iter()
            .filter(|v| dirty.contains(v.name.as_str()))
            .map(|v| v.name.clone())
            .collect();
        let poisoned = self.maintainer.is_poisoned();
        stale.extend(
            self.maintained_casts
                .iter()
                .filter(|c| poisoned || dirty.contains(c.view.as_str()))
                .map(|c| format!("cast {}", c.cast_name)),
        );
        stale
    }

    /// Recovery from a failed maintenance pass (or any state drift): drops
    /// the pending log, re-materializes every view from the current base
    /// tables in registration order, re-tracks them on a fresh maintainer,
    /// and re-stamps every maintained cast.
    pub fn rebuild_views(&mut self) -> Result<(), HybridError> {
        self.catalog.take_updates();
        self.maintainer = ViewMaintainer::new();
        let result = self.rebuild_inner();
        if result.is_err() {
            // A partial rebuild is as unknown as a partial maintenance
            // pass — keep refusing until a rebuild fully succeeds.
            self.maintainer.poison();
        } else {
            self.publish();
        }
        result
    }

    fn rebuild_inner(&mut self) -> Result<(), HybridError> {
        for v in &self.table_views {
            let table = v.def.execute(&self.catalog)?;
            self.catalog.register(&v.name, table);
            self.maintainer.track(&self.catalog, v)?;
        }
        for cast in &self.maintained_casts {
            restamp_cast_into(&self.catalog, &mut self.optimizer, cast)?;
        }
        Ok(())
    }

    /// Captures the current rewriting state as an owned, immutable
    /// [`CatalogSnapshot`]. Refused while the state is not committable: a
    /// poisoned maintainer or stale materializations would bake unknown
    /// or outdated view contents into every read served from it.
    pub fn snapshot(&self) -> Result<CatalogSnapshot, HybridError> {
        if self.maintainer.is_poisoned() {
            return Err(HybridError::MaintenancePoisoned);
        }
        let stale = self.stale_materializations();
        if !stale.is_empty() {
            return Err(HybridError::StaleViews(stale));
        }
        Ok(self.make_snapshot())
    }

    /// A [`SnapshotReader`] tracking this optimizer's latest published
    /// snapshot. The first call allocates the shared slot (snapshot clones
    /// are only paid for once a concurrent reader exists); every call
    /// republishes the current state first, and is refused under the same
    /// conditions as [`HybridOptimizer::snapshot`]. Clone the returned
    /// handle freely across threads — the writer's later clean commits
    /// (registrations, maintenance passes, rebuilds) show up in readers
    /// automatically.
    pub fn reader(&mut self) -> Result<SnapshotReader, HybridError> {
        if self.maintainer.is_poisoned() {
            return Err(HybridError::MaintenancePoisoned);
        }
        let stale = self.stale_materializations();
        if !stale.is_empty() {
            return Err(HybridError::StaleViews(stale));
        }
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
        let epoch = self.catalog.epoch();
        // Stamp the clone's plan-cache epoch now: every probe from the
        // snapshot must validate against the state it captured, and the
        // shared `PlanCache` Arc means entries it inserts serve later
        // same-epoch readers too.
        let mut optimizer = self.optimizer.clone();
        optimizer.set_cache_epoch(epoch);
        CatalogSnapshot {
            catalog: self.catalog.clone(),
            table_views: self.table_views.clone(),
            optimizer,
            budget: self.budget,
            epoch,
        }
    }

    /// Republishes the shared snapshot after a state change. A no-op until
    /// a reader exists; silently skipped when the state is not committable
    /// (poisoned maintainer, pending updates) — readers then keep serving
    /// the last clean snapshot, which is exactly the wanted semantics for
    /// a writer mid-batch.
    fn publish(&self) {
        static PUBLISHES: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("snapshot.publishes");
        static EPOCH_ADVANCE: hadad_obs::LazyHistogram =
            hadad_obs::LazyHistogram::new("snapshot.epoch_advance");
        let Some(shared) = &self.shared else { return };
        if self.maintainer.is_poisoned() || !self.catalog.pending_updates().is_empty() {
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

    /// Point-in-time snapshot of the process-wide observability registry;
    /// see [`Optimizer::metrics`]. Covers both halves of the hybrid
    /// pipeline (PACB, relational execution, cast, LA rewriting) plus
    /// maintenance and snapshot publication counters.
    pub fn metrics(&self) -> hadad_obs::MetricsSnapshot {
        hadad_obs::snapshot()
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
        let mut degraded: Option<Degraded> = None;
        if self.maintainer.is_poisoned() {
            degraded = Some(Degraded {
                reason: DegradeReason::MaintenancePoisoned,
                phase: RewritePhase::Maintenance,
            });
        } else {
            // Refuse to rewrite against stale materializations: pending
            // updates touching a view's base tables mean PACB could land the
            // prefix on a view whose contents no longer match its
            // definition, and a dirty maintained-cast source means the LA
            // catalog's stamped metadata would misprice the suffix. Unlike
            // poisoning this has a cheap remedy — `maintain_views()` — so
            // it stays a hard error rather than a silent degradation.
            let stale = self.stale_materializations();
            if !stale.is_empty() {
                return Err(HybridError::StaleViews(stale));
            }
        }
        run_state(
            &RunState {
                catalog: &self.catalog,
                table_views: &self.table_views,
                optimizer: &self.optimizer,
                budget: self.budget,
                epoch: self.catalog.epoch(),
                degraded,
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
    table_views: &'a [TableView],
    optimizer: &'a Optimizer,
    budget: ChaseBudget,
    /// Catalog epoch the state was captured at — stamped onto the LA
    /// optimizer clone so its plan-cache probes are epoch-checked.
    epoch: u64,
    /// Pre-determined degradation (poisoned maintainer): the run proceeds
    /// with no materialized views offered.
    degraded: Option<Degraded>,
}

/// One hybrid rewrite over a captured [`RunState`]: shared verbatim by the
/// live `&self` path and by snapshot readers on other threads.
fn run_state(
    state: &RunState<'_>,
    p: &HybridPipeline,
    verify: Option<(&Env, f64)>,
) -> Result<HybridResult, HybridError> {
    static RUNS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("hybrid.runs");
    static TOTAL_US: hadad_obs::LazyHistogram =
        hadad_obs::LazyHistogram::new("hybrid.total_us");
    static PACB_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("hybrid.pacb_us");
    static EXEC_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("hybrid.exec_us");
    static CAST_US: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("hybrid.cast_us");
    let _span = hadad_obs::span("hybrid.run");
    RUNS.incr();
    let start = Instant::now();
    let degraded = state.degraded.clone();

    // Phase 1: compile the prefix and the view definitions to CQs over
    // the catalog vocabulary. A degraded run offers no views.
    let mut tv = TableVocab::from_catalog(state.catalog);
    let compiled = p.prefix.compile(state.catalog, &mut tv)?;
    let usable_views: &[TableView] = if degraded.is_some() { &[] } else { state.table_views };
    let mut views = Vec::with_capacity(usable_views.len());
    for v in usable_views {
        let def = v.def.compile(state.catalog, &mut tv)?;
        let mat_cols = state
            .catalog
            .get(&v.name)
            .map_or(def.columns.len(), hadad_relational::Table::num_cols);
        if mat_cols != def.columns.len() {
            return Err(HybridError::ViewArity {
                view: v.name.clone(),
                expected: def.columns.len(),
                got: mat_cols,
            });
        }
        views.push(hadad_chase::View::new(&v.name, tv.pred(&v.name)?, def.cq));
    }

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
            Pacb::new(&[], &views)
                .with_options(PacbOptions {
                    budget: state.budget,
                    prune_threshold: Some(cost_original),
                })
                .with_cost_fn(&cost_fn)
                .rewrite(&compiled.cq)
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

    // Phase 3: execute the chosen prefix (and, under verification, the
    // original too).
    let sort_key = p.sort_key.as_deref();
    let (table, exec_us) = hadad_obs::timed("hybrid.rel_exec", &EXEC_US, || match best_rw {
        Some(rw) => eval_cq_sorted(&rw.query, &compiled.columns, state.catalog, &tv, sort_key),
        None => p.prefix.execute_sorted(state.catalog, sort_key),
    });
    let table = table?;

    // Phase 4: cast into the LA world.
    let (mat, cast_us) =
        hadad_obs::timed("hybrid.cast", &CAST_US, || apply_cast(&table, &p.cast));
    let mut mat = mat?;

    // Phase 5: LA suffix rewriting with the cast matrix catalogued from
    // its actual materialization (shape and nnz) — for a sparse cast this
    // records the true ultra-sparse density, which the encoder turns into
    // the `density` facts the cost oracle reads. The
    // clone is pinned to the captured epoch so plan-cache entries it
    // creates (or serves) are validated against the snapshotted catalog
    // state, not whatever the live catalog has moved on to.
    let cast_meta = MatrixMeta::from_matrix(&mat);
    let mut la_opt = state.optimizer.clone();
    la_opt.set_cache_epoch(state.epoch);
    la_opt.cat.register(&p.cast_name, cast_meta.clone());

    let rel = RelPhase {
        compiled,
        cost_original,
        cost_best: best_rw.and_then(|r| r.cost),
        rewriting: best_rw.map(|r| r.query.clone()),
        pacb,
        pacb_us,
        exec_us,
        rows_out: table.num_rows(),
    };

    let (ranked, best, verified) = match verify {
        None => {
            let ranked = la_opt.rewrite(&p.suffix)?;
            let best = ranked.best().clone();
            (ranked, best, None)
        }
        Some((env, rtol)) => {
            // Relational half: the rewriting must cast to the same
            // matrix as the operator pipeline over base tables.
            let rel_ok = match &rel.rewriting {
                None => true,
                Some(_) => {
                    let orig = p.prefix.execute_sorted(state.catalog, sort_key)?;
                    let orig_mat = apply_cast(&orig, &p.cast)?;
                    approx_eq(&orig_mat, &mat, rtol)
                }
            };
            // The cast is lent to the verification environment and taken
            // back for the result.
            let mut env = env.clone();
            env.bind(&p.cast_name, mat);
            let (ranked, plan, _) = la_opt.rewrite_verified(&p.suffix, &env, rtol)?;
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
    let degraded = degraded
        .or_else(|| rel.pacb.degraded.clone())
        .or_else(|| ranked.report.degraded.clone());

    let elapsed_us = start.elapsed().as_micros();
    TOTAL_US.record(u64::try_from(elapsed_us).unwrap_or(u64::MAX));
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
        elapsed_us,
    })
}

/// An immutable, owned copy of a [`HybridOptimizer`]'s rewriting state —
/// relational catalog, table views, LA optimizer (plan-cache epoch already
/// stamped), and chase budget — captured at a committed catalog epoch.
///
/// Every method takes `&self`, so one snapshot (behind an [`Arc`]) serves
/// hybrid rewrites from any number of threads while the writer keeps
/// mutating and maintaining the live optimizer. Snapshots are only ever
/// published from clean states (no pending updates, maintainer healthy),
/// so the stale-view and poisoning checks of the live path are vacuous
/// here by construction.
#[derive(Clone)]
pub struct CatalogSnapshot {
    catalog: Catalog,
    table_views: Vec<TableView>,
    optimizer: Optimizer,
    budget: ChaseBudget,
    epoch: u64,
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
        &self.table_views
    }

    /// Rewrites a hybrid pipeline against the snapshot, without the LA
    /// verification step — the snapshot analogue of
    /// [`HybridOptimizer::rewrite_hybrid`].
    pub fn rewrite_hybrid(&self, p: &HybridPipeline) -> Result<HybridResult, HybridError> {
        run_state(&self.state(), p, None)
    }

    /// Rewrites and execution-verifies a hybrid pipeline against the
    /// snapshot — the snapshot analogue of
    /// [`HybridOptimizer::rewrite_hybrid_verified`].
    pub fn rewrite_hybrid_verified(
        &self,
        p: &HybridPipeline,
        env: &Env,
        rtol: f64,
    ) -> Result<HybridResult, HybridError> {
        run_state(&self.state(), p, Some((env, rtol)))
    }

    /// Rewrites a pure-LA expression against the snapshot's optimizer
    /// (whose plan-cache probes carry the snapshot's epoch).
    pub fn rewrite(&self, e: &Expr) -> Result<RankedPlans, RewriteError> {
        self.optimizer.rewrite(e)
    }

    fn state(&self) -> RunState<'_> {
        RunState {
            catalog: &self.catalog,
            table_views: &self.table_views,
            optimizer: &self.optimizer,
            budget: self.budget,
            epoch: self.epoch,
            degraded: None,
        }
    }
}

/// A cloneable, `Send` handle onto a [`HybridOptimizer`]'s latest
/// *published* [`CatalogSnapshot`].
///
/// Hand clones to reader threads: each rewrite loads the current snapshot
/// (the lock is held only for the `Arc` pointer copy) and runs against it
/// lock-free, while the writer maintains the live state and republishes
/// after every clean commit. Readers never observe a mid-maintenance
/// state — publication happens only when the update log is drained and
/// the maintainer is healthy.
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

    /// [`CatalogSnapshot::rewrite_hybrid`] against the latest published
    /// snapshot.
    pub fn rewrite_hybrid(&self, p: &HybridPipeline) -> Result<HybridResult, HybridError> {
        self.current().rewrite_hybrid(p)
    }

    /// [`CatalogSnapshot::rewrite_hybrid_verified`] against the latest
    /// published snapshot.
    pub fn rewrite_hybrid_verified(
        &self,
        p: &HybridPipeline,
        env: &Env,
        rtol: f64,
    ) -> Result<HybridResult, HybridError> {
        self.current().rewrite_hybrid_verified(p, env, rtol)
    }

    /// [`CatalogSnapshot::rewrite`] against the latest published snapshot.
    pub fn rewrite(&self, e: &Expr) -> Result<RankedPlans, RewriteError> {
        self.current().rewrite(e)
    }
}

/// Re-casts a maintained cast's source table and stamps the resulting
/// matrix metadata into the LA optimizer's catalog. The rows are cast in
/// table order: the stamped shape and nnz do not depend on it, so the
/// `sort_key` is checked, not applied.
fn restamp_cast_into(
    catalog: &Catalog,
    optimizer: &mut Optimizer,
    cast: &MaintainedCast,
) -> Result<(), HybridError> {
    // Fault surface: a re-stamp failure after maintenance drained the log
    // must poison the maintainer (see `maintain_views`), not pass silently.
    hadad_failpoint::hit("hybrid.restamp")?;
    let t =
        catalog.get(&cast.view).ok_or_else(|| HybridError::MissingTable(cast.view.clone()))?;
    if let Some(key) = &cast.sort_key {
        require_column(t, key)?;
    }
    let mat = apply_cast(t, &cast.cast)?;
    optimizer.cat.register(&cast.cast_name, MatrixMeta::from_matrix(&mat));
    Ok(())
}

fn apply_cast(t: &Table, kind: &CastKind) -> Result<Matrix, HybridError> {
    match kind {
        CastKind::Dense { columns } => {
            for c in columns {
                require_column(t, c)?;
            }
            let refs: Vec<&str> = columns.iter().map(std::string::String::as_str).collect();
            Ok(cast::table_to_matrix(t, &refs))
        }
        CastKind::Sparse { row, col, val, rows, cols } => {
            require_column(t, row)?;
            require_column(t, col)?;
            require_column(t, val)?;
            Ok(cast::table_to_sparse(t, row, col, val, *rows, *cols))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadad_core::expr::dsl::*;
    use hadad_core::MetaCatalog;
    use hadad_relational::{ops, Column};

    fn tweets() -> Table {
        // 60 tweets over 6 topics; level cycles 1..=4.
        let n = 60i64;
        Table::new(vec![
            ("tid", Column::Int((0..n).collect())),
            ("topic", Column::Int((0..n).map(|i| i % 6).collect())),
            ("level", Column::Int((0..n).map(|i| i % 4 + 1).collect())),
        ])
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("tweets", tweets());
        c
    }

    #[test]
    fn execute_matches_compiled_semantics() {
        let cat = catalog();
        let q = RelQuery::scan("tweets").select_eq("topic", 3).project(&["tid", "level"]);
        let direct = q.execute(&cat).unwrap();
        assert_eq!(direct.num_rows(), 10);

        let mut tv = TableVocab::from_catalog(&cat);
        let compiled = q.compile(&cat, &mut tv).unwrap();
        assert_eq!(compiled.columns, vec!["tid".to_string(), "level".to_string()]);
        assert_eq!(compiled.cq.body.len(), 1);
        let via_cq = eval_cq(&compiled.cq, &compiled.columns, &cat, &tv).unwrap();
        let sorted_direct = ops::sort_by_int(&direct, "tid").unwrap();
        let sorted_cq = ops::sort_by_int(&via_cq, "tid").unwrap();
        assert_eq!(sorted_direct, sorted_cq);
    }

    #[test]
    fn compile_places_selection_constants_in_head() {
        let cat = catalog();
        let mut tv = TableVocab::from_catalog(&cat);
        let q = RelQuery::scan("tweets").select_eq("topic", 3);
        let compiled = q.compile(&cat, &mut tv).unwrap();
        // Head: (tid, 3, level) — the selected column is a constant.
        assert!(matches!(compiled.cq.head[1], Term::Const(_)));
        assert!(compiled.cq.is_safe());
    }

    #[test]
    fn compile_join_shares_variables_and_prefixes_collisions() {
        let mut cat = catalog();
        cat.register(
            "topics",
            Table::new(vec![
                ("id", Column::Int((0..6).collect())),
                ("level", Column::Int(vec![9; 6])), // collides with tweets.level
            ]),
        );
        let q = RelQuery::scan("tweets").join("topics", "topic", "id");
        let mut tv = TableVocab::from_catalog(&cat);
        let compiled = q.compile(&cat, &mut tv).unwrap();
        assert_eq!(
            compiled.columns,
            vec![
                "tid".to_string(),
                "topic".to_string(),
                "level".to_string(),
                "right.level".to_string()
            ]
        );
        // The join key variable is shared between the two atoms.
        assert_eq!(compiled.cq.body[0].args[1], compiled.cq.body[1].args[0]);
        // Execution produces the same schema.
        let t = q.execute(&cat).unwrap();
        assert_eq!(
            t.column_names(),
            &["tid", "topic", "level", "right.level"].map(String::from)
        );
        let via_cq = eval_cq(&compiled.cq, &compiled.columns, &cat, &tv).unwrap();
        assert_eq!(
            ops::sort_by_int(&t, "tid").unwrap(),
            ops::sort_by_int(&via_cq, "tid").unwrap()
        );
    }

    #[test]
    fn contradictory_selections_are_rejected() {
        let cat = catalog();
        let mut tv = TableVocab::from_catalog(&cat);
        let q = RelQuery::scan("tweets").select_eq("topic", 3).select_eq("topic", 4);
        assert!(matches!(q.compile(&cat, &mut tv), Err(HybridError::Unsatisfiable(_))));
        // Repeating the same selection is fine.
        let q = RelQuery::scan("tweets").select_eq("topic", 3).select_eq("topic", 3);
        assert!(q.compile(&cat, &mut tv).is_ok());
    }

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

    /// Regression: integer and string constants never cross-match, in
    /// either execution path — `Str("7")` is not the number 7.
    #[test]
    fn string_and_int_constants_do_not_cross_match() {
        let mut cat = Catalog::new();
        cat.register(
            "t",
            Table::new(vec![
                ("k", Column::Str(vec!["7".into(), "en".into()])),
                ("v", Column::Int(vec![1, 2])),
            ]),
        );
        let mut tv = TableVocab::from_catalog(&cat);

        // Numeric selection on a string column: empty both ways.
        let q_int = RelQuery::scan("t").select_eq("k", 7);
        assert_eq!(q_int.execute(&cat).unwrap().num_rows(), 0);
        let c = q_int.compile(&cat, &mut tv).unwrap();
        assert_eq!(eval_cq(&c.cq, &c.columns, &cat, &tv).unwrap().num_rows(), 0);

        // String selection for "7": exactly the Str("7") row, both ways.
        let q_str = RelQuery::scan("t").select_str_eq("k", "7");
        assert_eq!(q_str.execute(&cat).unwrap().num_rows(), 1);
        let c = q_str.compile(&cat, &mut tv).unwrap();
        let via_cq = eval_cq(&c.cq, &c.columns, &cat, &tv).unwrap();
        assert_eq!(via_cq.num_rows(), 1);
        assert_eq!(via_cq.value(0, "v"), Value::Int(1));
        // The head constant decodes back to the string, not the number.
        assert_eq!(via_cq.value(0, "k"), Value::Str("7".into()));
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
