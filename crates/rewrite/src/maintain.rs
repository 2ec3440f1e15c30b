//! Delta maintenance of materialized table views ([`TableView`]) and the
//! one owner of their freshness. Instead of re-executing a view's
//! `RelQuery` after base-table updates, the [`ViewMaintainer`] pushes the
//! logged [`Delta`]s through the view's operator pipeline with the
//! per-operator rules from [`hadad_relational::ivm`] and applies the
//! resulting view delta to the materialization in the catalog.
//!
//! The maintainer holds everything freshness depends on — the table views
//! with their join caches, the maintained casts ([`MaintainedCast`]) and
//! the poison flag — and alone decides what is stale
//! ([`ViewMaintainer::check_fresh`]) and drains the update log. So a write
//! it cannot maintain, to a view's own table, is refused where the log is
//! read, and poisons it until [`ViewMaintainer::rebuild`].
//!
//! The join rule Δ(L ⋈ R) = ΔL ⋈ Rⁿᵉʷ + Lᵒˡᵈ ⋈ ΔR needs the *old* left
//! input of every join stage, so the maintainer caches those intermediates
//! per view (selections and projections are linear — they need no state),
//! each with the indexes its retractions and joins go through (owned here —
//! see [`hadad_relational::row_index`]). Each half of the rule is one
//! executor join with its delta as the left source: ΔL against the
//! catalog's scan of R, ΔR against the cached L; a half whose delta is
//! empty reads nothing.
//! Update batches that touch several tables compose sequentially: entries
//! are propagated in log order, and when a join's right table carries
//! *later* pending entries, the maintainer reconstructs the table as of
//! the current entry by unapplying them (deltas are invertible). View
//! deltas re-enter the propagation queue, so views defined over other
//! views maintain transitively, in registration order.

use std::borrow::Cow;
use std::collections::HashSet;

use hadad_core::MatrixMeta;
use hadad_relational::ivm::{apply_delta, Delta, TableUpdate};
use hadad_relational::{Catalog, IndexedTable, RowSet, Table};

use crate::cast::{restamp_cast, MaintainedCast};
use crate::hybrid::{HybridError, RelOp, TableView};

/// What one maintenance pass did to one view.
#[derive(Debug, Clone)]
pub struct ViewChange {
    /// Maintained view name.
    pub view: String,
    /// Rows the pass inserted.
    pub rows_inserted: usize,
    /// Rows the pass retracted.
    pub rows_deleted: usize,
}

/// Outcome of a maintenance pass: every non-trivial view change plus the
/// number of log entries propagated (base-table entries and transitively
/// generated view entries).
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Update-log entries propagated.
    pub entries_processed: usize,
    /// Every non-trivial per-view change.
    pub changes: Vec<ViewChange>,
    /// The maintained casts whose source the pass touched, re-stamped: each
    /// cast's name with the metadata to catalogue it under, in
    /// registration order.
    pub restamped: Vec<(String, MatrixMeta)>,
    /// Time spent delta-maintaining the view tables.
    pub maintain_us: u128,
    /// Time spent re-casting the maintained casts in `restamped`.
    pub restamp_us: u128,
    /// Catalog epoch after the pass committed — the epoch snapshots
    /// published from here on are stamped with.
    pub epoch: u64,
}

impl MaintenanceReport {
    /// Total rows touched across all maintained views.
    pub fn rows_touched(&self) -> usize {
        self.changes.iter().map(|c| c.rows_inserted + c.rows_deleted).sum()
    }
}

/// The one owner of view freshness over a catalog: the table views in
/// registration order, each with its join caches, the maintained casts,
/// and the poison flag a failed pass or rebuild sets. It decides what is
/// stale ([`ViewMaintainer::check_fresh`]), and only it drains the update
/// log.
#[derive(Debug, Clone, Default)]
pub struct ViewMaintainer {
    views: Vec<TableView>,
    /// Per view (same index as `views`): the pre-update left input of
    /// every join stage, in op order.
    join_inputs: Vec<Vec<IndexedTable>>,
    casts: Vec<MaintainedCast>,
    /// Set when a maintenance pass or a rebuild fails partway: earlier
    /// views were already mutated and the drained log entries are gone, so
    /// view state is unknown until a rebuild succeeds.
    poisoned: bool,
}

impl ViewMaintainer {
    /// Maintainer with no tracked views.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` after a failed maintenance pass or rebuild — every further
    /// [`ViewMaintainer::maintain`] refuses until
    /// [`ViewMaintainer::rebuild`] succeeds.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The tracked table views, in registration order.
    pub fn views(&self) -> &[TableView] {
        &self.views
    }

    /// The maintained casts, in registration order.
    pub fn casts(&self) -> &[MaintainedCast] {
        &self.casts
    }

    /// Starts tracking a view whose materialization is already registered
    /// in the catalog, caching the left input of every join stage. The
    /// catalog must hold no pending updates newer than the
    /// materialization — they must be drained (maintained) first, or the
    /// cache would double-count them on the next maintenance pass.
    pub fn track(&mut self, catalog: &Catalog, view: TableView) -> Result<(), HybridError> {
        if !catalog.pending_updates().is_empty() {
            return Err(HybridError::PendingUpdates(
                catalog.pending_updates().iter().map(|e| e.table.clone()).collect(),
            ));
        }
        self.join_inputs.push(join_inputs(catalog, &view)?);
        self.views.push(view);
        Ok(())
    }

    /// Starts maintaining a cast and stamps it now: the returned metadata
    /// is what the cast's source casts to at this catalog state.
    pub fn track_cast(
        &mut self,
        catalog: &Catalog,
        cast: MaintainedCast,
    ) -> Result<MatrixMeta, HybridError> {
        let meta = restamp_cast(catalog, &cast)?;
        self.casts.push(cast);
        Ok(meta)
    }

    /// Checks the row index of every cached join input (every live row
    /// reachable exactly once, no dangling position) — a diagnostic for
    /// tests and debugging.
    pub fn check_indexes(&self) -> Result<(), String> {
        for (view, inputs) in self.views.iter().zip(&self.join_inputs) {
            for (k, input) in inputs.iter().enumerate() {
                input
                    .check_index()
                    .map_err(|e| format!("view {} join input {k}: {e}", view.name))?;
            }
        }
        Ok(())
    }

    /// The staleness rule: tables carrying unmaintained state are the
    /// pending-update tables plus every view reading one of them (directly
    /// or through another dirty view). A poisoned maintainer dirties every
    /// view — a failed pass leaves their contents unknown.
    fn dirty<'a>(&'a self, catalog: &'a Catalog) -> HashSet<&'a str> {
        let mut dirty: HashSet<&str> =
            catalog.pending_updates().iter().map(|e| e.table.as_str()).collect();
        for v in &self.views {
            if self.poisoned || tables_read(v).any(|t| dirty.contains(t)) {
                dirty.insert(&v.name);
            }
        }
        dirty
    }

    /// Views whose base tables (direct, or through another stale view)
    /// carry unmaintained updates, or all of them while poisoned.
    pub fn stale_views<'a>(&'a self, catalog: &'a Catalog) -> Vec<&'a str> {
        let dirty = self.dirty(catalog);
        self.views.iter().map(|v| v.name.as_str()).filter(|n| dirty.contains(n)).collect()
    }

    /// Whether the views and casts may be rewritten against and published:
    /// [`HybridError::MaintenancePoisoned`] while view contents are
    /// unknown, [`HybridError::StaleViews`] naming every stale view and
    /// every maintained cast whose source (a view *or* a base table) is
    /// dirty — its catalogued metadata no longer matches it.
    pub fn check_fresh(&self, catalog: &Catalog) -> Result<(), HybridError> {
        if self.poisoned {
            return Err(HybridError::MaintenancePoisoned);
        }
        let dirty = self.dirty(catalog);
        let views = self.views.iter().map(|v| &v.name).filter(|n| dirty.contains(n.as_str()));
        let casts = self.casts.iter().filter(|c| dirty.contains(c.view.as_str()));
        let stale: Vec<String> =
            views.cloned().chain(casts.map(|c| format!("cast {}", c.cast_name))).collect();
        if stale.is_empty() {
            Ok(())
        } else {
            Err(HybridError::StaleViews(stale))
        }
    }

    /// Drains the catalog's update log, delta-maintains every tracked
    /// view, in registration order, applying each view's delta to its
    /// materialization in the catalog, and re-stamps every maintained cast
    /// whose source the pass touched. View deltas join the queue so views
    /// over views maintain transitively. With nothing pending it does
    /// nothing and reports the current epoch.
    ///
    /// A logged write to a tracked view's own table is refused
    /// ([`HybridError::ViewWrite`]): only the view's definition writes it.
    /// That, or any other failure, leaves the log drained and earlier views
    /// possibly mutated, so the maintainer *poisons* itself: every later
    /// call fails with [`HybridError::MaintenancePoisoned`] until
    /// [`ViewMaintainer::rebuild`] succeeds — a loud stop instead of
    /// silently clearing the staleness signal.
    pub fn maintain(
        &mut self,
        catalog: &mut Catalog,
    ) -> Result<MaintenanceReport, HybridError> {
        if self.poisoned {
            return Err(HybridError::MaintenancePoisoned);
        }
        if catalog.pending_updates().is_empty() {
            return Ok(MaintenanceReport {
                epoch: catalog.epoch(),
                ..MaintenanceReport::default()
            });
        }
        static PASSES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("maintain.passes");
        static POISONINGS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.poisonings");
        PASSES.incr();
        // Supervised: a panic mid-pass is no different from an error — the
        // log is drained and earlier views may be mutated — so it poisons
        // the maintainer and surfaces as the typed poisoning error instead
        // of unwinding through the caller.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.pass(catalog)))
                .unwrap_or(Err(HybridError::MaintenancePoisoned));
        if result.is_err() {
            self.poisoned = true;
            POISONINGS.incr();
            hadad_obs::event(
                "maintain.pass",
                hadad_obs::Severity::Error,
                "maintenance pass failed mid-pass; maintainer poisoned until rebuild",
            );
        }
        result
    }

    /// Re-derives every tracked view in place from the current base tables,
    /// in registration order (re-materialized and re-cached), after
    /// dropping the pending log, and re-stamps every maintained cast: the
    /// recovery from a failed pass or a replaced table. Returns each cast's
    /// name with its new metadata. Clears the poison only when all of it
    /// succeeds; a failure keeps every view and cast registered and the
    /// maintainer poisoned.
    pub fn rebuild(
        &mut self,
        catalog: &mut Catalog,
    ) -> Result<Vec<(String, MatrixMeta)>, HybridError> {
        catalog.take_updates();
        self.poisoned = true;
        for (view, inputs) in self.views.iter().zip(&mut self.join_inputs) {
            let table = view.def.execute(catalog)?;
            catalog.register(&view.name, table);
            *inputs = join_inputs(catalog, view)?;
        }
        let stamps = self.restamp(catalog, |_| true)?;
        self.poisoned = false;
        Ok(stamps)
    }

    /// Re-casts the maintained casts `pick` selects, in registration order.
    fn restamp(
        &self,
        catalog: &Catalog,
        pick: impl Fn(&MaintainedCast) -> bool,
    ) -> Result<Vec<(String, MatrixMeta)>, HybridError> {
        let picked = self.casts.iter().filter(|c| pick(c));
        picked.map(|c| Ok((c.cast_name.clone(), restamp_cast(catalog, c)?))).collect()
    }

    /// One maintenance pass: the views' delta maintenance, then the
    /// re-stamp of every cast whose source it touched, each timed as its
    /// own layer.
    fn pass(&mut self, catalog: &mut Catalog) -> Result<MaintenanceReport, HybridError> {
        static PASS_US: hadad_obs::LazyHistogram =
            hadad_obs::LazyHistogram::new("maintain.pass_us");
        static RESTAMP_US: hadad_obs::LazyHistogram =
            hadad_obs::LazyHistogram::new("maintain.restamp_us");
        static ENTRIES: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.entries");
        static ROWS_INS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.rows_inserted");
        static ROWS_DEL: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.rows_deleted");
        let (propagated, maintain_us) =
            hadad_obs::timed("maintain.pass", &PASS_US, || self.propagate_log(catalog));
        let (mut report, touched) = propagated?;
        report.maintain_us = maintain_us;
        ENTRIES.add(report.entries_processed as u64);
        ROWS_INS.add(report.changes.iter().map(|c| c.rows_inserted as u64).sum());
        ROWS_DEL.add(report.changes.iter().map(|c| c.rows_deleted as u64).sum());
        report.epoch = catalog.epoch();
        let (restamped, restamp_us) = hadad_obs::timed("maintain.restamp", &RESTAMP_US, || {
            self.restamp(catalog, |c| touched.contains(&c.view))
        });
        report.restamped = restamped?;
        report.restamp_us = restamp_us;
        Ok(report)
    }

    /// Drains the log and pushes it through every view. Returns the report
    /// and the tables the pass touched: the drained ones plus every view
    /// it changed.
    fn propagate_log(
        &mut self,
        catalog: &mut Catalog,
    ) -> Result<(MaintenanceReport, HashSet<String>), HybridError> {
        // Coalesce adjacent entries on the same table: sequential deltas on
        // one relation compose by concatenation, and one combined
        // propagation halves the per-view apply cost of the common
        // insert-batch + delete-batch update shape.
        let mut queue: Vec<TableUpdate> = Vec::new();
        for e in catalog.take_updates() {
            match queue.last_mut() {
                Some(prev) if prev.table == e.table => {
                    prev.delta.merge(e.delta).map_err(HybridError::Ivm)?;
                }
                _ => queue.push(e),
            }
        }
        if let Some(e) = queue.iter().find(|e| self.views.iter().any(|v| v.name == e.table)) {
            return Err(HybridError::ViewWrite(e.table.clone()));
        }
        // Fault surface for the poisoning contract: the log is already
        // drained here, so a failure from this point on must leave the
        // maintainer poisoned (state unknown until a rebuild).
        hadad_failpoint::hit("maintain.midpass")?;
        let mut report = MaintenanceReport::default();
        let mut i = 0;
        while i < queue.len() {
            for (view, inputs) in self.views.iter().zip(&mut self.join_inputs) {
                let entry = &queue[i];
                if !tables_read(view).any(|t| t == entry.table) {
                    continue;
                }
                let delta = {
                    let _span = hadad_obs::span("maintain.propagate");
                    propagate(view, inputs, entry, catalog, &queue, i)?
                };
                if delta.num_rows() == 0 {
                    continue;
                }
                // A delta that nets to nothing changes nothing: no change to
                // report, no epoch, nothing to propagate further.
                let (ins, del) =
                    catalog.apply_unlogged(&view.name, &delta).map_err(HybridError::Ivm)?;
                if (ins, del) == (0, 0) {
                    continue;
                }
                report.changes.push(ViewChange {
                    view: view.name.clone(),
                    rows_inserted: ins,
                    rows_deleted: del,
                });
                queue.push(TableUpdate { table: view.name.clone(), delta });
            }
            i += 1;
        }
        report.entries_processed = queue.len();
        let touched = queue.iter().map(|e| e.table.clone()).collect();
        // The drained batches are freed inside the measured pass.
        drop(queue);
        Ok((report, touched))
    }
}

/// The left input of every join stage of `view` over `catalog`, in op
/// order: replayed only as far as the last join, since what follows it
/// needs no state, and a join-free view needs none at all (nor a scan
/// copy).
fn join_inputs(catalog: &Catalog, view: &TableView) -> Result<Vec<IndexedTable>, HybridError> {
    let mut rows = catalog
        .scan(&view.def.table)
        .ok_or_else(|| HybridError::MissingTable(view.def.table.clone()))?;
    let mut inputs = Vec::new();
    let is_join = |op: &RelOp| matches!(op, RelOp::HashJoin { .. });
    if let Some(last) = view.def.ops.iter().rposition(is_join) {
        for op in &view.def.ops[..last] {
            if is_join(op) {
                inputs.push(IndexedTable::new(rows.gather()));
            }
            op.apply(&mut rows, catalog)?;
        }
        inputs.push(IndexedTable::new(rows.gather()));
    }
    Ok(inputs)
}

/// Pushes one logged update through one view's pipeline, returning the
/// view-level delta. Updates the view's cached join inputs as it goes, so
/// the next entry sees them as of *after* this one.
fn propagate(
    view: &TableView,
    join_inputs: &mut [IndexedTable],
    entry: &TableUpdate,
    catalog: &Catalog,
    queue: &[TableUpdate],
    idx: usize,
) -> Result<Delta, HybridError> {
    // Borrow the entry's delta through the first stages — the common
    // case (a selective view over a large update batch) never clones
    // the batch.
    let mut delta: Cow<'_, Delta> = if view.def.table == entry.table {
        Cow::Borrowed(&entry.delta)
    } else {
        let scan = catalog
            .get(&view.def.table)
            .ok_or_else(|| HybridError::MissingTable(view.def.table.clone()))?;
        Cow::Owned(Delta::empty(scan))
    };
    let mut join_inputs = join_inputs.iter_mut();
    for op in &view.def.ops {
        match op {
            RelOp::SelectEq { column, value } => {
                delta = Cow::Owned(delta.select_eq(column, *value).map_err(HybridError::Ivm)?);
            }
            RelOp::SelectStrEq { column, value } => {
                delta =
                    Cow::Owned(delta.select_str_eq(column, value).map_err(HybridError::Ivm)?);
            }
            RelOp::Project { columns } => {
                delta = Cow::Owned(delta.project(columns).map_err(HybridError::Ivm)?);
            }
            RelOp::HashJoin { table, left_key, right_key } => {
                let left = join_inputs.next().expect("`track` caches every join stage");
                // R as of this entry: the catalog already holds every
                // queued delta, so unapply the ones that come later —
                // unless ΔL is empty, when no row of R is read at all.
                let later = if delta.num_rows() == 0 { &[] } else { &queue[idx + 1..] };
                let before = right_before(catalog, later, table)?;
                let right = match &before {
                    Some(t) => RowSet::scan(t),
                    None => catalog
                        .scan(table)
                        .ok_or_else(|| HybridError::MissingTable(table.clone()))?,
                };
                let mut out =
                    delta.join_right(right, left_key, right_key).map_err(HybridError::Ivm)?;
                if table == &entry.table {
                    out.merge(
                        Delta::join_left(left, &entry.delta, left_key, right_key)
                            .map_err(HybridError::Ivm)?,
                    )
                    .map_err(HybridError::Ivm)?;
                }
                // Advance the cached left input by ΔL for later entries.
                if delta.num_rows() > 0 {
                    left.apply(&delta, &view.name).map_err(HybridError::Ivm)?;
                }
                delta = Cow::Owned(out);
            }
        }
    }
    Ok(delta.into_owned())
}

/// The tables a view's definition reads directly: its scan and every join
/// side. Transitive reads flow through queued view deltas, not through
/// this list.
fn tables_read(view: &TableView) -> impl Iterator<Item = &str> {
    let joins = view.def.ops.iter().filter_map(|op| match op {
        RelOp::HashJoin { table, .. } => Some(table.as_str()),
        _ => None,
    });
    std::iter::once(view.def.table.as_str()).chain(joins)
}

/// The named table as of before the queued entries `later`, when any of
/// them touches it: the catalog state with each of their deltas for it
/// unapplied. `None` when none does (the common, single-table-batch case),
/// and the catalog's own entry is the table.
fn right_before(
    catalog: &Catalog,
    later: &[TableUpdate],
    name: &str,
) -> Result<Option<Table>, HybridError> {
    let later: Vec<&Delta> =
        later.iter().filter(|e| e.table == name).map(|e| &e.delta).collect();
    if later.is_empty() {
        return Ok(None);
    }
    let t = catalog.get(name).ok_or_else(|| HybridError::MissingTable(name.to_owned()))?;
    let mut t = t.clone();
    for d in later.iter().rev() {
        apply_delta(&mut t, &d.negated(), name).map_err(HybridError::Ivm)?;
    }
    Ok(Some(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::RelQuery;
    use hadad_relational::Column;

    /// `track` caches the left input of each join stage and nothing else:
    /// no state (and no scan copy) for a join-free view, and no replay of
    /// the stages after the last join.
    #[test]
    fn track_caches_join_inputs_only() {
        let mut catalog = Catalog::new();
        catalog.register(
            "l",
            Table::new(vec![
                ("k", Column::Int(vec![1, 2, 3])),
                ("a", Column::Int(vec![7, 8, 7])),
            ]),
        );
        catalog.register(
            "r",
            Table::new(vec![("k", Column::Int(vec![1, 3])), ("b", Column::Int(vec![5, 6]))]),
        );
        let view = |name: &str, def: RelQuery| TableView { name: name.into(), def };
        let mut m = ViewMaintainer::new();

        m.track(&catalog, view("flat", RelQuery::scan("l").select_eq("a", 7).project(&["k"])))
            .unwrap();
        assert!(m.join_inputs[0].is_empty());

        let joined = RelQuery::scan("l")
            .select_eq("a", 7)
            .join("r", "k", "k")
            .select_eq("b", 6)
            .project(&["k"]);
        m.track(&catalog, view("joined", joined)).unwrap();
        let inputs = &m.join_inputs[1];
        assert_eq!(inputs.len(), 1);
        let expected = RelQuery::scan("l").select_eq("a", 7).execute(&catalog).unwrap();
        assert_eq!(inputs[0].table(), &expected);

        // A missing scan table is still an error, join or no join.
        let ghost = view("ghost", RelQuery::scan("nope").select_eq("a", 7));
        assert!(matches!(m.track(&catalog, ghost), Err(HybridError::MissingTable(_))));
        assert_eq!(m.views().len(), 2);
    }
}
