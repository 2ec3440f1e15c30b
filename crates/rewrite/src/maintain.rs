//! Delta maintenance of materialized table views ([`TableView`]): instead
//! of re-executing a view's `RelQuery` after base-table updates, the
//! [`ViewMaintainer`] pushes the logged [`Delta`]s through the view's
//! operator pipeline with the per-operator rules from
//! [`hadad_relational::ivm`] and applies the resulting view delta to the
//! materialization in the catalog.
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
use std::collections::HashMap;
use std::time::Instant;

use hadad_relational::ivm::{apply_delta, Delta, TableUpdate};
use hadad_relational::{Catalog, IndexedTable, RowSet, Table};

use crate::hybrid::{HybridError, RelOp, TableView};

/// Per-view cached state: the (pre-update) left input of every join stage,
/// keyed by the op's position in the view definition.
#[derive(Debug, Clone, Default)]
struct ViewState {
    join_inputs: HashMap<usize, IndexedTable>,
}

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
    /// Time spent delta-maintaining the view tables.
    pub maintain_us: u128,
    /// Time spent re-casting and re-stamping maintained cast metadata
    /// (`HybridOptimizer` maintenance only; zero for a bare maintainer).
    pub restamp_us: u128,
    /// Catalog epoch after the pass committed — the epoch fresh plan-cache
    /// entries and snapshots are stamped with from here on.
    pub epoch: u64,
}

impl MaintenanceReport {
    /// Total rows touched across all maintained views.
    pub fn rows_touched(&self) -> usize {
        self.changes.iter().map(|c| c.rows_inserted + c.rows_deleted).sum()
    }
}

/// Incremental maintainer for the registered table views of a catalog.
#[derive(Debug, Clone, Default)]
pub struct ViewMaintainer {
    states: HashMap<String, ViewState>,
    /// Set when a maintenance pass fails partway: earlier views were
    /// already mutated and the drained log entries are gone, so view
    /// state is unknown until the views are rebuilt from scratch.
    poisoned: bool,
}

impl ViewMaintainer {
    /// Maintainer with no tracked views.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` after a failed maintenance pass — every further
    /// [`ViewMaintainer::maintain`] refuses until the views are rebuilt
    /// (e.g. `HybridOptimizer::rebuild_views`) on a fresh maintainer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Starts tracking a view whose materialization is already registered
    /// in the catalog, caching the left input of every join stage. The
    /// catalog must hold no pending updates newer than the
    /// materialization — they must be drained (maintained) first, or the
    /// cache would double-count them on the next maintenance pass.
    pub fn track(&mut self, catalog: &Catalog, view: &TableView) -> Result<(), HybridError> {
        if !catalog.pending_updates().is_empty() {
            return Err(HybridError::PendingUpdates(
                catalog.pending_updates().iter().map(|e| e.table.clone()).collect(),
            ));
        }
        let mut rows = catalog
            .scan(&view.def.table)
            .ok_or_else(|| HybridError::MissingTable(view.def.table.clone()))?;
        let mut state = ViewState::default();
        // Replay only as far as the last join: what follows it needs no
        // state, and a join-free view needs none at all (nor a scan copy).
        let is_join = |op: &RelOp| matches!(op, RelOp::HashJoin { .. });
        if let Some(last) = view.def.ops.iter().rposition(is_join) {
            for (k, op) in view.def.ops[..last].iter().enumerate() {
                if is_join(op) {
                    state.join_inputs.insert(k, IndexedTable::new(rows.gather()));
                }
                op.apply(&mut rows, catalog)?;
            }
            state.join_inputs.insert(last, IndexedTable::new(rows.gather()));
        }
        self.states.insert(view.name.clone(), state);
        Ok(())
    }

    /// Checks the row index of every cached join input (every live row
    /// reachable exactly once, no dangling position) — a diagnostic for
    /// tests and debugging.
    pub fn check_indexes(&self) -> Result<(), String> {
        for (view, state) in &self.states {
            for (k, input) in &state.join_inputs {
                input.check_index().map_err(|e| format!("view {view} join stage {k}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Marks the maintainer's state unknown (e.g. when a cast re-stamp
    /// fails after the log was drained): every further maintenance pass
    /// refuses until the views are rebuilt.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Drains the catalog's update log and delta-maintains every tracked
    /// view, in registration order, applying each view's delta to its
    /// materialization in the catalog. View deltas join the queue so views
    /// over views maintain transitively.
    ///
    /// A mid-pass failure leaves earlier views mutated with the drained
    /// log gone, so the maintainer *poisons* itself: every later call
    /// fails with [`HybridError::MaintenancePoisoned`] until the views
    /// are rebuilt from scratch — a loud stop instead of silently
    /// clearing the staleness signal.
    pub fn maintain(
        &mut self,
        catalog: &mut Catalog,
        views: &[TableView],
    ) -> Result<MaintenanceReport, HybridError> {
        if self.poisoned {
            return Err(HybridError::MaintenancePoisoned);
        }
        static PASSES: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("maintain.passes");
        static POISONINGS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.poisonings");
        PASSES.incr();
        let _span = hadad_obs::span("maintain.pass");
        // Supervised: a panic mid-pass is no different from an error — the
        // log is drained and earlier views may be mutated — so it poisons
        // the maintainer and surfaces as the typed poisoning error instead
        // of unwinding through the caller.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.maintain_inner(catalog, views)
        }))
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

    fn maintain_inner(
        &mut self,
        catalog: &mut Catalog,
        views: &[TableView],
    ) -> Result<MaintenanceReport, HybridError> {
        let start = Instant::now();
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
        // Fault surface for the poisoning contract: the log is already
        // drained here, so a failure from this point on must leave the
        // maintainer poisoned (state unknown until `rebuild_views`).
        hadad_failpoint::hit("maintain.midpass")?;
        let mut report = MaintenanceReport::default();
        let mut i = 0;
        while i < queue.len() {
            for view in views {
                let entry = &queue[i];
                if !references(view, &entry.table) {
                    continue;
                }
                let delta = {
                    let _span = hadad_obs::span("maintain.propagate");
                    self.propagate(view, entry, catalog, &queue, i)?
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
        static PASS_US: hadad_obs::LazyHistogram =
            hadad_obs::LazyHistogram::new("maintain.pass_us");
        static ENTRIES: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.entries");
        static ROWS_INS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.rows_inserted");
        static ROWS_DEL: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("maintain.rows_deleted");
        report.entries_processed = queue.len();
        // The drained batches are freed inside the measured pass.
        drop(queue);
        // One measurement, two consumers: the public report field and the
        // shared-registry latency histogram.
        report.maintain_us = start.elapsed().as_micros();
        PASS_US.record(u64::try_from(report.maintain_us).unwrap_or(u64::MAX));
        ENTRIES.add(report.entries_processed as u64);
        ROWS_INS.add(report.changes.iter().map(|c| c.rows_inserted as u64).sum());
        ROWS_DEL.add(report.changes.iter().map(|c| c.rows_deleted as u64).sum());
        report.epoch = catalog.epoch();
        Ok(report)
    }

    /// Pushes one logged update through one view's pipeline, returning the
    /// view-level delta. Updates the cached join inputs as it goes, so the
    /// next entry sees them as of *after* this one.
    fn propagate(
        &mut self,
        view: &TableView,
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
        for (k, op) in view.def.ops.iter().enumerate() {
            match op {
                RelOp::SelectEq { column, value } => {
                    delta =
                        Cow::Owned(delta.select_eq(column, *value).map_err(HybridError::Ivm)?);
                }
                RelOp::SelectStrEq { column, value } => {
                    delta = Cow::Owned(
                        delta.select_str_eq(column, value).map_err(HybridError::Ivm)?,
                    );
                }
                RelOp::Project { columns } => {
                    delta = Cow::Owned(delta.project(columns).map_err(HybridError::Ivm)?);
                }
                RelOp::HashJoin { table, left_key, right_key } => {
                    let left_old = self
                        .states
                        .get(&view.name)
                        .and_then(|s| s.join_inputs.get(&k))
                        .ok_or_else(|| HybridError::UntrackedView(view.name.clone()))?;
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
                    let mut out = delta
                        .join_right(right, left_key, right_key)
                        .map_err(HybridError::Ivm)?;
                    if table == &entry.table {
                        out.merge(
                            Delta::join_left(left_old, &entry.delta, left_key, right_key)
                                .map_err(HybridError::Ivm)?,
                        )
                        .map_err(HybridError::Ivm)?;
                    }
                    // Advance the cached left input by ΔL for later entries.
                    if delta.num_rows() > 0 {
                        let left = self
                            .states
                            .get_mut(&view.name)
                            .unwrap()
                            .join_inputs
                            .get_mut(&k)
                            .unwrap();
                        left.apply(&delta, &view.name).map_err(HybridError::Ivm)?;
                    }
                    delta = Cow::Owned(out);
                }
            }
        }
        Ok(delta.into_owned())
    }
}

/// `true` when a view's definition reads `table` directly (its scan or any
/// join side). Transitive references flow through queued view deltas, not
/// through this check.
fn references(view: &TableView, table: &str) -> bool {
    view.def.table == table
        || view
            .def
            .ops
            .iter()
            .any(|op| matches!(op, RelOp::HashJoin { table: t, .. } if t == table))
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

        m.track(&catalog, &view("flat", RelQuery::scan("l").select_eq("a", 7).project(&["k"])))
            .unwrap();
        assert!(m.states["flat"].join_inputs.is_empty());

        let joined = RelQuery::scan("l")
            .select_eq("a", 7)
            .join("r", "k", "k")
            .select_eq("b", 6)
            .project(&["k"]);
        m.track(&catalog, &view("joined", joined)).unwrap();
        let inputs = &m.states["joined"].join_inputs;
        assert_eq!(inputs.keys().collect::<Vec<_>>(), [&1]);
        let expected = RelQuery::scan("l").select_eq("a", 7).execute(&catalog).unwrap();
        assert_eq!(inputs[&1].table(), &expected);

        // A missing scan table is still an error, join or no join.
        let ghost = view("ghost", RelQuery::scan("nope").select_eq("a", 7));
        assert!(matches!(m.track(&catalog, &ghost), Err(HybridError::MissingTable(_))));
    }
}
