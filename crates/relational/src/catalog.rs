//! Named-table catalog with basic statistics — the "source schema" side of
//! a hybrid HADAD deployment — plus the logged mutation API that feeds
//! incremental view maintenance. Each entry is an [`IndexedTable`]: the
//! rows and the two indexes it owns (a row-multiset index for retractions,
//! an equality index per column for the executor's lookups through
//! [`Catalog::scan`]).
//!
//! The mutation API is the edge where rows arrive as `Vec<Value>`s:
//! [`Catalog::insert_rows`] / [`Catalog::delete_rows`] convert them once
//! into a typed [`Delta`] (a table of the target's schema plus a
//! multiplicity column), refusing a wrong arity or cell type with
//! [`IvmError::SchemaMismatch`] before the table changes; the apply, the
//! log and every maintenance step after it read typed columns only.

use std::collections::BTreeMap;

use crate::ivm::{Delta, IvmError, TableUpdate, UpdateLog};
use crate::row_index::IndexedTable;
use crate::rowset::RowSet;
use crate::table::{Table, Value};

/// A registry of named tables (and materialized relational views).
///
/// Base tables mutate through [`Catalog::insert_rows`] /
/// [`Catalog::delete_rows`], which validate rows against the schema and
/// append a [`Delta`] to the catalog's update log; a view maintainer
/// drains the log ([`Catalog::take_updates`]) and delta-maintains every
/// materialized view instead of re-executing its definition.
///
/// Each entry ([`IndexedTable`]) owns two kinds of index beside its rows
/// (see [`crate::row_index`]): the row-multiset index, built by the first
/// retraction against the table and kept in sync by every mutation, and one
/// equality index per column, built on the column's second lookup through
/// [`Catalog::scan`] and dropped by every mutation. [`Catalog::register`]
/// drops both with the table it replaces, and `clone()` leaves both behind
/// — a cloned catalog is a read snapshot and carries rows only.
///
/// One version stamps a catalog: the [`Catalog::epoch`], moved by every
/// change to a row and every registration; a cached plan or a snapshot keys
/// on it. What is compiled from the schema alone is recompiled where a table
/// is registered (`HybridOptimizer::register_table` in `hadad-rewrite`).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, IndexedTable>,
    log: UpdateLog,
    /// Monotonic state version: bumped by every successful mutation that
    /// changes a row — logged inserts/deletes, maintenance writes — and by
    /// (re-)registration. See [`Catalog::epoch`].
    epoch: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The catalog's monotonically increasing epoch. Every successful
    /// mutation that changes a row — [`Catalog::insert_rows`],
    /// [`Catalog::delete_rows`], [`Catalog::apply_unlogged`] (maintenance
    /// commits) — and every [`Catalog::register`] bumps it, so any derived
    /// artifact stamped
    /// with an epoch (a cached plan, a snapshot) is verifiably from the
    /// current state: a stale stamp is refused, which is what keeps plan
    /// cache hits sound under incremental view maintenance.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch, mirroring the bump into the shared metrics
    /// registry (`catalog.epoch_bumps`) so snapshot/plan-cache staleness
    /// pressure is observable.
    fn bump_epoch(&mut self) {
        static BUMPS: hadad_obs::LazyCounter =
            hadad_obs::LazyCounter::new("catalog.epoch_bumps");
        BUMPS.incr();
        self.epoch += 1;
    }

    /// Registers a table under `name`, returning the table it displaced,
    /// if any. A `Some` return on a name you expected to be fresh means a
    /// view registration collision — callers that materialize views check
    /// it instead of silently shadowing a base table. The displaced
    /// table's row index goes with it.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> Option<Table> {
        self.bump_epoch();
        self.tables.insert(name.into(), IndexedTable::new(table)).map(IndexedTable::into_table)
    }

    /// Table registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(IndexedTable::table)
    }

    /// A scan of the table registered under `name`, for the
    /// [`crate::rowset`] executor: equality selections and joins against it
    /// read through the entry's column indexes.
    pub fn scan(&self, name: &str) -> Option<RowSet<'_>> {
        self.tables.get(name).map(RowSet::scan_entry)
    }

    /// Registered table names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(std::string::String::as_str)
    }

    /// Row count of a registered table.
    pub fn cardinality(&self, name: &str) -> Option<usize> {
        self.get(name).map(Table::num_rows)
    }

    /// Appends `rows` to a base table (arity- and type-checked, atomic)
    /// and logs the insertion for view maintenance. Returns the number of
    /// inserted rows.
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize, IvmError> {
        let (inserted, _) = self.apply_logged(name, rows, Delta::inserts)?;
        Ok(inserted)
    }

    /// Retracts `rows` from a base table under counting semantics (each
    /// listed row removes one matching copy; retracting a row the table
    /// does not hold is an error, applied atomically) and logs the
    /// deletion. Returns the number of deleted rows.
    pub fn delete_rows(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize, IvmError> {
        let (_, deleted) = self.apply_logged(name, rows, Delta::deletes)?;
        Ok(deleted)
    }

    /// The logged mutation: converts `rows` into a typed delta once — the
    /// one place rows arrive as `Vec<Value>`s, checked against the table's
    /// schema before anything changes — applies and logs it.
    fn apply_logged(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
        delta: fn(&Table, Vec<Vec<Value>>) -> Result<Delta, String>,
    ) -> Result<(usize, usize), IvmError> {
        let table =
            self.tables.get_mut(name).ok_or_else(|| IvmError::MissingTable(name.to_owned()))?;
        let delta = delta(table.table(), rows)
            .map_err(|detail| IvmError::SchemaMismatch { table: name.to_owned(), detail })?;
        let applied = self.apply_unlogged(name, &delta)?;
        self.log.push(name, delta);
        Ok(applied)
    }

    /// Applies a maintenance delta to a table *without* logging it — the
    /// view-maintenance path, which must not re-enqueue its own writes. A
    /// delta that nets to nothing leaves the table and the epoch as they
    /// are and returns `(0, 0)`.
    pub fn apply_unlogged(
        &mut self,
        name: &str,
        delta: &Delta,
    ) -> Result<(usize, usize), IvmError> {
        let table =
            self.tables.get_mut(name).ok_or_else(|| IvmError::MissingTable(name.to_owned()))?;
        let applied = table.apply(delta, name)?;
        if applied != (0, 0) {
            self.bump_epoch();
        }
        Ok(applied)
    }

    /// Mutations logged since the last drain, in arrival order.
    pub fn pending_updates(&self) -> &[TableUpdate] {
        self.log.entries()
    }

    /// Drains the update log for the maintainer.
    pub fn take_updates(&mut self) -> Vec<TableUpdate> {
        self.log.drain()
    }

    /// Checks every built row index against its table (every live row
    /// reachable exactly once, no dangling position), naming the first
    /// table that fails — a diagnostic for tests and debugging.
    pub fn check_indexes(&self) -> Result<(), String> {
        self.tables
            .iter()
            .try_for_each(|(name, t)| t.check_index().map_err(|e| format!("table {name}: {e}")))
    }

    /// Row-count cost of a plan that scans the named tables once each: the
    /// sum of their cardinalities, with unknown tables costed at
    /// `f64::INFINITY` so they can never beat a known plan. This is the
    /// cost function `Prune_prov` runs the PACB backchase with (§7.3): a
    /// rewriting is only as expensive as the relations it reads.
    pub fn scan_cost<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> f64 {
        names.into_iter().map(|n| self.cardinality(n).map_or(f64::INFINITY, |c| c as f64)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowset::ColRef;
    use crate::table::Column;

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
        assert_eq!(cat.cardinality("users"), Some(2));
        assert!(cat.get("missing").is_none());
        assert_eq!(cat.names().collect::<Vec<_>>(), vec!["users"]);
    }

    #[test]
    fn register_returns_displaced_table() {
        let mut cat = Catalog::new();
        assert!(cat
            .register("users", Table::new(vec![("id", Column::Int(vec![1, 2]))]))
            .is_none());
        let displaced = cat
            .register("users", Table::new(vec![("id", Column::Int(vec![7]))]))
            .expect("second registration displaces the first");
        assert_eq!(displaced.num_rows(), 2);
        assert_eq!(cat.cardinality("users"), Some(1));
    }

    #[test]
    fn scan_cost_sums_cardinalities() {
        let mut cat = Catalog::new();
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
        cat.register("tweets", Table::new(vec![("tid", Column::Int(vec![1, 2, 3]))]));
        assert_eq!(cat.scan_cost(["users", "tweets"]), 5.0);
        assert_eq!(cat.scan_cost(["users", "users"]), 4.0);
        assert_eq!(cat.scan_cost(["users", "missing"]), f64::INFINITY);
        assert_eq!(cat.scan_cost([]), 0.0);
    }

    #[test]
    fn insert_and_delete_rows_mutate_and_log() {
        let mut cat = Catalog::new();
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
        assert_eq!(
            cat.insert_rows("users", vec![vec![Value::Int(3)], vec![Value::Int(4)]]),
            Ok(2)
        );
        assert_eq!(cat.cardinality("users"), Some(4));
        assert_eq!(cat.delete_rows("users", vec![vec![Value::Int(1)]]), Ok(1));
        assert_eq!(cat.cardinality("users"), Some(3));
        let updates = cat.take_updates();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].table, "users");
        assert_eq!(updates[0].delta.counts(), (2, 0));
        assert_eq!(updates[1].delta.counts(), (0, 1));
        assert!(cat.pending_updates().is_empty());
    }

    #[test]
    fn epoch_bumps_on_every_successful_mutation_only() {
        let mut cat = Catalog::new();
        assert_eq!(cat.epoch(), 0);
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
        assert_eq!(cat.epoch(), 1);
        cat.insert_rows("users", vec![vec![Value::Int(3)]]).unwrap();
        assert_eq!(cat.epoch(), 2);
        cat.delete_rows("users", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(cat.epoch(), 3);
        // Failed mutations leave the epoch alone.
        assert!(cat.insert_rows("ghosts", vec![vec![Value::Int(1)]]).is_err());
        assert!(cat.delete_rows("users", vec![vec![Value::Int(99)]]).is_err());
        assert_eq!(cat.epoch(), 3);
        // Draining the log is not a state mutation.
        let _ = cat.take_updates();
        assert_eq!(cat.epoch(), 3);
        // Maintenance writes commit a new epoch.
        let table = cat.get("users").unwrap();
        let delta = Delta::inserts(table, vec![vec![Value::Int(9)]]).unwrap();
        cat.apply_unlogged("users", &delta).unwrap();
        assert_eq!(cat.epoch(), 4);
    }

    fn built_indexes(cat: &Catalog) -> usize {
        cat.tables.values().filter(|t| t.has_index()).count()
    }

    fn column_indexes(cat: &Catalog) -> usize {
        cat.tables.values().map(IndexedTable::column_indexes).sum()
    }

    /// The rows of `name` whose column `column` holds `v`, selected
    /// through the catalog's scan (and so through its column indexes).
    fn select(cat: &Catalog, name: &str, column: usize, v: i64) -> Table {
        let mut rows = cat.scan(name).unwrap();
        rows.filter(ColRef { source: 0, column }, &Value::Int(v));
        rows.gather()
    }

    #[test]
    fn clone_leaves_the_row_indexes_behind() {
        let mut cat = Catalog::new();
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2, 3]))]));
        cat.register("tweets", Table::new(vec![("tid", Column::Int(vec![7]))]));
        assert_eq!(built_indexes(&cat), 0, "no retraction yet, no index");
        cat.delete_rows("users", vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(built_indexes(&cat), 1);
        // Two lookups of `tweets.tid`: its column index.
        for _ in 0..2 {
            assert_eq!(select(&cat, "tweets", 0, 7).num_rows(), 1);
        }
        assert_eq!(column_indexes(&cat), 1);

        let mut snapshot = cat.clone();
        assert_eq!(built_indexes(&snapshot), 0, "a clone is rows only");
        assert_eq!(column_indexes(&snapshot), 0, "a clone is rows only");
        assert_eq!(built_indexes(&cat), 1, "the source keeps its own");
        assert_eq!(column_indexes(&cat), 1, "the source keeps its own");
        // A clone looked up in twice builds a column index of its own.
        for _ in 0..2 {
            assert_eq!(select(&snapshot, "tweets", 0, 7).num_rows(), 1);
        }
        assert_eq!(column_indexes(&snapshot), 1);
        assert_eq!(snapshot.get("users"), cat.get("users"));
        // A clone that does get retracted from builds an index of its own.
        snapshot.delete_rows("users", vec![vec![Value::Int(3)]]).unwrap();
        assert_eq!(snapshot.cardinality("users"), Some(1));
        assert_eq!(cat.cardinality("users"), Some(2));
        snapshot.check_indexes().unwrap();
        cat.check_indexes().unwrap();
    }

    /// Every mutation path — logged inserts and deletes, maintenance
    /// writes, re-registration — drops a built column index with its lookup
    /// count. The next two answers (a scan, then a rebuild) equal a fresh
    /// catalog's over the same rows.
    #[test]
    fn mutations_drop_the_column_indexes() {
        let table = |modulus: i64| {
            Table::new(vec![
                ("id", Column::Int((0..40).collect())),
                ("g", Column::Int((0..40).map(|i| i % modulus).collect())),
            ])
        };
        for mutation in 0..4 {
            let mut cat = Catalog::new();
            cat.register("t", table(4));
            for _ in 0..2 {
                assert_eq!(select(&cat, "t", 1, 1).num_rows(), 10);
            }
            assert_eq!(column_indexes(&cat), 1);
            match mutation {
                0 => assert_eq!(
                    cat.insert_rows("t", vec![vec![Value::Int(40), Value::Int(1)]]),
                    Ok(1)
                ),
                1 => assert_eq!(
                    cat.delete_rows("t", vec![vec![Value::Int(5), Value::Int(1)]]),
                    Ok(1)
                ),
                2 => {
                    let delta = Delta::inserts(
                        cat.get("t").unwrap(),
                        vec![
                            vec![Value::Int(41), Value::Int(1)],
                            vec![Value::Int(42), Value::Int(2)],
                        ],
                    )
                    .unwrap();
                    cat.apply_unlogged("t", &delta).unwrap();
                }
                _ => assert!(cat.register("t", table(3)).is_some()),
            }
            assert_eq!(column_indexes(&cat), 0, "mutation {mutation}");
            let mut fresh = Catalog::new();
            fresh.register("t", cat.get("t").unwrap().clone());
            for run in 0..3 {
                for g in 0..4 {
                    let got = select(&cat, "t", 1, g);
                    assert_eq!(got, select(&fresh, "t", 1, g), "mutation {mutation} run {run}");
                }
            }
            assert_eq!(column_indexes(&cat), 1, "mutation {mutation}: rebuilt once");
        }
    }

    #[test]
    fn register_drops_the_displaced_tables_index() {
        let mut cat = Catalog::new();
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2, 3, 4]))]));
        cat.delete_rows("users", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(built_indexes(&cat), 1);

        // Same name, different rows at the old positions.
        cat.register("users", Table::new(vec![("id", Column::Int(vec![9, 8]))]));
        assert_eq!(built_indexes(&cat), 0, "the stale index went with the old table");
        assert!(matches!(
            cat.delete_rows("users", vec![vec![Value::Int(4)]]),
            Err(IvmError::MissingRow { .. })
        ));
        assert_eq!(cat.delete_rows("users", vec![vec![Value::Int(8)]]), Ok(1));
        assert_eq!(cat.get("users").unwrap().row(0), vec![Value::Int(9)]);
        cat.check_indexes().unwrap();
    }

    #[test]
    fn mutations_validate_schema_and_existence() {
        let mut cat = Catalog::new();
        cat.register("users", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
        assert!(matches!(
            cat.insert_rows("ghosts", vec![vec![Value::Int(1)]]),
            Err(IvmError::MissingTable(_))
        ));
        // Type mismatch is rejected without mutating or logging.
        assert!(matches!(
            cat.insert_rows("users", vec![vec![Value::Str("x".into())]]),
            Err(IvmError::SchemaMismatch { .. })
        ));
        // Deleting a row that is not there is a hard error, not a no-op.
        assert!(matches!(
            cat.delete_rows("users", vec![vec![Value::Int(99)]]),
            Err(IvmError::MissingRow { .. })
        ));
        assert_eq!(cat.cardinality("users"), Some(2));
        assert!(cat.pending_updates().is_empty());
    }

    /// The edge conversion's errors: the first failing row's detail, the
    /// table, its index, the log and the epoch untouched.
    #[test]
    fn mutation_errors_name_the_first_failing_row_and_change_nothing() {
        let mut cat = Catalog::new();
        let users = Table::new(vec![
            ("id", Column::Int(vec![1, 2, 2])),
            ("name", Column::Str(vec!["a".into(), "b".into(), "b".into()])),
        ]);
        cat.register("users", users.clone());
        cat.delete_rows("users", vec![vec![Value::Int(1), Value::Str("a".into())]]).unwrap();
        let _ = cat.take_updates();
        let (before, epoch) = (cat.get("users").unwrap().clone(), cat.epoch());
        let ok = || vec![Value::Int(3), Value::Str("c".into())];
        let mismatch = |detail: &str| {
            Err(IvmError::SchemaMismatch { table: "users".into(), detail: detail.into() })
        };
        assert_eq!(
            cat.insert_rows("users", vec![ok(), vec![Value::Int(4)], vec![Value::Float(1.0)]]),
            mismatch("row has 1 cells, table has 2 columns")
        );
        assert_eq!(
            cat.insert_rows(
                "users",
                vec![ok(), vec![Value::Int(5), Value::Int(6)], vec![Value::Str("x".into()); 2]]
            ),
            mismatch("cell 6 does not match the type of column name")
        );
        assert_eq!(
            cat.delete_rows("users", vec![ok(), vec![Value::Float(2.0), Value::Int(0)]]),
            mismatch("cell 2 does not match the type of column id")
        );
        // Two copies of (2, "b") are held; three are retracted.
        let b = || vec![Value::Int(2), Value::Str("b".into())];
        assert_eq!(
            cat.delete_rows("users", vec![b(), b(), b()]),
            Err(IvmError::MissingRow {
                table: "users".into(),
                row: "i2;s1:b; (1 unmatched retractions)".into()
            })
        );
        assert_eq!((cat.get("users").unwrap(), cat.epoch()), (&before, epoch));
        assert!(cat.pending_updates().is_empty());
        cat.check_indexes().unwrap();
    }

    /// Row order after a mutation is a function of the batch and the table:
    /// inserts append (each distinct row's copies together, in order of
    /// first occurrence), and each delete, highest position first, moves
    /// the then-last row into the hole.
    #[test]
    fn row_order_after_inserts_and_deletes_is_pinned() {
        let mut cat = Catalog::new();
        cat.register("t", Table::new(vec![("v", Column::Int(vec![10, 11, 12, 13, 14]))]));
        let ints = |v: &[i64]| v.iter().map(|&x| vec![Value::Int(x)]).collect::<Vec<_>>();
        let order = |cat: &Catalog| match cat.get("t").unwrap().column_at(0) {
            Column::Int(v) => v.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(cat.insert_rows("t", ints(&[20, 21, 20, 22])), Ok(4));
        assert_eq!(order(&cat), [10, 11, 12, 13, 14, 20, 20, 21, 22]);
        // 11 at 1 and 13 at 3: 13 takes the last row (22), then 11 the new
        // last (21).
        assert_eq!(cat.delete_rows("t", ints(&[11, 13])), Ok(2));
        assert_eq!(order(&cat), [10, 21, 12, 22, 14, 20, 20]);
        // One copy of a duplicate: the chain's first, the later one.
        assert_eq!(cat.delete_rows("t", ints(&[20, 10])), Ok(2));
        assert_eq!(order(&cat), [20, 21, 12, 22, 14]);
        cat.check_indexes().unwrap();
    }
}
