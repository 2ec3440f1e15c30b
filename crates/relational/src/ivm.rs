//! Incremental view maintenance primitives: signed multiset deltas and the
//! per-operator delta rules for the CQ fragment the hybrid prefix compiles
//! to (scan / equality selection / hash equi-join / projection).
//!
//! Deltas use *counting* (bag) semantics — every row carries a signed
//! multiplicity, so deletes retract exactly as many duplicates as they
//! should under the evaluator's bag semantics (Berkholz et al.'s
//! maintenance-under-updates perspective, specialized to select/join/
//! project; the delta rules are the classical Δ(L ⋈ R) = ΔL ⋈ Rⁿᵉʷ +
//! Lᵒˡᵈ ⋈ ΔR decomposition, which is what Dougherty-style RA-to-transaction
//! translations emit for joins).
//!
//! **Representation.** A [`Delta`] is a typed [`Table`] with its target's
//! column names and types plus one `i64` multiplicity per row. Rows arrive
//! as `Vec<Value>`s at one edge only — `Catalog::insert_rows` /
//! `delete_rows` convert them once, checked against the table's schema —
//! and every later step is a typed pass over columns.
//!
//! Every rule *is* the executable operator it mirrors, run by
//! [`crate::rowset`] with the delta as a source and the multiplicities
//! gathered beside it: a selection is the executor's filter (`select_eq`
//! matches through [`Value::as_i64`], `select_str_eq` verbatim strings), a
//! projection is a gather, and both join halves are one [`RowSet`] join
//! with the delta as the left source — the one cell equality, the same
//! choice between a chained join and an index-nested loop, join output
//! columns prefixed `right.` until unique — so a delta-maintained view is
//! bit-identical, up to row order, to re-running its definition from
//! scratch.
//!
//! **Row order.** A table is a multiset: [`apply_delta`] appends the
//! batch's insertions and then deletes by moving the table's last row into
//! each vacated position, so surviving rows do *not* keep their relative
//! order across a delete. Anything that needs an order (a dense cast) fixes
//! it with a sort key, as the data model already requires.
//!
//! **Cost.** One batch costs typed work proportional to the delta: the
//! apply hashes the delta's rows a word per cell, nets them in flat `u32`
//! chains, finds each retraction through the target's row-multiset index
//! ([`crate::row_index`]) and appends a column at a time; a join half reads
//! the stored side's key column once, or only the buckets of the delta's
//! keys where that side has a column index, and nothing when the delta is
//! empty. The row index belongs to the owner of the mutable table
//! ([`crate::IndexedTable`]: a catalog entry, a maintainer's cached join
//! input), is built by the first retraction, and is never cloned.

use std::fmt::{self, Write as _};

use crate::row_index::{
    position, row_hashes, rows_identical, RowIndex, GOLDEN, MIN_BUCKETS, NIL,
};
use crate::rowset::{joined_columns, ColRef, Out, RowSet};
use crate::table::{Column, Table, Value};
use crate::IndexedTable;

/// Table rows the update path reads: rows hashed into a row index, chain
/// candidates a retraction compares, rows a delete relocates, and the
/// stored-side rows a join half reads (see [`RowSet`]'s `join_reading`). A
/// batch against an indexed table adds a small multiple of |Δ| here,
/// whatever the table's size.
pub(crate) static ROWS_EXAMINED: hadad_obs::LazyCounter =
    hadad_obs::LazyCounter::new("ivm.rows_examined");

/// Maintenance failure: the delta and the target disagree structurally, or
/// a retraction has nothing to retract.
#[derive(Debug, Clone, PartialEq)]
pub enum IvmError {
    /// The delta targets a table the catalog does not hold.
    MissingTable(String),
    /// A maintained view references a column its input lacks.
    MissingColumn(String),
    /// A delta's schema does not line up with the table it is applied to.
    SchemaMismatch {
        /// Table the delta was applied to.
        table: String,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A delete retracts more copies of a row than the table holds — the
    /// update stream and the maintained state have diverged.
    MissingRow {
        /// Table the retraction targeted.
        table: String,
        /// Canonical rendering of the missing row.
        row: String,
    },
}

impl fmt::Display for IvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IvmError::MissingTable(t) => write!(f, "unknown table {t}"),
            IvmError::MissingColumn(c) => write!(f, "unknown column {c}"),
            IvmError::SchemaMismatch { table, detail } => {
                write!(f, "delta does not match table {table}: {detail}")
            }
            IvmError::MissingRow { table, row } => {
                write!(f, "delete of a row not present in {table}: {row}")
            }
        }
    }
}

impl std::error::Error for IvmError {}

/// A signed multiset of rows over a table's schema: `+n` inserts `n`
/// copies, `-n` retracts `n` copies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// The rows, with the target table's column names and types.
    pub(crate) rows: Table,
    /// Multiplicity of each row of `rows` (one each): positive inserts,
    /// negative retracts.
    pub(crate) mult: Vec<i64>,
}

/// Canonical serialization of a row, used as the multiset key in error
/// messages and tests: floats key by bit pattern (exact, not rounded),
/// strings are length-prefixed so a cell can never impersonate a
/// separator. The update path hashes and compares typed columns instead.
pub fn row_key(row: &[Value]) -> String {
    let mut s = String::new();
    for v in row {
        match v {
            Value::Int(i) => {
                let _ = write!(s, "i{i};");
            }
            Value::Float(f) => {
                let _ = write!(s, "f{};", f.to_bits());
            }
            Value::Str(t) => {
                let _ = write!(s, "s{}:{t};", t.len());
            }
        }
    }
    s
}

/// Multiset fingerprint of a whole table: sorted [`row_key`] renderings.
/// Row order is not part of view semantics (the relational data model
/// forgets it), so two tables are the same bag of rows iff their
/// fingerprints are equal — the comparison the IVM correctness tests and
/// the bench's exactness check both use.
pub fn table_fingerprint(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows()).map(|r| row_key(&t.row(r))).collect();
    rows.sort();
    rows
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_cell(h: u64, tag: u64, bits: u64) -> u64 {
    fnv_u64(fnv_u64(h, tag), bits)
}

fn fnv_str(mut h: u64, s: &str) -> u64 {
    h = fnv_u64(h, 2);
    h = fnv_u64(h, s.len() as u64);
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable FNV-1a fingerprint of every row, computed column-major:
/// type-tagged, floats by bit pattern, byte by byte. Its values are fixed
/// forever (corpus hashes are built from them), which is why the update
/// path does not use it: the row index hashes a word per cell instead
/// ([`crate::row_index`]).
pub fn table_row_hashes(t: &Table) -> Vec<u64> {
    let mut hashes = vec![FNV_OFFSET; t.num_rows()];
    for c in 0..t.num_cols() {
        match t.column_at(c) {
            Column::Int(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = fnv_cell(*h, 0, *x as u64);
                }
            }
            Column::Float(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = fnv_cell(*h, 1, x.to_bits());
                }
            }
            Column::Str(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = fnv_str(*h, x);
                }
            }
        }
    }
    hashes
}

/// Net multiplicity per distinct row of `rows` (bitwise identity, see
/// [`rows_identical`]), whose [`row_hashes`] are `hashes`: the first
/// occurrence of a row represents it, representatives in order of first
/// occurrence, as `(representatives, nets)`. Netted in flat `u32` chains
/// over the representatives — a constant number of allocations, whatever
/// the row count.
fn net(rows: &Table, mult: &[i64], hashes: &[u64]) -> (Vec<u32>, Vec<i64>) {
    let n = rows.num_rows();
    let buckets = (2 * n).max(MIN_BUCKETS).next_power_of_two();
    let shift = 64 - buckets.trailing_zeros();
    let mut heads = vec![NIL; buckets];
    let mut next: Vec<u32> = Vec::with_capacity(n);
    let (mut reps, mut nets) = (Vec::with_capacity(n), Vec::with_capacity(n));
    'rows: for (i, (&hash, &m)) in hashes.iter().zip(mult).enumerate() {
        let b = (hash.wrapping_mul(GOLDEN) >> shift) as usize;
        let mut at = heads[b];
        while at != NIL {
            let rep = reps[at as usize] as usize;
            if hashes[rep] == hash && rows_identical(rows, rep, rows, i) {
                nets[at as usize] += m;
                continue 'rows;
            }
            at = next[at as usize];
        }
        next.push(heads[b]);
        heads[b] = position(reps.len());
        reps.push(position(i));
        nets.push(m);
    }
    (reps, nets)
}

impl Delta {
    /// Delta with `schema`'s column names and types and no rows.
    pub fn empty(schema: &Table) -> Self {
        Delta { rows: schema.empty_like(), mult: Vec::new() }
    }

    /// An all-insertions delta over `schema`'s column names and types. The
    /// rows are converted once, a column at a time (strings moved); a wrong
    /// arity or cell type errors with the first failing row's
    /// [`Table::row_matches_schema`] detail.
    pub fn inserts(schema: &Table, rows: Vec<Vec<Value>>) -> Result<Self, String> {
        Delta::uniform(schema, rows, 1)
    }

    /// An all-retractions delta over `schema`'s column names and types,
    /// converted and checked as [`Delta::inserts`] does.
    pub fn deletes(schema: &Table, rows: Vec<Vec<Value>>) -> Result<Self, String> {
        Delta::uniform(schema, rows, -1)
    }

    fn uniform(schema: &Table, rows: Vec<Vec<Value>>, n: i64) -> Result<Self, String> {
        let mult = vec![n; rows.len()];
        Ok(Delta { rows: Table::from_rows(schema, rows)?, mult })
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[String] {
        self.rows.column_names()
    }

    /// Rows listed, before netting.
    pub fn num_rows(&self) -> usize {
        self.rows.num_rows()
    }

    /// Whether every distinct row's multiplicities net to zero. A delta
    /// whose multiplicities share one sign is checked without hashing.
    pub fn is_empty(&self) -> bool {
        if self.mult.iter().all(|&n| n >= 0) || self.mult.iter().all(|&n| n <= 0) {
            return self.mult.iter().all(|&n| n == 0);
        }
        let (_, nets) = net(&self.rows, &self.mult, &row_hashes(&self.rows));
        nets.iter().all(|&n| n == 0)
    }

    /// Inserted (positive) and retracted (negative) copies, summed row by
    /// row without netting.
    pub fn counts(&self) -> (i64, i64) {
        let mut ins = 0;
        let mut del = 0;
        for &n in &self.mult {
            if n > 0 {
                ins += n;
            } else {
                del -= n;
            }
        }
        (ins, del)
    }

    /// The inverse delta: applying `d` then `d.negated()` is the identity.
    pub fn negated(&self) -> Delta {
        Delta { rows: self.rows.clone(), mult: self.mult.iter().map(|n| -n).collect() }
    }

    fn col_index(&self, name: &str) -> Result<usize, IvmError> {
        self.rows.column_index(name).ok_or_else(|| IvmError::MissingColumn(name.to_owned()))
    }

    /// The rows `rows` (a set whose source 0 is this delta's table) selects,
    /// each with its multiplicity.
    fn picked(&self, rows: &RowSet<'_>) -> Delta {
        Delta { rows: rows.gather(), mult: rows.gather_slice(0, &self.mult) }
    }

    /// The rows whose cell in `column` equals `constant` under the
    /// executor's filter.
    fn filtered(&self, column: &str, constant: &Value) -> Result<Delta, IvmError> {
        let column = self.col_index(column)?;
        let mut rows = RowSet::scan(&self.rows);
        rows.filter(ColRef { source: 0, column }, constant);
        Ok(self.picked(&rows))
    }

    /// Δσ: keeps delta rows whose cell matches the integer constant through
    /// [`Value::as_i64`] — exactly the executable `SelectEq` predicate.
    pub fn select_eq(&self, column: &str, value: i64) -> Result<Delta, IvmError> {
        self.filtered(column, &Value::Int(value))
    }

    /// Δσ on a string column: `Str` cells only, verbatim equality.
    pub fn select_str_eq(&self, column: &str, value: &str) -> Result<Delta, IvmError> {
        self.filtered(column, &Value::Str(value.to_owned()))
    }

    /// Δπ: projects every row to the named columns; multiplicities ride
    /// along unchanged (bag projection never deduplicates).
    pub fn project(&self, columns: &[String]) -> Result<Delta, IvmError> {
        let mut rows = RowSet::scan(&self.rows);
        rows.project(columns).map_err(IvmError::MissingColumn)?;
        Ok(self.picked(&rows))
    }

    /// ΔL ⋈ R: joins every delta row against the (full) right relation —
    /// a catalog's [`crate::Catalog::scan`], whose column indexes the join
    /// may read through, or a [`RowSet::scan`] of a table. Multiplicities
    /// multiply — table rows count 1 each, so each match inherits the delta
    /// row's signed count. Output is in delta order; an empty delta reads
    /// no row of `right`.
    pub fn join_right(
        &self,
        right: RowSet<'_>,
        left_key: &str,
        right_key: &str,
    ) -> Result<Delta, IvmError> {
        let column = self.col_index(left_key)?;
        let rk = right
            .column_names()
            .iter()
            .position(|n| n == right_key)
            .ok_or_else(|| IvmError::MissingColumn(right_key.to_owned()))?;
        let mut rows = RowSet::scan(&self.rows);
        let read = rows.hash_join_reading(ColRef { source: 0, column }, right, rk);
        ROWS_EXAMINED.add(read as u64);
        Ok(self.picked(&rows))
    }

    /// L ⋈ ΔR: joins the (full, *pre-update*) left table against a delta of
    /// the right table, the delta driving the join as its left source and
    /// `left`'s column indexes serving it. Output schema matches
    /// [`Delta::join_right`] — the two halves of Δ(L ⋈ R) concatenate by
    /// [`Delta::merge`] — and output is in delta order, table order within
    /// one delta row. An empty delta reads no row of `left`.
    pub fn join_left(
        left: &IndexedTable,
        right_delta: &Delta,
        left_key: &str,
        right_key: &str,
    ) -> Result<Delta, IvmError> {
        let table = left.table();
        let lk = table
            .column_index(left_key)
            .ok_or_else(|| IvmError::MissingColumn(left_key.to_owned()))?;
        let rk = right_delta.col_index(right_key)?;
        let (names, kept) =
            joined_columns(table.column_names(), right_delta.columns(), right_key);
        let mut rows = RowSet::scan(&right_delta.rows);
        let (base, read) = rows.join_reading(
            ColRef { source: 0, column: rk },
            RowSet::scan_entry(left),
            ColRef { source: 0, column: lk },
        );
        ROWS_EXAMINED.add(read as u64);
        // Today's column order: the stored side's columns, then the delta's.
        let cells = (0..table.num_cols())
            .map(|column| ColRef { source: base, column })
            .chain(kept.into_iter().map(|column| ColRef { source: 0, column }));
        let head = names.iter().map(String::as_str).zip(cells.map(Out::Cell)).collect();
        Ok(Delta { rows: rows.gather_as(head), mult: rows.gather_slice(0, &right_delta.mult) })
    }

    /// Appends another delta over the same schema, column by column.
    pub fn merge(&mut self, other: Delta) -> Result<(), IvmError> {
        if let Some(detail) = self.rows.schema_mismatch(&other.rows) {
            return Err(IvmError::SchemaMismatch {
                table: "<delta>".into(),
                detail: format!("merge of {detail}"),
            });
        }
        self.rows.append(other.rows);
        self.mult.extend(other.mult);
        Ok(())
    }
}

/// Applies a delta to a materialized table under counting semantics:
/// per-row net counts are computed first (so a retraction and a
/// re-insertion of the same row cancel), then negative nets retract
/// matching rows (erroring — before any mutation — if the table holds too
/// few copies) and positive nets append. Returns `(inserted, deleted)` row
/// counts; `(0, 0)` means the table is untouched.
///
/// Row order: insertions append (each distinct row's copies together, in
/// order of first occurrence in the delta), then each retracted row is
/// replaced by the table's then-last row — so surviving rows do **not**
/// keep their relative order after a delete, and a batch that both inserts
/// and retracts overwrites retracted rows with inserted ones.
///
/// This index-less form builds a throw-away row index when the delta
/// retracts anything — O(|table|). Owners of a long-lived mutable table
/// hold it as a [`crate::IndexedTable`] and call its `apply`, which
/// keeps the index across batches and so costs O(|Δ|).
pub fn apply_delta(
    table: &mut Table,
    delta: &Delta,
    name: &str,
) -> Result<(usize, usize), IvmError> {
    apply_delta_indexed(table, &mut None, delta, name)
}

/// [`apply_delta`] against a table whose row index, if built, is `index`:
/// the one retraction implementation. The index is built here on the first
/// retraction and kept in sync by every insert and delete from then on.
pub(crate) fn apply_delta_indexed(
    table: &mut Table,
    index: &mut Option<RowIndex>,
    delta: &Delta,
    name: &str,
) -> Result<(usize, usize), IvmError> {
    let mismatch = |detail| IvmError::SchemaMismatch { table: name.to_owned(), detail };
    let rows = &delta.rows;
    if rows.column_names() != table.column_names() {
        return Err(mismatch(format!(
            "delta columns {:?} vs table columns {:?}",
            rows.column_names(),
            table.column_names()
        )));
    }
    // One type check per column: from here on every cell fits.
    if let Some(detail) = rows.schema_mismatch(table) {
        return Err(mismatch(format!("delta {detail} in the table")));
    }
    let hashes = row_hashes(rows);
    let (reps, nets) = net(rows, &delta.mult, &hashes);
    let wanted = |n: i64| usize::try_from(n.unsigned_abs()).unwrap_or(usize::MAX);

    // Retractions, step one: locate |n| copies of each negative-net row
    // through the index — all of them before the first mutation, so an
    // underflow leaves the table untouched.
    let total = |sign: i64| {
        let of_sign = nets.iter().filter(|&&n| n.signum() == sign);
        of_sign.fold(0usize, |sum, &n| sum.saturating_add(wanted(n)))
    };
    let retracted = total(-1);
    let mut doomed: Vec<(u32, u64)> = Vec::with_capacity(retracted.min(table.num_rows()));
    if retracted > 0 {
        let idx = index.get_or_insert_with(|| RowIndex::build(table));
        let mut examined = 0;
        for (&rep, &n) in reps.iter().zip(&nets).filter(|(_, &n)| n < 0) {
            let (rep, want) = (rep as usize, wanted(n));
            let before = doomed.len();
            examined += idx.find(table, (rows, rep, hashes[rep]), want, &mut doomed);
            let found = doomed.len() - before;
            if found < want {
                return Err(IvmError::MissingRow {
                    table: name.to_owned(),
                    row: format!(
                        "{} ({} unmatched retractions)",
                        row_key(&rows.row(rep)),
                        n.unsigned_abs() - found as u64
                    ),
                });
            }
        }
        // Every delete also reads the row it relocates.
        ROWS_EXAMINED.add((examined + doomed.len()) as u64);
    }

    // Insertions: n copies of each positive-net row, appended a column at a
    // time, then linked into the index in one pass. Appending moves
    // nothing, so the located positions stay valid.
    let inserted = total(1);
    let mut appended = Vec::with_capacity(inserted);
    for (&rep, &n) in reps.iter().zip(&nets).filter(|(_, &n)| n > 0) {
        appended.extend(std::iter::repeat_n(rep, wanted(n)));
    }
    table.append_gathered(rows, &appended);
    if let Some(idx) = index.as_mut() {
        idx.extend(table, appended.iter().map(|&r| hashes[r as usize]));
    }

    // Retractions, step two: delete highest position first, so the row
    // each delete moves in from the end is never itself doomed. Coming
    // after the appends, a batch that both inserts and retracts overwrites
    // the retracted rows with the inserted ones, in order — an update in
    // place that keeps a clustered table clustered.
    doomed.sort_unstable_by_key(|&(pos, _)| std::cmp::Reverse(pos));
    if let Some(idx) = index.as_mut() {
        for &(pos, hash) in &doomed {
            idx.remove(table, pos, hash);
        }
    }
    Ok((inserted, doomed.len()))
}

/// One logged base-table mutation batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TableUpdate {
    /// Mutated base table.
    pub table: String,
    /// The signed rows applied to it.
    pub delta: Delta,
}

/// Append-only log of base-table mutations, drained by a view maintainer.
/// Entries keep arrival order — delta propagation composes sequentially,
/// so order is semantically load-bearing when several tables change.
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    entries: Vec<TableUpdate>,
}

impl UpdateLog {
    /// Appends a batch; empty deltas are dropped.
    pub fn push(&mut self, table: impl Into<String>, delta: Delta) {
        if !delta.is_empty() {
            self.entries.push(TableUpdate { table: table.into(), delta });
        }
    }

    /// Pending batches, oldest first.
    pub fn entries(&self) -> &[TableUpdate] {
        &self.entries
    }

    /// Whether no mutations are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hands the pending entries to the maintainer and clears the log.
    pub fn drain(&mut self) -> Vec<TableUpdate> {
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn users() -> Table {
        Table::new(vec![
            ("id", Column::Int(vec![1, 2, 3])),
            ("followers", Column::Int(vec![10, 20, 30])),
        ])
    }

    fn tweets() -> Table {
        Table::new(vec![
            ("tid", Column::Int(vec![100, 101, 102])),
            ("uid", Column::Int(vec![1, 1, 2])),
        ])
    }

    /// A delta over `schema` listing `rows` with multiplicities `mult`.
    fn signed(schema: &Table, rows: Vec<Vec<Value>>, mult: &[i64]) -> Delta {
        let mut d = Delta::inserts(schema, rows).unwrap();
        d.mult = mult.to_vec();
        d
    }

    /// `(multiplicity, row_key)` of every row, sorted: a delta as a bag.
    fn bag(d: &Delta) -> Vec<String> {
        let mut keys: Vec<String> = (0..d.num_rows())
            .map(|r| format!("{:+} {}", d.mult[r], row_key(&d.rows.row(r))))
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn select_delta_mirrors_executable_predicate() {
        let d = Delta::inserts(
            &users(),
            vec![vec![Value::Int(1), Value::Int(5)], vec![Value::Int(9), Value::Int(7)]],
        )
        .unwrap();
        let s = d.select_eq("id", 1).unwrap();
        assert_eq!(s.num_rows(), 1);
        assert_eq!(s.rows.value(0, "followers"), Value::Int(5));
        assert_eq!(s.mult, [1]);
        // Missing column errors instead of silently passing everything.
        assert!(d.select_eq("nope", 1).is_err());
        // Integral floats match an integer, strings never do; strings match
        // strings verbatim.
        let mixed = Table::new(vec![("f", Column::Float(vec![])), ("s", Column::Str(vec![]))]);
        let row = |f: f64, s: &str| vec![Value::Float(f), Value::Str(s.into())];
        let d = signed(&mixed, vec![row(1.0, "1"), row(1.5, "a"), row(-0.0, "1")], &[2, -1, 3]);
        assert_eq!(d.select_eq("f", 1).unwrap().mult, [2]);
        assert_eq!(d.select_eq("f", 0).unwrap().mult, [3]);
        assert_eq!(d.select_eq("s", 1).unwrap().num_rows(), 0);
        assert_eq!(d.select_str_eq("s", "1").unwrap().mult, [2, 3]);
        assert_eq!(d.select_str_eq("f", "1").unwrap().num_rows(), 0);
    }

    #[test]
    fn project_delta_keeps_multiplicities() {
        let mut d = Delta::inserts(&users(), vec![vec![Value::Int(1), Value::Int(5)]]).unwrap();
        d.mult[0] = 3;
        let p = d.project(&["followers".into()]).unwrap();
        assert_eq!(p.columns(), ["followers".to_string()]);
        assert_eq!(p.rows.row(0), [Value::Int(5)]);
        assert_eq!(p.mult, [3]);
        assert_eq!(d.project(&["nope".into()]), Err(IvmError::MissingColumn("nope".into())));
    }

    #[test]
    fn join_right_multiplies_counts_and_prefixes_columns() {
        // Two new tweets by user 1; the join against users yields both with
        // the user's followers attached.
        let d = Delta::inserts(
            &tweets(),
            vec![vec![Value::Int(200), Value::Int(1)], vec![Value::Int(201), Value::Int(7)]],
        )
        .unwrap();
        let users = users();
        let j = d.join_right(RowSet::scan(&users), "uid", "id").unwrap();
        assert_eq!(
            j.columns(),
            ["tid".to_string(), "uid".to_string(), "followers".to_string()]
        );
        // uid 7 has no match and drops out.
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.rows.row(0), [Value::Int(200), Value::Int(1), Value::Int(10)]);
        assert_eq!(j.mult, [1]);
    }

    #[test]
    fn join_left_matches_all_probe_rows() {
        // User 1 leaves: both existing tweets by uid 1 join the retraction.
        let d = Delta::deletes(&users(), vec![vec![Value::Int(1), Value::Int(10)]]).unwrap();
        let j = Delta::join_left(&IndexedTable::new(tweets()), &d, "uid", "id").unwrap();
        assert_eq!(j.mult, [-1, -1]);
        assert_eq!(
            j.columns(),
            ["tid".to_string(), "uid".to_string(), "followers".to_string()]
        );
        assert_eq!(j.rows.column("tid").unwrap(), &Column::Int(vec![100, 101]));
    }

    #[test]
    fn join_halves_agree_with_full_hash_join() {
        // Δ(L ⋈ R) over an insert into L, checked against re-running
        // ops::hash_join from scratch.
        let mut t_new = tweets();
        t_new.push_row(&[Value::Int(300), Value::Int(2)]).unwrap();
        let d = Delta::inserts(&tweets(), vec![vec![Value::Int(300), Value::Int(2)]]).unwrap();
        let users = users();
        let dj = d.join_right(RowSet::scan(&users), "uid", "id").unwrap();
        let mut joined = ops::hash_join(&tweets(), "uid", &users, "id").unwrap();
        apply_delta(&mut joined, &dj, "joined").unwrap();
        let full = ops::hash_join(&t_new, "uid", &users, "id").unwrap();
        assert_eq!(
            ops::sort_by_int(&joined, "tid").unwrap(),
            ops::sort_by_int(&full, "tid").unwrap()
        );
    }

    /// Both halves against `ops::hash_join` for every pairing of key types,
    /// from either side: duplicate keys on both sides, integral and
    /// fractional float keys, both zeros, `NaN`, string keys (which join
    /// strings and never numbers), and a signed delta. The stored side is
    /// a plain scan and a catalog entry, three times each, so its column
    /// index is built and then read; a stored side eight times the size
    /// sends the one-row deltas through that index.
    #[test]
    fn join_halves_mirror_hash_join_on_float_and_duplicate_keys() {
        let strs = |v: &[&str]| Column::Str(v.iter().map(|s| (*s).to_owned()).collect());
        let left = Table::new(vec![
            ("k", Column::Float(vec![1.0, 1.0, 2.5, 3.0, f64::NAN, -0.0])),
            ("a", Column::Int(vec![10, 11, 12, 13, 14, 15])),
        ]);
        let right = Table::new(vec![
            ("k", Column::Int(vec![1, 3, 3, 9, 0])),
            ("b", strs(&["p", "q", "r", "s", "t"])),
        ]);
        let fractional = Table::new(vec![
            ("k", Column::Float(vec![2.5, f64::NAN, 1.0, 2.5, 0.0])),
            ("b", Column::Int(vec![20, 21, 22, 23, 24])),
        ]);
        let names = Table::new(vec![
            ("k", strs(&["1", "x", "", "x"])),
            ("c", Column::Int(vec![30, 31, 32, 33])),
        ]);
        let tile = |t: &Table, times: usize| {
            t.gather(&(0..times * t.num_rows()).map(|i| i % t.num_rows()).collect::<Vec<_>>())
        };
        let full = |l: &Table, r: &Table| {
            let fp = table_fingerprint(&ops::hash_join(l, "k", r, "k").unwrap());
            fp.into_iter().map(|k| format!("+1 {k}")).collect::<Vec<_>>()
        };
        let all = |t: &Table| Delta::inserts(t, (0..t.num_rows()).map(|r| t.row(r)).collect());
        let one = |t: &Table, r: usize| Delta::inserts(t, vec![t.row(r)]).unwrap();

        // ΔL ⋈ R for an all-insert ΔL is hash_join(ΔL as a table, R), and
        // L ⋈ ΔR likewise.
        let tables = [&left, &right, &fractional, &names];
        for l in tables {
            for r in tables {
                let want = full(l, r);
                let le = IndexedTable::new(l.clone());
                let mut cat = crate::Catalog::new();
                cat.register("r", r.clone());
                for _ in 0..3 {
                    let dl = all(l).unwrap();
                    assert_eq!(bag(&dl.join_right(RowSet::scan(r), "k", "k").unwrap()), want);
                    assert_eq!(
                        bag(&dl.join_right(cat.scan("r").unwrap(), "k", "k").unwrap()),
                        want
                    );
                    let dr = all(r).unwrap();
                    assert_eq!(bag(&Delta::join_left(&le, &dr, "k", "k").unwrap()), want);
                }
                // One delta row against eight copies of the stored side.
                let (big_l, big_r) = (tile(l, 8), tile(r, 8));
                let (ble, mut bcat) = (IndexedTable::new(big_l.clone()), crate::Catalog::new());
                bcat.register("r", big_r.clone());
                for run in 0..3 {
                    for i in 0..l.num_rows() {
                        let got = one(l, i).join_right(bcat.scan("r").unwrap(), "k", "k");
                        let alone = l.gather(&[i]);
                        assert_eq!(bag(&got.unwrap()), full(&alone, &big_r), "run {run}");
                    }
                    for j in 0..r.num_rows() {
                        let got = Delta::join_left(&ble, &one(r, j), "k", "k");
                        let alone = r.gather(&[j]);
                        assert_eq!(bag(&got.unwrap()), full(&big_l, &alone), "run {run}");
                    }
                }
            }
        }
        // 2.5 = 2.5 twice, NaN = NaN, 1.0 = 1.0 twice, -0.0 = 0.0; "x" = "x"
        // both ways; "1" is not 1.
        assert_eq!(full(&left, &fractional).len(), 6);
        assert_eq!(full(&left, &right).len(), 5);
        assert_eq!(full(&names, &names).len(), 6);
        assert!(full(&names, &right).is_empty() && full(&right, &names).is_empty());

        // Matches come back in delta order, table order within a row.
        let got = all(&left).unwrap().join_right(RowSet::scan(&right), "k", "k").unwrap();
        assert_eq!(got.rows.column("a").unwrap(), &Column::Int(vec![10, 11, 13, 13, 15]));
        let got =
            Delta::join_left(&IndexedTable::new(left.clone()), &all(&right).unwrap(), "k", "k")
                .unwrap();
        assert_eq!(got.rows.column("b").unwrap(), &strs(&["p", "p", "q", "r", "t"]));

        // A retraction riding along: key 1 matches two left rows (+1 each),
        // key 3 one (-2 and +1).
        let mut dr = all(&right).unwrap();
        dr.mult[1] = -2;
        let got = Delta::join_left(&IndexedTable::new(left.clone()), &dr, "k", "k").unwrap();
        assert_eq!(got.mult, [1, 1, -2, 1, 1]);
    }

    #[test]
    fn apply_delta_counts_retract_duplicates_exactly() {
        let mut t = Table::new(vec![("v", Column::Int(vec![7, 7, 7, 8]))]);
        // Retract two of the three 7s.
        let d = signed(&t, vec![vec![Value::Int(7)]], &[-2]);
        let (ins, del) = apply_delta(&mut t, &d, "t").unwrap();
        assert_eq!((ins, del), (0, 2));
        assert_eq!(t.num_rows(), 2);
        let mut left: Vec<Option<i64>> = (0..2).map(|r| t.value(r, "v").as_i64()).collect();
        left.sort_unstable();
        assert_eq!(left, [Some(7), Some(8)]);
    }

    #[test]
    fn apply_delta_nets_out_cancelling_rows() {
        let mut t = Table::new(vec![("v", Column::Int(vec![1]))]);
        let d = signed(&t, vec![vec![Value::Int(2)], vec![Value::Int(2)]], &[1, -1]);
        assert!(d.is_empty());
        assert_eq!(apply_delta(&mut t, &d, "t"), Ok((0, 0)));
        assert_eq!(t.num_rows(), 1);
    }

    /// Emptiness nets per distinct row, under bitwise identity.
    #[test]
    fn is_empty_nets_per_distinct_row() {
        let t = Table::new(vec![("v", Column::Float(vec![]))]);
        let f = |v: &[f64]| v.iter().map(|&x| vec![Value::Float(x)]).collect::<Vec<_>>();
        assert!(signed(&t, f(&[1.0, 2.0, 1.0, 2.0]), &[1, 1, -1, -1]).is_empty());
        assert!(signed(&t, f(&[f64::NAN, f64::NAN]), &[2, -2]).is_empty());
        assert!(signed(&t, f(&[1.0]), &[0]).is_empty());
        assert!(Delta::empty(&t).is_empty());
        assert!(!signed(&t, f(&[1.0, 1.0, 2.0]), &[1, -1, 1]).is_empty());
        assert!(!signed(&t, f(&[-0.0, 0.0]), &[1, -1]).is_empty());
        assert!(!signed(&t, f(&[3.0, 3.0]), &[-1, -1]).is_empty());
    }

    #[test]
    fn apply_delta_underflow_is_an_error_and_atomic() {
        let mut t = Table::new(vec![("v", Column::Int(vec![1, 2]))]);
        // Only one copy of 2 is present.
        let d = signed(&t, vec![vec![Value::Int(2)], vec![Value::Int(9)]], &[-3, 1]);
        assert_eq!(
            apply_delta(&mut t, &d, "t"),
            Err(IvmError::MissingRow {
                table: "t".into(),
                row: "i2; (2 unmatched retractions)".into()
            })
        );
        // Nothing was applied: the insert of 9 did not slip through.
        assert_eq!(t, Table::new(vec![("v", Column::Int(vec![1, 2]))]));
    }

    /// A delta whose columns or column types differ from the table's is
    /// refused whole.
    #[test]
    fn apply_delta_checks_the_schema_once_per_column() {
        let mut t = users();
        let floats =
            Table::new(vec![("id", Column::Int(vec![])), ("followers", Column::Float(vec![]))]);
        let d = Delta::inserts(&floats, vec![vec![Value::Int(4), Value::Float(1.0)]]).unwrap();
        let err = apply_delta(&mut t, &d, "u").unwrap_err();
        assert_eq!(
            err,
            IvmError::SchemaMismatch {
                table: "u".into(),
                detail: "delta column followers is Float vs Int in the table".into()
            }
        );
        let d = Delta::inserts(&tweets(), vec![vec![Value::Int(4), Value::Int(1)]]).unwrap();
        assert!(matches!(apply_delta(&mut t, &d, "u"), Err(IvmError::SchemaMismatch { .. })));
        assert_eq!(t, users());
        let mut d = Delta::empty(&users());
        assert!(matches!(d.merge(Delta::empty(&floats)), Err(IvmError::SchemaMismatch { .. })));
    }

    #[test]
    fn negated_roundtrip_is_identity() {
        let orig = users();
        let mut t = users();
        let d = signed(
            &t,
            vec![vec![Value::Int(4), Value::Int(40)], vec![Value::Int(1), Value::Int(10)]],
            &[2, -1],
        );
        apply_delta(&mut t, &d, "u").unwrap();
        assert_eq!(t.num_rows(), 4);
        apply_delta(&mut t, &d.negated(), "u").unwrap();
        assert_eq!(ops::sort_by_int(&t, "id").unwrap(), ops::sort_by_int(&orig, "id").unwrap());
    }

    #[test]
    fn row_keys_do_not_collide_across_types() {
        assert_ne!(row_key(&[Value::Int(7)]), row_key(&[Value::Str("7".into())]));
        assert_ne!(row_key(&[Value::Int(7)]), row_key(&[Value::Float(7.0)]));
        // Length prefix: ("a;", "b") vs ("a", ";b") must differ.
        assert_ne!(
            row_key(&[Value::Str("a;".into()), Value::Str("b".into())]),
            row_key(&[Value::Str("a".into()), Value::Str(";b".into())])
        );
    }

    /// The stable fingerprint's values are fixed: corpus hashes are built
    /// from them.
    #[test]
    fn table_row_hashes_are_pinned() {
        let t = Table::new(vec![
            ("i", Column::Int(vec![0, -1])),
            ("f", Column::Float(vec![0.5, -0.0])),
            ("s", Column::Str(vec!["".into(), "ab".into()])),
        ]);
        assert_eq!(table_row_hashes(&t), [0x86E4_1528_E01C_140B, 0xAD4C_79EA_C5B8_B7FF]);
    }

    #[test]
    fn update_log_drains_in_order_and_skips_empty() {
        let mut log = UpdateLog::default();
        let row = || vec![vec![Value::Int(9), Value::Int(0)]];
        log.push("a", Delta::inserts(&users(), row()).unwrap());
        log.push("b", Delta::empty(&users()));
        log.push("a", Delta::deletes(&users(), row()).unwrap());
        assert_eq!(log.entries().len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].delta.counts(), (1, 0));
        assert_eq!(drained[1].delta.counts(), (0, 1));
        assert!(log.is_empty());
    }
}
