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
//! Every rule mirrors the executable operators in [`crate::ops`] *exactly*
//! (`select_eq` matches through [`Value::as_i64`], both join halves pair
//! rows through [`crate::rowset`]'s one cell equality on the kernel
//! `ops::hash_join` runs, join output columns are prefixed `right.` until
//! unique), so a delta-maintained view is bit-identical, up to row order,
//! to re-running its definition from scratch.
//!
//! **Row order.** A table is a multiset: [`apply_delta`] appends the
//! batch's insertions and then deletes by moving the table's last row into
//! each vacated position, so surviving rows do *not* keep their relative
//! order across a delete. Anything that needs an order (a dense cast) fixes
//! it with a sort key, as the data model already requires.
//!
//! **Cost.** One batch costs hash work proportional to the delta: a
//! retraction finds its rows through the target's row-multiset index
//! ([`crate::row_index`]), and each join half indexes the *delta*'s key
//! cells and probes them with one typed pass over the table's key column —
//! skipped outright when the delta is empty. The row index belongs to the
//! owner of the mutable table ([`crate::IndexedTable`]: a catalog entry, a
//! maintainer's cached join input), is built by the first retraction, and
//! is never cloned.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use crate::row_index::RowIndex;
use crate::rowset;
use crate::table::{Column, Table, Value};

/// Table rows the update path reads: rows hashed into a row index, chain
/// candidates a retraction compares, rows a delete relocates, and
/// key-column cells a join half scans. A batch against an indexed table
/// adds a small multiple of |Δ| here, whatever the table's size.
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

/// A signed multiset of rows over a named-column schema: `+n` inserts `n`
/// copies, `-n` retracts `n` copies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Schema of each row, in order.
    pub columns: Vec<String>,
    /// `(row, multiplicity)` pairs; positive inserts, negative retracts.
    pub rows: Vec<(Vec<Value>, i64)>,
}

/// Canonical serialization of a row, used as the multiset key in error
/// messages and tests: floats key by bit pattern (exact, not rounded),
/// strings are length-prefixed so a cell can never impersonate a
/// separator. Hot paths use [`row_hash`] + exact comparison instead.
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

/// Exact row equality with bitwise float semantics — the equality
/// [`row_hash`] / [`row_key`] induce (`NaN` equals itself, `-0.0` is
/// distinct from `0.0`), used wherever hash buckets are disambiguated.
pub fn rows_identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Int(i), Value::Int(j)) => i == j,
            (Value::Float(f), Value::Float(g)) => f.to_bits() == g.to_bits(),
            (Value::Str(s), Value::Str(t)) => s == t,
            _ => false,
        })
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

/// FNV-1a fingerprint of a row, consistent with [`row_key`] equality
/// (type-tagged, floats by bit pattern). Collisions are resolved by exact
/// comparison wherever the hash is used.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in row {
        h = match v {
            Value::Int(i) => fnv_cell(h, 0, *i as u64),
            Value::Float(f) => fnv_cell(h, 1, f.to_bits()),
            Value::Str(s) => fnv_str(h, s),
        };
    }
    h
}

/// Per-row fingerprints ([`row_hash`]) of a whole table, computed
/// column-major with no per-cell allocation.
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

/// [`row_hash`] of table row `r`, read straight from the columns.
pub(crate) fn table_row_hash(t: &Table, r: usize) -> u64 {
    (0..t.num_cols()).fold(FNV_OFFSET, |h, c| match t.column_at(c) {
        Column::Int(v) => fnv_cell(h, 0, v[r] as u64),
        Column::Float(v) => fnv_cell(h, 1, v[r].to_bits()),
        Column::Str(v) => fnv_str(h, &v[r]),
    })
}

/// Output column names of `ops::hash_join(left, _, right, right_key)`:
/// all left columns, then every non-key right column prefixed `right.`
/// until unique. Returns the names plus the kept right column indices.
pub fn joined_columns(
    left: &[String],
    right_cols: &[String],
    right_key: &str,
) -> (Vec<String>, Vec<usize>) {
    let mut names = left.to_vec();
    let kept = push_joined_columns(&mut names, right_cols, right_key);
    (names, kept)
}

/// [`joined_columns`] in place: appends the join's right-side output names
/// to the left side's `names` and returns the kept right column indices.
pub(crate) fn push_joined_columns(
    names: &mut Vec<String>,
    right_cols: &[String],
    right_key: &str,
) -> Vec<usize> {
    let mut kept = Vec::new();
    for (i, n) in right_cols.iter().enumerate() {
        if n == right_key {
            continue;
        }
        let mut out_name = n.clone();
        while names.contains(&out_name) {
            out_name = format!("right.{out_name}");
        }
        names.push(out_name);
        kept.push(i);
    }
    kept
}

/// The shared core of both join halves, driven from the delta side: every
/// `(delta_row, table_row)` pair whose key cells are equal, from
/// [`rowset::join_columns`] over the delta's key cells and the table's key
/// column. Pairs come back in delta order (table order within one delta
/// row), so a batch that arrived clustered leaves the join clustered. An
/// empty delta reads nothing.
fn matches(
    table: &Table,
    table_key: usize,
    delta: &Delta,
    delta_key: usize,
) -> Result<impl Iterator<Item = (usize, usize)>, IvmError> {
    let (mut ds, mut rs) = (Vec::new(), Vec::new());
    if !delta.rows.is_empty() {
        let keys = delta.column(delta_key)?;
        ROWS_EXAMINED.add(table.num_rows() as u64);
        (ds, rs) = rowset::join_columns(&keys, table.column_at(table_key));
    }
    Ok(ds.into_iter().zip(rs).map(|(d, r)| (d as usize, r as usize)))
}

impl Delta {
    /// Delta with the given schema and no rows.
    pub fn empty(columns: Vec<String>) -> Self {
        Delta { columns, rows: Vec::new() }
    }

    /// An all-insertions delta over `table`'s schema.
    pub fn inserts(table: &Table, rows: Vec<Vec<Value>>) -> Self {
        Delta {
            columns: table.column_names().to_vec(),
            rows: rows.into_iter().map(|r| (r, 1)).collect(),
        }
    }

    /// An all-retractions delta over `table`'s schema.
    pub fn deletes(table: &Table, rows: Vec<Vec<Value>>) -> Self {
        Delta {
            columns: table.column_names().to_vec(),
            rows: rows.into_iter().map(|r| (r, -1)).collect(),
        }
    }

    /// Whether every multiplicity nets to zero.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|(_, n)| *n == 0)
    }

    /// Net number of inserted (positive) and retracted (negative) copies.
    pub fn counts(&self) -> (i64, i64) {
        let mut ins = 0;
        let mut del = 0;
        for (_, n) in &self.rows {
            if *n > 0 {
                ins += n;
            } else {
                del -= n;
            }
        }
        (ins, del)
    }

    /// The inverse delta: applying `d` then `d.negated()` is the identity.
    pub fn negated(&self) -> Delta {
        Delta {
            columns: self.columns.clone(),
            rows: self.rows.iter().map(|(r, n)| (r.clone(), -n)).collect(),
        }
    }

    /// Column `i` as a typed column of the first row's cell type; a delta
    /// mixing cell types in one column matches no table schema.
    fn column(&self, i: usize) -> Result<Column, IvmError> {
        let mut cells = self.rows.iter().map(|(row, _)| &row[i]).peekable();
        let mut column = match cells.peek() {
            None | Some(Value::Int(_)) => Column::Int(Vec::new()),
            Some(Value::Float(_)) => Column::Float(Vec::new()),
            Some(Value::Str(_)) => Column::Str(Vec::new()),
        };
        match cells.find(|v| !column.push(v)) {
            None => Ok(column),
            Some(v) => Err(IvmError::SchemaMismatch {
                table: "<delta>".into(),
                detail: format!("column {} mixes cell types at {v}", self.columns[i]),
            }),
        }
    }

    fn col_index(&self, name: &str) -> Result<usize, IvmError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| IvmError::MissingColumn(name.to_owned()))
    }

    /// Δσ: keeps delta rows whose cell matches the integer constant through
    /// [`Value::as_i64`] — exactly the executable `SelectEq` predicate.
    pub fn select_eq(&self, column: &str, value: i64) -> Result<Delta, IvmError> {
        let i = self.col_index(column)?;
        Ok(Delta {
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .filter(|(r, _)| r[i].as_i64() == Some(value))
                .cloned()
                .collect(),
        })
    }

    /// Δσ on a string column: `Str` cells only, verbatim equality.
    pub fn select_str_eq(&self, column: &str, value: &str) -> Result<Delta, IvmError> {
        let i = self.col_index(column)?;
        Ok(Delta {
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .filter(|(r, _)| matches!(&r[i], Value::Str(s) if s == value))
                .cloned()
                .collect(),
        })
    }

    /// Δπ: projects every row to the named columns; multiplicities ride
    /// along unchanged (bag projection never deduplicates).
    pub fn project(&self, columns: &[String]) -> Result<Delta, IvmError> {
        let idx: Vec<usize> =
            columns.iter().map(|c| self.col_index(c)).collect::<Result<_, _>>()?;
        Ok(Delta {
            columns: columns.to_vec(),
            rows: self
                .rows
                .iter()
                .map(|(r, n)| (idx.iter().map(|&i| r[i].clone()).collect(), *n))
                .collect(),
        })
    }

    /// ΔL ⋈ R: joins every delta row against the (full) right table.
    /// Multiplicities multiply — table rows count 1 each, so each match
    /// inherits the delta row's signed count. An empty delta reads no row
    /// of `right`.
    pub fn join_right(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
    ) -> Result<Delta, IvmError> {
        let lk = self.col_index(left_key)?;
        let rk = right
            .column_index(right_key)
            .ok_or_else(|| IvmError::MissingColumn(right_key.to_owned()))?;
        let (columns, kept) = joined_columns(&self.columns, right.column_names(), right_key);
        let rows = matches(right, rk, self, lk)?
            .map(|(d, r)| {
                let (row, n) = &self.rows[d];
                let mut out = row.clone();
                out.extend(kept.iter().map(|&i| right.column_at(i).value(r)));
                (out, *n)
            })
            .collect();
        Ok(Delta { columns, rows })
    }

    /// L ⋈ ΔR: joins the (full, *pre-update*) left table against a delta of
    /// the right table. Output schema matches [`Delta::join_right`] — the
    /// two halves of Δ(L ⋈ R) concatenate by [`Delta::merge`]. An empty
    /// delta reads no row of `left`.
    pub fn join_left(
        left: &Table,
        right_delta: &Delta,
        left_key: &str,
        right_key: &str,
    ) -> Result<Delta, IvmError> {
        let lk = left
            .column_index(left_key)
            .ok_or_else(|| IvmError::MissingColumn(left_key.to_owned()))?;
        let rk = right_delta.col_index(right_key)?;
        let (columns, kept) =
            joined_columns(left.column_names(), &right_delta.columns, right_key);
        let rows = matches(left, lk, right_delta, rk)?
            .map(|(d, l)| {
                let (drow, n) = &right_delta.rows[d];
                let mut out = left.row(l);
                out.extend(kept.iter().map(|&i| drow[i].clone()));
                (out, *n)
            })
            .collect();
        Ok(Delta { columns, rows })
    }

    /// Concatenates another delta over the same schema.
    pub fn merge(&mut self, other: Delta) -> Result<(), IvmError> {
        if self.columns != other.columns {
            return Err(IvmError::SchemaMismatch {
                table: "<delta>".into(),
                detail: format!("merge of {:?} with {:?}", self.columns, other.columns),
            });
        }
        self.rows.extend(other.rows);
        Ok(())
    }
}

/// Applies a delta to a materialized table under counting semantics:
/// per-row net counts are computed first (so a retraction and a
/// re-insertion of the same row cancel), then negative nets retract
/// matching rows (erroring — before any mutation — if the table holds too
/// few copies) and positive nets append. Returns `(inserted, deleted)` row
/// counts.
///
/// Row order: insertions append, then each retracted row is replaced by
/// the table's then-last row — so surviving rows do **not** keep their
/// relative order after a delete, and a batch that both inserts and
/// retracts overwrites retracted rows with inserted ones.
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
    if delta.columns != table.column_names() {
        return Err(IvmError::SchemaMismatch {
            table: name.to_owned(),
            detail: format!(
                "delta columns {:?} vs table columns {:?}",
                delta.columns,
                table.column_names()
            ),
        });
    }
    // Net multiplicity per distinct row (first occurrence is the
    // representative): bucketed by row hash, disambiguated exactly.
    let mut net: Vec<(&Vec<Value>, u64, i64)> = Vec::new();
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    for (row, n) in &delta.rows {
        let hash = row_hash(row);
        let bucket = by_hash.entry(hash).or_default();
        match bucket.iter().find(|&&i| rows_identical(net[i].0, row)) {
            Some(&i) => net[i].2 += n,
            None => {
                bucket.push(net.len());
                net.push((row, hash, *n));
            }
        }
    }

    // Pre-validate insert types so the whole application is atomic.
    for (row, _, n) in &net {
        if *n > 0 {
            table.row_matches_schema(row).map_err(|detail| IvmError::SchemaMismatch {
                table: name.to_owned(),
                detail,
            })?;
        }
    }

    // Retractions, step one: locate |n| copies of each negative-net row
    // through the index — all of them before the first mutation, so an
    // underflow leaves the table untouched.
    let mut doomed: Vec<(u32, u64)> = Vec::new();
    if net.iter().any(|(_, _, n)| *n < 0) {
        let idx = index.get_or_insert_with(|| RowIndex::build(table));
        let mut examined = 0;
        for (row, hash, n) in &net {
            if *n < 0 {
                let want = usize::try_from(n.unsigned_abs()).unwrap_or(usize::MAX);
                let before = doomed.len();
                examined += idx.find(table, *hash, row, want, &mut doomed);
                let found = doomed.len() - before;
                if found < want {
                    return Err(IvmError::MissingRow {
                        table: name.to_owned(),
                        row: format!(
                            "{} ({} unmatched retractions)",
                            row_key(row),
                            n.unsigned_abs() - found as u64
                        ),
                    });
                }
            }
        }
        // Every delete also reads the row it relocates.
        ROWS_EXAMINED.add((examined + doomed.len()) as u64);
    }

    // Insertions: append n copies of each positive-net row. Appending
    // moves nothing, so the located positions stay valid.
    let mut inserted = 0usize;
    for (row, hash, n) in &net {
        for _ in 0..*n {
            table.push_row(row).map_err(|detail| IvmError::SchemaMismatch {
                table: name.to_owned(),
                detail,
            })?;
            if let Some(idx) = index.as_mut() {
                idx.push(table, *hash);
            }
            inserted += 1;
        }
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
    use crate::table::Column;

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

    #[test]
    fn select_delta_mirrors_executable_predicate() {
        let d = Delta::inserts(
            &users(),
            vec![vec![Value::Int(1), Value::Int(5)], vec![Value::Int(9), Value::Int(7)]],
        );
        let s = d.select_eq("id", 1).unwrap();
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.rows[0].0[1], Value::Int(5));
        // Missing column errors instead of silently passing everything.
        assert!(d.select_eq("nope", 1).is_err());
    }

    #[test]
    fn project_delta_keeps_multiplicities() {
        let mut d = Delta::inserts(&users(), vec![vec![Value::Int(1), Value::Int(5)]]);
        d.rows[0].1 = 3;
        let p = d.project(&["followers".into()]).unwrap();
        assert_eq!(p.columns, vec!["followers".to_string()]);
        assert_eq!(p.rows, vec![(vec![Value::Int(5)], 3)]);
    }

    #[test]
    fn join_right_multiplies_counts_and_prefixes_columns() {
        // Two new tweets by user 1; the join against users yields both with
        // the user's followers attached.
        let d = Delta::inserts(
            &tweets(),
            vec![vec![Value::Int(200), Value::Int(1)], vec![Value::Int(201), Value::Int(7)]],
        );
        let j = d.join_right(&users(), "uid", "id").unwrap();
        assert_eq!(
            j.columns,
            vec!["tid".to_string(), "uid".to_string(), "followers".to_string()]
        );
        // uid 7 has no match and drops out.
        assert_eq!(j.rows.len(), 1);
        assert_eq!(j.rows[0], (vec![Value::Int(200), Value::Int(1), Value::Int(10)], 1));
    }

    #[test]
    fn join_left_matches_all_probe_rows() {
        // A new user 1 arrives: both existing tweets by uid 1 join it.
        let d = Delta::deletes(&users(), vec![vec![Value::Int(1), Value::Int(10)]]);
        let j = Delta::join_left(&tweets(), &d, "uid", "id").unwrap();
        assert_eq!(j.rows.len(), 2);
        assert!(j.rows.iter().all(|(_, n)| *n == -1));
        assert_eq!(
            j.columns,
            vec!["tid".to_string(), "uid".to_string(), "followers".to_string()]
        );
    }

    #[test]
    fn join_halves_agree_with_full_hash_join() {
        // Δ(L ⋈ R) over an insert into L, checked against re-running
        // ops::hash_join from scratch.
        let mut t_new = tweets();
        t_new.push_row(&[Value::Int(300), Value::Int(2)]).unwrap();
        let d = Delta::inserts(&tweets(), vec![vec![Value::Int(300), Value::Int(2)]]);
        let dj = d.join_right(&users(), "uid", "id").unwrap();
        let mut joined = ops::hash_join(&tweets(), "uid", &users(), "id").unwrap();
        apply_delta(&mut joined, &dj, "joined").unwrap();
        let full = ops::hash_join(&t_new, "uid", &users(), "id").unwrap();
        assert_eq!(
            ops::sort_by_int(&joined, "tid").unwrap(),
            ops::sort_by_int(&full, "tid").unwrap()
        );
    }

    /// Both halves against `ops::hash_join` for every pairing of key types:
    /// duplicate keys on both sides, integral and fractional float keys,
    /// `NaN`, string keys (which join strings and never numbers), and a
    /// signed delta.
    #[test]
    fn join_halves_mirror_hash_join_on_float_and_duplicate_keys() {
        let strs = |v: &[&str]| Column::Str(v.iter().map(|s| (*s).to_owned()).collect());
        let left = Table::new(vec![
            ("k", Column::Float(vec![1.0, 1.0, 2.5, 3.0, f64::NAN])),
            ("a", Column::Int(vec![10, 11, 12, 13, 14])),
        ]);
        let right = Table::new(vec![
            ("k", Column::Int(vec![1, 3, 3, 9])),
            ("b", strs(&["p", "q", "r", "s"])),
        ]);
        let fractional = Table::new(vec![
            ("k", Column::Float(vec![2.5, f64::NAN, 1.0, 2.5])),
            ("b", Column::Int(vec![20, 21, 22, 23])),
        ]);
        let names = Table::new(vec![
            ("k", strs(&["1", "x", "", "x"])),
            ("c", Column::Int(vec![30, 31, 32, 33])),
        ]);
        let full =
            |l: &Table, r: &Table| table_fingerprint(&ops::hash_join(l, "k", r, "k").unwrap());
        let signed = |d: &Delta| {
            let mut keys: Vec<String> =
                d.rows.iter().map(|(r, n)| format!("{n:+} {}", row_key(r))).collect();
            keys.sort();
            keys
        };
        let plus = |fp: Vec<String>| -> Vec<String> {
            fp.into_iter().map(|k| format!("+1 {k}")).collect()
        };
        let all = |t: &Table| Delta::inserts(t, (0..t.num_rows()).map(|r| t.row(r)).collect());

        // ΔL ⋈ R for an all-insert ΔL is hash_join(ΔL as a table, R), and
        // L ⋈ ΔR likewise.
        let tables = [&left, &right, &fractional, &names];
        for l in tables {
            for r in tables {
                let want = plus(full(l, r));
                assert_eq!(signed(&all(l).join_right(r, "k", "k").unwrap()), want);
                assert_eq!(signed(&Delta::join_left(l, &all(r), "k", "k").unwrap()), want);
            }
        }
        // 2.5 = 2.5 twice, NaN = NaN, 1.0 = 1.0 twice; "x" = "x" both ways;
        // "1" is not 1.
        assert_eq!(full(&left, &fractional).len(), 5);
        assert_eq!(full(&names, &names).len(), 6);
        assert!(full(&names, &right).is_empty() && full(&right, &names).is_empty());

        // Matches come back in delta order, table order within a row.
        let got = all(&left).join_right(&right, "k", "k").unwrap();
        let a_col: Vec<_> = got.rows.iter().map(|(r, _)| r[1].clone()).collect();
        assert_eq!(a_col, [10, 11, 13, 13].map(Value::Int));

        // A retraction riding along: key 1 matches two left rows (+1 each),
        // key 3 one (-2 and +1).
        let mut dr = all(&right);
        dr.rows[1].1 = -2;
        let got = Delta::join_left(&left, &dr, "k", "k").unwrap();
        assert_eq!(got.rows.iter().map(|(_, n)| *n).sum::<i64>(), 1);

        // A delta no table could hold is refused, not guessed at.
        dr.rows[0].0[0] = Value::Str("1".into());
        assert!(matches!(dr.join_right(&left, "k", "k"), Err(IvmError::SchemaMismatch { .. })));
    }

    #[test]
    fn apply_delta_counts_retract_duplicates_exactly() {
        let mut t = Table::new(vec![("v", Column::Int(vec![7, 7, 7, 8]))]);
        // Retract two of the three 7s.
        let mut d = Delta::deletes(&t, vec![vec![Value::Int(7)]]);
        d.rows[0].1 = -2;
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
        let d = Delta {
            columns: vec!["v".into()],
            rows: vec![(vec![Value::Int(2)], 1), (vec![Value::Int(2)], -1)],
        };
        apply_delta(&mut t, &d, "t").unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn apply_delta_underflow_is_an_error_and_atomic() {
        let mut t = Table::new(vec![("v", Column::Int(vec![1, 2]))]);
        let mut d = Delta::deletes(&t, vec![vec![Value::Int(2)]]);
        d.rows[0].1 = -3; // only one copy present
        d.rows.push((vec![Value::Int(9)], 1));
        assert!(matches!(apply_delta(&mut t, &d, "t"), Err(IvmError::MissingRow { .. })));
        // Nothing was applied: the insert of 9 did not slip through.
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn negated_roundtrip_is_identity() {
        let orig = users();
        let mut t = users();
        let d = Delta {
            columns: t.column_names().to_vec(),
            rows: vec![
                (vec![Value::Int(4), Value::Int(40)], 2),
                (vec![Value::Int(1), Value::Int(10)], -1),
            ],
        };
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

    #[test]
    fn update_log_drains_in_order_and_skips_empty() {
        let mut log = UpdateLog::default();
        log.push("a", Delta::inserts(&users(), vec![vec![Value::Int(9), Value::Int(0)]]));
        log.push("b", Delta::empty(vec!["x".into()]));
        log.push("a", Delta::deletes(&users(), vec![vec![Value::Int(9), Value::Int(0)]]));
        assert_eq!(log.entries().len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].delta.counts(), (1, 0));
        assert_eq!(drained[1].delta.counts(), (0, 1));
        assert!(log.is_empty());
    }
}
