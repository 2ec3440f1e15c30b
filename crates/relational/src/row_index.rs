//! Row-multiset index: finds the rows of a mutable table by content, so a
//! retraction costs O(1) expected hash work instead of a whole-table scan.
//!
//! The index is a chained hash table laid out in three `u32` arrays —
//! `heads` (bucket → first row position) and `next`/`prev` (row position →
//! chain neighbours) — at most 16 bytes per row, with no stored hashes or
//! keys: a chain candidate is confirmed by comparing the table row itself.
//! Duplicate rows simply share a chain. Deleting row `p` unlinks it and
//! moves the table's last row into `p` (per-column swap-remove), patching
//! that row's two neighbours; the doubly linked chains make both steps O(1)
//! however many duplicates a chain holds.
//!
//! Ownership: an index belongs to whoever owns the *mutable* table
//! ([`IndexedTable`]: a catalog entry, a maintainer's cached join input).
//! It is built lazily by the first retraction, kept in sync by every later
//! insert and delete, and never cloned — a clone of an [`IndexedTable`]
//! carries the rows only, so read snapshots stay as cheap as the tables.

use crate::ivm::{
    apply_delta_indexed, table_row_hash, table_row_hashes, Delta, IvmError, ROWS_EXAMINED,
};
use crate::table::{Table, Value};

pub(crate) const NIL: u32 = u32::MAX;
/// 2^64 / φ: multiplicative (Fibonacci) hashing takes the *top* bits of the
/// product, which depend on every bit of the hashed word.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
pub(crate) const MIN_BUCKETS: usize = 8;

/// Chained hash index over the rows of one table, keyed by
/// [`crate::ivm::row_hash`]. Positions are `u32`; chains are doubly linked.
#[derive(Debug)]
pub(crate) struct RowIndex {
    /// Bucket → position of the first row in its chain, or `NIL`.
    heads: Vec<u32>,
    /// Row position → next position in the same chain, or `NIL`.
    next: Vec<u32>,
    /// Row position → previous position in the same chain; `NIL` at a head.
    prev: Vec<u32>,
    /// `64 - log2(heads.len())`.
    shift: u32,
}

pub(crate) fn position(r: usize) -> u32 {
    match u32::try_from(r) {
        Ok(p) if p != NIL => p,
        _ => panic!("row positions are u32: tables stay below 2^32 - 1 rows, got {r}"),
    }
}

impl RowIndex {
    /// Indexes every row of `table` (one column-major hashing pass).
    pub(crate) fn build(table: &Table) -> Self {
        let rows = table.num_rows();
        ROWS_EXAMINED.add(rows as u64);
        let buckets = rows.max(MIN_BUCKETS).next_power_of_two();
        let mut index = RowIndex {
            heads: vec![NIL; buckets],
            next: Vec::with_capacity(rows),
            prev: Vec::with_capacity(rows),
            shift: 64 - buckets.trailing_zeros(),
        };
        for h in table_row_hashes(table) {
            index.link(h);
        }
        index
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash.wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    /// Links the next unindexed position (`next.len()`) at the head of its
    /// chain.
    fn link(&mut self, hash: u64) {
        let pos = position(self.next.len());
        let b = self.bucket(hash);
        let old = self.heads[b];
        if old != NIL {
            self.prev[old as usize] = pos;
        }
        self.next.push(old);
        self.prev.push(NIL);
        self.heads[b] = pos;
    }

    /// Indexes the row `table` just gained through `push_row` (its last),
    /// whose hash is `hash`. Doubles the bucket array when chains would
    /// average more than one row.
    pub(crate) fn push(&mut self, table: &Table, hash: u64) {
        debug_assert_eq!(self.next.len() + 1, table.num_rows());
        if self.next.len() >= self.heads.len() {
            *self = RowIndex::build(table);
        } else {
            self.link(hash);
        }
    }

    /// Appends to `out` the `(position, hash)` of up to `want` rows identical
    /// to `row` (whose hash is `hash`); returns how many chain candidates
    /// were compared.
    pub(crate) fn find(
        &self,
        table: &Table,
        hash: u64,
        row: &[Value],
        want: usize,
        out: &mut Vec<(u32, u64)>,
    ) -> usize {
        let mut examined = 0;
        let stop = out.len().saturating_add(want);
        let mut pos = self.heads[self.bucket(hash)];
        while pos != NIL && out.len() < stop {
            examined += 1;
            if table.row_eq(pos as usize, row) {
                out.push((pos, hash));
            }
            pos = self.next[pos as usize];
        }
        examined
    }

    /// Deletes the row at `pos` (whose hash is `hash`) from the table and
    /// the index: the table's last row moves into `pos`, every other row
    /// keeps its position.
    pub(crate) fn remove(&mut self, table: &mut Table, pos: u32, hash: u64) {
        let (p, n) = (self.prev[pos as usize], self.next[pos as usize]);
        if p == NIL {
            let b = self.bucket(hash);
            self.heads[b] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        let last = position(table.num_rows() - 1);
        if pos != last {
            // The last row takes over `pos`: re-point its neighbours.
            let (p, n) = (self.prev[last as usize], self.next[last as usize]);
            if p == NIL {
                let b = self.bucket(table_row_hash(table, last as usize));
                self.heads[b] = pos;
            } else {
                self.next[p as usize] = pos;
            }
            if n != NIL {
                self.prev[n as usize] = pos;
            }
            self.prev[pos as usize] = p;
            self.next[pos as usize] = n;
        }
        self.next.pop();
        self.prev.pop();
        table.swap_remove_row(pos as usize);
    }

    /// Verifies the index against its table: every live row is reachable
    /// exactly once, from the bucket its hash selects, through consistent
    /// `next`/`prev` links, and no link points past the table.
    pub(crate) fn check(&self, table: &Table) -> Result<(), String> {
        let rows = table.num_rows();
        if self.next.len() != rows || self.prev.len() != rows {
            return Err(format!(
                "index covers {}/{} positions, table has {rows} rows",
                self.next.len(),
                self.prev.len()
            ));
        }
        if !self.heads.len().is_power_of_two()
            || self.shift != 64 - self.heads.len().trailing_zeros()
        {
            return Err(format!("{} buckets with shift {}", self.heads.len(), self.shift));
        }
        let hashes = table_row_hashes(table);
        let mut seen = vec![false; rows];
        for (b, &head) in self.heads.iter().enumerate() {
            let (mut before, mut pos) = (NIL, head);
            while pos != NIL {
                let r = pos as usize;
                if r >= rows {
                    return Err(format!("bucket {b} holds dangling position {pos}"));
                }
                if std::mem::replace(&mut seen[r], true) {
                    return Err(format!("row {pos} is reachable more than once"));
                }
                if self.bucket(hashes[r]) != b {
                    return Err(format!("row {pos} is chained in bucket {b}, not its own"));
                }
                if self.prev[r] != before {
                    return Err(format!(
                        "row {pos} has prev {}, chain says {before}",
                        self.prev[r]
                    ));
                }
                before = pos;
                pos = self.next[r];
            }
        }
        match seen.iter().position(|s| !s) {
            Some(r) => Err(format!("row {r} is not reachable through the index")),
            None => Ok(()),
        }
    }
}

/// A mutable table together with its lazily built row-multiset index: the
/// unit of ownership for anything the update path retracts from. The table
/// is only ever mutated through [`IndexedTable::apply`], which is what
/// keeps the index (once a retraction has built it) in sync.
///
/// `Clone` copies the rows and **not** the index — clones are read
/// snapshots or scratch copies, and rebuild an index of their own if they
/// are ever retracted from.
#[derive(Debug)]
pub struct IndexedTable {
    table: Table,
    index: Option<RowIndex>,
}

impl Clone for IndexedTable {
    fn clone(&self) -> Self {
        IndexedTable::new(self.table.clone())
    }
}

impl IndexedTable {
    /// Wraps a table; no index is built until the first retraction.
    pub fn new(table: Table) -> Self {
        IndexedTable { table, index: None }
    }

    /// The rows.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Unwraps the rows, dropping the index.
    pub(crate) fn into_table(self) -> Table {
        self.table
    }

    /// [`crate::ivm::apply_delta`] through this table's index: a batch
    /// costs hash work proportional to the delta, not to the table.
    pub fn apply(&mut self, delta: &Delta, name: &str) -> Result<(usize, usize), IvmError> {
        apply_delta_indexed(&mut self.table, &mut self.index, delta, name)
    }

    /// Whether a retraction has built the index yet.
    #[cfg(test)]
    pub(crate) fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Checks the index invariant (every live row reachable exactly once,
    /// no dangling position); trivially `Ok` while no index is built.
    pub fn check_index(&self) -> Result<(), String> {
        self.index.as_ref().map_or(Ok(()), |i| i.check(&self.table))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use hadad_linalg::rng::Rng64;

    use super::*;
    use crate::catalog::Catalog;
    use crate::ivm::{row_key, table_fingerprint};
    use crate::table::Column;

    /// Column types of the model test's schemas: 'i', 'f' or 's' per column.
    const SCHEMAS: [&str; 4] = ["i", "ifs", "s", "ff"];

    /// A cell from a domain small enough that duplicate rows, cancelling
    /// pairs and shared hash chains are the common case.
    fn cell(rng: &mut Rng64, ty: char) -> Value {
        match ty {
            'i' => Value::Int(rng.range_i64(0, 3)),
            'f' => Value::Float([0.0, -0.0, f64::NAN, 1.5][rng.range_usize(4)]),
            _ => Value::Str(["", "a", "ab"][rng.range_usize(3)].to_owned()),
        }
    }

    fn row(rng: &mut Rng64, schema: &str) -> Vec<Value> {
        schema.chars().map(|ty| cell(rng, ty)).collect()
    }

    fn table_of(schema: &str, rows: &[Vec<Value>]) -> Table {
        let names: Vec<String> = (0..schema.len()).map(|c| format!("c{c}")).collect();
        let columns = schema.chars().enumerate().map(|(c, ty)| {
            let cells = rows.iter().map(|r| &r[c]);
            let column = match ty {
                'i' => Column::Int(cells.map(|v| v.as_i64().unwrap()).collect()),
                'f' => Column::Float(cells.map(|v| v.as_f64().unwrap()).collect()),
                _ => Column::Str(cells.map(ToString::to_string).collect()),
            };
            (names[c].as_str(), column)
        });
        Table::new(columns.collect())
    }

    /// The naive reference: a `Vec` multiset. Nets the delta per distinct
    /// row, refuses (changing nothing) if any row would go negative, then
    /// removes and appends copies one at a time.
    fn model_apply(model: &mut Vec<Vec<Value>>, delta: &Delta) -> bool {
        let mut net: HashMap<String, (Vec<Value>, i64)> = HashMap::new();
        for (r, n) in &delta.rows {
            net.entry(row_key(r)).or_insert_with(|| (r.clone(), 0)).1 += n;
        }
        let held = |model: &[Vec<Value>], k: &str| {
            model.iter().filter(|r| row_key(r) == k).count() as i64
        };
        if net.iter().any(|(k, (_, n))| held(model, k) + n < 0) {
            return false;
        }
        for (k, (r, n)) in net {
            for _ in 0..-n {
                let at = model.iter().position(|m| row_key(m) == k).unwrap();
                model.remove(at);
            }
            for _ in 0..n {
                model.push(r.clone());
            }
        }
        true
    }

    fn assert_agrees(cat: &Catalog, model: &[Vec<Value>], ctx: &str) {
        cat.check_indexes().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let mut expected: Vec<String> = model.iter().map(|r| row_key(r)).collect();
        expected.sort();
        assert_eq!(table_fingerprint(cat.get("t").unwrap()), expected, "{ctx}");
    }

    /// Model-based property test: random interleavings of inserts, deletes
    /// of held rows, signed deltas with cancelling pairs and duplicates,
    /// underflowing deletes and `register`-replace, over Int / Float (with
    /// `NaN` and `-0.0`) / Str columns. After every step the indexed table
    /// must be the same multiset as the naive model, errors must have
    /// changed nothing, and the index invariant must hold.
    #[test]
    fn model_random_interleavings_match_a_naive_multiset() {
        for seed in 0..16u64 {
            let mut rng = Rng64::new(0x1D3A + seed);
            let schema = SCHEMAS[seed as usize % SCHEMAS.len()];
            let mut model: Vec<Vec<Value>> = (0..5).map(|_| row(&mut rng, schema)).collect();
            let mut cat = Catalog::new();
            cat.register("t", table_of(schema, &model));
            for step in 0..60 {
                let ctx = format!("seed {seed} step {step}");
                let columns = cat.get("t").unwrap().column_names().to_vec();
                match rng.range_usize(8) {
                    0..=2 => {
                        let rows: Vec<_> = (0..1 + rng.range_usize(6))
                            .map(|_| row(&mut rng, schema))
                            .collect();
                        let delta = Delta {
                            columns,
                            rows: rows.iter().cloned().map(|r| (r, 1)).collect(),
                        };
                        assert!(model_apply(&mut model, &delta));
                        assert_eq!(cat.insert_rows("t", rows.clone()), Ok(rows.len()), "{ctx}");
                    }
                    3 | 4 if !model.is_empty() => {
                        // Held rows, sampled without replacement: duplicates
                        // in the batch are duplicates in the table.
                        let mut pool = model.clone();
                        let k = (1 + rng.range_usize(4)).min(pool.len());
                        let rows: Vec<_> = (0..k)
                            .map(|_| pool.swap_remove(rng.range_usize(pool.len())))
                            .collect();
                        let delta = Delta {
                            columns,
                            rows: rows.iter().cloned().map(|r| (r, -1)).collect(),
                        };
                        assert!(model_apply(&mut model, &delta));
                        assert_eq!(cat.delete_rows("t", rows), Ok(k), "{ctx}");
                    }
                    5 => {
                        // Signed delta: random multiplicities, a cancelling
                        // pair, a repeated row. May underflow.
                        let mut rows: Vec<(Vec<Value>, i64)> = (0..1 + rng.range_usize(4))
                            .map(|_| (row(&mut rng, schema), rng.range_i64(-2, 2)))
                            .collect();
                        let pair = row(&mut rng, schema);
                        rows.push((pair.clone(), 1));
                        rows.push((pair, -1));
                        rows.push(rows[0].clone());
                        let delta = Delta { columns, rows };
                        let before = cat.epoch();
                        let ok = model_apply(&mut model, &delta);
                        let got = cat.apply_unlogged("t", &delta);
                        assert_eq!(got.is_ok(), ok, "{ctx}: {got:?}");
                        assert_eq!(cat.epoch() > before, ok, "{ctx}");
                    }
                    6 => {
                        // One more copy than the table holds: a hard error
                        // that must leave every row in place.
                        let r = row(&mut rng, schema);
                        let held = model.iter().filter(|m| row_key(m) == row_key(&r)).count();
                        let got = cat.delete_rows("t", vec![r; held + 1]);
                        assert!(
                            matches!(got, Err(IvmError::MissingRow { .. })),
                            "{ctx}: {got:?}"
                        );
                    }
                    _ => {
                        model =
                            (0..rng.range_usize(12)).map(|_| row(&mut rng, schema)).collect();
                        cat.register("t", table_of(schema, &model));
                    }
                }
                assert_agrees(&cat, &model, &ctx);
            }
        }
    }

    /// Growth past the bucket array rebuilds the index in place; shrinking
    /// back to empty and refilling keeps every chain consistent.
    #[test]
    fn index_survives_growth_and_draining() {
        let mut t = IndexedTable::new(table_of("i", &[vec![Value::Int(0)]]));
        let columns = t.table().column_names().to_vec();
        let signed = |rows: std::ops::Range<i64>, n: i64| Delta {
            columns: columns.clone(),
            rows: rows.map(|i| (vec![Value::Int(i % 7)], n)).collect(),
        };
        t.apply(&signed(0..1, -1), "t").unwrap();
        assert!(t.has_index() && t.table().num_rows() == 0);
        for round in 0..3 {
            // 40 rows over 7 distinct values: five rebuilds from 8 buckets.
            t.apply(&signed(0..40, 1), "t").unwrap();
            t.check_index().unwrap();
            assert_eq!(t.table().num_rows(), 40, "round {round}");
            t.apply(&signed(0..40, -1), "t").unwrap();
            t.check_index().unwrap();
            assert_eq!(t.table().num_rows(), 0, "round {round}");
        }
    }

    #[test]
    fn clone_carries_rows_but_no_index() {
        let mut t =
            IndexedTable::new(table_of("i", &[vec![Value::Int(1)], vec![Value::Int(2)]]));
        let d = Delta::deletes(t.table(), vec![vec![Value::Int(1)]]);
        t.apply(&d, "t").unwrap();
        assert!(t.has_index());
        let copy = t.clone();
        assert!(!copy.has_index());
        assert_eq!(copy.table(), t.table());
    }
}
