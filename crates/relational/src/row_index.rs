//! The two indexes a catalog entry ([`IndexedTable`]) owns beside its rows.
//!
//! **Row-multiset index** (`RowIndex`): finds the rows of a mutable table
//! by content, so a retraction costs O(1) expected hash work instead of a
//! whole-table scan. It is a chained hash table laid out in three `u32`
//! arrays — `heads` (bucket → first row position) and `next`/`prev` (row
//! position → chain neighbours) — at most 16 bytes per row, with no stored
//! hashes or keys: a chain candidate is confirmed by comparing the table row
//! itself, column by typed column (`rows_identical`: bitwise, so `NaN` is
//! itself and `-0.0` is not `0.0`). Duplicate rows simply share a chain.
//! Deleting row `p` unlinks it and moves the table's last row into `p`
//! (per-column swap-remove), patching that row's two neighbours; the doubly
//! linked chains make both steps O(1) however many duplicates a chain
//! holds. It is built lazily by the first retraction; a batch's insertions
//! are appended a column at a time and then linked in one pass (or the
//! index is rebuilt, once, when they outgrow its buckets).
//!
//! The index keys on the update path's own row hash (`row_hashes`): one
//! word per cell, folded in a typed pass per column — the same hash that
//! nets a delta's multiplicities before it is applied. It is not
//! [`crate::ivm::table_row_hashes`], the byte-wise FNV fingerprint whose
//! values are fixed because corpus hashes are built from them: that one
//! stays as it is, and off the update path.
//!
//! **Column indexes** (`ColumnIndex`): one equality index per column, so
//! that a selection or a join against a catalog table reads the rows it
//! returns instead of the whole column. Two `u32` arrays: bucket starts (at
//! most one bucket per two rows) and the row positions grouped by bucket,
//! ascending inside one — a lookup is one contiguous slice. No keys are
//! stored: the executor ([`crate::rowset`]) hashes a column's cells through
//! its key views and confirms each candidate against the column itself. A
//! column's index is built on its **second** equality lookup since the
//! table last changed (one atomic counter per column; racing readers share
//! one build through a `OnceLock`), so a one-shot scan never pays for one.
//! Nothing maintains it: [`IndexedTable::apply`] drops it with its counter.
//!
//! Ownership: both belong to whoever owns the table ([`IndexedTable`]: a
//! catalog entry, a maintainer's cached join input) and neither is cloned —
//! a clone of an [`IndexedTable`] carries the rows only, so read snapshots
//! stay as cheap as the tables, and each snapshot builds the column indexes
//! its readers ask for, once, shared by all of them.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::ivm::{apply_delta_indexed, Delta, IvmError, ROWS_EXAMINED};
use crate::table::{Column, Table};

pub(crate) const NIL: u32 = u32::MAX;
/// 2^64 / φ: multiplicative (Fibonacci) hashing takes the *top* bits of the
/// product, which depend on every bit of the hashed word.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
pub(crate) const MIN_BUCKETS: usize = 8;
/// The row hash's per-word multiplier (FxHash's): odd, with its set bits
/// spread over the whole word.
const MIX: u64 = 0x517C_C1B7_2722_0A95;

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MIX)
}

/// A string as one word: its length, then its bytes eight at a time.
fn str_word(s: &str) -> u64 {
    let mut chunks = s.as_bytes().chunks_exact(8);
    let mut h = s.len() as u64;
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// The update path's row hash of every row of `t`, one typed pass per
/// column: a row's cells folded one word each (an `Int` as itself, a
/// `Float` by bit pattern, a `Str` through [`str_word`]). Equal under
/// [`rows_identical`] means equal hash. No type tag is mixed in: the rows
/// it compares always share one schema.
pub(crate) fn row_hashes(t: &Table) -> Vec<u64> {
    let mut hashes = vec![0; t.num_rows()];
    for c in 0..t.num_cols() {
        let cells = hashes.iter_mut();
        match t.column_at(c) {
            Column::Int(v) => cells.zip(v).for_each(|(h, x)| *h = mix(*h, *x as u64)),
            Column::Float(v) => cells.zip(v).for_each(|(h, x)| *h = mix(*h, x.to_bits())),
            Column::Str(v) => cells.zip(v).for_each(|(h, x)| *h = mix(*h, str_word(x))),
        }
    }
    hashes
}

/// [`row_hashes`] of row `r` alone.
pub(crate) fn row_hash(t: &Table, r: usize) -> u64 {
    (0..t.num_cols()).fold(0, |h, c| match t.column_at(c) {
        Column::Int(v) => mix(h, v[r] as u64),
        Column::Float(v) => mix(h, v[r].to_bits()),
        Column::Str(v) => mix(h, str_word(&v[r])),
    })
}

/// Whether row `i` of `a` and row `j` of `b` (tables of one schema) are the
/// same row, cell for cell and bit for bit: `NaN` is itself, `-0.0` is not
/// `0.0` — the identity a multiset of rows counts by, which [`row_hashes`]
/// and [`crate::ivm::row_key`] induce too.
pub(crate) fn rows_identical(a: &Table, i: usize, b: &Table, j: usize) -> bool {
    (0..a.num_cols()).all(|c| match (a.column_at(c), b.column_at(c)) {
        (Column::Int(x), Column::Int(y)) => x[i] == y[j],
        (Column::Float(x), Column::Float(y)) => x[i].to_bits() == y[j].to_bits(),
        (Column::Str(x), Column::Str(y)) => x[i] == y[j],
        _ => false,
    })
}

/// Chained hash index over the rows of one table, keyed by [`row_hashes`].
/// Positions are `u32`; chains are doubly linked.
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
        for h in row_hashes(table) {
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

    /// Indexes the rows `table` just gained at its end, whose hashes are
    /// `hashes`, in one pass — or rebuilds the index, bucket array grown,
    /// when chains would average more than one row.
    pub(crate) fn extend(&mut self, table: &Table, hashes: impl ExactSizeIterator<Item = u64>) {
        debug_assert_eq!(self.next.len() + hashes.len(), table.num_rows());
        if table.num_rows() > self.heads.len() {
            *self = RowIndex::build(table);
        } else {
            hashes.for_each(|h| self.link(h));
        }
    }

    /// Appends to `out` the `(position, hash)` of up to `want` rows identical
    /// to row `row` of `of` (whose hash is `hash`); returns how many chain
    /// candidates were compared.
    pub(crate) fn find(
        &self,
        table: &Table,
        (of, row, hash): (&Table, usize, u64),
        want: usize,
        out: &mut Vec<(u32, u64)>,
    ) -> usize {
        let mut examined = 0;
        let stop = out.len().saturating_add(want);
        let mut pos = self.heads[self.bucket(hash)];
        while pos != NIL && out.len() < stop {
            examined += 1;
            if rows_identical(table, pos as usize, of, row) {
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
                let b = self.bucket(row_hash(table, last as usize));
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
        let hashes = row_hashes(table);
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

/// Equality index over one column: the column's row positions grouped by
/// the bucket their key word hashes to (Fibonacci hashing, as [`RowIndex`]),
/// ascending inside a bucket. The key words come from the caller; a bucket
/// holds every row whose word lands there, equal keys or not.
#[derive(Debug)]
pub(crate) struct ColumnIndex {
    /// Bucket `b` holds `rows[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// Row positions, grouped by bucket.
    rows: Vec<u32>,
    /// `64 - log2(starts.len() - 1)`.
    shift: u32,
}

impl ColumnIndex {
    /// Indexes rows `0..n`, row `r` under the key word `word(r)`.
    pub(crate) fn build(n: usize, word: impl Fn(usize) -> u64) -> Self {
        // Rows are addressed by `u32` positions, as in `RowIndex`.
        position(n);
        // At most one bucket per two rows: the index stays under 6 bytes a
        // row, and a distinct key still shares its bucket with ~2 others.
        let buckets = 1usize << (usize::BITS - 1 - (n / 2).max(1).leading_zeros());
        let mut index = ColumnIndex {
            starts: vec![0; buckets + 1],
            rows: vec![0; n],
            shift: 64 - buckets.trailing_zeros(),
        };
        let of: Vec<u32> = (0..n).map(|r| index.bucket(word(r)) as u32).collect();
        // Counting sort: `starts[b]` first counts bucket `b`, then marks its
        // end, then — filled back to front — its start.
        for &b in &of {
            index.starts[b as usize] += 1;
        }
        let mut end = 0;
        for s in &mut index.starts[..buckets] {
            end += *s;
            *s = end;
        }
        index.starts[buckets] = end;
        for (r, &b) in of.iter().enumerate().rev() {
            let at = &mut index.starts[b as usize];
            *at -= 1;
            index.rows[*at as usize] = r as u32;
        }
        index
    }

    fn bucket(&self, word: u64) -> usize {
        // One bucket is a shift by 64: every word lands in it.
        word.wrapping_mul(GOLDEN).checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// The rows whose key word shares `word`'s bucket, ascending: every row
    /// whose key is the one `word` came from, and maybe others.
    pub(crate) fn lookup(&self, word: u64) -> &[u32] {
        let b = self.bucket(word);
        &self.rows[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

/// One column's index slot in an [`IndexedTable`].
#[derive(Debug, Default)]
struct ColumnSlot {
    /// Equality lookups of the column since the table last changed.
    lookups: AtomicU32,
    index: OnceLock<ColumnIndex>,
}

/// A table together with the two indexes of the [module docs](self): the
/// unit of ownership for a catalog entry and for anything the update path
/// retracts from. The table is only ever mutated through
/// [`IndexedTable::apply`], which keeps the row index (once a retraction
/// has built it) in sync and drops every column index.
///
/// `Clone` copies the rows and **neither** index — clones are read
/// snapshots or scratch copies, and build indexes of their own when they
/// are retracted from or looked up in.
#[derive(Debug)]
pub struct IndexedTable {
    table: Table,
    index: Option<RowIndex>,
    columns: Box<[ColumnSlot]>,
}

impl Clone for IndexedTable {
    fn clone(&self) -> Self {
        IndexedTable::new(self.table.clone())
    }
}

impl IndexedTable {
    /// Wraps a table; no index is built until it is asked for.
    pub fn new(table: Table) -> Self {
        let columns = (0..table.num_cols()).map(|_| ColumnSlot::default()).collect();
        IndexedTable { table, index: None, columns }
    }

    /// Column `c`'s equality index for one equality lookup: `None` on the
    /// column's first lookup since the table last changed, built by `build`
    /// on its second (once, however many threads ask), the same index after.
    pub(crate) fn column_index(
        &self,
        c: usize,
        build: impl FnOnce() -> ColumnIndex,
    ) -> Option<&ColumnIndex> {
        let slot = &self.columns[c];
        if let Some(index) = slot.index.get() {
            return Some(index);
        }
        // Relaxed: the count publishes nothing; the `OnceLock` publishes the
        // index.
        if slot.lookups.fetch_add(1, Ordering::Relaxed) == 0 {
            return None;
        }
        Some(slot.index.get_or_init(build))
    }

    /// The rows.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Unwraps the rows, dropping the index.
    pub(crate) fn into_table(self) -> Table {
        self.table
    }

    /// [`crate::ivm::apply_delta`] through this table's row index: a batch
    /// costs hash work proportional to the delta, not to the table. If it
    /// changed a row, every column index goes, with its lookup count.
    pub fn apply(&mut self, delta: &Delta, name: &str) -> Result<(usize, usize), IvmError> {
        let applied = apply_delta_indexed(&mut self.table, &mut self.index, delta, name)?;
        if applied != (0, 0) {
            self.columns.iter_mut().for_each(|slot| *slot = ColumnSlot::default());
        }
        Ok(applied)
    }

    /// Whether a retraction has built the row index yet.
    #[cfg(test)]
    pub(crate) fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// How many columns carry a built equality index.
    #[cfg(test)]
    pub(crate) fn column_indexes(&self) -> usize {
        self.columns.iter().filter(|s| s.index.get().is_some()).count()
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
    use crate::table::Value;

    /// Column types of the model test's schemas: 'i', 'f' or 's' per column.
    const SCHEMAS: [&str; 4] = ["i", "ifs", "s", "ff"];
    const P53: i64 = 1 << 53;

    /// A cell from a domain small enough that duplicate rows, cancelling
    /// pairs and shared hash chains are the common case — with both zeros
    /// (distinct rows), `NaN` (one row), and integers around 2⁵³ that a
    /// float would round together.
    fn cell(rng: &mut Rng64, ty: char) -> Value {
        match ty {
            'i' => Value::Int([0, 1, P53 - 1, P53, P53 + 1][rng.range_usize(5)]),
            'f' => Value::Float([0.0, -0.0, f64::NAN, 1.5, P53 as f64][rng.range_usize(5)]),
            _ => Value::Str(["", "a", "ab", "abcdefghi"][rng.range_usize(4)].to_owned()),
        }
    }

    fn row(rng: &mut Rng64, schema: &str) -> Vec<Value> {
        schema.chars().map(|ty| cell(rng, ty)).collect()
    }

    fn table_of(schema: &str, rows: &[Vec<Value>]) -> Table {
        let names: Vec<String> = (0..schema.len()).map(|c| format!("c{c}")).collect();
        let columns = schema.chars().enumerate().map(|(c, ty)| {
            let empty = match ty {
                'i' => Column::Int(Vec::new()),
                'f' => Column::Float(Vec::new()),
                _ => Column::Str(Vec::new()),
            };
            (names[c].as_str(), empty)
        });
        Table::from_rows(&Table::new(columns.collect()), rows.to_vec()).unwrap()
    }

    /// A delta of `(row, multiplicity)` pairs over `schema`.
    fn delta_of(schema: &Table, pairs: &[(Vec<Value>, i64)]) -> Delta {
        let mut d =
            Delta::inserts(schema, pairs.iter().map(|p| p.0.clone()).collect()).unwrap();
        d.mult = pairs.iter().map(|p| p.1).collect();
        d
    }

    /// The naive reference: a `Vec` multiset. Nets the pairs per distinct
    /// row, refuses (changing nothing) if any row would go negative, then
    /// removes and appends copies one at a time.
    fn model_apply(model: &mut Vec<Vec<Value>>, pairs: &[(Vec<Value>, i64)]) -> bool {
        let mut net: HashMap<String, (Vec<Value>, i64)> = HashMap::new();
        for (r, n) in pairs {
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
    /// underflowing deletes and `register`-replace, over Int (around 2⁵³) /
    /// Float (with `NaN`, `0.0` and `-0.0` as distinct rows) / Str columns.
    /// After every step the indexed table must be the same multiset as the
    /// naive model, errors must have changed nothing, and the index
    /// invariant must hold.
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
                match rng.range_usize(8) {
                    0..=2 => {
                        let rows: Vec<_> = (0..1 + rng.range_usize(6))
                            .map(|_| row(&mut rng, schema))
                            .collect();
                        let pairs: Vec<_> = rows.iter().cloned().map(|r| (r, 1)).collect();
                        assert!(model_apply(&mut model, &pairs));
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
                        let pairs: Vec<_> = rows.iter().cloned().map(|r| (r, -1)).collect();
                        assert!(model_apply(&mut model, &pairs));
                        assert_eq!(cat.delete_rows("t", rows), Ok(k), "{ctx}");
                    }
                    5 => {
                        // Signed delta: random multiplicities, a cancelling
                        // pair, a repeated row. May underflow.
                        let mut pairs: Vec<(Vec<Value>, i64)> = (0..1 + rng.range_usize(4))
                            .map(|_| (row(&mut rng, schema), rng.range_i64(-2, 2)))
                            .collect();
                        let pair = row(&mut rng, schema);
                        pairs.push((pair.clone(), 1));
                        pairs.push((pair, -1));
                        pairs.push(pairs[0].clone());
                        let delta = delta_of(cat.get("t").unwrap(), &pairs);
                        let before = cat.epoch();
                        let ok = model_apply(&mut model, &pairs);
                        let got = cat.apply_unlogged("t", &delta);
                        assert_eq!(got.is_ok(), ok, "{ctx}: {got:?}");
                        // Only a change moves the epoch.
                        let changed = got.is_ok_and(|applied| applied != (0, 0));
                        assert_eq!(cat.epoch() > before, changed, "{ctx}");
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
        let signed = |t: &IndexedTable, rows: std::ops::Range<i64>, n: i64| {
            let pairs: Vec<_> = rows.map(|i| (vec![Value::Int(i % 7)], n)).collect();
            delta_of(t.table(), &pairs)
        };
        t.apply(&signed(&t, 0..1, -1), "t").unwrap();
        assert!(t.has_index() && t.table().num_rows() == 0);
        for round in 0..3 {
            // 40 rows over 7 distinct values: outgrows 8 buckets in one batch.
            t.apply(&signed(&t, 0..40, 1), "t").unwrap();
            t.check_index().unwrap();
            assert_eq!(t.table().num_rows(), 40, "round {round}");
            // One row at a time from 40 to 70: links, then one rebuild at 65.
            for i in 40..70 {
                t.apply(&signed(&t, i..i + 1, 1), "t").unwrap();
                t.check_index().unwrap();
            }
            t.apply(&signed(&t, 0..70, -1), "t").unwrap();
            t.check_index().unwrap();
            assert_eq!(t.table().num_rows(), 0, "round {round}");
        }
    }

    #[test]
    fn clone_carries_rows_but_no_index() {
        let mut t =
            IndexedTable::new(table_of("i", &[vec![Value::Int(1)], vec![Value::Int(2)]]));
        let d = Delta::deletes(t.table(), vec![vec![Value::Int(1)]]).unwrap();
        t.apply(&d, "t").unwrap();
        assert!(t.has_index());
        let copy = t.clone();
        assert!(!copy.has_index());
        assert_eq!(copy.table(), t.table());
    }

    /// The row hash sees every cell: rows that differ in one cell, in a
    /// zero's sign, or in where a string's bytes split, hash apart; equal
    /// rows hash together, one row or a whole table at a time.
    #[test]
    fn row_hashes_follow_bitwise_identity() {
        let t = Table::new(vec![
            ("f", Column::Float(vec![0.0, -0.0, f64::NAN, f64::NAN, 0.0])),
            (
                "s",
                Column::Str(
                    ["ab", "ab", "abcdefghij", "abcdefghij", "a"].map(String::from).to_vec(),
                ),
            ),
        ]);
        let h = row_hashes(&t);
        assert_eq!(h, (0..5).map(|r| row_hash(&t, r)).collect::<Vec<_>>());
        assert_eq!(h[2], h[3]);
        assert!(rows_identical(&t, 2, &t, 3));
        assert!(!rows_identical(&t, 0, &t, 1));
        assert!(h[0] != h[1] && h[0] != h[4] && h[1] != h[2]);
        assert_ne!(str_word("ab"), str_word("ab\0"));
        assert_ne!(str_word("abcdefgh"), str_word("abcdefghi"));
    }
}
