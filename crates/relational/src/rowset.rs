//! The relational executor: typed passes over row ids, one gather at the
//! end.
//!
//! A relation under construction ([`RowSet`]) is a list of *borrowed*
//! source tables, one `u32` selection vector per source (position `i` of
//! every vector names the source row that output row `i` reads; a bare
//! scan's "all rows" is represented, not allocated) and the output columns
//! as `(name, source, column position)`. A source scanned from a catalog
//! ([`crate::Catalog::scan`]) also borrows its entry's column indexes (see
//! [`crate::row_index`]), which serve equality lookups while the source is
//! still a bare scan. Operators only rewrite selection vectors:
//!
//! * a filter is one pass over a column slice, typed outside the loop — or,
//!   for a same-typed constant on a bare catalog scan whose column index is
//!   built (on the column's second lookup), a read of the constant's bucket;
//! * an equi-join is one chained hash index in flat `u32` arrays (the
//!   `heads`/`next` + Fibonacci-hash layout of [`crate::row_index`]: no
//!   `Vec` per key, no `String` keys, no SipHash) built over the *smaller*
//!   side and probed with one typed pass over the other side's key column;
//!   a chain candidate is confirmed against the key column itself. When one
//!   side is a bare catalog scan with a built index on a key of the other
//!   side's type, and the other side's keys select at most a quarter of its
//!   rows (the sum of their buckets), the join is an index-nested loop
//!   instead: one lookup per key of the other side, nothing built;
//! * a projection reorders the output-column list;
//! * a sort reorders the selection vectors by a cached typed key;
//! * a filter that keeps every row, or a sort of rows already in key
//!   order, rewrites nothing: a bare scan's "all rows" stays unallocated
//!   (though, as after any filter, its column indexes no longer serve it);
//! * [`RowSet::gather`] copies each *output* column once — the only place
//!   a cell is copied or a `String` cloned.
//!
//! **Order contract.** Filters keep row order; a join emits its matches in
//! left order, right rows ascending within one left row, whichever side
//! the index was built over — row for row what a nested loop over
//! (left, right) would emit. An index-nested loop with the index on the
//! right emits in that order as it probes; with the index on the left it
//! restores left order over the matches only (a sort of packed
//! `(left, right)` pairs), never in time proportional to the indexed side.
//!
//! **Equality.** There is one answer to "do these two cells join", used by
//! [`RowSet::join`], [`RowSet::filter_eq`], [`RowSet::filter`] and the IVM
//! join halves (`join_columns`) alike — the `KeyCol` views `with_keys!`
//! picks per column-type pair — and it is an equivalence relation:
//!
//! * `Int` × `Int`: the same `i64` (exact: 2⁵³ and 2⁵³ + 1 stay distinct);
//! * `Int` × `Float`: the float is integral, in `i64` range, and is that
//!   integer (`Value::as_i64`), so `7` = `7.0` and `2` ≠ `2.5`; the integer
//!   is never widened, so 2⁵³ + 1 does not equal the float 2⁵³ it would
//!   round to;
//! * `Float` × `Float`: the same number, with one zero (`-0.0` = `0.0`) and
//!   a `NaN` that equals itself;
//! * `Str` × `Str`: the same bytes; a string never equals a number, so `"7"`
//!   ≠ `7`.
//!
//! Equal cells need not be identical: `Int 7` and `Float 7.0`, or `-0.0`
//! and `0.0`, are one key with two representatives. A join's output carries
//! the representative of whichever column the output reads (the left key of
//! a `HashJoin` stage, the column that first bound a CQ variable), so two
//! equivalent plans return the same bag *up to representative*.

use crate::row_index::{position, ColumnIndex, IndexedTable, GOLDEN, MIN_BUCKETS, NIL};
use crate::table::{float_key, same_type, stable_hash, Column, Table, Value};

/// Rows every filter and probe pass reads: a whole pass over the rows it
/// filters or probes with, or, through a column index, the rows of the
/// buckets it looks up (plus, for a join, the keys it looks up with).
static ROWS_IN: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("relexec.rows_in");
/// Column indexes built (see [`crate::row_index`]).
static INDEX_BUILDS: hadad_obs::LazyCounter =
    hadad_obs::LazyCounter::new("relexec.index_builds");
/// Rows of every gathered result.
static ROWS_OUT: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("relexec.rows_out");
/// Cells copied out of source tables — `rows_out × output columns` of each
/// gather and nothing else, since no intermediate is materialized.
static CELLS_GATHERED: hadad_obs::LazyCounter =
    hadad_obs::LazyCounter::new("relexec.cells_gathered");

/// A cell position inside a [`RowSet`]: a source table and one of its
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColRef {
    /// Index of the source table, in the order sources joined the set.
    pub source: usize,
    /// Column position inside that table.
    pub column: usize,
}

/// One output column of [`RowSet::gather_as`].
#[derive(Debug, Clone)]
pub enum Out {
    /// The cells the row set selects from a source column.
    Cell(ColRef),
    /// The same value on every row.
    Const(Value),
}

/// The source rows a [`RowSet`] reads from one table, in output order.
#[derive(Debug)]
enum Sel {
    /// Every row of the table, in table order.
    All,
    /// The listed rows.
    Rows(Vec<u32>),
}

impl Sel {
    /// Source row behind output position `i`.
    fn row(&self, i: usize) -> usize {
        match self {
            Sel::All => i,
            Sel::Rows(rows) => rows[i] as usize,
        }
    }
}

#[derive(Debug)]
struct Source<'a> {
    table: &'a Table,
    sel: Sel,
    /// The catalog entry `table` is, for a catalog scan.
    entry: Option<&'a IndexedTable>,
}

impl<'a> Source<'a> {
    /// One equality lookup of column `c`: its index, while this source is a
    /// bare catalog scan and the entry has built (or now builds) one.
    fn index(&self, c: usize) -> Option<&'a ColumnIndex> {
        let entry = self.entry.filter(|_| matches!(self.sel, Sel::All))?;
        entry.column_index(c, || build_index(self.table.column_at(c)))
    }
}

/// Indexes a column under its own key view — the view of a same-typed pair,
/// which keys every cell.
fn build_index(column: &Column) -> ColumnIndex {
    fn word<C: KeyCol>(view: C, r: usize) -> u64 {
        view.key(r).map_or(0, KeyWord::word)
    }
    let _span = hadad_obs::span("relexec.index_build");
    INDEX_BUILDS.incr();
    let n = column.len();
    match column {
        Column::Int(v) => ColumnIndex::build(n, |r| word(IntKey(v), r)),
        Column::Float(v) => ColumnIndex::build(n, |r| word(FloatKey(v), r)),
        Column::Str(v) => ColumnIndex::build(n, |r| word(StrKey(v), r)),
    }
}

/// A relation under construction; see the [module docs](self).
#[derive(Debug)]
pub struct RowSet<'a> {
    sources: Vec<Source<'a>>,
    /// Output row count; every `Sel::Rows` holds this many positions and
    /// a `Sel::All` source has this many rows.
    rows: usize,
    names: Vec<String>,
    cells: Vec<ColRef>,
}

/// Row counts stay addressable by `u32` positions; larger tables are
/// refused the way the row index refuses them.
fn checked_rows(n: usize) -> usize {
    position(n);
    n
}

/// A column seen through the module's one equality, as one side of a
/// column-type pair: two cells are equal iff their keys are `Some` and equal.
trait KeyCol: Copy {
    type Key: KeyWord;
    fn key(self, row: usize) -> Option<Self::Key>;
}

/// A join key: compared exactly, bucketed by `word`.
trait KeyWord: Copy + PartialEq {
    fn word(self) -> u64;
}

impl KeyWord for u64 {
    fn word(self) -> u64 {
        self
    }
}

impl KeyWord for &str {
    fn word(self) -> u64 {
        stable_hash(self)
    }
}

/// An `Int` column: the integer itself.
#[derive(Clone, Copy)]
struct IntKey<'c>(&'c [i64]);
/// A `Float` column against an `Int` one: the integer an integral, in-range
/// cell is, and nothing for any other cell — no integer equals it.
#[derive(Clone, Copy)]
struct FloatAsInt<'c>(&'c [f64]);
/// A `Float` column against a `Float` one: the number, by bit pattern.
#[derive(Clone, Copy)]
struct FloatKey<'c>(&'c [f64]);
/// A `Str` column: the string.
#[derive(Clone, Copy)]
struct StrKey<'c>(&'c [String]);

impl KeyCol for IntKey<'_> {
    type Key = u64;
    fn key(self, row: usize) -> Option<u64> {
        Some(self.0[row] as u64)
    }
}

impl KeyCol for FloatAsInt<'_> {
    type Key = u64;
    fn key(self, row: usize) -> Option<u64> {
        float_key(self.0[row]).map(|k| k as u64)
    }
}

impl KeyCol for FloatKey<'_> {
    type Key = u64;
    fn key(self, row: usize) -> Option<u64> {
        let v = self.0[row];
        // One bit pattern per number: every `NaN` is the canonical one, and
        // `-0.0 + 0.0` is `0.0`.
        Some(if v.is_nan() { f64::NAN.to_bits() } else { (v + 0.0).to_bits() })
    }
}

impl<'c> KeyCol for StrKey<'c> {
    type Key = &'c str;
    fn key(self, row: usize) -> Option<&'c str> {
        Some(self.0[row].as_str())
    }
}

/// The one definition of cell equality. Evaluates `$body` with `$l`/`$r`
/// bound to the key views of two columns, or `$none` when no cell of one
/// can equal a cell of the other (a string and a number) — the column-type
/// match that keeps every pass typed outside its loop.
macro_rules! with_keys {
    ($lc:expr, $rc:expr, |$l:ident, $r:ident| $body:expr, $none:expr) => {
        match ($lc, $rc) {
            (Column::Int(a), Column::Int(b)) => {
                let ($l, $r) = (IntKey(a), IntKey(b));
                $body
            }
            (Column::Int(a), Column::Float(b)) => {
                let ($l, $r) = (IntKey(a), FloatAsInt(b));
                $body
            }
            (Column::Float(a), Column::Int(b)) => {
                let ($l, $r) = (FloatAsInt(a), IntKey(b));
                $body
            }
            (Column::Float(a), Column::Float(b)) => {
                let ($l, $r) = (FloatKey(a), FloatKey(b));
                $body
            }
            (Column::Str(a), Column::Str(b)) => {
                let ($l, $r) = (StrKey(a), StrKey(b));
                $body
            }
            _ => $none,
        }
    };
}

/// Chained hash index over positions `0..n` of one join side: `heads` maps
/// a bucket to its first position, `next` a position to the following one
/// in the same bucket. No keys or hashes are stored — a candidate is
/// confirmed by re-reading its key.
struct Chains {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(heads.len())`.
    shift: u32,
}

impl Chains {
    fn build<K: KeyWord>(n: usize, key: &impl Fn(usize) -> Option<K>) -> Self {
        // At most one key per two buckets: most probes of a selective join
        // miss, and a miss should end at an empty bucket.
        let buckets = (2 * n).max(MIN_BUCKETS).next_power_of_two();
        let mut index = Chains {
            heads: vec![NIL; buckets],
            next: vec![NIL; n],
            shift: 64 - buckets.trailing_zeros(),
        };
        // Linked last to first, so every chain runs in ascending position.
        for i in (0..n).rev() {
            if let Some(k) = key(i) {
                let b = index.bucket(k);
                index.next[i] = index.heads[b];
                index.heads[b] = i as u32;
            }
        }
        index
    }

    fn bucket<K: KeyWord>(&self, k: K) -> usize {
        (k.word().wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    /// Calls `hit` with every indexed position whose key is `k`, ascending.
    fn probe<K: KeyWord>(
        &self,
        k: K,
        key: &impl Fn(usize) -> Option<K>,
        mut hit: impl FnMut(u32),
    ) {
        let mut at = self.heads[self.bucket(k)];
        while at != NIL {
            if key(at as usize) == Some(k) {
                hit(at);
            }
            at = self.next[at as usize];
        }
    }
}

/// The one join kernel: every `(left, right)` position pair whose keys are
/// equal, as two parallel vectors in left order with right positions
/// ascending within one left position. The index goes over the smaller
/// side; the other side's keys are read in one pass.
fn join_pairs<K: KeyWord>(
    nl: usize,
    lkey: impl Fn(usize) -> Option<K>,
    nr: usize,
    rkey: impl Fn(usize) -> Option<K>,
) -> (Vec<u32>, Vec<u32>) {
    if nr <= nl {
        let index = Chains::build(nr, &rkey);
        // Sized for the foreign-key shape: one match per left row.
        let (mut lpos, mut rpos) = (Vec::with_capacity(nl), Vec::with_capacity(nl));
        for i in 0..nl {
            if let Some(k) = lkey(i) {
                index.probe(k, &rkey, |j| {
                    lpos.push(i as u32);
                    rpos.push(j);
                });
            }
        }
        return (lpos, rpos);
    }
    let index = Chains::build(nl, &lkey);
    // Matches arrive right-major. A counting sort on the left position puts
    // them in left order and, being stable, keeps right ascending within it.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut starts = vec![0usize; nl + 1];
    for j in 0..nr {
        if let Some(k) = rkey(j) {
            index.probe(k, &lkey, |i| {
                pairs.push((i, j as u32));
                starts[i as usize + 1] += 1;
            });
        }
    }
    for i in 0..nl {
        starts[i + 1] += starts[i];
    }
    let (mut lpos, mut rpos) = (vec![0; pairs.len()], vec![0; pairs.len()]);
    for (i, j) in pairs {
        let at = &mut starts[i as usize];
        lpos[*at] = i;
        rpos[*at] = j;
        *at += 1;
    }
    (lpos, rpos)
}

/// A join through a column index reads at most this share (1 / 4) of the
/// indexed side's rows; past it, one pass of [`join_pairs`] over both
/// sides is the cheaper join.
const INDEX_JOIN_SHARE: usize = 4;

/// The index-nested loop: every `(probe, indexed)` position pair whose keys
/// are equal (as [`Pairs`] `left` and `right`), in probe order, indexed
/// positions ascending within one probe position — one bucket lookup per
/// probe key. `None`, having stopped early, once the buckets looked up hold
/// more than `ni / INDEX_JOIN_SHARE` rows.
fn index_pairs<K: KeyWord>(
    index: &ColumnIndex,
    np: usize,
    pkey: impl Fn(usize) -> Option<K>,
    ni: usize,
    ikey: impl Fn(usize) -> Option<K>,
) -> Option<Pairs> {
    let budget = ni / INDEX_JOIN_SHARE;
    let mut read = 0;
    let (mut ppos, mut ipos) = (Vec::new(), Vec::new());
    for p in 0..np {
        let Some(k) = pkey(p) else { continue };
        let bucket = index.lookup(k.word());
        read += bucket.len();
        if read > budget {
            return None;
        }
        for &i in bucket {
            if ikey(i as usize) == Some(k) {
                ppos.push(p as u32);
                ipos.push(i);
            }
        }
    }
    ROWS_IN.add((np + read) as u64);
    Some(Pairs { left: ppos, right: ipos, read: np + read })
}

/// The matches of one join as parallel position vectors, and what the join
/// read to find them (see [`RowSet::join_reading`]).
struct Pairs {
    left: Vec<u32>,
    right: Vec<u32>,
    read: usize,
}

/// `(left, right)` pairs that arrived right-major, in left order with right
/// ascending within one left position: a sort of the matches alone.
fn left_major(rpos: &[u32], lpos: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut packed: Vec<u64> =
        lpos.iter().zip(rpos).map(|(&l, &r)| u64::from(l) << 32 | u64::from(r)).collect();
    packed.sort_unstable();
    packed.iter().map(|&p| ((p >> 32) as u32, p as u32)).unzip()
}

/// [`join_pairs`] over the selected cells of two columns: position `i` of
/// the left side is cell `lsel.row(i)` of `lc`, and likewise on the right.
fn equal_pairs(
    (lc, lsel, nl): (&Column, &Sel, usize),
    (rc, rsel, nr): (&Column, &Sel, usize),
) -> (Vec<u32>, Vec<u32>) {
    with_keys!(
        lc,
        rc,
        |l, r| join_pairs(nl, |i| l.key(lsel.row(i)), nr, |j| r.key(rsel.row(j))),
        (Vec::new(), Vec::new())
    )
}

/// The positions in `0..n` that satisfy `keep`, ascending. Branch-free:
/// every position is written and the cursor moves past the kept ones only,
/// so a pass costs the same at any selectivity.
fn compact(n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; n];
    let mut kept = 0;
    for i in 0..n {
        out[kept] = i as u32;
        kept += usize::from(keep(i));
    }
    out.truncate(kept);
    out
}

/// Output positions `0..n` whose source row satisfies `keep`.
fn positions(sel: &Sel, n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    match sel {
        Sel::All => compact(n, keep),
        Sel::Rows(rows) => compact(n, |i| keep(rows[i] as usize)),
    }
}

/// `n` copies of one cell.
fn repeated(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(v) => Column::Int(vec![*v; n]),
        Value::Float(v) => Column::Float(vec![*v; n]),
        Value::Str(v) => Column::Str(vec![v.clone(); n]),
    }
}

/// `(key, position)` of every output position, for sorting.
fn sort_keys(sel: &Sel, n: usize, key: impl Fn(usize) -> i64) -> Vec<(i64, u32)> {
    (0..n).map(|i| (key(sel.row(i)), i as u32)).collect()
}

impl<'a> RowSet<'a> {
    /// Every row and column of `table`, borrowed. Panics on a table of
    /// 2³² − 1 rows or more (positions are `u32`).
    pub fn scan(table: &'a Table) -> Self {
        RowSet::scan_source(Source { table, sel: Sel::All, entry: None })
    }

    /// [`RowSet::scan`] of a catalog entry, whose column indexes serve the
    /// equality lookups against it; see [`crate::Catalog::scan`].
    pub(crate) fn scan_entry(entry: &'a IndexedTable) -> Self {
        RowSet::scan_source(Source { table: entry.table(), sel: Sel::All, entry: Some(entry) })
    }

    fn scan_source(source: Source<'a>) -> Self {
        let table = source.table;
        RowSet {
            sources: vec![source],
            rows: checked_rows(table.num_rows()),
            names: table.column_names().to_vec(),
            cells: (0..table.num_cols()).map(|column| ColRef { source: 0, column }).collect(),
        }
    }

    /// The relation of one empty row: no source, no column. It is the unit
    /// of [`RowSet::product`], and what an empty conjunction evaluates to.
    pub fn unit() -> Self {
        RowSet { sources: Vec::new(), rows: 1, names: Vec::new(), cells: Vec::new() }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Output column names, in order.
    pub(crate) fn column_names(&self) -> &[String] {
        &self.names
    }

    /// The cell behind output column `name`, if present.
    pub fn column(&self, name: &str) -> Option<ColRef> {
        self.names.iter().position(|n| n == name).map(|i| self.cells[i])
    }

    /// Replaces every selection vector by its entries at `positions`. A
    /// bare scan's entries are the positions themselves: the last one
    /// adopts the vector, any other gets a copy.
    fn pick(&mut self, positions: Vec<u32>) {
        let adopter = self.sources.iter().rposition(|s| matches!(s.sel, Sel::All));
        for (k, s) in self.sources.iter_mut().enumerate() {
            s.sel = Sel::Rows(match &s.sel {
                Sel::All if Some(k) == adopter => continue,
                Sel::All => positions.clone(),
                Sel::Rows(rows) => positions.iter().map(|&i| rows[i as usize]).collect(),
            });
        }
        self.rows = positions.len();
        if let Some(k) = adopter {
            self.sources[k].sel = Sel::Rows(positions);
        }
    }

    /// [`pick`](Self::pick) for positions that ascend without repeats, as a
    /// filter keeps them: all `n` of them are the identity.
    fn keep(&mut self, kept: Vec<u32>) {
        if kept.len() < self.rows {
            self.pick(kept);
        } else {
            self.pick_identity();
        }
    }

    /// The identity pick: every selection stays as it is (a bare scan's
    /// gather stays a column clone), and, as after any pick, no source
    /// serves column-index lookups any more.
    fn pick_identity(&mut self) {
        for s in &mut self.sources {
            s.entry = None;
        }
    }

    /// Keeps the rows whose `col` cell equals the constant, in order.
    pub fn filter(&mut self, col: ColRef, constant: &Value) {
        let _span = hadad_obs::span("relexec.filter");
        let source = &self.sources[col.source];
        // A constant is a one-cell column.
        let (column, one) = (source.table.column_at(col.column), repeated(constant, 1));
        let index = if same_type(column, &one) { source.index(col.column) } else { None };
        let n = self.rows;
        if index.is_none() {
            ROWS_IN.add(n as u64);
        }
        let keep = with_keys!(
            column,
            &one,
            |cells, one| match (one.key(0), index) {
                // A bare scan: the bucket's rows are output positions.
                (Some(k), Some(index)) => {
                    let bucket = index.lookup(k.word());
                    ROWS_IN.add(bucket.len() as u64);
                    bucket
                        .iter()
                        .copied()
                        .filter(|&r| cells.key(r as usize) == Some(k))
                        .collect()
                }
                (Some(k), None) => positions(&source.sel, n, |r| cells.key(r) == Some(k)),
                (None, _) => Vec::new(),
            },
            Vec::new()
        );
        self.keep(keep);
    }

    /// Keeps the rows whose `a` and `b` cells are equal.
    pub fn filter_eq(&mut self, a: ColRef, b: ColRef) {
        let _span = hadad_obs::span("relexec.filter");
        ROWS_IN.add(self.rows as u64);
        let (sa, sb) = (&self.sources[a.source], &self.sources[b.source]);
        let keep: Vec<u32> = with_keys!(
            sa.table.column_at(a.column),
            sb.table.column_at(b.column),
            |x, y| compact(self.rows, |i| {
                let k = x.key(sa.sel.row(i));
                k.is_some() && k == y.key(sb.sel.row(i))
            }),
            Vec::new()
        );
        self.keep(keep);
    }

    /// Equi-joins with `right` on `left = right_col`, in the module's order
    /// contract. `right`'s sources are appended to this set's — the
    /// returned offset rebases a [`ColRef`] into `right` — and its output
    /// columns are dropped.
    pub fn join(&mut self, left: ColRef, right: RowSet<'a>, right_col: ColRef) -> usize {
        self.join_reading(left, right, right_col).0
    }

    /// [`RowSet::join`], also returning the rows it read besides one pass
    /// over this set's keys: the right key column on a chained join, the
    /// probe keys and the buckets they read on an index-nested loop, nothing
    /// when either side is empty.
    pub(crate) fn join_reading(
        &mut self,
        left: ColRef,
        mut right: RowSet<'a>,
        right_col: ColRef,
    ) -> (usize, usize) {
        let _span = hadad_obs::span("relexec.join");
        let (ls, rs) = (&self.sources[left.source], &right.sources[right_col.source]);
        let (lc, rc) = (ls.table.column_at(left.column), rs.table.column_at(right_col.column));
        let (nl, nr) = (self.rows, right.rows);
        // A column index serves same-typed pairs only: a mixed pair (`Int` ×
        // `Float`) keys one side through the other's view, which the index
        // was not built under. An index on the right probes in left order;
        // one on the left needs its matches sorted back into it. An empty
        // side pairs nothing, reads nothing and counts no lookup.
        let by_index = if nl == 0 || nr == 0 {
            Some(Pairs { left: Vec::new(), right: Vec::new(), read: 0 })
        } else if same_type(lc, rc) {
            with_keys!(
                lc,
                rc,
                |l, r| {
                    let lkey = |i: usize| l.key(ls.sel.row(i));
                    let rkey = |j: usize| r.key(rs.sel.row(j));
                    rs.index(right_col.column)
                        .and_then(|index| index_pairs(index, nl, lkey, nr, rkey))
                        .or_else(|| {
                            let p = index_pairs(ls.index(left.column)?, nr, rkey, nl, lkey)?;
                            let (left, right) = left_major(&p.left, &p.right);
                            Some(Pairs { left, right, read: p.read })
                        })
                },
                None
            )
        } else {
            None
        };
        let pairs = by_index.unwrap_or_else(|| {
            ROWS_IN.add((nl + nr) as u64);
            let (left, right) = equal_pairs((lc, &ls.sel, nl), (rc, &rs.sel, nr));
            Pairs { left, right, read: nr }
        });
        checked_rows(pairs.left.len());
        self.pick(pairs.left);
        right.pick(pairs.right);
        (self.append(right), pairs.read)
    }

    /// Left-major Cartesian product with `right`; sources and columns as in
    /// [`RowSet::join`].
    pub fn product(&mut self, mut right: RowSet<'a>) -> usize {
        let (nl, nr) = (self.rows, right.rows);
        let rows = checked_rows(nl.saturating_mul(nr));
        // Repeating every position once, or tiling them once, is the
        // identity: a one-row side leaves the other as it is. A side with
        // no source (the unit) has no selection to rewrite.
        if nr != 1 && !self.sources.is_empty() {
            let each: Vec<u32> =
                (0..nl as u32).flat_map(|i| std::iter::repeat_n(i, nr)).collect();
            self.pick(each);
        }
        if nl != 1 && !right.sources.is_empty() {
            let tiled: Vec<u32> = (0..nl).flat_map(|_| 0..nr as u32).collect();
            right.pick(tiled);
        }
        self.rows = rows;
        self.append(right)
    }

    fn append(&mut self, right: RowSet<'a>) -> usize {
        let base = self.sources.len();
        self.sources.extend(right.sources);
        base
    }

    /// `ops::hash_join` against another relation (a whole table's
    /// [`RowSet::scan`], or a catalog's [`crate::Catalog::scan`]): joins on
    /// `left` = `right`'s output column `right_key` and appends `right`'s
    /// other output columns, prefixed `right.` until unique.
    pub fn hash_join(&mut self, left: ColRef, right: RowSet<'a>, right_key: usize) {
        self.hash_join_reading(left, right, right_key);
    }

    /// [`RowSet::hash_join`], returning what the join read as
    /// [`RowSet::join_reading`] does.
    pub(crate) fn hash_join_reading(
        &mut self,
        left: ColRef,
        right: RowSet<'a>,
        right_key: usize,
    ) -> usize {
        let kept = push_joined_columns(&mut self.names, &right.names, &right.names[right_key]);
        // `right`'s sources will follow this set's.
        let base = self.sources.len();
        let rebased = |c: ColRef| ColRef { source: base + c.source, ..c };
        self.cells.extend(kept.into_iter().map(|c| rebased(right.cells[c])));
        let key = right.cells[right_key];
        self.join_reading(left, right, key).1
    }

    /// Restricts (and reorders) the output to the named columns; `Err`
    /// carries the first name the set does not have.
    pub fn project<S: AsRef<str>>(&mut self, columns: &[S]) -> Result<(), String> {
        let cells = columns
            .iter()
            .map(|c| self.column(c.as_ref()).ok_or_else(|| c.as_ref().to_owned()))
            .collect::<Result<_, _>>()?;
        self.cells = cells;
        self.names = columns.iter().map(|c| c.as_ref().to_owned()).collect();
        Ok(())
    }

    /// Stably sorts the rows ascending by `col`'s [`Column::key_at`]; cells
    /// without an integer key sort last.
    pub fn sort_by_key(&mut self, col: ColRef) {
        let Source { table, sel, .. } = &self.sources[col.source];
        let mut keyed = match table.column_at(col.column) {
            Column::Int(v) => sort_keys(sel, self.rows, |r| v[r]),
            Column::Float(v) => {
                sort_keys(sel, self.rows, |r| float_key(v[r]).unwrap_or(i64::MAX))
            }
            // No cell keys: every row ties and a stable sort moves nothing.
            Column::Str(_) => return,
        };
        if keyed.is_sorted() {
            return self.pick_identity();
        }
        // (key, position) pairs are distinct, so this is the stable order.
        keyed.sort_unstable();
        self.pick(keyed.into_iter().map(|(_, i)| i).collect());
    }

    /// `values` (one per row of source `source`'s table) at the source rows
    /// this set reads, in output order: a side column gathered beside the
    /// table's own.
    pub(crate) fn gather_slice<T: Copy>(&self, source: usize, values: &[T]) -> Vec<T> {
        match &self.sources[source].sel {
            Sel::All => values.to_vec(),
            Sel::Rows(rows) => rows.iter().map(|&r| values[r as usize]).collect(),
        }
    }

    /// Materializes the output columns.
    pub fn gather(&self) -> Table {
        let head = self.names.iter().zip(&self.cells);
        self.gather_as(head.map(|(n, c)| (n.as_str(), Out::Cell(*c))).collect())
    }

    /// Materializes the given columns over this set's rows: one typed copy
    /// per [`Out::Cell`], one fill per [`Out::Const`].
    pub fn gather_as(&self, head: Vec<(&str, Out)>) -> Table {
        let _span = hadad_obs::span("relexec.gather");
        ROWS_OUT.add(self.rows as u64);
        let columns = head.into_iter().map(|(name, out)| {
            let column = match out {
                Out::Cell(c) => self.gather_cell(c),
                Out::Const(v) => repeated(&v, self.rows),
            };
            (name, column)
        });
        Table::new(columns.collect())
    }

    fn gather_cell(&self, c: ColRef) -> Column {
        CELLS_GATHERED.add(self.rows as u64);
        let Source { table, sel, .. } = &self.sources[c.source];
        let column = table.column_at(c.column);
        let Sel::Rows(rows) = sel else { return column.clone() };
        let rows = rows.iter().map(|&r| r as usize);
        match column {
            Column::Int(v) => Column::Int(rows.map(|r| v[r]).collect()),
            Column::Float(v) => Column::Float(rows.map(|r| v[r]).collect()),
            Column::Str(v) => Column::Str(rows.map(|r| v[r].clone()).collect()),
        }
    }
}

/// Output column names of [`RowSet::hash_join`] (and so of
/// `ops::hash_join(left, _, right, right_key)`): all left columns, then
/// every non-key right column prefixed `right.` until unique. Returns the
/// names plus the kept right column indices.
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
pub fn push_joined_columns(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivm::Delta;
    use crate::ops;
    use Value::{Float, Int, Str};

    fn cell(source: usize, column: usize) -> ColRef {
        ColRef { source, column }
    }

    /// The one equality, spelled out cell against cell.
    fn equal(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Int(x), Int(y)) => x == y,
            (Int(x), f @ Float(_)) | (f @ Float(_), Int(x)) => f.as_i64() == Some(*x),
            (Float(x), Float(y)) => x == y || (x.is_nan() && y.is_nan()),
            (Str(x), Str(y)) => x == y,
            _ => false,
        }
    }

    fn strs(v: &[&str]) -> Column {
        Column::Str(v.iter().map(|s| (*s).to_owned()).collect())
    }

    /// Int, Float (integral, fractional, `-0.0`, `NaN`) and Str (with a
    /// `"7"`) side by side.
    fn mixed() -> Table {
        Table::new(vec![
            ("i", Column::Int(vec![7, 0, -3, 7, 2])),
            ("f", Column::Float(vec![7.0, -0.0, 2.5, f64::NAN, 2.0])),
            ("s", strs(&["7", "a", "", "7", "b"])),
        ])
    }

    fn kept(t: &Table, col: usize, constant: Value) -> Vec<i64> {
        let tagged =
            t.clone().with_column("row", Column::Int((0..t.num_rows() as i64).collect()));
        let mut rows = RowSet::scan(&tagged);
        rows.filter(cell(0, col), &constant);
        match rows.gather().column("row").unwrap() {
            Column::Int(v) => v.clone(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filters_follow_the_cell_type_rules_and_keep_order() {
        let t = mixed();
        // An integer: integers, integral floats, never strings.
        assert_eq!(kept(&t, 0, Int(7)), [0, 3]);
        assert_eq!(kept(&t, 1, Int(7)), [0]);
        assert_eq!(kept(&t, 1, Int(0)), [1]);
        assert_eq!(kept(&t, 1, Int(2)), [4]);
        assert_eq!(kept(&t, 2, Int(7)), [] as [i64; 0]);
        // A float: 2.5 is reachable, -0.0 is 0, NaN is NaN, 7.0 is 7.
        assert_eq!(kept(&t, 0, Float(7.0)), [0, 3]);
        assert_eq!(kept(&t, 0, Float(2.5)), [] as [i64; 0]);
        assert_eq!(kept(&t, 1, Float(2.5)), [2]);
        assert_eq!(kept(&t, 1, Float(0.0)), [1]);
        assert_eq!(kept(&t, 1, Float(f64::NAN)), [3]);
        assert_eq!(kept(&t, 2, Float(7.0)), [] as [i64; 0]);
        // Strings verbatim, on string columns only.
        assert_eq!(kept(&t, 2, Str("7".into())), [0, 3]);
        assert_eq!(kept(&t, 2, Str("".into())), [2]);
        assert_eq!(kept(&t, 0, Str("7".into())), [] as [i64; 0]);
    }

    #[test]
    fn a_second_filter_refines_the_first_selection() {
        let t = mixed();
        let mut rows = RowSet::scan(&t);
        rows.filter(cell(0, 0), &Int(7));
        rows.filter(cell(0, 2), &Str("7".into()));
        rows.filter(cell(0, 1), &Float(7.0));
        assert_eq!(rows.num_rows(), 1);
        assert_eq!(rows.gather(), t.gather(&[0]));
        rows.filter(cell(0, 0), &Int(8));
        let empty = rows.gather();
        assert_eq!(empty.num_rows(), 0);
        // An empty result keeps its source columns' types.
        assert_eq!(empty, t.gather(&[]));
    }

    /// `ops::hash_join` as a nested loop over `Value`s.
    fn nested_loop_join(left: &Table, lk: &str, right: &Table, rk: &str) -> Table {
        let (mut ls, mut rs) = (Vec::new(), Vec::new());
        for l in 0..left.num_rows() {
            for r in 0..right.num_rows() {
                if equal(&left.value(l, lk), &right.value(r, rk)) {
                    ls.push(l);
                    rs.push(r);
                }
            }
        }
        let (names, kept) = joined_columns(left.column_names(), right.column_names(), rk);
        let (lt, rt) = (left.gather(&ls), right.gather(&rs));
        let columns = (0..lt.num_cols())
            .map(|c| lt.column_at(c).clone())
            .chain(kept.iter().map(|&c| rt.column_at(c).clone()));
        Table::new(names.iter().map(String::as_str).zip(columns).collect())
    }

    /// `n` rows keyed `(i * step) % modulus`: duplicate keys, and keys the
    /// other side does not have.
    fn keyed(n: i64, step: i64, modulus: i64, payload: &str) -> Table {
        Table::new(vec![
            ("k", Column::Int((0..n).map(|i| i * step % modulus).collect())),
            (payload, Column::Int((0..n).map(|i| 100 + i).collect())),
        ])
    }

    /// The index goes over the smaller side; the output must not show
    /// which. Left ≪ right, left ≫ right and both sides of the boundary
    /// (`right ≤ left` builds right) against the nested loop, row for row.
    #[test]
    fn join_output_does_not_depend_on_the_build_side() {
        for (nl, nr) in [(3, 40), (40, 3), (8, 8), (8, 9), (9, 8), (0, 5), (5, 0), (1, 1)] {
            let left = keyed(nl, 3, 7, "a");
            let right = keyed(nr, 5, 11, "b");
            let got = ops::hash_join(&left, "k", &right, "k").unwrap();
            assert_eq!(got, nested_loop_join(&left, "k", &right, "k"), "{nl} x {nr}");
        }
        // The same rows, probed from either side, are the same multiset:
        // swapping the operands only swaps the order contract.
        let (a, b) = (keyed(6, 1, 4, "a"), keyed(30, 1, 4, "b"));
        assert_eq!(
            ops::hash_join(&a, "k", &b, "k").unwrap().num_rows(),
            ops::hash_join(&b, "k", &a, "k").unwrap().num_rows()
        );
    }

    #[test]
    fn int_keys_join_integral_floats_and_never_strings() {
        let left = Table::new(vec![
            ("k", Column::Float(vec![1.0, 1.5, -0.0, f64::NAN, 3.0, 1e300])),
            ("a", Column::Int((0..6).collect())),
        ]);
        let right = keyed(4, 1, 4, "b"); // keys 0, 1, 2, 3
        let got = ops::hash_join(&left, "k", &right, "k").unwrap();
        assert_eq!(got, nested_loop_join(&left, "k", &right, "k"));
        assert_eq!(got.column("a").unwrap(), &Column::Int(vec![0, 2, 4]));
        // Float keys on both sides join by value — 0.5 = 0.5, NaN = NaN —
        // on either build side.
        let wide = Table::new(vec![(
            "k",
            Column::Float(vec![3.0, 0.0, 0.5, 3.0, 9.0, 1.0, 1.5, f64::NAN]),
        )]);
        for (l, r) in [(&left, &wide), (&wide, &left)] {
            let got = ops::hash_join(l, "k", r, "k").unwrap();
            assert_eq!(got.num_rows(), 6);
            assert_eq!(
                crate::ivm::table_fingerprint(&got),
                crate::ivm::table_fingerprint(&nested_loop_join(l, "k", r, "k"))
            );
        }
        // A string is never a number; strings join strings.
        let names = Table::new(vec![("k", strs(&["1", "3", "1"]))]);
        assert_eq!(ops::hash_join(&names, "k", &right, "k").unwrap().num_rows(), 0);
        assert_eq!(ops::hash_join(&right, "k", &names, "k").unwrap().num_rows(), 0);
        assert_eq!(ops::hash_join(&names, "k", &names, "k").unwrap().num_rows(), 5);
    }

    /// `(left row, right row)` of every pair [`RowSet::join`] emits.
    fn join_rows(left: &Column, right: &Column) -> Vec<(usize, usize)> {
        let (l, r) = (tagged(left), tagged(right));
        let mut rows = RowSet::scan(&l);
        let source = rows.join(cell(0, 0), RowSet::scan(&r), cell(0, 0));
        tag_pairs(&rows, source)
    }

    /// A key column beside its row numbers.
    fn tagged(k: &Column) -> Table {
        Table::new(vec![("k", k.clone()), ("row", Column::Int((0..k.len() as i64).collect()))])
    }

    /// The `row` tags of a [`tagged`] table's selected rows.
    fn row_tags(rows: &RowSet<'_>) -> Vec<usize> {
        let out = rows.gather_as(vec![("r", Out::Cell(cell(0, 1)))]);
        (0..out.num_rows()).map(|i| out.column_at(0).key_at(i).unwrap() as usize).collect()
    }

    /// A scan of `entry` if there is one, else of the plain `table`.
    fn scan_of<'t>(table: &'t Table, entry: Option<&'t IndexedTable>) -> RowSet<'t> {
        entry.map_or_else(|| RowSet::scan(table), RowSet::scan_entry)
    }

    /// `column` repeated end to end `times` times.
    fn tile(column: &Column, times: usize) -> Column {
        let picks: Vec<usize> = (0..times * column.len()).map(|i| i % column.len()).collect();
        Table::new(vec![("k", column.clone())]).gather(&picks).column_at(0).clone()
    }

    /// The `row` tags of [`tagged`] source 0 and of the one at `source`.
    fn tag_pairs(rows: &RowSet<'_>, source: usize) -> Vec<(usize, usize)> {
        let out = rows
            .gather_as(vec![("l", Out::Cell(cell(0, 1))), ("r", Out::Cell(cell(source, 1)))]);
        let tag = |c: usize, i: usize| out.column_at(c).key_at(i).unwrap() as usize;
        (0..out.num_rows()).map(|i| (tag(0, i), tag(1, i))).collect()
    }

    #[test]
    fn shared_variables_equate_numbers_by_value_and_strings_verbatim() {
        let ints = Column::Int(vec![7, 0, 2, 7]);
        let floats = Column::Float(vec![7.0, -0.0, 2.5, f64::NAN, 0.0]);
        // Int 7 = Float 7.0; 0 = -0.0 = 0.0; 2 ≠ 2.5; NaN is no integer.
        assert_eq!(join_rows(&ints, &floats), [(0, 0), (1, 1), (1, 4), (3, 0)]);
        assert_eq!(join_rows(&floats, &ints), [(0, 0), (0, 3), (1, 1), (4, 1)]);
        // Fractional floats equal themselves, and so does NaN.
        assert_eq!(
            join_rows(&floats, &floats),
            [(0, 0), (1, 1), (1, 4), (2, 2), (3, 3), (4, 1), (4, 4)]
        );
        let names = strs(&["7", "a", "", "a"]);
        assert_eq!(join_rows(&names, &names), [(0, 0), (1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]);
        // "7" is not 7, from either side.
        assert_eq!(join_rows(&names, &ints), []);
        assert_eq!(join_rows(&floats, &names), []);
    }

    /// The equality's laws on a domain with every corner in it — both
    /// zeros, `NaN`, ∞, the first integers a float rounds together, a
    /// numeric-looking string — and then every operator that compares two
    /// cells against it, cell by cell.
    #[test]
    fn the_equality_is_an_equivalence_and_every_operator_agrees_with_it() {
        const P53: i64 = 1 << 53;
        let columns = [
            Column::Int(vec![i64::MIN, -1, 0, 7, P53, P53 + 1]),
            Column::Float(vec![0.0, -0.0, 2.5, 7.0, P53 as f64, f64::NAN, f64::INFINITY]),
            strs(&["7", "a", ""]),
        ];
        let values = |c: &Column| (0..c.len()).map(|r| c.value(r)).collect::<Vec<_>>();
        let cells: Vec<Value> = columns.iter().flat_map(values).collect();
        for a in &cells {
            assert!(equal(a, a), "{a} = {a}");
            for b in &cells {
                assert_eq!(equal(a, b), equal(b, a), "{a} = {b}");
                for c in cells.iter().filter(|c| equal(a, b) && equal(b, c)) {
                    assert!(equal(a, c), "{a} = {b} = {c}");
                }
            }
        }
        // Exact where `f64` is not: 2⁵³ + 1 widens to 2⁵³ and is not it.
        assert!(equal(&Int(P53), &Float(P53 as f64)));
        assert!(!equal(&Int(P53 + 1), &Float(P53 as f64)));

        for l in &columns {
            for r in &columns {
                let (lv, rv) = (values(l), values(r));
                let want: Vec<(usize, usize)> = (0..lv.len())
                    .flat_map(|i| (0..rv.len()).map(move |j| (i, j)))
                    .filter(|&(i, j)| equal(&lv[i], &rv[j]))
                    .collect();
                assert_eq!(join_rows(l, r), want, "join of {l:?} with {r:?}");

                // A product narrowed column against column.
                let (lt, rt) = (tagged(l), tagged(r));
                let mut rows = RowSet::scan(&lt);
                let source = rows.product(RowSet::scan(&rt));
                rows.filter_eq(cell(0, 0), cell(source, 0));
                assert_eq!(tag_pairs(&rows, source), want, "filter_eq of {l:?} with {r:?}");

                // Each right cell as a constant.
                for (j, constant) in rv.iter().enumerate() {
                    let kept: Vec<i64> =
                        want.iter().filter(|p| p.1 == j).map(|p| p.0 as i64).collect();
                    assert_eq!(self::kept(&lt, 0, constant.clone()), kept);
                }

                // The same join and constants against catalog entries, three
                // times: the later runs go through the column indexes the
                // second lookups built. A mixed pair never builds one.
                let (le, re) = (IndexedTable::new(tagged(l)), IndexedTable::new(tagged(r)));
                for run in 0..3 {
                    for (a, b) in [(Some(&le), Some(&re)), (Some(&le), None), (None, Some(&re))]
                    {
                        let mut rows = scan_of(&lt, a);
                        let source = rows.join(cell(0, 0), scan_of(&rt, b), cell(0, 0));
                        assert_eq!(
                            tag_pairs(&rows, source),
                            want,
                            "run {run}: {l:?} with {r:?}"
                        );
                    }
                    for (j, constant) in rv.iter().enumerate() {
                        let mut rows = RowSet::scan_entry(&le);
                        rows.filter(cell(0, 0), constant);
                        let kept: Vec<usize> =
                            want.iter().filter(|p| p.1 == j).map(|p| p.0).collect();
                        assert_eq!(row_tags(&rows), kept, "run {run}: {constant} in {l:?}");
                    }
                }
                let indexed = usize::from(same_type(l, r));
                assert_eq!((le.column_indexes(), re.column_indexes()), (indexed, indexed));

                // One probe cell against eight copies of the other column:
                // its bucket is small enough for an index-nested loop with
                // the index on either side, in the order contract.
                let big = IndexedTable::new(tagged(&tile(l, 8)));
                for (j, constant) in rv.iter().enumerate() {
                    let probe = tagged(&repeated(constant, 1));
                    let hits: Vec<usize> = (0..8 * lv.len())
                        .filter(|&i| equal(&lv[i % lv.len()], constant))
                        .collect();
                    for _ in 0..3 {
                        let mut rows = RowSet::scan(&probe);
                        let source =
                            rows.join(cell(0, 0), RowSet::scan_entry(&big), cell(0, 0));
                        let got = tag_pairs(&rows, source);
                        assert_eq!(
                            got,
                            hits.iter().map(|&i| (0, i)).collect::<Vec<_>>(),
                            "{j}"
                        );
                        let mut rows = RowSet::scan_entry(&big);
                        let source = rows.join(cell(0, 0), RowSet::scan(&probe), cell(0, 0));
                        let got = tag_pairs(&rows, source);
                        assert_eq!(
                            got,
                            hits.iter().map(|&i| (i, 0)).collect::<Vec<_>>(),
                            "{j}"
                        );
                    }
                }

                // The IVM halves: columns are `k`, `row`, `right.row`.
                let all = |t: &Table| {
                    Delta::inserts(t, (0..t.num_rows()).map(|i| t.row(i)).collect()).unwrap()
                };
                let tags = |d: Delta| -> Vec<(usize, usize)> {
                    let tag =
                        |r: usize, c: usize| d.rows.column_at(c).key_at(r).unwrap() as usize;
                    (0..d.num_rows()).map(|r| (tag(r, 1), tag(r, 2))).collect()
                };
                assert_eq!(
                    tags(all(&lt).join_right(RowSet::scan(&rt), "k", "k").unwrap()),
                    want
                );
                let stored = IndexedTable::new(lt.clone());
                let mut right_major =
                    tags(Delta::join_left(&stored, &all(&rt), "k", "k").unwrap());
                right_major.sort_unstable();
                assert_eq!(right_major, want);
            }
        }
    }

    #[test]
    fn column_against_column_filter_spans_sources() {
        let l = Table::new(vec![
            ("k", Column::Int(vec![1, 1, 2])),
            ("x", Column::Float(vec![5.0, 6.0, 7.0])),
        ]);
        let r = Table::new(vec![
            ("k", Column::Int(vec![1, 2, 1])),
            ("y", Column::Int(vec![5, 7, 6])),
        ]);
        let mut rows = RowSet::scan(&l);
        let source = rows.join(cell(0, 0), RowSet::scan(&r), cell(0, 0));
        assert_eq!(rows.num_rows(), 5);
        rows.filter_eq(cell(0, 1), cell(source, 1));
        let out = rows
            .gather_as(vec![("x", Out::Cell(cell(0, 1))), ("y", Out::Cell(cell(source, 1)))]);
        assert_eq!(out.column_at(0), &Column::Float(vec![5.0, 6.0, 7.0]));
        assert_eq!(out.column_at(1), &Column::Int(vec![5, 6, 7]));
        // Inside one source: a variable an atom repeats.
        let mut rows = RowSet::scan(&r);
        rows.filter_eq(cell(0, 0), cell(0, 1));
        assert_eq!(rows.num_rows(), 0);
    }

    #[test]
    fn product_is_left_major_and_the_unit_changes_nothing() {
        let l = Table::new(vec![("a", Column::Int(vec![1, 2]))]);
        let r = Table::new(vec![("b", strs(&["x", "y", "z"]))]);
        let mut rows = RowSet::unit();
        assert_eq!(rows.product(RowSet::scan(&l)), 0);
        assert_eq!(rows.num_rows(), 2);
        let source = rows.product(RowSet::scan(&r));
        let out = rows.gather_as(vec![
            ("a", Out::Cell(cell(0, 0))),
            ("b", Out::Cell(cell(source, 0))),
            ("c", Out::Const(Value::Float(0.5))),
        ]);
        assert_eq!(out.column_at(0), &Column::Int(vec![1, 1, 1, 2, 2, 2]));
        assert_eq!(out.column_at(1), &strs(&["x", "y", "z", "x", "y", "z"]));
        assert_eq!(out.column_at(2), &Column::Float(vec![0.5; 6]));
        // One row on either side leaves the other side's selection alone.
        let one = Table::new(vec![("c", Column::Int(vec![9]))]);
        let mut rows = RowSet::scan(&one);
        let source = rows.product(RowSet::scan(&r));
        let out = rows
            .gather_as(vec![("c", Out::Cell(cell(0, 0))), ("b", Out::Cell(cell(source, 0)))]);
        assert_eq!(out.column_at(0), &Column::Int(vec![9, 9, 9]));
        assert_eq!(out.column_at(1), r.column_at(0));
        // The empty conjunction: one row, no column.
        let unit = RowSet::unit().gather_as(vec![("k", Out::Const(Value::Str("v".into())))]);
        assert_eq!(unit, Table::new(vec![("k", strs(&["v"]))]));
    }

    /// The unit times a scan is that scan, untouched: its selection stays
    /// "all rows", so a catalog scan stays bare and its column indexes still
    /// serve the next join.
    #[test]
    fn the_unit_leaves_a_scan_bare() {
        let t = keyed(40, 1, 40, "a");
        let mut rows = RowSet::unit();
        assert_eq!(rows.product(RowSet::scan(&t)), 0);
        assert!(matches!(rows.sources[0].sel, Sel::All));
        assert_eq!(rows.num_rows(), 40);
        let out =
            rows.gather_as(vec![("k", Out::Cell(cell(0, 0))), ("a", Out::Cell(cell(0, 1)))]);
        assert_eq!(out, t);
        // The empty conjunction times a one-row scan, and times nothing.
        let one = keyed(1, 1, 1, "a");
        let mut rows = RowSet::unit();
        rows.product(RowSet::scan(&one));
        assert!(matches!(rows.sources[0].sel, Sel::All));
        let mut rows = RowSet::unit();
        rows.product(RowSet::unit());
        assert_eq!((rows.num_rows(), rows.sources.len()), (1, 0));
    }

    /// Many probe rows against an indexed side, whose matches interleave:
    /// with the index on the left they arrive right-major and must be put
    /// back into left order. Both directions against the nested loop, on
    /// the index's first use (a scan), its second (the build) and after.
    #[test]
    fn index_joins_keep_the_order_contract_from_either_side() {
        // 256 rows over 64 keys, four copies each, spread out.
        let big = keyed(256, 5, 64, "a");
        let entry = IndexedTable::new(big.clone());
        // Duplicate, missing and shared keys, out of order.
        let probe = Table::new(vec![
            ("k", Column::Int(vec![33, 3, 99, 3, 7, 33])),
            ("b", Column::Int((0..6).collect())),
        ]);
        for run in 0..3 {
            let mut rows = RowSet::scan(&probe);
            rows.hash_join(cell(0, 0), RowSet::scan_entry(&entry), 0);
            let want = nested_loop_join(&probe, "k", &big, "k");
            assert_eq!(rows.gather(), want, "run {run}: index on the right");
            let mut rows = RowSet::scan_entry(&entry);
            rows.hash_join(cell(0, 0), RowSet::scan(&probe), 0);
            let want = nested_loop_join(&big, "k", &probe, "k");
            assert_eq!(rows.gather(), want, "run {run}: index on the left");
        }
        // The probe keys select at most a quarter of `big` through its index,
        // which is what sends both joins through it.
        let index = entry.column_index(0, || unreachable!("built")).unwrap();
        let read: usize = [33u64, 3, 99, 3, 7, 33].iter().map(|&k| index.lookup(k).len()).sum();
        assert!(read <= 256 / INDEX_JOIN_SHARE, "{read}");
    }

    /// A constant of another type than its column never counts a lookup:
    /// mixed pairs scan, and leave the column without an index.
    #[test]
    fn mixed_pairs_scan_and_build_nothing() {
        let t = mixed();
        let entry = IndexedTable::new(t.clone());
        for _ in 0..3 {
            for (col, constant) in
                [(0, Float(7.0)), (1, Int(7)), (2, Int(7)), (0, Str("7".into()))]
            {
                let mut rows = RowSet::scan_entry(&entry);
                rows.filter(cell(0, col), &constant);
                let mut scanned = RowSet::scan(&t);
                scanned.filter(cell(0, col), &constant);
                let fingerprint = |r: &RowSet<'_>| crate::ivm::table_fingerprint(&r.gather());
                assert_eq!(fingerprint(&rows), fingerprint(&scanned));
            }
            let ints = Table::new(vec![("k", Column::Int(vec![7, 2]))]);
            let mut rows = RowSet::scan(&ints);
            rows.join(cell(0, 0), RowSet::scan_entry(&entry), cell(0, 1));
            assert_eq!(rows.num_rows(), 2);
        }
        assert_eq!(entry.column_indexes(), 0);
    }

    /// Chained joins, a filter between them, a projection and a sort: the
    /// selection vectors of three sources stay aligned, `right.` prefixes
    /// stack, and the one gather equals the stage-by-stage operators.
    #[test]
    fn a_pipeline_gathers_once_what_the_operators_build_stage_by_stage() {
        let tweets = Table::new(vec![
            ("tid", Column::Int((0..48).rev().collect())),
            ("uid", Column::Int((0..48).map(|i| i * 7 % 10).collect())),
            ("score", Column::Int((0..48).map(|i| i % 3).collect())),
        ]);
        let users = Table::new(vec![
            ("uid", Column::Int(vec![0, 1, 2, 3, 4, 5, 6, 3])),
            ("score", Column::Int(vec![1, 0, 1, 0, 1, 0, 1, 1])),
            ("name", strs(&["a", "b", "c", "d", "e", "f", "g", "d2"])),
        ]);
        let mut rows = RowSet::scan(&tweets);
        rows.hash_join(rows.column("uid").unwrap(), RowSet::scan(&users), 0);
        rows.filter(rows.column("right.score").unwrap(), &Int(1));
        rows.hash_join(rows.column("uid").unwrap(), RowSet::scan(&users), 0);
        assert_eq!(
            rows.gather().column_names(),
            ["tid", "uid", "score", "right.score", "name", "right.right.score", "right.name"]
        );
        rows.project(&["right.name", "tid", "right.right.score"]).unwrap();
        assert_eq!(rows.project(&["tid", "nope"]), Err("nope".to_owned()));
        rows.sort_by_key(rows.column("tid").unwrap());

        let j1 = nested_loop_join(&tweets, "uid", &users, "uid");
        let keep: Vec<usize> = (0..j1.num_rows())
            .filter(|&r| j1.value(r, "right.score").as_i64() == Some(1))
            .collect();
        let j2 = nested_loop_join(&j1.gather(&keep), "uid", &users, "uid");
        let picked = ["right.name", "tid", "right.right.score"];
        let expected =
            Table::new(picked.map(|name| (name, j2.column(name).unwrap().clone())).to_vec());
        let mut order: Vec<usize> = (0..expected.num_rows()).collect();
        order.sort_by_key(|&r| expected.value(r, "tid").as_i64());
        assert_eq!(rows.gather(), expected.gather(&order));
    }

    /// A filter that keeps every row — through a scan, through a built
    /// column index's bucket, column against column — and a sort of rows
    /// already in key order leave a bare scan's selection unallocated. The
    /// rows, a join after each and what that join reads are those of an
    /// explicit identity pick, the selection these steps used to make.
    #[test]
    fn keep_all_selections_stay_unselected_and_joins_after_them_agree() {
        let t = Table::new(vec![
            ("k", Column::Int((0..40).map(|i| i / 2 * 3).collect())),
            ("c", Column::Int(vec![3; 40])),
            ("s", Column::Str((0..40).map(|i| format!("s{i}")).collect())),
        ]);
        let other = keyed(30, 7, 50, "b");
        let entry = IndexedTable::new(t.clone());
        let other_entry = IndexedTable::new(other.clone());
        let want = nested_loop_join(&t, "k", &other, "k");
        type Step = fn(&mut RowSet<'_>);
        let steps: [(&str, Step); 4] = [
            ("filter", |r| r.filter(cell(0, 1), &Int(3))),
            ("mixed filter", |r| r.filter(cell(0, 1), &Float(3.0))),
            ("filter_eq", |r| r.filter_eq(cell(0, 1), cell(0, 1))),
            ("sort", |r| r.sort_by_key(cell(0, 0))),
        ];
        // The first lookups of `c` scan, a later one builds its index, the
        // rest read its bucket.
        for run in 0..3 {
            for (name, step) in steps {
                for right in [None, Some(&other_entry)] {
                    let mut joined = Vec::new();
                    for picked in [false, true] {
                        let mut rows = RowSet::scan_entry(&entry);
                        step(&mut rows);
                        assert!(matches!(rows.sources[0].sel, Sel::All), "{name}");
                        if picked {
                            rows.pick((0..40).collect());
                        }
                        assert_eq!(rows.gather(), t, "run {run}: {name}");
                        let what = format!("run {run}: {name}, then a join, picked {picked}");
                        let read =
                            rows.hash_join_reading(cell(0, 0), scan_of(&other, right), 0);
                        joined.push((rows.gather(), read));
                        assert_eq!(joined.last().unwrap().0, want, "{what}");
                    }
                    assert_eq!(joined[0].1, joined[1].1, "run {run}: {name}: rows read");
                }
            }
        }
        // `c` got its index from the filter's second lookup, so the later
        // keep-all filters read a bucket; `k` of the filtered side never
        // served a lookup, as after a pick.
        assert_eq!(entry.column_indexes(), 1);
    }

    /// A `Sel::All` source adopts the positions a pick hands it; with two
    /// bare scans one adopts and one copies, and a selected source maps
    /// them through its own selection.
    #[test]
    fn a_pick_maps_every_source_through_the_positions() {
        let (l, r) = (tagged(&Column::Int(vec![5, 6, 7])), tagged(&Column::Int(vec![8, 9])));
        let mut rows = RowSet::scan(&l);
        let source = rows.product(RowSet::scan(&r));
        rows.pick(vec![5, 0, 3]);
        assert_eq!(tag_pairs(&rows, source), [(2, 1), (0, 0), (1, 1)]);
        let mut rows = RowSet::scan(&l);
        let source = rows.product(RowSet::unit());
        assert_eq!(source, 1);
        rows.pick(vec![2, 0]);
        rows.pick(vec![1]);
        assert_eq!(row_tags(&rows), [0]);
    }

    #[test]
    fn sort_is_stable_and_keyless_cells_sort_last() {
        let t = Table::new(vec![
            ("k", Column::Float(vec![2.0, f64::NAN, 1.0, 2.0, 0.5, 1.0])),
            ("row", Column::Int((0..6).collect())),
        ]);
        let sorted = ops::sort_by_int(&t, "k").unwrap();
        assert_eq!(sorted.column("row").unwrap(), &Column::Int(vec![2, 5, 0, 3, 1, 4]));
        // Strings never key: nothing moves.
        let s = Table::new(vec![("k", strs(&["b", "a"]))]);
        assert_eq!(ops::sort_by_int(&s, "k").unwrap(), s);
    }
}
