//! An update batch costs allocator calls per batch, not per row: inserting
//! and deleting 1 000 rows through the catalog against a 100 000-row
//! indexed table makes exactly as many allocator calls as 100 rows do. The
//! delta is a typed table plus a multiplicity column, netted in flat chains
//! and appended a column at a time — no `Vec` per row or per key, and every
//! buffer sized once.
//!
//! Own test binary: it installs a counting `#[global_allocator]`, and the
//! count is only meaningful while nothing else runs — hence one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadad_relational::{Catalog, Column, Table, Value};

/// The system allocator, counting the allocations and reallocations the
/// measuring thread asks for.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread while a measurement runs, so the harness's
    /// own threads never disturb the count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping before the call only
// touches an atomic and a const-initialised, destructor-free thread-local,
// neither of which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls_by(f: impl FnOnce()) -> usize {
    let before = CALLS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    CALLS.load(Ordering::Relaxed) - before
}

const ROWS: i64 = 100_000;

/// The row with key `tid`: the same four `Int` cells whenever it is drawn.
fn row(tid: i64) -> Vec<Value> {
    [tid, tid % 50, tid % 200, tid % 5].map(Value::Int).to_vec()
}

/// A steady stream over one table: each batch inserts `n` fresh rows and
/// deletes the `n` oldest.
struct Stream {
    catalog: Catalog,
    oldest: i64,
    next: i64,
}

impl Stream {
    /// Allocator calls of one `insert_rows` + `delete_rows` batch of `n`
    /// rows; the log is drained outside the measurement.
    fn batch(&mut self, n: i64) -> usize {
        let inserts: Vec<_> = (self.next..self.next + n).map(row).collect();
        let deletes: Vec<_> = (self.oldest..self.oldest + n).map(row).collect();
        (self.next, self.oldest) = (self.next + n, self.oldest + n);
        let calls = calls_by(|| {
            assert_eq!(self.catalog.insert_rows("t", inserts), Ok(n as usize));
            assert_eq!(self.catalog.delete_rows("t", deletes), Ok(n as usize));
        });
        let _ = self.catalog.take_updates();
        calls
    }
}

#[test]
fn a_batch_makes_as_many_allocator_calls_for_1000_rows_as_for_100() {
    let column = |f: fn(i64) -> i64| Column::Int((0..ROWS).map(f).collect());
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::new(vec![
            ("tid", column(|t| t)),
            ("uid", column(|t| t % 50)),
            ("topic", column(|t| t % 200)),
            ("level", column(|t| t % 5)),
        ]),
    );
    let mut stream = Stream { catalog, oldest: 0, next: ROWS };
    // Warm-up: the first retraction builds the row index, and a 1 000-row
    // batch grows the columns to the capacity the stream holds from then on.
    stream.batch(1_000);
    stream.batch(1_000);
    let small = stream.batch(100);
    let large = stream.batch(1_000);
    assert_eq!(large, small, "1 000 rows vs 100 rows");
    assert!(small < 64, "{small} allocator calls for one batch");
    stream.catalog.check_indexes().unwrap();
}
