//! A sparse cast costs what it stores, pinned by bytes rather than a timer:
//! casting 1 000 rows into a 202 000-row id space requests under 64 KiB from
//! the allocator (a flat row-pointer array alone would be 1.6 MB), and the
//! same rows into a ten times larger id space request exactly as much; a
//! sorted 40 000-row cast requests its four matrix arrays and nothing else.
//!
//! Own test binary: it installs a counting `#[global_allocator]`, and the
//! count is only meaningful while nothing else runs — hence one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadad_relational::{cast, Column, Table};

/// The system allocator, summing the bytes the measuring thread requests.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread while a measurement runs, so the harness's
    /// own threads never disturb the count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping before the call only
// touches an atomic and a const-initialised, destructor-free thread-local,
// neither of which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` requests from the allocator on this thread (a `realloc` counts
/// its whole new size).
fn bytes_requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn a_sparse_cast_allocates_for_its_rows_not_for_the_id_space() {
    const ROWS: usize = 1_000;
    // One selected tuple in 202, in `tid` order — a `select_sparse` prefix.
    let tids = |stride: i64| Column::Int((0..ROWS as i64).map(|i| i * stride).collect());
    let table = |stride: i64| {
        Table::new(vec![
            ("tid", tids(stride)),
            ("topic", Column::Int((0..ROWS as i64).map(|i| i * 7 % 200).collect())),
            ("level", Column::Int((0..ROWS as i64).map(|i| i % 4 + 1).collect())),
        ])
    };
    let (small, large) = (table(202), table(2_020));

    let cast_into = |t: &Table, rows: usize| {
        bytes_requested_by(|| cast::table_to_sparse(t, "tid", "topic", "level", rows, 200))
    };
    let (m, bytes) = cast_into(&small, 202_000);
    assert_eq!((m.shape(), m.nnz()), ((202_000, 200), ROWS));
    assert!(bytes < 64 * 1024, "{bytes} B for {ROWS} rows into 202 000 x 200");

    let (wide, wide_bytes) = cast_into(&large, 2_020_000);
    assert_eq!((wide.shape(), wide.nnz()), ((2_020_000, 200), ROWS));
    assert_eq!(wide_bytes, bytes, "ten times the id space, the same rows");

    // Out of table order (a maintained view after deletes) the cast sorts
    // once: more than the in-order cast, still nothing like the id space.
    let shuffled = Table::new(vec![
        ("tid", Column::Int((0..ROWS as i64).map(|i| i * 7919 % ROWS as i64 * 202).collect())),
        ("topic", Column::Int(vec![3; ROWS])),
        ("level", Column::Int(vec![1; ROWS])),
    ]);
    let (sorted, sort_bytes) = cast_into(&shuffled, 202_000);
    assert_eq!(sorted.nnz(), ROWS);
    assert!(sort_bytes < 128 * 1024, "{sort_bytes} B for {ROWS} shuffled rows");

    // A `level_sparse` prefix: 40 000 tuples, one per stored row, in `tid`
    // order. The bulk cast requests its four arrays at their exact size —
    // row ids, starts, indices, values, eight bytes an entry each — with no
    // growth and no intermediate triplet vector.
    const BULK: usize = 40_000;
    let bulk = Table::new(vec![
        ("tid", Column::Int((0..BULK as i64).map(|i| i * 5 + i % 3).collect())),
        ("topic", Column::Int((0..BULK as i64).map(|i| i * 7 % 200).collect())),
        ("level", Column::Int((0..BULK as i64).map(|i| i % 4 + 1).collect())),
    ]);
    let (m, bulk_bytes) = cast_into(&bulk, 202_000);
    assert_eq!((m.shape(), m.nnz()), ((202_000, 200), BULK));
    assert!(
        bulk_bytes <= 4 * 8 * BULK + 1024,
        "{bulk_bytes} B for {BULK} sorted rows into 202 000 x 200"
    );
}
