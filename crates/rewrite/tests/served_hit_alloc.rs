//! A served hit shares the entry it reads, pinned by bytes rather than a
//! timer. A same-name plan-cache hit on a 12-chain requests the same bytes
//! whether its entry holds 11 plans or 12, and at most three deep copies
//! of its input expression: it copies neither the entry's plans nor its
//! 68 rule counters (a deep copy of either alone exceeds that bound). A
//! clone of an expression only bumps a refcount, so the yardstick is a
//! rebuild of the input that shares no node or name with it. A
//! snapshot's prefix-memo hit on an 850-row prefix requests fewer bytes
//! than one column of the prefix's output: it copies neither the table
//! nor the cast.
//!
//! Own test binary: it installs a counting `#[global_allocator]`, and the
//! count is only meaningful while nothing else runs — hence one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog};
use hadad_relational::{Catalog, Column, Table};
use hadad_rewrite::{
    CastKind, HybridOptimizer, HybridPipeline, Optimizer, RankedPlans, RelQuery,
};

/// The system allocator, summing the calls and bytes the measuring thread
/// requests.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread while a measurement runs, so the harness's
    /// own threads never disturb the count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping before the call only
// touches two atomics and a const-initialised, destructor-free
// thread-local, none of which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and bytes `f` requests on this thread (a `realloc`
/// counts its whole new size).
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, CALLS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes)
}

/// `A0 A1 … A{n-1}`, left-deep.
fn chain(n: usize) -> Expr {
    (1..n).fold(m("A0"), |e, i| mul(e, m(&format!("A{i}"))))
}

/// A copy of the product chain `e` that shares no node or name with it.
fn deep_copy(e: &Expr) -> Expr {
    match e {
        Expr::Mat(name) => m(name),
        Expr::Mul(a, b) => mul(deep_copy(a), deep_copy(b)),
        _ => unreachable!("{e} is no product chain"),
    }
}

/// A primed same-name hit on the 12-chain over `dims` (matrix `Ai` is
/// `dims[i] x dims[i + 1]`): the cold pass's plans, and the bytes the hit
/// requests.
fn same_name_hit(dims: [usize; 13]) -> (RankedPlans, usize) {
    let mut cat = MetaCatalog::new();
    for i in 0..12 {
        cat.register(format!("A{i}"), MatrixMeta::dense(dims[i], dims[i + 1]));
    }
    let opt = Optimizer::new(cat).with_plan_cache(16);
    let e = chain(12);
    let cold = opt.rewrite(&e).expect("cold rewrite");
    assert!(opt.rewrite(&e).expect("warm-up hit").report.cache.hit);
    let (hit, _, bytes) = requested_by(|| opt.rewrite(&e).expect("hit"));
    assert!(hit.report.cache.hit, "a same-name repeat hits");
    (cold, bytes)
}

#[test]
fn a_served_hit_copies_nothing_its_entry_holds() {
    // Plan cache: two entries for one input, one plan apart.
    let (rect, rect_bytes) = same_name_hit([40, 8, 40, 8, 40, 8, 40, 8, 40, 8, 40, 8, 40]);
    let (square, square_bytes) = same_name_hit([30; 13]);
    assert_ne!(rect.plans.len(), square.plans.len(), "the entries differ in plan count");
    assert_eq!(rect_bytes, square_bytes, "a hit's bytes follow its entry's plan count");

    let e = chain(12);
    let (_, _, input) = requested_by(|| deep_copy(&e));
    let bound = 3 * input;
    assert!(rect_bytes <= bound, "a same-name hit requested {rect_bytes} bytes (> {bound})");
    let deep_plans = || rect.plans.iter().map(|p| deep_copy(&p.expr)).collect::<Vec<_>>();
    let (_, _, plans) = requested_by(deep_plans);
    let (_, _, rules) = requested_by(|| (*rect.report.chase_stats).clone());
    assert_eq!(rect.report.chase_stats.rules.len(), 68);
    assert!(rect_bytes + plans > bound, "a deep copy of the plans ({plans} bytes) fits");
    assert!(
        rect_bytes + rules > bound,
        "a deep copy of the rule counters ({rules} bytes) fits"
    );

    // Prefix memo: a snapshot answers an 850-row prefix, then serves it.
    const ROWS: i64 = 1700;
    let events = Table::new(vec![
        ("eid", Column::Int((0..ROWS).collect())),
        ("kind", Column::Int((0..ROWS).map(|i| i % 2).collect())),
        ("score", Column::Float((0..ROWS).map(|i| i as f64 * 0.5).collect())),
    ]);
    let mut catalog = Catalog::new();
    catalog.register("events", events);
    let mut la = MetaCatalog::new();
    la.register("w", MatrixMeta::dense(2, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la).with_plan_cache(16));
    let snapshot = hy.reader().expect("a clean state publishes").current();
    let p = HybridPipeline {
        prefix: RelQuery::scan("events").select_eq("kind", 1),
        sort_key: Some("eid".into()),
        cast: CastKind::Dense { columns: vec!["eid".into(), "score".into()] },
        cast_name: "E".into(),
        suffix: mul(m("E"), m("w")),
    };
    let cold = snapshot.rewrite_hybrid(&p).expect("memo miss");
    assert!(snapshot.rewrite_hybrid(&p).expect("warm-up hit").rel.memo_hit);
    let (hit, _, bytes) = requested_by(|| snapshot.rewrite_hybrid(&p).expect("memo hit"));
    assert!(hit.rel.memo_hit && hit.ranked.report.cache.hit);
    assert_eq!(hit.rel.rows_out, 850);
    let column = 850 * size_of::<f64>();
    assert!(bytes < column, "a memo hit requested {bytes} bytes (≥ one {column}-byte column)");
    let (_, _, table) = requested_by(|| (*cold.table).clone());
    let (_, _, cast) = requested_by(|| (*cold.cast).clone());
    assert!(table >= column && cast >= column, "copies: table {table}, cast {cast} bytes");
}
