//! Plans are shared trees, pinned by allocator calls rather than a timer.
//! A 12-chain's 11 candidates share their operands' plans: `candidates`
//! builds each class's cheapest plan once, so its calls grow with the
//! classes (78), not with the candidates times their 12 leaves and 11
//! products (the copying extractor made 377 calls here). A cold 12-chain
//! `rewrite` and the drop of its plans stay at or below 400 calls: 355
//! were measured when plans became shared trees, and the slack absorbs a
//! stray allocation elsewhere in the pipeline while a return to copied
//! trees (the copying extractor made 723) still fails.
//!
//! Own test binary: it installs a counting `#[global_allocator]`, and the
//! count is only meaningful while nothing else runs — hence one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadad_core::expr::dsl::*;
use hadad_core::{Catalogue, Encoder, Expr, Extractor, LaAnalysis, MatrixMeta, MetaCatalog};
use hadad_rewrite::Optimizer;

/// The system allocator, counting the calls the measuring thread makes.
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
// none of which allocates or unwinds.
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

/// Allocator calls `f` makes on this thread (`alloc` and `realloc`).
fn calls_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, CALLS.load(Ordering::Relaxed) - before)
}

const N: usize = 12;

/// `A0 A1 … A11`, left-deep, over alternating 40 × 8 and 8 × 40 factors,
/// and its catalog.
fn chain() -> (Expr, MetaCatalog) {
    let mut cat = MetaCatalog::new();
    for i in 0..N {
        let (rows, cols) = if i % 2 == 0 { (40, 8) } else { (8, 40) };
        cat.register(format!("A{i}"), MatrixMeta::dense(rows, cols));
    }
    let e = (1..N).fold(m("A0"), |e, i| mul(e, m(&format!("A{i}"))));
    (e, cat)
}

#[test]
fn plans_share_their_subtrees() {
    let (e, cat) = chain();

    // The extractor the optimizer runs on a bare chain: its table in the
    // cells, which the chase has nothing to add to.
    let mut vrem = Catalogue::shared_standard().0.clone();
    let mut enc = Encoder::new(&mut vrem, &cat).encode(&e).expect("shape-valid");
    let budget = Optimizer::new(cat.clone()).budget();
    assert!(enc.tabulate_chains_as_cells(&vrem, &budget, &[]).is_some(), "the cells take it");
    let analysis = LaAnalysis::new(&vrem, std::mem::take(&mut enc.classes));
    let ex = Extractor::new(&vrem, &enc.instance, &analysis, &cat, &enc.cells);
    let (candidates, calls) = calls_of(|| ex.candidates(enc.root));
    assert_eq!(candidates.len(), N - 1, "one candidate per split of the root");
    let classes = N * (N + 1) / 2;
    let nodes: usize = candidates.iter().map(|(c, _)| c.node_count()).sum();
    assert_eq!(nodes, (N - 1) * (2 * N - 1), "each candidate is a whole 12-chain");
    assert!(
        calls <= classes + 8,
        "candidates made {calls} allocator calls (> {classes} classes + 8)"
    );

    // A cold rewrite and the drop of its plans, after a warm-up that
    // builds the shared catalogue and registers every counter.
    let opt = Optimizer::new(cat);
    drop(opt.rewrite(&e).expect("warm-up"));
    let ((), calls) = calls_of(|| drop(opt.rewrite(&e).expect("cold rewrite")));
    assert!(calls <= 400, "a cold 12-chain rewrite made {calls} allocator calls (> 400)");
}
