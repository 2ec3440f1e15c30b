//! Overhead guard: the disabled-tracing instrumentation path must not
//! allocate. Uses a counting global allocator with a *thread-local*
//! counter so concurrent harness threads cannot pollute the measurement.
//! (The companion "exactly one atomic gate load per span" bound is pinned
//! by the gate-load audit test inside the crate,
//! `trace::tests::disabled_span_costs_exactly_one_gate_load`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to `System`; the bookkeeping is a thread-local Cell
// bump, which itself performs no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(std::cell::Cell::get)
}

#[test]
fn disabled_instrumentation_path_does_not_allocate() {
    hadad_obs::set_tracing(false);

    // Warm up lazy registry state once: first use of a LazyCounter /
    // LazyHistogram leaks its registry entry by design.
    static C: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("test.overhead.counter");
    static H: hadad_obs::LazyHistogram = hadad_obs::LazyHistogram::new("test.overhead.hist");
    C.incr();
    H.record(7);
    drop(hadad_obs::span("test.overhead.warmup"));

    let before = allocs_on_this_thread();
    for i in 0..10_000u64 {
        let _s = hadad_obs::span("test.overhead.site");
        C.incr();
        H.record(i);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "disabled spans and counter/histogram updates must be allocation-free"
    );
}
