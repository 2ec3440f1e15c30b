//! Always-on observability for the HADAD pipeline: a lock-free metrics
//! registry (sharded counters + log2-bucketed histograms), tracing spans
//! gated by `HADAD_TRACE` with Chrome-trace export, and a bounded
//! structured event log.
//!
//! Design discipline mirrors `hadad-failpoint`: the *disabled* path must
//! cost at most one relaxed atomic load per span site and must not
//! allocate, so instrumentation can stay compiled into release builds.
//! Counters are always on — they are 8-way sharded relaxed atomics (the
//! same shard discipline as the plan cache), so an increment is one
//! `fetch_add` with no locking and no false sharing between threads.
//!
//! Everything lives in one process-wide registry: call-sites declare
//! [`LazyCounter`] / [`LazyHistogram`] statics, [`snapshot`] reads the
//! whole registry into a [`MetricsSnapshot`] that serializes to JSON, and
//! [`take_trace`] drains the per-thread span rings for
//! [`chrome_trace_json`].

mod events;
mod metrics;
mod trace;

pub use events::{event, events, take_events, Event, Severity, EVENT_CAPACITY};
pub use metrics::{
    counter, histogram, snapshot, Counter, CounterSnapshot, Histogram, HistogramSnapshot,
    LazyCounter, LazyHistogram, MetricsSnapshot, COUNTER_SHARDS, HISTOGRAM_BUCKETS,
};
pub use trace::{
    chrome_trace_json, set_tracing, span, take_trace, tracing_enabled, SpanGuard, SpanRecord,
    RING_CAPACITY,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Small dense per-thread ordinal (0, 1, 2, …) assigned on first use.
///
/// Shared by the counter shard picker (`ordinal % COUNTER_SHARDS`) and the
/// trace rings (`tid` in exported Chrome traces). Thread ordinals are never
/// reused within a process, so two live threads never alias.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Microseconds since the process-wide observability epoch (first call).
///
/// All span and event timestamps share this timebase so exported traces
/// from different subsystems line up on one axis.
pub fn now_us() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Runs `f` under a tracing span for `site`, records the elapsed
/// microseconds into `hist`, and returns `(result, elapsed_us)`.
///
/// This is the single timing primitive the legacy report structs
/// (`RewriteReport`, `MaintenanceReport`, …) derive their public timing
/// fields from: the value recorded into the shared registry and the value
/// placed in the report are the *same* measurement.
pub fn timed<T>(site: &'static str, hist: &LazyHistogram, f: impl FnOnce() -> T) -> (T, u128) {
    let _span = span(site);
    let start = Instant::now();
    let out = f();
    let us = start.elapsed().as_micros();
    hist.record(u64::try_from(us).unwrap_or(u64::MAX));
    (out, us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that flip the global tracing gate serialize on this lock so
    /// they cannot observe each other's state.
    pub(crate) static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn timed_records_into_histogram_and_returns_value() {
        static H: LazyHistogram = LazyHistogram::new("test.lib.timed_us");
        let before = snapshot().histogram("test.lib.timed_us").map_or(0, |h| h.count);
        let (v, us) = timed("test.timed", &H, || 41 + 1);
        assert_eq!(v, 42);
        let snap = snapshot();
        let h = snap.histogram("test.lib.timed_us").expect("histogram registered");
        assert_eq!(h.count, before + 1);
        assert!(h.sum >= u64::try_from(us).unwrap_or(u64::MAX) || us == 0);
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let mine = thread_ordinal();
        let other = std::thread::spawn(thread_ordinal).join().expect("spawn");
        assert_ne!(mine, other);
        assert_eq!(mine, thread_ordinal(), "ordinal is stable per thread");
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
