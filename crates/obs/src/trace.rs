//! Tracing spans: RAII guards recording `(site, thread, t_start, t_end)`
//! into bounded per-thread ring buffers, gated by `HADAD_TRACE`.
//!
//! Gate discipline (stricter than `hadad-failpoint`, which pays an armed
//! flag *and* a `OnceLock` load): a single `AtomicU8` encodes
//! uninitialized / off / on, so once initialized the disabled path is
//! exactly **one relaxed atomic load** and no allocation. Unit-test builds
//! count gate loads per thread so the overhead guard test can assert that
//! bound instead of trusting it; no other build carries the counter.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::LazyCounter;
use crate::{now_us, thread_ordinal};

/// Per-thread span ring capacity. A full ring drops *new* spans (the
/// earliest records — startup, first rewrite — are usually the ones worth
/// keeping) and counts the loss in the `trace.dropped_spans` metric.
pub const RING_CAPACITY: usize = 16_384;

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

static DROPPED: LazyCounter = LazyCounter::new("trace.dropped_spans");

/// Gate-load audit instrumentation, compiled for unit tests only: counts
/// how many atomic loads of the tracing gate the current thread has
/// performed, so tests can pin the disabled-span cost to exactly one load
/// per site.
#[cfg(test)]
mod audit {
    use std::cell::Cell;

    thread_local! {
        static GATE_LOADS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn note_load() {
        GATE_LOADS.with(|c| c.set(c.get() + 1));
    }

    /// Gate loads performed by the current thread since the last [`reset`].
    #[must_use]
    pub fn gate_loads() -> u64 {
        GATE_LOADS.with(std::cell::Cell::get)
    }

    /// Zeroes the current thread's gate-load count.
    pub fn reset() {
        GATE_LOADS.with(|c| c.set(0));
    }
}

#[cfg(test)]
fn note_gate_load() {
    audit::note_load();
}

#[cfg(not(test))]
#[inline(always)]
fn note_gate_load() {}

/// Whether tracing is currently enabled. Steady-state cost: one relaxed
/// atomic load. The first call parses `HADAD_TRACE` (any value other than
/// empty / `0` / `off` / `false` arms tracing).
#[inline]
pub fn tracing_enabled() -> bool {
    note_gate_load();
    match STATE.load(Ordering::Relaxed) {
        UNINIT => init_from_env(),
        s => s == ON,
    }
}

#[cold]
fn init_from_env() -> bool {
    let armed = std::env::var("HADAD_TRACE").is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        !(v.is_empty() || v == "0" || v == "off" || v == "false")
    });
    let parsed = if armed { ON } else { OFF };
    // Lose gracefully to a concurrent `set_tracing` that beat us here.
    match STATE.compare_exchange(UNINIT, parsed, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => armed,
        Err(current) => current == ON,
    }
}

/// Programmatically arms or disarms tracing (overrides `HADAD_TRACE`).
/// Used by the bench's instrumentation-overhead duel and `xtask obs-dump`.
pub fn set_tracing(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// One completed span: a `site` executed on `thread` from `start_us` to
/// `end_us` (process-epoch microseconds, see [`crate::now_us`]).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Instrumentation site, e.g. `"chase"` or `"kernel.multiply"`.
    pub site: &'static str,
    /// Dense per-thread ordinal (the Chrome trace `tid`).
    pub thread: u64,
    /// Span start, microseconds since the process observability epoch.
    pub start_us: u64,
    /// Span end, microseconds since the process observability epoch.
    pub end_us: u64,
}

struct Ring {
    records: Vec<SpanRecord>,
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn local_ring() -> Arc<Mutex<Ring>> {
    thread_local! {
        static LOCAL: Arc<Mutex<Ring>> = {
            let ring = Arc::new(Mutex::new(Ring { records: Vec::new() }));
            rings()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Arc::clone(&ring));
            ring
        };
    }
    LOCAL.with(Arc::clone)
}

fn record_span(site: &'static str, start_us: u64, end_us: u64) {
    let ring = local_ring();
    let mut guard = ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if guard.records.len() < RING_CAPACITY {
        guard.records.push(SpanRecord { site, thread: thread_ordinal(), start_us, end_us });
    } else {
        DROPPED.incr();
    }
}

/// RAII span guard returned by [`span`]; records on drop when armed.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    site: &'static str,
    start_us: u64,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record_span(self.site, self.start_us, now_us());
        }
    }
}

/// Opens a tracing span for `site`, closed (and recorded) when the guard
/// drops. When tracing is disabled this is one relaxed atomic load and a
/// stack write — no allocation, no clock read.
pub fn span(site: &'static str) -> SpanGuard {
    if tracing_enabled() {
        SpanGuard { site, start_us: now_us(), armed: true }
    } else {
        SpanGuard { site, start_us: 0, armed: false }
    }
}

/// `span!(site)` — expression form of [`span`], mirroring
/// `failpoint`-style site macros: `let _g = hadad_obs::span!("chase");`.
#[macro_export]
macro_rules! span {
    ($site:expr) => {
        $crate::span($site)
    };
}

/// Drains every thread's span ring, returning all records sorted by start
/// time. Spans recorded after the drain begin accumulating again.
pub fn take_trace() -> Vec<SpanRecord> {
    let rings = rings().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out = Vec::new();
    for ring in rings.iter() {
        let mut guard = ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        out.append(&mut guard.records);
    }
    drop(rings);
    out.sort_by_key(|r| (r.start_us, r.thread));
    out
}

/// Serializes span records as Chrome `chrome://tracing` JSON (an array of
/// complete `"ph": "X"` duration events; load via the Perfetto / Chrome
/// trace viewer).
#[must_use]
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"hadad\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            r.site,
            r.start_us,
            r.end_us.saturating_sub(r.start_us),
            r.thread
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TRACE_TEST_LOCK;

    #[test]
    fn disabled_span_costs_exactly_one_gate_load() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracing(false);
        drop(span("warmup")); // settle the gate + any lazy state
        audit::reset();
        let n = 1_000u64;
        for _ in 0..n {
            let _s = span("test.disabled");
        }
        assert_eq!(
            audit::gate_loads(),
            n,
            "disabled span must cost exactly one atomic gate load per site"
        );
    }

    #[test]
    fn armed_spans_are_recorded_and_drained() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracing(true);
        {
            let _s = span("test.trace.outer");
            let _inner = span("test.trace.inner");
        }
        set_tracing(false);
        let records = take_trace();
        let outer = records.iter().find(|r| r.site == "test.trace.outer");
        let inner = records.iter().find(|r| r.site == "test.trace.inner");
        let (outer, inner) = (outer.expect("outer recorded"), inner.expect("inner recorded"));
        assert!(outer.start_us <= inner.start_us, "outer opens first");
        assert!(outer.end_us >= inner.end_us, "guards drop inner-first");
        assert_eq!(outer.thread, inner.thread);
        // Drained: a second take sees none of these sites.
        assert!(take_trace().iter().all(|r| !r.site.starts_with("test.trace.")));
    }

    #[test]
    fn chrome_export_shape() {
        let records = vec![
            SpanRecord { site: "a", thread: 0, start_us: 10, end_us: 25 },
            SpanRecord { site: "b", thread: 1, start_us: 12, end_us: 13 },
        ];
        let json = chrome_trace_json(&records);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        // Every field a Chrome-trace consumer needs, on every event.
        for event in json.lines().filter(|l| l.contains('{')) {
            for field in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(event.contains(&format!("\"{field}\": ")), "{event} lost {field}");
            }
        }
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"ts\": 10"));
        assert!(json.contains("\"dur\": 15"));
        assert!(json.contains("\"tid\": 1"));
    }

    #[test]
    fn span_macro_expands_to_guard() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracing(false);
        let g = crate::span!("test.macro");
        drop(g);
    }
}
