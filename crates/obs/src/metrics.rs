//! Lock-free metrics: sharded counters, log2-bucketed histograms, and the
//! process-wide registry with JSON snapshot export.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::thread_ordinal;

/// Number of atomic shards per counter — matches the plan cache's 8-way
/// sharding so concurrent writers on different threads rarely contend on
/// one cache line.
pub const COUNTER_SHARDS: usize = 8;

/// One cache-line-aligned atomic cell, so adjacent shards never false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

impl Shard {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }
}

/// A monotonically increasing counter, sharded [`COUNTER_SHARDS`] ways.
///
/// Increments are a single relaxed `fetch_add` on the caller thread's
/// shard; reads sum all shards. Relaxed ordering is sufficient because a
/// counter carries no cross-thread happens-before obligation — totals are
/// still exact (no lost updates), which `tests` assert under contention.
pub struct Counter {
    shards: [Shard; COUNTER_SHARDS],
}

impl Counter {
    /// New zeroed counter (usable standalone, outside the registry).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            shards: [
                Shard::new(),
                Shard::new(),
                Shard::new(),
                Shard::new(),
                Shard::new(),
                Shard::new(),
                Shard::new(),
                Shard::new(),
            ],
        }
    }

    /// Adds `n` to the counter (relaxed, lock-free).
    pub fn add(&self, n: u64) {
        let shard = usize::try_from(thread_ordinal()).unwrap_or(0) % COUNTER_SHARDS;
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values with bit length `i`, i.e. `2^(i-1) ≤ v < 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically microseconds).
///
/// Recording is two relaxed `fetch_add`s (bucket + sum); buckets cover the
/// full `u64` range at power-of-two resolution, which is plenty for the
/// latency-distribution claims the bench makes (p50/p95 within 2×).
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// New empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample (relaxed, lock-free).
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts and sum.
    #[must_use]
    pub fn read(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            name: String::new(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.read();
        f.debug_struct("Histogram").field("count", &snap.count).field("sum", &snap.sum).finish()
    }
}

/// Inclusive upper bound of bucket `i`: 0 for the zero bucket, otherwise
/// `2^i − 1`.
#[must_use]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

enum Handle {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<Vec<(&'static str, Handle)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, Handle)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The registered counter named `name`, creating (and leaking) it on
/// first use. The lock is taken only here — increments through the
/// returned reference are lock-free.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (n, h) in reg.iter() {
        if *n == name {
            if let Handle::Counter(c) = h {
                return c;
            }
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.push((name, Handle::Counter(c)));
    c
}

/// The registered histogram named `name`, creating (and leaking) it on
/// first use. Same locking discipline as [`counter`].
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (n, h) in reg.iter() {
        if *n == name {
            if let Handle::Histogram(hist) = h {
                return hist;
            }
        }
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.push((name, Handle::Histogram(h)));
    h
}

/// A call-site counter static: resolves its registry entry once, then
/// every use is a single relaxed `fetch_add`.
///
/// ```
/// static FIRINGS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("chase.rule_firings");
/// FIRINGS.incr();
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declares a counter bound to registry entry `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self { name, cell: OnceLock::new() }
    }

    /// The underlying registered counter.
    pub fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.get().incr();
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.get().get()
    }
}

/// A call-site histogram static; see [`LazyCounter`].
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// Declares a histogram bound to registry entry `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self { name, cell: OnceLock::new() }
    }

    /// The underlying registered histogram.
    pub fn get(&self) -> &'static Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.get().record(v);
    }
}

/// Point-in-time value of one registered counter.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Registry name, e.g. `"chase.rule_firings"`.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// Point-in-time state of one registered histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Registry name, e.g. `"rewrite.total_us"`.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Per-bucket counts; bucket `i` covers `2^(i-1) ≤ v < 2^i` (bucket 0
    /// holds zeros).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Approximate quantile `q ∈ [0, 1]`: the inclusive upper bound of the
    /// bucket containing the `ceil(q·count)`-th sample (so at most 2×
    /// above the true value). Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        // `count` came from a u64 sum of bucket loads; precision loss here
        // only shifts the target within a bucket.
        let mut target = (clamped * self.count as f64).ceil() as u64;
        target = target.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(self.buckets.len() - 1)
    }

    /// Mean sample value, or 0 for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A consistent-enough point-in-time copy of the whole registry (each
/// metric is read atomically; the set is read under the registry lock).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The histogram named `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to a stable JSON document:
    /// `{"counters": {..}, "histograms": {name: {count, sum, mean, p50,
    /// p95, p99, buckets: [[upper_bound, count], ..]}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape_json(&c.name), c.value));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                escape_json(&h.name),
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("[{}, {}]", bucket_upper_bound(b), c));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Reads every registered metric into a [`MetricsSnapshot`], sorted by
/// name for deterministic export.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut counters = Vec::new();
    let mut histograms = Vec::new();
    for (name, h) in reg.iter() {
        match h {
            Handle::Counter(c) => {
                counters.push(CounterSnapshot { name: (*name).to_owned(), value: c.get() });
            }
            Handle::Histogram(hist) => {
                let mut snap = hist.read();
                snap.name = (*name).to_owned();
                histograms.push(snap);
            }
        }
    }
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { counters, histograms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_totals_are_exact_under_contention() {
        // The real lost-update check for the sharding scheme: 8 threads
        // hammering one counter must sum to exactly threads × iters.
        static C: LazyCounter = LazyCounter::new("test.metrics.exact");
        let before = C.value();
        let threads = 8;
        let iters = 100_000u64;
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..iters {
                        C.incr();
                    }
                });
            }
        });
        assert_eq!(C.value() - before, threads * iters, "lost updates in sharded counter");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(3); // bucket 2
        for _ in 0..7 {
            h.record(100); // bucket 7 (64..=127)
        }
        let mut snap = h.read();
        snap.name = "t".into();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum, 704);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[7], 7);
        // p50 and p95 both land in the 64..=127 bucket.
        assert_eq!(snap.quantile(0.50), 127);
        assert_eq!(snap.quantile(0.95), 127);
        // Minimum lands in the zero bucket.
        assert_eq!(snap.quantile(0.0), 0);
        assert!((snap.mean() - 70.4).abs() < 1e-9);
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let snap = h.read();
        assert_eq!(snap.buckets[64], 1);
        let mut named = snap;
        named.name = "t".into();
        assert_eq!(named.quantile(1.0), u64::MAX);
    }

    #[test]
    fn registry_dedupes_by_name() {
        let a = counter("test.metrics.dedupe");
        let b = counter("test.metrics.dedupe");
        assert!(std::ptr::eq(a, b), "same name must resolve to the same counter");
        a.add(3);
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn snapshot_exports_json() {
        counter("test.metrics.export_c").add(5);
        histogram("test.metrics.export_h").record(1000);
        let snap = snapshot();
        assert!(snap.counter("test.metrics.export_c").unwrap_or(0) >= 5);
        let json = snap.to_json();
        assert!(json.contains("\"test.metrics.export_c\""));
        assert!(json.contains("\"test.metrics.export_h\""));
    }
}
