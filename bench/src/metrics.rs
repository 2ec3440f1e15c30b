//! The names and units of every metric the bench prints. `BENCHMARK.json`
//! lists exactly these (a unit test compares the two), and every workload
//! reports every name: a metric that does not apply to a workload reads 0.

use std::collections::BTreeMap;

/// `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// Metrics a user of the system would see, from the untraced run. Each has a
/// regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, from the traced run; no bounds.
pub const PER_LAYER: &[MetricDef] = &[
    // rewrite.optimizer
    ("optimizer.rewrite_us_p50", "us"),
    ("optimizer.rewrite_us_p95", "us"),
    ("optimizer.rewrite_share", "ratio"),
    ("optimizer.accounted_share", "ratio"),
    // core.encode
    ("encode.us_per_op", "us"),
    ("encode.share", "ratio"),
    // chase.chase
    ("chase.us_per_op", "us"),
    ("chase.share", "ratio"),
    ("chase.rounds", "count"),
    ("chase.matches", "count"),
    ("chase.firings", "count"),
    ("chase.vetoes", "count"),
    ("chase.firings_per_match", "ratio"),
    ("chase.facts", "count"),
    ("chase.saturated_share", "ratio"),
    // core.extract
    ("extract.us_per_op", "us"),
    ("extract.share", "ratio"),
    ("extract.candidates", "count"),
    // rewrite.cost
    ("rank.us_per_op", "us"),
    ("rank.share", "ratio"),
    ("plan.est_cost_ratio", "ratio"),
    ("plan.rewritten_share", "ratio"),
    ("plan.exec_speedup", "ratio"),
    ("plan.speedup_vs_original", "ratio"),
    ("plan.breakeven_runs", "count"),
    // rewrite.eval + linalg.backend
    ("eval.best_us_p50", "us"),
    ("eval.best_share", "ratio"),
    ("eval.orig_us_p50", "us"),
    ("kernel.gemm", "count"),
    ("kernel.spmm", "count"),
    ("kernel.spgemm", "count"),
    ("kernel.dense_sparse", "count"),
    ("kernel.tmul_fused", "count"),
    ("kernel.flops_per_op", "count"),
    ("kernel.gflops_per_s", "Gflop/s"),
    ("kernel.parallel_vs_reference", "ratio"),
    ("kernel.threads", "count"),
    // chase.pacb
    ("pacb.us_per_op", "us"),
    ("pacb.share", "ratio"),
    ("pacb.rewritings", "count"),
    ("pacb.view_hit_share", "ratio"),
    // relational.ops
    ("relexec.us_per_op", "us"),
    ("relexec.share", "ratio"),
    ("relexec.rows_out_per_op", "count"),
    ("relexec.rows_scanned_per_row_out", "ratio"),
    // relational.cast
    ("cast.us_per_op", "us"),
    ("cast.share", "ratio"),
    ("cast.nnz_per_op", "count"),
    ("cast.recast_us_per_op", "us"),
    // rewrite.hybrid
    ("hybrid.rewrite_us_p50", "us"),
    ("hybrid.accounted_share", "ratio"),
    // rewrite.cache
    ("cache.hit_share", "ratio"),
    ("cache.hit_us_p50", "us"),
    ("cache.miss_us_p50", "us"),
    ("cache.evictions", "count"),
    ("cache.stale_refusals", "count"),
    // relational.ivm + rewrite.maintain
    ("maintain.apply_us_p50", "us"),
    ("maintain.propagate_us_p50", "us"),
    ("maintain.restamp_us_p50", "us"),
    ("maintain.restamp_share", "ratio"),
    ("maintain.rows_per_s", "1/s"),
    ("maintain.rows_touched_per_batch", "count"),
    ("maintain.remat_us_p50", "us"),
    ("maintain.speedup_vs_remat", "ratio"),
    // rewrite.hybrid snapshot
    ("snapshot.publish_us_p50", "us"),
    ("snapshot.publishes", "count"),
    ("snapshot.reads", "count"),
    ("snapshot.load_us_p95", "us"),
    ("snapshot.epoch_lag_p95", "count"),
    ("writer.late_us_p95", "us"),
    // Demoted from end-to-end: applies to one workload / reads 0 by design.
    ("write_latency_p50_us", "us"),
    ("failed_share", "ratio"),
    // bench
    ("trace.overhead_ratio", "ratio"),
    ("host.speed", "ratio"),
    ("counts_repeat", "count"),
    ("corpus_hash", "count"),
];

/// Counts that must repeat exactly for one seed on a single-threaded
/// workload (`counts_repeat`, and what `aa` compares across processes).
pub const DETERMINISTIC_COUNTS: &[&str] = &[
    "chase.firings",
    "chase.matches",
    "kernel.gemm",
    "kernel.spmm",
    "kernel.spgemm",
    "kernel.dense_sparse",
    "kernel.tmul_fused",
    "corpus_hash",
];

/// Metric values keyed by name.
pub type Values = BTreeMap<&'static str, f64>;

/// `values` completed to exactly the names of `defs`: absent names read 0,
/// non-finite values read 0, names outside `defs` are a bug.
pub fn complete(defs: &[MetricDef], mut values: Values) -> Vec<(MetricDef, f64)> {
    let out = defs
        .iter()
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        .map(|&d| (d, values.remove(d.0).filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0))
        .collect();
    assert!(values.is_empty(), "metrics not declared in metrics.rs: {:?}", values.keys());
    out
}
