//! The five workloads and what they share: the measurement loop, the
//! traced-run accumulators, and the derivation of per-layer metrics from
//! spans and counts.

pub mod hybrid;
pub mod ivm;
pub mod la;
pub mod serve;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hadad_core::Expr;
use hadad_linalg::{approx_eq, Matrix, SOUNDNESS_RTOL};
use hadad_relational::Table;
use hadad_rewrite::{CastKind, RankedPlans};

use crate::metrics::Values;
use crate::stats::{median, p50_p95};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::yardstick::HostSpeed;

/// `(name, why)` of every workload, in run order. The `why` sentences are
/// what `BENCHMARK.json` stores.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "la_rewrite",
        "48 long-but-small LA pipelines: chase+extract+rank dominate an op and kernels are under 20%, so a chase, pruner or extraction change shows and a kernel change does not",
    ),
    (
        "la_exec",
        "9 short pipelines over large operands whose best plan is still heavy: kernels are over 90% of an op, so a kernel change shows and a costlier chase does not",
    ),
    (
        "hybrid_query",
        "13 hybrid pipelines over a 200k-row table, 7 answerable from a view: PACB, relational execution and the cast are most of an op and the LA chase is small",
    ),
    (
        "ivm_stream",
        "one writer, no reader: 1000-insert + 1000-delete batches against select and join views with two maintained casts, so apply, propagate and restamp are the whole op",
    ),
    (
        "serve_mixed",
        "snapshot readers with a Zipf mix over 64 pipelines and a 32-entry plan cache beside a 100 ms open-loop writer: cache behaviour, snapshot publish cost and read/write interference",
    ),
];

/// The kernels every workload evaluates plans on: the `Parallel` backend on
/// one thread. The default backend spawns its workers anew for every product
/// with two or more output rows, and thread start-up is what a busy shared
/// host slows most (3× in its slow phases against 1.3× for the chase): on two
/// threads `la_exec` ran only 1.2× faster than on one and its tail spread
/// six times as wide from run to run, and on `la_rewrite`'s ≤ 64-dimension
/// products `eval_with` took ~1 ms instead of 37 µs. So the bench keeps to
/// one busy thread per workload (`serve_mixed`: per reader), and the default
/// backend is measured only by `kernel.parallel_vs_reference`.
pub static KERNELS: hadad_linalg::Parallel = hadad_linalg::Parallel::with_threads(1);

/// Span names: one per layer (module) a public call crosses.
pub mod layer {
    pub const OP: &str = "op";
    pub const OPTIMIZER: &str = "rewrite.optimizer";
    pub const ENCODE: &str = "core.encode";
    pub const CHASE: &str = "chase.chase";
    pub const EXTRACT: &str = "core.extract";
    pub const RANK: &str = "rewrite.cost";
    pub const EVAL: &str = "rewrite.eval";
    pub const HYBRID: &str = "rewrite.hybrid";
    pub const PACB: &str = "chase.pacb";
    pub const RELEXEC: &str = "relational.ops";
    pub const CAST: &str = "relational.cast";
    pub const RECAST: &str = "relational.cast.recast";
    pub const APPLY: &str = "relational.ivm";
    pub const MAINTAIN: &str = "rewrite.maintain";
    pub const PROPAGATE: &str = "rewrite.maintain.propagate";
    pub const RESTAMP: &str = "rewrite.maintain.restamp";
    pub const SNAPSHOT_LOAD: &str = "rewrite.hybrid.snapshot_load";
}

/// What the traced run keeps besides spans: named sums (counts the public
/// reports return) and named sample lists.
pub struct Traced {
    pub tracer: Tracer,
    sums: BTreeMap<&'static str, f64>,
    lists: BTreeMap<&'static str, Vec<f64>>,
    next_op: u32,
}

impl Traced {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Traced {
            tracer: Tracer::new(epoch, tid),
            sums: BTreeMap::new(),
            lists: BTreeMap::new(),
            next_op: tid << 24,
        }
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self) -> SpanId {
        self.begin_root(layer::OP)
    }

    /// Opens a root span called `name`, a new operation of its own.
    pub fn begin_root(&mut self, name: &'static str) -> SpanId {
        self.next_op += 1;
        self.tracer.begin(name, self.next_op, NO_PARENT)
    }

    /// Opens a child span in the same operation as `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let op = self.tracer.spans[parent as usize].op;
        self.tracer.begin(name, op, parent)
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        self.tracer.end(id)
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn push(&mut self, name: &'static str, v: f64) {
        self.lists.entry(name).or_default().push(v);
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn list(&self, name: &str) -> Vec<f64> {
        self.lists.get(name).cloned().unwrap_or_default()
    }

    pub fn merge(&mut self, other: Traced) {
        self.tracer.merge(other.tracer);
        for (k, v) in other.sums {
            *self.sums.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.lists {
            self.lists.entry(k).or_default().extend(v);
        }
    }

    /// Child spans and counts for one `Optimizer::rewrite` report.
    pub fn record_rewrite(&mut self, span: SpanId, ranked: &RankedPlans, original: &Expr) {
        let r = &ranked.report;
        if !r.cache.hit {
            // A served hit's phase fields describe the cold pass that filled
            // the cache, not this call.
            self.tracer.phases(
                span,
                &[
                    (layer::ENCODE, r.encode_us),
                    (layer::CHASE, r.chase_us),
                    (layer::EXTRACT, r.extract_us),
                    (layer::RANK, r.rank_us),
                ],
            );
            self.add(
                "optimizer.phases_us",
                (r.encode_us + r.chase_us + r.extract_us + r.rank_us) as f64,
            );
            self.add("optimizer.elapsed_us", r.elapsed_us as f64);
            self.add("chase.rounds", r.chase_rounds as f64);
            self.add("chase.matches", r.chase_stats.matches_enumerated() as f64);
            self.add("chase.firings", r.chase_stats.firings() as f64);
            self.add("chase.vetoes", r.pruned_firings as f64);
            self.add("chase.facts", r.num_facts as f64);
            let saturated = r.chase_outcome == hadad_chase::ChaseOutcome::Saturated;
            self.add("chase.saturated", f64::from(u8::from(saturated)));
            self.add("extract.candidates", r.num_candidates as f64);
            self.add("rewrite.cold_calls", 1.0);
        }
        let (best, orig) = (ranked.best().est_cost, ranked.original.est_cost);
        self.add("plan.est_cost_ratio", if orig > 0.0 { best / orig } else { 1.0 });
        self.add("plan.rewritten", f64::from(u8::from(&ranked.best().expr != original)));
        self.add("rewrite.calls", 1.0);
    }
}

/// Outcome of one timed operation.
pub struct OpResult {
    pub latency: Duration,
    pub failed: bool,
}

/// A single-threaded, closed-loop workload: a fixed list of operations run
/// pass after pass.
pub trait Workload {
    fn ops_per_pass(&self) -> usize;
    /// Runs operation `i` of a pass and times it. Only the calls into the
    /// system are inside `latency`; input preparation and checks are not.
    fn op(&mut self, i: usize, tr: Option<&mut Traced>) -> OpResult;
    /// Untimed work between passes (periodic checks). Returns how many of the
    /// operations already counted it found to have failed.
    fn after_pass(&mut self, _pass: usize, _tr: Option<&mut Traced>) -> u64 {
        0
    }
    /// Untimed work once the last pass is done: checks `after_pass` has not
    /// yet run. Returns failures like `after_pass`.
    fn finish(&mut self, _tr: Option<&mut Traced>) -> u64 {
        0
    }
    /// Times exec(original) of every query once, before the traced interval
    /// starts, so those extra kernel calls stay out of its counts.
    fn time_originals(&mut self, _tr: &mut Traced) {}
    fn corpus_hash(&self) -> u32;
}

/// What a measured interval produced.
#[derive(Default)]
pub struct Measured {
    /// Wall latency of every operation, in order.
    pub latencies_ns: Vec<f64>,
    /// Per operation, the factor that scales its latency to reference host
    /// speed (`yardstick::HostSpeed::factors`).
    pub speed_factors: Vec<f64>,
    /// Process-wide counter values at the start and after every pass (traced
    /// runs only): equal consecutive differences mean the counts repeat.
    pub pass_counts: Vec<Vec<u64>>,
    /// Closed-loop clients whose operations these are (`serve_mixed`'s
    /// reader threads); 0 reads as 1.
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// Every operation's latency at reference host speed.
    fn at_reference_speed(&self) -> Vec<f64> {
        self.latencies_ns.iter().zip(&self.speed_factors).map(|(l, f)| l * f).collect()
    }

    /// Operations per second of time spent inside operations (per client,
    /// times the clients), at reference host speed. Every end-to-end timing
    /// is taken there: the host changes speed by up to 1.6× in phases that
    /// outlast a run, so wall time alone compares two host states, not two
    /// versions of the code.
    pub fn ops_per_s(&self) -> f64 {
        let total_s = self.at_reference_speed().iter().sum::<f64>() / 1e9;
        self.clients.max(1) as f64 * self.latencies_ns.len() as f64 / total_s
    }

    /// Wall time inside operations (not scaled: the base of layer shares).
    pub fn total_ns(&self) -> f64 {
        self.latencies_ns.iter().sum()
    }

    /// `(p50, p95)` op latency in microseconds at reference host speed.
    pub fn latency_us(&self) -> (f64, f64) {
        let (p50, p95) = p50_p95(&mut self.at_reference_speed());
        (p50 / 1e3, p95 / 1e3)
    }

    /// Median speed factor of the interval's operations.
    pub fn host_speed(&self) -> f64 {
        median(&self.speed_factors)
    }
}

/// Current values of the process-wide counters `names`.
pub fn read_counters(names: &[&str]) -> Vec<u64> {
    let snap = hadad_obs::snapshot();
    names.iter().map(|n| snap.counter(n).unwrap_or(0)).collect()
}

/// Runs whole passes of `w` until `seconds` of wall time have gone by (at
/// least one pass), timing the host-speed yardstick between operations.
/// `pass_counters` names the process-wide counters to read at pass
/// boundaries.
pub fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    mut tr: Option<&mut Traced>,
    pass_counters: &[&str],
) -> Measured {
    let n = w.ops_per_pass();
    let mut m = Measured::default();
    m.latencies_ns.reserve(1 << 16);
    if !pass_counters.is_empty() {
        m.pass_counts.push(read_counters(pass_counters));
    }
    let mut host = HostSpeed::start();
    let start = Instant::now();
    let mut pass = 0;
    loop {
        for i in 0..n {
            host.tick(m.latencies_ns.len());
            let r = w.op(i, tr.as_deref_mut());
            m.latencies_ns.push(r.latency.as_nanos() as f64);
            m.attempted += 1;
            m.failed += u64::from(r.failed);
        }
        if !pass_counters.is_empty() {
            m.pass_counts.push(read_counters(pass_counters));
        }
        m.failed += w.after_pass(pass, tr.as_deref_mut());
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            host.sample(m.latencies_ns.len());
            m.speed_factors = host.factors(m.latencies_ns.len());
            m.failed += w.finish(tr.as_deref_mut());
            return m;
        }
    }
}

/// Verdicts memoised per chosen plan of one query: a plan's value is a
/// function of the plan, so it is compared with the reference once.
#[derive(Default)]
pub struct PlanChecks {
    seen: Vec<(Expr, bool, bool)>,
}

impl PlanChecks {
    /// Whether `value`, produced by `plan` (after a rewritten relational
    /// prefix when `rel_rewritten`), agrees with `reference`.
    pub fn agrees(
        &mut self,
        plan: &Expr,
        rel_rewritten: bool,
        value: &Matrix,
        reference: &Matrix,
    ) -> bool {
        if let Some((_, _, ok)) =
            self.seen.iter().find(|(e, r, _)| *r == rel_rewritten && e == plan)
        {
            return *ok;
        }
        let ok = approx_eq(value, reference, SOUNDNESS_RTOL);
        self.seen.push((plan.clone(), rel_rewritten, ok));
        ok
    }
}

/// The failure conditions every rewriting op shares besides its value:
/// a degraded search (no deadline is ever set, so degradation is a fault)
/// or a best plan ranked costlier than the input.
pub fn rewrite_is_faulty(ranked: &RankedPlans) -> bool {
    ranked.report.degraded.is_some() || ranked.best().est_cost > ranked.original.est_cost
}

/// The caller's cast of a prefix result: `HybridResult` drops the matrix it
/// cast, so executing the chosen plan starts by casting `table` again.
pub fn cast_table(table: &Table, kind: &CastKind) -> Matrix {
    use hadad_relational::cast;
    match kind {
        CastKind::Dense { columns } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            cast::table_to_matrix(table, &cols)
        }
        CastKind::Sparse { row, col, val, rows, cols } => {
            cast::table_to_sparse(table, row, col, val, *rows, *cols)
        }
    }
}

/// Median of three timed executions of an original expression, in
/// nanoseconds: the `exec(original)` the plan-quality ratios are based on.
pub fn time_original(mut run: impl FnMut() -> bool) -> f64 {
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&reps)
}

/// Product flops of a plan by the system's own estimator
/// (`hadad_core::op_flops` over every `Mul` node).
pub fn product_flops(e: &Expr, cat: &hadad_core::MetaCatalog) -> f64 {
    let own = match e {
        Expr::Mul(a, b) => {
            match (hadad_core::expr_stats(a, cat), hadad_core::expr_stats(b, cat)) {
                (Ok(sa), Ok(sb)) => hadad_core::op_flops(hadad_core::OpKind::Mul, 0, &[sa, sb]),
                _ => 0.0,
            }
        }
        _ => 0.0,
    };
    own + e.children().into_iter().map(|c| product_flops(c, cat)).sum::<f64>()
}

/// How far each of the process-wide counters `names` has moved since
/// `before` (a [`read_counters`] of the same names).
pub fn counter_deltas(names: &[&'static str], before: &[u64]) -> BTreeMap<&'static str, f64> {
    let after = read_counters(names);
    names.iter().zip(after.iter().zip(before)).map(|(&n, (a, b))| (n, (a - b) as f64)).collect()
}

/// Median of nanosecond samples, in microseconds.
pub fn p50_us(mut ns: Vec<f64>) -> f64 {
    p50_p95(&mut ns).0 / 1e3
}

fn p95_us(mut ns: Vec<f64>) -> f64 {
    p50_p95(&mut ns).1 / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics every workload derives the same way: a layer's time is
/// the sum of its spans, its share is that time over the summed operation
/// time, counts are per operation.
pub fn derive_layers(
    tr: &Traced,
    traced: &Measured,
    obs: &BTreeMap<&'static str, f64>,
) -> Values {
    let ops = traced.attempted.max(1) as f64;
    let op_ns = traced.total_ns();
    let t = &tr.tracer;
    let layer_ns = |name: &str| t.durations(name).iter().sum::<f64>();
    let mut v = Values::new();
    let mut per_op_and_share = |us: &'static str, share: &'static str, name: &str| {
        let ns = layer_ns(name);
        v.insert(us, ns / 1e3 / ops);
        v.insert(share, ratio(ns, op_ns));
    };
    per_op_and_share("encode.us_per_op", "encode.share", layer::ENCODE);
    per_op_and_share("chase.us_per_op", "chase.share", layer::CHASE);
    per_op_and_share("extract.us_per_op", "extract.share", layer::EXTRACT);
    per_op_and_share("rank.us_per_op", "rank.share", layer::RANK);
    per_op_and_share("pacb.us_per_op", "pacb.share", layer::PACB);
    per_op_and_share("relexec.us_per_op", "relexec.share", layer::RELEXEC);
    per_op_and_share("cast.us_per_op", "cast.share", layer::CAST);

    v.insert("optimizer.rewrite_us_p50", p50_us(t.durations(layer::OPTIMIZER)));
    v.insert("optimizer.rewrite_us_p95", p95_us(t.durations(layer::OPTIMIZER)));
    v.insert("optimizer.rewrite_share", ratio(layer_ns(layer::OPTIMIZER), op_ns));
    v.insert(
        "optimizer.accounted_share",
        ratio(tr.sum("optimizer.phases_us"), tr.sum("optimizer.elapsed_us")),
    );
    v.insert("hybrid.rewrite_us_p50", p50_us(t.durations(layer::HYBRID)));
    v.insert(
        "hybrid.accounted_share",
        ratio(tr.sum("hybrid.phases_us"), tr.sum("hybrid.elapsed_us")),
    );
    v.insert("cast.recast_us_per_op", layer_ns(layer::RECAST) / 1e3 / ops);
    v.insert("eval.best_us_p50", p50_us(t.durations(layer::EVAL)));
    v.insert("eval.best_share", ratio(layer_ns(layer::EVAL), op_ns));

    // Chase and extraction counts are per *cold* rewrite: a cache hit runs
    // neither, and averaging over hits would make a hotter cache look like a
    // cheaper chase.
    let cold = tr.sum("rewrite.cold_calls").max(1.0);
    for name in [
        "chase.rounds",
        "chase.matches",
        "chase.firings",
        "chase.vetoes",
        "chase.facts",
        "extract.candidates",
    ] {
        v.insert(name, tr.sum(name) / cold);
    }
    v.insert("chase.saturated_share", tr.sum("chase.saturated") / cold);
    v.insert(
        "chase.firings_per_match",
        ratio(tr.sum("chase.firings"), tr.sum("chase.matches")),
    );
    let calls = tr.sum("rewrite.calls").max(1.0);
    v.insert("plan.est_cost_ratio", tr.sum("plan.est_cost_ratio") / calls);
    v.insert("plan.rewritten_share", tr.sum("plan.rewritten") / calls);

    for (&name, delta) in obs.iter().filter(|(n, _)| n.starts_with("kernel.")) {
        v.insert(name, delta / ops);
    }
    v.insert("kernel.flops_per_op", tr.sum("kernel.flops") / ops);
    v.insert("kernel.gflops_per_s", ratio(tr.sum("kernel.flops"), layer_ns(layer::EVAL)));

    v.insert("pacb.rewritings", tr.sum("pacb.rewritings") / ops);
    v.insert("pacb.view_hit_share", tr.sum("pacb.view_hits") / ops);
    v.insert("relexec.rows_out_per_op", tr.sum("relexec.rows_out") / ops);
    v.insert(
        "relexec.rows_scanned_per_row_out",
        ratio(tr.sum("relexec.rows_scanned"), tr.sum("relexec.rows_out")),
    );
    v.insert("cast.nnz_per_op", tr.sum("cast.nnz") / ops);
    v.insert("failed_share", traced.failed as f64 / ops);
    v
}

/// Plan-quality ratios against executing the original expression, from the
/// per-query timings the traced run took. Bases: `plan.exec_speedup` is
/// exec(original) / exec(best); `plan.speedup_vs_original` is exec(original)
/// / (rewrite + exec(best)), the paper's inequality; `plan.breakeven_runs`
/// is rewrite / (exec(original) − exec(best)), capped at 1e9 when the best
/// plan saves nothing.
pub fn derive_plan_quality(tr: &Traced, v: &mut Values) {
    let orig = tr.list("eval.orig_ns");
    v.insert("eval.orig_us_p50", p50_us(orig.clone()));
    let orig_ns = tr.sum("plan.orig_ns");
    let best_ns = tr.sum("plan.best_ns");
    let rewrite_ns = tr.sum("plan.rewrite_ns");
    v.insert("plan.exec_speedup", ratio(orig_ns, best_ns));
    v.insert("plan.speedup_vs_original", ratio(orig_ns, rewrite_ns + best_ns));
    let saving = orig_ns - best_ns;
    v.insert("plan.breakeven_runs", if saving > 0.0 { rewrite_ns / saving } else { 1e9 });
}
