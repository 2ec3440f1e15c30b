//! Running workloads and reporting: one workload in this process, the full
//! set in child processes, and the A/A noise floor.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use hadad_linalg::ExecBackend as _;

use crate::host;
use crate::json::{escape, Json};
use crate::metrics::{
    complete, MetricDef, Values, DETERMINISTIC_COUNTS, END_TO_END, PER_LAYER,
};
use crate::stats::{median, p50_p95, quartiles, relative_spread, supports};
use crate::workloads::hybrid::HybridWorkload;
use crate::workloads::ivm::{IvmWorkload, ROWS_PER_BATCH};
use crate::workloads::la::LaWorkload;
use crate::workloads::serve::{ServeWorkload, WRITE_OP};
use crate::workloads::{
    counter_deltas, derive_layers, derive_plan_quality, layer, measure, p50_us, read_counters,
    Measured, Traced, Workload, KERNELS, WORKLOADS,
};
use crate::yardstick::{HostSpeed, WINDOW};

/// Seconds one run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Share of a traced run's seconds spent untraced first, as the base of
/// `trace.overhead_ratio`.
const UNTRACED_SHARE: f64 = 0.4;

pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub setup_reps: usize,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// Median host-speed factor of the measured interval (1 = the yardstick
    /// took `REFERENCE_NS`): what the timings were scaled by.
    pub host_speed: f64,
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Obs counters read at pass boundaries and over the traced interval.
const OBS_COUNTERS: &[&str] = &[
    "chase.rule_firings",
    "chase.matches",
    "kernel.gemm",
    "kernel.spmm",
    "kernel.spgemm",
    "kernel.dense_sparse",
    "kernel.tmul_fused",
    "cache.evictions",
    "cache.stale_refusals",
    "snapshot.publishes",
    "snapshot.reads",
];

fn end_to_end(setups: &[f64], m: &Measured) -> Values {
    let (p50, p95) = m.latency_us();
    let n = m.latencies_ns.len();
    if !supports(n, 0.95) {
        eprintln!("warning: {n} samples leave fewer than ten beyond p95");
    }
    Values::from([
        ("setup_s", median(setups)),
        ("ops_per_s", m.ops_per_s()),
        ("latency_p50_us", p50),
        ("latency_p95_us", p95),
        ("peak_rss_mb", host::peak_rss_mib()),
    ])
}

/// Set-up `reps` times, keeping the last; each set-up's seconds at reference
/// host speed (the yardstick is timed [`WINDOW`] times before the first
/// set-up and after every one, and a set-up is scaled by the samples on both
/// sides of it).
fn set_up<W>(reps: usize, make: &dyn Fn() -> W) -> (W, Vec<f64>) {
    let mut host = HostSpeed::start();
    let sample = |host: &mut HostSpeed, done: usize| {
        for _ in 0..WINDOW {
            host.sample(done);
        }
    };
    sample(&mut host, 0);
    let mut times = Vec::new();
    let mut w = None;
    for rep in 0..reps {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(make());
        times.push(t0.elapsed().as_secs_f64());
        sample(&mut host, rep + 1);
    }
    let scaled = times.iter().zip(host.factors(reps)).map(|(t, f)| t * f).collect();
    (w.expect("at least one set-up"), scaled)
}

/// Maintenance metrics of a writer whose root spans are called `root`.
fn derive_maintain(tr: &Traced, root: &str, v: &mut Values) {
    let t = &tr.tracer;
    let sum = |name: &str| t.durations(name).iter().sum::<f64>();
    let batches = t.durations(root).len().max(1) as f64;
    let op_ns = sum(root);
    v.insert("maintain.apply_us_p50", p50_us(t.durations(layer::APPLY)));
    v.insert("maintain.propagate_us_p50", p50_us(t.durations(layer::PROPAGATE)));
    v.insert("maintain.restamp_us_p50", p50_us(t.durations(layer::RESTAMP)));
    v.insert("maintain.restamp_share", sum(layer::RESTAMP) / op_ns);
    v.insert("maintain.rows_per_s", batches * ROWS_PER_BATCH as f64 / (op_ns / 1e9));
    v.insert("maintain.rows_touched_per_batch", tr.sum("maintain.rows_touched") / batches);
    v.insert("snapshot.publish_us_p50", p50_us(tr.list("snapshot.publish_ns")));
    let remat_us = p50_us(tr.list("maintain.remat_ns"));
    v.insert("maintain.remat_us_p50", remat_us);
    // Base: one batch's propagate + restamp (both medians).
    let incremental_us =
        p50_us(t.durations(layer::PROPAGATE)) + p50_us(t.durations(layer::RESTAMP));
    v.insert(
        "maintain.speedup_vs_remat",
        if incremental_us > 0.0 { remat_us / incremental_us } else { 0.0 },
    );
}

fn counts_repeat(m: &Measured) -> f64 {
    let deltas: Vec<Vec<u64>> = m
        .pass_counts
        .windows(2)
        .map(|w| w[1].iter().zip(&w[0]).map(|(b, a)| b - a).collect())
        .collect();
    f64::from(u8::from(deltas.windows(2).all(|w| w[0] == w[1])))
}

/// What a traced interval left behind, for the per-layer derivations.
struct TracedRun<'a> {
    tr: &'a Traced,
    measured: &'a Measured,
    /// Deltas of [`OBS_COUNTERS`] over the interval.
    counters: &'a BTreeMap<&'static str, f64>,
}

/// Runs a single-threaded workload in the mode `spec` asks for. `extras`
/// adds the per-layer metrics only this workload can compute.
fn run_single<W: Workload>(
    spec: &RunSpec,
    make: &dyn Fn() -> W,
    extras: &dyn Fn(&W, &TracedRun<'_>, &mut Values),
) -> RunOutput {
    if !spec.traced {
        let (mut w, setups) = set_up(spec.setup_reps, make);
        let m = measure(&mut w, spec.seconds, None, &[]);
        return RunOutput {
            correct: m.failed == 0,
            attempted: m.attempted,
            failed: m.failed,
            metrics: complete(END_TO_END, end_to_end(&setups, &m)),
            host_speed: m.host_speed(),
        };
    }
    let mut w = make();
    let untraced = measure(&mut w, spec.seconds * UNTRACED_SHARE, None, &[]);
    let mut tr = Traced::new(Instant::now(), 0);
    w.time_originals(&mut tr);
    let before = read_counters(OBS_COUNTERS);
    let traced =
        measure(&mut w, spec.seconds * (1.0 - UNTRACED_SHARE), Some(&mut tr), OBS_COUNTERS);
    let counters = counter_deltas(OBS_COUNTERS, &before);
    let mut v = derive_layers(&tr, &traced, &counters);
    extras(&w, &TracedRun { tr: &tr, measured: &traced, counters: &counters }, &mut v);
    v.insert("trace.overhead_ratio", traced.ops_per_s() / untraced.ops_per_s());
    v.insert("host.speed", traced.host_speed());
    v.insert("counts_repeat", counts_repeat(&traced));
    v.insert("corpus_hash", f64::from(w.corpus_hash()));
    write_trace(&spec.workload, &tr);
    let failed = untraced.failed + traced.failed;
    RunOutput {
        correct: failed == 0,
        attempted: untraced.attempted + traced.attempted,
        failed,
        metrics: complete(PER_LAYER, v),
        host_speed: traced.host_speed(),
    }
}

fn run_serve(spec: &RunSpec) -> RunOutput {
    if !spec.traced {
        let (mut w, setups) = set_up(spec.setup_reps, &|| ServeWorkload::setup(spec.seed));
        let run = w.run(spec.seconds, false);
        let failed = run.readers.failed + run.writer.failed;
        return RunOutput {
            correct: run.correct && failed == 0,
            attempted: run.readers.attempted + run.writer.batches,
            failed,
            metrics: complete(END_TO_END, end_to_end(&setups, &run.readers)),
            host_speed: run.readers.host_speed(),
        };
    }
    let mut w = ServeWorkload::setup(spec.seed);
    let untraced = w.run(spec.seconds * UNTRACED_SHARE, false);
    let before = read_counters(OBS_COUNTERS);
    let run = w.run(spec.seconds * (1.0 - UNTRACED_SHARE), true);
    let tr = run.traced.as_ref().expect("a traced run returns its spans");
    let counters = counter_deltas(OBS_COUNTERS, &before);
    let mut v = derive_layers(tr, &run.readers, &counters);
    derive_plan_quality(tr, &mut v);
    derive_maintain(tr, WRITE_OP, &mut v);
    let ops = run.readers.attempted.max(1) as f64;
    let batches = run.writer.batches.max(1) as f64;
    let p = |name: &str| p50_p95(&mut tr.list(name));
    v.insert("cache.hit_share", tr.sum("cache.hits") / ops);
    v.insert("cache.hit_us_p50", p("cache.hit_ns").0 / 1e3);
    v.insert("cache.miss_us_p50", p("cache.miss_ns").0 / 1e3);
    v.insert("cache.evictions", counters["cache.evictions"] / ops);
    v.insert("cache.stale_refusals", counters["cache.stale_refusals"] / ops);
    v.insert("snapshot.publishes", counters["snapshot.publishes"] / batches);
    v.insert("snapshot.reads", counters["snapshot.reads"] / ops);
    v.insert(
        "snapshot.load_us_p95",
        p50_p95(&mut tr.tracer.durations(layer::SNAPSHOT_LOAD)).1 / 1e3,
    );
    v.insert("snapshot.epoch_lag_p95", p("snapshot.epoch_lag").1);
    v.insert("writer.late_us_p95", p50_p95(&mut run.writer.late_ns.clone()).1 / 1e3);
    v.insert("write_latency_p50_us", p50_p95(&mut run.writer.latency_ns.clone()).0 / 1e3);
    v.insert("kernel.threads", KERNELS.threads() as f64);
    v.insert("trace.overhead_ratio", run.readers.ops_per_s() / untraced.readers.ops_per_s());
    v.insert("host.speed", run.readers.host_speed());
    // Thread interleaving decides which ops run: counts cannot repeat.
    v.insert("counts_repeat", 0.0);
    v.insert("corpus_hash", f64::from(w.corpus_hash()));
    write_trace(&spec.workload, tr);
    let failed = untraced.readers.failed
        + untraced.writer.failed
        + run.readers.failed
        + run.writer.failed;
    RunOutput {
        correct: untraced.correct && run.correct && failed == 0,
        attempted: untraced.readers.attempted
            + run.readers.attempted
            + untraced.writer.batches
            + run.writer.batches,
        failed,
        metrics: complete(PER_LAYER, v),
        host_speed: run.readers.host_speed(),
    }
}

fn write_trace(workload: &str, tr: &Traced) {
    let path = out_dir().join(format!("trace_{workload}.json"));
    if let Err(e) = tr.tracer.write_chrome(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

pub fn run_workload(spec: &RunSpec) -> RunOutput {
    let seed = spec.seed;
    let la_extras = |w: &LaWorkload, run: &TracedRun<'_>, v: &mut Values| {
        derive_plan_quality(run.tr, v);
        v.insert("kernel.threads", KERNELS.threads() as f64);
        v.insert("kernel.parallel_vs_reference", w.parallel_vs_reference());
    };
    match spec.workload.as_str() {
        "la_rewrite" => run_single(spec, &|| LaWorkload::la_rewrite(seed), &la_extras),
        "la_exec" => run_single(spec, &|| LaWorkload::la_exec(seed), &la_extras),
        "hybrid_query" => run_single(spec, &|| HybridWorkload::setup(seed), &|_, run, v| {
            derive_plan_quality(run.tr, v);
            v.insert("kernel.threads", KERNELS.threads() as f64);
        }),
        "ivm_stream" => run_single(spec, &|| IvmWorkload::setup(seed), &|_, run, v| {
            derive_maintain(run.tr, layer::OP, v);
            // No reader is registered, so this must read 0.
            let batches = run.measured.attempted.max(1) as f64;
            v.insert("snapshot.publishes", run.counters["snapshot.publishes"] / batches);
        }),
        "serve_mixed" => run_serve(spec),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// `"name": {"value": v, "unit": "u"}` members, comma-separated.
fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    let members: Vec<String> = metrics
        .into_iter()
        .map(|(n, v, u)| {
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", escape(n), escape(u))
        })
        .collect();
    members.join(", ")
}

fn result_line(out: &RunOutput) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics_json(out.metrics.iter().map(|((n, u), v)| (*n, *v, *u))),
    )
}

fn print_metrics<'a>(
    workload: &str,
    metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>,
) {
    for (name, value, unit) in metrics {
        println!("{workload:<13} {name:<34} {value:>16.4} {unit}");
    }
}

/// One workload, one mode, in this process: metric lines, then the JSON
/// result object as the last line of stdout.
pub fn run_in_process(spec: &RunSpec) -> bool {
    let out = run_workload(spec);
    print_metrics(&spec.workload, out.metrics.iter().map(|((n, u), v)| (*n, *v, *u)));
    println!(
        "# host speed {:.4}: timings are wall time x this factor (see bench/README.md)",
        out.host_speed
    );
    println!("{}", result_line(&out));
    true
}

/// What a child process reported.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_reps: usize,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--setup-reps",
            &setup_reps.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = Json::parse(last)?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("result lacks {k}"));
    let Some(Json::Obj(map)) = v.get("metrics") else {
        return Err("result lacks metrics".into());
    };
    let metrics = map
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_owned();
            (name.clone(), value, unit)
        })
        .collect();
    Ok(ChildResult {
        correct: v.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Every workload untraced, then traced, each in its own process.
pub fn run_all(seed: u64, seconds: f64, quick: bool) -> bool {
    let (seconds, setup_reps) = if quick { (1.0, 1) } else { (seconds, SETUP_REPS) };
    let started = Instant::now();
    let mut all_ok = true;
    let mut rows = Vec::new();
    for traced in [false, true] {
        for (workload, _) in WORKLOADS {
            match run_child(workload, seed, seconds, traced, setup_reps) {
                Ok(r) => {
                    let mode = if traced { "traced" } else { "untraced" };
                    println!(
                        "# {workload} {mode}: ops_attempted {} failed {} correct {}",
                        r.attempted, r.failed, r.correct
                    );
                    let metrics =
                        || r.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()));
                    if !quick {
                        print_metrics(workload, metrics());
                    }
                    all_ok &= r.correct && r.failed == 0;
                    rows.push(format!(
                        "    {{\"workload\": \"{workload}\", \"traced\": {traced}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                        r.correct, r.attempted, r.failed, metrics_json(metrics())
                    ));
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    all_ok = false;
                }
            }
        }
    }
    let result = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"claim\": null,\n  \"host\": {},\n  \"bench_threads\": {{\"kernel\": {}, \"serve_readers\": {}, \"serve_writers\": 1}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        host::fingerprint_json(),
        KERNELS.threads(),
        ServeWorkload::reader_threads(),
        rows.join(",\n"),
    );
    let path = out_dir().join("result.json");
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, result))
    {
        eprintln!("error: could not write {}: {e}", path.display());
        all_ok = false;
    }
    println!(
        "# total wall {:.1} s; wrote {}; {}",
        started.elapsed().as_secs_f64(),
        path.display(),
        if all_ok { "all outputs correct" } else { "FAILURES" }
    );
    all_ok
}

/// `(bound, lower_is_better)` per end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in v.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let name = m.get("name").and_then(Json::as_str).ok_or("metric lacks a name")?;
        let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric lacks a bound")?;
        let lower = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(name.to_owned(), (bound, lower));
    }
    Ok(out)
}

/// The A/A noise floor: `sets` sets of `runs` untraced runs per workload
/// (seeds `1..=runs`, the same in every set) on one build. Per metric and
/// set: median, quartiles, and the interquartile range as a share of the
/// median; between the first and every later set: how much worse the median
/// got. Fails if a spread (other than `setup_s`'s) or a shift exceeds the
/// metric's bound, or if a deterministic count differs between sets.
pub fn aa(runs: u64, sets: usize, seconds: f64) -> bool {
    if runs < 2 || sets < 2 {
        eprintln!("error: aa needs --runs >= 2 and --sets >= 2");
        return false;
    }
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let started = Instant::now();
    let mut ok = true;
    // samples[workload][metric][set] = values over seeds
    let mut samples: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, Vec<Vec<(String, f64)>>> = BTreeMap::new();
    for set in 0..sets {
        for (workload, _) in WORKLOADS {
            for seed in 1..=runs {
                match run_child(workload, seed, seconds, false, SETUP_REPS) {
                    Ok(r) => {
                        ok &= r.correct && r.failed == 0;
                        for (name, value, _) in r.metrics {
                            let per_set = samples
                                .entry(workload)
                                .or_default()
                                .entry(name)
                                .or_insert_with(|| vec![Vec::new(); sets]);
                            per_set[set].push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
            // One traced run per set: its deterministic counts must agree
            // across sets (same seed, another process).
            match run_child(workload, 1, seconds, true, 1) {
                Ok(r) => {
                    ok &= r.correct && r.failed == 0;
                    let kept = r
                        .metrics
                        .into_iter()
                        .filter(|(n, _, _)| DETERMINISTIC_COUNTS.contains(&n.as_str()));
                    counts
                        .entry(workload)
                        .or_default()
                        .push(kept.map(|(n, v, _)| (n, v)).collect());
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
            eprintln!(
                "# set {} {workload} done at {:.0} s",
                set + 1,
                started.elapsed().as_secs_f64()
            );
        }
    }

    let mut rows = Vec::new();
    println!(
        "{:<13} {:<16} {:>4} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "shift", "bound"
    );
    for (workload, by_metric) in &samples {
        for (name, _) in END_TO_END {
            let Some(per_set) = by_metric.get(*name) else { continue };
            let (bound, lower) = bounds.get(*name).copied().unwrap_or((0.0, true));
            let first = median(&per_set[0]);
            for (set, values) in per_set.iter().enumerate() {
                let (q1, q3) = quartiles(values);
                let (m, spread) = (median(values), relative_spread(values));
                let shift = if lower { (m - first) / first } else { (first - m) / first };
                let spread_ok = *name == "setup_s" || spread <= bound;
                let shift_ok = shift <= bound;
                ok &= spread_ok && shift_ok;
                println!(
                    "{workload:<13} {name:<16} {:>4} {q1:>14.4} {m:>14.4} {q3:>14.4} {spread:>8.4} {shift:>8.4} {bound:>6.2}{}",
                    set + 1,
                    if spread_ok && shift_ok { "" } else { "  EXCEEDS BOUND" },
                );
                rows.push(format!(
                    "    {{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"set\": {}, \"q1\": {q1}, \"median\": {m}, \"q3\": {q3}, \"spread\": {spread}, \"shift_vs_set1\": {shift}, \"bound\": {bound}}}",
                    set + 1
                ));
            }
        }
    }
    let mut repeat_rows = Vec::new();
    for (workload, per_set) in &counts {
        // serve_mixed's counts depend on thread interleaving; only its
        // corpus hash must repeat.
        let comparable = |n: &str| *workload != "serve_mixed" || n == "corpus_hash";
        let same = per_set.windows(2).all(|w| {
            w[0].iter()
                .filter(|(n, _)| comparable(n))
                .eq(w[1].iter().filter(|(n, _)| comparable(n)))
        });
        println!("{workload:<13} deterministic counts repeat across sets: {same}");
        repeat_rows.push(format!(
            "    {{\"workload\": \"{workload}\", \"counts_repeat_across_processes\": {same}}}"
        ));
        ok &= same;
    }
    let floor = format!(
        "{{\n  \"runs_per_set\": {runs},\n  \"sets\": {sets},\n  \"seconds\": {seconds},\n  \"within_bounds\": {ok},\n  \"host\": {},\n  \"end_to_end\": [\n{}\n  ],\n  \"counts\": [\n{}\n  ]\n}}\n",
        host::fingerprint_json(),
        rows.join(",\n"),
        repeat_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/NOISE_FLOOR.json");
    if let Err(e) = std::fs::write(path, floor) {
        eprintln!("error: could not write {path}: {e}");
        ok = false;
    }
    println!(
        "# aa took {:.0} s; wrote {path}; {}",
        started.elapsed().as_secs_f64(),
        if ok { "within bounds" } else { "OUT OF BOUNDS" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the program prints are exactly those
    /// `BENCHMARK.json` declares, workload names and reasons included.
    #[test]
    fn printed_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"),
        )
        .unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let unit = m.get("unit").or(m.get("why")).and_then(Json::as_str).unwrap();
                    (m.get("name").and_then(Json::as_str).unwrap().to_owned(), unit.to_owned())
                })
                .collect()
        };
        let printed = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(declared("end_to_end"), printed(END_TO_END));
        assert_eq!(declared("per_layer"), printed(PER_LAYER));
        assert_eq!(declared("workloads"), printed(WORKLOADS));
        assert_eq!(v.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
        for name in DETERMINISTIC_COUNTS {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a per-layer metric"
            );
        }
        // `setup_s` carries the largest bound, as the contract asks.
        let bounds = bounds().unwrap();
        let setup = bounds["setup_s"].0;
        assert!(bounds.values().all(|(b, _)| *b <= setup && *b <= 0.25));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let out = RunOutput {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: complete(
                END_TO_END,
                Values::from([("setup_s", 0.25), ("ops_per_s", 1e3)]),
            ),
            host_speed: 1.0,
        };
        let line = result_line(&out);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let Json::Obj(top) = &v else { panic!("not an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(m)) = v.get("metrics") else { panic!("no metrics") };
        assert_eq!(m.len(), END_TO_END.len());
        let metrics = v.get("metrics").unwrap();
        let field = |name: &str, key: &str| metrics.get(name).and_then(|m| m.get(key)).cloned();
        assert_eq!(field("setup_s", "value"), Some(Json::Num(0.25)));
        assert_eq!(field("latency_p95_us", "unit"), Some(Json::Str("us".into())));
    }
}
