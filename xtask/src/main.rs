//! Repository automation (`cargo run -p xtask -- <task>`).
//!
//! `analyze` is the CI gate for rule soundness: it takes the process-wide
//! standard MMC catalogue every rewrite chases with (functional EGDs,
//! structural and decomposition rules), adds a representative sample of
//! view constraints, runs the `hadad-analyze` static checks, prints the
//! report, and exits nonzero unless the set is certified —
//! range-restricted and weakly acyclic modulo conclusion-atom reuse.
//!
//! `obs-dump` arms the tracing gate, drives a small corpus through every
//! pipeline layer (chase, extraction, kernels, view maintenance, plan
//! cache, snapshot prefix memo), and exports the run profile: `TRACE_rewrite.json` (Chrome
//! `chrome://tracing` / Perfetto format) plus a metrics snapshot in JSON
//! (`METRICS_snapshot.json`). Exits nonzero if any layer failed to light
//! up its counters — CI runs it as the observability smoke gate.
//!
//! `kernels` times the `Parallel` backend's product kernels on the operand
//! shapes of the `la_exec` benchmark workload, one thread, at every vector
//! width the host supports (run it with `--release`), prints ms and
//! Gflop/s per kernel and width plus the width dispatch picked, and exits
//! nonzero if any value differs from `Reference` in any bit. `--short`
//! times one repetition instead of nine: the CI form, where only the
//! comparison matters.

use std::process::ExitCode;

use hadad_core::expr::dsl::{add, m, mul, smul, t, trace};
use hadad_core::{Catalogue, MatrixMeta, MetaCatalog};
use hadad_linalg::backend::{self, Width};
use hadad_linalg::ops::multiply::{dense_dense, dense_sparse, sparse_dense, sparse_sparse};
use hadad_linalg::{rand_gen, DenseMatrix, Matrix, PARALLEL};
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    eval_with, CastKind, Env, HybridOptimizer, HybridPipeline, Optimizer, RelQuery,
};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze(),
        Some("obs-dump") => obs_dump(),
        Some("kernels") => kernels(args.next().as_deref() == Some("--short")),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: analyze, obs-dump, kernels");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- <task>\n\ntasks:\n  \
                 analyze    static rule-soundness gate over the MMC catalogue\n  \
                 obs-dump   trace + metrics export over a cross-layer corpus\n  \
                 kernels    product kernels per vector width vs Reference (--release; --short)"
            );
            ExitCode::FAILURE
        }
    }
}

/// Sample view definitions exercising the `V_IO`/`V_OI` generators the
/// optimizer emits per registered view: a chain product, an additive
/// mix with transpose, and a scalar-scaled trace-style reduction.
fn sample_views() -> Vec<(&'static str, hadad_core::Expr)> {
    vec![
        ("V_chain", mul(mul(m("A"), m("B")), m("C"))),
        ("V_mix", add(mul(t(m("A")), m("A")), m("G"))),
        ("V_scaled", smul(trace(mul(m("A"), t(m("A")))), m("C"))),
    ]
}

/// Drives one run of every pipeline layer with tracing armed, then
/// exports the profile. The corpus is deliberately small — the point is
/// coverage (every span site and counter family fires), not load.
fn obs_dump() -> ExitCode {
    hadad_obs::set_tracing(true);

    // LA layer: a matvec chain rewritten (chase + extraction + rank) and
    // the winning plan executed on the Parallel backend (kernels).
    let (n, k) = (96usize, 16usize);
    let mut la_cat = MetaCatalog::new();
    la_cat.register("A", MatrixMeta::dense(n, k));
    la_cat.register("B", MatrixMeta::dense(k, n));
    la_cat.register("x", MatrixMeta::dense(n, 1));
    let mut env = Env::new();
    env.bind("A", Matrix::Dense(rand_gen::random_dense(n, k, 11)));
    env.bind("B", Matrix::Dense(rand_gen::random_dense(k, n, 12)));
    env.bind("x", Matrix::Dense(rand_gen::random_dense(n, 1, 13)));
    let expr = mul(mul(m("A"), m("B")), m("x"));
    let opt = Optimizer::new(la_cat.clone());
    let (ranked, best, _result) = match opt.rewrite_verified(&expr, &env, 1e-9) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("obs-dump: LA rewrite failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if eval_with(&best.expr, &env, &PARALLEL).is_err() {
        eprintln!("obs-dump: best plan does not evaluate on the Parallel backend");
        return ExitCode::FAILURE;
    }

    // Relational layer: a filtered view over an events table behind a
    // plan-cached hybrid optimizer. Two rewrites (miss + hit; both filter
    // the `spikes` view, so the second builds its column index), a logged
    // insert + maintenance pass (IVM + epoch bump), then two more rewrites
    // (both hits: the suffix `(A·B)·x` does not read the cast `E`, so the
    // update leaves its plan-cache key alone), then two reads of the
    // published snapshot (prefix memo miss + hit).
    let events = Table::new(vec![
        ("eid", Column::Int((0..64).collect())),
        ("kind", Column::Int((0..64).map(|i| i % 4).collect())),
    ]);
    let mut catalog = Catalog::new();
    catalog.register("events", events);
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat).with_plan_cache(16));
    if hy.register_table_view("spikes", RelQuery::scan("events").select_eq("kind", 3)).is_err()
    {
        eprintln!("obs-dump: view registration failed");
        return ExitCode::FAILURE;
    }
    // A snapshot reader makes maintenance publish refreshed catalog
    // snapshots (the concurrent-read path), lighting the snapshot.*
    // counters alongside the cache ones.
    let reader = match hy.reader() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("obs-dump: snapshot reader failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("events").select_eq("kind", 3),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "eid".into(),
            col: "kind".into(),
            val: "kind".into(),
            rows: 128,
            cols: 4,
        },
        cast_name: "E".into(),
        suffix: expr.clone(),
    };
    for step in ["cold", "warm", "post-update", "repeat"] {
        if step == "post-update" {
            let row = vec![Value::Int(64), Value::Int(3)];
            if hy.catalog.insert_rows("events", vec![row]).is_err()
                || hy.maintain_views().is_err()
            {
                eprintln!("obs-dump: update + maintenance pass failed");
                return ExitCode::FAILURE;
            }
            let snap = reader.current();
            if snap.epoch() == 0 {
                eprintln!("obs-dump: reader never observed the maintained epoch");
                return ExitCode::FAILURE;
            }
        }
        if hy.rewrite_hybrid(&pipeline).is_err() {
            eprintln!("obs-dump: {step} hybrid rewrite failed");
            return ExitCode::FAILURE;
        }
    }
    // Two reads of one published snapshot: the second answers the prefix
    // from the snapshot's memo.
    let snapshot = reader.current();
    for _ in 0..2 {
        if snapshot.rewrite_hybrid(&pipeline).is_err() {
            eprintln!("obs-dump: snapshot hybrid rewrite failed");
            return ExitCode::FAILURE;
        }
    }

    // Export: Chrome trace + metrics snapshot (JSON).
    let spans = hadad_obs::take_trace();
    let snap = hadad_obs::snapshot();
    let writes = [
        ("TRACE_rewrite.json", hadad_obs::chrome_trace_json(&spans)),
        ("METRICS_snapshot.json", snap.to_json()),
    ];
    for (path, contents) in &writes {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("obs-dump: writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Coverage gate: the armed run recorded spans, and every layer lit
    // its headline counter.
    let mut ok = !spans.is_empty();
    if !ok {
        eprintln!("obs-dump: TRACE_rewrite.json carries no spans");
    }
    for key in [
        "chase.rule_firings",
        "extract.solves",
        "maintain.passes",
        "relexec.rows_out",
        "relexec.index_builds",
        "kernel.gemm",
        "cache.hits",
        "snapshot.publishes",
        "snapshot.reads",
        "hybrid.prefix_memo_hits",
        "hybrid.schema_compiles",
    ] {
        let v = snap.counter(key).unwrap_or(0);
        println!("  {key} = {v}");
        if v == 0 {
            eprintln!("obs-dump: counter {key} never fired");
            ok = false;
        }
    }
    println!(
        "obs-dump: {} spans, {} counters, {} histograms | best {} (est x{:.1})",
        spans.len(),
        snap.counters.len(),
        snap.histograms.len(),
        best.expr,
        ranked.est_speedup(),
    );
    println!("wrote TRACE_rewrite.json + METRICS_snapshot.json");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn analyze() -> ExitCode {
    // The shared standard value itself — the object every rewrite chases
    // with, its constraints read back from the compiled rules — and the
    // sampled views built, as a rewrite builds them, on a clone of its
    // schema.
    let (vrem, standard) = Catalogue::shared_standard();
    let mut vrem = vrem.clone();
    let mut cat = Catalogue {
        constraints: standard.rules().iter().map(|r| r.constraint().clone()).collect(),
    };

    let mut meta = MetaCatalog::new();
    meta.register("A", MatrixMeta::dense(64, 32));
    meta.register("B", MatrixMeta::dense(32, 48));
    meta.register("C", MatrixMeta::dense(48, 48));
    meta.register("G", MatrixMeta::dense(32, 32));
    for (name, def) in sample_views() {
        match Catalogue::la_view_constraints(&mut vrem, &meta, name, &def) {
            Ok(view) => cat.constraints.extend(view.constraints),
            Err(e) => {
                eprintln!("failed to build view constraints for {name}: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = cat.analyze(&vrem);
    print!("{}", report.display(Some(&vrem.vocab)));
    if report.certified() {
        println!(
            "certificate: catalogue + {} sample views are range-restricted and weakly \
             acyclic modulo conclusion-atom reuse",
            sample_views().len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("static analysis gate FAILED");
        ExitCode::FAILURE
    }
}

/// One row group of the `kernels` table: the reference loop and the
/// `Parallel` kernel (one thread) over the same operands.
struct KernelCase<'a> {
    label: &'static str,
    flops: f64,
    reference: Box<dyn Fn() -> Matrix + 'a>,
    /// `None` for a kernel that holds no dense strip and is the same code
    /// at every width.
    kernel: Box<dyn Fn(Option<Width>) -> Matrix + 'a>,
    per_width: bool,
}

const NOT_ARMED: &str = "no failpoint is armed";

impl<'a> KernelCase<'a> {
    /// Dense `a·b`, or the fused `aᵀ·b` against transpose-then-multiply.
    fn dense(
        label: &'static str,
        transposed: bool,
        a: &'a DenseMatrix,
        b: &'a DenseMatrix,
    ) -> Self {
        let (m, k) = if transposed { (a.cols(), a.rows()) } else { (a.rows(), a.cols()) };
        KernelCase {
            label,
            flops: 2.0 * (m * k * b.cols()) as f64,
            reference: Box::new(move || {
                Matrix::Dense(if transposed {
                    dense_dense(&a.transpose(), b)
                } else {
                    dense_dense(a, b)
                })
            }),
            kernel: Box::new(move |w| {
                let w = w.expect("per width");
                let run =
                    if transposed { backend::tmul_dense_dense } else { backend::gemm_blocked };
                Matrix::Dense(run(a, b, 1, w).expect(NOT_ARMED))
            }),
            per_width: true,
        }
    }
}

fn kernels(short: bool) -> ExitCode {
    // `bench/src/corpus.rs::exec_size`, the operands `la_exec` multiplies.
    let dense = rand_gen::random_dense;
    let sparse = |n, seed| rand_gen::random_sparse(n, n, 0.01, seed);
    let (g1, g2) = (dense(352, 352, 1), dense(352, 352, 2));
    let (c1, c2) = (dense(224, 224, 4), dense(224, 224, 5));
    let (x, y) = (dense(2400, 96, 3), dense(2400, 1, 6));
    let (ta, tb) = (dense(1200, 128, 10), dense(1200, 128, 11));
    let (s4, d4) = (sparse(4000, 9), dense(4000, 96, 12));
    let (s1, s2) = (sparse(2000, 7), sparse(2000, 8));
    let d = dense(256, 2000, 13);
    let spgemm_flops: f64 = s1.triplets().map(|(_, k, _)| 2.0 * s2.row(k).0.len() as f64).sum();
    let cases = [
        KernelCase::dense("gemm 352^3", false, &g1, &g2),
        KernelCase::dense("gemm 224^3", false, &c1, &c2),
        KernelCase::dense("gram 2400x96", true, &x, &x),
        KernelCase::dense("At.b 2400x96", true, &x, &y),
        KernelCase::dense("At.B 1200x128", true, &ta, &tb),
        KernelCase {
            label: "spmm 4000^2@1% x96",
            flops: 2.0 * (s4.nnz() * 96) as f64,
            reference: Box::new(|| Matrix::Dense(sparse_dense(&s4, &d4))),
            kernel: Box::new(|w| {
                Matrix::Dense(
                    backend::spmm_rows(&s4, &d4, 1, w.expect("per width")).expect(NOT_ARMED),
                )
            }),
            per_width: true,
        },
        KernelCase {
            label: "spgemm 2000^2@1%",
            flops: spgemm_flops,
            reference: Box::new(|| Matrix::Sparse(sparse_sparse(&s1, &s2))),
            kernel: Box::new(|_| {
                Matrix::Sparse(backend::spgemm_rows(&s1, &s2, 1).expect(NOT_ARMED))
            }),
            per_width: false,
        },
        KernelCase {
            label: "dense x sparse 256x2000",
            flops: 2.0 * (256 * s2.nnz()) as f64,
            reference: Box::new(|| Matrix::Dense(dense_sparse(&d, &s2))),
            kernel: Box::new(|w| {
                let w = w.expect("per width");
                Matrix::Dense(backend::dense_sparse_rows(&d, &s2, 1, w).expect(NOT_ARMED))
            }),
            per_width: true,
        },
    ];
    let reps = if short { 1 } else { 9 };
    let widths = Width::supported();
    println!(
        "dispatch picked: {} ({} f64 lanes); widths this host supports: {}",
        Width::detected().name(),
        Width::detected().lanes(),
        widths.iter().map(|w| w.name()).collect::<Vec<_>>().join(", "),
    );
    println!("{:<26} {:<10} {:>9} {:>9} {:>9}", "kernel", "width", "ms", "Gflop/s", "best ms");
    let mut ok = true;
    for case in &cases {
        // The last value, and the median and the best of `reps` timed runs
        // after one untimed (on a shared host the best is the steadier).
        let timed = |f: &dyn Fn() -> Matrix| {
            let mut out = f();
            let mut secs: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    out = std::hint::black_box(f());
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            (out, secs[secs.len() / 2], secs[0])
        };
        let row = |width: &str, secs: f64, best: f64| {
            let (label, gflops) = (case.label, case.flops / secs / 1e9);
            println!(
                "{label:<26} {width:<10} {:>9.3} {gflops:>9.2} {:>9.3}",
                secs * 1e3,
                best * 1e3
            );
        };
        let (want, secs, best) = timed(&*case.reference);
        row("reference", secs, best);
        let runs: Vec<Option<Width>> = if case.per_width {
            widths.iter().copied().map(Some).collect()
        } else {
            vec![None]
        };
        for w in runs {
            let name = w.map_or("any", Width::name);
            let (got, secs, best) = timed(&|| (case.kernel)(w));
            row(name, secs, best);
            if !hadad_linalg::bitwise_eq(&want, &got) {
                eprintln!("kernels: {} at width {name} differs from Reference", case.label);
                ok = false;
            }
        }
    }
    if ok {
        println!("kernels: every kernel at every width equals Reference bit for bit");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
