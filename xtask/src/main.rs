//! Repository automation (`cargo run -p xtask -- <task>`).
//!
//! `analyze` is the CI gate for rule soundness: it builds the standard
//! MMC catalogue (functional EGDs, structural and decomposition rules,
//! stats-propagation TGDs) plus a representative sample of view
//! constraints, runs the `hadad-analyze` static checks, prints the
//! report, and exits nonzero unless the set is certified —
//! range-restricted and weakly acyclic modulo conclusion-atom reuse.
//!
//! `obs-dump` arms the tracing gate, drives a small corpus through every
//! pipeline layer (chase, extraction, kernels, view maintenance, plan
//! cache), and exports the run profile: `TRACE_rewrite.json` (Chrome
//! `chrome://tracing` / Perfetto format) plus a metrics snapshot in JSON
//! (`METRICS_snapshot.json`) and Prometheus text
//! (`METRICS_snapshot.prom`). Exits nonzero if any layer failed to light
//! up its counters — CI runs it as the observability smoke gate.

use std::process::ExitCode;

use hadad_core::expr::dsl::{add, m, mul, smul, t, trace};
use hadad_core::{Catalogue, MatrixMeta, MetaCatalog, Vrem};
use hadad_linalg::{rand_gen, Matrix, PARALLEL};
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    eval_with, CastKind, Env, HybridOptimizer, HybridPipeline, Optimizer, RelQuery,
};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze(),
        Some("obs-dump") => obs_dump(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: analyze, obs-dump");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- <task>\n\ntasks:\n  \
                 analyze    static rule-soundness gate over the MMC catalogue\n  \
                 obs-dump   trace + metrics export over a cross-layer corpus"
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
    // plan-cached hybrid optimizer. Two same-epoch rewrites (miss + hit),
    // a logged insert + maintenance pass (IVM + epoch bump), then two
    // more rewrites (stale refusal + re-primed hit).
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
    for step in ["cold", "warm", "post-update", "re-primed"] {
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

    // Export: Chrome trace + metrics snapshot (JSON and Prometheus text).
    let spans = hadad_obs::take_trace();
    let snap = hadad_obs::snapshot();
    let writes = [
        ("TRACE_rewrite.json", hadad_obs::chrome_trace_json(&spans)),
        ("METRICS_snapshot.json", snap.to_json()),
        ("METRICS_snapshot.prom", snap.to_prometheus()),
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
        "kernel.gemm",
        "cache.hits",
        "cache.stale_refusals",
        "snapshot.publishes",
        "snapshot.reads",
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
    println!("wrote TRACE_rewrite.json + METRICS_snapshot.json + METRICS_snapshot.prom");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn analyze() -> ExitCode {
    let mut vrem = Vrem::new();
    let mut cat = Catalogue::standard(&mut vrem);

    let mut meta = MetaCatalog::new();
    meta.register("A", MatrixMeta::dense(64, 32));
    meta.register("B", MatrixMeta::dense(32, 48));
    meta.register("C", MatrixMeta::dense(48, 48));
    meta.register("G", MatrixMeta::dense(32, 32));
    for (name, def) in sample_views() {
        match Catalogue::la_view_constraints(&mut vrem, &meta, name, &def) {
            Ok(cs) => cat.constraints.extend(cs),
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
            "certificate: catalogue + propagation rules + {} sample views are \
             range-restricted and weakly acyclic modulo conclusion-atom reuse",
            sample_views().len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("static analysis gate FAILED");
        ExitCode::FAILURE
    }
}
