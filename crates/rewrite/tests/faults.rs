//! Fault-injection and anytime-degradation suite: every named failpoint in
//! the pipeline is driven through its `panic` / `error` / `delay` actions,
//! and the end-to-end contract is checked each time — `rewrite` / `run`
//! return `Ok` with a sound plan (cost no worse than the unrewritten
//! expression), the degradation is surfaced on the report, and the process
//! never aborts.
//!
//! Programmatic tests arm sites through [`hadad_failpoint::scoped`], whose
//! guard also serializes them behind the global fault-test lock. Every test
//! holds that lock for its whole body: one that arms nothing, or not yet,
//! or no longer, holds it through an inert site ([`unarmed`]), so no other
//! test's armed site lands on its steps. The lock is not reentrant, so a
//! test swaps one guard for the next ([`arm`], [`disarm`]) and runs nothing
//! in between. The
//! `env_driven` test instead reads `HADAD_FAILPOINTS` — that is the entry
//! point CI's fault matrix runs under one config at a time:
//!
//! ```sh
//! HADAD_FAILPOINTS=chase.round=panic cargo test --test faults env_driven
//! ```

use std::time::Duration;

use hadad_chase::{
    ChaseBudget, ChaseOutcome, DegradeReason, Degraded, ExhaustedBy, RewritePhase,
};
use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog};
use hadad_failpoint::{scoped, FailAction, ScopedFailpoint};
use hadad_linalg::{rand_gen, Matrix};
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    CastKind, Env, HybridError, HybridOptimizer, HybridPipeline, Optimizer, RelQuery,
};

/// A left-deep matmul chain over `dims.len() - 1` matrices, with matching
/// random bindings (same shape family as the bench's `matmul_chain12`).
fn chain(dims: &[usize]) -> (MetaCatalog, Env, Expr) {
    let mut cat = MetaCatalog::new();
    let mut env = Env::new();
    let mut expr: Option<Expr> = None;
    for i in 0..dims.len() - 1 {
        let name = format!("M{}", i + 1);
        cat.register(&name, MatrixMeta::dense(dims[i], dims[i + 1]));
        env.bind(
            &name,
            Matrix::Dense(rand_gen::random_dense(dims[i], dims[i + 1], 41 + i as u64)),
        );
        let leaf = m(&name);
        expr = Some(match expr {
            Some(e) => mul(e, leaf),
            None => leaf,
        });
    }
    (cat, env, expr.unwrap())
}

const CHAIN12: [usize; 13] = [96, 88, 80, 64, 48, 40, 36, 24, 16, 12, 6, 4, 1];

/// Holds the fault-test lock with nothing armed.
fn unarmed() -> ScopedFailpoint {
    scoped("faults.unarmed", FailAction::Delay(0))
}

/// Swaps the held fault-test lock for a guard arming `site`.
fn arm(held: ScopedFailpoint, site: &str, action: FailAction) -> ScopedFailpoint {
    drop(held);
    scoped(site, action)
}

/// Disarms `armed` and takes the fault-test lock back, unarmed.
fn disarm(armed: ScopedFailpoint) -> ScopedFailpoint {
    drop(armed);
    unarmed()
}

/// Runs `f` with panic output silenced (worker panics would otherwise spray
/// backtraces through the captured test output), restoring the hook after.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Satellite: a fact-budget-truncated chase is an anytime result, not an
/// error — the pipeline still returns a verified plan no worse than the
/// input expression.
#[test]
fn fact_budget_exhaustion_still_yields_verified_plan() {
    let _lock = unarmed();
    let (cat, env, expr) = chain(&[96, 80, 64, 48, 24, 1]);
    let opt = Optimizer::new(cat).with_budget(ChaseBudget {
        max_rounds: 12,
        // Full saturation of this chain needs 25 facts; 20 forces the stop.
        max_facts: 20,
        max_nulls: 15_000,
        deadline: None,
    });
    let (ranked, plan, _) = opt.rewrite_verified(&expr, &env, 1e-9).unwrap();
    assert_eq!(ranked.report.chase_outcome, ChaseOutcome::BudgetExhausted);
    let d = ranked.report.degraded.as_ref().expect("budget stop marks degradation");
    assert_eq!(d.reason, DegradeReason::Budget(ExhaustedBy::Facts));
    assert_eq!(d.phase, RewritePhase::Chase);
    assert!(
        plan.est_cost <= ranked.original.est_cost,
        "anytime plan ({}) must not cost more than the original ({})",
        plan.est_cost,
        ranked.original.est_cost
    );
}

/// The acceptance bar: a 1 ms deadline on the 12-chain still returns `Ok`
/// with an execution-verified plan costing no more than the unrewritten
/// expression.
#[test]
fn one_ms_deadline_on_12_chain_returns_verified_plan() {
    let _lock = unarmed();
    let (cat, env, expr) = chain(&CHAIN12);
    let opt = Optimizer::new(cat)
        .with_budget(ChaseBudget {
            max_rounds: 20,
            max_facts: 60_000,
            max_nulls: 30_000,
            deadline: None,
        })
        .with_deadline(Duration::from_millis(1));
    let (ranked, plan, _) = opt.rewrite_verified(&expr, &env, 1e-9).unwrap();
    assert!(plan.est_cost <= ranked.original.est_cost);
    // With 1 ms the chase cannot saturate a 12-chain; the run is degraded
    // by the deadline (never by an error or a panic).
    if let Some(d) = &ranked.report.degraded {
        assert_eq!(d.reason, DegradeReason::Deadline);
    }
}

#[test]
fn chase_panic_is_contained_and_degrades() {
    let lock = unarmed();
    let (cat, env, expr) = chain(&[60, 40, 20, 1]);
    let opt = Optimizer::new(cat);
    let _g = arm(lock, "chase.round", FailAction::Panic);
    let (ranked, plan, _) = quiet_panics(|| opt.rewrite_verified(&expr, &env, 1e-9)).unwrap();
    let d = ranked.report.degraded.as_ref().expect("contained panic marks degradation");
    assert_eq!(d.reason, DegradeReason::WorkerPanic);
    assert_eq!(d.phase, RewritePhase::Chase);
    assert!(plan.est_cost <= ranked.original.est_cost);
}

#[test]
fn chase_error_fault_is_a_typed_budget_stop() {
    let lock = unarmed();
    let (cat, env, expr) = chain(&[60, 40, 20, 1]);
    let opt = Optimizer::new(cat);
    let _g = arm(lock, "chase.round", FailAction::Error);
    let (ranked, plan, _) = opt.rewrite_verified(&expr, &env, 1e-9).unwrap();
    assert_eq!(ranked.report.chase_outcome, ChaseOutcome::BudgetExhausted);
    let d = ranked.report.degraded.as_ref().unwrap();
    assert_eq!(d.reason, DegradeReason::Fault);
    assert!(plan.est_cost <= ranked.original.est_cost);
}

/// A slow chase round (injected delay) trips the wall-clock deadline: the
/// degradation names the deadline, not the fault. The deadline is read
/// when a round starts, so the chase must need a second one: a bare chain
/// is tabled before the chase and saturates in one round, its transpose
/// derives products (`tr-mul`) the table does not hold.
#[test]
fn chase_delay_trips_the_deadline() {
    let lock = unarmed();
    let (cat, _, expr) = chain(&[60, 40, 20, 1]);
    let expr = t(expr);
    let opt = Optimizer::new(cat).with_deadline(Duration::from_millis(10));
    let _g = arm(lock, "chase.round", FailAction::Delay(30));
    let ranked = opt.rewrite(&expr).unwrap();
    let d = ranked.report.degraded.as_ref().expect("deadline must trip");
    assert_eq!(d.reason, DegradeReason::Deadline);
    assert_eq!(d.phase, RewritePhase::Chase);
}

#[test]
fn extraction_panic_falls_back_to_original_plan() {
    let lock = unarmed();
    let (cat, env, expr) = chain(&[60, 40, 20, 1]);
    let opt = Optimizer::new(cat);
    let _g = arm(lock, "extract.solve", FailAction::Panic);
    let (ranked, plan, _) = quiet_panics(|| opt.rewrite_verified(&expr, &env, 1e-9)).unwrap();
    let d = ranked.report.degraded.as_ref().unwrap();
    assert_eq!(d.reason, DegradeReason::WorkerPanic);
    assert_eq!(d.phase, RewritePhase::Extraction);
    // Nothing could be extracted, so the guaranteed-sound incumbent wins.
    assert_eq!(plan.expr, ranked.original.expr);
}

/// A panicking parallel kernel worker retries on the reference backend:
/// the rewrite still verifies, and each retry is recorded as a
/// `linalg.kernel` event naming the backend rather than aborting the
/// evaluation.
#[test]
fn kernel_panic_degrades_to_reference_backend() {
    let lock = unarmed();
    let (cat, env, expr) = chain(&[60, 40, 20, 1]);
    let opt = Optimizer::new(cat);
    let _g = arm(lock, "linalg.kernel", FailAction::Panic);
    let before = kernel_events().len();
    let (ranked, plan, _) = quiet_panics(|| opt.rewrite_verified(&expr, &env, 1e-9)).unwrap();
    assert!(plan.est_cost <= ranked.original.est_cost);
    let events = &kernel_events()[before..];
    assert!(!events.is_empty(), "kernel retries must surface linalg.kernel events");
    assert!(events.iter().all(|m| m.starts_with("worker panic in parallel backend during ")));
}

/// The messages of every `linalg.kernel` entry in the obs event log.
fn kernel_events() -> Vec<String> {
    let events = hadad_obs::events().into_iter().filter(|e| e.site == "linalg.kernel");
    events.map(|e| e.message).collect()
}

fn tweets() -> Table {
    let n = 60i64;
    Table::new(vec![
        ("tid", Column::Int((0..n).collect())),
        ("topic", Column::Int((0..n).map(|i| i % 6).collect())),
        ("level", Column::Int((0..n).map(|i| i % 4 + 1).collect())),
    ])
}

fn hybrid_with_view() -> (HybridOptimizer, HybridPipeline) {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    hy.register_table_view("topic3", RelQuery::scan("tweets").select_eq("topic", 3)).unwrap();
    let p = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", 3),
        sort_key: Some("tid".into()),
        cast: CastKind::Dense { columns: vec!["tid".into(), "level".into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    };
    (hy, p)
}

/// The poisoning contract under an injected mid-pass fault: the failed
/// maintenance pass poisons the maintainer, maintenance refuses and every
/// view reads stale, runs degrade (base tables only) instead of erroring,
/// and `rebuild_views` recovers fully — logged writes and maintenance
/// included.
#[test]
fn maintenance_midpass_fault_poisons_then_rebuild_recovers() {
    let lock = unarmed();
    let (mut hy, p) = hybrid_with_view();
    let row = |tid: i64| vec![vec![Value::Int(tid), Value::Int(3), Value::Int(1)]];
    let g = arm(lock, "maintain.midpass", FailAction::Error);
    hy.catalog.insert_rows("tweets", row(600)).unwrap();
    let err = hy.maintain_views().unwrap_err();
    assert!(matches!(err, HybridError::Fault { site: "maintain.midpass" }));
    assert!(matches!(hy.maintain_views(), Err(HybridError::MaintenancePoisoned)));
    let _lock = disarm(g);
    assert_eq!(hy.stale_views(), vec!["topic3"]);

    // Degraded anytime run: base tables are current (the insert landed),
    // the unknown view is simply not offered to the rewriter.
    let r = hy.rewrite_hybrid(&p).unwrap();
    assert_eq!(
        r.degraded,
        Some(Degraded {
            reason: DegradeReason::MaintenancePoisoned,
            phase: RewritePhase::Maintenance,
        })
    );
    assert!(r.rel.rewriting.is_none());
    assert_eq!(r.rel.rows_out, 11);

    // Recovery: rebuild re-materializes from current base tables and the
    // view-backed rewriting comes back.
    hy.rebuild_views().unwrap();
    assert_eq!(hy.catalog.cardinality("topic3"), Some(11));
    let r = hy.rewrite_hybrid(&p).unwrap();
    assert!(r.degraded.is_none());
    assert!(r.rel.rewriting.is_some());
    assert_eq!(r.rel.rows_out, 11);

    // And maintenance works again: a logged write reaches the view.
    hy.catalog.insert_rows("tweets", row(601)).unwrap();
    hy.maintain_views().unwrap();
    assert_eq!(hy.catalog.cardinality("topic3"), Some(12));
    assert_eq!(hy.rewrite_hybrid(&p).unwrap().rel.rows_out, 12);
}

/// Same contract when the pass *panics* mid-way instead of erroring.
#[test]
fn maintenance_midpass_panic_poisons_instead_of_unwinding() {
    let lock = unarmed();
    let (mut hy, p) = hybrid_with_view();
    let g = arm(lock, "maintain.midpass", FailAction::Panic);
    hy.catalog
        .insert_rows("tweets", vec![vec![Value::Int(600), Value::Int(3), Value::Int(1)]])
        .unwrap();
    let err = quiet_panics(|| hy.maintain_views()).unwrap_err();
    assert!(matches!(err, HybridError::MaintenancePoisoned));
    let _lock = disarm(g);
    assert!(hy.rewrite_hybrid(&p).unwrap().degraded.is_some());
    hy.rebuild_views().unwrap();
    assert!(hy.rewrite_hybrid(&p).unwrap().degraded.is_none());
}

/// A failed cast re-stamp after the log drained must poison (not silently
/// clear staleness); rebuild recovers and re-stamps.
#[test]
fn restamp_fault_poisons_then_rebuild_recovers() {
    let lock = unarmed();
    let (mut hy, p) = hybrid_with_view();
    hy.register_maintained_cast(hadad_rewrite::MaintainedCast {
        cast_name: "N".into(),
        view: "topic3".into(),
        sort_key: Some("tid".into()),
        cast: CastKind::Dense { columns: vec!["tid".into(), "level".into()] },
    })
    .unwrap();
    let g = arm(lock, "hybrid.restamp", FailAction::Error);
    hy.catalog
        .insert_rows("tweets", vec![vec![Value::Int(600), Value::Int(3), Value::Int(1)]])
        .unwrap();
    let err = hy.maintain_views().unwrap_err();
    assert!(matches!(err, HybridError::Fault { site: "hybrid.restamp" }));
    assert!(matches!(hy.maintain_views(), Err(HybridError::MaintenancePoisoned)));
    let _lock = disarm(g);
    assert!(hy.rewrite_hybrid(&p).unwrap().degraded.is_some());
    hy.rebuild_views().unwrap();
    assert_eq!(hy.optimizer.cat.get("N").unwrap().rows, 11);
    assert!(hy.rewrite_hybrid(&p).unwrap().degraded.is_none());
}

/// A degraded prefix is never memoized: a snapshot read under a PACB panic
/// returns the contained `WorkerPanic` and stores nothing, so the next read
/// runs cold (and clean), and only the read after that hits.
#[test]
fn degraded_prefix_is_never_memoized() {
    let lock = unarmed();
    let (mut hy, p) = hybrid_with_view();
    let snap = hy.reader().unwrap().current();
    let g = arm(lock, "chase.round", FailAction::Panic);
    let r = quiet_panics(|| snap.rewrite_hybrid(&p).unwrap());
    assert_eq!(r.degraded.map(|d| d.reason), Some(DegradeReason::WorkerPanic));
    assert!(!r.rel.memo_hit);
    assert!(r.rel.rewriting.is_none());

    // The reads below must be unarmed.
    let _lock = disarm(g);
    let cold = snap.rewrite_hybrid(&p).unwrap();
    assert!(!cold.rel.memo_hit, "the panicked read must not have been stored");
    assert!(cold.degraded.is_none());
    assert!(cold.rel.rewriting.is_some());

    let hit = snap.rewrite_hybrid(&p).unwrap();
    assert!(hit.rel.memo_hit);
    assert!(hit.degraded.is_none());
    assert_eq!(hit.table, cold.table);
    assert_eq!(hit.cast, cold.cast);
}

/// CI's fault-matrix entry point: arms nothing itself — it runs whatever
/// `HADAD_FAILPOINTS` injected (one config per CI job) and asserts the
/// whole pipeline degrades cleanly: every call returns `Ok` (or the typed
/// poisoning error with a working rebuild path), plans stay sound, and the
/// process never aborts. Also passes with no env set (the clean run).
#[test]
fn env_driven_single_fault_degrades_cleanly() {
    let _lock = unarmed();
    hadad_failpoint::init_from_env();
    // A typo'd spec entry would leave its site unarmed and this run would
    // pass vacuously; fail loudly instead so the matrix config gets fixed.
    assert!(
        hadad_failpoint::spec_errors().is_empty(),
        "malformed HADAD_FAILPOINTS entries: {:?}",
        hadad_failpoint::spec_errors()
    );
    let armed = |site: &str| -> bool { hadad_failpoint::action_for(site).is_some() };

    quiet_panics(|| {
        // LA pipeline: must return a verified plan under every fault.
        let (cat, env, expr) = chain(&[60, 40, 20, 1]);
        let opt = Optimizer::new(cat);
        let (ranked, plan, _) = opt.rewrite_verified(&expr, &env, 1e-9).unwrap();
        assert!(plan.est_cost <= ranked.original.est_cost);
        if armed("chase.round") || armed("extract.solve") {
            // Delay is the only action that degrades nothing here.
            let delayed = matches!(
                hadad_failpoint::action_for("chase.round"),
                Some(hadad_failpoint::FailAction::Delay(_))
            ) || matches!(
                hadad_failpoint::action_for("extract.solve"),
                Some(hadad_failpoint::FailAction::Delay(_))
            );
            assert!(ranked.report.degraded.is_some() || delayed);
        }

        // Hybrid pipeline: maintenance faults poison (typed, no abort) and
        // rebuild recovers; all other faults leave maintenance clean.
        let (mut hy, p) = hybrid_with_view();
        // A maintained cast puts the restamp site on this run's path; an
        // armed `hybrid.restamp` surfaces right here as the typed fault.
        if let Err(e) = hy.register_maintained_cast(hadad_rewrite::MaintainedCast {
            cast_name: "N".into(),
            view: "topic3".into(),
            sort_key: Some("tid".into()),
            cast: CastKind::Dense { columns: vec!["tid".into(), "level".into()] },
        }) {
            assert!(
                matches!(e, HybridError::Fault { site: "hybrid.restamp" }),
                "unexpected cast registration failure: {e}"
            );
        }
        hy.catalog
            .insert_rows("tweets", vec![vec![Value::Int(600), Value::Int(3), Value::Int(1)]])
            .unwrap();
        match hy.maintain_views() {
            Ok(_) => {
                let r = hy.rewrite_hybrid(&p).unwrap();
                assert_eq!(r.rel.rows_out, 11);
            }
            Err(e) => {
                assert!(
                    armed("maintain.midpass") || armed("hybrid.restamp"),
                    "unexpected maintenance failure: {e}"
                );
                // Degraded but alive; rebuild restores full service. The
                // rebuild itself never passes through the armed maintenance
                // sites, so it succeeds even while they stay armed.
                assert!(hy.rewrite_hybrid(&p).unwrap().degraded.is_some());
                hy.rebuild_views().unwrap();
                assert_eq!(hy.catalog.cardinality("topic3"), Some(11));
            }
        }
    });
}
