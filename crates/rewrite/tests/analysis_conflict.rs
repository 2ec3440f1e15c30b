//! A constraint that merges classes of different shapes — an unsound rule
//! offered through `register_constraints` — ends the rewrite with the
//! original plan, degraded with a typed reason and counted; neither of the
//! two shapes is ever picked silently.
//!
//! The `rewrite.analysis_conflicts` counter is process-global, so this
//! binary holds exactly one test.

use hadad_chase::{Atom, ChaseOutcome, DegradeReason, Egd, RewritePhase, Term};
use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog, OpKind};
use hadad_rewrite::Optimizer;

fn conflicts() -> u64 {
    hadad_obs::snapshot().counter("rewrite.analysis_conflicts").unwrap_or(0)
}

#[test]
fn equating_a_matrix_with_its_transpose_degrades_to_the_original() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(3, 5));
    cat.register("B", MatrixMeta::dense(5, 4));
    let mut opt = Optimizer::new(cat);
    // "Every matrix is its own transpose": tr(x, y) → x = y.
    opt.register_constraints(|vrem| {
        let tr = vrem.op(OpKind::Transpose);
        let premise = vec![Atom::new(tr, vec![Term::Var(0), Term::Var(1)])];
        vec![Egd::new("unsound-symmetry", premise, vec![(Term::Var(0), Term::Var(1))]).into()]
    })
    .expect("the rule is range-restricted, so the static gate admits it");

    let e = mul(t(t(m("A"))), m("B"));
    let before = conflicts();
    let ranked = opt.rewrite(&e).expect("a conflict degrades, it does not fail");
    assert_eq!(conflicts() - before, 1);

    let report = &ranked.report;
    assert!(matches!(report.chase_outcome, ChaseOutcome::AnalysisConflict(_)));
    let degraded = report.degraded.as_ref().expect("the call is marked degraded");
    assert_eq!(
        (degraded.reason, degraded.phase),
        (DegradeReason::AnalysisConflict, RewritePhase::Chase)
    );
    let plans: Vec<String> = ranked.plans.iter().map(|p| p.expr.to_string()).collect();
    assert_eq!(plans, [e.to_string()], "only the original, nothing from the unsound instance");
    assert_eq!(ranked.best().est_cost, ranked.original.est_cost);
}
