//! A constraint that merges classes of different shapes ends the rewrite
//! with the original plan, degraded with a typed reason and counted;
//! neither of the two shapes is ever picked silently. Here the constraint
//! is a registered view's `V_IO` rule, after the view's name was
//! catalogued as a matrix of another shape.
//!
//! The `rewrite.analysis_conflicts` counter is process-global, so this
//! binary holds exactly one test.

use hadad_chase::{ChaseOutcome, DegradeReason, RewritePhase};
use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_rewrite::Optimizer;

fn conflicts() -> u64 {
    hadad_obs::snapshot().counter("rewrite.analysis_conflicts").unwrap_or(0)
}

#[test]
fn equating_a_matrix_with_its_transpose_degrades_to_the_original() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(3, 5));
    cat.register("B", MatrixMeta::dense(5, 3));
    let mut opt = Optimizer::new(cat);
    opt.register_la_view("V", mul(m("A"), m("B"))).expect("a well-formed view certifies");
    // `V` now names a 4×4 matrix too: the view's `name-unique` merge equates
    // it with the 3×3 product A·B.
    opt.cat.register("V", MatrixMeta::dense(4, 4));

    let e = add(sum(m("V")), sum(mul(m("A"), m("B"))));
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
