//! The static gate on an LA view registered ahead of the matrices it is
//! defined over (the hybrid "view over a cast catalogued later" case):
//! its `V_IO`/`V_OI` pair cannot be built at registration, so the first
//! rewrite that can build it analyzes it — once, for every clone. That
//! holds for a product-chain view too, whose call chases no pair: the
//! chain tables hold the view.
//!
//! Read from the `analyze.reports` counter, which is process-global, so
//! this binary holds exactly one test.

use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_rewrite::Optimizer;

fn reports() -> u64 {
    hadad_obs::snapshot().counter("analyze.reports").unwrap_or(0)
}

#[test]
fn forward_referencing_view_is_analyzed_once_by_the_first_rewrite_that_builds_it() {
    let mut cat = MetaCatalog::new();
    cat.register("y", MatrixMeta::dense(200, 1));
    let mut opt = Optimizer::new(cat);

    // `C` is not catalogued yet: nothing to build, so nothing to analyze.
    let before = reports();
    opt.register_la_view("G", mul(t(m("C")), m("C"))).expect("forward reference is accepted");
    assert_eq!(reports(), before, "an unbuildable pair is not analyzed at registration");
    // A view over a matrix the call does not catalogue is left out of it.
    assert!(opt.rewrite(&m("y")).is_ok(), "the view is left out; the call runs");
    assert_eq!(reports(), before);

    // Its leaf arrives; a clone taken now shares the verdict to come.
    opt.cat.register("C", MatrixMeta::dense(200, 8));
    let clone = opt.clone();
    let e = mul(mul(t(m("C")), m("C")), mul(t(m("C")), m("y")));
    let first = opt.rewrite(&e).expect("buildable now");
    assert_eq!(reports(), before + 1, "the first rewrite that builds the pair analyzes it");
    assert_eq!(first.best().expr, mul(m("G"), mul(t(m("C")), m("y"))), "and chases with it");

    let second = opt.rewrite(&e).expect("certified");
    let cloned = clone.rewrite(&e).expect("certified through the shared verdict");
    assert_eq!(reports(), before + 1, "the verdict is remembered with the view");
    assert_eq!(second.best().expr, first.best().expr);
    assert_eq!(cloned.best().expr, first.best().expr);

    // A view buildable at registration is analyzed there and never again.
    opt.register_la_view("H", mul(m("C"), t(m("C")))).unwrap();
    assert_eq!(reports(), before + 2);
    opt.rewrite(&e).unwrap();
    assert_eq!(reports(), before + 2);

    // A product chain over `E`, not catalogued yet, on an optimizer whose
    // calls fold it into the chain tables.
    let mut cat = MetaCatalog::new();
    cat.register("D", MatrixMeta::dense(200, 30));
    cat.register("y", MatrixMeta::dense(200, 1));
    let mut opt = Optimizer::new(cat);
    opt.register_la_view("P", mul(m("D"), m("E"))).expect("forward reference is accepted");
    assert!(opt.rewrite(&m("y")).is_ok(), "P is left out");
    assert_eq!(reports(), before + 2);
    opt.cat.register("E", MatrixMeta::dense(30, 200));
    let clone = opt.clone();
    let chain = mul(mul(m("D"), m("E")), m("y"));
    let first = opt.rewrite(&chain).expect("buildable now");
    assert_eq!(reports(), before + 3, "the first call that can build P's pair analyzes it");
    assert_eq!(first.report.chase_stats.rules.len(), shared_rules(), "and chases no pair");
    assert!(first.plans.iter().any(|p| p.expr == mul(m("P"), m("y"))), "the cells hold P");
    opt.rewrite(&chain).unwrap();
    clone.rewrite(&chain).unwrap();
    assert_eq!(reports(), before + 3, "the verdict is remembered with the view");
}

fn shared_rules() -> usize {
    hadad_core::Catalogue::shared_standard().1.len()
}
