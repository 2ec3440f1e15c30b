//! The static registration gate on LA views: a well-formed view's
//! `V_IO`/`V_OI` pair certifies against the standard catalogue and the
//! view is chased afterwards; a refused pair is never chased, whether it
//! is refused at registration or by the first rewrite that can build it.

mod common;

use common::corpus_catalog;
use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog};
use hadad_rewrite::{Optimizer, RewriteError};

/// LA view registration stays `Ok` for a well-formed definition and the
/// view is usable by the rewriter afterwards — the gate must not reject
/// the pair `Catalogue::la_view_constraints` builds.
#[test]
fn well_formed_la_view_still_registers() {
    let mut opt = Optimizer::new(corpus_catalog());
    opt.register_la_view("V1", mul(m("A"), m("B"))).expect("well-formed view registers");
    let ranked = opt.rewrite(&mul(mul(m("A"), m("B")), m("D"))).expect("rewrite with view");
    assert!(ranked.best().est_cost <= ranked.original.est_cost);
}

/// A pair the gate refuses at registration leaves no view behind.
#[test]
fn a_refused_la_view_is_not_registered() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(8, 8));
    let mut opt = Optimizer::new(cat);
    let refused = opt.register_la_view("W", mul(m("A"), Expr::Identity(8)));
    assert!(matches!(refused, Err(RewriteError::Rejected(_))), "{refused:?}");
    assert!(!opt.has_la_view("W"));
}

/// A view registered ahead of its leaf is accepted; once the leaf is
/// catalogued its pair is built, refused, and from then on every rewrite
/// is refused — a bare chain, a query the chain tables could not hold, and
/// one that does not read the view — on the optimizer and on a clone taken
/// before the first of them.
#[test]
fn a_view_refused_after_its_leaf_arrives_refuses_every_rewrite() {
    let mut cat = MetaCatalog::new();
    cat.register("B", MatrixMeta::dense(8, 8));
    cat.register("y", MatrixMeta::dense(8, 1));
    let mut opt = Optimizer::new(cat);
    opt.register_la_view("V", mul(m("E"), Expr::Identity(8)))
        .expect("a pair that cannot be built yet is not analyzed");
    assert!(opt.rewrite(&mul(m("B"), m("y"))).is_ok(), "V is left out of the call");

    opt.cat.register("E", MatrixMeta::dense(8, 8));
    let clone = opt.clone();
    let queries =
        [mul(mul(m("E"), m("B")), m("y")), mul(t(m("E")), m("y")), mul(m("B"), m("y"))];
    for (who, opt) in [("optimizer", &opt), ("clone", &clone)] {
        for e in &queries {
            let refused = opt.rewrite(e);
            assert!(
                matches!(refused, Err(RewriteError::Rejected(_))),
                "{who}, {e}: {refused:?}"
            );
        }
    }
}
