//! The static registration gate admits well-formed registrations: an LA
//! view's `V_IO`/`V_OI` pair certifies against the standard catalogue and
//! the view is chased afterwards.

mod common;

use common::corpus_catalog;
use hadad_core::expr::dsl::*;
use hadad_rewrite::Optimizer;

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
