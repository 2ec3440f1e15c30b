//! Property-style certification of the built-in rule set: the standard
//! MMC catalogue (functional EGDs + structural/decomposition TGDs), alone
//! and extended with sampled per-view
//! `V_IO`/`V_OI` constraints, must be range-restricted and weakly acyclic
//! modulo conclusion-atom reuse. This is the same certificate `xtask
//! analyze` gates CI on, pinned here as a plain tier-1 test.

use hadad_core::analyze::{IssueKind, Severity};
use hadad_core::expr::dsl::{add, inv, m, mul, smul, t, trace};
use hadad_core::{Catalogue, Expr, MatrixMeta, MetaCatalog, Vrem};

fn meta() -> MetaCatalog {
    let mut meta = MetaCatalog::new();
    meta.register("A", MatrixMeta::dense(64, 32));
    meta.register("B", MatrixMeta::dense(32, 48));
    meta.register("C", MatrixMeta::dense(48, 48));
    meta.register("G", MatrixMeta::dense(32, 32));
    meta
}

/// View shapes sampled across the operator surface the view-constraint
/// generator handles: chain products, transposed Gram mixes, inverses,
/// and scalar-scaled trace reductions.
fn sample_views() -> Vec<(&'static str, Expr)> {
    vec![
        ("V_chain", mul(mul(m("A"), m("B")), m("C"))),
        ("V_mix", add(mul(t(m("A")), m("A")), m("G"))),
        ("V_inv", inv(add(mul(t(m("A")), m("A")), m("G")))),
        ("V_scaled", smul(trace(mul(m("A"), t(m("A")))), m("C"))),
    ]
}

#[test]
fn standard_catalogue_is_certified() {
    let mut vrem = Vrem::new();
    let cat = Catalogue::standard(&mut vrem);
    let report = cat.analyze(&vrem);

    assert!(
        report.certified(),
        "catalogue failed its own gate:\n{}",
        report.display(Some(&vrem.vocab))
    );
    assert_eq!(report.errors().count(), 0);
    // Documented property, not an accident: the catalogue is NOT strictly
    // weakly acyclic (associativity/distributivity rules cycle through
    // existential positions), but every such cycle is reuse-guarded by
    // the functional EGDs, so the modulo-reuse certificate holds.
    assert!(!report.wa_strict);
    assert!(report.wa_modulo_reuse);
    assert_eq!(report.special_edges, 0, "no unguarded existential edges");
    assert!(report.guarded_edges > 0);
    assert!(report.issues.iter().any(|i| matches!(i.kind, IssueKind::GuardedCycle { .. })));
    // Every catalogue existential is reuse-bound — the PR 4 contract.
    assert!(!report
        .issues
        .iter()
        .any(|i| matches!(i.kind, IssueKind::UnguardedExistential { .. })));
    // No redundant rules slipped into the hand-built set.
    assert!(!report.issues.iter().any(|i| matches!(i.kind, IssueKind::Subsumed { .. })));
}

#[test]
fn catalogue_with_sampled_view_constraints_stays_certified() {
    let mut vrem = Vrem::new();
    let mut cat = Catalogue::standard(&mut vrem);
    let meta = meta();
    for (name, def) in sample_views() {
        let view = Catalogue::la_view_constraints(&mut vrem, &meta, name, &def)
            .unwrap_or_else(|e| panic!("view constraints for {name}: {e:?}"));
        assert_eq!(view.constraints.len(), 2, "{name}: V_IO and V_OI");
        cat.constraints.extend(view.constraints);
    }

    let report = cat.analyze(&vrem);
    assert!(
        report.certified(),
        "catalogue + views failed the gate:\n{}",
        report.display(Some(&vrem.vocab))
    );
    assert_eq!(report.special_edges, 0);
    // View generators add guarded cycles (V_OI re-derives the view's
    // definition); all must stay informational.
    for issue in &report.issues {
        assert!(
            issue.severity < Severity::Error,
            "unexpected error finding: {}",
            issue.message(Some(&vrem.vocab))
        );
    }
}

/// Each view's constraints certify in isolation too — the property the
/// hybrid registration gate relies on when it analyzes one view at a
/// time.
#[test]
fn each_sampled_view_certifies_in_isolation() {
    for (name, def) in sample_views() {
        let mut vrem = Vrem::new();
        let mut cat = Catalogue::standard(&mut vrem);
        let view = Catalogue::la_view_constraints(&mut vrem, &meta(), name, &def)
            .unwrap_or_else(|e| panic!("view constraints for {name}: {e:?}"));
        cat.constraints.extend(view.constraints);
        let report = cat.analyze(&vrem);
        assert!(
            report.certified(),
            "view {name} alone failed the gate:\n{}",
            report.display(Some(&vrem.vocab))
        );
    }
}
