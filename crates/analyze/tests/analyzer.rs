//! Unit-level checks of the static analyzer over small hand-built rule
//! sets: cycle classification (special vs reuse-guarded), the safety /
//! range-restriction checks, subsumption, and the reuse-binding fixpoint
//! the guarded-edge downgrade relies on.

use std::collections::HashMap;

use hadad_analyze::{reuse_bound_existentials, Analyzer, IssueKind, RuleReport, Severity};
use hadad_chase::chase::functional_sig;
use hadad_chase::{Atom, Constraint, Egd, FunctionalSig, PredId, Term, Tgd, Vocabulary};

fn v(i: u32) -> Term {
    Term::Var(i)
}

fn has_kind(report: &RuleReport, pred: impl Fn(&IssueKind) -> bool) -> bool {
    report.issues.iter().any(|i| pred(&i.kind))
}

/// `q(x,y) → q(y,z)` with no functional EGD: the special self-edge at
/// `(q,1)` closes a cycle nothing guards — a hard termination risk.
#[test]
fn unguarded_existential_cycle_is_rejected() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 2);
    let rules: Vec<Constraint> = vec![Tgd::new(
        "gen",
        vec![Atom::new(q, vec![v(0), v(1)])],
        vec![Atom::new(q, vec![v(1), v(2)])],
    )
    .into()];

    let report = Analyzer::new(&rules).with_vocab(&vocab).report();
    assert!(!report.wa_strict);
    assert!(!report.wa_modulo_reuse);
    assert!(!report.certified());
    assert!(has_kind(&report, |k| matches!(k, IssueKind::SpecialCycle { .. })));
    // The existential is also flagged off-cycle: nothing can reuse-bind it.
    assert!(has_kind(&report, |k| matches!(k, IssueKind::UnguardedExistential { var: 2 })));
    let rej = report.rejection().expect("uncertified report yields a rejection");
    assert!(rej.to_string().contains("termination risk"));
}

/// The same recursive shape co-registered with `q`'s functional EGD: the
/// existential sits at the output position of a functional predicate with
/// its input premise-bound, so the cycle downgrades to a reuse-guarded
/// Info finding and the set still certifies (modulo reuse, not strictly).
#[test]
fn functional_egd_downgrades_cycle_to_guarded() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 2);
    let rules: Vec<Constraint> = vec![
        Tgd::new(
            "gen",
            vec![Atom::new(q, vec![v(0), v(1)])],
            vec![Atom::new(q, vec![v(1), v(2)])],
        )
        .into(),
        Egd::functional("q-fn", q, 2).into(),
    ];

    let report = Analyzer::new(&rules).with_vocab(&vocab).report();
    assert!(!report.wa_strict, "the cycle still exists in the textbook graph");
    assert!(report.wa_modulo_reuse);
    assert!(report.certified());
    assert_eq!(report.special_edges, 0);
    assert!(report.guarded_edges > 0);
    let guarded: Vec<_> = report
        .issues
        .iter()
        .filter(|i| matches!(i.kind, IssueKind::GuardedCycle { .. }))
        .collect();
    assert!(!guarded.is_empty());
    assert!(guarded.iter().all(|i| i.severity == Severity::Info));
}

/// EGDs that equate outputs only at a constant input (`q(c,x) ∧ q(c,y)`) or
/// only on the diagonal (`d(x,x,y) ∧ d(x,x,z)`) prove neither predicate
/// functional on its other facts: no signature, so `gen`'s cycle stays
/// unguarded and the set does not certify.
#[test]
fn restricted_egds_prove_no_signature() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 2);
    let d = vocab.predicate("d", 3);
    let c = Term::Const(vocab.constant("c"));
    let rules: Vec<Constraint> = vec![
        Tgd::new(
            "gen",
            vec![Atom::new(q, vec![v(0), v(1)])],
            vec![Atom::new(q, vec![v(1), v(2)])],
        )
        .into(),
        Egd::new(
            "q-at-c",
            vec![Atom::new(q, vec![c, v(0)]), Atom::new(q, vec![c, v(1)])],
            vec![(v(0), v(1))],
        )
        .into(),
        Egd::new(
            "d-diagonal",
            vec![Atom::new(d, vec![v(0), v(0), v(1)]), Atom::new(d, vec![v(0), v(0), v(2)])],
            vec![(v(1), v(2))],
        )
        .into(),
    ];

    let report = Analyzer::new(&rules).with_vocab(&vocab).report();
    assert_eq!(report.functional_preds, Vec::new());
    assert!(!report.wa_modulo_reuse);
    assert!(!report.certified());
    assert!(has_kind(&report, |k| matches!(k, IssueKind::SpecialCycle { .. })));
}

#[test]
fn safety_checks_flag_unsafe_rules() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 2);
    let r = vocab.predicate("r", 2);
    let a = vocab.constant("a");
    let b = vocab.constant("b");

    let rules: Vec<Constraint> = vec![
        // EGD equating a variable (?5) no premise atom binds.
        Egd::new("bad-egd", vec![Atom::new(q, vec![v(0), v(1)])], vec![(v(5), v(0))]).into(),
        // EGD forcing two distinct constants equal: every match clashes.
        Egd::new(
            "clash",
            vec![Atom::new(q, vec![v(0), v(1)])],
            vec![(Term::Const(a), Term::Const(b))],
        )
        .into(),
        // Empty premise minting existentials: unconditional generator.
        Tgd::new("mint", vec![], vec![Atom::new(q, vec![v(0), v(1)])]).into(),
        // Conclusion disjoint from a non-empty premise.
        Tgd::new(
            "cartesian",
            vec![Atom::new(q, vec![v(0), v(1)])],
            vec![Atom::new(r, vec![v(2), v(3)])],
        )
        .into(),
        // Atom at the wrong arity for its declared predicate.
        Tgd::new(
            "fat",
            vec![Atom::new(q, vec![v(0), v(1), v(2)])],
            vec![Atom::new(r, vec![v(0), v(1)])],
        )
        .into(),
    ];

    let report = Analyzer::new(&rules).with_vocab(&vocab).report();
    assert!(has_kind(&report, |k| matches!(k, IssueKind::UnboundEgdVar { var: 5 })));
    assert!(has_kind(&report, |k| matches!(k, IssueKind::ConstantClash)));
    assert!(has_kind(&report, |k| matches!(k, IssueKind::UnboundedGenerator)));
    assert!(has_kind(&report, |k| matches!(k, IssueKind::DisconnectedConclusion)));
    assert!(has_kind(&report, |k| matches!(
        k,
        IssueKind::ArityMismatch { expected: 2, found: 3, .. }
    )));
    assert!(!report.certified());
    // Every message renders without panicking, with and without a vocab.
    for issue in &report.issues {
        assert!(!issue.message(Some(&vocab)).is_empty());
        assert!(!issue.message(None).is_empty());
    }
}

/// An exact duplicate is subsumed; under mutual subsumption only the
/// later rule is flagged, so one copy always survives.
#[test]
fn duplicate_rule_is_flagged_as_subsumed() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 2);
    let r = vocab.predicate("r", 2);
    let copy = |name: &str| {
        Tgd::new(
            name,
            vec![Atom::new(q, vec![v(0), v(1)])],
            vec![Atom::new(r, vec![v(1), v(0)])],
        )
    };
    let rules: Vec<Constraint> = vec![copy("first").into(), copy("second").into()];

    let report = Analyzer::new(&rules).with_vocab(&vocab).report();
    let subsumed: Vec<_> = report
        .issues
        .iter()
        .filter_map(|i| match &i.kind {
            IssueKind::Subsumed { by } => Some((i.rule.as_str(), by.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(subsumed, vec![("second", "first")]);

    // ... and the warning disappears when subsumption is disabled.
    let lean = Analyzer::new(&rules).with_vocab(&vocab).without_subsumption().report();
    assert!(!has_kind(&lean, |k| matches!(k, IssueKind::Subsumed { .. })));
}

/// A more-specific rule (premise strictly stronger, same conclusion) is
/// subsumed by the general one, found via premise homomorphism.
#[test]
fn specialized_rule_is_subsumed_by_general_rule() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 2);
    let p = vocab.predicate("p", 1);
    let r = vocab.predicate("r", 2);
    let rules: Vec<Constraint> = vec![
        Tgd::new(
            "general",
            vec![Atom::new(q, vec![v(0), v(1)])],
            vec![Atom::new(r, vec![v(0), v(1)])],
        )
        .into(),
        Tgd::new(
            "specific",
            vec![Atom::new(q, vec![v(0), v(1)]), Atom::new(p, vec![v(0)])],
            vec![Atom::new(r, vec![v(0), v(1)])],
        )
        .into(),
    ];
    let report = Analyzer::new(&rules).with_vocab(&vocab).report();
    let subsumed: Vec<_> = report
        .issues
        .iter()
        .filter_map(|i| match &i.kind {
            IssueKind::Subsumed { by } => Some((i.rule.as_str(), by.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(subsumed, vec![("specific", "general")]);
}

/// The reuse fixpoint resolves chained existentials: `u` from `f(x)=u`
/// (input premise-bound), then `v` from `g(u)=v` (input resolved in a
/// previous iteration) — and stops where inputs stay unresolved.
#[test]
fn reuse_binding_fixpoint_chains_through_functional_atoms() {
    let mut vocab = Vocabulary::new();
    let q = vocab.predicate("q", 1);
    let f = vocab.predicate("f", 2);
    let g = vocab.predicate("g", 2);
    let h = vocab.predicate("h", 2);

    let mut functional: HashMap<PredId, FunctionalSig> = HashMap::new();
    for (pred, name) in [(f, "f-fn"), (g, "g-fn")] {
        let (p, sig) =
            functional_sig(&Egd::functional(name, pred, 2)).expect("functional shape");
        functional.insert(p, sig);
    }
    // h has no functional EGD: nothing resolves its output.
    let tgd = Tgd::new(
        "chain",
        vec![Atom::new(q, vec![v(0)])],
        vec![
            Atom::new(f, vec![v(0), v(1)]),
            Atom::new(g, vec![v(1), v(2)]),
            Atom::new(h, vec![v(0), v(3)]),
        ],
    );

    let bound = reuse_bound_existentials(&tgd, &functional);
    assert!(bound.contains(&1) && bound.contains(&2));
    assert!(!bound.contains(&3));
}
