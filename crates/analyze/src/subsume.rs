//! Duplicate / subsumed-rule detection via premise homomorphism.
//!
//! Rule `B` is redundant given rule `A` when every firing of `B` is
//! already covered by a firing of `A`. We decide this with the standard
//! single-step implication test over canonical databases, reusing the
//! chase's own homomorphism machinery:
//!
//! 1. freeze `B`'s premise into a canonical instance (each variable a
//!    distinct labelled null, constants as themselves);
//! 2. for every homomorphism `h` of `A`'s premise into that instance,
//!    apply `A` once (TGD: insert `h(A.conclusion)` with fresh nulls for
//!    `A`'s existentials; EGD: merge `h`'s images of the equated terms);
//! 3. `B` is subsumed if its own conclusion already holds in the result
//!    under the frozen identity on `B`'s premise variables (TGD: a
//!    homomorphism extending it; EGD: the equated classes coincide).
//!
//! The test is sound but deliberately single-step (no recursive chase),
//! which is exactly the "accidentally registered the same rewrite twice
//! under different names" class of mistake it exists to catch. Mutual
//! subsumption (true duplicates) flags only the later rule. A TGD's guard
//! counts as one more premise atom: a guarded rule subsumes only rules
//! whose premise carries the guard too.

use std::collections::HashMap;

use hadad_chase::homomorphism::{for_each_match, satisfiable_with};
use hadad_chase::{Atom, Bindings, Constraint, Egd, Instance, NodeId, Term, Tgd};

use crate::{IssueKind, RuleIssue, Severity};

/// Flags rules subsumed by another rule in the set.
///
/// Rules that use some predicate at an arity inconsistent with the rest
/// of the set are excluded up front: the chase's homomorphism matcher
/// (rightly) asserts consistent arities, and [`crate::safety`] already
/// reports the mismatch as an error, so there is nothing useful to say
/// about redundancy for a rule that cannot match at all.
pub fn check(constraints: &[Constraint]) -> Vec<RuleIssue> {
    let n = constraints.len();
    let arity_broken = arity_inconsistent_rules(constraints);
    let mut subsumes = vec![vec![false; n]; n];
    for (bi, b) in constraints.iter().enumerate() {
        if arity_broken[bi] {
            continue;
        }
        for (ai, a) in constraints.iter().enumerate() {
            if ai == bi || arity_broken[ai] {
                continue;
            }
            subsumes[ai][bi] = match (a, b) {
                (Constraint::Tgd(a), Constraint::Tgd(b)) => tgd_subsumes(a, b),
                (Constraint::Egd(a), Constraint::Egd(b)) => egd_subsumes(a, b),
                _ => false,
            };
        }
    }
    let mut issues = Vec::new();
    for bi in 0..n {
        let by = (0..n).find(|&ai| {
            // For a mutually-subsuming (equivalent) pair keep the earlier
            // rule and flag only the later one.
            subsumes[ai][bi] && !(subsumes[bi][ai] && ai > bi)
        });
        if let Some(ai) = by {
            issues.push(RuleIssue {
                rule: constraints[bi].name().to_owned(),
                severity: Severity::Warning,
                kind: IssueKind::Subsumed { by: constraints[ai].name().to_owned() },
            });
        }
    }
    issues
}

/// Marks each rule whose atoms use some predicate at an arity that
/// disagrees with that predicate's first use anywhere in the set.
fn arity_inconsistent_rules(constraints: &[Constraint]) -> Vec<bool> {
    let mut arity: HashMap<hadad_chase::PredId, usize> = HashMap::new();
    let atoms_of = |c: &Constraint| -> Vec<hadad_chase::Atom> {
        match c {
            Constraint::Tgd(t) => t.premise.iter().chain(&t.conclusion).cloned().collect(),
            Constraint::Egd(e) => e.premise.clone(),
        }
    };
    for c in constraints {
        for atom in atoms_of(c) {
            arity.entry(atom.pred).or_insert(atom.args.len());
        }
    }
    constraints
        .iter()
        .map(|c| atoms_of(c).iter().any(|a| arity[&a.pred] != a.args.len()))
        .collect()
}

/// Canonical database of a premise: every variable frozen to its own
/// labelled null, constants interned. Returns the instance plus the
/// frozen variable map.
fn freeze_premise(atoms: &[hadad_chase::Atom]) -> (Instance, Bindings) {
    let mut inst = Instance::new();
    let mut frozen = Bindings::default();
    for atom in atoms {
        let args: Vec<NodeId> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => frozen.get_or_insert_with(*v, || inst.fresh_null()),
                Term::Const(c) => inst.const_node(*c),
            })
            .collect();
        inst.insert(atom.pred, args);
    }
    (inst, frozen)
}

/// Resolves a term under `bindings`, interning constants into `inst`.
fn resolve(inst: &mut Instance, bindings: &Bindings, t: &Term) -> Option<NodeId> {
    match t {
        Term::Var(v) => bindings.get(*v),
        Term::Const(c) => Some(inst.const_node(*c)),
    }
}

fn tgd_subsumes(a: &Tgd, b: &Tgd) -> bool {
    let guarded =
        |t: &Tgd| -> Vec<Atom> { t.premise.iter().chain(&t.guard).cloned().collect() };
    let (inst, frozen) = freeze_premise(&guarded(b));
    let mut found = false;
    let mut matches: Vec<Bindings> = Vec::new();
    for_each_match(&inst, &guarded(a), &mut |m| {
        matches.push(m.bindings.clone());
        true
    });
    for bindings in matches {
        // Apply A once on this match: fresh nulls for its existentials,
        // then its conclusion facts.
        let mut chased = inst.clone();
        let mut h = bindings;
        for v in a.existential_vars() {
            let null = chased.fresh_null();
            h.set(v, null);
        }
        let mut ok = true;
        for atom in &a.conclusion {
            let args: Vec<NodeId> = match atom
                .args
                .iter()
                .map(|t| resolve(&mut chased, &h, t))
                .collect::<Option<Vec<_>>>()
            {
                Some(args) => args,
                None => {
                    ok = false;
                    break;
                }
            };
            chased.insert(atom.pred, args);
        }
        if ok && satisfiable_with(&chased, &b.conclusion, &frozen) {
            found = true;
            break;
        }
    }
    found
}

fn egd_subsumes(a: &Egd, b: &Egd) -> bool {
    let (inst, frozen) = freeze_premise(&b.premise);
    let mut matches: Vec<Bindings> = Vec::new();
    for_each_match(&inst, &a.premise, &mut |m| {
        matches.push(m.bindings.clone());
        true
    });
    for bindings in matches {
        let mut chased = inst.clone();
        let mut consistent = true;
        for (l, r) in &a.equalities {
            let (Some(ln), Some(rn)) =
                (resolve(&mut chased, &bindings, l), resolve(&mut chased, &bindings, r))
            else {
                consistent = false;
                break;
            };
            if chased.merge(ln, rn).is_err() {
                consistent = false;
                break;
            }
        }
        if !consistent {
            continue;
        }
        let holds = b.equalities.iter().all(|(l, r)| {
            match (resolve(&mut chased, &frozen, l), resolve(&mut chased, &frozen, r)) {
                (Some(ln), Some(rn)) => chased.find(ln) == chased.find(rn),
                _ => false,
            }
        });
        if holds {
            return true;
        }
    }
    false
}
