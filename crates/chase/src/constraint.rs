//! Integrity constraints: Tuple-Generating and Equality-Generating
//! Dependencies (paper §4.1).
//!
//! A TGD `∀x̄ φ(x̄) → ∃z̄ ψ(x̄, z̄)` has a premise conjunction and a
//! conclusion conjunction; conclusion variables not bound by the premise are
//! existential. An EGD `∀x̄ φ(x̄) → w = w'` forces term equalities.

use crate::atom::Atom;
use crate::symbols::Vocabulary;
use crate::term::Term;

/// Tuple-generating dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tgd {
    /// Human-readable tag (e.g. `"mult-assoc"`, `"V_IO:V1"`) used by tests,
    /// traces, and the per-rule statistics of the optimizer.
    pub name: String,
    /// Premise conjunction (the body matched against the instance).
    pub premise: Vec<Atom>,
    /// Conclusion conjunction (facts asserted on each match).
    pub conclusion: Vec<Atom>,
    /// A test over premise variables that no fact answers: the chase's
    /// [`crate::Analysis`] decides it on each premise match, and the rule
    /// fires only where it holds (see [`crate::Analysis::guard`]).
    pub guard: Option<Atom>,
}

impl Tgd {
    /// A TGD `premise → conclusion` named `name`.
    pub fn new(name: impl Into<String>, premise: Vec<Atom>, conclusion: Vec<Atom>) -> Self {
        Tgd { name: name.into(), premise, conclusion, guard: None }
    }

    /// This TGD, firing only on the premise matches `guard` holds for.
    pub fn with_guard(mut self, guard: Atom) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Variables that occur in the conclusion but not in the premise: the
    /// existentially quantified ones, instantiated as fresh labelled nulls
    /// by the chase.
    pub fn existential_vars(&self) -> Vec<u32> {
        let premise_vars: std::collections::HashSet<u32> =
            self.premise.iter().flat_map(super::atom::Atom::vars).collect();
        let mut out = Vec::new();
        for a in &self.conclusion {
            for v in a.vars() {
                if !premise_vars.contains(&v) && !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Renders `[name] premise (if guard) → conclusion` for debugging.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let p: Vec<String> = self.premise.iter().map(|a| a.display(vocab)).collect();
        let c: Vec<String> = self.conclusion.iter().map(|a| a.display(vocab)).collect();
        let guard =
            self.guard.as_ref().map_or(String::new(), |g| format!(" if {}", g.display(vocab)));
        format!("[{}] {}{guard} → {}", self.name, p.join(" ∧ "), c.join(" ∧ "))
    }
}

/// Equality-generating dependency: premise plus pairs of terms to equate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Egd {
    /// Human-readable tag, as for [`Tgd::name`].
    pub name: String,
    /// Premise conjunction.
    pub premise: Vec<Atom>,
    /// Conjunction of equalities `w = w'` over premise variables/constants.
    pub equalities: Vec<(Term, Term)>,
}

impl Egd {
    /// An EGD `premise → equalities` named `name`.
    pub fn new(
        name: impl Into<String>,
        premise: Vec<Atom>,
        equalities: Vec<(Term, Term)>,
    ) -> Self {
        Egd { name: name.into(), premise, equalities }
    }

    /// The common EGD shape "P is functional in its last argument": two
    /// atoms agreeing on the first `arity-1` arguments force equal outputs.
    /// This is how HADAD states that `multiM`, `tr`, `invM`, ... denote
    /// operations (paper §6.2.3, constraint `I_multiM`).
    pub fn functional(
        name: impl Into<String>,
        pred: crate::symbols::PredId,
        arity: usize,
    ) -> Self {
        assert!(arity >= 1);
        let key_len = arity - 1;
        let a1: Vec<Term> = (0..arity as u32).map(Term::Var).collect();
        let a2: Vec<Term> = (0..arity as u32)
            .map(
                |i| if (i as usize) < key_len { Term::Var(i) } else { Term::Var(arity as u32) },
            )
            .collect();
        Egd {
            name: name.into(),
            premise: vec![Atom::new(pred, a1), Atom::new(pred, a2)],
            equalities: vec![(Term::Var(key_len as u32), Term::Var(arity as u32))],
        }
    }
}

/// Either kind of dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// A tuple-generating dependency.
    Tgd(Tgd),
    /// An equality-generating dependency.
    Egd(Egd),
}

impl Constraint {
    /// The rule's name, whichever kind it is.
    pub fn name(&self) -> &str {
        match self {
            Constraint::Tgd(t) => &t.name,
            Constraint::Egd(e) => &e.name,
        }
    }
}

impl From<Tgd> for Constraint {
    fn from(t: Tgd) -> Self {
        Constraint::Tgd(t)
    }
}

impl From<Egd> for Constraint {
    fn from(e: Egd) -> Self {
        Constraint::Egd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::PredId;

    fn atom(pred: u32, vars: &[u32]) -> Atom {
        Atom::new(PredId(pred), vars.iter().map(|&v| Term::Var(v)).collect())
    }

    #[test]
    fn existential_vars_excludes_premise_vars() {
        // p(0,1) -> q(1,2) ∧ r(2,3): existentials are {2, 3}.
        let t = Tgd::new("t", vec![atom(0, &[0, 1])], vec![atom(1, &[1, 2]), atom(2, &[2, 3])]);
        assert_eq!(t.existential_vars(), vec![2, 3]);
    }

    #[test]
    fn functional_egd_shape() {
        let e = Egd::functional("f", PredId(5), 3);
        assert_eq!(e.premise.len(), 2);
        assert_eq!(e.premise[0].args, vec![Term::Var(0), Term::Var(1), Term::Var(2)]);
        assert_eq!(e.premise[1].args, vec![Term::Var(0), Term::Var(1), Term::Var(3)]);
        assert_eq!(e.equalities, vec![(Term::Var(2), Term::Var(3))]);
    }
}
