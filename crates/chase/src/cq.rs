//! Conjunctive queries `Q(x̄) :- R1(ȳ1), ..., Rn(ȳn)` (paper §4.1).

use crate::atom::Atom;
use crate::symbols::Vocabulary;
use crate::term::Term;

/// A conjunctive query: distinguished head terms plus a body of relational
/// atoms. Head positions are usually variables, but queries produced by
/// selections (and rewritings of them) may carry constants in the head —
/// e.g. `Q(x, 7) :- R(x, 7)` after an equality selection on the second
/// column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    /// Distinguished (head) terms.
    pub head: Vec<Term>,
    /// Body atoms (conjunction).
    pub body: Vec<Atom>,
}

impl Cq {
    /// A CQ `head :- body`; debug-asserts safety (head vars body-bound).
    pub fn new(head: Vec<Term>, body: Vec<Atom>) -> Self {
        let q = Cq { head, body };
        debug_assert!(q.is_safe(), "head variables must occur in the body");
        q
    }

    /// Convenience constructor for the common all-variable head.
    pub fn with_var_head(head: Vec<u32>, body: Vec<Atom>) -> Self {
        Cq::new(head.into_iter().map(Term::Var).collect(), body)
    }

    /// Head variables, skipping constant head positions.
    pub fn head_vars(&self) -> impl Iterator<Item = u32> + '_ {
        self.head.iter().filter_map(Term::as_var)
    }

    /// Safety: every head *variable* appears in some body atom (constants
    /// are trivially safe).
    pub fn is_safe(&self) -> bool {
        self.head_vars().all(|h| self.body.iter().any(|a| a.vars().any(|v| v == h)))
    }

    /// Renders `Q(?h..) :- atom, atom` for debugging.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let head: Vec<String> = self
            .head
            .iter()
            .map(|t| match t {
                Term::Var(v) => format!("?{v}"),
                Term::Const(c) => vocab.const_name(*c).to_owned(),
            })
            .collect();
        let body: Vec<String> = self.body.iter().map(|a| a.display(vocab)).collect();
        format!("Q({}) :- {}", head.join(", "), body.join(" ∧ "))
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
    fn safety_check() {
        let q = Cq { head: vec![Term::Var(0)], body: vec![atom(0, &[0, 1])] };
        assert!(q.is_safe());
        let unsafe_q = Cq { head: vec![Term::Var(9)], body: vec![atom(0, &[0, 1])] };
        assert!(!unsafe_q.is_safe());
    }

    #[test]
    fn constant_heads_are_safe() {
        let mut vocab = Vocabulary::new();
        let seven = vocab.constant("7");
        let q = Cq::new(vec![Term::Var(0), Term::Const(seven)], vec![atom(0, &[0, 1])]);
        assert!(q.is_safe());
        assert_eq!(q.head_vars().collect::<Vec<_>>(), vec![0]);
    }
}
