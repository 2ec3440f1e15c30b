//! Provenance formulas for the backchase (paper §4.2), private to PACB
//! (`pacb.rs`): the chase engine never sees one.
//!
//! Each atom of the universal plan gets a unique provenance *term*
//! `p_i`; atoms produced during the backchase carry provenance *formulas*
//! built with conjunction and disjunction. We keep formulas in DNF: a set
//! of conjuncts, each a bitmask over the (≤ 128) universal-plan atoms.
//! Absorption (`c1 ⊆ c2` makes `c2` redundant) keeps the DNF minimal, which
//! is exactly what makes the read-off rewritings *minimal* in PACB.

/// Maximum number of provenance terms (universal-plan atoms) supported.
pub const MAX_PROV_TERMS: usize = 128;

/// A conjunct: set of provenance terms, as a bitmask.
pub type Conjunct = u128;

/// DNF provenance formula. The empty formula (`⊥`, no conjuncts) annotates
/// facts with no universal-plan justification; the formula with one empty
/// conjunct (`⊤`) annotates unconditional facts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    conjuncts: Vec<Conjunct>,
}

impl Provenance {
    /// `⊥` — no justification (input facts of the initial chase).
    pub fn empty() -> Self {
        Provenance { conjuncts: vec![] }
    }

    /// `⊤` — a single empty conjunct (fact holds unconditionally).
    pub fn top() -> Self {
        Provenance { conjuncts: vec![0] }
    }

    /// Single provenance term `p_i`.
    pub fn term(i: usize) -> Self {
        assert!(i < MAX_PROV_TERMS, "provenance term index {i} out of range");
        Provenance { conjuncts: vec![1u128 << i] }
    }

    /// `true` for the empty formula (an input fact).
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// The supporting conjuncts.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// Disjunction with another formula (in place), with absorption.
    pub fn or_with(&mut self, other: &Provenance) {
        for &c in &other.conjuncts {
            self.add_conjunct(c);
        }
    }

    fn add_conjunct(&mut self, c: Conjunct) {
        // Absorption: drop c if some existing conjunct is a subset of it;
        // drop existing conjuncts that are supersets of c.
        // (`e & c == e` is a bitset-subset test, not a containment check —
        // clippy's `manual_contains` suggestion would change semantics.)
        #[allow(clippy::manual_contains)]
        if self.conjuncts.iter().any(|&e| e & c == e) {
            return;
        }
        self.conjuncts.retain(|&e| c & e != c);
        self.conjuncts.push(c);
    }

    /// Conjunction of two formulas: DNF product.
    pub fn and(&self, other: &Provenance) -> Provenance {
        let mut out = Provenance::empty();
        for &a in &self.conjuncts {
            for &b in &other.conjuncts {
                out.add_conjunct(a | b);
            }
        }
        out
    }

    /// Conjunction over many formulas; `⊤` if there are none.
    pub fn and_all<'p>(formulas: impl IntoIterator<Item = &'p Provenance>) -> Provenance {
        let mut acc = Provenance::top();
        for f in formulas {
            acc = acc.and(f);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// The terms set in a conjunct, as indices.
    pub fn conjunct_terms(c: Conjunct) -> Vec<usize> {
        (0..MAX_PROV_TERMS).filter(|&i| c & (1u128 << i) != 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_formula() {
        let p = Provenance::term(3);
        assert_eq!(p.conjuncts(), &[8u128]);
    }

    #[test]
    fn or_absorbs_supersets() {
        let mut p = Provenance::term(0); // {p0}
        p.or_with(&Provenance { conjuncts: vec![0b11] }); // {p0, p1} absorbed by {p0}
        assert_eq!(p.conjuncts(), &[1u128]);

        let mut q = Provenance { conjuncts: vec![0b11] };
        q.or_with(&Provenance::term(0)); // {p0} absorbs {p0,p1}
        assert_eq!(q.conjuncts(), &[1u128]);
    }

    #[test]
    fn and_is_dnf_product() {
        let a = Provenance { conjuncts: vec![0b01, 0b10] }; // p0 ∨ p1
        let b = Provenance::term(2); // p2
        let c = a.and(&b); // (p0∧p2) ∨ (p1∧p2)
        assert_eq!(c.conjuncts().len(), 2);
        assert!(c.conjuncts().contains(&0b101));
        assert!(c.conjuncts().contains(&0b110));
    }

    #[test]
    fn and_with_bottom_is_bottom() {
        let a = Provenance::term(0);
        let bot = Provenance::empty();
        assert!(a.and(&bot).is_empty());
    }

    #[test]
    fn and_all_of_empty_slice_is_top() {
        let t = Provenance::and_all([]);
        assert_eq!(t, Provenance::top());
    }

    #[test]
    fn conjunct_terms_roundtrip() {
        let c: Conjunct = (1 << 5) | (1 << 9);
        assert_eq!(Provenance::conjunct_terms(c), vec![5, 9]);
    }
}
