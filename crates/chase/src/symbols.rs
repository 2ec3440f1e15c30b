//! String interning for predicates and constants.
//!
//! The chase manipulates many copies of the same names (`multiM`, `"M.csv"`,
//! size constants); interning keeps atoms as small integer tuples so
//! homomorphism search stays allocation-free on the hot path.

use std::collections::HashMap;

/// Interned constant symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

/// Interned predicate name (carries an arity in the [`Vocabulary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// Two-way interner for constants and predicates.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    consts: Vec<String>,
    const_ids: HashMap<String, SymId>,
    preds: Vec<(String, usize)>,
    pred_ids: HashMap<String, PredId>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: impl AsRef<str>) -> SymId {
        let name = name.as_ref();
        if let Some(&id) = self.const_ids.get(name) {
            return id;
        }
        let id = SymId(self.consts.len() as u32);
        self.consts.push(name.to_owned());
        self.const_ids.insert(name.to_owned(), id);
        id
    }

    /// Interns an integer constant (canonical decimal form).
    pub fn int(&mut self, v: i64) -> SymId {
        self.constant(v.to_string())
    }

    /// Declares (or retrieves) a predicate with the given arity.
    /// Panics if re-declared with a different arity.
    pub fn predicate(&mut self, name: impl AsRef<str>, arity: usize) -> PredId {
        let name = name.as_ref();
        if let Some(&id) = self.pred_ids.get(name) {
            assert_eq!(
                self.preds[id.0 as usize].1, arity,
                "predicate {name} re-declared with different arity"
            );
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push((name.to_owned(), arity));
        self.pred_ids.insert(name.to_owned(), id);
        id
    }

    /// The name a constant was interned under.
    pub fn const_name(&self, id: SymId) -> &str {
        &self.consts[id.0 as usize]
    }

    /// The name a predicate was interned under.
    pub fn pred_name(&self, id: PredId) -> &str {
        &self.preds[id.0 as usize].0
    }

    /// The declared arity of a predicate.
    pub fn pred_arity(&self, id: PredId) -> usize {
        self.preds[id.0 as usize].1
    }

    /// Number of interned predicates.
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.constant("M.csv");
        let b = v.constant("M.csv");
        assert_eq!(a, b);
        assert_eq!(v.const_name(a), "M.csv");
    }

    #[test]
    fn predicates_carry_arity() {
        let mut v = Vocabulary::new();
        let p = v.predicate("multiM", 3);
        assert_eq!(v.pred_arity(p), 3);
        assert_eq!(v.pred_name(p), "multiM");
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn arity_conflict_panics() {
        let mut v = Vocabulary::new();
        v.predicate("p", 2);
        v.predicate("p", 3);
    }

    #[test]
    fn int_constants_are_canonical() {
        let mut v = Vocabulary::new();
        assert_eq!(v.int(100), v.constant("100"));
    }
}
