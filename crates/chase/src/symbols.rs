//! String interning for predicates and constants.
//!
//! The chase manipulates many copies of the same names (`multiM`, `"M.csv"`,
//! size constants); interning keeps atoms as small integer tuples so
//! homomorphism search stays allocation-free on the hot path.
//!
//! A vocabulary is a frozen prefix and a tail. [`Vocabulary::freeze`] moves
//! every name interned so far into the prefix, an `Arc` every clone shares;
//! what is interned after that goes into the tail, which each clone owns. A
//! compiled schema (the standard LA catalogue, a catalog's table
//! predicates) is frozen once, and a call that interns its own names into
//! a clone copies only those: a clone of a frozen vocabulary is a pointer
//! bump and an empty tail. Ids stay sequential across the split — the
//! tail's first id is the prefix's length — so a name gets the id it would
//! get without the freeze, and two clones that intern one new name give it
//! the same id.

use std::collections::HashMap;
use std::sync::Arc;

/// Interned constant symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

/// Interned predicate name (carries an arity in the [`Vocabulary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// One segment of a vocabulary's names. Its maps hold vocabulary-wide ids,
/// its `Vec`s the names from the segment's first id on.
#[derive(Debug, Default, Clone)]
struct Names {
    consts: Vec<String>,
    const_ids: HashMap<String, SymId>,
    preds: Vec<(String, usize)>,
    pred_ids: HashMap<String, PredId>,
}

impl Names {
    fn is_empty(&self) -> bool {
        self.consts.is_empty() && self.preds.is_empty()
    }
}

/// Two-way interner for constants and predicates: a shared frozen prefix
/// and an owned tail (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    /// The names interned up to the last [`Self::freeze`], shared by every
    /// clone.
    frozen: Arc<Names>,
    /// The names interned since; their ids continue after `frozen`'s.
    tail: Names,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves every name interned so far into the shared prefix, so that a
    /// clone copies only what is interned after this call. Ids do not move.
    pub fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        if self.frozen.is_empty() {
            self.frozen = Arc::new(tail);
            return;
        }
        // Copies the prefix only if a clone still shares it: once per
        // freeze, never per interned name.
        let frozen = Arc::make_mut(&mut self.frozen);
        frozen.consts.extend(tail.consts);
        frozen.const_ids.extend(tail.const_ids);
        frozen.preds.extend(tail.preds);
        frozen.pred_ids.extend(tail.pred_ids);
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: impl AsRef<str>) -> SymId {
        let name = name.as_ref();
        if let Some(&id) =
            self.frozen.const_ids.get(name).or_else(|| self.tail.const_ids.get(name))
        {
            return id;
        }
        let id = SymId((self.frozen.consts.len() + self.tail.consts.len()) as u32);
        self.tail.consts.push(name.to_owned());
        self.tail.const_ids.insert(name.to_owned(), id);
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
        if let Some(id) = self.lookup_predicate(name) {
            assert_eq!(
                self.pred_arity(id),
                arity,
                "predicate {name} re-declared with different arity"
            );
            return id;
        }
        let id = PredId(self.num_preds() as u32);
        self.tail.preds.push((name.to_owned(), arity));
        self.tail.pred_ids.insert(name.to_owned(), id);
        id
    }

    /// The predicate interned under `name`, if one is; interns nothing.
    pub fn lookup_predicate(&self, name: &str) -> Option<PredId> {
        self.frozen.pred_ids.get(name).or_else(|| self.tail.pred_ids.get(name)).copied()
    }

    /// The name a constant was interned under.
    pub fn const_name(&self, id: SymId) -> &str {
        let i = id.0 as usize;
        match i.checked_sub(self.frozen.consts.len()) {
            None => &self.frozen.consts[i],
            Some(t) => &self.tail.consts[t],
        }
    }

    /// The name and arity a predicate was interned with.
    fn pred_entry(&self, id: PredId) -> &(String, usize) {
        let i = id.0 as usize;
        match i.checked_sub(self.frozen.preds.len()) {
            None => &self.frozen.preds[i],
            Some(t) => &self.tail.preds[t],
        }
    }

    /// The name a predicate was interned under.
    pub fn pred_name(&self, id: PredId) -> &str {
        &self.pred_entry(id).0
    }

    /// The declared arity of a predicate.
    pub fn pred_arity(&self, id: PredId) -> usize {
        self.pred_entry(id).1
    }

    /// Number of interned predicates.
    pub fn num_preds(&self) -> usize {
        self.frozen.preds.len() + self.tail.preds.len()
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

    /// A vocabulary with two constants and two predicates, frozen.
    fn frozen() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.constant("a");
        v.predicate("p", 2);
        v.constant("b");
        v.predicate("q", 1);
        v.freeze();
        v
    }

    #[test]
    fn a_clone_interns_into_its_own_tail() {
        let base = frozen();
        let mut one = base.clone();
        let mut two = base.clone();
        let c = one.constant("c");
        let r = one.predicate("r", 3);
        assert_eq!((one.const_name(c), one.pred_name(r), one.pred_arity(r)), ("c", "r", 3));
        assert_eq!(one.num_preds(), 3);
        // Neither the original nor a sibling sees the tail.
        for other in [&base, &two] {
            assert_eq!(other.num_preds(), 2);
            assert_eq!(other.lookup_predicate("r"), None);
        }
        // The sibling's own tail starts where the prefix ends, as `one`'s did.
        assert_eq!(two.constant("d"), c);
        assert_eq!(two.const_name(c), "d");
        // The prefix still answers through every clone.
        let p = base.lookup_predicate("p").unwrap();
        assert_eq!((one.pred_name(p), two.pred_arity(p)), ("p", 2));
        assert_eq!(one.constant("b"), two.constant("b"));
    }

    #[test]
    fn clones_give_a_new_name_the_id_an_unfrozen_vocabulary_would() {
        let base = frozen();
        let (mut one, mut two) = (base.clone(), base.clone());
        let mut plain = Vocabulary::new();
        plain.constant("a");
        plain.predicate("p", 2);
        plain.constant("b");
        plain.predicate("q", 1);
        assert_eq!(one.constant("x"), plain.constant("x"));
        assert_eq!(two.constant("x"), plain.constant("x"));
        assert_eq!(one.predicate("s", 1), plain.predicate("s", 1));
        assert_eq!(two.predicate("s", 1), plain.predicate("s", 1));
        // Freezing again moves the tail into a new prefix; no id moves.
        one.freeze();
        assert_eq!(one.constant("x"), plain.constant("x"));
        assert_eq!(one.constant("y"), plain.constant("y"));
        assert_eq!(one.lookup_predicate("s"), plain.lookup_predicate("s"));
        assert_eq!(base.num_preds(), 2);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn an_arity_conflict_across_prefix_and_tail_panics() {
        let mut v = frozen().clone();
        v.predicate("p", 3);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn an_arity_conflict_inside_the_tail_panics() {
        let mut v = frozen().clone();
        v.predicate("t", 1);
        v.predicate("t", 2);
    }
}
