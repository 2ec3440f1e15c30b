//! Homomorphism (containment-mapping) enumeration: all ways to map a
//! conjunction of atoms into an instance. This powers TGD/EGD premise
//! matching in the chase and the query-match phase of PACB.
//!
//! Candidate facts for each atom are seeded from the instance's positional
//! index whenever an argument is already bound (by an earlier atom or by a
//! constant), instead of scanning every fact of the predicate. On top of
//! that, [`for_each_match_since`] enumerates only matches that touch the
//! *delta* — facts stamped after a watermark — which is the semi-naïve
//! evaluation primitive the chase engine builds on.
//!
//! A match binds variables in a dense slot array ([`Bindings`]): a
//! conjunction's variables are small integers known before the search
//! starts, so binding is an indexed store, unbinding pops an undo trail,
//! and the search hashes and allocates nothing per candidate fact or per
//! match. All buffers of an enumeration live in a `Matcher` the chase
//! engine keeps for a whole run; the free functions below build one per
//! call.

use crate::atom::Atom;
use crate::instance::{Instance, NodeId};
use crate::term::Term;

/// Slot value of a variable no atom has bound yet. Node ids index the
/// instance's union-find vectors, so a real node can never reach it.
const UNBOUND: NodeId = NodeId(u32::MAX);

/// Variable bindings of a [`Match`]: a dense slot array indexed by variable
/// id, sized for the conjunction (or whole rule) being matched — so its
/// length follows the *largest* id, and variable ids are expected to be
/// small and dense (the chase renumbers a sparse rule when it compiles it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    slots: Vec<NodeId>,
}

impl Bindings {
    /// `slots` unbound variables, ids `0..slots`.
    pub fn new(slots: usize) -> Self {
        Bindings { slots: vec![UNBOUND; slots] }
    }

    /// Number of slots (bound or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there is no slot at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Node variable `var` is bound to, if any.
    pub fn get(&self, var: u32) -> Option<NodeId> {
        self.slots.get(var as usize).copied().filter(|&n| n != UNBOUND)
    }

    /// Binds (or rebinds) `var`, growing the slot array to reach it.
    pub fn set(&mut self, var: u32, node: NodeId) {
        debug_assert_ne!(node, UNBOUND);
        if self.slots.len() <= var as usize {
            self.slots.resize(var as usize + 1, UNBOUND);
        }
        self.slots[var as usize] = node;
    }

    /// The node `var` is bound to, binding it to `node()` first if it is
    /// not (the way a canonical instance mints one null per variable).
    pub fn get_or_insert_with(&mut self, var: u32, node: impl FnOnce() -> NodeId) -> NodeId {
        self.get(var).unwrap_or_else(|| {
            let n = node();
            self.set(var, n);
            n
        })
    }

    /// The raw slots, `UNBOUND` included (the chase's pending arena copies
    /// them verbatim).
    pub(crate) fn slots(&self) -> &[NodeId] {
        &self.slots
    }

    /// Overwrites the leading slots with `slots` (as read from
    /// [`Self::slots`]); the array must already be at least that long.
    pub(crate) fn load(&mut self, slots: &[NodeId]) {
        self.slots[..slots.len()].copy_from_slice(slots);
    }

    /// Unbinds `var` (a search backtracking over it).
    pub(crate) fn unset(&mut self, var: u32) {
        self.slots[var as usize] = UNBOUND;
    }

    /// All slots unbound, exactly `slots` of them.
    pub(crate) fn reset(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, UNBOUND);
    }
}

/// Slot count a conjunction needs on its own: its largest variable id + 1.
pub fn slot_count(atoms: &[Atom]) -> usize {
    atoms.iter().flat_map(Atom::vars).max().map_or(0, |v| v as usize + 1)
}

/// A match of a conjunction into an instance: variable bindings plus the
/// index of the fact each atom was mapped to.
#[derive(Debug, Clone, Default)]
pub struct Match {
    /// Node each variable was bound to.
    pub bindings: Bindings,
    /// Per conjunct, the index of the fact it mapped onto.
    pub fact_indices: Vec<usize>,
}

/// Stamp filter applied to the facts an atom may map to. The semi-naïve
/// pivot decomposition assigns `OldOnly` to atoms before the pivot,
/// `NewOnly` to the pivot, and `Any` after it, so each delta match is
/// enumerated exactly once across pivots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StampReq {
    Any,
    /// Fact stamp must be `<= watermark`.
    OldOnly,
    /// Fact stamp must be `> watermark`.
    NewOnly,
}

/// Reusable state of an enumeration: the match being built, the per-atom
/// stamp requirements, the join order and the undo trail. Once its buffers
/// have grown to the widest rule it has seen, enumerating allocates
/// nothing — per call, per pivot, per candidate fact or per match.
#[derive(Debug, Default)]
pub(crate) struct Matcher {
    m: Match,
    reqs: Vec<StampReq>,
    order: Vec<usize>,
    /// Variables bound by the atoms already placed in `order`.
    bound_vars: Vec<u32>,
    /// Variables bound since the search started, in binding order; a
    /// search level unbinds back to the length it found on entry.
    trail: Vec<u32>,
}

impl Matcher {
    /// Readies the buffers for a conjunction of `atoms` atoms whose
    /// variables are all below `slots`, every variable unbound.
    fn prepare(&mut self, atoms: usize, slots: usize) {
        self.m.bindings.reset(slots);
        self.m.fact_indices.clear();
        self.m.fact_indices.resize(atoms, usize::MAX);
        self.trail.clear();
        self.trail.reserve(slots);
    }

    /// Runs one search under `reqs`; `false` when the sink stopped it.
    fn run(
        &mut self,
        inst: &Instance,
        atoms: &[Atom],
        watermark: u64,
        sink: &mut dyn FnMut(&Match) -> bool,
    ) -> bool {
        atom_order(inst, atoms, &self.reqs, watermark, &mut self.order, &mut self.bound_vars);
        let search = Search { inst, atoms, order: &self.order, reqs: &self.reqs, watermark };
        search.descend(0, &mut self.m, &mut self.trail, sink)
    }

    fn set_reqs(&mut self, reqs: impl Iterator<Item = StampReq>) {
        self.reqs.clear();
        self.reqs.extend(reqs);
    }

    /// [`for_each_match`] over this matcher's buffers; every variable of
    /// `atoms` must be below `slots`.
    pub(crate) fn for_each_match(
        &mut self,
        inst: &Instance,
        atoms: &[Atom],
        slots: usize,
        sink: &mut dyn FnMut(&Match) -> bool,
    ) {
        self.prepare(atoms.len(), slots);
        self.set_reqs(atoms.iter().map(|_| StampReq::Any));
        self.run(inst, atoms, 0, sink);
    }

    /// [`for_each_match_since`] over this matcher's buffers.
    pub(crate) fn for_each_match_since(
        &mut self,
        inst: &Instance,
        atoms: &[Atom],
        slots: usize,
        watermark: u64,
        sink: &mut dyn FnMut(&Match) -> bool,
    ) {
        if watermark == 0 {
            return self.for_each_match(inst, atoms, slots, sink);
        }
        // An empty premise has one (empty) match, which involves no delta
        // fact — and the loop below has no pivot to offer it.
        self.prepare(atoms.len(), slots);
        for pivot in 0..atoms.len() {
            // A pivot whose predicate gained no facts since the watermark
            // contributes no matches: two array reads and a binary search.
            // A rule whose premise preds all sit outside the delta
            // therefore costs one lookup per atom.
            if inst.facts_with_pred_since(atoms[pivot].pred, watermark).is_empty() {
                continue;
            }
            self.set_reqs((0..atoms.len()).map(|i| match i.cmp(&pivot) {
                std::cmp::Ordering::Less => StampReq::OldOnly,
                std::cmp::Ordering::Equal => StampReq::NewOnly,
                std::cmp::Ordering::Greater => StampReq::Any,
            }));
            // Join order weighs each atom by its stamp-restricted
            // cardinality: with a small delta the pivot leads; with a large
            // one (heavy EGD churn) the small old prefix leads instead,
            // keeping the total probe volume across pivots at roughly one
            // full pass. A finished search leaves the match fully unbound,
            // so the next pivot reuses it as is.
            if !self.run(inst, atoms, watermark, sink) {
                return;
            }
        }
    }

    /// True when some homomorphism of `atoms` into `inst` extends `partial`
    /// (the restricted chase's "conclusion already satisfied" test). Stops
    /// at the first witness.
    pub(crate) fn satisfiable(
        &mut self,
        inst: &Instance,
        atoms: &[Atom],
        slots: usize,
        partial: &Bindings,
    ) -> bool {
        self.prepare(atoms.len(), slots.max(partial.len()));
        self.m.bindings.load(partial.slots());
        self.set_reqs(atoms.iter().map(|_| StampReq::Any));
        let mut found = false;
        self.run(inst, atoms, 0, &mut |_| {
            found = true;
            false
        });
        found
    }
}

/// Enumerates homomorphisms of `atoms` into `inst`, invoking `sink` for
/// each. `sink` returning `false` stops the search early. The [`Match`]
/// handed to the sink has [`slot_count`]`(atoms)` slots.
pub fn for_each_match(inst: &Instance, atoms: &[Atom], sink: &mut dyn FnMut(&Match) -> bool) {
    Matcher::default().for_each_match(inst, atoms, slot_count(atoms), sink);
}

/// Semi-naïve enumeration: only homomorphisms mapping at least one atom to
/// a fact stamped after `watermark` (see [`Instance::clock`]). Each such
/// match is produced exactly once. `watermark == 0` degenerates to full
/// enumeration.
pub fn for_each_match_since(
    inst: &Instance,
    atoms: &[Atom],
    watermark: u64,
    sink: &mut dyn FnMut(&Match) -> bool,
) {
    Matcher::default().for_each_match_since(inst, atoms, slot_count(atoms), watermark, sink);
}

/// Collects all homomorphisms (convenience for tests and small workloads).
pub fn all_matches(inst: &Instance, atoms: &[Atom]) -> Vec<Match> {
    let mut out = Vec::new();
    for_each_match(inst, atoms, &mut |m| {
        out.push(m.clone());
        true
    });
    out
}

/// True when at least one homomorphism exists that extends `partial`
/// (the restricted-chase "already satisfied" test). Variables of `atoms`
/// beyond `partial`'s slots are simply unbound.
pub fn satisfiable_with(inst: &Instance, atoms: &[Atom], partial: &Bindings) -> bool {
    Matcher::default().satisfiable(inst, atoms, slot_count(atoms), partial)
}

/// Greedy atom ordering into `order`: start from the most selective atom —
/// fewest facts admitted by its stamp requirement — then prefer atoms
/// sharing variables with what is already bound. Ties go to the earliest
/// atom in premise order.
fn atom_order(
    inst: &Instance,
    atoms: &[Atom],
    reqs: &[StampReq],
    watermark: u64,
    order: &mut Vec<usize>,
    bound_vars: &mut Vec<u32>,
) {
    order.clear();
    bound_vars.clear();
    while order.len() < atoms.len() {
        let best = (0..atoms.len())
            .filter(|i| !order.contains(i))
            .min_by_key(|&i| {
                let connected = atoms[i].vars().any(|v| bound_vars.contains(&v));
                let card = match reqs[i] {
                    StampReq::Any => inst.facts_with_pred(atoms[i].pred).len(),
                    StampReq::NewOnly => {
                        inst.facts_with_pred_since(atoms[i].pred, watermark).len()
                    }
                    StampReq::OldOnly => {
                        inst.facts_with_pred_until(atoms[i].pred, watermark).len()
                    }
                };
                // Connected atoms first (their candidates are filtered by
                // bindings), then by restricted cardinality.
                (!connected as usize, card)
            })
            .expect("an atom is still unplaced");
        order.push(best);
        bound_vars.extend(atoms[best].vars());
    }
}

/// Candidate facts for `atom` under the current bindings: the smallest
/// positional-index posting list among bound argument positions, falling
/// back to the stamp-range slice of the predicate that the atom's
/// requirement admits. `None` means a constant argument has no node in the
/// instance, so the atom cannot match at all. Stamp filtering still runs
/// per fact in the search (posting lists mix old and new facts).
fn candidate_facts<'a>(
    inst: &'a Instance,
    atom: &Atom,
    bindings: &Bindings,
    req: StampReq,
    watermark: u64,
) -> Option<&'a [usize]> {
    let mut best: Option<&[usize]> = None;
    for (p, t) in atom.args.iter().enumerate() {
        let node = match t {
            Term::Const(c) => inst.node_of_const(*c)?,
            Term::Var(v) => match bindings.get(*v) {
                Some(b) => inst.find(b),
                None => continue,
            },
        };
        if let Some(list) = inst.facts_with_pred_arg(atom.pred, p as u32, node) {
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
                if list.is_empty() {
                    break;
                }
            }
        }
    }
    let fallback = || match req {
        StampReq::Any => inst.facts_with_pred(atom.pred),
        StampReq::NewOnly => inst.facts_with_pred_since(atom.pred, watermark),
        StampReq::OldOnly => inst.facts_with_pred_until(atom.pred, watermark),
    };
    match best {
        Some(list) => Some(if list.len() <= fallback().len() { list } else { fallback() }),
        None => Some(fallback()),
    }
}

/// The fixed inputs of one backtracking search.
struct Search<'a> {
    inst: &'a Instance,
    atoms: &'a [Atom],
    order: &'a [usize],
    reqs: &'a [StampReq],
    watermark: u64,
}

impl Search<'_> {
    /// Maps the atom at `depth` of the join order onto each candidate fact
    /// in turn and recurses. Whether it returns `true` (exhausted) or
    /// `false` (the sink stopped the search), `m` and `trail` are back to
    /// what they were on entry.
    fn descend(
        &self,
        depth: usize,
        m: &mut Match,
        trail: &mut Vec<u32>,
        sink: &mut dyn FnMut(&Match) -> bool,
    ) -> bool {
        if depth == self.order.len() {
            return sink(m);
        }
        let inst = self.inst;
        let ai = self.order[depth];
        let atom = &self.atoms[ai];
        let req = self.reqs[ai];
        let Some(candidates) = candidate_facts(inst, atom, &m.bindings, req, self.watermark)
        else {
            return true; // a constant absent from the instance: no match here
        };
        let entry = trail.len();
        for &fi in candidates {
            let fact = inst.fact(fi);
            match req {
                StampReq::Any => {}
                StampReq::NewOnly if fact.stamp <= self.watermark => continue,
                StampReq::OldOnly if fact.stamp > self.watermark => continue,
                _ => {}
            }
            debug_assert_eq!(fact.args.len(), atom.args.len());
            // Unify atom args with fact args under the current bindings.
            let mut ok = true;
            for (t, &n) in atom.args.iter().zip(&fact.args) {
                let n = inst.find(n);
                match t {
                    Term::Const(c) => {
                        if inst.const_of(n) != Some(*c) {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => {
                        let slot = &mut m.bindings.slots[*v as usize];
                        if *slot == UNBOUND {
                            *slot = n;
                            trail.push(*v);
                        } else if inst.find(*slot) != n {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            let mut exhausted = true;
            if ok {
                m.fact_indices[ai] = fi;
                exhausted = self.descend(depth + 1, m, trail, sink);
                m.fact_indices[ai] = usize::MAX;
            }
            for v in trail.drain(entry..) {
                m.bindings.slots[v as usize] = UNBOUND;
            }
            if !exhausted {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::symbols::{PredId, SymId, Vocabulary};

    fn setup() -> (Vocabulary, Instance, PredId, PredId) {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let s = vocab.predicate("S", 2);
        let mut inst = Instance::new();
        // R(a, b), R(b, c), S(b, d)
        let a = inst.const_node(vocab.constant("a"));
        let b = inst.const_node(vocab.constant("b"));
        let c = inst.const_node(vocab.constant("c"));
        let d = inst.const_node(vocab.constant("d"));
        inst.insert(r, vec![a, b]);
        inst.insert(r, vec![b, c]);
        inst.insert(s, vec![b, d]);
        (vocab, inst, r, s)
    }

    #[test]
    fn single_atom_matches() {
        let (_, inst, r, _) = setup();
        let atoms = vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])];
        assert_eq!(all_matches(&inst, &atoms).len(), 2);
    }

    #[test]
    fn join_matches() {
        let (_, inst, r, s) = setup();
        // R(x, y) ∧ S(y, z): only y=b works for S, and R(a,b) reaches it.
        let atoms = vec![
            Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
            Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
        ];
        let ms = all_matches(&inst, &atoms);
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!(m.fact_indices.len(), 2);
    }

    #[test]
    fn constant_filter() {
        let (mut vocab, mut inst, r, _) = setup();
        let b = vocab.constant("b");
        let _ = inst.const_node(b);
        let atoms = vec![Atom::new(r, vec![Term::Const(b), Term::Var(0)])];
        assert_eq!(all_matches(&inst, &atoms).len(), 1);
    }

    #[test]
    fn unknown_constant_matches_nothing() {
        let (mut vocab, inst, r, _) = setup();
        let zz = vocab.constant("zz"); // interned in vocab, absent from inst
        let atoms = vec![Atom::new(r, vec![Term::Const(zz), Term::Var(0)])];
        assert!(all_matches(&inst, &atoms).is_empty());
    }

    #[test]
    fn repeated_variable_requires_equality() {
        let (_, inst, r, _) = setup();
        // R(x, x) has no match.
        let atoms = vec![Atom::new(r, vec![Term::Var(0), Term::Var(0)])];
        assert!(all_matches(&inst, &atoms).is_empty());
    }

    #[test]
    fn satisfiable_with_partial_binding() {
        let (mut vocab, mut inst, r, _) = setup();
        let a = inst.const_node(vocab.constant("a"));
        let atoms = vec![Atom::new(r, vec![Term::Var(0), Term::Var(1)])];
        let mut partial = Bindings::default();
        partial.set(0, a);
        assert!(satisfiable_with(&inst, &atoms, &partial));
        let c = inst.const_node(vocab.constant("c"));
        partial.set(0, c);
        assert!(!satisfiable_with(&inst, &atoms, &partial));
    }

    #[test]
    fn delta_enumeration_sees_only_new_matches() {
        let (mut vocab, mut inst, r, s) = setup();
        let atoms = vec![
            Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
            Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
        ];
        // Everything is old: nothing to enumerate.
        let w = inst.clock();
        let mut seen = 0;
        for_each_match_since(&inst, &atoms, w, &mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 0);
        // Add S(c, e): exactly the one new join (through R(b, c)) appears.
        let c = inst.const_node(vocab.constant("c"));
        let e = inst.const_node(vocab.constant("e"));
        inst.insert(s, vec![c, e]);
        let mut new_matches = Vec::new();
        for_each_match_since(&inst, &atoms, w, &mut |m| {
            new_matches.push(m.clone());
            true
        });
        assert_eq!(new_matches.len(), 1);
        // Full enumeration agrees with old + new.
        assert_eq!(all_matches(&inst, &atoms).len(), 2);
    }

    #[test]
    fn delta_enumeration_has_no_duplicates() {
        let mut vocab = Vocabulary::new();
        let p = vocab.predicate("P", 1);
        let q = vocab.predicate("Q", 1);
        let mut inst = Instance::new();
        let w = inst.clock();
        // Both atoms map to new facts sharing a node: the pivot scheme must
        // yield the match exactly once even though two atoms are in delta.
        let a = inst.const_node(vocab.constant("a"));
        inst.insert(p, vec![a]);
        inst.insert(q, vec![a]);
        let atoms = vec![Atom::new(p, vec![Term::Var(0)]), Atom::new(q, vec![Term::Var(0)])];
        let mut seen = 0;
        for_each_match_since(&inst, &atoms, w, &mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn merge_rewritten_facts_enter_the_delta() {
        let mut vocab = Vocabulary::new();
        let r = vocab.predicate("R", 2);
        let s = vocab.predicate("S", 2);
        let mut inst = Instance::new();
        let a = inst.const_node(vocab.constant("a"));
        let b = inst.fresh_null();
        let c = inst.fresh_null();
        let d = inst.const_node(vocab.constant("d"));
        inst.insert(r, vec![a, b]);
        inst.insert(s, vec![c, d]);
        let atoms = vec![
            Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
            Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
        ];
        assert!(all_matches(&inst, &atoms).is_empty());
        let w = inst.clock();
        // Merging b and c creates the join out of two *old* facts; the
        // rewritten fact's fresh stamp must expose it to the delta scan.
        inst.merge(b, c).unwrap();
        inst.rehash();
        let mut seen = 0;
        for_each_match_since(&inst, &atoms, w, &mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 1);
    }

    /// Local xorshift64* (the chase crate does not depend on the linalg RNG).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const ARITIES: [usize; 3] = [1, 2, 3];

    /// A random instance of at most 64 facts over `P0/1`, `P1/2`, `P2/3`:
    /// constants `c0..c3` and nulls as arguments, a burst of merges followed
    /// by `rehash`, then a second batch of facts so stamps are mixed. Returns
    /// the clocks observed along the way (watermarks worth testing).
    fn random_instance(rng: &mut XorShift) -> (Instance, Vec<u64>) {
        let mut inst = Instance::new();
        let mut nodes: Vec<NodeId> = (0..4).map(|c| inst.const_node(SymId(c))).collect();
        nodes.extend((0..6 + rng.below(6)).map(|_| inst.fresh_null()));
        let mut clocks = vec![0];
        let add_facts = |inst: &mut Instance, rng: &mut XorShift, n: usize| {
            for _ in 0..n {
                let p = rng.below(3);
                let args = (0..ARITIES[p]).map(|_| nodes[rng.below(nodes.len())]).collect();
                inst.insert(PredId(p as u32), args);
            }
        };
        let first = 10 + rng.below(20);
        add_facts(&mut inst, rng, first);
        clocks.push(inst.clock());
        for _ in 0..rng.below(4) {
            let (a, b) = (rng.below(nodes.len()), rng.below(nodes.len()));
            // Two distinct constants clash; the merge is then simply refused.
            let _ = inst.merge(nodes[a], nodes[b]);
        }
        inst.rehash();
        clocks.push(inst.clock());
        let second = rng.below(20);
        add_facts(&mut inst, rng, second);
        clocks.push(inst.clock());
        assert!(inst.num_facts() <= 64);
        (inst, clocks)
    }

    /// 1–4 atoms over the three predicates; variables drawn from a pool of
    /// four (so they repeat within and across atoms), constants `c0..c4`
    /// (`c4` is in no instance).
    fn random_premise(rng: &mut XorShift) -> Vec<Atom> {
        (0..1 + rng.below(4))
            .map(|_| {
                let p = rng.below(3);
                let args = (0..ARITIES[p])
                    .map(|_| match rng.below(5) {
                        0 => Term::Const(SymId(rng.below(5) as u32)),
                        _ => Term::Var(rng.below(4) as u32),
                    })
                    .collect();
                Atom::new(PredId(p as u32), args)
            })
            .collect()
    }

    /// The oracle: nested loops over every fact of the instance, one level
    /// per atom in premise order, binding variables in an ordered map. No
    /// index, no join order, no stamps. Yields the fact-index tuple of
    /// every homomorphism extending `partial`.
    fn brute_force(
        inst: &Instance,
        atoms: &[Atom],
        partial: &BTreeMap<u32, NodeId>,
    ) -> Vec<Vec<usize>> {
        fn go(
            inst: &Instance,
            atoms: &[Atom],
            bound: &BTreeMap<u32, NodeId>,
            picked: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            let Some(atom) = atoms.get(picked.len()) else {
                out.push(picked.clone());
                return;
            };
            for (fi, fact) in inst.facts().iter().enumerate() {
                if fact.pred != atom.pred {
                    continue;
                }
                let mut bound = bound.clone();
                let unifies = atom.args.iter().zip(&fact.args).all(|(t, &n)| {
                    let n = inst.find(n);
                    match t {
                        Term::Const(c) => inst.const_of(n) == Some(*c),
                        Term::Var(v) => inst.find(*bound.entry(*v).or_insert(n)) == n,
                    }
                });
                if unifies {
                    picked.push(fi);
                    go(inst, atoms, &bound, picked, out);
                    picked.pop();
                }
            }
        }
        let mut out = Vec::new();
        go(inst, atoms, partial, &mut Vec::new(), &mut out);
        out.sort();
        out
    }

    /// What every enumeration entry point takes last.
    type Sink<'a> = &'a mut dyn FnMut(&Match) -> bool;

    /// Runs an enumerator, checks each match's bindings against the facts
    /// it names, and returns the sorted fact-index tuples.
    fn collect(inst: &Instance, atoms: &[Atom], run: &dyn Fn(Sink<'_>)) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        run(&mut |m| {
            for (atom, &fi) in atoms.iter().zip(&m.fact_indices) {
                for (t, &n) in atom.args.iter().zip(&inst.fact(fi).args) {
                    if let Term::Var(v) = t {
                        assert_eq!(m.bindings.get(*v), Some(inst.find(n)), "binding of ?{v}");
                    }
                }
            }
            out.push(m.fact_indices.clone());
            true
        });
        out.sort();
        out
    }

    #[test]
    fn matcher_agrees_with_brute_force_on_random_instances() {
        let mut rng = XorShift(0x5107_b1d5);
        let mut nonempty = 0;
        for _ in 0..24 {
            let (inst, clocks) = random_instance(&mut rng);
            for _ in 0..6 {
                let atoms = random_premise(&mut rng);
                let all = brute_force(&inst, &atoms, &BTreeMap::new());
                nonempty += usize::from(!all.is_empty());
                let full = collect(&inst, &atoms, &|sink| for_each_match(&inst, &atoms, sink));
                assert_eq!(full, all, "for_each_match on {atoms:?}");

                // Semi-naïve: every match touching the delta exactly once
                // (the sorted lists are multisets), none that does not.
                for &w in &clocks {
                    let touching: Vec<Vec<usize>> = all
                        .iter()
                        .filter(|t| w == 0 || t.iter().any(|&fi| inst.fact(fi).stamp > w))
                        .cloned()
                        .collect();
                    let since = collect(&inst, &atoms, &|sink| {
                        for_each_match_since(&inst, &atoms, w, sink);
                    });
                    assert_eq!(since, touching, "for_each_match_since({w}) on {atoms:?}");
                }

                // Conclusion check under a partial binding of one variable.
                let var = rng.below(4) as u32;
                let node = inst.find(NodeId(rng.below(8) as u32));
                let mut partial = Bindings::default();
                partial.set(var, node);
                let expected =
                    !brute_force(&inst, &atoms, &BTreeMap::from([(var, node)])).is_empty();
                assert_eq!(
                    satisfiable_with(&inst, &atoms, &partial),
                    expected,
                    "satisfiable_with(?{var} = {node:?}) on {atoms:?}"
                );
            }
        }
        assert!(nonempty >= 30, "premises too selective to test anything: {nonempty}");
    }

    #[test]
    fn early_stop_restores_the_callers_match() {
        let (_, inst, r, s) = setup();
        let atoms = vec![
            Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
            Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
        ];
        // A witness exists (R(a,b) ⋈ S(b,d)); the check stops at it, with
        // ?0..?2 bound and both fact indices set at that moment.
        let a = inst.node_of_const(SymId(0)).expect("a is in the instance");
        let mut partial = Bindings::new(4);
        partial.set(0, a);
        let mut matcher = Matcher::default();
        assert!(matcher.satisfiable(&inst, &atoms, 4, &partial));
        assert_eq!(matcher.m.bindings, partial, "only the caller's binding is left");
        assert_eq!(matcher.m.fact_indices, vec![usize::MAX; 2]);
        assert!(matcher.trail.is_empty());

        // Same through the enumeration entry point, stopping at the first
        // of R's two matches: everything is unbound again.
        let mut seen = 0;
        matcher.for_each_match(&inst, &atoms[..1], 2, &mut |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
        assert_eq!(matcher.m.bindings, Bindings::new(2));
        assert_eq!(matcher.m.fact_indices, vec![usize::MAX]);
        assert!(matcher.trail.is_empty());
    }
}
