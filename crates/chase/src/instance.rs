//! Canonical database instances.
//!
//! Elements are nodes in a union-find: constants (each constant symbol maps
//! to exactly one node) and labelled nulls (fresh existential witnesses
//! introduced by TGD chase steps). EGD applications merge nodes; the paper's
//! reading (§6.2.1) is that each node is an *equivalence class of
//! value-equal expressions* — the saturated instance is therefore an
//! e-graph over expression classes, which `hadad-core` exploits for
//! min-cost extraction.
//!
//! A [`Fact`] is a predicate, its argument nodes and a revision stamp —
//! nothing a client of the chase keeps about it. Such data (PACB's
//! provenance formulas, per fact) lives in the client's
//! [`crate::Analysis`], indexed by the fact indices [`Instance::insert`]
//! returns; [`Instance::rehash`] reports how it renumbered them.
//!
//! Besides the dedup and positional indexes, an instance a chase has run
//! on keeps a memo from (predicate, canonical input nodes) to the facts
//! carrying them, for every predicate the chase's rule set proves
//! functional: the hash-cons the engine resolves conclusions through (see
//! [`crate::resolve`]). It is also where the functional EGDs are enforced,
//! the way an e-graph keeps congruence: a fact the memo chains behind an
//! older fact with the same inputs but another output queues the union of
//! the two outputs, and the engine merges the queue at the EGD's turn.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::chase::FunctionalSig;
use crate::symbols::{PredId, SymId};

/// Node in the instance's union-find.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A ground fact over nodes.
#[derive(Debug, Clone)]
pub struct Fact {
    /// The predicate symbol.
    pub pred: PredId,
    /// Argument nodes (canonical at last rehash).
    pub args: Vec<NodeId>,
    /// Monotonic revision stamp: assigned on insertion and bumped by
    /// [`Instance::rehash`] whenever a merge rewrote the fact's canonical
    /// args (or attached a constant to one of its classes). Semi-naïve
    /// chase deltas are "facts with stamp above a rule's watermark".
    pub stamp: u64,
}

/// Multiply-rotate hasher for the instance's maps. Every key is made of
/// ids the instance or its vocabulary handed out itself (`PredId`, `SymId`,
/// `NodeId`, argument positions) — small dense integers nobody adversarial
/// chooses — so the maps trade SipHash's collision resistance, which
/// protects nothing here, for a few cycles per probe. Deliberately *not*
/// DoS-resistant: never key it with values from outside the program.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// End of a `same_key` chain.
const NO_FACT: u32 = u32::MAX;

/// Hash of a predicate and a sequence of nodes: over a fact's canonical
/// arguments, the key of [`Instance::index`]; over its canonical input
/// nodes, the key of [`Instance::memo`].
fn fact_key(pred: PredId, nodes: impl IntoIterator<Item = NodeId>) -> u64 {
    let mut h = IdHasher::default();
    h.mix(u64::from(pred.0));
    for a in nodes {
        h.mix(u64::from(a.0));
    }
    h.0
}

/// The fact carrying exactly `(pred, args)` among those whose key hashes
/// collide, walking their `same_key` chain from `head`.
fn in_chain(
    facts: &[Fact],
    same_key: &[u32],
    head: u32,
    pred: PredId,
    args: &[NodeId],
) -> Option<usize> {
    let mut next = head;
    while next != NO_FACT {
        let f = &facts[next as usize];
        if f.pred == pred && f.args == args {
            return Some(next as usize);
        }
        next = same_key[next as usize];
    }
    None
}

/// Canonical database: facts over union-find nodes.
#[derive(Debug, Clone)]
pub struct Instance {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Constant symbol attached to a (root) node, if any.
    const_of: Vec<Option<SymId>>,
    node_of_const: IdMap<SymId, NodeId>,
    facts: Vec<Fact>,
    /// Dedup index: [`fact_key`] of (pred, canonical args) -> the newest
    /// fact with that key hash. Facts whose hashes collide are chained
    /// through `same_key`, and a probe compares predicate and args along
    /// the chain, so no argument vector is stored (or cloned) as a key.
    index: IdMap<u64, u32>,
    /// Per fact: the next-older fact with the same key hash, or `NO_FACT`.
    same_key: Vec<u32>,
    /// Per-predicate fact indices, sorted by stamp (args are canonical at
    /// last rehash; consult `find`). Indexed by predicate id.
    by_pred: Vec<Vec<usize>>,
    /// (pred, arg position, canonical node) -> fact indices, ascending.
    /// Seeds homomorphism search with only the facts that can match a
    /// bound argument; valid only while `canonical` holds. `rehash` empties
    /// the lists but keeps them (and their keys) allocated, so an absent
    /// key and an empty list mean the same thing.
    pos_index: IdMap<(PredId, u32, NodeId), Vec<usize>>,
    /// The functional signatures the memo is built for, indexed by
    /// predicate id; `None` (no signature proved) keeps no memo at all.
    functional: Option<Arc<Vec<Option<FunctionalSig>>>>,
    /// Memo: [`fact_key`] of (pred, canonical nodes at the signature's
    /// input positions) -> the newest fact over a functional predicate
    /// with that key hash, older ones chained through `same_inputs`, the
    /// way `index` chains through `same_key`.
    memo: IdMap<u64, u32>,
    /// Per fact while the memo is kept: the next-older fact with the same
    /// memo key hash, or `NO_FACT` (always, for a non-functional fact).
    same_inputs: Vec<u32>,
    /// The output pairs the memo found unequal — a fact entered behind an
    /// older one with the same predicate and canonical inputs, per
    /// differing output (new fact's node, older fact's node) — oldest
    /// first, not merged yet ([`Self::take_unions`]). Re-derived wherever
    /// the memo is rebuilt, which finds them all again while unmerged.
    unions: Vec<(NodeId, NodeId)>,
    /// Monotonic revision clock feeding fact stamps.
    clock: u64,
    /// False between a `merge` and the next `rehash`: positional-index
    /// keys may then name stale roots, so lookups fall back to scans.
    canonical: bool,
    /// Roots that gained a constant from a merge whose own facts were not
    /// rewritten; `rehash` must still re-stamp those facts (a constant
    /// premise atom can newly match them).
    const_dirty: Vec<NodeId>,
    /// Number of labelled nulls created so far (for budget accounting).
    nulls: usize,
}

/// Error: two distinct constants were equated by an EGD (the constraint set
/// is inconsistent with the instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstClash {
    /// First equated constant.
    pub a: SymId,
    /// Second, distinct, equated constant.
    pub b: SymId,
}

impl Default for Instance {
    fn default() -> Self {
        Instance {
            parent: Vec::new(),
            rank: Vec::new(),
            const_of: Vec::new(),
            node_of_const: IdMap::default(),
            facts: Vec::new(),
            index: IdMap::default(),
            same_key: Vec::new(),
            by_pred: Vec::new(),
            pos_index: IdMap::default(),
            functional: None,
            memo: IdMap::default(),
            same_inputs: Vec::new(),
            unions: Vec::new(),
            clock: 0,
            canonical: true,
            const_dirty: Vec::new(),
            nulls: 0,
        }
    }
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_node(&mut self, c: Option<SymId>) -> NodeId {
        let id = NodeId(self.parent.len() as u32);
        self.parent.push(id.0);
        self.rank.push(0);
        self.const_of.push(c);
        id
    }

    /// Node for a constant (created on first use).
    pub fn const_node(&mut self, c: SymId) -> NodeId {
        if let Some(&n) = self.node_of_const.get(&c) {
            return self.find(n);
        }
        let n = self.push_node(Some(c));
        self.node_of_const.insert(c, n);
        n
    }

    /// Fresh labelled null.
    pub fn fresh_null(&mut self) -> NodeId {
        self.nulls += 1;
        self.push_node(None)
    }

    /// Number of labelled nulls created so far.
    pub fn num_nulls(&self) -> usize {
        self.nulls
    }

    /// Number of nodes (constants and nulls, roots or not) created so far:
    /// every [`NodeId`] of this instance is below it, so per-class data can
    /// live in a `Vec` indexed by `NodeId.0`.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Union-find root. Read-only, so it walks the parent chain without
    /// compressing it. The chains stay short without that: [`Self::merge`]
    /// halves the paths it walks (`find_compress`) and [`Self::rehash`]
    /// leaves every fact argument a root — over the benchmark's LA corpus,
    /// 12-factor chains included, a call takes 0.02 hops on average and
    /// never more than one.
    pub fn find(&self, n: NodeId) -> NodeId {
        let mut x = n.0 as usize;
        while self.parent[x] as usize != x {
            x = self.parent[x] as usize;
        }
        NodeId(x as u32)
    }

    fn find_compress(&mut self, n: NodeId) -> NodeId {
        let mut x = n.0 as usize;
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        NodeId(x as u32)
    }

    /// Constant attached to a node's class, if any.
    pub fn const_of(&self, n: NodeId) -> Option<SymId> {
        self.const_of[self.find(n).0 as usize]
    }

    /// Merges two classes. Fails if both carry distinct constants.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, ConstClash> {
        let (ra, rb) = (self.find_compress(a), self.find_compress(b));
        if ra == rb {
            return Ok(ra);
        }
        let const_new = match (self.const_of[ra.0 as usize], self.const_of[rb.0 as usize]) {
            (Some(x), Some(y)) if x != y => return Err(ConstClash { a: x, b: y }),
            (Some(x), _) => Some(x),
            (_, y) => y,
        };
        let (big, small) = if self.rank[ra.0 as usize] >= self.rank[rb.0 as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small.0 as usize] = big.0;
        if self.rank[big.0 as usize] == self.rank[small.0 as usize] {
            self.rank[big.0 as usize] += 1;
        }
        // A constant attached to a previously constant-free winner makes
        // constant premise atoms match the winner's facts even though their
        // args are unchanged; remember it so `rehash` re-stamps them.
        if const_new.is_some() && self.const_of[big.0 as usize].is_none() {
            self.const_dirty.push(big);
        }
        self.const_of[big.0 as usize] = const_new;
        if let Some(c) = const_new {
            self.node_of_const.insert(c, big);
        }
        self.canonical = false;
        Ok(big)
    }

    /// Rebuilds the canonical fact index after merges. Facts that become
    /// duplicates are coalesced into the earliest of them, and the facts
    /// after one move down. Returns where each fact went: entry `i` is the
    /// new index of old fact `i` — for a coalesced duplicate, the index of
    /// the fact it became. The map is ascending, and the identity when
    /// nothing coalesced. The memo is entered afresh, so its queue then
    /// holds exactly the unions the merged classes still violate.
    pub fn rehash(&mut self) -> Vec<usize> {
        let mut dirty_roots: Vec<NodeId> = std::mem::take(&mut self.const_dirty);
        for n in &mut dirty_roots {
            *n = self.find(*n);
        }
        self.index.clear();
        self.same_key.clear();
        self.memo.clear();
        self.same_inputs.clear();
        self.unions.clear();
        for list in &mut self.by_pred {
            list.clear();
        }
        for list in self.pos_index.values_mut() {
            list.clear();
        }
        // One pass, in fact order: rewrite args to canonical roots in place,
        // drop a fact whose canonical form an earlier fact already has
        // (mapping it to that one), and re-stamp a kept fact
        // whose canonical args changed (or whose classes gained a
        // constant): it can participate in matches that did not exist
        // before the merge, so semi-naïve rules must revisit it.
        let old = std::mem::take(&mut self.facts);
        self.facts.reserve(old.len());
        let mut moved_to = Vec::with_capacity(old.len());
        for mut f in old {
            let mut rewritten = false;
            for a in &mut f.args {
                let root = self.find(*a);
                rewritten |= root != *a;
                *a = root;
            }
            match self.dedup(f.pred, &f.args) {
                Some(first) => moved_to.push(first),
                None => {
                    if rewritten || f.args.iter().any(|a| dirty_roots.contains(a)) {
                        self.clock += 1;
                        f.stamp = self.clock;
                    }
                    moved_to.push(self.facts.len());
                    self.push_indexed(f);
                }
            }
        }
        // Restore the stamp-sorted invariant (re-stamping scrambles it):
        // delta slices are then suffix lookups, not full scans.
        for list in &mut self.by_pred {
            list.sort_by_key(|&i| self.facts[i].stamp);
        }
        self.canonical = true;
        moved_to
    }

    /// One probe of the dedup index: the existing fact with these
    /// (canonical) args, or `None` after entering the *next* fact index
    /// under their key — the caller must then [`Self::push_indexed`] the
    /// fact.
    fn dedup(&mut self, pred: PredId, args: &[NodeId]) -> Option<usize> {
        let new = u32::try_from(self.facts.len()).expect("fact count fits the dedup chain");
        debug_assert_eq!(self.same_key.len(), self.facts.len());
        let older = match self.index.entry(fact_key(pred, args.iter().copied())) {
            Entry::Occupied(mut e) => {
                let head = *e.get();
                if let Some(i) = in_chain(&self.facts, &self.same_key, head, pred, args) {
                    return Some(i);
                }
                e.insert(new);
                head
            }
            Entry::Vacant(e) => {
                e.insert(new);
                NO_FACT
            }
        };
        self.same_key.push(older);
        None
    }

    /// Appends a fact [`Self::dedup`] just made room for, entering it into
    /// the per-predicate and positional indexes and the memo.
    fn push_indexed(&mut self, f: Fact) {
        let i = self.facts.len();
        let p = f.pred.0 as usize;
        if self.by_pred.len() <= p {
            self.by_pred.resize_with(p + 1, Vec::new);
        }
        self.by_pred[p].push(i);
        for (pos, &a) in f.args.iter().enumerate() {
            self.pos_index.entry((f.pred, pos as u32, a)).or_default().push(i);
        }
        self.facts.push(f);
        if self.functional.is_some() {
            self.enter_memo(i);
        }
    }

    /// Chains fact `i` (the next one `same_inputs` has no entry for) into
    /// the memo under its canonical input nodes, if its predicate is
    /// functional, and queues a union per output it does not share with
    /// the newest older fact carrying the same inputs.
    fn enter_memo(&mut self, i: usize) {
        debug_assert_eq!(self.same_inputs.len(), i);
        let f = &self.facts[i];
        let sig =
            self.functional.as_ref().and_then(|sigs| sigs.get(f.pred.0 as usize)?.as_ref());
        let Some(sig) = sig else {
            self.same_inputs.push(NO_FACT);
            return;
        };
        let key = fact_key(f.pred, sig.inputs.iter().map(|&p| self.find(f.args[p])));
        let new = u32::try_from(i).expect("fact count fits the memo chain");
        let older = self.memo.insert(key, new).unwrap_or(NO_FACT);
        self.same_inputs.push(older);
        let mut next = older;
        while next != NO_FACT {
            let g = &self.facts[next as usize];
            if g.pred == f.pred
                && sig.inputs.iter().all(|&p| self.find(g.args[p]) == self.find(f.args[p]))
            {
                for &o in &sig.outputs {
                    if self.find(f.args[o]) != self.find(g.args[o]) {
                        self.unions.push((f.args[o], g.args[o]));
                    }
                }
                return;
            }
            next = self.same_inputs[next as usize];
        }
    }

    /// Moves the unions the memo queued into `out` (emptied first), oldest
    /// first; the queue keeps `out`'s old buffer, so a caller passing the
    /// same `out` every time allocates nothing once both have grown.
    pub(crate) fn take_unions(&mut self, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        std::mem::swap(&mut self.unions, out);
    }

    /// Keeps the memo for the signatures `functional` proves (indexed by
    /// predicate id; an empty list proves none and drops the memo),
    /// building it over the facts already there — queuing the unions they
    /// violate — unless it was built for these very signatures and no
    /// merge is pending since. A chase calls this before its first round;
    /// [`Self::insert`] and [`Self::rehash`] keep the memo and its queue
    /// up to date after that.
    pub(crate) fn index_functional(&mut self, functional: &Arc<Vec<Option<FunctionalSig>>>) {
        let same = self.functional.as_ref().is_some_and(|f| Arc::ptr_eq(f, functional));
        if (same && self.canonical) || (functional.is_empty() && self.functional.is_none()) {
            return;
        }
        self.memo.clear();
        self.same_inputs.clear();
        self.unions.clear();
        if functional.is_empty() {
            self.functional = None;
            return;
        }
        self.functional = Some(Arc::clone(functional));
        let memoized: usize = functional
            .iter()
            .enumerate()
            .filter(|(_, sig)| sig.is_some())
            .map(|(p, _)| self.by_pred.get(p).map_or(0, Vec::len))
            .sum();
        self.memo.reserve(memoized);
        self.same_inputs.reserve(self.facts.len());
        for i in 0..self.facts.len() {
            self.enter_memo(i);
        }
    }

    /// Appends to `out` the index of every fact over `pred` whose input
    /// positions — those of the signature the memo keeps for `pred` — hold
    /// the canonical nodes `inputs`, newest first: one memo probe plus a
    /// walk of its (usually one-fact) chain. Appends nothing when the memo
    /// keeps no signature for `pred`.
    pub(crate) fn facts_with_inputs(
        &self,
        pred: PredId,
        inputs: &[NodeId],
        out: &mut Vec<u32>,
    ) {
        let sigs = self.functional.as_deref().map_or(&[][..], Vec::as_slice);
        let Some(sig) = sigs.get(pred.0 as usize).and_then(Option::as_ref) else {
            return;
        };
        debug_assert_eq!(sig.inputs.len(), inputs.len());
        let key = fact_key(pred, inputs.iter().copied());
        let mut next = self.memo.get(&key).copied().unwrap_or(NO_FACT);
        while next != NO_FACT {
            let f = &self.facts[next as usize];
            if f.pred == pred
                && sig.inputs.iter().zip(inputs).all(|(&p, &n)| self.find(f.args[p]) == n)
            {
                out.push(next);
            }
            next = self.same_inputs[next as usize];
        }
    }

    /// Inserts a fact (args canonicalized). Returns `(fact index, inserted)`:
    /// the index of the fact already there when `inserted` is false.
    pub fn insert(&mut self, pred: PredId, mut args: Vec<NodeId>) -> (usize, bool) {
        for a in &mut args {
            *a = self.find(*a);
        }
        if let Some(i) = self.dedup(pred, &args) {
            return (i, false);
        }
        self.clock += 1;
        self.push_indexed(Fact { pred, args, stamp: self.clock });
        (self.facts.len() - 1, true)
    }

    /// Makes room for `facts` more facts over `pred` whose arguments add at
    /// most `keys` new (predicate, position, node) keys, so that inserting
    /// them grows neither the fact list nor the dedup and positional
    /// indexes.
    pub fn reserve(&mut self, pred: PredId, facts: usize, keys: usize) {
        self.facts.reserve(facts);
        self.same_key.reserve(facts);
        self.index.reserve(facts);
        self.pos_index.reserve(keys);
        let p = pred.0 as usize;
        if self.by_pred.len() <= p {
            self.by_pred.resize_with(p + 1, Vec::new);
        }
        self.by_pred[p].reserve(facts);
    }

    /// All facts, in insertion order. After a [`Self::rehash`] duplicates
    /// that merges created are gone: each was coalesced into the earliest
    /// fact with the same canonical args.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// The fact at index `i`.
    pub fn fact(&self, i: usize) -> &Fact {
        &self.facts[i]
    }

    /// Number of stored facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Indices of facts with the given predicate, sorted by stamp.
    pub fn facts_with_pred(&self, pred: PredId) -> &[usize] {
        self.by_pred.get(pred.0 as usize).map_or(&[], |v| v.as_slice())
    }

    /// Suffix of [`Self::facts_with_pred`] with stamps above `watermark`
    /// (the predicate's delta). O(log n) thanks to the stamp-sorted
    /// per-predicate lists.
    pub fn facts_with_pred_since(&self, pred: PredId, watermark: u64) -> &[usize] {
        let list = self.facts_with_pred(pred);
        let cut = list.partition_point(|&i| self.facts[i].stamp <= watermark);
        &list[cut..]
    }

    /// Prefix of [`Self::facts_with_pred`] with stamps at or below
    /// `watermark` (the predicate's pre-delta facts).
    pub fn facts_with_pred_until(&self, pred: PredId, watermark: u64) -> &[usize] {
        let list = self.facts_with_pred(pred);
        let cut = list.partition_point(|&i| self.facts[i].stamp <= watermark);
        &list[..cut]
    }

    /// Indices of facts whose `pos`-th argument lies in `node`'s class,
    /// served from the positional index. Returns `None` while the instance
    /// is non-canonical (merges pending a `rehash`), in which case callers
    /// must fall back to [`Self::facts_with_pred`].
    pub fn facts_with_pred_arg(
        &self,
        pred: PredId,
        pos: u32,
        node: NodeId,
    ) -> Option<&[usize]> {
        if !self.canonical {
            return None;
        }
        Some(self.pos_index.get(&(pred, pos, node)).map_or(&[], |v| v.as_slice()))
    }

    /// True when no merge is pending a `rehash` (all indexed keys name
    /// current union-find roots).
    pub fn is_canonical(&self) -> bool {
        self.canonical
    }

    /// Current revision clock: the stamp of the most recently inserted or
    /// re-stamped fact. Semi-naïve watermarks snapshot this.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Node carrying a constant, if the constant was ever interned into the
    /// instance (read-only counterpart of [`Self::const_node`]).
    pub fn node_of_const(&self, c: SymId) -> Option<NodeId> {
        self.node_of_const.get(&c).map(|&n| self.find(n))
    }

    /// True when the instance contains a fact whose args are the
    /// canonical nodes of `args`. One probe of the dedup index; allocates
    /// nothing.
    pub fn contains(&self, pred: PredId, args: &[NodeId]) -> bool {
        let key = fact_key(pred, args.iter().map(|&a| self.find(a)));
        let mut next = self.index.get(&key).copied().unwrap_or(NO_FACT);
        while next != NO_FACT {
            let f = &self.facts[next as usize];
            if f.pred == pred
                && f.args.len() == args.len()
                && f.args.iter().zip(args).all(|(&x, &a)| x == self.find(a))
            {
                return true;
            }
            next = self.same_key[next as usize];
        }
        false
    }

    /// The set of canonical nodes appearing in facts.
    pub fn active_nodes(&self) -> HashSet<NodeId> {
        self.facts.iter().flat_map(|f| f.args.iter().map(|&a| self.find(a))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_nodes_are_shared() {
        let mut inst = Instance::new();
        let a = inst.const_node(SymId(0));
        let b = inst.const_node(SymId(0));
        assert_eq!(a, b);
        let c = inst.const_node(SymId(1));
        assert_ne!(a, c);
    }

    #[test]
    fn merge_and_find() {
        let mut inst = Instance::new();
        let a = inst.fresh_null();
        let b = inst.fresh_null();
        let c = inst.fresh_null();
        inst.merge(a, b).unwrap();
        inst.merge(b, c).unwrap();
        assert_eq!(inst.find(a), inst.find(c));
    }

    #[test]
    fn merging_constant_with_null_keeps_constant() {
        let mut inst = Instance::new();
        let c = inst.const_node(SymId(3));
        let n = inst.fresh_null();
        inst.merge(n, c).unwrap();
        assert_eq!(inst.const_of(n), Some(SymId(3)));
    }

    #[test]
    fn distinct_constants_clash() {
        let mut inst = Instance::new();
        let a = inst.const_node(SymId(0));
        let b = inst.const_node(SymId(1));
        assert!(inst.merge(a, b).is_err());
    }

    #[test]
    fn insert_dedups() {
        let mut inst = Instance::new();
        let a = inst.fresh_null();
        let (i1, fresh1) = inst.insert(PredId(0), vec![a]);
        let (i2, fresh2) = inst.insert(PredId(0), vec![a]);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(i1, i2);
        assert_eq!(inst.num_facts(), 1);
    }

    #[test]
    fn fact_is_a_predicate_its_arguments_and_a_stamp() {
        assert_eq!(std::mem::size_of::<Fact>(), 40);
    }

    #[test]
    fn positional_index_tracks_inserts_and_rehash() {
        let mut inst = Instance::new();
        let a = inst.fresh_null();
        let b = inst.fresh_null();
        let c = inst.fresh_null();
        inst.insert(PredId(0), vec![a, b]);
        inst.insert(PredId(0), vec![c, b]);
        assert_eq!(inst.facts_with_pred_arg(PredId(0), 0, a), Some(&[0usize][..]));
        assert_eq!(inst.facts_with_pred_arg(PredId(0), 1, b).unwrap().len(), 2);
        assert!(inst.is_canonical());
        inst.merge(a, c).unwrap();
        assert!(!inst.is_canonical());
        assert_eq!(inst.facts_with_pred_arg(PredId(0), 0, a), None, "stale index refused");
        inst.rehash();
        assert!(inst.is_canonical());
        let root = inst.find(a);
        assert_eq!(inst.facts_with_pred_arg(PredId(0), 0, root).unwrap().len(), 1);
    }

    #[test]
    fn rehash_restamps_rewritten_facts_only() {
        let mut inst = Instance::new();
        let a = inst.fresh_null();
        let b = inst.fresh_null();
        let c = inst.fresh_null();
        let (i_ab, _) = inst.insert(PredId(0), vec![a]);
        let (i_c, _) = inst.insert(PredId(1), vec![c]);
        let clock_before = inst.clock();
        let since = |inst: &Instance, watermark| {
            [PredId(0), PredId(1)].map(|p| inst.facts_with_pred_since(p, watermark).len())
        };
        assert_eq!(since(&inst, 0), [1, 1]);
        assert_eq!(since(&inst, clock_before), [0, 0]);
        inst.merge(a, b).unwrap();
        inst.rehash();
        // `a` was the rank-equal merge target; whichever root won, the fact
        // over `a`'s class is rewritten or untouched, the fact over `c`
        // must keep its stamp.
        assert!(inst.fact(i_c).stamp <= clock_before);
        // A merge that rewrites args re-stamps the rewritten fact only:
        // merging `c` into `a`'s (higher-rank) class rewrites the P1 fact.
        let before = inst.clock();
        inst.merge(c, a).unwrap();
        inst.rehash();
        assert_eq!(since(&inst, before), [0, 1], "only the fact over c's class is rewritten");
        assert!(inst.fact(i_ab).stamp <= before);
    }

    #[test]
    fn node_of_const_is_read_only_lookup() {
        let mut inst = Instance::new();
        assert_eq!(inst.node_of_const(SymId(7)), None);
        let n = inst.const_node(SymId(7));
        assert_eq!(inst.node_of_const(SymId(7)), Some(n));
    }

    #[test]
    fn rehash_coalesces_facts_after_merge() {
        let mut inst = Instance::new();
        let a = inst.fresh_null();
        let b = inst.fresh_null();
        inst.insert(PredId(0), vec![a]);
        inst.insert(PredId(0), vec![b]);
        inst.insert(PredId(1), vec![b]);
        assert_eq!(inst.num_facts(), 3);
        inst.merge(a, b).unwrap();
        assert_eq!(inst.rehash(), [0, 0, 1], "the duplicate became fact 0, fact 2 moved down");
        assert_eq!(inst.num_facts(), 2);
        assert!(inst.contains(PredId(0), &[a]));
        assert!(inst.contains(PredId(0), &[b]));
    }
}
