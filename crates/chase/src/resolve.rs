//! Conclusion resolution: the restricted chase's "is this TGD conclusion
//! already satisfied?" test, and its existential reuse, as hash-cons
//! lookups instead of a backtracking search.
//!
//! The paper reads the saturated instance as an e-graph of value-equal
//! classes (§6.2.1), and every Vrem operator is functional through its
//! `I_*` EGD. So once the input positions of a conclusion atom over such a
//! predicate are bound, its outputs are whatever the fact with those inputs
//! holds, and the instance finds that fact with one probe of its memo from
//! (predicate, canonical input nodes) to the facts carrying them
//! (egg's hash-cons, Willsey et al., POPL 2021). A [`ResolutionOrder`],
//! compiled once per rule, lists a conclusion's atoms as such steps:
//!
//! * a **lookup** for an atom over a functional predicate whose
//!   [`FunctionalSig::inputs`] are bound: the memo yields the chain of
//!   facts with those inputs — usually one, more only between a firing
//!   and the EGD that merges them — and the step binds or compares the
//!   outputs against each in turn, backtracking over the chain, so the
//!   check stays exact;
//! * a **ground probe** for an atom whose arguments are all bound by then:
//!   one probe of the dedup index ([`Instance::contains`]).
//!
//! A conclusion with no complete order (some atom neither functional with
//! bound inputs nor ever ground, e.g. PACB's view bodies) is checked by
//! the general search instead. The same steps drive existential reuse:
//! each lookup binds its unbound outputs to the lowest-index fact carrying
//! its inputs.

use crate::atom::Atom;
use crate::chase::FunctionalSig;
use crate::constraint::Tgd;
use crate::homomorphism::{Bindings, Matcher};
use crate::instance::{Instance, NodeId};
use crate::symbols::PredId;
use crate::term::Term;

/// One step of a [`ResolutionOrder`], naming a conclusion atom by index.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// The atom's predicate is functional by `sig`, and every input
    /// position is bound once the earlier steps have run.
    Lookup { atom: usize, sig: FunctionalSig },
    /// Every argument of the atom is bound once the earlier steps have run.
    Ground { atom: usize },
}

impl Step {
    fn atom(&self) -> usize {
        match self {
            Step::Lookup { atom, .. } | Step::Ground { atom } => *atom,
        }
    }
}

/// How a TGD's conclusion is resolved against an instance: its atoms as
/// lookups and ground probes, in an order where every step's inputs are
/// bound by the premise or an earlier lookup. Compiled once per rule by
/// [`crate::RuleSet`]; public so static analysis (`hadad-analyze`) reads
/// which existentials the engine binds by reuse from the order itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionOrder {
    steps: Vec<Step>,
    /// Every conclusion atom has a step: the lookups decide the check.
    complete: bool,
    /// Variables the lookups bind (the premise binds the others), in the
    /// order they are bound.
    bound: Vec<u32>,
}

impl ResolutionOrder {
    /// The order for `tgd` given the signatures `functional` proves. It
    /// places atoms in passes over the conclusion, each pass taking, in
    /// conclusion order, every atom whose inputs (or, for an atom with no
    /// usable signature, whose arguments) are bound by then — the order in
    /// which existential reuse binds when every lookup finds a fact. A
    /// signature naming a position past the atom's arity is ignored.
    pub fn compile<'a>(
        tgd: &Tgd,
        functional: impl Fn(PredId) -> Option<&'a FunctionalSig>,
    ) -> Self {
        let in_premise = |v: u32| tgd.premise.iter().any(|a| a.args.contains(&Term::Var(v)));
        // Variables the lookups bind; nothing is allocated without one.
        let mut bound: Vec<u32> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        loop {
            let mut progressed = false;
            for (i, atom) in tgd.conclusion.iter().enumerate() {
                if steps.iter().any(|s| s.atom() == i) {
                    continue;
                }
                let is_bound =
                    |t: &Term| t.as_var().is_none_or(|v| in_premise(v) || bound.contains(&v));
                let sig = functional(atom.pred).filter(|sig| {
                    sig.inputs.iter().chain(&sig.outputs).all(|&p| p < atom.args.len())
                });
                let step = match sig {
                    Some(sig) if sig.inputs.iter().all(|&p| is_bound(&atom.args[p])) => {
                        for &p in &sig.outputs {
                            if let Term::Var(v) = atom.args[p] {
                                if !in_premise(v) && !bound.contains(&v) {
                                    bound.push(v);
                                }
                            }
                        }
                        Step::Lookup { atom: i, sig: sig.clone() }
                    }
                    _ if atom.args.iter().all(is_bound) => Step::Ground { atom: i },
                    _ => continue,
                };
                steps.push(step);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let complete = steps.len() == tgd.conclusion.len();
        ResolutionOrder { steps, complete, bound }
    }

    /// True when every conclusion atom has a step, so lookups and ground
    /// probes decide the check without the general search.
    #[cfg(test)]
    pub(crate) fn is_complete(&self) -> bool {
        self.complete
    }

    /// True when some lookup binds `var`: for an existential, the engine
    /// reuses an existing witness for it whenever that lookup finds one.
    pub fn binds(&self, var: u32) -> bool {
        self.bound.contains(&var)
    }

    /// Number of lookup steps.
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, Step::Lookup { .. })).count()
    }
}

/// Canonical nodes of `atom`'s arguments at `positions` into `out`, under
/// `bindings`. False when one is an unbound variable or a constant with no
/// node in the instance.
fn gather(
    inst: &Instance,
    atom: &Atom,
    positions: impl Iterator<Item = usize>,
    bindings: &Bindings,
    out: &mut Vec<NodeId>,
) -> bool {
    out.clear();
    for p in positions {
        let node = match atom.args[p] {
            Term::Var(v) => bindings.get(v).map(|n| inst.find(n)),
            Term::Const(c) => inst.node_of_const(c),
        };
        match node {
            Some(n) => out.push(n),
            None => return false,
        }
    }
    true
}

/// Buffers of conclusion resolution, kept for a whole chase run; once
/// grown to the widest conclusion, resolving allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Resolver {
    /// The premise bindings being extended by the check.
    bindings: Bindings,
    /// Variables the check bound, in binding order.
    trail: Vec<u32>,
    /// A lookup's input nodes, or a ground probe's arguments.
    nodes: Vec<NodeId>,
    /// Per open lookup, the facts carrying its inputs: a stack of
    /// segments, one per step being backtracked over.
    chains: Vec<u32>,
    /// The general search, for conclusions with no complete order.
    fallback: Matcher,
}

impl Resolver {
    /// True when some extension of `partial` maps every atom of
    /// `conclusion` onto a fact of `inst` (the restricted chase's
    /// "already satisfied" test), decided along `order`. `inst` must have
    /// indexed the signatures `order` was compiled with
    /// ([`Instance::index_functional`]) and merged nothing since it did so
    /// or last rehashed.
    pub(crate) fn holds(
        &mut self,
        inst: &Instance,
        order: &ResolutionOrder,
        conclusion: &[Atom],
        slots: usize,
        partial: &Bindings,
    ) -> bool {
        if !order.complete {
            return self.fallback.satisfiable(inst, conclusion, slots, partial);
        }
        self.bindings.reset(slots.max(partial.len()));
        self.bindings.load(partial.slots());
        self.trail.clear();
        self.chains.clear();
        self.descend(inst, &order.steps, conclusion)
    }

    /// Resolves `steps` in turn, backtracking over each lookup's chain;
    /// on `false`, the bindings are back to what they were on entry.
    fn descend(&mut self, inst: &Instance, steps: &[Step], conclusion: &[Atom]) -> bool {
        let Some((step, rest)) = steps.split_first() else {
            return true;
        };
        match step {
            Step::Ground { atom } => {
                let atom = &conclusion[*atom];
                gather(inst, atom, 0..atom.args.len(), &self.bindings, &mut self.nodes)
                    && inst.contains(atom.pred, &self.nodes)
                    && self.descend(inst, rest, conclusion)
            }
            Step::Lookup { atom, sig } => {
                let atom = &conclusion[*atom];
                let inputs = sig.inputs.iter().copied();
                if !gather(inst, atom, inputs, &self.bindings, &mut self.nodes) {
                    return false;
                }
                let start = self.chains.len();
                inst.facts_with_inputs(atom.pred, &self.nodes, &mut self.chains);
                for k in start..self.chains.len() {
                    let fact = inst.fact(self.chains[k] as usize);
                    let mark = self.trail.len();
                    let mut agrees = true;
                    for &p in &sig.outputs {
                        let n = inst.find(fact.args[p]);
                        match atom.args[p] {
                            Term::Const(c) => agrees = inst.const_of(n) == Some(c),
                            Term::Var(v) => match self.bindings.get(v) {
                                Some(b) => agrees = inst.find(b) == n,
                                None => {
                                    self.bindings.set(v, n);
                                    self.trail.push(v);
                                }
                            },
                        }
                        if !agrees {
                            break;
                        }
                    }
                    if agrees && self.descend(inst, rest, conclusion) {
                        return true;
                    }
                    for v in self.trail.drain(mark..) {
                        self.bindings.unset(v);
                    }
                }
                self.chains.truncate(start);
                false
            }
        }
    }

    /// Existential reuse: binds each unbound output of a lookup whose
    /// inputs are bound to the lowest-index fact carrying those inputs
    /// (the last position first, so a variable repeated across outputs
    /// ends up with its last position's node). A lookup whose inputs an
    /// earlier lookup left unbound, for want of a fact, is retried after
    /// a later one binds them. `inst` as for [`Self::holds`].
    pub(crate) fn reuse(
        &mut self,
        inst: &Instance,
        order: &ResolutionOrder,
        conclusion: &[Atom],
        bindings: &mut Bindings,
    ) {
        loop {
            let (mut progressed, mut deferred) = (false, false);
            for step in &order.steps {
                let Step::Lookup { atom, sig } = step else {
                    continue;
                };
                let atom = &conclusion[*atom];
                let unbound = |p: &usize| {
                    atom.args[*p].as_var().is_some_and(|v| bindings.get(v).is_none())
                };
                if !sig.outputs.iter().any(unbound) {
                    continue;
                }
                if !gather(inst, atom, sig.inputs.iter().copied(), bindings, &mut self.nodes) {
                    deferred = true;
                    continue;
                }
                self.chains.clear();
                inst.facts_with_inputs(atom.pred, &self.nodes, &mut self.chains);
                // Chains run newest first: the witness is the last entry.
                let Some(&witness) = self.chains.last() else {
                    continue;
                };
                let witness = inst.fact(witness as usize);
                for &p in sig.outputs.iter().rev() {
                    if let Term::Var(v) = atom.args[p] {
                        if bindings.get(v).is_none() {
                            bindings.set(v, inst.find(witness.args[p]));
                        }
                    }
                }
                progressed = true;
            }
            if !(progressed && deferred) {
                return;
            }
        }
    }
}
