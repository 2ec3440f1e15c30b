//! The chase's analysis hook: per-class data kept beside the instance, in
//! the style of egg's e-class analyses (Willsey et al., POPL 2021).
//!
//! A domain often knows more about a class than its facts say — for
//! `hadad-core`, a matrix class's shape. Deriving
//! that knowledge with rules costs matches, firings and facts that every
//! later conclusion check and index has to carry; an [`Analysis`] computes
//! it directly, at the points where the chase touches classes and facts:
//!
//! * [`Analysis::make`] sees every conclusion fact a TGD firing inserts,
//!   or finds already there, by its index. A fact over a class the firing
//!   just minted is where that class is born, and the class has no data
//!   until `make` gives it some.
//! * [`Analysis::join`] sees every merge an EGD performs, and may refuse
//!   it: the chase then stops with [`crate::ChaseOutcome::AnalysisConflict`].
//! * [`Analysis::rehashed`] sees how the `rehash` after an EGD's merges
//!   renumbered the facts, coalescing the ones the merges made duplicates.
//!   It defaults to ignoring it; an analysis that keeps data per fact
//!   (PACB's provenance formulas) moves that data along.
//! * [`Analysis::guard`] decides a rule's guard ([`crate::Tgd::guard`]) on
//!   each premise match. A refused match is never buffered, never offered
//!   to `allow`, and never counts as a veto.
//! * [`Analysis::allow`] may veto a firing just before it applies — the
//!   hook cost-based pruning (PACB's `Prune_prov`, §7.3) is built on. It
//!   defaults to allowing everything. An allowed firing's `make` calls
//!   follow its `allow` with no other call between them, so `allow` may
//!   prepare what those calls share.
//!
//! An analysis is the engine's only extension point, and the engine is
//! generic over it, so a run without one ([`NoAnalysis`], as PACB's forward
//! chase runs) compiles the calls away, as does the defaulted `allow` of an
//! analysis that never vetoes.

use crate::atom::Atom;
use crate::constraint::Tgd;
use crate::homomorphism::{Bindings, Match};
use crate::instance::{Instance, NodeId};

/// Per-class (or per-fact) data the chase maintains while it runs.
pub trait Analysis {
    /// A firing of rule `rule` (an index into the engine's rule set)
    /// inserted fact `fact` for conclusion atom `atom` — or found it
    /// already there. The fact's args are union-find roots.
    fn make(&mut self, inst: &Instance, rule: usize, atom: &Atom, fact: usize);

    /// An EGD merged the class rooted at `absorbed` into the one rooted at
    /// `root`. An error stops the chase: the two classes carry data that
    /// cannot describe one value.
    fn join(
        &mut self,
        inst: &Instance,
        root: NodeId,
        absorbed: NodeId,
    ) -> Result<(), AnalysisConflict>;

    /// Whether `guard` holds for a premise match with `bindings`. It is
    /// asked once, when the match is enumerated; under semi-naïve
    /// evaluation a refused match is not asked again until one of its
    /// premise facts is re-stamped.
    fn guard(&self, inst: &Instance, guard: &Atom, bindings: &Bindings) -> bool;

    /// The instance's `rehash` after an EGD's merges renumbered its facts:
    /// old fact `i` is now fact `moved_to[i]`. Facts the merges made
    /// duplicates share one new index, that of the earliest of them.
    /// Nothing to do by default.
    fn rehashed(&mut self, inst: &Instance, moved_to: &[usize]) {
        let _ = (inst, moved_to);
    }

    /// Whether the firing of TGD `tgd` (rule `rule` of the engine's set, as
    /// compiled — see [`crate::RuleSet::compile`]) on premise match `m` may
    /// apply. Asked just before it would: after the guard held and the
    /// conclusion was re-checked unsatisfied. A refusal is a *veto*,
    /// counted in [`crate::RuleStats::vetoes`]; under semi-naïve evaluation
    /// the match is not offered again until one of its premise facts is
    /// re-stamped, so a refusal must not rest on anything that loosens
    /// during the run. When it allows, the firing's [`Self::make`] calls
    /// come next. Everything is allowed by default.
    fn allow(&mut self, inst: &Instance, rule: usize, tgd: &Tgd, m: &Match) -> bool {
        let _ = (inst, rule, tgd, m);
        true
    }
}

/// The run without an analysis: nothing is kept, and since nothing can
/// vouch for a guard, a guarded rule never fires.
pub struct NoAnalysis;

impl Analysis for NoAnalysis {
    fn make(&mut self, _: &Instance, _: usize, _: &Atom, _: usize) {}

    fn join(&mut self, _: &Instance, _: NodeId, _: NodeId) -> Result<(), AnalysisConflict> {
        Ok(())
    }

    fn guard(&self, _: &Instance, _: &Atom, _: &Bindings) -> bool {
        false
    }
}

/// Error: an EGD merged two classes whose analysis data contradict each
/// other (in `hadad-core`: matrices of different shapes), so a constraint
/// equated values that cannot be equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConflict {
    /// Root of the class the merge kept.
    pub root: NodeId,
    /// Root of the class it absorbed.
    pub absorbed: NodeId,
}
