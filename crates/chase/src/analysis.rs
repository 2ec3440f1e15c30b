//! The chase's analysis hook: per-class data kept beside the instance, in
//! the style of egg's e-class analyses (Willsey et al., POPL 2021).
//!
//! A domain often knows more about a class than its facts say — for
//! `hadad-core`, a matrix class's shape and estimated density. Deriving
//! that knowledge with rules costs matches, firings and facts that every
//! later conclusion check and index has to carry; an [`Analysis`] computes
//! it directly, at the three points where the chase touches classes:
//!
//! * [`Analysis::make`] sees every conclusion fact a TGD firing inserts.
//!   A fact over a class the firing just minted is where that class is
//!   born, and the class has no data until `make` gives it some.
//! * [`Analysis::join`] sees every merge an EGD performs, and may refuse
//!   it: the chase then stops with [`crate::ChaseOutcome::AnalysisConflict`].
//! * [`Analysis::guard`] decides a rule's guard ([`crate::Tgd::guard`]) on
//!   each premise match. A refused match is never buffered, never offered
//!   to the [`crate::Pruner`], and never counts as a veto.
//!
//! The engine is generic over the analysis, so a run without one
//! ([`NoAnalysis`], as PACB runs) compiles the three calls away.

use crate::atom::Atom;
use crate::homomorphism::Bindings;
use crate::instance::{Instance, NodeId};

/// Per-class data the chase maintains while it runs.
pub trait Analysis {
    /// A firing of rule `rule` (an index into the engine's rule set)
    /// inserted the fact of conclusion atom `atom` over `args` — or found
    /// it already there. `args` are union-find roots.
    fn make(&mut self, inst: &Instance, rule: usize, atom: &Atom, args: &[NodeId]);

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
}

/// The run without an analysis: nothing is kept, and since nothing can
/// vouch for a guard, a guarded rule never fires.
pub struct NoAnalysis;

impl Analysis for NoAnalysis {
    fn make(&mut self, _: &Instance, _: usize, _: &Atom, _: &[NodeId]) {}

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
