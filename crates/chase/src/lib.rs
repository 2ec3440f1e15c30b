//! Relational constraint framework: conjunctive queries, integrity
//! constraints (TGDs / EGDs), the (bounded, restricted) chase, and the
//! Provenance-Aware Chase & Backchase (PACB) of Ileana et al. \[32\], the
//! rewriting engine HADAD builds on (paper §4–§5).
//!
//! The crate is domain-agnostic: `hadad-core` instantiates it with the VREM
//! schema and the MMC constraint catalogue to rewrite linear-algebra
//! expressions; the hybrid experiments instantiate it with table schemas to
//! rewrite relational preprocessing queries using materialized views.
//!
//! # Vocabulary
//!
//! * [`Term`]: variable or constant (interned symbols).
//! * [`Atom`]: predicate applied to terms; [`Cq`]: conjunctive query.
//! * [`Tgd`] / [`Egd`]: tuple- and equality-generating dependencies.
//! * [`Instance`]: a canonical database whose elements live in a union-find
//!   (labelled nulls + constants), supporting homomorphism enumeration.
//! * [`chase::RuleSet`]: a constraint list compiled once for the engine
//!   and extensible without recompiling ([`chase::RuleSet::extended`]);
//!   [`chase::ChaseEngine`]: bounded restricted chase over a borrowed rule
//!   set, with cost-pruning hooks (the paper's `Prune_prov`, §7.3).
//! * [`ResolutionOrder`]: a TGD conclusion compiled into memo lookups over
//!   functional predicates and ground probes — how the engine checks a
//!   conclusion and reuses existing witnesses for its existentials.
//! * [`Analysis`]: data kept beside the chase, per class (an e-class
//!   analysis) or per fact, which also decides rule guards and may veto
//!   firings.
//! * [`pacb::Pacb`]: view-based reformulation via Chase & Backchase with
//!   provenance formulas (paper §4.2, Example 4.1). The formulas are
//!   PACB's own analysis; a [`instance::Fact`] is a predicate, its
//!   arguments and a stamp.

pub mod analysis;
pub mod atom;
pub mod chase;
pub mod constraint;
pub mod cq;
pub mod homomorphism;
pub mod instance;
pub mod pacb;
mod provenance;
pub mod resolve;
pub mod symbols;
pub mod term;

pub use analysis::{Analysis, AnalysisConflict, NoAnalysis};
pub use atom::Atom;
pub use chase::{
    degradation_of, functional_sig, ChaseBudget, ChaseEngine, ChaseOutcome, ChaseStats,
    CompiledRule, DegradeReason, Degraded, ExhaustedBy, FunctionalSig, RewritePhase, RuleSet,
    RuleStats,
};
pub use constraint::{Constraint, Egd, Tgd};
pub use cq::Cq;
pub use homomorphism::{Bindings, Match};
pub use instance::{ConstClash, IdHasher, Instance, NodeId};
pub use pacb::{CostFn, Pacb, PacbResult, Rewriting, View};
pub use resolve::ResolutionOrder;
pub use symbols::{PredId, SymId, Vocabulary};
pub use term::Term;
