//! HADAD core: the hybrid LA expression language, its Virtual Relational
//! Encoding of Matrices (VREM, paper §6.2), the MMC property catalogue of
//! linear-algebra integrity constraints (§6.2.3–§6.2.5), matrix metadata /
//! estimators (§7.2), the shapes the chase keeps per class (its analysis),
//! and the min-cost decoder that walks a chased instance back into an
//! expression, pricing each plan as the estimator does (§6.2.2, the
//! inverse of `enc_LA`).
//!
//! The rewriting loop lives one crate up, in `hadad-rewrite`:
//! encode (this crate) → chase under the catalogue with the LA analysis
//! (`hadad-chase` + this crate) → decode and price (this crate) → sort →
//! execute (`hadad-linalg`).

/// Named fault-injection sites (`HADAD_FAILPOINTS` env DSL); re-exported
/// here so every layer of the stack shares one registry.
pub use hadad_failpoint as failpoint;
pub use hadad_obs as obs;

/// Static rule-soundness analysis (range restriction, weak acyclicity
/// modulo reuse, subsumption); re-exported so callers gate registration
/// without a direct `hadad-analyze` dependency.
pub use hadad_analyze as analyze;
pub use hadad_analyze::{RuleRejection, RuleReport};

pub mod analysis;
pub mod catalogue;
pub mod encode;
pub mod expr;
pub mod extract;
pub mod fingerprint;
pub mod schema;
pub mod stats;

pub use analysis::{ClassData, LaAnalysis};
pub use catalogue::{Catalogue, ViewRules};
pub use encode::{ChainCells, CqEncoder, Encoded, Encoder};
pub use expr::{Expr, UnaryOp};
pub use extract::Extractor;
pub use fingerprint::{canonicalize, rename_leaves, CanonicalExpr};
pub use schema::{OpKind, Vrem};
pub use stats::{
    expr_estimate, expr_stats, op_cost, op_flops, op_stats, ClassStats, MatrixMeta,
    MetaCatalog, ShapeError, TypeFlags, MEM_WEIGHT,
};
