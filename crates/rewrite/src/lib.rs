//! End-to-end HADAD rewriting: the optimizer facade tying the VREM
//! encoding (`hadad-core`), the chase under the MMC catalogue
//! (`hadad-chase`), min-cost decoding, cost-based ranking, and execution
//! on the matrix backends (`hadad-linalg`) into one call:
//!
//! ```
//! use hadad_core::{expr::dsl::*, MatrixMeta, MetaCatalog};
//! use hadad_rewrite::Optimizer;
//!
//! let mut cat = MetaCatalog::new();
//! cat.register("A", MatrixMeta::dense(1000, 20));
//! cat.register("B", MatrixMeta::dense(20, 1000));
//! let opt = Optimizer::new(cat);
//!
//! // trace(A B) is a 1000x1000 intermediate; trace(B A) is 20x20.
//! let ranked = opt.rewrite(&trace(mul(m("A"), m("B")))).unwrap();
//! assert_eq!(ranked.best().expr.to_string(), "trace((B A))");
//! ```

pub mod cache;
pub mod cast;
pub mod eval;
pub mod hybrid;
pub mod maintain;
pub mod optimizer;
pub mod query;

pub use cache::{CacheReport, PlanCache};
pub use eval::{eval, eval_with, Env, EvalError};
pub use hadad_linalg::ExecBackend;
pub use hybrid::{
    eval_cq, CastKind, CatalogSnapshot, CompiledQuery, HybridError, HybridOptimizer,
    HybridPipeline, HybridResult, LiveCatalog, MaintainedCast, RelOp, RelPhase, RelQuery,
    SnapshotReader, TableView, TableVocab,
};
pub use maintain::{MaintenanceReport, ViewChange, ViewMaintainer};
pub use optimizer::{LaView, Optimizer, Plan, RankedPlans, RewriteError, RewriteReport};
