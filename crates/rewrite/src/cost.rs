//! Cost estimation for candidate plans (paper §7.1–§7.2): two thin
//! adapters over the **unified estimator** in `hadad_core::stats`, which
//! owns every formula, shape rule and the one recursion over expressions.
//!
//! * [`FlopsCost`] — the extraction DP's [`ExtractionCost`], pricing each
//!   class at the shape and density the chase's analysis holds for it
//!   (see [`ExtractionCost`] for classes without a density) through
//!   `op_cost_with`;
//! * [`CostModel`] — the naïve metadata estimator of §7.2.1 over full
//!   expressions (`expr_estimate`), used to rank extracted candidates.
//!
//! The LA chase itself runs unpruned: `Prune_prov` (§7.3) lives in PACB's
//! backchase (`hadad_chase::pacb`), against a fixed threshold.

use hadad_core::{
    expr_estimate, op_cost_with, BackendProfile, ClassStats, Expr, ExtractionCost, MetaCatalog,
    OpKind, ShapeError,
};

/// Stats-aware cost for the extraction DP: the shared per-operator charge
/// (sparsity-discounted flops plus materialization of the output's
/// estimated non-zeros), priced under one execution backend's calibration
/// constants. `Default` is the reference profile, which reproduces the old
/// dense-flops model on all-dense stats.
#[derive(Default)]
pub struct FlopsCost {
    /// Calibration constants of the backend being priced for.
    pub profile: BackendProfile,
}

impl FlopsCost {
    /// Cost model under a specific backend's calibration constants.
    pub fn with_profile(profile: BackendProfile) -> Self {
        FlopsCost { profile }
    }
}

impl ExtractionCost for FlopsCost {
    fn leaf_cost(&self, _stats: ClassStats) -> f64 {
        // Base matrices and literals are already materialized.
        0.0
    }

    fn op_cost(
        &self,
        kind: OpKind,
        out_idx: usize,
        child: &[ClassStats],
        out: ClassStats,
    ) -> f64 {
        op_cost_with(&self.profile, kind, out_idx, child, &out)
    }
}

/// Shape + density estimate of a subexpression.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Estimated row count.
    pub rows: usize,
    /// Estimated column count.
    pub cols: usize,
    /// Estimated fraction of non-zero cells in `[0, 1]`.
    pub density: f64,
    /// Accumulated cost of computing the subexpression.
    pub cost: f64,
}

/// The naïve sparsity-aware estimator over full expressions, ranking the
/// candidates extraction produces. Shares every formula with the DP
/// through `hadad_core::stats`.
pub struct CostModel<'a> {
    cat: &'a MetaCatalog,
    profile: BackendProfile,
}

impl<'a> CostModel<'a> {
    /// Estimator under the reference backend's constants.
    pub fn new(cat: &'a MetaCatalog) -> Self {
        CostModel { cat, profile: BackendProfile::reference() }
    }

    /// Estimator under a specific backend's calibration constants — the
    /// optimizer passes its selected backend's profile so ranking tracks
    /// the kernels that will actually run.
    pub fn with_profile(cat: &'a MetaCatalog, profile: BackendProfile) -> Self {
        CostModel { cat, profile }
    }

    /// Total estimated cost of evaluating `e`.
    pub fn cost(&self, e: &Expr) -> Result<f64, ShapeError> {
        Ok(self.estimate(e)?.cost)
    }

    /// Full shape/density/cost estimate of `e`.
    pub fn estimate(&self, e: &Expr) -> Result<Estimate, ShapeError> {
        let (stats, cost) = expr_estimate(e, self.cat, &self.profile)?;
        Ok(Estimate { rows: stats.rows, cols: stats.cols, density: stats.density, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadad_core::expr::dsl::*;
    use hadad_core::{op_stats, MatrixMeta};

    fn cat() -> MetaCatalog {
        let mut c = MetaCatalog::new();
        c.register("A", MatrixMeta::dense(30, 4));
        c.register("B", MatrixMeta::dense(4, 30));
        c.register("S", MatrixMeta::sparse(1000, 1000, 5000));
        c
    }

    #[test]
    fn rotated_trace_is_cheaper() {
        let c = cat();
        let cm = CostModel::new(&c);
        let ab = cm.cost(&trace(mul(m("A"), m("B")))).unwrap();
        let ba = cm.cost(&trace(mul(m("B"), m("A")))).unwrap();
        assert!(ba < ab, "trace(BA)={ba} should beat trace(AB)={ab}");
    }

    #[test]
    fn right_deep_chain_is_cheaper() {
        let mut c = cat();
        c.register("x", MatrixMeta::dense(30, 1));
        let cm = CostModel::new(&c);
        let left = cm.cost(&mul(mul(m("A"), m("B")), m("x"))).unwrap();
        let right = cm.cost(&mul(m("A"), mul(m("B"), m("x")))).unwrap();
        assert!(right < left);
    }

    #[test]
    fn sparsity_lowers_product_cost() {
        let c = cat();
        let cm = CostModel::new(&c);
        let sparse = cm.cost(&mul(m("S"), m("S"))).unwrap();
        let mut dense_cat = MetaCatalog::new();
        dense_cat.register("S", MatrixMeta::dense(1000, 1000));
        let dense = CostModel::new(&dense_cat).cost(&mul(m("S"), m("S"))).unwrap();
        assert!(sparse < dense / 10.0, "sparse={sparse} dense={dense}");
    }

    #[test]
    fn subtraction_costs_like_addition() {
        let mut c = MetaCatalog::new();
        c.register("P", MatrixMeta::dense(8, 8));
        let cm = CostModel::new(&c);
        // Sub desugars to a + (-1 · b); the direct estimate must at least
        // cover the Add part and carry the union density.
        let e = cm.estimate(&sub(m("P"), m("P"))).unwrap();
        assert_eq!((e.rows, e.cols), (8, 8));
        assert_eq!(e.density, 1.0);
        assert!(e.cost > 0.0);
    }

    #[test]
    fn shape_errors_surface() {
        let c = cat();
        let cm = CostModel::new(&c);
        assert!(cm.cost(&add(m("A"), m("B"))).is_err());
        assert!(cm.cost(&m("missing")).is_err());
        assert!(cm.cost(&trace(m("A"))).is_err());
    }

    #[test]
    fn flops_cost_orders_mul_shapes() {
        let f = FlopsCost::default();
        let big = f.op_cost(
            OpKind::Mul,
            0,
            &[ClassStats::dense(30, 4), ClassStats::dense(4, 30)],
            ClassStats::dense(30, 30),
        );
        let small = f.op_cost(
            OpKind::Mul,
            0,
            &[ClassStats::dense(4, 30), ClassStats::dense(30, 4)],
            ClassStats::dense(4, 4),
        );
        assert!(small < big);
    }

    /// Backend profiles scale product charges uniformly, so the *ordering*
    /// of candidate plans is preserved while absolute costs drop — and the
    /// profiled estimator and DP cost drop together.
    #[test]
    fn parallel_profile_lowers_costs_consistently() {
        let c = cat();
        let profile = BackendProfile::parallel(4);
        let e = trace(mul(m("A"), m("B")));
        let base = CostModel::new(&c).cost(&e).unwrap();
        let fast = CostModel::with_profile(&c, profile).cost(&e).unwrap();
        assert!(fast < base, "parallel profile must cheapen products: {fast} vs {base}");
        // Ranking is preserved: the rotated trace still wins under either.
        let cm = CostModel::with_profile(&c, profile);
        let ab = cm.cost(&trace(mul(m("A"), m("B")))).unwrap();
        let ba = cm.cost(&trace(mul(m("B"), m("A")))).unwrap();
        assert!(ba < ab);
        // The DP's cost function agrees with the estimator's scaling.
        let f = FlopsCost::with_profile(profile);
        let child = [ClassStats::dense(30, 4), ClassStats::dense(4, 30)];
        let out = op_stats(OpKind::Mul, 0, &child);
        let dp = f.op_cost(OpKind::Mul, 0, &child, out);
        let reference = FlopsCost::default().op_cost(OpKind::Mul, 0, &child, out);
        assert!(dp < reference);
    }
}
