//! Cost of candidate plans (paper §7.1–§7.2): the extraction DP's adapter
//! over the **unified estimator** in `hadad_core::stats`, which owns every
//! formula, shape rule and the one recursion over expressions.
//!
//! [`FlopsCost`] is the extraction DP's [`ExtractionCost`], pricing each
//! class at the shape and density the chase's analysis holds for it (see
//! [`ExtractionCost`] for classes without a density) through
//! `op_cost`. Full expressions — the original and every extracted
//! candidate — are priced by `hadad_core::expr_estimate` itself, the
//! naïve metadata estimator of §7.2.1. Both price in reference flops: one
//! model on every host, whatever kernels later run the plan.
//!
//! The LA chase itself runs unpruned: `Prune_prov` (§7.3) lives in PACB's
//! backchase (`hadad_chase::pacb`), against a fixed threshold.

use hadad_core::{ClassStats, ExtractionCost, OpKind};

/// Stats-aware cost for the extraction DP: the shared per-operator charge
/// (sparsity-discounted flops plus materialization of the output's
/// estimated non-zeros), which reduces to dense flops on all-dense stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlopsCost;

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
        hadad_core::op_cost(kind, out_idx, child, &out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadad_core::expr::dsl::*;
    use hadad_core::{expr_estimate, Expr, MatrixMeta, MetaCatalog};

    fn cat() -> MetaCatalog {
        let mut c = MetaCatalog::new();
        c.register("A", MatrixMeta::dense(30, 4));
        c.register("B", MatrixMeta::dense(4, 30));
        c.register("S", MatrixMeta::sparse(1000, 1000, 5000));
        c
    }

    /// `expr_estimate`'s cost of `e`.
    fn cost(c: &MetaCatalog, e: &Expr) -> f64 {
        expr_estimate(e, c).unwrap().1
    }

    #[test]
    fn rotated_trace_is_cheaper() {
        let c = cat();
        let ab = cost(&c, &trace(mul(m("A"), m("B"))));
        let ba = cost(&c, &trace(mul(m("B"), m("A"))));
        assert!(ba < ab, "trace(BA)={ba} should beat trace(AB)={ab}");
    }

    #[test]
    fn right_deep_chain_is_cheaper() {
        let mut c = cat();
        c.register("x", MatrixMeta::dense(30, 1));
        let left = cost(&c, &mul(mul(m("A"), m("B")), m("x")));
        let right = cost(&c, &mul(m("A"), mul(m("B"), m("x"))));
        assert!(right < left);
    }

    #[test]
    fn sparsity_lowers_product_cost() {
        let sparse = cost(&cat(), &mul(m("S"), m("S")));
        let mut dense_cat = MetaCatalog::new();
        dense_cat.register("S", MatrixMeta::dense(1000, 1000));
        let dense = cost(&dense_cat, &mul(m("S"), m("S")));
        assert!(sparse < dense / 10.0, "sparse={sparse} dense={dense}");
    }

    #[test]
    fn subtraction_costs_like_addition() {
        let mut c = MetaCatalog::new();
        c.register("P", MatrixMeta::dense(8, 8));
        // Sub desugars to a + (-1 · b); the direct estimate must at least
        // cover the Add part and carry the union density.
        let (stats, cost) = expr_estimate(&sub(m("P"), m("P")), &c).unwrap();
        assert_eq!((stats.rows, stats.cols), (8, 8));
        assert_eq!(stats.density, 1.0);
        assert!(cost > 0.0);
    }

    #[test]
    fn shape_errors_surface() {
        let c = cat();
        assert!(expr_estimate(&add(m("A"), m("B")), &c).is_err());
        assert!(expr_estimate(&m("missing"), &c).is_err());
        assert!(expr_estimate(&trace(m("A")), &c).is_err());
    }

    #[test]
    fn flops_cost_orders_mul_shapes() {
        let f = FlopsCost;
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
}
