//! Plan-cache soundness: cache-hit plans must be indistinguishable from
//! cold-path plans (same structure, bitwise-same costs) across a random
//! expression corpus, cross-name sharing must re-skin correctly, and
//! catalog mutations must invalidate entries through the epoch stamp.

mod common;

use std::sync::Arc;

use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    CastKind, HybridOptimizer, HybridPipeline, Optimizer, RankedPlans, RelQuery,
};

/// Bitwise plan equality: same expressions in the same order, and the
/// estimated costs agree to the last bit (`to_bits`, not a tolerance).
fn assert_plans_identical(want: &RankedPlans, got: &RankedPlans, ctx: &str) {
    assert_eq!(want.original.expr, got.original.expr, "{ctx}: original expr");
    assert_eq!(
        want.original.est_cost.to_bits(),
        got.original.est_cost.to_bits(),
        "{ctx}: original cost"
    );
    assert_eq!(want.plans.len(), got.plans.len(), "{ctx}: plan count");
    for (i, (w, g)) in want.plans.iter().zip(got.plans.iter()).enumerate() {
        assert_eq!(w.expr, g.expr, "{ctx}: plan {i} expr");
        assert_eq!(
            w.est_cost.to_bits(),
            g.est_cost.to_bits(),
            "{ctx}: plan {i} cost ({} vs {})",
            w.est_cost,
            g.est_cost
        );
    }
}

/// The acceptance property: over a 120-expression corpus, every cache-hit
/// answer is bitwise identical (plan structure and cost) to what the
/// cold, cache-less optimizer computes for the same expression — both on
/// the first cached call (which may cross-name-hit an earlier entry) and
/// on the guaranteed same-key repeat.
#[test]
fn cache_hits_match_cold_path_over_corpus() {
    let cat = common::corpus_catalog();
    let cold = Optimizer::new(cat.clone());
    let cached = Optimizer::new(cat).with_plan_cache(512);
    let mut rng = Rng64::new(0x9E3779B9);
    let mut hits = 0usize;
    for i in 0..120 {
        let e = common::random_expr(&mut rng);
        let want = cold.rewrite(&e).expect("cold rewrite");
        let first = cached.rewrite(&e).expect("first cached rewrite");
        assert_plans_identical(&want, &first, &format!("expr {i} ({e}), first call"));
        let again = cached.rewrite(&e).expect("repeated cached rewrite");
        assert!(again.report.cache.hit, "expr {i} ({e}): repeat must hit the cache");
        hits += 1;
        assert_plans_identical(&want, &again, &format!("expr {i} ({e}), cache hit"));
    }
    assert_eq!(hits, 120, "every repeat must be served from the cache");
}

/// Cross-name sharing: a dimension-compatible repeat under *different*
/// base-matrix names hits the entry and is served re-skinned — the plans
/// read the probe's matrices, and match the cold path exactly.
#[test]
fn cross_name_repeat_hits_and_reskins() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(400, 8));
    cat.register("B", MatrixMeta::dense(8, 400));
    cat.register("C", MatrixMeta::dense(400, 8));
    cat.register("D", MatrixMeta::dense(8, 400));
    let cached = Optimizer::new(cat.clone()).with_plan_cache(16);

    let first = cached.rewrite(&trace(mul(m("A"), m("B")))).expect("first rewrite");
    assert!(!first.report.cache.hit, "fresh cache cannot hit");
    assert_eq!(first.best().expr.to_string(), "trace((B A))");

    let repeat = cached.rewrite(&trace(mul(m("C"), m("D")))).expect("cross-name rewrite");
    assert!(repeat.report.cache.hit, "same skeleton and bands must hit across names");
    assert_eq!(repeat.best().expr.to_string(), "trace((D C))");
    let want = Optimizer::new(cat).rewrite(&trace(mul(m("C"), m("D")))).expect("cold");
    assert_plans_identical(&want, &repeat, "cross-name hit");
}

/// A snapshot taken after a catalog mutation probes at a newer epoch and
/// refuses (and evicts) the entry an older snapshot primed: the stale
/// probe is a miss, and the re-primed entry serves at the new epoch only;
/// a probe from the older snapshot misses and leaves it in place.
#[test]
fn stale_epoch_probe_refuses_entry() {
    let mut catalog = Catalog::new();
    catalog.register("events", Table::new(vec![("eid", Column::Int(vec![0, 1]))]));
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(300, 6));
    cat.register("B", MatrixMeta::dense(6, 300));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(cat).with_plan_cache(16));
    let reader = hy.reader().expect("reader");
    let e = trace(mul(m("A"), m("B")));

    let before = reader.current();
    assert!(!before.rewrite(&e).expect("prime").report.cache.hit);
    assert!(before.rewrite(&e).expect("same epoch").report.cache.hit);

    hy.catalog.insert_rows("events", vec![vec![Value::Int(2)]]).expect("insert applies");
    hy.maintain_views().expect("maintenance applies");
    let after = reader.current();
    assert!(after.epoch() > before.epoch(), "the insert publishes a newer epoch");
    let refused = after.rewrite(&e).expect("stale probe");
    assert!(!refused.report.cache.hit, "a newer-epoch probe must refuse the entry");
    assert!(refused.report.cache.evictions >= 1, "the refusal evicts the stale entry");
    assert!(after.rewrite(&e).expect("re-primed").report.cache.hit);
    // The older snapshot is now the stale one.
    assert!(!before.rewrite(&e).expect("old epoch probe").report.cache.hit);
    assert!(after.rewrite(&e).expect("newer entry kept").report.cache.hit);
}

/// A served hit shares its entry, and no hit mutates it: cross-name hits
/// (re-skinned and re-priced) interleaved with same-name hits on one entry
/// leave every same-name answer bitwise equal to the cold path, two
/// same-name hits hand out the same plans and chase statistics, and two
/// prefix-memo hits on one snapshot the same phase, table and cast.
#[test]
fn served_hits_share_an_entry_no_hit_mutates() {
    let mut cat = MetaCatalog::new();
    for (a, b) in [("A", "B"), ("C", "D"), ("F", "G")] {
        cat.register(a, MatrixMeta::dense(400, 8));
        cat.register(b, MatrixMeta::dense(8, 400));
    }
    let cold = Optimizer::new(cat.clone());
    let cached = Optimizer::new(cat).with_plan_cache(16);
    let e = mul(mul(m("A"), m("B")), m("A"));
    let want = cold.rewrite(&e).expect("cold");
    let primed = cached.rewrite(&e).expect("prime");
    assert!(!primed.report.cache.hit);
    let mut last = cached.rewrite(&e).expect("first hit");
    for (i, (x, y)) in [("C", "D"), ("F", "G"), ("C", "D")].into_iter().enumerate() {
        let other = mul(mul(m(x), m(y)), m(x));
        let reskinned = cached.rewrite(&other).expect("cross-name hit");
        assert!(reskinned.report.cache.hit, "round {i}: cross-name repeat hits");
        let want_other = cold.rewrite(&other).expect("cold cross-name");
        assert_plans_identical(&want_other, &reskinned, &format!("round {i}: {other}"));
        let hit = cached.rewrite(&e).expect("same-name hit");
        assert!(hit.report.cache.hit);
        assert_plans_identical(&want, &hit, &format!("round {i}: same-name hit"));
        assert!(Arc::ptr_eq(&hit.plans, &last.plans), "round {i}: plans shared");
        assert!(Arc::ptr_eq(&hit.report.chase_stats, &last.report.chase_stats));
        last = hit;
    }
    assert!(Arc::ptr_eq(&last.plans, &primed.plans), "the entry holds the cold pass's plans");

    let mut catalog = Catalog::new();
    catalog.register(
        "events",
        Table::new(vec![
            ("eid", Column::Int((0..32).collect())),
            ("kind", Column::Int((0..32).map(|i| i % 4).collect())),
        ]),
    );
    let mut la_cat = MetaCatalog::new();
    la_cat.register("x", MatrixMeta::dense(4, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat).with_plan_cache(16));
    let snapshot = hy.reader().expect("reader").current();
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("events").select_eq("kind", 3),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "eid".into(),
            col: "kind".into(),
            val: "kind".into(),
            rows: 32,
            cols: 4,
        },
        cast_name: "E".into(),
        suffix: mul(m("E"), m("x")),
    };
    let miss = snapshot.rewrite_hybrid(&pipeline).expect("memo miss");
    let (a, b) = (
        snapshot.rewrite_hybrid(&pipeline).expect("memo hit"),
        snapshot.rewrite_hybrid(&pipeline).expect("memo hit again"),
    );
    assert!(!miss.rel.memo_hit && a.rel.memo_hit && b.rel.memo_hit);
    assert!(Arc::ptr_eq(&a.rel, &b.rel), "memo hits share the relational phase");
    assert!(Arc::ptr_eq(&a.table, &b.table) && Arc::ptr_eq(&a.cast, &b.cast));
    assert!(*a.table == *miss.table && *a.cast == *miss.cast, "hits answer as the miss did");
}

/// The cache is off by default: without `with_plan_cache`, repeats are
/// full rewrites with zeroed counters.
#[test]
fn cache_disabled_by_default() {
    let opt = Optimizer::new(common::corpus_catalog());
    let e = trace(mul(m("A"), m("B")));
    for _ in 0..2 {
        let r = opt.rewrite(&e).expect("rewrite");
        assert!(!r.report.cache.hit);
        assert_eq!((r.report.cache.hits, r.report.cache.misses), (0, 0));
    }
}

/// IVM soundness end to end: `insert_rows` / `delete_rows` on a hybrid
/// optimizer bump the catalog epoch, so the very next rewrite refuses the
/// cached plans (no stale hit between the update and the next cold pass)
/// and re-primes the cache at the maintained epoch.
#[test]
fn hybrid_updates_invalidate_cached_plans() {
    let events = Table::new(vec![
        ("eid", Column::Int((0..32).collect())),
        ("kind", Column::Int((0..32).map(|i| i % 4).collect())),
    ]);
    let mut catalog = Catalog::new();
    catalog.register("events", events);
    let mut la_cat = MetaCatalog::new();
    la_cat.register("A", MatrixMeta::dense(200, 10));
    la_cat.register("B", MatrixMeta::dense(10, 200));
    la_cat.register("x", MatrixMeta::dense(200, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat).with_plan_cache(16));
    hy.register_table_view("spikes", RelQuery::scan("events").select_eq("kind", 3))
        .expect("view materializes");
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("events").select_eq("kind", 3),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "eid".into(),
            col: "kind".into(),
            val: "kind".into(),
            rows: 64,
            cols: 4,
        },
        cast_name: "E".into(),
        suffix: mul(mul(m("A"), m("B")), m("x")),
    };

    let cold = hy.rewrite_hybrid(&pipeline).expect("cold");
    assert!(!cold.ranked.report.cache.hit);
    let warm = hy.rewrite_hybrid(&pipeline).expect("warm");
    assert!(warm.ranked.report.cache.hit, "same-epoch repeat must hit");
    assert_eq!(warm.best.expr, cold.best.expr);

    // Insert and maintain: the epoch moves, the entry must be refused.
    hy.catalog
        .insert_rows("events", vec![vec![Value::Int(32), Value::Int(3)]])
        .expect("insert applies");
    hy.maintain_views().expect("maintenance applies");
    let after_insert = hy.rewrite_hybrid(&pipeline).expect("post-insert");
    assert!(!after_insert.ranked.report.cache.hit, "insert_rows must invalidate cached plans");
    assert!(hy.rewrite_hybrid(&pipeline).expect("re-primed").ranked.report.cache.hit);

    // Deletes invalidate the re-primed entry the same way.
    hy.catalog
        .delete_rows("events", vec![vec![Value::Int(32), Value::Int(3)]])
        .expect("delete applies");
    hy.maintain_views().expect("maintenance applies");
    let after_delete = hy.rewrite_hybrid(&pipeline).expect("post-delete");
    assert!(!after_delete.ranked.report.cache.hit, "delete_rows must invalidate cached plans");
    assert!(hy.rewrite_hybrid(&pipeline).expect("re-primed again").ranked.report.cache.hit);
}
