//! Plan-cache soundness: cache-hit plans must be indistinguishable from
//! cold-path plans (same structure, bitwise-same costs) across a random
//! expression corpus, cross-name sharing must re-skin correctly, and a
//! plan is a function of its key: an update misses exactly the entries
//! whose leaves (type flags and exact nnz included) it changed.

mod common;

use std::sync::Arc;

use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog, TypeFlags};
use hadad_linalg::rng::Rng64;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    CastKind, HybridOptimizer, HybridPipeline, HybridResult, Optimizer, RankedPlans, RelQuery,
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

/// What a cold optimizer over `la_cat` ranks for `p`'s suffix, with the
/// cast catalogued as `run` saw it.
fn cold_suffix(la_cat: &MetaCatalog, p: &HybridPipeline, run: &HybridResult) -> RankedPlans {
    let mut cat = la_cat.clone();
    cat.register(p.cast_name.as_str(), run.cast_meta.clone());
    Optimizer::new(cat).rewrite(&p.suffix).expect("cold suffix")
}

/// A sparse cast of `events`' kind-3 rows into the 64×4 matrix `E`, then
/// `suffix`.
fn kind3_pipeline(suffix: hadad_core::Expr) -> HybridPipeline {
    HybridPipeline {
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
        suffix,
    }
}

/// 32 events, kinds cycling 0..4.
fn events_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(
        "events",
        Table::new(vec![
            ("eid", Column::Int((0..32).collect())),
            ("kind", Column::Int((0..32).map(|i| i % 4).collect())),
        ]),
    );
    catalog
}

/// Regression: the key holds each leaf's type flags. `(Qᵀ Q) x` over an
/// orthogonal `Q` collapses to `x`; the same skeleton over a plain `M`
/// must not be served that plan re-skinned to `y`.
#[test]
fn a_hit_keeps_the_type_flags_its_rules_fired_on() {
    let orthogonal = TypeFlags { orthogonal: true, ..TypeFlags::default() };
    let mut cat = MetaCatalog::new();
    cat.register("Q", MatrixMeta::dense(8, 8).with_flags(orthogonal));
    cat.register("M", MatrixMeta::dense(8, 8));
    cat.register("x", MatrixMeta::dense(8, 1));
    cat.register("y", MatrixMeta::dense(8, 1));
    let cold = Optimizer::new(cat.clone());
    let cached = Optimizer::new(cat).with_plan_cache(16);
    for e in [mul(mul(t(m("Q")), m("Q")), m("x")), mul(mul(t(m("M")), m("M")), m("y"))] {
        let want = cold.rewrite(&e).expect("cold");
        let first = cached.rewrite(&e).expect("first cached rewrite");
        assert_plans_identical(&want, &first, &format!("{e}, first call"));
        assert!(!first.report.cache.hit, "{e}: the flags key the two apart");
        let again = cached.rewrite(&e).expect("repeat");
        assert!(again.report.cache.hit, "{e}: repeat hits");
        assert_plans_identical(&want, &again, &format!("{e}, cache hit"));
    }
}

/// Regression: the key holds each leaf's exact nnz. One more non-zero in
/// `S` rounds to the same density in parts per million, yet prices `S·D`
/// differently; after re-registering `S`, the call must miss and rank as
/// a cold optimizer over the new catalog does.
#[test]
fn a_hit_keeps_the_exact_nnz_it_was_priced_on() {
    let mut cat = MetaCatalog::new();
    cat.register("S", MatrixMeta::sparse(4000, 1000, 2_000_000));
    cat.register("D", MatrixMeta::dense(1000, 8));
    let mut cached = Optimizer::new(cat).with_plan_cache(16);
    let e = mul(m("S"), m("D"));
    assert!(!cached.rewrite(&e).expect("prime").report.cache.hit);
    cached.cat.register("S", MatrixMeta::sparse(4000, 1000, 2_000_001));
    let want = Optimizer::new(cached.cat.clone()).rewrite(&e).expect("cold");
    let after = cached.rewrite(&e).expect("after the update");
    assert_plans_identical(&want, &after, "after the update");
    assert!(!after.report.cache.hit, "a changed nnz changes the key");
    let again = cached.rewrite(&e).expect("repeat");
    assert!(again.report.cache.hit);
    assert_plans_identical(&want, &again, "cache hit after the update");
}

/// The key holds the view part: `G := Eᵀ·E`'s estimated metadata stays
/// dense k×k when `E` doubles its rows, but the expansion `Eᵀ (E x)` of
/// `G·x` is priced on `E`, so the call after the update must rank as a
/// cold optimizer does, and so must the hit that follows it.
#[test]
fn a_hit_keeps_the_view_leaves_its_expansion_read() {
    let (n, k) = (64, 4);
    let view = || mul(t(m("E")), m("E"));
    let optimizer = |cat: MetaCatalog| {
        let mut opt = Optimizer::new(cat).with_plan_cache(16);
        opt.register_la_view("G", view()).expect("view certifies");
        opt
    };
    let mut cat = MetaCatalog::new();
    cat.register("E", MatrixMeta::dense(n, k));
    cat.register("x", MatrixMeta::dense(k, 1));
    let mut cached = optimizer(cat);
    let e = mul(m("G"), m("x"));
    assert!(!cached.rewrite(&e).expect("prime").report.cache.hit);
    cached.cat.register("E", MatrixMeta::dense(2 * n, k));
    let want = optimizer(cached.cat.clone()).rewrite(&e).expect("cold");
    assert!(
        want.plans.iter().any(|p| p.expr == mul(t(m("E")), mul(m("E"), m("x")))),
        "the cold pass ranks the expansion"
    );
    let after = cached.rewrite(&e).expect("after the update");
    assert_plans_identical(&want, &after, "after the update");
    assert!(!after.report.cache.hit, "a view's leaf is part of the key");
    let again = cached.rewrite(&e).expect("repeat");
    assert!(again.report.cache.hit);
    assert_plans_identical(&want, &again, "cache hit after the update");
}

/// A plan is a function of its key, across snapshots: after an update, a
/// newer snapshot hits the entry an older one primed exactly when the
/// leaves its plan reads are unchanged (`trace(A B)`), misses where the
/// cast `E` changed, and both snapshots then serve their own entries.
/// Every answer equals a cold optimizer's plans.
#[test]
fn a_snapshot_probe_hits_exactly_when_its_leaves_are_unchanged() {
    let mut la_cat = MetaCatalog::new();
    la_cat.register("A", MatrixMeta::dense(300, 6));
    la_cat.register("B", MatrixMeta::dense(6, 300));
    la_cat.register("w", MatrixMeta::dense(4, 1));
    let cold = Optimizer::new(la_cat.clone());
    let opt = Optimizer::new(la_cat.clone()).with_plan_cache(16);
    let mut hy = HybridOptimizer::new(events_catalog(), opt);
    let reader = hy.reader().expect("reader");
    let e = trace(mul(m("A"), m("B")));
    let p = kind3_pipeline(mul(mul(t(m("E")), m("E")), m("w")));
    let want = cold.rewrite(&e).expect("cold");

    let before = reader.current();
    assert!(!before.rewrite(&e).expect("prime").report.cache.hit);
    let primed = before.rewrite_hybrid(&p).expect("prime the cast's suffix");
    assert!(!primed.ranked.report.cache.hit);

    hy.catalog
        .insert_rows("events", vec![vec![Value::Int(35), Value::Int(3)]])
        .expect("insert");
    hy.maintain_views().expect("maintenance applies");
    let after = reader.current();
    assert!(after.epoch() > before.epoch(), "the insert publishes a newer epoch");
    let unchanged = after.rewrite(&e).expect("A and B are unchanged");
    assert!(unchanged.report.cache.hit, "an update that misses every leaf keeps the key");
    assert_plans_identical(&want, &unchanged, "trace(A B) after the update");

    let changed = after.rewrite_hybrid(&p).expect("E gained a non-zero");
    assert_eq!(changed.cast_meta.nnz, primed.cast_meta.nnz + 1);
    assert!(!changed.ranked.report.cache.hit, "a changed cast changes the key");
    assert_plans_identical(&cold_suffix(&la_cat, &p, &changed), &changed.ranked, "new E");
    for (snap, run, ctx) in [(&after, &changed, "newer snapshot"), (&before, &primed, "older")]
    {
        let hit = snap.rewrite_hybrid(&p).expect("repeat");
        assert!(hit.ranked.report.cache.hit, "{ctx}: serves its own entry");
        assert_eq!(hit.cast_meta, run.cast_meta, "{ctx}: reads its own cast");
        assert_plans_identical(&cold_suffix(&la_cat, &p, run), &hit.ranked, ctx);
    }
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

/// IVM soundness end to end: after `insert_rows` / `delete_rows` and
/// maintenance on a hybrid optimizer, a suffix that reads the cast `E`
/// misses (its nnz is part of the key), while `(A·B)·x`, which does not
/// read `E`, keeps hitting; every answer equals a cold optimizer's plans.
#[test]
fn hybrid_updates_invalidate_cached_plans() {
    let mut la_cat = MetaCatalog::new();
    la_cat.register("A", MatrixMeta::dense(200, 10));
    la_cat.register("B", MatrixMeta::dense(10, 200));
    la_cat.register("x", MatrixMeta::dense(200, 1));
    la_cat.register("w", MatrixMeta::dense(4, 1));
    let opt = Optimizer::new(la_cat.clone()).with_plan_cache(16);
    let mut hy = HybridOptimizer::new(events_catalog(), opt);
    hy.register_table_view("spikes", RelQuery::scan("events").select_eq("kind", 3))
        .expect("view materializes");
    let reads_e = kind3_pipeline(mul(mul(t(m("E")), m("E")), m("w")));
    let skips_e = kind3_pipeline(mul(mul(m("A"), m("B")), m("x")));
    // Each pipeline's run, checked against the cold path.
    let run = |hy: &HybridOptimizer, p: &HybridPipeline, ctx: &str| {
        let r = hy.rewrite_hybrid(p).expect(ctx);
        assert_plans_identical(&cold_suffix(&la_cat, p, &r), &r.ranked, ctx);
        (r.ranked.report.cache.hit, r.cast_meta.nnz)
    };

    let (hit, mut nnz) = run(&hy, &reads_e, "cold");
    assert!(!hit && !run(&hy, &skips_e, "cold (A·B)·x").0);
    assert!(run(&hy, &reads_e, "warm").0, "a repeat must hit");
    assert!(run(&hy, &skips_e, "warm (A·B)·x").0);

    // An insert that adds a non-zero to `E`, then a delete that takes two.
    let kind3 = |eid| vec![Value::Int(eid), Value::Int(3)];
    for (step, delta) in [("insert", 1), ("delete", -2)] {
        let applied = if delta > 0 {
            hy.catalog.insert_rows("events", vec![kind3(32)])
        } else {
            hy.catalog.delete_rows("events", vec![kind3(32), kind3(3)])
        };
        applied.expect("update applies");
        hy.maintain_views().expect("maintenance applies");
        let (hit, now) = run(&hy, &reads_e, step);
        assert_eq!(now as i64, nnz as i64 + delta, "{step}: E's nnz moves");
        assert!(!hit, "{step}: a suffix reading E must miss");
        assert!(run(&hy, &reads_e, step).0, "{step}: and hit on its repeat");
        assert!(run(&hy, &skips_e, step).0, "{step}: (A·B)·x does not read E and hits");
        nnz = now;
    }
}
