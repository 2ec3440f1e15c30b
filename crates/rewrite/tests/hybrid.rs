//! End-to-end hybrid pipelines (paper §9.2): relational preprocessing
//! rewritten by PACB onto materialized table views, cast into LA, and the
//! LA suffix rewritten onto registered LA views — both halves ranked
//! cheaper than the originals and verified by execution.

use hadad_chase::DegradeReason;
use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_linalg::{approx_eq, rand_gen, Matrix};
use hadad_relational::ivm::table_fingerprint;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::hybrid::{eval_cq, TableVocab};
use hadad_rewrite::{
    eval, CastKind, Env, HybridError, HybridOptimizer, HybridPipeline, MaintainedCast,
    Optimizer, RelQuery, RewriteError,
};

const NUM_TWEETS: usize = 500;
const NUM_TOPICS: usize = 20;
const COVID_TOPIC: i64 = 7;

/// Synthetic tweets(tid, topic, level): topic cycles over NUM_TOPICS,
/// level over 1..=5.
fn tweets() -> Table {
    let n = NUM_TWEETS as i64;
    Table::new(vec![
        ("tid", Column::Int((0..n).collect())),
        ("topic", Column::Int((0..n).map(|i| i % NUM_TOPICS as i64).collect())),
        ("level", Column::Int((0..n).map(|i| i % 5 + 1).collect())),
    ])
}

/// The paper's §9.2 shape, tweet flavour:
///
/// * relational prefix: filter tweets to one topic — PACB rewrites the scan
///   onto the materialized `covid_tweets` view (25x fewer rows);
/// * cast: the (tid, topic, level) triples become the ultra-sparse
///   filter-level matrix `N`;
/// * LA suffix: `Nᵀ w` — the chase rewrites `Nᵀ` onto the registered,
///   materialized view `NT`, so the winning plan reads a zero-cost leaf.
#[test]
fn tweet_pipeline_rewrites_both_halves_and_verifies() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());

    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));

    // Materialized table view: tweets pre-filtered to the covid topic.
    hy.register_table_view(
        "covid_tweets",
        RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
    )
    .unwrap();
    // Materialized LA view: the transposed filter-level matrix.
    hy.register_la_view("NT", t(m("N"))).unwrap();

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: "N".into(),
        suffix: mul(t(m("N")), m("w")),
    };

    let mut env = Env::new();
    env.bind("w", Matrix::Dense(rand_gen::random_dense(NUM_TWEETS, 1, 99)));

    let r = hy.rewrite_hybrid_verified(&pipeline, &env, 1e-9).unwrap();

    // Relational half: the prefix was rewritten onto the materialized view
    // and ranked strictly cheaper (25 rows vs 500).
    let rw = r.rel.rewriting.as_ref().expect("prefix rewritten onto the view");
    assert_eq!(r.rel.cost_original, NUM_TWEETS as f64);
    assert_eq!(r.rel.cost_best, Some((NUM_TWEETS / NUM_TOPICS) as f64));
    assert!(r.rel.cost_best.unwrap() < r.rel.cost_original);
    assert_eq!(r.rel.rows_out, NUM_TWEETS / NUM_TOPICS);
    // The rewriting preserves the selection constant in its head.
    assert!(rw.head.iter().any(|t| t.as_const().is_some()));

    // LA half: the winning plan reads the materialized `NT` leaf and is
    // ranked strictly cheaper than the original transpose-then-multiply.
    assert_eq!(r.best.expr.to_string(), "(NT w)");
    assert!(r.best.est_cost < r.ranked.original.est_cost);

    // Both halves verified by execution.
    assert_eq!(r.verified, Some(true));

    // Cross-check against a from-scratch evaluation of the original
    // pipeline: filter → cast → Nᵀ w.
    let direct_table = pipeline.prefix.execute(&hy.catalog).unwrap();
    let direct_n = match &pipeline.cast {
        CastKind::Sparse { row, col, val, rows, cols } => {
            hadad_relational::cast::table_to_sparse(&direct_table, row, col, val, *rows, *cols)
        }
        _ => unreachable!(),
    };
    let mut check_env = env.clone();
    check_env.bind("N", direct_n.clone());
    check_env.bind("NT", direct_n.transpose());
    let reference = eval(&pipeline.suffix, &check_env).unwrap();
    let best_val = eval(&r.best.expr, &check_env).unwrap();
    assert!(approx_eq(&reference, &best_val, 1e-9));

    // The result returns the matrix it cast (the verified path lends it to
    // the check and takes it back): a caller binds it, it does not re-cast.
    assert_eq!(*r.cast, direct_n);
    assert_eq!(MatrixMeta::from_matrix(&r.cast), r.cast_meta);
}

/// Only `CatalogSnapshot::rewrite_hybrid` reads the snapshot's prefix memo.
/// The live path recomputes the prefix every call (it has no snapshot),
/// and the verified snapshot path recomputes it even after a hit, so the
/// rewriting it checks is one it ran.
#[test]
fn live_and_verified_paths_never_read_the_prefix_memo() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    hy.register_table_view(
        "covid_tweets",
        RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
    )
    .unwrap();
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: "N".into(),
        suffix: mul(t(m("N")), m("w")),
    };
    let mut env = Env::new();
    env.bind("w", Matrix::Dense(rand_gen::random_dense(NUM_TWEETS, 1, 99)));

    for _ in 0..2 {
        let r = hy.rewrite_hybrid(&pipeline).unwrap();
        assert!(!r.rel.memo_hit, "the live path never memoizes");
        assert!(r.rel.pacb_us > 0);
    }

    let snap = hy.reader().unwrap().current();
    let first = snap.rewrite_hybrid(&pipeline).unwrap();
    assert!(!first.rel.memo_hit);
    let hit = snap.rewrite_hybrid(&pipeline).unwrap();
    assert!(hit.rel.memo_hit);
    assert_eq!((hit.rel.pacb_us, hit.rel.exec_us, hit.cast_us), (0, 0, 0));
    assert_eq!(hit.cast, first.cast);

    let verified = snap.rewrite_hybrid_verified(&pipeline, &env, 1e-9).unwrap();
    assert!(!verified.rel.memo_hit, "verification re-executes the prefix");
    assert!(verified.rel.pacb_us > 0);
    assert!(verified.rel.rewriting.is_some());
    assert_eq!(verified.verified, Some(true));
    assert_eq!(verified.cast, first.cast);
}

/// The sparse-cast path must catalogue the cast matrix under its *real*
/// ultra-sparse density — dense-default metadata would mislead the cost
/// oracle (the suffix encoder turns this metadata into the densities the
/// chase's analysis carries and the extraction DP reads).
#[test]
fn sparse_cast_records_real_density_for_the_oracle() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: "N".into(),
        suffix: mul(t(m("N")), m("w")),
    };
    let r = hy.rewrite_hybrid(&pipeline).unwrap();

    // 25 surviving tuples in a 500x20 matrix: density 0.25%.
    let expected_nnz = NUM_TWEETS / NUM_TOPICS;
    assert_eq!(r.cast_meta.nnz, expected_nnz);
    assert_eq!((r.cast_meta.rows, r.cast_meta.cols), (NUM_TWEETS, NUM_TOPICS));
    let true_density = expected_nnz as f64 / (NUM_TWEETS * NUM_TOPICS) as f64;
    assert!((r.cast_meta.density() - true_density).abs() < 1e-12);
    assert!(r.cast_meta.density() <= 0.05, "cast metadata defaulted to dense");
    // The whole meta comes from the materialization, not a dense default.
    assert_eq!(r.cast_meta, MatrixMeta::sparse(NUM_TWEETS, NUM_TOPICS, expected_nnz));
    assert_eq!(MatrixMeta::from_matrix(&r.cast), r.cast_meta, "the unverified path too");

    // The suffix's cost estimate is sparsity-aware: pricing the same plan
    // against dense-default metadata is orders of magnitude higher.
    let mut dense_cat = MetaCatalog::new();
    dense_cat.register("N", MatrixMeta::dense(NUM_TWEETS, NUM_TOPICS));
    dense_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let (_, dense_cost) = hadad_core::expr_estimate(&pipeline.suffix, &dense_cat).unwrap();
    assert!(
        r.ranked.original.est_cost < dense_cost / 10.0,
        "oracle priced the sparse cast as dense: {} vs {}",
        r.ranked.original.est_cost,
        dense_cost
    );
}

/// A join-shaped prefix (MIMIC flavour): patients ⋈ admissions, filtered to
/// one service, rewritten onto a pre-joined materialized view; the dense
/// cast feeds a gram-matrix suffix rewritten onto a registered LA view.
#[test]
fn join_pipeline_lands_on_prejoined_view_and_gram_view() {
    let n_pat = 120i64;
    let mut catalog = Catalog::new();
    catalog.register(
        "patients",
        Table::new(vec![
            ("pid", Column::Int((0..n_pat).collect())),
            ("age", Column::Int((0..n_pat).map(|i| 20 + i % 60).collect())),
        ]),
    );
    catalog.register(
        "admissions",
        Table::new(vec![
            ("aid", Column::Int((0..n_pat).collect())),
            ("pid", Column::Int((0..n_pat).collect())),
            ("service", Column::Int((0..n_pat).map(|i| i % 4).collect())),
            ("los", Column::Int((0..n_pat).map(|i| 1 + i % 9).collect())),
        ]),
    );

    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    // Pre-joined, pre-filtered materialized view (30 rows vs 240 scanned).
    let def =
        RelQuery::scan("patients").join("admissions", "pid", "pid").select_eq("service", 2);
    hy.register_table_view("cardio", def).unwrap();
    hy.register_la_view("G", mul(t(m("X")), m("X"))).unwrap();

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("patients")
            .join("admissions", "pid", "pid")
            .select_eq("service", 2)
            .project(&["pid", "age", "los"]),
        sort_key: Some("pid".into()),
        cast: CastKind::Dense { columns: vec!["age".into(), "los".into()] },
        cast_name: "X".into(),
        suffix: mul(t(m("X")), m("X")),
    };

    let r = hy.rewrite_hybrid_verified(&pipeline, &Env::new(), 1e-9).unwrap();

    assert!(r.rel.rewriting.is_some(), "join prefix should land on the pre-joined view");
    assert_eq!(r.rel.cost_original, 240.0);
    assert_eq!(r.rel.cost_best, Some(30.0));
    assert_eq!(r.rel.rows_out, 30);
    assert_eq!(r.table.column_names(), &["pid", "age", "los"].map(String::from));

    // The gram matrix lands on the materialized view leaf.
    assert_eq!(r.best.expr.to_string(), "G");
    assert!(r.best.est_cost < r.ranked.original.est_cost);
    assert_eq!(r.verified, Some(true));
}

/// End-to-end maintenance: update `tweets` under the covid-view pipeline,
/// delta-maintain, and re-verify the whole hybrid rewrite. The rewritten
/// prefix must read the *maintained* view and cast the post-update matrix;
/// costs and cardinalities must track the new state.
#[test]
fn updates_delta_maintain_the_view_and_reverify_the_pipeline() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    hy.register_table_view(
        "covid_tweets",
        RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
    )
    .unwrap();
    hy.register_la_view("NT", t(m("N"))).unwrap();

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: "N".into(),
        suffix: mul(t(m("N")), m("w")),
    };
    let mut env = Env::new();
    env.bind("w", Matrix::Dense(rand_gen::random_dense(NUM_TWEETS, 1, 99)));

    let before = hy.rewrite_hybrid_verified(&pipeline, &env, 1e-9).unwrap();
    let base_rows = NUM_TWEETS / NUM_TOPICS;
    assert_eq!(before.rel.rows_out, base_rows);

    // Three new covid tweets, one non-covid, and one covid tweet deleted.
    // (tid 7 is the first covid row: 7 % 20 == 7.)
    hy.catalog
        .insert_rows(
            "tweets",
            vec![
                vec![Value::Int(600), Value::Int(COVID_TOPIC), Value::Int(2)],
                vec![Value::Int(601), Value::Int(COVID_TOPIC), Value::Int(4)],
                vec![Value::Int(602), Value::Int(COVID_TOPIC), Value::Int(1)],
                vec![Value::Int(603), Value::Int(9), Value::Int(5)],
            ],
        )
        .unwrap();
    let report = hy.maintain_views().unwrap();
    assert_eq!(report.changes.len(), 1, "only the covid view changes");
    assert_eq!(report.changes[0].rows_inserted, 3);
    hy.catalog
        .delete_rows(
            "tweets",
            vec![vec![Value::Int(7), Value::Int(COVID_TOPIC), Value::Int(3)]],
        )
        .unwrap();
    hy.maintain_views().unwrap();

    // The maintained view matches a from-scratch materialization...
    let expected_rows = base_rows + 3 - 1;
    assert_eq!(hy.catalog.cardinality("covid_tweets"), Some(expected_rows));
    // ...and Prune_prov prices the post-update instance from it.
    let after = hy.rewrite_hybrid_verified(&pipeline, &env, 1e-9).unwrap();
    assert!(after.rel.rewriting.is_some());
    assert_eq!(after.rel.cost_original, (NUM_TWEETS + 3) as f64);
    assert_eq!(after.rel.cost_best, Some(expected_rows as f64));
    assert_eq!(after.rel.rows_out, expected_rows);
    assert_eq!(after.verified, Some(true));
    // The cast matrix reflects the update (tid 600..=602 are in range only
    // if rows covers them — they are not, so nnz tracks surviving tids).
    let from_scratch = pipeline.prefix.execute(&hy.catalog).unwrap();
    assert_eq!(from_scratch.num_rows(), expected_rows);
    let scratch_cast = hadad_relational::cast::table_to_sparse(
        &from_scratch,
        "tid",
        "topic",
        "level",
        NUM_TWEETS,
        NUM_TOPICS,
    );
    assert_eq!(after.cast_meta.nnz, scratch_cast.nnz());
}

/// Rewriting against a catalog with unmaintained updates is refused — a
/// stale materialization must never silently back a rewriting.
#[test]
fn pending_updates_make_rewrites_fail_until_maintained() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    hy.register_table_view(
        "covid_tweets",
        RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
    )
    .unwrap();

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: "N".into(),
        suffix: mul(t(m("N")), m("w")),
    };

    // Mutate through the raw catalog handle: logged but not maintained.
    hy.catalog
        .insert_rows(
            "tweets",
            vec![vec![Value::Int(700), Value::Int(COVID_TOPIC), Value::Int(1)]],
        )
        .unwrap();
    let err = hy.rewrite_hybrid(&pipeline).unwrap_err();
    assert!(
        matches!(err, HybridError::StaleViews(ref vs) if vs == &["covid_tweets".to_string()])
    );

    // Maintenance clears the staleness and the rewrite sees the new row.
    hy.maintain_views().unwrap();
    let r = hy.rewrite_hybrid(&pipeline).unwrap();
    assert_eq!(r.rel.rows_out, NUM_TWEETS / NUM_TOPICS + 1);
}

/// Maintained casts re-stamp the LA catalog's matrix metadata after each
/// update, and the re-stamped meta equals a from-scratch cast exactly.
#[test]
fn maintained_cast_restamps_meta_to_match_scratch_materialization() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    hy.register_table_view(
        "covid_tweets",
        RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
    )
    .unwrap();
    let cast = CastKind::Sparse {
        row: "tid".into(),
        col: "topic".into(),
        val: "level".into(),
        rows: NUM_TWEETS,
        cols: NUM_TOPICS,
    };
    hy.register_maintained_cast(MaintainedCast {
        cast_name: "N".into(),
        view: "covid_tweets".into(),
        sort_key: None,
        cast: cast.clone(),
    })
    .unwrap();
    let nnz0 = hy.optimizer.cat.get("N").unwrap().nnz;
    assert_eq!(nnz0, NUM_TWEETS / NUM_TOPICS);

    hy.catalog
        .insert_rows(
            "tweets",
            vec![
                vec![Value::Int(50), Value::Int(COVID_TOPIC), Value::Int(2)],
                vec![Value::Int(51), Value::Int(COVID_TOPIC), Value::Int(3)],
            ],
        )
        .unwrap();
    hy.maintain_views().unwrap();

    let meta = hy.optimizer.cat.get("N").unwrap().clone();
    let scratch = hadad_relational::cast::table_to_sparse(
        &RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC).execute(&hy.catalog).unwrap(),
        "tid",
        "topic",
        "level",
        NUM_TWEETS,
        NUM_TOPICS,
    );
    let scratch_meta = MatrixMeta::from_matrix(&scratch);
    assert_eq!(meta.nnz, scratch_meta.nnz);
    assert_eq!((meta.rows, meta.cols), (scratch_meta.rows, scratch_meta.cols));
    assert_eq!(meta.density(), scratch_meta.density());
    assert_eq!(meta, scratch_meta);

    // A dense maintained cast with a sort key over rows that arrive out of
    // key order (tid 50 and 51 were appended after tid 487; the zero level
    // makes the nnz data-dependent): stamping casts in table order, and the
    // stamped meta still equals that of the *sorted* fresh cast — shape and
    // nnz are invariant under row permutation.
    let dense = |sort_key: &str| MaintainedCast {
        cast_name: "X".into(),
        view: "covid_tweets".into(),
        sort_key: Some(sort_key.into()),
        cast: CastKind::Dense { columns: vec!["tid".into(), "level".into()] },
    };
    hy.register_maintained_cast(dense("tid")).unwrap();
    hy.catalog
        .insert_rows(
            "tweets",
            vec![vec![Value::Int(3), Value::Int(COVID_TOPIC), Value::Int(0)]],
        )
        .unwrap();
    hy.maintain_views().unwrap();
    let view = hy.catalog.get("covid_tweets").unwrap();
    let tids: Vec<i64> =
        (0..view.num_rows()).map(|r| view.value(r, "tid").as_i64().unwrap()).collect();
    assert!(tids.windows(2).any(|w| w[0] > w[1]), "view rows must be out of key order");
    let sorted = hadad_relational::ops::sort_by_int(view, "tid").unwrap();
    let sorted_cast = hadad_relational::cast::table_to_matrix(&sorted, &["tid", "level"]);
    assert_eq!(hy.optimizer.cat.get("X").unwrap(), &MatrixMeta::from_matrix(&sorted_cast));

    // The sort key is still validated: a cast naming a missing one is
    // refused with the typed error, and nothing is stamped.
    let mut bad = dense("nope");
    bad.cast_name = "Y".into();
    let err = hy.register_maintained_cast(bad).unwrap_err();
    assert!(matches!(err, HybridError::MissingColumn(ref c) if c == "nope"), "{err:?}");
    assert!(hy.optimizer.cat.get("Y").is_none());
}

/// A maintained cast can read a *base table* directly; pending updates on
/// that table must block rewrites just as stale views do — the stamped
/// matrix metadata no longer matches the table.
#[test]
fn stale_maintained_cast_over_base_table_blocks_rewrites() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    let cast = CastKind::Sparse {
        row: "tid".into(),
        col: "topic".into(),
        val: "level".into(),
        rows: NUM_TWEETS + 10,
        cols: NUM_TOPICS,
    };
    hy.register_maintained_cast(MaintainedCast {
        cast_name: "N".into(),
        view: "tweets".into(),
        sort_key: None,
        cast: cast.clone(),
    })
    .unwrap();
    assert_eq!(hy.optimizer.cat.get("N").unwrap().nnz, NUM_TWEETS);

    hy.catalog
        .insert_rows(
            "tweets",
            vec![vec![Value::Int(NUM_TWEETS as i64), Value::Int(3), Value::Int(1)]],
        )
        .unwrap();
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast,
        cast_name: "M".into(),
        suffix: m("M"),
    };
    let err = hy.rewrite_hybrid(&pipeline).unwrap_err();
    assert!(matches!(err, HybridError::StaleViews(ref vs) if vs == &["cast N".to_string()]));

    // Maintenance re-stamps the cast and clears the staleness.
    hy.maintain_views().unwrap();
    assert_eq!(hy.optimizer.cat.get("N").unwrap().nnz, NUM_TWEETS + 1);
    assert!(hy.rewrite_hybrid(&pipeline).is_ok());
}

/// A maintained cast's name must be fresh in the LA catalog: re-stamping
/// over an existing input matrix (or another cast) would silently repoint
/// every plan reading that name at the cast's metadata.
#[test]
fn duplicate_cast_names_are_rejected() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    let mk = |name: &str| MaintainedCast {
        cast_name: name.into(),
        view: "tweets".into(),
        sort_key: None,
        cast: CastKind::Dense { columns: vec!["level".into()] },
    };
    // Clobbering an existing LA input matrix is refused...
    let err = hy.register_maintained_cast(mk("w")).unwrap_err();
    assert!(matches!(err, HybridError::DuplicateName(ref n) if n == "w"));
    assert_eq!(hy.optimizer.cat.get("w").unwrap().cols, 1, "input metadata untouched");
    // ...and so is registering the same cast twice.
    hy.register_maintained_cast(mk("N")).unwrap();
    let err = hy.register_maintained_cast(mk("N")).unwrap_err();
    assert!(matches!(err, HybridError::DuplicateName(ref n) if n == "N"));
    assert_eq!(hy.maintained_casts().len(), 1);
}

/// A table replaced under a maintained cast by one lacking the cast's
/// column fails the rebuild `register_table` runs with `MissingColumn`,
/// and the failure poisons the maintainer instead of leaving the cast's
/// old metadata looking current. Registering the original table back
/// rebuilds and recovers.
#[test]
fn failed_restamp_poisons_instead_of_clearing_staleness() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    hy.register_maintained_cast(MaintainedCast {
        cast_name: "N".into(),
        view: "tweets".into(),
        sort_key: None,
        cast: CastKind::Dense { columns: vec!["level".into()] },
    })
    .unwrap();

    let broken = || Table::new(vec![("other", Column::Int(vec![1]))]);
    let err = hy.register_table("tweets", broken()).unwrap_err();
    assert!(matches!(err, HybridError::MissingColumn(ref c) if c == "level"), "{err:?}");

    // The cast stays stale (poisoned): maintenance refuses, even after a
    // logged write, and runs degrade to the (current) base table.
    hy.catalog.insert_rows("tweets", vec![vec![Value::Int(2)]]).unwrap();
    assert!(matches!(hy.maintain_views(), Err(HybridError::MaintenancePoisoned)));
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets"),
        sort_key: None,
        cast: CastKind::Dense { columns: vec!["other".into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    };
    let r = hy.rewrite_hybrid(&pipeline).unwrap();
    assert_eq!(r.degraded.as_ref().map(|d| d.reason), Some(DegradeReason::MaintenancePoisoned));
    assert_eq!(r.rel.rows_out, 2);

    // A rebuild fails while the source stays broken, and keeps the poison.
    assert!(hy.rebuild_views().is_err());
    assert!(hy.rewrite_hybrid(&pipeline).unwrap().degraded.is_some());
    // Registering the original back rebuilds: the cast is stamped from
    // the restored table and maintenance works again.
    hy.register_table("tweets", tweets()).unwrap();
    assert_eq!(hy.optimizer.cat.get("N").unwrap().rows, NUM_TWEETS);
    hy.catalog
        .insert_rows("tweets", vec![vec![Value::Int(900), Value::Int(1), Value::Int(1)]])
        .unwrap();
    hy.maintain_views().unwrap();
    assert_eq!(hy.optimizer.cat.get("N").unwrap().rows, NUM_TWEETS + 1);
    // (This pipeline casts the broken table's column, which is gone again.)
    assert!(matches!(hy.rewrite_hybrid(&pipeline), Err(HybridError::MissingColumn(_))));
}

/// Registering a view under a taken name is refused, not a silent shadow.
#[test]
fn duplicate_view_names_are_rejected() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    hy.register_table_view("v", RelQuery::scan("tweets").select_eq("topic", 1)).unwrap();
    // Same name again — and a base-table name — both refused.
    let err = hy.register_table_view("v", RelQuery::scan("tweets")).unwrap_err();
    assert!(matches!(err, HybridError::DuplicateName(ref n) if n == "v"));
    let err = hy.register_table_view("tweets", RelQuery::scan("tweets")).unwrap_err();
    assert!(matches!(err, HybridError::DuplicateName(ref n) if n == "tweets"));
    // The original view is intact.
    assert_eq!(hy.catalog.cardinality("v"), Some(NUM_TWEETS / NUM_TOPICS));
    assert_eq!(hy.table_views().len(), 1);
}

/// An LA view's name must be fresh: a second definition under a view's
/// name, a view named after a catalogued matrix, or a maintained cast named
/// after a view would let the chase's `name-unique` EGD merge two different
/// matrices, and rewrites would trade one for the other.
#[test]
fn taken_la_view_names_are_rejected() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    for name in ["A", "B", "C"] {
        la_cat.register(name, MatrixMeta::dense(6, 6));
    }
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    hy.register_la_view("V", mul(m("B"), m("C"))).unwrap();
    let taken = |err: HybridError, name: &str| match err {
        HybridError::Rewrite(RewriteError::DuplicateName(n))
        | HybridError::DuplicateName(n) => n == name,
        _ => false,
    };
    // A second definition under the view's name...
    let err = hy.register_la_view("V", mul(m("C"), m("B"))).unwrap_err();
    assert!(taken(err, "V"));
    // ...a view named after a base matrix...
    let err = hy.register_la_view("A", mul(m("B"), m("C"))).unwrap_err();
    assert!(taken(err, "A"));
    // ...and a cast named after the view are all refused.
    let cast = MaintainedCast {
        cast_name: "V".into(),
        view: "tweets".into(),
        sort_key: None,
        cast: CastKind::Dense { columns: vec!["level".into()] },
    };
    let err = hy.register_maintained_cast(cast).unwrap_err();
    assert!(taken(err, "V"));
    assert!(hy.optimizer.has_la_view("V") && !hy.optimizer.has_la_view("A"));
    assert!(hy.maintained_casts().is_empty());

    // B·C lands on its view, and on nothing the refused names would equate.
    let ranked = hy.optimizer.rewrite(&mul(m("B"), m("C"))).unwrap();
    assert_eq!(ranked.best().expr, m("V"));
    for plan in ranked.plans.iter() {
        assert!(plan.expr != mul(m("C"), m("B")) && plan.expr != m("A"), "{}", plan.expr);
    }
}

/// A pipeline that casts its prefix under an LA view's name is refused on
/// the live, verified and snapshot paths: the view's `name-unique` merge
/// would equate the cast with the view's definition, and `V + A·B` would
/// "rewrite" to `V + V`.
#[test]
fn a_cast_named_like_an_la_view_is_refused() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let rows = NUM_TWEETS / NUM_TOPICS;
    let mut la_cat = MetaCatalog::new();
    la_cat.register("A", MatrixMeta::dense(rows, 4));
    la_cat.register("B", MatrixMeta::dense(4, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    hy.register_la_view("V", mul(m("A"), m("B"))).unwrap();

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: Some("tid".into()),
        cast: CastKind::Dense { columns: vec!["level".into()] },
        cast_name: "V".into(),
        suffix: add(m("V"), mul(m("A"), m("B"))),
    };
    let mut env = Env::new();
    env.bind("A", Matrix::Dense(rand_gen::random_dense(rows, 4, 3)));
    env.bind("B", Matrix::Dense(rand_gen::random_dense(4, 1, 4)));

    let refused =
        |r: Result<_, HybridError>| matches!(r, Err(HybridError::DuplicateName(n)) if n == "V");
    assert!(refused(hy.rewrite_hybrid(&pipeline)));
    assert!(refused(hy.rewrite_hybrid_verified(&pipeline, &env, 1e-9)));
    let reader = hy.reader().unwrap();
    assert!(refused(reader.current().rewrite_hybrid(&pipeline)));
}

/// An LA view over one pipeline's cast is left out of every other
/// pipeline's call, which rewrites as if the view were not registered;
/// the pipeline that casts its leaf still lands on it.
#[test]
fn a_view_over_another_pipelines_cast_leaves_this_pipeline_alone() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));
    // No placeholder entry for `N`: only the pipeline casting it catalogues it.
    hy.register_la_view("NT", t(m("N"))).unwrap();

    let pipeline = |cast_name: &str| HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: cast_name.into(),
        suffix: mul(t(m(cast_name)), m("w")),
    };
    let mut env = Env::new();
    env.bind("w", Matrix::Dense(rand_gen::random_dense(NUM_TWEETS, 1, 6)));

    let other = pipeline("M");
    let r = hy.rewrite_hybrid(&other).expect("the view over N is left out");
    assert!(r.ranked.report.degraded.is_none());
    assert!(r.ranked.plans.iter().all(|p| !p.expr.to_string().contains("NT")));
    let r = hy.rewrite_hybrid_verified(&other, &env, 1e-9).expect("and N is not bound");
    assert_eq!(r.verified, Some(true));

    let own = hy.rewrite_hybrid(&pipeline("N")).unwrap();
    assert_eq!(own.best.expr, mul(m("NT"), m("w")));
}

/// Without a matching materialized view the prefix falls back to the
/// operator pipeline, and the LA suffix still rewrites normally.
#[test]
fn pipeline_without_views_falls_back_cleanly() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut la_cat = MetaCatalog::new();
    la_cat.register("w", MatrixMeta::dense(NUM_TWEETS, 1));
    let hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat));

    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
        cast_name: "N".into(),
        suffix: mul(t(m("N")), m("w")),
    };
    let mut env = Env::new();
    env.bind("w", Matrix::Dense(rand_gen::random_dense(NUM_TWEETS, 1, 5)));

    let r = hy.rewrite_hybrid_verified(&pipeline, &env, 1e-9).unwrap();
    assert!(r.rel.rewriting.is_none());
    assert_eq!(r.rel.rows_out, NUM_TWEETS / NUM_TOPICS);
    assert_eq!(r.verified, Some(true));
    // The suffix still evaluates and verifies (no LA view: the original
    // shape survives as the best verified plan).
    assert!(r.best.est_cost <= r.ranked.original.est_cost);
}

/// A rewriting is the same relation whatever the join key's type. With
/// views `v = σ_{c=1}(l)` and `rv = r`, the prefix `σ_{c=1}(l) ⋈_k r` is
/// rewritten to `v ⋈_k rv`; on a fractional-`Float` or a `Str` key the
/// operator pipeline used to join nothing (its keys were integers only)
/// while the rewriting's shared variable joined every equal pair.
#[test]
fn float_and_string_join_keys_rewrite_to_the_same_bag() {
    let strs = |v: &[&str]| Column::Str(v.iter().map(|s| (*s).to_owned()).collect());
    let keyed = [
        (
            Column::Float(vec![2.5, 2.5, 0.5, 7.5, f64::NAN, -1.25]),
            Column::Float(vec![2.5, f64::NAN, 7.5, 2.5, 9.75]),
            6,
        ),
        (strs(&["x", "7", "", "x", "y", "7"]), strs(&["7", "x", "z", "7.0", ""]), 3),
    ];
    for (left_keys, right_keys, joined) in keyed {
        let mut catalog = Catalog::new();
        catalog.register(
            "l",
            Table::new(vec![
                ("k", left_keys),
                ("c", Column::Int(vec![1, 1, 0, 1, 1, 0])),
                ("a", Column::Int((0..6).collect())),
            ]),
        );
        catalog.register(
            "r",
            Table::new(vec![("k", right_keys), ("b", Column::Int((10..15).collect()))]),
        );
        let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
        hy.register_table_view("v", RelQuery::scan("l").select_eq("c", 1)).unwrap();
        hy.register_table_view("rv", RelQuery::scan("r")).unwrap();

        let prefix = RelQuery::scan("l").select_eq("c", 1).join("r", "k", "k");
        let direct = prefix.execute(&hy.catalog).unwrap();
        assert_eq!(direct.num_rows(), joined);

        let mut tv = TableVocab::from_catalog(&hy.catalog);
        let compiled = prefix.compile(&hy.catalog, &mut tv).unwrap();
        let via_cq = eval_cq(&compiled.cq, &compiled.columns, &hy.catalog, &tv).unwrap();
        assert_eq!(table_fingerprint(&via_cq), table_fingerprint(&direct));

        let pipeline = HybridPipeline {
            prefix,
            sort_key: Some("a".into()),
            cast: CastKind::Dense { columns: vec!["a".into(), "b".into()] },
            cast_name: "X".into(),
            suffix: mul(t(m("X")), m("X")),
        };
        let r = hy.rewrite_hybrid(&pipeline).unwrap();
        assert!(r.rel.rewriting.is_some(), "the prefix should land on v ⋈ rv");
        assert_eq!(r.rel.cost_best, Some(9.0));
        assert_eq!(table_fingerprint(&r.table), table_fingerprint(&direct));
        let r = hy.rewrite_hybrid_verified(&pipeline, &Env::new(), 1e-9).unwrap();
        assert!(r.rel.rewriting.is_some());
        assert_eq!(r.verified, Some(true));
    }
}

/// With no view to land on, a prefix runs as its compiled CQ — each
/// selection's constant filtering its own atom, through the catalog's
/// column indexes from the second run on — and still returns the operator
/// pipeline's table row for row, sorted as asked, cast bit for bit: the
/// bench corpus's shapes, over a table whose `tid`s run backwards.
#[test]
fn an_unrewritten_prefix_runs_as_its_cq_and_returns_the_pipelines_rows() {
    let n = 4_000i64;
    let mut catalog = Catalog::new();
    catalog.register(
        "tweets",
        Table::new(vec![
            ("tid", Column::Int((0..n).rev().collect())),
            ("uid", Column::Int((0..n).map(|i| i * 7 % 220).collect())),
            ("topic", Column::Int((0..n).map(|i| i % 40).collect())),
            ("level", Column::Int((0..n).map(|i| i % 5 + 1).collect())),
        ]),
    );
    catalog.register(
        "users",
        Table::new(vec![
            ("uid", Column::Int((0..200).collect())),
            ("country", Column::Int((0..200).map(|u| u % 10).collect())),
            ("followers", Column::Int((0..200).map(|u| u * 13 % 97).collect())),
        ]),
    );
    let hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    let feats = ["tid", "level", "followers", "country"];
    let prefixes = [
        RelQuery::scan("tweets").select_eq("topic", 3),
        RelQuery::scan("tweets").select_eq("topic", 4).project(&["tid", "level", "uid"]),
        RelQuery::scan("tweets")
            .select_eq("topic", 5)
            .join("users", "uid", "uid")
            .project(&feats),
        RelQuery::scan("tweets").select_eq("topic", 6).join("users", "uid", "uid"),
        RelQuery::scan("tweets")
            .join("users", "uid", "uid")
            .select_eq("country", 2)
            .project(&feats),
        RelQuery::scan("tweets").select_eq("level", 2),
    ];
    for prefix in prefixes {
        for sort_key in [None, Some("tid")] {
            let executed = prefix.execute(&hy.catalog).unwrap();
            let expected = match sort_key {
                Some(key) => hadad_relational::ops::sort_by_int(&executed, key).unwrap(),
                None => executed,
            };
            assert!(expected.num_rows() > 10);
            let columns = ["tid", "level"];
            let pipeline = HybridPipeline {
                prefix: prefix.clone(),
                sort_key: sort_key.map(str::to_owned),
                cast: CastKind::Dense { columns: columns.map(str::to_owned).to_vec() },
                cast_name: "X".into(),
                suffix: mul(t(m("X")), m("X")),
            };
            let cast = hadad_relational::cast::table_to_matrix(&expected, &columns);
            for run in 0..3 {
                let r = hy.rewrite_hybrid(&pipeline).unwrap();
                assert!(r.rel.rewriting.is_none(), "no view to rewrite onto");
                assert_eq!(*r.table, expected, "{prefix:?} sorted by {sort_key:?}, run {run}");
                assert_eq!(*r.cast, cast, "{prefix:?} sorted by {sort_key:?}, run {run}");
            }
        }
    }
}

/// A table added through `register_table` answers as an optimizer built
/// over a catalog that held it from the start: the same CQ, rewriting,
/// costs and table. A view's name is refused — its materialization belongs
/// to its definition — and the refusal changes nothing: not the view's
/// table, the catalog's epoch or names, nor the registered views.
#[test]
fn a_table_added_through_register_table_answers_as_a_fresh_optimizer() {
    let users = || Table::new(vec![("uid", Column::Int((0..8).collect()))]);
    let covid = || RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC);
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    hy.register_table_view("covid_tweets", covid()).unwrap();
    hy.register_table("users", users()).unwrap();

    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    catalog.register("users", users());
    let mut fresh = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    fresh.register_table_view("covid_tweets", covid()).unwrap();

    let pipeline = |prefix: RelQuery, column: &str| HybridPipeline {
        prefix,
        sort_key: None,
        cast: CastKind::Dense { columns: vec![column.into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    };
    let on_view = pipeline(covid(), "level");
    let on_users = pipeline(RelQuery::scan("users"), "uid");
    for p in [&on_view, &on_users] {
        let (got, want) = (hy.rewrite_hybrid(p).unwrap(), fresh.rewrite_hybrid(p).unwrap());
        assert_eq!(got.rel.compiled.cq, want.rel.compiled.cq);
        assert_eq!(got.rel.rewriting, want.rel.rewriting);
        assert_eq!(
            (got.rel.cost_original, got.rel.cost_best),
            (want.rel.cost_original, want.rel.cost_best)
        );
        assert_eq!(got.table, want.table);
    }

    let before = (hy.catalog.get("covid_tweets").unwrap().clone(), hy.catalog.epoch());
    let names: Vec<String> = hy.catalog.names().map(str::to_owned).collect();
    let err = hy.register_table("covid_tweets", users()).unwrap_err();
    assert!(matches!(err, HybridError::DuplicateName(ref n) if n == "covid_tweets"), "{err:?}");
    assert_eq!((hy.catalog.get("covid_tweets").unwrap().clone(), hy.catalog.epoch()), before);
    assert_eq!(hy.catalog.names().collect::<Vec<_>>(), names);
    assert_eq!(hy.table_views().len(), 1);
    assert_eq!(hy.table_views()[0].name, "covid_tweets");
    let r = hy.rewrite_hybrid(&on_view).unwrap();
    assert!(r.rel.rewriting.is_some());
    assert_eq!(r.rel.cost_best, Some((NUM_TWEETS / NUM_TOPICS) as f64));
}

/// Replacing a base table under a view and a maintained cast rebuilds
/// both: the view's cardinality and the cast's stamped metadata equal
/// those of an optimizer built from scratch over the new table.
#[test]
fn a_replaced_table_rebuilds_its_views_and_casts() {
    let covid = || RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC);
    let cast = || MaintainedCast {
        cast_name: "N".into(),
        view: "covid_tweets".into(),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS,
            cols: NUM_TOPICS,
        },
    };
    let build = |tweets: Table| {
        let mut catalog = Catalog::new();
        catalog.register("tweets", tweets);
        let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
        hy.register_table_view("covid_tweets", covid()).unwrap();
        hy.register_maintained_cast(cast()).unwrap();
        hy
    };
    // Half the tweets on the covid topic, and every level doubled.
    let n = NUM_TWEETS as i64;
    let replacement = Table::new(vec![
        ("tid", Column::Int((0..n).collect())),
        (
            "topic",
            Column::Int((0..n).map(|i| if i % 2 == 0 { COVID_TOPIC } else { i % 5 }).collect()),
        ),
        ("level", Column::Int((0..n).map(|i| 2 * (i % 5 + 1)).collect())),
    ]);

    let mut hy = build(tweets());
    assert_eq!(hy.catalog.cardinality("covid_tweets"), Some(NUM_TWEETS / NUM_TOPICS));
    hy.register_table("tweets", replacement.clone()).unwrap();
    let scratch = build(replacement);
    assert_eq!(hy.catalog.cardinality("covid_tweets"), Some(NUM_TWEETS / 2));
    assert_eq!(
        hy.catalog.cardinality("covid_tweets"),
        scratch.catalog.cardinality("covid_tweets")
    );
    assert_eq!(hy.optimizer.cat.get("N").unwrap().nnz, NUM_TWEETS / 2);
    assert_eq!(hy.optimizer.cat.get("N"), scratch.optimizer.cat.get("N"));
    assert!(hy.stale_views().is_empty());

    // The new rows reach the view through PACB as they do from scratch.
    let p = HybridPipeline {
        prefix: covid(),
        sort_key: Some("tid".into()),
        cast: CastKind::Dense { columns: vec!["level".into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    };
    let (got, want) = (hy.rewrite_hybrid(&p).unwrap(), scratch.rewrite_hybrid(&p).unwrap());
    assert!(got.rel.rewriting.is_some());
    assert_eq!((got.rel.cost_best, &got.table), (want.rel.cost_best, &want.table));
}

/// A logged write to a table view's own table is refused where the log is
/// read: maintenance fails typed and poisons, a run degrades to the base
/// table (its 10 rows, not the written view's 11) and reads no view, and a
/// rebuild re-derives the view from its definition.
#[test]
fn a_write_to_a_views_own_table_poisons_until_rebuilt() {
    let n = 60i64;
    let mut catalog = Catalog::new();
    catalog.register(
        "tweets",
        Table::new(vec![
            ("tid", Column::Int((0..n).collect())),
            ("topic", Column::Int((0..n).map(|i| i % 6).collect())),
            ("level", Column::Int((0..n).map(|i| i % 4 + 1).collect())),
        ]),
    );
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    let topic3 = || RelQuery::scan("tweets").select_eq("topic", 3);
    hy.register_table_view("topic3", topic3()).unwrap();
    let p = HybridPipeline {
        prefix: topic3(),
        sort_key: Some("tid".into()),
        cast: CastKind::Dense { columns: vec!["tid".into(), "level".into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    };
    assert_eq!(hy.rewrite_hybrid(&p).unwrap().rel.rows_out, 10);

    hy.catalog
        .insert_rows("topic3", vec![vec![Value::Int(600), Value::Int(3), Value::Int(1)]])
        .unwrap();
    let err = hy.maintain_views().unwrap_err();
    assert!(matches!(err, HybridError::ViewWrite(ref v) if v == "topic3"), "{err:?}");
    assert!(matches!(hy.maintain_views(), Err(HybridError::MaintenancePoisoned)));
    let r = hy.rewrite_hybrid(&p).unwrap();
    assert_eq!(r.degraded.map(|d| d.reason), Some(DegradeReason::MaintenancePoisoned));
    assert!(r.rel.rewriting.is_none());
    assert_eq!(r.rel.rows_out, 10);

    hy.rebuild_views().unwrap();
    assert_eq!(hy.catalog.cardinality("topic3"), Some(10));
    let r = hy.rewrite_hybrid(&p).unwrap();
    assert!(r.degraded.is_none());
    assert!(r.rel.rewriting.is_some());
    assert_eq!(r.rel.rows_out, 10);
}

/// A failed rebuild keeps every view and cast registered and the
/// maintainer poisoned; the next rebuild re-derives them all in place, and
/// maintenance reaches both again.
#[test]
fn a_failed_rebuild_keeps_every_view_and_cast_registered() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new()));
    hy.register_table_view(
        "covid_tweets",
        RelQuery::scan("tweets").select_eq("topic", COVID_TOPIC),
    )
    .unwrap();
    hy.register_maintained_cast(MaintainedCast {
        cast_name: "N".into(),
        view: "covid_tweets".into(),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "tid".into(),
            col: "topic".into(),
            val: "level".into(),
            rows: NUM_TWEETS + 1,
            cols: NUM_TOPICS,
        },
    })
    .unwrap();

    let broken = Table::new(vec![("tid", Column::Int(vec![1]))]);
    let err = hy.register_table("tweets", broken).unwrap_err();
    assert!(matches!(err, HybridError::MissingColumn(ref c) if c == "topic"), "{err:?}");
    assert_eq!(hy.table_views().len(), 1);
    assert_eq!(hy.maintained_casts().len(), 1);
    assert!(matches!(hy.maintain_views(), Err(HybridError::MaintenancePoisoned)));
    assert_eq!(hy.stale_views(), ["covid_tweets"]);

    hy.register_table("tweets", tweets()).unwrap();
    assert!(hy.stale_views().is_empty());
    let covid = NUM_TWEETS / NUM_TOPICS;
    assert_eq!(hy.catalog.cardinality("covid_tweets"), Some(covid));
    assert_eq!(hy.optimizer.cat.get("N").unwrap().nnz, covid);
    let row = vec![Value::Int(NUM_TWEETS as i64), Value::Int(COVID_TOPIC), Value::Int(1)];
    hy.catalog.insert_rows("tweets", vec![row]).unwrap();
    let report = hy.maintain_views().unwrap();
    assert_eq!(report.restamped.len(), 1);
    assert_eq!(hy.catalog.cardinality("covid_tweets"), Some(covid + 1));
    assert_eq!(hy.optimizer.cat.get("N").unwrap().nnz, covid + 1);
}
