//! The relational side of a hybrid run — the table vocabulary, the table
//! views' CQs and PACB's two rule sets — is compiled once per catalog
//! schema, not once per run: construction, a table or view registration
//! and a rebuild compile it once each, and runs, row changes, maintenance
//! passes, publishes and snapshot reads compile nothing. A degraded run (a
//! poisoned maintainer) offers no views, so it compiles a view-less schema
//! of its own, once per run.
//!
//! Compiles are read from the process-global `hybrid.schema_compiles`
//! counter, so this binary holds exactly one test: nothing else may move it
//! between two reads.

use hadad_core::expr::dsl::*;
use hadad_core::MetaCatalog;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{CastKind, Env, HybridOptimizer, HybridPipeline, Optimizer, RelQuery};

fn compiles() -> u64 {
    hadad_obs::snapshot().counter("hybrid.schema_compiles").unwrap_or(0)
}

/// Schema compiles while `f` runs.
fn compiled_by(f: impl FnOnce()) -> u64 {
    let before = compiles();
    f();
    compiles() - before
}

fn tweets() -> Table {
    Table::new(vec![
        ("tid", Column::Int((0..200).collect())),
        ("topic", Column::Int((0..200).map(|i| i % 10).collect())),
        ("level", Column::Int((0..200).map(|i| i % 5 + 1).collect())),
    ])
}

fn pipeline(topic: i64) -> HybridPipeline {
    HybridPipeline {
        prefix: RelQuery::scan("tweets").select_eq("topic", topic),
        sort_key: Some("tid".into()),
        cast: CastKind::Dense { columns: vec!["level".into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    }
}

#[test]
fn the_relational_side_compiles_once_per_catalog_schema() {
    let mut catalog = Catalog::new();
    catalog.register("tweets", tweets());
    let mut hy = None;
    assert_eq!(
        compiled_by(|| {
            hy = Some(HybridOptimizer::new(catalog, Optimizer::new(MetaCatalog::new())));
        }),
        1,
        "construction compiles the view-less schema"
    );
    let mut hy = hy.unwrap();
    let register = |hy: &mut HybridOptimizer, name: &str, topic: i64| {
        let def = RelQuery::scan("tweets").select_eq("topic", topic);
        compiled_by(|| hy.register_table_view(name, def).unwrap())
    };
    assert_eq!(register(&mut hy, "topic3", 3), 1);
    assert_eq!(register(&mut hy, "topic7", 7), 1);

    // Runs, live and verified, rewritten or not.
    let runs = compiled_by(|| {
        for topic in [3, 7, 5, 3] {
            let r = hy.rewrite_hybrid(&pipeline(topic)).unwrap();
            assert_eq!(r.rel.rewriting.is_some(), topic != 5);
            let v = hy.rewrite_hybrid_verified(&pipeline(topic), &Env::new(), 1e-9).unwrap();
            assert_eq!(v.verified, Some(true));
        }
    });
    assert_eq!(runs, 0, "a run compiles nothing");

    // Row changes, one per maintenance pass and batched.
    let row = |tid: i64| vec![vec![Value::Int(tid), Value::Int(3), Value::Int(1)]];
    let updates = compiled_by(|| {
        hy.catalog.insert_rows("tweets", row(500)).unwrap();
        hy.maintain_views().unwrap();
        hy.catalog.delete_rows("tweets", row(500)).unwrap();
        hy.catalog.insert_rows("tweets", row(501)).unwrap();
        hy.maintain_views().unwrap();
        assert_eq!(hy.catalog.cardinality("topic3"), Some(21));
        hy.rewrite_hybrid(&pipeline(3)).unwrap();
    });
    assert_eq!(updates, 0, "row changes leave the schema as it is");

    // Publishes, and runs on the snapshots: a snapshot shares the writer's
    // compiled schema, so neither the publish nor its reads compile.
    let mut snapshots = Vec::new();
    let published = compiled_by(|| {
        let reader = hy.reader().unwrap();
        snapshots.push(reader.current());
        hy.catalog.insert_rows("tweets", row(502)).unwrap();
        hy.maintain_views().unwrap();
        snapshots.push(hy.reader().unwrap().current());
        for snap in &snapshots {
            for topic in [3, 5] {
                snap.rewrite_hybrid(&pipeline(topic)).unwrap();
                snap.rewrite_hybrid_verified(&pipeline(topic), &Env::new(), 1e-9).unwrap();
            }
        }
    });
    assert_eq!(published, 0, "a publish and a snapshot read compile nothing");

    // A table registration compiles exactly once; later live runs compile
    // nothing, and a snapshot published before it serves from the old
    // schema without compiling either.
    let users = Table::new(vec![("uid", Column::Int((0..4).collect()))]);
    assert_eq!(compiled_by(|| hy.register_table("users", users).unwrap()), 1);
    for _ in 0..3 {
        assert_eq!(compiled_by(|| drop(hy.rewrite_hybrid(&pipeline(3)).unwrap())), 0);
    }
    assert_eq!(compiled_by(|| drop(snapshots[1].rewrite_hybrid(&pipeline(7)).unwrap())), 0);

    // A replacement the views cannot read fails its rebuild before the
    // compile and poisons the maintainer. Each degraded run then compiles
    // one view-less schema, until a registration that rebuilds recovers.
    let on_users = HybridPipeline {
        prefix: RelQuery::scan("users"),
        sort_key: None,
        cast: CastKind::Dense { columns: vec!["uid".into()] },
        cast_name: "M".into(),
        suffix: m("M"),
    };
    let topicless = Table::new(vec![("tid", Column::Int(vec![1]))]);
    assert_eq!(compiled_by(|| assert!(hy.register_table("tweets", topicless).is_err())), 0);
    for _ in 0..3 {
        let degraded = compiled_by(|| {
            assert!(hy.rewrite_hybrid(&on_users).unwrap().degraded.is_some());
        });
        assert_eq!(degraded, 1, "a degraded run compiles its own view-less schema");
    }
    assert_eq!(compiled_by(|| hy.register_table("tweets", tweets()).unwrap()), 1);
    assert_eq!(compiled_by(|| drop(hy.rewrite_hybrid(&pipeline(3)).unwrap())), 0);
    assert_eq!(compiled_by(|| drop(hy.rewrite_hybrid(&on_users).unwrap())), 0);
}
