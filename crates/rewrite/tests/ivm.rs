//! Incremental view maintenance correctness: delta-maintained
//! materializations must equal full re-execution of the view definition —
//! as multisets of rows — after arbitrary insert/delete sequences, for
//! every `RelQuery` operator, including batches that touch several base
//! tables before one maintenance pass.

use hadad_linalg::rng::Rng64;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::hybrid::{HybridError, RelQuery, TableView};
use hadad_rewrite::ViewMaintainer;

use hadad_relational::ivm::table_fingerprint as fingerprint;

fn assert_views_fresh(catalog: &Catalog, views: &[TableView], ctx: &str) {
    for v in views {
        let maintained = catalog.get(&v.name).expect("view table registered");
        let reexecuted = v.def.execute(catalog).expect("definition re-executes");
        assert_eq!(
            fingerprint(maintained),
            fingerprint(&reexecuted),
            "{ctx}: view {} diverged from re-execution (maintained {} rows, re-executed {})",
            v.name,
            maintained.num_rows(),
            reexecuted.num_rows(),
        );
        assert_eq!(
            maintained.column_names(),
            reexecuted.column_names(),
            "{ctx}: view {} schema drifted",
            v.name
        );
        // scan_cost prices the maintained cardinality, which must match.
        assert_eq!(
            catalog.scan_cost([v.name.as_str()]),
            reexecuted.num_rows() as f64,
            "{ctx}: view {} scan_cost went stale",
            v.name
        );
    }
}

const TAGS: [&str; 3] = ["covid", "sports", "news"];
/// Fractional, both zeros, and a `NaN` that must join itself.
const SCORES: [f64; 6] = [0.5, 1.5, 2.5, 0.0, -0.0, f64::NAN];

/// Base schema: orders(oid, cust, qty, tag, score), custs(cid, region) and
/// labels(tag, score). Key domains are tiny so joins hit duplicates — the
/// regime where bag (counting) semantics and set semantics diverge.
fn seed_catalog(rng: &mut Rng64) -> Catalog {
    let n = 30 + rng.range_usize(20) as i64;
    let m = 8 + rng.range_usize(6) as i64;
    let regions = ["eu", "us"];
    let mut cat = Catalog::new();
    cat.register(
        "orders",
        Table::new(vec![
            ("oid", Column::Int((0..n).collect())),
            ("cust", Column::Int((0..n).map(|_| rng.range_i64(0, 5)).collect())),
            ("qty", Column::Int((0..n).map(|_| rng.range_i64(1, 4)).collect())),
            (
                "tag",
                Column::Str((0..n).map(|_| TAGS[rng.range_usize(3)].to_string()).collect()),
            ),
            ("score", Column::Float((0..n).map(|_| SCORES[rng.range_usize(6)]).collect())),
        ]),
    );
    cat.register(
        "labels",
        Table::new(vec![
            (
                "tag",
                Column::Str((0..6).map(|_| TAGS[rng.range_usize(3)].to_string()).collect()),
            ),
            ("score", Column::Float((0..6).map(|_| SCORES[rng.range_usize(6)]).collect())),
        ]),
    );
    cat.register(
        "custs",
        Table::new(vec![
            // Duplicate cids on purpose: a bag join multiplies multiplicities.
            ("cid", Column::Int((0..m).map(|_| rng.range_i64(0, 5)).collect())),
            (
                "region",
                Column::Str((0..m).map(|_| regions[rng.range_usize(2)].to_string()).collect()),
            ),
        ]),
    );
    cat
}

fn random_order_row(rng: &mut Rng64, next_oid: &mut i64) -> Vec<Value> {
    let oid = *next_oid;
    *next_oid += 1;
    vec![
        Value::Int(oid),
        Value::Int(rng.range_i64(0, 5)),
        Value::Int(rng.range_i64(1, 4)),
        Value::Str(TAGS[rng.range_usize(3)].to_string()),
        Value::Float(SCORES[rng.range_usize(6)]),
    ]
}

fn random_label_row(rng: &mut Rng64) -> Vec<Value> {
    vec![
        Value::Str(TAGS[rng.range_usize(3)].to_string()),
        Value::Float(SCORES[rng.range_usize(6)]),
    ]
}

fn random_cust_row(rng: &mut Rng64) -> Vec<Value> {
    let regions = ["eu", "us"];
    vec![Value::Int(rng.range_i64(0, 5)), Value::Str(regions[rng.range_usize(2)].to_string())]
}

fn sample_rows(t: &Table, rng: &mut Rng64, k: usize) -> Vec<Vec<Value>> {
    // Distinct positions, so counting semantics retracts exactly k copies.
    let mut picked = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..(k * 4) {
        if picked.len() == k || seen.len() == t.num_rows() {
            break;
        }
        let r = rng.range_usize(t.num_rows());
        if seen.insert(r) {
            picked.push(t.row(r));
        }
    }
    picked
}

/// Views covering every operator: equality selection (int and string),
/// join (with duplicate keys; on an integer, a string and a fractional
/// float key), projection (dropping the key, so the view holds genuine
/// duplicates), and their composition — plus a view over a view,
/// maintained transitively.
fn view_suite() -> Vec<(&'static str, RelQuery)> {
    vec![
        ("v_sel", RelQuery::scan("orders").select_eq("cust", 2)),
        ("v_str", RelQuery::scan("orders").select_str_eq("tag", "covid")),
        ("v_join", RelQuery::scan("orders").join("custs", "cust", "cid")),
        ("v_str_key", RelQuery::scan("orders").join("labels", "tag", "tag")),
        ("v_float_key", RelQuery::scan("orders").join("labels", "score", "score")),
        (
            "v_mix",
            RelQuery::scan("orders")
                .select_str_eq("tag", "covid")
                .join("custs", "cust", "cid")
                .project(&["qty", "region"]),
        ),
        ("v_proj", RelQuery::scan("orders").project(&["cust", "qty"])),
        // View over a view: maintains through the queued v_sel delta.
        ("v_over_v", RelQuery::scan("v_sel").select_eq("qty", 3).project(&["oid", "qty"])),
    ]
}

#[test]
fn property_random_update_sequences_keep_views_fresh() {
    for seed in 0..12u64 {
        let mut rng = Rng64::new(0xD317A + seed);
        let mut catalog = seed_catalog(&mut rng);
        let mut next_oid = 1000;

        let mut maintainer = ViewMaintainer::new();
        let mut views = Vec::new();
        for (name, def) in view_suite() {
            let table = def.execute(&catalog).unwrap();
            catalog.register(name, table);
            let view = TableView { name: name.into(), def };
            maintainer.track(&catalog, view.clone()).unwrap();
            views.push(view);
        }
        assert_views_fresh(&catalog, &views, "seed state");
        // String and fractional-float keys do join.
        assert!(catalog.cardinality("v_str_key") > Some(0), "seed {seed}");
        assert!(catalog.cardinality("v_float_key") > Some(0), "seed {seed}");

        for step in 0..18 {
            // Batch 1..=3 mutations (possibly over both tables) before one
            // maintenance pass — multi-entry queues exercise the
            // sequential-composition path.
            let batch = 1 + rng.range_usize(3);
            for _ in 0..batch {
                // Orders updates dominate.
                let table =
                    ["orders", "orders", "orders", "custs", "labels"][rng.range_usize(5)];
                let deleting =
                    rng.range_usize(3) == 0 && catalog.cardinality(table).unwrap_or(0) > 4;
                let k = 1 + rng.range_usize(4);
                if deleting {
                    let rows = sample_rows(catalog.get(table).unwrap(), &mut rng, k);
                    catalog.delete_rows(table, rows).unwrap();
                } else {
                    let rows: Vec<Vec<Value>> = (0..k)
                        .map(|_| match table {
                            "orders" => random_order_row(&mut rng, &mut next_oid),
                            "custs" => random_cust_row(&mut rng),
                            _ => random_label_row(&mut rng),
                        })
                        .collect();
                    catalog.insert_rows(table, rows).unwrap();
                }
            }
            // Row indexes (catalog entries, cached join inputs) must hold
            // their invariant both mid-batch and after the pass.
            catalog.check_indexes().unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            let report = maintainer.maintain(&mut catalog).unwrap();
            assert!(report.entries_processed > 0);
            assert_views_fresh(&catalog, &views, &format!("seed {seed} step {step}"));
            catalog.check_indexes().unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            maintainer
                .check_indexes()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
        }
    }
}

/// The textbook multi-table trap: insert into *both* sides of a join in
/// one batch, then maintain once. A maintainer that joins the left delta
/// against the already-updated right table double-counts ΔL ⋈ ΔR; the
/// sequential reconstruction must not.
#[test]
fn multi_table_batch_does_not_double_count_delta_join_delta() {
    let mut catalog = Catalog::new();
    catalog.register(
        "l",
        Table::new(vec![("k", Column::Int(vec![1])), ("a", Column::Int(vec![10]))]),
    );
    catalog.register(
        "r",
        Table::new(vec![("k", Column::Int(vec![1])), ("b", Column::Int(vec![20]))]),
    );
    let def = RelQuery::scan("l").join("r", "k", "k");
    let table = def.execute(&catalog).unwrap();
    assert_eq!(table.num_rows(), 1);
    catalog.register("j", table);
    let view = TableView { name: "j".into(), def };
    let mut maintainer = ViewMaintainer::new();
    maintainer.track(&catalog, view.clone()).unwrap();

    // ΔL and ΔR share the key 2: the correct view gains exactly one row
    // (2, 11, 21); double counting ΔL ⋈ ΔR would add it twice.
    catalog.insert_rows("l", vec![vec![Value::Int(2), Value::Int(11)]]).unwrap();
    catalog.insert_rows("r", vec![vec![Value::Int(2), Value::Int(21)]]).unwrap();
    let views = [view];
    maintainer.maintain(&mut catalog).unwrap();

    let j = catalog.get("j").unwrap();
    let expected = views[0].def.execute(&catalog).unwrap();
    assert_eq!(fingerprint(j), fingerprint(&expected));
    assert_eq!(j.num_rows(), 2);
}

/// Deletes through a projection that drops the distinguishing key: the
/// view holds duplicates, and a counting-semantics delete must retract
/// exactly one copy per deleted base row.
#[test]
fn projection_duplicates_retract_by_count() {
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::new(vec![
            ("id", Column::Int(vec![1, 2, 3, 4])),
            ("lvl", Column::Int(vec![7, 7, 7, 8])),
        ]),
    );
    let def = RelQuery::scan("t").project(&["lvl"]);
    catalog.register("levels", def.execute(&catalog).unwrap());
    let view = TableView { name: "levels".into(), def };
    let mut maintainer = ViewMaintainer::new();
    maintainer.track(&catalog, view.clone()).unwrap();

    catalog.delete_rows("t", vec![vec![Value::Int(2), Value::Int(7)]]).unwrap();
    let views = [view];
    maintainer.maintain(&mut catalog).unwrap();
    let levels = catalog.get("levels").unwrap();
    assert_eq!(levels.num_rows(), 3, "exactly one of the three 7s is retracted");
    assert_eq!(fingerprint(levels), fingerprint(&views[0].def.execute(&catalog).unwrap()));
}

/// An update that misses every view's selection propagates an empty delta:
/// maintenance is a no-op, not a rebuild (this is the cheap path the
/// benchmark's 10x bound rides on).
#[test]
fn irrelevant_updates_touch_nothing() {
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::new(vec![("id", Column::Int(vec![1, 2])), ("topic", Column::Int(vec![3, 4]))]),
    );
    let def = RelQuery::scan("t").select_eq("topic", 3);
    catalog.register("v", def.execute(&catalog).unwrap());
    let view = TableView { name: "v".into(), def };
    let mut maintainer = ViewMaintainer::new();
    maintainer.track(&catalog, view).unwrap();

    catalog.insert_rows("t", vec![vec![Value::Int(9), Value::Int(99)]]).unwrap();
    let report = maintainer.maintain(&mut catalog).unwrap();
    assert_eq!(report.rows_touched(), 0);
    assert!(report.changes.is_empty());
    assert_eq!(catalog.cardinality("v"), Some(1));
}

/// A batch that nets to zero — a row inserted into a selection view's base
/// table and deleted again before the pass — changes no view: no change is
/// reported, the two log entries coalesce into one, and the pass leaves the
/// epoch (and with it every cached plan and snapshot) alone. The same holds
/// through a join view, from either side.
#[test]
fn a_batch_that_nets_to_zero_changes_nothing() {
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::new(vec![("id", Column::Int(vec![1, 2])), ("topic", Column::Int(vec![3, 4]))]),
    );
    catalog.register("u", Table::new(vec![("topic", Column::Int(vec![3, 3]))]));
    let defs = [
        ("v", RelQuery::scan("t").select_eq("topic", 3)),
        ("j", RelQuery::scan("t").join("u", "topic", "topic")),
        ("k", RelQuery::scan("u").join("t", "topic", "topic")),
    ];
    let mut maintainer = ViewMaintainer::new();
    let mut views = Vec::new();
    for (name, def) in defs {
        catalog.register(name, def.execute(&catalog).unwrap());
        let view = TableView { name: name.into(), def };
        maintainer.track(&catalog, view.clone()).unwrap();
        views.push(view);
    }
    let before: Vec<_> = views.iter().map(|v| catalog.get(&v.name).unwrap().clone()).collect();

    let row = || vec![vec![Value::Int(9), Value::Int(3)]];
    catalog.insert_rows("t", row()).unwrap();
    catalog.delete_rows("t", row()).unwrap();
    let epoch = catalog.epoch();
    let report = maintainer.maintain(&mut catalog).unwrap();
    assert!(report.changes.is_empty(), "{:?}", report.changes);
    assert_eq!(report.entries_processed, 1);
    assert_eq!((report.epoch, catalog.epoch()), (epoch, epoch));
    for (v, old) in views.iter().zip(&before) {
        assert_eq!(catalog.get(&v.name).unwrap(), old, "view {}", v.name);
    }
    assert_views_fresh(&catalog, &views, "after a net-zero batch");
    maintainer.check_indexes().unwrap();
}

/// Tracking over a catalog with pending updates is refused — building the
/// join-input caches from post-update tables would double-count the
/// pending deltas on the next maintenance pass.
#[test]
fn tracking_with_pending_updates_is_refused() {
    let mut catalog = Catalog::new();
    catalog.register("t", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
    let def = RelQuery::scan("t");
    catalog.register("v", def.execute(&catalog).unwrap());
    catalog.insert_rows("t", vec![vec![Value::Int(3)]]).unwrap();
    let mut maintainer = ViewMaintainer::new();
    let err = maintainer.track(&catalog, TableView { name: "v".into(), def }).unwrap_err();
    assert!(matches!(err, HybridError::PendingUpdates(ref ts) if ts == &["t".to_string()]));
}

/// A failed maintenance pass poisons the maintainer: the drained log and
/// partially maintained views mean state is unknown, so further passes
/// refuse loudly instead of silently rewriting over diverged views.
#[test]
fn failed_maintenance_poisons_the_maintainer() {
    let mut catalog = Catalog::new();
    catalog.register("t", Table::new(vec![("id", Column::Int(vec![1, 2]))]));
    let def = RelQuery::scan("t").select_eq("id", 1);
    catalog.register("v", def.execute(&catalog).unwrap());
    let view = TableView { name: "v".into(), def };
    let mut maintainer = ViewMaintainer::new();
    maintainer.track(&catalog, view).unwrap();
    assert!(!maintainer.is_poisoned());

    // Sabotage the materialization through the raw catalog handle: the
    // view delta no longer matches its schema, so the pass fails.
    catalog.register("v", Table::new(vec![("other", Column::Str(vec![]))]));
    catalog.insert_rows("t", vec![vec![Value::Int(1)]]).unwrap();
    let err = maintainer.maintain(&mut catalog).unwrap_err();
    assert!(matches!(err, HybridError::Ivm(_)));
    assert!(maintainer.is_poisoned());
    // Every further pass refuses until the views are rebuilt.
    let err = maintainer.maintain(&mut catalog).unwrap_err();
    assert!(matches!(err, HybridError::MaintenancePoisoned));
}
