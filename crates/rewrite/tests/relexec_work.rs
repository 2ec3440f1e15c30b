//! Work counts of relational execution, independent of timing: what the
//! executor reads, copies and indexes, from the `relexec.*` counters. Late
//! materialization and the column indexes are pinned by a count, not by a
//! timer.
//!
//! The counters are process-global, so this binary holds exactly one test —
//! nothing else may move them between two reads.

use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::hybrid::{eval_cq, RelQuery, TableVocab};

const TWEETS: i64 = 50_000;
const USERS: i64 = 500;

/// `(rows_in, rows_out, cells_gathered, index_builds)` moved while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let read = || {
        let snap = hadad_obs::snapshot();
        [
            "relexec.rows_in",
            "relexec.rows_out",
            "relexec.cells_gathered",
            "relexec.index_builds",
        ]
        .map(|name| snap.counter(name).unwrap_or(0))
    };
    let before = read();
    let out = f();
    let after = read();
    (out, [0, 1, 2, 3].map(|i| after[i] - before[i]))
}

/// `q` compiled and run as its CQ, counted.
fn counted_cq(q: &RelQuery, catalog: &Catalog) -> (Table, [u64; 4]) {
    let mut tv = TableVocab::from_catalog(catalog);
    let compiled = q.compile(catalog, &mut tv).unwrap();
    counted(|| eval_cq(&compiled.cq, &compiled.columns, catalog, &tv).unwrap())
}

#[test]
fn a_pipeline_reads_its_key_columns_once_and_gathers_only_its_output() {
    let mut catalog = Catalog::new();
    catalog.register(
        "tweets",
        Table::new(vec![
            ("tid", Column::Int((0..TWEETS).collect())),
            ("uid", Column::Int((0..TWEETS).map(|i| i * 7 % (USERS + 100)).collect())),
            ("topic", Column::Int((0..TWEETS).map(|i| i % 10).collect())),
            ("text", Column::Str((0..TWEETS).map(|i| format!("tweet {i}")).collect())),
        ]),
    );
    catalog.register(
        "users",
        Table::new(vec![
            ("uid", Column::Int((0..USERS).collect())),
            ("country", Column::Int((0..USERS).map(|i| i % 20).collect())),
            ("name", Column::Str((0..USERS).map(|i| format!("user {i}")).collect())),
        ]),
    );
    let selected = (TWEETS / 10) as u64;

    // select → join → project: three of the joined relation's six columns
    // come out, over the rows that survive both stages.
    let q = RelQuery::scan("tweets")
        .select_eq("topic", 3)
        .join("users", "uid", "uid")
        .project(&["tid", "name", "country"]);
    let (out, [rows_in, rows_out, cells, builds]) = counted(|| q.execute(&catalog).unwrap());
    assert!(out.num_rows() > 1000 && (out.num_rows() as u64) < selected, "{}", out.num_rows());
    assert_eq!(rows_out, out.num_rows() as u64);
    // No intermediate is ever gathered: not the selection's 5 000 × 4
    // cells, not the join's six columns.
    assert_eq!(cells, rows_out * 3);
    // The first lookup of `topic` and of `users.uid` builds nothing: one
    // pass over the predicate column, one over each join key column.
    assert_eq!(rows_in, TWEETS as u64 + selected + USERS as u64);
    assert_eq!(builds, 0);

    // The compiled CQ on the same executor: a constant filters its atom
    // once, the shared variable is one join, the head is one gather (the
    // head constant of a selected column is a fill, not a copy). These are
    // the second lookups: both columns get their index. The selection then
    // reads its bucket — the 5 000 selected rows — and not the table. The
    // join does not use `users.uid`'s: 5 000 keys would read more than a
    // quarter of `users` through it, so it runs as before.
    let q = RelQuery::scan("tweets").select_eq("topic", 3).join("users", "uid", "uid");
    let (via_cq, [rows_in, rows_out, cells, builds]) = counted_cq(&q, &catalog);
    assert_eq!(rows_out, via_cq.num_rows() as u64);
    assert_eq!(via_cq.num_cols(), 6);
    assert_eq!(cells, rows_out * 5);
    assert_eq!(builds, 2);
    assert_eq!(rows_in, selected + selected + USERS as u64);
    // Built once: a third run reads the same and builds nothing.
    let (again, [rows_in_again, _, _, builds]) = counted_cq(&q, &catalog);
    assert_eq!((rows_in_again, builds), (rows_in, 0));
    assert_eq!(again, via_cq);

    // An index-nested loop, index on the right: a country's 25 users probe
    // `tweets.uid` once each. The lookups read the 25-row bucket, the 25
    // keys and their buckets in `tweets.uid` — every match, and whatever
    // shares a bucket with one — never the 50 000 tweets.
    let by_country =
        RelQuery::scan("users").select_eq("country", 3).join("tweets", "uid", "uid");
    let cold = counted(|| by_country.execute(&catalog).unwrap());
    assert_eq!(cold.1[0], USERS as u64 + 25 + TWEETS as u64, "first lookups scan");
    let (joined, [rows_in, rows_out, _, builds]) =
        counted(|| by_country.execute(&catalog).unwrap());
    assert_eq!(joined, cold.0);
    assert_eq!(builds, 2, "users.country and tweets.uid");
    assert!(rows_out > 1000, "{rows_out}");
    assert!(
        rows_in >= 25 + 25 + rows_out && rows_in < 25 + 25 + rows_out * 11 / 10,
        "{rows_in}"
    );

    // Index on the left: the join of the whole of `tweets` with a country's
    // users, run as its CQ, looks the users up in `tweets.uid` and sorts
    // the matches alone back into tweet order — the same rows, in the same
    // order, as the pipeline that joins all 50 000 tweets first.
    let project = RelQuery::scan("tweets").join("users", "uid", "uid").select_eq("country", 3);
    let direct = project.execute(&catalog).unwrap();
    let (via_cq, [rows_in, rows_out, _, builds]) = counted_cq(&project, &catalog);
    assert_eq!(builds, 0);
    assert_eq!(via_cq.column("tid"), direct.column("tid"));
    assert_eq!(rows_out, direct.num_rows() as u64);
    assert!(
        rows_in >= 25 + 25 + rows_out && rows_in < 25 + 25 + rows_out * 11 / 10,
        "{rows_in}"
    );

    // A mutation drops the table's indexes and restarts its count: the
    // next lookup of `topic` scans again, the one after rebuilds. `users`
    // did not change and keeps its own.
    catalog
        .insert_rows(
            "tweets",
            vec![vec![
                Value::Int(TWEETS),
                Value::Int(0),
                Value::Int(3),
                Value::Str("new".into()),
            ]],
        )
        .unwrap();
    let (_, [rows_in, _, _, builds]) = counted_cq(&q, &catalog);
    assert_eq!(builds, 0);
    assert_eq!(rows_in, (TWEETS + 1) as u64 + selected + 1 + USERS as u64);
    let (_, [rows_in, _, _, builds]) = counted_cq(&q, &catalog);
    assert_eq!(builds, 1);
    assert_eq!(rows_in, 2 * (selected + 1) + USERS as u64);

    // A stage-less query is the one that copies its scan table.
    let (_, [rows_in, rows_out, cells, _]) =
        counted(|| RelQuery::scan("users").execute(&catalog).unwrap());
    assert_eq!((rows_in, rows_out, cells), (0, USERS as u64, USERS as u64 * 3));
}
