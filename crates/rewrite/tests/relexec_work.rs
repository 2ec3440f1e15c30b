//! Work counts of relational execution, independent of timing: what the
//! executor reads and copies, from the `relexec.*` counters. Late
//! materialization is pinned by a count, not by a timer.
//!
//! The counters are process-global, so this binary holds exactly one test —
//! nothing else may move them between two reads.

use hadad_relational::{Catalog, Column, Table};
use hadad_rewrite::hybrid::{eval_cq, RelQuery, TableVocab};

const TWEETS: i64 = 50_000;
const USERS: i64 = 500;

/// `(rows_in, rows_out, cells_gathered)` moved while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let read = || {
        let snap = hadad_obs::snapshot();
        ["relexec.rows_in", "relexec.rows_out", "relexec.cells_gathered"]
            .map(|name| snap.counter(name).unwrap_or(0))
    };
    let before = read();
    let out = f();
    let after = read();
    (out, [0, 1, 2].map(|i| after[i] - before[i]))
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
    let (out, [rows_in, rows_out, cells]) = counted(|| q.execute(&catalog).unwrap());
    assert!(out.num_rows() > 1000 && (out.num_rows() as u64) < selected, "{}", out.num_rows());
    assert_eq!(rows_out, out.num_rows() as u64);
    // No intermediate is ever gathered: not the selection's 5 000 × 4
    // cells, not the join's six columns.
    assert_eq!(cells, rows_out * 3);
    // One pass over the predicate column, one over each join key column.
    assert_eq!(rows_in, TWEETS as u64 + selected + USERS as u64);

    // The compiled CQ on the same executor: a constant filters its atom
    // once, the shared variable is one join, the head is one gather (the
    // head constant of a selected column is a fill, not a copy).
    let q = RelQuery::scan("tweets").select_eq("topic", 3).join("users", "uid", "uid");
    let mut tv = TableVocab::from_catalog(&catalog);
    let compiled = q.compile(&catalog, &mut tv).unwrap();
    let (via_cq, [rows_in, rows_out, cells]) =
        counted(|| eval_cq(&compiled.cq, &compiled.columns, &catalog, &tv).unwrap());
    assert_eq!(rows_out, via_cq.num_rows() as u64);
    assert_eq!(via_cq.num_cols(), 6);
    assert_eq!(cells, rows_out * 5);
    assert_eq!(rows_in, TWEETS as u64 + selected + USERS as u64);

    // A stage-less query is the one that copies its scan table.
    let (_, [rows_in, rows_out, cells]) =
        counted(|| RelQuery::scan("users").execute(&catalog).unwrap());
    assert_eq!((rows_in, rows_out, cells), (0, USERS as u64, USERS as u64 * 3));
}
