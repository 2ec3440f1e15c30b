//! Work counts of the update path, independent of timing: how many table
//! rows one batch examines, read from the `ivm.rows_examined` counter —
//! rows hashed into a row index, chain candidates compared, rows relocated,
//! and the stored-side rows a join half reads (its key column on a chained
//! join, the probe keys plus their buckets through a column index).
//!
//! The counter is process-global, so this binary holds exactly one test —
//! nothing else may move it between two reads.

use hadad_relational::ivm::Delta;
use hadad_relational::{Catalog, Column, RowSet, Table, Value};
use hadad_rewrite::hybrid::{RelQuery, TableView};
use hadad_rewrite::ViewMaintainer;

fn examined() -> u64 {
    hadad_obs::snapshot().counter("ivm.rows_examined").unwrap_or(0)
}

/// Rows examined while `f` runs.
fn examined_by(f: impl FnOnce()) -> u64 {
    let before = examined();
    f();
    examined() - before
}

fn tweets(n: i64) -> Table {
    Table::new(vec![
        ("tid", Column::Int((0..n).collect())),
        ("uid", Column::Int((0..n).map(|i| i % 50).collect())),
    ])
}

const BATCH: i64 = 100;

/// What a [`BATCH`]-row delete costs against an `n`-row table whose index
/// is already built.
fn delete_batch_cost(n: i64) -> u64 {
    let mut cat = Catalog::new();
    cat.register("tweets", tweets(n));
    // The first retraction builds the index and reads every row doing it.
    let build = examined_by(|| {
        cat.delete_rows("tweets", vec![vec![Value::Int(n - 1), Value::Int((n - 1) % 50)]])
            .unwrap();
    });
    assert!(build >= n as u64, "building the index reads the table ({build} < {n})");
    let batch: Vec<_> =
        (0..BATCH).map(|i| vec![Value::Int(i * 7), Value::Int(i * 7 % 50)]).collect();
    let cost = examined_by(|| {
        assert_eq!(cat.delete_rows("tweets", batch), Ok(BATCH as usize));
    });
    cat.check_indexes().unwrap();
    cost
}

#[test]
fn a_batch_examines_rows_in_proportion_to_the_delta() {
    // The same 100-row delete against 10k and 100k rows: each retraction
    // compares its chain's candidates (one match plus, at under one row
    // per bucket, a collision now and then) and relocates one row. The
    // count is bounded by the batch, not the table — 10x the rows, same
    // bound, and nowhere near a table scan.
    let bound = 4 * BATCH as u64;
    let (small, large) = (delete_batch_cost(10_000), delete_batch_cost(100_000));
    assert!((2 * BATCH as u64..=bound).contains(&small), "10k rows: {small}");
    assert!((2 * BATCH as u64..=bound).contains(&large), "100k rows: {large}");

    // Inserts examine nothing, indexed or not.
    let mut cat = Catalog::new();
    cat.register("tweets", tweets(1000));
    let fresh = |lo: i64| (lo..lo + 10).map(|i| vec![Value::Int(i), Value::Int(1)]).collect();
    assert_eq!(examined_by(|| drop(cat.insert_rows("tweets", fresh(5000)))), 0);
    cat.delete_rows("tweets", vec![vec![Value::Int(5000), Value::Int(1)]]).unwrap();
    assert_eq!(examined_by(|| drop(cat.insert_rows("tweets", fresh(6000)))), 0);

    // An empty ΔL reads no row of R.
    let big = tweets(50_000);
    let users =
        Table::new(vec![("uid", Column::Int(vec![])), ("verified", Column::Int(vec![]))]);
    let empty = Delta::empty(&users);
    let join = |d: &Delta, r: RowSet<'_>| drop(d.join_right(r, "uid", "tid").unwrap());
    assert_eq!(examined_by(|| join(&empty, RowSet::scan(&big))), 0);

    // A ten-row ΔL joined to R's unique `tid` through the catalog: the
    // first join reads R's key column; the second builds R's column index,
    // and it and every later one read the ten probe keys plus their
    // buckets (about two rows each), not the table.
    let mut cat = Catalog::new();
    cat.register("tweets", big.clone());
    let ten = Delta::inserts(
        &users,
        (0..10).map(|i| vec![Value::Int(i * 997), Value::Int(1)]).collect(),
    )
    .unwrap();
    assert_eq!(examined_by(|| join(&ten, cat.scan("tweets").unwrap())), 50_000);
    for run in 0..3 {
        let cost = examined_by(|| join(&ten, cat.scan("tweets").unwrap()));
        assert!((20..=100).contains(&cost), "run {run}: {cost}");
    }

    // The same through the maintainer: `users ⋈ tweets` with only tweets
    // updated. ΔL is empty, so propagation reads the 3 cached rows of L
    // for L ⋈ ΔR and not one of the 50k rows of R; the view gains rows by
    // appending, which reads nothing either.
    let mut cat = Catalog::new();
    cat.register("tweets", big);
    cat.register(
        "users",
        Table::new(vec![
            ("uid", Column::Int(vec![0, 1, 2])),
            ("verified", Column::Int(vec![1, 1, 1])),
        ]),
    );
    let def = RelQuery::scan("users").join("tweets", "uid", "uid");
    let joined = def.execute(&cat).unwrap();
    cat.register("verified_tweets", joined);
    let views = [TableView { name: "verified_tweets".into(), def }];
    let mut maintainer = ViewMaintainer::new();
    maintainer.track(&cat, views[0].clone()).unwrap();
    cat.insert_rows(
        "tweets",
        (0..10).map(|i| vec![Value::Int(90_000 + i), Value::Int(i % 5)]).collect(),
    )
    .unwrap();
    let cost = examined_by(|| {
        let report = maintainer.maintain(&mut cat).unwrap();
        assert_eq!(report.rows_touched(), 6, "uids 0, 1, 2 of 0..5, twice each");
    });
    assert_eq!(cost, 3, "L ⋈ ΔR scans L's key column once; R is never read");
}
