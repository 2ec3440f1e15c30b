//! A selection that keeps every row allocates no selection vector, and
//! counts what an explicit identity selection counts: the keep-all filters
//! (a scan, the column index's build, a bucket read, column against column)
//! and a sort of rows already in key order, alone and with a join after
//! each, move `relexec.rows_in`, `rows_out`, `cells_gathered` and
//! `index_builds` by the same amounts.
//!
//! The counters are process-global, so this binary holds exactly one test —
//! nothing else may move them between two reads.

use hadad_relational::{Catalog, Column, RowSet, Table, Value};

const N: i64 = 1_000;
const USERS: i64 = 100;

/// `(rows_in, rows_out, cells_gathered, index_builds)` moved while `f` runs.
fn counted(f: impl FnOnce() -> Table) -> (Table, [u64; 4]) {
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

/// `rows` joined with `users` on `uid`, gathered.
fn joined<'a>(mut rows: RowSet<'a>, users: &'a Table) -> Table {
    rows.hash_join(rows.column("uid").unwrap(), RowSet::scan(users), 0);
    rows.gather()
}

#[test]
fn keep_all_selections_count_what_an_identity_selection_counted() {
    let mut catalog = Catalog::new();
    let tweets = Table::new(vec![
        ("tid", Column::Int((0..N).collect())),
        ("uid", Column::Int((0..N).map(|i| i * 7 % (USERS + 20)).collect())),
        ("level", Column::Int(vec![3; N as usize])),
    ]);
    let users = Table::new(vec![
        ("uid", Column::Int((0..USERS).collect())),
        ("name", Column::Str((0..USERS).map(|i| format!("user {i}")).collect())),
    ]);
    catalog.register("tweets", tweets.clone());
    let scan = || catalog.scan("tweets").unwrap();
    let level = |rows: &RowSet<'_>| rows.column("level").unwrap();
    let n = N as u64;
    let matched = (0..N).filter(|i| i * 7 % (USERS + 20) < USERS).count() as u64;

    // The first lookup of `level` scans, the second builds its index, the
    // third reads the bucket: every row, each time.
    for builds in [0, 1, 0] {
        let (out, counts) = counted(|| {
            let mut rows = scan();
            rows.filter(level(&rows), &Value::Int(3));
            rows.gather()
        });
        assert_eq!(out, tweets);
        assert_eq!(counts, [n, n, 3 * n, builds]);
    }
    // A join after the bucket read chains both sides, as after a pick.
    let (out, counts) = counted(|| {
        let mut rows = scan();
        rows.filter(level(&rows), &Value::Int(3));
        joined(rows, &users)
    });
    assert_eq!(out.num_rows() as u64, matched);
    assert_eq!(counts, [n + n + USERS as u64, matched, 4 * matched, 0]);

    // Column against column, alone and before a join.
    let (out, counts) = counted(|| {
        let mut rows = scan();
        rows.filter_eq(level(&rows), level(&rows));
        rows.gather()
    });
    assert_eq!(out, tweets);
    assert_eq!(counts, [n, n, 3 * n, 0]);
    let (_, counts) = counted(|| {
        let mut rows = scan();
        rows.filter_eq(level(&rows), level(&rows));
        joined(rows, &users)
    });
    assert_eq!(counts, [n + n + USERS as u64, matched, 4 * matched, 0]);

    // A sort of rows already in `tid` order reads nothing; a join after it
    // still chains both sides (`uid` was looked up once before, by the
    // joins above, through no index).
    let (out, counts) = counted(|| {
        let mut rows = scan();
        rows.sort_by_key(rows.column("tid").unwrap());
        rows.gather()
    });
    assert_eq!(out, tweets);
    assert_eq!(counts, [0, n, 3 * n, 0]);
    let (out, counts) = counted(|| {
        let mut rows = scan();
        rows.sort_by_key(rows.column("tid").unwrap());
        joined(rows, &users)
    });
    assert_eq!(out.num_rows() as u64, matched);
    assert_eq!(counts, [n + USERS as u64, matched, 4 * matched, 0]);
}
