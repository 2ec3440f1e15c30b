//! Relational operators: hash join, sort.
//! These are the `Rops` of the paper's hybrid language (§3). Each takes
//! tables and returns a table; [`hash_join`] and [`sort_by_int`] are one
//! step of the [`crate::rowset`] executor followed by its gather, which is
//! where a pipeline of several stages should stay until its last one.
//!
//! Operators that look columns up by name return [`OpsError`] when the
//! name does not resolve — a malformed query must surface as a typed error
//! through `RelQuery` execution, never as a panic.

use std::fmt;

use crate::rowset::{ColRef, RowSet};
use crate::table::Table;

/// A relational operator was pointed at a column the table does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpsError {
    /// A named column was absent from the operator's input.
    MissingColumn {
        /// Operator that failed (`"hash_join"`, `"sort_by_int"`).
        op: &'static str,
        /// The missing column.
        column: String,
    },
}

impl fmt::Display for OpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpsError::MissingColumn { op, column } => {
                write!(f, "{op}: no column {column}")
            }
        }
    }
}

impl std::error::Error for OpsError {}

fn require_index(t: &Table, op: &'static str, col: &str) -> Result<usize, OpsError> {
    t.column_index(col).ok_or_else(|| OpsError::MissingColumn { op, column: col.to_owned() })
}

/// Hash equi-join on key columns of any type, under [`crate::rowset`]'s one
/// cell equality. Output keeps all columns of the left table and the
/// non-key columns of the right, prefixing right-side names that collide
/// with `right.` (repeatedly, until unique — the left table may itself
/// carry a `right.<name>` column from an earlier join). Rows come out in
/// left order, right rows ascending within one left row.
pub fn hash_join(
    left: &Table,
    left_key: &str,
    right: &Table,
    right_key: &str,
) -> Result<Table, OpsError> {
    let lk = require_index(left, "hash_join", left_key)?;
    let rk = require_index(right, "hash_join", right_key)?;
    let mut rows = RowSet::scan(left);
    rows.hash_join(ColRef { source: 0, column: lk }, RowSet::scan(right), rk);
    Ok(rows.gather())
}

/// Sorts rows ascending by an integer key (relation → matrix casts need a
/// defined order, cf. paper §3). The sort is stable; cells without an
/// integer key sort last.
pub fn sort_by_int(t: &Table, key: &str) -> Result<Table, OpsError> {
    let column = require_index(t, "sort_by_int", key)?;
    let mut rows = RowSet::scan(t);
    rows.sort_by_key(ColRef { source: 0, column });
    Ok(rows.gather())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Value};

    fn users() -> Table {
        Table::new(vec![
            ("id", Column::Int(vec![1, 2, 3])),
            ("followers", Column::Int(vec![10, 20, 30])),
        ])
    }

    fn tweets() -> Table {
        Table::new(vec![
            ("tid", Column::Int(vec![100, 101, 102, 103])),
            ("uid", Column::Int(vec![1, 1, 2, 9])),
            (
                "text",
                Column::Str(vec![
                    "covid update".into(),
                    "hello".into(),
                    "covid news".into(),
                    "other".into(),
                ]),
            ),
        ])
    }

    #[test]
    fn join_matches_keys() {
        let j = hash_join(&tweets(), "uid", &users(), "id").unwrap();
        // tweet 103 has uid 9 with no matching user: dropped.
        assert_eq!(j.num_rows(), 3);
        assert_eq!(j.value(0, "followers"), Value::Int(10));
        assert_eq!(j.value(2, "followers"), Value::Int(20));
    }

    #[test]
    fn join_handles_duplicate_probe_keys() {
        let j = hash_join(&tweets(), "uid", &users(), "id").unwrap();
        // User 1 posted two tweets.
        let uid_one = (0..j.num_rows()).filter(|&r| j.value(r, "uid") == Value::Int(1)).count();
        assert_eq!(uid_one, 2);
    }

    /// A float key column joins on exact integral values only: 1.0 matches
    /// key 1, while 1.2 and 1.9 match nothing (truncation used to merge
    /// them all onto key 1).
    #[test]
    fn join_on_float_key_requires_integral_values() {
        let measurements = Table::new(vec![
            ("uid", Column::Float(vec![1.0, 1.2, 1.9, 2.0])),
            ("reading", Column::Int(vec![10, 20, 30, 40])),
        ]);
        let j = hash_join(&measurements, "uid", &users(), "id").unwrap();
        assert_eq!(j.num_rows(), 2);
        assert_eq!(j.value(0, "reading"), Value::Int(10));
        assert_eq!(j.value(0, "followers"), Value::Int(10));
        assert_eq!(j.value(1, "reading"), Value::Int(40));
        assert_eq!(j.value(1, "followers"), Value::Int(20));
    }

    /// The left table already carries a `right.<name>` column (from an
    /// earlier join); the second join must not duplicate the name.
    #[test]
    fn join_uniquifies_colliding_column_names() {
        let left = Table::new(vec![
            ("id", Column::Int(vec![1, 2])),
            ("score", Column::Int(vec![5, 6])),
            ("right.score", Column::Int(vec![7, 8])),
        ]);
        let right = Table::new(vec![
            ("id", Column::Int(vec![1, 2])),
            ("score", Column::Int(vec![50, 60])),
        ]);
        let j = hash_join(&left, "id", &right, "id").unwrap();
        assert_eq!(
            j.column_names(),
            &[
                "id".to_string(),
                "score".to_string(),
                "right.score".to_string(),
                "right.right.score".to_string(),
            ]
        );
        assert_eq!(j.value(0, "score"), Value::Int(5));
        assert_eq!(j.value(0, "right.score"), Value::Int(7));
        assert_eq!(j.value(0, "right.right.score"), Value::Int(50));
    }

    #[test]
    fn aggregation_and_sort() {
        let shuffled = users().gather(&[2, 0, 1]);
        let sorted = sort_by_int(&shuffled, "id").unwrap();
        assert_eq!(sorted.value(0, "id"), Value::Int(1));
        assert_eq!(sorted.value(2, "id"), Value::Int(3));
    }

    #[test]
    fn missing_columns_are_typed_errors() {
        let u = users();
        let missing = |e: Result<Table, OpsError>, op: &str| match e {
            Err(OpsError::MissingColumn { op: got, column }) => {
                assert_eq!(got, op);
                assert_eq!(column, "nope");
            }
            other => panic!("expected MissingColumn from {op}, got {other:?}"),
        };
        missing(hash_join(&u, "nope", &u, "id"), "hash_join");
        missing(hash_join(&u, "id", &u, "nope"), "hash_join");
        missing(sort_by_int(&u, "nope"), "sort_by_int");
    }
}
