//! In-memory relational substrate for HADAD's hybrid (RA + LA) experiments.
//!
//! The paper's hybrid queries (§9.2) run a relational preprocessing stage
//! (SparkSQL in the paper) that joins and filters tables, then casts the
//! result to a matrix consumed by the LA stage. This crate provides that
//! substrate: columnar tables, select / project / hash-join / aggregate
//! operators over one late-materializing executor ([`rowset`]: typed passes
//! over row ids, one gather at the end), and the table↔matrix conversions
//! of the paper's §3 data model (matrix → relation forgets row order;
//! relation → matrix fixes an arbitrary one unless sorted first).
//!
//! Base tables mutate through the catalog's logged `insert_rows` /
//! `delete_rows` API; the [`ivm`] module supplies the signed-multiset
//! deltas and per-operator delta rules (counting semantics) that let a
//! view maintainer keep materialized views consistent without
//! re-executing their definitions.

#![forbid(unsafe_code)]

pub mod cast;
pub mod catalog;
pub mod ivm;
pub mod ops;
pub mod row_index;
pub mod rowset;
pub mod table;

pub use catalog::Catalog;
pub use ivm::{apply_delta, Delta, IvmError, TableUpdate, UpdateLog};
pub use ops::OpsError;
pub use row_index::IndexedTable;
pub use rowset::RowSet;
pub use table::{Column, Table, Value};
