//! The cast between the two halves of a hybrid pipeline (paper §3): how a
//! relational prefix's output becomes the matrix the LA suffix reads
//! ([`CastKind`], one implementation — `apply_cast`), and a cast whose
//! catalogued metadata follows its source table across updates
//! ([`MaintainedCast`]). The [`crate::ViewMaintainer`] owns the maintained
//! casts and decides when one is re-stamped; `restamp_cast` only computes
//! the metadata, which the caller catalogues.

use hadad_core::MatrixMeta;
use hadad_linalg::Matrix;
use hadad_relational::cast::{table_to_matrix, table_to_sparse};
use hadad_relational::{Catalog, Table};

use crate::hybrid::HybridError;

/// How the relational prefix's output becomes a matrix (paper §3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// One row per tuple, one column per named numeric column.
    Dense {
        /// Numeric columns that become the matrix columns, in order.
        columns: Vec<String>,
    },
    /// Ultra-sparse `rows x cols` matrix from (row-id, col-id, value)
    /// columns — the tweet/MIMIC filter-level matrix construction.
    Sparse {
        /// Column holding the 0-based row id of each entry.
        row: String,
        /// Column holding the 0-based column id of each entry.
        col: String,
        /// Column holding the numeric value of each entry.
        val: String,
        /// Row count of the cast matrix.
        rows: usize,
        /// Column count of the cast matrix.
        cols: usize,
    },
}

/// A cast whose matrix metadata is kept fresh across base-table updates:
/// each maintenance pass that touches the source view (or base table)
/// re-casts it, and its [`MatrixMeta`] — shape and nnz, all the cost
/// oracle reads — is re-stamped into the LA optimizer's catalog, so the
/// suffix cost oracle prices post-update instances correctly.
#[derive(Debug, Clone)]
pub struct MaintainedCast {
    /// Name the matrix metadata is stamped under in the LA catalog.
    pub cast_name: String,
    /// Catalog table (usually a maintained view) the cast reads.
    pub view: String,
    /// Row order of a dense cast, as in [`crate::HybridPipeline`]. Part of the
    /// cast's description and validated (the column must exist), but never
    /// applied when stamping: shape and nnz are invariant under row
    /// permutation.
    pub sort_key: Option<String>,
    /// How the source rows become the maintained matrix.
    pub cast: CastKind,
}

/// Re-casts a maintained cast's source table and returns the metadata to
/// catalogue the cast under. The rows are cast in table order: the
/// stamped shape and nnz do not depend on it, so the `sort_key` is
/// checked, not applied.
pub(crate) fn restamp_cast(
    catalog: &Catalog,
    cast: &MaintainedCast,
) -> Result<MatrixMeta, HybridError> {
    // Fault surface: a re-stamp failure after maintenance drained the log
    // must poison the maintainer, not pass silently.
    hadad_failpoint::hit("hybrid.restamp")?;
    let t =
        catalog.get(&cast.view).ok_or_else(|| HybridError::MissingTable(cast.view.clone()))?;
    if let Some(key) = &cast.sort_key {
        require_column(t, key)?;
    }
    Ok(MatrixMeta::from_matrix(&apply_cast(t, &cast.cast)?))
}

pub(crate) fn apply_cast(t: &Table, kind: &CastKind) -> Result<Matrix, HybridError> {
    match kind {
        CastKind::Dense { columns } => {
            for c in columns {
                require_column(t, c)?;
            }
            let refs: Vec<&str> = columns.iter().map(std::string::String::as_str).collect();
            Ok(table_to_matrix(t, &refs))
        }
        CastKind::Sparse { row, col, val, rows, cols } => {
            require_column(t, row)?;
            require_column(t, col)?;
            require_column(t, val)?;
            Ok(table_to_sparse(t, row, col, val, *rows, *cols))
        }
    }
}

fn require_column(t: &Table, name: &str) -> Result<(), HybridError> {
    if t.column_index(name).is_none() {
        return Err(HybridError::MissingColumn(name.to_owned()));
    }
    Ok(())
}
