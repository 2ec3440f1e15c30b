//! Columnar tables.

use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Owned UTF-8 string.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    /// Numeric view (ints widen to f64); `None` for strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// Integer view. Non-integral floats return `None` — truncating them
    /// would silently merge distinct join/group keys (1.2 and 1.9 both
    /// landing on key 1).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => float_key(*v),
            Value::Str(_) => None,
        }
    }
}

/// The integer a float cell is: integral, in-range floats only. The range
/// ends below 2⁶³, which `i64::MAX as f64` rounds up to and no `i64` is.
pub(crate) fn float_key(v: f64) -> Option<i64> {
    if v.fract() == 0.0 && v >= i64::MIN as f64 && v < i64::MAX as f64 {
        Some(v as i64)
    } else {
        None
    }
}

/// Whether two columns hold one cell type.
pub(crate) fn same_type(a: &Column, b: &Column) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
}

impl Column {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell at `row` as an owned [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Float(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Integer key of the cell at `row` — exactly `self.value(row).as_i64()`
    /// without building the [`Value`] (no `String` clone on `Str` columns,
    /// which never key).
    pub fn key_at(&self, row: usize) -> Option<i64> {
        match self {
            Column::Int(v) => Some(v[row]),
            Column::Float(v) => float_key(v[row]),
            Column::Str(_) => None,
        }
    }

    /// Appends a value of the column's own type; `false` (and no change) on
    /// a type mismatch — the mutation API refuses heterogeneous columns
    /// rather than silently coercing.
    pub fn push(&mut self, v: &Value) -> bool {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => c.push(*x),
            (Column::Float(c), Value::Float(x)) => c.push(*x),
            (Column::Str(c), Value::Str(x)) => c.push(x.clone()),
            _ => return false,
        }
        true
    }

    /// `true` when a value has this column's type.
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Column::Int(_), Value::Int(_))
                | (Column::Float(_), Value::Float(_))
                | (Column::Str(_), Value::Str(_))
        )
    }

    /// An empty column of this column's type.
    pub(crate) fn empty_like(&self) -> Column {
        match self {
            Column::Int(_) => Column::Int(Vec::new()),
            Column::Float(_) => Column::Float(Vec::new()),
            Column::Str(_) => Column::Str(Vec::new()),
        }
    }

    /// The cell type's name, for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Column::Int(_) => "Int",
            Column::Float(_) => "Float",
            Column::Str(_) => "Str",
        }
    }

    /// Moves every cell of `src` (a column of the same type) onto the end;
    /// `false` (and no change) on a type mismatch.
    pub(crate) fn append(&mut self, src: Column) -> bool {
        match (self, src) {
            (Column::Int(c), Column::Int(s)) => c.extend(s),
            (Column::Float(c), Column::Float(s)) => c.extend(s),
            (Column::Str(c), Column::Str(s)) => c.extend(s),
            _ => return false,
        }
        true
    }

    /// Appends the cells of `src` (a column of the same type) at `rows`,
    /// in order; `false` (and no change) on a type mismatch.
    pub(crate) fn extend_gathered(&mut self, src: &Column, rows: &[u32]) -> bool {
        let rows = rows.iter().map(|&r| r as usize);
        match (self, src) {
            (Column::Int(c), Column::Int(s)) => c.extend(rows.map(|r| s[r])),
            (Column::Float(c), Column::Float(s)) => c.extend(rows.map(|r| s[r])),
            (Column::Str(c), Column::Str(s)) => c.extend(rows.map(|r| s[r].clone())),
            _ => return false,
        }
        true
    }

    /// Removes the cell at `row` by moving the last cell into its place.
    fn swap_remove(&mut self, row: usize) {
        match self {
            Column::Int(v) => {
                v.swap_remove(row);
            }
            Column::Float(v) => {
                v.swap_remove(row);
            }
            Column::Str(v) => {
                v.swap_remove(row);
            }
        }
    }

    /// Gathers the rows at `indices` into a new column.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Numeric view of a cell; strings hash-encode (stable) for one-hot-ish
    /// casts, mirroring the paper's MIMIC preprocessing where categorical
    /// features become numeric.
    pub fn numeric(&self, row: usize) -> f64 {
        match self {
            Column::Int(v) => v[row] as f64,
            Column::Float(v) => v[row],
            Column::Str(v) => str_numeric(&v[row]),
        }
    }
}

/// The numeric view of a string cell ([`Column::numeric`]).
pub(crate) fn str_numeric(s: &str) -> f64 {
    // Reduce in u64 *before* the f64 cast: hashes exceed 2^53, so casting
    // first would round and make the encoding depend on platform float
    // rounding.
    (stable_hash(s) % 1000) as f64
}

pub(crate) fn stable_hash(s: &str) -> u64 {
    // FNV-1a: deterministic across runs (unlike `DefaultHasher` seeds).
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A named-column table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    names: Vec<String>,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Builds a table from `(name, column)` pairs; all columns must agree
    /// on length.
    pub fn new(columns: Vec<(&str, Column)>) -> Self {
        let rows = columns.first().map_or(0, |(_, c)| c.len());
        for (name, c) in &columns {
            assert_eq!(c.len(), rows, "column {name} has inconsistent length");
        }
        Table {
            names: columns.iter().map(|(n, _)| n.to_string()).collect(),
            columns: columns.into_iter().map(|(_, c)| c).collect(),
            rows,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names, in schema order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Position of column `name`, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Cell accessor.
    pub fn value(&self, row: usize, col: &str) -> Value {
        let i = self.column_index(col).unwrap_or_else(|| panic!("no column {col}"));
        self.columns[i].value(row)
    }

    /// New table with the rows at `indices`, in order.
    pub fn gather(&self, indices: &[usize]) -> Table {
        Table {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// The row's cells, in column order.
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(r)).collect()
    }

    /// An empty table with this table's column names and types.
    pub(crate) fn empty_like(&self) -> Table {
        Table {
            names: self.names.clone(),
            columns: self.columns.iter().map(Column::empty_like).collect(),
            rows: 0,
        }
    }

    /// The rows `rows`, converted once into columns of `schema`'s names and
    /// types (strings are moved, not cloned). Errors, with the first failing
    /// row's [`Table::row_matches_schema`] detail, on an arity or type
    /// mismatch.
    pub(crate) fn from_rows(
        schema: &Table,
        mut rows: Vec<Vec<Value>>,
    ) -> Result<Table, String> {
        let first_error = |rows: &[Vec<Value>]| {
            rows.iter().find_map(|r| schema.row_matches_schema(r).err()).unwrap_or_default()
        };
        if rows.iter().any(|r| r.len() != schema.num_cols()) {
            return Err(first_error(&rows));
        }
        /// Column `c` of `rows` as cells of one type, or `None` at the first
        /// cell of another; sized once, whatever the row count.
        fn typed<T>(
            rows: &mut [Vec<Value>],
            c: usize,
            cell: impl Fn(&mut Value) -> Option<T>,
        ) -> Option<Vec<T>> {
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                out.push(cell(&mut r[c])?);
            }
            Some(out)
        }
        let mut columns = Vec::with_capacity(schema.num_cols());
        for (c, like) in schema.columns.iter().enumerate() {
            let column = match like {
                Column::Int(_) => typed(&mut rows, c, |v| match v {
                    Value::Int(x) => Some(*x),
                    _ => None,
                })
                .map(Column::Int),
                Column::Float(_) => typed(&mut rows, c, |v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                })
                .map(Column::Float),
                // A taken string leaves a `Str` behind: the error scan still
                // sees every cell's type.
                Column::Str(_) => typed(&mut rows, c, |v| match v {
                    Value::Str(x) => Some(std::mem::take(x)),
                    _ => None,
                })
                .map(Column::Str),
            };
            match column {
                Some(column) => columns.push(column),
                None => return Err(first_error(&rows)),
            }
        }
        Ok(Table { names: schema.names.clone(), columns, rows: rows.len() })
    }

    /// The first disagreement between this table's column names and types
    /// and `other`'s, if any.
    pub(crate) fn schema_mismatch(&self, other: &Table) -> Option<String> {
        if self.names != other.names {
            return Some(format!("columns {:?} vs {:?}", self.names, other.names));
        }
        let (a, b) = (&self.columns, &other.columns);
        let c = (0..a.len()).find(|&c| !same_type(&a[c], &b[c]))?;
        Some(format!(
            "column {} is {} vs {}",
            self.names[c],
            a[c].type_name(),
            b[c].type_name()
        ))
    }

    /// Moves every row of `src` onto the end, one column at a time. `src`
    /// must have this table's column types (see [`Table::schema_mismatch`]).
    pub(crate) fn append(&mut self, src: Table) {
        self.rows += src.rows;
        for (c, s) in self.columns.iter_mut().zip(src.columns) {
            let ok = c.append(s);
            assert!(ok, "append across column types");
        }
    }

    /// Appends the rows `rows` of `src`, in order, one column at a time.
    /// `src` must have this table's column types (see
    /// [`Table::schema_mismatch`]).
    pub(crate) fn append_gathered(&mut self, src: &Table, rows: &[u32]) {
        for (c, s) in self.columns.iter_mut().zip(&src.columns) {
            let ok = c.extend_gathered(s, rows);
            assert!(ok, "append_gathered across column types");
        }
        self.rows += rows.len();
    }

    /// Checks a row against the table's schema (arity and per-column
    /// types) without mutating anything.
    pub fn row_matches_schema(&self, row: &[Value]) -> Result<(), String> {
        if row.len() != self.columns.len() {
            return Err(format!(
                "row has {} cells, table has {} columns",
                row.len(),
                self.columns.len()
            ));
        }
        for (i, (c, v)) in self.columns.iter().zip(row).enumerate() {
            if !c.accepts(v) {
                return Err(format!(
                    "cell {v} does not match the type of column {}",
                    self.names[i]
                ));
            }
        }
        Ok(())
    }

    /// Appends a row; errors (leaving the table unchanged) on an arity or
    /// type mismatch.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), String> {
        self.row_matches_schema(row)?;
        for (c, v) in self.columns.iter_mut().zip(row) {
            let ok = c.push(v);
            debug_assert!(ok, "schema pre-check admitted a mismatched cell");
        }
        self.rows += 1;
        Ok(())
    }

    /// Removes row `r` in O(columns) by moving the last row into its
    /// place; every other row keeps its position. Panics when `r` is out
    /// of range.
    pub fn swap_remove_row(&mut self, r: usize) {
        assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
        for c in &mut self.columns {
            c.swap_remove(r);
        }
        self.rows -= 1;
    }

    /// Appends a column; panics on length mismatch.
    pub fn with_column(mut self, name: &str, col: Column) -> Table {
        assert_eq!(col.len(), self.rows);
        self.names.push(name.to_string());
        self.columns.push(col);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(vec![
            ("id", Column::Int(vec![1, 2, 3])),
            ("score", Column::Float(vec![0.5, 1.5, 2.5])),
            ("name", Column::Str(vec!["a".into(), "b".into(), "c".into()])),
        ])
    }

    #[test]
    fn shape_and_lookup() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 3);
        assert_eq!(t.value(1, "id"), Value::Int(2));
        assert_eq!(t.value(2, "name"), Value::Str("c".into()));
        assert_eq!(t.column_index("score"), Some(1));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    fn gather_reorders() {
        let t = sample().gather(&[2, 0]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, "id"), Value::Int(3));
        assert_eq!(t.value(1, "id"), Value::Int(1));
    }

    #[test]
    fn push_row_is_typed_and_atomic() {
        let mut t = sample();
        t.push_row(&[Value::Int(4), Value::Float(3.5), Value::Str("d".into())]).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.row(3), vec![Value::Int(4), Value::Float(3.5), Value::Str("d".into())]);
        // Arity mismatch.
        assert!(t.push_row(&[Value::Int(5)]).is_err());
        // Type mismatch (Float into an Int column) leaves the table intact.
        assert!(t
            .push_row(&[Value::Float(5.0), Value::Float(0.0), Value::Str("e".into())])
            .is_err());
        assert_eq!(t.num_rows(), 4);
        for c in 0..t.num_cols() {
            assert_eq!(t.column_at(c).len(), 4);
        }
    }

    #[test]
    fn swap_remove_row_moves_the_last_row_in() {
        let mut t = sample();
        t.swap_remove_row(0);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0), vec![Value::Int(3), Value::Float(2.5), Value::Str("c".into())]);
        assert_eq!(t.row(1), vec![Value::Int(2), Value::Float(1.5), Value::Str("b".into())]);
        t.swap_remove_row(1);
        t.swap_remove_row(0);
        assert_eq!(t.num_rows(), 0);
        assert!((0..t.num_cols()).all(|c| t.column_at(c).is_empty()));
    }

    #[test]
    fn key_at_agrees_with_value_as_i64() {
        let cols = [
            Column::Int(vec![i64::MIN, -1, 0, 7]),
            Column::Float(vec![2.0, 2.5, -0.0, f64::NAN, f64::INFINITY, 1e300]),
            Column::Str(vec!["7".into(), "".into()]),
        ];
        for c in &cols {
            for r in 0..c.len() {
                assert_eq!(c.key_at(r), c.value(r).as_i64(), "{c:?} row {r}");
            }
        }
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.0).as_i64(), Some(2));
        // Non-integral floats are not integers: truncation would merge
        // distinct keys.
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert_eq!(Value::Float(-0.5).as_i64(), None);
        assert_eq!(Value::Float(f64::NAN).as_i64(), None);
        // The `i64` range exactly: -2⁶³ is in it, 2⁶³ is not.
        assert_eq!(Value::Float(i64::MIN as f64).as_i64(), Some(i64::MIN));
        assert_eq!(Value::Float(i64::MAX as f64).as_i64(), None);
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn string_numeric_encoding_is_deterministic() {
        let c = Column::Str(vec!["hello".into(), "hello".into()]);
        assert_eq!(c.numeric(0), c.numeric(1));
    }

    /// Pins the categorical encoding to exact values: FNV-1a reduced mod
    /// 1000 in integer space. A platform-rounding-dependent u64→f64 cast
    /// before the modulo would shift these.
    #[test]
    fn string_numeric_encoding_is_pinned() {
        let expected = |s: &str| (stable_hash(s) % 1000) as f64;
        let c = Column::Str(vec!["hello".into(), "covid".into(), "".into()]);
        assert_eq!(c.numeric(0), expected("hello"));
        assert_eq!(c.numeric(1), expected("covid"));
        assert_eq!(c.numeric(2), expected(""));
        // Exact FNV-1a values, computed independently.
        assert_eq!(stable_hash(""), 0xcbf29ce484222325);
        assert_eq!(stable_hash("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(c.numeric(2), 37.0); // 14695981039346656037 % 1000
                                        // All encodings land in [0, 1000).
        for r in 0..3 {
            assert!((0.0..1000.0).contains(&c.numeric(r)));
        }
    }
}
