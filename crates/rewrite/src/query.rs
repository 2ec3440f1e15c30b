//! The relational query language of a hybrid pipeline's prefix and its two
//! executions.
//!
//! A [`RelQuery`] is a scan plus declarative stages ([`RelOp`]), restricted
//! to the CQ-expressible fragment. It runs as written
//! ([`RelQuery::execute`]), and it compiles ([`RelQuery::compile`]) to a
//! [`Cq`] over a [`TableVocab`] — the form PACB reformulates over table
//! views, whose rewritings [`eval_cq`] then runs. Both executions sit on
//! one executor, [`hadad_relational::rowset`]: stages and atoms rewrite
//! `u32` selection vectors over the borrowed catalog tables, a sort key
//! reorders those vectors, each output column is gathered once at the end —
//! and on its one cell equality, so a `HashJoin` stage and the shared
//! variable it compiles to pair the same rows. Constants cross the CQ as
//! interned symbols: strings quote-wrapped, so `Str("7")` never meets the
//! number 7.

use std::collections::HashMap;

use hadad_chase::{Atom, Cq, PredId, Term, Vocabulary};
use hadad_relational::rowset::{push_joined_columns, ColRef, Out};
use hadad_relational::{Catalog, RowSet, Table, Value};

use crate::hybrid::HybridError;

/// One declarative relational stage. These mirror the executable operators
/// in `hadad_relational::ops` (and run on the executor under them),
/// restricted to the CQ-expressible fragment so the prefix can be
/// reformulated by PACB.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// Equality selection on an integer column (the column position becomes
    /// a constant in the compiled CQ).
    SelectEq {
        /// Column the selection filters on.
        column: String,
        /// The integer constant selected.
        value: i64,
    },
    /// Equality selection on a string column.
    SelectStrEq {
        /// Column the selection filters on.
        column: String,
        /// The string constant selected.
        value: String,
    },
    /// Hash equi-join with another catalog table; right-side columns that
    /// collide are prefixed `right.` (repeatedly, until unique), exactly as
    /// `ops::hash_join` does.
    HashJoin {
        /// Right-side catalog table.
        table: String,
        /// Join key on the accumulated left side.
        left_key: String,
        /// Join key on the right table.
        right_key: String,
    },
    /// Projection to the named columns, in order.
    Project {
        /// Output columns, in order.
        columns: Vec<String>,
    },
}

impl RelOp {
    /// Applies this stage to a relation under construction — shared by
    /// [`RelQuery::execute`] and the view maintainer (which replays stages
    /// to cache join inputs).
    pub(crate) fn apply<'c>(
        &self,
        rows: &mut RowSet<'c>,
        catalog: &'c Catalog,
    ) -> Result<(), HybridError> {
        match self {
            RelOp::SelectEq { column: name, value } => {
                rows.filter(column(rows, name)?, &Value::Int(*value));
            }
            RelOp::SelectStrEq { column: name, value } => {
                rows.filter(column(rows, name)?, &Value::Str(value.clone()));
            }
            RelOp::HashJoin { table, left_key, right_key } => {
                let right = catalog
                    .scan(table)
                    .ok_or_else(|| HybridError::MissingTable(table.clone()))?;
                let left = column(rows, left_key)?;
                let right_key = column(&right, right_key)?.column;
                rows.hash_join(left, right, right_key);
            }
            RelOp::Project { columns } => {
                rows.project(columns).map_err(HybridError::MissingColumn)?;
            }
        }
        Ok(())
    }
}

/// The cell behind output column `name` of a relation under construction.
pub(crate) fn column(rows: &RowSet<'_>, name: &str) -> Result<ColRef, HybridError> {
    rows.column(name).ok_or_else(|| HybridError::MissingColumn(name.to_owned()))
}

/// A relational query: a scan of a catalog table followed by stages.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelQuery {
    /// The catalog table the scan starts from.
    pub table: String,
    /// The declarative stages applied to the scan, in order.
    pub ops: Vec<RelOp>,
}

impl RelQuery {
    /// A bare scan of `table` with no stages yet.
    pub fn scan(table: impl Into<String>) -> Self {
        RelQuery { table: table.into(), ops: Vec::new() }
    }

    /// Appends an integer equality selection.
    pub fn select_eq(mut self, column: impl Into<String>, value: i64) -> Self {
        self.ops.push(RelOp::SelectEq { column: column.into(), value });
        self
    }

    /// Appends a string equality selection.
    pub fn select_str_eq(
        mut self,
        column: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.ops.push(RelOp::SelectStrEq { column: column.into(), value: value.into() });
        self
    }

    /// Appends a hash equi-join with `table` on `left_key = right_key`.
    pub fn join(
        mut self,
        table: impl Into<String>,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Self {
        self.ops.push(RelOp::HashJoin {
            table: table.into(),
            left_key: left_key.into(),
            right_key: right_key.into(),
        });
        self
    }

    /// Appends a projection to `columns`, in order.
    pub fn project(mut self, columns: &[&str]) -> Self {
        self.ops.push(RelOp::Project {
            columns: columns.iter().map(std::string::ToString::to_string).collect(),
        });
        self
    }

    /// Runs the query on the [`RowSet`] executor: every stage rewrites
    /// selection vectors over the borrowed catalog tables (the scan and
    /// every join's right side through [`Catalog::scan`], so their column
    /// indexes serve a selection or a join key), and the output columns are
    /// gathered once, after the last stage. A stage-less query is the only
    /// one that copies its whole scan table.
    pub fn execute(&self, catalog: &Catalog) -> Result<Table, HybridError> {
        self.execute_sorted(catalog, None)
    }

    /// [`RelQuery::execute`] with the rows stably sorted ascending by the
    /// integer key `sort_key` — the sort reorders selection vectors before
    /// the gather, so nothing is materialized twice.
    pub(crate) fn execute_sorted(
        &self,
        catalog: &Catalog,
        sort_key: Option<&str>,
    ) -> Result<Table, HybridError> {
        let mut rows = catalog
            .scan(&self.table)
            .ok_or_else(|| HybridError::MissingTable(self.table.clone()))?;
        for op in &self.ops {
            op.apply(&mut rows, catalog)?;
        }
        if let Some(key) = sort_key {
            rows.sort_by_key(column(&rows, key)?);
        }
        Ok(rows.gather())
    }

    /// Compiles the query to a CQ over the table vocabulary. Selections
    /// become constants (possibly in the head — rewritings preserve them),
    /// joins share variables across atoms, and the projection picks the
    /// head terms. The returned column names mirror the executable
    /// pipeline's output schema exactly, including `right.` prefixing.
    pub fn compile(
        &self,
        catalog: &Catalog,
        tv: &mut TableVocab,
    ) -> Result<CompiledQuery, HybridError> {
        let mut next_var = 0u32;
        let fresh = |n: &mut u32| {
            let v = *n;
            *n += 1;
            Term::Var(v)
        };

        let base = catalog
            .get(&self.table)
            .ok_or_else(|| HybridError::MissingTable(self.table.clone()))?;
        let mut cols: Vec<(String, Term)> =
            base.column_names().iter().map(|n| (n.clone(), fresh(&mut next_var))).collect();
        let mut atoms =
            vec![Atom::new(tv.pred(&self.table)?, cols.iter().map(|(_, t)| *t).collect())];

        let select_const = |column: &str,
                            sym: Term,
                            cols: &mut Vec<(String, Term)>,
                            atoms: &mut Vec<Atom>|
         -> Result<(), HybridError> {
            let cur = cols
                .iter()
                .find(|(n, _)| n == column)
                .map(|(_, t)| *t)
                .ok_or_else(|| HybridError::MissingColumn(column.to_owned()))?;
            match cur {
                Term::Var(v) => {
                    let subst = |t: &mut Term| {
                        if *t == Term::Var(v) {
                            *t = sym;
                        }
                    };
                    for a in atoms.iter_mut() {
                        a.args.iter_mut().for_each(&subst);
                    }
                    for (_, t) in cols.iter_mut() {
                        subst(t);
                    }
                    Ok(())
                }
                c if c == sym => Ok(()),
                _ => Err(HybridError::Unsatisfiable(column.to_owned())),
            }
        };

        for op in &self.ops {
            match op {
                RelOp::SelectEq { column, value } => {
                    let sym = Term::Const(tv.vocab.int(*value));
                    select_const(column, sym, &mut cols, &mut atoms)?;
                }
                RelOp::SelectStrEq { column, value } => {
                    let sym = Term::Const(tv.vocab.constant(intern_str_const(value)));
                    select_const(column, sym, &mut cols, &mut atoms)?;
                }
                RelOp::HashJoin { table, left_key, right_key } => {
                    let right = catalog
                        .get(table)
                        .ok_or_else(|| HybridError::MissingTable(table.clone()))?;
                    let key_term = cols
                        .iter()
                        .find(|(n, _)| n == left_key)
                        .map(|(_, t)| *t)
                        .ok_or_else(|| HybridError::MissingColumn(left_key.clone()))?;
                    if right.column_index(right_key).is_none() {
                        return Err(HybridError::MissingColumn(right_key.clone()));
                    }
                    // The key's positions read the left key; every kept
                    // column gets a fresh variable under the executor's name.
                    let mut names: Vec<String> = cols.iter().map(|(n, _)| n.clone()).collect();
                    let kept = push_joined_columns(&mut names, right.column_names(), right_key);
                    let mut args = vec![key_term; right.num_cols()];
                    for (i, name) in kept.into_iter().zip(names.drain(cols.len()..)) {
                        args[i] = fresh(&mut next_var);
                        cols.push((name, args[i]));
                    }
                    atoms.push(Atom::new(tv.pred(table)?, args));
                }
                RelOp::Project { columns } => {
                    let mut picked = Vec::with_capacity(columns.len());
                    for c in columns {
                        let t = cols
                            .iter()
                            .find(|(n, _)| n == c)
                            .cloned()
                            .ok_or_else(|| HybridError::MissingColumn(c.clone()))?;
                        picked.push(t);
                    }
                    cols = picked;
                }
            }
        }

        let head: Vec<Term> = cols.iter().map(|(_, t)| *t).collect();
        let columns: Vec<String> = cols.into_iter().map(|(n, _)| n).collect();
        Ok(CompiledQuery { cq: Cq::new(head, atoms), columns })
    }
}

/// A compiled relational prefix: the CQ plus its output column names (head
/// order).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The conjunctive query over table predicates.
    pub cq: Cq,
    /// Output column names, in head order.
    pub columns: Vec<String>,
}

/// Vocabulary derived from the table catalog: one predicate per table
/// (arity = column count), with both directions of the mapping.
#[derive(Debug, Clone)]
pub struct TableVocab {
    /// The chase vocabulary the table predicates are interned in.
    pub vocab: Vocabulary,
    by_name: HashMap<String, PredId>,
    by_pred: HashMap<PredId, String>,
}

impl TableVocab {
    /// Interns one predicate per catalog table (arity = column count).
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut tv = TableVocab {
            vocab: Vocabulary::new(),
            by_name: HashMap::new(),
            by_pred: HashMap::new(),
        };
        for name in catalog.names() {
            let arity = catalog.get(name).map_or(0, hadad_relational::Table::num_cols);
            let pred = tv.vocab.predicate(name, arity);
            tv.by_name.insert(name.to_owned(), pred);
            tv.by_pred.insert(pred, name.to_owned());
        }
        tv
    }

    /// The predicate interned for `table`.
    pub fn pred(&self, table: &str) -> Result<PredId, HybridError> {
        self.by_name.get(table).copied().ok_or_else(|| HybridError::MissingTable(table.into()))
    }

    /// Reverse lookup: the table `pred` was interned for.
    pub fn table_of(&self, pred: PredId) -> Option<&str> {
        self.by_pred.get(&pred).map(std::string::String::as_str)
    }
}

/// Interned rendering of a *string* constant: wrapped in quotes so the
/// integer 7 and the string "7" intern to different symbols — otherwise a
/// rewriting's selection semantics could diverge from the executable
/// operators (which never equate `Int(7)` with `Str("7")`).
fn intern_str_const(s: &str) -> String {
    format!("\"{s}\"")
}

/// Inner value of a quote-wrapped string constant.
fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"').and_then(|rest| rest.strip_suffix('"'))
}

/// Evaluates a CQ against the catalog's tables under *bag* semantics,
/// mirroring the executable operator pipeline (a projection does not
/// deduplicate, so neither may the rewriting's evaluation — otherwise a
/// rewritten prefix would silently drop duplicate tuples from the cast).
/// Used to execute PACB rewritings, whose bodies range over materialized
/// view tables.
///
/// Runs atom by atom on the same [`RowSet`] executor as
/// [`RelQuery::execute`], each atom a [`Catalog::scan`] of its table: an
/// atom's constants (decoded once per atom; the first one can read its
/// column's index) and a variable it repeats filter its table; its first
/// already-bound variable joins it to the rows so far (through either
/// side's column index, when one side is still a bare scan); further
/// shared variables filter column against column; an atom sharing nothing
/// is a left-major product (the first atom's, with the empty conjunction,
/// is that atom untouched); an empty body is the single row of head
/// constants. A head variable is
/// gathered from the column that first bound it, so an empty answer keeps
/// its source columns' types (a head constant its own).
pub fn eval_cq(
    q: &Cq,
    columns: &[String],
    catalog: &Catalog,
    tv: &TableVocab,
) -> Result<Table, HybridError> {
    eval_cq_sorted(q, columns, catalog, tv, None)
}

/// [`eval_cq`] with the rows stably sorted ascending by the integer key of
/// head column `sort_key`, before anything is gathered.
pub(crate) fn eval_cq_sorted(
    q: &Cq,
    columns: &[String],
    catalog: &Catalog,
    tv: &TableVocab,
    sort_key: Option<&str>,
) -> Result<Table, HybridError> {
    let mut rows = RowSet::unit();
    let mut bound: HashMap<u32, ColRef> = HashMap::new();
    for atom in &q.body {
        let name = tv
            .table_of(atom.pred)
            .ok_or_else(|| HybridError::MissingTable(format!("pred#{}", atom.pred.0)))?;
        // The atom alone: constants and a repeated variable filter its
        // table. `vars` keeps each variable's first position, in order.
        let mut scan =
            catalog.scan(name).ok_or_else(|| HybridError::MissingTable(name.into()))?;
        let cell = |source: usize, column: usize| ColRef { source, column };
        let mut vars: Vec<(u32, usize)> = Vec::new();
        for (i, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    scan.filter(cell(0, i), &decode_const(tv.vocab.const_name(*c)));
                }
                Term::Var(v) => match vars.iter().find(|(w, _)| w == v) {
                    Some(&(_, first)) => {
                        scan.filter_eq(cell(0, first), cell(0, i));
                    }
                    None => vars.push((*v, i)),
                },
            }
        }

        let mut shared = vars.iter().filter_map(|(v, i)| bound.get(v).map(|c| (*c, *i)));
        let source = match shared.next() {
            Some((left, i)) => rows.join(left, scan, cell(0, i)),
            None => rows.product(scan),
        };
        for (left, i) in shared {
            rows.filter_eq(left, cell(source, i));
        }
        for (v, i) in vars {
            bound.entry(v).or_insert(cell(source, i));
        }
    }

    // Head projection (bag semantics).
    let head: Vec<(&str, Out)> = columns
        .iter()
        .zip(&q.head)
        .map(|(name, t)| {
            let out = match t {
                Term::Var(v) => Out::Cell(*bound.get(v).expect("safe head variable is bound")),
                Term::Const(c) => Out::Const(decode_const(tv.vocab.const_name(*c))),
            };
            (name.as_str(), out)
        })
        .collect();
    if let Some(key) = sort_key {
        let at = head.iter().position(|(name, _)| *name == key);
        let (_, out) = &head[at.ok_or_else(|| HybridError::MissingColumn(key.to_owned()))?];
        // A constant column ties on every row: nothing to reorder.
        if let Out::Cell(c) = out {
            rows.sort_by_key(*c);
        }
    }
    Ok(rows.gather_as(head))
}

/// The cell an interned CQ constant stands for — what a body position is
/// filtered by and what a head position holds: a quoted constant is that
/// string, an `i64`-parsable one that integer (so a compiled `SelectEq`
/// keeps exactly the rows the stage keeps), any other number a float, and a
/// bare symbol a string verbatim.
fn decode_const(s: &str) -> Value {
    if let Some(inner) = unquote(s) {
        Value::Str(inner.to_owned())
    } else if let Ok(v) = s.parse::<i64>() {
        Value::Int(v)
    } else if let Ok(v) = s.parse::<f64>() {
        Value::Float(v)
    } else {
        Value::Str(s.to_owned())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hybrid::HybridError;
    use hadad_relational::{ops, Column};

    fn tweets() -> Table {
        // 60 tweets over 6 topics; level cycles 1..=4.
        let n = 60i64;
        Table::new(vec![
            ("tid", Column::Int((0..n).collect())),
            ("topic", Column::Int((0..n).map(|i| i % 6).collect())),
            ("level", Column::Int((0..n).map(|i| i % 4 + 1).collect())),
        ])
    }

    pub(crate) fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("tweets", tweets());
        c
    }

    #[test]
    fn execute_matches_compiled_semantics() {
        let cat = catalog();
        let q = RelQuery::scan("tweets").select_eq("topic", 3).project(&["tid", "level"]);
        let direct = q.execute(&cat).unwrap();
        assert_eq!(direct.num_rows(), 10);

        let mut tv = TableVocab::from_catalog(&cat);
        let compiled = q.compile(&cat, &mut tv).unwrap();
        assert_eq!(compiled.columns, vec!["tid".to_string(), "level".to_string()]);
        assert_eq!(compiled.cq.body.len(), 1);
        let via_cq = eval_cq(&compiled.cq, &compiled.columns, &cat, &tv).unwrap();
        let sorted_direct = ops::sort_by_int(&direct, "tid").unwrap();
        let sorted_cq = ops::sort_by_int(&via_cq, "tid").unwrap();
        assert_eq!(sorted_direct, sorted_cq);
    }

    #[test]
    fn compile_places_selection_constants_in_head() {
        let cat = catalog();
        let mut tv = TableVocab::from_catalog(&cat);
        let q = RelQuery::scan("tweets").select_eq("topic", 3);
        let compiled = q.compile(&cat, &mut tv).unwrap();
        // Head: (tid, 3, level) — the selected column is a constant.
        assert!(matches!(compiled.cq.head[1], Term::Const(_)));
        assert!(compiled.cq.is_safe());
    }

    #[test]
    fn compile_join_shares_variables_and_prefixes_collisions() {
        let mut cat = catalog();
        cat.register(
            "topics",
            Table::new(vec![
                ("id", Column::Int((0..6).collect())),
                ("level", Column::Int(vec![9; 6])), // collides with tweets.level
            ]),
        );
        let q = RelQuery::scan("tweets").join("topics", "topic", "id");
        let mut tv = TableVocab::from_catalog(&cat);
        let compiled = q.compile(&cat, &mut tv).unwrap();
        assert_eq!(
            compiled.columns,
            vec![
                "tid".to_string(),
                "topic".to_string(),
                "level".to_string(),
                "right.level".to_string()
            ]
        );
        // The join key variable is shared between the two atoms.
        assert_eq!(compiled.cq.body[0].args[1], compiled.cq.body[1].args[0]);
        // Execution produces the same schema.
        let t = q.execute(&cat).unwrap();
        assert_eq!(
            t.column_names(),
            &["tid", "topic", "level", "right.level"].map(String::from)
        );
        let via_cq = eval_cq(&compiled.cq, &compiled.columns, &cat, &tv).unwrap();
        assert_eq!(
            ops::sort_by_int(&t, "tid").unwrap(),
            ops::sort_by_int(&via_cq, "tid").unwrap()
        );
    }

    #[test]
    fn contradictory_selections_are_rejected() {
        let cat = catalog();
        let mut tv = TableVocab::from_catalog(&cat);
        let q = RelQuery::scan("tweets").select_eq("topic", 3).select_eq("topic", 4);
        assert!(matches!(q.compile(&cat, &mut tv), Err(HybridError::Unsatisfiable(_))));
        // Repeating the same selection is fine.
        let q = RelQuery::scan("tweets").select_eq("topic", 3).select_eq("topic", 3);
        assert!(q.compile(&cat, &mut tv).is_ok());
    }

    /// Regression: integer and string constants never cross-match, in
    /// either execution path — `Str("7")` is not the number 7.
    #[test]
    fn string_and_int_constants_do_not_cross_match() {
        let mut cat = Catalog::new();
        cat.register(
            "t",
            Table::new(vec![
                ("k", Column::Str(vec!["7".into(), "en".into()])),
                ("v", Column::Int(vec![1, 2])),
            ]),
        );
        let mut tv = TableVocab::from_catalog(&cat);

        // Numeric selection on a string column: empty both ways.
        let q_int = RelQuery::scan("t").select_eq("k", 7);
        assert_eq!(q_int.execute(&cat).unwrap().num_rows(), 0);
        let c = q_int.compile(&cat, &mut tv).unwrap();
        assert_eq!(eval_cq(&c.cq, &c.columns, &cat, &tv).unwrap().num_rows(), 0);

        // String selection for "7": exactly the Str("7") row, both ways.
        let q_str = RelQuery::scan("t").select_str_eq("k", "7");
        assert_eq!(q_str.execute(&cat).unwrap().num_rows(), 1);
        let c = q_str.compile(&cat, &mut tv).unwrap();
        let via_cq = eval_cq(&c.cq, &c.columns, &cat, &tv).unwrap();
        assert_eq!(via_cq.num_rows(), 1);
        assert_eq!(via_cq.value(0, "v"), Value::Int(1));
        // The head constant decodes back to the string, not the number.
        assert_eq!(via_cq.value(0, "k"), Value::Str("7".into()));
    }
}
