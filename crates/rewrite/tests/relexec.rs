//! Differential tests of the relational executor behind
//! `RelQuery::execute` and `eval_cq`, against row-at-a-time oracles written
//! here over `Table::row` / `Value`: a stage-by-stage pipeline interpreter
//! (selection, nested-loop join, projection) and a binding-map CQ
//! evaluator, both deciding "are these two cells equal" through the one
//! [`equal`] below. `execute` must agree with the first in names, column
//! types and row order; `eval_cq` with the second row for row — and with
//! `execute` as a multiset, whatever the key types, wherever `compile`
//! relates the two.
//!
//! Every query runs three times on one catalog: a column's second equality
//! lookup builds its index, so the later runs select and join through the
//! catalog's column indexes wherever the key types match, and must return
//! exactly what the first run's scans returned.

use std::collections::HashMap;

use hadad_chase::{Atom, Cq, Term};
use hadad_linalg::rng::Rng64;
use hadad_relational::ivm::row_key;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::hybrid::{eval_cq, HybridError, RelOp, RelQuery, TableVocab};

// --- random tables ---------------------------------------------------------

/// 2⁵³: the first integer whose successor `f64` cannot hold.
const P53: i64 = 1 << 53;

/// Small domains: duplicate keys, unmatched keys, integral and fractional
/// floats, both zeros, `NaN`, integers on either side of 2⁵³ (which the
/// float 2⁵³ equals neither of), and a string that looks like a number.
const INTS: [i64; 7] = [0, 1, 2, 3, 7, P53 - 1, P53 + 1];
const FLOATS: [f64; 8] = [0.0, -0.0, 1.0, 2.0, 2.5, f64::NAN, 7.0, P53 as f64];
const STRS: [&str; 4] = ["7", "a", "", "1"];

fn pick<T: Copy>(rng: &mut Rng64, from: &[T]) -> T {
    from[rng.range_usize(from.len())]
}

fn random_column(rng: &mut Rng64, ty: char, n: usize) -> Column {
    match ty {
        'i' => Column::Int((0..n).map(|_| pick(rng, &INTS)).collect()),
        'f' => Column::Float((0..n).map(|_| pick(rng, &FLOATS)).collect()),
        _ => Column::Str((0..n).map(|_| pick(rng, &STRS).to_owned()).collect()),
    }
}

fn random_table(rng: &mut Rng64, schema: &[(&str, char)], n: usize) -> Table {
    Table::new(schema.iter().map(|&(name, ty)| (name, random_column(rng, ty, n))).collect())
}

/// Four tables sharing column names (so joins collide and prefix), one of
/// them several times larger than the rest (so the join's build side
/// flips), one empty; payload column types drawn per seed.
fn random_catalog(rng: &mut Rng64) -> Catalog {
    let mut any = || pick(rng, &['i', 'f', 's']);
    let (x, y, z, k) = (any(), any(), any(), any());
    let mut catalog = Catalog::new();
    let n = |rng: &mut Rng64, max: usize| rng.range_usize(max + 1);
    let rows = n(rng, 10);
    catalog.register("a", random_table(rng, &[("k", 'i'), ("x", x), ("y", y)], rows));
    let rows = n(rng, 10);
    catalog.register("b", random_table(rng, &[("k", 'i'), ("x", y), ("z", z)], rows));
    let rows = 20 + n(rng, 20);
    catalog.register("big", random_table(rng, &[("k", k), ("j", 'i'), ("w", 's')], rows));
    catalog.register("none", random_table(rng, &[("k", 'i'), ("x", 'f'), ("w", 's')], 0));
    catalog
}

// --- the one equality ------------------------------------------------------

/// When two cells are equal, spelled out: integers exactly, an integer and
/// a float when the float is that integer, floats by value with one zero
/// and a `NaN` that equals itself, strings verbatim, a string never a number.
fn equal(a: &Value, b: &Value) -> bool {
    use Value::{Float, Int, Str};
    match (a, b) {
        (Int(x), Int(y)) => x == y,
        (Int(x), f @ Float(_)) | (f @ Float(_), Int(x)) => f.as_i64() == Some(*x),
        (Float(x), Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Str(x), Str(y)) => x == y,
        _ => false,
    }
}

/// [`table_fingerprint`] with every cell replaced by one representative of
/// its equality class (`7.0` by `7`, `-0.0` by `0`, any `NaN` by one): two
/// plans that bind an output column from different members of a join, or
/// from a selection's constant, return the same bag only up to that.
fn fingerprint_up_to_representative(t: &Table) -> Vec<String> {
    let representative = |v: Value| match v {
        Value::Float(f) if f.is_nan() => Value::Float(f64::NAN),
        Value::Float(_) => v.as_i64().map_or(v, Value::Int),
        other => other,
    };
    let row = |r: usize| t.row(r).into_iter().map(representative).collect::<Vec<_>>();
    let mut rows: Vec<String> = (0..t.num_rows()).map(|r| row_key(&row(r))).collect();
    rows.sort();
    rows
}

// --- the pipeline oracle ---------------------------------------------------

/// A relation as rows of `Value`s, with one empty typed column per output
/// column so that an empty result still has a schema.
struct Rel {
    names: Vec<String>,
    types: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

fn type_tag(c: &Column) -> char {
    match c {
        Column::Int(_) => 'i',
        Column::Float(_) => 'f',
        Column::Str(_) => 's',
    }
}

fn empty_like(c: &Column) -> Column {
    match c {
        Column::Int(_) => Column::Int(Vec::new()),
        Column::Float(_) => Column::Float(Vec::new()),
        Column::Str(_) => Column::Str(Vec::new()),
    }
}

impl Rel {
    fn scan(t: &Table) -> Rel {
        Rel {
            names: t.column_names().to_vec(),
            types: (0..t.num_cols()).map(|c| empty_like(t.column_at(c))).collect(),
            rows: (0..t.num_rows()).map(|r| t.row(r)).collect(),
        }
    }

    fn index(&self, name: &str) -> usize {
        self.names.iter().position(|n| n == name).unwrap()
    }

    fn columns(&self) -> Vec<&str> {
        self.names.iter().map(|n| &**n).collect()
    }

    fn table(&self) -> Table {
        let mut columns = self.types.clone();
        for row in &self.rows {
            for (c, v) in columns.iter_mut().zip(row) {
                assert!(c.push(v), "oracle cell {v} does not fit its column");
            }
        }
        Table::new(self.names.iter().map(String::as_str).zip(columns).collect())
    }

    /// One stage, row at a time.
    fn apply(self, op: &RelOp, catalog: &Catalog) -> Rel {
        match op {
            RelOp::SelectEq { column, value } => {
                let i = self.index(column);
                let rows = self.rows.into_iter().filter(|r| equal(&r[i], &Value::Int(*value)));
                Rel { rows: rows.collect(), ..self }
            }
            RelOp::SelectStrEq { column, value } => {
                let i = self.index(column);
                let value = Value::Str(value.clone());
                let rows = self.rows.into_iter().filter(|r| equal(&r[i], &value));
                Rel { rows: rows.collect(), ..self }
            }
            RelOp::Project { columns } => {
                let idx: Vec<usize> = columns.iter().map(|c| self.index(c)).collect();
                Rel {
                    names: columns.clone(),
                    types: idx.iter().map(|&i| self.types[i].clone()).collect(),
                    rows: self
                        .rows
                        .iter()
                        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                        .collect(),
                }
            }
            RelOp::HashJoin { table, left_key, right_key } => {
                let right = Rel::scan(catalog.get(table).unwrap());
                let (lk, rk) = (self.index(left_key), right.index(right_key));
                let mut out = Rel { names: self.names, types: self.types, rows: Vec::new() };
                let kept: Vec<usize> = (0..right.names.len()).filter(|&c| c != rk).collect();
                for &c in &kept {
                    let mut name = right.names[c].clone();
                    while out.names.contains(&name) {
                        name = format!("right.{name}");
                    }
                    out.names.push(name);
                    out.types.push(right.types[c].clone());
                }
                for l in &self.rows {
                    for r in &right.rows {
                        if equal(&l[lk], &r[rk]) {
                            let mut row = l.clone();
                            row.extend(kept.iter().map(|&c| r[c].clone()));
                            out.rows.push(row);
                        }
                    }
                }
                out
            }
        }
    }
}

/// A random pipeline of up to five stages over the catalog, together with
/// what the oracle makes of it. Selections and join keys land on columns of
/// any type.
fn random_pipeline(rng: &mut Rng64, catalog: &Catalog) -> (RelQuery, Rel) {
    let tables: Vec<&str> = catalog.names().collect();
    let start = pick(rng, &tables);
    let mut q = RelQuery::scan(start);
    let mut rel = Rel::scan(catalog.get(start).unwrap());
    for _ in 0..rng.range_usize(6) {
        let before = q.ops.len();
        match rng.range_usize(5) {
            0 => {
                if let Some(&c) = rel.columns().get(rng.range_usize(4)) {
                    q = q.select_eq(c, pick(rng, &INTS));
                }
            }
            1 => {
                if let Some(&c) = rel.columns().get(rng.range_usize(4)) {
                    q = q.select_str_eq(c, pick(rng, &STRS));
                }
            }
            2 | 3 => {
                let table = pick(rng, &tables);
                let right = Rel::scan(catalog.get(table).unwrap());
                let left_key = pick(rng, &rel.columns());
                // Mostly a key of the left key's type, so that most joins
                // can match; sometimes any column at all.
                let ty = type_tag(&rel.types[rel.index(left_key)]);
                let mut keys = right.columns();
                if rng.range_usize(4) > 0 && right.types.iter().any(|c| type_tag(c) == ty) {
                    keys.retain(|k| type_tag(&right.types[right.index(k)]) == ty);
                }
                q = q.join(table, left_key, pick(rng, &keys));
            }
            _ => {
                let mut cols = rel.columns();
                let keep = 1 + rng.range_usize(cols.len());
                let picked: Vec<&str> =
                    (0..keep).map(|_| cols.swap_remove(rng.range_usize(cols.len()))).collect();
                q = q.project(&picked);
            }
        }
        if let Some(op) = q.ops.get(before) {
            rel = rel.apply(op, catalog);
        }
    }
    (q, rel)
}

/// Same names, same column types, same rows in the same order. Cells
/// compare through `row_key` (floats bitwise), so a `NaN` equals itself.
fn assert_identical(got: &Table, want: &Table, ctx: &str) {
    assert_eq!(got.column_names(), want.column_names(), "{ctx}");
    for c in 0..want.num_cols() {
        assert_eq!(
            std::mem::discriminant(got.column_at(c)),
            std::mem::discriminant(want.column_at(c)),
            "{ctx}: type of column {}",
            want.column_names()[c]
        );
    }
    let rows = |t: &Table| (0..t.num_rows()).map(|r| row_key(&t.row(r))).collect::<Vec<_>>();
    assert_eq!(rows(got), rows(want), "{ctx}");
}

// --- the CQ oracle ---------------------------------------------------------

fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"').and_then(|rest| rest.strip_suffix('"'))
}

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

/// Bag evaluation of a CQ with one binding map per partial answer: atoms
/// in order, table rows in order, a variable bound by its first occurrence.
fn cq_oracle(q: &Cq, catalog: &Catalog, tv: &TableVocab) -> Vec<Vec<Value>> {
    let mut bindings: Vec<HashMap<u32, Value>> = vec![HashMap::new()];
    for atom in &q.body {
        let t = catalog.get(tv.table_of(atom.pred).unwrap()).unwrap();
        let mut next = Vec::new();
        for b in &bindings {
            'row: for r in 0..t.num_rows() {
                let row = t.row(r);
                let mut ext = b.clone();
                for (term, cell) in atom.args.iter().zip(&row) {
                    let ok = match term {
                        Term::Const(c) => equal(cell, &decode_const(tv.vocab.const_name(*c))),
                        Term::Var(v) => match ext.get(v) {
                            Some(bound) => equal(bound, cell),
                            None => ext.insert(*v, cell.clone()).is_none(),
                        },
                    };
                    if !ok {
                        continue 'row;
                    }
                }
                next.push(ext);
            }
        }
        bindings = next;
    }
    let cell = |b: &HashMap<u32, Value>, t: &Term| match t {
        Term::Var(v) => b[v].clone(),
        Term::Const(c) => decode_const(tv.vocab.const_name(*c)),
    };
    bindings.iter().map(|b| q.head.iter().map(|t| cell(b, t)).collect()).collect()
}

/// `eval_cq` returns the oracle's rows, in the oracle's order.
fn assert_cq_matches_oracle(
    q: &Cq,
    columns: &[String],
    catalog: &Catalog,
    tv: &TableVocab,
    ctx: &str,
) -> Table {
    let got = eval_cq(q, columns, catalog, tv).unwrap();
    assert_eq!(got.column_names(), columns, "{ctx}");
    let rows: Vec<String> = (0..got.num_rows()).map(|r| row_key(&got.row(r))).collect();
    let want: Vec<String> = cq_oracle(q, catalog, tv).iter().map(|r| row_key(r)).collect();
    assert_eq!(rows, want, "{ctx}");
    got
}

// --- the tests -------------------------------------------------------------

#[test]
fn execute_is_the_row_at_a_time_pipeline() {
    let mut joins = 0;
    let mut stacked = 0;
    for seed in 0..300u64 {
        let mut rng = Rng64::new(0x5E1_EC7 + seed);
        let catalog = random_catalog(&mut rng);
        for case in 0..4 {
            let (q, oracle) = random_pipeline(&mut rng, &catalog);
            for run in 0..3 {
                let ctx = format!("seed {seed} case {case} run {run}: {q:?}");
                assert_identical(&q.execute(&catalog).unwrap(), &oracle.table(), &ctx);
            }
            joins += q.ops.iter().filter(|op| matches!(op, RelOp::HashJoin { .. })).count();
            stacked += usize::from(oracle.names.iter().any(|n| n.starts_with("right.right.")));
        }
        // The same table joined three times: `x`, `right.x`, `right.right.x`.
        let q = RelQuery::scan("a").join("a", "k", "k").join("a", "k", "k");
        let oracle = q
            .ops
            .iter()
            .fold(Rel::scan(catalog.get("a").unwrap()), |rel, op| rel.apply(op, &catalog));
        assert!(oracle.names.contains(&"right.right.x".to_owned()));
        assert_identical(
            &q.execute(&catalog).unwrap(),
            &oracle.table(),
            &format!("seed {seed}"),
        );
    }
    // The generator reaches what it is meant to reach.
    assert!(joins > 300, "{joins} joins");
    assert!(stacked > 10, "{stacked} random pipelines with a right.right. column");
}

/// `execute(q)` and `eval_cq(compile(q))` are the same bag — up to which
/// member of an equality class an output cell shows — with selections and
/// join keys on `Int`, `Float` (fractional, both zeros, `NaN`) and `Str`
/// columns alike.
#[test]
fn compiled_pipelines_evaluate_to_the_same_bag_on_every_key_type() {
    let mut compared = 0;
    let mut nonempty = 0;
    // Non-empty joins by the type of their left key column.
    let mut joined = HashMap::from([('i', 0), ('f', 0), ('s', 0)]);
    for seed in 0..300u64 {
        let mut rng = Rng64::new(0xC0_FFEE + seed);
        let catalog = random_catalog(&mut rng);
        for case in 0..4 {
            let (q, oracle) = random_pipeline(&mut rng, &catalog);
            let ctx = format!("seed {seed} case {case}: {q:?}");
            let direct = q.execute(&catalog).unwrap();
            assert_identical(&direct, &oracle.table(), &ctx);
            let mut tv = TableVocab::from_catalog(&catalog);
            let compiled = match q.compile(&catalog, &mut tv) {
                Ok(c) => c,
                // Two different constants on one column: nothing survives.
                Err(HybridError::Unsatisfiable(_)) => {
                    assert_eq!(direct.num_rows(), 0, "{ctx}");
                    continue;
                }
                Err(e) => panic!("{ctx}: {e}"),
            };
            assert_eq!(compiled.columns, direct.column_names(), "{ctx}");
            let via_cq =
                assert_cq_matches_oracle(&compiled.cq, &compiled.columns, &catalog, &tv, &ctx);
            for run in 1..3 {
                let ctx = format!("{ctx} run {run}");
                let again = assert_cq_matches_oracle(
                    &compiled.cq,
                    &compiled.columns,
                    &catalog,
                    &tv,
                    &ctx,
                );
                assert_identical(&again, &via_cq, &ctx);
            }
            assert_eq!(
                fingerprint_up_to_representative(&via_cq),
                fingerprint_up_to_representative(&direct),
                "{ctx}"
            );
            compared += 1;
            nonempty += usize::from(direct.num_rows() > 0);
            if let Some(RelOp::HashJoin { left_key, .. }) = q.ops.last() {
                if direct.num_rows() > 0 {
                    *joined.get_mut(&column_type(&direct, left_key)).unwrap() += 1;
                }
            }
        }
    }
    assert!(compared > 1000 && nonempty > 300, "{compared} compared, {nonempty} non-empty");
    assert!(joined.values().all(|&n| n >= 5), "non-empty joins by key type: {joined:?}");
}

fn column_type(t: &Table, name: &str) -> char {
    type_tag(t.column(name).unwrap())
}

/// What `compile` never emits, against the binding-map oracle.
#[test]
fn hand_built_cqs_match_the_binding_map_evaluation() {
    let mut catalog = Catalog::new();
    catalog.register(
        "r",
        Table::new(vec![
            ("a", Column::Int(vec![7, 0, 2, 7, 3, 3])),
            ("b", Column::Int(vec![7, 1, 2, 0, 3, 1])),
        ]),
    );
    catalog.register(
        "s",
        Table::new(vec![
            ("a", Column::Float(vec![7.0, -0.0, 2.5, f64::NAN, 3.0, 7.0])),
            ("c", Column::Str(["x", "sym", "7", "y", "sym", ""].map(String::from).to_vec())),
        ]),
    );
    let mut tv = TableVocab::from_catalog(&catalog);
    let (r, s) = (tv.pred("r").unwrap(), tv.pred("s").unwrap());
    let v = Term::Var;
    let int = |tv: &mut TableVocab, n: i64| Term::Const(tv.vocab.int(n));
    let sym = |tv: &mut TableVocab, name: &str| Term::Const(tv.vocab.constant(name));
    let names = |n: usize| (0..n).map(|i| format!("h{i}")).collect::<Vec<_>>();
    let run = |tv: &TableVocab, what: &str, head: Vec<Term>, body: Vec<Atom>| {
        let q = Cq::new(head, body);
        assert_cq_matches_oracle(&q, &names(q.head.len()), &catalog, tv, what)
    };

    // A variable repeated inside one atom.
    let t = run(&tv, "repeated variable", vec![v(0)], vec![Atom::new(r, vec![v(0), v(0)])]);
    assert_eq!(t.num_rows(), 3);

    // Head constants of every kind, between head variables.
    let head = vec![
        v(0),
        int(&mut tv, 5),
        sym(&mut tv, "\"lit\""),
        sym(&mut tv, "2.5"),
        sym(&mut tv, "sym"),
        v(1),
    ];
    let t = run(&tv, "head constants", head, vec![Atom::new(r, vec![v(0), v(1)])]);
    assert_eq!(t.num_rows(), 6);
    let types: String = names(6).iter().map(|n| column_type(&t, n)).collect();
    assert_eq!(types, "iisfsi");

    // An atom sharing no variable with what came before: a product.
    let body = vec![Atom::new(r, vec![v(0), v(1)]), Atom::new(s, vec![v(2), v(3)])];
    assert_eq!(run(&tv, "product", vec![v(0), v(3), v(2)], body).num_rows(), 36);

    // An Int column joined to a Float column: 7 = 7.0, 0 = -0.0, 3 = 3.0,
    // 2 ≠ 2.5, NaN joins nothing. The variable keeps its first column's type.
    let body = vec![Atom::new(r, vec![v(0), v(1)]), Atom::new(s, vec![v(0), v(2)])];
    let t = run(&tv, "int = float", vec![v(0), v(2)], body);
    assert_eq!(t.num_rows(), 7);
    assert_eq!(column_type(&t, "h0"), 'i');
    let body = vec![Atom::new(s, vec![v(0), v(2)]), Atom::new(r, vec![v(0), v(1)])];
    let t = run(&tv, "float = int", vec![v(0), v(2)], body);
    assert_eq!((t.num_rows(), column_type(&t, "h0")), (7, 'f'));

    // A second shared variable after the join key, and a third atom.
    let body = vec![
        Atom::new(r, vec![v(0), v(1)]),
        Atom::new(r, vec![v(1), v(0)]),
        Atom::new(s, vec![v(1), v(2)]),
    ];
    run(&tv, "two shared variables", vec![v(0), v(1), v(2)], body);

    // Body constants: numeric against Float and Int cells, a quoted string,
    // a bare symbol, and "7" the string against 7 the number.
    let seven = int(&mut tv, 7);
    let t = run(&tv, "7 on a float column", vec![v(0)], vec![Atom::new(s, vec![seven, v(0)])]);
    assert_eq!(t.num_rows(), 2);
    run(&tv, "7 on an int column", vec![v(0)], vec![Atom::new(r, vec![seven, v(0)])]);
    let quoted = sym(&mut tv, "\"7\"");
    let t = run(&tv, "\"7\"", vec![v(0), quoted], vec![Atom::new(s, vec![v(0), quoted])]);
    assert_eq!(t.num_rows(), 1);
    let bare = sym(&mut tv, "sym");
    let t = run(&tv, "bare symbol", vec![v(0)], vec![Atom::new(s, vec![v(0), bare])]);
    assert_eq!(t.num_rows(), 2);
    let t = run(&tv, "7 is not \"7\"", vec![v(0)], vec![Atom::new(s, vec![v(0), seven])]);
    assert_eq!(t.num_rows(), 0);

    // An empty body: the single row of head constants.
    let t = run(&tv, "empty body", vec![seven, quoted], Vec::new());
    assert_eq!(
        (t.num_rows(), t.value(0, "h0"), t.value(0, "h1")),
        (1, Value::Int(7), Value::Str("7".into()))
    );

    // An empty answer is typed by its source columns, a head constant by
    // itself — the schema `RelQuery::execute` gives the same empty answer.
    let nine = int(&mut tv, 9);
    let body = vec![Atom::new(r, vec![v(0), nine]), Atom::new(s, vec![v(1), v(2)])];
    let head = vec![v(0), v(1), v(2), seven, quoted, sym(&mut tv, "2.5")];
    let t = run(&tv, "empty answer", head, body);
    assert_eq!(t.num_rows(), 0);
    let types: String = names(6).iter().map(|n| column_type(&t, n)).collect();
    assert_eq!(types, "ifsisf");
}

/// The one intended output change, on the compiled form of a pipeline: an
/// empty answer has the columns types `execute` gives it.
#[test]
fn an_empty_answer_has_the_same_schema_from_both_entry_points() {
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::new(vec![
            ("k", Column::Int(vec![1, 2])),
            ("f", Column::Float(vec![0.5, 1.5])),
            ("s", Column::Str(vec!["a".into(), "b".into()])),
        ]),
    );
    let q = RelQuery::scan("t").select_eq("k", 3).project(&["s", "f", "k"]);
    let direct = q.execute(&catalog).unwrap();
    let mut tv = TableVocab::from_catalog(&catalog);
    let compiled = q.compile(&catalog, &mut tv).unwrap();
    let via_cq = eval_cq(&compiled.cq, &compiled.columns, &catalog, &tv).unwrap();
    assert_eq!(via_cq.num_rows(), 0);
    assert_identical(&via_cq, &direct, "empty answer");
}

/// A table whose columns cycle through every corner of the equality —
/// integers around 2⁵³, both zeros, `NaN`, the float 2⁵³, strings that
/// look like numbers or differ by a space — and a six-row probe table
/// whose rows hit each corner once. Large enough that one probe key reads
/// at most a quarter of `c` through `c`'s indexes.
fn corner_catalog() -> Catalog {
    let ints = [P53 - 1, P53, P53 + 1, 0, 7, -1];
    let floats = [0.0, -0.0, f64::NAN, P53 as f64, 7.0, 2.5, 1.0, 3.0];
    let strs = ["7", "a", "", "A", "7 "];
    let n = 240;
    let mut catalog = Catalog::new();
    catalog.register(
        "c",
        Table::new(vec![
            ("i", Column::Int((0..n).map(|r| ints[r % ints.len()]).collect())),
            ("f", Column::Float((0..n).map(|r| floats[r % floats.len()]).collect())),
            ("s", Column::Str((0..n).map(|r| strs[r % strs.len()].to_owned()).collect())),
            ("row", Column::Int((0..n as i64).collect())),
        ]),
    );
    catalog.register(
        "probe",
        Table::new(vec![
            ("i", Column::Int(vec![P53 + 1, P53, 7, 5, P53 - 1, 0])),
            ("f", Column::Float(vec![-0.0, f64::NAN, 7.0, 4.5, P53 as f64, 2.5])),
            ("s", Column::Str(["7", "", "b", "A", "a", "7 "].map(String::from).to_vec())),
            ("row", Column::Int((0..6).collect())),
        ]),
    );
    catalog
}

/// Selections and joins on every corner of the equality, each run three
/// times on one catalog — scans first, then through the column indexes
/// their second lookups built — as a pipeline and as its compiled CQ,
/// against the oracles. Same-typed constants and keys read the indexes;
/// mixed ones (`Int` against `Float`, a string against a number) must keep
/// the scan's answer, which for a string and a number is nothing.
#[test]
fn indexed_lookups_return_what_scans_return_on_every_corner() {
    let catalog = corner_catalog();
    let mut queries = Vec::new();
    for v in [P53 - 1, P53, P53 + 1, 7, 0, 3] {
        queries.push(RelQuery::scan("c").select_eq("i", v));
        queries.push(RelQuery::scan("c").select_eq("f", v));
        queries.push(RelQuery::scan("c").select_eq("s", v));
    }
    for v in ["7", "", "A", "7 ", "b"] {
        queries.push(RelQuery::scan("c").select_str_eq("s", v));
        queries.push(RelQuery::scan("c").select_str_eq("i", v));
    }
    let keys = [("i", "i"), ("f", "f"), ("s", "s"), ("i", "f"), ("f", "i"), ("s", "i")];
    for k in 0..6 {
        for (probe_key, c_key) in keys {
            // The probe row on the left of an index on `c`; then `c` on the
            // left, which the compiled form joins through `c`'s index too.
            queries
                .push(RelQuery::scan("probe").select_eq("row", k).join("c", probe_key, c_key));
            queries.push(
                RelQuery::scan("c").join("probe", c_key, probe_key).select_eq("right.row", k),
            );
        }
    }
    let mut nonempty = 0;
    for q in &queries {
        let oracle = q
            .ops
            .iter()
            .fold(Rel::scan(catalog.get(&q.table).unwrap()), |rel, op| rel.apply(op, &catalog));
        let want = oracle.table();
        for run in 0..3 {
            let ctx = format!("{q:?} run {run}");
            assert_identical(&q.execute(&catalog).unwrap(), &want, &ctx);
        }
        let mut tv = TableVocab::from_catalog(&catalog);
        let compiled = q.compile(&catalog, &mut tv).unwrap();
        for run in 0..3 {
            let ctx = format!("{q:?} compiled, run {run}");
            let via_cq =
                assert_cq_matches_oracle(&compiled.cq, &compiled.columns, &catalog, &tv, &ctx);
            assert_eq!(
                fingerprint_up_to_representative(&via_cq),
                fingerprint_up_to_representative(&want),
                "{ctx}"
            );
        }
        nonempty += usize::from(want.num_rows() > 0);
    }
    assert!(nonempty > queries.len() / 2, "{nonempty} of {} non-empty", queries.len());

    // Constants only a CQ carries — floats, `NaN`, the float 2⁵³, a quoted
    // string — on every column, three times each.
    let mut tv = TableVocab::from_catalog(&catalog);
    let c = tv.pred("c").unwrap();
    let head = ["row".to_owned()];
    let names =
        ["0", "-0.0", "NaN", "2.5", "7", "9007199254740992.0", "9007199254740993", "\"7\""];
    for name in names {
        let constant = Term::Const(tv.vocab.constant(name));
        for column in 0..3 {
            let mut args: Vec<Term> = (0..4).map(Term::Var).collect();
            args[column] = constant;
            let q = Cq::new(vec![Term::Var(3)], vec![Atom::new(c, args)]);
            let first = assert_cq_matches_oracle(&q, &head, &catalog, &tv, name);
            for run in 1..3 {
                let again = assert_cq_matches_oracle(&q, &head, &catalog, &tv, name);
                assert_identical(
                    &again,
                    &first,
                    &format!("{name} on column {column}, run {run}"),
                );
            }
        }
    }
}
