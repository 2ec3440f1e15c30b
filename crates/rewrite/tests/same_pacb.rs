//! "Same PACB" pinned as a test: for the relational prefixes and views of
//! the `hybrid.rs` pipelines, about a hundred seeded random CQs over a small
//! schema with overlapping views, and a key EGD whose merge coalesces two
//! backchase facts, every PACB run's universal plan size, the work counts of
//! both chase phases and every rewriting (body, universal-plan atoms, cost)
//! must equal a recorded fixture. A change to how provenance formulas are
//! kept — in the facts or beside them — that reads off one rewriting more or
//! less, or prunes one step more or less, fails here.

use hadad_chase::{
    Atom, Constraint, Cq, Egd, Instance, Pacb, PacbResult, PredId, Term, View, Vocabulary,
};
use hadad_linalg::rng::Rng64;
use hadad_relational::{Catalog, Column, Table};
use hadad_rewrite::{RelQuery, TableVocab};

/// `name | U n | chase m f v e | back m f v e | rewritings` of one run, a
/// rewriting being `body u_atoms cost`.
fn render(name: &str, vocab: &Vocabulary, r: &PacbResult) -> String {
    let counts = |s: &hadad_chase::ChaseStats| {
        format!(
            "{} {} {} {}",
            s.matches_enumerated(),
            s.firings(),
            s.pruned_firings(),
            s.egd_merges
        )
    };
    let rewritings: Vec<String> = r
        .rewritings
        .iter()
        .map(|rw| format!("{} {:?} {:?}", rw.query.display(vocab), rw.u_atoms, rw.cost))
        .collect();
    format!(
        "{name} | U {} | chase {} | back {} | {}\n",
        r.universal_plan_size,
        counts(&r.chase_stats),
        counts(&r.backchase_stats),
        rewritings.join(" ; ")
    )
}

/// Runs `q` on `pacb` twice: unpruned, then with `cost` and `threshold`.
fn run_both(
    out: &mut String,
    name: &str,
    vocab: &Vocabulary,
    pacb: &Pacb,
    q: &Cq,
    cost: &dyn Fn(&Instance, &[usize]) -> f64,
    threshold: f64,
) {
    let plain = pacb.rewrite(q, None);
    out.push_str(&render(&format!("{name} plain"), vocab, &plain));
    let pruned = pacb.rewrite(q, Some((cost, threshold)));
    out.push_str(&render(&format!("{name} pruned"), vocab, &pruned));
}

/// A catalog holding `tables`, then each view materialized in turn.
fn catalog(tables: Vec<(&str, Table)>, views: &[(&str, RelQuery)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, table) in tables {
        catalog.register(name, table);
    }
    for (name, def) in views {
        let table = def.execute(&catalog).expect("view definitions execute");
        catalog.register(*name, table);
    }
    catalog
}

/// The prefixes of one `hybrid.rs` catalog, compiled as a hybrid run
/// compiles them — the views once, into the catalog's vocabulary, and each
/// prefix into a clone of it — run on one PACB engine over those views and
/// priced as the hybrid pipeline prices them: the catalog's row counts,
/// with the original prefix's cost as the threshold.
fn render_prefixes(
    out: &mut String,
    name: &str,
    catalog: &Catalog,
    views: &[(&str, RelQuery)],
    prefixes: &[RelQuery],
) {
    let mut schema = TableVocab::from_catalog(catalog);
    let views: Vec<View> = views
        .iter()
        .map(|(v, def)| {
            let def = def.compile(catalog, &mut schema).expect("view compiles");
            View::new(*v, schema.pred(v).expect("view is materialized"), def.cq)
        })
        .collect();
    let pacb = Pacb::new(&[], &views);
    for (i, prefix) in prefixes.iter().enumerate() {
        let mut tv = schema.clone();
        let compiled = prefix.compile(catalog, &mut tv).expect("prefix compiles");
        let threshold =
            catalog.scan_cost(compiled.cq.body.iter().filter_map(|a| tv.table_of(a.pred)));
        let cost = |inst: &Instance, atoms: &[usize]| -> f64 {
            catalog
                .scan_cost(atoms.iter().map(|&i| tv.table_of(inst.fact(i).pred).unwrap_or("?")))
        };
        let label = format!("{name}#{i}");
        run_both(out, &label, &tv.vocab, &pacb, &compiled.cq, &cost, threshold);
    }
}

fn ints(v: impl Iterator<Item = i64>) -> Column {
    Column::Int(v.collect())
}

/// The catalogs, views and prefixes of the `hybrid.rs` pipelines.
fn render_hybrid(out: &mut String) {
    let tweets = || {
        Table::new(vec![
            ("tid", ints(0..500)),
            ("topic", ints((0..500).map(|i| i % 20))),
            ("level", ints((0..500).map(|i| i % 5 + 1))),
        ])
    };
    let covid = [("covid_tweets", RelQuery::scan("tweets").select_eq("topic", 7))];
    let cat = catalog(vec![("tweets", tweets())], &covid);
    let prefixes = [
        RelQuery::scan("tweets").select_eq("topic", 7),
        RelQuery::scan("tweets").select_eq("topic", 3),
        RelQuery::scan("tweets"),
    ];
    render_prefixes(out, "tweets", &cat, &covid, &prefixes);

    let cardio = [(
        "cardio",
        RelQuery::scan("patients").join("admissions", "pid", "pid").select_eq("service", 2),
    )];
    let cat = catalog(
        vec![
            ("patients", Table::new(vec![("pid", ints(0..120)), ("age", ints(20..140))])),
            (
                "admissions",
                Table::new(vec![
                    ("aid", ints(0..120)),
                    ("pid", ints(0..120)),
                    ("service", ints((0..120).map(|i| i % 4))),
                    ("los", ints((0..120).map(|i| 1 + i % 9))),
                ]),
            ),
        ],
        &cardio,
    );
    let prefixes = [RelQuery::scan("patients")
        .join("admissions", "pid", "pid")
        .select_eq("service", 2)
        .project(&["pid", "age", "los"])];
    render_prefixes(out, "cardio", &cat, &cardio, &prefixes);

    let keyed = [
        (
            "float",
            Column::Float(vec![2.5, 2.5, 0.5, 7.5, f64::NAN, -1.25]),
            Column::Float(vec![2.5, f64::NAN, 7.5, 2.5, 9.75]),
        ),
        (
            "str",
            Column::Str(["x", "7", "", "x", "y", "7"].map(String::from).to_vec()),
            Column::Str(["7", "x", "z", "7.0", ""].map(String::from).to_vec()),
        ),
    ];
    for (name, left_keys, right_keys) in keyed {
        let views = [("v", RelQuery::scan("l").select_eq("c", 1)), ("rv", RelQuery::scan("r"))];
        let cat = catalog(
            vec![
                (
                    "l",
                    Table::new(vec![
                        ("k", left_keys),
                        ("c", ints([1, 1, 0, 1, 1, 0].into_iter())),
                        ("a", ints(0..6)),
                    ]),
                ),
                ("r", Table::new(vec![("k", right_keys), ("b", ints(10..15))])),
            ],
            &views,
        );
        let prefixes = [RelQuery::scan("l").select_eq("c", 1).join("r", "k", "k")];
        render_prefixes(out, name, &cat, &views, &prefixes);
    }

    let cat = catalog(
        vec![
            (
                "tweets",
                Table::new(vec![
                    ("tid", ints((0..4_000).rev())),
                    ("uid", ints((0..4_000).map(|i| i * 7 % 220))),
                    ("topic", ints((0..4_000).map(|i| i % 40))),
                    ("level", ints((0..4_000).map(|i| i % 5 + 1))),
                ]),
            ),
            (
                "users",
                Table::new(vec![
                    ("uid", ints(0..200)),
                    ("country", ints((0..200).map(|u| u % 10))),
                    ("followers", ints((0..200).map(|u| u * 13 % 97))),
                ]),
            ),
        ],
        &[],
    );
    let feats = ["tid", "level", "followers", "country"];
    let prefixes = [
        RelQuery::scan("tweets").select_eq("topic", 3),
        RelQuery::scan("tweets").select_eq("topic", 4).project(&["tid", "level", "uid"]),
        RelQuery::scan("tweets")
            .select_eq("topic", 5)
            .join("users", "uid", "uid")
            .project(&feats),
        RelQuery::scan("tweets").select_eq("topic", 6).join("users", "uid", "uid"),
        RelQuery::scan("tweets")
            .join("users", "uid", "uid")
            .select_eq("country", 2)
            .project(&feats),
        RelQuery::scan("tweets").select_eq("level", 2),
    ];
    render_prefixes(out, "noview", &cat, &[], &prefixes);
}

fn var(v: u32) -> Term {
    Term::Var(v)
}

/// `R(x,y) ∧ R(x,z) ∧ K(x) → y = z`: a key EGD guarded by a third atom, so
/// it is not of the functional two-atom shape and existential reuse does
/// not pre-empt its merge.
fn guarded_key(r: PredId, k: PredId) -> Constraint {
    Egd::new(
        "R-key-on-K",
        vec![
            Atom::new(r, vec![var(0), var(1)]),
            Atom::new(r, vec![var(0), var(2)]),
            Atom::new(k, vec![var(0)]),
        ],
        vec![(var(1), var(2))],
    )
    .into()
}

/// The key EGD's backchase merges two `R` facts into one, coalescing their
/// formulas: views `P2(x) :- R(x,y), K(x)` and `P1(x) :- R(x,y), S(y), K(x)`,
/// query `Q(x) :- R(x,y), S(y), K(x)`.
fn render_guarded_key(out: &mut String) {
    let mut vocab = Vocabulary::new();
    let (r, s, k) = (vocab.predicate("R", 2), vocab.predicate("S", 1), vocab.predicate("K", 1));
    let (p2, p1) = (vocab.predicate("P2", 1), vocab.predicate("P1", 1));
    let rsk = vec![
        Atom::new(r, vec![var(0), var(1)]),
        Atom::new(s, vec![var(1)]),
        Atom::new(k, vec![var(0)]),
    ];
    let views = [
        View::new(
            "P2",
            p2,
            Cq::with_var_head(
                vec![0],
                vec![Atom::new(r, vec![var(0), var(1)]), Atom::new(k, vec![var(0)])],
            ),
        ),
        View::new("P1", p1, Cq::with_var_head(vec![0], rsk.clone())),
    ];
    let constraints = [guarded_key(r, k)];
    let cost = |inst: &Instance, atoms: &[usize]| -> f64 {
        atoms.iter().map(|&i| if inst.fact(i).pred == p2 { 1.0 } else { 3.0 }).sum()
    };
    let q = Cq::with_var_head(vec![0], rsk);
    run_both(out, "guarded-key", &vocab, &Pacb::new(&constraints, &views), &q, &cost, 3.0);
}

/// Base predicates `R/2 S/2 T/2 K/1`, a constant `c`, and views over them
/// that overlap: two with the same body and different heads, one
/// selecting on `c`, joins that share atoms with single-atom views.
fn random_schema(vocab: &mut Vocabulary) -> (Vec<(PredId, usize)>, Vec<View>, Vec<f64>) {
    let r = vocab.predicate("R", 2);
    let s = vocab.predicate("S", 2);
    let t = vocab.predicate("T", 2);
    let k = vocab.predicate("K", 1);
    let c = Term::Const(vocab.constant("c"));
    let a = |p: PredId, args: &[Term]| Atom::new(p, args.to_vec());
    let (x, y, z, w) = (var(0), var(1), var(2), var(3));
    let defs: Vec<(&str, Vec<u32>, Vec<Atom>, f64)> = vec![
        ("VR", vec![0, 1], vec![a(r, &[x, y])], 2.0),
        ("VS", vec![1, 2], vec![a(s, &[y, z])], 2.0),
        ("VT", vec![2, 3], vec![a(t, &[z, w])], 3.0),
        ("VK", vec![0], vec![a(k, &[x])], 1.0),
        ("VRS", vec![0, 2], vec![a(r, &[x, y]), a(s, &[y, z])], 3.0),
        ("VRS3", vec![0, 1, 2], vec![a(r, &[x, y]), a(s, &[y, z])], 5.0),
        ("VST", vec![1, 3], vec![a(s, &[y, z]), a(t, &[z, w])], 4.0),
        ("VRK", vec![0, 1], vec![a(r, &[x, y]), a(k, &[x])], 2.0),
        ("VRc", vec![0], vec![a(r, &[x, c])], 1.0),
    ];
    let mut views = Vec::new();
    let mut weights = Vec::new();
    for (name, head, body, weight) in defs {
        let pred = vocab.predicate(name, head.len());
        views.push(View::new(name, pred, Cq::with_var_head(head, body)));
        weights.push(weight);
    }
    (vec![(r, 2), (s, 2), (t, 2), (k, 1)], views, weights)
}

/// A random CQ of one to four atoms over `base`, its variables drawn from
/// a pool of four (a position is the constant `c` one time in eight), its
/// head a nonempty subset of its body variables.
fn random_cq(rng: &mut Rng64, base: &[(PredId, usize)], c: Term) -> Cq {
    let n_atoms = 1 + rng.range_usize(4);
    let mut body = Vec::with_capacity(n_atoms);
    for _ in 0..n_atoms {
        let (pred, arity) = base[rng.range_usize(base.len())];
        let args = (0..arity)
            .map(|_| if rng.range_usize(8) == 0 { c } else { var(rng.range_usize(4) as u32) })
            .collect();
        body.push(Atom::new(pred, args));
    }
    let mut vars: Vec<u32> = body.iter().flat_map(Atom::vars).collect();
    vars.sort_unstable();
    vars.dedup();
    let mut head: Vec<u32> = vars.iter().copied().filter(|_| rng.range_usize(2) == 0).collect();
    if head.is_empty() {
        head.extend(vars.first());
    }
    Cq::with_var_head(head, body)
}

fn render_random(out: &mut String) {
    let mut vocab = Vocabulary::new();
    let (base, views, weights) = random_schema(&mut vocab);
    let c = Term::Const(vocab.constant("c"));
    let cost = |inst: &Instance, atoms: &[usize]| -> f64 {
        atoms
            .iter()
            .map(|&i| {
                let pred = inst.fact(i).pred;
                views.iter().position(|v| v.head_pred == pred).map_or(100.0, |v| weights[v])
            })
            .sum()
    };
    let pacb = Pacb::new(&[], &views);
    let mut rng = Rng64::new(0x9ACB_5EED);
    for i in 0..100 {
        let q = random_cq(&mut rng, &base, c);
        let label = format!("random#{i} {}", q.display(&vocab));
        run_both(out, &label, &vocab, &pacb, &q, &cost, 2.5);
    }
}

fn render_corpus() -> String {
    let mut out = String::new();
    render_hybrid(&mut out);
    render_guarded_key(&mut out);
    render_random(&mut out);
    out
}

#[test]
fn pacb_plans_counts_and_rewritings_match_the_recorded_fixture() {
    let expected = include_str!("fixtures/same_pacb.txt");
    let actual = render_corpus();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "run {i}: PACB counts or rewritings changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
