//! The product-chain table (`Encoded::tabulate_chains`) against the chase
//! it stands in for.
//!
//! * Closure: a tabled instance is a fixpoint of `mul-assoc-l`/`-r` on
//!   their own, chased from watermark 0.
//! * Differential: the optimizer starts the two rules' watermarks where the
//!   table ends; chasing the same tabled instance from watermark 0 must
//!   reach the same facts, outcome, candidates and ranked plans. Where the
//!   optimizer keeps the table out of the instance
//!   (`Encoded::tabulate_chains_as_cells`: `name` and `mul` facts alone,
//!   no view among the leaves, every view a product chain of base factors,
//!   which the cells hold as leaves), extraction over the cells, chased
//!   with the standard rules alone, must give the candidates, and the
//!   optimizer the ranked plans at bitwise equal costs, of the tabled
//!   instance chased with the views' rules from watermark 0.
//! * Chains another rule can read, and views only a rule can find, stay
//!   tabled as facts.
//! * Fallback: a chain whose table would not fit the fact budget is not
//!   tabled, and its chase ends as it did before tables existed; with a
//!   view, the view keeps its rules.

use hadad_chase::{
    ChaseBudget, ChaseEngine, ChaseOutcome, DegradeReason, Degraded, ExhaustedBy, RewritePhase,
    RuleSet,
};
use hadad_core::expr::dsl::*;
use hadad_core::{
    expr_estimate, expr_stats, Catalogue, Encoded, Encoder, Expr, Extractor, LaAnalysis,
    MatrixMeta, MetaCatalog, OpKind, TypeFlags, Vrem,
};
use hadad_linalg::rng::Rng64;
use hadad_rewrite::Optimizer;

mod common;
use common::{corpus_catalog, random_expr};

const DIMS: [usize; 13] = [96, 80, 64, 48, 36, 24, 20, 16, 12, 8, 6, 4, 1];

/// How a chain of factors is parenthesized.
#[derive(Clone, Copy, Debug)]
enum Assoc {
    Left,
    Right,
    Bushy,
}

fn product(factors: &[Expr], assoc: Assoc) -> Expr {
    match (factors, assoc) {
        ([one], _) => one.clone(),
        (_, Assoc::Left) => {
            let (last, rest) = factors.split_last().expect("two or more factors");
            mul(product(rest, assoc), last.clone())
        }
        (_, Assoc::Right) => {
            let (first, rest) = factors.split_first().expect("two or more factors");
            mul(first.clone(), product(rest, assoc))
        }
        (_, Assoc::Bushy) => {
            let (l, r) = factors.split_at(factors.len() / 2);
            mul(product(l, assoc), product(r, assoc))
        }
    }
}

/// `M1 … Mlen` over shrinking dims, with their catalog.
fn chain(len: usize, assoc: Assoc) -> (MetaCatalog, Expr) {
    let mut cat = MetaCatalog::new();
    let factors: Vec<Expr> = (0..len)
        .map(|i| {
            let name = format!("M{}", i + 1);
            cat.register(&name, MatrixMeta::dense(DIMS[i], DIMS[i + 1]));
            m(&name)
        })
        .collect();
    (cat, product(&factors, assoc))
}

/// Square `A`–`D`, for the inputs that reuse or mix factors.
fn square_catalog() -> MetaCatalog {
    let mut cat = MetaCatalog::new();
    for name in ["A", "B", "C", "D"] {
        cat.register(name, MatrixMeta::dense(8, 8));
    }
    cat
}

/// Every input the closure and differential tests run on, named.
fn tabled_inputs() -> Vec<(String, MetaCatalog, Expr)> {
    let mut out = Vec::new();
    for len in 3..=12 {
        for assoc in [Assoc::Left, Assoc::Right, Assoc::Bushy] {
            let (cat, e) = chain(len, assoc);
            out.push((format!("{assoc:?} {len}-chain"), cat, e));
        }
    }
    let sq = square_catalog();
    let (a, b, c, d) = (m("A"), m("B"), m("C"), m("D"));
    let abc = || product(&[m("A"), m("B"), m("C")], Assoc::Left);
    let cases = [
        ("A·A·A", mul(mul(a.clone(), a.clone()), a.clone())),
        ("A·A·A·A", mul(a.clone(), mul(mul(a.clone(), a.clone()), a.clone()))),
        ("(A·B·C) + (D·A·B)", add(abc(), mul(mul(d.clone(), a.clone()), b.clone()))),
        ("(A·B)·C + A·(B·C)", add(abc(), mul(a.clone(), mul(b.clone(), c.clone())))),
        (
            "((A·B)·C)·D + (A·(B·C))·D",
            add(
                mul(abc(), d.clone()),
                mul(mul(a.clone(), mul(b.clone(), c.clone())), d.clone()),
            ),
        ),
        (
            "A·I·B·0·C",
            product(
                &[a.clone(), Expr::Identity(8), b.clone(), Expr::Zero(8, 8), c.clone()],
                Assoc::Left,
            ),
        ),
        ("(A·B)ᵀ·C·D", mul(mul(t(mul(a.clone(), b.clone())), c.clone()), d.clone())),
        ("trace(A·B·C)·D", smul(trace(abc()), d.clone())),
    ];
    for (name, e) in cases {
        out.push((name.to_owned(), sq.clone(), e));
    }
    out
}

/// `e` encoded and tabled under the optimizer's default budget, with the
/// clock the table ends at.
fn tabled(e: &Expr, cat: &MetaCatalog) -> (Vrem, Encoded, u64) {
    let mut vrem = Catalogue::shared_standard().0.clone();
    let mut enc = Encoder::new(&mut vrem, cat).encode(e).expect("inputs are shape-valid");
    let budget = Optimizer::new(cat.clone()).budget();
    let clock = enc.tabulate_chains(&vrem, &budget).expect("the table fits the budget");
    (vrem, enc, clock)
}

/// Indexes of the two associativity rules in `rules`.
fn assoc_indexes(rules: &RuleSet) -> Vec<usize> {
    let assoc = |i: &usize| rules.rules()[*i].name().starts_with("mul-assoc-");
    (0..rules.len()).filter(assoc).collect()
}

#[test]
fn a_tabled_instance_is_closed_under_associativity() {
    let (_, standard) = Catalogue::shared_standard();
    let assoc = assoc_indexes(standard);
    assert_eq!(assoc.len(), 2);
    let only_assoc = RuleSet::compile(
        assoc.iter().map(|&i| standard.rules()[i].constraint().clone()).collect(),
    );
    for (name, cat, e) in tabled_inputs() {
        let (vrem, mut enc, clock) = tabled(&e, &cat);
        assert_eq!(clock, enc.instance.clock(), "{name}");
        let facts = enc.instance.num_facts();
        let (outcome, stats) = ChaseEngine::new(&only_assoc).chase(&mut enc.instance);
        assert_eq!(outcome, ChaseOutcome::Saturated, "{name}");
        assert_eq!(stats.firings(), 0, "{name}: the table misses a regrouping");
        assert_eq!(enc.instance.num_facts(), facts, "{name}");

        // A chain of n distinct factors: n(n²−1)/6 products, one per split
        // of each of its n(n−1)/2 sub-chains.
        if let Some(n) = name.strip_suffix("-chain").and_then(|s| s.split(' ').nth(1)) {
            let n: usize = n.parse().expect("chain length");
            let products = enc.instance.facts_with_pred(vrem.op(OpKind::Mul)).len();
            assert_eq!(products, n * (n * n - 1) / 6, "{name}");
        }
    }
}

/// One class per factor sequence: `A·A·A` has the classes `A·A` and
/// `A·A·A`, and two associations of one sequence are one class.
#[test]
fn each_factor_sequence_has_one_class() {
    let cat = square_catalog();
    let (a, b, c) = (m("A"), m("B"), m("C"));
    let (vrem, enc, _) = tabled(&mul(a.clone(), mul(a.clone(), a.clone())), &cat);
    let mul_pred = vrem.op(OpKind::Mul);
    assert_eq!(enc.instance.facts_with_pred(mul_pred).len(), 3, "A·A, A·(A·A), (A·A)·A");

    let both = add(mul(mul(a.clone(), b.clone()), c.clone()), mul(a, mul(b, c)));
    let (vrem, enc, _) = tabled(&both, &cat);
    let inst = &enc.instance;
    let sum = inst.fact(inst.facts_with_pred(vrem.op(OpKind::Add))[0]);
    assert_eq!(inst.find(sum.args[0]), inst.find(sum.args[1]), "both terms are one class");
    assert_eq!(inst.facts_with_pred(mul_pred).len(), 4, "AB, BC and two splits of ABC");
    let data = enc.classes[inst.find(sum.args[0]).0 as usize].expect("a shaped class");
    assert_eq!(data.shape(), (8, 8));
}

/// What one rewrite of `e` yields: the chase's outcome and facts, the
/// extracted candidates (sorted), and the ranked plans as the optimizer
/// ranks them (cost, then the original, then the rendering), each with its
/// cost's bits.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: ChaseOutcome,
    num_facts: usize,
    candidates: Vec<String>,
    plans: Vec<(String, u64)>,
}

fn ranked(cat: &MetaCatalog, e: &Expr, candidates: &[(Expr, f64)]) -> Vec<(String, u64)> {
    let original = expr_estimate(e, cat).expect("priced").1;
    let mut plans: Vec<(f64, bool, String)> =
        candidates.iter().map(|(c, price)| (*price, c != e, c.to_string())).collect();
    if !plans.iter().any(|p| p.0 < original || !p.1) {
        plans.push((original, false, e.to_string()));
    }
    plans.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| (a.1, &a.2).cmp(&(b.1, &b.2))));
    plans.into_iter().map(|(cost, _, p)| (p, cost.to_bits())).collect()
}

/// A chase's facts, matches and firings.
type Work = (usize, u64, u64);

/// Where a run's chain tables go and where the associativity rules start.
#[derive(Clone, Copy, PartialEq)]
enum Table {
    /// Facts, the rules' watermarks at the table's clock.
    Closed,
    /// Facts, the rules' watermarks at 0.
    Open,
    /// Cells beside the instance, the watermarks at the clock.
    Cells,
}

/// `cat` with each view priced in, as the optimizer prices it.
fn with_views(cat: &MetaCatalog, views: &[(&str, Expr)]) -> MetaCatalog {
    let mut cat = cat.clone();
    for (name, def) in views {
        let est = expr_stats(def, &cat).expect("views are shape-valid");
        let nnz = (est.density * est.rows as f64 * est.cols as f64).round();
        cat.register(*name, MatrixMeta::sparse(est.rows, est.cols, nnz as usize));
    }
    cat
}

/// Facts of `e` as encoded, before any table, and whether the optimizer
/// keeps its tables out of the instance: every fact a `name` or a `mul`
/// fact, no leaf a view, and every view a product of two or more factors,
/// none a view. (Every table here fits the budget.)
fn encoded_facts(cat: &MetaCatalog, views: &[(&str, Expr)], e: &Expr) -> (usize, bool) {
    let mut vrem = Catalogue::shared_standard().0.clone();
    let enc = Encoder::new(&mut vrem, &with_views(cat, views)).encode(e).expect("shape-valid");
    let inst = &enc.instance;
    let of = |pred| inst.facts_with_pred(pred).len();
    let bare = of(vrem.name) + of(vrem.op(OpKind::Mul)) == inst.num_facts();
    let is_view = |leaf: &str| views.iter().any(|(v, _)| *v == leaf);
    let product_chain = |def: &Expr| {
        matches!(def, Expr::Mul(..))
            && def.product_factors().is_some_and(|f| !f.into_iter().any(is_view))
    };
    let folds = !e.base_matrices().into_iter().any(is_view)
        && views.iter().all(|(_, def)| product_chain(def));
    (inst.num_facts(), bare && folds)
}

/// The optimizer's pipeline on `e` with `views` registered, spelled out
/// through the public API, with the tables where `table` puts them — in
/// the cells, with the views as their leaves and no view rule; as facts,
/// with each view's `V_IO`/`V_OI` pair — and the chase's matches and
/// firings.
fn rewrite(cat: &MetaCatalog, views: &[(&str, Expr)], e: &Expr, table: Table) -> (Run, Work) {
    let opt = Optimizer::new(cat.clone());
    let cat = with_views(cat, views);
    let (standard_vrem, standard) = Catalogue::shared_standard();
    let mut vrem = standard_vrem.clone();
    let mut extra = Vec::new();
    let mut view_classes = Vec::new();
    for (name, def) in views.iter().filter(|_| table != Table::Cells) {
        let view = Catalogue::la_view_constraints(&mut vrem, &cat, name, def).expect("builds");
        let first = standard.len() + extra.len();
        extra.extend(view.constraints);
        view_classes.push((first..standard.len() + extra.len(), view.classes));
    }
    let rules = standard.extended(extra);
    let mut enc = Encoder::new(&mut vrem, &cat).encode(e).expect("shape-valid");
    let clock = match table {
        Table::Cells => {
            let views: Vec<(&str, &Expr)> = views.iter().map(|(v, def)| (*v, def)).collect();
            enc.tabulate_chains_as_cells(&vrem, &opt.budget(), &views)
        }
        Table::Closed | Table::Open => enc.tabulate_chains(&vrem, &opt.budget()),
    };
    let mut analysis = LaAnalysis::new(&vrem, enc.classes);
    for (range, classes) in view_classes {
        analysis = analysis.with_view(range, classes);
    }
    let assoc = assoc_indexes(&rules);
    let mut engine = ChaseEngine::new(&rules).with_budget(opt.budget());
    if let (Table::Closed | Table::Cells, Some(clock)) = (table, clock) {
        engine = engine.with_watermarks(&assoc, clock);
    }
    let mut inst = enc.instance;
    let (outcome, stats) = engine.chase_analyzed(&mut inst, &mut analysis);
    let candidates =
        Extractor::new(&vrem, &inst, &analysis, &cat, &enc.cells).candidates(enc.root);
    let mut rendered: Vec<String> = candidates.iter().map(|(c, _)| c.to_string()).collect();
    rendered.sort();
    let run = Run {
        outcome,
        num_facts: inst.num_facts(),
        candidates: rendered,
        plans: ranked(&cat, e, &candidates),
    };
    (run, (inst.num_facts(), stats.matches_enumerated(), stats.firings()))
}

/// The closed watermark against watermark 0 on the same tabled instance;
/// where the optimizer keeps the tables out of the instance, the cells'
/// candidates against watermark 0's; and the optimizer against watermark
/// 0: its outcome and ranked plans, bitwise costs included, and its facts —
/// the tabled count, or for a table kept out the encoded count.
fn assert_same(name: &str, cat: &MetaCatalog, views: &[(&str, Expr)], e: &Expr) {
    let (closed, _) = rewrite(cat, views, e, Table::Closed);
    let (open, _) = rewrite(cat, views, e, Table::Open);
    assert_eq!(closed, open, "{name}: {e}");
    let (encoded, implicit) = encoded_facts(cat, views, e);
    if implicit {
        let (cells, _) = rewrite(cat, views, e, Table::Cells);
        assert_eq!(cells.candidates, open.candidates, "{name}: {e}");
        assert_eq!(cells.plans, open.plans, "{name}: {e}");
        assert_eq!((cells.outcome, cells.num_facts), (open.outcome, encoded), "{name}: {e}");
    }

    let mut opt = Optimizer::new(cat.clone());
    for (view, def) in views {
        opt.register_la_view(*view, def.clone()).expect("views certify");
    }
    let got = opt.rewrite(e).expect("rewrites");
    assert_eq!(got.report.chase_outcome, open.outcome, "{name}: {e}");
    let facts = if implicit { encoded } else { open.num_facts };
    assert_eq!(got.report.num_facts, facts, "{name}: {e}");
    let plans: Vec<(String, u64)> =
        got.plans.iter().map(|p| (p.expr.to_string(), p.est_cost.to_bits())).collect();
    assert_eq!(plans, open.plans, "{name}: {e}");
}

#[test]
fn the_closed_watermark_derives_what_watermark_zero_derives() {
    let mut rng = Rng64::new(0xADAD_5EED);
    for i in 0..120 {
        assert_same(&format!("sample {i}"), &corpus_catalog(), &[], &random_expr(&mut rng));
    }
    for (name, cat, e) in tabled_inputs() {
        assert_same(&name, &cat, &[], &e);
    }
    // `la_rewrite`'s view chains: the last product is a registered view.
    for len in [4, 6, 8, 12] {
        let (cat, e) = chain(len, Assoc::Left);
        let view = mul(m(&format!("M{}", len - 1)), m(&format!("M{len}")));
        assert_same(&format!("{len}-chain with a view"), &cat, &[("V", view)], &e);
    }
}

/// Views the cells hold, each against the tabled-facts chase of its view
/// rules (ranked plans and bitwise costs): two views over overlapping
/// sub-chains, a view over the whole chain, two views with one definition
/// (one class, two leaves), and `(A·B)·x` with `P := A·B`, whose class is
/// one the input built.
#[test]
fn product_views_are_leaves_of_their_cells() {
    let (cat, e) = chain(6, Assoc::Left);
    let whole =
        product(&(1..=6).map(|i| m(&format!("M{i}"))).collect::<Vec<_>>(), Assoc::Right);
    let mut nested = MetaCatalog::new();
    nested.register("A", MatrixMeta::dense(40, 6));
    nested.register("B", MatrixMeta::dense(6, 40));
    nested.register("x", MatrixMeta::dense(40, 1));
    let ab = || mul(m("A"), m("B"));
    let inputs = [
        (
            "overlapping views",
            &cat,
            vec![("V", mul(m("M3"), m("M4"))), ("W", mul(m("M4"), m("M5")))],
            e.clone(),
        ),
        ("a view over the whole chain", &cat, vec![("V", whole)], e.clone()),
        (
            "two views with one definition",
            &cat,
            vec![("V", mul(m("M5"), m("M6"))), ("W", mul(m("M5"), m("M6")))],
            e.clone(),
        ),
        ("(A·B)·x with P := A·B", &nested, vec![("P", ab())], mul(ab(), m("x"))),
    ];
    for (name, cat, views, e) in inputs {
        assert!(encoded_facts(cat, &views, &e).1, "{name}: the cells hold the views");
        assert_same(name, cat, &views, &e);
    }
}

/// A 12-chain with a product view holds the bare chain's 23 facts and
/// chases the standard rules alone, and its best plan reads the view.
#[test]
fn a_product_view_adds_no_fact_and_no_rule() {
    let (cat, e) = chain(12, Assoc::Left);
    let bare = Optimizer::new(cat.clone()).rewrite(&e).expect("rewrites").report;
    let mut opt = Optimizer::new(cat);
    opt.register_la_view("V", mul(m("M11"), m("M12"))).expect("certifies");
    let got = opt.rewrite(&e).expect("rewrites");
    assert_eq!((bare.num_facts, got.report.num_facts), (23, 23));
    let (_, standard) = Catalogue::shared_standard();
    assert_eq!(got.report.chase_stats.rules.len(), standard.len(), "no V_IO/V_OI pair");
    let best = "(M1 (M2 (M3 (M4 (M5 (M6 (M7 (M8 (M9 (M10 V))))))))))";
    assert_eq!(got.best().expr.to_string(), best);
}

/// A chain another rule can read keeps its table as facts, and so does a
/// chain with a view only a view rule can find: a view over a transposed
/// factor, a query that names its view, a transposed factor, an `I`
/// factor, under `trace`, and a factor flagged orthogonal. The optimizer's
/// chase does the work the tabled pipeline's does — facts, matches,
/// firings — which differs from the work over a table kept out of the
/// instance.
#[test]
fn chains_other_rules_can_read_are_tabled_as_facts() {
    let (cat, e) = chain(5, Assoc::Left);
    let mut flagged = cat.clone();
    let orthogonal = TypeFlags { orthogonal: true, ..TypeFlags::default() };
    flagged.register("M3", MatrixMeta::dense(DIMS[2], DIMS[3]).with_flags(orthogonal));
    let sq = square_catalog();
    let abcd = |second: Expr| product(&[m("A"), second, m("C"), m("D")], Assoc::Left);
    let names_v = product(&[m("M1"), m("M2"), m("M3"), m("V")], Assoc::Left);
    let inputs = [
        (
            "a view over a transposed factor",
            &cat,
            vec![("V", mul(t(m("M4")), m("M4")))],
            e.clone(),
        ),
        ("a query that names its view", &cat, vec![("V", mul(m("M4"), m("M5")))], names_v),
        ("a transposed factor", &sq, Vec::new(), abcd(t(m("B")))),
        ("an I factor", &sq, Vec::new(), abcd(Expr::Identity(8))),
        ("under trace", &sq, Vec::new(), trace(abcd(m("B")))),
        ("an orthogonal factor", &flagged, Vec::new(), e),
    ];
    for (name, cat, views, e) in inputs {
        let views = &views[..];
        assert!(!encoded_facts(cat, views, &e).1, "{name}");
        let (_, tabled) = rewrite(cat, views, &e, Table::Closed);
        let (_, cells) = rewrite(cat, views, &e, Table::Cells);
        assert_ne!(tabled, cells, "{name}");
        let mut opt = Optimizer::new(cat.clone());
        for (view, def) in views {
            opt.register_la_view(*view, def.clone()).expect("views certify");
        }
        let report = opt.rewrite(&e).expect("rewrites").report;
        let stats = &report.chase_stats;
        let work = (report.num_facts, stats.matches_enumerated(), stats.firings());
        assert_eq!(work, tabled, "{name}");
    }
}

/// A 60-chain's table (35 990 products) exceeds `Optimizer::new`'s 30 000
/// facts: the step declines and leaves the instance as encoded, and the
/// chase ends as it did before tables existed — on the fact budget, after
/// five rounds. A product view over it is chased by its rules, as no cell
/// holds it.
#[test]
fn a_table_over_the_fact_budget_is_not_built() {
    let mut cat = MetaCatalog::new();
    let factors: Vec<Expr> = (0..60)
        .map(|i| {
            let name = format!("M{}", i + 1);
            cat.register(&name, MatrixMeta::dense(4 + (i * 7) % 13, 4 + ((i + 1) * 7) % 13));
            m(&name)
        })
        .collect();
    let e = product(&factors, Assoc::Left);
    let opt = Optimizer::new(cat.clone());

    let mut vrem = Catalogue::shared_standard().0.clone();
    let mut enc = Encoder::new(&mut vrem, &cat).encode(&e).expect("shape-valid");
    let (facts, nulls) = (enc.instance.num_facts(), enc.instance.num_nulls());
    assert_eq!(enc.tabulate_chains(&vrem, &opt.budget()), None);
    assert_eq!((enc.instance.num_facts(), enc.instance.num_nulls()), (facts, nulls));
    let roomy = ChaseBudget { max_facts: 40_000, ..opt.budget() };
    assert!(enc.tabulate_chains(&vrem, &roomy).is_some(), "36 109 facts fit 40 000");

    let report = opt.rewrite(&e).expect("a degraded rewrite still answers").report;
    assert_eq!(report.chase_outcome, ChaseOutcome::BudgetExhausted);
    let facts_cut = Degraded {
        reason: DegradeReason::Budget(ExhaustedBy::Facts),
        phase: RewritePhase::Chase,
    };
    assert_eq!(report.degraded, Some(facts_cut));
    assert_eq!((report.chase_rounds, report.num_facts), (5, 30_001));

    // With a view over the last two factors, the table the cells would
    // hold it in is not built either, so the view keeps its rules, which
    // find it as the chase derives its sub-chain.
    let mut opt = opt;
    opt.register_la_view("V", mul(m("M59"), m("M60"))).expect("certifies");
    let report = opt.rewrite(&e).expect("a degraded rewrite still answers").report;
    let rules = &report.chase_stats.rules;
    let (_, standard) = Catalogue::shared_standard();
    assert_eq!(rules.len(), standard.len() + 2, "the view's pair is chased");
    assert!(rules[standard.len()].firings > 0, "V_IO finds the view");
    let reason = report.degraded.map(|d| d.reason);
    assert_eq!(reason, Some(DegradeReason::Budget(ExhaustedBy::Facts)));
}
