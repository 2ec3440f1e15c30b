//! Differential property test: the naive and semi-naïve chases must
//! agree. For a corpus of random shape-valid expressions, both chase the
//! same encoded instance and the results are compared on structure (facts
//! and union-find partition, modulo labelled-null renaming, via a
//! colour-refinement signature) and on behaviour (the extracted min-cost
//! plan). The semi-naïve chase must also enumerate fewer premise matches
//! over the corpus — that is the point of it.
//!
//! The naive reference is the engine restarted every round
//! ([`chase_naive`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hadad_chase::{
    ChaseBudget, ChaseEngine, ChaseOutcome, ExhaustedBy, Instance, NodeId, RuleSet,
};
use hadad_core::expr::dsl::*;
use hadad_core::{
    expr_estimate, expr_stats, Catalogue, ChainCells, Encoder, Expr, Extractor, LaAnalysis,
    MatrixMeta, MetaCatalog, OpKind, ShapeError, UnaryOp, Vrem,
};
use hadad_linalg::rng::Rng64;

mod common;
use common::{corpus_catalog, random_expr};

/// Structural signature of an instance, stable under renaming of labelled
/// nulls: colour refinement over the bipartite fact/class incidence graph.
/// Classes start from their constant (or "null"), then are iteratively
/// refined by the multiset of (fact hash, position) incidences; the final
/// signature is the sorted list of facts rendered with class colours.
fn signature(inst: &Instance) -> Vec<(u32, Vec<u64>)> {
    let hash_one = |vals: &dyn Fn(&mut DefaultHasher)| {
        let mut h = DefaultHasher::new();
        vals(&mut h);
        h.finish()
    };
    let mut label: HashMap<NodeId, u64> = HashMap::new();
    for f in inst.facts() {
        for &a in &f.args {
            let root = inst.find(a);
            let init = match inst.const_of(root) {
                Some(s) => hash_one(&|h| (1u8, s.0).hash(h)),
                None => 0,
            };
            label.insert(root, init);
        }
    }
    for _ in 0..5 {
        let mut incidence: HashMap<NodeId, Vec<u64>> = HashMap::new();
        for f in inst.facts() {
            let fact_hash = hash_one(&|h| {
                f.pred.0.hash(h);
                for &a in &f.args {
                    label[&inst.find(a)].hash(h);
                }
            });
            for (pos, &a) in f.args.iter().enumerate() {
                let entry = hash_one(&|h| (fact_hash, pos as u32).hash(h));
                incidence.entry(inst.find(a)).or_default().push(entry);
            }
        }
        label = label
            .iter()
            .map(|(&n, &old)| {
                let mut inc = incidence.remove(&n).unwrap_or_default();
                inc.sort_unstable();
                (n, hash_one(&|h| (old, &inc).hash(h)))
            })
            .collect();
    }
    let mut sig: Vec<(u32, Vec<u64>)> = inst
        .facts()
        .iter()
        .map(|f| (f.pred.0, f.args.iter().map(|&a| label[&inst.find(a)]).collect()))
        .collect();
    sig.sort();
    sig
}

/// Number of distinct union-find classes appearing in facts.
fn active_classes(inst: &Instance) -> usize {
    inst.active_nodes().len()
}

struct ChasePair {
    naive_inst: Instance,
    semi_inst: Instance,
    naive_analysis: LaAnalysis,
    semi_analysis: LaAnalysis,
    naive_matches: u64,
    semi_matches: u64,
    root: NodeId,
    vrem: Vrem,
}

fn chase_both(e: &Expr, cat: &MetaCatalog, budget: ChaseBudget) -> ChasePair {
    let mut vrem = Vrem::new();
    let enc = Encoder::new(&mut vrem, cat).encode(e).expect("generator emits valid shapes");
    let catalogue = Catalogue::standard(&mut vrem);
    let rules = RuleSet::compile(catalogue.constraints);
    let engine = ChaseEngine::new(&rules).with_budget(budget);
    let mut naive_inst = enc.instance.clone();
    let mut semi_inst = enc.instance;
    let mut naive_analysis = LaAnalysis::new(&vrem, enc.classes.clone());
    let mut semi_analysis = LaAnalysis::new(&vrem, enc.classes);
    let (naive_outcome, naive_matches) =
        chase_naive(engine, &mut naive_inst, &mut naive_analysis);
    let (semi_outcome, semi_stats) = engine.chase_analyzed(&mut semi_inst, &mut semi_analysis);
    assert_eq!(naive_outcome, ChaseOutcome::Saturated, "naive did not saturate on {e}");
    assert_eq!(semi_outcome, ChaseOutcome::Saturated, "semi-naïve did not saturate on {e}");
    ChasePair {
        naive_inst,
        semi_inst,
        naive_analysis,
        semi_analysis,
        naive_matches,
        semi_matches: semi_stats.matches_enumerated(),
        root: enc.root,
        vrem,
    }
}

/// The naive reference: the semi-naïve engine restarted every round. A
/// run's first round starts with every watermark at 0 — exactly a naive
/// round — so one-round runs looped over the same instance re-enumerate
/// every homomorphism each round, at most `budget.max_rounds` times.
/// Returns the outcome and the matches enumerated over all runs.
fn chase_naive(
    engine: ChaseEngine<'_>,
    inst: &mut Instance,
    analysis: &mut LaAnalysis,
) -> (ChaseOutcome, u64) {
    let one_round =
        ChaseEngine { budget: ChaseBudget { max_rounds: 1, ..engine.budget }, ..engine };
    let mut matches = 0;
    for _ in 0..engine.budget.max_rounds {
        let (outcome, stats) = one_round.chase_analyzed(inst, analysis);
        matches += stats.matches_enumerated();
        if outcome != ChaseOutcome::BudgetExhausted
            || stats.exhausted != Some(ExhaustedBy::Rounds)
        {
            return (outcome, matches);
        }
    }
    (ChaseOutcome::BudgetExhausted, matches)
}

#[test]
fn naive_and_semi_naive_chases_agree_on_random_corpus() {
    let cat = corpus_catalog();
    let budget =
        ChaseBudget { max_rounds: 12, max_facts: 20_000, max_nulls: 10_000, deadline: None };
    let mut rng = Rng64::new(0xADAD_5EED);
    let mut total_naive = 0u64;
    let mut total_semi = 0u64;
    let mut composites = 0usize;
    for i in 0..120 {
        let e = random_expr(&mut rng);
        if e.node_count() > 1 {
            composites += 1;
        }
        let pair = chase_both(&e, &cat, budget);
        assert_eq!(
            pair.naive_inst.num_facts(),
            pair.semi_inst.num_facts(),
            "sample {i} ({e}): fact counts diverge"
        );
        assert_eq!(
            active_classes(&pair.naive_inst),
            active_classes(&pair.semi_inst),
            "sample {i} ({e}): union-find partitions diverge"
        );
        assert_eq!(
            signature(&pair.naive_inst),
            signature(&pair.semi_inst),
            "sample {i} ({e}): saturated instances are not isomorphic"
        );
        let cells = ChainCells::default();
        let naive_ex =
            Extractor::new(&pair.vrem, &pair.naive_inst, &pair.naive_analysis, &cat, &cells);
        let semi_ex =
            Extractor::new(&pair.vrem, &pair.semi_inst, &pair.semi_analysis, &cat, &cells);
        let (np, sp) = (naive_ex.extract(pair.root), semi_ex.extract(pair.root));
        if np != sp {
            panic!(
                "sample {i} ({e}): best plans diverge\n naive: {:?}\n semi:  {:?}",
                np.map(|x| x.to_string()),
                sp.map(|x| x.to_string())
            );
        }
        let (cn, cs) = (
            naive_ex.class_cost(pair.root).expect("root solvable"),
            semi_ex.class_cost(pair.root).expect("root solvable"),
        );
        assert!((cn - cs).abs() <= 1e-6 * cn.abs().max(1.0), "sample {i} ({e}): costs diverge");
        total_naive += pair.naive_matches;
        total_semi += pair.semi_matches;
    }
    assert!(composites >= 100, "corpus too degenerate: {composites} composite samples");
    assert!(
        total_semi < total_naive,
        "semi-naïve enumerated {total_semi} matches vs naive {total_naive}"
    );
}

/// Left-deep product chain over shrinking dims ending in a vector.
fn chain_expr(dims: &[usize], cat: &mut MetaCatalog) -> Expr {
    let mut expr: Option<Expr> = None;
    for i in 0..dims.len() - 1 {
        let name = format!("M{}", i + 1);
        cat.register(&name, MatrixMeta::dense(dims[i], dims[i + 1]));
        let leaf = m(&name);
        expr = Some(match expr {
            Some(e) => mul(e, leaf),
            None => leaf,
        });
    }
    expr.unwrap()
}

#[test]
fn chain8_saturates_in_default_budget_and_semi_naive_wins() {
    // The bench's 8-matrix chain, chased under the *default* budget: the
    // semi-naïve engine must saturate it and enumerate strictly fewer
    // premise matches than the naive baseline (ISSUE 2 acceptance).
    let mut cat = MetaCatalog::new();
    let e = chain_expr(&[96, 80, 64, 48, 36, 24, 12, 6, 1], &mut cat);
    let pair = chase_both(&e, &cat, ChaseBudget::default());
    assert!(
        pair.semi_matches < pair.naive_matches,
        "semi-naïve must enumerate strictly fewer matches: {} vs {}",
        pair.semi_matches,
        pair.naive_matches
    );
    let cells = ChainCells::default();
    let ex = Extractor::new(&pair.vrem, &pair.semi_inst, &pair.semi_analysis, &cat, &cells);
    let best = ex.extract(pair.root).expect("chain decodes");
    assert_eq!(best.to_string(), "(M1 (M2 (M3 (M4 (M5 (M6 (M7 M8)))))))");
}

/// One estimator: the encoder's `expr_stats` and the ranking's
/// `expr_estimate` report the same shape and density, bit for bit, for
/// every subexpression of the corpus, and enforce the same shape rules: `qr.R`/`lu.U`
/// need a square input like their `Q`/`L` halves, whichever of the two is
/// asked.
#[test]
fn expr_stats_and_cost_model_are_one_estimator() {
    let cat = corpus_catalog();
    let mut rng = Rng64::new(0xADAD_5EED);
    let mut checked = 0usize;
    for _ in 0..120 {
        let e = random_expr(&mut rng);
        let mut todo = vec![&e];
        while let Some(sub) = todo.pop() {
            let stats = expr_stats(sub, &cat).expect("generator emits valid shapes");
            let (est, _) = expr_estimate(sub, &cat).expect("generator emits valid shapes");
            assert_eq!(
                (stats.rows, stats.cols, stats.density.to_bits()),
                (est.rows, est.cols, est.density.to_bits()),
                "estimates diverge on {sub}"
            );
            checked += 1;
            todo.extend(sub.children());
        }
    }
    assert!(checked >= 600, "corpus too degenerate: {checked} subexpressions");

    for kind in [OpKind::Qr, OpKind::Lu] {
        let e = Expr::Unary(UnaryOp::new(kind, 1).unwrap(), Arc::new(m("A")));
        assert!(matches!(expr_stats(&e, &cat), Err(ShapeError::Mismatch(_))), "{e}");
        assert!(matches!(expr_estimate(&e, &cat), Err(ShapeError::Mismatch(_))), "{e}");
    }
}
