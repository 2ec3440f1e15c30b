//! "Same chase" pinned as a test: for the 120-expression corpus of
//! `equivalence.rs` and four product chains, the chase's work counts and the
//! winning plan must equal a fixture recorded from the commit *before* the
//! matcher was rewritten (slot bindings, streamed conclusion check, id-keyed
//! instance indexes, compiled rule set). A matcher change that enumerates,
//! fires or derives anything different — even with an isomorphic result —
//! fails here, not only in a bench count. The count columns were
//! re-recorded three times, every plan and fact count staying byte-equal:
//! when shapes and densities moved from stats rules and facts into the
//! chase's analysis; when functional EGDs came to be enforced where the
//! memo is written — their premise matches are gone from every row, and on
//! one row a cascade of merges now lands a round earlier; and when the
//! encoder came to tabulate product chains — the associativity rules no
//! longer re-derive the table, so the 18 rows with a chain of three or
//! more factors lose those matches and firings (the 12-chain goes from 6
//! rounds and 1 740 matches to 1 round and none). The fact column alone
//! was re-recorded when a chain's table came to stay out of the instance
//! where no rule but associativity can read it: the four chains and seven
//! corpus rows count their encoded facts only (the 12-chain 298 → 23).
//! Two rows' plans were re-recorded when ranking came to break equal-cost
//! ties by the plans' rendering instead of by extraction order: samples 54
//! and 85 each tie several candidates at the best cost (40 and 1 776
//! flops).

use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;
use hadad_rewrite::Optimizer;

mod common;
use common::{corpus_catalog, random_expr};

/// `rounds matches firings egd_merges num_facts | best plan` of one cold
/// rewrite. There is no plan cache: every call chases.
fn render(cat: MetaCatalog, e: &Expr) -> String {
    let opt = Optimizer::new(cat).with_plan_cache(0);
    let ranked = opt.rewrite(e).expect("generator emits valid shapes");
    let r = &ranked.report;
    format!(
        "{} {} {} {} {} | {}\n",
        r.chase_rounds,
        r.chase_stats.matches_enumerated(),
        r.chase_stats.firings(),
        r.chase_stats.egd_merges,
        r.num_facts,
        ranked.best().expr
    )
}

/// The 120 random expressions of `equivalence.rs`, then left-deep product
/// chains of 4, 6, 8 and 12 factors — the shape whose chase enumerates
/// thousands of matches, where an enumeration-order slip would show.
fn render_corpus() -> String {
    let mut rng = Rng64::new(0xADAD_5EED);
    let mut out = String::new();
    for _ in 0..120 {
        out.push_str(&render(corpus_catalog(), &random_expr(&mut rng)));
    }
    let dims = [96, 80, 64, 48, 36, 24, 20, 16, 12, 8, 6, 4, 1];
    for len in [4, 6, 8, 12] {
        let mut cat = MetaCatalog::new();
        let mut chain: Option<Expr> = None;
        for i in 0..len {
            let name = format!("M{}", i + 1);
            cat.register(&name, MatrixMeta::dense(dims[i], dims[i + 1]));
            chain = Some(match chain {
                Some(e) => mul(e, m(&name)),
                None => m(&name),
            });
        }
        out.push_str(&render(cat, &chain.expect("len >= 1")));
    }
    out
}

#[test]
fn chase_counts_and_best_plans_match_the_recorded_fixture() {
    let expected = include_str!("fixtures/same_chase.txt");
    let actual = render_corpus();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "sample {i}: chase counts or best plan changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
