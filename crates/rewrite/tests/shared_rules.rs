//! One standard rule set per process: every rewrite, from every optimizer
//! and every thread, chases over the same compiled standard rules, and
//! compiles only what its own views add.
//!
//! A chase reports each rule's name as the `Arc<str>` of the compiled rule
//! it ran (`ChaseStats::rules`), so "which allocation did this rewrite
//! chase with" reads off the public report: a rule compiled again would
//! carry a name of its own.
//!
//! One test, so that the four threads below really are the first in this
//! process to touch the shared value.

use std::sync::Barrier;

use hadad_core::expr::dsl::*;
use hadad_core::{Catalogue, MatrixMeta, MetaCatalog};
use hadad_rewrite::Optimizer;

/// Addresses of the rule names a rewrite of `XᵀX` under `opt` chased with
/// (as integers: they cross thread boundaries and are only ever compared).
fn chased_with(opt: &Optimizer) -> Vec<usize> {
    let ranked = opt.rewrite(&mul(t(m("X")), m("X"))).expect("rewrites");
    ranked.report.chase_stats.rules.iter().map(|r| r.name.as_ptr() as usize).collect()
}

/// An optimizer over a 200×8 `X`, with `views` views over it.
fn optimizer(views: usize) -> Optimizer {
    let mut cat = MetaCatalog::new();
    cat.register("X", MatrixMeta::dense(200, 8));
    let mut opt = Optimizer::new(cat);
    let defs = [("G", mul(t(m("X")), m("X"))), ("H", mul(m("X"), t(m("X"))))];
    for (name, def) in defs.into_iter().take(views) {
        opt.register_la_view(name, def).unwrap();
    }
    opt
}

#[test]
fn every_rewrite_chases_over_the_one_standard_rule_set() {
    // First touch, from four threads at once: two optimizers without a
    // view, two with one.
    let gate = Barrier::new(4);
    let runs: Vec<Vec<usize>> = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..4)
            .map(|i| {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    chased_with(&optimizer(i % 2))
                })
            })
            .collect();
        spawned.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let (_, standard) = Catalogue::shared_standard();
    let shared: Vec<usize> =
        standard.rules().iter().map(|r| r.name().as_ptr() as usize).collect();
    for (i, run) in runs.iter().enumerate() {
        // `v` views: the shared rules, then `2·v` compiled for the call.
        assert_eq!(run.len(), shared.len() + 2 * (i % 2));
        assert_eq!(run[..shared.len()], shared[..], "thread {i} compiled a standard rule");
    }

    // No view: zero rules compiled — the chase ran the shared set, whole.
    assert_eq!(chased_with(&optimizer(0)), shared);

    // Nothing of a call's extension is kept: the next call compiles its
    // `2·v` again, and shares the rest again.
    let viewed = optimizer(2);
    let (first, second) = (chased_with(&viewed), chased_with(&viewed));
    assert_eq!(first.len(), shared.len() + 2 * 2);
    assert_eq!(first[..shared.len()], shared[..]);
    assert_eq!(second[..shared.len()], shared[..]);
}
