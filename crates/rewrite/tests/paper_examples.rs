//! Acceptance tests: the paper-style rewrite families the optimizer must
//! find, each verified by executing original vs. rewritten plan on the
//! linalg backend (HADAD §2 examples, §9 workloads).

use std::sync::Arc;

use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog, OpKind, TypeFlags, UnaryOp};
use hadad_linalg::{rand_gen, Matrix};
use hadad_rewrite::{Env, Optimizer};

fn assert_rewrites_cheaper(opt: &Optimizer, env: &Env, original: &Expr, expected_best: &str) {
    let ranked = opt.rewrite(original).expect("rewrite succeeds");
    let best = ranked.best();
    assert_eq!(best.expr.to_string(), expected_best, "best plan for {original}");
    assert!(
        best.est_cost < ranked.original.est_cost,
        "best plan {} (cost {}) must beat original {} (cost {})",
        best.expr,
        best.est_cost,
        original,
        ranked.original.est_cost
    );
    assert!(
        opt.check_equivalent(original, &best.expr, env, 1e-9).expect("plans evaluate"),
        "rewritten plan {} disagrees with {original}",
        best.expr
    );
}

/// Family 1 — trace cyclicity: `trace(A B) = trace(B A)` avoids the big
/// `n x n` intermediate when A is tall and B is wide.
#[test]
fn trace_cyclic_family() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(400, 8));
    cat.register("B", MatrixMeta::dense(8, 400));
    let mut env = Env::new();
    env.bind("A", Matrix::Dense(rand_gen::random_dense(400, 8, 1)));
    env.bind("B", Matrix::Dense(rand_gen::random_dense(8, 400, 2)));
    let opt = Optimizer::new(cat);
    assert_rewrites_cheaper(&opt, &env, &trace(mul(m("A"), m("B"))), "trace((B A))");
}

/// Family 2 — multiplication reassociation: `(A B) x` to `A (B x)` turns a
/// matrix-matrix product into two matrix-vector products.
#[test]
fn matrix_chain_family() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(300, 40));
    cat.register("B", MatrixMeta::dense(40, 300));
    cat.register("x", MatrixMeta::dense(300, 1));
    let mut env = Env::new();
    env.bind("A", Matrix::Dense(rand_gen::random_dense(300, 40, 3)));
    env.bind("B", Matrix::Dense(rand_gen::random_dense(40, 300, 4)));
    env.bind("x", Matrix::Dense(rand_gen::random_dense(300, 1, 5)));
    let opt = Optimizer::new(cat);
    assert_rewrites_cheaper(&opt, &env, &mul(mul(m("A"), m("B")), m("x")), "(A (B x))");
}

/// Family 3 — transpose push-down: `(A B)ᵀ = Bᵀ Aᵀ` transposes the two
/// skinny factors instead of the large product.
#[test]
fn transpose_pushdown_family() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(200, 3));
    cat.register("B", MatrixMeta::dense(3, 200));
    let mut env = Env::new();
    env.bind("A", Matrix::Dense(rand_gen::random_dense(200, 3, 6)));
    env.bind("B", Matrix::Dense(rand_gen::random_dense(3, 200, 7)));
    let opt = Optimizer::new(cat);
    assert_rewrites_cheaper(&opt, &env, &t(mul(m("A"), m("B"))), "(Bᵀ Aᵀ)");
}

/// Family 4 — decomposition reuse: `trace(Q R)` for `[Q, R] = QR(D)`
/// collapses to `trace(D)`, skipping the `O(n³)` factorization entirely.
#[test]
fn qr_reuse_family() {
    let mut cat = MetaCatalog::new();
    cat.register("D", MatrixMeta::dense(60, 60));
    let mut env = Env::new();
    env.bind("D", Matrix::Dense(rand_gen::random_invertible(60, 8)));
    let opt = Optimizer::new(cat);
    let qr = |out| Expr::Unary(UnaryOp::new(OpKind::Qr, out).unwrap(), Arc::new(m("D")));
    let e = trace(mul(qr(0), qr(1)));
    assert_rewrites_cheaper(&opt, &env, &e, "trace(D)");
}

/// Family 4b — Cholesky recomposition: `L Lᵀ = S` for `L = cho(S)` when S
/// is flagged symmetric positive definite.
#[test]
fn cholesky_reuse_family() {
    let mut cat = MetaCatalog::new();
    cat.register(
        "S",
        MatrixMeta::dense(50, 50)
            .with_flags(TypeFlags { symmetric_pd: true, ..Default::default() }),
    );
    let mut env = Env::new();
    env.bind("S", Matrix::Dense(rand_gen::random_spd(50, 9)));
    let opt = Optimizer::new(cat);
    assert_rewrites_cheaper(&opt, &env, &mul(cho(m("S")), t(cho(m("S")))), "S");
}

/// The execution hook rejects plans that are *not* equivalent.
#[test]
fn execution_hook_detects_disagreement() {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(10, 10));
    cat.register("B", MatrixMeta::dense(10, 10));
    let mut env = Env::new();
    env.bind("A", Matrix::Dense(rand_gen::random_dense(10, 10, 10)));
    env.bind("B", Matrix::Dense(rand_gen::random_dense(10, 10, 11)));
    let opt = Optimizer::new(cat);
    // A·B != B·A in general: the checker must say so.
    let ok =
        opt.check_equivalent(&mul(m("A"), m("B")), &mul(m("B"), m("A")), &env, 1e-9).unwrap();
    assert!(!ok);
}
