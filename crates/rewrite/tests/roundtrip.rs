//! Round-trip property tests over a corpus of random expressions:
//!
//! * `extract(encode(e)) == e` modulo the subtraction desugaring;
//! * the optimizer's best plan evaluates to the same matrix as the
//!   original (within `1e-9` relative tolerance).

use std::sync::Arc;

use hadad_core::{
    ChainCells, Encoder, Expr, Extractor, LaAnalysis, MatrixMeta, MetaCatalog, OpKind, UnaryOp,
    Vrem,
};
use hadad_linalg::rng::Rng64;
use hadad_linalg::{approx_eq, rand_gen, Matrix};
use hadad_rewrite::{Env, Optimizer};

/// Random well-shaped expression generator. Base matrices are registered
/// on demand (one per shape) and bound to seeded random matrices, so every
/// generated expression both encodes and evaluates.
struct Gen {
    rng: Rng64,
    cat: MetaCatalog,
    env: Env,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { rng: Rng64::new(seed), cat: MetaCatalog::new(), env: Env::new() }
    }

    fn base(&mut self, rows: usize, cols: usize) -> Expr {
        let name = format!("M{rows}x{cols}");
        if self.cat.get(&name).is_none() {
            self.cat.register(&name, MatrixMeta::dense(rows, cols));
            let seed = (rows * 31 + cols) as u64;
            self.env.bind(&name, Matrix::Dense(rand_gen::random_dense(rows, cols, seed)));
        }
        Expr::mat(name)
    }

    fn dim(&mut self) -> usize {
        2 + self.rng.range_usize(4)
    }

    /// Expression of the given shape with the given remaining depth.
    fn gen(&mut self, rows: usize, cols: usize, depth: usize) -> Expr {
        if depth == 0 {
            return self.base(rows, cols);
        }
        let b = |e: Expr| Arc::new(e);
        let un = |kind, e| Expr::Unary(UnaryOp::new(kind, 0).unwrap(), b(e));
        match self.rng.range_usize(9) {
            0 => Expr::Add(
                b(self.gen(rows, cols, depth - 1)),
                b(self.gen(rows, cols, depth - 1)),
            ),
            1 => Expr::Sub(
                b(self.gen(rows, cols, depth - 1)),
                b(self.gen(rows, cols, depth - 1)),
            ),
            2 => Expr::Hadamard(
                b(self.gen(rows, cols, depth - 1)),
                b(self.gen(rows, cols, depth - 1)),
            ),
            3 => {
                let k = self.dim();
                Expr::Mul(b(self.gen(rows, k, depth - 1)), b(self.gen(k, cols, depth - 1)))
            }
            4 => {
                // Positive constants only: `-1` would collide with the
                // subtraction desugaring and make round-trip ambiguous.
                let c = 0.5 + self.rng.range_usize(4) as f64 * 0.5;
                Expr::ScalarMul(b(Expr::Const(c)), b(self.gen(rows, cols, depth - 1)))
            }
            5 => un(OpKind::Transpose, self.gen(cols, rows, depth - 1)),
            6 if cols == 1 && rows > 1 => un(OpKind::Diag, self.gen(rows, rows, depth - 1)),
            7 if rows == 1 && cols == 1 => {
                let n = self.dim();
                un(OpKind::Trace, self.gen(n, n, depth - 1))
            }
            8 if cols == 1 => {
                let k = self.dim();
                un(OpKind::RowSums, self.gen(rows, k, depth - 1))
            }
            _ => self.base(rows, cols),
        }
    }

    fn random_expr(&mut self, depth: usize) -> Expr {
        let scalar = self.rng.range_usize(4) == 0;
        let (r, c) = if scalar { (1, 1) } else { (self.dim(), self.dim()) };
        self.gen(r, c, depth)
    }
}

#[test]
fn encode_extract_roundtrips_random_corpus() {
    let mut g = Gen::new(0xD15EA5E);
    for i in 0..60 {
        let e = g.random_expr(1 + i % 4);
        let mut vrem = Vrem::new();
        let enc = Encoder::new(&mut vrem, &g.cat)
            .encode(&e)
            .unwrap_or_else(|err| panic!("encode {e}: {err}"));
        let analysis = LaAnalysis::new(&vrem, enc.classes);
        let cells = ChainCells::default();
        let ex = Extractor::new(&vrem, &enc.instance, &analysis, &g.cat, &cells);
        let back = ex.extract(enc.root).unwrap_or_else(|| panic!("extract {e}"));
        assert_eq!(back, e, "round-trip mismatch for corpus item {i}");
    }
}

#[test]
fn rewritten_plans_evaluate_to_same_matrix() {
    let mut g = Gen::new(0xBEEF);
    // Seed the corpus with a known-rewritable shape so the test cannot be
    // vacuous, then add random expressions.
    let tall = g.base(6, 2);
    let wide = g.base(2, 6);
    let trace = UnaryOp::new(OpKind::Trace, 0).unwrap();
    let mut corpus =
        vec![Expr::Unary(trace, Arc::new(Expr::Mul(Arc::new(tall), Arc::new(wide))))];
    for i in 0..25 {
        corpus.push(g.random_expr(1 + i % 3));
    }
    let mut rewritten = 0usize;
    for (i, e) in corpus.into_iter().enumerate() {
        let opt = Optimizer::new(g.cat.clone());
        let ranked = opt.rewrite(&e).unwrap_or_else(|err| panic!("rewrite {e}: {err}"));
        let reference =
            hadad_rewrite::eval(&e, &g.env).unwrap_or_else(|err| panic!("eval {e}: {err}"));
        // Every candidate the optimizer ranks must agree with the
        // original — soundness of the whole encode/chase/decode loop.
        for plan in ranked.plans.iter() {
            let value = hadad_rewrite::eval(&plan.expr, &g.env)
                .unwrap_or_else(|err| panic!("eval plan {} of {e}: {err}", plan.expr));
            assert!(
                approx_eq(&value, &reference, 1e-9),
                "plan {} disagrees with {e} (corpus item {i})",
                plan.expr
            );
        }
        if i == 0 {
            // The seeded trace expression must expose the rotated product.
            assert!(
                ranked.plans.len() >= 2,
                "seeded trace expression produced no alternatives"
            );
        }
        if ranked.best().expr != e {
            rewritten += 1;
        }
    }
    // The seeded expression guarantees at least one genuine rewrite.
    assert!(rewritten > 0, "no expression was ever rewritten");
}
