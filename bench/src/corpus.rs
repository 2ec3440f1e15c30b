//! Seeded input generators. Each workload draws everything — dimensions,
//! matrix entries, table contents, selection constants, the update stream,
//! the query mix — from one xoshiro stream seeded with the CLI `--seed`, so
//! the program under test sees only generated inputs and the same seed
//! always yields the same corpus (`corpus_hash`).
//!
//! The *shape* of every corpus — how many pipelines of which family, table
//! sizes, operand sizes, and the drawn chain dimensions, which come from the
//! constant [`SHAPE_SEED`] stream — does not depend on `--seed`: the seed
//! changes the inputs, not the amount of work, so a metric's spread across
//! seeds is a noise measurement and not a different benchmark. (The chase's
//! cost pruner reads dimensions: with seed-drawn dimensions `la_rewrite`'s
//! latencies differed by 5–20 % between seeds at equal code, against 1–3 %
//! between runs of one seed.)

use std::collections::VecDeque;

use hadad_chase::ChaseBudget;
use hadad_core::expr::dsl::*;
use hadad_core::{Expr, MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;
use hadad_linalg::{rand_gen, Matrix};
use hadad_relational::{Column, Table, Value};
use hadad_rewrite::{CastKind, Env, HybridPipeline, MaintainedCast, RelQuery};

/// FNV-1a accumulator behind `corpus_hash`.
pub struct CorpusHash(u64);

impl CorpusHash {
    pub fn new() -> Self {
        CorpusHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        match m {
            Matrix::Dense(d) => {
                for r in 0..d.rows() {
                    for c in 0..d.cols() {
                        self.u64(d.get(r, c).to_bits());
                    }
                }
            }
            Matrix::Sparse(s) => {
                for (r, c, v) in s.triplets() {
                    self.u64(r as u64);
                    self.u64(c as u64);
                    self.u64(v.to_bits());
                }
            }
        }
    }

    pub fn table(&mut self, t: &Table) {
        for name in t.column_names() {
            self.str(name);
        }
        for h in hadad_relational::ivm::table_row_hashes(t) {
            self.u64(h);
        }
    }

    /// The hash folded to 32 bits, so it survives a trip through an `f64`
    /// metric value exactly.
    pub fn finish32(&self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

/// Zipf(s) sampler over ranks `0..n` (rank 0 is the hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// Pure-LA pipelines
// ---------------------------------------------------------------------------

/// One pure-LA pipeline: the expression, the metadata the optimizer prices
/// it under, the operands, and the LA views registered for it.
pub struct LaPipeline {
    pub name: String,
    pub expr: Expr,
    pub cat: MetaCatalog,
    /// Base matrices only; view materializations are bound at set-up.
    pub env: Env,
    pub budget: ChaseBudget,
    pub views: Vec<(String, Expr)>,
}

/// Budget under which even the 12-chains saturate (the optimizer's default
/// stops them at round 12 and would report every such op `degraded`).
pub const CHAIN_BUDGET: ChaseBudget =
    ChaseBudget { max_rounds: 24, max_facts: 60_000, max_nulls: 30_000, deadline: None };

struct LaBuilder<'a> {
    rng: &'a mut Rng64,
    cat: MetaCatalog,
    env: Env,
}

impl<'a> LaBuilder<'a> {
    fn new(rng: &'a mut Rng64) -> Self {
        LaBuilder { rng, cat: MetaCatalog::new(), env: Env::new() }
    }

    fn bind(&mut self, name: &str, mat: Matrix) -> Expr {
        let meta = match &mat {
            Matrix::Dense(d) => MatrixMeta::dense(d.rows(), d.cols()),
            Matrix::Sparse(_) => MatrixMeta::from_matrix(&mat),
        };
        self.cat.register(name, meta);
        self.env.bind(name, mat);
        m(name)
    }

    fn dense(&mut self, name: &str, rows: usize, cols: usize) -> Expr {
        let seed = self.rng.next_u64();
        self.bind(name, Matrix::Dense(rand_gen::random_dense(rows, cols, seed)))
    }

    /// Well-conditioned square operand, so inverse/determinant rewrites stay
    /// inside `SOUNDNESS_RTOL` of the original.
    fn invertible(&mut self, name: &str, n: usize) -> Expr {
        let seed = self.rng.next_u64();
        self.bind(name, Matrix::Dense(rand_gen::random_invertible(n, seed)))
    }

    fn sparse(&mut self, name: &str, rows: usize, cols: usize, density: f64) -> Expr {
        let seed = self.rng.next_u64();
        self.bind(name, Matrix::Sparse(rand_gen::random_sparse(rows, cols, density, seed)))
    }

    fn finish(
        self,
        name: String,
        expr: Expr,
        budget: ChaseBudget,
        views: Vec<(String, Expr)>,
    ) -> LaPipeline {
        LaPipeline { name, expr, cat: self.cat, env: self.env, budget, views }
    }
}

/// Shrinking dimensions for a product chain of `len` matrices ending in a
/// column vector: `d0 ≤ max`, every next one 60–95 % of the previous.
fn shrinking_dims(rng: &mut Rng64, len: usize, max: usize) -> Vec<usize> {
    let mut dims = Vec::with_capacity(len + 1);
    let mut d = max - rng.range_usize(max / 4);
    for _ in 0..len {
        dims.push(d);
        d = ((d as f64 * rng.range_f64(0.60, 0.95)).round() as usize).max(2);
    }
    dims.push(1);
    dims
}

/// Left-deep product chain `((M1 M2) M3) …` over `dims`, matrices named
/// `<prefix>1..`; `head` replaces `M1` when given (the hybrid cast).
fn left_deep_chain(
    b: &mut LaBuilder<'_>,
    prefix: &str,
    dims: &[usize],
    head: Option<Expr>,
) -> Expr {
    let mut expr = head;
    for i in 0..dims.len() - 1 {
        if i == 0 && expr.is_some() {
            continue;
        }
        let leaf = b.dense(&format!("{prefix}{}", i + 1), dims[i], dims[i + 1]);
        expr = Some(match expr {
            Some(e) => mul(e, leaf),
            None => leaf,
        });
    }
    expr.expect("chain has at least one matrix")
}

/// Seed of the stream every chain dimension is drawn from.
pub const SHAPE_SEED: u64 = 0x4841_4441;
/// `(chain length, how many)` of `la_rewrite`. With the 16 nested pipelines
/// (all cheaper than any chain) below them, the 24th/25th of the 48
/// pipelines by cost sit in the middle of the 8-chains and the 46th among
/// the 12-chains, so neither p50 nor p95 falls between two classes.
pub const CHAINS: [(usize, usize); 4] = [(6, 4), (8, 10), (10, 9), (12, 9)];
/// Largest dimension `la_rewrite` draws: kernels must stay a small share.
pub const REWRITE_MAX_DIM: usize = 64;

/// The `la_rewrite` corpus: 32 shrinking product chains and 16 nested
/// pipelines from the paper's §9.1 families; every third pipeline has a
/// materialized LA view the rewriter can land on.
pub fn la_rewrite_corpus(rng: &mut Rng64) -> Vec<LaPipeline> {
    let mut shape = Rng64::new(SHAPE_SEED);
    let mut out = Vec::new();
    for (len, count) in CHAINS {
        for k in 0..count {
            let dims = shrinking_dims(&mut shape, len, REWRITE_MAX_DIM);
            let mut b = LaBuilder::new(rng);
            let expr = left_deep_chain(&mut b, "M", &dims, None);
            // The cheapest association is right-deep, so the last product
            // is the one sub-plan a view can serve.
            let views = if out.len() % 3 == 0 {
                vec![("V".to_owned(), mul(m(&format!("M{}", len - 1)), m(&format!("M{len}"))))]
            } else {
                Vec::new()
            };
            out.push(b.finish(format!("chain{len}_{k}"), expr, CHAIN_BUDGET, views));
        }
    }
    for k in 0..NESTED_FAMILIES {
        for rep in 0..2 {
            out.push(nested_pipeline(rng, &mut shape, k, rep));
        }
    }
    out
}

const NESTED_FAMILIES: usize = 8;

/// One nested pipeline of family `k` with drawn dimensions (paper §9.1:
/// sums, transposes, traces, determinants and inverses pushed through
/// products).
fn nested_pipeline(rng: &mut Rng64, shape: &mut Rng64, k: usize, rep: usize) -> LaPipeline {
    let n = REWRITE_MAX_DIM / 2 + shape.range_usize(REWRITE_MAX_DIM / 2);
    let p = 4 + shape.range_usize(12);
    let mut b = LaBuilder::new(rng);
    let mut views = Vec::new();
    let expr = match k {
        // trace(A B) with a thin inner dimension: trace(B A) is p×p.
        0 => {
            let (a, bb) = (b.dense("A", n, p), b.dense("B", p, n));
            trace(mul(a, bb))
        }
        // (A B) x: matrix–vector re-association.
        1 => {
            let (a, bb, x) = (b.dense("A", n, p), b.dense("B", p, n), b.dense("x", n, 1));
            mul(mul(a, bb), x)
        }
        // (A B)ᵀ C: transpose pushed through a product.
        2 => {
            let (a, bb, c) = (b.dense("A", n, p), b.dense("B", p, n), b.dense("C", n, 1));
            mul(t(mul(a, bb)), c)
        }
        // sum(A B): row/column sums replace the product.
        3 => {
            let (a, bb) = (b.dense("A", n, p), b.dense("B", p, n));
            sum(mul(a, bb))
        }
        // det(C D): determinant of a product.
        4 => {
            let (c, d) = (b.invertible("C", p + 4), b.invertible("D", p + 4));
            det(mul(c, d))
        }
        // (C D)⁻¹ x: inverse of a product applied to a vector.
        5 => {
            let (c, d) = (b.invertible("C", p + 4), b.invertible("D", p + 4));
            let x = b.dense("x", p + 4, 1);
            mul(inv(mul(c, d)), x)
        }
        // trace(Aᵀ + Bᵀ): transposes and sums under a trace.
        6 => {
            let (a, bb) = (b.dense("A", n, n), b.dense("B", n, n));
            trace(add(t(a), t(bb)))
        }
        // Ridge normal equations with the gram matrix as an LA view.
        _ => {
            let (x, y) = (b.dense("X", n * 2, p), b.dense("y", n * 2, 1));
            let gram = mul(t(x.clone()), x.clone());
            views.push(("G".to_owned(), gram.clone()));
            mul(inv(add(gram, smul(lit(0.5), Expr::Identity(p)))), mul(t(x), y))
        }
    };
    // The second instance of the three product families carries a view over
    // the product its best plan needs, which with the ridge pair and the
    // chains makes a third of the corpus.
    if rep == 1 && k <= 2 {
        let def = if k == 0 { mul(m("B"), m("A")) } else { mul(m("A"), m("B")) };
        views.push(("P".to_owned(), def));
    }
    b.finish(format!("nested{k}_{rep}"), expr, CHAIN_BUDGET, views)
}

/// Operand sizes of `la_exec`, chosen so one pass is ~100 ms on the seed
/// commit: short pipelines, large operands, and a *best* plan that is still
/// heavy, so kernels are > 90 % of an op and rewriting < 5 %.
pub mod exec_size {
    pub const GEMM: usize = 352;
    pub const GRAM_ROWS: usize = 2400;
    pub const GRAM_COLS: usize = 96;
    pub const SPARSE_N: usize = 2000;
    pub const SPARSE_DENSITY: f64 = 0.01;
    pub const CHAIN3: usize = 224;
    pub const TMUL_ROWS: usize = 1200;
    pub const TMUL_COLS: usize = 128;
    pub const SPMM_N: usize = 4000;
    pub const SPMM_COLS: usize = 96;
    pub const DSP_ROWS: usize = 256;
}

/// An expression and the LA views registered for it.
type Built = (Expr, Vec<(String, Expr)>);

/// The `la_exec` corpus: nine short pipelines over large operands.
pub fn la_exec_corpus(rng: &mut Rng64) -> Vec<LaPipeline> {
    use exec_size::*;
    let budget = ChaseBudget::default();
    let mut out = Vec::new();
    let mut push =
        |name: &str, rng: &mut Rng64, build: &dyn Fn(&mut LaBuilder<'_>) -> Built| {
            let mut b = LaBuilder::new(rng);
            let (expr, views) = build(&mut b);
            out.push(b.finish(name.to_owned(), expr, budget, views));
        };
    let ridge = |b: &mut LaBuilder<'_>| {
        let (x, y) = (b.dense("X", GRAM_ROWS, GRAM_COLS), b.dense("y", GRAM_ROWS, 1));
        let gram = mul(t(x.clone()), x.clone());
        let e = mul(
            inv(add(gram.clone(), smul(lit(0.5), Expr::Identity(GRAM_COLS)))),
            mul(t(x), y),
        );
        (e, gram)
    };
    push("dense_gemm", rng, &|b| {
        (mul(b.dense("G1", GEMM, GEMM), b.dense("G2", GEMM, GEMM)), vec![])
    });
    push("ridge", rng, &|b| (ridge(b).0, vec![]));
    push("ridge_gram_view", rng, &|b| {
        let (e, gram) = ridge(b);
        (e, vec![("G".to_owned(), gram)])
    });
    push("spgemm", rng, &|b| {
        let s1 = b.sparse("S1", SPARSE_N, SPARSE_N, SPARSE_DENSITY);
        let s2 = b.sparse("S2", SPARSE_N, SPARSE_N, SPARSE_DENSITY);
        (mul(s1, s2), vec![])
    });
    push("square_chain3", rng, &|b| {
        let (a, bb, c) = (
            b.dense("A", CHAIN3, CHAIN3),
            b.dense("B", CHAIN3, CHAIN3),
            b.dense("C", CHAIN3, CHAIN3),
        );
        (mul(mul(a, bb), c), vec![])
    });
    push("fused_tmul", rng, &|b| {
        let (a, bb) = (b.dense("A", TMUL_ROWS, TMUL_COLS), b.dense("B", TMUL_ROWS, TMUL_COLS));
        (mul(t(a), bb), vec![])
    });
    push("spmm", rng, &|b| {
        let s = b.sparse("S", SPMM_N, SPMM_N, SPARSE_DENSITY);
        (mul(s, b.dense("D", SPMM_N, SPMM_COLS)), vec![])
    });
    push("dense_sparse", rng, &|b| {
        let d = b.dense("D", DSP_ROWS, SPARSE_N);
        (mul(d, b.sparse("S", SPARSE_N, SPARSE_N, SPARSE_DENSITY)), vec![])
    });
    push("gemm_of_sum", rng, &|b| {
        let (a, bb, c) = (
            b.dense("A", CHAIN3, CHAIN3),
            b.dense("B", CHAIN3, CHAIN3),
            b.dense("C", CHAIN3, CHAIN3),
        );
        (mul(a, add(bb, c)), vec![])
    });
    out
}

// ---------------------------------------------------------------------------
// Tables, hybrid pipelines, update stream
// ---------------------------------------------------------------------------

pub const N_TWEETS: usize = 200_000;
pub const N_USERS: usize = 20_000;
pub const N_TOPICS: i64 = 200;
pub const N_COUNTRIES: i64 = 20;
pub const N_LEVELS: i64 = 5;
/// One user in this many is `verified` (the join view keeps their tweets).
pub const VERIFIED_ONE_IN: usize = 20;
/// Rows inserted and rows deleted per update batch.
pub const BATCH_ROWS: usize = 1000;
/// Row ids available to sparse casts: the live table plus the ids a batch
/// holds before its deletes free them.
pub const TID_SPACE: usize = N_TWEETS + 2 * BATCH_ROWS;

/// A tweet as the update stream tracks it: `[tid, uid, topic, level]`.
pub type TweetRow = [i64; 4];

fn tweet_values(r: &TweetRow) -> Vec<Value> {
    r.iter().map(|&v| Value::Int(v)).collect()
}

fn draw_tweet(rng: &mut Rng64, tid: i64) -> TweetRow {
    [
        tid,
        rng.range_i64(0, N_USERS as i64 - 1),
        rng.range_i64(0, N_TOPICS - 1),
        rng.range_i64(1, N_LEVELS),
    ]
}

/// The base tables every relational workload starts from, with the tweet
/// rows kept aside for the update stream.
pub struct Tables {
    pub tweets: Table,
    pub users: Table,
    pub rows: Vec<TweetRow>,
}

pub fn tables(rng: &mut Rng64) -> Tables {
    let rows: Vec<TweetRow> = (0..N_TWEETS as i64).map(|tid| draw_tweet(rng, tid)).collect();
    let col = |i: usize| Column::Int(rows.iter().map(|r| r[i]).collect());
    let tweets = Table::new(vec![
        ("tid", col(0)),
        ("uid", col(1)),
        ("topic", col(2)),
        ("level", col(3)),
    ]);
    let n = N_USERS as i64;
    let users = Table::new(vec![
        ("uid", Column::Int((0..n).collect())),
        ("country", Column::Int((0..n).map(|_| rng.range_i64(0, N_COUNTRIES - 1)).collect())),
        (
            "verified",
            Column::Int(
                (0..n).map(|_| i64::from(rng.range_usize(VERIFIED_ONE_IN) == 0)).collect(),
            ),
        ),
        ("followers", Column::Int((0..n).map(|_| rng.range_i64(0, 999)).collect())),
    ]);
    Tables { tweets, users, rows }
}

/// Steady-state update stream over `tweets`: every batch inserts
/// [`BATCH_ROWS`] fresh rows and deletes the [`BATCH_ROWS`] oldest live ones.
/// Only rows the stream itself knows to be live are ever deleted (and with
/// their exact values), and a deleted row's `tid` is reused only by a later
/// batch, so `tid` stays a key, every delete finds its row, and every view
/// invariant that holds of the initial table holds after every batch.
pub struct UpdateStream {
    rng: Rng64,
    live: VecDeque<TweetRow>,
    free_tids: Vec<i64>,
}

impl UpdateStream {
    pub fn new(rng: Rng64, rows: Vec<TweetRow>) -> Self {
        let free_tids = (N_TWEETS as i64..(N_TWEETS + BATCH_ROWS) as i64).rev().collect();
        UpdateStream { rng, live: rows.into(), free_tids }
    }

    /// `(inserts, deletes)` of the next batch.
    pub fn next_batch(&mut self) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let mut inserts = Vec::with_capacity(BATCH_ROWS);
        for _ in 0..BATCH_ROWS {
            let tid = self.free_tids.pop().expect("a tid is free for every insert");
            let row = draw_tweet(&mut self.rng, tid);
            inserts.push(tweet_values(&row));
            self.live.push_back(row);
        }
        let mut deletes = Vec::with_capacity(BATCH_ROWS);
        for _ in 0..BATCH_ROWS {
            let row = self.live.pop_front().expect("the table never runs empty");
            deletes.push(tweet_values(&row));
            self.free_tids.push(row[0]);
        }
        (inserts, deletes)
    }

    #[cfg(test)]
    pub fn live_rows(&self) -> usize {
        self.live.len()
    }
}

/// A registered table view.
pub struct ViewDef {
    pub name: &'static str,
    pub def: RelQuery,
}

/// One named hybrid pipeline.
#[derive(Clone)]
pub struct HybridQuery {
    pub name: String,
    pub pipeline: HybridPipeline,
}

/// Everything a hybrid workload registers and runs.
pub struct HybridCorpus {
    pub views: Vec<ViewDef>,
    /// LA views over a cast matrix: `(view name, cast name, definition)`.
    pub la_views: Vec<(String, String, Expr)>,
    pub queries: Vec<HybridQuery>,
    pub la_cat: MetaCatalog,
    pub la_env: Env,
}

fn sparse_cast() -> CastKind {
    CastKind::Sparse {
        row: "tid".into(),
        col: "topic".into(),
        val: "level".into(),
        rows: TID_SPACE,
        cols: N_TOPICS as usize,
    }
}

fn dense_cast(columns: &[&str]) -> CastKind {
    CastKind::Dense { columns: columns.iter().map(|c| (*c).to_owned()).collect() }
}

/// Distinct constants from `0..n`, so no two prefixes coincide by accident.
fn distinct(rng: &mut Rng64, n: i64, count: usize) -> Vec<i64> {
    let mut pool: Vec<i64> = (0..n).collect();
    (0..count).map(|_| pool.swap_remove(rng.range_usize(pool.len()))).collect()
}

/// The `hybrid_query` corpus: six table views and thirteen pipelines —
/// select, select + join, and join + project prefixes, each once over a view
/// and once with constants no view covers; sparse and sorted-dense casts;
/// suffixes of at most five nodes; one LA view over a cast.
pub fn hybrid_corpus(rng: &mut Rng64) -> HybridCorpus {
    let topic = distinct(rng, N_TOPICS, 10);
    let country = distinct(rng, N_COUNTRIES, 2);
    let mut b = LaBuilder::new(rng);
    let w = b.dense("w", TID_SPACE, 1);
    let v3 = b.dense("v3", 3, 1);
    let v2 = b.dense("v2", 2, 1);

    let sel = |t: i64| RelQuery::scan("tweets").select_eq("topic", t);
    let sel_join = |t: i64| sel(t).join("users", "uid", "uid");
    let join_country =
        |c: i64| RelQuery::scan("tweets").join("users", "uid", "uid").select_eq("country", c);
    let views = vec![
        ViewDef { name: "topic_a", def: sel(topic[0]) },
        ViewDef { name: "topic_b", def: sel(topic[1]) },
        ViewDef { name: "topic_c_users", def: sel_join(topic[2]) },
        ViewDef { name: "topic_d_users", def: sel_join(topic[3]) },
        ViewDef { name: "country_e", def: join_country(country[0]) },
        ViewDef {
            name: "level_top",
            def: RelQuery::scan("tweets").select_eq("level", N_LEVELS),
        },
    ];

    let mut queries = Vec::new();
    let mut add = |name: &str,
                   prefix: RelQuery,
                   dense: Option<&[&str]>,
                   cast_name: &str,
                   suffix: Expr| {
        queries.push(HybridQuery {
            name: name.to_owned(),
            pipeline: HybridPipeline {
                prefix,
                sort_key: dense.map(|_| "tid".to_owned()),
                cast: dense.map_or_else(sparse_cast, dense_cast),
                cast_name: cast_name.to_owned(),
                suffix,
            },
        });
    };
    let ntw = |n: &str| mul(t(m(n)), w.clone());
    let gram = |n: &str| mul(t(m(n)), m(n));
    let feats: &[&str] = &["level", "followers", "country"];
    // Each shape twice: constants a view covers, then constants none does.
    for (i, backed) in [true, false].into_iter().enumerate() {
        let k = i * 5;
        let tag = if backed { "view" } else { "base" };
        let (ta, tb, tc, td) = if backed {
            (topic[0], topic[1], topic[2], topic[3])
        } else {
            (topic[k - 1], topic[k], topic[k + 1], topic[k + 2])
        };
        add(&format!("select_sparse_{tag}"), sel(ta), None, "N", ntw("N"));
        add(
            &format!("select_dense_{tag}"),
            sel(tb).project(&["tid", "level", "uid"]),
            Some(&["level", "uid"]),
            &format!("X{k}"),
            mul(t(m(&format!("X{k}"))), mul(m(&format!("X{k}")), v2.clone())),
        );
        add(
            &format!("select_join_gram_{tag}"),
            sel_join(tc).project(&["tid", "level", "followers", "country"]),
            Some(feats),
            &format!("Y{k}"),
            gram(&format!("Y{k}")),
        );
        add(
            &format!("select_join_sparse_{tag}"),
            sel_join(td),
            None,
            &format!("S{k}"),
            col_sums(m(&format!("S{k}"))),
        );
        add(
            &format!("join_project_{tag}"),
            join_country(country[i]).project(&["tid", "level", "followers", "country"]),
            Some(feats),
            &format!("Z{k}"),
            mul(m(&format!("Z{k}")), v3.clone()),
        );
        let lv = if backed { N_LEVELS } else { N_LEVELS - 1 };
        add(
            &format!("level_sparse_{tag}"),
            RelQuery::scan("tweets").select_eq("level", lv),
            None,
            &format!("L{k}"),
            sum(m(&format!("L{k}"))),
        );
    }
    // A thirteenth pipeline makes the count odd, so the median op latency
    // falls inside one pipeline's distribution and not between two.
    add(
        "select_project_view",
        sel(topic[1]).project(&["tid", "level"]),
        Some(&["level"]),
        "P",
        col_sums(m("P")),
    );
    let la_views = vec![("NT".to_owned(), "N".to_owned(), t(m("N")))];
    HybridCorpus { views, la_views, queries, la_cat: b.cat, la_env: b.env }
}

/// The maintained state of `ivm_stream` (and the writer of `serve_mixed`):
/// a select view, a join view whose *right* side is the updated table (so
/// `L ⋈ ΔR` runs on every batch), and a maintained cast over each.
pub struct IvmCorpus {
    pub views: Vec<ViewDef>,
    pub casts: Vec<MaintainedCast>,
}

pub fn ivm_corpus(rng: &mut Rng64) -> IvmCorpus {
    let topic = rng.range_i64(0, N_TOPICS - 1);
    let views = vec![
        ViewDef { name: "hot_topic", def: RelQuery::scan("tweets").select_eq("topic", topic) },
        ViewDef {
            name: "verified_tweets",
            def: RelQuery::scan("users").select_eq("verified", 1).join("tweets", "uid", "uid"),
        },
    ];
    let casts = vec![
        MaintainedCast {
            cast_name: "HotN".into(),
            view: "hot_topic".into(),
            sort_key: None,
            cast: sparse_cast(),
        },
        MaintainedCast {
            cast_name: "VerX".into(),
            view: "verified_tweets".into(),
            sort_key: Some("tid".into()),
            cast: dense_cast(&["level", "followers"]),
        },
    ];
    IvmCorpus { views, casts }
}

pub const SERVE_PREFIXES: usize = 8;
pub const SERVE_SUFFIXES: usize = 8;
/// Chain lengths of the eight `serve_mixed` suffixes (cast matrix included).
pub const SERVE_CHAIN_LENS: [usize; SERVE_SUFFIXES] = [6, 6, 7, 8, 9, 10, 11, 12];

/// The `serve_mixed` read corpus: 8 prefixes × 8 chain suffixes = 64
/// distinct pipelines, listed hottest first for the Zipf sampler (suffix-major:
/// the eight hottest are the shortest chain over each prefix). The cast is
/// sorted-dense, so its row count — and with it the plan-cache key — differs
/// per prefix.
pub fn serve_corpus(rng: &mut Rng64, ivm: &IvmCorpus) -> HybridCorpus {
    let topic = distinct(rng, N_TOPICS, SERVE_PREFIXES);
    let mut shape = Rng64::new(SHAPE_SEED);
    let mut b = LaBuilder::new(rng);
    let hot = ivm.views[0].def.clone();
    let prefixes: Vec<RelQuery> = vec![
        hot.clone().project(&["tid", "level", "uid"]),
        RelQuery::scan("users")
            .select_eq("verified", 1)
            .join("tweets", "uid", "uid")
            .select_eq("topic", topic[1])
            .project(&["tid", "level", "followers"]),
        hot.clone().join("users", "uid", "uid").project(&["tid", "level", "followers"]),
        RelQuery::scan("users")
            .select_eq("verified", 1)
            .join("tweets", "uid", "uid")
            .select_eq("level", 1)
            .project(&["tid", "topic", "followers"]),
        hot.select_eq("level", 3).project(&["tid", "level", "uid"]),
        RelQuery::scan("users")
            .select_eq("verified", 1)
            .join("tweets", "uid", "uid")
            .select_eq("topic", topic[3])
            .project(&["tid", "level", "followers"]),
        RelQuery::scan("users")
            .select_eq("verified", 1)
            .join("tweets", "uid", "uid")
            .select_eq("level", 2)
            .project(&["tid", "topic", "followers"]), // The one prefix no view answers comes last, so it is the coldest of
        // each suffix's eight: a 200k-row scan is ~4× any other prefix.
        RelQuery::scan("tweets").select_eq("topic", topic[0]).project(&["tid", "level", "uid"]),
    ];
    let mut queries = Vec::new();
    for (si, &len) in SERVE_CHAIN_LENS.iter().enumerate() {
        // dims[0] stands for the cast's row count; the chain proper starts
        // at the cast's two columns.
        let mut dims = shrinking_dims(&mut shape, len, REWRITE_MAX_DIM);
        dims[1] = 2;
        for (pi, prefix) in prefixes.iter().enumerate() {
            let columns: Vec<&str> = match &prefix.ops.last() {
                Some(hadad_rewrite::RelOp::Project { columns }) => {
                    columns[1..].iter().map(String::as_str).collect()
                }
                _ => unreachable!("every serve prefix ends in a projection"),
            };
            let cast_name = format!("N{pi}_{si}");
            let suffix =
                left_deep_chain(&mut b, &format!("K{pi}_{si}_"), &dims, Some(m(&cast_name)));
            queries.push(HybridQuery {
                name: format!("p{pi}_chain{len}_{si}"),
                pipeline: HybridPipeline {
                    prefix: prefix.clone(),
                    sort_key: Some("tid".into()),
                    cast: dense_cast(&columns),
                    cast_name,
                    suffix,
                },
            });
        }
    }
    HybridCorpus {
        views: Vec::new(),
        la_views: Vec::new(),
        queries,
        la_cat: b.cat,
        la_env: b.env,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = Rng64::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&k| k < 64));
        let share = |k: usize| a.iter().filter(|&&x| x == k).count() as f64 / a.len() as f64;
        // H(64) ≈ 4.744: rank 0 draws ≈ 21 %, rank 1 half of that.
        assert!((share(0) - 1.0 / 4.744).abs() < 0.02, "{}", share(0));
        assert!((share(1) - 0.5 / 4.744).abs() < 0.02, "{}", share(1));
        // The hot half (what a 32-entry cache can hold) carries most draws.
        let hot: f64 = (0..32).map(share).sum();
        assert!(hot > 0.8 && hot < 0.9, "{hot}");
    }

    fn la_hash(seed: u64) -> u32 {
        let mut rng = Rng64::new(seed);
        let mut h = CorpusHash::new();
        for p in la_rewrite_corpus(&mut rng) {
            h.str(&p.name);
            h.str(&p.expr.to_string());
            for n in p.expr.base_matrices() {
                h.matrix(p.env.get(n).unwrap());
            }
        }
        h.finish32()
    }

    #[test]
    fn la_corpus_is_a_function_of_the_seed() {
        assert_eq!(la_hash(1), la_hash(1));
        assert_ne!(la_hash(1), la_hash(2));
        let corpus = la_rewrite_corpus(&mut Rng64::new(3));
        assert_eq!(corpus.len(), 48);
        let with_view = corpus.iter().filter(|p| !p.views.is_empty()).count();
        assert_eq!(with_view, 16, "a third of the pipelines carry an LA view");
        assert_eq!(la_exec_corpus(&mut Rng64::new(3)).len(), 9);
    }

    /// The stream deletes only rows that are live, with their exact values,
    /// and never hands out a `tid` that is still in the table.
    #[test]
    fn update_stream_keeps_tid_a_key() {
        let mut rng = Rng64::new(5);
        let t = tables(&mut rng);
        let mut live: std::collections::HashMap<i64, TweetRow> =
            t.rows.iter().map(|r| (r[0], *r)).collect();
        let mut s = UpdateStream::new(Rng64::new(6), t.rows);
        for _ in 0..450 {
            let (ins, del) = s.next_batch();
            assert_eq!((ins.len(), del.len()), (BATCH_ROWS, BATCH_ROWS));
            for row in &ins {
                let r: Vec<i64> = row.iter().map(|v| v.as_i64().unwrap()).collect();
                assert!((r[0] as usize) < TID_SPACE);
                assert!(
                    live.insert(r[0], [r[0], r[1], r[2], r[3]]).is_none(),
                    "tid reused live"
                );
            }
            for row in &del {
                let r: Vec<i64> = row.iter().map(|v| v.as_i64().unwrap()).collect();
                assert_eq!(live.remove(&r[0]), Some([r[0], r[1], r[2], r[3]]));
            }
            assert_eq!(live.len(), N_TWEETS);
            assert_eq!(s.live_rows(), N_TWEETS);
        }
    }
}
