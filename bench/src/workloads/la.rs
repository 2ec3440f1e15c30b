//! `la_rewrite` and `la_exec`: pure-LA pipelines. One op is the paper's
//! `RW_find + RW_exec` — `Optimizer::rewrite(e)` with the plan cache off,
//! then `eval_with(best, env, KERNELS)`.

use std::time::Instant;

use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;
use hadad_linalg::{default_backend, ExecBackend, Matrix, REFERENCE};
use hadad_rewrite::{eval_with, Env, Optimizer};

use super::{
    layer, product_flops, rewrite_is_faulty, time_original, OpResult, PlanChecks, Traced,
    Workload, KERNELS,
};
use crate::corpus::{la_exec_corpus, la_rewrite_corpus, CorpusHash, LaPipeline};
use crate::stats::median;

struct LaState {
    p: LaPipeline,
    opt: Optimizer,
    /// Base matrices plus every view's materialization.
    env: Env,
    /// `p.cat` plus the views' real metadata, for pricing plans that land
    /// on view leaves.
    flops_cat: MetaCatalog,
    /// The *original* expression on the `REFERENCE` backend: never a value
    /// the rewriter had a hand in.
    reference: Matrix,
    checks: PlanChecks,
    /// exec(original) on [`KERNELS`], timed before the traced run.
    orig_ns: f64,
}

pub struct LaWorkload {
    pipes: Vec<LaState>,
    hash: u32,
}

impl LaWorkload {
    pub fn la_rewrite(seed: u64) -> Self {
        Self::setup(la_rewrite_corpus(&mut Rng64::new(seed ^ 0x1a_0001)))
    }

    pub fn la_exec(seed: u64) -> Self {
        Self::setup(la_exec_corpus(&mut Rng64::new(seed ^ 0x1a_0002)))
    }

    fn setup(corpus: Vec<LaPipeline>) -> Self {
        let mut hash = CorpusHash::new();
        let pipes = corpus
            .into_iter()
            .map(|p| {
                hash.str(&p.name);
                hash.str(&p.expr.to_string());
                for name in p.cat.names() {
                    hash.str(name);
                    hash.matrix(p.env.get(name).expect("catalogued matrices are bound"));
                }
                // Plan cache explicitly off: every op pays the full search.
                let mut opt =
                    Optimizer::new(p.cat.clone()).with_budget(p.budget).with_plan_cache(0);
                let mut env = p.env.clone();
                let mut flops_cat = p.cat.clone();
                for (name, def) in &p.views {
                    opt.register_la_view(name, def.clone()).expect("corpus views certify");
                    let mat = eval_with(def, &env, &REFERENCE).expect("view materializes");
                    flops_cat.register(name, MatrixMeta::from_matrix(&mat));
                    env.bind(name, mat);
                }
                let reference = eval_with(&p.expr, &env, &REFERENCE)
                    .expect("original evaluates on reference");
                LaState {
                    p,
                    opt,
                    env,
                    flops_cat,
                    reference,
                    checks: PlanChecks::default(),
                    orig_ns: 0.0,
                }
            })
            .collect();
        let mut w = LaWorkload { pipes, hash: hash.finish32() };
        // Warm-up pass: lazy statics, allocator, and the per-plan checks.
        for i in 0..w.pipes.len() {
            w.op(i, None);
        }
        w
    }

    /// Reference-over-parallel time of direct `multiply` calls on the dense
    /// GEMM and the sparse product (base: the default backend at
    /// `PARALLEL.threads()`, the one place the bench runs it), when the
    /// corpus has them.
    pub fn parallel_vs_reference(&self) -> f64 {
        let time = |backend: &dyn ExecBackend, a: &Matrix, b: &Matrix| {
            let reps: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(backend.multiply(a, b).expect("operands conform"));
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            median(&reps)
        };
        let (mut reference, mut default) = (0.0, 0.0);
        for (pipe, a, b) in [("dense_gemm", "G1", "G2"), ("spgemm", "S1", "S2")] {
            let Some(s) = self.pipes.iter().find(|s| s.p.name == pipe) else { return 0.0 };
            let (a, b) = (s.env.get(a).expect("operand"), s.env.get(b).expect("operand"));
            reference += time(&REFERENCE, a, b);
            default += time(default_backend(), a, b);
        }
        reference / default
    }
}

impl Workload for LaWorkload {
    fn ops_per_pass(&self) -> usize {
        self.pipes.len()
    }

    fn op(&mut self, i: usize, mut tr: Option<&mut Traced>) -> OpResult {
        let s = &mut self.pipes[i];
        let root = tr.as_deref_mut().map(Traced::begin_op);
        let t0 = Instant::now();
        let sp_rw = tr.as_deref_mut().map(|t| t.begin(layer::OPTIMIZER, root.unwrap()));
        let ranked = s.opt.rewrite(&s.p.expr);
        let rewrite_ns = tr.as_deref_mut().map_or(0, |t| t.end(sp_rw.unwrap()));
        let sp_ev = tr.as_deref_mut().map(|t| t.begin(layer::EVAL, root.unwrap()));
        let value = ranked.as_ref().ok().map(|r| eval_with(&r.best().expr, &s.env, &KERNELS));
        let eval_ns = tr.as_deref_mut().map_or(0, |t| t.end(sp_ev.unwrap()));
        let latency = t0.elapsed();
        if let Some(t) = tr.as_deref_mut() {
            t.end(root.unwrap());
        }

        let failed = match (&ranked, &value) {
            (Ok(r), Some(Ok(v))) => {
                rewrite_is_faulty(r) || !s.checks.agrees(&r.best().expr, false, v, &s.reference)
            }
            _ => true,
        };
        if let (Some(t), Ok(r)) = (tr, &ranked) {
            t.record_rewrite(sp_rw.unwrap(), r, &s.p.expr);
            t.add("kernel.flops", product_flops(&r.best().expr, &s.flops_cat));
            t.add("plan.orig_ns", s.orig_ns);
            t.add("plan.best_ns", eval_ns as f64);
            t.add("plan.rewrite_ns", rewrite_ns as f64);
        }
        OpResult { latency, failed }
    }

    fn time_originals(&mut self, tr: &mut Traced) {
        for s in &mut self.pipes {
            s.orig_ns = time_original(|| eval_with(&s.p.expr, &s.env, &KERNELS).is_ok());
            tr.push("eval.orig_ns", s.orig_ns);
        }
    }

    fn corpus_hash(&self) -> u32 {
        self.hash
    }
}
