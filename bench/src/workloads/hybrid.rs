//! `hybrid_query`: relational prefix → cast → LA suffix. One op is
//! `rewrite_hybrid(p)`, the caller's re-cast of `result.table` (the result
//! drops the matrix it cast), then `eval_with(best)`.

use std::time::Instant;

use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;
use hadad_linalg::{Matrix, REFERENCE};
use hadad_relational::{ops, Catalog, Table};
use hadad_rewrite::{eval_with, Env, HybridOptimizer, HybridPipeline, HybridResult, Optimizer};

use super::{
    cast_table, layer, product_flops, rewrite_is_faulty, time_original, OpResult, PlanChecks,
    Traced, Workload, KERNELS,
};
use crate::corpus::{
    hybrid_corpus, tables, CorpusHash, HybridCorpus, HybridQuery, Tables, ViewDef,
};
use crate::trace::SpanId;

/// The relational catalog every table workload starts from.
pub fn base_catalog(t: &Tables) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("tweets", t.tweets.clone());
    catalog.register("users", t.users.clone());
    catalog
}

pub fn register_views(hy: &mut HybridOptimizer, views: &[ViewDef]) {
    for v in views {
        hy.register_table_view(v.name, v.def.clone()).expect("corpus view materializes");
    }
}

/// The original prefix on base tables through `RelQuery::execute`, sorted
/// and cast as the pipeline says: the reference no rewriter touched.
pub fn reference_cast(p: &HybridPipeline, catalog: &Catalog) -> Matrix {
    let table: Table = p.prefix.execute(catalog).expect("original prefix executes");
    let table = match &p.sort_key {
        Some(k) => ops::sort_by_int(&table, k).expect("sort key exists"),
        None => table,
    };
    cast_table(&table, &p.cast)
}

/// Shape and nnz only: what pricing a plan needs, without the histograms.
pub fn light_meta(m: &MatrixMeta) -> MatrixMeta {
    MatrixMeta::sparse(m.rows, m.cols, m.nnz)
}

/// Per-query state shared by `hybrid_query` and the readers of
/// `serve_mixed`.
pub struct QueryState {
    pub q: HybridQuery,
    /// The suffix's matrices; the cast is re-bound by every op.
    pub env: Env,
    pub flops_cat: MetaCatalog,
    pub checks: PlanChecks,
    orig_ns: Option<f64>,
}

impl QueryState {
    pub fn new(q: HybridQuery, corpus_env: &Env, corpus_cat: &MetaCatalog) -> Self {
        // Only the matrices this suffix names: sixty-four readers' worth of
        // full environments would be most of the process's memory.
        let mut env = Env::new();
        let mut flops_cat = MetaCatalog::new();
        for name in q.pipeline.suffix.base_matrices() {
            if let (Some(m), Some(meta)) = (corpus_env.get(name), corpus_cat.get(name)) {
                env.bind(name, m.clone());
                flops_cat.register(name, meta.clone());
            }
        }
        QueryState { q, env, flops_cat, checks: PlanChecks::default(), orig_ns: None }
    }

    /// The reference value of the whole pipeline over `catalog`: original
    /// prefix, original suffix, `REFERENCE` kernels.
    pub fn reference(&self, catalog: &Catalog) -> Matrix {
        let mut env = self.env.clone();
        env.bind(&self.q.pipeline.cast_name, reference_cast(&self.q.pipeline, catalog));
        eval_with(&self.q.pipeline.suffix, &env, &REFERENCE).expect("original suffix evaluates")
    }

    /// The part of an op after `rewrite_hybrid`: re-cast, bind, execute the
    /// chosen plan. Returns the value and the plan's execution time (ns).
    pub fn execute_best(
        &mut self,
        r: &HybridResult,
        tr: &mut Option<&mut Traced>,
        root: Option<SpanId>,
    ) -> (Option<Matrix>, u64) {
        let sp = tr.as_deref_mut().map(|t| t.begin(layer::RECAST, root.unwrap()));
        let mat = cast_table(&r.table, &self.q.pipeline.cast);
        self.env.bind(&self.q.pipeline.cast_name, mat);
        if let Some(t) = tr.as_deref_mut() {
            t.end(sp.unwrap());
        }
        let sp = tr.as_deref_mut().map(|t| t.begin(layer::EVAL, root.unwrap()));
        let value = eval_with(&r.best.expr, &self.env, &KERNELS).ok();
        let eval_ns = tr.as_deref_mut().map_or(0, |t| t.end(sp.unwrap()));
        (value, eval_ns)
    }

    /// Times the original suffix over the cast the last op bound.
    pub fn time_original(&mut self, t: &mut Traced) {
        let suffix = &self.q.pipeline.suffix;
        let ns = time_original(|| eval_with(suffix, &self.env, &KERNELS).is_ok());
        t.push("eval.orig_ns", ns);
        self.orig_ns = Some(ns);
    }

    /// Whether the op's result is acceptable apart from its value.
    pub fn is_faulty(r: &HybridResult) -> bool {
        r.degraded.is_some() || rewrite_is_faulty(&r.ranked)
    }

    /// Spans and counts of one hybrid op, after the fact.
    pub fn record(
        &mut self,
        t: &mut Traced,
        sp_hybrid: SpanId,
        r: &HybridResult,
        timings: (u64, u64),
    ) {
        let (hybrid_ns, eval_ns) = timings;
        let la_us = r.ranked.report.elapsed_us;
        let first = t.tracer.phases(
            sp_hybrid,
            &[
                (layer::PACB, r.rel.pacb_us),
                (layer::RELEXEC, r.rel.exec_us),
                (layer::CAST, r.cast_us),
                (layer::OPTIMIZER, la_us),
            ],
        );
        t.record_rewrite(first + 3, &r.ranked, &self.q.pipeline.suffix);
        t.add("hybrid.phases_us", (r.rel.pacb_us + r.rel.exec_us + r.cast_us + la_us) as f64);
        t.add("hybrid.elapsed_us", r.elapsed_us as f64);
        t.add("pacb.rewritings", r.rel.pacb.rewritings.len() as f64);
        t.add("pacb.view_hits", f64::from(u8::from(r.rel.rewriting.is_some())));
        t.add("relexec.rows_out", r.rel.rows_out as f64);
        t.add("relexec.rows_scanned", r.rel.cost_best.unwrap_or(r.rel.cost_original));
        t.add("cast.nnz", r.cast_meta.nnz as f64);
        self.flops_cat.register(&self.q.pipeline.cast_name, light_meta(&r.cast_meta));
        t.add("kernel.flops", product_flops(&r.best.expr, &self.flops_cat));
        if self.orig_ns.is_none() {
            self.time_original(t);
        }
        t.add("plan.orig_ns", self.orig_ns.unwrap_or(0.0));
        t.add("plan.best_ns", eval_ns as f64);
        t.add("plan.rewrite_ns", hybrid_ns as f64);
    }
}

/// The LA side of a hybrid optimizer: the corpus catalogue, with a
/// placeholder entry for every cast an LA view is defined over (a view's
/// definition must price even while another pipeline's cast is bound).
fn la_catalog(corpus: &HybridCorpus, catalog: &Catalog) -> MetaCatalog {
    let mut la_cat = corpus.la_cat.clone();
    for (_, cast_name, _) in &corpus.la_views {
        let q = corpus
            .queries
            .iter()
            .find(|q| &q.pipeline.cast_name == cast_name)
            .expect("an LA view is defined over some pipeline's cast");
        la_cat.register(
            cast_name,
            MatrixMeta::from_matrix(&reference_cast(&q.pipeline, catalog)),
        );
    }
    la_cat
}

pub struct HybridWorkload {
    hy: HybridOptimizer,
    queries: Vec<QueryState>,
    references: Vec<Matrix>,
    hash: u32,
}

impl HybridWorkload {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x1a_0003);
        let t = tables(&mut rng);
        let corpus = hybrid_corpus(&mut rng);
        let mut hash = CorpusHash::new();
        hash.table(&t.tweets);
        hash.table(&t.users);

        let catalog = base_catalog(&t);
        let la_cat = la_catalog(&corpus, &catalog);
        let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat).with_plan_cache(0));
        register_views(&mut hy, &corpus.views);
        for (name, _, def) in &corpus.la_views {
            hy.register_la_view(name, def.clone()).expect("corpus LA view certifies");
        }

        let mut queries = Vec::new();
        let mut references = Vec::new();
        for q in corpus.queries {
            hash.str(&q.name);
            hash.str(&format!("{:?}", q.pipeline.prefix));
            hash.str(&q.pipeline.suffix.to_string());
            let mut s = QueryState::new(q, &corpus.la_env, &corpus.la_cat);
            // Materialize LA views over this pipeline's cast from the
            // reference cast, as a deployment would have.
            let cast = reference_cast(&s.q.pipeline, &hy.catalog);
            for (name, cast_name, def) in &corpus.la_views {
                if cast_name == &s.q.pipeline.cast_name {
                    let mut env = Env::new();
                    env.bind(cast_name, cast.clone());
                    let view = eval_with(def, &env, &REFERENCE).expect("LA view materializes");
                    s.flops_cat.register(name, MatrixMeta::from_matrix(&view));
                    s.env.bind(name, view);
                }
            }
            references.push(s.reference(&hy.catalog));
            queries.push(s);
        }
        for name in corpus.la_cat.names() {
            hash.matrix(corpus.la_env.get(name).expect("catalogued matrices are bound"));
        }
        let mut w = HybridWorkload { hy, queries, references, hash: hash.finish32() };
        for i in 0..w.queries.len() {
            w.op(i, None);
        }
        w
    }
}

impl Workload for HybridWorkload {
    fn ops_per_pass(&self) -> usize {
        self.queries.len()
    }

    fn op(&mut self, i: usize, mut tr: Option<&mut Traced>) -> OpResult {
        let s = &mut self.queries[i];
        let root = tr.as_deref_mut().map(Traced::begin_op);
        let t0 = Instant::now();
        let sp_h = tr.as_deref_mut().map(|t| t.begin(layer::HYBRID, root.unwrap()));
        let result = self.hy.rewrite_hybrid(&s.q.pipeline);
        let hybrid_ns = tr.as_deref_mut().map_or(0, |t| t.end(sp_h.unwrap()));
        let (value, eval_ns) = match &result {
            Ok(r) => s.execute_best(r, &mut tr, root),
            Err(_) => (None, 0),
        };
        let latency = t0.elapsed();
        if let Some(t) = tr.as_deref_mut() {
            t.end(root.unwrap());
        }

        let failed = match (&result, &value) {
            (Ok(r), Some(v)) => {
                QueryState::is_faulty(r)
                    || !s.checks.agrees(
                        &r.best.expr,
                        r.rel.rewriting.is_some(),
                        v,
                        &self.references[i],
                    )
            }
            _ => true,
        };
        if let (Some(t), Ok(r)) = (tr, &result) {
            s.record(t, sp_h.unwrap(), r, (hybrid_ns, eval_ns));
        }
        OpResult { latency, failed }
    }

    fn time_originals(&mut self, tr: &mut Traced) {
        for s in &mut self.queries {
            s.time_original(tr);
        }
    }

    fn corpus_hash(&self) -> u32 {
        self.hash
    }
}
